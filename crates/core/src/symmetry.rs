//! The symmetry-breaking algorithm of Lemma 5.3.
//!
//! Given a properly colored (outer-)planar *inter-part* graph, the algorithm
//! computes in O(1) message rounds:
//!
//! * disjoint node sets of size >= 2, each inducing a **star** (the `V_i` of
//!   the lemma), and
//! * a partition of the remaining nodes into **color-monotone chains**
//!   (paths along strictly decreasing colors — the lemma's color-distinct
//!   paths) and singletons (paths of length one).
//!
//! The construction: every node points at its smallest-colored smaller
//! neighbor; the pointer graph is a forest (colors strictly decrease along
//! pointers). Leaves of the forest join their parent, with ties among
//! *adjacent* sibling leaves broken by id so every star is an induced star;
//! what remains decomposes into unary chains of the pointer forest, which
//! are color-monotone paths. The paper's full version (its Section 5.4) was
//! never published; this is our reconstruction of an algorithm satisfying
//! the lemma's interface, and it needs no outerplanarity — planarity of the
//! inter-part graph is only needed for the *counting* argument downstream.
//!
//! Exactly five kernel rounds are used, independent of the graph size.

use congest_sim::{run, NodeCtx, NodeProgram, SimConfig, SimError, Words};
use planar_graph::{Graph, VertexId};

use crate::exec::ExecutionContext;

/// Messages of the symmetry-breaking protocol. Every variant is O(1) words.
#[derive(Clone, Debug)]
pub enum SymMsg {
    /// Round 1: announce own color.
    Hello {
        /// The sender's color.
        color: u32,
    },
    /// Round 2: announce the chosen pointer (None at local color minima).
    Pointer {
        /// The neighbor this node points to.
        to: Option<VertexId>,
    },
    /// Round 3: announce whether this node is a pointer-forest leaf.
    LeafStatus {
        /// Leaf flag.
        leaf: bool,
    },
    /// Round 4: announce the star-join decision (target = the center joined,
    /// or None).
    Join {
        /// The center this node joins, if any.
        target: Option<VertexId>,
    },
    /// Round 5: announce whether this node was consumed by a star.
    Consumed {
        /// Consumed flag.
        consumed: bool,
    },
}

impl SymMsg {
    /// The message's phase, `0..5`: its bit in [`Slot::heard`] and its
    /// counter in [`SymmetryBreak::heard`].
    fn phase(&self) -> usize {
        match self {
            SymMsg::Hello { .. } => 0,
            SymMsg::Pointer { .. } => 1,
            SymMsg::LeafStatus { .. } => 2,
            SymMsg::Join { .. } => 3,
            SymMsg::Consumed { .. } => 4,
        }
    }
}

impl Words for SymMsg {
    fn words(&self) -> usize {
        match self {
            SymMsg::Hello { .. } => 2,
            SymMsg::Pointer { .. } => 3,
            SymMsg::LeafStatus { .. } => 2,
            SymMsg::Join { .. } => 3,
            SymMsg::Consumed { .. } => 2,
        }
    }
}

/// What a node heard from one neighbor. A node's slots are aligned with
/// its sorted neighbor list and borrowed from one table per run.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    /// Bit `k` is set once the neighbor's phase-`k` message arrived.
    heard: u8,
    color: u32,
    pointer: Option<VertexId>,
    leaf: bool,
    /// The neighbor points at this node (it is a pointer-forest child).
    child: bool,
    /// The neighbor joined this node's star.
    joiner: bool,
}

/// Per-node state of the Lemma 5.3 protocol.
#[derive(Debug)]
pub struct SymmetryBreak<'a> {
    id: VertexId,
    color: u32,
    phase: u8,
    pointer: Option<VertexId>,
    /// The node's sorted neighbors, aligned with `slots`.
    neighbors: &'a [VertexId],
    slots: &'a mut [Slot],
    /// Distinct neighbors heard from, per phase.
    heard: [usize; 5],
    is_leaf: bool,
    joined: Option<VertexId>,
    consumed: bool,
}

impl<'a> SymmetryBreak<'a> {
    /// Creates the program for a node with the given proper color, its
    /// sorted `neighbors` and one default slot per neighbor.
    fn new(id: VertexId, color: u32, neighbors: &'a [VertexId], slots: &'a mut [Slot]) -> Self {
        debug_assert_eq!(neighbors.len(), slots.len());
        SymmetryBreak {
            id,
            color,
            phase: 0,
            pointer: None,
            neighbors,
            slots,
            heard: [0; 5],
            is_leaf: false,
            joined: None,
            consumed: false,
        }
    }

    /// The center this node joined as a star leaf, if any.
    pub fn joined(&self) -> Option<VertexId> {
        self.joined
    }

    /// The leaves that joined this node as a star center, ascending.
    pub fn joiners(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.flagged(|s| s.joiner)
    }

    /// Whether this node ended up in a star.
    pub fn consumed(&self) -> bool {
        self.consumed
    }

    /// This node's pointer (its smallest-colored smaller neighbor).
    pub fn pointer(&self) -> Option<VertexId> {
        self.pointer
    }

    /// Children in the pointer forest, ascending.
    pub fn children(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.flagged(|s| s.child)
    }

    fn flagged(&self, flag: fn(&Slot) -> bool) -> impl Iterator<Item = VertexId> + '_ {
        self.neighbors
            .iter()
            .zip(self.slots.iter())
            .filter(move |(_, s)| flag(s))
            .map(|(&w, _)| w)
    }

    fn broadcast(ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, SymMsg)>, msg: SymMsg) {
        out.extend(ctx.neighbors.iter().map(|&w| (w, msg.clone())));
    }
}

impl NodeProgram for SymmetryBreak<'_> {
    type Msg = SymMsg;

    fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, SymMsg)>) {
        Self::broadcast(ctx, out, SymMsg::Hello { color: self.color });
    }

    fn on_round(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: &[(VertexId, SymMsg)],
        out: &mut Vec<(VertexId, SymMsg)>,
    ) {
        // Event-driven: record every arrival in the sender's slot, then
        // advance through the phases as soon as a phase's messages are
        // complete (one from every neighbor). On a perfect network this
        // transitions in lockstep — exactly the original five rounds — but
        // it also stays correct when retransmissions (the fault-mode
        // [`Reliable`](congest_sim::protocols::Reliable) wrapper) spread a
        // phase's arrivals over several rounds. Only the first copy of a
        // phase's message from a sender counts, so duplicated deliveries
        // (unwrapped faulty runs) stay idempotent.
        for (from, msg) in inbox {
            let Ok(k) = self.neighbors.binary_search(from) else {
                continue;
            };
            let phase = msg.phase();
            let slot = &mut self.slots[k];
            if slot.heard & (1 << phase) != 0 {
                continue;
            }
            slot.heard |= 1 << phase;
            self.heard[phase] += 1;
            match *msg {
                SymMsg::Hello { color } => slot.color = color,
                SymMsg::Pointer { to } => {
                    slot.pointer = to;
                    slot.child = to == Some(self.id);
                }
                SymMsg::LeafStatus { leaf } => slot.leaf = leaf,
                SymMsg::Join { target } => slot.joiner = target == Some(self.id),
                SymMsg::Consumed { .. } => {}
            }
        }
        let deg = ctx.neighbors.len();
        if self.phase == 0 && self.heard[0] == deg {
            self.phase = 1;
            // Point at the smallest-(color, id) strictly smaller-colored
            // neighbor.
            self.pointer = self
                .neighbors
                .iter()
                .zip(self.slots.iter())
                .filter(|(_, s)| s.color < self.color)
                .min_by_key(|&(&w, s)| (s.color, w))
                .map(|(&w, _)| w);
            Self::broadcast(ctx, out, SymMsg::Pointer { to: self.pointer });
        }
        if self.phase == 1 && self.heard[1] == deg {
            self.phase = 2;
            self.is_leaf = !self.slots.iter().any(|s| s.child) && self.pointer.is_some();
            Self::broadcast(ctx, out, SymMsg::LeafStatus { leaf: self.is_leaf });
        }
        if self.phase == 2 && self.heard[2] == deg {
            self.phase = 3;
            if self.is_leaf {
                // Accept unless an adjacent sibling leaf with smaller id
                // exists (ties among adjacent siblings broken by id so
                // the star stays induced).
                let blocked = self
                    .neighbors
                    .iter()
                    .zip(self.slots.iter())
                    .any(|(&w, s)| s.leaf && w < self.id && s.pointer == self.pointer);
                if !blocked {
                    self.joined = self.pointer;
                }
            }
            let target = self.joined;
            Self::broadcast(ctx, out, SymMsg::Join { target });
        }
        if self.phase == 3 && self.heard[3] == deg {
            self.phase = 4;
            self.consumed = self.joined.is_some() || self.slots.iter().any(|s| s.joiner);
            let consumed = self.consumed;
            Self::broadcast(ctx, out, SymMsg::Consumed { consumed });
        }
        if self.phase == 4 && self.heard[4] == deg {
            self.phase = 5; // done; quiescence follows
        }
    }
}

/// The orchestrated outcome of one symmetry-breaking run: every node of
/// the virtual graph in exactly one star or chain, stored flat.
#[derive(Clone, Debug)]
pub struct SymmetryOutcome {
    /// The stars' nodes (each center, then its leaves ascending), then the
    /// chains' nodes.
    nodes: Vec<VertexId>,
    /// End offset in `nodes` of each star, then of each chain.
    ends: Vec<usize>,
    /// Number of stars (the first `stars` entries of `ends`).
    stars: usize,
    /// Kernel rounds used (constant: five).
    pub rounds: usize,
}

impl SymmetryOutcome {
    /// Disjoint induced stars of size >= 2: `(center, leaves)`.
    pub fn stars(&self) -> impl Iterator<Item = (VertexId, &[VertexId])> + '_ {
        self.groups(0..self.stars).map(|s| (s[0], &s[1..]))
    }

    /// Color-monotone chains of the unconsumed nodes (length 1 =
    /// singleton, length 2 = pair to star-merge, length >= 3 = set-aside
    /// path, step 2i of the paper's algorithm).
    pub fn chains(&self) -> impl Iterator<Item = &[VertexId]> + '_ {
        self.groups(self.stars..self.ends.len())
    }

    fn groups(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = &[VertexId]> + '_ {
        range.map(|k| {
            let start = if k == 0 { 0 } else { self.ends[k - 1] };
            &self.nodes[start..self.ends[k]]
        })
    }
}

/// Runs Lemma 5.3 on the (virtual) graph `gv` with a proper coloring.
///
/// # Errors
///
/// Propagates kernel errors.
///
/// # Panics
///
/// Panics if `colors.len() != gv.vertex_count()`.
pub fn symmetry_break(
    gv: &Graph,
    colors: &[u32],
    cfg: &SimConfig,
) -> Result<SymmetryOutcome, SimError> {
    let mut slots = Vec::new();
    let out = run(gv, symmetry_programs(gv, colors, &mut slots), cfg)?;
    Ok(extract_outcome(gv, &out.programs, out.metrics.rounds))
}

/// [`symmetry_break`] against a full [`ExecutionContext`]: the one kernel
/// run executes on the context's kernel with its reliability policy. The
/// virtual graph `gv` is *not* the context's session graph — it is built
/// per merge over the active parts — so the run goes through
/// [`ExecutionContext::run_phase_on`].
///
/// # Errors
///
/// Propagates kernel errors.
///
/// # Panics
///
/// Panics if `colors.len() != gv.vertex_count()`.
pub fn symmetry_break_ctx(
    ctx: &mut ExecutionContext<'_>,
    gv: &Graph,
    colors: &[u32],
) -> Result<SymmetryOutcome, SimError> {
    let mut slots = Vec::new();
    let out = ctx.run_phase_on(gv, symmetry_programs(gv, colors, &mut slots))?;
    Ok(extract_outcome(gv, &out.programs, out.metrics.rounds))
}

/// The per-vertex Lemma 5.3 programs for a properly colored `gv`, each
/// borrowing its neighbors' slots from `slots` (one table per run).
fn symmetry_programs<'a>(
    gv: &'a Graph,
    colors: &[u32],
    slots: &'a mut Vec<Slot>,
) -> Vec<SymmetryBreak<'a>> {
    assert_eq!(colors.len(), gv.vertex_count());
    slots.clear();
    slots.resize(2 * gv.edge_count(), Slot::default());
    let mut rest = &mut slots[..];
    gv.vertices()
        .map(|v| {
            let (mine, tail) = std::mem::take(&mut rest).split_at_mut(gv.degree(v));
            rest = tail;
            SymmetryBreak::new(v, colors[v.index()], gv.neighbors(v), mine)
        })
        .collect()
}

/// Reads stars and chains out of the quiesced programs.
fn extract_outcome(gv: &Graph, ps: &[SymmetryBreak<'_>], rounds: usize) -> SymmetryOutcome {
    let mut out = SymmetryOutcome {
        nodes: Vec::with_capacity(gv.vertex_count()),
        ends: Vec::new(),
        stars: 0,
        rounds,
    };
    for v in gv.vertices() {
        let start = out.nodes.len();
        out.nodes.push(v);
        out.nodes.extend(ps[v.index()].joiners());
        if out.nodes.len() - start > 1 {
            out.ends.push(out.nodes.len());
        } else {
            out.nodes.truncate(start);
        }
    }
    out.stars = out.ends.len();

    // Chain links among unconsumed nodes: v -> pointer(v) when the pointer
    // is unconsumed and v is its unique unconsumed child. Per node: the
    // link and whether some node links to it.
    let remaining = || gv.vertices().filter(|v| !ps[v.index()].consumed());
    let mut link: Vec<(Option<VertexId>, bool)> = vec![(None, false); gv.vertex_count()];
    for v in remaining() {
        if let Some(ptr) = ps[v.index()].pointer() {
            if !ps[ptr.index()].consumed() {
                let unconsumed_children = ps[ptr.index()]
                    .children()
                    .filter(|c| !ps[c.index()].consumed())
                    .count();
                if unconsumed_children == 1 {
                    link[v.index()].0 = Some(ptr);
                    link[ptr.index()].1 = true;
                }
            }
        }
    }
    for v in remaining() {
        if link[v.index()].1 {
            continue; // not a chain tail
        }
        out.nodes.push(v);
        let mut cur = v;
        while let Some(nxt) = link[cur.index()].0 {
            out.nodes.push(nxt);
            cur = nxt;
        }
        out.ends.push(out.nodes.len());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use planar_lib::gen;

    fn stars(out: &SymmetryOutcome) -> Vec<(VertexId, Vec<VertexId>)> {
        out.stars().map(|(c, l)| (c, l.to_vec())).collect()
    }

    fn chains(out: &SymmetryOutcome) -> Vec<Vec<VertexId>> {
        out.chains().map(<[VertexId]>::to_vec).collect()
    }

    /// Greedy proper coloring by ascending id.
    fn greedy_coloring(g: &Graph) -> Vec<u32> {
        let mut colors = vec![u32::MAX; g.vertex_count()];
        for v in g.vertices() {
            let used: Vec<u32> = g
                .neighbors(v)
                .iter()
                .filter(|w| w.index() < v.index())
                .map(|w| colors[w.index()])
                .collect();
            colors[v.index()] = (0..).find(|c| !used.contains(c)).unwrap();
        }
        colors
    }

    fn check_outcome(g: &Graph, out: &SymmetryOutcome, colors: &[u32]) {
        // Constant rounds.
        assert_eq!(out.rounds, 5);
        // Stars are induced, of size >= 2, and disjoint from each other and
        // from chains.
        let mut seen = std::collections::HashSet::new();
        for (center, leaves) in out.stars() {
            assert!(!leaves.is_empty());
            assert!(seen.insert(center), "star center reused");
            for (i, &l) in leaves.iter().enumerate() {
                assert!(seen.insert(l), "star leaf reused");
                assert!(g.has_edge(center, l), "leaf must touch center");
                for &l2 in &leaves[i + 1..] {
                    assert!(!g.has_edge(l, l2), "star must be induced");
                }
            }
        }
        // Chains are color-monotone paths in g covering everything else.
        for chain in out.chains() {
            for w in chain.windows(2) {
                assert!(g.has_edge(w[0], w[1]), "chain steps must be edges");
                assert!(
                    colors[w[1].index()] < colors[w[0].index()],
                    "chains must be color-monotone"
                );
            }
            for &v in chain {
                assert!(seen.insert(v), "chain node reused");
            }
        }
        assert_eq!(seen.len(), g.vertex_count(), "every node classified");
    }

    #[test]
    fn monotone_path_yields_one_star_and_one_chain() {
        let n = 8;
        let g = gen::path(n);
        let colors: Vec<u32> = (0..n as u32).collect();
        let out = symmetry_break(&g, &colors, &SimConfig::default()).unwrap();
        check_outcome(&g, &out, &colors);
        assert_eq!(stars(&out).len(), 1);
        assert_eq!(stars(&out)[0], (VertexId(6), vec![VertexId(7)]));
        assert_eq!(chains(&out).len(), 1);
        assert_eq!(chains(&out)[0].len(), n - 2);
    }

    #[test]
    fn star_graph_consumed_entirely() {
        let g = gen::star(6);
        let colors = vec![0, 1, 1, 1, 1, 1];
        let out = symmetry_break(&g, &colors, &SimConfig::default()).unwrap();
        check_outcome(&g, &out, &colors);
        assert_eq!(stars(&out).len(), 1);
        assert_eq!(stars(&out)[0].1.len(), 5);
        assert!(chains(&out).is_empty());
    }

    #[test]
    fn triangle_breaks_ties_by_id() {
        let g = gen::cycle(3);
        let colors = vec![0, 1, 2];
        let out = symmetry_break(&g, &colors, &SimConfig::default()).unwrap();
        check_outcome(&g, &out, &colors);
        // 1 and 2 both point at 0 and are adjacent leaves: only 1 joins.
        assert_eq!(stars(&out), vec![(VertexId(0), vec![VertexId(1)])]);
        assert_eq!(chains(&out), vec![vec![VertexId(2)]]);
    }

    #[test]
    fn random_outerplanar_instances() {
        for seed in 0..10 {
            let g = gen::random_outerplanar(20, seed);
            let colors = greedy_coloring(&g);
            let out = symmetry_break(&g, &colors, &SimConfig::default()).unwrap();
            check_outcome(&g, &out, &colors);
        }
    }

    #[test]
    fn sparse_outerplanar_makes_progress() {
        // Over many instances, a decent fraction of nodes should end up in
        // stars or 2-chains (i.e. merge) — the progress the merge reduction
        // relies on.
        let mut merged = 0usize;
        let mut total = 0usize;
        for seed in 0..10 {
            let g = gen::sparse_outerplanar(30, 8, seed);
            let colors = greedy_coloring(&g);
            let out = symmetry_break(&g, &colors, &SimConfig::default()).unwrap();
            check_outcome(&g, &out, &colors);
            merged += out.stars().map(|(_, l)| l.len() + 1).sum::<usize>();
            merged += out
                .chains()
                .filter(|c| c.len() == 2)
                .map(|_| 2)
                .sum::<usize>();
            total += 30;
        }
        assert!(
            merged * 5 >= total,
            "at least 20% of nodes should merge, got {merged}/{total}"
        );
    }

    #[test]
    fn empty_and_single_node_graphs() {
        let g = Graph::new(1);
        let out = symmetry_break(&g, &[0], &SimConfig::default()).unwrap();
        assert!(stars(&out).is_empty());
        assert_eq!(chains(&out), vec![vec![VertexId(0)]]);
    }
}
