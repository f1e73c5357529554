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

use std::collections::HashMap;

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

/// Per-node state of the Lemma 5.3 protocol.
#[derive(Clone, Debug)]
pub struct SymmetryBreak {
    id: VertexId,
    color: u32,
    phase: u8,
    pointer: Option<VertexId>,
    nbr_color: HashMap<VertexId, u32>,
    nbr_pointer: HashMap<VertexId, Option<VertexId>>,
    nbr_leaf: HashMap<VertexId, bool>,
    children: Vec<VertexId>,
    is_leaf: bool,
    joined: Option<VertexId>,
    joiners: Vec<VertexId>,
    consumed: bool,
    nbr_consumed: HashMap<VertexId, bool>,
    nbr_join: HashMap<VertexId, Option<VertexId>>,
}

impl SymmetryBreak {
    /// Creates the program for a node with the given proper color.
    pub fn new(id: VertexId, color: u32) -> Self {
        SymmetryBreak {
            id,
            color,
            phase: 0,
            pointer: None,
            nbr_color: HashMap::new(),
            nbr_pointer: HashMap::new(),
            nbr_leaf: HashMap::new(),
            children: Vec::new(),
            is_leaf: false,
            joined: None,
            joiners: Vec::new(),
            consumed: false,
            nbr_consumed: HashMap::new(),
            nbr_join: HashMap::new(),
        }
    }

    /// The center this node joined as a star leaf, if any.
    pub fn joined(&self) -> Option<VertexId> {
        self.joined
    }

    /// The leaves that joined this node as a star center.
    pub fn joiners(&self) -> &[VertexId] {
        &self.joiners
    }

    /// Whether this node ended up in a star.
    pub fn consumed(&self) -> bool {
        self.consumed
    }

    /// This node's pointer (its smallest-colored smaller neighbor).
    pub fn pointer(&self) -> Option<VertexId> {
        self.pointer
    }

    /// Children in the pointer forest.
    pub fn children(&self) -> &[VertexId] {
        &self.children
    }

    fn broadcast(ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, SymMsg)>, msg: SymMsg) {
        out.extend(ctx.neighbors.iter().map(|&w| (w, msg.clone())));
    }
}

impl NodeProgram for SymmetryBreak {
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
        // Event-driven: record every arrival in its per-type buffer, then
        // advance through the phases as soon as a phase's messages are
        // complete (one from every neighbor). On a perfect network this
        // transitions in lockstep — exactly the original five rounds — but
        // it also stays correct when retransmissions (the fault-mode
        // [`Reliable`](congest_sim::protocols::Reliable) wrapper) spread a
        // phase's arrivals over several rounds. The `is_none()` guards keep
        // duplicated deliveries (unwrapped faulty runs) idempotent.
        for (from, msg) in inbox {
            match msg {
                SymMsg::Hello { color } => {
                    self.nbr_color.insert(*from, *color);
                }
                SymMsg::Pointer { to } => {
                    if self.nbr_pointer.insert(*from, *to).is_none() && *to == Some(self.id) {
                        self.children.push(*from);
                    }
                }
                SymMsg::LeafStatus { leaf } => {
                    self.nbr_leaf.insert(*from, *leaf);
                }
                SymMsg::Join { target } => {
                    if self.nbr_join.insert(*from, *target).is_none() && *target == Some(self.id) {
                        self.joiners.push(*from);
                    }
                }
                SymMsg::Consumed { consumed } => {
                    self.nbr_consumed.insert(*from, *consumed);
                }
            }
        }
        let deg = ctx.neighbors.len();
        if self.phase == 0 && self.nbr_color.len() == deg {
            self.phase = 1;
            // Point at the smallest-(color, id) strictly smaller-colored
            // neighbor.
            self.pointer = self
                .nbr_color
                .iter()
                .filter(|&(_, &c)| c < self.color)
                .min_by_key(|&(&w, &c)| (c, w))
                .map(|(&w, _)| w);
            Self::broadcast(ctx, out, SymMsg::Pointer { to: self.pointer });
        }
        if self.phase == 1 && self.nbr_pointer.len() == deg {
            self.phase = 2;
            self.children.sort();
            self.is_leaf = self.children.is_empty() && self.pointer.is_some();
            Self::broadcast(ctx, out, SymMsg::LeafStatus { leaf: self.is_leaf });
        }
        if self.phase == 2 && self.nbr_leaf.len() == deg {
            self.phase = 3;
            if self.is_leaf {
                // Accept unless an adjacent sibling leaf with smaller id
                // exists (ties among adjacent siblings broken by id so
                // the star stays induced).
                let blocked = self.nbr_leaf.iter().any(|(&w, &leaf)| {
                    leaf && w < self.id
                        && self.nbr_pointer.get(&w).copied().flatten() == self.pointer
                });
                if !blocked {
                    self.joined = self.pointer;
                }
            }
            let target = self.joined;
            Self::broadcast(ctx, out, SymMsg::Join { target });
        }
        if self.phase == 3 && self.nbr_join.len() == deg {
            self.phase = 4;
            self.joiners.sort();
            self.consumed = self.joined.is_some() || !self.joiners.is_empty();
            let consumed = self.consumed;
            Self::broadcast(ctx, out, SymMsg::Consumed { consumed });
        }
        if self.phase == 4 && self.nbr_consumed.len() == deg {
            self.phase = 5; // done; quiescence follows
        }
    }
}

/// The orchestrated outcome of one symmetry-breaking run.
#[derive(Clone, Debug)]
pub struct SymmetryOutcome {
    /// Disjoint induced stars of size >= 2: `(center, leaves)`.
    pub stars: Vec<(VertexId, Vec<VertexId>)>,
    /// Color-monotone chains of the unconsumed nodes (length 1 =
    /// singleton, length 2 = pair to star-merge, length >= 3 = set-aside
    /// path, step 2i of the paper's algorithm).
    pub chains: Vec<Vec<VertexId>>,
    /// Kernel rounds used (constant: five).
    pub rounds: usize,
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
    assert_eq!(colors.len(), gv.vertex_count());
    let out = run(gv, symmetry_programs(gv, colors), cfg)?;
    extract_outcome(gv, out.programs, out.metrics.rounds)
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
    assert_eq!(colors.len(), gv.vertex_count());
    let out = ctx.run_phase_on(gv, symmetry_programs(gv, colors))?;
    extract_outcome(gv, out.programs, out.metrics.rounds)
}

/// The per-vertex Lemma 5.3 programs for a properly colored `gv`.
fn symmetry_programs(gv: &Graph, colors: &[u32]) -> Vec<SymmetryBreak> {
    gv.vertices()
        .map(|v| SymmetryBreak::new(v, colors[v.index()]))
        .collect()
}

/// Reads stars and chains out of the quiesced programs.
fn extract_outcome(
    gv: &Graph,
    programs: Vec<SymmetryBreak>,
    rounds: usize,
) -> Result<SymmetryOutcome, SimError> {
    let ps = &programs;

    let mut stars = Vec::new();
    for v in gv.vertices() {
        let p = &ps[v.index()];
        if !p.joiners().is_empty() {
            stars.push((v, p.joiners().to_vec()));
        }
    }

    // Chain links among unconsumed nodes: v -> pointer(v) when the pointer
    // is unconsumed and v is its unique unconsumed child.
    let remaining: Vec<VertexId> = gv
        .vertices()
        .filter(|v| !ps[v.index()].consumed())
        .collect();
    let mut next: HashMap<VertexId, VertexId> = HashMap::new();
    let mut has_incoming: HashMap<VertexId, usize> = HashMap::new();
    for &v in &remaining {
        let p = &ps[v.index()];
        if let Some(ptr) = p.pointer() {
            if !ps[ptr.index()].consumed() {
                let unconsumed_children = ps[ptr.index()]
                    .children()
                    .iter()
                    .filter(|c| !ps[c.index()].consumed())
                    .count();
                if unconsumed_children == 1 {
                    next.insert(v, ptr);
                    *has_incoming.entry(ptr).or_insert(0) += 1;
                }
            }
        }
    }
    let mut chains = Vec::new();
    for &v in &remaining {
        if has_incoming.contains_key(&v) {
            continue; // not a chain tail
        }
        let mut chain = vec![v];
        let mut cur = v;
        while let Some(&nxt) = next.get(&cur) {
            chain.push(nxt);
            cur = nxt;
        }
        chains.push(chain);
    }
    Ok(SymmetryOutcome {
        stars,
        chains,
        rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use planar_lib::gen;

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
        for (center, leaves) in &out.stars {
            assert!(!leaves.is_empty());
            assert!(seen.insert(*center), "star center reused");
            for (i, &l) in leaves.iter().enumerate() {
                assert!(seen.insert(l), "star leaf reused");
                assert!(g.has_edge(*center, l), "leaf must touch center");
                for &l2 in &leaves[i + 1..] {
                    assert!(!g.has_edge(l, l2), "star must be induced");
                }
            }
        }
        // Chains are color-monotone paths in g covering everything else.
        for chain in &out.chains {
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
        assert_eq!(out.stars.len(), 1);
        assert_eq!(out.stars[0], (VertexId(6), vec![VertexId(7)]));
        assert_eq!(out.chains.len(), 1);
        assert_eq!(out.chains[0].len(), n - 2);
    }

    #[test]
    fn star_graph_consumed_entirely() {
        let g = gen::star(6);
        let colors = vec![0, 1, 1, 1, 1, 1];
        let out = symmetry_break(&g, &colors, &SimConfig::default()).unwrap();
        check_outcome(&g, &out, &colors);
        assert_eq!(out.stars.len(), 1);
        assert_eq!(out.stars[0].1.len(), 5);
        assert!(out.chains.is_empty());
    }

    #[test]
    fn triangle_breaks_ties_by_id() {
        let g = gen::cycle(3);
        let colors = vec![0, 1, 2];
        let out = symmetry_break(&g, &colors, &SimConfig::default()).unwrap();
        check_outcome(&g, &out, &colors);
        // 1 and 2 both point at 0 and are adjacent leaves: only 1 joins.
        assert_eq!(out.stars, vec![(VertexId(0), vec![VertexId(1)])]);
        assert_eq!(out.chains, vec![vec![VertexId(2)]]);
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
            merged += out.stars.iter().map(|(_, l)| l.len() + 1).sum::<usize>();
            merged += out
                .chains
                .iter()
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
        assert!(out.stars.is_empty());
        assert_eq!(out.chains, vec![vec![VertexId(0)]]);
    }
}
