//! The Theta(log* n) extension of Lemma 5.3: a deterministic distributed
//! algorithm computing an **independent vertex set of the line graph
//! `L(G)` that is dominating in `L(G)^2`** — i.e. a *maximal matching*:
//! pairwise non-adjacent edges such that every edge of `G` shares an
//! endpoint with a matched edge (distance <= 1 in `L(G)`, hence dominating
//! in `L(G)^2`).
//!
//! Construction (for graphs with a bounded-out-degree orientation, e.g.
//! outerplanar graphs with out-degree <= 2):
//!
//! 0. orient the edges by distributed degeneracy peeling
//!    ([`peel_orientation`]): out-degree at most the peeling threshold, in
//!    a round count that grows with `n` (logarithmically on random
//!    outerplanar graphs);
//! 1. split the out-edges by slot: slot `s` holds each vertex's `s`-th
//!    out-edge, so each slot is a *functional graph* (out-degree <= 1);
//! 2. Cole–Vishkin color reduction along the successor pointers: starting
//!    from the `O(log n)`-bit ids, `O(log* n)` iterations reach < 8 colors
//!    (5 iterations suffice for 64-bit ids — the `log* n` of every feasible
//!    `n`);
//! 3. for each color class in turn, unmatched vertices propose their slot
//!    edge to unmatched heads; heads accept the smallest proposer. Eight
//!    constant-round turns per slot make the matching maximal.
//!
//! Every step is a genuine kernel protocol. Steps 1–3 ([`ruling_edge_set`])
//! take `O(max_outdegree · (log* n + colors))` measured rounds — constant in
//! `n` for outerplanar inputs; step 0 is the part that grows with `n`. The
//! T4 experiment records both.

use std::collections::{HashMap, HashSet};

use congest_sim::{run, Metrics, NodeCtx, NodeProgram, SimConfig, SimError, Words, BROADCAST};
use planar_graph::{EdgeId, Graph, VertexId};

/// An edge orientation given as per-vertex out-neighbor lists.
#[derive(Clone, Debug)]
pub struct Orientation {
    out: Vec<Vec<VertexId>>,
}

impl Orientation {
    /// The out-neighbors of `v`.
    pub fn out(&self, v: VertexId) -> &[VertexId] {
        &self.out[v.index()]
    }

    /// The maximum out-degree.
    pub fn max_outdegree(&self) -> usize {
        self.out.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Checks that every edge of `g` is oriented exactly once.
    pub fn covers(&self, g: &Graph) -> bool {
        let mut seen = HashSet::new();
        for v in g.vertices() {
            for &w in self.out(v) {
                if !g.has_edge(v, w) || !seen.insert(EdgeId::new(v, w)) {
                    return false;
                }
            }
        }
        seen.len() == g.edge_count()
    }
}

/// Message of the distributed peeling protocol.
#[derive(Clone, Debug)]
enum PeelMsg {
    /// "I peel this iteration; orient our edge out of me."
    Peel,
    /// Round keep-alive.
    Tick,
}

impl Words for PeelMsg {
    fn words(&self) -> usize {
        1
    }
}

/// Distributed peeling program: in each iteration, every vertex whose
/// residual degree is at most `threshold` peels, orienting its residual
/// edges outward (ties between simultaneous peelers broken toward the
/// smaller id). A threshold of at least twice the arboricity peels a constant
/// fraction of the residual vertices per iteration, hence `O(log n)`
/// iterations. Lower thresholds still terminate on graphs whose
/// degeneracy they cover, but may take longer in the worst case (a fan
/// peels only its two ends per iteration at threshold 2); on the T4 graphs
/// (random maximal outerplanar, threshold 2) the measured count grows
/// logarithmically.
#[derive(Clone, Debug)]
struct PeelProgram {
    id: VertexId,
    threshold: usize,
    alive_neighbors: Vec<VertexId>,
    peeled: bool,
    out: Vec<VertexId>,
}

impl PeelProgram {
    fn wants_to_peel(&self) -> bool {
        !self.peeled && self.alive_neighbors.len() <= self.threshold
    }

    /// One synchronous iteration: peel now if the residual degree allows,
    /// else keep the iterations ticking. The message goes to every alive
    /// neighbor: one broadcast while all of the node's `degree` neighbors
    /// are alive.
    fn step(&mut self, degree: usize, sends: &mut Vec<(VertexId, PeelMsg)>) {
        let msg = if self.wants_to_peel() {
            self.peeled = true;
            self.out = self.alive_neighbors.clone();
            PeelMsg::Peel
        } else {
            PeelMsg::Tick
        };
        if self.alive_neighbors.len() == degree {
            sends.push((BROADCAST, msg));
        } else {
            sends.extend(self.alive_neighbors.iter().map(|&w| (w, msg.clone())));
        }
    }
}

impl NodeProgram for PeelProgram {
    type Msg = PeelMsg;

    fn init(&mut self, ctx: &NodeCtx<'_>, sends: &mut Vec<(VertexId, PeelMsg)>) {
        self.step(ctx.neighbors.len(), sends);
    }

    fn on_round(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: &[(VertexId, PeelMsg)],
        sends: &mut Vec<(VertexId, PeelMsg)>,
    ) {
        for (from, msg) in inbox {
            if matches!(msg, PeelMsg::Peel) {
                self.alive_neighbors.retain(|&w| w != *from);
                // Simultaneous peels: the edge was claimed by both ends;
                // keep it only at the smaller id.
                if self.peeled && self.id > *from {
                    self.out.retain(|&w| w != *from);
                }
            }
        }
        if !self.peeled {
            self.step(ctx.neighbors.len(), sends);
        }
    }
}

/// Computes a `threshold`-degeneracy orientation distributedly by parallel
/// peeling; returns the orientation and the measured kernel cost.
///
/// # Errors
///
/// Returns [`SimError::MaxRoundsExceeded`] if some residual subgraph has
/// minimum degree above `threshold` (the protocol then never quiesces and
/// hits the round cap).
pub fn peel_orientation(
    g: &Graph,
    threshold: usize,
    cfg: &SimConfig,
) -> Result<(Orientation, Metrics), SimError> {
    let programs: Vec<PeelProgram> = g
        .vertices()
        .map(|v| PeelProgram {
            id: v,
            threshold,
            alive_neighbors: g.neighbors(v).to_vec(),
            peeled: false,
            out: Vec::new(),
        })
        .collect();
    let out = run(g, programs, cfg)?;
    let orientation = Orientation {
        out: out.programs.into_iter().map(|p| p.out).collect(),
    };
    Ok((orientation, out.metrics))
}

/// Number of Cole–Vishkin iterations: enough to reduce 64-bit colors below
/// 8 (64 -> <128 -> <14 -> <8 -> <6 -> <6); this *is* `log* n` for every
/// representable `n`.
const CV_ITERS: usize = 5;
/// Colors remaining after reduction.
const COLOR_TURNS: u64 = 8;

/// Messages of the per-slot matching protocol.
#[derive(Clone, Debug)]
enum MatchMsg {
    /// CV phase: my current color (also the successor announcement).
    Color(u64),
    /// Turn phase: I propose our slot edge.
    Propose,
    /// Turn phase: I accept your proposal.
    Accept,
    /// Turn phase: I am now matched.
    Matched,
    /// Keep-alive.
    Tick,
}

impl Words for MatchMsg {
    fn words(&self) -> usize {
        match self {
            MatchMsg::Color(_) => 3,
            _ => 1,
        }
    }
}

#[derive(Clone, Debug)]
struct SlotProgram {
    id: VertexId,
    /// My successor in this slot (the head of my slot out-edge).
    succ: Option<VertexId>,
    /// Vertices whose slot out-edge points at me (learned in round 1).
    preds: Vec<VertexId>,
    color: u64,
    succ_color: Option<u64>,
    announced: bool,
    cv_done: usize,
    matched: bool,
    nbr_matched: HashMap<VertexId, bool>,
    /// The matched edge, if I am an endpoint of one chosen this slot.
    matched_edge: Option<EdgeId>,
    /// Proposals received this turn.
    proposals: Vec<VertexId>,
    round_in_turn: u8,
    turn: u64,
    neighbors: Vec<VertexId>,
}

impl SlotProgram {
    /// Sends `msg` to every neighbor outside `special` (in neighbor order),
    /// then `special_msg` to each of `special` (in its order): one
    /// broadcast when `special` is empty.
    fn broadcast_but(
        &self,
        out: &mut Vec<(VertexId, MatchMsg)>,
        msg: MatchMsg,
        special: &[VertexId],
        special_msg: MatchMsg,
    ) {
        if special.is_empty() {
            out.push((BROADCAST, msg));
            return;
        }
        out.extend(
            self.neighbors
                .iter()
                .filter(|w| !special.contains(w))
                .map(|&w| (w, msg.clone())),
        );
        out.extend(special.iter().map(|&w| (w, special_msg.clone())));
    }

    /// One Cole–Vishkin step: new color from the lowest bit differing from
    /// the successor's color (roots use bit 0 of their own color).
    fn cv_step(&mut self) {
        let new = match self.succ_color {
            Some(sc) => {
                let diff = self.color ^ sc;
                if diff == 0 {
                    // Defensive: cannot occur while the coloring stays
                    // proper along successor edges, but never shift by 64.
                    (self.color & 1) ^ 1
                } else {
                    let i = diff.trailing_zeros() as u64;
                    2 * i + ((self.color >> i) & 1)
                }
            }
            None => self.color & 1,
        };
        self.color = new;
    }

    fn turn_messages(&mut self, out: &mut Vec<(VertexId, MatchMsg)>) {
        // Sub-round structure per turn: 0 = propose, 1 = accept, 2 = settle.
        match self.round_in_turn {
            0 => {
                let target = self.succ.filter(|h| {
                    !self.matched
                        && self.color == self.turn
                        && !self.nbr_matched.get(h).copied().unwrap_or(false)
                });
                self.broadcast_but(out, MatchMsg::Tick, target.as_slice(), MatchMsg::Propose);
            }
            1 => {
                if !self.matched && !self.proposals.is_empty() {
                    let winner = *self.proposals.iter().min().expect("non-empty");
                    self.matched = true;
                    self.matched_edge = Some(EdgeId::new(self.id, winner));
                    self.broadcast_but(out, MatchMsg::Matched, &[winner], MatchMsg::Accept);
                } else {
                    out.push((BROADCAST, MatchMsg::Tick));
                }
                self.proposals.clear();
            }
            _ => {
                // Settle: accepted proposers announce they are matched.
                if self.matched_edge.map(|e| e.contains(self.id)) == Some(true) && !self.matched {
                    self.matched = true;
                    out.push((BROADCAST, MatchMsg::Matched));
                } else {
                    out.push((BROADCAST, MatchMsg::Tick));
                }
            }
        }
    }
}

impl NodeProgram for SlotProgram {
    type Msg = MatchMsg;

    fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, MatchMsg)>) {
        self.neighbors = ctx.neighbors.to_vec();
        // Round 1: announce the successor relation — a Color message to the
        // successor marks the sender as one of its predecessors.
        let color = MatchMsg::Color(self.color);
        self.broadcast_but(out, MatchMsg::Tick, self.succ.as_slice(), color);
    }

    fn on_round(
        &mut self,
        _ctx: &NodeCtx<'_>,
        inbox: &[(VertexId, MatchMsg)],
        out: &mut Vec<(VertexId, MatchMsg)>,
    ) {
        // Record incoming information.
        for (from, msg) in inbox {
            match msg {
                MatchMsg::Color(c) => {
                    if Some(*from) == self.succ {
                        self.succ_color = Some(*c);
                    }
                    if !self.announced && !self.preds.contains(from) {
                        self.preds.push(*from);
                    }
                }
                MatchMsg::Propose => self.proposals.push(*from),
                MatchMsg::Accept => {
                    self.matched_edge = Some(EdgeId::new(self.id, *from));
                }
                MatchMsg::Matched => {
                    self.nbr_matched.insert(*from, true);
                }
                MatchMsg::Tick => {}
            }
        }
        // Phase 0: the first reception round only gathers predecessors
        // (senders of the init Color announcements), then tells them our
        // initial color — they are exactly the vertices that need it.
        if !self.announced {
            self.announced = true;
            let color = MatchMsg::Color(self.color);
            self.broadcast_but(out, MatchMsg::Tick, &self.preds, color);
            return;
        }
        // Phase 1: CV iterations, one per round, everyone in lockstep: the
        // color received this round is the successor's value from the same
        // iteration index as ours.
        if self.cv_done < CV_ITERS {
            self.cv_step();
            self.cv_done += 1;
            let color = MatchMsg::Color(self.color);
            self.broadcast_but(out, MatchMsg::Tick, &self.preds, color);
            return;
        }
        // Phase 2: color turns.
        if self.turn >= COLOR_TURNS {
            return;
        }
        self.turn_messages(out);
        self.round_in_turn += 1;
        if self.round_in_turn == 3 {
            self.round_in_turn = 0;
            self.turn += 1;
            if self.turn >= COLOR_TURNS {
                out.clear(); // quiesce after the final settle
            }
        }
    }
}

/// The result of the ruling-edge-set computation.
#[derive(Clone, Debug)]
pub struct RulingEdgeSet {
    /// The matching: pairwise non-adjacent edges (independent in `L(G)`).
    pub edges: Vec<EdgeId>,
    /// Measured kernel cost over all slots.
    pub metrics: Metrics,
}

/// Computes a maximal matching — an independent set of `L(G)` dominating
/// `L(G)^2` — deterministically, slot by slot over the orientation.
///
/// # Errors
///
/// Propagates kernel errors.
///
/// # Panics
///
/// Panics if the orientation does not cover `g`.
pub fn ruling_edge_set(
    g: &Graph,
    orientation: &Orientation,
    cfg: &SimConfig,
) -> Result<RulingEdgeSet, SimError> {
    assert!(orientation.covers(g), "orientation must cover the graph");
    let slots = orientation.max_outdegree();
    let mut matched_vertices: Vec<bool> = vec![false; g.vertex_count()];
    let mut edges: Vec<EdgeId> = Vec::new();
    let mut metrics = Metrics::new();
    for s in 0..slots {
        let programs: Vec<SlotProgram> = g
            .vertices()
            .map(|v| SlotProgram {
                id: v,
                succ: orientation.out(v).get(s).copied().filter(|h| {
                    // Skip edges already dominated at both ends.
                    !(matched_vertices[v.index()] && matched_vertices[h.index()])
                }),
                preds: Vec::new(),
                color: v.0 as u64,
                succ_color: None,
                announced: false,
                cv_done: 0,
                matched: matched_vertices[v.index()],
                nbr_matched: HashMap::new(),
                matched_edge: None,
                proposals: Vec::new(),
                round_in_turn: 0,
                turn: 0,
                neighbors: Vec::new(),
            })
            .collect();
        let out = run(g, programs, cfg)?;
        metrics.add(out.metrics);
        for p in &out.programs {
            if let Some(e) = p.matched_edge {
                if !matched_vertices[e.lo().index()] && !matched_vertices[e.hi().index()] {
                    matched_vertices[e.lo().index()] = true;
                    matched_vertices[e.hi().index()] = true;
                    edges.push(e);
                }
            }
        }
    }
    edges.sort();
    edges.dedup();
    Ok(RulingEdgeSet { edges, metrics })
}

/// Validates the ruling-set properties: a matching (independent in `L(G)`)
/// that dominates every edge (maximality, hence domination in `L(G)^2`).
pub fn is_valid_ruling_set(g: &Graph, edges: &[EdgeId]) -> bool {
    let mut used = vec![false; g.vertex_count()];
    for e in edges {
        if !g.has_edge(e.lo(), e.hi()) || used[e.lo().index()] || used[e.hi().index()] {
            return false;
        }
        used[e.lo().index()] = true;
        used[e.hi().index()] = true;
    }
    g.edges()
        .all(|e| used[e.lo().index()] || used[e.hi().index()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use planar_lib::gen;

    /// Orients `g` by peeling at `threshold`, then checks the ruling set.
    fn check(g: &Graph, threshold: usize) -> RulingEdgeSet {
        let (o, _) = peel_orientation(g, threshold, &SimConfig::default()).unwrap();
        assert!(o.max_outdegree() <= threshold);
        let rs = ruling_edge_set(g, &o, &SimConfig::default()).unwrap();
        assert!(
            is_valid_ruling_set(g, &rs.edges),
            "invalid ruling set on {} vertices: {:?}",
            g.vertex_count(),
            rs.edges
        );
        rs
    }

    #[test]
    fn path_and_cycle() {
        check(&gen::path(10), 2);
        check(&gen::cycle(9), 2);
        check(&gen::cycle(10), 2);
    }

    #[test]
    fn stars_and_trees() {
        check(&gen::star(8), 2);
        check(&gen::random_tree(40, 5), 2);
    }

    #[test]
    fn outerplanar_random() {
        for seed in 0..8 {
            check(&gen::random_outerplanar(25, seed), 2);
            check(&gen::sparse_outerplanar(30, 6, seed), 2);
        }
    }

    #[test]
    fn planar_families() {
        check(&gen::grid(5, 6), 5);
        check(&gen::random_maximal_planar(30, 2), 5);
        check(&gen::k4_subdivided(5), 5);
    }

    #[test]
    fn rounds_are_constant_in_n() {
        // The log* behaviour: the extension's own rounds do not grow with
        // n (log* is constant over this whole range).
        let r1 = check(&gen::random_outerplanar(32, 7), 2).metrics.rounds;
        let r2 = check(&gen::random_outerplanar(1024, 7), 2).metrics.rounds;
        assert_eq!(r1, r2);
    }

    #[test]
    fn single_edge() {
        let rs = check(&gen::path(2), 2);
        assert_eq!(rs.edges.len(), 1);
    }

    #[test]
    fn ruling_judge_rejects_adjacent_and_non_maximal_sets() {
        let g = gen::path(4);
        let e = |a, b| EdgeId::new(VertexId(a), VertexId(b));
        assert!(is_valid_ruling_set(&g, &[e(0, 1), e(2, 3)]));
        assert!(is_valid_ruling_set(&g, &[e(1, 2)]));
        assert!(!is_valid_ruling_set(&g, &[e(0, 1), e(1, 2)]), "adjacent");
        assert!(!is_valid_ruling_set(&g, &[e(0, 1)]), "2-3 undominated");
        assert!(!is_valid_ruling_set(&g, &[e(0, 2)]), "not an edge");
    }

    #[test]
    fn covers_rejects_double_and_missing_edges() {
        let g = gen::path(3);
        let o = |out: [&[u32]; 3]| Orientation {
            out: out
                .iter()
                .map(|l| l.iter().map(|&w| VertexId(w)).collect())
                .collect(),
        };
        assert!(o([&[1], &[2], &[]]).covers(&g));
        assert!(!o([&[1], &[0, 2], &[]]).covers(&g), "0-1 oriented twice");
        assert!(!o([&[1], &[], &[]]).covers(&g), "1-2 left out");
        assert!(!o([&[1, 2], &[2], &[]]).covers(&g), "0-2 not an edge");
    }

    #[test]
    fn peeling_bounds_the_outdegree() {
        for (g, threshold, cap) in [
            (gen::random_maximal_planar(60, 3), 5, 40),
            (gen::random_outerplanar(40, 3), 2, 40),
            (gen::random_tree(40, 3), 1, 40),
        ] {
            let (o, metrics) = peel_orientation(&g, threshold, &SimConfig::default()).unwrap();
            assert!(o.covers(&g));
            assert!(o.max_outdegree() <= threshold);
            // O(log n) iterations; generous cap.
            assert!(metrics.rounds <= cap, "rounds = {}", metrics.rounds);
        }
    }

    #[test]
    fn peeling_below_the_degeneracy_hits_the_round_cap() {
        // Maximal planar graphs have minimum degree 3: nothing peels at 2.
        let g = gen::random_maximal_planar(30, 1);
        let cfg = SimConfig {
            max_rounds: 50,
            ..Default::default()
        };
        assert!(matches!(
            peel_orientation(&g, 2, &cfg),
            Err(SimError::MaxRoundsExceeded { limit: 50 })
        ));
    }

    #[test]
    fn simultaneous_peel_keeps_each_edge_once() {
        // A single edge: both endpoints peel in iteration 1.
        let g = gen::path(2);
        let (o, _) = peel_orientation(&g, 5, &SimConfig::default()).unwrap();
        assert!(o.covers(&g));
        assert_eq!(o.out(VertexId(0)).len() + o.out(VertexId(1)).len(), 1);
    }
}
