//! O(1)-round neighborhood learning on everywhere-sparse graphs — the
//! substitute for Section 7.1.3 of the paper's (unpublished) full version.
//!
//! The paper's routine lets every vertex of an everywhere-sparse graph
//! learn the subgraph induced by its neighborhood in O(1) rounds, using
//! Slepian–Wolf style distributed source coding. Our substitute preserves
//! the interface and the O(1) round count by replacing the coding-theoretic
//! compression with an *orientation-bounded direct exchange*: given an
//! orientation of the edges with out-degree at most `k` (planar graphs have
//! one with `k <= 5`, outerplanar with `k <= 2`), every vertex broadcasts
//! its out-list — `O(k)` words — to all neighbors in `ceil((k+1)/B)` rounds.
//! Every edge `{u, w}` inside a neighborhood is then known to the observer
//! through whichever endpoint out-points along it.
//!
//! The orientation itself is obtained by degeneracy peeling — centralized
//! ([`degeneracy_orientation`]) for use as a precomputed input, or
//! distributed ([`peel_orientation`], `O(log n)` measured kernel rounds,
//! the honest cost without the coding machinery).

use std::collections::{HashMap, HashSet};

use congest_sim::{run, Metrics, NodeCtx, NodeProgram, SimConfig, SimError, Words};
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

/// Computes a degeneracy orientation centrally: repeatedly peel a minimum-
/// degree vertex and orient its remaining edges outward. For a `d`-degenerate
/// graph the out-degree is at most `d` (planar: 5, outerplanar: 2, tree: 1).
pub fn degeneracy_orientation(g: &Graph) -> Orientation {
    let n = g.vertex_count();
    let mut degree: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
    let mut removed = vec![false; n];
    let mut out = vec![Vec::new(); n];
    // Bucket queue over degrees.
    let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); n.max(1)];
    for v in g.vertices() {
        buckets[degree[v.index()]].push(v);
    }
    let mut processed = 0;
    let mut cur = 0;
    while processed < n {
        while cur < buckets.len() && buckets[cur].is_empty() {
            cur += 1;
        }
        if cur >= buckets.len() {
            break;
        }
        let v = buckets[cur].pop().expect("bucket non-empty");
        if removed[v.index()] || degree[v.index()] != cur {
            continue; // stale entry
        }
        removed[v.index()] = true;
        processed += 1;
        for &w in g.neighbors(v) {
            if !removed[w.index()] {
                out[v.index()].push(w);
                degree[w.index()] -= 1;
                buckets[degree[w.index()]].push(w);
            }
        }
        cur = cur.saturating_sub(1);
    }
    Orientation { out }
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
/// smaller id). For planar graphs with `threshold = 5` this takes
/// `O(log n)` iterations.
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
    /// else keep the iterations ticking.
    fn step(&mut self, sends: &mut Vec<(VertexId, PeelMsg)>) {
        let msg = if self.wants_to_peel() {
            self.peeled = true;
            self.out = self.alive_neighbors.clone();
            PeelMsg::Peel
        } else {
            PeelMsg::Tick
        };
        sends.extend(self.alive_neighbors.iter().map(|&w| (w, msg.clone())));
    }
}

impl NodeProgram for PeelProgram {
    type Msg = PeelMsg;

    fn init(&mut self, _ctx: &NodeCtx<'_>, sends: &mut Vec<(VertexId, PeelMsg)>) {
        self.step(sends);
    }

    fn on_round(
        &mut self,
        _ctx: &NodeCtx<'_>,
        inbox: &[(VertexId, PeelMsg)],
        sends: &mut Vec<(VertexId, PeelMsg)>,
    ) {
        let mut changed = false;
        for (from, msg) in inbox {
            if matches!(msg, PeelMsg::Peel) {
                self.alive_neighbors.retain(|&w| w != *from);
                // Simultaneous peels: the edge was claimed by both ends;
                // keep it only at the smaller id.
                if self.peeled && self.id > *from {
                    self.out.retain(|&w| w != *from);
                }
                changed = true;
            }
        }
        let _ = changed;
        if !self.peeled {
            self.step(sends);
        }
    }
}

/// Computes a `threshold`-degeneracy orientation distributedly by parallel
/// peeling; returns the orientation and the measured kernel cost.
///
/// # Errors
///
/// Returns the kernel error if the graph is not `threshold`-degenerate
/// (the protocol then never quiesces and hits the round cap).
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

/// The neighborhood-learning program: one broadcast of the out-list.
#[derive(Clone, Debug)]
struct LearnProgram {
    out: Vec<VertexId>,
    /// Learned induced-neighborhood edges.
    learned: Vec<EdgeId>,
    neighbors: Vec<VertexId>,
}

impl NodeProgram for LearnProgram {
    type Msg = Vec<VertexId>;

    fn init(&mut self, ctx: &NodeCtx<'_>, sends: &mut Vec<(VertexId, Vec<VertexId>)>) {
        self.neighbors = ctx.neighbors.to_vec();
        sends.extend(ctx.neighbors.iter().map(|&w| (w, self.out.clone())));
    }

    fn on_round(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: &[(VertexId, Vec<VertexId>)],
        _sends: &mut Vec<(VertexId, Vec<VertexId>)>,
    ) {
        let nbrs: HashSet<VertexId> = ctx.neighbors.iter().copied().collect();
        for (from, out_list) in inbox {
            for &w in out_list {
                // {from, w} is an edge; it lies inside my neighborhood iff
                // both endpoints are my neighbors.
                if nbrs.contains(from) && nbrs.contains(&w) {
                    self.learned.push(EdgeId::new(*from, w));
                }
            }
        }
        self.learned.sort();
        self.learned.dedup();
    }
}

/// Every vertex learns the subgraph induced by its (open) neighborhood.
///
/// Returns, per vertex, the induced edges among its neighbors, plus the
/// measured cost: **one** kernel round when `orientation.max_outdegree() + 1
/// <= budget` (the everywhere-sparse case the paper needs).
///
/// # Errors
///
/// Propagates kernel errors — in particular a budget violation if the
/// orientation's out-degree is too large for the configured budget.
pub fn learn_neighborhoods(
    g: &Graph,
    orientation: &Orientation,
    cfg: &SimConfig,
) -> Result<(Vec<Vec<EdgeId>>, Metrics), SimError> {
    let programs: Vec<LearnProgram> = g
        .vertices()
        .map(|v| LearnProgram {
            out: orientation.out(v).to_vec(),
            learned: Vec::new(),
            neighbors: Vec::new(),
        })
        .collect();
    let out = run(g, programs, cfg)?;
    Ok((
        out.programs.into_iter().map(|p| p.learned).collect(),
        out.metrics,
    ))
}

/// Ground truth for tests: the edges induced by the neighborhood of `v`.
pub fn induced_neighborhood_edges(g: &Graph, v: VertexId) -> Vec<EdgeId> {
    let nbrs: HashMap<VertexId, ()> = g.neighbors(v).iter().map(|&w| (w, ())).collect();
    let mut out = Vec::new();
    for &u in g.neighbors(v) {
        for &w in g.neighbors(u) {
            if u < w && nbrs.contains_key(&w) {
                out.push(EdgeId::new(u, w));
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use planar_lib::gen;

    #[test]
    fn centralized_orientation_bounds() {
        let g = gen::random_maximal_planar(60, 3);
        let o = degeneracy_orientation(&g);
        assert!(o.covers(&g));
        assert!(o.max_outdegree() <= 5, "planar degeneracy is at most 5");
        let g = gen::random_outerplanar(40, 3);
        let o = degeneracy_orientation(&g);
        assert!(o.covers(&g));
        assert!(
            o.max_outdegree() <= 2,
            "outerplanar degeneracy is at most 2"
        );
        let g = gen::random_tree(40, 3);
        assert!(degeneracy_orientation(&g).max_outdegree() <= 1);
    }

    #[test]
    fn distributed_peeling_matches_centralized_bound() {
        let g = gen::random_maximal_planar(50, 9);
        let (o, metrics) = peel_orientation(&g, 5, &SimConfig::default()).unwrap();
        assert!(o.covers(&g));
        assert!(o.max_outdegree() <= 5);
        // O(log n) iterations; generous cap.
        assert!(metrics.rounds <= 40, "rounds = {}", metrics.rounds);
    }

    #[test]
    fn neighborhood_learning_is_exact_and_constant_round() {
        for (g, k) in [
            (gen::random_maximal_planar(40, 4), 5),
            (gen::random_outerplanar(30, 4), 2),
            (gen::triangulated_grid(5, 6), 5),
        ] {
            let o = degeneracy_orientation(&g);
            assert!(o.max_outdegree() <= k);
            let cfg = SimConfig {
                budget_words: k + 2,
                ..Default::default()
            };
            let (learned, metrics) = learn_neighborhoods(&g, &o, &cfg).unwrap();
            assert_eq!(metrics.rounds, 1, "one-round exchange");
            for v in g.vertices() {
                assert_eq!(
                    learned[v.index()],
                    induced_neighborhood_edges(&g, v),
                    "vertex {v}"
                );
            }
        }
    }

    #[test]
    fn budget_violation_when_orientation_too_wide() {
        // A star oriented out of the hub has out-degree n-1.
        let g = gen::star(12);
        let o = Orientation {
            out: std::iter::once(g.neighbors(VertexId(0)).to_vec())
                .chain((1..12).map(|_| Vec::new()))
                .collect(),
        };
        let cfg = SimConfig {
            budget_words: 4,
            ..Default::default()
        };
        assert!(learn_neighborhoods(&g, &o, &cfg).is_err());
    }

    #[test]
    fn triangle_free_graphs_learn_nothing() {
        let g = gen::grid(4, 4); // bipartite: no triangles
        let o = degeneracy_orientation(&g);
        let (learned, _) = learn_neighborhoods(&g, &o, &SimConfig::default()).unwrap();
        assert!(learned.iter().all(Vec::is_empty));
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
