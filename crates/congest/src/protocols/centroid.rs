//! The distributed centroid walk of Section 4 ("The Partitioning").
//!
//! Given a tree `T_s` whose nodes know their subtree sizes (from a prior
//! [`Convergecast`](crate::protocols::Convergecast) with [`AggOp::Sum`]
//! (crate::protocols::AggOp::Sum)), a token walks down from the root `s`
//! toward the unique heavy child until it reaches a vertex `v` whose removal
//! leaves only components of size `<= 2|T_s|/3`. The token's trail is
//! exactly the path `P_0 = s..v` of the paper's partition, and the walk
//! takes `depth(T_s)` rounds ("it can be computed distributedly in O(d)
//! time where d = depth(T_s)").

use planar_graph::VertexId;

use crate::network::{NodeCtx, NodeProgram};

/// Per-node state of the centroid walk.
#[derive(Clone, Debug)]
pub struct CentroidWalk {
    /// The child whose subtree holds more than `2/3 · total` nodes, if any
    /// (at most one can).
    heavy: Option<VertexId>,
    total: u64,
    is_root: bool,
    on_path: bool,
    is_centroid: bool,
}

impl CentroidWalk {
    /// Creates the program for one tree node.
    ///
    /// * `children_sizes` — subtree size of each child (from the
    ///   convergecast phase); the node keeps only the heavy one;
    /// * `total` — `|T_s|`, known tree-wide after the size broadcast;
    /// * `is_root` — whether this node is `s`, the walk's origin.
    pub fn new(
        children_sizes: impl IntoIterator<Item = (VertexId, u64)>,
        total: u64,
        is_root: bool,
    ) -> Self {
        let heavy = children_sizes
            .into_iter()
            .find(|&(_, s)| 3 * s > 2 * total)
            .map(|(c, _)| c);
        CentroidWalk {
            heavy,
            total,
            is_root,
            on_path: false,
            is_centroid: false,
        }
    }

    /// Whether the walk token passed through (or stopped at) this node —
    /// i.e. whether the node belongs to `P_0`.
    pub fn on_path(&self) -> bool {
        self.on_path
    }

    /// Whether the walk stopped here: this node is the splitter `v` with all
    /// components of `T_s - v` of size `<= 2|T_s|/3`.
    pub fn is_centroid(&self) -> bool {
        self.is_centroid
    }

    /// Walk step: if some child subtree is heavier than `2/3 · total`, the
    /// token moves there; otherwise this node is the splitter.
    fn step(&mut self, out: &mut Vec<(VertexId, bool)>) {
        self.on_path = true;
        match self.heavy {
            Some(c) => out.push((c, true)),
            None => self.is_centroid = true,
        }
    }
}

impl NodeProgram for CentroidWalk {
    type Msg = bool; // the walk token, 1 word

    fn init(&mut self, _ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, bool)>) {
        if self.is_root && self.total > 0 {
            self.step(out);
        }
    }

    fn on_round(
        &mut self,
        _ctx: &NodeCtx<'_>,
        inbox: &[(VertexId, bool)],
        out: &mut Vec<(VertexId, bool)>,
    ) {
        if !inbox.is_empty() {
            self.step(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{run, run_many, Instance, SimConfig};
    use crate::protocols::{AggOp, Convergecast};
    use planar_graph::traversal::bfs;
    use planar_graph::Graph;

    /// Runs convergecast + centroid walk on the BFS tree of `g` rooted at
    /// `root`; returns (centroid, path vertices, walk rounds).
    fn find_centroid(g: &Graph, root: VertexId) -> (VertexId, Vec<VertexId>, usize) {
        let tree = bfs(g, root);
        let programs: Vec<Convergecast> = g
            .vertices()
            .map(|v| Convergecast::new(tree.parent[v.index()], &tree.children(v), 1, AggOp::Sum))
            .collect();
        let sizes = run(g, programs, &SimConfig::default()).unwrap().programs;
        let total = sizes[root.index()].result().unwrap();
        let walkers: Vec<CentroidWalk> = g
            .vertices()
            .map(|v| {
                let child_sizes = tree
                    .children(v)
                    .into_iter()
                    .map(|c| (c, sizes[c.index()].subtree_value()));
                CentroidWalk::new(child_sizes, total, v == root)
            })
            .collect();
        let out = run(g, walkers, &SimConfig::default()).unwrap();
        let centroid = g
            .vertices()
            .find(|&v| out.programs[v.index()].is_centroid())
            .expect("walk terminates at a centroid");
        let path: Vec<VertexId> = g
            .vertices()
            .filter(|&v| out.programs[v.index()].on_path())
            .collect();
        (centroid, path, out.metrics.rounds)
    }

    #[test]
    fn centroid_of_path_is_middle() {
        let n = 9;
        let g = Graph::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1))).unwrap();
        let (c, path, _) = find_centroid(&g, VertexId(0));
        // From root 0, the walk must reach a vertex such that both sides are
        // <= 2n/3 = 6: vertices 2..=5 qualify; the walk stops at the first.
        assert_eq!(c, VertexId(2));
        // P_0 is the prefix 0..=2.
        assert_eq!(path, vec![VertexId(0), VertexId(1), VertexId(2)]);
    }

    #[test]
    fn centroid_of_star_is_hub_even_from_leaf() {
        let g = Graph::from_edges(7, (1..7u32).map(|i| (0, i))).unwrap();
        let (c, path, _) = find_centroid(&g, VertexId(3));
        assert_eq!(c, VertexId(0));
        assert_eq!(path, vec![VertexId(0), VertexId(3)]);
    }

    #[test]
    fn centroid_components_are_balanced() {
        // Random-ish tree.
        let g = Graph::from_edges(
            10,
            [
                (0, 1),
                (1, 2),
                (1, 3),
                (3, 4),
                (3, 5),
                (5, 6),
                (6, 7),
                (6, 8),
                (8, 9),
            ],
        )
        .unwrap();
        let root = VertexId(0);
        let (c, _, _) = find_centroid(&g, root);
        // Verify the guarantee of Lemma 4.2 directly: all components of
        // T - c have size <= 2n/3.
        let tree = bfs(&g, root);
        let sizes = tree.subtree_sizes();
        let n = g.vertex_count();
        let mut comps = vec![n - sizes[c.index()]]; // the part above c
        for ch in tree.children(c) {
            comps.push(sizes[ch.index()]);
        }
        for s in comps {
            assert!(3 * s <= 2 * n, "component of size {s} exceeds 2n/3");
        }
    }

    #[test]
    fn walk_rounds_bounded_by_depth() {
        let n = 20;
        let g = Graph::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1))).unwrap();
        let (_, path, rounds) = find_centroid(&g, VertexId(0));
        assert_eq!(rounds, path.len() - 1);
        assert!(rounds <= n);
    }

    #[test]
    fn single_vertex_tree() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        // Tree = just vertex 0 (vertex 1 a bystander, total = 1).
        let walker = Instance::new(vec![(VertexId(0), CentroidWalk::new([], 1, true))]);
        let out = run_many(&g, vec![walker], &SimConfig::default()).unwrap();
        let inst = &out.instances[0];
        assert!(inst.program(VertexId(0)).unwrap().is_centroid());
        assert_eq!(out.metrics.rounds, 0);
    }
}
