//! The global BFS tree the algorithm is organized around (Section 4: "We
//! then compute a BFS `T` rooted at this vertex and we work with this BFS
//! throughout the algorithm").

use planar_graph::VertexId;

/// The global BFS tree, as assembled from the distributed setup phase's
/// per-node outputs (parent pointers, children lists, depths, subtree
/// sizes).
#[derive(Clone, Debug)]
pub struct GlobalTree {
    /// The root `s*` — the maximum-id vertex elected by the distributed
    /// setup. (A resident embedding's tree keeps the root of its last
    /// full build across incremental repairs; see `crate::planner`.)
    pub root: VertexId,
    /// BFS parent of each vertex (`None` at the root).
    pub parent: Vec<Option<VertexId>>,
    /// BFS children of each vertex.
    pub children: Vec<Vec<VertexId>>,
    /// Hop distance from the root.
    pub depth: Vec<u32>,
    /// Size of the subtree rooted at each vertex.
    pub subtree_size: Vec<u64>,
}

impl GlobalTree {
    /// All vertices of the subtree rooted at `v`, in preorder.
    pub fn subtree_members(&self, v: VertexId) -> Vec<VertexId> {
        let mut out = Vec::new();
        let mut stack = vec![v];
        while let Some(x) = stack.pop() {
            out.push(x);
            for &c in &self.children[x.index()] {
                stack.push(c);
            }
        }
        out
    }

    /// Depth of the subtree rooted at `v` (0 for a leaf), i.e. the longest
    /// root-to-leaf tree distance within the subtree.
    pub fn subtree_depth(&self, v: VertexId) -> u32 {
        let base = self.depth[v.index()];
        self.subtree_members(v)
            .iter()
            .map(|&x| self.depth[x.index()] - base)
            .max()
            .unwrap_or(0)
    }

    /// [`subtree_depth`](Self::subtree_depth) of every vertex reachable
    /// from the root through the children lists, in one `O(n)` pass.
    pub(crate) fn subtree_depths(&self) -> Vec<u32> {
        let mut order = Vec::with_capacity(self.parent.len());
        order.push(self.root);
        let mut head = 0;
        while let Some(&v) = order.get(head) {
            head += 1;
            order.extend_from_slice(&self.children[v.index()]);
        }
        // Deepest depth below each vertex, children before parents.
        let mut deepest = self.depth.clone();
        for &v in order.iter().rev() {
            for &c in &self.children[v.index()] {
                deepest[v.index()] = deepest[v.index()].max(deepest[c.index()]);
            }
        }
        for (d, &own) in deepest.iter_mut().zip(&self.depth) {
            *d -= own;
        }
        deepest
    }

    /// The path from `v` up to its ancestor `anc` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `anc` is not an ancestor of `v`.
    pub fn path_to_ancestor(&self, v: VertexId, anc: VertexId) -> Vec<VertexId> {
        let mut path = vec![v];
        let mut cur = v;
        while cur != anc {
            cur = self.parent[cur.index()].expect("anc must be an ancestor");
            path.push(cur);
        }
        path
    }

    /// Depth of the whole tree.
    pub fn tree_depth(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Re-hangs `c` under `new_parent`, which must sit at the same depth
    /// as `c`'s current parent so every BFS distance stays intact. This is
    /// the tree-repair splice of the incremental delta planner: `c` keeps
    /// its whole subtree, only the parent pointer, the two children lists
    /// and the subtree sizes along the two ancestor chains change.
    ///
    /// # Panics
    ///
    /// Panics if `c` has no parent (it is the root) or is already a child
    /// of `new_parent`; debug-asserts the equal-depth contract.
    pub fn splice_reparent(&mut self, c: VertexId, new_parent: VertexId) {
        let old_parent = self.parent[c.index()].expect("spliced vertex has a parent");
        debug_assert_eq!(
            self.depth[old_parent.index()],
            self.depth[new_parent.index()],
            "splice_reparent must preserve BFS depths"
        );
        let siblings = &mut self.children[old_parent.index()];
        let pos = siblings
            .iter()
            .position(|&x| x == c)
            .expect("child listed under its parent");
        siblings.remove(pos);
        let siblings = &mut self.children[new_parent.index()];
        let pos = siblings
            .binary_search(&c)
            .expect_err("not already a child of the new parent");
        siblings.insert(pos, c);
        self.parent[c.index()] = Some(new_parent);
        // Subtree sizes move with `c`: subtract along the old ancestor
        // chain, add along the new one (the shared segment above the LCA
        // nets out).
        let moved = self.subtree_size[c.index()];
        let mut x = Some(old_parent);
        while let Some(a) = x {
            self.subtree_size[a.index()] -= moved;
            x = self.parent[a.index()];
        }
        let mut x = Some(new_parent);
        while let Some(a) = x {
            self.subtree_size[a.index()] += moved;
            x = self.parent[a.index()];
        }
    }

    /// Grafts a fresh leaf with the next vertex id (`n`, the id a
    /// [`planar_graph::Graph::add_vertex`] arrival receives) under
    /// `parent`, returning the new id. The new id is the maximum, so
    /// appending it to `parent`'s sorted children list keeps the list
    /// sorted — exactly where the deterministic kernel would place it.
    pub fn graft_leaf(&mut self, parent: VertexId) -> VertexId {
        let fresh = VertexId::from_index(self.parent.len());
        self.parent.push(Some(parent));
        self.children.push(Vec::new());
        self.depth.push(self.depth[parent.index()] + 1);
        self.subtree_size.push(1);
        self.children[parent.index()].push(fresh);
        let mut x = Some(parent);
        while let Some(a) = x {
            self.subtree_size[a.index()] += 1;
            x = self.parent[a.index()];
        }
        fresh
    }

    /// Removes the tree leaf `v` and renumbers every id above it down by
    /// one — the same monotone compaction
    /// [`planar_graph::Graph::remove_vertex`] applies — returning the
    /// pruned tree. Monotone renumbering preserves id order, so sorted
    /// children lists and min-id parent tie-breaks survive verbatim.
    ///
    /// # Panics
    ///
    /// Panics if `v` still has children or is the root.
    pub fn prune_leaf_renumbered(&self, v: VertexId) -> GlobalTree {
        assert!(
            self.children[v.index()].is_empty(),
            "pruned vertex must be a tree leaf"
        );
        assert_ne!(v, self.root, "cannot prune the root");
        let phi = |x: VertexId| {
            if x > v {
                VertexId(x.0 - 1)
            } else {
                x
            }
        };
        let n = self.parent.len();
        let mut parent = Vec::with_capacity(n - 1);
        let mut children = Vec::with_capacity(n - 1);
        let mut depth = Vec::with_capacity(n - 1);
        let mut subtree_size = Vec::with_capacity(n - 1);
        for i in 0..n {
            if i == v.index() {
                continue;
            }
            parent.push(self.parent[i].map(phi));
            children.push(
                self.children[i]
                    .iter()
                    .copied()
                    .filter(|&c| c != v)
                    .map(phi)
                    .collect(),
            );
            depth.push(self.depth[i]);
            subtree_size.push(self.subtree_size[i]);
        }
        let mut out = GlobalTree {
            root: phi(self.root),
            parent,
            children,
            depth,
            subtree_size,
        };
        let mut x = self.parent[v.index()];
        while let Some(a) = x {
            out.subtree_size[phi(a).index()] -= 1;
            x = self.parent[a.index()];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the tree for a path 0-1-2-3-4 rooted at 4.
    fn path_tree() -> GlobalTree {
        GlobalTree {
            root: VertexId(4),
            parent: vec![
                Some(VertexId(1)),
                Some(VertexId(2)),
                Some(VertexId(3)),
                Some(VertexId(4)),
                None,
            ],
            children: vec![
                vec![],
                vec![VertexId(0)],
                vec![VertexId(1)],
                vec![VertexId(2)],
                vec![VertexId(3)],
            ],
            depth: vec![4, 3, 2, 1, 0],
            subtree_size: vec![1, 2, 3, 4, 5],
        }
    }

    #[test]
    fn subtree_members_and_depth() {
        let t = path_tree();
        let mut members = t.subtree_members(VertexId(2));
        members.sort();
        assert_eq!(members, vec![VertexId(0), VertexId(1), VertexId(2)]);
        assert_eq!(t.subtree_depth(VertexId(2)), 2);
        assert_eq!(t.subtree_depth(VertexId(0)), 0);
        assert_eq!(t.tree_depth(), 4);
        assert_eq!(t.subtree_depths(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn path_to_ancestor_works() {
        let t = path_tree();
        assert_eq!(
            t.path_to_ancestor(VertexId(0), VertexId(2)),
            vec![VertexId(0), VertexId(1), VertexId(2)]
        );
    }

    /// A star rooted at 4 with two depth-1 spokes, one carrying a chain.
    fn branchy_tree() -> GlobalTree {
        // 4 is the root; 1 and 3 at depth 1; 0 under 1; 2 under 0.
        GlobalTree {
            root: VertexId(4),
            parent: vec![
                Some(VertexId(1)),
                Some(VertexId(4)),
                Some(VertexId(0)),
                Some(VertexId(4)),
                None,
            ],
            children: vec![
                vec![VertexId(2)],
                vec![VertexId(0)],
                vec![],
                vec![],
                vec![VertexId(1), VertexId(3)],
            ],
            depth: vec![2, 1, 3, 1, 0],
            subtree_size: vec![2, 3, 1, 1, 5],
        }
    }

    #[test]
    fn splice_reparent_moves_subtree_sizes() {
        let mut t = branchy_tree();
        // Re-hang 0 (subtree {0, 2}) from parent 1 to parent 3.
        t.splice_reparent(VertexId(0), VertexId(3));
        assert_eq!(t.parent[0], Some(VertexId(3)));
        assert_eq!(t.children[1], Vec::<VertexId>::new());
        assert_eq!(t.children[3], vec![VertexId(0)]);
        assert_eq!(t.subtree_size, vec![2, 1, 1, 3, 5]);
        assert_eq!(t.depth, vec![2, 1, 3, 1, 0]);
    }

    #[test]
    fn graft_leaf_appends_the_next_id() {
        let mut t = branchy_tree();
        let fresh = t.graft_leaf(VertexId(1));
        assert_eq!(fresh, VertexId(5));
        assert_eq!(t.parent[5], Some(VertexId(1)));
        assert_eq!(t.depth[5], 2);
        assert_eq!(t.children[1], vec![VertexId(0), VertexId(5)]);
        assert_eq!(t.subtree_size, vec![2, 4, 1, 1, 6, 1]);
    }

    #[test]
    fn prune_leaf_renumbers_monotonically() {
        let t = branchy_tree();
        let pruned = t.prune_leaf_renumbered(VertexId(2));
        // Ids above 2 shift down: 3 -> 2, 4 -> 3.
        assert_eq!(pruned.root, VertexId(3));
        assert_eq!(
            pruned.parent,
            vec![
                Some(VertexId(1)),
                Some(VertexId(3)),
                Some(VertexId(3)),
                None
            ]
        );
        assert_eq!(pruned.children[3], vec![VertexId(1), VertexId(2)]);
        assert_eq!(pruned.children[0], Vec::<VertexId>::new());
        assert_eq!(pruned.depth, vec![2, 1, 1, 0]);
        assert_eq!(pruned.subtree_size, vec![1, 2, 1, 4]);
    }
}
