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
}
