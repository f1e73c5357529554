//! Breadth-first traversal, connectivity and distance computations.
//!
//! The distributed algorithm of the paper is organized around a BFS tree of
//! the network (Section 4); the centralized traversals here mirror that
//! structure and are also used by the verifiers and workload generators.

use std::collections::VecDeque;

use crate::{Graph, VertexId};

/// Distance value used for unreachable vertices.
pub const UNREACHABLE: u32 = u32::MAX;

/// The result of a breadth-first search from a root vertex.
///
/// # Example
///
/// ```
/// use planar_graph::{Graph, VertexId};
/// use planar_graph::traversal::bfs;
///
/// # fn main() -> Result<(), planar_graph::GraphError> {
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
/// let t = bfs(&g, VertexId(0));
/// assert_eq!(t.dist[3], 3);
/// assert_eq!(t.parent[3], Some(VertexId(2)));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct BfsTree {
    /// Root the search started from.
    pub root: VertexId,
    /// BFS parent of each vertex (`None` for the root and unreachable vertices).
    pub parent: Vec<Option<VertexId>>,
    /// Hop distance from the root ([`UNREACHABLE`] if not reachable).
    pub dist: Vec<u32>,
    /// Vertices in the order they were dequeued (reachable vertices only).
    pub order: Vec<VertexId>,
}

impl BfsTree {
    /// Depth of the BFS tree: maximum distance of any reachable vertex.
    pub fn depth(&self) -> u32 {
        self.order
            .iter()
            .map(|v| self.dist[v.index()])
            .max()
            .unwrap_or(0)
    }

    /// The children of `v` in the BFS tree.
    pub fn children(&self, v: VertexId) -> Vec<VertexId> {
        self.order
            .iter()
            .copied()
            .filter(|&c| self.parent[c.index()] == Some(v))
            .collect()
    }

    /// Number of vertices in the subtree rooted at each vertex.
    ///
    /// Computed bottom-up over the BFS order; unreachable vertices get 0.
    pub fn subtree_sizes(&self) -> Vec<usize> {
        let mut size = vec![0usize; self.parent.len()];
        for &v in self.order.iter().rev() {
            size[v.index()] += 1;
            if let Some(p) = self.parent[v.index()] {
                size[p.index()] += size[v.index()];
            }
        }
        size
    }
}

/// Runs a breadth-first search from `root`.
///
/// # Panics
///
/// Panics if `root` is out of range.
pub fn bfs(g: &Graph, root: VertexId) -> BfsTree {
    let n = g.vertex_count();
    assert!(root.index() < n, "bfs root out of range");
    let mut parent = vec![None; n];
    let mut dist = vec![UNREACHABLE; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    dist[root.index()] = 0;
    queue.push_back(root);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &w in g.neighbors(v) {
            if dist[w.index()] == UNREACHABLE {
                dist[w.index()] = dist[v.index()] + 1;
                parent[w.index()] = Some(v);
                queue.push_back(w);
            }
        }
    }
    BfsTree {
        root,
        parent,
        dist,
        order,
    }
}

/// Returns the connected components as lists of vertices.
///
/// Components are ordered by their smallest vertex; vertices within a
/// component are in BFS order from that smallest vertex.
pub fn connected_components(g: &Graph) -> Vec<Vec<VertexId>> {
    let n = g.vertex_count();
    let mut seen = vec![false; n];
    let mut components = Vec::new();
    for s in g.vertices() {
        if seen[s.index()] {
            continue;
        }
        let tree = bfs(g, s);
        let comp: Vec<VertexId> = tree.order;
        for &v in &comp {
            seen[v.index()] = true;
        }
        components.push(comp);
    }
    components
}

/// Eccentricity of `v`: the maximum hop distance from `v` to any vertex.
///
/// # Errors-like behaviour
///
/// Returns `None` if the graph is disconnected (some vertex unreachable).
pub fn eccentricity(g: &Graph, v: VertexId) -> Option<u32> {
    let t = bfs(g, v);
    if t.order.len() != g.vertex_count() {
        return None;
    }
    Some(t.depth())
}

/// Exact diameter by all-pairs BFS (`O(n·m)`); intended for test and
/// benchmark instances, not for very large graphs.
///
/// Returns `None` for disconnected or empty graphs.
pub fn diameter_exact(g: &Graph) -> Option<u32> {
    if g.vertex_count() == 0 {
        return None;
    }
    let mut best = 0;
    for v in g.vertices() {
        best = best.max(eccentricity(g, v)?);
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1))).unwrap()
    }

    #[test]
    fn bfs_on_path_gives_linear_distances() {
        let g = path(5);
        let t = bfs(&g, VertexId(0));
        assert_eq!(t.dist, vec![0, 1, 2, 3, 4]);
        assert_eq!(t.depth(), 4);
        assert_eq!(t.parent[4], Some(VertexId(3)));
    }

    #[test]
    fn bfs_subtree_sizes() {
        // Star with center 0.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        let t = bfs(&g, VertexId(0));
        let sizes = t.subtree_sizes();
        assert_eq!(sizes[0], 4);
        assert_eq!(sizes[1], 1);
        assert_eq!(t.children(VertexId(0)).len(), 3);
    }

    #[test]
    fn components_found() {
        let g = Graph::from_edges(5, [(0, 1), (2, 3)]).unwrap();
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], vec![VertexId(0), VertexId(1)]);
        assert_eq!(comps[2], vec![VertexId(4)]);
    }

    #[test]
    fn diameter_of_cycle() {
        let n = 8u32;
        let g = Graph::from_edges(n as usize, (0..n).map(|i| (i, (i + 1) % n))).unwrap();
        assert_eq!(diameter_exact(&g), Some(4));
    }

    #[test]
    fn diameter_none_when_disconnected() {
        let g = Graph::from_edges(4, [(0, 1)]).unwrap();
        assert_eq!(diameter_exact(&g), None);
        assert_eq!(eccentricity(&g, VertexId(0)), None);
    }
}
