use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::{EdgeId, GraphError, VertexId};

/// A finite simple undirected graph with sorted adjacency lists.
///
/// This is the common representation used throughout the workspace: the
/// CONGEST simulator interprets it as the communication topology, the planar
/// crate embeds it, and the core crate runs the distributed embedding
/// algorithm on it.
///
/// Invariants maintained by construction:
/// * no self-loops, no parallel edges (the paper assumes simple graphs);
/// * every adjacency list is sorted by vertex id, so `has_edge` is
///   `O(log deg)` and iteration order is deterministic.
///
/// # Example
///
/// ```
/// use planar_graph::{Graph, VertexId};
///
/// # fn main() -> Result<(), planar_graph::GraphError> {
/// let mut g = Graph::new(3);
/// g.add_edge(VertexId(0), VertexId(1))?;
/// g.add_edge(VertexId(1), VertexId(2))?;
/// assert!(g.has_edge(VertexId(0), VertexId(1)));
/// assert!(!g.has_edge(VertexId(0), VertexId(2)));
/// assert_eq!(g.neighbors(VertexId(1)), &[VertexId(0), VertexId(2)]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    adj: Vec<Vec<VertexId>>,
    m: usize,
}

impl Graph {
    /// Creates an edgeless graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            m: 0,
        }
    }

    /// Builds a graph on `n` vertices from an iterator of edges given as
    /// `(u, v)` index pairs.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`], [`GraphError::ParallelEdge`] or
    /// [`GraphError::VertexOutOfRange`] on invalid input.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let edges: Vec<(u32, u32)> = edges.into_iter().collect();
        // One pass: count degrees, size every adjacency list once, fill,
        // sort. Invalid input (a self-loop, an out-of-range end or a
        // duplicate) replays the edges through `add_edge`, which reports
        // the first failing edge in input order.
        let mut degree = vec![0usize; n];
        for &(u, v) in &edges {
            if u == v || u as usize >= n || v as usize >= n {
                return Self::insert_each(n, &edges);
            }
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut adj: Vec<Vec<VertexId>> = degree.iter().map(|&d| Vec::with_capacity(d)).collect();
        for &(u, v) in &edges {
            adj[u as usize].push(VertexId(v));
            adj[v as usize].push(VertexId(u));
        }
        for nbrs in &mut adj {
            nbrs.sort_unstable();
            if nbrs.windows(2).any(|w| w[0] == w[1]) {
                return Self::insert_each(n, &edges);
            }
        }
        Ok(Graph {
            adj,
            m: edges.len(),
        })
    }

    /// Builds a graph by inserting `edges` one at a time: the reference
    /// semantics of [`Graph::from_edges`], used for its error path.
    fn insert_each(n: usize, edges: &[(u32, u32)]) -> Result<Self, GraphError> {
        let mut g = Graph::new(n);
        for &(u, v) in edges {
            g.add_edge(VertexId(u), VertexId(v))?;
        }
        Ok(g)
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.m
    }

    /// Iterator over all vertex ids `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.adj.len()).map(VertexId::from_index)
    }

    /// Iterator over all edges in canonical (sorted) order of [`EdgeId`].
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, nbrs)| {
            let u = VertexId::from_index(u);
            nbrs.iter()
                .filter(move |&&v| u < v)
                .map(move |&v| EdgeId::new(u, v))
        })
    }

    /// Checks that `v` is a valid vertex of this graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] when `v.index() >= n`.
    pub fn check_vertex(&self, v: VertexId) -> Result<(), GraphError> {
        if v.index() >= self.adj.len() {
            Err(GraphError::VertexOutOfRange {
                vertex: v,
                n: self.adj.len(),
            })
        } else {
            Ok(())
        }
    }

    /// Inserts the undirected edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// Returns an error for self-loops, duplicate edges or out-of-range
    /// endpoints; the graph is unchanged on error.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        let pos_u = match self.adj[u.index()].binary_search(&v) {
            Ok(_) => return Err(GraphError::ParallelEdge { u, v }),
            Err(pos) => pos,
        };
        let pos_v = self.adj[v.index()]
            .binary_search(&u)
            .expect_err("adjacency lists out of sync");
        self.adj[u.index()].insert(pos_u, v);
        self.adj[v.index()].insert(pos_v, u);
        self.m += 1;
        Ok(())
    }

    /// Removes the undirected edge `{u, v}`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingEdge`] when the edge is absent and
    /// [`GraphError::VertexOutOfRange`] for invalid endpoints; the graph is
    /// unchanged on error.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        let pos_u = match self.adj[u.index()].binary_search(&v) {
            Ok(pos) => pos,
            Err(_) => return Err(GraphError::MissingEdge { u, v }),
        };
        let pos_v = self.adj[v.index()]
            .binary_search(&u)
            .expect("adjacency lists out of sync");
        self.adj[u.index()].remove(pos_u);
        self.adj[v.index()].remove(pos_v);
        self.m -= 1;
        Ok(())
    }

    /// Appends a fresh isolated vertex and returns its id (`n` before the
    /// call). Existing vertex ids are unaffected.
    pub fn add_vertex(&mut self) -> VertexId {
        self.adj.push(Vec::new());
        VertexId::from_index(self.adj.len() - 1)
    }

    /// Removes vertex `v` along with all incident edges. Every vertex with
    /// id greater than `v` is renumbered down by one, preserving the
    /// relative id order of the survivors (the algorithm's leader election
    /// and tie-breaks are id-based, so compaction keeps the graph in the
    /// canonical `0..n` id space).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] when `v` is invalid; the
    /// graph is unchanged on error.
    pub fn remove_vertex(&mut self, v: VertexId) -> Result<(), GraphError> {
        self.check_vertex(v)?;
        self.m -= self.adj[v.index()].len();
        self.adj.remove(v.index());
        for nbrs in &mut self.adj {
            nbrs.retain(|&w| w != v);
            for w in nbrs.iter_mut() {
                if *w > v {
                    *w = VertexId(w.0 - 1);
                }
            }
        }
        Ok(())
    }

    /// Returns `true` if the undirected edge `{u, v}` is present.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        u.index() < self.adj.len() && self.adj[u.index()].binary_search(&v).is_ok()
    }

    /// The sorted list of neighbors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adj[v.index()]
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v.index()].len()
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Returns `true` if the graph is connected (the empty graph and the
    /// one-vertex graph count as connected).
    pub fn is_connected(&self) -> bool {
        crate::traversal::connected_components(self).len() <= 1
    }

    /// Extracts the subgraph induced by `vertices`.
    ///
    /// Returns the induced graph (with vertices renumbered `0..k` in the
    /// order given) and the mapping from new index to original [`VertexId`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if any listed vertex is
    /// invalid, and [`GraphError::ParallelEdge`] if the list contains
    /// duplicates.
    pub fn induced_subgraph(
        &self,
        vertices: &[VertexId],
    ) -> Result<(Graph, Vec<VertexId>), GraphError> {
        let mut index: HashMap<VertexId, u32> = HashMap::with_capacity(vertices.len());
        for (i, &v) in vertices.iter().enumerate() {
            self.check_vertex(v)?;
            if index.insert(v, i as u32).is_some() {
                return Err(GraphError::ParallelEdge { u: v, v });
            }
        }
        let mut sub = Graph::new(vertices.len());
        for (i, &v) in vertices.iter().enumerate() {
            for &w in self.neighbors(v) {
                if let Some(&j) = index.get(&w) {
                    if (i as u32) < j {
                        sub.add_edge(VertexId(i as u32), VertexId(j))?;
                    }
                }
            }
        }
        Ok((sub, vertices.to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k4() -> Graph {
        Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn construction_and_counts() {
        let g = k4();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.max_degree(), 3);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 3);
        }
    }

    #[test]
    fn adjacency_is_sorted() {
        let g = Graph::from_edges(4, [(0, 3), (0, 1), (0, 2)]).unwrap();
        assert_eq!(
            g.neighbors(VertexId(0)),
            &[VertexId(1), VertexId(2), VertexId(3)]
        );
    }

    #[test]
    fn rejects_self_loop_and_parallel() {
        assert!(matches!(
            Graph::from_edges(3, [(1, 1)]),
            Err(GraphError::SelfLoop { .. })
        ));
        assert!(matches!(
            Graph::from_edges(3, [(0, 1), (1, 0)]),
            Err(GraphError::ParallelEdge { .. })
        ));
        assert!(matches!(
            Graph::from_edges(3, [(0, 7)]),
            Err(GraphError::VertexOutOfRange { .. })
        ));
    }

    /// Every ordering of `items` (Heap's algorithm).
    fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
        fn go<T: Clone>(k: usize, a: &mut Vec<T>, out: &mut Vec<Vec<T>>) {
            if k <= 1 {
                out.push(a.clone());
                return;
            }
            for i in 0..k {
                go(k - 1, a, out);
                a.swap(if k.is_multiple_of(2) { i } else { 0 }, k - 1);
            }
        }
        let mut out = Vec::new();
        go(items.len(), &mut items.to_vec(), &mut out);
        out
    }

    #[test]
    fn from_edges_reports_the_first_failing_edge() {
        // A self-loop, an out-of-range end, a duplicate and a reversed
        // duplicate of the valid edges, in every input order: the one-pass
        // build must agree with inserting edge by edge.
        let items = [(0, 1), (1, 2), (2, 2), (1, 9), (0, 1), (2, 1)];
        for order in permutations(&items) {
            for len in 0..=order.len() {
                let edges = &order[..len];
                assert_eq!(
                    Graph::from_edges(4, edges.iter().copied()),
                    Graph::insert_each(4, edges),
                    "edges {edges:?}"
                );
            }
        }
        assert_eq!(
            Graph::from_edges(3, [(0, 1), (2, 2), (1, 0)]),
            Err(GraphError::SelfLoop {
                vertex: VertexId(2)
            })
        );
        assert_eq!(
            Graph::from_edges(3, [(0, 1), (1, 0), (2, 2)]),
            Err(GraphError::ParallelEdge {
                u: VertexId(1),
                v: VertexId(0)
            })
        );
    }

    #[test]
    fn edges_iterate_in_canonical_order() {
        let g = k4();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 6);
        let mut sorted = edges.clone();
        sorted.sort();
        assert_eq!(edges, sorted);
    }

    #[test]
    fn connectivity() {
        assert!(k4().is_connected());
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(!g.is_connected());
        assert!(Graph::new(1).is_connected());
        assert!(Graph::new(0).is_connected());
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = k4();
        let (sub, map) = g
            .induced_subgraph(&[VertexId(1), VertexId(3), VertexId(2)])
            .unwrap();
        assert_eq!(sub.vertex_count(), 3);
        assert_eq!(sub.edge_count(), 3); // triangle
        assert_eq!(map, vec![VertexId(1), VertexId(3), VertexId(2)]);
    }

    #[test]
    fn induced_subgraph_rejects_duplicates() {
        let g = k4();
        assert!(g.induced_subgraph(&[VertexId(1), VertexId(1)]).is_err());
    }

    #[test]
    fn remove_edge_round_trips_with_add() {
        let mut g = k4();
        g.remove_edge(VertexId(1), VertexId(3)).unwrap();
        assert_eq!(g.edge_count(), 5);
        assert!(!g.has_edge(VertexId(1), VertexId(3)));
        assert!(!g.has_edge(VertexId(3), VertexId(1)));
        g.add_edge(VertexId(3), VertexId(1)).unwrap();
        assert_eq!(g, k4());
    }

    #[test]
    fn remove_edge_rejects_missing_and_out_of_range() {
        let mut g = Graph::from_edges(3, [(0, 1)]).unwrap();
        let before = g.clone();
        assert!(matches!(
            g.remove_edge(VertexId(0), VertexId(2)),
            Err(GraphError::MissingEdge { .. })
        ));
        assert!(matches!(
            g.remove_edge(VertexId(0), VertexId(9)),
            Err(GraphError::VertexOutOfRange { .. })
        ));
        assert_eq!(g, before);
    }

    #[test]
    fn add_vertex_appends_isolated() {
        let mut g = k4();
        let v = g.add_vertex();
        assert_eq!(v, VertexId(4));
        assert_eq!(g.vertex_count(), 5);
        assert_eq!(g.degree(v), 0);
        assert_eq!(g.edge_count(), 6);
        g.add_edge(v, VertexId(0)).unwrap();
        assert!(g.has_edge(VertexId(0), VertexId(4)));
    }

    #[test]
    fn remove_vertex_compacts_ids() {
        // Path 0-1-2-3 plus chord 0-3; removing vertex 1 leaves 0, 2->1,
        // 3->2 with edges {1,2} (old {2,3}) and {0,2} (old {0,3}).
        let mut g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap();
        g.remove_vertex(VertexId(1)).unwrap();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(VertexId(1), VertexId(2)));
        assert!(g.has_edge(VertexId(0), VertexId(2)));
        assert!(!g.has_edge(VertexId(0), VertexId(1)));
        // Adjacency stays sorted after renumbering.
        for v in g.vertices() {
            let nbrs = g.neighbors(v);
            assert!(nbrs.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn remove_vertex_updates_edge_count() {
        let mut g = k4();
        g.remove_vertex(VertexId(0)).unwrap();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3); // the remaining triangle
        assert!(g.remove_vertex(VertexId(7)).is_err());
    }
}
