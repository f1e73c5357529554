//! Biconnected-component (block) decomposition and cut vertices.
//!
//! Section 3 of the paper characterizes the *interface* of a partial
//! embedding through exactly this decomposition (Observation 3.2): each
//! biconnected component has a fixed boundary order up to a flip, and blocks
//! may be permuted freely around their shared cut vertices. The distributed
//! representation in the paper names each block by its smallest edge ID;
//! [`BiconnectedDecomposition::block_id`] reproduces that convention.

use crate::{EdgeId, Graph, VertexId};

/// The biconnected-component decomposition of a graph.
///
/// Every edge belongs to exactly one block; a vertex belongs to every block
/// one of its edges belongs to, so cut vertices are exactly the vertices in
/// two or more blocks (isolated vertices belong to no block).
///
/// # Example
///
/// ```
/// use planar_graph::{Graph, VertexId};
/// use planar_graph::biconnected::BiconnectedDecomposition;
///
/// # fn main() -> Result<(), planar_graph::GraphError> {
/// // Two triangles sharing vertex 2 ("bow-tie"): 2 blocks, 1 cut vertex.
/// let g = Graph::from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])?;
/// let bc = BiconnectedDecomposition::compute(&g);
/// assert_eq!(bc.block_count(), 2);
/// assert!(bc.is_cut_vertex(VertexId(2)));
/// assert!(!bc.is_cut_vertex(VertexId(0)));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct BiconnectedDecomposition {
    blocks: Vec<Vec<EdgeId>>,
    /// The blocks at vertex `v` are `block_at[vertex_start[v]..vertex_start[v + 1]]`.
    vertex_start: Vec<usize>,
    block_at: Vec<usize>,
}

impl BiconnectedDecomposition {
    /// Runs Tarjan's linear-time block decomposition (iteratively, so deep
    /// graphs cannot overflow the call stack).
    pub fn compute(g: &Graph) -> Self {
        let n = g.vertex_count();
        let mut disc = vec![0u32; n]; // 0 = unvisited, otherwise disc+1
        let mut low = vec![0u32; n];
        let mut edge_stack: Vec<EdgeId> = Vec::new();
        let mut blocks: Vec<Vec<EdgeId>> = Vec::new();
        let mut timer: u32 = 0;

        // Frame: (vertex, parent, next neighbor index, number of DFS children).
        struct Frame {
            v: VertexId,
            parent: Option<VertexId>,
            next: usize,
            children: usize,
        }

        for root in g.vertices() {
            if disc[root.index()] != 0 {
                continue;
            }
            timer += 1;
            disc[root.index()] = timer;
            low[root.index()] = timer;
            let mut stack = vec![Frame {
                v: root,
                parent: None,
                next: 0,
                children: 0,
            }];
            while let Some(frame) = stack.last_mut() {
                let v = frame.v;
                if frame.next < g.degree(v) {
                    let w = g.neighbors(v)[frame.next];
                    frame.next += 1;
                    if disc[w.index()] == 0 {
                        frame.children += 1;
                        edge_stack.push(EdgeId::new(v, w));
                        timer += 1;
                        disc[w.index()] = timer;
                        low[w.index()] = timer;
                        stack.push(Frame {
                            v: w,
                            parent: Some(v),
                            next: 0,
                            children: 0,
                        });
                    } else if Some(w) != frame.parent && disc[w.index()] < disc[v.index()] {
                        // Back edge to a strict ancestor.
                        edge_stack.push(EdgeId::new(v, w));
                        low[v.index()] = low[v.index()].min(disc[w.index()]);
                    }
                } else {
                    // Finished v: propagate low to parent; maybe close a block.
                    let parent = frame.parent;
                    stack.pop();
                    if let Some(p) = parent {
                        low[p.index()] = low[p.index()].min(low[v.index()]);
                        if low[v.index()] >= disc[p.index()] {
                            // The block containing tree edge (p, v) is
                            // complete: pop the edge stack down to it.
                            let cut = EdgeId::new(p, v);
                            let mut block = Vec::new();
                            while let Some(&top) = edge_stack.last() {
                                edge_stack.pop();
                                block.push(top);
                                if top == cut {
                                    break;
                                }
                            }
                            blocks.push(block);
                        }
                    }
                }
            }
        }

        // Blocks at each vertex in CSR form: `block_at[vertex_start[v]..
        // vertex_start[v + 1]]`, ascending. Blocks are visited in order, so
        // the last block recorded at a vertex detects repeats.
        let mut last = vec![usize::MAX; n];
        let mut vertex_start = vec![0usize; n + 1];
        for (i, block) in blocks.iter().enumerate() {
            for v in block.iter().flat_map(|e| [e.lo(), e.hi()]) {
                if last[v.index()] != i {
                    last[v.index()] = i;
                    vertex_start[v.index() + 1] += 1;
                }
            }
        }
        for v in 0..n {
            vertex_start[v + 1] += vertex_start[v];
        }
        let mut block_at = vec![0usize; vertex_start[n]];
        let mut fill = vertex_start[..n].to_vec();
        last.fill(usize::MAX);
        for (i, block) in blocks.iter().enumerate() {
            for v in block.iter().flat_map(|e| [e.lo(), e.hi()]) {
                if last[v.index()] != i {
                    last[v.index()] = i;
                    block_at[fill[v.index()]] = i;
                    fill[v.index()] += 1;
                }
            }
        }

        BiconnectedDecomposition {
            blocks,
            vertex_start,
            block_at,
        }
    }

    /// Number of blocks (biconnected components).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The edges of block `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b >= block_count()`.
    pub fn block_edges(&self, b: usize) -> &[EdgeId] {
        &self.blocks[b]
    }

    /// The distinct vertices of block `b` (in ascending order).
    pub fn block_vertices(&self, b: usize) -> Vec<VertexId> {
        let mut vs: Vec<VertexId> = self.blocks[b]
            .iter()
            .flat_map(|e| [e.lo(), e.hi()])
            .collect();
        vs.sort();
        vs.dedup();
        vs
    }

    /// The block containing edge `e`, if `e` exists in the graph.
    ///
    /// Two blocks share at most one vertex, so at most one block holds
    /// both ends of `e`; it contains `e` exactly when `e` is an edge.
    /// `O(|blocks at each end| + |block|)`.
    pub fn block_of_edge(&self, e: EdgeId) -> Option<usize> {
        let at = |v: VertexId| {
            if v.index() < self.vertex_count() {
                self.blocks_of_vertex(v)
            } else {
                &[]
            }
        };
        let hi = at(e.hi());
        at(e.lo())
            .iter()
            .copied()
            .find(|b| hi.contains(b))
            .filter(|&b| self.blocks[b].contains(&e))
    }

    /// Indices of the blocks containing vertex `v` (empty for isolated
    /// vertices).
    pub fn blocks_of_vertex(&self, v: VertexId) -> &[usize] {
        &self.block_at[self.vertex_start[v.index()]..self.vertex_start[v.index() + 1]]
    }

    fn vertex_count(&self) -> usize {
        self.vertex_start.len() - 1
    }

    /// Returns `true` if `v` is a cut vertex (belongs to two or more blocks,
    /// the paper's own criterion in Section 3).
    pub fn is_cut_vertex(&self, v: VertexId) -> bool {
        self.blocks_of_vertex(v).len() >= 2
    }

    /// All cut vertices in ascending order.
    pub fn cut_vertices(&self) -> Vec<VertexId> {
        (0..self.vertex_count())
            .map(VertexId::from_index)
            .filter(|&v| self.is_cut_vertex(v))
            .collect()
    }

    /// The paper's block identifier: the smallest [`EdgeId`] in the block
    /// (footnote 5 / "Distributed Representation" in Section 3).
    pub fn block_id(&self, b: usize) -> EdgeId {
        *self.blocks[b].iter().min().expect("blocks are never empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn single_edge_is_one_block() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let bc = BiconnectedDecomposition::compute(&g);
        assert_eq!(bc.block_count(), 1);
        assert!(bc.cut_vertices().is_empty());
        assert_eq!(bc.blocks_of_vertex(VertexId(0)), &[0]);
        assert_eq!(bc.blocks_of_vertex(VertexId(1)), &[0]);
    }

    #[test]
    fn path_every_edge_is_a_block() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let bc = BiconnectedDecomposition::compute(&g);
        assert_eq!(bc.block_count(), 3);
        assert_eq!(bc.cut_vertices(), vec![VertexId(1), VertexId(2)]);
        assert_eq!(bc.blocks_of_vertex(VertexId(1)).len(), 2);
    }

    #[test]
    fn cycle_is_one_block() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let bc = BiconnectedDecomposition::compute(&g);
        assert_eq!(bc.block_count(), 1);
        assert!(bc.cut_vertices().is_empty());
        assert!(g.vertices().all(|v| bc.blocks_of_vertex(v) == [0]));
    }

    #[test]
    fn bowtie_blocks_and_cut() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]).unwrap();
        let bc = BiconnectedDecomposition::compute(&g);
        assert_eq!(bc.block_count(), 2);
        assert_eq!(bc.cut_vertices(), vec![VertexId(2)]);
        assert_eq!(bc.blocks_of_vertex(VertexId(2)).len(), 2);
        assert_eq!(bc.blocks_of_vertex(VertexId(0)).len(), 1);
        // Every block here is a triangle.
        for b in 0..2 {
            assert_eq!(bc.block_edges(b).len(), 3);
            assert_eq!(bc.block_vertices(b).len(), 3);
        }
    }

    #[test]
    fn block_ids_are_min_edge_ids() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]).unwrap();
        let bc = BiconnectedDecomposition::compute(&g);
        let mut ids: Vec<EdgeId> = (0..bc.block_count()).map(|b| bc.block_id(b)).collect();
        ids.sort();
        assert_eq!(ids[0], EdgeId::new(VertexId(0), VertexId(1)));
        assert_eq!(ids[1], EdgeId::new(VertexId(2), VertexId(3)));
    }

    #[test]
    fn every_edge_in_exactly_one_block() {
        // Random-ish mixed graph: triangle + pendant path + extra block.
        let g = Graph::from_edges(
            8,
            [
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 3),
                (6, 7),
            ],
        )
        .unwrap();
        let bc = BiconnectedDecomposition::compute(&g);
        let mut counted = 0;
        for b in 0..bc.block_count() {
            counted += bc.block_edges(b).len();
            for &e in bc.block_edges(b) {
                assert_eq!(bc.block_of_edge(e), Some(b));
            }
        }
        assert_eq!(counted, g.edge_count());
        // Non-edges have no block, also between two vertices of one block.
        for (u, v) in [(3, 5), (4, 6), (0, 7), (1, 3), (2, 9)] {
            assert_eq!(
                bc.block_of_edge(EdgeId::new(VertexId(u), VertexId(v))),
                None
            );
        }
    }

    #[test]
    fn disconnected_graph_blocks_per_component() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)]).unwrap();
        let bc = BiconnectedDecomposition::compute(&g);
        assert_eq!(bc.block_count(), 3); // triangle + two path edges
    }

    #[test]
    fn k4_is_biconnected() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
        let bc = BiconnectedDecomposition::compute(&g);
        assert_eq!(bc.block_count(), 1);
        assert_eq!(bc.block_vertices(0).len(), 4);
        assert!(bc.cut_vertices().is_empty());
    }

    #[test]
    fn deep_path_does_not_overflow_stack() {
        let n = 200_000u32;
        let g = Graph::from_edges(n as usize, (0..n - 1).map(|i| (i, i + 1))).unwrap();
        let bc = BiconnectedDecomposition::compute(&g);
        assert_eq!(bc.block_count(), n as usize - 1);
    }
}
