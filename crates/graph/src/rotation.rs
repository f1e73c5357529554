//! Rotation systems (combinatorial embeddings), face tracing, and the
//! Euler-genus planarity verifier.
//!
//! By Edmonds' theorem (cited as \[Edm60\] in the paper), a rotation system —
//! the clockwise cyclic order of incident edges at every vertex — determines
//! an embedding of the graph on an orientable surface, and the embedding is
//! planar exactly when the surface has genus 0, i.e. when Euler's formula
//! `V − E + F = 2` holds on every connected component. This module is the
//! ground truth the whole workspace verifies embeddings against.

use serde::{Deserialize, Serialize};

use crate::{ArcId, ArcIndex, Graph, GraphError, VertexId};

/// A rotation system: for every vertex, a cyclic order of its neighbors.
///
/// This is exactly the paper's distributed output format, gathered into one
/// structure: "each vertex must learn the clockwise ordering of its own edges
/// around itself".
///
/// # Example
///
/// ```
/// use planar_graph::{Graph, RotationSystem, VertexId};
///
/// # fn main() -> Result<(), planar_graph::GraphError> {
/// let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)])?;
/// let rot = RotationSystem::new(
///     &g,
///     vec![
///         vec![VertexId(1), VertexId(2)],
///         vec![VertexId(2), VertexId(0)],
///         vec![VertexId(0), VertexId(1)],
///     ],
/// )?;
/// assert!(rot.is_planar_embedding());
/// assert_eq!(rot.face_count(), 2); // inside and outside of the triangle
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RotationSystem {
    rot: Vec<Vec<VertexId>>,
}

impl RotationSystem {
    /// Builds a rotation system for `g`, validating that each vertex's list
    /// is a permutation of its neighbor set.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidRotation`] if any list is not a
    /// permutation of the vertex's neighbors.
    pub fn new(g: &Graph, rot: Vec<Vec<VertexId>>) -> Result<Self, GraphError> {
        if rot.len() != g.vertex_count() {
            return Err(GraphError::InvalidRotation {
                reason: format!(
                    "rotation has {} vertices, graph has {}",
                    rot.len(),
                    g.vertex_count()
                ),
            });
        }
        // `mark[w] == v + 1` while `w` is a neighbor of `v` not yet seen in
        // its rotation: a list of the right length that names only marked
        // vertices, each once, is a permutation of the neighbors.
        let n = g.vertex_count();
        let mut mark = vec![0u32; n];
        for v in g.vertices() {
            let order = &rot[v.index()];
            let stamp = v.0 + 1;
            for &w in g.neighbors(v) {
                mark[w.index()] = stamp;
            }
            let permutes = order.len() == g.degree(v)
                && order.iter().all(|&w| {
                    let hit = w.index() < n && mark[w.index()] == stamp;
                    if hit {
                        mark[w.index()] = 0;
                    }
                    hit
                });
            if !permutes {
                return Err(GraphError::InvalidRotation {
                    reason: format!("rotation at {v} is not a permutation of its neighbors"),
                });
            }
        }
        Ok(RotationSystem { rot })
    }

    /// The default rotation system with neighbors in ascending id order.
    ///
    /// This is an *arbitrary* embedding — typically non-planar for planar
    /// graphs — useful as a starting point and in tests.
    pub fn sorted_default(g: &Graph) -> Self {
        RotationSystem {
            rot: g.vertices().map(|v| g.neighbors(v).to_vec()).collect(),
        }
    }

    /// Number of vertices covered by the rotation system.
    pub fn vertex_count(&self) -> usize {
        self.rot.len()
    }

    /// Number of undirected edges described by the rotation system.
    pub fn edge_count(&self) -> usize {
        self.rot.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// The cyclic neighbor order at `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn order_at(&self, v: VertexId) -> &[VertexId] {
        &self.rot[v.index()]
    }

    /// Consumes the rotation system and returns the raw per-vertex orders.
    pub fn into_orders(self) -> Vec<Vec<VertexId>> {
        self.rot
    }

    /// The face successor of every rotation entry, on flat tables over
    /// `idx`, the arc index of the graph the rotation embeds. Entry
    /// `idx.first_arc(v).0 + p` is the dart from `v` to the `p`-th vertex
    /// of its rotation, so each vertex's entries form one contiguous run
    /// and the tail of entry `e` is `idx.tail(ArcId(e))`. `next[e]` is the
    /// entry after `e` on its face: the successor of the dart `(v, w)` is
    /// `(w, x)`, where `x` follows `v` in the rotation at `w` — the standard
    /// "next edge in clockwise order" rule. Every face is one orbit.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidRotation`] if a rotation list does not
    /// name exactly its vertex's neighbors in `idx`.
    pub fn face_successors(&self, idx: &ArcIndex) -> Result<Vec<u32>, GraphError> {
        let invalid = |reason: String| GraphError::InvalidRotation { reason };
        if self.rot.len() != idx.vertex_count() {
            return Err(invalid(format!(
                "rotation has {} vertices, graph has {}",
                self.rot.len(),
                idx.vertex_count()
            )));
        }
        let darts = idx.arc_count();
        let mut arc_of_entry = vec![ArcId(0); darts];
        let mut entry_of_arc = vec![0u32; darts];
        // `slot_of[w]`: position of `w` in the sorted neighbor list of the
        // vertex being scanned (stale for non-neighbors, hence the check).
        let mut slot_of = vec![0u32; self.rot.len()];
        for (v, order) in self.rot.iter().enumerate() {
            let v = VertexId::from_index(v);
            let (base, nbrs, _) = idx.block(v);
            if order.len() != nbrs.len() {
                return Err(invalid(format!(
                    "rotation at {v} has {} entries, vertex has degree {}",
                    order.len(),
                    nbrs.len()
                )));
            }
            for (s, &w) in nbrs.iter().enumerate() {
                slot_of[w.index()] = s as u32;
            }
            for (p, &w) in order.iter().enumerate() {
                let s = slot_of.get(w.index()).copied();
                let s = s
                    .filter(|&s| nbrs.get(s as usize) == Some(&w))
                    .ok_or_else(|| invalid(format!("rotation at {v} names non-neighbor {w}")))?;
                let (e, a) = (base + p, base + s as usize);
                arc_of_entry[e] = ArcId(a as u32);
                entry_of_arc[a] = e as u32;
            }
        }
        let mut next = vec![0u32; darts];
        for v in (0..self.rot.len()).map(VertexId::from_index) {
            let first = idx.first_arc(v).index();
            for e in first..first + idx.degree(v) {
                let a = arc_of_entry[e];
                let w = idx.head(a);
                let twin = entry_of_arc[idx.rev(a).index()] + 1;
                let end = idx.first_arc(w).0 + idx.degree(w) as u32;
                next[e] = if twin == end {
                    idx.first_arc(w).0
                } else {
                    twin
                };
            }
        }
        Ok(next)
    }

    /// Traces all faces of the embedding.
    ///
    /// Faces are returned as cyclic sequences of *directed* edges `(u, v)`;
    /// every directed edge appears in exactly one face, and faces come in
    /// the order of their first dart by tail, then rotation position. The
    /// successor rule is [`face_successors`](Self::face_successors)'.
    pub fn faces(&self) -> Vec<Vec<(VertexId, VertexId)>> {
        let mut faces = Vec::new();
        self.each_face(&self.to_graph(), |face| faces.push(face.to_vec()));
        faces
    }

    /// Calls `face` once per face of this embedding of `g`, with its darts
    /// in order, in the order [`faces`](Self::faces) lists them.
    fn each_face(&self, g: &Graph, mut face: impl FnMut(&[(VertexId, VertexId)])) {
        let idx = g.arc_index();
        let next = self
            .face_successors(&idx)
            .expect("a rotation system lists its own graph's neighbors");
        let mut seen = vec![false; next.len()];
        let mut darts = Vec::new();
        for v in g.vertices() {
            let first = idx.first_arc(v).index();
            for e0 in first..first + idx.degree(v) {
                // The head of a dart is the tail of its successor.
                let (mut tail, mut e) = (v, e0);
                darts.clear();
                while !seen[e] {
                    seen[e] = true;
                    let head = self.rot[tail.index()][e - idx.first_arc(tail).index()];
                    darts.push((tail, head));
                    (tail, e) = (head, next[e] as usize);
                }
                if !darts.is_empty() {
                    face(&darts);
                }
            }
        }
    }

    /// Number of faces of the embedding.
    pub fn face_count(&self) -> usize {
        self.faces().len()
    }

    /// Euler genus of the embedded surface, summed over connected
    /// components: for each component, `2·g = 2 − (V − E + F)`.
    ///
    /// Genus 0 means the rotation system is a planar embedding.
    pub fn genus(&self) -> i64 {
        // Group faces and edges by connected component of the *embedded*
        // graph (components are determined by the rotation itself).
        let g = self.to_graph();
        let comps = crate::traversal::connected_components(&g);
        let mut comp_of = vec![usize::MAX; self.rot.len()];
        for (ci, comp) in comps.iter().enumerate() {
            for &v in comp {
                comp_of[v.index()] = ci;
            }
        }
        let mut verts = vec![0i64; comps.len()];
        let mut edges = vec![0i64; comps.len()];
        let mut faces = vec![0i64; comps.len()];
        for (ci, comp) in comps.iter().enumerate() {
            verts[ci] = comp.len() as i64;
        }
        for e in g.edges() {
            edges[comp_of[e.lo().index()]] += 1;
        }
        self.each_face(&g, |face| faces[comp_of[face[0].0.index()]] += 1);
        let mut genus2 = 0i64;
        for ci in 0..comps.len() {
            if verts[ci] == 1 && edges[ci] == 0 {
                continue; // isolated vertex: genus 0 by convention
            }
            genus2 += 2 - (verts[ci] - edges[ci] + faces[ci]);
        }
        genus2 / 2
    }

    /// Returns `true` if this rotation system is a planar embedding
    /// (Euler genus 0 on every connected component).
    pub fn is_planar_embedding(&self) -> bool {
        self.genus() == 0
    }

    /// Reconstructs the underlying [`Graph`] from the rotation lists.
    pub fn to_graph(&self) -> Graph {
        let mut g = Graph::new(self.rot.len());
        for (v, order) in self.rot.iter().enumerate() {
            let v = VertexId::from_index(v);
            for &u in order {
                if v < u {
                    g.add_edge(v, u)
                        .expect("rotation lists are symmetric and simple");
                }
            }
        }
        g
    }

    /// Reverses the rotation at every vertex, producing the mirror-image
    /// embedding. Planarity (and all face sizes) are preserved.
    pub fn mirrored(&self) -> Self {
        RotationSystem {
            rot: self
                .rot
                .iter()
                .map(|order| order.iter().rev().copied().collect())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_planar() -> (Graph, RotationSystem) {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        let rot = RotationSystem::sorted_default(&g);
        (g, rot)
    }

    #[test]
    fn triangle_has_two_faces() {
        let (_, rot) = triangle_planar();
        assert_eq!(rot.face_count(), 2);
        assert!(rot.is_planar_embedding());
        assert_eq!(rot.genus(), 0);
    }

    #[test]
    fn k4_planar_and_nonplanar_rotations() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
        // A known planar rotation of K4 (vertex 3 in the center).
        let planar = RotationSystem::new(
            &g,
            vec![
                vec![VertexId(1), VertexId(3), VertexId(2)],
                vec![VertexId(2), VertexId(3), VertexId(0)],
                vec![VertexId(0), VertexId(3), VertexId(1)],
                vec![VertexId(0), VertexId(1), VertexId(2)],
            ],
        )
        .unwrap();
        assert!(planar.is_planar_embedding());
        assert_eq!(planar.face_count(), 4); // Euler: 4 - 6 + F = 2

        // The sorted-default rotation of K4 happens to be non-planar.
        let default = RotationSystem::sorted_default(&g);
        assert_eq!(default.genus(), 1);
        assert!(!default.is_planar_embedding());
    }

    #[test]
    fn every_directed_edge_in_exactly_one_face() {
        let (g, rot) = triangle_planar();
        let faces = rot.faces();
        let total: usize = faces.iter().map(Vec::len).sum();
        assert_eq!(total, 2 * g.edge_count());
    }

    /// The flat successor tables trace the faces the textbook rule does:
    /// start at every unvisited dart in (tail, rotation position) order
    /// and step `(u, v) -> (v, w)`, `w` following `u` in the rotation at
    /// `v`, looked up by position.
    #[test]
    fn flat_faces_match_the_textbook_rule() {
        let textbook = |rot: &RotationSystem| {
            let mut seen = std::collections::HashSet::new();
            let mut faces = Vec::new();
            for (v, order) in rot.rot.iter().enumerate() {
                for &u in order {
                    let (mut a, mut b) = (VertexId::from_index(v), u);
                    let mut face = Vec::new();
                    while seen.insert((a, b)) {
                        face.push((a, b));
                        let at_b = rot.order_at(b);
                        let i = at_b.iter().position(|&x| x == a).unwrap();
                        (a, b) = (b, at_b[(i + 1) % at_b.len()]);
                    }
                    if !face.is_empty() {
                        faces.push(face);
                    }
                }
            }
            faces
        };
        let k4 = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
        let grid: Vec<(u32, u32)> = (0..9u32)
            .flat_map(|v| [(v, v + 1), (v, v + 3)])
            .filter(|&(v, w)| w < 9 && (w == v + 3 || v % 3 != 2))
            .collect();
        let grid = Graph::from_edges(9, grid).unwrap();
        let split = Graph::from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)]).unwrap();
        for g in [k4, grid, split] {
            let rot = RotationSystem::sorted_default(&g);
            for r in [rot.mirrored(), rot] {
                assert_eq!(r.faces(), textbook(&r));
                let idx = g.arc_index();
                assert_eq!(r.face_successors(&idx).unwrap().len(), idx.arc_count());
            }
        }
    }

    #[test]
    fn validation_rejects_bad_rotation() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]).unwrap();
        let bad = RotationSystem::new(
            &g,
            vec![
                vec![VertexId(1)], // missing neighbor 2
                vec![VertexId(2), VertexId(0)],
                vec![VertexId(0), VertexId(1)],
            ],
        );
        assert!(matches!(bad, Err(GraphError::InvalidRotation { .. })));
        // A repeat, a non-neighbor, an out-of-range id, an extra entry.
        let v = VertexId;
        for order in [
            vec![v(1), v(1)],
            vec![v(1), v(0)],
            vec![v(1), v(7)],
            vec![v(1), v(2), v(1)],
        ] {
            let bad = RotationSystem::new(&g, vec![order, vec![v(2), v(0)], vec![v(0), v(1)]]);
            assert_eq!(
                bad,
                Err(GraphError::InvalidRotation {
                    reason: "rotation at v0 is not a permutation of its neighbors".into()
                })
            );
        }
        assert!(RotationSystem::new(
            &g,
            vec![vec![v(2), v(1)], vec![v(0), v(2)], vec![v(1), v(0)]]
        )
        .is_ok());
    }

    #[test]
    fn tree_always_planar_one_face() {
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (1, 3), (1, 4)]).unwrap();
        let rot = RotationSystem::sorted_default(&g);
        // Any rotation of a tree is planar with a single face.
        assert!(rot.is_planar_embedding());
        assert_eq!(rot.face_count(), 1);
        assert_eq!(rot.faces()[0].len(), 2 * g.edge_count());
    }

    #[test]
    fn mirrored_preserves_planarity() {
        let (_, rot) = triangle_planar();
        let m = rot.mirrored();
        assert!(m.is_planar_embedding());
        assert_eq!(m.face_count(), rot.face_count());
    }

    #[test]
    fn to_graph_roundtrip() {
        let (g, rot) = triangle_planar();
        assert_eq!(rot.to_graph(), g);
    }

    #[test]
    fn disconnected_components_counted_separately() {
        // Two disjoint triangles: each planar, total genus 0.
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).unwrap();
        let rot = RotationSystem::sorted_default(&g);
        assert!(rot.is_planar_embedding());
        assert_eq!(rot.face_count(), 4);
    }
}
