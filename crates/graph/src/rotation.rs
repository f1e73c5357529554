//! Rotation systems (combinatorial embeddings), face tracing, and the
//! Euler-genus planarity verifier.
//!
//! By Edmonds' theorem (cited as \[Edm60\] in the paper), a rotation system —
//! the clockwise cyclic order of incident edges at every vertex — determines
//! an embedding of the graph on an orientable surface, and the embedding is
//! planar exactly when the surface has genus 0, i.e. when Euler's formula
//! `V − E + F = 2` holds on every connected component. This module is the
//! ground truth the whole workspace verifies embeddings against.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::{Graph, GraphError, VertexId};

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

    /// Traces all faces of the embedding.
    ///
    /// Faces are returned as cyclic sequences of *directed* edges `(u, v)`;
    /// every directed edge appears in exactly one face. The successor of
    /// directed edge `(u, v)` is `(v, w)` where `w` follows `u` in the
    /// rotation at `v` — the standard "next edge in clockwise order" rule.
    pub fn faces(&self) -> Vec<Vec<(VertexId, VertexId)>> {
        // Position of u within rot[v], for O(1) successor lookups.
        let mut pos: HashMap<(VertexId, VertexId), usize> = HashMap::new();
        for (v, order) in self.rot.iter().enumerate() {
            let v = VertexId::from_index(v);
            for (i, &u) in order.iter().enumerate() {
                pos.insert((v, u), i);
            }
        }
        let mut visited: HashMap<(VertexId, VertexId), bool> = HashMap::new();
        let mut faces = Vec::new();
        for (v, order) in self.rot.iter().enumerate() {
            let v = VertexId::from_index(v);
            for &u in order {
                if visited.get(&(v, u)).copied().unwrap_or(false) {
                    continue;
                }
                let mut face = Vec::new();
                let (mut a, mut b) = (v, u);
                loop {
                    visited.insert((a, b), true);
                    face.push((a, b));
                    let i = pos[&(b, a)];
                    let order_b = &self.rot[b.index()];
                    let w = order_b[(i + 1) % order_b.len()];
                    a = b;
                    b = w;
                    if (a, b) == (v, u) {
                        break;
                    }
                }
                faces.push(face);
            }
        }
        faces
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
        for face in self.faces() {
            let (u, _) = face[0];
            faces[comp_of[u.index()]] += 1;
        }
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
