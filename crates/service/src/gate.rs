//! The one-sided pre-flight gate: decide cheap deltas without paying for
//! a re-embedding.
//!
//! Modeled on the one-sided-error property-testing discipline of Levi,
//! Medina & Ron (*Property Testing of Planarity in the CONGEST Model*,
//! PAPERS.md): the gate may answer *Unknown* (and let the embedder
//! decide), but when it does answer, the answer is certain —
//!
//! * [`GateVerdict::DefinitelyNonPlanar`] is backed by the density bound
//!   `m > 3n − 6`: the mutated graph cannot be planar, so the service
//!   rejects the delta without re-embedding at all. This is the *same*
//!   bound the driver's density guard applies, so a gate rejection is
//!   bit-identical in outcome to running the full pipeline.
//! * [`GateVerdict::DefinitelyPlanar`] is backed by minor-closedness
//!   (deletions and departures can never break planarity) or by a
//!   witness in the *resident* rotation: endpoints co-facial in the
//!   current embedding admit the new edge inside that face; a node
//!   arrival whose attachments share a face embeds inside it likewise.
//!
//! A `DefinitelyPlanar` verdict still re-embeds (the tenant needs the
//! new rotation); what it saves the operator is alarm triage — only
//! `Unknown` deltas can come back rejected.

use planar_graph::{Graph, RotationSystem, VertexId};

use crate::delta::Delta;

/// The gate's one-sided answer for a delta.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GateVerdict {
    /// The mutated graph is certainly planar (minor-closedness or a
    /// co-facial witness in the resident rotation).
    DefinitelyPlanar,
    /// The mutated graph is certainly non-planar (density bound); the
    /// delta can be rejected without re-embedding.
    DefinitelyNonPlanar,
    /// The gate cannot tell; the re-embedding decides.
    Unknown,
}

/// The driver's density guard, applied to the post-delta counts: planar
/// simple graphs satisfy `m <= 3n - 6` for `n >= 3`.
fn density_rejects(n: usize, m: usize) -> bool {
    n >= 3 && m > 3 * n - 6
}

/// `true` if some face of `rotation` (an embedding of `g`) is incident to
/// every vertex in `targets` — the witness that an edge (or a new node's
/// attachment star) can be drawn inside that face. Only the faces through
/// the first target can qualify, so only they are walked.
fn co_facial(g: &Graph, rotation: &RotationSystem, targets: &[VertexId]) -> bool {
    let Some((&first, rest)) = targets.split_first() else {
        return false;
    };
    let idx = g.arc_index();
    let Ok(next) = rotation.face_successors(&idx) else {
        return false;
    };
    // Walks the face of dart `e0` (leaving `first`) until it meets `t`;
    // the head of a dart is the tail of its successor.
    let on_face = |e0: usize, t: VertexId| {
        let (mut v, mut e) = (first, e0);
        loop {
            if v == t {
                return true;
            }
            v = rotation.order_at(v)[e - idx.first_arc(v).index()];
            e = next[e] as usize;
            if e == e0 {
                return false;
            }
        }
    };
    let start = idx.first_arc(first).index();
    (start..start + idx.degree(first)).any(|e0| rest.iter().all(|&t| on_face(e0, t)))
}

/// Judges `delta` against the resident graph and rotation. See the
/// module docs for the soundness argument of each verdict.
///
/// The delta is assumed structurally valid for `g` (the service
/// validates via [`apply_delta`](crate::delta::apply_delta) first);
/// verdicts for invalid deltas are unspecified but never panic.
pub fn preflight(g: &Graph, rotation: &RotationSystem, delta: &Delta) -> GateVerdict {
    let (n, m) = (g.vertex_count(), g.edge_count());
    match delta {
        // Minor-closed: deleting an edge or a vertex of a planar graph
        // leaves a planar graph.
        Delta::DeleteEdge(..) | Delta::RemoveNode(..) => GateVerdict::DefinitelyPlanar,
        Delta::InsertEdge(u, v) => {
            if density_rejects(n, m + 1) {
                GateVerdict::DefinitelyNonPlanar
            } else if co_facial(g, rotation, &[*u, *v]) {
                GateVerdict::DefinitelyPlanar
            } else {
                GateVerdict::Unknown
            }
        }
        Delta::AddNode { attach } => {
            if density_rejects(n + 1, m + attach.len()) {
                GateVerdict::DefinitelyNonPlanar
            } else if attach.len() <= 1 || co_facial(g, rotation, attach) {
                // A pendant node is always plantable; a multi-attachment
                // node embeds inside any face its attachments share.
                GateVerdict::DefinitelyPlanar
            } else {
                GateVerdict::Unknown
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planar_lib::{embed, gen};

    #[test]
    fn deletions_are_definitely_planar() {
        let g = gen::grid(3, 3);
        let rot = embed(&g).unwrap();
        assert_eq!(
            preflight(&g, &rot, &Delta::DeleteEdge(VertexId(0), VertexId(1))),
            GateVerdict::DefinitelyPlanar
        );
        assert_eq!(
            preflight(&g, &rot, &Delta::RemoveNode(VertexId(0))),
            GateVerdict::DefinitelyPlanar
        );
    }

    #[test]
    fn density_violations_are_definitely_nonplanar() {
        // A maximal planar graph: any further edge breaks the bound.
        let g = gen::random_maximal_planar(12, 3);
        assert_eq!(g.edge_count(), 3 * 12 - 6);
        let rot = embed(&g).unwrap();
        let (u, v) = {
            let mut pick = None;
            'outer: for a in g.vertices() {
                for b in g.vertices() {
                    if a < b && !g.has_edge(a, b) {
                        pick = Some((a, b));
                        break 'outer;
                    }
                }
            }
            pick.expect("a 12-vertex maximal planar graph is not complete")
        };
        assert_eq!(
            preflight(&g, &rot, &Delta::InsertEdge(u, v)),
            GateVerdict::DefinitelyNonPlanar
        );
    }

    #[test]
    fn co_facial_insertion_is_definitely_planar() {
        // In a 4-cycle's embedding both faces are incident to all four
        // vertices, so the chord is co-facially plantable.
        let g = gen::cycle(4);
        let rot = embed(&g).unwrap();
        assert_eq!(
            preflight(&g, &rot, &Delta::InsertEdge(VertexId(0), VertexId(2))),
            GateVerdict::DefinitelyPlanar
        );
    }

    #[test]
    fn pendant_arrival_is_definitely_planar() {
        let g = gen::grid(3, 3);
        let rot = embed(&g).unwrap();
        assert_eq!(
            preflight(
                &g,
                &rot,
                &Delta::AddNode {
                    attach: vec![VertexId(4)]
                }
            ),
            GateVerdict::DefinitelyPlanar
        );
    }
}
