//! The certificate builder (the *prover* side of the proof-labeling
//! scheme).
//!
//! Given a graph and a rotation system — the embedding output each node of
//! the distributed algorithm holds — the builder assigns every node a
//! [`Certificate`]:
//!
//! * a **spanning-forest opening**: the id of the node's component root, a
//!   tree-parent pointer, and the node's tree depth (one root per
//!   component, chosen as the component's maximum id — the same leader
//!   convention the embedding driver's setup phase uses);
//! * **subtree counters** `(sub_vertices, sub_arcs, sub_faces)`: the sums,
//!   over the node's tree subtree, of `1`, `deg(v)`, and the number of
//!   *face-leader* arcs at `v` (out-arcs that are the lexicographically
//!   minimal directed arc of their face orbit). At the root these equal
//!   `(n, 2m, f)` of the component, which is exactly what the verifier's
//!   Euler check needs;
//! * **per-arc face labels**, in rotation order: for each out-arc, the
//!   lexicographically minimal directed arc on that arc's face orbit
//!   (2 words each, `O(Δ log n)` bits per node in total).
//!
//! All fields are `O(log n)`-bit quantities, so the whole certificate fits
//! the CONGEST word model; [`Certificate::words`] reports the exact wire
//! size used by the size benchmarks.

use planar_graph::{Graph, RotationSystem, VertexId};
use serde::{Deserialize, Serialize};

use crate::error::CertError;

/// One node's certificate. See the [module docs](self) for the format.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Certificate {
    /// Id of this node's component root (maximum id in the component for
    /// builder-produced certificates).
    pub root: VertexId,
    /// Tree parent in the spanning forest; `None` exactly at roots.
    pub parent: Option<VertexId>,
    /// Tree depth (0 at roots).
    pub depth: u32,
    /// Vertices in this node's tree subtree.
    pub sub_vertices: u64,
    /// Sum of degrees over the subtree (arc halves; `2m` at the root).
    pub sub_arcs: u64,
    /// Face-leader arcs owned by the subtree (`f` at the root).
    pub sub_faces: u64,
    /// Face label of each out-arc, in *rotation order*: the
    /// lexicographically minimal directed arc of the arc's face orbit.
    pub labels: Vec<(VertexId, VertexId)>,
}

impl Certificate {
    /// Exact on-wire size of this certificate in `O(log n)`-bit words:
    /// `O(1) + 2·deg` (i.e. `O(Δ log n)` bits).
    pub fn words(&self) -> usize {
        // root (1) + parent tag+id (1..2) + depth (1) + three u64 counters
        // (2 each) + labels (2 per arc).
        1 + if self.parent.is_some() { 2 } else { 1 } + 1 + 6 + 2 * self.labels.len()
    }
}

/// Per-vertex face labels in rotation order, paired with per-vertex
/// face-leader counts.
type FaceLabelTables = (Vec<Vec<(VertexId, VertexId)>>, Vec<u64>);

/// Per-vertex face labels (rotation order) and face-leader counts,
/// computed by tracing every orbit of the rotation's flat face-successor
/// table ([`RotationSystem::face_successors`]) over the arc index.
///
/// Rotation entries share the arcs' CSR numbering: entry `first_arc(v) +
/// p` is the arc from `v` to the `p`-th vertex of its rotation, so each
/// vertex's labels come out as one contiguous run of the label table. An
/// arc `(u, w)` is keyed `u << 32 | w`, so the lexicographic minimum of an
/// orbit is its numeric minimum.
fn face_labels(g: &Graph, rot: &RotationSystem) -> Result<FaceLabelTables, CertError> {
    let ai = g.arc_index();
    let two_m = ai.arc_count();
    let next = rot
        .face_successors(&ai)
        .map_err(|e| CertError::BadInput(e.to_string()))?;
    let key = |u: VertexId, w: VertexId| u64::from(u.0) << 32 | u64::from(w.0);
    let mut keys = vec![0u64; two_m];
    for v in g.vertices() {
        let base = ai.first_arc(v).index();
        for (p, &w) in rot.order_at(v).iter().enumerate() {
            keys[base + p] = key(v, w);
        }
    }

    // Trace each face orbit twice: once for its minimal key, once to label
    // every arc with it.
    const UNSET: u64 = u64::MAX;
    let mut label = vec![UNSET; two_m];
    for e0 in 0..two_m {
        if label[e0] != UNSET {
            continue;
        }
        let mut min = keys[e0];
        let mut e = next[e0] as usize;
        while e != e0 {
            min = min.min(keys[e]);
            e = next[e] as usize;
        }
        label[e0] = min;
        let mut e = next[e0] as usize;
        while e != e0 {
            label[e] = min;
            e = next[e] as usize;
        }
    }

    let mut leaders = vec![0u64; g.vertex_count()];
    let labels = g
        .vertices()
        .map(|v| {
            let run = ai.first_arc(v).index()..ai.first_arc(v).index() + ai.degree(v);
            leaders[v.index()] = run.clone().filter(|&e| label[e] == keys[e]).count() as u64;
            label[run]
                .iter()
                .map(|&k| (VertexId((k >> 32) as u32), VertexId(k as u32)))
                .collect()
        })
        .collect();
    Ok((labels, leaders))
}

/// Assembles certificates from a validated spanning forest plus the face
/// labels of the rotation. `top_down` lists every vertex after its parent.
fn assemble(
    g: &Graph,
    labels: Vec<Vec<(VertexId, VertexId)>>,
    leaders: &[u64],
    (parent, depth, root_of): (&[Option<VertexId>], &[u32], &[VertexId]),
    top_down: &[usize],
) -> Vec<Certificate> {
    // Leaf-up aggregation: every child is folded into its parent exactly
    // once, before the parent is folded into its own.
    let mut sub: Vec<(u64, u64, u64)> = g
        .vertices()
        .map(|v| (1u64, g.degree(v) as u64, leaders[v.index()]))
        .collect();
    for &v in top_down.iter().rev() {
        if let Some(p) = parent[v] {
            let (a, b, c) = sub[v];
            let t = &mut sub[p.index()];
            t.0 += a;
            t.1 += b;
            t.2 += c;
        }
    }
    labels
        .into_iter()
        .enumerate()
        .map(|(v, labels)| Certificate {
            root: root_of[v],
            parent: parent[v],
            depth: depth[v],
            sub_vertices: sub[v].0,
            sub_arcs: sub[v].1,
            sub_faces: sub[v].2,
            labels,
        })
        .collect()
}

/// Builds the certificate of every node for the embedding `rot` of `g`,
/// deriving its own BFS spanning forest (rooted at each component's
/// maximum id, neighbors visited in sorted order — fully deterministic).
///
/// Disconnected graphs are supported: each component gets its own tree and
/// its own Euler check at its root.
///
/// # Errors
///
/// [`CertError::BadInput`] if `rot` does not describe exactly the graph
/// `g` (wrong vertex count, or a rotation entry that is not a neighbor).
pub fn build_certificates(g: &Graph, rot: &RotationSystem) -> Result<Vec<Certificate>, CertError> {
    let n = g.vertex_count();
    if rot.vertex_count() != n {
        return Err(CertError::BadInput(format!(
            "rotation covers {} vertices, graph has {n}",
            rot.vertex_count()
        )));
    }
    // BFS forest: visiting start vertices in decreasing id order makes the
    // first unvisited vertex of each component its maximum id.
    let mut parent: Vec<Option<VertexId>> = vec![None; n];
    let mut depth = vec![0u32; n];
    let mut root_of = vec![VertexId(0); n];
    let mut seen = vec![false; n];
    // The BFS queue, kept whole: every vertex comes after its parent.
    let mut queue = Vec::with_capacity(n);
    for vi in (0..n).rev() {
        if seen[vi] {
            continue;
        }
        let s = VertexId::from_index(vi);
        seen[vi] = true;
        root_of[vi] = s;
        let mut head = queue.len();
        queue.push(vi);
        while let Some(&u) = queue.get(head) {
            head += 1;
            for &w in g.neighbors(VertexId::from_index(u)) {
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    parent[w.index()] = Some(VertexId::from_index(u));
                    depth[w.index()] = depth[u] + 1;
                    root_of[w.index()] = s;
                    queue.push(w.index());
                }
            }
        }
    }
    let (labels, leaders) = face_labels(g, rot)?;
    let forest = (&parent[..], &depth[..], &root_of[..]);
    Ok(assemble(g, labels, &leaders, forest, &queue))
}

/// [`build_certificates`] with a caller-supplied spanning forest — e.g.
/// the global BFS tree the embedding driver's setup phase already
/// computed, so certification reuses the tree every node knows its parent
/// in rather than deriving a second one.
///
/// # Errors
///
/// [`CertError::BadInput`] if the rotation does not match `g` (as
/// [`build_certificates`]) or if `(parent, depth)` is not a spanning
/// forest of `g`: wrong lengths, a parent that is not a neighbor, a depth
/// that is not `parent's depth + 1`, or a component with any number of
/// roots other than exactly one.
pub fn build_certificates_with_tree(
    g: &Graph,
    rot: &RotationSystem,
    parent: &[Option<VertexId>],
    depth: &[u32],
) -> Result<Vec<Certificate>, CertError> {
    let n = g.vertex_count();
    if rot.vertex_count() != n || parent.len() != n || depth.len() != n {
        return Err(CertError::BadInput(format!(
            "inconsistent input sizes: graph {n}, rotation {}, parent {}, depth {}",
            rot.vertex_count(),
            parent.len(),
            depth.len()
        )));
    }
    for v in g.vertices() {
        match parent[v.index()] {
            Some(p) => {
                if g.neighbor_slot(v, p).is_none() {
                    return Err(CertError::BadInput(format!(
                        "tree parent {p} of {v} is not a neighbor"
                    )));
                }
                if depth[v.index()] != depth[p.index()] + 1 {
                    return Err(CertError::BadInput(format!(
                        "depth of {v} is not its parent's depth + 1"
                    )));
                }
            }
            None => {
                if depth[v.index()] != 0 {
                    return Err(CertError::BadInput(format!("root {v} has nonzero depth")));
                }
            }
        }
    }
    // Resolve each vertex's root by chasing parents in depth order (a
    // parent always has strictly smaller depth, so one pass suffices).
    let mut root_of = vec![VertexId(0); n];
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| depth[v]);
    for &v in &order {
        root_of[v] = match parent[v] {
            None => VertexId::from_index(v),
            Some(p) => root_of[p.index()],
        };
    }
    // Exactly one root per connected component (otherwise the "forest"
    // does not span and the verifier would reject — surface it here).
    for v in g.vertices() {
        for &w in g.neighbors(v) {
            if root_of[v.index()] != root_of[w.index()] {
                return Err(CertError::BadInput(format!(
                    "tree does not span: neighbors {v} and {w} have different roots"
                )));
            }
        }
    }
    let (labels, leaders) = face_labels(g, rot)?;
    Ok(assemble(
        g,
        labels,
        &leaders,
        (parent, depth, &root_of),
        &order,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid3() -> (Graph, RotationSystem) {
        // 3x3 grid with a planar rotation (row-major ids).
        let mut edges = Vec::new();
        for r in 0..3u32 {
            for c in 0..3u32 {
                if c + 1 < 3 {
                    edges.push((r * 3 + c, r * 3 + c + 1));
                }
                if r + 1 < 3 {
                    edges.push((r * 3 + c, (r + 1) * 3 + c));
                }
            }
        }
        let g = Graph::from_edges(9, edges).unwrap();
        // Clockwise geometric order: up, right, down, left.
        let rot = RotationSystem::new(
            &g,
            (0..9u32)
                .map(|v| {
                    let (r, c) = (v / 3, v % 3);
                    let mut order = Vec::new();
                    if r > 0 {
                        order.push(VertexId(v - 3));
                    }
                    if c + 1 < 3 {
                        order.push(VertexId(v + 1));
                    }
                    if r + 1 < 3 {
                        order.push(VertexId(v + 3));
                    }
                    if c > 0 {
                        order.push(VertexId(v - 1));
                    }
                    order
                })
                .collect(),
        )
        .unwrap();
        assert!(rot.is_planar_embedding());
        (g, rot)
    }

    #[test]
    fn root_counters_match_component_totals() {
        let (g, rot) = grid3();
        let certs = build_certificates(&g, &rot).unwrap();
        let root = &certs[8]; // max id
        assert_eq!(root.parent, None);
        assert_eq!(root.depth, 0);
        assert_eq!(root.root, VertexId(8));
        assert_eq!(root.sub_vertices, 9);
        assert_eq!(root.sub_arcs, 2 * g.edge_count() as u64);
        assert_eq!(root.sub_faces, rot.face_count() as u64);
        // Euler: f = m - n + 2.
        assert_eq!(
            root.sub_faces as i64,
            g.edge_count() as i64 - 9 + 2,
            "grid rotation is planar"
        );
    }

    #[test]
    fn labels_are_orbit_minima_in_rotation_order() {
        let (g, rot) = grid3();
        let certs = build_certificates(&g, &rot).unwrap();
        let faces = rot.faces();
        for v in g.vertices() {
            let order = rot.order_at(v);
            assert_eq!(certs[v.index()].labels.len(), order.len());
            for (p, &w) in order.iter().enumerate() {
                let face = faces.iter().find(|f| f.contains(&(v, w))).unwrap();
                let min = face.iter().min().unwrap();
                assert_eq!(certs[v.index()].labels[p], *min);
            }
        }
        // Root counters sum the leaders of the whole component: the total
        // over all roots is exactly the number of faces.
        let total: u64 = certs
            .iter()
            .filter(|c| c.parent.is_none())
            .map(|c| c.sub_faces)
            .sum();
        assert_eq!(total, faces.len() as u64);
    }

    #[test]
    fn disconnected_components_get_separate_roots() {
        let g = Graph::from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).unwrap();
        let rot = RotationSystem::sorted_default(&g);
        let certs = build_certificates(&g, &rot).unwrap();
        assert_eq!(certs[0].root, VertexId(2));
        assert_eq!(certs[4].root, VertexId(5));
        // Vertex 6 is isolated: its own root, empty subtree counters.
        assert_eq!(certs[6].root, VertexId(6));
        assert_eq!(
            (certs[6].sub_vertices, certs[6].sub_arcs, certs[6].sub_faces),
            (1, 0, 0)
        );
        assert!(certs[6].labels.is_empty());
    }

    #[test]
    fn certificate_size_is_linear_in_degree() {
        let (g, rot) = grid3();
        let certs = build_certificates(&g, &rot).unwrap();
        for v in g.vertices() {
            let c = &certs[v.index()];
            assert!(c.words() <= 10 + 2 * g.degree(v), "cert too large: {c:?}");
        }
    }

    #[test]
    fn with_tree_accepts_own_forest_and_rejects_bad_ones() {
        let (g, rot) = grid3();
        let base = build_certificates(&g, &rot).unwrap();
        let parent: Vec<Option<VertexId>> = base.iter().map(|c| c.parent).collect();
        let depth: Vec<u32> = base.iter().map(|c| c.depth).collect();
        let again = build_certificates_with_tree(&g, &rot, &parent, &depth).unwrap();
        assert_eq!(base, again);

        // Parent that is not a neighbor.
        let mut bad = parent.clone();
        bad[0] = Some(VertexId(8));
        assert!(matches!(
            build_certificates_with_tree(&g, &rot, &bad, &depth),
            Err(CertError::BadInput(_))
        ));
        // Depth that skips a level.
        let mut bad_depth = depth.clone();
        bad_depth[0] += 1;
        assert!(matches!(
            build_certificates_with_tree(&g, &rot, &parent, &bad_depth),
            Err(CertError::BadInput(_))
        ));
        // Two roots in one component (cut the tree).
        let mut two_roots = parent.clone();
        let orphan = (0..9).find(|&v| parent[v].is_some()).unwrap();
        two_roots[orphan] = None;
        let mut orphan_depth = depth.clone();
        orphan_depth[orphan] = 0;
        assert!(matches!(
            build_certificates_with_tree(&g, &rot, &two_roots, &orphan_depth),
            Err(CertError::BadInput(_))
        ));
    }

    #[test]
    fn rotation_graph_mismatch_is_rejected() {
        let (g, _) = grid3();
        let other = Graph::from_edges(9, [(0, 1)]).unwrap();
        let rot = RotationSystem::sorted_default(&other);
        assert!(matches!(
            build_certificates(&g, &rot),
            Err(CertError::BadInput(_))
        ));
    }
}
