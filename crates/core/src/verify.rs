//! Output verification for downstream users: check that a rotation system
//! is a valid combinatorial planar embedding of a given network.

use planar_graph::{Graph, RotationSystem, VertexId};

use crate::error::EmbedError;

/// Verifies that `rotation` is a combinatorial planar embedding of `g`:
///
/// 1. the per-vertex orders are permutations of the actual neighbor sets;
/// 2. the traced surface has Euler genus 0 on every component (Edmonds'
///    criterion, the paper's \[Edm60\] equivalence).
///
/// # Errors
///
/// * [`EmbedError::Graph`] if the rotation does not match `g`'s adjacency;
/// * [`EmbedError::NonPlanar`] if the rotation has positive genus.
///
/// # Example
///
/// ```
/// use planar_embedding::{embed_distributed, verify_embedding, EmbedderConfig};
/// use planar_lib::gen;
///
/// # fn main() -> Result<(), planar_embedding::EmbedError> {
/// let g = gen::wheel(8);
/// let out = embed_distributed(&g, &EmbedderConfig::default())?;
/// verify_embedding(&g, &out.rotation)?;
/// # Ok(())
/// # }
/// ```
pub fn verify_embedding(g: &Graph, rotation: &RotationSystem) -> Result<(), EmbedError> {
    // Revalidate against the graph (catches mismatched vertex counts and
    // neighbor sets).
    let orders: Vec<_> = (0..rotation.vertex_count())
        .map(|v| {
            rotation
                .order_at(planar_graph::VertexId::from_index(v))
                .to_vec()
        })
        .collect();
    let revalidated = RotationSystem::new(g, orders).map_err(EmbedError::Graph)?;
    if revalidated.is_planar_embedding() {
        Ok(())
    } else {
        Err(EmbedError::NonPlanar)
    }
}

/// Verifies a rotation system against the subgraph of `g` induced by the
/// vertices *not* in `crashed` — the post-run self-check of fault-mode
/// embedding runs ([`EmbedError::Degraded`] semantics).
///
/// The surviving vertices are compacted to `0..k` (in increasing original
/// id), each survivor's cyclic order is restricted to surviving neighbors
/// (restriction of a planar rotation to an induced subgraph preserves
/// genus 0), and the result is checked exactly as [`verify_embedding`].
/// With `crashed` empty this *is* [`verify_embedding`].
///
/// # Errors
///
/// * [`EmbedError::Graph`] if the restricted rotation does not match the
///   induced subgraph's adjacency;
/// * [`EmbedError::NonPlanar`] if the restricted rotation has positive
///   genus.
pub fn verify_surviving_embedding(
    g: &Graph,
    rotation: &RotationSystem,
    crashed: &[VertexId],
) -> Result<(), EmbedError> {
    if crashed.is_empty() {
        return verify_embedding(g, rotation);
    }
    let (_, restricted) = surviving_subgraph(g, rotation, crashed)?;
    if restricted.is_planar_embedding() {
        Ok(())
    } else {
        Err(EmbedError::NonPlanar)
    }
}

/// The subgraph of `g` induced by the vertices *not* in `crashed`, and
/// `rotation` restricted to it: survivors are compacted to `0..k` in
/// increasing original id, and each survivor's cyclic order is filtered
/// to surviving neighbors. Victims outside `g` are ignored, as the
/// kernels ignore them.
pub(crate) fn surviving_subgraph(
    g: &Graph,
    rotation: &RotationSystem,
    crashed: &[VertexId],
) -> Result<(Graph, RotationSystem), EmbedError> {
    let n = g.vertex_count();
    let mut alive = vec![true; n];
    for &v in crashed {
        if v.index() < n {
            alive[v.index()] = false;
        }
    }
    // Compact surviving ids.
    let mut remap = vec![usize::MAX; n];
    let mut survivors = Vec::new();
    for v in 0..n {
        if alive[v] {
            remap[v] = survivors.len();
            survivors.push(v);
        }
    }
    // Induced subgraph and the restricted rotation orders.
    let mut edges = Vec::new();
    for v in g.vertices() {
        if !alive[v.index()] {
            continue;
        }
        for &w in g.neighbors(v) {
            if alive[w.index()] && v.0 < w.0 {
                edges.push((remap[v.index()] as u32, remap[w.index()] as u32));
            }
        }
    }
    let sub = Graph::from_edges(survivors.len(), edges).map_err(EmbedError::Graph)?;
    let orders: Vec<Vec<VertexId>> = survivors
        .iter()
        .map(|&v| {
            rotation
                .order_at(VertexId::from_index(v))
                .iter()
                .filter(|w| alive[w.index()])
                .map(|w| VertexId::from_index(remap[w.index()]))
                .collect()
        })
        .collect();
    let restricted = RotationSystem::new(&sub, orders).map_err(EmbedError::Graph)?;
    Ok((sub, restricted))
}

/// Distributed planarity *test*: runs the embedding algorithm and reports
/// whether the network is planar, rather than failing on non-planar inputs.
///
/// # Errors
///
/// Only structural errors remain errors ([`EmbedError::Disconnected`],
/// [`EmbedError::EmptyGraph`], internal failures); non-planarity is a
/// regular `Ok(false)`.
///
/// # Example
///
/// ```
/// use planar_embedding::{is_planar_distributed, EmbedderConfig};
/// use planar_lib::gen;
///
/// # fn main() -> Result<(), planar_embedding::EmbedError> {
/// assert!(is_planar_distributed(&gen::grid(4, 4), &EmbedderConfig::default())?);
/// assert!(!is_planar_distributed(&gen::complete(5), &EmbedderConfig::default())?);
/// # Ok(())
/// # }
/// ```
pub fn is_planar_distributed(g: &Graph, cfg: &crate::EmbedderConfig) -> Result<bool, EmbedError> {
    match crate::embed_distributed(g, cfg) {
        Ok(_) => Ok(true),
        Err(EmbedError::NonPlanar) => Ok(false),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{embed_distributed, EmbedderConfig};
    use planar_lib::gen;

    #[test]
    fn accepts_algorithm_output() {
        let g = gen::random_maximal_planar(20, 4);
        let out = embed_distributed(&g, &EmbedderConfig::default()).unwrap();
        verify_embedding(&g, &out.rotation).unwrap();
    }

    #[test]
    fn rejects_mismatched_graph() {
        let g = gen::cycle(6);
        let other = gen::path(6);
        let out = embed_distributed(&g, &EmbedderConfig::default()).unwrap();
        assert!(matches!(
            verify_embedding(&other, &out.rotation),
            Err(EmbedError::Graph(_))
        ));
    }

    #[test]
    fn rejects_nonplanar_rotation() {
        // The sorted-default rotation of K4 has genus 1.
        let g = gen::complete(4);
        let bad = RotationSystem::sorted_default(&g);
        assert!(matches!(
            verify_embedding(&g, &bad),
            Err(EmbedError::NonPlanar)
        ));
    }

    #[test]
    fn planarity_test_semantics() {
        let cfg = EmbedderConfig::default();
        assert!(is_planar_distributed(&gen::theta(3, 4), &cfg).unwrap());
        assert!(!is_planar_distributed(&gen::complete(6), &cfg).unwrap());
        assert!(
            is_planar_distributed(&Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap(), &cfg).is_err()
        );
    }
}
