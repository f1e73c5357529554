//! Certificate splicing: carry unchanged per-node certificates across an
//! incremental re-embedding instead of re-distributing the full set.
//!
//! When an edge delta re-embeds a resident graph, most nodes end up with
//! the *same* certificate as before — face labels are lexicographic orbit
//! minima, so faces untouched by the delta keep their labels, and the
//! spanning-forest counters of nodes far from the delta's certification
//! forest path are unchanged. [`splice_certificates`] exploits this: it
//! takes the resident (old) certificate set and a freshly built scratch
//! set for the new rotation, and assembles the output by *keeping the old
//! certificate object wherever it equals the scratch one*, replacing only
//! the certificates that actually changed.
//!
//! Two properties make this sound and useful:
//!
//! * **Equality to scratch by construction** — every output entry is
//!   `==` the scratch entry for that node (either it *is* the scratch
//!   entry, or it is an old entry that compares equal), so the spliced set
//!   is bit-identical to what a from-scratch certification would
//!   distribute, and the distributed verifier's verdict on it is the
//!   from-scratch verdict. The incremental path therefore never weakens
//!   the proof-labeling scheme.
//! * **Re-distribution accounting** — in the distributed reading, only
//!   *rebuilt* certificates must be shipped to their nodes; nodes whose
//!   certificate is reused already hold it. [`SpliceStats`] reports how
//!   many certificates (and how many `O(Δ log n)`-bit words) the splice
//!   avoided re-distributing — the measured locality of the delta.
//!
//! The scratch build itself is a cheap host-side `O(n + m)` pass
//! ([`build_certificates`](crate::build_certificates)); what splicing
//! saves is the per-node re-distribution, and what the incremental driver
//! saves independently is the kernel re-simulation of clean recursion
//! subtrees.

use crate::certificate::Certificate;

/// Outcome accounting of one [`splice_certificates`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpliceStats {
    /// Nodes whose resident certificate survived the delta unchanged
    /// (no re-distribution needed).
    pub reused: usize,
    /// Nodes whose certificate changed and must be re-shipped.
    pub rebuilt: usize,
    /// Total certificate words *not* re-distributed thanks to reuse
    /// (the sum of [`Certificate::words`] over reused nodes).
    pub words_reused: u64,
}

/// Splices a resident certificate set with a freshly built scratch set:
/// per node, keeps the old certificate when it equals the new one and
/// adopts the scratch certificate otherwise. Returns the spliced set —
/// element-wise equal to `scratch` by construction — plus reuse
/// accounting.
///
/// `old` and `scratch` may have different lengths (a node delta changes
/// the vertex count); nodes beyond the old set's length are always
/// rebuilt.
pub fn splice_certificates(
    old: &[Certificate],
    scratch: Vec<Certificate>,
) -> (Vec<Certificate>, SpliceStats) {
    let mut stats = SpliceStats::default();
    let spliced = scratch
        .into_iter()
        .enumerate()
        .map(|(i, fresh)| match old.get(i) {
            Some(resident) if *resident == fresh => {
                stats.reused += 1;
                stats.words_reused += resident.words() as u64;
                resident.clone()
            }
            _ => {
                stats.rebuilt += 1;
                fresh
            }
        })
        .collect();
    (spliced, stats)
}

/// [`splice_certificates`] for a *departure* delta: the resident graph
/// lost vertex `removed`, so resident ids above it shifted down by one in
/// the new graph. Scratch certificate `i` is compared against resident
/// certificate `i` below the removal point and `i + 1` at or above it —
/// nodes whose certificate content survived the renumbering (faces and
/// counters away from the departed vertex) still splice, which a naive
/// index-aligned comparison would miss for every id above `removed`.
pub fn splice_certificates_shifted(
    old: &[Certificate],
    scratch: Vec<Certificate>,
    removed: usize,
) -> (Vec<Certificate>, SpliceStats) {
    let mut stats = SpliceStats::default();
    let spliced = scratch
        .into_iter()
        .enumerate()
        .map(|(i, fresh)| {
            let old_index = if i < removed { i } else { i + 1 };
            match old.get(old_index) {
                Some(resident) if *resident == fresh => {
                    stats.reused += 1;
                    stats.words_reused += resident.words() as u64;
                    resident.clone()
                }
                _ => {
                    stats.rebuilt += 1;
                    fresh
                }
            }
        })
        .collect();
    (spliced, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_certificates;
    use planar_graph::VertexId;
    use planar_lib::{embed, gen};

    #[test]
    fn splice_against_identical_set_reuses_everything() {
        let g = gen::grid(4, 4);
        let rot = embed(&g).unwrap();
        let old = build_certificates(&g, &rot).unwrap();
        let scratch = build_certificates(&g, &rot).unwrap();
        let (spliced, stats) = splice_certificates(&old, scratch.clone());
        assert_eq!(spliced, scratch);
        assert_eq!(stats.reused, g.vertex_count());
        assert_eq!(stats.rebuilt, 0);
        assert!(stats.words_reused > 0);
    }

    #[test]
    fn splice_after_edge_delta_equals_scratch_and_reuses_far_nodes() {
        let mut g = gen::grid(5, 5);
        let rot_old = embed(&g).unwrap();
        let old = build_certificates(&g, &rot_old).unwrap();
        // Delete one corner-adjacent grid edge; the far side of the grid
        // keeps its faces.
        g.remove_edge(VertexId(0), VertexId(1)).unwrap();
        let rot_new = embed(&g).unwrap();
        let scratch = build_certificates(&g, &rot_new).unwrap();
        let (spliced, stats) = splice_certificates(&old, scratch.clone());
        assert_eq!(spliced, scratch, "spliced set must be scratch-identical");
        assert_eq!(stats.reused + stats.rebuilt, g.vertex_count());
        assert!(stats.rebuilt > 0, "the delta must touch some certificate");
    }

    #[test]
    fn splice_handles_vertex_count_changes() {
        let g_old = gen::path(4);
        let g_new = gen::path(6);
        let old = build_certificates(&g_old, &embed(&g_old).unwrap()).unwrap();
        let scratch = build_certificates(&g_new, &embed(&g_new).unwrap()).unwrap();
        let (spliced, stats) = splice_certificates(&old, scratch.clone());
        assert_eq!(spliced, scratch);
        assert_eq!(stats.reused + stats.rebuilt, 6);
    }
}
