//! Certification sweep: cost of the proof-labeling layer — the record
//! behind `BENCH_cert.json`.
//!
//! For each substrate (`grid`, `tri-grid`, `outerplanar`, `random-planar`)
//! × size, the sweep embeds the graph with the distributed certification
//! epilogue enabled and records what the layer costs on top of the
//! embedding:
//!
//! * **certificate size** — max and mean per-node certificate in words
//!   (the `O(Δ log n)` bits claim: at most `10 + 2·Δ(v)` words per node),
//! * **verification cost** — verifier rounds (O(1): 2 fault-free) and
//!   total words moved by the one-exchange verification,
//! * **soundness spot-check** — one seeded mutation per
//!   [`MutationClass`](planar_cert::MutationClass) must draw at least one
//!   rejecting node (counted in `mutations_rejected`, compared against
//!   `mutations_applied`).
//!
//! Everything is seeded from the row coordinates: repeat sweeps return
//! identical rows (timings are deliberately not recorded).

use congest_sim::SimConfig;
use planar_cert::{apply_mutation, mutation_classes, verify_orders_with};
use planar_embedding::{embed_distributed, EmbedderConfig};
use planar_graph::Graph;
use planar_lib::gen;

use crate::parallel::par_map;
use crate::record::{self, Fields, Json, Row};

/// Substrate families swept.
pub const FAMILIES: [&str; 4] = ["grid", "tri-grid", "outerplanar", "random-planar"];

/// One row of the certification sweep: a substrate × size cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CertRow {
    /// Substrate family.
    pub family: &'static str,
    /// Vertex count of the generated instance.
    pub n: usize,
    /// Maximum vertex degree (the Δ of the per-node size bound).
    pub max_degree: usize,
    /// Embedding rounds (without the certification phase).
    pub embed_rounds: usize,
    /// Verifier rounds (the O(1) claim; 2 on every non-trivial instance).
    pub cert_rounds: usize,
    /// Largest per-node certificate, in words.
    pub max_cert_words: usize,
    /// Mean per-node certificate size, in words.
    pub mean_cert_words: f64,
    /// Total words moved by the verification exchange.
    pub verify_words: usize,
    /// Whether every node accepted the honest certificates.
    pub accepted: bool,
    /// Whether `max_cert_words <= 10 + 2·Δ` held (the size bound).
    pub size_bound_ok: bool,
    /// Seeded mutations applied (one per class with a valid site).
    pub mutations_applied: usize,
    /// Mutations that drew at least one rejecting node (must equal
    /// `mutations_applied`).
    pub mutations_rejected: usize,
}

impl Row for CertRow {
    fn fields(&self) -> Fields {
        vec![
            ("family", self.family.into()),
            ("n", self.n.into()),
            ("max_degree", self.max_degree.into()),
            ("embed_rounds", self.embed_rounds.into()),
            ("cert_rounds", self.cert_rounds.into()),
            ("max_cert_words", self.max_cert_words.into()),
            ("mean_cert_words", self.mean_cert_words.into()),
            ("verify_words", self.verify_words.into()),
            ("accepted", self.accepted.into()),
            ("size_bound_ok", self.size_bound_ok.into()),
            ("mutations_applied", self.mutations_applied.into()),
            ("mutations_rejected", self.mutations_rejected.into()),
        ]
    }
}

fn substrate(family: &'static str, n: usize) -> Graph {
    let side = (n as f64).sqrt().round() as usize;
    match family {
        "grid" => gen::grid(side, side),
        "tri-grid" => gen::triangulated_grid(side, side),
        "outerplanar" => gen::random_outerplanar(n, 0xC0FF_EE00 ^ n as u64),
        "random-planar" => gen::random_planar(n, 2 * n, 0xBEEF_0000 ^ n as u64),
        other => unreachable!("unknown cert substrate {other}"),
    }
}

/// Deterministic per-mutation seed from the row coordinates.
fn mutation_seed(fam_idx: usize, n: usize, class_idx: usize) -> u64 {
    0x9E37_79B9_7F4A_7C15u64
        .wrapping_mul(fam_idx as u64 + 1)
        .wrapping_add((n as u64) << 16)
        .wrapping_add(class_idx as u64)
}

/// Runs one certification cell: certified embedding plus the per-class
/// mutation spot-check.
///
/// # Panics
///
/// Panics if the substrate fails to embed or certify — honest inputs must
/// be accepted (completeness), and every applied mutation must be
/// rejected (soundness).
pub fn cert_cell(family: &'static str, fam_idx: usize, n: usize) -> CertRow {
    let g = substrate(family, n);
    let cfg = EmbedderConfig {
        check_invariants: false,
        certify: true,
        ..EmbedderConfig::default()
    };
    let out = embed_distributed(&g, &cfg).expect("substrate embeds");
    let cert = out
        .certification
        .as_ref()
        .expect("certification was requested");
    assert!(
        cert.accepted(),
        "honest certificates rejected on {family}/n={n}: {:?}",
        cert.report.rejections
    );

    let max_degree = g
        .vertices()
        .map(|v| g.neighbors(v).len())
        .max()
        .unwrap_or(0);
    let total: usize = cert.report.total_cert_words;
    let mean_cert_words = total as f64 / g.vertex_count() as f64;

    // Soundness spot-check: one seeded mutation per class (classes with no
    // site on this substrate are skipped, not counted).
    let rot = &out.rotation;
    let mut mutations_applied = 0;
    let mut mutations_rejected = 0;
    for (class_idx, class) in mutation_classes().into_iter().enumerate() {
        let seed = mutation_seed(fam_idx, n, class_idx);
        let Some((orders, mcerts, _)) = apply_mutation(&g, rot, &cert.certificates, class, seed)
        else {
            continue;
        };
        mutations_applied += 1;
        let report = verify_orders_with(&g, &orders, &mcerts, |programs| {
            congest_sim::run(&g, programs, &SimConfig::default())
        })
        .expect("verifier runs");
        if !report.accepted && !report.rejections.is_empty() {
            mutations_rejected += 1;
        }
    }

    CertRow {
        family,
        n: g.vertex_count(),
        max_degree,
        embed_rounds: out.metrics.rounds - cert.report.metrics.rounds,
        cert_rounds: cert.report.metrics.rounds,
        max_cert_words: cert.report.max_cert_words,
        mean_cert_words,
        verify_words: cert.report.metrics.words,
        accepted: cert.accepted(),
        size_bound_ok: cert.report.max_cert_words <= 10 + 2 * max_degree,
        mutations_applied,
        mutations_rejected,
    }
}

/// Runs the full sweep (`FAMILIES` × `sizes`), fanning the cells out
/// through [`par_map`]. Deterministic: repeat calls return identical rows.
pub fn cert_sweep(sizes: &[usize]) -> Vec<CertRow> {
    let cells: Vec<(&'static str, usize, usize)> = FAMILIES
        .into_iter()
        .enumerate()
        .flat_map(|(fam_idx, family)| sizes.iter().map(move |&n| (family, fam_idx, n)))
        .collect();
    par_map(cells, |(family, fam_idx, n)| cert_cell(family, fam_idx, n))
}

/// The `BENCH_cert.json` document.
pub fn record(rows: &[CertRow]) -> Json {
    Json::obj([
        ("benchmark", "embedding-certification".into()),
        (
            "metric",
            "per-node certificate size (words, <= 10 + 2*deg) and O(1)-round \
             distributed verification cost; per-class mutation soundness spot-check"
                .into(),
        ),
        ("cells", record::array(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cert_cell_is_deterministic_and_sound() {
        let a = cert_cell("grid", 0, 64);
        let b = cert_cell("grid", 0, 64);
        assert_eq!(a, b, "cert cells must replay identically");
        assert!(a.accepted);
        assert!(a.size_bound_ok);
        assert_eq!(a.cert_rounds, 2, "verification must be O(1)");
        assert_eq!(
            a.mutations_rejected, a.mutations_applied,
            "every applied mutation must be rejected"
        );
        assert!(a.mutations_applied >= 6, "grid has sites for most classes");
    }

    #[test]
    fn all_families_certify() {
        for (fam_idx, family) in FAMILIES.into_iter().enumerate() {
            let r = cert_cell(family, fam_idx, 36);
            assert!(r.accepted, "{family}");
            assert!(r.size_bound_ok, "{family}");
            assert_eq!(r.mutations_rejected, r.mutations_applied, "{family}");
        }
    }

    #[test]
    fn json_record_carries_every_cell_field() {
        let doc = record(&[cert_cell("tri-grid", 1, 36)]);
        let cell = &doc["cells"][0];
        assert!(matches!(cell["max_cert_words"], Json::U64(_)));
        assert!(matches!(cell["mean_cert_words"], Json::F64(_)));
        assert!(matches!(cell["mutations_rejected"], Json::U64(_)));
        assert_eq!(cell["accepted"], Json::Bool(true));
    }
}
