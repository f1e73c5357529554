//! Chaos sweep: the embedding algorithm under seeded fault injection — the
//! record behind `BENCH_chaos.json`.
//!
//! For each substrate (`grid`, `tri-grid`) × size × fault rate, the sweep
//! runs several independently-seeded trials of the full distributed
//! embedding with per-link drop/duplicate/delay faults
//! ([`congest_sim::FaultPlan::uniform`]) and reliable delivery
//! ([`planar_embedding::ReliableConfig`]) switched on. Every trial must end
//! in either a verified embedding or a typed
//! [`EmbedError::Degraded`](planar_embedding::EmbedError) — any other
//! outcome (a hang would trip the watchdog; an untyped error) fails the
//! sweep with a panic.
//!
//! Reported per row: success rate, mean round overhead of successful runs
//! against the fault-free baseline on the same substrate, and the fault /
//! recovery counters. All trials are seeded deterministically from the row
//! coordinates, so the sweep is replayable and its rows are directly
//! comparable across machines (timings are deliberately not recorded).

use congest_sim::{AuditSink, FaultPlan, SimConfig, TraceHandle};
use planar_embedding::{embed_distributed, EmbedError, EmbedderConfig, ReliableConfig};
use planar_graph::Graph;
use planar_lib::gen;

use crate::parallel::par_map;
use crate::record::{self, Fields, Json, Row};

/// The drop rates swept (duplicate rate is half, delay rate is equal, max
/// delay 3 rounds). Rate 0.0 measures the pure overhead of the reliable
/// wrapper (sequence words + acks), isolating recovery cost from transport
/// cost.
pub const RATES: [f64; 4] = [0.0, 0.01, 0.03, 0.1];

/// Trials per row; seeds are `trial`-indexed, so rows are replayable.
pub const TRIALS: usize = 5;

/// One row of the chaos sweep: a substrate × fault-rate cell.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosRow {
    /// Substrate family (`"grid"` or `"tri-grid"`).
    pub family: &'static str,
    /// Vertex count.
    pub n: usize,
    /// Per-message drop probability (duplicate = rate/2, delay = rate).
    pub rate: f64,
    /// Independent seeded trials run.
    pub trials: usize,
    /// Trials that produced a verified embedding.
    pub successes: usize,
    /// Trials that ended in [`EmbedError::Degraded`].
    pub degraded: usize,
    /// Fault-free round count of the same substrate (the overhead
    /// denominator), run without the wrapper.
    pub baseline_rounds: usize,
    /// Mean over successful trials of `rounds / baseline_rounds`
    /// (0.0 when no trial succeeded).
    pub mean_round_overhead: f64,
    /// Total messages dropped across all trials.
    pub dropped: usize,
    /// Total retransmissions across all trials.
    pub retransmissions: usize,
}

impl Row for ChaosRow {
    fn fields(&self) -> Fields {
        vec![
            ("family", self.family.into()),
            ("n", self.n.into()),
            ("drop_rate", self.rate.into()),
            ("trials", self.trials.into()),
            ("successes", self.successes.into()),
            ("degraded", self.degraded.into()),
            (
                "success_rate",
                (self.successes as f64 / self.trials as f64).into(),
            ),
            ("baseline_rounds", self.baseline_rounds.into()),
            ("mean_round_overhead", self.mean_round_overhead.into()),
            ("dropped", self.dropped.into()),
            ("retransmissions", self.retransmissions.into()),
        ]
    }
}

fn substrate(family: &'static str, n: usize) -> Graph {
    let side = (n as f64).sqrt().round() as usize;
    match family {
        "grid" => gen::grid(side, side),
        "tri-grid" => gen::triangulated_grid(side, side),
        other => unreachable!("unknown chaos substrate {other}"),
    }
}

/// Deterministic per-trial plan seed from the row coordinates, via the
/// workspace's shared audited mixer ([`congest_sim::mix_seed`]): each
/// coordinate goes through a full splitmix64 finalization before being
/// mixed in, so distinct coordinate tuples map to distinct seeds. The old
/// local shift-and-add packing was collision-prone (coordinates could carry
/// into each other's bit ranges, e.g. `(rate_idx, trial) = (0, 256)` packed
/// the same as `(1, 0)`); the fixed mixer now lives in `congest_sim::faults`
/// so this sweep and the DST scenario engine derive sub-seeds identically.
fn trial_seed(fam_idx: usize, n: usize, rate_idx: usize, trial: usize) -> u64 {
    congest_sim::mix_seed(
        0,
        &[fam_idx as u64, n as u64, rate_idx as u64, trial as u64],
    )
}

/// Runs one chaos cell: `TRIALS` seeded faulty runs against the fault-free
/// baseline of the same substrate.
///
/// # Panics
///
/// Panics if any trial ends in something other than a verified embedding
/// or [`EmbedError::Degraded`] — the tentpole's graceful-degradation
/// contract.
pub fn chaos_cell(family: &'static str, fam_idx: usize, n: usize, rate_idx: usize) -> ChaosRow {
    let rate = RATES[rate_idx];
    let g = substrate(family, n);
    let baseline = embed_distributed(
        &g,
        &EmbedderConfig {
            check_invariants: false,
            ..EmbedderConfig::default()
        },
    )
    .expect("fault-free baseline embeds");
    let baseline_rounds = baseline.metrics.rounds.max(1);

    let mut successes = 0;
    let mut degraded = 0;
    let mut overhead_sum = 0.0;
    let mut dropped = 0;
    let mut retransmissions = 0;
    for trial in 0..TRIALS {
        // Every trial runs under the trace auditor: the kernel's reported
        // metrics must survive independent recomputation from the event
        // stream across the whole fault matrix.
        let audit = AuditSink::new();
        let cfg = EmbedderConfig {
            sim: SimConfig {
                faults: FaultPlan::uniform(
                    trial_seed(fam_idx, n, rate_idx, trial),
                    rate,
                    rate / 2.0,
                    rate,
                    3,
                ),
                trace: TraceHandle::to(audit.clone()),
                ..SimConfig::default()
            },
            check_invariants: false,
            reliability: Some(ReliableConfig::default()),
            ..EmbedderConfig::default()
        };
        let outcome = embed_distributed(&g, &cfg);
        assert!(
            audit.ok(),
            "chaos trial {family}/n={n}/rate={rate}/#{trial}: trace audit \
             found accounting drift: {:?}",
            audit.report().mismatches
        );
        match outcome {
            Ok(out) => {
                successes += 1;
                overhead_sum += out.metrics.rounds as f64 / baseline_rounds as f64;
                dropped += out.metrics.dropped;
                retransmissions += out.metrics.retransmissions;
            }
            Err(EmbedError::Degraded { .. }) => degraded += 1,
            Err(other) => panic!(
                "chaos trial {family}/n={n}/rate={rate}/#{trial} must end in \
                 success or Degraded, got: {other}"
            ),
        }
    }
    ChaosRow {
        family,
        n,
        rate,
        trials: TRIALS,
        successes,
        degraded,
        baseline_rounds,
        mean_round_overhead: if successes > 0 {
            overhead_sum / successes as f64
        } else {
            0.0
        },
        dropped,
        retransmissions,
    }
}

/// Runs the full sweep (`RATES` × substrates × `sizes`), fanning the cells
/// out through [`par_map`]. Deterministic: repeat calls return identical
/// rows.
pub fn chaos_sweep(sizes: &[usize]) -> Vec<ChaosRow> {
    let cells: Vec<(&'static str, usize, usize, usize)> = ["grid", "tri-grid"]
        .into_iter()
        .enumerate()
        .flat_map(|(fam_idx, family)| {
            sizes.iter().flat_map(move |&n| {
                (0..RATES.len()).map(move |rate_idx| (family, fam_idx, n, rate_idx))
            })
        })
        .collect();
    par_map(cells, |(family, fam_idx, n, rate_idx)| {
        chaos_cell(family, fam_idx, n, rate_idx)
    })
}

/// The `BENCH_chaos.json` document.
pub fn record(rows: &[ChaosRow]) -> Json {
    Json::obj([
        ("benchmark", "embedding-chaos".into()),
        (
            "metric",
            "success rate and round overhead under seeded link faults \
             (drop/duplicate/delay), reliable delivery on"
                .into(),
        ),
        ("trials_per_cell", TRIALS.into()),
        ("cells", record::array(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_cell_is_deterministic_and_total() {
        let a = chaos_cell("grid", 0, 64, 3); // rate 0.1, the nastiest cell
        let b = chaos_cell("grid", 0, 64, 3);
        assert_eq!(a, b, "chaos cells must replay identically");
        assert_eq!(a.successes + a.degraded, a.trials);
    }

    #[test]
    fn zero_rate_cell_always_succeeds() {
        let r = chaos_cell("tri-grid", 1, 64, 0);
        assert_eq!(r.successes, r.trials);
        assert_eq!(r.dropped, 0);
        assert_eq!(r.retransmissions, 0);
    }

    /// Satellite regression: the per-trial seeds must be collision-free
    /// over (far more than) the whole sweep grid. The pre-fix
    /// shift-and-add packing collided whenever one coordinate carried into
    /// another's bit range — `trial_seed(f, n, 0, 256) ==
    /// trial_seed(f, n, 1, 0)`.
    #[test]
    fn trial_seeds_are_collision_free_over_the_sweep_grid() {
        let mut seen = std::collections::HashSet::new();
        for fam_idx in 0..2 {
            for n in [64usize, 256, 1024, 4096, 16384] {
                for rate_idx in 0..8 {
                    for trial in 0..300 {
                        let s = trial_seed(fam_idx, n, rate_idx, trial);
                        assert!(
                            seen.insert(s),
                            "seed collision at ({fam_idx}, {n}, {rate_idx}, {trial})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn json_record_carries_every_cell_field() {
        let doc = record(&[chaos_cell("grid", 0, 64, 1)]);
        assert_eq!(doc["trials_per_cell"], Json::U64(TRIALS as u64));
        let cell = &doc["cells"][0];
        assert_eq!(cell["drop_rate"], Json::F64(RATES[1]));
        assert!(matches!(cell["success_rate"], Json::F64(_)));
        assert!(matches!(cell["mean_round_overhead"], Json::F64(_)));
        assert!(matches!(cell["retransmissions"], Json::U64(_)));
    }
}
