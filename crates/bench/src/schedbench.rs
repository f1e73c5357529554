//! Scheduler sweep: host-side cost of the level-synchronous scheduler vs
//! the sequential oracle — the record behind `BENCH_sched.json`.
//!
//! For each substrate (`grid`, `tri-grid`) × size, one cell times
//! [`embed_recursion_with_memory`] — the distributed pipeline (setup + the
//! partition/merge recursion), the unit the scheduler actually controls —
//! under [`Scheduler::Sequential`] (one instance-scoped kernel invocation
//! per subproblem phase) and under [`Scheduler::LevelSync`] (all same-level
//! subproblems partitioned in a single batched invocation over a shared
//! [`SimSession`] arena), asserts the two runs' metrics and statistics
//! are bit-identical, and reports the wall-time speedup. Timing
//! `embed_distributed` instead would let the scheduler-independent
//! centralized fidelity epilogue (see DESIGN.md) dominate large cells
//! and wash the comparison out; rotation-level conformance between the
//! schedulers is pinned separately by `core/tests/scheduler.rs`.
//!
//! The simulated CONGEST cost (`metrics.rounds`, the parallel-composed
//! count, and `stats.sequential_rounds`, the charged tally) is identical
//! by construction — the sweep records it once per cell as a cross-check.
//!
//! [`embed_recursion_with_memory`]: planar_embedding::embed_recursion_with_memory
//! [`Scheduler::Sequential`]: planar_embedding::Scheduler::Sequential
//! [`Scheduler::LevelSync`]: planar_embedding::Scheduler::LevelSync
//! [`SimSession`]: congest_sim::SimSession

use congest_sim::Metrics;
use planar_embedding::{embed_recursion_with_memory, EmbedderConfig, RecursionStats, Scheduler};
use planar_lib::gen;

use crate::record::{self, Fields, Json, Kind, Row};
use crate::timing::bench;

/// One cell of the scheduler sweep.
#[derive(Clone, Debug)]
pub struct SchedRow {
    /// Substrate family (`"grid"` or `"tri-grid"`).
    pub family: &'static str,
    /// Vertex count.
    pub n: usize,
    /// Timed iterations per scheduler (median is reported).
    pub iters: usize,
    /// Median wall time of the sequential (oracle) scheduler, seconds.
    pub sequential_secs: f64,
    /// Median wall time of the level-synchronous scheduler, seconds.
    pub level_sync_secs: f64,
    /// `sequential_secs / level_sync_secs`.
    pub speedup: f64,
    /// Parallel-composed simulated rounds (identical across schedulers).
    pub rounds: usize,
    /// Charged sequential round tally (identical across schedulers).
    pub sequential_rounds: usize,
    /// Whether metrics and recursion statistics were bit-identical
    /// (asserted — recorded for the JSON reader's benefit).
    pub outputs_identical: bool,
    /// Process peak RSS after this cell, bytes (0 = probe unavailable).
    /// Monotone across rows — the last cell of a sweep bounds the whole
    /// sweep; per-n deltas bound the marginal cost of a cell.
    pub peak_rss_bytes: usize,
}

impl Row for SchedRow {
    fn fields(&self) -> Fields {
        vec![
            ("family", self.family.into()),
            ("n", self.n.into()),
            ("iters", self.iters.into()),
            ("sequential_secs", self.sequential_secs.into()),
            ("level_sync_secs", self.level_sync_secs.into()),
            ("speedup", self.speedup.into()),
            ("rounds", self.rounds.into()),
            ("sequential_rounds", self.sequential_rounds.into()),
            ("outputs_identical", self.outputs_identical.into()),
            ("peak_rss_bytes", self.peak_rss_bytes.into()),
        ]
    }

    fn kind(name: &str) -> Kind {
        match name {
            "rounds" | "sequential_rounds" | "outputs_identical" => Kind::Deterministic,
            _ => Kind::Host,
        }
    }
}

fn substrate(family: &'static str, n: usize) -> planar_graph::Graph {
    let side = (n as f64).sqrt().round() as usize;
    match family {
        "grid" => gen::grid(side, side),
        "tri-grid" => gen::triangulated_grid(side, side),
        other => unreachable!("unknown sched substrate {other}"),
    }
}

fn config(scheduler: Scheduler) -> EmbedderConfig {
    EmbedderConfig {
        // Invariant checking is host-side quadratic-ish work outside the
        // scheduler's control. Off: the cell times the recursion itself.
        check_invariants: false,
        certify: false,
        scheduler,
        ..EmbedderConfig::default()
    }
}

/// Timed iterations for a cell of `n` vertices (the huge cells run the
/// sequential oracle for minutes; one timed pass is enough there).
fn iters_for(n: usize) -> usize {
    if n >= 40_000 {
        1
    } else if n >= 4096 {
        3
    } else {
        5
    }
}

/// Runs one substrate cell: validates and times the sequential oracle and
/// the level-synchronous scheduler.
///
/// # Panics
///
/// Panics if either scheduler fails, or if their metrics/statistics
/// differ (the conformance contract: a benchmark that compares divergent
/// computations would be meaningless).
pub fn sched_cell(family: &'static str, n: usize) -> SchedRow {
    let g = substrate(family, n);
    let run = |scheduler: Scheduler| -> (Metrics, RecursionStats) {
        let (metrics, stats, _kernel_bytes) =
            embed_recursion_with_memory(&g, &config(scheduler)).expect("sched cell must embed");
        (metrics, stats)
    };
    let (seq_metrics, seq_stats) = run(Scheduler::Sequential);
    let (lvl_metrics, lvl_stats) = run(Scheduler::LevelSync);
    let identical = seq_metrics == lvl_metrics && seq_stats == lvl_stats;
    assert!(identical, "sched cell {family}/n={n}: schedulers diverged");
    let iters = iters_for(n);
    let seq = bench(&format!("sched/{family}{n}/sequential"), iters, || {
        run(Scheduler::Sequential)
    });
    let lvl = bench(&format!("sched/{family}{n}/level-sync"), iters, || {
        run(Scheduler::LevelSync)
    });
    SchedRow {
        family,
        n,
        iters,
        sequential_secs: seq.median_secs(),
        level_sync_secs: lvl.median_secs(),
        speedup: seq.median_secs() / lvl.median_secs(),
        rounds: lvl_metrics.rounds,
        sequential_rounds: lvl_stats.sequential_rounds,
        outputs_identical: identical,
        peak_rss_bytes: crate::mem::peak_rss_bytes(),
    }
}

/// Runs the sweep (substrates × `sizes`), serially — timing cells must not
/// contend for cores the way the audited/correctness sweeps may.
pub fn sched_sweep(sizes: &[usize]) -> Vec<SchedRow> {
    let mut rows = Vec::new();
    for family in ["grid", "tri-grid"] {
        for &n in sizes {
            rows.push(sched_cell(family, n));
        }
    }
    rows
}

/// The `BENCH_sched.json` document. Cells of the `committed` record this
/// run did not measure (the `--large` sizes) stay as they were.
pub fn record(rows: &[SchedRow], committed: Option<&Json>) -> Json {
    Json::obj([
        ("benchmark", "scheduler".into()),
        (
            "metric",
            "host wall time of the distributed pipeline \
             (embed_recursion_with_memory: setup + partition/merge recursion) under \
             the level-synchronous scheduler vs the sequential oracle; metrics and \
             statistics asserted bit-identical per cell; simulated rounds are \
             scheduler-independent"
                .into(),
        ),
        ("cells", record::array_over(committed, "cells", rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_asserts_identity_and_times_both_schedulers() {
        let r = sched_cell("grid", 64);
        assert_eq!(r.iters, 5);
        assert!(r.outputs_identical);
        assert!(r.sequential_secs > 0.0 && r.level_sync_secs > 0.0);
        assert!(r.rounds > 0 && r.sequential_rounds >= r.rounds);
    }

    #[test]
    fn json_document_carries_every_cell_field() {
        let doc = record(&[sched_cell("tri-grid", 64)], None);
        assert_eq!(doc["benchmark"], Json::Str("scheduler".into()));
        let cell = &doc["cells"][0];
        assert_eq!(cell["outputs_identical"], Json::Bool(true));
        assert!(matches!(cell["speedup"], Json::F64(_)));
        assert!(matches!(cell["sequential_rounds"], Json::U64(_)));
    }

    /// The gate reads simulated rounds and the identity flag, never
    /// timings: one changed round fails it, a changed timing does not.
    #[test]
    fn drift_gates_rounds_not_timings() {
        let cell = sched_cell("grid", 64);
        let committed = |c: &SchedRow| {
            let doc = record(std::slice::from_ref(c), None);
            Json::parse(&doc.render()).unwrap()
        };
        let drift =
            |old: &SchedRow| record::drift(&committed(old), "cells", std::slice::from_ref(&cell));
        assert!(drift(&cell).is_empty());
        let mut slower = cell.clone();
        slower.level_sync_secs *= 2.0;
        slower.peak_rss_bytes += 1;
        assert!(drift(&slower).is_empty());
        let mut moved = cell.clone();
        moved.sequential_rounds += 1;
        let diffs = drift(&moved);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].starts_with("cells family=grid n=64: sequential_rounds"));
    }
}
