//! Trace sweep: the full embedding pipeline under the trace auditor — the
//! record behind `BENCH_trace.json`.
//!
//! For each substrate (`grid`, `tri-grid`) × size × mode (fault-free,
//! faulty with reliable delivery), one full `embed_distributed` run
//! (certification on) executes with an [`AuditSink`] attached: every
//! kernel segment's event stream is replayed, its `Metrics` are
//! independently recomputed, and any drift against the kernel-reported
//! numbers **panics the sweep** — the CI trace job is a conformance gate,
//! not just a profiler.
//!
//! Reported per cell: the audited segment counts, the recomputed traffic
//! totals, the per-phase round breakdown, and the full per-round profile
//! (messages / words / max-edge-words for every delivering round of every
//! kernel segment, in stream order).

use congest_sim::{AuditSink, FaultPlan, RoundProfile, SimConfig, TraceHandle};
use planar_embedding::{embed_distributed, EmbedError, EmbedderConfig, ReliableConfig};
use planar_lib::gen;

use crate::parallel::par_map;
use crate::record::{self, Fields, Json, Row};

/// Drop rate of the faulty cells (duplicate = rate/2, delay = rate, max
/// delay 3 rounds) — the mid rate of the chaos sweep.
pub const FAULT_RATE: f64 = 0.03;

/// One audited cell of the trace sweep.
#[derive(Clone, Debug)]
pub struct TraceRow {
    /// Substrate family (`"grid"` or `"tri-grid"`).
    pub family: &'static str,
    /// Vertex count.
    pub n: usize,
    /// Whether this cell ran under the seeded fault plan + reliability.
    pub faulty: bool,
    /// `"ok"` or `"degraded"` (any other outcome panics the sweep).
    pub outcome: &'static str,
    /// Kernel segments completed and audited.
    pub segments: usize,
    /// Segments that aborted (watchdog) — profiled but not diffed.
    pub aborted_segments: usize,
    /// Auditor-recomputed sequential round total across segments.
    pub rounds: usize,
    /// Auditor-recomputed delivered messages.
    pub messages: usize,
    /// Auditor-recomputed delivered words.
    pub words: usize,
    /// Messages dropped by the fault plan (recomputed).
    pub dropped: usize,
    /// Reliable-wrapper retransmissions (from the post-run trace events).
    pub retransmissions: usize,
    /// Rounds simulated per driver phase, aggregated from the profile.
    pub phases: Vec<(&'static str, usize)>,
    /// Per-round rows across all segments, in stream order.
    pub profile: Vec<RoundProfile>,
}

impl Row for TraceRow {
    fn fields(&self) -> Fields {
        let phases = self.phases.iter().map(|&(p, r)| (p, r.into()));
        let profile = self.profile.iter().map(|p| {
            let cols = [p.segment, p.round, p.messages, p.words, p.max_words_edge];
            Json::Arr(
                [p.phase.into()]
                    .into_iter()
                    .chain(cols.map(Json::from))
                    .collect(),
            )
        });
        vec![
            ("family", self.family.into()),
            ("n", self.n.into()),
            ("faulty", self.faulty.into()),
            ("outcome", self.outcome.into()),
            ("segments", self.segments.into()),
            ("aborted_segments", self.aborted_segments.into()),
            ("rounds", self.rounds.into()),
            ("messages", self.messages.into()),
            ("words", self.words.into()),
            ("dropped", self.dropped.into()),
            ("retransmissions", self.retransmissions.into()),
            ("phase_rounds", Json::obj(phases)),
            ("profile", Json::Arr(profile.collect())),
        ]
    }
}

fn substrate(family: &'static str, n: usize) -> planar_graph::Graph {
    let side = (n as f64).sqrt().round() as usize;
    match family {
        "grid" => gen::grid(side, side),
        "tri-grid" => gen::triangulated_grid(side, side),
        other => unreachable!("unknown trace substrate {other}"),
    }
}

/// Runs one audited cell.
///
/// # Panics
///
/// Panics if the trace audit finds any accounting drift, or if the run
/// ends in something other than a verified embedding or a typed
/// [`EmbedError::Degraded`].
pub fn trace_cell(family: &'static str, n: usize, faulty: bool) -> TraceRow {
    let g = substrate(family, n);
    let audit = AuditSink::new();
    let cfg = EmbedderConfig {
        sim: SimConfig {
            faults: if faulty {
                FaultPlan::uniform(42, FAULT_RATE, FAULT_RATE / 2.0, FAULT_RATE, 3)
            } else {
                FaultPlan::default()
            },
            trace: TraceHandle::to(audit.clone()),
            ..SimConfig::default()
        },
        check_invariants: false,
        reliability: faulty.then(ReliableConfig::default),
        certify: true,
        ..EmbedderConfig::default()
    };
    let outcome = match embed_distributed(&g, &cfg) {
        Ok(out) => {
            assert!(
                out.certification.is_some_and(|c| c.accepted()),
                "trace cell {family}/n={n}: certification must accept"
            );
            "ok"
        }
        Err(EmbedError::Degraded { .. }) => "degraded",
        Err(other) => panic!("trace cell {family}/n={n}/faulty={faulty}: {other}"),
    };
    let report = audit.report();
    assert!(
        report.mismatches.is_empty(),
        "trace cell {family}/n={n}/faulty={faulty}: accounting drift: {:?}",
        report.mismatches
    );
    TraceRow {
        family,
        n,
        faulty,
        outcome,
        segments: report.segments,
        aborted_segments: report.aborted_segments,
        rounds: report.totals.rounds,
        messages: report.totals.messages,
        words: report.totals.words,
        dropped: report.totals.dropped,
        retransmissions: report.totals.retransmissions,
        phases: report.phase_rounds(),
        profile: report.profile,
    }
}

/// Runs the full sweep (substrates × `sizes` × fault-free/faulty) through
/// [`par_map`]. Deterministic.
pub fn trace_sweep(sizes: &[usize]) -> Vec<TraceRow> {
    let cells: Vec<(&'static str, usize, bool)> = ["grid", "tri-grid"]
        .into_iter()
        .flat_map(|family| {
            sizes
                .iter()
                .flat_map(move |&n| [false, true].map(|faulty| (family, n, faulty)))
        })
        .collect();
    par_map(cells, |(family, n, faulty)| trace_cell(family, n, faulty))
}

/// The `BENCH_trace.json` document.
pub fn record(rows: &[TraceRow]) -> Json {
    let columns = "phase segment round messages words max_words_edge".split(' ');
    Json::obj([
        ("benchmark", "embedding-trace".into()),
        (
            "metric",
            "audited per-round profile of the full embedding pipeline; \
             every cell's kernel metrics verified against an independent recomputation \
             from its trace"
                .into(),
        ),
        ("cells", record::array(rows)),
        (
            "profile_columns",
            Json::Arr(columns.map(Json::from).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_cell_audits_clean_and_profiles_every_round() {
        let r = trace_cell("grid", 64, false);
        assert_eq!(r.outcome, "ok");
        assert_eq!(r.aborted_segments, 0);
        assert!(r.segments > 0);
        assert_eq!(
            r.profile.len(),
            r.rounds,
            "one profile row per delivering round"
        );
        assert_eq!(r.retransmissions, 0);
        assert_eq!(r.dropped, 0);
        let total: usize = r.phases.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, r.rounds, "every profiled round carries a phase");
        assert!(
            r.phases.iter().any(|&(p, _)| p == "cert"),
            "certification rounds must be attributed: {:?}",
            r.phases
        );
    }

    #[test]
    fn faulty_cell_audits_clean_with_wrapper_traffic() {
        let r = trace_cell("tri-grid", 64, true);
        assert!(r.outcome == "ok" || r.outcome == "degraded");
        assert!(r.dropped > 0, "seeded faults must drop something");
    }

    #[test]
    fn json_record_carries_phases_and_profile() {
        let row = trace_cell("grid", 64, false);
        let doc = record(std::slice::from_ref(&row));
        let cell = &doc["cells"][0];
        assert_eq!(cell["rounds"], Json::U64(row.rounds as u64));
        assert!(matches!(cell["phase_rounds"]["cert"], Json::U64(_)));
        let Json::Arr(profile) = &cell["profile"] else {
            panic!("profile must be an array");
        };
        assert_eq!(profile.len(), row.profile.len());
        assert_eq!(profile[0][0], Json::Str(row.profile[0].phase.into()));
        assert!(matches!(doc["profile_columns"][5], Json::Str(_)));
    }
}
