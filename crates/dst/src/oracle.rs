//! The oracle stack: everything one scenario run is checked against.
//!
//! A single [`check_scenario`] call runs the scenario's primary
//! configuration plus two shadow configurations, each with the trace
//! auditor armed, and cross-examines the results:
//!
//! 1. **Trace audit** — every run's kernel-reported [`Metrics`](congest_sim::Metrics) must
//!    survive independent recomputation from the event stream
//!    ([`congest_sim::AuditSink`]); drift is [`ViolationKind::AuditDrift`].
//! 2. **Terminal lattice** — the outcome class must be allowed for the
//!    scenario ([`OutcomeClass::allowed_on_planar_input`]): fault-free
//!    scenarios must embed, faulty ones may degrade but never fail with an
//!    internal error ([`ViolationKind::Lattice`]).
//! 3. **Centralized oracle** — a successful run's rotation must
//!    re-validate against the input graph, be genus 0, and agree with the
//!    centralized planarity check ([`ViolationKind::BadEmbedding`]).
//! 4. **Certification oracle** — certification artifacts must be present
//!    iff requested and accepted, and an independent fault-free
//!    re-certification of the rotation must accept
//!    ([`ViolationKind::Certification`]).
//! 5. **Shadow bit-identity** — the kernel-flipped shadow must agree
//!    *exactly* (rotation, metrics, stats,
//!    certification, full degraded fingerprint); the scheduler-flipped
//!    shadow must agree exactly on success and on everything except
//!    `rounds_used` when degraded ([`ViolationKind::Divergence`]). The
//!    equality tiers mirror the conformance contracts pinned in
//!    `core/tests/scheduler.rs`.

use congest_sim::AuditSink;
use planar_embedding::{
    certify_embedding, degraded_fingerprint, embed_distributed, verify_embedding, EmbedError,
    EmbedderConfig, EmbeddingOutcome, Kernel, OutcomeClass, Scheduler,
};
use planar_graph::Graph;
use planar_lib::is_planar;

use crate::artifact::outcome_digest;
use crate::scenario::Scenario;

/// The kind of contract a violation broke. Minimization reproduces *by
/// kind*: a shrunk scenario counts as reproducing iff it violates the same
/// kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViolationKind {
    /// The trace auditor's independent metrics recomputation disagreed
    /// with the kernel's own accounting.
    AuditDrift,
    /// The run terminated in a class the scenario does not allow.
    Lattice,
    /// A successful run's rotation failed centralized re-validation.
    BadEmbedding,
    /// Certification artifacts missing/unexpected/rejected, or the
    /// independent re-certification rejected the rotation.
    Certification,
    /// Two runs of the same scenario that must agree did not.
    Divergence,
    /// The service's incremental re-embedding disagreed with its full
    /// re-embed oracle under churn, or the churn pass failed internally.
    ChurnDivergence,
}

impl ViolationKind {
    /// Stable identifier for artifacts and log lines.
    pub fn code(self) -> &'static str {
        match self {
            ViolationKind::AuditDrift => "audit-drift",
            ViolationKind::Lattice => "lattice",
            ViolationKind::BadEmbedding => "bad-embedding",
            ViolationKind::Certification => "certification",
            ViolationKind::Divergence => "divergence",
            ViolationKind::ChurnDivergence => "churn-divergence",
        }
    }
}

/// One oracle violation: the kind, which shadow run surfaced it (`None`
/// for the primary), and a human-readable account.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Broken contract.
    pub kind: ViolationKind,
    /// Shadow label (`"kernel-flip"` or `"scheduler-flip"`)
    /// or `None` for the primary run.
    pub shadow: Option<&'static str>,
    /// What exactly disagreed.
    pub detail: String,
}

/// A compact, comparable summary of one run for artifacts.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSummary {
    /// Terminal class.
    pub class: OutcomeClass,
    /// Rounds consumed (successful runs) or charged (degraded runs);
    /// 0 for other errors.
    pub rounds: usize,
    /// Messages delivered (successful runs only; 0 otherwise).
    pub messages: usize,
    /// Messages discarded by fault injection (successful runs only).
    pub dropped: usize,
    /// Degraded fingerprint `(surviving, rounds, verified, cause)`, if
    /// degraded.
    pub degraded: Option<(usize, usize, bool, &'static str)>,
    /// Order-sensitive digest of the full result (rotation + metrics +
    /// certification verdicts), for artifact-level bit-identity checks.
    pub digest: u64,
}

impl RunSummary {
    fn of(result: &Result<EmbeddingOutcome, EmbedError>) -> RunSummary {
        let (rounds, messages, dropped) = match result {
            Ok(out) => (
                out.metrics.rounds,
                out.metrics.messages,
                out.metrics.dropped,
            ),
            Err(EmbedError::Degraded { rounds_used, .. }) => (*rounds_used, 0, 0),
            Err(_) => (0, 0, 0),
        };
        RunSummary {
            class: OutcomeClass::of(result),
            rounds,
            messages,
            dropped,
            degraded: degraded_fingerprint(result),
            digest: outcome_digest(result),
        }
    }
}

/// Outcome tally of the churn pass, when the scenario drew one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChurnSummary {
    /// Deltas the service applied (incremental + full fallbacks).
    pub applied: usize,
    /// Applied via the incremental path (affected-subtree re-run).
    pub incremental: usize,
    /// Applied incrementally as `DeltaClass::TreePreserving`.
    pub tree_preserving: usize,
    /// Applied incrementally as `DeltaClass::TreeRepairable`.
    pub tree_repairable: usize,
    /// Applied incrementally as `DeltaClass::VertexSetChange`.
    pub vertex_set: usize,
    /// Applied via a recorded full fallback (tree/vertex-set change).
    pub full_fallbacks: usize,
    /// Deltas rejected as planarity-breaking (gate or embedder).
    pub rejected_nonplanar: usize,
    /// Incremental-vs-full-oracle disagreements (must be 0; any nonzero
    /// value also appears as a [`ViolationKind::ChurnDivergence`]).
    pub divergences: usize,
}

/// Everything [`check_scenario`] learned about one scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioReport {
    /// The scenario as run (canary skew included, if armed).
    pub scenario: Scenario,
    /// Actual vertex count of the built graph.
    pub n: usize,
    /// Edge count of the built graph.
    pub edges: usize,
    /// The primary run.
    pub primary: RunSummary,
    /// The shadow runs, labeled.
    pub shadows: Vec<(&'static str, RunSummary)>,
    /// The churn pass tally, when the scenario drew churn deltas.
    pub churn: Option<ChurnSummary>,
    /// Every violation found, in oracle order. Empty means the scenario
    /// passed all checks.
    pub violations: Vec<Violation>,
}

impl ScenarioReport {
    /// Kind of the first (highest-priority) violation, if any — the kind
    /// the minimizer reproduces.
    pub fn first_violation(&self) -> Option<ViolationKind> {
        self.violations.first().map(|v| v.kind)
    }
}

fn run_once(
    sc: &Scenario,
    g: &Graph,
    kernel: Kernel,
    scheduler: Scheduler,
) -> (
    Result<EmbeddingOutcome, EmbedError>,
    std::sync::Arc<AuditSink>,
) {
    let audit = AuditSink::new();
    let mut cfg = sc.config(kernel, scheduler);
    cfg.sim.trace = congest_sim::TraceHandle::to(audit.clone());
    (embed_distributed(g, &cfg), audit)
}

/// Compares two runs of the same scenario. `strict_rounds` is true for
/// kernel flips (full bit-identity) and false for scheduler flips
/// (degraded runs legitimately charge different partial round tallies).
/// Returns a description of the first disagreement.
fn compare_runs(
    a: &Result<EmbeddingOutcome, EmbedError>,
    b: &Result<EmbeddingOutcome, EmbedError>,
    strict_rounds: bool,
) -> Option<String> {
    let (ca, cb) = (OutcomeClass::of(a), OutcomeClass::of(b));
    if ca != cb {
        return Some(format!("class {} vs {}", ca.code(), cb.code()));
    }
    match (a, b) {
        (Ok(oa), Ok(ob)) => {
            if oa.rotation != ob.rotation {
                Some("rotations differ".into())
            } else if oa.metrics != ob.metrics {
                Some(format!(
                    "metrics differ: {:?} vs {:?}",
                    oa.metrics, ob.metrics
                ))
            } else if oa.stats != ob.stats {
                Some("recursion stats differ".into())
            } else if oa.certification != ob.certification {
                Some("certification artifacts differ".into())
            } else {
                None
            }
        }
        (Err(_), Err(_)) => {
            let fa = degraded_fingerprint(a);
            let fb = degraded_fingerprint(b);
            match (fa, fb) {
                (Some(mut fa), Some(mut fb)) => {
                    if !strict_rounds {
                        fa.1 = 0;
                        fb.1 = 0;
                    }
                    if fa != fb {
                        Some(format!("degraded fingerprints differ: {fa:?} vs {fb:?}"))
                    } else {
                        None
                    }
                }
                // Same non-degraded class (e.g. both NonPlanar): agreed.
                _ => None,
            }
        }
        // Class equality above rules out Ok-vs-Err here.
        _ => None,
    }
}

/// Runs the full oracle stack over one scenario: primary + two shadows,
/// audited, lattice-checked, centrally re-validated, re-certified, and
/// cross-compared. Deterministic: the same scenario yields the same
/// report, byte for byte.
pub fn check_scenario(sc: &Scenario) -> ScenarioReport {
    let g = sc.build_graph();
    let n = g.vertex_count();
    let mut violations = Vec::new();

    let (primary, audit) = run_once(sc, &g, sc.kernel, sc.scheduler);
    audit_check(&audit, None, &mut violations);

    // Terminal lattice: the generator guarantees a connected planar input.
    let class = OutcomeClass::of(&primary);
    if !class.allowed_on_planar_input(sc.faulty()) {
        violations.push(Violation {
            kind: ViolationKind::Lattice,
            shadow: None,
            detail: format!(
                "class {} not allowed for a {} scenario on a planar input ({})",
                class.code(),
                if sc.faulty() { "faulty" } else { "fault-free" },
                describe(&primary),
            ),
        });
    }

    if let Ok(out) = &primary {
        // Centralized oracle: re-validate the rotation against the input
        // and against the centralized planarity check.
        if let Err(e) = verify_embedding(&g, &out.rotation) {
            violations.push(Violation {
                kind: ViolationKind::BadEmbedding,
                shadow: None,
                detail: format!("centralized re-validation rejected the rotation: {e}"),
            });
        } else if !out.rotation.is_planar_embedding() {
            violations.push(Violation {
                kind: ViolationKind::BadEmbedding,
                shadow: None,
                detail: "rotation is not genus 0".into(),
            });
        } else if !is_planar(&g) {
            violations.push(Violation {
                kind: ViolationKind::BadEmbedding,
                shadow: None,
                detail: "centralized check calls the embedded input non-planar".into(),
            });
        }

        // Certification oracle: artifacts present iff requested, accepted
        // when present, and an independent fault-free re-certification of
        // the rotation must accept.
        match (&out.certification, sc.certify) {
            (Some(cert), true) => {
                if !cert.accepted() {
                    violations.push(Violation {
                        kind: ViolationKind::Certification,
                        shadow: None,
                        detail: format!(
                            "in-run certification rejected a successful embedding \
                             ({} rejections, {} incomplete)",
                            cert.report.rejections.len(),
                            cert.report.incomplete.len()
                        ),
                    });
                }
            }
            (None, true) => violations.push(Violation {
                kind: ViolationKind::Certification,
                shadow: None,
                detail: "certification requested but missing from the outcome".into(),
            }),
            (Some(_), false) => violations.push(Violation {
                kind: ViolationKind::Certification,
                shadow: None,
                detail: "certification present although never requested".into(),
            }),
            (None, false) => {}
        }
        let clean = EmbedderConfig {
            check_invariants: false,
            kernel: sc.kernel,
            ..EmbedderConfig::default()
        };
        match certify_embedding(&g, &out.rotation, &clean) {
            Ok(cert) if cert.accepted() => {}
            Ok(cert) => violations.push(Violation {
                kind: ViolationKind::Certification,
                shadow: None,
                detail: format!(
                    "independent fault-free re-certification rejected the rotation \
                     ({} rejections)",
                    cert.report.rejections.len()
                ),
            }),
            Err(e) => violations.push(Violation {
                kind: ViolationKind::Certification,
                shadow: None,
                detail: format!("independent re-certification aborted: {e}"),
            }),
        }
    }

    // Shadow runs. Kernel flip demands full bit-identity
    // (the PR 1/2 conformance contract: states, metrics, and errors equal;
    // fault schedules replay identically on both kernels). Scheduler flip
    // relaxes only the degraded round tally.
    let flip_kernel = match sc.kernel {
        Kernel::Fast => Kernel::Reference,
        Kernel::Reference => Kernel::Fast,
    };
    let flip_sched = match sc.scheduler {
        Scheduler::LevelSync => Scheduler::Sequential,
        Scheduler::Sequential => Scheduler::LevelSync,
    };
    let shadow_plan: [(&'static str, Kernel, Scheduler, bool); 2] = [
        ("kernel-flip", flip_kernel, sc.scheduler, true),
        ("scheduler-flip", sc.kernel, flip_sched, false),
    ];
    let mut shadows = Vec::with_capacity(shadow_plan.len());
    for (label, kernel, scheduler, strict) in shadow_plan {
        let (result, audit) = run_once(sc, &g, kernel, scheduler);
        audit_check(&audit, Some(label), &mut violations);
        if let Some(diff) = compare_runs(&primary, &result, strict) {
            violations.push(Violation {
                kind: ViolationKind::Divergence,
                shadow: Some(label),
                detail: format!("{label}: {diff}"),
            });
        }
        shadows.push((label, RunSummary::of(&result)));
    }

    // Churn pass: host the scenario graph as a service tenant and drive
    // the seeded delta stream with the incremental-vs-full oracle armed.
    let churn = (sc.churned() && !sc.faulty()).then(|| check_churn(sc, &g, &mut violations));

    ScenarioReport {
        scenario: sc.clone(),
        n,
        edges: g.edge_count(),
        primary: RunSummary::of(&primary),
        shadows,
        churn,
        violations,
    }
}

/// Runs the scenario's churn dimension: admits the built graph as a
/// tenant of a [`planar_service::ServiceState`] with
/// [`planar_service::OracleMode::Always`] (every delta diffed against a
/// full re-embed) and the trace auditor armed, then applies
/// `churn_deltas` draws of the seeded stream. Divergences and internal
/// failures surface as [`ViolationKind::ChurnDivergence`]; audit drift
/// as [`ViolationKind::AuditDrift`].
fn check_churn(sc: &Scenario, g: &Graph, violations: &mut Vec<Violation>) -> ChurnSummary {
    use planar_service::{ChurnGen, OracleMode, ServiceConfig, ServiceState};

    let audit = AuditSink::new();
    let mut cfg = ServiceConfig {
        kernel: sc.kernel,
        certify: sc.certify,
        oracle: OracleMode::Always,
        ..ServiceConfig::default()
    };
    cfg.sim.trace = congest_sim::TraceHandle::to(audit.clone());
    let mut svc = ServiceState::new(cfg);

    let id = match svc.create_tenant(g.clone()) {
        Ok(id) => id,
        Err(e) => {
            // The generator guarantees a connected planar input, so a
            // fault-free admission can never fail.
            violations.push(Violation {
                kind: ViolationKind::ChurnDivergence,
                shadow: Some("churn"),
                detail: format!("service admission failed on a planar input: {e}"),
            });
            return ChurnSummary::default();
        }
    };
    let mut churn = ChurnGen::new(sc.churn_seed);
    for step in 0..sc.churn_deltas {
        let delta = churn.next_delta(svc.tenant(id).unwrap().graph());
        let shown = delta.clone();
        if let Err(e) = svc.apply(id, delta) {
            violations.push(Violation {
                kind: ViolationKind::ChurnDivergence,
                shadow: Some("churn"),
                detail: format!("step {step} ({shown}): service error: {e}"),
            });
            break;
        }
        let record = svc.tenant(id).unwrap().records().last();
        if let Some(diff) = record.and_then(|r| r.diverged.as_ref()) {
            violations.push(Violation {
                kind: ViolationKind::ChurnDivergence,
                shadow: Some("churn"),
                detail: format!("step {step} ({shown}): {diff}"),
            });
        }
    }
    audit_check(&audit, Some("churn"), violations);

    let stats = svc.tenant(id).unwrap().stats();
    ChurnSummary {
        applied: stats.applied,
        incremental: stats.incremental,
        tree_preserving: stats.tree_preserving,
        tree_repairable: stats.tree_repairable,
        vertex_set: stats.vertex_set,
        full_fallbacks: stats.full_fallbacks,
        rejected_nonplanar: stats.rejected_nonplanar,
        divergences: stats.divergences,
    }
}

fn audit_check(audit: &AuditSink, shadow: Option<&'static str>, out: &mut Vec<Violation>) {
    if !audit.ok() {
        out.push(Violation {
            kind: ViolationKind::AuditDrift,
            shadow,
            detail: format!(
                "trace auditor found accounting drift: {:?}",
                audit.report().mismatches
            ),
        });
    }
}

fn describe(result: &Result<EmbeddingOutcome, EmbedError>) -> String {
    match result {
        Ok(out) => format!("embedded in {} rounds", out.metrics.rounds),
        Err(e) => e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    /// A fault-free scenario passes the whole oracle stack; its report is
    /// reproducible byte for byte.
    #[test]
    fn fault_free_scenario_passes_and_replays() {
        let sc = (0..)
            .map(Scenario::generate)
            .find(|s| !s.faulty() && s.certify)
            .unwrap();
        let a = check_scenario(&sc);
        assert_eq!(a.violations, vec![], "seed {}", sc.seed);
        assert_eq!(a.primary.class, OutcomeClass::Embedded);
        let b = check_scenario(&sc);
        assert_eq!(a, b, "oracle report must replay identically");
    }

    /// A faulty scenario terminates in an allowed class and all shadows
    /// agree — the conformance contracts hold under fault injection.
    #[test]
    fn faulty_scenario_passes_the_oracle_stack() {
        let sc = (0..)
            .map(Scenario::generate)
            .find(|s| s.faulty() && s.reliability.is_some())
            .unwrap();
        let report = check_scenario(&sc);
        assert_eq!(report.violations, vec![], "seed {}", sc.seed);
        assert!(report.primary.class.allowed_on_planar_input(true));
    }

    /// A churned scenario runs the service churn pass cleanly: deltas
    /// are exercised, nothing diverges from the full re-embed oracle,
    /// and the report replays byte for byte.
    #[test]
    fn churned_scenario_passes_the_churn_oracle() {
        let sc = (0..)
            .map(Scenario::generate)
            .find(|s| s.churned() && s.certify)
            .unwrap();
        let report = check_scenario(&sc);
        assert_eq!(report.violations, vec![], "seed {}", sc.seed);
        let churn = report.churn.expect("churned scenario must tally churn");
        assert_eq!(
            churn.applied + churn.rejected_nonplanar,
            sc.churn_deltas,
            "seed {}: every delta must be judged",
            sc.seed
        );
        assert_eq!(churn.divergences, 0);
        assert_eq!(
            churn.tree_preserving + churn.tree_repairable + churn.vertex_set,
            churn.incremental,
            "seed {}: the per-class tallies partition the incremental count",
            sc.seed
        );
        assert_eq!(check_scenario(&sc), report, "churn pass must replay");
    }

    /// Unchurned scenarios carry no churn tally.
    #[test]
    fn unchurned_scenarios_skip_the_churn_pass() {
        let sc = (0..)
            .map(Scenario::generate)
            .find(|s| !s.churned())
            .unwrap();
        assert_eq!(check_scenario(&sc).churn, None);
    }

    #[test]
    fn violation_kind_codes_are_distinct() {
        let kinds = [
            ViolationKind::AuditDrift,
            ViolationKind::Lattice,
            ViolationKind::BadEmbedding,
            ViolationKind::Certification,
            ViolationKind::Divergence,
            ViolationKind::ChurnDivergence,
        ];
        let codes: std::collections::HashSet<_> = kinds.iter().map(|k| k.code()).collect();
        assert_eq!(codes.len(), kinds.len());
    }
}
