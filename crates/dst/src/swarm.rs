//! The swarm runner: many scenarios from consecutive seeds, violations
//! minimized, everything summarized as one canonical JSON document.
//!
//! Seeds are consecutive (`base_seed + i`), **not** mixed: a violating
//! seed printed by the swarm replays directly with `harness dst --seed N`
//! — the scenario engine does its own sub-seed mixing internally, so
//! consecutive seeds still cover the scenario space.

use std::collections::BTreeMap;

use crate::artifact::{report_json, scenario_json, Json};
use crate::minimize::{minimize, Minimized, DEFAULT_BUDGET};
use crate::oracle::{check_scenario, ScenarioReport};
use crate::scenario::Scenario;

/// Configuration of one swarm.
#[derive(Clone, Debug, PartialEq)]
pub struct SwarmOptions {
    /// First scenario seed; run `i` uses `base_seed + i` (wrapping).
    pub base_seed: u64,
    /// Number of scenarios.
    pub count: usize,
    /// Non-zero arms the test-only canary (deliberately broken fast-kernel
    /// fate function) on every faulty scenario — the swarm must then find
    /// and minimize divergences. Zero (the default) for honest runs.
    pub canary_skew: u64,
    /// Oracle-call budget per minimization.
    pub minimize_budget: usize,
}

impl Default for SwarmOptions {
    fn default() -> Self {
        SwarmOptions {
            base_seed: 0,
            count: 25,
            canary_skew: 0,
            minimize_budget: DEFAULT_BUDGET,
        }
    }
}

/// One scenario's worth of swarm output.
#[derive(Clone, Debug, PartialEq)]
pub struct SwarmRun {
    /// The scenario seed.
    pub seed: u64,
    /// Full oracle report.
    pub report: ScenarioReport,
    /// Minimization result, present iff the report has violations.
    pub minimized: Option<Minimized>,
}

impl SwarmRun {
    /// One-line progress summary (`harness dst` prints one per scenario).
    pub fn progress_line(&self) -> String {
        let sc = &self.report.scenario;
        let verdict = if self.report.violations.is_empty() {
            "ok".to_string()
        } else {
            format!(
                "VIOLATION[{}]",
                self.report
                    .violations
                    .iter()
                    .map(|v| v.kind.code())
                    .collect::<Vec<_>>()
                    .join(",")
            )
        };
        format!(
            "dst seed={:<6} {:<22} n={:<3} faults={} kernel={:<9} sched={:<10} cert={} -> {:<19} {}",
            self.seed,
            sc.family,
            self.report.n,
            u8::from(sc.faulty()),
            crate::artifact::kernel_code(sc.kernel),
            crate::artifact::scheduler_code(sc.scheduler),
            u8::from(sc.certify),
            self.report.primary.class.code(),
            verdict,
        )
    }
}

/// Runs one scenario end to end: generate, arm the canary if requested,
/// check against the full oracle stack, minimize on violation.
pub fn run_one(seed: u64, canary_skew: u64, minimize_budget: usize) -> SwarmRun {
    let mut sc = Scenario::generate(seed);
    if canary_skew != 0 {
        sc.arm_canary(canary_skew);
    }
    let report = check_scenario(&sc);
    let minimized = report
        .first_violation()
        .map(|kind| minimize(&sc, kind, minimize_budget));
    SwarmRun {
        seed,
        report,
        minimized,
    }
}

/// The whole swarm's output.
#[derive(Clone, Debug, PartialEq)]
pub struct SwarmReport {
    /// The options the swarm ran with.
    pub options: SwarmOptions,
    /// Per-scenario outputs, in seed order.
    pub runs: Vec<SwarmRun>,
}

impl SwarmReport {
    /// Number of scenarios with at least one violation.
    pub fn violating(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| !r.report.violations.is_empty())
            .count()
    }

    /// Seeds with at least one violation, in order.
    pub fn violating_seeds(&self) -> Vec<u64> {
        self.runs
            .iter()
            .filter(|r| !r.report.violations.is_empty())
            .map(|r| r.seed)
            .collect()
    }

    /// Histogram of primary terminal classes, by stable code.
    pub fn class_histogram(&self) -> BTreeMap<&'static str, u64> {
        let mut hist = BTreeMap::new();
        for run in &self.runs {
            *hist.entry(run.report.primary.class.code()).or_insert(0) += 1;
        }
        hist
    }

    /// The swarm summary as canonical JSON text (`BENCH_dst.json`).
    pub fn to_json(&self) -> String {
        let mut text = self.summary().render();
        text.push('\n');
        text
    }

    /// The swarm summary document.
    pub fn summary(&self) -> Json {
        let runs = self
            .runs
            .iter()
            .map(|run| {
                let sc = &run.report.scenario;
                Json::obj([
                    ("seed", Json::U64(run.seed)),
                    ("family", sc.family.into()),
                    ("n", run.report.n.into()),
                    ("faulty", Json::Bool(sc.faulty())),
                    ("kernel", crate::artifact::kernel_code(sc.kernel).into()),
                    (
                        "scheduler",
                        crate::artifact::scheduler_code(sc.scheduler).into(),
                    ),
                    ("certify", Json::Bool(sc.certify)),
                    ("reliability", Json::Bool(sc.reliability.is_some())),
                    ("class", run.report.primary.class.code().into()),
                    ("rounds", run.report.primary.rounds.into()),
                    (
                        "digest",
                        Json::Str(format!("{:016x}", run.report.primary.digest)),
                    ),
                    (
                        "violations",
                        Json::Arr(
                            run.report
                                .violations
                                .iter()
                                .map(|v| v.kind.code().into())
                                .collect(),
                        ),
                    ),
                    (
                        "minimized",
                        match &run.minimized {
                            Some(m) => minimized_json(m),
                            None => Json::Null,
                        },
                    ),
                ])
            })
            .collect();
        let classes = Json::Obj(
            self.class_histogram()
                .into_iter()
                .map(|(code, count)| (code.to_string(), Json::U64(count)))
                .collect(),
        );
        Json::obj([
            ("benchmark", "dst-swarm".into()),
            ("schema", Json::U64(1)),
            ("base_seed", Json::U64(self.options.base_seed)),
            ("count", self.options.count.into()),
            ("canary_skew", Json::U64(self.options.canary_skew)),
            ("classes", classes),
            ("violations", self.violating().into()),
            (
                "violating_seeds",
                Json::Arr(self.violating_seeds().into_iter().map(Json::U64).collect()),
            ),
            ("runs", Json::Arr(runs)),
        ])
    }
}

fn minimized_json(m: &Minimized) -> Json {
    Json::obj([
        ("kind", m.kind.code().into()),
        ("runs", m.runs.into()),
        (
            "steps",
            Json::Arr(m.steps.iter().map(|s| Json::Str(s.clone())).collect()),
        ),
        ("scenario", scenario_json(&m.scenario)),
    ])
}

/// Runs the whole swarm, invoking `progress` after each scenario (the
/// harness prints; tests pass a no-op).
pub fn run_swarm(options: &SwarmOptions, mut progress: impl FnMut(&SwarmRun)) -> SwarmReport {
    let mut runs = Vec::with_capacity(options.count);
    for i in 0..options.count {
        let seed = options.base_seed.wrapping_add(i as u64);
        let run = run_one(seed, options.canary_skew, options.minimize_budget);
        progress(&run);
        runs.push(run);
    }
    SwarmReport {
        options: options.clone(),
        runs,
    }
}

/// The per-run artifact (`dst_<seed>.json`) including minimization, as
/// canonical JSON text.
pub fn run_artifact(run: &SwarmRun) -> String {
    let mut doc = match report_json(&run.report) {
        Json::Obj(o) => o,
        _ => unreachable!(),
    };
    doc.insert(
        "minimized".into(),
        match &run.minimized {
            Some(m) => minimized_json(m),
            None => Json::Null,
        },
    );
    let mut text = Json::Obj(doc).render();
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swarm_json_is_canonical_and_replayable() {
        let opts = SwarmOptions {
            base_seed: 100,
            count: 3,
            ..SwarmOptions::default()
        };
        let a = run_swarm(&opts, |_| {});
        let b = run_swarm(&opts, |_| {});
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.runs.len(), 3);
        let text = a.to_json();
        assert!(text.contains("\"benchmark\": \"dst-swarm\""));
        assert!(text.ends_with('\n'));
        // Per-run replay: the swarm row equals a standalone single-seed run.
        let solo = run_one(101, 0, DEFAULT_BUDGET);
        assert_eq!(run_artifact(&solo), run_artifact(&a.runs[1]));
    }
}
