//! Failing-seed minimization: greedy delta-debugging over the scenario's
//! dimensions.
//!
//! Given a scenario that violates an oracle and the [`ViolationKind`] it
//! broke, [`minimize`] repeatedly tries smaller candidate scenarios and
//! keeps any candidate that still reproduces *the same kind* of
//! violation. Candidates are ordered biggest-win-first:
//!
//! 1. **Shrink the graph** — request the family's minimum size, half,
//!    three-quarters, size − 1 (crash victims and outage endpoints that
//!    fall off the smaller graph are filtered out, so the shrunk plan
//!    still validates);
//! 2. **Strip fault-plan entries** — drop each crash, each link-down
//!    window, each per-link override; zero the duplicate, delay, and drop
//!    rates;
//! 3. **Drop configuration dimensions** — certification off, reliability
//!    off, scheduler to its default, kernel to its default.
//!
//! After any candidate is adopted the list is rebuilt from the smaller
//! scenario, so graph shrinking gets first refusal again. The process is
//! deterministic and bounded by a run budget: each reproduction attempt is
//! one full [`check_scenario`] (itself three embedder runs), so the budget
//! is counted in oracle calls, not embedder runs.

use planar_embedding::{Kernel, Scheduler};
use planar_lib::gen;

use crate::oracle::{check_scenario, ViolationKind};
use crate::scenario::Scenario;

/// The result of one minimization: the smallest reproducing scenario
/// found, the oracle-call budget spent, and the shrink steps adopted.
#[derive(Clone, Debug, PartialEq)]
pub struct Minimized {
    /// Smallest scenario still violating the original kind.
    pub scenario: Scenario,
    /// The violation kind being reproduced.
    pub kind: ViolationKind,
    /// `check_scenario` calls spent (≤ the budget passed to [`minimize`]).
    pub runs: usize,
    /// Human-readable adopted steps, in order.
    pub steps: Vec<String>,
}

/// Default oracle-call budget: generous for the small scenarios the
/// generator draws, while bounding a pathological shrink to minutes.
pub const DEFAULT_BUDGET: usize = 64;

/// Shrinks `sc` while the violation `kind` still reproduces. The original
/// scenario is assumed to reproduce (the caller observed the violation);
/// the result is the last reproducing candidate adopted.
pub fn minimize(sc: &Scenario, kind: ViolationKind, budget: usize) -> Minimized {
    let mut current = sc.clone();
    let mut runs = 0;
    let mut steps = Vec::new();
    'outer: loop {
        for (desc, candidate) in candidates(&current) {
            if runs >= budget {
                break 'outer;
            }
            runs += 1;
            if reproduces(&candidate, kind) {
                steps.push(desc);
                current = candidate;
                // Restart from the shrunk scenario: graph shrinking gets
                // priority again.
                continue 'outer;
            }
        }
        break;
    }
    Minimized {
        scenario: current,
        kind,
        runs,
        steps,
    }
}

fn reproduces(sc: &Scenario, kind: ViolationKind) -> bool {
    check_scenario(sc).violations.iter().any(|v| v.kind == kind)
}

/// Rebuilds `sc` at a smaller requested size, filtering fault-plan
/// entries that reference vertices beyond the smaller graph so the plan
/// still validates.
fn with_requested_n(sc: &Scenario, requested_n: usize) -> Scenario {
    let mut cand = sc.clone();
    cand.requested_n = requested_n;
    let n = cand.build_graph().vertex_count();
    cand.faults.crashes.retain(|(v, _)| v.index() < n);
    cand.faults
        .link_down
        .retain(|w| w.from.index() < n && w.to.index() < n);
    cand.faults
        .link_overrides
        .retain(|((from, to), _)| from.index() < n && to.index() < n);
    cand
}

fn candidates(sc: &Scenario) -> Vec<(String, Scenario)> {
    let mut out = Vec::new();
    let family = gen::family(sc.family).expect("scenario family is registered");

    // 1. Graph shrinking, most aggressive first.
    let n = sc.requested_n;
    for target in [family.min_n, n / 2, n * 3 / 4, n.saturating_sub(1)] {
        if target >= family.min_n && target < n {
            let cand = with_requested_n(sc, target);
            if !out.iter().any(|(_, c)| *c == cand) {
                out.push((format!("requested_n {n} -> {target}"), cand));
            }
        }
    }

    // 2. Fault-plan stripping.
    for i in 0..sc.faults.crashes.len() {
        let mut cand = sc.clone();
        let (v, round) = cand.faults.crashes.remove(i);
        out.push((format!("drop crash ({v}, round {round})"), cand));
    }
    for i in 0..sc.faults.link_down.len() {
        let mut cand = sc.clone();
        let w = cand.faults.link_down.remove(i);
        out.push((
            format!(
                "drop link-down {}->{} [{}, {})",
                w.from, w.to, w.start, w.end
            ),
            cand,
        ));
    }
    for i in 0..sc.faults.link_overrides.len() {
        let mut cand = sc.clone();
        let ((from, to), _) = cand.faults.link_overrides.remove(i);
        out.push((format!("drop link override {from}->{to}"), cand));
    }
    if sc.faults.link.duplicate > 0.0 {
        let mut cand = sc.clone();
        cand.faults.link.duplicate = 0.0;
        out.push(("zero duplicate rate".into(), cand));
    }
    if sc.faults.link.delay > 0.0 || sc.faults.link.max_delay > 0 {
        let mut cand = sc.clone();
        cand.faults.link.delay = 0.0;
        cand.faults.link.max_delay = 0;
        out.push(("zero delay rate".into(), cand));
    }
    if sc.faults.link.drop > 0.0 {
        let mut cand = sc.clone();
        cand.faults.link.drop = 0.0;
        out.push(("zero drop rate".into(), cand));
    }
    // 2b. Churn shrinking: drop the whole pass first, then halve and
    // decrement the delta count (the churn seed stays fixed — a shorter
    // prefix of the same stream).
    if sc.churn_deltas > 0 {
        let mut cand = sc.clone();
        cand.churn_deltas = 0;
        cand.churn_seed = 0;
        out.push(("drop churn pass".into(), cand));
    }
    for target in [sc.churn_deltas / 2, sc.churn_deltas.saturating_sub(1)] {
        if target >= 1 && target < sc.churn_deltas {
            let mut cand = sc.clone();
            cand.churn_deltas = target;
            if !out.iter().any(|(_, c)| *c == cand) {
                out.push((
                    format!("churn_deltas {} -> {target}", sc.churn_deltas),
                    cand,
                ));
            }
        }
    }
    // 3. Configuration dimensions.
    if sc.certify {
        let mut cand = sc.clone();
        cand.certify = false;
        out.push(("certify off".into(), cand));
    }
    if sc.reliability.is_some() {
        let mut cand = sc.clone();
        cand.reliability = None;
        out.push(("reliability off".into(), cand));
    }
    if sc.scheduler != Scheduler::default() {
        let mut cand = sc.clone();
        cand.scheduler = Scheduler::default();
        out.push(("scheduler -> default".into(), cand));
    }
    if sc.kernel != Kernel::default() {
        let mut cand = sc.clone();
        cand.kernel = Kernel::default();
        out.push(("kernel -> default".into(), cand));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The candidate list is strictly shrinking: every candidate differs
    /// from its parent and never grows the fault plan or the graph.
    #[test]
    fn candidates_only_shrink() {
        for seed in 0..40u64 {
            let sc = Scenario::generate(seed);
            for (desc, cand) in candidates(&sc) {
                assert_ne!(cand, sc, "seed {seed}: no-op candidate '{desc}'");
                assert!(cand.requested_n <= sc.requested_n, "seed {seed}: '{desc}'");
                assert!(
                    cand.faults.crashes.len() <= sc.faults.crashes.len(),
                    "seed {seed}: '{desc}'"
                );
                assert!(
                    cand.faults.link_down.len() <= sc.faults.link_down.len(),
                    "seed {seed}: '{desc}'"
                );
                assert!(
                    cand.churn_deltas <= sc.churn_deltas,
                    "seed {seed}: '{desc}'"
                );
                let n = cand.build_graph().vertex_count();
                cand.faults
                    .validate(n)
                    .unwrap_or_else(|e| panic!("seed {seed}: '{desc}' invalidated plan: {e}"));
            }
        }
    }

    /// Shrinking the graph filters out-of-range fault entries instead of
    /// carrying them along.
    #[test]
    fn graph_shrink_filters_dangling_fault_entries() {
        let sc = (0..)
            .map(Scenario::generate)
            .find(|s| !s.faults.crashes.is_empty() && s.requested_n > gen_min(s))
            .unwrap();
        let fam = gen::family(sc.family).unwrap();
        let cand = with_requested_n(&sc, fam.min_n);
        let n = cand.build_graph().vertex_count();
        assert!(cand.faults.crashes.iter().all(|(v, _)| v.index() < n));
        cand.faults.validate(n).unwrap();
    }

    fn gen_min(s: &Scenario) -> usize {
        gen::family(s.family).unwrap().min_n
    }
}
