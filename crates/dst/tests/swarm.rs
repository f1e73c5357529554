//! The honest swarm: a contiguous block of seeds through the full oracle
//! stack must produce zero violations, replay bit-identically, and cover
//! the scenario space it claims to cover.

use planar_dst::{run_one, run_swarm, Scenario, SwarmOptions};

const COUNT: usize = 30;

fn opts() -> SwarmOptions {
    SwarmOptions {
        base_seed: 0,
        count: COUNT,
        ..SwarmOptions::default()
    }
}

/// The headline robustness claim: every scenario in the block passes
/// every oracle — trace audit, terminal lattice, centralized
/// re-validation, certification, and both shadow bit-identity
/// checks.
#[test]
fn honest_swarm_has_zero_violations() {
    let report = run_swarm(&opts(), |_| {});
    for run in &report.runs {
        assert!(
            run.report.violations.is_empty(),
            "seed {}: {:?}",
            run.seed,
            run.report.violations
        );
        assert!(run.minimized.is_none());
    }
    assert_eq!(report.violating(), 0);
    assert_eq!(report.violating_seeds(), Vec::<u64>::new());
}

/// The swarm summary and every per-run artifact replay byte-identically —
/// the canonical-JSON determinism contract behind `harness dst --seed N`.
#[test]
fn swarm_replays_bit_identically() {
    let a = run_swarm(&opts(), |_| {});
    let b = run_swarm(&opts(), |_| {});
    assert_eq!(a.to_json(), b.to_json());
    for (ra, rb) in a.runs.iter().zip(&b.runs) {
        assert_eq!(
            planar_dst::run_artifact(ra),
            planar_dst::run_artifact(rb),
            "seed {} artifact drifted",
            ra.seed
        );
    }
    // Single-seed replay reproduces the swarm row exactly.
    let solo = run_one(a.runs[7].seed, 0, a.options.minimize_budget);
    assert_eq!(
        planar_dst::run_artifact(&solo),
        planar_dst::run_artifact(&a.runs[7])
    );
}

/// The seed block actually exercises the dimensions the engine claims:
/// both kernels, both schedulers, faulty and fault-free scenarios,
/// certification on and off, and several graph families.
#[test]
fn swarm_block_covers_the_scenario_space() {
    let scenarios: Vec<Scenario> = (0..COUNT as u64).map(Scenario::generate).collect();
    assert!(scenarios.iter().any(|s| s.faulty()));
    assert!(scenarios.iter().any(|s| !s.faulty()));
    assert!(scenarios.iter().any(|s| s.certify));
    assert!(scenarios.iter().any(|s| s.reliability.is_some()));
    let families: std::collections::HashSet<_> = scenarios.iter().map(|s| s.family).collect();
    assert!(
        families.len() >= 5,
        "only {} families in the block",
        families.len()
    );
}
