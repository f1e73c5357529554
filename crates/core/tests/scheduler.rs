//! Scheduler conformance: [`Scheduler::LevelSync`] (batched, level-
//! synchronous) must be observationally identical to
//! [`Scheduler::Sequential`] (the depth-first one-run-per-subproblem
//! recursion, kept as the oracle; its code is the incremental rebuild
//! walker with nothing to adopt) — bit-identical rotation, metrics,
//! statistics, and certification verdicts, on both kernels, fault-free
//! and under chaos with reliable delivery, with the trace auditor armed
//! so any accounting drift or cross-instance message fails the run.
//! Both schedulers derive their statistics from the recursion arena the
//! same way, so those are also pinned to recorded values.

use congest_sim::protocols::ReliableConfig;
use congest_sim::{AuditSink, FaultPlan, SimConfig, TraceHandle};
use planar_embedding::{
    embed_distributed, DegradedCause, EmbedError, EmbedderConfig, EmbedderConfig as Cfg,
    EmbeddingOutcome, Kernel, Scheduler,
};
use planar_graph::Graph;
use planar_lib::gen;

/// The full generator suite the driver's own tests embed.
fn families() -> Vec<(&'static str, Graph)> {
    vec![
        ("path", gen::path(17)),
        ("cycle", gen::cycle(16)),
        ("star", gen::star(15)),
        ("random_tree", gen::random_tree(25, 3)),
        ("grid", gen::grid(5, 5)),
        ("tri_grid", gen::triangulated_grid(4, 4)),
        ("k4_subdivided", gen::k4_subdivided(4)),
        ("theta", gen::theta(3, 5)),
        ("wheel", gen::wheel(10)),
        ("fan", gen::fan(12)),
        ("outerplanar", gen::random_outerplanar(18, 2)),
        ("maximal_planar", gen::random_maximal_planar(18, 5)),
        ("random_planar", gen::random_planar(24, 40, 9)),
        ("wheel_chain", gen::wheel_chain(3, 5)),
    ]
}

/// Runs one scheduler with the audit sink armed; panics on any trace
/// accounting drift (which includes cross-instance sends — the kernel
/// rejects those outright and the auditor re-checks per-instance sums).
fn run_audited(
    g: &Graph,
    scheduler: Scheduler,
    kernel: Kernel,
    chaos: bool,
    label: &str,
) -> Result<EmbeddingOutcome, EmbedError> {
    let audit = AuditSink::new();
    let cfg = Cfg {
        sim: SimConfig {
            faults: if chaos {
                FaultPlan::uniform(23, 0.05, 0.02, 0.05, 2)
            } else {
                FaultPlan::default()
            },
            trace: TraceHandle::to(audit.clone()),
            ..SimConfig::default()
        },
        reliability: chaos.then(ReliableConfig::default),
        certify: true,
        kernel,
        scheduler,
        ..Cfg::default()
    };
    let out = embed_distributed(g, &cfg);
    let report = audit.report();
    assert!(
        report.mismatches.is_empty(),
        "{label}: trace audit drift under {scheduler:?}/{kernel:?}: {:?}",
        report.mismatches
    );
    out
}

/// Asserts the two outcomes agree. `Ok` runs must be bit-identical;
/// `Degraded` runs must agree on the variant, survivor count, and
/// verification verdict (the message-level fault trace differs once the
/// schedulers interleave instances differently after a mid-phase abort).
fn assert_conformant(
    label: &str,
    seq: Result<EmbeddingOutcome, EmbedError>,
    lvl: Result<EmbeddingOutcome, EmbedError>,
) {
    match (seq, lvl) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.rotation, b.rotation, "{label}: rotations differ");
            assert_eq!(a.metrics, b.metrics, "{label}: metrics differ");
            assert_eq!(a.stats, b.stats, "{label}: stats differ");
            assert_eq!(
                a.certification, b.certification,
                "{label}: certification differs"
            );
            // The acceptance criterion spelled out: the level-parallel
            // measured round count equals the join_parallel-composed value
            // the sequential oracle reports.
            assert_eq!(
                b.metrics.rounds, a.metrics.rounds,
                "{label}: level-sync rounds must equal the composed value"
            );
        }
        (
            Err(EmbedError::Degraded {
                surviving_nodes: sa,
                verified: va,
                cause: ca,
                ..
            }),
            Err(EmbedError::Degraded {
                surviving_nodes: sb,
                verified: vb,
                cause: cb,
                ..
            }),
        ) => {
            assert_eq!(sa, sb, "{label}: surviving_nodes differ");
            assert_eq!(va, vb, "{label}: verified differs");
            assert_eq!(
                std::mem::discriminant(&ca),
                std::mem::discriminant(&cb),
                "{label}: degraded causes differ: {ca:?} vs {cb:?}"
            );
            if let (
                DegradedCause::PhaseIncomplete { phase: pa },
                DegradedCause::PhaseIncomplete { phase: pb },
            ) = (&ca, &cb)
            {
                assert_eq!(pa, pb, "{label}: failing phase differs");
            }
        }
        (a, b) => panic!("{label}: outcomes diverged: {a:?} vs {b:?}"),
    }
}

#[test]
fn level_sync_matches_sequential_fault_free() {
    for kernel in [Kernel::Fast, Kernel::Reference] {
        for (name, g) in families() {
            let label = format!("{name}/{kernel:?}/fault-free");
            let seq = run_audited(&g, Scheduler::Sequential, kernel, false, &label);
            let lvl = run_audited(&g, Scheduler::LevelSync, kernel, false, &label);
            assert!(
                seq.is_ok(),
                "{label}: fault-free oracle must succeed: {seq:?}"
            );
            assert_conformant(&label, seq, lvl);
        }
    }
}

#[test]
fn level_sync_matches_sequential_under_chaos() {
    for kernel in [Kernel::Fast, Kernel::Reference] {
        for (name, g) in families() {
            let label = format!("{name}/{kernel:?}/chaos");
            let seq = run_audited(&g, Scheduler::Sequential, kernel, true, &label);
            let lvl = run_audited(&g, Scheduler::LevelSync, kernel, true, &label);
            assert_conformant(&label, seq, lvl);
        }
    }
}

#[test]
fn kernels_agree_per_scheduler() {
    // Orthogonal axis: for a fixed scheduler, the reference kernel is
    // observationally identical to the fast kernel.
    for scheduler in [Scheduler::Sequential, Scheduler::LevelSync] {
        for (name, g) in [("grid", gen::grid(5, 5)), ("wheel", gen::wheel(10))] {
            let label = format!("{name}/{scheduler:?}/kernel-agreement");
            let fast = run_audited(&g, scheduler, Kernel::Fast, false, &label);
            let refr = run_audited(&g, scheduler, Kernel::Reference, false, &label);
            assert_conformant(&label, fast, refr);
        }
    }
}

/// `RecursionStats` pinned field by field for both schedulers. The
/// values were recorded when each walker still kept its own
/// statistics; both now derive them from the arena in one pass, so
/// this is what guards that derivation. Level rows are `(level,
/// problems, max_size, max_child_ratio, max_part_depth, rounds)`;
/// merge rows are `[subtree_size, p0_len, initial_parts,
/// retired_single, retired_double, paused_paths, final_parts,
/// symmetry_rounds_virtual]` in DFS post-order.
#[test]
fn recursion_stats_are_pinned() {
    type Levels = &'static [(usize, usize, usize, f64, usize, usize)];
    type Merges = &'static [[usize; 8]];
    let cases: [(Graph, Levels, Merges); 3] = [
        (
            gen::grid(5, 5),
            &[
                (0, 1, 25, 0.6, 6, 309),
                (1, 3, 15, 0.6666666666666666, 5, 133),
                (2, 4, 10, 0.5, 4, 86),
                (3, 5, 5, 0.6, 2, 45),
                (4, 3, 3, 0.6666666666666666, 1, 25),
                (5, 2, 2, 0.5, 0, 12),
                (6, 1, 1, 0.0, 0, 0),
            ],
            &[
                [2, 1, 1, 1, 0, 0, 0, 0],
                [4, 2, 1, 1, 0, 0, 0, 0],
                [2, 1, 1, 1, 0, 0, 0, 0],
                [3, 1, 1, 1, 0, 0, 0, 0],
                [5, 2, 1, 1, 0, 0, 0, 0],
                [2, 1, 1, 1, 0, 0, 0, 0],
                [4, 2, 1, 1, 0, 0, 0, 0],
                [10, 1, 2, 1, 0, 0, 0, 0],
                [2, 1, 1, 1, 0, 0, 0, 0],
                [4, 2, 1, 1, 0, 0, 0, 0],
                [15, 1, 2, 1, 0, 0, 0, 0],
                [2, 1, 1, 1, 0, 0, 0, 0],
                [4, 2, 1, 1, 0, 0, 0, 0],
                [25, 2, 3, 0, 0, 0, 1, 5],
            ],
        ),
        (
            gen::wheel_chain(3, 5),
            &[
                (0, 1, 15, 0.6666666666666666, 4, 219),
                (1, 4, 10, 0.5, 2, 125),
                (2, 4, 5, 0.4, 1, 37),
                (3, 3, 2, 0.5, 0, 12),
                (4, 1, 1, 0.0, 0, 0),
            ],
            &[
                [2, 1, 1, 1, 0, 0, 0, 0],
                [5, 1, 3, 1, 0, 0, 0, 0],
                [10, 2, 4, 1, 0, 0, 1, 5],
                [15, 2, 4, 1, 0, 0, 1, 5],
            ],
        ),
        (
            gen::random_outerplanar(18, 2),
            &[
                (0, 1, 18, 0.4444444444444444, 2, 77),
                (1, 4, 8, 0.375, 1, 42),
                (2, 8, 3, 0.5, 0, 17),
                (3, 5, 1, 0.0, 0, 0),
            ],
            &[
                [3, 1, 2, 1, 0, 0, 0, 0],
                [2, 1, 1, 1, 0, 0, 0, 0],
                [8, 1, 4, 1, 0, 0, 0, 0],
                [2, 1, 1, 1, 0, 0, 0, 0],
                [2, 1, 1, 1, 0, 0, 0, 0],
                [7, 1, 4, 2, 0, 0, 0, 0],
                [18, 1, 4, 1, 0, 0, 0, 0],
            ],
        ),
    ];
    for (g, levels, merges) in cases {
        for scheduler in [Scheduler::LevelSync, Scheduler::Sequential] {
            let cfg = Cfg {
                scheduler,
                ..Cfg::default()
            };
            let stats = embed_distributed(&g, &cfg).unwrap().stats;
            let got_levels: Vec<_> = stats
                .levels
                .iter()
                .map(|l| {
                    (
                        l.level,
                        l.problems,
                        l.max_size,
                        l.max_child_ratio,
                        l.max_part_depth,
                        l.rounds,
                    )
                })
                .collect();
            let got_merges: Vec<_> = stats
                .merges
                .iter()
                .map(|m| {
                    [
                        m.subtree_size,
                        m.p0_len,
                        m.initial_parts,
                        m.retired_single,
                        m.retired_double,
                        m.paused_paths,
                        m.final_parts,
                        m.symmetry_rounds_virtual,
                    ]
                })
                .collect();
            assert_eq!(got_levels, levels, "{scheduler:?}: levels");
            assert_eq!(got_merges, merges, "{scheduler:?}: merges");
            assert_eq!(stats.depth, levels.len(), "{scheduler:?}: depth");
        }
    }
}

#[test]
fn default_config_uses_level_sync() {
    assert_eq!(EmbedderConfig::default().scheduler, Scheduler::LevelSync);
    assert_eq!(EmbedderConfig::default().kernel, Kernel::Fast);
}
