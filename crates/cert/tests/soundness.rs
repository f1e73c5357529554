//! Completeness and soundness of the certification scheme, end to end:
//!
//! * **completeness** — honest certificates for honestly embedded graphs
//!   are accepted at every node, on the whole generator suite, fault-free
//!   and under seeded chaos with reliable delivery, in O(1) rounds;
//! * **soundness** — every mutation class applied at every seed makes at
//!   least one node reject, with bit-identical rejection sets on the fast
//!   and reference kernels.

use congest_sim::protocols::{run_reliable, wrapped_budget, ReliableConfig};
use congest_sim::reference::run_reference;
use congest_sim::{run, AuditSink, FaultPlan, SimConfig, TraceHandle};
use planar_cert::{
    apply_mutation, build_certificates, mutation_classes, verify_distributed_with,
    verify_orders_with, MutationClass,
};
use planar_graph::{Graph, RotationSystem};
use planar_lib::{embed, gen};

/// The generator suite of the acceptance criteria: grid, triangulated
/// grid, outerplanar, random planar — plus a disconnected union.
fn suite() -> Vec<(&'static str, Graph)> {
    let mut graphs = vec![
        ("grid_4x5", gen::grid(4, 5)),
        ("tri_grid_3x4", gen::triangulated_grid(3, 4)),
        ("outerplanar_14", gen::random_outerplanar(14, 11)),
        ("random_planar_16", gen::random_planar(16, 30, 5)),
        ("wheel_9", gen::wheel(9)),
    ];
    // Disconnected: a grid next to an isolated vertex and a triangle.
    let grid = gen::grid(3, 3);
    let mut edges: Vec<(u32, u32)> = grid
        .vertices()
        .flat_map(|u| {
            grid.neighbors(u)
                .iter()
                .filter(move |&&w| u < w)
                .map(move |&w| (u.0, w.0))
                .collect::<Vec<_>>()
        })
        .collect();
    edges.extend([(10, 11), (11, 12), (12, 10)]);
    graphs.push((
        "disconnected_grid_triangle",
        Graph::from_edges(13, edges).unwrap(),
    ));
    graphs
}

fn embedded(g: &Graph) -> RotationSystem {
    let rot = embed(g).expect("suite graphs are planar");
    assert!(rot.is_planar_embedding());
    rot
}

/// The default configuration with the per-edge budget a reliable-wrapped
/// run needs.
fn wrapped() -> SimConfig {
    SimConfig {
        budget_words: wrapped_budget(congest_sim::DEFAULT_BUDGET_WORDS),
        ..SimConfig::default()
    }
}

#[test]
fn honest_embeddings_accept_everywhere_on_both_kernels() {
    for (name, g) in suite() {
        let rot = embedded(&g);
        let certs = build_certificates(&g, &rot).unwrap();
        for kernel in ["fast", "reference"] {
            // The verification rounds run under the trace auditor, so this
            // suite also checks the reported metrics against an
            // independent recomputation from the event stream.
            let audit = AuditSink::new();
            let cfg = SimConfig {
                trace: TraceHandle::to(audit.clone()),
                ..SimConfig::default()
            };
            let report = verify_distributed_with(&g, &rot, &certs, |programs| match kernel {
                "fast" => run(&g, programs, &cfg),
                _ => run_reference(&g, programs, &cfg),
            })
            .unwrap();
            assert!(
                audit.ok(),
                "{name} on {kernel}: trace audit found drift: {:?}",
                audit.report().mismatches
            );
            assert!(
                report.accepted,
                "{name} on {kernel}: rejections {:?}, incomplete {:?}",
                report.rejections, report.incomplete
            );
            assert!(
                report.metrics.rounds <= 2,
                "{name}: verification took {} rounds, must be O(1)",
                report.metrics.rounds
            );
            // O(Δ log n) bits per node: 10 fixed words + 2 per incident arc.
            let max_deg = g.vertices().map(|v| g.neighbors(v).len()).max().unwrap();
            assert!(report.max_cert_words <= 10 + 2 * max_deg, "{name}");
        }
    }
}

#[test]
fn honest_embeddings_accept_under_chaos_with_reliable_delivery() {
    let rel = ReliableConfig::default();
    for (name, g) in suite() {
        let rot = embedded(&g);
        let certs = build_certificates(&g, &rot).unwrap();
        for seed in 0..3u64 {
            let audit = AuditSink::new();
            let cfg = SimConfig {
                faults: FaultPlan::uniform(seed, 0.15, 0.05, 0.1, 2),
                watchdog: Some(8192),
                trace: TraceHandle::to(audit.clone()),
                ..wrapped()
            };
            let report = verify_distributed_with(&g, &rot, &certs, |programs| {
                run_reliable(&g, programs, &cfg, &rel)
            })
            .unwrap();
            assert!(
                audit.ok(),
                "{name} seed {seed}: trace audit found drift: {:?}",
                audit.report().mismatches
            );
            assert!(
                report.accepted,
                "{name} seed {seed}: rejections {:?}, incomplete {:?}",
                report.rejections, report.incomplete
            );
        }
    }
}

#[test]
fn every_mutation_class_is_rejected_identically_on_both_kernels() {
    let cfg = SimConfig::default();
    for (name, g) in suite() {
        let rot = embedded(&g);
        let certs = build_certificates(&g, &rot).unwrap();
        for class in mutation_classes() {
            let mut applied = 0;
            for seed in 0..4u64 {
                let Some((orders, mcerts, mutation)) =
                    apply_mutation(&g, &rot, &certs, class, seed)
                else {
                    continue;
                };
                applied += 1;
                let fast = verify_orders_with(&g, &orders, &mcerts, |p| run(&g, p, &cfg)).unwrap();
                assert!(
                    !fast.accepted,
                    "{name} / {class:?} seed {seed} accepted despite {mutation:?}"
                );
                assert!(
                    !fast.rejections.is_empty(),
                    "{name} / {class:?} seed {seed}: no rejecting node for {mutation:?}"
                );
                let reference =
                    verify_orders_with(&g, &orders, &mcerts, |p| run_reference(&g, p, &cfg))
                        .unwrap();
                assert_eq!(
                    fast, reference,
                    "{name} / {class:?} seed {seed}: kernels disagree on {mutation:?}"
                );
            }
            // RotationSwap may lack a site on sparse inputs; every other
            // class must fire on every suite graph.
            if class != MutationClass::RotationSwap {
                assert!(applied > 0, "{name} / {class:?}: no mutation applied");
            }
        }
    }
}

#[test]
fn mutations_are_rejected_even_under_reliable_chaos() {
    // Soundness is not an artifact of fault-free delivery: a corrupted
    // certificate still draws a rejection when messages drop and retry.
    let rel = ReliableConfig::default();
    let g = gen::grid(4, 4);
    let rot = embedded(&g);
    let certs = build_certificates(&g, &rot).unwrap();
    let cfg = SimConfig {
        faults: FaultPlan::uniform(9, 0.15, 0.05, 0.1, 2),
        watchdog: Some(8192),
        ..wrapped()
    };
    for class in mutation_classes() {
        let Some((orders, mcerts, mutation)) = apply_mutation(&g, &rot, &certs, class, 2) else {
            continue;
        };
        let report =
            verify_orders_with(&g, &orders, &mcerts, |p| run_reliable(&g, p, &cfg, &rel)).unwrap();
        assert!(
            !report.accepted,
            "{class:?} accepted under chaos: {mutation:?}"
        );
        assert!(
            !report.rejections.is_empty(),
            "{class:?} drew no rejection under chaos: {mutation:?}"
        );
    }
}

#[test]
fn rejection_sets_are_deterministic_across_runs() {
    let g = gen::triangulated_grid(3, 3);
    let rot = embedded(&g);
    let certs = build_certificates(&g, &rot).unwrap();
    let cfg = SimConfig::default();
    for class in mutation_classes() {
        let Some((orders, mcerts, _)) = apply_mutation(&g, &rot, &certs, class, 1) else {
            continue;
        };
        let a = verify_orders_with(&g, &orders, &mcerts, |p| run(&g, p, &cfg)).unwrap();
        let b = verify_orders_with(&g, &orders, &mcerts, |p| run(&g, p, &cfg)).unwrap();
        assert_eq!(a, b, "{class:?} replay diverged");
    }
}
