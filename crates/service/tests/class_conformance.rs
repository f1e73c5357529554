//! Per-class conformance: for every [`DeltaClass`], on both kernels,
//! fault-free and against a chaos+reliable from-scratch embed, the
//! incremental path must be bit-identical to the oracle — with the
//! simulator's audit sink armed throughout.
//!
//! The suite constructs one *guaranteed* delta per class from the
//! deterministic BFS tree of the tenant graph (the same tree the kernel
//! elects: max-id root, min-id parent rule), so each class's incremental
//! machinery — merge-only re-runs, measured tree repairs (a re-parent and
//! a distance-shortening cascade), arrivals and departures with
//! renumbering, and the full fallback of a root departure — is pinned
//! individually rather than hoped-for out of a churn stream.
//! `OracleMode::Always` diffs every apply against a fault-free
//! from-scratch embed; the chaos leg additionally re-embeds the mutated
//! graph under lossy links with reliable delivery and requires the
//! surviving runs to agree with the resident rotation (degrading is
//! legitimate, diverging is not).

use congest_sim::{AuditSink, FaultPlan, SimConfig, TraceHandle};
use planar_embedding::setup::run_setup;
use planar_embedding::tree::GlobalTree;
use planar_embedding::{
    embed_distributed, DeltaClass, EmbedError, EmbedderConfig, Kernel, ReliableConfig,
};
use planar_graph::{Graph, VertexId};
use planar_lib::gen;
use planar_service::{Delta, DeltaOutcome, OracleMode, ServiceConfig, ServiceState};

/// The deterministic BFS tree the driver's setup phase elects for `g` —
/// what the resident embedding pins as its sticky root.
fn tree_of(g: &Graph) -> GlobalTree {
    run_setup(g, &SimConfig::default()).unwrap().0.tree
}

/// One guaranteed delta of each class against the tenant graph, derived
/// from the deterministic tree.
fn class_cases(g: &Graph) -> Vec<(DeltaClass, &'static str, Delta)> {
    let tree = tree_of(g);
    let is_tree_edge = |u: VertexId, v: VertexId| {
        tree.parent[u.index()] == Some(v) || tree.parent[v.index()] == Some(u)
    };
    let mut cases = Vec::new();

    // TreePreserving: delete a non-tree edge — every BFS distance and
    // parent choice survives.
    let chord = g
        .edges()
        .find(|e| !is_tree_edge(e.lo(), e.hi()))
        .expect("fixture must have a non-tree edge");
    cases.push((
        DeltaClass::TreePreserving,
        "non-tree-edge delete",
        Delta::DeleteEdge(chord.lo(), chord.hi()),
    ));

    // TreeRepairable: delete a tree edge whose child endpoint keeps
    // another strictly-shallower neighbor — the subtree re-hangs under it.
    let repairable = g
        .edges()
        .find(|e| {
            let c = if tree.parent[e.lo().index()] == Some(e.hi()) {
                e.lo()
            } else if tree.parent[e.hi().index()] == Some(e.lo()) {
                e.hi()
            } else {
                return false;
            };
            g.neighbors(c).iter().any(|&w| {
                tree.depth[w.index()] + 1 == tree.depth[c.index()]
                    && Some(w) != tree.parent[c.index()]
            })
        })
        .expect("fixture must have a repairable tree edge");
    cases.push((
        DeltaClass::TreeRepairable,
        "tree-edge delete with alternative parent",
        Delta::DeleteEdge(repairable.lo(), repairable.hi()),
    ));

    // TreeRepairable again: an insert spanning two or more BFS levels
    // shortens distances, and the measured repair covers the cascade.
    let mut shortcut = None;
    'outer: for u in g.vertices() {
        for v in g.vertices() {
            if u < v
                && !g.has_edge(u, v)
                && tree.depth[u.index()].abs_diff(tree.depth[v.index()]) >= 2
            {
                let mut m = g.clone();
                m.add_edge(u, v).unwrap();
                if planar_lib::embed(&m).is_ok() {
                    shortcut = Some(Delta::InsertEdge(u, v));
                    break 'outer;
                }
            }
        }
    }
    cases.push((
        DeltaClass::TreeRepairable,
        "distance-shortening insert",
        shortcut.expect("fixture must have a planar long-range insert"),
    ));

    // VertexSetChange, arrival flavor: a pendant node arrives as a fresh
    // leaf under its anchor.
    cases.push((
        DeltaClass::VertexSetChange,
        "pendant arrival",
        Delta::AddNode {
            attach: vec![VertexId(0)],
        },
    ));

    // VertexSetChange, departure flavor: a tree leaf departs with a
    // monotone renumbering of everything above it.
    let leaf = g
        .vertices()
        .find(|&v| {
            tree.children[v.index()].is_empty() && v != tree.root && {
                let mut m = g.clone();
                m.remove_vertex(v).unwrap();
                m.is_connected()
            }
        })
        .expect("fixture must have a removable tree leaf");
    cases.push((
        DeltaClass::VertexSetChange,
        "leaf departure",
        Delta::RemoveNode(leaf),
    ));

    // Fallback: the root departs, and the full run re-elects.
    cases.push((
        DeltaClass::Fallback,
        "root departure",
        Delta::RemoveNode(tree.root),
    ));
    cases
}

fn audited_service(kernel: Kernel, audit: &std::sync::Arc<AuditSink>) -> ServiceState {
    let mut cfg = ServiceConfig {
        kernel,
        certify: true,
        oracle: OracleMode::Always,
        ..ServiceConfig::default()
    };
    cfg.sim.trace = TraceHandle::to(audit.clone());
    ServiceState::new(cfg)
}

/// A lossy-links + reliable-delivery configuration for the chaos leg's
/// from-scratch re-embeds.
fn chaos_cfg(kernel: Kernel) -> EmbedderConfig {
    EmbedderConfig {
        sim: SimConfig {
            faults: FaultPlan::uniform(23, 0.05, 0.02, 0.05, 2),
            ..SimConfig::default()
        },
        reliability: Some(ReliableConfig::default()),
        certify: true,
        kernel,
        ..EmbedderConfig::default()
    }
}

/// Runs every class case on `kernel`, one fresh tenant per case, and
/// checks class, bit-identity, and (optionally) the chaos+reliable
/// from-scratch agreement.
fn run_cases(kernel: Kernel, chaos: bool) {
    let g = gen::grid(6, 6);
    for (expected, name, delta) in class_cases(&g) {
        let audit = AuditSink::new();
        let mut svc = audited_service(kernel, &audit);
        let id = svc.create_tenant(g.clone()).unwrap();
        let outcome = svc
            .apply(id, delta.clone())
            .unwrap_or_else(|e| panic!("{kernel:?}/{name}: {e}"));
        let DeltaOutcome::Applied { report, .. } = &outcome else {
            panic!("{kernel:?}/{name}: expected Applied, got {outcome:?}");
        };
        assert_eq!(
            report.taken(),
            expected,
            "{kernel:?}/{name}: wrong class taken ({:?})",
            report.path
        );
        let tenant = svc.tenant(id).unwrap();
        let record = tenant.records().last().unwrap();
        assert_eq!(record.class, Some(expected), "{kernel:?}/{name}");
        if expected.is_incremental() {
            assert!(record.dirty_region > 0, "{kernel:?}/{name}");
        } else {
            assert_eq!(record.dirty_region, 0, "{kernel:?}/{name}");
        }
        assert!(
            record.diverged.is_none(),
            "{kernel:?}/{name}: {}",
            record.diverged.as_deref().unwrap()
        );
        assert_eq!(svc.divergences(), 0);
        assert!(
            tenant.certification().is_some_and(|c| c.accepted()),
            "{kernel:?}/{name}: resident certification not accepted"
        );
        assert!(audit.ok(), "{kernel:?}/{name}: kernel audit violations");

        if chaos {
            // The chaos leg: a from-scratch embed of the mutated graph
            // under lossy links + reliable delivery must, when it
            // survives, agree with the resident bit for bit. (Residents
            // themselves are fault-free by contract; chaos exercises the
            // oracle side of the bit-identity equation.)
            match embed_distributed(tenant.graph(), &chaos_cfg(kernel)) {
                Ok(full) => {
                    assert_eq!(
                        tenant.rotation(),
                        &full.rotation,
                        "{kernel:?}/{name}: chaos+reliable re-embed diverged"
                    );
                    let cert = full.certification.expect("certify was requested");
                    assert!(cert.accepted(), "{kernel:?}/{name}");
                }
                Err(EmbedError::Degraded { .. }) => {
                    // Losing a phase to chaos is legitimate; only
                    // divergence would be a bug.
                }
                Err(e) => panic!("{kernel:?}/{name}: chaos re-embed failed: {e}"),
            }
        }
    }
}

#[test]
fn every_class_conforms_on_the_fast_kernel() {
    run_cases(Kernel::Fast, false);
}

#[test]
fn every_class_conforms_on_the_reference_kernel() {
    run_cases(Kernel::Reference, false);
}

#[test]
fn every_class_conforms_under_chaos_with_reliable_delivery_fast() {
    run_cases(Kernel::Fast, true);
}

#[test]
fn every_class_conforms_under_chaos_with_reliable_delivery_reference() {
    run_cases(Kernel::Reference, true);
}

/// The regression the delta planner exists for: before it, *every* edge
/// insert fell back to a full re-embed (the old incremental path only
/// survived deltas that reproduced the whole tree, and inserts were
/// pre-classified as tree-changing). A same-level chord must now take
/// the incremental path.
#[test]
fn inserts_no_longer_take_the_full_fallback() {
    let g = gen::grid(6, 6);
    let tree = tree_of(&g);
    let mut pick = None;
    'outer: for u in g.vertices() {
        for v in g.vertices() {
            if u < v && !g.has_edge(u, v) && tree.depth[u.index()] == tree.depth[v.index()] {
                let mut m = g.clone();
                m.add_edge(u, v).unwrap();
                if planar_lib::embed(&m).is_ok() {
                    pick = Some((u, v));
                    break 'outer;
                }
            }
        }
    }
    let (u, v) = pick.expect("a grid has a planar same-level chord");
    let audit = AuditSink::new();
    let mut svc = audited_service(Kernel::Fast, &audit);
    let id = svc.create_tenant(g).unwrap();
    let outcome = svc.apply(id, Delta::InsertEdge(u, v)).unwrap();
    let DeltaOutcome::Applied { report, .. } = &outcome else {
        panic!("expected Applied, got {outcome:?}");
    };
    assert!(
        report.is_incremental(),
        "inserts must no longer be a guaranteed full fallback: {:?}",
        report.path
    );
    assert_eq!(report.taken(), DeltaClass::TreePreserving);
    assert_eq!(svc.divergences(), 0);
    assert!(audit.ok());
}

/// Arrivals and departures — the vertex-set deltas that used to be an
/// unconditional `FullCause::VertexSetChanged` — now re-embed
/// incrementally and stay bit-identical through a whole add/remove cycle.
#[test]
fn vertex_set_deltas_no_longer_take_the_full_fallback() {
    let g = gen::wheel(12);
    let audit = AuditSink::new();
    let mut svc = audited_service(Kernel::Fast, &audit);
    let id = svc.create_tenant(g.clone()).unwrap();
    let out = svc
        .apply(
            id,
            Delta::AddNode {
                attach: vec![VertexId(2)],
            },
        )
        .unwrap();
    let DeltaOutcome::Applied { report, .. } = &out else {
        panic!("expected Applied, got {out:?}");
    };
    assert_eq!(
        report.taken(),
        DeltaClass::VertexSetChange,
        "{:?}",
        report.path
    );
    // The arrived pendant is a tree leaf; its departure restores the graph.
    let fresh = VertexId::from_index(g.vertex_count());
    let out = svc.apply(id, Delta::RemoveNode(fresh)).unwrap();
    let DeltaOutcome::Applied { report, .. } = &out else {
        panic!("expected Applied, got {out:?}");
    };
    assert_eq!(
        report.taken(),
        DeltaClass::VertexSetChange,
        "{:?}",
        report.path
    );
    assert_eq!(svc.tenant(id).unwrap().graph(), &g);
    assert_eq!(svc.divergences(), 0);
    assert!(audit.ok());
}
