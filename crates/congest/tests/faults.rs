//! Property tests of the fault-injection subsystem: replayability,
//! crash-stop semantics, crash policies, and no-hang guarantees — each
//! checked on *both* kernels (the conformance contract extends to every
//! fault feature).

use congest_sim::reference::run_reference;
use congest_sim::{
    run, CrashPolicy, FaultPlan, LinkFaults, NodeCtx, NodeProgram, SimConfig, SimError,
};
use planar_graph::{Graph, VertexId};

/// Every node floods a token once on first receipt; node 0 starts.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Flood {
    seen: bool,
    heard_from: Vec<VertexId>,
}

impl NodeProgram for Flood {
    type Msg = u32;

    fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, u32)>) {
        if ctx.id == VertexId(0) {
            self.seen = true;
            out.extend(ctx.neighbors.iter().map(|&w| (w, 1)));
        }
    }

    fn on_round(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: &[(VertexId, u32)],
        out: &mut Vec<(VertexId, u32)>,
    ) {
        for &(from, _) in inbox {
            self.heard_from.push(from);
        }
        if self.seen || inbox.is_empty() {
            return;
        }
        self.seen = true;
        out.extend(ctx.neighbors.iter().map(|&w| (w, 1)));
    }
}

fn programs(g: &Graph) -> Vec<Flood> {
    vec![
        Flood {
            seen: false,
            heard_from: Vec::new(),
        };
        g.vertex_count()
    ]
}

fn path(n: usize) -> Graph {
    Graph::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1))).unwrap()
}

fn grid(w: usize, h: usize) -> Graph {
    let mut edges = Vec::new();
    let id = |x: usize, y: usize| (y * w + x) as u32;
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                edges.push((id(x, y), id(x + 1, y)));
            }
            if y + 1 < h {
                edges.push((id(x, y), id(x, y + 1)));
            }
        }
    }
    Graph::from_edges(w * h, edges).unwrap()
}

/// Property (a): the default (empty) plan is byte-identical to the
/// pre-fault-subsystem behavior on both kernels.
#[test]
fn default_plan_is_fault_free() {
    let g = grid(5, 5);
    let base_cfg = SimConfig::default();
    let explicit = SimConfig {
        faults: FaultPlan::default(),
        watchdog: None,
        ..SimConfig::default()
    };
    let a = run(&g, programs(&g), &base_cfg).unwrap();
    let b = run(&g, programs(&g), &explicit).unwrap();
    let r = run_reference(&g, programs(&g), &explicit).unwrap();
    assert_eq!(a.programs, b.programs);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.programs, r.programs);
    assert_eq!(a.metrics, r.metrics);
    assert_eq!(
        a.metrics.dropped + a.metrics.duplicated + a.metrics.delayed,
        0
    );
}

/// Property (b): a fixed `(seed, plan)` replays identically — across
/// reruns and across kernels — for plans combining every fault feature.
#[test]
fn same_seed_and_plan_replay_identically() {
    let g = grid(6, 6);
    let mut plan = FaultPlan::uniform(424242, 0.12, 0.06, 0.18, 3);
    plan.crashes.push((VertexId(17), 4));
    for seed_shift in 0..3u64 {
        let mut p = plan.clone();
        p.seed = plan.seed + seed_shift;
        let cfg = SimConfig {
            faults: p,
            ..SimConfig::default()
        };
        let a = run(&g, programs(&g), &cfg).unwrap();
        let b = run(&g, programs(&g), &cfg).unwrap();
        let r = run_reference(&g, programs(&g), &cfg).unwrap();
        assert_eq!(a.programs, b.programs, "fast kernel replay diverged");
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.programs, r.programs, "kernels diverged under plan");
        assert_eq!(a.metrics, r.metrics, "metrics diverged under plan");
    }
}

/// Different seeds actually produce different fault schedules (the RNG is
/// not inert).
#[test]
fn different_seeds_differ() {
    let g = grid(6, 6);
    let outcomes: Vec<_> = (0..4u64)
        .map(|seed| {
            let cfg = SimConfig {
                faults: FaultPlan::uniform(seed, 0.3, 0.0, 0.3, 2),
                ..SimConfig::default()
            };
            run(&g, programs(&g), &cfg).unwrap()
        })
        .collect();
    assert!(
        outcomes
            .windows(2)
            .any(|w| w[0].programs != w[1].programs || w[0].metrics != w[1].metrics),
        "four different seeds produced identical faulty outcomes"
    );
}

/// Property (c): drop rate 1.0 on a cut edge terminates (quiescence, not a
/// hang) with the far side never reached — on both kernels.
#[test]
fn dead_cut_edge_quiesces_without_delivery() {
    let g = path(8);
    let mut plan = FaultPlan {
        seed: 3,
        ..FaultPlan::default()
    };
    for (a, b) in [(3u32, 4u32), (4, 3)] {
        plan.link_overrides.push((
            (VertexId(a), VertexId(b)),
            LinkFaults {
                drop: 1.0,
                duplicate: 0.0,
                delay: 0.0,
                max_delay: 0,
            },
        ));
    }
    let cfg = SimConfig {
        faults: plan,
        ..SimConfig::default()
    };
    let fast = run(&g, programs(&g), &cfg).expect("must quiesce, not hang");
    let slow = run_reference(&g, programs(&g), &cfg).unwrap();
    assert_eq!(fast.programs, slow.programs);
    assert_eq!(fast.metrics, slow.metrics);
    for i in 0..8 {
        assert_eq!(fast.programs[i].seen, i <= 3, "node {i}");
    }
    assert!(fast.metrics.dropped > 0);
}

/// Crash-stop: a node crashed at round 0 does nothing at all; in-flight
/// messages to nodes that crash before delivery are discarded; neighbors
/// never hear from the dead.
#[test]
fn crash_stop_semantics() {
    let g = path(5);
    let mut plan = FaultPlan::default();
    plan.crashes.push((VertexId(2), 0));
    let cfg = SimConfig {
        faults: plan,
        ..SimConfig::default()
    };
    let fast = run(&g, programs(&g), &cfg).unwrap();
    let slow = run_reference(&g, programs(&g), &cfg).unwrap();
    assert_eq!(fast.programs, slow.programs);
    assert_eq!(fast.metrics, slow.metrics);
    // The flood dies at the crashed node: 3 and 4 never hear anything.
    assert!(fast.programs[1].seen);
    assert!(!fast.programs[3].seen && !fast.programs[4].seen);
    assert!(fast
        .programs
        .iter()
        .all(|p| !p.heard_from.contains(&VertexId(2))));
    assert_eq!(fast.metrics.crashed_nodes, 1);
}

/// `CrashPolicy::Error` surfaces sends to crashed destinations as the
/// typed `DestinationCrashed` error — identically on both kernels.
#[test]
fn crash_policy_error_matches_across_kernels() {
    let g = path(3);
    let mut plan = FaultPlan::default();
    plan.crashes.push((VertexId(1), 0));
    plan.on_crashed_send = CrashPolicy::Error;
    let cfg = SimConfig {
        faults: plan,
        ..SimConfig::default()
    };
    let fast = run(&g, programs(&g), &cfg).unwrap_err();
    let slow = run_reference(&g, programs(&g), &cfg).unwrap_err();
    assert_eq!(fast, slow);
    assert!(
        matches!(
            fast,
            SimError::DestinationCrashed {
                from: VertexId(0),
                to: VertexId(1),
                round: 0,
            }
        ),
        "got {fast:?}"
    );
}

/// The watchdog bounds faulty runs: a plan that keeps traffic alive past
/// the limit times out identically on both kernels, and the error Display
/// names the limit.
#[test]
fn watchdog_bounds_delayed_traffic() {
    let g = path(16);
    let cfg = SimConfig {
        watchdog: Some(3),
        faults: FaultPlan::uniform(8, 0.0, 0.0, 1.0, 6),
        ..SimConfig::default()
    };
    let fast = run(&g, programs(&g), &cfg).unwrap_err();
    let slow = run_reference(&g, programs(&g), &cfg).unwrap_err();
    assert_eq!(fast, slow);
    assert_eq!(fast, SimError::WatchdogTimeout { limit: 3 });
    assert!(fast.to_string().contains('3'));
}

/// Duplication inflates delivery counts deterministically and both kernels
/// agree on the duplicated transcript (duplicates arrive adjacently).
#[test]
fn duplication_is_deterministic_and_conformant() {
    let g = grid(4, 4);
    let cfg = SimConfig {
        faults: FaultPlan::uniform(55, 0.0, 0.5, 0.0, 0),
        ..SimConfig::default()
    };
    let a = run(&g, programs(&g), &cfg).unwrap();
    let r = run_reference(&g, programs(&g), &cfg).unwrap();
    assert_eq!(a.programs, r.programs);
    assert_eq!(a.metrics, r.metrics);
    assert!(a.metrics.duplicated > 0);
    assert_eq!(a.metrics.dropped, 0);
}

/// Regression: `Metrics::crashed_nodes` counts nodes of *this graph* that
/// crashed, not plan entries. A plan is graph-agnostic and may name
/// vertices beyond the vertex range (e.g. one plan shared across substrate
/// sizes); those phantom victims must not inflate the counter. Pre-fix,
/// both kernels reported the plan-level count (1 here) instead of 0.
#[test]
fn out_of_range_crash_victims_are_not_counted() {
    let g = path(4);
    let mut plan = FaultPlan::uniform(9, 0.0, 0.0, 0.0, 0);
    plan.crashes.push((VertexId(999), 0)); // no such node on 4 vertices
    let cfg = SimConfig {
        faults: plan,
        ..SimConfig::default()
    };
    let fast = run(&g, programs(&g), &cfg).unwrap();
    let slow = run_reference(&g, programs(&g), &cfg).unwrap();
    assert_eq!(fast.metrics, slow.metrics);
    assert_eq!(fast.metrics.crashed_nodes, 0);

    // A mixed plan: one real victim, one phantom — exactly one counted.
    let mut plan = FaultPlan::uniform(9, 0.0, 0.0, 0.0, 0);
    plan.crashes.push((VertexId(2), 1));
    plan.crashes.push((VertexId(4), 0)); // first out-of-range id
    let cfg = SimConfig {
        faults: plan,
        ..SimConfig::default()
    };
    let fast = run(&g, programs(&g), &cfg).unwrap();
    let slow = run_reference(&g, programs(&g), &cfg).unwrap();
    assert_eq!(fast.metrics, slow.metrics);
    assert_eq!(fast.metrics.crashed_nodes, 1);
}
