//! Trace conformance suite: the two kernels must tell the *same story*,
//! not just reach the same final states.
//!
//! The determinism suite pins final program states and `Metrics`; these
//! tests pin the event streams. Both kernels emit per-round
//! [`TraceEvent`]s, and within a round the fast kernel groups work by
//! recipient in arc-index order while the reference kernel groups by
//! sorted recipient id — so the streams are compared as per-round
//! *multisets*: round boundaries (`RunStart`, `RoundStart`, `RoundEnd`,
//! `Watchdog`, `RunEnd`) must agree exactly and in order, and the events
//! between two boundaries must be equal up to reordering.
//!
//! Every run here also replays through [`TraceAuditor`], which recomputes
//! `Metrics` from the stream alone and diffs them against what the kernel
//! reported.

mod common;

use common::{bcast_floods, bcast_transcripts, expanded};
use congest_sim::reference::run_reference;
use congest_sim::{
    run, AuditSink, FaultPlan, LinkDown, MemorySink, NodeCtx, NodeProgram, SimConfig, SimError,
    SimOutcome, TraceEvent, TraceHandle, TraceSink,
};
use planar_graph::{Graph, VertexId};

/// Max-flood (same shape as the determinism suite): touches every edge
/// repeatedly and quiesces on its own.
#[derive(Clone, Debug, PartialEq, Eq)]
struct MaxFlood {
    best: u32,
}

impl NodeProgram for MaxFlood {
    type Msg = u32;

    fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, u32)>) {
        out.extend(ctx.neighbors.iter().map(|&w| (w, self.best)));
    }

    fn on_round(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: &[(VertexId, u32)],
        out: &mut Vec<(VertexId, u32)>,
    ) {
        let incoming = inbox.iter().map(|&(_, v)| v).max().unwrap_or(0);
        if incoming > self.best {
            self.best = incoming;
            out.extend(ctx.neighbors.iter().map(|&w| (w, self.best)));
        }
    }
}

fn flood_programs(g: &Graph) -> Vec<MaxFlood> {
    (0..g.vertex_count())
        .map(|i| MaxFlood {
            best: (i as u32 * 7) % 64,
        })
        .collect()
}

fn grid(rows: usize, cols: usize, diagonals: bool) -> Graph {
    let idx = |r: usize, c: usize| (r * cols + c) as u32;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((idx(r, c), idx(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push((idx(r, c), idx(r + 1, c)));
            }
            if diagonals && r + 1 < rows && c + 1 < cols {
                edges.push((idx(r, c), idx(r + 1, c + 1)));
            }
        }
    }
    Graph::from_edges(rows * cols, edges).unwrap()
}

fn star(n: usize) -> Graph {
    Graph::from_edges(n, (1..n as u32).map(|i| (0, i))).unwrap()
}

fn path(n: usize) -> Graph {
    Graph::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1))).unwrap()
}

fn workloads() -> Vec<(&'static str, Graph)> {
    vec![
        ("path32", path(32)),
        ("star17", star(17)),
        ("grid8x8", grid(8, 8, false)),
        ("trigrid6x6", grid(6, 6, true)),
    ]
}

/// The determinism suite's fault-plan bouquet.
fn fault_plans() -> Vec<(&'static str, FaultPlan)> {
    let drops = FaultPlan::uniform(11, 0.15, 0.0, 0.0, 0);
    let chaos = FaultPlan::uniform(12, 0.1, 0.1, 0.2, 3);
    let mut crashes = FaultPlan::default();
    crashes.crashes.push((VertexId(2), 3));
    crashes.crashes.push((VertexId(5), 0));
    let mut outage = FaultPlan::default();
    outage.link_down.push(LinkDown {
        from: VertexId(0),
        to: VertexId(1),
        start: 2,
        end: 5,
    });
    outage.link_down.push(LinkDown {
        from: VertexId(1),
        to: VertexId(0),
        start: 2,
        end: 5,
    });
    let mut everything = FaultPlan::uniform(13, 0.08, 0.05, 0.15, 2);
    everything.crashes.push((VertexId(3), 4));
    everything.link_down.push(LinkDown {
        from: VertexId(1),
        to: VertexId(2),
        start: 1,
        end: 3,
    });
    vec![
        ("drops", drops),
        ("chaos", chaos),
        ("crashes", crashes),
        ("outage", outage),
        ("everything", everything),
    ]
}

/// True for the events whose *position* in the stream is part of the
/// contract — everything between two boundaries may differ in order
/// across kernels (they group a round's work by recipient differently).
fn is_boundary(ev: &TraceEvent) -> bool {
    matches!(
        ev,
        TraceEvent::RunStart { .. }
            | TraceEvent::RoundStart { .. }
            | TraceEvent::RoundEnd { .. }
            | TraceEvent::Watchdog { .. }
            | TraceEvent::RunEnd { .. }
    )
}

/// Canonical form of a stream: boundary events stay put, each inter-
/// boundary span collapses to its sorted JSON lines.
fn normalize(events: &[TraceEvent]) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = Vec::new();
    let mut span: Vec<String> = Vec::new();
    for ev in events {
        if is_boundary(ev) {
            if !span.is_empty() {
                span.sort();
                out.push(std::mem::take(&mut span));
            }
            out.push(vec![congest_sim::trace::event_json(ev)]);
        } else {
            span.push(congest_sim::trace::event_json(ev));
        }
    }
    if !span.is_empty() {
        span.sort();
        out.push(span);
    }
    out
}

type Runner<P> = fn(&Graph, Vec<P>, &SimConfig) -> Result<SimOutcome<P>, SimError>;

fn capture<P: NodeProgram>(
    runner: Runner<P>,
    g: &Graph,
    programs: Vec<P>,
    cfg: &SimConfig,
) -> Vec<TraceEvent> {
    let sink = MemorySink::unbounded();
    let mut traced = cfg.clone();
    traced.trace = TraceHandle::to(sink.clone());
    runner(g, programs, &traced).expect("traced run completes");
    sink.events()
}

/// Tentpole conformance: fault-free, both kernels emit per-round-
/// equivalent event streams on every workload.
#[test]
fn kernels_emit_equivalent_streams_fault_free() {
    let cfg = SimConfig::default();
    for (name, g) in workloads() {
        let fast = capture(run, &g, flood_programs(&g), &cfg);
        let slow = capture(run_reference, &g, flood_programs(&g), &cfg);
        assert_eq!(
            normalize(&fast),
            normalize(&slow),
            "{name}: event streams diverge"
        );
        assert!(
            fast.iter().any(|e| matches!(e, TraceEvent::Send { .. })),
            "{name}: stream must contain sends"
        );
    }
}

/// Under every fault plan of the determinism bouquet, the streams still
/// agree as per-round multisets — drops, duplicates, delays, crashes and
/// link outages are narrated identically by both kernels.
#[test]
fn kernels_emit_equivalent_streams_under_faults() {
    for (plan_name, plan) in fault_plans() {
        let cfg = SimConfig {
            faults: plan,
            ..SimConfig::default()
        };
        for (name, g) in workloads() {
            let fast = capture(run, &g, flood_programs(&g), &cfg);
            let slow = capture(run_reference, &g, flood_programs(&g), &cfg);
            assert_eq!(
                normalize(&fast),
                normalize(&slow),
                "{name}/{plan_name}: event streams diverge"
            );
        }
    }
}

/// The auditor accepts both kernels on every workload × fault plan, and
/// its independently recomputed totals agree across kernels.
#[test]
fn auditor_accepts_both_kernels_across_the_fault_matrix() {
    let mut plans = fault_plans();
    plans.push(("fault-free", FaultPlan::default()));
    for (plan_name, plan) in plans {
        let cfg = SimConfig {
            faults: plan,
            ..SimConfig::default()
        };
        for (name, g) in workloads() {
            let label = format!("{name}/{plan_name}");
            let fast_audit = AuditSink::new();
            let mut fast_cfg = cfg.clone();
            fast_cfg.trace = TraceHandle::to(fast_audit.clone());
            run(&g, flood_programs(&g), &fast_cfg).expect("fast run completes");
            let slow_audit = AuditSink::new();
            let mut slow_cfg = cfg.clone();
            slow_cfg.trace = TraceHandle::to(slow_audit.clone());
            run_reference(&g, flood_programs(&g), &slow_cfg).expect("reference run completes");
            let fast_report = fast_audit.report();
            let slow_report = slow_audit.report();
            assert!(
                fast_report.mismatches.is_empty(),
                "{label}: fast kernel drifted: {:?}",
                fast_report.mismatches
            );
            assert!(
                slow_report.mismatches.is_empty(),
                "{label}: reference kernel drifted: {:?}",
                slow_report.mismatches
            );
            assert_eq!(fast_report.segments, 1, "{label}");
            assert_eq!(fast_report.aborted_segments, 0, "{label}");
            assert_eq!(
                fast_report.totals, slow_report.totals,
                "{label}: recomputed totals diverge"
            );
            assert_eq!(
                fast_report.profile.len(),
                fast_report.totals.rounds,
                "{label}: one profile row per delivering round"
            );
        }
    }
}

/// A watchdogged run is narrated as an aborted segment: the stream ends
/// with `Watchdog` instead of `RunEnd`, the auditor raises no mismatch
/// (there is nothing to diff), and the partial rounds are still profiled.
#[test]
fn watchdogged_runs_audit_as_aborted_segments() {
    let g = path(32);
    let cfg = SimConfig {
        watchdog: Some(5),
        ..SimConfig::default()
    };
    let runners: [(&str, Runner<MaxFlood>); 2] = [("fast", run), ("reference", run_reference)];
    for (name, runner) in runners {
        let sink = MemorySink::unbounded();
        let audit = AuditSink::new();
        let mut traced = cfg.clone();
        traced.trace = TraceHandle::to(sink.clone());
        let err = runner(&g, flood_programs(&g), &traced).unwrap_err();
        assert_eq!(err, SimError::WatchdogTimeout { limit: 5 }, "{name}");
        let events = sink.events();
        assert!(
            matches!(events.last(), Some(TraceEvent::Watchdog { limit: 5 })),
            "{name}: stream must end with the watchdog event"
        );
        for ev in &events {
            audit.record(ev);
        }
        let report = audit.report();
        assert!(report.mismatches.is_empty(), "{name}: {report:?}");
        assert_eq!(report.segments, 0, "{name}: no segment completed");
        assert_eq!(report.aborted_segments, 1, "{name}");
        assert_eq!(
            report.profile.len(),
            5,
            "{name}: the 5 delivered rounds are still profiled"
        );
    }
}

/// A broadcast is narrated as its unicasts: on the fast kernel the whole
/// event stream of a broadcasting program — one `Send` per neighbor, the
/// `Deliver`s in inbox order, round summaries, fault events — equals, in
/// order, the stream of the same sends spelled as unicasts, fault-free and
/// under every fault plan; and it matches the reference kernel's stream as
/// per-round multisets.
#[test]
fn broadcast_streams_equal_their_expansion() {
    let mut cfgs = vec![("fault_free", SimConfig::default())];
    cfgs.extend(fault_plans().into_iter().map(|(name, plan)| {
        (
            name,
            SimConfig {
                faults: plan,
                ..SimConfig::default()
            },
        )
    }));
    for (cfg_name, cfg) in &cfgs {
        for (name, g) in workloads() {
            let n = g.vertex_count();
            let label = format!("{name}/{cfg_name}");
            let fast = capture(run, &g, bcast_floods(n), cfg);
            assert_eq!(
                fast,
                capture(run, &g, expanded(bcast_floods(n)), cfg),
                "{label}: flood stream differs from its expansion"
            );
            assert_eq!(
                normalize(&fast),
                normalize(&capture(run_reference, &g, bcast_floods(n), cfg)),
                "{label}: flood streams diverge across kernels"
            );
            for extra in [false, true] {
                let fast = capture(run, &g, bcast_transcripts(n, extra), cfg);
                assert_eq!(
                    fast,
                    capture(run, &g, expanded(bcast_transcripts(n, extra)), cfg),
                    "{label}/extra={extra}: transcript stream differs from its expansion"
                );
                assert!(
                    fast.iter().any(|e| matches!(e, TraceEvent::Deliver { .. })),
                    "{label}: stream must contain deliveries"
                );
            }
        }
    }
}
