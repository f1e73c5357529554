//! Conformance suite for the batched entry point (`run_many`).
//!
//! The contract under test is the one the level-synchronous scheduler
//! depends on: running vertex-disjoint instances in one shared round
//! lattice is **observationally equivalent** to running each instance
//! alone — per-instance final states, metrics and fault fates are
//! bit-identical, the batch's shared `rounds` is exactly the
//! `join_parallel` maximum of the instance rounds, both kernels agree,
//! and any cross-instance send aborts the run.

use congest_sim::protocols::{run_reliable, wrapped_budget, Reliable, ReliableConfig};
use congest_sim::reference::{run_reference, run_reference_many};
use congest_sim::{
    run, run_many, AuditSink, FaultPlan, Instance, LinkDown, MemorySink, MultiOutcome, NodeCtx,
    NodeProgram, SimConfig, SimError, SimSession, TraceEvent, TraceHandle,
};
use planar_graph::{Graph, VertexId};

/// Max-flood: every node announces, floods improvements (same workload as
/// the kernel determinism suite).
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

/// Inbox transcript recorder: the strongest determinism witness (any change
/// in delivery order, not just content, changes the state).
#[derive(Clone, Debug, PartialEq, Eq)]
struct Transcript {
    log: Vec<(usize, u32, u64)>,
    hops: u32,
}

impl NodeProgram for Transcript {
    type Msg = u64;

    fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, u64)>) {
        out.extend(ctx.neighbors.iter().map(|&w| (w, u64::from(ctx.id.0) << 8)));
    }

    fn on_round(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: &[(VertexId, u64)],
        out: &mut Vec<(VertexId, u64)>,
    ) {
        for &(from, v) in inbox {
            self.log.push((ctx.round, from.0, v));
        }
        if ctx.round >= usize::from(self.hops as u16) {
            return;
        }
        let min = inbox.iter().map(|&(_, v)| v).min().unwrap_or(0);
        out.extend(ctx.neighbors.iter().map(|&w| (w, min + 1)));
    }
}

/// Gates a program off entirely: `None` is an inert bystander that never
/// sends and never asks for ticks. Used to express "instance `i` running
/// alone" as a plain full-graph run the batched outcome must match.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Gated<P>(Option<P>);

impl<P: NodeProgram> NodeProgram for Gated<P> {
    type Msg = P::Msg;

    fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, Self::Msg)>) {
        if let Some(p) = &mut self.0 {
            p.init(ctx, out);
        }
    }

    fn on_round(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: &[(VertexId, Self::Msg)],
        out: &mut Vec<(VertexId, Self::Msg)>,
    ) {
        if let Some(p) = &mut self.0 {
            p.on_round(ctx, inbox, out);
        }
    }

    fn wants_tick(&self) -> bool {
        self.0.as_ref().is_some_and(|p| p.wants_tick())
    }
}

/// One graph, three mutually unreachable components (a path, a grid and a
/// star side by side in one vertex space) — the simplest shape on which
/// vertex-disjoint instances are also message-disjoint for programs that
/// talk to all their neighbors.
fn components() -> (Graph, Vec<Vec<VertexId>>) {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    // Component 0: path on vertices 0..12.
    edges.extend((0..11).map(|i| (i, i + 1)));
    // Component 1: 4x4 grid on vertices 12..28.
    let gidx = |r: u32, c: u32| 12 + r * 4 + c;
    for r in 0..4 {
        for c in 0..4 {
            if c + 1 < 4 {
                edges.push((gidx(r, c), gidx(r, c + 1)));
            }
            if r + 1 < 4 {
                edges.push((gidx(r, c), gidx(r + 1, c)));
            }
        }
    }
    // Component 2: star on vertices 28..37, centered at 28.
    edges.extend((29..37).map(|i| (28, i)));
    let g = Graph::from_edges(37, edges).unwrap();
    let members = vec![
        (0..12).map(VertexId).collect(),
        (12..28).map(VertexId).collect(),
        (28..37).map(VertexId).collect(),
    ];
    (g, members)
}

fn flood_for(members: &[VertexId]) -> Vec<(VertexId, MaxFlood)> {
    members
        .iter()
        .map(|&v| {
            (
                v,
                MaxFlood {
                    best: (v.0 * 7) % 64,
                },
            )
        })
        .collect()
}

fn transcript_for(members: &[VertexId]) -> Vec<(VertexId, Transcript)> {
    members
        .iter()
        .map(|&v| {
            (
                v,
                Transcript {
                    log: Vec::new(),
                    hops: 6,
                },
            )
        })
        .collect()
}

/// Fault plans the batch must replay identically to individual runs. The
/// crash victims live in different components on purpose.
fn fault_plans() -> Vec<(&'static str, FaultPlan)> {
    let drops = FaultPlan::uniform(11, 0.15, 0.0, 0.0, 0);
    let chaos = FaultPlan::uniform(12, 0.1, 0.1, 0.2, 3);
    let mut crashes = FaultPlan::default();
    crashes.crashes.push((VertexId(5), 3)); // path component
    crashes.crashes.push((VertexId(30), 0)); // star component
    let mut outage = FaultPlan::default();
    for (from, to) in [(0, 1), (1, 0)] {
        outage.link_down.push(LinkDown {
            from: VertexId(from),
            to: VertexId(to),
            start: 2,
            end: 5,
        }); // path component
    }
    let mut everything = FaultPlan::uniform(13, 0.08, 0.05, 0.15, 2);
    everything.crashes.push((VertexId(14), 4)); // grid component
    everything.link_down.push(LinkDown {
        from: VertexId(1),
        to: VertexId(2),
        start: 1,
        end: 3,
    }); // path component
    vec![
        ("drops", drops),
        ("chaos", chaos),
        ("crashes", crashes),
        ("outage", outage),
        ("everything", everything),
    ]
}

/// Runs the batch on both kernels under the trace auditor and checks they
/// agree on everything observable; returns the fast kernel's outcome.
fn run_many_pair<P>(
    label: &str,
    g: &Graph,
    mk: impl Fn() -> Vec<Instance<P>>,
    cfg: &SimConfig,
) -> MultiOutcome<P>
where
    P: NodeProgram + Clone + PartialEq + std::fmt::Debug,
{
    let fast_audit = AuditSink::new();
    let mut fast_cfg = cfg.clone();
    fast_cfg.trace = TraceHandle::to(fast_audit.clone());
    let fast = run_many(g, mk(), &fast_cfg)
        .unwrap_or_else(|e| panic!("{label}: fast batched run failed: {e}"));
    let slow_audit = AuditSink::new();
    let mut slow_cfg = cfg.clone();
    slow_cfg.trace = TraceHandle::to(slow_audit.clone());
    let slow = run_reference_many(g, mk(), &slow_cfg)
        .unwrap_or_else(|e| panic!("{label}: reference batched run failed: {e}"));
    assert_eq!(fast.metrics, slow.metrics, "{label}: batch metrics diverge");
    assert_eq!(
        fast.instances.len(),
        slow.instances.len(),
        "{label}: instance counts diverge"
    );
    for (i, (f, s)) in fast.instances.iter().zip(&slow.instances).enumerate() {
        assert_eq!(f.members, s.members, "{label}: instance {i} members");
        assert_eq!(f.programs, s.programs, "{label}: instance {i} states");
        assert_eq!(f.metrics, s.metrics, "{label}: instance {i} metrics");
    }
    assert!(
        fast_audit.ok(),
        "{label}: fast kernel trace audit failed: {:?}",
        fast_audit.report().mismatches
    );
    assert!(
        slow_audit.ok(),
        "{label}: reference kernel trace audit failed: {:?}",
        slow_audit.report().mismatches
    );
    fast
}

/// Runs instance `i` alone (everyone else gated off) and returns its
/// outcome over the full graph.
fn run_alone<P>(
    label: &str,
    g: &Graph,
    members: &[VertexId],
    programs: Vec<(VertexId, P)>,
    cfg: &SimConfig,
) -> (Vec<P>, congest_sim::Metrics)
where
    P: NodeProgram + Clone + PartialEq + std::fmt::Debug,
{
    let mut gated: Vec<Gated<P>> = (0..g.vertex_count()).map(|_| Gated(None)).collect();
    for (v, p) in programs {
        gated[v.index()] = Gated(Some(p));
    }
    let out = run(g, gated, cfg).unwrap_or_else(|e| panic!("{label}: individual run failed: {e}"));
    let states = members
        .iter()
        .map(|&v| {
            out.programs[v.index()]
                .0
                .clone()
                .expect("member keeps its program")
        })
        .collect();
    (states, out.metrics)
}

/// Tentpole contract: each instance of a batch ends in exactly the state,
/// with exactly the metrics, it would have produced running alone —
/// fault-free and under every fault plan — and the batch totals compose the
/// instance values (`rounds` is their `join_parallel` maximum).
#[test]
fn batched_instances_match_individual_runs() {
    let (g, members) = components();
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
    for (cfg_name, cfg) in cfgs {
        let mk = || {
            members
                .iter()
                .map(|m| Instance::new(flood_for(m)))
                .collect::<Vec<_>>()
        };
        let batch = run_many_pair(&format!("flood/{cfg_name}"), &g, mk, &cfg);
        let mut max_rounds = 0usize;
        let mut sum_messages = 0usize;
        let mut sum_words = 0usize;
        for (i, m) in members.iter().enumerate() {
            let label = format!("flood/{cfg_name}/instance{i}");
            let (alone_states, alone_metrics) = run_alone(&label, &g, m, flood_for(m), &cfg);
            let inst = &batch.instances[i];
            assert_eq!(inst.members, *m, "{label}: members");
            assert_eq!(inst.programs, alone_states, "{label}: states diverge");
            assert_eq!(inst.metrics, alone_metrics, "{label}: metrics diverge");
            max_rounds = max_rounds.max(inst.metrics.rounds);
            sum_messages += inst.metrics.messages;
            sum_words += inst.metrics.words;
        }
        // The shared lattice's cost is the parallel composition of the
        // measured per-instance costs.
        assert_eq!(
            batch.metrics.rounds, max_rounds,
            "{cfg_name}: batch rounds must be the instance maximum"
        );
        assert_eq!(batch.metrics.messages, sum_messages, "{cfg_name}");
        assert_eq!(batch.metrics.words, sum_words, "{cfg_name}");
    }
}

/// Same contract for the transcript workload (order witness), fault-free
/// and under every fault plan, plus replay determinism of the batch
/// itself.
#[test]
fn batched_transcripts_match_individual_runs_and_replay() {
    let (g, members) = components();
    let mut plans = vec![("fault_free", FaultPlan::default())];
    plans.extend(fault_plans());
    for (plan_name, plan) in plans {
        let cfg = SimConfig {
            faults: plan,
            ..SimConfig::default()
        };
        let mk = || {
            members
                .iter()
                .map(|m| Instance::new(transcript_for(m)))
                .collect::<Vec<_>>()
        };
        let batch = run_many_pair(&format!("transcript/{plan_name}"), &g, mk, &cfg);
        let replay = run_many_pair(&format!("transcript/{plan_name}/replay"), &g, mk, &cfg);
        assert_eq!(
            batch.metrics, replay.metrics,
            "{plan_name}: replay diverged"
        );
        for (a, b) in batch.instances.iter().zip(&replay.instances) {
            assert_eq!(
                a.programs, b.programs,
                "{plan_name}: replay states diverged"
            );
            assert_eq!(a.metrics, b.metrics);
        }
        for (i, m) in members.iter().enumerate() {
            let label = format!("transcript/{plan_name}/instance{i}");
            let (alone_states, alone_metrics) = run_alone(&label, &g, m, transcript_for(m), &cfg);
            assert_eq!(batch.instances[i].programs, alone_states, "{label}");
            assert_eq!(batch.instances[i].metrics, alone_metrics, "{label}");
        }
    }
}

/// A batch of one instance is the degenerate case: identical to a plain
/// gated run, on both kernels, including via a reused [`SimSession`]. Over
/// every vertex it is the plain run itself: equal programs and metrics on
/// both kernels, and equal trace streams once the batch's
/// `Assign`/`InstanceEnd` events are dropped, under a fault plan with
/// crashes whose reliable-wrapped programs keep the timer ticks busy.
#[test]
fn single_instance_batch_degenerates_to_a_plain_run() {
    let (g, members) = components();
    let cfg = SimConfig::default();
    let m = &members[1];
    let mk = || vec![Instance::new(flood_for(m))];
    let batch = run_many_pair("single", &g, mk, &cfg);
    let (alone_states, alone_metrics) = run_alone("single", &g, m, flood_for(m), &cfg);
    assert_eq!(batch.instances[0].programs, alone_states);
    assert_eq!(batch.instances[0].metrics, alone_metrics);
    assert_eq!(batch.metrics.rounds, alone_metrics.rounds);

    let mut session = SimSession::new(&g);
    let via_session = session.run(mk(), &cfg).unwrap();
    assert_eq!(via_session.metrics, batch.metrics);
    assert_eq!(
        via_session.instances[0].programs,
        batch.instances[0].programs
    );

    let mut faults = FaultPlan::uniform(31, 0.2, 0.1, 0.2, 2);
    faults.crashes.push((VertexId(5), 3));
    faults.crashes.push((VertexId(30), 0));
    let rel = ReliableConfig::default();
    let every: Vec<VertexId> = g.vertices().collect();
    let pairs = || {
        transcript_for(&every)
            .into_iter()
            .map(|(v, p)| (v, Reliable::new(p, rel.clone())))
            .collect::<Vec<_>>()
    };
    let plain_programs = || pairs().into_iter().map(|(_, p)| p).collect::<Vec<_>>();
    let traced = |sink| SimConfig {
        budget_words: wrapped_budget(congest_sim::DEFAULT_BUDGET_WORDS),
        faults: faults.clone(),
        trace: TraceHandle::to(sink),
        ..SimConfig::default()
    };
    for kernel in ["fast", "reference"] {
        let (plain_sink, batch_sink) = (MemorySink::unbounded(), MemorySink::unbounded());
        let (plain_cfg, batch_cfg) = (traced(plain_sink.clone()), traced(batch_sink.clone()));
        let (plain, batch) = if kernel == "fast" {
            let plain = run(&g, plain_programs(), &plain_cfg).unwrap();
            (
                plain,
                run_many(&g, vec![Instance::new(pairs())], &batch_cfg).unwrap(),
            )
        } else {
            let plain = run_reference(&g, plain_programs(), &plain_cfg).unwrap();
            let batch = run_reference_many(&g, vec![Instance::new(pairs())], &batch_cfg);
            (plain, batch.unwrap())
        };
        assert_eq!(batch.instances[0].programs, plain.programs, "{kernel}");
        assert_eq!(batch.instances[0].metrics, plain.metrics, "{kernel}");
        assert_eq!(batch.metrics, plain.metrics, "{kernel}");
        assert!(plain.metrics.crashed_nodes > 0, "{kernel}: nobody crashed");
        let retransmissions: usize = plain.programs.iter().map(Reliable::retransmissions).sum();
        assert!(retransmissions > 0, "{kernel}: no timer tick retransmitted");
        let plain_events = plain_sink.events();
        let batch_events: Vec<TraceEvent> = batch_sink
            .events()
            .into_iter()
            .filter(|e| {
                !matches!(
                    e,
                    TraceEvent::Assign { .. } | TraceEvent::InstanceEnd { .. }
                )
            })
            .collect();
        assert!(batch_events.len() < batch_sink.events().len(), "{kernel}");
        assert_eq!(plain_events, batch_events, "{kernel}: trace streams differ");
    }
}

/// The reliable wrapper composes with batching: wrapped batched runs match
/// wrapped individual runs, per-instance retransmissions included, and the
/// batch's metrics survive the trace auditor's recomputation.
#[test]
fn reliable_batches_match_individual_reliable_runs() {
    let (g, members) = components();
    let cfg = SimConfig {
        budget_words: 3 * congest_sim::DEFAULT_BUDGET_WORDS + 2,
        faults: FaultPlan::uniform(21, 0.2, 0.1, 0.2, 2),
        ..SimConfig::default()
    };
    let rel = ReliableConfig::default();
    let instances = members
        .iter()
        .map(|m| Instance::new(transcript_for(m)))
        .collect::<Vec<_>>();
    let audit = AuditSink::new();
    let audited = SimConfig {
        trace: TraceHandle::to(audit.clone()),
        ..cfg.clone()
    };
    let batch = run_reliable(&g, instances, &audited, &rel).unwrap();
    assert!(
        audit.ok(),
        "reliable batch trace audit failed: {:?}",
        audit.report().mismatches
    );
    let mut sum_retrans = 0usize;
    for (i, m) in members.iter().enumerate() {
        let label = format!("reliable/instance{i}");
        // Running alone: gate the wrapper itself, so bystanders carry no
        // reliability state at all.
        let mut gated: Vec<Gated<Reliable<Transcript>>> =
            (0..g.vertex_count()).map(|_| Gated(None)).collect();
        for (v, p) in transcript_for(m) {
            gated[v.index()] = Gated(Some(Reliable::new(p, rel.clone())));
        }
        let alone = run(&g, gated, &cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
        let mut alone_metrics = alone.metrics;
        let mut alone_retrans = 0usize;
        let alone_states: Vec<Transcript> = m
            .iter()
            .map(|&v| {
                let w = alone.programs[v.index()].0.clone().expect("member");
                alone_retrans += w.retransmissions();
                w.into_inner()
            })
            .collect();
        alone_metrics.retransmissions += alone_retrans;
        assert_eq!(batch.instances[i].programs, alone_states, "{label}");
        assert_eq!(batch.instances[i].metrics, alone_metrics, "{label}");
        sum_retrans += alone_retrans;
    }
    assert_eq!(batch.metrics.retransmissions, sum_retrans);
}

/// Isolation is enforced, not assumed: a program that messages a neighbor
/// owned by another instance aborts the batch with `CrossInstanceSend`, and
/// both kernels report the identical error.
#[test]
fn cross_instance_sends_are_rejected() {
    let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
    // MaxFlood floods to *all* neighbors, so splitting a connected path
    // across two instances guarantees traffic over the 1-2 edge.
    let mk = || {
        vec![
            Instance::new(flood_for(&[VertexId(0), VertexId(1)])),
            Instance::new(flood_for(&[VertexId(2), VertexId(3)])),
        ]
    };
    let cfg = SimConfig::default();
    let fast = run_many(&g, mk(), &cfg).unwrap_err();
    let slow = run_reference_many(&g, mk(), &cfg).unwrap_err();
    assert_eq!(fast, slow);
    assert!(
        matches!(fast, SimError::CrossInstanceSend { .. }),
        "expected CrossInstanceSend, got {fast}"
    );
    // A send to an unassigned bystander is a violation too.
    let mk_partial = || vec![Instance::new(flood_for(&[VertexId(0), VertexId(1)]))];
    let fast = run_many(&g, mk_partial(), &cfg).unwrap_err();
    let slow = run_reference_many(&g, mk_partial(), &cfg).unwrap_err();
    assert_eq!(fast, slow);
    assert!(matches!(fast, SimError::CrossInstanceSend { .. }));
}

/// Disjointness is asserted at batch setup.
#[test]
#[should_panic(expected = "vertex-disjoint")]
fn overlapping_instances_panic() {
    let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
    let _ = run_many(
        &g,
        vec![
            Instance::new(flood_for(&[VertexId(0), VertexId(1)])),
            Instance::new(flood_for(&[VertexId(1), VertexId(2)])),
        ],
        &SimConfig::default(),
    );
}
