//! Determinism conformance suite for the simulation kernel.
//!
//! The allocation-free kernel (`congest_sim::run`) must be byte-for-byte
//! equivalent to the seed kernel preserved in
//! `congest_sim::reference::run_reference`: identical final program states,
//! identical [`Metrics`], identical errors. These tests pin that contract
//! so kernel optimizations cannot silently introduce ordering
//! nondeterminism — the property the round-count measurements in
//! EXPERIMENTS.md depend on.

use congest_sim::protocols::{Reliable, ReliableConfig};
use congest_sim::reference::run_reference;
use congest_sim::{
    run, AuditSink, FaultPlan, LinkDown, MemorySink, Metrics, NodeCtx, NodeProgram, SimConfig,
    SimError, Simulator, TraceEvent, TraceHandle,
};
use planar_graph::{Graph, VertexId};

/// Max-flood: every node announces, floods improvements. Deterministic and
/// touches every edge repeatedly.
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

/// Inbox transcript recorder: state is the full ordered history of
/// `(round, from, value)` triples — the strongest determinism witness, since
/// any change in delivery *order*, not just content, changes the state.
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
        // Forward a decremented copy of the smallest value to all neighbors.
        let min = inbox.iter().map(|&(_, v)| v).min().unwrap_or(0);
        out.extend(ctx.neighbors.iter().map(|&w| (w, min + 1)));
    }
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

fn flood_programs(g: &Graph) -> Vec<MaxFlood> {
    (0..g.vertex_count())
        .map(|i| MaxFlood {
            best: (i as u32 * 7) % 64,
        })
        .collect()
}

fn transcript_programs(g: &Graph) -> Vec<Transcript> {
    (0..g.vertex_count())
        .map(|_| Transcript {
            log: Vec::new(),
            hops: 6,
        })
        .collect()
}

fn run_pair<P: NodeProgram + Clone + PartialEq + std::fmt::Debug>(
    name: &str,
    g: &Graph,
    programs: Vec<P>,
    cfg: &SimConfig,
) -> (Vec<P>, Metrics) {
    // Both kernels run under the trace auditor: every conformance workload
    // doubles as a check that the reported Metrics survive independent
    // recomputation from the event stream.
    let fast_audit = AuditSink::new();
    let mut fast_cfg = cfg.clone();
    fast_cfg.trace = TraceHandle::to(fast_audit.clone());
    let fast = run(g, programs.clone(), &fast_cfg)
        .unwrap_or_else(|e| panic!("{name}: fast kernel failed: {e}"));
    let slow_audit = AuditSink::new();
    let mut slow_cfg = cfg.clone();
    slow_cfg.trace = TraceHandle::to(slow_audit.clone());
    let slow = run_reference(g, programs, &slow_cfg)
        .unwrap_or_else(|e| panic!("{name}: reference kernel failed: {e}"));
    assert_eq!(fast.programs, slow.programs, "{name}: final states diverge");
    assert_eq!(fast.metrics, slow.metrics, "{name}: metrics diverge");
    assert!(
        fast_audit.ok(),
        "{name}: fast kernel trace audit failed: {:?}",
        fast_audit.report().mismatches
    );
    assert!(
        slow_audit.ok(),
        "{name}: reference kernel trace audit failed: {:?}",
        slow_audit.report().mismatches
    );
    (fast.programs, fast.metrics)
}

/// Three identical runs of the fast kernel agree with each other and with
/// the reference kernel, on every workload, for both program shapes.
#[test]
fn kernels_agree_and_reruns_are_identical() {
    let cfg = SimConfig::default();
    for (name, g) in workloads() {
        let (s1, m1) = run_pair(name, &g, flood_programs(&g), &cfg);
        for _ in 0..2 {
            let (s, m) = run_pair(name, &g, flood_programs(&g), &cfg);
            assert_eq!(s, s1, "{name}: flood rerun diverged");
            assert_eq!(m, m1, "{name}: flood rerun metrics diverged");
        }

        let (t1, tm1) = run_pair(name, &g, transcript_programs(&g), &cfg);
        for _ in 0..2 {
            let (t, tm) = run_pair(name, &g, transcript_programs(&g), &cfg);
            assert_eq!(t, t1, "{name}: transcript rerun diverged");
            assert_eq!(tm, tm1, "{name}: transcript rerun metrics diverged");
        }
    }
}

/// A `Simulator` reused across runs — different graphs, and immediately
/// after a run that aborted with an error — behaves exactly like a fresh
/// one: buffer reuse must not leak any state between runs.
#[test]
fn simulator_reuse_matches_fresh_runs() {
    /// Overflows the word budget toward node 0 at init time.
    #[derive(Clone, Debug)]
    struct Overflow;
    impl NodeProgram for Overflow {
        type Msg = u32;
        fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, u32)>) {
            if ctx.id == VertexId(1) {
                out.extend((0..50).map(|i| (VertexId(0), i)));
            }
        }
        fn on_round(
            &mut self,
            _: &NodeCtx<'_>,
            _: &[(VertexId, u32)],
            _: &mut Vec<(VertexId, u32)>,
        ) {
        }
    }

    let cfg = SimConfig::default();
    let mut sim: Simulator<u32> = Simulator::new();
    for round_trip in 0..2 {
        for (name, g) in workloads() {
            let fresh = run(&g, flood_programs(&g), &cfg)
                .unwrap_or_else(|e| panic!("{name}: fresh run failed: {e}"));
            let reused = sim
                .run(&g, flood_programs(&g), &cfg)
                .unwrap_or_else(|e| panic!("{name}: reused run failed: {e}"));
            assert_eq!(
                fresh.programs, reused.programs,
                "{name} (pass {round_trip})"
            );
            assert_eq!(fresh.metrics, reused.metrics, "{name} (pass {round_trip})");

            // Poison the simulator with an aborted run; the next iteration
            // must still match a fresh simulator exactly.
            let n = g.vertex_count();
            let err = sim.run(&g, vec![Overflow; n], &cfg).unwrap_err();
            assert!(
                matches!(err, SimError::BudgetExceeded { .. }),
                "{name}: {err}"
            );
        }
    }
}

/// Budget-overflow regression: the fast kernel reports the same
/// `(from, to, words, budget, round)` as the seed kernel did.
#[test]
fn budget_exceeded_matches_reference() {
    /// Node 0 floods `words_per_round` one-word messages to node 1 starting
    /// in the given round, overflowing a budget of 8.
    #[derive(Clone, Debug)]
    struct Burst {
        fire_round: usize,
        volume: usize,
    }
    impl NodeProgram for Burst {
        type Msg = u32;
        fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, u32)>) {
            if ctx.id == VertexId(0) {
                out.push((VertexId(1), 1));
            }
        }
        fn on_round(
            &mut self,
            ctx: &NodeCtx<'_>,
            _: &[(VertexId, u32)],
            out: &mut Vec<(VertexId, u32)>,
        ) {
            if ctx.id == VertexId(1) && ctx.round == self.fire_round {
                out.extend((0..self.volume).map(|i| (VertexId(2), i as u32)));
            } else if ctx.id == VertexId(1) && ctx.round < self.fire_round {
                out.push((VertexId(0), 0)); // keep the run alive until fire_round
            } else if ctx.id == VertexId(0) && ctx.round < self.fire_round {
                out.push((VertexId(1), 0));
            }
        }
    }
    let g = path(3);
    let cfg = SimConfig {
        budget_words: 8,
        max_rounds: 100,
        ..SimConfig::default()
    };
    let mk = || {
        (0..3)
            .map(|_| Burst {
                fire_round: 3,
                volume: 20,
            })
            .collect::<Vec<_>>()
    };
    let fast_err = run(&g, mk(), &cfg).unwrap_err();
    let slow_err = run_reference(&g, mk(), &cfg).unwrap_err();
    assert_eq!(fast_err, slow_err);
    // The overflow happens on the 9th word sent by node 1 to node 2 in
    // round 3, delivered (and reported) in round 4.
    assert_eq!(
        fast_err,
        SimError::BudgetExceeded {
            from: VertexId(1),
            to: VertexId(2),
            words: 9,
            budget: 8,
            round: 4,
        }
    );
}

/// A bouquet of distinct fault plans exercised by the conformance suite:
/// channel faults alone, crashes alone, link-down windows, and everything
/// combined.
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

/// Tentpole conformance: under every fault plan, both kernels produce
/// identical final states and identical Metrics (including the fault
/// counters), and replaying the same `(seed, plan)` is byte-identical.
#[test]
fn kernels_agree_under_faults() {
    for (plan_name, plan) in fault_plans() {
        let cfg = SimConfig {
            faults: plan,
            ..SimConfig::default()
        };
        for (name, g) in workloads() {
            let label = format!("{name}/{plan_name}");
            let (s1, m1) = run_pair(&label, &g, flood_programs(&g), &cfg);
            let (s2, m2) = run_pair(&label, &g, flood_programs(&g), &cfg);
            assert_eq!(s1, s2, "{label}: faulty replay diverged");
            assert_eq!(m1, m2, "{label}: faulty replay metrics diverged");

            let (t1, tm1) = run_pair(&label, &g, transcript_programs(&g), &cfg);
            let (t2, tm2) = run_pair(&label, &g, transcript_programs(&g), &cfg);
            assert_eq!(t1, t2, "{label}: transcript faulty replay diverged");
            assert_eq!(tm1, tm2, "{label}: transcript metrics diverged");
        }
    }
}

/// The reliable wrapper is deterministic too: wrapped transcript runs under
/// a lossy plan agree across kernels and replays (its BTreeMap-backed state
/// must not leak iteration-order nondeterminism into message emission).
#[test]
fn reliable_wrapper_agrees_under_faults() {
    let cfg = SimConfig {
        budget_words: 3 * congest_sim::DEFAULT_BUDGET_WORDS + 2,
        faults: FaultPlan::uniform(21, 0.2, 0.1, 0.2, 2),
        ..SimConfig::default()
    };
    let rel = ReliableConfig::default();
    for (name, g) in workloads() {
        let mk = || {
            transcript_programs(&g)
                .into_iter()
                .map(|p| Reliable::new(p, rel.clone()))
                .collect::<Vec<_>>()
        };
        let (s1, m1) = run_pair(name, &g, mk(), &cfg);
        let (s2, m2) = run_pair(name, &g, mk(), &cfg);
        assert_eq!(s1, s2, "{name}: wrapped replay diverged");
        assert_eq!(m1, m2, "{name}: wrapped replay metrics diverged");
    }
}

/// Fault-free outcomes are byte-identical with and without the fault fields
/// present: `FaultPlan::default()` must keep both kernels on their original
/// code paths (satellite of the zero-overhead acceptance criterion).
#[test]
fn default_plan_reproduces_fault_free_outcomes() {
    for (name, g) in workloads() {
        let plain = SimConfig::default();
        let explicit = SimConfig {
            budget_words: plain.budget_words,
            max_rounds: plain.max_rounds,
            faults: FaultPlan::default(),
            watchdog: None,
            ..SimConfig::default()
        };
        let a = run(&g, transcript_programs(&g), &plain).unwrap();
        let b = run(&g, transcript_programs(&g), &explicit).unwrap();
        assert_eq!(a.programs, b.programs, "{name}");
        assert_eq!(a.metrics, b.metrics, "{name}");
        assert_eq!(a.metrics.dropped, 0, "{name}");
        assert_eq!(a.metrics.crashed_nodes, 0, "{name}");
        // And the reference kernel agrees, via the standard pair check.
        run_pair(name, &g, transcript_programs(&g), &explicit);
    }
}

/// Watchdog fires identically on both kernels (with and without faults).
#[test]
fn watchdog_matches_reference() {
    let g = path(32);
    let cfg = SimConfig {
        watchdog: Some(5),
        ..SimConfig::default()
    };
    let fast = run(&g, flood_programs(&g), &cfg).unwrap_err();
    let slow = run_reference(&g, flood_programs(&g), &cfg).unwrap_err();
    assert_eq!(fast, slow);
    assert_eq!(fast, SimError::WatchdogTimeout { limit: 5 });

    let faulty = SimConfig {
        watchdog: Some(4),
        faults: FaultPlan::uniform(3, 0.3, 0.0, 0.3, 2),
        ..SimConfig::default()
    };
    assert_eq!(
        run(&g, flood_programs(&g), &faulty).unwrap_err(),
        run_reference(&g, flood_programs(&g), &faulty).unwrap_err(),
    );
}

/// Node 0 of a grid sends to all its neighbors and then to a non-neighbor
/// in round 2, while everyone else keeps traffic flowing: the sends queued
/// before the bad one must still be recorded (and traced) before the error
/// fires.
#[derive(Clone, Debug)]
struct BadSender;

impl NodeProgram for BadSender {
    type Msg = u32;

    fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, u32)>) {
        out.extend(ctx.neighbors.iter().map(|&w| (w, 1)));
    }

    fn on_round(
        &mut self,
        ctx: &NodeCtx<'_>,
        _inbox: &[(VertexId, u32)],
        out: &mut Vec<(VertexId, u32)>,
    ) {
        if ctx.round == 2 && ctx.id == VertexId(0) {
            out.extend(ctx.neighbors.iter().map(|&w| (w, 9)));
            out.push((VertexId(u32::MAX - 1), 9));
        } else if ctx.round < 4 {
            out.extend(ctx.neighbors.iter().map(|&w| (w, 2)));
        }
    }
}

/// Invalid destinations and the max-rounds guard error identically on both
/// kernels.
#[test]
fn error_surfaces_match_reference() {
    #[derive(Clone, Debug)]
    struct Wild;
    impl NodeProgram for Wild {
        type Msg = u32;
        fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, u32)>) {
            if ctx.id == VertexId(2) {
                out.push((VertexId(0), 1)); // 0 is not adjacent to 2 on a path
            }
        }
        fn on_round(
            &mut self,
            _: &NodeCtx<'_>,
            _: &[(VertexId, u32)],
            _: &mut Vec<(VertexId, u32)>,
        ) {
        }
    }
    let g = path(4);
    let cfg = SimConfig::default();
    assert_eq!(
        run(&g, vec![Wild; 4], &cfg).unwrap_err(),
        run_reference(&g, vec![Wild; 4], &cfg).unwrap_err(),
    );

    // A mid-run bad send after valid ones: same error, and the same sends
    // narrated up to it.
    let g = grid(4, 4, false);
    let fast_sink = MemorySink::unbounded();
    let fast_cfg = SimConfig {
        trace: TraceHandle::to(fast_sink.clone()),
        ..SimConfig::default()
    };
    let slow_sink = MemorySink::unbounded();
    let slow_cfg = SimConfig {
        trace: TraceHandle::to(slow_sink.clone()),
        ..SimConfig::default()
    };
    let fast = run(&g, vec![BadSender; 16], &fast_cfg).unwrap_err();
    let slow = run_reference(&g, vec![BadSender; 16], &slow_cfg).unwrap_err();
    assert_eq!(fast, slow);
    assert!(matches!(fast, SimError::InvalidDestination { .. }));
    let sends = |events: Vec<TraceEvent>| {
        let mut s: Vec<String> = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Send { .. }))
            .map(congest_sim::trace::event_json)
            .collect();
        s.sort();
        s
    };
    let fast_sends = sends(fast_sink.events());
    assert!(fast_sends.iter().any(|e| e.contains("\"round\":2")));
    assert_eq!(fast_sends, sends(slow_sink.events()));

    #[derive(Clone, Debug)]
    struct PingPong;
    impl NodeProgram for PingPong {
        type Msg = u32;
        fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, u32)>) {
            if ctx.id == VertexId(0) {
                out.push((VertexId(1), 0));
            }
        }
        fn on_round(
            &mut self,
            _: &NodeCtx<'_>,
            inbox: &[(VertexId, u32)],
            out: &mut Vec<(VertexId, u32)>,
        ) {
            out.extend(inbox.iter().map(|&(from, v)| (from, v + 1)));
        }
    }
    let g = path(2);
    let cfg = SimConfig {
        budget_words: 8,
        max_rounds: 25,
        ..SimConfig::default()
    };
    assert_eq!(
        run(&g, vec![PingPong; 2], &cfg).unwrap_err(),
        run_reference(&g, vec![PingPong; 2], &cfg).unwrap_err(),
    );
}

/// Sends off the fast kernel's destination fast path (the slot after the
/// previous send). While `round < horizon`, every node sends to its
/// neighbors in reverse slot order, sends its first neighbor a second
/// message (two words on one edge, within budget), and answers each inbox
/// sender once, in inbox order. `bad = Some((r, to))` makes node 0 also
/// send to `to` in round `r`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Scatter {
    log: Vec<(usize, u32, u32)>,
    horizon: usize,
    bad: Option<(usize, VertexId)>,
}

impl Scatter {
    fn send(&self, ctx: &NodeCtx<'_>, inbox: &[(VertexId, u32)], out: &mut Vec<(VertexId, u32)>) {
        if ctx.round >= self.horizon {
            return;
        }
        let tag = ctx.round as u32;
        out.extend(ctx.neighbors.iter().rev().map(|&w| (w, tag)));
        out.extend(ctx.neighbors.first().map(|&w| (w, tag + 100)));
        let mut last = None;
        for &(from, v) in inbox {
            if last != Some(from) {
                out.push((from, v + 1));
                last = Some(from);
            }
        }
        match self.bad {
            Some((r, to)) if r == ctx.round && ctx.id == VertexId(0) => out.push((to, tag)),
            _ => {}
        }
    }
}

impl NodeProgram for Scatter {
    type Msg = u32;

    fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, u32)>) {
        self.send(ctx, &[], out);
    }

    fn on_round(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: &[(VertexId, u32)],
        out: &mut Vec<(VertexId, u32)>,
    ) {
        for &(from, v) in inbox {
            self.log.push((ctx.round, from.0, v));
        }
        self.send(ctx, inbox, out);
    }
}

/// A star's centre passes one token per step to the next leaf in a
/// stride order (so each send misses the cursor and takes the search
/// fallback); each leaf hands it straight back.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Spoke {
    log: Vec<(usize, u32, u32)>,
    horizon: u32,
}

impl Spoke {
    fn pass(&self, ctx: &NodeCtx<'_>, token: u32, out: &mut Vec<(VertexId, u32)>) {
        if token < self.horizon {
            let leaves = ctx.neighbors.len() as u32;
            out.push((ctx.neighbors[(token * 7 % leaves) as usize], token + 1));
        }
    }
}

impl NodeProgram for Spoke {
    type Msg = u32;

    fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, u32)>) {
        if ctx.id == VertexId(0) {
            self.pass(ctx, 0, out);
        }
    }

    fn on_round(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: &[(VertexId, u32)],
        out: &mut Vec<(VertexId, u32)>,
    ) {
        for &(from, token) in inbox {
            self.log.push((ctx.round, from.0, token));
            if ctx.id == VertexId(0) {
                self.pass(ctx, token, out);
            } else {
                out.push((from, token));
            }
        }
    }
}

/// The destination check agrees with the reference kernel off its fast
/// path: out-of-order sends, a repeated destination and replies agree on
/// final states and `Metrics`; a send to a non-neighbor, to the sender
/// itself or to an out-of-range id fails with the same
/// `InvalidDestination` on both kernels.
#[test]
fn destination_checks_match_reference() {
    let cfg = SimConfig::default();
    for (name, g) in workloads() {
        let n = g.vertex_count();
        let programs = |bad| {
            vec![
                Scatter {
                    log: Vec::new(),
                    horizon: 4,
                    bad,
                };
                n
            ]
        };
        let (states, metrics) = run_pair(name, &g, programs(None), &cfg);
        assert!(states.iter().all(|s| !s.log.is_empty()), "{name}");
        assert!(metrics.max_words_edge_round >= 2, "{name}");

        let far = g
            .vertices()
            .find(|&v| v != VertexId(0) && !g.neighbors(VertexId(0)).contains(&v));
        let out_of_range = VertexId(n as u32 + 5);
        for to in far.into_iter().chain([VertexId(0), out_of_range]) {
            let fast = run(&g, programs(Some((2, to))), &cfg).unwrap_err();
            let slow = run_reference(&g, programs(Some((2, to))), &cfg).unwrap_err();
            assert_eq!(fast, slow, "{name}: send to {to}");
            assert_eq!(
                fast,
                SimError::InvalidDestination {
                    from: VertexId(0),
                    to
                },
                "{name}: send to {to}"
            );
        }
    }

    let g = star(65);
    let programs = vec![
        Spoke {
            log: Vec::new(),
            horizon: 40,
        };
        65
    ];
    let (states, metrics) = run_pair("star65-spoke", &g, programs, &cfg);
    // Forty tokens out from the centre, forty back.
    assert_eq!(states[0].log.len(), 40);
    assert_eq!(metrics.messages, 80);
}
