//! Session / kernel-cache reuse regression suite.
//!
//! A [`KernelCache`] outlives the graph it was warmed on: the embedding
//! service rebinds one cache across all its tenants' deltas, and the
//! struct-of-arrays kernel retains its mailbox planes (per-arc slots, the
//! spill pool, the native side table) and the outbox between runs. The
//! contract under test is that *only capacity* survives a rebind — every
//! logical table (arc slots, round tallies, recipient stamps, instance
//! and fault state, spill pool) is fully reinitialized for the graph at
//! hand, so a warm run over a smaller,
//! larger, or differently-shaped graph is bit-identical to a cold one-shot
//! run. Each test walks a shrink-then-grow size sequence because stale
//! state hides exactly there: a buffer sized for the big graph whose tail
//! the small graph never rewrites, then re-exposed when growing again.

use congest_sim::{
    run, run_many, FaultPlan, Instance, KernelCache, NodeCtx, NodeProgram, SimConfig, SimError,
    SimSession, Simulator, Words,
};
use planar_graph::{Graph, VertexId};

/// Max-flood with an inbox transcript: final state witnesses both the
/// converged value and the exact delivery order/content of every round, so
/// any stale-state leak across reuse shows up as a state diff, not just a
/// metrics diff.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Flood {
    best: u32,
    log: Vec<(u32, u32)>,
}

impl Flood {
    fn new(v: VertexId) -> Self {
        Flood {
            best: v.0.wrapping_mul(0x9e37) % 1024,
            log: Vec::new(),
        }
    }
}

impl NodeProgram for Flood {
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
        for &(from, v) in inbox {
            self.log.push((from.0, v));
        }
        let incoming = inbox.iter().map(|&(_, v)| v).max().unwrap_or(0);
        if incoming > self.best {
            self.best = incoming;
            out.extend(ctx.neighbors.iter().map(|&w| (w, self.best)));
        }
    }
}

/// Triangulated grid: the denser workload family (multi-word traffic per
/// round, varied degrees) used across the conformance suites.
fn tri_grid(side: u32) -> Graph {
    let idx = |r: u32, c: u32| r * side + c;
    let mut edges = Vec::new();
    for r in 0..side {
        for c in 0..side {
            if c + 1 < side {
                edges.push((idx(r, c), idx(r, c + 1)));
            }
            if r + 1 < side {
                edges.push((idx(r, c), idx(r + 1, c)));
            }
            if r + 1 < side && c + 1 < side {
                edges.push((idx(r, c), idx(r + 1, c + 1)));
            }
        }
    }
    Graph::from_edges((side * side) as usize, edges).unwrap()
}

fn programs(g: &Graph) -> Vec<Flood> {
    g.vertices().map(Flood::new).collect()
}

/// Grow, shrink far below, then grow past the original size: warm runs
/// must match cold one-shot runs in final states *and* metrics at every
/// step. The shrink step leaves the tails of every retained buffer stale;
/// the final grow step re-exposes them.
#[test]
fn shrink_then_grow_reuse_is_bit_identical() {
    let cfg = SimConfig::default();
    let mut cache = KernelCache::new();
    for side in [9u32, 3, 12, 2, 13] {
        let g = tri_grid(side);
        let mut session = SimSession::with_cache(&g, cache);
        let warm = session.run(programs(&g), &cfg).unwrap();
        let cold = run(&g, programs(&g), &cfg).unwrap();
        assert_eq!(warm.metrics, cold.metrics, "side = {side}");
        assert_eq!(warm.programs, cold.programs, "side = {side}");
        cache = session.into_cache();
    }
    assert_eq!(cache.kernels(), 1);
}

/// Same walk under seeded faults: fault fates are keyed on per-arc stream
/// state, the most reuse-sensitive tables in the kernel.
#[test]
fn shrink_then_grow_reuse_with_faults() {
    let cfg = SimConfig {
        faults: FaultPlan::uniform(0xC0FFEE, 0.10, 0.05, 0.15, 3),
        ..SimConfig::default()
    };
    let mut cache = KernelCache::new();
    for side in [10u32, 3, 11] {
        let g = tri_grid(side);
        let mut session = SimSession::with_cache(&g, cache);
        let warm = session.run(programs(&g), &cfg).unwrap();
        let cold = run(&g, programs(&g), &cfg).unwrap();
        assert_eq!(warm.metrics, cold.metrics, "side = {side}");
        assert_eq!(warm.programs, cold.programs, "side = {side}");
        cache = session.into_cache();
    }
}

/// [`Flood`] restricted to one instance's vertex-id range, so a batch of
/// two half-graph instances stays isolation-clean.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Confined {
    inner: Flood,
    lo: u32,
    hi: u32,
}

impl Confined {
    fn new(v: VertexId, lo: u32, hi: u32) -> Self {
        Confined {
            inner: Flood::new(v),
            lo,
            hi,
        }
    }

    fn clip(&self, sends: &mut Vec<(VertexId, u32)>) {
        sends.retain(|(w, _)| (self.lo..self.hi).contains(&w.0));
    }
}

impl NodeProgram for Confined {
    type Msg = u32;

    fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, u32)>) {
        self.inner.init(ctx, out);
        self.clip(out);
    }

    fn on_round(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: &[(VertexId, u32)],
        out: &mut Vec<(VertexId, u32)>,
    ) {
        self.inner.on_round(ctx, inbox, out);
        self.clip(out);
    }
}

/// Batched runs through a rebound session: per-instance outcomes must
/// match the cold batched run after a shrink-grow cycle (the shared round
/// lattice adds the instance tables to the reused state).
#[test]
fn shrink_then_grow_reuse_batched() {
    let cfg = SimConfig::default();
    let mut cache = KernelCache::new();
    for side in [8u32, 3, 9] {
        let g = tri_grid(side);
        let n = g.vertex_count() as u32;
        let half = n / 2;
        let mk = || {
            vec![
                Instance::new(
                    (0..half)
                        .map(|i| (VertexId(i), Confined::new(VertexId(i), 0, half)))
                        .collect(),
                ),
                Instance::new(
                    (half..n)
                        .map(|i| (VertexId(i), Confined::new(VertexId(i), half, n)))
                        .collect(),
                ),
            ]
        };
        let mut session = SimSession::with_cache(&g, cache);
        let warm = session.run(mk(), &cfg).unwrap();
        let cold = run_many(&g, mk(), &cfg).unwrap();
        assert_eq!(warm.metrics, cold.metrics, "side = {side}");
        for (w, c) in warm.instances.iter().zip(&cold.instances) {
            assert_eq!(w.metrics, c.metrics, "side = {side}");
            assert_eq!(w.programs, c.programs, "side = {side}");
        }
        cache = session.into_cache();
    }
}

/// A payload the kernel can hold two ways: `u32` packs into the mailbox
/// slot word, [`Native`] has no packed form and goes to the side table.
trait Payload: Clone + Words + PartialEq + std::fmt::Debug {
    fn wrap(v: u32) -> Self;
    fn value(&self) -> u32;
}

impl Payload for u32 {
    fn wrap(v: u32) -> Self {
        v
    }
    fn value(&self) -> u32 {
        *self
    }
}

/// A one-word message that keeps the default (declining) `pack`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Native(u32);

impl Words for Native {
    fn words(&self) -> usize {
        1
    }
}

impl Payload for Native {
    fn wrap(v: u32) -> Self {
        Native(v)
    }
    fn value(&self) -> u32 {
        self.0
    }
}

/// [`Confined`]'s flood over any [`Payload`], sending every improvement
/// twice so each busy arc carries a second message that spills out of
/// its mailbox slot.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Twice<T> {
    best: u32,
    log: Vec<(u32, u32)>,
    lo: u32,
    hi: u32,
    sent: std::marker::PhantomData<T>,
}

impl<T: Payload> Twice<T> {
    fn new(v: VertexId, lo: u32, hi: u32) -> Self {
        Twice {
            best: Flood::new(v).best,
            log: Vec::new(),
            lo,
            hi,
            sent: std::marker::PhantomData,
        }
    }

    fn announce(&self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, T)>) {
        for &w in ctx.neighbors {
            if (self.lo..self.hi).contains(&w.0) {
                out.push((w, T::wrap(self.best)));
                out.push((w, T::wrap(self.best ^ 1)));
            }
        }
    }
}

impl<T: Payload> NodeProgram for Twice<T> {
    type Msg = T;

    fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, T)>) {
        self.announce(ctx, out);
    }

    fn on_round(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: &[(VertexId, T)],
        out: &mut Vec<(VertexId, T)>,
    ) {
        self.log
            .extend(inbox.iter().map(|(from, m)| (from.0, m.value())));
        let incoming = inbox.iter().map(|(_, m)| m.value()).max().unwrap_or(0);
        if incoming > self.best {
            self.best = incoming;
            self.announce(ctx, out);
        }
    }
}

/// One [`Simulator`] runs plain, batched, faulted and plain again over a
/// shrinking and growing graph; every run must match a fresh simulator's
/// in final states and metrics (per instance for the batch). The modes
/// leave different tables behind — instance tables, fault tallies, delayed
/// and duplicated copies, spilled arcs — and each next mode must see none
/// of them.
fn mixed_mode_reuse<T: Payload>() {
    let plain = SimConfig::default();
    let faulted = SimConfig {
        faults: FaultPlan::uniform(0xC0FFEE, 0.10, 0.05, 0.15, 3),
        ..SimConfig::default()
    };
    let everyone = |g: &Graph| -> Vec<Twice<T>> {
        let n = g.vertex_count() as u32;
        g.vertices().map(|v| Twice::new(v, 0, n)).collect()
    };
    let halves = |g: &Graph| {
        let n = g.vertex_count() as u32;
        let half = n / 2;
        let part = |lo: u32, hi: u32| {
            Instance::new(
                (lo..hi)
                    .map(|i| (VertexId(i), Twice::<T>::new(VertexId(i), lo, hi)))
                    .collect(),
            )
        };
        vec![part(0, half), part(half, n)]
    };
    let mut sim = Simulator::new();
    for (side, step) in [
        (9u32, "plain"),
        (5, "batched"),
        (10, "faulted"),
        (4, "plain"),
    ] {
        let g = tri_grid(side);
        let label = format!("{step} side = {side}");
        if step == "batched" {
            let warm = sim.run_many(&g, halves(&g), &plain).unwrap();
            let cold = Simulator::new().run_many(&g, halves(&g), &plain).unwrap();
            assert_eq!(warm.metrics, cold.metrics, "{label}");
            for (w, c) in warm.instances.iter().zip(&cold.instances) {
                assert_eq!(w.metrics, c.metrics, "{label}");
                assert_eq!(w.programs, c.programs, "{label}");
            }
        } else {
            let cfg = if step == "faulted" { &faulted } else { &plain };
            let warm = sim.run(&g, everyone(&g), cfg).unwrap();
            let cold = Simulator::new().run(&g, everyone(&g), cfg).unwrap();
            assert_eq!(warm.metrics, cold.metrics, "{label}");
            assert_eq!(warm.programs, cold.programs, "{label}");
        }
    }
}

#[test]
fn mixed_mode_reuse_packed() {
    mixed_mode_reuse::<u32>();
}

#[test]
fn mixed_mode_reuse_native() {
    mixed_mode_reuse::<Native>();
}

/// An aborted run (budget violation mid-flight) must not poison the cache:
/// the next warm run over a different graph still matches cold.
#[test]
fn reuse_after_error_is_clean() {
    /// Floods one-element vectors for two rounds, logging every delivery.
    /// Armed, node 0 then sends its first neighbor a small vector and an
    /// over-budget one on the same arc: the abort leaves that arc spilled
    /// (a packed message, then a native one) in the mailbox.
    #[derive(Debug, PartialEq)]
    struct Blaster {
        armed: bool,
        round: usize,
        log: Vec<(u32, Vec<u32>)>,
    }
    impl NodeProgram for Blaster {
        type Msg = Vec<u32>;
        fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, Vec<u32>)>) {
            out.extend(ctx.neighbors.iter().map(|&w| (w, vec![ctx.id.0])));
        }
        fn on_round(
            &mut self,
            ctx: &NodeCtx<'_>,
            inbox: &[(VertexId, Vec<u32>)],
            out: &mut Vec<(VertexId, Vec<u32>)>,
        ) {
            self.log
                .extend(inbox.iter().map(|(from, m)| (from.0, m.clone())));
            self.round += 1;
            if self.round < 2 {
                // Keep every mailbox hot so the abort lands mid-flight.
                out.extend(ctx.neighbors.iter().map(|&w| (w, vec![ctx.id.0])));
            } else if self.round == 2 && self.armed && ctx.id == VertexId(0) {
                out.push((ctx.neighbors[0], vec![ctx.id.0]));
                out.push((ctx.neighbors[0], vec![7; 4096]));
            }
        }
    }
    let blasters = |g: &Graph, armed: bool| -> Vec<Blaster> {
        g.vertices()
            .map(|_| Blaster {
                armed,
                round: 0,
                log: Vec::new(),
            })
            .collect()
    };

    let cfg = SimConfig::default();
    let g = tri_grid(6);
    let mut session = SimSession::new(&g);
    let err = session.run(blasters(&g, true), &cfg).unwrap_err();
    assert!(matches!(err, SimError::BudgetExceeded { .. }), "{err:?}");
    let mut cache = session.into_cache();

    // The poisoned arena reruns clean — the same message type over a
    // smaller graph first, then a larger one (the spilled arc's slot lies
    // inside both), and a second message type sharing the cache.
    for side in [4u32, 8] {
        let g = tri_grid(side);
        let mut session = SimSession::with_cache(&g, cache);
        let warm = session.run(blasters(&g, false), &cfg).unwrap();
        let cold = run(&g, blasters(&g, false), &cfg).unwrap();
        assert_eq!(warm.metrics, cold.metrics, "side = {side}");
        assert_eq!(warm.programs, cold.programs, "side = {side}");
        let warm = session.run(programs(&g), &cfg).unwrap();
        let cold = run(&g, programs(&g), &cfg).unwrap();
        assert_eq!(warm.metrics, cold.metrics, "side = {side}");
        assert_eq!(warm.programs, cold.programs, "side = {side}");
        cache = session.into_cache();
    }
    assert_eq!(cache.kernels(), 2);
}

/// Session memory accounting is live: a warm cache reports a non-zero
/// resident footprint that does not shrink when rebinding to a smaller
/// graph (capacity is retained), and `SimSession::memory_bytes` includes
/// the arc index.
#[test]
fn memory_accounting_tracks_retained_capacity() {
    let cfg = SimConfig::default();
    let big = tri_grid(16);
    let mut session = SimSession::new(&big);
    assert_eq!(session.memory_bytes(), session.arc_index().memory_bytes());
    session.run(programs(&big), &cfg).unwrap();
    let warm_bytes = session.memory_bytes();
    assert!(warm_bytes > session.arc_index().memory_bytes());
    let cache = session.into_cache();
    let cache_bytes = cache.memory_bytes();
    assert!(cache_bytes > 0);

    let small = tri_grid(3);
    let mut session = SimSession::with_cache(&small, cache);
    session.run(programs(&small), &cfg).unwrap();
    // Capacity survives the rebind: the warm arena does not shrink.
    assert!(session.memory_bytes() >= cache_bytes);
}
