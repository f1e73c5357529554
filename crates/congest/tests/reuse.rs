//! Session / kernel-cache reuse regression suite.
//!
//! A [`KernelCache`] outlives the graph it was warmed on: the embedding
//! service rebinds one cache per tenant across edge deltas, and the
//! struct-of-arrays kernel retains mailbox arenas, chain tables, the
//! message pool and the outbox between runs. The contract under test is
//! that *only capacity* survives a rebind — every logical table (chain
//! heads, word tallies, recipient stamps, fault state, message pool) is fully
//! reinitialized for the graph at hand, so a warm run over a smaller,
//! larger, or differently-shaped graph is bit-identical to a cold one-shot
//! run. Each test walks a shrink-then-grow size sequence because stale
//! state hides exactly there: a buffer sized for the big graph whose tail
//! the small graph never rewrites, then re-exposed when growing again.

use congest_sim::{
    run, run_many, FaultPlan, Instance, KernelCache, NodeCtx, NodeProgram, SimConfig, SimError,
    SimSession,
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
        let warm = session.run_many(mk(), &cfg).unwrap();
        let cold = run_many(&g, mk(), &cfg).unwrap();
        assert_eq!(warm.metrics, cold.metrics, "side = {side}");
        for (w, c) in warm.instances.iter().zip(&cold.instances) {
            assert_eq!(w.metrics, c.metrics, "side = {side}");
            assert_eq!(w.programs, c.programs, "side = {side}");
        }
        cache = session.into_cache();
    }
}

/// An aborted run (budget violation mid-flight) must not poison the cache:
/// the next warm run over a different graph still matches cold.
#[test]
fn reuse_after_error_is_clean() {
    /// Blasts an over-budget vector on round 2, after real traffic has
    /// populated the mailbox arena.
    #[derive(Debug)]
    struct Blaster {
        round: usize,
    }
    impl NodeProgram for Blaster {
        type Msg = Vec<u32>;
        fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, Vec<u32>)>) {
            out.extend(ctx.neighbors.iter().map(|&w| (w, vec![ctx.id.0])));
        }
        fn on_round(
            &mut self,
            ctx: &NodeCtx<'_>,
            _: &[(VertexId, Vec<u32>)],
            out: &mut Vec<(VertexId, Vec<u32>)>,
        ) {
            self.round += 1;
            if self.round < 2 {
                // Keep every mailbox hot so the abort lands mid-flight.
                out.extend(ctx.neighbors.iter().map(|&w| (w, vec![ctx.id.0])));
            } else if self.round == 2 && ctx.id == VertexId(0) {
                out.push((ctx.neighbors[0], vec![7; 4096]));
            }
        }
    }

    let cfg = SimConfig::default();
    let g = tri_grid(6);
    let mut session = SimSession::new(&g);
    let err = session
        .run(g.vertices().map(|_| Blaster { round: 0 }).collect(), &cfg)
        .unwrap_err();
    assert!(matches!(err, SimError::BudgetExceeded { .. }), "{err:?}");
    let mut cache = session.into_cache();

    // The poisoned arena reruns clean — smaller graph first, then larger,
    // with a second message type sharing the cache.
    for side in [4u32, 8] {
        let g = tri_grid(side);
        let mut session = SimSession::with_cache(&g, cache);
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
