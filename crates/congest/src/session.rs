//! Session-scoped reuse of kernel state across the phases of one graph.
//!
//! The embedding pipeline simulates the *same* graph many times: setup
//! protocols, every level of the partition recursion, merges,
//! certification. A [`SimSession`] builds the graph's
//! [`ArcIndex`](planar_graph::ArcIndex) once, in [`SimSession::new`], and
//! caches one [`Simulator`] per *message type*, so repeated phases run
//! over warm buffers. [`SimSession::run`] takes either run shape (see
//! [`Batch`]).
//!
//! Reuse is outcome-invariant by the simulator's documented contract:
//! every run fully reinitializes logical state and only buffer *capacity*
//! survives, so a session-run phase is bit-identical to a one-shot
//! [`run`](crate::run) call. The session serves the fast kernel only — the
//! reference kernel stays a deliberately simple free function.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::fmt;

use planar_graph::{ArcIndex, Graph};

use crate::batch::Batch;
use crate::message::Words;
use crate::network::{NodeProgram, SimConfig, SimError, Simulator};

/// A type-erased cached [`Simulator`]: downcasting for the typed entry
/// points plus the uniform queries the cache can answer without knowing
/// the message type (memory accounting for the bench harness's bytes/node
/// column and the service's scratch footprint).
trait CachedSim: Any {
    fn as_any_mut(&mut self) -> &mut dyn Any;
    fn memory_bytes(&self) -> usize;
}

impl<M: Words + Clone + 'static> CachedSim for Simulator<M> {
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn memory_bytes(&self) -> usize {
        Simulator::memory_bytes(self)
    }
}

/// The graph-independent half of a session: one warm [`Simulator`] per
/// message type. Simulators carry no logical state between runs — every
/// run `resize()`s its buffers to the graph at hand and reinitializes
/// them — so a cache can outlive the graph it was warmed on and be
/// rebound to a *different* graph (larger, smaller, different topology)
/// without affecting outcomes. Long-lived callers (the embedding service
/// re-running its tenants across deltas) keep one `KernelCache` for every
/// graph they serve and thread it through successive [`SimSession`]s via
/// [`SimSession::with_cache`]/[`SimSession::into_cache`].
#[derive(Default)]
pub struct KernelCache {
    sims: HashMap<TypeId, Box<dyn CachedSim>>,
}

impl KernelCache {
    /// An empty cache; simulators are created on first use.
    pub fn new() -> Self {
        KernelCache::default()
    }

    /// Number of message types with a warm simulator.
    pub fn kernels(&self) -> usize {
        self.sims.len()
    }

    /// Heap bytes currently reserved across every cached simulator —
    /// the resident cost of keeping this cache warm (buffer capacities,
    /// see [`Simulator::memory_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        self.sims.values().map(|s| s.memory_bytes()).sum()
    }
}

impl fmt::Debug for KernelCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelCache")
            .field("kernels", &self.sims.len())
            .finish()
    }
}

/// Per-graph simulation session: one arc index, one cached [`Simulator`]
/// per message type (programs of different phases exchange different
/// message enums; each gets its own typed mailbox arena).
pub struct SimSession<'g> {
    g: &'g Graph,
    idx: ArcIndex,
    cache: KernelCache,
}

impl<'g> SimSession<'g> {
    /// Opens a session over `g`, building its arc index once.
    pub fn new(g: &'g Graph) -> Self {
        SimSession::with_cache(g, KernelCache::new())
    }

    /// Opens a session over `g` reusing the warm simulators of `cache`
    /// (typically recovered from a previous session via
    /// [`into_cache`](SimSession::into_cache)). Outcome-invariant versus
    /// [`new`](SimSession::new): only buffer capacity survives in a cache.
    pub fn with_cache(g: &'g Graph, cache: KernelCache) -> Self {
        SimSession {
            g,
            idx: g.arc_index(),
            cache,
        }
    }

    /// Closes the session, returning its kernel cache for reuse against a
    /// later (possibly different) graph.
    pub fn into_cache(self) -> KernelCache {
        self.cache
    }

    /// The session's graph.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// The session's prebuilt arc index.
    pub fn arc_index(&self) -> &ArcIndex {
        &self.idx
    }

    /// Heap bytes currently reserved by the session: the arc index plus
    /// every cached simulator's buffers.
    pub fn memory_bytes(&self) -> usize {
        self.idx.memory_bytes() + self.cache.memory_bytes()
    }

    /// Runs `batch` (plain or batched, see [`Batch`]) over the session
    /// graph, reusing the session's arc index and cached kernel.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] like [`Simulator::run`] or
    /// [`Simulator::run_many`].
    ///
    /// # Panics
    ///
    /// As [`Simulator::run`] or [`Simulator::run_many`].
    pub fn run<B>(&mut self, batch: B, cfg: &SimConfig) -> Result<B::Outcome, SimError>
    where
        B: Batch,
        <B::Program as NodeProgram>::Msg: 'static,
    {
        let SimSession { g, idx, cache } = self;
        batch.run_fast(sim_for(&mut cache.sims), g, idx, cfg)
    }

    /// Runs `batch` over a *foreign* graph `g` — one that is not the
    /// session graph, such as a virtual graph built by the caller — on the
    /// session's cached kernel for the message type. Outcome-invariant
    /// versus a one-shot [`run`](crate::run) by the cache's contract (a
    /// cached simulator is graph-independent); only `g`'s arc index is
    /// built per call.
    ///
    /// # Errors
    ///
    /// As [`SimSession::run`].
    ///
    /// # Panics
    ///
    /// As [`SimSession::run`].
    pub fn run_on<B>(
        &mut self,
        g: &Graph,
        batch: B,
        cfg: &SimConfig,
    ) -> Result<B::Outcome, SimError>
    where
        B: Batch,
        <B::Program as NodeProgram>::Msg: 'static,
    {
        batch.run_fast(sim_for(&mut self.cache.sims), g, &g.arc_index(), cfg)
    }
}

impl fmt::Debug for SimSession<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimSession")
            .field("vertices", &self.g.vertex_count())
            .field("arcs", &self.idx.arc_count())
            .field("cached_kernels", &self.cache.sims.len())
            .finish()
    }
}

/// The session's cached simulator for message type `M`, created on first
/// use.
fn sim_for<M: Words + Clone + 'static>(
    sims: &mut HashMap<TypeId, Box<dyn CachedSim>>,
) -> &mut Simulator<M> {
    sims.entry(TypeId::of::<M>())
        .or_insert_with(|| Box::new(Simulator::<M>::new()))
        .as_any_mut()
        .downcast_mut::<Simulator<M>>()
        .expect("simulator cache is keyed by message type")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::run;
    use planar_graph::VertexId;

    /// Forward a token along a path; quiesces in n-1 rounds.
    struct Relay;
    impl NodeProgram for Relay {
        type Msg = u32;
        fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, u32)>) {
            if ctx.id == VertexId(0) {
                out.push((VertexId(1), 7));
            }
        }
        fn on_round(
            &mut self,
            ctx: &NodeCtx<'_>,
            _: &[(VertexId, u32)],
            out: &mut Vec<(VertexId, u32)>,
        ) {
            let next = VertexId(ctx.id.0 + 1);
            if ctx.neighbors.contains(&next) {
                out.push((next, 7));
            }
        }
    }
    use crate::network::NodeCtx;

    #[test]
    fn session_runs_match_one_shot_runs() {
        let n = 8;
        let g = Graph::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1))).unwrap();
        let cfg = SimConfig::default();
        let mut session = SimSession::new(&g);
        // Two session runs back to back: both must equal the one-shot run.
        for _ in 0..2 {
            let mk = (0..n).map(|_| Relay).collect::<Vec<_>>();
            let session_out = session.run(mk, &cfg).unwrap();
            let oneshot = run(&g, (0..n).map(|_| Relay).collect::<Vec<_>>(), &cfg).unwrap();
            assert_eq!(session_out.metrics, oneshot.metrics);
        }
        assert_eq!(session.cache.kernels(), 1);
    }

    /// A kernel cache recovered from one session can be rebound to a
    /// different (here larger, then smaller) graph without changing any
    /// outcome versus a cold one-shot run.
    #[test]
    fn cache_reuse_across_graphs_matches_one_shot() {
        let cfg = SimConfig::default();
        let mut cache = KernelCache::new();
        for n in [6usize, 12, 4] {
            let g = Graph::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1))).unwrap();
            let mut session = SimSession::with_cache(&g, cache);
            let warm = session
                .run((0..n).map(|_| Relay).collect::<Vec<_>>(), &cfg)
                .unwrap();
            let cold = run(&g, (0..n).map(|_| Relay).collect::<Vec<_>>(), &cfg).unwrap();
            assert_eq!(warm.metrics, cold.metrics, "n = {n}");
            cache = session.into_cache();
        }
        assert_eq!(cache.kernels(), 1);
    }
}
