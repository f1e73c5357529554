//! Session-scoped reuse of kernel state across the phases of one graph.
//!
//! The embedding pipeline simulates the *same* graph many times: setup
//! protocols, every level of the partition recursion, merges,
//! certification. Before this module, each phase call paid for a fresh
//! [`ArcIndex`](planar_graph::ArcIndex) build (CSR arc tables plus the
//! reverse-arc table) and — unless the caller threaded a
//! [`Simulator`] around by hand — a cold mailbox arena. A [`SimSession`]
//! hoists both to per-graph scope: the arc index is built once in
//! [`SimSession::new`], and one [`Simulator`] per *message type* is cached
//! and reused, so repeated phases run over warm buffers.
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

use crate::message::Words;
use crate::network::{
    Instance, MultiOutcome, NodeProgram, SimConfig, SimError, SimOutcome, Simulator,
};

/// A type-erased cached [`Simulator`]: downcasting for the typed entry
/// points plus the uniform queries the cache can answer without knowing
/// the message type (memory accounting for the bench harness's bytes/node
/// column and the service's per-tenant footprint).
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
/// re-running one tenant across edge deltas) keep a `KernelCache` per
/// tenant and thread it through successive [`SimSession`]s via
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

    /// Runs `programs` over the session graph (see [`Simulator::run`]),
    /// reusing the session's arc index and cached kernel.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] like [`Simulator::run`].
    ///
    /// # Panics
    ///
    /// Panics if `programs.len()` differs from the graph's vertex count.
    pub fn run<P>(&mut self, programs: Vec<P>, cfg: &SimConfig) -> Result<SimOutcome<P>, SimError>
    where
        P: NodeProgram,
        P::Msg: 'static,
    {
        let SimSession { g, idx, cache } = self;
        sim_for::<P::Msg>(&mut cache.sims).run_with_index(g, idx, programs, cfg)
    }

    /// Runs vertex-disjoint instances in one shared round lattice over the
    /// session graph (see [`Simulator::run_many`]), reusing the session's
    /// arc index and cached kernel.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] like [`Simulator::run_many`].
    ///
    /// # Panics
    ///
    /// Panics if instances overlap or name vertices outside the graph.
    pub fn run_many<P>(
        &mut self,
        instances: Vec<Instance<P>>,
        cfg: &SimConfig,
    ) -> Result<MultiOutcome<P>, SimError>
    where
        P: NodeProgram,
        P::Msg: 'static,
    {
        let SimSession { g, idx, cache } = self;
        sim_for::<P::Msg>(&mut cache.sims).run_many_with_index(g, idx, instances, cfg)
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
        fn init(&mut self, ctx: &NodeCtx<'_>) -> Vec<(VertexId, u32)> {
            if ctx.id == VertexId(0) {
                vec![(VertexId(1), 7)]
            } else {
                Vec::new()
            }
        }
        fn on_round(&mut self, ctx: &NodeCtx<'_>, _: &[(VertexId, u32)]) -> Vec<(VertexId, u32)> {
            let next = VertexId(ctx.id.0 + 1);
            if ctx.neighbors.contains(&next) {
                vec![(next, 7)]
            } else {
                Vec::new()
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
