//! Typed execution context: the one object threaded through every phase of
//! the embedding pipeline.
//!
//! * one [`SimSession`] per run, so the graph's CSR arc index and the
//!   kernel's mailbox arenas are built once and reused by every phase;
//! * one dispatch over the kernel ([`Kernel::Fast`] vs the executable-spec
//!   [`Kernel::Reference`]) and opt-in reliable delivery, for both run
//!   shapes ([`Batch`]): [`ExecutionContext::run_phase`] takes one program
//!   per vertex or the level-synchronous scheduler's vertex-disjoint
//!   [`Instance`](congest_sim::Instance)s, whose per-instance metrics are
//!   bit-identical to individual runs;
//! * the sequential round tally ([`ExecutionContext::charge`]) keyed by the
//!   typed [`Phase`] enum, so charging rounds to an unknown phase is
//!   unrepresentable.
//!
//! [`Scheduler`] selects how the driver walks the recursion:
//! [`Scheduler::LevelSync`] (the default) batches sibling subproblems into
//! one kernel invocation per level, while [`Scheduler::Sequential`] walks
//! it depth first, one instance-scoped kernel run per subproblem phase, as
//! the conformance oracle — both produce bit-identical rotations, metrics,
//! statistics and certification verdicts (pinned by `tests/scheduler.rs`).

use congest_sim::protocols::{wrapped_budget, ReliableConfig};
use congest_sim::routing::{Router, RoutingError, Transfer};
use congest_sim::{
    Batch, KernelCache, Metrics, NodeProgram, Phase, PhaseRounds, SimConfig, SimError, SimSession,
    TraceEvent,
};
use planar_graph::Graph;

use crate::merge::MergeScratch;
use crate::partition::PartitionScratch;
use crate::EmbedderConfig;

/// Which simulation kernel executes the phases.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Kernel {
    /// The allocation-free CSR kernel (`congest_sim::run`), served through
    /// the session's warm buffers. The default.
    #[default]
    Fast,
    /// The preserved seed kernel (`congest_sim::reference`), the executable
    /// spec the fast kernel is conformance-tested against. Useful to
    /// cross-check a whole embedding run, not just isolated phases.
    Reference,
}

/// How the driver walks the partition/merge recursion.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Scheduler {
    /// Level-synchronous execution (the default): all same-level
    /// subproblems run their partition protocols in *one* batched kernel
    /// invocation over vertex-disjoint
    /// [`Instance`](congest_sim::Instance)s, then all their merges run,
    /// level by level. Host-side cost per level is proportional to the
    /// level's total subproblem size instead of `O(n)` per subproblem.
    #[default]
    LevelSync,
    /// The depth-first recursion: one kernel run per subproblem phase,
    /// scoped to the subproblem's members (a level of one instance). Kept
    /// as the conformance oracle — bit-identical outputs to
    /// [`Scheduler::LevelSync`], at one kernel invocation per subproblem
    /// instead of one per level.
    Sequential,
}

/// Running sequential round tally, so a degraded run can report how far it
/// got (`rounds` is a sequential upper bound) and which phase it was in
/// when it failed.
#[derive(Clone, Copy, Debug)]
struct Tally {
    rounds: usize,
    phases: PhaseRounds,
    phase: Phase,
}

/// The graph-independent host state phases run on: one warm simulator per
/// message type plus the merge, partition and routing tables. Every
/// table is sized on use and reset by the phase that uses it, so one
/// scratch serves any sequence of graphs with outcomes equal to a cold
/// run's. A long-lived caller (the embedding service, a standalone
/// [`ResidentEmbedding`](crate::ResidentEmbedding)) keeps one and lends it
/// to each run ([`ExecutionContext::with_scratch`] /
/// [`ExecutionContext::into_scratch`]); it grows to the largest graph it
/// served, not with the number of graphs.
#[derive(Debug, Default)]
pub struct ExecScratch {
    kernels: KernelCache,
    merge: MergeScratch,
    partition: PartitionScratch,
    router: Router,
}

impl ExecScratch {
    /// Heap bytes reserved by the warm simulators and the tables.
    pub fn memory_bytes(&self) -> usize {
        self.kernels.memory_bytes()
            + self.merge.memory_bytes()
            + self.partition.memory_bytes()
            + self.router.memory_bytes()
    }
}

/// Heap bytes `v` reserves.
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// The execution context of one embedding run: graph session, simulation
/// parameters, kernel/reliability selection, and the phase-attributed
/// round tally. Every kernel invocation of every phase goes through one of
/// its `run_phase*` methods.
#[derive(Debug)]
pub struct ExecutionContext<'g> {
    session: SimSession<'g>,
    sim: SimConfig,
    /// Reliable delivery, with the configuration wrapped runs execute
    /// under: `sim` with the budget widened by [`wrapped_budget`], built
    /// once when the context opens.
    reliable: Option<(ReliableConfig, SimConfig)>,
    kernel: Kernel,
    tally: Tally,
    /// The merge phase's vertex tables, lent to each merge in turn. Driver
    /// scratch, not kernel arena: [`memory_bytes`](Self::memory_bytes)
    /// leaves it out, like the two below.
    pub(crate) merge_scratch: MergeScratch,
    /// The partition phase's vertex tables and subtree enumeration buffer.
    pub(crate) partition_scratch: PartitionScratch,
    /// The tables [`schedule`](Self::schedule) charges transfers with.
    router: Router,
}

impl<'g> ExecutionContext<'g> {
    /// Opens a context over `g` with the embedder's full configuration
    /// (kernel, reliability, simulation parameters).
    pub fn new(g: &'g Graph, cfg: &EmbedderConfig) -> Self {
        ExecutionContext::with_scratch(g, cfg, ExecScratch::default())
    }

    /// Opens a context over `g` on a warm [`ExecScratch`] from an earlier
    /// run (possibly over a different graph — the scratch is
    /// graph-independent, so outcomes equal a cold run's).
    pub fn with_scratch(g: &'g Graph, cfg: &EmbedderConfig, scratch: ExecScratch) -> Self {
        let ExecScratch {
            kernels,
            merge,
            partition,
            router,
        } = scratch;
        ExecutionContext {
            session: SimSession::with_cache(g, kernels),
            sim: cfg.sim.clone(),
            reliable: cfg.reliability.clone().map(|rel| {
                let wide = SimConfig {
                    budget_words: wrapped_budget(cfg.sim.budget_words),
                    ..cfg.sim.clone()
                };
                (rel, wide)
            }),
            kernel: cfg.kernel,
            tally: Tally {
                rounds: 0,
                phases: PhaseRounds::default(),
                phase: Phase::Setup,
            },
            merge_scratch: merge,
            partition_scratch: partition,
            router,
        }
    }

    /// Releases the recursion's host tables (partition and merge scratch,
    /// routing tables) once the recursion is over, so that the epilogue
    /// does not carry them. A later phase that needs them grows them anew.
    pub(crate) fn release_recursion_tables(&mut self) {
        self.merge_scratch = MergeScratch::default();
        self.partition_scratch = PartitionScratch::default();
        self.router = Router::default();
    }

    /// Closes the context, recovering its scratch for a later run.
    pub fn into_scratch(self) -> ExecScratch {
        ExecScratch {
            kernels: self.session.into_cache(),
            merge: self.merge_scratch,
            partition: self.partition_scratch,
            router: self.router,
        }
    }

    /// Opens a bare context over `g` from simulation parameters alone: fast
    /// kernel, no reliable delivery. The standalone phase entry points
    /// (`run_setup`, `merge_parts`, `symmetry_break`)
    /// use this to keep their historical `(&Graph, &SimConfig)` signatures.
    pub fn with_sim(g: &'g Graph, sim: &SimConfig) -> Self {
        let cfg = EmbedderConfig {
            sim: sim.clone(),
            ..EmbedderConfig::default()
        };
        ExecutionContext::new(g, &cfg)
    }

    /// The session graph every [`run_phase`](Self::run_phase) executes on.
    pub fn graph(&self) -> &'g Graph {
        self.session.graph()
    }

    /// Heap bytes currently reserved by the context's retained arenas: the
    /// session's arc index plus every warm simulator in the kernel cache.
    /// This is the driver's resident kernel footprint — the bench harness
    /// divides it by `n` for its bytes/node column.
    pub fn memory_bytes(&self) -> usize {
        self.session.memory_bytes()
    }

    /// Enters `phase`: subsequent charges land in its bucket, a failure
    /// before the next [`enter`](Self::enter) is attributed to it, and the
    /// transition is announced on the trace sink (a no-op with tracing
    /// off) so trace consumers can attribute the following kernel segments.
    pub fn enter(&mut self, phase: Phase) {
        self.tally.phase = phase;
        if self.sim.trace.is_on() {
            self.sim.trace.emit(TraceEvent::Phase { phase });
        }
    }

    /// The phase currently executing (the last [`enter`](Self::enter)).
    pub fn phase(&self) -> Phase {
        self.tally.phase
    }

    /// Rounds charged so far, sequentially across phases — the quantity
    /// degraded runs report as `rounds_used`.
    pub fn rounds_used(&self) -> usize {
        self.tally.rounds
    }

    /// Per-phase attribution of [`rounds_used`](Self::rounds_used); the
    /// context maintains `phase_rounds().sum() == rounds_used()`.
    pub fn phase_rounds(&self) -> PhaseRounds {
        self.tally.phases
    }

    /// Charges one phase's metrics to the sequential tally. Every phase
    /// stamps its own `phase_rounds` with `sum() == rounds`, so the tally
    /// invariant `rounds == phases.sum()` is preserved by construction.
    pub fn charge(&mut self, m: &Metrics) {
        self.tally.rounds = self.tally.rounds.saturating_add(m.rounds);
        self.tally.phases.add(m.phase_rounds);
        debug_assert_eq!(
            self.tally.rounds,
            self.tally.phases.sum(),
            "a phase left rounds unattributed in phase_rounds"
        );
    }

    /// Charges rounds a phase consumed before *aborting* (watchdog fire or
    /// round-cap hit). An aborted phase returns an error instead of
    /// `Metrics`, so without this a run killed in its first phase would
    /// report `rounds_used: 0` after burning the full watchdog budget. The
    /// charge lands in the bucket of the phase that was running — the typed
    /// [`Phase`] has a bucket for every variant by construction.
    pub fn charge_partial(&mut self, rounds: usize) {
        self.tally.rounds = self.tally.rounds.saturating_add(rounds);
        let bucket = self.tally.phases.bucket_mut(self.tally.phase);
        *bucket = bucket.saturating_add(rounds);
        debug_assert_eq!(
            self.tally.rounds,
            self.tally.phases.sum(),
            "a partial charge left rounds unattributed in phase_rounds"
        );
    }

    /// Charges `transfers` (in order) over the session graph under the
    /// configured budget: [`congest_sim::routing::schedule`] on the
    /// session's arc index and the context's reused routing tables.
    ///
    /// # Errors
    ///
    /// As [`congest_sim::routing::schedule`].
    pub fn schedule<'t>(
        &mut self,
        transfers: impl IntoIterator<Item = Transfer<'t>>,
    ) -> Result<Metrics, RoutingError> {
        self.router
            .schedule(self.session.arc_index(), transfers, self.sim.budget_words)
    }

    /// Runs one protocol phase over the session graph, reliably if the
    /// context is so configured, on the configured kernel. `batch` is one
    /// program per vertex or a level of vertex-disjoint instances (see
    /// [`Batch`]); a batch's per-instance metrics equal what each instance
    /// costs alone, and the kernel rejects any cross-instance message
    /// ([`SimError::CrossInstanceSend`]).
    ///
    /// With no reliability this is byte-for-byte [`congest_sim::run`] or
    /// [`congest_sim::run_many`] (the fast kernel additionally reuses the
    /// session's arc index and warm buffers, which is outcome-invariant by
    /// the simulator's contract). With reliability the programs run inside
    /// the ack/retransmit wrapper against a config whose budget is widened
    /// by [`wrapped_budget`]; the wrapper's retransmissions are folded into
    /// the returned metrics (per instance, for a batch).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] exactly as the kernel does.
    ///
    /// # Panics
    ///
    /// Panics if instances overlap or name vertices outside the graph.
    pub fn run_phase<B>(&mut self, batch: B) -> Result<B::Outcome, SimError>
    where
        B: Batch,
        <B::Program as NodeProgram>::Msg: 'static,
    {
        self.dispatch(None, batch)
    }

    /// Runs one protocol phase over a *foreign* graph — the virtual
    /// inter-part graphs of the symmetry-breaking step, which are built
    /// per merge and share nothing with the session graph. Same kernel and
    /// reliability treatment as [`run_phase`](Self::run_phase). The fast
    /// kernel is served from the session's [`KernelCache`], which is
    /// graph-independent by contract, so only `g`'s arc index is built per
    /// call; the outcome equals a one-shot [`congest_sim::run`].
    ///
    /// # Errors
    ///
    /// As [`run_phase`](Self::run_phase).
    pub fn run_phase_on<B>(&mut self, g: &Graph, batch: B) -> Result<B::Outcome, SimError>
    where
        B: Batch,
        <B::Program as NodeProgram>::Msg: 'static,
    {
        self.dispatch(Some(g), batch)
    }

    /// The one kernel × reliability dispatch: `batch` on the configured
    /// kernel over `foreign` (or the session graph), wrapped and unwrapped
    /// around the run when reliable delivery is on.
    fn dispatch<B>(&mut self, foreign: Option<&Graph>, batch: B) -> Result<B::Outcome, SimError>
    where
        B: Batch,
        <B::Program as NodeProgram>::Msg: 'static,
    {
        let Some((rel, wide)) = &self.reliable else {
            return on_kernel(self.kernel, &mut self.session, foreign, batch, &self.sim);
        };
        let out = on_kernel(
            self.kernel,
            &mut self.session,
            foreign,
            batch.wrap(rel),
            wide,
        )?;
        Ok(B::unwrap(out, wide))
    }
}

/// Runs `batch` under `cfg` on `kernel`, over `foreign` or else the
/// session graph.
fn on_kernel<B>(
    kernel: Kernel,
    session: &mut SimSession<'_>,
    foreign: Option<&Graph>,
    batch: B,
    cfg: &SimConfig,
) -> Result<B::Outcome, SimError>
where
    B: Batch,
    <B::Program as NodeProgram>::Msg: 'static,
{
    match (kernel, foreign) {
        (Kernel::Fast, None) => session.run(batch, cfg),
        (Kernel::Fast, Some(g)) => session.run_on(g, batch, cfg),
        (Kernel::Reference, g) => batch.run_reference(g.unwrap_or(session.graph()), cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::protocols::LeaderBfs;
    use congest_sim::reference::run_reference;
    use congest_sim::{run, FaultPlan, SimOutcome};
    use planar_graph::VertexId;
    use planar_lib::gen;

    fn leader_programs(g: &Graph) -> Vec<LeaderBfs<'_>> {
        g.vertices()
            .map(|v| LeaderBfs::new(v, g.neighbors(v)))
            .collect()
    }

    fn bare<'a>(
        g: &'a Graph,
        sim: &SimConfig,
        kernel: Kernel,
        rel: Option<ReliableConfig>,
    ) -> ExecutionContext<'a> {
        let cfg = EmbedderConfig {
            sim: sim.clone(),
            kernel,
            reliability: rel,
            ..EmbedderConfig::default()
        };
        ExecutionContext::new(g, &cfg)
    }

    #[test]
    fn unreliable_phase_is_plain_run() {
        let g = gen::grid(3, 3);
        let cfg = SimConfig::default();
        let mut ctx = ExecutionContext::with_sim(&g, &cfg);
        let a = ctx.run_phase(leader_programs(&g)).unwrap();
        let b = run(&g, leader_programs(&g), &cfg).unwrap();
        let view = |o: &SimOutcome<LeaderBfs>| {
            o.programs
                .iter()
                .map(|p| (p.leader(), p.parent(), p.dist()))
                .collect::<Vec<_>>()
        };
        assert_eq!(view(&a), view(&b));
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn reference_kernel_matches_fast() {
        let g = gen::triangulated_grid(3, 4);
        let cfg = SimConfig::default();
        let mut fast = bare(&g, &cfg, Kernel::Fast, None);
        let mut reference = bare(&g, &cfg, Kernel::Reference, None);
        let a = fast.run_phase(leader_programs(&g)).unwrap();
        let b = reference.run_phase(leader_programs(&g)).unwrap();
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn reliable_phase_survives_loss_on_both_kernels() {
        let g = gen::grid(3, 3);
        let cfg = SimConfig {
            faults: FaultPlan::uniform(5, 0.3, 0.05, 0.2, 2),
            ..SimConfig::default()
        };
        for kernel in [Kernel::Fast, Kernel::Reference] {
            let mut ctx = bare(&g, &cfg, kernel, Some(ReliableConfig::default()));
            let out = ctx.run_phase(leader_programs(&g)).unwrap();
            assert!(out.programs.iter().all(|p| p.leader() == VertexId(8)));
            assert!(out.metrics.dropped > 0);
        }
    }

    /// `run_phase_on` serves foreign graphs from the session's kernel
    /// cache: two different virtual graphs in a row on one context (and on
    /// a context whose cache the session graph already warmed) give the
    /// outcomes and metrics of fresh one-shot runs on both kernels.
    #[test]
    fn warm_foreign_graph_runs_match_fresh_runs() {
        let host = gen::grid(4, 4);
        let cfg = SimConfig::default();
        let view = |o: &SimOutcome<LeaderBfs>| {
            o.programs
                .iter()
                .map(|p| (p.leader(), p.parent(), p.dist()))
                .collect::<Vec<_>>()
        };
        let foreign = [
            gen::random_outerplanar(13, 3),
            gen::path(5),
            gen::triangulated_grid(3, 5),
        ];
        for kernel in [Kernel::Fast, Kernel::Reference] {
            let mut ctx = bare(&host, &cfg, kernel, None);
            ctx.run_phase(leader_programs(&host)).unwrap();
            for gv in &foreign {
                let warm = ctx.run_phase_on(gv, leader_programs(gv)).unwrap();
                let fresh = run(gv, leader_programs(gv), &cfg).unwrap();
                let reference = run_reference(gv, leader_programs(gv), &cfg).unwrap();
                assert_eq!(view(&warm), view(&fresh));
                assert_eq!(view(&warm), view(&reference));
                assert_eq!(warm.metrics, fresh.metrics);
                assert_eq!(warm.metrics, reference.metrics);
            }
        }
        // The symmetry step itself, through the context and one-shot.
        let mut ctx = ExecutionContext::with_sim(&host, &cfg);
        for gv in &foreign {
            let colors: Vec<u32> = gv.vertices().map(|v| v.0 % 3 + v.0 / 3).collect();
            let colors = proper(gv, colors);
            let warm = crate::symmetry::symmetry_break_ctx(&mut ctx, gv, &colors).unwrap();
            let fresh = crate::symmetry::symmetry_break(gv, &colors, &cfg).unwrap();
            assert!(warm.stars().eq(fresh.stars()));
            assert!(warm.chains().eq(fresh.chains()));
            assert_eq!(warm.rounds, fresh.rounds);
        }
    }

    /// Greedy repair of `colors` into a proper coloring of `g`.
    fn proper(g: &Graph, mut colors: Vec<u32>) -> Vec<u32> {
        for v in g.vertices() {
            while g
                .neighbors(v)
                .iter()
                .any(|w| w < &v && colors[w.index()] == colors[v.index()])
            {
                colors[v.index()] += 1;
            }
        }
        colors
    }

    #[test]
    fn charges_land_in_the_entered_phase() {
        let g = gen::path(3);
        let mut ctx = ExecutionContext::with_sim(&g, &SimConfig::default());
        ctx.enter(Phase::Partition);
        ctx.charge_partial(5);
        ctx.enter(Phase::Symmetry);
        ctx.charge_partial(2);
        assert_eq!(ctx.rounds_used(), 7);
        assert_eq!(ctx.phase_rounds().partition, 5);
        assert_eq!(ctx.phase_rounds().symmetry, 2);
        assert_eq!(ctx.phase_rounds().sum(), ctx.rounds_used());
        assert_eq!(ctx.phase(), Phase::Symmetry);
    }
}
