//! Typed execution context: the one object threaded through every phase of
//! the embedding pipeline.
//!
//! Before this module, each phase function took a loose bundle of
//! `(&Graph, &SimConfig, Option<&ReliableConfig>)` parameters, funneled its
//! kernel invocation through `resilience::run_phase`, and the driver kept a
//! separate string-labeled round tally on the side. [`ExecutionContext`]
//! replaces all of that plumbing:
//!
//! * one [`SimSession`] per run, so the graph's CSR arc index and the
//!   kernel's mailbox arenas are built once and reused by every phase;
//! * kernel selection ([`Kernel::Fast`] vs the executable-spec
//!   [`Kernel::Reference`]) and opt-in reliable delivery applied uniformly
//!   at the single choke point every phase already goes through;
//! * the sequential round tally ([`ExecutionContext::charge`]) keyed by the
//!   typed [`Phase`] enum, so charging rounds to an unknown phase is
//!   unrepresentable (the old stringly-typed labels needed an
//!   `unreachable!` arm);
//! * batched execution ([`ExecutionContext::run_phase_many`]): the
//!   level-synchronous scheduler hands all same-level subproblems to the
//!   kernel as vertex-disjoint [`Instance`]s and gets per-instance metrics
//!   that are bit-identical to individual runs.
//!
//! [`Scheduler`] selects how the driver walks the recursion:
//! [`Scheduler::LevelSync`] (the default) batches sibling subproblems into
//! one kernel invocation per level, while [`Scheduler::Sequential`] keeps
//! the original one-kernel-run-per-subproblem recursion as the conformance
//! oracle — both produce bit-identical rotations, metrics, statistics and
//! certification verdicts (pinned by `tests/scheduler.rs`).

use congest_sim::protocols::{
    run_reliable, unwrap_reliable, unwrap_reliable_many, wrap_instances, wrap_programs,
    ReliableConfig,
};
use congest_sim::reference::{run_reference, run_reference_many};
use congest_sim::{
    run, Instance, KernelCache, Metrics, MultiOutcome, NodeProgram, Phase, PhaseRounds, SimConfig,
    SimError, SimOutcome, SimSession, TraceEvent,
};
use planar_graph::Graph;

use crate::resilience::wrapped_budget;
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
    /// invocation over vertex-disjoint [`Instance`]s, then all their merges
    /// run, level by level. Host-side cost per level is proportional to the
    /// level's total subproblem size instead of `O(n)` per subproblem.
    #[default]
    LevelSync,
    /// The original depth-first recursion: one full-graph kernel run per
    /// subproblem phase. Kept as the conformance oracle — bit-identical
    /// outputs to [`Scheduler::LevelSync`] at a quadratic-ish host cost.
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

/// The execution context of one embedding run: graph session, simulation
/// parameters, kernel/reliability selection, and the phase-attributed
/// round tally. Every kernel invocation of every phase goes through one of
/// its `run_phase*` methods.
#[derive(Debug)]
pub struct ExecutionContext<'g> {
    session: SimSession<'g>,
    sim: SimConfig,
    reliability: Option<ReliableConfig>,
    kernel: Kernel,
    tally: Tally,
}

impl<'g> ExecutionContext<'g> {
    /// Opens a context over `g` with the embedder's full configuration
    /// (kernel, reliability, simulation parameters).
    pub fn new(g: &'g Graph, cfg: &EmbedderConfig) -> Self {
        ExecutionContext::with_kernel_cache(g, cfg, KernelCache::new())
    }

    /// Opens a context over `g` reusing a warm [`KernelCache`] from an
    /// earlier run (possibly over a different graph — the cache is
    /// graph-independent by the simulator's contract). The incremental
    /// re-embedding path threads one cache per tenant across deltas, so
    /// every re-run starts on warm mailbox arenas.
    pub fn with_kernel_cache(g: &'g Graph, cfg: &EmbedderConfig, cache: KernelCache) -> Self {
        ExecutionContext {
            session: SimSession::with_cache(g, cache),
            sim: cfg.sim.clone(),
            reliability: cfg.reliability.clone(),
            kernel: cfg.kernel,
            tally: Tally {
                rounds: 0,
                phases: PhaseRounds::default(),
                phase: Phase::Setup,
            },
        }
    }

    /// Closes the context, recovering the kernel cache for a later run.
    pub fn into_kernel_cache(self) -> KernelCache {
        self.session.into_cache()
    }

    /// Opens a bare context over `g` from simulation parameters alone: fast
    /// kernel, no reliable delivery. The standalone phase entry points
    /// (`run_setup`, `partition_subtree`, `merge_parts`, `symmetry_break`)
    /// use this to keep their historical `(&Graph, &SimConfig)` signatures.
    pub fn with_sim(g: &'g Graph, sim: &SimConfig) -> Self {
        ExecutionContext {
            session: SimSession::new(g),
            sim: sim.clone(),
            reliability: None,
            kernel: Kernel::Fast,
            tally: Tally {
                rounds: 0,
                phases: PhaseRounds::default(),
                phase: Phase::Setup,
            },
        }
    }

    /// The session graph every [`run_phase`](Self::run_phase) executes on.
    pub fn graph(&self) -> &'g Graph {
        self.session.graph()
    }

    /// The simulation parameters (budget, fault plan, watchdog, trace).
    pub fn sim(&self) -> &SimConfig {
        &self.sim
    }

    /// The reliable-delivery configuration, if phases run wrapped.
    pub fn reliability(&self) -> Option<&ReliableConfig> {
        self.reliability.as_ref()
    }

    /// The kernel executing the phases.
    pub fn kernel(&self) -> Kernel {
        self.kernel
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

    /// The widened configuration reliable-wrapped kernel runs execute
    /// under (see [`wrapped_budget`]).
    fn widened(&self) -> SimConfig {
        let mut cfg = self.sim.clone();
        cfg.budget_words = wrapped_budget(cfg.budget_words);
        cfg
    }

    /// Runs one protocol phase over the session graph, reliably if the
    /// context is so configured, on the configured kernel.
    ///
    /// With no reliability this is byte-for-byte [`congest_sim::run`] (the
    /// fast kernel additionally reuses the session's arc index and warm
    /// buffers, which is outcome-invariant by the simulator's contract).
    /// With reliability the programs run inside the ack/retransmit wrapper
    /// against a config whose budget is widened by [`wrapped_budget`]; the
    /// wrapper's retransmission count is folded into the returned metrics.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] exactly as [`congest_sim::run`] does.
    pub fn run_phase<P>(&mut self, programs: Vec<P>) -> Result<SimOutcome<P>, SimError>
    where
        P: NodeProgram,
        P::Msg: 'static,
    {
        match &self.reliability {
            None => match self.kernel {
                Kernel::Fast => self.session.run(programs, &self.sim),
                Kernel::Reference => run_reference(self.session.graph(), programs, &self.sim),
            },
            Some(rel) => {
                let wrapped_cfg = {
                    let mut cfg = self.sim.clone();
                    cfg.budget_words = wrapped_budget(cfg.budget_words);
                    cfg
                };
                let wrapped = wrap_programs(programs, rel);
                let out = match self.kernel {
                    Kernel::Fast => self.session.run(wrapped, &wrapped_cfg)?,
                    Kernel::Reference => {
                        run_reference(self.session.graph(), wrapped, &wrapped_cfg)?
                    }
                };
                Ok(unwrap_reliable(out, &wrapped_cfg))
            }
        }
    }

    /// Runs one protocol phase over a *foreign* graph — the virtual
    /// inter-part graphs of the symmetry-breaking step, which are built
    /// per merge and share nothing with the session graph. Same kernel and
    /// reliability treatment as [`run_phase`](Self::run_phase), without
    /// session reuse.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] exactly as [`congest_sim::run`] does.
    pub fn run_phase_on<P>(
        &mut self,
        g: &Graph,
        programs: Vec<P>,
    ) -> Result<SimOutcome<P>, SimError>
    where
        P: NodeProgram,
    {
        match (&self.reliability, self.kernel) {
            (None, Kernel::Fast) => run(g, programs, &self.sim),
            (None, Kernel::Reference) => run_reference(g, programs, &self.sim),
            (Some(rel), Kernel::Fast) => run_reliable(g, programs, &self.widened(), rel),
            (Some(rel), Kernel::Reference) => {
                let wrapped_cfg = self.widened();
                let out = run_reference(g, wrap_programs(programs, rel), &wrapped_cfg)?;
                Ok(unwrap_reliable(out, &wrapped_cfg))
            }
        }
    }

    /// Runs vertex-disjoint subproblem instances in *one* shared round
    /// lattice over the session graph — the level-synchronous scheduler's
    /// batched entry point. Per-instance metrics are bit-identical to what
    /// each instance would have cost running alone, and the kernel rejects
    /// any cross-instance message ([`SimError::CrossInstanceSend`]).
    ///
    /// With reliability, every instance's programs are wrapped before the
    /// batch and unwrapped after, with retransmissions folded per instance.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] like [`congest_sim::run_many`].
    ///
    /// # Panics
    ///
    /// Panics if instances overlap or name vertices outside the graph.
    pub fn run_phase_many<P>(
        &mut self,
        instances: Vec<Instance<P>>,
    ) -> Result<MultiOutcome<P>, SimError>
    where
        P: NodeProgram,
        P::Msg: 'static,
    {
        match &self.reliability {
            None => match self.kernel {
                Kernel::Fast => self.session.run_many(instances, &self.sim),
                Kernel::Reference => run_reference_many(self.session.graph(), instances, &self.sim),
            },
            Some(rel) => {
                let wrapped_cfg = {
                    let mut cfg = self.sim.clone();
                    cfg.budget_words = wrapped_budget(cfg.budget_words);
                    cfg
                };
                let wrapped = wrap_instances(instances, rel);
                let out = match self.kernel {
                    Kernel::Fast => self.session.run_many(wrapped, &wrapped_cfg)?,
                    Kernel::Reference => {
                        run_reference_many(self.session.graph(), wrapped, &wrapped_cfg)?
                    }
                };
                Ok(unwrap_reliable_many(out, &wrapped_cfg))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::protocols::LeaderBfs;
    use congest_sim::FaultPlan;
    use planar_graph::VertexId;
    use planar_lib::gen;

    fn leader_programs(g: &Graph) -> Vec<LeaderBfs> {
        g.vertices()
            .map(|v| LeaderBfs::new(v, g.neighbors(v).to_vec()))
            .collect()
    }

    fn bare<'a>(
        g: &'a Graph,
        sim: &SimConfig,
        kernel: Kernel,
        rel: Option<ReliableConfig>,
    ) -> ExecutionContext<'a> {
        let mut ctx = ExecutionContext::with_sim(g, sim);
        ctx.kernel = kernel;
        ctx.reliability = rel;
        ctx
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
