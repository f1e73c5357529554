//! One entry for both shapes of a kernel run.
//!
//! The kernels take a run's programs in two shapes: one program per vertex
//! (`Vec<P>`, a plain run returning [`SimOutcome`]) or vertex-disjoint
//! [`Instance`]s (`Vec<Instance<P>>`, a batched run returning
//! [`MultiOutcome`]). A plain run is the batch of one instance that holds
//! every vertex, run without the instance table. [`Batch`] is what the two
//! shapes share, so a caller writes one dispatch over the kernels and
//! reliable delivery for both: [`SimSession::run`](crate::SimSession::run),
//! [`run_reliable`](crate::protocols::run_reliable) and the embedder's
//! execution context.

use planar_graph::{ArcIndex, Graph};

use crate::network::{
    Instance, InstanceOutcome, MultiOutcome, NodeProgram, SimConfig, SimError, SimOutcome,
    Simulator,
};
use crate::protocols::reliable::{announce, lift, unwrap_all, Reliable, ReliableConfig};
use crate::reference::{run_reference, run_reference_many};

/// The programs of one kernel run: `Vec<P>` (plain) or `Vec<Instance<P>>`
/// (batched). See the module docs.
pub trait Batch: Sized {
    /// The program every member runs.
    type Program: NodeProgram;
    /// What a completed run returns.
    type Outcome;
    /// The same shape with every program wrapped in [`Reliable`].
    type Wrapped: Batch<Program = Reliable<Self::Program>>;

    /// Wraps every program in [`Reliable`] with the parameters `rel`.
    fn wrap(self, rel: &ReliableConfig) -> Self::Wrapped;

    /// Unwraps a wrapped run back to the inner programs, folding each
    /// program's retransmissions into the metrics that cover it (its
    /// instance's and the whole run's) and announcing the run's total on
    /// `cfg`'s trace.
    fn unwrap(out: <Self::Wrapped as Batch>::Outcome, cfg: &SimConfig) -> Self::Outcome;

    /// Runs on the fast kernel `sim` over `g`, whose arc index is `idx`.
    ///
    /// # Errors
    ///
    /// As [`Simulator::run`] or [`Simulator::run_many`].
    fn run_fast(
        self,
        sim: &mut Simulator<<Self::Program as NodeProgram>::Msg>,
        g: &Graph,
        idx: &ArcIndex,
        cfg: &SimConfig,
    ) -> Result<Self::Outcome, SimError>;

    /// Runs on the reference kernel over `g`.
    ///
    /// # Errors
    ///
    /// As [`run_reference`] or [`run_reference_many`].
    fn run_reference(self, g: &Graph, cfg: &SimConfig) -> Result<Self::Outcome, SimError>;
}

impl<P: NodeProgram> Batch for Vec<P> {
    type Program = P;
    type Outcome = SimOutcome<P>;
    type Wrapped = Vec<Reliable<P>>;

    fn wrap(self, rel: &ReliableConfig) -> Self::Wrapped {
        self.into_iter().map(lift(rel)).collect()
    }

    fn unwrap(out: SimOutcome<Reliable<P>>, cfg: &SimConfig) -> SimOutcome<P> {
        let SimOutcome {
            programs,
            mut metrics,
        } = out;
        let (programs, count) = unwrap_all(programs, &mut metrics);
        announce(cfg, count);
        SimOutcome { programs, metrics }
    }

    fn run_fast(
        self,
        sim: &mut Simulator<P::Msg>,
        g: &Graph,
        idx: &ArcIndex,
        cfg: &SimConfig,
    ) -> Result<SimOutcome<P>, SimError> {
        assert_eq!(
            self.len(),
            g.vertex_count(),
            "need exactly one program per vertex"
        );
        let mut whole = [Instance {
            members: Vec::new(),
            programs: self,
        }];
        let (metrics, _) = sim.lattice(g, idx, &mut whole, false, cfg)?;
        let [Instance { programs, .. }] = whole;
        Ok(SimOutcome { programs, metrics })
    }

    fn run_reference(self, g: &Graph, cfg: &SimConfig) -> Result<SimOutcome<P>, SimError> {
        run_reference(g, self, cfg)
    }
}

impl<P: NodeProgram> Batch for Vec<Instance<P>> {
    type Program = P;
    type Outcome = MultiOutcome<P>;
    type Wrapped = Vec<Instance<Reliable<P>>>;

    fn wrap(self, rel: &ReliableConfig) -> Self::Wrapped {
        self.into_iter().map(|inst| inst.map(lift(rel))).collect()
    }

    fn unwrap(out: MultiOutcome<Reliable<P>>, cfg: &SimConfig) -> MultiOutcome<P> {
        let MultiOutcome {
            instances,
            mut metrics,
        } = out;
        let mut total = 0usize;
        let instances = instances
            .into_iter()
            .map(|inst| {
                let mut inst_metrics = inst.metrics;
                let (programs, count) = unwrap_all(inst.programs, &mut inst_metrics);
                total = total.saturating_add(count);
                InstanceOutcome {
                    members: inst.members,
                    programs,
                    metrics: inst_metrics,
                }
            })
            .collect();
        metrics.retransmissions = metrics.retransmissions.saturating_add(total);
        announce(cfg, total);
        MultiOutcome { instances, metrics }
    }

    fn run_fast(
        self,
        sim: &mut Simulator<P::Msg>,
        g: &Graph,
        idx: &ArcIndex,
        cfg: &SimConfig,
    ) -> Result<MultiOutcome<P>, SimError> {
        let mut instances = self;
        let (metrics, inst_metrics) = sim.lattice(g, idx, &mut instances, true, cfg)?;
        let instances = instances
            .into_iter()
            .zip(inst_metrics)
            .map(|(inst, &metrics)| InstanceOutcome {
                members: inst.members,
                programs: inst.programs,
                metrics,
            })
            .collect();
        Ok(MultiOutcome { instances, metrics })
    }

    fn run_reference(self, g: &Graph, cfg: &SimConfig) -> Result<MultiOutcome<P>, SimError> {
        run_reference_many(g, self, cfg)
    }
}
