use std::error::Error;
use std::fmt;

use congest_sim::routing::RoutingError;
use congest_sim::SimError;
use planar_graph::GraphError;
use planar_lib::PlanarityError;

/// Errors produced by the distributed embedding algorithm.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum EmbedError {
    /// The input network is not planar (the algorithm doubles as a planarity
    /// test: some merge found an interface with no planar completion).
    NonPlanar,
    /// The input network is disconnected; a distributed network is connected
    /// by definition, so this is an input error.
    Disconnected,
    /// The input network is empty.
    EmptyGraph,
    /// A kernel simulation failed (budget violation etc.) — indicates an
    /// internal protocol bug, surfaced rather than hidden.
    Sim(SimError),
    /// A routed transfer was malformed — indicates an internal bug.
    Routing(RoutingError),
    /// An internal invariant of the partial-embedding machinery failed.
    Internal(String),
    /// An underlying graph error.
    Graph(GraphError),
    /// The run was degraded by injected faults (crash-stop nodes, message
    /// loss) rather than failing outright: the algorithm terminated — it did
    /// not hang — but could not produce a verified embedding of the full
    /// network. Only produced in fault mode (a non-empty
    /// [`FaultPlan`](congest_sim::FaultPlan) on the simulator config).
    Degraded {
        /// Nodes not scheduled to crash by the fault plan.
        surviving_nodes: usize,
        /// Kernel rounds consumed across phases before the run degraded
        /// (sequential tally, an upper bound on the parallel cost).
        /// Completed phases are charged exactly; a phase killed by the
        /// watchdog or round cap is charged its configured limit. A phase
        /// that failed *without* a round-limit error (e.g. a postcondition
        /// it never established) returns no metrics and contributes
        /// nothing, so the total is a lower bound on rounds executed.
        rounds_used: usize,
        /// Whether the embedding restricted to the surviving subgraph was
        /// re-verified *successfully*. `true` only when verification ran
        /// and passed (the [`DegradedCause::SurvivorsOnly`] outcome);
        /// `false` both when verification ran and failed
        /// ([`DegradedCause::OutputUnverified`]) and when the run failed
        /// before producing anything to verify. Callers must not treat a
        /// degraded result as a certified embedding unless this is `true`.
        verified: bool,
        /// What specifically went wrong.
        cause: DegradedCause,
    },
}

/// The reason a faulty run ended in [`EmbedError::Degraded`].
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum DegradedCause {
    /// A kernel simulation aborted — e.g. the round-budget watchdog fired
    /// ([`SimError::WatchdogTimeout`]) or a send targeted a crashed node
    /// under [`CrashPolicy::Error`](congest_sim::CrashPolicy). The original
    /// error is preserved losslessly.
    Sim(SimError),
    /// A protocol phase terminated without establishing its postcondition
    /// (a convergecast missed the root, the centroid walk never finished, a
    /// merge was handed fault-corrupted part state, ...).
    PhaseIncomplete {
        /// The phase that came up short: `"setup"`, `"partition"`,
        /// `"symmetry"`, `"merge"`, or `"cert"`.
        phase: &'static str,
    },
    /// All phases completed but the post-run self-verification could not
    /// certify the computed rotation on the surviving subgraph.
    OutputUnverified,
    /// All phases completed and the rotation restricted to the surviving
    /// subgraph re-verified successfully — but nodes crash-stopped during
    /// the run, so the result covers only the survivors, not the full
    /// input network. The only cause paired with `verified: true`.
    SurvivorsOnly,
}

impl fmt::Display for DegradedCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradedCause::Sim(e) => write!(f, "simulation aborted: {e}"),
            DegradedCause::PhaseIncomplete { phase } => {
                write!(f, "the {phase} phase terminated without its postcondition")
            }
            DegradedCause::OutputUnverified => {
                write!(
                    f,
                    "output failed self-verification on the surviving subgraph"
                )
            }
            DegradedCause::SurvivorsOnly => {
                write!(
                    f,
                    "embedding verified on the surviving subgraph only (nodes crashed)"
                )
            }
        }
    }
}

impl Error for DegradedCause {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DegradedCause::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl fmt::Display for EmbedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmbedError::NonPlanar => write!(f, "input network is not planar"),
            EmbedError::Disconnected => write!(f, "input network is not connected"),
            EmbedError::EmptyGraph => write!(f, "input network has no vertices"),
            EmbedError::Sim(e) => write!(f, "simulation error: {e}"),
            EmbedError::Routing(e) => write!(f, "routing error: {e}"),
            EmbedError::Internal(msg) => write!(f, "internal invariant violated: {msg}"),
            EmbedError::Graph(e) => write!(f, "graph error: {e}"),
            EmbedError::Degraded {
                surviving_nodes,
                rounds_used,
                verified,
                cause,
            } => write!(
                f,
                "run degraded by injected faults after {rounds_used} rounds \
                 ({surviving_nodes} surviving nodes, survivors {}verified): {cause}",
                if *verified { "" } else { "not " }
            ),
        }
    }
}

impl Error for EmbedError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EmbedError::Sim(e) => Some(e),
            EmbedError::Routing(e) => Some(e),
            EmbedError::Graph(e) => Some(e),
            EmbedError::Degraded { cause, .. } => Some(cause),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<SimError> for EmbedError {
    fn from(e: SimError) -> Self {
        EmbedError::Sim(e)
    }
}

#[doc(hidden)]
impl From<RoutingError> for EmbedError {
    fn from(e: RoutingError) -> Self {
        EmbedError::Routing(e)
    }
}

#[doc(hidden)]
impl From<GraphError> for EmbedError {
    fn from(e: GraphError) -> Self {
        EmbedError::Graph(e)
    }
}

#[doc(hidden)]
impl From<PlanarityError> for EmbedError {
    fn from(e: PlanarityError) -> Self {
        match e {
            PlanarityError::NonPlanar { .. } | PlanarityError::TooManyEdges { .. } => {
                EmbedError::NonPlanar
            }
            // The partition is safe by construction (Lemma 4.1), and safety
            // guarantees co-facial half-embedded edges *for planar inputs*
            // (Section 3). A part whose half-embedded edges cannot share a
            // face is therefore a planarity witness for the whole network.
            PlanarityError::UnsatisfiableConstraint { .. } => EmbedError::NonPlanar,
            PlanarityError::Graph(g) => EmbedError::Graph(g),
            other => EmbedError::Internal(format!("unexpected planarity error: {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_traits() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EmbedError>();
        assert!(EmbedError::NonPlanar.to_string().contains("not planar"));
    }

    #[test]
    fn degraded_is_lossless_and_sourced() {
        // Satellite requirement: fault-path failures are typed, not
        // stringly — the SimError survives intact behind source().
        let e = EmbedError::Degraded {
            surviving_nodes: 7,
            rounds_used: 42,
            verified: false,
            cause: DegradedCause::Sim(SimError::WatchdogTimeout { limit: 42 }),
        };
        let msg = e.to_string();
        assert!(
            msg.contains("42 rounds") && msg.contains("7 surviving"),
            "{msg}"
        );
        let cause = e.source().expect("Degraded has a source");
        let sim = cause.source().expect("Sim cause chains to the SimError");
        assert!(sim.to_string().contains("watchdog"));

        let p = EmbedError::Degraded {
            surviving_nodes: 3,
            rounds_used: 9,
            verified: false,
            cause: DegradedCause::PhaseIncomplete { phase: "setup" },
        };
        assert!(p.to_string().contains("setup phase"));
    }

    #[test]
    fn degraded_display_reports_verification() {
        let v = EmbedError::Degraded {
            surviving_nodes: 5,
            rounds_used: 10,
            verified: true,
            cause: DegradedCause::SurvivorsOnly,
        };
        assert!(v.to_string().contains("survivors verified"));
        let u = EmbedError::Degraded {
            surviving_nodes: 5,
            rounds_used: 10,
            verified: false,
            cause: DegradedCause::OutputUnverified,
        };
        assert!(u.to_string().contains("survivors not verified"));
    }

    #[test]
    fn planarity_error_conversion() {
        let e: EmbedError = PlanarityError::NonPlanar { embedded_edges: 3 }.into();
        assert!(matches!(e, EmbedError::NonPlanar));
        // An unsatisfiable pin constraint inside the algorithm is a
        // planarity witness (see the From impl).
        let e: EmbedError = PlanarityError::UnsatisfiableConstraint { reason: "x".into() }.into();
        assert!(matches!(e, EmbedError::NonPlanar));
    }
}
