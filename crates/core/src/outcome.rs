//! Outcome classification for shadow checks: collapses a full embedding
//! result into a small, comparable lattice of terminal classes.
//!
//! The DST harness (`crates/dst`) runs every generated scenario several
//! times — primary run, kernel-flipped shadow, scheduler-flipped shadow —
//! and has to answer two questions per pair:
//! *did the runs land in the same class?* and *is that class even allowed
//! for this scenario?* Matching on [`EmbedError`]'s full structure in every
//! caller would smear the classification rules across crates; this module
//! is the single authority.
//!
//! The allowed-terminal lattice (DESIGN.md §13):
//!
//! * a **fault-free** scenario on a connected planar input must end in
//!   [`OutcomeClass::Embedded`] — anything else is a harness violation;
//! * a **faulty** scenario must end in [`OutcomeClass::Embedded`],
//!   [`OutcomeClass::DegradedVerified`] or
//!   [`OutcomeClass::DegradedUnverified`] — the PR 2 graceful-degradation
//!   contract (termination with a typed result, never a hang, never an
//!   internal error);
//! * [`OutcomeClass::InvalidInput`] and [`OutcomeClass::NonPlanar`] are
//!   legitimate only when the input actually is invalid or non-planar —
//!   the DST generator registry guarantees its graphs are neither;
//! * [`OutcomeClass::Failed`] is never acceptable: it means a framework
//!   invariant or kernel contract broke outside fault mode's typed
//!   degradation path.

use crate::driver::EmbeddingOutcome;
use crate::error::{DegradedCause, EmbedError};

/// The terminal class of one embedding run. Ordering is roughly
/// "best to worst"; equality is what shadow checks compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OutcomeClass {
    /// The run produced a verified embedding of the full network.
    Embedded,
    /// The run terminated under injected faults with a result that
    /// re-verified on the surviving subgraph
    /// ([`EmbedError::Degraded`] with `verified: true`).
    DegradedVerified,
    /// The run terminated under injected faults without a verifiable
    /// result ([`EmbedError::Degraded`] with `verified: false`).
    DegradedUnverified,
    /// The algorithm rejected the input as non-planar.
    NonPlanar,
    /// The input was rejected before the algorithm ran (empty,
    /// disconnected, or structurally invalid).
    InvalidInput,
    /// The run failed with an internal/simulation/routing error — a bug
    /// surfaced, not a legitimate terminal state.
    Failed,
}

impl OutcomeClass {
    /// Classifies a full embedding result.
    pub fn of(result: &Result<EmbeddingOutcome, EmbedError>) -> OutcomeClass {
        match result {
            Ok(_) => OutcomeClass::Embedded,
            Err(EmbedError::NonPlanar) => OutcomeClass::NonPlanar,
            Err(EmbedError::Disconnected | EmbedError::EmptyGraph | EmbedError::Graph(_)) => {
                OutcomeClass::InvalidInput
            }
            Err(EmbedError::Degraded { verified: true, .. }) => OutcomeClass::DegradedVerified,
            Err(EmbedError::Degraded {
                verified: false, ..
            }) => OutcomeClass::DegradedUnverified,
            // `EmbedError` is non-exhaustive downstream but this is its
            // defining crate: adding a variant forces a decision here.
            Err(EmbedError::Sim(_) | EmbedError::Routing(_) | EmbedError::Internal(_)) => {
                OutcomeClass::Failed
            }
        }
    }

    /// A short stable identifier for artifacts and log lines.
    pub fn code(self) -> &'static str {
        match self {
            OutcomeClass::Embedded => "embedded",
            OutcomeClass::DegradedVerified => "degraded-verified",
            OutcomeClass::DegradedUnverified => "degraded-unverified",
            OutcomeClass::NonPlanar => "non-planar",
            OutcomeClass::InvalidInput => "invalid-input",
            OutcomeClass::Failed => "failed",
        }
    }

    /// Whether this class is an allowed terminal for a scenario on a
    /// connected planar input: always [`OutcomeClass::Embedded`]; the two
    /// degraded classes only when faults were injected (`faulty`).
    pub fn allowed_on_planar_input(self, faulty: bool) -> bool {
        match self {
            OutcomeClass::Embedded => true,
            OutcomeClass::DegradedVerified | OutcomeClass::DegradedUnverified => faulty,
            OutcomeClass::NonPlanar | OutcomeClass::InvalidInput | OutcomeClass::Failed => false,
        }
    }
}

/// A stable fingerprint of a degraded run for bit-identity comparison:
/// `(surviving_nodes, rounds_used, verified, cause discriminant name)`.
/// `None` for every non-degraded result.
///
/// Kernel-flipped shadow runs must agree on *all four* fields
/// (both kernels replay the identical fault schedule); scheduler-flipped
/// runs compare everything except `rounds_used` — once a mid-run abort
/// interleaves instances differently, the two schedulers legitimately
/// charge different partial tallies (see `core/tests/scheduler.rs`).
pub fn degraded_fingerprint(
    result: &Result<EmbeddingOutcome, EmbedError>,
) -> Option<(usize, usize, bool, &'static str)> {
    match result {
        Err(EmbedError::Degraded {
            surviving_nodes,
            rounds_used,
            verified,
            cause,
        }) => {
            let cause_code = match cause {
                DegradedCause::Sim(_) => "sim",
                DegradedCause::PhaseIncomplete { phase } => phase,
                DegradedCause::OutputUnverified => "output-unverified",
                DegradedCause::SurvivorsOnly => "survivors-only",
            };
            Some((*surviving_nodes, *rounds_used, *verified, cause_code))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::SimError;

    fn degraded(verified: bool, cause: DegradedCause) -> Result<EmbeddingOutcome, EmbedError> {
        Err(EmbedError::Degraded {
            surviving_nodes: 5,
            rounds_used: 17,
            verified,
            cause,
        })
    }

    #[test]
    fn classification_covers_the_error_lattice() {
        assert_eq!(
            OutcomeClass::of(&Err(EmbedError::NonPlanar)),
            OutcomeClass::NonPlanar
        );
        assert_eq!(
            OutcomeClass::of(&Err(EmbedError::Disconnected)),
            OutcomeClass::InvalidInput
        );
        assert_eq!(
            OutcomeClass::of(&Err(EmbedError::EmptyGraph)),
            OutcomeClass::InvalidInput
        );
        assert_eq!(
            OutcomeClass::of(&Err(EmbedError::Internal("x".into()))),
            OutcomeClass::Failed
        );
        assert_eq!(
            OutcomeClass::of(&Err(EmbedError::Sim(SimError::WatchdogTimeout {
                limit: 3
            }))),
            OutcomeClass::Failed
        );
        assert_eq!(
            OutcomeClass::of(&degraded(true, DegradedCause::SurvivorsOnly)),
            OutcomeClass::DegradedVerified
        );
        assert_eq!(
            OutcomeClass::of(&degraded(false, DegradedCause::OutputUnverified)),
            OutcomeClass::DegradedUnverified
        );
    }

    #[test]
    fn lattice_admits_degradation_only_under_faults() {
        assert!(OutcomeClass::Embedded.allowed_on_planar_input(false));
        assert!(OutcomeClass::Embedded.allowed_on_planar_input(true));
        assert!(!OutcomeClass::DegradedVerified.allowed_on_planar_input(false));
        assert!(OutcomeClass::DegradedVerified.allowed_on_planar_input(true));
        assert!(!OutcomeClass::DegradedUnverified.allowed_on_planar_input(false));
        assert!(OutcomeClass::DegradedUnverified.allowed_on_planar_input(true));
        for class in [
            OutcomeClass::NonPlanar,
            OutcomeClass::InvalidInput,
            OutcomeClass::Failed,
        ] {
            assert!(!class.allowed_on_planar_input(false), "{class:?}");
            assert!(!class.allowed_on_planar_input(true), "{class:?}");
        }
    }

    #[test]
    fn codes_are_distinct() {
        let classes = [
            OutcomeClass::Embedded,
            OutcomeClass::DegradedVerified,
            OutcomeClass::DegradedUnverified,
            OutcomeClass::NonPlanar,
            OutcomeClass::InvalidInput,
            OutcomeClass::Failed,
        ];
        let codes: std::collections::HashSet<_> = classes.iter().map(|c| c.code()).collect();
        assert_eq!(codes.len(), classes.len());
    }

    #[test]
    fn degraded_fingerprint_extracts_all_fields() {
        let fp = degraded_fingerprint(&degraded(
            false,
            DegradedCause::Sim(SimError::WatchdogTimeout { limit: 9 }),
        ))
        .unwrap();
        assert_eq!(fp, (5, 17, false, "sim"));
        let fp = degraded_fingerprint(&degraded(
            false,
            DegradedCause::PhaseIncomplete { phase: "setup" },
        ))
        .unwrap();
        assert_eq!(fp.3, "setup");
        assert_eq!(degraded_fingerprint(&Err(EmbedError::NonPlanar)), None);
    }
}
