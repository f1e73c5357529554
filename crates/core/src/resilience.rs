//! Fault-tolerance policy: the budget and watchdog arithmetic connecting
//! the kernel's fault injection ([`congest_sim::FaultPlan`]) to the
//! embedding driver.
//!
//! Every protocol phase of the algorithm funnels its kernel invocation
//! through [`ExecutionContext::run_phase`](crate::ExecutionContext). On a
//! perfect network (`reliability == None`) that is byte-for-byte
//! [`congest_sim::run`] — the fault-free hot path pays nothing. When the
//! driver opts into reliable delivery, each phase is lifted into the
//! ack/retransmit wrapper ([`Reliable`](congest_sim::protocols::Reliable))
//! and the per-edge budget is widened to
//! [`wrapped_budget`](congest_sim::protocols::wrapped_budget): a data
//! frame costs payload + 1 sequence word, received frames are acknowledged
//! *cumulatively* (at most one 1-word ack per sender per round), and a
//! retransmission re-charges the link. A phase that fit in `B` words
//! fault-free therefore puts at most `2·B + 1` wrapped words on a link per
//! fault-free round; the budget is widened to `3·B + 2`, leaving `B + 1`
//! words of slack for retransmissions colliding with fresh traffic.
//!
//! The driver additionally arms the kernel's round-budget watchdog
//! ([`auto_watchdog`]) whenever a fault plan is active, so that a protocol
//! stalled by message loss degrades (`SimError::WatchdogTimeout` →
//! [`EmbedError::Degraded`](crate::EmbedError)) instead of spinning to the
//! generic `max_rounds` cap.

/// The round-budget watchdog the driver arms in fault mode when the caller
/// did not pick one: generous enough for every `O(D)` phase of the
/// algorithm plus retransmission stretch, but finite, so lossy runs
/// terminate in `Degraded` rather than hanging until `max_rounds`.
#[must_use]
pub fn auto_watchdog(n: usize) -> usize {
    8 * n + 256
}
