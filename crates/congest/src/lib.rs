//! # congest-sim
//!
//! A synchronous **CONGEST-model** network simulator: the distributed
//! substrate of the planar-networks workspace (the model of Peleg's book
//! \[Pel00\] the paper works in).
//!
//! Components:
//!
//! * [`run`] / [`NodeProgram`] — the message-passing kernel: synchronous
//!   rounds, per-directed-edge bandwidth budgets (in `O(log n)`-bit words,
//!   see [`message`]), quiescence detection and hard budget *enforcement* —
//!   protocols that try to move too much over an edge abort the run. The
//!   per-round loop is allocation-free in steady state, built on the
//!   graph's CSR arc index (see [`network`] for the architecture);
//!   [`reference::run_reference`] keeps the original kernel as the
//!   executable spec the fast kernel is conformance-tested against.
//! * [`run_many`] / [`Instance`] — the batched entry point: several
//!   vertex-disjoint subproblem instances run in *one* shared round
//!   lattice (one mailbox arena, one round loop), with per-instance
//!   metrics bit-identical to individual runs and kernel-enforced
//!   instance isolation ([`SimError::CrossInstanceSend`]). [`SimSession`]
//!   reuses the arc index and kernel buffers across the many phases an
//!   embedding pipeline runs over one graph.
//! * [`protocols`] — the standard protocol library: leader election + BFS
//!   tree, child discovery, convergecast, downcast, and the centroid walk of
//!   the paper's partitioning step.
//! * [`routing`] — the charged store-and-forward scheduler used to account
//!   for the merge phases' summary movements packet by packet.
//! * [`faults`] — deterministic, seeded fault injection ([`FaultPlan`] on
//!   [`SimConfig`]): per-link drop/duplicate/delay, per-node crash-stop,
//!   link-down windows; both kernels apply the identical schedule, and
//!   [`protocols::reliable`](protocols) provides an opt-in ack/retransmit
//!   wrapper on top.
//! * [`Metrics`] — rounds / messages / words / per-edge congestion (plus
//!   fault counters), with sequential and parallel composition.
//! * [`trace`] — opt-in round-level tracing ([`TraceSink`] on
//!   [`SimConfig`], zero-cost when off) with typed per-message events, a
//!   JSONL writer, and a [`TraceAuditor`] that independently recomputes a
//!   run's [`Metrics`] from its event stream and diffs them against what
//!   the kernel reported.
//!
//! # Example
//!
//! ```
//! use congest_sim::protocols::LeaderBfs;
//! use congest_sim::{run, SimConfig};
//! use planar_graph::{Graph, VertexId};
//!
//! # fn main() -> Result<(), congest_sim::SimError> {
//! let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
//! let programs: Vec<LeaderBfs> = g
//!     .vertices()
//!     .map(|v| LeaderBfs::new(v, g.neighbors(v)))
//!     .collect();
//! let out = run(&g, programs, &SimConfig::default())?;
//! assert!(out.programs.iter().all(|p| p.leader() == VertexId(3)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
pub mod faults;
pub mod message;
mod metrics;
pub mod network;
pub mod protocols;
pub mod reference;
pub mod routing;
pub mod session;
pub mod trace;

pub use batch::Batch;
pub use faults::{
    mix_seed, splitmix64, CrashPolicy, Fate, FaultPlan, FaultPlanError, LinkDown, LinkFaults,
};
pub use message::{word_bits, Words};
pub use metrics::{Metrics, Phase, PhaseRounds};
pub use network::{
    run, run_many, Instance, InstanceOutcome, MultiOutcome, NodeCtx, NodeProgram, SimConfig,
    SimError, SimOutcome, Simulator, BROADCAST, DEFAULT_BUDGET_WORDS,
};
pub use session::{KernelCache, SimSession};
pub use trace::{
    AuditReport, AuditSink, JsonlSink, MemorySink, RoundProfile, TraceAuditor, TraceEvent,
    TraceHandle, TraceSink,
};
