//! # planar-dst
//!
//! Deterministic simulation testing (DST) at swarm scale for the
//! distributed planar embedder: a single `u64` seed determines a complete
//! end-to-end scenario — graph family and size, fault-injection schedule,
//! reliable-delivery wrapper, kernel, scheduler, certification — which is
//! run with the trace auditor armed and shadow-checked against a stack of independent oracles (DESIGN.md §13):
//!
//! * the **terminal lattice** — fault-free scenarios must embed, faulty
//!   ones may gracefully degrade but never fail with an internal error;
//! * the **centralized oracle** — rotations re-validate against the input
//!   graph and the centralized planarity check;
//! * the **certification oracle** — in-run and independent fault-free
//!   re-certification must accept every successful embedding;
//! * **shadow bit-identity** — the same scenario re-run with the kernel
//!   flipped and the scheduler flipped must agree (exactly, and up to the
//!   degraded round tally);
//! * the **churn oracle** — fault-free scenarios may draw a seeded churn
//!   dimension: the graph is hosted as a tenant of the multi-tenant
//!   embedding service (`planar-service`) and every delta's incremental
//!   re-embedding is diffed against a full re-embed of the mutated graph
//!   (rotation, certification verdict, planarity outcome).
//!
//! Any violation triggers automatic failing-seed minimization
//! ([`minimize()`]): greedy delta-debugging over graph size, fault-plan
//! entries, and configuration dimensions, keeping the violation kind
//! reproducible. Every run renders to canonical sorted-key JSON
//! ([`artifact::Json`]), so artifacts diff cleanly across machines, and
//! `harness dst --seed N` replays any scenario bit-identically.
//!
//! The suite proves its own teeth: [`Scenario::arm_canary`] arms a
//! deliberately broken fate function in the fast kernel (honest in the
//! reference kernel), and the crate's tests assert the oracles catch the
//! divergence and the minimizer shrinks it to a small reproducer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod minimize;
pub mod oracle;
pub mod scenario;
pub mod swarm;

pub use artifact::Json;
pub use minimize::{minimize, Minimized, DEFAULT_BUDGET};
pub use oracle::{
    check_scenario, ChurnSummary, RunSummary, ScenarioReport, Violation, ViolationKind,
};
pub use scenario::{Scenario, MAX_N, MIN_N};
pub use swarm::{run_artifact, run_one, run_swarm, SwarmOptions, SwarmReport, SwarmRun};
