//! Standard distributed protocol library: the message-level building blocks
//! the paper treats as "standard upcast and downcast techniques" (Remark 1)
//! plus leader election / BFS-tree construction.
//!
//! All protocols here are genuine [`NodeProgram`](crate::NodeProgram)s: every
//! bit of information they move is carried by simulator messages and charged
//! against the per-edge budget, so their measured round counts are the real
//! CONGEST costs.
//!
//! Protocols are *scoped*: each node is configured with the subset of its
//! neighbors that participate in its group (its part, in the paper's
//! terminology), so disjoint parts can run the same protocol concurrently in
//! a single simulation — exactly the parallelism the divide-and-conquer
//! framework of Section 4 exploits.

mod centroid;
mod leader;
pub mod reliable;
mod tree;

pub use centroid::CentroidWalk;
pub use leader::LeaderBfs;
pub use reliable::{run_reliable, wrapped_budget, RelMsg, Reliable, ReliableConfig};
pub use tree::{AggOp, ChildNotify, Convergecast, Downcast};
