//! # planar-graph
//!
//! Foundation graph library for the planar-networks workspace, the Rust
//! reproduction of *Distributed Algorithms for Planar Networks I: Planar
//! Embedding* (Ghaffari & Haeupler, PODC 2016).
//!
//! This crate provides the purely combinatorial substrate every other crate
//! builds on:
//!
//! * [`Graph`] — a simple undirected graph with sorted adjacency lists,
//!   canonical [`EdgeId`]s (the paper's `(min-endpoint, max-endpoint)` edge
//!   identifiers) and cheap induced-subgraph extraction.
//! * [`traversal`] — BFS, connected components, eccentricity and exact
//!   diameter.
//! * [`biconnected`] — Tarjan's biconnected-component decomposition and cut
//!   vertices, which Section 3 of the paper uses to characterize the
//!   *interface* of a partial embedding (Observation 3.2).
//! * [`rotation`] — rotation systems (combinatorial embeddings), face
//!   tracing and the Euler-genus planarity check that all embeddings in the
//!   workspace are verified against.
//! * [`cyclic`] — utilities for comparing and editing cyclic orders.
//! * [`arcs`] — a CSR-style directed-arc index ([`ArcIndex`]) assigning
//!   every ordered pair `(u, v)` a dense [`ArcId`]; the congest simulation
//!   kernel runs allocation-free on top of it.
//!
//! # Example
//!
//! ```
//! use planar_graph::{Graph, VertexId};
//!
//! # fn main() -> Result<(), planar_graph::GraphError> {
//! // K4 — the smallest 3-connected planar graph.
//! let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])?;
//! assert_eq!(g.edge_count(), 6);
//! assert!(g.is_connected());
//! assert_eq!(g.degree(VertexId(0)), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arcs;
pub mod biconnected;
pub mod cyclic;
mod error;
mod graph;
mod ids;
pub mod rotation;
pub mod traversal;

pub use arcs::{ArcId, ArcIndex};
pub use error::GraphError;
pub use graph::Graph;
pub use ids::{EdgeId, VertexId};
pub use rotation::RotationSystem;
