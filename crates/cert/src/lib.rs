//! # planar-cert
//!
//! Distributed certification of planar embeddings: a *proof-labeling
//! scheme* in the style of Feuilloley, Fraigniaud, Montealegre, Rapaport,
//! Rémila & Todinca, *Compact Distributed Certification of Planar Graphs*
//! (PODC 2020), specialized to certify the rotation systems produced by the
//! `planar-embedding` driver.
//!
//! This layer is *our addition beyond the source paper* (Ghaffari &
//! Haeupler, PODC 2016): the paper's output — each node holding its
//! clockwise edge order — was previously only checkable by a centralized
//! pass that collects the whole rotation, which contradicts the CONGEST
//! setting. Here, a prover (the [`certificate`] builder, run by the party
//! that computed the embedding) assigns each node `O(Δ log n)` bits of
//! certificate, and the [`verifier`] — an ordinary
//! [`NodeProgram`](congest_sim::NodeProgram) for the CONGEST kernels —
//! checks the embedding in **2 rounds** (one exchange of certificate
//! openings, one of subtree counters) using only local information:
//!
//! * **Rotation / face closure** — each node checks its rotation is a
//!   permutation of its true neighbor set, and that the face label claimed
//!   for every incoming arc matches the label of that arc's face successor,
//!   which the node owns. Accepting everywhere forces labels constant on
//!   every face orbit, so at most one arc per face counts as its *leader*.
//! * **Counter consistency** — spanning-forest parent pointers plus
//!   depth checks force an exact forest; every node checks its claimed
//!   subtree (vertex, arc, face-leader) counters equal its own local
//!   contribution plus its children's claims, making the root's counters
//!   exact sums by induction.
//! * **Euler bound** — each component root checks `f = m − n + 2` on its
//!   component (the per-component form of `f = m − n + 1 + c`). Since the
//!   claimed face count is at most the true face count and rotations on an
//!   orientable surface satisfy `f = m − n + 2 − 2·genus`, equality forces
//!   genus 0: the embedding is planar.
//!
//! **Soundness**: any corruption of the rotation that changes its genus to
//! a positive value, or of any certificate field, makes at least one node
//! reject (see the seeded [`mutate`] harness and `tests/soundness.rs`).
//! **Completeness**: the honest builder's certificates are accepted at
//! every node for every planar rotation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certificate;
pub mod error;
pub mod mutate;
pub mod splice;
pub mod verifier;

pub use certificate::{build_certificates, build_certificates_with_tree, Certificate};
pub use error::CertError;
pub use mutate::{apply_mutation, mutation_classes, Mutation, MutationClass};
pub use splice::{splice_certificates, splice_certificates_shifted, SpliceStats};
pub use verifier::{
    verify_distributed, verify_distributed_with, verify_orders_with, CertMsg, CertVerifier,
    Verdict, VerifyReport, Violation,
};
