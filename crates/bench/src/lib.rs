//! # planar-bench
//!
//! The benchmark harness regenerating every quantitative claim of the paper
//! (see DESIGN.md §4 for the experiment index). The paper is a theory paper
//! without a measurement section; each experiment below validates one of
//! its stated results:
//!
//! * **T1** — Theorem 1.1: rounds scale as `O(D · min{log n, D})` across
//!   planar families, vs. the trivial `O(n)` baseline (footnote 2).
//! * **T2** — round growth is linear in `D` at (near-)fixed `n`, including
//!   the regime change at `D ~ n / log n` where the trivial baseline takes
//!   over.
//! * **T3** — Lemmas 4.2/4.3: part sizes `<= 2|T_s|/3`, part diameters
//!   below the subtree depth, recursion depth `<= min{log_{3/2} n, D}`.
//! * **T4** — Lemma 5.3: O(1)-round symmetry breaking with guaranteed star
//!   structure and merge progress on outerplanar graphs.
//! * **T5** — the `Omega(D)` lower-bound instance (footnote 1): subdivided
//!   `K_4`, rounds at least `D`, output globally consistent.
//! * **T6** — the CONGEST discipline: max words per edge per round never
//!   exceeds the budget; message/bit audit.
//! * **F-obs32** — Observation 3.2 / Figures 2–4: exhaustively verified
//!   interface characterization on small parts.
//! * **F-safe** — Definition 3.1 / Figure 6: partitions are safe at every
//!   recursion level (run with invariant checking on).
//!
//! T1, T3 and T6 share one embedding per `family × size` cell ([`sweep`]).
//! [`paper`] runs every experiment and [`paper_record`] assembles the
//! deterministic `BENCH_paper.json` (no wall time, so CI regenerates it
//! and fails on any diff).
//!
//! Independent trials of a sweep are fanned out through [`parallel::par_map`]
//! (deterministic, input-order results). [`kernelbench`] measures the
//! simulation kernel's message throughput against the preserved seed kernel
//! and emits `BENCH_kernel.json`; [`chaos`] sweeps the embedder under
//! seeded fault injection and emits `BENCH_chaos.json`; [`tracebench`]
//! runs the pipeline under the trace auditor and emits the per-round
//! profile as `BENCH_trace.json`; [`schedbench`] times the
//! level-synchronous scheduler against the sequential oracle and emits
//! `BENCH_sched.json`; [`servicebench`] soaks the multi-tenant embedding
//! service under seeded churn with the full re-embed oracle armed and
//! emits `BENCH_service.json`. Every record takes one path,
//! [`record`]: each row type lists its fields once, and the record, the
//! harness table and the progress line all derive from that list.
//!
//! Run the paper experiments with `cargo run --release -p planar-bench
//! --bin harness paper` (the default subcommand).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certbench;
pub mod chaos;
pub mod cli;
pub mod dmpref;
pub mod experiments;
pub mod kernelbench;
pub mod mem;
pub mod parallel;
pub mod record;
pub mod schedbench;
pub mod servicebench;
pub mod table;
pub mod timing;
pub mod tracebench;

pub use experiments::*;
