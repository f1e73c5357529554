//! Simulation-kernel throughput benchmark: the perf record behind
//! `BENCH_kernel.json`.
//!
//! Measures delivered messages per second of a single-source flood over
//! planar substrates (square grid, triangulated grid, and random maximal
//! planar) for **both** kernels:
//!
//! * `fast` — the allocation-free arc-indexed kernel ([`congest_sim::run`]);
//! * `reference` — the original seed kernel
//!   ([`congest_sim::reference::run_reference`]), kept as the baseline the
//!   speedup is measured against.
//!
//! The flood program is the canonical kernel microworkload: every node
//! forwards exactly once on first receipt, so total delivered messages are
//! exactly `2m + deg(source)`-ish (each node fires its whole out-star once)
//! and the round count equals the source's eccentricity. Both kernels must
//! report identical [`Metrics`] on every case — the measurement doubles as
//! a conformance check.
//!
//! Every row also records the memory the run costs: `kernel_bytes` is the
//! fast kernel's retained arena (the mailbox planes' register-width arc
//! slots, spill pool and native side table, per-vertex tables, outbox and
//! scratch — exact, via [`Simulator::memory_bytes`]), reported per node in
//! the printed table, and `peak_rss_bytes` is the process high-water mark
//! after the row ([`crate::mem::peak_rss_bytes`]).
//!
//! [`embed_mem`] is the memory stage behind the million-node acceptance
//! gate: the full distributed embedding pipeline — setup plus the
//! scheduled partition/merge recursion, every byte of it through the
//! kernel arenas ([`embed_recursion_with_memory`]) — on a
//! random-maximal-planar graph, reporting wall time, the execution
//! context's retained kernel footprint, and peak RSS. The centralized
//! fidelity epilogue is deliberately *excluded*: it is a
//! kernel-independent stand-in (a documented deviation, see the
//! `driver.rs` fidelity note) whose DMP solver is still quadratic in the
//! worst case, and it exercises not one byte of the state this stage
//! measures.
//!
//! Entry points: [`kernel_bench`] produces rows, [`record()`] builds the
//! `BENCH_kernel.json` document from their [`Row::fields`] (rendered by
//! the canonical [`Json`] writer, see [`crate::record`]). Reachable via
//! `cargo run -p planar-bench --bin harness -- bench-kernel` and
//! `cargo bench -p planar-bench --bench kernel`.

use std::time::{Duration, Instant};

use congest_sim::reference::run_reference;
use congest_sim::{Metrics, NodeCtx, NodeProgram, SimConfig, Simulator, BROADCAST};
use planar_embedding::{embed_recursion_with_memory, EmbedderConfig};
use planar_graph::{Graph, VertexId};
use planar_lib::gen;

use crate::mem;
use crate::record::{self, Fields, Json, Kind, Row};

/// Single-source flood: node 0 announces in round 0; every other node
/// forwards one word to its whole neighborhood on first receipt, as one
/// [`BROADCAST`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Flood {
    seen: bool,
}

impl NodeProgram for Flood {
    type Msg = u32;

    fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, u32)>) {
        if ctx.id == VertexId(0) {
            self.seen = true;
            out.push((BROADCAST, 0));
        }
    }

    fn on_round(
        &mut self,
        _ctx: &NodeCtx<'_>,
        inbox: &[(VertexId, u32)],
        out: &mut Vec<(VertexId, u32)>,
    ) {
        if self.seen || inbox.is_empty() {
            return;
        }
        self.seen = true;
        let hop = inbox.iter().map(|&(_, h)| h).min().unwrap_or(0) + 1;
        out.push((BROADCAST, hop));
    }
}

/// Fresh flood programs for `g` (all unseen; the kernel calls `init`).
pub fn flood_programs(g: &Graph) -> Vec<Flood> {
    vec![Flood { seen: false }; g.vertex_count()]
}

/// One benchmark case: a flood over one substrate, timed on both kernels.
#[derive(Clone, Debug)]
pub struct KernelBenchRow {
    /// Substrate family (`"grid"` or `"tri-grid"`).
    pub family: &'static str,
    /// Vertex count.
    pub n: usize,
    /// Undirected edge count.
    pub edges: usize,
    /// Rounds to quiescence (identical on both kernels).
    pub rounds: usize,
    /// Messages delivered per run (identical on both kernels).
    pub messages: usize,
    /// Measured runs per kernel, as many as the row's wall budget allowed
    /// (best-of is reported).
    pub iters: usize,
    /// Fastest wall-clock run of the arc-indexed kernel, seconds.
    pub fast_secs: f64,
    /// Fastest wall-clock run of the seed reference kernel, seconds.
    pub reference_secs: f64,
    /// Retained arena of the fast kernel after the runs: mailbox planes
    /// (register-width arc slots, spill pool, native side table),
    /// per-vertex tables, outbox, scratch (exact, from
    /// [`Simulator::memory_bytes`]).
    pub kernel_bytes: usize,
    /// Process peak RSS after this row, bytes (0 = probe unavailable).
    pub peak_rss_bytes: usize,
}

impl KernelBenchRow {
    /// Retained kernel bytes per vertex.
    pub fn bytes_per_node(&self) -> f64 {
        self.kernel_bytes as f64 / self.n as f64
    }
}

impl Row for KernelBenchRow {
    fn fields(&self) -> Fields {
        let fast_mps = self.messages as f64 / self.fast_secs;
        let reference_mps = self.messages as f64 / self.reference_secs;
        vec![
            ("family", self.family.into()),
            ("n", self.n.into()),
            ("edges", self.edges.into()),
            ("rounds", self.rounds.into()),
            ("messages", self.messages.into()),
            ("iters", self.iters.into()),
            ("fast_secs", self.fast_secs.into()),
            ("reference_secs", self.reference_secs.into()),
            ("fast_msgs_per_sec", fast_mps.into()),
            ("reference_msgs_per_sec", reference_mps.into()),
            ("speedup", (fast_mps / reference_mps).into()),
            ("kernel_bytes", self.kernel_bytes.into()),
            ("bytes_per_node", self.bytes_per_node().into()),
            ("peak_rss_bytes", self.peak_rss_bytes.into()),
        ]
    }

    /// The graph and the flood's counts; timings, rates, RSS and the
    /// arena's capacity (grown by the toolchain's `Vec` policy) are host
    /// fields.
    fn kind(name: &str) -> Kind {
        match name {
            "family" | "n" | "edges" | "rounds" | "messages" => Kind::Deterministic,
            _ => Kind::Host,
        }
    }
}

fn timed(mut f: impl FnMut() -> Metrics) -> (f64, Metrics) {
    let t0 = Instant::now();
    let m = f();
    (t0.elapsed().as_secs_f64(), m)
}

/// Times one substrate on both kernels; panics if their [`Metrics`]
/// disagree (the determinism contract).
///
/// The two kernels are timed *interleaved* (fast, reference, fast,
/// reference, …) and the best run of each is reported, so machine drift
/// and allocator/cache state affect both measurements symmetrically
/// instead of biasing whichever kernel runs last. Pairs repeat until
/// `budget` of wall time is spent, and at least `MIN_ITERS` times: a
/// small substrate's sub-millisecond runs get thousands of tries at the
/// best, so its row resolves a kernel change, and a large one still gets
/// a few.
pub fn measure(family: &'static str, g: &Graph, budget: Duration) -> KernelBenchRow {
    let cfg = SimConfig::default();
    // A repeat caller holds one Simulator; buffer capacity carries over.
    let mut sim: Simulator<u32> = Simulator::new();
    let mut run_fast = || {
        sim.run(g, flood_programs(g), &cfg)
            .expect("flood stays within budget")
            .metrics
    };
    let run_ref = || {
        run_reference(g, flood_programs(g), &cfg)
            .expect("flood stays within budget")
            .metrics
    };
    let fast_m = run_fast(); // warm-up, and the metrics all runs must reproduce
    let ref_m = run_ref();
    assert_eq!(
        fast_m, ref_m,
        "fast and reference kernels diverged on {family}"
    );
    let mut fast_secs = f64::INFINITY;
    let mut reference_secs = f64::INFINITY;
    let mut iters = 0;
    let start = Instant::now();
    while iters < MIN_ITERS || start.elapsed() < budget {
        iters += 1;
        let (dt, m) = timed(&mut run_fast);
        assert_eq!(
            m, fast_m,
            "fast kernel produced different metrics across runs"
        );
        fast_secs = fast_secs.min(dt);
        let (dt, m) = timed(run_ref);
        assert_eq!(
            m, ref_m,
            "reference kernel produced different metrics across runs"
        );
        reference_secs = reference_secs.min(dt);
    }
    KernelBenchRow {
        family,
        n: g.vertex_count(),
        edges: g.edge_count(),
        rounds: fast_m.rounds,
        messages: fast_m.messages,
        iters,
        fast_secs,
        reference_secs,
        kernel_bytes: sim.memory_bytes(),
        peak_rss_bytes: mem::peak_rss_bytes(),
    }
}

/// Fewest interleaved run pairs a row measures, whatever its budget.
const MIN_ITERS: usize = 3;

/// Wall time one row spends on run pairs (see [`measure`]).
const ROW_BUDGET: Duration = Duration::from_secs(1);

/// Seed of the random-maximal-planar substrate (fixed: rows must be
/// reproducible run to run).
const RMP_SEED: u64 = 7;

/// Runs the flood benchmark over grid, triangulated-grid, and
/// random-maximal-planar substrates at (approximately) each requested
/// vertex count, printing one line per case.
pub fn kernel_bench(sizes: &[usize]) -> Vec<KernelBenchRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        let side = (n as f64).sqrt().round() as usize;
        for (family, g) in [
            ("grid", gen::grid(side, side)),
            ("tri-grid", gen::triangulated_grid(side, side)),
            ("rmp", gen::random_maximal_planar(n, RMP_SEED)),
        ] {
            let row = measure(family, &g, ROW_BUDGET);
            println!("{}", record::line("flood", &row));
            rows.push(row);
        }
    }
    rows
}

/// One embedding memory measurement over the distributed pipeline: wall
/// time, the execution context's retained kernel footprint, and process
/// peak RSS (see [`embed_mem`]).
#[derive(Clone, Debug)]
pub struct EmbedMemRow {
    /// Substrate family (`"rmp"`).
    pub family: &'static str,
    /// Vertex count.
    pub n: usize,
    /// Undirected edge count.
    pub edges: usize,
    /// Wall-clock seconds for the full embedding (graph generation
    /// excluded).
    pub secs: f64,
    /// Simulated CONGEST rounds the embedding consumed.
    pub rounds: usize,
    /// Bytes the execution context's kernel arenas retain when the
    /// recursion finishes ([`embed_recursion_with_memory`]).
    pub kernel_bytes: usize,
    /// Process peak RSS after the run, bytes (0 = probe unavailable).
    pub peak_rss_bytes: usize,
}

impl EmbedMemRow {
    /// Retained kernel-cache bytes per vertex.
    pub fn bytes_per_node(&self) -> f64 {
        self.kernel_bytes as f64 / self.n as f64
    }
}

impl Row for EmbedMemRow {
    fn fields(&self) -> Fields {
        vec![
            ("family", self.family.into()),
            ("n", self.n.into()),
            ("edges", self.edges.into()),
            ("rounds", self.rounds.into()),
            ("secs", self.secs.into()),
            ("kernel_bytes", self.kernel_bytes.into()),
            ("bytes_per_node", self.bytes_per_node().into()),
            ("peak_rss_bytes", self.peak_rss_bytes.into()),
        ]
    }

    /// The graph and the embedding's rounds, as for [`KernelBenchRow`].
    fn kind(name: &str) -> Kind {
        match name {
            "family" | "n" | "edges" | "rounds" => Kind::Deterministic,
            _ => Kind::Host,
        }
    }
}

/// Embeds a random-maximal-planar graph of `n` vertices through the full
/// distributed pipeline (setup + scheduled partition/merge recursion,
/// [`embed_recursion_with_memory`]) and reports the memory cost. This is
/// the million-node acceptance stage: it must *complete* — invariant
/// checking and certification are off, as for every large benchmark run,
/// so the measurement is the distributed pipeline itself. The
/// centralized DMP epilogue is excluded (see the module doc): its cost
/// is a property of the centralized stand-in, not of the kernel state
/// under test.
pub fn embed_mem(n: usize) -> EmbedMemRow {
    let g = gen::random_maximal_planar(n, RMP_SEED);
    let edges = g.edge_count();
    let cfg = EmbedderConfig {
        check_invariants: false,
        certify: false,
        ..EmbedderConfig::default()
    };
    let t0 = Instant::now();
    let (metrics, _stats, kernel_bytes) =
        embed_recursion_with_memory(&g, &cfg).expect("substrate is planar");
    let secs = t0.elapsed().as_secs_f64();
    EmbedMemRow {
        family: "rmp",
        n,
        edges,
        secs,
        rounds: metrics.rounds,
        kernel_bytes,
        peak_rss_bytes: mem::peak_rss_bytes(),
    }
}

/// Runs [`embed_mem`] for each requested size, printing one line per run.
pub fn embed_mem_stage(sizes: &[usize]) -> Vec<EmbedMemRow> {
    sizes
        .iter()
        .map(|&n| {
            let row = embed_mem(n);
            println!("{}", record::line("embed", &row));
            row
        })
        .collect()
}

/// The `BENCH_kernel.json` document: flood rows and embedding memory rows,
/// keeping the rows of the `old` record that this run did not measure
/// ([`record::array_over`]).
pub fn record(rows: &[KernelBenchRow], embeds: &[EmbedMemRow], old: Option<&Json>) -> Json {
    Json::obj([
        ("benchmark", "congest-kernel-flood".into()),
        (
            "metric",
            "delivered messages per second (best of N runs)".into(),
        ),
        ("budget_words", SimConfig::default().budget_words.into()),
        ("workloads", record::array_over(old, "workloads", rows)),
        ("embeddings", record::array_over(old, "embeddings", embeds)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flood_covers_graph_and_kernels_agree() {
        let g = gen::grid(8, 8);
        let row = measure("grid", &g, Duration::ZERO);
        assert_eq!(row.n, 64);
        // Every node fires its out-star exactly once.
        assert_eq!(row.messages, 2 * g.edge_count());
        // Source eccentricity on an 8x8 grid from the corner, +1 for the
        // final round of ignored deliveries.
        assert_eq!(row.rounds, 15);
    }

    /// Rows carry live memory accounting: a non-trivial kernel arena and
    /// (on Linux) a peak-RSS probe.
    #[test]
    fn rows_report_memory() {
        let g = gen::grid(8, 8);
        let row = measure("grid", &g, Duration::ZERO);
        assert!(row.kernel_bytes > 0);
        assert!(row.bytes_per_node() > 0.0);
        if cfg!(target_os = "linux") {
            assert!(row.peak_rss_bytes > 0);
        }
    }

    /// The end-to-end memory stage completes a small random-maximal-planar
    /// embedding and reports the driver's warm cache footprint.
    #[test]
    fn embed_mem_stage_smoke() {
        let row = embed_mem(96);
        assert_eq!(row.family, "rmp");
        assert_eq!(row.n, 96);
        assert_eq!(row.edges, 3 * 96 - 6);
        assert!(row.rounds > 0);
        assert!(row.kernel_bytes > 0);
    }

    #[test]
    fn json_record_carries_every_section() {
        let g = gen::grid(4, 4);
        let rows = vec![measure("grid", &g, Duration::ZERO)];
        let embeds = vec![embed_mem(64)];
        let doc = record(&rows, &embeds, None);
        assert_eq!(doc["budget_words"], Json::U64(8));
        let flood = &doc["workloads"][0];
        for key in [
            "fast_msgs_per_sec",
            "reference_msgs_per_sec",
            "speedup",
            "bytes_per_node",
        ] {
            assert!(matches!(flood[key], Json::F64(_)), "{key}");
        }
        assert!(matches!(flood["peak_rss_bytes"], Json::U64(_)));
        assert_eq!(doc["embeddings"][0]["n"], Json::U64(64));
    }
}
