//! Outside-in tracing for the `--trace 1` run.
//!
//! The library has no spans of its own yet, so each layer is timed from
//! outside: after an operation's end-to-end call, the benchmark calls
//! that layer's public entry point again on the same input (setup
//! `run_setup`, the recursion `embed_recursion_with_memory`, the epilogue
//! `planar_lib::embed`, certification `certify_embedding`, the service's
//! `apply_delta`, `preflight` and `ResidentEmbedding::reembed`). Each call
//! is a [`Span`] whose `op` is the embed call or delta it belongs to and
//! whose `parent` names the layer it sits inside; a layer's self time is
//! its span minus its children's. Because the layer calls run beside the
//! end-to-end call rather than inside it, the run also reports how much
//! of the end-to-end span they account for (`trace.coverage`) and how
//! much slower the traced end-to-end call was than an untraced one
//! (`trace.overhead`).
//!
//! Spans are kept in memory and written out as JSON lines when the run
//! ends (`out/spans-<workload>-seed<n>.jsonl` beside this package).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use congest_sim::PhaseRounds;

use crate::{median, Metric};

/// The parent of an end-to-end span, and of comparator spans that are
/// not part of any operation's cost.
pub const ROOT: &str = "-";

/// Layers in pipeline order, for the shares table.
const LAYER_ORDER: [&str; 7] = [
    "validate",
    "gate",
    "reembed",
    "setup",
    "recursion",
    "planar.embed",
    "cert",
];

/// One timed call.
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span store plus per-layer samples and counters.
pub struct Tracer {
    origin: Instant,
    /// Name of the end-to-end span (`embed` or `delta`).
    e2e: &'static str,
    spans: Vec<Span>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
    /// Phase rounds and messages of the comparator calls of the current
    /// pass (the service workload's full re-embeds).
    pub pass_rounds: PhaseRounds,
    pub pass_messages: usize,
}

impl Tracer {
    pub fn new(e2e: &'static str) -> Self {
        Tracer {
            origin: Instant::now(),
            e2e,
            spans: Vec::new(),
            samples: BTreeMap::new(),
            counts: BTreeMap::new(),
            pass_rounds: PhaseRounds::default(),
            pass_messages: 0,
        }
    }

    /// Times `f` as span `name` of operation `op` and returns its result
    /// together with the span's duration in milliseconds.
    pub fn span<T>(
        &mut self,
        op: u64,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        let span = Span {
            op,
            name,
            parent,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
        };
        let ms = span.ms();
        self.spans.push(span);
        (out, ms)
    }

    /// Records one per-operation sample of a derived quantity.
    pub fn sample(&mut self, key: &'static str, value: f64) {
        self.samples.entry(key).or_default().push(value);
    }

    /// Adds to a counter.
    pub fn count(&mut self, key: &'static str, value: f64) {
        *self.counts.entry(key).or_default() += value;
    }

    /// Median of the samples recorded under `key` (0 when none).
    pub fn sample_median(&self, key: &str) -> f64 {
        self.samples.get(key).map_or(0.0, |v| median(v))
    }

    fn counter(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0.0)
    }

    /// Total self time per layer and total end-to-end time, over every
    /// traced operation, in milliseconds.
    fn self_times(&self) -> (BTreeMap<&'static str, f64>, f64) {
        let mut by_op: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        for s in &self.spans {
            by_op.entry(s.op).or_default().push(s);
        }
        let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut e2e_total = 0.0;
        for spans in by_op.values() {
            for s in spans {
                if s.name == self.e2e {
                    e2e_total += s.ms();
                } else if s.parent != ROOT {
                    let children: f64 = spans
                        .iter()
                        .filter(|c| c.parent == s.name)
                        .map(|c| c.ms())
                        .sum();
                    *totals.entry(s.name).or_default() += s.ms() - children;
                }
            }
        }
        (totals, e2e_total)
    }

    /// Share of end-to-end host time spent in each layer (self time), and
    /// the share the layer calls do not cover.
    fn shares(&self) -> (Vec<(&'static str, f64)>, f64) {
        let (totals, e2e) = self.self_times();
        if e2e <= 0.0 {
            return (Vec::new(), 0.0);
        }
        let covered: f64 = totals.values().sum();
        let mut shares: Vec<(&'static str, f64)> =
            totals.into_iter().map(|(k, v)| (k, v / e2e)).collect();
        shares.sort_by_key(|&(k, _)| LAYER_ORDER.iter().position(|&l| l == k));
        (shares, 1.0 - covered / e2e)
    }

    fn share(&self, layer: &str) -> f64 {
        self.shares()
            .0
            .iter()
            .find(|(k, _)| *k == layer)
            .map_or(0.0, |&(_, v)| v)
    }

    /// Writes every span as one JSON line.
    pub fn write_spans(&self, workload: &str, seed: u64) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"op\": {}, \"name\": \"{}\", \"parent\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.op, s.name, s.parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(path)
    }

    /// The "where did the time go vs where did the rounds go" table.
    pub fn shares_table(
        &self,
        workload: &str,
        rounds: &PhaseRounds,
        rounds_source: &str,
    ) -> String {
        let (shares, uncovered) = self.shares();
        let mut host: Vec<(String, f64)> = shares
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        host.push(("(not covered)".into(), uncovered));
        let total = rounds.sum().max(1) as f64;
        let phases = [
            ("setup", rounds.setup),
            ("partition", rounds.partition),
            ("symmetry", rounds.symmetry),
            ("merge", rounds.merge),
            ("cert", rounds.cert),
        ];
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{workload}: host-time share by layer (self time) | simulated-round share by phase ({rounds_source})"
        );
        for i in 0..host.len().max(phases.len()) {
            let left = host.get(i).map_or(String::new(), |(k, v)| {
                format!("{k:<16} {:>6.1}%", 100.0 * v)
            });
            let right = phases.get(i).map_or(String::new(), |(k, v)| {
                format!("{k:<10} {:>6.1}%  ({v} rounds)", 100.0 * *v as f64 / total)
            });
            let _ = writeln!(s, "  {left:<26}| {right}");
        }
        s
    }

    /// The per-layer metrics, identical in name and order on every
    /// workload; a layer the workload does not exercise reports 0.
    pub fn metrics(&self, rounds: &PhaseRounds, messages: usize, overhead: f64) -> Vec<Metric> {
        let m = |name, value, unit| Metric { name, value, unit };
        let (totals, e2e) = self.self_times();
        let covered: f64 = totals.values().sum();
        let setup_ms = self.counter("setup.ms_total");
        vec![
            m("setup.ms", self.sample_median("setup.ms"), "ms"),
            m(
                "setup.msgs_per_s",
                if setup_ms > 0.0 {
                    self.counter("setup.messages") / (setup_ms / 1e3)
                } else {
                    0.0
                },
                "1/s",
            ),
            m("setup.share", self.share("setup"), "ratio"),
            m(
                "recursion.self_ms",
                self.sample_median("recursion.self_ms"),
                "ms",
            ),
            m("recursion.self_share", self.share("recursion"), "ratio"),
            m(
                "congest.kernel_bytes_per_node",
                self.sample_median("congest.kernel_bytes_per_node"),
                "B",
            ),
            m("congest.messages", messages as f64, "count"),
            m(
                "planar.embed_ms",
                self.sample_median("planar.embed_ms"),
                "ms",
            ),
            m("planar.embed_share", self.share("planar.embed"), "ratio"),
            m("cert.ms", self.sample_median("cert.ms"), "ms"),
            m("cert.share", self.share("cert"), "ratio"),
            m(
                "service.validate_us",
                self.sample_median("service.validate_us"),
                "us",
            ),
            m(
                "service.gate_us",
                self.sample_median("service.gate_us"),
                "us",
            ),
            m(
                "incremental.reembed_self_us",
                self.sample_median("incremental.reembed_self_us"),
                "us",
            ),
            m("incremental.reembed_share", self.share("reembed"), "ratio"),
            m(
                "incremental.full_us",
                self.sample_median("incremental.full_us"),
                "us",
            ),
            m(
                "incremental.dividend",
                self.counter("incremental.dividend"),
                "x",
            ),
            m(
                "incremental.coverage",
                self.counter("incremental.coverage"),
                "ratio",
            ),
            m(
                "class.tree_preserving",
                self.counter("class.tree_preserving"),
                "count",
            ),
            m(
                "class.tree_repairable",
                self.counter("class.tree_repairable"),
                "count",
            ),
            m(
                "class.vertex_set",
                self.counter("class.vertex_set"),
                "count",
            ),
            m("class.fallback", self.counter("class.fallback"), "count"),
            m(
                "rejected.nonplanar",
                self.counter("rejected.nonplanar"),
                "count",
            ),
            m("rejected.gate", self.counter("rejected.gate"), "count"),
            m(
                "full_cause.vertex_set_changed",
                self.counter("full_cause.vertex_set_changed"),
                "count",
            ),
            m(
                "full_cause.tree_changed",
                self.counter("full_cause.tree_changed"),
                "count",
            ),
            m(
                "full_cause.plan_rejected",
                self.counter("full_cause.plan_rejected"),
                "count",
            ),
            m("plan_mismatch", self.counter("plan_mismatch"), "count"),
            m(
                "dirty_region.mean",
                self.counter("dirty_region.mean"),
                "vertices",
            ),
            m(
                "partitions.recomputed",
                self.counter("partitions.recomputed"),
                "count",
            ),
            m(
                "partitions.reused",
                self.counter("partitions.reused"),
                "count",
            ),
            m(
                "merges.recomputed",
                self.counter("merges.recomputed"),
                "count",
            ),
            m("merges.reused", self.counter("merges.reused"), "count"),
            m("rounds.setup", rounds.setup as f64, "count"),
            m("rounds.partition", rounds.partition as f64, "count"),
            m("rounds.symmetry", rounds.symmetry as f64, "count"),
            m("rounds.merge", rounds.merge as f64, "count"),
            m("rounds.cert", rounds.cert as f64, "count"),
            m(
                "trace.coverage",
                if e2e > 0.0 { covered / e2e } else { 0.0 },
                "ratio",
            ),
            m("trace.overhead", overhead, "ratio"),
            m("trace.ops", self.counter("trace.ops"), "count"),
        ]
    }
}
