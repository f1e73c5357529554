//! The repository benchmark: what a caller of `embed_distributed`, or a
//! service tenant sending deltas, pays end to end — and, in a separate
//! traced run, which layer the time went to.
//!
//! ```text
//! planar-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation runs one workload (`embed-chain`, `embed-rmp`,
//! `service-churn`; see `embed.rs` and `service.rs`) for `--seconds` of
//! wall time, in whole passes over inputs generated from `--seed`. Every
//! output is checked outside the timed region, and every pass must repeat
//! the first one's simulated counts exactly. The last line of standard
//! output is one JSON object:
//!
//! ```text
//! {"correct": true, "attempted": 40, "failed": 0, "metrics": {"op_p50_ms": {"value": 512.3, "unit": "ms"}, ...}}
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! they are the per-layer ones of `trace.rs`. Any failed check makes the
//! process exit non-zero.

mod embed;
mod service;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use planar_embedding::{EmbedderConfig, Kernel, Scheduler};
use planar_service::ServiceConfig;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    EmbedChain,
    EmbedRmp,
    ServiceChurn,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "embed-chain" => Some(Workload::EmbedChain),
            "embed-rmp" => Some(Workload::EmbedRmp),
            "service-churn" => Some(Workload::ServiceChurn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::EmbedChain => "embed-chain",
            Workload::EmbedRmp => "embed-rmp",
            Workload::ServiceChurn => "service-churn",
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub budget: Duration,
    pub trace: bool,
}

const USAGE: &str =
    "usage: planar-perfbench --workload <embed-chain|embed-rmp|service-churn> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        budget: Duration::from_secs_f64(seconds.ok_or("missing --seconds")?),
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The one embedder configuration every workload runs: no invariant
/// re-solve, certification on, fast kernel, level-synchronous scheduler,
/// no faults, default thread policy. It must equal what
/// `ServiceConfig::default()` hands its tenants, so that the embed
/// workloads and the service workload measure the same program.
pub fn embedder_config() -> Result<EmbedderConfig, String> {
    let cfg = EmbedderConfig {
        check_invariants: false,
        certify: true,
        kernel: Kernel::Fast,
        scheduler: Scheduler::LevelSync,
        ..EmbedderConfig::default()
    };
    let svc = ServiceConfig::default();
    if svc.check_invariants != cfg.check_invariants
        || svc.certify != cfg.certify
        || svc.kernel != cfg.kernel
        || !svc.sim.faults.is_empty()
        || svc.sim.threads != cfg.sim.threads
    {
        return Err(
            "ServiceConfig::default() no longer matches the benchmark's embedder config".into(),
        );
    }
    Ok(cfg)
}

/// The host's CPU model, as `/proc/cpuinfo` names it.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown CPU".into())
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
pub struct Report {
    pub checks: Checks,
    pub metrics: Vec<Metric>,
}

/// Failure accounting: every operation (a timed call, or a check made at
/// the end of a pass) is checked once, outside the timed region; the first
/// few failures are printed to stderr.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("check failed: {what}: {e}");
            }
        }
    }
}

/// Linear-interpolated quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Per-operation timings of a run whose passes repeat the same
/// operations. Each operation keeps its fastest repeat: on a host whose
/// cores are shared with other work, a busy stretch inflates every call
/// made during it, and the fastest of several repeats is the steady
/// estimate of an operation's cost. The reported percentiles are taken
/// over the distinct operations of a pass.
pub struct BestTimes {
    best_ms: Vec<f64>,
    calls: usize,
}

impl BestTimes {
    pub fn new(ops: usize) -> Self {
        BestTimes {
            best_ms: vec![f64::INFINITY; ops],
            calls: 0,
        }
    }

    pub fn record(&mut self, op: usize, ms: f64) {
        self.best_ms[op] = self.best_ms[op].min(ms);
        self.calls += 1;
    }

    /// Timed calls recorded.
    pub fn calls(&self) -> usize {
        self.calls
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .best_ms
            .iter()
            .copied()
            .filter(|t| t.is_finite())
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Sum of the operations' best times, in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.sorted().iter().sum()
    }
}

/// The end-to-end metrics, identical in name and order on every workload.
pub fn end_to_end(setup_secs: &[f64], times: &BestTimes, rounds: usize) -> Vec<Metric> {
    let sorted = times.sorted();
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("setup_s", median(setup_secs), "s"),
        m("op_p50_ms", quantile(&sorted, 0.5), "ms"),
        m("op_p99_ms", quantile(&sorted, 0.99), "ms"),
        m(
            "ops_per_s",
            sorted.len() as f64 / (times.total_ms() / 1e3),
            "1/s",
        ),
        m("congest_rounds", rounds as f64, "count"),
        m(
            "peak_rss_mb",
            planar_bench::mem::peak_rss_bytes() as f64 / (1024.0 * 1024.0),
            "MiB",
        ),
    ]
}

fn render(report: &Report) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.checks.failed == 0,
        report.checks.attempted,
        report.checks.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // Non-finite values are not JSON; report them as 0 (never expected).
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = match embedder_config() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} budget {:.1}s trace {} | embedder: check_invariants={} certify={} kernel={:?} scheduler={:?} | host: {} cores, {}",
        args.workload.name(),
        args.seed,
        args.budget.as_secs_f64(),
        u8::from(args.trace),
        cfg.check_invariants,
        cfg.certify,
        cfg.kernel,
        cfg.scheduler,
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        cpu_model(),
    );
    let report = match args.workload {
        Workload::EmbedChain | Workload::EmbedRmp => embed::run(&args, &cfg),
        Workload::ServiceChurn => service::run(&args, &cfg),
    };
    for m in &report.metrics {
        println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", render(&report));
    if report.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{} of {} operations failed their checks",
            report.checks.failed, report.checks.attempted
        );
        ExitCode::FAILURE
    }
}
