//! The experiment harness: regenerates every table of EXPERIMENTS.md and
//! every committed `BENCH_*.json` record.
//!
//! Usage (the authoritative list lives in [`planar_bench::cli`]; run with
//! an unknown subcommand for the full listing):
//!
//! ```text
//! harness [paper|bench-kernel|mem|chaos|cert|trace|sched|dst|service] [--large]
//! ```
//!
//! `--large` extends the sweeps to larger instances (minutes instead of
//! seconds).
//!
//! `paper` (the default) runs every paper experiment (T1–T6, F-obs32,
//! F-safe, the budget ablation), prints one table per experiment, and
//! writes the deterministic record `BENCH_paper.json`. The committed file
//! is the default-size run; `--large` writes more rows to the same file.
//!
//! `bench-kernel` times the simulation kernel against the preserved seed
//! kernel (flood throughput on grid / tri-grid / random-maximal-planar
//! substrates, with per-row kernel-arena bytes and peak RSS), runs the
//! distributed-pipeline embedding memory stage (`--large` includes the
//! n = 1,000,000 random-maximal-planar acceptance point), and writes the
//! record to `BENCH_kernel.json` in the current directory (run it under
//! `--release`). If a record was already there, every regenerated row's
//! deterministic fields (graph size, rounds, messages) must equal those of
//! its row with the same family and n, or the command exits 1 after
//! writing; host fields are never compared.
//!
//! `mem` is the CI memory gate: one n = 250,000 random-maximal-planar
//! graph through the distributed pipeline, failing if process peak RSS
//! exceeds its ceiling.
//!
//! `chaos` sweeps the embedder under seeded link faults (drop / duplicate /
//! delay at several rates, reliable delivery on) over grid and tri-grid
//! substrates and writes `BENCH_chaos.json` (success rate and round
//! overhead vs the fault-free baseline per cell).
//!
//! `cert` sweeps the distributed certification layer (per-node certificate
//! size, O(1)-round verification cost, per-class mutation soundness
//! spot-check) over grid / tri-grid / outerplanar / random-planar
//! substrates and writes `BENCH_cert.json`.
//!
//! `trace` runs the full embedding pipeline (certification on) under the
//! trace auditor, fault-free and under seeded faults with reliable
//! delivery: every kernel segment's reported metrics are checked against
//! an independent recomputation from its event stream (any drift panics),
//! and the per-round profile is written to `BENCH_trace.json`.
//!
//! `sched` times the distributed pipeline (`embed_recursion_with_memory`:
//! setup + partition/merge recursion — the unit the scheduler controls)
//! under the level-synchronous scheduler against the sequential oracle
//! (bit-identical metrics and statistics asserted per cell) over grid and
//! tri-grid substrates and writes host wall time, speedup, and the
//! simulated round counts to `BENCH_sched.json`, keeping the committed
//! record's `--large`-only cells. It exits 1 if a cell's `rounds`,
//! `sequential_rounds` or `outputs_identical` differ from the record it
//! replaces. Run it under `--release` (`--large` extends to n = 100,000).
//!
//! `dst` runs the deterministic-simulation-testing swarm (`crates/dst`):
//! `--swarm <count> --seed <base>` checks `count` seeded scenarios against
//! the full shadow-oracle stack, minimizes any violation, writes one
//! canonical artifact per run under `--artifacts <dir>` (default
//! `dst-artifacts`) plus the `BENCH_dst.json` summary, and exits non-zero
//! if any scenario violated an oracle. A bare `--seed <n>` replays that
//! single scenario bit-identically and prints its full artifact.
//! `--canary` arms the test-only broken-fate canary (divergences are then
//! the *expected* outcome — a self-test of the oracles and the
//! minimizer).
//!
//! `service` soaks the multi-tenant embedding service (`crates/service`):
//! `--fleet <count>` tenant graphs (default 1024) are admitted round-robin
//! over the fleet families, each then receives `--deltas <count>` seeded
//! churn deltas (default 4) with the full re-embed oracle armed on every
//! delta. Writes `BENCH_service.json` (embeddings/sec, p50/p99 incremental
//! vs full latency, speedup per family, and per-`DeltaClass` incremental
//! coverage + dividend) and exits non-zero if any incremental result
//! diverged from the oracle, if incremental coverage falls below the
//! committed baseline (default 95%, `--min-coverage` to override), if
//! any class with enough evidence — headline family included — is not
//! faster than the full re-embed, or if a deterministic field (delta
//! counts per family and class, divergences, coverage) differs from the
//! record it replaces at the same fleet, delta count and tenant size.
//! `--large` doubles the per-tenant graph size.

use planar_bench::record;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let large = args.iter().any(|a| a == "--large");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("paper");

    if planar_bench::cli::subcommand(which).is_none() {
        eprintln!("unknown experiment `{which}`");
        eprint!("{}", planar_bench::cli::usage());
        std::process::exit(2);
    }

    if which == "dst" {
        run_dst(&args);
        return;
    }

    if which == "service" {
        run_service(&args, large);
        return;
    }

    if which == "bench-kernel" {
        // n ~ {1k, 10k}; --large adds the 100k point of the cargo-bench
        // target. Substrate sides are round(sqrt(n)).
        let ns: &[usize] = if large {
            &[1024, 10_000, 100_000]
        } else {
            &[1024, 10_000]
        };
        // The memory stage: distributed-pipeline embeddings on random
        // maximal planar substrates. --large adds the million-node
        // acceptance point (minutes).
        let embed_ns: &[usize] = if large {
            &[10_000, 100_000, 1_000_000]
        } else {
            &[10_000]
        };
        // The record this run replaces, read before it is overwritten.
        let committed = std::fs::read_to_string("BENCH_kernel.json")
            .ok()
            .map(|text| {
                record::Json::parse(&text).expect("the existing BENCH_kernel.json is valid JSON")
            });
        println!("== kernel throughput: flood, fast vs seed reference kernel ==");
        let rows = planar_bench::kernelbench::kernel_bench(ns);
        println!("== embedding memory: distributed pipeline on random maximal planar ==");
        let embeds = planar_bench::kernelbench::embed_mem_stage(embed_ns);
        // Rows only a --large run makes stay as committed.
        record::write(
            "BENCH_kernel.json",
            &planar_bench::kernelbench::record(&rows, &embeds, committed.as_ref()),
        );
        if let Some(committed) = committed {
            let drift: Vec<String> = record::drift(&committed, "workloads", &rows)
                .into_iter()
                .chain(record::drift(&committed, "embeddings", &embeds))
                .collect();
            if !drift.is_empty() {
                eprintln!("deterministic fields differ from the previous BENCH_kernel.json:");
                for line in &drift {
                    eprintln!("  {line}");
                }
                std::process::exit(1);
            }
            println!("deterministic fields match the previous BENCH_kernel.json");
        }
        return;
    }

    if which == "mem" {
        run_mem();
        return;
    }

    if which == "chaos" {
        // n <= 1k keeps the seeded smoke sweep CI-sized; --large adds it.
        let ns: &[usize] = if large { &[64, 256, 1024] } else { &[64, 256] };
        println!("== chaos: embedding under seeded link faults (reliable delivery on) ==");
        let rows = planar_bench::chaos::chaos_sweep(ns);
        println!("{}", record::table(&rows));
        record::write("BENCH_chaos.json", &planar_bench::chaos::record(&rows));
        return;
    }

    if which == "cert" {
        // CI-sized by default; --large extends to the 1k substrates.
        let ns: &[usize] = if large { &[64, 256, 1024] } else { &[64, 256] };
        println!("== cert: proof labels + O(1)-round distributed verification ==");
        let rows = planar_bench::certbench::cert_sweep(ns);
        println!("{}", record::table(&rows));
        record::write("BENCH_cert.json", &planar_bench::certbench::record(&rows));
        return;
    }

    if which == "trace" {
        // CI-sized by default; --large extends to the 1k substrates.
        let ns: &[usize] = if large { &[64, 256, 1024] } else { &[64, 256] };
        println!("== trace: audited per-round profile of the embedding pipeline ==");
        let rows = planar_bench::tracebench::trace_sweep(ns);
        println!("{}", record::table(&rows));
        record::write("BENCH_trace.json", &planar_bench::tracebench::record(&rows));
        return;
    }

    if which == "sched" {
        // CI-sized by default; --large extends to the n = 100k headline
        // cell.
        let ns: &[usize] = if large {
            &[64, 256, 1024, 4096, 10_000, 100_000]
        } else {
            &[64, 256, 4096]
        };
        // The record this run replaces, read before it is overwritten.
        let committed = std::fs::read_to_string("BENCH_sched.json")
            .ok()
            .map(|text| {
                record::Json::parse(&text).expect("the existing BENCH_sched.json is valid JSON")
            });
        println!("== sched: level-synchronous scheduler vs sequential oracle ==");
        let rows = planar_bench::schedbench::sched_sweep(ns);
        println!("{}", record::table(&rows));
        record::write(
            "BENCH_sched.json",
            &planar_bench::schedbench::record(&rows, committed.as_ref()),
        );
        // Regression gate (CI). Outputs are asserted bit-identical inside
        // every cell; here we gate the timings: at the largest cell of each
        // family, the level-synchronous scheduler must not be slower than
        // the oracle.
        let largest = rows.iter().map(|r| r.n).max().unwrap_or(0);
        for r in rows.iter().filter(|r| r.n == largest) {
            assert!(
                r.speedup >= 1.0,
                "level-sync regressed past sequential at {}/n={}: {:.2}x",
                r.family,
                r.n,
                r.speedup
            );
        }
        // Round-drift gate: simulated rounds of every cell the committed
        // record also holds must repeat exactly.
        if let Some(committed) = committed {
            let drift = record::drift(&committed, "cells", &rows);
            if !drift.is_empty() {
                eprintln!("deterministic fields differ from the previous BENCH_sched.json:");
                for line in &drift {
                    eprintln!("  {line}");
                }
                std::process::exit(1);
            }
            println!("deterministic fields match the previous BENCH_sched.json");
        }
        return;
    }

    run_paper(large);
}

/// `harness paper`: every paper experiment, one table each, and the
/// deterministic record `BENCH_paper.json` (the CI round-drift gate
/// regenerates it and diffs it against the committed file).
fn run_paper(large: bool) {
    let sections = planar_bench::paper(large);
    for s in &sections {
        println!("== {} ==", s.title);
        println!("{}", s.table);
    }
    record::write("BENCH_paper.json", &planar_bench::paper_record(&sections));
}

/// `harness mem`: the CI memory gate. Runs an n = 250,000
/// random-maximal-planar graph through the full distributed pipeline
/// ([`planar_bench::kernelbench::embed_mem`]) and fails (exit 1) if the
/// process peak RSS exceeds the ceiling — the regression guard for the
/// struct-of-arrays kernel layout (a layout regression multiplies
/// per-node bytes, which at this n clears the headroom long before it
/// hurts anyone's laptop). Skips the gate (with a notice) where the
/// peak-RSS probe is unavailable.
fn run_mem() {
    /// Peak-RSS ceiling for the n = 250k smoke embedding. The measured
    /// peak on a 2-core Xeon VM is ~340 MiB (the retained kernel arena
    /// is ~122 MiB ≈ 510 B/node; the rest is the graph and driver
    /// artifacts), so 2 GiB is >6x headroom without tolerating a
    /// per-node blowup.
    const CEILING_BYTES: usize = 2 << 30;
    const N: usize = 250_000;

    println!("== mem: n = {N} random-maximal-planar embedding, peak-RSS gate ==");
    let row = planar_bench::kernelbench::embed_mem_stage(&[N]).remove(0);
    if row.peak_rss_bytes == 0 {
        println!("peak-RSS probe unavailable on this platform; ceiling not gated");
        return;
    }
    if row.peak_rss_bytes > CEILING_BYTES {
        eprintln!(
            "peak RSS {} exceeds the {} ceiling — kernel memory layout regression",
            planar_bench::mem::fmt_bytes(row.peak_rss_bytes),
            planar_bench::mem::fmt_bytes(CEILING_BYTES),
        );
        std::process::exit(1);
    }
    println!(
        "peak RSS {} within the {} ceiling",
        planar_bench::mem::fmt_bytes(row.peak_rss_bytes),
        planar_bench::mem::fmt_bytes(CEILING_BYTES),
    );
}

/// The test-only canary skew `--canary` arms (any non-zero value works;
/// this one is recognizable in artifacts).
const CANARY_SKEW: u64 = 0xDEAD_BEEF_0BAD_CAFE;

/// `harness dst [--swarm <count>] [--seed <base>] [--canary]
/// [--artifacts <dir>]`: swarm mode with `--swarm`, single-seed
/// bit-identical replay without. Exits 1 if any scenario violated an
/// oracle (except under `--canary`, where violations are the expected
/// outcome and *zero* divergences would be the failure), 2 on bad flags.
fn run_dst(args: &[String]) {
    let mut swarm: Option<usize> = None;
    let mut seed: u64 = 0;
    let mut canary = false;
    let mut artifacts = String::from("dst-artifacts");
    let mut it = args.iter().map(String::as_str).peekable();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| match it.next() {
            Some(v) => v.to_string(),
            None => {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            }
        };
        match arg {
            "dst" => {}
            "--swarm" => {
                swarm = Some(value_of("--swarm").parse().unwrap_or_else(|_| {
                    eprintln!("--swarm needs an integer count");
                    std::process::exit(2);
                }));
            }
            "--seed" => {
                seed = value_of("--seed").parse().unwrap_or_else(|_| {
                    eprintln!("--seed needs a u64");
                    std::process::exit(2);
                });
            }
            "--canary" => canary = true,
            "--artifacts" => artifacts = value_of("--artifacts"),
            "--help" => {
                print!("{}", planar_bench::cli::usage());
                return;
            }
            other => {
                eprintln!("unknown dst flag `{other}`");
                eprint!("{}", planar_bench::cli::usage());
                std::process::exit(2);
            }
        }
    }
    let skew = if canary { CANARY_SKEW } else { 0 };

    let Some(count) = swarm else {
        // Single-seed replay: the bit-identical reproduction path for a
        // failing seed reported by a swarm.
        let run = planar_dst::run_one(seed, skew, planar_dst::DEFAULT_BUDGET);
        println!("{}", run.progress_line());
        print!("{}", planar_dst::run_artifact(&run));
        if !run.report.violations.is_empty() && !canary {
            std::process::exit(1);
        }
        return;
    };

    println!(
        "== dst: {count} scenarios from seed {seed}{} ==",
        if canary { " (canary armed)" } else { "" }
    );
    let options = planar_dst::SwarmOptions {
        base_seed: seed,
        count,
        canary_skew: skew,
        ..planar_dst::SwarmOptions::default()
    };
    let report = planar_dst::run_swarm(&options, |run| println!("{}", run.progress_line()));

    let dir = std::path::Path::new(&artifacts);
    std::fs::create_dir_all(dir).expect("create artifact directory");
    for run in &report.runs {
        let path = dir.join(format!("dst_{}.json", run.seed));
        std::fs::write(&path, planar_dst::run_artifact(run)).expect("write run artifact");
    }
    record::write("BENCH_dst.json", &report.summary());
    println!(
        "wrote {} artifacts under {}",
        report.runs.len(),
        dir.display()
    );

    let violating = report.violating();
    if canary {
        // Self-test mode: the armed canary must be caught on every faulty
        // scenario whose fate function is actually consulted; zero catches
        // means the oracles are blind.
        println!("canary mode: {violating}/{count} scenarios caught the armed canary");
        if violating == 0 {
            eprintln!("canary escaped every scenario — shadow oracles are not looking");
            std::process::exit(1);
        }
    } else if violating > 0 {
        eprintln!(
            "{violating} scenario(s) violated an oracle: seeds {:?} (replay with \
             `harness dst --seed <seed>`; minimized reproducers are in the artifacts)",
            report.violating_seeds()
        );
        std::process::exit(1);
    }
}

/// The committed incremental-coverage baseline: the delta planner keeps
/// all of ChurnGen's applied deltas off the full path except root
/// departures (about 1% of them). The gate fails a soak whose coverage
/// drops below this (override per run with `--min-coverage`).
const SERVICE_MIN_COVERAGE: f64 = 0.95;

/// Classes need this many measured latency pairs before their dividend
/// gate arms — a near-empty cell's p50 is noise, not evidence.
const SERVICE_CLASS_GATE_MIN_COUNT: usize = 8;

/// `harness service [--fleet <count>] [--deltas <count>] [--min-coverage
/// <frac>] [--large]`: multi-tenant churn soak with the full re-embed
/// oracle armed on every delta. Exits 1 on any incremental-vs-oracle
/// divergence, if incremental coverage drops below the committed
/// baseline, if any class with enough evidence (headline family
/// included) fails to beat the full re-embed, or if a deterministic field
/// differs from the `BENCH_service.json` it replaces when that record is
/// a soak of the same shape; 2 on bad flags.
fn run_service(args: &[String], large: bool) {
    let mut opts = planar_bench::servicebench::ServiceBenchOptions::default();
    let mut min_coverage = SERVICE_MIN_COVERAGE;
    if large {
        opts.tenant_n *= 2;
    }
    let mut it = args.iter().map(String::as_str).peekable();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| -> usize {
            match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => v,
                None => {
                    eprintln!("{flag} needs an integer value");
                    std::process::exit(2);
                }
            }
        };
        match arg {
            "service" | "--large" => {}
            "--fleet" => opts.fleet = value_of("--fleet"),
            "--deltas" => opts.deltas = value_of("--deltas"),
            "--min-coverage" => {
                min_coverage = match it.next().and_then(|v| v.parse::<f64>().ok()) {
                    Some(v) if (0.0..=1.0).contains(&v) => v,
                    _ => {
                        eprintln!("--min-coverage needs a fraction in [0, 1]");
                        std::process::exit(2);
                    }
                }
            }
            "--help" => {
                print!("{}", planar_bench::cli::usage());
                return;
            }
            other => {
                eprintln!("unknown service flag `{other}`");
                eprint!("{}", planar_bench::cli::usage());
                std::process::exit(2);
            }
        }
    }

    println!(
        "== service: {} tenants x {} deltas (n ~ {}), full re-embed oracle armed ==",
        opts.fleet, opts.deltas, opts.tenant_n
    );
    // The record this run replaces, read before it is overwritten.
    let committed = std::fs::read_to_string("BENCH_service.json")
        .ok()
        .map(|text| {
            record::Json::parse(&text).expect("the existing BENCH_service.json is valid JSON")
        });
    let report = planar_bench::servicebench::service_soak(&opts);
    println!("{}", record::table(&report.rows));
    println!("{}", record::table(&report.classes));
    println!("{}", record::line("service", &report));
    record::write(
        "BENCH_service.json",
        &planar_bench::servicebench::record(&report),
    );
    let drift = committed.and_then(|c| planar_bench::servicebench::drift(&c, &report));
    match &drift {
        Some(lines) if !lines.is_empty() => {
            eprintln!("deterministic fields differ from the previous BENCH_service.json:");
            for line in lines {
                eprintln!("  {line}");
            }
        }
        Some(_) => println!("deterministic fields match the previous BENCH_service.json"),
        None => println!("no previous BENCH_service.json of this soak shape to compare"),
    }

    if report.divergences > 0 {
        eprintln!(
            "{} incremental re-embedding(s) diverged from the full re-embed oracle — \
             the bit-identity contract is broken",
            report.divergences
        );
        std::process::exit(1);
    }
    if report.incremental_coverage < min_coverage {
        eprintln!(
            "incremental coverage {:.1}% fell below the committed baseline {:.0}% — \
             the delta planner is sending too many deltas to the full path",
            report.incremental_coverage * 100.0,
            min_coverage * 100.0
        );
        std::process::exit(1);
    }
    let mut gate_failed = false;
    for c in &report.classes {
        if c.count >= SERVICE_CLASS_GATE_MIN_COUNT && c.speedup_p50 <= 1.0 {
            eprintln!(
                "class {} claims the incremental path but pays no dividend \
                 ({:.2}x over {} deltas)",
                c.class.code(),
                c.speedup_p50,
                c.count
            );
            gate_failed = true;
        }
    }
    if let Some(headline) = report.headline() {
        if headline.speedup_p50 <= 1.0 {
            eprintln!(
                "incremental re-embedding is not faster than a full re-embed at the \
                 headline cell ({}: {:.2}x)",
                headline.family, headline.speedup_p50
            );
            gate_failed = true;
        }
    }
    if gate_failed || drift.is_some_and(|lines| !lines.is_empty()) {
        std::process::exit(1);
    }
}
