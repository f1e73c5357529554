//! The experiment harness: regenerates every table of EXPERIMENTS.md.
//!
//! Usage (the authoritative list lives in [`planar_bench::cli`]; run with
//! an unknown subcommand for the full listing):
//!
//! ```text
//! harness [all|t1|t2|t3|t4|t5|t6|fobs|fsafe|ablate|bench-kernel|mem|chaos|cert|trace|sched|dst|service] [--large]
//! ```
//!
//! `--large` extends the sweeps to larger instances (minutes instead of
//! seconds).
//!
//! `bench-kernel` times the simulation kernel against the preserved seed
//! kernel (flood throughput on grid / tri-grid / random-maximal-planar
//! substrates, with per-row kernel-arena bytes and peak RSS), runs the
//! distributed-pipeline embedding memory stage (`--large` includes the
//! n = 1,000,000 random-maximal-planar acceptance point), and writes the
//! record to `BENCH_kernel.json` in the current directory. It is not part
//! of `all`; run it explicitly (ideally under `--release`).
//!
//! `mem` is the CI memory gate: one n = 250,000 random-maximal-planar
//! graph through the distributed pipeline, failing if process peak RSS
//! exceeds its ceiling. Also not part of `all`.
//!
//! `chaos` sweeps the embedder under seeded link faults (drop / duplicate /
//! delay at several rates, reliable delivery on) over grid and tri-grid
//! substrates and writes `BENCH_chaos.json` (success rate and round
//! overhead vs the fault-free baseline per cell). Also not part of `all`.
//!
//! `cert` sweeps the distributed certification layer (per-node certificate
//! size, O(1)-round verification cost, per-class mutation soundness
//! spot-check) over grid / tri-grid / outerplanar / random-planar
//! substrates and writes `BENCH_cert.json`. Also not part of `all`.
//!
//! `trace` runs the full embedding pipeline (certification on) under the
//! trace auditor, fault-free and under seeded faults with reliable
//! delivery: every kernel segment's reported metrics are checked against
//! an independent recomputation from its event stream (any drift panics),
//! and the per-round profile is written to `BENCH_trace.json`. Also not
//! part of `all`.
//!
//! `sched` times the distributed pipeline (`embed_recursion_with_memory`:
//! setup + partition/merge recursion — the unit the scheduler controls)
//! under the level-synchronous scheduler against the sequential oracle
//! (bit-identical metrics and statistics asserted per cell) over grid and
//! tri-grid substrates and writes host wall time, speedup, and the
//! simulated round counts to `BENCH_sched.json`. Also not part of `all`;
//! run it under `--release` (`--large` extends to n = 100,000).
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
//! minimizer). Not part of `all`.
//!
//! `service` soaks the multi-tenant embedding service (`crates/service`):
//! `--fleet <count>` tenant graphs (default 1024) are admitted round-robin
//! over the fleet families, each then receives `--deltas <count>` seeded
//! churn deltas (default 4) with the full re-embed oracle armed on every
//! delta. Writes `BENCH_service.json` (embeddings/sec, p50/p99 incremental
//! vs full latency, speedup per family, and per-`DeltaClass` incremental
//! coverage + dividend) and exits non-zero if any incremental result
//! diverged from the oracle, if incremental coverage falls below the
//! committed baseline (default 50%, `--min-coverage` to override), or if
//! any class with enough evidence — headline family included — is not
//! faster than the full re-embed. `--large` doubles the per-tenant graph
//! size. Not part of `all`.

use planar_bench::record;
use planar_bench::table::render;
use planar_bench::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let large = args.iter().any(|a| a == "--large");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");
    let sizes: &[usize] = if large {
        &[64, 256, 1024, 4096, 16384]
    } else {
        &[64, 256, 1024]
    };
    let run_all = which == "all";

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
        // maximal planar substrates. --large runs the million-node
        // acceptance point (minutes).
        let embed_ns: &[usize] = if large {
            &[100_000, 1_000_000]
        } else {
            &[10_000]
        };
        println!("== kernel throughput: flood, fast vs seed reference kernel ==");
        let rows = planar_bench::kernelbench::kernel_bench(ns);
        println!("== embedding memory: distributed pipeline on random maximal planar ==");
        let embeds = planar_bench::kernelbench::embed_mem_stage(embed_ns);
        record::write(
            "BENCH_kernel.json",
            &planar_bench::kernelbench::record(&rows, &embeds),
        );
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
        println!("== sched: level-synchronous scheduler vs sequential oracle ==");
        let rows = planar_bench::schedbench::sched_sweep(ns);
        println!("{}", record::table(&rows));
        record::write("BENCH_sched.json", &planar_bench::schedbench::record(&rows));
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
        return;
    }

    if run_all || which == "t1" {
        println!("== T1: Theorem 1.1 scaling (rounds vs n, ours vs trivial baseline) ==");
        let rows = t1_scaling(sizes);
        let data: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.family.to_string(),
                    r.n.to_string(),
                    r.d.to_string(),
                    r.ours_rounds.to_string(),
                    r.baseline_rounds.to_string(),
                    format!("{:.2}", r.normalized),
                    r.depth.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render(
                &[
                    "family",
                    "n",
                    "D",
                    "ours",
                    "baseline",
                    "ours/(D*min(lg n,D))",
                    "depth"
                ],
                &data
            )
        );
    }

    if run_all || which == "t2" {
        let area = if large { 16384 } else { 4096 };
        println!("== T2: rounds vs D at fixed n = {area} (grid aspect sweep) ==");
        let rows = t2_diameter(area);
        let data: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.instance.clone(),
                    r.n.to_string(),
                    r.d.to_string(),
                    r.ours_rounds.to_string(),
                    r.baseline_rounds.to_string(),
                    format!("{:.1}", r.rounds_per_d),
                ]
            })
            .collect();
        println!(
            "{}",
            render(&["instance", "n", "D", "ours", "baseline", "ours/D"], &data)
        );
    }

    if run_all || which == "t3" {
        println!("== T3: Lemmas 4.2/4.3 (recursion depth, part ratios, final parts) ==");
        let rows = t3_partition(sizes);
        let data: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.family.to_string(),
                    r.n.to_string(),
                    r.depth.to_string(),
                    format!("{:.1}", r.depth_bound),
                    format!("{:.3}", r.max_child_ratio),
                    r.max_final_parts.to_string(),
                    r.d.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render(
                &[
                    "family",
                    "n",
                    "depth",
                    "log3/2(n)",
                    "max|Pi|/|Ts|",
                    "maxFinalParts",
                    "D"
                ],
                &data
            )
        );
    }

    if run_all || which == "t4" {
        println!("== T4: Lemma 5.3 symmetry breaking (outerplanar, proper coloring) ==");
        let sweep: &[usize] = if large {
            &[16, 64, 256, 1024, 4096, 16384]
        } else {
            &[16, 64, 256, 1024]
        };
        let rows = t4_symmetry(sweep);
        let data: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.n.to_string(),
                    r.rounds.to_string(),
                    r.stars.to_string(),
                    format!("{:.2}", r.merged_fraction),
                    r.long_paths.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render(&["n", "rounds", "stars", "mergedFrac", "longPaths"], &data)
        );
    }

    if run_all || which == "t5" {
        println!("== T5: Omega(D) lower-bound instance (subdivided K4) ==");
        let lens: &[usize] = if large {
            &[4, 8, 16, 32, 64, 128]
        } else {
            &[4, 8, 16, 32]
        };
        let rows = t5_lower_bound(lens);
        let data: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.len.to_string(),
                    r.n.to_string(),
                    r.d.to_string(),
                    r.ours_rounds.to_string(),
                    r.at_least_d.to_string(),
                    r.consistent.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render(&["L", "n", "D", "ours", "rounds>=D", "consistent"], &data)
        );
    }

    if run_all || which == "t6" {
        println!("== T6: CONGEST discipline audit ==");
        let rows = t6_congestion(sizes);
        let data: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.family.to_string(),
                    r.n.to_string(),
                    r.budget_words.to_string(),
                    r.max_words_edge_round.to_string(),
                    r.messages.to_string(),
                    r.bits.to_string(),
                    r.within_budget.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render(
                &[
                    "family",
                    "n",
                    "budget",
                    "maxW/edge/rd",
                    "messages",
                    "bits",
                    "ok"
                ],
                &data
            )
        );
    }

    if run_all || which == "fobs" {
        println!("== F-obs32: Observation 3.2 interface characterization ==");
        let rows = fobs_interface();
        let data: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.instance.to_string(),
                    r.achievable_orders.to_string(),
                    r.predicted_orders.to_string(),
                    r.summary_blocks.to_string(),
                    r.summary_words.to_string(),
                    r.matches.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render(
                &[
                    "instance",
                    "achievable",
                    "predicted",
                    "blocks",
                    "words",
                    "match"
                ],
                &data
            )
        );
    }

    if run_all || which == "ablate" {
        let n = if large { 1024 } else { 256 };
        println!("== Ablation: per-edge word budget B vs rounds (n = {n}) ==");
        let rows = ablate_budget(n);
        let data: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.family.to_string(),
                    r.budget_words.to_string(),
                    r.ours_rounds.to_string(),
                    r.baseline_rounds.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render(&["family", "B(words)", "ours", "baseline"], &data)
        );
    }

    if run_all || which == "fsafe" {
        println!("== F-safe: Definition 3.1 safety, full invariant checking ==");
        let sweep: &[usize] = if large { &[64, 256] } else { &[48, 96] };
        let rows = fsafe(sweep);
        let data: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.family.to_string(),
                    r.n.to_string(),
                    r.all_invariants_held.to_string(),
                    r.merges_checked.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render(&["family", "n", "invariantsHeld", "mergesChecked"], &data)
        );
    }
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
    /// peak on the reference host is ~480 MiB (the retained kernel
    /// arena is ~234 MiB ≈ 983 B/node; the rest is the graph and
    /// driver artifacts), so 2 GiB is >4x headroom without tolerating
    /// a per-node blowup.
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
/// a majority of ChurnGen's applied deltas off the full path. The gate
/// fails a soak whose coverage drops below this (override per run with
/// `--min-coverage`).
const SERVICE_MIN_COVERAGE: f64 = 0.5;

/// Classes need this many measured latency pairs before their dividend
/// gate arms — a near-empty cell's p50 is noise, not evidence.
const SERVICE_CLASS_GATE_MIN_COUNT: usize = 8;

/// `harness service [--fleet <count>] [--deltas <count>] [--min-coverage
/// <frac>] [--large]`: multi-tenant churn soak with the full re-embed
/// oracle armed on every delta. Exits 1 on any incremental-vs-oracle
/// divergence, if incremental coverage drops below the committed
/// baseline, or if any class with enough evidence (headline family
/// included) fails to beat the full re-embed; 2 on bad flags.
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
    let report = planar_bench::servicebench::service_soak(&opts);
    println!("{}", record::table(&report.rows));
    println!("{}", record::table(&report.classes));
    println!("{}", record::line("service", &report));
    record::write(
        "BENCH_service.json",
        &planar_bench::servicebench::record(&report),
    );

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
    if gate_failed {
        std::process::exit(1);
    }
}
