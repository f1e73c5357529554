//! The embed workloads: repeated `embed_distributed` calls.
//!
//! * `embed-chain` — `wheel-chain` at n=500 (100 five-vertex wheels in a
//!   chain): high diameter, small blocks. Setup and the partition /
//!   symmetry / merge recursion, both driven by the CONGEST kernel, take
//!   over 90% of the time; the centralized epilogue under 5%. The family
//!   ignores the seed.
//! * `embed-rmp` — `random-maximal-planar` at n=400, a fresh seeded graph
//!   per call (a pass cycles through [`RMP_GRAPHS`] of them): dense, low
//!   diameter, high degree. The centralized epilogue is over 90%.
//!
//! The graphs are kept small so that one call takes 20-100 ms: a run then
//! repeats every input often enough for its fastest repeat to be steady
//! on a host whose cores are shared. At these sizes the kernel's rounds
//! stay under its parallel-engagement floor (512 recipients on two
//! cores), so the calls run the sequential kernel path.
//!
//! A pass embeds every input once; passes repeat until the budget is
//! spent. Each outcome must pass Euler (`verify_embedding`), carry an
//! accepted certification, and repeat the first pass's rotation,
//! certificates and simulated counts bit for bit.

use std::hint::black_box;
use std::time::Instant;

use congest_sim::{mix_seed, PhaseRounds};
use planar_embedding::{
    certify_embedding, embed_distributed, embed_recursion_with_memory, setup::run_setup,
    verify_embedding, EmbedError, EmbedderConfig, EmbeddingOutcome,
};
use planar_graph::Graph;
use planar_lib::gen;

use crate::trace::{Tracer, ROOT};
use crate::{end_to_end, Args, BestTimes, Checks, Report, Workload};

/// Requested vertex count of the `embed-chain` graph.
const CHAIN_N: usize = 500;
/// Vertex count of each `embed-rmp` graph.
const RMP_N: usize = 400;
/// Distinct `embed-rmp` graphs per pass.
const RMP_GRAPHS: usize = 12;
/// Times the inputs are generated before the first pass; `setup_s` is
/// the median over these and one more generation per pass.
const SETUP_REPS: usize = 5;

fn inputs(workload: Workload, seed: u64) -> Vec<Graph> {
    match workload {
        Workload::EmbedChain => {
            let family = gen::family("wheel-chain").expect("registered family");
            vec![(family.build)(CHAIN_N, seed)]
        }
        _ => {
            let family = gen::family("random-maximal-planar").expect("registered family");
            (0..RMP_GRAPHS)
                .map(|i| (family.build)(RMP_N, mix_seed(seed, &[i as u64])))
                .collect()
        }
    }
}

/// The parts of an outcome that must repeat exactly across calls on the
/// same graph: rotation, certification, metrics and phase rounds.
fn repeats(first: &EmbeddingOutcome, other: &EmbeddingOutcome) -> Result<(), String> {
    if first.stats.sequential_rounds != other.stats.sequential_rounds
        || first.stats.phase_rounds != other.stats.phase_rounds
        || first.metrics != other.metrics
    {
        return Err(format!(
            "simulated counts changed between calls: rounds {} vs {}, messages {} vs {}",
            first.stats.sequential_rounds,
            other.stats.sequential_rounds,
            first.metrics.messages,
            other.metrics.messages
        ));
    }
    if first.rotation != other.rotation {
        return Err("rotation changed between calls".into());
    }
    if first.certification != other.certification {
        return Err("certification changed between calls".into());
    }
    Ok(())
}

/// Checks one outcome and, from the second call on the same graph, that
/// it repeats the first.
fn check(
    g: &Graph,
    result: Result<EmbeddingOutcome, EmbedError>,
    first: &mut Option<EmbeddingOutcome>,
) -> Result<(), String> {
    let out = result.map_err(|e| format!("embed_distributed failed: {e}"))?;
    verify_embedding(g, &out.rotation).map_err(|e| format!("Euler check failed: {e}"))?;
    let cert = out
        .certification
        .as_ref()
        .ok_or("certification missing although certify is on")?;
    if !cert.accepted() || cert.certificates.len() != g.vertex_count() {
        return Err("certification not accepted by every node".into());
    }
    match first {
        Some(f) => repeats(f, &out),
        None => {
            *first = Some(out);
            Ok(())
        }
    }
}

/// Runs `embed-chain` or `embed-rmp`.
pub fn run(args: &Args, cfg: &EmbedderConfig) -> Report {
    // Set-up runs a few times up front and once more per pass, so that its
    // median samples the whole run, as the timed calls do.
    let mut setup_secs = Vec::new();
    let mut set_up = || {
        let t0 = Instant::now();
        let graphs = black_box(inputs(args.workload, args.seed));
        setup_secs.push(t0.elapsed().as_secs_f64());
        graphs
    };
    let graphs = set_up();
    for _ in 1..SETUP_REPS {
        set_up();
    }
    println!(
        "{} graph(s), {} vertices and {} edges in total",
        graphs.len(),
        graphs.iter().map(Graph::vertex_count).sum::<usize>(),
        graphs.iter().map(Graph::edge_count).sum::<usize>()
    );

    let mut checks = Checks::default();
    let mut first: Vec<Option<EmbeddingOutcome>> = graphs.iter().map(|_| None).collect();
    let mut times = BestTimes::new(graphs.len());
    let mut traced = BestTimes::new(graphs.len());
    let mut tracer = Tracer::new("embed");
    let mut phase_rounds = PhaseRounds::default();
    let mut passes = 0usize;
    let started = Instant::now();
    // After the first whole pass, the budget is checked before every call.
    'run: loop {
        if passes > 0 {
            set_up();
        }
        for (gi, g) in graphs.iter().enumerate() {
            if passes > 0 && started.elapsed() >= args.budget {
                break 'run;
            }
            let t0 = Instant::now();
            let result = black_box(embed_distributed(black_box(g), cfg));
            times.record(gi, t0.elapsed().as_secs_f64() * 1e3);
            checks.record("embed", check(g, result, &mut first[gi]));
            if args.trace {
                let op = (passes * graphs.len() + gi) as u64;
                let (result, ms) = tracer.span(op, "embed", ROOT, || embed_distributed(g, cfg));
                traced.record(gi, ms);
                trace_layers(&mut tracer, op, g, cfg, result.as_ref().ok(), &mut checks);
                checks.record("traced embed", check(g, result, &mut first[gi]));
            }
        }
        passes += 1;
    }

    // Totals over one pass: every pass repeats the first exactly.
    let mut rounds = 0usize;
    let mut messages = 0usize;
    for f in first.iter().flatten() {
        rounds += f.stats.sequential_rounds;
        messages += f.metrics.messages;
        phase_rounds.add(f.stats.phase_rounds);
    }
    let metrics = if args.trace {
        tracer.count("trace.ops", traced.calls() as f64);
        let overhead = traced.total_ms() / times.total_ms() - 1.0;
        print!(
            "{}",
            tracer.shares_table(args.workload.name(), &phase_rounds, "embed_distributed")
        );
        match tracer.write_spans(args.workload.name(), args.seed) {
            Ok(path) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans: {e}"),
        }
        tracer.metrics(&phase_rounds, messages, overhead)
    } else {
        println!(
            "{passes} whole pass(es), {} embed_distributed calls; {rounds} rounds and {messages} messages per pass",
            times.calls()
        );
        end_to_end(&setup_secs, &times, rounds)
    };
    Report { checks, metrics }
}

/// The beside calls of one traced embed: recursion (with setup inside
/// it), the centralized epilogue, and certification of the outcome's
/// rotation. Their outputs are checked against the end-to-end outcome.
fn trace_layers(
    tracer: &mut Tracer,
    op: u64,
    g: &Graph,
    cfg: &EmbedderConfig,
    out: Option<&EmbeddingOutcome>,
    checks: &mut Checks,
) {
    let Some(out) = out else { return };
    let n = g.vertex_count() as f64;
    let (rec, rec_ms) = tracer.span(op, "recursion", "embed", || {
        embed_recursion_with_memory(g, cfg)
    });
    let (setup, setup_ms) = tracer.span(op, "setup", "recursion", || run_setup(g, &cfg.sim));
    let (rotation, planar_ms) = tracer.span(op, "planar.embed", "embed", || planar_lib::embed(g));
    let (cert, cert_ms) = tracer.span(op, "cert", "embed", || {
        certify_embedding(g, &out.rotation, cfg)
    });
    tracer.sample("setup.ms", setup_ms);
    tracer.sample("recursion.self_ms", rec_ms - setup_ms);
    tracer.sample("planar.embed_ms", planar_ms);
    tracer.sample("cert.ms", cert_ms);
    tracer.count("setup.ms_total", setup_ms);

    let mut problems = Vec::new();
    match rec {
        Ok((_, stats, kernel_bytes)) => {
            tracer.sample("congest.kernel_bytes_per_node", kernel_bytes as f64 / n);
            let mut expect = out.stats.phase_rounds;
            expect.cert = 0;
            if stats.phase_rounds != expect {
                problems.push("recursion phase rounds differ from embed_distributed's");
            }
        }
        Err(_) => problems.push("embed_recursion_with_memory failed"),
    }
    match setup {
        Ok((_, m)) => {
            tracer.count("setup.messages", m.messages as f64);
            if m.rounds != out.stats.phase_rounds.setup {
                problems.push("run_setup rounds differ from the setup phase's");
            }
        }
        Err(_) => problems.push("run_setup failed"),
    }
    if rotation.as_ref().ok() != Some(&out.rotation) {
        problems.push("planar_lib::embed differs from the output rotation");
    }
    if !cert.is_ok_and(|c| c.accepted()) {
        problems.push("certify_embedding did not accept the output rotation");
    }
    checks.record(
        "traced layers",
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        },
    );
}
