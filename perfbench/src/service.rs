//! The `service-churn` workload: one closed-loop client sending deltas to
//! a multi-tenant `ServiceState`.
//!
//! A pass admits a fleet of [`FLEET`] tenants of [`TENANT_N`] nodes,
//! round-robin over `servicebench::FLEET_FAMILIES` (graph and churn seeds
//! derived from `--seed`), then applies [`DELTAS_PER_TENANT`] seeded
//! `ChurnGen` deltas to every tenant, round-robin, through
//! `ServiceState::apply` with the oracle off — each delta is sent after
//! the previous one returned. Passes repeat until the budget is spent;
//! admission is the set-up each pass pays and `setup_s` is its median.
//!
//! Checks, outside the timed calls: every delta is valid for its tenant
//! and never rejected as invalid; an applied delta leaves exactly the
//! mutated graph resident, a rejected one leaves the graph unchanged and
//! really was non-planar; after every delta the resident rotation passes
//! Euler and its certification is accepted. After the first pass every
//! tenant's rotation and certificates must equal a fresh
//! `embed_distributed` of its final graph, and every later pass must
//! repeat the first one's deltas, outcomes (path, class, rounds, reuse
//! counts) and final rotations exactly.

use std::hint::black_box;
use std::time::Instant;

use congest_sim::{mix_seed, PhaseRounds};
use planar_bench::servicebench::FLEET_FAMILIES;
use planar_embedding::{
    certify_embedding, embed_distributed, embed_recursion_with_memory, setup::run_setup,
    verify_embedding, Certification, EmbedError, EmbedderConfig, FullCause, ReembedPath,
    ResidentEmbedding,
};
use planar_graph::{Graph, RotationSystem};
use planar_lib::gen;
use planar_service::{
    apply_delta, preflight, ChurnGen, Delta, DeltaClass, DeltaOutcome, GateVerdict, OracleMode,
    ServiceConfig, ServiceError, ServiceState, TenantId,
};

use crate::trace::{Tracer, ROOT};
use crate::{end_to_end, Args, BestTimes, Checks, Report};

/// Tenants per fleet.
const FLEET: usize = 256;
/// Requested vertex count of each tenant graph.
const TENANT_N: usize = 24;
/// Churn deltas applied to every tenant per pass.
const DELTAS_PER_TENANT: usize = 4;

/// One admitted fleet, plus (in traced passes) a shadow resident
/// embedding per tenant that the beside calls re-embed.
struct Fleet {
    svc: ServiceState,
    tenants: Vec<(TenantId, ChurnGen)>,
    shadows: Vec<ResidentEmbedding>,
}

fn fleet_graphs(seed: u64) -> Vec<(&'static str, Graph)> {
    (0..FLEET)
        .map(|i| {
            let name = FLEET_FAMILIES[i % FLEET_FAMILIES.len()];
            let family = gen::family(name).expect("fleet family is registered");
            let g = (family.build)(TENANT_N.max(family.min_n), mix_seed(seed, &[1, i as u64]));
            (name, g)
        })
        .collect()
}

/// Generates the fleet's graphs and admits them (the timed set-up).
fn admit(seed: u64) -> Result<Fleet, ServiceError> {
    let mut svc = ServiceState::new(ServiceConfig {
        oracle: OracleMode::Off,
        ..ServiceConfig::default()
    });
    let mut tenants = Vec::with_capacity(FLEET);
    for (i, (name, g)) in fleet_graphs(seed).into_iter().enumerate() {
        let id = svc.create_tenant_labeled(g, Some(name))?;
        tenants.push((id, ChurnGen::new(mix_seed(seed, &[2, i as u64]))));
    }
    Ok(Fleet {
        svc,
        tenants,
        shadows: Vec::new(),
    })
}

/// What every pass must repeat exactly.
struct PassRecord {
    deltas: Vec<(Delta, DeltaOutcome)>,
    finals: Vec<(RotationSystem, Option<Certification>)>,
}

/// Deterministic per-pass totals, read off the first pass's outcomes.
#[derive(Default)]
struct PassCounts {
    applied: usize,
    incremental: usize,
    by_class: [usize; 4],
    rejected_nonplanar: usize,
    rejected_gate: usize,
    full_vertex_set: usize,
    full_tree: usize,
    full_plan_rejected: usize,
    plan_mismatch: usize,
    dirty_region: usize,
    partitions_recomputed: usize,
    partitions_reused: usize,
    merges_recomputed: usize,
    merges_reused: usize,
    rounds: usize,
}

impl PassCounts {
    fn of(record: &PassRecord) -> Self {
        let mut c = PassCounts::default();
        for (_, outcome) in &record.deltas {
            match outcome {
                DeltaOutcome::Applied { report, .. } => {
                    c.applied += 1;
                    c.rounds += report.rounds;
                    let taken = report.taken();
                    let ci = DeltaClass::ALL.iter().position(|&k| k == taken);
                    c.by_class[ci.expect("DeltaClass::ALL lists every class")] += 1;
                    if report.planned != taken {
                        c.plan_mismatch += 1;
                    }
                    match &report.path {
                        ReembedPath::Full { cause } => match cause {
                            FullCause::VertexSetChanged => c.full_vertex_set += 1,
                            FullCause::TreeChanged => c.full_tree += 1,
                            FullCause::PlanRejected => c.full_plan_rejected += 1,
                            FullCause::InitialBuild => {}
                        },
                        ReembedPath::Incremental {
                            dirty_region,
                            recomputed_partitions,
                            reused_partitions,
                            recomputed_merges,
                            reused_merges,
                            ..
                        } => {
                            c.incremental += 1;
                            c.dirty_region += dirty_region;
                            c.partitions_recomputed += recomputed_partitions;
                            c.partitions_reused += reused_partitions;
                            c.merges_recomputed += recomputed_merges;
                            c.merges_reused += reused_merges;
                        }
                    }
                }
                DeltaOutcome::RejectedNonPlanar { gate } => {
                    c.rejected_nonplanar += 1;
                    if *gate == GateVerdict::DefinitelyNonPlanar {
                        c.rejected_gate += 1;
                    }
                }
                DeltaOutcome::RejectedInvalid { .. } => {}
            }
        }
        c
    }

    fn to_tracer(&self, tracer: &mut Tracer) {
        let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        for (key, value) in [
            ("class.tree_preserving", self.by_class[0]),
            ("class.tree_repairable", self.by_class[1]),
            ("class.vertex_set", self.by_class[2]),
            ("class.fallback", self.by_class[3]),
            ("rejected.nonplanar", self.rejected_nonplanar),
            ("rejected.gate", self.rejected_gate),
            ("full_cause.vertex_set_changed", self.full_vertex_set),
            ("full_cause.tree_changed", self.full_tree),
            ("full_cause.plan_rejected", self.full_plan_rejected),
            ("plan_mismatch", self.plan_mismatch),
            ("partitions.recomputed", self.partitions_recomputed),
            ("partitions.reused", self.partitions_reused),
            ("merges.recomputed", self.merges_recomputed),
            ("merges.reused", self.merges_reused),
        ] {
            tracer.count(key, value as f64);
        }
        tracer.count(
            "incremental.coverage",
            ratio(self.incremental, self.applied),
        );
        tracer.count(
            "dirty_region.mean",
            ratio(self.dirty_region, self.incremental),
        );
    }
}

/// Checks one delta's outcome against the tenant state it left behind.
fn check_delta(
    svc: &ServiceState,
    id: TenantId,
    pre: &Graph,
    delta: &Delta,
    result: &Result<DeltaOutcome, ServiceError>,
) -> Result<(), String> {
    let outcome = result.as_ref().map_err(|e| format!("apply failed: {e}"))?;
    let mutated =
        apply_delta(pre, delta).map_err(|e| format!("churn drew an invalid delta: {e}"))?;
    let tenant = svc.tenant(id).ok_or("tenant vanished")?;
    match outcome {
        DeltaOutcome::Applied { .. } => {
            if tenant.graph() != &mutated {
                return Err("applied delta did not leave the mutated graph resident".into());
            }
        }
        DeltaOutcome::RejectedNonPlanar { .. } => {
            if planar_lib::is_planar(&mutated) {
                return Err("a planar delta was rejected as non-planar".into());
            }
            if tenant.graph() != pre {
                return Err("a rejected delta changed the resident graph".into());
            }
        }
        DeltaOutcome::RejectedInvalid { error } => {
            return Err(format!("a valid delta was rejected as invalid: {error}"));
        }
    }
    verify_embedding(tenant.graph(), tenant.rotation())
        .map_err(|e| format!("resident rotation fails Euler: {e}"))?;
    if !tenant.certification().is_some_and(Certification::accepted) {
        return Err("resident certification missing or not accepted".into());
    }
    Ok(())
}

/// Runs `service-churn`.
pub fn run(args: &Args, cfg: &EmbedderConfig) -> Report {
    let mut checks = Checks::default();
    let mut setup_secs = Vec::new();
    let mut times = BestTimes::new(FLEET * DELTAS_PER_TENANT);
    let mut traced_times = BestTimes::new(FLEET * DELTAS_PER_TENANT);
    let mut tracer = Tracer::new("delta");
    let mut reference: Option<PassRecord> = None;
    let min_passes = if args.trace { 2 } else { 1 };
    let mut passes = 0usize;
    let started = Instant::now();
    while passes < min_passes || started.elapsed() < args.budget {
        // In the traced run, odd passes are traced and even ones are not,
        // so both see the same inputs and can be compared.
        let traced = args.trace && passes % 2 == 1;
        let t0 = Instant::now();
        let fleet = admit(args.seed);
        let admit_secs = t0.elapsed().as_secs_f64();
        let mut fleet = match fleet {
            Ok(f) => f,
            Err(e) => {
                checks.record("admission", Err(e.to_string()));
                break;
            }
        };
        if traced {
            let shadows: Result<Vec<_>, _> = fleet_graphs(args.seed)
                .into_iter()
                .map(|(_, g)| ResidentEmbedding::build(g, cfg).map(|(shadow, _)| shadow))
                .collect();
            match shadows {
                Ok(shadows) => fleet.shadows = shadows,
                Err(e) => {
                    checks.record("shadow admission", Err(e.to_string()));
                    break;
                }
            }
            // The comparator's rounds and messages are per-pass totals.
            tracer.pass_rounds = PhaseRounds::default();
            tracer.pass_messages = 0;
        } else {
            setup_secs.push(admit_secs);
        }
        let record = run_pass(
            &mut fleet,
            cfg,
            passes,
            traced.then_some(&mut tracer),
            reference.as_ref(),
            &mut checks,
            if traced {
                &mut traced_times
            } else {
                &mut times
            },
        );
        match &reference {
            Some(r) => {
                for (t, (fin, want)) in record.finals.iter().zip(&r.finals).enumerate() {
                    checks.record(
                        "final state repeats the first pass",
                        if fin == want {
                            Ok(())
                        } else {
                            Err(format!("tenant {t}: final rotation or certificates differ"))
                        },
                    );
                }
            }
            None => {
                check_against_fresh(&fleet, &record, cfg, &mut checks);
                reference = Some(record);
            }
        }
        passes += 1;
    }

    let counts = reference.as_ref().map(PassCounts::of).unwrap_or_default();
    let metrics = if args.trace {
        counts.to_tracer(&mut tracer);
        tracer.count("trace.ops", traced_times.calls() as f64);
        let dividend = tracer.sample_median("incremental.full_us")
            / tracer.sample_median("incremental.delta_us");
        tracer.count(
            "incremental.dividend",
            if dividend.is_finite() { dividend } else { 0.0 },
        );
        let rounds = tracer.pass_rounds;
        let overhead = traced_times.total_ms() / times.total_ms() - 1.0;
        print!(
            "{}",
            tracer.shares_table("service-churn", &rounds, "full re-embed comparator")
        );
        match tracer.write_spans("service-churn", args.seed) {
            Ok(path) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans: {e}"),
        }
        tracer.metrics(&rounds, tracer.pass_messages, overhead)
    } else {
        println!(
            "{passes} pass(es), {} deltas: {} applied ({} incremental, {} full), {} rejected non-planar ({} by the gate); {} rounds per pass",
            times.calls(),
            counts.applied,
            counts.incremental,
            counts.applied - counts.incremental,
            counts.rejected_nonplanar,
            counts.rejected_gate,
            counts.rounds
        );
        end_to_end(&setup_secs, &times, counts.rounds)
    };
    Report { checks, metrics }
}

/// One pass of deltas over an admitted fleet. Returns what the pass did,
/// for comparison with the first pass.
#[allow(clippy::too_many_arguments)]
fn run_pass(
    fleet: &mut Fleet,
    cfg: &EmbedderConfig,
    pass: usize,
    mut tracer: Option<&mut Tracer>,
    reference: Option<&PassRecord>,
    checks: &mut Checks,
    times: &mut BestTimes,
) -> PassRecord {
    let mut deltas = Vec::with_capacity(FLEET * DELTAS_PER_TENANT);
    for step in 0..DELTAS_PER_TENANT {
        for t in 0..FLEET {
            let index = step * FLEET + t;
            let (id, churn) = &mut fleet.tenants[t];
            let id = *id;
            let tenant = fleet.svc.tenant(id).expect("admitted tenant");
            let pre = tenant.graph().clone();
            let delta = churn.next_delta(&pre);
            let result = match tracer.as_deref_mut() {
                Some(tracer) => {
                    let pre_rotation = tenant.rotation().clone();
                    let op = (pass * FLEET * DELTAS_PER_TENANT + index) as u64;
                    let sent = delta.clone();
                    let (result, ms) = tracer.span(op, "delta", ROOT, || fleet.svc.apply(id, sent));
                    times.record(index, ms);
                    if let Ok(outcome) = &result {
                        let layers = trace_layers(
                            tracer,
                            op,
                            cfg,
                            &pre,
                            &pre_rotation,
                            &delta,
                            outcome,
                            &mut fleet.shadows[t],
                            ms,
                        );
                        checks.record("traced layers", layers);
                    }
                    result
                }
                None => {
                    let sent = delta.clone();
                    let t0 = Instant::now();
                    let result = fleet.svc.apply(id, black_box(sent));
                    times.record(index, t0.elapsed().as_secs_f64() * 1e3);
                    result
                }
            };
            let mut verdict = check_delta(&fleet.svc, id, &pre, &delta, &result);
            if let (Ok(()), Some(r), Ok(outcome)) = (&verdict, reference, &result) {
                if r.deltas[index] != (delta.clone(), outcome.clone()) {
                    verdict = Err(format!("delta {index} differs from the first pass"));
                }
            }
            checks.record("delta", verdict);
            if let Ok(outcome) = result {
                deltas.push((delta, outcome));
            }
        }
    }
    let finals = fleet
        .tenants
        .iter()
        .map(|(id, _)| {
            let t = fleet.svc.tenant(*id).expect("admitted tenant");
            (t.rotation().clone(), t.certification().cloned())
        })
        .collect();
    PassRecord { deltas, finals }
}

/// After the first pass: every tenant's resident rotation and certificates
/// are bit-identical to a fresh `embed_distributed` of its final graph.
fn check_against_fresh(
    fleet: &Fleet,
    record: &PassRecord,
    cfg: &EmbedderConfig,
    checks: &mut Checks,
) {
    for (t, ((id, _), (rotation, cert))) in fleet.tenants.iter().zip(&record.finals).enumerate() {
        let g = fleet.svc.tenant(*id).expect("admitted tenant").graph();
        let verdict = match embed_distributed(g, cfg) {
            Ok(fresh) if &fresh.rotation != rotation => Err("rotation differs".to_string()),
            Ok(fresh)
                if fresh.certification.as_ref().map(|c| &c.certificates)
                    != cert.as_ref().map(|c| &c.certificates) =>
            {
                Err("certificates differ".to_string())
            }
            Ok(_) => Ok(()),
            Err(e) => Err(format!("fresh embed failed: {e}")),
        };
        checks.record(
            "final state equals a fresh embed",
            verdict.map_err(|e| format!("tenant {t}: {e}")),
        );
    }
}

/// The beside calls of one traced delta: validation, the gate, the
/// re-embed of a shadow resident, and — when the delta was applied — the
/// epilogue, certification and (on the full path) setup and recursion on
/// the mutated graph, plus a full `embed_distributed` of it as the
/// comparator the incremental dividend is measured against.
#[allow(clippy::too_many_arguments)]
fn trace_layers(
    tracer: &mut Tracer,
    op: u64,
    cfg: &EmbedderConfig,
    pre: &Graph,
    pre_rotation: &RotationSystem,
    delta: &Delta,
    outcome: &DeltaOutcome,
    shadow: &mut ResidentEmbedding,
    delta_ms: f64,
) -> Result<(), String> {
    let (mutated, validate_ms) = tracer.span(op, "validate", "delta", || apply_delta(pre, delta));
    let (verdict, gate_ms) =
        tracer.span(op, "gate", "delta", || preflight(pre, pre_rotation, delta));
    tracer.sample("service.validate_us", validate_ms * 1e3);
    tracer.sample("service.gate_us", gate_ms * 1e3);
    let gate = match outcome {
        DeltaOutcome::Applied { gate, .. } | DeltaOutcome::RejectedNonPlanar { gate } => *gate,
        DeltaOutcome::RejectedInvalid { .. } => return Err("delta rejected as invalid".into()),
    };
    if verdict != gate {
        return Err(format!(
            "preflight says {verdict:?}, the service saw {gate:?}"
        ));
    }
    let mutated = mutated.map_err(|e| format!("apply_delta failed: {e}"))?;
    if verdict == GateVerdict::DefinitelyNonPlanar {
        return Ok(());
    }

    let owned = mutated.clone();
    let (reembed, reembed_ms) = tracer.span(op, "reembed", "delta", || match delta {
        Delta::RemoveNode(v) => shadow.reembed_departure(owned, *v),
        _ => shadow.reembed(owned),
    });
    let report = match (outcome, reembed) {
        (DeltaOutcome::Applied { report, .. }, Ok(shadow_report)) if *report == shadow_report => {
            shadow_report
        }
        (DeltaOutcome::RejectedNonPlanar { .. }, Err(EmbedError::NonPlanar)) => return Ok(()),
        _ => return Err("the shadow re-embed disagrees with the service".into()),
    };

    let mut children_ms = 0.0;
    if !report.is_incremental() {
        let (rec, rec_ms) = tracer.span(op, "recursion", "reembed", || {
            embed_recursion_with_memory(&mutated, cfg)
        });
        let (setup, setup_ms) =
            tracer.span(op, "setup", "recursion", || run_setup(&mutated, &cfg.sim));
        children_ms += rec_ms;
        tracer.sample("setup.ms", setup_ms);
        tracer.sample("recursion.self_ms", rec_ms - setup_ms);
        tracer.count("setup.ms_total", setup_ms);
        let (_, _, kernel_bytes) = rec.map_err(|e| format!("recursion failed: {e}"))?;
        tracer.sample(
            "congest.kernel_bytes_per_node",
            kernel_bytes as f64 / mutated.vertex_count() as f64,
        );
        let (_, setup_metrics) = setup.map_err(|e| format!("run_setup failed: {e}"))?;
        tracer.count("setup.messages", setup_metrics.messages as f64);
    }
    let (rotation, planar_ms) = tracer.span(op, "planar.embed", "reembed", || {
        planar_lib::embed(&mutated)
    });
    let (cert, cert_ms) = tracer.span(op, "cert", "reembed", || {
        certify_embedding(&mutated, shadow.rotation(), cfg)
    });
    tracer.sample("planar.embed_ms", planar_ms);
    tracer.sample("cert.ms", cert_ms);
    let (full, full_ms) = tracer.span(op, "full", ROOT, || embed_distributed(&mutated, cfg));
    if report.is_incremental() {
        tracer.sample(
            "incremental.reembed_self_us",
            (reembed_ms - children_ms - planar_ms - cert_ms) * 1e3,
        );
        tracer.sample("incremental.delta_us", delta_ms * 1e3);
        tracer.sample("incremental.full_us", full_ms * 1e3);
    }

    if rotation.as_ref().ok() != Some(shadow.rotation()) {
        return Err("planar_lib::embed differs from the resident rotation".into());
    }
    if !cert.is_ok_and(|c| c.accepted()) {
        return Err("certify_embedding did not accept the resident rotation".into());
    }
    let full = full.map_err(|e| format!("full re-embed failed: {e}"))?;
    if &full.rotation != shadow.rotation() {
        return Err("full re-embed rotation differs from the incremental one".into());
    }
    tracer.pass_rounds.add(full.stats.phase_rounds);
    tracer.pass_messages += full.metrics.messages;
    Ok(())
}
