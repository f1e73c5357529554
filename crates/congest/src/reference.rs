//! The original (seed) simulation kernel, kept verbatim as an executable
//! specification.
//!
//! [`run_reference`] is the `HashMap`-based kernel the workspace shipped
//! with before the allocation-free rewrite in [`crate::network`]. It is
//! deliberately simple — per-round hash maps for budget accounting and
//! inbox construction, explicit recipient sorting — and serves two
//! purposes:
//!
//! * the determinism conformance suite asserts the fast kernel produces
//!   **identical final states and [`Metrics`]** on every program it runs;
//! * the kernel throughput benchmark (`crates/bench/benches/kernel.rs` and
//!   `harness bench-kernel`) uses it as the baseline the speedup is
//!   measured against, recorded in `BENCH_kernel.json`.
//!
//! Do not optimize this module; its value is that it stays obviously
//! correct. The changes since the seed are the program interface:
//! programs push their sends onto an outbox, and this kernel hands each
//! step a fresh `Vec` (`init_sends`/`round_sends`) where the fast kernel
//! reuses one; and a [`BROADCAST`](crate::BROADCAST) send, which those
//! two functions expand into its unicasts to the node's neighbors,
//! ascending, before anything else sees the step's sends.
//!
//! # Fault injection
//!
//! When [`SimConfig::faults`] is non-empty the run dispatches to a
//! separate, equally simple fault-aware loop that applies the *same*
//! per-message fate function as the fast kernel (see [`crate::faults`] for
//! the shared semantics and the replayability contract). The fault-free
//! seed loop below is untouched, so the executable spec for the hot path
//! stays byte-for-byte what the workspace shipped with.

use std::collections::HashMap;

use planar_graph::{Graph, VertexId};

use crate::faults::{CrashPolicy, Fate};
use crate::message::Words;
use crate::metrics::Metrics;
use crate::network::{
    expand_broadcasts, Instance, InstanceOutcome, MultiOutcome, NodeCtx, NodeProgram, SimConfig,
    SimError, SimOutcome,
};
use crate::trace::TraceEvent;

/// `p`'s initial sends, collected into a fresh `Vec` (the fast kernel
/// reuses one outbox instead), broadcasts expanded.
fn init_sends<P: NodeProgram>(p: &mut P, ctx: &NodeCtx<'_>) -> Vec<(VertexId, P::Msg)> {
    let mut out = Vec::new();
    p.init(ctx, &mut out);
    expand_broadcasts(&mut out, ctx.neighbors);
    out
}

/// `p`'s sends for one round, collected into a fresh `Vec`, broadcasts
/// expanded.
fn round_sends<P: NodeProgram>(
    p: &mut P,
    ctx: &NodeCtx<'_>,
    inbox: &[(VertexId, P::Msg)],
) -> Vec<(VertexId, P::Msg)> {
    let mut out = Vec::new();
    p.on_round(ctx, inbox, &mut out);
    expand_broadcasts(&mut out, ctx.neighbors);
    out
}

/// Runs `programs` to quiescence with the original quadratic-allocation
/// kernel (see module docs). Semantics are identical to [`crate::run`],
/// including under a non-empty fault plan.
///
/// # Errors
///
/// Propagates [`SimError`] exactly as [`crate::run`] does.
///
/// # Panics
///
/// Panics if `programs.len() != g.vertex_count()`.
pub fn run_reference<P: NodeProgram>(
    g: &Graph,
    programs: Vec<P>,
    cfg: &SimConfig,
) -> Result<SimOutcome<P>, SimError> {
    if cfg.faults.is_empty() && cfg.watchdog.is_none() {
        run_fault_free(g, programs, cfg)
    } else {
        run_faulty(g, programs, cfg)
    }
}

/// The seed kernel, verbatim (fault-free path).
fn run_fault_free<P: NodeProgram>(
    g: &Graph,
    mut programs: Vec<P>,
    cfg: &SimConfig,
) -> Result<SimOutcome<P>, SimError> {
    assert_eq!(
        programs.len(),
        g.vertex_count(),
        "need exactly one program per vertex"
    );
    let mut metrics = Metrics::new();
    let tracing = cfg.trace.is_on();
    if tracing {
        cfg.trace.emit(TraceEvent::RunStart {
            nodes: g.vertex_count(),
            budget_words: cfg.budget_words,
        });
    }

    // Messages in flight: sender -> (dest, msg), to be delivered next round.
    let mut in_flight: Vec<(VertexId, VertexId, P::Msg)> = Vec::new();

    // Init phase (round 0).
    for (i, program) in programs.iter_mut().enumerate() {
        let v = VertexId::from_index(i);
        let ctx = NodeCtx {
            id: v,
            neighbors: g.neighbors(v),
            round: 0,
        };
        for (dest, msg) in init_sends(program, &ctx) {
            validate_dest(g, v, dest)?;
            if tracing {
                cfg.trace.emit(TraceEvent::Send {
                    round: 0,
                    from: v,
                    to: dest,
                    words: msg.words(),
                });
            }
            in_flight.push((v, dest, msg));
        }
    }

    let mut round = 0usize;
    while !in_flight.is_empty() {
        round += 1;
        if round > cfg.max_rounds {
            return Err(SimError::MaxRoundsExceeded {
                limit: cfg.max_rounds,
            });
        }
        // Enforce per-directed-edge budgets for this round's deliveries.
        let mut edge_words: HashMap<(VertexId, VertexId), usize> = HashMap::new();
        for (from, to, msg) in &in_flight {
            let w = edge_words.entry((*from, *to)).or_insert(0);
            *w += msg.words();
            if *w > cfg.budget_words {
                return Err(SimError::BudgetExceeded {
                    from: *from,
                    to: *to,
                    words: *w,
                    budget: cfg.budget_words,
                    round,
                });
            }
        }
        // RoundStart comes *after* the budget check: a round that aborts
        // delivers nothing, so it gets no RoundStart — matching the fast
        // kernel, which reports pending overflows before its RoundStart.
        if tracing {
            cfg.trace.emit(TraceEvent::RoundStart { round });
        }
        let round_max = edge_words.values().copied().max().unwrap_or(0);
        metrics.max_words_edge_round = metrics.max_words_edge_round.max(round_max);
        let round_msgs = in_flight.len();
        let round_words = in_flight.iter().map(|(_, _, m)| m.words()).sum::<usize>();
        metrics.messages += round_msgs;
        metrics.words += round_words;

        // Deliver.
        let mut inboxes: HashMap<VertexId, Vec<(VertexId, P::Msg)>> = HashMap::new();
        for (from, to, msg) in in_flight.drain(..) {
            inboxes.entry(to).or_default().push((from, msg));
        }
        // Deterministic processing order.
        let mut recipients: Vec<VertexId> = inboxes.keys().copied().collect();
        recipients.sort();
        for v in recipients {
            let mut inbox = inboxes.remove(&v).expect("recipient key exists");
            inbox.sort_by_key(|(from, _)| *from);
            if tracing {
                for (from, msg) in &inbox {
                    cfg.trace.emit(TraceEvent::Deliver {
                        round,
                        from: *from,
                        to: v,
                        words: msg.words(),
                    });
                }
            }
            let ctx = NodeCtx {
                id: v,
                neighbors: g.neighbors(v),
                round,
            };
            for (dest, msg) in round_sends(&mut programs[v.index()], &ctx, &inbox) {
                validate_dest(g, v, dest)?;
                if tracing {
                    cfg.trace.emit(TraceEvent::Send {
                        round,
                        from: v,
                        to: dest,
                        words: msg.words(),
                    });
                }
                in_flight.push((v, dest, msg));
            }
        }
        if tracing {
            cfg.trace.emit(TraceEvent::RoundEnd {
                round,
                messages: round_msgs,
                words: round_words,
                max_words_edge: round_max,
            });
        }
    }
    metrics.rounds = round;
    if tracing {
        cfg.trace.emit(TraceEvent::RunEnd { metrics });
    }
    Ok(SimOutcome { programs, metrics })
}

/// Per-sender mutable state threaded through [`record_faulty`].
struct FaultyState<M> {
    /// On-time messages due next round, in send order.
    in_flight: Vec<(VertexId, VertexId, M)>,
    /// Delay-faulted messages: `(arrival round, from, to, msg)`, appended in
    /// send order (so a stable sweep preserves `(send_round, k)` order).
    delayed: Vec<(usize, VertexId, VertexId, M)>,
    /// Attempted `(k, words)` per directed link this round.
    att: HashMap<(VertexId, VertexId), (u32, usize)>,
    /// First budget violation, reported at the start of the delivery round.
    pending_overflow: Option<SimError>,
    /// Batched runs only ([`run_reference_many`]): owning instance per
    /// vertex, `u32::MAX` = bystander. Empty = not batched; every
    /// instance branch below is then skipped, keeping [`run_faulty`]
    /// byte-for-byte the seed semantics.
    inst_of: Vec<u32>,
    /// Per-instance fault counters (batched runs only).
    inst_metrics: Vec<Metrics>,
    /// Pending delay-faulted copies per instance (batched runs only).
    inst_delayed: Vec<usize>,
}

impl<M> FaultyState<M> {
    fn new() -> Self {
        FaultyState {
            in_flight: Vec::new(),
            delayed: Vec::new(),
            att: HashMap::new(),
            pending_overflow: None,
            inst_of: Vec::new(),
            inst_metrics: Vec::new(),
            inst_delayed: Vec::new(),
        }
    }
}

/// Mirrors the fast kernel's fault-mode `record_sends`.
#[allow(clippy::too_many_arguments)]
fn record_faulty<M: Words + Clone>(
    g: &Graph,
    cfg: &SimConfig,
    crashed_at: &[usize],
    st: &mut FaultyState<M>,
    metrics: &mut Metrics,
    from: VertexId,
    round: usize,
    out: Vec<(VertexId, M)>,
) -> Result<(), SimError> {
    let tracing = cfg.trace.is_on();
    let from_inst = if st.inst_of.is_empty() {
        u32::MAX
    } else {
        st.inst_of[from.index()]
    };
    for (dest, msg) in out {
        validate_dest(g, from, dest)?;
        if from_inst != u32::MAX && st.inst_of[dest.index()] != from_inst {
            return Err(SimError::CrossInstanceSend {
                from,
                to: dest,
                round,
            });
        }
        if tracing {
            cfg.trace.emit(TraceEvent::Send {
                round,
                from,
                to: dest,
                words: msg.words(),
            });
        }
        let e = st.att.entry((from, dest)).or_insert((0, 0));
        let k = e.0;
        e.0 += 1;
        e.1 += msg.words();
        if e.1 > cfg.budget_words && st.pending_overflow.is_none() {
            st.pending_overflow = Some(SimError::BudgetExceeded {
                from,
                to: dest,
                words: e.1,
                budget: cfg.budget_words,
                round: round + 1,
            });
        }
        if crashed_at[dest.index()] <= round {
            match cfg.faults.on_crashed_send {
                CrashPolicy::DropSilently => {
                    metrics.dropped += 1;
                    if from_inst != u32::MAX {
                        st.inst_metrics[from_inst as usize].dropped += 1;
                    }
                    if tracing {
                        cfg.trace.emit(TraceEvent::Drop {
                            round,
                            from,
                            to: dest,
                            words: msg.words(),
                        });
                    }
                    continue;
                }
                CrashPolicy::Error => {
                    return Err(SimError::DestinationCrashed {
                        from,
                        to: dest,
                        round,
                    });
                }
            }
        }
        match cfg.faults.fate(from, dest, round, k) {
            Fate::Dropped => {
                metrics.dropped += 1;
                if from_inst != u32::MAX {
                    st.inst_metrics[from_inst as usize].dropped += 1;
                }
                if tracing {
                    cfg.trace.emit(TraceEvent::Drop {
                        round,
                        from,
                        to: dest,
                        words: msg.words(),
                    });
                }
            }
            Fate::Deliver { copies, delay } => {
                if copies > 1 {
                    metrics.duplicated += usize::from(copies) - 1;
                    if from_inst != u32::MAX {
                        st.inst_metrics[from_inst as usize].duplicated += usize::from(copies) - 1;
                    }
                    if tracing {
                        for _ in 1..copies {
                            cfg.trace.emit(TraceEvent::Duplicate {
                                round,
                                from,
                                to: dest,
                                words: msg.words(),
                            });
                        }
                    }
                }
                if delay > 0 {
                    metrics.delayed += 1;
                    if from_inst != u32::MAX {
                        st.inst_metrics[from_inst as usize].delayed += 1;
                    }
                    if tracing {
                        cfg.trace.emit(TraceEvent::Delay {
                            round,
                            from,
                            to: dest,
                            words: msg.words(),
                            deliver_round: round + 1 + delay,
                        });
                    }
                }
                let deliver = round + 1 + delay;
                if deliver >= crashed_at[dest.index()] {
                    metrics.dropped += usize::from(copies);
                    if from_inst != u32::MAX {
                        st.inst_metrics[from_inst as usize].dropped += usize::from(copies);
                    }
                    if tracing {
                        for _ in 0..copies {
                            cfg.trace.emit(TraceEvent::Drop {
                                round,
                                from,
                                to: dest,
                                words: msg.words(),
                            });
                        }
                    }
                    continue;
                }
                for _ in 0..copies {
                    if delay == 0 {
                        st.in_flight.push((from, dest, msg.clone()));
                    } else {
                        st.delayed.push((deliver, from, dest, msg.clone()));
                        if from_inst != u32::MAX {
                            st.inst_delayed[from_inst as usize] += 1;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// The fault-aware reference loop: same simple style as the seed kernel,
/// same observable semantics as the fast kernel's fault mode.
fn run_faulty<P: NodeProgram>(
    g: &Graph,
    mut programs: Vec<P>,
    cfg: &SimConfig,
) -> Result<SimOutcome<P>, SimError> {
    assert_eq!(
        programs.len(),
        g.vertex_count(),
        "need exactly one program per vertex"
    );
    let n = g.vertex_count();
    // Ticks are honored only with a non-empty plan (matching the fast
    // kernel, where a watchdog-only config stays on the fault-free path).
    let fault_mode = !cfg.faults.is_empty();
    let crashed_at: Vec<usize> = (0..n)
        .map(|i| cfg.faults.crash_round(VertexId::from_index(i)))
        .collect();
    let mut metrics = Metrics::new();
    let tracing = cfg.trace.is_on();
    if tracing {
        cfg.trace.emit(TraceEvent::RunStart {
            nodes: n,
            budget_words: cfg.budget_words,
        });
        // Round-0 crash victims never act; announce them up front.
        for (i, &r) in crashed_at.iter().enumerate() {
            if r == 0 {
                cfg.trace.emit(TraceEvent::Crash {
                    round: 0,
                    node: VertexId::from_index(i),
                });
            }
        }
    }
    let mut st = FaultyState::new();

    // Init phase (round 0); nodes crashed at round 0 never act.
    for (i, program) in programs.iter_mut().enumerate() {
        if crashed_at[i] == 0 {
            continue;
        }
        let v = VertexId::from_index(i);
        let ctx = NodeCtx {
            id: v,
            neighbors: g.neighbors(v),
            round: 0,
        };
        let out = init_sends(program, &ctx);
        record_faulty(g, cfg, &crashed_at, &mut st, &mut metrics, v, 0, out)?;
    }
    let mut tick_pending =
        fault_mode && (0..n).any(|i| crashed_at[i] > 1 && programs[i].wants_tick());

    let mut round = 0usize;
    loop {
        if st.in_flight.is_empty() && st.delayed.is_empty() && !tick_pending {
            break; // quiescence
        }
        round += 1;
        if let Some(limit) = cfg.watchdog {
            if round > limit {
                if tracing {
                    cfg.trace.emit(TraceEvent::Watchdog { limit });
                }
                return Err(SimError::WatchdogTimeout { limit });
            }
        }
        if round > cfg.max_rounds {
            return Err(SimError::MaxRoundsExceeded {
                limit: cfg.max_rounds,
            });
        }
        if let Some(overflow) = st.pending_overflow.take() {
            return Err(overflow);
        }
        if tracing {
            cfg.trace.emit(TraceEvent::RoundStart { round });
            for (i, &r) in crashed_at.iter().enumerate() {
                if r == round {
                    cfg.trace.emit(TraceEvent::Crash {
                        round,
                        node: VertexId::from_index(i),
                    });
                }
            }
        }
        st.att.clear();

        // This round's arrivals: on-time traffic first, then delayed
        // messages falling due (stable order — see `FaultyState::delayed`).
        let mut arrivals: Vec<(VertexId, VertexId, P::Msg)> = std::mem::take(&mut st.in_flight);
        let mut still_delayed = Vec::new();
        for (due, from, to, msg) in st.delayed.drain(..) {
            if due == round {
                arrivals.push((from, to, msg));
            } else {
                still_delayed.push((due, from, to, msg));
            }
        }
        st.delayed = still_delayed;

        // Congestion metrics count *delivered* traffic.
        let mut edge_words: HashMap<(VertexId, VertexId), usize> = HashMap::new();
        for (from, to, msg) in &arrivals {
            *edge_words.entry((*from, *to)).or_insert(0) += msg.words();
        }
        let round_max = edge_words.values().copied().max().unwrap_or(0);
        metrics.max_words_edge_round = metrics.max_words_edge_round.max(round_max);
        let round_msgs = arrivals.len();
        let round_words = arrivals.iter().map(|(_, _, m)| m.words()).sum::<usize>();
        metrics.messages += round_msgs;
        metrics.words += round_words;

        // Deliver: group by recipient; within one inbox the stable
        // sender-sort leaves each sender's messages in arrival order
        // (on-time in emission order, then delayed by `(send_round, k)`).
        let mut inboxes: HashMap<VertexId, Vec<(VertexId, P::Msg)>> = HashMap::new();
        for (from, to, msg) in arrivals.drain(..) {
            inboxes.entry(to).or_default().push((from, msg));
        }
        let mut recipients: Vec<VertexId> = inboxes.keys().copied().collect();
        recipients.sort();
        for &v in &recipients {
            let mut inbox = inboxes.remove(&v).expect("recipient key exists");
            inbox.sort_by_key(|(from, _)| *from);
            if tracing {
                for (from, msg) in &inbox {
                    cfg.trace.emit(TraceEvent::Deliver {
                        round,
                        from: *from,
                        to: v,
                        words: msg.words(),
                    });
                }
            }
            let ctx = NodeCtx {
                id: v,
                neighbors: g.neighbors(v),
                round,
            };
            let out = round_sends(&mut programs[v.index()], &ctx, &inbox);
            record_faulty(g, cfg, &crashed_at, &mut st, &mut metrics, v, round, out)?;
        }
        // Timer ticks: live non-recipients that asked for empty-inbox
        // wakeups, in ascending vertex id.
        if fault_mode {
            for i in 0..n {
                let v = VertexId::from_index(i);
                if recipients.binary_search(&v).is_ok()
                    || crashed_at[i] <= round
                    || !programs[i].wants_tick()
                {
                    continue;
                }
                let ctx = NodeCtx {
                    id: v,
                    neighbors: g.neighbors(v),
                    round,
                };
                let out = round_sends(&mut programs[i], &ctx, &[]);
                record_faulty(g, cfg, &crashed_at, &mut st, &mut metrics, v, round, out)?;
            }
            tick_pending = (0..n).any(|i| crashed_at[i] > round + 1 && programs[i].wants_tick());
        }
        if tracing {
            cfg.trace.emit(TraceEvent::RoundEnd {
                round,
                messages: round_msgs,
                words: round_words,
                max_words_edge: round_max,
            });
        }
    }
    metrics.rounds = round;
    // Count from the per-vertex crash table, not `FaultPlan::crashed_by`:
    // the plan may name vertices this graph does not have, and a node that
    // does not exist cannot crash (matches the fast kernel).
    metrics.crashed_nodes = crashed_at.iter().filter(|&&r| r <= round).count();
    if tracing {
        cfg.trace.emit(TraceEvent::RunEnd { metrics });
    }
    Ok(SimOutcome { programs, metrics })
}

/// Reference counterpart of [`Simulator::run_many`](crate::Simulator):
/// runs vertex-disjoint instances in one shared round lattice with the
/// same simple style as the seed kernel.
///
/// One fault-aware loop serves every configuration: with an empty fault
/// plan [`FaultPlan::fate`](crate::FaultPlan) is the identity
/// (`Deliver { copies: 1, delay: 0 }`), so the loop degenerates to the
/// fault-free semantics, including the budget-overflow observables
/// (the error names the delivery round and that round emits no
/// `RoundStart`).
///
/// # Errors
///
/// Propagates [`SimError`] like [`crate::run_many`], including
/// [`SimError::CrossInstanceSend`] on any isolation violation.
///
/// # Panics
///
/// Panics if instances overlap or name vertices outside `g`.
pub fn run_reference_many<P: NodeProgram>(
    g: &Graph,
    mut instances: Vec<Instance<P>>,
    cfg: &SimConfig,
) -> Result<MultiOutcome<P>, SimError> {
    let n = g.vertex_count();
    let k = instances.len();
    // Ticks are honored only with a non-empty plan, as in `run_faulty`.
    let fault_mode = !cfg.faults.is_empty();
    let crashed_at: Vec<usize> = (0..n)
        .map(|i| cfg.faults.crash_round(VertexId::from_index(i)))
        .collect();
    let mut st: FaultyState<P::Msg> = FaultyState::new();
    st.inst_of = vec![u32::MAX; n];
    for (i, inst) in instances.iter().enumerate() {
        for &v in &inst.members {
            assert!(v.index() < n, "instance member {v} outside the graph");
            assert_eq!(
                st.inst_of[v.index()],
                u32::MAX,
                "instances must be vertex-disjoint; {v} claimed twice"
            );
            st.inst_of[v.index()] = i as u32;
        }
    }
    st.inst_metrics = vec![Metrics::new(); k];
    st.inst_delayed = vec![0; k];
    let mut metrics = Metrics::new();
    let tracing = cfg.trace.is_on();
    if tracing {
        cfg.trace.emit(TraceEvent::RunStart {
            nodes: n,
            budget_words: cfg.budget_words,
        });
        for (i, inst) in instances.iter().enumerate() {
            for &v in &inst.members {
                cfg.trace.emit(TraceEvent::Assign {
                    instance: i,
                    node: v,
                });
            }
        }
        for (i, &r) in crashed_at.iter().enumerate() {
            if r == 0 {
                cfg.trace.emit(TraceEvent::Crash {
                    round: 0,
                    node: VertexId::from_index(i),
                });
            }
        }
    }

    // Init phase (round 0): only instance members run programs; nodes
    // crashed at round 0 never act.
    for inst in instances.iter_mut() {
        for (slot, &v) in inst.members.iter().enumerate() {
            if crashed_at[v.index()] == 0 {
                continue;
            }
            let ctx = NodeCtx {
                id: v,
                neighbors: g.neighbors(v),
                round: 0,
            };
            let out = init_sends(&mut inst.programs[slot], &ctx);
            record_faulty(g, cfg, &crashed_at, &mut st, &mut metrics, v, 0, out)?;
        }
    }
    let mut inst_tick = vec![false; k];
    let mut tick_pending = false;
    if fault_mode {
        for (i, inst) in instances.iter().enumerate() {
            inst_tick[i] = inst
                .members
                .iter()
                .zip(&inst.programs)
                .any(|(&v, p)| crashed_at[v.index()] > 1 && p.wants_tick());
            tick_pending |= inst_tick[i];
        }
    }

    let mut round = 0usize;
    loop {
        if st.in_flight.is_empty() && st.delayed.is_empty() && !tick_pending {
            break; // quiescence of the whole batch
        }
        round += 1;
        if let Some(limit) = cfg.watchdog {
            if round > limit {
                if tracing {
                    cfg.trace.emit(TraceEvent::Watchdog { limit });
                }
                return Err(SimError::WatchdogTimeout { limit });
            }
        }
        if round > cfg.max_rounds {
            return Err(SimError::MaxRoundsExceeded {
                limit: cfg.max_rounds,
            });
        }
        if let Some(overflow) = st.pending_overflow.take() {
            return Err(overflow);
        }
        // Per-instance round attribution, *before* delayed injection — the
        // same predicate the individual run's quiescence check evaluates.
        let mut inst_live = vec![false; k];
        for i in 0..k {
            inst_live[i] = st.inst_delayed[i] > 0 || inst_tick[i];
        }
        for (_, to, _) in &st.in_flight {
            inst_live[st.inst_of[to.index()] as usize] = true;
        }
        for (i, &live) in inst_live.iter().enumerate() {
            if live {
                st.inst_metrics[i].rounds = round;
            }
        }
        if tracing {
            cfg.trace.emit(TraceEvent::RoundStart { round });
            for (i, &r) in crashed_at.iter().enumerate() {
                if r == round {
                    cfg.trace.emit(TraceEvent::Crash {
                        round,
                        node: VertexId::from_index(i),
                    });
                }
            }
        }
        st.att.clear();

        // This round's arrivals: on-time traffic first, then delayed
        // messages falling due (stable order — see `FaultyState::delayed`).
        let mut arrivals: Vec<(VertexId, VertexId, P::Msg)> = std::mem::take(&mut st.in_flight);
        let pending = std::mem::take(&mut st.delayed);
        let mut still_delayed = Vec::new();
        for (due, from, to, msg) in pending {
            if due == round {
                st.inst_delayed[st.inst_of[to.index()] as usize] -= 1;
                arrivals.push((from, to, msg));
            } else {
                still_delayed.push((due, from, to, msg));
            }
        }
        st.delayed = still_delayed;

        // Congestion metrics count *delivered* traffic; the recipient's
        // instance owns each delivery (isolation guarantees sender and
        // receiver share an instance).
        let mut edge_words: HashMap<(VertexId, VertexId), usize> = HashMap::new();
        for (from, to, msg) in &arrivals {
            *edge_words.entry((*from, *to)).or_insert(0) += msg.words();
            let im = &mut st.inst_metrics[st.inst_of[to.index()] as usize];
            im.messages += 1;
            im.words += msg.words();
        }
        for (&(_, to), &w) in &edge_words {
            let im = &mut st.inst_metrics[st.inst_of[to.index()] as usize];
            im.max_words_edge_round = im.max_words_edge_round.max(w);
        }
        let round_max = edge_words.values().copied().max().unwrap_or(0);
        metrics.max_words_edge_round = metrics.max_words_edge_round.max(round_max);
        let round_msgs = arrivals.len();
        let round_words = arrivals.iter().map(|(_, _, m)| m.words()).sum::<usize>();
        metrics.messages += round_msgs;
        metrics.words += round_words;

        // Deliver: group by recipient; within one inbox the stable
        // sender-sort leaves each sender's messages in arrival order.
        let mut inboxes: HashMap<VertexId, Vec<(VertexId, P::Msg)>> = HashMap::new();
        for (from, to, msg) in arrivals.drain(..) {
            inboxes.entry(to).or_default().push((from, msg));
        }
        let mut recipients: Vec<VertexId> = inboxes.keys().copied().collect();
        recipients.sort();
        for &v in &recipients {
            let mut inbox = inboxes.remove(&v).expect("recipient key exists");
            inbox.sort_by_key(|(from, _)| *from);
            if tracing {
                for (from, msg) in &inbox {
                    cfg.trace.emit(TraceEvent::Deliver {
                        round,
                        from: *from,
                        to: v,
                        words: msg.words(),
                    });
                }
            }
            let ctx = NodeCtx {
                id: v,
                neighbors: g.neighbors(v),
                round,
            };
            let inst = st.inst_of[v.index()] as usize;
            let slot = instances[inst]
                .members
                .binary_search(&v)
                .expect("recipient is an instance member");
            let out = round_sends(&mut instances[inst].programs[slot], &ctx, &inbox);
            record_faulty(g, cfg, &crashed_at, &mut st, &mut metrics, v, round, out)?;
        }
        // Timer ticks: live non-recipient members that asked for
        // empty-inbox wakeups, ascending vertex id within each instance
        // (instances are independent, so inter-instance order cannot
        // influence outcomes).
        if fault_mode {
            for inst in instances.iter_mut() {
                for (slot, &v) in inst.members.iter().enumerate() {
                    if recipients.binary_search(&v).is_ok()
                        || crashed_at[v.index()] <= round
                        || !inst.programs[slot].wants_tick()
                    {
                        continue;
                    }
                    let ctx = NodeCtx {
                        id: v,
                        neighbors: g.neighbors(v),
                        round,
                    };
                    let out = round_sends(&mut inst.programs[slot], &ctx, &[]);
                    record_faulty(g, cfg, &crashed_at, &mut st, &mut metrics, v, round, out)?;
                }
            }
            tick_pending = false;
            for (i, inst) in instances.iter().enumerate() {
                inst_tick[i] = inst
                    .members
                    .iter()
                    .zip(&inst.programs)
                    .any(|(&v, p)| crashed_at[v.index()] > round + 1 && p.wants_tick());
                tick_pending |= inst_tick[i];
            }
        }
        if tracing {
            cfg.trace.emit(TraceEvent::RoundEnd {
                round,
                messages: round_msgs,
                words: round_words,
                max_words_edge: round_max,
            });
        }
    }
    metrics.rounds = round;
    if fault_mode {
        metrics.crashed_nodes = crashed_at.iter().filter(|&&r| r <= round).count();
        // Mirror the individual run: it simulates the whole graph, so its
        // crash count covers every vertex crashed by *its* final round —
        // which for instance `i` is `inst_metrics[i].rounds`.
        for im in &mut st.inst_metrics {
            let horizon = im.rounds;
            im.crashed_nodes = crashed_at.iter().filter(|&&r| r <= horizon).count();
        }
    }
    if tracing {
        for (i, &m) in st.inst_metrics.iter().enumerate() {
            cfg.trace.emit(TraceEvent::InstanceEnd {
                instance: i,
                metrics: m,
            });
        }
        cfg.trace.emit(TraceEvent::RunEnd { metrics });
    }
    let instances = instances
        .into_iter()
        .enumerate()
        .map(|(i, inst)| InstanceOutcome {
            members: inst.members,
            programs: inst.programs,
            metrics: st.inst_metrics[i],
        })
        .collect();
    Ok(MultiOutcome { instances, metrics })
}

fn validate_dest(g: &Graph, from: VertexId, to: VertexId) -> Result<(), SimError> {
    if g.has_edge(from, to) {
        Ok(())
    } else {
        Err(SimError::InvalidDestination { from, to })
    }
}
