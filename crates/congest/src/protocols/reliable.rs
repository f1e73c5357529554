//! Opt-in reliable delivery: an acknowledgement/retransmit wrapper any
//! [`NodeProgram`] can be lifted into.
//!
//! [`Reliable<P>`] wraps an inner program and turns each of its logical
//! messages into a sequenced [`RelMsg::Data`] frame. Receivers acknowledge
//! *cumulatively* — at most one [`RelMsg::Ack`] per sender per round,
//! confirming the whole in-order prefix received so far — deliver payloads
//! to the inner program **in per-sender order exactly once** (duplicates
//! are re-acked and discarded, out-of-order arrivals are buffered), and
//! senders retransmit unacknowledged frames after a timeout — driven by
//! the fault kernel's timer ticks ([`NodeProgram::wants_tick`]). After
//! `max_retries` retransmissions the sender *gives up* on that frame,
//! which bounds every run: against a crashed or partitioned neighbor the
//! wrapper stops retrying instead of spinning forever, and the simulation
//! reaches quiescence so the driver can degrade gracefully.
//!
//! Determinism: all wrapper state that can influence *which messages are
//! emitted in what order* lives in [`BTreeMap`]s and `Vec`s — iteration
//! order is defined, so wrapped runs replay exactly on both kernels (std
//! `HashMap` iteration order would not).
//!
//! Bandwidth: a data frame costs its payload plus one sequence word; acks
//! cost one word; retransmissions re-charge the link. An inner protocol
//! honest to a base budget `B` therefore puts at most `2·B + 1` wrapped
//! words on a link per round when no retransmission fires (≤ `B` payload
//! words + ≤ `B` sequence words + one cumulative ack); wrapped runs get
//! the [`wrapped_budget`] `3·B + 2`, leaving `B + 1` words of slack for
//! retransmissions colliding with fresh traffic. Cumulative acks
//! are what make this a *fixed* bound — per-frame acking would scale with
//! the number of delayed/duplicated frames that happen to land in one
//! round (see the ack-pile-up regression test).

use std::collections::BTreeMap;

use planar_graph::{Graph, VertexId};

use crate::batch::Batch;
use crate::message::Words;
use crate::metrics::Metrics;
use crate::network::{NodeCtx, NodeProgram, SimConfig, SimError, Simulator};

/// Retransmission parameters for [`Reliable`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReliableConfig {
    /// Rounds to wait for an ack before retransmitting a data frame.
    pub retransmit_after: usize,
    /// Retransmissions per frame before the sender gives up on it.
    pub max_retries: usize,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig {
            retransmit_after: 4,
            max_retries: 8,
        }
    }
}

/// The wire format of the wrapper: sequenced data or an acknowledgement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RelMsg<M> {
    /// A payload of the inner protocol, sequenced per directed link.
    Data {
        /// Per-link sequence number (0-based, per sender→receiver pair).
        seq: u32,
        /// The inner message.
        payload: M,
    },
    /// Cumulative acknowledgement: confirms in-order receipt of every data
    /// frame with sequence number *below* `seq` on this link.
    Ack {
        /// The receiver's next expected sequence number (all frames `< seq`
        /// are delivered).
        seq: u32,
    },
}

impl<M: Words> Words for RelMsg<M> {
    fn words(&self) -> usize {
        match self {
            RelMsg::Data { payload, .. } => 1 + payload.words(),
            RelMsg::Ack { .. } => 1,
        }
    }
}

/// An unacknowledged data frame awaiting its ack.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Pending<M> {
    to: VertexId,
    seq: u32,
    sent_round: usize,
    retries: usize,
    payload: M,
}

/// Lifts a [`NodeProgram`] into reliable (acked, deduplicated, in-order)
/// delivery. See the module docs.
pub struct Reliable<P: NodeProgram> {
    inner: P,
    cfg: ReliableConfig,
    /// Next sequence number per outgoing link.
    next_seq: BTreeMap<VertexId, u32>,
    /// Next expected sequence number per incoming link.
    expected: BTreeMap<VertexId, u32>,
    /// Out-of-order arrivals buffered until their predecessors land.
    ahead: BTreeMap<(VertexId, u32), P::Msg>,
    /// Frames sent but not yet acknowledged, in send order.
    unacked: Vec<Pending<P::Msg>>,
    /// Data retransmissions this node performed.
    retransmissions: usize,
    /// Whether any frame exhausted its retries.
    gave_up: bool,
}

impl<P: NodeProgram> Reliable<P> {
    /// Wraps `inner` with the given retransmission parameters.
    pub fn new(inner: P, cfg: ReliableConfig) -> Self {
        Reliable {
            inner,
            cfg,
            next_seq: BTreeMap::new(),
            expected: BTreeMap::new(),
            ahead: BTreeMap::new(),
            unacked: Vec::new(),
            retransmissions: 0,
            gave_up: false,
        }
    }

    /// The wrapped program.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Unwraps into the inner program, discarding wrapper state.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// Data retransmissions this node performed.
    pub fn retransmissions(&self) -> usize {
        self.retransmissions
    }

    /// True iff some frame exhausted `max_retries` and was abandoned —
    /// the inner protocol may have lost a message for good.
    ///
    /// Conservative: acks are cumulative, so a frame the receiver buffered
    /// *ahead* of a missing predecessor is not individually confirmed; if
    /// the hole never fills, the sender abandons the (actually received)
    /// frame and reports `gave_up` anyway. The flag is advisory — delivery
    /// state of record is the receiver's.
    pub fn gave_up(&self) -> bool {
        self.gave_up
    }

    fn send_data(
        &mut self,
        to: VertexId,
        payload: P::Msg,
        round: usize,
    ) -> (VertexId, RelMsg<P::Msg>) {
        let seq_slot = self.next_seq.entry(to).or_insert(0);
        let seq = *seq_slot;
        *seq_slot += 1;
        self.unacked.push(Pending {
            to,
            seq,
            sent_round: round,
            retries: 0,
            payload: payload.clone(),
        });
        (to, RelMsg::Data { seq, payload })
    }
}

impl<P: NodeProgram> NodeProgram for Reliable<P> {
    type Msg = RelMsg<P::Msg>;

    fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, Self::Msg)>) {
        let mut inner_out = Vec::new();
        self.inner.init(ctx, &mut inner_out);
        for (to, m) in inner_out {
            out.push(self.send_data(to, m, ctx.round));
        }
    }

    fn on_round(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: &[(VertexId, Self::Msg)],
        out: &mut Vec<(VertexId, Self::Msg)>,
    ) {
        // The inbox the inner program would have seen on a perfect network:
        // deduplicated, per-sender in-order (the kernel's sender grouping is
        // preserved because sequence release is contiguous per sender).
        let mut inner_inbox: Vec<(VertexId, P::Msg)> = Vec::new();
        // Senders owed an acknowledgement this round. Acks are cumulative
        // (`Ack { seq }` confirms every frame below `seq`), so one ack per
        // sender per round suffices no matter how many data frames piled up
        // — duplicates, delay bunching and retransmissions included. A
        // per-frame ack here can exceed the advertised `3·B + 2` wrapped
        // budget on the reverse link when several delayed frames land
        // together.
        let mut ack_now: BTreeMap<VertexId, u32> = BTreeMap::new();
        for (from, msg) in inbox {
            match msg {
                RelMsg::Ack { seq } => {
                    self.unacked.retain(|p| !(p.to == *from && p.seq < *seq));
                }
                RelMsg::Data { seq, payload } => {
                    let expected = self.expected.entry(*from).or_insert(0);
                    if *seq == *expected {
                        inner_inbox.push((*from, payload.clone()));
                        *expected += 1;
                        while let Some(buffered) = self.ahead.remove(&(*from, *expected)) {
                            inner_inbox.push((*from, buffered));
                            *expected += 1;
                        }
                    } else if *seq > *expected {
                        self.ahead
                            .entry((*from, *seq))
                            .or_insert_with(|| payload.clone());
                    }
                    // seq < expected: stale duplicate, already delivered —
                    // still re-acked below (our previous ack may be lost).
                    ack_now.insert(*from, *expected);
                }
            }
        }
        for (&from, &upto) in &ack_now {
            out.push((from, RelMsg::Ack { seq: upto }));
        }
        if !inner_inbox.is_empty() {
            let mut inner_out = Vec::new();
            self.inner.on_round(ctx, &inner_inbox, &mut inner_out);
            for (to, m) in inner_out {
                out.push(self.send_data(to, m, ctx.round));
            }
        }
        // Retransmission timers (reached via real deliveries or the fault
        // kernel's timer ticks).
        let mut i = 0;
        while i < self.unacked.len() {
            if ctx.round >= self.unacked[i].sent_round + self.cfg.retransmit_after {
                if self.unacked[i].retries >= self.cfg.max_retries {
                    self.gave_up = true;
                    self.unacked.remove(i);
                    continue;
                }
                let p = &mut self.unacked[i];
                p.retries += 1;
                p.sent_round = ctx.round;
                self.retransmissions += 1;
                out.push((
                    p.to,
                    RelMsg::Data {
                        seq: p.seq,
                        payload: p.payload.clone(),
                    },
                ));
            }
            i += 1;
        }
    }

    fn wants_tick(&self) -> bool {
        !self.unacked.is_empty()
    }
}

impl<P: NodeProgram + Clone> Clone for Reliable<P> {
    fn clone(&self) -> Self {
        Reliable {
            inner: self.inner.clone(),
            cfg: self.cfg.clone(),
            next_seq: self.next_seq.clone(),
            expected: self.expected.clone(),
            ahead: self.ahead.clone(),
            unacked: self.unacked.clone(),
            retransmissions: self.retransmissions,
            gave_up: self.gave_up,
        }
    }
}

impl<P: NodeProgram + std::fmt::Debug> std::fmt::Debug for Reliable<P>
where
    P::Msg: std::fmt::Debug,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reliable")
            .field("inner", &self.inner)
            .field("next_seq", &self.next_seq)
            .field("expected", &self.expected)
            .field("ahead", &self.ahead)
            .field("unacked", &self.unacked)
            .field("retransmissions", &self.retransmissions)
            .field("gave_up", &self.gave_up)
            .finish()
    }
}

impl<P: NodeProgram + PartialEq> PartialEq for Reliable<P>
where
    P::Msg: PartialEq,
{
    fn eq(&self, other: &Self) -> bool {
        self.inner == other.inner
            && self.cfg == other.cfg
            && self.next_seq == other.next_seq
            && self.expected == other.expected
            && self.ahead == other.ahead
            && self.unacked == other.unacked
            && self.retransmissions == other.retransmissions
            && self.gave_up == other.gave_up
    }
}

/// The per-edge word budget a wrapped run needs to carry the traffic a
/// budget of `base` words carries unwrapped: `2·base + 1` covers sequence
/// words plus the single cumulative ack, and the remaining `base + 1`
/// words absorb retransmissions that collide with fresh traffic.
#[must_use]
pub const fn wrapped_budget(base: usize) -> usize {
    3 * base + 2
}

/// Runs `batch` (plain or batched, see [`Batch`]) wrapped in [`Reliable`]
/// on the fast kernel and returns the *inner* programs, with the
/// wrapper's retransmissions folded into `Metrics::retransmissions`.
///
/// # Errors
///
/// Propagates [`SimError`] exactly as [`crate::run`] does.
///
/// # Panics
///
/// As [`crate::run`] or [`crate::run_many`].
pub fn run_reliable<B: Batch>(
    g: &Graph,
    batch: B,
    cfg: &SimConfig,
    rel: &ReliableConfig,
) -> Result<B::Outcome, SimError> {
    let out = batch
        .wrap(rel)
        .run_fast(&mut Simulator::new(), g, &g.arc_index(), cfg)?;
    Ok(B::unwrap(out, cfg))
}

/// The wrap: lifts one program into [`Reliable`] with the parameters
/// `rel`.
pub(crate) fn lift<P: NodeProgram>(rel: &ReliableConfig) -> impl FnMut(P) -> Reliable<P> + '_ {
    move |p| Reliable::new(p, rel.clone())
}

/// The retransmission fold: the inner programs of `wrapped`, with their
/// retransmissions added to `metrics`; also returns that count.
pub(crate) fn unwrap_all<P: NodeProgram>(
    wrapped: Vec<Reliable<P>>,
    metrics: &mut Metrics,
) -> (Vec<P>, usize) {
    let mut count = 0usize;
    let inner = wrapped
        .into_iter()
        .map(|w| {
            count = count.saturating_add(w.retransmissions());
            w.into_inner()
        })
        .collect();
    metrics.retransmissions = metrics.retransmissions.saturating_add(count);
    (inner, count)
}

/// Announces a run's folded retransmissions on the trace. The kernel
/// cannot see them (they are wrapper state), so the trace carries them as
/// an explicit post-run event the auditor folds into its recomputed
/// totals; a batched run's `InstanceEnd` events, emitted before the fold,
/// keep the kernel-observable values.
pub(crate) fn announce(cfg: &SimConfig, count: usize) {
    if cfg.trace.is_on() {
        cfg.trace
            .emit(crate::trace::TraceEvent::Retransmissions { count });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::network::run;

    /// Forward a token along a path from node 0 to the last node.
    #[derive(Clone, Debug, PartialEq)]
    struct Relay {
        got: bool,
    }

    impl NodeProgram for Relay {
        type Msg = u32;

        fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, u32)>) {
            if ctx.id == VertexId(0) {
                self.got = true;
                out.push((VertexId(1), 7));
            }
        }

        fn on_round(
            &mut self,
            ctx: &NodeCtx<'_>,
            inbox: &[(VertexId, u32)],
            out: &mut Vec<(VertexId, u32)>,
        ) {
            for &(_, v) in inbox {
                if !self.got {
                    self.got = true;
                    let next = VertexId(ctx.id.0 + 1);
                    if ctx.neighbors.contains(&next) {
                        out.push((next, v));
                    }
                }
            }
        }
    }

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1))).unwrap()
    }

    #[test]
    fn fault_free_wrapped_run_matches_inner_semantics() {
        let g = path(5);
        let programs = vec![Relay { got: false }; 5];
        let out = run_reliable(
            &g,
            programs,
            &SimConfig::default(),
            &ReliableConfig::default(),
        )
        .unwrap();
        assert!(out.programs.iter().all(|p| p.got));
        assert_eq!(out.metrics.retransmissions, 0);
    }

    #[test]
    fn survives_heavy_drop_rates() {
        let g = path(4);
        let cfg = SimConfig {
            budget_words: DEFAULT_WRAPPED_BUDGET,
            faults: FaultPlan::uniform(99, 0.4, 0.1, 0.3, 2),
            ..SimConfig::default()
        };
        let programs = vec![Relay { got: false }; 4];
        let out = run_reliable(&g, programs, &cfg, &ReliableConfig::default()).unwrap();
        assert!(
            out.programs.iter().all(|p| p.got),
            "token lost under faults"
        );
        assert!(out.metrics.dropped > 0 || out.metrics.delayed > 0);
    }

    #[test]
    fn gives_up_against_a_dead_link_instead_of_spinning() {
        let g = path(2);
        let mut plan = FaultPlan::uniform(1, 0.0, 0.0, 0.0, 0);
        plan.link_overrides.push((
            (VertexId(0), VertexId(1)),
            crate::faults::LinkFaults {
                drop: 1.0,
                duplicate: 0.0,
                delay: 0.0,
                max_delay: 0,
            },
        ));
        let cfg = SimConfig {
            budget_words: DEFAULT_WRAPPED_BUDGET,
            faults: plan,
            ..SimConfig::default()
        };
        let wrapped = vec![
            Reliable::new(Relay { got: false }, ReliableConfig::default()),
            Reliable::new(Relay { got: false }, ReliableConfig::default()),
        ];
        let out = run(&g, wrapped, &cfg).expect("gives up, quiesces, no hang");
        assert!(out.programs[0].gave_up());
        assert!(out.programs[0].retransmissions() >= ReliableConfig::default().max_retries);
        assert!(!out.programs[1].inner().got);
    }

    const DEFAULT_WRAPPED_BUDGET: usize = wrapped_budget(crate::network::DEFAULT_BUDGET_WORDS);

    /// Star with center 0: leaf 1 is a pure sink, leaf 2 is a clock that
    /// echoes with the center so node 0 can emit one 1-word ping to node 1
    /// every other round, `pings` times.
    #[derive(Clone, Debug, PartialEq)]
    struct DripPinger {
        pings_left: usize,
    }

    impl NodeProgram for DripPinger {
        type Msg = u32;

        fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, u32)>) {
            if ctx.id == VertexId(2) {
                out.push((VertexId(0), 0));
            }
        }

        fn on_round(
            &mut self,
            ctx: &NodeCtx<'_>,
            inbox: &[(VertexId, u32)],
            out: &mut Vec<(VertexId, u32)>,
        ) {
            let heard = |v| inbox.iter().any(|&(f, _)| f == v);
            match ctx.id {
                VertexId(0) if heard(VertexId(2)) && self.pings_left > 0 => {
                    self.pings_left -= 1;
                    out.push((VertexId(1), 0));
                    if self.pings_left > 0 {
                        out.push((VertexId(2), 0));
                    }
                }
                VertexId(2) if heard(VertexId(0)) => out.push((VertexId(0), 0)),
                _ => {}
            }
        }
    }

    fn drip_cfg(seed: u64) -> SimConfig {
        let mut plan = FaultPlan::uniform(seed, 0.0, 0.0, 0.0, 0);
        // The ping link jitters hard: every frame duplicated and delayed by
        // 1..=5 rounds, so frames sent in different rounds can pile up into
        // one delivery round at the sink.
        plan.link_overrides.push((
            (VertexId(0), VertexId(1)),
            crate::faults::LinkFaults {
                drop: 0.0,
                duplicate: 1.0,
                delay: 1.0,
                max_delay: 5,
            },
        ));
        SimConfig {
            // Inner protocol uses 1-word messages: the advertised wrapped
            // budget for base budget 1 is 3·1 + 2 = 5.
            budget_words: 5,
            faults: plan,
            ..SimConfig::default()
        }
    }

    /// Regression (ack pile-up): with per-frame acks, three delayed data
    /// frames landing at the sink in one round — each duplicated, so six
    /// arrivals — provoked six 1-word acks on the reverse link, blowing the
    /// advertised `3·B + 2 = 5` wrapped budget for a 1-word inner protocol
    /// (seed 33 reproduces the pile-up deterministically; pre-fix this run
    /// failed with `BudgetExceeded { from: 1, to: 0, words: 6, budget: 5 }`).
    /// Cumulative acks cap the reverse link at one word per sender per
    /// round, so the run must now fit the advertised budget.
    #[test]
    fn ack_traffic_fits_the_advertised_wrapped_budget() {
        let g = Graph::from_edges(3, [(0, 1), (0, 2)]).unwrap();
        let rel = ReliableConfig {
            retransmit_after: 50, // never fires in this short run
            max_retries: 8,
        };
        let programs = vec![
            DripPinger { pings_left: 12 },
            DripPinger { pings_left: 0 },
            DripPinger { pings_left: 0 },
        ];
        let out = run_reliable(&g, programs, &drip_cfg(33), &rel)
            .expect("advertised wrapped budget must hold under delay bunching");
        // All twelve pings made it through the jittery link exactly once.
        assert!(out.metrics.duplicated > 0);
        assert!(out.metrics.delayed > 0);
        assert_eq!(out.metrics.retransmissions, 0);
    }

    /// A maximum-width inner message (exactly the base budget `B` when
    /// wrapped: `1 + payload.words() = 1 + 8 = 9` data words) survives the
    /// wrapper under drop faults that force retransmission, inside the
    /// advertised `3·B + 2` budget.
    #[test]
    fn max_width_message_fits_the_wrapped_budget() {
        #[derive(Clone, Debug, PartialEq)]
        struct WidePing {
            got: Option<Vec<u32>>,
        }
        impl NodeProgram for WidePing {
            type Msg = Vec<u32>;
            fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, Vec<u32>)>) {
                if ctx.id == VertexId(0) {
                    // words() = 1 + len = 8 = DEFAULT_BUDGET_WORDS.
                    out.push((VertexId(1), vec![7; 7]));
                }
            }
            fn on_round(
                &mut self,
                _: &NodeCtx<'_>,
                inbox: &[(VertexId, Vec<u32>)],
                _: &mut Vec<(VertexId, Vec<u32>)>,
            ) {
                for (_, payload) in inbox {
                    self.got = Some(payload.clone());
                }
            }
        }
        let payload = vec![7u32; 7];
        assert_eq!(payload.words(), crate::network::DEFAULT_BUDGET_WORDS);
        assert_eq!(
            RelMsg::Data {
                seq: 0,
                payload: payload.clone()
            }
            .words(),
            crate::network::DEFAULT_BUDGET_WORDS + 1,
            "a max-width data frame is payload plus one sequence word"
        );
        let g = path(2);
        let cfg = SimConfig {
            budget_words: DEFAULT_WRAPPED_BUDGET,
            // Drop roughly half of everything: the frame needs retries.
            faults: FaultPlan::uniform(5, 0.5, 0.0, 0.0, 0),
            ..SimConfig::default()
        };
        let rel = ReliableConfig {
            retransmit_after: 2,
            max_retries: 16,
        };
        let out = run_reliable(
            &g,
            vec![WidePing { got: None }, WidePing { got: None }],
            &cfg,
            &rel,
        )
        .expect("max-width frame plus acks fit 3B+2");
        assert_eq!(out.programs[1].got.as_deref(), Some(&payload[..]));
        assert!(out.metrics.dropped > 0, "seed 5 must actually drop frames");
    }
}
