//! Round-level tracing and independent metrics auditing.
//!
//! Every claim of the paper is stated in rounds and `O(log n)`-bit
//! messages, so the kernel's [`Metrics`] are load-bearing — but an
//! aggregate counter cannot show *which round, which link, which phase*
//! went wrong when a conformance or chaos run diverges. This module applies
//! the proof-labeling philosophy of the certification layer to the
//! simulator itself: a run can emit a replayable stream of typed
//! [`TraceEvent`]s, and [`TraceAuditor`] recomputes the run's metrics from
//! that stream alone and diffs them against what the kernel reported.
//!
//! # Zero cost when off
//!
//! Tracing hangs off [`SimConfig::trace`](crate::SimConfig) as a
//! [`TraceHandle`], which is `off` by default. Both kernels guard every
//! emission site with a cached `is_on()` check, so a default config runs
//! the exact pre-tracing instruction sequence: no event construction, no
//! allocation, no dynamic dispatch. The determinism suite pins that
//! byte-identical behavior.
//!
//! # Event model
//!
//! A trace is a flat stream. Kernel runs appear as *segments* bracketed by
//! [`TraceEvent::RunStart`] and [`TraceEvent::RunEnd`]; the driver
//! interleaves [`TraceEvent::Phase`] markers between segments (and around
//! the merge phase's symmetry-breaking sub-runs), so every simulated round
//! can be attributed to an algorithm phase. Within a segment the kernel
//! emits, per round:
//!
//! ```text
//! RoundStart r
//!   Crash*                 (nodes whose crash-stop activates in r)
//!   Deliver* / Send* ...   (per recipient: its deliveries, then the sends
//!                           its program answered with; fate events
//!                           Drop/Duplicate/Delay follow their Send)
//! RoundEnd r               (the kernel's own per-round tallies)
//! ```
//!
//! `init` sends carry round 0 and precede the first `RoundStart`. The two
//! kernels process recipients in different (equally valid) orders, so event
//! streams are only comparable per round as multisets — the conformance
//! test in `tests/trace_audit.rs` normalizes exactly that way.
//!
//! # Auditor invariants
//!
//! For every *completed* segment (one with a `RunEnd`), the auditor checks:
//!
//! * `rounds` equals the last `RoundEnd`'s round number;
//! * `messages` / `words` equal the sums over `Deliver` events, per round
//!   (against each `RoundEnd`) and in total;
//! * `max_words_edge_round` equals the per-round, per-directed-link maximum
//!   of delivered words;
//! * `dropped` / `duplicated` / `delayed` equal the fate-event counts;
//! * `crashed_nodes` equals the number of distinct `Crash` nodes;
//! * attempted (`Send`) words never exceed the segment's budget on any
//!   link in any round — the CONGEST discipline, re-derived from the
//!   trace rather than trusted from the kernel.
//!
//! Segments that abort (watchdog, budget overflow, crashed-destination
//! sends) have no `RunEnd` and are skipped by the diff but still counted in
//! the per-round profile, so a degraded run's partial rounds stay visible.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex};

use planar_graph::VertexId;

use crate::metrics::{Metrics, Phase};

/// One observable simulator event. See the module docs for the stream
/// grammar.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A kernel run began (after state preparation, before `init`).
    RunStart {
        /// Number of nodes simulated.
        nodes: usize,
        /// The per-directed-edge word budget this run enforces.
        budget_words: usize,
    },
    /// A delivery round began. Emitted only for rounds that actually
    /// deliver (aborts from the watchdog / round cap / a pending budget
    /// overflow happen first).
    RoundStart {
        /// The round number (1-based).
        round: usize,
    },
    /// A node's crash-stop activated this round (round 0 = before `init`).
    Crash {
        /// The round in which the node stops acting.
        round: usize,
        /// The crashed node.
        node: VertexId,
    },
    /// A program attempted to send a message (after destination validation,
    /// before fault resolution). Attempted words are what the budget
    /// constrains — dropped traffic still consumed the sender's bandwidth.
    Send {
        /// The round the send was issued in (0 = `init`).
        round: usize,
        /// Sender.
        from: VertexId,
        /// Addressee.
        to: VertexId,
        /// Message size in words.
        words: usize,
    },
    /// A message copy was handed to its recipient's inbox.
    Deliver {
        /// The delivery round.
        round: usize,
        /// Original sender.
        from: VertexId,
        /// Recipient.
        to: VertexId,
        /// Message size in words.
        words: usize,
    },
    /// Fault injection discarded a message copy (channel drop, link-down
    /// window, send to a crashed node, or arrival at/after the
    /// destination's crash round). One event per discarded copy, matching
    /// `Metrics::dropped`.
    Drop {
        /// The round the doomed copy was sent in.
        round: usize,
        /// Sender.
        from: VertexId,
        /// Addressee.
        to: VertexId,
        /// Message size in words.
        words: usize,
    },
    /// Fault injection created an extra copy of a message. One event per
    /// extra copy, matching `Metrics::duplicated`.
    Duplicate {
        /// The round the original was sent in.
        round: usize,
        /// Sender.
        from: VertexId,
        /// Addressee.
        to: VertexId,
        /// Message size in words.
        words: usize,
    },
    /// Fault injection held a message back past its nominal round. One
    /// event per delayed message (not per copy), matching
    /// `Metrics::delayed`.
    Delay {
        /// The round the message was sent in.
        round: usize,
        /// Sender.
        from: VertexId,
        /// Addressee.
        to: VertexId,
        /// Message size in words.
        words: usize,
        /// The round the copies will actually arrive in.
        deliver_round: usize,
    },
    /// A delivery round completed; the kernel's own per-round tallies, for
    /// the auditor to cross-check against the event stream.
    RoundEnd {
        /// The round number.
        round: usize,
        /// Messages delivered this round (kernel count).
        messages: usize,
        /// Words delivered this round (kernel count).
        words: usize,
        /// Max words over any directed edge this round (kernel count).
        max_words_edge: usize,
    },
    /// The round-budget watchdog fired; the segment aborts without a
    /// `RunEnd`.
    Watchdog {
        /// The configured watchdog limit.
        limit: usize,
    },
    /// The driver entered an algorithm phase; applies to all following
    /// segments until the next `Phase`.
    Phase {
        /// The pipeline phase (see [`Phase`]).
        phase: Phase,
    },
    /// A node belongs to a batched instance of a `run_many` segment.
    /// Emitted immediately after `RunStart`, one event per active node;
    /// plain `run` segments emit none. Nodes never assigned are inert
    /// bystanders — any traffic touching them is a mismatch.
    Assign {
        /// 0-based instance index within this segment.
        instance: usize,
        /// The assigned node.
        node: VertexId,
    },
    /// Per-instance metrics of a batched segment, emitted once per instance
    /// between the last `RoundEnd` and the `RunEnd`. `rounds` is the last
    /// round in which the instance was live — what the instance would have
    /// consumed running alone.
    InstanceEnd {
        /// 0-based instance index within this segment.
        instance: usize,
        /// The kernel-reported per-instance metrics.
        metrics: Metrics,
    },
    /// The reliable-delivery wrapper folded its per-node retransmission
    /// totals into the metrics of the segment that just ended.
    Retransmissions {
        /// Total data retransmissions across all nodes.
        count: usize,
    },
    /// A kernel run completed; carries the metrics the kernel reports, for
    /// the auditor to diff against its own recomputation.
    RunEnd {
        /// The kernel-reported metrics of the completed segment.
        metrics: Metrics,
    },
}

/// A consumer of [`TraceEvent`]s. Implementations must be `Send + Sync`
/// (the bench harness runs simulations on worker threads) and use interior
/// mutability — the kernel only holds a shared reference.
pub trait TraceSink: Send + Sync {
    /// Receives one event, in emission order.
    fn record(&self, ev: &TraceEvent);
}

/// The (possibly absent) trace sink carried by
/// [`SimConfig`](crate::SimConfig). Defaults to off; cloning shares the
/// underlying sink.
#[derive(Clone, Default)]
pub struct TraceHandle {
    sink: Option<Arc<dyn TraceSink>>,
}

impl TraceHandle {
    /// The disabled handle (what `SimConfig::default()` carries).
    pub fn off() -> Self {
        TraceHandle::default()
    }

    /// A handle forwarding every event to `sink`.
    pub fn to(sink: Arc<dyn TraceSink>) -> Self {
        TraceHandle { sink: Some(sink) }
    }

    /// Whether a sink is attached. Kernels cache this to keep the
    /// disabled-path cost to one predictable branch per emission site.
    pub fn is_on(&self) -> bool {
        self.sink.is_some()
    }

    /// Forwards `ev` to the sink, if any.
    #[inline]
    pub fn emit(&self, ev: TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.record(&ev);
        }
    }
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.is_on() {
            "TraceHandle(on)"
        } else {
            "TraceHandle(off)"
        })
    }
}

/// An in-memory ring-buffer sink for tests: keeps the most recent
/// `capacity` events (all of them when unbounded).
pub struct MemorySink {
    capacity: usize,
    state: Mutex<MemoryState>,
}

struct MemoryState {
    events: VecDeque<TraceEvent>,
    evicted: usize,
}

impl MemorySink {
    /// A sink retaining every event. Prefer [`MemorySink::with_capacity`]
    /// (or the streaming [`AuditSink`]) for large runs.
    pub fn unbounded() -> Arc<Self> {
        Arc::new(MemorySink {
            capacity: usize::MAX,
            state: Mutex::new(MemoryState {
                events: VecDeque::new(),
                evicted: 0,
            }),
        })
    }

    /// A ring buffer keeping only the last `capacity` events.
    pub fn with_capacity(capacity: usize) -> Arc<Self> {
        Arc::new(MemorySink {
            capacity: capacity.max(1),
            state: Mutex::new(MemoryState {
                events: VecDeque::new(),
                evicted: 0,
            }),
        })
    }

    /// A snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.state.lock().unwrap().events.iter().copied().collect()
    }

    /// Events evicted by the ring buffer so far.
    pub fn evicted(&self) -> usize {
        self.state.lock().unwrap().evicted
    }

    /// Discards all retained events (the eviction count too).
    pub fn clear(&self) {
        let mut st = self.state.lock().unwrap();
        st.events.clear();
        st.evicted = 0;
    }
}

impl TraceSink for MemorySink {
    fn record(&self, ev: &TraceEvent) {
        let mut st = self.state.lock().unwrap();
        if st.events.len() == self.capacity {
            st.events.pop_front();
            st.evicted += 1;
        }
        st.events.push_back(*ev);
    }
}

/// Renders one event as a single JSON object (the JSONL line format of
/// [`JsonlSink`]). Hand-rolled, because the canonical `Json` writer lives
/// in `planar-dst`, above this crate: every value is numeric or a
/// known-safe literal.
pub fn event_json(ev: &TraceEvent) -> String {
    match ev {
        TraceEvent::RunStart {
            nodes,
            budget_words,
        } => {
            format!("{{\"ev\":\"run_start\",\"nodes\":{nodes},\"budget_words\":{budget_words}}}")
        }
        TraceEvent::RoundStart { round } => {
            format!("{{\"ev\":\"round_start\",\"round\":{round}}}")
        }
        TraceEvent::Crash { round, node } => {
            format!("{{\"ev\":\"crash\",\"round\":{round},\"node\":{}}}", node.0)
        }
        TraceEvent::Send {
            round,
            from,
            to,
            words,
        } => format!(
            "{{\"ev\":\"send\",\"round\":{round},\"from\":{},\"to\":{},\"words\":{words}}}",
            from.0, to.0
        ),
        TraceEvent::Deliver {
            round,
            from,
            to,
            words,
        } => format!(
            "{{\"ev\":\"deliver\",\"round\":{round},\"from\":{},\"to\":{},\"words\":{words}}}",
            from.0, to.0
        ),
        TraceEvent::Drop {
            round,
            from,
            to,
            words,
        } => format!(
            "{{\"ev\":\"drop\",\"round\":{round},\"from\":{},\"to\":{},\"words\":{words}}}",
            from.0, to.0
        ),
        TraceEvent::Duplicate {
            round,
            from,
            to,
            words,
        } => format!(
            "{{\"ev\":\"duplicate\",\"round\":{round},\"from\":{},\"to\":{},\"words\":{words}}}",
            from.0, to.0
        ),
        TraceEvent::Delay {
            round,
            from,
            to,
            words,
            deliver_round,
        } => format!(
            "{{\"ev\":\"delay\",\"round\":{round},\"from\":{},\"to\":{},\"words\":{words},\
             \"deliver_round\":{deliver_round}}}",
            from.0, to.0
        ),
        TraceEvent::RoundEnd {
            round,
            messages,
            words,
            max_words_edge,
        } => format!(
            "{{\"ev\":\"round_end\",\"round\":{round},\"messages\":{messages},\
             \"words\":{words},\"max_words_edge\":{max_words_edge}}}"
        ),
        TraceEvent::Watchdog { limit } => {
            format!("{{\"ev\":\"watchdog\",\"limit\":{limit}}}")
        }
        TraceEvent::Phase { phase } => {
            format!("{{\"ev\":\"phase\",\"name\":\"{}\"}}", phase.name())
        }
        TraceEvent::Assign { instance, node } => format!(
            "{{\"ev\":\"assign\",\"instance\":{instance},\"node\":{}}}",
            node.0
        ),
        TraceEvent::InstanceEnd { instance, metrics } => format!(
            "{{\"ev\":\"instance_end\",\"instance\":{instance},\"rounds\":{},\"messages\":{},\
             \"words\":{},\"max_words_edge_round\":{},\"dropped\":{},\"duplicated\":{},\
             \"delayed\":{},\"crashed_nodes\":{}}}",
            metrics.rounds,
            metrics.messages,
            metrics.words,
            metrics.max_words_edge_round,
            metrics.dropped,
            metrics.duplicated,
            metrics.delayed,
            metrics.crashed_nodes
        ),
        TraceEvent::Retransmissions { count } => {
            format!("{{\"ev\":\"retransmissions\",\"count\":{count}}}")
        }
        TraceEvent::RunEnd { metrics } => format!(
            "{{\"ev\":\"run_end\",\"rounds\":{},\"messages\":{},\"words\":{},\
             \"max_words_edge_round\":{},\"dropped\":{},\"duplicated\":{},\"delayed\":{},\
             \"retransmissions\":{},\"crashed_nodes\":{}}}",
            metrics.rounds,
            metrics.messages,
            metrics.words,
            metrics.max_words_edge_round,
            metrics.dropped,
            metrics.duplicated,
            metrics.delayed,
            metrics.retransmissions,
            metrics.crashed_nodes
        ),
    }
}

/// Streams events as JSON Lines to any writer (one object per line).
/// Write errors are silently ignored — tracing must never fail a run.
pub struct JsonlSink<W: Write + Send> {
    writer: Mutex<W>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps `writer` in a sink.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer: Mutex::new(writer),
        }
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(self) -> W {
        let mut w = self.writer.into_inner().unwrap();
        let _ = w.flush();
        w
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&self, ev: &TraceEvent) {
        let mut w = self.writer.lock().unwrap();
        let _ = writeln!(w, "{}", event_json(ev));
    }
}

/// One row of the per-round hot-path profile assembled by the auditor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundProfile {
    /// The driver phase the round ran under (`"run"` outside any phase).
    pub phase: &'static str,
    /// 0-based index of the kernel run the round belongs to.
    pub segment: usize,
    /// Round number within its segment.
    pub round: usize,
    /// Messages delivered.
    pub messages: usize,
    /// Words delivered.
    pub words: usize,
    /// Max words over any directed edge.
    pub max_words_edge: usize,
}

/// The auditor's conclusions (see [`TraceAuditor`]).
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Completed segments (kernel runs with a `RunEnd`) audited.
    pub segments: usize,
    /// Segments that aborted without a `RunEnd` (watchdog, kernel error).
    pub aborted_segments: usize,
    /// Human-readable discrepancies; empty iff the trace and the kernel
    /// metrics agree exactly.
    pub mismatches: Vec<String>,
    /// Sequential (`Metrics::add`) total of the per-segment *recomputed*
    /// metrics, plus wrapper retransmissions. Covers simulated traffic
    /// only — analytically charged costs (the merge phase's virtual
    /// symmetry rounds) never appear in a trace.
    pub totals: Metrics,
    /// Per-round profile across all segments, in stream order.
    pub profile: Vec<RoundProfile>,
}

impl AuditReport {
    /// Rounds simulated per phase, aggregated from the profile.
    pub fn phase_rounds(&self) -> Vec<(&'static str, usize)> {
        let mut out: Vec<(&'static str, usize)> = Vec::new();
        for row in &self.profile {
            match out.iter_mut().find(|(p, _)| *p == row.phase) {
                Some((_, n)) => *n += 1,
                None => out.push((row.phase, 1)),
            }
        }
        out
    }
}

/// Per-instance recomputation state of a batched (`run_many`) segment.
#[derive(Clone, Default)]
struct InstanceAudit {
    /// Metrics recomputed from instance-attributed events. `rounds` is a
    /// lower bound (the last round with observable instance activity —
    /// timer ticks leave no trace), all other fields are exact.
    computed: Metrics,
    /// Whether an `InstanceEnd` was seen for this instance.
    checked: bool,
}

/// In-flight state of the segment currently being audited.
struct Segment {
    budget_words: usize,
    computed: Metrics,
    /// Crashed nodes and the round their crash-stop activated.
    crashed: BTreeMap<VertexId, usize>,
    /// The currently open round (0 = the init "round" before `RoundStart 1`).
    round: usize,
    /// Delivered words per directed link, this round.
    delivered: BTreeMap<(VertexId, VertexId), usize>,
    /// Attempted (sent) words per directed link, this round.
    attempted: BTreeMap<(VertexId, VertexId), usize>,
    round_messages: usize,
    round_words: usize,
    /// Worst attempted-words-per-link-per-round seen so far.
    max_attempted: usize,
    /// Instance owning each node (batched segments only).
    inst_of: BTreeMap<VertexId, usize>,
    /// Per-instance recomputation (empty for plain `run` segments).
    instances: Vec<InstanceAudit>,
}

impl Segment {
    fn new(budget_words: usize) -> Self {
        Segment {
            budget_words,
            computed: Metrics::new(),
            crashed: BTreeMap::new(),
            round: 0,
            delivered: BTreeMap::new(),
            attempted: BTreeMap::new(),
            round_messages: 0,
            round_words: 0,
            max_attempted: 0,
            inst_of: BTreeMap::new(),
            instances: Vec::new(),
        }
    }

    fn fold_attempted(&mut self) {
        let worst = self.attempted.values().copied().max().unwrap_or(0);
        self.max_attempted = self.max_attempted.max(worst);
        self.attempted.clear();
    }

    /// Checks a `from -> to` transmission against the instance partition:
    /// in a batched segment both endpoints must belong to the same
    /// instance. Returns the owning instance (None when not batched or on
    /// violation, which is reported separately).
    fn attribute(&self, from: VertexId, to: VertexId) -> Result<Option<usize>, String> {
        if self.instances.is_empty() {
            return Ok(None);
        }
        match (self.inst_of.get(&from), self.inst_of.get(&to)) {
            (Some(&a), Some(&b)) if a == b => Ok(Some(a)),
            (a, b) => Err(format!(
                "cross-instance traffic {} -> {} (instances {:?} -> {:?})",
                from.0,
                to.0,
                a.copied(),
                b.copied()
            )),
        }
    }
}

/// Replays a trace and independently recomputes every [`Metrics`] field a
/// kernel run reports, diffing against each segment's [`TraceEvent::RunEnd`].
/// Streaming: feed events with [`TraceAuditor::observe`] (or wrap it in an
/// [`AuditSink`] to audit online), then read [`TraceAuditor::report`].
#[derive(Default)]
pub struct TraceAuditor {
    phase: Option<&'static str>,
    report: AuditReport,
    current: Option<Segment>,
}

impl TraceAuditor {
    /// A fresh auditor.
    pub fn new() -> Self {
        TraceAuditor::default()
    }

    /// Replays a recorded event stream through a fresh auditor.
    pub fn replay<'a, I: IntoIterator<Item = &'a TraceEvent>>(events: I) -> Self {
        let mut auditor = TraceAuditor::new();
        for ev in events {
            auditor.observe(ev);
        }
        auditor
    }

    /// Whether every completed segment's recomputed metrics matched the
    /// kernel's exactly (and no structural inconsistency was seen).
    pub fn ok(&self) -> bool {
        self.report.mismatches.is_empty()
    }

    /// The conclusions so far. An unfinished segment (no `RunEnd` yet) is
    /// not included in `segments`/`totals`.
    pub fn report(&self) -> &AuditReport {
        &self.report
    }

    fn mismatch(&mut self, msg: String) {
        // Cap the list so a systematically broken run cannot OOM the
        // auditor; the count of further mismatches is still recorded.
        if self.report.mismatches.len() < 64 {
            self.report.mismatches.push(msg);
        }
    }

    /// Feeds one event, in stream order.
    pub fn observe(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Phase { phase } => self.phase = Some(phase.name()),
            TraceEvent::RunStart {
                nodes: _,
                budget_words,
            } => {
                if self.current.take().is_some() {
                    self.report.aborted_segments += 1;
                }
                self.current = Some(Segment::new(budget_words));
            }
            TraceEvent::Assign { instance, node } => {
                let mut problem = None;
                if let Some(seg) = self.current.as_mut() {
                    if seg.round != 0 {
                        problem = Some(format!("Assign after round {} started", seg.round));
                    } else if seg.inst_of.insert(node, instance).is_some() {
                        problem = Some(format!("node {} assigned to two instances", node.0));
                    } else if seg.instances.len() <= instance {
                        seg.instances
                            .resize_with(instance + 1, InstanceAudit::default);
                    }
                }
                if let Some(p) = problem {
                    let index = self.segment_index();
                    self.mismatch(format!("segment {index}: {p}"));
                }
            }
            TraceEvent::RoundStart { round } => {
                if let Some(seg) = self.current.as_mut() {
                    seg.fold_attempted();
                    if round != seg.round + 1 {
                        let (have, want) = (round, seg.round + 1);
                        self.mismatch(format!(
                            "segment {}: RoundStart {have}, expected {want}",
                            self.segment_index()
                        ));
                    }
                    let seg = self.current.as_mut().unwrap();
                    seg.round = round;
                    seg.delivered.clear();
                    seg.round_messages = 0;
                    seg.round_words = 0;
                }
            }
            TraceEvent::Crash { node, round } => {
                if let Some(seg) = self.current.as_mut() {
                    seg.crashed.entry(node).or_insert(round);
                }
            }
            TraceEvent::Send {
                round,
                from,
                to,
                words,
            } => {
                let mut problem = None;
                if let Some(seg) = self.current.as_mut() {
                    *seg.attempted.entry((from, to)).or_insert(0) += words;
                    match seg.attribute(from, to) {
                        Ok(Some(i)) => {
                            let im = &mut seg.instances[i].computed;
                            im.rounds = im.rounds.max(round);
                        }
                        Ok(None) => {}
                        Err(p) => problem = Some(p),
                    }
                }
                if let Some(p) = problem {
                    let index = self.segment_index();
                    self.mismatch(format!("segment {index}: Send round {round}: {p}"));
                }
            }
            TraceEvent::Deliver {
                round,
                from,
                to,
                words,
            } => {
                let mut problem = None;
                if let Some(seg) = self.current.as_mut() {
                    *seg.delivered.entry((from, to)).or_insert(0) += words;
                    seg.round_messages += 1;
                    seg.round_words += words;
                    seg.computed.messages += 1;
                    seg.computed.words += words;
                    match seg.attribute(from, to) {
                        Ok(Some(i)) => {
                            let im = &mut seg.instances[i].computed;
                            im.messages += 1;
                            im.words += words;
                            im.rounds = im.rounds.max(round);
                        }
                        Ok(None) => {}
                        Err(p) => problem = Some(p),
                    }
                }
                if let Some(p) = problem {
                    let index = self.segment_index();
                    self.mismatch(format!("segment {index}: Deliver round {round}: {p}"));
                }
            }
            TraceEvent::Drop {
                round, from, to, ..
            } => {
                if let Some(seg) = self.current.as_mut() {
                    seg.computed.dropped += 1;
                    if let Ok(Some(i)) = seg.attribute(from, to) {
                        let im = &mut seg.instances[i].computed;
                        im.dropped += 1;
                        im.rounds = im.rounds.max(round);
                    }
                }
            }
            TraceEvent::Duplicate {
                round, from, to, ..
            } => {
                if let Some(seg) = self.current.as_mut() {
                    seg.computed.duplicated += 1;
                    if let Ok(Some(i)) = seg.attribute(from, to) {
                        let im = &mut seg.instances[i].computed;
                        im.duplicated += 1;
                        im.rounds = im.rounds.max(round);
                    }
                }
            }
            TraceEvent::Delay {
                from,
                to,
                deliver_round,
                ..
            } => {
                if let Some(seg) = self.current.as_mut() {
                    seg.computed.delayed += 1;
                    if let Ok(Some(i)) = seg.attribute(from, to) {
                        let im = &mut seg.instances[i].computed;
                        im.delayed += 1;
                        // The owning instance stays live until the held
                        // copies arrive.
                        im.rounds = im.rounds.max(deliver_round);
                    }
                }
            }
            TraceEvent::RoundEnd {
                round,
                messages,
                words,
                max_words_edge,
            } => {
                let index = self.segment_index();
                let phase = self.phase.unwrap_or("run");
                if let Some(seg) = self.current.as_mut() {
                    let round_max = seg.delivered.values().copied().max().unwrap_or(0);
                    let mut problems = Vec::new();
                    if round != seg.round {
                        problems.push(format!("RoundEnd {round} inside round {}", seg.round));
                    }
                    if messages != seg.round_messages {
                        problems.push(format!(
                            "round {round}: kernel counted {messages} deliveries, trace has {}",
                            seg.round_messages
                        ));
                    }
                    if words != seg.round_words {
                        problems.push(format!(
                            "round {round}: kernel counted {words} delivered words, trace has {}",
                            seg.round_words
                        ));
                    }
                    if max_words_edge != round_max {
                        problems.push(format!(
                            "round {round}: kernel max {max_words_edge} words/edge, trace has \
                             {round_max}"
                        ));
                    }
                    seg.computed.rounds = round;
                    seg.computed.max_words_edge_round =
                        seg.computed.max_words_edge_round.max(round_max);
                    if !seg.instances.is_empty() {
                        // Per-instance congestion: `delivered` already
                        // accumulates per directed link for this round, and
                        // each link belongs to exactly one instance.
                        for (&(from, _), &w) in &seg.delivered {
                            if let Some(&i) = seg.inst_of.get(&from) {
                                let im = &mut seg.instances[i].computed;
                                im.max_words_edge_round = im.max_words_edge_round.max(w);
                            }
                        }
                    }
                    self.report.profile.push(RoundProfile {
                        phase,
                        segment: index,
                        round,
                        messages,
                        words,
                        max_words_edge: round_max,
                    });
                    for p in problems {
                        self.mismatch(format!("segment {index}: {p}"));
                    }
                }
            }
            TraceEvent::Watchdog { .. } => {
                if self.current.take().is_some() {
                    self.report.aborted_segments += 1;
                }
            }
            TraceEvent::Retransmissions { count } => {
                self.report.totals.retransmissions += count;
            }
            TraceEvent::InstanceEnd { instance, metrics } => {
                let index = self.segment_index();
                let mut problems = Vec::new();
                if let Some(seg) = self.current.as_mut() {
                    if instance >= seg.instances.len() {
                        problems.push(format!("InstanceEnd for unassigned instance {instance}"));
                    } else {
                        let seg_round = seg.round;
                        let crashed_by_then = seg
                            .crashed
                            .values()
                            .filter(|&&r| r <= metrics.rounds)
                            .count();
                        let ia = &mut seg.instances[instance];
                        if ia.checked {
                            problems.push(format!("duplicate InstanceEnd for instance {instance}"));
                        }
                        ia.checked = true;
                        let c = ia.computed;
                        for (field, got, want) in [
                            ("messages", metrics.messages, c.messages),
                            ("words", metrics.words, c.words),
                            (
                                "max_words_edge_round",
                                metrics.max_words_edge_round,
                                c.max_words_edge_round,
                            ),
                            ("dropped", metrics.dropped, c.dropped),
                            ("duplicated", metrics.duplicated, c.duplicated),
                            ("delayed", metrics.delayed, c.delayed),
                            ("crashed_nodes", metrics.crashed_nodes, crashed_by_then),
                        ] {
                            if got != want {
                                problems.push(format!(
                                    "instance {instance}: {field}: kernel reported {got}, trace \
                                     recomputes {want}"
                                ));
                            }
                        }
                        // Timer ticks are invisible in the trace, so the
                        // recomputed activity horizon only bounds `rounds`:
                        // last observable activity <= rounds <= segment end.
                        if metrics.rounds < c.rounds || metrics.rounds > seg_round {
                            problems.push(format!(
                                "instance {instance}: rounds {} outside [{}, {seg_round}]",
                                metrics.rounds, c.rounds
                            ));
                        }
                    }
                }
                for p in problems {
                    self.mismatch(format!("segment {index}: {p}"));
                }
            }
            TraceEvent::RunEnd { metrics } => {
                let index = self.segment_index();
                if let Some(mut seg) = self.current.take() {
                    seg.fold_attempted();
                    seg.computed.crashed_nodes = seg.crashed.len();
                    for (i, ia) in seg.instances.iter().enumerate() {
                        if !ia.checked {
                            self.mismatch(format!(
                                "segment {index}: instance {i} has no InstanceEnd"
                            ));
                        }
                    }
                    if seg.max_attempted > seg.budget_words {
                        self.mismatch(format!(
                            "segment {index}: attempted {} words on a link in one round, budget {}",
                            seg.max_attempted, seg.budget_words
                        ));
                    }
                    // phase_rounds is driver-stamped after the kernel
                    // returns; at RunEnd both sides are zero by contract.
                    for (field, got, want) in [
                        ("rounds", metrics.rounds, seg.computed.rounds),
                        ("messages", metrics.messages, seg.computed.messages),
                        ("words", metrics.words, seg.computed.words),
                        (
                            "max_words_edge_round",
                            metrics.max_words_edge_round,
                            seg.computed.max_words_edge_round,
                        ),
                        ("dropped", metrics.dropped, seg.computed.dropped),
                        ("duplicated", metrics.duplicated, seg.computed.duplicated),
                        ("delayed", metrics.delayed, seg.computed.delayed),
                        (
                            "retransmissions",
                            metrics.retransmissions,
                            seg.computed.retransmissions,
                        ),
                        (
                            "crashed_nodes",
                            metrics.crashed_nodes,
                            seg.computed.crashed_nodes,
                        ),
                    ] {
                        if got != want {
                            self.mismatch(format!(
                                "segment {index}: {field}: kernel reported {got}, trace \
                                 recomputes {want}"
                            ));
                        }
                    }
                    self.report.segments += 1;
                    self.report.totals.add(seg.computed);
                } else {
                    self.mismatch(format!("segment {index}: RunEnd without RunStart"));
                }
            }
        }
    }

    fn segment_index(&self) -> usize {
        self.report.segments + self.report.aborted_segments
    }
}

/// A [`TraceSink`] that feeds a [`TraceAuditor`] online — auditing without
/// storing the trace, so even the `n = 1024` chaos sweeps can self-audit.
#[derive(Default)]
pub struct AuditSink {
    auditor: Mutex<TraceAuditor>,
}

impl AuditSink {
    /// A fresh auditing sink, ready to attach via [`TraceHandle::to`].
    pub fn new() -> Arc<Self> {
        Arc::new(AuditSink::default())
    }

    /// Whether everything observed so far is consistent (see
    /// [`TraceAuditor::ok`]).
    pub fn ok(&self) -> bool {
        self.auditor.lock().unwrap().ok()
    }

    /// A snapshot of the auditor's conclusions so far.
    pub fn report(&self) -> AuditReport {
        self.auditor.lock().unwrap().report().clone()
    }
}

impl TraceSink for AuditSink {
    fn record(&self, ev: &TraceEvent) {
        self.auditor.lock().unwrap().observe(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// A hand-built two-round segment the auditor must accept.
    fn consistent_stream() -> Vec<TraceEvent> {
        let metrics = Metrics {
            rounds: 2,
            messages: 3,
            words: 5,
            max_words_edge_round: 3,
            ..Metrics::default()
        };
        vec![
            TraceEvent::Phase {
                phase: Phase::Setup,
            },
            TraceEvent::RunStart {
                nodes: 2,
                budget_words: 8,
            },
            TraceEvent::Send {
                round: 0,
                from: v(0),
                to: v(1),
                words: 2,
            },
            TraceEvent::RoundStart { round: 1 },
            TraceEvent::Deliver {
                round: 1,
                from: v(0),
                to: v(1),
                words: 2,
            },
            TraceEvent::Send {
                round: 1,
                from: v(1),
                to: v(0),
                words: 3,
            },
            TraceEvent::Send {
                round: 1,
                from: v(1),
                to: v(0),
                words: 1,
            },
            TraceEvent::RoundEnd {
                round: 1,
                messages: 1,
                words: 2,
                max_words_edge: 2,
            },
            TraceEvent::RoundStart { round: 2 },
            TraceEvent::Deliver {
                round: 2,
                from: v(1),
                to: v(0),
                words: 3,
            },
            TraceEvent::Deliver {
                round: 2,
                from: v(1),
                to: v(0),
                words: 1,
            },
            TraceEvent::RoundEnd {
                round: 2,
                messages: 2,
                words: 4,
                max_words_edge: 4,
            },
            TraceEvent::RunEnd { metrics },
        ]
    }

    #[test]
    fn auditor_accepts_a_consistent_stream() {
        // Fix the deliberately matching numbers: words 2+3+1 = 6, max 4.
        let mut events = consistent_stream();
        if let Some(TraceEvent::RunEnd { metrics }) = events.last_mut() {
            metrics.words = 6;
            metrics.max_words_edge_round = 4;
        }
        let auditor = TraceAuditor::replay(&events);
        assert!(
            auditor.ok(),
            "mismatches: {:?}",
            auditor.report().mismatches
        );
        let report = auditor.report();
        assert_eq!(report.segments, 1);
        assert_eq!(report.totals.messages, 3);
        assert_eq!(report.totals.words, 6);
        assert_eq!(report.profile.len(), 2);
        assert!(report.profile.iter().all(|r| r.phase == "setup"));
        assert_eq!(report.phase_rounds(), vec![("setup", 2)]);
    }

    #[test]
    fn auditor_flags_inflated_kernel_metrics() {
        let mut events = consistent_stream();
        if let Some(TraceEvent::RunEnd { metrics }) = events.last_mut() {
            metrics.words = 6;
            metrics.max_words_edge_round = 4;
            metrics.messages = 99; // drifted aggregate
        }
        let auditor = TraceAuditor::replay(&events);
        assert!(!auditor.ok());
        assert!(
            auditor.report().mismatches[0].contains("messages"),
            "{:?}",
            auditor.report().mismatches
        );
    }

    #[test]
    fn auditor_flags_budget_violations_from_sends() {
        let mut events = consistent_stream();
        if let Some(TraceEvent::RunEnd { metrics }) = events.last_mut() {
            metrics.words = 6;
            metrics.max_words_edge_round = 4;
        }
        // Two sends on (1,0) in round 1 totalled 4 words; shrink the budget
        // below that.
        if let TraceEvent::RunStart { budget_words, .. } = &mut events[1] {
            *budget_words = 3;
        }
        let auditor = TraceAuditor::replay(&events);
        assert!(!auditor.ok());
        assert!(
            auditor
                .report()
                .mismatches
                .iter()
                .any(|m| m.contains("attempted")),
            "{:?}",
            auditor.report().mismatches
        );
    }

    #[test]
    fn aborted_segments_are_profiled_but_not_diffed() {
        let events = vec![
            TraceEvent::RunStart {
                nodes: 2,
                budget_words: 8,
            },
            TraceEvent::Send {
                round: 0,
                from: v(0),
                to: v(1),
                words: 1,
            },
            TraceEvent::RoundStart { round: 1 },
            TraceEvent::Deliver {
                round: 1,
                from: v(0),
                to: v(1),
                words: 1,
            },
            TraceEvent::RoundEnd {
                round: 1,
                messages: 1,
                words: 1,
                max_words_edge: 1,
            },
            TraceEvent::Watchdog { limit: 1 },
        ];
        let auditor = TraceAuditor::replay(&events);
        assert!(auditor.ok());
        let report = auditor.report();
        assert_eq!(report.segments, 0);
        assert_eq!(report.aborted_segments, 1);
        assert_eq!(report.profile.len(), 1);
    }

    /// A hand-built batched (two-instance) segment the auditor must accept.
    fn batched_stream() -> Vec<TraceEvent> {
        let inst0 = Metrics {
            rounds: 1,
            messages: 1,
            words: 2,
            max_words_edge_round: 2,
            ..Metrics::default()
        };
        let inst1 = Metrics {
            rounds: 2,
            messages: 2,
            words: 2,
            max_words_edge_round: 1,
            ..Metrics::default()
        };
        let total = Metrics {
            rounds: 2,
            messages: 3,
            words: 4,
            max_words_edge_round: 2,
            ..Metrics::default()
        };
        vec![
            TraceEvent::RunStart {
                nodes: 4,
                budget_words: 8,
            },
            TraceEvent::Assign {
                instance: 0,
                node: v(0),
            },
            TraceEvent::Assign {
                instance: 0,
                node: v(1),
            },
            TraceEvent::Assign {
                instance: 1,
                node: v(2),
            },
            TraceEvent::Assign {
                instance: 1,
                node: v(3),
            },
            TraceEvent::Send {
                round: 0,
                from: v(0),
                to: v(1),
                words: 2,
            },
            TraceEvent::Send {
                round: 0,
                from: v(2),
                to: v(3),
                words: 1,
            },
            TraceEvent::RoundStart { round: 1 },
            TraceEvent::Deliver {
                round: 1,
                from: v(0),
                to: v(1),
                words: 2,
            },
            TraceEvent::Deliver {
                round: 1,
                from: v(2),
                to: v(3),
                words: 1,
            },
            TraceEvent::Send {
                round: 1,
                from: v(3),
                to: v(2),
                words: 1,
            },
            TraceEvent::RoundEnd {
                round: 1,
                messages: 2,
                words: 3,
                max_words_edge: 2,
            },
            TraceEvent::RoundStart { round: 2 },
            TraceEvent::Deliver {
                round: 2,
                from: v(3),
                to: v(2),
                words: 1,
            },
            TraceEvent::RoundEnd {
                round: 2,
                messages: 1,
                words: 1,
                max_words_edge: 1,
            },
            TraceEvent::InstanceEnd {
                instance: 0,
                metrics: inst0,
            },
            TraceEvent::InstanceEnd {
                instance: 1,
                metrics: inst1,
            },
            TraceEvent::RunEnd { metrics: total },
        ]
    }

    #[test]
    fn auditor_accepts_a_consistent_batched_stream() {
        let auditor = TraceAuditor::replay(&batched_stream());
        assert!(
            auditor.ok(),
            "mismatches: {:?}",
            auditor.report().mismatches
        );
        assert_eq!(auditor.report().segments, 1);
    }

    #[test]
    fn auditor_flags_cross_instance_traffic() {
        let mut events = batched_stream();
        // Reroute instance 1's round-1 delivery across the partition.
        for ev in &mut events {
            if let TraceEvent::Deliver { from, to, .. } = ev {
                if *from == v(2) {
                    *from = v(1);
                    *to = v(2);
                }
            }
        }
        let auditor = TraceAuditor::replay(&events);
        assert!(!auditor.ok());
        assert!(
            auditor
                .report()
                .mismatches
                .iter()
                .any(|m| m.contains("cross-instance")),
            "{:?}",
            auditor.report().mismatches
        );
    }

    #[test]
    fn auditor_flags_drifted_instance_metrics() {
        let mut events = batched_stream();
        for ev in &mut events {
            if let TraceEvent::InstanceEnd {
                instance: 0,
                metrics,
            } = ev
            {
                metrics.words = 99;
            }
        }
        let auditor = TraceAuditor::replay(&events);
        assert!(!auditor.ok());
        assert!(
            auditor
                .report()
                .mismatches
                .iter()
                .any(|m| m.contains("instance 0") && m.contains("words")),
            "{:?}",
            auditor.report().mismatches
        );
    }

    #[test]
    fn auditor_flags_missing_instance_end() {
        let mut events = batched_stream();
        events.retain(|ev| !matches!(ev, TraceEvent::InstanceEnd { instance: 1, .. }));
        let auditor = TraceAuditor::replay(&events);
        assert!(!auditor.ok());
        assert!(
            auditor
                .report()
                .mismatches
                .iter()
                .any(|m| m.contains("no InstanceEnd")),
            "{:?}",
            auditor.report().mismatches
        );
    }

    #[test]
    fn ring_buffer_sink_evicts_oldest() {
        let sink = MemorySink::with_capacity(2);
        for round in 1..=5 {
            sink.record(&TraceEvent::RoundStart { round });
        }
        assert_eq!(sink.evicted(), 3);
        assert_eq!(
            sink.events(),
            vec![
                TraceEvent::RoundStart { round: 4 },
                TraceEvent::RoundStart { round: 5 },
            ]
        );
        sink.clear();
        assert_eq!(sink.events(), Vec::new());
        assert_eq!(sink.evicted(), 0);
    }

    #[test]
    fn jsonl_sink_writes_one_object_per_line() {
        let sink = JsonlSink::new(Vec::new());
        for ev in consistent_stream() {
            sink.record(&ev);
        }
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), consistent_stream().len());
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
        assert!(lines[0].contains("\"ev\":\"phase\""));
        assert!(lines[1].contains("\"budget_words\":8"));
    }

    #[test]
    fn disabled_handle_is_inert() {
        let handle = TraceHandle::off();
        assert!(!handle.is_on());
        handle.emit(TraceEvent::RoundStart { round: 1 }); // must not panic
        let sink = MemorySink::unbounded();
        let on = TraceHandle::to(sink.clone());
        assert!(on.is_on());
        on.emit(TraceEvent::RoundStart { round: 1 });
        assert_eq!(sink.events().len(), 1);
    }
}
