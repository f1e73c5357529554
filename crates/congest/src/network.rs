//! The synchronous CONGEST simulation kernel.
//!
//! Nodes are event-driven state machines: they emit messages at
//! initialization and in response to received messages. Rounds are fully
//! synchronous — everything sent in round `r` is delivered at the start of
//! round `r + 1` — and the kernel *enforces* the CONGEST bandwidth
//! constraint: the total size of messages crossing a directed edge in one
//! round must not exceed the configured word budget, otherwise the run
//! aborts with [`SimError::BudgetExceeded`]. Measured round counts are
//! therefore honest: no protocol can smuggle extra information through an
//! edge.
//!
//! # Kernel architecture (allocation-free steady state)
//!
//! The per-round loop performs **zero heap allocations in steady state**
//! (after buffer capacities have warmed up over the first few rounds). All
//! round state lives in flat vectors indexed by the graph's dense
//! [`planar_graph::ArcId`]s (one per directed edge, CSR layout; see
//! [`planar_graph::arcs`]) and by vertex id:
//!
//! * **Mailboxes** — two mailbox planes (`cur`/`nxt`), swapped each round.
//!   Sends from round `r` accumulate in `nxt`; after the swap they are this
//!   round's deliveries in `cur`. A plane is keyed by *receiving* arc: a
//!   message from `u` to `v` sits at `u`'s slot in `v`'s CSR block, so a
//!   recipient's inbox is one scan of its own arc range, and it arrives
//!   already sorted by sender id (adjacency lists are sorted, so slot order
//!   *is* sender-id order). Because an arc has exactly one sender, per-arc
//!   order is emission order. An arc's state is one `u64` (see
//!   `MailPlane`): idle, the message itself when the arc carries one
//!   message this round — a [`Words::pack`] that fits in 63 bits is stored
//!   in the slot word (register-width payloads, no side buffer), anything
//!   else indexes a native side table — or, once a second message arrives,
//!   a ring in a spill pool. Inboxes are therefore deterministic *by
//!   construction*: the seed kernel's per-round `recipients.sort()` +
//!   per-inbox `sort_by_key` are gone, yet inbox contents are
//!   byte-identical.
//! * **Local broadcast** — a fault-free step whose whole outbox is one
//!   [`BROADCAST`] is stored once, as a word in the plane's per-sender
//!   `bcast` table, with its tallies and budget check done once; each
//!   recipient's gather reads it at the sender's position in its arc
//!   range, and only rounds that carry a broadcast pay that read. Any
//!   other broadcast (beside unicasts, or in fault mode) is expanded in
//!   place into its unicasts. DESIGN.md §7 has the sizing and clearing
//!   rules.
//! * **Budget accounting** — an arc's word total is the single message's
//!   size, or a running total kept in its spilled slot, checked against the
//!   budget as each message lands. The round's message, word and max-words
//!   tallies accumulate at send time too, and delivery leaves every slot it
//!   drains idle, so no round walks its active arcs and quiet regions of a
//!   large graph cost nothing.
//! * **Outbox** — programs push their sends onto a `&mut Vec` the kernel
//!   owns ([`NodeProgram::init`], [`NodeProgram::on_round`]); one buffer
//!   per `Simulator` is drained after every step, so stepping a node
//!   allocates nothing.
//! * **Destination validation** — a merge walk over the sender's sorted
//!   CSR neighbor block: a cursor sits one slot past the previous send, so
//!   a destination equal to the cursor's neighbor (every expanded
//!   broadcast, and replies in inbox order) costs one compare. Any other
//!   destination falls back to a binary search of the block
//!   ([`ArcIndex::block`]); a miss is a non-neighbor, or a broadcast to
//!   expand. No per-vertex table and no per-sender
//!   stamping pass.
//! * **Recipient schedule** — nodes are appended to a recipient list the
//!   first time a message is addressed to them (deduplicated by an epoch
//!   stamp) and processed in that order. Processing order cannot influence
//!   outcomes — a node only observes its own inbox, and per-arc queues are
//!   single-sender — so this order is as deterministic as the sorted order
//!   the seed kernel used, without the sort.
//!
//! Budget violations are detected at send time but *reported* at the
//! delivery round, after the max-rounds check — exactly the seed kernel's
//! observable error ordering. The seed kernel itself is preserved verbatim
//! as [`crate::reference::run_reference`]; the determinism conformance
//! suite (`crates/congest/tests/determinism.rs`) asserts both kernels
//! produce identical final states and [`Metrics`] on every workload, and
//! the kernel benchmark records the resulting speedup in
//! `BENCH_kernel.json`.
//!
//! # One thread per run
//!
//! Every round steps on the calling thread. Host threads cannot change a
//! round count, only wall time, and fanning a round's recipients out over
//! worker threads did not pay for itself on the measured workloads
//! (DESIGN.md §12). Independent runs are the unit of host parallelism.

use std::error::Error;
use std::fmt;

use planar_graph::{ArcId, ArcIndex, Graph, VertexId};

use crate::batch::Batch;
use crate::faults::{CrashPolicy, Fate, FaultPlan};
use crate::message::Words;
use crate::metrics::Metrics;
use crate::trace::{TraceEvent, TraceHandle};

/// Per-node view of the network handed to [`NodeProgram`] callbacks.
///
/// Matches the paper's input format: a node knows its own id and the ids of
/// its neighbors, nothing else.
#[derive(Debug)]
pub struct NodeCtx<'a> {
    /// This node's globally unique id.
    pub id: VertexId,
    /// Ids of the node's neighbors (sorted).
    pub neighbors: &'a [VertexId],
    /// Current round number (0 during `init`).
    pub round: usize,
}

/// The destination of a local broadcast: a send `(BROADCAST, msg)` is
/// defined as the unicasts `(w, msg.clone())` to every `w` of
/// [`NodeCtx::neighbors`], ascending, at that position in the outbox, and
/// both kernels and the [`Reliable`](crate::protocols::Reliable) wrapper
/// give it exactly those metrics, traces, errors and inboxes. `u32::MAX`
/// is no vertex id ([`SimError::CapacityExceeded`]).
pub const BROADCAST: VertexId = VertexId(u32::MAX);

/// Rewrites every [`BROADCAST`] entry of `out` as its unicasts to
/// `neighbors`, ascending, in place; other entries keep their position.
/// Allocates only when `out` holds a broadcast.
pub(crate) fn expand_broadcasts<M: Clone>(out: &mut Vec<(VertexId, M)>, neighbors: &[VertexId]) {
    if !out.iter().any(|&(dest, _)| dest == BROADCAST) {
        return;
    }
    let sends = std::mem::take(out);
    for (dest, msg) in sends {
        if dest == BROADCAST {
            out.extend(neighbors.iter().map(|&w| (w, msg.clone())));
        } else {
            out.push((dest, msg));
        }
    }
}

/// A distributed node program (one instance per vertex).
///
/// Programs must be *event driven*: after [`NodeProgram::init`], a node may
/// only send messages from [`NodeProgram::on_round`] in response to received
/// messages. The simulation ends at quiescence (a round in which no messages
/// are in flight), which for event-driven programs implies no further state
/// change is possible.
///
/// A send to every neighbor is one outbox entry addressed to
/// [`BROADCAST`]: it means the same as one entry per neighbor, and the
/// fast kernel stores it once per sender instead of once per arc.
pub trait NodeProgram {
    /// The message type exchanged by this program.
    type Msg: Clone + Words;

    /// Called once before the first round; pushes initial messages onto
    /// `out` as `(neighbor, message)` pairs, or `(BROADCAST, message)` for
    /// every neighbor. `out` is the kernel's outbox and is empty on entry.
    fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, Self::Msg)>);

    /// Called whenever the node receives at least one message; pushes the
    /// messages to send this round onto `out` (empty on entry), addressed
    /// as in [`NodeProgram::init`].
    fn on_round(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: &[(VertexId, Self::Msg)],
        out: &mut Vec<(VertexId, Self::Msg)>,
    );

    /// Whether the node wants [`NodeProgram::on_round`] called with an
    /// *empty* inbox while it has internal timers pending (e.g. the
    /// retransmission timeouts of `protocols::reliable`). Only honored in
    /// fault mode — with an empty [`FaultPlan`] the kernel stays strictly
    /// event-driven, preserving the zero-overhead hot path.
    fn wants_tick(&self) -> bool {
        false
    }
}

/// Simulation parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Maximum words (one word = one `O(log n)`-bit field) per directed edge
    /// per round.
    pub budget_words: usize,
    /// Abort if the simulation has not quiesced after this many rounds.
    ///
    /// The bound is inclusive: a run whose final messages are delivered in
    /// round `max_rounds` (and which quiesces there) succeeds with
    /// `metrics.rounds == max_rounds`; only a run that would need to deliver
    /// in round `max_rounds + 1` fails with [`SimError::MaxRoundsExceeded`].
    pub max_rounds: usize,
    /// Fault-injection schedule (see [`crate::faults`]). The default (empty)
    /// plan keeps the kernel on the fault-free hot path: no per-message RNG
    /// calls, byte-identical outcomes.
    pub faults: FaultPlan,
    /// Round-budget watchdog: abort with [`SimError::WatchdogTimeout`] if
    /// the run passes this many rounds. Unlike `max_rounds` (a safety net
    /// against protocol bugs, so generous it should never fire), the
    /// watchdog is the *expected* failure mode of a faulty run — drivers map
    /// it to graceful degradation rather than treating it as a bug.
    pub watchdog: Option<usize>,
    /// Optional observability hook (see [`crate::trace`]). Off by default;
    /// when off, both kernels run their exact pre-tracing instruction
    /// sequence — every emission site is behind a cached `is_on()` branch.
    pub trace: TraceHandle,
    /// Ignored: both kernels step every round on the calling thread (see
    /// the module docs). Kept only so existing callers still compile; it
    /// will be removed at the next change to the repo benchmark, which
    /// still reads it.
    pub threads: Option<usize>,
}

/// The default per-edge word budget: 8 words, i.e. messages of
/// `8 · ceil(log2 n)` bits — a fixed `O(log n)` as the model requires.
pub const DEFAULT_BUDGET_WORDS: usize = 8;

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            budget_words: DEFAULT_BUDGET_WORDS,
            max_rounds: 1_000_000,
            faults: FaultPlan::default(),
            watchdog: None,
            trace: TraceHandle::off(),
            threads: None,
        }
    }
}

impl SimConfig {
    /// Validates the configuration against an `n`-vertex graph — today
    /// that means [`FaultPlan::validate`] on the fault plan: probabilities
    /// in `[0, 1]`, no empty/inverted link-down windows, crash victims and
    /// link endpoints in range.
    ///
    /// Opt-in (the kernels keep their documented lenient semantics);
    /// callers that *generate* configurations — the DST scenario engine,
    /// programmatic sweeps — call this to fail fast on plans that would
    /// silently inject nothing.
    ///
    /// # Errors
    ///
    /// The first [`FaultPlanError`](crate::faults::FaultPlanError) found.
    pub fn validate(&self, n: usize) -> Result<(), crate::faults::FaultPlanError> {
        self.faults.validate(n)
    }
}

/// Errors surfaced by the kernel.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A round tried to push more words over a directed edge than allowed.
    BudgetExceeded {
        /// Sender of the overflowing edge.
        from: VertexId,
        /// Receiver of the overflowing edge.
        to: VertexId,
        /// Words that were attempted.
        words: usize,
        /// The configured budget.
        budget: usize,
        /// The offending round.
        round: usize,
    },
    /// A node addressed a message to a non-neighbor.
    InvalidDestination {
        /// The sender.
        from: VertexId,
        /// The invalid addressee.
        to: VertexId,
    },
    /// The simulation did not quiesce within `max_rounds`.
    MaxRoundsExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// The round-budget watchdog ([`SimConfig::watchdog`]) fired before
    /// quiescence — under fault injection, the signal that a protocol can
    /// no longer make progress and the run should degrade gracefully.
    WatchdogTimeout {
        /// The configured watchdog limit.
        limit: usize,
    },
    /// A node addressed a message to a neighbor that had already
    /// crash-stopped. Only reported under
    /// [`CrashPolicy::Error`]; the
    /// default policy drops such sends silently.
    DestinationCrashed {
        /// The sender.
        from: VertexId,
        /// The crashed addressee.
        to: VertexId,
        /// The round in which the send was attempted.
        round: usize,
    },
    /// In a batched run ([`Simulator::run_many`]), a node addressed a
    /// message to a node of a *different* instance (or to a node assigned
    /// to no instance). Instances are vertex-disjoint subproblems that must
    /// run as if alone on the network; any cross-instance traffic is a
    /// protocol bug, not a fault to tolerate.
    CrossInstanceSend {
        /// The sender.
        from: VertexId,
        /// The addressee outside the sender's instance.
        to: VertexId,
        /// The round in which the send was attempted.
        round: usize,
    },
    /// The graph exceeds the fast kernel's `u32`-indexed layout (vertex
    /// ids, arc ids, chain links and instance tables all reserve
    /// `u32::MAX` as a sentinel). Checked at run setup, so an oversized
    /// graph is a typed error instead of silent index truncation. The
    /// reference kernel has no such bound (`usize` throughout).
    CapacityExceeded {
        /// Vertices in the offending graph.
        nodes: usize,
        /// Directed arcs in the offending graph.
        arcs: usize,
        /// The exclusive limit both counts must stay under.
        limit: usize,
    },
}

/// Validates that an `n`-vertex, `arcs`-arc graph fits the fast kernel's
/// `u32`-indexed state (`u32::MAX` itself is reserved as the `NIL` /
/// bystander sentinel throughout). A pure function of the raw counts so
/// the boundary is unit-testable without materializing a 4-billion-arc
/// graph.
pub(crate) fn check_capacity(n: usize, arcs: usize) -> Result<(), SimError> {
    const LIMIT: usize = u32::MAX as usize;
    if n >= LIMIT || arcs >= LIMIT {
        return Err(SimError::CapacityExceeded {
            nodes: n,
            arcs,
            limit: LIMIT,
        });
    }
    Ok(())
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BudgetExceeded { from, to, words, budget, round } => write!(
                f,
                "bandwidth budget exceeded on edge {from}->{to} in round {round}: {words} words > budget {budget}"
            ),
            SimError::InvalidDestination { from, to } => {
                write!(f, "node {from} sent a message to non-neighbor {to}")
            }
            SimError::MaxRoundsExceeded { limit } => {
                write!(f, "simulation did not quiesce within {limit} rounds")
            }
            SimError::WatchdogTimeout { limit } => {
                write!(f, "watchdog: no quiescence within the {limit}-round budget")
            }
            SimError::DestinationCrashed { from, to, round } => {
                write!(f, "node {from} sent to crashed node {to} in round {round}")
            }
            SimError::CrossInstanceSend { from, to, round } => {
                write!(
                    f,
                    "node {from} sent to {to} outside its instance in round {round}"
                )
            }
            SimError::CapacityExceeded { nodes, arcs, limit } => {
                write!(
                    f,
                    "graph exceeds the fast kernel's u32 index space: {nodes} nodes / {arcs} arcs (both must be < {limit})"
                )
            }
        }
    }
}

impl Error for SimError {}

/// Result of a completed simulation: the final program states plus the cost
/// metrics.
#[derive(Debug)]
pub struct SimOutcome<P> {
    /// Final per-node program states (indexed by vertex id).
    pub programs: Vec<P>,
    /// Rounds/messages/congestion consumed by this run.
    pub metrics: Metrics,
}

/// One subproblem of a batched run ([`Simulator::run_many`]): a set of
/// active nodes and their programs. Nodes outside every instance are inert
/// bystanders — they run no program and may not be addressed.
///
/// Instances in one batch must be **vertex-disjoint**; the kernel enforces
/// both the disjointness (at batch setup) and the resulting isolation
/// invariant (any cross-instance send aborts the run with
/// [`SimError::CrossInstanceSend`]). Disjointness is what makes the batch
/// faithful: each instance observes exactly the deliveries, fault fates and
/// round numbering it would observe running alone, so per-instance outcomes
/// are bit-identical to individual [`Simulator::run`] calls.
#[derive(Debug)]
pub struct Instance<P> {
    /// Active nodes, ascending by vertex id.
    pub(crate) members: Vec<VertexId>,
    /// Programs aligned with `members`.
    pub(crate) programs: Vec<P>,
}

impl<P> Instance<P> {
    /// Builds an instance from `(node, program)` pairs (any order; sorted
    /// internally).
    ///
    /// # Panics
    ///
    /// Panics if the same node appears twice.
    pub fn new(nodes: Vec<(VertexId, P)>) -> Self {
        let mut nodes = nodes;
        // Unstable is exact here (members are distinct) and sorts in place.
        nodes.sort_unstable_by_key(|&(v, _)| v);
        let members = nodes.iter().map(|&(v, _)| v).collect();
        // Collected in place: the programs reuse the pairs' allocation.
        let programs = nodes.into_iter().map(|(_, p)| p).collect();
        Instance::with_members(members, programs)
    }

    /// Builds an instance from its member list, ascending, and the
    /// members' programs in the same order, so a caller can reuse a member
    /// list (an [`InstanceOutcome::members`], say) without copying it.
    ///
    /// # Panics
    ///
    /// Panics if a node appears twice, `members` is not ascending, or the
    /// lengths differ.
    pub fn with_members(members: Vec<VertexId>, programs: Vec<P>) -> Self {
        assert_eq!(members.len(), programs.len(), "one program per member");
        for pair in members.windows(2) {
            assert!(pair[0] < pair[1], "duplicate or unsorted instance member");
        }
        Instance { members, programs }
    }

    /// The instance's nodes, ascending.
    pub fn members(&self) -> &[VertexId] {
        &self.members
    }

    /// Number of active nodes.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the instance has no nodes.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Maps every program through `f`, preserving the member set (used by
    /// the reliable-delivery wrapper to wrap whole batches).
    pub fn map<Q>(self, f: impl FnMut(P) -> Q) -> Instance<Q> {
        Instance {
            members: self.members,
            programs: self.programs.into_iter().map(f).collect(),
        }
    }
}

/// The vertex in `slot` of an instance with member list `members`. A plain
/// run's one instance leaves `members` empty: its slots are the vertex ids.
fn member(members: &[VertexId], slot: usize) -> VertexId {
    if members.is_empty() {
        VertexId::from_index(slot)
    } else {
        members[slot]
    }
}

/// Final state of one instance of a batched run.
#[derive(Debug)]
pub struct InstanceOutcome<P> {
    /// The instance's nodes, ascending (as passed to [`Instance::new`]).
    pub members: Vec<VertexId>,
    /// Final program states, aligned with `members`.
    pub programs: Vec<P>,
    /// What this instance would have cost running alone: `rounds` is the
    /// last round in which the instance was live, the remaining counters
    /// cover only the instance's own traffic. Bit-identical to the metrics
    /// of an individual [`Simulator::run`] over the same subproblem.
    pub metrics: Metrics,
}

impl<P> InstanceOutcome<P> {
    /// The final program of member `v`, if `v` belongs to this instance.
    pub fn program(&self, v: VertexId) -> Option<&P> {
        self.members
            .binary_search(&v)
            .ok()
            .map(|i| &self.programs[i])
    }
}

/// Result of a batched run ([`Simulator::run_many`]).
#[derive(Debug)]
pub struct MultiOutcome<P> {
    /// Per-instance outcomes, in the order the instances were passed.
    pub instances: Vec<InstanceOutcome<P>>,
    /// Cost of the whole batch on the shared round lattice. `rounds` is the
    /// measured parallel round count — the maximum over the per-instance
    /// `rounds`, since the batch quiesces when its last instance does.
    pub metrics: Metrics,
}

/// Chain-link / index sentinel of the struct-of-arrays mailbox layout.
const NIL: u32 = u32::MAX;

/// Message-word tag: bit 63 set = the low 63 bits are the packed payload
/// itself; clear = the word is `1 +` an index into the plane's `native`
/// side table (so a message word is never 0, the idle arc).
const PACKED: u64 = 1 << 63;

/// Arc-slot tag (with bit 63 clear): the arc carries two or more messages
/// this round, a ring in the spill pool whose tail entry is the low 32
/// bits; bits 32..62 hold the arc's running word total.
const SPILLED: u64 = 1 << 62;

/// Largest word total a spilled slot records (saturating; the budget
/// check compares the exact sum before the store).
const TOTAL_MAX: u64 = (1 << 30) - 1;

/// One direction of the double-buffered mailbox plane, keyed by
/// *receiving* arc: a message from `u` to `v` sits at the arc `(v, u)`,
/// `u`'s position in `v`'s CSR block, so `v`'s inbox is one scan of its
/// own arc range and comes out in sender-id order.
///
/// Each arc holds one `u64` (8 bytes per arc per plane): `0` when idle,
/// the message word itself when the arc carries one message this round
/// (the common case), or a `SPILLED` reference once a second message
/// arrives. Only then do the arc's messages move to the spill pool, a ring
/// per arc (`next` links, entry order = emission order, since an arc has
/// one sender), with the arc's running word total in the slot. A message
/// word is the message's [`Words::pack`] under the `PACKED` tag when it
/// accepts at the run's word width (`B = ceil(log2 n)`,
/// [`crate::message::word_bits`]; at most 63 bits, so a 2-word
/// `(leader, distance)` flood message at n=1M is 40 bits of one register)
/// and otherwise indexes the `native` side table, so packing is lossless
/// by construction and invisible to outcomes. The round's message, word
/// and max-words tallies are kept as sends land, and delivery zeroes the
/// slots it drains, so a round never walks its active arcs.
///
/// A step whose whole outbox is one [`BROADCAST`] leaves no arc slot
/// behind: its message word sits at the sender in `bcast`, and each
/// recipient's gather reads it at the sender's position in its block.
struct MailPlane<M> {
    /// Per receiving arc: idle, one message word, or a spilled ring.
    slot: Vec<u64>,
    /// Per sending vertex: the message word of its broadcast this round,
    /// `0` when it made none. Grown to the run's vertex count by the
    /// plane's first broadcast, never shrunk, and zero between rounds.
    bcast: Vec<u64>,
    /// The vertices whose `bcast` word is set (the round-end clear list).
    broadcasters: Vec<VertexId>,
    /// Spill pool: the next entry of each entry's ring.
    next: Vec<u32>,
    /// Spill pool: the message word of each entry.
    spill: Vec<u64>,
    /// Natively stored payloads (packing declined). `Option` so delivery
    /// can move messages out without shifting.
    native: Vec<Option<M>>,
    /// The run's word width: `ceil(log2 n)` bits.
    word_bits: u32,
    /// Recipients in first-delivery order (each exactly once).
    recipients: Vec<VertexId>,
    /// Messages queued this round.
    messages: usize,
    /// Words queued this round.
    words: usize,
    /// Largest word total of one arc this round.
    max_words: usize,
}

impl<M: Words> MailPlane<M> {
    fn new() -> Self {
        MailPlane {
            slot: Vec::new(),
            bcast: Vec::new(),
            broadcasters: Vec::new(),
            next: Vec::new(),
            spill: Vec::new(),
            native: Vec::new(),
            word_bits: 1,
            recipients: Vec::new(),
            messages: 0,
            words: 0,
            max_words: 0,
        }
    }

    /// Sizes and clears the plane for a run over `arcs` arcs with
    /// `word_bits`-bit words, retaining previously allocated capacity
    /// (sequential writes over warm memory — much cheaper than fresh
    /// page-faulting allocations). Every slot is rewritten and every
    /// broadcast word cleared, so an aborted run's undelivered messages
    /// cannot leak into the next run.
    fn prepare(&mut self, arcs: usize, word_bits: u32) {
        self.slot.clear();
        self.slot.resize(arcs, 0);
        self.word_bits = word_bits;
        self.reset();
    }

    /// Queues `msg` (`w` words) on receiving arc `b` and returns the arc's
    /// word total this round (exact; the budget check compares it).
    #[inline(always)]
    fn push(&mut self, b: usize, msg: M, w: usize) -> u64 {
        let word = self.word(msg, w);
        let s = self.slot[b];
        let total = if s == 0 {
            self.slot[b] = word;
            w as u64
        } else {
            self.spill(b, s, word, w as u64)
        };
        self.messages += 1;
        self.words += w;
        self.max_words = self.max_words.max(total as usize);
        total
    }

    /// Queues `msg` (`w` words) as `from`'s broadcast to its `deg`
    /// neighbors, with the tallies of `deg` sends; `n` is the run's vertex
    /// count. The caller stamps the recipients.
    fn broadcast(&mut self, from: VertexId, msg: M, w: usize, deg: usize, n: usize) {
        let word = self.word(msg, w);
        if self.bcast.len() < n {
            // One allocation each: a round has at most `n` broadcasters.
            self.bcast.resize(n, 0);
            self.broadcasters.reserve(n);
        }
        self.bcast[from.index()] = word;
        self.broadcasters.push(from);
        self.messages += deg;
        self.words += deg * w;
        self.max_words = self.max_words.max(w);
    }

    /// The message word of `msg` (`w` words): its packing, or an index
    /// into the `native` side table.
    #[inline(always)]
    fn word(&mut self, msg: M, w: usize) -> u64 {
        match msg.pack(self.word_bits) {
            Some(packed) => {
                let width = w as u64 * u64::from(self.word_bits);
                debug_assert!(
                    width <= 63 && packed >> width == 0,
                    "pack must fit in words()*B <= 63 bits"
                );
                PACKED | packed
            }
            None => {
                assert!(
                    self.native.len() < NIL as usize,
                    "native side table exhausted its u32 index space"
                );
                self.native.push(Some(msg));
                self.native.len() as u64
            }
        }
    }

    /// Appends `word` behind arc `b`'s queued traffic `s`, moving a single
    /// queued message into a one-entry ring first. Rare: an arc carries a
    /// second message in a round only within a multi-message budget or
    /// through fault copies.
    #[cold]
    #[inline(never)]
    fn spill(&mut self, b: usize, s: u64, word: u64, w: u64) -> u64 {
        let (tail, total) = if s & (PACKED | SPILLED) == SPILLED {
            (s as u32, (s >> 32) & TOTAL_MAX)
        } else {
            let first = self.spill_entry(s);
            self.next[first as usize] = first;
            (first, self.words_of(s))
        };
        let e = self.spill_entry(word);
        self.next[e as usize] = self.next[tail as usize];
        self.next[tail as usize] = e;
        let total = total + w;
        self.slot[b] = SPILLED | total.min(TOTAL_MAX) << 32 | u64::from(e);
        total
    }

    /// A fresh spill-pool entry holding `word`.
    fn spill_entry(&mut self, word: u64) -> u32 {
        // Entries per round are bounded by arcs × budget plus fault
        // copies, far inside the index space `check_capacity` guards.
        assert!(
            self.spill.len() < NIL as usize,
            "spill pool exhausted its u32 index space"
        );
        self.next.push(NIL);
        self.spill.push(word);
        (self.spill.len() - 1) as u32
    }

    /// Words of the queued message `word` (decoded only on a spill).
    fn words_of(&self, word: u64) -> u64 {
        let w = if word & PACKED != 0 {
            M::unpack(self.word_bits, word & !PACKED)
                .expect("packed payload round-trips")
                .words()
        } else {
            self.native[word as usize - 1]
                .as_ref()
                .expect("queued message is present")
                .words()
        };
        w as u64
    }

    /// Moves the message of `word` out (packed words decode from the
    /// word, native ones move without a clone).
    #[inline]
    fn take(&mut self, word: u64) -> M {
        if word & PACKED != 0 {
            M::unpack(self.word_bits, word & !PACKED).expect("packed payload round-trips")
        } else {
            self.native[word as usize - 1]
                .take()
                .expect("each queued message is taken exactly once")
        }
    }

    /// Moves receiving arc `b`'s messages, in emission order, onto
    /// `inbox` as sent by `from`, leaving the arc idle.
    #[inline]
    fn drain(&mut self, b: usize, from: VertexId, inbox: &mut Vec<(VertexId, M)>) {
        let s = self.slot[b];
        if s == 0 {
            return;
        }
        self.slot[b] = 0;
        if s & (PACKED | SPILLED) == SPILLED {
            self.drain_ring(s as u32, from, inbox);
        } else {
            inbox.push((from, self.take(s)));
        }
    }

    /// Copies `from`'s broadcast this round, if it made one, onto `inbox`
    /// (packed words decode; native payloads clone, since every neighbor
    /// reads the one stored copy).
    #[inline]
    fn copy_broadcast(&self, from: VertexId, inbox: &mut Vec<(VertexId, M)>)
    where
        M: Clone,
    {
        let word = self.bcast[from.index()];
        if word == 0 {
            return;
        }
        let msg = if word & PACKED != 0 {
            M::unpack(self.word_bits, word & !PACKED).expect("packed payload round-trips")
        } else {
            self.native[word as usize - 1]
                .clone()
                .expect("a broadcast payload stays until the round ends")
        };
        inbox.push((from, msg));
    }

    /// [`MailPlane::drain`] for a spilled arc: its ring from the head (the
    /// entry after `tail`) round to `tail`.
    #[cold]
    #[inline(never)]
    fn drain_ring(&mut self, tail: u32, from: VertexId, inbox: &mut Vec<(VertexId, M)>) {
        let mut e = tail;
        loop {
            e = self.next[e as usize];
            let word = self.spill[e as usize];
            inbox.push((from, self.take(word)));
            if e == tail {
                break;
            }
        }
    }

    /// Ends a round: clears the broadcast words, drops the spill pool,
    /// side table, recipient list and tallies, retaining every buffer's
    /// capacity. The slots are already idle: delivery drained them.
    fn reset(&mut self) {
        for v in self.broadcasters.drain(..) {
            self.bcast[v.index()] = 0;
        }
        self.next.clear();
        self.spill.clear();
        self.native.clear();
        self.recipients.clear();
        self.messages = 0;
        self.words = 0;
        self.max_words = 0;
    }

    /// Heap bytes currently reserved (capacities, not lengths).
    fn memory_bytes(&self) -> usize {
        self.slot.capacity() * 8
            + self.bcast.capacity() * 8
            + self.broadcasters.capacity() * std::mem::size_of::<VertexId>()
            + self.next.capacity() * 4
            + self.spill.capacity() * 8
            + self.native.capacity() * std::mem::size_of::<Option<M>>()
            + self.recipients.capacity() * std::mem::size_of::<VertexId>()
    }
}

/// A reusable simulation kernel (see module docs): all round state —
/// mailbox planes, per-vertex tables, the outbox, scratch buffers —
/// allocated before round 1 and only growing buffer capacities afterwards.
///
/// A `Simulator` can be reused across runs (over different graphs, programs
/// and configs of the same message type): every [`Simulator::run`] fully
/// reinitializes the logical state but *retains buffer capacity*, so
/// repeated simulations — the embedder's recursion, benchmark loops —
/// skip the multi-megabyte allocate/fault/free cycle of a cold start. The
/// free function [`run`] is the one-shot convenience wrapper.
pub struct Simulator<M> {
    /// Deliveries of the current round.
    cur: MailPlane<M>,
    /// Sends accumulating for the next round.
    nxt: MailPlane<M>,
    /// The outbox every program step pushes its sends onto; drained by
    /// `record_sends` after each step, so it is empty between steps.
    outbox: Vec<(VertexId, M)>,
    /// `recipient_round[v] == r` iff `v` is already scheduled to receive in
    /// round `r` (rounds increase strictly, so no clearing is needed).
    recipient_round: Vec<usize>,
    /// First budget violation observed while recording sends, reported at
    /// the start of the delivery round (after the max-rounds check) to
    /// match the reference kernel's observable error ordering.
    pending_overflow: Option<SimError>,
    /// Delivery scratch: one cache-sized block of inboxes at a time,
    /// concatenated (see `deliver`).
    inbox_buf: Vec<(VertexId, M)>,
    /// Delivery scratch: end offset of each block recipient's
    /// slice in `inbox_buf`.
    inbox_bounds: Vec<u32>,
    /// Whether this run has a non-empty fault plan. Cached so the round
    /// loop's fault hooks cost one predictable branch when faults are off.
    fault_mode: bool,
    /// Per-vertex crash round (`usize::MAX` = never). Fault mode only.
    crashed_at: Vec<usize>,
    /// Words the protocol *attempted* to send per arc this round (budget
    /// enforcement under faults — dropped traffic still counts against the
    /// sender's bandwidth). Fault mode only.
    att_words: Vec<u64>,
    /// Attempted-message index `k` per arc this round — the fault schedule's
    /// per-link sequence coordinate. Fault mode only.
    att_seq: Vec<u32>,
    /// `ran_round[v] == r` iff `v` already executed `on_round` in round `r`
    /// (distinct from `recipient_round`, which is re-stamped to `r + 1` as
    /// soon as someone addresses `v` for the next round). Fault mode only,
    /// for the timer-tick sweep.
    ran_round: Vec<usize>,
    /// Arcs with attempted-send accounting to reset this round.
    att_dirty: Vec<u32>,
    /// Delay-faulted messages waiting for their arrival round.
    delayed: Vec<DelayedMsg<M>>,
    /// Batched runs only ([`Simulator::run_many`]): owning instance per
    /// vertex (`u32::MAX` = inert bystander). Empty in plain runs — the
    /// flag that keeps every batching branch off the `run` hot path.
    inst_of: Vec<u32>,
    /// Slot of each vertex within its instance's `members` (batched only):
    /// where its program sits in the instance's `programs`.
    inst_slot: Vec<u32>,
    /// Per-instance metrics accumulated during a batched run.
    inst_metrics: Vec<Metrics>,
    /// Pending delay-faulted copies per instance (batched fault mode).
    inst_delayed: Vec<usize>,
    /// Whether an instance has live tick-wanting members (batched fault
    /// mode); recomputed each round.
    inst_tick: Vec<bool>,
}

/// Recipients processed per block by the delivery loop: all of a
/// block's inboxes are gathered from the `cur` plane first (a tight scan
/// over each recipient's own arc range), then its programs step. 256 recipients ×
/// a budget-bounded handful of small messages keeps the block's working
/// set inside L2 while amortizing the gather/step mode switch.
const DELIVER_BLOCK: usize = 256;

/// A message held back by a delay fault until `round`.
struct DelayedMsg<M> {
    /// Arrival round.
    round: usize,
    /// The receiving arc it travels on (fixes sender and slot order).
    arc: u32,
    /// The destination (redundant with `arc`, kept to avoid a reverse
    /// lookup on the hot injection path).
    dest: VertexId,
    /// The payload.
    msg: M,
}

impl<M: Words + Clone> Simulator<M> {
    /// Creates an empty simulator; buffers are sized lazily by each run.
    pub fn new() -> Self {
        Simulator {
            cur: MailPlane::new(),
            nxt: MailPlane::new(),
            outbox: Vec::new(),
            recipient_round: Vec::new(),
            pending_overflow: None,
            inbox_buf: Vec::new(),
            inbox_bounds: Vec::new(),
            fault_mode: false,
            crashed_at: Vec::new(),
            att_words: Vec::new(),
            att_seq: Vec::new(),
            ran_round: Vec::new(),
            att_dirty: Vec::new(),
            delayed: Vec::new(),
            inst_of: Vec::new(),
            inst_slot: Vec::new(),
            inst_metrics: Vec::new(),
            inst_delayed: Vec::new(),
            inst_tick: Vec::new(),
        }
    }

    /// Reinitializes all logical state for a run over `n` vertices and
    /// `arcs` arcs, keeping buffer capacity. Equivalent to a fresh
    /// `Simulator` — no state can leak between runs (including from a run
    /// that aborted mid-round with an error).
    fn prepare(&mut self, n: usize, arcs: usize, cfg: &SimConfig) {
        let word_bits = crate::message::word_bits(n) as u32;
        self.cur.prepare(arcs, word_bits);
        self.nxt.prepare(arcs, word_bits);
        self.outbox.clear();
        self.recipient_round.clear();
        self.recipient_round.resize(n, usize::MAX);
        self.pending_overflow = None;
        self.inbox_buf.clear();
        self.inbox_bounds.clear();
        self.delayed.clear();
        self.att_dirty.clear();
        // Leaving a previous batch's instance table in place would drag a
        // plain run onto the batched path; a batched run repopulates it after
        // this reset.
        self.inst_of.clear();
        self.inst_slot.clear();
        self.inst_metrics.clear();
        self.inst_delayed.clear();
        self.inst_tick.clear();
        self.fault_mode = !cfg.faults.is_empty();
        if self.fault_mode {
            self.crashed_at.clear();
            self.crashed_at.resize(n, usize::MAX);
            for &(v, r) in &cfg.faults.crashes {
                if v.index() < n {
                    let c = &mut self.crashed_at[v.index()];
                    *c = (*c).min(r);
                }
            }
            self.att_words.clear();
            self.att_words.resize(arcs, 0);
            self.att_seq.clear();
            self.att_seq.resize(arcs, 0);
            self.ran_round.clear();
            self.ran_round.resize(n, usize::MAX);
        } else {
            self.crashed_at.clear();
            self.att_words.clear();
            self.att_seq.clear();
            self.ran_round.clear();
        }
    }

    /// Heap bytes currently reserved by this simulator's buffers
    /// (capacities, not lengths — the figure that stays resident when the
    /// simulator is cached for reuse, see [`crate::session::KernelCache`]).
    /// The bench harness divides this by `n` for its bytes/node column.
    pub fn memory_bytes(&self) -> usize {
        let per_vertex = self.recipient_round.capacity() * 8
            + self.crashed_at.capacity() * 8
            + self.ran_round.capacity() * 8
            + self.inst_of.capacity() * 4
            + self.inst_slot.capacity() * 4;
        let fault = self.att_words.capacity() * 8
            + self.att_seq.capacity() * 4
            + self.att_dirty.capacity() * 4
            + self.delayed.capacity() * std::mem::size_of::<DelayedMsg<M>>();
        let scratch = (self.inbox_buf.capacity() + self.outbox.capacity())
            * std::mem::size_of::<(VertexId, M)>()
            + self.inbox_bounds.capacity() * 4;
        self.cur.memory_bytes() + self.nxt.memory_bytes() + per_vertex + fault + scratch
    }

    /// Queues `msg` (`w` words) on receiving arc `b` of the current plane
    /// (`now`) or the next one for `dest` to receive in round `deliver`,
    /// charging it to instance `inst` (`NIL` in plain runs). Returns the
    /// arc's word total this round.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn enqueue(
        &mut self,
        now: bool,
        b: usize,
        dest: VertexId,
        deliver: usize,
        msg: M,
        w: usize,
        inst: u32,
    ) -> u64 {
        let plane = if now { &mut self.cur } else { &mut self.nxt };
        let total = plane.push(b, msg, w);
        if self.recipient_round[dest.index()] != deliver {
            self.recipient_round[dest.index()] = deliver;
            plane.recipients.push(dest);
        }
        if inst != NIL {
            // The instance is live in the delivery round; its traffic
            // tallies land with the send, like the plane's.
            let im = &mut self.inst_metrics[inst as usize];
            im.rounds = deliver;
            im.messages += 1;
            im.words += w;
            im.max_words_edge_round = im.max_words_edge_round.max(total as usize);
        }
        total
    }

    /// Records the sends `from` left in the outbox (sent during `round`,
    /// delivered in `round + 1`) into the `nxt` plane and empties the
    /// outbox; in fault mode, resolves each message's fate first (see
    /// [`crate::faults`]).
    ///
    /// A fault-free step whose outbox is one [`BROADCAST`] is stored once
    /// (`record_broadcast`); any other broadcast is expanded into its
    /// unicasts where it stands. Destinations are validated by a merge walk
    /// over `from`'s sorted neighbor block (see module docs): the cursor's
    /// neighbor costs one compare, any other destination one binary
    /// search. Budget overflow is detected here and reported at the
    /// delivery round.
    fn record_sends(
        &mut self,
        idx: &ArcIndex,
        cfg: &SimConfig,
        from: VertexId,
        round: usize,
        metrics: &mut Metrics,
    ) -> Result<(), SimError> {
        if self.outbox.is_empty() {
            return Ok(());
        }
        // Batched runs enforce instance isolation per send; `NIL` doubles
        // as "not batched" (plain runs have an empty table).
        let from_inst = if self.inst_of.is_empty() {
            NIL
        } else {
            self.inst_of[from.index()]
        };
        let block = idx.block(from);
        let heads = block.1;
        if self.outbox.len() == 1
            && self.outbox[0].0 == BROADCAST
            && !self.fault_mode
            && self.record_broadcast(cfg, from, from_inst, heads, round)
        {
            return Ok(());
        }
        let mut cursor = 0;
        let mut result = Ok(());
        let mut out = std::mem::take(&mut self.outbox);
        // An error stops the walk; dropping the drain empties the outbox.
        'sends: for (dest, msg) in out.drain(..) {
            let slot = match heads.get(cursor) {
                Some(&w) if w == dest => cursor,
                _ => match heads.binary_search(&dest) {
                    Ok(slot) => slot,
                    // A broadcast recorded here is expanded in place: its
                    // unicasts to every neighbor, ascending.
                    Err(_) if dest == BROADCAST => {
                        for slot in 0..heads.len() {
                            let msg = msg.clone();
                            result = self
                                .record_one(cfg, from, from_inst, block, slot, msg, round, metrics);
                            if result.is_err() {
                                break 'sends;
                            }
                        }
                        cursor = heads.len();
                        continue;
                    }
                    Err(_) => {
                        result = Err(SimError::InvalidDestination { from, to: dest });
                        break;
                    }
                },
            };
            cursor = slot + 1;
            result = self.record_one(cfg, from, from_inst, block, slot, msg, round, metrics);
            if result.is_err() {
                break;
            }
        }
        self.outbox = out;
        result
    }

    /// Records one validated send of `msg` from `from` (of instance
    /// `from_inst`) to the neighbor in `slot` of its CSR `block`: the
    /// instance check, the trace's `Send`, then the fault fate or the
    /// enqueue with its budget check.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn record_one(
        &mut self,
        cfg: &SimConfig,
        from: VertexId,
        from_inst: u32,
        (first, heads, revs): (usize, &[VertexId], &[ArcId]),
        slot: usize,
        msg: M,
        round: usize,
        metrics: &mut Metrics,
    ) -> Result<(), SimError> {
        let dest = heads[slot];
        if from_inst != NIL && self.inst_of[dest.index()] != from_inst {
            return Err(SimError::CrossInstanceSend {
                from,
                to: dest,
                round,
            });
        }
        let b = revs[slot].index();
        let w = msg.words();
        if cfg.trace.is_on() {
            cfg.trace.emit(TraceEvent::Send {
                round,
                from,
                to: dest,
                words: w,
            });
        }
        if self.fault_mode {
            return self.queue_faulted(cfg, from, first + slot, b, dest, round, msg, metrics);
        }
        // The budget comparison (and the reported total) is exact.
        let total = self.enqueue(false, b, dest, round + 1, msg, w, from_inst);
        if total > cfg.budget_words as u64 && self.pending_overflow.is_none() {
            self.pending_overflow = Some(SimError::BudgetExceeded {
                from,
                to: dest,
                words: total as usize,
                budget: cfg.budget_words,
                round: round + 1,
            });
        }
        Ok(())
    }

    /// Records `from`'s one-broadcast outbox as one word in the `nxt`
    /// plane and stamps its neighbors `heads` as recipients, with one
    /// trace `Send` per neighbor. The budget is checked once: each arc
    /// carries exactly this message (a fault-free node steps at most once
    /// a round), and an overflow names the first neighbor, as the
    /// expansion's would. Returns `false`, recording nothing, when a
    /// neighbor is outside `from_inst`: the caller's expansion then raises
    /// the `CrossInstanceSend` after the same `Send` events.
    fn record_broadcast(
        &mut self,
        cfg: &SimConfig,
        from: VertexId,
        from_inst: u32,
        heads: &[VertexId],
        round: usize,
    ) -> bool {
        if from_inst != NIL && heads.iter().any(|w| self.inst_of[w.index()] != from_inst) {
            return false;
        }
        let (_, msg) = self.outbox.pop().expect("the outbox holds one broadcast");
        let Some(&to) = heads.first() else {
            return true; // an isolated node's broadcast sends nothing
        };
        let w = msg.words();
        let deg = heads.len();
        if cfg.trace.is_on() {
            for &to in heads {
                cfg.trace.emit(TraceEvent::Send {
                    round,
                    from,
                    to,
                    words: w,
                });
            }
        }
        let deliver = round + 1;
        self.nxt
            .broadcast(from, msg, w, deg, self.recipient_round.len());
        for &dest in heads {
            let stamp = &mut self.recipient_round[dest.index()];
            if *stamp != deliver {
                *stamp = deliver;
                self.nxt.recipients.push(dest);
            }
        }
        if from_inst != NIL {
            let im = &mut self.inst_metrics[from_inst as usize];
            im.rounds = deliver;
            im.messages += deg;
            im.words += deg * w;
            im.max_words_edge_round = im.max_words_edge_round.max(w);
        }
        if w > cfg.budget_words && self.pending_overflow.is_none() {
            self.pending_overflow = Some(SimError::BudgetExceeded {
                from,
                to,
                words: w,
                budget: cfg.budget_words,
                round: deliver,
            });
        }
        true
    }

    /// Fault mode's half of [`Simulator::record_sends`]: resolves the fate
    /// of one validated message from `from` on send arc `a` (receiving arc
    /// `b`) to `dest`, charging the *attempted* words to the sender's
    /// bandwidth — a protocol cannot exceed its budget just because the
    /// channel happened to drop the excess.
    #[allow(clippy::too_many_arguments)]
    fn queue_faulted(
        &mut self,
        cfg: &SimConfig,
        from: VertexId,
        a: usize,
        b: usize,
        dest: VertexId,
        round: usize,
        msg: M,
        metrics: &mut Metrics,
    ) -> Result<(), SimError> {
        let tracing = cfg.trace.is_on();
        let from_inst = if self.inst_of.is_empty() {
            NIL
        } else {
            self.inst_of[from.index()]
        };
        let w = msg.words();
        if self.att_seq[a] == 0 && self.att_words[a] == 0 {
            self.att_dirty.push(a as u32);
        }
        let k = self.att_seq[a];
        self.att_seq[a] += 1;
        self.att_words[a] += w as u64;
        if self.att_words[a] > cfg.budget_words as u64 && self.pending_overflow.is_none() {
            self.pending_overflow = Some(SimError::BudgetExceeded {
                from,
                to: dest,
                words: self.att_words[a] as usize,
                budget: cfg.budget_words,
                round: round + 1,
            });
        }
        let drop_event = || TraceEvent::Drop {
            round,
            from,
            to: dest,
            words: w,
        };
        if self.crashed_at[dest.index()] <= round {
            match cfg.faults.on_crashed_send {
                CrashPolicy::DropSilently => {
                    self.tally(metrics, from_inst, |m| &mut m.dropped, 1);
                    if tracing {
                        cfg.trace.emit(drop_event());
                    }
                    return Ok(());
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
        // `fate_canary` == `fate` unless the DST harness armed the
        // test-only `canary_skew` divergence canary (see `faults`); the
        // reference kernel always calls the honest `fate`.
        let (copies, delay) = match cfg.faults.fate_canary(from, dest, round, k) {
            Fate::Dropped => {
                self.tally(metrics, from_inst, |m| &mut m.dropped, 1);
                if tracing {
                    cfg.trace.emit(drop_event());
                }
                return Ok(());
            }
            Fate::Deliver { copies, delay } => (usize::from(copies), delay),
        };
        if copies > 1 {
            self.tally(metrics, from_inst, |m| &mut m.duplicated, copies - 1);
            if tracing {
                for _ in 1..copies {
                    cfg.trace.emit(TraceEvent::Duplicate {
                        round,
                        from,
                        to: dest,
                        words: w,
                    });
                }
            }
        }
        if delay > 0 {
            self.tally(metrics, from_inst, |m| &mut m.delayed, 1);
            if tracing {
                cfg.trace.emit(TraceEvent::Delay {
                    round,
                    from,
                    to: dest,
                    words: w,
                    deliver_round: round + 1 + delay,
                });
            }
        }
        let deliver = round + 1 + delay;
        if deliver >= self.crashed_at[dest.index()] {
            // Crash-stop: copies arriving at or after the destination's
            // crash round vanish in transit.
            self.tally(metrics, from_inst, |m| &mut m.dropped, copies);
            if tracing {
                for _ in 0..copies {
                    cfg.trace.emit(drop_event());
                }
            }
            return Ok(());
        }
        // Duplicate copies travel together and stay adjacent.
        if delay == 0 {
            for _ in 1..copies {
                self.enqueue(false, b, dest, deliver, msg.clone(), w, from_inst);
            }
            self.enqueue(false, b, dest, deliver, msg, w, from_inst);
        } else {
            let held = |msg| DelayedMsg {
                round: deliver,
                arc: b as u32,
                dest,
                msg,
            };
            for _ in 1..copies {
                self.delayed.push(held(msg.clone()));
            }
            self.delayed.push(held(msg));
            if from_inst != NIL {
                self.inst_delayed[from_inst as usize] += copies;
            }
        }
        Ok(())
    }

    /// Adds `count` to the fault counter `counter` of the run's `metrics`
    /// and, in a batched run, of the sender's instance `inst`.
    fn tally(
        &mut self,
        metrics: &mut Metrics,
        inst: u32,
        counter: fn(&mut Metrics) -> &mut usize,
        count: usize,
    ) {
        *counter(metrics) += count;
        if inst != NIL {
            *counter(&mut self.inst_metrics[inst as usize]) += count;
        }
    }

    /// One round of delivery, blocked over cache-sized recipient
    /// chunks ([`DELIVER_BLOCK`]): for each block, first *gather* every
    /// recipient's inbox out of the `cur` plane into one contiguous scratch
    /// buffer (a scan of each recipient's own receiving-arc range — the
    /// cache-hostile part of the round), then *step* the block's
    /// programs over their slices. Sends during the step phase land in the
    /// `nxt` plane, never `cur`, so gathering a block ahead of stepping it
    /// is invisible to programs; `Deliver` trace events are emitted at
    /// step time, so the event stream interleaves exactly like an
    /// unblocked loop. `step(instance, slot, ctx, inbox, outbox)` runs the
    /// recipient's `on_round`: a plain run passes instance 0 and the
    /// vertex index as the slot, a batched run the vertex's `inst_of` and
    /// `inst_slot` entries.
    fn deliver<F>(
        &mut self,
        g: &Graph,
        idx: &ArcIndex,
        cfg: &SimConfig,
        round: usize,
        mut step: F,
        metrics: &mut Metrics,
    ) -> Result<(), SimError>
    where
        F: FnMut(usize, usize, &NodeCtx<'_>, &[(VertexId, M)], &mut Vec<(VertexId, M)>),
    {
        let tracing = cfg.trace.is_on();
        let nrec = self.cur.recipients.len();
        // Only a round that carries a broadcast reads the per-sender table.
        let broadcasts = !self.cur.broadcasters.is_empty();
        let mut inboxes = std::mem::take(&mut self.inbox_buf);
        let mut bounds = std::mem::take(&mut self.inbox_bounds);
        let mut result = Ok(());
        'blocks: for lo in (0..nrec).step_by(DELIVER_BLOCK) {
            let hi = (lo + DELIVER_BLOCK).min(nrec);
            inboxes.clear();
            bounds.clear();
            for r in lo..hi {
                let v = self.cur.recipients[r];
                // Receiving arcs in slot order == sender-id order (sorted
                // adjacency); per-arc order == emission order. A sender's
                // broadcast sits at its position too: a fault-free sender
                // that broadcast queued nothing on its arcs.
                let (first, senders, _) = idx.block(v);
                if broadcasts {
                    for (b, &w) in (first..).zip(senders) {
                        self.cur.drain(b, w, &mut inboxes);
                        self.cur.copy_broadcast(w, &mut inboxes);
                    }
                } else {
                    for (b, &w) in (first..).zip(senders) {
                        self.cur.drain(b, w, &mut inboxes);
                    }
                }
                bounds.push(inboxes.len() as u32);
            }
            let mut start = 0usize;
            for r in lo..hi {
                let v = self.cur.recipients[r];
                let end = bounds[r - lo] as usize;
                let inbox = &inboxes[start..end];
                start = end;
                if tracing {
                    for (from, msg) in inbox {
                        cfg.trace.emit(TraceEvent::Deliver {
                            round,
                            from: *from,
                            to: v,
                            words: msg.words(),
                        });
                    }
                }
                let (inst, slot) = if self.inst_of.is_empty() {
                    (0, v.index())
                } else {
                    (
                        self.inst_of[v.index()] as usize,
                        self.inst_slot[v.index()] as usize,
                    )
                };
                let ctx = NodeCtx {
                    id: v,
                    neighbors: g.neighbors(v),
                    round,
                };
                step(inst, slot, &ctx, inbox, &mut self.outbox);
                if let Err(e) = self.record_sends(idx, cfg, v, round, metrics) {
                    result = Err(e);
                    break 'blocks;
                }
            }
        }
        self.inbox_buf = inboxes;
        self.inbox_bounds = bounds;
        result
    }

    /// Opens delivery round `round` once the `cur` plane holds its
    /// traffic: the abort checks in the reference kernel's order
    /// (watchdog, max rounds, then the budget overflow detected at send
    /// time), the round's trace header, fault-mode bookkeeping (fresh
    /// attempted-send tallies; delayed copies due this round join their
    /// arcs behind the on-time traffic) and the round's traffic tallies.
    fn open_round(
        &mut self,
        cfg: &SimConfig,
        round: usize,
        metrics: &mut Metrics,
    ) -> Result<(), SimError> {
        if let Some(limit) = cfg.watchdog {
            if round > limit {
                if cfg.trace.is_on() {
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
        if let Some(overflow) = self.pending_overflow.take() {
            return Err(overflow);
        }
        if cfg.trace.is_on() {
            // Only rounds that actually deliver get a RoundStart: the
            // abort checks above come first, like the error ordering.
            cfg.trace.emit(TraceEvent::RoundStart { round });
            for (i, &r) in self.crashed_at.iter().enumerate() {
                if r == round {
                    cfg.trace.emit(TraceEvent::Crash {
                        round,
                        node: VertexId::from_index(i),
                    });
                }
            }
        }
        if self.fault_mode {
            for &a in &self.att_dirty {
                self.att_words[a as usize] = 0;
                self.att_seq[a as usize] = 0;
            }
            self.att_dirty.clear();
            // Per arc, delayed copies land in `(send_round, k)` order:
            // `delayed` is appended in send order and the sweep is stable.
            for d in std::mem::take(&mut self.delayed) {
                if d.round != round {
                    self.delayed.push(d);
                    continue;
                }
                let inst = if self.inst_of.is_empty() {
                    NIL
                } else {
                    let i = self.inst_of[d.dest.index()];
                    self.inst_delayed[i as usize] -= 1;
                    i
                };
                let w = d.msg.words();
                self.enqueue(true, d.arc as usize, d.dest, round, d.msg, w, inst);
            }
        }
        metrics.max_words_edge_round = metrics.max_words_edge_round.max(self.cur.max_words);
        metrics.messages += self.cur.messages;
        metrics.words += self.cur.words;
        Ok(())
    }

    /// Closes delivery round `round`: the trace's round summary, then the
    /// `cur` plane's reset.
    fn close_round(&mut self, cfg: &SimConfig, round: usize) {
        if cfg.trace.is_on() {
            cfg.trace.emit(TraceEvent::RoundEnd {
                round,
                messages: self.cur.messages,
                words: self.cur.words,
                max_words_edge: self.cur.max_words,
            });
        }
        self.cur.reset();
    }

    /// Runs `programs` (one per vertex of `g`, indexed by vertex id) to
    /// quiescence, reusing this simulator's buffers.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] on budget violations, invalid destinations,
    /// or exceeding `cfg.max_rounds`.
    ///
    /// # Panics
    ///
    /// Panics if `programs.len() != g.vertex_count()`.
    pub fn run<P: NodeProgram<Msg = M>>(
        &mut self,
        g: &Graph,
        programs: Vec<P>,
        cfg: &SimConfig,
    ) -> Result<SimOutcome<P>, SimError> {
        programs.run_fast(self, g, &g.arc_index(), cfg)
    }

    /// Runs several vertex-disjoint [`Instance`]s to quiescence **in one
    /// shared round lattice** over `g`: one `prepare`, one mailbox arena,
    /// one round loop for the whole level of subproblems, instead of one
    /// kernel invocation each.
    ///
    /// Because the instances are vertex-disjoint (asserted) and may not
    /// exchange messages (enforced per send), each instance's execution is
    /// bit-identical to what an individual [`Simulator::run`] over the same
    /// subproblem would produce — deliveries, fault fates (keyed on
    /// `(from, to, round, k)` with per-arc `k`) and round numbering all
    /// coincide. The per-instance [`InstanceOutcome::metrics`] are
    /// therefore the *measured* parallel costs: the batch's
    /// [`MultiOutcome::metrics`]`.rounds` is their maximum, which is
    /// exactly the value [`Metrics::join_parallel`] composes analytically.
    ///
    /// Nodes of `g` not claimed by any instance are inert bystanders.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] like [`Simulator::run`], plus
    /// [`SimError::CrossInstanceSend`] if any program violates instance
    /// isolation. Abort checks (watchdog, max rounds, pending overflow) act
    /// on the shared lattice: the batch aborts iff some instance running
    /// alone would have aborted at that round.
    ///
    /// # Panics
    ///
    /// Panics if instances overlap or name vertices outside `g`.
    pub fn run_many<P: NodeProgram<Msg = M>>(
        &mut self,
        g: &Graph,
        instances: Vec<Instance<P>>,
        cfg: &SimConfig,
    ) -> Result<MultiOutcome<P>, SimError> {
        instances.run_fast(self, g, &g.arc_index(), cfg)
    }

    /// The round loop of every run: `instances` to quiescence on one
    /// shared lattice over `g`, whose arc index is `idx`. Returns the whole
    /// run's metrics and, when `batched`, each instance's.
    ///
    /// With `batched`, the kernel keeps the instance table: it asserts
    /// disjointness, rejects cross-instance sends, tallies per-instance
    /// metrics and brackets the trace with `Assign`/`InstanceEnd` events.
    /// A plain run passes one instance of every vertex without it (see
    /// `member`), so `inst_of` stays empty and no send pays for instance
    /// bookkeeping.
    pub(crate) fn lattice<P: NodeProgram<Msg = M>>(
        &mut self,
        g: &Graph,
        idx: &ArcIndex,
        instances: &mut [Instance<P>],
        batched: bool,
        cfg: &SimConfig,
    ) -> Result<(Metrics, &[Metrics]), SimError> {
        let n = g.vertex_count();
        assert_eq!(
            idx.arc_count(),
            2 * g.edge_count(),
            "arc index does not match the graph"
        );
        let k = instances.len();
        check_capacity(n, idx.arc_count())?;
        let mut metrics = Metrics::new();
        self.prepare(n, idx.arc_count(), cfg);
        let kernel = self;
        if batched {
            kernel.inst_of.resize(n, NIL);
            kernel.inst_slot.resize(n, NIL);
            for (i, inst) in instances.iter().enumerate() {
                for (slot, &v) in inst.members.iter().enumerate() {
                    assert!(v.index() < n, "instance member {v} outside the graph");
                    assert_eq!(
                        kernel.inst_of[v.index()],
                        NIL,
                        "instances must be vertex-disjoint; {v} claimed twice"
                    );
                    kernel.inst_of[v.index()] = i as u32;
                    kernel.inst_slot[v.index()] = slot as u32;
                }
            }
            kernel.inst_metrics.resize(k, Metrics::new());
            kernel.inst_delayed.resize(k, 0);
            kernel.inst_tick.resize(k, false);
        }
        let tracing = cfg.trace.is_on();
        if tracing {
            cfg.trace.emit(TraceEvent::RunStart {
                nodes: n,
                budget_words: cfg.budget_words,
            });
            if batched {
                for (i, inst) in instances.iter().enumerate() {
                    for &v in &inst.members {
                        cfg.trace.emit(TraceEvent::Assign {
                            instance: i,
                            node: v,
                        });
                    }
                }
            }
            // Round-0 crash victims never act; announce them up front.
            for (i, &r) in kernel.crashed_at.iter().enumerate() {
                if r == 0 {
                    cfg.trace.emit(TraceEvent::Crash {
                        round: 0,
                        node: VertexId::from_index(i),
                    });
                }
            }
        }

        // Init phase (round 0): sends land in the `nxt` plane for round 1.
        // Members run in instance-major member order (vertex order in a
        // plain run).
        for inst in instances.iter_mut() {
            for (slot, program) in inst.programs.iter_mut().enumerate() {
                let v = member(&inst.members, slot);
                if kernel.fault_mode && kernel.crashed_at[v.index()] == 0 {
                    continue; // crashed before the run: never acts at all
                }
                let ctx = NodeCtx {
                    id: v,
                    neighbors: g.neighbors(v),
                    round: 0,
                };
                program.init(&ctx, &mut kernel.outbox);
                kernel.record_sends(idx, cfg, v, 0, &mut metrics)?;
            }
        }
        // Does any live node still want empty-inbox wakeups next round?
        let mut tick_pending = kernel.fault_mode && kernel.refresh_ticks(instances, 1);

        let mut round = 0usize;
        loop {
            // Sends accumulated last round become this round's deliveries.
            std::mem::swap(&mut kernel.cur, &mut kernel.nxt);
            if kernel.cur.messages == 0
                && (!kernel.fault_mode || (kernel.delayed.is_empty() && !tick_pending))
            {
                break; // quiescence of the whole lattice
            }
            round += 1;
            // Per-instance round attribution: an instance is live in this
            // round iff it has deliveries queued (charged at send time, see
            // `enqueue`), delayed traffic pending, or (fault mode) a live
            // program asking for timer ticks — the predicate the individual
            // run's quiescence check evaluates.
            if kernel.fault_mode && batched {
                for i in 0..k {
                    if kernel.inst_delayed[i] > 0 || kernel.inst_tick[i] {
                        kernel.inst_metrics[i].rounds = round;
                    }
                }
            }
            kernel.open_round(cfg, round, &mut metrics)?;

            // Deliver and run recipients in first-delivery order (outcome
            // independent of this order; see module docs).
            kernel.deliver(
                g,
                idx,
                cfg,
                round,
                |inst, slot, ctx, inbox, out| {
                    instances[inst].programs[slot].on_round(ctx, inbox, out)
                },
                &mut metrics,
            )?;
            if kernel.fault_mode {
                for &v in &kernel.cur.recipients {
                    kernel.ran_round[v.index()] = round;
                }
                // Timer ticks: live non-recipients that asked for empty-inbox
                // wakeups, ascending vertex id within each instance
                // (instances are independent, so inter-instance order
                // cannot influence outcomes).
                for inst in instances.iter_mut() {
                    for (slot, program) in inst.programs.iter_mut().enumerate() {
                        let v = member(&inst.members, slot);
                        if kernel.ran_round[v.index()] == round
                            || kernel.crashed_at[v.index()] <= round
                            || !program.wants_tick()
                        {
                            continue;
                        }
                        let ctx = NodeCtx {
                            id: v,
                            neighbors: g.neighbors(v),
                            round,
                        };
                        program.on_round(&ctx, &[], &mut kernel.outbox);
                        kernel.record_sends(idx, cfg, v, round, &mut metrics)?;
                    }
                }
                tick_pending = kernel.refresh_ticks(instances, round + 1);
            }
            kernel.close_round(cfg, round);
        }
        metrics.rounds = round;
        if kernel.fault_mode {
            // Count from the kernel's own crash table rather than
            // `FaultPlan::crashed_by`: the plan may name vertices outside
            // this graph (it is graph-agnostic), and a node that does not
            // exist cannot crash.
            metrics.crashed_nodes = kernel.crashed_at.iter().filter(|&&r| r <= round).count();
            if batched {
                // Mirror the individual run: it simulates the whole graph,
                // so its crash count covers every vertex crashed by *its*
                // final round — which for instance `i` is
                // `inst_metrics[i].rounds`.
                for i in 0..k {
                    let horizon = kernel.inst_metrics[i].rounds;
                    kernel.inst_metrics[i].crashed_nodes =
                        kernel.crashed_at.iter().filter(|&&r| r <= horizon).count();
                }
            }
        }
        if tracing {
            if batched {
                for (i, &m) in kernel.inst_metrics.iter().enumerate() {
                    cfg.trace.emit(TraceEvent::InstanceEnd {
                        instance: i,
                        metrics: m,
                    });
                }
            }
            cfg.trace.emit(TraceEvent::RunEnd { metrics });
        }
        Ok((metrics, &kernel.inst_metrics))
    }

    /// Fault mode: whether some member is still alive in round `next` and
    /// wants empty-inbox wakeups; a batched run also records the answer
    /// per instance in `inst_tick` (sized in batched runs only).
    fn refresh_ticks<P: NodeProgram<Msg = M>>(
        &mut self,
        instances: &[Instance<P>],
        next: usize,
    ) -> bool {
        let mut any = false;
        for (i, inst) in instances.iter().enumerate() {
            let live = inst.programs.iter().enumerate().any(|(slot, p)| {
                let v = member(&inst.members, slot);
                self.crashed_at[v.index()] > next && p.wants_tick()
            });
            if let Some(tick) = self.inst_tick.get_mut(i) {
                *tick = live;
            }
            any |= live;
        }
        any
    }
}

impl<M: Words + Clone> Default for Simulator<M> {
    fn default() -> Self {
        Simulator::new()
    }
}

/// Runs `programs` (one per vertex of `g`, indexed by vertex id) to
/// quiescence with a freshly allocated [`Simulator`].
///
/// Convenience wrapper around [`Simulator::run`]; callers that simulate
/// repeatedly should hold a `Simulator` and reuse it, which skips the
/// kernel's buffer allocations on every run after the first.
///
/// # Errors
///
/// Propagates [`SimError`] on budget violations, invalid destinations, or
/// exceeding `cfg.max_rounds`.
///
/// # Panics
///
/// Panics if `programs.len() != g.vertex_count()`.
pub fn run<P: NodeProgram>(
    g: &Graph,
    programs: Vec<P>,
    cfg: &SimConfig,
) -> Result<SimOutcome<P>, SimError> {
    Simulator::new().run(g, programs, cfg)
}

/// Runs vertex-disjoint instances in one shared round lattice with a
/// freshly allocated [`Simulator`] (see [`Simulator::run_many`]).
///
/// # Errors
///
/// Propagates [`SimError`] like [`Simulator::run_many`].
///
/// # Panics
///
/// Panics if instances overlap or name vertices outside `g`.
pub fn run_many<P: NodeProgram>(
    g: &Graph,
    instances: Vec<Instance<P>>,
    cfg: &SimConfig,
) -> Result<MultiOutcome<P>, SimError> {
    Simulator::new().run_many(g, instances, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial flooding program: forwards the largest value seen, once per
    /// improvement; `announced` guards the initial broadcast so a node that
    /// already flooded its own value in `init` does not re-announce it when
    /// an inferior value arrives.
    struct MaxFlood {
        best: u32,
        announced: bool,
    }

    impl NodeProgram for MaxFlood {
        type Msg = u32;

        fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, u32)>) {
            self.announced = true;
            out.extend(ctx.neighbors.iter().map(|&w| (w, self.best)));
        }

        fn on_round(
            &mut self,
            ctx: &NodeCtx<'_>,
            inbox: &[(VertexId, u32)],
            out: &mut Vec<(VertexId, u32)>,
        ) {
            let incoming = inbox.iter().map(|&(_, v)| v).max().unwrap_or(0);
            if incoming > self.best || !self.announced {
                self.best = self.best.max(incoming);
                self.announced = true;
                out.extend(ctx.neighbors.iter().map(|&w| (w, self.best)));
            }
        }
    }

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1))).unwrap()
    }

    #[test]
    fn flood_converges_in_diameter_rounds() {
        let n = 10;
        let g = path(n);
        let programs: Vec<MaxFlood> = (0..n)
            .map(|i| MaxFlood {
                best: i as u32,
                announced: false,
            })
            .collect();
        let out = run(&g, programs, &SimConfig::default()).unwrap();
        for p in &out.programs {
            assert_eq!(p.best, 9);
            assert!(p.announced);
        }
        // The max starts at one end of the path: n-1 rounds to cross, plus
        // one final (useless) echo round before quiescence.
        assert_eq!(out.metrics.rounds, n);
        assert!(out.metrics.max_words_edge_round <= DEFAULT_BUDGET_WORDS);
    }

    #[test]
    fn budget_violation_detected() {
        #[derive(Debug)]
        struct Blaster;
        impl NodeProgram for Blaster {
            type Msg = Vec<u32>;
            fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, Vec<u32>)>) {
                if ctx.id == VertexId(0) {
                    out.push((VertexId(1), vec![0; 100]));
                }
            }
            fn on_round(
                &mut self,
                _: &NodeCtx<'_>,
                _: &[(VertexId, Vec<u32>)],
                _: &mut Vec<(VertexId, Vec<u32>)>,
            ) {
            }
        }
        let g = path(2);
        let err = run(&g, vec![Blaster, Blaster], &SimConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::BudgetExceeded { .. }));
    }

    #[test]
    fn invalid_destination_detected() {
        #[derive(Debug)]
        struct Wild;
        impl NodeProgram for Wild {
            type Msg = u32;
            fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, u32)>) {
                if ctx.id == VertexId(0) {
                    out.push((VertexId(2), 1)); // not a neighbor on a path of 3
                }
            }
            fn on_round(
                &mut self,
                _: &NodeCtx<'_>,
                _: &[(VertexId, u32)],
                _: &mut Vec<(VertexId, u32)>,
            ) {
            }
        }
        let g = path(3);
        let err = run(&g, vec![Wild, Wild, Wild], &SimConfig::default()).unwrap_err();
        assert_eq!(
            err,
            SimError::InvalidDestination {
                from: VertexId(0),
                to: VertexId(2)
            }
        );
    }

    #[test]
    fn out_of_range_destination_detected() {
        #[derive(Debug)]
        struct Wilder;
        impl NodeProgram for Wilder {
            type Msg = u32;
            fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, u32)>) {
                if ctx.id == VertexId(0) {
                    out.push((VertexId(99), 1)); // beyond the vertex range
                }
            }
            fn on_round(
                &mut self,
                _: &NodeCtx<'_>,
                _: &[(VertexId, u32)],
                _: &mut Vec<(VertexId, u32)>,
            ) {
            }
        }
        let g = path(2);
        let err = run(&g, vec![Wilder, Wilder], &SimConfig::default()).unwrap_err();
        assert_eq!(
            err,
            SimError::InvalidDestination {
                from: VertexId(0),
                to: VertexId(99)
            }
        );
    }

    #[test]
    fn max_rounds_guard() {
        /// Ping-pong forever between two nodes.
        #[derive(Debug)]
        struct PingPong;
        impl NodeProgram for PingPong {
            type Msg = u32;
            fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, u32)>) {
                if ctx.id == VertexId(0) {
                    out.push((VertexId(1), 0));
                }
            }
            fn on_round(
                &mut self,
                _: &NodeCtx<'_>,
                inbox: &[(VertexId, u32)],
                out: &mut Vec<(VertexId, u32)>,
            ) {
                out.extend(inbox.iter().map(|&(from, v)| (from, v + 1)));
            }
        }
        let g = path(2);
        let cfg = SimConfig {
            budget_words: 8,
            max_rounds: 50,
            ..SimConfig::default()
        };
        let err = run(&g, vec![PingPong, PingPong], &cfg).unwrap_err();
        assert_eq!(err, SimError::MaxRoundsExceeded { limit: 50 });
    }

    /// `max_rounds` is inclusive: a run that quiesces exactly at the limit
    /// succeeds; one that needs a single extra round fails. (Guards the
    /// off-by-one: `round > max_rounds` aborts, `round == max_rounds` runs.)
    #[test]
    fn max_rounds_boundary_is_inclusive() {
        /// Relay a token down a path; takes exactly n-1 delivery rounds.
        #[derive(Debug)]
        struct Relay;
        impl NodeProgram for Relay {
            type Msg = u32;
            fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, u32)>) {
                if ctx.id == VertexId(0) {
                    out.push((VertexId(1), 0));
                }
            }
            fn on_round(
                &mut self,
                ctx: &NodeCtx<'_>,
                _: &[(VertexId, u32)],
                out: &mut Vec<(VertexId, u32)>,
            ) {
                let next = VertexId(ctx.id.0 + 1);
                if ctx.neighbors.contains(&next) {
                    out.push((next, 0));
                }
            }
        }
        let n = 6; // token needs exactly n-1 = 5 rounds
        let g = path(n);
        let mk = || (0..n).map(|_| Relay).collect::<Vec<_>>();

        let exact = SimConfig {
            budget_words: 8,
            max_rounds: n - 1,
            ..SimConfig::default()
        };
        let out = run(&g, mk(), &exact).expect("quiescing at max_rounds succeeds");
        assert_eq!(out.metrics.rounds, n - 1);

        let tight = SimConfig {
            budget_words: 8,
            max_rounds: n - 2,
            ..SimConfig::default()
        };
        let err = run(&g, mk(), &tight).unwrap_err();
        assert_eq!(err, SimError::MaxRoundsExceeded { limit: n - 2 });
    }

    #[test]
    fn quiescent_from_start() {
        struct Silent;
        impl NodeProgram for Silent {
            type Msg = u32;
            fn init(&mut self, _: &NodeCtx<'_>, _: &mut Vec<(VertexId, u32)>) {}
            fn on_round(
                &mut self,
                _: &NodeCtx<'_>,
                _: &[(VertexId, u32)],
                _: &mut Vec<(VertexId, u32)>,
            ) {
            }
        }
        let g = path(4);
        let out = run(
            &g,
            vec![Silent, Silent, Silent, Silent],
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(out.metrics.rounds, 0);
        assert_eq!(out.metrics.messages, 0);
    }

    /// The u32-index capacity guard at its exact boundary: `u32::MAX` is
    /// the reserved sentinel, so counts of `u32::MAX - 1` are the largest
    /// admissible and `u32::MAX` itself must be refused — as a typed error
    /// carrying the offending counts, never a silent `as u32` truncation.
    #[test]
    fn capacity_guard_boundary() {
        const LIMIT: usize = u32::MAX as usize;
        assert_eq!(check_capacity(0, 0), Ok(()));
        assert_eq!(check_capacity(LIMIT - 1, LIMIT - 1), Ok(()));
        for (n, arcs) in [(LIMIT, 0), (0, LIMIT), (LIMIT + 7, LIMIT + 7)] {
            assert_eq!(
                check_capacity(n, arcs),
                Err(SimError::CapacityExceeded {
                    nodes: n,
                    arcs,
                    limit: LIMIT,
                }),
                "n = {n}, arcs = {arcs}"
            );
        }
        let msg = check_capacity(LIMIT, 2).unwrap_err().to_string();
        assert!(msg.contains("u32 index space"), "got: {msg}");
    }
}
