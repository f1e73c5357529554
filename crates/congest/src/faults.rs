//! Deterministic, seeded fault injection for the CONGEST kernels.
//!
//! A [`FaultPlan`] describes which message-level faults a simulation should
//! inject: per-link drop / duplicate / delay probabilities, per-node
//! crash-stops, and link-down windows. The plan lives on
//! [`SimConfig`](crate::SimConfig) and is applied by **both** kernels — the
//! allocation-free kernel in [`crate::network`] and the seed oracle in
//! [`crate::reference`] — through the same decision function, so the
//! determinism conformance suite keeps pinning them equal under faults.
//!
//! # Replayability contract
//!
//! Every per-message decision is a pure function of
//! `(plan.seed, from, to, send_round, k)`, where `k` is the index of the
//! message among everything the sender emitted over the directed link
//! `(from, to)` in `send_round`. There is **no shared RNG stream**: the two
//! kernels iterate senders in different orders (first-delivery vs. sorted),
//! and a sequential stream would make the schedule depend on that order.
//! Instead each decision seeds a fresh vendored SplitMix64 [`StdRng`]
//! (`shims/rand`) from a hash of those fields, so a fixed `(seed, plan)`
//! replays to an identical [`SimOutcome`](crate::SimOutcome) on either
//! kernel, sequentially or under the parallel bench harness.
//!
//! # Fault semantics (shared by both kernels)
//!
//! For a message sent over `(from, to)` in round `s` (nominal delivery
//! round `s + 1`):
//!
//! 1. if a [`LinkDown`] window covers the *nominal* delivery round `s + 1`,
//!    the message is dropped;
//! 2. else it is dropped with probability `drop`;
//! 3. else it is duplicated with probability `duplicate` (two identical
//!    copies, delivered back to back);
//! 4. else/additionally it is delayed with probability `delay` by a uniform
//!    `d ∈ [1, max_delay]` rounds, arriving in round `s + 1 + d` (both
//!    copies of a duplicate travel together).
//!
//! Crash-stop: a node with crash round `r` does nothing from round `r` on
//! (crash at round 0 suppresses even `init`), and any message copy whose
//! arrival round is `>= r` is discarded at the sender's queue. Sends *to* an
//! already-crashed neighbor are governed by [`CrashPolicy`].
//!
//! Delivery order at a node is normalized identically by both kernels: the
//! inbox is grouped by sender in sender-id order; within one sender, on-time
//! messages come first (in emission order, duplicate copies adjacent),
//! followed by delayed arrivals ordered by `(send_round, k)`.
//!
//! Budget enforcement under faults charges the words the protocol
//! *attempted* to send on each link per round (faults cannot launder
//! bandwidth), while [`Metrics`](crate::Metrics) congestion counters keep
//! reporting *delivered* traffic.

use std::error::Error;
use std::fmt;

use planar_graph::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The SplitMix64 finalizer: a full-avalanche bijection on `u64`.
///
/// The workspace's one audited seed-mixing primitive. Every sub-seed
/// derivation — the per-message fate hash below, the chaos sweep's
/// per-trial seeds (`planar-bench`), and the DST scenario engine's
/// dimension draws (`crates/dst`) — goes through this function, so the
/// collision analysis done for PR 4 (distinct coordinate tuples map to
/// distinct seeds) holds everywhere instead of in one copy per crate.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a sub-seed from a base seed and a coordinate tuple.
///
/// Each coordinate is independently finalized through [`splitmix64`]
/// before being folded in, so coordinates cannot carry into each other's
/// bit ranges — the collision mode the old shift-and-add packings had
/// (e.g. `(0, 256)` packing to the same value as `(1, 0)`).
pub fn mix_seed(base: u64, coords: &[u64]) -> u64 {
    let mut seed = base;
    for &coord in coords {
        seed = splitmix64(seed ^ splitmix64(coord));
    }
    seed
}

/// Per-link fault probabilities (applied independently per message).
#[derive(Clone, Debug, PartialEq)]
pub struct LinkFaults {
    /// Probability a message is silently dropped.
    pub drop: f64,
    /// Probability a surviving message is delivered twice.
    pub duplicate: f64,
    /// Probability a surviving message is delayed.
    pub delay: f64,
    /// Maximum delay in rounds; delays are uniform on `[1, max_delay]`.
    /// With `max_delay == 0` the `delay` probability is inert.
    pub max_delay: usize,
}

impl LinkFaults {
    /// No faults on this link.
    pub const NONE: LinkFaults = LinkFaults {
        drop: 0.0,
        duplicate: 0.0,
        delay: 0.0,
        max_delay: 0,
    };

    fn is_none(&self) -> bool {
        self.drop <= 0.0 && self.duplicate <= 0.0 && (self.delay <= 0.0 || self.max_delay == 0)
    }
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults::NONE
    }
}

/// A window of rounds during which a directed link delivers nothing.
///
/// The window is matched against the *nominal* delivery round
/// (`send round + 1`), before any delay draw, and is inclusive-exclusive:
/// `start <= round < end`. For a bidirectional outage add one window per
/// direction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkDown {
    /// Sender side of the dead link.
    pub from: VertexId,
    /// Receiver side of the dead link.
    pub to: VertexId,
    /// First delivery round the outage covers.
    pub start: usize,
    /// First delivery round after the outage.
    pub end: usize,
}

/// What a send addressed to an already-crashed neighbor does.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CrashPolicy {
    /// The message vanishes (counted in `Metrics::dropped`); the sender
    /// cannot tell a crashed neighbor from a lossy link. The default, and
    /// the honest distributed-systems semantics.
    #[default]
    DropSilently,
    /// Abort the run with
    /// [`SimError::DestinationCrashed`](crate::SimError::DestinationCrashed)
    /// — a debugging aid for protocols that are supposed
    /// to know which neighbors are alive.
    Error,
}

/// The resolved fate of one attempted message send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// The message never arrives.
    Dropped,
    /// The message arrives as `copies` identical copies, `delay` rounds
    /// after its nominal delivery round.
    Deliver {
        /// 1 normally, 2 when duplicated.
        copies: u8,
        /// 0 for on-time delivery.
        delay: usize,
    },
}

/// A complete, replayable fault schedule for one simulation run.
///
/// `FaultPlan::default()` is the empty plan: both kernels detect it
/// ([`FaultPlan::is_empty`]) and stay on the fault-free hot path — no
/// per-message RNG work, byte-identical outcomes and metrics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for every fault decision; `(seed, plan)` fully determines the
    /// schedule.
    pub seed: u64,
    /// Fault probabilities applied to every directed link without an
    /// override.
    pub link: LinkFaults,
    /// Per-directed-link overrides of [`FaultPlan::link`] (last match
    /// wins).
    pub link_overrides: Vec<((VertexId, VertexId), LinkFaults)>,
    /// Crash-stop schedule: `(node, round)` — the node does nothing from
    /// that round on. Duplicate entries take the earliest round.
    pub crashes: Vec<(VertexId, usize)>,
    /// Scheduled link outages.
    pub link_down: Vec<LinkDown>,
    /// Behavior of sends addressed to already-crashed nodes.
    pub on_crashed_send: CrashPolicy,
    /// **Test-only canary hook for the DST harness** (`crates/dst`): when
    /// non-zero, the fast kernel resolves message fates through
    /// [`FaultPlan::fate_canary`] with `seed ^ canary_skew` while the
    /// reference kernel keeps the honest [`FaultPlan::fate`] — a
    /// deliberately broken fate function that makes the two kernels
    /// diverge under any non-empty link-fault schedule. The DST shadow
    /// oracles must catch that divergence and the failing-seed minimizer
    /// must shrink it; nothing else may ever set this. Zero (the default)
    /// makes `fate_canary` identical to `fate`, byte for byte.
    #[doc(hidden)]
    pub canary_skew: u64,
}

impl FaultPlan {
    /// True iff this plan injects nothing, i.e. the kernels may take the
    /// fault-free hot path.
    pub fn is_empty(&self) -> bool {
        self.link.is_none()
            && self.link_overrides.iter().all(|(_, f)| f.is_none())
            && self.crashes.is_empty()
            && self.link_down.is_empty()
    }

    /// A uniform plan: every link drops/duplicates/delays with the given
    /// probabilities (delays up to `max_delay` rounds).
    pub fn uniform(seed: u64, drop: f64, duplicate: f64, delay: f64, max_delay: usize) -> Self {
        FaultPlan {
            seed,
            link: LinkFaults {
                drop,
                duplicate,
                delay,
                max_delay,
            },
            ..FaultPlan::default()
        }
    }

    /// The round at which `v` crash-stops, or `usize::MAX` if it never
    /// does.
    pub fn crash_round(&self, v: VertexId) -> usize {
        self.crashes
            .iter()
            .filter(|(c, _)| *c == v)
            .map(|(_, r)| *r)
            .min()
            .unwrap_or(usize::MAX)
    }

    /// The distinct crash-scheduled vertices, sorted.
    pub fn crash_victims(&self) -> Vec<VertexId> {
        let mut v: Vec<VertexId> = self.crashes.iter().map(|(c, _)| *c).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// How many distinct crash-scheduled vertices have crash rounds
    /// `<= round`.
    ///
    /// Plan-level only: a plan is graph-agnostic and may name vertices a
    /// given graph does not have, so this can exceed the number of nodes
    /// that actually crash in a run. The kernels report
    /// [`Metrics::crashed_nodes`](crate::Metrics) from their own per-vertex
    /// crash tables (in-range victims only) — use that for run-level
    /// accounting.
    pub fn crashed_by(&self, round: usize) -> usize {
        let mut v: Vec<VertexId> = self
            .crashes
            .iter()
            .filter(|(_, r)| *r <= round)
            .map(|(c, _)| *c)
            .collect();
        v.sort_unstable();
        v.dedup();
        v.len()
    }

    /// The fault parameters governing the directed link `(from, to)`.
    fn link_faults(&self, from: VertexId, to: VertexId) -> &LinkFaults {
        self.link_overrides
            .iter()
            .rev()
            .find(|((f, t), _)| *f == from && *t == to)
            .map(|(_, lf)| lf)
            .unwrap_or(&self.link)
    }

    /// Resolves the fate of message `k` sent over `(from, to)` in
    /// `send_round`. Pure in `(self, from, to, send_round, k)` — see the
    /// module docs for the replayability contract.
    pub fn fate(&self, from: VertexId, to: VertexId, send_round: usize, k: u32) -> Fate {
        self.fate_with_seed(self.seed, from, to, send_round, k)
    }

    /// The fast kernel's fate entry point: identical to [`FaultPlan::fate`]
    /// unless the test-only [`FaultPlan::canary_skew`] canary is armed, in
    /// which case the decision seed is skewed so the fast kernel's fault
    /// schedule deliberately diverges from the reference kernel's. See the
    /// field docs — this exists solely so the DST harness can prove its
    /// shadow oracles and minimizer catch a real cross-kernel divergence.
    #[doc(hidden)]
    pub fn fate_canary(&self, from: VertexId, to: VertexId, send_round: usize, k: u32) -> Fate {
        self.fate_with_seed(self.seed ^ self.canary_skew, from, to, send_round, k)
    }

    fn fate_with_seed(
        &self,
        seed: u64,
        from: VertexId,
        to: VertexId,
        send_round: usize,
        k: u32,
    ) -> Fate {
        let due = send_round + 1;
        if self
            .link_down
            .iter()
            .any(|w| w.from == from && w.to == to && w.start <= due && due < w.end)
        {
            return Fate::Dropped;
        }
        let lf = self.link_faults(from, to);
        if lf.is_none() {
            return Fate::Deliver {
                copies: 1,
                delay: 0,
            };
        }
        let mut rng = StdRng::seed_from_u64(mix(seed, from, to, send_round, k));
        // Fixed draw order — drop, duplicate, delay, delay amount — so the
        // schedule is stable under changes to *which* faults a plan enables.
        if unit(&mut rng) < lf.drop {
            return Fate::Dropped;
        }
        let copies = if unit(&mut rng) < lf.duplicate { 2 } else { 1 };
        let delay = if lf.max_delay > 0 && unit(&mut rng) < lf.delay {
            rng.gen_range(1..=lf.max_delay)
        } else {
            0
        };
        Fate::Deliver { copies, delay }
    }
}

/// A structural defect in a [`FaultPlan`], reported by
/// [`FaultPlan::validate`].
///
/// The kernels themselves deliberately tolerate these shapes — out-of-range
/// crash victims are ignored (pinned by the PR 4 regression suite), and
/// probabilities are only ever compared against a `[0, 1)` draw — but a
/// *generated* plan carrying one of them almost certainly means the
/// generator is buggy, silently testing less than it claims. The DST
/// scenario engine and callers constructing plans programmatically validate
/// before running.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum FaultPlanError {
    /// A drop/duplicate/delay probability is not a finite value in
    /// `[0, 1]`.
    ProbabilityOutOfRange {
        /// Which probability field (`"drop"`, `"duplicate"`, `"delay"`).
        field: &'static str,
        /// `None` for the global [`FaultPlan::link`] faults, `Some` for a
        /// per-link override.
        link: Option<(VertexId, VertexId)>,
        /// The offending value.
        value: f64,
    },
    /// A [`LinkDown`] window with `start >= end` covers no rounds: the
    /// outage it describes would silently never happen.
    EmptyLinkDownWindow {
        /// Sender side of the window's link.
        from: VertexId,
        /// Receiver side of the window's link.
        to: VertexId,
        /// The window's (inclusive) start round.
        start: usize,
        /// The window's (exclusive) end round.
        end: usize,
    },
    /// A crash entry names a vertex the graph does not have; the kernels
    /// would silently ignore it.
    CrashVictimOutOfRange {
        /// The out-of-range vertex.
        victim: VertexId,
        /// Its scheduled crash round.
        round: usize,
        /// The vertex count the plan was validated against.
        n: usize,
    },
    /// A link-down window or link override names a vertex the graph does
    /// not have; it could never match a real link.
    LinkEndpointOutOfRange {
        /// The out-of-range vertex.
        vertex: VertexId,
        /// The vertex count the plan was validated against.
        n: usize,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::ProbabilityOutOfRange { field, link, value } => match link {
                Some((a, b)) => write!(
                    f,
                    "{field} probability {value} on link override ({a}, {b}) is not in [0, 1]"
                ),
                None => write!(f, "{field} probability {value} is not in [0, 1]"),
            },
            FaultPlanError::EmptyLinkDownWindow {
                from,
                to,
                start,
                end,
            } => write!(
                f,
                "link-down window ({from}, {to}) [{start}, {end}) covers no rounds"
            ),
            FaultPlanError::CrashVictimOutOfRange { victim, round, n } => write!(
                f,
                "crash victim {victim} (round {round}) is out of range for a {n}-vertex graph"
            ),
            FaultPlanError::LinkEndpointOutOfRange { vertex, n } => write!(
                f,
                "link endpoint {vertex} is out of range for a {n}-vertex graph"
            ),
        }
    }
}

impl Error for FaultPlanError {}

fn validate_link_faults(
    lf: &LinkFaults,
    link: Option<(VertexId, VertexId)>,
) -> Result<(), FaultPlanError> {
    for (field, value) in [
        ("drop", lf.drop),
        ("duplicate", lf.duplicate),
        ("delay", lf.delay),
    ] {
        if !value.is_finite() || !(0.0..=1.0).contains(&value) {
            return Err(FaultPlanError::ProbabilityOutOfRange { field, link, value });
        }
    }
    Ok(())
}

impl FaultPlan {
    /// Validates the plan against an `n`-vertex graph: all probabilities
    /// finite and in `[0, 1]`, no empty/inverted link-down windows, every
    /// crash victim and link endpoint in range.
    ///
    /// Validation is opt-in and changes no kernel behavior: the kernels
    /// keep silently ignoring out-of-range victims (the documented PR 4
    /// semantics) so graph-agnostic plans stay usable. Callers that
    /// *generate* plans — the DST scenario engine, programmatic sweeps —
    /// call this (via [`SimConfig::validate`](crate::SimConfig::validate))
    /// to fail fast on plans that would silently test nothing.
    ///
    /// # Errors
    ///
    /// The first [`FaultPlanError`] found, in field order.
    pub fn validate(&self, n: usize) -> Result<(), FaultPlanError> {
        validate_link_faults(&self.link, None)?;
        for ((from, to), lf) in &self.link_overrides {
            for &v in [from, to] {
                if v.index() >= n {
                    return Err(FaultPlanError::LinkEndpointOutOfRange { vertex: v, n });
                }
            }
            validate_link_faults(lf, Some((*from, *to)))?;
        }
        for w in &self.link_down {
            for v in [w.from, w.to] {
                if v.index() >= n {
                    return Err(FaultPlanError::LinkEndpointOutOfRange { vertex: v, n });
                }
            }
            if w.start >= w.end {
                return Err(FaultPlanError::EmptyLinkDownWindow {
                    from: w.from,
                    to: w.to,
                    start: w.start,
                    end: w.end,
                });
            }
        }
        for &(victim, round) in &self.crashes {
            if victim.index() >= n {
                return Err(FaultPlanError::CrashVictimOutOfRange { victim, round, n });
            }
        }
        Ok(())
    }
}

/// Uniform draw in `[0, 1)` with 53 random bits (the shim RNG has no float
/// support; this is the standard mantissa construction).
fn unit(rng: &mut StdRng) -> f64 {
    const BITS: u64 = 1 << 53;
    rng.gen_range(0..BITS) as f64 / BITS as f64
}

/// Hashes the fault-decision coordinates into a seed for the per-message
/// generator (SplitMix64-style finalization per field).
fn mix(seed: u64, from: VertexId, to: VertexId, send_round: usize, k: u32) -> u64 {
    let mut h = seed ^ 0x51ED_2701_89AB_CDEF;
    for x in [from.0 as u64, to.0 as u64, send_round as u64, k as u64] {
        h ^= x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty_and_fault_free() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert_eq!(
            plan.fate(VertexId(0), VertexId(1), 3, 0),
            Fate::Deliver {
                copies: 1,
                delay: 0
            }
        );
        assert_eq!(plan.crash_round(VertexId(0)), usize::MAX);
        assert_eq!(plan.crashed_by(usize::MAX), 0);
    }

    #[test]
    fn fate_is_pure_in_its_coordinates() {
        let plan = FaultPlan::uniform(42, 0.3, 0.2, 0.3, 4);
        for k in 0..50u32 {
            let a = plan.fate(VertexId(3), VertexId(7), 11, k);
            let b = plan.fate(VertexId(3), VertexId(7), 11, k);
            assert_eq!(a, b);
        }
        // Different coordinates decouple: flipping any field may change the
        // fate, and at these rates some coordinate pair must differ.
        let fates: Vec<Fate> = (0..100)
            .map(|k| plan.fate(VertexId(0), VertexId(1), 1, k))
            .collect();
        assert!(fates.contains(&Fate::Dropped));
        assert!(fates
            .iter()
            .any(|f| matches!(f, Fate::Deliver { delay, .. } if *delay > 0)));
        assert!(fates
            .iter()
            .any(|f| matches!(f, Fate::Deliver { copies: 2, .. })));
    }

    #[test]
    fn drop_one_means_always_dropped() {
        let plan = FaultPlan::uniform(7, 1.0, 0.0, 0.0, 0);
        for r in 0..20 {
            assert_eq!(plan.fate(VertexId(1), VertexId(2), r, 0), Fate::Dropped);
        }
    }

    #[test]
    fn delay_respects_max_delay() {
        let plan = FaultPlan::uniform(9, 0.0, 0.0, 1.0, 3);
        for k in 0..200u32 {
            match plan.fate(VertexId(0), VertexId(1), 5, k) {
                Fate::Deliver { copies: 1, delay } => assert!((1..=3).contains(&delay)),
                other => panic!("unexpected fate {other:?}"),
            }
        }
    }

    #[test]
    fn link_down_window_matches_nominal_delivery_round() {
        let mut plan = FaultPlan::default();
        plan.link_down.push(LinkDown {
            from: VertexId(0),
            to: VertexId(1),
            start: 3,
            end: 5,
        });
        assert!(!plan.is_empty());
        // Sent in round 2 => due round 3: inside the window.
        assert_eq!(plan.fate(VertexId(0), VertexId(1), 2, 0), Fate::Dropped);
        assert_eq!(plan.fate(VertexId(0), VertexId(1), 3, 0), Fate::Dropped);
        // Due round 5 is past the (exclusive) end; due round 2 is before it.
        assert_eq!(
            plan.fate(VertexId(0), VertexId(1), 4, 0),
            Fate::Deliver {
                copies: 1,
                delay: 0
            }
        );
        assert_eq!(
            plan.fate(VertexId(0), VertexId(1), 1, 0),
            Fate::Deliver {
                copies: 1,
                delay: 0
            }
        );
        // The reverse direction is unaffected.
        assert_eq!(
            plan.fate(VertexId(1), VertexId(0), 2, 0),
            Fate::Deliver {
                copies: 1,
                delay: 0
            }
        );
    }

    #[test]
    fn overrides_shadow_the_global_link_faults() {
        let mut plan = FaultPlan::uniform(1, 1.0, 0.0, 0.0, 0);
        plan.link_overrides
            .push(((VertexId(0), VertexId(1)), LinkFaults::NONE));
        assert_eq!(
            plan.fate(VertexId(0), VertexId(1), 0, 0),
            Fate::Deliver {
                copies: 1,
                delay: 0
            }
        );
        assert_eq!(plan.fate(VertexId(1), VertexId(0), 0, 0), Fate::Dropped);
    }

    #[test]
    fn crash_bookkeeping() {
        let mut plan = FaultPlan::default();
        plan.crashes.push((VertexId(4), 7));
        plan.crashes.push((VertexId(4), 3)); // earliest entry wins
        plan.crashes.push((VertexId(2), 10));
        assert!(!plan.is_empty());
        assert_eq!(plan.crash_round(VertexId(4)), 3);
        assert_eq!(plan.crash_round(VertexId(2)), 10);
        assert_eq!(plan.crash_victims(), vec![VertexId(2), VertexId(4)]);
        assert_eq!(plan.crashed_by(2), 0);
        assert_eq!(plan.crashed_by(3), 1);
        assert_eq!(plan.crashed_by(10), 2);
    }

    #[test]
    fn mix_seed_is_collision_resistant_and_order_sensitive() {
        // The shared mixer must keep the PR 4 guarantee the chaos sweep
        // relied on: distinct coordinate tuples map to distinct seeds, and
        // coordinate order matters (no commutative folding).
        let mut seen = std::collections::HashSet::new();
        for a in 0..40u64 {
            for b in 0..40u64 {
                assert!(seen.insert(mix_seed(7, &[a, b])), "collision at ({a}, {b})");
            }
        }
        assert_ne!(mix_seed(7, &[1, 2]), mix_seed(7, &[2, 1]));
        assert_ne!(mix_seed(7, &[0]), mix_seed(8, &[0]));
        // The old carry-prone packing's canonical collision must not exist.
        assert_ne!(mix_seed(0, &[0, 256]), mix_seed(0, &[1, 0]));
    }

    #[test]
    fn validate_accepts_sane_plans_and_defaults() {
        assert_eq!(FaultPlan::default().validate(0), Ok(()));
        let mut plan = FaultPlan::uniform(3, 0.1, 0.05, 0.1, 3);
        plan.crashes.push((VertexId(9), 4));
        plan.link_down.push(LinkDown {
            from: VertexId(0),
            to: VertexId(1),
            start: 2,
            end: 5,
        });
        plan.link_overrides
            .push(((VertexId(1), VertexId(0)), LinkFaults::NONE));
        assert_eq!(plan.validate(10), Ok(()));
    }

    #[test]
    fn validate_rejects_out_of_range_probabilities() {
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let plan = FaultPlan::uniform(1, bad, 0.0, 0.0, 0);
            assert!(matches!(
                plan.validate(4),
                Err(FaultPlanError::ProbabilityOutOfRange { field: "drop", .. })
            ));
        }
        let mut plan = FaultPlan::default();
        plan.link_overrides.push((
            (VertexId(0), VertexId(1)),
            LinkFaults {
                drop: 0.0,
                duplicate: 2.0,
                delay: 0.0,
                max_delay: 0,
            },
        ));
        assert!(matches!(
            plan.validate(4),
            Err(FaultPlanError::ProbabilityOutOfRange {
                field: "duplicate",
                link: Some(_),
                ..
            })
        ));
    }

    #[test]
    fn validate_rejects_empty_windows_and_out_of_range_victims() {
        let mut plan = FaultPlan::default();
        plan.link_down.push(LinkDown {
            from: VertexId(0),
            to: VertexId(1),
            start: 5,
            end: 5,
        });
        assert!(matches!(
            plan.validate(4),
            Err(FaultPlanError::EmptyLinkDownWindow {
                start: 5,
                end: 5,
                ..
            })
        ));

        let mut plan = FaultPlan::default();
        plan.crashes.push((VertexId(4), 0));
        assert!(matches!(
            plan.validate(4),
            Err(FaultPlanError::CrashVictimOutOfRange {
                victim: VertexId(4),
                n: 4,
                ..
            })
        ));
        assert_eq!(plan.validate(5), Ok(()));

        let mut plan = FaultPlan::default();
        plan.link_down.push(LinkDown {
            from: VertexId(7),
            to: VertexId(1),
            start: 0,
            end: 2,
        });
        assert!(matches!(
            plan.validate(4),
            Err(FaultPlanError::LinkEndpointOutOfRange {
                vertex: VertexId(7),
                n: 4
            })
        ));
    }

    #[test]
    fn canary_skew_zero_is_the_honest_fate_function() {
        let plan = FaultPlan::uniform(42, 0.3, 0.2, 0.3, 4);
        assert_eq!(plan.canary_skew, 0, "default plan must be canary-free");
        for k in 0..100u32 {
            assert_eq!(
                plan.fate(VertexId(3), VertexId(7), 11, k),
                plan.fate_canary(VertexId(3), VertexId(7), 11, k)
            );
        }
    }

    #[test]
    fn canary_skew_diverges_from_the_honest_fates() {
        let mut plan = FaultPlan::uniform(42, 0.3, 0.2, 0.3, 4);
        plan.canary_skew = 0xDEAD_BEEF;
        let diverged = (0..200u32)
            .filter(|&k| {
                plan.fate(VertexId(0), VertexId(1), 1, k)
                    != plan.fate_canary(VertexId(0), VertexId(1), 1, k)
            })
            .count();
        assert!(diverged > 0, "skewed canary must change some fates");
    }

    #[test]
    fn drop_rate_is_roughly_respected() {
        let plan = FaultPlan::uniform(123, 0.25, 0.0, 0.0, 0);
        let dropped = (0..4000u32)
            .filter(|&k| plan.fate(VertexId(5), VertexId(6), 1, k) == Fate::Dropped)
            .count();
        // 4000 Bernoulli(0.25) trials: expect ~1000, allow a wide margin.
        assert!((800..1200).contains(&dropped), "dropped = {dropped}");
    }
}
