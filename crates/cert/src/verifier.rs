//! The O(1)-round distributed verifier (the *verifier* side of the
//! proof-labeling scheme).
//!
//! [`CertVerifier`] is an ordinary event-driven [`NodeProgram`]: it runs
//! unchanged on the fast kernel, the reference kernel, and inside the
//! reliable-delivery wrapper. Fault-free it takes exactly **2 rounds**
//! regardless of `n`:
//!
//! * **init** — purely local checks (rotation is a permutation of the true
//!   neighbor set, label count and canonicity, root/parent/depth flag
//!   consistency), then one `Opening` message (≤ 6 words: root, parent,
//!   depth, face label of the arc) per incident edge;
//! * **round 1** — openings arrive; each node answers with its subtree
//!   `Counters` (6 words) to every neighbor;
//! * **round 2** — counters arrive; each node runs the neighborhood checks
//!   (face closure, root uniformity, parent/child depths, counter sums,
//!   and — at component roots — the Euler bound `f = m − n + 2`) and fixes
//!   its verdict.
//!
//! Both message variants fit the default 8-word CONGEST budget. The
//! program is event-driven (no round-number arithmetic), so delayed or
//! retransmitted deliveries under the reliable wrapper change nothing; a
//! node that never hears from every neighbor simply stays
//! [`Verdict::Incomplete`], which the report treats as non-acceptance.

use congest_sim::{
    run, Metrics, NodeCtx, NodeProgram, SimConfig, SimError, SimOutcome, Words, BROADCAST,
};
use planar_graph::{Graph, RotationSystem, VertexId};

use crate::certificate::Certificate;
use crate::error::CertError;

/// Messages exchanged by the verifier; both variants fit the default
/// 8-word budget.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertMsg {
    /// Round-0 certificate opening, sent over every incident edge.
    Opening {
        /// Sender's claimed component root.
        root: VertexId,
        /// Sender's claimed tree parent.
        parent: Option<VertexId>,
        /// Sender's claimed tree depth.
        depth: u32,
        /// Sender's face label for the arc this message travels on.
        label: (VertexId, VertexId),
    },
    /// Round-1 subtree counters, sent to every neighbor.
    Counters {
        /// Claimed subtree vertex count.
        vertices: u64,
        /// Claimed subtree degree sum.
        arcs: u64,
        /// Claimed subtree face-leader count.
        faces: u64,
    },
}

impl Words for CertMsg {
    fn words(&self) -> usize {
        match self {
            CertMsg::Opening { parent, .. } => 1 + parent.words() + 1 + 2,
            CertMsg::Counters { .. } => 6,
        }
    }
}

/// A single failed check, attributed to the node that detected it.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Violation {
    /// The node's rotation is not a permutation of its true neighbor set.
    RotationNotPermutation,
    /// The certificate does not carry exactly one label per incident arc.
    LabelCountMismatch,
    /// A face label is lexicographically larger than the arc it labels
    /// (labels must be orbit minima, hence `<=` every orbit member).
    LabelNotCanonical {
        /// Rotation position of the offending label.
        slot: usize,
    },
    /// The label received for an incoming arc differs from this node's
    /// label for that arc's face successor — the face orbit is broken.
    FaceClosure {
        /// The neighbor whose arc failed the closure check.
        from: VertexId,
    },
    /// A neighbor claims a different component root.
    RootMismatch {
        /// The disagreeing neighbor.
        neighbor: VertexId,
    },
    /// The claimed tree parent is not a neighbor.
    ParentNotNeighbor,
    /// The parent's claimed depth is not this node's depth minus one.
    ParentDepth,
    /// A neighbor claiming this node as parent has the wrong depth.
    ChildDepth {
        /// The offending child.
        child: VertexId,
    },
    /// Root/parent/depth flags are inconsistent (a root with a parent or
    /// nonzero depth, a non-root without a parent, ...).
    RootFlags,
    /// The claimed subtree counters do not equal the node's local
    /// contribution plus its children's claims.
    CounterMismatch,
    /// At a component root: the aggregated counters violate Euler's
    /// formula `f = m − n + 2` (or the isolated-vertex convention).
    EulerViolation,
}

/// Final state of one node after the verifier ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every check passed.
    Accept,
    /// At least one check failed (see [`CertVerifier::violations`]).
    Reject,
    /// The node never received both messages from every neighbor (message
    /// loss without reliable delivery); treated as non-acceptance.
    Incomplete,
}

/// The fields of a received [`CertMsg::Opening`]: `(root, parent, depth,
/// label of the connecting arc)`.
type OpeningFields = (VertexId, Option<VertexId>, u32, (VertexId, VertexId));

/// What a node knows about one neighbor, kept at the neighbor's slot in
/// the node's sorted neighbor list.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Slot {
    /// First position of the neighbor in the claimed rotation, or
    /// `ABSENT`.
    rotation_pos: u32,
    /// Which messages arrived, whether the neighbor is a child, and the
    /// checks its opening failed (the `Slot::*` bits).
    flags: u8,
    /// The neighbor's claimed subtree counters.
    counters: (u64, u64, u64),
}

/// Marks a neighbor the claimed rotation does not mention.
const ABSENT: u32 = u32::MAX;

impl Slot {
    const OPENED: u8 = 1;
    const COUNTED: u8 = 1 << 1;
    const CHILD: u8 = 1 << 2;
    const ROOT_MISMATCH: u8 = 1 << 3;
    const FACE_CLOSURE: u8 = 1 << 4;
    const CHILD_DEPTH: u8 = 1 << 5;
}

/// Per-node verifier program. Construct one per vertex from that vertex's
/// rotation order and certificate (both borrowed), then run on any
/// kernel.
///
/// Its state is one slot per neighbor, indexed by the neighbor's
/// position in the sorted neighbor list. `init` checks the permutation
/// once and records each neighbor's rotation position; a message is filed
/// by a binary search for its sender, and an opening is checked when it
/// arrives. The failed checks are reported in neighbor order when the
/// exchange completes, so arrival order changes nothing.
#[derive(Clone, Debug, PartialEq)]
pub struct CertVerifier<'a> {
    rotation: &'a [VertexId],
    cert: &'a Certificate,
    slots: Vec<Slot>,
    /// Whether the rotation is usable for positional lookups: a
    /// permutation of the true neighbors, with one label per entry.
    rotation_ok: bool,
    /// The claimed depth the parent opened with.
    parent_depth: Option<u32>,
    openings: usize,
    counters: usize,
    sent_counters: bool,
    done: bool,
    violations: Vec<Violation>,
}

impl<'a> CertVerifier<'a> {
    /// Creates the verifier for one node from its local embedding output
    /// (claimed clockwise rotation order) and its certificate. The
    /// rotation is taken as claimed — checking it against the true
    /// neighbor set is the verifier's first job.
    pub fn new(rotation: &'a [VertexId], cert: &'a Certificate) -> Self {
        CertVerifier {
            rotation,
            cert,
            slots: Vec::new(),
            rotation_ok: false,
            parent_depth: None,
            openings: 0,
            counters: 0,
            sent_counters: false,
            done: false,
            violations: Vec::new(),
        }
    }

    /// The node's verdict after the run.
    pub fn verdict(&self) -> Verdict {
        if !self.done {
            Verdict::Incomplete
        } else if self.violations.is_empty() {
            Verdict::Accept
        } else {
            Verdict::Reject
        }
    }

    /// Every check this node failed, in detection order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Local (round-0) checks: everything decidable from the node's own
    /// rotation and certificate. Builds the neighbor slots and records
    /// where each neighbor first appears in the rotation.
    fn local_checks(&mut self, ctx: &NodeCtx<'_>) {
        let blank = Slot {
            rotation_pos: ABSENT,
            flags: 0,
            counters: (0, 0, 0),
        };
        self.slots = vec![blank; ctx.neighbors.len()];
        // A list of the neighbors' length that names only neighbors, none
        // twice, is a permutation of them.
        let mut permutes = self.rotation.len() == ctx.neighbors.len();
        for (p, w) in self.rotation.iter().enumerate() {
            match ctx.neighbors.binary_search(w) {
                Ok(s) if self.slots[s].rotation_pos == ABSENT => {
                    self.slots[s].rotation_pos = p as u32;
                }
                _ => permutes = false,
            }
        }
        if !permutes {
            self.violations.push(Violation::RotationNotPermutation);
        }
        self.rotation_ok = permutes && self.cert.labels.len() == self.rotation.len();
        if self.cert.labels.len() != self.rotation.len() {
            self.violations.push(Violation::LabelCountMismatch);
        } else {
            for (slot, (&w, &label)) in self
                .rotation
                .iter()
                .zip(self.cert.labels.iter())
                .enumerate()
            {
                if label > (ctx.id, w) {
                    self.violations.push(Violation::LabelNotCanonical { slot });
                }
            }
        }
        match self.cert.parent {
            Some(p) => {
                if ctx.neighbors.binary_search(&p).is_err() {
                    self.violations.push(Violation::ParentNotNeighbor);
                }
                if self.cert.depth == 0 || ctx.id == self.cert.root {
                    self.violations.push(Violation::RootFlags);
                }
            }
            None => {
                if self.cert.depth != 0 || ctx.id != self.cert.root {
                    self.violations.push(Violation::RootFlags);
                }
            }
        }
    }

    /// Files the first opening from the neighbor at slot `s` and runs the
    /// checks it enables.
    fn open(&mut self, ctx: &NodeCtx<'_>, s: usize, (root, parent, depth, label): OpeningFields) {
        let deg = ctx.neighbors.len();
        let slot = &mut self.slots[s];
        if slot.flags & Slot::OPENED != 0 {
            return;
        }
        slot.flags |= Slot::OPENED;
        self.openings += 1;
        if root != self.cert.root {
            slot.flags |= Slot::ROOT_MISMATCH;
        }
        // Face closure: the label opened on the incoming arc (nb, v) must
        // equal this node's label for that arc's face successor (v, w),
        // where w follows nb in the rotation at v.
        if self.rotation_ok {
            let p = slot.rotation_pos as usize;
            if label != self.cert.labels[(p + 1) % deg] {
                slot.flags |= Slot::FACE_CLOSURE;
            }
        }
        if parent == Some(ctx.id) {
            slot.flags |= Slot::CHILD;
            if depth != self.cert.depth.wrapping_add(1) {
                slot.flags |= Slot::CHILD_DEPTH;
            }
        }
        if self.cert.parent == Some(ctx.neighbors[s]) {
            self.parent_depth = Some(depth);
        }
    }

    /// Files the first counters from the neighbor at slot `s`.
    fn count(&mut self, s: usize, counters: (u64, u64, u64)) {
        let slot = &mut self.slots[s];
        if slot.flags & Slot::COUNTED != 0 {
            return;
        }
        slot.flags |= Slot::COUNTED;
        slot.counters = counters;
        self.counters += 1;
    }

    /// Neighborhood checks, run once both messages have arrived from every
    /// neighbor: the per-neighbor failures in neighbor order, then the
    /// parent's depth and the counters.
    fn neighborhood_checks(&mut self, ctx: &NodeCtx<'_>) {
        for (&nb, slot) in ctx.neighbors.iter().zip(&self.slots) {
            if slot.flags & Slot::ROOT_MISMATCH != 0 {
                self.violations
                    .push(Violation::RootMismatch { neighbor: nb });
            }
            if slot.flags & Slot::FACE_CLOSURE != 0 {
                self.violations.push(Violation::FaceClosure { from: nb });
            }
            if slot.flags & Slot::CHILD_DEPTH != 0 {
                self.violations.push(Violation::ChildDepth { child: nb });
            }
        }
        if self.cert.parent.is_some()
            && self.parent_depth.and_then(|d| d.checked_add(1)) != Some(self.cert.depth)
        {
            self.violations.push(Violation::ParentDepth);
        }
        // Counter consistency: the claimed subtree must equal this node's
        // own contribution plus the claims of every neighbor naming it as
        // parent. Wrapping arithmetic: corrupt claims may sit near
        // `u64::MAX` and must produce a mismatch, not a panic.
        let leaders = if self.rotation_ok {
            self.rotation
                .iter()
                .zip(self.cert.labels.iter())
                .filter(|&(&w, &l)| l == (ctx.id, w))
                .count() as u64
        } else {
            0
        };
        let mut sum = (1u64, ctx.neighbors.len() as u64, leaders);
        for slot in &self.slots {
            if slot.flags & Slot::CHILD != 0 {
                let (a, b, c) = slot.counters;
                sum.0 = sum.0.wrapping_add(a);
                sum.1 = sum.1.wrapping_add(b);
                sum.2 = sum.2.wrapping_add(c);
            }
        }
        if sum
            != (
                self.cert.sub_vertices,
                self.cert.sub_arcs,
                self.cert.sub_faces,
            )
        {
            self.violations.push(Violation::CounterMismatch);
        }
        if self.cert.parent.is_none() && ctx.id == self.cert.root {
            self.euler_check();
        }
    }

    /// The component root's Euler check on the aggregated counters.
    fn euler_check(&mut self) {
        let (n, a, f) = (
            self.cert.sub_vertices as i128,
            self.cert.sub_arcs as i128,
            self.cert.sub_faces as i128,
        );
        let ok = if n == 1 {
            // Isolated vertex: no arcs, no faces (genus 0 by convention).
            a == 0 && f == 0
        } else {
            // f = m − n + 2 with m = a / 2; claimed faces never exceed the
            // true face count, so equality forces genus 0.
            a % 2 == 0 && f == a / 2 - n + 2
        };
        if !ok {
            self.violations.push(Violation::EulerViolation);
        }
    }
}

impl NodeProgram for CertVerifier<'_> {
    type Msg = CertMsg;

    fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, Self::Msg)>) {
        self.local_checks(ctx);
        if ctx.neighbors.is_empty() {
            // Degree-0 node: nothing to exchange; the verdict is local.
            // Counters must be exactly the isolated-vertex contribution.
            if (
                self.cert.sub_vertices,
                self.cert.sub_arcs,
                self.cert.sub_faces,
            ) != (1, 0, 0)
            {
                self.violations.push(Violation::CounterMismatch);
            }
            self.euler_check();
            self.done = true;
            return;
        }
        let fallback = (ctx.id, ctx.id);
        out.extend(ctx.neighbors.iter().zip(&self.slots).map(|(&w, slot)| {
            // Open the label of the arc towards w. A corrupt rotation
            // may not mention w (or mention it twice — first position
            // wins); send a placeholder so neighbors still terminate.
            // This node already recorded RotationNotPermutation.
            let label = self
                .cert
                .labels
                .get(slot.rotation_pos as usize)
                .copied()
                .unwrap_or(fallback);
            (
                w,
                CertMsg::Opening {
                    root: self.cert.root,
                    parent: self.cert.parent,
                    depth: self.cert.depth,
                    label,
                },
            )
        }));
    }

    fn on_round(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: &[(VertexId, Self::Msg)],
        out: &mut Vec<(VertexId, Self::Msg)>,
    ) {
        // Inboxes usually arrive sorted by sender, so the slot after the
        // previous sender is tried before the binary search.
        let mut next = 0;
        for (from, msg) in inbox {
            let s = if ctx.neighbors.get(next) == Some(from) {
                next
            } else if let Ok(s) = ctx.neighbors.binary_search(from) {
                s
            } else {
                continue;
            };
            next = s + 1;
            // First delivery wins; duplicates (possible under fault
            // injection) are ignored, keeping the program idempotent.
            match *msg {
                CertMsg::Opening {
                    root,
                    parent,
                    depth,
                    label,
                } => self.open(ctx, s, (root, parent, depth, label)),
                CertMsg::Counters {
                    vertices,
                    arcs,
                    faces,
                } => self.count(s, (vertices, arcs, faces)),
            }
        }
        if !self.sent_counters {
            self.sent_counters = true;
            let msg = CertMsg::Counters {
                vertices: self.cert.sub_vertices,
                arcs: self.cert.sub_arcs,
                faces: self.cert.sub_faces,
            };
            out.push((BROADCAST, msg));
        }
        if !self.done
            && self.openings == ctx.neighbors.len()
            && self.counters == ctx.neighbors.len()
        {
            self.neighborhood_checks(ctx);
            self.done = true;
        }
    }
}

/// Outcome of a distributed verification run.
#[derive(Clone, Debug, PartialEq)]
pub struct VerifyReport {
    /// Whether every node accepted. `false` if any node rejected *or*
    /// stayed incomplete.
    pub accepted: bool,
    /// Rejecting nodes with the checks they failed, ascending by id.
    pub rejections: Vec<(VertexId, Vec<Violation>)>,
    /// Nodes that never completed the exchange (lost messages), ascending.
    pub incomplete: Vec<VertexId>,
    /// Kernel cost of the verification; `phase_rounds.cert` is stamped
    /// with the round count (O(1): 2 rounds fault-free).
    pub metrics: Metrics,
    /// Largest per-node certificate, in words.
    pub max_cert_words: usize,
    /// Total certificate volume across all nodes, in words.
    pub total_cert_words: usize,
}

/// Runs the distributed verifier on *raw* per-vertex rotation orders —
/// the general entry point, accepting corrupted rotations that
/// [`RotationSystem::new`] would refuse to represent (the mutation
/// soundness suite needs exactly that). `run` executes the verifier
/// programs on `g`: a kernel entry point of the caller's choice (fast,
/// reference, reliable-wrapped, or a warm session).
///
/// # Errors
///
/// [`CertError::BadInput`] if the order or certificate count does not
/// match `g`; [`CertError::Sim`] if the kernel aborts.
pub fn verify_orders_with<'a>(
    g: &Graph,
    orders: &'a [Vec<VertexId>],
    certs: &'a [Certificate],
    run: impl FnOnce(Vec<CertVerifier<'a>>) -> Result<SimOutcome<CertVerifier<'a>>, SimError>,
) -> Result<VerifyReport, CertError> {
    if orders.len() != g.vertex_count() {
        return Err(CertError::BadInput(format!(
            "graph has {} vertices, rotation orders {}, certificates {}",
            g.vertex_count(),
            orders.len(),
            certs.len()
        )));
    }
    verify_with(g, |v| &orders[v.index()], certs, run)
}

/// The verifier run shared by both entry points: `order_at` lends each
/// node its claimed rotation.
fn verify_with<'a>(
    g: &Graph,
    order_at: impl Fn(VertexId) -> &'a [VertexId],
    certs: &'a [Certificate],
    run: impl FnOnce(Vec<CertVerifier<'a>>) -> Result<SimOutcome<CertVerifier<'a>>, SimError>,
) -> Result<VerifyReport, CertError> {
    let n = g.vertex_count();
    if certs.len() != n {
        return Err(CertError::BadInput(format!(
            "graph has {n} vertices, rotation orders {n}, certificates {}",
            certs.len()
        )));
    }
    let programs: Vec<CertVerifier<'a>> = g
        .vertices()
        .map(|v| CertVerifier::new(order_at(v), &certs[v.index()]))
        .collect();
    let out = run(programs)?;

    let mut rejections = Vec::new();
    let mut incomplete = Vec::new();
    for (v, p) in out.programs.iter().enumerate() {
        match p.verdict() {
            Verdict::Accept => {}
            Verdict::Reject => {
                rejections.push((VertexId::from_index(v), p.violations().to_vec()));
            }
            Verdict::Incomplete => incomplete.push(VertexId::from_index(v)),
        }
    }
    let mut metrics = out.metrics;
    metrics.phase_rounds.cert = metrics.rounds;
    let max_cert_words = certs.iter().map(Certificate::words).max().unwrap_or(0);
    let total_cert_words = certs.iter().map(Certificate::words).sum();
    Ok(VerifyReport {
        accepted: rejections.is_empty() && incomplete.is_empty(),
        rejections,
        incomplete,
        metrics,
        max_cert_words,
        total_cert_words,
    })
}

/// Runs the distributed verifier for the embedding `rot` of `g`, with
/// `run` executing the programs (see [`verify_orders_with`]).
///
/// # Errors
///
/// As [`verify_orders_with`].
pub fn verify_distributed_with<'a>(
    g: &Graph,
    rot: &'a RotationSystem,
    certs: &'a [Certificate],
    run: impl FnOnce(Vec<CertVerifier<'a>>) -> Result<SimOutcome<CertVerifier<'a>>, SimError>,
) -> Result<VerifyReport, CertError> {
    if rot.vertex_count() != g.vertex_count() {
        return Err(CertError::BadInput(format!(
            "graph has {} vertices, rotation system {}",
            g.vertex_count(),
            rot.vertex_count()
        )));
    }
    verify_with(g, |v| rot.order_at(v), certs, run)
}

/// [`verify_distributed_with`] on the fast kernel without reliability —
/// the common case.
///
/// # Errors
///
/// As [`verify_distributed_with`].
pub fn verify_distributed(
    g: &Graph,
    rot: &RotationSystem,
    certs: &[Certificate],
    cfg: &SimConfig,
) -> Result<VerifyReport, CertError> {
    verify_distributed_with(g, rot, certs, |programs| run(g, programs, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::build_certificates;
    use crate::Certificate;

    fn ring(n: u32) -> (Graph, RotationSystem) {
        let g = Graph::from_edges(n as usize, (0..n).map(|i| (i, (i + 1) % n))).unwrap();
        let rot = RotationSystem::sorted_default(&g);
        assert!(rot.is_planar_embedding());
        (g, rot)
    }

    #[test]
    fn honest_certificates_accept_in_two_rounds() {
        let (g, rot) = ring(12);
        let certs = build_certificates(&g, &rot).unwrap();
        let report = verify_distributed(&g, &rot, &certs, &SimConfig::default()).unwrap();
        assert!(report.accepted, "rejections: {:?}", report.rejections);
        assert_eq!(report.metrics.rounds, 2, "verification must be O(1)");
        assert_eq!(report.metrics.phase_rounds.cert, 2);
        // Ring: degree 2 everywhere → 10 fixed words + 2·2 label words.
        assert!(report.max_cert_words <= 10 + 4);
    }

    #[test]
    fn fast_and_reference_agree() {
        let (g, rot) = ring(9);
        let certs = build_certificates(&g, &rot).unwrap();
        let a = verify_distributed(&g, &rot, &certs, &SimConfig::default()).unwrap();
        let b = verify_distributed_with(&g, &rot, &certs, |programs| {
            congest_sim::reference::run_reference(&g, programs, &SimConfig::default())
        })
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn nonplanar_rotation_with_honest_certificates_is_rejected() {
        // K4's sorted-default rotation has genus 1; the honest builder's
        // counters then fail the root's Euler check.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
        let rot = RotationSystem::sorted_default(&g);
        assert!(!rot.is_planar_embedding());
        let certs = build_certificates(&g, &rot).unwrap();
        let report = verify_distributed(&g, &rot, &certs, &SimConfig::default()).unwrap();
        assert!(!report.accepted);
        assert!(report
            .rejections
            .iter()
            .any(|(_, vs)| vs.contains(&Violation::EulerViolation)));
    }

    #[test]
    fn isolated_vertices_verify_locally() {
        let g = Graph::new(3);
        let rot = RotationSystem::sorted_default(&g);
        let certs = build_certificates(&g, &rot).unwrap();
        let report = verify_distributed(&g, &rot, &certs, &SimConfig::default()).unwrap();
        assert!(report.accepted);
        assert_eq!(report.metrics.rounds, 0);
    }

    #[test]
    fn disconnected_graph_verifies_per_component() {
        let g =
            Graph::from_edges(8, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 7), (7, 4)]).unwrap();
        let rot = RotationSystem::sorted_default(&g);
        assert!(rot.is_planar_embedding());
        let certs = build_certificates(&g, &rot).unwrap();
        let report = verify_distributed(&g, &rot, &certs, &SimConfig::default()).unwrap();
        assert!(report.accepted, "rejections: {:?}", report.rejections);
    }

    /// Honest certificates for a triangle, whose root 2 is the parent of
    /// 0 and 1, and the messages the neighbors of `node` send it:
    /// `(sender, opening, counters)`.
    type Driven = (Vec<Certificate>, Vec<(VertexId, CertMsg, CertMsg)>);

    fn triangle_inputs(node: VertexId) -> Driven {
        let (g, rot) = ring(3);
        let certs = build_certificates(&g, &rot).unwrap();
        let mut to_node = Vec::new();
        for &v in g.neighbors(node) {
            let mut p = CertVerifier::new(rot.order_at(v), &certs[v.index()]);
            let mut out = Vec::new();
            p.init(&ctx_of(&g, v), &mut out);
            let (_, opening) = out.into_iter().find(|(to, _)| *to == node).unwrap();
            let c = &certs[v.index()];
            let counters = CertMsg::Counters {
                vertices: c.sub_vertices,
                arcs: c.sub_arcs,
                faces: c.sub_faces,
            };
            to_node.push((v, opening, counters));
        }
        (certs, to_node)
    }

    fn ctx_of(g: &Graph, v: VertexId) -> NodeCtx<'_> {
        NodeCtx {
            id: v,
            neighbors: g.neighbors(v),
            round: 0,
        }
    }

    #[test]
    fn duplicate_deliveries_keep_the_first() {
        let (g, rot) = ring(3);
        let node = VertexId(2);
        let (certs, msgs) = triangle_inputs(node);
        let ctx = ctx_of(&g, node);
        let rotation = rot.order_at(node);
        // Child 1 claims another root and a subtree it does not have.
        let forged_opening = CertMsg::Opening {
            root: VertexId(1),
            parent: Some(node),
            depth: 1,
            label: (VertexId(0), VertexId(0)),
        };
        let forged_counters = CertMsg::Counters {
            vertices: 99,
            arcs: 99,
            faces: 99,
        };
        let v1 = VertexId(1);
        // Honest first, forged duplicates later: accepted.
        let mut p = CertVerifier::new(rotation, &certs[2]);
        let mut out = Vec::new();
        p.init(&ctx, &mut out);
        let round1: Vec<_> = msgs.iter().map(|(v, o, _)| (*v, o.clone())).collect();
        out.clear();
        p.on_round(&ctx, &round1, &mut out);
        assert_eq!(
            out.len(),
            1,
            "counters go to both neighbors in one broadcast"
        );
        assert_eq!(out[0].0, BROADCAST);
        let mut round2: Vec<_> = vec![(v1, forged_opening.clone())];
        round2.extend(msgs.iter().map(|(v, _, c)| (*v, c.clone())));
        round2.push((v1, forged_counters.clone()));
        out.clear();
        p.on_round(&ctx, &round2, &mut out);
        assert!(out.is_empty());
        assert_eq!(p.verdict(), Verdict::Accept, "{:?}", p.violations());

        // Forged first: the honest duplicates cannot repair it.
        let mut p = CertVerifier::new(rotation, &certs[2]);
        p.init(&ctx, &mut Vec::new());
        let mut round1 = vec![(v1, forged_opening), (v1, forged_counters)];
        round1.extend(msgs.iter().map(|(v, o, _)| (*v, o.clone())));
        round1.extend(msgs.iter().map(|(v, _, c)| (*v, c.clone())));
        p.on_round(&ctx, &round1, &mut Vec::new());
        assert_eq!(p.verdict(), Verdict::Reject);
        assert!(p
            .violations()
            .contains(&Violation::RootMismatch { neighbor: v1 }));
        assert!(p.violations().contains(&Violation::CounterMismatch));
    }

    #[test]
    fn counters_before_openings_complete_on_the_last_opening() {
        let (g, rot) = ring(3);
        let node = VertexId(2);
        let (certs, msgs) = triangle_inputs(node);
        let ctx = ctx_of(&g, node);
        let mut p = CertVerifier::new(rot.order_at(node), &certs[2]);
        p.init(&ctx, &mut Vec::new());
        let counters: Vec<_> = msgs.iter().map(|(v, _, c)| (*v, c.clone())).collect();
        p.on_round(&ctx, &counters, &mut Vec::new());
        assert_eq!(p.verdict(), Verdict::Incomplete);
        p.on_round(&ctx, &[(msgs[1].0, msgs[1].1.clone())], &mut Vec::new());
        assert_eq!(p.verdict(), Verdict::Incomplete);
        p.on_round(&ctx, &[(msgs[0].0, msgs[0].1.clone())], &mut Vec::new());
        assert_eq!(p.verdict(), Verdict::Accept, "{:?}", p.violations());
    }

    #[test]
    fn repeated_neighbor_opens_once_per_neighbor_and_rejects() {
        let (g, _) = ring(3);
        // Neighbor 1 twice, neighbor 2 missing.
        let rotation = [VertexId(1), VertexId(1)];
        let (certs, msgs) = triangle_inputs(VertexId(0));
        let ctx = ctx_of(&g, VertexId(0));
        let mut p = CertVerifier::new(&rotation, &certs[0]);
        let mut out = Vec::new();
        p.init(&ctx, &mut out);
        let label_of = |to: u32| {
            let (_, msg) = out.iter().find(|(w, _)| *w == VertexId(to)).unwrap();
            match msg {
                CertMsg::Opening { label, .. } => *label,
                CertMsg::Counters { .. } => unreachable!("init only opens"),
            }
        };
        assert_eq!(out.len(), 2, "one opening per neighbor: {out:?}");
        assert_eq!(label_of(1), certs[0].labels[0], "first position wins");
        assert_eq!(label_of(2), (VertexId(0), VertexId(0)), "placeholder label");
        let all: Vec<_> = msgs
            .iter()
            .flat_map(|(v, o, c)| [(*v, o.clone()), (*v, c.clone())])
            .collect();
        p.on_round(&ctx, &all, &mut Vec::new());
        assert_eq!(p.verdict(), Verdict::Reject);
        assert_eq!(p.violations()[0], Violation::RotationNotPermutation);
        assert!(!p
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::FaceClosure { .. })));
    }

    #[test]
    fn message_sizes_fit_the_budget() {
        let opening = CertMsg::Opening {
            root: VertexId(0),
            parent: Some(VertexId(1)),
            depth: 2,
            label: (VertexId(0), VertexId(1)),
        };
        assert!(opening.words() <= congest_sim::DEFAULT_BUDGET_WORDS);
        let counters = CertMsg::Counters {
            vertices: 10,
            arcs: 18,
            faces: 1,
        };
        assert!(counters.words() <= congest_sim::DEFAULT_BUDGET_WORDS);
    }

    #[test]
    fn reliable_wrapper_survives_lossy_verification() {
        use congest_sim::protocols::{run_reliable, wrapped_budget, ReliableConfig};
        use congest_sim::FaultPlan;
        let (g, rot) = ring(10);
        let certs = build_certificates(&g, &rot).unwrap();
        let cfg = SimConfig {
            faults: FaultPlan::uniform(3, 0.2, 0.05, 0.1, 2),
            watchdog: Some(4096),
            budget_words: wrapped_budget(congest_sim::DEFAULT_BUDGET_WORDS),
            ..SimConfig::default()
        };
        let rel = ReliableConfig::default();
        let reliable = |programs| run_reliable(&g, programs, &cfg, &rel);
        let report = verify_distributed_with(&g, &rot, &certs, reliable).unwrap();
        assert!(report.accepted, "rejections: {:?}", report.rejections);
        assert!(report.metrics.dropped > 0 || report.metrics.retransmissions > 0);
        // The seeded fault schedule replays bit-identically.
        let again = verify_distributed_with(&g, &rot, &certs, reliable).unwrap();
        assert_eq!(report, again);
    }

    #[test]
    fn lost_messages_leave_nodes_incomplete_not_accepting() {
        use congest_sim::{FaultPlan, LinkFaults};
        let (g, rot) = ring(6);
        let certs = build_certificates(&g, &rot).unwrap();
        let mut plan = FaultPlan {
            seed: 1,
            ..FaultPlan::default()
        };
        plan.link_overrides.push((
            (VertexId(0), VertexId(1)),
            LinkFaults {
                drop: 1.0,
                duplicate: 0.0,
                delay: 0.0,
                max_delay: 0,
            },
        ));
        let cfg = SimConfig {
            faults: plan,
            watchdog: Some(1024),
            ..SimConfig::default()
        };
        let report = verify_distributed(&g, &rot, &certs, &cfg).unwrap();
        assert!(!report.accepted);
        assert!(report.incomplete.contains(&VertexId(1)));
    }
}
