//! The merge phase (Section 5): combining the parts `P_0, P_1, ..., P_k` of
//! one recursion node into a single embedded part, following the
//! *unrestricted path-coordinated merge* algorithm of Section 5.3 step by
//! step.
//!
//! Structure (numbers match the paper's algorithm):
//!
//! 1. number the `P_0` vertices;
//! 2. two iterations of { (a) low-connection computation, (b)
//!    vertex-coordinated merges per coordinator, (c)/(d) retirement of
//!    single-connection parts, (e) coordinator copy split-off, (f) Lemma 5.3
//!    symmetry breaking on the inter-part graph, (g)/(h) star merges, (i)
//!    setting aside long monotone paths };
//!
//! 3.–5. two-connection parts: local embedding, delivery of orders, and
//! the keep-highest-ID rule;
//! 6. the restricted path-coordinated merge with `P_0` as coordinator.
//!
//! **Simulation strategy** (DESIGN.md §1): the *control flow* above runs
//! exactly as written, with every data movement charged — kernel rounds for
//! the symmetry breaking, packet-scheduled transfers for summaries and
//! order deliveries, and `O(part diameter)` housekeeping per merge event
//! (Remark 1's upcast/downcast simulation). A merged part carries its
//! member set, not an embedding: no step here computes a rotation. With
//! invariant checking on, [`verify_part`] embeds each merged part with its
//! attachments pinned to one face ([`planar_lib::embed_pinned`]) as a
//! planarity and safety check and discards that embedding. The output
//! rotation comes from the centralized [`planar_lib::embed`] in the
//! driver's epilogue.

use congest_sim::routing::Transfer;
use congest_sim::{Metrics, Phase, PhaseRounds, SimConfig};
use planar_graph::{Graph, VertexId};

use crate::error::EmbedError;
use crate::exec::{vec_bytes, ExecutionContext};
use crate::parts::{verify_part, PartState};
use crate::stats::MergeStats;
use crate::symmetry::symmetry_break_ctx;

/// Result of merging one recursion node.
#[derive(Clone, Debug)]
pub struct MergeOutcome {
    /// The merged part covering the whole subproblem `H`.
    pub part: PartState,
    /// Total charged cost of the merge.
    pub metrics: Metrics,
    /// Structural statistics (validates the `O(D)` part-count argument).
    pub stats: MergeStats,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    Active,
    Paused,
    Retired,
}

/// Absent entry in a [`MergeScratch`] vertex or part table.
const NONE: u32 = u32::MAX;

/// One part of a merge: its members are `MergeScratch::members[start..
/// start + len]`, sorted ascending (`len == 0` once merged into another).
#[derive(Clone, Copy, Debug)]
struct Part {
    start: usize,
    len: usize,
    /// The maximum-id member, the endpoint of all summary transfers.
    leader: VertexId,
    status: Status,
    /// BFS depth of the part's routing region from its leader, or [`NONE`]
    /// until computed; a union resets it.
    depth: u32,
}

/// A charged transfer of `words` words along `hops[start..end]`, with the
/// reply back along the same route when `round_trip` is set.
#[derive(Clone, Copy, Debug)]
struct Route {
    start: usize,
    end: usize,
    words: usize,
    round_trip: bool,
}

/// Host-side tables of one merge. Vertex tables (`p0_pos`, `part_of`,
/// `visit`) grow to the largest graph served; part tables are sized per
/// merge;
/// the rest are buffers whose capacity survives. An [`ExecutionContext`]
/// owns one and lends it to each merge it runs. A merge fills `p0_pos` and
/// `part_of` over its own `H` and clears them on the way out, and every BFS
/// bumps `epoch` instead of clearing, so a merge costs `O(|H| + vol(H))`.
/// Summary sizes come from an in-place block pass over the part
/// ([`BlockPass`]). Once the buffers have grown, a merge allocates only its
/// output and the virtual graph and outcome of each symmetry step.
#[derive(Debug, Default)]
pub(crate) struct MergeScratch {
    /// `P_0` position of a vertex, or [`NONE`].
    p0_pos: Vec<u32>,
    /// Index of the hanging part holding a vertex, or [`NONE`].
    part_of: Vec<u32>,
    /// Per vertex: epoch of its last BFS visit, predecessor, depth.
    visit: Vec<(u32, u32, u32)>,
    /// Per part: the epoch that last marked it into a routing region.
    part_stamp: Vec<u32>,
    epoch: u32,
    /// BFS queue, read by a head index in FIFO order.
    queue: Vec<VertexId>,
    /// Member arena of the parts; a union appends the merged list.
    members: Vec<VertexId>,
    parts: Vec<Part>,
    /// Per part: a step's group key (low connection or virtual-graph
    /// index), [`NONE`] outside the step.
    key: Vec<u32>,
    /// Per part: visited by the step-2b component search.
    seen: Vec<bool>,
    /// Routes charged by the current step, over the `hops` arena.
    routes: Vec<Route>,
    hops: Vec<VertexId>,
    /// Step-local lists: active parts, sorted connections or neighbors
    /// (two), relevant attachments, search stack, and groups (flat, with
    /// ends).
    actives: Vec<usize>,
    list: Vec<usize>,
    nbrs: Vec<usize>,
    relevant: Vec<VertexId>,
    stack: Vec<usize>,
    groups: Vec<usize>,
    group_ends: Vec<usize>,
    /// Steps 3–5: `(a, b, part)` per two-connection part.
    doubles: Vec<(usize, usize, usize)>,
    /// The block pass that sizes summaries.
    blocks: BlockPass,
}

/// The blocks (biconnected components) of the subgraph one vertex set
/// induces, found by an iterative Hopcroft–Tarjan pass with a vertex stack.
/// Its vertex tables are sized to the graph once and reset by walking the
/// set, so a pass costs `O(|set| + vol(set))` and, once its buffers have
/// grown, allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct BlockPass {
    /// Per vertex: DFS number (0 = unvisited) and low point.
    num: Vec<(u32, u32)>,
    /// Per vertex: a relevant attachment of the summary being sized.
    relevant: Vec<bool>,
    /// The DFS path from the current root: a vertex, the index of its next
    /// neighbor, and its position on `open`.
    frames: Vec<(VertexId, usize, usize)>,
    /// Visited vertices whose block has not closed yet, in DFS order.
    open: Vec<VertexId>,
}

impl BlockPass {
    /// Calls `block(top, rest)` once per block of the subgraph induced by
    /// `members`, the vertices `inside` accepts: `top` is the block's vertex
    /// nearest the DFS root and `rest` its other vertices. Blocks are those
    /// of [`BiconnectedDecomposition`](planar_graph::biconnected::BiconnectedDecomposition):
    /// an isolated vertex lies in no block, a bridge is a block, and a cut
    /// vertex lies in each of its blocks.
    fn for_each_block(
        &mut self,
        g: &Graph,
        members: &[VertexId],
        inside: impl Fn(VertexId) -> bool,
        mut block: impl FnMut(VertexId, &[VertexId]),
    ) {
        self.num.resize(g.vertex_count(), (0, 0));
        let mut clock = 0;
        for &root in members {
            if self.num[root.index()].0 != 0 {
                continue;
            }
            clock += 1;
            self.num[root.index()] = (clock, clock);
            self.frames.push((root, 0, 0));
            self.open.push(root);
            while let Some((v, next, at)) = self.frames.last_mut() {
                let v = *v;
                if let Some(&w) = g.neighbors(v).get(*next) {
                    *next += 1;
                    if !inside(w) {
                        continue;
                    }
                    let seen = self.num[w.index()].0;
                    if seen == 0 {
                        clock += 1;
                        self.num[w.index()] = (clock, clock);
                        self.frames.push((w, 0, self.open.len()));
                        self.open.push(w);
                    } else {
                        // An edge to an ancestor (descendants have higher
                        // numbers). The parent edge lowers `low[v]` to the
                        // parent's number at most, which the `>=` test
                        // below still accepts.
                        let low = &mut self.num[v.index()].1;
                        *low = (*low).min(seen);
                    }
                } else {
                    let at = *at;
                    self.frames.pop();
                    if let Some(&(p, _, _)) = self.frames.last() {
                        let low = self.num[v.index()].1;
                        let (p_num, p_low) = &mut self.num[p.index()];
                        *p_low = (*p_low).min(low);
                        if low >= *p_num {
                            block(p, &self.open[at..]);
                            self.open.truncate(at);
                        }
                    }
                }
            }
            self.open.clear();
        }
        for &v in members {
            self.num[v.index()] = (0, 0);
        }
    }

    /// The charged size, in `O(log n)` words, of the interface summary of
    /// the part `members` (the vertices `inside` accepts) restricted to
    /// its `relevant` attachments: constant overhead, two words per block
    /// holding a relevant attachment (its id), and one word per relevant
    /// attachment slot.
    ///
    /// This is the compressed-PQ-tree accounting of DESIGN.md §1: by
    /// Observation 3.2 the interface is determined by the block
    /// decomposition and per-block fixed orders, so a summary listing each
    /// relevant block and the order of relevant attachments within it
    /// suffices.
    pub(crate) fn summary_size(
        &mut self,
        g: &Graph,
        members: &[VertexId],
        inside: impl Fn(VertexId) -> bool,
        relevant: &[VertexId],
    ) -> usize {
        debug_assert!(relevant.iter().all(|&r| inside(r)));
        let mut flags = std::mem::take(&mut self.relevant);
        flags.resize(g.vertex_count(), false);
        for &r in relevant {
            flags[r.index()] = true;
        }
        let mut hit = 0;
        self.for_each_block(g, members, inside, |top, rest| {
            if flags[top.index()] || rest.iter().any(|v| flags[v.index()]) {
                hit += 1;
            }
        });
        for &r in relevant {
            flags[r.index()] = false;
        }
        self.relevant = flags;
        4 + 2 * hit + relevant.len()
    }
}

impl MergeScratch {
    /// Heap bytes the tables reserve.
    pub(crate) fn memory_bytes(&self) -> usize {
        vec_bytes(&self.p0_pos)
            + vec_bytes(&self.part_of)
            + vec_bytes(&self.visit)
            + vec_bytes(&self.part_stamp)
            + vec_bytes(&self.queue)
            + vec_bytes(&self.members)
            + vec_bytes(&self.parts)
            + vec_bytes(&self.key)
            + vec_bytes(&self.seen)
            + vec_bytes(&self.routes)
            + vec_bytes(&self.hops)
            + vec_bytes(&self.actives)
            + vec_bytes(&self.list)
            + vec_bytes(&self.nbrs)
            + vec_bytes(&self.relevant)
            + vec_bytes(&self.stack)
            + vec_bytes(&self.groups)
            + vec_bytes(&self.group_ends)
            + vec_bytes(&self.doubles)
            + vec_bytes(&self.blocks.num)
            + vec_bytes(&self.blocks.relevant)
            + vec_bytes(&self.blocks.frames)
            + vec_bytes(&self.blocks.open)
    }

    /// Starts a new epoch whose routing region is parts `idxs` plus `P_0`.
    fn mark(&mut self, idxs: &[usize]) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.visit.fill((0, NONE, 0));
            self.part_stamp.fill(0);
            self.epoch = 1;
        }
        for &i in idxs {
            self.part_stamp[i] = self.epoch;
        }
    }

    /// Whether `v` lies in a part marked in the current epoch.
    fn in_marked_part(&self, v: VertexId) -> bool {
        let j = self.part_of[v.index()];
        j != NONE && self.part_stamp[j as usize] == self.epoch
    }

    /// BFS from `from` within the current routing region, stopping at the
    /// first sight of `to`; returns the vertex `to` was seen from.
    fn bfs(&mut self, g: &Graph, from: VertexId, to: Option<VertexId>) -> Option<VertexId> {
        self.queue.clear();
        self.queue.push(from);
        self.visit[from.index()] = (self.epoch, NONE, 0);
        let mut head = 0;
        while let Some(&v) = self.queue.get(head) {
            head += 1;
            let d = self.visit[v.index()].2 + 1;
            for &w in g.neighbors(v) {
                if Some(w) == to {
                    return Some(v);
                }
                let fresh = self.visit[w.index()].0 != self.epoch;
                if fresh && (self.p0_pos[w.index()] != NONE || self.in_marked_part(w)) {
                    self.visit[w.index()] = (self.epoch, v.0, d);
                    self.queue.push(w);
                }
            }
        }
        None
    }

    /// The members of part `i`.
    fn members(&self, i: usize) -> &[VertexId] {
        let p = &self.parts[i];
        &self.members[p.start..p.start + p.len]
    }

    /// Records the hops pushed since `start` as a charged route.
    fn end_route(&mut self, start: usize, words: usize, round_trip: bool) {
        self.routes.push(Route {
            start,
            end: self.hops.len(),
            words,
            round_trip,
        });
    }

    /// Records the one-hop route `from -> to`.
    fn hop(&mut self, from: VertexId, to: VertexId, words: usize) {
        let start = self.hops.len();
        self.hops.extend([from, to]);
        self.end_route(start, words, false);
    }

    /// Records a one-hop route between each attachment of part `i` adjacent
    /// to `coord` and `coord`: toward `coord` when `up`, away otherwise.
    fn attachment_hops(&mut self, g: &Graph, i: usize, coord: VertexId, words: usize, up: bool) {
        let p = self.parts[i];
        for k in p.start..p.start + p.len {
            let att = self.members[k];
            if g.has_edge(att, coord) {
                if up {
                    self.hop(att, coord, words);
                } else {
                    self.hop(coord, att, words);
                }
            }
        }
    }

    /// Group `k` of the flat `groups` list.
    fn group(&self, k: usize) -> std::ops::Range<usize> {
        let start = if k == 0 { 0 } else { self.group_ends[k - 1] };
        start..self.group_ends[k]
    }

    /// Closes the group pushed onto `groups` since the previous one.
    fn end_group(&mut self) {
        self.group_ends.push(self.groups.len());
    }
}

struct MergeCtx<'a, 'g> {
    exec: &'a mut ExecutionContext<'g>,
    g: &'g Graph,
    p0: &'a [VertexId],
    t: MergeScratch,
    check: bool,
    metrics: Metrics,
    stats: MergeStats,
}

/// Merges `P_0` with the hanging parts into one part covering the whole
/// subproblem.
///
/// # Errors
///
/// * [`EmbedError::NonPlanar`] if a merge has no planar completion;
/// * [`EmbedError::Internal`] if a framework invariant (safety, Def. 3.1)
///   fails — this would falsify the paper's Lemma 4.1 and is always a bug.
pub fn merge_parts(
    g: &Graph,
    p0: Vec<VertexId>,
    hanging: Vec<PartState>,
    cfg: &SimConfig,
    check: bool,
) -> Result<MergeOutcome, EmbedError> {
    let members = hanging.iter().map(|p| &p.members[..]);
    merge_parts_ctx(&mut ExecutionContext::with_sim(g, cfg), &p0, members, check)
}

/// [`merge_parts`] against a full [`ExecutionContext`]: the one kernel
/// protocol it runs (the symmetry-breaking step) executes on the context's
/// kernel with its reliability policy; the routed summary movements are
/// charged analytically and need no protection. `P_0` and the hanging
/// parts' member lists (each sorted ascending, its last member the part
/// leader) are borrowed: the merge copies them into the context's tables.
///
/// # Errors
///
/// As [`merge_parts`].
pub fn merge_parts_ctx<'h>(
    exec: &mut ExecutionContext<'_>,
    p0: &[VertexId],
    hanging: impl IntoIterator<Item = &'h [VertexId]>,
    check: bool,
) -> Result<MergeOutcome, EmbedError> {
    let mut ctx = MergeCtx::new(exec, p0, hanging, check);
    let mut h_members: Vec<VertexId> = Vec::with_capacity(p0.len() + ctx.t.members.len());
    h_members.extend_from_slice(p0);
    h_members.extend_from_slice(&ctx.t.members);
    h_members.sort_unstable();
    h_members.dedup();
    ctx.stats.subtree_size = h_members.len();
    ctx.stats.p0_len = ctx.p0.len();
    ctx.stats.initial_parts = ctx.t.parts.len();

    // Step 2: two functionally identical iterations.
    for _iteration in 0..2 {
        ctx.step_a_and_b()?; // low connections + vertex-coordinated merges
        ctx.step_c_d()?; // retire single-connection parts
        ctx.step_f_to_i()?; // symmetry breaking + star merges + pausing
    }
    ctx.steps_3_to_5()?; // two-connection parts
    ctx.step_6()?; // restricted path-coordinated merge
    for &v in &h_members {
        ctx.t.p0_pos[v.index()] = NONE;
        ctx.t.part_of[v.index()] = NONE;
    }
    let part = PartState::from_sorted(h_members);
    if ctx.check {
        verify_part(ctx.g, &part.members)?;
    }
    ctx.exec.merge_scratch = ctx.t;

    // Attribute every round not already claimed by the symmetry-breaking
    // sub-step to the merge phase, so the breakdown sums to `rounds`.
    let mut metrics = ctx.metrics;
    metrics.phase_rounds.merge = metrics.rounds - metrics.phase_rounds.symmetry;

    Ok(MergeOutcome {
        part,
        metrics,
        stats: ctx.stats,
    })
}

impl<'a, 'g> MergeCtx<'a, 'g> {
    /// Borrows the context's scratch and fills its tables for `P_0` and
    /// the hanging parts.
    fn new<'h>(
        exec: &'a mut ExecutionContext<'g>,
        p0: &'a [VertexId],
        hanging: impl IntoIterator<Item = &'h [VertexId]>,
        check: bool,
    ) -> Self {
        let g = exec.graph();
        let mut t = std::mem::take(&mut exec.merge_scratch);
        // The tables only grow: a scratch that served a larger graph
        // already covers this one, and every entry is back at `NONE`.
        t.p0_pos.resize(g.vertex_count(), NONE);
        t.part_of.resize(g.vertex_count(), NONE);
        t.visit.resize(g.vertex_count(), (0, NONE, 0));
        for (i, &v) in p0.iter().enumerate() {
            t.p0_pos[v.index()] = i as u32;
        }
        t.members.clear();
        t.parts.clear();
        for (i, members) in hanging.into_iter().enumerate() {
            debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
            for &v in members {
                // The region test `p0_pos[v] != NONE || part_of[v] ∈ idxs`
                // relies on P_0 and the hanging parts being disjoint.
                debug_assert!(t.p0_pos[v.index()] == NONE && t.part_of[v.index()] == NONE);
                t.part_of[v.index()] = i as u32;
            }
            t.parts.push(Part {
                start: t.members.len(),
                len: members.len(),
                leader: *members.last().expect("parts are non-empty"),
                status: Status::Active,
                depth: NONE,
            });
            t.members.extend_from_slice(members);
        }
        let k = t.parts.len();
        t.part_stamp.clear();
        t.part_stamp.resize(k, 0);
        t.key.clear();
        t.key.resize(k, NONE);
        t.seen.clear();
        t.seen.resize(k, false);
        MergeCtx {
            exec,
            g,
            p0,
            t,
            check,
            metrics: Metrics::new(),
            stats: MergeStats::default(),
        }
    }

    fn leader(&self, i: usize) -> VertexId {
        self.t.parts[i].leader
    }

    fn is_empty(&self, i: usize) -> bool {
        self.t.parts[i].len == 0
    }

    /// Sorted indices of the `P_0` vertices a part connects to, in `out`.
    fn connections(&self, idx: usize, out: &mut Vec<usize>) {
        out.clear();
        for &v in self.t.members(idx) {
            for &w in self.g.neighbors(v) {
                let pos = self.t.p0_pos[w.index()];
                if pos != NONE {
                    out.push(pos as usize);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// The lowest-numbered `P_0` vertex a part connects to.
    fn low_connection(&self, idx: usize) -> Option<usize> {
        self.t
            .members(idx)
            .iter()
            .flat_map(|&v| self.g.neighbors(v))
            .map(|w| self.t.p0_pos[w.index()])
            .filter(|&pos| pos != NONE)
            .min()
            .map(|pos| pos as usize)
    }

    /// Whether part `j` is another non-retired part than `idx`.
    fn is_other_live(&self, idx: usize, j: u32) -> bool {
        j != NONE && j as usize != idx && self.t.parts[j as usize].status != Status::Retired
    }

    /// Sorted indices of other non-retired parts a part shares an edge
    /// with, in `out`.
    fn part_neighbors(&self, idx: usize, out: &mut Vec<usize>) {
        out.clear();
        for &v in self.t.members(idx) {
            for &w in self.g.neighbors(v) {
                let j = self.t.part_of[w.index()];
                if self.is_other_live(idx, j) {
                    out.push(j as usize);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Whether a part shares an edge with another non-retired part.
    fn has_part_neighbor(&self, idx: usize) -> bool {
        self.t.members(idx).iter().any(|&v| {
            self.g
                .neighbors(v)
                .iter()
                .any(|w| self.is_other_live(idx, self.t.part_of[w.index()]))
        })
    }

    /// Whether the part has a half-embedded edge leaving `H` entirely.
    fn has_outside(&self, idx: usize) -> bool {
        self.t.members(idx).iter().any(|&v| {
            self.g
                .neighbors(v)
                .iter()
                .any(|w| self.t.p0_pos[w.index()] == NONE && self.t.part_of[w.index()] == NONE)
        })
    }

    /// The part's first attachment vertex adjacent to `P_0` position `pos`.
    fn first_attachment_to(&self, idx: usize, pos: usize) -> Option<VertexId> {
        let coord = self.p0[pos];
        self.t
            .members(idx)
            .iter()
            .copied()
            .find(|&v| self.g.has_edge(v, coord))
    }

    /// The charged size of part `idx`'s summary toward `coord` and the
    /// other parts of `group`: its attachment vertices adjacent to `coord`
    /// or to another part of `group` are the *merge-relevant* attachments
    /// whose interface structure must be shipped (the compressed-PQ-tree
    /// principle: a merge summary carries only the degrees of freedom the
    /// merge actually touches).
    fn summary_toward(&mut self, idx: usize, coord: Option<VertexId>, group: &[usize]) -> usize {
        self.t.mark(group);
        let mut relevant = std::mem::take(&mut self.t.relevant);
        relevant.clear();
        let t = &self.t;
        relevant.extend(t.members(idx).iter().copied().filter(|&v| {
            self.g.neighbors(v).iter().any(|&w| {
                Some(w) == coord || (t.in_marked_part(w) && t.part_of[w.index()] as usize != idx)
            })
        }));
        let t = &mut self.t;
        let p = t.parts[idx];
        let part_of = &t.part_of;
        let words = t.blocks.summary_size(
            self.g,
            &t.members[p.start..p.start + p.len],
            |w| part_of[w.index()] as usize == idx,
            &relevant,
        );
        t.relevant = relevant;
        words
    }

    /// Appends to `hops` the BFS path from `from` to `to` within the
    /// routing region of parts `idxs` (their members plus the `P_0` spine —
    /// the coordinator copies of step 2e make the spine usable by every
    /// part), plus `{from, to}`.
    fn path_within(
        &mut self,
        idxs: &[usize],
        from: VertexId,
        to: VertexId,
    ) -> Result<(), EmbedError> {
        if from == to {
            self.t.hops.push(from);
            return Ok(());
        }
        self.t.mark(idxs);
        let mut cur = self.t.bfs(self.g, from, Some(to)).ok_or_else(|| {
            EmbedError::Internal(format!("no route from {from} to {to} within part"))
        })?;
        let start = self.t.hops.len();
        self.t.hops.extend([to, cur]);
        while self.t.visit[cur.index()].1 != NONE {
            cur = VertexId(self.t.visit[cur.index()].1);
            self.t.hops.push(cur);
        }
        self.t.hops[start..].reverse();
        Ok(())
    }

    /// Depth bound of a part's communication region (for Remark 1
    /// housekeeping charges): BFS depth from the leader within the region,
    /// computed once per part and kept until a union changes the part.
    fn region_depth(&mut self, idx: usize) -> usize {
        if self.t.parts[idx].depth == NONE {
            self.t.mark(&[idx]);
            self.t.bfs(self.g, self.leader(idx), None);
            let last = self.t.queue[self.t.queue.len() - 1];
            self.t.parts[idx].depth = self.t.visit[last.index()].2;
        }
        self.t.parts[idx].depth as usize
    }

    /// Charges the Remark 1 per-part housekeeping: one upcast + one downcast
    /// on the part's BFS tree.
    fn housekeeping(&mut self, idx: usize) -> Metrics {
        let size = self.t.parts[idx].len;
        Metrics {
            rounds: 2 * self.region_depth(idx) + 2,
            messages: 2 * size,
            words: 2 * size,
            max_words_edge_round: 1,
            ..Metrics::default()
        }
    }

    /// Charges every route recorded since the last charge, each as one
    /// packet-scheduled transfer (plus its reply on round trips), and
    /// clears them.
    fn charge_routes(&mut self) -> Result<(), EmbedError> {
        let t = &self.t;
        let transfers = t.routes.iter().flat_map(|r| {
            let path = &t.hops[r.start..r.end];
            let back = r.round_trip.then(|| Transfer::back(path, r.words));
            std::iter::once(Transfer::along(path, r.words)).chain(back)
        });
        let m = self.exec.schedule(transfers)?;
        self.metrics.add(m);
        self.t.routes.clear();
        self.t.hops.clear();
        Ok(())
    }

    /// Merges the given parts (indices) into one; updates `part_of`; retains
    /// the merged part at `idxs[0]` and tombstones the rest.
    fn union_parts(&mut self, idxs: &[usize]) -> Result<usize, EmbedError> {
        debug_assert!(idxs.len() >= 2);
        let t = &mut self.t;
        let start = t.members.len();
        for &i in idxs {
            let p = t.parts[i];
            t.members.extend_from_within(p.start..p.start + p.len);
        }
        // Parts are disjoint, so the unstable sort is exact.
        t.members[start..].sort_unstable();
        if self.check {
            verify_part(self.g, &t.members[start..])?;
        }
        let keep = idxs[0];
        for &v in &t.members[start..] {
            t.part_of[v.index()] = keep as u32;
        }
        let merged = &mut t.parts[keep];
        merged.start = start;
        merged.len = t.members.len() - start;
        merged.leader = *t.members.last().expect("parts are non-empty");
        merged.depth = NONE;
        for &i in &idxs[1..] {
            t.parts[i].len = 0; // tombstone
            t.parts[i].status = Status::Retired;
        }
        Ok(keep)
    }

    /// Fills the scratch's `actives` with the active, non-empty parts.
    fn collect_actives(&mut self) {
        let t = &mut self.t;
        t.actives.clear();
        t.actives.extend(
            (0..t.parts.len())
                .filter(|&i| t.parts[i].status == Status::Active && t.parts[i].len > 0),
        );
    }

    /// Steps 2a + 2b: per-part low-connection computation, then a
    /// vertex-coordinated merge at every `P_0` vertex.
    fn step_a_and_b(&mut self) -> Result<(), EmbedError> {
        self.collect_actives();
        let actives = std::mem::take(&mut self.t.actives);
        let out = self.merge_by_low_connection(&actives);
        self.t.actives = actives;
        out
    }

    fn merge_by_low_connection(&mut self, actives: &[usize]) -> Result<(), EmbedError> {
        if actives.is_empty() {
            return Ok(());
        }
        // (a) Each part computes its lowest-numbered P_0 connection:
        // one convergecast + one downcast per part, in parallel.
        let mut step = Metrics::new();
        for &i in actives {
            step.join_parallel(self.housekeeping(i));
        }
        self.metrics.add(step);

        // (b) Group by low connection (ascending, parts ascending within a
        // group); merge connected subsets.
        let mut order = std::mem::take(&mut self.t.list);
        order.clear();
        for &i in actives {
            let low = self
                .low_connection(i)
                .ok_or_else(|| EmbedError::Internal("part without P_0 connection".into()))?;
            self.t.key[i] = low as u32;
            order.push(i);
        }
        order.sort_unstable_by_key(|&i| (self.t.key[i], i));
        let mut nbrs = std::mem::take(&mut self.t.nbrs);
        self.t.groups.clear();
        self.t.group_ends.clear();
        for &start in &order {
            if self.t.seen[start] {
                continue;
            }
            // Connected component of `start`'s group (same low connection)
            // under direct part adjacency.
            let low = self.t.key[start];
            let first = self.t.groups.len();
            self.t.groups.push(start);
            self.t.seen[start] = true;
            self.t.stack.clear();
            self.t.stack.push(start);
            while let Some(x) = self.t.stack.pop() {
                self.part_neighbors(x, &mut nbrs);
                for &nb in &nbrs {
                    if self.t.key[nb] == low && !self.t.seen[nb] {
                        self.t.seen[nb] = true;
                        self.t.groups.push(nb);
                        self.t.stack.push(nb);
                    }
                }
            }
            if self.t.groups.len() - first < 2 {
                // Nothing to merge: the lone part stays silent.
                self.t.groups.truncate(first);
                continue;
            }
            self.t.end_group();
            // Charge: every component member ships its merge-relevant
            // summary to the coordinator and receives decisions back.
            // Relevant attachments: those toward the coordinator and
            // toward the other parts of the component.
            let coord = self.p0[low as usize];
            let comp = std::mem::take(&mut self.t.groups);
            for &i in &comp[first..] {
                let att = self.first_attachment_to(i, low as usize).ok_or_else(|| {
                    EmbedError::Internal("low-connection without attachment".into())
                })?;
                let route = self.t.hops.len();
                self.path_within(&[i], self.leader(i), att)?;
                self.t.hops.push(coord);
                let words = self.summary_toward(i, Some(coord), &comp[first..]);
                self.t.end_route(route, words, true);
            }
            self.t.groups = comp;
        }
        for &i in &order {
            self.t.key[i] = NONE;
            self.t.seen[i] = false;
        }
        self.t.list = order;
        self.t.nbrs = nbrs;
        self.charge_routes()?;
        let groups = std::mem::take(&mut self.t.groups);
        let mut step = Metrics::new();
        for k in 0..self.t.group_ends.len() {
            let kept = self.union_parts(&groups[self.t.group(k)])?;
            step.join_parallel(self.housekeeping(kept));
        }
        self.t.groups = groups;
        self.metrics.add(step);
        Ok(())
    }

    /// Steps 2c + 2d: retire parts connected to exactly one `P_0` vertex and
    /// to no other part. Without an outside connection (2c) they are done
    /// for good; with one (2d) they only rejoin at the very last step —
    /// either way they stop participating in the merge reduction.
    fn step_c_d(&mut self) -> Result<(), EmbedError> {
        self.collect_actives();
        let actives = std::mem::take(&mut self.t.actives);
        let mut conns = std::mem::take(&mut self.t.list);
        let mut step = Metrics::new();
        for &i in &actives {
            self.connections(i, &mut conns);
            if conns.len() != 1 || self.has_part_neighbor(i) {
                continue;
            }
            let pos = conns[0];
            let coord = self.p0[pos];
            // The part computes one fixed embedding (a pairwise merge with
            // {i}): housekeeping; then delivers the order of its connecting
            // edges to the coordinator: one word per connecting edge, in
            // parallel over those edges (plus the outside flag for 2d).
            step.join_parallel(self.housekeeping(i));
            self.t.attachment_hops(self.g, i, coord, 2, true);
            self.stats.retired_single += 1; // 2c or 2d alike
            self.t.parts[i].status = Status::Retired;
        }
        self.t.list = conns;
        self.t.actives = actives;
        self.metrics.add(step);
        self.charge_routes()
    }

    /// Steps 2e–2i: coordinator copies (free — routing already may use the
    /// spine), symmetry breaking on the inter-part graph, star merges, and
    /// pausing of long monotone paths.
    fn step_f_to_i(&mut self) -> Result<(), EmbedError> {
        self.collect_actives();
        let actives = std::mem::take(&mut self.t.actives);
        let out = self.break_and_merge(&actives);
        self.t.actives = actives;
        out
    }

    fn break_and_merge(&mut self, actives: &[usize]) -> Result<(), EmbedError> {
        if actives.len() < 2 {
            return Ok(());
        }
        // Build the virtual inter-part graph, colored by low connection.
        for (vi, &i) in actives.iter().enumerate() {
            self.t.key[i] = vi as u32;
        }
        let mut colors = vec![0u32; actives.len()];
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut nbrs = std::mem::take(&mut self.t.list);
        for (vi, &i) in actives.iter().enumerate() {
            colors[vi] = self.low_connection(i).unwrap_or(0) as u32;
            self.part_neighbors(i, &mut nbrs);
            for &nb in &nbrs {
                let vj = self.t.key[nb];
                if vj != NONE && (vi as u32) < vj {
                    edges.push((vi as u32, vj));
                }
            }
        }
        self.t.list = nbrs;
        for &i in actives {
            self.t.key[i] = NONE;
        }
        let gv = Graph::from_edges(actives.len(), edges).expect("part adjacency is simple");
        // The symmetry-breaking segments run on the *virtual* inter-part
        // graph; enter the symmetry phase around them so the trace auditor
        // attributes the kernel segments to their own phase and a run
        // killed here degrades as symmetry-incomplete (their real-network
        // cost is charged analytically below, not by these kernel runs).
        self.exec.enter(Phase::Symmetry);
        let outcome = symmetry_break_ctx(self.exec, &gv, &colors)?;
        self.exec.enter(Phase::Merge);
        self.stats.symmetry_rounds_virtual += outcome.rounds;
        // Remark 1: each virtual round costs O(part diameter) real rounds.
        let mut max_depth = 0;
        for &i in actives {
            max_depth = max_depth.max(self.region_depth(i));
        }
        let sizes: usize = actives.iter().map(|&i| self.t.parts[i].len).sum();
        let symmetry_rounds = outcome.rounds * (2 * max_depth + 2);
        self.metrics.add(Metrics {
            rounds: symmetry_rounds,
            messages: outcome.rounds * sizes,
            words: 2 * outcome.rounds * sizes,
            max_words_edge_round: 3,
            phase_rounds: PhaseRounds {
                symmetry: symmetry_rounds,
                ..PhaseRounds::default()
            },
            ..Metrics::default()
        });

        // (g)/(h): star merges (stars from the lemma plus 2-chains).
        let t = &mut self.t;
        t.groups.clear();
        t.group_ends.clear();
        for (center, leaves) in outcome.stars() {
            t.groups.push(actives[center.index()]);
            t.groups.extend(leaves.iter().map(|l| actives[l.index()]));
            t.end_group();
        }
        for chain in outcome.chains() {
            match chain.len() {
                2 => {
                    t.groups.extend(chain.iter().map(|c| actives[c.index()]));
                    t.end_group();
                }
                l if l >= 3 => {
                    // (i): set aside; these skip the next iteration.
                    self.stats.paused_paths += 1;
                    for c in chain {
                        t.parts[actives[c.index()]].status = Status::Paused;
                    }
                }
                _ => {}
            }
        }
        let groups = std::mem::take(&mut self.t.groups);
        let mut step = Metrics::new();
        for k in 0..self.t.group_ends.len() {
            // Charge: each satellite ships its summary to the group head and
            // receives decisions back, routed within the union region.
            let group = &groups[self.t.group(k)];
            let head = self.leader(group[0]);
            for &i in &group[1..] {
                let route = self.t.hops.len();
                self.path_within(group, self.leader(i), head)?;
                let words = self.summary_toward(i, None, group);
                self.t.end_route(route, words, true);
            }
            let kept = self.union_parts(group)?;
            step.join_parallel(self.housekeeping(kept));
        }
        self.t.groups = groups;
        self.charge_routes()?;
        self.metrics.add(step);
        Ok(())
    }

    /// Steps 3–5: parts connected to exactly two `P_0` vertices and nothing
    /// else embed themselves, deliver their orders to both coordinators
    /// (step 3), which order them deterministically (step 4); only the
    /// highest-id part per `(i, j)` pair stays for step 6 (step 5).
    fn steps_3_to_5(&mut self) -> Result<(), EmbedError> {
        // Paused paths rejoin from here on.
        for p in &mut self.t.parts {
            if p.status == Status::Paused {
                p.status = Status::Active;
            }
        }
        self.collect_actives();
        let actives = std::mem::take(&mut self.t.actives);
        let mut conns = std::mem::take(&mut self.t.list);
        let mut doubles = std::mem::take(&mut self.t.doubles);
        doubles.clear();
        let mut step = Metrics::new();
        for &i in &actives {
            self.connections(i, &mut conns);
            if conns.len() != 2 || self.has_part_neighbor(i) || self.has_outside(i) {
                continue;
            }
            let (a, b) = (conns[0], conns[1]);
            // Step 3: report the part id and both connection numbers to both
            // coordinators, then embed via two pairwise merges.
            for pos in [a, b] {
                self.t.attachment_hops(self.g, i, self.p0[pos], 3, true);
            }
            step.join_parallel(self.housekeeping(i));
            doubles.push((a, b, i));
        }
        self.t.list = conns;
        self.t.actives = actives;
        self.metrics.add(step);
        self.charge_routes()?;
        // Step 5: keep only the highest-leader part per (i, j) pair.
        doubles.sort_unstable();
        for pair in doubles.chunk_by(|x, y| (x.0, x.1) == (y.0, y.1)) {
            let keep = pair
                .iter()
                .map(|&(_, _, i)| i)
                .max_by_key(|&i| self.leader(i))
                .expect("non-empty group");
            for &(_, _, i) in pair {
                if i != keep {
                    self.t.parts[i].status = Status::Retired;
                    self.stats.retired_double += 1;
                }
            }
        }
        self.t.doubles = doubles;
        Ok(())
    }

    /// Step 6: the restricted path-coordinated merge with `P_0` as the
    /// coordinator; the caller assembles the fully merged part.
    fn step_6(&mut self) -> Result<(), EmbedError> {
        self.collect_actives();
        let remaining = std::mem::take(&mut self.t.actives);
        let mut conns = std::mem::take(&mut self.t.list);
        self.stats.final_parts = remaining.len();
        let mut step = Metrics::new();
        for &i in &remaining {
            self.connections(i, &mut conns);
            let low = *conns.first().ok_or_else(|| {
                EmbedError::Internal("remaining part without P_0 connection".into())
            })?;
            let att = self
                .first_attachment_to(i, low)
                .expect("a connection has an attachment");
            // Summary: leader -> low coordinator -> pipelined along P_0 to s.
            let route = self.t.hops.len();
            self.path_within(&[i], self.leader(i), att)?;
            self.t.hops.extend(self.p0[..=low].iter().rev());
            self.t.end_route(route, 4 + conns.len(), true);
            step.join_parallel(self.housekeeping(i));
        }
        // Every part (including retired ones) receives its final rotation
        // slots: one word per connecting edge, in parallel.
        for i in 0..self.t.parts.len() {
            if self.is_empty(i) {
                continue;
            }
            self.connections(i, &mut conns);
            for &pos in &conns {
                self.t.attachment_hops(self.g, i, self.p0[pos], 1, false);
            }
        }
        self.t.list = conns;
        self.t.actives = remaining;
        // P_0's own sweep: one token pass along the path.
        step.join_parallel(Metrics {
            rounds: self.p0.len(),
            messages: self.p0.len(),
            words: self.p0.len(),
            max_words_edge_round: 1,
            ..Metrics::default()
        });
        self.metrics.add(step);
        self.charge_routes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::tests::partition_subtree;
    use crate::setup::run_setup;
    use planar_graph::biconnected::BiconnectedDecomposition;
    use planar_lib::gen;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

    /// Runs setup + one partition and returns `P_0` and the hanging parts
    /// (each used as-is, unrecursed — valid because merge only needs member
    /// sets).
    fn one_level(g: &Graph) -> (Vec<VertexId>, Vec<PartState>) {
        let cfg = SimConfig::default();
        let (setup, _) = run_setup(g, &cfg).unwrap();
        let p = partition_subtree(g, &setup.tree, setup.tree.root, &cfg).unwrap();
        let hanging = p
            .parts
            .iter()
            .map(|q| PartState::new(setup.tree.subtree_members(q.root)))
            .collect();
        (p.p0, hanging)
    }

    /// Runs setup + one partition + the merge of that partition's parts.
    fn merge_one_level(g: &Graph) -> MergeOutcome {
        let (p0, hanging) = one_level(g);
        merge_parts(g, p0, hanging, &SimConfig::default(), true).unwrap()
    }

    /// The hash-set routing region the vertex tables replaced: `P_0` plus
    /// the members of parts `idxs`.
    fn oracle_region(ctx: &MergeCtx, idxs: &[usize]) -> HashSet<VertexId> {
        let mut allowed: HashSet<VertexId> = ctx.p0.iter().copied().collect();
        for &i in idxs {
            allowed.extend(ctx.t.members(i).iter().copied());
        }
        allowed
    }

    /// `path_within` as a fresh `Vec`, leaving the route arena as it was.
    fn path_of(
        ctx: &mut MergeCtx,
        idxs: &[usize],
        from: VertexId,
        to: VertexId,
    ) -> Option<Vec<VertexId>> {
        let start = ctx.t.hops.len();
        let found = ctx.path_within(idxs, from, to).is_ok();
        let path = ctx.t.hops.split_off(start);
        found.then_some(path)
    }

    /// The hash-map BFS `path_within` replaced, kept as its oracle.
    fn oracle_path(
        g: &Graph,
        allowed: &HashSet<VertexId>,
        from: VertexId,
        to: VertexId,
    ) -> Option<Vec<VertexId>> {
        if from == to {
            return Some(vec![from]);
        }
        let mut pred: HashMap<VertexId, VertexId> = HashMap::new();
        let mut queue = VecDeque::from([from]);
        let mut seen: HashSet<VertexId> = HashSet::from([from]);
        while let Some(v) = queue.pop_front() {
            for &w in g.neighbors(v) {
                if w == to {
                    let mut path = vec![to, v];
                    let mut cur = v;
                    while let Some(&p) = pred.get(&cur) {
                        path.push(p);
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                if allowed.contains(&w) && seen.insert(w) {
                    pred.insert(w, v);
                    queue.push_back(w);
                }
            }
        }
        None
    }

    /// The hash-map BFS `region_depth` replaced, kept as its oracle.
    fn oracle_depth(g: &Graph, allowed: &HashSet<VertexId>, leader: VertexId) -> usize {
        let mut depth: HashMap<VertexId, usize> = HashMap::from([(leader, 0)]);
        let mut queue = VecDeque::from([leader]);
        let mut max = 0;
        while let Some(v) = queue.pop_front() {
            let d = depth[&v];
            for &w in g.neighbors(v) {
                if allowed.contains(&w) && !depth.contains_key(&w) {
                    depth.insert(w, d + 1);
                    max = max.max(d + 1);
                    queue.push_back(w);
                }
            }
        }
        max
    }

    /// The summary size the block pass replaced, kept as its oracle: it
    /// builds the part's induced subgraph and its block decomposition.
    fn summary_words(g: &Graph, members: &[VertexId], relevant: &[VertexId]) -> usize {
        let (sub, map) = g.induced_subgraph(members).expect("valid members");
        let reverse: HashMap<VertexId, VertexId> = map
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, VertexId::from_index(i)))
            .collect();
        let bc = BiconnectedDecomposition::compute(&sub);
        let mut relevant_blocks: HashSet<usize> = HashSet::new();
        let mut slots = 0usize;
        for &r in relevant {
            if let Some(&local) = reverse.get(&r) {
                slots += 1;
                for &b in bc.blocks_of_vertex(local) {
                    relevant_blocks.insert(b);
                }
            }
        }
        4 + 2 * relevant_blocks.len() + slots
    }

    /// The block pass's summary size for a member set (sorted), checked
    /// against the oracle.
    fn checked_size(
        pass: &mut BlockPass,
        g: &Graph,
        members: &[VertexId],
        relevant: &[VertexId],
    ) -> usize {
        let set: HashSet<VertexId> = members.iter().copied().collect();
        let words = pass.summary_size(g, members, |w| set.contains(&w), relevant);
        assert_eq!(
            words,
            summary_words(g, members, relevant),
            "members {members:?}, relevant {relevant:?}"
        );
        words
    }

    /// A random connected member set of `g` (sorted), grown one random
    /// frontier vertex at a time, and a random subset of it.
    fn random_part(g: &Graph, rng: &mut StdRng) -> (Vec<VertexId>, Vec<VertexId>) {
        let n = g.vertex_count();
        let target = rng.gen_range(1..=n);
        let mut inside = vec![false; n];
        let mut members = Vec::new();
        let mut frontier = vec![VertexId::from_index(rng.gen_range(0..n))];
        while members.len() < target && !frontier.is_empty() {
            let v = frontier.swap_remove(rng.gen_range(0..frontier.len()));
            if !inside[v.index()] {
                inside[v.index()] = true;
                members.push(v);
                frontier.extend(g.neighbors(v).iter().filter(|w| !inside[w.index()]));
            }
        }
        members.sort_unstable();
        let keep = rng.gen_range(0..=4u32);
        let relevant = members
            .iter()
            .copied()
            .filter(|_| rng.gen_range(0..4u32) < keep)
            .collect();
        (members, relevant)
    }

    #[test]
    fn block_pass_matches_bc_oracle_on_random_parts() {
        let mut pass = BlockPass::default();
        let mut rng = StdRng::seed_from_u64(26);
        for family in gen::FAMILIES {
            for n in [40, 150] {
                let g = (family.build)(n, 3);
                for _ in 0..25 {
                    let (members, relevant) = random_part(&g, &mut rng);
                    checked_size(&mut pass, &g, &members, &relevant);
                    checked_size(&mut pass, &g, &members, &members);
                }
            }
        }
    }

    #[test]
    fn block_pass_hand_cases() {
        let v = |ids: &[u32]| ids.iter().copied().map(VertexId).collect::<Vec<_>>();
        let mut pass = BlockPass::default();
        // An isolated single-vertex part has no block.
        let path = gen::path(3);
        assert_eq!(checked_size(&mut pass, &path, &v(&[1]), &v(&[1])), 5);
        // A bridge is a block.
        assert_eq!(checked_size(&mut pass, &path, &v(&[0, 1]), &v(&[0])), 7);
        assert_eq!(checked_size(&mut pass, &path, &v(&[0, 1]), &v(&[0, 1])), 8);
        // Two triangles sharing cut vertex 2, closed into one block of the
        // whole graph by the outside vertex 5: the part sees two blocks,
        // and a relevant cut vertex counts both.
        let bowtie = Graph::from_edges(
            6,
            [
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (3, 4),
                (2, 4),
                (0, 5),
                (4, 5),
            ],
        )
        .unwrap();
        let part = v(&[0, 1, 2, 3, 4]);
        assert_eq!(checked_size(&mut pass, &bowtie, &part, &v(&[2])), 9);
        assert_eq!(checked_size(&mut pass, &bowtie, &part, &v(&[0, 1])), 8);
        assert_eq!(checked_size(&mut pass, &bowtie, &part, &v(&[1, 3])), 10);
        // No relevant attachment: the overhead alone.
        assert_eq!(checked_size(&mut pass, &bowtie, &part, &[]), 4);
    }

    /// Checks `region_depth` (cached and recomputed), `path_within` and
    /// `summary_toward` against the oracles for every live part, alone and
    /// paired with the next live part, and the part lists against their
    /// definitions.
    fn assert_tables_match_oracle(ctx: &mut MergeCtx, label: &str) {
        let live: Vec<usize> = (0..ctx.t.parts.len())
            .filter(|&i| !ctx.is_empty(i))
            .collect();
        let mut list = Vec::new();
        for (k, &i) in live.iter().enumerate() {
            let leader = ctx.leader(i);
            assert_eq!(Some(&leader), ctx.t.members(i).iter().max());
            let region = oracle_region(ctx, &[i]);
            let cached = ctx.region_depth(i);
            ctx.t.parts[i].depth = NONE;
            assert_eq!(
                cached,
                ctx.region_depth(i),
                "{label}: stale depth of part {i}"
            );
            assert_eq!(
                cached,
                oracle_depth(ctx.g, &region, leader),
                "{label}: depth of part {i}"
            );
            ctx.connections(i, &mut list);
            let conns: BTreeSet<usize> = ctx
                .t
                .members(i)
                .iter()
                .flat_map(|&v| ctx.g.neighbors(v))
                .filter_map(|w| ctx.p0.iter().position(|p| p == w))
                .collect();
            assert!(list.iter().eq(conns.iter()), "{label}: connections of {i}");
            assert_eq!(ctx.low_connection(i), conns.first().copied());
            ctx.part_neighbors(i, &mut list);
            let nbrs: BTreeSet<usize> = ctx
                .t
                .members(i)
                .iter()
                .flat_map(|&v| ctx.g.neighbors(v))
                .map(|w| ctx.t.part_of[w.index()])
                .filter(|&j| ctx.is_other_live(i, j))
                .map(|j| j as usize)
                .collect();
            assert!(list.iter().eq(nbrs.iter()), "{label}: neighbors of {i}");
            assert_eq!(ctx.has_part_neighbor(i), !nbrs.is_empty());
            let mut targets = vec![ctx.p0[0], ctx.p0[ctx.p0.len() - 1]];
            if let Some(&low) = conns.first() {
                targets.extend(ctx.first_attachment_to(i, low));
            }
            let mut groups = vec![vec![i]];
            if let Some(&j) = live.get(k + 1) {
                targets.push(ctx.leader(j));
                groups.push(vec![j, i]);
            }
            for group in groups {
                for coord in [None, Some(ctx.p0[0])] {
                    let words = ctx.summary_toward(i, coord, &group);
                    let oracle = summary_words(ctx.g, ctx.t.members(i), &ctx.t.relevant);
                    assert_eq!(words, oracle, "{label}: summary of {i} toward {group:?}");
                }
                let region = oracle_region(ctx, &group);
                for &to in &targets {
                    assert_eq!(
                        path_of(ctx, &group, leader, to),
                        oracle_path(ctx.g, &region, leader, to),
                        "{label}: path from {leader} to {to} within {group:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn vertex_tables_match_hash_set_oracle() {
        for family in gen::FAMILIES {
            for n in [60, 200] {
                let g = (family.build)(n, 5);
                let (p0, hanging) = one_level(&g);
                let mut exec = ExecutionContext::with_sim(&g, &SimConfig::default());
                let members = || hanging.iter().map(|p| &p.members[..]);
                let mut ctx = MergeCtx::new(&mut exec, &p0, members(), false);
                let label = format!("{} n={n}", family.name);
                assert_tables_match_oracle(&mut ctx, &label);
                for _iteration in 0..2 {
                    ctx.step_a_and_b().unwrap();
                    assert_tables_match_oracle(&mut ctx, &label);
                    ctx.step_c_d().unwrap();
                    ctx.step_f_to_i().unwrap();
                    assert_tables_match_oracle(&mut ctx, &label);
                }
                ctx.steps_3_to_5().unwrap();
                assert_tables_match_oracle(&mut ctx, &label);
                // A whole merge hands the scratch back with its tables clear.
                merge_parts_ctx(&mut exec, &p0, members(), false).unwrap();
                let t = &exec.merge_scratch;
                assert!(t.p0_pos.iter().chain(&t.part_of).all(|&x| x == NONE));
            }
        }
    }

    #[test]
    fn merge_covers_whole_graph() {
        let g = gen::grid(5, 5);
        let out = merge_one_level(&g);
        assert_eq!(out.part.len(), 25);
        assert!(out.metrics.rounds > 0);
        assert_eq!(out.stats.subtree_size, 25);
    }

    #[test]
    fn merge_on_cycle() {
        let g = gen::cycle(12);
        let out = merge_one_level(&g);
        assert_eq!(out.part.len(), 12);
    }

    #[test]
    fn merge_on_tree() {
        let g = gen::random_tree(30, 7);
        let out = merge_one_level(&g);
        assert_eq!(out.part.len(), 30);
    }

    #[test]
    fn merge_on_k4_subdivided() {
        let g = gen::k4_subdivided(4);
        let out = merge_one_level(&g);
        assert_eq!(out.part.len(), g.vertex_count());
    }

    #[test]
    fn merge_stats_populated() {
        let g = gen::triangulated_grid(4, 6);
        let out = merge_one_level(&g);
        assert!(out.stats.initial_parts >= 1);
        assert!(out.stats.final_parts <= out.stats.initial_parts);
        assert!(out.stats.p0_len >= 1);
    }

    #[test]
    fn merge_trivial_no_hanging_parts() {
        // A path where P_0 swallows... a 2-vertex graph: P_0 = both.
        let g = gen::path(2);
        let cfg = SimConfig::default();
        let (setup, _) = run_setup(&g, &cfg).unwrap();
        let p = partition_subtree(&g, &setup.tree, setup.tree.root, &cfg).unwrap();
        let hanging: Vec<PartState> = p
            .parts
            .iter()
            .map(|q| PartState::new(setup.tree.subtree_members(q.root)))
            .collect();
        let out = merge_parts(&g, p.p0, hanging, &cfg, true).unwrap();
        assert_eq!(out.part.len(), 2);
    }

    #[test]
    fn final_parts_bounded_on_wide_shallow_graph() {
        // A fan has diameter 2; the paper's argument says the restricted
        // merge sees O(D) parts after the reduction. Measure it.
        let g = gen::fan(40);
        let out = merge_one_level(&g);
        assert!(
            out.stats.final_parts <= 12,
            "expected O(D) final parts on a diameter-2 graph, got {}",
            out.stats.final_parts
        );
    }
}
