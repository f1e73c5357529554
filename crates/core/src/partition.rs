//! The partitioning step of Section 4: split a BFS subtree `T_s` into the
//! coordinator path `P_0 = s..v` (where `v` is the 2/3-splitter found by a
//! distributed centroid walk) and the hanging subtree parts `P_1..P_k`.
//!
//! [`partition_level`] partitions a list of vertex-disjoint subtrees in one
//! kernel invocation per protocol, each subtree an [`Instance`] over its
//! own members: per-instance metrics are bit-identical to partitioning the
//! subtrees one at a time, and the kernel enforces that sibling subtrees
//! never exchange a message. The level-synchronous walker passes a whole
//! level of the recursion; the depth-first walker passes one root.

use congest_sim::protocols::{CentroidWalk, Downcast};
use congest_sim::routing::Transfer;
use congest_sim::{Instance, Metrics};
use planar_graph::VertexId;

use crate::error::EmbedError;
use crate::exec::{vec_bytes, ExecutionContext};
use crate::tree::GlobalTree;

/// A subproblem of the recursion: a full BFS subtree. Its members are
/// [`GlobalTree::subtree_members`] of `root`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubProblem {
    /// Root of the subtree.
    pub root: VertexId,
    /// Number of vertices of the subtree.
    pub size: usize,
}

/// The result of partitioning one subtree.
#[derive(Clone, Debug, PartialEq)]
pub struct Partition {
    /// The trivial path part `P_0`, ordered from the subtree root `s` to the
    /// splitter `v`.
    pub p0: Vec<VertexId>,
    /// The hanging parts `P_1..P_k`, each a full subtree.
    pub parts: Vec<SubProblem>,
    /// Kernel cost of computing the partition.
    pub metrics: Metrics,
}

/// A vertex's role in the part-label downcast: relaying (the default),
/// inert on `P_0`, or a part root injecting its own id.
const RELAY: u8 = 0;
const ON_P0: u8 = 1;
const PART_ROOT: u8 = 2;

/// Host-side tables of the partition phase, indexed by vertex. An
/// [`ExecutionContext`] owns one and lends it to each partition call; the
/// tables grow to the largest graph served.
///
/// The subtrees being partitioned are enumerated once per call into
/// `order`, each in the preorder of [`GlobalTree::subtree_members`], and
/// every vertex's subtree size is counted into `len` on the way, so the
/// size of the hanging part rooted at `r` is `len[r]`.
#[derive(Debug, Default)]
pub(crate) struct PartitionScratch {
    order: Vec<VertexId>,
    /// Per subtree of the call: its range in `order`.
    spans: Vec<(usize, usize)>,
    /// Size of a vertex's subtree, counted over the children lists.
    len: Vec<u32>,
    /// Downcast role of a vertex ([`RELAY`] outside the current spines).
    role: Vec<u8>,
    stack: Vec<VertexId>,
    /// Two-vertex routes of the part-root notifications.
    hops: Vec<VertexId>,
    /// Member lists of finished calls' instances, reused by the next.
    spare: Vec<Vec<VertexId>>,
}

impl PartitionScratch {
    /// Heap bytes the tables reserve.
    pub(crate) fn memory_bytes(&self) -> usize {
        vec_bytes(&self.order)
            + vec_bytes(&self.spans)
            + vec_bytes(&self.len)
            + vec_bytes(&self.role)
            + vec_bytes(&self.stack)
            + vec_bytes(&self.hops)
            + vec_bytes(&self.spare)
            + self.spare.iter().map(vec_bytes).sum::<usize>()
    }

    /// Enumerates the subtrees rooted at `roots` (vertex-disjoint) into
    /// `order`, filling `spans` and `len`.
    fn enumerate(&mut self, tree: &GlobalTree, roots: &[VertexId]) {
        let n = tree.parent.len();
        self.len.resize(n, 0);
        self.role.resize(n, RELAY);
        self.order.clear();
        self.spans.clear();
        for &root in roots {
            // The stack discipline of `GlobalTree::subtree_members`.
            let start = self.order.len();
            self.stack.clear();
            self.stack.push(root);
            while let Some(x) = self.stack.pop() {
                self.order.push(x);
                self.stack.extend_from_slice(&tree.children[x.index()]);
            }
            for &x in self.order[start..].iter().rev() {
                let below: u32 = tree.children[x.index()]
                    .iter()
                    .map(|c| self.len[c.index()])
                    .sum();
                self.len[x.index()] = below + 1;
            }
            self.spans.push((start, self.order.len()));
        }
    }

    /// The members of the `i`-th enumerated subtree.
    fn members(&self, i: usize) -> &[VertexId] {
        let (start, end) = self.spans[i];
        &self.order[start..end]
    }

    /// The label-downcast program a subtree member runs: `P_0` vertices are
    /// inert, part roots inject their own id, everyone else relays to its
    /// tree children.
    fn downcaster<'t>(&self, tree: &'t GlobalTree, v: VertexId) -> Downcast<'t> {
        match self.role[v.index()] {
            ON_P0 => Downcast::new(&[], None),
            PART_ROOT => Downcast::new(&tree.children[v.index()], Some(v.0)),
            _ => Downcast::new(&tree.children[v.index()], None),
        }
    }
}

/// Partitions every subtree in `roots` in **two batched kernel
/// invocations** (one for all centroid walks, one for all label
/// downcasts), on the context's kernel with its reliability policy; the
/// routed part-root notification is charged analytically and needs no
/// protection.
///
/// The subtrees must be vertex-disjoint (same-level subproblems of the
/// recursion always are); each becomes one [`Instance`] over its members,
/// so the returned partitions — splitter, `P_0`, parts, *and metrics* —
/// are bit-identical to calling this once per root, and the kernel rejects
/// any message between sibling subtrees
/// ([`congest_sim::SimError::CrossInstanceSend`]).
///
/// Cost per subtree: a centroid walk (`O(depth)` rounds, measured by the
/// kernel), one round of part-root notification (charged via routed
/// transfers) and a label downcast into each hanging subtree (`O(depth)`
/// rounds, measured).
///
/// # Errors
///
/// Propagates kernel/routing errors (which indicate internal bugs, not bad
/// inputs).
pub fn partition_level(
    ctx: &mut ExecutionContext<'_>,
    tree: &GlobalTree,
    roots: &[VertexId],
) -> Result<Vec<Partition>, EmbedError> {
    if roots.is_empty() {
        return Ok(Vec::new());
    }
    let mut t = std::mem::take(&mut ctx.partition_scratch);
    t.enumerate(tree, roots);

    // 1. All centroid walks, one shared round lattice. Each subtree's
    //    member list comes from the scratch's spares and serves its
    //    downcast too.
    let walk_instances: Vec<Instance<CentroidWalk>> = roots
        .iter()
        .enumerate()
        .map(|(i, &root)| {
            let total = tree.subtree_size[root.index()];
            let mut members = t.spare.pop().unwrap_or_default();
            members.clear();
            members.extend_from_slice(t.members(i));
            members.sort_unstable();
            debug_assert_eq!(members.len() as u64, total);
            let walkers = members
                .iter()
                .map(|&v| centroid_walker(tree, v, total, root))
                .collect();
            Instance::with_members(members, walkers)
        })
        .collect();
    let walk_out = ctx.run_phase(walk_instances)?;

    // 2. Per subtree: splitter, P_0, part roots, charged notification.
    let mut partitions = Vec::with_capacity(roots.len());
    for (i, &root) in roots.iter().enumerate() {
        let inst = &walk_out.instances[i];
        let centroid = t
            .members(i)
            .iter()
            .copied()
            .find(|&v| inst.program(v).is_some_and(CentroidWalk::is_centroid))
            .ok_or_else(|| EmbedError::Internal("centroid walk did not terminate".into()))?;
        partitions.push(spine(ctx, &mut t, tree, root, centroid, inst.metrics)?);
    }

    // 3. All part-label downcasts, one shared round lattice.
    let down_instances: Vec<Instance<Downcast>> = walk_out
        .instances
        .into_iter()
        .map(|inst| {
            let programs = inst
                .members
                .iter()
                .map(|&v| t.downcaster(tree, v))
                .collect();
            Instance::with_members(inst.members, programs)
        })
        .collect();
    let down_out = ctx.run_phase(down_instances)?;
    for (partition, inst) in partitions.iter_mut().zip(down_out.instances) {
        finish(&mut t, partition, inst.metrics);
        t.spare.push(inst.members);
    }
    ctx.partition_scratch = t;
    Ok(partitions)
}

/// The subtree's centroid-walk program: every member knows its tree
/// children's subtree sizes and the subtree total.
fn centroid_walker(tree: &GlobalTree, v: VertexId, total: u64, root: VertexId) -> CentroidWalk {
    let child_sizes = tree.children[v.index()]
        .iter()
        .map(|&c| (c, tree.subtree_size[c.index()]));
    CentroidWalk::new(child_sizes, total, v == root)
}

/// The host-side skeleton of one partition, derived from the walk's
/// splitter between the centroid walk and the label downcast: `P_0` and
/// the hanging parts, whose downcast roles sit in the [`PartitionScratch`]
/// until [`finish`]. `metrics` holds the walk's cost; the one-round
/// part-root notification is charged on top.
fn spine(
    ctx: &mut ExecutionContext<'_>,
    t: &mut PartitionScratch,
    tree: &GlobalTree,
    root: VertexId,
    centroid: VertexId,
    mut metrics: Metrics,
) -> Result<Partition, EmbedError> {
    // P_0 = path from s down to the splitter.
    let below = tree.depth[centroid.index()].saturating_sub(tree.depth[root.index()]);
    let mut p0 = Vec::with_capacity(below as usize + 1);
    p0.push(centroid);
    let mut cur = centroid;
    while cur != root {
        cur = tree.parent[cur.index()].expect("the subtree root is an ancestor");
        p0.push(cur);
    }
    p0.reverse();
    for &v in &p0 {
        t.role[v.index()] = ON_P0;
    }

    // Part roots: children of P_0 vertices that are not on P_0 themselves.
    // One charged round: each P_0 vertex tells those children.
    t.hops.clear();
    for &p in &p0 {
        for &c in &tree.children[p.index()] {
            if t.role[c.index()] != ON_P0 {
                t.role[c.index()] = PART_ROOT;
                t.hops.extend([p, c]);
            }
        }
    }
    let parts = t
        .hops
        .chunks(2)
        .map(|hop| SubProblem {
            root: hop[1],
            size: t.len[hop[1].index()] as usize,
        })
        .collect();
    metrics.add(ctx.schedule(t.hops.chunks(2).map(|hop| Transfer::along(hop, 1)))?);
    Ok(Partition { p0, parts, metrics })
}

/// Completes a [`spine`] with the downcast's cost: clears its downcast
/// roles and stamps the phase attribution.
fn finish(t: &mut PartitionScratch, partition: &mut Partition, downcast: Metrics) {
    let roots = partition.parts.iter().map(|part| part.root);
    for v in partition.p0.iter().copied().chain(roots) {
        t.role[v.index()] = RELAY;
    }
    partition.metrics.add(downcast);
    // All rounds above belong to the partition phase.
    partition.metrics.phase_rounds.partition = partition.metrics.rounds;
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::setup::run_setup;
    use crate::EmbedderConfig;
    use congest_sim::protocols::ReliableConfig;
    use congest_sim::{FaultPlan, SimConfig};
    use planar_graph::Graph;
    use planar_lib::gen;

    fn setup_tree(g: &Graph) -> GlobalTree {
        run_setup(g, &SimConfig::default()).unwrap().0.tree
    }

    /// The partition of the subtree rooted at `root`: a level of one on a
    /// bare context.
    pub(crate) fn partition_subtree(
        g: &Graph,
        tree: &GlobalTree,
        root: VertexId,
        cfg: &SimConfig,
    ) -> Result<Partition, EmbedError> {
        let mut ctx = ExecutionContext::with_sim(g, cfg);
        Ok(partition_level(&mut ctx, tree, &[root])?.remove(0))
    }

    #[test]
    fn partition_respects_lemma_4_2() {
        let g = gen::grid(6, 6);
        let tree = setup_tree(&g);
        let p = partition_subtree(&g, &tree, tree.root, &SimConfig::default()).unwrap();
        let n = g.vertex_count();
        // P_0 non-empty, starts at the root.
        assert_eq!(p.p0[0], tree.root);
        // Every hanging part has size <= 2n/3 (Lemma 4.2).
        for part in &p.parts {
            assert!(3 * part.size <= 2 * n);
        }
        // Parts + P_0 partition the subtree.
        let covered: usize = p.p0.len() + p.parts.iter().map(|q| q.size).sum::<usize>();
        assert_eq!(covered, n);
        // Part diameter (tree depth within part) < depth(T_s) (Lemma 4.2).
        let depth_ts = tree.tree_depth();
        for part in &p.parts {
            assert!(tree.subtree_depth(part.root) < depth_ts.max(1));
        }
    }

    #[test]
    fn partition_of_path_graph() {
        let g = gen::path(9); // root will be vertex 8
        let tree = setup_tree(&g);
        let p = partition_subtree(&g, &tree, tree.root, &SimConfig::default()).unwrap();
        // On a path rooted at an end, P_0 runs from 8 down to the first
        // splitter (vertex 6: below it hang 6 vertices <= 2*9/3 = 6, above 2).
        assert_eq!(p.p0, vec![VertexId(8), VertexId(7), VertexId(6)]);
        assert_eq!(p.parts.len(), 1);
        assert_eq!(p.parts[0].root, VertexId(5));
        assert_eq!(p.parts[0].size, 6);
    }

    #[test]
    fn partition_of_star_is_center_plus_leaves() {
        let g = gen::star(7); // center 0, leaves 1..6; root = 6 (max id)
        let tree = setup_tree(&g);
        let p = partition_subtree(&g, &tree, tree.root, &SimConfig::default()).unwrap();
        // The walk goes 6 -> 0 (subtree below 0 has 6 > 2*7/3 = 4.67).
        assert_eq!(p.p0, vec![VertexId(6), VertexId(0)]);
        assert_eq!(p.parts.len(), 5);
        for part in &p.parts {
            assert_eq!(part.size, 1);
        }
    }

    #[test]
    fn partition_cost_is_linear_in_depth() {
        let g = gen::path(64);
        let tree = setup_tree(&g);
        let p = partition_subtree(&g, &tree, tree.root, &SimConfig::default()).unwrap();
        // Centroid walk + notify + downcast: all O(depth) = O(n) on a path.
        assert!(p.metrics.rounds <= 3 * 64, "rounds = {}", p.metrics.rounds);
    }

    #[test]
    fn partition_single_vertex_subtree() {
        let g = gen::path(4);
        let tree = setup_tree(&g);
        // Leaf subtree (vertex 0): P_0 = [0], no parts.
        let p = partition_subtree(&g, &tree, VertexId(0), &SimConfig::default()).unwrap();
        assert_eq!(p.p0, vec![VertexId(0)]);
        assert!(p.parts.is_empty());
    }

    /// A level of several roots equals one-root levels, fault-free and
    /// under a fault plan with reliable delivery (retransmissions and fault
    /// counters included in the per-partition metrics).
    #[test]
    fn batched_level_matches_one_at_a_time() {
        let g = gen::grid(6, 6);
        let tree = setup_tree(&g);
        // Partition the root, then its hanging parts both ways.
        let top = partition_subtree(&g, &tree, tree.root, &SimConfig::default()).unwrap();
        let roots: Vec<VertexId> = top
            .parts
            .iter()
            .filter(|p| p.size > 1)
            .map(|p| p.root)
            .collect();
        assert!(roots.len() > 1, "grid should split into several parts");
        let chaos = EmbedderConfig {
            sim: SimConfig {
                faults: FaultPlan::uniform(7, 0.2, 0.05, 0.1, 2),
                ..SimConfig::default()
            },
            reliability: Some(ReliableConfig::default()),
            ..EmbedderConfig::default()
        };
        for cfg in [EmbedderConfig::default(), chaos] {
            let mut ctx = ExecutionContext::new(&g, &cfg);
            let batched = partition_level(&mut ctx, &tree, &roots).unwrap();
            for (i, &root) in roots.iter().enumerate() {
                let mut alone = ExecutionContext::new(&g, &cfg);
                let solo = partition_level(&mut alone, &tree, &[root]).unwrap();
                let solo = &solo[0];
                assert_eq!(batched[i].p0, solo.p0);
                assert_eq!(batched[i].metrics, solo.metrics);
                let b_parts: Vec<_> = batched[i].parts.iter().map(|p| (p.root, p.size)).collect();
                let s_parts: Vec<_> = solo.parts.iter().map(|p| (p.root, p.size)).collect();
                assert_eq!(b_parts, s_parts);
            }
            if cfg.reliability.is_some() {
                let m = batched.iter().map(|p| p.metrics);
                assert!(
                    m.clone().map(|m| m.dropped).sum::<usize>() > 0,
                    "nothing dropped"
                );
                assert!(
                    m.map(|m| m.retransmissions).sum::<usize>() > 0,
                    "no retransmission"
                );
            }
        }
    }

    /// Part sizes read off the shared subtree enumeration equal the
    /// subtrees `GlobalTree::subtree_members` lists, at every level of the
    /// recursion, and the one-pass subtree depths equal the per-vertex
    /// walk.
    #[test]
    fn part_sizes_and_depths_match_the_tree() {
        for family in gen::FAMILIES {
            let g = (family.build)(120, 3);
            let tree = setup_tree(&g);
            let depths = tree.subtree_depths();
            for v in g.vertices() {
                assert_eq!(depths[v.index()], tree.subtree_depth(v), "{}", family.name);
            }
            let mut ctx = ExecutionContext::with_sim(&g, &SimConfig::default());
            let mut roots = vec![tree.root];
            while !roots.is_empty() {
                let partitions = partition_level(&mut ctx, &tree, &roots).unwrap();
                roots.clear();
                for part in partitions.iter().flat_map(|p| &p.parts) {
                    let members = tree.subtree_members(part.root);
                    assert_eq!(part.size, members.len(), "{}", family.name);
                    if part.size > 1 {
                        roots.push(part.root);
                    }
                }
            }
        }
    }
}
