//! The end-to-end distributed planar embedding algorithm (Theorem 1.1):
//! setup, recursive partitioning, and level-by-level merging, with every
//! phase's CONGEST cost measured or charged.
//!
//! Two walkers, one arena, one epilogue. Every driver path runs the same
//! prologue ([`run_recursion_retained`]: setup, the density guard, one
//! walk of the Section 4 recursion, the coverage check) and the same
//! epilogue ([`run_epilogue`]: output rotation, optional certification).
//! The walk is picked by [`EmbedderConfig::scheduler`], and both walkers
//! leave the same retained [`RecNode`] arena behind:
//!
//! * [`Scheduler::LevelSync`] (the default) is *level-synchronous*: it
//!   collects every same-level subproblem and partitions all of them in
//!   one batched kernel invocation ([`partition_level`]) over
//!   vertex-disjoint instances, then runs all merges bottom-up. Host-side
//!   cost per level is proportional to the level's total subproblem size.
//! * [`Scheduler::Sequential`] is the depth-first recursion — the
//!   conformance oracle. It partitions each subproblem as a level of one
//!   ([`partition_level`] with one root), an instance scoped to the
//!   subproblem's members. Its code is the incremental rebuild walker
//!   (`crate::incremental`) given no old arena, so nothing is adopted and
//!   every node is partitioned and merged through the kernel.
//!
//! [`RecursionStats`] is derived from the finished arena in one pass
//! ([`recursion_stats`]), so the two walkers cannot disagree on it by
//! construction. Rotations, metrics and certification verdicts are
//! bit-identical too (`tests/scheduler.rs`): the round tally composes
//! identically because charging is order-independent and batched
//! per-instance metrics equal the one-at-a-time runs.
//!
//! **Fidelity note** (see DESIGN.md): the distributed recursion computes,
//! charges, and validates the full partition/merge structure, but the
//! merged parts carry member sets, not embeddings. The rotation handed to
//! the caller is produced by the centralized solver [`planar_lib::embed`]
//! on the whole graph, in [`run_epilogue`]. The only pinned embeddings
//! the recursion computes are the invariant checks of
//! [`crate::parts::verify_part`] (with `check_invariants` on), whose
//! answers are discarded. The `every_arena_node_solves_its_subproblem`
//! regression pins that every merged part holds exactly its subproblem's
//! members and that the top-level part covers the graph.

use congest_sim::{Metrics, Phase, SimConfig, SimError};
use planar_graph::{Graph, RotationSystem, VertexId};

use crate::certify::{certify_in, Certification};
use crate::error::{DegradedCause, EmbedError};
use crate::exec::ExecutionContext;
use crate::merge::merge_parts_ctx;
use crate::partition::{partition_level, Partition};
use crate::parts::{partition_is_safe, PartState};
use crate::resilience::auto_watchdog;
use crate::setup::run_setup_ctx;
use crate::stats::{LevelStats, MergeStats, RecursionStats};
use crate::tree::GlobalTree;
use crate::verify::verify_surviving_embedding;
use crate::{Kernel, Scheduler};

/// Configuration of the distributed embedder.
#[derive(Clone, Debug)]
pub struct EmbedderConfig {
    /// Kernel simulation parameters (per-edge word budget, round cap,
    /// fault plan, watchdog).
    pub sim: SimConfig,
    /// Verify the framework invariants (part safety, co-facial boundaries)
    /// at every merge. Quadratic-ish; disable for large benchmark runs.
    pub check_invariants: bool,
    /// Lift every kernel phase into the acknowledgement/retransmission
    /// wrapper ([`congest_sim::protocols::Reliable`]). `None` (the default)
    /// runs the phases bare; combine `Some(..)` with a fault plan on `sim`
    /// to survive lossy links.
    pub reliability: Option<congest_sim::protocols::ReliableConfig>,
    /// Append a distributed certification phase: build `O(Δ log n)`-bit
    /// per-node certificates for the computed rotation and run the
    /// O(1)-round local verifier ([`crate::certify_embedding`]) on the
    /// same simulated network. The outcome then carries the certificates
    /// and the per-node verdicts in
    /// [`EmbeddingOutcome::certification`]; in fault mode, degraded
    /// results additionally audit the surviving subgraph distributedly
    /// before reporting `verified: true`.
    pub certify: bool,
    /// Which simulation kernel executes the phases: the allocation-free
    /// CSR kernel (default) or the executable-spec reference kernel.
    pub kernel: Kernel,
    /// How the driver walks the recursion: level-synchronous batching
    /// (default) or the original one-run-per-subproblem depth-first
    /// recursion. Outputs are bit-identical either way.
    pub scheduler: Scheduler,
}

impl Default for EmbedderConfig {
    fn default() -> Self {
        EmbedderConfig {
            sim: SimConfig::default(),
            check_invariants: true,
            reliability: None,
            certify: false,
            kernel: Kernel::default(),
            scheduler: Scheduler::default(),
        }
    }
}

/// The result of a distributed embedding run.
#[derive(Clone, Debug)]
pub struct EmbeddingOutcome {
    /// The computed combinatorial planar embedding (per-vertex clockwise
    /// edge orders).
    pub rotation: RotationSystem,
    /// Total CONGEST cost (rounds is the headline `O(D·min{log n, D})`).
    pub metrics: Metrics,
    /// Structural statistics validating Lemmas 4.2/4.3 and the part-count
    /// argument.
    pub stats: RecursionStats,
    /// Distributed certification artifacts (certificates + per-node
    /// verdicts), present iff [`EmbedderConfig::certify`] was set. The
    /// run only succeeds if every node accepted.
    pub certification: Option<Certification>,
}

/// Runs the distributed planar embedding algorithm of Theorem 1.1 on the
/// network `g`.
///
/// # Errors
///
/// * [`EmbedError::NonPlanar`] if `g` is not planar (the algorithm doubles
///   as a planarity test);
/// * [`EmbedError::Disconnected`] / [`EmbedError::EmptyGraph`] for invalid
///   networks;
/// * [`EmbedError::Internal`] if a framework invariant fails (a bug, not an
///   input condition).
///
/// # Example
///
/// ```
/// use planar_embedding::{embed_distributed, EmbedderConfig};
/// use planar_lib::gen;
///
/// # fn main() -> Result<(), planar_embedding::EmbedError> {
/// let g = gen::grid(4, 4);
/// let out = embed_distributed(&g, &EmbedderConfig::default())?;
/// assert!(out.rotation.is_planar_embedding());
/// # Ok(())
/// # }
/// ```
pub fn embed_distributed(g: &Graph, cfg: &EmbedderConfig) -> Result<EmbeddingOutcome, EmbedError> {
    let fault_mode = !cfg.sim.faults.is_empty();
    if !fault_mode {
        // Perfect network: the original code path, bit for bit (the fault
        // subsystem must cost nothing when unused).
        let mut ctx = ExecutionContext::new(g, cfg);
        return embed_inner(g, cfg, &mut ctx);
    }

    // Fault mode: arm the watchdog (unless the caller chose one) so lossy
    // phases terminate, run, and translate every failure into the typed
    // degradation report instead of surfacing internal errors.
    let mut hardened = cfg.clone();
    if hardened.sim.watchdog.is_none() {
        hardened.sim.watchdog = Some(auto_watchdog(g.vertex_count()));
    }
    let mut ctx = ExecutionContext::new(g, &hardened);
    // A fault plan is graph-agnostic: victims outside `g` never crash.
    let crashed = cfg.sim.faults.crash_victims();
    let n = g.vertex_count();
    let surviving_nodes = n - crashed.iter().filter(|v| v.index() < n).count();
    match embed_inner(g, &hardened, &mut ctx) {
        Ok(out) => {
            // Post-run self-verification: in fault mode a "successful" run
            // still only counts if the rotation restricted to the surviving
            // subgraph certifies as planar.
            match verify_surviving_embedding(g, &out.rotation, &crashed) {
                // If any node actually crash-stopped mid-run, the result
                // covers only the survivors — report it as a (verified)
                // degradation rather than letting it pass for a full
                // embedding. Crash victims whose scheduled round was never
                // reached participated normally and do not degrade. With
                // certification enabled, `verified: true` additionally
                // requires the survivors' own distributed audit
                // ([`crate::certify_surviving_embedding`]) to accept.
                Ok(()) if out.metrics.crashed_nodes > 0 => {
                    let distributed_ok = !cfg.certify
                        || crate::certify::certify_surviving_embedding(
                            g,
                            &out.rotation,
                            &crashed,
                            cfg,
                        )
                        .map(|c| c.accepted())
                        .unwrap_or(false);
                    Err(EmbedError::Degraded {
                        surviving_nodes,
                        rounds_used: ctx.rounds_used(),
                        verified: distributed_ok,
                        cause: if distributed_ok {
                            DegradedCause::SurvivorsOnly
                        } else {
                            DegradedCause::OutputUnverified
                        },
                    })
                }
                Ok(()) => Ok(out),
                Err(_) => Err(EmbedError::Degraded {
                    surviving_nodes,
                    rounds_used: ctx.rounds_used(),
                    verified: false,
                    cause: DegradedCause::OutputUnverified,
                }),
            }
        }
        // Input conditions a fault-free run would also report: pass through.
        Err(e @ (EmbedError::EmptyGraph | EmbedError::Graph(_))) => Err(e),
        // Kernel aborts (watchdog, crashed-destination sends) keep their
        // typed error as the cause, losslessly. Round-limit aborts report
        // how many rounds the dying phase actually ran; charge them so
        // `rounds_used` reflects the work done, not zero.
        Err(EmbedError::Sim(e)) => {
            if let SimError::WatchdogTimeout { limit } | SimError::MaxRoundsExceeded { limit } = e {
                ctx.charge_partial(limit);
            }
            Err(EmbedError::Degraded {
                surviving_nodes,
                rounds_used: ctx.rounds_used(),
                verified: false,
                cause: DegradedCause::Sim(e),
            })
        }
        // Everything else — a convergecast that missed the root
        // (`Internal`), leader election that never converged
        // (`Disconnected`), a merge handed fault-corrupted part state
        // (`NonPlanar`, `Routing`, invariant violations) — is the phase
        // coming up short because of injected faults. No embedding was
        // produced, so nothing could be re-verified.
        Err(_) => Err(EmbedError::Degraded {
            surviving_nodes,
            rounds_used: ctx.rounds_used(),
            verified: false,
            cause: DegradedCause::PhaseIncomplete {
                phase: ctx.phase().name(),
            },
        }),
    }
}

/// The prologue every driver path shares: setup, the density guard, one
/// walk of the recursion by the configured [`Scheduler`], and the check
/// that the top-level merge covers the graph. Returns the global BFS tree
/// from setup, the retained recursion arena, the parallel-composed
/// metrics (setup included), and the statistics derived from the arena;
/// the sequential-tally stamps are left to the caller, whose epilogue may
/// still charge rounds.
pub(crate) fn run_recursion_retained(
    g: &Graph,
    cfg: &EmbedderConfig,
    ctx: &mut ExecutionContext<'_>,
) -> Result<(GlobalTree, Vec<RecNode>, Metrics, RecursionStats), EmbedError> {
    ctx.enter(Phase::Setup);
    let (setup, setup_metrics) = run_setup_ctx(ctx)?;
    ctx.charge(&setup_metrics);
    density_guard(g)?;

    let nodes = match cfg.scheduler {
        Scheduler::LevelSync => solve_level_sync_retained(&setup.tree, cfg, ctx)?,
        Scheduler::Sequential => crate::incremental::solve_depth_first(&setup.tree, cfg, ctx)?,
    };
    check_root_covers(&nodes, g.vertex_count())?;
    let mut metrics = setup_metrics;
    metrics.add(nodes[0].metrics);
    let stats = recursion_stats(&setup.tree, &nodes, cfg);
    Ok((setup.tree, nodes, metrics, stats))
}

/// The cheap planarity guard every path runs before recursing: a simple
/// planar graph on `n >= 3` vertices has at most `3n - 6` edges.
pub(crate) fn density_guard(g: &Graph) -> Result<(), EmbedError> {
    let n = g.vertex_count();
    if n >= 3 && g.edge_count() > 3 * n - 6 {
        return Err(EmbedError::NonPlanar);
    }
    Ok(())
}

/// Checks that the arena's top-level merged part holds all `n` vertices.
/// Message loss can leave it short with every phase reporting success;
/// surface a typed failure so fault mode degrades to `PhaseIncomplete`
/// instead of asserting (found by the DST swarm, `crates/dst`). A
/// fault-free run can never trip this — there it is a genuine bug report.
pub(crate) fn check_root_covers(nodes: &[RecNode], n: usize) -> Result<(), EmbedError> {
    let merged = nodes[0].solved().map_or(0, <[VertexId]>::len);
    if merged != n {
        return Err(EmbedError::Internal(format!(
            "recursion merged only {merged} of {n} vertices"
        )));
    }
    Ok(())
}

/// The epilogue every driver path shares. The output rotation is computed
/// here, by the centralized solver [`planar_lib::embed`] on the whole
/// graph; the recursion's merged parts hold member sets, not rotations
/// (see the module-level fidelity note). With [`EmbedderConfig::certify`]
/// set, `certify` then supplies the distributed certification of that
/// rotation — the O(1)-round proof-labeling verifier, run as one more
/// phase of `ctx` (same fault plan, reliability, and kernel) — whose
/// cost lands in the tally like any other phase, and which must accept.
pub(crate) fn run_epilogue(
    g: &Graph,
    cfg: &EmbedderConfig,
    ctx: &mut ExecutionContext<'_>,
    certify: impl FnOnce(
        &mut ExecutionContext<'_>,
        &RotationSystem,
    ) -> Result<Certification, EmbedError>,
) -> Result<(RotationSystem, Option<Certification>), EmbedError> {
    let rotation = planar_lib::embed(g)?;
    debug_assert!(rotation.is_planar_embedding());
    if !cfg.certify {
        return Ok((rotation, None));
    }
    ctx.enter(Phase::Cert);
    let cert = certify(ctx, &rotation)?;
    ctx.charge(&cert.report.metrics);
    if !cert.accepted() {
        return Err(EmbedError::Internal(format!(
            "distributed certification rejected the embedding: rejections {:?}, incomplete {:?}",
            cert.report.rejections, cert.report.incomplete
        )));
    }
    Ok((rotation, Some(cert)))
}

/// Runs only the distributed pipeline — setup plus the scheduled
/// partition/merge recursion — skipping the centralized fidelity epilogue
/// (see the module-level note) and certification, and reports the bytes
/// retained by the execution context's kernel arenas when the recursion
/// finishes (the figure the bench harness's memory stage records as
/// `kernel_bytes`). This is the unit the scheduler benchmark times: host
/// wall time here is what [`EmbedderConfig::scheduler`] actually controls;
/// timing [`embed_distributed`] instead would let the
/// scheduler-independent centralized epilogue dominate at large `n`.
///
/// The byte count is kept out of [`RecursionStats`] on purpose: retained
/// capacity is a host-side property of the arena, not part of the
/// scheduler-conformance contract (the two schedulers retain different
/// arenas while producing bit-identical stats).
///
/// # Errors
///
/// As [`embed_distributed`], minus certification failures (there is no
/// certification phase). Fault plans are honored but failures surface as
/// their raw typed errors, not as [`EmbedError::Degraded`] reports.
pub fn embed_recursion_with_memory(
    g: &Graph,
    cfg: &EmbedderConfig,
) -> Result<(Metrics, RecursionStats, usize), EmbedError> {
    let mut ctx = ExecutionContext::new(g, cfg);
    let (_, _, metrics, mut stats) = run_recursion_retained(g, cfg, &mut ctx)?;
    stats.sequential_rounds = ctx.rounds_used();
    stats.phase_rounds = ctx.phase_rounds();
    Ok((metrics, stats, ctx.memory_bytes()))
}

fn embed_inner(
    g: &Graph,
    cfg: &EmbedderConfig,
    ctx: &mut ExecutionContext<'_>,
) -> Result<EmbeddingOutcome, EmbedError> {
    let (_, _, mut metrics, mut stats) = run_recursion_retained(g, cfg, ctx)?;
    // A one-shot run has no later recursion to keep its host tables warm
    // for, so the epilogue does not carry them.
    ctx.release_recursion_tables();
    let (rotation, certification) = run_epilogue(g, cfg, ctx, certify_in)?;
    if let Some(cert) = &certification {
        metrics.add(cert.report.metrics);
    }
    stats.sequential_rounds = ctx.rounds_used();
    stats.phase_rounds = ctx.phase_rounds();
    Ok(EmbeddingOutcome {
        rotation,
        metrics,
        stats,
        certification,
    })
}

/// The Lemma 4.1/4.2 gate on one subproblem's partition, shared by both
/// walkers: every hanging part must stay within the 2/3 ratio, and (under
/// `check_invariants`) the partition must be safe in the Definition 3.1
/// sense.
pub(crate) fn validate_partition(
    g: &Graph,
    tree: &GlobalTree,
    size: usize,
    partition: &Partition,
    cfg: &EmbedderConfig,
) -> Result<(), EmbedError> {
    for part in &partition.parts {
        let ratio = part.size as f64 / size as f64;
        if ratio > 2.0 / 3.0 + 1e-9 {
            return Err(EmbedError::Internal(format!(
                "Lemma 4.2 violated: part ratio {ratio}"
            )));
        }
    }
    if cfg.check_invariants {
        let mut all_parts: Vec<Vec<VertexId>> = partition
            .parts
            .iter()
            .map(|p| tree.subtree_members(p.root))
            .collect();
        all_parts.push(partition.p0.clone());
        if !partition_is_safe(g, &all_parts) {
            return Err(EmbedError::Internal(
                "Lemma 4.1 violated: partition is unsafe".into(),
            ));
        }
    }
    Ok(())
}

/// One subproblem of the recursion arena.
///
/// The arena is *retained*: after a run, every node still holds its
/// partition, solved part, and merge statistics (nothing is `take()`n in
/// the merge pass). That makes the arena a resumable artifact — the
/// incremental re-embedding path (`crate::incremental`) re-runs only the
/// merges of nodes whose subtree contains a delta endpoint and reuses
/// every other node's retained state verbatim — and the single source of
/// the run's [`RecursionStats`].
pub(crate) struct RecNode {
    pub(crate) root: VertexId,
    pub(crate) level: usize,
    pub(crate) children: Vec<usize>,
    /// `Some` for internal nodes once partitioned.
    pub(crate) partition: Option<Partition>,
    /// The merged part of an internal node, set by its merge. A leaf's
    /// part is its root alone and is not stored (see [`RecNode::solved`]).
    pub(crate) part: Option<PartState>,
    /// Parallel-composed cost of this subtree (partition + children in
    /// parallel + merge); zero for leaves.
    pub(crate) metrics: Metrics,
    /// The node's merge statistics (internal nodes only).
    pub(crate) merge_stats: Option<MergeStats>,
}

impl RecNode {
    /// An unsolved node for the subproblem rooted at `root`.
    pub(crate) fn new(root: VertexId, level: usize) -> Self {
        RecNode {
            root,
            level,
            children: Vec::new(),
            partition: None,
            part: None,
            metrics: Metrics::new(),
            merge_stats: None,
        }
    }

    /// The node's solved members, sorted: the merged part of an internal
    /// node, the root alone for a leaf, `None` for an internal node not
    /// merged yet.
    pub(crate) fn solved(&self) -> Option<&[VertexId]> {
        match (&self.part, &self.partition) {
            (Some(part), _) => Some(&part.members),
            (None, None) => Some(std::slice::from_ref(&self.root)),
            (None, Some(_)) => None,
        }
    }
}

/// [`Scheduler::LevelSync`]: the level-synchronous recursion. Top-down,
/// each level's subproblems are partitioned in *one* batched kernel
/// invocation over vertex-disjoint instances; bottom-up, the merges run
/// level by level. Same arena as the depth-first walker: per-instance
/// metrics are bit-identical to one-at-a-time runs, and all charges
/// compose order-independently.
fn solve_level_sync_retained(
    tree: &GlobalTree,
    cfg: &EmbedderConfig,
    ctx: &mut ExecutionContext<'_>,
) -> Result<Vec<RecNode>, EmbedError> {
    let mut nodes = vec![RecNode::new(tree.root, 0)];

    // Top-down: partition every level in one batched kernel invocation.
    // A level's nodes are the contiguous run of `nodes` pushed while
    // partitioning the level above; leaves (single-vertex subtrees) are
    // solved as they are.
    let mut level_start = 0;
    let mut level = 0usize;
    let mut roots: Vec<VertexId> = Vec::new();
    while level_start < nodes.len() {
        let level_end = nodes.len();
        roots.clear();
        roots.extend(
            nodes[level_start..level_end]
                .iter()
                .map(|node| node.root)
                .filter(|r| tree.subtree_size[r.index()] != 1),
        );
        if !roots.is_empty() {
            ctx.enter(Phase::Partition);
            let mut partitions = partition_level(ctx, tree, &roots)?.into_iter();
            for ni in level_start..level_end {
                if tree.subtree_size[nodes[ni].root.index()] == 1 {
                    continue;
                }
                let partition = partitions.next().expect("one partition per root");
                ctx.charge(&partition.metrics);
                let size = tree.subtree_size[nodes[ni].root.index()] as usize;
                validate_partition(ctx.graph(), tree, size, &partition, cfg)?;
                nodes[ni].children.reserve_exact(partition.parts.len());
                for sub in &partition.parts {
                    let ci = nodes.len();
                    nodes.push(RecNode::new(sub.root, level + 1));
                    nodes[ni].children.push(ci);
                }
                nodes[ni].partition = Some(partition);
            }
        }
        level_start = level_end;
        level += 1;
    }

    // Bottom-up: merge every internal node once its children are solved.
    // Merges stay per-subproblem (their cost is charged analytically and
    // their symmetry breaking runs on per-merge virtual graphs).
    for ni in (0..nodes.len()).rev() {
        // Retained arena: the merge borrows `P_0` and the children's parts
        // (it copies their members into the context's tables), so the node
        // keeps its partition and the children keep their parts after the
        // pass.
        let Some(partition) = nodes[ni].partition.as_ref() else {
            continue; // leaf: already solved
        };
        let mut children_metrics = Metrics::new();
        for &ci in &nodes[ni].children {
            children_metrics.join_parallel(nodes[ci].metrics);
        }
        let hanging = nodes[ni]
            .children
            .iter()
            .map(|&ci| nodes[ci].solved().expect("child solved before parent"));
        ctx.enter(Phase::Merge);
        let merged = merge_parts_ctx(ctx, &partition.p0, hanging, cfg.check_invariants)?;
        let partition_metrics = partition.metrics;
        ctx.charge(&merged.metrics);
        nodes[ni].merge_stats = Some(merged.stats);

        let mut total = partition_metrics;
        total.add(children_metrics);
        total.add(merged.metrics);
        nodes[ni].part = Some(merged.part);
        nodes[ni].metrics = total;
    }
    Ok(nodes)
}

/// Derives a run's [`RecursionStats`] from its finished arena in one DFS
/// pass: per level, the subproblem count, the largest subproblem, the
/// Lemma 4.2 part ratio and part depth, and the parallel round count (the
/// largest subtree cost at that level); per merge, its statistics in DFS
/// post-order — the order the depth-first walker finishes merges in.
fn recursion_stats(tree: &GlobalTree, nodes: &[RecNode], cfg: &EmbedderConfig) -> RecursionStats {
    let mut stats = RecursionStats {
        n: tree.parent.len(),
        bfs_depth: tree.tree_depth() as usize,
        safety_checked: cfg.check_invariants,
        ..Default::default()
    };
    let part_depth = tree.subtree_depths();
    let mut stack: Vec<(usize, bool)> = vec![(0, false)];
    while let Some((ni, visited)) = stack.pop() {
        let node = &nodes[ni];
        if visited {
            stats.merges.extend(node.merge_stats.clone());
            continue;
        }
        stack.push((ni, true));
        stack.extend(node.children.iter().rev().map(|&ci| (ci, false)));
        if stats.levels.len() == node.level {
            stats.levels.push(LevelStats {
                level: node.level,
                ..Default::default()
            });
        }
        let lvl = &mut stats.levels[node.level];
        let size = tree.subtree_size[node.root.index()] as usize;
        lvl.problems += 1;
        lvl.max_size = lvl.max_size.max(size);
        lvl.rounds = lvl.rounds.max(node.metrics.rounds);
        for part in node.partition.iter().flat_map(|p| &p.parts) {
            let ratio = part.size as f64 / size as f64;
            lvl.max_child_ratio = lvl.max_child_ratio.max(ratio);
            lvl.max_part_depth = lvl
                .max_part_depth
                .max(part_depth[part.root.index()] as usize);
        }
    }
    stats.depth = stats.levels.len();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::protocols::ReliableConfig;
    use congest_sim::{FaultPlan, LinkFaults};
    use planar_lib::gen;

    fn run(g: &Graph) -> EmbeddingOutcome {
        embed_distributed(g, &EmbedderConfig::default()).unwrap()
    }

    #[test]
    fn embeds_grid() {
        let g = gen::grid(5, 5);
        let out = run(&g);
        assert!(out.rotation.is_planar_embedding());
        assert_eq!(out.rotation.to_graph(), g);
        assert!(out.stats.max_child_ratio() <= 2.0 / 3.0 + 1e-9);
        assert!(out.metrics.rounds > 0);
    }

    #[test]
    fn embeds_all_small_families() {
        for g in [
            gen::path(17),
            gen::cycle(16),
            gen::star(15),
            gen::random_tree(25, 3),
            gen::triangulated_grid(4, 4),
            gen::k4_subdivided(4),
            gen::theta(3, 5),
            gen::wheel(10),
            gen::fan(12),
            gen::random_outerplanar(18, 2),
            gen::random_maximal_planar(18, 5),
            gen::random_planar(24, 40, 9),
            gen::wheel_chain(3, 5),
        ] {
            let out = run(&g);
            assert!(out.rotation.is_planar_embedding());
            assert_eq!(out.rotation.to_graph(), g);
        }
    }

    /// Satellite: every kernel round is attributed to exactly one phase —
    /// the breakdown sums to the sequential round tally (the quantity
    /// degraded runs report as `rounds_used`).
    #[test]
    fn phase_rounds_sum_to_sequential_tally() {
        for g in [gen::grid(5, 5), gen::triangulated_grid(4, 4), gen::path(17)] {
            let out = run(&g);
            let pr = out.stats.phase_rounds;
            assert_eq!(
                pr.sum(),
                out.stats.sequential_rounds,
                "unattributed rounds: {pr:?} vs {}",
                out.stats.sequential_rounds
            );
            assert!(pr.setup > 0, "setup must cost rounds: {pr:?}");
            assert!(pr.partition > 0, "partition must cost rounds: {pr:?}");
            // The sequential tally bounds the parallel-composed count.
            assert!(out.stats.sequential_rounds >= out.metrics.rounds);
        }
    }

    /// Fidelity regression: every node of the recursion arena, on both
    /// schedulers, solves exactly its subproblem — a leaf its root alone,
    /// an internal node a merged part whose members are its BFS subtree —
    /// and the root's part covers the graph with no edge left
    /// half-embedded.
    #[test]
    fn every_arena_node_solves_its_subproblem() {
        for g in [
            gen::grid(5, 5),
            gen::wheel_chain(3, 5),
            gen::random_outerplanar(18, 2),
        ] {
            for scheduler in [Scheduler::LevelSync, Scheduler::Sequential] {
                let cfg = EmbedderConfig {
                    scheduler,
                    ..EmbedderConfig::default()
                };
                let mut ctx = ExecutionContext::new(&g, &cfg);
                let (tree, nodes, _, _) = run_recursion_retained(&g, &cfg, &mut ctx).unwrap();
                for (i, node) in nodes.iter().enumerate() {
                    let mut subproblem = tree.subtree_members(node.root);
                    subproblem.sort_unstable();
                    assert_eq!(
                        node.solved(),
                        Some(&subproblem[..]),
                        "{scheduler:?}: arena node {i} (root {})",
                        node.root
                    );
                }
                let root = nodes[0].solved().expect("root solved");
                assert_eq!(root.len(), g.vertex_count());
                assert!(crate::parts::half_embedded_edges(&g, root).is_empty());
            }
        }
    }

    /// Tentpole: with `certify` set the outcome carries accepted
    /// certificates, the verifier cost is attributed to the `cert` phase,
    /// and the phase-sum invariant still holds.
    #[test]
    fn certified_embedding_carries_accepted_report() {
        for g in [
            gen::grid(5, 5),
            gen::wheel(10),
            gen::random_planar(20, 35, 7),
        ] {
            let cfg = EmbedderConfig {
                certify: true,
                ..EmbedderConfig::default()
            };
            let out = embed_distributed(&g, &cfg).unwrap();
            let cert = out.certification.as_ref().expect("certify was requested");
            assert!(cert.accepted());
            assert_eq!(cert.certificates.len(), g.vertex_count());
            assert!(
                out.stats.phase_rounds.cert > 0,
                "cert phase must be charged"
            );
            assert!(out.stats.phase_rounds.cert <= 2, "verifier must be O(1)");
            assert_eq!(out.stats.phase_rounds.sum(), out.stats.sequential_rounds);
            // Off by default: no certification artifacts, no cert rounds.
            let plain = run(&g);
            assert!(plain.certification.is_none());
            assert_eq!(plain.stats.phase_rounds.cert, 0);
        }
    }

    /// Certification composes with faults + reliable delivery: the
    /// verifier phase rides the same lossy network and still accepts.
    #[test]
    fn certified_embedding_survives_lossy_links() {
        let g = gen::grid(4, 4);
        let cfg = EmbedderConfig {
            sim: SimConfig {
                faults: FaultPlan::uniform(23, 0.05, 0.02, 0.05, 2),
                ..SimConfig::default()
            },
            reliability: Some(ReliableConfig::default()),
            certify: true,
            ..EmbedderConfig::default()
        };
        match embed_distributed(&g, &cfg) {
            Ok(out) => {
                let cert = out.certification.expect("certify was requested");
                assert!(cert.accepted());
            }
            Err(EmbedError::Degraded { .. }) => {
                // Losing a phase to chaos is legitimate; accepting an
                // uncertified result would not be.
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn recursion_depth_is_logarithmic() {
        let g = gen::grid(8, 8);
        let out = run(&g);
        // Lemma 4.3: depth <= log_{3/2} 64 + O(1) ~ 10.3.
        assert!(out.stats.depth <= 13, "depth = {}", out.stats.depth);
    }

    #[test]
    fn rejects_nonplanar() {
        assert!(matches!(
            embed_distributed(&gen::complete(5), &EmbedderConfig::default()),
            Err(EmbedError::NonPlanar)
        ));
        // K3,3 passes the density bound; rejection must come from a merge.
        let k33 = Graph::from_edges(
            6,
            [
                (0, 3),
                (0, 4),
                (0, 5),
                (1, 3),
                (1, 4),
                (1, 5),
                (2, 3),
                (2, 4),
                (2, 5),
            ],
        )
        .unwrap();
        assert!(matches!(
            embed_distributed(&k33, &EmbedderConfig::default()),
            Err(EmbedError::NonPlanar)
        ));
    }

    #[test]
    fn rejects_disconnected_and_empty() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            embed_distributed(&g, &EmbedderConfig::default()),
            Err(EmbedError::Disconnected)
        ));
        assert!(matches!(
            embed_distributed(&Graph::new(0), &EmbedderConfig::default()),
            Err(EmbedError::EmptyGraph)
        ));
    }

    #[test]
    fn single_vertex_network() {
        let out = run(&Graph::new(1));
        assert_eq!(out.rotation.vertex_count(), 1);
        assert_eq!(out.metrics.rounds, 0);
    }

    #[test]
    fn two_vertex_network() {
        let g = gen::path(2);
        let out = run(&g);
        assert!(out.rotation.is_planar_embedding());
    }

    /// Property (c) of the fault test plan: drop rate 1.0 on a cut edge
    /// must end in `Degraded`, not a hang — the watchdog and the reliable
    /// wrapper's give-up bound every phase.
    #[test]
    fn dead_cut_edge_degrades_instead_of_hanging() {
        let g = gen::path(6); // every edge is a cut edge
        let mut plan = FaultPlan {
            seed: 7,
            ..FaultPlan::default()
        };
        for (a, b) in [(2u32, 3u32), (3, 2)] {
            plan.link_overrides.push((
                (VertexId(a), VertexId(b)),
                LinkFaults {
                    drop: 1.0,
                    duplicate: 0.0,
                    delay: 0.0,
                    max_delay: 0,
                },
            ));
        }
        for reliability in [None, Some(ReliableConfig::default())] {
            let cfg = EmbedderConfig {
                sim: SimConfig {
                    faults: plan.clone(),
                    ..SimConfig::default()
                },
                reliability,
                ..EmbedderConfig::default()
            };
            match embed_distributed(&g, &cfg) {
                Err(EmbedError::Degraded {
                    surviving_nodes,
                    cause,
                    ..
                }) => {
                    assert_eq!(surviving_nodes, 6, "no crashes in this plan");
                    assert!(
                        matches!(
                            cause,
                            DegradedCause::PhaseIncomplete { .. } | DegradedCause::Sim(_)
                        ),
                        "unexpected cause: {cause:?}"
                    );
                }
                other => panic!("expected Degraded, got {other:?}"),
            }
        }
    }

    /// Crash-stop nodes degrade the run and are reported in
    /// `surviving_nodes`.
    #[test]
    fn crashed_node_degrades_with_survivor_count() {
        let g = gen::grid(4, 4);
        let mut plan = FaultPlan {
            seed: 11,
            ..FaultPlan::default()
        };
        plan.crashes.push((VertexId(5), 0));
        let cfg = EmbedderConfig {
            sim: SimConfig {
                faults: plan,
                ..SimConfig::default()
            },
            ..EmbedderConfig::default()
        };
        match embed_distributed(&g, &cfg) {
            Err(EmbedError::Degraded {
                surviving_nodes, ..
            }) => assert_eq!(surviving_nodes, 15),
            other => panic!("expected Degraded, got {other:?}"),
        }
    }

    fn crash_plan(victims: impl IntoIterator<Item = u32>) -> EmbedderConfig {
        let mut plan = FaultPlan {
            seed: 11,
            ..FaultPlan::default()
        };
        plan.crashes = victims.into_iter().map(|v| (VertexId(v), 0)).collect();
        EmbedderConfig {
            sim: SimConfig {
                faults: plan,
                ..SimConfig::default()
            },
            ..EmbedderConfig::default()
        }
    }

    /// Regression: a fault plan is graph-agnostic, so crash victims
    /// outside the graph never crash. Counting them used to underflow
    /// `surviving_nodes` when they outnumbered the graph's vertices.
    #[test]
    fn out_of_range_crash_victims_do_not_underflow() {
        let g = gen::path(3);
        let out = embed_distributed(&g, &crash_plan(10..15)).unwrap();
        assert!(out.rotation.is_planar_embedding());
        assert_eq!(out.metrics.crashed_nodes, 0);
    }

    /// Regression: only in-range crash victims reduce `surviving_nodes`.
    #[test]
    fn out_of_range_crash_victims_are_not_counted() {
        let g = gen::grid(3, 3);
        match embed_distributed(&g, &crash_plan([0, 100])) {
            Err(EmbedError::Degraded {
                surviving_nodes, ..
            }) => assert_eq!(surviving_nodes, 8),
            other => panic!("expected Degraded, got {other:?}"),
        }
    }

    /// Satellite regression: a watchdog firing mid-phase must still charge
    /// the rounds that phase burned. Pre-fix, the aborted phase returned no
    /// `Metrics`, so a run killed in its *first* phase reported
    /// `rounds_used: 0` after consuming the full watchdog budget.
    #[test]
    fn degraded_run_charges_watchdogged_phase_rounds() {
        let g = gen::grid(4, 4);
        let cfg = EmbedderConfig {
            sim: SimConfig {
                faults: FaultPlan::uniform(1, 0.01, 0.0, 0.01, 2),
                watchdog: Some(4), // far below what setup needs on a 4x4 grid
                ..SimConfig::default()
            },
            reliability: Some(ReliableConfig::default()),
            ..EmbedderConfig::default()
        };
        match embed_distributed(&g, &cfg) {
            Err(EmbedError::Degraded {
                rounds_used, cause, ..
            }) => {
                assert!(
                    matches!(
                        cause,
                        DegradedCause::Sim(congest_sim::SimError::WatchdogTimeout { limit: 4 })
                    ),
                    "unexpected cause: {cause:?}"
                );
                assert_eq!(
                    rounds_used, 4,
                    "the watchdogged phase ran 4 rounds before aborting; \
                     they must appear in rounds_used"
                );
            }
            other => panic!("expected a watchdogged Degraded run, got {other:?}"),
        }
    }

    /// A modestly lossy network with reliable delivery still embeds — and
    /// identically across repeat runs (replayability end to end).
    #[test]
    fn reliable_delivery_survives_lossy_links() {
        let g = gen::grid(4, 4);
        let cfg = EmbedderConfig {
            sim: SimConfig {
                faults: FaultPlan::uniform(23, 0.05, 0.02, 0.05, 2),
                ..SimConfig::default()
            },
            reliability: Some(ReliableConfig::default()),
            ..EmbedderConfig::default()
        };
        let a = embed_distributed(&g, &cfg);
        let b = embed_distributed(&g, &cfg);
        match (&a, &b) {
            (Ok(x), Ok(y)) => {
                assert!(x.rotation.is_planar_embedding());
                assert_eq!(x.rotation, y.rotation);
                assert_eq!(x.metrics, y.metrics);
                assert!(x.metrics.dropped > 0 || x.metrics.retransmissions > 0);
            }
            (Err(EmbedError::Degraded { .. }), Err(EmbedError::Degraded { .. })) => {
                // Degrading is acceptable; diverging is not.
            }
            other => panic!("runs diverged or failed untyped: {other:?}"),
        }
    }

    /// `FaultPlan::default()` leaves the embedder's outcome byte-identical
    /// (acceptance criterion: the fault subsystem costs nothing unused).
    #[test]
    fn default_fault_plan_changes_nothing() {
        let g = gen::triangulated_grid(4, 4);
        let plain = run(&g);
        let explicit = embed_distributed(
            &g,
            &EmbedderConfig {
                sim: SimConfig {
                    faults: FaultPlan::default(),
                    ..SimConfig::default()
                },
                ..EmbedderConfig::default()
            },
        )
        .unwrap();
        assert_eq!(plain.rotation, explicit.rotation);
        assert_eq!(plain.metrics, explicit.metrics);
        assert_eq!(plain.metrics.dropped, 0);
        assert_eq!(plain.metrics.retransmissions, 0);
    }

    #[test]
    fn rounds_scale_near_d_log_n_on_grids() {
        // Sanity check of the Theorem 1.1 shape (full sweep in the bench
        // harness): rounds / (D log n) stays within a modest constant.
        let g = gen::grid(6, 6);
        let out = run(&g);
        let d = 10.0; // grid diameter
        let logn = (36f64).log2();
        let ratio = out.metrics.rounds as f64 / (d * logn);
        assert!(
            ratio < 40.0,
            "rounds = {}, ratio = {ratio}",
            out.metrics.rounds
        );
    }
}
