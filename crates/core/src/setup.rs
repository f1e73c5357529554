//! Phase A — the `O(D)` setup the paper's preliminaries assume: leader
//! election (max id), global BFS tree, subtree sizes, `n` and a diameter
//! estimate, all computed by genuine message-level kernel protocols.

use congest_sim::protocols::{AggOp, ChildNotify, Convergecast, Downcast, LeaderBfs};
use congest_sim::{Metrics, SimConfig};
use planar_graph::{Graph, VertexId};

use crate::error::EmbedError;
use crate::exec::ExecutionContext;
use crate::tree::GlobalTree;

/// Output of the setup phase.
#[derive(Clone, Debug)]
pub struct Setup {
    /// The global BFS tree rooted at the elected leader.
    pub tree: GlobalTree,
    /// Number of nodes, as learned by every node via broadcast.
    pub n: u64,
    /// The 2-approximate diameter estimate `2·ecc(s*)` every node learned.
    pub diameter_estimate: u64,
}

/// Runs the setup phase and returns the tree plus its exact CONGEST cost.
///
/// # Errors
///
/// Returns [`EmbedError::Disconnected`] / [`EmbedError::EmptyGraph`] for
/// invalid networks and propagates kernel errors.
pub fn run_setup(g: &Graph, cfg: &SimConfig) -> Result<(Setup, Metrics), EmbedError> {
    run_setup_ctx(&mut ExecutionContext::with_sim(g, cfg))
}

/// [`run_setup`] against a full [`ExecutionContext`]: each of the six
/// kernel protocols runs on the context's kernel with its reliability
/// policy, so a lossy network ([`congest_sim::FaultPlan`]) is survived by
/// acknowledgement/retransmission instead of silently corrupting the tree.
///
/// # Errors
///
/// As [`run_setup`].
pub fn run_setup_ctx(ctx: &mut ExecutionContext<'_>) -> Result<(Setup, Metrics), EmbedError> {
    let g = ctx.graph();
    let n = g.vertex_count();
    if n == 0 {
        return Err(EmbedError::EmptyGraph);
    }
    let mut metrics = Metrics::new();

    // 1. Leader election + BFS by flooding.
    let programs: Vec<LeaderBfs> = g
        .vertices()
        .map(|v| LeaderBfs::new(v, g.neighbors(v)))
        .collect();
    let out = ctx.run_phase(programs)?;
    metrics.add(out.metrics);
    let leaders: Vec<VertexId> = out.programs.iter().map(|p| p.leader()).collect();
    let expected_leader = VertexId::from_index(n - 1);
    if leaders.iter().any(|&l| l != expected_leader) {
        // Some node never heard from the max-id node.
        return Err(EmbedError::Disconnected);
    }
    let parent: Vec<Option<VertexId>> = out.programs.iter().map(|p| p.parent()).collect();
    let depth: Vec<u32> = out.programs.iter().map(|p| p.dist()).collect();
    let root = expected_leader;

    // 2. Child discovery (one round).
    let programs: Vec<ChildNotify> = parent.iter().map(|&p| ChildNotify::new(p)).collect();
    let out = ctx.run_phase(programs)?;
    metrics.add(out.metrics);
    let children: Vec<Vec<VertexId>> = out
        .programs
        .into_iter()
        .map(ChildNotify::into_children)
        .collect();

    // 3. Subtree sizes by convergecast (each node contributes 1).
    let programs: Vec<Convergecast> = g
        .vertices()
        .map(|v| Convergecast::new(parent[v.index()], &children[v.index()], 1, AggOp::Sum))
        .collect();
    let out = ctx.run_phase(programs)?;
    metrics.add(out.metrics);
    let subtree_size: Vec<u64> = out.programs.iter().map(|p| p.subtree_value()).collect();
    let total = out.programs[root.index()]
        .result()
        .ok_or_else(|| EmbedError::Internal("root missed the size convergecast".into()))?;

    // 4. Eccentricity of the root by max-convergecast of depths.
    let programs: Vec<Convergecast> = g
        .vertices()
        .map(|v| {
            Convergecast::new(
                parent[v.index()],
                &children[v.index()],
                depth[v.index()] as u64,
                AggOp::Max,
            )
        })
        .collect();
    let out = ctx.run_phase(programs)?;
    metrics.add(out.metrics);
    let ecc = out.programs[root.index()]
        .result()
        .ok_or_else(|| EmbedError::Internal("root missed the depth convergecast".into()))?;

    // 5. Broadcast n and the diameter estimate down the tree.
    for value in [total as u32, (2 * ecc) as u32] {
        let programs: Vec<Downcast> = g
            .vertices()
            .map(|v| {
                Downcast::new(
                    &children[v.index()],
                    if v == root { Some(value) } else { None },
                )
            })
            .collect();
        let out = ctx.run_phase(programs)?;
        metrics.add(out.metrics);
    }

    // The kernel leaves `phase_rounds` zeroed; everything above is setup.
    metrics.phase_rounds.setup = metrics.rounds;

    let tree = GlobalTree {
        root,
        parent,
        children,
        depth,
        subtree_size,
    };
    Ok((
        Setup {
            tree,
            n: total,
            diameter_estimate: 2 * ecc,
        },
        metrics,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use planar_lib::gen;

    #[test]
    fn setup_on_grid() {
        let g = gen::grid(4, 5);
        let (setup, metrics) = run_setup(&g, &SimConfig::default()).unwrap();
        assert_eq!(setup.n, 20);
        assert_eq!(setup.tree.root, VertexId(19));
        assert_eq!(setup.tree.subtree_size[19], 20);
        // Root is a grid corner: ecc = D = 7, estimate = 14.
        assert_eq!(setup.diameter_estimate, 14);
        // Setup is a constant number of O(D) protocols.
        assert!(metrics.rounds <= 12 * 7, "rounds = {}", metrics.rounds);
        // Parent pointers form a BFS tree: depths differ by one.
        for v in g.vertices() {
            if let Some(p) = setup.tree.parent[v.index()] {
                assert_eq!(setup.tree.depth[v.index()], setup.tree.depth[p.index()] + 1);
            }
        }
    }

    #[test]
    fn setup_detects_disconnection() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            run_setup(&g, &SimConfig::default()),
            Err(EmbedError::Disconnected)
        ));
    }

    #[test]
    fn setup_single_vertex() {
        let g = Graph::new(1);
        let (setup, metrics) = run_setup(&g, &SimConfig::default()).unwrap();
        assert_eq!(setup.n, 1);
        assert_eq!(metrics.rounds, 0);
        assert_eq!(setup.tree.root, VertexId(0));
    }

    #[test]
    fn subtree_sizes_sum_correctly() {
        let g = gen::random_tree(30, 4);
        let (setup, _) = run_setup(&g, &SimConfig::default()).unwrap();
        assert_eq!(setup.tree.subtree_size[setup.tree.root.index()], 30);
        for v in g.vertices() {
            let expected: u64 = setup.tree.children[v.index()]
                .iter()
                .map(|c| setup.tree.subtree_size[c.index()])
                .sum::<u64>()
                + 1;
            assert_eq!(setup.tree.subtree_size[v.index()], expected);
        }
    }
}
