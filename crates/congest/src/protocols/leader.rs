//! Combined leader election and BFS-tree construction by flooding.
//!
//! Every node floods the best `(leader, distance)` pair it knows, preferring
//! larger leader ids and, among equal leaders, smaller distances. After
//! `O(D)` rounds the unique maximum-id node in each connected group has won
//! everywhere and the parent pointers form a BFS tree rooted at it — the
//! paper's setup step ("the vertex with the largest ID, which can be
//! computed in `O(D)` rounds", Section 4).

use planar_graph::VertexId;

use crate::network::{NodeCtx, NodeProgram, BROADCAST};

/// Per-node state of the leader-election / BFS-tree flood.
#[derive(Clone, Debug)]
pub struct LeaderBfs<'a> {
    /// Neighbors participating in this node's group (scoping, see module
    /// doc), borrowed from the caller's adjacency.
    allowed: &'a [VertexId],
    /// Whether this node participates at all.
    active: bool,
    best_leader: VertexId,
    best_dist: u32,
    parent: Option<VertexId>,
}

impl<'a> LeaderBfs<'a> {
    /// Creates the program for one node with the given participating
    /// neighbor set (`allowed` must be a subset of the node's real
    /// neighbors; `id` is the node's own id).
    pub fn new(id: VertexId, allowed: &'a [VertexId]) -> Self {
        LeaderBfs {
            allowed,
            active: true,
            best_leader: id,
            best_dist: 0,
            parent: None,
        }
    }

    /// Creates an inactive program (the node is not part of any group).
    pub fn inactive(id: VertexId) -> Self {
        LeaderBfs {
            allowed: &[],
            active: false,
            best_leader: id,
            best_dist: 0,
            parent: None,
        }
    }

    /// The elected leader (valid after the simulation quiesces).
    pub fn leader(&self) -> VertexId {
        self.best_leader
    }

    /// BFS parent towards the leader (`None` at the leader itself).
    pub fn parent(&self) -> Option<VertexId> {
        self.parent
    }

    /// Hop distance to the leader.
    pub fn dist(&self) -> u32 {
        self.best_dist
    }

    fn offer(&mut self, from: VertexId, leader: VertexId, dist: u32) -> bool {
        let better =
            leader > self.best_leader || (leader == self.best_leader && dist < self.best_dist);
        if better {
            self.best_leader = leader;
            self.best_dist = dist;
            self.parent = Some(from);
        }
        better
    }

    /// Sends the best `(leader, distance)` to every allowed neighbor: one
    /// [`BROADCAST`] when they are the whole neighborhood (`allowed` is a
    /// subset, so equal length means equal sets), unicasts in a scoped
    /// group.
    fn announce(&self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, (VertexId, u32))>) {
        let announce = (self.best_leader, self.best_dist);
        if self.allowed.len() == ctx.neighbors.len() {
            out.push((BROADCAST, announce));
        } else {
            out.extend(self.allowed.iter().map(|&w| (w, announce)));
        }
    }
}

impl NodeProgram for LeaderBfs<'_> {
    /// `(leader id, distance)` — 2 words.
    type Msg = (VertexId, u32);

    fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, Self::Msg)>) {
        if self.active {
            self.announce(ctx, out);
        }
    }

    fn on_round(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: &[(VertexId, Self::Msg)],
        out: &mut Vec<(VertexId, Self::Msg)>,
    ) {
        if !self.active {
            return;
        }
        let mut improved = false;
        for &(from, (leader, dist)) in inbox {
            improved |= self.offer(from, leader, dist.saturating_add(1));
        }
        if improved {
            self.announce(ctx, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{run, SimConfig};
    use planar_graph::Graph;

    fn run_leader_bfs(g: &Graph) -> (Vec<LeaderBfs<'_>>, usize) {
        let programs: Vec<LeaderBfs> = g
            .vertices()
            .map(|v| LeaderBfs::new(v, g.neighbors(v)))
            .collect();
        let out = run(g, programs, &SimConfig::default()).unwrap();
        (out.programs, out.metrics.rounds)
    }

    #[test]
    fn path_elects_max_and_builds_bfs() {
        let n = 9usize;
        let g = Graph::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1))).unwrap();
        let (ps, rounds) = run_leader_bfs(&g);
        for (i, p) in ps.iter().enumerate() {
            assert_eq!(p.leader(), VertexId(8));
            assert_eq!(p.dist(), (8 - i) as u32);
        }
        assert!(ps[8].parent().is_none());
        assert_eq!(ps[0].parent(), Some(VertexId(1)));
        // O(D): the flood needs at most ~2·D rounds on a path.
        assert!(rounds <= 2 * n, "rounds = {rounds}");
    }

    #[test]
    fn grid_distances_are_bfs_distances() {
        // 3x3 grid, max id = 8 at corner (2,2).
        let idx = |r: u32, c: u32| r * 3 + c;
        let mut edges = Vec::new();
        for r in 0..3u32 {
            for c in 0..3u32 {
                if c + 1 < 3 {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < 3 {
                    edges.push((idx(r, c), idx(r + 1, c)));
                }
            }
        }
        let g = Graph::from_edges(9, edges).unwrap();
        let (ps, _) = run_leader_bfs(&g);
        for r in 0..3u32 {
            for c in 0..3u32 {
                let p = &ps[idx(r, c) as usize];
                assert_eq!(p.leader(), VertexId(8));
                assert_eq!(p.dist(), (2 - r) + (2 - c));
            }
        }
    }

    #[test]
    fn scoped_groups_elect_separate_leaders() {
        // One path 0-1-2-3, but scoped into groups {0,1} and {2,3}: the
        // middle edge (1,2) is excluded from both groups.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let programs = vec![
            LeaderBfs::new(VertexId(0), &[VertexId(1)]),
            LeaderBfs::new(VertexId(1), &[VertexId(0)]),
            LeaderBfs::new(VertexId(2), &[VertexId(3)]),
            LeaderBfs::new(VertexId(3), &[VertexId(2)]),
        ];
        let out = run(&g, programs, &SimConfig::default()).unwrap();
        assert_eq!(out.programs[0].leader(), VertexId(1));
        assert_eq!(out.programs[1].leader(), VertexId(1));
        assert_eq!(out.programs[2].leader(), VertexId(3));
        assert_eq!(out.programs[3].leader(), VertexId(3));
    }

    #[test]
    fn inactive_nodes_stay_silent() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let programs = vec![
            LeaderBfs::inactive(VertexId(0)),
            LeaderBfs::inactive(VertexId(1)),
        ];
        let out = run(&g, programs, &SimConfig::default()).unwrap();
        assert_eq!(out.metrics.messages, 0);
    }
}
