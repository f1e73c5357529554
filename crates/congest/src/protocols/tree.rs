//! Tree protocols: child discovery, convergecast (upcast) and downcast.
//!
//! These are the "standard upcast and downcast techniques" Remark 1 of the
//! paper invokes for simulating per-part operations (max, min, sum, ...) on
//! a BFS tree of the part in `O(diameter)` rounds.

use planar_graph::VertexId;

use crate::network::{NodeCtx, NodeProgram};

/// One-round protocol: every non-root node notifies its tree parent, so each
/// node learns its set of tree children.
#[derive(Clone, Debug)]
pub struct ChildNotify {
    parent: Option<VertexId>,
    children: Vec<VertexId>,
}

impl ChildNotify {
    /// Creates the program given this node's tree parent (or `None` for
    /// roots and non-participants).
    pub fn new(parent: Option<VertexId>) -> Self {
        ChildNotify {
            parent,
            children: Vec::new(),
        }
    }

    /// The children discovered (valid after the run).
    pub fn children(&self) -> &[VertexId] {
        &self.children
    }

    /// Consumes the program, handing over its children list.
    pub fn into_children(self) -> Vec<VertexId> {
        self.children
    }
}

impl NodeProgram for ChildNotify {
    type Msg = bool; // 1 word "I am your child" flag

    fn init(&mut self, _ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, bool)>) {
        out.extend(self.parent.map(|p| (p, true)));
    }

    fn on_round(
        &mut self,
        _ctx: &NodeCtx<'_>,
        inbox: &[(VertexId, bool)],
        _out: &mut Vec<(VertexId, bool)>,
    ) {
        self.children.reserve_exact(inbox.len());
        for &(from, _) in inbox {
            self.children.push(from);
        }
        self.children.sort();
        // Duplication faults on a bare run deliver the same notify twice;
        // a child is a child once.
        self.children.dedup();
    }
}

/// Aggregation operator for [`Convergecast`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggOp {
    /// Sum of the values.
    Sum,
    /// Minimum of the values.
    Min,
    /// Maximum of the values.
    Max,
}

impl AggOp {
    fn combine(self, a: u64, b: u64) -> u64 {
        match self {
            AggOp::Sum => a + b,
            AggOp::Min => a.min(b),
            AggOp::Max => a.max(b),
        }
    }
}

/// Convergecast: aggregates a `u64` value from every tree node up to the
/// root in `depth` rounds.
#[derive(Clone, Debug)]
pub struct Convergecast {
    parent: Option<VertexId>,
    pending_children: usize,
    op: AggOp,
    acc: u64,
    /// Set at the root once every subtree has reported.
    result: Option<u64>,
    participates: bool,
    /// Whether this node already reported upward (fault injection can
    /// surface values from undeclared children afterwards; report once).
    fired: bool,
}

impl Convergecast {
    /// Creates the program for a node with the given tree `parent`, set of
    /// `children`, own `value` and aggregation operator.
    pub fn new(parent: Option<VertexId>, children: &[VertexId], value: u64, op: AggOp) -> Self {
        Convergecast {
            parent,
            pending_children: children.len(),
            op,
            acc: value,
            result: None,
            participates: true,
            fired: false,
        }
    }

    /// A node that takes no part in the aggregation.
    pub fn inactive() -> Self {
        Convergecast {
            parent: None,
            pending_children: 0,
            op: AggOp::Sum,
            acc: 0,
            result: None,
            participates: false,
            fired: false,
        }
    }

    /// The aggregate over this node's whole subtree (its own value combined
    /// with everything below), available once the node has fired.
    pub fn subtree_value(&self) -> u64 {
        self.acc
    }

    /// The full aggregate — `Some` only at the root, after quiescence.
    pub fn result(&self) -> Option<u64> {
        self.result
    }

    fn fire(&mut self, out: &mut Vec<(VertexId, u64)>) {
        self.fired = true;
        match self.parent {
            Some(p) => out.push((p, self.acc)),
            None => self.result = Some(self.acc),
        }
    }
}

impl NodeProgram for Convergecast {
    type Msg = u64; // one aggregate value (2 words, conservatively)

    fn init(&mut self, _ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, u64)>) {
        if self.participates && self.pending_children == 0 {
            self.fire(out);
        }
    }

    fn on_round(
        &mut self,
        _ctx: &NodeCtx<'_>,
        inbox: &[(VertexId, u64)],
        out: &mut Vec<(VertexId, u64)>,
    ) {
        if !self.participates {
            return;
        }
        let mut fresh = false;
        let mut prev = None;
        for &(from, v) in inbox {
            // Count each sender once: duplication faults on a bare
            // (unwrapped) run deliver identical copies of a child's
            // aggregate, and a second copy must neither re-combine nor
            // decrement the pending counter (found by the DST swarm,
            // `crates/dst`). A node reports at most once, and both kernels
            // deliver the copies of a duplicate back to back in one inbox
            // (`crate::faults`, delivery order), so a repeat of the
            // previous sender is the only duplicate there is.
            if prev.replace(from) == Some(from) {
                continue;
            }
            self.acc = self.op.combine(self.acc, v);
            // Saturating: if this sender's earlier `ChildNotify` was lost
            // to fault injection it never entered `pending_children`, and
            // the honest decrement underflowed (also a DST-swarm find).
            // The run is degraded either way; the protocol must stay
            // total.
            self.pending_children = self.pending_children.saturating_sub(1);
            fresh = true;
        }
        if self.pending_children == 0 && fresh && !self.fired {
            self.fire(out);
        }
    }
}

/// Downcast: floods a one-word label from one or more sources down a tree
/// (each node forwards the first label it receives to its children).
///
/// Used to broadcast part ids, leader decisions, `n`, the diameter estimate,
/// etc., in `depth` rounds.
#[derive(Clone, Debug)]
pub struct Downcast<'a> {
    /// Tree children, borrowed from the caller's tree.
    children: &'a [VertexId],
    label: Option<u32>,
}

impl<'a> Downcast<'a> {
    /// Creates the program; `label` is `Some` at source nodes.
    pub fn new(children: &'a [VertexId], label: Option<u32>) -> Self {
        Downcast { children, label }
    }

    /// The label this node ended up with.
    pub fn label(&self) -> Option<u32> {
        self.label
    }
}

impl NodeProgram for Downcast<'_> {
    type Msg = u32;

    fn init(&mut self, _ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, u32)>) {
        if let Some(l) = self.label {
            out.extend(self.children.iter().map(|&c| (c, l)));
        }
    }

    fn on_round(
        &mut self,
        _ctx: &NodeCtx<'_>,
        inbox: &[(VertexId, u32)],
        out: &mut Vec<(VertexId, u32)>,
    ) {
        if self.label.is_some() {
            return; // already labelled; ignore duplicates
        }
        if let Some(&(_, l)) = inbox.first() {
            self.label = Some(l);
            out.extend(self.children.iter().map(|&c| (c, l)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{run, SimConfig};
    use planar_graph::Graph;

    /// Builds a path graph and the parent pointers of the BFS tree rooted
    /// at vertex 0.
    fn path_tree(n: usize) -> (Graph, Vec<Option<VertexId>>) {
        let g = Graph::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1))).unwrap();
        let parents = (0..n)
            .map(|i| {
                if i == 0 {
                    None
                } else {
                    Some(VertexId(i as u32 - 1))
                }
            })
            .collect();
        (g, parents)
    }

    #[test]
    fn child_notify_discovers_children() {
        let (g, parents) = path_tree(4);
        let programs: Vec<ChildNotify> = parents.iter().map(|&p| ChildNotify::new(p)).collect();
        let out = run(&g, programs, &SimConfig::default()).unwrap();
        assert_eq!(out.metrics.rounds, 1);
        assert_eq!(out.programs[0].children(), &[VertexId(1)]);
        assert_eq!(out.programs[3].children(), &[] as &[VertexId]);
    }

    #[test]
    fn convergecast_sum_counts_nodes() {
        let (g, parents) = path_tree(6);
        let programs: Vec<Convergecast> = (0..6)
            .map(|i| {
                let children: Vec<VertexId> = if i < 5 {
                    vec![VertexId(i as u32 + 1)]
                } else {
                    vec![]
                };
                Convergecast::new(parents[i], &children, 1, AggOp::Sum)
            })
            .collect();
        let out = run(&g, programs, &SimConfig::default()).unwrap();
        assert_eq!(out.programs[0].result(), Some(6));
        // Depth-many rounds.
        assert_eq!(out.metrics.rounds, 5);
        // Intermediate nodes know their subtree sizes.
        assert_eq!(out.programs[3].subtree_value(), 3); // nodes 3,4,5
    }

    #[test]
    fn convergecast_max_finds_max() {
        // Star rooted at 0.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        let children: Vec<VertexId> = vec![VertexId(1), VertexId(2), VertexId(3)];
        let programs = vec![
            Convergecast::new(None, &children, 2, AggOp::Max),
            Convergecast::new(Some(VertexId(0)), &[], 9, AggOp::Max),
            Convergecast::new(Some(VertexId(0)), &[], 4, AggOp::Max),
            Convergecast::new(Some(VertexId(0)), &[], 7, AggOp::Max),
        ];
        let out = run(&g, programs, &SimConfig::default()).unwrap();
        assert_eq!(out.programs[0].result(), Some(9));
        assert_eq!(out.metrics.rounds, 1);
    }

    /// Duplication faults on a bare (unwrapped) run deliver identical
    /// copies of each child's aggregate; the second copy must be ignored,
    /// not re-combined or counted against `pending_children` (the original
    /// decrement underflowed — found by the DST swarm, `crates/dst`).
    #[test]
    fn convergecast_survives_duplicated_deliveries() {
        let (g, parents) = path_tree(6);
        let programs: Vec<Convergecast> = (0..6)
            .map(|i| {
                let children: Vec<VertexId> = if i < 5 {
                    vec![VertexId(i as u32 + 1)]
                } else {
                    vec![]
                };
                Convergecast::new(parents[i], &children, 1, AggOp::Sum)
            })
            .collect();
        let cfg = SimConfig {
            faults: crate::faults::FaultPlan::uniform(7, 0.0, 1.0, 0.0, 0),
            ..SimConfig::default()
        };
        let out = run(&g, programs, &cfg).unwrap();
        assert_eq!(
            out.programs[0].result(),
            Some(6),
            "duplicates double-counted"
        );
        assert!(out.metrics.duplicated > 0, "plan never duplicated anything");
    }

    #[test]
    fn convergecast_single_node_tree() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let programs = vec![
            Convergecast::new(None, &[], 5, AggOp::Min),
            Convergecast::inactive(),
        ];
        let out = run(&g, programs, &SimConfig::default()).unwrap();
        assert_eq!(out.programs[0].result(), Some(5));
        assert_eq!(out.metrics.rounds, 0);
    }

    #[test]
    fn downcast_reaches_leaves_in_depth_rounds() {
        let (g, _) = path_tree(5);
        let ids: Vec<VertexId> = (0..5).map(VertexId).collect();
        let programs: Vec<Downcast> = (0..5)
            .map(|i| {
                let children = &ids[(i + 1).min(5)..(i + 2).min(5)];
                Downcast::new(children, if i == 0 { Some(42) } else { None })
            })
            .collect();
        let out = run(&g, programs, &SimConfig::default()).unwrap();
        assert_eq!(out.metrics.rounds, 4);
        for p in &out.programs {
            assert_eq!(p.label(), Some(42));
        }
    }

    #[test]
    fn downcast_multiple_sources_stay_in_their_subtrees() {
        // Path 0-1-2-3 where both 0 and 2 are sources of different labels,
        // with tree edges 0->1 and 2->3.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let programs = vec![
            Downcast::new(&[VertexId(1)], Some(100)),
            Downcast::new(&[], None),
            Downcast::new(&[VertexId(3)], Some(200)),
            Downcast::new(&[], None),
        ];
        let out = run(&g, programs, &SimConfig::default()).unwrap();
        assert_eq!(out.programs[1].label(), Some(100));
        assert_eq!(out.programs[3].label(), Some(200));
    }
}
