//! The delta planner: measures the BFS tree a graph delta leaves, diffs it
//! against the resident tree and classifies the delta from that diff, so
//! the incremental path (`crate::incremental`) re-runs only the dirty
//! region of the recursion.
//!
//! # The sticky-root model
//!
//! The distributed setup elects the maximum-id vertex and floods a BFS
//! wave from it. Both kernels deliver each round's inbox sorted ascending
//! by sender id, and the wave from the root reaches a vertex `v` at
//! distance `d` simultaneously from *all* of its neighbors at distance
//! `d − 1` — so the first (and winning) offer comes from the minimum-id
//! such neighbor. The setup tree is therefore a pure function of the
//! graph and the root:
//!
//! * `depth(v)` = BFS distance from the root,
//! * `parent(v)` = minimum-id neighbor of `v` at depth `depth(v) − 1`,
//! * `children(v)` = sorted ascending (the kernel sorts and dedups them).
//!
//! `model_bfs` reproduces exactly this tree host-side in `O(n + m)`,
//! without simulating a single kernel round. A resident embedding pins
//! its tree to the root of its *last full build* (the "sticky root") and
//! lets the planner repair that tree across deltas: partitions and merges
//! are valid for a BFS tree from any fixed root, and every externally
//! visible output (rotation, certificates, planarity verdict) comes from
//! root-independent functions of the graph, so the sticky root never
//! leaks into the bit-identity contract. Node arrivals append the new
//! maximum id but the root stays sticky until the next full fallback
//! re-elects.
//!
//! # Planning by measurement
//!
//! The planner does not predict how a delta moves the tree: it measures
//! the repaired tree directly. For an edge delta, an appended arrival, or
//! a hinted non-root departure it computes `model_bfs` of the mutated
//! graph from the sticky root (renumbered on a departure) and diffs it
//! against the resident tree (`tree_changes`). That diff is the
//! tree-dirty set; the edge-dirty set is the delta's endpoints (an
//! arrival's anchors plus the fresh vertex, a departure's neighbours).
//! The class follows from the measurement: an unchanged vertex set with
//! no tree change is [`DeltaClass::TreePreserving`], an unchanged vertex
//! set otherwise is [`DeltaClass::TreeRepairable`], and an arrival or
//! departure is [`DeltaClass::VertexSetChange`]. The dirty-region rebuild
//! (`crate::incremental`) handles any dirty set, so every delta that keeps
//! the graph connected and the root resident goes incremental.
//!
//! Only deltas no measurement applies to take the full path: a mutated
//! graph the sticky root does not span ([`FullCause::TreeChanged`] for an
//! edge delta, [`FullCause::VertexSetChanged`] for a vertex delta), a
//! departure of the root (the full run re-elects), an arrival that is not
//! a pure append, and an unhinted or malformed departure
//! ([`FullCause::VertexSetChanged`]).

use std::collections::VecDeque;

use planar_graph::{EdgeId, Graph, VertexId};

use crate::incremental::FullCause;
use crate::tree::GlobalTree;

/// Typed classification of one delta against the resident embedding,
/// read off the measured tree repair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeltaClass {
    /// The BFS tree is untouched; every retained partition stays exact
    /// and only merges seeing a delta endpoint re-run.
    TreePreserving,
    /// The vertex set is unchanged but some tree records moved;
    /// partitions and merges along the dirty chains re-run.
    TreeRepairable,
    /// A vertex arrived or departed (a departure renumbers the ids above
    /// it); partitions and merges along the dirty chains re-run.
    VertexSetChange,
    /// No measurement applies; the delta takes the full retained re-run.
    Fallback,
}

impl DeltaClass {
    /// Stable string form, used in JSON reports and CI filters.
    pub fn code(self) -> &'static str {
        match self {
            DeltaClass::TreePreserving => "tree-preserving",
            DeltaClass::TreeRepairable => "tree-repairable",
            DeltaClass::VertexSetChange => "vertex-set",
            DeltaClass::Fallback => "fallback",
        }
    }

    /// `true` for the classes that claim the incremental path.
    pub fn is_incremental(self) -> bool {
        !matches!(self, DeltaClass::Fallback)
    }

    /// All classes, in report order.
    pub const ALL: [DeltaClass; 4] = [
        DeltaClass::TreePreserving,
        DeltaClass::TreeRepairable,
        DeltaClass::VertexSetChange,
        DeltaClass::Fallback,
    ];
}

impl std::fmt::Display for DeltaClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// A staged tree repair: everything the incremental engine needs to
/// rebuild only the dirty region of the recursion arena.
pub(crate) struct RepairPlan {
    /// The measured class.
    pub class: DeltaClass,
    /// The repaired tree: [`model_bfs`] of the mutated graph from the
    /// sticky root.
    pub tree: GlobalTree,
    /// `Some(v)` for a departure: old ids above `v` shift down by one.
    pub removed: Option<VertexId>,
    /// Vertices (new ids) whose tree records changed — partitions of
    /// subtrees containing one are stale.
    pub tree_dirty: Vec<VertexId>,
    /// Vertices (new ids) incident to a changed edge — merges of subtrees
    /// containing one are stale.
    pub edge_dirty: Vec<VertexId>,
}

impl RepairPlan {
    /// Number of distinct dirty vertices (the report's dirty-region size).
    pub fn dirty_region(&self) -> usize {
        let mut all: Vec<VertexId> = self
            .tree_dirty
            .iter()
            .chain(self.edge_dirty.iter())
            .copied()
            .collect();
        all.sort_unstable();
        all.dedup();
        all.len()
    }
}

/// What the planner decided for one delta.
pub(crate) enum PlanAction {
    /// Take the full retained re-run, for the recorded cause.
    Full(FullCause),
    /// Run the staged incremental repair.
    Incremental(Box<RepairPlan>),
}

/// The host-side model of the deterministic kernel BFS: depths are BFS
/// distances from `root`, each non-root vertex's parent is its minimum-id
/// neighbor one level up, children lists are sorted ascending, and
/// subtree sizes accumulate bottom-up. Returns `None` when some vertex is
/// unreachable from `root` (the full path reproduces the exact
/// `Disconnected` error in that case).
///
/// The conformance test below pins this model field-for-field to the
/// distributed setup's output across the generator families.
pub(crate) fn model_bfs(g: &Graph, root: VertexId) -> Option<GlobalTree> {
    let n = g.vertex_count();
    if root.index() >= n {
        return None;
    }
    let mut depth = vec![u32::MAX; n];
    let mut order = Vec::with_capacity(n);
    depth[root.index()] = 0;
    let mut queue = VecDeque::from([root]);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &w in g.neighbors(v) {
            if depth[w.index()] == u32::MAX {
                depth[w.index()] = depth[v.index()] + 1;
                queue.push_back(w);
            }
        }
    }
    if order.len() != n {
        return None;
    }
    let mut parent = vec![None; n];
    let mut children: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    for i in 0..n {
        let v = VertexId::from_index(i);
        if v == root {
            continue;
        }
        let want = depth[i] - 1;
        // Adjacency is sorted, so the first match is the minimum id.
        let p = g
            .neighbors(v)
            .iter()
            .copied()
            .find(|&w| depth[w.index()] == want)
            .expect("every reached non-root vertex has an up-neighbor");
        parent[i] = Some(p);
        // Iterating v in ascending id order keeps children sorted.
        children[p.index()].push(v);
    }
    let mut subtree_size = vec![1u64; n];
    for &v in order.iter().rev() {
        if let Some(p) = parent[v.index()] {
            subtree_size[p.index()] += subtree_size[v.index()];
        }
    }
    Some(GlobalTree {
        root,
        parent,
        children,
        depth,
        subtree_size,
    })
}

/// Vertices (new ids) whose tree records (parent, children, depth,
/// subtree size) differ between the resident tree `old` and the repaired
/// tree `new`. On a departure of `removed`, old ids above it are read
/// through the monotone renumbering `x > removed ⇒ x − 1`, and a record
/// that still names `removed` counts as changed. Vertices beyond the old
/// tree count as changed, so an arrival's fresh vertex is always reported.
pub(crate) fn tree_changes(
    old: &GlobalTree,
    new: &GlobalTree,
    removed: Option<VertexId>,
) -> Vec<VertexId> {
    let phi = |x: VertexId| match removed {
        // The departed vertex maps to an id no new vertex has.
        Some(r) if x == r => VertexId(u32::MAX),
        Some(r) if x > r => VertexId(x.0 - 1),
        _ => x,
    };
    let mut out = Vec::new();
    for j in 0..new.parent.len() {
        let i = match removed {
            Some(r) if j >= r.index() => j + 1,
            _ => j,
        };
        let same = i < old.parent.len()
            && old.depth[i] == new.depth[j]
            && old.subtree_size[i] == new.subtree_size[j]
            && old.parent[i].map(phi) == new.parent[j]
            && old.children[i]
                .iter()
                .map(|&c| phi(c))
                .eq(new.children[j].iter().copied());
        if !same {
            out.push(VertexId::from_index(j));
        }
    }
    out
}

/// The symmetric difference of the two graphs' edge sets, split into
/// inserted and deleted edges. Both edge iterators yield canonical sorted
/// order, so a single merge walk suffices.
pub(crate) fn edge_diff(old: &Graph, new: &Graph) -> (Vec<EdgeId>, Vec<EdgeId>) {
    let mut inserted = Vec::new();
    let mut deleted = Vec::new();
    let mut a = old.edges().peekable();
    let mut b = new.edges().peekable();
    loop {
        match (a.peek(), b.peek()) {
            (Some(&x), Some(&y)) if x == y => {
                a.next();
                b.next();
            }
            (Some(&x), Some(&y)) if x < y => {
                deleted.push(x);
                a.next();
            }
            (Some(_), Some(&y)) => {
                inserted.push(y);
                b.next();
            }
            (Some(&x), None) => {
                deleted.push(x);
                a.next();
            }
            (None, Some(&y)) => {
                inserted.push(y);
                b.next();
            }
            (None, None) => break,
        }
    }
    (inserted, deleted)
}

/// Plans one delta against the resident `tree` of `old_graph`.
/// `departed` is the removed vertex's old id for a node departure (the
/// renumbered graph alone does not recover it) and `None` otherwise.
pub(crate) fn plan_delta(
    old_graph: &Graph,
    tree: &GlobalTree,
    new_graph: &Graph,
    departed: Option<VertexId>,
) -> PlanAction {
    let old_n = old_graph.vertex_count();
    let new_n = new_graph.vertex_count();
    let Some(r) = departed else {
        let (inserted, deleted) = edge_diff(old_graph, new_graph);
        let (cause, measurable) = if new_n == old_n {
            (FullCause::TreeChanged, true)
        } else {
            // An arrival appends the fresh maximum id, so every edge it
            // adds has the fresh vertex as its larger endpoint.
            let appended = deleted.is_empty() && inserted.iter().all(|e| e.hi().index() == old_n);
            (FullCause::VertexSetChanged, new_n == old_n + 1 && appended)
        };
        if !measurable {
            return PlanAction::Full(cause);
        }
        let mut edge_dirty: Vec<VertexId> = inserted
            .iter()
            .chain(&deleted)
            .flat_map(|e| [e.lo(), e.hi()])
            .collect();
        edge_dirty.sort_unstable();
        edge_dirty.dedup();
        return measure(tree, new_graph, tree.root, None, edge_dirty)
            .unwrap_or(PlanAction::Full(cause));
    };
    let full = PlanAction::Full(FullCause::VertexSetChanged);
    if new_n + 1 != old_n || r.index() >= old_n || r == tree.root {
        return full;
    }
    let mut check = old_graph.clone();
    if check.remove_vertex(r).is_err() || check != *new_graph {
        return full;
    }
    let phi = |x: VertexId| if x > r { VertexId(x.0 - 1) } else { x };
    let edge_dirty = old_graph.neighbors(r).iter().map(|&w| phi(w)).collect();
    measure(tree, new_graph, phi(tree.root), Some(r), edge_dirty).unwrap_or(full)
}

/// The measured plan: the repaired tree is [`model_bfs`] of the mutated
/// graph from `root`, and its diff against the resident tree is the
/// tree-dirty set. `None` when `root` does not span the mutated graph.
fn measure(
    old_tree: &GlobalTree,
    new_graph: &Graph,
    root: VertexId,
    removed: Option<VertexId>,
    edge_dirty: Vec<VertexId>,
) -> Option<PlanAction> {
    let tree = model_bfs(new_graph, root)?;
    let tree_dirty = tree_changes(old_tree, &tree, removed);
    let class = if tree.parent.len() != old_tree.parent.len() {
        DeltaClass::VertexSetChange
    } else if tree_dirty.is_empty() {
        DeltaClass::TreePreserving
    } else {
        DeltaClass::TreeRepairable
    };
    Some(PlanAction::Incremental(Box::new(RepairPlan {
        class,
        tree,
        removed,
        tree_dirty,
        edge_dirty,
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::run_setup;
    use congest_sim::SimConfig;
    use planar_lib::gen;

    /// Field-wise equality of two global BFS trees.
    fn same_tree(a: &GlobalTree, b: &GlobalTree) -> bool {
        a.root == b.root
            && a.parent == b.parent
            && a.children == b.children
            && a.depth == b.depth
            && a.subtree_size == b.subtree_size
    }

    /// The host-side model must reproduce the distributed setup's tree
    /// field-for-field: same root (maximum id), same min-id parents, same
    /// sorted children, same depths and subtree sizes. This pins the
    /// kernel semantics the whole planner is built on.
    #[test]
    fn model_bfs_matches_distributed_setup() {
        let families: Vec<(&str, Graph)> = vec![
            ("grid", gen::grid(5, 6)),
            ("triangulated-grid", gen::triangulated_grid(4, 4)),
            ("wheel", gen::wheel(12)),
            ("path", gen::path(9)),
            ("cycle", gen::cycle(11)),
            ("star", gen::star(8)),
            ("k4-subdivided", gen::k4_subdivided(3)),
            ("theta", gen::theta(3, 4)),
            ("random-planar", gen::random_planar(40, 80, 7)),
            ("random-maximal-planar", gen::random_maximal_planar(24, 3)),
            ("random-tree", gen::random_tree(30, 11)),
        ];
        for (name, g) in families {
            let root = VertexId::from_index(g.vertex_count() - 1);
            let model = model_bfs(&g, root).expect("connected family");
            let (setup, _) = run_setup(&g, &SimConfig::default()).unwrap();
            assert!(
                same_tree(&model, &setup.tree),
                "model tree diverges from the kernel setup tree on {name}"
            );
        }
    }

    #[test]
    fn model_bfs_detects_disconnection() {
        let mut g = gen::path(4);
        g.remove_edge(VertexId(1), VertexId(2)).unwrap();
        assert!(model_bfs(&g, VertexId(3)).is_none());
    }

    #[test]
    fn edge_diff_splits_insertions_and_deletions() {
        let old = gen::cycle(5);
        let mut new = old.clone();
        new.remove_edge(VertexId(0), VertexId(1)).unwrap();
        new.add_edge(VertexId(0), VertexId(2)).unwrap();
        let (ins, del) = edge_diff(&old, &new);
        assert_eq!(ins, vec![EdgeId::new(VertexId(0), VertexId(2))]);
        assert_eq!(del, vec![EdgeId::new(VertexId(0), VertexId(1))]);
    }

    fn setup_tree(g: &Graph) -> GlobalTree {
        run_setup(g, &SimConfig::default()).unwrap().0.tree
    }

    /// Plans `old → new` and unwraps the incremental repair, checking that
    /// the repaired tree is the model BFS of `new` from the sticky root
    /// (renumbered on a departure).
    fn measured(
        old: &Graph,
        tree: &GlobalTree,
        new: &Graph,
        departed: Option<VertexId>,
    ) -> RepairPlan {
        let rp = match plan_delta(old, tree, new, departed) {
            PlanAction::Incremental(rp) => *rp,
            PlanAction::Full(c) => panic!("expected incremental, got full: {c:?}"),
        };
        let root = match departed {
            Some(r) if tree.root > r => VertexId(tree.root.0 - 1),
            _ => tree.root,
        };
        assert!(same_tree(&rp.tree, &model_bfs(new, root).unwrap()));
        assert_eq!(rp.removed, departed);
        rp
    }

    fn full_cause(plan: PlanAction) -> FullCause {
        match plan {
            PlanAction::Full(c) => c,
            PlanAction::Incremental(rp) => panic!("expected full, got {}", rp.class),
        }
    }

    fn is_tree_edge(tree: &GlobalTree, e: EdgeId) -> bool {
        tree.parent[e.lo().index()] == Some(e.hi()) || tree.parent[e.hi().index()] == Some(e.lo())
    }

    /// The first non-root vertex that is a tree leaf (or, with `leaf`
    /// false, an internal tree vertex) and whose removal keeps `g`
    /// connected.
    fn removable(g: &Graph, tree: &GlobalTree, leaf: bool) -> VertexId {
        g.vertices()
            .find(|&v| {
                tree.children[v.index()].is_empty() == leaf && v != tree.root && {
                    let mut m = g.clone();
                    m.remove_vertex(v).unwrap();
                    m.is_connected()
                }
            })
            .unwrap()
    }

    /// Deleting a non-tree edge measures `TreePreserving` with an empty
    /// tree-dirty set.
    #[test]
    fn non_tree_deletion_is_tree_preserving() {
        let g = gen::grid(4, 4);
        let tree = setup_tree(&g);
        let victim = g.edges().find(|&e| !is_tree_edge(&tree, e)).unwrap();
        let mut mutated = g.clone();
        mutated.remove_edge(victim.lo(), victim.hi()).unwrap();
        let rp = measured(&g, &tree, &mutated, None);
        assert_eq!(rp.class, DeltaClass::TreePreserving);
        assert!(rp.tree_dirty.is_empty());
        assert_eq!(rp.edge_dirty, vec![victim.lo(), victim.hi()]);
    }

    /// Deleting any tree edge of a grid measures `TreeRepairable`, whether
    /// the child keeps another up-neighbour or its distances cascade.
    #[test]
    fn tree_deletion_is_tree_repairable() {
        let g = gen::grid(4, 4);
        let tree = setup_tree(&g);
        for e in g.edges().filter(|&e| is_tree_edge(&tree, e)) {
            let mut mutated = g.clone();
            mutated.remove_edge(e.lo(), e.hi()).unwrap();
            let rp = measured(&g, &tree, &mutated, None);
            assert_eq!(rp.class, DeltaClass::TreeRepairable, "{e:?}");
        }
    }

    /// A cycle's deep tree edge has no alternative up-neighbour: the
    /// distances cascade, and the measured repair covers them.
    #[test]
    fn cascading_tree_deletion_is_measured() {
        let g = gen::cycle(5);
        let tree = setup_tree(&g);
        // In C5 rooted at 4, vertex 1 hangs under 0; deleting {0, 1}
        // leaves 1 with only a same-depth neighbour.
        let mut mutated = g.clone();
        mutated.remove_edge(VertexId(0), VertexId(1)).unwrap();
        let rp = measured(&g, &tree, &mutated, None);
        assert_eq!(rp.class, DeltaClass::TreeRepairable);
        assert!(rp.tree_dirty.contains(&VertexId(1)));
    }

    /// A disconnecting edge delta has no measurement: `TreeChanged`.
    #[test]
    fn disconnecting_deletion_falls_back() {
        let g = gen::path(4);
        let tree = setup_tree(&g);
        let mut mutated = g.clone();
        mutated.remove_edge(VertexId(1), VertexId(2)).unwrap();
        let cause = full_cause(plan_delta(&g, &tree, &mutated, None));
        assert_eq!(cause, FullCause::TreeChanged);
    }

    /// A pendant arrival measures as a leaf under its anchor.
    #[test]
    fn pendant_arrival_is_vertex_set_change() {
        let g = gen::wheel(10);
        let tree = setup_tree(&g);
        let mut mutated = g.clone();
        let fresh = mutated.add_vertex();
        mutated.add_edge(fresh, VertexId(3)).unwrap();
        let rp = measured(&g, &tree, &mutated, None);
        assert_eq!(rp.class, DeltaClass::VertexSetChange);
        assert_eq!(rp.tree.parent[fresh.index()], Some(VertexId(3)));
        assert!(rp.tree_dirty.contains(&fresh));
        assert_eq!(rp.edge_dirty, vec![VertexId(3), fresh]);
    }

    /// An arrival that is not a pure append (here it also drops an edge)
    /// and an isolated arrival fall back as `VertexSetChanged`.
    #[test]
    fn unmeasurable_arrivals_fall_back() {
        let g = gen::cycle(6);
        let tree = setup_tree(&g);
        let mut mutated = g.clone();
        let fresh = mutated.add_vertex();
        mutated.add_edge(fresh, VertexId(0)).unwrap();
        mutated.remove_edge(VertexId(2), VertexId(3)).unwrap();
        let cause = full_cause(plan_delta(&g, &tree, &mutated, None));
        assert_eq!(cause, FullCause::VertexSetChanged);
        let mut isolated = g.clone();
        isolated.add_vertex();
        let cause = full_cause(plan_delta(&g, &tree, &isolated, None));
        assert_eq!(cause, FullCause::VertexSetChanged);
    }

    /// A leaf departure measures with the renumbering recorded.
    #[test]
    fn leaf_departure_is_vertex_set_change() {
        let g = gen::grid(4, 4);
        let tree = setup_tree(&g);
        let leaf = removable(&g, &tree, true);
        let mut mutated = g.clone();
        mutated.remove_vertex(leaf).unwrap();
        let rp = measured(&g, &tree, &mutated, Some(leaf));
        assert_eq!(rp.class, DeltaClass::VertexSetChange);
        assert_eq!(rp.tree.parent.len(), g.vertex_count() - 1);
    }

    /// Departure of an internal tree vertex re-hangs its children, and
    /// the measured repair reports each of them as tree-dirty.
    #[test]
    fn internal_departure_is_measured() {
        let g = gen::grid(4, 4);
        let tree = setup_tree(&g);
        let internal = removable(&g, &tree, false);
        let mut mutated = g.clone();
        mutated.remove_vertex(internal).unwrap();
        let rp = measured(&g, &tree, &mutated, Some(internal));
        assert_eq!(rp.class, DeltaClass::VertexSetChange);
        for &c in &tree.children[internal.index()] {
            let c = VertexId(c.0 - u32::from(c > internal));
            assert!(rp.tree_dirty.contains(&c), "re-hung child {c:?}");
        }
    }

    /// Root departures, unhinted departures and hints that do not match
    /// the graphs fall back as `VertexSetChanged`.
    #[test]
    fn unmeasurable_departures_fall_back() {
        let g = gen::wheel(8);
        let tree = setup_tree(&g);
        let mut no_root = g.clone();
        no_root.remove_vertex(tree.root).unwrap();
        let leaf = removable(&g, &tree, true);
        let mut no_leaf = g.clone();
        no_leaf.remove_vertex(leaf).unwrap();
        let wrong = VertexId(u32::from(leaf.0 == 0));
        for (mutated, hint) in [
            (&no_root, Some(tree.root)),
            (&no_leaf, None),
            (&no_leaf, Some(wrong)),
            (&no_leaf, Some(VertexId(99))),
        ] {
            let cause = full_cause(plan_delta(&g, &tree, mutated, hint));
            assert_eq!(cause, FullCause::VertexSetChanged, "hint {hint:?}");
        }
    }

    /// Inserting an edge between same-depth endpoints preserves the tree;
    /// a depth-gap-2 insert shortens distances and measures as
    /// `TreeRepairable`.
    #[test]
    fn insert_classification_follows_depth_gap() {
        let g = gen::grid(4, 4);
        let tree = setup_tree(&g);
        let depth = |v: VertexId| tree.depth[v.index()];
        let mut same_level = None;
        let mut wide_gap = None;
        for u in g.vertices() {
            for v in g.vertices() {
                if u < v && !g.has_edge(u, v) {
                    if depth(u) == depth(v) && same_level.is_none() {
                        same_level = Some((u, v));
                    }
                    if depth(u).abs_diff(depth(v)) >= 2 && wide_gap.is_none() {
                        wide_gap = Some((u, v));
                    }
                }
            }
        }
        let (u, v) = same_level.expect("grid has same-depth non-edges");
        let mut mutated = g.clone();
        mutated.add_edge(u, v).unwrap();
        assert_eq!(
            measured(&g, &tree, &mutated, None).class,
            DeltaClass::TreePreserving
        );

        let (u, v) = wide_gap.expect("grid has wide-gap non-edges");
        let mut mutated = g.clone();
        mutated.add_edge(u, v).unwrap();
        let rp = measured(&g, &tree, &mutated, None);
        assert_eq!(rp.class, DeltaClass::TreeRepairable);
        let deep = if depth(u) > depth(v) { u } else { v };
        assert!(rp.tree_dirty.contains(&deep), "the deep endpoint moves up");
    }

    /// Class codes are stable and distinct (JSON consumers rely on them).
    #[test]
    fn class_codes_are_distinct() {
        let codes: Vec<&str> = DeltaClass::ALL.iter().map(|c| c.code()).collect();
        let mut dedup = codes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(codes.len(), dedup.len());
        assert_eq!(DeltaClass::TreePreserving.to_string(), "tree-preserving");
    }
}
