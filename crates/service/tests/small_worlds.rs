//! Exhaustive small worlds: every connected *labelled* graph on at most
//! five vertices receives every single delta — each edge insert and
//! delete, each pendant arrival and each departure — through a
//! [`ServiceState`] with the full re-embed oracle armed. Labelled graphs
//! (rather than one per isomorphism class) put every vertex order under
//! the min-id parent rule and the maximum-id root election, so each
//! tie-break the measured tree repair can meet is met.
//!
//! Every applied delta must agree with the oracle, and every one must take
//! the incremental path except a departure of the root, which re-elects
//! through the full path.

use planar_graph::{Graph, VertexId};
use planar_service::{Delta, DeltaClass, DeltaOutcome, OracleMode, ServiceConfig, ServiceState};

/// Every connected labelled graph on `n` vertices.
fn connected_labelled_graphs(n: usize) -> impl Iterator<Item = Graph> {
    let pairs: Vec<(u32, u32)> = (0..n as u32)
        .flat_map(|v| (0..v).map(move |u| (u, v)))
        .collect();
    (0u32..1 << pairs.len()).filter_map(move |mask| {
        let edges = pairs
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask >> i & 1 == 1)
            .map(|(_, &e)| e);
        let g = Graph::from_edges(n, edges).unwrap();
        g.is_connected().then_some(g)
    })
}

/// Every single delta of `g`: each edge insert and delete, each pendant
/// arrival and each departure.
fn every_delta(g: &Graph) -> Vec<Delta> {
    let mut deltas = Vec::new();
    for v in g.vertices() {
        for u in g.vertices().filter(|&u| u < v) {
            deltas.push(if g.has_edge(u, v) {
                Delta::DeleteEdge(u, v)
            } else {
                Delta::InsertEdge(u, v)
            });
        }
        deltas.push(Delta::AddNode { attach: vec![v] });
        deltas.push(Delta::RemoveNode(v));
    }
    deltas
}

/// Runs every delta of every connected labelled graph on `n` vertices,
/// each on a fresh tenant, and returns the (applied, full-path) counts.
fn sweep(n: usize) -> (usize, usize) {
    let mut svc = ServiceState::new(ServiceConfig {
        oracle: OracleMode::Always,
        ..ServiceConfig::default()
    });
    let (mut applied, mut full) = (0, 0);
    for g in connected_labelled_graphs(n) {
        if !planar_lib::is_planar(&g) {
            continue;
        }
        // The first build elects the maximum id as the sticky root.
        let root = VertexId::from_index(n - 1);
        for delta in every_delta(&g) {
            let id = svc.create_tenant(g.clone()).unwrap();
            let outcome = svc.apply(id, delta.clone()).unwrap();
            let record = svc.tenant(id).unwrap().records().last().unwrap();
            assert!(
                record.diverged.is_none(),
                "{g:?} {delta}: {}",
                record.diverged.as_deref().unwrap()
            );
            let DeltaOutcome::Applied { report, .. } = outcome else {
                continue;
            };
            applied += 1;
            if delta == Delta::RemoveNode(root) {
                full += 1;
                assert_eq!(report.taken(), DeltaClass::Fallback, "{g:?} {delta}");
            } else {
                assert!(
                    report.is_incremental(),
                    "{g:?} {delta}: took {:?}",
                    report.path
                );
            }
        }
    }
    assert_eq!(svc.divergences(), 0);
    (applied, full)
}

#[test]
fn small_worlds_up_to_four_vertices() {
    for n in 1..=4 {
        let (applied, _) = sweep(n);
        assert!(applied > 0, "n = {n} applied no delta");
    }
}

#[test]
fn small_worlds_on_five_vertices() {
    let (applied, full) = sweep(5);
    assert!(applied > full && full > 0);
}
