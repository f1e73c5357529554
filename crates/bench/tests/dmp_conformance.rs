//! The incremental DMP embedder behind `planar_lib::embed` against the
//! frozen whole-graph-rescan oracle `dmpref` (beside this file): identical
//! rotations on planar inputs and identical errors (down to the embedded
//! edge count) on non-planar ones.

mod dmpref;

use congest_sim::mix_seed;
use planar_graph::{Graph, VertexId};
use planar_lib::gen;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn assert_same(g: &Graph, label: &str) {
    let fast = planar_lib::embed(g);
    let oracle = dmpref::embed(g);
    assert_eq!(
        fast, oracle,
        "{label}: incremental DMP diverged from the rescan"
    );
    if let Ok(rs) = fast {
        assert!(rs.is_planar_embedding(), "{label}: not genus 0");
    }
}

/// `g` plus `extra` random non-edges: planar for few extras, past the
/// density guard for many, and non-planar below it in between.
fn with_extra_edges(g: &Graph, extra: usize, seed: u64) -> Graph {
    let mut g = g.clone();
    let n = g.vertex_count() as u32;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut added = 0;
    for _ in 0..extra * 50 {
        if added == extra {
            break;
        }
        let (u, v) = (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n)));
        if u != v && g.add_edge(u, v).is_ok() {
            added += 1;
        }
    }
    g
}

#[test]
fn every_family_embeds_identically() {
    for fam in gen::FAMILIES {
        for n in [fam.min_n, 9, 24, 60, 150] {
            let seeds: &[u64] = if fam.randomized { &[0, 1, 2, 3] } else { &[0] };
            for &seed in seeds {
                let g = (fam.build)(n, seed);
                assert_same(&g, &format!("{}/n={n}/seed={seed}", fam.name));
            }
        }
    }
}

#[test]
fn non_planar_inputs_fail_identically() {
    let k5 = gen::complete(5);
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
    assert_same(&k5, "K5");
    assert_same(&k33, "K3,3");
    let mut non_planar = 0;
    for fam in [
        "grid",
        "tri-grid",
        "random-planar",
        "random-maximal-planar",
        "wheel",
    ] {
        let fam = gen::family(fam).unwrap();
        for seed in 0..6u64 {
            let g = (fam.build)(40, seed);
            for extra in [1, 2, 4, 8] {
                let h = with_extra_edges(&g, extra, mix_seed(seed, &[extra as u64]));
                non_planar += usize::from(planar_lib::embed(&h).is_err());
                assert_same(&h, &format!("{}/seed={seed}+{extra}", fam.name));
            }
        }
    }
    assert!(
        non_planar > 20,
        "too few non-planar cases exercised: {non_planar}"
    );
}

#[test]
fn random_sparse_graphs_embed_identically() {
    // Disconnected, cut vertices, bridges and blocks of every size.
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(mix_seed(seed, &[7]));
        let n = rng.gen_range(2..40);
        let m = rng.gen_range(0..2 * n);
        let g = with_extra_edges(&Graph::new(n), m, seed);
        assert_same(&g, &format!("random/seed={seed}"));
    }
}

#[test]
fn large_dense_graph_embeds_identically() {
    let g = gen::random_maximal_planar(600, 0xD1);
    assert_same(&g, "random-maximal-planar/n=600");
}
