//! Wall-clock benchmarks of the individual substrates: the centralized DMP
//! embedder (the baseline's solver and the merge skeleton solver), the
//! CONGEST kernel protocols (T3's building blocks), the routing scheduler,
//! and the Lemma 5.3 symmetry breaking (T4). Timing is hand-rolled via
//! `planar_bench::timing` since criterion cannot be vendored offline.

use congest_sim::protocols::LeaderBfs;
use congest_sim::routing::{schedule, Transfer};
use congest_sim::{run, SimConfig};
use planar_bench::greedy_coloring;
use planar_bench::timing::bench;
use planar_embedding::symmetry::symmetry_break;
use planar_lib::gen;

const SAMPLES: usize = 10;

fn bench_dmp() {
    for n in [64usize, 256, 1024] {
        let g = gen::random_maximal_planar(n, 9);
        bench(&format!("dmp_embed/{n}"), SAMPLES, || {
            planar_lib::embed(&g).unwrap().vertex_count()
        });
    }
}

fn bench_kernel_leader_bfs() {
    for side in [8usize, 16, 32] {
        let g = gen::grid(side, side);
        bench(
            &format!("kernel_leader_bfs/{}", side * side),
            SAMPLES,
            || {
                let programs: Vec<LeaderBfs> = g
                    .vertices()
                    .map(|v| LeaderBfs::new(v, g.neighbors(v)))
                    .collect();
                run(&g, programs, &SimConfig::default())
                    .unwrap()
                    .metrics
                    .rounds
            },
        );
    }
}

fn bench_routing() {
    for n in [128usize, 512] {
        let g = gen::path(n);
        // All-to-root convergecast-style transfer pattern.
        let transfers: Vec<Transfer> = (1..n as u32)
            .map(|i| Transfer::new((0..=i).rev().map(planar_graph::VertexId).collect(), 2))
            .collect();
        bench(&format!("routing_schedule/{n}"), SAMPLES, || {
            schedule(&g, &transfers, 8).unwrap().rounds
        });
    }
}

fn bench_symmetry() {
    for n in [256usize, 1024] {
        let g = gen::random_outerplanar(n, 5);
        let colors = greedy_coloring(&g);
        bench(&format!("t4_symmetry_break/{n}"), SAMPLES, || {
            symmetry_break(&g, &colors, &SimConfig::default())
                .unwrap()
                .rounds
        });
    }
}

fn main() {
    bench_dmp();
    bench_kernel_leader_bfs();
    bench_routing();
    bench_symmetry();
}
