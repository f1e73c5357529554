//! Simulation-kernel throughput benchmark:
//! `cargo bench -p planar-bench --bench kernel`.
//!
//! Floods grid and triangulated-grid substrates at n ~ {1k, 10k, 100k} on
//! both the arc-indexed kernel and the preserved seed kernel
//! (`congest_sim::reference`), reporting delivered messages per second, and
//! refreshes `BENCH_kernel.json` at the workspace root. See
//! `planar_bench::kernelbench` for the workload definition.

fn main() {
    let sizes = [1024usize, 10_000, 100_000];
    let rows = planar_bench::kernelbench::kernel_bench(&sizes);
    let embeds = planar_bench::kernelbench::embed_mem_stage(&[10_000, 100_000, 1_000_000]);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernel.json");
    let doc = planar_bench::kernelbench::record(&rows, &embeds, None);
    planar_bench::record::write(path, &doc);
}
