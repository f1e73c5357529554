//! Heap allocations per call of the two halves of `embed_distributed`:
//!
//! * the recursion, `embed_recursion_with_memory` (setup, the Section 4
//!   partition, the Section 5 merges and Lemma 5.3's symmetry breaking);
//! * the epilogue, the centralized embedder `planar_lib::embed` and
//!   distributed certification `certify_embedding`, which every driver
//!   path and every service delta runs;
//! * one incremental service delta on a 24-node tenant, and the bytes of
//!   the one execution scratch a service keeps for all its tenants.
//!
//! A counting global allocator tallies the allocations made on the
//! calling thread, so the figures are exact and repeat from run to run;
//! the bounds hold in debug and release builds alike.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use planar_bench::servicebench::FLEET_FAMILIES;
use planar_embedding::{certify_embedding, embed_recursion_with_memory, EmbedderConfig};
use planar_graph::Graph;
use planar_lib::gen;
use planar_service::{Delta, DeltaOutcome, ServiceConfig, ServiceState};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread (reallocations included).
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// The configuration the benchmark workloads run: no per-merge invariant
/// re-solve, certification on.
fn config() -> EmbedderConfig {
    EmbedderConfig {
        certify: true,
        check_invariants: false,
        ..EmbedderConfig::default()
    }
}

/// Asserts a per-call allocation bound for the recursion on `g`.
fn check_recursion(label: &str, g: &Graph, bound: u64) {
    let (allocs, out) = allocations(|| embed_recursion_with_memory(g, &config()));
    out.expect("planar input");
    println!("{label}: recursion {allocs} allocations");
    assert!(
        allocs <= bound,
        "{label}: embed_recursion_with_memory made {allocs} allocations, bound {bound}"
    );
}

/// Asserts per-call allocation bounds for both epilogue steps on `g`.
fn check_epilogue(label: &str, g: &Graph, embed_bound: u64, certify_bound: u64) {
    let (embed_allocs, rotation) = allocations(|| planar_lib::embed(g));
    let rotation = rotation.expect("planar input");
    let (cert_allocs, cert) = allocations(|| certify_embedding(g, &rotation, &config()));
    assert!(cert.expect("certification runs").accepted());
    println!("{label}: embed {embed_allocs} allocations, certify {cert_allocs}");
    assert!(
        embed_allocs <= embed_bound,
        "{label}: planar_lib::embed made {embed_allocs} allocations, bound {embed_bound}"
    );
    assert!(
        cert_allocs <= certify_bound,
        "{label}: certify_embedding made {cert_allocs} allocations, bound {certify_bound}"
    );
}

#[test]
fn random_maximal_planar_400() {
    let g = gen::random_maximal_planar(400, 1);
    check_recursion("rmp n=400", &g, RECURSION_RMP);
    check_epilogue("rmp n=400", &g, EMBED_RMP, CERT_RMP);
}

#[test]
fn wheel_chain_500() {
    let family = gen::family("wheel-chain").expect("registered family");
    check_recursion(
        "wheel-chain n=500",
        &(family.build)(500, 1),
        RECURSION_CHAIN,
    );
}

#[test]
fn grid_25() {
    let g = gen::grid(5, 5);
    check_recursion("grid n=25", &g, RECURSION_GRID);
    check_epilogue("grid n=25", &g, EMBED_GRID, CERT_GRID);
}

/// Admits `count` 24-node tenants round-robin over the benchmark fleet's
/// families.
fn admit(svc: &mut ServiceState, count: usize) {
    for i in 0..count {
        let family = gen::family(FLEET_FAMILIES[i % FLEET_FAMILIES.len()]).unwrap();
        let g = (family.build)(24.max(family.min_n), i as u64);
        svc.create_tenant(g).expect("planar tenant");
    }
}

/// The service keeps one execution scratch for all its tenants: once the
/// first fleet of each family has run on it, admitting more tenants of
/// the same sizes does not grow it.
#[test]
fn one_scratch_serves_the_fleet() {
    let mut svc = ServiceState::new(ServiceConfig::default());
    admit(&mut svc, 8);
    let after_8 = svc.scratch_bytes();
    admit(&mut svc, 56);
    let after_64 = svc.scratch_bytes();
    println!("scratch bytes: {after_8} after 8 tenants, {after_64} after 64");
    assert!(after_8 > 0);
    assert!(
        after_64 <= after_8 + after_8 / SCRATCH_GROWTH_DIVISOR,
        "scratch grew from {after_8} to {after_64} bytes between 8 and 64 tenants"
    );
}

/// One incremental delta (a non-tree edge deletion) on a warm 24-node
/// tenant: validation, gate, dirty-region rebuild, epilogue and the
/// certificate splice with verification on the shared scratch.
#[test]
fn incremental_delta_on_a_small_tenant() {
    let mut svc = ServiceState::new(ServiceConfig::default());
    let g = gen::triangulated_grid(4, 6);
    let id = svc.create_tenant(g.clone()).expect("planar tenant");
    let tenant = svc.tenant(id).unwrap();
    let e = g
        .edges()
        .find(|e| !tenant.is_tree_edge(e.lo(), e.hi()))
        .expect("a triangulated grid has non-tree edges");
    let (allocs, out) = allocations(|| svc.apply(id, Delta::DeleteEdge(e.lo(), e.hi())));
    let Ok(DeltaOutcome::Applied { report, .. }) = out else {
        panic!("the deletion applies: {out:?}");
    };
    assert!(report.is_incremental());
    println!("incremental delta on n=24: {allocs} allocations");
    assert!(
        allocs <= DELTA_N24,
        "one incremental delta made {allocs} allocations, bound {DELTA_N24}"
    );
}

// Recursion bounds with ~1.2-1.4x headroom over the measured counts,
// identical in release and debug builds (rmp: 887; wheel-chain: 1,252;
// grid: 336). Summary sizes come from an in-place block pass and allocate
// nothing. What is left is mostly output (the tree's children lists, each
// partition's `P_0` and part list, each merged part's member list), each
// symmetry step's virtual graph and outcome, the batched kernel instances
// (their program vectors; member lists are reused from the partition
// scratch), and the growth of the five message types' cold simulator
// buffers. A per-vertex or per-part table, or a hash map per
// step or per summary, would cross them.
const RECURSION_RMP: u64 = 1_250;
const RECURSION_CHAIN: u64 = 1_500;
const RECURSION_GRID: u64 = 450;

// Bounds with ~1.5x headroom over the measured counts (rmp: embed 506
// release / 518 debug, certify 885; grid: embed 101 / 108, certify 108).
// Most of what is left is the output itself: one rotation `Vec` and one
// certificate label `Vec` per vertex, plus one neighbor-slot table per
// verifier node. Per-step or per-message allocations would cross them.
const EMBED_RMP: u64 = 750;
const CERT_RMP: u64 = 1_330;
const EMBED_GRID: u64 = 160;
const CERT_GRID: u64 = 165;

// A warm service delta on a 24-node tenant: 314 allocations release /
// 377 debug, against 402 / 501 when each tenant carried its own kernel
// cache, re-grew the recursion tables per delta and verified on a cold
// simulator (so the bound fails there). What is left is mostly output:
// the mutated graph, the rebuilt arena's dirty nodes, the rotation, the
// certificates and their splice, and the verifier's per-node programs.
const DELTA_N24: u64 = 400;

// The scratch may grow by at most an eighth between 8 and 64 tenants of
// the same sizes (a larger graph of a seeded family can still widen a
// buffer once); a table per tenant would grow it eightfold.
const SCRATCH_GROWTH_DIVISOR: usize = 8;
