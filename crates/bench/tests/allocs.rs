//! Heap allocations per call of the two halves of `embed_distributed`:
//!
//! * the recursion, `embed_recursion_with_memory` (setup, the Section 4
//!   partition, the Section 5 merges and Lemma 5.3's symmetry breaking);
//! * the epilogue, the centralized embedder `planar_lib::embed` and
//!   distributed certification `certify_embedding`, which every driver
//!   path and every service delta runs.
//!
//! A counting global allocator tallies the allocations made on the
//! calling thread, so the figures are exact and repeat from run to run;
//! the bounds hold in debug and release builds alike.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use planar_embedding::{certify_embedding, embed_recursion_with_memory, EmbedderConfig};
use planar_graph::Graph;
use planar_lib::gen;

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

// Recursion bounds with ~1.1-1.25x headroom over the measured counts,
// identical in release and debug builds (rmp: 6,576, of which 5,530 are
// `summary_words`; wheel-chain: 5,812, of which 4,531; grid: 586, of
// which 210). What is left besides `summary_words` is mostly output (the
// tree's children lists, each partition's `P_0` and part list, each merged
// part's member list), the batched kernel instances (three vectors each),
// and the growth of the five message types' cold simulator buffers, which
// the receiver-keyed mailbox cut (a single message per arc needs no pool
// entry and no dirty list). A per-vertex or per-part table, or a hash map
// per step, would cross them.
const RECURSION_RMP: u64 = 8_200;
const RECURSION_CHAIN: u64 = 7_300;
const RECURSION_GRID: u64 = 650;

// Bounds with ~1.5x headroom over the measured counts (rmp: embed 506
// release / 518 debug, certify 885; grid: embed 101 / 108, certify 108).
// Most of what is left is the output itself: one rotation `Vec` and one
// certificate label `Vec` per vertex, plus one neighbor-slot table per
// verifier node. Per-step or per-message allocations would cross them.
const EMBED_RMP: u64 = 750;
const CERT_RMP: u64 = 1_330;
const EMBED_GRID: u64 = 160;
const CERT_GRID: u64 = 165;
