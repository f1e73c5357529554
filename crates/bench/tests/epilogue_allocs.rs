//! Heap allocations per call of the embedding epilogue: the centralized
//! embedder `planar_lib::embed` and distributed certification
//! `certify_embedding`, which every driver path and every service delta
//! runs. A counting global allocator tallies the allocations made on the
//! calling thread, so the figures are exact and repeat from run to run;
//! the bounds hold in debug and release builds alike.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use planar_embedding::{certify_embedding, EmbedderConfig};
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

/// Asserts per-call allocation bounds for both epilogue steps on `g`.
fn check(label: &str, g: &Graph, embed_bound: u64, certify_bound: u64) {
    let cfg = EmbedderConfig {
        certify: true,
        check_invariants: false,
        ..EmbedderConfig::default()
    };
    let (embed_allocs, rotation) = allocations(|| planar_lib::embed(g));
    let rotation = rotation.expect("planar input");
    let (cert_allocs, cert) = allocations(|| certify_embedding(g, &rotation, &cfg));
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
    check("rmp n=400", &g, EMBED_RMP, CERT_RMP);
}

#[test]
fn grid_25() {
    check("grid n=25", &gen::grid(5, 5), EMBED_GRID, CERT_GRID);
}

// Bounds with ~1.5x headroom over the measured counts (rmp: embed 506
// release / 518 debug, certify 953; grid: embed 101 / 108, certify 146).
// Most of what is left is the output itself: one rotation `Vec` and one
// certificate label `Vec` per vertex, plus one neighbor-slot table per
// verifier node. Per-step or per-message allocations would cross them.
const EMBED_RMP: u64 = 750;
const CERT_RMP: u64 = 1_400;
const EMBED_GRID: u64 = 160;
const CERT_GRID: u64 = 220;
