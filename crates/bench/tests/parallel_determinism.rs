//! Determinism of the parallel bench harness: fanning trials out over
//! worker threads must produce tables byte-identical to a sequential run,
//! no matter how the OS schedules the workers.

use planar_bench::chaos::{chaos_cell, chaos_sweep};
use planar_bench::parallel::par_map;
use planar_bench::{sweep, sweep_trial, t5_lower_bound, Family};

/// The parallel family × size sweep equals the same trials mapped
/// sequentially, and reruns are identical.
#[test]
fn t1_parallel_matches_sequential() {
    let sizes = [48usize, 96];
    let sequential: Vec<_> = Family::ALL
        .into_iter()
        .flat_map(|f| sizes.iter().map(move |&n| sweep_trial(f, n)))
        .collect();
    let parallel = sweep(&sizes);
    assert_eq!(
        parallel, sequential,
        "parallel sweep diverged from sequential"
    );
    assert_eq!(sweep(&sizes), parallel, "rerun diverged");
}

/// Same check on a sweep whose trial axis is not family × size.
#[test]
fn t5_parallel_is_stable() {
    let a = t5_lower_bound(&[4, 8, 16]);
    let b = t5_lower_bound(&[4, 8, 16]);
    assert_eq!(a, b);
    assert_eq!(a.len(), 3);
}

/// Faulty runs stay deterministic through the parallel harness: the chaos
/// sweep (seeded fault plans, reliable delivery, worker threads) equals
/// both a rerun of itself and the same cells computed sequentially.
#[test]
fn chaos_parallel_matches_sequential() {
    let sizes = [64usize];
    let parallel = chaos_sweep(&sizes);
    assert_eq!(chaos_sweep(&sizes), parallel, "chaos rerun diverged");
    let sequential: Vec<_> = ["grid", "tri-grid"]
        .into_iter()
        .enumerate()
        .flat_map(|(fam_idx, family)| {
            (0..planar_bench::chaos::RATES.len())
                .map(move |rate_idx| chaos_cell(family, fam_idx, 64, rate_idx))
        })
        .collect();
    assert_eq!(parallel, sequential, "parallel chaos diverged");
}

/// par_map preserves input order even when work sizes are skewed enough
/// that completion order is certain to differ from input order.
#[test]
fn par_map_order_with_skewed_work() {
    let items: Vec<u64> = (0..64).rev().collect();
    let out = par_map(items.clone(), |i| {
        // Busy work proportional to the item so late inputs finish first.
        let mut acc = i;
        for _ in 0..(i * 1000) {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        (i, acc)
    });
    for (slot, &(i, _)) in out.iter().enumerate() {
        assert_eq!(i, items[slot]);
    }
}
