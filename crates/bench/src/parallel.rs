//! Deterministic parallel execution of independent bench trials.
//!
//! The experiment sweeps (seeds × graph families × sizes) are
//! embarrassingly parallel: every trial builds its own `Graph` and runs its
//! own simulation, sharing nothing. [`par_map`] fans trials out over scoped
//! `std::thread` workers and collects results **by trial index**, never by
//! completion order, so its output is byte-identical to the sequential
//! `map` no matter how the OS schedules the workers. Each trial's kernel
//! steps its rounds on the worker's own thread.
//!
//! rayon would be the natural backend, but it cannot be vendored in this
//! offline build environment (see `shims/README.md`); the semantics are
//! the same as `par_iter().map().collect()`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads for bench sweeps: `PLANAR_THREADS` if set and
/// parseable (clamped to >= 1), else the host's available parallelism,
/// else 1.
pub fn worker_threads() -> usize {
    if let Ok(v) = std::env::var("PLANAR_THREADS") {
        if let Ok(t) = v.trim().parse::<usize>() {
            return t.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Applies `f` to every item on up to [`worker_threads`] scoped workers
/// pulling from an atomic queue, returning results in input order. One
/// worker (or at most one item) degrades to a plain sequential map on the
/// calling thread.
///
/// # Panics
///
/// Propagates a panic from `f` (the first worker panic observed).
pub fn par_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let threads = worker_threads();
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    // Hand each item an index so results land in their input slot.
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = work[i]
                    .lock()
                    .expect("work slot poisoned")
                    .take()
                    .expect("each slot is claimed exactly once");
                let out = f(item);
                *results[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every slot was filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(items, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn matches_sequential_map() {
        let items: Vec<u64> = (0..37).collect();
        let seq: Vec<u64> = items.iter().map(|&i| i.wrapping_mul(0x9E3779B9)).collect();
        let par = par_map(items, |i| i.wrapping_mul(0x9E3779B9));
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(par_map(Vec::<u32>::new(), |i| i), Vec::<u32>::new());
        assert_eq!(par_map(vec![7u32], |i| i + 1), vec![8]);
    }
}
