//! Minimal wall-clock benchmarking: a criterion stand-in for the offline
//! build environment (criterion cannot be vendored; see `shims/README.md`).
//!
//! Bench targets stay `harness = false` binaries; each calls [`bench()`] per
//! case and gets a criterion-style `name  time: [min median max]` line plus
//! a structured [`Sample`] for further aggregation (the kernel benchmark
//! turns these into a JSON perf record).

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// One benchmark case: timing distribution over `iters` measured runs.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Case label, e.g. `"t1_embed_distributed/grid16"`.
    pub name: String,
    /// Number of measured iterations (after one warm-up run).
    pub iters: usize,
    /// Fastest iteration.
    pub min: Duration,
    /// Median iteration.
    pub median: Duration,
    /// Slowest iteration.
    pub max: Duration,
}

impl Sample {
    /// Median time in seconds.
    pub fn median_secs(&self) -> f64 {
        self.median.as_secs_f64()
    }
}

/// Runs `f` once to warm up, then `iters` measured times, and prints a
/// criterion-style summary line. The closure's result is passed through
/// [`black_box`] so the optimizer cannot elide the work.
pub fn bench<T>(name: &str, iters: usize, mut f: impl FnMut() -> T) -> Sample {
    assert!(iters > 0, "need at least one measured iteration");
    black_box(f());
    let mut times: Vec<Duration> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        black_box(f());
        times.push(t0.elapsed());
    }
    times.sort();
    let sample = Sample {
        name: name.to_string(),
        iters,
        min: times[0],
        median: times[times.len() / 2],
        max: times[times.len() - 1],
    };
    println!(
        "{:<44} time: [{:>10.3?} {:>10.3?} {:>10.3?}]  ({} iters)",
        sample.name, sample.min, sample.median, sample.max, sample.iters
    );
    sample
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_ordered_distribution() {
        let s = bench("noop", 5, || 1 + 1);
        assert_eq!(s.iters, 5);
        assert!(s.min <= s.median && s.median <= s.max);
    }
}
