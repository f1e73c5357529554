//! The harness subcommand registry: one authoritative list of every
//! subcommand with its one-line description, the usage text derived from
//! it, and nothing else.
//!
//! `harness.rs` dispatches against this list and prints [`usage`] on an
//! unknown subcommand (then exits non-zero); the test below pins the list
//! so adding a subcommand without registering it — or registering one
//! without documenting it — fails in CI, not in a user's terminal.

/// One harness subcommand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Subcommand {
    /// The name typed on the command line.
    pub name: &'static str,
    /// One-line description for the usage listing.
    pub description: &'static str,
}

/// Every subcommand the harness accepts, in display order.
pub const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        name: "paper",
        description: "every paper experiment (T1-T6, F-obs32, F-safe, ablation) -> \
                      BENCH_paper.json; the default",
    },
    Subcommand {
        name: "bench-kernel",
        description: "kernel throughput vs the preserved seed kernel -> BENCH_kernel.json",
    },
    Subcommand {
        name: "mem",
        description: "memory gate: n=250k random-maximal-planar embedding under a peak-RSS ceiling",
    },
    Subcommand {
        name: "chaos",
        description: "embedding under seeded link faults, reliable delivery on -> BENCH_chaos.json",
    },
    Subcommand {
        name: "cert",
        description: "certification sweep: label sizes, O(1) verification, mutation soundness -> BENCH_cert.json",
    },
    Subcommand {
        name: "trace",
        description: "audited per-round profile of the full pipeline -> BENCH_trace.json",
    },
    Subcommand {
        name: "sched",
        description: "level-synchronous scheduler vs sequential oracle timings -> BENCH_sched.json",
    },
    Subcommand {
        name: "dst",
        description: "deterministic simulation testing: seeded scenario swarm, shadow oracles, \
                      failing-seed minimization -> BENCH_dst.json (see `harness dst --help`)",
    },
    Subcommand {
        name: "service",
        description: "multi-tenant churn soak: incremental vs full re-embed latency across a \
                      tenant fleet -> BENCH_service.json",
    },
];

/// Looks a subcommand up by name.
pub fn subcommand(name: &str) -> Option<&'static Subcommand> {
    SUBCOMMANDS.iter().find(|s| s.name == name)
}

/// The full usage text: synopsis plus one aligned line per subcommand.
pub fn usage() -> String {
    let names: Vec<&str> = SUBCOMMANDS.iter().map(|s| s.name).collect();
    let width = names.iter().map(|n| n.len()).max().unwrap_or(0);
    let mut out = format!(
        "usage: harness [{}] [--large]\n\nsubcommands:\n",
        names.join("|")
    );
    for s in SUBCOMMANDS {
        out.push_str(&format!("  {:width$}  {}\n", s.name, s.description));
    }
    out.push_str(
        "\ndst options:\n  \
         --swarm <count>    run a swarm of scenarios from consecutive seeds\n  \
         --seed <base>      base (swarm) or single replay seed; default 0\n  \
         --canary           arm the test-only broken-fate canary (divergences expected)\n  \
         --artifacts <dir>  per-run artifact directory (default dst-artifacts)\n",
    );
    out.push_str(
        "\nservice options:\n  \
         --fleet <count>        concurrent tenant graphs in the soak (default 1024)\n  \
         --deltas <count>       churn deltas applied per tenant (default 4)\n  \
         --min-coverage <frac>  fail if incremental coverage drops below this (default 0.95)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pinned subcommand list: renaming, removing, or adding a harness
    /// subcommand must update this test (and the docs that quote it).
    #[test]
    fn subcommand_list_is_pinned() {
        let names: Vec<&str> = SUBCOMMANDS.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "paper",
                "bench-kernel",
                "mem",
                "chaos",
                "cert",
                "trace",
                "sched",
                "dst",
                "service",
            ]
        );
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        let mut seen = std::collections::HashSet::new();
        for s in SUBCOMMANDS {
            assert!(seen.insert(s.name), "duplicate subcommand {}", s.name);
            assert_eq!(subcommand(s.name), Some(s));
            assert!(!s.description.is_empty());
        }
        assert_eq!(subcommand("no-such-subcommand"), None);
    }

    #[test]
    fn usage_mentions_every_subcommand() {
        let text = usage();
        assert!(text.starts_with("usage: harness ["));
        for s in SUBCOMMANDS {
            assert!(text.contains(s.name), "usage missing {}", s.name);
        }
        assert!(text.contains("--large"));
        assert!(text.contains("--swarm"));
        assert!(text.contains("--fleet"));
        assert!(text.contains("--deltas"));
        assert!(text.contains("--min-coverage"));
    }
}
