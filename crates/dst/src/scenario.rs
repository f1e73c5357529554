//! The seeded scenario generator: one `u64` determines a complete
//! end-to-end configuration of the distributed embedder.
//!
//! A [`Scenario`] is the unit of deterministic simulation testing. Every
//! dimension — graph family and size, fault plan, reliable-delivery
//! wrapper, kernel, scheduler, certification — is drawn from
//! sub-seeds derived with the workspace's audited mixer
//! ([`congest_sim::mix_seed`]), so `Scenario::generate(seed)` is a pure
//! function: the same seed reproduces the same scenario on any machine,
//! and a failing seed printed by the swarm runner replays bit-identically
//! with `harness dst --seed N`.
//!
//! Generated fault plans always pass [`congest_sim::FaultPlan::validate`]
//! (probabilities in range, link-down windows non-empty, crash victims in
//! range) — the generator asserts this, so a validation failure is a bug
//! in the generator, never a property of a seed.

use congest_sim::{mix_seed, FaultPlan, LinkDown, LinkFaults, SimConfig};
use planar_embedding::{EmbedderConfig, Kernel, ReliableConfig, Scheduler};
use planar_graph::{Graph, VertexId};
use planar_lib::gen;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Smallest requested vertex count the generator draws.
pub const MIN_N: usize = 8;
/// Largest requested vertex count the generator draws. Small on purpose:
/// the swarm's power comes from scenario *count*, and small instances both
/// run fast and minimize well. Raised from 48 so the draw range covers
/// multi-level recursion and the kernel's blocked-delivery boundary
/// (blocks of 256 recipients) while staying minimizer-friendly.
pub const MAX_N: usize = 96;

/// Dimension tags for sub-seed derivation: `mix_seed(seed, &[DIM_*])`.
/// Stable — renumbering silently re-rolls every scenario ever reported.
const DIM_FAMILY: u64 = 1;
const DIM_SIZE: u64 = 2;
const DIM_GRAPH: u64 = 3;
const DIM_FAULT_DRAWS: u64 = 4;
const DIM_FAULT_PLAN: u64 = 5;
const DIM_EXEC: u64 = 6;
const DIM_CHURN_DRAWS: u64 = 7;
const DIM_CHURN_SEED: u64 = 8;

/// One fully-determined end-to-end run configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// The scenario seed everything below is derived from.
    pub seed: u64,
    /// Graph family name, resolvable via [`gen::family`].
    pub family: &'static str,
    /// Requested vertex count (families round to their nearest valid
    /// shape; see `gen::FAMILIES`).
    pub requested_n: usize,
    /// Seed passed to the family's builder (inert for deterministic
    /// families).
    pub graph_seed: u64,
    /// The complete fault-injection schedule (empty ⇒ fault-free run).
    pub faults: FaultPlan,
    /// Reliable-delivery wrapper configuration, if armed.
    pub reliability: Option<ReliableConfig>,
    /// Which simulation kernel executes the phases.
    pub kernel: Kernel,
    /// How the driver walks the recursion.
    pub scheduler: Scheduler,
    /// Whether the run appends the distributed certification phase.
    pub certify: bool,
    /// Seeded churn deltas applied through the multi-tenant service after
    /// the primary embedding, each judged incremental-vs-full-oracle
    /// (`0` ⇒ no churn pass). Drawn only for fault-free scenarios — the
    /// service hosts long-lived embeddings, not chaos runs.
    pub churn_deltas: usize,
    /// Seed of the churn stream (inert when `churn_deltas == 0`).
    pub churn_seed: u64,
}

impl Scenario {
    /// Draws the complete scenario for `seed`. Pure and total: every
    /// `u64` maps to a valid scenario.
    ///
    /// # Panics
    ///
    /// Panics if the generator produced a fault plan its own validator
    /// rejects — a generator bug by definition.
    pub fn generate(seed: u64) -> Scenario {
        let fam_idx = (mix_seed(seed, &[DIM_FAMILY]) % gen::FAMILIES.len() as u64) as usize;
        let family = &gen::FAMILIES[fam_idx];

        let span = (MAX_N - MIN_N + 1) as u64;
        let requested_n = (MIN_N + (mix_seed(seed, &[DIM_SIZE]) % span) as usize).max(family.min_n);
        let graph_seed = mix_seed(seed, &[DIM_GRAPH]);
        let g = (family.build)(requested_n, graph_seed);
        let n = g.vertex_count();

        let faults = draw_faults(
            mix_seed(seed, &[DIM_FAULT_DRAWS]),
            mix_seed(seed, &[DIM_FAULT_PLAN]),
            &g,
        );
        faults
            .validate(n)
            .expect("scenario generator emitted an invalid fault plan");

        let mut exec = StdRng::seed_from_u64(mix_seed(seed, &[DIM_EXEC]));
        let lossy = faults.link != LinkFaults::NONE
            || !faults.link_overrides.is_empty()
            || !faults.link_down.is_empty();
        let reliability = if lossy && exec.gen_range(0u32..100) < 75 {
            Some(ReliableConfig {
                retransmit_after: exec.gen_range(2usize..=5),
                max_retries: exec.gen_range(6usize..=10),
            })
        } else {
            None
        };
        let kernel = if exec.gen_range(0u32..100) < 60 {
            Kernel::Fast
        } else {
            Kernel::Reference
        };
        let scheduler = if exec.gen_range(0u32..100) < 50 {
            Scheduler::LevelSync
        } else {
            Scheduler::Sequential
        };
        // The retired kernel thread-count dimension: its draw is still
        // consumed so every seed keeps the scenario it has always named.
        exec.gen_range(0usize..3);
        let certify = exec.gen_range(0u32..100) < 50;

        // Churn is a fault-free-only dimension: the embedding service
        // rejects fault plans (tenants are long-lived embeddings), so
        // drawing churn for faulty scenarios would silently no-op.
        let mut churn = StdRng::seed_from_u64(mix_seed(seed, &[DIM_CHURN_DRAWS]));
        let (churn_deltas, churn_seed) = if faults.is_empty() && churn.gen_range(0u32..100) < 40 {
            (
                churn.gen_range(1usize..=6),
                mix_seed(seed, &[DIM_CHURN_SEED]),
            )
        } else {
            (0, 0)
        };

        Scenario {
            seed,
            family: family.name,
            requested_n,
            graph_seed,
            faults,
            reliability,
            kernel,
            scheduler,
            certify,
            churn_deltas,
            churn_seed,
        }
    }

    /// Rebuilds the scenario's input graph (deterministic in the stored
    /// family/size/seed).
    pub fn build_graph(&self) -> Graph {
        let family = gen::family(self.family).expect("scenario family is registered");
        (family.build)(self.requested_n, self.graph_seed)
    }

    /// Whether the scenario injects any fault at all — the bit the
    /// allowed-terminal lattice keys on.
    pub fn faulty(&self) -> bool {
        !self.faults.is_empty()
    }

    /// Whether the scenario runs the churn pass (service-hosted seeded
    /// deltas with incremental-vs-full-oracle judging).
    pub fn churned(&self) -> bool {
        self.churn_deltas > 0
    }

    /// Assembles the [`EmbedderConfig`] for one run of this scenario with
    /// the given execution overrides (the shadow oracles flip these).
    /// Framework invariant checking stays off — the DST oracles are the
    /// check, and they must observe the production code path.
    pub fn config(&self, kernel: Kernel, scheduler: Scheduler) -> EmbedderConfig {
        EmbedderConfig {
            sim: SimConfig {
                faults: self.faults.clone(),
                ..SimConfig::default()
            },
            check_invariants: false,
            reliability: self.reliability.clone(),
            certify: self.certify,
            kernel,
            scheduler,
        }
    }

    /// Arms the test-only canary: the fast kernel will resolve message
    /// fates through a deliberately skewed seed while the reference kernel
    /// stays honest, so any non-empty link-fault schedule makes the two
    /// kernels diverge. Exists so the DST suite can prove its own oracles
    /// and minimizer catch a real cross-kernel divergence.
    pub fn arm_canary(&mut self, skew: u64) {
        self.faults.canary_skew = skew;
    }
}

/// Draws the fault dimension: ~30% of scenarios run fault-free, the rest
/// combine uniform link faults with optional crash-stops, link outages,
/// and a per-link override. Crash victims and outage endpoints are drawn
/// from the *actual built graph*, so every plan validates against it.
fn draw_faults(draw_seed: u64, plan_seed: u64, g: &Graph) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(draw_seed);
    if rng.gen_range(0u32..100) < 30 {
        return FaultPlan::default();
    }
    let n = g.vertex_count();
    let mut plan = FaultPlan {
        seed: plan_seed,
        ..FaultPlan::default()
    };
    // Rates in per-mille, capped well below the regime where nothing ever
    // terminates usefully. A draw of all zeros is legitimate: the plan may
    // then consist of crashes/outages only, or collapse to empty.
    plan.link = LinkFaults {
        drop: rng.gen_range(0u32..=60) as f64 / 1000.0,
        duplicate: rng.gen_range(0u32..=30) as f64 / 1000.0,
        delay: rng.gen_range(0u32..=60) as f64 / 1000.0,
        max_delay: rng.gen_range(1usize..=3),
    };
    if rng.gen_range(0u32..100) < 30 {
        for _ in 0..rng.gen_range(1usize..=2) {
            let victim = VertexId(rng.gen_range(0u32..n as u32));
            let round = rng.gen_range(0usize..=12);
            plan.crashes.push((victim, round));
        }
    }
    let directed: Vec<(VertexId, VertexId)> = g
        .edges()
        .flat_map(|e| {
            let (u, v) = e.endpoints();
            [(u, v), (v, u)]
        })
        .collect();
    if rng.gen_range(0u32..100) < 25 && !directed.is_empty() {
        for _ in 0..rng.gen_range(1usize..=2) {
            let (from, to) = directed[rng.gen_range(0..directed.len())];
            let start = rng.gen_range(1usize..=8);
            let len = rng.gen_range(1usize..=4);
            plan.link_down.push(LinkDown {
                from,
                to,
                start,
                end: start + len,
            });
        }
    }
    if rng.gen_range(0u32..100) < 20 && !directed.is_empty() {
        let (from, to) = directed[rng.gen_range(0..directed.len())];
        plan.link_overrides.push((
            (from, to),
            LinkFaults {
                drop: rng.gen_range(100u32..=300) as f64 / 1000.0,
                duplicate: 0.0,
                delay: 0.0,
                max_delay: 0,
            },
        ));
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        for seed in 0..50u64 {
            assert_eq!(Scenario::generate(seed), Scenario::generate(seed));
        }
    }

    #[test]
    fn every_seed_yields_a_valid_scenario() {
        for seed in 0..200u64 {
            let sc = Scenario::generate(seed);
            let g = sc.build_graph();
            assert!(g.vertex_count() >= 2, "seed {seed}: degenerate graph");
            assert!(g.is_connected(), "seed {seed}: disconnected graph");
            sc.faults
                .validate(g.vertex_count())
                .unwrap_or_else(|e| panic!("seed {seed}: invalid plan: {e}"));
            assert!(sc.requested_n <= MAX_N.max(gen::FAMILIES.len()));
        }
    }

    #[test]
    fn the_scenario_space_actually_varies() {
        let scenarios: Vec<Scenario> = (0..120).map(Scenario::generate).collect();
        let families: std::collections::HashSet<_> = scenarios.iter().map(|s| s.family).collect();
        assert!(families.len() >= 8, "family dimension collapsed");
        assert!(scenarios.iter().any(|s| s.faulty()));
        assert!(scenarios.iter().any(|s| !s.faulty()));
        assert!(scenarios.iter().any(|s| s.kernel == Kernel::Fast));
        assert!(scenarios.iter().any(|s| s.kernel == Kernel::Reference));
        assert!(scenarios
            .iter()
            .any(|s| s.scheduler == Scheduler::LevelSync));
        assert!(scenarios
            .iter()
            .any(|s| s.scheduler == Scheduler::Sequential));
        assert!(scenarios.iter().any(|s| s.certify));
        assert!(scenarios.iter().any(|s| !s.certify));
        assert!(scenarios.iter().any(|s| s.churned()));
        assert!(scenarios.iter().any(|s| !s.faulty() && !s.churned()));
        assert!(
            scenarios.iter().all(|s| !(s.faulty() && s.churned())),
            "churn must only be drawn for fault-free scenarios"
        );
        assert!(scenarios.iter().any(|s| s.reliability.is_some()));
        assert!(scenarios
            .iter()
            .any(|s| s.faulty() && s.reliability.is_none()));
        assert!(scenarios.iter().any(|s| !s.faults.crashes.is_empty()));
        assert!(scenarios.iter().any(|s| !s.faults.link_down.is_empty()));
        assert!(scenarios
            .iter()
            .any(|s| !s.faults.link_overrides.is_empty()));
    }

    #[test]
    fn canary_is_disarmed_by_default() {
        for seed in 0..50u64 {
            assert_eq!(Scenario::generate(seed).faults.canary_skew, 0);
        }
        let mut sc = Scenario::generate(0);
        sc.arm_canary(0xDEAD_BEEF);
        assert_eq!(sc.faults.canary_skew, 0xDEAD_BEEF);
    }
}
