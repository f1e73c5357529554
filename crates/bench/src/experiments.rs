//! The experiment implementations (see crate docs and DESIGN.md §4).
//!
//! Every function is deterministic (fixed seeds) and returns typed rows so
//! the harness and the integration tests see the same data. Each row type
//! lists its fields once ([`Row::fields`]); [`paper`] runs every
//! experiment and [`paper_record`] assembles `BENCH_paper.json`. No row
//! carries a wall time, so the record is deterministic: regenerating it
//! and diffing against the committed file is an exact gate on the
//! simulated round counts.
//!
//! Each sweep is a cross product of independent trials (family × size,
//! aspect ratio, budget, …); the trial list is fanned out through
//! [`crate::parallel::par_map`], which returns rows in input order, so the
//! tables are byte-identical to a sequential run (asserted by
//! `tests/parallel_determinism.rs`).

use crate::parallel::par_map;
use crate::record::{self, Fields, Json, Row};
use congest_sim::{Phase, PhaseRounds, SimConfig};
use planar_embedding::interface::{achievable_boundary_orders, InterfaceSummary};
use planar_embedding::ruling::{is_valid_ruling_set, peel_orientation, ruling_edge_set};
use planar_embedding::symmetry::symmetry_break;
use planar_embedding::{embed_baseline, embed_distributed, EmbedderConfig};
use planar_graph::traversal::diameter_exact;
use planar_graph::{Graph, VertexId};
use planar_lib::gen;

/// The workload families used across experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Square grid (`D ~ 2 sqrt(n)`).
    Grid,
    /// Grid with diagonals (denser, biconnected).
    TriGrid,
    /// Fan: hub + path (outerplanar, `D = 2`).
    Fan,
    /// Random maximal outerplanar graph.
    Outerplanar,
    /// Random connected planar graph with `m ~ 2n`.
    RandomPlanar,
    /// Random tree.
    Tree,
    /// Subdivided `K_4` (the lower-bound instance).
    K4Subdivided,
}

impl Family {
    /// All families of the T1 sweep.
    pub const ALL: [Family; 7] = [
        Family::Grid,
        Family::TriGrid,
        Family::Fan,
        Family::Outerplanar,
        Family::RandomPlanar,
        Family::Tree,
        Family::K4Subdivided,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Grid => "grid",
            Family::TriGrid => "tri-grid",
            Family::Fan => "fan",
            Family::Outerplanar => "outerplanar",
            Family::RandomPlanar => "random-planar",
            Family::Tree => "tree",
            Family::K4Subdivided => "k4-subdiv",
        }
    }

    /// Instantiates the family at (approximately) `n` vertices.
    pub fn instantiate(self, n: usize, seed: u64) -> Graph {
        match self {
            Family::Grid => {
                let side = (n as f64).sqrt().round() as usize;
                gen::grid(side.max(2), side.max(2))
            }
            Family::TriGrid => {
                let side = (n as f64).sqrt().round() as usize;
                gen::triangulated_grid(side.max(2), side.max(2))
            }
            Family::Fan => gen::fan(n.max(3)),
            Family::Outerplanar => gen::random_outerplanar(n.max(3), seed),
            Family::RandomPlanar => gen::random_planar(n.max(4), 2 * n, seed),
            Family::Tree => gen::random_tree(n.max(2), seed),
            Family::K4Subdivided => gen::k4_subdivided((n.saturating_sub(4) / 6).max(1) + 1),
        }
    }
}

fn fast_config() -> EmbedderConfig {
    EmbedderConfig {
        sim: SimConfig::default(),
        check_invariants: false,
        ..EmbedderConfig::default()
    }
}

/// The `family × size` trial list shared by the sweep experiments, in the
/// deterministic order the result tables are rendered in.
fn family_size_trials(sizes: &[usize]) -> Vec<(Family, usize)> {
    Family::ALL
        .into_iter()
        .flat_map(|f| sizes.iter().map(move |&n| (f, n)))
        .collect()
}

/// One cell of the `family × size` sweep: a single embedding run that
/// feeds T1 (Theorem 1.1 scaling), T3 (Lemmas 4.2/4.3 structure) and T6
/// (the CONGEST audit), plus the per-phase round profile.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRow {
    /// Workload family.
    pub family: &'static str,
    /// Actual vertex count.
    pub n: usize,
    /// Exact diameter.
    pub d: u32,
    /// Recursion depth reached.
    pub depth: usize,
    /// Rounds of the distributed algorithm (Theorem 1.1).
    pub ours_rounds: usize,
    /// Rounds of the trivial gather baseline (footnote 2).
    pub baseline_rounds: usize,
    /// `ours / (D * min(log2 n, D))` — should be a family-dependent constant.
    pub normalized: f64,
    /// The bound `log_{3/2} n` of Lemma 4.3.
    pub depth_bound: f64,
    /// Largest `|P_i| / |T_s|` (Lemma 4.2: `<= 2/3`).
    pub max_child_ratio: f64,
    /// Largest number of parts at any restricted merge (bounded `O(D)`).
    pub max_final_parts: usize,
    /// The configured per-edge word budget.
    pub budget_words: usize,
    /// Max words observed on any directed edge in any round.
    pub max_words_edge_round: usize,
    /// Total messages.
    pub messages: usize,
    /// Total bits (`words * ceil(log2 n)`).
    pub bits: usize,
    /// Whether the CONGEST discipline held throughout.
    pub within_budget: bool,
    /// Kernel rounds tallied sequentially across phases.
    pub sequential_rounds: usize,
    /// Per-phase attribution of `sequential_rounds` (sums to it exactly).
    pub phases: PhaseRounds,
}

impl Row for SweepRow {
    fn fields(&self) -> Fields {
        let phases = Phase::ALL.map(|p| (p.name(), self.phases.bucket(p).into()));
        vec![
            ("family", self.family.into()),
            ("n", self.n.into()),
            ("d", Json::U64(self.d.into())),
            ("depth", self.depth.into()),
            ("ours_rounds", self.ours_rounds.into()),
            ("baseline_rounds", self.baseline_rounds.into()),
            ("normalized", self.normalized.into()),
            ("depth_bound", self.depth_bound.into()),
            ("max_child_ratio", self.max_child_ratio.into()),
            ("max_final_parts", self.max_final_parts.into()),
            ("budget_words", self.budget_words.into()),
            ("max_words_edge_round", self.max_words_edge_round.into()),
            ("messages", self.messages.into()),
            ("bits", self.bits.into()),
            ("within_budget", self.within_budget.into()),
            ("sequential_rounds", self.sequential_rounds.into()),
            ("phases", Json::obj(phases)),
        ]
    }
}

/// One sweep trial (used by both the parallel sweep and the determinism
/// test).
pub fn sweep_trial(family: Family, n: usize) -> SweepRow {
    let g = family.instantiate(n, 42);
    let d = diameter_exact(&g).expect("connected instance");
    let ours = embed_distributed(&g, &fast_config()).expect("planar instance");
    let base = embed_baseline(&g, &SimConfig::default()).expect("planar instance");
    let nn = g.vertex_count() as f64;
    let denom = (d as f64).max(1.0) * nn.log2().min(d as f64).max(1.0);
    let budget = SimConfig::default().budget_words;
    SweepRow {
        family: family.name(),
        n: g.vertex_count(),
        d,
        depth: ours.stats.depth,
        ours_rounds: ours.metrics.rounds,
        baseline_rounds: base.metrics.rounds,
        normalized: ours.metrics.rounds as f64 / denom,
        depth_bound: nn.ln() / 1.5f64.ln(),
        max_child_ratio: ours.stats.max_child_ratio(),
        max_final_parts: ours.stats.max_final_parts(),
        budget_words: budget,
        max_words_edge_round: ours.metrics.max_words_edge_round,
        messages: ours.metrics.messages,
        bits: ours.metrics.bits(g.vertex_count()),
        within_budget: ours.metrics.max_words_edge_round <= budget,
        sequential_rounds: ours.stats.sequential_rounds,
        phases: ours.stats.phase_rounds,
    }
}

/// T1/T3/T6 — the `family × size` sweep: one embedding per cell.
pub fn sweep(sizes: &[usize]) -> Vec<SweepRow> {
    par_map(family_size_trials(sizes), |(family, n)| {
        sweep_trial(family, n)
    })
}

/// One row of the T2 diameter-sweep table.
#[derive(Clone, Debug, PartialEq)]
pub struct T2Row {
    /// Instance description.
    pub instance: String,
    /// Vertex count.
    pub n: usize,
    /// Exact diameter.
    pub d: u32,
    /// Rounds of the distributed algorithm.
    pub ours_rounds: usize,
    /// Rounds of the trivial baseline.
    pub baseline_rounds: usize,
    /// `ours / D` — should grow like `min(log n, D)`, i.e. stay ~flat
    /// within the sweep once `D >= log n`.
    pub rounds_per_d: f64,
}

impl Row for T2Row {
    fn fields(&self) -> Fields {
        vec![
            ("instance", self.instance.as_str().into()),
            ("n", self.n.into()),
            ("d", Json::U64(self.d.into())),
            ("ours_rounds", self.ours_rounds.into()),
            ("baseline_rounds", self.baseline_rounds.into()),
            ("rounds_per_d", self.rounds_per_d.into()),
        ]
    }
}

/// T2 — round growth in `D` at (near-)fixed `n`: grids of fixed area and
/// varying aspect ratio (the subdivided-`K_4` diameter sweep is T5).
pub fn t2_diameter(area: usize) -> Vec<T2Row> {
    let mut rc = Vec::new();
    let mut r = (area as f64).sqrt().round() as usize;
    while r >= 4 {
        rc.push((r, area / r));
        r /= 2;
    }
    par_map(rc, |(r, c)| {
        let g = gen::grid(r, c);
        let d = diameter_exact(&g).expect("grid connected");
        let ours = embed_distributed(&g, &fast_config()).expect("grid planar");
        let base = embed_baseline(&g, &SimConfig::default()).expect("grid planar");
        T2Row {
            instance: format!("grid {r}x{c}"),
            n: g.vertex_count(),
            d,
            ours_rounds: ours.metrics.rounds,
            baseline_rounds: base.metrics.rounds,
            rounds_per_d: ours.metrics.rounds as f64 / d as f64,
        }
    })
}

/// One row of the T4 symmetry-breaking table (Lemma 5.3).
#[derive(Clone, Debug, PartialEq)]
pub struct T4Row {
    /// Vertex count of the outerplanar instance.
    pub n: usize,
    /// Kernel rounds (the lemma: O(1); our construction: exactly 5).
    pub rounds: usize,
    /// Number of stars produced.
    pub stars: usize,
    /// Fraction of nodes in stars or 2-chains (merge progress).
    pub merged_fraction: f64,
    /// Number of long (>= 3) monotone paths set aside.
    pub long_paths: usize,
    /// Kernel rounds of the distributed peeling orientation (threshold 2)
    /// the ruling set runs over; grows with `n`.
    pub orientation_rounds: usize,
    /// Kernel rounds of the log* ruling edge set itself (constant in `n`).
    pub ruling_rounds: usize,
    /// Edges in the ruling set (a maximal matching).
    pub matching_size: usize,
    /// Whether the ruling set passes [`is_valid_ruling_set`].
    pub is_valid_ruling_set: bool,
}

impl Row for T4Row {
    fn fields(&self) -> Fields {
        vec![
            ("n", self.n.into()),
            ("rounds", self.rounds.into()),
            ("stars", self.stars.into()),
            ("merged_fraction", self.merged_fraction.into()),
            ("long_paths", self.long_paths.into()),
            ("orientation_rounds", self.orientation_rounds.into()),
            ("ruling_rounds", self.ruling_rounds.into()),
            ("matching_size", self.matching_size.into()),
            ("is_valid_ruling_set", self.is_valid_ruling_set.into()),
        ]
    }
}

/// T4 — Lemma 5.3 on random maximal outerplanar graphs with greedy proper
/// colorings, plus its log* extension (a ruling edge set over a peeling
/// orientation) on the same graphs.
pub fn t4_symmetry(sizes: &[usize]) -> Vec<T4Row> {
    par_map(sizes.to_vec(), |n| {
        let g = gen::random_outerplanar(n, 11);
        let colors = greedy_coloring(&g);
        let sim = SimConfig::default();
        let out = symmetry_break(&g, &colors, &sim)
            .expect("symmetry breaking never fails on valid input");
        let (orientation, peel) =
            peel_orientation(&g, 2, &sim).expect("outerplanar graphs peel at threshold 2");
        let ruling = ruling_edge_set(&g, &orientation, &sim)
            .expect("ruling set never fails on a covering orientation");
        let merged: usize = out.stars().map(|(_, l)| l.len() + 1).sum::<usize>()
            + out
                .chains()
                .filter(|c| c.len() == 2)
                .map(|_| 2)
                .sum::<usize>();
        T4Row {
            n,
            rounds: out.rounds,
            stars: out.stars().count(),
            merged_fraction: merged as f64 / n as f64,
            long_paths: out.chains().filter(|c| c.len() >= 3).count(),
            orientation_rounds: peel.rounds,
            ruling_rounds: ruling.metrics.rounds,
            matching_size: ruling.edges.len(),
            is_valid_ruling_set: is_valid_ruling_set(&g, &ruling.edges),
        }
    })
}

/// Greedy proper coloring by ascending vertex id.
pub fn greedy_coloring(g: &Graph) -> Vec<u32> {
    let mut colors = vec![u32::MAX; g.vertex_count()];
    for v in g.vertices() {
        let used: Vec<u32> = g
            .neighbors(v)
            .iter()
            .filter(|w| w.index() < v.index())
            .map(|w| colors[w.index()])
            .collect();
        colors[v.index()] = (0..).find(|c| !used.contains(c)).expect("finite colors");
    }
    colors
}

/// One row of the T5 lower-bound table (footnote 1).
#[derive(Clone, Debug, PartialEq)]
pub struct T5Row {
    /// Subdivision length `L` (each `K_4` edge becomes an `L`-edge path).
    pub len: usize,
    /// Vertex count.
    pub n: usize,
    /// Exact diameter.
    pub d: u32,
    /// Rounds of the distributed algorithm.
    pub ours_rounds: usize,
    /// `rounds >= D` (the trivial lower bound must be respected).
    pub at_least_d: bool,
    /// The output is a genus-0 embedding — the global consistency the
    /// lower-bound argument is about.
    pub consistent: bool,
}

impl Row for T5Row {
    fn fields(&self) -> Fields {
        vec![
            ("len", self.len.into()),
            ("n", self.n.into()),
            ("d", Json::U64(self.d.into())),
            ("ours_rounds", self.ours_rounds.into()),
            ("at_least_d", self.at_least_d.into()),
            ("consistent", self.consistent.into()),
        ]
    }
}

/// T5 — the `Omega(D)` instance: subdivided `K_4` with growing `L`.
pub fn t5_lower_bound(lens: &[usize]) -> Vec<T5Row> {
    par_map(lens.to_vec(), |len| {
        let g = gen::k4_subdivided(len);
        let d = diameter_exact(&g).expect("connected");
        let out = embed_distributed(&g, &fast_config()).expect("planar");
        T5Row {
            len,
            n: g.vertex_count(),
            d,
            ours_rounds: out.metrics.rounds,
            at_least_d: out.metrics.rounds >= d as usize,
            consistent: out.rotation.is_planar_embedding(),
        }
    })
}

/// One row of the F-obs32 interface-characterization experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct FobsRow {
    /// Instance description.
    pub instance: &'static str,
    /// Number of achievable boundary orders (brute-forced over all rotation
    /// systems).
    pub achievable_orders: usize,
    /// Number predicted by the Observation 3.2 characterization.
    pub predicted_orders: usize,
    /// Number of blocks in the interface summary.
    pub summary_blocks: usize,
    /// Summary size in words.
    pub summary_words: usize,
    /// Whether prediction matches the brute force exactly.
    pub matches: bool,
}

impl Row for FobsRow {
    fn fields(&self) -> Fields {
        vec![
            ("instance", self.instance.into()),
            ("achievable_orders", self.achievable_orders.into()),
            ("predicted_orders", self.predicted_orders.into()),
            ("summary_blocks", self.summary_blocks.into()),
            ("summary_words", self.summary_words.into()),
            ("matches", self.matches.into()),
        ]
    }
}

/// One F-obs32 catalog entry: (name, edges, half-edge attachments,
/// predicted #orders up to rotation+reflection).
type FobsCase = (&'static str, Vec<(u32, u32)>, Vec<u32>, usize);

/// F-obs32 — exhaustive validation of Observation 3.2 on a catalog of small
/// parts (the checkable content of Figures 2–4).
pub fn fobs_interface() -> Vec<FobsRow> {
    // Predictions derived from the characterization: per-block orders fixed
    // up to flip; free permutation around cut vertices; bundles consecutive.
    let catalog: Vec<FobsCase> = vec![
        (
            "triangle, 3 half-edges",
            vec![(0, 1), (1, 2), (2, 0)],
            vec![0, 1, 2],
            1,
        ),
        ("path, 2 half-edges", vec![(0, 1), (1, 2)], vec![0, 2], 1),
        (
            "bowtie, 4 half-edges",
            vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)],
            vec![0, 1, 3, 4],
            2,
        ),
        (
            "4 pendants at a cut vertex",
            vec![(4, 0), (4, 1), (4, 2), (4, 3)],
            vec![0, 1, 2, 3],
            3,
        ),
        (
            "square block, 4 half-edges",
            vec![(0, 1), (1, 2), (2, 3), (3, 0)],
            vec![0, 1, 2, 3],
            1,
        ),
        (
            "triangle + pendant",
            vec![(0, 1), (1, 2), (2, 0), (2, 3)],
            vec![0, 1, 3],
            1,
        ),
    ];
    let mut rows = Vec::new();
    for (name, edges, atts, predicted) in catalog {
        let n = edges.iter().flat_map(|&(a, b)| [a, b]).max().unwrap() as usize + 1;
        let g = Graph::from_edges(n, edges).expect("catalog edges valid");
        let half: Vec<(VertexId, u32)> = atts
            .iter()
            .enumerate()
            .map(|(i, &a)| (VertexId(a), i as u32))
            .collect();
        let orders = achievable_boundary_orders(&g, &half);
        let relevant: Vec<VertexId> = atts.iter().map(|&a| VertexId(a)).collect();
        let summary = InterfaceSummary::compute(&g, &relevant).expect("catalog parts planar");
        rows.push(FobsRow {
            instance: name,
            achievable_orders: orders.len(),
            predicted_orders: predicted,
            summary_blocks: summary.blocks.len(),
            summary_words: summary.words(),
            matches: orders.len() == predicted,
        });
    }
    rows
}

/// One row of the F-safe experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct FsafeRow {
    /// Workload family.
    pub family: &'static str,
    /// Vertex count.
    pub n: usize,
    /// Whether the run (with full invariant checking: safety of every
    /// partition, co-facial boundaries of every merged part) succeeded.
    pub all_invariants_held: bool,
    /// Number of merges performed (each one re-verified Definition 3.1's
    /// consequence).
    pub merges_checked: usize,
}

impl Row for FsafeRow {
    fn fields(&self) -> Fields {
        vec![
            ("family", self.family.into()),
            ("n", self.n.into()),
            ("all_invariants_held", self.all_invariants_held.into()),
            ("merges_checked", self.merges_checked.into()),
        ]
    }
}

/// F-safe — runs the embedder with full invariant checking (Definition 3.1
/// at every partition, pinned-embedding feasibility at every merge).
pub fn fsafe(sizes: &[usize]) -> Vec<FsafeRow> {
    let cfg = EmbedderConfig {
        sim: SimConfig::default(),
        check_invariants: true,
        ..EmbedderConfig::default()
    };
    par_map(family_size_trials(sizes), move |(family, n)| {
        let g = family.instantiate(n, 5);
        match embed_distributed(&g, &cfg) {
            Ok(o) => FsafeRow {
                family: family.name(),
                n: g.vertex_count(),
                all_invariants_held: true,
                merges_checked: o.stats.merges.len(),
            },
            Err(_) => FsafeRow {
                family: family.name(),
                n: g.vertex_count(),
                all_invariants_held: false,
                merges_checked: 0,
            },
        }
    })
}

/// One row of the budget-ablation experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct AblateRow {
    /// Workload family.
    pub family: &'static str,
    /// Vertex count.
    pub n: usize,
    /// Per-edge budget in words (message size = budget * ceil(log2 n) bits).
    pub budget_words: usize,
    /// Rounds of the distributed algorithm under that budget.
    pub ours_rounds: usize,
    /// Rounds of the trivial baseline under that budget.
    pub baseline_rounds: usize,
}

impl Row for AblateRow {
    fn fields(&self) -> Fields {
        vec![
            ("family", self.family.into()),
            ("n", self.n.into()),
            ("budget_words", self.budget_words.into()),
            ("ours_rounds", self.ours_rounds.into()),
            ("baseline_rounds", self.baseline_rounds.into()),
        ]
    }
}

/// Ablation: how the per-edge word budget `B` (the constant inside the
/// model's `O(log n)` bits) trades against rounds. The baseline moves
/// `Theta(n)` words through the root and so improves ~linearly with `B`;
/// the distributed algorithm's merge traffic is summary-sized, so it
/// saturates quickly — evidence that the algorithm, not bandwidth, is
/// doing the work.
pub fn ablate_budget(n: usize) -> Vec<AblateRow> {
    let trials: Vec<(Family, usize)> = [Family::Grid, Family::Fan, Family::Outerplanar]
        .into_iter()
        .flat_map(|f| [4usize, 8, 16, 32].into_iter().map(move |b| (f, b)))
        .collect();
    par_map(trials, move |(family, budget)| {
        let g = family.instantiate(n, 21);
        let sim = SimConfig {
            budget_words: budget,
            ..Default::default()
        };
        let cfg = EmbedderConfig {
            sim: sim.clone(),
            check_invariants: false,
            ..EmbedderConfig::default()
        };
        let ours = embed_distributed(&g, &cfg).expect("planar instance");
        let base = embed_baseline(&g, &sim).expect("planar instance");
        AblateRow {
            family: family.name(),
            n: g.vertex_count(),
            budget_words: budget,
            ours_rounds: ours.metrics.rounds,
            baseline_rounds: base.metrics.rounds,
        }
    })
}

/// One section of the paper record: its record key, its harness heading,
/// and its rows, both as the record array and as the rendered table.
pub struct Section {
    /// Key of the section in `BENCH_paper.json`.
    pub key: &'static str,
    /// Heading printed above the harness table.
    pub title: &'static str,
    /// The rows as a record array.
    pub rows: Json,
    /// The rows as a harness table.
    pub table: String,
}

impl Section {
    fn new<R: Row>(key: &'static str, title: &'static str, rows: &[R]) -> Section {
        Section {
            key,
            title,
            rows: record::array(rows),
            table: record::table(rows),
        }
    }
}

/// Runs every paper experiment, in harness display order. `large`
/// extends the sweeps to larger instances (minutes instead of seconds).
pub fn paper(large: bool) -> Vec<Section> {
    let sizes: &[usize] = if large {
        &[64, 256, 1024, 4096, 16384]
    } else {
        &[64, 256, 1024]
    };
    let t4_sizes: &[usize] = if large {
        &[16, 64, 256, 1024, 4096, 16384]
    } else {
        &[16, 64, 256, 1024]
    };
    let t5_lens: &[usize] = if large {
        &[4, 8, 16, 32, 64, 128]
    } else {
        &[4, 8, 16, 32]
    };
    let fsafe_sizes: &[usize] = if large { &[64, 256] } else { &[48, 96] };
    vec![
        Section::new(
            "t1",
            "T1/T3/T6: Theorem 1.1 scaling, Lemmas 4.2/4.3 structure, CONGEST audit",
            &sweep(sizes),
        ),
        Section::new(
            "t2",
            "T2: rounds vs D at fixed n (grid aspect sweep)",
            &t2_diameter(if large { 16384 } else { 4096 }),
        ),
        Section::new(
            "t4",
            "T4: Lemma 5.3 symmetry breaking and its log* ruling edge set (outerplanar)",
            &t4_symmetry(t4_sizes),
        ),
        Section::new(
            "t5",
            "T5: Omega(D) lower-bound instance (subdivided K4)",
            &t5_lower_bound(t5_lens),
        ),
        Section::new(
            "fobs",
            "F-obs32: Observation 3.2 interface characterization",
            &fobs_interface(),
        ),
        Section::new(
            "fsafe",
            "F-safe: Definition 3.1 safety, full invariant checking",
            &fsafe(fsafe_sizes),
        ),
        Section::new(
            "ablate",
            "Ablation: per-edge word budget B vs rounds",
            &ablate_budget(if large { 1024 } else { 256 }),
        ),
    ]
}

/// The `BENCH_paper.json` document: one key per section.
pub fn paper_record(sections: &[Section]) -> Json {
    let header = [
        ("benchmark", "paper".into()),
        (
            "metric",
            "simulated CONGEST rounds, messages and structural statistics of the \
             paper's experiments; no wall time, so the record is deterministic and \
             any change to it is a change in behaviour"
                .into(),
        ),
    ];
    Json::obj(
        header
            .into_iter()
            .chain(sections.iter().map(|s| (s.key, s.rows.clone()))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t1_small_sweep_has_expected_shape() {
        let rows = sweep(&[64]);
        assert_eq!(rows.len(), Family::ALL.len());
        for r in &rows {
            assert!(r.ours_rounds > 0);
            assert!(r.normalized > 0.0);
        }
    }

    #[test]
    fn t4_rounds_are_constant() {
        let rows = t4_symmetry(&[16, 64, 256]);
        for r in &rows {
            assert_eq!(r.rounds, 5);
            assert!(r.merged_fraction > 0.0);
            assert!(r.is_valid_ruling_set, "{r:?}");
            assert_eq!(r.ruling_rounds, rows[0].ruling_rounds, "{r:?}");
        }
    }

    #[test]
    fn t5_lower_bound_respected() {
        for r in t5_lower_bound(&[4, 8]) {
            assert!(r.at_least_d);
            assert!(r.consistent);
        }
    }

    #[test]
    fn t6_budget_never_violated() {
        for r in sweep(&[48]) {
            assert!(r.within_budget, "{:?}", r);
        }
    }

    /// The record's phase profile is the sequential tally's exact
    /// attribution (`stats.phase_rounds`), not the parallel-composed upper
    /// bound in `metrics.phase_rounds`.
    #[test]
    fn sweep_phases_sum_to_sequential_rounds() {
        for r in sweep(&[48, 96]) {
            let phases = &record::array(std::slice::from_ref(&r))[0]["phases"];
            let Json::Obj(phases) = phases else {
                panic!("phases is not an object: {phases:?}");
            };
            let sum: u64 = phases
                .values()
                .map(|v| match v {
                    Json::U64(n) => *n,
                    other => panic!("non-integer phase count {other:?}"),
                })
                .sum();
            assert_eq!(phases.len(), Phase::ALL.len(), "{r:?}");
            assert_eq!(sum, r.sequential_rounds as u64, "{r:?}");
        }
    }

    #[test]
    fn fobs_matches_predictions() {
        for r in fobs_interface() {
            assert!(r.matches, "{:?}", r);
        }
    }

    #[test]
    fn fsafe_small() {
        for r in fsafe(&[32]) {
            assert!(r.all_invariants_held, "{:?}", r);
            assert!(r.merges_checked > 0 || r.n <= 2);
        }
    }

    #[test]
    fn family_instantiation_is_planar_connected() {
        for f in Family::ALL {
            let g = f.instantiate(60, 1);
            assert!(g.is_connected(), "{}", f.name());
            assert!(planar_lib::is_planar(&g), "{}", f.name());
        }
    }
}
