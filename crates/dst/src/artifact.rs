//! Canonical artifacts: sorted-key JSON rendering and result digests.
//!
//! [`Json`] is the workspace's one JSON writer: every DST artifact and
//! every `BENCH_*.json` record renders through it. It is hand-rolled (the
//! workspace's `serde` is an offline shim) and **canonical**: object keys
//! come from a `BTreeMap`, so they are always emitted in sorted order,
//! floats are rounded to six significant digits, a container of scalars
//! stays on one line, and rendering the same value twice yields
//! byte-identical text — `diff` on two artifacts means the runs actually
//! differed.

use std::collections::BTreeMap;

use congest_sim::{splitmix64, FaultPlan};
use planar_embedding::{
    degraded_fingerprint, EmbedError, EmbeddingOutcome, Kernel, OutcomeClass, Scheduler,
};

use crate::oracle::{ChurnSummary, RunSummary, ScenarioReport, Violation};
use crate::scenario::Scenario;

/// A JSON value with canonical (sorted-key) rendering.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer.
    U64(u64),
    /// Finite float (rendered at six significant digits).
    F64(f64),
    /// String (escaped on render).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; `BTreeMap` keeps keys sorted, which is what makes the
    /// rendering canonical.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs (keys are sorted on render
    /// regardless of argument order).
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Whether this value renders without line breaks: a scalar or an
    /// empty container.
    fn is_flat(&self) -> bool {
        match self {
            Json::Arr(items) => items.is_empty(),
            Json::Obj(map) => map.is_empty(),
            _ => true,
        }
    }

    /// Renders the canonical pretty form (2-space indent, sorted keys; a
    /// container of flat members stays on one line; trailing newline at
    /// the top level is the caller's choice).
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, 0);
        s
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => out.push_str(&n.to_string()),
            Json::F64(f) => {
                debug_assert!(f.is_finite(), "canonical JSON holds finite floats only");
                out.push_str(&round_sig6(*f).to_string());
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_members(out, indent, ['[', ']'], items.iter().map(|v| (None, v)))
            }
            Json::Obj(map) => write_members(
                out,
                indent,
                ['{', '}'],
                map.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// Rounds to six significant digits, so timings and ratios print at a
/// fixed precision while short decimals (fault rates k/1000) survive
/// unchanged.
fn round_sig6(f: f64) -> f64 {
    format!("{f:.5e}")
        .parse()
        .expect("scientific notation parses")
}

/// Writes container members: all on one line when every member is flat,
/// else one member per line at `indent + 1`.
fn write_members<'a>(
    out: &mut String,
    indent: usize,
    [open, close]: [char; 2],
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
) {
    let flat = members.clone().all(|(_, v)| v.is_flat());
    out.push(open);
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            out.push_str(if flat { ", " } else { "," });
        }
        if !flat {
            out.push('\n');
            push_indent(out, indent + 1);
        }
        if let Some(key) = key {
            write_escaped(out, key);
            out.push_str(": ");
        }
        value.write(out, indent + 1);
    }
    if !flat {
        out.push('\n');
        push_indent(out, indent);
    }
    out.push(close);
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::U64(n as u64)
    }
}

impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::F64(f)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.into())
    }
}

impl std::ops::Index<&str> for Json {
    type Output = Json;

    /// The member `key` of an object; `Null` for a missing key or a
    /// non-object.
    fn index(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map.get(key).unwrap_or(&Json::Null),
            _ => &Json::Null,
        }
    }
}

impl std::ops::Index<usize> for Json {
    type Output = Json;

    /// Element `i` of an array; `Null` out of range or for a non-array.
    fn index(&self, i: usize) -> &Json {
        match self {
            Json::Arr(items) => items.get(i).unwrap_or(&Json::Null),
            _ => &Json::Null,
        }
    }
}

/// Stable names for the kernel dimension in artifacts.
pub fn kernel_code(k: Kernel) -> &'static str {
    match k {
        Kernel::Fast => "fast",
        Kernel::Reference => "reference",
    }
}

/// Stable names for the scheduler dimension in artifacts.
pub fn scheduler_code(s: Scheduler) -> &'static str {
    match s {
        Scheduler::LevelSync => "level-sync",
        Scheduler::Sequential => "sequential",
    }
}

/// Order-sensitive digest of a full run result: folds the terminal class,
/// the complete rotation, the metrics counters, and the certification
/// verdict through splitmix64. Two results with equal digests are
/// *practically* identical; unequal digests are *definitely* different —
/// exactly what artifact-level bit-identity comparison needs.
pub fn outcome_digest(result: &Result<EmbeddingOutcome, EmbedError>) -> u64 {
    let mut h: u64 = 0;
    let mut fold = |x: u64| h = splitmix64(h ^ splitmix64(x));
    match result {
        Ok(out) => {
            fold(1);
            for v in 0..out.rotation.vertex_count() {
                let v = planar_graph::VertexId::from_index(v);
                fold(u64::from(v.0));
                for &w in out.rotation.order_at(v) {
                    fold(u64::from(w.0) + 1);
                }
            }
            let m = &out.metrics;
            for x in [
                m.rounds,
                m.messages,
                m.words,
                m.max_words_edge_round,
                m.dropped,
                m.duplicated,
                m.delayed,
                m.retransmissions,
                m.crashed_nodes,
            ] {
                fold(x as u64);
            }
            match &out.certification {
                Some(cert) => fold(2 + u64::from(cert.accepted())),
                None => fold(4),
            }
        }
        Err(e) => {
            fold(5);
            fold(OutcomeClass::of(result) as u64);
            if let Some((surviving, rounds, verified, cause)) =
                degraded_fingerprint(&Err(e.clone()))
            {
                fold(surviving as u64);
                fold(rounds as u64);
                fold(u64::from(verified));
                for b in cause.bytes() {
                    fold(u64::from(b));
                }
            }
        }
    }
    h
}

fn link_faults_json(f: &congest_sim::LinkFaults) -> Json {
    Json::obj([
        ("drop", Json::F64(f.drop)),
        ("duplicate", Json::F64(f.duplicate)),
        ("delay", Json::F64(f.delay)),
        ("max_delay", f.max_delay.into()),
    ])
}

/// The fault plan as canonical JSON (the whole schedule is reproducible
/// from this plus the kernel, so the artifact alone documents the run).
pub fn fault_plan_json(plan: &FaultPlan) -> Json {
    Json::obj([
        ("seed", Json::U64(plan.seed)),
        ("link", link_faults_json(&plan.link)),
        (
            "link_overrides",
            Json::Arr(
                plan.link_overrides
                    .iter()
                    .map(|((from, to), f)| {
                        Json::obj([
                            ("from", Json::U64(u64::from(from.0))),
                            ("to", Json::U64(u64::from(to.0))),
                            ("faults", link_faults_json(f)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "crashes",
            Json::Arr(
                plan.crashes
                    .iter()
                    .map(|(v, round)| {
                        Json::obj([
                            ("node", Json::U64(u64::from(v.0))),
                            ("round", (*round).into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "link_down",
            Json::Arr(
                plan.link_down
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("from", Json::U64(u64::from(w.from.0))),
                            ("to", Json::U64(u64::from(w.to.0))),
                            ("start", w.start.into()),
                            ("end", w.end.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("canary_skew", Json::U64(plan.canary_skew)),
    ])
}

/// The scenario as canonical JSON.
pub fn scenario_json(sc: &Scenario) -> Json {
    Json::obj([
        ("seed", Json::U64(sc.seed)),
        ("family", Json::Str(sc.family.to_string())),
        ("requested_n", sc.requested_n.into()),
        ("graph_seed", Json::U64(sc.graph_seed)),
        ("faults", fault_plan_json(&sc.faults)),
        (
            "reliability",
            match &sc.reliability {
                Some(r) => Json::obj([
                    ("retransmit_after", r.retransmit_after.into()),
                    ("max_retries", r.max_retries.into()),
                ]),
                None => Json::Null,
            },
        ),
        ("kernel", kernel_code(sc.kernel).into()),
        ("scheduler", scheduler_code(sc.scheduler).into()),
        ("certify", Json::Bool(sc.certify)),
        ("churn_deltas", sc.churn_deltas.into()),
        ("churn_seed", Json::U64(sc.churn_seed)),
    ])
}

fn run_summary_json(run: &RunSummary) -> Json {
    Json::obj([
        ("class", run.class.code().into()),
        ("rounds", run.rounds.into()),
        ("messages", run.messages.into()),
        ("dropped", run.dropped.into()),
        (
            "degraded",
            match run.degraded {
                Some((surviving, rounds, verified, cause)) => Json::obj([
                    ("surviving_nodes", surviving.into()),
                    ("rounds_used", rounds.into()),
                    ("verified", Json::Bool(verified)),
                    ("cause", cause.into()),
                ]),
                None => Json::Null,
            },
        ),
        ("digest", Json::Str(format!("{:016x}", run.digest))),
    ])
}

fn churn_summary_json(c: &ChurnSummary) -> Json {
    Json::obj([
        ("applied", c.applied.into()),
        ("incremental", c.incremental.into()),
        ("tree_preserving", c.tree_preserving.into()),
        ("tree_repairable", c.tree_repairable.into()),
        ("vertex_set", c.vertex_set.into()),
        ("full_fallbacks", c.full_fallbacks.into()),
        ("rejected_nonplanar", c.rejected_nonplanar.into()),
        ("divergences", c.divergences.into()),
    ])
}

fn violation_json(v: &Violation) -> Json {
    Json::obj([
        ("kind", v.kind.code().into()),
        (
            "shadow",
            match v.shadow {
                Some(s) => s.into(),
                None => Json::Null,
            },
        ),
        ("detail", Json::Str(v.detail.clone())),
    ])
}

/// The full per-run artifact (`dst_<seed>.json`): scenario, graph shape,
/// primary and shadow summaries, and every violation.
pub fn report_json(report: &ScenarioReport) -> Json {
    Json::obj([
        ("schema", Json::U64(1)),
        ("scenario", scenario_json(&report.scenario)),
        ("n", report.n.into()),
        ("edges", report.edges.into()),
        ("primary", run_summary_json(&report.primary)),
        (
            "shadows",
            Json::Arr(
                report
                    .shadows
                    .iter()
                    .map(|(label, run)| {
                        let mut o = match run_summary_json(run) {
                            Json::Obj(o) => o,
                            _ => unreachable!(),
                        };
                        o.insert("shadow".into(), Json::Str((*label).into()));
                        Json::Obj(o)
                    })
                    .collect(),
            ),
        ),
        (
            "churn",
            match &report.churn {
                Some(c) => churn_summary_json(c),
                None => Json::Null,
            },
        ),
        (
            "violations",
            Json::Arr(report.violations.iter().map(violation_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_keys_render_sorted_regardless_of_insertion_order() {
        let a = Json::obj([("zulu", Json::U64(1)), ("alpha", Json::U64(2))]);
        let b = Json::obj([("alpha", Json::U64(2)), ("zulu", Json::U64(1))]);
        assert_eq!(a.render(), b.render());
        let text = a.render();
        assert!(text.find("\"alpha\"").unwrap() < text.find("\"zulu\"").unwrap());
    }

    #[test]
    fn rendering_is_deterministic_and_escapes_strings() {
        let v = Json::obj([
            ("s", Json::Str("a\"b\\c\nd\u{1}".into())),
            ("arr", Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::obj([])),
            ("f", Json::F64(0.05)),
        ]);
        let text = v.render();
        assert_eq!(text, v.render());
        assert!(text.contains("\\\"b\\\\c\\nd\\u0001"));
        assert!(text.contains("0.05"));
        assert!(text.contains("[]"));
        assert!(text.contains("{}"));
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
    }

    #[test]
    fn flat_containers_render_on_one_line() {
        let row = Json::obj([
            ("n", 64usize.into()),
            ("family", "grid".into()),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(row.render(), r#"{"empty": [], "family": "grid", "n": 64}"#);
        let arr = Json::Arr(vec!["setup".into(), 0usize.into(), true.into()]);
        assert_eq!(arr.render(), r#"["setup", 0, true]"#);
    }

    #[test]
    fn nested_containers_render_one_member_per_line() {
        let doc = Json::obj([
            ("cells", Json::Arr(vec![Json::obj([("n", 1usize.into())])])),
            ("metric", "m".into()),
        ]);
        let expect = "{\n  \"cells\": [\n    {\"n\": 1}\n  ],\n  \"metric\": \"m\"\n}";
        assert_eq!(doc.render(), expect);
        assert_eq!(doc["cells"][0]["n"], Json::U64(1));
        assert_eq!(doc["missing"][3], Json::Null);
    }

    #[test]
    fn floats_render_at_six_significant_digits() {
        let render = |f: f64| Json::F64(f).render();
        assert_eq!(render(0.000333668123), "0.000333668");
        assert_eq!(render(2.4503817), "2.45038");
        assert_eq!(render(0.05), "0.05");
    }

    #[test]
    fn digest_separates_different_results() {
        use planar_embedding::{embed_distributed, EmbedderConfig};
        let small = planar_lib::gen::grid(3, 3);
        let large = planar_lib::gen::grid(4, 4);
        let cfg = EmbedderConfig::default();
        let a = embed_distributed(&small, &cfg);
        let b = embed_distributed(&large, &cfg);
        assert_ne!(outcome_digest(&a), outcome_digest(&b));
        assert_eq!(outcome_digest(&a), outcome_digest(&a));
    }

    #[test]
    fn scenario_artifact_round_trips_canonically() {
        let sc = crate::scenario::Scenario::generate(7);
        let a = scenario_json(&sc).render();
        let b = scenario_json(&crate::scenario::Scenario::generate(7)).render();
        assert_eq!(a, b);
        assert!(a.contains("\"seed\": 7"));
    }
}
