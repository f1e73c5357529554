//! Multi-tenant service soak: the record behind `BENCH_service.json`.
//!
//! The soak admits a fleet of tenant graphs (round-robin over a fixed set
//! of generator families) into one [`ServiceState`] and drives every
//! tenant with a seeded churn stream, the full re-embed oracle armed on
//! every delta ([`OracleMode::Always`]). Each applied delta therefore
//! yields a latency *pair* — the service-side handling (validation, gate,
//! incremental re-embedding) and the full re-embed of the same mutated
//! graph — measured on the same host, same graph, same delta. Per family
//! the sweep reports p50/p99 of both, the p50 speedup, and the path
//! split (incremental by [`DeltaClass`] vs recorded full fallback vs
//! rejection); fleet-wide it reports sustained embeddings/sec (admissions
//! plus applied deltas over service-side wall time, oracle time excluded
//! — the oracle is the checker, not the product), the incremental
//! *coverage* (the fraction of applied deltas the delta planner kept off
//! the full path — the CI gate holds it above a committed baseline), and
//! the per-class incremental dividend.
//!
//! Any incremental-vs-oracle divergence is a bit-identity contract
//! violation: it is counted in the report and the harness exits non-zero
//! (the CI gate).
//!
//! [`ServiceState`]: planar_service::ServiceState
//! [`OracleMode::Always`]: planar_service::OracleMode::Always

use congest_sim::mix_seed;
use planar_lib::gen;
use planar_service::{
    ChurnGen, DeltaClass, DeltaOutcome, OracleMode, ServiceConfig, ServiceState, TenantId,
};

use crate::record::{self, Fields, Json, Kind, Row};

/// Families the fleet cycles through: the deterministic substrates the
/// other sweeps use plus the seeded planar/outerplanar samplers, so both
/// rigid and irregular tenants are resident at once.
pub const FLEET_FAMILIES: &[&str] = &[
    "grid",
    "tri-grid",
    "wheel",
    "fan",
    "random-tree",
    "random-planar",
    "random-outerplanar",
    "random-maximal-planar",
];

/// Soak shape: fleet size, churn depth, per-tenant size, base seed.
#[derive(Clone, Copy, Debug)]
pub struct ServiceBenchOptions {
    /// Concurrent tenant graphs (the `--fleet` flag).
    pub fleet: usize,
    /// Churn deltas applied to every tenant (the `--deltas` flag).
    pub deltas: usize,
    /// Requested vertex count per tenant graph.
    pub tenant_n: usize,
    /// Base seed; tenant graph seeds and churn seeds derive from it.
    pub seed: u64,
}

impl Default for ServiceBenchOptions {
    fn default() -> Self {
        ServiceBenchOptions {
            fleet: 1024,
            deltas: 4,
            tenant_n: 24,
            seed: 7,
        }
    }
}

/// Aggregated soak results for one generator family.
#[derive(Clone, Debug)]
pub struct ServiceFamilyRow {
    /// Family name (from [`FLEET_FAMILIES`]).
    pub family: &'static str,
    /// Tenants of this family in the fleet.
    pub tenants: usize,
    /// Deltas submitted across those tenants.
    pub deltas: usize,
    /// Deltas applied (incremental + full fallbacks).
    pub applied: usize,
    /// Applied via the incremental path.
    pub incremental: usize,
    /// Applied incrementally as `DeltaClass::TreePreserving`.
    pub tree_preserving: usize,
    /// Applied incrementally as `DeltaClass::TreeRepairable`.
    pub tree_repairable: usize,
    /// Applied incrementally as `DeltaClass::VertexSetChange`.
    pub vertex_set: usize,
    /// Applied via a recorded full fallback.
    pub full_fallbacks: usize,
    /// Deltas rejected as planarity-breaking (gate or embedder).
    pub rejected_nonplanar: usize,
    /// p50 service-side latency over ALL applied deltas (the operator's
    /// view: validation + gate + whichever re-embed path ran), µs.
    pub p50_service_us: f64,
    /// p99 service-side latency over all applied deltas, µs.
    pub p99_service_us: f64,
    /// p50 service-side latency over *incremental-path* deltas only, µs.
    pub p50_incremental_us: f64,
    /// p50 full re-embed (oracle) latency over those same
    /// incremental-path deltas, µs — the apples-to-apples cost a
    /// from-scratch re-embed would have paid for them.
    pub p50_full_us: f64,
    /// p99 full re-embed latency over the incremental-path deltas, µs.
    pub p99_full_us: f64,
    /// `p50_full_us / p50_incremental_us` — the incremental dividend
    /// (0 when the family produced no incremental-path deltas).
    pub speedup_p50: f64,
    /// Incremental-vs-oracle divergences (must be 0).
    pub divergences: usize,
}

impl Row for ServiceFamilyRow {
    fn fields(&self) -> Fields {
        vec![
            ("family", self.family.into()),
            ("tenants", self.tenants.into()),
            ("deltas", self.deltas.into()),
            ("applied", self.applied.into()),
            ("incremental", self.incremental.into()),
            ("tree_preserving", self.tree_preserving.into()),
            ("tree_repairable", self.tree_repairable.into()),
            ("vertex_set", self.vertex_set.into()),
            ("full_fallbacks", self.full_fallbacks.into()),
            ("rejected_nonplanar", self.rejected_nonplanar.into()),
            ("p50_service_us", self.p50_service_us.into()),
            ("p99_service_us", self.p99_service_us.into()),
            ("p50_incremental_us", self.p50_incremental_us.into()),
            ("p50_full_us", self.p50_full_us.into()),
            ("p99_full_us", self.p99_full_us.into()),
            ("speedup_p50", self.speedup_p50.into()),
            ("divergences", self.divergences.into()),
        ]
    }

    /// The delta counts are deterministic; latencies are host fields.
    fn kind(name: &str) -> Kind {
        match name {
            "tenants" | "deltas" | "applied" | "incremental" | "tree_preserving"
            | "tree_repairable" | "vertex_set" | "full_fallbacks" | "rejected_nonplanar"
            | "divergences" => Kind::Deterministic,
            _ => Kind::Host,
        }
    }
}

/// Fleet-wide aggregates for one [`DeltaClass`] claiming the incremental
/// path: how often the planner took it and what dividend it paid versus
/// the full re-embed the oracle ran on the very same deltas.
#[derive(Clone, Copy, Debug)]
pub struct ServiceClassRow {
    /// The class.
    pub class: DeltaClass,
    /// Applied deltas executed as this class, fleet-wide.
    pub count: usize,
    /// p50 service-side latency of this class's deltas, µs.
    pub p50_incremental_us: f64,
    /// p50 full re-embed (oracle) latency of those same deltas, µs.
    pub p50_full_us: f64,
    /// `p50_full_us / p50_incremental_us` — the class's incremental
    /// dividend (0 when the class never fired).
    pub speedup_p50: f64,
}

impl Row for ServiceClassRow {
    fn fields(&self) -> Fields {
        vec![
            ("class", self.class.code().into()),
            ("count", self.count.into()),
            ("p50_incremental_us", self.p50_incremental_us.into()),
            ("p50_full_us", self.p50_full_us.into()),
            ("speedup_p50", self.speedup_p50.into()),
        ]
    }

    fn kind(name: &str) -> Kind {
        match name {
            "class" | "count" => Kind::Deterministic,
            _ => Kind::Host,
        }
    }
}

/// The full soak record.
#[derive(Clone, Debug)]
pub struct ServiceBenchReport {
    /// Fleet size actually admitted.
    pub fleet: usize,
    /// Deltas per tenant.
    pub deltas_per_tenant: usize,
    /// Requested per-tenant vertex count.
    pub tenant_n: usize,
    /// Embeddings produced by the service (admissions + applied deltas).
    pub total_embeddings: usize,
    /// Service-side wall time (admissions + delta handling; oracle
    /// re-embeds excluded), seconds.
    pub service_secs: f64,
    /// `total_embeddings / service_secs`.
    pub embeddings_per_sec: f64,
    /// Total incremental-vs-oracle divergences (the CI gate; must be 0).
    pub divergences: usize,
    /// Fraction of *applied* deltas that took the incremental path,
    /// fleet-wide — the coverage the CI gate holds above its committed
    /// baseline.
    pub incremental_coverage: f64,
    /// Per-incremental-class aggregates, in `DeltaClass::ALL` order
    /// (fallback excluded — it is the complement of the coverage).
    pub classes: Vec<ServiceClassRow>,
    /// Per-family aggregates.
    pub rows: Vec<ServiceFamilyRow>,
}

impl ServiceBenchReport {
    /// The headline cell: the family row with the most incremental-path
    /// deltas (the most evidence for the incremental-vs-full
    /// comparison). The harness gates on its speedup.
    pub fn headline(&self) -> Option<&ServiceFamilyRow> {
        self.rows.iter().max_by_key(|r| r.incremental)
    }
}

/// The fleet-wide scalars (the per-class and per-family rows are
/// separate record sections).
impl Row for ServiceBenchReport {
    fn fields(&self) -> Fields {
        vec![
            ("fleet", self.fleet.into()),
            ("deltas_per_tenant", self.deltas_per_tenant.into()),
            ("tenant_n", self.tenant_n.into()),
            ("total_embeddings", self.total_embeddings.into()),
            ("service_secs", self.service_secs.into()),
            ("embeddings_per_sec", self.embeddings_per_sec.into()),
            ("divergences", self.divergences.into()),
            ("incremental_coverage", self.incremental_coverage.into()),
        ]
    }

    fn kind(name: &str) -> Kind {
        match name {
            "service_secs" | "embeddings_per_sec" => Kind::Host,
            _ => Kind::Deterministic,
        }
    }
}

fn percentile(sorted_nanos: &[u128], q: f64) -> f64 {
    if sorted_nanos.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_nanos.len() - 1) as f64 * q).round() as usize;
    sorted_nanos[idx] as f64 / 1_000.0
}

/// Runs the soak: admits `fleet` tenants round-robin over
/// [`FLEET_FAMILIES`], applies `deltas` seeded churn deltas to each with
/// the full re-embed oracle armed, and aggregates latency pairs per
/// family.
///
/// # Panics
///
/// Panics if a tenant admission fails (every fleet graph is planar and
/// connected by construction) or the service reports an internal error.
pub fn service_soak(opts: &ServiceBenchOptions) -> ServiceBenchReport {
    let cfg = ServiceConfig {
        oracle: OracleMode::Always,
        ..ServiceConfig::default()
    };
    let mut svc = ServiceState::new(cfg);

    // Admission: the whole fleet becomes resident before any churn, so
    // the churn phase runs against a fully loaded tenant table.
    let mut tenants: Vec<(TenantId, &'static str, u64)> = Vec::with_capacity(opts.fleet);
    let admission = std::time::Instant::now();
    for i in 0..opts.fleet {
        let name = FLEET_FAMILIES[i % FLEET_FAMILIES.len()];
        let family = gen::family(name).expect("fleet family is registered");
        let graph_seed = mix_seed(opts.seed, &[1, i as u64]);
        let g = (family.build)(opts.tenant_n.max(family.min_n), graph_seed);
        let id = svc
            .create_tenant_labeled(g, Some(name))
            .unwrap_or_else(|e| panic!("admission of {name} tenant {i} failed: {e}"));
        tenants.push((id, name, mix_seed(opts.seed, &[2, i as u64])));
    }
    let admission_secs = admission.elapsed().as_secs_f64();

    for &(id, name, churn_seed) in &tenants {
        let mut churn = ChurnGen::new(churn_seed);
        for step in 0..opts.deltas {
            let delta = churn.next_delta(svc.tenant(id).unwrap().graph());
            svc.apply(id, delta)
                .unwrap_or_else(|e| panic!("{name} tenant, delta {step}: {e}"));
        }
    }

    // Aggregate per family from the tenant delta logs; the per-class
    // latency pairs aggregate fleet-wide (a class's dividend is a
    // property of the planner, not of one substrate).
    let mut rows = Vec::new();
    let mut service_nanos_total: u128 = 0;
    let mut total_applied = 0usize;
    let mut total_incremental = 0usize;
    let incremental_classes = [
        DeltaClass::TreePreserving,
        DeltaClass::TreeRepairable,
        DeltaClass::VertexSetChange,
    ];
    let mut class_incr_ns: Vec<Vec<u128>> = vec![Vec::new(); incremental_classes.len()];
    let mut class_full_ns: Vec<Vec<u128>> = vec![Vec::new(); incremental_classes.len()];
    for &family in FLEET_FAMILIES {
        let mut row = ServiceFamilyRow {
            family,
            tenants: 0,
            deltas: 0,
            applied: 0,
            incremental: 0,
            tree_preserving: 0,
            tree_repairable: 0,
            vertex_set: 0,
            full_fallbacks: 0,
            rejected_nonplanar: 0,
            p50_service_us: 0.0,
            p99_service_us: 0.0,
            p50_incremental_us: 0.0,
            p50_full_us: 0.0,
            p99_full_us: 0.0,
            speedup_p50: 0.0,
            divergences: 0,
        };
        let mut service_ns: Vec<u128> = Vec::new();
        let mut incr_ns: Vec<u128> = Vec::new();
        let mut full_ns: Vec<u128> = Vec::new();
        for (_, tenant) in svc.tenants().filter(|(_, t)| t.label() == Some(family)) {
            row.tenants += 1;
            let stats = tenant.stats();
            row.applied += stats.applied;
            row.incremental += stats.incremental;
            row.tree_preserving += stats.tree_preserving;
            row.tree_repairable += stats.tree_repairable;
            row.vertex_set += stats.vertex_set;
            row.full_fallbacks += stats.full_fallbacks;
            row.rejected_nonplanar += stats.rejected_nonplanar;
            row.divergences += stats.divergences;
            for record in tenant.records() {
                row.deltas += 1;
                service_nanos_total += record.service_nanos;
                if let DeltaOutcome::Applied { report, .. } = &record.outcome {
                    service_ns.push(record.service_nanos);
                    // The incremental dividend compares the incremental
                    // path's latency with the full re-embed the oracle
                    // paid for the very same delta.
                    if report.is_incremental() {
                        incr_ns.push(record.service_nanos);
                        if let Some(full) = record.oracle_nanos {
                            full_ns.push(full);
                        }
                        if let Some(ci) = record
                            .class
                            .and_then(|c| incremental_classes.iter().position(|&k| k == c))
                        {
                            class_incr_ns[ci].push(record.service_nanos);
                            if let Some(full) = record.oracle_nanos {
                                class_full_ns[ci].push(full);
                            }
                        }
                    }
                }
            }
        }
        if row.tenants == 0 {
            continue;
        }
        service_ns.sort_unstable();
        incr_ns.sort_unstable();
        full_ns.sort_unstable();
        row.p50_service_us = percentile(&service_ns, 0.50);
        row.p99_service_us = percentile(&service_ns, 0.99);
        row.p50_incremental_us = percentile(&incr_ns, 0.50);
        row.p50_full_us = percentile(&full_ns, 0.50);
        row.p99_full_us = percentile(&full_ns, 0.99);
        row.speedup_p50 = if row.p50_incremental_us > 0.0 {
            row.p50_full_us / row.p50_incremental_us
        } else {
            0.0
        };
        total_applied += row.applied;
        total_incremental += row.incremental;
        rows.push(row);
    }

    let classes = incremental_classes
        .iter()
        .enumerate()
        .map(|(ci, &class)| {
            class_incr_ns[ci].sort_unstable();
            class_full_ns[ci].sort_unstable();
            let p50_incremental_us = percentile(&class_incr_ns[ci], 0.50);
            let p50_full_us = percentile(&class_full_ns[ci], 0.50);
            ServiceClassRow {
                class,
                count: class_incr_ns[ci].len(),
                p50_incremental_us,
                p50_full_us,
                speedup_p50: if p50_incremental_us > 0.0 {
                    p50_full_us / p50_incremental_us
                } else {
                    0.0
                },
            }
        })
        .collect();

    let service_secs = admission_secs + service_nanos_total as f64 / 1e9;
    let total_embeddings = opts.fleet + total_applied;
    ServiceBenchReport {
        fleet: opts.fleet,
        deltas_per_tenant: opts.deltas,
        tenant_n: opts.tenant_n,
        total_embeddings,
        service_secs,
        embeddings_per_sec: if service_secs > 0.0 {
            total_embeddings as f64 / service_secs
        } else {
            0.0
        },
        divergences: svc.divergences(),
        incremental_coverage: if total_applied > 0 {
            total_incremental as f64 / total_applied as f64
        } else {
            0.0
        },
        classes,
        rows,
    }
}

/// The `BENCH_service.json` document.
pub fn record(report: &ServiceBenchReport) -> Json {
    let metric = "multi-tenant churn soak: service-side delta latency (validation + \
        pre-flight gate + incremental re-embedding) vs full re-embed of the same mutated \
        graph, oracle-checked bit-identical per delta; embeddings/sec over admissions + \
        applied deltas";
    Json::obj(report.fields().into_iter().chain([
        ("benchmark", "service".into()),
        ("metric", metric.into()),
        ("classes", record::array(&report.classes)),
        ("families", record::array(&report.rows)),
    ]))
}

/// Every deterministic field of `report` that differs from the
/// `committed` record, one line per difference; `None` when the committed
/// record is a soak of another shape (fleet, deltas per tenant or tenant
/// size), which has nothing to compare against.
pub fn drift(committed: &Json, report: &ServiceBenchReport) -> Option<Vec<String>> {
    let shape = [
        ("fleet", report.fleet),
        ("deltas_per_tenant", report.deltas_per_tenant),
        ("tenant_n", report.tenant_n),
    ];
    if shape
        .iter()
        .any(|&(k, v)| committed[k].render() != v.to_string())
    {
        return None;
    }
    let diffs = record::drift_fields(committed, "service", report)
        .into_iter()
        .chain(record::drift(committed, "classes", &report.classes))
        .chain(record::drift(committed, "families", &report.rows))
        .collect();
    Some(diffs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_soak_accounts_for_every_delta_and_stays_identical() {
        let opts = ServiceBenchOptions {
            fleet: 8,
            deltas: 2,
            tenant_n: 12,
            seed: 5,
        };
        let report = service_soak(&opts);
        assert_eq!(report.fleet, 8);
        assert_eq!(report.divergences, 0, "incremental diverged from oracle");
        let deltas: usize = report.rows.iter().map(|r| r.deltas).sum();
        assert_eq!(deltas, 8 * 2, "every submitted delta must be recorded");
        let applied: usize = report.rows.iter().map(|r| r.applied).sum();
        let rejected: usize = report.rows.iter().map(|r| r.rejected_nonplanar).sum();
        assert_eq!(applied + rejected, deltas, "churn draws are always valid");
        assert_eq!(report.total_embeddings, 8 + applied);
        assert!(report.embeddings_per_sec > 0.0);
        assert!(report.headline().is_some());
        // Per-class accounting partitions the incremental count, at
        // every level of aggregation.
        let incremental: usize = report.rows.iter().map(|r| r.incremental).sum();
        for r in &report.rows {
            assert_eq!(
                r.tree_preserving + r.tree_repairable + r.vertex_set,
                r.incremental,
                "{}: class counts must partition the incremental count",
                r.family
            );
        }
        let class_total: usize = report.classes.iter().map(|c| c.count).sum();
        assert_eq!(class_total, incremental);
        assert_eq!(report.classes.len(), 3, "one row per incremental class");
        if applied > 0 {
            let expect = incremental as f64 / applied as f64;
            assert!((report.incremental_coverage - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn json_document_carries_every_section() {
        let report = service_soak(&ServiceBenchOptions {
            fleet: 4,
            deltas: 1,
            tenant_n: 12,
            seed: 1,
        });
        let doc = record(&report);
        assert_eq!(doc["benchmark"], Json::Str("service".into()));
        assert_eq!(doc["divergences"], Json::U64(0));
        assert!(matches!(doc["incremental_coverage"], Json::F64(_)));
        assert!(matches!(
            doc["families"][0]["tree_preserving"],
            Json::U64(_)
        ));
        for (i, class) in ["tree-preserving", "tree-repairable", "vertex-set"]
            .into_iter()
            .enumerate()
        {
            assert_eq!(doc["classes"][i]["class"], Json::Str(class.into()));
        }
    }

    /// The drift gate sees a moved class count, family count or coverage,
    /// ignores host fields, and skips a record of another soak shape.
    #[test]
    fn drift_gates_counts_not_timings() {
        let report = service_soak(&ServiceBenchOptions {
            fleet: 8,
            deltas: 2,
            tenant_n: 12,
            seed: 5,
        });
        let committed = |r: &ServiceBenchReport| Json::parse(&record(r).render()).unwrap();
        assert_eq!(drift(&committed(&report), &report), Some(Vec::new()));

        let mut timings = report.clone();
        timings.service_secs *= 2.0;
        timings.classes[0].p50_incremental_us += 1.0;
        timings.rows[0].p99_service_us += 1.0;
        assert_eq!(drift(&committed(&timings), &report), Some(Vec::new()));

        let mut counts = report.clone();
        counts.classes[1].count += 1;
        counts.rows[0].vertex_set += 1;
        counts.incremental_coverage /= 2.0;
        let diffs = drift(&committed(&counts), &report).unwrap();
        assert_eq!(diffs.len(), 3, "{diffs:?}");
        assert!(diffs[1].starts_with("classes class=tree-repairable: count"));

        let mut shape = report.clone();
        shape.fleet += 1;
        assert_eq!(drift(&committed(&shape), &report), None);
    }

    #[test]
    fn fleet_families_are_registered() {
        for name in FLEET_FAMILIES {
            assert!(gen::family(name).is_some(), "unknown fleet family {name}");
        }
    }
}
