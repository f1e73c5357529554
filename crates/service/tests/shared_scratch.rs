//! One execution scratch, many tenants. A [`ServiceState`] lends its one
//! `ExecScratch` (warm simulators plus the merge, partition and routing
//! tables) to whichever tenant it is admitting or re-embedding, so a table
//! one tenant's run left behind is exactly what could leak into the next
//! tenant's delta. The rotation, certificates and verdict cannot show such
//! a leak — the epilogue recomputes them from the graph alone — so with
//! the oracle armed the service also compares each tenant's retained tree
//! and arena with a cold build from its sticky root after every applied
//! delta (`ResidentState::arena_divergence`).
//!
//! Deltas here are interleaved across tenants of every generator family
//! at three sizes, so consecutive runs on the scratch always switch
//! family and size.

use planar_lib::gen;
use planar_service::{ChurnGen, OracleMode, ServiceConfig, ServiceState};

const SIZES: [usize; 3] = [7, 30, 16];
const ROUNDS: usize = 3;

#[test]
fn interleaved_tenants_keep_fresh_arenas() {
    let mut svc = ServiceState::new(ServiceConfig {
        oracle: OracleMode::Always,
        ..ServiceConfig::default()
    });
    let mut tenants = Vec::new();
    for (i, family) in gen::FAMILIES.iter().enumerate() {
        for (j, n) in SIZES.into_iter().enumerate() {
            let g = (family.build)(n.max(family.min_n), (i * SIZES.len() + j) as u64);
            let id = svc.create_tenant_labeled(g, Some(family.name)).unwrap();
            tenants.push((id, ChurnGen::new(1_000 + i as u64 * 7 + j as u64)));
        }
    }
    let mut incremental = 0;
    for _ in 0..ROUNDS {
        for (id, churn) in &mut tenants {
            let delta = churn.next_delta(svc.tenant(*id).unwrap().graph());
            svc.apply(*id, delta.clone()).unwrap();
            let tenant = svc.tenant(*id).unwrap();
            let record = tenant.records().last().unwrap();
            assert!(
                record.diverged.is_none(),
                "{} n={} {delta}: {}",
                tenant.label().unwrap(),
                tenant.graph().vertex_count(),
                record.diverged.as_deref().unwrap()
            );
            incremental += usize::from(record.class.is_some_and(|c| c.is_incremental()));
        }
    }
    assert_eq!(svc.divergences(), 0);
    assert!(
        incremental >= tenants.len(),
        "only {incremental} incremental deltas"
    );
}
