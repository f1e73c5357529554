//! Distributed certification of driver outputs: the bridge between the
//! embedder and the [`planar_cert`] proof-labeling subsystem.
//!
//! [`verify_embedding`](crate::verify_embedding) is a *centralized*
//! self-check — it collects the whole rotation, which no CONGEST node
//! could do. The functions here are its distributed counterparts: the
//! prover ([`planar_cert::build_certificates`]) assigns each node
//! `O(Δ log n)` bits, and the O(1)-round verifier runs as an ordinary
//! [`NodeProgram`](congest_sim::NodeProgram) on the kernels, so a
//! certified outcome means *every node locally accepted* the embedding —
//! and any corruption would have made at least one node reject.

use congest_sim::SimConfig;
use planar_cert::{
    build_certificates, verify_distributed_with, CertError, Certificate, VerifyReport,
};
use planar_graph::{Graph, RotationSystem, VertexId};

use crate::error::EmbedError;
use crate::{EmbedderConfig, ExecutionContext};

/// The prover/verifier artifacts of one certification run.
#[derive(Clone, Debug, PartialEq)]
pub struct Certification {
    /// Per-node certificates (index = vertex id), `O(Δ log n)` bits each.
    pub certificates: Vec<Certificate>,
    /// The distributed verifier's report: per-node verdicts and the O(1)
    /// round cost (`report.metrics.phase_rounds.cert`).
    pub report: VerifyReport,
}

impl Certification {
    /// Whether every node accepted.
    pub fn accepted(&self) -> bool {
        self.report.accepted
    }
}

fn lift(e: CertError) -> EmbedError {
    match e {
        CertError::BadInput(msg) => EmbedError::Internal(format!("certification: {msg}")),
        CertError::Sim(e) => EmbedError::Sim(e),
        CertError::Graph(e) => EmbedError::Graph(e),
        // CertError is non-exhaustive; treat future variants as internal.
        e => EmbedError::Internal(format!("certification: {e}")),
    }
}

/// Builds certificates for `rotation` and runs the distributed verifier
/// on `g`, honoring the embedder's kernel settings (fault plan on
/// `cfg.sim`, reliable delivery if configured).
///
/// # Errors
///
/// [`EmbedError::Internal`] if the rotation does not match `g` (prover
/// misuse); [`EmbedError::Sim`] if the verifier simulation aborts. A
/// *rejecting* verification is not an error — inspect
/// [`Certification::accepted`].
pub fn certify_embedding(
    g: &Graph,
    rotation: &RotationSystem,
    cfg: &EmbedderConfig,
) -> Result<Certification, EmbedError> {
    certify_in(&mut ExecutionContext::new(g, cfg), rotation)
}

/// [`certify_embedding`] on an open context: the session graph, its
/// kernel settings and its warm simulators.
pub(crate) fn certify_in(
    ctx: &mut ExecutionContext<'_>,
    rotation: &RotationSystem,
) -> Result<Certification, EmbedError> {
    let certificates = build_certificates(ctx.graph(), rotation).map_err(lift)?;
    certify_with_certificates(ctx, rotation, certificates)
}

/// Runs the distributed verifier on a *pre-supplied* certificate set —
/// the entry the incremental re-embedding path uses after splicing a
/// resident set against a scratch build
/// ([`planar_cert::splice_certificates`]). Since a spliced set is
/// element-wise equal to the scratch set, the verdict is identical to
/// [`certify_embedding`]'s; what differs is only the accounting of which
/// certificates had to be re-distributed. The verifier programs run as
/// one phase of `ctx` ([`ExecutionContext::run_phase`]): on its session
/// graph and arc index, its kernel, and its reliability policy.
///
/// # Errors
///
/// As [`certify_embedding`].
pub fn certify_with_certificates(
    ctx: &mut ExecutionContext<'_>,
    rotation: &RotationSystem,
    certificates: Vec<Certificate>,
) -> Result<Certification, EmbedError> {
    let report = verify_distributed_with(ctx.graph(), rotation, &certificates, |programs| {
        ctx.run_phase(programs)
    })
    .map_err(lift)?;
    Ok(Certification {
        certificates,
        report,
    })
}

/// The distributed counterpart of
/// [`verify_surviving_embedding`](crate::verify_surviving_embedding):
/// restricts `rotation` to the subgraph induced by the vertices *not* in
/// `crashed` (same compaction — survivors renumbered `0..k` in increasing
/// original id, cyclic orders filtered to surviving neighbors) and
/// certifies the restriction distributedly among the survivors.
///
/// The verification itself runs on a *clean* network (`sim` without the
/// fault plan that degraded the original run): it is a post-hoc audit by
/// the surviving nodes, not a re-enactment of the failure.
///
/// # Errors
///
/// As [`certify_embedding`], on the induced subgraph.
pub fn certify_surviving_embedding(
    g: &Graph,
    rotation: &RotationSystem,
    crashed: &[VertexId],
    cfg: &EmbedderConfig,
) -> Result<Certification, EmbedError> {
    let n = g.vertex_count();
    if rotation.vertex_count() != n {
        return Err(EmbedError::Internal(format!(
            "certification: graph has {n} vertices, rotation {}",
            rotation.vertex_count()
        )));
    }
    let (sub, restricted) = crate::verify::surviving_subgraph(g, rotation, crashed)?;
    let clean = EmbedderConfig {
        sim: SimConfig {
            faults: congest_sim::FaultPlan::default(),
            ..cfg.sim.clone()
        },
        ..cfg.clone()
    };
    certify_embedding(&sub, &restricted, &clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{embed_distributed, EmbedderConfig};
    use planar_lib::gen;

    #[test]
    fn driver_outputs_certify_in_constant_rounds() {
        for g in [
            gen::grid(4, 5),
            gen::triangulated_grid(3, 4),
            gen::random_outerplanar(14, 11),
            gen::random_planar(16, 30, 5),
        ] {
            let out = embed_distributed(&g, &EmbedderConfig::default()).unwrap();
            let cert = certify_embedding(&g, &out.rotation, &EmbedderConfig::default()).unwrap();
            assert!(cert.accepted(), "rejections: {:?}", cert.report.rejections);
            assert!(cert.report.metrics.rounds <= 2);
            assert_eq!(
                cert.report.metrics.phase_rounds.cert,
                cert.report.metrics.rounds
            );
        }
    }

    #[test]
    fn surviving_restriction_certifies_after_crash_removal() {
        // Embed fault-free, then audit the rotation restricted to the
        // graph minus two "crashed" corners — the distributed analogue of
        // verify_surviving_embedding.
        let g = gen::grid(4, 4);
        let out = embed_distributed(&g, &EmbedderConfig::default()).unwrap();
        let crashed = [VertexId(0), VertexId(15)];
        let cert =
            certify_surviving_embedding(&g, &out.rotation, &crashed, &EmbedderConfig::default())
                .unwrap();
        assert!(cert.accepted(), "rejections: {:?}", cert.report.rejections);
        assert_eq!(cert.certificates.len(), 14);
        crate::verify_surviving_embedding(&g, &out.rotation, &crashed).unwrap();
    }

    #[test]
    fn empty_crash_list_matches_full_certification() {
        let g = gen::wheel(9);
        let out = embed_distributed(&g, &EmbedderConfig::default()).unwrap();
        let cfg = EmbedderConfig::default();
        let full = certify_embedding(&g, &out.rotation, &cfg).unwrap();
        let surviving = certify_surviving_embedding(&g, &out.rotation, &[], &cfg).unwrap();
        assert_eq!(full, surviving);
    }

    #[test]
    fn mismatched_rotation_is_prover_misuse() {
        let g = gen::cycle(6);
        let other = gen::path(6);
        let rot = planar_lib::embed(&other).unwrap();
        assert!(matches!(
            certify_embedding(&g, &rot, &EmbedderConfig::default()),
            Err(EmbedError::Internal(_) | EmbedError::Graph(_))
        ));
    }
}
