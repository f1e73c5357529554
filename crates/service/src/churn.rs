//! Seeded churn: the sensor-fleet workload generator.
//!
//! Models the dynamic processes of Huc–Jarry–Leone–Rolim's sensor
//! networks over any resident graph — links appearing and failing, nodes
//! arriving and departing — as a deterministic, seeded stream of
//! [`Delta`]s. The generator is *structure-aware*: every emitted delta
//! is structurally valid for the graph it was drawn against (no
//! duplicate edges, no disconnecting removals), but it is deliberately
//! **not** planarity-aware — a churn stream exercises the rejection
//! paths (pre-flight gate, incremental `NonPlanar`) exactly as a real
//! fleet would.
//!
//! Determinism contract: the sequence of deltas is a pure function of
//! the seed and the evolving graph, so two consumers that apply the same
//! accepted deltas in the same order (the incremental tenant and its
//! full re-embed oracle, or a DST scenario and its replay) draw
//! identical streams. This is what lets churn double as a DST scenario
//! dimension (`crates/dst`).

use planar_graph::{Graph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::delta::{apply_delta, Delta};

/// Weights of the four churn processes, in percent (summing to 100):
/// relink-heavy, as sensor fleets are.
const INSERT_PCT: u32 = 40;
const DELETE_PCT: u32 = 30;
const ARRIVE_PCT: u32 = 15;
// departures take the rest

/// Attempts per draw before falling back to a guaranteed-valid pendant
/// arrival.
const MAX_TRIES: usize = 16;

/// A deterministic churn stream over an evolving graph.
#[derive(Clone, Debug)]
pub struct ChurnGen {
    rng: StdRng,
}

impl ChurnGen {
    /// A stream seeded with `seed`; equal seeds draw equal streams
    /// against equal graph evolutions.
    pub fn new(seed: u64) -> Self {
        ChurnGen {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws the next delta for the current state of `g`. Always returns
    /// a structurally valid delta (it may still be planarity-breaking).
    pub fn next_delta(&mut self, g: &Graph) -> Delta {
        for _ in 0..MAX_TRIES {
            let candidate = self.draw(g);
            if apply_delta(g, &candidate).is_ok() {
                return candidate;
            }
        }
        self.pendant_arrival(g)
    }

    /// The guaranteed-valid fallback: a pendant arrival whose single
    /// attachment *is* its anchor vertex, drawn seeded and recorded in
    /// the delta itself. A pendant arrival can never create a parallel
    /// edge or disconnect the network, and the explicit anchor keeps the
    /// fallback deterministic for replays; like every arrival, it takes
    /// the incremental `VertexSetChange` path.
    fn pendant_arrival(&mut self, g: &Graph) -> Delta {
        let anchor = self.pick_vertex(g);
        Delta::AddNode {
            attach: vec![anchor],
        }
    }

    fn pick_vertex(&mut self, g: &Graph) -> VertexId {
        VertexId::from_index(self.rng.gen_range(0usize..g.vertex_count()))
    }

    fn draw(&mut self, g: &Graph) -> Delta {
        let n = g.vertex_count();
        let roll = self.rng.gen_range(0u32..100);
        if roll < INSERT_PCT || n < 3 {
            // A new link between two random distinct vertices.
            let u = self.pick_vertex(g);
            let v = self.pick_vertex(g);
            Delta::InsertEdge(u, v)
        } else if roll < INSERT_PCT + DELETE_PCT {
            // A random existing link fails.
            let edges: Vec<_> = g.edges().collect();
            let e = edges[self.rng.gen_range(0usize..edges.len())];
            Delta::DeleteEdge(e.lo(), e.hi())
        } else if roll < INSERT_PCT + DELETE_PCT + ARRIVE_PCT {
            // A node arrives with 1–3 links into the fleet.
            let k = self.rng.gen_range(1usize..=3).min(n);
            let mut attach = Vec::with_capacity(k);
            while attach.len() < k {
                let v = self.pick_vertex(g);
                if !attach.contains(&v) {
                    attach.push(v);
                }
            }
            Delta::AddNode { attach }
        } else {
            // A random node departs.
            Delta::RemoveNode(self.pick_vertex(g))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use planar_lib::gen;

    /// Equal seeds draw equal streams over the same evolution.
    #[test]
    fn streams_are_deterministic() {
        let draw = || {
            let mut g = gen::grid(4, 4);
            let mut churn = ChurnGen::new(42);
            let mut deltas = Vec::new();
            for _ in 0..20 {
                let d = churn.next_delta(&g);
                g = apply_delta(&g, &d).unwrap();
                deltas.push(d);
            }
            deltas
        };
        assert_eq!(draw(), draw());
    }

    /// Every drawn delta is valid for the graph it was drawn against,
    /// and the evolution stays connected.
    #[test]
    fn draws_are_always_structurally_valid() {
        for seed in 0..8u64 {
            let mut g = gen::wheel(8);
            let mut churn = ChurnGen::new(seed);
            for _ in 0..30 {
                let d = churn.next_delta(&g);
                g = apply_delta(&g, &d)
                    .unwrap_or_else(|e| panic!("seed {seed}: invalid draw {d}: {e}"));
                assert!(g.is_connected());
            }
        }
    }

    /// The pendant-arrival fallback is seeded, records its anchor in the
    /// delta, and takes the incremental path. A two-vertex fleet forces
    /// it: `n < 3` pins every draw to the insert branch, and the only
    /// edge already exists, so all `MAX_TRIES` draws are invalid.
    #[test]
    fn pendant_fallback_records_a_seeded_anchor() {
        let g = gen::path(2);
        for seed in 0..16u64 {
            let d = ChurnGen::new(seed).next_delta(&g);
            let Delta::AddNode { attach } = &d else {
                panic!("seed {seed}: expected the pendant fallback, got {d}");
            };
            assert_eq!(attach.len(), 1, "a pendant arrival has exactly one anchor");
            assert!(attach[0].index() < g.vertex_count(), "anchor is resident");
            // Deterministic across replays: the oracle side of a DST
            // scenario must draw the identical anchor.
            assert_eq!(d, ChurnGen::new(seed).next_delta(&g));
            apply_delta(&g, &d).expect("the fallback is always valid");
        }
        // A pendant arrival takes the incremental path.
        let cfg = planar_embedding::EmbedderConfig::default();
        let (mut resident, _) =
            planar_embedding::ResidentEmbedding::build(g.clone(), &cfg).unwrap();
        let d = ChurnGen::new(3).next_delta(&g);
        let mutated = apply_delta(&g, &d).unwrap();
        let report = resident.reembed(mutated).unwrap();
        assert_eq!(
            report.taken(),
            planar_embedding::DeltaClass::VertexSetChange,
            "the anchored fallback must re-embed incrementally"
        );
    }

    /// Different seeds explore different streams (sanity, not a law).
    #[test]
    fn seeds_diversify() {
        let g = gen::grid(4, 4);
        let a = ChurnGen::new(1).next_delta(&g);
        let streams: Vec<_> = (1..20u64)
            .map(|s| ChurnGen::new(s).next_delta(&g))
            .collect();
        assert!(streams.iter().any(|d| *d != a));
    }
}
