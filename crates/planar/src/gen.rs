//! Planar graph generators: the workload families used by the experiment
//! suite (DESIGN.md, Section 4).
//!
//! All generators are deterministic given their seed, produce connected
//! simple graphs, and are planar by construction (verified by property tests
//! against the DMP embedder).

use planar_graph::{Graph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A path on `n >= 1` vertices.
pub fn path(n: usize) -> Graph {
    Graph::from_edges(n, (0..n.saturating_sub(1) as u32).map(|i| (i, i + 1)))
        .expect("path edges are valid")
}

/// A cycle on `n >= 3` vertices.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 vertices");
    Graph::from_edges(n, (0..n as u32).map(|i| (i, (i + 1) % n as u32)))
        .expect("cycle edges are valid")
}

/// A star with one hub and `n - 1` leaves (`n >= 1`).
pub fn star(n: usize) -> Graph {
    Graph::from_edges(n, (1..n as u32).map(|i| (0, i))).expect("star edges are valid")
}

/// The complete graph `K_n` (non-planar for `n >= 5`; used in negative tests).
pub fn complete(n: usize) -> Graph {
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            edges.push((u, v));
        }
    }
    Graph::from_edges(n, edges).expect("complete graph edges are valid")
}

/// The `rows x cols` grid graph (`rows, cols >= 1`).
///
/// Diameter is `rows + cols - 2`; the work-horse family for the scaling
/// experiments (T1, T2).
pub fn grid(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 1 && cols >= 1);
    let idx = |r: usize, c: usize| (r * cols + c) as u32;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((idx(r, c), idx(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push((idx(r, c), idx(r + 1, c)));
            }
        }
    }
    Graph::from_edges(rows * cols, edges).expect("grid edges are valid")
}

/// The grid with one diagonal added in every cell (a triangulated grid),
/// still planar but denser and biconnected.
pub fn triangulated_grid(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 1 && cols >= 1);
    let idx = |r: usize, c: usize| (r * cols + c) as u32;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((idx(r, c), idx(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push((idx(r, c), idx(r + 1, c)));
            }
            if r + 1 < rows && c + 1 < cols {
                edges.push((idx(r, c), idx(r + 1, c + 1)));
            }
        }
    }
    Graph::from_edges(rows * cols, edges).expect("triangulated grid edges are valid")
}

/// The fan: a path `1..n-1` plus a hub `0` adjacent to every path vertex.
/// Outerplanar with diameter 2.
pub fn fan(n: usize) -> Graph {
    assert!(n >= 2);
    let mut edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (0, i)).collect();
    edges.extend((1..n as u32 - 1).map(|i| (i, i + 1)));
    Graph::from_edges(n, edges).expect("fan edges are valid")
}

/// The wheel: a cycle `1..n-1` plus a hub `0` adjacent to every cycle vertex.
pub fn wheel(n: usize) -> Graph {
    assert!(n >= 4);
    let k = (n - 1) as u32;
    let mut edges: Vec<(u32, u32)> = (1..=k).map(|i| (0, i)).collect();
    edges.extend((1..=k).map(|i| (i, if i == k { 1 } else { i + 1 })));
    Graph::from_edges(n, edges).expect("wheel edges are valid")
}

/// The paper's `Omega(D)` lower-bound instance (footnote 1): `K_4` with
/// every edge replaced by a path of `len` edges.
///
/// Has `4 + 6·(len - 1)` vertices and diameter `Theta(len)`. Any planar
/// embedding forces the four degree-3 vertices, pairwise `len` hops apart, to
/// output consistent cyclic orders.
pub fn k4_subdivided(len: usize) -> Graph {
    assert!(len >= 1);
    let k4_edges = [(0u32, 1u32), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
    let mut next = 4u32;
    let mut edges = Vec::new();
    for (u, v) in k4_edges {
        let mut prev = u;
        for _ in 0..len - 1 {
            edges.push((prev, next));
            prev = next;
            next += 1;
        }
        edges.push((prev, v));
    }
    Graph::from_edges(next as usize, edges).expect("subdivision edges are valid")
}

/// The theta graph: two hubs joined by `k >= 2` internally disjoint paths of
/// `len >= 2` edges each. Biconnected with diameter `~len`.
pub fn theta(k: usize, len: usize) -> Graph {
    assert!(k >= 2 && len >= 2);
    let mut next = 2u32;
    let mut edges = Vec::new();
    for _ in 0..k {
        let mut prev = 0u32;
        for _ in 0..len - 1 {
            edges.push((prev, next));
            prev = next;
            next += 1;
        }
        edges.push((prev, 1));
    }
    Graph::from_edges(next as usize, edges).expect("theta edges are valid")
}

/// A uniformly random labelled tree on `n` vertices (random Prüfer-like
/// attachment: vertex `i` attaches to a uniform earlier vertex).
pub fn random_tree(n: usize, seed: u64) -> Graph {
    assert!(n >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for i in 1..n as u32 {
        let p = rng.gen_range(0..i);
        edges.push((p, i));
    }
    Graph::from_edges(n, edges).expect("tree edges are valid")
}

/// A random *stacked triangulation* (Apollonian-style maximal planar graph):
/// start from a triangle and repeatedly insert a new vertex into a uniformly
/// random triangular face, connecting it to the face's three corners.
///
/// Always maximal planar (`m = 3n - 6`), 3-connected for `n >= 4`.
pub fn random_maximal_planar(n: usize, seed: u64) -> Graph {
    assert!(n >= 3, "maximal planar graphs need at least 3 vertices");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = vec![(0u32, 1u32), (1, 2), (0, 2)];
    // Faces as vertex triples; both sides of the initial triangle.
    let mut faces = vec![[0u32, 1, 2], [0, 2, 1]];
    for v in 3..n as u32 {
        let fi = rng.gen_range(0..faces.len());
        let [a, b, c] = faces.swap_remove(fi);
        edges.push((a.min(v), a.max(v)));
        edges.push((b.min(v), b.max(v)));
        edges.push((c.min(v), c.max(v)));
        faces.push([a, b, v]);
        faces.push([b, c, v]);
        faces.push([c, a, v]);
    }
    Graph::from_edges(n, edges).expect("stacked triangulation edges are valid")
}

/// A random connected planar graph on `n` vertices with approximately `m`
/// edges: a random stacked triangulation thinned by deleting random
/// non-bridge edges until `m` edges remain (never disconnecting).
pub fn random_planar(n: usize, m: usize, seed: u64) -> Graph {
    assert!(n >= 3);
    let m = m.clamp(n - 1, 3 * n - 6);
    let full = random_maximal_planar(n, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    // Protect one spanning tree so the graph stays connected.
    let tree = planar_graph::traversal::bfs(&full, VertexId(0));
    let mut removable: Vec<(u32, u32)> = full
        .edges()
        .filter(|e| {
            tree.parent[e.lo().index()] != Some(e.hi())
                && tree.parent[e.hi().index()] != Some(e.lo())
        })
        .map(|e| (e.lo().0, e.hi().0))
        .collect();
    // Fisher-Yates shuffle.
    for i in (1..removable.len()).rev() {
        let j = rng.gen_range(0..=i);
        removable.swap(i, j);
    }
    let to_remove = full.edge_count().saturating_sub(m).min(removable.len());
    let removed: std::collections::HashSet<(u32, u32)> =
        removable.into_iter().take(to_remove).collect();
    let edges = full
        .edges()
        .map(|e| (e.lo().0, e.hi().0))
        .filter(|e| !removed.contains(e));
    Graph::from_edges(n, edges).expect("thinned edges are valid")
}

/// A random maximal outerplanar graph: a cycle `0..n` plus a full set of
/// non-crossing chords from a random triangulation of the polygon.
pub fn random_outerplanar(n: usize, seed: u64) -> Graph {
    assert!(n >= 3);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = cycle(n);
    // Random polygon triangulation by recursive splitting.
    let mut stack = vec![(0u32, n as u32 - 1)];
    while let Some((lo, hi)) = stack.pop() {
        if hi - lo < 2 {
            continue;
        }
        // Split the sub-polygon lo..hi with triangle (lo, mid, hi).
        let mid = rng.gen_range(lo + 1..hi);
        if mid != lo + 1 && !g.has_edge(VertexId(lo), VertexId(mid)) {
            g.add_edge(VertexId(lo), VertexId(mid))
                .expect("non-crossing chord");
        }
        if hi != mid + 1 && !g.has_edge(VertexId(mid), VertexId(hi)) {
            g.add_edge(VertexId(mid), VertexId(hi))
                .expect("non-crossing chord");
        }
        stack.push((lo, mid));
        stack.push((mid, hi));
    }
    g
}

/// A sparse random outerplanar graph: cycle plus `chords` random
/// non-crossing chords (rejection-sampled).
pub fn sparse_outerplanar(n: usize, chords: usize, seed: u64) -> Graph {
    assert!(n >= 4);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = cycle(n);
    let mut placed: Vec<(u32, u32)> = Vec::new();
    let crosses = |(a, b): (u32, u32), (c, d): (u32, u32)| {
        (a < c && c < b && b < d) || (c < a && a < d && d < b)
    };
    let mut attempts = 0;
    while placed.len() < chords && attempts < 50 * chords.max(1) {
        attempts += 1;
        let mut a = rng.gen_range(0..n as u32);
        let mut b = rng.gen_range(0..n as u32);
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        if b - a < 2 || (a == 0 && b == n as u32 - 1) {
            continue; // cycle edge or self
        }
        if g.has_edge(VertexId(a), VertexId(b)) {
            continue;
        }
        if placed.iter().any(|&p| crosses((a, b), p)) {
            continue;
        }
        g.add_edge(VertexId(a), VertexId(b))
            .expect("validated chord");
        placed.push((a, b));
    }
    g
}

/// A "caterpillar of blocks": a path of `k` wheels of size `w`, consecutive
/// wheels joined at a shared cut vertex. Exercises block-cut structure with
/// controllable diameter.
pub fn wheel_chain(k: usize, w: usize) -> Graph {
    assert!(k >= 1 && w >= 4);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut n = 0u32;
    let mut prev_anchor: Option<u32> = None;
    for _ in 0..k {
        // Wheel on vertices n..n+w with hub n; reuse prev_anchor as hub rim
        // connection by linking with an edge.
        let hub = n;
        let ring = (w - 1) as u32;
        for i in 1..=ring {
            edges.push((hub, hub + i));
            edges.push((hub + i, if i == ring { hub + 1 } else { hub + i + 1 }));
        }
        if let Some(p) = prev_anchor {
            edges.push((p, hub));
        }
        prev_anchor = Some(hub + 1);
        n += w as u32;
    }
    Graph::from_edges(n as usize, edges).expect("wheel chain edges are valid")
}

/// One generator family as the DST scenario engine consumes it: a name, a
/// declared invariant set, and a uniform `(n, seed)` constructor that maps
/// any requested size onto the family's nearest valid instance.
///
/// Every family in the registry [`FAMILIES`] declares — and the seeded smoke test
/// `tests/gen_invariants.rs` verifies against the centralized checks — that
/// its graphs are **connected** and **planar**; families with
/// [`Family::outerplanar`] set are additionally outerplanar. Downstream
/// harnesses (the DST swarm in `crates/dst`) lean on those invariants to
/// classify run outcomes, so a generator regression would masquerade as an
/// algorithm bug; the smoke test pins the contract at the source.
#[derive(Clone, Copy)]
pub struct Family {
    /// Stable family name (used in artifacts and seeds).
    pub name: &'static str,
    /// The smallest vertex count the constructor accepts; `build` clamps
    /// smaller requests up to it.
    pub min_n: usize,
    /// Whether every instance is outerplanar (checked, not aspirational).
    pub outerplanar: bool,
    /// Whether the constructor consumes the seed (deterministic families
    /// ignore it; their instances depend on `n` alone).
    pub randomized: bool,
    /// Builds an instance with *approximately* `n` vertices (families with
    /// rigid shapes — grids, subdivisions, chains — round to the nearest
    /// valid size; the caller reads the actual count off the graph).
    pub build: fn(n: usize, seed: u64) -> Graph,
}

impl std::fmt::Debug for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Family")
            .field("name", &self.name)
            .field("min_n", &self.min_n)
            .field("outerplanar", &self.outerplanar)
            .field("randomized", &self.randomized)
            .finish()
    }
}

/// The generator registry: every family above, uniformly constructible.
///
/// Order is stable (artifacts and scenario seeds index into it); append
/// new families at the end.
pub const FAMILIES: &[Family] = &[
    Family {
        name: "path",
        min_n: 2,
        outerplanar: true,
        randomized: false,
        build: |n, _| path(n.max(2)),
    },
    Family {
        name: "cycle",
        min_n: 3,
        outerplanar: true,
        randomized: false,
        build: |n, _| cycle(n.max(3)),
    },
    Family {
        name: "star",
        min_n: 2,
        outerplanar: true,
        randomized: false,
        build: |n, _| star(n.max(2)),
    },
    Family {
        name: "grid",
        min_n: 4,
        outerplanar: false,
        randomized: false,
        build: |n, _| {
            let side = (n.max(4) as f64).sqrt().round().max(2.0) as usize;
            grid(side, side)
        },
    },
    Family {
        name: "tri-grid",
        min_n: 4,
        outerplanar: false,
        randomized: false,
        build: |n, _| {
            let side = (n.max(4) as f64).sqrt().round().max(2.0) as usize;
            triangulated_grid(side, side)
        },
    },
    Family {
        name: "fan",
        min_n: 2,
        outerplanar: true,
        randomized: false,
        build: |n, _| fan(n.max(2)),
    },
    Family {
        name: "wheel",
        min_n: 4,
        outerplanar: false,
        randomized: false,
        build: |n, _| wheel(n.max(4)),
    },
    Family {
        name: "theta",
        min_n: 5,
        outerplanar: false,
        randomized: false,
        build: |n, _| theta(3, (n.max(5) / 3).max(2)),
    },
    Family {
        name: "k4-subdivided",
        min_n: 4,
        outerplanar: false,
        randomized: false,
        build: |n, _| k4_subdivided(n.saturating_sub(4) / 6 + 1),
    },
    Family {
        name: "wheel-chain",
        min_n: 5,
        outerplanar: false,
        randomized: false,
        build: |n, _| wheel_chain((n.max(5) / 5).max(1), 5),
    },
    Family {
        name: "random-tree",
        min_n: 2,
        outerplanar: true,
        randomized: true,
        build: |n, seed| random_tree(n.max(2), seed),
    },
    Family {
        name: "random-maximal-planar",
        min_n: 3,
        outerplanar: false,
        randomized: true,
        build: |n, seed| random_maximal_planar(n.max(3), seed),
    },
    Family {
        name: "random-planar",
        min_n: 3,
        outerplanar: false,
        randomized: true,
        build: |n, seed| {
            let n = n.max(3);
            random_planar(n, n + n / 2, seed)
        },
    },
    Family {
        name: "random-outerplanar",
        min_n: 3,
        outerplanar: true,
        randomized: true,
        build: |n, seed| random_outerplanar(n.max(3), seed),
    },
    Family {
        name: "sparse-outerplanar",
        min_n: 4,
        outerplanar: true,
        randomized: true,
        build: |n, seed| sparse_outerplanar(n.max(4), n / 3, seed),
    },
];

/// Looks a family up by name.
pub fn family(name: &str) -> Option<&'static Family> {
    FAMILIES.iter().find(|f| f.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{embed, embed_pinned, is_planar};
    use planar_graph::traversal::diameter_exact;

    /// Whether `g` is outerplanar: planar with every vertex pinned to one
    /// face.
    fn is_outerplanar(g: &Graph) -> bool {
        let all: Vec<VertexId> = g.vertices().collect();
        embed_pinned(g, &all).is_ok()
    }

    #[test]
    fn basic_families_are_planar() {
        for g in [
            path(10),
            cycle(10),
            star(10),
            grid(4, 6),
            triangulated_grid(4, 4),
            fan(8),
            wheel(8),
            theta(4, 5),
            k4_subdivided(5),
            wheel_chain(3, 5),
        ] {
            assert!(g.is_connected(), "generator must produce connected graphs");
            let rs = embed(&g).expect("generator families are planar");
            assert!(rs.is_planar_embedding());
        }
    }

    #[test]
    fn complete_graphs_nonplanar_from_5() {
        assert!(is_planar(&complete(4)));
        assert!(!is_planar(&complete(5)));
        assert!(!is_planar(&complete(6)));
    }

    #[test]
    fn grid_dimensions() {
        let g = grid(3, 5);
        assert_eq!(g.vertex_count(), 15);
        assert_eq!(g.edge_count(), 3 * 4 + 2 * 5);
        assert_eq!(diameter_exact(&g), Some(6));
    }

    #[test]
    fn k4_subdivided_structure() {
        let l = 7;
        let g = k4_subdivided(l);
        assert_eq!(g.vertex_count(), 4 + 6 * (l - 1));
        assert_eq!(g.edge_count(), 6 * l);
        for v in 0..4u32 {
            assert_eq!(g.degree(VertexId(v)), 3);
        }
        let d = diameter_exact(&g).unwrap() as usize;
        assert!(d >= l && d <= 2 * l);
    }

    #[test]
    fn maximal_planar_edge_count() {
        for n in [3usize, 4, 10, 50] {
            let g = random_maximal_planar(n, 42);
            assert_eq!(g.edge_count(), 3 * n - 6);
            assert!(is_planar(&g), "n = {n}");
        }
    }

    #[test]
    fn random_planar_hits_target_edges() {
        let g = random_planar(50, 80, 7);
        assert_eq!(g.edge_count(), 80);
        assert!(g.is_connected());
        assert!(is_planar(&g));
    }

    #[test]
    fn random_planar_tree_extreme() {
        let g = random_planar(30, 29, 3);
        assert_eq!(g.edge_count(), 29);
        assert!(g.is_connected());
    }

    #[test]
    fn outerplanar_generators_are_outerplanar() {
        for seed in 0..5 {
            let g = random_outerplanar(12, seed);
            assert!(is_outerplanar(&g), "seed {seed}");
            let s = sparse_outerplanar(15, 5, seed);
            assert!(is_outerplanar(&s), "seed {seed}");
        }
        assert!(!is_outerplanar(&grid(3, 3)));
    }

    /// Every family that declares its instances outerplanar, at the sizes
    /// and seeds of `tests/gen_invariants.rs`.
    #[test]
    fn outerplanar_families_keep_their_claim() {
        for fam in FAMILIES.iter().filter(|f| f.outerplanar) {
            for req_n in [fam.min_n, 8, 17, 30] {
                for seed in [0, 1, 0xC0FFEE] {
                    let g = (fam.build)(req_n, seed);
                    assert!(is_outerplanar(&g), "{}/n={req_n}/seed={seed}", fam.name);
                }
            }
        }
    }

    #[test]
    fn random_maximal_outerplanar_is_triangulation() {
        // A triangulated polygon has 2n - 3 edges.
        let n = 20;
        let g = random_outerplanar(n, 11);
        assert_eq!(g.edge_count(), 2 * n - 3);
    }

    #[test]
    fn random_tree_is_tree() {
        let g = random_tree(40, 5);
        assert_eq!(g.edge_count(), 39);
        assert!(g.is_connected());
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(random_maximal_planar(30, 9), random_maximal_planar(30, 9));
        assert_eq!(random_tree(30, 9), random_tree(30, 9));
        assert_eq!(random_outerplanar(30, 9), random_outerplanar(30, 9));
    }

    #[test]
    fn theta_diameter_scales_with_len() {
        let g = theta(3, 10);
        let d = diameter_exact(&g).unwrap();
        assert!((10..=20).contains(&d));
    }
}
