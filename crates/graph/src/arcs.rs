//! CSR-style directed-arc index over a [`Graph`].
//!
//! Every undirected edge `{u, v}` contributes two *arcs* — the ordered
//! pairs `(u, v)` and `(v, u)` — and this module assigns each arc a dense
//! [`ArcId`] in `0..2m`. Arcs are laid out in CSR order: the out-arcs of
//! vertex `u` occupy the contiguous block `start(u)..start(u+1)`, sorted by
//! head id (inherited from the graph's sorted adjacency lists). That gives
//! the simulation kernel everything it needs to run allocation-free:
//!
//! * per-arc message buffers and word budgets become flat `Vec`s indexed by
//!   `ArcId` instead of per-round `HashMap`s;
//! * the in-arcs of `v`, enumerated via [`ArcIndex::rev`] over `v`'s
//!   out-arc block, arrive already sorted by sender id, so inboxes are
//!   deterministic without sorting;
//! * destination validation is a slot lookup instead of a binary search.
//!
//! The index is immutable: build it with [`ArcIndex::build`] (or the
//! [`Graph::arc_index`] convenience) after the graph is fully constructed.

use crate::{Graph, VertexId};

/// Dense identifier of a directed arc `(u, v)`; the reverse arc `(v, u)`
/// has its own id. Valid ids are `0..2m` for an `m`-edge graph.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ArcId(pub u32);

impl ArcId {
    /// The arc id as a `usize` index into arc-indexed arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Immutable CSR arc index of a graph snapshot (see module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArcIndex {
    /// CSR offsets: out-arcs of vertex `u` are `start[u]..start[u + 1]`.
    /// Length `n + 1`.
    start: Vec<usize>,
    /// Head (destination) of each arc, grouped by tail and sorted by head
    /// id within each group. Length `2m`.
    head: Vec<VertexId>,
    /// `rev[a]` is the arc id of the reverse of arc `a`, i.e. the arc
    /// `(v, u)` for `a = (u, v)`. An involution without fixed points.
    rev: Vec<ArcId>,
}

impl ArcIndex {
    /// Builds the index from a graph snapshot in `O(n + m)`.
    pub fn build(g: &Graph) -> Self {
        let n = g.vertex_count();
        let mut start = Vec::with_capacity(n + 1);
        start.push(0usize);
        for v in g.vertices() {
            start.push(start[v.index()] + g.degree(v));
        }
        let arcs = start[n];
        let mut head = Vec::with_capacity(arcs);
        for v in g.vertices() {
            head.extend_from_slice(g.neighbors(v));
        }
        // rev[(u, v)] = start[v] + slot of u in v's list. Instead of a
        // binary search per arc, exploit sortedness: visiting tails in
        // increasing order means, for any head `v`, the tails `u < v`
        // arrive in increasing order — exactly the order of the `< v`
        // prefix of `v`'s sorted block — so a per-head cursor pairs each
        // arc with its reverse in one O(n + m) pass.
        let mut rev = vec![ArcId(0); arcs];
        let mut cursor = start.clone(); // next unpaired in-arc slot per head
        for u in g.vertices() {
            for a in start[u.index()]..start[u.index() + 1] {
                let v = head[a];
                if u < v {
                    let b = cursor[v.index()];
                    debug_assert_eq!(head[b], u, "adjacency lists out of sync");
                    rev[a] = ArcId(b as u32);
                    rev[b] = ArcId(a as u32);
                    cursor[v.index()] += 1;
                }
            }
        }
        ArcIndex { start, head, rev }
    }

    /// Number of vertices of the indexed graph.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.start.len() - 1
    }

    /// Number of directed arcs (`2m`).
    #[inline]
    pub fn arc_count(&self) -> usize {
        self.head.len()
    }

    /// Heap bytes backing the CSR tables (capacities, not lengths) — the
    /// resident cost of keeping this index built, reported alongside the
    /// kernel's buffers in memory accounting.
    pub fn memory_bytes(&self) -> usize {
        self.start.capacity() * std::mem::size_of::<usize>()
            + self.head.capacity() * std::mem::size_of::<VertexId>()
            + self.rev.capacity() * std::mem::size_of::<ArcId>()
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        self.start[u.index() + 1] - self.start[u.index()]
    }

    /// First arc id of `u`'s out-arc block.
    #[inline]
    pub fn first_arc(&self, u: VertexId) -> ArcId {
        ArcId(self.start[u.index()] as u32)
    }

    /// The arc id of `u`'s `slot`-th out-arc (slots are positions in `u`'s
    /// sorted neighbor list).
    #[inline]
    pub fn arc_at(&self, u: VertexId, slot: usize) -> ArcId {
        debug_assert!(slot < self.degree(u));
        ArcId((self.start[u.index()] + slot) as u32)
    }

    /// Head (destination) of an arc.
    #[inline]
    pub fn head(&self, a: ArcId) -> VertexId {
        self.head[a.index()]
    }

    /// Tail (source) of an arc, via binary search over the offsets
    /// (`O(log n)`; the kernel never needs this in its hot loop because it
    /// enumerates arcs tail-first).
    pub fn tail(&self, a: ArcId) -> VertexId {
        let i = self.start.partition_point(|&s| s <= a.index());
        VertexId::from_index(i - 1)
    }

    /// The reverse arc `(v, u)` of `a = (u, v)`.
    #[inline]
    pub fn rev(&self, a: ArcId) -> ArcId {
        self.rev[a.index()]
    }

    /// Position of `v` in `u`'s sorted neighbor list, or `None` when
    /// `(u, v)` is not an arc. `O(log deg u)`; the kernel's destination
    /// check tries the slot after the previous send first and falls back
    /// to this search, see `congest_sim::network`.
    pub fn neighbor_slot(&self, u: VertexId, v: VertexId) -> Option<usize> {
        let block = &self.head[self.start[u.index()]..self.start[u.index() + 1]];
        block.binary_search(&v).ok()
    }

    /// The arc id of `(u, v)`, or `None` when absent.
    pub fn arc(&self, u: VertexId, v: VertexId) -> Option<ArcId> {
        self.neighbor_slot(u, v).map(|slot| self.arc_at(u, slot))
    }

    /// Iterator over `(slot, arc, head)` of `u`'s out-arcs in slot order.
    pub fn out_arcs(&self, u: VertexId) -> impl Iterator<Item = (usize, ArcId, VertexId)> + '_ {
        let lo = self.start[u.index()];
        let hi = self.start[u.index() + 1];
        (lo..hi).map(move |a| (a - lo, ArcId(a as u32), self.head[a]))
    }
}

impl Graph {
    /// Builds the CSR arc index of the current graph snapshot
    /// (see [`ArcIndex`]). `O(n + m)`; callers that mutate the graph
    /// afterwards must rebuild.
    pub fn arc_index(&self) -> ArcIndex {
        ArcIndex::build(self)
    }

    /// Position of `v` in `u`'s sorted neighbor list, or `None` when the
    /// edge is absent. `O(log deg u)`.
    pub fn neighbor_slot(&self, u: VertexId, v: VertexId) -> Option<usize> {
        if u.index() >= self.vertex_count() {
            return None;
        }
        self.neighbors(u).binary_search(&v).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_roundtrip(g: &Graph) {
        let idx = g.arc_index();
        assert_eq!(idx.vertex_count(), g.vertex_count());
        assert_eq!(idx.arc_count(), 2 * g.edge_count());
        for u in g.vertices() {
            assert_eq!(idx.degree(u), g.degree(u));
            for (slot, &v) in g.neighbors(u).iter().enumerate() {
                // slot <-> arc <-> (head, tail) round-trip.
                assert_eq!(idx.neighbor_slot(u, v), Some(slot));
                assert_eq!(g.neighbor_slot(u, v), Some(slot));
                let a = idx.arc_at(u, slot);
                assert_eq!(idx.arc(u, v), Some(a));
                assert_eq!(idx.head(a), v);
                assert_eq!(idx.tail(a), u);
                // rev is a fixed-point-free involution pairing (u,v)/(v,u).
                let b = idx.rev(a);
                assert_ne!(a, b);
                assert_eq!(idx.rev(b), a);
                assert_eq!(idx.head(b), u);
                assert_eq!(idx.tail(b), v);
            }
            // Out-arc iteration covers exactly the neighbor list in order.
            let heads: Vec<VertexId> = idx.out_arcs(u).map(|(_, _, h)| h).collect();
            assert_eq!(heads, g.neighbors(u));
        }
        // Arc ids are dense: every id in 0..2m is some (u, slot).
        let mut seen = vec![false; idx.arc_count()];
        for u in g.vertices() {
            for (_, a, _) in idx.out_arcs(u) {
                assert!(!seen[a.index()], "duplicate arc id");
                seen[a.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn path_index_roundtrip() {
        let g = Graph::from_edges(5, (0..4).map(|i| (i, i + 1))).unwrap();
        check_roundtrip(&g);
    }

    #[test]
    fn star_index_roundtrip() {
        let g = Graph::from_edges(8, (1..8).map(|i| (0, i))).unwrap();
        check_roundtrip(&g);
    }

    #[test]
    fn triangulation_index_roundtrip() {
        // Triangulated 4x4 grid: the denser biconnected workload family.
        let mut edges = Vec::new();
        let idx = |r: u32, c: u32| r * 4 + c;
        for r in 0..4u32 {
            for c in 0..4u32 {
                if c + 1 < 4 {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < 4 {
                    edges.push((idx(r, c), idx(r + 1, c)));
                }
                if r + 1 < 4 && c + 1 < 4 {
                    edges.push((idx(r, c), idx(r + 1, c + 1)));
                }
            }
        }
        let g = Graph::from_edges(16, edges).unwrap();
        check_roundtrip(&g);
    }

    #[test]
    fn absent_edges_have_no_slot() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let idx = g.arc_index();
        assert_eq!(idx.neighbor_slot(VertexId(0), VertexId(2)), None);
        assert_eq!(idx.arc(VertexId(0), VertexId(3)), None);
        assert_eq!(g.neighbor_slot(VertexId(0), VertexId(2)), None);
        assert_eq!(g.neighbor_slot(VertexId(9), VertexId(0)), None);
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let g = Graph::new(0);
        let idx = g.arc_index();
        assert_eq!(idx.arc_count(), 0);
        let g = Graph::new(3);
        let idx = g.arc_index();
        assert_eq!(idx.arc_count(), 0);
        assert_eq!(idx.vertex_count(), 3);
        assert_eq!(idx.degree(VertexId(1)), 0);
    }
}
