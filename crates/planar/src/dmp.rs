//! The Demoucron–Malgrange–Pertuiset (DMP) incremental planarity test and
//! embedder for biconnected graphs.
//!
//! DMP is the classical "face by face" algorithm: embed any cycle, then
//! repeatedly take a *fragment* (a chord, or a connected component of the
//! unembedded part together with its attachment edges), check which faces of
//! the current partial embedding can host it, and embed one path of the
//! fragment into such a face, splitting it in two. If some fragment has no
//! admissible face the graph is non-planar.
//!
//! The workspace uses this embedder in two roles mandated by the paper:
//! * the **trivial baseline** (footnote 2: gather the topology in `O(n)`
//!   rounds and solve locally), and
//! * the **merge skeleton solver** of the distributed algorithm, which
//!   embeds small summarized "outline" graphs at merge coordinators.
//!
//! The implementation maintains faces (as directed vertex cycles) and the
//! rotation system *together*, so the returned rotations always trace the
//! maintained faces; planarity of every output is independently checked by
//! [`RotationSystem::is_planar_embedding`] in the test suite.
//!
//! # Incremental bookkeeping
//!
//! Embedding a path of fragment `F` into face `f` changes little: `f`
//! splits into `f1` and `f2`, `F` breaks into new fragments, and every
//! other fragment keeps its vertices and attachments. So the fragments,
//! their admissible faces and the faces at each vertex are maintained
//! across steps instead of being recomputed:
//!
//! * a fragment admissible in `f` is re-tested against `f1` and `f2` only;
//! * only `F` is re-decomposed, and only its new fragments are tested
//!   against every face (through the sorted per-vertex face lists);
//! * fragments are kept ordered by their slot in the classical scan
//!   (chords by edge, then components by their smallest vertex), with the
//!   slots of fragments that have zero or one admissible face in side sets.
//!
//! The choice rule, the fragment order, the path through a fragment and
//! the face list order are those of the whole-graph rescan, so the output
//! rotations (and the error reported for a non-planar block) are
//! identical to it — a frozen copy of the rescan is the test oracle of
//! the bench crate's `dmp_conformance` test (`crates/bench/tests/dmpref`).
//!
//! # Flat storage
//!
//! An embedding step allocates nothing once the tables have grown: all
//! state lives in flat arrays owned by `DmpState`, sized by the block's
//! `n` and `m`, and a face split reuses the storage of the face it
//! replaces.
//!
//! * **Rotations** are cyclic linked lists over the graph's arcs in CSR
//!   order (`succ`), so inserting an edge after the face predecessor is
//!   `O(log deg)`; a vertex's order starts at the first neighbor it was
//!   given, exactly like the vector it replaces.
//! * **Faces** are doubly linked cycles of *corners* (one per vertex
//!   occurrence on a face). A split keeps the corners of its two arcs in
//!   place and adds two per path edge, so there are at most `2m` corners.
//! * **Faces at a vertex** sit in that vertex's CSR block of width
//!   `deg(v)`, ascending by face id: a vertex of embedded degree `d` is on
//!   exactly `d` faces.
//! * **Fragments** are fixed-size records. Component interiors are
//!   disjoint ranges of one `n`-array, and a fragment's pieces are written
//!   back into its own range. Attachments are ranges of a pool that is
//!   compacted once dead ranges outweigh live ones, and the fragments
//!   listing each face are linked lists over a recycled node pool.
//! * **Scan order** is three ordered sets over dense slots (`SlotSet`):
//!   slot `arc(lo, hi)` for a chord, `2m + v` for the component whose
//!   smallest vertex is `v`. The admissible faces of the fragment a step
//!   picks are recomputed from its attachments; others only keep a count.

use planar_graph::{Graph, VertexId};

use crate::PlanarityError;

type FaceId = u32;
type FragId = u32;

/// Marks "none" in the index-linked tables.
const NONE: u32 = u32::MAX;

/// A fragment of the unembedded part relative to the embedded subgraph `S`.
#[derive(Clone, Copy, Debug)]
struct Fragment {
    /// Position in the classical fragment scan (see `DmpState::slot_frag`).
    slot: u32,
    /// Attachment vertices (embedded vertices touched by the fragment),
    /// sorted: `att[att_at..][..att_len]`; a chord's two endpoints.
    att_at: u32,
    att_len: u32,
    /// Vertices of the fragment outside `S`: `interior[int_at..][..int_len]`
    /// (empty for a chord).
    int_at: u32,
    int_len: u32,
    /// Number of admissible faces: live faces containing every attachment.
    faces: u32,
}

/// What the scan picks next.
enum Choice {
    Done,
    NonPlanar,
    Embed(FragId, FaceId),
}

/// The rotation system DMP computes for one block: per-vertex cyclic
/// linked lists over the block graph's arcs.
pub(crate) struct BlockRotation<'g> {
    g: &'g Graph,
    /// Start of each vertex's arcs (CSR over the sorted adjacency lists):
    /// arc `arc_start[u] + i` is `u`'s edge to its `i`-th neighbor.
    arc_start: Vec<u32>,
    /// Each vertex's first arc, and the arc after each embedded arc in its
    /// tail's cyclic order (`NONE` while the edge is unembedded).
    first: Vec<u32>,
    succ: Vec<u32>,
}

impl<'g> BlockRotation<'g> {
    /// The empty rotation system of `g`.
    fn new(g: &'g Graph) -> Self {
        let mut arc_start = Vec::with_capacity(g.vertex_count() + 1);
        let mut total = 0u32;
        for v in g.vertices() {
            arc_start.push(total);
            total += g.degree(v) as u32;
        }
        arc_start.push(total);
        BlockRotation {
            g,
            arc_start,
            first: vec![NONE; g.vertex_count()],
            succ: vec![NONE; total as usize],
        }
    }

    /// Number of arcs (`2m`).
    fn arcs(&self) -> u32 {
        self.arc_start[self.g.vertex_count()]
    }

    fn arc(&self, u: VertexId, v: VertexId) -> u32 {
        let nbrs = self.g.neighbors(u);
        self.arc_start[u.index()] + nbrs.binary_search(&v).expect("arc of the graph") as u32
    }

    fn is_embedded(&self, u: VertexId, v: VertexId) -> bool {
        self.succ[self.arc(u, v) as usize] != NONE
    }

    /// Gives `v` the rotation `[a, b]` (`a == b` for a single edge).
    fn start(&mut self, v: VertexId, a: VertexId, b: VertexId) {
        let (va, vb) = (self.arc(v, a), self.arc(v, b));
        self.first[v.index()] = va;
        self.succ[va as usize] = vb;
        self.succ[vb as usize] = va;
    }

    /// Inserts `w` right after `a` in the rotation at `v`.
    fn insert_after(&mut self, v: VertexId, a: VertexId, w: VertexId) {
        let (va, vw) = (self.arc(v, a), self.arc(v, w));
        self.succ[vw as usize] = self.succ[va as usize];
        self.succ[va as usize] = vw;
    }

    /// The rotation at `v`, starting at the first neighbor it was given.
    pub(crate) fn order(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        let base = self.arc_start[v.index()];
        let nbrs = self.g.neighbors(v);
        let start = self.first[v.index()];
        let mut arc = start;
        std::iter::from_fn(move || {
            if arc == NONE {
                return None;
            }
            let w = nbrs[(arc - base) as usize];
            arc = self.succ[arc as usize];
            if arc == start {
                arc = NONE;
            }
            Some(w)
        })
    }
}

/// Embeds a biconnected graph (a single "block": one edge, or a 2-connected
/// graph), returning its rotation system.
///
/// # Errors
///
/// Returns [`PlanarityError::NonPlanar`] if the block is not planar.
///
/// # Panics
///
/// Panics (in debug builds) if the input is not a single block; callers go
/// through [`crate::embed`], which decomposes arbitrary graphs into blocks.
pub(crate) fn embed_biconnected(g: &Graph) -> Result<BlockRotation<'_>, PlanarityError> {
    let n = g.vertex_count();
    let m = g.edge_count();
    debug_assert!(g.is_connected(), "block must be connected");
    // Planar edge bound: blocks with n >= 3 satisfy m <= 3n - 6.
    if n >= 3 && m > 3 * n - 6 {
        return Err(PlanarityError::TooManyEdges { n, m });
    }
    if m <= 1 {
        let mut rot = BlockRotation::new(g);
        if let Some(e) = g.edges().next() {
            rot.start(e.lo(), e.hi(), e.hi());
            rot.start(e.hi(), e.lo(), e.lo());
        }
        return Ok(rot);
    }

    let mut state = DmpState::new(g);
    state.embed_initial_cycle();
    loop {
        match state.choose() {
            Choice::Done => return Ok(state.rot),
            Choice::NonPlanar => {
                return Err(PlanarityError::NonPlanar {
                    embedded_edges: state.embedded_edge_count,
                })
            }
            Choice::Embed(frag, face) => state.embed_fragment(frag, face),
        }
    }
}

/// An ordered set of slots `0..len`: a 64-ary tree of bit words whose
/// upper levels mark the non-empty words below, so insert, remove and
/// minimum are `O(log_64 len)`.
struct SlotSet {
    /// `levels[0]` holds one bit per slot; the last level is one word.
    levels: Vec<Vec<u64>>,
}

impl SlotSet {
    fn new(len: usize) -> Self {
        let mut levels = Vec::new();
        let mut words = len.div_ceil(64).max(1);
        loop {
            levels.push(vec![0; words]);
            if words == 1 {
                return SlotSet { levels };
            }
            words = words.div_ceil(64);
        }
    }

    fn insert(&mut self, slot: u32) {
        let mut i = slot as usize;
        for level in &mut self.levels {
            let word = &mut level[i / 64];
            let was = *word;
            *word |= 1 << (i % 64);
            if was != 0 {
                return;
            }
            i /= 64;
        }
    }

    fn remove(&mut self, slot: u32) {
        let mut i = slot as usize;
        for level in &mut self.levels {
            let word = &mut level[i / 64];
            *word &= !(1 << (i % 64));
            if *word != 0 {
                return;
            }
            i /= 64;
        }
    }

    fn first(&self) -> Option<u32> {
        let top = self.levels.last().expect("at least one level")[0];
        if top == 0 {
            return None;
        }
        let mut i = 0;
        for level in self.levels.iter().rev() {
            i = i * 64 + level[i].trailing_zeros() as usize;
        }
        Some(i as u32)
    }
}

struct DmpState<'g> {
    g: &'g Graph,
    in_s: Vec<bool>,
    embedded_edge_count: usize,
    /// The rotations of the embedded subgraph `S`.
    rot: BlockRotation<'g>,
    /// Face corners: vertex, and the next and previous corner on the face.
    /// A face is a directed vertex cycle: for any consecutive triple
    /// `(a, b, c)`, `c` follows `a` in the rotation at `b`.
    corner_v: Vec<VertexId>,
    corner_next: Vec<u32>,
    corner_prev: Vec<u32>,
    /// A corner of each face, by face id. A split face is retired; new
    /// faces get fresh, larger ids.
    face_corner: Vec<u32>,
    /// The live faces in scan order: a split face is `swap_remove`d and its
    /// two halves pushed, which decides ties between admissible faces.
    order: Vec<FaceId>,
    /// Index of each live face in `order`.
    pos: Vec<u32>,
    /// The live faces through each vertex, ascending, in the vertex's CSR
    /// block: `vertex_faces[arc_start[v]..][..face_count[v]]`.
    vertex_faces: Vec<FaceId>,
    face_count: Vec<u32>,
    /// Fragments that listed each face as admissible (dead ones included),
    /// as linked lists over a node pool with a free list.
    face_frags: Vec<u32>,
    node_frag: Vec<FragId>,
    node_next: Vec<u32>,
    free_node: u32,
    frags: Vec<Fragment>,
    /// Attachment ranges of the fragments, and how many entries belong to
    /// dead fragments.
    att: Vec<VertexId>,
    dead_att: usize,
    /// Interior ranges of the component fragments.
    interior: Vec<VertexId>,
    /// The live component fragment each vertex outside `S` belongs to.
    owner: Vec<FragId>,
    /// The live fragment at each scan slot.
    slot_frag: Vec<FragId>,
    /// Slots of the live fragments, of those with no admissible face, and
    /// of those with exactly one.
    live: SlotSet,
    no_face: SlotSet,
    one_face: SlotSet,
    /// Scratch: per-vertex stamps, BFS predecessors and queue, the path
    /// being embedded, re-decomposition candidates and admissible faces.
    stamp: Vec<u32>,
    stamp2: Vec<u32>,
    epoch: u32,
    pred: Vec<VertexId>,
    queue: Vec<VertexId>,
    path: Vec<VertexId>,
    candidates: Vec<VertexId>,
    found: Vec<FaceId>,
}

impl<'g> DmpState<'g> {
    fn new(g: &'g Graph) -> Self {
        let n = g.vertex_count();
        let rot = BlockRotation::new(g);
        let arcs = rot.arcs() as usize;
        // Faces ever: the two of the initial cycle, then two per step, and
        // every step embeds at least one edge.
        let faces = arcs + 2;
        DmpState {
            g,
            in_s: vec![false; n],
            embedded_edge_count: 0,
            rot,
            corner_v: Vec::with_capacity(arcs),
            corner_next: Vec::with_capacity(arcs),
            corner_prev: Vec::with_capacity(arcs),
            face_corner: Vec::with_capacity(faces),
            order: Vec::with_capacity(faces),
            pos: Vec::with_capacity(faces),
            vertex_faces: vec![0; arcs],
            face_count: vec![0; n],
            face_frags: Vec::with_capacity(faces),
            node_frag: Vec::new(),
            node_next: Vec::new(),
            free_node: NONE,
            frags: Vec::new(),
            att: Vec::new(),
            dead_att: 0,
            interior: Vec::with_capacity(n),
            owner: vec![NONE; n],
            slot_frag: vec![NONE; arcs + n],
            live: SlotSet::new(arcs + n),
            no_face: SlotSet::new(arcs + n),
            one_face: SlotSet::new(arcs + n),
            stamp: vec![0; n],
            stamp2: vec![0; n],
            epoch: 0,
            pred: vec![VertexId(0); n],
            queue: Vec::new(),
            path: Vec::new(),
            candidates: Vec::new(),
            found: Vec::new(),
        }
    }

    fn next_epoch(&mut self) -> u32 {
        self.epoch += 1;
        self.epoch
    }

    /// The live faces through `v`, ascending.
    fn faces_at(&self, v: VertexId) -> &[FaceId] {
        let at = self.rot.arc_start[v.index()] as usize;
        &self.vertex_faces[at..at + self.face_count[v.index()] as usize]
    }

    fn attachments(&self, id: FragId) -> &[VertexId] {
        let f = &self.frags[id as usize];
        &self.att[f.att_at as usize..][..f.att_len as usize]
    }

    /// Appends a corner for `v` and returns its id.
    fn new_corner(&mut self, v: VertexId) -> u32 {
        self.corner_v.push(v);
        self.corner_next.push(NONE);
        self.corner_prev.push(NONE);
        (self.corner_v.len() - 1) as u32
    }

    fn link(&mut self, from: u32, to: u32) {
        self.corner_next[from as usize] = to;
        self.corner_prev[to as usize] = from;
    }

    /// Finds any cycle via DFS (undirected graphs have only back edges) and
    /// embeds it as the initial two-face configuration.
    fn embed_initial_cycle(&mut self) {
        let cycle = find_cycle(self.g).expect("biconnected graph with >= 2 edges has a cycle");
        let k = cycle.len();
        for i in 0..k {
            let prev = cycle[(i + k - 1) % k];
            let next = cycle[(i + 1) % k];
            self.rot.start(cycle[i], prev, next);
            self.in_s[cycle[i].index()] = true;
        }
        self.embedded_edge_count += k;
        // The cycle forward, then backward.
        for forward in [true, false] {
            let corners = self.corner_v.len() as u32;
            for i in 0..k {
                let v = if forward { cycle[i] } else { cycle[k - 1 - i] };
                self.new_corner(v);
            }
            for i in 0..k as u32 {
                self.link(corners + i, corners + (i + 1) % k as u32);
            }
            self.push_face(corners);
        }
        self.add_chords(&cycle);
        self.interior
            .extend(self.g.vertices().filter(|v| !self.in_s[v.index()]));
        self.add_components(NONE, 0, self.interior.len());
    }

    /// Appends the face through corner `corner` at the end of the scan
    /// order and lists it at its vertices.
    fn push_face(&mut self, corner: u32) -> FaceId {
        let id = self.face_corner.len() as FaceId;
        let mut c = corner;
        loop {
            let x = self.corner_v[c as usize].index();
            self.vertex_faces[(self.rot.arc_start[x] + self.face_count[x]) as usize] = id;
            self.face_count[x] += 1;
            c = self.corner_next[c as usize];
            if c == corner {
                break;
            }
        }
        self.face_corner.push(corner);
        self.pos.push(self.order.len() as u32);
        self.order.push(id);
        self.face_frags.push(NONE);
        id
    }

    /// Lists fragment `id` at face `f`, reusing a freed node if any.
    fn list_at(&mut self, f: FaceId, id: FragId) {
        let head = self.face_frags[f as usize];
        let node = if self.free_node != NONE {
            let node = self.free_node;
            self.free_node = self.node_next[node as usize];
            self.node_frag[node as usize] = id;
            self.node_next[node as usize] = head;
            node
        } else {
            self.node_frag.push(id);
            self.node_next.push(head);
            (self.node_frag.len() - 1) as u32
        };
        self.face_frags[f as usize] = node;
    }

    /// The live faces containing every vertex of `attachments`, ascending.
    fn admissible<'s>(&'s self, attachments: &'s [VertexId]) -> impl Iterator<Item = FaceId> + 's {
        let fewest = attachments
            .iter()
            .min_by_key(|a| self.face_count[a.index()])
            .expect("fragments have attachments");
        self.faces_at(*fewest).iter().copied().filter(move |f| {
            attachments
                .iter()
                .all(|&a| self.faces_at(a).binary_search(f).is_ok())
        })
    }

    /// The classical scan over the fragments in slot order: the first
    /// fragment with no admissible face proves non-planarity unless a
    /// fragment with exactly one comes earlier, which is then embedded;
    /// otherwise the first fragment goes into its earliest admissible face.
    fn choose(&self) -> Choice {
        let first_one = self.one_face.first();
        if let Some(s0) = self.no_face.first() {
            if first_one.is_none_or(|s1| s0 < s1) {
                return Choice::NonPlanar;
            }
        }
        if let Some(s1) = first_one {
            let id = self.slot_frag[s1 as usize];
            let face = self.admissible(self.attachments(id)).next();
            return Choice::Embed(id, face.expect("fragment in the one-face set"));
        }
        match self.live.first() {
            None => Choice::Done,
            Some(s) => {
                let id = self.slot_frag[s as usize];
                let face = self
                    .admissible(self.attachments(id))
                    .min_by_key(|&f| self.pos[f as usize])
                    .expect("fragment outside the side sets has >= 2 faces");
                Choice::Embed(id, face)
            }
        }
    }

    /// The side set a fragment with `count` admissible faces belongs to.
    fn side_set(&mut self, count: u32) -> Option<&mut SlotSet> {
        match count {
            0 => Some(&mut self.no_face),
            1 => Some(&mut self.one_face),
            _ => None,
        }
    }

    /// Registers a new fragment whose attachments are the pool's tail from
    /// `att_at` and whose interior is `interior[int_at..][..int_len]`.
    fn insert_fragment(&mut self, slot: u32, att_at: usize, int_at: usize, int_len: usize) {
        let id = self.frags.len() as FragId;
        let mut found = std::mem::take(&mut self.found);
        found.clear();
        found.extend(self.admissible(&self.att[att_at..]));
        for &f in &found {
            self.list_at(f, id);
        }
        let faces = found.len() as u32;
        self.found = found;
        if let Some(set) = self.side_set(faces) {
            set.insert(slot);
        }
        self.live.insert(slot);
        self.slot_frag[slot as usize] = id;
        for &x in &self.interior[int_at..int_at + int_len] {
            self.owner[x.index()] = id;
        }
        self.frags.push(Fragment {
            slot,
            att_at: att_at as u32,
            att_len: (self.att.len() - att_at) as u32,
            int_at: int_at as u32,
            int_len: int_len as u32,
            faces,
        });
    }

    /// Adds a chord fragment for every unembedded edge from a vertex of
    /// `fresh` (all just embedded) to an embedded vertex.
    fn add_chords(&mut self, fresh: &[VertexId]) {
        let e = self.next_epoch();
        for &p in fresh {
            self.stamp[p.index()] = e;
        }
        for &p in fresh {
            for &w in self.g.neighbors(p) {
                // An edge between two fresh vertices is added from its lower end.
                let twice = self.stamp[w.index()] == e && w < p;
                if self.in_s[w.index()] && !twice && !self.rot.is_embedded(p, w) {
                    let (lo, hi) = if p < w { (p, w) } else { (w, p) };
                    let at = self.att.len();
                    self.att.extend([lo, hi]);
                    self.insert_fragment(self.rot.arc(lo, hi), at, 0, 0);
                }
            }
        }
    }

    /// Adds a component fragment for every connected component of the
    /// unembedded vertices among `interior[at..][..len]` that `parent`
    /// owns, writing the components back into that range.
    fn add_components(&mut self, parent: FragId, at: usize, len: usize) {
        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.clear();
        candidates.extend_from_slice(&self.interior[at..at + len]);
        let mut end = at;
        for &start in &candidates {
            let s = start.index();
            if self.in_s[s] || self.owner[s] != parent {
                continue;
            }
            // Claim the component with a placeholder owner while collecting
            // it; `insert_fragment` then sets the real id.
            let claimed = self.frags.len() as FragId;
            let attach_epoch = self.next_epoch();
            let comp_at = end;
            let att_at = self.att.len();
            self.interior[end] = start;
            end += 1;
            self.owner[s] = claimed;
            let mut head = comp_at;
            while head < end {
                let x = self.interior[head];
                head += 1;
                for &w in self.g.neighbors(x) {
                    let wi = w.index();
                    if self.in_s[wi] {
                        if self.stamp[wi] != attach_epoch {
                            self.stamp[wi] = attach_epoch;
                            self.att.push(w);
                        }
                    } else if self.owner[wi] == parent {
                        self.owner[wi] = claimed;
                        self.interior[end] = w;
                        end += 1;
                    }
                }
            }
            self.att[att_at..].sort_unstable();
            debug_assert!(
                self.att.len() - att_at >= 2,
                "fragment of a 2-connected graph has >= 2 attachments"
            );
            let min = self.interior[comp_at..end]
                .iter()
                .min()
                .expect("component is non-empty");
            let slot = self.rot.arcs() + min.0;
            self.insert_fragment(slot, att_at, comp_at, end - comp_at);
        }
        self.candidates = candidates;
    }

    /// Drops the attachment ranges of dead fragments once they outweigh
    /// the live ones (and the fragment table a compaction walks), keeping
    /// the pool `O(n + m)`.
    fn reclaim_attachments(&mut self) {
        if self.dead_att * 2 <= self.att.len() || self.dead_att < self.frags.len() {
            return;
        }
        let mut end = 0;
        for id in 0..self.frags.len() {
            let f = self.frags[id];
            if self.slot_frag[f.slot as usize] != id as FragId {
                continue;
            }
            let at = f.att_at as usize;
            self.att.copy_within(at..at + f.att_len as usize, end);
            self.frags[id].att_at = end as u32;
            end += f.att_len as usize;
        }
        self.att.truncate(end);
        self.dead_att = 0;
    }

    /// A path through the fragment between its two smallest attachment
    /// vertices, with all interior vertices outside `S`: breadth-first from
    /// the first, stopping at the first vertex adjacent to the second.
    fn alpha_path(&mut self, id: FragId, path: &mut Vec<VertexId>) {
        path.clear();
        let frag = self.frags[id as usize];
        let (a1, a2) = (
            self.att[frag.att_at as usize],
            self.att[frag.att_at as usize + 1],
        );
        if frag.int_len == 0 {
            path.extend([a1, a2]);
            return;
        }
        let g = self.g;
        let e = self.next_epoch();
        let inside = |s: &Self, w: VertexId| !s.in_s[w.index()] && s.owner[w.index()] == id;
        self.queue.clear();
        self.stamp[a1.index()] = e;
        let mut head = 0;
        let mut x = a1;
        loop {
            if x != a1 && self.g.has_edge(x, a2) {
                path.extend([a2, x]);
                let mut cur = x;
                while cur != a1 {
                    cur = self.pred[cur.index()];
                    path.push(cur);
                }
                path.reverse();
                return;
            }
            for &w in g.neighbors(x) {
                if inside(self, w) && self.stamp[w.index()] != e {
                    self.stamp[w.index()] = e;
                    self.pred[w.index()] = x;
                    self.queue.push(w);
                }
            }
            x = *self
                .queue
                .get(head)
                .expect("fragment interior connects its attachments by construction");
            head += 1;
        }
    }

    /// Embeds a path of fragment `id` into face `face` and updates the
    /// fragments: `id` is replaced by its pieces, and fragments admissible
    /// in `face` are re-tested against its two halves.
    fn embed_fragment(&mut self, id: FragId, face: FaceId) {
        let mut path = std::mem::take(&mut self.path);
        self.alpha_path(id, &mut path);
        let (f1, f2) = self.embed_path(&path, face);

        let frag = self.frags[id as usize];
        self.live.remove(frag.slot);
        self.slot_frag[frag.slot as usize] = NONE;
        if let Some(set) = self.side_set(frag.faces) {
            set.remove(frag.slot);
        }
        self.dead_att += frag.att_len as usize;

        self.rehome(face, f1, f2);
        self.reclaim_attachments();
        let fresh = &path[1..path.len() - 1];
        if !fresh.is_empty() {
            self.add_chords(fresh);
            self.add_components(id, frag.int_at as usize, frag.int_len as usize);
        }
        self.path = path;
    }

    /// Stamps the vertices of the face through `corner` with `epoch`.
    fn stamp_face(&mut self, corner: u32, second: bool, epoch: u32) {
        let stamps = if second {
            &mut self.stamp2
        } else {
            &mut self.stamp
        };
        let mut c = corner;
        loop {
            stamps[self.corner_v[c as usize].index()] = epoch;
            c = self.corner_next[c as usize];
            if c == corner {
                break;
            }
        }
    }

    /// Re-tests the fragments admissible in the split face `old` against
    /// its halves `f1` and `f2`.
    fn rehome(&mut self, old: FaceId, f1: FaceId, f2: FaceId) {
        let (e1, e2) = (self.next_epoch(), self.next_epoch());
        self.stamp_face(self.face_corner[f1 as usize], false, e1);
        self.stamp_face(self.face_corner[f2 as usize], true, e2);
        let mut node = std::mem::replace(&mut self.face_frags[old as usize], NONE);
        while node != NONE {
            let id = self.node_frag[node as usize];
            let next = self.node_next[node as usize];
            self.node_next[node as usize] = self.free_node;
            self.free_node = node;
            node = next;
            let frag = self.frags[id as usize];
            // Dead fragments stay listed; a live one may reuse a dead slot.
            if self.slot_frag[frag.slot as usize] != id {
                continue;
            }
            let atts = self.attachments(id);
            let in1 = atts.iter().all(|a| self.stamp[a.index()] == e1);
            let in2 = atts.iter().all(|a| self.stamp2[a.index()] == e2);
            if in1 {
                self.list_at(f1, id);
            }
            if in2 {
                self.list_at(f2, id);
            }
            let before = frag.faces;
            let after = before - 1 + u32::from(in1) + u32::from(in2);
            self.frags[id as usize].faces = after;
            if before != after {
                if let Some(set) = self.side_set(before) {
                    set.remove(frag.slot);
                }
                if let Some(set) = self.side_set(after) {
                    set.insert(frag.slot);
                }
            }
        }
    }

    /// Embeds `path` (endpoints embedded and on face `face`, interior new)
    /// into the face, splitting it in two; returns the two new faces.
    fn embed_path(&mut self, path: &[VertexId], face: FaceId) -> (FaceId, FaceId) {
        let u = path[0];
        let v = *path.last().expect("path has >= 2 vertices");
        // Walk the face: find the corners of u and v, and take the face off
        // every vertex's list.
        let start = self.face_corner[face as usize];
        let (mut cu, mut cv) = (NONE, NONE);
        let mut c = start;
        loop {
            let x = self.corner_v[c as usize];
            if x == u {
                cu = c;
            } else if x == v {
                cv = c;
            }
            let at = self.rot.arc_start[x.index()] as usize;
            let count = self.face_count[x.index()] as usize;
            let list = &mut self.vertex_faces[at..at + count];
            let i = list
                .binary_search(&face)
                .expect("face listed at its vertices");
            list.copy_within(i + 1.., i);
            self.face_count[x.index()] -= 1;
            c = self.corner_next[c as usize];
            if c == start {
                break;
            }
        }
        debug_assert!(cu != NONE && cv != NONE, "path endpoints on the face");
        let a = self.corner_v[self.corner_prev[cu as usize] as usize]; // predecessor of u
        let c = self.corner_v[self.corner_prev[cv as usize] as usize]; // predecessor of v

        // Insert path[1] right after `a` in the rotation at u: the face
        // guarantees that u's face successor currently follows `a`, and the
        // new edge goes between. Likewise path[m-1] after `c` at v.
        let last = path.len() - 1;
        self.rot.insert_after(u, a, path[1]);
        self.rot.insert_after(v, c, path[last - 1]);
        // Interior vertices get the degree-2 rotation [prev, next].
        for t in 1..last {
            self.rot.start(path[t], path[t - 1], path[t + 1]);
            self.in_s[path[t].index()] = true;
        }
        self.embedded_edge_count += last;

        // Retire the face from the scan order (the last face takes its slot).
        let slot = self.pos[face as usize] as usize;
        self.order.swap_remove(slot);
        if let Some(&moved) = self.order.get(slot) {
            self.pos[moved as usize] = slot as u32;
        }

        // Split the face. With arc1 = u..v and arc2 = v..u along it:
        //   f1 = u ..arc1.. v, then the path interior reversed (v back to u);
        //   f2 = v ..arc2.. u, then the path interior forward (u to v).
        // f1 keeps the corners of u, arc1 and v; f2 keeps arc2's inner
        // corners and gets fresh corners for v, u and the interior.
        let arc2_first = self.corner_next[cv as usize];
        let arc2_last = self.corner_prev[cu as usize];
        let mut back = cv;
        for t in (1..last).rev() {
            let corner = self.new_corner(path[t]);
            self.link(back, corner);
            back = corner;
        }
        self.link(back, cu);
        let v2 = self.new_corner(v);
        let u2 = self.new_corner(u);
        if arc2_first == cu {
            self.link(v2, u2);
        } else {
            self.link(v2, arc2_first);
            self.link(arc2_last, u2);
        }
        let mut fwd = u2;
        for &p in &path[1..last] {
            let corner = self.new_corner(p);
            self.link(fwd, corner);
            fwd = corner;
        }
        self.link(fwd, v2);
        (self.push_face(cu), self.push_face(v2))
    }
}

/// Finds any cycle in `g` as a vertex list, or `None` if `g` is a forest.
fn find_cycle(g: &Graph) -> Option<Vec<VertexId>> {
    let n = g.vertex_count();
    let mut depth: Vec<Option<u32>> = vec![None; n];
    let mut parent: Vec<Option<VertexId>> = vec![None; n];
    for root in g.vertices() {
        if depth[root.index()].is_some() {
            continue;
        }
        // Iterative DFS.
        depth[root.index()] = Some(0);
        let mut stack = vec![(root, 0usize)];
        while let Some(&mut (v, ref mut next)) = stack.last_mut() {
            if *next < g.degree(v) {
                let w = g.neighbors(v)[*next];
                *next += 1;
                if depth[w.index()].is_none() {
                    depth[w.index()] = Some(depth[v.index()].unwrap() + 1);
                    parent[w.index()] = Some(v);
                    stack.push((w, 0));
                } else if Some(w) != parent[v.index()] && depth[w.index()] < depth[v.index()] {
                    // Back edge (v, w): cycle is w -> ... -> v via parents.
                    let mut cycle = vec![v];
                    let mut cur = v;
                    while cur != w {
                        cur = parent[cur.index()].expect("w is an ancestor of v");
                        cycle.push(cur);
                    }
                    cycle.reverse();
                    return Some(cycle);
                }
            } else {
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use planar_graph::RotationSystem;

    fn orders(g: &Graph, rot: &BlockRotation<'_>) -> Vec<Vec<VertexId>> {
        g.vertices().map(|v| rot.order(v).collect()).collect()
    }

    fn embed_and_verify(g: &Graph) -> RotationSystem {
        let rot = embed_biconnected(g).expect("graph should be planar");
        let rs = RotationSystem::new(g, orders(g, &rot)).expect("valid rotation");
        assert!(rs.is_planar_embedding(), "embedding must have genus 0");
        rs
    }

    #[test]
    fn cycle_embeds_with_two_faces() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let rs = embed_and_verify(&g);
        assert_eq!(rs.face_count(), 2);
    }

    #[test]
    fn k4_embeds_with_four_faces() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
        let rs = embed_and_verify(&g);
        assert_eq!(rs.face_count(), 4);
    }

    #[test]
    fn cube_graph_embeds() {
        // Q3: 8 vertices, 12 edges, 6 faces.
        let g = Graph::from_edges(
            8,
            [
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0), // bottom
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 4), // top
                (0, 4),
                (1, 5),
                (2, 6),
                (3, 7), // pillars
            ],
        )
        .unwrap();
        let rs = embed_and_verify(&g);
        assert_eq!(rs.face_count(), 6);
    }

    #[test]
    fn maximal_planar_octahedron() {
        // Octahedron: 6 vertices, 12 edges, 8 triangular faces.
        let g = Graph::from_edges(
            6,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (5, 1),
                (5, 2),
                (5, 3),
                (5, 4),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 1),
            ],
        )
        .unwrap();
        let rs = embed_and_verify(&g);
        assert_eq!(rs.face_count(), 8);
        for f in rs.faces() {
            assert_eq!(f.len(), 3);
        }
    }

    #[test]
    fn k5_is_nonplanar() {
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        let g = Graph::from_edges(5, edges).unwrap();
        // K5 has m = 10 > 3*5 - 6 = 9: caught by the edge bound.
        assert!(matches!(
            embed_biconnected(&g),
            Err(PlanarityError::TooManyEdges { .. })
        ));
    }

    #[test]
    fn k33_is_nonplanar() {
        let g = Graph::from_edges(
            6,
            [
                (0, 3),
                (0, 4),
                (0, 5),
                (1, 3),
                (1, 4),
                (1, 5),
                (2, 3),
                (2, 4),
                (2, 5),
            ],
        )
        .unwrap();
        // K3,3 passes the edge bound (9 <= 12) so DMP itself must reject it.
        assert!(matches!(
            embed_biconnected(&g),
            Err(PlanarityError::NonPlanar { .. })
        ));
    }

    #[test]
    fn k5_minus_edge_is_planar() {
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                if (u, v) != (0, 1) {
                    edges.push((u, v));
                }
            }
        }
        let g = Graph::from_edges(5, edges).unwrap();
        embed_and_verify(&g);
    }

    #[test]
    fn k33_minus_edge_is_planar() {
        let g = Graph::from_edges(
            6,
            [
                (0, 3),
                (0, 4),
                (0, 5),
                (1, 3),
                (1, 4),
                (1, 5),
                (2, 3),
                (2, 4),
            ],
        )
        .unwrap();
        embed_and_verify(&g);
    }

    #[test]
    fn single_edge_block() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let rot = orders(&g, &embed_biconnected(&g).unwrap());
        assert_eq!(rot[0], vec![VertexId(1)]);
        assert_eq!(rot[1], vec![VertexId(0)]);
    }

    #[test]
    fn slot_set_matches_an_ordered_set() {
        use std::collections::BTreeSet;
        // Three levels: 64 * 64 * 3 slots.
        let len = 64 * 64 * 3;
        let mut set = SlotSet::new(len);
        let mut oracle = BTreeSet::new();
        let mut x = 12345u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Cluster half the slots low so words empty and refill.
            let slot = if x.is_multiple_of(2) {
                x % 200
            } else {
                x % len as u64
            } as u32;
            if x.is_multiple_of(3) {
                set.remove(slot);
                oracle.remove(&slot);
            } else {
                set.insert(slot);
                oracle.insert(slot);
            }
            assert_eq!(set.first(), oracle.first().copied());
        }
        for slot in oracle.clone() {
            set.remove(slot);
            oracle.remove(&slot);
            assert_eq!(set.first(), oracle.first().copied());
        }
        assert_eq!(set.first(), None);
    }

    #[test]
    fn find_cycle_on_forest_is_none() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (1, 3)]).unwrap();
        assert!(find_cycle(&g).is_none());
    }

    #[test]
    fn find_cycle_returns_real_cycle() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5)]).unwrap();
        let c = find_cycle(&g).unwrap();
        assert!(c.len() >= 3);
        for i in 0..c.len() {
            assert!(g.has_edge(c[i], c[(i + 1) % c.len()]));
        }
    }

    #[test]
    fn grid_block_embeds() {
        // 4x4 grid: biconnected, 16 vertices, 24 edges, 10 faces.
        let idx = |r: u32, c: u32| r * 4 + c;
        let mut edges = Vec::new();
        for r in 0..4u32 {
            for c in 0..4u32 {
                if c + 1 < 4 {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < 4 {
                    edges.push((idx(r, c), idx(r + 1, c)));
                }
            }
        }
        let g = Graph::from_edges(16, edges).unwrap();
        let rs = embed_and_verify(&g);
        assert_eq!(rs.face_count(), 10); // Euler: F = 2 - V + E = 2 - 16 + 24
    }
}
