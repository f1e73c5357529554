//! The whole-graph-rescan DMP embedder, frozen as the oracle for
//! [`planar_lib::embed`].
//!
//! `planar_lib` maintains the DMP fragments, their admissible faces and the
//! faces at each vertex incrementally across path embeddings. This is the
//! textbook form it replaced: every step recomputes all fragments and every
//! face's vertex set, then scans the fragments in order. Both make the same
//! choices, so [`embed`] here and [`planar_lib::embed`] must return identical
//! rotations and identical errors (`dmp_conformance.rs`, its only user).

use std::collections::{HashSet, VecDeque};

use planar_graph::biconnected::BiconnectedDecomposition;
use planar_graph::{EdgeId, Graph, RotationSystem, VertexId};
use planar_lib::PlanarityError;

/// [`planar_lib::embed`] with the rescanning block embedder: the same
/// density guard and the same block composition at cut vertices.
///
/// # Errors
///
/// Returns [`PlanarityError::TooManyEdges`] or [`PlanarityError::NonPlanar`]
/// when `g` is not planar.
pub fn embed(g: &Graph) -> Result<RotationSystem, PlanarityError> {
    let n = g.vertex_count();
    let m = g.edge_count();
    if n >= 3 && m > 3 * n - 6 {
        return Err(PlanarityError::TooManyEdges { n, m });
    }
    let bc = BiconnectedDecomposition::compute(g);
    let mut rot: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    for b in 0..bc.block_count() {
        let verts = bc.block_vertices(b);
        // Every edge between two vertices of a block belongs to that block.
        let (block, _) = g
            .induced_subgraph(&verts)
            .expect("block vertices are distinct");
        let sub_rot = embed_biconnected(&block)?;
        for (i, order) in sub_rot.into_iter().enumerate() {
            rot[verts[i].index()].extend(order.into_iter().map(|w| verts[w.index()]));
        }
    }
    Ok(RotationSystem::new(g, rot).expect("block composition yields valid rotations"))
}

/// A fragment of the unembedded part relative to the embedded subgraph `S`.
struct Fragment {
    /// Attachment vertices (embedded vertices touched by the fragment), sorted.
    attachments: Vec<VertexId>,
    /// Vertices of the fragment outside `S` (empty for a chord).
    interior: Vec<VertexId>,
    /// For a chord fragment, the chord edge.
    chord: Option<EdgeId>,
}

fn embed_biconnected(g: &Graph) -> Result<Vec<Vec<VertexId>>, PlanarityError> {
    let n = g.vertex_count();
    let m = g.edge_count();
    if m == 0 {
        return Ok(vec![Vec::new(); n]);
    }
    if m == 1 {
        let e = g.edges().next().expect("m == 1");
        let mut rot = vec![Vec::new(); n];
        rot[e.lo().index()].push(e.hi());
        rot[e.hi().index()].push(e.lo());
        return Ok(rot);
    }
    if n >= 3 && m > 3 * n - 6 {
        return Err(PlanarityError::TooManyEdges { n, m });
    }

    let mut state = DmpState::new(g);
    state.embed_initial_cycle();
    loop {
        let fragments = state.fragments();
        if fragments.is_empty() {
            break;
        }
        let face_sets: Vec<HashSet<VertexId>> = state
            .faces
            .iter()
            .map(|f| f.iter().copied().collect())
            .collect();
        let mut choice: Option<(usize, usize)> = None; // (fragment, face)
        for (fi, frag) in fragments.iter().enumerate() {
            let admissible: Vec<usize> = face_sets
                .iter()
                .enumerate()
                .filter(|(_, fs)| frag.attachments.iter().all(|a| fs.contains(a)))
                .map(|(i, _)| i)
                .collect();
            match admissible.len() {
                0 => {
                    return Err(PlanarityError::NonPlanar {
                        embedded_edges: state.edge_embedded.len(),
                    })
                }
                1 => {
                    choice = Some((fi, admissible[0]));
                    break;
                }
                _ => {
                    if choice.is_none() {
                        choice = Some((fi, admissible[0]));
                    }
                }
            }
        }
        let (fi, face_idx) = choice.expect("non-empty fragment list yields a choice");
        let path = state.alpha_path(&fragments[fi]);
        state.embed_path(&path, face_idx);
    }
    Ok(state.rot)
}

struct DmpState<'g> {
    g: &'g Graph,
    in_s: Vec<bool>,
    edge_embedded: HashSet<EdgeId>,
    rot: Vec<Vec<VertexId>>,
    /// Faces as directed vertex cycles, in scan order.
    faces: Vec<Vec<VertexId>>,
}

impl<'g> DmpState<'g> {
    fn new(g: &'g Graph) -> Self {
        DmpState {
            g,
            in_s: vec![false; g.vertex_count()],
            edge_embedded: HashSet::new(),
            rot: vec![Vec::new(); g.vertex_count()],
            faces: Vec::new(),
        }
    }

    fn embed_initial_cycle(&mut self) {
        let cycle = find_cycle(self.g).expect("biconnected graph with >= 2 edges has a cycle");
        let k = cycle.len();
        for i in 0..k {
            let prev = cycle[(i + k - 1) % k];
            let next = cycle[(i + 1) % k];
            let v = cycle[i];
            self.rot[v.index()] = vec![prev, next];
            self.in_s[v.index()] = true;
            self.edge_embedded.insert(EdgeId::new(v, next));
        }
        let bwd: Vec<VertexId> = cycle.iter().rev().copied().collect();
        self.faces = vec![cycle, bwd];
    }

    /// Recomputes every fragment: chords in edge order, then the components
    /// of `G - S` in order of their smallest vertex.
    fn fragments(&self) -> Vec<Fragment> {
        let mut frags = Vec::new();
        for e in self.g.edges() {
            if !self.edge_embedded.contains(&e)
                && self.in_s[e.lo().index()]
                && self.in_s[e.hi().index()]
            {
                frags.push(Fragment {
                    attachments: vec![e.lo(), e.hi()],
                    interior: Vec::new(),
                    chord: Some(e),
                });
            }
        }
        let mut seen = vec![false; self.g.vertex_count()];
        for v in self.g.vertices() {
            if self.in_s[v.index()] || seen[v.index()] {
                continue;
            }
            let mut comp = Vec::new();
            let mut attach = HashSet::new();
            let mut queue = VecDeque::from([v]);
            seen[v.index()] = true;
            while let Some(x) = queue.pop_front() {
                comp.push(x);
                for &w in self.g.neighbors(x) {
                    if self.in_s[w.index()] {
                        attach.insert(w);
                    } else if !seen[w.index()] {
                        seen[w.index()] = true;
                        queue.push_back(w);
                    }
                }
            }
            let mut attachments: Vec<VertexId> = attach.into_iter().collect();
            attachments.sort();
            frags.push(Fragment {
                attachments,
                interior: comp,
                chord: None,
            });
        }
        frags
    }

    /// Breadth-first path from the first attachment to the second through
    /// the fragment's interior.
    fn alpha_path(&self, frag: &Fragment) -> Vec<VertexId> {
        if let Some(chord) = frag.chord {
            return vec![chord.lo(), chord.hi()];
        }
        let a1 = frag.attachments[0];
        let a2 = frag.attachments[1];
        let in_interior: HashSet<VertexId> = frag.interior.iter().copied().collect();
        let mut pred: Vec<Option<VertexId>> = vec![None; self.g.vertex_count()];
        let mut seen = vec![false; self.g.vertex_count()];
        let mut queue = VecDeque::new();
        seen[a1.index()] = true;
        for &w in self.g.neighbors(a1) {
            if in_interior.contains(&w) && !seen[w.index()] {
                seen[w.index()] = true;
                pred[w.index()] = Some(a1);
                queue.push_back(w);
            }
        }
        while let Some(x) = queue.pop_front() {
            if self.g.has_edge(x, a2) {
                let mut path = vec![a2, x];
                let mut cur = x;
                while let Some(p) = pred[cur.index()] {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return path;
            }
            for &w in self.g.neighbors(x) {
                if in_interior.contains(&w) && !seen[w.index()] {
                    seen[w.index()] = true;
                    pred[w.index()] = Some(x);
                    queue.push_back(w);
                }
            }
        }
        unreachable!("fragment interior connects its attachments by construction")
    }

    /// Embeds `path` into face `face_idx`, splitting it in two: the face is
    /// `swap_remove`d and its halves pushed.
    fn embed_path(&mut self, path: &[VertexId], face_idx: usize) {
        let f = self.faces.swap_remove(face_idx);
        let k = f.len();
        let u = path[0];
        let v = *path.last().expect("path has >= 2 vertices");
        let i = f.iter().position(|&x| x == u).expect("u on face");
        let j = f.iter().position(|&x| x == v).expect("v on face");
        let a = f[(i + k - 1) % k];
        let c = f[(j + k - 1) % k];
        let pos_a = self.rot[u.index()]
            .iter()
            .position(|&x| x == a)
            .expect("face predecessor present in rotation");
        self.rot[u.index()].insert(pos_a + 1, path[1]);
        let pos_c = self.rot[v.index()]
            .iter()
            .position(|&x| x == c)
            .expect("face predecessor present in rotation");
        self.rot[v.index()].insert(pos_c + 1, path[path.len() - 2]);
        for t in 1..path.len() - 1 {
            let p = path[t];
            self.rot[p.index()] = vec![path[t - 1], path[t + 1]];
            self.in_s[p.index()] = true;
        }
        for t in 0..path.len() - 1 {
            self.edge_embedded.insert(EdgeId::new(path[t], path[t + 1]));
        }
        let mut arc1 = Vec::new();
        let mut t = i;
        loop {
            arc1.push(f[t]);
            if t == j {
                break;
            }
            t = (t + 1) % k;
        }
        let mut arc2 = Vec::new();
        let mut t = j;
        loop {
            arc2.push(f[t]);
            if t == i {
                break;
            }
            t = (t + 1) % k;
        }
        arc1.extend(path[1..path.len() - 1].iter().rev());
        arc2.extend(path[1..path.len() - 1].iter());
        self.faces.push(arc1);
        self.faces.push(arc2);
    }
}

/// The first cycle a depth-first search closes, as a vertex list.
fn find_cycle(g: &Graph) -> Option<Vec<VertexId>> {
    let n = g.vertex_count();
    let mut depth: Vec<Option<u32>> = vec![None; n];
    let mut parent: Vec<Option<VertexId>> = vec![None; n];
    for root in g.vertices() {
        if depth[root.index()].is_some() {
            continue;
        }
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
