//! Charged store-and-forward routing ("communication choreography").
//!
//! The merge subroutines of the paper (Sections 5–7 of its full version)
//! move *summaries* — interface descriptions, flip bits, arrangement orders —
//! between part leaders, coordinators and boundary vertices. We account for
//! those movements with an explicit packet-level schedule: every transfer is
//! split into packets of at most the per-edge word budget, packets advance
//! one hop per round, and each directed edge carries at most `budget` words
//! per round. The number of rounds until all packets arrive is exactly the
//! CONGEST cost of the data movement, including all congestion effects
//! (pipelining along paths, queueing where transfers share edges).
//!
//! This is the "charged choreography" layer described in DESIGN.md §1: the
//! decision logic of a merge may run at a coordinator, but all information
//! it consumes and produces is paid for here.

use std::borrow::Cow;
use std::error::Error;
use std::fmt;

use planar_graph::{ArcIndex, Graph, VertexId};

use crate::metrics::Metrics;

/// A point-to-point transfer along an explicit routing path.
///
/// The path is either owned ([`Transfer::new`]) or borrowed from the
/// caller's route storage ([`Transfer::along`], [`Transfer::back`]), so a
/// summary and its reply can share one stored route.
#[derive(Clone, Debug)]
pub struct Transfer<'a> {
    /// The route: consecutive entries must be adjacent in the network. The
    /// payload travels from the first entry to the last, or from the last
    /// to the first when [`reversed`](Self::reversed) is set.
    pub path: Cow<'a, [VertexId]>,
    /// Whether the payload travels `path` backwards.
    pub reversed: bool,
    /// Payload size in `O(log n)`-bit words.
    pub words: usize,
}

impl Transfer<'static> {
    /// Creates a transfer of `words` words along an owned `path`.
    pub fn new(path: Vec<VertexId>, words: usize) -> Self {
        Transfer {
            path: Cow::Owned(path),
            reversed: false,
            words,
        }
    }
}

impl<'a> Transfer<'a> {
    /// A transfer of `words` words along a borrowed `path`, first entry to
    /// last.
    pub fn along(path: &'a [VertexId], words: usize) -> Self {
        Transfer {
            path: Cow::Borrowed(path),
            reversed: false,
            words,
        }
    }

    /// A transfer of `words` words along a borrowed `path`, last entry to
    /// first: the reply to [`Transfer::along`] on the same route.
    pub fn back(path: &'a [VertexId], words: usize) -> Self {
        Transfer {
            path: Cow::Borrowed(path),
            reversed: true,
            words,
        }
    }

    /// The hops of the route in travel order.
    fn hops(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        let path = &self.path[..];
        let k = path.len().saturating_sub(1);
        let reversed = self.reversed;
        (0..k).map(move |i| {
            if reversed {
                (path[k - i], path[k - i - 1])
            } else {
                (path[i], path[i + 1])
            }
        })
    }
}

/// Errors produced by [`schedule`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RoutingError {
    /// Two consecutive path vertices are not adjacent in the network.
    NonAdjacentHop {
        /// First vertex of the invalid hop.
        a: VertexId,
        /// Second vertex of the invalid hop.
        b: VertexId,
    },
    /// A transfer has an empty path.
    EmptyPath,
}

impl fmt::Display for RoutingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingError::NonAdjacentHop { a, b } => {
                write!(f, "routing path uses non-edge {a}-{b}")
            }
            RoutingError::EmptyPath => write!(f, "routing path is empty"),
        }
    }
}

impl Error for RoutingError {}

/// Schedules all transfers concurrently under the per-edge budget and
/// returns the cost of the resulting store-and-forward execution.
///
/// Packets are served per directed edge in a deterministic FIFO-by-id order;
/// the schedule is work-conserving, so the returned round count is an
/// honest (if not necessarily optimal) CONGEST execution of the transfers.
///
/// One-shot wrapper around [`Router::schedule`]: it builds `g`'s arc index
/// and fresh tables per call. Callers that schedule repeatedly over one
/// graph hold a [`Router`] and the graph's [`ArcIndex`] instead.
///
/// # Errors
///
/// Returns [`RoutingError`] if any path is empty or uses a non-edge.
pub fn schedule(
    g: &Graph,
    transfers: &[Transfer<'_>],
    budget_words: usize,
) -> Result<Metrics, RoutingError> {
    let views = transfers.iter().map(|t| Transfer {
        path: Cow::Borrowed(&t.path[..]),
        reversed: t.reversed,
        words: t.words,
    });
    Router::default().schedule(&g.arc_index(), views, budget_words)
}

/// One packet of a transfer: its hops are `Router::hop_arcs[first..first +
/// hops]`, of which the first `pos` are done.
#[derive(Clone, Copy, Debug)]
struct Packet {
    first: usize,
    hops: usize,
    pos: usize,
    words: usize,
}

/// The tables of [`schedule`], kept between calls so that repeated
/// scheduling over one graph allocates nothing once they have grown: every
/// hop is resolved to its directed arc once, when its path is validated,
/// and per-round edge loads live in a flat per-arc table that is reset
/// through the list of arcs the round touched.
#[derive(Debug, Default)]
pub struct Router {
    hop_arcs: Vec<u32>,
    packets: Vec<Packet>,
    live: Vec<usize>,
    still_live: Vec<usize>,
    /// Words carried per directed arc in the current round.
    load: Vec<u32>,
    /// Arcs with a nonzero `load` this round.
    touched: Vec<u32>,
}

impl Router {
    /// Heap bytes the tables reserve.
    pub fn memory_bytes(&self) -> usize {
        (self.hop_arcs.capacity() + self.load.capacity() + self.touched.capacity()) * 4
            + self.packets.capacity() * std::mem::size_of::<Packet>()
            + (self.live.capacity() + self.still_live.capacity()) * std::mem::size_of::<usize>()
    }

    /// [`schedule`] over the graph `idx` was built from, reusing this
    /// router's tables. Outcome-invariant: only buffer capacity survives
    /// between calls.
    ///
    /// # Errors
    ///
    /// As [`schedule`].
    ///
    /// # Panics
    ///
    /// Panics if `budget_words` is zero or exceeds `u32::MAX`.
    pub fn schedule<'t>(
        &mut self,
        idx: &ArcIndex,
        transfers: impl IntoIterator<Item = Transfer<'t>>,
        budget_words: usize,
    ) -> Result<Metrics, RoutingError> {
        assert!(budget_words >= 1, "budget must allow at least one word");
        assert!(
            u32::try_from(budget_words).is_ok(),
            "budget must fit the per-arc load table"
        );
        let n = idx.vertex_count();
        // Validate each path, resolving every hop to its directed arc, and
        // split the transfer into packets of at most `budget_words` words.
        // The first invalid path aborts the call before anything moves.
        self.hop_arcs.clear();
        self.packets.clear();
        for t in transfers {
            if t.path.is_empty() {
                return Err(RoutingError::EmptyPath);
            }
            let first = self.hop_arcs.len();
            for (a, b) in t.hops() {
                let arc = (a.index() < n).then(|| idx.arc(a, b)).flatten();
                let arc = arc.ok_or(RoutingError::NonAdjacentHop { a, b })?;
                self.hop_arcs.push(arc.0);
            }
            let hops = self.hop_arcs.len() - first;
            if hops == 0 {
                continue; // already delivered
            }
            let mut remaining = t.words;
            while remaining > 0 {
                let w = remaining.min(budget_words);
                self.packets.push(Packet {
                    first,
                    hops,
                    pos: 0,
                    words: w,
                });
                remaining -= w;
            }
        }

        if self.load.len() < idx.arc_count() {
            self.load.resize(idx.arc_count(), 0);
        }
        let mut metrics = Metrics::new();
        self.live.clear();
        self.live.extend(0..self.packets.len());
        while !self.live.is_empty() {
            metrics.rounds += 1;
            let mut round_max = 0usize;
            let mut moved_any = false;
            self.still_live.clear();
            for &pi in &self.live {
                let p = &mut self.packets[pi];
                let arc = self.hop_arcs[p.first + p.pos];
                let load = &mut self.load[arc as usize];
                if *load == 0 {
                    self.touched.push(arc);
                }
                // The budget fits a u32 (asserted above), so a load that
                // passes this test does too.
                let after = *load as usize + p.words;
                if after <= budget_words {
                    *load = after as u32;
                    round_max = round_max.max(after);
                    p.pos += 1;
                    moved_any = true;
                    metrics.messages += 1;
                    metrics.words += p.words;
                    if p.pos < p.hops {
                        self.still_live.push(pi);
                    }
                } else {
                    self.still_live.push(pi);
                }
            }
            debug_assert!(moved_any, "work-conserving schedule always advances");
            for &arc in &self.touched {
                self.load[arc as usize] = 0;
            }
            self.touched.clear();
            metrics.max_words_edge_round = metrics.max_words_edge_round.max(round_max);
            std::mem::swap(&mut self.live, &mut self.still_live);
        }
        Ok(metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        Graph::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1))).unwrap()
    }

    fn vpath(ids: &[u32]) -> Vec<VertexId> {
        ids.iter().map(|&i| VertexId(i)).collect()
    }

    #[test]
    fn single_small_transfer_takes_path_length() {
        let g = path_graph(5);
        let t = Transfer::new(vpath(&[0, 1, 2, 3, 4]), 3);
        let m = schedule(&g, &[t], 8).unwrap();
        assert_eq!(m.rounds, 4);
        assert_eq!(m.messages, 4);
        assert_eq!(m.words, 12);
    }

    #[test]
    fn large_transfer_pipelines() {
        // 80 words over budget 8 = 10 packets along a 4-hop path:
        // store-and-forward pipelining: hops + packets - 1 = 4 + 9 = 13.
        let g = path_graph(5);
        let t = Transfer::new(vpath(&[0, 1, 2, 3, 4]), 80);
        let m = schedule(&g, &[t], 8).unwrap();
        assert_eq!(m.rounds, 13);
        assert_eq!(m.max_words_edge_round, 8);
    }

    #[test]
    fn contention_serializes() {
        // Two transfers sharing the single edge 0-1, each one full packet:
        // the second waits one round.
        let g = path_graph(2);
        let ts = vec![
            Transfer::new(vpath(&[0, 1]), 8),
            Transfer::new(vpath(&[0, 1]), 8),
        ];
        let m = schedule(&g, &ts, 8).unwrap();
        assert_eq!(m.rounds, 2);
    }

    #[test]
    fn small_transfers_share_an_edge_round() {
        let g = path_graph(2);
        let ts = vec![
            Transfer::new(vpath(&[0, 1]), 3),
            Transfer::new(vpath(&[0, 1]), 3),
        ];
        let m = schedule(&g, &ts, 8).unwrap();
        assert_eq!(m.rounds, 1);
        assert_eq!(m.max_words_edge_round, 6);
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        let g = path_graph(2);
        let ts = vec![
            Transfer::new(vpath(&[0, 1]), 8),
            Transfer::new(vpath(&[1, 0]), 8),
        ];
        let m = schedule(&g, &ts, 8).unwrap();
        assert_eq!(m.rounds, 1);
    }

    #[test]
    fn zero_word_and_self_transfers_are_free() {
        let g = path_graph(3);
        let ts = vec![
            Transfer::new(vpath(&[0]), 100),
            Transfer::new(vpath(&[0, 1]), 0),
        ];
        let m = schedule(&g, &ts, 8).unwrap();
        assert_eq!(m.rounds, 0);
    }

    #[test]
    fn rejects_bad_paths() {
        let g = path_graph(4);
        assert_eq!(
            schedule(&g, &[Transfer::new(vpath(&[0, 2]), 1)], 8),
            Err(RoutingError::NonAdjacentHop {
                a: VertexId(0),
                b: VertexId(2)
            })
        );
        assert_eq!(
            schedule(&g, &[Transfer::new(Vec::new(), 1)], 8),
            Err(RoutingError::EmptyPath)
        );
    }

    /// First-fit, FIFO by id: a packet that does not fit its edge this
    /// round waits, and a later, smaller packet that does fit goes ahead.
    #[test]
    fn first_fit_lets_a_small_packet_pass_a_blocked_one() {
        let g = path_graph(2);
        let ts = vec![
            Transfer::new(vpath(&[0, 1]), 6),
            Transfer::new(vpath(&[0, 1]), 6),
            Transfer::new(vpath(&[0, 1]), 2),
        ];
        let m = schedule(&g, &ts, 8).unwrap();
        assert_eq!(m.rounds, 2);
        assert_eq!(m.max_words_edge_round, 8);
        assert_eq!(m.messages, 3);
        assert_eq!(m.words, 14);
    }

    /// The multi-hop version: the 2-word packet passes the blocked 6-word
    /// packet on the shared first edge and stays a hop ahead of it, and the
    /// blocked one then pipelines to its end.
    #[test]
    fn blocked_packet_is_overtaken_on_a_multi_hop_route() {
        let g = path_graph(4);
        let ts = vec![
            Transfer::new(vpath(&[0, 1]), 6),
            Transfer::new(vpath(&[0, 1, 2, 3]), 6),
            Transfer::new(vpath(&[0, 1, 2]), 2),
        ];
        let m = schedule(&g, &ts, 8).unwrap();
        assert_eq!(m.rounds, 4);
        assert_eq!(m.messages, 6);
        assert_eq!(m.words, 6 + 3 * 6 + 2 * 2);
        assert_eq!(m.max_words_edge_round, 8);
    }

    /// Borrowed routes cost what owned ones do, a reply on a shared route
    /// costs what an owned reversed copy does, and a reused router repeats
    /// a fresh one.
    #[test]
    fn borrowed_and_reused_routes_match_owned_ones() {
        let g = path_graph(5);
        let route = vpath(&[0, 1, 2, 3]);
        let back: Vec<VertexId> = route.iter().rev().copied().collect();
        let owned = vec![
            Transfer::new(route.clone(), 11),
            Transfer::new(back, 11),
            Transfer::new(vpath(&[2, 3, 4]), 5),
        ];
        let borrowed = vec![
            Transfer::along(&route, 11),
            Transfer::back(&route, 11),
            Transfer::new(vpath(&[2, 3, 4]), 5),
        ];
        let expected = schedule(&g, &owned, 8).unwrap();
        assert_eq!(schedule(&g, &borrowed, 8).unwrap(), expected);
        let idx = g.arc_index();
        let mut router = Router::default();
        for _ in 0..2 {
            let again = borrowed.iter().cloned();
            assert_eq!(router.schedule(&idx, again, 8).unwrap(), expected);
            let tail = owned[2..].iter().cloned();
            assert_eq!(router.schedule(&idx, tail, 3).unwrap().rounds, 3);
        }
        assert_eq!(
            schedule(&g, &[Transfer::back(&vpath(&[0, 2]), 1)], 8),
            Err(RoutingError::NonAdjacentHop {
                a: VertexId(2),
                b: VertexId(0)
            })
        );
    }

    #[test]
    fn many_parallel_disjoint_transfers_take_one_round() {
        let n = 20;
        let g = path_graph(n);
        let ts: Vec<Transfer> = (0..n as u32 - 1)
            .map(|i| Transfer::new(vpath(&[i, i + 1]), 4))
            .collect();
        let m = schedule(&g, &ts, 8).unwrap();
        assert_eq!(m.rounds, 1);
        assert_eq!(m.messages, n - 1);
    }
}
