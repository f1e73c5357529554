//! Broadcasting programs shared by the kernel suites.
//!
//! Each program here addresses its sends to every neighbor as one
//! [`BROADCAST`]. [`Expanded`] rewrites a program's broadcasts by hand into
//! the unicasts a broadcast is defined as (one per neighbor, ascending, at
//! the broadcast's position in the outbox), so a suite can check that the
//! two spellings of the same sends are observationally identical: same
//! states, metrics, errors and trace events, on both kernels.

// Each suite uses its own subset of these programs.
#![allow(dead_code)]

use congest_sim::{NodeCtx, NodeProgram, BROADCAST};
use planar_graph::VertexId;

/// Max-flood over broadcasts: every node announces its value, then
/// re-announces each improvement. It logs every delivery as
/// `(round, from, value)`, so a stray or missing delivery changes its
/// state, not just the metrics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BcastFlood {
    pub best: u32,
    pub log: Vec<(usize, u32, u32)>,
}

impl NodeProgram for BcastFlood {
    type Msg = u32;

    fn init(&mut self, _ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, u32)>) {
        out.push((BROADCAST, self.best));
    }

    fn on_round(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: &[(VertexId, u32)],
        out: &mut Vec<(VertexId, u32)>,
    ) {
        for &(from, v) in inbox {
            self.log.push((ctx.round, from.0, v));
        }
        let incoming = inbox.iter().map(|&(_, v)| v).max().unwrap_or(0);
        if incoming > self.best {
            self.best = incoming;
            out.push((BROADCAST, self.best));
        }
    }
}

/// Max-flood programs for vertices `0..n`, seeded like the suites' own
/// `MaxFlood` workloads.
pub fn bcast_floods(n: usize) -> Vec<BcastFlood> {
    (0..n)
        .map(|i| BcastFlood {
            best: (i as u32 * 7) % 64,
            log: Vec::new(),
        })
        .collect()
}

/// Inbox transcript over broadcasts: logs every delivery as
/// `(round, from, value)` and, until round `hops`, broadcasts the smallest
/// value it received plus one. Values start at `id << 8`, so early
/// messages exceed a small graph's word width and take the kernel's native
/// side table, later ones pack. With `extra`, every step also sends its
/// first neighbor a second message after the broadcast: a step that mixes
/// a broadcast with a unicast, two words on one edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BcastTranscript {
    pub log: Vec<(usize, u32, u64)>,
    pub hops: usize,
    pub extra: bool,
}

impl BcastTranscript {
    fn send(&self, ctx: &NodeCtx<'_>, value: u64, out: &mut Vec<(VertexId, u64)>) {
        out.push((BROADCAST, value));
        if self.extra {
            out.extend(ctx.neighbors.first().map(|&w| (w, value + 1000)));
        }
    }
}

impl NodeProgram for BcastTranscript {
    type Msg = u64;

    fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, u64)>) {
        self.send(ctx, u64::from(ctx.id.0) << 8, out);
    }

    fn on_round(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: &[(VertexId, u64)],
        out: &mut Vec<(VertexId, u64)>,
    ) {
        for &(from, v) in inbox {
            self.log.push((ctx.round, from.0, v));
        }
        if ctx.round < self.hops {
            let min = inbox.iter().map(|&(_, v)| v).min().unwrap_or(0);
            self.send(ctx, min + 1, out);
        }
    }
}

/// Transcript programs for vertices `0..n`.
pub fn bcast_transcripts(n: usize, extra: bool) -> Vec<BcastTranscript> {
    vec![
        BcastTranscript {
            log: Vec::new(),
            hops: 6,
            extra,
        };
        n
    ]
}

/// `P` with its broadcasts expanded by hand: the unicast spelling of the
/// same sends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expanded<P>(pub P);

/// Moves `sends` onto `out`, each broadcast as one send per neighbor.
fn expand<M: Clone>(ctx: &NodeCtx<'_>, sends: Vec<(VertexId, M)>, out: &mut Vec<(VertexId, M)>) {
    for (to, msg) in sends {
        if to == BROADCAST {
            out.extend(ctx.neighbors.iter().map(|&w| (w, msg.clone())));
        } else {
            out.push((to, msg));
        }
    }
}

impl<P: NodeProgram> NodeProgram for Expanded<P> {
    type Msg = P::Msg;

    fn init(&mut self, ctx: &NodeCtx<'_>, out: &mut Vec<(VertexId, P::Msg)>) {
        let mut sends = Vec::new();
        self.0.init(ctx, &mut sends);
        expand(ctx, sends, out);
    }

    fn on_round(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: &[(VertexId, P::Msg)],
        out: &mut Vec<(VertexId, P::Msg)>,
    ) {
        let mut sends = Vec::new();
        self.0.on_round(ctx, inbox, &mut sends);
        expand(ctx, sends, out);
    }

    fn wants_tick(&self) -> bool {
        self.0.wants_tick()
    }
}

/// Every program of `programs` expanded.
pub fn expanded<P>(programs: Vec<P>) -> Vec<Expanded<P>> {
    programs.into_iter().map(Expanded).collect()
}
