//! Declared communication schedules for the ring algorithms.
//!
//! Each of the paper's ring algorithms (Alg. 2–4) follows a fixed,
//! data-independent communication schedule: which peer every rank talks to
//! at every step, which message variant it carries, and how many wire
//! bytes move. This module *declares* those schedules as [`CommPlan`]
//! data, derived from the same inputs the algorithms run on (byte counts
//! come from [`Wire::wire_bytes`] on skeleton messages, so plan and live
//! traffic agree by construction).
//!
//! The plans feed two static-analysis layers:
//!
//! * the `cp-verify` model checker proves deadlock-freedom, variant
//!   agreement, ring-step ordering, and wire-byte conservation offline;
//! * [`cp_comm::CheckedFabric`] enforces the same plan against live
//!   traffic at runtime ([`run_ring_checked`]), sanitizer-style.
//!
//! To add a schedule for a new collective, declare a builder here that
//! emits one [`cp_comm::RankPlan`] per rank and derives every byte count
//! from the payload type's `Wire` impl — never hand-compute sizes.
//! [`ring_plan`] maps a ring schedule cell ([`RingSpec`]) to its builder.

use cp_attention::AttentionParams;
pub use cp_comm::Topology;
use cp_comm::{CheckedFabric, CommOp, CommPlan, Communicator, RankPlan, TrafficReport, Wire};

use crate::error::to_comm_error;
use crate::messages::{
    split_slot_vec, DecodeSlot, LocalSeq, QuantSeqKv, RingMsg, SeqKv, SeqQ, ELEM_BYTES,
};
use crate::spec::{RingAlgo, RingSpec, RingWire};
use crate::CoreError;
use cp_kvcache::QuantizedKv;
use cp_perf::RingDirection;

/// Which rank's block rank `rank` holds at ring step `step` (0-based), for
/// a `world`-rank ring rotating towards `rank + 1`.
///
/// Step 0 is before any exchange (every rank holds its own block); after
/// each hop the block that originated at `origin` moves one rank forward,
/// so `origin = (rank + world - step) mod world`. The ring algorithms and
/// the plan builders both use this single definition, and pass-Q / decode
/// validate the `origin` tag of every received message against it.
pub fn ring_origin(rank: usize, world: usize, step: usize) -> usize {
    (rank + world - (step % world)) % world
}

/// Reverse-direction twin of [`ring_origin`]: which rank's block rank
/// `rank` holds at step `step` on the ring rotating towards `rank - 1`.
/// The bidirectional schedules circulate the second half of every payload
/// along this path while the first half follows [`ring_origin`].
pub fn ring_origin_rev(rank: usize, world: usize, step: usize) -> usize {
    (rank + (step % world)) % world
}

/// Forward hierarchical origin: which rank's block `rank` holds at `step`
/// on the topology-aware ring. Writing `rank = (node, lane)` and `step =
/// m·g + k` (with `g = ranks_per_node`), the visiting block's origin is
/// `((node - m) mod N, (lane - (m·(g-1) + k)) mod g)`: the schedule walks
/// all `g` lanes of a node between consecutive cross-node exchanges, so
/// only every `g`-th hop crosses nodes ([`hier_hop_is_cross`]).
fn hier_origin(topo: Topology, rank: usize, step: usize) -> usize {
    let (nn, g) = (topo.nodes.max(1), topo.ranks_per_node.max(1));
    let w = nn * g;
    let step = step % w;
    let (m, k) = (step / g, step % g);
    let (node, lane) = (rank / g, rank % g);
    let o_node = (node + nn - m) % nn;
    let o_lane = (lane + g - (m * (g - 1) + k) % g) % g;
    o_node * g + o_lane
}

/// Reverse hierarchical origin — the mirror image of [`hier_origin`]:
/// `((node + m) mod N, (lane + m·(g-1) + k) mod g)`.
fn hier_origin_rev(topo: Topology, rank: usize, step: usize) -> usize {
    let (nn, g) = (topo.nodes.max(1), topo.ranks_per_node.max(1));
    let w = nn * g;
    let step = step % w;
    let (m, k) = (step / g, step % g);
    let (node, lane) = (rank / g, rank % g);
    let o_node = (node + m) % nn;
    let o_lane = (lane + (m * (g - 1) + k) % g) % g;
    o_node * g + o_lane
}

/// Whether hop `hop` of the hierarchical schedule crosses nodes. Hop `j`
/// delivers step `j+1`'s block, so the cross-node exchange lands on every
/// `g`-th hop (`(j+1) % g == 0`); all other hops stay on intra-node
/// links. With `g = 1` every hop crosses (the flat ring over nodes);
/// with one node no hop ever satisfies the predicate within `W-1` hops.
fn hier_hop_is_cross(topo: Topology, hop: usize) -> bool {
    (hop + 1).is_multiple_of(topo.ranks_per_node.max(1))
}

/// Forward-direction send peer at hop `hop` of the hierarchical ring:
/// next lane on the same node for intra hops, the same lane of the next
/// node for cross hops.
fn hier_fwd_send_peer(topo: Topology, rank: usize, hop: usize) -> usize {
    let (nn, g) = (topo.nodes.max(1), topo.ranks_per_node.max(1));
    let (node, lane) = (rank / g, rank % g);
    if hier_hop_is_cross(topo, hop) {
        ((node + 1) % nn) * g + lane
    } else {
        node * g + (lane + 1) % g
    }
}

/// Forward-direction receive peer at hop `hop` (mirror of
/// [`hier_fwd_send_peer`]).
fn hier_fwd_recv_peer(topo: Topology, rank: usize, hop: usize) -> usize {
    let (nn, g) = (topo.nodes.max(1), topo.ranks_per_node.max(1));
    let (node, lane) = (rank / g, rank % g);
    if hier_hop_is_cross(topo, hop) {
        ((node + nn - 1) % nn) * g + lane
    } else {
        node * g + (lane + g - 1) % g
    }
}

/// One direction of a ring route: who each rank sends to and receives
/// from at every hop, and which origin's block it holds at every step.
///
/// The flat paths are the paper's single ring over all `W` ranks; the
/// hierarchical paths (TASP-style, arXiv:2509.26541) rotate through all
/// ranks of a node before each cross-node exchange, so of the `W-1` hops
/// only `N-1` touch slow cross-node links (vs. all `W-1` for the flat
/// ring laid out across nodes). Every path is a Hamiltonian cycle with
/// the same lockstep-FIFO property as the flat ring — `origin_at(r, j+1)
/// == origin_at(recv_peer(r, j), j)` — so one generic double-buffered
/// loop drives all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingPath {
    /// Flat ring rotating towards `rank + 1` ([`ring_origin`]).
    FlatFwd {
        /// Number of ranks.
        world: usize,
    },
    /// Flat ring rotating towards `rank - 1` ([`ring_origin_rev`]).
    FlatRev {
        /// Number of ranks.
        world: usize,
    },
    /// Hierarchical ring: intra-node rotation with one cross-node
    /// exchange every `ranks_per_node` hops.
    HierFwd {
        /// Node layout; `topo.world()` ranks.
        topo: Topology,
    },
    /// Mirror image of [`RingPath::HierFwd`]: send/recv peers swapped,
    /// origins rotating the other way.
    HierRev {
        /// Node layout; `topo.world()` ranks.
        topo: Topology,
    },
}

impl RingPath {
    /// Number of ranks on the path.
    pub fn world(&self) -> usize {
        match self {
            RingPath::FlatFwd { world } | RingPath::FlatRev { world } => *world,
            RingPath::HierFwd { topo } | RingPath::HierRev { topo } => topo.world(),
        }
    }

    /// Which rank's block `rank` holds at `step` along this path.
    pub fn origin_at(&self, rank: usize, step: usize) -> usize {
        match self {
            RingPath::FlatFwd { world } => ring_origin(rank, *world, step),
            RingPath::FlatRev { world } => ring_origin_rev(rank, *world, step),
            RingPath::HierFwd { topo } => hier_origin(*topo, rank, step),
            RingPath::HierRev { topo } => hier_origin_rev(*topo, rank, step),
        }
    }

    /// The peer `rank` sends to at hop `hop` (hop `j` delivers step
    /// `j+1`'s block).
    pub fn send_peer(&self, rank: usize, hop: usize) -> usize {
        match self {
            RingPath::FlatFwd { world } => (rank + 1) % world,
            RingPath::FlatRev { world } => (rank + world - 1) % world,
            RingPath::HierFwd { topo } => hier_fwd_send_peer(*topo, rank, hop),
            // The reverse path retraces the forward cycle backwards, so
            // its send peer is the forward receive peer (and vice versa).
            RingPath::HierRev { topo } => hier_fwd_recv_peer(*topo, rank, hop),
        }
    }

    /// The peer `rank` receives from at hop `hop`.
    pub fn recv_peer(&self, rank: usize, hop: usize) -> usize {
        match self {
            RingPath::FlatFwd { world } => (rank + world - 1) % world,
            RingPath::FlatRev { world } => (rank + 1) % world,
            RingPath::HierFwd { topo } => hier_fwd_recv_peer(*topo, rank, hop),
            RingPath::HierRev { topo } => hier_fwd_send_peer(*topo, rank, hop),
        }
    }

    /// The step at which `host` holds `origin`'s block — the inverse of
    /// [`RingPath::origin_at`] in its step argument. Used to order the
    /// bidirectional pass-Q return messages deterministically.
    pub fn step_of(&self, host: usize, origin: usize) -> Option<usize> {
        (0..self.world()).find(|&s| self.origin_at(host, s) == origin)
    }
}

/// Physical arrangement of the ring, selecting between the flat schedules
/// and the topology-aware hierarchical ones. The default (`Flat`) is the
/// paper's single ring and preserves all existing behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RingLayout {
    /// One flat ring over all ranks.
    #[default]
    Flat,
    /// Hierarchical ring over the given node layout.
    Hier(Topology),
}

impl RingLayout {
    /// The forward path over `world` ranks.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadRequest`] when a hierarchical topology's rank count
    /// disagrees with `world`.
    pub fn fwd(&self, world: usize) -> Result<RingPath, CoreError> {
        match self {
            RingLayout::Flat => Ok(RingPath::FlatFwd { world }),
            RingLayout::Hier(topo) => {
                check_topology(*topo, world)?;
                Ok(RingPath::HierFwd { topo: *topo })
            }
        }
    }

    /// The reverse path over `world` ranks.
    ///
    /// # Errors
    ///
    /// As [`RingLayout::fwd`].
    pub fn rev(&self, world: usize) -> Result<RingPath, CoreError> {
        match self {
            RingLayout::Flat => Ok(RingPath::FlatRev { world }),
            RingLayout::Hier(topo) => {
                check_topology(*topo, world)?;
                Ok(RingPath::HierRev { topo: *topo })
            }
        }
    }
}

fn check_topology(topo: Topology, world: usize) -> Result<(), CoreError> {
    if topo.nodes == 0 || topo.ranks_per_node == 0 || topo.world() != world {
        return Err(CoreError::BadRequest {
            reason: format!(
                "topology {}x{} does not cover a {world}-rank ring",
                topo.nodes, topo.ranks_per_node
            ),
        });
    }
    Ok(())
}

/// Indexes into a per-rank table, converting an out-of-range index (an
/// internal bug, since callers derive indices from `ring_origin`) into a
/// typed error instead of a panic.
fn at(v: &[usize], i: usize) -> Result<usize, CoreError> {
    v.get(i).copied().ok_or_else(|| CoreError::Internal {
        detail: format!("rank table of length {} has no entry {i}", v.len()),
    })
}

/// The `W-1` ring `SendRecv` hops rank `rank` performs along `path`, with
/// per-hop byte counts looked up by circulating-block origin. Generalizes
/// the flat forward ring to any [`RingPath`]; [`ring_hops`] is the flat
/// forward instantiation.
fn path_hops(
    rank: usize,
    path: RingPath,
    variant: &'static str,
    bytes_by_origin: &[usize],
) -> Result<Vec<CommOp>, CoreError> {
    let world = path.world();
    let mut ops = Vec::with_capacity(world.saturating_sub(1));
    for j in 0..world.saturating_sub(1) {
        ops.push(CommOp::SendRecv {
            dst: path.send_peer(rank, j),
            src: path.recv_peer(rank, j),
            send_variant: variant,
            recv_variant: variant,
            send_bytes: at(bytes_by_origin, path.origin_at(rank, j))?,
            recv_bytes: at(bytes_by_origin, path.origin_at(rank, j + 1))?,
        });
    }
    Ok(ops)
}

/// The `N-1` ring `SendRecv` hops every rank performs, with per-hop byte
/// counts looked up by circulating-block origin.
fn ring_hops(
    rank: usize,
    world: usize,
    variant: &'static str,
    bytes_by_origin: &[usize],
) -> Result<Vec<CommOp>, CoreError> {
    path_hops(rank, RingPath::FlatFwd { world }, variant, bytes_by_origin)
}

/// Marks every destination rank that receives ring-hop posts from `rank`
/// along any of `paths`. The fabric's channels are FIFO per directed rank
/// pair, so an eager pass-Q `Out` return posted to such a destination
/// before the final round could land *ahead of* a later hop payload on
/// the same channel and be claimed by the receiver's hop `irecv`. The
/// loops therefore stash returns to these destinations and flush them at
/// the top of the final round — after the last hop post, before the final
/// round's computes — and the plan builders mirror that op order exactly.
/// (On the flat forward ring the only hop destination receives its return
/// in the final round anyway, so this rule leaves the classic pass-Q
/// schedule untouched.)
pub(crate) fn hop_channels(rank: usize, paths: &[RingPath]) -> Vec<bool> {
    let world = paths.first().map_or(0, RingPath::world);
    let mut is_hop = vec![false; world];
    for path in paths {
        for j in 0..world.saturating_sub(1) {
            if let Some(slot) = is_hop.get_mut(path.send_peer(rank, j)) {
                *slot = true;
            }
        }
    }
    is_hop
}

/// Whether a pass-Q return computed at round `j` of `world` must be
/// deferred to the final-round flush point (see [`hop_channels`]).
pub(crate) fn defer_return(is_hop_dst: &[bool], dst: usize, j: usize, world: usize) -> bool {
    j + 1 < world && is_hop_dst.get(dst).copied().unwrap_or(false)
}

/// Interleaves the two directions' hop lists `[f0, r0, f1, r1, ...]` —
/// the exact order the bidirectional loops post their `isend_irecv`
/// pairs (forward first within each round).
fn interleave_hops(fwd: Vec<CommOp>, rev: Vec<CommOp>) -> Vec<CommOp> {
    let mut ops = Vec::with_capacity(fwd.len() + rev.len());
    let mut r = rev.into_iter();
    for f in fwd {
        ops.push(f);
        if let Some(op) = r.next() {
            ops.push(op);
        }
    }
    ops.extend(r);
    ops
}

fn kv_skeleton(locals: &[LocalSeq]) -> RingMsg {
    // Tensor clones are O(1) Arc handle copies; the skeleton exists only to
    // ask the payload type for its own wire size.
    RingMsg::Kv {
        seqs: locals
            .iter()
            .map(|l| SeqKv {
                k: l.k.clone(),
                v: l.v.clone(),
                pos: l.kv_pos.clone(),
            })
            .collect(),
    }
}

fn q_skeleton(origin: usize, locals: &[LocalSeq]) -> RingMsg {
    RingMsg::Q {
        origin,
        seqs: locals
            .iter()
            .map(|l| SeqQ {
                q: l.q.clone(),
                pos: l.q_pos.clone(),
            })
            .collect(),
    }
}

/// Wire bytes of the `Out` message carrying partial attention results for
/// one origin rank's queries: per sequence, the partial output has the
/// query's shape (`t × n_heads × head_dim`) and the LSE is `t × n_heads`.
fn out_bytes(params: &AttentionParams, locals: &[LocalSeq]) -> usize {
    let h = params.shape.n_heads();
    locals
        .iter()
        .map(|l| (l.q.numel() + l.q_pos.len() * h) * ELEM_BYTES)
        .sum()
}

/// Wire bytes of the `DecodeOut` message for one origin rank's slots:
/// padding (`None`) slots are free, each real slot carries a one-token
/// partial output plus its LSE row.
fn decode_out_bytes(params: &AttentionParams, slots: &[Option<DecodeSlot>]) -> usize {
    let h = params.shape.n_heads();
    slots
        .iter()
        .flatten()
        .map(|s| (s.q.numel() + h) * ELEM_BYTES)
        .sum()
}

/// Declares the pass-KV prefill schedule (Algorithm 2) for all ranks.
///
/// `locals[r]` is rank `r`'s fused-batch input, exactly as passed to
/// [`crate::ring::ring_pass_kv_prefill`]. The schedule is `N-1` ring
/// `SendRecv` hops per rank, each carrying the currently visiting KV block
/// (byte counts follow the block's origin around the ring).
///
/// # Errors
///
/// [`CoreError::BadRequest`] for an empty rank list.
pub fn pass_kv_plan(locals: &[Vec<LocalSeq>]) -> Result<CommPlan, CoreError> {
    let n = nonzero_world(locals.len())?;
    let kv_bytes: Vec<usize> = locals
        .iter()
        .map(|ls| kv_skeleton(ls).wire_bytes())
        .collect();
    let ranks = (0..n)
        .map(|r| {
            Ok(RankPlan {
                rank: r,
                ops: ring_hops(r, n, "Kv", &kv_bytes)?,
            })
        })
        .collect::<Result<_, CoreError>>()?;
    Ok(CommPlan::from_ranks(ranks))
}

/// Declares the pass-Q prefill schedule (Algorithm 3, with the return hop
/// double-buffered) for all ranks: `N-1` ring `SendRecv` hops carrying the
/// visiting Q block, an eager lone `Send` of each visiting origin's
/// partial outputs the moment its hop computes (posted *before* the next
/// hop is waited on, so return traffic hides under remaining compute), and
/// `N-1` trailing `Recv`s collecting this rank's own partials from every
/// peer in ascending source order. Replaces a single exposed trailing
/// `All2All` — same permutation, overlapped transport — at every depth.
///
/// # Errors
///
/// [`CoreError::BadRequest`] for an empty rank list.
pub fn pass_q_plan(
    params: &AttentionParams,
    locals: &[Vec<LocalSeq>],
) -> Result<CommPlan, CoreError> {
    let n = nonzero_world(locals.len())?;
    let q_bytes: Vec<usize> = locals
        .iter()
        .enumerate()
        .map(|(r, ls)| q_skeleton(r, ls).wire_bytes())
        .collect();
    // Partial outputs for origin s's queries have the same size no matter
    // which rank computed them, so every peer returns out_bytes(locals[r])
    // to rank r.
    let outs: Vec<usize> = locals.iter().map(|ls| out_bytes(params, ls)).collect();
    let ranks = (0..n)
        .map(|r| {
            let mut hops = ring_hops(r, n, "Q", &q_bytes)?.into_iter();
            let mut ops = Vec::with_capacity(3 * n.saturating_sub(1));
            for j in 0..n {
                // Loop iteration j first posts hop j+1's isend_irecv...
                if let Some(hop) = hops.next() {
                    ops.push(hop);
                }
                // ...then computes origin_j's partials and returns them
                // eagerly (origin_0 == r: the own partial stays local).
                let origin = ring_origin(r, n, j);
                if origin != r {
                    ops.push(CommOp::Send {
                        dst: origin,
                        variant: "Out",
                        bytes: at(&outs, origin)?,
                    });
                }
            }
            for src in (0..n).filter(|&s| s != r) {
                ops.push(CommOp::Recv {
                    src,
                    variant: "Out",
                    bytes: at(&outs, r)?,
                });
            }
            Ok(RankPlan { rank: r, ops })
        })
        .collect::<Result<_, CoreError>>()?;
    Ok(CommPlan::from_ranks(ranks))
}

/// Declares the batched pass-Q decode schedule (Algorithm 4) for all
/// ranks: `N-1` ring `SendRecv` hops carrying the visiting decode slots,
/// then one `All2All` returning per-slot partial outputs.
///
/// # Errors
///
/// [`CoreError::BadRequest`] for an empty rank list.
pub fn decode_plan(
    params: &AttentionParams,
    slots: &[Vec<Option<DecodeSlot>>],
) -> Result<CommPlan, CoreError> {
    let n = nonzero_world(slots.len())?;
    let (dq_bytes, douts) = decode_byte_tables(params, slots);
    let ranks = (0..n)
        .map(|r| {
            let mut ops = ring_hops(r, n, "DecodeQ", &dq_bytes)?;
            ops.push(CommOp::AllToAll {
                variant: "DecodeOut",
                send_bytes: douts.clone(),
                recv_bytes: vec![at(&douts, r)?; n],
            });
            Ok(RankPlan { rank: r, ops })
        })
        .collect::<Result<_, CoreError>>()?;
    Ok(CommPlan::from_ranks(ranks))
}

/// Per-rank `DecodeQ` wire bytes and per-origin `DecodeOut` bytes for one
/// decode step — the byte tables both decode-collective plans share.
fn decode_byte_tables(
    params: &AttentionParams,
    slots: &[Vec<Option<DecodeSlot>>],
) -> (Vec<usize>, Vec<usize>) {
    let dq_bytes: Vec<usize> = slots
        .iter()
        .enumerate()
        .map(|(r, s)| {
            RingMsg::DecodeQ {
                origin: r,
                slots: s.clone(),
            }
            .wire_bytes()
        })
        .collect();
    let douts: Vec<usize> = slots.iter().map(|s| decode_out_bytes(params, s)).collect();
    (dq_bytes, douts)
}

/// Declares the Helix decode schedule
/// ([`crate::ring::helix_decode`]) for all ranks: one `AllGather`
/// replicating every rank's decode slots, then the same `All2All` of
/// partial outputs as [`decode_plan`] — the `N-1` serialized ring hops
/// collapse into a single collective carrying identical total bytes.
///
/// # Errors
///
/// [`CoreError::BadRequest`] for an empty rank list.
pub fn helix_decode_plan(
    params: &AttentionParams,
    slots: &[Vec<Option<DecodeSlot>>],
) -> Result<CommPlan, CoreError> {
    let n = nonzero_world(slots.len())?;
    let (dq_bytes, douts) = decode_byte_tables(params, slots);
    let ranks = (0..n)
        .map(|r| {
            Ok(RankPlan {
                rank: r,
                ops: vec![
                    CommOp::AllGather {
                        variant: "DecodeQ",
                        send_bytes: at(&dq_bytes, r)?,
                        recv_bytes: dq_bytes.clone(),
                    },
                    CommOp::AllToAll {
                        variant: "DecodeOut",
                        send_bytes: douts.clone(),
                        recv_bytes: vec![at(&douts, r)?; n],
                    },
                ],
            })
        })
        .collect::<Result<_, CoreError>>()?;
    Ok(CommPlan::from_ranks(ranks))
}

/// Declares the TP-only decode schedule
/// ([`crate::ring::tp_only_decode`]) for all ranks: one `AllGather`
/// moving every rank's per-sequence KV shards (`kv_bytes[r]` wire bytes
/// from rank `r`), after which each slot's owner attends the full context
/// locally — no output exchange. At `world == 1` the loop issues no
/// collective at all, so the single rank's plan is empty.
///
/// # Errors
///
/// [`CoreError::BadRequest`] for an empty rank list.
pub fn tp_only_decode_plan(kv_bytes: &[usize]) -> Result<CommPlan, CoreError> {
    let n = nonzero_world(kv_bytes.len())?;
    if n == 1 {
        return Ok(CommPlan::from_ranks(vec![RankPlan {
            rank: 0,
            ops: Vec::new(),
        }]));
    }
    all_gather_plan("Kv", kv_bytes)
}

/// Declares one transformer layer of cp-serve's Helix decode: the
/// attention collectives of [`helix_decode_plan`] followed by the TP
/// reshard — an `AllGather` replicating each owner's merged attention
/// rows (`Act` payloads of `real_slots × D` f32 rows) and the two
/// row-parallel `AllReduce`s (out projection, then the FFN down
/// projection) each summing a full `[batch, D]` partial per rank. Stack
/// with [`stacked_plan`] for a whole forward.
///
/// # Errors
///
/// [`CoreError::BadRequest`] for an empty rank list.
pub fn helix_layer_plan(
    params: &AttentionParams,
    slots: &[Vec<Option<DecodeSlot>>],
    model_dim: usize,
) -> Result<CommPlan, CoreError> {
    let n = nonzero_world(slots.len())?;
    let (dq_bytes, douts) = decode_byte_tables(params, slots);
    let act_bytes: Vec<usize> = slots
        .iter()
        .map(|s| s.iter().flatten().count() * model_dim * ELEM_BYTES)
        .collect();
    let batch_rows: usize = act_bytes.iter().sum();
    let reduce_bytes = vec![batch_rows; n];
    let ranks = (0..n)
        .map(|r| {
            Ok(RankPlan {
                rank: r,
                ops: vec![
                    CommOp::AllGather {
                        variant: "DecodeQ",
                        send_bytes: at(&dq_bytes, r)?,
                        recv_bytes: dq_bytes.clone(),
                    },
                    CommOp::AllToAll {
                        variant: "DecodeOut",
                        send_bytes: douts.clone(),
                        recv_bytes: vec![at(&douts, r)?; n],
                    },
                    CommOp::AllGather {
                        variant: "Act",
                        send_bytes: at(&act_bytes, r)?,
                        recv_bytes: act_bytes.clone(),
                    },
                    CommOp::AllReduce {
                        variant: "Act",
                        send_bytes: batch_rows,
                        recv_bytes: reduce_bytes.clone(),
                    },
                    CommOp::AllReduce {
                        variant: "Act",
                        send_bytes: batch_rows,
                        recv_bytes: reduce_bytes.clone(),
                    },
                ],
            })
        })
        .collect::<Result<_, CoreError>>()?;
    Ok(CommPlan::from_ranks(ranks))
}

/// Per-rank wire bytes of the two bidirectional KV halves: element `r` is
/// `(A, B)` for rank `r`'s block split at the per-sequence token midpoint.
fn kv_half_bytes(locals: &[Vec<LocalSeq>]) -> Result<(Vec<usize>, Vec<usize>), CoreError> {
    let mut a = Vec::with_capacity(locals.len());
    let mut b = Vec::with_capacity(locals.len());
    for ls in locals {
        let (mut ab, mut bb) = (0usize, 0usize);
        for l in ls {
            let kv = SeqKv {
                k: l.k.clone(),
                v: l.v.clone(),
                pos: l.kv_pos.clone(),
            };
            let (ha, hb) = kv.split_halves()?;
            ab += RingMsg::Kv { seqs: vec![ha] }.wire_bytes();
            bb += RingMsg::Kv { seqs: vec![hb] }.wire_bytes();
        }
        a.push(ab);
        b.push(bb);
    }
    Ok((a, b))
}

/// Per-rank wire bytes of the two bidirectional Q halves, split at the
/// per-sequence query-row midpoint.
fn q_half_bytes(locals: &[Vec<LocalSeq>]) -> Result<(Vec<usize>, Vec<usize>), CoreError> {
    let mut a = Vec::with_capacity(locals.len());
    let mut b = Vec::with_capacity(locals.len());
    for ls in locals {
        let (mut ab, mut bb) = (0usize, 0usize);
        for l in ls {
            let sq = SeqQ {
                q: l.q.clone(),
                pos: l.q_pos.clone(),
            };
            let (ha, hb) = sq.split_halves()?;
            ab += ha.q.numel() * ELEM_BYTES;
            bb += hb.q.numel() * ELEM_BYTES;
        }
        a.push(ab);
        b.push(bb);
    }
    Ok((a, b))
}

/// Per-rank wire bytes of the `Out` messages carrying partials for each
/// bidirectional Q half of rank `r`'s queries.
fn out_half_bytes(
    params: &AttentionParams,
    locals: &[Vec<LocalSeq>],
) -> Result<(Vec<usize>, Vec<usize>), CoreError> {
    let h = params.shape.n_heads();
    let mut a = Vec::with_capacity(locals.len());
    let mut b = Vec::with_capacity(locals.len());
    for ls in locals {
        let (mut ab, mut bb) = (0usize, 0usize);
        for l in ls {
            let sq = SeqQ {
                q: l.q.clone(),
                pos: l.q_pos.clone(),
            };
            let (ha, hb) = sq.split_halves()?;
            ab += (ha.q.numel() + ha.pos.len() * h) * ELEM_BYTES;
            bb += (hb.q.numel() + hb.pos.len() * h) * ELEM_BYTES;
        }
        a.push(ab);
        b.push(bb);
    }
    Ok((a, b))
}

/// Declares the unidirectional pass-KV prefill schedule over an arbitrary
/// [`RingLayout`] — [`pass_kv_plan`] is the flat instantiation, the
/// hierarchical one keeps `W-N` of the `W-1` hops on intra-node links.
///
/// # Errors
///
/// [`CoreError::BadRequest`] for an empty rank list or a topology that
/// does not cover the rank count.
pub fn pass_kv_plan_on(
    locals: &[Vec<LocalSeq>],
    layout: RingLayout,
) -> Result<CommPlan, CoreError> {
    let n = nonzero_world(locals.len())?;
    let fwd = layout.fwd(n)?;
    let kv_bytes: Vec<usize> = locals
        .iter()
        .map(|ls| kv_skeleton(ls).wire_bytes())
        .collect();
    let ranks = (0..n)
        .map(|r| {
            Ok(RankPlan {
                rank: r,
                ops: path_hops(r, fwd, "Kv", &kv_bytes)?,
            })
        })
        .collect::<Result<_, CoreError>>()?;
    Ok(CommPlan::from_ranks(ranks))
}

/// Declares the bidirectional pass-KV prefill schedule (TokenRing-style,
/// arXiv:2412.20501) over a [`RingLayout`]: each rank's KV block splits
/// at the token midpoint, the A half circulating forward and the B half
/// in reverse simultaneously, so per-link bytes per step halve. Each
/// round posts the forward hop then the reverse hop, exactly as
/// the bidirectional [`crate::ring::ring_pass_kv_prefill`] issues them.
///
/// # Errors
///
/// As [`pass_kv_plan_on`].
pub fn pass_kv_bidi_plan(
    locals: &[Vec<LocalSeq>],
    layout: RingLayout,
) -> Result<CommPlan, CoreError> {
    let n = nonzero_world(locals.len())?;
    let fwd = layout.fwd(n)?;
    let rev = layout.rev(n)?;
    let (a_bytes, b_bytes) = kv_half_bytes(locals)?;
    let ranks = (0..n)
        .map(|r| {
            Ok(RankPlan {
                rank: r,
                ops: interleave_hops(
                    path_hops(r, fwd, "Kv", &a_bytes)?,
                    path_hops(r, rev, "Kv", &b_bytes)?,
                ),
            })
        })
        .collect::<Result<_, CoreError>>()?;
    Ok(CommPlan::from_ranks(ranks))
}

/// Declares the depth-2 pipelined pass-KV prefill schedule
/// ([`crate::ring::ring_pass_kv_prefill`] at depth 2): each hop's payload
/// splits into two chunks that both travel forward as separate messages,
/// and each chunk is forwarded the moment it arrives — before its sibling
/// lands (cut-through). On a serialized link this roughly halves the
/// store-and-forward pipeline latency in bandwidth-bound regimes.
///
/// # Errors
///
/// [`CoreError::BadRequest`] for an empty rank list.
pub fn pass_kv_chunked_plan(locals: &[Vec<LocalSeq>]) -> Result<CommPlan, CoreError> {
    let n = nonzero_world(locals.len())?;
    let (h1_bytes, h2_bytes) = kv_half_bytes(locals)?;
    let ranks = (0..n)
        .map(|r| {
            Ok(RankPlan {
                rank: r,
                ops: interleave_hops(
                    ring_hops(r, n, "Kv", &h1_bytes)?,
                    ring_hops(r, n, "Kv", &h2_bytes)?,
                ),
            })
        })
        .collect::<Result<_, CoreError>>()?;
    Ok(CommPlan::from_ranks(ranks))
}

/// A zero-code [`RingMsg::KvQuant`] skeleton with the byte geometry of
/// `locals`' KV shards: `l · n_kv · d` one-byte codes plus `l · n_kv`
/// f32 scales per tensor. Built from parts (no quantization arithmetic) —
/// it exists only to ask the payload type for its own wire size.
fn kv_quant_skeleton(locals: &[LocalSeq]) -> Result<RingMsg, CoreError> {
    let seqs = locals
        .iter()
        .map(|l| {
            let shape = l.k.shape();
            let (t, h, d) = (
                shape.first().copied().unwrap_or(0),
                shape.get(1).copied().unwrap_or(0),
                shape.get(2).copied().unwrap_or(0),
            );
            let mk = || {
                QuantizedKv::from_parts(vec![0i8; t * h * d], vec![1.0f32; t * h], t, h, d)
                    .map_err(CoreError::from)
            };
            Ok(QuantSeqKv {
                k: mk()?,
                v: mk()?,
                pos: l.kv_pos.clone(),
            })
        })
        .collect::<Result<Vec<_>, CoreError>>()?;
    Ok(RingMsg::KvQuant { seqs })
}

/// Per-rank wire bytes of the two bidirectional compressed KV halves —
/// the quantized analogue of [`kv_half_bytes`], derived from the same
/// `split_halves` the loop itself uses.
fn kv_quant_half_bytes(locals: &[Vec<LocalSeq>]) -> Result<(Vec<usize>, Vec<usize>), CoreError> {
    let mut a = Vec::with_capacity(locals.len());
    let mut b = Vec::with_capacity(locals.len());
    for ls in locals {
        let (mut ab, mut bb) = (0usize, 0usize);
        let skeleton = kv_quant_skeleton(ls)?;
        if let RingMsg::KvQuant { seqs } = skeleton {
            for q in seqs {
                let (ha, hb) = q.split_halves()?;
                ab += RingMsg::KvQuant { seqs: vec![ha] }.wire_bytes();
                bb += RingMsg::KvQuant { seqs: vec![hb] }.wire_bytes();
            }
        }
        a.push(ab);
        b.push(bb);
    }
    Ok((a, b))
}

/// Declares the compressed unidirectional pass-KV prefill schedule
/// ([`crate::ring::ring_pass_kv_prefill`] on the INT8 wire) over a
/// [`RingLayout`]: hop-for-hop the schedule of [`pass_kv_plan_on`], each
/// hop carrying the INT8 `KvQuant` payload — `2·l·n_kv·(d + 4)` bytes per
/// block instead of the f32 `2·l·n_kv·d·4`.
///
/// # Errors
///
/// As [`pass_kv_plan_on`].
pub fn pass_kv_quant_plan_on(
    locals: &[Vec<LocalSeq>],
    layout: RingLayout,
) -> Result<CommPlan, CoreError> {
    let n = nonzero_world(locals.len())?;
    let fwd = layout.fwd(n)?;
    let kv_bytes: Vec<usize> = locals
        .iter()
        .map(|ls| kv_quant_skeleton(ls).map(|m| m.wire_bytes()))
        .collect::<Result<_, CoreError>>()?;
    let ranks = (0..n)
        .map(|r| {
            Ok(RankPlan {
                rank: r,
                ops: path_hops(r, fwd, "KvQuant", &kv_bytes)?,
            })
        })
        .collect::<Result<_, CoreError>>()?;
    Ok(CommPlan::from_ranks(ranks))
}

/// Declares the compressed bidirectional pass-KV prefill schedule
/// (bidirectional [`crate::ring::ring_pass_kv_prefill`] on the INT8 wire) over a
/// [`RingLayout`]: the hop pattern of [`pass_kv_bidi_plan`] with INT8
/// half payloads in both directions.
///
/// # Errors
///
/// As [`pass_kv_plan_on`].
pub fn pass_kv_quant_bidi_plan(
    locals: &[Vec<LocalSeq>],
    layout: RingLayout,
) -> Result<CommPlan, CoreError> {
    let n = nonzero_world(locals.len())?;
    let fwd = layout.fwd(n)?;
    let rev = layout.rev(n)?;
    let (a_bytes, b_bytes) = kv_quant_half_bytes(locals)?;
    let ranks = (0..n)
        .map(|r| {
            Ok(RankPlan {
                rank: r,
                ops: interleave_hops(
                    path_hops(r, fwd, "KvQuant", &a_bytes)?,
                    path_hops(r, rev, "KvQuant", &b_bytes)?,
                ),
            })
        })
        .collect::<Result<_, CoreError>>()?;
    Ok(CommPlan::from_ranks(ranks))
}

/// Declares the unidirectional pass-Q prefill schedule over an arbitrary
/// [`RingLayout`] — [`pass_q_plan`] is the flat instantiation. Eager
/// `Out` returns target the layout's visiting origin at each round.
///
/// # Errors
///
/// As [`pass_kv_plan_on`].
pub fn pass_q_plan_on(
    params: &AttentionParams,
    locals: &[Vec<LocalSeq>],
    layout: RingLayout,
) -> Result<CommPlan, CoreError> {
    let n = nonzero_world(locals.len())?;
    let fwd = layout.fwd(n)?;
    let q_bytes: Vec<usize> = locals
        .iter()
        .enumerate()
        .map(|(r, ls)| q_skeleton(r, ls).wire_bytes())
        .collect();
    let outs: Vec<usize> = locals.iter().map(|ls| out_bytes(params, ls)).collect();
    let ranks = (0..n)
        .map(|r| {
            let is_hop_dst = hop_channels(r, &[fwd]);
            let mut hops = path_hops(r, fwd, "Q", &q_bytes)?.into_iter();
            let mut ops = Vec::with_capacity(3 * n.saturating_sub(1));
            let mut deferred: Vec<CommOp> = Vec::new();
            for j in 0..n {
                if j + 1 == n {
                    // Flush point: returns stashed to keep hop channels
                    // clean post here, after the last hop, in compute
                    // order (see `hop_channels`).
                    ops.append(&mut deferred);
                }
                if let Some(hop) = hops.next() {
                    ops.push(hop);
                }
                let origin = fwd.origin_at(r, j);
                if origin != r {
                    let send = CommOp::Send {
                        dst: origin,
                        variant: "Out",
                        bytes: at(&outs, origin)?,
                    };
                    if defer_return(&is_hop_dst, origin, j, n) {
                        deferred.push(send);
                    } else {
                        ops.push(send);
                    }
                }
            }
            for src in (0..n).filter(|&s| s != r) {
                ops.push(CommOp::Recv {
                    src,
                    variant: "Out",
                    bytes: at(&outs, r)?,
                });
            }
            Ok(RankPlan { rank: r, ops })
        })
        .collect::<Result<_, CoreError>>()?;
    Ok(CommPlan::from_ranks(ranks))
}

/// Declares the bidirectional pass-Q prefill schedule over a
/// [`RingLayout`]: each rank's query rows split at the midpoint, the A
/// half circulating forward and the B half in reverse. Every round posts
/// the forward hop, the reverse hop, then the two eager `Out` returns (A
/// first). The trailing collection receives **two** `Out` messages per
/// peer; their order on each FIFO channel is fixed by which half the
/// peer hosted first (A before B on a tie, matching the loop's
/// post order within a round) — exactly how
/// the bidirectional [`crate::ring::ring_pass_q_prefill`] disambiguates them.
///
/// # Errors
///
/// As [`pass_kv_plan_on`].
pub fn pass_q_bidi_plan(
    params: &AttentionParams,
    locals: &[Vec<LocalSeq>],
    layout: RingLayout,
) -> Result<CommPlan, CoreError> {
    let n = nonzero_world(locals.len())?;
    let fwd = layout.fwd(n)?;
    let rev = layout.rev(n)?;
    let (qa_bytes, qb_bytes) = q_half_bytes(locals)?;
    let (oa_bytes, ob_bytes) = out_half_bytes(params, locals)?;
    let step_err = |host: usize, origin: usize| CoreError::Internal {
        detail: format!("ring path never routes rank {origin}'s block through rank {host}"),
    };
    let ranks = (0..n)
        .map(|r| {
            let is_hop_dst = hop_channels(r, &[fwd, rev]);
            let mut f_hops = path_hops(r, fwd, "Q", &qa_bytes)?.into_iter();
            let mut r_hops = path_hops(r, rev, "Q", &qb_bytes)?.into_iter();
            let mut ops = Vec::with_capacity(6 * n.saturating_sub(1));
            let mut deferred: Vec<CommOp> = Vec::new();
            for j in 0..n {
                if j + 1 == n {
                    // Flush point for returns targeting still-active hop
                    // channels (see `hop_channels`): after the last hop
                    // post, in compute order, so every channel's FIFO
                    // order matches the trailing `Recv` declarations.
                    ops.append(&mut deferred);
                }
                if let Some(hop) = f_hops.next() {
                    ops.push(hop);
                }
                if let Some(hop) = r_hops.next() {
                    ops.push(hop);
                }
                let origin_a = fwd.origin_at(r, j);
                if origin_a != r {
                    let send = CommOp::Send {
                        dst: origin_a,
                        variant: "Out",
                        bytes: at(&oa_bytes, origin_a)?,
                    };
                    if defer_return(&is_hop_dst, origin_a, j, n) {
                        deferred.push(send);
                    } else {
                        ops.push(send);
                    }
                }
                let origin_b = rev.origin_at(r, j);
                if origin_b != r {
                    let send = CommOp::Send {
                        dst: origin_b,
                        variant: "Out",
                        bytes: at(&ob_bytes, origin_b)?,
                    };
                    if defer_return(&is_hop_dst, origin_b, j, n) {
                        deferred.push(send);
                    } else {
                        ops.push(send);
                    }
                }
            }
            for src in (0..n).filter(|&s| s != r) {
                // src posts our A-half partials at the round it hosts our
                // A half and our B-half partials at the round it hosts our
                // B half; its channel to us is FIFO, so the earlier host
                // round arrives first (A first on a tie: the loop posts
                // the forward return before the reverse one each round).
                let tau_a = fwd.step_of(src, r).ok_or_else(|| step_err(src, r))?;
                let tau_b = rev.step_of(src, r).ok_or_else(|| step_err(src, r))?;
                let (first, second) = if tau_a <= tau_b {
                    (at(&oa_bytes, r)?, at(&ob_bytes, r)?)
                } else {
                    (at(&ob_bytes, r)?, at(&oa_bytes, r)?)
                };
                ops.push(CommOp::Recv {
                    src,
                    variant: "Out",
                    bytes: first,
                });
                ops.push(CommOp::Recv {
                    src,
                    variant: "Out",
                    bytes: second,
                });
            }
            Ok(RankPlan { rank: r, ops })
        })
        .collect::<Result<_, CoreError>>()?;
    Ok(CommPlan::from_ranks(ranks))
}

/// Declares the bidirectional batched pass-Q decode schedule: the slot
/// vector splits at the midpoint, the two halves counter-rotate on the
/// flat ring, and the same single `All2All` as [`decode_plan`] returns
/// the re-joined per-origin partials.
///
/// # Errors
///
/// [`CoreError::BadRequest`] for an empty rank list.
pub fn decode_bidi_plan(
    params: &AttentionParams,
    slots: &[Vec<Option<DecodeSlot>>],
) -> Result<CommPlan, CoreError> {
    let n = nonzero_world(slots.len())?;
    let fwd = RingPath::FlatFwd { world: n };
    let rev = RingPath::FlatRev { world: n };
    let mut a_bytes = Vec::with_capacity(n);
    let mut b_bytes = Vec::with_capacity(n);
    for (r, s) in slots.iter().enumerate() {
        let (a, b) = split_slot_vec(s);
        a_bytes.push(
            RingMsg::DecodeQ {
                origin: r,
                slots: a,
            }
            .wire_bytes(),
        );
        b_bytes.push(
            RingMsg::DecodeQ {
                origin: r,
                slots: b,
            }
            .wire_bytes(),
        );
    }
    let douts: Vec<usize> = slots.iter().map(|s| decode_out_bytes(params, s)).collect();
    let ranks = (0..n)
        .map(|r| {
            let mut ops = interleave_hops(
                path_hops(r, fwd, "DecodeQ", &a_bytes)?,
                path_hops(r, rev, "DecodeQ", &b_bytes)?,
            );
            ops.push(CommOp::AllToAll {
                variant: "DecodeOut",
                send_bytes: douts.clone(),
                recv_bytes: vec![at(&douts, r)?; n],
            });
            Ok(RankPlan { rank: r, ops })
        })
        .collect::<Result<_, CoreError>>()?;
    Ok(CommPlan::from_ranks(ranks))
}

/// Declares the all-gather pass-KV baseline schedule
/// ([`crate::baseline::all_gather_pass_kv_prefill`], Llama3-training style,
/// §3.5.2) for all ranks: a single `AllGather` per rank broadcasting the
/// rank's own KV shard and collecting every peer's. Byte-for-byte it moves
/// the ring schedule's total volume, but all of it sits un-overlapped
/// before any compute starts.
///
/// # Errors
///
/// [`CoreError::BadRequest`] for an empty rank list.
pub fn all_gather_pass_kv_plan(locals: &[Vec<LocalSeq>]) -> Result<CommPlan, CoreError> {
    let n = nonzero_world(locals.len())?;
    let kv_bytes: Vec<usize> = locals
        .iter()
        .map(|ls| kv_skeleton(ls).wire_bytes())
        .collect();
    let ranks = (0..n)
        .map(|r| {
            Ok(RankPlan {
                rank: r,
                ops: vec![CommOp::AllGather {
                    variant: "Kv",
                    send_bytes: at(&kv_bytes, r)?,
                    recv_bytes: kv_bytes.clone(),
                }],
            })
        })
        .collect::<Result<_, CoreError>>()?;
    Ok(CommPlan::from_ranks(ranks))
}

/// Declares a single-collective `AllReduce` schedule: every rank
/// contributes `bytes[r]` wire bytes of `variant` payload and collects
/// every peer's contribution for the deterministic fold. This is the plan
/// behind cp-model's tensor-parallel column→row pairs (Table 2's AllReduce
/// of `[t, D]` activations); callers derive `bytes` from the payload's
/// `Wire` impl on a skeleton value.
///
/// # Errors
///
/// [`CoreError::BadRequest`] for an empty rank list.
pub fn all_reduce_plan(variant: &'static str, bytes: &[usize]) -> Result<CommPlan, CoreError> {
    let n = nonzero_world(bytes.len())?;
    let ranks = (0..n)
        .map(|r| {
            Ok(RankPlan {
                rank: r,
                ops: vec![CommOp::AllReduce {
                    variant,
                    send_bytes: at(bytes, r)?,
                    recv_bytes: bytes.to_vec(),
                }],
            })
        })
        .collect::<Result<_, CoreError>>()?;
    Ok(CommPlan::from_ranks(ranks))
}

/// Declares a single-collective `AllGather` schedule: every rank
/// broadcasts `bytes[r]` wire bytes of `variant` payload and collects one
/// payload from each peer. Used by cp-model's TP attention to reassemble
/// per-head outputs (§4.2.2).
///
/// # Errors
///
/// [`CoreError::BadRequest`] for an empty rank list.
pub fn all_gather_plan(variant: &'static str, bytes: &[usize]) -> Result<CommPlan, CoreError> {
    let n = nonzero_world(bytes.len())?;
    let ranks = (0..n)
        .map(|r| {
            Ok(RankPlan {
                rank: r,
                ops: vec![CommOp::AllGather {
                    variant,
                    send_bytes: at(bytes, r)?,
                    recv_bytes: bytes.to_vec(),
                }],
            })
        })
        .collect::<Result<_, CoreError>>()?;
    Ok(CommPlan::from_ranks(ranks))
}

/// Repeats one layer's per-rank schedule `layers` times: a multi-layer
/// forward issues exactly one ring schedule per transformer layer inside a
/// single fabric session, so the session plan is the layer plan stacked.
/// Shared by cp-serve's engine and cp-model's full-stack forward plan.
pub fn stacked_plan(layer_plan: CommPlan, layers: usize) -> CommPlan {
    let ranks = layer_plan
        .ranks
        .into_iter()
        .map(|rp| {
            let mut ops = Vec::with_capacity(rp.ops.len() * layers);
            for _ in 0..layers {
                ops.extend(rp.ops.iter().cloned());
            }
            RankPlan { rank: rp.rank, ops }
        })
        .collect();
    CommPlan::from_ranks(ranks)
}

/// One ring algorithm's per-rank inputs, exactly as its loop in
/// [`crate::ring`] receives them (`[r]` is rank `r`'s).
#[derive(Debug, Clone, Copy)]
pub enum RingInput<'a> {
    /// [`crate::ring::ring_pass_kv_prefill`] over these fused batches.
    PassKv(&'a [Vec<LocalSeq>]),
    /// [`crate::ring::ring_pass_q_prefill`] over these fused batches.
    PassQ(&'a [Vec<LocalSeq>]),
    /// [`crate::ring::ring_pass_q_decode`] over these padded slot vectors.
    Decode(&'a [Vec<Option<DecodeSlot>>]),
}

/// Declares the schedule the ring loop issues for `input` on the cell
/// `spec` — the one place a cell is matched to its plan builder. Depth 0
/// and depth 1 post the same ops in the same order, so they share a plan.
///
/// # Errors
///
/// [`CoreError::BadRequest`] for an empty rank list, a topology that does
/// not cover the rank count, or a cell the loops do not support (the same
/// cells [`crate::ring`] rejects).
pub fn ring_plan(
    input: RingInput<'_>,
    spec: &RingSpec,
    params: &AttentionParams,
) -> Result<CommPlan, CoreError> {
    let (algo, world) = match input {
        RingInput::PassKv(locals) => (RingAlgo::PassKv, locals.len()),
        RingInput::PassQ(locals) => (RingAlgo::PassQ, locals.len()),
        RingInput::Decode(slots) => (RingAlgo::Decode, slots.len()),
    };
    spec.lanes(algo, nonzero_world(world)?)?;
    let bidi = spec.direction == RingDirection::Bidi;
    match input {
        RingInput::PassKv(locals) => match (spec.wire, bidi) {
            (RingWire::F32, false) if spec.depth == 2 => pass_kv_chunked_plan(locals),
            (RingWire::F32, false) => pass_kv_plan_on(locals, spec.layout),
            (RingWire::F32, true) => pass_kv_bidi_plan(locals, spec.layout),
            (RingWire::Int8, false) => pass_kv_quant_plan_on(locals, spec.layout),
            (RingWire::Int8, true) => pass_kv_quant_bidi_plan(locals, spec.layout),
        },
        RingInput::PassQ(locals) if bidi => pass_q_bidi_plan(params, locals, spec.layout),
        RingInput::PassQ(locals) => pass_q_plan_on(params, locals, spec.layout),
        RingInput::Decode(slots) if bidi => decode_bidi_plan(params, slots),
        RingInput::Decode(slots) => decode_plan(params, slots),
    }
}

fn nonzero_world(n: usize) -> Result<usize, CoreError> {
    if n == 0 {
        return Err(CoreError::BadRequest {
            reason: "communication plan needs at least one rank".to_string(),
        });
    }
    Ok(n)
}

/// Adapter: runs a per-rank ring body under a [`CheckedFabric`], so every
/// collective the body issues is validated against the fabric's declared
/// plan, mapping `CoreError` in and out of the fabric's `CommError` like
/// [`crate::ring::run_ring`].
///
/// # Errors
///
/// The body's root-cause error (see [`cp_comm::Fabric::run`]), or
/// [`cp_comm::CommError::PlanViolation`] (wrapped in
/// [`CoreError::Comm`]) when live traffic diverges from the plan.
pub fn run_ring_checked<T, F>(
    fabric: &CheckedFabric,
    body: F,
) -> Result<(Vec<T>, TrafficReport), CoreError>
where
    T: Send,
    F: Fn(&Communicator<RingMsg>) -> Result<T, CoreError> + Sync,
{
    let result =
        fabric.run::<RingMsg, T, _>(|comm| body(comm).map_err(|e| to_comm_error(comm.rank(), e)));
    result.map_err(CoreError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{ring_pass_kv_prefill, ring_pass_q_decode, ring_pass_q_prefill, RankKv};
    use cp_attention::GqaShape;
    use cp_tensor::DetRng;

    fn params(nh: usize, nkv: usize, dh: usize) -> AttentionParams {
        AttentionParams::for_shape(GqaShape::new(nh, nkv, dh).unwrap())
    }

    /// One equal-sized sequence per rank; rank r owns tokens
    /// `[r*t, (r+1)*t)` of a causal context.
    fn uniform_locals(n: usize, t: usize, p: &AttentionParams, seed: u64) -> Vec<Vec<LocalSeq>> {
        let shape = p.shape;
        let mut rng = DetRng::new(seed);
        (0..n)
            .map(|r| {
                let pos: Vec<usize> = (r * t..(r + 1) * t).collect();
                vec![LocalSeq {
                    q: rng.tensor(&[t, shape.n_heads(), shape.head_dim()]),
                    q_pos: pos.clone(),
                    k: rng.tensor(&[t, shape.n_kv_heads(), shape.head_dim()]),
                    v: rng.tensor(&[t, shape.n_kv_heads(), shape.head_dim()]),
                    kv_pos: pos,
                }]
            })
            .collect()
    }

    fn uniform_slots(n: usize, p: &AttentionParams, seed: u64) -> Vec<Vec<Option<DecodeSlot>>> {
        let shape = p.shape;
        let mut rng = DetRng::new(seed);
        (0..n)
            .map(|r| {
                vec![if r % 2 == 0 {
                    Some(DecodeSlot {
                        bid: 0,
                        q: rng.tensor(&[1, shape.n_heads(), shape.head_dim()]),
                        pos: 4 * n,
                    })
                } else {
                    None
                }]
            })
            .collect()
    }

    fn decode_kv(n: usize, p: &AttentionParams, seed: u64) -> Vec<Vec<SeqKv>> {
        let shape = p.shape;
        let mut rng = DetRng::new(seed);
        (0..n)
            .map(|r| {
                let pos: Vec<usize> = (r * 4..(r + 1) * 4).collect();
                vec![SeqKv {
                    k: rng.tensor(&[4, shape.n_kv_heads(), shape.head_dim()]),
                    v: rng.tensor(&[4, shape.n_kv_heads(), shape.head_dim()]),
                    pos,
                }]
            })
            .collect()
    }

    #[test]
    fn ring_origin_rotates_each_block_through_every_rank() {
        for n in [1, 2, 4, 8] {
            for r in 0..n {
                assert_eq!(ring_origin(r, n, 0), r, "step 0 holds own block");
                let visited: std::collections::BTreeSet<usize> =
                    (0..n).map(|j| ring_origin(r, n, j)).collect();
                assert_eq!(visited.len(), n, "rank {r} of {n} must visit all origins");
            }
            // At any step, the n ranks hold n distinct blocks.
            for j in 0..n {
                let held: std::collections::BTreeSet<usize> =
                    (0..n).map(|r| ring_origin(r, n, j)).collect();
                assert_eq!(held.len(), n);
            }
        }
    }

    #[test]
    fn pass_kv_plan_has_n_minus_1_uniform_hops() {
        let p = params(2, 1, 4);
        let locals = uniform_locals(4, 3, &p, 7);
        let plan = pass_kv_plan(&locals).unwrap();
        assert_eq!(plan.world, 4);
        for (r, rp) in plan.ranks.iter().enumerate() {
            assert_eq!(rp.ops.len(), 3);
            for op in &rp.ops {
                match op {
                    CommOp::SendRecv {
                        dst,
                        src,
                        send_variant,
                        recv_variant,
                        send_bytes,
                        recv_bytes,
                    } => {
                        assert_eq!(*dst, (r + 1) % 4);
                        assert_eq!(*src, (r + 3) % 4);
                        assert_eq!(*send_variant, "Kv");
                        assert_eq!(*recv_variant, "Kv");
                        // Uniform shards: every block has the same size
                        // (§3.5.2 padding invariant).
                        assert_eq!(send_bytes, recv_bytes);
                    }
                    other => panic!("expected SendRecv, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn single_rank_plans_are_local_only() {
        let p = params(2, 1, 4);
        let locals = uniform_locals(1, 3, &p, 9);
        let kv = pass_kv_plan(&locals).unwrap();
        assert!(kv.ranks[0].ops.is_empty());
        let q = pass_q_plan(&p, &locals).unwrap();
        // A single rank keeps its own partial locally: no hops, no return
        // sends, no receives.
        assert!(q.ranks[0].ops.is_empty());
        assert_eq!(q.predicted_traffic().messages, 0);
    }

    #[test]
    fn empty_rank_list_is_rejected() {
        let p = params(2, 1, 4);
        assert!(matches!(
            pass_kv_plan(&[]),
            Err(CoreError::BadRequest { .. })
        ));
        assert!(matches!(
            pass_q_plan(&p, &[]),
            Err(CoreError::BadRequest { .. })
        ));
        assert!(matches!(
            decode_plan(&p, &[]),
            Err(CoreError::BadRequest { .. })
        ));
    }

    #[test]
    fn checked_pass_kv_matches_plan_and_predicted_traffic() {
        let p = params(2, 1, 4);
        for n in [2, 3, 4] {
            let locals = uniform_locals(n, 3, &p, n as u64);
            let plan = pass_kv_plan(&locals).unwrap();
            let predicted = plan.predicted_traffic();
            let fabric = CheckedFabric::new(plan);
            let (outs, report) = run_ring_checked(&fabric, |comm| {
                ring_pass_kv_prefill(comm, &p, &RingSpec::default(), &locals[comm.rank()])
            })
            .unwrap();
            assert_eq!(outs.len(), n);
            predicted.check_report(&report).unwrap();
        }
    }

    #[test]
    fn checked_pass_q_matches_plan_and_predicted_traffic() {
        let p = params(4, 2, 8);
        for n in [2, 3, 4] {
            let locals = uniform_locals(n, 2, &p, 20 + n as u64);
            let plan = pass_q_plan(&p, &locals).unwrap();
            let predicted = plan.predicted_traffic();
            let fabric = CheckedFabric::new(plan);
            let (_, report) = run_ring_checked(&fabric, |comm| {
                let mine = &locals[comm.rank()];
                let queries: Vec<SeqQ> = mine.iter().map(LocalSeq::queries).collect();
                let kv: Vec<RankKv<'_>> = mine.iter().map(|l| l.kv().into()).collect();
                ring_pass_q_prefill(comm, &p, &RingSpec::default(), &queries, &kv)
            })
            .unwrap();
            predicted.check_report(&report).unwrap();
        }
    }

    #[test]
    fn checked_decode_matches_plan_and_predicted_traffic() {
        let p = params(2, 1, 4);
        for n in [2, 4] {
            let slots = uniform_slots(n, &p, 40 + n as u64);
            let kv = decode_kv(n, &p, 50 + n as u64);
            let plan = decode_plan(&p, &slots).unwrap();
            let predicted = plan.predicted_traffic();
            let fabric = CheckedFabric::new(plan);
            let (_, report) = run_ring_checked(&fabric, |comm| {
                let mine: Vec<RankKv<'_>> =
                    kv[comm.rank()].iter().cloned().map(RankKv::from).collect();
                ring_pass_q_decode(comm, &p, &RingSpec::default(), &slots[comm.rank()], &mine)
            })
            .unwrap();
            predicted.check_report(&report).unwrap();
        }
    }

    #[test]
    fn checked_all_gather_baseline_matches_plan_and_predicted_traffic() {
        let p = params(2, 1, 4);
        for n in [2, 3, 4] {
            let locals = uniform_locals(n, 3, &p, 80 + n as u64);
            let plan = all_gather_pass_kv_plan(&locals).unwrap();
            let predicted = plan.predicted_traffic();
            let fabric = CheckedFabric::new(plan);
            let (outs, report) = run_ring_checked(&fabric, |comm| {
                crate::baseline::all_gather_pass_kv_prefill(comm, &p, &locals[comm.rank()])
            })
            .unwrap();
            assert_eq!(outs.len(), n);
            predicted.check_report(&report).unwrap();
            // Same volume as the ring schedule, in one un-overlapped shot.
            let ring_predicted = pass_kv_plan(&locals).unwrap().predicted_traffic();
            assert_eq!(predicted.all_gather.bytes, ring_predicted.send_recv.bytes);
        }
    }

    #[test]
    fn plan_catches_input_skew_between_declared_and_live() {
        // Declare the plan for one input set but run a rank with a larger
        // shard: the checked fabric must flag the byte mismatch.
        let p = params(2, 1, 4);
        let locals = uniform_locals(2, 3, &p, 60);
        let mut skewed = locals.clone();
        let mut rng = DetRng::new(61);
        skewed[1][0].k = rng.tensor(&[5, 1, 4]);
        skewed[1][0].v = rng.tensor(&[5, 1, 4]);
        skewed[1][0].kv_pos = (0..5).collect();
        let plan = pass_kv_plan(&locals).unwrap();
        let fabric = CheckedFabric::new(plan);
        let err = run_ring_checked(&fabric, |comm| {
            ring_pass_kv_prefill(comm, &p, &RingSpec::default(), &skewed[comm.rank()])
        })
        .unwrap_err();
        match err {
            CoreError::Comm(cp_comm::CommError::PlanViolation { rank, detail, .. }) => {
                assert_eq!(rank, 1);
                assert!(detail.contains("wire bytes"), "{detail}");
            }
            other => panic!("expected PlanViolation at rank 1, got {other:?}"),
        }
    }

    #[test]
    fn collective_plans_declare_symmetric_gathers() {
        let bytes = [16usize, 16, 16];
        for (plan, kind) in [
            (all_reduce_plan("payload", &bytes).unwrap(), "all_reduce"),
            (all_gather_plan("payload", &bytes).unwrap(), "all_gather"),
        ] {
            assert_eq!(plan.world, 3);
            for rp in &plan.ranks {
                assert_eq!(rp.ops.len(), 1);
                assert_eq!(rp.ops[0].kind(), kind);
            }
            // Sender-side metering: every rank broadcasts to n-1 peers.
            assert_eq!(
                plan.predicted_traffic().all_reduce.bytes
                    + plan.predicted_traffic().all_gather.bytes,
                16 * 3 * 2
            );
        }
        assert!(matches!(
            all_reduce_plan("payload", &[]),
            Err(CoreError::BadRequest { .. })
        ));
        assert!(matches!(
            all_gather_plan("payload", &[]),
            Err(CoreError::BadRequest { .. })
        ));
    }

    #[test]
    fn checked_all_reduce_matches_live_fabric_traffic() {
        use cp_comm::Wire;
        let payload = vec![0.0f32; 6];
        let bytes = vec![payload.wire_bytes(); 3];
        let plan = all_reduce_plan("payload", &bytes).unwrap();
        let predicted = plan.predicted_traffic();
        let fabric = CheckedFabric::new(plan);
        let (_, report) = fabric
            .run::<Vec<f32>, _, _>(|comm| {
                comm.all_reduce(vec![comm.rank() as f32; 6], |mut acc, m| {
                    for (a, b) in acc.iter_mut().zip(m) {
                        *a += b;
                    }
                    acc
                })
            })
            .unwrap();
        predicted.check_report(&report).unwrap();
    }

    #[test]
    fn stacked_plan_repeats_each_rank_schedule() {
        let p = params(2, 1, 4);
        let locals = uniform_locals(3, 2, &p, 90);
        let layer = pass_kv_plan(&locals).unwrap();
        let stacked = stacked_plan(layer.clone(), 4);
        assert_eq!(stacked.world, layer.world);
        for (sp, lp) in stacked.ranks.iter().zip(&layer.ranks) {
            assert_eq!(sp.ops.len(), 4 * lp.ops.len());
            assert_eq!(&sp.ops[..lp.ops.len()], &lp.ops[..]);
            assert_eq!(&sp.ops[3 * lp.ops.len()..], &lp.ops[..]);
        }
        assert_eq!(
            stacked.predicted_traffic().send_recv.bytes,
            4 * layer.predicted_traffic().send_recv.bytes
        );
    }

    #[test]
    fn skeleton_tensors_are_not_deep_copied() {
        let p = params(2, 1, 4);
        let locals = uniform_locals(2, 3, &p, 70);
        let msg = kv_skeleton(&locals[0]);
        match msg {
            RingMsg::Kv { seqs } => {
                assert!(seqs[0].k.shares_buffer(&locals[0][0].k));
            }
            other => panic!("expected Kv skeleton, got {other:?}"),
        }
    }
}
