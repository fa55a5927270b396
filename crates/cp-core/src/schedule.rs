//! Declared communication schedules for the ring algorithms.
//!
//! Each of the paper's ring algorithms (Alg. 2–4) follows a fixed,
//! data-independent communication schedule: which peer every rank talks to
//! at every step, which message variant it carries, and how many wire
//! bytes move. Each schedule family is declared once, as a
//! [`SymTemplate`] in [`crate::template`]; this module owns the ring paths
//! the templates evaluate over and the byte tables they are grounded on
//! (derived from [`Wire::wire_bytes`] on skeleton messages, never
//! hand-computed, so plan and live traffic agree by construction). A
//! production plan is always "family template + byte tables + ground":
//! [`ring_plan`] maps a ring schedule cell ([`RingSpec`]) to its family.
//!
//! The plans feed two static-analysis layers:
//!
//! * the `cp-verify` model checker proves deadlock-freedom, variant
//!   agreement, ring-step ordering, and wire-byte conservation — on the
//!   symbolic templates for every `W`, and on grounded plans offline;
//! * [`cp_comm::CheckedFabric`] enforces the same plan against live
//!   traffic at runtime ([`run_ring_checked`]), sanitizer-style.

use cp_attention::AttentionParams;
pub use cp_comm::Topology;
use cp_comm::{CheckedFabric, CommPlan, Communicator, RankPlan, TrafficReport, Wire};
use cp_kvcache::QuantizedKv;
use cp_perf::RingDirection;

use crate::error::to_comm_error;
use crate::messages::{
    split_slot_vec, DecodeSlot, LocalSeq, QuantSeqKv, RingMsg, SeqKv, SeqQ, ELEM_BYTES,
};
use crate::spec::{RingAlgo, RingSpec, RingWire};
use crate::template::{
    all_gather_baseline_template, decode_bidi_template, decode_template, forward_template,
    helix_layer_template, on_hier, pass_kv_bidi_template, pass_kv_chunked_template,
    pass_kv_quant_bidi_template, pass_kv_quant_template, pass_kv_template, pass_q_bidi_template,
    pass_q_template, tp_all_gather_template, tp_all_reduce_template, tp_only_decode_template,
    SymTemplate,
};
use crate::CoreError;

/// Which rank's block rank `rank` holds at ring step `step` (0-based), for
/// a `world`-rank ring rotating towards `rank + 1`.
///
/// Step 0 is before any exchange (every rank holds its own block); after
/// each hop the block that originated at `origin` moves one rank forward,
/// so `origin = (rank + world - step) mod world`. The ring algorithms and
/// plan grounding both use this single definition, and pass-Q / decode
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

/// Marks every destination rank that receives ring-hop posts from `rank`
/// along any of `paths`. The fabric's channels are FIFO per directed rank
/// pair, so an eager pass-Q `Out` return posted to such a destination
/// before the final round could land *ahead of* a later hop payload on
/// the same channel and be claimed by the receiver's hop `irecv`. The
/// loops therefore stash returns to these destinations and flush them at
/// the top of the final round — after the last hop post, before the final
/// round's computes — and template grounding applies the same rule.
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

/// One schedule family's template paired with the byte tables of one
/// concrete input: grounding it declares the plan the loop is checked
/// against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// The family, declared once in [`crate::template`].
    pub template: SymTemplate,
    /// One per-rank wire-byte table per [`SymTemplate::table_names`]
    /// entry, derived from the payload types' [`Wire`] impls.
    pub tables: Vec<Vec<usize>>,
}

impl Schedule {
    /// Number of ranks the tables cover.
    pub fn world(&self) -> usize {
        self.tables.first().map_or(0, Vec::len)
    }

    /// The same schedule issued once per transformer layer
    /// ([`forward_template`]).
    pub fn stacked(self, layers: usize) -> Schedule {
        Schedule {
            template: forward_template(self.template, layers),
            ..self
        }
    }

    /// Grounds the template on the tables.
    ///
    /// # Errors
    ///
    /// As [`SymTemplate::ground`].
    pub fn ground(&self) -> Result<CommPlan, CoreError> {
        self.template.ground(self.world(), &self.tables)
    }
}

/// Per-rank wire-byte tables: `f` meters rank `r`'s input into its `N`
/// table entries, and table `i` collects entry `i` of every rank.
fn rank_tables<T, const N: usize>(
    ranks: &[T],
    f: impl Fn(&T) -> Result<[usize; N], CoreError>,
) -> Result<Vec<Vec<usize>>, CoreError> {
    let mut tables = vec![Vec::with_capacity(ranks.len()); N];
    for input in ranks {
        for (t, bytes) in tables.iter_mut().zip(f(input)?) {
            t.push(bytes);
        }
    }
    Ok(tables)
}

/// Sums `f`'s `N` entries over one rank's sequences — wire bytes are
/// additive over a message's sequences, so this meters the whole message.
fn sum_seqs<const N: usize>(
    locals: &[LocalSeq],
    f: impl Fn(&LocalSeq) -> Result<[usize; N], CoreError>,
) -> Result<[usize; N], CoreError> {
    let mut sums = [0usize; N];
    for l in locals {
        for (s, bytes) in sums.iter_mut().zip(f(l)?) {
            *s += bytes;
        }
    }
    Ok(sums)
}

fn kv_bytes(seq: SeqKv) -> usize {
    RingMsg::Kv { seqs: vec![seq] }.wire_bytes()
}

/// Per-rank wire bytes of each rank's whole KV block.
fn kv_tables(locals: &[Vec<LocalSeq>]) -> Result<Vec<Vec<usize>>, CoreError> {
    rank_tables(locals, |ls| sum_seqs(ls, |l| Ok([kv_bytes(l.kv())])))
}

/// Per-rank wire bytes of the two KV halves split at each sequence's
/// token midpoint — the bidirectional halves and the depth-2 chunks.
fn kv_half_tables(locals: &[Vec<LocalSeq>]) -> Result<Vec<Vec<usize>>, CoreError> {
    rank_tables(locals, |ls| {
        sum_seqs(ls, |l| {
            let (a, b) = l.kv().split_halves()?;
            Ok([kv_bytes(a), kv_bytes(b)])
        })
    })
}

fn kv_quant_bytes(seq: QuantSeqKv) -> usize {
    RingMsg::KvQuant { seqs: vec![seq] }.wire_bytes()
}

fn q_bytes(seq: SeqQ) -> usize {
    RingMsg::Q {
        origin: 0,
        seqs: vec![seq],
    }
    .wire_bytes()
}

/// Wire bytes of the `Out` message carrying one query block's partial
/// attention results: the partial output has the query's shape
/// (`t × n_heads × head_dim`) and the LSE is `t × n_heads`.
fn out_bytes(params: &AttentionParams, seq: &SeqQ) -> usize {
    (seq.q.numel() + seq.pos.len() * params.shape.n_heads()) * ELEM_BYTES
}

fn decode_q_bytes(slots: Vec<Option<DecodeSlot>>) -> usize {
    RingMsg::DecodeQ { origin: 0, slots }.wire_bytes()
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

/// A zero-code [`QuantSeqKv`] with the byte geometry of `l`'s KV shard:
/// `t · n_kv · d` one-byte codes plus `t · n_kv` f32 scales per tensor.
/// Built from parts (no quantization arithmetic) — it exists only to ask
/// the payload type for its own wire size.
fn kv_quant_skeleton(l: &LocalSeq) -> Result<QuantSeqKv, CoreError> {
    let shape = l.k.shape();
    let dim = |i: usize| shape.get(i).copied().unwrap_or(0);
    let (t, h, d) = (dim(0), dim(1), dim(2));
    let codes = || {
        QuantizedKv::from_parts(vec![0i8; t * h * d], vec![1.0f32; t * h], t, h, d)
            .map_err(CoreError::from)
    };
    Ok(QuantSeqKv {
        k: codes()?,
        v: codes()?,
        pos: l.kv_pos.clone(),
    })
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

/// The family and byte tables of the schedule the ring loop issues for
/// `input` on the cell `spec` — the one place a cell is matched to its
/// template. Depth 0 and depth 1 post the same ops in the same order, so
/// they share a family; depth 2 circulates each block as two forward
/// chunks; a bidirectional cell splits every payload into counter-rotating
/// halves; a hierarchical layout grounds the family on [`on_hier`].
///
/// # Errors
///
/// [`CoreError::BadRequest`] for an empty rank list, a topology that does
/// not cover the rank count, or a cell the loops do not support (the same
/// cells [`crate::ring`] rejects).
pub fn ring_schedule(
    input: RingInput<'_>,
    spec: &RingSpec,
    params: &AttentionParams,
) -> Result<Schedule, CoreError> {
    let (algo, world) = match input {
        RingInput::PassKv(locals) => (RingAlgo::PassKv, locals.len()),
        RingInput::PassQ(locals) => (RingAlgo::PassQ, locals.len()),
        RingInput::Decode(slots) => (RingAlgo::Decode, slots.len()),
    };
    spec.lanes(algo, nonzero_world(world)?)?;
    let bidi = spec.direction == RingDirection::Bidi;
    let (template, tables) = match input {
        RingInput::PassKv(locals) => match (spec.wire, bidi) {
            (RingWire::F32, false) if spec.depth == 2 => {
                (pass_kv_chunked_template(), kv_half_tables(locals)?)
            }
            (RingWire::F32, false) => (pass_kv_template(), kv_tables(locals)?),
            (RingWire::F32, true) => (pass_kv_bidi_template(), kv_half_tables(locals)?),
            (RingWire::Int8, false) => (
                pass_kv_quant_template(),
                rank_tables(locals, |ls| {
                    sum_seqs(ls, |l| Ok([kv_quant_bytes(kv_quant_skeleton(l)?)]))
                })?,
            ),
            (RingWire::Int8, true) => (
                pass_kv_quant_bidi_template(),
                rank_tables(locals, |ls| {
                    sum_seqs(ls, |l| {
                        let (a, b) = kv_quant_skeleton(l)?.split_halves()?;
                        Ok([kv_quant_bytes(a), kv_quant_bytes(b)])
                    })
                })?,
            ),
        },
        RingInput::PassQ(locals) if bidi => (
            pass_q_bidi_template(),
            rank_tables(locals, |ls| {
                sum_seqs(ls, |l| {
                    let (a, b) = l.queries().split_halves()?;
                    let (out_a, out_b) = (out_bytes(params, &a), out_bytes(params, &b));
                    Ok([q_bytes(a), q_bytes(b), out_a, out_b])
                })
            })?,
        ),
        RingInput::PassQ(locals) => (
            pass_q_template(),
            rank_tables(locals, |ls| {
                sum_seqs(ls, |l| {
                    let q = l.queries();
                    let out = out_bytes(params, &q);
                    Ok([q_bytes(q), out])
                })
            })?,
        ),
        RingInput::Decode(slots) if bidi => (
            decode_bidi_template(),
            rank_tables(slots, |s| {
                let (a, b) = split_slot_vec(s);
                Ok([
                    decode_q_bytes(a),
                    decode_q_bytes(b),
                    decode_out_bytes(params, s),
                ])
            })?,
        ),
        RingInput::Decode(slots) => (decode_template(), decode_tables(params, slots)?),
    };
    let template = match spec.layout {
        RingLayout::Flat => template,
        RingLayout::Hier(topo) => on_hier(template, topo.ranks_per_node),
    };
    Ok(Schedule { template, tables })
}

/// Declares the schedule the ring loop issues for `input` on the cell
/// `spec`: [`ring_schedule`]'s family grounded on its byte tables.
///
/// # Errors
///
/// As [`ring_schedule`].
pub fn ring_plan(
    input: RingInput<'_>,
    spec: &RingSpec,
    params: &AttentionParams,
) -> Result<CommPlan, CoreError> {
    ring_schedule(input, spec, params)?.ground()
}

/// Per-rank `DecodeQ` and `DecodeOut` bytes of one decode step — the
/// tables the pass-Q decode ring and Helix decode share.
fn decode_tables(
    params: &AttentionParams,
    slots: &[Vec<Option<DecodeSlot>>],
) -> Result<Vec<Vec<usize>>, CoreError> {
    rank_tables(slots, |s| {
        Ok([decode_q_bytes(s.clone()), decode_out_bytes(params, s)])
    })
}

/// Declares `layers` transformer layers of cp-serve's Helix decode
/// ([`helix_layer_template`]): per layer, the attention collectives of
/// [`crate::ring::helix_decode`] followed by the TP reshard — an
/// `AllGather` replicating each owner's merged attention rows (`Act`
/// payloads of `real_slots × D` f32 rows) and the two row-parallel
/// `AllReduce`s each summing a full `[batch, D]` partial per rank.
///
/// # Errors
///
/// [`CoreError::BadRequest`] for an empty rank list.
pub fn helix_layer_plan(
    params: &AttentionParams,
    slots: &[Vec<Option<DecodeSlot>>],
    model_dim: usize,
    layers: usize,
) -> Result<CommPlan, CoreError> {
    let world = nonzero_world(slots.len())?;
    let mut tables = decode_tables(params, slots)?;
    let act: Vec<usize> = slots
        .iter()
        .map(|s| s.iter().flatten().count() * model_dim * ELEM_BYTES)
        .collect();
    let batch_rows = act.iter().sum();
    tables.extend([act, vec![batch_rows; world]]);
    Schedule {
        template: helix_layer_template(),
        tables,
    }
    .stacked(layers)
    .ground()
}

/// Declares `layers` layers of TP-only decode
/// ([`crate::ring::tp_only_decode`]): per layer one `AllGather` moving
/// every rank's per-sequence KV shards (`kv_bytes[r]` wire bytes from
/// rank `r`). At `world == 1` the loop issues no collective at all, so
/// the single rank's plan is empty.
///
/// # Errors
///
/// [`CoreError::BadRequest`] for an empty rank list.
pub fn tp_only_decode_plan(kv_bytes: &[usize], layers: usize) -> Result<CommPlan, CoreError> {
    if nonzero_world(kv_bytes.len())? == 1 {
        return Ok(CommPlan::from_ranks(vec![RankPlan {
            rank: 0,
            ops: Vec::new(),
        }]));
    }
    Schedule {
        template: tp_only_decode_template(),
        tables: vec![kv_bytes.to_vec()],
    }
    .stacked(layers)
    .ground()
}

/// Declares the all-gather pass-KV baseline schedule
/// ([`crate::baseline::all_gather_pass_kv_prefill`], Llama3-training style,
/// §3.5.2): a single `AllGather` per rank broadcasting the rank's own KV
/// shard. Byte-for-byte it moves the ring schedule's total volume, but all
/// of it sits un-overlapped before any compute starts.
///
/// # Errors
///
/// [`CoreError::BadRequest`] for an empty rank list.
pub fn all_gather_pass_kv_plan(locals: &[Vec<LocalSeq>]) -> Result<CommPlan, CoreError> {
    all_gather_baseline_template().ground(nonzero_world(locals.len())?, &kv_tables(locals)?)
}

/// Declares a single-collective `AllReduce` schedule: every rank
/// contributes `bytes[r]` wire bytes of `variant` payload and collects
/// every peer's contribution for the deterministic fold — cp-model's
/// tensor-parallel column→row pairs (Table 2). Callers derive `bytes` and
/// `variant` from the payload's `Wire` impl on a skeleton value.
///
/// # Errors
///
/// [`CoreError::BadRequest`] for an empty rank list.
pub fn all_reduce_plan(variant: &'static str, bytes: &[usize]) -> Result<CommPlan, CoreError> {
    tp_all_reduce_template(variant).ground(nonzero_world(bytes.len())?, &[bytes.to_vec()])
}

/// Declares a single-collective `AllGather` schedule: every rank
/// broadcasts `bytes[r]` wire bytes of `variant` payload and collects one
/// payload from each peer — cp-model's TP attention reassembling per-head
/// outputs (§4.2.2).
///
/// # Errors
///
/// [`CoreError::BadRequest`] for an empty rank list.
pub fn all_gather_plan(variant: &'static str, bytes: &[usize]) -> Result<CommPlan, CoreError> {
    tp_all_gather_template(variant).ground(nonzero_world(bytes.len())?, &[bytes.to_vec()])
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
    use cp_comm::CommOp;
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
        let plan = ring_plan(RingInput::PassKv(&locals), &RingSpec::default(), &p).unwrap();
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
        let spec = RingSpec::default();
        let kv = ring_plan(RingInput::PassKv(&locals), &spec, &p).unwrap();
        assert!(kv.ranks[0].ops.is_empty());
        let q = ring_plan(RingInput::PassQ(&locals), &spec, &p).unwrap();
        // A single rank keeps its own partial locally: no hops, no return
        // sends, no receives.
        assert!(q.ranks[0].ops.is_empty());
        assert_eq!(q.predicted_traffic().messages, 0);
    }

    #[test]
    fn empty_rank_list_is_rejected() {
        let p = params(2, 1, 4);
        let spec = RingSpec::default();
        for input in [
            RingInput::PassKv(&[]),
            RingInput::PassQ(&[]),
            RingInput::Decode(&[]),
        ] {
            assert!(matches!(
                ring_plan(input, &spec, &p),
                Err(CoreError::BadRequest { .. })
            ));
        }
    }

    #[test]
    fn checked_pass_kv_matches_plan_and_predicted_traffic() {
        let p = params(2, 1, 4);
        for n in [2, 3, 4] {
            let locals = uniform_locals(n, 3, &p, n as u64);
            let plan = ring_plan(RingInput::PassKv(&locals), &RingSpec::default(), &p).unwrap();
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
            let plan = ring_plan(RingInput::PassQ(&locals), &RingSpec::default(), &p).unwrap();
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
            let plan = ring_plan(RingInput::Decode(&slots), &RingSpec::default(), &p).unwrap();
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
            let ring_predicted = ring_plan(RingInput::PassKv(&locals), &RingSpec::default(), &p)
                .unwrap()
                .predicted_traffic();
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
        let plan = ring_plan(RingInput::PassKv(&locals), &RingSpec::default(), &p).unwrap();
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
        let schedule = ring_schedule(RingInput::PassKv(&locals), &RingSpec::default(), &p).unwrap();
        let layer = schedule.ground().unwrap();
        let stacked = schedule.stacked(4).ground().unwrap();
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
        // The byte tables meter `LocalSeq::kv` blocks, which view the
        // shard's buffers rather than copying them.
        let block = locals[0][0].kv();
        assert!(block.k.shares_buffer(&locals[0][0].k));
        assert!(block.v.shares_buffer(&locals[0][0].v));
    }
}
