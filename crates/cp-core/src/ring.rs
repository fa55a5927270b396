//! The paper's ring attention algorithms, exactly as run on each CP rank.
//!
//! Each entry point here is the body one rank executes inside a
//! [`cp_comm::run_ranks`] group. Inputs are the rank's local shards;
//! outputs are that rank's attention results, exact to floating point
//! against a single-device computation (the integration and property test
//! suites pin this for every algorithm).
//!
//! All three algorithms (Alg. 2–4) run on **one** round loop
//! (`ring_rounds`). A [`RingSpec`] names the schedule cell; it resolves
//! to one or two [`RingPath`] lanes (one forward lane, a forward/reverse
//! pair carrying the two halves of every payload, or — at depth 2 — two
//! forward lanes carrying its two chunks). A `Payload` codec puts the
//! circulating block on the wire and takes it back off, naming the peer
//! on a protocol or rotation violation; a `Visitor` supplies what the
//! algorithm does with each visiting block (pass-KV attends and folds,
//! pass-Q attends and returns eagerly, decode attends and stashes for the
//! shared `All2All` tail). The loop issues exactly the traffic
//! [`crate::schedule::ring_plan`] declares for the same cell.
//!
//! Attention within the ring uses the flash-style blocked kernel from
//! `cp-attention`; the per-sequence structure of fused variable-length
//! batches is handled by computing each sequence's partial attention
//! separately (the role a varlen attention kernel plays on GPU).

use cp_attention::{
    blocked_gqa_attention_on, blocked_gqa_attention_source, AttentionOutput, AttentionParams,
};
use cp_comm::{Communicator, PendingRecv};
use cp_kvcache::KvView;
use cp_pool::ComputePool;
use cp_tensor::Tensor;

use crate::error::to_comm_error;
use crate::messages::{
    split_slot_vec, DecodeSlot, LocalSeq, QuantSeqKv, RingMsg, SeqKv, SeqOut, SeqQ,
};
use crate::schedule::{defer_return, hop_channels, RingPath};
use crate::spec::{LanePlan, RingAlgo, RingSpec, RingWire};
use crate::CoreError;

type Comm = Communicator<RingMsg>;

/// KV block size for the flash-style kernel inside ring loops.
const ATTN_BLOCK: usize = 128;

/// The KV block size ring attention uses over paged storage with pages of
/// `page_size` tokens: `ATTN_BLOCK` (128) rounded up to a whole number of
/// pages, so every online-softmax block walks complete pages. The blocked kernel's
/// arithmetic depends only on block boundaries (never on storage layout), so
/// owned tensors attended with this same value are bit-identical to the
/// view path.
pub fn attn_block_for(page_size: usize) -> usize {
    if page_size == 0 {
        ATTN_BLOCK
    } else {
        ATTN_BLOCK.div_ceil(page_size) * page_size
    }
}

/// One rank's stationary KV for a ring algorithm: either owned (gathered or
/// wire-received) tensors, or a zero-copy [`KvView`] borrowed straight from
/// the rank's paged cache. Views are what keep `gather()` off the decode
/// hot path; owned tensors remain for wire-received shards and for callers
/// that hold plain tensors (`SeqKv::into()` attends with the default
/// block).
#[derive(Debug, Clone)]
pub enum RankKv<'a> {
    /// Contiguous owned K/V tensors, attended with an explicit KV block.
    /// Pass [`attn_block_for`] of the source cache's page size to stay
    /// bit-identical to the corresponding view path.
    Owned {
        /// K/V tensors plus their global positions.
        kv: SeqKv,
        /// Online-softmax KV block size for the blocked kernel.
        block: usize,
    },
    /// A borrowed paged-cache view — f32 pages, or the INT8 plane the
    /// kernel dequantizes head by head — attended with [`attn_block_for`]
    /// of its page size.
    View(KvView<'a>),
}

impl From<SeqKv> for RankKv<'static> {
    /// Owned tensors attended with the default `ATTN_BLOCK` (128).
    fn from(kv: SeqKv) -> Self {
        RankKv::Owned {
            kv,
            block: ATTN_BLOCK,
        }
    }
}

fn attend_rank_kv(
    pool: &ComputePool,
    q: &Tensor,
    q_pos: &[usize],
    kv: &RankKv<'_>,
    params: &AttentionParams,
) -> Result<AttentionOutput, CoreError> {
    Ok(match kv {
        RankKv::Owned { kv, block } => {
            blocked_gqa_attention_on(pool, q, &kv.k, &kv.v, params, q_pos, &kv.pos, *block)?
        }
        RankKv::View(view) => blocked_gqa_attention_source(
            pool,
            q,
            &view.source(),
            params,
            q_pos,
            view.positions(),
            attn_block_for(view.page_size()),
        )?,
    })
}

/// Folds one more partial into a running accumulator with the exact
/// pairwise LSE-weighted merge — the O(1)-live-outputs replacement for
/// collecting every hop's partial and batch-merging at the end.
fn fold_partial(acc: &mut Option<AttentionOutput>, out: AttentionOutput) -> Result<(), CoreError> {
    match acc {
        None => *acc = Some(out),
        Some(a) => a.merge_in_place(&out)?,
    }
    Ok(())
}

/// Unwraps the running accumulators once every hop/source has been folded.
fn take_merged(
    acc: Vec<Option<AttentionOutput>>,
    what: &'static str,
) -> Result<Vec<AttentionOutput>, CoreError> {
    acc.into_iter()
        .enumerate()
        .map(|(i, a)| {
            a.ok_or_else(|| CoreError::Internal {
                detail: format!("{what} sequence {i} accumulated no partial output"),
            })
        })
        .collect()
}

/// Folds one source rank's returned pass-Q partial outputs into the running
/// per-sequence accumulators. Sources fold in ascending rank order at every
/// depth, direction and layout, which keeps all pass-Q cells bit-identical.
fn fold_source_outs(
    rank: usize,
    acc: &mut [Option<AttentionOutput>],
    src_rank: usize,
    outs: &[SeqOut],
) -> Result<(), CoreError> {
    let expected = acc.len();
    acc.iter_mut().enumerate().try_for_each(|(i, slot)| {
        let part = outs.get(i).ok_or_else(|| CoreError::BadRequest {
            reason: format!(
                "rank {src_rank} returned {} partial outputs, rank {rank} expected {expected}",
                outs.len(),
            ),
        })?;
        // O(1) view clones of the received partial.
        let part = AttentionOutput::new(part.out.clone(), part.lse.clone())?;
        fold_partial(slot, part)
    })
}

/// Mutable access into a per-origin buffer table, with an out-of-range
/// index (an internal bug: indices come from [`RingPath::origin_at`])
/// surfaced as a typed error instead of a panic.
fn origin_slot<'a, T>(
    table: &'a mut [Option<T>],
    origin: usize,
    what: &'static str,
) -> Result<&'a mut Option<T>, CoreError> {
    let len = table.len();
    table.get_mut(origin).ok_or_else(|| CoreError::Internal {
        detail: format!("{what}: origin {origin} out of range for world {len}"),
    })
}

/// Applies `f` to every item, fanning work out over the rank's persistent
/// compute pool when there is more than one item — the role the GPU's
/// batched varlen kernel plays for fused sequences in the paper. Results
/// are returned in item order and the first error (in item order) wins, so
/// the output is identical to the serial loop. Using the pool instead of
/// per-call scoped threads means a multi-layer forward reuses the same
/// workers for every layer and hop.
fn map_seqs<T, R, F>(pool: &ComputePool, items: &[T], f: F) -> Result<Vec<R>, CoreError>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> Result<R, CoreError> + Sync,
{
    if items.len() <= 1 || pool.parallelism() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let mut results: Vec<Option<Result<R, CoreError>>> = (0..items.len()).map(|_| None).collect();
    let f = &f;
    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = results
        .iter_mut()
        .zip(items)
        .enumerate()
        .map(|(i, (slot, item))| {
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || *slot = Some(f(i, item)));
            job
        })
        .collect();
    pool.run(jobs);
    results
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|| {
                Err(CoreError::Internal {
                    detail: "map_seqs worker left a result slot unfilled".to_string(),
                })
            })
        })
        .collect()
}

/// The payload codec: how a circulating block goes on the wire, comes back
/// off it, and splits into the two halves a two-lane schedule carries.
trait Payload: Clone + Sized {
    /// Wraps a copy of the block as a hop message (O(1) handle clones for
    /// tensor payloads), tagged with the block's `origin` where the
    /// variant carries one.
    fn encode(&self, origin: usize) -> RingMsg;

    /// Takes the block (and its origin tag, if the variant carries one)
    /// out of a hop message; a message of another variant is a protocol
    /// violation attributed to `from_rank`, the peer that sent it.
    fn decode(msg: RingMsg, from_rank: usize) -> Result<(Self, Option<usize>), CoreError>;

    /// Splits the block into the halves the first and second lane carry.
    fn split(&self) -> Result<(Self, Self), CoreError>;
}

/// One sequence's circulating pass-KV block in either wire format: the
/// part of the pass-KV algorithm that differs between [`RingWire::F32`]
/// and [`RingWire::Int8`].
trait KvBlock: Clone + Send + Sync + Sized {
    /// The rank's own block, as it will circulate (quantized once here for
    /// the INT8 format, so the rank attends its own shard through the same
    /// representation every peer sees).
    fn from_local(local: &LocalSeq) -> Result<Self, CoreError>;
    /// Exact inverse of the payload's split, so attending a rejoined block
    /// is bitwise identical to attending the never-split original (the
    /// blocked kernel's online softmax walks KV rows in order).
    fn join(a: &Self, b: &Self) -> Result<Self, CoreError>;
    fn attend(
        &self,
        pool: &ComputePool,
        q: &Tensor,
        q_pos: &[usize],
        params: &AttentionParams,
    ) -> Result<AttentionOutput, CoreError>;
}

impl KvBlock for SeqKv {
    fn from_local(local: &LocalSeq) -> Result<Self, CoreError> {
        // O(1) Arc handle copies: the circulating block views the rank's
        // local shard, no payload bytes are duplicated.
        Ok(local.kv())
    }
    fn join(a: &Self, b: &Self) -> Result<Self, CoreError> {
        Ok(SeqKv::join_halves(a, b)?)
    }
    fn attend(
        &self,
        pool: &ComputePool,
        q: &Tensor,
        q_pos: &[usize],
        params: &AttentionParams,
    ) -> Result<AttentionOutput, CoreError> {
        Ok(blocked_gqa_attention_on(
            pool, q, &self.k, &self.v, params, q_pos, &self.pos, ATTN_BLOCK,
        )?)
    }
}

impl KvBlock for QuantSeqKv {
    fn from_local(local: &LocalSeq) -> Result<Self, CoreError> {
        Ok(QuantSeqKv::quantize(&local.kv())?)
    }
    fn join(a: &Self, b: &Self) -> Result<Self, CoreError> {
        Ok(QuantSeqKv::join_halves(a, b)?)
    }
    fn attend(
        &self,
        pool: &ComputePool,
        q: &Tensor,
        q_pos: &[usize],
        params: &AttentionParams,
    ) -> Result<AttentionOutput, CoreError> {
        // One `code as f32 * scale` per element, as the kernel's own
        // dequantizing pack would do, so this is bitwise the same.
        self.dequantize().attend(pool, q, q_pos, params)
    }
}

/// Splits every sequence of a fused batch with `split` and regroups the
/// halves per lane.
fn split_each<T, E: Into<CoreError>>(
    seqs: &[T],
    split: impl Fn(&T) -> Result<(T, T), E>,
) -> Result<(Vec<T>, Vec<T>), CoreError> {
    let halves: Result<Vec<(T, T)>, E> = seqs.iter().map(split).collect();
    Ok(halves.map_err(Into::into)?.into_iter().unzip())
}

impl Payload for Vec<SeqKv> {
    fn encode(&self, _origin: usize) -> RingMsg {
        RingMsg::Kv { seqs: self.clone() }
    }
    fn decode(msg: RingMsg, from_rank: usize) -> Result<(Self, Option<usize>), CoreError> {
        match msg {
            RingMsg::Kv { seqs } => Ok((seqs, None)),
            other => Err(wrong_variant(from_rank, "Kv", &other)),
        }
    }
    fn split(&self) -> Result<(Self, Self), CoreError> {
        split_each(self, SeqKv::split_halves)
    }
}

impl Payload for Vec<QuantSeqKv> {
    fn encode(&self, _origin: usize) -> RingMsg {
        RingMsg::KvQuant { seqs: self.clone() }
    }
    fn decode(msg: RingMsg, from_rank: usize) -> Result<(Self, Option<usize>), CoreError> {
        match msg {
            RingMsg::KvQuant { seqs } => Ok((seqs, None)),
            other => Err(wrong_variant(from_rank, "KvQuant", &other)),
        }
    }
    fn split(&self) -> Result<(Self, Self), CoreError> {
        split_each(self, QuantSeqKv::split_halves)
    }
}

impl Payload for Vec<SeqQ> {
    fn encode(&self, origin: usize) -> RingMsg {
        RingMsg::Q {
            origin,
            seqs: self.clone(),
        }
    }
    fn decode(msg: RingMsg, from_rank: usize) -> Result<(Self, Option<usize>), CoreError> {
        match msg {
            RingMsg::Q { origin, seqs } => Ok((seqs, Some(origin))),
            other => Err(wrong_variant(from_rank, "Q", &other)),
        }
    }
    /// Query rows are independent under the blocked kernel, so the halves'
    /// outputs concatenate to the full-block partial bitwise.
    fn split(&self) -> Result<(Self, Self), CoreError> {
        split_each(self, SeqQ::split_halves)
    }
}

impl Payload for Vec<Option<DecodeSlot>> {
    fn encode(&self, origin: usize) -> RingMsg {
        RingMsg::DecodeQ {
            origin,
            slots: self.clone(),
        }
    }
    fn decode(msg: RingMsg, from_rank: usize) -> Result<(Self, Option<usize>), CoreError> {
        match msg {
            RingMsg::DecodeQ { origin, slots } => Ok((slots, Some(origin))),
            other => Err(wrong_variant(from_rank, "DecodeQ", &other)),
        }
    }
    /// Slots are independent single-token queries, so per-origin halves
    /// simply re-concatenate before the shared `All2All` return.
    fn split(&self) -> Result<(Self, Self), CoreError> {
        Ok(split_slot_vec(self))
    }
}

/// The typed error for a message of the wrong variant, naming its sender.
fn wrong_variant(from_rank: usize, expected: &'static str, got: &RingMsg) -> CoreError {
    CoreError::ProtocolViolation {
        from_rank,
        expected,
        got: got.variant_name(),
    }
}

/// One direction of circulation: the path a payload follows and the block
/// currently visiting this rank along it.
struct Lane<P> {
    path: RingPath,
    visiting: P,
}

fn lane<P>(path: RingPath, visiting: P) -> Lane<P> {
    Lane { path, visiting }
}

/// What one ring algorithm does with the blocks the loop brings it.
trait Visitor<P> {
    /// Attends what is on board at `round` (each lane's visiting block),
    /// keeping the result. Issues no hop traffic.
    fn compute(&mut self, comm: &Comm, round: usize, lanes: &[Lane<P>]) -> Result<(), CoreError>;

    /// Issues the traffic the round's compute produced (pass-Q's eager
    /// `Out` returns). Runs after the round's hop posts at every depth, so
    /// the op order on the wire — and hence the declared plan — does not
    /// depend on the depth.
    fn emit(&mut self, _comm: &Comm) -> Result<(), CoreError> {
        Ok(())
    }
}

/// The one ring loop: `world` rounds over one or two lanes. Every round
/// computes on the visiting blocks and moves each lane one hop along its
/// path (`world - 1` hops per lane in total).
///
/// With `overlap` the hop delivering round `j + 1`'s block is in flight
/// while round `j` computes — posted up front for round 0 and re-posted
/// per lane the moment that lane's previous hop is waited (so a chunk
/// lane forwards before its sibling has landed: cut-through) — hiding
/// wire time under compute, the paper's `latency(SendRecv) <=
/// latency(ATTN)` condition (§3.3). Without it each round computes first
/// and only then posts and waits its hops, exposing the full wire time.
/// Both orders issue the same ops in the same sequence.
fn ring_rounds<'c, P: Payload, V: Visitor<P>>(
    comm: &'c Comm,
    overlap: bool,
    lanes: &mut [Lane<P>],
    visitor: &mut V,
) -> Result<(), CoreError> {
    let n = comm.world_size();
    let rank = comm.rank();
    // Hop `hop` of a lane forwards the block it holds at round `hop`; the
    // last round forwards nothing.
    let post =
        |lane: &Lane<P>, hop: usize| -> Result<Option<PendingRecv<'c, RingMsg>>, CoreError> {
            if hop + 1 >= n {
                return Ok(None);
            }
            let origin = lane.path.origin_at(rank, hop);
            Ok(Some(comm.isend_irecv(
                lane.path.send_peer(rank, hop),
                lane.visiting.encode(origin),
                lane.path.recv_peer(rank, hop),
            )?))
        };
    let mut pending: [Option<PendingRecv<'c, RingMsg>>; 2] = [None, None];
    if overlap {
        // First lane first — the order receivers wait them in, which
        // disambiguates the payloads when both lanes share a channel.
        for (lane, slot) in lanes.iter().zip(&mut pending) {
            *slot = post(lane, 0)?;
        }
    }
    for j in 0..n {
        visitor.compute(comm, j, lanes)?;
        if !overlap {
            for (lane, slot) in lanes.iter().zip(&mut pending) {
                *slot = post(lane, j)?;
            }
        }
        visitor.emit(comm)?;
        for (lane, slot) in lanes.iter_mut().zip(&mut pending) {
            let Some(hop) = slot.take() else { continue };
            let from = lane.path.recv_peer(rank, j);
            let (block, tag) = P::decode(hop.wait()?, from)?;
            // The rotation invariant, attributed to the forwarding peer.
            let expected_origin = lane.path.origin_at(rank, j + 1);
            if let Some(got_origin) = tag.filter(|&got| got != expected_origin) {
                return Err(CoreError::RingOrderViolation {
                    from_rank: from,
                    step: j + 1,
                    expected_origin,
                    got_origin,
                });
            }
            lane.visiting = block;
            if overlap {
                *slot = post(lane, j + 1)?;
            }
        }
    }
    Ok(())
}

/// Runs [`ring_rounds`] over a spec's lanes: the whole payload on a single
/// lane, or its two halves on two.
fn circulate<P: Payload, V: Visitor<P>>(
    comm: &Comm,
    plan: &LanePlan,
    payload: P,
    visitor: &mut V,
) -> Result<(), CoreError> {
    match *plan.paths() {
        [path] => ring_rounds(comm, plan.overlap, &mut [lane(path, payload)], visitor),
        [first, second] => {
            let (a, b) = payload.split()?;
            let mut lanes = [lane(first, a), lane(second, b)];
            ring_rounds(comm, plan.overlap, &mut lanes, visitor)
        }
        _ => Err(CoreError::Internal {
            detail: "a ring spec resolves to one or two lanes".to_string(),
        }),
    }
}

/// The order pass-KV partials fold in — derived from the wire format, not
/// chosen: f32 cells fold in the forward lane's visit order (the classic
/// per-hop incremental merge), INT8 cells in ascending origin order, which
/// makes the whole compressed family one bitwise equivalence class across
/// directions and layouts.
#[derive(Debug, Clone, Copy)]
enum FoldOrder {
    Visit(RingPath),
    Canonical,
}

/// Folds per-origin pass-KV partials in a fixed [`FoldOrder`], eagerly: a
/// partial is folded the moment every origin before it has been, and
/// parked until then. On a single forward f32 lane origins arrive in fold
/// order, so nothing is ever parked and live outputs stay O(1) per
/// sequence.
struct OrderedFold {
    order: FoldOrder,
    next: usize,
    parked: Vec<Option<Vec<AttentionOutput>>>,
    acc: Vec<Option<AttentionOutput>>,
}

impl OrderedFold {
    fn new(order: FoldOrder, world: usize, n_seqs: usize) -> Self {
        OrderedFold {
            order,
            next: 0,
            parked: vec![None; world],
            acc: (0..n_seqs).map(|_| None).collect(),
        }
    }

    fn push(
        &mut self,
        comm: &Comm,
        origin: usize,
        partials: Vec<AttentionOutput>,
    ) -> Result<(), CoreError> {
        *origin_slot(&mut self.parked, origin, "pass-kv partials")? = Some(partials);
        while self.next < self.parked.len() {
            let due = match self.order {
                FoldOrder::Visit(path) => path.origin_at(comm.rank(), self.next),
                FoldOrder::Canonical => self.next,
            };
            let Some(step) = origin_slot(&mut self.parked, due, "pass-kv partials")?.take() else {
                break;
            };
            let acc = &mut self.acc;
            comm.time_compute("merge pass-kv", || {
                acc.iter_mut()
                    .zip(step)
                    .try_for_each(|(a, out)| fold_partial(a, out))
            })?;
            self.next += 1;
        }
        Ok(())
    }

    fn finish(self) -> Result<Vec<AttentionOutput>, CoreError> {
        if self.next != self.parked.len() {
            return Err(CoreError::Internal {
                detail: format!(
                    "pass-kv loop folded {} of {} origins",
                    self.next,
                    self.parked.len()
                ),
            });
        }
        take_merged(self.acc, "pass-kv")
    }
}

/// Pass-KV: attend the stationary local queries against each visiting KV
/// block and fold the partials (Eq. 4).
struct PassKvVisitor<'a, B> {
    params: &'a AttentionParams,
    locals: &'a [LocalSeq],
    /// Two-lane schedules: the first-arrived half of each origin's block,
    /// until its sibling lands.
    parked: Vec<Option<Vec<B>>>,
    fold: OrderedFold,
}

impl<B: KvBlock> PassKvVisitor<'_, B> {
    fn attend(&mut self, comm: &Comm, origin: usize, block: &[B]) -> Result<(), CoreError> {
        let (rank, pool) = (comm.rank(), comm.pool());
        let (params, locals) = (self.params, self.locals);
        let step = comm.time_compute("attend pass-kv", || {
            map_seqs(pool, locals, |i, local| {
                let kv = block.get(i).ok_or_else(|| CoreError::BadRequest {
                    reason: format!(
                        "KV block of origin {origin} carries {} sequences but rank {rank} holds \
                         {} local sequences",
                        block.len(),
                        locals.len()
                    ),
                })?;
                kv.attend(pool, &local.q, &local.q_pos, params)
            })
        })?;
        self.fold.push(comm, origin, step)
    }

    /// The both-halves-on-board rule: an origin is attended the round its
    /// second half arrives (the later of its two lanes' arrival rounds;
    /// the same round for chunk lanes), on the exactly rejoined block.
    fn offer(
        &mut self,
        comm: &Comm,
        side: usize,
        origin: usize,
        half: &[B],
    ) -> Result<(), CoreError> {
        let slot = origin_slot(&mut self.parked, origin, "pass-kv halves")?;
        let Some(other) = slot.take() else {
            *slot = Some(half.to_vec());
            return Ok(());
        };
        // Each lane visits an origin once, so the parked half is the other
        // lane's; lane 0 carries the front half.
        let (a, b) = if side == 0 {
            (half, other.as_slice())
        } else {
            (other.as_slice(), half)
        };
        if a.len() != b.len() {
            return Err(CoreError::BadRequest {
                reason: format!(
                    "rank {} received mismatched KV halves of origin {origin}: {} vs {} sequences",
                    comm.rank(),
                    a.len(),
                    b.len()
                ),
            });
        }
        let full: Vec<B> = a
            .iter()
            .zip(b)
            .map(|(ha, hb)| B::join(ha, hb))
            .collect::<Result<_, _>>()?;
        self.attend(comm, origin, &full)
    }
}

impl<B: KvBlock> Visitor<Vec<B>> for PassKvVisitor<'_, B> {
    fn compute(
        &mut self,
        comm: &Comm,
        round: usize,
        lanes: &[Lane<Vec<B>>],
    ) -> Result<(), CoreError> {
        let rank = comm.rank();
        if let [lane] = lanes {
            return self.attend(comm, lane.path.origin_at(rank, round), &lane.visiting);
        }
        lanes.iter().enumerate().try_for_each(|(side, lane)| {
            self.offer(comm, side, lane.path.origin_at(rank, round), &lane.visiting)
        })
    }
}

fn pass_kv<B: KvBlock>(
    comm: &Comm,
    params: &AttentionParams,
    spec: &RingSpec,
    locals: &[LocalSeq],
) -> Result<Vec<AttentionOutput>, CoreError>
where
    Vec<B>: Payload,
{
    let n = comm.world_size();
    let plan = spec.lanes(RingAlgo::PassKv, n)?;
    let order = match (spec.wire, plan.paths().first()) {
        (RingWire::F32, Some(&fwd)) => FoldOrder::Visit(fwd),
        _ => FoldOrder::Canonical,
    };
    let own = locals
        .iter()
        .map(B::from_local)
        .collect::<Result<Vec<B>, _>>()?;
    let mut visitor = PassKvVisitor {
        params,
        locals,
        parked: vec![None; n],
        fold: OrderedFold::new(order, n, locals.len()),
    };
    circulate(comm, &plan, own, &mut visitor)?;
    visitor.fold.finish()
}

/// Algorithm 2 — fused variable-length ring pass-KV partial prefill, as
/// executed by one rank on the schedule cell `spec`.
///
/// `locals` holds this rank's per-sequence queries and (padded) KV shards.
/// KV blocks circulate `W-1` hops per lane; each round computes partial
/// attention between the stationary local queries and the visiting KV, and
/// the partials are folded with the exact pairwise merge (Eq. 4).
///
/// Every layout visits every origin exactly once, so results are exact on
/// every cell. Within [`RingWire::F32`], direction and depth leave the
/// fold order untouched (bitwise identical outputs), while a hierarchical
/// layout visits — and therefore folds — origins in a different order than
/// the flat ring (mathematically equal, not bitwise). [`RingWire::Int8`]
/// cells fold canonically and are bitwise identical to each other on every
/// direction and layout, within the quantization error bound
/// (`QuantizedKv::error_bound`) of the f32 cells.
///
/// Returns one [`AttentionOutput`] per sequence, rows in `q_pos` order.
///
/// # Errors
///
/// [`CoreError::BadRequest`] for an unsupported cell or a topology that
/// does not cover the world size (before any message is posted);
/// communication failures, shape mismatches, or a protocol violation if a
/// message of another variant arrives.
pub fn ring_pass_kv_prefill(
    comm: &Communicator<RingMsg>,
    params: &AttentionParams,
    spec: &RingSpec,
    locals: &[LocalSeq],
) -> Result<Vec<AttentionOutput>, CoreError> {
    match spec.wire {
        RingWire::F32 => pass_kv::<SeqKv>(comm, params, spec, locals),
        RingWire::Int8 => pass_kv::<QuantSeqKv>(comm, params, spec, locals),
    }
}

/// Attends one batch of visiting query blocks (a full block or a half)
/// against the stationary local KV. An empty block — the second half of a
/// one-token sequence — produces a zero-row output without touching the
/// kernel; it concatenates back losslessly on the origin rank.
fn attend_visiting_q(
    comm: &Comm,
    params: &AttentionParams,
    local_kv: &[RankKv<'_>],
    visiting: &[SeqQ],
    origin: usize,
) -> Result<Vec<SeqOut>, CoreError> {
    let pool = comm.pool();
    let k = comm.rank();
    comm.time_compute("attend pass-q", || {
        map_seqs(pool, visiting, |i, sq| {
            let kv = local_kv.get(i).ok_or_else(|| CoreError::BadRequest {
                reason: format!(
                    "rank {origin} sent {} query sequences but rank {k} holds {} local KV \
                     sequences",
                    visiting.len(),
                    local_kv.len()
                ),
            })?;
            if sq.pos.is_empty() {
                let shape = params.shape;
                return Ok(SeqOut {
                    out: Tensor::zeros(&[0, shape.n_heads(), shape.head_dim()]),
                    lse: Tensor::zeros(&[0, shape.n_heads()]),
                });
            }
            attend_rank_kv(pool, &sq.q, &sq.pos, kv, params).map(|o| SeqOut {
                out: o.out,
                lse: o.lse,
            })
        })
    })
}

/// Posts every queued pass-Q return. Buffered posts: completion is
/// implicit (channels are unbounded), so the handles are dropped.
fn post_returns(
    comm: &Comm,
    queue: impl Iterator<Item = (usize, RingMsg)>,
) -> Result<(), CoreError> {
    for (dst, msg) in queue {
        let _posted = comm.isend(dst, msg)?;
    }
    Ok(())
}

/// Pass-Q: attend each visiting Q block against the stationary local KV
/// and return the partials to their origin **eagerly** — an isend posted
/// the round they are computed, so the return permutation rides under the
/// remaining rounds' compute instead of forming one exposed All2All at the
/// loop end (Appendix C's exposed-return cost, double-buffered away).
struct PassQVisitor<'a, 'kv> {
    params: &'a AttentionParams,
    local_kv: &'a [RankKv<'kv>],
    /// Destinations that receive this rank's hop posts. A return posted
    /// to one before the final round could be claimed by the receiver's
    /// hop `irecv` (channels are FIFO per rank pair), so it is deferred
    /// and flushed at the top of the final round — see
    /// [`crate::schedule::hop_channels`].
    is_hop_dst: Vec<bool>,
    deferred: Vec<(usize, RingMsg)>,
    /// This round's returns, in lane order, until [`Visitor::emit`].
    ready: [Option<(usize, RingMsg)>; 2],
    /// This rank's own partial per lane (origin == rank, round 0).
    own: [Option<Vec<SeqOut>>; 2],
}

impl Visitor<Vec<SeqQ>> for PassQVisitor<'_, '_> {
    fn compute(
        &mut self,
        comm: &Comm,
        round: usize,
        lanes: &[Lane<Vec<SeqQ>>],
    ) -> Result<(), CoreError> {
        let (n, k) = (comm.world_size(), comm.rank());
        if round + 1 == n {
            // Flush point: all hop posts are behind us, so the deferred
            // returns land on clean channels, in compute (= expected
            // receive) order.
            post_returns(comm, self.deferred.drain(..))?;
        }
        let slots = self.own.iter_mut().zip(&mut self.ready);
        for (lane, (own, ready)) in lanes.iter().zip(slots) {
            let origin = lane.path.origin_at(k, round);
            let outs = attend_visiting_q(comm, self.params, self.local_kv, &lane.visiting, origin)?;
            if origin == k {
                *own = Some(outs);
            } else if defer_return(&self.is_hop_dst, origin, round, n) {
                self.deferred.push((origin, RingMsg::Out { seqs: outs }));
            } else {
                *ready = Some((origin, RingMsg::Out { seqs: outs }));
            }
        }
        Ok(())
    }

    fn emit(&mut self, comm: &Comm) -> Result<(), CoreError> {
        post_returns(comm, self.ready.iter_mut().filter_map(Option::take))
    }
}

impl PassQVisitor<'_, '_> {
    /// Collects this rank's partials from every source — its own from
    /// round 0, one `Out` per lane from each peer — and folds them in
    /// ascending source-rank order, without ever materializing the
    /// per-source partial table.
    fn gather(
        mut self,
        comm: &Comm,
        paths: &[RingPath],
        n_seqs: usize,
    ) -> Result<Vec<AttentionOutput>, CoreError> {
        let (n, k) = (comm.world_size(), comm.rank());
        let hosted_at = |path: &RingPath, src: usize| {
            path.step_of(src, k).ok_or_else(|| CoreError::Internal {
                detail: format!("ring path never routes rank {k}'s block through rank {src}"),
            })
        };
        let mut acc: Vec<Option<AttentionOutput>> = (0..n_seqs).map(|_| None).collect();
        for src in 0..n {
            let halves = if src == k {
                std::mem::take(&mut self.own)
            } else {
                let mut got = [None, None];
                for (slot, _) in got.iter_mut().zip(paths) {
                    let msg = comm.recv(src)?;
                    let RingMsg::Out { seqs } = msg else {
                        return Err(wrong_variant(src, "Out", &msg));
                    };
                    *slot = Some(seqs);
                }
                // src returned each lane's half at the round it hosted it;
                // its channel to us is FIFO, so the earlier round's return
                // arrives first (first lane on a tie: the loop posts
                // returns in lane order within a round).
                if let [a, b] = paths {
                    if hosted_at(a, src)? > hosted_at(b, src)? {
                        got.swap(0, 1);
                    }
                }
                got
            };
            let outs = join_out_halves(k, src, halves)?;
            comm.time_compute("merge pass-q", || fold_source_outs(k, &mut acc, src, &outs))?;
        }
        take_merged(acc, "pass-q")
    }
}

/// Rejoins the per-lane half-outputs a source rank computed for this
/// rank's queries (a single lane's output passes through). Query rows are
/// independent under the blocked kernel, so the concatenation is bitwise
/// the full-block partial a single lane returns.
fn join_out_halves(
    rank: usize,
    src: usize,
    halves: [Option<Vec<SeqOut>>; 2],
) -> Result<Vec<SeqOut>, CoreError> {
    let (a, b) = match halves {
        [Some(only), None] => return Ok(only),
        [Some(a), Some(b)] if a.len() == b.len() => (a, b),
        other => {
            return Err(CoreError::BadRequest {
                reason: format!(
                    "rank {src} returned mismatched Out halves to rank {rank}: {:?} sequences",
                    other.map(|h| h.map(|seqs| seqs.len()))
                ),
            })
        }
    };
    a.iter()
        .zip(&b)
        .map(|(ha, hb)| {
            Ok(SeqOut {
                out: Tensor::concat_dim0([&ha.out, &hb.out])?,
                lse: Tensor::concat_dim0([&ha.lse, &hb.lse])?,
            })
        })
        .collect()
}

/// Algorithm 3 — fused variable-length ring pass-Q partial prefill, as
/// executed by one rank on the schedule cell `spec`.
///
/// `queries[i]` circulates; `local_kv[i]` is the stationary KV shard of the
/// same fused-batch sequence — a [`RankKv::View`] attends the rank's paged
/// cache **in place**. Each visiting origin's partial outputs are isent
/// back the round they are computed (deferred to the final round when the
/// origin is a still-active hop channel) and every rank finally collects
/// its own partials with per-peer receives, folding sources in ascending
/// rank order.
///
/// Sources fold in the same order on every cell, so all pass-Q cells —
/// every direction, layout and depth — are bitwise identical.
///
/// Returns one [`AttentionOutput`] per sequence for **this rank's own**
/// queries, rows in `pos` order.
///
/// # Errors
///
/// As [`ring_pass_kv_prefill`].
pub fn ring_pass_q_prefill(
    comm: &Communicator<RingMsg>,
    params: &AttentionParams,
    spec: &RingSpec,
    queries: &[SeqQ],
    local_kv: &[RankKv<'_>],
) -> Result<Vec<AttentionOutput>, CoreError> {
    let plan = spec.lanes(RingAlgo::PassQ, comm.world_size())?;
    let mut visitor = PassQVisitor {
        params,
        local_kv,
        is_hop_dst: hop_channels(comm.rank(), plan.paths()),
        deferred: Vec::new(),
        ready: [None, None],
        own: [None, None],
    };
    circulate(comm, &plan, queries.to_vec(), &mut visitor)?;
    visitor.gather(comm, plan.paths(), queries.len())
}

/// Attends one batch of visiting decode slots (a full slot vector or a
/// half) against the rank's local per-sequence KV shards.
fn attend_decode_slots(
    comm: &Comm,
    params: &AttentionParams,
    batch_kv: &[RankKv<'_>],
    visiting: &[Option<DecodeSlot>],
    origin: usize,
) -> Result<Vec<Option<SeqOut>>, CoreError> {
    let pool = comm.pool();
    comm.time_compute("attend decode", || {
        map_seqs(pool, visiting, |_, slot| {
            slot.as_ref()
                .map(|s| {
                    let kv = batch_kv.get(s.bid).ok_or_else(|| CoreError::BadRequest {
                        reason: format!(
                            "decode slot from rank {origin} references unknown batch id {}",
                            s.bid
                        ),
                    })?;
                    attend_rank_kv(pool, &s.q, &[s.pos], kv, params).map(|o| SeqOut {
                        out: o.out,
                        lse: o.lse,
                    })
                })
                .transpose()
        })
    })
}

/// Decode: attend each visiting slot vector against the local shards and
/// stash the partials per lane and origin for the shared `All2All` tail.
struct DecodeVisitor<'a, 'kv> {
    params: &'a AttentionParams,
    batch_kv: &'a [RankKv<'kv>],
    computed: [Vec<Option<Vec<Option<SeqOut>>>>; 2],
}

impl Visitor<Vec<Option<DecodeSlot>>> for DecodeVisitor<'_, '_> {
    fn compute(
        &mut self,
        comm: &Comm,
        round: usize,
        lanes: &[Lane<Vec<Option<DecodeSlot>>>],
    ) -> Result<(), CoreError> {
        for (lane, table) in lanes.iter().zip(&mut self.computed) {
            let origin = lane.path.origin_at(comm.rank(), round);
            let outs =
                attend_decode_slots(comm, self.params, self.batch_kv, &lane.visiting, origin)?;
            *origin_slot(table, origin, "decode partials")? = Some(outs);
        }
        Ok(())
    }
}

/// Shared tail of every decode strategy that exchanges outputs: return
/// partial outputs to their owning rank via `All2All`, then fold each
/// source's partials into a running accumulator per real local slot, in
/// source-rank order. Live outputs per slot stay O(1) instead of O(world).
fn return_and_merge_decode(
    comm: &Comm,
    slots: &[Option<DecodeSlot>],
    computed: Vec<Option<Vec<Option<SeqOut>>>>,
) -> Result<Vec<AttentionOutput>, CoreError> {
    let n = comm.world_size();
    let payloads: Vec<RingMsg> = computed
        .into_iter()
        .enumerate()
        .map(|(s, outs)| {
            outs.map(|slots| RingMsg::DecodeOut { slots })
                .ok_or_else(|| CoreError::Internal {
                    detail: format!("origin {s} never visited in the decode loop"),
                })
        })
        .collect::<Result<_, _>>()?;
    let received = comm.all_to_all(payloads)?;
    let mut per_source: Vec<Vec<Option<SeqOut>>> = Vec::with_capacity(n);
    for (src_rank, msg) in received.into_iter().enumerate() {
        let RingMsg::DecodeOut { slots } = msg else {
            return Err(wrong_variant(src_rank, "DecodeOut", &msg));
        };
        per_source.push(slots);
    }

    comm.time_compute("merge decode", || {
        let mut acc: Vec<Option<AttentionOutput>> = (0..slots.len()).map(|_| None).collect();
        for (s, src) in per_source.iter().enumerate() {
            for (idx, (slot, a)) in slots.iter().zip(acc.iter_mut()).enumerate() {
                if slot.is_none() {
                    continue;
                }
                let entry = src.get(idx).ok_or_else(|| CoreError::BadRequest {
                    reason: format!(
                        "rank {s} returned {} decode partial slots, rank {} expected {}",
                        src.len(),
                        comm.rank(),
                        slots.len()
                    ),
                })?;
                if let Some(o) = entry {
                    // O(1) view clones of the received partial.
                    fold_partial(a, AttentionOutput::new(o.out.clone(), o.lse.clone())?)?;
                }
            }
        }
        slots
            .iter()
            .zip(acc)
            .filter(|(slot, _)| slot.is_some())
            .map(|(_, a)| {
                a.ok_or_else(|| CoreError::Internal {
                    detail: "decode slot received no partial output from any rank".to_string(),
                })
            })
            .collect()
    })
}

/// Algorithm 4 — batched ring pass-Q decode, as executed by one rank on
/// the schedule cell `spec` (flat layouts only).
///
/// `slots` are this rank's decode assignments for the step (padded with
/// `None` to the common `slots_per_rank`); `batch_kv[b]` is this rank's
/// local KV shard of batch sequence `b` — a [`RankKv::View`] attends the
/// paged cache **in place** instead of gathering every sequence's shard
/// per step per layer. Query slots circulate with their batch ids; each
/// rank attends visiting queries against its local shard of the matching
/// sequence; partial outputs return via `All2All` and are merged by the
/// slot's owner in source-rank order, so every decode cell is bitwise
/// identical.
///
/// Returns one merged [`AttentionOutput`] per real (non-padding) local
/// slot, in slot order.
///
/// # Errors
///
/// As [`ring_pass_kv_prefill`].
pub fn ring_pass_q_decode(
    comm: &Communicator<RingMsg>,
    params: &AttentionParams,
    spec: &RingSpec,
    slots: &[Option<DecodeSlot>],
    batch_kv: &[RankKv<'_>],
) -> Result<Vec<AttentionOutput>, CoreError> {
    let n = comm.world_size();
    let plan = spec.lanes(RingAlgo::Decode, n)?;
    let mut visitor = DecodeVisitor {
        params,
        batch_kv,
        computed: [vec![None; n], vec![None; n]],
    };
    circulate(comm, &plan, slots.to_vec(), &mut visitor)?;
    // Re-concatenate each origin's lane halves into original slot order
    // (a second lane carried the back half of every slot vector).
    let [first, second] = visitor.computed;
    let computed = first
        .into_iter()
        .zip(second)
        .map(|(a, b)| {
            a.map(|mut outs| {
                outs.extend(b.unwrap_or_default());
                outs
            })
        })
        .collect();
    return_and_merge_decode(comm, slots, computed)
}

/// Helix-style batched decode: one `AllGather` replicates every rank's
/// query slots, each rank attends the **whole batch** against its local
/// KV shards in a single sweep, and partials return through the same
/// `All2All` + ascending-source merge as [`ring_pass_q_decode`].
///
/// Every rank computes exactly the partial it would have computed under
/// the ring rotation (same queries, same local shard, same kernel block),
/// and the shared tail folds sources in the same ascending order — so
/// Helix decode is **bit-identical** to batched pass-Q decode while
/// replacing the `W - 1` serialized `SendRecv` launches with one
/// collective.
///
/// # Errors
///
/// Same failure modes as [`ring_pass_q_decode`].
pub fn helix_decode(
    comm: &Communicator<RingMsg>,
    params: &AttentionParams,
    slots: &[Option<DecodeSlot>],
    batch_kv: &[RankKv<'_>],
) -> Result<Vec<AttentionOutput>, CoreError> {
    let n = comm.world_size();
    let k = comm.rank();
    let gathered = comm.all_gather(RingMsg::DecodeQ {
        origin: k,
        slots: slots.to_vec(),
    })?;
    let mut computed: Vec<Option<Vec<Option<SeqOut>>>> = vec![None; n];
    for (src, msg) in gathered.into_iter().enumerate() {
        let (visiting, tag) = <Vec<Option<DecodeSlot>>>::decode(msg, src)?;
        if tag != Some(src) {
            return Err(CoreError::BadRequest {
                reason: format!("helix decode AllGather slot {src} carries origin tag {tag:?}"),
            });
        }
        let outs = attend_decode_slots(comm, params, batch_kv, &visiting, src)?;
        *origin_slot(&mut computed, src, "helix decode partials")? = Some(outs);
    }
    return_and_merge_decode(comm, slots, computed)
}

/// TP-only batched decode: every rank `AllGather`s the batch's per-rank
/// KV shards, then each slot's **owner** attends the full context locally
/// — one partial per source shard, folded in ascending rank order, which
/// is the exact per-shard computation and merge order of
/// [`ring_pass_q_decode`], so outputs stay bit-identical to pass-Q.
///
/// `wire_kv[b]` is this rank's owned shard of batch sequence `b` (the
/// gathered copy of the rows `batch_kv[b]` attends), and `attn_block` the
/// kernel block the paged path would use ([`attn_block_for`] of the
/// cache's page size) so owned re-attention of a peer's shard matches that
/// peer's view path bit-for-bit. At `world == 1` no collective is issued
/// at all — decode degenerates to pure local attention over `batch_kv`,
/// which is why the strategy wins single-rank regimes where pass-Q and
/// Helix still launch their merge collectives.
///
/// The `O(T)` KV movement per step is the strategy's cost; the cp-perf
/// `DecodeStrategy` model prices it against pass-Q/Helix.
///
/// # Errors
///
/// Same failure modes as [`ring_pass_q_decode`], plus
/// [`CoreError::BadRequest`] if a peer's gathered shard set is missing a
/// batch sequence.
pub fn tp_only_decode(
    comm: &Communicator<RingMsg>,
    params: &AttentionParams,
    slots: &[Option<DecodeSlot>],
    batch_kv: &[RankKv<'_>],
    wire_kv: &[SeqKv],
    attn_block: usize,
) -> Result<Vec<AttentionOutput>, CoreError> {
    let n = comm.world_size();
    let k = comm.rank();
    let pool = comm.pool();
    let attend_own = |s: &DecodeSlot| -> Result<AttentionOutput, CoreError> {
        let kv = batch_kv.get(s.bid).ok_or_else(|| CoreError::BadRequest {
            reason: format!("decode slot references unknown batch id {}", s.bid),
        })?;
        attend_rank_kv(pool, &s.q, &[s.pos], kv, params)
    };
    if n == 1 {
        return comm.time_compute("attend decode", || {
            map_seqs(pool, slots, |_, slot| {
                slot.as_ref().map(attend_own).transpose()
            })
            .map(|outs| outs.into_iter().flatten().collect())
        });
    }
    let gathered = comm.all_gather(RingMsg::Kv {
        seqs: wire_kv.to_vec(),
    })?;
    let mut per_rank: Vec<Vec<SeqKv>> = Vec::with_capacity(n);
    for (src, msg) in gathered.into_iter().enumerate() {
        per_rank.push(<Vec<SeqKv>>::decode(msg, src)?.0);
    }
    comm.time_compute("attend decode", || {
        let outs = map_seqs(pool, slots, |_, slot| {
            slot.as_ref()
                .map(|s| {
                    // Fold one partial per source shard, ascending rank
                    // order — the pass-Q merge order. The own-rank shard
                    // attends zero-copy via the paged view.
                    let mut acc: Option<AttentionOutput> = None;
                    for (r, shards) in per_rank.iter().enumerate() {
                        let part = if r == k {
                            attend_own(s)?
                        } else {
                            let kv = shards.get(s.bid).ok_or_else(|| CoreError::BadRequest {
                                reason: format!(
                                    "rank {r}'s gathered KV is missing batch id {}",
                                    s.bid
                                ),
                            })?;
                            let owned = RankKv::Owned {
                                kv: kv.clone(),
                                block: attn_block,
                            };
                            attend_rank_kv(pool, &s.q, &[s.pos], &owned, params)?
                        };
                        fold_partial(&mut acc, part)?;
                    }
                    acc.ok_or_else(|| CoreError::Internal {
                        detail: "tp-only decode slot accumulated no partial".to_string(),
                    })
                })
                .transpose()
        })?;
        Ok(outs.into_iter().flatten().collect())
    })
}

/// Adapter: runs a per-rank ring body inside [`cp_comm::run_ranks`],
/// mapping `CoreError` in and out of the fabric's `CommError`.
///
/// # Errors
///
/// The body's root-cause error (see [`cp_comm::Fabric::run`]).
pub fn run_ring<T, F>(
    n_ranks: usize,
    body: F,
) -> Result<(Vec<T>, cp_comm::TrafficReport), CoreError>
where
    T: Send,
    F: Fn(&Communicator<RingMsg>) -> Result<T, CoreError> + Sync,
{
    run_ring_on(n_ranks, 0, None, body)
}

/// Groups one batched decode tick's slots by owner rank. `owners[b]` is
/// the rank whose cache receives batch element `b`'s new KV this step
/// (each sequence rotates independently under §3.6). Returns the per-rank
/// batch-index lists, in slot order, plus the common padded slot count:
/// the slot lists circulate on the ring, so every rank's `slots` argument
/// to [`ring_pass_q_decode`] must be resized (with `None`) to the same
/// length.
///
/// # Errors
///
/// [`CoreError::BadRequest`] if an owner is outside `0..n_ranks` or
/// `n_ranks == 0`.
pub fn decode_slot_layout(
    owners: &[usize],
    n_ranks: usize,
) -> Result<(Vec<Vec<usize>>, usize), CoreError> {
    if n_ranks == 0 {
        return Err(CoreError::BadRequest {
            reason: "decode needs at least one rank".to_string(),
        });
    }
    let mut per_rank: Vec<Vec<usize>> = vec![Vec::new(); n_ranks];
    for (b, &owner) in owners.iter().enumerate() {
        per_rank
            .get_mut(owner)
            .ok_or_else(|| CoreError::BadRequest {
                reason: format!(
                    "batch element {b} is owned by rank {owner}, world has {n_ranks} ranks"
                ),
            })?
            .push(b);
    }
    let slots_per_rank = per_rank.iter().map(Vec::len).max().unwrap_or(0);
    Ok((per_rank, slots_per_rank))
}

/// The fully-general ring runner: `pool_threads` sets each rank's
/// persistent [`cp_pool::ComputePool`] width (`0` = the fabric default),
/// and a `Some(plan)` runs under a [`cp_comm::CheckedFabric`], where every
/// collective the body issues is validated live against `plan` (peer,
/// variant, byte count, op order), turning schedule drift into a hard
/// error instead of silent mismeasurement. [`run_ring`] is the unchecked
/// default-pool shorthand.
///
/// # Errors
///
/// As [`run_ring`], plus [`CoreError::Comm`] wrapping
/// [`cp_comm::CommError::PlanViolation`] when checked traffic diverges
/// from the declared schedule.
pub fn run_ring_on<T, F>(
    n_ranks: usize,
    pool_threads: usize,
    plan: Option<&cp_comm::CommPlan>,
    body: F,
) -> Result<(Vec<T>, cp_comm::TrafficReport), CoreError>
where
    T: Send,
    F: Fn(&Communicator<RingMsg>) -> Result<T, CoreError> + Sync,
{
    let wrapped = |comm: &Comm| body(comm).map_err(|e| to_comm_error(comm.rank(), e));
    let result = match plan {
        Some(plan) => cp_comm::CheckedFabric::new(plan.clone())
            .compute_pool(pool_threads)
            .run::<RingMsg, T, _>(wrapped),
        None => cp_comm::Fabric::new(n_ranks)
            .compute_pool(pool_threads)
            .run::<RingMsg, T, _>(wrapped),
    };
    result.map_err(CoreError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::RingLayout;
    use cp_attention::{naive_gqa_attention, GqaShape, PAD};
    use cp_comm::Topology;
    use cp_perf::RingDirection;
    use cp_sharding::ShardPlan;
    use cp_tensor::DetRng;

    /// The default cell, one bidirectional cell and one hierarchical cell
    /// (1 node × 2 ranks): the peer-fault tests take the spec as an input.
    fn fault_cells() -> [RingSpec; 3] {
        [
            RingSpec::default(),
            RingSpec {
                direction: RingDirection::Bidi,
                ..RingSpec::default()
            },
            RingSpec {
                layout: RingLayout::Hier(Topology::new(1, 2)),
                ..RingSpec::default()
            },
        ]
    }

    /// Pass-Q over a rank's `LocalSeq` shards (owned KV tensors).
    fn pass_q(
        comm: &Comm,
        p: &AttentionParams,
        spec: &RingSpec,
        locals: &[LocalSeq],
    ) -> Result<Vec<AttentionOutput>, CoreError> {
        let queries: Vec<SeqQ> = locals.iter().map(LocalSeq::queries).collect();
        let kv: Vec<RankKv<'_>> = locals.iter().map(|l| l.kv().into()).collect();
        ring_pass_q_prefill(comm, p, spec, &queries, &kv)
    }

    /// Pass-Q decode over owned per-sequence shards.
    fn decode(
        comm: &Comm,
        p: &AttentionParams,
        spec: &RingSpec,
        slots: &[Option<DecodeSlot>],
        batch_kv: &[SeqKv],
    ) -> Result<Vec<AttentionOutput>, CoreError> {
        let kv: Vec<RankKv<'_>> = batch_kv.iter().cloned().map(RankKv::from).collect();
        ring_pass_q_decode(comm, p, spec, slots, &kv)
    }

    fn params(nh: usize, nkv: usize, dh: usize) -> AttentionParams {
        AttentionParams::for_shape(GqaShape::new(nh, nkv, dh).unwrap())
    }

    /// Builds per-rank LocalSeq inputs for a single full-prefill sequence
    /// under load-balanced sharding, plus the single-device reference.
    fn build_full_prefill(
        n: usize,
        t: usize,
        p: &AttentionParams,
        seed: u64,
    ) -> (Vec<Vec<LocalSeq>>, AttentionOutput, Vec<Vec<usize>>) {
        let shape = p.shape;
        let mut rng = DetRng::new(seed);
        let q = rng.tensor(&[t, shape.n_heads(), shape.head_dim()]);
        let k = rng.tensor(&[t, shape.n_kv_heads(), shape.head_dim()]);
        let v = rng.tensor(&[t, shape.n_kv_heads(), shape.head_dim()]);
        let pos: Vec<usize> = (0..t).collect();
        let reference = naive_gqa_attention(&q, &k, &v, p, &pos, &pos).unwrap();

        let plan = ShardPlan::new(t, n).unwrap();
        let max_len = (0..n).map(|r| plan.tokens_for(r)).max().unwrap();
        let mut locals = Vec::with_capacity(n);
        let mut rank_positions = Vec::with_capacity(n);
        for r in 0..n {
            let positions = plan.positions_for(r);
            let qs = q.gather_dim0(&positions).unwrap();
            let ks = k
                .gather_dim0(&positions)
                .unwrap()
                .pad_dim0(max_len, 0.0)
                .unwrap();
            let vs = v
                .gather_dim0(&positions)
                .unwrap()
                .pad_dim0(max_len, 0.0)
                .unwrap();
            let mut kv_pos = positions.clone();
            kv_pos.resize(max_len, PAD);
            locals.push(vec![LocalSeq {
                q: qs,
                q_pos: positions.clone(),
                k: ks,
                v: vs,
                kv_pos,
            }]);
            rank_positions.push(positions);
        }
        (locals, reference, rank_positions)
    }

    fn check_against_reference(
        outputs: &[Vec<AttentionOutput>],
        reference: &AttentionOutput,
        rank_positions: &[Vec<usize>],
    ) {
        for (r, outs) in outputs.iter().enumerate() {
            let out = &outs[0];
            for (row, &pos) in rank_positions[r].iter().enumerate() {
                let got = out.slice_tokens(row, row + 1).unwrap();
                let want = reference.slice_tokens(pos, pos + 1).unwrap();
                assert!(
                    got.out.approx_eq(&want.out, 2e-3).unwrap(),
                    "rank {r} row {row} pos {pos}: {}",
                    got.out.max_abs_diff(&want.out).unwrap()
                );
                assert!(got.lse.approx_eq(&want.lse, 2e-3).unwrap());
            }
        }
    }

    #[test]
    fn pass_kv_full_prefill_exact_cp2() {
        let p = params(4, 2, 8);
        let (locals, reference, rank_pos) = build_full_prefill(2, 32, &p, 11);
        let (outputs, report) = run_ring(2, |comm| {
            ring_pass_kv_prefill(comm, &p, &RingSpec::default(), &locals[comm.rank()])
        })
        .unwrap();
        check_against_reference(&outputs, &reference, &rank_pos);
        // N-1 = 1 hop per rank: each rank forwards its KV block once, so the
        // expected traffic is the sum of each rank's wire size as reported by
        // the payload type itself, not a hand-computed constant.
        let expected: usize = (0..2)
            .map(|r| {
                use cp_comm::Wire;
                RingMsg::Kv {
                    seqs: locals[r].iter().map(LocalSeq::kv).collect(),
                }
                .wire_bytes()
            })
            .sum();
        assert_eq!(report.send_recv_bytes, expected);
        assert_eq!(report.send_recv.bytes, expected);
        assert_eq!(report.send_recv.calls, 2);
    }

    #[test]
    fn pass_kv_full_prefill_exact_various_ranks() {
        let p = params(2, 1, 4);
        for n in [1, 3, 4, 5] {
            let (locals, reference, rank_pos) = build_full_prefill(n, 41, &p, n as u64);
            let (outputs, _) = run_ring(n, |comm| {
                ring_pass_kv_prefill(comm, &p, &RingSpec::default(), &locals[comm.rank()])
            })
            .unwrap();
            check_against_reference(&outputs, &reference, &rank_pos);
        }
    }

    #[test]
    fn pass_q_full_prefill_exact_various_ranks() {
        let p = params(4, 2, 8);
        for n in [1, 2, 3, 4] {
            let (locals, reference, rank_pos) = build_full_prefill(n, 37, &p, 100 + n as u64);
            let (outputs, _) = run_ring(n, |comm| {
                pass_q(comm, &p, &RingSpec::default(), &locals[comm.rank()])
            })
            .unwrap();
            check_against_reference(&outputs, &reference, &rank_pos);
        }
    }

    #[test]
    fn pass_q_and_pass_kv_agree() {
        let p = params(4, 4, 4);
        let (locals, _, _) = build_full_prefill(3, 26, &p, 9);
        let (kv_out, _) = run_ring(3, |comm| {
            ring_pass_kv_prefill(comm, &p, &RingSpec::default(), &locals[comm.rank()])
        })
        .unwrap();
        let (q_out, _) = run_ring(3, |comm| {
            pass_q(comm, &p, &RingSpec::default(), &locals[comm.rank()])
        })
        .unwrap();
        for r in 0..3 {
            assert!(kv_out[r][0].out.approx_eq(&q_out[r][0].out, 1e-4).unwrap());
            assert!(kv_out[r][0].lse.approx_eq(&q_out[r][0].lse, 1e-4).unwrap());
        }
    }

    #[test]
    fn pass_kv_messages_have_equal_sizes_across_ranks() {
        // The §3.5.2 invariant: padding makes every rank's circulating KV
        // block the same size even when token counts differ.
        let p = params(2, 1, 4);
        let t = 13; // not divisible by 2N: ranks own unequal token counts
        let n = 3;
        let (locals, ..) = build_full_prefill(n, t, &p, 5);
        let sizes: Vec<usize> = (0..n)
            .map(|r| {
                use cp_comm::Wire;
                RingMsg::Kv {
                    seqs: locals[r].iter().map(LocalSeq::kv).collect(),
                }
                .wire_bytes()
            })
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] == w[1]), "{sizes:?}");
    }

    #[test]
    fn decode_single_step_exact() {
        // One sequence with cached history distributed over ranks; one
        // decode token on rank 0.
        let p = params(2, 1, 4);
        let n = 3;
        let hist = 20;
        let mut rng = DetRng::new(3);
        let k = rng.tensor(&[hist, 1, 4]);
        let v = rng.tensor(&[hist, 1, 4]);
        let q = rng.tensor(&[1, 2, 4]);
        let all_pos: Vec<usize> = (0..hist).collect();
        let reference = naive_gqa_attention(&q, &k, &v, &p, &[hist], &all_pos).unwrap();

        // Distribute history round-robin over ranks.
        let plan: Vec<Vec<usize>> = (0..n)
            .map(|r| (0..hist).filter(|i| i % n == r).collect())
            .collect();
        let batch_kv: Vec<Vec<SeqKv>> = (0..n)
            .map(|r| {
                vec![SeqKv {
                    k: k.gather_dim0(&plan[r]).unwrap(),
                    v: v.gather_dim0(&plan[r]).unwrap(),
                    pos: plan[r].clone(),
                }]
            })
            .collect();
        let slots: Vec<Vec<Option<DecodeSlot>>> = (0..n)
            .map(|r| {
                if r == 0 {
                    vec![Some(DecodeSlot {
                        bid: 0,
                        q: q.clone(),
                        pos: hist,
                    })]
                } else {
                    vec![None]
                }
            })
            .collect();

        let (outputs, _) = run_ring(n, |comm| {
            decode(
                comm,
                &p,
                &RingSpec::default(),
                &slots[comm.rank()],
                &batch_kv[comm.rank()],
            )
        })
        .unwrap();
        assert_eq!(outputs[0].len(), 1);
        assert!(outputs[1].is_empty() && outputs[2].is_empty());
        assert!(outputs[0][0].out.approx_eq(&reference.out, 1e-3).unwrap());
    }

    #[test]
    fn decode_with_empty_history_is_masked_safe() {
        // Decode a token whose sequence has no visible KV on some ranks.
        let p = params(1, 1, 2);
        let n = 2;
        let mut rng = DetRng::new(4);
        let k = rng.tensor(&[1, 1, 2]);
        let v = rng.tensor(&[1, 1, 2]);
        let q = rng.tensor(&[1, 1, 2]);
        let reference = naive_gqa_attention(&q, &k, &v, &p, &[1], &[0]).unwrap();
        // Rank 0 has the single history token; rank 1 has nothing.
        let batch_kv = [
            vec![SeqKv {
                k: k.clone(),
                v: v.clone(),
                pos: vec![0],
            }],
            vec![SeqKv {
                k: Tensor::zeros(&[0, 1, 2]),
                v: Tensor::zeros(&[0, 1, 2]),
                pos: vec![],
            }],
        ];
        let slots = [
            vec![Some(DecodeSlot {
                bid: 0,
                q: q.clone(),
                pos: 1,
            })],
            vec![None],
        ];
        let (outputs, _) = run_ring(n, |comm| {
            decode(
                comm,
                &p,
                &RingSpec::default(),
                &slots[comm.rank()],
                &batch_kv[comm.rank()],
            )
        })
        .unwrap();
        assert!(outputs[0][0].out.approx_eq(&reference.out, 1e-4).unwrap());
    }

    #[test]
    fn decode_unknown_bid_errors() {
        let p = params(1, 1, 2);
        let slots = vec![Some(DecodeSlot {
            bid: 5,
            q: Tensor::zeros(&[1, 1, 2]),
            pos: 0,
        })];
        let err = run_ring(1, |comm| {
            decode(comm, &p, &RingSpec::default(), &slots, &[])
        })
        .unwrap_err();
        // Surfaced through the fabric as a failed rank, preserving the
        // failing rank and the original error's kind and message.
        match err {
            CoreError::Comm(cp_comm::CommError::RankFailed { rank, kind, detail }) => {
                assert_eq!(rank, 0);
                assert_eq!(kind, "bad-request");
                assert!(detail.contains("batch id 5"), "{detail}");
            }
            other => panic!("expected RankFailed, got {other:?}"),
        }
    }

    #[test]
    fn pass_q_mismatched_sequence_count_errors_cleanly() {
        // Rank 1 legitimately sends two query sequences but rank 0 only
        // holds one local KV sequence — a malformed fused batch. The ring
        // must surface a typed error naming the offending origin rank, not
        // panic on an out-of-bounds index.
        let p = params(2, 1, 4);
        let mut rng = DetRng::new(21);
        let mk_seq = |rng: &mut DetRng, t: usize, base: usize| LocalSeq {
            q: rng.tensor(&[t, 2, 4]),
            q_pos: (base..base + t).collect(),
            k: rng.tensor(&[t, 1, 4]),
            v: rng.tensor(&[t, 1, 4]),
            kv_pos: (base..base + t).collect(),
        };
        let locals: Vec<Vec<LocalSeq>> = vec![
            vec![mk_seq(&mut rng, 4, 0)],
            vec![mk_seq(&mut rng, 4, 4), mk_seq(&mut rng, 4, 8)],
        ];
        let err = run_ring(2, |comm| {
            pass_q(comm, &p, &RingSpec::default(), &locals[comm.rank()])
        })
        .unwrap_err();
        match err {
            CoreError::Comm(cp_comm::CommError::RankFailed { kind, detail, .. }) => {
                assert_eq!(kind, "bad-request");
                assert!(detail.contains("rank 1 sent 2 query sequences"), "{detail}");
            }
            other => panic!("expected RankFailed, got {other:?}"),
        }
    }

    /// A misbehaving rank 1 that follows the cell's hop schedule — one
    /// `bad` message per lane — and nothing else.
    fn misbehave(comm: &Comm, spec: &RingSpec, bad: &RingMsg) -> Result<(), CoreError> {
        let plan = spec.lanes(RingAlgo::PassQ, 2)?;
        for _ in plan.paths() {
            comm.send_recv(comm.ring_next(), bad.clone(), comm.ring_prev())?;
        }
        Ok(())
    }

    fn two_token_local(seed: u64) -> LocalSeq {
        let mut rng = DetRng::new(seed);
        LocalSeq {
            q: rng.tensor(&[2, 1, 2]),
            q_pos: vec![0, 1],
            k: rng.tensor(&[2, 1, 2]),
            v: rng.tensor(&[2, 1, 2]),
            kv_pos: vec![0, 1],
        }
    }

    fn expect_rank_failed(err: CoreError) -> (usize, &'static str, String) {
        match err {
            CoreError::Comm(cp_comm::CommError::RankFailed { rank, kind, detail }) => {
                (rank, kind, detail)
            }
            other => panic!("expected RankFailed, got {other:?}"),
        }
    }

    #[test]
    fn wrong_variant_from_peer_is_protocol_violation_naming_rank() {
        // Rank 1 violates the pass-KV protocol by forwarding a Q payload.
        // Rank 0 must reject it with a typed error naming rank 1.
        let p = params(1, 1, 2);
        let local = two_token_local(22);
        let bad = RingMsg::Q {
            origin: 1,
            seqs: vec![local.queries()],
        };
        for spec in fault_cells() {
            let err = run_ring(2, |comm| {
                if comm.rank() == 0 {
                    ring_pass_kv_prefill(comm, &p, &spec, std::slice::from_ref(&local)).map(|_| ())
                } else {
                    misbehave(comm, &spec, &bad)
                }
            })
            .unwrap_err();
            let (rank, kind, detail) = expect_rank_failed(err);
            assert_eq!(rank, 0, "{spec:?}");
            assert_eq!(kind, "protocol-violation", "{spec:?}");
            assert!(detail.contains("rank 1 sent Q, expected Kv"), "{detail}");
        }
    }

    #[test]
    fn misordered_origin_from_peer_is_ring_order_violation() {
        // Rank 1 follows the pass-Q message grammar but lies about the
        // origin of the block it forwards (claims its own block is rank 0's
        // — a dropped or duplicated ring step). Rank 0 must reject it via
        // the rotation invariant, naming the forwarding peer.
        let p = params(1, 1, 2);
        let local = two_token_local(31);
        let bad = RingMsg::Q {
            origin: 0, // should be 1: rank 1 holds its own block at step 0
            seqs: vec![local.queries()],
        };
        for spec in fault_cells() {
            let err = run_ring(2, |comm| {
                if comm.rank() == 0 {
                    pass_q(comm, &p, &spec, std::slice::from_ref(&local)).map(|_| ())
                } else {
                    misbehave(comm, &spec, &bad)
                }
            })
            .unwrap_err();
            let (rank, kind, detail) = expect_rank_failed(err);
            assert_eq!(rank, 0, "{spec:?}");
            assert_eq!(kind, "ring-order-violation", "{spec:?}");
            assert!(detail.contains("rank 1"), "{detail}");
            assert!(detail.contains("origin 0"), "{detail}");
        }
    }

    #[test]
    fn short_decode_out_from_peer_errors_instead_of_panicking() {
        // Rank 1 returns fewer decode partial slots than rank 0's slot
        // count; the merge must fail with a typed error naming rank 1
        // instead of indexing out of bounds. Decode rings are flat, so the
        // hierarchical cell does not apply.
        let p = params(1, 1, 2);
        let mut rng = DetRng::new(23);
        let batch_kv = vec![SeqKv {
            k: rng.tensor(&[2, 1, 2]),
            v: rng.tensor(&[2, 1, 2]),
            pos: vec![0, 1],
        }];
        let slots = vec![
            None,
            Some(DecodeSlot {
                bid: 0,
                q: rng.tensor(&[1, 1, 2]),
                pos: 2,
            }),
        ];
        for spec in fault_cells()
            .into_iter()
            .filter(|s| s.layout == RingLayout::Flat)
        {
            let err = run_ring(2, |comm| {
                if comm.rank() == 0 {
                    decode(comm, &p, &spec, &slots, &batch_kv).map(|_| ())
                } else {
                    // Misbehaving peer: follows the ring schedule (each lane
                    // carries its half of the two padding slots) but returns
                    // a truncated All2All payload to rank 0.
                    let lanes = spec.lanes(RingAlgo::Decode, 2)?.paths().len();
                    let hop = RingMsg::DecodeQ {
                        origin: 1,
                        slots: vec![None; 2 / lanes],
                    };
                    misbehave(comm, &spec, &hop)?;
                    comm.all_to_all(vec![
                        RingMsg::DecodeOut { slots: vec![None] },
                        RingMsg::DecodeOut {
                            slots: vec![None, None],
                        },
                    ])?;
                    Ok(())
                }
            })
            .unwrap_err();
            let (rank, kind, detail) = expect_rank_failed(err);
            assert_eq!(rank, 0, "{spec:?}");
            assert_eq!(kind, "bad-request", "{spec:?}");
            assert!(
                detail.contains("rank 1 returned 1 decode partial slots"),
                "{detail}"
            );
        }
    }

    #[test]
    fn unsupported_cells_are_rejected_before_any_message() {
        // A lone rank 0 would hang on its first hop if the loop posted
        // anything; a typed error proves the cell was refused up front.
        let p = params(1, 1, 2);
        let local = two_token_local(41);
        let bidi_chunked = RingSpec {
            direction: RingDirection::Bidi,
            depth: 2,
            ..RingSpec::default()
        };
        let int8_chunked = RingSpec {
            wire: RingWire::Int8,
            depth: 2,
            ..RingSpec::default()
        };
        let too_deep = RingSpec {
            depth: 3,
            ..RingSpec::default()
        };
        for spec in [bidi_chunked, int8_chunked, too_deep] {
            let err = run_ring(2, |comm| {
                ring_pass_kv_prefill(comm, &p, &spec, std::slice::from_ref(&local))
            })
            .unwrap_err();
            let (_, kind, detail) = expect_rank_failed(err);
            assert_eq!(kind, "bad-request", "{spec:?}");
            assert!(detail.contains("unsupported ring cell"), "{detail}");
        }
        let int8_q = RingSpec {
            wire: RingWire::Int8,
            ..RingSpec::default()
        };
        let err = run_ring(2, |comm| {
            pass_q(comm, &p, &int8_q, std::slice::from_ref(&local))
        })
        .unwrap_err();
        assert_eq!(expect_rank_failed(err).1, "bad-request");
        let hier_decode = RingSpec {
            layout: RingLayout::Hier(Topology::new(1, 2)),
            ..RingSpec::default()
        };
        let err = run_ring(2, |comm| decode(comm, &p, &hier_decode, &[], &[])).unwrap_err();
        assert_eq!(expect_rank_failed(err).1, "bad-request");
    }

    #[test]
    fn decode_slot_layout_groups_by_owner_and_pads() {
        let (per_rank, width) = decode_slot_layout(&[1, 0, 1, 2], 3).unwrap();
        assert_eq!(per_rank, vec![vec![1], vec![0, 2], vec![3]]);
        assert_eq!(width, 2);

        // A rank with no owned slots still appears (it pads with None).
        let (per_rank, width) = decode_slot_layout(&[0, 0], 2).unwrap();
        assert_eq!(per_rank, vec![vec![0, 1], Vec::new()]);
        assert_eq!(width, 2);

        let (per_rank, width) = decode_slot_layout(&[], 2).unwrap();
        assert_eq!(per_rank, vec![Vec::new(), Vec::new()]);
        assert_eq!(width, 0);

        assert!(decode_slot_layout(&[2], 2).is_err());
        assert!(decode_slot_layout(&[], 0).is_err());
    }
}
