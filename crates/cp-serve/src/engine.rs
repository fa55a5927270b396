//! The distributed full-model serving engine.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use cp_attention::PAD;
use cp_comm::TrafficReport;
use cp_comm::Wire;
use cp_core::heuristics::{choose_variant, HeuristicKind, SystemContext};
use cp_core::ring::{decode_slot_layout, run_ring_on};
use cp_core::schedule::{
    helix_layer_plan, ring_schedule, tp_only_decode_plan, RingInput, RingLayout,
};
use cp_core::{
    attend_decode, attend_prefill, CoreError, DecodeSlot, KvPrecision, LocalSeq, RingMsg,
    SchedulePolicy, SeqKv, SeqQ,
};
use cp_kvcache::{CacheStats, KvCacheConfig, PagedKvCache, SeqId};
use cp_model::rope::apply_rope;
use cp_model::{rms_norm_on, silu, Block, Linear, Transformer, TransformerConfig};
use cp_perf::{DecodeStrategy, RingDirection, RingVariant, TopologySpec};
use cp_pool::ComputePool;
use cp_sharding::shard_new_tokens;
use cp_tensor::Tensor;

use crate::ServeError;

/// The session the single-conversation convenience API
/// ([`TransformerEngine::prefill`] / [`TransformerEngine::decode`]) serves.
const DEFAULT_SEQ: SeqId = SeqId(0);

/// Result of one serving operation (prefill turn or decode step).
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Final activations of the new tokens, `[t, D]`, original order.
    pub activations: Tensor,
    /// Ring variant used for prefill (`None` for decode, which is always
    /// pass-Q per §3.6).
    pub variant: Option<RingVariant>,
    /// Fabric traffic of the operation (all layers).
    pub traffic: TrafficReport,
}

/// Result of one fused batched decode tick over multiple sessions.
#[derive(Debug, Clone)]
pub struct DecodeBatchOutcome {
    /// Final activations per batch element, `[1, D]`, in batch order.
    pub activations: Vec<Tensor>,
    /// Fabric traffic of the whole tick (shared by the batch).
    pub traffic: TrafficReport,
}

/// Per-session serving state. The engine's session table tracks every
/// live conversation; the per-session decode counter keeps each
/// sequence's round-robin KV rotation (§3.6) independent of what other
/// sessions in the batch are doing — which is what makes batched decode
/// bit-identical to serving each session alone.
#[derive(Debug, Clone, Copy, Default)]
struct SessionState {
    len: usize,
    decode_step: usize,
}

/// One logical prefill turn of one session, executable in fixed-token
/// chunks interleaved with decode ticks.
///
/// The 2N-chunk sharding and the Algorithm 1 variant choice are fixed
/// **once per turn** from the whole turn's `(T, P)`; a chunk merely
/// executes the next slice of that plan. Because per-rank positions
/// ascend and the position-masked kernels ignore not-yet-appended future
/// tokens exactly (masked rows contribute zero bit-for-bit), running a
/// turn in chunks of any size produces activations bit-identical to the
/// one-shot prefill.
#[derive(Debug, Clone)]
pub struct PrefillTurn {
    seq: SeqId,
    tokens: Vec<u32>,
    base: usize,
    shards: Vec<Vec<usize>>,
    variant: RingVariant,
    next: usize,
}

impl PrefillTurn {
    /// The session this turn extends.
    pub fn seq(&self) -> SeqId {
        self.seq
    }

    /// The ring variant the whole turn runs under.
    pub fn variant(&self) -> RingVariant {
        self.variant
    }

    /// New tokens in the whole turn (`T`).
    pub fn total_tokens(&self) -> usize {
        self.tokens.len()
    }

    /// Tokens not yet executed.
    pub fn remaining(&self) -> usize {
        self.tokens.len() - self.next
    }

    /// Whether every token of the turn has been prefilled.
    pub fn is_done(&self) -> bool {
        self.next == self.tokens.len()
    }
}

/// One layer's tensor-parallel weight shards for the Helix decode
/// reshard: the output projection split by rows (input features), the
/// FFN gate/up split by columns and the FFN down split by rows — the
/// Megatron column→row pairing, pre-split and pre-packed once so the
/// decode hot loop never re-tiles weights.
#[derive(Debug)]
struct LayerTpShards {
    wo_rows: Vec<Linear>,
    gate_cols: Vec<Linear>,
    up_cols: Vec<Linear>,
    down_rows: Vec<Linear>,
}

/// Splits every layer's post-attention weights into `n` TP shards (fails
/// if the model or FFN dimension is not divisible by `n` — the standard
/// tensor-parallel divisibility requirement).
fn split_tp_shards(model: &Transformer, n: usize) -> Result<Vec<LayerTpShards>, CoreError> {
    model
        .blocks()
        .iter()
        .map(|block| {
            Ok(LayerTpShards {
                wo_rows: block.wo.split_rows(n)?,
                gate_cols: block.ffn.gate.split_columns(n)?,
                up_cols: block.ffn.up.split_columns(n)?,
                down_rows: block.ffn.down.split_rows(n)?,
            })
        })
        .collect()
}

/// A full-model context-parallel serving engine: every rank owns one
/// [`PagedKvCache`] **per transformer layer**; prefill and decode run the
/// whole layer stack distributed, with ring attention per layer.
///
/// The engine serves **multiple sessions** out of the same per-rank
/// caches: [`TransformerEngine::create_session`] registers a sequence on
/// every (rank, layer) cache, [`TransformerEngine::begin_prefill`] /
/// [`TransformerEngine::prefill_chunk`] run a turn in scheduler-sized
/// chunks, and [`TransformerEngine::decode_batch`] runs one fused batched
/// pass-Q decode tick over any subset of live sessions. The single-session
/// [`TransformerEngine::prefill`] / [`TransformerEngine::decode`] API is a
/// thin wrapper over session `SeqId(0)`.
///
/// See the crate docs for the exactness contract.
#[derive(Debug)]
pub struct TransformerEngine {
    model: Transformer,
    n_ranks: usize,
    /// `ranks[r]` holds rank `r`'s per-layer caches; each rank thread
    /// locks only its own entry during a fabric session.
    ranks: Vec<Mutex<Vec<PagedKvCache>>>,
    heuristic_ctx: SystemContext,
    sessions: BTreeMap<u64, SessionState>,
    /// When set, every turn runs under a `CheckedFabric` that validates
    /// live traffic against the declared per-layer ring schedule.
    check_schedules: bool,
    /// Per-rank compute-pool width (`0` = fabric default).
    pool_threads: usize,
    /// When set, every projection runs the naive audit GEMM instead of
    /// the packed tiled kernel (bit-identical, slower).
    reference_gemm: bool,
    /// Ring schedule family (direction × layout) for every turn's rings.
    schedule: SchedulePolicy,
    /// KV storage / wire precision (see [`KvPrecision`]).
    kv_precision: KvPrecision,
    /// Pinned decode strategy; `None` defaults to batched pass-Q under a
    /// fixed schedule and to the Appendix-D priced pick under `Auto`.
    decode_strategy: Option<DecodeStrategy>,
    /// Lazily built per-layer TP weight shards for the Helix reshard.
    tp_shards: Option<Vec<LayerTpShards>>,
}

/// One projection, routed through the pooled tiled kernel or — in
/// reference mode — the naive audit GEMM. Bit-identical either way.
fn project(
    reference: bool,
    pool: &ComputePool,
    layer: &Linear,
    x: &Tensor,
) -> Result<Tensor, CoreError> {
    if reference {
        layer.forward_naive(x)
    } else {
        layer.forward_on(pool, x)
    }
}

/// One block's Q/K/V projections of the normed rows `h` (`[t, D]`), with
/// RoPE applied at the rows' global `positions` — the per-layer input of
/// every attention step, prefill and decode alike.
fn project_qkv(
    reference: bool,
    pool: &ComputePool,
    block: &Block,
    config: &TransformerConfig,
    h: &Tensor,
    positions: &[usize],
) -> Result<(Tensor, Tensor, Tensor), CoreError> {
    let (t, shape) = (positions.len(), config.shape);
    let kv_shape = [t, shape.n_kv_heads(), shape.head_dim()];
    let q_shape = [t, shape.n_heads(), shape.head_dim()];
    let mut q = project(reference, pool, &block.wq, h)?.reshape(&q_shape)?;
    let mut k = project(reference, pool, &block.wk, h)?.reshape(&kv_shape)?;
    let v = project(reference, pool, &block.wv, h)?.reshape(&kv_shape)?;
    apply_rope(&mut q, positions, config.rope_base)?;
    apply_rope(&mut k, positions, config.rope_base)?;
    Ok((q, k, v))
}

/// Locks one rank's per-layer caches. A poisoned mutex means another rank
/// thread panicked while holding it; the cache data itself is still
/// consistent (appends are transactional), so serving continues instead of
/// propagating the panic.
fn lock_caches<T>(m: &Mutex<Vec<T>>) -> MutexGuard<'_, Vec<T>> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Copies the `lo..hi` feature columns of a `[t, d]` activation — the
/// input slice a row-parallel weight shard consumes.
fn slice_cols(x: &Tensor, lo: usize, hi: usize) -> Result<Tensor, CoreError> {
    let t = x.dim0();
    let mut out = Tensor::zeros(&[t, hi - lo]);
    for i in 0..t {
        out.row_mut(i).copy_from_slice(&x.row(i)[lo..hi]);
    }
    Ok(out)
}

/// AllReduce-sums one partial activation across every rank — the Helix
/// reshard's output-projection and FFN-down reduction. A single helper so
/// the decode path has exactly one AllReduce issue site and both uses
/// share the declared `AllReduce "Act"` schedule shape.
fn act_all_reduce(
    comm: &cp_comm::Communicator<RingMsg>,
    partial: Tensor,
) -> Result<Tensor, CoreError> {
    let mut mismatch = false;
    let reduced = comm.all_reduce(RingMsg::Act { x: partial }, |mut acc, m| {
        match (&mut acc, m) {
            (RingMsg::Act { x: a }, RingMsg::Act { x: b }) => {
                if a.add_assign(b).is_err() {
                    mismatch = true;
                }
            }
            _ => mismatch = true,
        }
        acc
    })?;
    if mismatch {
        return Err(CoreError::Internal {
            detail: "activation AllReduce mixed mismatched payloads".to_string(),
        });
    }
    match reduced {
        RingMsg::Act { x } => Ok(x),
        other => Err(CoreError::Internal {
            detail: format!("activation AllReduce returned {}", other.variant_name()),
        }),
    }
}

impl TransformerEngine {
    /// Creates an engine over `model` with `n_ranks` CP ranks.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadRequest`] if `n_ranks == 0`.
    pub fn new(model: Transformer, n_ranks: usize) -> Result<Self, ServeError> {
        Self::with_cache_limit(model, n_ranks, None)
    }

    /// [`TransformerEngine::new`] with a per-(rank, layer) page-pool limit
    /// (16-token pages), for capacity experiments.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadRequest`] if `n_ranks == 0`.
    pub fn with_cache_limit(
        model: Transformer,
        n_ranks: usize,
        max_pages: Option<usize>,
    ) -> Result<Self, ServeError> {
        if n_ranks == 0 {
            return Err(ServeError::Core(CoreError::BadRequest {
                reason: "engine needs at least one rank".to_string(),
            }));
        }
        let shape = model.config().shape;
        let layers = model.config().n_layers;
        let mut cache_cfg = KvCacheConfig::new(16, shape.n_kv_heads(), shape.head_dim());
        if let Some(max) = max_pages {
            cache_cfg = cache_cfg.with_max_pages(max);
        }
        let ranks = (0..n_ranks)
            .map(|_| {
                let caches = (0..layers).map(|_| PagedKvCache::new(cache_cfg)).collect();
                Mutex::new(caches)
            })
            .collect();
        Ok(TransformerEngine {
            heuristic_ctx: SystemContext::llama3_405b_gtt(n_ranks),
            model,
            n_ranks,
            ranks,
            sessions: BTreeMap::new(),
            check_schedules: false,
            pool_threads: 0,
            reference_gemm: false,
            schedule: SchedulePolicy::default(),
            kv_precision: KvPrecision::default(),
            decode_strategy: None,
            tp_shards: None,
        })
    }

    /// Pins the decode strategy for every tick: `PassQ` is the §3.6
    /// batched ring (the default under a fixed schedule), `Helix` attends
    /// each rank's resident KV shard for the whole batch and reshards the
    /// merged activations into a tensor-parallel output projection + FFN,
    /// `TpOnly` moves every shard to the slot owners over one KV
    /// AllGather. Unset, [`TransformerEngine::with_auto_schedule`] prices
    /// all three per tick. Helix requires the model and FFN dimensions to
    /// be divisible by the rank count (standard TP divisibility); its
    /// row-split GEMMs regroup floating-point sums, so activations are
    /// numerically equal — not bitwise — to pass-Q, while `TpOnly` stays
    /// bit-identical.
    #[must_use]
    pub fn with_decode_strategy(mut self, strategy: DecodeStrategy) -> Self {
        self.decode_strategy = Some(strategy);
        self
    }

    /// Sets the KV precision level: `F32` is exact, `Int8Wire` compresses
    /// the circulating pass-KV ring payloads (~`4d/(d+4)`× fewer bytes
    /// per hop), `Int8Total` additionally stores KV as INT8 pages and
    /// attends them in place on the pass-Q/decode hot paths. Sessions
    /// that already hold tokens keep them: every cache turns its INT8
    /// plane on (quantizing its cached tokens) or off
    /// ([`PagedKvCache::set_int8`]).
    #[must_use]
    pub fn with_kv_precision(mut self, precision: KvPrecision) -> Self {
        for rank in &self.ranks {
            for cache in lock_caches(rank).iter_mut() {
                cache.set_int8(precision == KvPrecision::Int8Total);
            }
        }
        self.kv_precision = precision;
        self
    }

    /// Pins the ring schedule family (payload direction × link layout)
    /// for every turn. All four families are bit-exact for pass-Q and
    /// decode; hierarchical pass-KV folds origins in a different order
    /// (exact but not bitwise against the flat default). The checked-mode
    /// declared plans follow the selected family automatically. A
    /// hierarchical layout must cover exactly the engine's rank count —
    /// a mismatch fails [`TransformerEngine::begin_prefill`] /
    /// [`TransformerEngine::decode_batch`] with
    /// [`CoreError::BadRequest`] before any rank runs.
    #[must_use]
    pub fn with_schedule(mut self, direction: RingDirection, layout: RingLayout) -> Self {
        self.schedule = SchedulePolicy::Fixed { direction, layout };
        self
    }

    /// Folds schedule-family selection into each turn's heuristics over
    /// the given link topology (`topo.world()` must equal the engine's
    /// rank count — checked like [`TransformerEngine::with_schedule`]).
    #[must_use]
    pub fn with_auto_schedule(mut self, topo: TopologySpec) -> Self {
        self.schedule = SchedulePolicy::Auto { topo };
        self
    }

    /// Sets each rank's persistent compute-pool width (`0` restores the
    /// fabric default). `1` forces the fully serial projection and
    /// attention paths.
    #[must_use]
    pub fn with_pool_threads(mut self, threads: usize) -> Self {
        self.pool_threads = threads;
        self
    }

    /// Routes every projection (and FFN) through the naive audit GEMM
    /// instead of the packed register-tiled kernel. Outputs are
    /// bit-identical; only the speed changes. Together with
    /// [`TransformerEngine::with_pool_threads`]`(1)` this reproduces the
    /// pre-tiling engine — the A-side of the cp-bench `gemm` end-to-end
    /// A/B.
    #[must_use]
    pub fn with_reference_gemm(mut self, enabled: bool) -> Self {
        self.reference_gemm = enabled;
        self
    }

    /// Enables (or disables) live schedule validation: every subsequent
    /// prefill and decode builds its declared [`cp_comm::CommPlan`] from the
    /// production schedule builders and runs under a `CheckedFabric`, so
    /// any drift between declared and actual traffic fails the turn
    /// instead of silently mismeasuring. Debug aid — adds plan-building
    /// overhead per turn, off by default.
    #[must_use]
    pub fn with_schedule_checking(mut self, enabled: bool) -> Self {
        self.check_schedules = enabled;
        self
    }

    /// Whether live schedule validation is on.
    pub fn schedule_checking(&self) -> bool {
        self.check_schedules
    }

    /// The model being served.
    pub fn model(&self) -> &Transformer {
        &self.model
    }

    /// Tokens in the default conversation (session `SeqId(0)`) so far.
    pub fn context_len(&self) -> usize {
        self.sessions
            .get(&DEFAULT_SEQ.0)
            .map_or(0, |state| state.len)
    }

    /// Number of CP ranks.
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// Live sessions, ascending by id.
    pub fn sessions(&self) -> Vec<SeqId> {
        self.sessions.keys().map(|&id| SeqId(id)).collect()
    }

    /// Whether `seq` is in the session table.
    pub fn has_session(&self, seq: SeqId) -> bool {
        self.sessions.contains_key(&seq.0)
    }

    /// Context length of a session.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] if `seq` is not being served.
    pub fn session_len(&self, seq: SeqId) -> Result<usize, ServeError> {
        Ok(self.state(seq)?.len)
    }

    /// Registers a new session on every (rank, layer) cache.
    ///
    /// # Errors
    ///
    /// [`ServeError::SequenceExists`] if the session is already being
    /// served — the typed replacement for the historical
    /// `expect("fresh cache")` panic; cache errors if a rank's cache
    /// already holds the sequence (a poisoned cache).
    pub fn create_session(&mut self, seq: SeqId) -> Result<(), ServeError> {
        if self.sessions.contains_key(&seq.0) {
            return Err(ServeError::SequenceExists { seq });
        }
        for (r, rank) in self.ranks.iter().enumerate() {
            let mut caches = lock_caches(rank);
            for (l, cache) in caches.iter_mut().enumerate() {
                if let Err(e) = cache.create_sequence(seq) {
                    // Unwind the partial registration so a failed create
                    // leaves no trace.
                    for cache in caches.iter_mut().take(l) {
                        let _ = cache.free_sequence(seq);
                    }
                    drop(caches);
                    for rank in self.ranks.iter().take(r) {
                        for cache in lock_caches(rank).iter_mut() {
                            let _ = cache.free_sequence(seq);
                        }
                    }
                    return Err(ServeError::Cache(e));
                }
            }
        }
        self.sessions.insert(seq.0, SessionState::default());
        Ok(())
    }

    /// Frees a session and its pages on every (rank, layer) cache.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] if `seq` is not being served.
    pub fn free_session(&mut self, seq: SeqId) -> Result<(), ServeError> {
        if self.sessions.remove(&seq.0).is_none() {
            return Err(ServeError::UnknownSession { seq });
        }
        for rank in &self.ranks {
            for cache in lock_caches(rank).iter_mut() {
                let _ = cache.free_sequence(seq);
            }
        }
        Ok(())
    }

    /// Occupancy statistics of every rank's layer-0 cache (all layers are
    /// identical) — the memory-pressure signal the scheduler's eviction
    /// policy watches.
    pub fn cache_stats(&self) -> Vec<CacheStats> {
        self.ranks
            .iter()
            .map(|rank| {
                lock_caches(rank)
                    .first()
                    .map(PagedKvCache::stats)
                    .unwrap_or_default()
            })
            .collect()
    }

    fn state(&self, seq: SeqId) -> Result<SessionState, ServeError> {
        self.sessions
            .get(&seq.0)
            .copied()
            .ok_or(ServeError::UnknownSession { seq })
    }

    /// Cached length of `seq` on rank `r` (layer 0; layers agree), with
    /// cache errors **propagated** — a missing or poisoned sequence
    /// surfaces as a typed error instead of silently reading as an empty
    /// cache and feeding a wrong `(T, P)` point into the heuristic.
    fn rank_len(&self, r: usize, seq: SeqId) -> Result<usize, ServeError> {
        let rank = self.ranks.get(r).ok_or_else(|| {
            ServeError::Core(CoreError::Internal {
                detail: format!("rank {r} out of range for world {}", self.n_ranks),
            })
        })?;
        let caches = lock_caches(rank);
        let cache = caches.first().ok_or_else(|| {
            ServeError::Core(CoreError::Internal {
                detail: "engine has no layers".to_string(),
            })
        })?;
        cache.seq_len(seq).map_err(ServeError::Cache)
    }

    fn rank_lens(&self, seq: SeqId) -> Result<Vec<usize>, ServeError> {
        (0..self.n_ranks).map(|r| self.rank_len(r, seq)).collect()
    }

    /// Per-rank cached-token counts of the default session (layer 0; all
    /// layers are identical). Zeros before the first turn.
    ///
    /// # Errors
    ///
    /// Propagates cache inconsistencies (a registered session missing
    /// from a rank's cache).
    pub fn rank_kv_lens(&self) -> Result<Vec<usize>, ServeError> {
        if !self.sessions.contains_key(&DEFAULT_SEQ.0) {
            return Ok(vec![0; self.n_ranks]);
        }
        self.rank_lens(DEFAULT_SEQ)
    }

    /// Per-rank cached-token counts of one session.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for an unregistered session; cache
    /// errors are propagated.
    pub fn rank_kv_lens_for(&self, seq: SeqId) -> Result<Vec<usize>, ServeError> {
        self.state(seq)?;
        self.rank_lens(seq)
    }

    fn ensure_default_session(&mut self) -> Result<(), ServeError> {
        if self.sessions.contains_key(&DEFAULT_SEQ.0) {
            return Ok(());
        }
        self.create_session(DEFAULT_SEQ)
    }

    /// Prefills a user turn of the default session (full prefill on the
    /// first call, partial prefill with persistent per-layer caches
    /// afterwards); the Algorithm 1 heuristic picks the ring variant.
    ///
    /// # Errors
    ///
    /// Propagates layer, cache and communication failures.
    pub fn prefill(&mut self, tokens: &[u32]) -> Result<ServeOutcome, ServeError> {
        self.prefill_with(tokens, None)
    }

    /// [`TransformerEngine::prefill`] with a forced ring variant.
    ///
    /// # Errors
    ///
    /// Same as [`TransformerEngine::prefill`].
    pub fn prefill_with(
        &mut self,
        tokens: &[u32],
        forced: Option<RingVariant>,
    ) -> Result<ServeOutcome, ServeError> {
        self.ensure_default_session()?;
        self.prefill_session_with(DEFAULT_SEQ, tokens, forced)
    }

    /// One-shot prefill of a turn for an explicit session.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for an unregistered session, plus
    /// layer, cache and communication failures.
    pub fn prefill_session(
        &mut self,
        seq: SeqId,
        tokens: &[u32],
    ) -> Result<ServeOutcome, ServeError> {
        self.prefill_session_with(seq, tokens, None)
    }

    /// [`TransformerEngine::prefill_session`] with a forced ring variant.
    ///
    /// # Errors
    ///
    /// Same as [`TransformerEngine::prefill_session`].
    pub fn prefill_session_with(
        &mut self,
        seq: SeqId,
        tokens: &[u32],
        forced: Option<RingVariant>,
    ) -> Result<ServeOutcome, ServeError> {
        let mut turn = self.begin_prefill(seq, tokens, forced)?;
        self.prefill_chunk(&mut turn, tokens.len().max(1))
    }

    /// Opens a prefill turn: validates the session against the per-rank
    /// caches, fixes the whole turn's 2N-chunk sharding, and runs the
    /// Algorithm 1 heuristic **once** on the turn's full `(T, P)` — the
    /// chunk schedule is an execution detail, not an algorithmic one.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] for an unregistered session;
    /// [`ServeError::SessionDesync`] (or a propagated cache error) when
    /// the per-rank caches disagree with the session table — the poisoned
    /// state that previously read as "empty cache" and flipped the
    /// variant heuristic; [`CoreError::BadRequest`] when the schedule
    /// policy's topology does not cover the engine's ranks.
    pub fn begin_prefill(
        &mut self,
        seq: SeqId,
        tokens: &[u32],
        forced: Option<RingVariant>,
    ) -> Result<PrefillTurn, ServeError> {
        self.schedule.validate(self.n_ranks)?;
        let state = self.state(seq)?;
        let p = state.len;
        let cached: usize = self.rank_lens(seq)?.iter().sum();
        if cached != p {
            return Err(ServeError::SessionDesync {
                seq,
                expected: p,
                actual: cached,
            });
        }
        let t = tokens.len();
        let mut shards = shard_new_tokens(p, t, self.n_ranks)?;
        // Per-rank positions must ascend so chunked appends land in the
        // same per-rank order as the one-shot append (the chunk-prefix
        // property behind bitwise chunk == one-shot).
        for shard in &mut shards {
            shard.sort_unstable();
        }
        let variant = forced
            .unwrap_or_else(|| choose_variant(HeuristicKind::Threshold, &self.heuristic_ctx, t, p));
        Ok(PrefillTurn {
            seq,
            tokens: tokens.to_vec(),
            base: p,
            shards,
            variant,
            next: 0,
        })
    }

    /// Executes the next `max_tokens`-token chunk of an open turn (the
    /// final chunk may be shorter; an empty turn runs one empty chunk).
    /// Returns the chunk's activations `[c, D]`; concatenating every
    /// chunk's activations reproduces the one-shot prefill bit for bit.
    ///
    /// # Errors
    ///
    /// [`ServeError::SessionDesync`] if the session advanced since
    /// [`TransformerEngine::begin_prefill`] (e.g. a decode tick ran for
    /// the same session mid-turn); layer, cache and communication
    /// failures roll the chunk back and propagate.
    pub fn prefill_chunk(
        &mut self,
        turn: &mut PrefillTurn,
        max_tokens: usize,
    ) -> Result<ServeOutcome, ServeError> {
        let state = self.state(turn.seq)?;
        if state.len != turn.base + turn.next {
            return Err(ServeError::SessionDesync {
                seq: turn.seq,
                expected: turn.base + turn.next,
                actual: state.len,
            });
        }
        let n = self.n_ranks;
        let seq = turn.seq;
        let c = max_tokens.min(turn.remaining());
        let start = turn.base + turn.next;
        let end = start + c;

        // This chunk's slice of the turn's per-rank positions (ascending,
        // so each chunk is a contiguous window per rank).
        let chunk_shards: Vec<Vec<usize>> = turn
            .shards
            .iter()
            .map(|shard| {
                let lo = shard.partition_point(|&pos| pos < start);
                let hi = shard.partition_point(|&pos| pos < end);
                shard[lo..hi].to_vec()
            })
            .collect();

        // Snapshot per-rank cache lengths (identical across layers) so a
        // failed chunk rolls back instead of leaving partial layer
        // appends; errors propagate (no silent "empty cache" reads).
        let snapshot = self.rank_lens(seq)?;

        // §3.5.2 padding target: the longest (cache + new) length.
        let ring_len = snapshot
            .iter()
            .zip(&chunk_shards)
            .map(|(&cached, shard)| cached + shard.len())
            .max()
            .unwrap_or(0);

        let config = *self.model.config();
        let shape = config.shape;
        let params = *self.model.attention_params();
        let model = &self.model;
        let ranks = &self.ranks;
        let shards_ref = &chunk_shards;
        let variant = turn.variant;
        let base = turn.base;
        let tokens = &turn.tokens;
        let spec = self.schedule.resolve(
            &self.heuristic_ctx,
            self.kv_precision,
            variant,
            turn.tokens.len(),
            turn.base,
        );

        // Declared schedule for checked mode: plans depend only on shapes,
        // so zero tensors of the per-rank geometry reproduce exactly what
        // each layer's ring loop will put on the wire.
        let plan = if self.check_schedules {
            let dh = shape.head_dim();
            let locals: Vec<Vec<LocalSeq>> = chunk_shards
                .iter()
                .map(|shard| {
                    vec![LocalSeq {
                        q: Tensor::zeros(&[shard.len(), shape.n_heads(), dh]),
                        q_pos: shard.clone(),
                        k: Tensor::zeros(&[ring_len, shape.n_kv_heads(), dh]),
                        v: Tensor::zeros(&[ring_len, shape.n_kv_heads(), dh]),
                        kv_pos: vec![PAD; ring_len],
                    }]
                })
                .collect();
            let input = match variant {
                RingVariant::PassKv => RingInput::PassKv(&locals),
                RingVariant::PassQ => RingInput::PassQ(&locals),
            };
            Some(
                ring_schedule(input, &spec, &params)?
                    .stacked(config.n_layers)
                    .ground()?,
            )
        } else {
            None
        };

        // Projections and norms run on the rank's persistent compute pool
        // (the same pool the ring attention kernels use), so GEMM
        // row-bands and ring compute share one set of worker threads.
        let reference = self.reference_gemm;
        let body = move |comm: &cp_comm::Communicator<RingMsg>| {
            let r = comm.rank();
            let pool = comm.pool();
            let positions = shards_ref.get(r).map(Vec::as_slice).unwrap_or(&[]);
            let local_tokens: Vec<u32> = positions
                .iter()
                .filter_map(|&pos| tokens.get(pos - base).copied())
                .collect();
            let t_local = positions.len();
            let mut caches = lock_caches(&ranks[r]);
            let mut x = model.embed(&local_tokens);
            for (l, block) in model.blocks().iter().enumerate() {
                let h = rms_norm_on(pool, &x, config.norm_eps)?;
                let (q, k, v) = project_qkv(reference, pool, block, &config, &h, positions)?;
                caches[l].append(seq, &k, &v, positions)?;
                let queries = vec![SeqQ {
                    q,
                    pos: positions.to_vec(),
                }];
                let seqs = [(seq, ring_len)];
                let attn =
                    attend_prefill(comm, &params, variant, &spec, &caches[l], &seqs, queries)?
                        .pop()
                        .ok_or_else(|| CoreError::Internal {
                            detail: "ring returned no output for the rank's sequence".to_string(),
                        })?;
                let attn_flat = attn.out.reshape(&[t_local, config.model_dim()])?;
                x.add_assign(&project(reference, pool, &block.wo, &attn_flat)?)?;
                let h = rms_norm_on(pool, &x, config.norm_eps)?;
                let f = if reference {
                    block.ffn.forward_naive(&h)?
                } else {
                    block.ffn.forward_on(pool, &h)?
                };
                x.add_assign(&f)?;
            }
            rms_norm_on(pool, &x, config.norm_eps)
        };
        let ring_result = run_ring_on(n, self.pool_threads, plan.as_ref(), body);
        let (outputs, traffic) = match ring_result {
            Ok(v) => v,
            Err(e) => {
                for (rank, &len) in self.ranks.iter().zip(&snapshot) {
                    for cache in lock_caches(rank).iter_mut() {
                        let _ = cache.truncate(seq, len);
                    }
                }
                return Err(ServeError::Core(e));
            }
        };

        // Un-shard to original order.
        let mut out = Tensor::zeros(&[c, config.model_dim()]);
        for (shard, rank_out) in chunk_shards.iter().zip(&outputs) {
            for (row, &pos) in shard.iter().enumerate() {
                out.row_mut(pos - start).copy_from_slice(rank_out.row(row));
            }
        }
        turn.next += c;
        if let Some(state) = self.sessions.get_mut(&seq.0) {
            state.len += c;
        }
        Ok(ServeOutcome {
            activations: out,
            variant: Some(variant),
            traffic,
        })
    }

    /// Decodes one token of the default session: its KV lands on the
    /// rotating round-robin rank (§3.6); each layer's attention is a
    /// batched ring pass-Q decode.
    ///
    /// # Errors
    ///
    /// Propagates layer, cache and communication failures.
    pub fn decode(&mut self, token: u32) -> Result<ServeOutcome, ServeError> {
        self.ensure_default_session()?;
        let mut outcome = self.decode_batch(&[(DEFAULT_SEQ, token)])?;
        let activations = outcome.activations.pop().ok_or_else(|| {
            ServeError::Core(CoreError::Internal {
                detail: "decode batch of one produced no output".to_string(),
            })
        })?;
        Ok(ServeOutcome {
            activations,
            variant: None,
            traffic: outcome.traffic,
        })
    }

    /// One fused batched decode tick: every `(session, token)` pair
    /// contributes exactly one new token; each session's KV lands on its
    /// **own** rotating round-robin rank (per-session step counters keep
    /// the rotation independent of batch composition), owner ranks run
    /// their projections batched over all owned tokens, and each layer's
    /// attention runs under the resolved [`DecodeStrategy`]: the batched
    /// ring pass-Q decode (default), the Helix KV-parallel decode with a
    /// tensor-parallel reshard, or the TP-only KV AllGather.
    ///
    /// Per-session outputs are bit-identical to decoding each session
    /// alone: attention is per-slot over that session's caches, and the
    /// batched GEMMs are row-independent.
    ///
    /// # Errors
    ///
    /// Rejects empty batches, duplicate sessions and a schedule topology
    /// that does not cover the engine's ranks (all before any rank runs);
    /// unknown sessions surface as [`ServeError::UnknownSession`]; layer,
    /// cache and communication failures roll the tick back and propagate.
    pub fn decode_batch(
        &mut self,
        batch: &[(SeqId, u32)],
    ) -> Result<DecodeBatchOutcome, ServeError> {
        let n = self.n_ranks;
        self.schedule.validate(n)?;
        if batch.is_empty() {
            return Err(ServeError::Core(CoreError::BadRequest {
                reason: "decode batch is empty".to_string(),
            }));
        }
        let mut seen = std::collections::HashSet::new();
        for (seq, _) in batch {
            if !seen.insert(seq.0) {
                return Err(ServeError::Core(CoreError::BadRequest {
                    reason: format!("session {seq} appears twice in one decode batch"),
                }));
            }
        }

        // Per-session owner assignment: each session's own decode counter
        // drives its §3.6 rotation.
        let owners: Vec<usize> = batch
            .iter()
            .map(|&(seq, _)| Ok(self.state(seq)?.decode_step % n))
            .collect::<Result<_, ServeError>>()?;
        let (per_rank_bids, slots_per_rank) = decode_slot_layout(&owners, n)?;

        // (bid, token, position, session) per rank, in slot order.
        let assigned: Vec<Vec<(usize, u32, usize, SeqId)>> = per_rank_bids
            .iter()
            .map(|bids| {
                bids.iter()
                    .map(|&b| {
                        let (seq, token) = batch[b];
                        Ok((b, token, self.state(seq)?.len, seq))
                    })
                    .collect::<Result<_, ServeError>>()
            })
            .collect::<Result<_, ServeError>>()?;

        // Snapshot each owner's cache length for failure rollback (only
        // owners append during decode); errors propagate.
        let snapshots: Vec<(usize, SeqId, usize)> = batch
            .iter()
            .zip(&owners)
            .map(|(&(seq, _), &owner)| Ok((owner, seq, self.rank_len(owner, seq)?)))
            .collect::<Result<_, ServeError>>()?;

        let config = *self.model.config();
        let shape = config.shape;
        let params = *self.model.attention_params();
        let model = &self.model;
        let ranks = &self.ranks;
        let assigned_ref = &assigned;
        let batch_seqs: Vec<SeqId> = batch.iter().map(|&(seq, _)| seq).collect();
        let batch_seqs_ref = &batch_seqs;

        // Pick the tick's decode strategy from the batch's total live
        // context (pin > fixed default > Appendix-D priced Auto), and
        // pre-split the TP weight shards once if Helix will reshard.
        let ctx_total: usize = batch
            .iter()
            .map(|&(seq, _)| Ok(self.state(seq)?.len + 1))
            .sum::<Result<usize, ServeError>>()?;
        // The resolved cell applies only to the pass-Q strategy's ring.
        let (strategy, spec) = self.schedule.resolve_decode(
            &self.heuristic_ctx,
            self.decode_strategy,
            ctx_total,
            batch.len(),
        );
        if strategy == DecodeStrategy::Helix && self.tp_shards.is_none() {
            self.tp_shards = Some(split_tp_shards(&self.model, n)?);
        }

        // Declared schedule for checked mode: decode traffic depends only
        // on which ranks own live slots, not on cache contents.
        let plan = if self.check_schedules {
            let slots: Vec<Vec<Option<DecodeSlot>>> = assigned
                .iter()
                .map(|owned| {
                    let mut rank_slots: Vec<Option<DecodeSlot>> = owned
                        .iter()
                        .map(|&(bid, _, pos, _)| {
                            Some(DecodeSlot {
                                bid,
                                q: Tensor::zeros(&[1, shape.n_heads(), shape.head_dim()]),
                                pos,
                            })
                        })
                        .collect();
                    rank_slots.resize(slots_per_rank, None);
                    rank_slots
                })
                .collect();
            let layers = config.n_layers;
            let plan = match strategy {
                DecodeStrategy::PassQ => ring_schedule(RingInput::Decode(&slots), &spec, &params)?
                    .stacked(layers)
                    .ground()?,
                // One Helix layer = the decode exchange plus the three
                // reshard collectives, in exactly the order the body
                // issues them.
                DecodeStrategy::Helix => {
                    helix_layer_plan(&params, &slots, config.model_dim(), layers)?
                }
                // TP-only moves each rank's post-append shard of every
                // batched session over one KV AllGather per layer.
                DecodeStrategy::TpOnly => {
                    let (n_kv, dh) = (shape.n_kv_heads(), shape.head_dim());
                    let kv_bytes = (0..n)
                        .map(|r| {
                            let seqs = batch
                                .iter()
                                .zip(&owners)
                                .map(|(&(seq, _), &owner)| {
                                    let len = self.rank_len(r, seq)? + usize::from(owner == r);
                                    Ok(SeqKv {
                                        k: Tensor::zeros(&[len, n_kv, dh]),
                                        v: Tensor::zeros(&[len, n_kv, dh]),
                                        pos: vec![PAD; len],
                                    })
                                })
                                .collect::<Result<Vec<_>, ServeError>>()?;
                            Ok(RingMsg::Kv { seqs }.wire_bytes())
                        })
                        .collect::<Result<Vec<usize>, ServeError>>()?;
                    tp_only_decode_plan(&kv_bytes, layers)?
                }
            };
            Some(plan)
        } else {
            None
        };

        let reference = self.reference_gemm;
        let bt = batch.len();
        let batch_tokens: Vec<u32> = batch.iter().map(|&(_, token)| token).collect();
        let batch_tokens_ref = &batch_tokens;
        let tp_ref = self
            .tp_shards
            .as_deref()
            .filter(|_| strategy == DecodeStrategy::Helix);
        let body = move |comm: &cp_comm::Communicator<RingMsg>| {
            let r = comm.rank();
            let pool = comm.pool();
            let mut caches = lock_caches(&ranks[r]);
            let d_model = config.model_dim();
            let owned: &[(usize, u32, usize, SeqId)] =
                assigned_ref.get(r).map(Vec::as_slice).unwrap_or(&[]);
            let b = owned.len();
            let positions: Vec<usize> = owned.iter().map(|&(_, _, pos, _)| pos).collect();
            // The owner step of one layer, shared by every strategy: owner
            // ranks project their owned rows `h` ([b, D], normed) in one
            // batched GEMM (continuous batching's arithmetic-intensity
            // win), append each token's KV to its session, and emit the
            // rank's query slots padded to the common slot count.
            let owner_step = |block: &Block, h: Option<&Tensor>, cache: &mut PagedKvCache| {
                let mut slots: Vec<Option<DecodeSlot>> = Vec::with_capacity(slots_per_rank);
                if let Some(h) = h {
                    let (q_all, k_all, v_all) =
                        project_qkv(reference, pool, block, &config, h, &positions)?;
                    for (j, &(bid, _, pos, seq)) in owned.iter().enumerate() {
                        let k_j = k_all.slice_dim0(j..j + 1)?;
                        let v_j = v_all.slice_dim0(j..j + 1)?;
                        cache.append(seq, &k_j, &v_j, &[pos])?;
                        slots.push(Some(DecodeSlot {
                            bid,
                            q: q_all.slice_dim0(j..j + 1)?,
                            pos,
                        }));
                    }
                }
                slots.resize_with(slots_per_rank, || None);
                Ok::<_, CoreError>(slots)
            };

            if let Some(tp) = tp_ref {
                // Helix replicates the residual stream: every rank embeds
                // the whole batch (a cheap deterministic lookup, no
                // communication), so post-attention activations can run
                // tensor-parallel without a scatter.
                let mut x_all = model.embed(batch_tokens_ref);
                for (l, block) in model.blocks().iter().enumerate() {
                    // Owners project only their owned rows — row-wise ops,
                    // so the appends and query slots are bit-identical to
                    // the pass-Q owner path.
                    let h_own = if b > 0 {
                        let h_all = rms_norm_on(pool, &x_all, config.norm_eps)?;
                        let mut h_own = Tensor::zeros(&[b, d_model]);
                        for (j, &(bid, ..)) in owned.iter().enumerate() {
                            h_own.row_mut(j).copy_from_slice(h_all.row(bid));
                        }
                        Some(h_own)
                    } else {
                        None
                    };
                    let slots = owner_step(block, h_own.as_ref(), &mut caches[l])?;
                    // KV-parallel attention: one DecodeQ AllGather + the
                    // exact merge (bitwise equal to the pass-Q ring).
                    let outs = attend_decode(
                        comm,
                        &params,
                        strategy,
                        &spec,
                        &caches[l],
                        &slots,
                        batch_seqs_ref,
                    )?;
                    let attn_own = if outs.is_empty() {
                        Tensor::zeros(&[0, d_model])
                    } else {
                        let rows = outs
                            .into_iter()
                            .map(|attn| attn.out.reshape(&[1, d_model]))
                            .collect::<Result<Vec<_>, _>>()?;
                        Tensor::concat_dim0(rows.iter())?
                    };
                    // Reshard to the TP layout: gather every owner's
                    // merged attention rows so all ranks hold [B, D].
                    let gathered = comm.all_gather(RingMsg::Act { x: attn_own })?;
                    let mut attn_all = Tensor::zeros(&[bt, d_model]);
                    for (src, msg) in gathered.iter().enumerate() {
                        let RingMsg::Act { x } = msg else {
                            return Err(CoreError::BadRequest {
                                reason: format!(
                                    "helix reshard AllGather slot {src} carries {}",
                                    msg.variant_name()
                                ),
                            });
                        };
                        let src_owned = assigned_ref.get(src).map(Vec::as_slice).unwrap_or(&[]);
                        if x.dim0() != src_owned.len() {
                            return Err(CoreError::Internal {
                                detail: format!(
                                    "helix reshard rank {src} sent {} rows for {} slots",
                                    x.dim0(),
                                    src_owned.len()
                                ),
                            });
                        }
                        for (j, &(bid, ..)) in src_owned.iter().enumerate() {
                            attn_all.row_mut(bid).copy_from_slice(x.row(j));
                        }
                    }
                    // Row-parallel output projection over this rank's
                    // feature slice, AllReduce-summed.
                    let cols = d_model / n;
                    let attn_cols = slice_cols(&attn_all, r * cols, (r + 1) * cols)?;
                    let wo_out = act_all_reduce(
                        comm,
                        project(reference, pool, &tp[l].wo_rows[r], &attn_cols)?,
                    )?;
                    x_all.add_assign(&wo_out)?;
                    // TP FFN: gate/up column-parallel (local), down
                    // row-parallel + AllReduce.
                    let h2 = rms_norm_on(pool, &x_all, config.norm_eps)?;
                    let mut g = project(reference, pool, &tp[l].gate_cols[r], &h2)?.map(silu);
                    let u = project(reference, pool, &tp[l].up_cols[r], &h2)?;
                    g.mul_assign(&u)?;
                    let ffn_out =
                        act_all_reduce(comm, project(reference, pool, &tp[l].down_rows[r], &g)?)?;
                    x_all.add_assign(&ffn_out)?;
                }
                if b == 0 {
                    return Ok(None);
                }
                let x_final = rms_norm_on(pool, &x_all, config.norm_eps)?;
                let mut mine = Tensor::zeros(&[b, d_model]);
                for (j, &(bid, ..)) in owned.iter().enumerate() {
                    mine.row_mut(j).copy_from_slice(x_final.row(bid));
                }
                return Ok(Some(mine));
            }

            let tokens: Vec<u32> = owned.iter().map(|&(_, token, _, _)| token).collect();
            let mut x = (b > 0).then(|| model.embed(&tokens));
            for (l, block) in model.blocks().iter().enumerate() {
                let h = x
                    .as_ref()
                    .map(|x| rms_norm_on(pool, x, config.norm_eps))
                    .transpose()?;
                let slots = owner_step(block, h.as_ref(), &mut caches[l])?;
                // Pass-Q ring or TP-only gather over every rank's resident
                // shard of every batched session, attended in place.
                let outs = attend_decode(
                    comm,
                    &params,
                    strategy,
                    &spec,
                    &caches[l],
                    &slots,
                    batch_seqs_ref,
                )?;
                if let Some(x) = x.as_mut() {
                    let rows = outs
                        .into_iter()
                        .map(|attn| attn.out.reshape(&[1, d_model]))
                        .collect::<Result<Vec<_>, _>>()?;
                    let attn_flat = Tensor::concat_dim0(rows.iter())?;
                    x.add_assign(&project(reference, pool, &block.wo, &attn_flat)?)?;
                    let h = rms_norm_on(pool, x, config.norm_eps)?;
                    let f = if reference {
                        block.ffn.forward_naive(&h)?
                    } else {
                        block.ffn.forward_on(pool, &h)?
                    };
                    x.add_assign(&f)?;
                }
            }
            x.map(|x| rms_norm_on(pool, &x, config.norm_eps))
                .transpose()
        };
        let ring_result = run_ring_on(n, self.pool_threads, plan.as_ref(), body);
        let (outputs, traffic) = match ring_result {
            Ok(v) => v,
            Err(e) => {
                for &(owner, seq, len) in &snapshots {
                    if let Some(rank) = self.ranks.get(owner) {
                        for cache in lock_caches(rank).iter_mut() {
                            let _ = cache.truncate(seq, len);
                        }
                    }
                }
                return Err(ServeError::Core(e));
            }
        };

        // Scatter each rank's rows back to batch order.
        let mut activations: Vec<Option<Tensor>> = vec![None; batch.len()];
        for (owned, rank_out) in assigned.iter().zip(&outputs) {
            if let Some(rows) = rank_out {
                for (j, &(bid, ..)) in owned.iter().enumerate() {
                    if let Some(slot) = activations.get_mut(bid) {
                        *slot = Some(rows.slice_dim0(j..j + 1)?);
                    }
                }
            }
        }
        let activations = activations
            .into_iter()
            .map(|a| {
                a.ok_or_else(|| {
                    ServeError::Core(CoreError::Internal {
                        detail: "a decode slot produced no output".to_string(),
                    })
                })
            })
            .collect::<Result<Vec<_>, _>>()?;

        for &(seq, _) in batch {
            if let Some(state) = self.sessions.get_mut(&seq.0) {
                state.len += 1;
                state.decode_step += 1;
            }
        }
        Ok(DecodeBatchOutcome {
            activations,
            traffic,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_kvcache::CacheError;
    use cp_model::TransformerConfig;

    fn model(seed: u64) -> Transformer {
        Transformer::new(&TransformerConfig::tiny(), seed)
    }

    #[test]
    fn duplicate_session_is_a_typed_error_not_a_panic() {
        // Regression: the seed engine ran `create_sequence(SEQ)
        // .expect("fresh cache")` and panicked when a sequence already
        // existed; a duplicate create must now surface as
        // `ServeError::SequenceExists`.
        let mut engine = TransformerEngine::new(model(1), 2).unwrap();
        engine.create_session(SeqId(5)).unwrap();
        let err = engine.create_session(SeqId(5)).unwrap_err();
        assert_eq!(err, ServeError::SequenceExists { seq: SeqId(5) });
        // The engine keeps serving.
        engine.prefill_session(SeqId(5), &[1, 2, 3]).unwrap();
        assert_eq!(engine.session_len(SeqId(5)).unwrap(), 3);
    }

    #[test]
    fn unknown_session_is_typed() {
        let mut engine = TransformerEngine::new(model(2), 2).unwrap();
        let err = engine.prefill_session(SeqId(9), &[1]).unwrap_err();
        assert_eq!(err, ServeError::UnknownSession { seq: SeqId(9) });
        assert!(matches!(
            engine.free_session(SeqId(9)).unwrap_err(),
            ServeError::UnknownSession { .. }
        ));
        assert!(engine.session_len(SeqId(9)).is_err());
        assert!(engine.rank_kv_lens_for(SeqId(9)).is_err());
    }

    #[test]
    fn poisoned_sequence_surfaces_as_serve_error_not_wrong_variant() {
        // Regression for the `seq_len(SEQ).unwrap_or(0)` pattern: a cache
        // mutated behind the session table's back used to read as "empty
        // cache", silently feeding t = 0 / p = 0 into `choose_variant`.
        // Now the next turn fails with a typed cache error before any
        // ring work runs.
        let mut engine = TransformerEngine::new(model(3), 2).unwrap();
        engine.prefill(&[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        // Poison: drop the sequence from rank 0's caches directly.
        for cache in lock_caches(&engine.ranks[0]).iter_mut() {
            cache.free_sequence(DEFAULT_SEQ).unwrap();
        }
        let err = engine.prefill(&[9, 10]).unwrap_err();
        assert!(
            matches!(err, ServeError::Cache(CacheError::UnknownSequence { .. })),
            "got {err:?}"
        );
        assert!(engine.rank_kv_lens().is_err());
        let err = engine.decode(11).unwrap_err();
        assert!(
            matches!(err, ServeError::Cache(CacheError::UnknownSequence { .. })),
            "got {err:?}"
        );
    }

    #[test]
    fn desynced_session_table_is_detected() {
        // Truncating a rank's cache behind the engine's back leaves the
        // session table claiming more tokens than the caches hold: the
        // next turn must refuse with SessionDesync, not run the heuristic
        // on a wrong (T, P).
        let mut engine = TransformerEngine::new(model(4), 2).unwrap();
        engine.prefill(&[1, 2, 3, 4, 5, 6]).unwrap();
        for cache in lock_caches(&engine.ranks[1]).iter_mut() {
            cache.truncate(DEFAULT_SEQ, 0).unwrap();
        }
        let err = engine.prefill(&[7]).unwrap_err();
        assert!(matches!(err, ServeError::SessionDesync { .. }), "{err:?}");
    }

    #[test]
    fn free_session_releases_pages_for_reuse() {
        let mut engine = TransformerEngine::with_cache_limit(model(5), 2, Some(1)).unwrap();
        engine.create_session(SeqId(1)).unwrap();
        engine
            .prefill_session(SeqId(1), &(0..20u32).collect::<Vec<_>>())
            .unwrap();
        // A second session cannot fit while the first holds every page.
        engine.create_session(SeqId(2)).unwrap();
        let err = engine
            .prefill_session(SeqId(2), &(0..20u32).collect::<Vec<_>>())
            .unwrap_err();
        assert!(err.is_out_of_pages(), "{err:?}");
        // Evicting the first frees its pages; the second now fits.
        engine.free_session(SeqId(1)).unwrap();
        engine
            .prefill_session(SeqId(2), &(0..20u32).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(engine.session_len(SeqId(2)).unwrap(), 20);
        assert!(!engine.has_session(SeqId(1)));
    }

    /// Prefills two sessions and runs three batched decode ticks under
    /// the given strategy pin (`None` = the engine default), returning
    /// each tick's per-session activations.
    fn decode_activations(
        n: usize,
        strategy: Option<DecodeStrategy>,
        precision: KvPrecision,
    ) -> Vec<Vec<Tensor>> {
        let mut engine = TransformerEngine::new(model(40), n)
            .unwrap()
            .with_kv_precision(precision);
        if let Some(s) = strategy {
            engine = engine.with_decode_strategy(s);
        }
        engine.create_session(SeqId(1)).unwrap();
        engine.create_session(SeqId(2)).unwrap();
        engine
            .prefill_session(SeqId(1), &(0..19u32).collect::<Vec<_>>())
            .unwrap();
        engine
            .prefill_session(SeqId(2), &(100..107u32).collect::<Vec<_>>())
            .unwrap();
        (0..3u32)
            .map(|step| {
                engine
                    .decode_batch(&[(SeqId(1), 50 + step), (SeqId(2), 80 + step)])
                    .unwrap()
                    .activations
            })
            .collect()
    }

    #[test]
    fn helix_decode_matches_pass_q_activations() {
        // The Helix reshard's row-split GEMMs regroup fp sums, so the
        // full-model activations are numerically equal (not bitwise) to
        // batched pass-Q — at every world size and KV precision.
        for n in [1usize, 2, 4] {
            for precision in [KvPrecision::F32, KvPrecision::Int8Total] {
                let passq = decode_activations(n, Some(DecodeStrategy::PassQ), precision);
                let helix = decode_activations(n, Some(DecodeStrategy::Helix), precision);
                for (p_step, h_step) in passq.iter().zip(&helix) {
                    for (p, h) in p_step.iter().zip(h_step) {
                        assert!(
                            p.approx_eq(h, 1e-4).unwrap(),
                            "n={n} {precision:?}: {}",
                            p.max_abs_diff(h).unwrap()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tp_only_decode_is_bit_identical_to_pass_q() {
        // TP-only reuses the pass-Q owner path and folds the same
        // per-shard partials in the same order — bitwise, not just close.
        for n in [1usize, 2, 4] {
            for precision in [KvPrecision::F32, KvPrecision::Int8Total] {
                let passq = decode_activations(n, None, precision);
                let tp = decode_activations(n, Some(DecodeStrategy::TpOnly), precision);
                assert_eq!(passq, tp, "n={n} {precision:?}");
            }
        }
    }

    #[test]
    fn helix_and_tp_only_decode_pass_checked_schedules() {
        // Checked mode validates live traffic against the stacked
        // per-layer plans (`helix_layer_plan` / `tp_only_decode_plan` /
        // the pass-Q decode ring); any drift between the declared
        // collectives and what the decode body issues fails the tick, at
        // either storage precision. Checked runs stay bit-identical to
        // unchecked ones.
        let strategies = [
            DecodeStrategy::PassQ,
            DecodeStrategy::Helix,
            DecodeStrategy::TpOnly,
        ];
        for strategy in strategies {
            for precision in [KvPrecision::F32, KvPrecision::Int8Total] {
                for n in [1usize, 2, 4] {
                    let run = |checked: bool| {
                        let mut engine = TransformerEngine::new(model(41), n)
                            .unwrap()
                            .with_kv_precision(precision)
                            .with_schedule_checking(checked)
                            .with_decode_strategy(strategy);
                        engine.prefill(&(0..11u32).collect::<Vec<_>>()).unwrap();
                        let outs: Vec<Tensor> = (0..3)
                            .map(|t| engine.decode(20 + t).unwrap().activations)
                            .collect();
                        assert_eq!(engine.context_len(), 14);
                        outs
                    };
                    assert_eq!(run(true), run(false), "{strategy:?} {precision:?} n={n}");
                }
            }
        }
    }

    #[test]
    fn helix_decode_traffic_has_no_ring_hops() {
        // Helix replaces the n-1 DecodeQ SendRecv hops with one AllGather
        // and adds the reshard AllGather + two AllReduces per layer;
        // pass-Q keeps the hop chain. The traffic report shows the swap.
        let mut helix = TransformerEngine::new(model(42), 2)
            .unwrap()
            .with_decode_strategy(DecodeStrategy::Helix);
        helix.prefill(&(0..9u32).collect::<Vec<_>>()).unwrap();
        let ht = helix.decode(30).unwrap().traffic;
        assert_eq!(ht.send_recv_bytes, 0, "helix decode must not hop");
        assert!(ht.all_gather_bytes > 0);
        assert!(ht.all_reduce.bytes > 0);

        let mut passq = TransformerEngine::new(model(42), 2).unwrap();
        passq.prefill(&(0..9u32).collect::<Vec<_>>()).unwrap();
        let pt = passq.decode(30).unwrap().traffic;
        assert!(pt.send_recv_bytes > 0, "pass-q decode circulates queries");
        assert_eq!(pt.all_reduce.bytes, 0);
    }

    #[test]
    fn auto_schedule_decode_matches_pinned_strategy() {
        // At this tick's short context the Appendix-D pricing picks
        // TP-only (one latency beats Helix's two; the tiny KV shard is
        // nearly free to move) — and TP-only is bit-identical to pass-Q,
        // so Auto must reproduce the pinned default exactly. Both engines
        // run the same auto schedule so the prefill ring family (exact
        // but not bitwise across families) is held constant.
        let run = |pin: Option<DecodeStrategy>| {
            let mut engine = TransformerEngine::new(model(43), 2)
                .unwrap()
                .with_auto_schedule(TopologySpec::uniform(2, 100.0, 5.0));
            if let Some(s) = pin {
                engine = engine.with_decode_strategy(s);
            }
            engine.prefill(&(0..13u32).collect::<Vec<_>>()).unwrap();
            (0..3u32)
                .map(|t| engine.decode(60 + t).unwrap().activations)
                .collect::<Vec<_>>()
        };
        let auto = run(None);
        let passq = run(Some(DecodeStrategy::PassQ));
        let tponly = run(Some(DecodeStrategy::TpOnly));
        assert_eq!(auto, tponly);
        assert_eq!(auto, passq);
    }

    #[test]
    fn helix_rejects_indivisible_tp_split() {
        // tiny() has D=32: three ranks cannot row-split the output
        // projection, and the tick must fail typed instead of panicking.
        let mut engine = TransformerEngine::new(model(44), 3)
            .unwrap()
            .with_decode_strategy(DecodeStrategy::Helix);
        engine.prefill(&(0..7u32).collect::<Vec<_>>()).unwrap();
        let err = engine.decode(9).unwrap_err();
        assert!(
            matches!(err, ServeError::Core(CoreError::BadRequest { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn sessions_are_listed_in_order() {
        let mut engine = TransformerEngine::new(model(6), 1).unwrap();
        for id in [4u64, 1, 3] {
            engine.create_session(SeqId(id)).unwrap();
        }
        assert_eq!(engine.sessions(), vec![SeqId(1), SeqId(3), SeqId(4)]);
        assert_eq!(engine.cache_stats().len(), 1);
    }
}
