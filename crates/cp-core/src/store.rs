//! One rank's resident KV for one attention layer, and the two rank-local
//! steps that attend it.
//!
//! The paper's persistent-KV prefill and decode (§3.3, §3.6) ask one thing
//! of each rank: keep its KV shard resident and, per turn, attend it with
//! pass-KV, pass-Q or a decode collective. [`KvStore`] is that resident
//! shard — the f32 [`PagedKvCache`] plus, at [`KvPrecision::Int8Total`],
//! its INT8 [`QuantKvCache`] twin — and [`attend_prefill`] /
//! [`attend_decode`] build every ring input from it. Both engines hold
//! stores and call these two steps; neither knows how the twin is kept.

use cp_attention::{AttentionOutput, AttentionParams, PAD};
use cp_comm::Communicator;
use cp_kvcache::quant::QuantKvCache;
use cp_kvcache::{CacheError, CacheStats, KvCacheConfig, PagedKvCache, SeqId};
use cp_perf::{DecodeStrategy, RingVariant};
use cp_tensor::Tensor;

use crate::engine::KvPrecision;
use crate::messages::{DecodeSlot, LocalSeq, RingMsg, SeqKv, SeqQ};
use crate::ring::{
    attn_block_for, helix_decode, ring_pass_kv_prefill, ring_pass_q_decode, ring_pass_q_prefill,
    tp_only_decode, RankKv,
};
use crate::spec::RingSpec;
use crate::CoreError;

/// One rank's resident KV for one attention layer.
///
/// The f32 cache is the exactness master: pass-KV gathers from it and
/// rollback truncates it. At [`KvPrecision::Int8Total`] an INT8 twin
/// mirrors every create, append, truncate and free, and pass-Q prefill
/// and decode attend the twin in place. Quantization scales are
/// token-local, so a twin rebuilt from the master by
/// [`KvStore::set_precision`] is bitwise the twin that quantize-on-append
/// would have written.
#[derive(Debug)]
pub struct KvStore {
    master: PagedKvCache,
    twin: Option<QuantKvCache>,
}

impl KvStore {
    /// An empty store; `precision` decides whether it keeps an INT8 twin.
    pub fn new(config: KvCacheConfig, precision: KvPrecision) -> Self {
        KvStore {
            master: PagedKvCache::new(config),
            twin: (precision == KvPrecision::Int8Total).then(|| QuantKvCache::new(config)),
        }
    }

    /// Page size of the store's caches, in tokens.
    pub fn page_size(&self) -> usize {
        self.master.config().page_size
    }

    /// Registers a new, empty sequence.
    ///
    /// # Errors
    ///
    /// [`CacheError::DuplicateSequence`] if the id is live.
    pub fn create_sequence(&mut self, seq: SeqId) -> Result<(), CacheError> {
        self.master.create_sequence(seq)?;
        self.twin
            .as_mut()
            .map_or(Ok(()), |twin| twin.create_sequence(seq))
    }

    /// Removes a sequence and releases its pages.
    ///
    /// # Errors
    ///
    /// [`CacheError::UnknownSequence`] if absent.
    pub fn free_sequence(&mut self, seq: SeqId) -> Result<(), CacheError> {
        self.master.free_sequence(seq)?;
        self.twin
            .as_mut()
            .map_or(Ok(()), |twin| twin.free_sequence(seq))
    }

    /// Cached token count of a sequence.
    ///
    /// # Errors
    ///
    /// [`CacheError::UnknownSequence`] if absent.
    pub fn seq_len(&self, seq: SeqId) -> Result<usize, CacheError> {
        self.master.seq_len(seq)
    }

    /// Global positions of a sequence's cached tokens, in append order.
    ///
    /// # Errors
    ///
    /// [`CacheError::UnknownSequence`] if absent.
    pub fn positions(&self, seq: SeqId) -> Result<Vec<usize>, CacheError> {
        self.master.positions(seq)
    }

    /// Occupancy of the f32 master (the twin holds the same pages).
    pub fn stats(&self) -> CacheStats {
        self.master.stats()
    }

    /// Appends `[t, n_kv_heads, head_dim]` K/V with their global positions
    /// to both pools.
    ///
    /// # Errors
    ///
    /// As [`PagedKvCache::append`].
    pub fn append(
        &mut self,
        seq: SeqId,
        k: &Tensor,
        v: &Tensor,
        positions: &[usize],
    ) -> Result<(), CacheError> {
        self.master.append(seq, k, v, positions)?;
        self.twin
            .as_mut()
            .map_or(Ok(()), |twin| twin.append(seq, k, v, positions))
    }

    /// Appends the selected `rows` of K/V with their global positions to
    /// both pools, each row straight into its page slot.
    ///
    /// # Errors
    ///
    /// As [`PagedKvCache::append_rows`].
    pub fn append_rows(
        &mut self,
        seq: SeqId,
        k: &Tensor,
        v: &Tensor,
        rows: &[usize],
        positions: &[usize],
    ) -> Result<(), CacheError> {
        self.master.append_rows(seq, k, v, rows, positions)?;
        self.twin
            .as_mut()
            .map_or(Ok(()), |twin| twin.append_rows(seq, k, v, rows, positions))
    }

    /// Shrinks a sequence to its first `new_len` cached tokens in both
    /// pools.
    ///
    /// # Errors
    ///
    /// As [`PagedKvCache::truncate`].
    pub fn truncate(&mut self, seq: SeqId, new_len: usize) -> Result<(), CacheError> {
        self.master.truncate(seq, new_len)?;
        self.twin
            .as_mut()
            .map_or(Ok(()), |twin| twin.truncate(seq, new_len))
    }

    /// What pass-Q prefill and decode attend: the INT8 twin's pages when
    /// there is one, else the f32 pages — zero-copy either way.
    ///
    /// # Errors
    ///
    /// [`CacheError::UnknownSequence`] if absent.
    pub fn attend_source(&self, seq: SeqId) -> Result<RankKv<'_>, CacheError> {
        Ok(match &self.twin {
            Some(twin) => RankKv::QuantView(twin.view(seq)?),
            None => RankKv::View(self.master.view(seq)?),
        })
    }

    /// The pass-KV ring input of one sequence: the rank's queries plus its
    /// f32 KV shard, padded to `ring_len` (§3.5.2's equal-message-size
    /// invariant). INT8 wire quantizes at the origin, so pass-KV always
    /// gathers the master.
    ///
    /// # Errors
    ///
    /// [`CoreError::Cache`] for an unknown sequence; a shard longer than
    /// `ring_len` fails the pad.
    pub fn local_seq(&self, seq: SeqId, q: SeqQ, ring_len: usize) -> Result<LocalSeq, CoreError> {
        let (k, v, mut kv_pos) = self.master.gather(seq)?;
        kv_pos.resize(ring_len, PAD);
        Ok(LocalSeq {
            q: q.q,
            q_pos: q.pos,
            k: k.pad_dim0(ring_len, 0.0)?,
            v: v.pad_dim0(ring_len, 0.0)?,
            kv_pos,
        })
    }

    /// The rank's shard of one sequence as TP-only decode puts it on the
    /// KV AllGather wire: the dequantized twin under INT8 storage (so a
    /// peer's re-attention matches this rank's quant-view path bit for
    /// bit), else the f32 pages.
    ///
    /// # Errors
    ///
    /// [`CacheError::UnknownSequence`] if absent.
    pub fn wire_kv(&self, seq: SeqId) -> Result<SeqKv, CacheError> {
        let (k, v, pos) = match &self.twin {
            Some(twin) => twin.dequantize(seq)?,
            None => self.master.gather(seq)?,
        };
        Ok(SeqKv { k, v, pos })
    }

    /// Switches the storage precision: [`KvPrecision::Int8Total`] builds
    /// the INT8 twin by quantizing every cached token of the master (a
    /// twin already in lockstep is kept); the other levels drop it. On
    /// failure the store is unchanged.
    ///
    /// # Errors
    ///
    /// [`CacheError::OutOfPages`] if the twin cannot hold what the master
    /// holds — which the twin's shared page geometry and limit rule out.
    pub fn set_precision(&mut self, precision: KvPrecision) -> Result<(), CacheError> {
        if precision != KvPrecision::Int8Total {
            self.twin = None;
            return Ok(());
        }
        if self.twin.is_some() {
            return Ok(());
        }
        let mut twin = QuantKvCache::new(*self.master.config());
        for seq in self.master.sequence_ids() {
            let (k, v, pos) = self.master.gather(seq)?;
            twin.create_sequence(seq)?;
            twin.append(seq, &k, &v, &pos)?;
        }
        self.twin = Some(twin);
        Ok(())
    }
}

/// One rank's prefill attention of a batch over its store: pass-KV
/// circulates each sequence's shard padded to its ring length, pass-Q
/// circulates the queries and attends the resident pages in place.
///
/// `seqs[i]` names the sequence of `queries[i]` and its pass-KV ring
/// length (the longest shard over ranks; pass-Q ignores it). Returns one
/// output per sequence, rows in query order.
///
/// # Errors
///
/// Cache errors for unknown sequences; as [`ring_pass_kv_prefill`] /
/// [`ring_pass_q_prefill`].
pub fn attend_prefill(
    comm: &Communicator<RingMsg>,
    params: &AttentionParams,
    variant: RingVariant,
    spec: &RingSpec,
    store: &KvStore,
    seqs: &[(SeqId, usize)],
    queries: Vec<SeqQ>,
) -> Result<Vec<AttentionOutput>, CoreError> {
    match variant {
        RingVariant::PassKv => {
            let locals = seqs
                .iter()
                .zip(queries)
                .map(|(&(seq, ring_len), q)| store.local_seq(seq, q, ring_len))
                .collect::<Result<Vec<_>, _>>()?;
            ring_pass_kv_prefill(comm, params, spec, &locals)
        }
        RingVariant::PassQ => {
            let kv = seqs
                .iter()
                .map(|&(seq, _)| store.attend_source(seq))
                .collect::<Result<Vec<_>, _>>()?;
            ring_pass_q_prefill(comm, params, spec, &queries, &kv)
        }
    }
}

/// One rank's decode attention of a batch over its store under
/// `strategy`: `slots` are the rank's owned query slots (padded to the
/// common slot count) and `seqs[b]` the batch's sequences. The ring `spec`
/// applies to pass-Q; TP-only takes its kernel block from the store's
/// page size and puts no shard on the wire at world size 1. Returns one
/// output per real slot, in slot order.
///
/// # Errors
///
/// Cache errors for unknown sequences; as [`ring_pass_q_decode`] /
/// [`helix_decode`] / [`tp_only_decode`].
pub fn attend_decode(
    comm: &Communicator<RingMsg>,
    params: &AttentionParams,
    strategy: DecodeStrategy,
    spec: &RingSpec,
    store: &KvStore,
    slots: &[Option<DecodeSlot>],
    seqs: &[SeqId],
) -> Result<Vec<AttentionOutput>, CoreError> {
    let batch_kv = seqs
        .iter()
        .map(|&seq| store.attend_source(seq))
        .collect::<Result<Vec<_>, _>>()?;
    match strategy {
        DecodeStrategy::PassQ => ring_pass_q_decode(comm, params, spec, slots, &batch_kv),
        DecodeStrategy::Helix => helix_decode(comm, params, slots, &batch_kv),
        DecodeStrategy::TpOnly => {
            let wire = if comm.world_size() > 1 {
                seqs.iter()
                    .map(|&seq| store.wire_kv(seq))
                    .collect::<Result<Vec<_>, _>>()?
            } else {
                Vec::new()
            };
            let block = attn_block_for(store.page_size());
            tp_only_decode(comm, params, slots, &batch_kv, &wire, block)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_tensor::DetRng;

    fn config() -> KvCacheConfig {
        KvCacheConfig::new(4, 2, 8).with_max_pages(8)
    }

    /// Two sequences, appended in interleaved row subsets so the pages
    /// of both share one pool.
    fn fill(store: &mut KvStore) {
        let mut rng = DetRng::new(5);
        for seq in [SeqId(1), SeqId(2)] {
            store.create_sequence(seq).unwrap();
        }
        let (k, v) = (rng.tensor(&[9, 2, 8]), rng.tensor(&[9, 2, 8]));
        store
            .append_rows(SeqId(1), &k, &v, &[0, 2, 4, 6], &[0, 2, 4, 6])
            .unwrap();
        store
            .append(SeqId(2), &k, &v, &(0..9).collect::<Vec<_>>())
            .unwrap();
        store
            .append_rows(SeqId(1), &k, &v, &[8, 1], &[8, 9])
            .unwrap();
    }

    #[test]
    fn rebuilt_twin_is_bitwise_the_appended_twin() {
        let mut from_start = KvStore::new(config(), KvPrecision::Int8Total);
        let mut late = KvStore::new(config(), KvPrecision::F32);
        fill(&mut from_start);
        fill(&mut late);
        let f32_wire = late.wire_kv(SeqId(1)).unwrap();
        late.set_precision(KvPrecision::Int8Total).unwrap();
        for seq in [SeqId(1), SeqId(2)] {
            assert_eq!(late.wire_kv(seq).unwrap(), from_start.wire_kv(seq).unwrap());
        }
        assert_ne!(late.wire_kv(SeqId(1)).unwrap(), f32_wire);
        // Dropping the twin returns every read to the f32 master.
        late.set_precision(KvPrecision::Int8Wire).unwrap();
        assert_eq!(late.wire_kv(SeqId(1)).unwrap(), f32_wire);
        assert!(matches!(
            late.attend_source(SeqId(1)).unwrap(),
            RankKv::View(_)
        ));
    }

    #[test]
    fn truncate_and_free_reach_both_pools() {
        let mut store = KvStore::new(config(), KvPrecision::Int8Total);
        fill(&mut store);
        store.truncate(SeqId(1), 2).unwrap();
        assert_eq!(store.seq_len(SeqId(1)).unwrap(), 2);
        assert_eq!(store.wire_kv(SeqId(1)).unwrap().pos, vec![0, 2]);
        match store.attend_source(SeqId(1)).unwrap() {
            RankKv::QuantView(view) => assert_eq!(view.positions(), &[0, 2]),
            other => panic!("INT8 storage attended {other:?}"),
        }
        store.free_sequence(SeqId(1)).unwrap();
        assert!(store.attend_source(SeqId(1)).is_err());
        assert!(store.wire_kv(SeqId(1)).is_err());
        assert_eq!(store.stats().sequences, 1);
    }

    #[test]
    fn local_seq_pads_the_master_shard_to_the_ring_length() {
        let mut store = KvStore::new(config(), KvPrecision::Int8Total);
        fill(&mut store);
        let q = SeqQ {
            q: Tensor::zeros(&[1, 4, 8]),
            pos: vec![10],
        };
        let local = store.local_seq(SeqId(1), q, 8).unwrap();
        assert_eq!(local.k.dim0(), 8);
        assert_eq!(local.kv_pos, vec![0, 2, 4, 6, 8, 9, PAD, PAD]);
        assert_eq!(local.q_pos, vec![10]);
        let master = store.master.gather(SeqId(1)).unwrap().0;
        assert_eq!(local.k.slice_dim0(0..6).unwrap(), master);
        assert!(store
            .local_seq(
                SeqId(1),
                SeqQ {
                    q: local.q,
                    pos: vec![10]
                },
                5
            )
            .is_err());
    }
}
