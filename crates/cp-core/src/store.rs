//! The two rank-local steps that attend one rank's resident KV for one
//! attention layer.
//!
//! The paper's persistent-KV prefill and decode (§3.3, §3.6) ask one thing
//! of each rank: keep its KV shard resident and, per turn, attend it with
//! pass-KV, pass-Q or a decode collective. That shard is a
//! [`PagedKvCache`], its INT8 plane on at
//! [`KvPrecision::Int8Total`](crate::KvPrecision::Int8Total);
//! [`attend_prefill`] / [`attend_decode`] build every ring input from it.
//! Both engines hold one cache per (rank, layer) and call these two steps.

use cp_attention::{AttentionOutput, AttentionParams, PAD};
use cp_comm::Communicator;
use cp_kvcache::{CacheError, PagedKvCache, SeqId};
use cp_perf::{DecodeStrategy, RingVariant};

use crate::messages::{DecodeSlot, LocalSeq, RingMsg, SeqKv, SeqQ};
use crate::ring::{
    attn_block_for, helix_decode, ring_pass_kv_prefill, ring_pass_q_decode, ring_pass_q_prefill,
    tp_only_decode, RankKv,
};
use crate::spec::RingSpec;
use crate::CoreError;

/// The pass-KV ring input of one sequence: the rank's queries plus its f32
/// KV shard, padded to `ring_len` (§3.5.2's equal-message-size invariant).
/// INT8 wire quantizes at the origin, so pass-KV always gathers the f32
/// values.
fn local_seq(
    cache: &PagedKvCache,
    seq: SeqId,
    q: SeqQ,
    ring_len: usize,
) -> Result<LocalSeq, CoreError> {
    let (k, v, mut kv_pos) = cache.gather(seq)?;
    kv_pos.resize(ring_len, PAD);
    Ok(LocalSeq {
        q: q.q,
        q_pos: q.pos,
        k: k.pad_dim0(ring_len, 0.0)?,
        v: v.pad_dim0(ring_len, 0.0)?,
        kv_pos,
    })
}

/// The rank's shard of one sequence as TP-only decode puts it on the KV
/// AllGather wire: the rows its view attends — the dequantized INT8 plane
/// while it is on (so a peer's re-attention matches this rank's view bit
/// for bit), else the f32 values.
fn wire_kv(cache: &PagedKvCache, seq: SeqId) -> Result<SeqKv, CacheError> {
    let (k, v, pos) = match cache.gather_int8(seq)? {
        Some((k, v, pos)) => (k.dequantize(), v.dequantize(), pos),
        None => cache.gather(seq)?,
    };
    Ok(SeqKv { k, v, pos })
}

/// One rank's prefill attention of a batch over its cache: pass-KV
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
    cache: &PagedKvCache,
    seqs: &[(SeqId, usize)],
    queries: Vec<SeqQ>,
) -> Result<Vec<AttentionOutput>, CoreError> {
    match variant {
        RingVariant::PassKv => {
            let locals = seqs
                .iter()
                .zip(queries)
                .map(|(&(seq, ring_len), q)| local_seq(cache, seq, q, ring_len))
                .collect::<Result<Vec<_>, _>>()?;
            ring_pass_kv_prefill(comm, params, spec, &locals)
        }
        RingVariant::PassQ => {
            let kv = seqs
                .iter()
                .map(|&(seq, _)| cache.view(seq).map(RankKv::View))
                .collect::<Result<Vec<_>, _>>()?;
            ring_pass_q_prefill(comm, params, spec, &queries, &kv)
        }
    }
}

/// One rank's decode attention of a batch over its cache under
/// `strategy`: `slots` are the rank's owned query slots (padded to the
/// common slot count) and `seqs[b]` the batch's sequences. The ring `spec`
/// applies to pass-Q; TP-only takes its kernel block from the cache's
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
    cache: &PagedKvCache,
    slots: &[Option<DecodeSlot>],
    seqs: &[SeqId],
) -> Result<Vec<AttentionOutput>, CoreError> {
    let batch_kv = seqs
        .iter()
        .map(|&seq| cache.view(seq).map(RankKv::View))
        .collect::<Result<Vec<_>, _>>()?;
    match strategy {
        DecodeStrategy::PassQ => ring_pass_q_decode(comm, params, spec, slots, &batch_kv),
        DecodeStrategy::Helix => helix_decode(comm, params, slots, &batch_kv),
        DecodeStrategy::TpOnly => {
            let wire = if comm.world_size() > 1 {
                seqs.iter()
                    .map(|&seq| wire_kv(cache, seq))
                    .collect::<Result<Vec<_>, _>>()?
            } else {
                Vec::new()
            };
            let block = attn_block_for(cache.config().page_size);
            tp_only_decode(comm, params, slots, &batch_kv, &wire, block)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_kvcache::KvCacheConfig;
    use cp_tensor::{DetRng, Tensor};

    fn cache(int8: bool) -> PagedKvCache {
        let mut cache = PagedKvCache::new(KvCacheConfig::new(4, 2, 8).with_max_pages(8));
        cache.set_int8(int8);
        cache
    }

    /// Two sequences, appended in interleaved row subsets so the pages
    /// of both share one pool.
    fn fill(cache: &mut PagedKvCache) {
        let mut rng = DetRng::new(5);
        for seq in [SeqId(1), SeqId(2)] {
            cache.create_sequence(seq).unwrap();
        }
        let (k, v) = (rng.tensor(&[9, 2, 8]), rng.tensor(&[9, 2, 8]));
        cache
            .append_rows(SeqId(1), &k, &v, &[0, 2, 4, 6], &[0, 2, 4, 6])
            .unwrap();
        cache
            .append(SeqId(2), &k, &v, &(0..9).collect::<Vec<_>>())
            .unwrap();
        cache
            .append_rows(SeqId(1), &k, &v, &[8, 1], &[8, 9])
            .unwrap();
    }

    #[test]
    fn rebuilt_plane_is_bitwise_the_appended_plane() {
        let mut from_start = cache(true);
        let mut late = cache(false);
        fill(&mut from_start);
        fill(&mut late);
        let f32_wire = wire_kv(&late, SeqId(1)).unwrap();
        late.set_int8(true);
        for seq in [SeqId(1), SeqId(2)] {
            assert_eq!(
                wire_kv(&late, seq).unwrap(),
                wire_kv(&from_start, seq).unwrap()
            );
        }
        assert_ne!(wire_kv(&late, SeqId(1)).unwrap(), f32_wire);
        // Dropping the plane returns every read to the f32 values.
        late.set_int8(false);
        assert_eq!(wire_kv(&late, SeqId(1)).unwrap(), f32_wire);
    }

    #[test]
    fn truncate_and_free_reach_the_int8_plane() {
        let mut cache = cache(true);
        fill(&mut cache);
        cache.truncate(SeqId(1), 2).unwrap();
        assert_eq!(cache.seq_len(SeqId(1)).unwrap(), 2);
        assert_eq!(wire_kv(&cache, SeqId(1)).unwrap().pos, vec![0, 2]);
        assert_eq!(cache.view(SeqId(1)).unwrap().positions(), &[0, 2]);
        let (qk, ..) = cache.gather_int8(SeqId(1)).unwrap().unwrap();
        assert_eq!(qk.tokens(), 2);
        cache.free_sequence(SeqId(1)).unwrap();
        assert!(cache.view(SeqId(1)).is_err());
        assert!(wire_kv(&cache, SeqId(1)).is_err());
        assert_eq!(cache.stats().sequences, 1);
    }

    #[test]
    fn local_seq_pads_the_master_shard_to_the_ring_length() {
        let mut cache = cache(true);
        fill(&mut cache);
        let q = SeqQ {
            q: Tensor::zeros(&[1, 4, 8]),
            pos: vec![10],
        };
        let local = local_seq(&cache, SeqId(1), q, 8).unwrap();
        assert_eq!(local.k.dim0(), 8);
        assert_eq!(local.kv_pos, vec![0, 2, 4, 6, 8, 9, PAD, PAD]);
        assert_eq!(local.q_pos, vec![10]);
        let master = cache.gather(SeqId(1)).unwrap().0;
        assert_eq!(local.k.slice_dim0(0..6).unwrap(), master);
        assert!(local_seq(
            &cache,
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
