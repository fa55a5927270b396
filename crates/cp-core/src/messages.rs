//! Wire message types for the ring algorithms.

use cp_attention::PAD;
use cp_comm::Wire;
use cp_kvcache::{CacheError, QuantizedKv};
use cp_tensor::{Tensor, TensorError};

/// Bytes per element on our simulated wire (`f32`): the `e` of the paper's
/// cost formulas as this reproduction realises it.
pub const ELEM_BYTES: usize = 4;

/// One sequence's local inputs on one rank for a ring prefill.
///
/// `q`/`q_pos` are the new tokens this rank owns under load-balanced
/// sharding; `k`/`v`/`kv_pos` are the rank's full local KV shard (persistent
/// cache plus the new tokens), padded to the sequence's common ring length
/// with [`PAD`] positions so all ranks exchange equal-sized messages
/// (the §3.5.2 invariant).
#[derive(Debug, Clone, PartialEq)]
pub struct LocalSeq {
    /// Local queries, shape `[t_local, n_heads, head_dim]`.
    pub q: Tensor,
    /// Global positions of the local queries.
    pub q_pos: Vec<usize>,
    /// Local key shard (padded), shape `[l, n_kv_heads, head_dim]`.
    pub k: Tensor,
    /// Local value shard (padded), same shape as `k`.
    pub v: Tensor,
    /// Global positions of the KV entries; `PAD` marks padding slots.
    pub kv_pos: Vec<usize>,
}

impl LocalSeq {
    /// Number of real (non-padding) KV entries.
    pub fn real_kv(&self) -> usize {
        self.kv_pos.iter().filter(|&&p| p != PAD).count()
    }

    /// The local KV shard as a circulating block. Tensor clones are O(1)
    /// `Arc` handle copies: the block views this shard's buffers.
    pub fn kv(&self) -> SeqKv {
        SeqKv {
            k: self.k.clone(),
            v: self.v.clone(),
            pos: self.kv_pos.clone(),
        }
    }

    /// The local queries as a circulating block (O(1) handle clones).
    pub fn queries(&self) -> SeqQ {
        SeqQ {
            q: self.q.clone(),
            pos: self.q_pos.clone(),
        }
    }
}

/// One sequence's circulating KV block.
#[derive(Debug, Clone, PartialEq)]
pub struct SeqKv {
    /// Keys, `[l, n_kv_heads, head_dim]`.
    pub k: Tensor,
    /// Values, same shape.
    pub v: Tensor,
    /// Positions (`PAD` for padding).
    pub pos: Vec<usize>,
}

/// Row count of the first half when a block of `l` dim-0 rows splits in
/// two — for the bidirectional rings (forward half vs. reverse half) and
/// for depth-2 pipelined hops (chunk 1 vs. chunk 2). The first half takes
/// the extra row of an odd split; `l == 1` leaves the second half empty,
/// which every consumer handles (an empty tensor slice carries 0 wire
/// bytes and attends over nothing).
pub fn split_point(l: usize) -> usize {
    l.div_ceil(2)
}

impl SeqKv {
    /// Splits this block at the token midpoint into two O(1) views: rows
    /// `[0, ceil(l/2))` and `[ceil(l/2), l)`. Both halves keep viewing the
    /// original buffer, so [`Tensor::concat_dim0`] on the receiving side
    /// rejoins them zero-copy into a tensor bitwise identical to the
    /// original — the foundation of the bidirectional ring's bit-identity
    /// to the unidirectional one.
    ///
    /// # Errors
    ///
    /// Propagates [`TensorError`] from slicing (only on malformed shapes).
    pub fn split_halves(&self) -> Result<(SeqKv, SeqKv), TensorError> {
        let l = self.pos.len().min(self.k.dim0());
        let mid = split_point(l);
        Ok((
            SeqKv {
                k: self.k.slice_dim0(0..mid)?,
                v: self.v.slice_dim0(0..mid)?,
                pos: self.pos.get(..mid).unwrap_or(&self.pos).to_vec(),
            },
            SeqKv {
                k: self.k.slice_dim0(mid..l)?,
                v: self.v.slice_dim0(mid..l)?,
                pos: self.pos.get(mid..l).unwrap_or_default().to_vec(),
            },
        ))
    }

    /// Rejoins two halves produced by [`SeqKv::split_halves`] (possibly
    /// after a wire round-trip, which preserves buffer identity in this
    /// in-process fabric, so the rejoin is zero-copy).
    ///
    /// # Errors
    ///
    /// Propagates [`TensorError`] on shape mismatch between the halves.
    pub fn join_halves(a: &SeqKv, b: &SeqKv) -> Result<SeqKv, TensorError> {
        let mut pos = a.pos.clone();
        pos.extend_from_slice(&b.pos);
        Ok(SeqKv {
            k: Tensor::concat_dim0([&a.k, &b.k])?,
            v: Tensor::concat_dim0([&a.v, &b.v])?,
            pos,
        })
    }
}

/// One sequence's circulating KV block in the compressed (INT8) wire
/// format — the APB-style "compressed context block" the paper's §2.2
/// survey points at, applied to the ring's hop payloads.
///
/// Codes are 1 byte per element plus one `f32` scale per `(token, head)`,
/// so a hop carries `2·l·n_kv·(d + 4)` bytes instead of the f32 block's
/// `2·l·n_kv·d·4` — ~3.8× fewer at `d = 64`. Quantization happens **once**
/// at the origin rank; every subsequent hop relays the same codes
/// verbatim, so the reconstruction each rank attends is identical no
/// matter how many hops the block travelled.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantSeqKv {
    /// Quantized keys.
    pub k: QuantizedKv,
    /// Quantized values.
    pub v: QuantizedKv,
    /// Positions (`PAD` for padding).
    pub pos: Vec<usize>,
}

impl QuantSeqKv {
    /// Quantizes an f32 block into the wire format. `PAD` rows of a
    /// zero-padded block quantize to zero codes with scale 1.0, which
    /// dequantize back to exact zeros — padding survives the round trip
    /// bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates [`CacheError`] on malformed tensor shapes.
    pub fn quantize(block: &SeqKv) -> Result<QuantSeqKv, CacheError> {
        Ok(QuantSeqKv {
            k: QuantizedKv::quantize(&block.k)?,
            v: QuantizedKv::quantize(&block.v)?,
            pos: block.pos.clone(),
        })
    }

    /// Reconstructs the (lossy) f32 block.
    pub fn dequantize(&self) -> SeqKv {
        SeqKv {
            k: self.k.dequantize(),
            v: self.v.dequantize(),
            pos: self.pos.clone(),
        }
    }

    /// Number of tokens in the block.
    pub fn tokens(&self) -> usize {
        self.k.tokens()
    }

    /// Splits at the token midpoint (`split_point`) for the
    /// bidirectional ring's half-payload hops. Codes and scales are copied
    /// verbatim ([`QuantizedKv::split_at`]), so [`QuantSeqKv::join_halves`]
    /// round-trips **exactly** — the halves carry the same bits the
    /// unidirectional ring would have sent in one piece.
    ///
    /// # Errors
    ///
    /// Propagates [`CacheError`] (unreachable for a well-formed block).
    pub fn split_halves(&self) -> Result<(QuantSeqKv, QuantSeqKv), CacheError> {
        let l = self.pos.len().min(self.tokens());
        let mid = split_point(l);
        let (ka, kb) = self.k.split_at(mid)?;
        let (va, vb) = self.v.split_at(mid)?;
        Ok((
            QuantSeqKv {
                k: ka,
                v: va,
                pos: self.pos.get(..mid).unwrap_or(&self.pos).to_vec(),
            },
            QuantSeqKv {
                k: kb,
                v: vb,
                pos: self.pos.get(mid..).unwrap_or_default().to_vec(),
            },
        ))
    }

    /// Rejoins two halves produced by [`QuantSeqKv::split_halves`],
    /// bitwise equal to the original block.
    ///
    /// # Errors
    ///
    /// Propagates [`CacheError`] on head-geometry mismatch.
    pub fn join_halves(a: &QuantSeqKv, b: &QuantSeqKv) -> Result<QuantSeqKv, CacheError> {
        let mut k = a.k.clone();
        k.extend(&b.k)?;
        let mut v = a.v.clone();
        v.extend(&b.v)?;
        let mut pos = a.pos.clone();
        pos.extend_from_slice(&b.pos);
        Ok(QuantSeqKv { k, v, pos })
    }
}

/// One sequence's circulating Q block.
#[derive(Debug, Clone, PartialEq)]
pub struct SeqQ {
    /// Queries, `[t, n_heads, head_dim]`.
    pub q: Tensor,
    /// Global positions of the queries.
    pub pos: Vec<usize>,
}

impl SeqQ {
    /// Splits this block at the query-row midpoint into two O(1) views,
    /// as [`SeqKv::split_halves`]. Query rows are independent under the
    /// blocked kernel (each keeps its own online-softmax state), so
    /// attending the halves separately and concatenating the outputs is
    /// bitwise identical to attending the full block.
    ///
    /// # Errors
    ///
    /// Propagates [`TensorError`] from slicing (only on malformed shapes).
    pub fn split_halves(&self) -> Result<(SeqQ, SeqQ), TensorError> {
        let t = self.pos.len().min(self.q.dim0());
        let mid = split_point(t);
        Ok((
            SeqQ {
                q: self.q.slice_dim0(0..mid)?,
                pos: self.pos.get(..mid).unwrap_or(&self.pos).to_vec(),
            },
            SeqQ {
                q: self.q.slice_dim0(mid..t)?,
                pos: self.pos.get(mid..t).unwrap_or_default().to_vec(),
            },
        ))
    }
}

/// Splits a decode slot vector at the slot midpoint for the bidirectional
/// decode ring: the first `ceil(n/2)` slots travel forward, the rest
/// travel in reverse. Slots are independent queries, so computing the
/// halves separately and re-concatenating the per-slot outputs is bitwise
/// identical to the unidirectional pass.
pub fn split_slot_vec(
    slots: &[Option<DecodeSlot>],
) -> (Vec<Option<DecodeSlot>>, Vec<Option<DecodeSlot>>) {
    let mid = split_point(slots.len());
    let (a, b) = slots.split_at(mid.min(slots.len()));
    (a.to_vec(), b.to_vec())
}

/// One sequence's partial attention output travelling through the pass-Q
/// `All2All`.
#[derive(Debug, Clone, PartialEq)]
pub struct SeqOut {
    /// Partial outputs, `[t, n_heads, head_dim]`.
    pub out: Tensor,
    /// Per-(token, head) log-sum-exp, `[t, n_heads]`.
    pub lse: Tensor,
}

/// A decode slot: one query token of one batched sequence, or `None` for a
/// padding slot (batch padded to a multiple of the rank count).
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeSlot {
    /// Batch index of the sequence this token belongs to (`bid`).
    pub bid: usize,
    /// The query, `[1, n_heads, head_dim]`.
    pub q: Tensor,
    /// The query's global position.
    pub pos: usize,
}

/// The single message type circulating in any ring loop. A run uses one
/// variant family; receiving an unexpected variant is a protocol error.
#[derive(Debug, Clone, PartialEq)]
pub enum RingMsg {
    /// Pass-KV payload: per-sequence KV blocks (Algorithm 2).
    Kv {
        /// One block per fused sequence, in batch order.
        seqs: Vec<SeqKv>,
    },
    /// Compressed pass-KV payload: per-sequence INT8 KV blocks (the
    /// APB-style wire format). Same ring schedule as [`RingMsg::Kv`],
    /// ~4× fewer bytes per hop.
    KvQuant {
        /// One quantized block per fused sequence, in batch order.
        seqs: Vec<QuantSeqKv>,
    },
    /// Pass-Q payload: per-sequence Q blocks plus their origin rank
    /// (Algorithm 3).
    Q {
        /// Rank the queries were originally sharded to (`s`).
        origin: usize,
        /// One block per fused sequence, in batch order.
        seqs: Vec<SeqQ>,
    },
    /// All2All payload: partial outputs heading back to their source rank.
    Out {
        /// One partial output per fused sequence, in batch order.
        seqs: Vec<SeqOut>,
    },
    /// Decode pass-Q payload: query slots plus their origin rank
    /// (Algorithm 4).
    DecodeQ {
        /// Rank the slots were assigned to this step.
        origin: usize,
        /// `slots_per_rank` entries; `None` is batch padding.
        slots: Vec<Option<DecodeSlot>>,
    },
    /// All2All payload for decode partial outputs.
    DecodeOut {
        /// One partial output per slot (padding slots carry `None`).
        slots: Vec<Option<SeqOut>>,
    },
    /// Activation rows travelling through the Helix decode reshard
    /// collectives: the AllGather that replicates merged attention rows
    /// and the AllReduces that sum row-parallel projection partials.
    Act {
        /// Row-major activation block, `[rows, model_dim]`.
        x: Tensor,
    },
}

fn tensor_bytes(t: &Tensor) -> usize {
    t.numel() * ELEM_BYTES
}

impl RingMsg {
    /// The variant's name, used in protocol errors and as the message tag
    /// in declared communication plans ([`cp_comm::CommPlan`]).
    pub fn variant_name(&self) -> &'static str {
        match self {
            RingMsg::Kv { .. } => "Kv",
            RingMsg::KvQuant { .. } => "KvQuant",
            RingMsg::Q { .. } => "Q",
            RingMsg::Out { .. } => "Out",
            RingMsg::DecodeQ { .. } => "DecodeQ",
            RingMsg::DecodeOut { .. } => "DecodeOut",
            RingMsg::Act { .. } => "Act",
        }
    }
}

impl Wire for RingMsg {
    /// Semantic bytes: tensor payloads only. Position/bid metadata is not
    /// counted, matching the paper's cost model which accounts embedding
    /// bytes (Q/K/V/O and the LSE) and not framing.
    fn wire_bytes(&self) -> usize {
        match self {
            RingMsg::Kv { seqs } => seqs
                .iter()
                .map(|s| tensor_bytes(&s.k) + tensor_bytes(&s.v))
                .sum(),
            RingMsg::KvQuant { seqs } => seqs
                .iter()
                .map(|s| s.k.storage_bytes() + s.v.storage_bytes())
                .sum(),
            RingMsg::Q { seqs, .. } => seqs.iter().map(|s| tensor_bytes(&s.q)).sum(),
            RingMsg::Out { seqs } => seqs
                .iter()
                .map(|s| tensor_bytes(&s.out) + tensor_bytes(&s.lse))
                .sum(),
            RingMsg::DecodeQ { slots, .. } => {
                slots.iter().flatten().map(|s| tensor_bytes(&s.q)).sum()
            }
            RingMsg::DecodeOut { slots } => slots
                .iter()
                .flatten()
                .map(|s| tensor_bytes(&s.out) + tensor_bytes(&s.lse))
                .sum(),
            RingMsg::Act { x } => tensor_bytes(x),
        }
    }

    fn wire_variant(&self) -> &'static str {
        self.variant_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_message_bytes_count_k_and_v() {
        let msg = RingMsg::Kv {
            seqs: vec![SeqKv {
                k: Tensor::zeros(&[3, 2, 4]),
                v: Tensor::zeros(&[3, 2, 4]),
                pos: vec![0, 1, 2],
            }],
        };
        assert_eq!(msg.wire_bytes(), 2 * 3 * 2 * 4 * ELEM_BYTES);
    }

    #[test]
    fn q_message_bytes() {
        let msg = RingMsg::Q {
            origin: 1,
            seqs: vec![SeqQ {
                q: Tensor::zeros(&[5, 4, 2]),
                pos: vec![0; 5],
            }],
        };
        assert_eq!(msg.wire_bytes(), 5 * 4 * 2 * ELEM_BYTES);
    }

    #[test]
    fn out_message_includes_lse() {
        let msg = RingMsg::Out {
            seqs: vec![SeqOut {
                out: Tensor::zeros(&[2, 4, 8]),
                lse: Tensor::zeros(&[2, 4]),
            }],
        };
        assert_eq!(msg.wire_bytes(), (2 * 4 * 8 + 2 * 4) * ELEM_BYTES);
    }

    #[test]
    fn decode_padding_slots_are_free() {
        let slot = DecodeSlot {
            bid: 0,
            q: Tensor::zeros(&[1, 2, 4]),
            pos: 9,
        };
        let msg = RingMsg::DecodeQ {
            origin: 0,
            slots: vec![Some(slot), None],
        };
        assert_eq!(msg.wire_bytes(), 2 * 4 * ELEM_BYTES);
        let empty = RingMsg::DecodeOut {
            slots: vec![None, None],
        };
        assert_eq!(empty.wire_bytes(), 0);
    }

    #[test]
    fn quant_kv_message_bytes_are_codes_plus_scales() {
        // l=3 tokens, n_kv=2 heads, d=4: per block 3·2·4 code bytes +
        // 3·2 scales·4 B = 24 + 24; K and V both. The symbolic form the
        // plan builders use: 2·l·n_kv·(d + 4).
        let block = SeqKv {
            k: Tensor::zeros(&[3, 2, 4]),
            v: Tensor::zeros(&[3, 2, 4]),
            pos: vec![0, 1, 2],
        };
        let q = QuantSeqKv::quantize(&block).unwrap();
        let msg = RingMsg::KvQuant { seqs: vec![q] };
        assert_eq!(msg.wire_bytes(), 2 * 3 * 2 * (4 + 4));
        assert_eq!(msg.wire_variant(), "KvQuant");
        // vs f32: 2·l·n_kv·d·4 bytes.
        let f32_bytes = 2 * 3 * 2 * 4 * ELEM_BYTES;
        assert!(msg.wire_bytes() < f32_bytes);
    }

    #[test]
    fn quant_kv_split_halves_round_trips_exactly_and_halves_bytes() {
        let mut rng = cp_tensor::DetRng::new(5);
        let block = SeqKv {
            k: rng.tensor(&[5, 2, 4]),
            v: rng.tensor(&[5, 2, 4]),
            pos: vec![0, 1, 2, 3, PAD],
        };
        let q = QuantSeqKv::quantize(&block).unwrap();
        let (a, b) = q.split_halves().unwrap();
        assert_eq!(a.tokens(), 3);
        assert_eq!(b.tokens(), 2);
        // The halves carry exactly the block's bytes between them, and
        // rejoin bitwise.
        let whole = RingMsg::KvQuant {
            seqs: vec![q.clone()],
        }
        .wire_bytes();
        let half_a = RingMsg::KvQuant {
            seqs: vec![a.clone()],
        }
        .wire_bytes();
        let half_b = RingMsg::KvQuant {
            seqs: vec![b.clone()],
        }
        .wire_bytes();
        assert_eq!(half_a + half_b, whole);
        assert_eq!(QuantSeqKv::join_halves(&a, &b).unwrap(), q);
    }

    #[test]
    fn quant_pad_rows_dequantize_to_exact_zeros() {
        // A zero-padded f32 block quantizes to a block whose PAD rows
        // dequantize back to exact zeros — the ring's equal-size-payload
        // invariant survives compression bit for bit.
        let mut rng = cp_tensor::DetRng::new(6);
        let real = rng.tensor(&[2, 1, 4]);
        let mut k = Tensor::zeros(&[4, 1, 4]);
        for i in 0..2 {
            for d in 0..4 {
                k.set(&[i, 0, d], real.at(&[i, 0, d]).unwrap()).unwrap();
            }
        }
        let block = SeqKv {
            k: k.clone(),
            v: k,
            pos: vec![0, 1, PAD, PAD],
        };
        let deq = QuantSeqKv::quantize(&block).unwrap().dequantize();
        assert!(deq.k.as_slice()[2 * 4..].iter().all(|&z| z == 0.0));
        assert_eq!(deq.pos, block.pos);
    }

    #[test]
    fn local_seq_counts_real_kv() {
        let ls = LocalSeq {
            q: Tensor::zeros(&[1, 2, 2]),
            q_pos: vec![3],
            k: Tensor::zeros(&[4, 1, 2]),
            v: Tensor::zeros(&[4, 1, 2]),
            kv_pos: vec![0, 1, PAD, PAD],
        };
        assert_eq!(ls.real_kv(), 2);
    }
}
