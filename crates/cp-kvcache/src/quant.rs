//! INT8 KV quantization (§2.2's memory-bending techniques).
//!
//! The paper notes KV-cache quantization (2–4× memory reduction) as the
//! orthogonal lever to CP's KV *distribution*; both extend the servable
//! context. This module provides a per-token, per-head symmetric INT8
//! scheme: each `(token, head)` vector stores one `f32` scale plus
//! `head_dim` bytes — a 3.7–3.9× size reduction against f32 at typical
//! head dims — with the round-trip error bounded by `scale / 2` per
//! element. [`QuantizedKv`] is the contiguous block the ring wire
//! carries; the paged cache's INT8 plane
//! ([`crate::PagedKvCache::set_int8`]) stores the same codes and scales
//! page by page.

use cp_tensor::Tensor;

use crate::CacheError;

/// Quantizes one `(token, head)` vector symmetrically into `codes_out`,
/// returning the scale: `scale = max|x| / 127` (1.0 for an all-zero head),
/// `code = round(x / scale)` clamped to `±127`.
///
/// This is the **only** quantization arithmetic in the crate: both the
/// staging [`QuantizedKv::quantize`] path and the INT8 plane's page
/// writes go through it, so the two are bitwise interchangeable by
/// construction.
#[inline]
fn quantize_head_into(head: &[f32], codes_out: &mut [i8]) -> f32 {
    let max = head.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
    let scale = if max == 0.0 { 1.0 } else { max / 127.0 };
    for (c, &v) in codes_out.iter_mut().zip(head) {
        *c = (v / scale).round().clamp(-127.0, 127.0) as i8;
    }
    scale
}

/// Quantizes one token row, head by head, into `codes` and `scales`.
pub(crate) fn quantize_row(row: &[f32], head_dim: usize, codes: &mut [i8], scales: &mut [f32]) {
    let heads = row
        .chunks_exact(head_dim)
        .zip(codes.chunks_exact_mut(head_dim));
    for ((head, out), scale) in heads.zip(scales.iter_mut()) {
        *scale = quantize_head_into(head, out);
    }
}

/// One quantized KV entry set: INT8 codes plus per-(token, head) scales.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedKv {
    codes: Vec<i8>,
    scales: Vec<f32>,
    tokens: usize,
    n_heads: usize,
    head_dim: usize,
}

impl QuantizedKv {
    /// Quantizes a `[t, heads, head_dim]` tensor symmetrically per
    /// (token, head): `code = round(x / scale)`, `scale = max|x| / 127`.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::BadShape`] for non-rank-3 input.
    pub fn quantize(x: &Tensor) -> Result<Self, CacheError> {
        let s = x.shape();
        if s.len() != 3 {
            return Err(CacheError::BadShape {
                input: "kv",
                expected: vec![0, 0],
                actual: s.to_vec(),
            });
        }
        let (tokens, n_heads, head_dim) = (s[0], s[1], s[2]);
        let mut codes = vec![0i8; tokens * n_heads * head_dim];
        let mut scales = Vec::with_capacity(tokens * n_heads);
        for (head, codes_out) in x
            .as_slice()
            .chunks_exact(head_dim.max(1))
            .zip(codes.chunks_exact_mut(head_dim.max(1)))
        {
            scales.push(quantize_head_into(head, codes_out));
        }
        scales.resize(tokens * n_heads, 1.0); // zero-dim degenerate shapes
        Ok(QuantizedKv {
            codes,
            scales,
            tokens,
            n_heads,
            head_dim,
        })
    }

    /// Builds a block from raw parts (e.g. decoded off the wire).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::BadShape`] if `codes` / `scales` lengths
    /// disagree with `tokens * n_heads * head_dim` / `tokens * n_heads`.
    pub fn from_parts(
        codes: Vec<i8>,
        scales: Vec<f32>,
        tokens: usize,
        n_heads: usize,
        head_dim: usize,
    ) -> Result<Self, CacheError> {
        if codes.len() != tokens * n_heads * head_dim || scales.len() != tokens * n_heads {
            return Err(CacheError::BadShape {
                input: "kv",
                expected: vec![tokens, n_heads, head_dim],
                actual: vec![codes.len(), scales.len()],
            });
        }
        Ok(QuantizedKv {
            codes,
            scales,
            tokens,
            n_heads,
            head_dim,
        })
    }

    /// The INT8 codes, `[tokens * n_heads * head_dim]` in token-major order.
    pub fn codes(&self) -> &[i8] {
        &self.codes
    }

    /// The per-(token, head) scales, `[tokens * n_heads]`.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Number of heads per token.
    pub fn n_heads(&self) -> usize {
        self.n_heads
    }

    /// Per-head embedding dimension.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Splits into the first `mid` tokens and the rest. Codes and scales
    /// are copied verbatim, so `join`ing the halves back with
    /// [`QuantizedKv::extend`] round-trips **exactly** — the invariant the
    /// bidirectional ring's half-payload hops rely on.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::BadTruncate`] if `mid` exceeds the token count.
    pub fn split_at(&self, mid: usize) -> Result<(QuantizedKv, QuantizedKv), CacheError> {
        if mid > self.tokens {
            return Err(CacheError::BadTruncate {
                requested: mid,
                current: self.tokens,
            });
        }
        let row = self.n_heads * self.head_dim;
        let mk = |codes: Vec<i8>, scales: Vec<f32>, tokens: usize| QuantizedKv {
            codes,
            scales,
            tokens,
            n_heads: self.n_heads,
            head_dim: self.head_dim,
        };
        Ok((
            mk(
                self.codes[..mid * row].to_vec(),
                self.scales[..mid * self.n_heads].to_vec(),
                mid,
            ),
            mk(
                self.codes[mid * row..].to_vec(),
                self.scales[mid * self.n_heads..].to_vec(),
                self.tokens - mid,
            ),
        ))
    }

    /// Grows to `new_tokens` tokens by appending zero codes with scale 1.0 —
    /// rows that dequantize to exact zeros, matching the f32 ring's
    /// zero-padded `PAD` slots bit for bit. No-op if already that long.
    pub fn pad_to(&mut self, new_tokens: usize) {
        if new_tokens <= self.tokens {
            return;
        }
        let extra = new_tokens - self.tokens;
        self.codes
            .resize(self.codes.len() + extra * self.n_heads * self.head_dim, 0);
        self.scales
            .resize(self.scales.len() + extra * self.n_heads, 1.0);
        self.tokens = new_tokens;
    }

    /// Reconstructs the (lossy) `[t, heads, head_dim]` tensor.
    pub fn dequantize(&self) -> Tensor {
        let mut data = Vec::with_capacity(self.codes.len());
        for (i, &c) in self.codes.iter().enumerate() {
            let scale = self.scales[i / self.head_dim];
            data.push(c as f32 * scale);
        }
        Tensor::from_vec(data, &[self.tokens, self.n_heads, self.head_dim])
            .expect("sizes consistent by construction")
    }

    /// Number of quantized tokens.
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// Storage bytes of this entry set (codes + scales).
    pub fn storage_bytes(&self) -> usize {
        self.codes.len() + self.scales.len() * 4
    }

    /// Storage bytes the same data occupies unquantized (f32).
    pub fn f32_bytes(&self) -> usize {
        self.codes.len() * 4
    }

    /// Compression ratio vs f32 storage.
    pub fn compression_ratio(&self) -> f64 {
        if self.storage_bytes() == 0 {
            return 1.0;
        }
        self.f32_bytes() as f64 / self.storage_bytes() as f64
    }

    /// Worst-case absolute reconstruction error: `max(scale) / 2`
    /// (half a quantization step).
    pub fn error_bound(&self) -> f32 {
        self.scales.iter().fold(0.0f32, |a, &s| a.max(s)) / 2.0
    }

    /// Appends another quantized block of the same head geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::BadShape`] if head geometry differs.
    pub fn extend(&mut self, other: &QuantizedKv) -> Result<(), CacheError> {
        if other.n_heads != self.n_heads || other.head_dim != self.head_dim {
            return Err(CacheError::BadShape {
                input: "kv",
                expected: vec![self.n_heads, self.head_dim],
                actual: vec![other.n_heads, other.head_dim],
            });
        }
        self.codes.extend_from_slice(&other.codes);
        self.scales.extend_from_slice(&other.scales);
        self.tokens += other.tokens;
        Ok(())
    }

    /// Shrinks to the first `new_tokens` tokens, dropping the most recent
    /// codes and scales — the inverse of [`QuantizedKv::extend`], used to
    /// roll back speculative appends.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::BadTruncate`] if `new_tokens` exceeds the
    /// current token count.
    pub fn truncate(&mut self, new_tokens: usize) -> Result<(), CacheError> {
        if new_tokens > self.tokens {
            return Err(CacheError::BadTruncate {
                requested: new_tokens,
                current: self.tokens,
            });
        }
        self.codes
            .truncate(new_tokens * self.n_heads * self.head_dim);
        self.scales.truncate(new_tokens * self.n_heads);
        self.tokens = new_tokens;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KvCacheConfig, PagedKvCache, SeqId};
    use cp_tensor::DetRng;

    /// An empty cache with its INT8 plane on.
    fn int8_cache(config: KvCacheConfig) -> PagedKvCache {
        let mut cache = PagedKvCache::new(config);
        cache.set_int8(true);
        cache
    }

    /// A sequence's INT8 plane: quantized K, V and positions.
    fn plane(cache: &PagedKvCache, seq: SeqId) -> (QuantizedKv, QuantizedKv, Vec<usize>) {
        cache.gather_int8(seq).unwrap().expect("INT8 plane is on")
    }

    #[test]
    fn roundtrip_error_within_bound() {
        let x = DetRng::new(1).tensor(&[8, 2, 16]);
        let q = QuantizedKv::quantize(&x).unwrap();
        let back = q.dequantize();
        let err = x.max_abs_diff(&back).unwrap();
        assert!(
            err <= q.error_bound() + 1e-7,
            "{err} vs {}",
            q.error_bound()
        );
        // For inputs in [-1, 1): scale <= 1/127, so error < 0.004.
        assert!(err < 0.004, "{err}");
    }

    #[test]
    fn compression_ratio_near_4x() {
        let x = DetRng::new(2).tensor(&[10, 2, 64]);
        let q = QuantizedKv::quantize(&x).unwrap();
        // 64 bytes of codes + 4 bytes of scale per head vs 256 bytes f32.
        let ratio = q.compression_ratio();
        assert!((ratio - 256.0 / 68.0).abs() < 1e-9, "{ratio}");
        assert!(ratio > 3.7);
    }

    #[test]
    fn per_head_scaling_preserves_small_heads() {
        // A tiny-magnitude head next to a huge one keeps its precision:
        // per-head scales isolate them.
        let mut x = Tensor::zeros(&[1, 2, 4]);
        for d in 0..4 {
            x.set(&[0, 0, d], 1000.0 + d as f32).unwrap();
            x.set(&[0, 1, d], 0.001 * (d as f32 + 1.0)).unwrap();
        }
        let q = QuantizedKv::quantize(&x).unwrap();
        let back = q.dequantize();
        // The small head's relative error stays small.
        let small_err = (back.at(&[0, 1, 3]).unwrap() - 0.004).abs() / 0.004;
        assert!(small_err < 0.01, "{small_err}");
    }

    #[test]
    fn zero_input_quantizes_cleanly() {
        let x = Tensor::zeros(&[3, 1, 4]);
        let q = QuantizedKv::quantize(&x).unwrap();
        assert_eq!(q.dequantize(), x);
    }

    #[test]
    fn extend_concatenates() {
        let a = DetRng::new(3).tensor(&[2, 1, 4]);
        let b = DetRng::new(4).tensor(&[3, 1, 4]);
        let mut qa = QuantizedKv::quantize(&a).unwrap();
        let qb = QuantizedKv::quantize(&b).unwrap();
        qa.extend(&qb).unwrap();
        assert_eq!(qa.tokens(), 5);
        let joined = qa.dequantize();
        assert_eq!(joined.shape(), &[5, 1, 4]);
        // First two tokens still match a's quantization.
        let front = joined.slice_dim0(0..2).unwrap();
        assert!(front
            .approx_eq(&QuantizedKv::quantize(&a).unwrap().dequantize(), 1e-6)
            .unwrap());
        // Geometry mismatch rejected.
        let c = QuantizedKv::quantize(&DetRng::new(5).tensor(&[1, 2, 4])).unwrap();
        assert!(qa.extend(&c).is_err());
    }

    #[test]
    fn rejects_non_rank3() {
        assert!(QuantizedKv::quantize(&Tensor::zeros(&[2, 3])).is_err());
    }

    #[test]
    fn attention_on_dequantized_kv_stays_close() {
        // The end-to-end claim: attention over quantized-then-dequantized
        // KV approximates exact attention (the paper's "lossless" CP can
        // be stacked with lossy quantization orthogonally).
        use cp_attention::{naive_gqa_attention, AttentionParams, GqaShape};
        let params = AttentionParams::for_shape(GqaShape::new(4, 2, 16).unwrap());
        let mut rng = DetRng::new(6);
        let t = 24;
        let q = rng.tensor(&[t, 4, 16]);
        let k = rng.tensor(&[t, 2, 16]);
        let v = rng.tensor(&[t, 2, 16]);
        let pos: Vec<usize> = (0..t).collect();
        let exact = naive_gqa_attention(&q, &k, &v, &params, &pos, &pos).unwrap();
        let kq = QuantizedKv::quantize(&k).unwrap().dequantize();
        let vq = QuantizedKv::quantize(&v).unwrap().dequantize();
        let approx = naive_gqa_attention(&q, &kq, &vq, &params, &pos, &pos).unwrap();
        let err = exact.out.max_abs_diff(&approx.out).unwrap();
        assert!(err < 0.02, "attention error {err}");
    }

    #[test]
    fn truncate_is_extend_inverse() {
        let a = DetRng::new(7).tensor(&[3, 2, 4]);
        let b = DetRng::new(8).tensor(&[2, 2, 4]);
        let mut q = QuantizedKv::quantize(&a).unwrap();
        let qa = q.clone();
        q.extend(&QuantizedKv::quantize(&b).unwrap()).unwrap();
        q.truncate(3).unwrap();
        assert_eq!(q, qa);
        assert!(matches!(
            q.truncate(4),
            Err(CacheError::BadTruncate {
                requested: 4,
                current: 3
            })
        ));
        q.truncate(0).unwrap();
        assert_eq!(q.tokens(), 0);
        assert_eq!(q.storage_bytes(), 0);
    }

    #[test]
    fn paged_quant_store_matches_contiguous_extend() {
        let mut cache = int8_cache(KvCacheConfig::new(3, 2, 4));
        let seq = SeqId(5);
        cache.create_sequence(seq).unwrap();
        let mut rng = DetRng::new(9);
        let mut shadow_k: Option<QuantizedKv> = None;
        let mut shadow_v: Option<QuantizedKv> = None;
        let mut next = 0usize;
        for t in [4usize, 1, 7, 2] {
            let k = rng.tensor(&[t, 2, 4]);
            let v = rng.tensor(&[t, 2, 4]);
            let pos: Vec<usize> = (next..next + t).collect();
            next += t;
            cache.append(seq, &k, &v, &pos).unwrap();
            let qk = QuantizedKv::quantize(&k).unwrap();
            let qv = QuantizedKv::quantize(&v).unwrap();
            match (&mut shadow_k, &mut shadow_v) {
                (Some(sk), Some(sv)) => {
                    sk.extend(&qk).unwrap();
                    sv.extend(&qv).unwrap();
                }
                _ => {
                    shadow_k = Some(qk);
                    shadow_v = Some(qv);
                }
            }
        }
        let (gk, gv, gpos) = plane(&cache, seq);
        assert_eq!(gk, shadow_k.unwrap());
        assert_eq!(gv, shadow_v.unwrap());
        assert_eq!(gpos, (0..next).collect::<Vec<_>>());
        // The f32 values stay the exact record beside the plane.
        assert_eq!(cache.gather(seq).unwrap().2, gpos);
        assert_eq!(cache.seq_len(seq).unwrap(), 14);
        assert_eq!(cache.seq_pages(seq).unwrap(), 14usize.div_ceil(3));
    }

    #[test]
    fn freed_pages_are_reused_without_bleed() {
        let mut cache = int8_cache(KvCacheConfig::new(2, 1, 4).with_max_pages(3));
        let mut rng = DetRng::new(10);
        let a = SeqId(1);
        cache.create_sequence(a).unwrap();
        let ka = rng.tensor(&[5, 1, 4]);
        cache.append(a, &ka, &ka, &[0, 1, 2, 3, 4]).unwrap();
        assert_eq!(cache.stats().allocated_pages, 3);
        // Pool exhausted: a new sequence cannot grow, transactionally.
        let b = SeqId(2);
        cache.create_sequence(b).unwrap();
        let kb = rng.tensor(&[2, 1, 4]);
        assert!(matches!(
            cache.append(b, &kb, &kb, &[0, 1]),
            Err(CacheError::OutOfPages { .. })
        ));
        assert_eq!(cache.seq_len(b).unwrap(), 0);
        // Evicting A frees its pages; B then lands on the reused pages and
        // must gather exactly its own quantization — no stale A data.
        cache.free_sequence(a).unwrap();
        cache.append(b, &kb, &kb, &[0, 1]).unwrap();
        let (gk, _, gpos) = plane(&cache, b);
        assert_eq!(gk, QuantizedKv::quantize(&kb).unwrap());
        assert_eq!(gpos, vec![0, 1]);
        // The pool never grew past its cap through the churn.
        assert_eq!(cache.stats().free_pages + cache.stats().allocated_pages, 3);
    }

    #[test]
    fn quant_cache_truncate_releases_pages_and_keeps_prefix() {
        let mut cache = int8_cache(KvCacheConfig::new(2, 1, 3));
        let seq = SeqId(0);
        cache.create_sequence(seq).unwrap();
        let x = DetRng::new(11).tensor(&[6, 1, 3]);
        cache.append(seq, &x, &x, &[0, 1, 2, 3, 4, 5]).unwrap();
        cache.truncate(seq, 3).unwrap();
        assert_eq!(cache.stats().free_pages, 1);
        let (gk, _, gpos) = plane(&cache, seq);
        let mut shadow = QuantizedKv::quantize(&x).unwrap();
        shadow.truncate(3).unwrap();
        assert_eq!(gk, shadow);
        assert_eq!(gpos, vec![0, 1, 2]);
        // Regrowing after the rewind stays bitwise consistent.
        let y = DetRng::new(12).tensor(&[2, 1, 3]);
        cache.append(seq, &y, &y, &[3, 4]).unwrap();
        shadow.extend(&QuantizedKv::quantize(&y).unwrap()).unwrap();
        let (gk2, _, _) = plane(&cache, seq);
        assert_eq!(gk2, shadow);
    }

    #[test]
    fn split_at_then_extend_round_trips_exactly() {
        let x = DetRng::new(13).tensor(&[7, 2, 5]);
        let q = QuantizedKv::quantize(&x).unwrap();
        for mid in 0..=7 {
            let (mut lo, hi) = q.split_at(mid).unwrap();
            assert_eq!(lo.tokens(), mid);
            assert_eq!(hi.tokens(), 7 - mid);
            lo.extend(&hi).unwrap();
            assert_eq!(lo, q, "mid={mid}");
        }
        assert!(matches!(
            q.split_at(8),
            Err(CacheError::BadTruncate {
                requested: 8,
                current: 7
            })
        ));
    }

    #[test]
    fn pad_rows_dequantize_to_exact_zeros() {
        let x = DetRng::new(14).tensor(&[3, 1, 4]);
        let mut q = QuantizedKv::quantize(&x).unwrap();
        q.pad_to(2); // no-op: already longer
        assert_eq!(q.tokens(), 3);
        q.pad_to(5);
        assert_eq!(q.tokens(), 5);
        let back = q.dequantize();
        // The original rows are untouched, the pad rows are exact zeros —
        // matching the f32 ring's zero-padded PAD slots bit for bit.
        let orig = QuantizedKv::quantize(&x).unwrap().dequantize();
        assert_eq!(back.slice_dim0(0..3).unwrap(), orig);
        assert!(back.as_slice()[3 * 4..].iter().all(|&z| z == 0.0));
    }

    #[test]
    fn from_parts_validates_and_round_trips() {
        let x = DetRng::new(15).tensor(&[4, 2, 3]);
        let q = QuantizedKv::quantize(&x).unwrap();
        let rebuilt =
            QuantizedKv::from_parts(q.codes().to_vec(), q.scales().to_vec(), 4, 2, 3).unwrap();
        assert_eq!(rebuilt, q);
        assert!(QuantizedKv::from_parts(vec![0; 5], vec![1.0; 8], 4, 2, 3).is_err());
        assert!(QuantizedKv::from_parts(vec![0; 24], vec![1.0; 7], 4, 2, 3).is_err());
    }

    #[test]
    fn view_serves_same_rows_as_gather() {
        let mut cache = int8_cache(KvCacheConfig::new(3, 2, 4));
        let seq = SeqId(1);
        cache.create_sequence(seq).unwrap();
        let x = DetRng::new(16).tensor(&[7, 2, 4]); // ragged: 7 = 2*3 + 1
        cache.append(seq, &x, &x, &[0, 1, 2, 3, 4, 5, 6]).unwrap();
        let (gk, gv, gpos) = plane(&cache, seq);
        let view = cache.view(seq).unwrap();
        assert_eq!(view.len(), 7);
        assert!(!view.is_empty());
        assert_eq!(view.page_size(), 3);
        assert_eq!(view.positions(), &gpos[..]);
        // Every (token, head) vector served by the view's KvSource equals
        // the dequantized gather row for both K and V.
        let src = view.source();
        let dk = gk.dequantize();
        let dv = gv.dequantize();
        let mut scratch = vec![0.0f32; 4];
        for i in 0..7 {
            for h in 0..2 {
                let want_k: Vec<f32> = (0..4).map(|d| dk.at(&[i, h, d]).unwrap()).collect();
                assert_eq!(src.k_head(i, h, 4, &mut scratch).unwrap(), &want_k[..]);
                let want_v: Vec<f32> = (0..4).map(|d| dv.at(&[i, h, d]).unwrap()).collect();
                assert_eq!(src.v_head(i, h, 4, &mut scratch).unwrap(), &want_v[..]);
            }
        }
        // Empty sequence: a well-formed, zero-length view.
        let empty = SeqId(2);
        cache.create_sequence(empty).unwrap();
        let ev = cache.view(empty).unwrap();
        assert!(ev.is_empty());
        assert_eq!(ev.source().tokens(), 0);
    }

    #[test]
    fn append_rows_matches_gather_then_append() {
        // The sharding hot path: appending a non-contiguous row subset
        // directly must be bitwise identical to the old staging path
        // (gather_dim0 into a contiguous tensor, then append).
        let mut rng = DetRng::new(17);
        let k = rng.tensor(&[9, 2, 4]);
        let v = rng.tensor(&[9, 2, 4]);
        let rows = [0usize, 3, 4, 8];
        let positions: Vec<usize> = rows.to_vec();

        let mut direct = int8_cache(KvCacheConfig::new(3, 2, 4));
        direct.create_sequence(SeqId(0)).unwrap();
        direct
            .append_rows(SeqId(0), &k, &v, &rows, &positions)
            .unwrap();

        let mut staged = int8_cache(KvCacheConfig::new(3, 2, 4));
        staged.create_sequence(SeqId(0)).unwrap();
        let sk = k.gather_dim0(&rows).unwrap();
        let sv = v.gather_dim0(&rows).unwrap();
        staged.append(SeqId(0), &sk, &sv, &positions).unwrap();

        assert_eq!(plane(&direct, SeqId(0)), plane(&staged, SeqId(0)));

        // Out-of-range row index is a typed error, not a panic.
        assert!(matches!(
            direct.append_rows(SeqId(0), &k, &v, &[9], &[10]),
            Err(CacheError::BadShape { input: "rows", .. })
        ));
    }

    #[test]
    fn quant_cache_typed_errors() {
        let mut cache = int8_cache(KvCacheConfig::new(2, 2, 3));
        let seq = SeqId(3);
        assert!(matches!(
            cache.seq_len(seq),
            Err(CacheError::UnknownSequence { seq: 3 })
        ));
        cache.create_sequence(seq).unwrap();
        assert!(matches!(
            cache.create_sequence(seq),
            Err(CacheError::DuplicateSequence { seq: 3 })
        ));
        let wrong = Tensor::zeros(&[2, 1, 3]);
        let right = Tensor::zeros(&[2, 2, 3]);
        assert!(matches!(
            cache.append(seq, &wrong, &wrong, &[0, 1]),
            Err(CacheError::BadShape { .. })
        ));
        assert!(matches!(
            cache.append(seq, &right, &right, &[0]),
            Err(CacheError::PositionCountMismatch { .. })
        ));
        assert!(cache.append(seq, &right, &right, &[0, 1]).is_ok());
        assert!(matches!(
            cache.truncate(seq, 9),
            Err(CacheError::BadTruncate { .. })
        ));
        assert_eq!(cache.sequence_ids(), vec![seq]);
    }
}
