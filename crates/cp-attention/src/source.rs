//! Borrowed KV storage: contiguous tensors, paged fragments, or
//! INT8-quantized pages.
//!
//! The kernels' arithmetic depends only on the *row order* of K/V and the
//! online-softmax block boundaries, not on where the rows live. `KvSource`
//! abstracts row storage so a paged KV cache can be attended over in place —
//! no `gather()` materialization — while staying bit-identical to the
//! contiguous path: for the same `block_size`, every `(query, head)` pair
//! sees the same rows in the same order with the same f32 operations.
//!
//! The `QuantPaged` variant extends this to INT8 pages: the kernel
//! dequantizes one `(token, head)` vector at a time while it packs a KV
//! block into its panels (`code as f32 * scale`, exactly the storage
//! layer's `dequantize`), so attending a quantized source is
//! **bit-identical** to attending the dequantized tensors — the only error
//! versus f32 storage is the quantization error itself, bounded by
//! `max(scale) / 2` per element.

use cp_tensor::tile::NR;
use cp_tensor::Tensor;

use crate::AttentionError;

/// Borrowed KV rows consumed by [`crate::blocked_gqa_attention_source`].
///
/// Rows are `[n_kv_heads * head_dim]` slices indexed by token. The
/// `Contiguous` variant wraps the classic `[t, n_kv_heads, head_dim]`
/// tensors; the `Paged` variant walks fixed-size page fragments (a
/// vLLM-style pool) where token `i` lives in page `i / page_size` at slot
/// `i % page_size`. Every page is full except possibly the last, which is
/// trimmed to the tokens it actually holds. The `QuantPaged` variant holds
/// the same page layout as INT8 codes plus per-(token, head) scales; its
/// rows are dequantized per head into the kernel's block panels (or, through
/// [`KvSource::k_head`] / [`KvSource::v_head`], a caller's scratch), never
/// as a full f32 copy.
#[derive(Debug, Clone)]
pub struct KvSource<'a> {
    inner: Inner<'a>,
}

#[derive(Debug, Clone)]
enum Inner<'a> {
    Contiguous {
        k: &'a Tensor,
        v: &'a Tensor,
    },
    Paged {
        k_pages: &'a [&'a [f32]],
        v_pages: &'a [&'a [f32]],
        page_size: usize,
        row_numel: usize,
        tokens: usize,
    },
    QuantPaged {
        k_codes: &'a [&'a [i8]],
        k_scales: &'a [&'a [f32]],
        v_codes: &'a [&'a [i8]],
        v_scales: &'a [&'a [f32]],
        page_size: usize,
        n_heads: usize,
        head_dim: usize,
        tokens: usize,
    },
}

impl<'a> KvSource<'a> {
    /// Wraps contiguous `[t, n_kv_heads, head_dim]` K/V tensors.
    ///
    /// Shape validation happens in the consuming kernel (via
    /// `KvSource::check`), exactly as for the tensor entry points.
    pub fn contiguous(k: &'a Tensor, v: &'a Tensor) -> Self {
        KvSource {
            inner: Inner::Contiguous { k, v },
        }
    }

    /// Wraps paged K/V fragments.
    ///
    /// `k_pages[p]` / `v_pages[p]` hold rows `[p * page_size, ...)` as flat
    /// `row_numel`-strided slices; all pages must be full (`page_size`
    /// rows) except the last, which holds the remainder of `tokens`.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::InvalidShape`] if the page geometry is
    /// inconsistent (zero page size or row size, mismatched page counts,
    /// a page whose length disagrees with its expected row count).
    pub fn paged(
        k_pages: &'a [&'a [f32]],
        v_pages: &'a [&'a [f32]],
        page_size: usize,
        row_numel: usize,
        tokens: usize,
    ) -> Result<Self, AttentionError> {
        if page_size == 0 || row_numel == 0 {
            return Err(AttentionError::InvalidShape {
                reason: format!(
                    "paged KV needs positive geometry (page_size={page_size}, row_numel={row_numel})"
                ),
            });
        }
        if k_pages.len() != v_pages.len() {
            return Err(AttentionError::InvalidShape {
                reason: format!(
                    "paged KV has {} K pages but {} V pages",
                    k_pages.len(),
                    v_pages.len()
                ),
            });
        }
        if k_pages.len() != tokens.div_ceil(page_size) {
            return Err(AttentionError::InvalidShape {
                reason: format!(
                    "paged KV has {} pages for {} tokens at page_size {}",
                    k_pages.len(),
                    tokens,
                    page_size
                ),
            });
        }
        for (p, (kp, vp)) in k_pages.iter().zip(v_pages).enumerate() {
            let rows = (tokens - p * page_size).min(page_size);
            if kp.len() != rows * row_numel || vp.len() != rows * row_numel {
                return Err(AttentionError::InvalidShape {
                    reason: format!(
                        "page {p} holds {}/{} K/V elements, expected {} ({} rows of {})",
                        kp.len(),
                        vp.len(),
                        rows * row_numel,
                        rows,
                        row_numel
                    ),
                });
            }
        }
        Ok(KvSource {
            inner: Inner::Paged {
                k_pages,
                v_pages,
                page_size,
                row_numel,
                tokens,
            },
        })
    }

    /// Wraps INT8-quantized paged K/V fragments.
    ///
    /// `*_codes[p]` hold rows `[p * page_size, ...)` as flat
    /// `n_heads * head_dim`-strided INT8 slices; `*_scales[p]` hold the
    /// matching per-(token, head) scales, `n_heads`-strided. All pages must
    /// be full except the last, which holds the remainder of `tokens`.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::InvalidShape`] if the page geometry is
    /// inconsistent (zero dimensions, mismatched page counts, or a page
    /// whose code/scale length disagrees with its expected row count).
    #[allow(clippy::too_many_arguments)] // four page lists + full geometry
    pub fn quant_paged(
        k_codes: &'a [&'a [i8]],
        k_scales: &'a [&'a [f32]],
        v_codes: &'a [&'a [i8]],
        v_scales: &'a [&'a [f32]],
        page_size: usize,
        n_heads: usize,
        head_dim: usize,
        tokens: usize,
    ) -> Result<Self, AttentionError> {
        if page_size == 0 || n_heads == 0 || head_dim == 0 {
            return Err(AttentionError::InvalidShape {
                reason: format!(
                    "quantized paged KV needs positive geometry \
                     (page_size={page_size}, n_heads={n_heads}, head_dim={head_dim})"
                ),
            });
        }
        let n_pages = tokens.div_ceil(page_size);
        for (name, len) in [
            ("k_codes", k_codes.len()),
            ("k_scales", k_scales.len()),
            ("v_codes", v_codes.len()),
            ("v_scales", v_scales.len()),
        ] {
            if len != n_pages {
                return Err(AttentionError::InvalidShape {
                    reason: format!(
                        "quantized paged KV has {len} {name} pages for {tokens} tokens \
                         at page_size {page_size} (expected {n_pages})"
                    ),
                });
            }
        }
        let row_numel = n_heads * head_dim;
        let pages = k_codes.iter().zip(k_scales).zip(v_codes).zip(v_scales);
        for (p, (((kc, ks), vc), vs)) in pages.enumerate() {
            let rows = (tokens - p * page_size).min(page_size);
            for (name, len, expected) in [
                ("k_codes", kc.len(), rows * row_numel),
                ("k_scales", ks.len(), rows * n_heads),
                ("v_codes", vc.len(), rows * row_numel),
                ("v_scales", vs.len(), rows * n_heads),
            ] {
                if len != expected {
                    return Err(AttentionError::InvalidShape {
                        reason: format!(
                            "quantized page {p} holds {len} {name} elements, \
                             expected {expected} ({rows} rows)"
                        ),
                    });
                }
            }
        }
        Ok(KvSource {
            inner: Inner::QuantPaged {
                k_codes,
                k_scales,
                v_codes,
                v_scales,
                page_size,
                n_heads,
                head_dim,
                tokens,
            },
        })
    }

    /// Number of KV tokens (rows).
    pub fn tokens(&self) -> usize {
        match &self.inner {
            Inner::Contiguous { k, .. } => k.dim0(),
            Inner::Paged { tokens, .. } => *tokens,
            Inner::QuantPaged { tokens, .. } => *tokens,
        }
    }

    /// Elements per row (`n_kv_heads * head_dim` for a well-formed source).
    pub fn row_numel(&self) -> usize {
        match &self.inner {
            Inner::Contiguous { k, .. } => k.row_numel(),
            Inner::Paged { row_numel, .. } => *row_numel,
            Inner::QuantPaged {
                n_heads, head_dim, ..
            } => n_heads * head_dim,
        }
    }

    /// For paged sources, the page size — the natural online-softmax block
    /// granularity. `None` for contiguous storage (any block size walks
    /// rows equally well).
    pub fn page_size(&self) -> Option<usize> {
        match &self.inner {
            Inner::Contiguous { .. } => None,
            Inner::Paged { page_size, .. } | Inner::QuantPaged { page_size, .. } => {
                Some(*page_size)
            }
        }
    }

    /// Whether rows must be materialized through [`KvSource::k_head`] /
    /// [`KvSource::v_head`] (INT8 storage has no borrowed f32 rows).
    pub fn is_quantized(&self) -> bool {
        matches!(&self.inner, Inner::QuantPaged { .. })
    }

    /// Row `i` of K, or `None` out of bounds. O(1) for both f32 variants.
    /// Always `None` for quantized sources, which have no borrowed f32
    /// rows — use [`KvSource::k_head`].
    #[inline]
    pub fn k_row(&self, i: usize) -> Option<&'a [f32]> {
        match &self.inner {
            Inner::Contiguous { k, .. } => (i < k.dim0()).then(|| k.row(i)),
            Inner::Paged {
                k_pages,
                page_size,
                row_numel,
                ..
            } => page_row(k_pages, *page_size, *row_numel, i),
            Inner::QuantPaged { .. } => None,
        }
    }

    /// Row `i` of V, or `None` out of bounds. O(1) for both f32 variants.
    /// Always `None` for quantized sources — use [`KvSource::v_head`].
    #[inline]
    pub fn v_row(&self, i: usize) -> Option<&'a [f32]> {
        match &self.inner {
            Inner::Contiguous { v, .. } => (i < v.dim0()).then(|| v.row(i)),
            Inner::Paged {
                v_pages,
                page_size,
                row_numel,
                ..
            } => page_row(v_pages, *page_size, *row_numel, i),
            Inner::QuantPaged { .. } => None,
        }
    }

    /// KV head `kvh` of K row `i` as a `head_dim`-length slice, or `None`
    /// out of bounds.
    ///
    /// For f32 storage this is the direct subslice (zero-copy, identical to
    /// `k_row(i)` + head slicing). For quantized storage the head vector is
    /// dequantized into `scratch` (`code as f32 * scale`) and returned from
    /// there; `scratch` must hold at least `head_dim` elements.
    #[inline]
    pub fn k_head<'s>(
        &'s self,
        i: usize,
        kvh: usize,
        dh: usize,
        scratch: &'s mut [f32],
    ) -> Option<&'s [f32]> {
        self.head(Side::K, i, kvh, dh)?.into_f32(scratch)
    }

    /// KV head `kvh` of V row `i`; the V-side analogue of
    /// [`KvSource::k_head`].
    #[inline]
    pub fn v_head<'s>(
        &'s self,
        i: usize,
        kvh: usize,
        dh: usize,
        scratch: &'s mut [f32],
    ) -> Option<&'s [f32]> {
        self.head(Side::V, i, kvh, dh)?.into_f32(scratch)
    }

    /// Packs KV head `kvh` of K rows `start .. start + keys` into
    /// [`NR`]-wide panels, k-major: key `j` of the block lands in panel
    /// `j / NR`, lane `j % NR`, element `d` at `panel[d * NR + lane]`.
    /// Lanes past `keys` in the last panel keep whatever `panels` held;
    /// the kernel discards their dot products.
    pub(crate) fn pack_k(
        &self,
        start: usize,
        keys: usize,
        kvh: usize,
        dh: usize,
        panels: &mut [f32],
    ) {
        let mut rows = start..start + keys;
        for panel in panels.chunks_exact_mut(dh * NR) {
            for (lane, i) in rows.by_ref().take(NR).enumerate() {
                if let Some(head) = self.head(Side::K, i, kvh, dh) {
                    head.write_to(panel.iter_mut().skip(lane).step_by(NR));
                }
            }
        }
    }

    /// Packs KV head `kvh` of V rows `start .. start + keys` contiguously,
    /// one `dh`-long row per key.
    pub(crate) fn pack_v(
        &self,
        start: usize,
        keys: usize,
        kvh: usize,
        dh: usize,
        rows: &mut [f32],
    ) {
        for (i, row) in (start..start + keys).zip(rows.chunks_exact_mut(dh)) {
            if let Some(head) = self.head(Side::V, i, kvh, dh) {
                head.write_to(row.iter_mut());
            }
        }
    }

    /// KV head `kvh` of row `i` on one side of the cache, as stored.
    #[inline]
    fn head(&self, side: Side, i: usize, kvh: usize, dh: usize) -> Option<Head<'a>> {
        if let Inner::QuantPaged {
            k_codes,
            k_scales,
            v_codes,
            v_scales,
            page_size,
            n_heads,
            head_dim,
            tokens,
        } = &self.inner
        {
            let (codes, scales) = match side {
                Side::K => (k_codes, k_scales),
                Side::V => (v_codes, v_scales),
            };
            return quant_head(
                codes, scales, *page_size, *n_heads, *head_dim, *tokens, i, kvh,
            );
        }
        let row = match side {
            Side::K => self.k_row(i),
            Side::V => self.v_row(i),
        }?;
        row.get(kvh * dh..(kvh + 1) * dh).map(Head::F32)
    }

    /// Validates this source against a head configuration, mirroring the
    /// tensor kernels' `check_kv` calls: K and V must both be
    /// `[t, n_kv_heads, head_dim]` with equal token counts.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::BadTensorShape`] on mismatch.
    pub(crate) fn check(&self, shape: &crate::GqaShape) -> Result<usize, AttentionError> {
        match &self.inner {
            Inner::Contiguous { k, v } => {
                let t_k = shape.check_kv(k, "k")?;
                let t_v = shape.check_kv(v, "v")?;
                if t_k != t_v {
                    return Err(AttentionError::BadTensorShape {
                        input: "v",
                        expected: vec![t_k, shape.n_kv_heads(), shape.head_dim()],
                        actual: v.shape().to_vec(),
                    });
                }
                Ok(t_k)
            }
            Inner::Paged {
                row_numel, tokens, ..
            } => {
                let expected = shape.n_kv_heads() * shape.head_dim();
                if *row_numel != expected {
                    return Err(AttentionError::BadTensorShape {
                        input: "k",
                        expected: vec![*tokens, shape.n_kv_heads(), shape.head_dim()],
                        actual: vec![*tokens, *row_numel],
                    });
                }
                Ok(*tokens)
            }
            Inner::QuantPaged {
                n_heads,
                head_dim,
                tokens,
                ..
            } => {
                if *n_heads != shape.n_kv_heads() || *head_dim != shape.head_dim() {
                    return Err(AttentionError::BadTensorShape {
                        input: "k",
                        expected: vec![*tokens, shape.n_kv_heads(), shape.head_dim()],
                        actual: vec![*tokens, *n_heads, *head_dim],
                    });
                }
                Ok(*tokens)
            }
        }
    }
}

/// Token row `i` inside a page list: page `i / page_size`, slot
/// `i % page_size`. Out-of-range lookups fold to `None` (the kernels treat
/// them as masked, same as an out-of-range head slice).
#[inline]
fn page_row<'a>(
    pages: &[&'a [f32]],
    page_size: usize,
    row_numel: usize,
    i: usize,
) -> Option<&'a [f32]> {
    let slot = i % page_size;
    pages
        .get(i / page_size)
        .and_then(|p| p.get(slot * row_numel..(slot + 1) * row_numel))
}

/// Which half of the cache a lookup reads.
#[derive(Clone, Copy)]
enum Side {
    K,
    V,
}

/// One `(token, KV head)` vector as stored.
enum Head<'a> {
    F32(&'a [f32]),
    Int8 { codes: &'a [i8], scale: f32 },
}

impl<'a> Head<'a> {
    /// Writes the vector's f32 values through `dst`: a copy for f32
    /// storage, `code as f32 * scale` for INT8 — element for element the
    /// storage layer's `dequantize`, so the kernels see exactly the values
    /// a materialized dequantized tensor would hold.
    #[inline]
    fn write_to<'d>(&self, dst: impl Iterator<Item = &'d mut f32>) {
        match *self {
            Head::F32(xs) => dst.zip(xs).for_each(|(d, &x)| *d = x),
            Head::Int8 { codes, scale } => dst.zip(codes).for_each(|(d, &c)| *d = c as f32 * scale),
        }
    }

    /// The vector as an f32 slice: itself for f32 storage, dequantized
    /// into `scratch` for INT8 (`None` if `scratch` is too short).
    #[inline]
    fn into_f32<'s>(self, scratch: &'s mut [f32]) -> Option<&'s [f32]>
    where
        'a: 's,
    {
        match self {
            Head::F32(xs) => Some(xs),
            Head::Int8 { codes, .. } => {
                let out = scratch.get_mut(..codes.len())?;
                self.write_to(out.iter_mut());
                Some(out)
            }
        }
    }
}

/// Head `h` of token row `i` inside quantized page lists. Out-of-range
/// lookups fold to `None`.
#[inline]
#[allow(clippy::too_many_arguments)] // page geometry + lookup coordinates
fn quant_head<'a>(
    codes: &[&'a [i8]],
    scales: &[&'a [f32]],
    page_size: usize,
    n_heads: usize,
    head_dim: usize,
    tokens: usize,
    i: usize,
    h: usize,
) -> Option<Head<'a>> {
    if i >= tokens || h >= n_heads {
        return None;
    }
    let slot = i % page_size;
    let row_numel = n_heads * head_dim;
    let codes = codes
        .get(i / page_size)?
        .get(slot * row_numel + h * head_dim..slot * row_numel + (h + 1) * head_dim)?;
    let &scale = scales.get(i / page_size)?.get(slot * n_heads + h)?;
    Some(Head::Int8 { codes, scale })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_rows_match_tensor_rows() {
        let k = Tensor::from_fn(&[4, 2, 3], |i| i as f32);
        let v = k.map(|x| -x);
        let src = KvSource::contiguous(&k, &v);
        assert_eq!(src.tokens(), 4);
        assert_eq!(src.row_numel(), 6);
        assert_eq!(src.page_size(), None);
        for i in 0..4 {
            assert_eq!(src.k_row(i).unwrap(), k.row(i));
            assert_eq!(src.v_row(i).unwrap(), v.row(i));
        }
        assert!(src.k_row(4).is_none());
        assert!(src.v_row(9).is_none());
    }

    #[test]
    fn paged_rows_cross_page_boundaries() {
        // 5 tokens of row_numel 2 in pages of 2: pages [2, 2, 1 rows].
        let all: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let k_pages: Vec<&[f32]> = vec![&all[0..4], &all[4..8], &all[8..10]];
        let v_pages = k_pages.clone();
        let src = KvSource::paged(&k_pages, &v_pages, 2, 2, 5).unwrap();
        assert_eq!(src.tokens(), 5);
        assert_eq!(src.page_size(), Some(2));
        for i in 0..5 {
            let expect = [(i * 2) as f32, (i * 2 + 1) as f32];
            assert_eq!(src.k_row(i).unwrap(), &expect);
            assert_eq!(src.v_row(i).unwrap(), &expect);
        }
        assert!(src.k_row(5).is_none());
    }

    #[test]
    fn paged_rejects_bad_geometry() {
        let page: &[f32] = &[0.0; 4];
        let pages: Vec<&[f32]> = vec![page];
        assert!(KvSource::paged(&pages, &pages, 0, 2, 2).is_err());
        assert!(KvSource::paged(&pages, &pages, 2, 0, 2).is_err());
        // Page count disagrees with token count.
        assert!(KvSource::paged(&pages, &pages, 2, 2, 4).is_err());
        // Short last page.
        let short: Vec<&[f32]> = vec![&page[0..2]];
        assert!(KvSource::paged(&short, &short, 2, 2, 2).is_err());
        // K/V page count mismatch.
        let two: Vec<&[f32]> = vec![&page[0..4], &page[0..4]];
        assert!(KvSource::paged(&pages, &two, 2, 2, 2).is_err());
    }

    #[test]
    fn empty_source_is_valid() {
        let pages: Vec<&[f32]> = Vec::new();
        let src = KvSource::paged(&pages, &pages, 4, 2, 0).unwrap();
        assert_eq!(src.tokens(), 0);
        assert!(src.k_row(0).is_none());
    }

    /// Per-(token, head) symmetric INT8 quantization, the storage layer's
    /// scheme: `scale = max|x| / 127` (zero rows get scale 1.0).
    fn quantize(data: &[f32], tokens: usize, nh: usize, dh: usize) -> (Vec<i8>, Vec<f32>) {
        let mut codes = Vec::new();
        let mut scales = Vec::new();
        for t in 0..tokens {
            for h in 0..nh {
                let head = &data[(t * nh + h) * dh..(t * nh + h + 1) * dh];
                let max = head.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
                let scale = if max == 0.0 { 1.0 } else { max / 127.0 };
                scales.push(scale);
                for &v in head {
                    codes.push((v / scale).round().clamp(-127.0, 127.0) as i8);
                }
            }
        }
        (codes, scales)
    }

    fn page_up<T>(flat: &[T], per_row: usize, ps: usize, tokens: usize) -> Vec<&[T]> {
        (0..tokens.div_ceil(ps))
            .map(|p| {
                let rows = (tokens - p * ps).min(ps);
                &flat[p * ps * per_row..p * ps * per_row + rows * per_row]
            })
            .collect()
    }

    #[test]
    fn quant_heads_match_dequantized_values_exactly() {
        // 5 tokens, 2 heads, dim 3, pages of 2 (ragged last page).
        let (tokens, nh, dh, ps) = (5usize, 2usize, 3usize, 2usize);
        let data: Vec<f32> = (0..tokens * nh * dh)
            .map(|i| (i as f32) * 0.17 - 2.0)
            .collect();
        let vdata: Vec<f32> = data.iter().map(|x| -x * 0.5).collect();
        let (kc, ks) = quantize(&data, tokens, nh, dh);
        let (vc, vs) = quantize(&vdata, tokens, nh, dh);
        let kcp = page_up(&kc, nh * dh, ps, tokens);
        let ksp = page_up(&ks, nh, ps, tokens);
        let vcp = page_up(&vc, nh * dh, ps, tokens);
        let vsp = page_up(&vs, nh, ps, tokens);
        let src = KvSource::quant_paged(&kcp, &ksp, &vcp, &vsp, ps, nh, dh, tokens).unwrap();
        assert_eq!(src.tokens(), tokens);
        assert_eq!(src.row_numel(), nh * dh);
        assert_eq!(src.page_size(), Some(ps));
        assert!(src.is_quantized());
        assert!(src.k_row(0).is_none(), "quant sources expose no f32 rows");
        assert!(src.v_row(0).is_none());
        let mut scratch = vec![0.0f32; dh];
        for i in 0..tokens {
            for h in 0..nh {
                let got: Vec<f32> = src.k_head(i, h, dh, &mut scratch).unwrap().to_vec();
                let expect: Vec<f32> = (0..dh)
                    .map(|d| kc[(i * nh + h) * dh + d] as f32 * ks[i * nh + h])
                    .collect();
                assert_eq!(got, expect, "k token {i} head {h}");
                let got: Vec<f32> = src.v_head(i, h, dh, &mut scratch).unwrap().to_vec();
                let expect: Vec<f32> = (0..dh)
                    .map(|d| vc[(i * nh + h) * dh + d] as f32 * vs[i * nh + h])
                    .collect();
                assert_eq!(got, expect, "v token {i} head {h}");
            }
        }
        assert!(src.k_head(tokens, 0, dh, &mut scratch).is_none());
        assert!(src.v_head(0, nh, dh, &mut scratch).is_none());
    }

    #[test]
    fn f32_sources_serve_heads_as_direct_subslices() {
        let k = Tensor::from_fn(&[3, 2, 4], |i| i as f32);
        let v = k.map(|x| x + 100.0);
        let src = KvSource::contiguous(&k, &v);
        assert!(!src.is_quantized());
        let mut scratch = vec![0.0f32; 4];
        for i in 0..3 {
            for h in 0..2 {
                assert_eq!(
                    src.k_head(i, h, 4, &mut scratch).unwrap(),
                    &k.row(i)[h * 4..(h + 1) * 4]
                );
                assert_eq!(
                    src.v_head(i, h, 4, &mut scratch).unwrap(),
                    &v.row(i)[h * 4..(h + 1) * 4]
                );
            }
        }
        // The scratch is untouched on the f32 path.
        assert!(scratch.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn quant_paged_rejects_bad_geometry() {
        let codes: Vec<i8> = vec![0; 8];
        let scales: Vec<f32> = vec![1.0; 4];
        let cp: Vec<&[i8]> = vec![&codes[..]];
        let sp: Vec<&[f32]> = vec![&scales[..]];
        // Valid: 2 tokens, 2 heads, dim 2, page_size 2.
        assert!(KvSource::quant_paged(&cp, &sp, &cp, &sp, 2, 2, 2, 2).is_ok());
        // Zero geometry.
        assert!(KvSource::quant_paged(&cp, &sp, &cp, &sp, 0, 2, 2, 2).is_err());
        assert!(KvSource::quant_paged(&cp, &sp, &cp, &sp, 2, 0, 2, 2).is_err());
        assert!(KvSource::quant_paged(&cp, &sp, &cp, &sp, 2, 2, 0, 2).is_err());
        // Page count disagrees with token count.
        assert!(KvSource::quant_paged(&cp, &sp, &cp, &sp, 2, 2, 2, 4).is_err());
        // Short scale page.
        let short_s: Vec<&[f32]> = vec![&scales[..3]];
        assert!(KvSource::quant_paged(&cp, &short_s, &cp, &sp, 2, 2, 2, 2).is_err());
        // Short code page.
        let short_c: Vec<&[i8]> = vec![&codes[..7]];
        assert!(KvSource::quant_paged(&cp, &sp, &short_c, &sp, 2, 2, 2, 2).is_err());
        // Empty is fine.
        let no_c: Vec<&[i8]> = Vec::new();
        let no_s: Vec<&[f32]> = Vec::new();
        let src = KvSource::quant_paged(&no_c, &no_s, &no_c, &no_s, 2, 2, 2, 0).unwrap();
        assert_eq!(src.tokens(), 0);
    }
}
