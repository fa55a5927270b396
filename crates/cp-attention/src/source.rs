//! Borrowed KV storage: contiguous tensors, or the f32 or INT8 pages of a
//! paged KV cache, stored in the layout the kernel consumes.
//!
//! The kernels' arithmetic depends only on the *row order* of K/V and the
//! online-softmax block boundaries, not on where the rows live. `KvSource`
//! abstracts storage so a paged KV cache can be attended over in place —
//! no `gather()` materialization — while staying bit-identical to the
//! contiguous path: for the same `block_size`, every `(query, head)` pair
//! sees the same values in the same order with the same f32 operations.
//!
//! Pages are kept in [`PageLayout`]'s format, K k-major, so packing a KV
//! block into the kernel's `NR`-wide panels is a run of fixed-size copies:
//! the transpose the panels need is paid once per token, when it is
//! appended, instead of once per decode step for every cached key. INT8
//! pages share the layout; the pack step dequantizes them lane by lane
//! (`code as f32 * scale`, exactly the storage layer's `dequantize`), so
//! attending a quantized source is **bit-identical** to attending the
//! dequantized tensors — the only error versus f32 storage is the
//! quantization error itself, bounded by `max(scale) / 2` per element.

use std::ops::RangeInclusive;

use cp_tensor::tile::NR;
use cp_tensor::Tensor;

use crate::AttentionError;

/// The one format of a KV-cache page, for f32 values and INT8 codes alike.
///
/// A page holds `page_size` token slots of `n_kv_heads` heads of `head_dim`
/// elements; token `i` of a sequence lives in page `i / page_size` at slot
/// `i % page_size` ([`PageLayout::locate`]).
///
/// * K pages are `[kv_head][d][slot]`: for every `(kv_head, d)`, the run of
///   slots the kernel's k-major panels are cut from.
/// * V pages are `[kv_head][slot][d]`: a run of slots of one head is one
///   contiguous run of rows.
/// * INT8 scales, one per `(token, kv_head)`, are `[kv_head][slot]` on both
///   sides.
///
/// Token rows go in and out as `[kv_head][d]` slices. This type is the only
/// place that computes an offset inside a page: the cache writes and reads
/// rows through it and [`KvSource`] packs kernel blocks through it, so the
/// storage and the kernel cannot disagree about the format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageLayout {
    page_size: usize,
    n_kv_heads: usize,
    head_dim: usize,
}

impl PageLayout {
    /// A layout for pages of `page_size` tokens of `n_kv_heads` heads of
    /// `head_dim` elements.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::InvalidShape`] if any dimension is zero.
    pub fn new(
        page_size: usize,
        n_kv_heads: usize,
        head_dim: usize,
    ) -> Result<Self, AttentionError> {
        if page_size == 0 || n_kv_heads == 0 || head_dim == 0 {
            return Err(AttentionError::InvalidShape {
                reason: format!(
                    "paged KV needs positive geometry \
                     (page_size={page_size}, n_kv_heads={n_kv_heads}, head_dim={head_dim})"
                ),
            });
        }
        Ok(PageLayout {
            page_size,
            n_kv_heads,
            head_dim,
        })
    }

    /// Token slots per page.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// KV heads per token.
    pub fn n_kv_heads(&self) -> usize {
        self.n_kv_heads
    }

    /// Elements per head.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Elements of one token row, `n_kv_heads * head_dim`.
    pub fn row_len(&self) -> usize {
        self.n_kv_heads * self.head_dim
    }

    /// Elements of one K or V page (values or INT8 codes).
    pub fn page_len(&self) -> usize {
        self.page_size * self.row_len()
    }

    /// Elements of one INT8 scale page.
    pub fn scales_len(&self) -> usize {
        self.page_size * self.n_kv_heads
    }

    /// Pages needed to hold `tokens` tokens.
    pub fn pages_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.page_size)
    }

    /// The page and slot holding token `i` of a sequence.
    pub fn locate(&self, i: usize) -> (usize, usize) {
        (i / self.page_size, i % self.page_size)
    }

    /// Writes token row `row` into slot `slot` of K page `page`.
    pub fn write_k<T: Copy>(&self, page: &mut [T], slot: usize, row: &[T]) {
        self.write(Side::K, page, slot, row);
    }

    /// Writes token row `row` into slot `slot` of V page `page`.
    pub fn write_v<T: Copy>(&self, page: &mut [T], slot: usize, row: &[T]) {
        self.write(Side::V, page, slot, row);
    }

    /// Writes one token's per-head scales into slot `slot` of a scale page.
    pub fn write_scales(&self, scales: &mut [f32], slot: usize, row: &[f32]) {
        for (h, &s) in row.iter().enumerate() {
            if let Some(dst) = scales.get_mut(self.scale_at(slot, h)) {
                *dst = s;
            }
        }
    }

    /// Reads slot `slot` of K page `page` back into token row `row`.
    pub fn read_k<T: Copy>(&self, page: &[T], slot: usize, row: &mut [T]) {
        self.read(Side::K, page, slot, row);
    }

    /// Reads slot `slot` of V page `page` back into token row `row`.
    pub fn read_v<T: Copy>(&self, page: &[T], slot: usize, row: &mut [T]) {
        self.read(Side::V, page, slot, row);
    }

    /// Reads one token's per-head scales out of slot `slot` of a scale page.
    pub fn read_scales(&self, scales: &[f32], slot: usize, row: &mut [f32]) {
        for (h, dst) in row.iter_mut().enumerate() {
            if let Some(&s) = scales.get(self.scale_at(slot, h)) {
                *dst = s;
            }
        }
    }

    /// Where KV head `kvh` of slot `slot` starts in a page of `side`, and
    /// the stride between its `head_dim` elements.
    fn head_at(&self, side: Side, slot: usize, kvh: usize) -> (usize, usize) {
        match side {
            Side::K => (kvh * self.head_dim * self.page_size + slot, self.page_size),
            Side::V => ((kvh * self.page_size + slot) * self.head_dim, 1),
        }
    }

    /// Where the scale of KV head `kvh` of slot `slot` sits in a scale
    /// page; the scales of consecutive slots of a head are adjacent.
    fn scale_at(&self, slot: usize, kvh: usize) -> usize {
        kvh * self.page_size + slot
    }

    /// The span of `page` from the first to the last element of KV head
    /// `kvh` of slot `slot`, and the stride between its elements.
    fn head_span(&self, side: Side, slot: usize, kvh: usize) -> (RangeInclusive<usize>, usize) {
        let (first, stride) = self.head_at(side, slot, kvh);
        (first..=first + (self.head_dim - 1) * stride, stride)
    }

    fn write<T: Copy>(&self, side: Side, page: &mut [T], slot: usize, row: &[T]) {
        for (h, src) in row.chunks_exact(self.head_dim).enumerate() {
            let (span, stride) = self.head_span(side, slot, h);
            match page.get_mut(span) {
                Some(dst) if stride == 1 => dst.copy_from_slice(src),
                Some(dst) => dst
                    .iter_mut()
                    .step_by(stride)
                    .zip(src)
                    .for_each(|(d, &x)| *d = x),
                None => {}
            }
        }
    }

    fn read<T: Copy>(&self, side: Side, page: &[T], slot: usize, row: &mut [T]) {
        for (h, dst) in row.chunks_exact_mut(self.head_dim).enumerate() {
            let (span, stride) = self.head_span(side, slot, h);
            match page.get(span) {
                Some(src) if stride == 1 => dst.copy_from_slice(src),
                Some(src) => dst
                    .iter_mut()
                    .zip(src.iter().step_by(stride))
                    .for_each(|(d, &x)| *d = x),
                None => {}
            }
        }
    }

    /// Tokens `first .. first + len` of a sequence cut into runs that each
    /// lie in one page.
    fn runs(&self, first: usize, len: usize) -> impl Iterator<Item = Run> {
        let layout = *self;
        let mut offset = 0;
        std::iter::from_fn(move || {
            (offset < len).then(|| {
                let (page, slot) = layout.locate(first + offset);
                let run = Run {
                    offset,
                    page,
                    slot,
                    len: (layout.page_size - slot).min(len - offset),
                };
                offset += run.len;
                run
            })
        })
    }

    /// The scales of KV head `kvh` from slot `slot` of page `page` on:
    /// one per slot, empty for f32 storage.
    fn scale_run<'p>(
        &self,
        scales: &[&'p [f32]],
        page: usize,
        slot: usize,
        kvh: usize,
    ) -> &'p [f32] {
        scales
            .get(page)
            .and_then(|s| s.get(self.scale_at(slot, kvh)..))
            .unwrap_or_default()
    }

    /// [`KvSource::pack_k`] over pages: panel row `d` is the run of slots
    /// `page[kvh][d][slot ..]`, loaded as one fixed-size `NR`-lane copy
    /// whenever the panel's run lies in one page. Lanes past `keys` then
    /// carry whichever slots follow in the page; the kernel discards them.
    fn pack_k<T: Elem>(
        &self,
        k: &Pages<'_, T>,
        start: usize,
        keys: usize,
        kvh: usize,
        panels: &mut [f32],
    ) {
        let panel_len = self.head_dim * NR;
        for (p, panel) in panels
            .chunks_exact_mut(panel_len)
            .take(keys.div_ceil(NR))
            .enumerate()
        {
            let first = start + p * NR;
            let (page, slot) = self.locate(first);
            let (rows, _) = panel.as_chunks_mut::<NR>();
            if slot + NR <= self.page_size {
                let scales = self.scale_run(k.scales, page, slot, kvh);
                for (dst, src) in rows.iter_mut().zip(self.k_rows(k, page, slot, kvh)) {
                    if let Some(src) = src.first_chunk::<NR>() {
                        T::load_nr(dst, src, scales);
                    }
                }
                continue;
            }
            // The panel straddles pages: one runtime-length load per page.
            for run in self.runs(first, NR.min(keys - p * NR)) {
                let scales = self.scale_run(k.scales, run.page, run.slot, kvh);
                let src_rows = self.k_rows(k, run.page, run.slot, kvh);
                for (dst, src) in rows.iter_mut().zip(src_rows) {
                    let lanes = dst.get_mut(run.offset..run.offset + run.len);
                    if let (Some(dst), Some(src)) = (lanes, src.get(..run.len)) {
                        T::load(dst, src, scales);
                    }
                }
            }
        }
    }

    /// The K rows of KV head `kvh` in page `page`, one per `d`, each
    /// starting at slot `slot`: slice `d`'s first elements are that row's
    /// slots `slot ..`.
    fn k_rows<'p, T>(
        &self,
        k: &Pages<'p, T>,
        page: usize,
        slot: usize,
        kvh: usize,
    ) -> std::slice::Chunks<'p, T> {
        let (at, _) = self.head_at(Side::K, slot, kvh);
        let data = k.data.get(page).and_then(|data| data.get(at..));
        data.unwrap_or_default().chunks(self.page_size)
    }

    /// [`KvSource::pack_v`] over pages: one contiguous run of rows per
    /// page.
    fn pack_v<T: Elem>(
        &self,
        v: &Pages<'_, T>,
        start: usize,
        keys: usize,
        kvh: usize,
        rows: &mut [f32],
    ) {
        let dh = self.head_dim;
        for run in self.runs(start, keys) {
            let (at, _) = self.head_at(Side::V, run.slot, kvh);
            let src = v
                .data
                .get(run.page)
                .and_then(|page| page.get(at..at + run.len * dh));
            let dst = rows.get_mut(run.offset * dh..(run.offset + run.len) * dh);
            if let (Some(dst), Some(src)) = (dst, src) {
                let scales = self.scale_run(v.scales, run.page, run.slot, kvh);
                T::load_rows(dst, src, scales, dh);
            }
        }
    }

    /// KV head `kvh` of token `i` of `pages`, or `None` out of range.
    fn head<'p, T>(
        &self,
        side: Side,
        pages: &Pages<'p, T>,
        i: usize,
        kvh: usize,
    ) -> Option<(&'p [T], usize, f32)> {
        if kvh >= self.n_kv_heads {
            return None;
        }
        let (page, slot) = self.locate(i);
        let (span, stride) = self.head_span(side, slot, kvh);
        let xs = pages.data.get(page)?.get(span)?;
        let scale = self
            .scale_run(pages.scales, page, slot, kvh)
            .first()
            .copied()
            .unwrap_or(1.0);
        Some((xs, stride, scale))
    }
}

/// Tokens `offset .. offset + len` of a packed block, stored from slot
/// `slot` of page `page` on.
struct Run {
    offset: usize,
    page: usize,
    slot: usize,
    len: usize,
}

/// One half (K or V) of a paged source: per-page elements, plus per-page
/// `[kv_head][slot]` scales for INT8 storage (empty for f32).
#[derive(Debug, Clone, Copy)]
struct Pages<'a, T> {
    data: &'a [&'a [T]],
    scales: &'a [&'a [f32]],
}

/// A page element as the kernel loads it: an f32 value is copied, an INT8
/// code becomes `code as f32 * scale` — element for element the storage
/// layer's `dequantize`, one multiply each.
trait Elem: Copy {
    /// `dst[j]` from `src[j]` and, for INT8, `scales[j]`.
    fn load(dst: &mut [f32], src: &[Self], scales: &[f32]);

    /// [`Elem::load`] over exactly one panel row.
    fn load_nr(dst: &mut [f32; NR], src: &[Self; NR], scales: &[f32]) {
        Self::load(dst, src, scales);
    }

    /// Rows of `dh` elements, one scale per row for INT8.
    fn load_rows(dst: &mut [f32], src: &[Self], scales: &[f32], dh: usize);
}

impl Elem for f32 {
    fn load(dst: &mut [f32], src: &[f32], _: &[f32]) {
        dst.iter_mut().zip(src).for_each(|(d, &x)| *d = x);
    }

    // Fixed size, so the copy compiles to register moves rather than a
    // `memcpy` call per panel row.
    fn load_nr(dst: &mut [f32; NR], src: &[f32; NR], _: &[f32]) {
        *dst = *src;
    }

    fn load_rows(dst: &mut [f32], src: &[f32], _: &[f32], _: usize) {
        if dst.len() == src.len() {
            dst.copy_from_slice(src);
        }
    }
}

impl Elem for i8 {
    fn load(dst: &mut [f32], src: &[i8], scales: &[f32]) {
        for ((d, &c), &s) in dst.iter_mut().zip(src).zip(scales) {
            *d = f32::from(c) * s;
        }
    }

    fn load_rows(dst: &mut [f32], src: &[i8], scales: &[f32], dh: usize) {
        for ((row, codes), &s) in dst
            .chunks_exact_mut(dh)
            .zip(src.chunks_exact(dh))
            .zip(scales)
        {
            for (d, &c) in row.iter_mut().zip(codes) {
                *d = f32::from(c) * s;
            }
        }
    }
}

/// Borrowed KV rows consumed by [`crate::blocked_gqa_attention_source`].
///
/// The `Contiguous` variant wraps the classic `[t, n_kv_heads, head_dim]`
/// tensors. The paged variants walk the fixed-size pages of a vLLM-style
/// pool in [`PageLayout`]'s format, where token `i` lives in page
/// `i / page_size` at slot `i % page_size`: every page slice is full length
/// and only the first `tokens` slots of the sequence are valid. `QuantPaged`
/// holds INT8 codes plus per-(token, head) scales in the same layout; its
/// values are dequantized per head into the kernel's block panels (or,
/// through [`KvSource::k_head`] / [`KvSource::v_head`], a caller's scratch),
/// never as a full f32 copy.
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
        layout: PageLayout,
        tokens: usize,
        k: Pages<'a, f32>,
        v: Pages<'a, f32>,
    },
    QuantPaged {
        layout: PageLayout,
        tokens: usize,
        k: Pages<'a, i8>,
        v: Pages<'a, i8>,
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

    /// Wraps paged K/V in [`PageLayout`]'s format.
    ///
    /// `k_pages[p]` / `v_pages[p]` hold tokens `[p * page_size, ...)`; every
    /// page is a full [`PageLayout::page_len`] slice, of which the first
    /// `tokens` slots of the sequence are valid.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::InvalidShape`] if the page geometry is
    /// inconsistent (a zero dimension, a page count that disagrees with
    /// `tokens`, or a page of the wrong length).
    pub fn paged(
        k_pages: &'a [&'a [f32]],
        v_pages: &'a [&'a [f32]],
        page_size: usize,
        n_kv_heads: usize,
        head_dim: usize,
        tokens: usize,
    ) -> Result<Self, AttentionError> {
        let layout = PageLayout::new(page_size, n_kv_heads, head_dim)?;
        let page_len = layout.page_len();
        check_pages(&layout, tokens, "k", k_pages, page_len)?;
        check_pages(&layout, tokens, "v", v_pages, page_len)?;
        let pages = |data| Pages { data, scales: &[] };
        Ok(KvSource {
            inner: Inner::Paged {
                layout,
                tokens,
                k: pages(k_pages),
                v: pages(v_pages),
            },
        })
    }

    /// Wraps INT8-quantized paged K/V in [`PageLayout`]'s format.
    ///
    /// `*_codes[p]` hold tokens `[p * page_size, ...)` as full
    /// [`PageLayout::page_len`] code pages; `*_scales[p]` hold the matching
    /// per-(token, head) scales as full [`PageLayout::scales_len`] pages.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::InvalidShape`] if the page geometry is
    /// inconsistent (zero dimensions, mismatched page counts, or a page
    /// of the wrong length).
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
        let layout = PageLayout::new(page_size, n_heads, head_dim)?;
        let (page_len, scales_len) = (layout.page_len(), layout.scales_len());
        check_pages(&layout, tokens, "k_codes", k_codes, page_len)?;
        check_pages(&layout, tokens, "k_scales", k_scales, scales_len)?;
        check_pages(&layout, tokens, "v_codes", v_codes, page_len)?;
        check_pages(&layout, tokens, "v_scales", v_scales, scales_len)?;
        Ok(KvSource {
            inner: Inner::QuantPaged {
                layout,
                tokens,
                k: Pages {
                    data: k_codes,
                    scales: k_scales,
                },
                v: Pages {
                    data: v_codes,
                    scales: v_scales,
                },
            },
        })
    }

    /// Number of KV tokens (rows).
    pub fn tokens(&self) -> usize {
        match &self.inner {
            Inner::Contiguous { k, .. } => k.dim0(),
            Inner::Paged { tokens, .. } | Inner::QuantPaged { tokens, .. } => *tokens,
        }
    }

    /// For paged sources, the page size — the natural online-softmax block
    /// granularity. `None` for contiguous storage (any block size walks
    /// rows equally well).
    pub fn page_size(&self) -> Option<usize> {
        match &self.inner {
            Inner::Contiguous { .. } => None,
            Inner::Paged { layout, .. } | Inner::QuantPaged { layout, .. } => {
                Some(layout.page_size())
            }
        }
    }

    /// KV head `kvh` of K row `i` as a `head_dim`-length slice, or `None`
    /// out of bounds (or if `scratch` is too short when it is needed).
    ///
    /// A contiguous source returns the direct subslice, and so does the V
    /// side of f32 pages. K pages store a head's elements `page_size` apart
    /// and INT8 pages need dequantizing (`code as f32 * scale`), so those
    /// heads are written into `scratch` (at least `head_dim` long) and
    /// returned from there.
    #[inline]
    pub fn k_head<'s>(
        &'s self,
        i: usize,
        kvh: usize,
        dh: usize,
        scratch: &'s mut [f32],
    ) -> Option<&'s [f32]> {
        self.head(Side::K, i, kvh, dh)?.into_f32(dh, scratch)
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
        self.head(Side::V, i, kvh, dh)?.into_f32(dh, scratch)
    }

    /// Packs KV head `kvh` of K rows `start .. start + keys` into
    /// [`NR`]-wide panels, k-major: key `j` of the block lands in panel
    /// `j / NR`, lane `j % NR`, element `d` at `panel[d * NR + lane]`.
    /// Lanes past `keys` in the last panel hold unspecified values; the
    /// kernel discards their dot products.
    pub(crate) fn pack_k(
        &self,
        start: usize,
        keys: usize,
        kvh: usize,
        dh: usize,
        panels: &mut [f32],
    ) {
        match &self.inner {
            Inner::Paged { layout, k, .. } => layout.pack_k(k, start, keys, kvh, panels),
            Inner::QuantPaged { layout, k, .. } => layout.pack_k(k, start, keys, kvh, panels),
            Inner::Contiguous { .. } => {
                let mut rows = start..start + keys;
                for panel in panels.chunks_exact_mut(dh * NR) {
                    for (lane, i) in rows.by_ref().take(NR).enumerate() {
                        if let Some(head) = self.head(Side::K, i, kvh, dh) {
                            head.write_to(panel.iter_mut().skip(lane).step_by(NR));
                        }
                    }
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
        match &self.inner {
            Inner::Paged { layout, v, .. } => layout.pack_v(v, start, keys, kvh, rows),
            Inner::QuantPaged { layout, v, .. } => layout.pack_v(v, start, keys, kvh, rows),
            Inner::Contiguous { .. } => {
                for (i, row) in (start..start + keys).zip(rows.chunks_exact_mut(dh)) {
                    if let Some(head) = self.head(Side::V, i, kvh, dh) {
                        head.write_to(row.iter_mut());
                    }
                }
            }
        }
    }

    /// KV head `kvh` of row `i` on one side of the cache, as stored.
    /// Paged sources answer only for their own `head_dim`.
    #[inline]
    fn head(&self, side: Side, i: usize, kvh: usize, dh: usize) -> Option<Head<'a>> {
        match &self.inner {
            Inner::Contiguous { k, v } => {
                let t = match side {
                    Side::K => k,
                    Side::V => v,
                };
                let xs = (i < t.dim0()).then(|| t.row(i))?;
                Some(Head::F32 {
                    xs: xs.get(kvh * dh..(kvh + 1) * dh)?,
                    stride: 1,
                })
            }
            Inner::Paged {
                layout,
                tokens,
                k,
                v,
            } => {
                if i >= *tokens || dh != layout.head_dim() {
                    return None;
                }
                let pages = match side {
                    Side::K => k,
                    Side::V => v,
                };
                let (xs, stride, _) = layout.head(side, pages, i, kvh)?;
                Some(Head::F32 { xs, stride })
            }
            Inner::QuantPaged {
                layout,
                tokens,
                k,
                v,
            } => {
                if i >= *tokens || dh != layout.head_dim() {
                    return None;
                }
                let pages = match side {
                    Side::K => k,
                    Side::V => v,
                };
                let (codes, stride, scale) = layout.head(side, pages, i, kvh)?;
                Some(Head::Int8 {
                    codes,
                    stride,
                    scale,
                })
            }
        }
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
            Inner::Paged { layout, tokens, .. } | Inner::QuantPaged { layout, tokens, .. } => {
                if layout.n_kv_heads() != shape.n_kv_heads()
                    || layout.head_dim() != shape.head_dim()
                {
                    return Err(AttentionError::BadTensorShape {
                        input: "k",
                        expected: vec![*tokens, shape.n_kv_heads(), shape.head_dim()],
                        actual: vec![*tokens, layout.n_kv_heads(), layout.head_dim()],
                    });
                }
                Ok(*tokens)
            }
        }
    }
}

/// Checks that `pages` is exactly the `len`-long pages `tokens` tokens
/// need.
fn check_pages<T>(
    layout: &PageLayout,
    tokens: usize,
    name: &str,
    pages: &[&[T]],
    len: usize,
) -> Result<(), AttentionError> {
    let expected = layout.pages_for(tokens);
    if pages.len() != expected {
        return Err(AttentionError::InvalidShape {
            reason: format!(
                "paged KV has {} {name} pages for {tokens} tokens at page_size {} \
                 (expected {expected})",
                pages.len(),
                layout.page_size()
            ),
        });
    }
    if let Some((p, page)) = pages.iter().enumerate().find(|(_, page)| page.len() != len) {
        return Err(AttentionError::InvalidShape {
            reason: format!(
                "{name} page {p} holds {} elements, expected {len}",
                page.len()
            ),
        });
    }
    Ok(())
}

/// Which half of the cache a lookup reads.
#[derive(Clone, Copy)]
enum Side {
    K,
    V,
}

/// One `(token, KV head)` vector as stored: `head_dim` elements `stride`
/// apart, from the first element of `xs` / `codes` to the last.
enum Head<'a> {
    F32 {
        xs: &'a [f32],
        stride: usize,
    },
    Int8 {
        codes: &'a [i8],
        stride: usize,
        scale: f32,
    },
}

impl<'a> Head<'a> {
    /// Writes the vector's f32 values through `dst`: a copy for f32
    /// storage, `code as f32 * scale` for INT8 — element for element the
    /// storage layer's `dequantize`, so the kernels see exactly the values
    /// a materialized dequantized tensor would hold.
    #[inline]
    fn write_to<'d>(&self, dst: impl Iterator<Item = &'d mut f32>) {
        match *self {
            Head::F32 { xs, stride } => dst
                .zip(xs.iter().step_by(stride))
                .for_each(|(d, &x)| *d = x),
            Head::Int8 {
                codes,
                stride,
                scale,
            } => dst
                .zip(codes.iter().step_by(stride))
                .for_each(|(d, &c)| *d = f32::from(c) * scale),
        }
    }

    /// The `dh`-long vector as an f32 slice: itself when stored as
    /// adjacent f32s, otherwise written into `scratch` (`None` if
    /// `scratch` is too short).
    #[inline]
    fn into_f32<'s>(self, dh: usize, scratch: &'s mut [f32]) -> Option<&'s [f32]>
    where
        'a: 's,
    {
        match self {
            Head::F32 { xs, stride: 1 } => Some(xs),
            _ => {
                let out = scratch.get_mut(..dh)?;
                self.write_to(out.iter_mut());
                Some(out)
            }
        }
    }
}

#[cfg(test)]
impl PageLayout {
    /// Token-major `rows` (`row_len` elements per token) written into full
    /// `page_len` pages through `write` — the tests' page builder.
    pub(crate) fn paginate<T: Copy + Default>(
        &self,
        rows: &[T],
        row_len: usize,
        page_len: usize,
        write: fn(&Self, &mut [T], usize, &[T]),
    ) -> Vec<Vec<T>> {
        let tokens = rows.len() / row_len;
        let mut pages = vec![vec![T::default(); page_len]; self.pages_for(tokens)];
        for (i, row) in rows.chunks_exact(row_len).enumerate() {
            let (p, slot) = self.locate(i);
            write(self, &mut pages[p], slot, row);
        }
        pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_tensor::DetRng;

    fn refs<T>(pages: &[Vec<T>]) -> Vec<&[T]> {
        pages.iter().map(Vec::as_slice).collect()
    }

    /// K and V pages of token-major `k` / `v` data.
    fn f32_pages(layout: &PageLayout, k: &Tensor, v: &Tensor) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let (rn, pl) = (layout.row_len(), layout.page_len());
        (
            layout.paginate(k.as_slice(), rn, pl, PageLayout::write_k),
            layout.paginate(v.as_slice(), rn, pl, PageLayout::write_v),
        )
    }

    #[test]
    fn contiguous_rows_match_tensor_rows() {
        let k = Tensor::from_fn(&[4, 2, 3], |i| i as f32);
        let v = k.map(|x| -x);
        let src = KvSource::contiguous(&k, &v);
        assert_eq!(src.tokens(), 4);
        assert_eq!(src.page_size(), None);
        let mut scratch = vec![0.0f32; 3];
        for i in 0..4 {
            for h in 0..2 {
                let head = &k.row(i)[h * 3..(h + 1) * 3];
                assert_eq!(src.k_head(i, h, 3, &mut scratch).unwrap(), head);
                let head = &v.row(i)[h * 3..(h + 1) * 3];
                assert_eq!(src.v_head(i, h, 3, &mut scratch).unwrap(), head);
            }
        }
        assert!(src.k_head(4, 0, 3, &mut scratch).is_none());
        assert!(src.v_head(9, 0, 3, &mut scratch).is_none());
    }

    #[test]
    fn paged_rows_cross_page_boundaries() {
        // 5 tokens of 2 heads x dim 2 in pages of 2: the last page is
        // full length and only its first slot is valid.
        let layout = PageLayout::new(2, 2, 2).unwrap();
        let k = Tensor::from_fn(&[5, 2, 2], |i| i as f32);
        let v = k.map(|x| x + 0.5);
        let (kp, vp) = f32_pages(&layout, &k, &v);
        assert_eq!(kp.len(), 3);
        assert!(kp.iter().all(|p| p.len() == layout.page_len()));
        // K is k-major: page 0 holds head 0, d 0 of slots 0 and 1 first.
        assert_eq!(&kp[0][..4], &[0.0, 4.0, 1.0, 5.0]);
        let (kr, vr) = (refs(&kp), refs(&vp));
        let src = KvSource::paged(&kr, &vr, 2, 2, 2, 5).unwrap();
        assert_eq!(src.tokens(), 5);
        assert_eq!(src.page_size(), Some(2));
        let mut scratch = vec![0.0f32; 2];
        for i in 0..5 {
            for h in 0..2 {
                let head = &k.row(i)[h * 2..(h + 1) * 2];
                assert_eq!(src.k_head(i, h, 2, &mut scratch).unwrap(), head);
                let head = &v.row(i)[h * 2..(h + 1) * 2];
                assert_eq!(src.v_head(i, h, 2, &mut scratch).unwrap(), head);
            }
        }
        // Slot 1 of the last page exists but is not a token.
        assert!(src.k_head(5, 0, 2, &mut scratch).is_none());
        assert!(src.v_head(0, 2, 2, &mut scratch).is_none());
    }

    #[test]
    fn layout_round_trips_rows_and_scales() {
        for (ps, nkv, dh) in [(1, 1, 1), (3, 2, 5), (8, 4, 16), (17, 2, 3)] {
            let layout = PageLayout::new(ps, nkv, dh).unwrap();
            let rn = layout.row_len();
            // Every element of every slot distinct, so any overlap shows.
            let rows: Vec<f32> = (0..ps * rn).map(|e| e as f32).collect();
            let scales: Vec<f32> = (0..ps * nkv).map(|e| -(e as f32)).collect();
            let mut k = vec![f32::NAN; layout.page_len()];
            let mut v = vec![f32::NAN; layout.page_len()];
            let mut s = vec![f32::NAN; layout.scales_len()];
            for (slot, (row, sc)) in rows.chunks(rn).zip(scales.chunks(nkv)).enumerate() {
                layout.write_k(&mut k, slot, row);
                layout.write_v(&mut v, slot, row);
                layout.write_scales(&mut s, slot, sc);
            }
            // The writes tile the pages exactly.
            assert!(k.iter().chain(&v).chain(&s).all(|x| !x.is_nan()));
            for (slot, (row, sc)) in rows.chunks(rn).zip(scales.chunks(nkv)).enumerate() {
                let (mut kb, mut vb, mut sb) = (vec![0.0; rn], vec![0.0; rn], vec![0.0; nkv]);
                layout.read_k(&k, slot, &mut kb);
                layout.read_v(&v, slot, &mut vb);
                layout.read_scales(&s, slot, &mut sb);
                assert_eq!((&kb[..], &vb[..], &sb[..]), (row, row, sc), "slot {slot}");
            }
            // K is k-major: element `d` of head 0 of every slot is adjacent.
            assert_eq!(
                &k[..ps],
                &(0..ps).map(|s| (s * rn) as f32).collect::<Vec<_>>()[..]
            );
        }
        assert!(PageLayout::new(0, 1, 1).is_err());
        assert!(PageLayout::new(1, 0, 1).is_err());
        assert!(PageLayout::new(1, 1, 0).is_err());
    }

    #[test]
    fn paged_rejects_bad_geometry() {
        let page: &[f32] = &[0.0; 8]; // 2 slots x 2 heads x dim 2
        let pages: Vec<&[f32]> = vec![page];
        assert!(KvSource::paged(&pages, &pages, 2, 2, 2, 2).is_ok());
        assert!(KvSource::paged(&pages, &pages, 0, 2, 2, 2).is_err());
        assert!(KvSource::paged(&pages, &pages, 2, 0, 2, 2).is_err());
        assert!(KvSource::paged(&pages, &pages, 2, 2, 0, 2).is_err());
        // Page count disagrees with token count.
        assert!(KvSource::paged(&pages, &pages, 2, 2, 2, 4).is_err());
        // A trimmed last page: pages are always full length.
        let short: Vec<&[f32]> = vec![&page[0..4]];
        assert!(KvSource::paged(&short, &short, 2, 2, 2, 1).is_err());
        // K/V page count mismatch.
        let two: Vec<&[f32]> = vec![page, page];
        assert!(KvSource::paged(&pages, &two, 2, 2, 2, 2).is_err());
    }

    #[test]
    fn empty_source_is_valid() {
        let pages: Vec<&[f32]> = Vec::new();
        let src = KvSource::paged(&pages, &pages, 4, 2, 1, 0).unwrap();
        assert_eq!(src.tokens(), 0);
        assert!(src.k_head(0, 0, 1, &mut [0.0]).is_none());
    }

    /// Per-(token, head) symmetric INT8 quantization, the storage layer's
    /// scheme: `scale = max|x| / 127` (zero rows get scale 1.0).
    fn quantize(data: &[f32], dh: usize) -> (Vec<i8>, Vec<f32>) {
        let mut codes = Vec::new();
        let mut scales = Vec::new();
        for head in data.chunks_exact(dh) {
            let max = head.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
            let scale = if max == 0.0 { 1.0 } else { max / 127.0 };
            scales.push(scale);
            for &v in head {
                codes.push((v / scale).round().clamp(-127.0, 127.0) as i8);
            }
        }
        (codes, scales)
    }

    /// Code pages and scale pages of token-major quantized data.
    fn quant_pages(
        layout: &PageLayout,
        codes: &[i8],
        scales: &[f32],
        write: fn(&PageLayout, &mut [i8], usize, &[i8]),
    ) -> (Vec<Vec<i8>>, Vec<Vec<f32>>) {
        (
            layout.paginate(codes, layout.row_len(), layout.page_len(), write),
            layout.paginate(
                scales,
                layout.n_kv_heads(),
                layout.scales_len(),
                PageLayout::write_scales,
            ),
        )
    }

    fn dequantized(codes: &[i8], scales: &[f32], shape: &[usize]) -> Tensor {
        let dh = shape[2];
        let data = codes
            .iter()
            .enumerate()
            .map(|(e, &c)| c as f32 * scales[e / dh])
            .collect();
        Tensor::from_vec(data, shape).unwrap()
    }

    #[test]
    fn quant_heads_match_dequantized_values_exactly() {
        // 5 tokens, 2 heads, dim 3, pages of 2 (ragged last page).
        let (tokens, nh, dh, ps) = (5usize, 2usize, 3usize, 2usize);
        let layout = PageLayout::new(ps, nh, dh).unwrap();
        let data: Vec<f32> = (0..tokens * nh * dh)
            .map(|i| (i as f32) * 0.17 - 2.0)
            .collect();
        let vdata: Vec<f32> = data.iter().map(|x| -x * 0.5).collect();
        let (kc, ks) = quantize(&data, dh);
        let (vc, vs) = quantize(&vdata, dh);
        let (kcp, ksp) = quant_pages(&layout, &kc, &ks, PageLayout::write_k);
        let (vcp, vsp) = quant_pages(&layout, &vc, &vs, PageLayout::write_v);
        let (kcr, ksr, vcr, vsr) = (refs(&kcp), refs(&ksp), refs(&vcp), refs(&vsp));
        let src = KvSource::quant_paged(&kcr, &ksr, &vcr, &vsr, ps, nh, dh, tokens).unwrap();
        assert_eq!(src.tokens(), tokens);
        assert_eq!(src.page_size(), Some(ps));
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
        // Too short a scratch for a head that needs one.
        assert!(src.k_head(0, 0, dh, &mut [0.0; 2]).is_none());
    }

    #[test]
    fn f32_sources_serve_heads_as_direct_subslices() {
        let k = Tensor::from_fn(&[3, 2, 4], |i| i as f32);
        let v = k.map(|x| x + 100.0);
        let layout = PageLayout::new(2, 2, 4).unwrap();
        let (kp, vp) = f32_pages(&layout, &k, &v);
        let (kr, vr) = (refs(&kp), refs(&vp));
        let paged = KvSource::paged(&kr, &vr, 2, 2, 4, 3).unwrap();
        let mut scratch = vec![0.0f32; 4];
        for src in [KvSource::contiguous(&k, &v), paged.clone()] {
            for i in 0..3 {
                for h in 0..2 {
                    assert_eq!(
                        src.v_head(i, h, 4, &mut scratch).unwrap(),
                        &v.row(i)[h * 4..(h + 1) * 4]
                    );
                }
            }
        }
        // V heads never touch the scratch; the contiguous K heads neither.
        assert!(scratch.iter().all(|&x| x == 0.0));
        let contiguous = KvSource::contiguous(&k, &v);
        assert_eq!(
            contiguous.k_head(2, 1, 4, &mut scratch).unwrap(),
            &k.row(2)[4..8]
        );
        assert!(scratch.iter().all(|&x| x == 0.0));
        // Paged K heads are strided, so they come back through the scratch.
        assert_eq!(
            paged.k_head(2, 1, 4, &mut scratch).unwrap(),
            &k.row(2)[4..8]
        );
        assert_eq!(scratch, &k.row(2)[4..8]);
    }

    #[test]
    fn quant_paged_rejects_bad_geometry() {
        // 2 slots x 2 heads x dim 2: 8 codes and 4 scales per page.
        let codes: Vec<i8> = vec![0; 8];
        let scales: Vec<f32> = vec![1.0; 4];
        let cp: Vec<&[i8]> = vec![&codes[..]];
        let sp: Vec<&[f32]> = vec![&scales[..]];
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

    /// The panels' valid lanes and the V rows `src` packs for one block.
    fn packed(src: &KvSource<'_>, start: usize, keys: usize, kvh: usize, dh: usize) -> Vec<u32> {
        let mut panels = vec![f32::NAN; keys.div_ceil(NR) * NR * dh];
        let mut rows = vec![f32::NAN; keys * dh];
        src.pack_k(start, keys, kvh, dh, &mut panels);
        src.pack_v(start, keys, kvh, dh, &mut rows);
        let lanes = panels
            .chunks_exact(dh * NR)
            .enumerate()
            .flat_map(|(p, panel)| {
                let valid = NR.min(keys - p * NR);
                panel
                    .chunks_exact(NR)
                    .flat_map(move |row| row[..valid].to_vec())
            });
        lanes.chain(rows).map(f32::to_bits).collect()
    }

    #[test]
    fn paged_packs_equal_contiguous_packs_for_every_block_start() {
        let (nkv, dh, tokens) = (2usize, 5usize, 45usize);
        let mut rng = DetRng::new(31);
        let k = rng.tensor(&[tokens, nkv, dh]);
        let v = rng.tensor(&[tokens, nkv, dh]);
        let (kc, ks) = quantize(k.as_slice(), dh);
        let (vc, vs) = quantize(v.as_slice(), dh);
        let (dk, dv) = (
            dequantized(&kc, &ks, k.shape()),
            dequantized(&vc, &vs, v.shape()),
        );
        let plain = KvSource::contiguous(&k, &v);
        let deq = KvSource::contiguous(&dk, &dv);
        for ps in [1usize, 3, 7, 8, 16, 17] {
            let layout = PageLayout::new(ps, nkv, dh).unwrap();
            let (kp, vp) = f32_pages(&layout, &k, &v);
            let (kr, vr) = (refs(&kp), refs(&vp));
            let paged = KvSource::paged(&kr, &vr, ps, nkv, dh, tokens).unwrap();
            let (kcp, ksp) = quant_pages(&layout, &kc, &ks, PageLayout::write_k);
            let (vcp, vsp) = quant_pages(&layout, &vc, &vs, PageLayout::write_v);
            let (kcr, ksr, vcr, vsr) = (refs(&kcp), refs(&ksp), refs(&vcp), refs(&vsp));
            let quant = KvSource::quant_paged(&kcr, &ksr, &vcr, &vsr, ps, nkv, dh, tokens).unwrap();
            for start in 0..tokens {
                for block in [1usize, 7, 16, 128] {
                    let keys = block.min(tokens - start);
                    for kvh in 0..nkv {
                        let at = format!("ps {ps} start {start} keys {keys} kvh {kvh}");
                        assert_eq!(
                            packed(&paged, start, keys, kvh, dh),
                            packed(&plain, start, keys, kvh, dh),
                            "{at}"
                        );
                        assert_eq!(
                            packed(&quant, start, keys, kvh, dh),
                            packed(&deq, start, keys, kvh, dh),
                            "{at}"
                        );
                    }
                }
            }
        }
    }
}
