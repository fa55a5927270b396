//! Zero-copy borrowed views of a sequence's cached K/V pages.

use cp_attention::{KvSource, PageLayout};

use crate::PagedKvCache;
use crate::{CacheError, SeqId};

/// A borrowed, zero-copy view of one sequence's cached K/V: its full
/// pages, in [`PageLayout`]'s format, plus the positions of its tokens in
/// append order.
///
/// The attention kernels consume these pages *directly* via
/// [`KvView::source`] — no [`PagedKvCache::gather`] materialization. Token
/// `i` lives in page `i / page_size` at slot `i % page_size`; slots past
/// the sequence's length in its last page hold no token. Building a view
/// is O(pages) for the slice handles plus O(tokens) for the position array
/// (8 bytes/token, negligible next to the K/V payload a gather would copy).
#[derive(Debug, Clone)]
pub struct KvView<'a> {
    pages: ViewPages<'a>,
    pos: Vec<usize>,
    layout: PageLayout,
    len: usize,
}

/// The page slices a view lends the kernel: the f32 values, or the INT8
/// plane while it is on.
#[derive(Debug, Clone)]
enum ViewPages<'a> {
    F32 {
        k: Vec<&'a [f32]>,
        v: Vec<&'a [f32]>,
    },
    Int8 {
        k_codes: Vec<&'a [i8]>,
        k_scales: Vec<&'a [f32]>,
        v_codes: Vec<&'a [i8]>,
        v_scales: Vec<&'a [f32]>,
    },
}

impl<'a> KvView<'a> {
    /// Cached token count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the sequence holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tokens per page.
    pub fn page_size(&self) -> usize {
        self.layout.page_size()
    }

    /// Global positions of the cached tokens, in append order.
    pub fn positions(&self) -> &[usize] {
        &self.pos
    }

    /// The attention-kernel [`KvSource`] over these pages: f32 pages, or
    /// INT8 pages the kernel dequantizes head by head into a reused
    /// scratch — no f32 copy of the cache is materialized either way.
    pub fn source(&self) -> KvSource<'_> {
        let l = &self.layout;
        let (ps, nkv, dh) = (l.page_size(), l.n_kv_heads(), l.head_dim());
        match &self.pages {
            ViewPages::F32 { k, v } => KvSource::paged(k, v, ps, nkv, dh, self.len),
            ViewPages::Int8 {
                k_codes,
                k_scales,
                v_codes,
                v_scales,
            } => KvSource::quant_paged(k_codes, k_scales, v_codes, v_scales, ps, nkv, dh, self.len),
        }
        .expect("view geometry is consistent by construction")
    }
}

impl PagedKvCache {
    /// Borrows a sequence's cached K/V as a zero-copy [`KvView`]: the f32
    /// pages, or the INT8 plane while it is on.
    ///
    /// Over f32 pages the view and [`PagedKvCache::gather`] expose the
    /// same rows in the same order, so attending through
    /// [`KvView::source`] is bit-identical to attending over gathered
    /// tensors — without the O(tokens) copy. Over the INT8 plane it is
    /// bit-identical to attending the dequantized
    /// [`PagedKvCache::gather_int8`].
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownSequence`] if absent.
    pub fn view(&self, seq: SeqId) -> Result<KvView<'_>, CacheError> {
        let (state, layout) = self.seq_state(seq)?;
        let n_pages = layout.pages_for(state.len);
        let pages = || state.pages.iter().take(n_pages).map(|&idx| self.page(idx));
        let mut pos = Vec::with_capacity(n_pages * layout.page_size());
        for page in pages() {
            pos.extend_from_slice(&page.pos);
        }
        // The last page's slots past the sequence's length hold no token.
        pos.truncate(state.len);
        let pages = if self.int8() {
            let planes = || pages().filter_map(|page| page.int8.as_ref());
            ViewPages::Int8 {
                k_codes: planes().map(|p| p.k_codes.as_slice()).collect(),
                k_scales: planes().map(|p| p.k_scales.as_slice()).collect(),
                v_codes: planes().map(|p| p.v_codes.as_slice()).collect(),
                v_scales: planes().map(|p| p.v_scales.as_slice()).collect(),
            }
        } else {
            ViewPages::F32 {
                k: pages().map(|p| p.k.as_slice()).collect(),
                v: pages().map(|p| p.v.as_slice()).collect(),
            }
        };
        Ok(KvView {
            pages,
            pos,
            layout: *layout,
            len: state.len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KvCacheConfig;
    use cp_tensor::DetRng;

    /// Token `i`'s K and V rows (2 heads of dim 3) read back head by head.
    fn heads(src: &KvSource<'_>, i: usize) -> (Vec<f32>, Vec<f32>) {
        let mut scratch = [0.0f32; 3];
        let (mut k, mut v) = (Vec::new(), Vec::new());
        for h in 0..2 {
            k.extend_from_slice(src.k_head(i, h, 3, &mut scratch).unwrap());
            v.extend_from_slice(src.v_head(i, h, 3, &mut scratch).unwrap());
        }
        (k, v)
    }

    fn cache_with(page_size: usize, tokens: usize, seed: u64) -> (PagedKvCache, SeqId) {
        let mut cache = PagedKvCache::new(KvCacheConfig::new(page_size, 2, 3));
        let seq = SeqId(1);
        cache.create_sequence(seq).unwrap();
        let mut rng = DetRng::new(seed);
        let k = rng.tensor(&[tokens, 2, 3]);
        let v = rng.tensor(&[tokens, 2, 3]);
        let pos: Vec<usize> = (0..tokens).collect();
        cache.append(seq, &k, &v, &pos).unwrap();
        (cache, seq)
    }

    #[test]
    fn view_matches_gather_rows() {
        for (ps, t) in [(4, 6), (4, 8), (3, 10), (5, 1), (7, 7)] {
            let (cache, seq) = cache_with(ps, t, 11);
            let (gk, gv, gpos) = cache.gather(seq).unwrap();
            let view = cache.view(seq).unwrap();
            assert_eq!(view.len(), t);
            assert_eq!(view.page_size(), ps);
            assert_eq!(view.positions(), &gpos[..]);
            let src = view.source();
            for i in 0..t {
                assert_eq!(
                    heads(&src, i),
                    (gk.row(i).to_vec(), gv.row(i).to_vec()),
                    "row {i}"
                );
            }
            assert!(src.k_head(t, 0, 3, &mut [0.0; 3]).is_none());
        }
    }

    #[test]
    fn view_is_zero_copy() {
        let (cache, seq) = cache_with(4, 9, 12);
        let view = cache.view(seq).unwrap();
        // 9 tokens over pages of 4: three pages, each a whole pool page
        // borrowed in place (the last holds one token).
        let ViewPages::F32 { k: k_pages, .. } = &view.pages else {
            panic!("f32 cache viewed its INT8 plane");
        };
        assert_eq!(k_pages.len(), 3);
        assert!(k_pages.iter().all(|p| p.len() == 4 * 6));
        let pages = cache.seq_state(seq).unwrap().0.pages.clone();
        for (borrowed, idx) in k_pages.iter().zip(pages) {
            assert!(std::ptr::eq(*borrowed, cache.page(idx).k.as_slice()));
        }
        assert_eq!(view.source().page_size(), Some(4));
    }

    #[test]
    fn view_tracks_truncate_and_multi_turn_appends() {
        let (mut cache, seq) = cache_with(4, 10, 13);
        cache.truncate(seq, 5).unwrap();
        let (gk, _, gpos) = cache.gather(seq).unwrap();
        let view = cache.view(seq).unwrap();
        assert_eq!(view.len(), 5);
        assert_eq!(view.positions(), &gpos[..]);
        assert_eq!(heads(&view.source(), 4).0, gk.row(4));

        let mut rng = DetRng::new(14);
        let k2 = rng.tensor(&[3, 2, 3]);
        let v2 = rng.tensor(&[3, 2, 3]);
        cache.append(seq, &k2, &v2, &[5, 6, 7]).unwrap();
        let view = cache.view(seq).unwrap();
        assert_eq!(view.len(), 8);
        assert_eq!(heads(&view.source(), 7).0, k2.row(2));
    }

    #[test]
    fn empty_sequence_views_empty() {
        let mut cache = PagedKvCache::new(KvCacheConfig::new(4, 2, 3));
        let seq = SeqId(2);
        cache.create_sequence(seq).unwrap();
        let view = cache.view(seq).unwrap();
        assert!(view.is_empty());
        assert_eq!(view.source().tokens(), 0);
        assert!(cache.view(SeqId(9)).is_err());
    }

    #[test]
    fn view_survives_free_and_reuse_of_other_sequences() {
        let mut cache = PagedKvCache::new(KvCacheConfig::new(4, 2, 3));
        let mut rng = DetRng::new(15);
        let (a, b) = (SeqId(1), SeqId(2));
        cache.create_sequence(a).unwrap();
        let ka = rng.tensor(&[6, 2, 3]);
        let va = rng.tensor(&[6, 2, 3]);
        cache
            .append(a, &ka, &va, &(0..6).collect::<Vec<_>>())
            .unwrap();
        cache.free_sequence(a).unwrap();
        // b reuses a's freed pages; its view must show b's rows only.
        cache.create_sequence(b).unwrap();
        let kb = rng.tensor(&[5, 2, 3]);
        let vb = rng.tensor(&[5, 2, 3]);
        cache
            .append(b, &kb, &vb, &(0..5).collect::<Vec<_>>())
            .unwrap();
        let (gk, gv, _) = cache.gather(b).unwrap();
        assert_eq!(gk, kb);
        let view = cache.view(b).unwrap();
        let src = view.source();
        for i in 0..5 {
            assert_eq!(heads(&src, i), (gk.row(i).to_vec(), gv.row(i).to_vec()));
        }
    }

    #[test]
    fn view_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<KvView<'static>>();
    }
}
