//! Paged KV storage with per-sequence page tables.

use std::collections::HashMap;

use cp_attention::PageLayout;
use cp_tensor::Tensor;

use crate::quant::quantize_row;
use crate::{CacheError, QuantizedKv};

/// Identifier of a cached sequence (stable across turns of a conversation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeqId(pub u64);

impl std::fmt::Display for SeqId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seq#{}", self.0)
    }
}

/// Configuration of a [`PagedKvCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvCacheConfig {
    /// Tokens per page.
    pub page_size: usize,
    /// Number of KV heads stored (`N_KV`, possibly divided by the TP group).
    pub n_kv_heads: usize,
    /// Per-head embedding dimension (`D_H`).
    pub head_dim: usize,
    /// Maximum pages the pool may allocate; `None` means unbounded.
    pub max_pages: Option<usize>,
}

impl KvCacheConfig {
    /// A config with unbounded capacity.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(page_size: usize, n_kv_heads: usize, head_dim: usize) -> Self {
        assert!(
            page_size > 0 && n_kv_heads > 0 && head_dim > 0,
            "cache dimensions must be positive"
        );
        KvCacheConfig {
            page_size,
            n_kv_heads,
            head_dim,
            max_pages: None,
        }
    }

    /// Returns the config with a page-pool capacity limit.
    pub fn with_max_pages(mut self, max_pages: usize) -> Self {
        self.max_pages = Some(max_pages);
        self
    }

    /// The format of this cache's pages, shared with the attention
    /// kernels that read them in place.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero (only possible for a config built
    /// field by field rather than through [`KvCacheConfig::new`]).
    pub(crate) fn layout(&self) -> PageLayout {
        PageLayout::new(self.page_size, self.n_kv_heads, self.head_dim)
            .expect("cache dimensions must be positive")
    }
}

/// One fixed-size page: K and V in [`PageLayout`]'s format, plus the
/// position of each of its `page_size` token slots and, while the cache's
/// INT8 plane is on, the same slots quantized.
#[derive(Debug, Clone)]
pub(crate) struct Page {
    pub(crate) k: Vec<f32>,
    pub(crate) v: Vec<f32>,
    pub(crate) pos: Vec<usize>,
    pub(crate) int8: Option<Int8Plane>,
}

impl Page {
    fn new(layout: &PageLayout, int8: bool) -> Self {
        Page {
            k: vec![0.0; layout.page_len()],
            v: vec![0.0; layout.page_len()],
            pos: vec![0; layout.page_size()],
            int8: int8.then(|| Int8Plane::new(layout)),
        }
    }
}

/// A page's INT8 plane: K/V codes and per-(token, head) scales in
/// [`PageLayout`]'s format, slot for slot beside the f32 values.
#[derive(Debug, Clone)]
pub(crate) struct Int8Plane {
    pub(crate) k_codes: Vec<i8>,
    pub(crate) k_scales: Vec<f32>,
    pub(crate) v_codes: Vec<i8>,
    pub(crate) v_scales: Vec<f32>,
}

impl Int8Plane {
    fn new(layout: &PageLayout) -> Self {
        Int8Plane {
            k_codes: vec![0; layout.page_len()],
            k_scales: vec![0.0; layout.scales_len()],
            v_codes: vec![0; layout.page_len()],
            v_scales: vec![0.0; layout.scales_len()],
        }
    }

    /// Quantizes one token's K and V rows into `slot` through the one-row
    /// `scratch`. Codes and scales are both overwritten, so a reused page
    /// keeps nothing of its previous tenant.
    fn write(
        &mut self,
        layout: &PageLayout,
        slot: usize,
        k_row: &[f32],
        v_row: &[f32],
        scratch: &mut Int8Scratch,
    ) {
        let Int8Scratch { codes, scales } = scratch;
        quantize_row(k_row, layout.head_dim(), codes, scales);
        layout.write_k(&mut self.k_codes, slot, codes);
        layout.write_scales(&mut self.k_scales, slot, scales);
        quantize_row(v_row, layout.head_dim(), codes, scales);
        layout.write_v(&mut self.v_codes, slot, codes);
        layout.write_scales(&mut self.v_scales, slot, scales);
    }
}

/// One token row's codes and scales, reused by every quantizing write;
/// the cache holds one exactly while its INT8 plane is on.
#[derive(Debug)]
struct Int8Scratch {
    codes: Vec<i8>,
    scales: Vec<f32>,
}

impl Int8Scratch {
    fn new(layout: &PageLayout) -> Self {
        Int8Scratch {
            codes: vec![0; layout.row_len()],
            scales: vec![0.0; layout.n_kv_heads()],
        }
    }
}

#[derive(Debug, Clone, Default)]
pub(crate) struct SeqState {
    pub(crate) pages: Vec<usize>,
    pub(crate) len: usize,
}

/// Occupancy statistics of a [`PagedKvCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Pages currently allocated to sequences.
    pub allocated_pages: usize,
    /// Pages sitting in the free list (allocated from the pool but unused).
    pub free_pages: usize,
    /// Cached tokens across all sequences.
    pub tokens: usize,
    /// Live sequences.
    pub sequences: usize,
}

impl CacheStats {
    /// Fraction of allocated page slots holding real tokens (1.0 = no
    /// internal fragmentation).
    pub fn utilization(&self, page_size: usize) -> f64 {
        if self.allocated_pages == 0 {
            return 1.0;
        }
        self.tokens as f64 / (self.allocated_pages * page_size) as f64
    }
}

/// A paged KV cache for one attention layer on one rank.
///
/// Tokens are appended with explicit global positions (CP ranks hold
/// non-contiguous slices of each sequence) and gathered back as contiguous
/// tensors plus the position array — exactly the inputs the position-masked
/// attention kernels in `cp-attention` take.
///
/// With its INT8 plane on ([`PagedKvCache::set_int8`]) every page also
/// holds its tokens quantized per (token, head), written by the same
/// append; [`PagedKvCache::view`] then serves the INT8 pages. The f32
/// values stay the exact record that `gather` reads. One page table, one
/// pool and one free list serve both planes.
#[derive(Debug)]
pub struct PagedKvCache {
    config: KvCacheConfig,
    layout: PageLayout,
    pool: Vec<Page>,
    free: Vec<usize>,
    seqs: HashMap<u64, SeqState>,
    /// `Some` exactly while the INT8 plane is on.
    int8: Option<Int8Scratch>,
}

impl PagedKvCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if a dimension of `config` is zero.
    pub fn new(config: KvCacheConfig) -> Self {
        PagedKvCache {
            config,
            layout: config.layout(),
            pool: Vec::new(),
            free: Vec::new(),
            seqs: HashMap::new(),
            int8: None,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &KvCacheConfig {
        &self.config
    }

    /// Registers a new, empty sequence.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::DuplicateSequence`] if the id is live.
    pub fn create_sequence(&mut self, seq: SeqId) -> Result<(), CacheError> {
        if self.seqs.contains_key(&seq.0) {
            return Err(CacheError::DuplicateSequence { seq: seq.0 });
        }
        self.seqs.insert(seq.0, SeqState::default());
        Ok(())
    }

    /// Returns `true` if the sequence exists.
    pub fn contains(&self, seq: SeqId) -> bool {
        self.seqs.contains_key(&seq.0)
    }

    /// Cached token count for a sequence.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownSequence`] if absent.
    pub fn seq_len(&self, seq: SeqId) -> Result<usize, CacheError> {
        self.seqs
            .get(&seq.0)
            .map(|s| s.len)
            .ok_or(CacheError::UnknownSequence { seq: seq.0 })
    }

    /// Pages currently held by a sequence — the per-session occupancy an
    /// eviction policy weighs.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownSequence`] if absent.
    pub fn seq_pages(&self, seq: SeqId) -> Result<usize, CacheError> {
        self.seqs
            .get(&seq.0)
            .map(|s| s.pages.len())
            .ok_or(CacheError::UnknownSequence { seq: seq.0 })
    }

    /// Ids of all live sequences, sorted.
    pub fn sequence_ids(&self) -> Vec<SeqId> {
        let mut ids: Vec<SeqId> = self.seqs.keys().map(|&k| SeqId(k)).collect();
        ids.sort();
        ids
    }

    pub(crate) fn seq_state(&self, seq: SeqId) -> Result<(&SeqState, &PageLayout), CacheError> {
        let state = self
            .seqs
            .get(&seq.0)
            .ok_or(CacheError::UnknownSequence { seq: seq.0 })?;
        Ok((state, &self.layout))
    }

    pub(crate) fn page(&self, idx: usize) -> &Page {
        &self.pool[idx]
    }

    fn allocate_page(&mut self) -> Result<usize, CacheError> {
        if let Some(idx) = self.free.pop() {
            return Ok(idx);
        }
        if let Some(max) = self.config.max_pages {
            if self.pool.len() >= max {
                return Err(CacheError::OutOfPages {
                    needed: 1,
                    available: 0,
                });
            }
        }
        self.pool.push(Page::new(&self.layout, self.int8.is_some()));
        Ok(self.pool.len() - 1)
    }

    fn check_kv_shape(&self, t: &Tensor, input: &'static str) -> Result<usize, CacheError> {
        let s = t.shape();
        if s.len() != 3 || s[1] != self.config.n_kv_heads || s[2] != self.config.head_dim {
            return Err(CacheError::BadShape {
                input,
                expected: vec![self.config.n_kv_heads, self.config.head_dim],
                actual: s.to_vec(),
            });
        }
        Ok(s[0])
    }

    /// Appends `t` tokens of K/V (shape `[t, n_kv_heads, head_dim]`) with
    /// their global positions to a sequence.
    ///
    /// Appending is transactional with respect to capacity: the needed pages
    /// are reserved up front, so an [`CacheError::OutOfPages`] failure
    /// leaves the sequence unchanged.
    ///
    /// # Errors
    ///
    /// [`CacheError::UnknownSequence`], [`CacheError::BadShape`],
    /// [`CacheError::PositionCountMismatch`] or [`CacheError::OutOfPages`].
    pub fn append(
        &mut self,
        seq: SeqId,
        k: &Tensor,
        v: &Tensor,
        positions: &[usize],
    ) -> Result<(), CacheError> {
        let t = self.check_kv_shape(k, "k")?;
        let rows: Vec<usize> = (0..t).collect();
        self.append_rows(seq, k, v, &rows, positions)
    }

    /// Appends selected rows of K/V (shape `[t, n_kv_heads, head_dim]`,
    /// `rows[i] < t`) with their global positions, writing each row
    /// straight into its page slot in [`PageLayout`]'s format — the one
    /// transpose of a token's keys the kernels' panels need — and, while
    /// the INT8 plane is on, its quantization into the same slot.
    ///
    /// This is the CP sharding hot path: a rank appends the non-contiguous
    /// subset of the projected K/V it owns without a `gather_dim0` staging
    /// tensor.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PagedKvCache::append`]; additionally
    /// [`CacheError::BadShape`] if a row index is out of range.
    pub fn append_rows(
        &mut self,
        seq: SeqId,
        k: &Tensor,
        v: &Tensor,
        rows: &[usize],
        positions: &[usize],
    ) -> Result<(), CacheError> {
        let t_k = self.check_kv_shape(k, "k")?;
        let t_v = self.check_kv_shape(v, "v")?;
        if t_v != t_k {
            return Err(CacheError::BadShape {
                input: "v",
                expected: vec![self.config.n_kv_heads, self.config.head_dim],
                actual: v.shape().to_vec(),
            });
        }
        if let Some(&bad) = rows.iter().find(|&&r| r >= t_k) {
            return Err(CacheError::BadShape {
                input: "rows",
                expected: vec![t_k],
                actual: vec![bad],
            });
        }
        if positions.len() != rows.len() {
            return Err(CacheError::PositionCountMismatch {
                tokens: rows.len(),
                positions: positions.len(),
            });
        }
        if !self.seqs.contains_key(&seq.0) {
            return Err(CacheError::UnknownSequence { seq: seq.0 });
        }
        self.reserve_pages(seq, rows.len())?;
        let state = self.seqs.get_mut(&seq.0).expect("checked above");

        let layout = self.layout;
        for (i, (&row, &p)) in rows.iter().zip(positions).enumerate() {
            let (page_idx, slot) = layout.locate(state.len + i);
            let page = &mut self.pool[state.pages[page_idx]];
            layout.write_k(&mut page.k, slot, k.row(row));
            layout.write_v(&mut page.v, slot, v.row(row));
            page.pos[slot] = p;
            if let (Some(plane), Some(scratch)) = (&mut page.int8, &mut self.int8) {
                plane.write(&layout, slot, k.row(row), v.row(row), scratch);
            }
        }
        state.len += rows.len();
        Ok(())
    }

    /// Returns `true` while the INT8 plane is on.
    pub fn int8(&self) -> bool {
        self.int8.is_some()
    }

    /// Turns the INT8 plane on or off. Turning it on quantizes every live
    /// token from its f32 row; scales are per (token, head), so the plane
    /// is bitwise the one quantize-on-append would have written. Turning
    /// it off drops every page's plane. Pages and sequences are untouched
    /// either way, so the switch cannot fail.
    pub fn set_int8(&mut self, on: bool) {
        if on == self.int8.is_some() {
            return;
        }
        let layout = self.layout;
        for page in &mut self.pool {
            page.int8 = on.then(|| Int8Plane::new(&layout));
        }
        if !on {
            self.int8 = None;
            return;
        }
        let mut scratch = Int8Scratch::new(&layout);
        let (mut k_row, mut v_row) = (vec![0.0; layout.row_len()], vec![0.0; layout.row_len()]);
        for state in self.seqs.values() {
            for i in 0..state.len {
                let (page_idx, slot) = layout.locate(i);
                let Page { k, v, int8, .. } = &mut self.pool[state.pages[page_idx]];
                layout.read_k(k, slot, &mut k_row);
                layout.read_v(v, slot, &mut v_row);
                if let Some(plane) = int8 {
                    plane.write(&layout, slot, &k_row, &v_row, &mut scratch);
                }
            }
        }
        self.int8 = Some(scratch);
    }

    /// Reserves enough pages for `t` more tokens, transactionally: a
    /// capacity failure leaves the sequence unchanged.
    fn reserve_pages(&mut self, seq: SeqId, t: usize) -> Result<(), CacheError> {
        let (cur_len, cur_pages) = {
            let s = &self.seqs[&seq.0];
            (s.len, s.pages.len())
        };
        let needed_total_pages = self.layout.pages_for(cur_len + t);
        let new_pages_needed = needed_total_pages.saturating_sub(cur_pages);
        if let Some(max) = self.config.max_pages {
            let in_use = self.pool.len() - self.free.len();
            let headroom = self.free.len() + max.saturating_sub(self.pool.len());
            if new_pages_needed > headroom {
                return Err(CacheError::OutOfPages {
                    needed: new_pages_needed,
                    available: headroom,
                });
            }
            debug_assert!(in_use <= max);
        }
        let mut reserved = Vec::with_capacity(new_pages_needed);
        for _ in 0..new_pages_needed {
            let idx = self.allocate_page().expect("capacity checked above");
            reserved.push(idx);
        }
        self.seqs
            .get_mut(&seq.0)
            .expect("checked by caller")
            .pages
            .extend(reserved);
        Ok(())
    }

    /// Gathers a sequence's cached K, V (shape `[len, n_kv_heads,
    /// head_dim]`) and positions in append order.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownSequence`] if absent.
    pub fn gather(&self, seq: SeqId) -> Result<(Tensor, Tensor, Vec<usize>), CacheError> {
        let state = self
            .seqs
            .get(&seq.0)
            .ok_or(CacheError::UnknownSequence { seq: seq.0 })?;
        let layout = &self.layout;
        let tok = layout.row_len();
        let mut kd = vec![0.0; state.len * tok];
        let mut vd = vec![0.0; state.len * tok];
        let mut pos = Vec::with_capacity(state.len);
        for (i, (k_row, v_row)) in kd
            .chunks_exact_mut(tok)
            .zip(vd.chunks_exact_mut(tok))
            .enumerate()
        {
            let (page_idx, slot) = layout.locate(i);
            let page = &self.pool[state.pages[page_idx]];
            layout.read_k(&page.k, slot, k_row);
            layout.read_v(&page.v, slot, v_row);
            pos.push(page.pos[slot]);
        }
        let shape = [state.len, self.config.n_kv_heads, self.config.head_dim];
        Ok((
            Tensor::from_vec(kd, &shape)?,
            Tensor::from_vec(vd, &shape)?,
            pos,
        ))
    }

    /// Gathers a sequence's INT8 plane — quantized K, V and positions in
    /// append order, bitwise equal to a contiguous [`QuantizedKv`] grown by
    /// [`QuantizedKv::extend`] over the same appends — or `None` while the
    /// plane is off.
    ///
    /// The kernels attend the plane in place through
    /// [`PagedKvCache::view`]; this copy is for a rank that must put its
    /// INT8 shard on the wire, and for tests.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownSequence`] if absent.
    pub fn gather_int8(
        &self,
        seq: SeqId,
    ) -> Result<Option<(QuantizedKv, QuantizedKv, Vec<usize>)>, CacheError> {
        let state = self
            .seqs
            .get(&seq.0)
            .ok_or(CacheError::UnknownSequence { seq: seq.0 })?;
        if self.int8.is_none() {
            return Ok(None);
        }
        let layout = &self.layout;
        let (n, tok, hs) = (state.len, layout.row_len(), layout.n_kv_heads());
        let (mut k_codes, mut v_codes) = (vec![0i8; n * tok], vec![0i8; n * tok]);
        let (mut k_scales, mut v_scales) = (vec![0.0f32; n * hs], vec![0.0f32; n * hs]);
        let mut pos = Vec::with_capacity(n);
        let k_rows = k_codes
            .chunks_exact_mut(tok)
            .zip(k_scales.chunks_exact_mut(hs));
        let v_rows = v_codes
            .chunks_exact_mut(tok)
            .zip(v_scales.chunks_exact_mut(hs));
        for (i, ((kc, ks), (vc, vs))) in k_rows.zip(v_rows).enumerate() {
            let (page_idx, slot) = layout.locate(i);
            let page = &self.pool[state.pages[page_idx]];
            if let Some(plane) = &page.int8 {
                layout.read_k(&plane.k_codes, slot, kc);
                layout.read_scales(&plane.k_scales, slot, ks);
                layout.read_v(&plane.v_codes, slot, vc);
                layout.read_scales(&plane.v_scales, slot, vs);
            }
            pos.push(page.pos[slot]);
        }
        let dh = layout.head_dim();
        Ok(Some((
            QuantizedKv::from_parts(k_codes, k_scales, n, hs, dh)?,
            QuantizedKv::from_parts(v_codes, v_scales, n, hs, dh)?,
            pos,
        )))
    }

    /// Positions of a sequence's cached tokens, in append order.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownSequence`] if absent.
    pub fn positions(&self, seq: SeqId) -> Result<Vec<usize>, CacheError> {
        let state = self
            .seqs
            .get(&seq.0)
            .ok_or(CacheError::UnknownSequence { seq: seq.0 })?;
        Ok((0..state.len)
            .map(|i| {
                let (page_idx, slot) = self.layout.locate(i);
                self.pool[state.pages[page_idx]].pos[slot]
            })
            .collect())
    }

    /// Shrinks a sequence to `new_len` tokens (dropping the most recent
    /// ones), releasing now-empty pages. Supports speculative-decoding
    /// rollback.
    ///
    /// # Errors
    ///
    /// [`CacheError::UnknownSequence`] or [`CacheError::BadTruncate`] if
    /// `new_len` exceeds the current length.
    pub fn truncate(&mut self, seq: SeqId, new_len: usize) -> Result<(), CacheError> {
        let state = self
            .seqs
            .get_mut(&seq.0)
            .ok_or(CacheError::UnknownSequence { seq: seq.0 })?;
        if new_len > state.len {
            return Err(CacheError::BadTruncate {
                requested: new_len,
                current: state.len,
            });
        }
        let released = state.pages.split_off(self.layout.pages_for(new_len));
        state.len = new_len;
        self.free.extend(released);
        Ok(())
    }

    /// Removes a sequence, returning its pages to the free list.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::UnknownSequence`] if absent.
    pub fn free_sequence(&mut self, seq: SeqId) -> Result<(), CacheError> {
        let state = self
            .seqs
            .remove(&seq.0)
            .ok_or(CacheError::UnknownSequence { seq: seq.0 })?;
        self.free.extend(state.pages);
        Ok(())
    }

    /// Current occupancy statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            allocated_pages: self.pool.len() - self.free.len(),
            free_pages: self.free.len(),
            tokens: self.seqs.values().map(|s| s.len).sum(),
            sequences: self.seqs.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_tensor::DetRng;

    fn cfg() -> KvCacheConfig {
        KvCacheConfig::new(4, 2, 3)
    }

    fn kv(rng: &mut DetRng, t: usize) -> (Tensor, Tensor) {
        (rng.tensor(&[t, 2, 3]), rng.tensor(&[t, 2, 3]))
    }

    #[test]
    fn append_and_gather_roundtrip() {
        let mut cache = PagedKvCache::new(cfg());
        let seq = SeqId(1);
        cache.create_sequence(seq).unwrap();
        let mut rng = DetRng::new(1);
        let (k, v) = kv(&mut rng, 6);
        let pos = [0, 2, 4, 6, 8, 10];
        cache.append(seq, &k, &v, &pos).unwrap();
        let (gk, gv, gpos) = cache.gather(seq).unwrap();
        assert_eq!(gk, k);
        assert_eq!(gv, v);
        assert_eq!(gpos, pos.to_vec());
        assert_eq!(cache.seq_len(seq).unwrap(), 6);
    }

    #[test]
    fn append_rows_matches_gather_then_append() {
        // The sharding hot path: appending a non-contiguous row subset
        // directly must equal the old staging path (gather_dim0 into a
        // contiguous tensor, then append) bit for bit.
        let mut rng = DetRng::new(21);
        let (k, v) = kv(&mut rng, 9);
        let rows = [1usize, 4, 5, 8];
        let positions: Vec<usize> = rows.to_vec();

        let mut direct = PagedKvCache::new(cfg());
        direct.create_sequence(SeqId(0)).unwrap();
        direct
            .append_rows(SeqId(0), &k, &v, &rows, &positions)
            .unwrap();

        let mut staged = PagedKvCache::new(cfg());
        staged.create_sequence(SeqId(0)).unwrap();
        let sk = k.gather_dim0(&rows).unwrap();
        let sv = v.gather_dim0(&rows).unwrap();
        staged.append(SeqId(0), &sk, &sv, &positions).unwrap();

        assert_eq!(
            direct.gather(SeqId(0)).unwrap(),
            staged.gather(SeqId(0)).unwrap()
        );

        // Out-of-range row index is a typed error, not a panic, and the
        // failed call leaves the sequence unchanged.
        assert!(matches!(
            direct.append_rows(SeqId(0), &k, &v, &[9], &[10]),
            Err(CacheError::BadShape { input: "rows", .. })
        ));
        assert_eq!(direct.seq_len(SeqId(0)).unwrap(), 4);
    }

    #[test]
    fn multiple_appends_accumulate_across_page_boundaries() {
        let mut cache = PagedKvCache::new(cfg()); // page_size 4
        let seq = SeqId(2);
        cache.create_sequence(seq).unwrap();
        let mut rng = DetRng::new(2);
        let (k1, v1) = kv(&mut rng, 3);
        let (k2, v2) = kv(&mut rng, 3);
        cache.append(seq, &k1, &v1, &[0, 1, 2]).unwrap();
        cache.append(seq, &k2, &v2, &[3, 4, 5]).unwrap();
        let (gk, gv, pos) = cache.gather(seq).unwrap();
        assert_eq!(gk, Tensor::concat_dim0([&k1, &k2]).unwrap());
        assert_eq!(gv, Tensor::concat_dim0([&v1, &v2]).unwrap());
        assert_eq!(pos, vec![0, 1, 2, 3, 4, 5]);
        // 6 tokens over 4-token pages: 2 pages allocated.
        assert_eq!(cache.stats().allocated_pages, 2);
    }

    #[test]
    fn capacity_limit_enforced_transactionally() {
        for int8 in [false, true] {
            let mut cache = PagedKvCache::new(cfg().with_max_pages(2)); // 8 tokens
            cache.set_int8(int8);
            let seq = SeqId(3);
            cache.create_sequence(seq).unwrap();
            let mut rng = DetRng::new(3);
            let (k, v) = kv(&mut rng, 8);
            let pos: Vec<usize> = (0..8).collect();
            cache.append(seq, &k, &v, &pos).unwrap();
            let plane = cache.gather_int8(seq).unwrap();
            let (k2, v2) = kv(&mut rng, 1);
            let err = cache.append(seq, &k2, &v2, &[8]).unwrap_err();
            assert!(matches!(err, CacheError::OutOfPages { .. }));
            // Sequence unchanged after the failed append: f32 rows and
            // INT8 rows alike.
            assert_eq!(cache.seq_len(seq).unwrap(), 8);
            let (gk, gv, _) = cache.gather(seq).unwrap();
            assert_eq!((gk, gv), (k.clone(), v.clone()), "int8={int8}");
            assert_eq!(cache.gather_int8(seq).unwrap(), plane, "int8={int8}");
            if int8 {
                let (qk, qv, _) = plane.unwrap();
                assert_eq!(qk, QuantizedKv::quantize(&k).unwrap());
                assert_eq!(qv, QuantizedKv::quantize(&v).unwrap());
            }
        }
    }

    #[test]
    fn freed_pages_are_reused() {
        let mut cache = PagedKvCache::new(cfg().with_max_pages(2));
        let mut rng = DetRng::new(4);
        let a = SeqId(1);
        cache.create_sequence(a).unwrap();
        let (k, v) = kv(&mut rng, 8);
        cache
            .append(a, &k, &v, &(0..8).collect::<Vec<_>>())
            .unwrap();
        cache.free_sequence(a).unwrap();
        assert_eq!(cache.stats().free_pages, 2);
        // A new sequence can use the released pages despite max_pages = 2.
        let b = SeqId(2);
        cache.create_sequence(b).unwrap();
        let (k2, v2) = kv(&mut rng, 8);
        cache
            .append(b, &k2, &v2, &(0..8).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(cache.stats().allocated_pages, 2);
        assert_eq!(cache.stats().free_pages, 0);
    }

    #[test]
    fn truncate_rolls_back_and_releases_pages() {
        let mut cache = PagedKvCache::new(cfg());
        let seq = SeqId(5);
        cache.create_sequence(seq).unwrap();
        let mut rng = DetRng::new(5);
        let (k, v) = kv(&mut rng, 10);
        let pos: Vec<usize> = (0..10).collect();
        cache.append(seq, &k, &v, &pos).unwrap();
        assert_eq!(cache.stats().allocated_pages, 3);
        cache.truncate(seq, 4).unwrap();
        assert_eq!(cache.seq_len(seq).unwrap(), 4);
        assert_eq!(cache.stats().allocated_pages, 1);
        let (gk, _, gpos) = cache.gather(seq).unwrap();
        assert_eq!(gk, k.slice_dim0(0..4).unwrap());
        assert_eq!(gpos, vec![0, 1, 2, 3]);
        // Appending after truncate continues from the new length.
        let (k2, v2) = kv(&mut rng, 2);
        cache.append(seq, &k2, &v2, &[4, 5]).unwrap();
        assert_eq!(cache.seq_len(seq).unwrap(), 6);
        assert!(matches!(
            cache.truncate(seq, 100),
            Err(CacheError::BadTruncate { .. })
        ));
    }

    #[test]
    fn unknown_and_duplicate_sequences_error() {
        let mut cache = PagedKvCache::new(cfg());
        let seq = SeqId(6);
        assert!(matches!(
            cache.seq_len(seq),
            Err(CacheError::UnknownSequence { seq: 6 })
        ));
        assert!(cache.gather(seq).is_err());
        assert!(cache.free_sequence(seq).is_err());
        cache.create_sequence(seq).unwrap();
        assert!(matches!(
            cache.create_sequence(seq),
            Err(CacheError::DuplicateSequence { seq: 6 })
        ));
    }

    #[test]
    fn shape_validation() {
        let mut cache = PagedKvCache::new(cfg());
        let seq = SeqId(7);
        cache.create_sequence(seq).unwrap();
        let bad = Tensor::zeros(&[2, 3, 3]); // wrong head count
        let good = Tensor::zeros(&[2, 2, 3]);
        assert!(matches!(
            cache.append(seq, &bad, &good, &[0, 1]),
            Err(CacheError::BadShape { input: "k", .. })
        ));
        assert!(matches!(
            cache.append(seq, &good, &bad, &[0, 1]),
            Err(CacheError::BadShape { input: "v", .. })
        ));
        // k/v token count mismatch
        let one = Tensor::zeros(&[1, 2, 3]);
        assert!(cache.append(seq, &good, &one, &[0, 1]).is_err());
        // wrong positions length
        assert!(matches!(
            cache.append(seq, &good, &good, &[0]),
            Err(CacheError::PositionCountMismatch {
                tokens: 2,
                positions: 1
            })
        ));
    }

    #[test]
    fn stats_and_utilization() {
        let mut cache = PagedKvCache::new(cfg());
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(cache.stats().utilization(4), 1.0);
        let seq = SeqId(8);
        cache.create_sequence(seq).unwrap();
        let mut rng = DetRng::new(8);
        let (k, v) = kv(&mut rng, 5);
        cache.append(seq, &k, &v, &[0, 1, 2, 3, 4]).unwrap();
        let s = cache.stats();
        assert_eq!(s.tokens, 5);
        assert_eq!(s.allocated_pages, 2);
        assert_eq!(s.sequences, 1);
        // 5 tokens over 8 slots.
        assert!((s.utilization(4) - 0.625).abs() < 1e-12);
    }

    #[test]
    fn sequence_ids_sorted() {
        let mut cache = PagedKvCache::new(cfg());
        for id in [5, 1, 3] {
            cache.create_sequence(SeqId(id)).unwrap();
        }
        assert_eq!(cache.sequence_ids(), vec![SeqId(1), SeqId(3), SeqId(5)]);
        assert!(cache.contains(SeqId(3)));
        assert!(!cache.contains(SeqId(2)));
    }

    #[test]
    fn empty_sequence_gathers_empty() {
        let mut cache = PagedKvCache::new(cfg());
        let seq = SeqId(9);
        cache.create_sequence(seq).unwrap();
        let (k, v, pos) = cache.gather(seq).unwrap();
        assert_eq!(k.shape(), &[0, 2, 3]);
        assert_eq!(v.shape(), &[0, 2, 3]);
        assert!(pos.is_empty());
    }

    #[test]
    #[should_panic(expected = "cache dimensions must be positive")]
    fn zero_page_size_panics() {
        KvCacheConfig::new(0, 2, 3);
    }
}
