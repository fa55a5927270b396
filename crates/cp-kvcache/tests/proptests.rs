//! Property-based tests: the paged cache behaves like a simple
//! append-only log, regardless of page size or append batching, and the
//! zero-copy [`cp_kvcache::KvView`] hot path feeds the attention kernels
//! bit-identically to a gathered copy.

use cp_attention::{blocked_gqa_attention_source, AttentionParams, GqaShape, KvSource};
use cp_kvcache::{KvCacheConfig, PagedKvCache, QuantizedKv, SeqId};
use cp_pool::ComputePool;
use cp_tensor::{DetRng, Tensor};
use proptest::prelude::*;

/// An empty cache with its INT8 plane on.
fn int8_cache(config: KvCacheConfig) -> PagedKvCache {
    let mut cache = PagedKvCache::new(config);
    cache.set_int8(true);
    cache
}

/// A sequence's INT8 plane: quantized K, V and positions.
fn int8_rows(cache: &PagedKvCache, seq: SeqId) -> (QuantizedKv, QuantizedKv, Vec<usize>) {
    cache.gather_int8(seq).unwrap().expect("INT8 plane is on")
}

proptest! {
    /// Appending in arbitrary chunk sizes gathers back the same data as the
    /// flat reference log, for any page size.
    #[test]
    fn paged_cache_equals_flat_log(
        page_size in 1usize..9,
        chunks in prop::collection::vec(0usize..7, 1..8),
        seed in any::<u64>(),
    ) {
        let mut cache = PagedKvCache::new(KvCacheConfig::new(page_size, 2, 3));
        let seq = SeqId(1);
        cache.create_sequence(seq).unwrap();
        let mut rng = DetRng::new(seed);
        let mut ref_k: Vec<Tensor> = Vec::new();
        let mut ref_v: Vec<Tensor> = Vec::new();
        let mut ref_pos: Vec<usize> = Vec::new();
        let mut next_pos = 0;
        for t in chunks {
            let k = rng.tensor(&[t, 2, 3]);
            let v = rng.tensor(&[t, 2, 3]);
            let pos: Vec<usize> = (next_pos..next_pos + t).collect();
            next_pos += t;
            cache.append(seq, &k, &v, &pos).unwrap();
            ref_k.push(k);
            ref_v.push(v);
            ref_pos.extend(pos);
        }
        let (gk, gv, gpos) = cache.gather(seq).unwrap();
        if ref_pos.is_empty() {
            prop_assert_eq!(gk.dim0(), 0);
        } else {
            prop_assert_eq!(gk, Tensor::concat_dim0(ref_k.iter()).unwrap());
            prop_assert_eq!(gv, Tensor::concat_dim0(ref_v.iter()).unwrap());
        }
        prop_assert_eq!(gpos, ref_pos);
    }

    /// Interleaved appends to multiple sequences stay isolated.
    #[test]
    fn sequences_are_isolated(
        page_size in 1usize..6,
        ops in prop::collection::vec((0usize..3, 1usize..5), 1..12),
        seed in any::<u64>(),
    ) {
        let mut cache = PagedKvCache::new(KvCacheConfig::new(page_size, 1, 2));
        let mut rng = DetRng::new(seed);
        let mut logs: Vec<Vec<f32>> = vec![Vec::new(); 3];
        for s in 0..3u64 {
            cache.create_sequence(SeqId(s)).unwrap();
        }
        for (s, t) in ops {
            let k = rng.tensor(&[t, 1, 2]);
            let v = k.clone();
            let start = logs[s].len() / 2;
            let pos: Vec<usize> = (start..start + t).collect();
            cache.append(SeqId(s as u64), &k, &v, &pos).unwrap();
            logs[s].extend_from_slice(k.as_slice());
        }
        for (s, log) in logs.iter().enumerate() {
            let (gk, gv, _) = cache.gather(SeqId(s as u64)).unwrap();
            prop_assert_eq!(gk.as_slice(), log.as_slice());
            prop_assert_eq!(gv.as_slice(), log.as_slice());
        }
    }

    /// Truncate-then-gather equals the prefix of the reference log, and
    /// stats never report more pages than ceil(tokens / page_size) + frag.
    #[test]
    fn truncate_is_prefix(
        page_size in 1usize..6,
        total in 1usize..30,
        keep_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut cache = PagedKvCache::new(KvCacheConfig::new(page_size, 1, 2));
        let seq = SeqId(0);
        cache.create_sequence(seq).unwrap();
        let mut rng = DetRng::new(seed);
        let k = rng.tensor(&[total, 1, 2]);
        let v = rng.tensor(&[total, 1, 2]);
        let pos: Vec<usize> = (0..total).collect();
        cache.append(seq, &k, &v, &pos).unwrap();
        let keep = ((total as f64) * keep_frac) as usize;
        cache.truncate(seq, keep).unwrap();
        let (gk, _, gpos) = cache.gather(seq).unwrap();
        prop_assert_eq!(gk.as_slice(), &k.as_slice()[..keep * 2]);
        prop_assert_eq!(gpos, (0..keep).collect::<Vec<_>>());
        let stats = cache.stats();
        prop_assert_eq!(stats.tokens, keep);
        prop_assert_eq!(stats.allocated_pages, keep.div_ceil(page_size));
    }

    /// A bounded pool never exceeds its max and OOM appends never corrupt
    /// existing state.
    #[test]
    fn bounded_pool_respects_capacity(
        max_pages in 1usize..5,
        appends in prop::collection::vec(1usize..6, 1..10),
        seed in any::<u64>(),
    ) {
        let page_size = 2;
        let mut cache =
            PagedKvCache::new(KvCacheConfig::new(page_size, 1, 2).with_max_pages(max_pages));
        let seq = SeqId(0);
        cache.create_sequence(seq).unwrap();
        let mut rng = DetRng::new(seed);
        let mut committed = 0usize;
        for t in appends {
            let k = rng.tensor(&[t, 1, 2]);
            let v = rng.tensor(&[t, 1, 2]);
            let pos: Vec<usize> = (committed..committed + t).collect();
            match cache.append(seq, &k, &v, &pos) {
                Ok(()) => committed += t,
                Err(_) => {
                    // Rejected: length unchanged.
                    prop_assert_eq!(cache.seq_len(seq).unwrap(), committed);
                }
            }
            prop_assert!(cache.stats().allocated_pages <= max_pages);
            prop_assert!(committed <= max_pages * page_size);
        }
    }

    /// Attention over the zero-copy paged view is BIT-identical to
    /// attention over the gathered contiguous copy, across ragged page
    /// boundaries (`page_size` not dividing the token count), arbitrary
    /// multi-turn append batching, arbitrary block sizes (page-aligned or
    /// not), and pages freed and reused by another sequence — at the
    /// prefill shape and at the decode shape (one query) both.
    #[test]
    fn view_attention_bit_identical_to_gather(
        page_size in 1usize..7,
        chunks in prop::collection::vec(1usize..9, 1..6),
        block_size in 1usize..20,
        seed in any::<u64>(),
    ) {
        let shape = GqaShape::new(4, 2, 4).unwrap();
        let params = AttentionParams::for_shape(shape);
        let mut cache = PagedKvCache::new(KvCacheConfig::new(page_size, 2, 4));
        let mut rng = DetRng::new(seed);

        // Churn: a doomed sequence allocates pages, then frees them, so
        // the sequence under test lands on reused pages.
        let doomed = SeqId(9);
        cache.create_sequence(doomed).unwrap();
        let dk = rng.tensor(&[5, 2, 4]);
        cache.append(doomed, &dk, &dk, &[0, 1, 2, 3, 4]).unwrap();
        cache.free_sequence(doomed).unwrap();

        let seq = SeqId(1);
        cache.create_sequence(seq).unwrap();
        let mut total = 0usize;
        for t in chunks {
            let k = rng.tensor(&[t, 2, 4]);
            let v = rng.tensor(&[t, 2, 4]);
            let pos: Vec<usize> = (total..total + t).collect();
            cache.append(seq, &k, &v, &pos).unwrap();
            total += t;
        }

        let (gk, gv, gpos) = cache.gather(seq).unwrap();
        let view = cache.view(seq).unwrap();
        prop_assert_eq!(view.positions(), &gpos[..]);

        // Blocked prefill kernel: two query rows attending from the tail.
        let q = rng.tensor(&[2, 4, 4]);
        let q_pos = vec![total.saturating_sub(1), total];
        let pool = ComputePool::new(2);
        let gathered = blocked_gqa_attention_source(
            &pool, &q, &KvSource::contiguous(&gk, &gv), &params, &q_pos, &gpos, block_size,
        ).unwrap();
        let viewed = blocked_gqa_attention_source(
            &pool, &q, &view.source(), &params, &q_pos, &gpos, block_size,
        ).unwrap();
        prop_assert_eq!(gathered.out.as_slice(), viewed.out.as_slice());
        prop_assert_eq!(gathered.lse.as_slice(), viewed.lse.as_slice());

        // Decode shape: one query token at the next position.
        let dq = rng.tensor(&[1, 4, 4]);
        let dg = blocked_gqa_attention_source(
            &pool, &dq, &KvSource::contiguous(&gk, &gv), &params, &[total], &gpos, block_size,
        ).unwrap();
        let dv = blocked_gqa_attention_source(
            &pool, &dq, &view.source(), &params, &[total], &gpos, block_size,
        ).unwrap();
        prop_assert_eq!(dg.out.as_slice(), dv.out.as_slice());
        prop_assert_eq!(dg.lse.as_slice(), dv.lse.as_slice());
    }

    /// The cache's INT8 plane under scheduler-grade churn — interleaved
    /// appends, truncations, frees and re-creations across sequences on a
    /// bounded pool that forces page reuse, and the plane turned off and
    /// back on with live sequences — stays BITWISE equal, per sequence, to
    /// a contiguous [`QuantizedKv`] shadow grown with `quantize` +
    /// `extend` / `truncate`. This is exactly the `extend`-vs-eviction
    /// interaction: a freed-then-reused page must never bleed a previous
    /// tenant's codes, scales or positions. A plane rebuilt from the f32
    /// rows is bitwise the one quantize-on-append wrote, and the toggle
    /// leaves the f32 rows untouched.
    #[test]
    fn quant_store_equals_contiguous_shadow_under_churn(
        page_size in 1usize..5,
        max_pages in 4usize..9,
        ops in prop::collection::vec((0usize..5, 0u64..3, 1usize..6, 0.0f64..1.0), 1..25),
        seed in any::<u64>(),
    ) {
        let config = KvCacheConfig::new(page_size, 2, 3).with_max_pages(max_pages);
        let mut cache = int8_cache(config);
        let mut rng = DetRng::new(seed);
        // Shadow: per live sequence, the contiguous quantized K/V and
        // position log the paged store must reproduce bit-for-bit.
        let mut shadow: std::collections::HashMap<u64, (QuantizedKv, QuantizedKv, Vec<usize>)> =
            std::collections::HashMap::new();
        for (op, s, t, frac) in ops {
            let seq = SeqId(s);
            match op {
                // Append t tokens (creating the sequence on first touch).
                0 | 1 => {
                    if !cache.contains(seq) {
                        cache.create_sequence(seq).unwrap();
                        let empty = QuantizedKv::quantize(&Tensor::zeros(&[0, 2, 3])).unwrap();
                        shadow.insert(s, (empty.clone(), empty, Vec::new()));
                    }
                    let k = rng.tensor(&[t, 2, 3]);
                    let v = rng.tensor(&[t, 2, 3]);
                    let entry = shadow.get_mut(&s).unwrap();
                    let start = entry.2.len();
                    let pos: Vec<usize> = (start..start + t).collect();
                    match cache.append(seq, &k, &v, &pos) {
                        Ok(()) => {
                            entry.0.extend(&QuantizedKv::quantize(&k).unwrap()).unwrap();
                            entry.1.extend(&QuantizedKv::quantize(&v).unwrap()).unwrap();
                            entry.2.extend(pos);
                        }
                        Err(cp_kvcache::CacheError::OutOfPages { .. }) => {
                            // Transactional: the rejected append must leave
                            // the sequence exactly as the shadow remembers.
                            prop_assert_eq!(cache.seq_len(seq).unwrap(), entry.2.len());
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("append: {e}"))),
                    }
                }
                // Truncate to a fraction of the current length.
                2 => {
                    if let Some(entry) = shadow.get_mut(&s) {
                        let keep = ((entry.2.len() as f64) * frac) as usize;
                        cache.truncate(seq, keep).unwrap();
                        entry.0.truncate(keep).unwrap();
                        entry.1.truncate(keep).unwrap();
                        entry.2.truncate(keep);
                    }
                }
                // Evict: free the sequence, returning pages for reuse.
                3 => {
                    if shadow.remove(&s).is_some() {
                        cache.free_sequence(seq).unwrap();
                    }
                }
                // Turn the plane off and back on over the live sequences.
                _ => {
                    let ids = cache.sequence_ids();
                    let f32_rows: Vec<_> = ids.iter().map(|&id| cache.gather(id).unwrap()).collect();
                    cache.set_int8(false);
                    prop_assert!(!cache.int8());
                    for &id in &ids {
                        prop_assert!(cache.gather_int8(id).unwrap().is_none());
                    }
                    cache.set_int8(true);
                    for (&id, rows) in ids.iter().zip(&f32_rows) {
                        prop_assert_eq!(&cache.gather(id).unwrap(), rows);
                    }
                }
            }
            // Invariants after every op: pool bounded, every live
            // sequence bitwise equal to its shadow.
            let stats = cache.stats();
            prop_assert!(stats.allocated_pages + stats.free_pages <= max_pages);
            prop_assert_eq!(stats.sequences, shadow.len());
            for (&id, (sk, sv, spos)) in &shadow {
                let (gk, gv, gpos) = int8_rows(&cache, SeqId(id));
                prop_assert_eq!(&gk, sk);
                prop_assert_eq!(&gv, sv);
                prop_assert_eq!(&gpos, spos);
                prop_assert_eq!(cache.seq_pages(SeqId(id)).unwrap(),
                    spos.len().div_ceil(page_size));
            }
        }
    }

    /// Attention straight over quantized pages (per-head dequantize into a
    /// kernel scratch, no materialized f32 copy) is BITWISE equal to
    /// attention over the gathered-and-dequantized tensors it replaced, and
    /// within quantization tolerance of the exact f32 attention — across
    /// ragged page boundaries (`page_size` not dividing the token count),
    /// multi-turn append batching, freed-and-reused pages, arbitrary block
    /// sizes, and both the prefill and the decode (one query) shape.
    #[test]
    fn quant_paged_attention_bitwise_vs_dequantized_and_close_to_f32(
        page_size in 1usize..7,
        chunks in prop::collection::vec(1usize..9, 1..6),
        block_size in 1usize..20,
        seed in any::<u64>(),
    ) {
        let shape = GqaShape::new(4, 2, 4).unwrap();
        let params = AttentionParams::for_shape(shape);
        let mut cache = int8_cache(KvCacheConfig::new(page_size, 2, 4));
        let mut rng = DetRng::new(seed);

        // Churn: a doomed sequence allocates pages, then frees them, so
        // the sequence under test lands on reused pages.
        let doomed = SeqId(9);
        cache.create_sequence(doomed).unwrap();
        let dk = rng.tensor(&[5, 2, 4]);
        cache.append(doomed, &dk, &dk, &[0, 1, 2, 3, 4]).unwrap();
        cache.free_sequence(doomed).unwrap();

        let seq = SeqId(1);
        cache.create_sequence(seq).unwrap();
        let mut f32_k: Vec<Tensor> = Vec::new();
        let mut f32_v: Vec<Tensor> = Vec::new();
        let mut total = 0usize;
        for t in chunks {
            let k = rng.tensor(&[t, 2, 4]);
            let v = rng.tensor(&[t, 2, 4]);
            let pos: Vec<usize> = (total..total + t).collect();
            cache.append(seq, &k, &v, &pos).unwrap();
            f32_k.push(k);
            f32_v.push(v);
            total += t;
        }
        let fk = Tensor::concat_dim0(f32_k.iter()).unwrap();
        let fv = Tensor::concat_dim0(f32_v.iter()).unwrap();

        let (qk, qv, gpos) = int8_rows(&cache, seq);
        let (dqk, dqv) = (qk.dequantize(), qv.dequantize());
        let view = cache.view(seq).unwrap();
        prop_assert_eq!(view.positions(), &gpos[..]);
        let tol = 0.05f32; // generous vs the ~0.02 pinned unit bound

        // Blocked prefill kernel: two query rows attending from the tail.
        let q = rng.tensor(&[2, 4, 4]);
        let q_pos = vec![total.saturating_sub(1), total];
        let pool = ComputePool::new(2);
        let deq = blocked_gqa_attention_source(
            &pool, &q, &KvSource::contiguous(&dqk, &dqv), &params, &q_pos, &gpos, block_size,
        ).unwrap();
        let quant = blocked_gqa_attention_source(
            &pool, &q, &view.source(), &params, &q_pos, &gpos, block_size,
        ).unwrap();
        prop_assert_eq!(deq.out.as_slice(), quant.out.as_slice());
        prop_assert_eq!(deq.lse.as_slice(), quant.lse.as_slice());
        let exact = blocked_gqa_attention_source(
            &pool, &q, &KvSource::contiguous(&fk, &fv), &params, &q_pos, &gpos, block_size,
        ).unwrap();
        prop_assert!(exact.out.max_abs_diff(&quant.out).unwrap() < tol);

        // Decode shape: one query token at the next position.
        let dq = rng.tensor(&[1, 4, 4]);
        let dd = blocked_gqa_attention_source(
            &pool, &dq, &KvSource::contiguous(&dqk, &dqv), &params, &[total], &gpos, block_size,
        ).unwrap();
        let dv2 = blocked_gqa_attention_source(
            &pool, &dq, &view.source(), &params, &[total], &gpos, block_size,
        ).unwrap();
        prop_assert_eq!(dd.out.as_slice(), dv2.out.as_slice());
        prop_assert_eq!(dd.lse.as_slice(), dv2.lse.as_slice());
        let de = blocked_gqa_attention_source(
            &pool, &dq, &KvSource::contiguous(&fk, &fv), &params, &[total], &gpos, block_size,
        ).unwrap();
        prop_assert!(de.out.max_abs_diff(&dv2.out).unwrap() < tol);
    }

    /// Pages in the kernel's layout round-trip exactly. Under append /
    /// append_rows / truncate / free churn (freed pages are reused by the
    /// next sequence to grow) and at page sizes around the kernel's 8-wide
    /// panels, every live sequence's `gather` is exactly its appended rows,
    /// the view's `k_head` / `v_head` read back the same rows, and an INT8
    /// plane's pages are bitwise its `QuantizedKv::extend` shadow.
    #[test]
    fn kernel_layout_pages_round_trip_under_churn(
        page_size in prop_oneof![Just(1usize), Just(3), Just(7), Just(8), Just(16), Just(17)],
        ops in prop::collection::vec((0usize..5, 0u64..3, 1usize..12, 0.0f64..1.0), 1..16),
        seed in any::<u64>(),
    ) {
        let (nkv, dh) = (2usize, 3usize);
        let config = KvCacheConfig::new(page_size, nkv, dh);
        let (mut cache, mut quant) = (PagedKvCache::new(config), int8_cache(config));
        let mut rng = DetRng::new(seed);
        // Per live sequence: the appended K and V rows and their INT8 shadow.
        let mut shadow: std::collections::BTreeMap<u64, (Tensor, Tensor, QuantizedKv, QuantizedKv)> =
            std::collections::BTreeMap::new();
        for (op, s, t, frac) in ops {
            let seq = SeqId(s);
            match op {
                // Append t rows, whole or as a scattered row selection.
                0..=2 => {
                    let empty = Tensor::zeros(&[0, nkv, dh]);
                    let entry = shadow.entry(s).or_insert_with(|| {
                        cache.create_sequence(seq).unwrap();
                        quant.create_sequence(seq).unwrap();
                        let q = QuantizedKv::quantize(&empty).unwrap();
                        (empty.clone(), empty.clone(), q.clone(), q)
                    });
                    let (k_all, v_all) = (rng.tensor(&[t + 3, nkv, dh]), rng.tensor(&[t + 3, nkv, dh]));
                    let rows: Vec<usize> = if op == 0 {
                        (0..t).collect()
                    } else {
                        (0..t).map(|i| (i * 5 + op) % (t + 3)).collect()
                    };
                    let (k, v) = (k_all.gather_dim0(&rows).unwrap(), v_all.gather_dim0(&rows).unwrap());
                    let start = entry.0.dim0();
                    let pos: Vec<usize> = (start..start + t).collect();
                    if op == 0 {
                        cache.append(seq, &k, &v, &pos).unwrap();
                        quant.append(seq, &k, &v, &pos).unwrap();
                    } else {
                        cache.append_rows(seq, &k_all, &v_all, &rows, &pos).unwrap();
                        quant.append_rows(seq, &k_all, &v_all, &rows, &pos).unwrap();
                    }
                    entry.0 = Tensor::concat_dim0([&entry.0, &k]).unwrap();
                    entry.1 = Tensor::concat_dim0([&entry.1, &v]).unwrap();
                    entry.2.extend(&QuantizedKv::quantize(&k).unwrap()).unwrap();
                    entry.3.extend(&QuantizedKv::quantize(&v).unwrap()).unwrap();
                }
                3 => {
                    if let Some(entry) = shadow.get_mut(&s) {
                        let keep = ((entry.0.dim0() as f64) * frac) as usize;
                        cache.truncate(seq, keep).unwrap();
                        quant.truncate(seq, keep).unwrap();
                        entry.0 = entry.0.slice_dim0(0..keep).unwrap();
                        entry.1 = entry.1.slice_dim0(0..keep).unwrap();
                        entry.2.truncate(keep).unwrap();
                        entry.3.truncate(keep).unwrap();
                    }
                }
                _ => {
                    if shadow.remove(&s).is_some() {
                        cache.free_sequence(seq).unwrap();
                        quant.free_sequence(seq).unwrap();
                    }
                }
            }
            let mut scratch = vec![0.0f32; dh];
            for (&id, (sk, sv, sqk, sqv)) in &shadow {
                let seq = SeqId(id);
                let (gk, gv, gpos) = cache.gather(seq).unwrap();
                prop_assert_eq!(&gk, sk);
                prop_assert_eq!(&gv, sv);
                prop_assert_eq!(&gpos, &(0..sk.dim0()).collect::<Vec<_>>());
                let view = cache.view(seq).unwrap();
                let (qk, qv, _) = int8_rows(&quant, seq);
                prop_assert_eq!(&qk, sqk);
                prop_assert_eq!(&qv, sqv);
                let qview = quant.view(seq).unwrap();
                let (dk, dv) = (sqk.dequantize(), sqv.dequantize());
                for (src, k, v) in [(view.source(), &gk, &gv), (qview.source(), &dk, &dv)] {
                    for i in 0..k.dim0() {
                        for h in 0..nkv {
                            let want = &k.row(i)[h * dh..(h + 1) * dh];
                            prop_assert_eq!(src.k_head(i, h, dh, &mut scratch).unwrap(), want);
                            let want = &v.row(i)[h * dh..(h + 1) * dh];
                            prop_assert_eq!(src.v_head(i, h, dh, &mut scratch).unwrap(), want);
                        }
                    }
                    prop_assert!(src.k_head(k.dim0(), 0, dh, &mut scratch).is_none());
                }
            }
        }
    }

    /// The view stays bit-faithful to gather after truncation rewinds the
    /// sequence to a ragged mid-page length and appends resume from there.
    #[test]
    fn view_attention_faithful_after_truncate_and_reappend(
        page_size in 1usize..6,
        total in 2usize..20,
        keep_frac in 0.0f64..1.0,
        regrow in 1usize..8,
        seed in any::<u64>(),
    ) {
        let shape = GqaShape::new(2, 1, 3).unwrap();
        let params = AttentionParams::for_shape(shape);
        let mut cache = PagedKvCache::new(KvCacheConfig::new(page_size, 1, 3));
        let seq = SeqId(0);
        cache.create_sequence(seq).unwrap();
        let mut rng = DetRng::new(seed);
        let k = rng.tensor(&[total, 1, 3]);
        let v = rng.tensor(&[total, 1, 3]);
        cache.append(seq, &k, &v, &(0..total).collect::<Vec<_>>()).unwrap();
        let keep = ((total as f64) * keep_frac) as usize;
        cache.truncate(seq, keep).unwrap();
        let k2 = rng.tensor(&[regrow, 1, 3]);
        let v2 = rng.tensor(&[regrow, 1, 3]);
        cache.append(seq, &k2, &v2, &(keep..keep + regrow).collect::<Vec<_>>()).unwrap();

        let (gk, gv, gpos) = cache.gather(seq).unwrap();
        let view = cache.view(seq).unwrap();
        prop_assert_eq!(view.len(), keep + regrow);
        let q = rng.tensor(&[1, 2, 3]);
        let pool = ComputePool::new(1);
        let a = blocked_gqa_attention_source(
            &pool, &q, &KvSource::contiguous(&gk, &gv), &params, &[keep + regrow], &gpos, 4,
        ).unwrap();
        let b = blocked_gqa_attention_source(
            &pool, &q, &view.source(), &params, &[keep + regrow], &gpos, 4,
        ).unwrap();
        prop_assert_eq!(a.out.as_slice(), b.out.as_slice());
        prop_assert_eq!(a.lse.as_slice(), b.lse.as_slice());
    }
}
