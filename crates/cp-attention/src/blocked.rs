//! Flash-style blocked attention with online softmax: one query-tile x
//! KV-block kernel over the register micro-kernels of `cp_tensor::tile`,
//! bit-identical to the scalar row walk it replaced (kept below as the
//! test oracle).

use crate::naive::check_positions;
use crate::{AttentionError, AttentionOutput, AttentionParams, KvSource, PAD};
use cp_pool::ComputePool;
use cp_tensor::tile::{pv_tile, qk_tile, MR, NR, SKIP};
use cp_tensor::Tensor;

/// Exact GQA attention computed in KV blocks with an online softmax, the
/// structure of FlashAttention (Dao et al.) / the paper's FA3 kernels.
///
/// Mathematically identical to [`crate::naive_gqa_attention`] — the running
/// `(max, sum, accumulator)` triple per (query, head) is the same rescaling
/// trick merge attention uses, applied block-by-block — but it never
/// materialises the full `t_q x t_kv` score matrix: its working set is one
/// packed KV block plus one running `(max, sum)` pair per (query, head).
/// Property tests pin it to the naive kernel.
///
/// # Errors
///
/// Same conditions as [`crate::naive_gqa_attention`]; additionally
/// `block_size` must be positive.
///
/// # Example
///
/// ```
/// use cp_attention::{blocked_gqa_attention, naive_gqa_attention, AttentionParams, GqaShape};
/// use cp_tensor::DetRng;
///
/// # fn main() -> Result<(), cp_attention::AttentionError> {
/// let params = AttentionParams::for_shape(GqaShape::new(2, 2, 4)?);
/// let mut rng = DetRng::new(3);
/// let q = rng.tensor(&[5, 2, 4]);
/// let k = rng.tensor(&[5, 2, 4]);
/// let v = rng.tensor(&[5, 2, 4]);
/// let pos: Vec<usize> = (0..5).collect();
/// let fast = blocked_gqa_attention(&q, &k, &v, &params, &pos, &pos, 2)?;
/// let slow = naive_gqa_attention(&q, &k, &v, &params, &pos, &pos)?;
/// assert!(fast.out.approx_eq(&slow.out, 1e-4).unwrap());
/// # Ok(())
/// # }
/// ```
pub fn blocked_gqa_attention(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    params: &AttentionParams,
    q_pos: &[usize],
    kv_pos: &[usize],
    block_size: usize,
) -> Result<AttentionOutput, AttentionError> {
    blocked_gqa_attention_with_threads(q, k, v, params, q_pos, kv_pos, block_size, 0)
}

/// [`blocked_gqa_attention`] on an explicit persistent worker pool.
///
/// The preferred entry point inside ring loops: the `Communicator` owns one
/// pool per rank, so a multi-layer forward reuses the same workers for
/// every layer and hop instead of spawning scoped threads per call. The
/// queries are split into as many contiguous ranges as the pool has
/// workers (capped at the query count); results are bit-identical to the
/// serial path.
///
/// # Errors
///
/// Same conditions as [`blocked_gqa_attention`].
#[allow(clippy::too_many_arguments)] // mirrors the kernel signature + pool
pub fn blocked_gqa_attention_on(
    pool: &ComputePool,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    params: &AttentionParams,
    q_pos: &[usize],
    kv_pos: &[usize],
    block_size: usize,
) -> Result<AttentionOutput, AttentionError> {
    blocked_impl(
        pool,
        q,
        &KvSource::contiguous(k, v),
        params,
        q_pos,
        kv_pos,
        block_size,
        0,
    )
}

/// [`blocked_gqa_attention_on`] over a [`KvSource`] — contiguous tensors or
/// a paged KV cache view — with zero materialization.
///
/// The kernel packs each KV block out of the source: paged sources are
/// already in its layout ([`crate::PageLayout`]), so that is a run of
/// copies (INT8 pages are dequantized in the same step). For the same
/// `block_size` every storage layout feeds it the same values in the same
/// order, so results are
/// **bit-identical** across layouts (property-tested here and in
/// cp-kvcache). Paged callers should pick a `block_size` that is a multiple
/// of the page size so online-softmax blocks coincide with whole pages.
///
/// # Errors
///
/// Same conditions as [`blocked_gqa_attention`].
pub fn blocked_gqa_attention_source(
    pool: &ComputePool,
    q: &Tensor,
    kv: &KvSource<'_>,
    params: &AttentionParams,
    q_pos: &[usize],
    kv_pos: &[usize],
    block_size: usize,
) -> Result<AttentionOutput, AttentionError> {
    blocked_impl(pool, q, kv, params, q_pos, kv_pos, block_size, 0)
}

/// [`blocked_gqa_attention`] with an explicit query-range count.
///
/// `threads == 0` takes the count from the shared global pool's
/// parallelism (the default entry point's behaviour); `threads == 1` forces
/// the serial path; larger values pin the number of query ranges, which
/// lets tests exercise the pooled path on single-core hosts. Every
/// `(query, head)` pair walks its KV blocks in the same ascending order
/// with the same arithmetic regardless of `threads`, so results are
/// bit-identical across thread counts.
///
/// # Errors
///
/// Same conditions as [`blocked_gqa_attention`].
#[allow(clippy::too_many_arguments)] // mirrors the kernel signature + threads
pub fn blocked_gqa_attention_with_threads(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    params: &AttentionParams,
    q_pos: &[usize],
    kv_pos: &[usize],
    block_size: usize,
    threads: usize,
) -> Result<AttentionOutput, AttentionError> {
    blocked_impl(
        ComputePool::global(),
        q,
        &KvSource::contiguous(k, v),
        params,
        q_pos,
        kv_pos,
        block_size,
        threads,
    )
}

#[allow(clippy::too_many_arguments)]
fn blocked_impl(
    pool: &ComputePool,
    q: &Tensor,
    kv: &KvSource<'_>,
    params: &AttentionParams,
    q_pos: &[usize],
    kv_pos: &[usize],
    block_size: usize,
    threads: usize,
) -> Result<AttentionOutput, AttentionError> {
    if block_size == 0 {
        return Err(AttentionError::InvalidShape {
            reason: "block_size must be positive".to_string(),
        });
    }
    let shape = &params.shape;
    let t_q = shape.check_q(q)?;
    let t_k = kv.check(shape)?;
    check_positions("q_pos", t_q, q_pos)?;
    check_positions("kv_pos", t_k, kv_pos)?;

    let (n_heads, dh) = (shape.n_heads(), shape.head_dim());
    let mut out = Tensor::zeros(&[t_q, n_heads, dh]);
    let mut lse = Tensor::full(&[t_q, n_heads], f32::NEG_INFINITY);
    if t_q > 0 {
        let call = Call {
            kv,
            kv_pos,
            block_size: block_size.min(t_k.max(1)),
            n_heads,
            group: shape.group_size(),
            dh,
            scale: params.scale,
        };
        let workers = match threads {
            0 => pool.parallelism(),
            n => n,
        }
        .min(t_q);
        if workers <= 1 {
            call.attend(q.as_slice(), q_pos, out.as_mut_slice(), lse.as_mut_slice());
        } else {
            // Fan whole query ranges over the persistent pool; each job
            // owns a disjoint slice of the output buffers and its own
            // scratch, and runs the same kernel as the serial path.
            let row_o = n_heads * dh;
            let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(workers);
            let mut q_rest = q.as_slice();
            let mut out_rest = out.as_mut_slice();
            let mut lse_rest = lse.as_mut_slice();
            let mut pos_rest = q_pos;
            let call = &call;
            for w in 0..workers {
                let len = t_q / workers + usize::from(w < t_q % workers);
                let (q_range, q_tail) = q_rest.split_at(len * row_o);
                q_rest = q_tail;
                let (out_range, out_tail) = out_rest.split_at_mut(len * row_o);
                out_rest = out_tail;
                let (lse_range, lse_tail) = lse_rest.split_at_mut(len * n_heads);
                lse_rest = lse_tail;
                let (pos_range, pos_tail) = pos_rest.split_at(len);
                pos_rest = pos_tail;
                jobs.push(Box::new(move || {
                    call.attend(q_range, pos_range, out_range, lse_range)
                }));
            }
            pool.run(jobs);
        }
    }
    AttentionOutput::new(out, lse)
}

/// What every query range of one kernel call shares.
struct Call<'a> {
    kv: &'a KvSource<'a>,
    kv_pos: &'a [usize],
    /// The caller's block size, clamped to the KV length so scratch is
    /// never larger than the keys there are.
    block_size: usize,
    n_heads: usize,
    group: usize,
    dh: usize,
    scale: f32,
}

/// One contiguous range of queries and its running online-softmax state,
/// all `[query][head]`-major: `q` and `out` hold a `dh`-long vector per
/// (query, head), `m` and `l` a scalar.
struct Rows<'a> {
    q: &'a [f32],
    q_pos: &'a [usize],
    /// Running `sum exp(score - m) * v`, built in place in the output.
    out: &'a mut [f32],
    /// Running max score, kept in the LSE buffer until the range is done.
    m: &'a mut [f32],
    /// Running `sum exp(score - m)`.
    l: &'a mut [f32],
}

/// One KV block, packed for one KV head, with the position summary a tile
/// is classified against.
struct Block<'a> {
    pos: &'a [usize],
    any_pad: bool,
    /// Smallest and largest non-`PAD` key position.
    min: usize,
    max: usize,
    /// `NR`-wide k-major K panels ([`KvSource::pack_k`]).
    k: &'a [f32],
    /// One `dh`-long V row per key ([`KvSource::pack_v`]).
    v: &'a [f32],
}

/// Per-tile staging, sized for `MR` rows and one block.
struct TileScratch<'a> {
    /// The query tile, k-major (`[d][row]`).
    q: &'a mut [f32],
    /// Scores, then softmax weights, key-major (`[key][row]`).
    weights: &'a mut [f32],
    /// The tile's accumulator rows, staged out of `Rows::out` for `pv_tile`.
    acc: &'a mut [f32],
}

/// Splits the first `n` elements off the front of `buf`.
fn carve<'a>(buf: &mut &'a mut [f32], n: usize) -> &'a mut [f32] {
    let (head, tail) = std::mem::take(buf).split_at_mut(n);
    *buf = tail;
    head
}

impl Call<'_> {
    /// The kernel: FlashAttention's loop nest — KV block (ascending) → KV
    /// head → tile of up to `MR` rows — over one range of queries.
    ///
    /// A tile's rows are `(query, head)` pairs that share the KV head, so
    /// the block is packed once per KV head and every row of every tile
    /// reads the same panels. Per row the arithmetic is the scalar
    /// online-softmax walk, operation for operation: scores are std `Sum`s
    /// over `d` ascending, the block max folds keys ascending, `l` and the
    /// accumulator add keys ascending, masked keys are skipped. Lanes run
    /// across rows and across `d` of the accumulator, never along a sum, so
    /// which tile or range a row lands in cannot change its bits.
    fn attend(&self, q: &[f32], q_pos: &[usize], out: &mut [f32], lse: &mut [f32]) {
        let (bs, dh, n_heads) = (self.block_size, self.dh, self.n_heads);
        // One allocation per range: the running sums, one block's panels
        // and the tile staging (decode calls are short enough to feel six).
        let k_len = bs.div_ceil(NR) * NR * dh;
        let mut buf = vec![0.0f32; q_pos.len() * n_heads + k_len + bs * dh + 2 * MR * dh + bs * MR];
        let mut rest = buf.as_mut_slice();
        let l = carve(&mut rest, q_pos.len() * n_heads);
        let k_panels = carve(&mut rest, k_len);
        let v_rows = carve(&mut rest, bs * dh);
        let mut scratch = TileScratch {
            q: carve(&mut rest, dh * MR),
            acc: carve(&mut rest, MR * dh),
            weights: rest,
        };
        let q_max = q_pos.iter().copied().max().unwrap_or(0);
        let mut rows = Rows {
            q,
            q_pos,
            out,
            m: lse,
            l,
        };
        let tile_rows = q_pos.len() * self.group;
        for (block_idx, pos) in self.kv_pos.chunks(bs).enumerate() {
            let real = pos.iter().copied().filter(|&p| p != PAD);
            let (Some(min), Some(max)) = (real.clone().min(), real.max()) else {
                continue; // nothing but padding
            };
            if min > q_max {
                continue; // every key is in every query's future
            }
            let any_pad = pos.contains(&PAD);
            let start = block_idx * bs;
            for kvh in 0..n_heads / self.group {
                self.kv.pack_k(start, pos.len(), kvh, dh, k_panels);
                self.kv.pack_v(start, pos.len(), kvh, dh, v_rows);
                let block = Block {
                    pos,
                    any_pad,
                    min,
                    max,
                    k: k_panels,
                    v: v_rows,
                };
                // Full tiles, then the ragged remainder in halves: `ROWS`
                // must be a constant for the tile to stay in registers.
                let mut row0 = 0;
                while row0 < tile_rows {
                    row0 += match tile_rows - row0 {
                        8.. => self.tile::<8>(kvh, row0, &mut rows, &block, &mut scratch),
                        4.. => self.tile::<4>(kvh, row0, &mut rows, &block, &mut scratch),
                        2.. => self.tile::<2>(kvh, row0, &mut rows, &block, &mut scratch),
                        _ => self.tile::<1>(kvh, row0, &mut rows, &block, &mut scratch),
                    };
                }
            }
        }
        // Finalise: out = acc / l, lse = m + ln(l); a fully masked query
        // keeps zeros and -inf, the merge convention.
        for ((acc, m), &l) in rows
            .out
            .chunks_exact_mut(dh)
            .zip(rows.m.iter_mut())
            .zip(rows.l.iter())
        {
            if *m != f32::NEG_INFINITY {
                *m += l.ln();
                for x in acc.iter_mut() {
                    *x /= l;
                }
            }
        }
    }

    /// One tile × block step: rows `row0 .. row0 + ROWS` of KV head `kvh`
    /// (row `i` is query `i / group`, head `kvh * group + i % group`)
    /// against `block`. Returns `ROWS`.
    fn tile<const ROWS: usize>(
        &self,
        kvh: usize,
        row0: usize,
        rows: &mut Rows<'_>,
        block: &Block<'_>,
        scratch: &mut TileScratch<'_>,
    ) -> usize {
        let (group, dh) = (self.group, self.dh);
        // A row's index into the `[query][head]` state; times `dh`, its
        // offset in `q` and `out`.
        let slot: [usize; ROWS] = std::array::from_fn(|r| {
            (row0 + r) / group * self.n_heads + kvh * group + (row0 + r) % group
        });
        let q_pos: [usize; ROWS] = std::array::from_fn(|r| {
            let query = (row0 + r) / group;
            rows.q_pos.get(query).copied().unwrap_or(0)
        });

        // Classify once from the summaries: all-masked tiles leave before
        // any arithmetic, all-visible ones skip the per-key position test.
        let q_min = q_pos.iter().copied().min().unwrap_or(0);
        let q_max = q_pos.iter().copied().max().unwrap_or(0);
        if block.min > q_max {
            return ROWS;
        }
        let mixed = block.any_pad || block.max > q_min;

        let (Some(q_tile), Some(weights), Some(acc)) = (
            scratch.q.get_mut(..dh * ROWS),
            scratch.weights.get_mut(..block.pos.len() * ROWS),
            scratch.acc.get_mut(..ROWS * dh),
        ) else {
            return ROWS;
        };
        for (r, &s) in slot.iter().enumerate() {
            let q_vec = rows.q.get(s * dh..(s + 1) * dh).unwrap_or(&[]);
            let lane = q_tile.iter_mut().skip(r).step_by(ROWS);
            lane.zip(q_vec).for_each(|(dst, &x)| *dst = x);
        }

        // S = Q·Kᵀ panel by panel; per key: scale, mask, fold the block max
        // (keys ascending, as the scalar walk folds them).
        let mut block_m = [f32::NEG_INFINITY; ROWS];
        let mut lowest = [f32::INFINITY; ROWS];
        for ((panel, w_panel), k_pos) in block
            .k
            .chunks_exact(dh * NR)
            .zip(weights.chunks_mut(NR * ROWS))
            .zip(block.pos.chunks(NR))
        {
            let dots = qk_tile::<ROWS>(q_tile, panel);
            for ((dot_row, w_row), &kp) in
                dots.iter().zip(w_panel.chunks_exact_mut(ROWS)).zip(k_pos)
            {
                for (((w, &dot), &qp), (bm, lo)) in w_row
                    .iter_mut()
                    .zip(dot_row)
                    .zip(&q_pos)
                    .zip(block_m.iter_mut().zip(lowest.iter_mut()))
                {
                    let s = if !mixed || (kp != PAD && kp <= qp) {
                        dot * self.scale
                    } else {
                        f32::NEG_INFINITY
                    };
                    *w = s;
                    *bm = bm.max(s);
                    *lo = lo.min(s);
                }
            }
        }

        // Per row: new running max and the rescale of what it has so far.
        // A row whose block is fully masked keeps its state untouched.
        let mut new_m = [f32::NEG_INFINITY; ROWS];
        let mut new_l = [0.0f32; ROWS];
        let mut rescale = [1.0f32; ROWS];
        let mut skips = false;
        let mut live = false;
        for ((((&s, &bm), &lo), nm), (nl, rs)) in slot
            .iter()
            .zip(&block_m)
            .zip(&lowest)
            .zip(new_m.iter_mut())
            .zip(new_l.iter_mut().zip(rescale.iter_mut()))
        {
            let m = rows.m.get(s).copied().unwrap_or(f32::NEG_INFINITY);
            let l = rows.l.get(s).copied().unwrap_or(0.0);
            if bm == f32::NEG_INFINITY {
                (*nm, *nl) = (m, l);
                skips = true;
                continue;
            }
            live = true;
            skips |= lo == f32::NEG_INFINITY;
            *nm = m.max(bm);
            *rs = if m == f32::NEG_INFINITY {
                0.0
            } else {
                (m - *nm).exp()
            };
            *nl = l * *rs;
        }
        if !live {
            return ROWS;
        }

        // Scores become weights in place, `l` adds them keys ascending.
        for w_row in weights.chunks_exact_mut(ROWS) {
            for ((w, &nm), nl) in w_row.iter_mut().zip(&new_m).zip(new_l.iter_mut()) {
                if *w == f32::NEG_INFINITY {
                    *w = SKIP;
                } else {
                    *w = (*w - nm).exp();
                    *nl += *w;
                }
            }
        }

        // O = O * rescale + P·V on the staged accumulator rows.
        for ((acc_row, &s), &rs) in acc.chunks_exact_mut(dh).zip(&slot).zip(&rescale) {
            let old = rows.out.get(s * dh..(s + 1) * dh).unwrap_or(&[]);
            acc_row.iter_mut().zip(old).for_each(|(a, &x)| *a = x * rs);
        }
        pv_tile::<ROWS>(weights, block.v, dh, acc, skips);
        for ((acc_row, &s), (&nm, &nl)) in acc
            .chunks_exact(dh)
            .zip(&slot)
            .zip(new_m.iter().zip(&new_l))
        {
            if let Some(o) = rows.out.get_mut(s * dh..(s + 1) * dh) {
                o.iter_mut().zip(acc_row).for_each(|(o, &a)| *o = a);
            }
            if let (Some(m), Some(l)) = (rows.m.get_mut(s), rows.l.get_mut(s)) {
                (*m, *l) = (nm, nl);
            }
        }
        ROWS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{naive_gqa_attention, GqaShape, PageLayout};
    use cp_tensor::DetRng;
    use proptest::prelude::*;

    /// The scalar row kernel the tile kernel replaced, kept verbatim as its
    /// bitwise oracle: per (query, head), walk the KV blocks ascending with
    /// `(m, l)` scalars, one serial dot product per key, and accumulate the
    /// weighted values in place.
    #[allow(clippy::too_many_arguments)]
    fn attend_query_row(
        qrow: &[f32],
        kv: &KvSource<'_>,
        params: &AttentionParams,
        q_pos_qi: usize,
        kv_pos: &[usize],
        block_size: usize,
        out_row: &mut [f32],
        lse_row: &mut [f32],
        scores: &mut Vec<f32>,
        head_buf: &mut [f32],
    ) {
        let shape = &params.shape;
        let dh = shape.head_dim();
        for (h, ((qvec, acc), lse_slot)) in qrow
            .chunks(dh)
            .zip(out_row.chunks_mut(dh))
            .zip(lse_row.iter_mut())
            .enumerate()
        {
            let kvh = shape.kv_head_for(h);
            // m: running max score; l: running sum of exp(score - m);
            // acc: running sum of exp(score - m) * v, built in place.
            let mut m = f32::NEG_INFINITY;
            let mut l = 0.0f32;
            for (block_idx, block_pos) in kv_pos.chunks(block_size).enumerate() {
                let block_start = block_idx * block_size;
                // Block max for the rescale.
                let mut block_m = f32::NEG_INFINITY;
                scores.clear();
                for (off, &kpos) in block_pos.iter().enumerate() {
                    let s = match kv.k_head(block_start + off, kvh, dh, head_buf) {
                        Some(kvec) if kpos != PAD && kpos <= q_pos_qi => {
                            let dot: f32 = qvec.iter().zip(kvec).map(|(a, b)| a * b).sum();
                            dot * params.scale
                        }
                        _ => f32::NEG_INFINITY,
                    };
                    block_m = block_m.max(s);
                    scores.push(s);
                }
                if block_m == f32::NEG_INFINITY {
                    continue; // entire block masked for this query
                }
                let new_m = m.max(block_m);
                let rescale = if m == f32::NEG_INFINITY {
                    0.0
                } else {
                    (m - new_m).exp()
                };
                l *= rescale;
                for x in acc.iter_mut() {
                    *x *= rescale;
                }
                for (off, &s) in scores.iter().enumerate() {
                    if s == f32::NEG_INFINITY {
                        continue;
                    }
                    let w = (s - new_m).exp();
                    l += w;
                    if let Some(vvec) = kv.v_head(block_start + off, kvh, dh, head_buf) {
                        for (a, &x) in acc.iter_mut().zip(vvec) {
                            *a += w * x;
                        }
                    }
                }
                m = new_m;
            }
            // Finalise: out = acc / l, lse = m + ln(l); a fully masked query
            // keeps zeros and -inf, the merge convention.
            if m != f32::NEG_INFINITY {
                *lse_slot = m + l.ln();
                for x in acc.iter_mut() {
                    *x /= l;
                }
            }
        }
    }

    /// Every query row through [`attend_query_row`].
    fn row_oracle(
        q: &Tensor,
        kv: &KvSource<'_>,
        p: &AttentionParams,
        q_pos: &[usize],
        kv_pos: &[usize],
        block_size: usize,
    ) -> AttentionOutput {
        let (nh, dh) = (p.shape.n_heads(), p.shape.head_dim());
        let mut out = Tensor::zeros(&[q_pos.len(), nh, dh]);
        let mut lse = Tensor::full(&[q_pos.len(), nh], f32::NEG_INFINITY);
        let (mut scores, mut head_buf) = (Vec::new(), vec![0.0f32; dh]);
        for (qi, ((out_row, lse_row), &qp)) in out
            .as_mut_slice()
            .chunks_mut(nh * dh)
            .zip(lse.as_mut_slice().chunks_mut(nh))
            .zip(q_pos)
            .enumerate()
        {
            attend_query_row(
                q.row(qi),
                kv,
                p,
                qp,
                kv_pos,
                block_size,
                out_row,
                lse_row,
                &mut scores,
                &mut head_buf,
            );
        }
        AttentionOutput::new(out, lse).unwrap()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Per-(token, head) symmetric INT8 quantization, the storage layer's
    /// scheme: codes, scales, and the dequantized tensor they stand for.
    fn quantize(x: &Tensor, dh: usize) -> (Vec<i8>, Vec<f32>, Tensor) {
        let (mut codes, mut scales) = (Vec::new(), Vec::new());
        for head in x.as_slice().chunks_exact(dh) {
            let max = head.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
            let scale = if max == 0.0 { 1.0 } else { max / 127.0 };
            scales.push(scale);
            codes.extend(
                head.iter()
                    .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8),
            );
        }
        let deq = codes
            .iter()
            .zip(scales.iter().flat_map(|s| std::iter::repeat_n(s, dh)))
            .map(|(&c, &s)| c as f32 * s)
            .collect();
        let deq = Tensor::from_vec(deq, x.shape()).unwrap();
        (codes, scales, deq)
    }

    /// Token-major K/V (`[t, nkv, dh]` values or codes) and their
    /// per-(token, head) scales written into kernel-layout pages of `ps`
    /// tokens.
    struct PagedKv<T> {
        k: Vec<Vec<T>>,
        v: Vec<Vec<T>>,
        k_scales: Vec<Vec<f32>>,
        v_scales: Vec<Vec<f32>>,
    }

    impl<T: Copy + Default> PagedKv<T> {
        fn new(layout: &PageLayout, k: &[T], v: &[T], scales: [&[f32]; 2]) -> Self {
            let (rn, pl) = (layout.row_len(), layout.page_len());
            let (nkv, sl) = (layout.n_kv_heads(), layout.scales_len());
            PagedKv {
                k: layout.paginate(k, rn, pl, PageLayout::write_k),
                v: layout.paginate(v, rn, pl, PageLayout::write_v),
                k_scales: layout.paginate(scales[0], nkv, sl, PageLayout::write_scales),
                v_scales: layout.paginate(scales[1], nkv, sl, PageLayout::write_scales),
            }
        }
    }

    fn refs<T>(pages: &[Vec<T>]) -> Vec<&[T]> {
        pages.iter().map(Vec::as_slice).collect()
    }

    /// The position layouts the ring hands the kernel.
    fn positions(
        pattern: usize,
        t_q: usize,
        t_k: usize,
        rng: &mut DetRng,
    ) -> (Vec<usize>, Vec<usize>) {
        let tail = |t_q: usize, t_k: usize| -> Vec<usize> {
            (t_k.saturating_sub(t_q)..t_k.saturating_sub(t_q) + t_q).collect()
        };
        match pattern {
            // Causal tail: the diagonal crosses the last tiles and blocks.
            0 => (tail(t_q, t_k), (0..t_k).collect()),
            // The 2N-chunk layout: own chunks 0 and 3 against a visiting
            // rank's chunks 1 and 2.
            1 => {
                let n = t_q.div_ceil(2);
                let q_pos = (0..n).chain(3 * n..4 * n).take(t_q).collect();
                (q_pos, (n..n + t_k).collect())
            }
            // No order at all, on either side.
            2 => {
                let span = t_q + t_k + 1;
                (
                    (0..t_q).map(|_| rng.next_below(span)).collect(),
                    (0..t_k).map(|_| rng.next_below(span)).collect(),
                )
            }
            // Causal tail with padding sprinkled through the keys.
            3 => {
                let kv_pos = (0..t_k)
                    .map(|p| if rng.next_below(4) == 0 { PAD } else { p })
                    .collect();
                (tail(t_q, t_k), kv_pos)
            }
            // Every key in every query's future.
            _ => ((0..t_q).collect(), (t_q + 5..t_q + 5 + t_k).collect()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The contract of the tile kernel: for every head grouping, head
        /// dimension, ragged tile and panel, block size, position layout,
        /// thread count and KV storage, `out` and `lse` carry the bits of
        /// the scalar row walk.
        #[test]
        fn tile_kernel_is_bitwise_equal_to_the_row_oracle(
            heads in prop_oneof![Just((1usize, 1usize)), Just((4, 2)), Just((8, 2)), Just((8, 8)), Just((8, 1))],
            dh in prop_oneof![Just(1usize), Just(3), Just(8), Just(16), Just(20), Just(64), Just(128)],
            t_q in 1usize..71,
            t_k in 0usize..301,
            block in prop_oneof![Just(1usize), Just(7), Just(16), Just(128), Just(usize::MAX)],
            pattern in 0usize..5,
            threads in prop_oneof![Just(1usize), Just(2), Just(3), Just(64)],
            page_size in 1usize..20,
            seed in any::<u64>(),
        ) {
            let (nh, nkv) = heads;
            let p = params(nh, nkv, dh);
            let mut rng = DetRng::new(seed);
            let q = rng.tensor(&[t_q, nh, dh]);
            let (kc, ks, k) = quantize(&rng.tensor(&[t_k, nkv, dh]), dh);
            let (vc, vs, v) = quantize(&rng.tensor(&[t_k, nkv, dh]), dh);
            let (q_pos, kv_pos) = positions(pattern, t_q, t_k, &mut rng);
            let block = block.min(t_k + 9);

            let want = row_oracle(&q, &KvSource::contiguous(&k, &v), &p, &q_pos, &kv_pos, block);
            if pattern == 4 {
                prop_assert!(want.lse.as_slice().iter().all(|&x| x == f32::NEG_INFINITY));
                prop_assert!(want.out.as_slice().iter().all(|&x| x.to_bits() == 0));
            }

            let contiguous =
                blocked_gqa_attention_with_threads(&q, &k, &v, &p, &q_pos, &kv_pos, block, threads)
                    .unwrap();
            prop_assert_eq!(bits(&contiguous.out), bits(&want.out));
            prop_assert_eq!(bits(&contiguous.lse), bits(&want.lse));

            let pool = ComputePool::new(threads.min(3));
            let layout = PageLayout::new(page_size, nkv, dh).unwrap();
            let f = PagedKv::new(&layout, k.as_slice(), v.as_slice(), [&[], &[]]);
            let (kp, vp) = (refs(&f.k), refs(&f.v));
            let paged = KvSource::paged(&kp, &vp, page_size, nkv, dh, t_k).unwrap();
            let c = PagedKv::new(&layout, &kc, &vc, [&ks, &vs]);
            let (kcp, vcp) = (refs(&c.k), refs(&c.v));
            let (ksp, vsp) = (refs(&c.k_scales), refs(&c.v_scales));
            let quant =
                KvSource::quant_paged(&kcp, &ksp, &vcp, &vsp, page_size, nkv, dh, t_k).unwrap();
            for src in [&paged, &quant] {
                let got =
                    blocked_gqa_attention_source(&pool, &q, src, &p, &q_pos, &kv_pos, block).unwrap();
                prop_assert_eq!(bits(&got.out), bits(&want.out));
                prop_assert_eq!(bits(&got.lse), bits(&want.lse));
            }
        }
    }

    fn assert_matches_oracle(
        q: &Tensor,
        k: &Tensor,
        v: &Tensor,
        p: &AttentionParams,
        q_pos: &[usize],
        kv_pos: &[usize],
        block: usize,
    ) -> AttentionOutput {
        let want = row_oracle(q, &KvSource::contiguous(k, v), p, q_pos, kv_pos, block);
        let got = blocked_gqa_attention_with_threads(q, k, v, p, q_pos, kv_pos, block, 1).unwrap();
        assert_eq!(bits(&got.out), bits(&want.out));
        assert_eq!(bits(&got.lse), bits(&want.lse));
        got
    }

    #[test]
    fn running_max_jump_that_underflows_the_rescale_matches_the_oracle() {
        // Block 0 scores near -90, block 1 near +90: `exp(m - new_m)` is
        // exactly 0.0, so everything block 0 accumulated is wiped.
        let (t_q, t_k, dh) = (9, 32, 16);
        let p = AttentionParams::with_scale(GqaShape::new(4, 2, dh).unwrap(), 1.0);
        let mut rng = DetRng::new(41);
        let q = Tensor::from_fn(&[t_q, 4, dh], |_| 1.0 + 0.01 * rng.next_signed());
        let k = Tensor::from_fn(&[t_k, 2, dh], |i| {
            let sign = if i / (2 * dh) < 16 { -1.0 } else { 1.0 };
            sign * (5.6 + 0.01 * rng.next_signed())
        });
        let v = rng.tensor(&[t_k, 2, dh]);
        let kv_pos: Vec<usize> = (0..t_k).collect();
        let q_pos = vec![t_k; t_q];
        assert_eq!((-180.0f32).exp(), 0.0);
        let got = assert_matches_oracle(&q, &k, &v, &p, &q_pos, &kv_pos, 16);
        assert!(got.lse.as_slice().iter().all(|&x| x > 80.0));
    }

    #[test]
    fn exact_zero_queries_and_keys_match_the_oracle() {
        // A zero query against negative keys sums `-0.0` products, a zero
        // key against anything sums `±0.0`: the scores' signs of zero must
        // be the row walk's.
        let (t_q, t_k, dh) = (10, 21, 8);
        let p = params(4, 2, dh);
        let mut rng = DetRng::new(43);
        let mut q = rng.tensor(&[t_q, 4, dh]);
        let mut k = rng.tensor(&[t_k, 2, dh]);
        let v = rng.tensor(&[t_k, 2, dh]);
        q.row_mut(0).fill(0.0);
        q.row_mut(7).fill(-0.0);
        k.row_mut(3).fill(0.0);
        k.row_mut(4).iter_mut().for_each(|x| *x = -x.abs());
        k.row_mut(20).fill(-0.0);
        let kv_pos: Vec<usize> = (0..t_k).collect();
        let q_pos: Vec<usize> = (t_k - t_q..t_k).collect();
        for block in [1, 5, 8, 64] {
            assert_matches_oracle(&q, &k, &v, &p, &q_pos, &kv_pos, block);
        }
    }

    fn params(nh: usize, nkv: usize, dh: usize) -> AttentionParams {
        AttentionParams::for_shape(GqaShape::new(nh, nkv, dh).unwrap())
    }

    fn compare_with_naive(t_q: usize, t_kv: usize, p: &AttentionParams, block: usize, seed: u64) {
        let mut rng = DetRng::new(seed);
        let shape = p.shape;
        let q = rng.tensor(&[t_q, shape.n_heads(), shape.head_dim()]);
        let k = rng.tensor(&[t_kv, shape.n_kv_heads(), shape.head_dim()]);
        let v = rng.tensor(&[t_kv, shape.n_kv_heads(), shape.head_dim()]);
        // Use overlapping position spaces: queries at the tail.
        let kv_pos: Vec<usize> = (0..t_kv).collect();
        let q_pos: Vec<usize> = (t_kv.saturating_sub(t_q)..t_kv).collect();
        let fast = blocked_gqa_attention(&q, &k, &v, p, &q_pos, &kv_pos, block).unwrap();
        let slow = naive_gqa_attention(&q, &k, &v, p, &q_pos, &kv_pos).unwrap();
        assert!(
            fast.out.approx_eq(&slow.out, 1e-4).unwrap(),
            "out mismatch: {}",
            fast.out.max_abs_diff(&slow.out).unwrap()
        );
        assert!(fast.lse.approx_eq(&slow.lse, 1e-4).unwrap());
    }

    #[test]
    fn matches_naive_various_block_sizes() {
        let p = params(4, 2, 8);
        for block in [1, 2, 3, 7, 16, 64] {
            compare_with_naive(6, 13, &p, block, 42);
        }
    }

    #[test]
    fn matches_naive_block_larger_than_kv() {
        let p = params(2, 1, 4);
        compare_with_naive(3, 5, &p, 100, 7);
    }

    #[test]
    fn matches_naive_mqa() {
        let p = params(8, 1, 4);
        compare_with_naive(4, 9, &p, 3, 1);
    }

    #[test]
    fn handles_pad_slots() {
        let p = params(1, 1, 2);
        let mut rng = DetRng::new(2);
        let q = rng.tensor(&[2, 1, 2]);
        let k = rng.tensor(&[4, 1, 2]);
        let v = rng.tensor(&[4, 1, 2]);
        let kv_pos = [0, PAD, 1, PAD];
        let q_pos = [0, 1];
        let fast = blocked_gqa_attention(&q, &k, &v, &p, &q_pos, &kv_pos, 2).unwrap();
        let slow = naive_gqa_attention(&q, &k, &v, &p, &q_pos, &kv_pos).unwrap();
        assert!(fast.out.approx_eq(&slow.out, 1e-5).unwrap());
        assert!(fast.lse.approx_eq(&slow.lse, 1e-5).unwrap());
    }

    #[test]
    fn fully_masked_query_matches_naive_convention() {
        let p = params(1, 1, 2);
        let mut rng = DetRng::new(3);
        let q = rng.tensor(&[1, 1, 2]);
        let k = rng.tensor(&[2, 1, 2]);
        let v = rng.tensor(&[2, 1, 2]);
        let out = blocked_gqa_attention(&q, &k, &v, &p, &[0], &[5, 6], 1).unwrap();
        assert_eq!(out.lse.as_slice(), &[f32::NEG_INFINITY]);
        assert!(out.out.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn batch_of_decode_tokens() {
        // Decode with batch 3: three queries, each at its own position,
        // out of order, so one tile straddles three causal limits.
        let p = params(2, 1, 4);
        let mut rng = DetRng::new(6);
        let q = rng.tensor(&[3, 2, 4]);
        let k = rng.tensor(&[20, 1, 4]);
        let v = rng.tensor(&[20, 1, 4]);
        let kv_pos: Vec<usize> = (0..20).collect();
        let q_pos = [19, 10, 5];
        let full = naive_gqa_attention(&q, &k, &v, &p, &q_pos, &kv_pos).unwrap();
        let fast = assert_matches_oracle(&q, &k, &v, &p, &q_pos, &kv_pos, 4);
        assert!(fast.out.approx_eq(&full.out, 1e-4).unwrap());
    }

    #[test]
    fn empty_kv_returns_masked() {
        let p = params(2, 1, 4);
        let q = DetRng::new(1).tensor(&[2, 2, 4]);
        let k = Tensor::zeros(&[0, 1, 4]);
        let v = Tensor::zeros(&[0, 1, 4]);
        let out = blocked_gqa_attention(&q, &k, &v, &p, &[0, 1], &[], 4).unwrap();
        assert_eq!(out.tokens(), 2);
        assert!(out.lse.as_slice().iter().all(|&l| l == f32::NEG_INFINITY));
        assert!(out.out.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn rejects_zero_block_size() {
        let p = params(1, 1, 2);
        let q = Tensor::zeros(&[1, 1, 2]);
        let k = Tensor::zeros(&[1, 1, 2]);
        let v = Tensor::zeros(&[1, 1, 2]);
        assert!(blocked_gqa_attention(&q, &k, &v, &p, &[0], &[0], 0).is_err());
    }

    #[test]
    fn threaded_path_is_bit_identical_to_serial() {
        // Pin an explicit thread count larger than one so the tiled path
        // runs even on single-core hosts; every (query, head) pair walks
        // its KV blocks in the same order, so outputs must be bitwise
        // equal, not just approximately.
        let p = params(4, 2, 8);
        let mut rng = DetRng::new(17);
        let (t_q, t_kv) = (23, 37);
        let q = rng.tensor(&[t_q, 4, 8]);
        let k = rng.tensor(&[t_kv, 2, 8]);
        let v = rng.tensor(&[t_kv, 2, 8]);
        let kv_pos: Vec<usize> = (0..t_kv).collect();
        let q_pos: Vec<usize> = (t_kv - t_q..t_kv).collect();
        let serial =
            blocked_gqa_attention_with_threads(&q, &k, &v, &p, &q_pos, &kv_pos, 5, 1).unwrap();
        for threads in [2, 3, 8, 64] {
            let tiled =
                blocked_gqa_attention_with_threads(&q, &k, &v, &p, &q_pos, &kv_pos, 5, threads)
                    .unwrap();
            assert_eq!(tiled.out.as_slice(), serial.out.as_slice(), "t={threads}");
            assert_eq!(tiled.lse.as_slice(), serial.lse.as_slice(), "t={threads}");
        }
    }

    #[test]
    fn threaded_path_handles_pad_and_masked_rows() {
        let p = params(2, 1, 4);
        let mut rng = DetRng::new(18);
        let q = rng.tensor(&[3, 2, 4]);
        let k = rng.tensor(&[4, 1, 4]);
        let v = rng.tensor(&[4, 1, 4]);
        // Row 0 sees nothing (future positions only), row 2 sees all.
        let kv_pos = [2, PAD, 3, 4];
        let q_pos = [0, 3, 9];
        let serial =
            blocked_gqa_attention_with_threads(&q, &k, &v, &p, &q_pos, &kv_pos, 2, 1).unwrap();
        let tiled =
            blocked_gqa_attention_with_threads(&q, &k, &v, &p, &q_pos, &kv_pos, 2, 3).unwrap();
        assert_eq!(tiled.out.as_slice(), serial.out.as_slice());
        assert_eq!(tiled.lse.as_slice(), serial.lse.as_slice());
        assert_eq!(serial.lse.as_slice()[0], f32::NEG_INFINITY);
    }

    #[test]
    fn empty_query_batch_is_ok() {
        let p = params(1, 1, 2);
        let q = Tensor::zeros(&[0, 1, 2]);
        let k = Tensor::zeros(&[2, 1, 2]);
        let v = Tensor::zeros(&[2, 1, 2]);
        let out = blocked_gqa_attention(&q, &k, &v, &p, &[], &[0, 1], 4).unwrap();
        assert_eq!(out.out.dim0(), 0);
    }

    #[test]
    fn quant_source_is_bitwise_equal_to_dequantized_tensors() {
        // The quantized kernel's contract: for the same block size, a
        // QuantPaged source runs the exact f32 sequence of a contiguous
        // source holding the dequantized values, so the outputs are
        // bitwise equal — the only error vs f32 storage is quantization.
        let (t_q, t_kv, nh, nkv, dh, ps) = (4usize, 11usize, 4usize, 2usize, 8usize, 3usize);
        let p = params(nh, nkv, dh);
        let mut rng = DetRng::new(23);
        let q = rng.tensor(&[t_q, nh, dh]);
        let k = rng.tensor(&[t_kv, nkv, dh]);
        let v = rng.tensor(&[t_kv, nkv, dh]);
        let kv_pos: Vec<usize> = (0..t_kv).collect();
        let q_pos: Vec<usize> = (t_kv - t_q..t_kv).collect();

        // Codes, scales and the dequantized contiguous reference
        // (code * scale, same arithmetic), paged three tokens at a time.
        let (kc, ks, kd) = quantize(&k, dh);
        let (vc, vs, vd) = quantize(&v, dh);
        let layout = PageLayout::new(ps, nkv, dh).unwrap();
        let c = PagedKv::new(&layout, &kc, &vc, [&ks, &vs]);
        let (kcp, vcp) = (refs(&c.k), refs(&c.v));
        let (ksp, vsp) = (refs(&c.k_scales), refs(&c.v_scales));
        let src = KvSource::quant_paged(&kcp, &ksp, &vcp, &vsp, ps, nkv, dh, t_kv).unwrap();

        let pool = cp_pool::ComputePool::global();
        for block in [ps, 2 * ps, 64] {
            let quant_out =
                blocked_gqa_attention_source(pool, &q, &src, &p, &q_pos, &kv_pos, block).unwrap();
            let deq_out =
                blocked_gqa_attention_on(pool, &q, &kd, &vd, &p, &q_pos, &kv_pos, block).unwrap();
            assert_eq!(
                quant_out.out.as_slice(),
                deq_out.out.as_slice(),
                "block={block}"
            );
            assert_eq!(
                quant_out.lse.as_slice(),
                deq_out.lse.as_slice(),
                "block={block}"
            );
            // And the quantization error vs true f32 stays small.
            let f32_out =
                blocked_gqa_attention_on(pool, &q, &k, &v, &p, &q_pos, &kv_pos, block).unwrap();
            let err = quant_out.out.max_abs_diff(&f32_out.out).unwrap();
            assert!(err > 0.0 && err < 0.02, "block={block}: err {err}");
        }
    }

    #[test]
    fn large_score_magnitudes_stay_stable() {
        // Scores around ±60 would overflow exp without the online max trick.
        let p = AttentionParams::with_scale(GqaShape::new(1, 1, 1).unwrap(), 60.0);
        let q = Tensor::from_vec(vec![1.0], &[1, 1, 1]).unwrap();
        let k = Tensor::from_vec(vec![1.0, -1.0, 0.9], &[3, 1, 1]).unwrap();
        let v = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3, 1, 1]).unwrap();
        let pos = [0, 1, 2];
        let fast = blocked_gqa_attention(&q, &k, &v, &p, &[2], &pos, 1).unwrap();
        let slow = naive_gqa_attention(&q, &k, &v, &p, &[2], &pos).unwrap();
        assert!(fast.out.as_slice()[0].is_finite());
        assert!(fast.out.approx_eq(&slow.out, 1e-4).unwrap());
    }
}
