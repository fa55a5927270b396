//! Register micro-kernels for tiled attention: `S = Q·Kᵀ` and `O += P·V`
//! on an `ROWS x NR` block held in locals.
//!
//! They keep the bit-identity idiom of the GEMM micro-kernel next door
//! (`gemm.rs`): an `f32` sum may not be reassociated, so lanes never run
//! *along* a reduction. [`qk_tile`] walks `d` ascending with one lane per
//! (key, query row) pair; [`pv_tile`] walks keys ascending with one lane per
//! (query row, `d`) pair. Every output element therefore sees the exact
//! operation sequence of the scalar loop it replaces, batched across
//! neighbours. The GEMM kernel itself cannot serve: it seeds with `0.0` and
//! carries the naive matmul's `a == 0.0` skip, a dot product has neither.
//!
//! They live here, not in `cp-attention`, because register tiles want
//! fixed-size array indexing (iterator-`zip` accumulation measured 3x
//! slower) and `cp-attention` is held to zero index expressions by
//! `cp-lint`. Operands arrive as `chunks_exact` / `split_first_chunk`
//! fixed-size views, so no index below can be out of range.

/// Keys per packed K panel: the lane count of one [`qk_tile`] call.
pub const NR: usize = 8;

/// Most query rows a tile may hold; callers instantiate `ROWS <= MR`.
pub const MR: usize = 8;

/// A weight below zero tells [`pv_tile`] to leave that (key, row) pair
/// untouched. `exp` never returns one, so it cannot collide with a real
/// softmax weight.
pub const SKIP: f32 = -1.0;

/// Dot products of `ROWS` query rows against one `NR`-wide key panel.
///
/// `q` is the query tile k-major (`q[d * ROWS + r]`), `panel` the packed
/// keys k-major (`panel[d * NR + key]`); the walk covers the shorter of the
/// two. Returns `dots[key][r]`, each equal to
/// `q_r.iter().zip(k_key).map(|(a, b)| a * b).sum::<f32>()`: the
/// accumulators start at std's `Sum` identity and add the products with `d`
/// ascending, one lane per query row.
// Not inlined on purpose: fused into the caller's softmax the accumulator
// block spills (the warning at `block_rows` in gemm.rs, measured again here).
#[inline(never)]
pub fn qk_tile<const ROWS: usize>(q: &[f32], panel: &[f32]) -> [[f32; ROWS]; NR] {
    let seed: f32 = std::iter::empty::<f32>().sum();
    let mut acc = [[seed; ROWS]; NR];
    for (kvals, qvals) in panel.chunks_exact(NR).zip(q.chunks_exact(ROWS)) {
        let (Some((kv, _)), Some((qv, _))) = (
            kvals.split_first_chunk::<NR>(),
            qvals.split_first_chunk::<ROWS>(),
        ) else {
            continue;
        };
        for c in 0..NR {
            let kval = kv[c];
            for r in 0..ROWS {
                acc[c][r] += qv[r] * kval;
            }
        }
    }
    acc
}

/// `acc[r][d] += w[key][r] * v[key][d]` for every key ascending.
///
/// `weights` is key-major (`weights[key * ROWS + r]`), `v` holds one
/// `head_dim`-long row per key and `acc` one per query row. With `skips`
/// set, a weight below zero ([`SKIP`]) leaves its row's accumulators
/// untouched for that key — the masked-key `continue` of the scalar loop;
/// without it the caller promises no weight is negative and the walk is
/// branch-free. `d` is covered in chunks of 8, then one at a time, so every
/// `head_dim` takes the same path. (Not 16: there LLVM vectorised across
/// rows and gathered from a stack accumulator, 6x slower on an AVX-512
/// host that prefers 256-bit vectors.)
pub fn pv_tile<const ROWS: usize>(
    weights: &[f32],
    v: &[f32],
    head_dim: usize,
    acc: &mut [f32],
    skips: bool,
) {
    let mut d0 = 0;
    while d0 < head_dim {
        let left = head_dim - d0;
        d0 += if left >= 8 {
            pv_chunk::<ROWS, 8>(weights, v, head_dim, d0, acc, skips)
        } else {
            pv_chunk::<ROWS, 1>(weights, v, head_dim, d0, acc, skips)
        };
    }
}

/// Columns `d0 .. d0 + DC` of [`pv_tile`]; returns `DC`.
fn pv_chunk<const ROWS: usize, const DC: usize>(
    weights: &[f32],
    v: &[f32],
    head_dim: usize,
    d0: usize,
    acc: &mut [f32],
    skips: bool,
) -> usize {
    let mut block = [[0.0f32; DC]; ROWS];
    for (dst, row) in block.iter_mut().zip(acc.chunks_exact(head_dim)) {
        if let Some((src, _)) = row.get(d0..).and_then(|r| r.split_first_chunk::<DC>()) {
            *dst = *src;
        }
    }
    // Every chunk of `v[d0..]` starts at column `d0` of its key's row.
    let v = v.get(d0..).unwrap_or(&[]);
    // Two instantiations, not one body with both loops, for the reason
    // `block_rows` gives in gemm.rs.
    if skips {
        pv_walk::<ROWS, DC, true>(weights, v, head_dim, &mut block);
    } else {
        pv_walk::<ROWS, DC, false>(weights, v, head_dim, &mut block);
    }
    for (src, row) in block.iter().zip(acc.chunks_exact_mut(head_dim)) {
        if let Some((dst, _)) = row
            .get_mut(d0..)
            .and_then(|r| r.split_first_chunk_mut::<DC>())
        {
            *dst = *src;
        }
    }
    DC
}

#[inline(never)]
fn pv_walk<const ROWS: usize, const DC: usize, const SKIPS: bool>(
    weights: &[f32],
    v: &[f32],
    head_dim: usize,
    block: &mut [[f32; DC]; ROWS],
) {
    let mut acc = *block;
    for (wvals, vrow) in weights.chunks_exact(ROWS).zip(v.chunks(head_dim)) {
        let (Some((w, _)), Some((vv, _))) = (
            wvals.split_first_chunk::<ROWS>(),
            vrow.split_first_chunk::<DC>(),
        ) else {
            continue;
        };
        for r in 0..ROWS {
            let wval = w[r];
            if SKIPS && wval < 0.0 {
                continue;
            }
            for c in 0..DC {
                acc[r][c] += wval * vv[c];
            }
        }
    }
    *block = acc;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetRng;

    /// `[n][width]` row-major to `[width-major][n]`: element `(i, j)` moves
    /// to `j * n + i`.
    fn interleave(rows: &[Vec<f32>]) -> Vec<f32> {
        let width = rows[0].len();
        (0..width)
            .flat_map(|j| rows.iter().map(move |row| row[j]))
            .collect()
    }

    fn rows(rng: &mut DetRng, n: usize, width: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|_| (0..width).map(|_| rng.next_signed()).collect())
            .collect()
    }

    fn check_qk<const ROWS: usize>(head_dim: usize) {
        let mut rng = DetRng::new((ROWS * 131 + head_dim) as u64);
        let mut q = rows(&mut rng, ROWS, head_dim);
        let mut k = rows(&mut rng, NR, head_dim);
        // An all-zero query against a negative key sums `-0.0` products:
        // the result's sign is the seed's.
        q[0].fill(0.0);
        k[0].iter_mut().for_each(|x| *x = -x.abs() - 1.0);
        let dots = qk_tile::<ROWS>(&interleave(&q), &interleave(&k));
        for (c, kc) in k.iter().enumerate() {
            for (r, qr) in q.iter().enumerate() {
                let want: f32 = qr.iter().zip(kc).map(|(a, b)| a * b).sum();
                assert_eq!(
                    dots[c][r].to_bits(),
                    want.to_bits(),
                    "ROWS={ROWS} d={head_dim}"
                );
            }
        }
    }

    #[test]
    fn qk_tile_equals_the_std_sum_of_products_bitwise() {
        for head_dim in [1, 3, 8, 16, 20, 64, 128] {
            check_qk::<1>(head_dim);
            check_qk::<2>(head_dim);
            check_qk::<4>(head_dim);
            check_qk::<8>(head_dim);
        }
    }

    fn check_pv<const ROWS: usize>(head_dim: usize, keys: usize, skips: bool) {
        let mut rng = DetRng::new((ROWS * 977 + head_dim * 7 + keys) as u64);
        let mut w = rows(&mut rng, ROWS, keys);
        for (r, row) in w.iter_mut().enumerate() {
            for (j, x) in row.iter_mut().enumerate() {
                *x = if skips && (r + j) % 3 == 0 {
                    SKIP
                } else {
                    x.abs()
                };
            }
        }
        let v = rows(&mut rng, keys, head_dim);
        let start = rows(&mut rng, ROWS, head_dim);
        let mut acc = start.concat();
        pv_tile::<ROWS>(&interleave(&w), &v.concat(), head_dim, &mut acc, skips);
        for (r, (arow, wrow)) in start.iter().zip(&w).enumerate() {
            for d in 0..head_dim {
                let mut want = arow[d];
                for (j, &wj) in wrow.iter().enumerate() {
                    if wj < 0.0 {
                        continue;
                    }
                    want += wj * v[j][d];
                }
                assert_eq!(
                    acc[r * head_dim + d].to_bits(),
                    want.to_bits(),
                    "ROWS={ROWS} d={head_dim} keys={keys} skips={skips}"
                );
            }
        }
    }

    #[test]
    fn pv_tile_equals_the_scalar_axpy_walk_bitwise() {
        for head_dim in [1, 3, 8, 16, 20, 64, 128] {
            for keys in [1, 7, 40] {
                for skips in [false, true] {
                    check_pv::<1>(head_dim, keys, skips);
                    check_pv::<2>(head_dim, keys, skips);
                    check_pv::<4>(head_dim, keys, skips);
                    check_pv::<8>(head_dim, keys, skips);
                }
            }
        }
    }
}
