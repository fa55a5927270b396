//! The reference GQA attention kernel.

use crate::{AttentionError, AttentionOutput, AttentionParams, PAD};
use cp_tensor::{softmax_row_in_place, Tensor};

/// Validates position arrays against their tensors' token counts.
pub(crate) fn check_positions(
    input: &'static str,
    tokens: usize,
    positions: &[usize],
) -> Result<(), AttentionError> {
    if positions.len() != tokens {
        return Err(AttentionError::PositionLengthMismatch {
            input,
            tokens,
            positions: positions.len(),
        });
    }
    Ok(())
}

/// Exact grouped-query scaled-dot-product attention with position-based
/// causal masking — the auditable reference every other kernel is tested
/// against.
///
/// * `q` has shape `[t_q, n_heads, head_dim]`, `k`/`v` have shape
///   `[t_kv, n_kv_heads, head_dim]`.
/// * `q_pos[i]` / `kv_pos[j]` are *global* sequence positions; query `i`
///   attends to kv `j` iff `kv_pos[j] <= q_pos[i]` and `kv_pos[j] != PAD`.
///
/// Returns the output embeddings and per-(query, head) LSE; queries whose
/// mask admits no kv at all produce a zero row with `-inf` LSE (so the
/// result can still participate in [`crate::merge_partials`]).
///
/// # Errors
///
/// Returns [`AttentionError::BadTensorShape`] /
/// [`AttentionError::PositionLengthMismatch`] if inputs are inconsistent
/// with `params.shape`, or if `k` and `v` token counts differ.
///
/// # Example
///
/// ```
/// use cp_attention::{naive_gqa_attention, AttentionParams, GqaShape};
/// use cp_tensor::DetRng;
///
/// # fn main() -> Result<(), cp_attention::AttentionError> {
/// let params = AttentionParams::for_shape(GqaShape::new(2, 1, 4)?);
/// let mut rng = DetRng::new(9);
/// let q = rng.tensor(&[3, 2, 4]);
/// let k = rng.tensor(&[3, 1, 4]);
/// let v = rng.tensor(&[3, 1, 4]);
/// let pos = [0, 1, 2];
/// let out = naive_gqa_attention(&q, &k, &v, &params, &pos, &pos)?;
/// assert_eq!(out.out.shape(), &[3, 2, 4]);
/// # Ok(())
/// # }
/// ```
pub fn naive_gqa_attention(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    params: &AttentionParams,
    q_pos: &[usize],
    kv_pos: &[usize],
) -> Result<AttentionOutput, AttentionError> {
    let shape = &params.shape;
    let t_q = shape.check_q(q)?;
    let t_k = shape.check_kv(k, "k")?;
    let t_v = shape.check_kv(v, "v")?;
    if t_k != t_v {
        return Err(AttentionError::BadTensorShape {
            input: "v",
            expected: vec![t_k, shape.n_kv_heads(), shape.head_dim()],
            actual: v.shape().to_vec(),
        });
    }
    check_positions("q_pos", t_q, q_pos)?;
    check_positions("kv_pos", t_k, kv_pos)?;

    let (n_heads, dh) = (shape.n_heads(), shape.head_dim());
    let q_row = n_heads * dh;
    let kv_row = shape.n_kv_heads() * dh;
    let mut out = Tensor::zeros(&[t_q, n_heads, dh]);
    let mut lse = Tensor::full(&[t_q, n_heads], f32::NEG_INFINITY);
    let mut scores = vec![0.0f32; t_k];

    // Lockstep iteration: query rows of `q`/`out`/`lse` move with `q_pos`,
    // kv rows of `k`/`v` move with `kv_pos` and the score buffer.
    for (((qrow, orow), lse_row), &qpi) in q
        .as_slice()
        .chunks_exact(q_row)
        .zip(out.as_mut_slice().chunks_exact_mut(q_row))
        .zip(lse.as_mut_slice().chunks_exact_mut(n_heads))
        .zip(q_pos)
    {
        for (h, ((qvec, ohead), lse_slot)) in qrow
            .chunks_exact(dh)
            .zip(orow.chunks_exact_mut(dh))
            .zip(lse_row.iter_mut())
            .enumerate()
        {
            let koff = shape.kv_head_for(h) * dh;
            for ((score, &kvp), krow) in scores
                .iter_mut()
                .zip(kv_pos)
                .zip(k.as_slice().chunks_exact(kv_row))
            {
                *score = if kvp == PAD || kvp > qpi {
                    f32::NEG_INFINITY
                } else {
                    let kvec = krow.iter().skip(koff);
                    let dot: f32 = qvec.iter().zip(kvec).map(|(a, b)| a * b).sum();
                    dot * params.scale
                };
            }
            let row_lse = softmax_row_in_place(&mut scores);
            if row_lse == f32::NEG_INFINITY {
                continue; // fully masked query: zero output, -inf LSE
            }
            *lse_slot = row_lse;
            for (&w, vrow) in scores.iter().zip(v.as_slice().chunks_exact(kv_row)) {
                if w == 0.0 {
                    continue;
                }
                for (o, &x) in ohead.iter_mut().zip(vrow.iter().skip(koff)) {
                    *o += w * x;
                }
            }
        }
    }
    AttentionOutput::new(out, lse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GqaShape;
    use cp_tensor::DetRng;

    fn params(nh: usize, nkv: usize, dh: usize) -> AttentionParams {
        AttentionParams::for_shape(GqaShape::new(nh, nkv, dh).unwrap())
    }

    #[test]
    fn single_token_attends_to_itself() {
        let p = params(1, 1, 2);
        let q = Tensor::from_vec(vec![1.0, 0.0], &[1, 1, 2]).unwrap();
        let k = Tensor::from_vec(vec![1.0, 0.0], &[1, 1, 2]).unwrap();
        let v = Tensor::from_vec(vec![3.0, 7.0], &[1, 1, 2]).unwrap();
        let out = naive_gqa_attention(&q, &k, &v, &p, &[0], &[0]).unwrap();
        // Only one kv: softmax weight is 1, so output == v.
        assert!(out.out.approx_eq(&v, 1e-6).unwrap());
        // LSE = scaled dot = 1/sqrt(2).
        let expected = 1.0 / (2.0f32).sqrt();
        assert!((out.lse.as_slice()[0] - expected).abs() < 1e-6);
    }

    #[test]
    fn causal_mask_blocks_future() {
        let p = params(1, 1, 1);
        // Two tokens; query 0 must not see kv 1.
        let q = Tensor::from_vec(vec![1.0, 1.0], &[2, 1, 1]).unwrap();
        let k = Tensor::from_vec(vec![0.0, 100.0], &[2, 1, 1]).unwrap();
        let v = Tensor::from_vec(vec![1.0, -1.0], &[2, 1, 1]).unwrap();
        let out = naive_gqa_attention(&q, &k, &v, &p, &[0, 1], &[0, 1]).unwrap();
        // Query 0 sees only v[0] = 1.
        assert!((out.out.at(&[0, 0, 0]).unwrap() - 1.0).abs() < 1e-6);
        // Query 1 sees both, dominated by the huge k[1] score -> v[1] = -1.
        assert!(out.out.at(&[1, 0, 0]).unwrap() < -0.99);
    }

    #[test]
    fn pad_positions_are_ignored() {
        let p = params(1, 1, 1);
        let q = Tensor::from_vec(vec![1.0], &[1, 1, 1]).unwrap();
        let k = Tensor::from_vec(vec![0.0, 1000.0], &[2, 1, 1]).unwrap();
        let v = Tensor::from_vec(vec![5.0, -100.0], &[2, 1, 1]).unwrap();
        let out = naive_gqa_attention(&q, &k, &v, &p, &[10], &[0, PAD]).unwrap();
        assert!((out.out.at(&[0, 0, 0]).unwrap() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn fully_masked_query_is_zero_with_neg_inf_lse() {
        let p = params(1, 1, 1);
        let q = Tensor::from_vec(vec![1.0], &[1, 1, 1]).unwrap();
        let k = Tensor::from_vec(vec![1.0], &[1, 1, 1]).unwrap();
        let v = Tensor::from_vec(vec![9.0], &[1, 1, 1]).unwrap();
        // kv at position 5, query at position 2: nothing visible.
        let out = naive_gqa_attention(&q, &k, &v, &p, &[2], &[5]).unwrap();
        assert_eq!(out.out.as_slice(), &[0.0]);
        assert_eq!(out.lse.as_slice(), &[f32::NEG_INFINITY]);
    }

    #[test]
    fn gqa_heads_share_kv_heads() {
        // 4 query heads over 2 kv heads; head pairs (0,1) and (2,3) must see
        // identical kv, so with identical q vectors the outputs per pair match.
        let p = params(4, 2, 3);
        let mut rng = DetRng::new(5);
        let mut q = Tensor::zeros(&[2, 4, 3]);
        for t in 0..2 {
            let base: Vec<f32> = (0..3).map(|_| rng.next_signed()).collect();
            for h in 0..4 {
                for (d, &b) in base.iter().enumerate() {
                    q.set(&[t, h, d], b).unwrap();
                }
            }
        }
        let k = rng.tensor(&[2, 2, 3]);
        let v = rng.tensor(&[2, 2, 3]);
        let pos = [0, 1];
        let out = naive_gqa_attention(&q, &k, &v, &p, &pos, &pos).unwrap();
        for t in 0..2 {
            for d in 0..3 {
                assert_eq!(
                    out.out.at(&[t, 0, d]).unwrap(),
                    out.out.at(&[t, 1, d]).unwrap()
                );
                assert_eq!(
                    out.out.at(&[t, 2, d]).unwrap(),
                    out.out.at(&[t, 3, d]).unwrap()
                );
            }
        }
    }

    #[test]
    fn partial_prefill_offset_positions() {
        // New tokens at positions 3,4 attending over cached kv 0..3 plus
        // themselves: equivalent to slicing the full computation.
        let p = params(2, 1, 4);
        let mut rng = DetRng::new(11);
        let q_full = rng.tensor(&[5, 2, 4]);
        let k = rng.tensor(&[5, 1, 4]);
        let v = rng.tensor(&[5, 1, 4]);
        let all_pos: Vec<usize> = (0..5).collect();
        let full = naive_gqa_attention(&q_full, &k, &v, &p, &all_pos, &all_pos).unwrap();

        let q_new = q_full.slice_dim0(3..5).unwrap();
        let partial = naive_gqa_attention(&q_new, &k, &v, &p, &all_pos[3..], &all_pos).unwrap();
        let expected = full.slice_tokens(3, 5).unwrap();
        assert!(partial.out.approx_eq(&expected.out, 1e-5).unwrap());
        assert!(partial.lse.approx_eq(&expected.lse, 1e-5).unwrap());
    }

    #[test]
    fn rejects_inconsistent_inputs() {
        let p = params(2, 1, 4);
        let q = Tensor::zeros(&[2, 2, 4]);
        let k = Tensor::zeros(&[3, 1, 4]);
        let v = Tensor::zeros(&[2, 1, 4]); // k/v length mismatch
        assert!(naive_gqa_attention(&q, &k, &v, &p, &[0, 1], &[0, 1, 2]).is_err());
        let v3 = Tensor::zeros(&[3, 1, 4]);
        // wrong q_pos length
        assert!(naive_gqa_attention(&q, &k, &v3, &p, &[0], &[0, 1, 2]).is_err());
        // wrong kv_pos length
        assert!(naive_gqa_attention(&q, &k, &v3, &p, &[0, 1], &[0]).is_err());
        // wrong head count
        let bad_q = Tensor::zeros(&[2, 3, 4]);
        assert!(naive_gqa_attention(&bad_q, &k, &v3, &p, &[0, 1], &[0, 1, 2]).is_err());
    }

    #[test]
    fn empty_query_batch_is_ok() {
        let p = params(2, 1, 4);
        let q = Tensor::zeros(&[0, 2, 4]);
        let k = Tensor::zeros(&[3, 1, 4]);
        let v = Tensor::zeros(&[3, 1, 4]);
        let out = naive_gqa_attention(&q, &k, &v, &p, &[], &[0, 1, 2]).unwrap();
        assert_eq!(out.tokens(), 0);
    }
}
