//! Property-based exactness tests: the invariants merge attention and the
//! ring algorithms rest on.

use cp_attention::{
    blocked_gqa_attention, blocked_gqa_attention_with_threads, merge_partials, naive_gqa_attention,
    AttentionParams, GqaShape,
};
use cp_tensor::{DetRng, Tensor};
use proptest::prelude::*;

/// A random GQA configuration with small dimensions.
fn gqa_config() -> impl Strategy<Value = (usize, usize, usize)> {
    // (group_size, n_kv_heads, head_dim) -> n_heads = group * kv
    (1usize..4, 1usize..4, 1usize..9).prop_map(|(g, kv, dh)| (g * kv, kv, dh))
}

fn make_inputs(
    seed: u64,
    t_q: usize,
    t_kv: usize,
    nh: usize,
    nkv: usize,
    dh: usize,
) -> (Tensor, Tensor, Tensor) {
    let mut rng = DetRng::new(seed);
    (
        rng.tensor(&[t_q, nh, dh]),
        rng.tensor(&[t_kv, nkv, dh]),
        rng.tensor(&[t_kv, nkv, dh]),
    )
}

proptest! {
    /// Blocked (flash-style) attention equals the naive kernel for any
    /// shape, block size, and causal offset.
    #[test]
    fn blocked_equals_naive(
        (nh, nkv, dh) in gqa_config(),
        t_q in 1usize..8,
        extra_kv in 0usize..12,
        block in 1usize..10,
        seed in any::<u64>(),
    ) {
        let t_kv = t_q + extra_kv;
        let params = AttentionParams::for_shape(GqaShape::new(nh, nkv, dh).unwrap());
        let (q, k, v) = make_inputs(seed, t_q, t_kv, nh, nkv, dh);
        let kv_pos: Vec<usize> = (0..t_kv).collect();
        let q_pos: Vec<usize> = (extra_kv..t_kv).collect();
        let fast = blocked_gqa_attention(&q, &k, &v, &params, &q_pos, &kv_pos, block).unwrap();
        let slow = naive_gqa_attention(&q, &k, &v, &params, &q_pos, &kv_pos).unwrap();
        prop_assert!(fast.out.approx_eq(&slow.out, 1e-3).unwrap());
        prop_assert!(fast.lse.approx_eq(&slow.lse, 1e-3).unwrap());
    }

    /// The parallel (query-tiled) blocked kernel equals the naive kernel
    /// for any shape and thread count, and is bit-identical to its own
    /// serial path — parallelism must not change the arithmetic.
    #[test]
    fn parallel_blocked_equals_naive_and_serial(
        (nh, nkv, dh) in gqa_config(),
        t_q in 1usize..8,
        extra_kv in 0usize..12,
        block in 1usize..10,
        threads in 2usize..7,
        seed in any::<u64>(),
    ) {
        let t_kv = t_q + extra_kv;
        let params = AttentionParams::for_shape(GqaShape::new(nh, nkv, dh).unwrap());
        let (q, k, v) = make_inputs(seed, t_q, t_kv, nh, nkv, dh);
        let kv_pos: Vec<usize> = (0..t_kv).collect();
        let q_pos: Vec<usize> = (extra_kv..t_kv).collect();
        let tiled = blocked_gqa_attention_with_threads(
            &q, &k, &v, &params, &q_pos, &kv_pos, block, threads,
        ).unwrap();
        let serial = blocked_gqa_attention_with_threads(
            &q, &k, &v, &params, &q_pos, &kv_pos, block, 1,
        ).unwrap();
        prop_assert_eq!(tiled.out.as_slice(), serial.out.as_slice());
        prop_assert_eq!(tiled.lse.as_slice(), serial.lse.as_slice());
        let slow = naive_gqa_attention(&q, &k, &v, &params, &q_pos, &kv_pos).unwrap();
        prop_assert!(tiled.out.approx_eq(&slow.out, 1e-3).unwrap());
        prop_assert!(tiled.lse.approx_eq(&slow.lse, 1e-3).unwrap());
    }

    /// Splitting KV at any point and merging the partials reconstructs full
    /// attention exactly (the core ring pass-KV invariant).
    #[test]
    fn merge_of_kv_split_equals_full(
        (nh, nkv, dh) in gqa_config(),
        t_q in 1usize..6,
        t_kv in 1usize..16,
        split_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let params = AttentionParams::for_shape(GqaShape::new(nh, nkv, dh).unwrap());
        let (q, k, v) = make_inputs(seed, t_q, t_kv, nh, nkv, dh);
        let kv_pos: Vec<usize> = (0..t_kv).collect();
        // Queries positioned at the end so most kv is visible.
        let q_pos: Vec<usize> = (0..t_q).map(|i| t_kv.saturating_sub(1) + i).collect();
        let full = naive_gqa_attention(&q, &k, &v, &params, &q_pos, &kv_pos).unwrap();

        let split = ((t_kv as f64) * split_frac) as usize;
        let (k1, k2) = (k.slice_dim0(0..split).unwrap(), k.slice_dim0(split..t_kv).unwrap());
        let (v1, v2) = (v.slice_dim0(0..split).unwrap(), v.slice_dim0(split..t_kv).unwrap());
        let p1 = naive_gqa_attention(&q, &k1, &v1, &params, &q_pos, &kv_pos[..split]).unwrap();
        let p2 = naive_gqa_attention(&q, &k2, &v2, &params, &q_pos, &kv_pos[split..]).unwrap();
        let merged = merge_partials([&p1, &p2]).unwrap();
        prop_assert!(merged.out.approx_eq(&full.out, 1e-3).unwrap());
        prop_assert!(merged.lse.approx_eq(&full.lse, 1e-3).unwrap());
    }

    /// Merging an arbitrary interleaved *permutation* of KV shards is still
    /// exact — the invariant behind load-balanced (non-contiguous) sharding.
    #[test]
    fn merge_of_permuted_shards_equals_full(
        (nh, nkv, dh) in gqa_config(),
        t_kv in 2usize..14,
        n_shards in 2usize..5,
        seed in any::<u64>(),
    ) {
        let t_q = 3.min(t_kv);
        let params = AttentionParams::for_shape(GqaShape::new(nh, nkv, dh).unwrap());
        let (q, k, v) = make_inputs(seed, t_q, t_kv, nh, nkv, dh);
        let kv_pos: Vec<usize> = (0..t_kv).collect();
        let q_pos: Vec<usize> = (t_kv - t_q..t_kv).collect();
        let full = naive_gqa_attention(&q, &k, &v, &params, &q_pos, &kv_pos).unwrap();

        // Round-robin assignment of kv tokens to shards (non-contiguous!).
        let mut partials = Vec::new();
        for s in 0..n_shards {
            let idx: Vec<usize> = (0..t_kv).filter(|i| i % n_shards == s).collect();
            if idx.is_empty() {
                continue;
            }
            let ks = k.gather_dim0(&idx).unwrap();
            let vs = v.gather_dim0(&idx).unwrap();
            let pos: Vec<usize> = idx.clone();
            partials.push(
                naive_gqa_attention(&q, &ks, &vs, &params, &q_pos, &pos).unwrap(),
            );
        }
        let merged = merge_partials(partials.iter()).unwrap();
        prop_assert!(merged.out.approx_eq(&full.out, 1e-3).unwrap());
    }

    /// Merge attention is invariant to the order of partials.
    #[test]
    fn merge_is_order_invariant(
        (nh, nkv, dh) in gqa_config(),
        t_kv in 3usize..12,
        seed in any::<u64>(),
    ) {
        let params = AttentionParams::for_shape(GqaShape::new(nh, nkv, dh).unwrap());
        let (q, k, v) = make_inputs(seed, 2, t_kv, nh, nkv, dh);
        let kv_pos: Vec<usize> = (0..t_kv).collect();
        let q_pos = [t_kv - 1, t_kv];
        let third = (t_kv / 3).max(1);
        let mut parts = Vec::new();
        let bounds = [0, third, (2 * third).min(t_kv), t_kv];
        for w in bounds.windows(2) {
            if w[0] == w[1] { continue; }
            let ks = k.slice_dim0(w[0]..w[1]).unwrap();
            let vs = v.slice_dim0(w[0]..w[1]).unwrap();
            parts.push(naive_gqa_attention(&q, &ks, &vs, &params, &q_pos, &kv_pos[w[0]..w[1]]).unwrap());
        }
        let fwd = merge_partials(parts.iter()).unwrap();
        let rev = merge_partials(parts.iter().rev()).unwrap();
        prop_assert!(fwd.out.approx_eq(&rev.out, 1e-4).unwrap());
        prop_assert!(fwd.lse.approx_eq(&rev.lse, 1e-4).unwrap());
    }

    /// Causality: perturbing a future KV token never changes present outputs.
    #[test]
    fn future_kv_does_not_leak(
        (nh, nkv, dh) in gqa_config(),
        t in 2usize..10,
        seed in any::<u64>(),
    ) {
        let params = AttentionParams::for_shape(GqaShape::new(nh, nkv, dh).unwrap());
        let (q, k, v) = make_inputs(seed, t, t, nh, nkv, dh);
        let pos: Vec<usize> = (0..t).collect();
        let base = naive_gqa_attention(&q, &k, &v, &params, &pos, &pos).unwrap();
        // Clobber the last kv token entirely.
        let mut k2 = k.clone();
        let mut v2 = v.clone();
        k2.row_mut(t - 1).fill(123.0);
        v2.row_mut(t - 1).fill(-321.0);
        let perturbed = naive_gqa_attention(&q, &k2, &v2, &params, &pos, &pos).unwrap();
        // All queries before the last are unchanged.
        let a = base.slice_tokens(0, t - 1).unwrap();
        let b = perturbed.slice_tokens(0, t - 1).unwrap();
        prop_assert!(a.out.approx_eq(&b.out, 1e-6).unwrap());
        prop_assert!(a.lse.approx_eq(&b.lse, 1e-6).unwrap());
    }

    /// Softmax convexity: every output coordinate lies within the min/max of
    /// the visible V values for its kv head.
    #[test]
    fn output_is_convex_combination(
        (nh, nkv, dh) in gqa_config(),
        t in 1usize..8,
        seed in any::<u64>(),
    ) {
        let params = AttentionParams::for_shape(GqaShape::new(nh, nkv, dh).unwrap());
        let (q, k, v) = make_inputs(seed, t, t, nh, nkv, dh);
        let pos: Vec<usize> = (0..t).collect();
        let out = naive_gqa_attention(&q, &k, &v, &params, &pos, &pos).unwrap();
        for qi in 0..t {
            for h in 0..nh {
                let kvh = h / (nh / nkv);
                for d in 0..dh {
                    let visible: Vec<f32> = (0..=qi)
                        .map(|ki| v.at(&[ki, kvh, d]).unwrap())
                        .collect();
                    let lo = visible.iter().copied().fold(f32::INFINITY, f32::min);
                    let hi = visible.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let val = out.out.at(&[qi, h, d]).unwrap();
                    prop_assert!(val >= lo - 1e-4 && val <= hi + 1e-4,
                        "qi={qi} h={h} d={d}: {val} not in [{lo}, {hi}]");
                }
            }
        }
    }
}
