//! Cross-crate exactness: the distributed engine, the raw ring algorithms
//! and the baselines must all agree with single-device attention.

use cp_attention::{AttentionParams, GqaShape, PAD};
use cp_core::baseline::{all_gather_pass_kv_prefill, single_device_prefill};
use cp_core::ring::{ring_pass_kv_prefill, ring_pass_q_prefill, run_ring, RankKv};
use cp_core::{ContextParallelEngine, EngineConfig, LocalSeq, PrefillRequest, RingSpec, SeqQ};
use cp_kvcache::SeqId;
use cp_perf::RingVariant;
use cp_sharding::ShardPlan;
use cp_tensor::{DetRng, Tensor};

fn shape() -> GqaShape {
    GqaShape::new(8, 2, 16).unwrap()
}

fn qkv(rng: &mut DetRng, t: usize) -> (Tensor, Tensor, Tensor) {
    let s = shape();
    (
        rng.tensor(&[t, s.n_heads(), s.head_dim()]),
        rng.tensor(&[t, s.n_kv_heads(), s.head_dim()]),
        rng.tensor(&[t, s.n_kv_heads(), s.head_dim()]),
    )
}

/// Builds per-rank LocalSeq inputs for one full-prefill sequence.
fn build_locals(
    n: usize,
    t: usize,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
) -> (Vec<Vec<LocalSeq>>, Vec<Vec<usize>>) {
    let plan = ShardPlan::new(t, n).unwrap();
    let max_len = (0..n).map(|r| plan.tokens_for(r)).max().unwrap();
    let mut locals = Vec::new();
    let mut rank_pos = Vec::new();
    for r in 0..n {
        let positions = plan.positions_for(r);
        let mut kv_pos = positions.clone();
        kv_pos.resize(max_len, PAD);
        locals.push(vec![LocalSeq {
            q: q.gather_dim0(&positions).unwrap(),
            q_pos: positions.clone(),
            k: k.gather_dim0(&positions)
                .unwrap()
                .pad_dim0(max_len, 0.0)
                .unwrap(),
            v: v.gather_dim0(&positions)
                .unwrap()
                .pad_dim0(max_len, 0.0)
                .unwrap(),
            kv_pos,
        }]);
        rank_pos.push(positions);
    }
    (locals, rank_pos)
}

#[test]
fn every_distributed_variant_agrees_with_reference() {
    let params = AttentionParams::for_shape(shape());
    let t = 96;
    let n = 4;
    let mut rng = DetRng::new(2024);
    let (q, k, v) = qkv(&mut rng, t);
    let pos: Vec<usize> = (0..t).collect();
    let reference = single_device_prefill(&q, &k, &v, &params, &pos, &pos).unwrap();
    let (locals, rank_pos) = build_locals(n, t, &q, &k, &v);

    let spec = RingSpec::default();
    let (pass_kv, _) = run_ring(n, |c| {
        ring_pass_kv_prefill(c, &params, &spec, &locals[c.rank()])
    })
    .unwrap();
    let (pass_q, _) = run_ring(n, |c| {
        let mine = &locals[c.rank()];
        let queries: Vec<SeqQ> = mine.iter().map(LocalSeq::queries).collect();
        let kv: Vec<RankKv<'_>> = mine.iter().map(|l| l.kv().into()).collect();
        ring_pass_q_prefill(c, &params, &spec, &queries, &kv)
    })
    .unwrap();
    let (all_gather, _) = run_ring(n, |c| {
        all_gather_pass_kv_prefill(c, &params, &locals[c.rank()])
    })
    .unwrap();

    for (name, outputs) in [
        ("ring pass-KV", &pass_kv),
        ("ring pass-Q", &pass_q),
        ("all-gather pass-KV", &all_gather),
    ] {
        for r in 0..n {
            for (row, &p) in rank_pos[r].iter().enumerate() {
                let got = outputs[r][0].slice_tokens(row, row + 1).unwrap();
                let want = reference.slice_tokens(p, p + 1).unwrap();
                assert!(
                    got.out.approx_eq(&want.out, 3e-3).unwrap(),
                    "{name}: rank {r} pos {p}"
                );
            }
        }
    }
}

#[test]
fn engine_pass_kv_and_pass_q_bit_identical_flows_match() {
    // The engine must produce the same numbers regardless of variant and
    // rank count, across a three-turn conversation.
    let turns = [48usize, 12, 30];
    let collect = |n: usize, variant: RingVariant| {
        let mut eng =
            ContextParallelEngine::new(EngineConfig::new(n, shape()).with_page_size(8)).unwrap();
        let mut rng = DetRng::new(55);
        let mut outs = Vec::new();
        for (i, &t) in turns.iter().enumerate() {
            let (q, k, v) = qkv(&mut rng, t);
            let req = [PrefillRequest {
                seq: SeqId(1),
                q: &q,
                k: &k,
                v: &v,
            }];
            let out = if i == 0 {
                // First turn: create via batch to allow forcing a variant.
                eng.prefill_batch(&req, Some(variant)).unwrap().remove(0)
            } else {
                eng.prefill_batch(&req, Some(variant)).unwrap().remove(0)
            };
            outs.push(out.output);
        }
        outs
    };
    let reference = collect(1, RingVariant::PassKv);
    for n in [2, 3] {
        for variant in [RingVariant::PassKv, RingVariant::PassQ] {
            let got = collect(n, variant);
            for (turn, (a, b)) in reference.iter().zip(&got).enumerate() {
                assert!(
                    a.out.approx_eq(&b.out, 3e-3).unwrap(),
                    "n={n} {variant:?} turn {turn}"
                );
            }
        }
    }
}

#[test]
fn traffic_matches_table2_formulas() {
    // Table 2: CP pass-KV moves T * N_KV * D_H * e per block (counting
    // K+V as the 2x inside N_KV's factor in the paper's notation; here
    // explicitly 2 * T_msg * N_KV * D_H * e per rank per hop), while
    // pass-Q moves T_msg * N_H * D_H * e — a group_size/2 ratio.
    let s = shape(); // N_H=8, N_KV=2: group 4, pass-Q/pass-KV ratio = 2.
    let t = 64;
    let n = 4;
    let mut rng = DetRng::new(77);
    let (q, k, v) = qkv(&mut rng, t);

    let run = |variant| {
        let mut eng =
            ContextParallelEngine::new(EngineConfig::new(n, s).with_page_size(4)).unwrap();
        eng.prefill_batch(
            &[PrefillRequest {
                seq: SeqId(0),
                q: &q,
                k: &k,
                v: &v,
            }],
            Some(variant),
        )
        .unwrap()
        .remove(0)
        .traffic
    };
    let kv_traffic = run(RingVariant::PassKv);
    let q_traffic = run(RingVariant::PassQ);

    let msg_tokens = t / n; // divisible: no padding
    let e = 4; // f32 wire
    let expected_kv = n * (n - 1) * 2 * msg_tokens * s.n_kv_heads() * s.head_dim() * e;
    let expected_q_hops = n * (n - 1) * msg_tokens * s.n_heads() * s.head_dim() * e;
    // pass-Q additionally returns outputs + LSE to their origin ranks —
    // since the return hop is double-buffered into eager point-to-point
    // sends, those bytes land in the send_recv category and the All2All
    // category stays empty.
    let expected_out =
        n * (n - 1) * (msg_tokens * s.n_heads() * s.head_dim() + msg_tokens * s.n_heads()) * e;
    assert_eq!(kv_traffic.send_recv_bytes, expected_kv);
    assert_eq!(q_traffic.send_recv_bytes, expected_q_hops + expected_out);
    assert_eq!(q_traffic.all_to_all_bytes, 0);
    assert_eq!(kv_traffic.all_to_all_bytes, 0);

    // Equation 1 at P=0: with N_H > 2*N_KV, KV ring messages are smaller.
    assert!(expected_kv < expected_q_hops);
    assert!(kv_traffic.send_recv_bytes < q_traffic.send_recv_bytes);
}

#[test]
fn partial_prefill_traffic_flips_toward_pass_q() {
    // With a large cache and a tiny new prompt, pass-KV must ship the
    // whole padded cache every hop while pass-Q ships only the tiny Q —
    // the Equation 1 regime where the heuristic flips.
    let s = shape();
    let n = 2;
    let mut rng = DetRng::new(88);
    let (q0, k0, v0) = qkv(&mut rng, 128); // large first turn
    let (q1, k1, v1) = qkv(&mut rng, 2); // tiny follow-up

    let run = |variant| {
        let mut eng =
            ContextParallelEngine::new(EngineConfig::new(n, s).with_page_size(8)).unwrap();
        eng.prefill_batch(
            &[PrefillRequest {
                seq: SeqId(0),
                q: &q0,
                k: &k0,
                v: &v0,
            }],
            Some(RingVariant::PassKv),
        )
        .unwrap();
        eng.prefill_batch(
            &[PrefillRequest {
                seq: SeqId(0),
                q: &q1,
                k: &k1,
                v: &v1,
            }],
            Some(variant),
        )
        .unwrap()
        .remove(0)
        .traffic
    };
    let kv = run(RingVariant::PassKv);
    let q = run(RingVariant::PassQ);
    let q_total = q.send_recv_bytes + q.all_to_all_bytes;
    assert!(
        q_total < kv.send_recv_bytes / 4,
        "pass-Q total {q_total} should be far below pass-KV ring bytes {}",
        kv.send_recv_bytes
    );
}

#[test]
fn all_gather_and_ring_move_equal_bytes() {
    // §3.5.2's point is about *overlap*, not volume: the all-gather
    // baseline moves exactly the ring's bytes but cannot hide them.
    let params = AttentionParams::for_shape(shape());
    let (n, t) = (4, 64);
    let mut rng = DetRng::new(99);
    let (q, k, v) = qkv(&mut rng, t);
    let (locals, _) = build_locals(n, t, &q, &k, &v);
    let (_, ring) = run_ring(n, |c| {
        ring_pass_kv_prefill(c, &params, &RingSpec::default(), &locals[c.rank()])
    })
    .unwrap();
    let (_, gather) = run_ring(n, |c| {
        all_gather_pass_kv_prefill(c, &params, &locals[c.rank()])
    })
    .unwrap();
    assert_eq!(ring.send_recv_bytes, gather.all_gather_bytes);
}
