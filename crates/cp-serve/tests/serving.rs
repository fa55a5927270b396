//! The headline exactness contract of the full-model serving engine:
//! arbitrary multi-turn traces match the single-device incremental
//! reference on any rank count, with either ring variant.

use cp_model::{Transformer, TransformerConfig};
use cp_perf::RingVariant;
use cp_serve::{ReferenceSession, TransformerEngine};

fn model(seed: u64) -> Transformer {
    Transformer::new(&TransformerConfig::tiny(), seed)
}

#[test]
fn multi_turn_trace_matches_reference_on_all_rank_counts() {
    // prefill(9) -> decode x3 -> prefill(5) -> decode x2 -> prefill(12)
    let trace: &[&[u32]] = &[
        &[1, 2, 3, 4, 5, 6, 7, 8, 9],
        &[100],
        &[101],
        &[102],
        &[10, 11, 12, 13, 14],
        &[103],
        &[104],
        &[20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31],
    ];
    let mut reference = ReferenceSession::new(model(42));
    let expected: Vec<_> = trace
        .iter()
        .map(|chunk| reference.process(chunk).unwrap())
        .collect();

    for n in [1usize, 2, 3, 4] {
        let mut engine = TransformerEngine::new(model(42), n).unwrap();
        for (i, chunk) in trace.iter().enumerate() {
            let out = if chunk.len() == 1 && i > 0 {
                engine.decode(chunk[0]).unwrap()
            } else {
                engine.prefill(chunk).unwrap()
            };
            assert!(
                out.activations.approx_eq(&expected[i], 3e-3).unwrap(),
                "n={n} step {i}: max diff {}",
                out.activations.max_abs_diff(&expected[i]).unwrap()
            );
        }
        assert_eq!(engine.context_len(), reference.len());
    }
}

#[test]
fn both_prefill_variants_are_exact_against_persistent_cache() {
    let mut reference = ReferenceSession::new(model(7));
    let first = reference.process(&[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
    let second = reference.process(&[9, 10, 11]).unwrap();

    for variant in [RingVariant::PassKv, RingVariant::PassQ] {
        let mut engine = TransformerEngine::new(model(7), 3).unwrap();
        let a = engine
            .prefill_with(&[1, 2, 3, 4, 5, 6, 7, 8], Some(variant))
            .unwrap();
        assert!(a.activations.approx_eq(&first, 3e-3).unwrap(), "{variant}");
        assert_eq!(a.variant, Some(variant));
        let b = engine.prefill_with(&[9, 10, 11], Some(variant)).unwrap();
        assert!(b.activations.approx_eq(&second, 3e-3).unwrap(), "{variant}");
    }
}

#[test]
fn decode_rotation_balances_per_layer_caches() {
    let mut engine = TransformerEngine::new(model(5), 4).unwrap();
    engine.prefill(&[0; 8]).unwrap();
    let before = engine.rank_kv_lens().unwrap();
    for i in 0..20 {
        engine.decode(i).unwrap();
    }
    let after = engine.rank_kv_lens().unwrap();
    let grown: Vec<usize> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    assert_eq!(grown, vec![5; 4], "decode KV growth must rotate evenly");
}

#[test]
fn traffic_accounting_prefill_vs_decode() {
    let mut engine = TransformerEngine::new(model(6), 3).unwrap();
    let pre = engine
        .prefill_with(&[0; 30], Some(RingVariant::PassKv))
        .unwrap();
    assert!(pre.traffic.send_recv_bytes > 0);
    assert_eq!(pre.traffic.all_to_all_bytes, 0);
    let dec = engine.decode(1).unwrap();
    // Decode is pass-Q: tiny SendRecv plus the output All2All, per layer.
    assert!(dec.traffic.all_to_all_bytes > 0);
    assert!(
        dec.traffic.send_recv_bytes < pre.traffic.send_recv_bytes / 4,
        "decode ring bytes {} should be far below prefill's {}",
        dec.traffic.send_recv_bytes,
        pre.traffic.send_recv_bytes
    );
    assert_eq!(dec.variant, None);
}

#[test]
fn heuristic_switches_to_pass_q_for_tiny_follow_ups() {
    // Big document then a 2-token follow-up: the Algorithm 1 heuristic
    // (evaluated against the 405B/GTT context) must pick pass-Q once the
    // miss rate drops below the Eq. 1/Eq. 2 thresholds.
    let mut engine = TransformerEngine::new(model(8), 2).unwrap();
    let first = engine.prefill(&vec![3u32; 64]).unwrap();
    assert_eq!(first.variant, Some(RingVariant::PassKv));
    let follow = engine.prefill(&[4, 5]).unwrap();
    assert_eq!(follow.variant, Some(RingVariant::PassQ));
}

#[test]
fn failed_turn_rolls_back_all_layer_caches() {
    // 1 page of 16 tokens per (rank, layer): a 20-token-per-rank turn
    // overflows mid-layer; every layer cache must rewind to the snapshot.
    let mut engine = TransformerEngine::with_cache_limit(model(12), 2, Some(1)).unwrap();
    engine.prefill(&(0..12u32).collect::<Vec<_>>()).unwrap(); // 6/rank: fits
    let before = engine.rank_kv_lens().unwrap();
    let big: Vec<u32> = (0..60).collect(); // 30/rank: overflows
    assert!(engine.prefill(&big).is_err());
    assert_eq!(engine.context_len(), 12);
    assert_eq!(engine.rank_kv_lens().unwrap(), before);
    // Still serviceable afterwards.
    let mut reference = ReferenceSession::new(model(12));
    reference.process(&(0..12u32).collect::<Vec<_>>()).unwrap();
    let d = engine.decode(7).unwrap();
    let e = reference.process(&[7]).unwrap();
    assert!(d.activations.approx_eq(&e, 3e-3).unwrap());
}

#[test]
fn zero_ranks_rejected_and_empty_prefill_ok() {
    assert!(TransformerEngine::new(model(1), 0).is_err());
    let mut engine = TransformerEngine::new(model(1), 2).unwrap();
    let out = engine.prefill(&[]).unwrap();
    assert_eq!(out.activations.dim0(), 0);
    assert_eq!(engine.context_len(), 0);
}

#[test]
fn deeper_model_multi_turn_exactness() {
    let cfg = TransformerConfig::small(); // 4 layers, D=128
    let m = Transformer::new(&cfg, 99);
    let mut reference = ReferenceSession::new(m.clone());
    let mut engine = TransformerEngine::new(m, 4).unwrap();
    let prompt: Vec<u32> = (0..25).collect();
    let a = engine.prefill(&prompt).unwrap();
    let ea = reference.process(&prompt).unwrap();
    assert!(
        a.activations.approx_eq(&ea, 5e-3).unwrap(),
        "max diff {}",
        a.activations.max_abs_diff(&ea).unwrap()
    );
    for tok in [200u32, 201] {
        let d = engine.decode(tok).unwrap();
        let ed = reference.process(&[tok]).unwrap();
        assert!(d.activations.approx_eq(&ed, 5e-3).unwrap());
    }
}

#[test]
fn checked_fabric_soak_multi_turn() {
    // Soak: a long mixed prefill/decode conversation with live schedule
    // validation on — every layer's ring collectives are checked against
    // the declared plan (peer, variant, byte count, order) for both forced
    // variants and the heuristic default, at CP 2 and 4. Outputs must be
    // bit-identical to the unchecked engine.
    let trace: &[&[u32]] = &[
        &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
        &[100],
        &[101],
        &[12, 13, 14, 15, 16],
        &[102],
        &[103],
        &[104],
        &[20, 21, 22, 23, 24, 25, 26],
        &[105],
    ];
    for n in [2usize, 4] {
        for forced in [None, Some(RingVariant::PassKv), Some(RingVariant::PassQ)] {
            let mut checked = TransformerEngine::new(model(31), n)
                .unwrap()
                .with_schedule_checking(true);
            assert!(checked.schedule_checking());
            let mut plain = TransformerEngine::new(model(31), n).unwrap();
            for (i, chunk) in trace.iter().enumerate() {
                let decode = chunk.len() == 1 && i > 0;
                let (c, p) = if decode {
                    (
                        checked.decode(chunk[0]).unwrap(),
                        plain.decode(chunk[0]).unwrap(),
                    )
                } else {
                    (
                        checked.prefill_with(chunk, forced).unwrap(),
                        plain.prefill_with(chunk, forced).unwrap(),
                    )
                };
                assert_eq!(
                    c.activations, p.activations,
                    "n={n} forced={forced:?} step {i}: checked run must be bit-identical"
                );
                assert_eq!(c.traffic.send_recv_bytes, p.traffic.send_recv_bytes);
                assert_eq!(c.traffic.all_to_all_bytes, p.traffic.all_to_all_bytes);
            }
            assert_eq!(checked.context_len(), plain.context_len());
        }
    }
}

#[test]
fn bidi_schedule_is_bit_identical_and_plan_covered() {
    // The bidirectional family must serve the same bits as the default
    // unidirectional ring, with live schedule validation proving every
    // layer's split traffic matches the declared bidi plans — for both
    // forced variants and the heuristic default, at CP 2 and 4.
    use cp_core::schedule::RingLayout;
    use cp_perf::RingDirection;
    let trace: &[&[u32]] = &[
        &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
        &[100],
        &[12, 13, 14, 15, 16],
        &[101],
        &[102],
    ];
    for n in [2usize, 4] {
        for forced in [None, Some(RingVariant::PassKv), Some(RingVariant::PassQ)] {
            let mut bidi = TransformerEngine::new(model(57), n)
                .unwrap()
                .with_schedule(RingDirection::Bidi, RingLayout::Flat)
                .with_schedule_checking(true);
            let mut plain = TransformerEngine::new(model(57), n).unwrap();
            for (i, chunk) in trace.iter().enumerate() {
                let decode = chunk.len() == 1 && i > 0;
                let (b, p) = if decode {
                    (
                        bidi.decode(chunk[0]).unwrap(),
                        plain.decode(chunk[0]).unwrap(),
                    )
                } else {
                    (
                        bidi.prefill_with(chunk, forced).unwrap(),
                        plain.prefill_with(chunk, forced).unwrap(),
                    )
                };
                assert_eq!(
                    b.activations, p.activations,
                    "n={n} forced={forced:?} step {i}: bidi must be bit-identical to uni"
                );
                assert_eq!(b.traffic.send_recv_bytes, p.traffic.send_recv_bytes);
            }
        }
    }
}

#[test]
fn hierarchical_schedule_serves_exactly() {
    // Hier pass-Q is bitwise against flat (ascending-source gather); hier
    // pass-KV folds origins in ring-path order, so it is exact but only
    // approximately equal to the flat fold. Checked mode proves the hier
    // hop traffic matches the declared hierarchical plans.
    use cp_comm::Topology;
    use cp_core::schedule::RingLayout;
    use cp_perf::RingDirection;
    let trace: &[&[u32]] = &[&[1, 2, 3, 4, 5, 6, 7, 8, 9], &[100], &[10, 11, 12], &[101]];
    let mut reference = ReferenceSession::new(model(58));
    let expected: Vec<_> = trace
        .iter()
        .map(|chunk| reference.process(chunk).unwrap())
        .collect();
    for direction in [RingDirection::Uni, RingDirection::Bidi] {
        let mut engine = TransformerEngine::new(model(58), 4)
            .unwrap()
            .with_schedule(direction, RingLayout::Hier(Topology::new(2, 2)))
            .with_schedule_checking(true);
        for (i, chunk) in trace.iter().enumerate() {
            let out = if chunk.len() == 1 && i > 0 {
                engine.decode(chunk[0]).unwrap()
            } else {
                engine.prefill(chunk).unwrap()
            };
            assert!(
                out.activations.approx_eq(&expected[i], 3e-3).unwrap(),
                "{direction:?} step {i}: max diff {}",
                out.activations.max_abs_diff(&expected[i]).unwrap()
            );
        }
    }
}

#[test]
fn mismatched_schedule_topology_is_a_typed_error_before_any_rank_runs() {
    // A topology that does not cover the engine's ranks used to be caught
    // only for `Auto`; a fixed hierarchical layout spawned the ranks,
    // appended to the caches, failed inside the ring as a stringified
    // `RankFailed`, and rolled back. Both policies must now be refused up
    // front, from `begin_prefill` and `decode_batch` alike, as a typed
    // `BadRequest` that leaves the session untouched.
    use cp_comm::Topology;
    use cp_core::schedule::RingLayout;
    use cp_core::CoreError;
    use cp_kvcache::SeqId;
    use cp_perf::{RingDirection, TopologySpec};
    use cp_serve::ServeError;
    let seq = SeqId(7);
    let engines = [
        TransformerEngine::new(model(60), 3)
            .unwrap()
            .with_schedule(RingDirection::Uni, RingLayout::Hier(Topology::new(2, 2))),
        TransformerEngine::new(model(60), 3)
            .unwrap()
            .with_auto_schedule(TopologySpec::new(2, 2, 200.0, 10.0, 5.0)),
    ];
    for mut engine in engines {
        engine.create_session(seq).unwrap();
        let prefill = engine
            .begin_prefill(seq, &[1, 2, 3, 4, 5], None)
            .map(|_| ());
        let decode = engine.decode_batch(&[(seq, 9)]).map(|_| ());
        for (what, result) in [("begin_prefill", prefill), ("decode_batch", decode)] {
            match result {
                Err(ServeError::Core(CoreError::BadRequest { reason })) => assert!(
                    reason.contains("covers 4 ranks but the engine has 3"),
                    "{what}: {reason}"
                ),
                other => panic!("{what}: expected a typed BadRequest, got {other:?}"),
            }
        }
        assert_eq!(engine.session_len(seq).unwrap(), 0);
        assert_eq!(engine.rank_kv_lens_for(seq).unwrap(), vec![0, 0, 0]);
    }
}

#[test]
fn auto_schedule_serves_exactly_on_asymmetric_links() {
    // Auto mode prices the four families per turn on a 2x2 topology with
    // 20x intra/cross asymmetry (hier always wins; the 2x2 hier ring is
    // bidi-degenerate, so uni-hier is chosen) and must still serve the
    // reference bits within tolerance, plan-covered.
    use cp_perf::TopologySpec;
    let trace: &[&[u32]] = &[&[1, 2, 3, 4, 5, 6, 7], &[100], &[10, 11], &[101]];
    let mut reference = ReferenceSession::new(model(59));
    let expected: Vec<_> = trace
        .iter()
        .map(|chunk| reference.process(chunk).unwrap())
        .collect();
    let mut engine = TransformerEngine::new(model(59), 4)
        .unwrap()
        .with_auto_schedule(TopologySpec::new(2, 2, 200.0, 10.0, 5.0))
        .with_schedule_checking(true);
    for (i, chunk) in trace.iter().enumerate() {
        let out = if chunk.len() == 1 && i > 0 {
            engine.decode(chunk[0]).unwrap()
        } else {
            engine.prefill(chunk).unwrap()
        };
        assert!(
            out.activations.approx_eq(&expected[i], 3e-3).unwrap(),
            "step {i}: max diff {}",
            out.activations.max_abs_diff(&expected[i]).unwrap()
        );
    }
}

#[test]
fn int8_wire_compresses_pass_kv_traffic_and_stays_close() {
    // Int8Wire keeps KV storage and pass-Q/decode untouched but ships
    // pass-KV ring payloads as INT8 codes + per-(token, head) scales:
    // at head_dim 8 a token's KV block is 48 wire bytes instead of 128.
    // Activations must track the f32 engine within the documented
    // tolerance, and forced pass-KV prefills must move strictly fewer
    // SendRecv bytes (decode is pass-Q and stays byte-identical).
    use cp_core::KvPrecision;
    let trace: &[&[u32]] = &[
        &[1, 2, 3, 4, 5, 6, 7, 8, 9],
        &[100],
        &[10, 11, 12, 13, 14],
        &[101],
        &[102],
    ];
    for n in [2usize, 4] {
        let mut exact = TransformerEngine::new(model(61), n).unwrap();
        let mut quant = TransformerEngine::new(model(61), n)
            .unwrap()
            .with_kv_precision(KvPrecision::Int8Wire);
        let mut saw_error = false;
        for (i, chunk) in trace.iter().enumerate() {
            let decode = chunk.len() == 1 && i > 0;
            let (e, q) = if decode {
                (
                    exact.decode(chunk[0]).unwrap(),
                    quant.decode(chunk[0]).unwrap(),
                )
            } else {
                (
                    exact
                        .prefill_with(chunk, Some(RingVariant::PassKv))
                        .unwrap(),
                    quant
                        .prefill_with(chunk, Some(RingVariant::PassKv))
                        .unwrap(),
                )
            };
            let err = e.activations.max_abs_diff(&q.activations).unwrap();
            assert!(err < 0.25, "n={n} step {i}: INT8 wire drift {err}");
            saw_error |= err > 0.0;
            if decode {
                // Decode rings never quantize: same bytes as f32.
                assert_eq!(e.traffic.send_recv_bytes, q.traffic.send_recv_bytes);
            } else {
                // head_dim 8 compresses 128 -> 48 bytes per token block
                // (> 2.6x); the scales keep it from hitting a full 4x.
                assert!(
                    2 * q.traffic.send_recv_bytes < e.traffic.send_recv_bytes,
                    "n={n} step {i}: quant hop bytes {} vs f32 {}",
                    q.traffic.send_recv_bytes,
                    e.traffic.send_recv_bytes
                );
            }
        }
        assert!(saw_error, "n={n}: quantized run was bit-identical to f32");
        assert_eq!(exact.context_len(), quant.context_len());
    }
}

#[test]
fn int8_total_multi_turn_stays_close_across_variants() {
    // Int8Total additionally stores KV as INT8 pages and attends them in
    // place on the pass-Q prefill and decode hot paths (the f32 pool
    // remains the rollback master). A mixed multi-turn trace across both
    // forced variants must stay within tolerance of the f32 engine, with
    // cache bookkeeping (context_len) in lockstep.
    use cp_core::KvPrecision;
    let trace: &[&[u32]] = &[
        &[1, 2, 3, 4, 5, 6, 7, 8],
        &[100],
        &[101],
        &[10, 11, 12],
        &[102],
    ];
    for n in [2usize, 3] {
        for forced in [Some(RingVariant::PassKv), Some(RingVariant::PassQ), None] {
            let mut exact = TransformerEngine::new(model(67), n).unwrap();
            let mut quant = TransformerEngine::new(model(67), n)
                .unwrap()
                .with_kv_precision(KvPrecision::Int8Total);
            for (i, chunk) in trace.iter().enumerate() {
                let decode = chunk.len() == 1 && i > 0;
                let (e, q) = if decode {
                    (
                        exact.decode(chunk[0]).unwrap(),
                        quant.decode(chunk[0]).unwrap(),
                    )
                } else {
                    (
                        exact.prefill_with(chunk, forced).unwrap(),
                        quant.prefill_with(chunk, forced).unwrap(),
                    )
                };
                let err = e.activations.max_abs_diff(&q.activations).unwrap();
                assert!(
                    err < 0.25,
                    "n={n} forced={forced:?} step {i}: INT8 total drift {err}"
                );
            }
            assert_eq!(exact.context_len(), quant.context_len());
        }
    }
}

#[test]
fn int8_wire_checked_schedules_validate_quant_plans() {
    // Live schedule checking with compressed hops: the declared plans
    // come from the quant template builders, so every per-hop byte count
    // the fabric observes must match the INT8 wire format exactly — for
    // both ring directions, with f32 or INT8 storage behind the wire.
    use cp_core::schedule::RingLayout;
    use cp_core::KvPrecision;
    use cp_perf::RingDirection;
    let trace: &[&[u32]] = &[
        &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        &[100],
        &[11, 12, 13],
        &[101],
    ];
    let cells = [RingDirection::Uni, RingDirection::Bidi]
        .into_iter()
        .flat_map(|d| [(d, KvPrecision::Int8Wire), (d, KvPrecision::Int8Total)]);
    for (direction, precision) in cells {
        let mut checked = TransformerEngine::new(model(71), 4)
            .unwrap()
            .with_schedule(direction, RingLayout::Flat)
            .with_kv_precision(precision)
            .with_schedule_checking(true);
        let mut plain = TransformerEngine::new(model(71), 4)
            .unwrap()
            .with_schedule(direction, RingLayout::Flat)
            .with_kv_precision(precision);
        for (i, chunk) in trace.iter().enumerate() {
            let decode = chunk.len() == 1 && i > 0;
            let (c, p) = if decode {
                (
                    checked.decode(chunk[0]).unwrap(),
                    plain.decode(chunk[0]).unwrap(),
                )
            } else {
                (
                    checked
                        .prefill_with(chunk, Some(RingVariant::PassKv))
                        .unwrap(),
                    plain
                        .prefill_with(chunk, Some(RingVariant::PassKv))
                        .unwrap(),
                )
            };
            assert_eq!(
                c.activations, p.activations,
                "{direction:?} {precision:?} step {i}: checked quant run must be bit-identical"
            );
            assert_eq!(c.traffic.send_recv_bytes, p.traffic.send_recv_bytes);
        }
    }
}

#[test]
fn switching_to_int8_total_after_tokens_matches_int8_total_from_start() {
    // Switching to INT8 storage after a session holds tokens must build
    // every cache's INT8 plane from its f32 rows, and a round trip through
    // F32 must not leave a stale plane behind. Scales are token-local, so
    // a rebuilt plane is bitwise the one quantize-on-append writes. The model
    // has one layer: its cached K/V are projections of the embeddings, so
    // they do not depend on the precision the pre-switch attention ran
    // at (a deeper layer's K/V would), and the decodes after the switch
    // compare bit for bit against INT8 storage from the first token.
    use cp_core::KvPrecision::{Int8Total, F32};
    let one_layer = TransformerConfig {
        n_layers: 1,
        ..TransformerConfig::tiny()
    };
    let prompt: Vec<u32> = (1..12).collect();
    for n in [1usize, 2] {
        let engine = |precision| {
            TransformerEngine::new(Transformer::new(&one_layer, 67), n)
                .unwrap()
                .with_kv_precision(precision)
        };
        let decodes = |engine: &mut TransformerEngine, tokens: std::ops::Range<u32>| {
            tokens
                .map(|t| engine.decode(t).unwrap().activations)
                .collect::<Vec<_>>()
        };
        let mut from_start = engine(Int8Total);
        from_start.prefill(&prompt).unwrap();
        let expected = decodes(&mut from_start, 50..54);

        // F32 → Int8Total once the prompt is cached.
        let mut late = engine(F32);
        late.prefill(&prompt).unwrap();
        let mut late = late.with_kv_precision(Int8Total);
        assert_eq!(
            decodes(&mut late, 50..54),
            expected,
            "n={n}: F32 -> Int8Total"
        );

        // Int8Total → F32 → Int8Total, with one token cached at F32.
        let mut round = engine(Int8Total);
        round.prefill(&prompt).unwrap();
        let mut round = round.with_kv_precision(F32);
        round.decode(50).unwrap();
        let mut round = round.with_kv_precision(Int8Total);
        assert_eq!(
            decodes(&mut round, 51..54),
            expected[1..],
            "n={n}: Int8Total -> F32 -> Int8Total"
        );
    }
}
