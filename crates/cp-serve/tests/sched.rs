//! The serving scheduler's exactness and latency contracts:
//!
//! * Chunked prefill is **bitwise** identical to one-shot prefill — any
//!   chunk size, any rank count, either ring variant, f32 or INT8 storage
//!   (the turn's sharding and variant are fixed once at `begin_prefill`).
//! * Interleaved multi-session serving (batched decode, interleaved turn
//!   prefills) is **bitwise** identical, per session, to serving each
//!   conversation alone on a fresh engine, at f32 or INT8 storage.
//! * The scheduler's continuous batching keeps decode ticking every tick
//!   while a long prompt prefills in chunks — bounded TBT — and its
//!   completed outputs are bit-identical to solo replays.

use cp_core::KvPrecision;
use cp_kvcache::SeqId;
use cp_model::{Transformer, TransformerConfig};
use cp_perf::RingVariant;
use cp_serve::{SchedConfig, Scheduler, ServeError, TransformerEngine};
use cp_tensor::Tensor;
use cp_workload::{trace_token, Conversation, Turn};

fn model(seed: u64) -> Transformer {
    Transformer::new(&TransformerConfig::tiny(), seed)
}

fn conv(turns: &[(usize, usize)]) -> Conversation {
    Conversation {
        turns: turns
            .iter()
            .map(|&(p, r)| Turn {
                prompt_tokens: p,
                response_tokens: r,
            })
            .collect(),
    }
}

#[test]
fn chunked_prefill_is_bitwise_identical_to_one_shot() {
    let prompt: Vec<u32> = (0..17).map(|i| 1 + i as u32 * 3).collect();
    let cells = [RingVariant::PassKv, RingVariant::PassQ]
        .into_iter()
        .flat_map(|v| [(v, KvPrecision::F32), (v, KvPrecision::Int8Total)]);
    for n in [1usize, 2, 3] {
        for (variant, precision) in cells.clone() {
            let engine_at = || {
                TransformerEngine::new(model(7), n)
                    .unwrap()
                    .with_kv_precision(precision)
            };
            let mut oneshot = engine_at();
            oneshot.create_session(SeqId(1)).unwrap();
            let expected = oneshot
                .prefill_session_with(SeqId(1), &prompt, Some(variant))
                .unwrap()
                .activations;

            for chunk in [1usize, 3, 5, 100] {
                let mut engine = engine_at();
                engine.create_session(SeqId(1)).unwrap();
                let mut turn = engine
                    .begin_prefill(SeqId(1), &prompt, Some(variant))
                    .unwrap();
                let mut pieces = Vec::new();
                while !turn.is_done() {
                    pieces.push(engine.prefill_chunk(&mut turn, chunk).unwrap().activations);
                }
                let joined = Tensor::concat_dim0(pieces.iter()).unwrap();
                assert_eq!(
                    joined.as_slice(),
                    expected.as_slice(),
                    "chunk={chunk} n={n} {variant:?} {precision:?} diverged from one-shot"
                );
            }
        }
    }
}

#[test]
fn chunked_prefill_resumes_bitwise_across_later_turns() {
    // Chunking must stay exact when the session already has cached
    // context (P > 0): turn 2 of a conversation, chunked, equals turn 2
    // one-shot.
    for n in [1usize, 2] {
        let mut oneshot = TransformerEngine::new(model(8), n).unwrap();
        oneshot.create_session(SeqId(4)).unwrap();
        oneshot.prefill_session(SeqId(4), &[5, 6, 7, 8, 9]).unwrap();
        let expected = oneshot
            .prefill_session(SeqId(4), &[20, 21, 22, 23, 24, 25, 26])
            .unwrap()
            .activations;

        let mut engine = TransformerEngine::new(model(8), n).unwrap();
        engine.create_session(SeqId(4)).unwrap();
        engine.prefill_session(SeqId(4), &[5, 6, 7, 8, 9]).unwrap();
        let mut turn = engine
            .begin_prefill(SeqId(4), &[20, 21, 22, 23, 24, 25, 26], None)
            .unwrap();
        let mut pieces = Vec::new();
        while !turn.is_done() {
            pieces.push(engine.prefill_chunk(&mut turn, 3).unwrap().activations);
        }
        let joined = Tensor::concat_dim0(pieces.iter()).unwrap();
        assert_eq!(joined.as_slice(), expected.as_slice(), "n={n}");
    }
}

/// Replays one conversation alone on a fresh single-session engine at
/// `precision`, returning its per-token decode activations.
fn solo_replay(
    seed: u64,
    n: usize,
    precision: KvPrecision,
    request: u64,
    c: &Conversation,
    vocab: u32,
) -> Vec<Tensor> {
    let mut engine = TransformerEngine::new(model(seed), n)
        .unwrap()
        .with_kv_precision(precision);
    let seq = SeqId(99);
    engine.create_session(seq).unwrap();
    let mut consumed = 0usize;
    let mut outputs = Vec::new();
    for turn in &c.turns {
        let prompt: Vec<u32> = (0..turn.prompt_tokens)
            .map(|j| trace_token(request, consumed + j, vocab))
            .collect();
        consumed += prompt.len();
        engine.prefill_session(seq, &prompt).unwrap();
        for _ in 0..turn.response_tokens {
            let tok = trace_token(request, consumed, vocab);
            consumed += 1;
            outputs.push(
                engine
                    .decode_batch(&[(seq, tok)])
                    .unwrap()
                    .activations
                    .remove(0),
            );
        }
    }
    outputs
}

#[test]
fn interleaved_sessions_are_bit_identical_to_solo_runs() {
    // Two conversations served concurrently — batched decode ticks,
    // interleaved turn prefills — must emit, per session, exactly the
    // activations of serving each conversation alone (CP 1 and 2, f32 and
    // INT8 storage).
    let vocab = 128;
    let conv_a = conv(&[(6, 4), (3, 3)]);
    let conv_b = conv(&[(9, 8)]);
    let cells = [1usize, 2]
        .into_iter()
        .flat_map(|n| [(n, KvPrecision::F32), (n, KvPrecision::Int8Total)]);
    for (n, precision) in cells {
        let mut engine = TransformerEngine::new(model(21), n)
            .unwrap()
            .with_kv_precision(precision);
        let (sa, sb) = (SeqId(1), SeqId(2));
        engine.create_session(sa).unwrap();
        engine.create_session(sb).unwrap();

        // Interleave: prefill A's turn 1, then B's turn, then decode both
        // in fused batches; A's second turn opens while B still decodes.
        let mut got_a = Vec::new();
        let mut got_b = Vec::new();
        let mut ca = 0usize; // tokens consumed per stream
        let mut cb = 0usize;
        let prompt = |req: u64, from: usize, t: usize| -> Vec<u32> {
            (0..t).map(|j| trace_token(req, from + j, vocab)).collect()
        };

        engine.prefill_session(sa, &prompt(0, ca, 6)).unwrap();
        ca += 6;
        engine.prefill_session(sb, &prompt(1, cb, 9)).unwrap();
        cb += 9;
        // 4 fused ticks: A and B decode together.
        for _ in 0..4 {
            let batch = [
                (sa, trace_token(0, ca, vocab)),
                (sb, trace_token(1, cb, vocab)),
            ];
            ca += 1;
            cb += 1;
            let mut out = engine.decode_batch(&batch).unwrap().activations;
            got_b.push(out.remove(1));
            got_a.push(out.remove(0));
        }
        // A's turn 2 prefill lands while B keeps decoding.
        engine.prefill_session(sa, &prompt(0, ca, 3)).unwrap();
        ca += 3;
        let tok_b = trace_token(1, cb, vocab);
        cb += 1;
        got_b.push(
            engine
                .decode_batch(&[(sb, tok_b)])
                .unwrap()
                .activations
                .remove(0),
        );
        // Final fused ticks: A turn-2 decode with B's trailing tokens —
        // note the batch order flips, which must not matter.
        for _ in 0..3 {
            let batch = [
                (sb, trace_token(1, cb, vocab)),
                (sa, trace_token(0, ca, vocab)),
            ];
            ca += 1;
            cb += 1;
            let mut out = engine.decode_batch(&batch).unwrap().activations;
            got_a.push(out.remove(1));
            got_b.push(out.remove(0));
        }

        let solo_a = solo_replay(21, n, precision, 0, &conv_a, vocab);
        let solo_b = solo_replay(21, n, precision, 1, &conv_b, vocab);
        assert_eq!(got_a.len(), solo_a.len());
        assert_eq!(got_b.len(), solo_b.len());
        for (i, (got, want)) in got_a.iter().zip(&solo_a).enumerate() {
            assert_eq!(got.as_slice(), want.as_slice(), "A {i} n={n} {precision:?}");
        }
        for (i, (got, want)) in got_b.iter().zip(&solo_b).enumerate() {
            assert_eq!(got.as_slice(), want.as_slice(), "B {i} n={n} {precision:?}");
        }
    }
}

#[test]
fn scheduler_outputs_are_bit_identical_to_solo_replays() {
    // End to end through the scheduler: admission, chunked prefill,
    // continuous batching — completed outputs equal solo replays.
    let config = SchedConfig {
        prefill_chunk_tokens: 4,
        ..SchedConfig::default()
    };
    let vocab = config.vocab;
    let conv_a = conv(&[(7, 3), (2, 2)]);
    let conv_b = conv(&[(11, 4)]);
    for n in [1usize, 2] {
        let engine = TransformerEngine::new(model(33), n).unwrap();
        let mut sched = Scheduler::new(engine, config);
        sched.submit(0, 0.0, conv_a.clone());
        sched.submit(1, 0.0, conv_b.clone());
        sched.run_to_completion(500).unwrap();
        assert_eq!(sched.outputs().len(), 2);
        for (request, got) in sched.outputs() {
            let c = if *request == 0 { &conv_a } else { &conv_b };
            let want = solo_replay(33, n, KvPrecision::F32, *request, c, vocab);
            assert_eq!(got.len(), want.len(), "request {request} n={n}");
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.as_slice(),
                    w.as_slice(),
                    "request {request} token {i} n={n}"
                );
            }
        }
    }
}

#[test]
fn chunked_prefill_interleaves_with_decode_bounding_tbt() {
    // A long prompt arrives while another session is mid-decode. With
    // chunked prefill the decoder never stalls: decode runs every tick,
    // so its inter-token gap stays 1 tick even while the 36-token prompt
    // takes many ticks of chunk-4 prefill. This is the scheduler's SLO
    // story: p99 TBT bounded by the chunk schedule, not the prompt length.
    let config = SchedConfig {
        prefill_chunk_tokens: 4,
        ..SchedConfig::default()
    };
    let engine = TransformerEngine::new(model(5), 2).unwrap();
    let mut sched = Scheduler::new(engine, config);
    sched.submit(0, 0.0, conv(&[(4, 24)]));
    sched.submit(1, 2.0, conv(&[(36, 2)]));
    let reports = sched.run_to_completion(500).unwrap();

    // Genuine interleaving: some tick ran a prefill chunk AND decoded.
    assert!(
        reports
            .iter()
            .any(|r| r.prefill_tokens > 0 && r.decoded > 0),
        "no tick interleaved prefill with decode"
    );
    let m = sched.metrics();
    assert_eq!(m.completed, 2);
    assert_eq!(m.decoded_tokens, 26);
    // Every inter-token gap of every session is exactly one tick: the
    // long prefill never blocked a decode tick.
    let p99 = m.tbt_tick_quantile(0.99).unwrap();
    assert!(
        p99 <= 1.0,
        "p99 TBT {p99} ticks — decode stalled behind prefill"
    );
}

#[test]
fn session_errors_are_typed_through_the_public_api() {
    let mut engine = TransformerEngine::new(model(1), 2).unwrap();
    engine.create_session(SeqId(3)).unwrap();
    // Historical panic site: re-creating a live session.
    assert!(matches!(
        engine.create_session(SeqId(3)),
        Err(ServeError::SequenceExists { seq: SeqId(3) })
    ));
    assert!(matches!(
        engine.prefill_session(SeqId(8), &[1, 2]),
        Err(ServeError::UnknownSession { seq: SeqId(8) })
    ));
    assert!(matches!(
        engine.decode_batch(&[(SeqId(8), 1)]),
        Err(ServeError::UnknownSession { seq: SeqId(8) })
    ));
    assert!(matches!(
        engine.free_session(SeqId(8)),
        Err(ServeError::UnknownSession { seq: SeqId(8) })
    ));
}
