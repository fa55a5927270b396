//! `quant_path` — A/B harness for the total paged-KV quantization path,
//! emitting `BENCH_quant_path.json`.
//!
//! ```bash
//! cargo run --release -p cp-bench --bin quant_path            # full run
//! cargo run --release -p cp-bench --bin quant_path -- --smoke # CI smoke
//! ```
//!
//! Partial-prefill grid: total context `T` × CP degree × KV precision.
//! Each rank holds `T/CP` cached context tokens and projects a small
//! suffix of new queries; the pass-KV ring circulates the full shards,
//! so the per-hop wire payload is the measurement subject:
//!
//! * **f32** — the exact baseline: `2·l·n_kv·d·4` bytes per block.
//! * **int8_wire** — APB-style compressed hops: INT8 codes + one `f32`
//!   scale per `(token, head)`, `2·l·n_kv·(d+4)` bytes — `4d/(d+4)`×
//!   fewer (3.76× at this harness's `d = 64`). Storage stays f32.
//! * **int8_total** — same wire format, but the KV *pages* are INT8 too
//!   (the engine's `KvPrecision::Int8Total`), so the per-token storage
//!   footprint drops by the same ratio. Quantization is idempotent
//!   (max|code| = 127), so wire timing is shared with `int8_wire`; only
//!   the storage column differs.
//!
//! Correctness gates timing: each quantized cell's ring outputs are
//! compared against the f32 run and the max abs error must sit under the
//! documented tolerance **before** any wall clock is trusted. Timed runs
//! ride a bandwidth-calibrated link model (an f32 block costs ~2.5
//! compute phases on the wire) so the CP4 long-context cells are
//! genuinely comm-bound — where compressed hops must buy wall time.

use std::time::{Duration, Instant};

use cp_attention::{AttentionParams, GqaShape};
use cp_comm::{Fabric, LinkModel, TrafficReport, Wire};
use cp_core::ring::ring_pass_kv_prefill;
use cp_core::{LocalSeq, QuantSeqKv, RingMsg, RingSpec, RingWire, SeqKv};
use cp_tensor::{DetRng, Tensor};

/// Max abs error budget for INT8 symmetric per-(token, head) KV
/// quantization under this harness's inputs — the same bound the engine
/// and serving A/B tests pin.
const TOLERANCE: f32 = 0.05;

/// New query tokens per rank (the partial-prefill suffix).
const T_Q: usize = 64;

fn params() -> AttentionParams {
    AttentionParams::for_shape(GqaShape::new(4, 2, 64).expect("valid GQA shape"))
}

/// One causal sequence: `t_kv` context tokens per rank, with the last
/// `t_q` positions of each rank's shard as its new queries — a ragged
/// partial prefill over the full circulating context.
fn build_locals(world: usize, t_kv: usize, t_q: usize, seed: u64) -> Vec<Vec<LocalSeq>> {
    let p = params();
    let shape = p.shape;
    let mut rng = DetRng::new(seed);
    (0..world)
        .map(|r| {
            let kv_pos: Vec<usize> = (r * t_kv..(r + 1) * t_kv).collect();
            let q_pos: Vec<usize> = ((r + 1) * t_kv - t_q..(r + 1) * t_kv).collect();
            vec![LocalSeq {
                q: rng.tensor(&[t_q, shape.n_heads(), shape.head_dim()]),
                q_pos,
                k: rng.tensor(&[t_kv, shape.n_kv_heads(), shape.head_dim()]),
                v: rng.tensor(&[t_kv, shape.n_kv_heads(), shape.head_dim()]),
                kv_pos,
            }]
        })
        .collect()
}

fn pool_threads_per_rank(cp: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    (cores / cp).max(1)
}

/// Runs one pass-KV partial prefill (f32 or compressed hops), returning
/// the per-rank output tensors, wall time, and traffic report.
fn run_ring(
    cp: usize,
    locals: &[Vec<LocalSeq>],
    link: Option<LinkModel>,
    quant: bool,
) -> (Vec<Tensor>, Duration, TrafficReport) {
    let p = params();
    let mut fabric = Fabric::new(cp).compute_pool(pool_threads_per_rank(cp));
    if let Some(link) = link {
        fabric = fabric.link(link);
    }
    let start = Instant::now();
    let (outs, report) = fabric
        .run::<RingMsg, _, _>(|comm| {
            let spec = RingSpec {
                wire: if quant { RingWire::Int8 } else { RingWire::F32 },
                ..RingSpec::default()
            };
            ring_pass_kv_prefill(comm, &p, &spec, &locals[comm.rank()]).map_err(|e| {
                cp_comm::CommError::RankFailed {
                    rank: comm.rank(),
                    kind: "bench",
                    detail: e.to_string(),
                }
            })
        })
        .expect("ring prefill failed");
    let wall = start.elapsed();
    let outs = outs
        .into_iter()
        .map(|mut rank_outs| rank_outs.pop().expect("one sequence per rank").out)
        .collect();
    (outs, wall, report)
}

/// Best-of-`reps` wall time with the fastest run's traffic report.
fn best_of(
    reps: usize,
    cp: usize,
    locals: &[Vec<LocalSeq>],
    link: Option<LinkModel>,
    quant: bool,
) -> (Duration, TrafficReport) {
    let mut best: Option<(Duration, TrafficReport)> = None;
    for _ in 0..reps {
        let (_, wall, report) = run_ring(cp, locals, link, quant);
        if best.as_ref().is_none_or(|(b, _)| wall < *b) {
            best = Some((wall, report));
        }
    }
    best.expect("reps >= 1")
}

/// Total KV storage bytes of the context at each precision, measured off
/// the payload types themselves (not a formula): f32 tensors vs the
/// quantized blocks' codes + scales.
fn storage_bytes(locals: &[Vec<LocalSeq>]) -> (usize, usize) {
    let mut f32_bytes = 0usize;
    let mut quant_bytes = 0usize;
    for ls in locals {
        for l in ls {
            f32_bytes += (l.k.numel() + l.v.numel()) * 4;
            let q = QuantSeqKv::quantize(&SeqKv {
                k: l.k.clone(),
                v: l.v.clone(),
                pos: l.kv_pos.clone(),
            })
            .expect("quantize");
            quant_bytes += q.k.storage_bytes() + q.v.storage_bytes();
        }
    }
    (f32_bytes, quant_bytes)
}

fn max_err(a: &[Tensor], b: &[Tensor]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.max_abs_diff(y).expect("same shape"))
        .fold(0.0, f32::max)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_quant_path.json".to_string());

    let totals: &[usize] = if smoke {
        &[1024, 4096]
    } else {
        &[8192, 65536, 262144]
    };
    let cps: &[usize] = &[1, 2, 4];
    let t_q = if smoke { 32 } else { T_Q };
    let reps = if smoke { 1 } else { 2 };
    let d = params().shape.head_dim();
    let expected_ratio = (4 * d) as f64 / (d + 4) as f64;

    let mut cells = Vec::new();
    let mut lines = Vec::new();
    let mut min_wire_ratio = f64::INFINITY;
    let mut headline_speedup = 0.0f64;
    for &total in totals {
        for &cp in cps {
            let t_kv = total / cp;
            let locals = build_locals(cp, t_kv, t_q, 42 + total as u64 + cp as u64);
            let (f32_storage, quant_storage) = storage_bytes(&locals);

            // Correctness gate + compute-phase calibration, link-free.
            let calib = Instant::now();
            let (f32_outs, _, _) = run_ring(cp, &locals, None, false);
            let calib_wall = calib.elapsed();
            let (quant_outs, _, _) = run_ring(cp, &locals, None, true);
            let err = max_err(&f32_outs, &quant_outs);
            assert!(
                err < TOLERANCE,
                "T={total} cp={cp}: quantized ring error {err} exceeds {TOLERANCE}"
            );

            // Bandwidth-calibrated link: one f32 block spends ~2.5 compute
            // phases on the wire, so multi-rank cells are comm-bound and
            // compressed hops have wall time to win.
            let phase_s = (calib_wall.as_secs_f64() / cp as f64).max(1e-9);
            let f32_block = RingMsg::Kv {
                seqs: locals[0]
                    .iter()
                    .map(|l| SeqKv {
                        k: l.k.clone(),
                        v: l.v.clone(),
                        pos: l.kv_pos.clone(),
                    })
                    .collect(),
            }
            .wire_bytes();
            let link = (cp > 1).then(|| LinkModel {
                latency: Duration::from_micros(1),
                gib_per_s: f32_block as f64 / (2.5 * phase_s) / (1u64 << 30) as f64,
            });

            let (f32_wall, f32_report) = best_of(reps, cp, &locals, link, false);
            let (quant_wall, quant_report) = best_of(reps, cp, &locals, link, true);

            let new_tokens = (t_q * cp) as f64;
            let f32_tok_s = new_tokens / f32_wall.as_secs_f64();
            let quant_tok_s = new_tokens / quant_wall.as_secs_f64();
            let wire_ratio = if quant_report.send_recv_bytes > 0 {
                f32_report.send_recv_bytes as f64 / quant_report.send_recv_bytes as f64
            } else {
                0.0
            };
            if cp > 1 {
                min_wire_ratio = min_wire_ratio.min(wire_ratio);
            }
            if cp == cps[cps.len() - 1] && total == totals[totals.len() - 1] {
                headline_speedup = quant_tok_s / f32_tok_s;
            }

            let mb = |b: usize| b as f64 / (1 << 20) as f64;
            lines.push(format!(
                "  T={total} cp={cp}: f32 {:.1} tok/s, int8 {:.1} tok/s ({:.2}x), wire {:.2} -> \
                 {:.2} MB ({wire_ratio:.2}x), storage {:.1} -> {:.1} MB, err {err:.4}",
                f32_tok_s,
                quant_tok_s,
                quant_tok_s / f32_tok_s,
                mb(f32_report.send_recv_bytes),
                mb(quant_report.send_recv_bytes),
                mb(f32_storage),
                mb(quant_storage),
            ));
            // int8_wire and int8_total share codes, wire bytes, and math
            // (quantization is idempotent); they differ only in what the
            // cache *stores*, so the storage column is the only split.
            cells.push(serde_json::json!({
                "total_tokens": total,
                "cp": cp,
                "new_tokens": t_q * cp,
                "max_abs_err": err,
                "precisions": [
                    {
                        "precision": "f32",
                        "wall_ms": f32_wall.as_secs_f64() * 1e3,
                        "tok_s": f32_tok_s,
                        "wire_mb": mb(f32_report.send_recv_bytes),
                        "kv_storage_mb": mb(f32_storage),
                        "kv_bytes_per_token": f32_storage as f64 / total as f64,
                    },
                    {
                        "precision": "int8_wire",
                        "wall_ms": quant_wall.as_secs_f64() * 1e3,
                        "tok_s": quant_tok_s,
                        "wire_mb": mb(quant_report.send_recv_bytes),
                        "kv_storage_mb": mb(f32_storage),
                        "kv_bytes_per_token": f32_storage as f64 / total as f64,
                    },
                    {
                        "precision": "int8_total",
                        "wall_ms": quant_wall.as_secs_f64() * 1e3,
                        "tok_s": quant_tok_s,
                        "wire_mb": mb(quant_report.send_recv_bytes),
                        "kv_storage_mb": mb(quant_storage),
                        "kv_bytes_per_token": quant_storage as f64 / total as f64,
                    },
                ],
                "wire_reduction_x": wire_ratio,
                "tok_s_speedup": quant_tok_s / f32_tok_s,
            }));
        }
    }

    let json = serde_json::json!({
        "config": {
            "head_dim": d,
            "n_kv_heads": params().shape.n_kv_heads(),
            "new_tokens_per_rank": t_q,
            "reps": reps,
            "smoke": smoke,
            "tolerance": TOLERANCE,
            "expected_wire_reduction_x": expected_ratio,
        },
        "cells": cells,
        "min_wire_reduction_x": min_wire_ratio,
        "headline_comm_bound_speedup": headline_speedup,
    });
    std::fs::write(
        &out_path,
        serde_json::to_string_pretty(&json).expect("serialize report") + "\n",
    )
    .expect("write report");

    println!("quant_path (d={d}, t_q/rank={t_q}, reps={reps})");
    for line in &lines {
        println!("{line}");
    }
    println!(
        "  headline: min wire reduction {min_wire_ratio:.2}x (format predicts \
         {expected_ratio:.2}x), comm-bound cp4 long-context speedup {headline_speedup:.2}x"
    );
    println!("  wrote {out_path}");

    // Fail loudly if the headline claims regress (skipped in --smoke runs,
    // where timings are too short to be stable on shared CI hosts).
    if !smoke {
        assert!(
            min_wire_ratio >= 3.0,
            "compressed hops must cut per-hop wire bytes >=3x, got {min_wire_ratio:.2}x"
        );
        assert!(
            headline_speedup > 1.0,
            "compressed hops must win wall time in the comm-bound cp4 long-context cell, \
             got {headline_speedup:.2}x"
        );
    }
}
