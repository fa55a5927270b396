//! `decode_steady` — steady-state decode throughput A/B, emitting
//! `BENCH_decode_steady.json`.
//!
//! ```bash
//! cargo run --release -p cp-bench --bin decode_steady            # full run
//! cargo run --release -p cp-bench --bin decode_steady -- --smoke # CI smoke
//! ```
//!
//! The decode hot path attends over every rank's *resident* KV cache once
//! per generated token. The seed engines materialized that cache with
//! `PagedKvCache::gather` — an O(context) copy per (step, rank) — before
//! every ring pass-Q decode. This harness pits that path against the
//! zero-copy [`cp_kvcache::KvView`] path on the same caches and the same ring
//! schedule, at contexts up to 256K tokens and CP in {1, 2, 4}:
//!
//! * caches are built directly with O(T) chunked appends (no O(T^2)
//!   prefill), so the 256K point is reachable on a small host;
//! * each timed step is a faithful decode step: the owner rank appends
//!   the new token's KV, then every rank attends over its own cache via
//!   the selected decode strategy — with the cache either gathered (A)
//!   or borrowed zero-copy (B);
//! * the first step of each mode is checked bit-identical across modes;
//! * bytes-touched-per-token is reported analytically: the view reads
//!   each cached K/V byte once, the gather path reads it, writes the
//!   copy, and re-reads the copy (3x traffic).
//!
//! On top of the gather/view A/B, every grid point also times the three
//! decode strategies on the zero-copy caches — batched ring pass-Q
//! (Algorithm 4), Helix (one fused AllGather + All2All), and TP-only
//! (KV AllGather, owner attends the full context) — and records which
//! one the cp-perf Appendix-D comm model ranks first. The full run
//! asserts the model's pick is the measured winner (within a near-tie
//! tolerance) in every regime, plus the original >=2x zero-copy claim
//! at T = 256K.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use cp_attention::{AttentionParams, GqaShape};
use cp_core::ring::{ring_pass_q_decode, run_ring};
use cp_core::{attend_decode, DecodeSlot, RingSpec, SeqKv};
use cp_kvcache::{KvCacheConfig, PagedKvCache, SeqId};
use cp_perf::{choose_decode_strategy, DecodeStrategy, ModelSpec, TopologySpec};
use cp_tensor::{DetRng, Tensor};

/// The one sequence each bench cache holds.
const SEQ: SeqId = SeqId(0);
/// Tokens per cache page (the serving engine's geometry).
const PAGE_SIZE: usize = 16;
/// Tokens appended per build batch: bounds temp-tensor size while keeping
/// the build O(T).
const BUILD_CHUNK: usize = 4096;
/// Near-tie tolerance for the model-ranking assertion: the strategy the
/// model ranks first must measure within this fraction of the fastest.
const RANKING_TOLERANCE: f64 = 0.9;

/// Decode-shaped attention geometry: MQA-style single KV head with a wide
/// head dim keeps the kernel bandwidth-bound, which is where the
/// gather-vs-view distinction lives (and where long-context decode runs
/// on real accelerators).
fn bench_shape() -> GqaShape {
    GqaShape::new(1, 1, 128).expect("valid GQA shape")
}

/// The bench geometry as the cp-perf model sees it (f32 wire elements);
/// only the attention-head fields feed the decode-strategy comm terms.
fn bench_model_spec(shape: &GqaShape) -> ModelSpec {
    ModelSpec {
        name: "decode-steady-bench".to_string(),
        n_layers: 1,
        model_dim: shape.n_heads() * shape.head_dim(),
        ffn_dim: 4 * shape.n_heads() * shape.head_dim(),
        n_heads: shape.n_heads(),
        n_kv_heads: shape.n_kv_heads(),
        head_dim: shape.head_dim(),
        params: 0.0,
        act_bytes: 4.0,
        weight_bytes: 4.0,
    }
}

/// What one timed pass exercises: the gather-vs-view A/B both run ring
/// pass-Q; the strategy rows all run on zero-copy views.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    GatherPassQ,
    ViewPassQ,
    ViewHelix,
    ViewTpOnly,
}

/// One step's pre-generated new-token projections (identical across
/// modes, so the A/B outputs stay bit-comparable).
struct StepInput {
    q: Tensor,
    k: Tensor,
    v: Tensor,
    pos: usize,
}

/// Builds one rank's cache holding `tokens` rows at the given global
/// positions, via chunked O(T) appends.
fn build_cache(shape: &GqaShape, first_pos: usize, tokens: usize, seed: u64) -> PagedKvCache {
    let mut cache = PagedKvCache::new(KvCacheConfig::new(
        PAGE_SIZE,
        shape.n_kv_heads(),
        shape.head_dim(),
    ));
    cache.create_sequence(SEQ).expect("fresh cache");
    let mut rng = DetRng::new(seed);
    let mut done = 0;
    while done < tokens {
        let t = BUILD_CHUNK.min(tokens - done);
        let k = rng.tensor(&[t, shape.n_kv_heads(), shape.head_dim()]);
        let v = rng.tensor(&[t, shape.n_kv_heads(), shape.head_dim()]);
        let pos: Vec<usize> = (first_pos + done..first_pos + done + t).collect();
        cache.append(SEQ, &k, &v, &pos).expect("append fits");
        done += t;
    }
    cache
}

/// Runs `steps` decode steps over the per-rank caches and returns the
/// wall time plus the owner outputs of the first step (for the cross-mode
/// bit-identity check).
fn run_steps(
    caches: &[Mutex<PagedKvCache>],
    params: &AttentionParams,
    inputs: &[StepInput],
    mode: Mode,
) -> (Duration, Vec<f32>) {
    let cp = caches.len();
    let mut first_out = Vec::new();
    let start = Instant::now();
    for (step, input) in inputs.iter().enumerate() {
        let owner = step % cp;
        let body = |comm: &cp_comm::Communicator<cp_core::RingMsg>| {
            let r = comm.rank();
            let mut cache = caches[r].lock().expect("one thread per rank");
            let slot = if r == owner {
                cache.append(SEQ, &input.k, &input.v, &[input.pos])?;
                Some(DecodeSlot {
                    bid: 0,
                    q: input.q.clone(),
                    pos: input.pos,
                })
            } else {
                None
            };
            let spec = RingSpec::default();
            let strategy = match mode {
                Mode::GatherPassQ => {
                    let (k, v, pos) = cache.gather(SEQ)?;
                    let kv = [SeqKv { k, v, pos }.into()];
                    return ring_pass_q_decode(comm, params, &spec, &[slot], &kv);
                }
                Mode::ViewPassQ => DecodeStrategy::PassQ,
                Mode::ViewHelix => DecodeStrategy::Helix,
                Mode::ViewTpOnly => DecodeStrategy::TpOnly,
            };
            attend_decode(comm, params, strategy, &spec, &cache, &[slot], &[SEQ])
        };
        let (outs, _) = run_ring(cp, body).expect("decode step");
        if step == 0 {
            let owner_out = outs
                .into_iter()
                .find_map(|mut v: Vec<_>| v.pop())
                .expect("owner produced one output");
            first_out = owner_out.out.as_slice().to_vec();
        }
    }
    (start.elapsed(), first_out)
}

/// Rewinds every rank cache to its pre-bench length so the next mode sees
/// the identical starting state.
fn rewind(caches: &[Mutex<PagedKvCache>], lens: &[usize]) {
    for (cache, &len) in caches.iter().zip(lens) {
        cache
            .lock()
            .expect("threads joined")
            .truncate(SEQ, len)
            .expect("rewind to build length");
    }
}

struct GridResult {
    t: usize,
    cp: usize,
    gather_wall: Duration,
    view_wall: Duration,
    helix_wall: Duration,
    tp_only_wall: Duration,
    steps: usize,
}

impl GridResult {
    fn tokens_per_s(&self, wall: Duration) -> f64 {
        self.steps as f64 / wall.as_secs_f64()
    }

    fn strategy_tokens_per_s(&self, strategy: DecodeStrategy) -> f64 {
        self.tokens_per_s(match strategy {
            DecodeStrategy::PassQ => self.view_wall,
            DecodeStrategy::Helix => self.helix_wall,
            DecodeStrategy::TpOnly => self.tp_only_wall,
        })
    }

    fn measured_winner(&self) -> DecodeStrategy {
        *DecodeStrategy::ALL
            .iter()
            .max_by(|a, b| {
                self.strategy_tokens_per_s(**a)
                    .total_cmp(&self.strategy_tokens_per_s(**b))
            })
            .expect("non-empty strategy set")
    }
}

fn bench_point(
    shape: &GqaShape,
    params: &AttentionParams,
    t: usize,
    cp: usize,
    steps: usize,
) -> GridResult {
    // Contiguous shards: rank r owns positions [r*per, r*per+per). The
    // position metadata keeps ring decode exact for any layout.
    let per = t / cp;
    let caches: Vec<Mutex<PagedKvCache>> = (0..cp)
        .map(|r| {
            Mutex::new(build_cache(
                shape,
                r * per,
                per + usize::from(r < t % cp),
                0x5eed + (t * 31 + cp * 7 + r) as u64,
            ))
        })
        .collect();
    let lens: Vec<usize> = caches
        .iter()
        .map(|c| c.lock().expect("built").seq_len(SEQ).expect("one seq"))
        .collect();
    let mut rng = DetRng::new(0xdec0de ^ t as u64);
    let inputs: Vec<StepInput> = (0..steps)
        .map(|s| StepInput {
            q: rng.tensor(&[1, shape.n_heads(), shape.head_dim()]),
            k: rng.tensor(&[1, shape.n_kv_heads(), shape.head_dim()]),
            v: rng.tensor(&[1, shape.n_kv_heads(), shape.head_dim()]),
            pos: t + s,
        })
        .collect();

    // Warm every mode once (page-faults the freshly built caches) and
    // check all four produce bit-identical first-step outputs, then time
    // each mode from the same rewound state; best of two rounds.
    const MODES: [Mode; 4] = [
        Mode::GatherPassQ,
        Mode::ViewPassQ,
        Mode::ViewHelix,
        Mode::ViewTpOnly,
    ];
    let mut warm: Vec<Vec<f32>> = Vec::new();
    for mode in MODES {
        let (_, out) = run_steps(&caches, params, &inputs[..1], mode);
        rewind(&caches, &lens);
        warm.push(out);
    }
    for (i, out) in warm.iter().enumerate().skip(1) {
        assert_eq!(
            &warm[0], out,
            "decode mode {i} must be bit-identical to gather pass-Q (T={t}, CP={cp})"
        );
    }

    let mut walls = [Duration::MAX; 4];
    for _ in 0..2 {
        for (wall, mode) in walls.iter_mut().zip(MODES) {
            let (w, _) = run_steps(&caches, params, &inputs, mode);
            *wall = (*wall).min(w);
            rewind(&caches, &lens);
        }
    }
    GridResult {
        t,
        cp,
        gather_wall: walls[0],
        view_wall: walls[1],
        helix_wall: walls[2],
        tp_only_wall: walls[3],
        steps,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_decode_steady.json".to_string());

    let shape = bench_shape();
    let params = AttentionParams::for_shape(shape);
    let model = bench_model_spec(&shape);
    let token_kv_bytes = 2 * shape.n_kv_heads() * shape.head_dim() * std::mem::size_of::<f32>();

    // Smoke shares the full grid's first context so its rows (and the
    // tokens/s headline) stay comparable with the committed full-run
    // baseline for the CI perf ratchet.
    let contexts: &[usize] = if smoke {
        &[8192]
    } else {
        &[8192, 65_536, 262_144]
    };
    let cps: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4] };
    let steps = if smoke { 2 } else { 4 };

    let mut rows = Vec::new();
    let mut results = Vec::new();
    for &t in contexts {
        for &cp in cps {
            let r = bench_point(&shape, &params, t, cp, steps);
            let gather_tok_s = r.tokens_per_s(r.gather_wall);
            let view_tok_s = r.tokens_per_s(r.view_wall);
            let speedup = view_tok_s / gather_tok_s;
            // Per decoded token the ring visits every cached row once:
            // the view reads each K/V byte once; gather reads the pages,
            // writes the contiguous copy, and re-reads it in the kernel.
            let view_bytes = (t * token_kv_bytes) as u64;
            let gather_bytes = 3 * view_bytes;
            // An in-process fabric point for the Appendix-D strategy
            // ranking: channel sends cost microseconds of wakeup latency
            // and memcpy-class bandwidth.
            let topo = TopologySpec::uniform(cp, 8.0, 2.0);
            let model_pick = choose_decode_strategy(&model, &topo, t, 1);
            let winner = r.measured_winner();
            println!(
                "  T={:>6} CP={}: gather {:>8.2} ms/step, view {:>8.2} ms/step ({speedup:.2}x) | \
                 pass-q {:>7.1} helix {:>7.1} tp-only {:>7.1} tok/s, model picks {}, measured {}",
                r.t,
                r.cp,
                r.gather_wall.as_secs_f64() * 1e3 / r.steps as f64,
                r.view_wall.as_secs_f64() * 1e3 / r.steps as f64,
                r.strategy_tokens_per_s(DecodeStrategy::PassQ),
                r.strategy_tokens_per_s(DecodeStrategy::Helix),
                r.strategy_tokens_per_s(DecodeStrategy::TpOnly),
                model_pick.name(),
                winner.name(),
            );
            rows.push(serde_json::json!({
                "t": r.t,
                "cp": r.cp,
                "steps": r.steps,
                "gather_ms_per_step": r.gather_wall.as_secs_f64() * 1e3 / r.steps as f64,
                "view_ms_per_step": r.view_wall.as_secs_f64() * 1e3 / r.steps as f64,
                "gather_tokens_per_s": gather_tok_s,
                "view_tokens_per_s": view_tok_s,
                "speedup": speedup,
                "gather_bytes_per_token": gather_bytes,
                "view_bytes_per_token": view_bytes,
                "passq_tokens_per_s": r.strategy_tokens_per_s(DecodeStrategy::PassQ),
                "helix_tokens_per_s": r.strategy_tokens_per_s(DecodeStrategy::Helix),
                "tp_only_tokens_per_s": r.strategy_tokens_per_s(DecodeStrategy::TpOnly),
                "model_pick": model_pick.name(),
                "measured_winner": winner.name(),
            }));
            results.push((r, model_pick));
        }
    }

    let headline: Vec<&GridResult> = results
        .iter()
        .map(|(r, _)| r)
        .filter(|r| r.t == *contexts.last().expect("non-empty grid"))
        .collect();
    let headline_speedup = headline
        .iter()
        .map(|r| r.gather_wall.as_secs_f64() / r.view_wall.as_secs_f64())
        .fold(f64::INFINITY, f64::min);
    // The ratchet headline: best-strategy decode throughput at the grid
    // point shared by smoke and full runs (first context, CP = 2).
    let ratchet_cp = if cps.contains(&2) {
        2
    } else {
        *cps.last().expect("non-empty")
    };
    let headline_tok_s = results
        .iter()
        .map(|(r, _)| r)
        .find(|r| r.t == contexts[0] && r.cp == ratchet_cp)
        .map(|r| r.strategy_tokens_per_s(r.measured_winner()))
        .expect("ratchet grid point present");

    let json = serde_json::json!({
        "config": {
            "smoke": smoke,
            "steps": steps,
            "page_size": PAGE_SIZE,
            "n_heads": shape.n_heads(),
            "n_kv_heads": shape.n_kv_heads(),
            "head_dim": shape.head_dim(),
            "token_kv_bytes": token_kv_bytes,
        },
        "grid": rows,
        "headline": {
            "t": contexts.last(),
            "min_speedup_across_cp": headline_speedup,
            "tokens_per_s": headline_tok_s,
            "tokens_per_s_at": { "t": contexts[0], "cp": ratchet_cp },
        },
    });
    std::fs::write(
        &out_path,
        serde_json::to_string_pretty(&json).expect("serialize report") + "\n",
    )
    .expect("write report");
    println!("  wrote {out_path}");

    // The acceptance claims, skipped in --smoke where contexts are too
    // short for the copy cost to dominate timing noise.
    if !smoke {
        assert!(
            headline_speedup >= 2.0,
            "zero-copy decode must be >=2x gather at T=256K on every CP, got {headline_speedup:.2}x"
        );
        for (r, model_pick) in &results {
            let best = r.strategy_tokens_per_s(r.measured_winner());
            let picked = r.strategy_tokens_per_s(*model_pick);
            assert!(
                picked >= RANKING_TOLERANCE * best,
                "cp-perf model picked {} at T={} CP={}, but it measures {picked:.1} tok/s vs \
                 the winner's {best:.1} (> {:.0}% off)",
                model_pick.name(),
                r.t,
                r.cp,
                100.0 * (1.0 - RANKING_TOLERANCE),
            );
        }
    }
}
