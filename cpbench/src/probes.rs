//! Direct calls into each layer's public functions at the shapes the
//! workload exercised, made after the timed phase of a traced run.
//!
//! A probe measures one layer alone, single-threaded where the engine runs
//! it on a one-thread rank pool, so `probe × call count` can be set against
//! the traced wall of the calls that contain it (`bench.explained_share`).

use std::collections::BTreeMap;
use std::time::Instant;

use cp_attention::{
    blocked_gqa_attention_source, blocked_gqa_attention_with_threads, AttentionParams,
};
use cp_comm::Fabric;
use cp_core::{ContextParallelEngine, CoreError, EngineConfig, RingMsg};
use cp_kvcache::{KvCacheConfig, PagedKvCache, SeqId};
use cp_model::rope::apply_rope;
use cp_model::{rms_norm, Block, Transformer, TransformerConfig};
use cp_pool::ComputePool;
use cp_sharding::ShardPlan;
use cp_tensor::Tensor;

use crate::gen::SplitMix64;
use crate::stats::median;
use crate::workload::{ProbeShapes, CP, MODEL_SEED, POOL_THREADS};

/// The KV block of the blocked kernel inside the ring loops, for 16-token
/// pages (`cp_core::ring::attn_block_for(16)`).
const ATTN_BLOCK: usize = 128;
const PAGE: usize = 16;
/// A probe repeats until it has spent this long, preparation included ...
const BUDGET_S: f64 = 0.1;
/// ... and at least this often, unless one repetition is already long.
const MIN_REPS: usize = 3;
const LONG_REP_S: f64 = 0.4;

type Metrics = BTreeMap<&'static str, f64>;

/// Median of the seconds `f` reports over repeated runs; `f` times its
/// own measured part, so preparing and undoing a run stay outside it.
fn time_self(mut f: impl FnMut() -> f64) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < BUDGET_S || samples.len() < MIN_REPS {
        let s = f();
        samples.push(s);
        if s > LONG_REP_S {
            break;
        }
    }
    median(&samples)
}

fn time(mut f: impl FnMut()) -> f64 {
    time_self(|| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    })
}

pub fn run(s: &ProbeShapes, seed: u64) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    let mut rng = SplitMix64::stream(seed, "probes");
    comm(s, &mut rng, &mut m)?;
    sharding(s, &mut m)?;
    attention(s, &mut rng, &mut m)?;
    model(s, &mut rng, &mut m)?;
    kvcache(s, &mut rng, &mut m)?;
    core(s, &mut rng, &mut m).map_err(|e| format!("core probe: {e}"))?;
    m.insert(
        "core.ring_self_s",
        (m["core.full_prefill_s"] - m["attention.prefill_tile_s"]).max(0.0),
    );
    Ok(m)
}

/// Rows one rank holds of the prefill call the timed phase makes.
fn prefill_rows(s: &ProbeShapes) -> usize {
    (s.timed_prefill_t() / CP).max(1)
}

fn comm(s: &ProbeShapes, rng: &mut SplitMix64, m: &mut Metrics) -> Result<(), String> {
    let fabric = Fabric::new(CP).compute_pool(POOL_THREADS);
    let mut failed = false;
    m.insert(
        "comm.run_fixed_s",
        time(|| failed |= fabric.run::<RingMsg, (), _>(|_| Ok(())).is_err()),
    );
    // One decode hop: the batch's queries, rank to rank.
    const HOPS: u32 = 256;
    let shape = s.cfg.shape;
    let payload = rng.tensor(&[s.batch, shape.n_heads(), shape.head_dim()]);
    let (per_rank, _) = fabric
        .run::<RingMsg, f64, _>(|c| {
            let mut msg = RingMsg::Act { x: payload.clone() };
            let t = Instant::now();
            for _ in 0..HOPS {
                msg = c.send_recv(c.ring_next(), msg, c.ring_prev())?;
            }
            Ok(t.elapsed().as_secs_f64() / f64::from(HOPS))
        })
        .map_err(|e| format!("hop probe: {e}"))?;
    m.insert("comm.hop_s", per_rank[0]);
    if failed {
        return Err("empty fabric run failed".to_string());
    }
    Ok(())
}

fn sharding(s: &ProbeShapes, m: &mut Metrics) -> Result<(), String> {
    ShardPlan::new(s.full_t, CP).map_err(|e| format!("shard plan: {e}"))?;
    m.insert(
        "sharding.plan_s",
        time(|| {
            let plan = ShardPlan::new(s.full_t, CP).expect("checked above");
            for r in 0..CP {
                std::hint::black_box(plan.positions_for(r));
            }
        }),
    );
    Ok(())
}

fn qkv(rng: &mut SplitMix64, cfg: &TransformerConfig, t: usize) -> (Tensor, Tensor, Tensor) {
    let (nh, nkv, dh) = (
        cfg.shape.n_heads(),
        cfg.shape.n_kv_heads(),
        cfg.shape.head_dim(),
    );
    (
        rng.tensor(&[t, nh, dh]),
        rng.tensor(&[t, nkv, dh]),
        rng.tensor(&[t, nkv, dh]),
    )
}

fn attention(s: &ProbeShapes, rng: &mut SplitMix64, m: &mut Metrics) -> Result<(), String> {
    let params = AttentionParams::for_shape(s.cfg.shape);
    let shape = s.cfg.shape;
    // Rank 0's two tiles of a full prefill: its own chunks (causal) and
    // the chunks that visit from rank 1.
    let plan = ShardPlan::new(s.full_t, CP).map_err(|e| format!("shard plan: {e}"))?;
    let (own, other) = (plan.positions_for(0), plan.positions_for(1));
    let (q, k_own, v_own) = qkv(rng, &s.cfg, own.len());
    let (_, k_other, v_other) = qkv(rng, &s.cfg, other.len());
    let mut failed = false;
    let mut tile = |k: &Tensor, v: &Tensor, kv_pos: &[usize]| {
        time(|| {
            failed |=
                blocked_gqa_attention_with_threads(&q, k, v, &params, &own, kv_pos, ATTN_BLOCK, 1)
                    .is_err()
        })
    };
    let tile_s = tile(&k_own, &v_own, &own) + tile(&k_other, &v_other, &other);
    let pairs: usize = own
        .iter()
        .map(|&qp| own.partition_point(|&p| p <= qp) + other.partition_point(|&p| p <= qp))
        .sum();
    // QK^T and PV: 2 multiply-adds per (query, key, head, dim).
    let flop = 4.0 * pairs as f64 * (shape.n_heads() * shape.head_dim()) as f64;
    m.insert("attention.prefill_tile_s", tile_s);
    m.insert("attention.prefill_gflop_s", flop / tile_s.max(1e-12) / 1e9);

    // One decode slot: one query over the rank's share of the context,
    // read in place through the paged view, as the decode ring does.
    let rows = (s.ctx / CP).max(1);
    let mut cache = PagedKvCache::new(KvCacheConfig::new(
        PAGE,
        shape.n_kv_heads(),
        shape.head_dim(),
    ));
    let (q1, k, v) = qkv(rng, &s.cfg, rows);
    let q1 = q1.slice_dim0(0..1).map_err(|e| e.to_string())?;
    let positions: Vec<usize> = (0..rows).collect();
    cache.create_sequence(SeqId(0)).map_err(|e| e.to_string())?;
    cache
        .append(SeqId(0), &k, &v, &positions)
        .map_err(|e| e.to_string())?;
    let view = cache.view(SeqId(0)).map_err(|e| e.to_string())?;
    let pool = ComputePool::new(POOL_THREADS);
    let decode_s = time(|| {
        failed |= blocked_gqa_attention_source(
            &pool,
            &q1,
            &view.source(),
            &params,
            &[rows],
            view.positions(),
            ATTN_BLOCK,
        )
        .is_err()
    });
    let bytes = (rows * shape.n_kv_heads() * shape.head_dim() * 2 * 4) as f64;
    m.insert("attention.decode_s", decode_s);
    m.insert(
        "attention.decode_gib_s",
        bytes / decode_s.max(1e-12) / (1u64 << 30) as f64,
    );
    if failed {
        return Err("attention probe failed".to_string());
    }
    Ok(())
}

/// Everything of one block but its attention, on `x` (`[t, D]`): both
/// norms, the four projections, RoPE and the SwiGLU.
fn block_nonattn(
    block: &Block,
    cfg: &TransformerConfig,
    pool: &ComputePool,
    x: &Tensor,
    positions: &[usize],
) -> Result<Tensor, CoreError> {
    let t = x.dim0();
    let (nh, nkv, dh) = (
        cfg.shape.n_heads(),
        cfg.shape.n_kv_heads(),
        cfg.shape.head_dim(),
    );
    let h = rms_norm(x, cfg.norm_eps)?;
    let mut q = block.wq.forward_on(pool, &h)?.reshape(&[t, nh, dh])?;
    let mut k = block.wk.forward_on(pool, &h)?.reshape(&[t, nkv, dh])?;
    std::hint::black_box(block.wv.forward_on(pool, &h)?);
    apply_rope(&mut q, positions, cfg.rope_base)?;
    apply_rope(&mut k, positions, cfg.rope_base)?;
    std::hint::black_box(&k);
    // The attention output has the queries' shape; stand in for it.
    let attn = q.reshape(&[t, cfg.model_dim()])?;
    let mut x = x.deep_clone();
    x.add_assign(&block.wo.forward_on(pool, &attn)?)?;
    let h = rms_norm(&x, cfg.norm_eps)?;
    x.add_assign(&block.ffn.forward_on(pool, &h)?)?;
    Ok(x)
}

fn model(s: &ProbeShapes, rng: &mut SplitMix64, m: &mut Metrics) -> Result<(), String> {
    let model = Transformer::new(&s.cfg, MODEL_SEED);
    let block = &model.blocks()[0];
    let pool = ComputePool::new(POOL_THREADS);
    let d = s.cfg.model_dim();
    let rows = prefill_rows(s);
    let x_prefill = rng.tensor(&[rows, d]);
    let x_decode = rng.tensor(&[s.batch, d]);
    let mut failed = false;

    let gemm_prefill_s = time(|| failed |= block.wq.forward_on(&pool, &x_prefill).is_err());
    m.insert("tensor.gemm_prefill_s", gemm_prefill_s);
    m.insert(
        "tensor.gemm_decode_s",
        time(|| failed |= block.wq.forward_on(&pool, &x_decode).is_err()),
    );
    m.insert(
        "tensor.gemm_gflop_s",
        2.0 * (rows * d * d) as f64 / gemm_prefill_s.max(1e-12) / 1e9,
    );

    let pos_prefill: Vec<usize> = (0..rows).collect();
    let pos_decode: Vec<usize> = (0..s.batch).map(|b| s.ctx + b).collect();
    m.insert(
        "model.block_nonattn_s",
        time(|| failed |= block_nonattn(block, &s.cfg, &pool, &x_prefill, &pos_prefill).is_err()),
    );
    m.insert(
        "model.block_nonattn_decode_s",
        time(|| failed |= block_nonattn(block, &s.cfg, &pool, &x_decode, &pos_decode).is_err()),
    );
    if failed {
        return Err("model probe failed".to_string());
    }
    Ok(())
}

fn kvcache(s: &ProbeShapes, rng: &mut SplitMix64, m: &mut Metrics) -> Result<(), String> {
    let shape = s.cfg.shape;
    let mut cache = PagedKvCache::new(KvCacheConfig::new(
        PAGE,
        shape.n_kv_heads(),
        shape.head_dim(),
    ));
    let seq = SeqId(0);
    let mut failed = false;

    // Append a prefill's rows into a sequence whose pages come back from
    // the free list, as a session opened after another was freed finds them.
    let rows = prefill_rows(s);
    let (_, k, v) = qkv(rng, &s.cfg, rows);
    let (idx, positions): (Vec<usize>, Vec<usize>) = ((0..rows).collect(), (0..rows).collect());
    let append_s = time_self(|| {
        failed |= cache.create_sequence(seq).is_err();
        let t = Instant::now();
        failed |= cache.append_rows(seq, &k, &v, &idx, &positions).is_err();
        let s = t.elapsed().as_secs_f64();
        failed |= cache.free_sequence(seq).is_err();
        s
    });
    m.insert("kvcache.append_tok_s", append_s / rows as f64);

    // View and free a sequence of the rank's share of the decode context.
    let rows = (s.ctx / CP).max(1);
    let (_, k, v) = qkv(rng, &s.cfg, rows);
    let positions: Vec<usize> = (0..rows).collect();
    let fill = |cache: &mut PagedKvCache| {
        cache.create_sequence(seq).is_err() | cache.append(seq, &k, &v, &positions).is_err()
    };
    failed |= fill(&mut cache);
    m.insert(
        "kvcache.view_s",
        time(|| failed |= cache.view(seq).is_err()),
    );
    failed |= cache.free_sequence(seq).is_err();
    let free_s = time_self(|| {
        failed |= fill(&mut cache);
        let t = Instant::now();
        failed |= cache.free_sequence(seq).is_err();
        t.elapsed().as_secs_f64()
    });
    m.insert("kvcache.free_s", free_s);
    if failed {
        return Err("kvcache probe failed".to_string());
    }
    Ok(())
}

/// Median seconds of `op` on the engine; each repetition runs `undo`
/// outside the timing, so the next one sees the same caches.
fn time_core(
    engine: &mut ContextParallelEngine,
    mut op: impl FnMut(&mut ContextParallelEngine) -> Result<(), CoreError>,
    mut undo: impl FnMut(&mut ContextParallelEngine) -> Result<(), CoreError>,
) -> Result<f64, CoreError> {
    let mut result = Ok(());
    let seconds = time_self(|| {
        let t = Instant::now();
        let r = op(engine);
        let s = t.elapsed().as_secs_f64();
        if let Err(e) = r.and_then(|()| undo(engine)) {
            result = Err(e);
        }
        s
    });
    result.map(|()| seconds)
}

/// The one-layer distributed attention operations (`ContextParallelEngine`
/// runs its ranks on the default pool width; there is no public setting).
fn core(s: &ProbeShapes, rng: &mut SplitMix64, m: &mut Metrics) -> Result<(), CoreError> {
    let mut engine = ContextParallelEngine::new(EngineConfig::new(CP, s.cfg.shape))?;

    let (q, k, v) = qkv(rng, &s.cfg, s.full_t);
    let scratch = SeqId(u64::MAX);
    let full_s = time_core(
        &mut engine,
        |e| e.full_prefill(scratch, &q, &k, &v).map(drop),
        |e| e.free_sequence(scratch),
    )?;
    m.insert("core.full_prefill_s", full_s);

    // The batch's sessions, each with the decode context cached.
    let (q, k, v) = qkv(rng, &s.cfg, s.ctx);
    for b in 0..s.batch as u64 {
        engine.full_prefill(SeqId(b), &q, &k, &v)?;
    }

    let (q, k, v) = qkv(rng, &s.cfg, s.partial_t);
    let partial_s = time_core(
        &mut engine,
        |e| e.partial_prefill(SeqId(0), &q, &k, &v).map(drop),
        |e| e.rollback(SeqId(0), s.partial_t),
    )?;
    m.insert("core.partial_prefill_s", partial_s);

    let step: Vec<(SeqId, Tensor, Tensor, Tensor)> = (0..s.batch as u64)
        .map(|b| {
            let (q, k, v) = qkv(rng, &s.cfg, 1);
            (SeqId(b), q, k, v)
        })
        .collect();
    let decode_s = time_core(
        &mut engine,
        |e| e.decode_step(&step).map(drop),
        |e| (0..s.batch as u64).try_for_each(|b| e.rollback(SeqId(b), 1)),
    )?;
    m.insert("core.decode_step_s", decode_s);
    Ok(())
}
