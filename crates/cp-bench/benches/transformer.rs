//! Full-stack benches: the context-parallel transformer forward (every
//! rank runs all layers; ring attention per layer) vs the single-device
//! forward, and TP attention with KV replication.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cp_attention::{AttentionParams, GqaShape};
use cp_model::{cp_forward, tp, Transformer, TransformerConfig};
use cp_perf::RingVariant;
use cp_tensor::DetRng;

fn bench_cp_forward(c: &mut Criterion) {
    let model = Transformer::new(&TransformerConfig::small(), 1);
    let tokens: Vec<u32> = (0..128).map(|i| i % 997).collect();
    let mut group = c.benchmark_group("transformer_forward_128tok");
    group.sample_size(10);
    group.bench_function("single_device", |b| {
        b.iter(|| black_box(model.forward(&tokens).unwrap()))
    });
    for n in [2usize, 4] {
        group.bench_with_input(BenchmarkId::new("cp_forward", n), &n, |b, &n| {
            b.iter(|| black_box(cp_forward(&model, &tokens, n).unwrap()))
        });
    }
    group.finish();
}

fn bench_cp_variants_full_stack(c: &mut Criterion) {
    use cp_model::cp_forward_sharded_with;
    use cp_sharding::ShardPlan;
    let model = Transformer::new(&TransformerConfig::tiny(), 2);
    let tokens: Vec<u32> = (0..96).collect();
    let n = 3;
    let plan = ShardPlan::new(tokens.len(), n).unwrap();
    let shards: Vec<(Vec<u32>, Vec<usize>)> = (0..n)
        .map(|r| {
            let positions = plan.positions_for(r);
            (positions.iter().map(|&p| tokens[p]).collect(), positions)
        })
        .collect();
    let mut group = c.benchmark_group("transformer_ring_variant");
    group.sample_size(10);
    for variant in [RingVariant::PassKv, RingVariant::PassQ] {
        group.bench_function(format!("{variant}"), |b| {
            b.iter(|| black_box(cp_forward_sharded_with(&model, &shards, variant).unwrap()))
        });
    }
    group.finish();
}

fn bench_tp_attention(c: &mut Criterion) {
    let shape = GqaShape::new(8, 2, 16).unwrap();
    let params = AttentionParams::for_shape(shape);
    let mut rng = DetRng::new(3);
    let t = 256;
    let q = rng.tensor(&[t, 8, 16]);
    let k = rng.tensor(&[t, 2, 16]);
    let v = rng.tensor(&[t, 2, 16]);
    let pos: Vec<usize> = (0..t).collect();
    let mut group = c.benchmark_group("tp_attention_kv_replication");
    group.sample_size(10);
    for n in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(tp::tp_attention(&q, &k, &v, &params, &pos, &pos, n).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cp_forward,
    bench_cp_variants_full_stack,
    bench_tp_attention
);
criterion_main!(benches);
