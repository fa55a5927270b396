//! Kernel-level benches: the naive reference vs the flash-style blocked
//! kernel (prefill and decode shapes), and merge attention — the building
//! blocks behind Tables 3 and 5.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cp_attention::{
    blocked_gqa_attention, merge_partials, naive_gqa_attention, AttentionParams, GqaShape,
};
use cp_tensor::{DetRng, Tensor};

fn params() -> AttentionParams {
    AttentionParams::for_shape(GqaShape::new(8, 2, 32).unwrap())
}

fn inputs(t_q: usize, t_kv: usize, seed: u64) -> (Tensor, Tensor, Tensor, Vec<usize>, Vec<usize>) {
    let mut rng = DetRng::new(seed);
    let q = rng.tensor(&[t_q, 8, 32]);
    let k = rng.tensor(&[t_kv, 2, 32]);
    let v = rng.tensor(&[t_kv, 2, 32]);
    let kv_pos: Vec<usize> = (0..t_kv).collect();
    let q_pos: Vec<usize> = (t_kv - t_q..t_kv).collect();
    (q, k, v, q_pos, kv_pos)
}

fn bench_prefill_kernels(c: &mut Criterion) {
    let p = params();
    let (q, k, v, q_pos, kv_pos) = inputs(256, 256, 1);
    let mut group = c.benchmark_group("prefill_kernel_256x256");
    group.sample_size(10);
    group.bench_function("naive", |b| {
        b.iter(|| black_box(naive_gqa_attention(&q, &k, &v, &p, &q_pos, &kv_pos).unwrap()))
    });
    for block in [32usize, 128, 512] {
        group.bench_with_input(BenchmarkId::new("blocked", block), &block, |b, &block| {
            b.iter(|| {
                black_box(blocked_gqa_attention(&q, &k, &v, &p, &q_pos, &kv_pos, block).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_decode_kernels(c: &mut Criterion) {
    // One query against a long KV history (the decode regime), through
    // the kernel the decode ring calls.
    let p = params();
    let (q, k, v, q_pos, kv_pos) = inputs(1, 4096, 2);
    let mut group = c.benchmark_group("decode_kernel_1x4096");
    group.sample_size(10);
    group.bench_function("blocked/128", |b| {
        b.iter(|| black_box(blocked_gqa_attention(&q, &k, &v, &p, &q_pos, &kv_pos, 128).unwrap()))
    });
    group.finish();
}

fn bench_merge_attention(c: &mut Criterion) {
    // Merge cost vs number of partials (= CP ranks): the epilogue of every
    // ring loop (Eq. 4).
    let p = params();
    let mut group = c.benchmark_group("merge_attention_256tok");
    group.sample_size(10);
    for n_parts in [2usize, 4, 8, 16] {
        let t_kv = 512;
        let chunk = t_kv / n_parts;
        let (q, k, v, q_pos, kv_pos) = inputs(256, t_kv, 3);
        let partials: Vec<_> = (0..n_parts)
            .map(|i| {
                let ks = k.slice_dim0(i * chunk..(i + 1) * chunk).unwrap();
                let vs = v.slice_dim0(i * chunk..(i + 1) * chunk).unwrap();
                naive_gqa_attention(
                    &q,
                    &ks,
                    &vs,
                    &p,
                    &q_pos,
                    &kv_pos[i * chunk..(i + 1) * chunk],
                )
                .unwrap()
            })
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n_parts), &n_parts, |b, _| {
            b.iter(|| black_box(merge_partials(partials.iter()).unwrap()))
        });
    }
    group.finish();
}

fn bench_causal_vs_partial(c: &mut Criterion) {
    // Table 3's two columns as actual kernel work: a full causal prefill
    // vs a low-miss-rate partial prefill over the same total context.
    let p = params();
    let total = 512;
    let mut group = c.benchmark_group("full_vs_partial_kernel");
    group.sample_size(10);
    {
        let (q, k, v, q_pos, kv_pos) = inputs(total, total, 4);
        group.bench_function("full_prefill_512", |b| {
            b.iter(|| {
                black_box(blocked_gqa_attention(&q, &k, &v, &p, &q_pos, &kv_pos, 128).unwrap())
            })
        });
    }
    {
        let t = total / 16; // ~6% miss rate
        let (q, k, v, q_pos, kv_pos) = inputs(t, total, 5);
        group.bench_function("partial_prefill_32_of_512", |b| {
            b.iter(|| {
                black_box(blocked_gqa_attention(&q, &k, &v, &p, &q_pos, &kv_pos, 128).unwrap())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_prefill_kernels,
    bench_decode_kernels,
    bench_merge_attention,
    bench_causal_vs_partial
);
criterion_main!(benches);
