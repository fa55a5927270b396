//! Criterion A/B for the tentpole: blocking vs double-buffered CP4 ring
//! prefill under a modeled link, and persistent-pool vs scoped-spawn
//! fan-out. The `ring_overlap` bin is the calibrated, JSON-emitting
//! variant of the same comparison; this bench gives the criterion-style
//! repeated-sampling view.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use cp_attention::{AttentionParams, GqaShape};
use cp_comm::{Fabric, LinkModel};
use cp_core::ring::ring_pass_kv_prefill;
use cp_core::{LocalSeq, RingMsg, RingSpec};
use cp_pool::ComputePool;
use cp_tensor::DetRng;

const CP: usize = 4;

fn params() -> AttentionParams {
    AttentionParams::for_shape(GqaShape::new(8, 2, 16).unwrap())
}

fn build_locals(t: usize, seed: u64) -> Vec<Vec<LocalSeq>> {
    let p = params();
    let shape = p.shape;
    let mut rng = DetRng::new(seed);
    (0..CP)
        .map(|r| {
            let pos: Vec<usize> = (r * t..(r + 1) * t).collect();
            vec![LocalSeq {
                q: rng.tensor(&[t, shape.n_heads(), shape.head_dim()]),
                q_pos: pos.clone(),
                k: rng.tensor(&[t, shape.n_kv_heads(), shape.head_dim()]),
                v: rng.tensor(&[t, shape.n_kv_heads(), shape.head_dim()]),
                kv_pos: pos,
            }]
        })
        .collect()
}

fn run_ring(locals: &[Vec<LocalSeq>], link: LinkModel, overlapped: bool) {
    let p = params();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let (_, report) = Fabric::new(CP)
        .link(link)
        .compute_pool((cores / CP).max(1))
        .run::<RingMsg, _, _>(|comm| {
            let spec = RingSpec {
                depth: usize::from(overlapped),
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
        .unwrap();
    black_box(report);
}

fn bench_overlap_ab(c: &mut Criterion) {
    // A modeled 2 ms wire per hop; at 512 tokens/rank the per-hop attention
    // is in the same few-ms band, so comm is a large share of a blocking
    // hop — the operating point where overlap pays.
    let locals = build_locals(512, 9);
    let link = LinkModel::latency_only(Duration::from_millis(2));
    let mut group = c.benchmark_group("ring_overlap_cp4_512tok_2ms_link");
    group.sample_size(10);
    group.bench_function("blocking", |b| {
        b.iter(|| run_ring(&locals, link, false));
    });
    group.bench_function("overlapped", |b| {
        b.iter(|| run_ring(&locals, link, true));
    });
    group.finish();
}

fn bench_fanout_pool_vs_scoped(c: &mut Criterion) {
    let fanout = ComputePool::global().parallelism().max(2);
    let spin = || {
        let mut acc = 0.0f32;
        for i in 0..2_000 {
            acc += (i as f32).sqrt();
        }
        black_box(acc);
    };
    let mut group = c.benchmark_group(format!("fanout_x{fanout}"));
    group.bench_function("persistent_pool", |b| {
        b.iter(|| {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..fanout)
                .map(|_| Box::new(spin) as Box<dyn FnOnce() + Send + '_>)
                .collect();
            ComputePool::global().run(jobs);
        });
    });
    group.bench_function("scoped_spawn", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for _ in 0..fanout {
                    scope.spawn(spin);
                }
            });
        });
    });
    group.finish();
}

criterion_group!(benches, bench_overlap_ab, bench_fanout_pool_vs_scoped);
criterion_main!(benches);
