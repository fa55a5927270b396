//! Seeded input generation and digests.
//!
//! Every input the benchmark hands to the program comes from here and from
//! `--seed`: the program sees only `Vec<u32>` token ids and `Conversation`
//! values. The generator is the benchmark's own splitmix64 so a change to
//! the repo's RNG shims cannot silently change the workloads.

use cp_tensor::Tensor;
use cp_workload::{Conversation, Turn};

/// splitmix64 (Steele, Lea, Flood 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for one named stream of one seed, so adding a stream
    /// never shifts the values of another.
    pub fn stream(seed: u64, stream: &str) -> Self {
        let mut h = Fnv::new();
        h.write_u64(seed);
        h.write_bytes(stream.as_bytes());
        SplitMix64(h.finish())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi);
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i));
        }
    }

    pub fn tokens(&mut self, n: usize, vocab: u32) -> Vec<u32> {
        (0..n)
            .map(|_| (self.next_u64() % u64::from(vocab)) as u32)
            .collect()
    }

    /// A tensor of uniform values in `[-1, 1)`, for the layer probes.
    pub fn tensor(&mut self, shape: &[usize]) -> Tensor {
        Tensor::from_fn(shape, |_| (self.next_f64() * 2.0 - 1.0) as f32)
    }
}

/// FNV-1a, 64 bit.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    pub fn write_u32s(&mut self, vs: &[u32]) {
        for v in vs {
            self.write_bytes(&v.to_le_bytes());
        }
    }

    /// Hashes the bit patterns of the activations, so `-0.0` and `0.0`, or
    /// two NaN payloads, do not compare equal.
    pub fn write_tensor(&mut self, t: &Tensor) {
        for v in t.as_slice() {
            self.write_bytes(&v.to_bits().to_le_bytes());
        }
    }

    pub fn write_conversation(&mut self, c: &Conversation) {
        for t in &c.turns {
            self.write_u64(t.prompt_tokens as u64);
            self.write_u64(t.response_tokens as u64);
        }
        self.write_u64(u64::MAX);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a set of per-operation digests that does not depend on the
/// order operations completed in: each is keyed by its operation id and
/// the keyed hashes are summed.
#[derive(Debug, Clone, Default)]
pub struct UnorderedDigest {
    sum: u64,
    count: u64,
}

impl UnorderedDigest {
    pub fn add(&mut self, id: u64, op_digest: u64) {
        let mut h = Fnv::new();
        h.write_u64(id);
        h.write_u64(op_digest);
        self.sum = self.sum.wrapping_add(h.finish());
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn finish(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.count);
        h.write_u64(self.sum);
        h.finish()
    }
}

pub fn hex(d: u64) -> String {
    format!("{d:016x}")
}

/// `n` values spread evenly over the quantiles of a distribution, in blocks
/// of `block`: value `j` of block `b` is `quantile_fn` at
/// `(j + (b + 0.5) / blocks) / block`, so every block covers the whole
/// distribution and all `n` together stratify it `n` ways; each block is
/// then shuffled. Every seed draws the same multiset, block by block, in
/// another order: the offered work of a run — and of every stretch of it —
/// does not depend on the seed, only its arrangement does. This is what
/// keeps the metrics of one commit comparable across seeds.
pub fn stratified(
    rng: &mut SplitMix64,
    n: usize,
    block: usize,
    quantile_fn: impl Fn(f64) -> usize,
) -> Vec<usize> {
    let blocks = n.div_ceil(block);
    let mut out: Vec<usize> = (0..n)
        .map(|i| {
            quantile_fn(
                ((i % block) as f64 + ((i / block) as f64 + 0.5) / blocks as f64) / block as f64,
            )
        })
        .collect();
    for chunk in out.chunks_mut(block) {
        rng.shuffle(chunk);
    }
    out
}

/// Quantile function of the log-uniform distribution on `[lo, hi]`.
pub fn log_uniform(lo: usize, hi: usize) -> impl Fn(f64) -> usize {
    let (a, b) = ((lo as f64).ln(), (hi as f64 + 1.0).ln());
    move |u| ((a + u * (b - a)).exp().floor() as usize).clamp(lo, hi)
}

/// Quantile function of the uniform distribution on the integers `[lo, hi]`.
pub fn uniform(lo: usize, hi: usize) -> impl Fn(f64) -> usize {
    move |u| (lo + (u * (hi - lo + 1) as f64).floor() as usize).min(hi)
}

/// Arrival times of `n` requests at `rate` per second: a Poisson process
/// conditioned on exactly `per_window` arrivals in every window of
/// `per_window / rate` seconds (the sorted order statistics of that many
/// uniforms on the window). Inside a window the gaps are as bursty as a
/// Poisson process's; from window to window the offered load is level, so
/// a run's queueing does not hang on where a seed happened to put its one
/// big cluster.
pub fn windowed_arrivals(rng: &mut SplitMix64, n: usize, rate: f64, per_window: usize) -> Vec<f64> {
    let window_s = per_window as f64 / rate;
    let mut at: Vec<f64> = (0..n)
        .map(|i| ((i / per_window) as f64 + rng.next_f64()) * window_s)
        .collect();
    for window in at.chunks_mut(per_window) {
        window.sort_by(f64::total_cmp);
    }
    at
}

/// A multi-turn short chat: `min_turns..=max_turns` turns of 4–24 prompt
/// and 4–24 response tokens.
pub fn short_chat(rng: &mut SplitMix64, min_turns: usize, max_turns: usize) -> Conversation {
    let turns = (0..rng.range(min_turns, max_turns))
        .map(|_| Turn {
            prompt_tokens: rng.range(4, 24),
            response_tokens: rng.range(4, 24),
        })
        .collect();
    Conversation { turns }
}

pub fn single_turn(prompt: usize, response: usize) -> Conversation {
    Conversation {
        turns: vec![Turn {
            prompt_tokens: prompt,
            response_tokens: response,
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs of splitmix64 seeded with 1234567 (Vigna's test vector).
        let mut r = SplitMix64(1_234_567);
        assert_eq!(r.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(r.next_u64(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        let mut h = Fnv::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn tensor_digest_is_stable_and_bit_exact() {
        let t = Tensor::from_vec(vec![1.0, -2.5, 0.0], &[3]).unwrap();
        let digest = |t: &Tensor| {
            let mut h = Fnv::new();
            h.write_tensor(t);
            h.finish()
        };
        assert_eq!(digest(&t), digest(&t.deep_clone()));
        assert_eq!(hex(digest(&t)), "00f3a969ef350f78");
        let neg_zero = Tensor::from_vec(vec![1.0, -2.5, -0.0], &[3]).unwrap();
        assert_ne!(digest(&t), digest(&neg_zero));
    }

    #[test]
    fn unordered_digest_ignores_completion_order() {
        let mut a = UnorderedDigest::default();
        let mut b = UnorderedDigest::default();
        for id in 0..5u64 {
            a.add(id, id * 31);
            b.add(4 - id, (4 - id) * 31);
        }
        assert_eq!(a.finish(), b.finish());
        let mut c = UnorderedDigest::default();
        for id in 0..5u64 {
            c.add(id, (4 - id) * 31);
        }
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn stratified_draws_the_same_multiset_for_every_seed() {
        let draw = |seed| stratified(&mut SplitMix64(seed), 600, 24, log_uniform(16, 256));
        let (a, b) = (draw(1), draw(2));
        assert_ne!(a, b);
        assert_eq!(a, draw(1));
        // Block by block the same values, and each block spans the range.
        for (x, y) in a.chunks(24).zip(b.chunks(24)) {
            let (mut x, mut y) = (x.to_vec(), y.to_vec());
            x.sort_unstable();
            y.sort_unstable();
            assert_eq!(x, y);
            assert!(x[0] <= 18 && x[23] >= 228, "{x:?}");
        }
        assert_eq!(
            (*a.iter().min().unwrap(), *a.iter().max().unwrap()),
            (16, 256)
        );
    }

    #[test]
    fn arrivals_are_sorted_with_a_level_count_per_window() {
        let at = windowed_arrivals(&mut SplitMix64(3), 300, 30.0, 6);
        assert_eq!(at.len(), 300);
        assert!(at.windows(2).all(|w| w[0] <= w[1]));
        assert!(at[0] >= 0.0 && at[299] < 10.0);
        // 6 arrivals in every 0.2 s window.
        for w in 0..50 {
            let (lo, hi) = (w as f64 * 0.2, (w + 1) as f64 * 0.2);
            assert_eq!(
                at.iter().filter(|&&t| t >= lo && t < hi).count(),
                6,
                "window {w}"
            );
        }
    }
}
