//! Exact grouped-query attention (GQA) kernels with log-sum-exp outputs and
//! merge attention, the numeric core of context-parallel inference.
//!
//! The paper's ring pass-KV / pass-Q algorithms are *lossless, exact*
//! variants of dense causal attention: each rank computes partial attention
//! between its queries and a shard of the keys/values, and the partials are
//! combined with **merge attention** (Appendix B, Eq. 4) using each partial's
//! per-query log-sum-exp (LSE). This crate provides everything needed to do —
//! and to verify — that:
//!
//! * [`naive_gqa_attention`] — the auditable reference kernel,
//! * [`blocked_gqa_attention`] — a flash-style single-pass online-softmax
//!   kernel (stands in for FlashAttention-3): a query tile x KV block loop
//!   over register micro-kernels, bit-identical to the scalar row walk it
//!   replaced. Decode runs it too, one query over a paged cache view
//!   ([`blocked_gqa_attention_source`]), in place of a split-KV
//!   Flash-Decoding kernel,
//! * [`merge_partials`] — merge attention itself.
//!
//! All kernels take **global position arrays** for queries and keys instead
//! of assuming contiguous layouts: `kv_pos[j] <= q_pos[i]` is the causal
//! rule. This is what lets the load-balanced 2N-chunk sharding of the paper
//! (§3.5.1) — where each rank holds *non-contiguous* slices of the sequence —
//! remain exact. Padded KV slots use the [`PAD`] sentinel and never attend.
//!
//! # Example: splitting KV and merging is exact
//!
//! ```
//! use cp_attention::{merge_partials, naive_gqa_attention, AttentionParams, GqaShape};
//! use cp_tensor::DetRng;
//!
//! # fn main() -> Result<(), cp_attention::AttentionError> {
//! let shape = GqaShape::new(4, 2, 8)?;
//! let params = AttentionParams::for_shape(shape);
//! let mut rng = DetRng::new(1);
//! let (t, dh) = (6, 8);
//! let q = rng.tensor(&[t, 4, dh]);
//! let k = rng.tensor(&[t, 2, dh]);
//! let v = rng.tensor(&[t, 2, dh]);
//! let pos: Vec<usize> = (0..t).collect();
//!
//! let full = naive_gqa_attention(&q, &k, &v, &params, &pos, &pos)?;
//!
//! // Split keys/values in two, attend to each half, then merge.
//! let (k1, k2) = (k.slice_dim0(0..3).unwrap(), k.slice_dim0(3..t).unwrap());
//! let (v1, v2) = (v.slice_dim0(0..3).unwrap(), v.slice_dim0(3..t).unwrap());
//! let p1 = naive_gqa_attention(&q, &k1, &v1, &params, &pos, &pos[..3])?;
//! let p2 = naive_gqa_attention(&q, &k2, &v2, &params, &pos, &pos[3..])?;
//! let merged = merge_partials([&p1, &p2])?;
//! assert!(merged.out.approx_eq(&full.out, 1e-4).unwrap());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blocked;
mod error;
mod naive;
mod output;
mod shape;
mod source;

pub use blocked::{
    blocked_gqa_attention, blocked_gqa_attention_on, blocked_gqa_attention_source,
    blocked_gqa_attention_with_threads,
};
pub use error::AttentionError;
pub use naive::naive_gqa_attention;
pub use output::{merge_partials, AttentionOutput};
pub use shape::{AttentionParams, GqaShape};
pub use source::{KvSource, PageLayout};

/// Sentinel position marking a padded KV slot; padded slots are masked out of
/// every attention computation.
pub const PAD: usize = usize::MAX;
