//! Paged, position-aware KV cache for context-parallel inference.
//!
//! Long-context inference stores the key/value projections of every token it
//! has seen (the *KV cache*); the cache grows linearly with context length
//! and is the memory bottleneck the paper distributes across CP ranks. This
//! crate provides the storage substrate:
//!
//! * [`PagedKvCache`] — fixed-size pages with per-sequence page tables, the
//!   PagedAttention-style management the paper assumes (Kwon et al. 2023),
//!   with allocation failure surfaced as [`CacheError::OutOfPages`] so
//!   capacity experiments can observe OOM boundaries.
//! * [`KvView`] — a zero-copy borrowed view of a sequence's pages that
//!   attention kernels consume directly (via `cp_attention::KvSource`),
//!   keeping [`PagedKvCache::gather`] off the decode hot path.
//! * An optional INT8 plane of every page ([`PagedKvCache::set_int8`]):
//!   the same slots quantized per (token, head), written by the same
//!   append and served by the same view. The f32 values stay beside it as
//!   the exact record, so one page table, pool and free list serve both;
//!   [`QuantizedKv`] is the contiguous form the ring wire carries.
//! * Pages are stored in the layout the attention kernel consumes,
//!   `cp_attention::PageLayout`: K `[kv_head][d][slot]` (k-major, the
//!   kernel's panel order), V `[kv_head][slot][d]`, INT8 scales
//!   `[kv_head][slot]`. An append writes each token through it once, so a
//!   decode step packs its KV blocks with contiguous copies instead of
//!   transposing every cached key again; `gather` reads rows back through
//!   the same type. No code here computes an offset inside a page.
//! * Each cached token carries its **global position**, because a CP rank
//!   holds a *non-contiguous* slice of every sequence under load-balanced
//!   sharding — position metadata is what keeps ring attention exact.
//!
//! One `PagedKvCache` stores one attention layer's cache for one rank; the
//! engine in `cp-core` owns one per (rank, layer).
//!
//! # Example
//!
//! ```
//! use cp_kvcache::{KvCacheConfig, PagedKvCache, SeqId};
//! use cp_tensor::DetRng;
//!
//! # fn main() -> Result<(), cp_kvcache::CacheError> {
//! let config = KvCacheConfig::new(16, 2, 8); // 16-token pages, 2 KV heads, dim 8
//! let mut cache = PagedKvCache::new(config);
//! let seq = SeqId(7);
//! cache.create_sequence(seq)?;
//! let mut rng = DetRng::new(1);
//! let k = rng.tensor(&[3, 2, 8]);
//! let v = rng.tensor(&[3, 2, 8]);
//! cache.append(seq, &k, &v, &[0, 1, 2])?;
//! let (gk, _gv, pos) = cache.gather(seq)?;
//! assert_eq!(gk.shape(), &[3, 2, 8]);
//! assert_eq!(pos, vec![0, 1, 2]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod error;
pub mod quant;
mod view;

pub use cache::{CacheStats, KvCacheConfig, PagedKvCache, SeqId};
pub use error::CacheError;
pub use quant::QuantizedKv;
pub use view::KvView;
