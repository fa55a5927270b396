//! Context parallelism for scalable million-token LLM inference — the
//! paper's primary contribution, reproduced exactly.
//!
//! This crate implements the three ring-attention inference algorithms of
//! *"Context Parallelism for Scalable Million-Token Inference"* (MLSys
//! 2025) as **lossless, exact** distributed attention running on real
//! threads (one per CP rank, connected by the `cp-comm` fabric):
//!
//! * [`ring::ring_pass_kv_prefill`] — Algorithm 2, fused variable-length
//!   ring pass-KV partial prefill (KV circulates, padded to equal message
//!   sizes; SendRecv overlaps attention),
//! * [`ring::ring_pass_q_prefill`] — Algorithm 3, ring pass-Q partial
//!   prefill (Q circulates; partial outputs return via All2All),
//! * [`ring::ring_pass_q_decode`] — Algorithm 4, batched ring pass-Q decode
//!   with round-robin offset sharding,
//!
//! plus the machinery around them:
//!
//! * [`heuristics`] — Algorithm 1, the All2All-aware Algorithm 5, and the
//!   Appendix D empirical model for choosing pass-KV vs pass-Q at runtime,
//! * [`baseline`] — the single-device reference and the all-gather pass-KV
//!   baseline (Llama3-training style) the paper compares against,
//! * [`attend_prefill`] / [`attend_decode`] — the rank-local steps that
//!   attend one rank's resident KV for one layer (a
//!   [`cp_kvcache::PagedKvCache`], its INT8 plane on at
//!   [`KvPrecision::Int8Total`]), shared by every engine,
//! * [`ContextParallelEngine`] — a multi-turn inference engine with
//!   distributed, persistent, load-balanced KV caches,
//! * [`ChatSession`] / [`ToyProjector`] — a deterministic toy model layer
//!   so examples can drive the engine with token ids end to end.
//!
//! Every algorithm is property-tested against single-device attention:
//! the outputs agree to floating-point tolerance for any rank count,
//! sequence lengths, cache-hit mix, and decode schedule.
//!
//! # Example
//!
//! ```
//! use cp_attention::GqaShape;
//! use cp_core::{ContextParallelEngine, EngineConfig};
//! use cp_kvcache::SeqId;
//! use cp_tensor::DetRng;
//!
//! # fn main() -> Result<(), cp_core::CoreError> {
//! let shape = GqaShape::new(4, 2, 16)?;
//! let mut engine = ContextParallelEngine::new(EngineConfig::new(4, shape))?;
//! let seq = SeqId(0);
//! let mut rng = DetRng::new(7);
//! let t = 64;
//! let q = rng.tensor(&[t, 4, 16]);
//! let k = rng.tensor(&[t, 2, 16]);
//! let v = rng.tensor(&[t, 2, 16]);
//! let result = engine.full_prefill(seq, &q, &k, &v)?;
//! assert_eq!(result.output.out.shape(), &[t, 4, 16]);
//! assert_eq!(engine.context_len(seq)?, t);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
mod engine;
mod error;
pub mod heuristics;
mod messages;
mod projector;
pub mod ring;
pub mod schedule;
mod session;
mod spec;
mod store;
pub mod template;
pub mod trace;

pub use engine::{
    ContextParallelEngine, DecodeOutcome, EngineConfig, KvPrecision, PrefillOutcome, PrefillRequest,
};
pub use error::CoreError;
pub use heuristics::{HeuristicKind, SystemContext};
pub use messages::{
    split_slot_vec, DecodeSlot, LocalSeq, QuantSeqKv, RingMsg, SeqKv, SeqOut, SeqQ, ELEM_BYTES,
};
pub use projector::ToyProjector;
pub use session::{ChatSession, TurnStats};
pub use spec::{RingSpec, RingWire, SchedulePolicy};
pub use store::{attend_decode, attend_prefill};
