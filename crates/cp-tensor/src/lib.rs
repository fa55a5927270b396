//! Dense row-major `f32` tensor substrate for the context-parallel inference
//! workspace.
//!
//! This crate provides the minimal numeric substrate shared by the attention
//! kernels (`cp-attention`), the KV cache (`cp-kvcache`) and the
//! context-parallel algorithms (`cp-core`): a contiguous, row-major,
//! arbitrary-rank [`Tensor`] plus the handful of operations long-context
//! attention actually needs (slicing and concatenation along the token axis,
//! small matmuls, numerically stable softmax helpers).
//!
//! It deliberately does **not** try to be a general ML framework: no strides,
//! no broadcasting, no autograd. Everything is contiguous and explicit, which
//! keeps the exactness proofs in the rest of the workspace easy to audit.
//!
//! # Example
//!
//! ```
//! use cp_tensor::Tensor;
//!
//! # fn main() -> Result<(), cp_tensor::TensorError> {
//! // A [tokens=4, heads=2, head_dim=3] activation tensor.
//! let t = Tensor::zeros(&[4, 2, 3]);
//! assert_eq!(t.numel(), 24);
//! let front = t.slice_dim0(0..2)?;
//! assert_eq!(front.shape(), &[2, 2, 3]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod gemm;
mod ops;
mod rng;
mod tensor;
pub mod tile;

pub use error::TensorError;
pub use gemm::{gemm_wants_parallel, matmul_on, matmul_packed, matmul_packed_on, PackedGemmB};
pub use ops::{log_sum_exp, matmul, softmax_row_in_place, stable_softmax_rows};
pub use rng::DetRng;
pub use tensor::Tensor;
