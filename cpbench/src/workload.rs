//! What every workload shares: the fixed serving configuration, the result
//! of a timed run, the exactness gate and the registry of the four names.

use std::collections::BTreeMap;

use cp_model::{Transformer, TransformerConfig};
use cp_serve::{ReferenceSession, TransformerEngine};
use cp_tensor::Tensor;

use crate::engine_loop::{EngineLoop, EngineSpec};
use crate::sched_loop::{Arrivals, SchedLoop, SchedSpec};
use crate::trace::Tracer;

/// CP ranks. With [`POOL_THREADS`] = 1 the engine runs 2 threads, which is
/// `nproc` on the box the sizes below were chosen for; the default pool
/// width (machine parallelism per rank) oversubscribes it.
pub const CP: usize = 2;
/// Compute-pool width per rank.
pub const POOL_THREADS: usize = 1;
/// Seed of the model weights; `--seed` varies the inputs, not the model.
pub const MODEL_SEED: u64 = 17;
/// Tolerance of the distributed engine against the single-device reference
/// (the crates' own exactness contract).
pub const EXACT_TOL: f32 = 3e-3;
/// Tokens per KV-cache page (fixed by `TransformerEngine`).
pub const PAGE_TOKENS: usize = 16;

pub const WORKLOADS: [&str; 4] = [
    "prefill_full",
    "chat_persistent",
    "serve_open",
    "serve_burst",
];

#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    /// Shrinks the long-context shapes so a run of a few seconds still
    /// completes several operations (for a CI step).
    pub smoke: bool,
}

/// Layer shapes a workload exercises, for the direct layer probes of a
/// traced run.
#[derive(Debug, Clone, Copy)]
pub struct ProbeShapes {
    pub cfg: TransformerConfig,
    /// Tokens of a prefill call that starts a context.
    pub full_t: usize,
    /// Tokens of a prefill call that extends a cached context of `ctx`.
    pub partial_t: usize,
    /// Cached context a decode step (and the partial prefill) attends.
    pub ctx: usize,
    /// Sessions in one decode step.
    pub batch: usize,
    /// Whether the prefill calls of the timed phase start a context
    /// (`full_t`) or extend one (`partial_t`).
    pub timed_prefill_is_full: bool,
}

impl ProbeShapes {
    /// Tokens of the prefill call the timed phase makes.
    pub fn timed_prefill_t(&self) -> usize {
        if self.timed_prefill_is_full {
            self.full_t
        } else {
            self.partial_t
        }
    }
}

/// Engine or scheduler calls of the timed phase, for `bench.explained_share`.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCalls {
    /// Calls (or ticks) that prefilled a context from empty.
    pub full_prefills: u64,
    /// Calls (or ticks) that extended a cached context.
    pub partial_prefills: u64,
    /// Calls (or ticks) that decoded.
    pub decodes: u64,
    /// Wall seconds inside those calls.
    pub wall_s: f64,
    /// `Fabric::run` launches per call (or tick).
    pub fabric_runs_per_op: f64,
    /// Median seconds of the operation the fabric's fixed cost is a share of.
    pub op_p50_s: f64,
}

/// What a timed run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (reps, turns, requests) that completed or failed.
    pub attempted: u64,
    /// Operations that returned an error or did not finish.
    pub failed: u64,
    /// Outputs checked in and after the run agreed with the reference.
    pub correct: bool,
    pub wall_s: f64,
    /// Prompt and generated tokens completed in the timed phase.
    pub tokens: u64,
    /// Tokens per second, from medians of parts of the run where it has
    /// parts (operations, one-second windows), so that a transient stall
    /// does not move it.
    pub tok_per_s: f64,
    pub ttft_s: Vec<f64>,
    pub tbt_s: Vec<f64>,
    /// The tail of `tbt_s` this workload has the samples for.
    pub tail_q: f64,
    /// Order-independent digest of the outputs of a fixed prefix of
    /// operations, so it does not depend on how many a fast run completes.
    pub output_digest: u64,
    /// False when the run ended before that prefix completed.
    pub digest_complete: bool,
    /// Counts that repeat bit for bit between runs of one commit and seed.
    pub counts: BTreeMap<&'static str, f64>,
    /// Per-layer numbers taken at the benchmark's own call sites.
    pub layer: BTreeMap<&'static str, f64>,
    pub calls: OpCalls,
}

/// Peak page occupancy of the engine's KV caches, from `cache_stats()`
/// samples (layer 0 of every rank; all layers are alike).
#[derive(Debug, Default, Clone, Copy)]
pub struct PagePeak {
    pub pages: usize,
    /// Share of the peak's page slots that held tokens.
    pub fill: f64,
}

impl PagePeak {
    pub fn sample(&mut self, engine: &TransformerEngine) {
        let stats = engine.cache_stats();
        let pages: usize = stats.iter().map(|s| s.allocated_pages).sum();
        if pages > self.pages {
            let tokens: usize = stats.iter().map(|s| s.tokens).sum();
            *self = PagePeak {
                pages,
                fill: tokens as f64 / (pages * PAGE_TOKENS) as f64,
            };
        }
    }

    pub fn report(&self, layer: &mut BTreeMap<&'static str, f64>) {
        layer.insert("kvcache.pages_in_use_peak", self.pages as f64);
        layer.insert("kvcache.page_fill_share", self.fill);
    }
}

pub trait Workload {
    /// FNV-1a digest of every generated input.
    fn input_digest(&self) -> u64;
    /// Runs the timed phase for about `seconds`.
    fn run(&mut self, seconds: f64, tracer: &mut Tracer) -> Outcome;
    fn probe_shapes(&self) -> ProbeShapes;
}

/// Builds the model and engine, generates the inputs, passes the exactness
/// gate and brings the workload to the start of its timed phase.
pub fn setup(name: &str, p: &Params) -> Result<Box<dyn Workload>, String> {
    let long = if p.smoke { 512 } else { 4096 };
    Ok(match name {
        "prefill_full" => Box::new(EngineLoop::setup(
            EngineSpec {
                doc_tokens: 0,
                prompt_tokens: long,
                decode_tokens: if p.smoke { 16 } else { 128 },
                fresh_session_per_op: true,
                // About 760 gaps in a run: 76 beyond p90.
                tail_q: 0.90,
                digest_ops: 1,
                latency_ops: u64::MAX,
            },
            p,
        )?),
        "chat_persistent" => Box::new(EngineLoop::setup(
            EngineSpec {
                doc_tokens: long,
                prompt_tokens: 96,
                decode_tokens: 32,
                fresh_session_per_op: false,
                // 40 turns of 31 gaps: 62 beyond p95, 12 beyond p99.
                tail_q: 0.95,
                digest_ops: 4,
                latency_ops: 40,
            },
            p,
        )?),
        "serve_open" => Box::new(SchedLoop::setup(
            SchedSpec {
                cfg: TransformerConfig::small(),
                prefill_chunk_tokens: 32,
                max_live_sessions: 8,
                arrivals: Arrivals::Open { rate_per_s: 30.0 },
            },
            p,
        )?),
        "serve_burst" => Box::new(SchedLoop::setup(
            SchedSpec {
                cfg: TransformerConfig::tiny(),
                prefill_chunk_tokens: 8,
                max_live_sessions: 8,
                arrivals: Arrivals::Closed { clients: 8 },
            },
            p,
        )?),
        other => return Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    })
}

pub fn engine_for(model: &Transformer) -> Result<TransformerEngine, String> {
    Ok(TransformerEngine::new(model.clone(), CP)
        .map_err(|e| format!("engine: {e}"))?
        .with_pool_threads(POOL_THREADS))
}

/// `got` against the single-device reference processing `tokens` next.
pub fn check_against(
    reference: &mut ReferenceSession,
    tokens: &[u32],
    got: &Tensor,
    what: &str,
) -> Result<(), String> {
    let want = reference
        .process(tokens)
        .map_err(|e| format!("reference {what}: {e}"))?;
    match got.approx_eq(&want, EXACT_TOL) {
        Ok(true) => Ok(()),
        Ok(false) => Err(format!(
            "{what}: distributed output differs from the single-device reference by {:?} (> {EXACT_TOL})",
            got.max_abs_diff(&want)
        )),
        Err(e) => Err(format!("{what}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(name: &str, seed: u64) -> u64 {
        let p = Params {
            seed,
            seconds: 2.0,
            smoke: true,
        };
        setup(name, &p).unwrap().input_digest()
    }

    /// The generator is part of the benchmark's definition: the same seed
    /// gives the same inputs on every commit, or results stop being
    /// comparable (`cmp` refuses files whose input digests differ).
    #[test]
    fn inputs_are_a_function_of_the_seed_alone() {
        for name in ["serve_open", "serve_burst"] {
            assert_eq!(digest(name, 1), digest(name, 1), "{name}");
            assert_ne!(digest(name, 1), digest(name, 2), "{name}");
        }
        assert_eq!(crate::gen::hex(digest("serve_open", 1)), "35f73bd4fd67b5fb");
        assert_eq!(
            crate::gen::hex(digest("serve_burst", 1)),
            "e9151764677e869a"
        );
    }

    #[test]
    fn an_unknown_workload_is_an_error() {
        let p = Params {
            seed: 1,
            seconds: 1.0,
            smoke: true,
        };
        assert!(setup("serve_closed", &p).is_err());
    }
}
