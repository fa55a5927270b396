//! The context-parallel transformer forward pass: the paper's execution
//! structure end to end.
//!
//! Each CP rank runs the **entire layer stack** on its load-balanced token
//! shard; ring pass-KV attention is the only cross-rank operation per
//! layer (linear layers, norms, RoPE and FFNs are all token-local). This
//! is exactly how the production system executes — and why CP's
//! communication volume is one KV SendRecv per block versus TP's two
//! activation AllReduces (Table 2).

use cp_attention::PAD;
use cp_comm::{CheckedFabric, CommPlan, Communicator, TrafficReport};
use cp_core::ring::{ring_pass_kv_prefill, ring_pass_q_prefill, run_ring};
use cp_core::schedule::{ring_schedule, run_ring_checked, RingInput};
use cp_core::{CoreError, LocalSeq, RingMsg, RingSpec};
use cp_perf::RingVariant;
use cp_sharding::ShardPlan;
use cp_tensor::Tensor;

use crate::layers::rms_norm;
use crate::rope::apply_rope;
use crate::Transformer;

/// Runs the distributed forward on explicit per-rank shards.
///
/// `shards[r] = (tokens, positions)` is rank `r`'s slice of the sequence;
/// positions are global. Returns per-rank final activations (rows in the
/// rank's position order) plus the fabric traffic.
///
/// # Errors
///
/// Returns [`CoreError::BadRequest`] for empty/ragged shard structures;
/// propagates layer and communication failures.
pub fn cp_forward_sharded(
    model: &Transformer,
    shards: &[(Vec<u32>, Vec<usize>)],
) -> Result<(Vec<Tensor>, TrafficReport), CoreError> {
    cp_forward_sharded_with(model, shards, RingVariant::PassKv)
}

/// [`cp_forward_sharded`] with an explicit ring variant per layer
/// (pass-KV or pass-Q — both exact; the choice only moves communication).
///
/// # Errors
///
/// Same conditions as [`cp_forward_sharded`].
pub fn cp_forward_sharded_with(
    model: &Transformer,
    shards: &[(Vec<u32>, Vec<usize>)],
    variant: RingVariant,
) -> Result<(Vec<Tensor>, TrafficReport), CoreError> {
    let (n, ring_len) = validate_shards(shards)?;
    let (outputs, traffic) = run_ring(n, |comm| {
        forward_body(model, shards, ring_len, variant, comm)
    })?;
    Ok((outputs, traffic))
}

/// Validates the shard structure and returns `(world, ring_len)` where
/// `ring_len` is the §3.5.2 padding target (all ranks exchange equal-sized
/// KV messages).
fn validate_shards(shards: &[(Vec<u32>, Vec<usize>)]) -> Result<(usize, usize), CoreError> {
    let n = shards.len();
    if n == 0 {
        return Err(CoreError::BadRequest {
            reason: "cp_forward needs at least one rank".to_string(),
        });
    }
    for (tokens, positions) in shards {
        if tokens.len() != positions.len() {
            return Err(CoreError::BadRequest {
                reason: format!(
                    "rank shard has {} tokens but {} positions",
                    tokens.len(),
                    positions.len()
                ),
            });
        }
    }
    let ring_len = shards.iter().map(|(t, _)| t.len()).max().unwrap_or(0);
    Ok((n, ring_len))
}

/// One rank's full layer-stack forward: token-local projections, norms,
/// RoPE and FFNs, with one cross-rank ring attention per layer.
fn forward_body(
    model: &Transformer,
    shards: &[(Vec<u32>, Vec<usize>)],
    ring_len: usize,
    variant: RingVariant,
    comm: &Communicator<RingMsg>,
) -> Result<Tensor, CoreError> {
    let config = *model.config();
    let params = *model.attention_params();
    let (tokens, positions) = &shards[comm.rank()];
    let t_local = tokens.len();
    let dh = config.shape.head_dim();
    let mut x = model.embed(tokens);
    for block in model.blocks() {
        // Token-local attention sub-block up to the QKV projections.
        let h = rms_norm(&x, config.norm_eps)?;
        let mut q = block
            .wq
            .forward(&h)?
            .reshape(&[t_local, config.shape.n_heads(), dh])?;
        let mut k = block
            .wk
            .forward(&h)?
            .reshape(&[t_local, config.shape.n_kv_heads(), dh])?;
        let v = block
            .wv
            .forward(&h)?
            .reshape(&[t_local, config.shape.n_kv_heads(), dh])?;
        // RoPE at *global* positions — the step naive sharding breaks.
        apply_rope(&mut q, positions, config.rope_base)?;
        apply_rope(&mut k, positions, config.rope_base)?;

        // Cross-rank ring attention, padded to equal lengths.
        let mut kv_pos = positions.clone();
        kv_pos.resize(ring_len, PAD);
        let local = LocalSeq {
            q,
            q_pos: positions.clone(),
            k: k.pad_dim0(ring_len, 0.0)?,
            v: v.pad_dim0(ring_len, 0.0)?,
            kv_pos,
        };
        let spec = RingSpec::default();
        let attn = match variant {
            RingVariant::PassKv => {
                ring_pass_kv_prefill(comm, &params, &spec, std::slice::from_ref(&local))?
            }
            RingVariant::PassQ => ring_pass_q_prefill(
                comm,
                &params,
                &spec,
                &[local.queries()],
                &[local.kv().into()],
            )?,
        }
        .pop()
        .expect("one sequence in, one out");
        let attn_flat = attn.out.reshape(&[t_local, config.model_dim()])?;
        x.add_assign(&block.wo.forward(&attn_flat)?)?;

        // Token-local FFN sub-block.
        let h = rms_norm(&x, config.norm_eps)?;
        x.add_assign(&block.ffn.forward(&h)?)?;
    }
    rms_norm(&x, config.norm_eps)
}

/// Declares the full-stack forward schedule: the per-layer ring plan (built
/// from zero-tensor skeletons with exactly the geometry `forward_body`
/// puts on the wire, including §3.5.2 padding) stacked `n_layers` times.
/// Plans depend only on shapes, never values.
///
/// # Errors
///
/// Returns [`CoreError::BadRequest`] for empty/ragged shard structures.
pub fn forward_plan(
    model: &Transformer,
    shards: &[(Vec<u32>, Vec<usize>)],
    variant: RingVariant,
) -> Result<CommPlan, CoreError> {
    let (_, ring_len) = validate_shards(shards)?;
    let config = *model.config();
    let params = *model.attention_params();
    let shape = config.shape;
    let dh = shape.head_dim();
    let locals: Vec<Vec<LocalSeq>> = shards
        .iter()
        .map(|(tokens, positions)| {
            let mut kv_pos = positions.clone();
            kv_pos.resize(ring_len, PAD);
            vec![LocalSeq {
                q: Tensor::zeros(&[tokens.len(), shape.n_heads(), dh]),
                q_pos: positions.clone(),
                k: Tensor::zeros(&[ring_len, shape.n_kv_heads(), dh]),
                v: Tensor::zeros(&[ring_len, shape.n_kv_heads(), dh]),
                kv_pos,
            }]
        })
        .collect();
    let input = match variant {
        RingVariant::PassKv => RingInput::PassKv(&locals),
        RingVariant::PassQ => RingInput::PassQ(&locals),
    };
    ring_schedule(input, &RingSpec::default(), &params)?
        .stacked(config.n_layers)
        .ground()
}

/// [`cp_forward_sharded_with`] under a [`CheckedFabric`] enforcing
/// [`forward_plan`]: every collective any layer issues is validated
/// against the declared schedule at runtime, and each rank must drain its
/// plan exactly.
///
/// # Errors
///
/// Same conditions as [`cp_forward_sharded_with`], plus
/// [`cp_comm::CommError::PlanViolation`] (wrapped in [`CoreError::Comm`])
/// when live traffic diverges from the declared plan.
pub fn cp_forward_sharded_checked(
    model: &Transformer,
    shards: &[(Vec<u32>, Vec<usize>)],
    variant: RingVariant,
) -> Result<(Vec<Tensor>, TrafficReport), CoreError> {
    let (_, ring_len) = validate_shards(shards)?;
    let plan = forward_plan(model, shards, variant)?;
    let fabric = CheckedFabric::new(plan);
    run_ring_checked(&fabric, |comm| {
        forward_body(model, shards, ring_len, variant, comm)
    })
}

/// Runs the full context-parallel forward of `tokens` over `n_ranks`
/// ranks with load-balanced sharding, returning activations `[t, D]` in
/// the original token order — numerically equal to
/// [`Transformer::forward`].
///
/// # Errors
///
/// Propagates sharding, layer and communication failures.
pub fn cp_forward(
    model: &Transformer,
    tokens: &[u32],
    n_ranks: usize,
) -> Result<(Tensor, TrafficReport), CoreError> {
    let plan = ShardPlan::new(tokens.len(), n_ranks)?;
    let shards: Vec<(Vec<u32>, Vec<usize>)> = (0..n_ranks)
        .map(|r| {
            let positions = plan.positions_for(r);
            let toks = positions.iter().map(|&p| tokens[p]).collect();
            (toks, positions)
        })
        .collect();
    let (outputs, traffic) = cp_forward_sharded(model, &shards)?;

    let d = model.config().model_dim();
    let mut out = Tensor::zeros(&[tokens.len(), d]);
    for (r, rank_out) in outputs.iter().enumerate() {
        for (row, &pos) in shards[r].1.iter().enumerate() {
            out.row_mut(pos).copy_from_slice(rank_out.row(row));
        }
    }
    Ok((out, traffic))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TransformerConfig;

    #[test]
    fn distributed_equals_single_device_tiny() {
        let model = Transformer::new(&TransformerConfig::tiny(), 11);
        let tokens: Vec<u32> = (0..40).map(|i| i * 3 % 100).collect();
        let reference = model.forward(&tokens).unwrap();
        for n in [1usize, 2, 3, 4] {
            let (out, _) = cp_forward(&model, &tokens, n).unwrap();
            assert!(
                out.approx_eq(&reference, 2e-3).unwrap(),
                "n={n}: max diff {}",
                out.max_abs_diff(&reference).unwrap()
            );
        }
    }

    #[test]
    fn distributed_equals_single_device_deeper_model() {
        let model = Transformer::new(&TransformerConfig::small(), 5);
        let tokens: Vec<u32> = (0..33).collect(); // odd length: padding path
        let reference = model.forward(&tokens).unwrap();
        let (out, traffic) = cp_forward(&model, &tokens, 4).unwrap();
        assert!(
            out.approx_eq(&reference, 3e-3).unwrap(),
            "max diff {}",
            out.max_abs_diff(&reference).unwrap()
        );
        // One KV ring per layer: traffic scales with layer count.
        assert!(traffic.send_recv_bytes > 0);
        assert_eq!(traffic.all_to_all_bytes, 0);
    }

    #[test]
    fn traffic_is_one_kv_ring_per_layer() {
        let config = TransformerConfig::tiny();
        let model = Transformer::new(&config, 3);
        let n = 4;
        let t = 32; // divisible by 2N: ring_len = t/n
        let tokens: Vec<u32> = (0..t as u32).collect();
        let (_, traffic) = cp_forward(&model, &tokens, n).unwrap();
        let ring_len = t / n;
        let per_msg = 2 * ring_len * config.kv_dim() * 4; // K+V, f32
        let expected = config.n_layers * n * (n - 1) * per_msg;
        assert_eq!(traffic.send_recv_bytes, expected);
    }

    #[test]
    fn single_rank_has_no_traffic() {
        let model = Transformer::new(&TransformerConfig::tiny(), 9);
        let tokens: Vec<u32> = (0..12).collect();
        let (out, traffic) = cp_forward(&model, &tokens, 1).unwrap();
        assert_eq!(traffic.total_bytes(), 0);
        assert!(out
            .approx_eq(&model.forward(&tokens).unwrap(), 1e-5)
            .unwrap());
    }

    #[test]
    fn checked_forward_matches_unchecked_and_declared_plan() {
        let model = Transformer::new(&TransformerConfig::tiny(), 11);
        let tokens: Vec<u32> = (0..21).collect(); // odd: padding path
        let plan = ShardPlan::new(tokens.len(), 3).unwrap();
        let shards: Vec<(Vec<u32>, Vec<usize>)> = (0..3)
            .map(|r| {
                let positions = plan.positions_for(r);
                let toks = positions.iter().map(|&p| tokens[p]).collect();
                (toks, positions)
            })
            .collect();
        for variant in [RingVariant::PassKv, RingVariant::PassQ] {
            let (plain, plain_traffic) = cp_forward_sharded_with(&model, &shards, variant).unwrap();
            let (checked, traffic) = cp_forward_sharded_checked(&model, &shards, variant).unwrap();
            for (a, b) in plain.iter().zip(&checked) {
                assert!(a.approx_eq(b, 0.0).unwrap(), "{variant:?}: outputs diverge");
            }
            // Timing fields are nondeterministic; compare the volume counters.
            assert_eq!(plain_traffic.messages, traffic.messages);
            assert_eq!(plain_traffic.send_recv_bytes, traffic.send_recv_bytes);
            assert_eq!(plain_traffic.all_to_all_bytes, traffic.all_to_all_bytes);
            assert_eq!(plain_traffic.all_gather_bytes, traffic.all_gather_bytes);
            // The declared full-stack plan predicts the live traffic exactly.
            let declared = forward_plan(&model, &shards, variant).unwrap();
            let report = declared.predicted_traffic().check_report(&traffic);
            assert!(report.is_ok(), "{variant:?}: {report:?}");
        }
    }

    #[test]
    fn empty_and_ragged_inputs() {
        let model = Transformer::new(&TransformerConfig::tiny(), 2);
        assert!(cp_forward_sharded(&model, &[]).is_err());
        let ragged = vec![(vec![1u32, 2], vec![0usize])];
        assert!(cp_forward_sharded(&model, &ragged).is_err());
        // More ranks than tokens works (some ranks idle).
        let tokens = [1u32, 2];
        let reference = model.forward(&tokens).unwrap();
        let (out, _) = cp_forward(&model, &tokens, 4).unwrap();
        assert!(out.approx_eq(&reference, 1e-4).unwrap());
    }
}
