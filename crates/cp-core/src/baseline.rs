//! Baselines the paper compares against: single-device attention and the
//! all-gather pass-KV of Llama3 *training* (§3.5.2's discussion).

use cp_attention::{blocked_gqa_attention, naive_gqa_attention, AttentionOutput, AttentionParams};
use cp_comm::Communicator;
use cp_tensor::Tensor;

use crate::messages::{LocalSeq, RingMsg, SeqKv};
use crate::CoreError;

/// Single-device causal attention over a whole sequence — the ground truth
/// all distributed variants are checked against.
///
/// # Errors
///
/// Propagates kernel shape errors.
pub fn single_device_prefill(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    params: &AttentionParams,
    q_pos: &[usize],
    kv_pos: &[usize],
) -> Result<AttentionOutput, CoreError> {
    Ok(naive_gqa_attention(q, k, v, params, q_pos, kv_pos)?)
}

/// All-gather pass-KV prefill (one rank's body): every rank first gathers
/// **all** KV shards, then computes its local queries against the full KV
/// in one shot.
///
/// This is how Llama3 *training* implements pass-KV. It is exact, but the
/// all-gather sits un-overlapped on the critical path and moves
/// `(N-1)` full KV shards *before any compute starts* — the latency
/// drawback that motivates the ring formulation for inference (§3.5.2).
/// Byte-for-byte it moves the same volume as the ring; the difference is
/// purely in overlap, which the `cp-perf` event simulator quantifies.
///
/// # Errors
///
/// Communication failures or kernel shape errors.
pub fn all_gather_pass_kv_prefill(
    comm: &Communicator<RingMsg>,
    params: &AttentionParams,
    locals: &[LocalSeq],
) -> Result<Vec<AttentionOutput>, CoreError> {
    let own = RingMsg::Kv {
        seqs: locals
            .iter()
            .map(|l| SeqKv {
                k: l.k.clone(),
                v: l.v.clone(),
                pos: l.kv_pos.clone(),
            })
            .collect(),
    };
    let gathered = comm.all_gather(own)?;
    let mut shards: Vec<Vec<SeqKv>> = Vec::with_capacity(gathered.len());
    for (src_rank, msg) in gathered.into_iter().enumerate() {
        match msg {
            RingMsg::Kv { seqs } => shards.push(seqs),
            other => {
                return Err(CoreError::ProtocolViolation {
                    from_rank: src_rank,
                    expected: "Kv",
                    got: other.variant_name(),
                })
            }
        }
    }

    locals
        .iter()
        .enumerate()
        .map(|(i, local)| {
            // Concatenate every rank's shard of sequence i, rejecting
            // shards that carry fewer sequences than this rank holds.
            let mut ks: Vec<&Tensor> = Vec::with_capacity(shards.len());
            let mut vs: Vec<&Tensor> = Vec::with_capacity(shards.len());
            let mut pos: Vec<usize> = Vec::new();
            for (src_rank, s) in shards.iter().enumerate() {
                let seq = s.get(i).ok_or_else(|| CoreError::BadRequest {
                    reason: format!(
                        "rank {src_rank} gathered {} KV sequences but rank {} holds {}",
                        s.len(),
                        comm.rank(),
                        locals.len()
                    ),
                })?;
                ks.push(&seq.k);
                vs.push(&seq.v);
                pos.extend_from_slice(&seq.pos);
            }
            let k = Tensor::concat_dim0(ks)?;
            let v = Tensor::concat_dim0(vs)?;
            Ok(blocked_gqa_attention(
                &local.q,
                &k,
                &v,
                params,
                &local.q_pos,
                &pos,
                128,
            )?)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{ring_pass_kv_prefill, run_ring};
    use crate::RingSpec;
    use cp_attention::{GqaShape, PAD};
    use cp_sharding::ShardPlan;
    use cp_tensor::DetRng;

    #[test]
    fn all_gather_matches_ring_and_reference() {
        let params = AttentionParams::for_shape(GqaShape::new(4, 2, 8).unwrap());
        let (n, t) = (3, 29);
        let mut rng = DetRng::new(21);
        let q = rng.tensor(&[t, 4, 8]);
        let k = rng.tensor(&[t, 2, 8]);
        let v = rng.tensor(&[t, 2, 8]);
        let pos: Vec<usize> = (0..t).collect();
        let reference = single_device_prefill(&q, &k, &v, &params, &pos, &pos).unwrap();

        let plan = ShardPlan::new(t, n).unwrap();
        let max_len = (0..n).map(|r| plan.tokens_for(r)).max().unwrap();
        let locals: Vec<Vec<LocalSeq>> = (0..n)
            .map(|r| {
                let positions = plan.positions_for(r);
                let mut kv_pos = positions.clone();
                kv_pos.resize(max_len, PAD);
                vec![LocalSeq {
                    q: q.gather_dim0(&positions).unwrap(),
                    q_pos: positions.clone(),
                    k: k.gather_dim0(&positions)
                        .unwrap()
                        .pad_dim0(max_len, 0.0)
                        .unwrap(),
                    v: v.gather_dim0(&positions)
                        .unwrap()
                        .pad_dim0(max_len, 0.0)
                        .unwrap(),
                    kv_pos,
                }]
            })
            .collect();

        let (ag, ag_report) = run_ring(n, |comm| {
            all_gather_pass_kv_prefill(comm, &params, &locals[comm.rank()])
        })
        .unwrap();
        let (ring, ring_report) = run_ring(n, |comm| {
            ring_pass_kv_prefill(comm, &params, &RingSpec::default(), &locals[comm.rank()])
        })
        .unwrap();

        for r in 0..n {
            let positions = plan.positions_for(r);
            for (row, &p) in positions.iter().enumerate() {
                let want = reference.slice_tokens(p, p + 1).unwrap();
                let got = ag[r][0].slice_tokens(row, row + 1).unwrap();
                assert!(got.out.approx_eq(&want.out, 2e-3).unwrap());
            }
            assert!(ag[r][0].out.approx_eq(&ring[r][0].out, 1e-3).unwrap());
        }
        // Same total byte volume, different collective.
        assert_eq!(
            ag_report.all_gather_bytes, ring_report.send_recv_bytes,
            "all-gather should move exactly the ring's volume"
        );
        assert_eq!(ag_report.send_recv_bytes, 0);
    }

    #[test]
    fn single_rank_all_gather_is_local() {
        let params = AttentionParams::for_shape(GqaShape::new(2, 1, 4).unwrap());
        let mut rng = DetRng::new(2);
        let t = 8;
        let q = rng.tensor(&[t, 2, 4]);
        let k = rng.tensor(&[t, 1, 4]);
        let v = rng.tensor(&[t, 1, 4]);
        let pos: Vec<usize> = (0..t).collect();
        let locals = vec![LocalSeq {
            q: q.clone(),
            q_pos: pos.clone(),
            k: k.clone(),
            v: v.clone(),
            kv_pos: pos.clone(),
        }];
        let (out, report) =
            run_ring(1, |comm| all_gather_pass_kv_prefill(comm, &params, &locals)).unwrap();
        let reference = single_device_prefill(&q, &k, &v, &params, &pos, &pos).unwrap();
        assert!(out[0][0].out.approx_eq(&reference.out, 1e-4).unwrap());
        assert_eq!(report.total_bytes(), 0);
    }
}
