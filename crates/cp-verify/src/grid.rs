//! The (T, P, varseq) configuration grid of real ring schedules.
//!
//! The checker's subject matter is the schedules the engine actually runs,
//! so this module builds [`CommPlan`]s exactly as production does —
//! through `cp_core::schedule::ring_plan` over [`RingSpec`] cells (every
//! direction × layout × wire × depth family of pass-KV prefill, pass-Q
//! prefill and batched pass-Q decode) plus the all-gather pass-KV baseline
//! — over a grid of tokens-per-rank, decode-slot counts, and
//! sequence-length skew (`varseq`). Inputs are zero tensors: plans depend
//! only on shapes, never on values.

use cp_attention::{AttentionParams, GqaShape};
use cp_comm::{CommPlan, Topology};
use cp_core::schedule::{all_gather_pass_kv_plan, ring_plan, RingInput, RingLayout};
use cp_core::{CoreError, DecodeSlot, LocalSeq, RingSpec, RingWire};
use cp_perf::RingDirection;
use cp_tensor::Tensor;

/// One grid point: a named, real schedule to verify.
#[derive(Debug, Clone)]
pub struct GridCase {
    /// Human-readable case id, e.g. `cp4/pass_q/t3/varseq`.
    pub name: String,
    /// The declared schedule for this case.
    pub plan: CommPlan,
}

/// Attention geometry used for every grid case. Plans scale linearly in
/// head counts, so a small GQA shape exercises the same schedule structure
/// as a production one.
pub(crate) fn grid_params() -> Result<AttentionParams, CoreError> {
    let shape = GqaShape::new(2, 1, 4).map_err(CoreError::from)?;
    Ok(AttentionParams::for_shape(shape))
}

/// Builds each rank's fused-batch prefill input. With `varseq`, ranks
/// alternate between `t_base` and `t_base + 1` query tokens while the KV
/// shard stays padded to the common maximum (the §3.5.2 invariant that
/// keeps circulating KV messages equal-sized).
pub(crate) fn grid_locals(
    cp: usize,
    t_base: usize,
    varseq: bool,
    shape: GqaShape,
) -> Vec<Vec<LocalSeq>> {
    let kv_len = t_base + usize::from(varseq);
    let mut start = 0usize;
    (0..cp)
        .map(|r| {
            let t = if varseq { t_base + r % 2 } else { t_base };
            let q_pos: Vec<usize> = (start..start + t).collect();
            let kv_pos: Vec<usize> = (start..start + kv_len).collect();
            start += kv_len;
            vec![LocalSeq {
                q: Tensor::zeros(&[t, shape.n_heads(), shape.head_dim()]),
                q_pos,
                k: Tensor::zeros(&[kv_len, shape.n_kv_heads(), shape.head_dim()]),
                v: Tensor::zeros(&[kv_len, shape.n_kv_heads(), shape.head_dim()]),
                kv_pos,
            }]
        })
        .collect()
}

/// Builds each rank's decode slot vector. With `varseq`, some slots are
/// `None` padding (ranks with no active decode in that position), which is
/// how the batched decode schedule handles ragged batches.
pub(crate) fn grid_slots(
    cp: usize,
    slots: usize,
    varseq: bool,
    shape: GqaShape,
) -> Vec<Vec<Option<DecodeSlot>>> {
    (0..cp)
        .map(|r| {
            (0..slots)
                .map(|s| {
                    if varseq && (r + s) % 2 == 1 {
                        None
                    } else {
                        Some(DecodeSlot {
                            bid: s,
                            q: Tensor::zeros(&[1, shape.n_heads(), shape.head_dim()]),
                            pos: 8 * cp + s,
                        })
                    }
                })
                .collect()
        })
        .collect()
}

/// Hierarchical (nodes × ranks-per-node) factorizations of `cp` with at
/// least two nodes and two ranks per node — the layouts the topology-aware
/// schedules can actually use. Primes get none (hier degenerates to flat).
pub(crate) fn hier_topos(cp: usize) -> Vec<Topology> {
    (2..cp)
        .filter(|nodes| cp.is_multiple_of(*nodes) && cp / nodes >= 2)
        .map(|nodes| Topology::new(nodes, cp / nodes))
        .collect()
}

/// Builds every grid case for one CP degree: the cross product of
/// algorithm × schedule family (uni/bidi × flat/hier × f32/INT8, plus the
/// chunked pipelined ring) × tokens-per-rank (or slots) × uniform/varseq.
///
/// # Errors
///
/// Propagates [`CoreError`] from `ring_plan` (only possible for
/// degenerate configurations, which the grid avoids).
pub fn grid_cases(cp: usize) -> Result<Vec<GridCase>, CoreError> {
    let params = grid_params()?;
    let shape = params.shape;
    let uni = RingSpec::default();
    let bidi = RingSpec {
        direction: RingDirection::Bidi,
        ..uni
    };
    let int8 = |spec: RingSpec| RingSpec {
        wire: RingWire::Int8,
        ..spec
    };
    let mut cases = Vec::new();
    for &t in &[1usize, 3] {
        for &varseq in &[false, true] {
            if varseq && cp < 2 {
                continue;
            }
            let tag = if varseq { "varseq" } else { "uniform" };
            let locals = grid_locals(cp, t, varseq, shape);
            let (kv, q) = (RingInput::PassKv(&locals), RingInput::PassQ(&locals));
            // Compressed pass-KV families ride a `quant_kv` prefix of
            // their own: their whole point is moving *fewer* bytes than
            // the f32 `pass_kv` base, so they must not pattern-match into
            // the volume-preservation law below.
            let mut cells = vec![
                ("pass_kv".to_string(), kv, uni),
                ("pass_q".to_string(), q, uni),
                ("quant_kv".to_string(), kv, int8(uni)),
            ];
            if cp >= 2 {
                cells.extend([
                    ("pass_kv_bidi".to_string(), kv, bidi),
                    ("pass_q_bidi".to_string(), q, bidi),
                    (
                        "pass_kv_chunked".to_string(),
                        kv,
                        RingSpec { depth: 2, ..uni },
                    ),
                    ("quant_kv_bidi".to_string(), kv, int8(bidi)),
                ]);
            }
            for topo in hier_topos(cp) {
                let hier = format!("hier{}x{}", topo.nodes, topo.ranks_per_node);
                let on = |spec: RingSpec| RingSpec {
                    layout: RingLayout::Hier(topo),
                    ..spec
                };
                cells.extend([
                    (format!("pass_kv_{hier}"), kv, on(uni)),
                    (format!("pass_q_{hier}"), q, on(uni)),
                    (format!("pass_kv_bidi_{hier}"), kv, on(bidi)),
                    (format!("pass_q_bidi_{hier}"), q, on(bidi)),
                    (format!("quant_kv_{hier}"), kv, on(int8(uni))),
                    (format!("quant_kv_bidi_{hier}"), kv, on(int8(bidi))),
                ]);
            }
            for (alg, input, spec) in cells {
                cases.push(GridCase {
                    name: format!("cp{cp}/{alg}/t{t}/{tag}"),
                    plan: ring_plan(input, &spec, &params)?,
                });
            }
            cases.push(GridCase {
                name: format!("cp{cp}/all_gather/t{t}/{tag}"),
                plan: all_gather_pass_kv_plan(&locals)?,
            });
        }
    }
    for &slots in &[1usize, 3] {
        for &varseq in &[false, true] {
            let tag = if varseq { "ragged" } else { "full" };
            let decode_slots = grid_slots(cp, slots, varseq, shape);
            let decode = RingInput::Decode(&decode_slots);
            cases.push(GridCase {
                name: format!("cp{cp}/decode/p{slots}/{tag}"),
                plan: ring_plan(decode, &uni, &params)?,
            });
            if cp >= 2 {
                cases.push(GridCase {
                    name: format!("cp{cp}/decode_bidi/p{slots}/{tag}"),
                    plan: ring_plan(decode, &bidi, &params)?,
                });
            }
        }
    }
    Ok(cases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_plan;
    use crate::explore::explore_default;

    #[test]
    fn grid_covers_all_algorithms() {
        let cases = grid_cases(4).unwrap();
        for alg in [
            "pass_kv/",
            "pass_q/",
            "decode/",
            "all_gather/",
            "pass_kv_bidi/",
            "pass_q_bidi/",
            "pass_kv_chunked/",
            "pass_kv_hier2x2/",
            "pass_q_hier2x2/",
            "pass_kv_bidi_hier2x2/",
            "pass_q_bidi_hier2x2/",
            "decode_bidi/",
            "quant_kv/",
            "quant_kv_bidi/",
            "quant_kv_hier2x2/",
            "quant_kv_bidi_hier2x2/",
        ] {
            assert!(cases.iter().any(|c| c.name.contains(alg)), "missing {alg}");
        }
        assert!(cases.len() >= 16);
    }

    #[test]
    fn hier_factorizations_cover_composite_worlds() {
        assert!(hier_topos(2).is_empty());
        assert!(hier_topos(3).is_empty());
        assert!(hier_topos(5).is_empty());
        let t4: Vec<_> = hier_topos(4)
            .iter()
            .map(|t| (t.nodes, t.ranks_per_node))
            .collect();
        assert_eq!(t4, vec![(2, 2)]);
        let t6: Vec<_> = hier_topos(6)
            .iter()
            .map(|t| (t.nodes, t.ranks_per_node))
            .collect();
        assert_eq!(t6, vec![(2, 3), (3, 2)]);
    }

    #[test]
    fn all_gather_baseline_moves_the_ring_volume() {
        // §3.5.2: the baseline moves exactly the ring's bytes, just all at
        // once; the grid keeps both so the checker sees the trade-off pair.
        for cp in [2, 3, 4, 5, 8] {
            let cases = grid_cases(cp).unwrap();
            for case in &cases {
                let Some(rest) = case.name.strip_prefix(&format!("cp{cp}/all_gather/")) else {
                    continue;
                };
                let ring = cases
                    .iter()
                    .find(|c| c.name == format!("cp{cp}/pass_kv/{rest}"))
                    .expect("matching pass_kv case");
                assert_eq!(
                    case.plan.predicted_traffic().all_gather.bytes,
                    ring.plan.predicted_traffic().send_recv.bytes,
                    "{}",
                    case.name
                );
            }
        }
    }

    #[test]
    fn every_grid_schedule_is_clean_across_cp_degrees() {
        // Odd and non-power-of-two worlds (3, 5) included: rank-rotation
        // off-by-ones that cancel on even rings show up here.
        for cp in [2, 3, 4, 5, 8] {
            for case in grid_cases(cp).unwrap() {
                let report = check_plan(&case.plan);
                assert!(report.is_clean(), "{}: {:?}", case.name, report.violations);
            }
        }
    }

    #[test]
    fn explorer_agrees_with_checker_on_small_worlds() {
        for cp in [2, 3, 4] {
            for case in grid_cases(cp).unwrap() {
                let outcome = explore_default(&case.plan);
                assert!(outcome.is_complete(), "{}: {:?}", case.name, outcome);
            }
        }
    }

    #[test]
    fn pass_q_return_hop_is_double_buffered_point_to_point() {
        // The pass-Q return permutation is eager lone Sends (one per
        // visited origin — two per origin for the split bidirectional
        // halves — interleaved with the ring hops) plus trailing Recvs —
        // never an exposed All2All — and sent bytes mirror received bytes
        // across the world.
        for cp in [2, 3, 4, 5, 8] {
            for case in grid_cases(cp).unwrap() {
                if !case.name.contains("pass_q") {
                    continue;
                }
                let halves = if case.name.contains("bidi") { 2 } else { 1 };
                let mut sends = 0usize;
                let mut recvs = 0usize;
                for rp in &case.plan.ranks {
                    for op in &rp.ops {
                        match op {
                            cp_comm::CommOp::Send { variant, .. } => {
                                assert_eq!(*variant, "Out", "{}", case.name);
                                sends += 1;
                            }
                            cp_comm::CommOp::Recv { variant, .. } => {
                                assert_eq!(*variant, "Out", "{}", case.name);
                                recvs += 1;
                            }
                            cp_comm::CommOp::AllToAll { .. } => {
                                panic!("{}: exposed All2All in pass-Q plan", case.name)
                            }
                            _ => {}
                        }
                    }
                }
                assert_eq!(sends, halves * cp * (cp - 1), "{}", case.name);
                assert_eq!(recvs, halves * cp * (cp - 1), "{}", case.name);
            }
        }
    }

    #[test]
    fn varseq_kv_messages_stay_equal_sized() {
        // §3.5.2: KV shards are padded to a common length, so circulating
        // KV messages must all be the same size even with skewed queries.
        // The split families (bidi, chunked) carry at most two sizes — the
        // ceil and floor halves of the common payload.
        for case in grid_cases(4).unwrap() {
            if !case.name.contains("pass_kv") || case.name.contains("all_gather") {
                continue;
            }
            let split = case.name.contains("bidi") || case.name.contains("chunked");
            let mut sizes = std::collections::BTreeSet::new();
            for rp in &case.plan.ranks {
                for op in &rp.ops {
                    if let cp_comm::CommOp::SendRecv { send_bytes, .. } = op {
                        sizes.insert(*send_bytes);
                    }
                }
            }
            if split {
                assert!(sizes.len() <= 2, "{}: {sizes:?}", case.name);
            } else {
                assert_eq!(sizes.len(), 1, "{}: {sizes:?}", case.name);
            }
        }
    }

    #[test]
    fn quant_families_halve_the_ring_volume_layout_free() {
        // Compressed hops beat the f32 base — exactly 2x at the grid's
        // head_dim 4 (`2·(d+4)` vs `2·d·4` bytes per (token, kv-head)
        // block) — and, like the f32 families, splitting (bidi) or
        // re-routing (hier) the codes never changes the total volume.
        for cp in [2, 3, 4, 5, 8] {
            let cases = grid_cases(cp).unwrap();
            for case in &cases {
                let Some((alg, rest)) = case
                    .name
                    .strip_prefix(&format!("cp{cp}/"))
                    .and_then(|s| s.split_once('/'))
                else {
                    continue;
                };
                if !alg.starts_with("quant_kv") {
                    continue;
                }
                let find = |name: &str| {
                    cases
                        .iter()
                        .find(|c| c.name == format!("cp{cp}/{name}/{rest}"))
                        .expect("matching base case")
                        .plan
                        .predicted_traffic()
                        .send_recv
                        .bytes
                };
                let got = case.plan.predicted_traffic().send_recv.bytes;
                assert_eq!(got, find("quant_kv"), "{}", case.name);
                assert_eq!(2 * got, find("pass_kv"), "{}", case.name);
            }
        }
    }

    #[test]
    fn every_family_moves_the_unidirectional_ring_volume() {
        // Splitting the payload (bidi), cutting it into pipelined chunks,
        // or re-routing it hierarchically changes *when* bytes move and on
        // which links — never how many: each family's total predicted
        // traffic must equal its flat unidirectional base schedule's.
        for cp in [2, 3, 4, 5, 8] {
            let cases = grid_cases(cp).unwrap();
            for case in &cases {
                let Some((alg, rest)) = case
                    .name
                    .strip_prefix(&format!("cp{cp}/"))
                    .and_then(|s| s.split_once('/'))
                    .map(|(alg, rest)| (alg.to_string(), rest.to_string()))
                else {
                    continue;
                };
                let base_alg = match alg.as_str() {
                    a if a.starts_with("pass_kv_") => "pass_kv",
                    a if a.starts_with("pass_q_") => "pass_q",
                    a if a.starts_with("decode_") => "decode",
                    _ => continue,
                };
                let base = cases
                    .iter()
                    .find(|c| c.name == format!("cp{cp}/{base_alg}/{rest}"))
                    .expect("matching base case");
                let got = case.plan.predicted_traffic();
                let want = base.plan.predicted_traffic();
                assert_eq!(got.send_recv.bytes, want.send_recv.bytes, "{}", case.name);
                assert_eq!(got.all_to_all.bytes, want.all_to_all.bytes, "{}", case.name);
            }
        }
    }
}
