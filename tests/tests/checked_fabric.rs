//! End-to-end schedule verification: the three ring algorithms run under
//! a [`CheckedFabric`] whose declared plan is validated offline by
//! `cp-verify` first, then enforced against live traffic — for CP ∈
//! {2, 4, 8} on the default cell and for every supported [`RingSpec`]
//! cell at CP ∈ 2..=6. Seeded mutations must be caught by BOTH layers
//! (model checker offline, `CheckedFabric` at runtime), each naming the
//! offending rank.

#[path = "../../crates/cp-core/tests/support/mod.rs"]
mod support;

use std::time::Duration;

use cp_attention::{AttentionParams, GqaShape};
use cp_comm::{CheckedFabric, CommError};
use cp_core::ring::ring_pass_kv_prefill;
use cp_core::schedule::{ring_plan, run_ring_checked, RingInput};
use cp_core::{CoreError, DecodeSlot, LocalSeq, RingSpec, SeqKv};
use cp_tensor::DetRng;
use cp_verify::{apply_mutation, check_plan, explore_default, Mutation};
use support::{decode_body, pass_q_body, spec_grid, unsupported_cells, Inputs};

fn params() -> AttentionParams {
    AttentionParams::for_shape(GqaShape::new(4, 2, 8).unwrap())
}

/// One causal sequence split across `n` ranks, `t` tokens per rank.
fn locals(n: usize, t: usize, seed: u64) -> Vec<Vec<LocalSeq>> {
    let p = params();
    let shape = p.shape;
    let mut rng = DetRng::new(seed);
    (0..n)
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

fn decode_inputs(n: usize, seed: u64) -> (Vec<Vec<Option<DecodeSlot>>>, Vec<Vec<SeqKv>>) {
    let p = params();
    let shape = p.shape;
    let mut rng = DetRng::new(seed);
    let slots = (0..n)
        .map(|r| {
            vec![if r % 2 == 0 {
                Some(DecodeSlot {
                    bid: 0,
                    q: rng.tensor(&[1, shape.n_heads(), shape.head_dim()]),
                    pos: 4 * n,
                })
            } else {
                None
            }]
        })
        .collect();
    let kv = (0..n)
        .map(|r| {
            vec![SeqKv {
                k: rng.tensor(&[4, shape.n_kv_heads(), shape.head_dim()]),
                v: rng.tensor(&[4, shape.n_kv_heads(), shape.head_dim()]),
                pos: (r * 4..(r + 1) * 4).collect(),
            }]
        })
        .collect();
    (slots, kv)
}

/// Pass-KV prefill under a verified plan for CP ∈ {2, 4, 8}: the model
/// checker passes the schedule offline, the checked fabric accepts the
/// live run, and measured traffic equals the prediction.
#[test]
fn pass_kv_runs_checked_at_cp_2_4_8() {
    let p = params();
    for n in [2, 4, 8] {
        let inputs = locals(n, 3, 100 + n as u64);
        let spec = RingSpec::default();
        let plan = ring_plan(RingInput::PassKv(&inputs), &spec, &p).unwrap();
        assert!(check_plan(&plan).is_clean());
        let predicted = plan.predicted_traffic();
        let fabric = CheckedFabric::new(plan);
        let (outs, report) = run_ring_checked(&fabric, |comm| {
            ring_pass_kv_prefill(comm, &p, &spec, &inputs[comm.rank()])
        })
        .unwrap();
        assert_eq!(outs.len(), n);
        predicted.check_report(&report).unwrap();
    }
}

#[test]
fn pass_q_runs_checked_at_cp_2_4_8() {
    let p = params();
    for n in [2, 4, 8] {
        let inputs = locals(n, 2, 200 + n as u64);
        let spec = RingSpec::default();
        let plan = ring_plan(RingInput::PassQ(&inputs), &spec, &p).unwrap();
        assert!(check_plan(&plan).is_clean());
        let predicted = plan.predicted_traffic();
        let fabric = CheckedFabric::new(plan);
        let (outs, report) = run_ring_checked(&fabric, |comm| {
            pass_q_body(comm, &p, &spec, &inputs[comm.rank()])
        })
        .unwrap();
        assert_eq!(outs.len(), n);
        predicted.check_report(&report).unwrap();
    }
}

#[test]
fn decode_runs_checked_at_cp_2_4_8() {
    let p = params();
    for n in [2, 4, 8] {
        let (slots, kv) = decode_inputs(n, 300 + n as u64);
        let spec = RingSpec::default();
        let plan = ring_plan(RingInput::Decode(&slots), &spec, &p).unwrap();
        assert!(check_plan(&plan).is_clean());
        let predicted = plan.predicted_traffic();
        let fabric = CheckedFabric::new(plan);
        let (outs, report) = run_ring_checked(&fabric, |comm| {
            decode_body(comm, &p, &spec, &slots[comm.rank()], &kv[comm.rank()])
        })
        .unwrap();
        assert_eq!(outs.len(), n);
        predicted.check_report(&report).unwrap();
    }
}

/// Every supported schedule cell at CP ∈ 2..=6 — including the
/// link-disjoint 2×3 and 3×2 hierarchical layouts: its declared plan passes
/// the model checker offline, the single ring loop runs it under a
/// `CheckedFabric` with predicted == measured traffic, and its outputs
/// meet the cell's numeric contract against the default cell. Every
/// unsupported cell is refused by both `ring_plan` and the loop before
/// any message is posted.
#[test]
fn every_spec_cell_runs_checked_and_unsupported_cells_are_refused() {
    let p = support::params();
    for world in 2..=6 {
        let inputs = Inputs::new(world, &p, 600 + world as u64);
        for cell in spec_grid(world) {
            let report = check_plan(&cell.plan(&p, &inputs).unwrap());
            assert!(report.is_clean(), "{cell:?}: {:?}", report.violations);
            cell.assert_contract(&p, &inputs);
        }
        for cell in unsupported_cells(world) {
            cell.assert_rejected(&p, &inputs);
        }
    }
}

/// Runs the correct pass-KV algorithm against a mutated plan and returns
/// the fabric's error, which must be a plan violation.
fn run_pass_kv_against(plan: cp_comm::CommPlan, inputs: &[Vec<LocalSeq>]) -> CommError {
    let p = params();
    let fabric = CheckedFabric::new(plan).recv_timeout(Duration::from_millis(500));
    let err = run_ring_checked(&fabric, |comm| {
        ring_pass_kv_prefill(comm, &p, &RingSpec::default(), &inputs[comm.rank()])
    })
    .unwrap_err();
    match err {
        CoreError::Comm(c) => c,
        other => panic!("expected a comm-layer error, got {other:?}"),
    }
}

/// Every seeded mutation is caught twice — offline by the model checker
/// and at runtime by the checked fabric — naming the offending rank both
/// times.
#[test]
fn mutations_are_caught_offline_and_at_runtime() {
    let n = 4;
    let target = 1usize;
    let inputs = locals(n, 2, 400);
    let clean = ring_plan(RingInput::PassKv(&inputs), &RingSpec::default(), &params()).unwrap();
    assert!(check_plan(&clean).is_clean());

    for mutation in Mutation::seeds(target) {
        let mutated = apply_mutation(&clean, mutation)
            .unwrap_or_else(|| panic!("{} has no site", mutation.tag()));

        // Offline: the model checker flags the plan…
        let report = check_plan(&mutated);
        assert!(!report.is_clean(), "{} escaped the checker", mutation.tag());
        // …naming the mutated rank when the mutation targets one.
        if let Some(rank) = mutation.target_rank() {
            assert!(
                report
                    .violations
                    .iter()
                    .any(|v| v.offending_ranks().contains(&rank)),
                "{}: offline violations {:?} do not name rank {rank}",
                mutation.tag(),
                report.violations
            );
        }

        // Runtime: the correct algorithm run against the mutated plan is
        // rejected by the checked fabric with a PlanViolation.
        match run_pass_kv_against(mutated, &inputs) {
            CommError::PlanViolation { rank, detail, .. } => {
                if let Some(expected) = mutation.target_rank() {
                    assert_eq!(
                        rank,
                        expected,
                        "{}: runtime violation blamed rank {rank}: {detail}",
                        mutation.tag()
                    );
                }
            }
            other => panic!("{}: expected PlanViolation, got {other:?}", mutation.tag()),
        }
    }
}

/// The deadlock mutation is specifically reported as a wait cycle by the
/// graph checker and confirmed stuck by exhaustive exploration.
#[test]
fn deadlock_mutation_is_a_cycle_offline() {
    let inputs = locals(4, 2, 500);
    let clean = ring_plan(RingInput::PassKv(&inputs), &RingSpec::default(), &params()).unwrap();
    let mutated = apply_mutation(&clean, Mutation::RecvBeforeSend).unwrap();
    let report = check_plan(&mutated);
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, cp_verify::Violation::Deadlock { .. })));
    assert!(matches!(
        explore_default(&mutated),
        cp_verify::ExploreOutcome::Deadlock { .. }
    ));
}
