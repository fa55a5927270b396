//! Bit-identity of the double-buffered (overlapped, depth 1) ring loop
//! against its blocking (depth 0) form.
//!
//! Overlapping communication with compute must be a pure scheduling
//! change: for any batch shape, sequence-length skew, CP degree, and
//! full/partial prefill split, `ring_pass_kv_prefill`,
//! `ring_pass_q_prefill`, and `ring_pass_q_decode` must produce outputs
//! **bit-identical** at depth 0 and depth 1 (same kernels, same merge
//! order — only the wait point moves), on every cell of the schedule
//! grid. The declared schedules must also still match live traffic exactly
//! when the overlapped loops run under a `CheckedFabric`.

mod support;

use cp_comm::CheckedFabric;
use cp_core::ring::ring_pass_kv_prefill;
use cp_core::schedule::{ring_plan, run_ring_checked, RingInput};
use cp_core::RingSpec;
use proptest::prelude::*;
use support::{
    assert_bit_identical, at_depth, build_decode, build_locals, decode_body, params, pass_q_body,
    run_decode, run_pass_kv, run_pass_q, spec_grid, Cell, Inputs,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Overlapped pass-KV prefill is bit-identical to the blocking loop
    /// for any CP degree, ragged lengths, and partial-prefill history.
    #[test]
    fn overlapped_pass_kv_is_bit_identical(
        cp in 2usize..5,
        base in prop::collection::vec((1usize..5, 0usize..3), 4),
        seed in any::<u64>(),
    ) {
        let p = params();
        let locals = build_locals(&base[..cp], &p, seed);
        let overlapped = run_pass_kv(&locals, &p, RingSpec::default());
        let blocking = run_pass_kv(&locals, &p, at_depth(0, RingSpec::default()));
        assert_bit_identical(&overlapped, &blocking, "overlapped vs blocking pass-kv");
    }

    /// Overlapped pass-Q prefill is bit-identical to the blocking loop.
    #[test]
    fn overlapped_pass_q_is_bit_identical(
        cp in 2usize..5,
        base in prop::collection::vec((1usize..5, 0usize..3), 4),
        seed in any::<u64>(),
    ) {
        let p = params();
        let locals = build_locals(&base[..cp], &p, seed);
        let overlapped = run_pass_q(&locals, &p, RingSpec::default());
        let blocking = run_pass_q(&locals, &p, at_depth(0, RingSpec::default()));
        assert_bit_identical(&overlapped, &blocking, "overlapped vs blocking pass-q");
    }

    /// Overlapped batched decode is bit-identical to the blocking loop
    /// for any slot occupancy pattern (ragged batches included).
    #[test]
    fn overlapped_decode_is_bit_identical(
        cp in 2usize..5,
        occupancy in prop::collection::vec(any::<bool>(), 4),
        seed in any::<u64>(),
    ) {
        let p = params();
        let mut occ = occupancy[..cp].to_vec();
        occ[0] = true; // at least one live slot
        let (slots, kv) = build_decode(&occ, &p, seed);
        let overlapped = run_decode(&slots, &kv, &p, RingSpec::default());
        let blocking = run_decode(&slots, &kv, &p, at_depth(0, RingSpec::default()));
        assert_bit_identical(&overlapped, &blocking, "overlapped vs blocking decode");
    }

    /// The declared schedules still match live traffic exactly when the
    /// overlapped loops run under the CheckedFabric sanitizer: posting
    /// `isend_irecv` early must not change plan conformance or metering.
    #[test]
    fn overlapped_loops_keep_predicted_traffic_exact(
        cp in 2usize..5,
        base in prop::collection::vec((1usize..4, 0usize..2), 4),
        seed in any::<u64>(),
    ) {
        let p = params();
        let locals = build_locals(&base[..cp], &p, seed);
        let spec = RingSpec::default();

        let plan = ring_plan(RingInput::PassKv(&locals), &spec, &p).unwrap();
        let predicted = plan.predicted_traffic();
        let (_, report) = run_ring_checked(&CheckedFabric::new(plan), |comm| {
            ring_pass_kv_prefill(comm, &p, &spec, &locals[comm.rank()])
        }).unwrap();
        predicted.check_report(&report).unwrap();

        let plan = ring_plan(RingInput::PassQ(&locals), &spec, &p).unwrap();
        let predicted = plan.predicted_traffic();
        let (_, report) = run_ring_checked(&CheckedFabric::new(plan), |comm| {
            pass_q_body(comm, &p, &spec, &locals[comm.rank()])
        }).unwrap();
        predicted.check_report(&report).unwrap();

        let occ = vec![true; cp];
        let (slots, kv) = build_decode(&occ, &p, seed ^ 0x9e37);
        let plan = ring_plan(RingInput::Decode(&slots), &spec, &p).unwrap();
        let predicted = plan.predicted_traffic();
        let (_, report) = run_ring_checked(&CheckedFabric::new(plan), |comm| {
            decode_body(comm, &p, &spec, &slots[comm.rank()], &kv[comm.rank()])
        }).unwrap();
        predicted.check_report(&report).unwrap();
    }
}

/// Depth 0 on **every** cell of the grid — including the bidirectional,
/// hierarchical and INT8 cells that had no blocking loop before the single
/// ring loop — is bit-identical to the same cell at depth 1, declares the
/// same plan, and meters the same traffic.
#[test]
fn depth_0_matches_depth_1_on_every_cell() {
    let p = params();
    for world in 2..=5 {
        let inputs = Inputs::new(world, &p, 7 + world as u64);
        for blocking in spec_grid(world).into_iter().filter(|c| c.spec.depth == 0) {
            let overlapped = Cell {
                spec: at_depth(1, blocking.spec),
                ..blocking
            };
            assert_eq!(
                blocking.plan(&p, &inputs).unwrap(),
                overlapped.plan(&p, &inputs).unwrap(),
                "{blocking:?}: depth 0 and depth 1 must declare one plan"
            );
            let (b_outs, b_report) = blocking.run_checked(&p, &inputs);
            let (o_outs, o_report) = overlapped.run_checked(&p, &inputs);
            assert_bit_identical(&b_outs, &o_outs, &format!("{blocking:?} vs depth 1"));
            assert_eq!(
                b_report.total_bytes(),
                o_report.total_bytes(),
                "{blocking:?}"
            );
            assert_eq!(
                b_report.send_recv.calls, o_report.send_recv.calls,
                "{blocking:?}"
            );
        }
    }
}
