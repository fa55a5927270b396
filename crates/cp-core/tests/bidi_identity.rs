//! Bit-identity of the bidirectional, chunked (depth 2), and hierarchical
//! ring cells against the classic unidirectional flat cell.
//!
//! Splitting each hop's payload across both ring directions (TokenRing
//! style), pipelining hops at depth 2, or rerouting the ring through a
//! hierarchical node topology (TASP style) must all be pure *scheduling*
//! changes: for any CP degree, sequence-length skew, cache-hit mix, and
//! decode occupancy the outputs must be **bit-identical** to the default
//! cell — same kernels, same merge order, only the message routing moves.
//! The declared bidi/chunked/hierarchical plans must also match live
//! traffic exactly under a `CheckedFabric`, and a ring wedged in one
//! direction must fail with a timeout naming the silent peer instead of
//! hanging.

mod support;

use std::time::Duration;

use cp_attention::AttentionOutput;
use cp_comm::{CommError, Fabric};
use cp_core::ring::ring_pass_kv_prefill;
use cp_core::schedule::RingLayout;
use cp_core::{CoreError, RingMsg, RingSpec, RingWire};
use proptest::prelude::*;
use support::{
    assert_bit_identical, assert_close, at_depth, bidi, build_decode, build_locals, hier_layouts,
    params, run_decode, run_pass_kv, run_pass_q, spec_grid, uni, Algo, Cell, Inputs,
};

/// Runs `cell` over inputs that carry only what its algorithm reads,
/// under a `CheckedFabric` enforcing the cell's declared plan (which also
/// asserts predicted == measured traffic).
fn check_traffic(algo: Algo, spec: RingSpec, inputs: &Inputs) {
    Cell { algo, spec }.run_checked(&params(), inputs);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Bidirectional pass-KV prefill is bit-identical to the flat
    /// unidirectional ring for any CP degree in {2..5}, ragged lengths,
    /// and partial-prefill history (including `lq == 1`, which leaves the
    /// reverse half of a hop payload empty).
    #[test]
    fn bidi_pass_kv_is_bit_identical(
        cp in 2usize..6,
        base in prop::collection::vec((1usize..5, 0usize..3), 5),
        seed in any::<u64>(),
    ) {
        let p = params();
        let locals = build_locals(&base[..cp], &p, seed);
        let uni_out = run_pass_kv(&locals, &p, RingSpec::default());
        let bidi_out = run_pass_kv(&locals, &p, bidi(RingLayout::Flat));
        assert_bit_identical(&uni_out, &bidi_out, "bidi pass-kv vs uni");
    }

    /// Bidirectional pass-Q prefill is bit-identical to the flat
    /// unidirectional ring (the query halves counter-rotate and the
    /// partial outputs return eagerly along both directions).
    #[test]
    fn bidi_pass_q_is_bit_identical(
        cp in 2usize..6,
        base in prop::collection::vec((1usize..5, 0usize..3), 5),
        seed in any::<u64>(),
    ) {
        let p = params();
        let locals = build_locals(&base[..cp], &p, seed);
        let uni_out = run_pass_q(&locals, &p, RingSpec::default());
        let bidi_out = run_pass_q(&locals, &p, bidi(RingLayout::Flat));
        assert_bit_identical(&uni_out, &bidi_out, "bidi pass-q vs uni");
    }

    /// Depth-2 chunked pass-KV prefill (both half-blocks in flight per
    /// hop) is bit-identical to the single-buffered ring, including over
    /// cached context (`extra > 0` = chunked prefill history).
    #[test]
    fn chunked_pass_kv_is_bit_identical(
        cp in 2usize..6,
        base in prop::collection::vec((1usize..5, 0usize..3), 5),
        seed in any::<u64>(),
    ) {
        let p = params();
        let locals = build_locals(&base[..cp], &p, seed);
        let uni_out = run_pass_kv(&locals, &p, RingSpec::default());
        let chunked = run_pass_kv(&locals, &p, at_depth(2, RingSpec::default()));
        assert_bit_identical(&uni_out, &chunked, "chunked pass-kv vs uni");
    }

    /// Bidirectional batched decode is bit-identical to the
    /// unidirectional pass for any slot occupancy (the slot-vector halves
    /// counter-rotate; the All2All return is unchanged).
    #[test]
    fn bidi_decode_is_bit_identical(
        cp in 2usize..6,
        occupancy in prop::collection::vec(any::<bool>(), 5),
        seed in any::<u64>(),
    ) {
        let p = params();
        let mut occ = occupancy[..cp].to_vec();
        occ[0] = true; // at least one live slot
        let (slots, kv) = build_decode(&occ, &p, seed);
        let uni_out = run_decode(&slots, &kv, &p, RingSpec::default());
        let bidi_out = run_decode(&slots, &kv, &p, bidi(RingLayout::Flat));
        assert_bit_identical(&uni_out, &bidi_out, "bidi decode vs uni");
    }

    /// Hierarchical (topology-aware) schedules are bit-identical to the
    /// flat ring for both pass variants, unidirectional and
    /// bidirectional, at `W = 4` (degenerate 2×2 grid) and `W = 6` (both
    /// link-disjoint grids).
    #[test]
    fn hier_layouts_are_bit_identical_to_flat(
        wide in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let world = if wide { 6usize } else { 4 };
        let p = params();
        let lens: Vec<(usize, usize)> =
            (0..world).map(|r| (1 + (seed as usize + r) % 4, r % 3)).collect();
        let locals = build_locals(&lens, &p, seed);
        let kv_flat = run_pass_kv(&locals, &p, RingSpec::default());
        let q_flat = run_pass_q(&locals, &p, RingSpec::default());
        for layout in hier_layouts(world) {
            // Pass-KV folds partials in ring-visit order, and the
            // hierarchical path visits origins in a different order than
            // the flat ring — exact but not bitwise across families. The
            // bidirectional hierarchical loop replays the unidirectional
            // hierarchical fold order, so that pair IS bitwise.
            let kv_hier = run_pass_kv(&locals, &p, uni(layout));
            assert_close(&kv_flat, &kv_hier, 2e-3, "hier pass-kv vs flat");
            let kv_bidi = run_pass_kv(&locals, &p, bidi(layout));
            assert_bit_identical(&kv_hier, &kv_bidi, "bidi hier pass-kv vs uni hier");
            let q_hier = run_pass_q(&locals, &p, uni(layout));
            assert_bit_identical(&q_flat, &q_hier, "hier pass-q vs flat");
            let q_bidi = run_pass_q(&locals, &p, bidi(layout));
            assert_bit_identical(&q_flat, &q_bidi, "bidi hier pass-q vs flat");
        }
    }

    /// The declared bidi/chunked plans match live traffic exactly when
    /// the loop runs under the CheckedFabric sanitizer, and the predicted
    /// byte/call totals match the metered report.
    #[test]
    fn bidi_loops_keep_predicted_traffic_exact(
        cp in 2usize..6,
        base in prop::collection::vec((1usize..4, 0usize..2), 5),
        seed in any::<u64>(),
    ) {
        let p = params();
        let (slots, kv) = build_decode(&vec![true; cp], &p, seed ^ 0x9e37);
        let inputs = Inputs { locals: build_locals(&base[..cp], &p, seed), slots, kv };
        check_traffic(Algo::PassKv, bidi(RingLayout::Flat), &inputs);
        check_traffic(Algo::PassQ, bidi(RingLayout::Flat), &inputs);
        check_traffic(Algo::PassKv, at_depth(2, RingSpec::default()), &inputs);
        check_traffic(Algo::Decode, bidi(RingLayout::Flat), &inputs);
    }

    /// The hierarchical plans match live traffic exactly too, for both
    /// the unidirectional and bidirectional loops on every grid shape.
    #[test]
    fn hier_loops_keep_predicted_traffic_exact(
        wide in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let world = if wide { 6usize } else { 4 };
        let p = params();
        let lens: Vec<(usize, usize)> = (0..world).map(|r| (1 + r % 3, r % 2)).collect();
        let inputs = Inputs {
            locals: build_locals(&lens, &p, seed),
            slots: Vec::new(),
            kv: Vec::new(),
        };
        for layout in hier_layouts(world) {
            check_traffic(Algo::PassKv, uni(layout), &inputs);
            check_traffic(Algo::PassKv, bidi(layout), &inputs);
            check_traffic(Algo::PassQ, uni(layout), &inputs);
            check_traffic(Algo::PassQ, bidi(layout), &inputs);
        }
    }
}

/// Every f32 cell of the grid at `W ∈ 2..=5` — direction × layout ×
/// depth {0, 1, 2} — meets its contract against the default cell under a
/// checked run: bitwise for pass-Q on every layout, for decode, and for
/// flat pass-KV; bitwise against the unidirectional cell of the same
/// layout plus exact-not-bitwise (2e-3) against the default cell for
/// hierarchical pass-KV.
#[test]
fn every_f32_cell_meets_its_contract() {
    let p = params();
    for world in 2..=5 {
        let inputs = Inputs::new(world, &p, 100 + world as u64);
        for cell in spec_grid(world) {
            if cell.spec.wire == RingWire::F32 {
                cell.assert_contract(&p, &inputs);
            }
        }
    }
}

fn core_to_comm(e: CoreError) -> CommError {
    match e {
        CoreError::Comm(c) => c,
        other => CommError::RankFailed {
            rank: usize::MAX,
            kind: "test",
            detail: other.to_string(),
        },
    }
}

/// A ring wedged in one direction must surface a receive timeout naming
/// the silent peer, not hang: rank 1 keeps the forward direction healthy
/// but never posts its reverse-direction hops, so rank 0 (whose reverse
/// receive peer is rank 1) times out on it.
#[test]
fn wedged_reverse_direction_times_out_naming_the_peer() {
    let p = params();
    let lens = [(2, 0), (3, 1), (2, 2)];
    let locals = build_locals(&lens, &p, 23);
    let cp = lens.len();
    let spec = bidi(RingLayout::Flat);
    let body = |comm: &cp_comm::Communicator<RingMsg>| -> Result<Vec<AttentionOutput>, CommError> {
        if comm.rank() == 1 {
            // Forward hops only: send the local block on, forward the one
            // message rank 0 manages to post before wedging, and stay
            // alive past the peers' receive deadlines so the reverse
            // direction wedges rather than disconnects. Only plain sends
            // and one guaranteed-delivered recv — rank 1 itself must
            // never hit a deadline, or dropping its channels would turn
            // rank 0's timeout into a disconnect.
            let own = RingMsg::Kv {
                seqs: vec![locals[1][0].kv()],
            };
            comm.isend(comm.ring_next(), own)?.wait()?;
            let forwarded = comm.recv(comm.ring_prev())?;
            comm.isend(comm.ring_next(), forwarded)?.wait()?;
            std::thread::sleep(Duration::from_millis(400));
            return Ok(Vec::new());
        }
        ring_pass_kv_prefill(comm, &p, &spec, &locals[comm.rank()]).map_err(core_to_comm)
    };
    let err = Fabric::new(cp)
        .recv_timeout(Duration::from_millis(100))
        .run::<RingMsg, Vec<AttentionOutput>, _>(body)
        .unwrap_err();
    match err {
        CommError::RecvFailed { src, timed_out } => {
            assert_eq!(src, 1, "the timeout must name the wedged peer");
            assert!(
                timed_out,
                "a wedged direction is a timeout, not a disconnect"
            );
        }
        other => panic!("expected RecvFailed naming rank 1, got {other:?}"),
    }
}
