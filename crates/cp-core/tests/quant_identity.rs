//! The compressed (INT8 pass-KV) schedule family: one bitwise
//! equivalence class across every layout, direction and depth.
//!
//! The f32 cells fold partials in ring-visit order, so flat and
//! hierarchical layouts agree only mathematically. The INT8 cells fold in
//! canonical ascending-origin order instead, so flat/hier × uni/bidi all
//! produce the **same bits** for the same inputs. Accuracy vs the f32
//! cells is bounded by the per-head INT8 quantization error. Declared
//! compressed plans must match live traffic exactly under a
//! `CheckedFabric`, and a compressed hop must carry ~4× fewer bytes than
//! its f32 twin.

mod support;

use cp_attention::{AttentionParams, GqaShape};
use cp_core::schedule::{ring_plan, RingInput, RingLayout};
use cp_core::{RingSpec, RingWire};
use proptest::prelude::*;
use support::{
    assert_bit_identical, assert_close, bidi, build_locals, hier_layouts, int8, params,
    run_pass_kv, spec_grid, uni, Algo, Cell, Inputs,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Compressed flat uni == compressed flat bidi bitwise, and both stay
    /// within quantization tolerance of the exact f32 ring, for any CP
    /// degree, ragged lengths, and partial-prefill history.
    #[test]
    fn quant_flat_schedules_are_one_bitwise_class(
        cp in 2usize..6,
        base in prop::collection::vec((1usize..5, 0usize..3), 5),
        seed in any::<u64>(),
    ) {
        let p = params();
        let locals = build_locals(&base[..cp], &p, seed);
        let uni_out = run_pass_kv(&locals, &p, int8(uni(RingLayout::Flat)));
        let bidi_out = run_pass_kv(&locals, &p, int8(bidi(RingLayout::Flat)));
        assert_bit_identical(&uni_out, &bidi_out, "quant bidi vs quant uni");
        let exact = run_pass_kv(&locals, &p, RingSpec::default());
        assert_close(&exact, &uni_out, 0.05, "quant vs exact f32");
    }

    /// Every compressed layout — flat, both hierarchical grids, uni and
    /// bidi — produces the same bits: the canonical ascending-origin fold
    /// makes layout a pure routing choice even across topologies, which
    /// the visit-order f32 family cannot promise.
    #[test]
    fn quant_hier_layouts_are_bitwise_stable(
        wide in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let world = if wide { 6usize } else { 4 };
        let p = params();
        let lens: Vec<(usize, usize)> =
            (0..world).map(|r| (1 + (seed as usize + r) % 4, r % 3)).collect();
        let locals = build_locals(&lens, &p, seed);
        let flat = run_pass_kv(&locals, &p, int8(uni(RingLayout::Flat)));
        for layout in hier_layouts(world) {
            let hier = run_pass_kv(&locals, &p, int8(uni(layout)));
            assert_bit_identical(&flat, &hier, "quant hier uni vs quant flat");
            let hier_bidi = run_pass_kv(&locals, &p, int8(bidi(layout)));
            assert_bit_identical(&flat, &hier_bidi, "quant hier bidi vs quant flat");
        }
    }

    /// Declared compressed plans match live traffic exactly under the
    /// CheckedFabric sanitizer, for flat and hierarchical layouts, uni
    /// and bidi — and the compressed schedule moves strictly fewer bytes
    /// than its f32 twin.
    #[test]
    fn quant_plans_keep_predicted_traffic_exact(
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
        let mut layouts = vec![RingLayout::Flat];
        layouts.extend(hier_layouts(world));
        for layout in layouts {
            let quant = Cell { algo: Algo::PassKv, spec: int8(uni(layout)) };
            let (_, report) = quant.run_checked(&p, &inputs);
            let f32_plan = Cell { algo: Algo::PassKv, spec: uni(layout) }.plan(&p, &inputs).unwrap();
            prop_assert!(report.send_recv.bytes < f32_plan.predicted_traffic().send_recv.bytes);
            Cell { algo: Algo::PassKv, spec: int8(bidi(layout)) }.run_checked(&p, &inputs);
        }
    }
}

/// Every INT8 cell of the grid at `W ∈ 2..=5` — direction × layout ×
/// depth {0, 1} — is bitwise identical to the flat unidirectional INT8
/// cell and within the quantization bound of the default f32 cell, under
/// a checked run.
#[test]
fn every_int8_cell_is_one_bitwise_class_within_the_error_bound() {
    let p = params();
    for world in 2..=5 {
        let inputs = Inputs::new(world, &p, 200 + world as u64);
        for cell in spec_grid(world) {
            if cell.spec.wire == RingWire::Int8 {
                cell.assert_contract(&p, &inputs);
            }
        }
    }
}

/// At a production-scale head dim (64) the compressed hop carries
/// `(d + 4) / (4 d)` of the f32 bytes — a ≥3.7× per-hop wire reduction,
/// pinned here against the plan builders' own byte accounting.
#[test]
fn compressed_hops_cut_wire_bytes_by_over_3x() {
    let p = AttentionParams::for_shape(GqaShape::new(4, 2, 64).unwrap());
    let lens = [(8, 2), (6, 0), (7, 5), (5, 1)];
    let locals = build_locals(&lens, &p, 42);
    let bytes = |spec: RingSpec| {
        ring_plan(RingInput::PassKv(&locals), &spec, &p)
            .unwrap()
            .predicted_traffic()
            .send_recv
            .bytes
    };
    let ratio = bytes(RingSpec::default()) as f64 / bytes(int8(RingSpec::default())) as f64;
    // Exactly 4·64/(64+4) = 3.7647…
    assert!(ratio > 3.7, "wire reduction {ratio:.2}x");
}
