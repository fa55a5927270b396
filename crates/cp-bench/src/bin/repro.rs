//! `repro` — regenerates every table and figure of the paper's evaluation
//! from this reproduction's models and exact engine.
//!
//! ```bash
//! cargo run --release -p cp-bench --bin repro            # everything
//! cargo run --release -p cp-bench --bin repro table4     # one experiment
//! cargo run --release -p cp-bench --bin repro all --json out/   # + JSON dumps
//! ```
//!
//! Experiments: table2 table3 table4 table5 table6 table7 table8 table9
//! fig6a fig6b fig7 fig8 fig9 fig10 mfu capacity disaggregation
//! sharding fullstack trace exactness all

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cp_attention::GqaShape;
use cp_core::baseline::single_device_prefill;
use cp_core::heuristics::{
    fit_empirical, selection_accuracy, HeuristicKind, SystemContext, PAPER_EMPIRICAL,
};
use cp_core::{ContextParallelEngine, EngineConfig, PrefillRequest};
use cp_kvcache::SeqId;
use cp_perf::{cost, decode, mfu, prefill, tp, HardwareSpec, ModelSpec, RingVariant};
use cp_tensor::DetRng;
use cp_workload::{context_sweep, heuristic_fit_grid, table4_grid};

fn model() -> ModelSpec {
    ModelSpec::llama3_405b()
}

/// Collects rows for both the console and optional JSON output.
#[derive(Default)]
struct Report {
    text: String,
    json: BTreeMap<String, serde_json::Value>,
}

impl Report {
    fn section(&mut self, title: &str) {
        let _ = writeln!(self.text, "\n=== {title} ===");
    }
    fn line(&mut self, s: &str) {
        let _ = writeln!(self.text, "{s}");
    }
    fn record(&mut self, key: &str, value: serde_json::Value) {
        self.json.insert(key.to_string(), value);
    }
}

fn table2(r: &mut Report) {
    r.section("Table 2: per-block communication and memory, TP vs CP");
    let m = model();
    let t = 128_000;
    let tp_bytes = cost::tp_comm_per_block_bytes(&m, t);
    let cp_bytes = cost::cp_comm_per_block_bytes(&m, t);
    r.line(&format!("context T = {t}, model = {}", m.name));
    r.line(&format!(
        "  TP per block (2 AllReduce): {:>10.1} MB   parameter share: W/N_TP",
        tp_bytes / 1e6
    ));
    r.line(&format!(
        "  CP per block (SendRecv)  : {:>10.1} MB   parameter share: W (replicated per node)",
        cp_bytes / 1e6
    ));
    r.line(&format!(
        "  ratio TP/CP = {:.0}x (paper: 2*N_H/N_KV = 32x for Llama3 405B)",
        tp_bytes / cp_bytes
    ));
    r.record(
        "table2",
        serde_json::json!({"tp_bytes": tp_bytes, "cp_bytes": cp_bytes, "ratio": tp_bytes/cp_bytes}),
    );
}

fn table3(r: &mut Report) {
    r.section("Table 3: GQA attention complexity, full vs partial prefill");
    let m = model();
    let (t, p) = (10_000usize, 118_000usize);
    r.line("                         full prefill        partial prefill");
    r.line(&format!(
        "  FLOPS (per layer)    {:>14.3e}      {:>14.3e}",
        cost::attn_flops_layer(&m, t + p, 0),
        cost::attn_flops_layer(&m, t, p)
    ));
    r.line(&format!(
        "  Q bytes              {:>14.3e}      {:>14.3e}",
        cost::q_bytes(&m, t + p),
        cost::q_bytes(&m, t)
    ));
    r.line(&format!(
        "  KV bytes             {:>14.3e}      {:>14.3e}",
        cost::kv_bytes(&m, t + p, 0),
        cost::kv_bytes(&m, t, p)
    ));
    r.line("  (partial prefill: Q shrinks with T while KV still covers P+T — Equation 1's origin)");
    r.record(
        "table3",
        serde_json::json!({
            "full": {"flops": cost::attn_flops_layer(&m, t+p, 0), "q_bytes": cost::q_bytes(&m, t+p), "kv_bytes": cost::kv_bytes(&m, t+p, 0)},
            "partial": {"flops": cost::attn_flops_layer(&m, t, p), "q_bytes": cost::q_bytes(&m, t), "kv_bytes": cost::kv_bytes(&m, t, p)},
        }),
    );
}

fn fig6(r: &mut Report, gti: bool) {
    let hw = if gti {
        HardwareSpec::gti()
    } else {
        HardwareSpec::gtt()
    };
    let nodes: &[usize] = if gti { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let name = if gti {
        "Figure 6b (GTI / TCP)"
    } else {
        "Figure 6a (GTT / RDMA)"
    };
    r.section(&format!("{name}: pass-KV full prefill latency"));
    let mut header = format!("{:>10} |", "tokens");
    for n in nodes {
        let _ = write!(header, "   CP{n:<4}");
    }
    r.line(&header);
    let mut rows = Vec::new();
    for t in context_sweep(2_000, 128_000) {
        let mut line = format!("{t:>10} |");
        let mut row = serde_json::Map::new();
        row.insert("tokens".into(), t.into());
        for &n in nodes {
            let s = prefill::cp_full_prefill_s(&model(), &hw, n, t);
            let _ = write!(line, " {s:>7.2}s");
            row.insert(format!("cp{n}_s"), serde_json::json!(s));
        }
        r.line(&line);
        rows.push(serde_json::Value::Object(row));
    }
    if !gti {
        r.line("  paper anchors: CP8 @128K = 5.85s");
    } else {
        r.line("  paper: same near-linear scaling to 4 nodes despite ~3 GB/s links");
    }
    r.record(
        if gti { "fig6b" } else { "fig6a" },
        serde_json::Value::Array(rows),
    );
}

fn fig7(r: &mut Report) {
    r.section("Figure 7: scaling ratio, CP vs multi-node TP (128K prefill, GTT)");
    let hw = HardwareSpec::gtt();
    let m = model();
    let cp1 = prefill::cp_full_prefill_s(&m, &hw, 1, 128_000);
    let tp1 = tp::tp_prefill(&m, &hw, 1, 128_000).total_s;
    r.line(&format!("{:>7} | {:>8} {:>8}", "nodes", "CP", "TP"));
    let mut rows = Vec::new();
    for n in [1usize, 2, 4, 8] {
        let cp = cp1 / prefill::cp_full_prefill_s(&m, &hw, n, 128_000);
        let tpr = tp1 / tp::tp_prefill(&m, &hw, n, 128_000).total_s;
        r.line(&format!("{n:>7} | {cp:>7.2}x {tpr:>7.2}x"));
        rows.push(serde_json::json!({"nodes": n, "cp_ratio": cp, "tp_ratio": tpr}));
    }
    r.line("  paper: CP near-linear; TP flattens (2x latency gap at 8 nodes)");
    r.record("fig7", serde_json::Value::Array(rows));
}

fn fig8(r: &mut Report) {
    r.section("Figure 8: TTFT for 128K-1M context, CP8 and CP16 (GTT)");
    let hw = HardwareSpec::gtt();
    r.line(&format!("{:>10} | {:>9} {:>9}", "tokens", "CP8", "CP16"));
    let mut rows = Vec::new();
    for t in context_sweep(128_000, 1_024_000) {
        let c8 = prefill::cp_full_prefill_s(&model(), &hw, 8, t);
        let c16 = prefill::cp_full_prefill_s(&model(), &hw, 16, t);
        r.line(&format!("{t:>10} | {c8:>8.1}s {c16:>8.1}s"));
        rows.push(serde_json::json!({"tokens": t, "cp8_s": c8, "cp16_s": c16}));
    }
    let s1m = prefill::cp_full_prefill_s(&model(), &hw, 16, 1_000_000);
    r.line(&format!(
        "  1M on CP16: {s1m:.0}s (paper: 77s); >=512K doubling context more than doubles TTFT"
    ));
    r.record("fig8", serde_json::Value::Array(rows));
}

fn table4_and_fig9(r: &mut Report) {
    r.section("Table 4 + Figure 9: pass-KV vs pass-Q TTFT by miss rate (CP4, T+P=128000)");
    let hw = HardwareSpec::gtt();
    // Paper's measured TTFT (ms) for reference.
    let paper: &[(f64, f64, f64)] = &[
        (1.00, 1023.39, 898.71),
        (2.50, 1110.18, 1046.43),
        (3.25, 1298.92, 1280.1),
        (5.00, 1305.56, 1302.01),
        (10.00, 2080.67, 2205.27),
        (20.00, 3353.02, 3617.02),
        (30.00, 4629.23, 4922.52),
        (40.00, 5745.08, 6217.83),
        (50.00, 6845.21, 7367.99),
        (60.00, 7890.35, 8468.66),
        (70.00, 8697.27, 9666.62),
        (80.00, 10105.78, 10652.39),
        (90.00, 11136.4, 11571.62),
        (100.00, 11462.15, 12360.57),
    ];
    r.line(&format!(
        "{:>8} {:>8} {:>7} | {:>9} {:>9} {:>7} | {:>9} {:>9} {:>7}",
        "P", "T", "miss%", "ours KV", "ours Q", "ratio", "paper KV", "paper Q", "ratio"
    ));
    let mut rows = Vec::new();
    for ((p, t), &(miss, pkv, pq)) in table4_grid(128_000).into_iter().zip(paper) {
        let kv = prefill::cp_prefill(&model(), &hw, 4, t, p, RingVariant::PassKv).ttft_ms();
        let q = prefill::cp_prefill(&model(), &hw, 4, t, p, RingVariant::PassQ).ttft_ms();
        r.line(&format!(
            "{p:>8} {t:>8} {miss:>7.2} | {kv:>8.0}ms {q:>8.0}ms {:>7.3} | {pkv:>8.0}ms {pq:>8.0}ms {:>7.3}",
            kv / q,
            pkv / pq
        ));
        rows.push(serde_json::json!({
            "p": p, "t": t, "miss_pct": miss,
            "ours_kv_ms": kv, "ours_q_ms": q,
            "paper_kv_ms": pkv, "paper_q_ms": pq,
        }));
    }
    r.line(
        "  shape: ratio > 1 (pass-Q wins) at low miss rates, crossover near 3-5%, pass-KV beyond",
    );
    r.record("table4_fig9", serde_json::Value::Array(rows));
}

fn table5(r: &mut Report) {
    r.section("Table 5: per-ring-iteration time breakdown (CP4, T+P=128000)");
    let hw = HardwareSpec::gtt();
    r.line(&format!(
        "{:>7} {:>9} | {:>9} {:>8} {:>8} | paper",
        "miss%", "variant", "SendRecv", "ATTN", "All2All"
    ));
    let paper = [
        (2.5, RingVariant::PassKv, "627 / 414 / -"),
        (2.5, RingVariant::PassQ, "166 / 414 / 424"),
        (10.0, RingVariant::PassKv, "631 / 1608 / -"),
        (10.0, RingVariant::PassQ, "544 / 1608 / 1023"),
    ];
    let mut rows = Vec::new();
    for (miss, variant, paper_str) in paper {
        let t = (128_000.0 * miss / 100.0) as usize;
        let p = 128_000 - t;
        let it = prefill::ring_iter_costs(&model(), &hw, 4, t, p, variant);
        r.line(&format!(
            "{miss:>7.1} {:>9} | {:>7.0}us {:>6.0}us {:>6.0}us | {paper_str}",
            variant.to_string(),
            it.sendrecv_us,
            it.attn_us,
            it.all2all_us
        ));
        rows.push(serde_json::json!({
            "miss_pct": miss, "variant": variant.to_string(),
            "sendrecv_us": it.sendrecv_us, "attn_us": it.attn_us, "all2all_us": it.all2all_us,
        }));
    }
    r.record("table5", serde_json::Value::Array(rows));
}

fn table6(r: &mut Report) {
    r.section("Table 6: TTFT / TTIT, TP8 vs CP2+TP8 (batch 1)");
    let hw = HardwareSpec::gtt();
    let m = model();
    let paper = [
        (8_000usize, 1740.0, 44.51, 999.0, 65.61),
        (32_000, 7658.0, 44.64, 4015.0, 65.66),
        (128_000, 42010.0, 46.26, 21042.0, 66.63),
    ];
    r.line(&format!(
        "{:>8} | {:>12} {:>10} | {:>12} {:>10} | paper (TP8 / CP2)",
        "context", "TP8 TTFT", "TTIT", "CP2 TTFT", "TTIT"
    ));
    let mut rows = Vec::new();
    for (ctx, p_tp_ttft, p_tp_ttit, p_cp_ttft, p_cp_ttit) in paper {
        let tp_ttft = tp::tp_prefill(&m, &hw, 1, ctx).ttft_ms();
        let tp_ttit = tp::tp_ttit_s(&m, &hw, 1, ctx, 1) * 1e3;
        let cp_ttft = prefill::cp_full_prefill_s(&m, &hw, 2, ctx) * 1e3;
        let cp_ttit = decode::cp_ttit_s(&m, &hw, 2, ctx, 1) * 1e3;
        r.line(&format!(
            "{ctx:>8} | {tp_ttft:>10.0}ms {tp_ttit:>8.1}ms | {cp_ttft:>10.0}ms {cp_ttit:>8.1}ms | {p_tp_ttft:.0}/{p_tp_ttit:.1} vs {p_cp_ttft:.0}/{p_cp_ttit:.1}"
        ));
        rows.push(serde_json::json!({
            "ctx": ctx,
            "tp8_ttft_ms": tp_ttft, "tp8_ttit_ms": tp_ttit,
            "cp2_ttft_ms": cp_ttft, "cp2_ttit_ms": cp_ttit,
        }));
    }
    r.record("table6", serde_json::Value::Array(rows));
}

fn table7(r: &mut Report) {
    r.section("Table 7: TTFT / TTIT across parallelizations (128K, batch 1)");
    let hw = HardwareSpec::gtt();
    let m = model();
    let mut rows = Vec::new();
    let configs: [(&str, bool, usize, f64, f64); 5] = [
        ("CP1+TP8", true, 1, 42010.0, 46.26),
        ("CP2+TP8", true, 2, 21042.0, 60.23),
        ("TP16", false, 2, 29917.0, 39.52),
        ("CP4+TP8", true, 4, 10950.0, 71.31),
        ("TP32", false, 4, 19841.0, 47.3),
    ];
    r.line(&format!(
        "{:>9} | {:>11} {:>9} | paper",
        "config", "TTFT", "TTIT"
    ));
    for (name, is_cp, n, p_ttft, p_ttit) in configs {
        let (ttft, ttit) = if is_cp {
            (
                prefill::cp_full_prefill_s(&m, &hw, n, 128_000) * 1e3,
                decode::cp_ttit_s(&m, &hw, n, 128_000, 1) * 1e3,
            )
        } else {
            (
                tp::tp_prefill(&m, &hw, n, 128_000).ttft_ms(),
                tp::tp_ttit_s(&m, &hw, n, 128_000, 1) * 1e3,
            )
        };
        r.line(&format!(
            "{name:>9} | {ttft:>9.0}ms {ttit:>7.1}ms | {p_ttft:.0} / {p_ttit}"
        ));
        rows.push(serde_json::json!({
            "config": name, "ttft_ms": ttft, "ttit_ms": ttit,
            "paper_ttft_ms": p_ttft, "paper_ttit_ms": p_ttit,
        }));
    }
    r.record("table7", serde_json::Value::Array(rows));
}

fn table8(r: &mut Report) {
    r.section("Table 8: decode attention scaling with CP hosts (in us)");
    let hw = HardwareSpec::gtt();
    let m = model();
    let mut rows = Vec::new();
    for (ctx, batch) in [(128_000usize, 1usize), (32_000, 4)] {
        r.line(&format!("  context {ctx}, batch {batch}:"));
        r.line(&format!(
            "{:>22} | {:>8} {:>8} {:>8}",
            "", "TP8", "CP2", "CP4"
        ));
        let b: Vec<_> = [1usize, 2, 4]
            .iter()
            .map(|&n| decode::cp_decode_attn(&m, &hw, n, ctx, batch))
            .collect();
        let field = |f: fn(&decode::DecodeAttnBreakdown) -> f64| -> String {
            b.iter()
                .map(|x| format!("{:>8.1}", f(x)))
                .collect::<Vec<_>>()
                .join(" ")
        };
        r.line(&format!(
            "{:>22} | {}",
            "effective context",
            b.iter()
                .map(|x| format!("{:>8}", x.effective_ctx))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        r.line(&format!(
            "{:>22} | {}",
            "individual attn op",
            field(|x| x.attn_op_us)
        ));
        r.line(&format!(
            "{:>22} | {}",
            "attn (whole ring loop)",
            field(|x| x.attn_loop_us)
        ));
        r.line(&format!(
            "{:>22} | {}",
            "SendRecv",
            field(|x| x.sendrecv_us)
        ));
        r.line(&format!("{:>22} | {}", "All2All", field(|x| x.all2all_us)));
        r.line(&format!(
            "{:>22} | {}",
            "whole pass-Q",
            field(|x| x.whole_us)
        ));
        for (n, x) in [1, 2, 4].iter().zip(&b) {
            rows.push(serde_json::json!({
                "ctx": ctx, "batch": batch, "nodes": n,
                "attn_op_us": x.attn_op_us, "attn_loop_us": x.attn_loop_us,
                "sendrecv_us": x.sendrecv_us, "all2all_us": x.all2all_us,
                "whole_us": x.whole_us,
            }));
        }
    }
    r.line("  paper anchors @128K/B1: TP8 38.9; CP2 attn 22.0 / SR 32.3 / A2A 81.1 / whole 157.7; CP4 whole 238.6");
    r.record("table8", serde_json::Value::Array(rows));
}

fn table9(r: &mut Report) {
    r.section("Table 9: Llama3 405B configuration");
    let m = model();
    r.line(&format!("  layers              {:>8}", m.n_layers));
    r.line(&format!("  model dim (D)       {:>8}", m.model_dim));
    r.line(&format!("  FFN dim             {:>8}", m.ffn_dim));
    r.line(&format!("  attention heads     {:>8}", m.n_heads));
    r.line(&format!("  KV heads            {:>8}", m.n_kv_heads));
    r.line(&format!("  parameters          {:>8.0e}", m.params));
    r.record("table9", serde_json::to_value(&m).unwrap());
}

fn fig10(r: &mut Report) {
    r.section("Figure 10 + Appendix D: empirical heuristic fit");
    let ctx = SystemContext::llama3_405b_gtt(4);
    let grid = heuristic_fit_grid(
        &(7..18).map(|l| 1usize << l).collect::<Vec<_>>(),
        &[1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128],
        1 << 20,
    );
    let (alpha, beta, gamma) = fit_empirical(&ctx, &grid);
    let fitted = HeuristicKind::Empirical { alpha, beta, gamma };
    r.line(&format!(
        "  refit on this system: h = {alpha:.3}*ln(T) + {beta:.3}*ln(miss) + {gamma:.3}"
    ));
    r.line("  paper's testbed fit:  h = -1.059*ln(T) + 1.145*ln(miss) + 12.112");
    for (name, kind) in [
        ("Algorithm 1", HeuristicKind::Threshold),
        ("Algorithm 5", HeuristicKind::All2AllAware),
        ("empirical (refit)", fitted),
        ("empirical (paper constants)", PAPER_EMPIRICAL),
    ] {
        r.line(&format!(
            "  accuracy vs oracle: {name:<28} {:>5.1}%",
            100.0 * selection_accuracy(kind, &ctx, &grid)
        ));
    }
    r.line("  (paper: misclassified points are those with <1% difference between strategies)");
    r.record(
        "fig10",
        serde_json::json!({"alpha": alpha, "beta": beta, "gamma": gamma, "grid_points": grid.len()}),
    );
}

fn mfu_report(r: &mut Report) {
    r.section("Appendix A: MFU for 1M-token prefill on 128 GPUs");
    let hw = HardwareSpec::gtt();
    let s = prefill::cp_full_prefill_s(&model(), &hw, 16, 1_000_000);
    let rep = mfu::mfu_report(&model(), &hw, 1_000_000, 128, s);
    r.line(&format!("  predicted TTFT: {s:.1}s (paper: 77s)"));
    r.line(&format!(
        "  GEMM {:.2e} + ATTN {:.2e} = {:.2e} FLOPs (paper: 8.1e17 + 4.1e18 = 4.9e18)",
        rep.gemm_flops, rep.attn_flops, rep.total_flops
    ));
    r.line(&format!(
        "  achieved {:.0} TF/s/GPU, {:.0}% parallel efficiency, {:.0}% MFU (paper: 502, 93%, ~63%)",
        rep.achieved_tflops_per_gpu,
        rep.parallelization_efficiency * 100.0,
        rep.mfu * 100.0
    ));
    r.record("mfu", serde_json::to_value(&rep).unwrap());
}

fn capacity(r: &mut Report) {
    r.section("KV-cache capacity scaling (the paper's distribution motivation)");
    let hw = HardwareSpec::gtt();
    let b = cp_perf::memory::memory_budget(&model(), &hw, 1);
    r.line(&format!(
        "  per GPU: {:.1} GB weights, {:.1} GB KV budget, {:.1} KB/token",
        b.weights_per_gpu / 1e9,
        b.kv_budget_per_gpu / 1e9,
        b.kv_per_token_per_gpu / 1e3
    ));
    r.line(&format!(
        "{:>7} | {:>14} {:>14}",
        "nodes", "max ctx B=1", "max ctx B=4"
    ));
    let mut rows = Vec::new();
    for n in [1usize, 2, 4, 8, 16] {
        let c1 = cp_perf::memory::max_context(&model(), &hw, n, 1);
        let c4 = cp_perf::memory::max_context(&model(), &hw, n, 4);
        r.line(&format!("{n:>7} | {c1:>14} {c4:>14}"));
        rows.push(serde_json::json!({"nodes": n, "max_ctx_b1": c1, "max_ctx_b4": c4}));
    }
    r.line(&format!(
        "  1M context needs >= {} nodes by memory alone (8-16 used for latency)",
        cp_perf::memory::min_nodes_for(&model(), &hw, 1_000_000, 1)
    ));
    r.record("capacity", serde_json::Value::Array(rows));
}

fn disaggregation(r: &mut Report) {
    r.section("Co-located vs disaggregated serving (§4.3's conclusion, quantified)");
    use cp_perf::serve::{simulate, uniform_trace, Deployment};
    let hw = HardwareSpec::gtt();
    let trace = uniform_trace(8, 5.0, 64_000, 800);
    let colo = simulate(&model(), &hw, Deployment::Colocated { n_nodes: 4 }, &trace);
    let disagg = simulate(
        &model(),
        &hw,
        Deployment::Disaggregated {
            prefill_nodes: 4,
            decode_replicas: 4,
        },
        &trace,
    );
    r.line("  trace: 8 requests of 64K prompt + 800 decode tokens, 5 s apart");
    for (name, rep) in [
        ("co-located CP4", &colo),
        ("disaggregated CP4+4xTP8", &disagg),
    ] {
        r.line(&format!(
            "  {name:<26} mean TTFT {:>7.1}s | max TTFT {:>7.1}s | TTIT {:>5.1}ms | makespan {:>6.1}s",
            rep.mean_ttft_s,
            rep.max_ttft_s,
            rep.mean_ttit_s * 1e3,
            rep.makespan_s
        ));
    }
    r.record(
        "disaggregation",
        serde_json::json!({"colocated": colo, "disaggregated": disagg}),
    );
}

fn sharding(r: &mut Report) {
    r.section("Sharding strategies: 2N-chunk vs striped vs naive (§3.5.1 ablation)");
    use cp_perf::event::{attn_matrix_from_profile, simulate_ring};
    use cp_sharding::{naive_contiguous_positions, ShardPlan, StripedPlan};
    let (t, n) = (128_000usize, 8usize);
    let iter =
        prefill::ring_iter_costs(&model(), &HardwareSpec::gtt(), n, t, 0, RingVariant::PassKv);
    let chunked = ShardPlan::new(t, n).expect("valid plan");
    let striped = StripedPlan::new(t, n, 1).expect("valid plan");
    let profiles: Vec<(&str, Vec<u128>, usize)> = vec![
        (
            "2N-chunk (paper)",
            (0..n).map(|r| chunked.causal_pairs_for(r)).collect(),
            2,
        ),
        (
            "striped (Brandon et al.)",
            (0..n).map(|r| striped.causal_pairs_for(r)).collect(),
            striped.fragments_for(0),
        ),
        (
            "naive contiguous",
            (0..n)
                .map(|r| {
                    naive_contiguous_positions(t, n, r)
                        .iter()
                        .map(|&p| (p + 1) as u128)
                        .sum()
                })
                .collect(),
            1,
        ),
    ];
    r.line(&format!(
        "{:>26} | {:>10} {:>12} {:>10}",
        "strategy", "imbalance", "ring slowdn", "fragments"
    ));
    let mut rows = Vec::new();
    let mut baseline = 0.0;
    for (i, (name, work, fragments)) in profiles.iter().enumerate() {
        let max = *work.iter().max().expect("nonempty") as f64;
        let mean = work.iter().map(|&w| w as f64).sum::<f64>() / n as f64;
        let m = attn_matrix_from_profile(work, iter.attn_us);
        let makespan = simulate_ring(&m, iter.sendrecv_us).makespan_us;
        if i == 0 {
            baseline = makespan;
        }
        r.line(&format!(
            "{name:>26} | {:>9.3}x {:>11.2}x {:>10}",
            max / mean,
            makespan / baseline,
            fragments
        ));
        rows.push(serde_json::json!({
            "strategy": name, "imbalance": max / mean,
            "ring_slowdown": makespan / baseline, "fragments": fragments,
        }));
    }
    r.line("  (2N-chunk: balanced AND 2 contiguous runs per rank; striped balances but");
    r.line("   fragments positions; naive contiguous pays ~1.9x ring slowdown at CP8)");
    r.record("sharding", serde_json::Value::Array(rows));
}

fn fullstack(r: &mut Report) {
    r.section("Full-model serving exactness (multi-layer, multi-turn, distributed KV)");
    use cp_model::{Transformer, TransformerConfig};
    use cp_serve::{ReferenceSession, TransformerEngine};
    let m = Transformer::new(&TransformerConfig::small(), 2025);
    let trace: Vec<Vec<u32>> = vec![
        (0..64).collect(), // document prefill
        vec![500],         // decode
        vec![501],         // decode
        vec![7, 8, 9],     // follow-up prefill
        vec![502],         // decode
    ];
    let mut worst = 0.0f32;
    for n in [1usize, 2, 4] {
        let mut reference = ReferenceSession::new(m.clone());
        let mut engine = TransformerEngine::new(m.clone(), n).expect("engine");
        for (i, chunk) in trace.iter().enumerate() {
            let out = if chunk.len() == 1 && i > 0 {
                engine.decode(chunk[0]).expect("decode")
            } else {
                engine.prefill(chunk).expect("prefill")
            };
            let expected = reference.process(chunk).expect("reference");
            worst = worst.max(out.activations.max_abs_diff(&expected).expect("same shape"));
        }
    }
    r.line(&format!(
        "  4-layer transformer, 5-step multi-turn trace, CP1/CP2/CP4: max |err| = {worst:.2e}"
    ));
    r.line("  (full layer stack + persistent per-layer distributed caches + rotating decode)");
    r.record("fullstack", serde_json::json!({"worst_abs_err": worst}));
}

fn trace(r: &mut Report) {
    r.section("Ring-pipeline traces (chrome://tracing JSON, Table 5 configs)");
    use cp_perf::trace::trace_ring;
    let hw = HardwareSpec::gtt();
    let n = 4;
    let mut rows = Vec::new();
    for (label, t) in [
        ("miss2.5pct_passkv", 3_200usize),
        ("miss10pct_passkv", 12_800),
    ] {
        let p = 128_000 - t;
        let it = prefill::ring_iter_costs(&model(), &hw, n, t, p, RingVariant::PassKv);
        let matrix = vec![vec![it.attn_us; n]; n];
        let tr = trace_ring(&matrix, it.sendrecv_us);
        let path = format!("ring_trace_{label}.json");
        std::fs::write(&path, tr.to_chrome_json()).expect("write trace");
        let exposed = tr.exposed_us(0);
        r.line(&format!(
            "  {label:<22} makespan {:>7.0}us | exposed comm {:>6.0}us/rank | wrote {path}",
            tr.makespan_us, exposed
        ));
        rows.push(serde_json::json!({
            "label": label, "makespan_us": tr.makespan_us, "exposed_us": exposed,
        }));
    }
    r.line("  (open in chrome://tracing or Perfetto: at 2.5% miss the SendRecv lane");
    r.line("   outruns the compute lane — the exposed gap Table 5 quantifies; at 10%");
    r.line("   it hides completely)");

    // Measured trace: the same exporter fed from the thread fabric's
    // recorded timeline (per-collective wall time + time_compute spans) of
    // a real CP4 pass-KV prefill, instead of the cost model.
    {
        use cp_attention::{AttentionParams, PAD};
        use cp_core::ring::{ring_pass_kv_prefill, run_ring};
        use cp_core::trace::measured_ring_trace;
        use cp_core::{LocalSeq, RingSpec};
        use cp_sharding::ShardPlan;

        let t = 2048;
        let shape = GqaShape::new(8, 2, 16).expect("valid shape");
        let params = AttentionParams::for_shape(shape);
        let mut rng = DetRng::new(2025);
        let q = rng.tensor(&[t, 8, 16]);
        let k = rng.tensor(&[t, 2, 16]);
        let v = rng.tensor(&[t, 2, 16]);
        let plan = ShardPlan::new(t, n).expect("plan");
        let max_len = (0..n).map(|rank| plan.tokens_for(rank)).max().unwrap();
        let locals: Vec<Vec<LocalSeq>> = (0..n)
            .map(|rank| {
                let positions = plan.positions_for(rank);
                let mut kv_pos = positions.clone();
                kv_pos.resize(max_len, PAD);
                vec![LocalSeq {
                    q: q.gather_dim0(&positions).expect("gather"),
                    q_pos: positions.clone(),
                    k: k.gather_dim0(&positions)
                        .expect("gather")
                        .pad_dim0(max_len, 0.0)
                        .expect("pad"),
                    v: v.gather_dim0(&positions)
                        .expect("gather")
                        .pad_dim0(max_len, 0.0)
                        .expect("pad"),
                    kv_pos,
                }]
            })
            .collect();
        let (_, report) = run_ring(n, |comm| {
            ring_pass_kv_prefill(comm, &params, &RingSpec::default(), &locals[comm.rank()])
        })
        .expect("measured prefill");
        let tr = measured_ring_trace(&report);
        let path = "ring_trace_measured_passkv.json";
        std::fs::write(path, tr.to_chrome_json()).expect("write trace");
        r.line(&format!(
            "  measured_cp4_passkv    makespan {:>7.0}us | {} timeline events | wrote {path}",
            tr.makespan_us,
            tr.events.len()
        ));
        r.line("  (measured lanes: fabric collective wall time + attend/merge compute");
        r.line("   spans recorded by the communicator, same JSON schema as the model)");
        rows.push(serde_json::json!({
            "label": "measured_cp4_passkv",
            "makespan_us": tr.makespan_us,
            "events": tr.events.len(),
        }));
    }
    r.record("trace", serde_json::Value::Array(rows));
}

fn exactness(r: &mut Report) {
    r.section("Exactness: distributed engine vs single-device attention (losslessness)");
    let shape = GqaShape::new(8, 2, 16).expect("valid shape");
    let mut worst = 0.0f32;
    for n in [1usize, 2, 4] {
        let eng = ContextParallelEngine::new(EngineConfig::new(n, shape)).expect("engine");
        let mut rng = DetRng::new(7);
        let t = 192;
        let q = rng.tensor(&[t, 8, 16]);
        let k = rng.tensor(&[t, 2, 16]);
        let v = rng.tensor(&[t, 2, 16]);
        for variant in [RingVariant::PassKv, RingVariant::PassQ] {
            let mut e2 = ContextParallelEngine::new(EngineConfig::new(n, shape)).expect("engine");
            let out = e2
                .prefill_batch(
                    &[PrefillRequest {
                        seq: SeqId(0),
                        q: &q,
                        k: &k,
                        v: &v,
                    }],
                    Some(variant),
                )
                .expect("prefill")
                .remove(0);
            let pos: Vec<usize> = (0..t).collect();
            let reference =
                single_device_prefill(&q, &k, &v, eng.params(), &pos, &pos).expect("reference");
            let err = out
                .output
                .out
                .max_abs_diff(&reference.out)
                .expect("same shape");
            worst = worst.max(err);
            r.line(&format!("  CP{n} {variant}: max |err| = {err:.2e}"));
        }
        let _ = eng;
    }
    r.line(&format!(
        "  worst-case deviation: {worst:.2e} (f32 accumulation noise only)"
    ));
    r.record("exactness", serde_json::json!({"worst_abs_err": worst}));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_dir: Option<String> = None;
    let mut experiments: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--json" {
            json_dir = it.next();
            if json_dir.is_none() {
                eprintln!("--json requires a directory argument");
                std::process::exit(2);
            }
        } else {
            experiments.push(a);
        }
    }
    if experiments.is_empty() || experiments.iter().any(|e| e == "all") {
        experiments = [
            "table2",
            "table3",
            "fig6a",
            "fig6b",
            "fig7",
            "fig8",
            "table4",
            "table5",
            "table6",
            "table7",
            "table8",
            "table9",
            "fig10",
            "mfu",
            "capacity",
            "disaggregation",
            "sharding",
            "fullstack",
            "trace",
            "exactness",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    let mut r = Report::default();
    for e in &experiments {
        match e.as_str() {
            "table2" => table2(&mut r),
            "table3" => table3(&mut r),
            "fig6a" => fig6(&mut r, false),
            "fig6b" => fig6(&mut r, true),
            "fig7" => fig7(&mut r),
            "fig8" => fig8(&mut r),
            "table4" | "fig9" => table4_and_fig9(&mut r),
            "table5" => table5(&mut r),
            "table6" => table6(&mut r),
            "table7" => table7(&mut r),
            "table8" => table8(&mut r),
            "table9" => table9(&mut r),
            "fig10" => fig10(&mut r),
            "mfu" => mfu_report(&mut r),
            "capacity" => capacity(&mut r),
            "disaggregation" => disaggregation(&mut r),
            "sharding" => sharding(&mut r),
            "fullstack" => fullstack(&mut r),
            "trace" => trace(&mut r),
            "exactness" => exactness(&mut r),
            other => {
                eprintln!("unknown experiment `{other}`; see --help in the source header");
                std::process::exit(2);
            }
        }
    }
    print!("{}", r.text);

    if let Some(dir) = json_dir {
        std::fs::create_dir_all(&dir).expect("create json dir");
        for (key, value) in &r.json {
            let path = format!("{dir}/{key}.json");
            std::fs::write(&path, serde_json::to_string_pretty(value).unwrap())
                .expect("write json");
        }
        eprintln!("wrote {} JSON files to {dir}", r.json.len());
    }
}
