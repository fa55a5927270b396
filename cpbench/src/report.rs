//! The metric tables, the result file of a run, and `cmp` of two results.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::{json, Value};

/// `(name, unit)` of every end-to-end metric, as `BENCHMARK.json` lists
/// them (a test holds the two together).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ttft_p50_s", "s"),
    ("tbt_p50_s", "s"),
    ("tbt_tail_s", "s"),
    ("tok_per_s", "tokens/s"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of every per-layer metric. A workload that does not
/// exercise a layer from where the benchmark can see it reports 0 for it.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("sched.tick_p50_s", "s"),
    ("sched.tick_p99_s", "s"),
    ("sched.ticks", "count"),
    ("sched.idle_ticks", "count"),
    ("sched.batch_mean", "count"),
    ("sched.prefill_tok_per_tick", "tokens"),
    ("sched.queue_wait_p50_s", "s"),
    ("sched.queue_wait_p95_s", "s"),
    ("sched.ttft_p95_s", "s"),
    ("sched.gen_lag_p95_s", "s"),
    ("sched.ttft_p50_ticks", "count"),
    ("sched.ttft_p99_ticks", "count"),
    ("sched.evictions", "count"),
    ("sched.tick_drift_ratio", "ratio"),
    ("sched.goodput_share", "share"),
    ("sched.page_pressure_ok", "count"),
    ("engine.prefill_call_p50_s", "s"),
    ("engine.decode_call_p50_s", "s"),
    ("engine.decode_call_p99_s", "s"),
    ("engine.session_open_close_s", "s"),
    ("engine.pass_q_share", "share"),
    ("comm.wire_bytes_per_tok", "B"),
    ("comm.send_recv_calls_per_op", "count"),
    ("comm.all_to_all_calls_per_op", "count"),
    ("comm.wall_s", "s"),
    ("comm.exposed_s", "s"),
    ("comm.overlap_share", "share"),
    ("comm.run_fixed_s", "s"),
    ("comm.run_fixed_share", "share"),
    ("comm.hop_s", "s"),
    ("core.full_prefill_s", "s"),
    ("core.partial_prefill_s", "s"),
    ("core.decode_step_s", "s"),
    ("core.ring_self_s", "s"),
    ("attention.prefill_tile_s", "s"),
    ("attention.prefill_gflop_s", "GFLOP/s"),
    ("attention.decode_s", "s"),
    ("attention.decode_gib_s", "GiB/s"),
    ("tensor.gemm_prefill_s", "s"),
    ("tensor.gemm_decode_s", "s"),
    ("tensor.gemm_gflop_s", "GFLOP/s"),
    ("model.block_nonattn_s", "s"),
    ("model.block_nonattn_decode_s", "s"),
    ("kvcache.append_tok_s", "s"),
    ("kvcache.view_s", "s"),
    ("kvcache.free_s", "s"),
    ("kvcache.pages_in_use_peak", "count"),
    ("kvcache.page_fill_share", "share"),
    ("sharding.plan_s", "s"),
    ("bench.trace_overhead_share", "share"),
    ("bench.explained_share", "share"),
];

/// The `metrics` object of the result line: every listed metric by name,
/// with its unit; one the run did not produce reads 0.
pub fn metrics_object(table: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> Value {
    let mut m = serde_json::Map::new();
    for &(name, unit) in table {
        let value = values.get(name).copied().unwrap_or(0.0);
        m.insert(name.to_string(), json!({"value": value, "unit": unit}));
    }
    Value::Object(m)
}

/// One regression, mismatch or refusal found by [`cmp`].
#[derive(Debug, PartialEq)]
pub enum Finding {
    /// The two results are not of the same experiment; nothing was compared.
    Refused(String),
    /// A digest or an exact count differs between runs that must agree.
    Mismatch(String),
    /// An end-to-end metric got worse by more than its bound.
    Regression(String),
}

fn num(v: &Value, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(v, |v, k| v.get(k))?.as_f64()
}

/// Compares result `b` (the change) against result `a` (the parent) under
/// the bounds of `benchmark` (the parsed `BENCHMARK.json`).
pub fn cmp(a: &Value, b: &Value, benchmark: &Value) -> Vec<Finding> {
    let mut findings = Vec::new();
    for key in ["workload", "seed", "seconds", "smoke", "input_digest"] {
        if a[key] != b[key] {
            findings.push(Finding::Refused(format!(
                "{key} differs: {:?} vs {:?}",
                a[key], b[key]
            )));
        }
    }
    if num(a, &["env", "nproc"]) != num(b, &["env", "nproc"]) {
        findings.push(Finding::Refused("nproc differs".to_string()));
    }
    if !findings.is_empty() {
        return findings;
    }
    let workload = a["workload"].as_str().unwrap_or("?");

    // Same inputs: outputs and exact counts must agree, where both runs
    // got through the fixed prefix they cover.
    let complete = |v: &Value| v["digest_complete"].as_bool() == Some(true);
    if complete(a) && complete(b) && a["output_digest"] != b["output_digest"] {
        findings.push(Finding::Mismatch(format!(
            "{workload}: output_digest {:?} vs {:?}",
            a["output_digest"], b["output_digest"]
        )));
    }
    if let (Some(ca), Some(cb)) = (a["counts"].as_object(), b["counts"].as_object()) {
        for (name, va) in ca {
            if let Some(vb) = cb.get(name) {
                if va != vb {
                    findings.push(Finding::Mismatch(format!(
                        "{workload}: count {name} {va:?} vs {vb:?}"
                    )));
                }
            }
        }
    }
    for (what, v) in [("parent", a), ("change", b)] {
        if v["correct"].as_bool() != Some(true) || num(v, &["failed"]) != Some(0.0) {
            findings.push(Finding::Mismatch(format!(
                "{workload}: the {what} run had wrong outputs or failures"
            )));
        }
    }

    for metric in benchmark["end_to_end"]
        .as_array()
        .map_or(&[][..], Vec::as_slice)
    {
        let (Some(name), Some(bound)) = (metric["name"].as_str(), metric["bound"].as_f64()) else {
            continue;
        };
        let (Some(pa), Some(pb)) = (
            num(a, &["end_to_end", name, "value"]),
            num(b, &["end_to_end", name, "value"]),
        ) else {
            continue;
        };
        let worse_by = if metric["better"] == "higher" {
            pa - pb
        } else {
            pb - pa
        };
        if worse_by > bound * pa.abs() {
            findings.push(Finding::Regression(format!(
                "{workload}: {name} {pa} -> {pb} is worse by {:.1}% (bound {:.1}%)",
                100.0 * worse_by / pa.abs(),
                100.0 * bound
            )));
        }
    }
    findings
}

pub fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(ttft: f64, tok: f64, digest: &str, batch_mean: f64) -> Value {
        json!({
            "workload": "serve_burst", "seed": 1, "seconds": 20, "smoke": false,
            "env": {"nproc": 2},
            "input_digest": "00aa", "output_digest": digest, "digest_complete": true,
            "correct": true, "failed": 0,
            "counts": {"sched.batch_mean": batch_mean},
            "end_to_end": {
                "ttft_p50_s": {"value": ttft, "unit": "s"},
                "tok_per_s": {"value": tok, "unit": "tokens/s"}
            }
        })
    }

    fn set(v: &mut Value, key: &str, value: Value) {
        let Value::Object(m) = v else {
            panic!("not an object")
        };
        m.insert(key.to_string(), value);
    }

    fn benchmark() -> Value {
        json!({"end_to_end": [
            {"name": "ttft_p50_s", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "tok_per_s", "unit": "tokens/s", "better": "higher", "bound": 0.07},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
        ]})
    }

    #[test]
    fn equal_runs_and_gains_pass() {
        let a = result(0.010, 9000.0, "d1", 6.5);
        assert_eq!(cmp(&a, &a, &benchmark()), vec![]);
        // Better in both directions, and worse but inside the bounds.
        assert_eq!(
            cmp(&a, &result(0.008, 9900.0, "d1", 6.5), &benchmark()),
            vec![]
        );
        assert_eq!(
            cmp(&a, &result(0.0109, 8400.0, "d1", 6.5), &benchmark()),
            vec![]
        );
    }

    #[test]
    fn a_metric_past_its_bound_is_a_regression_in_its_own_direction() {
        let a = result(0.010, 9000.0, "d1", 6.5);
        let slow = cmp(&a, &result(0.0111, 9000.0, "d1", 6.5), &benchmark());
        assert!(matches!(&slow[..], [Finding::Regression(m)] if m.contains("ttft_p50_s")));
        let less = cmp(&a, &result(0.010, 8300.0, "d1", 6.5), &benchmark());
        assert!(matches!(&less[..], [Finding::Regression(m)] if m.contains("tok_per_s")));
    }

    #[test]
    fn digests_and_counts_must_repeat() {
        let a = result(0.010, 9000.0, "d1", 6.5);
        let other = cmp(&a, &result(0.010, 9000.0, "d2", 6.5), &benchmark());
        assert!(matches!(&other[..], [Finding::Mismatch(m)] if m.contains("output_digest")));
        let count = cmp(&a, &result(0.010, 9000.0, "d1", 6.25), &benchmark());
        assert!(matches!(&count[..], [Finding::Mismatch(m)] if m.contains("sched.batch_mean")));
        // A run that did not reach the end of the digest's prefix is not compared on it.
        let mut short = result(0.010, 9000.0, "d2", 6.5);
        set(&mut short, "digest_complete", json!(false));
        assert_eq!(cmp(&a, &short, &benchmark()), vec![]);
    }

    #[test]
    fn different_experiments_are_refused_not_compared() {
        let a = result(0.010, 9000.0, "d1", 6.5);
        for (key, value) in [
            ("seed", json!(2)),
            ("input_digest", json!("00ab")),
            ("env", json!({"nproc": 4})),
        ] {
            let mut b = result(0.020, 100.0, "d9", 1.0);
            set(&mut b, key, value);
            let f = cmp(&a, &b, &benchmark());
            assert!(matches!(&f[..], [Finding::Refused(_)]), "{key}: {f:?}");
        }
    }

    #[test]
    fn a_failed_operation_fails_the_comparison() {
        let a = result(0.010, 9000.0, "d1", 6.5);
        let mut b = result(0.010, 9000.0, "d1", 6.5);
        set(&mut b, "failed", json!(1));
        assert!(matches!(
            &cmp(&a, &b, &benchmark())[..],
            [Finding::Mismatch(_)]
        ));
    }

    /// `BENCHMARK.json` and the tables above name the same metrics with the
    /// same units, in the same order, and the same four workloads.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let b = read_json(&path).unwrap();
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(&str, &str)> = b[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| (m["name"].as_str().unwrap(), m["unit"].as_str().unwrap()))
                .collect();
            assert_eq!(listed, table, "{key}");
        }
        let workloads: Vec<&str> = b["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, crate::workload::WORKLOADS);
    }
}
