//! `cpbench` — the repo's benchmark of the serving stack.
//!
//! ```text
//! cpbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
//! cpbench cmp <parent> <change> [--benchmark BENCHMARK.json]
//! ```
//!
//! A run sets the workload up (at least three times; `setup_s` is the median), runs
//! its timed phase for `--seconds`, checks outputs against the
//! single-device reference, and prints one JSON object as the last line of
//! its standard output: with `--trace 0` the end-to-end metrics, with
//! `--trace 1` the per-layer metrics (spans around every call the benchmark
//! makes into a layer, then direct probes of each layer at the workload's
//! shapes). Each workload runs in a process of its own, so `peak_rss_mib`
//! is that workload's. `README.md` beside this package has the definitions.

mod engine_loop;
mod gen;
mod probes;
mod report;
mod sched_loop;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use serde_json::{json, Value};

use gen::hex;
use report::{Finding, END_TO_END, PER_LAYER};
use stats::{median, ratio, tail};
use trace::Tracer;
use workload::{Outcome, Params, ProbeShapes, CP, POOL_THREADS, WORKLOADS};

/// Set-ups per run; `setup_s` is their median. A cheap set-up repeats
/// until it has filled a second, so that its median is as steady as a
/// long one's.
const SETUP_REPS_MIN: usize = 3;
const SETUP_REPS_MAX: usize = 15;
const SETUP_FILL_S: f64 = 1.0;
/// Where a run leaves its result file and Chrome trace unless told otherwise.
const DEFAULT_OUT: &str = "cpbench/out";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("cmp") => cmp_command(&args[1..]),
        _ => run_command(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("cpbench: {e}");
            ExitCode::from(2)
        }
    }
}

struct RunArgs {
    workload: String,
    params: Params,
    trace: bool,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 20.0f64, false);
    let (mut smoke, mut out) = (false, PathBuf::from(DEFAULT_OUT));
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or(format!("--workload is required; one of {WORKLOADS:?}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    if seed >= 1 << 32 {
        return Err("--seed must be below 2^32".to_string());
    }
    Ok(RunArgs {
        workload,
        params: Params {
            seed,
            seconds,
            smoke,
        },
        trace,
        out,
    })
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run(args)?;

    let mut setup_s = Vec::new();
    let mut w = None;
    while setup_s.len() < SETUP_REPS_MIN
        || (setup_s.len() < SETUP_REPS_MAX && setup_s.iter().sum::<f64>() < SETUP_FILL_S)
    {
        drop(w.take());
        let t = Instant::now();
        w = Some(workload::setup(&a.workload, &a.params)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.expect("SETUP_REPS_MIN > 0");

    let mut tracer = Tracer::new(a.trace);
    let mut outcome = w.run(a.params.seconds, &mut tracer);

    let mut e2e: BTreeMap<&'static str, f64> = BTreeMap::new();
    let tbt_tail = tail(&outcome.tbt_s, outcome.tail_q);
    e2e.insert("setup_s", median(&setup_s));
    e2e.insert("ttft_p50_s", median(&outcome.ttft_s));
    e2e.insert("tbt_p50_s", median(&outcome.tbt_s));
    e2e.insert("tbt_tail_s", tbt_tail.map_or(0.0, |t| t.1));
    e2e.insert("tok_per_s", outcome.tok_per_s);

    let mut layer = std::mem::take(&mut outcome.layer);
    layer.extend(outcome.counts.iter().map(|(k, v)| (*k, *v)));
    if a.trace {
        let t = Instant::now();
        let shapes = w.probe_shapes();
        layer.extend(probes::run(&shapes, a.params.seed)?);
        let drained = sched_loop::page_pressure_canary(a.params.seed);
        layer.insert("sched.page_pressure_ok", f64::from(u8::from(drained)));
        derive_bench_metrics(&mut layer, &outcome, &shapes, &tracer);
        eprintln!("cpbench: probes took {:.2} s", t.elapsed().as_secs_f64());
    }
    // Last, so that it is the peak of everything the process did.
    e2e.insert("peak_rss_mib", peak_rss_mib()?);

    let correct = outcome.correct && outcome.failed == 0 && outcome.attempted > 0;
    let file = json!({
        "schema": 1,
        "workload": a.workload.as_str(),
        "seed": a.params.seed,
        "seconds": a.params.seconds,
        "smoke": a.params.smoke,
        "traced": a.trace,
        "env": {
            "nproc": std::thread::available_parallelism().map_or(0, usize::from),
            "cp": CP,
            "pool_threads": POOL_THREADS,
            "commit": std::env::var("CPBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string()),
        },
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "input_digest": hex(w.input_digest()),
        "output_digest": hex(outcome.output_digest),
        "digest_complete": outcome.digest_complete,
        "samples": {
            "setup": setup_s.len(),
            "ttft": outcome.ttft_s.len(),
            "tbt": outcome.tbt_s.len(),
            "tbt_tail_q": tbt_tail.map_or(0.0, |t| t.0),
            "wall_s": outcome.wall_s,
            "tokens": outcome.tokens,
            "spans": tracer.spans().len(),
        },
        "counts": Value::Object(outcome.counts.iter().map(|(k, v)| (k.to_string(), json!(*v))).collect()),
        "end_to_end": report::metrics_object(&END_TO_END, &e2e),
        "per_layer": if a.trace { report::metrics_object(&PER_LAYER, &layer) } else { Value::Null },
    });
    write_outputs(&a, &file, &tracer);

    let mut tables = vec![("end to end", &END_TO_END[..], &e2e)];
    if a.trace {
        tables.push(("per layer", &PER_LAYER[..], &layer));
    }
    for (title, table, values) in tables {
        eprintln!("cpbench: {} — {title}", a.workload);
        for (name, unit) in table {
            let v = values.get(name).copied().unwrap_or(0.0);
            // Six significant digits, whatever the magnitude.
            let digits = if v == 0.0 {
                0
            } else {
                (5 - v.abs().log10().floor() as i32).clamp(0, 12) as usize
            };
            eprintln!("  {name:<34} {v:>18.digits$} {unit}");
        }
    }
    if let Some((q, _)) = tbt_tail {
        if q != outcome.tail_q {
            eprintln!(
                "cpbench: tbt_tail_s is p{:.0}: too few samples ({}) for p{:.0}",
                q * 100.0,
                outcome.tbt_s.len(),
                outcome.tail_q * 100.0
            );
        }
    }

    let metrics = if a.trace {
        &file["per_layer"]
    } else {
        &file["end_to_end"]
    };
    let line = json!({
        "correct": correct,
        "attempted": outcome.attempted.max(1),
        "failed": outcome.failed,
        "metrics": metrics.clone(),
    });
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(ExitCode::SUCCESS)
}

/// The metrics about the decomposition itself, and the shares that set a
/// probe against the traced calls.
fn derive_bench_metrics(
    layer: &mut BTreeMap<&'static str, f64>,
    outcome: &Outcome,
    shapes: &ProbeShapes,
    tracer: &Tracer,
) {
    let get = |l: &BTreeMap<&'static str, f64>, k: &str| l.get(k).copied().unwrap_or(0.0);
    let calls = outcome.calls;
    // The tracer's cost is what it spends per span, times the spans.
    let overhead = Tracer::span_cost_s() * tracer.spans().len() as f64;
    layer.insert(
        "bench.trace_overhead_share",
        ratio(overhead, outcome.wall_s),
    );

    let fixed = get(layer, "comm.run_fixed_s") * calls.fabric_runs_per_op;
    layer.insert("comm.run_fixed_share", ratio(fixed, calls.op_p50_s));

    // A call launches the fabric once and runs, per layer, one distributed
    // attention operation (whose probe launched a fabric of its own) and
    // the rest of the block on the rank's rows.
    let layers = shapes.cfg.n_layers as f64;
    let run_fixed = get(layer, "comm.run_fixed_s");
    let per_call = |core_op: &str, rest: &str| {
        run_fixed + layers * ((get(layer, core_op) - run_fixed).max(0.0) + get(layer, rest))
    };
    let explained = calls.full_prefills as f64
        * per_call("core.full_prefill_s", "model.block_nonattn_s")
        + calls.partial_prefills as f64
            * per_call("core.partial_prefill_s", "model.block_nonattn_s")
        + calls.decodes as f64 * per_call("core.decode_step_s", "model.block_nonattn_decode_s");
    layer.insert("bench.explained_share", ratio(explained, calls.wall_s));
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".to_string())
}

/// Writes the result file and, traced, the Chrome trace. A run whose
/// output directory cannot be written still reports on standard output.
fn write_outputs(a: &RunArgs, file: &Value, tracer: &Tracer) {
    let write = |path: &Path, text: String| {
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cpbench: cannot write {}: {e}", path.display());
        }
    };
    if let Err(e) = std::fs::create_dir_all(&a.out) {
        eprintln!("cpbench: cannot create {}: {e}", a.out.display());
        return;
    }
    let suffix = if a.trace { ".traced" } else { "" };
    let text = serde_json::to_string_pretty(file).unwrap_or_default();
    write(
        &a.out.join(format!("{}{suffix}.json", a.workload)),
        text + "\n",
    );
    if a.trace {
        write(
            &a.out.join(format!("{}.trace.json", a.workload)),
            tracer.chrome_trace(&a.workload),
        );
    }
}

fn cmp_command(args: &[String]) -> Result<ExitCode, String> {
    let mut paths = Vec::new();
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark" {
            benchmark = PathBuf::from(it.next().ok_or("--benchmark needs a path")?);
        } else {
            paths.push(PathBuf::from(arg));
        }
    }
    let [parent, change] = &paths[..] else {
        return Err(
            "usage: cpbench cmp <parent> <change> [--benchmark BENCHMARK.json]".to_string(),
        );
    };
    let benchmark = report::read_json(&benchmark)?;

    // Two result files, or two directories holding `<workload>.json` each.
    let pairs: Vec<(PathBuf, PathBuf)> = if parent.is_dir() {
        WORKLOADS
            .iter()
            .map(|w| {
                (
                    parent.join(format!("{w}.json")),
                    change.join(format!("{w}.json")),
                )
            })
            .filter(|(a, b)| a.exists() || b.exists())
            .collect()
    } else {
        vec![(parent.clone(), change.clone())]
    };
    if pairs.is_empty() {
        return Err(format!("no result files in {}", parent.display()));
    }
    let mut worst = ExitCode::SUCCESS;
    for (pa, pb) in pairs {
        let findings = report::cmp(
            &report::read_json(&pa)?,
            &report::read_json(&pb)?,
            &benchmark,
        );
        if findings.is_empty() {
            println!("ok        {} vs {}", pa.display(), pb.display());
        }
        for f in findings {
            match f {
                Finding::Refused(m) => {
                    println!("refused   {m}");
                    return Ok(ExitCode::from(2));
                }
                Finding::Mismatch(m) => println!("mismatch  {m}"),
                Finding::Regression(m) => println!("regressed {m}"),
            }
            worst = ExitCode::from(1);
        }
    }
    Ok(worst)
}
