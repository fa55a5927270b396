//! The two workloads that go through the continuous-batching scheduler:
//! `serve_open` (wall-clock open loop: single-turn requests arrive on a
//! Poisson schedule whatever the system does) and `serve_burst` (closed
//! loop: a fixed number of clients, each submitting its next multi-turn
//! conversation the tick after the previous one finished, on a model small
//! enough that the per-tick fixed cost is the tick).

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use cp_model::{Transformer, TransformerConfig};
use cp_serve::{ReferenceSession, SchedConfig, Scheduler, TickReport, TransformerEngine};
use cp_tensor::Tensor;
use cp_workload::{trace_token, Conversation, Turn};

use crate::gen::{
    log_uniform, short_chat, single_turn, stratified, uniform, windowed_arrivals, Fnv, SplitMix64,
    UnorderedDigest,
};
use crate::stats::{mean, median, ratio, tail_value};
use crate::trace::{Tracer, NO_REQUEST};
use crate::workload::{
    check_against, engine_for, OpCalls, Outcome, PagePeak, Params, ProbeShapes, Workload, CP,
    MODEL_SEED, POOL_THREADS,
};

#[derive(Debug, Clone, Copy)]
pub enum Arrivals {
    /// Requests are due on a schedule and timed from when they were due.
    Open { rate_per_s: f64 },
    /// Each of `clients` has one conversation in the system at a time.
    Closed { clients: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct SchedSpec {
    pub cfg: TransformerConfig,
    pub prefill_chunk_tokens: usize,
    pub max_live_sessions: usize,
    pub arrivals: Arrivals,
}

/// Open loop: every `OPEN_BLOCK` consecutive requests carry the whole
/// length distribution, and every `OPEN_WINDOW` of them share one window of
/// time (0.2 s at 30 req/s), uniformly placed in it.
const OPEN_BLOCK: usize = 24;
const OPEN_WINDOW: usize = 6;
/// Conversations generated for the closed loop; a run that outlives them
/// reuses them in order under fresh request ids.
const CLOSED_POOL: usize = 8192;
/// Ticks of a closed-loop run whose counts are reported: in tick time the
/// closed loop is deterministic, so over a fixed prefix of ticks batch
/// sizes and tick-domain latencies repeat bit for bit whatever the speed.
const COUNT_TICKS: usize = 2048;
/// Conversations (by id) the output digest covers.
const DIGEST_REQUESTS: usize = 64;
/// An open-loop run that has not drained this long after its last arrival
/// stops; what is unfinished counts as failed.
const DRAIN_CAP_S: f64 = 30.0;
/// A request whose first token takes longer than this misses (`serve_open`:
/// the interactive limit; `serve_burst`: fifty seed ticks).
const TTFT_LIMIT_OPEN_S: f64 = 0.25;
const TTFT_LIMIT_CLOSED_S: f64 = 0.03;
/// Completed requests replayed on the single-device reference after the run.
const VERIFY_REQUESTS: usize = 4;

pub struct SchedLoop {
    spec: SchedSpec,
    model: Transformer,
    sched: Scheduler,
    conversations: Vec<Conversation>,
    /// Open loop: when each request is due, seconds from the start.
    due_s: Vec<f64>,
    /// Request `i` has id `id_base + i`: ids rise in submission order (the
    /// scheduler breaks FCFS ties by id) and carry the seed (the scheduler
    /// derives a request's token stream from its id).
    id_base: u64,
    input_digest: u64,
    batch_mean: f64,
}

/// What the run learnt about one submitted request.
#[derive(Debug, Clone, Copy)]
struct Req {
    due_s: f64,
    submitted_s: f64,
    arrival_tick: u64,
    admit_tick: Option<u64>,
    first_token_tick: Option<u64>,
    finish_tick: Option<u64>,
}

fn sched_config(spec: &SchedSpec) -> SchedConfig {
    SchedConfig {
        prefill_chunk_tokens: spec.prefill_chunk_tokens,
        max_live_sessions: spec.max_live_sessions,
        time_units_per_tick: 1.0,
        vocab: spec.cfg.vocab,
    }
}

impl SchedLoop {
    pub fn setup(spec: SchedSpec, p: &Params) -> Result<Self, String> {
        let model = Transformer::new(&spec.cfg, MODEL_SEED);
        let mut rng = SplitMix64::stream(p.seed, "requests");
        let (conversations, due_s): (Vec<Conversation>, Vec<f64>) = match spec.arrivals {
            Arrivals::Open { rate_per_s } => {
                let n = ((rate_per_s * p.seconds).round() as usize).max(1);
                // The median prompt (80 tokens) sits in the middle of the prompts that
                // take three prefill chunks, so the median TTFT does not flip
                // between two chunk counts from one run to the next.
                let prompts = stratified(&mut rng, n, OPEN_BLOCK, log_uniform(40, 160));
                let responses = stratified(&mut rng, n, OPEN_BLOCK, uniform(8, 64));
                let convs = prompts
                    .iter()
                    .zip(&responses)
                    .map(|(&p, &r)| single_turn(p, r));
                (
                    convs.collect(),
                    windowed_arrivals(&mut rng, n, rate_per_s, OPEN_WINDOW),
                )
            }
            Arrivals::Closed { .. } => {
                let convs = (0..CLOSED_POOL).map(|_| short_chat(&mut rng, 2, 8));
                (convs.collect(), Vec::new())
            }
        };
        let mut h = Fnv::new();
        for c in &conversations {
            h.write_conversation(c);
        }
        for d in &due_s {
            h.write_u64(d.to_bits());
        }
        let id_base = p.seed << 32;
        h.write_u64(id_base);

        gate(&model, &spec, id_base)?;

        let sched = Scheduler::new(engine_for(&model)?, sched_config(&spec));
        Ok(SchedLoop {
            spec,
            model,
            sched,
            conversations,
            due_s,
            id_base,
            input_digest: h.finish(),
            batch_mean: 1.0,
        })
    }

    fn conversation(&self, i: usize) -> &Conversation {
        &self.conversations[i % self.conversations.len()]
    }
}

/// What the timed phase observed, before any statistics.
#[derive(Default)]
struct Observed {
    reqs: Vec<Req>,
    /// Clock at the start and the end of every tick.
    tick_start: Vec<f64>,
    tick_end: Vec<f64>,
    reports: Vec<TickReport>,
    /// (tick, TTFT in ticks) of every first-token sample, in order.
    first_tokens: Vec<(u64, u64)>,
    tbt_s: Vec<f64>,
    digest: UnorderedDigest,
    pages: PagePeak,
    tick_error: bool,
    wall_s: f64,
}

impl SchedLoop {
    fn submit(&mut self, o: &mut Observed, due_s: f64, now: f64, tick: u64) {
        let i = o.reqs.len();
        let conversation = self.conversation(i).clone();
        self.sched
            .submit(self.id_base + i as u64, tick as f64, conversation);
        o.reqs.push(Req {
            due_s,
            submitted_s: now,
            arrival_tick: tick,
            admit_tick: None,
            first_token_tick: None,
            finish_tick: None,
        });
    }

    /// Drives the scheduler for the timed phase. Times are on the tracer's
    /// clock, which starts with the run, so that the request spans recorded
    /// afterwards line up with the tick spans.
    fn drive(&mut self, seconds: f64, tracer: &mut Tracer) -> Observed {
        let mut o = Observed::default();
        let (mut seen_ttft, mut seen_tbt, mut seen_out, mut admitted) = (0, 0, 0, 0usize);
        let mut to_submit = match self.spec.arrivals {
            Arrivals::Closed { clients } => clients,
            Arrivals::Open { .. } => 0,
        };
        loop {
            let now = tracer.clock();
            let tick = o.tick_start.len() as u64;
            match self.spec.arrivals {
                Arrivals::Open { .. } => {
                    while let Some(&due) = self.due_s.get(o.reqs.len()).filter(|&&due| due <= now) {
                        self.submit(&mut o, due, tracer.clock(), tick);
                    }
                    if self.sched.pending() == 0 {
                        let Some(&due) = self.due_s.get(o.reqs.len()) else {
                            break;
                        };
                        std::thread::sleep(Duration::from_secs_f64(
                            (due - tracer.clock()).max(0.0),
                        ));
                        continue;
                    }
                    if now > seconds + DRAIN_CAP_S {
                        break;
                    }
                }
                Arrivals::Closed { .. } => {
                    if now >= seconds {
                        break;
                    }
                    for _ in 0..to_submit {
                        self.submit(&mut o, now, now, tick);
                    }
                }
            }

            let span = tracer.begin("sched.tick", NO_REQUEST);
            let start = tracer.clock();
            let result = self.sched.tick();
            let end = tracer.clock();
            tracer.end(span);
            let report = match result {
                Ok(report) => report,
                Err(e) => {
                    eprintln!("cpbench: tick {tick} failed: {e}");
                    o.tick_error = true;
                    break;
                }
            };
            o.tick_start.push(start);
            o.tick_end.push(end);

            // Admission is FIFO in (arrival tick, id), which is id order
            // here (no workload limits pages, so nothing is re-admitted).
            for r in o.reqs.iter_mut().skip(admitted).take(report.admitted) {
                r.admit_tick = Some(tick);
            }
            admitted += report.admitted;
            let m = self.sched.metrics();
            o.first_tokens
                .extend(m.ttft_ticks[seen_ttft..].iter().map(|&d| (tick, d)));
            seen_ttft = m.ttft_ticks.len();
            // A gap of `d` ticks ending now began when tick `tick - d` ended.
            let gaps = m.tbt_ticks[seen_tbt..]
                .iter()
                .map(|&d| end - o.tick_end[(tick - d) as usize]);
            o.tbt_s.extend(gaps);
            seen_tbt = m.tbt_ticks.len();
            for (id, outputs) in &self.sched.outputs()[seen_out..] {
                let i = (id - self.id_base) as usize;
                if let Some(r) = o.reqs.get_mut(i) {
                    r.finish_tick = Some(tick);
                }
                if i < DIGEST_REQUESTS {
                    o.digest.add(i as u64, digest_of(outputs));
                }
            }
            seen_out = self.sched.outputs().len();
            if tracer.is_on() {
                o.pages.sample(self.sched.engine());
            }
            to_submit = report.finished;
            o.reports.push(report);
        }
        // An open loop ends when it has drained, not after its last sleep.
        o.wall_s = match self.spec.arrivals {
            Arrivals::Open { .. } => o.tick_end.last().copied().unwrap_or(0.0),
            Arrivals::Closed { .. } => tracer.clock(),
        };
        o
    }

    /// Seconds from due (open loop) or from the start of the turn's first
    /// tick (closed loop) to every first token.
    fn first_token_latencies(&self, o: &mut Observed) -> Result<Vec<f64>, String> {
        if let Arrivals::Closed { .. } = self.spec.arrivals {
            // A turn started (or its request arrived) `d` ticks before tick `k`.
            let latency =
                |&(k, d): &(u64, u64)| o.tick_end[k as usize] - o.tick_start[(k - d) as usize];
            return Ok(o.first_tokens.iter().map(latency).collect());
        }
        let arrivals: Vec<u64> = o.reqs.iter().map(|r| r.arrival_tick).collect();
        let ticks = attribute_first_tokens(&arrivals, &o.first_tokens)?;
        for (r, t) in o.reqs.iter_mut().zip(ticks) {
            r.first_token_tick = t;
        }
        let latency = |r: &Req| Some(o.tick_end[r.first_token_tick? as usize] - r.due_s);
        Ok(o.reqs.iter().filter_map(latency).collect())
    }
}

/// Median, over the whole seconds of the run, of the tokens a second's
/// ticks completed; the run's mean rate if it has fewer than three.
fn median_rate(tick_end: &[f64], reports: &[TickReport], mean_rate: f64) -> f64 {
    let seconds = tick_end.last().map_or(0, |&t| t as usize);
    let mut per_second = vec![0.0; seconds];
    for (&end, r) in tick_end.iter().zip(reports) {
        if let Some(w) = per_second.get_mut(end as usize) {
            *w += (r.prefill_tokens + r.decoded) as f64;
        }
    }
    if seconds < 3 {
        mean_rate
    } else {
        median(&per_second)
    }
}

impl Workload for SchedLoop {
    fn input_digest(&self) -> u64 {
        self.input_digest
    }

    fn run(&mut self, seconds: f64, tracer: &mut Tracer) -> Outcome {
        let open = matches!(self.spec.arrivals, Arrivals::Open { .. });
        let mut o = self.drive(seconds, tracer);
        let attributed = self.first_token_latencies(&mut o);
        if let Err(e) = &attributed {
            eprintln!("cpbench: first-token attribution failed: {e}");
        }
        let verified = self.verify(&o.reqs);
        if let Err(e) = &verified {
            eprintln!("cpbench: {e}");
        }
        let correct = verified.is_ok() && attributed.is_ok() && !o.tick_error;
        let ttft_s = attributed.unwrap_or_default();

        let m = self.sched.metrics();
        let completed = m.completed as u64;
        let (attempted, failed) = if open {
            let n = self.due_s.len() as u64;
            (n, n - completed.min(n))
        } else {
            let lost = if o.tick_error {
                self.sched.pending() as u64
            } else {
                0
            };
            (completed + lost, lost)
        };
        let tokens = (m.prefilled_tokens + m.decoded_tokens) as u64;
        let mean_rate = tokens as f64 / o.wall_s.max(1e-9);
        let digest_want = if open {
            DIGEST_REQUESTS.min(self.due_s.len())
        } else {
            DIGEST_REQUESTS
        };

        let mut out = Outcome {
            attempted,
            failed,
            correct,
            wall_s: o.wall_s,
            tokens,
            // The open loop completes what is offered: its rate is the
            // offered load unless it falls behind, and its seconds differ
            // by what happened to arrive in them.
            tok_per_s: if open {
                mean_rate
            } else {
                median_rate(&o.tick_end, &o.reports, mean_rate)
            },
            tail_q: 0.99,
            output_digest: o.digest.finish(),
            digest_complete: o.digest.count() == digest_want as u64,
            ..Outcome::default()
        };

        // Tick-domain counts: exact over the fixed prefix of a closed loop.
        let window = if open {
            o.reports.len()
        } else {
            COUNT_TICKS.min(o.reports.len())
        };
        let counted = &o.reports[..window];
        let decoding: Vec<f64> = counted
            .iter()
            .filter(|r| r.decoded > 0)
            .map(|r| r.decoded as f64)
            .collect();
        let ttft_ticks: Vec<f64> = o
            .first_tokens
            .iter()
            .filter(|&&(k, _)| (k as usize) < window)
            .map(|&(_, d)| d as f64)
            .collect();
        self.batch_mean = mean(&decoding).max(1.0);
        let count_metrics = [
            ("sched.batch_mean", mean(&decoding)),
            (
                "sched.prefill_tok_per_tick",
                counted.iter().map(|r| r.prefill_tokens).sum::<usize>() as f64
                    / window.max(1) as f64,
            ),
            (
                "sched.idle_ticks",
                counted
                    .iter()
                    .filter(|r| r.prefill_tokens == 0 && r.decoded == 0)
                    .count() as f64,
            ),
            ("sched.ttft_p50_ticks", median(&ttft_ticks)),
            ("sched.ttft_p99_ticks", tail_value(&ttft_ticks, 0.99)),
        ];
        if !open && window == COUNT_TICKS {
            out.counts.extend(count_metrics);
        }

        if tracer.is_on() {
            let ticks: Vec<f64> = o
                .tick_start
                .iter()
                .zip(&o.tick_end)
                .map(|(s, e)| e - s)
                .collect();
            let decile = ticks.len() / 10;
            let drift = ratio(
                median(&ticks[ticks.len() - decile..]),
                median(&ticks[..decile]),
            );
            let queue_wait: Vec<f64> = o
                .reqs
                .iter()
                .filter_map(|r| Some(o.tick_start[r.admit_tick? as usize] - r.due_s))
                .collect();
            let gen_lag: Vec<f64> = o.reqs.iter().map(|r| r.submitted_s - r.due_s).collect();
            // A request sent that never produced a token misses its limit.
            let (limit, sent) = if open {
                (TTFT_LIMIT_OPEN_S, o.reqs.len())
            } else {
                (TTFT_LIMIT_CLOSED_S, ttft_s.len())
            };
            let in_time = ttft_s.iter().filter(|&&t| t <= limit).count();
            let l = &mut out.layer;
            l.extend(count_metrics);
            l.insert("sched.tick_p50_s", median(&ticks));
            l.insert("sched.tick_p99_s", tail_value(&ticks, 0.99));
            l.insert("sched.ticks", ticks.len() as f64);
            l.insert("sched.queue_wait_p50_s", median(&queue_wait));
            l.insert("sched.queue_wait_p95_s", tail_value(&queue_wait, 0.95));
            l.insert("sched.ttft_p95_s", tail_value(&ttft_s, 0.95));
            l.insert("sched.gen_lag_p95_s", tail_value(&gen_lag, 0.95));
            l.insert("sched.evictions", m.evictions as f64);
            l.insert("sched.tick_drift_ratio", drift);
            l.insert("sched.goodput_share", ratio(in_time as f64, sent as f64));
            o.pages.report(l);

            let prefill_ticks = o.reports.iter().filter(|r| r.prefill_tokens > 0).count() as u64;
            let decode_ticks = o.reports.iter().filter(|r| r.decoded > 0).count() as u64;
            out.calls = OpCalls {
                full_prefills: 0,
                partial_prefills: prefill_ticks,
                decodes: decode_ticks,
                wall_s: ticks.iter().sum(),
                fabric_runs_per_op: (prefill_ticks + decode_ticks) as f64
                    / ticks.len().max(1) as f64,
                op_p50_s: median(&ticks),
            };
            record_request_spans(tracer, &o.reqs, &o.tick_start, &o.tick_end);
        }
        out.ttft_s = ttft_s;
        out.tbt_s = o.tbt_s;
        out
    }

    fn probe_shapes(&self) -> ProbeShapes {
        let n = self.conversations.len().max(1);
        let mean_tokens = self
            .conversations
            .iter()
            .map(Conversation::total_tokens)
            .sum::<usize>()
            / n;
        ProbeShapes {
            cfg: self.spec.cfg,
            full_t: self.spec.prefill_chunk_tokens,
            partial_t: self.spec.prefill_chunk_tokens,
            // A session is, on average, half way through its conversation.
            ctx: (mean_tokens / 2).max(16),
            batch: self.batch_mean.round() as usize,
            timed_prefill_is_full: false,
        }
    }
}

impl SchedLoop {
    /// Replays a few completed requests on the single-device reference and
    /// compares every generated token's activations.
    fn verify(&self, reqs: &[Req]) -> Result<(), String> {
        let outputs: BTreeMap<u64, &Vec<Tensor>> = self
            .sched
            .outputs()
            .iter()
            .map(|(id, o)| (*id, o))
            .collect();
        let finished: Vec<usize> = (0..reqs.len())
            .filter(|&i| reqs[i].finish_tick.is_some())
            .collect();
        let step = (finished.len() / VERIFY_REQUESTS).max(1);
        for &i in finished.iter().step_by(step).take(VERIFY_REQUESTS) {
            let id = self.id_base + i as u64;
            let got = outputs
                .get(&id)
                .ok_or(format!("request {i} finished without outputs"))?;
            replay_and_check(
                &self.model,
                id,
                self.conversation(i),
                got,
                self.spec.cfg.vocab,
            )?;
        }
        Ok(())
    }
}

/// Page-pressure canary: 300 short conversations through a scheduler whose
/// engine has 20 pages per (rank, layer). True if the scheduler drains them
/// (evicting as it must), false if a tick fails. Reported, never fatal.
pub fn page_pressure_canary(seed: u64) -> bool {
    let model = Transformer::new(&TransformerConfig::tiny(), MODEL_SEED);
    let engine = match TransformerEngine::with_cache_limit(model, CP, Some(20)) {
        Ok(engine) => engine.with_pool_threads(POOL_THREADS),
        Err(e) => {
            eprintln!("cpbench: page-pressure canary: {e}");
            return false;
        }
    };
    let mut sched = Scheduler::new(engine, SchedConfig::default());
    let mut rng = SplitMix64::stream(seed, "canary");
    for id in 0..300 {
        sched.submit(id, 0.0, short_chat(&mut rng, 1, 4));
    }
    match sched.run_to_completion(200_000) {
        Ok(_) => true,
        Err(e) => {
            eprintln!("cpbench: page-pressure canary: {e}");
            false
        }
    }
}

fn digest_of(outputs: &[Tensor]) -> u64 {
    let mut h = Fnv::new();
    for t in outputs {
        h.write_tensor(t);
    }
    h.finish()
}

/// Matches first-token samples to single-turn requests.
///
/// After a tick, each new TTFT sample of `d` ticks seen at tick `k` belongs
/// to a request that arrived at tick `k - d`; requests that arrived in the
/// same tick get their first tokens in id order (the scheduler's prefill
/// slot is FCFS by arrival tick, then id). `arrival_ticks[i]` is request
/// `i`'s arrival tick, ids rising with `i`. Returns each request's
/// first-token tick, `None` for a request that never got one.
///
/// # Errors
///
/// A sample no waiting request can own — every request must be matched
/// exactly once, or the latencies would be attributed to the wrong dues.
pub fn attribute_first_tokens(
    arrival_ticks: &[u64],
    samples: &[(u64, u64)],
) -> Result<Vec<Option<u64>>, String> {
    let mut waiting: BTreeMap<u64, VecDeque<usize>> = BTreeMap::new();
    for (i, &a) in arrival_ticks.iter().enumerate() {
        waiting.entry(a).or_default().push_back(i);
    }
    let mut first = vec![None; arrival_ticks.len()];
    for &(tick, d) in samples {
        let arrival = tick
            .checked_sub(d)
            .ok_or(format!("sample of {d} ticks at tick {tick}"))?;
        let i = waiting
            .get_mut(&arrival)
            .and_then(VecDeque::pop_front)
            .ok_or(format!(
                "first token at tick {tick}: no unmatched request arrived at tick {arrival}"
            ))?;
        first[i] = Some(tick);
    }
    Ok(first)
}

/// One span per request from due to finish, and its wait for admission
/// (and, single-turn, its prefill and decode phases) as children.
fn record_request_spans(tracer: &mut Tracer, reqs: &[Req], tick_start: &[f64], tick_end: &[f64]) {
    for (i, r) in reqs.iter().enumerate() {
        let (Some(admit), Some(finish)) = (r.admit_tick, r.finish_tick) else {
            continue;
        };
        let (admit_s, finish_s) = (tick_start[admit as usize], tick_end[finish as usize]);
        let parent = tracer.record("request", i as u64, None, r.due_s, finish_s);
        tracer.record("sched.queue_wait", i as u64, parent, r.due_s, admit_s);
        if let Some(first) = r.first_token_tick {
            let first_s = tick_end[first as usize];
            tracer.record("sched.prefill", i as u64, parent, admit_s, first_s);
            tracer.record("sched.decode", i as u64, parent, first_s, finish_s);
        }
    }
}

/// `got` (the activations of every generated token of request `id`) against
/// a replay of the request on the single-device reference.
fn replay_and_check(
    model: &Transformer,
    id: u64,
    conversation: &Conversation,
    got: &[Tensor],
    vocab: u32,
) -> Result<(), String> {
    let mut reference = ReferenceSession::new(model.clone());
    let (mut consumed, mut emitted) = (0usize, 0usize);
    for turn in &conversation.turns {
        let prompt: Vec<u32> = (0..turn.prompt_tokens)
            .map(|j| trace_token(id, consumed + j, vocab))
            .collect();
        consumed += prompt.len();
        reference
            .process(&prompt)
            .map_err(|e| format!("reference prompt: {e}"))?;
        for _ in 0..turn.response_tokens {
            let token = trace_token(id, consumed, vocab);
            consumed += 1;
            let g = got
                .get(emitted)
                .ok_or(format!("request {id:#x}: {} tokens, want more", got.len()))?;
            check_against(
                &mut reference,
                &[token],
                g,
                &format!("request {id:#x} token {emitted}"),
            )?;
            emitted += 1;
        }
    }
    if emitted == got.len() {
        Ok(())
    } else {
        Err(format!(
            "request {id:#x}: {} tokens, want {emitted}",
            got.len()
        ))
    }
}

/// The exactness gate: a reduced copy of the workload — three conversations
/// of the workload's kind, at most 128 prompt tokens each and 8 generated
/// tokens in all — through a scheduler of the same model, CP degree and
/// policy, against the single-device reference. Their shapes are fixed, so
/// that set-up costs the same whatever the seed; their tokens follow it.
fn gate(model: &Transformer, spec: &SchedSpec, id_base: u64) -> Result<(), String> {
    let mut sched = Scheduler::new(engine_for(model)?, sched_config(spec));
    let turn = |prompt_tokens, response_tokens| Turn {
        prompt_tokens,
        response_tokens,
    };
    let reduced: Vec<Conversation> = match spec.arrivals {
        Arrivals::Open { .. } => vec![single_turn(128, 3), single_turn(64, 3), single_turn(16, 2)],
        Arrivals::Closed { .. } => [(24, 14), (14, 4), (4, 24)]
            .iter()
            .map(|&(a, b)| Conversation {
                turns: vec![turn(a, 2), turn(b, 1)],
            })
            .collect(),
    };
    for (i, c) in reduced.iter().enumerate() {
        sched.submit(id_base + i as u64, 0.0, c.clone());
    }
    sched
        .run_to_completion(10_000)
        .map_err(|e| format!("exactness gate: {e}"))?;
    if sched.outputs().len() != reduced.len() {
        return Err("exactness gate: the scheduler lost a conversation".to_string());
    }
    for (id, got) in sched.outputs() {
        let c = &reduced[(id - id_base) as usize];
        replay_and_check(model, *id, c, got, spec.cfg.vocab)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_tokens_go_to_the_request_that_arrived_then_in_id_order() {
        // Requests 0 and 1 arrive at tick 0, request 2 at tick 3. First
        // tokens: tick 2 (2 ticks after arrival), tick 5 (5 after: request
        // 1 waited for the prefill slot), tick 6 (3 after: request 2).
        let arrivals = [0, 0, 3];
        let samples = [(2, 2), (5, 5), (6, 3)];
        assert_eq!(
            attribute_first_tokens(&arrivals, &samples).unwrap(),
            vec![Some(2), Some(5), Some(6)]
        );
        // A request still waiting stays unmatched.
        assert_eq!(
            attribute_first_tokens(&arrivals, &samples[..2]).unwrap(),
            vec![Some(2), Some(5), None]
        );
    }

    #[test]
    fn the_rate_is_the_median_whole_second_not_the_mean() {
        // Ten ticks a second of 10 tokens each for 5 s; second 2 stalls and
        // completes only two ticks.
        let report = |tokens| TickReport {
            decoded: tokens,
            ..TickReport::default()
        };
        let (mut tick_end, mut reports) = (Vec::new(), Vec::new());
        for second in 0..5 {
            for i in 0..if second == 2 { 2 } else { 10 } {
                tick_end.push(second as f64 + (i as f64 + 0.5) / 10.0);
                reports.push(report(10));
            }
        }
        // The trailing part of a second does not count as a whole one.
        tick_end.push(5.05);
        reports.push(report(10));
        assert_eq!(median_rate(&tick_end, &reports, 84.0), 100.0);
        // Too short a run has no seconds to take a median of.
        assert_eq!(median_rate(&tick_end[..12], &reports[..12], 84.0), 84.0);
    }

    #[test]
    fn a_first_token_nobody_can_own_is_an_error() {
        // Two samples for the one request that arrived at tick 0.
        assert!(attribute_first_tokens(&[0, 3], &[(2, 2), (4, 4)]).is_err());
        // A sample pointing at a tick no request arrived in.
        assert!(attribute_first_tokens(&[0], &[(5, 2)]).is_err());
        // A sample longer than the run.
        assert!(attribute_first_tokens(&[0], &[(1, 2)]).is_err());
    }
}
