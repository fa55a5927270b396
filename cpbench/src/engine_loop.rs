//! The two closed-loop, one-client workloads that call the engine directly:
//! `prefill_full` (a fresh session per operation: long prefill, then a few
//! decode steps) and `chat_persistent` (one session over a prefilled
//! document: short follow-up prefills against the persistent KV cache, each
//! followed by a response).

use std::time::Instant;

use cp_comm::TrafficReport;
use cp_kvcache::SeqId;
use cp_model::{Transformer, TransformerConfig};
use cp_perf::RingVariant;
use cp_serve::{ReferenceSession, ServeError, TransformerEngine};

use crate::gen::{Fnv, SplitMix64, UnorderedDigest};
use crate::stats::{median, ratio, tail_value};
use crate::trace::Tracer;
use crate::workload::{
    check_against, engine_for, OpCalls, Outcome, PagePeak, Params, ProbeShapes, Workload, CP,
    MODEL_SEED,
};

#[derive(Debug, Clone, Copy)]
pub struct EngineSpec {
    /// Tokens prefilled into the session during set-up (the document).
    pub doc_tokens: usize,
    /// Tokens of each operation's prefill.
    pub prompt_tokens: usize,
    /// Decode steps after each prefill.
    pub decode_tokens: usize,
    /// Create and free the session around every operation.
    pub fresh_session_per_op: bool,
    pub tail_q: f64,
    /// Operations the output digest and the exact counts cover.
    pub digest_ops: u64,
    /// Operations whose latencies are sampled. Where the context grows
    /// with every operation, so do the latencies: sampling a fixed prefix
    /// keeps the medians from depending on how many operations a run
    /// completes (a faster commit would otherwise look slower per turn).
    pub latency_ops: u64,
}

const SEQ: SeqId = SeqId(1);
/// Distinct turns generated; a run that outlives them reuses them in order.
const TURNS: usize = 512;
/// An operation that keeps failing ends the run instead of spinning.
const MAX_FAILURES: u64 = 3;

pub struct EngineLoop {
    spec: EngineSpec,
    cfg: TransformerConfig,
    engine: TransformerEngine,
    prompts: Vec<Vec<u32>>,
    decodes: Vec<Vec<u32>>,
    input_digest: u64,
    ops_done: usize,
}

/// Sums of the `TrafficReport`s of a set of engine calls.
#[derive(Debug, Default, Clone, Copy)]
struct Traffic {
    calls: u64,
    tokens: u64,
    bytes: u64,
    send_recv_calls: u64,
    all_to_all_calls: u64,
    wall_ns: u64,
    overlapped_ns: u64,
    prefills: u64,
    pass_q: u64,
}

impl std::ops::AddAssign for Traffic {
    fn add_assign(&mut self, o: Traffic) {
        self.calls += o.calls;
        self.tokens += o.tokens;
        self.bytes += o.bytes;
        self.send_recv_calls += o.send_recv_calls;
        self.all_to_all_calls += o.all_to_all_calls;
        self.wall_ns += o.wall_ns;
        self.overlapped_ns += o.overlapped_ns;
        self.prefills += o.prefills;
        self.pass_q += o.pass_q;
    }
}

impl Traffic {
    fn add_prefill(&mut self, tokens: usize, t: &TrafficReport, variant: Option<RingVariant>) {
        self.add(tokens, t);
        self.prefills += 1;
        self.pass_q += u64::from(variant == Some(RingVariant::PassQ));
    }

    fn add(&mut self, tokens: usize, t: &TrafficReport) {
        self.calls += 1;
        self.tokens += tokens as u64;
        self.bytes += t.total_bytes() as u64;
        self.send_recv_calls += t.send_recv.calls;
        self.all_to_all_calls += t.all_to_all.calls;
        for (_, c) in t.collectives() {
            self.wall_ns += c.wall_ns;
            self.overlapped_ns += c.overlapped_ns;
        }
    }
}

#[derive(Default)]
struct Acc {
    ttft_s: Vec<f64>,
    tbt_s: Vec<f64>,
    /// Wall seconds of each sampled operation.
    op_s: Vec<f64>,
    tokens: u64,
    all: Traffic,
    /// Traffic of the first `digest_ops` operations: exact counts.
    window: Traffic,
    digest: UnorderedDigest,
    first_op_digest: Option<u64>,
    outputs_repeat: bool,
    pages: PagePeak,
}

impl EngineLoop {
    pub fn setup(spec: EngineSpec, p: &Params) -> Result<Self, String> {
        let cfg = TransformerConfig::small();
        let model = Transformer::new(&cfg, MODEL_SEED);

        let doc = SplitMix64::stream(p.seed, "doc").tokens(spec.doc_tokens, cfg.vocab);
        let n_prompts = if spec.fresh_session_per_op { 1 } else { TURNS };
        let mut rng = SplitMix64::stream(p.seed, "turns");
        let prompts: Vec<Vec<u32>> = (0..n_prompts)
            .map(|_| rng.tokens(spec.prompt_tokens, cfg.vocab))
            .collect();
        let decodes: Vec<Vec<u32>> = (0..n_prompts)
            .map(|_| rng.tokens(spec.decode_tokens, cfg.vocab))
            .collect();
        let mut h = Fnv::new();
        h.write_u32s(&doc);
        for v in prompts.iter().chain(&decodes) {
            h.write_u32s(v);
        }

        gate(&model, &doc, &prompts[0], &decodes[0])?;

        let mut engine = engine_for(&model)?;
        if !spec.fresh_session_per_op {
            engine
                .create_session(SEQ)
                .map_err(|e| format!("create session: {e}"))?;
            engine
                .prefill_session(SEQ, &doc)
                .map_err(|e| format!("document prefill: {e}"))?;
        }
        Ok(EngineLoop {
            spec,
            cfg,
            engine,
            prompts,
            decodes,
            input_digest: h.finish(),
            ops_done: 0,
        })
    }

    fn one_op(&mut self, op: u64, acc: &mut Acc, tracer: &mut Tracer) -> Result<(), ServeError> {
        let turn = op as usize % self.prompts.len();
        let (prompt, decode) = (&self.prompts[turn], &self.decodes[turn]);
        let in_window = op < self.spec.digest_ops;
        let sampled = op < self.spec.latency_ops;
        let op_span = tracer.begin("op", op);
        let t_op = Instant::now();

        if self.spec.fresh_session_per_op {
            let s = tracer.begin("engine.create_session", op);
            self.engine.create_session(SEQ)?;
            tracer.end(s);
        }
        let s = tracer.begin("engine.prefill", op);
        let prefill = self.engine.prefill_session(SEQ, prompt)?;
        tracer.end(s);

        // The first generated token is the first decode step's, as the
        // scheduler counts it; the gaps after it are the TBT samples.
        let mut op_digest = Fnv::new();
        let mut traffic = Traffic::default();
        let mut last = 0.0;
        for (i, &token) in decode.iter().enumerate() {
            let s = tracer.begin("engine.decode", op);
            let out = self.engine.decode_batch(&[(SEQ, token)])?;
            tracer.end(s);
            let now = t_op.elapsed().as_secs_f64();
            match i {
                _ if !sampled => {}
                0 => acc.ttft_s.push(now),
                _ => acc.tbt_s.push(now - last),
            }
            last = now;
            for a in &out.activations {
                op_digest.write_tensor(a);
            }
            traffic.add(1, &out.traffic);
        }
        op_digest.write_tensor(&prefill.activations);
        traffic.add_prefill(prompt.len(), &prefill.traffic, prefill.variant);
        acc.all += traffic;
        if in_window {
            acc.window += traffic;
        }
        acc.tokens += (prompt.len() + decode.len()) as u64;

        acc.pages.sample(&self.engine);
        if self.spec.fresh_session_per_op {
            let s = tracer.begin("engine.free_session", op);
            self.engine.free_session(SEQ)?;
            tracer.end(s);
        }
        tracer.end(op_span);
        if sampled {
            acc.op_s.push(t_op.elapsed().as_secs_f64());
        }

        let d = op_digest.finish();
        if in_window {
            acc.digest.add(op, d);
        }
        if self.spec.fresh_session_per_op {
            // The same prompt on a fresh session must repeat bit for bit.
            acc.outputs_repeat &= *acc.first_op_digest.get_or_insert(d) == d;
        }
        Ok(())
    }
}

impl Workload for EngineLoop {
    fn input_digest(&self) -> u64 {
        self.input_digest
    }

    fn run(&mut self, seconds: f64, tracer: &mut Tracer) -> Outcome {
        let mut acc = Acc {
            outputs_repeat: true,
            ..Acc::default()
        };
        let (mut attempted, mut failed) = (0u64, 0u64);
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds && failed < MAX_FAILURES {
            if let Err(e) = self.one_op(attempted, &mut acc, tracer) {
                eprintln!("cpbench: operation {attempted} failed: {e}");
                failed += 1;
                if self.spec.fresh_session_per_op {
                    let _ = self.engine.free_session(SEQ);
                }
            }
            attempted += 1;
        }
        let wall_s = start.elapsed().as_secs_f64();
        self.ops_done = attempted as usize;

        let w = acc.window;
        let mut out = Outcome {
            attempted,
            failed,
            correct: acc.outputs_repeat,
            wall_s,
            tokens: acc.tokens,
            // The median operation's rate: one slow operation (a noisy
            // neighbour) does not move it, a slower engine does.
            tok_per_s: ratio(
                (self.spec.prompt_tokens + self.spec.decode_tokens) as f64,
                median(&acc.op_s),
            ),
            tail_q: self.spec.tail_q,
            output_digest: acc.digest.finish(),
            digest_complete: acc.digest.count() == self.spec.digest_ops,
            ..Outcome::default()
        };
        out.counts.insert(
            "comm.wire_bytes_per_tok",
            ratio(w.bytes as f64, w.tokens as f64),
        );
        out.counts.insert(
            "comm.send_recv_calls_per_op",
            ratio(w.send_recv_calls as f64, w.calls as f64),
        );
        out.counts.insert(
            "comm.all_to_all_calls_per_op",
            ratio(w.all_to_all_calls as f64, w.calls as f64),
        );
        out.counts.insert(
            "engine.pass_q_share",
            ratio(w.pass_q as f64, w.prefills as f64),
        );

        if tracer.is_on() {
            let prefill = tracer.durations("engine.prefill");
            let decode = tracer.durations("engine.decode");
            let open_close = median(&tracer.durations("engine.create_session"))
                + median(&tracer.durations("engine.free_session"));
            let a = acc.all;
            // Collective times are summed over ranks: per rank, per call.
            let per_rank_call = |ns: u64| ns as f64 * 1e-9 / (CP as u64 * a.calls.max(1)) as f64;
            let l = &mut out.layer;
            l.insert("engine.prefill_call_p50_s", median(&prefill));
            l.insert("engine.decode_call_p50_s", median(&decode));
            l.insert("engine.decode_call_p99_s", tail_value(&decode, 0.99));
            l.insert("engine.session_open_close_s", open_close);
            l.insert("comm.wall_s", per_rank_call(a.wall_ns));
            l.insert(
                "comm.exposed_s",
                per_rank_call(a.wall_ns - a.overlapped_ns.min(a.wall_ns)),
            );
            l.insert(
                "comm.overlap_share",
                ratio(a.overlapped_ns as f64, a.wall_ns as f64),
            );
            acc.pages.report(l);
            let n_prefill = prefill.len() as u64;
            let (full, partial) = if self.spec.doc_tokens == 0 {
                (n_prefill, 0)
            } else {
                (0, n_prefill)
            };
            out.calls = OpCalls {
                full_prefills: full,
                partial_prefills: partial,
                decodes: decode.len() as u64,
                wall_s: prefill.iter().chain(&decode).sum(),
                fabric_runs_per_op: 1.0,
                op_p50_s: median(&decode),
            };
        }
        out.ttft_s = acc.ttft_s;
        out.tbt_s = acc.tbt_s;
        out
    }

    fn probe_shapes(&self) -> ProbeShapes {
        let s = &self.spec;
        let per_turn = s.prompt_tokens + s.decode_tokens;
        if s.fresh_session_per_op {
            ProbeShapes {
                cfg: self.cfg,
                full_t: s.prompt_tokens,
                // Not made by this workload; measured at its context for
                // comparison with `chat_persistent`'s turns.
                partial_t: 96,
                ctx: s.prompt_tokens,
                batch: 1,
                timed_prefill_is_full: true,
            }
        } else {
            // The context half way through the turns the run completed.
            ProbeShapes {
                cfg: self.cfg,
                full_t: s.doc_tokens,
                partial_t: s.prompt_tokens,
                ctx: s.doc_tokens + self.ops_done / 2 * per_turn,
                batch: 1,
                timed_prefill_is_full: false,
            }
        }
    }
}

/// The exactness gate: a reduced copy of the workload (at most 256 prompt
/// tokens and 8 decode steps, same model, CP degree and engine settings)
/// against the single-device reference.
fn gate(model: &Transformer, doc: &[u32], prompt: &[u32], decode: &[u32]) -> Result<(), String> {
    let err = |e: ServeError| format!("exactness gate: {e}");
    let mut engine = engine_for(model)?;
    let mut reference = ReferenceSession::new(model.clone());
    engine.create_session(SEQ).map_err(err)?;
    let doc = &doc[..doc.len().min(160)];
    let prompt = &prompt[..prompt.len().min(256 - doc.len())];
    for (what, tokens) in [("document", doc), ("prompt", prompt)] {
        if !tokens.is_empty() {
            let out = engine.prefill_session(SEQ, tokens).map_err(err)?;
            check_against(&mut reference, tokens, &out.activations, what)?;
        }
    }
    for &token in decode.iter().take(8) {
        let out = engine.decode_batch(&[(SEQ, token)]).map_err(err)?;
        check_against(&mut reference, &[token], &out.activations[0], "decode step")?;
    }
    engine.free_session(SEQ).map_err(err)
}
