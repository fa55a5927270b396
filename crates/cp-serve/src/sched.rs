//! `cp-sched`: the continuous-batching serving scheduler.
//!
//! The engine ([`crate::TransformerEngine`]) knows how to run one chunk of
//! prefill or one fused batched decode tick; this module decides *what*
//! runs each tick under interactive-traffic SLOs:
//!
//! * **Admission queue** — requests (multi-turn conversations with
//!   arrival times, e.g. from [`cp_workload::timed_trace`]) wait in FIFO
//!   order until the tick clock reaches their arrival.
//! * **Continuous batching** — every tick runs **one** fused batched
//!   pass-Q decode over all sessions currently in their decode phase;
//!   sessions join and leave the batch turn by turn, never stalling each
//!   other.
//! * **Chunked prefill** — each tick also advances at most
//!   `prefill_chunk_tokens` of one session's open prefill turn, so a long
//!   prompt is interleaved *between* decode ticks instead of blocking
//!   them: time-between-tokens stays bounded by one chunk, not one
//!   prompt. Chunking is bitwise-invisible (see
//!   [`crate::TransformerEngine::begin_prefill`]).
//! * **Memory pressure** — when the paged KV pool is exhausted, the
//!   scheduler preempts the *youngest* session by FCFS priority
//!   (arrival order): its pages are freed and its conversation requeued
//!   for a full replay — restart-on-evict preemption. A session may only
//!   evict sessions younger than itself (and prefill work is scheduled
//!   oldest-first), so the oldest request always makes progress and
//!   preemption cannot livelock. Only when nothing is evictable does the
//!   typed [`ServeError`] surface to the caller; nothing panics.
//!
//! Metrics are recorded both in ticks (deterministic, what the tests pin)
//! and in wall-clock time (what the `serve_sched` bench reports as
//! p50/p99 TTFT and TBT).

use std::collections::VecDeque;
use std::time::Instant;

use cp_kvcache::SeqId;
use cp_tensor::Tensor;
use cp_workload::{Conversation, TimedRequest};

use crate::{PrefillTurn, ServeError, TransformerEngine};

/// Scheduler policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// Max prefill tokens advanced per tick (one chunk). `0` disables
    /// chunking (a whole turn per tick).
    pub prefill_chunk_tokens: usize,
    /// Max sessions decoding concurrently; admission waits above this.
    pub max_live_sessions: usize,
    /// Abstract time units per tick — converts [`TimedRequest::arrival`]
    /// times to tick numbers for admission.
    pub time_units_per_tick: f64,
    /// Vocabulary size used to synthesize concrete token ids from
    /// [`cp_workload::trace_token`].
    pub vocab: u32,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            prefill_chunk_tokens: 8,
            max_live_sessions: 8,
            time_units_per_tick: 1.0,
            vocab: 128,
        }
    }
}

/// Where a live session is in its conversation.
#[derive(Debug)]
enum Phase {
    /// Waiting to open its next prompt's prefill turn.
    StartTurn,
    /// Mid-prefill: the open chunked turn and how many prompt tokens ran.
    Prefill(Box<PrefillTurn>),
    /// Decoding the turn's response: tokens left to emit.
    Decode { remaining: usize },
}

/// One admitted conversation being served.
#[derive(Debug)]
struct Session {
    seq: SeqId,
    request: u64,
    arrival_tick: u64,
    /// Wall-clock instant the request first became eligible
    /// (`arrival_tick <= tick`); like `arrival_tick` it survives
    /// eviction, so a restart does not reset the request's TTFT clock.
    arrived_at: Instant,
    conversation: Conversation,
    turn_idx: usize,
    /// Tokens of the conversation consumed so far (prompt + response),
    /// used to index the request's deterministic token stream.
    consumed: usize,
    phase: Phase,
    /// Tick the session last ran any work (diagnostics; eviction keys on
    /// FCFS priority, not recency).
    last_scheduled_tick: u64,
    /// Tick the previous response token of the current turn finished, for
    /// TBT accounting.
    last_token_tick: Option<u64>,
    /// Wall-clock instant of the previous response token.
    last_token_at: Option<Instant>,
    /// Per-turn tick of the prefill's start, for TTFT accounting.
    turn_started_tick: u64,
    /// Wall-clock instant of the same.
    turn_started_at: Instant,
    /// How many times this session was evicted and restarted.
    restarts: u32,
    /// Final activations of every emitted response token, in emission
    /// order across all turns (the per-session output the bit-identity
    /// tests compare).
    outputs: Vec<Tensor>,
}

impl Session {
    /// FCFS priority: earlier arrivals (then lower request ids) are
    /// served first and evicted last. Restarts keep the original
    /// arrival, so preemption never demotes a request.
    fn priority(&self) -> (u64, u64) {
        (self.arrival_tick, self.request)
    }
}

/// What one [`Scheduler::tick`] did.
#[derive(Debug, Clone, Default)]
pub struct TickReport {
    /// Tick number (0-based).
    pub tick: u64,
    /// Sessions admitted from the queue this tick.
    pub admitted: usize,
    /// Prefill tokens advanced this tick.
    pub prefill_tokens: usize,
    /// Sessions that received a decoded token this tick.
    pub decoded: usize,
    /// Sessions evicted (and requeued) under memory pressure this tick.
    pub evicted: usize,
    /// Sessions that completed their conversation this tick.
    pub finished: usize,
}

/// Latency and throughput metrics of a scheduler run.
#[derive(Debug, Clone, Default)]
pub struct ServeMetrics {
    /// Ticks from a request's arrival to its first turn's first response
    /// token, one sample per served turn.
    pub ttft_ticks: Vec<u64>,
    /// Wall-clock seconds for the same samples: from the instant the
    /// request became eligible (first turn) or the turn started (later
    /// turns) to the first response token.
    pub ttft_seconds: Vec<f64>,
    /// Ticks between consecutive response tokens of a turn.
    pub tbt_ticks: Vec<u64>,
    /// Wall-clock seconds for the same samples.
    pub tbt_seconds: Vec<f64>,
    /// Total response tokens decoded.
    pub decoded_tokens: usize,
    /// Total prompt tokens prefilled (including eviction replays).
    pub prefilled_tokens: usize,
    /// Total evictions (restart-on-evict preemptions).
    pub evictions: usize,
    /// Conversations fully served.
    pub completed: usize,
}

/// Returns the `q`-quantile (0.0..=1.0) of `samples` by nearest-rank on
/// the sorted data, or `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = ((sorted.len() as f64) * q.clamp(0.0, 1.0)).ceil() as usize;
    sorted
        .get(rank.saturating_sub(1).min(sorted.len() - 1))
        .copied()
}

impl ServeMetrics {
    /// Tick-domain quantile of TTFT.
    pub fn ttft_tick_quantile(&self, q: f64) -> Option<f64> {
        let v: Vec<f64> = self.ttft_ticks.iter().map(|&t| t as f64).collect();
        quantile(&v, q)
    }

    /// Tick-domain quantile of TBT.
    pub fn tbt_tick_quantile(&self, q: f64) -> Option<f64> {
        let v: Vec<f64> = self.tbt_ticks.iter().map(|&t| t as f64).collect();
        quantile(&v, q)
    }
}

/// The continuous-batching scheduler: owns an engine, an admission queue
/// and the live-session table, and advances the system one tick at a
/// time.
#[derive(Debug)]
pub struct Scheduler {
    engine: TransformerEngine,
    config: SchedConfig,
    queue: VecDeque<QueuedRequest>,
    live: Vec<Session>,
    next_seq: u64,
    tick: u64,
    metrics: ServeMetrics,
    /// Outputs of completed conversations, keyed by request id.
    completed: Vec<(u64, Vec<Tensor>)>,
}

#[derive(Debug)]
struct QueuedRequest {
    request: u64,
    arrival_tick: u64,
    /// Set by the first tick that finds the request eligible, admitted
    /// or not: queueing behind the live-session cap counts towards TTFT.
    eligible_at: Option<Instant>,
    conversation: Conversation,
    restarts: u32,
}

impl Scheduler {
    /// Wraps an engine with a scheduling policy.
    pub fn new(engine: TransformerEngine, config: SchedConfig) -> Self {
        Scheduler {
            engine,
            config,
            queue: VecDeque::new(),
            live: Vec::new(),
            next_seq: 1,
            tick: 0,
            metrics: ServeMetrics::default(),
            completed: Vec::new(),
        }
    }

    /// Submits one conversation arriving `arrival` abstract time units
    /// after start (converted to a tick via
    /// [`SchedConfig::time_units_per_tick`]).
    pub fn submit(&mut self, request: u64, arrival: f64, conversation: Conversation) {
        let per_tick = self.config.time_units_per_tick.max(f64::MIN_POSITIVE);
        let arrival_tick = (arrival / per_tick).floor().max(0.0) as u64;
        self.queue.push_back(QueuedRequest {
            request,
            arrival_tick,
            eligible_at: None,
            conversation,
            restarts: 0,
        });
        // Keep FIFO in arrival order even if callers submit out of order.
        let mut items: Vec<QueuedRequest> = self.queue.drain(..).collect();
        items.sort_by_key(|r| (r.arrival_tick, r.request, r.restarts));
        self.queue = items.into();
    }

    /// Submits a whole timed trace.
    pub fn submit_trace(&mut self, trace: &[TimedRequest]) {
        for r in trace {
            self.submit(r.id, r.arrival, r.conversation.clone());
        }
    }

    /// Live + queued work remaining.
    pub fn pending(&self) -> usize {
        self.queue.len() + self.live.len()
    }

    /// Metrics collected so far.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &TransformerEngine {
        &self.engine
    }

    /// Per-request response-token activations of completed conversations,
    /// in completion order.
    pub fn outputs(&self) -> &[(u64, Vec<Tensor>)] {
        &self.completed
    }

    /// The `index`-th token of `request`'s deterministic stream.
    fn token(&self, request: u64, index: usize) -> u32 {
        cp_workload::trace_token(request, index, self.config.vocab)
    }

    /// Runs ticks until every submitted conversation completes, with a
    /// safety cap.
    ///
    /// # Errors
    ///
    /// Propagates the first unrecoverable engine error (including
    /// out-of-pages when no other session is evictable).
    pub fn run_to_completion(&mut self, max_ticks: u64) -> Result<Vec<TickReport>, ServeError> {
        let mut reports = Vec::new();
        while self.pending() > 0 {
            if reports.len() as u64 >= max_ticks {
                return Err(ServeError::Core(cp_core::CoreError::Internal {
                    detail: format!("scheduler did not drain within {max_ticks} ticks"),
                }));
            }
            reports.push(self.tick()?);
        }
        Ok(reports)
    }

    /// Advances the system one tick: admit arrivals, run one prefill
    /// chunk, run one fused batched decode over every decoding session.
    ///
    /// # Errors
    ///
    /// Engine failures propagate. Out-of-pages triggers restart-on-evict
    /// preemption first; the error only surfaces when no other session
    /// can be evicted.
    pub fn tick(&mut self) -> Result<TickReport, ServeError> {
        let mut report = TickReport {
            tick: self.tick,
            ..TickReport::default()
        };

        report.admitted = self.admit()?;
        self.advance_turn_starts(&mut report)?;
        self.run_prefill_chunk(&mut report)?;
        self.run_decode_tick(&mut report)?;
        report.finished = self.retire_finished()?;

        self.tick += 1;
        Ok(report)
    }

    /// Admits queued requests whose arrival tick has come, while below
    /// the live-session cap.
    fn admit(&mut self) -> Result<usize, ServeError> {
        let now = Instant::now();
        let tick = self.tick;
        // The queue is in arrival order (evicted requests, already
        // stamped, sit at its head), so the eligible ones are a prefix.
        for r in self.queue.iter_mut().take_while(|r| r.arrival_tick <= tick) {
            r.eligible_at.get_or_insert(now);
        }
        let mut admitted = 0;
        while self.live.len() < self.config.max_live_sessions {
            let ready = self
                .queue
                .front()
                .is_some_and(|r| r.arrival_tick <= self.tick);
            if !ready {
                break;
            }
            let Some(r) = self.queue.pop_front() else {
                break;
            };
            let seq = SeqId(self.next_seq);
            self.next_seq += 1;
            self.engine.create_session(seq)?;
            self.live.push(Session {
                seq,
                request: r.request,
                arrival_tick: r.arrival_tick,
                arrived_at: r.eligible_at.unwrap_or(now),
                conversation: r.conversation,
                turn_idx: 0,
                consumed: 0,
                phase: Phase::StartTurn,
                last_scheduled_tick: self.tick,
                last_token_tick: None,
                last_token_at: None,
                turn_started_tick: self.tick,
                turn_started_at: now,
                restarts: r.restarts,
                outputs: Vec::new(),
            });
            admitted += 1;
        }
        Ok(admitted)
    }

    /// Opens prefill turns for sessions at a turn boundary. Opening is
    /// cheap (no ring work): it fixes the turn's sharding and variant.
    fn advance_turn_starts(&mut self, _report: &mut TickReport) -> Result<(), ServeError> {
        for i in 0..self.live.len() {
            if !matches!(self.live[i].phase, Phase::StartTurn) {
                continue;
            }
            let (seq, request, consumed, turn_idx) = {
                let s = &self.live[i];
                (s.seq, s.request, s.consumed, s.turn_idx)
            };
            let Some(turn) = self.live[i].conversation.turns.get(turn_idx).copied() else {
                continue; // retired below
            };
            let prompt: Vec<u32> = (0..turn.prompt_tokens)
                .map(|j| self.token(request, consumed + j))
                .collect();
            let open = self.engine.begin_prefill(seq, &prompt, None)?;
            let s = &mut self.live[i];
            s.turn_started_tick = self.tick;
            s.turn_started_at = Instant::now();
            s.phase = Phase::Prefill(Box::new(open));
        }
        Ok(())
    }

    /// Advances at most one chunk of the longest-waiting open prefill.
    fn run_prefill_chunk(&mut self, report: &mut TickReport) -> Result<(), ServeError> {
        // Pick the oldest session (FCFS priority) with an open turn: the
        // head-of-line request always gets the prefill slot, which is
        // what guarantees forward progress under preemption.
        let Some(target) = self
            .live
            .iter()
            .filter(|s| matches!(s.phase, Phase::Prefill(_)))
            .min_by_key(|s| s.priority())
            .map(|s| s.seq)
        else {
            return Ok(());
        };
        let chunk = if self.config.prefill_chunk_tokens == 0 {
            usize::MAX
        } else {
            self.config.prefill_chunk_tokens
        };
        loop {
            // Re-locate by session id each attempt: eviction below
            // swap-removes from `live`, invalidating indices.
            let Some(i) = self.live.iter().position(|s| s.seq == target) else {
                return Ok(());
            };
            let Phase::Prefill(turn) = &mut self.live[i].phase else {
                return Ok(());
            };
            let step = chunk.min(turn.remaining()).max(1);
            match self.engine.prefill_chunk(turn, step) {
                Ok(outcome) => {
                    let c = outcome.activations.shape()[0];
                    report.prefill_tokens += c;
                    self.metrics.prefilled_tokens += c;
                    let s = &mut self.live[i];
                    let done = match &s.phase {
                        Phase::Prefill(t) => t.is_done(),
                        _ => false,
                    };
                    s.last_scheduled_tick = self.tick;
                    s.consumed += c;
                    if done {
                        let response = s
                            .conversation
                            .turns
                            .get(s.turn_idx)
                            .map_or(0, |t| t.response_tokens);
                        s.last_token_tick = None;
                        s.last_token_at = None;
                        s.phase = Phase::Decode {
                            remaining: response,
                        };
                    }
                    return Ok(());
                }
                Err(e) if e.is_out_of_pages() => {
                    let requester = self
                        .live
                        .iter()
                        .find(|s| s.seq == target)
                        .map(Session::priority);
                    if self.evict_youngest(requester, report)? == 0 {
                        if self.live.len() <= 1 {
                            // Nothing to wait for: the request alone
                            // exceeds the pool. Surface the typed error.
                            return Err(e);
                        }
                        // Only older sessions hold pages; wait for them
                        // to finish instead of evicting (which could
                        // ping-pong forever). The chunk rolled back, so
                        // retrying next tick is safe.
                        return Ok(());
                    }
                    // Retry the same chunk with the freed pages; the open
                    // turn is untouched (failed chunks roll back).
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Runs one fused batched decode over every session in decode phase.
    fn run_decode_tick(&mut self, report: &mut TickReport) -> Result<(), ServeError> {
        loop {
            let batch: Vec<(usize, SeqId, u32)> = self
                .live
                .iter()
                .enumerate()
                .filter_map(|(i, s)| match s.phase {
                    Phase::Decode { remaining } if remaining > 0 => {
                        Some((i, s.seq, self.token(s.request, s.consumed)))
                    }
                    _ => None,
                })
                .collect();
            if batch.is_empty() {
                // Turns with zero response tokens still advance.
                self.finish_empty_decodes();
                return Ok(());
            }
            let engine_batch: Vec<(SeqId, u32)> =
                batch.iter().map(|&(_, seq, tok)| (seq, tok)).collect();
            match self.engine.decode_batch(&engine_batch) {
                Ok(outcome) => {
                    let now = Instant::now();
                    for (&(i, ..), activations) in batch.iter().zip(outcome.activations) {
                        self.record_token(i, activations, now);
                    }
                    report.decoded = batch.len();
                    self.finish_empty_decodes();
                    return Ok(());
                }
                Err(e) if e.is_out_of_pages() => {
                    // Preempt the youngest session to un-wedge the batch
                    // (it may itself be a batch member — the batch is
                    // rebuilt each retry). With a single live session
                    // there is nothing to trade off: surface the error.
                    if self.live.len() <= 1 || self.evict_youngest(None, report)? == 0 {
                        return Err(e);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Records one decoded token for session `i`.
    fn record_token(&mut self, i: usize, activations: Tensor, now: Instant) {
        let tick = self.tick;
        let metrics = &mut self.metrics;
        let Some(s) = self.live.get_mut(i) else {
            return;
        };
        match (s.last_token_tick, s.last_token_at) {
            (Some(prev_tick), Some(prev_at)) => {
                metrics.tbt_ticks.push(tick - prev_tick);
                metrics
                    .tbt_seconds
                    .push(now.duration_since(prev_at).as_secs_f64());
            }
            _ => {
                // First token of the turn. TTFT of the conversation's
                // first turn counts from arrival; later turns from the
                // turn's start.
                let (from_tick, from_at) = if s.turn_idx == 0 {
                    (s.arrival_tick, s.arrived_at)
                } else {
                    (s.turn_started_tick, s.turn_started_at)
                };
                metrics.ttft_ticks.push(tick.saturating_sub(from_tick));
                metrics
                    .ttft_seconds
                    .push(now.duration_since(from_at).as_secs_f64());
            }
        }
        s.last_token_tick = Some(tick);
        s.last_token_at = Some(now);
        s.last_scheduled_tick = tick;
        s.consumed += 1;
        s.outputs.push(activations);
        metrics.decoded_tokens += 1;
        if let Phase::Decode { remaining } = &mut s.phase {
            *remaining -= 1;
            if *remaining == 0 {
                s.turn_idx += 1;
                s.phase = Phase::StartTurn;
            }
        }
    }

    /// Advances decode phases that have nothing to emit.
    fn finish_empty_decodes(&mut self) {
        for s in &mut self.live {
            if matches!(s.phase, Phase::Decode { remaining: 0 }) {
                s.turn_idx += 1;
                s.phase = Phase::StartTurn;
            }
        }
    }

    /// Evicts the youngest live session (FCFS priority) — strictly
    /// younger than `older_than` when given: frees its pages and requeues
    /// its conversation for a full replay at the head of the queue.
    /// Restart-on-evict keeps correctness trivially (the replay is
    /// bit-identical — same request id, same token stream) at the cost of
    /// recomputing the evicted context.
    fn evict_youngest(
        &mut self,
        older_than: Option<(u64, u64)>,
        report: &mut TickReport,
    ) -> Result<usize, ServeError> {
        let Some(victim_idx) = self
            .live
            .iter()
            .enumerate()
            .filter(|&(_, s)| older_than.is_none_or(|p| s.priority() > p))
            .max_by_key(|(_, s)| s.priority())
            .map(|(i, _)| i)
        else {
            return Ok(0);
        };
        let victim = self.live.swap_remove(victim_idx);
        self.engine.free_session(victim.seq)?;
        self.queue.push_front(QueuedRequest {
            request: victim.request,
            arrival_tick: victim.arrival_tick,
            eligible_at: Some(victim.arrived_at),
            conversation: victim.conversation,
            restarts: victim.restarts + 1,
        });
        report.evicted += 1;
        self.metrics.evictions += 1;
        Ok(1)
    }

    /// Retires sessions whose conversations are complete.
    fn retire_finished(&mut self) -> Result<usize, ServeError> {
        let mut finished = 0;
        let mut i = 0;
        while i < self.live.len() {
            let done = matches!(self.live[i].phase, Phase::StartTurn)
                && self.live[i].turn_idx >= self.live[i].conversation.turns.len();
            if done {
                let s = self.live.swap_remove(i);
                self.engine.free_session(s.seq)?;
                self.completed.push((s.request, s.outputs));
                self.metrics.completed += 1;
                finished += 1;
            } else {
                i += 1;
            }
        }
        Ok(finished)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_core::KvPrecision;
    use cp_model::{Transformer, TransformerConfig};
    use cp_workload::Turn;

    fn engine(n_ranks: usize) -> TransformerEngine {
        let model = Transformer::new(&TransformerConfig::tiny(), 11);
        TransformerEngine::new(model, n_ranks).unwrap()
    }

    fn conv(turns: &[(usize, usize)]) -> Conversation {
        Conversation {
            turns: turns
                .iter()
                .map(|&(p, r)| Turn {
                    prompt_tokens: p,
                    response_tokens: r,
                })
                .collect(),
        }
    }

    #[test]
    fn drains_a_small_trace_and_counts_tokens() {
        let mut sched = Scheduler::new(engine(2), SchedConfig::default());
        sched.submit(0, 0.0, conv(&[(6, 3), (2, 2)]));
        sched.submit(1, 0.0, conv(&[(4, 2)]));
        let reports = sched.run_to_completion(500).unwrap();
        assert!(!reports.is_empty());
        assert_eq!(sched.pending(), 0);
        let m = sched.metrics();
        assert_eq!(m.decoded_tokens, 3 + 2 + 2);
        assert_eq!(m.prefilled_tokens, 6 + 2 + 4);
        assert_eq!(m.completed, 2);
        // One TTFT sample per served turn.
        assert_eq!(m.ttft_ticks.len(), 3);
        // TBT samples: (3-1) + (2-1) + (2-1).
        assert_eq!(m.tbt_ticks.len(), 4);
        // Outputs captured per request.
        let mut outs: Vec<_> = sched
            .outputs()
            .iter()
            .map(|(id, o)| (*id, o.len()))
            .collect();
        outs.sort_unstable();
        assert_eq!(outs, vec![(0, 5), (1, 2)]);
        // All sessions were freed.
        assert!(sched.engine().sessions().is_empty());
    }

    #[test]
    fn ttft_seconds_count_from_eligibility_not_from_construction() {
        // Two identical requests, the second arriving long after the
        // first finished: their wall-clock TTFTs are the same work, so
        // the idle gap between them must not show in the second's.
        let gap = std::time::Duration::from_millis(300);
        let mut sched = Scheduler::new(engine(1), SchedConfig::default());
        sched.submit(0, 0.0, conv(&[(4, 2)]));
        sched.submit(1, 40.0, conv(&[(4, 2)]));
        while sched.metrics().completed < 1 {
            sched.tick().unwrap();
        }
        std::thread::sleep(gap);
        sched.run_to_completion(200).unwrap();
        let m = sched.metrics();
        assert_eq!(m.ttft_ticks, vec![m.ttft_ticks[0]; 2]);
        let (first, second) = (m.ttft_seconds[0], m.ttft_seconds[1]);
        assert!(
            second < first + gap.as_secs_f64() / 2.0,
            "second request's TTFT {second} s carries the idle gap (first: {first} s)"
        );
    }

    #[test]
    fn arrivals_gate_admission() {
        let mut sched = Scheduler::new(engine(1), SchedConfig::default());
        sched.submit(0, 0.0, conv(&[(2, 1)]));
        sched.submit(1, 5.0, conv(&[(2, 1)]));
        let r0 = sched.tick().unwrap();
        assert_eq!(r0.admitted, 1);
        // Request 1 has not arrived yet.
        let r1 = sched.tick().unwrap();
        assert_eq!(r1.admitted, 0);
        let reports = sched.run_to_completion(100).unwrap();
        let admitted_late: usize = reports.iter().map(|r| r.admitted).sum();
        assert_eq!(admitted_late, 1);
        assert_eq!(sched.metrics().completed, 2);
    }

    #[test]
    fn live_session_cap_is_respected() {
        let config = SchedConfig {
            max_live_sessions: 2,
            ..SchedConfig::default()
        };
        let mut sched = Scheduler::new(engine(1), config);
        for id in 0..5 {
            sched.submit(id, 0.0, conv(&[(3, 2)]));
        }
        let r = sched.tick().unwrap();
        assert_eq!(r.admitted, 2);
        sched.run_to_completion(200).unwrap();
        assert_eq!(sched.metrics().completed, 5);
    }

    #[test]
    fn eviction_requeues_and_completes_under_memory_pressure() {
        // Pool of 2 16-token pages per (rank, layer). Request 0 (oldest,
        // 8 prompt + 16 response = 24 tokens) and request 1 (20 + 2 = 22
        // tokens) cannot coexist: when request 0's decode crosses into
        // its second page, the scheduler must preempt the younger
        // request 1 (restart-on-evict) — and both still complete.
        let model = Transformer::new(&TransformerConfig::tiny(), 12);
        let engine = TransformerEngine::with_cache_limit(model, 1, Some(2)).unwrap();
        let mut sched = Scheduler::new(engine, SchedConfig::default());
        sched.submit(0, 0.0, conv(&[(8, 16)]));
        sched.submit(1, 0.0, conv(&[(20, 2)]));
        sched.run_to_completion(500).unwrap();
        let m = sched.metrics();
        assert_eq!(m.completed, 2);
        assert!(m.evictions > 0, "expected restart-on-evict preemptions");
        // Replays re-prefill, so prefilled tokens exceed the nominal 28.
        assert!(m.prefilled_tokens > 28, "{}", m.prefilled_tokens);
        assert_eq!(m.decoded_tokens, 18);
    }

    #[test]
    fn eviction_drains_under_memory_pressure_across_ranks() {
        // At CP > 1 the rank that runs out of pages is often not rank 0,
        // and its peers see only its exit. Its out-of-pages error must
        // still reach the scheduler, which then evicts instead of failing
        // the tick. Eight live 3-turn conversations need more than the
        // 20 pages per (rank, layer). INT8 storage shares the f32 pages,
        // so it runs out, evicts and drains the same way.
        for precision in [KvPrecision::F32, KvPrecision::Int8Total] {
            for n_ranks in [2, 3] {
                let model = Transformer::new(&TransformerConfig::tiny(), 14);
                let engine = TransformerEngine::with_cache_limit(model, n_ranks, Some(20))
                    .unwrap()
                    .with_kv_precision(precision);
                let mut sched = Scheduler::new(engine, SchedConfig::default());
                for id in 0..10 {
                    sched.submit(id, 0.0, conv(&[(20, 20), (20, 20), (20, 20)]));
                }
                sched.run_to_completion(20_000).unwrap();
                let m = sched.metrics();
                let at = format!("cp={n_ranks} {precision:?}");
                assert_eq!(m.completed, 10, "{at}");
                assert!(m.evictions > 0, "{at}: expected preemptions");
                // Replays decode again, but each request keeps one full output.
                assert!(sched.outputs().iter().all(|(_, o)| o.len() == 60), "{at}");
            }
        }
    }

    #[test]
    fn oom_with_nothing_evictable_is_a_typed_error() {
        // A single conversation larger than the whole pool: no other
        // session to evict, so the typed out-of-pages error surfaces.
        let model = Transformer::new(&TransformerConfig::tiny(), 13);
        let engine = TransformerEngine::with_cache_limit(model, 1, Some(2)).unwrap();
        let mut sched = Scheduler::new(engine, SchedConfig::default());
        sched.submit(0, 0.0, conv(&[(100, 1)]));
        let err = sched.run_to_completion(100).unwrap_err();
        assert!(err.is_out_of_pages(), "{err:?}");
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
    }
}
