//! Rank spawning and the per-rank [`Communicator`] handle.

use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use cp_pool::ComputePool;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};

use crate::plan::{ExpectedRecv, PlanChecker};
use crate::stats::{Collective, TimedEvent, TimelineLane};
use crate::{CommError, CommPlan, TrafficReport, TrafficStats, Wire};

/// Default for how long a blocked receive waits before failing. Generous
/// enough for any legitimate collective in the test suite, short enough
/// that a genuinely wedged ring fails the run instead of hanging it.
/// Override per run with [`Fabric::recv_timeout`].
pub const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// A modeled interconnect: per-message latency plus bandwidth-proportional
/// transfer time. Threads exchange pointers in nanoseconds, which would make
/// comm/compute overlap unmeasurable; installing a `LinkModel` via
/// [`Fabric::link`] stamps each message with a delivery instant so a receive
/// completes no earlier than a real wire transfer would. The delay runs
/// concurrently with whatever the receiving rank does in the meantime —
/// exactly the property double-buffered ring hops exploit.
///
/// `None` (the default) keeps today's zero-delay behavior bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Fixed per-message latency.
    pub latency: Duration,
    /// Link bandwidth in GiB/s; non-finite or non-positive means
    /// latency-only (no size-proportional term).
    pub gib_per_s: f64,
}

impl LinkModel {
    /// A latency-only link (infinite bandwidth).
    pub fn latency_only(latency: Duration) -> Self {
        LinkModel {
            latency,
            gib_per_s: f64::INFINITY,
        }
    }

    /// Modeled wire time for a message of `bytes`.
    pub fn delay(&self, bytes: usize) -> Duration {
        let transfer = if self.gib_per_s.is_finite() && self.gib_per_s > 0.0 {
            Duration::from_secs_f64(bytes as f64 / (self.gib_per_s * (1u64 << 30) as f64))
        } else {
            Duration::ZERO
        };
        self.latency.saturating_add(transfer)
    }
}

/// Physical shape of the rank group: `nodes` hosts with `ranks_per_node`
/// ranks each, rank `r` living on node `r / ranks_per_node`. Drives both
/// the heterogeneous link model ([`LinkPolicy::Topo`]) and the
/// hierarchical ring schedules in `cp_core::schedule`, which keep bulk
/// traffic on intra-node links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Number of hosts.
    pub nodes: usize,
    /// Ranks per host.
    pub ranks_per_node: usize,
}

impl Topology {
    /// A topology of `nodes` hosts × `ranks_per_node` ranks.
    pub fn new(nodes: usize, ranks_per_node: usize) -> Self {
        Topology {
            nodes,
            ranks_per_node,
        }
    }

    /// Total ranks in the group.
    pub fn world(&self) -> usize {
        self.nodes * self.ranks_per_node
    }

    /// The node hosting `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.ranks_per_node.max(1)
    }

    /// Whether two ranks share a host (and therefore the fast link).
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }
}

/// Which [`LinkModel`] (if any) governs each (src, dst) channel.
///
/// The uniform policy is the historical single-`LinkModel` fabric; the
/// topology policy models a heterogeneous interconnect — fast intra-node
/// links, slow cross-node links — so schedules that keep bulk traffic
/// inside a node measurably win.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkPolicy {
    /// One model for every channel; `None` = instant delivery.
    Uniform(Option<LinkModel>),
    /// Per-link models keyed by whether the endpoints share a node.
    Topo {
        /// The node layout assigning ranks to hosts.
        topo: Topology,
        /// Model for channels whose endpoints share a node.
        intra: LinkModel,
        /// Model for channels crossing nodes.
        cross: LinkModel,
    },
}

impl Default for LinkPolicy {
    fn default() -> Self {
        LinkPolicy::Uniform(None)
    }
}

impl LinkPolicy {
    /// The model governing the `src → dst` channel, if any.
    pub fn model_for(&self, src: usize, dst: usize) -> Option<LinkModel> {
        match self {
            LinkPolicy::Uniform(m) => *m,
            LinkPolicy::Topo { topo, intra, cross } => Some(if topo.same_node(src, dst) {
                *intra
            } else {
                *cross
            }),
        }
    }
}

/// A message in flight: the payload plus the instant the modeled wire
/// finishes delivering it (`None` without a [`LinkModel`]).
#[derive(Debug)]
struct Envelope<M> {
    msg: M,
    deliver_at: Option<Instant>,
}

impl<M> Envelope<M> {
    /// Whether the modeled wire has finished delivering this message.
    fn delivered(&self) -> bool {
        self.deliver_at.is_none_or(|at| Instant::now() >= at)
    }

    /// Blocks out the remaining modeled wire time, then yields the payload.
    fn settle(self) -> M {
        if let Some(at) = self.deliver_at {
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
        }
        self.msg
    }
}

/// A rank's handle to the fabric: point-to-point sends/receives plus the
/// collectives the paper's algorithms use (`SendRecv` ring steps,
/// `All2All`, `AllGather`, `AllReduce`, barrier).
///
/// One `Communicator` is handed to each rank closure by [`run_ranks`]. All
/// channels are unbounded, so `send` never blocks — which is exactly the
/// property that makes the symmetric ring schedule (every rank sends, then
/// receives) deadlock-free, mirroring NCCL's buffered `SendRecv`. That
/// property is no longer only asserted here: the schedules are declared as
/// [`CommPlan`] data, model-checked offline by `cp-verify`, and enforced
/// against live traffic when the fabric runs in [`CheckedFabric`] mode.
#[derive(Debug)]
pub struct Communicator<M: Wire> {
    rank: usize,
    world: usize,
    /// `receivers[src]` yields messages sent by rank `src`. Declared (and
    /// therefore dropped) before `senders`: once a peer observes this
    /// rank's exit as a failed `recv`, its sends to this rank fail too.
    receivers: Vec<Receiver<Envelope<M>>>,
    /// `senders[dst]` delivers to rank `dst`'s `receivers[self.rank]`.
    senders: Vec<Sender<Envelope<M>>>,
    ctrl_senders: Vec<Sender<()>>,
    ctrl_receivers: Vec<Receiver<()>>,
    recv_timeout: Duration,
    /// Modeled wire delay per channel; [`LinkPolicy::Uniform`]`(None)` =
    /// instant.
    links: LinkPolicy,
    /// When a channel is modeled, the instant `senders[dst]` frees up:
    /// each (src, dst) channel carries one message at a time, so two
    /// payloads pushed down the *same* link serialize while payloads on
    /// different links (e.g. the two directions of a bidirectional ring)
    /// genuinely overlap. Indexed by `dst`; only this rank sends on these
    /// channels, so a local lock suffices.
    link_busy: Mutex<Vec<Option<Instant>>>,
    /// Plan cursor when running under a [`CheckedFabric`]; `None` in
    /// unchecked mode.
    checker: Option<Mutex<PlanChecker>>,
    stats: Arc<TrafficStats>,
    /// This rank's persistent compute workers, created on first use so
    /// comm-only runs never pay the spawn.
    pool: OnceLock<ComputePool>,
    /// Total threads for [`Communicator::pool`]; 0 = machine parallelism.
    pool_threads: usize,
}

impl<M: Wire> Communicator<M> {
    /// This rank's index in `0..world_size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the group.
    pub fn world_size(&self) -> usize {
        self.world
    }

    /// The next rank around the ring (`rank + 1 mod N`).
    pub fn ring_next(&self) -> usize {
        (self.rank + 1) % self.world
    }

    /// The previous rank around the ring (`rank - 1 mod N`).
    pub fn ring_prev(&self) -> usize {
        (self.rank + self.world - 1) % self.world
    }

    /// The link model governing this rank's channel to `dst`, if any.
    pub fn link_to(&self, dst: usize) -> Option<LinkModel> {
        self.links.model_for(self.rank, dst)
    }

    /// Runs `f` on the plan checker if one is installed; `Ok(None)` in
    /// unchecked mode.
    fn with_checker<R>(
        &self,
        f: impl FnOnce(&mut PlanChecker) -> Result<R, CommError>,
    ) -> Result<Option<R>, CommError> {
        match &self.checker {
            None => Ok(None),
            Some(m) => {
                let mut guard = m.lock().unwrap_or_else(PoisonError::into_inner);
                f(&mut guard).map(Some)
            }
        }
    }

    /// Validates a received message against the plan's expectation, if
    /// running checked.
    fn check_received(
        &self,
        expected: Option<&ExpectedRecv>,
        src: usize,
        msg: &M,
    ) -> Result<(), CommError> {
        if let Some(exp) = expected {
            self.with_checker(|c| {
                c.check_received(exp, src, msg.wire_variant(), msg.wire_bytes())
            })?;
        }
        Ok(())
    }

    /// Asserts this rank consumed its whole declared plan. No-op in
    /// unchecked mode; called by the fabric when the rank closure returns.
    fn finish_plan(&self) -> Result<(), CommError> {
        self.with_checker(|c| c.finish()).map(|_| ())
    }

    /// Delivers `msg` to rank `dst`, attributing its wire bytes to
    /// `collective`. Bytes are recorded only after the send succeeded, so a
    /// failed delivery never inflates the traffic accounting.
    fn deliver(&self, dst: usize, msg: M, collective: Collective) -> Result<(), CommError> {
        let sender = self.senders.get(dst).ok_or(CommError::RankOutOfRange {
            rank: dst,
            world_size: self.world,
        })?;
        let bytes = msg.wire_bytes();
        // A modeled channel carries one message at a time: a payload posted
        // while the previous one is still on the wire queues behind it.
        // This keeps same-link chunking honest (halves serialize) while
        // distinct links — the two ring directions, or different peers —
        // genuinely run in parallel.
        let deliver_at = self.links.model_for(self.rank, dst).map(|l| {
            let mut busy = self
                .link_busy
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let now = Instant::now();
            let start = match busy.get(dst).copied().flatten() {
                Some(free_at) if free_at > now => free_at,
                _ => now,
            };
            let at = start + l.delay(bytes);
            if let Some(slot) = busy.get_mut(dst) {
                *slot = Some(at);
            }
            at
        });
        sender
            .send(Envelope { msg, deliver_at })
            .map_err(|_| CommError::SendFailed { dst })?;
        self.stats.record_bytes(collective, bytes);
        Ok(())
    }

    /// Blocking receive with the fabric timeout; no accounting (bytes are
    /// metered on the sending side).
    fn receive(&self, src: usize) -> Result<M, CommError> {
        self.receive_by(src, Instant::now() + self.recv_timeout)
    }

    /// Blocking receive that gives up at `deadline` — the shared primitive
    /// for fresh receives (deadline = now + fabric timeout) and for waiting
    /// on an already-posted [`PendingRecv`] (deadline fixed at post time).
    fn receive_by(&self, src: usize, deadline: Instant) -> Result<M, CommError> {
        let receiver = self.receivers.get(src).ok_or(CommError::RankOutOfRange {
            rank: src,
            world_size: self.world,
        })?;
        let remaining = deadline.saturating_duration_since(Instant::now());
        receiver
            .recv_timeout(remaining)
            .map(Envelope::settle)
            .map_err(|e| CommError::RecvFailed {
                src,
                timed_out: matches!(e, RecvTimeoutError::Timeout),
            })
    }

    /// Times `f` as one call of `collective` on this rank, recording wall
    /// time and a timeline event whether it succeeds or fails.
    fn timed<R>(
        &self,
        collective: Collective,
        f: impl FnOnce() -> Result<R, CommError>,
    ) -> Result<R, CommError> {
        let start = self.stats.now_ns();
        let out = f();
        let dur = self.stats.now_ns().saturating_sub(start);
        self.stats.record_call(collective, dur);
        self.stats.record_event(TimedEvent {
            rank: self.rank,
            lane: TimelineLane::Comm,
            label: collective.name().to_string(),
            start_ns: start,
            dur_ns: dur,
            overlapped_ns: 0,
        });
        out
    }

    /// Runs `f` and records it as a named compute interval on this rank's
    /// measured timeline, so traces show compute and communication side by
    /// side (the paper's overlap diagnosis, on measured wall time).
    pub fn time_compute<R>(&self, label: &str, f: impl FnOnce() -> R) -> R {
        let start = self.stats.now_ns();
        let out = f();
        let dur = self.stats.now_ns().saturating_sub(start);
        self.stats.record_event(TimedEvent {
            rank: self.rank,
            lane: TimelineLane::Compute,
            label: label.to_string(),
            start_ns: start,
            dur_ns: dur,
            overlapped_ns: 0,
        });
        out
    }

    /// Sends a message to rank `dst`. Never blocks (channels are unbounded).
    ///
    /// # Errors
    ///
    /// [`CommError::RankOutOfRange`] for a bad destination,
    /// [`CommError::SendFailed`] if the peer has already exited, or
    /// [`CommError::PlanViolation`] in checked mode if the plan declares a
    /// different op here.
    pub fn send(&self, dst: usize, msg: M) -> Result<(), CommError> {
        self.timed(Collective::SendRecv, || {
            self.with_checker(|c| c.expect_send(dst, msg.wire_variant(), msg.wire_bytes()))?;
            self.deliver(dst, msg, Collective::SendRecv)
        })
    }

    /// Receives the next message from rank `src`, blocking up to the
    /// fabric's receive timeout.
    ///
    /// # Errors
    ///
    /// [`CommError::RankOutOfRange`] for a bad source,
    /// [`CommError::RecvFailed`] on timeout / peer exit, or
    /// [`CommError::PlanViolation`] in checked mode.
    pub fn recv(&self, src: usize) -> Result<M, CommError> {
        let expected = self.with_checker(|c| c.expect_recv(src))?;
        let msg = self.receive(src)?;
        self.check_received(expected.as_ref(), src, &msg)?;
        Ok(msg)
    }

    /// One ring step: send `msg` to `dst`, then receive from `src`.
    ///
    /// This is the NCCL `SendRecv` the paper's ring loop issues every
    /// iteration. The send is buffered, so all ranks can post sends before
    /// any posts its receive. Counted as a single `send_recv` call whose
    /// wall time spans both halves.
    ///
    /// # Errors
    ///
    /// Propagates [`Communicator::send`] / [`Communicator::recv`] errors;
    /// [`CommError::PlanViolation`] in checked mode if peers, variants or
    /// byte counts diverge from the declared plan.
    pub fn send_recv(&self, dst: usize, msg: M, src: usize) -> Result<M, CommError> {
        self.timed(Collective::SendRecv, || {
            let expected = self.with_checker(|c| {
                c.expect_send_recv(dst, src, msg.wire_variant(), msg.wire_bytes())
            })?;
            self.deliver(dst, msg, Collective::SendRecv)?;
            let got = self.receive(src)?;
            self.check_received(expected.as_ref(), src, &got)?;
            Ok(got)
        })
    }

    /// Nonblocking send: validates against the plan, buffers the message,
    /// and returns a [`PendingSend`] handle. Channels are unbounded, so the
    /// send half of a hop completes at post time — the handle exists so call
    /// sites read symmetrically with [`Communicator::irecv`] and stay
    /// correct if a bounded transport ever replaces the channels.
    ///
    /// Accounting is identical to [`Communicator::send`] (one `send_recv`
    /// call recorded at post).
    ///
    /// # Errors
    ///
    /// As [`Communicator::send`].
    pub fn isend(&self, dst: usize, msg: M) -> Result<PendingSend, CommError> {
        self.send(dst, msg)?;
        Ok(PendingSend { _posted: () })
    }

    /// Nonblocking receive: validates the op against the plan *now* (post
    /// time) and returns a [`PendingRecv`] handle. The message is claimed by
    /// `wait()` / `try_complete()`; until then the calling rank is free to
    /// compute. The handle's deadline is `now + recv_timeout`, so a wedged
    /// peer surfaces as a timeout naming `src` no matter how late `wait()`
    /// is called.
    ///
    /// Like [`Communicator::recv`], a plain `irecv` records no collective
    /// call; pair it with [`Communicator::isend_irecv`] for accounted ring
    /// hops.
    ///
    /// # Errors
    ///
    /// [`CommError::RankOutOfRange`] for a bad source, or
    /// [`CommError::PlanViolation`] in checked mode.
    pub fn irecv(&self, src: usize) -> Result<PendingRecv<'_, M>, CommError> {
        if src >= self.world {
            return Err(CommError::RankOutOfRange {
                rank: src,
                world_size: self.world,
            });
        }
        let expected = self.with_checker(|c| c.expect_recv(src))?;
        Ok(self.pending(src, expected, None))
    }

    /// Nonblocking ring hop: posts the send *and* the receive of one
    /// `SendRecv` step, validating both halves against the plan at post
    /// time, and returns the receive handle. The caller overlaps compute
    /// with the in-flight hop and claims the incoming shard with `wait()`
    /// at the loop bottom — the double-buffered form of
    /// [`Communicator::send_recv`].
    ///
    /// Accounting: consumes exactly one declared `SendRecv` op and records
    /// exactly one `send_recv` call when the handle completes, so plans and
    /// `predicted_traffic` are unchanged versus the blocking hop. The
    /// recorded event's `overlapped_ns` is the span between this post and
    /// the moment the caller started blocking in `wait()` — the comm time
    /// hidden under compute.
    ///
    /// # Errors
    ///
    /// As [`Communicator::send_recv`] for the post half; receive-side
    /// errors surface from the handle.
    pub fn isend_irecv(
        &self,
        dst: usize,
        msg: M,
        src: usize,
    ) -> Result<PendingRecv<'_, M>, CommError> {
        if src >= self.world {
            return Err(CommError::RankOutOfRange {
                rank: src,
                world_size: self.world,
            });
        }
        let start_ns = self.stats.now_ns();
        let expected = self
            .with_checker(|c| c.expect_send_recv(dst, src, msg.wire_variant(), msg.wire_bytes()))?;
        self.deliver(dst, msg, Collective::SendRecv)?;
        let mut pending = self.pending(src, expected, Some(Collective::SendRecv));
        pending.start_ns = start_ns;
        Ok(pending)
    }

    /// Builds a receive handle whose deadline starts counting now.
    fn pending(
        &self,
        src: usize,
        expected: Option<ExpectedRecv>,
        record: Option<Collective>,
    ) -> PendingRecv<'_, M> {
        PendingRecv {
            comm: self,
            src,
            expected,
            record,
            deadline: Instant::now() + self.recv_timeout,
            start_ns: self.stats.now_ns(),
            buffered: None,
        }
    }

    /// This rank's persistent compute pool, created on first use. Ring
    /// loops and attention kernels run their parallel sections here instead
    /// of spawning scoped threads per call.
    pub fn pool(&self) -> &ComputePool {
        self.pool.get_or_init(|| {
            if self.pool_threads == 0 {
                ComputePool::default()
            } else {
                ComputePool::new(self.pool_threads)
            }
        })
    }

    /// All-to-all exchange: `payloads[j]` is delivered to rank `j`; the
    /// returned vector holds, at index `i`, the payload rank `i` addressed
    /// to this rank (this rank's own payload is moved through directly).
    ///
    /// # Errors
    ///
    /// [`CommError::WrongPayloadCount`] if `payloads.len() != world_size`,
    /// plus any send/receive failure or plan violation in checked mode.
    pub fn all_to_all(&self, payloads: Vec<M>) -> Result<Vec<M>, CommError> {
        if payloads.len() != self.world {
            return Err(CommError::WrongPayloadCount {
                got: payloads.len(),
                expected: self.world,
            });
        }
        self.timed(Collective::AllToAll, || {
            let sent: Vec<(&'static str, usize)> = payloads
                .iter()
                .map(|m| (m.wire_variant(), m.wire_bytes()))
                .collect();
            let expected = self.with_checker(|c| c.expect_all_to_all(&sent))?;
            let mut own: Option<M> = None;
            for (dst, msg) in payloads.into_iter().enumerate() {
                if dst == self.rank {
                    own = Some(msg);
                } else {
                    self.deliver(dst, msg, Collective::AllToAll)?;
                }
            }
            let mut out = Vec::with_capacity(self.world);
            for src in 0..self.world {
                let msg = if src == self.rank {
                    own.take().ok_or_else(|| CommError::Internal {
                        detail: "all_to_all self payload missing".to_string(),
                    })?
                } else {
                    let msg = self.receive(src)?;
                    self.check_received(expected.as_ref().and_then(|e| e.get(src)), src, &msg)?;
                    msg
                };
                out.push(msg);
            }
            Ok(out)
        })
    }

    /// Gathers every rank's payload; index `i` of the result is rank `i`'s
    /// contribution on every rank.
    ///
    /// # Errors
    ///
    /// Propagates send/receive failures and plan violations.
    pub fn all_gather(&self, payload: M) -> Result<Vec<M>, CommError>
    where
        M: Clone,
    {
        self.timed(Collective::AllGather, || {
            let expected = self.with_checker(|c| {
                c.expect_gather("all_gather", payload.wire_variant(), payload.wire_bytes())
            })?;
            self.gather_as(payload, Collective::AllGather, expected)
        })
    }

    /// The gather exchange, attributing traffic to `collective` so that
    /// `all_reduce` (built on the same pattern) is accounted separately.
    fn gather_as(
        &self,
        payload: M,
        collective: Collective,
        expected: Option<Vec<ExpectedRecv>>,
    ) -> Result<Vec<M>, CommError>
    where
        M: Clone,
    {
        for dst in 0..self.world {
            if dst == self.rank {
                continue;
            }
            self.deliver(dst, payload.clone(), collective)?;
        }
        let mut out = Vec::with_capacity(self.world);
        for src in 0..self.world {
            if src == self.rank {
                out.push(payload.clone());
            } else {
                let msg = self.receive(src)?;
                self.check_received(expected.as_ref().and_then(|e| e.get(src)), src, &msg)?;
                out.push(msg);
            }
        }
        Ok(out)
    }

    /// All-reduce: gathers all payloads and folds them in rank order with
    /// `combine`, so every rank computes an identical, deterministic result.
    ///
    /// Accounted as its own `all_reduce` collective (calls, bytes, wall
    /// time), distinct from `all_gather`, even though the exchange pattern
    /// is the same.
    ///
    /// # Errors
    ///
    /// Propagates the underlying gather's failures and plan violations.
    pub fn all_reduce<F>(&self, payload: M, combine: F) -> Result<M, CommError>
    where
        M: Clone,
        F: FnMut(M, &M) -> M,
    {
        self.timed(Collective::AllReduce, || {
            let expected = self.with_checker(|c| {
                c.expect_gather("all_reduce", payload.wire_variant(), payload.wire_bytes())
            })?;
            let gathered = self.gather_as(payload, Collective::AllReduce, expected)?;
            let mut iter = gathered.into_iter();
            let first = iter.next().ok_or(CommError::EmptyGroup)?;
            let mut combine = combine;
            Ok(iter.fold(first, |acc, m| combine(acc, &m)))
        })
    }

    /// Blocks until every rank has reached the barrier.
    ///
    /// # Errors
    ///
    /// Propagates control-channel failures (peer exit / timeout) and plan
    /// violations.
    pub fn barrier(&self) -> Result<(), CommError> {
        self.with_checker(|c| c.expect_barrier())?;
        for (dst, sender) in self.ctrl_senders.iter().enumerate() {
            if dst == self.rank {
                continue;
            }
            sender.send(()).map_err(|_| CommError::SendFailed { dst })?;
        }
        for (src, receiver) in self.ctrl_receivers.iter().enumerate() {
            if src == self.rank {
                continue;
            }
            receiver
                .recv_timeout(self.recv_timeout)
                .map_err(|e| CommError::RecvFailed {
                    src,
                    timed_out: matches!(e, RecvTimeoutError::Timeout),
                })?;
        }
        Ok(())
    }
}

/// Handle for a posted nonblocking send. Sends are buffered, so the
/// operation already completed at post time; `wait()` exists for symmetry
/// with [`PendingRecv`] and for forward compatibility with a bounded
/// transport.
#[must_use = "call wait() so hop completion stays explicit at the loop bottom"]
#[derive(Debug)]
pub struct PendingSend {
    _posted: (),
}

impl PendingSend {
    /// Completes the send. Never blocks and never fails on the buffered
    /// channel transport.
    #[allow(clippy::unnecessary_wraps)]
    pub fn wait(self) -> Result<(), CommError> {
        Ok(())
    }
}

/// Outcome of a [`PendingRecv::try_complete`] poll: either the message, or
/// the still-pending handle to poll again.
#[derive(Debug)]
pub enum Progress<T, P> {
    /// The operation finished and produced its value.
    Complete(T),
    /// Not ready yet; the handle is returned for another poll or `wait()`.
    Pending(P),
}

/// Handle for a posted nonblocking receive (see [`Communicator::irecv`] /
/// [`Communicator::isend_irecv`]).
///
/// The plan op was consumed at post time; the handle's job is completion:
/// claiming the message, enforcing the fabric receive timeout measured
/// *from the post* (a wedged peer fails `wait()` with
/// [`CommError::RecvFailed`]` { src, timed_out: true }` naming the awaited
/// rank — it never hangs), validating the payload against the plan's
/// expectation, and recording the hop's wall time and `overlapped_ns`.
///
/// Dropping the handle without waiting abandons the message in the channel
/// and records nothing; in checked mode the plan cursor has already
/// advanced, so an abandoned receive shows up as a downstream violation
/// rather than silently passing.
#[must_use = "an unwaited irecv abandons the message and records no completion"]
#[derive(Debug)]
pub struct PendingRecv<'a, M: Wire> {
    comm: &'a Communicator<M>,
    src: usize,
    expected: Option<ExpectedRecv>,
    /// Collective to account at completion; `None` for a bare `irecv`
    /// (mirroring `recv`, which records no collective call).
    record: Option<Collective>,
    /// Post-time receive deadline (post instant + fabric `recv_timeout`).
    deadline: Instant,
    /// Post time on the stats clock; start of the recorded hop event.
    start_ns: u64,
    /// An envelope already popped by `try_complete` whose modeled wire
    /// delivery is still in the future. Kept here so polling early never
    /// loses the message.
    buffered: Option<Envelope<M>>,
}

impl<M: Wire> PendingRecv<'_, M> {
    /// Rank this handle is receiving from.
    pub fn src(&self) -> usize {
        self.src
    }

    /// Blocks until the message arrives, the post-time deadline passes, or
    /// the peer disconnects.
    ///
    /// # Errors
    ///
    /// [`CommError::RecvFailed`] naming `src` (with `timed_out: true` when
    /// the fabric timeout expired), or [`CommError::PlanViolation`] if the
    /// payload diverges from the plan's expectation.
    pub fn wait(mut self) -> Result<M, CommError> {
        let blocked_from = self.comm.stats.now_ns();
        let result = match self.buffered.take() {
            Some(env) => Ok(env.settle()),
            None => self.comm.receive_by(self.src, self.deadline),
        };
        self.finish(blocked_from, result)
    }

    /// Polls for completion without blocking.
    ///
    /// # Errors
    ///
    /// As [`PendingRecv::wait`]; in particular, a poll after the post-time
    /// deadline with no message fails with `timed_out: true` rather than
    /// staying pending forever.
    pub fn try_complete(mut self) -> Result<Progress<M, Self>, CommError> {
        if let Some(env) = self.buffered.take() {
            if env.delivered() {
                let blocked_from = self.comm.stats.now_ns();
                return self
                    .finish(blocked_from, Ok(env.settle()))
                    .map(Progress::Complete);
            }
            self.buffered = Some(env);
            return Ok(Progress::Pending(self));
        }
        let receiver = match self.comm.receivers.get(self.src) {
            Some(r) => r,
            None => {
                let blocked_from = self.comm.stats.now_ns();
                let err = Err(CommError::RankOutOfRange {
                    rank: self.src,
                    world_size: self.comm.world,
                });
                return self.finish(blocked_from, err).map(Progress::Complete);
            }
        };
        match receiver.try_recv() {
            Ok(env) if env.delivered() => {
                let blocked_from = self.comm.stats.now_ns();
                self.finish(blocked_from, Ok(env.settle()))
                    .map(Progress::Complete)
            }
            Ok(env) => {
                self.buffered = Some(env);
                Ok(Progress::Pending(self))
            }
            Err(TryRecvError::Empty) => {
                if Instant::now() < self.deadline {
                    return Ok(Progress::Pending(self));
                }
                let blocked_from = self.comm.stats.now_ns();
                let err = Err(CommError::RecvFailed {
                    src: self.src,
                    timed_out: true,
                });
                self.finish(blocked_from, err).map(Progress::Complete)
            }
            Err(TryRecvError::Disconnected) => {
                let blocked_from = self.comm.stats.now_ns();
                let err = Err(CommError::RecvFailed {
                    src: self.src,
                    timed_out: false,
                });
                self.finish(blocked_from, err).map(Progress::Complete)
            }
        }
    }

    /// Completion bookkeeping: records the hop (call count, wall time,
    /// timeline event with `overlapped_ns`) whether it succeeded or failed
    /// — mirroring `timed()` — then validates the payload.
    fn finish(self, blocked_from: u64, result: Result<M, CommError>) -> Result<M, CommError> {
        let stats = &self.comm.stats;
        let end = stats.now_ns();
        let dur = end.saturating_sub(self.start_ns);
        let overlapped = blocked_from.saturating_sub(self.start_ns).min(dur);
        if let Some(collective) = self.record {
            stats.record_call(collective, dur);
            stats.record_overlap(collective, overlapped);
            stats.record_event(TimedEvent {
                rank: self.comm.rank,
                lane: TimelineLane::Comm,
                label: collective.name().to_string(),
                start_ns: self.start_ns,
                dur_ns: dur,
                overlapped_ns: overlapped,
            });
        }
        let msg = result?;
        self.comm
            .check_received(self.expected.as_ref(), self.src, &msg)?;
        Ok(msg)
    }
}

/// Turns a row-major matrix into its column-major transpose without
/// indexing; ragged rows are tolerated (shorter rows simply contribute to
/// fewer columns).
fn transpose<T>(rows: Vec<Vec<T>>) -> Vec<Vec<T>> {
    let mut cols: Vec<Vec<T>> = Vec::new();
    for row in rows {
        if cols.len() < row.len() {
            cols.resize_with(row.len(), Vec::new);
        }
        for (col, item) in cols.iter_mut().zip(row) {
            col.push(item);
        }
    }
    cols
}

/// Builds the full channel mesh for `world` ranks.
fn build_communicators<M: Wire>(
    world: usize,
    recv_timeout: Duration,
    links: LinkPolicy,
    pool_threads: usize,
    plan: Option<&CommPlan>,
    stats: &Arc<TrafficStats>,
) -> Result<Vec<Communicator<M>>, CommError> {
    // Row-major construction: row `src` holds, per `dst`, the sender and
    // the receiver of the (src → dst) channel. Each rank then takes its own
    // sender row and the transposed receiver column, so rank `r` ends up
    // with `senders[dst]` = (r → dst) and `receivers[src]` = (src → r).
    let mut data_tx: Vec<Vec<Sender<Envelope<M>>>> = Vec::with_capacity(world);
    let mut data_rx: Vec<Vec<Receiver<Envelope<M>>>> = Vec::with_capacity(world);
    let mut ctrl_tx: Vec<Vec<Sender<()>>> = Vec::with_capacity(world);
    let mut ctrl_rx: Vec<Vec<Receiver<()>>> = Vec::with_capacity(world);
    for _src in 0..world {
        let mut tx_row = Vec::with_capacity(world);
        let mut rx_row = Vec::with_capacity(world);
        let mut ctx_row = Vec::with_capacity(world);
        let mut crx_row = Vec::with_capacity(world);
        for _dst in 0..world {
            let (tx, rx) = unbounded::<Envelope<M>>();
            tx_row.push(tx);
            rx_row.push(rx);
            let (ctx, crx) = unbounded::<()>();
            ctx_row.push(ctx);
            crx_row.push(crx);
        }
        data_tx.push(tx_row);
        data_rx.push(rx_row);
        ctrl_tx.push(ctx_row);
        ctrl_rx.push(crx_row);
    }
    let data_rx_cols = transpose(data_rx);
    let ctrl_rx_cols = transpose(ctrl_rx);

    let mut checkers: Vec<Option<Mutex<PlanChecker>>> = match plan {
        None => (0..world).map(|_| None).collect(),
        Some(p) => {
            if p.ranks.len() != p.world || p.world != world {
                return Err(CommError::Internal {
                    detail: format!(
                        "plan declares {} rank schedules for world {}, fabric runs {} ranks",
                        p.ranks.len(),
                        p.world,
                        world
                    ),
                });
            }
            p.ranks
                .iter()
                .map(|r| Some(Mutex::new(PlanChecker::new(r.clone()))))
                .collect()
        }
    };

    let mut comms = Vec::with_capacity(world);
    let rows = data_tx
        .into_iter()
        .zip(data_rx_cols)
        .zip(ctrl_tx.into_iter().zip(ctrl_rx_cols));
    for (rank, ((senders, receivers), (ctrl_senders, ctrl_receivers))) in rows.enumerate() {
        comms.push(Communicator {
            rank,
            world,
            senders,
            receivers,
            ctrl_senders,
            ctrl_receivers,
            recv_timeout,
            links,
            link_busy: Mutex::new(vec![None; world]),
            checker: checkers.get_mut(rank).and_then(Option::take),
            stats: Arc::clone(stats),
            pool: OnceLock::new(),
            pool_threads,
        });
    }
    Ok(comms)
}

/// Builder for a fabric run: world size plus run-scoped options like the
/// receive timeout. [`run_ranks`] is shorthand for the defaults.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use cp_comm::Fabric;
///
/// # fn main() -> Result<(), cp_comm::CommError> {
/// let (res, _) = Fabric::new(2)
///     .recv_timeout(Duration::from_millis(200))
///     .run::<Vec<f32>, _, _>(|comm| {
///         comm.send_recv(comm.ring_next(), vec![1.0], comm.ring_prev())
///     })?;
/// assert_eq!(res.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Fabric {
    world: usize,
    recv_timeout: Duration,
    links: LinkPolicy,
    pool_threads: usize,
}

impl Fabric {
    /// A fabric for `world` ranks with the default receive timeout, no
    /// modeled link delay, and machine-sized compute pools.
    pub fn new(world: usize) -> Self {
        Fabric {
            world,
            recv_timeout: DEFAULT_RECV_TIMEOUT,
            links: LinkPolicy::default(),
            pool_threads: 0,
        }
    }

    /// Sets how long a blocked receive waits before failing with
    /// [`CommError::RecvFailed`]. Deadlock-regression tests use a few
    /// milliseconds here so a wedged schedule fails fast instead of
    /// waiting out the default.
    pub fn recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = timeout;
        self
    }

    /// Installs a uniform modeled interconnect: every delivery completes
    /// no earlier than [`LinkModel::delay`] after the send, concurrently
    /// with the receiver's compute. Off by default (instant delivery).
    pub fn link(mut self, link: LinkModel) -> Self {
        self.links = LinkPolicy::Uniform(Some(link));
        self
    }

    /// Installs a heterogeneous interconnect: channels between ranks on
    /// the same node of `topo` use `intra`, channels crossing nodes use
    /// `cross`. This is what makes hierarchical (topology-aware) ring
    /// schedules measurably cheaper than flat ones.
    pub fn topology(mut self, topo: Topology, intra: LinkModel, cross: LinkModel) -> Self {
        self.links = LinkPolicy::Topo { topo, intra, cross };
        self
    }

    /// Sets the total thread count of each rank's persistent
    /// [`Communicator::pool`] (0 = machine parallelism, the default).
    pub fn compute_pool(mut self, threads: usize) -> Self {
        self.pool_threads = threads;
        self
    }

    /// Runs `f` on every rank (unchecked mode). See [`run_ranks`].
    ///
    /// # Errors
    ///
    /// [`CommError::EmptyGroup`] for a zero-rank group; otherwise the
    /// root-cause rank error (a plan violation first, then the first error
    /// that is not a failed send or receive, then rank order), or
    /// [`CommError::RankPanicked`].
    pub fn run<M, T, F>(&self, f: F) -> Result<(Vec<T>, TrafficReport), CommError>
    where
        M: Wire,
        T: Send,
        F: Fn(&Communicator<M>) -> Result<T, CommError> + Sync,
    {
        self.launch(None, f)
    }

    fn launch<M, T, F>(
        &self,
        plan: Option<&CommPlan>,
        f: F,
    ) -> Result<(Vec<T>, TrafficReport), CommError>
    where
        M: Wire,
        T: Send,
        F: Fn(&Communicator<M>) -> Result<T, CommError> + Sync,
    {
        if self.world == 0 {
            return Err(CommError::EmptyGroup);
        }
        let stats = TrafficStats::new();
        let comms = build_communicators::<M>(
            self.world,
            self.recv_timeout,
            self.links,
            self.pool_threads,
            plan,
            &stats,
        )?;

        let results: Vec<Result<Result<T, CommError>, usize>> = std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| {
                    let f = &f;
                    scope.spawn(move || {
                        let out = f(&comm)?;
                        // In checked mode a rank must drain its whole
                        // declared schedule before exiting.
                        comm.finish_plan()?;
                        Ok(out)
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(rank, h)| h.join().map_err(|_| rank))
                .collect()
        });

        let mut out = Vec::with_capacity(self.world);
        let mut first_err: Option<CommError> = None;
        for r in results {
            let err = match r {
                Ok(Ok(v)) => {
                    out.push(v);
                    continue;
                }
                Ok(Err(e)) => e,
                Err(rank) => CommError::RankPanicked { rank },
            };
            // Keep the root cause: a later rank's error replaces the kept
            // one only if it outranks it, so ties go to rank order.
            if first_err
                .as_ref()
                .is_none_or(|kept| cause_rank(&err) > cause_rank(kept))
            {
                first_err = Some(err);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok((out, stats.report())),
        }
    }
}

/// How directly an error names the root cause of a failed run. A plan
/// violation outranks everything; a failed send or receive is usually the
/// echo of a peer that already exited with its own error (rank 1's
/// out-of-pages reaching rank 0 as a closed channel), so it ranks last.
fn cause_rank(err: &CommError) -> u8 {
    match err {
        CommError::PlanViolation { .. } => 2,
        CommError::SendFailed { .. } | CommError::RecvFailed { .. } => 0,
        _ => 1,
    }
}

/// A fabric that validates every rank's live traffic against a declared
/// [`CommPlan`] — the runtime half of the `cp-verify` story (the offline
/// half model-checks the same plan). Any divergence (op kind, peer,
/// message variant, byte count, or an undrained schedule) fails the run
/// with [`CommError::PlanViolation`] naming the offending rank and step.
///
/// # Example
///
/// ```
/// use cp_comm::{CheckedFabric, CommOp, CommPlan, RankPlan};
///
/// # fn main() -> Result<(), cp_comm::CommError> {
/// let plan = CommPlan::from_ranks(
///     (0..2)
///         .map(|r| RankPlan {
///             rank: r,
///             ops: vec![CommOp::SendRecv {
///                 dst: (r + 1) % 2,
///                 src: (r + 1) % 2,
///                 send_variant: "payload",
///                 recv_variant: "payload",
///                 send_bytes: 4,
///                 recv_bytes: 4,
///             }],
///         })
///         .collect(),
/// );
/// let (res, _) = CheckedFabric::new(plan).run::<Vec<f32>, _, _>(|comm| {
///     let got = comm.send_recv(comm.ring_next(), vec![1.0], comm.ring_prev())?;
///     Ok(got.len())
/// })?;
/// assert_eq!(res, vec![1, 1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CheckedFabric {
    fabric: Fabric,
    plan: CommPlan,
}

impl CheckedFabric {
    /// A checked fabric for the plan's world size.
    pub fn new(plan: CommPlan) -> Self {
        CheckedFabric {
            fabric: Fabric::new(plan.world),
            plan,
        }
    }

    /// Sets the blocked-receive timeout, as [`Fabric::recv_timeout`].
    pub fn recv_timeout(mut self, timeout: Duration) -> Self {
        self.fabric = self.fabric.recv_timeout(timeout);
        self
    }

    /// Installs a modeled interconnect, as [`Fabric::link`].
    pub fn link(mut self, link: LinkModel) -> Self {
        self.fabric = self.fabric.link(link);
        self
    }

    /// Installs a heterogeneous interconnect, as [`Fabric::topology`].
    pub fn topology(mut self, topo: Topology, intra: LinkModel, cross: LinkModel) -> Self {
        self.fabric = self.fabric.topology(topo, intra, cross);
        self
    }

    /// Sets per-rank pool threads, as [`Fabric::compute_pool`].
    pub fn compute_pool(mut self, threads: usize) -> Self {
        self.fabric = self.fabric.compute_pool(threads);
        self
    }

    /// The declared plan this fabric enforces.
    pub fn plan(&self) -> &CommPlan {
        &self.plan
    }

    /// Runs `f` on every rank with live plan validation.
    ///
    /// # Errors
    ///
    /// As [`Fabric::run`], plus [`CommError::PlanViolation`] when a rank's
    /// traffic diverges from its declared schedule.
    pub fn run<M, T, F>(&self, f: F) -> Result<(Vec<T>, TrafficReport), CommError>
    where
        M: Wire,
        T: Send,
        F: Fn(&Communicator<M>) -> Result<T, CommError> + Sync,
    {
        self.fabric.launch(Some(&self.plan), f)
    }
}

/// Spawns `world` rank threads, runs `f` on each with its [`Communicator`],
/// and returns the per-rank results (index = rank) plus a traffic report.
///
/// Mirrors launching one process per host in the paper's deployment. The
/// call joins all threads before returning; a rank returning an error or
/// panicking fails the whole run (the root-cause error is returned, not a
/// peer's failed receive from the rank that caused it). Equivalent to
/// [`Fabric::new`]`(world).run(f)`; use the builder to override the
/// receive timeout, or [`CheckedFabric`] to validate traffic against a
/// declared plan.
///
/// # Errors
///
/// [`CommError::EmptyGroup`] for `world == 0`; otherwise the first rank
/// error, or [`CommError::RankPanicked`] if a rank closure panicked.
///
/// # Example
///
/// ```
/// use cp_comm::run_ranks;
///
/// # fn main() -> Result<(), cp_comm::CommError> {
/// let (sums, _) = run_ranks::<Vec<f32>, _, _>(3, |comm| {
///     let total = comm.all_reduce(vec![comm.rank() as f32], |mut acc, m| {
///         for (a, b) in acc.iter_mut().zip(m) { *a += b; }
///         acc
///     })?;
///     Ok(total[0])
/// })?;
/// assert_eq!(sums, vec![3.0, 3.0, 3.0]);
/// # Ok(())
/// # }
/// ```
pub fn run_ranks<M, T, F>(world: usize, f: F) -> Result<(Vec<T>, TrafficReport), CommError>
where
    M: Wire,
    T: Send,
    F: Fn(&Communicator<M>) -> Result<T, CommError> + Sync,
{
    Fabric::new(world).run(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CommOp, RankPlan};

    #[test]
    fn single_rank_group_works() {
        let (res, report) = run_ranks::<Vec<f32>, _, _>(1, |comm| {
            assert_eq!(comm.ring_next(), 0);
            assert_eq!(comm.ring_prev(), 0);
            // Self-send around a 1-ring.
            let got = comm.send_recv(0, vec![42.0], 0)?;
            Ok(got[0])
        })
        .unwrap();
        assert_eq!(res, vec![42.0]);
        assert_eq!(report.send_recv_bytes, 4);
    }

    #[test]
    fn empty_group_is_rejected() {
        let err = run_ranks::<Vec<f32>, _, _>(0, |_| Ok(())).unwrap_err();
        assert_eq!(err, CommError::EmptyGroup);
    }

    #[test]
    fn ring_rotation_n_minus_1_times_visits_all() {
        // Classic ring-attention schedule: after N-1 rotations each rank has
        // seen every other rank's payload exactly once.
        let n = 5;
        let (res, _) = run_ranks::<Vec<f32>, _, _>(n, |comm| {
            let mut seen = vec![comm.rank() as f32];
            let mut current = vec![comm.rank() as f32];
            for _ in 0..n - 1 {
                current = comm.send_recv(comm.ring_next(), current, comm.ring_prev())?;
                seen.push(current[0]);
            }
            seen.sort_by(|a, b| a.partial_cmp(b).unwrap());
            Ok(seen)
        })
        .unwrap();
        for ranks_seen in res {
            assert_eq!(ranks_seen, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        }
    }

    #[test]
    fn all_to_all_transposes() {
        let n = 4;
        let (res, report) = run_ranks::<Vec<f32>, _, _>(n, |comm| {
            // payload to rank j encodes (my_rank, j)
            let payloads: Vec<Vec<f32>> = (0..n)
                .map(|j| vec![comm.rank() as f32 * 10.0 + j as f32])
                .collect();
            comm.all_to_all(payloads)
        })
        .unwrap();
        for (k, got) in res.iter().enumerate() {
            for (i, msg) in got.iter().enumerate() {
                assert_eq!(msg[0], i as f32 * 10.0 + k as f32);
            }
        }
        // Each rank sends n-1 remote messages of 4 bytes.
        assert_eq!(report.all_to_all_bytes, n * (n - 1) * 4);
    }

    #[test]
    fn all_to_all_wrong_count_errors() {
        let err = run_ranks::<Vec<f32>, _, _>(2, |comm| {
            comm.all_to_all(vec![vec![0.0]])?;
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(
            err,
            CommError::WrongPayloadCount {
                got: 1,
                expected: 2
            }
        ));
    }

    #[test]
    fn all_gather_collects_in_rank_order() {
        let (res, _) =
            run_ranks::<Vec<f32>, _, _>(3, |comm| comm.all_gather(vec![comm.rank() as f32; 2]))
                .unwrap();
        for got in res {
            assert_eq!(got.len(), 3);
            for (i, v) in got.iter().enumerate() {
                assert_eq!(v, &vec![i as f32; 2]);
            }
        }
    }

    #[test]
    fn all_reduce_sum_is_deterministic_and_equal_everywhere() {
        let (res, _) = run_ranks::<Vec<f32>, _, _>(4, |comm| {
            comm.all_reduce(vec![comm.rank() as f32, 1.0], |mut acc, m| {
                for (a, b) in acc.iter_mut().zip(m) {
                    *a += b;
                }
                acc
            })
        })
        .unwrap();
        for got in res {
            assert_eq!(got, vec![6.0, 4.0]);
        }
    }

    #[test]
    fn barrier_synchronizes_without_data() {
        let (res, report) = run_ranks::<Vec<f32>, _, _>(4, |comm| {
            for _ in 0..10 {
                comm.barrier()?;
            }
            Ok(comm.rank())
        })
        .unwrap();
        assert_eq!(res, vec![0, 1, 2, 3]);
        // Barriers use control channels, not metered data channels.
        assert_eq!(report.total_bytes(), 0);
    }

    #[test]
    fn out_of_range_ranks_error() {
        let err = run_ranks::<Vec<f32>, _, _>(2, |comm| {
            comm.send(5, vec![1.0])?;
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, CommError::RankOutOfRange { rank: 5, .. }));
    }

    #[test]
    fn panicked_rank_is_reported() {
        let err = run_ranks::<Vec<f32>, _, _>(2, |comm| {
            if comm.rank() == 1 {
                panic!("boom");
            }
            // Rank 0 does not block on rank 1, so it exits cleanly.
            Ok(())
        })
        .unwrap_err();
        assert_eq!(err, CommError::RankPanicked { rank: 1 });
    }

    #[test]
    fn recv_from_exited_peer_fails_cleanly() {
        let err = run_ranks::<Vec<f32>, _, _>(2, |comm| {
            if comm.rank() == 0 {
                // Peer exits immediately; this receive must fail, not hang.
                comm.recv(1).map(|_| ())
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert!(matches!(err, CommError::RecvFailed { src: 1, .. }));
    }

    #[test]
    fn root_cause_error_outranks_a_lower_ranks_echo() {
        // Rank 1 fails on its own; rank 0, waiting on it, sees only the
        // closed channel. The run must report rank 1's error.
        let cause = CommError::RankFailed {
            rank: 1,
            kind: "cache",
            detail: "out of pages".to_string(),
        };
        let err = run_ranks::<Vec<f32>, _, _>(2, |comm| {
            if comm.rank() == 0 {
                comm.recv(1).map(|_| ())
            } else {
                Err(cause.clone())
            }
        })
        .unwrap_err();
        assert_eq!(err, cause);
    }

    #[test]
    fn messages_are_fifo_per_pair() {
        let (res, _) = run_ranks::<Vec<f32>, _, _>(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..100 {
                    comm.send(1, vec![i as f32])?;
                }
                Ok(Vec::new())
            } else {
                let mut got = Vec::new();
                for _ in 0..100 {
                    got.push(comm.recv(0)?[0]);
                }
                Ok(got)
            }
        })
        .unwrap();
        let expected: Vec<f32> = (0..100).map(|i| i as f32).collect();
        assert_eq!(res[1], expected);
    }

    #[test]
    fn per_collective_report_separates_all_reduce_from_all_gather() {
        let n = 3;
        let (_, report) = run_ranks::<Vec<f32>, _, _>(n, |comm| {
            comm.all_gather(vec![comm.rank() as f32])?;
            comm.all_reduce(vec![1.0f32, 2.0], |mut acc, m| {
                for (a, b) in acc.iter_mut().zip(m) {
                    *a += b;
                }
                acc
            })?;
            Ok(())
        })
        .unwrap();
        // One call per rank for each collective.
        assert_eq!(report.all_gather.calls, n as u64);
        assert_eq!(report.all_reduce.calls, n as u64);
        assert_eq!(report.send_recv.calls, 0);
        assert_eq!(report.all_to_all.calls, 0);
        // AllReduce bytes are its own category, not folded into all_gather:
        // each rank sends n-1 copies of its payload.
        assert_eq!(report.all_gather.bytes, n * (n - 1) * 4);
        assert_eq!(report.all_reduce.bytes, n * (n - 1) * 2 * 4);
        assert_eq!(report.all_gather_bytes, report.all_gather.bytes);
        assert_eq!(
            report.total_bytes(),
            report.all_gather.bytes + report.all_reduce.bytes
        );
        // Wall time was measured for the collectives that ran.
        assert!(report.all_reduce.wall_ns > 0);
        assert!(report.all_gather.wall_ns > 0);
    }

    #[test]
    fn failed_send_records_no_bytes() {
        // Regression: wire bytes must be recorded only on successful
        // delivery, for point-to-point sends and for the sends inside
        // all_to_all / all_gather alike.
        let (_, report) = run_ranks::<Vec<f32>, _, _>(2, |comm| {
            if comm.rank() == 0 {
                // Wait until rank 1 has exited (its receiver is dropped)...
                assert!(matches!(comm.recv(1), Err(CommError::RecvFailed { .. })));
                // ...then every send path must fail before recording bytes.
                assert!(matches!(
                    comm.send(1, vec![1.0; 64]),
                    Err(CommError::SendFailed { dst: 1 })
                ));
                assert!(matches!(
                    comm.all_to_all(vec![vec![2.0; 64], vec![3.0; 64]]),
                    Err(CommError::SendFailed { dst: 1 })
                ));
                assert!(matches!(
                    comm.all_gather(vec![4.0; 64]),
                    Err(CommError::SendFailed { dst: 1 })
                ));
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(report.messages, 0);
        assert_eq!(report.total_bytes(), 0);
        // The failed attempts still count as calls (with wall time).
        assert_eq!(report.send_recv.calls, 1);
        assert_eq!(report.all_to_all.calls, 1);
        assert_eq!(report.all_gather.calls, 1);
    }

    #[test]
    fn timeline_records_comm_and_compute_lanes() {
        let n = 2;
        let (sums, report) = run_ranks::<Vec<f32>, _, _>(n, |comm| {
            let local = comm.time_compute("square", || (comm.rank() as f32) * (comm.rank() as f32));
            let got = comm.send_recv(comm.ring_next(), vec![local], comm.ring_prev())?;
            Ok(got[0])
        })
        .unwrap();
        assert_eq!(sums, vec![1.0, 0.0]);
        let compute: Vec<_> = report
            .timeline
            .iter()
            .filter(|e| e.lane == crate::TimelineLane::Compute)
            .collect();
        let comm_events: Vec<_> = report
            .timeline
            .iter()
            .filter(|e| e.lane == crate::TimelineLane::Comm)
            .collect();
        assert_eq!(compute.len(), n);
        assert!(compute.iter().all(|e| e.label == "square"));
        assert_eq!(comm_events.len(), n);
        assert!(comm_events.iter().all(|e| e.label == "send_recv"));
        // Sorted by start time.
        assert!(report
            .timeline
            .windows(2)
            .all(|w| w[0].start_ns <= w[1].start_ns));
    }

    #[test]
    fn results_are_indexed_by_rank() {
        let (res, _) = run_ranks::<Vec<f32>, _, _>(6, |comm| Ok(comm.rank() * 2)).unwrap();
        assert_eq!(res, vec![0, 2, 4, 6, 8, 10]);
    }

    #[test]
    fn short_recv_timeout_fails_wedged_ring_in_milliseconds() {
        // Deadlock regression: two ranks that only post receives would wait
        // out the 60 s default; the builder's timeout makes the failure
        // immediate. The error must name the starved receive.
        let start = std::time::Instant::now();
        let err = Fabric::new(2)
            .recv_timeout(Duration::from_millis(20))
            .run::<Vec<f32>, _, _>(|comm| comm.recv(comm.ring_prev()).map(|_| ()))
            .unwrap_err();
        // Whichever rank times out first exits and closes its channels, so
        // the other may observe a disconnect rather than its own timeout —
        // either way the wedged run fails in milliseconds.
        assert!(matches!(err, CommError::RecvFailed { .. }), "{err:?}");
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "timeout was not shortened"
        );
    }

    #[test]
    fn recv_timeout_is_reported_as_timeout() {
        // Deterministic variant: a 1-ring rank receiving from itself without
        // having sent keeps its own channel open, so the failure must be a
        // genuine timeout.
        let err = Fabric::new(1)
            .recv_timeout(Duration::from_millis(20))
            .run::<Vec<f32>, _, _>(|comm| comm.recv(0).map(|_| ()))
            .unwrap_err();
        assert!(matches!(
            err,
            CommError::RecvFailed {
                src: 0,
                timed_out: true
            }
        ));
    }

    fn ring_plan(n: usize, hops: usize, bytes: usize) -> CommPlan {
        CommPlan::from_ranks(
            (0..n)
                .map(|r| RankPlan {
                    rank: r,
                    ops: (0..hops)
                        .map(|_| CommOp::SendRecv {
                            dst: (r + 1) % n,
                            src: (r + n - 1) % n,
                            send_variant: "payload",
                            recv_variant: "payload",
                            send_bytes: bytes,
                            recv_bytes: bytes,
                        })
                        .collect(),
                })
                .collect(),
        )
    }

    #[test]
    fn checked_fabric_accepts_conforming_ring_and_predicts_traffic() {
        let n = 3;
        let plan = ring_plan(n, n - 1, 8);
        let predicted = plan.predicted_traffic();
        let (_, report) = CheckedFabric::new(plan)
            .run::<Vec<f32>, _, _>(|comm| {
                let mut cur = vec![comm.rank() as f32; 2];
                for _ in 0..n - 1 {
                    cur = comm.send_recv(comm.ring_next(), cur, comm.ring_prev())?;
                }
                Ok(())
            })
            .unwrap();
        predicted.check_report(&report).unwrap();
    }

    #[test]
    fn checked_fabric_rejects_wrong_bytes_naming_rank_and_step() {
        let n = 2;
        let plan = ring_plan(n, 1, 8);
        let err = CheckedFabric::new(plan)
            .run::<Vec<f32>, _, _>(|comm| {
                // Rank 1 sends 3 floats where the plan declares 2.
                let payload = if comm.rank() == 1 {
                    vec![0.0; 3]
                } else {
                    vec![0.0; 2]
                };
                comm.send_recv(comm.ring_next(), payload, comm.ring_prev())?;
                Ok(())
            })
            .unwrap_err();
        match err {
            CommError::PlanViolation { rank, step, detail } => {
                assert_eq!(rank, 1);
                assert_eq!(step, 0);
                assert!(detail.contains("wire bytes"), "{detail}");
            }
            other => panic!("expected PlanViolation, got {other:?}"),
        }
    }

    #[test]
    fn checked_fabric_rejects_undrained_schedule() {
        let n = 2;
        let plan = ring_plan(n, 2, 8);
        let err = CheckedFabric::new(plan)
            .recv_timeout(Duration::from_millis(200))
            .run::<Vec<f32>, _, _>(|comm| {
                // Both ranks do one hop instead of the declared two.
                comm.send_recv(comm.ring_next(), vec![0.0; 2], comm.ring_prev())?;
                Ok(())
            })
            .unwrap_err();
        match err {
            CommError::PlanViolation {
                rank: 0,
                step,
                detail,
            } => {
                assert_eq!(step, 1);
                assert!(detail.contains("1 of 2"), "{detail}");
            }
            other => panic!("expected PlanViolation at rank 0, got {other:?}"),
        }
    }

    #[test]
    fn checked_fabric_rejects_unplanned_op_kind() {
        let plan = ring_plan(2, 1, 8);
        let err = CheckedFabric::new(plan)
            .recv_timeout(Duration::from_millis(200))
            .run::<Vec<f32>, _, _>(|comm| {
                comm.barrier()?;
                Ok(())
            })
            .unwrap_err();
        assert!(
            matches!(err, CommError::PlanViolation { .. }),
            "expected PlanViolation, got {err:?}"
        );
    }

    #[test]
    fn checked_fabric_world_mismatch_is_internal_error() {
        let plan = ring_plan(3, 1, 8);
        let bad = CommPlan {
            world: 2,
            ranks: plan.ranks.clone(),
        };
        let err = CheckedFabric::new(bad)
            .run::<Vec<f32>, _, _>(|_| Ok(()))
            .unwrap_err();
        assert!(matches!(err, CommError::Internal { .. }), "{err:?}");
    }

    #[test]
    fn isend_irecv_ring_matches_blocking_and_records_overlap() {
        let n = 4;
        let (res, report) = run_ranks::<Vec<f32>, _, _>(n, |comm| {
            let mut seen = vec![comm.rank() as f32];
            let mut current = vec![comm.rank() as f32];
            for _ in 0..n - 1 {
                let pending =
                    comm.isend_irecv(comm.ring_next(), current.clone(), comm.ring_prev())?;
                // "Compute" between post and wait; this span must show up
                // as overlapped_ns on the collective.
                std::thread::sleep(Duration::from_millis(2));
                current = pending.wait()?;
                seen.push(current[0]);
            }
            seen.sort_by(|a, b| a.partial_cmp(b).unwrap());
            Ok(seen)
        })
        .unwrap();
        for ranks_seen in res {
            assert_eq!(ranks_seen, vec![0.0, 1.0, 2.0, 3.0]);
        }
        // Same wire accounting as the blocking ring...
        assert_eq!(report.send_recv.calls, (n * (n - 1)) as u64);
        assert_eq!(report.send_recv_bytes, n * (n - 1) * 4);
        // ...plus a nonzero overlapped span on every intermediate hop.
        assert!(report.send_recv.overlapped_ns > 0);
        let overlapped_events = report
            .timeline
            .iter()
            .filter(|e| e.label == "send_recv" && e.overlapped_ns > 0)
            .count();
        assert_eq!(overlapped_events, n * (n - 1));
    }

    #[test]
    fn isend_and_irecv_halves_compose_like_send_and_recv() {
        // Split-handle form: rank 0 isends to 1, rank 1 irecvs from 0.
        let (res, report) = run_ranks::<Vec<f32>, _, _>(2, |comm| {
            if comm.rank() == 0 {
                comm.isend(1, vec![7.0, 8.0])?.wait()?;
                Ok(0.0)
            } else {
                let pending = comm.irecv(0)?;
                let got = pending.wait()?;
                Ok(got[1])
            }
        })
        .unwrap();
        assert_eq!(res, vec![0.0, 8.0]);
        // isend meters exactly like send; irecv records no collective call.
        assert_eq!(report.send_recv.calls, 1);
        assert_eq!(report.send_recv_bytes, 8);
    }

    #[test]
    fn try_complete_progresses_to_completion_without_blocking() {
        let (res, _) = run_ranks::<Vec<f32>, _, _>(2, |comm| {
            if comm.rank() == 0 {
                std::thread::sleep(Duration::from_millis(5));
                comm.isend(1, vec![3.0])?.wait()?;
                return Ok(3.0);
            }
            let mut pending = comm.irecv(0)?;
            let mut polls = 0u32;
            loop {
                match pending.try_complete()? {
                    Progress::Complete(msg) => {
                        assert!(polls > 0, "first poll should find nothing yet");
                        return Ok(msg[0]);
                    }
                    Progress::Pending(p) => {
                        polls += 1;
                        pending = p;
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
        })
        .unwrap();
        assert_eq!(res, vec![3.0, 3.0]);
    }

    #[test]
    fn in_flight_irecv_honors_fabric_timeout_naming_peer() {
        // Satellite of the deadlock regression: a posted-but-never-matched
        // irecv must honor the fabric timeout from its *post* time and name
        // the awaited peer, not hang in wait(). 1-rank form keeps the
        // channel open so the failure is a genuine timeout.
        let start = std::time::Instant::now();
        let err = Fabric::new(1)
            .recv_timeout(Duration::from_millis(20))
            .run::<Vec<f32>, _, _>(|comm| {
                let pending = comm.irecv(0)?;
                // Long compute after posting must not extend the deadline.
                std::thread::sleep(Duration::from_millis(30));
                pending.wait().map(|_| ())
            })
            .unwrap_err();
        assert!(matches!(
            err,
            CommError::RecvFailed {
                src: 0,
                timed_out: true
            }
        ));
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "pending receive did not honor the fabric timeout"
        );
    }

    #[test]
    fn wedged_double_buffered_ring_fails_in_milliseconds() {
        // Two ranks post irecvs and never send: both pending receives must
        // time out on the short fabric deadline instead of deadlocking.
        let start = std::time::Instant::now();
        let err = Fabric::new(2)
            .recv_timeout(Duration::from_millis(20))
            .run::<Vec<f32>, _, _>(|comm| {
                let pending = comm.irecv(comm.ring_prev())?;
                pending.wait().map(|_| ())
            })
            .unwrap_err();
        assert!(matches!(err, CommError::RecvFailed { .. }), "{err:?}");
        assert!(start.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn try_complete_reports_timeout_past_deadline() {
        let err = Fabric::new(1)
            .recv_timeout(Duration::from_millis(10))
            .run::<Vec<f32>, _, _>(|comm| {
                let mut pending = comm.irecv(0)?;
                loop {
                    match pending.try_complete()? {
                        Progress::Complete(_) => return Ok(()),
                        Progress::Pending(p) => {
                            pending = p;
                            std::thread::sleep(Duration::from_millis(2));
                        }
                    }
                }
            })
            .unwrap_err();
        assert!(matches!(
            err,
            CommError::RecvFailed {
                src: 0,
                timed_out: true
            }
        ));
    }

    #[test]
    fn irecv_rejects_out_of_range_peer() {
        let err =
            run_ranks::<Vec<f32>, _, _>(2, |comm| comm.irecv(5)?.wait().map(|_| ())).unwrap_err();
        assert!(matches!(err, CommError::RankOutOfRange { rank: 5, .. }));
    }

    #[test]
    fn link_model_delays_blocking_hops_but_hides_under_compute() {
        // With a modeled 15 ms wire, a blocking self-hop pays the latency
        // in full; an overlapped hop whose compute exceeds the latency
        // hides it (paper §3.3 overlap condition).
        let link = LinkModel::latency_only(Duration::from_millis(15));
        let start = std::time::Instant::now();
        run_ranks::<Vec<f32>, _, _>(1, |_| Ok(())).unwrap();
        let (_, report) = Fabric::new(1)
            .link(link)
            .run::<Vec<f32>, _, _>(|comm| {
                comm.send_recv(0, vec![1.0], 0)?;
                Ok(())
            })
            .unwrap();
        assert!(
            start.elapsed() >= Duration::from_millis(15),
            "blocking hop must pay the modeled wire latency"
        );
        assert_eq!(report.send_recv.overlapped_ns, 0);

        let (_, report) = Fabric::new(1)
            .link(link)
            .run::<Vec<f32>, _, _>(|comm| {
                let pending = comm.isend_irecv(0, vec![1.0], 0)?;
                std::thread::sleep(Duration::from_millis(20));
                pending.wait()?;
                Ok(())
            })
            .unwrap();
        // The 20 ms compute span hides at least the 15 ms wire time.
        assert!(report.send_recv.overlapped_ns >= 15_000_000);
    }

    #[test]
    fn link_model_charges_bandwidth_per_byte() {
        let link = LinkModel {
            latency: Duration::ZERO,
            gib_per_s: 1.0,
        };
        // 1 GiB/s over 4 MiB ≈ 3.9 ms; delay() must scale with bytes.
        let small = link.delay(1024);
        let big = link.delay(4 * 1024 * 1024);
        assert!(big > small);
        assert!(big >= Duration::from_millis(3));
        // Latency-only links ignore size.
        let flat = LinkModel::latency_only(Duration::from_micros(5));
        assert_eq!(flat.delay(1), flat.delay(1 << 30));
    }

    #[test]
    fn checked_fabric_validates_nonblocking_ops_at_post_time() {
        let n = 3;
        let plan = ring_plan(n, n - 1, 8);
        let predicted = plan.predicted_traffic();
        let (_, report) = CheckedFabric::new(plan)
            .run::<Vec<f32>, _, _>(|comm| {
                let mut cur = vec![comm.rank() as f32; 2];
                for _ in 0..n - 1 {
                    let pending =
                        comm.isend_irecv(comm.ring_next(), cur.clone(), comm.ring_prev())?;
                    cur = pending.wait()?;
                }
                Ok(())
            })
            .unwrap();
        predicted.check_report(&report).unwrap();

        // A wrong-sized payload is rejected when the op is *posted*, so the
        // error carries the posting step even though wait() never ran.
        let plan = ring_plan(2, 1, 8);
        let err = CheckedFabric::new(plan)
            .run::<Vec<f32>, _, _>(|comm| {
                let payload = if comm.rank() == 1 {
                    vec![0.0; 3]
                } else {
                    vec![0.0; 2]
                };
                let pending = comm.isend_irecv(comm.ring_next(), payload, comm.ring_prev())?;
                pending.wait()?;
                Ok(())
            })
            .unwrap_err();
        match err {
            CommError::PlanViolation { rank, step, detail } => {
                assert_eq!(rank, 1);
                assert_eq!(step, 0);
                assert!(detail.contains("wire bytes"), "{detail}");
            }
            other => panic!("expected PlanViolation, got {other:?}"),
        }
    }

    #[test]
    fn communicator_pool_is_lazy_shared_and_sized() {
        let (res, _) = Fabric::new(2)
            .compute_pool(3)
            .run::<Vec<f32>, _, _>(|comm| {
                let pool = comm.pool();
                assert!(std::ptr::eq(pool, comm.pool()), "pool must be cached");
                Ok(pool.parallelism())
            })
            .unwrap();
        assert_eq!(res, vec![3, 3]);
    }
}
