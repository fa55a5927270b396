//! Symbolic schedule templates: each ring-algorithm *family* declared once
//! over symbolic parameters, with structural laws checked on the template
//! itself — so one check covers **every** world size and byte table, not
//! one grid instantiation.
//!
//! A [`SymTemplate`] describes a rank-relative schedule: peers are
//! expressions over the executing rank (`Next`, `Prev`, the visiting
//! block's origin), byte counts are expressions over per-origin byte
//! tables (`bytes[origin_at(j)]`, `bytes[self]`), and rounds are guarded
//! by predicates over the symbolic round index `j` and world size `W`.
//! [`check_template`] proves the schedule laws directly on that symbolic
//! form:
//!
//! * **ring-hop law** — every `SendRecv` is a `Next`/`Prev` hop whose
//!   send/recv byte expressions are consecutive origin lookups of one
//!   table with one variant, so FIFO matching holds for all `W`: rank
//!   `r`'s round-`j` receive expression equals rank `r-1`'s round-`j`
//!   send expression by the rotation identity
//!   `origin(r, j+1) = origin(r-1, j)`;
//! * **coverage law** — hops are guarded to run exactly rounds
//!   `0..W-1`, so every origin's block visits every rank exactly once
//!   and the final hop is neither dropped nor wrapped into a self-send;
//! * **scatter/gather law** — eager returns target the visiting origin,
//!   skip round 0 (the origin's own block), carry that origin's byte
//!   entry, and pair with a later ascending gather of the rank's own
//!   entry — the double-buffered pass-Q permutation;
//! * **collective law** — gather-shaped collectives broadcast the
//!   rank's **own** table entry.
//!
//! Deadlock-freedom lifts to the template level: sends are buffered in
//! the fabric's execution model, so a law-conforming template's only
//! blocking dependencies are each round's receive on the predecessor's
//! same-round send — posted *before* the predecessor's own round-`j`
//! receive — and the trailing gather on eager sends all posted before any
//! rank's gather begins. The wait-for graph of any instantiation is
//! therefore acyclic by induction on rounds, for every `W`. The grounded
//! cross-check ([`SymTemplate::ground`] + `check_plan` +
//! `explore_interleavings`) re-verifies this instance-by-instance for
//! small worlds, bounding the soundness of the symbolic argument (offset
//! distinctness degenerates for `W < 4`, where grounding is exhaustive).
//!
//! # Paths: bidirectional and hierarchical families
//!
//! The bidirectional (TokenRing-style) and topology-aware (TASP-style)
//! families generalize the flat forward ring to a pair of counter-rotating
//! [`RingPath`]s. Every op carries a [`PathDir`] selecting which path its
//! peers and origin lookups follow, and a template's
//! [`SymTemplate::ranks_per_node`] selects the path *shape*: `None`
//! grounds over the flat ring, `Some(g)` over the hierarchical ring of
//! `W/g` nodes. The ring-hop law is unchanged — `Next`/`Prev` mean the
//! hop path's send/receive peer, and every path is a Hamiltonian cycle
//! with the same lockstep-FIFO rotation identity — so one symbolic proof
//! covers all four `{uni, bidi} × {flat, hier}` layouts.
//!
//! Grounding applies the same FIFO-safety transform as the production
//! builders: an eager return targeting a peer that is also a hop channel
//! is deferred to the final-round flush point (`defer_return` in
//! `cp_core::schedule`), and the bidirectional trailing gather orders each
//! peer's two `Out` halves by which half that peer hosted first (the
//! τ-rule via [`RingPath::step_of`]). Both transforms are
//! semantics-preserving reorderings of buffered sends, so the symbolic
//! laws are checked on the *declared* order while grounding reproduces
//! the production op order bitwise.
//!
//! [`template_cases`] closes the loop with the production builders in
//! `cp_core::schedule`: grounding each template at concrete `(W, tables)`
//! must reproduce the production [`CommPlan`] **exactly**, and
//! [`SymTemplate::symbolic_traffic`]'s closed-form volume must equal the
//! grounded plan's `predicted_traffic`.

use cp_attention::AttentionParams;
use cp_comm::{CommOp, CommPlan, PredictedTraffic, RankPlan, Topology, Wire};
use cp_core::schedule::{
    all_gather_pass_kv_plan, all_gather_plan, all_reduce_plan, decode_bidi_plan, decode_plan,
    helix_decode_plan, helix_layer_plan, pass_kv_bidi_plan, pass_kv_plan, pass_kv_plan_on,
    pass_kv_quant_bidi_plan, pass_kv_quant_plan_on, pass_q_bidi_plan, pass_q_plan, pass_q_plan_on,
    stacked_plan, tp_only_decode_plan, RingLayout, RingPath,
};
use cp_core::{
    split_slot_vec, CoreError, DecodeSlot, LocalSeq, QuantSeqKv, RingMsg, SeqKv, SeqQ, ELEM_BYTES,
};
use cp_tensor::Tensor;

use crate::grid::{grid_locals, grid_params, grid_slots};

/// A symbolic index into a per-origin byte table, evaluated per
/// `(rank, world, round)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ix {
    /// The executing rank's own entry: `table[r]`.
    SelfRank,
    /// The entry of the block visiting at round `j + offset`:
    /// `table[ring_origin(r, W, j + offset)]`.
    OriginAt(usize),
}

/// A symbolic wire-byte count: one [`Ix`] lookup into one byte table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteExpr {
    /// Index of the byte table in [`SymTemplate::table_names`].
    pub table: usize,
    /// The symbolic lookup.
    pub ix: Ix,
}

/// A symbolic peer rank, evaluated per `(rank, world, round)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerExpr {
    /// The hop path's send peer at the current round — `(r + 1) mod W`
    /// on the flat forward ring.
    Next,
    /// The hop path's receive peer at the current round —
    /// `(r + W - 1) mod W` on the flat forward ring.
    Prev,
    /// The origin of the block visiting this rank at the current round
    /// along the op's path, `path.origin_at(r, j)`.
    VisitingOrigin,
}

/// Which of the template's two counter-rotating paths an op follows.
/// Unidirectional templates use only [`PathDir::Fwd`]; bidirectional ones
/// pair each forward op with a reverse twin over the second half's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PathDir {
    /// The forward path (`FlatFwd`/`HierFwd`).
    #[default]
    Fwd,
    /// The reverse path (`FlatRev`/`HierRev`).
    Rev,
}

/// A guard over the symbolic round index `j ∈ 0..W`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Guard {
    /// Runs every round.
    Always,
    /// Runs while `j + margin < W` — `BeforeRound(1)` is the ring-hop
    /// guard selecting exactly rounds `0..W-1`.
    BeforeRound(usize),
    /// Runs every round except `j = 0` (the rank's own block).
    NotFirstRound,
}

/// One symbolic point-to-point operation inside a round.
///
/// There is deliberately no lone symbolic `Recv` in rounds: a receive
/// ordered before its matching send (the classic ring deadlock seed) is
/// *inexpressible* in the template language — hop receives are fused into
/// `SendRecv` and gather receives live in a dedicated trailing segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymOp {
    /// A buffered ring step: send to `dst`, then receive from `src`.
    SendRecv {
        /// Which counter-rotating path the hop travels.
        path: PathDir,
        /// Symbolic destination of the send half.
        dst: PeerExpr,
        /// Symbolic source of the receive half.
        src: PeerExpr,
        /// Variant of the sent message.
        send_variant: &'static str,
        /// Variant of the received message.
        recv_variant: &'static str,
        /// Symbolic wire bytes of the send half.
        send: ByteExpr,
        /// Symbolic wire bytes of the receive half.
        recv: ByteExpr,
    },
    /// A lone buffered send (the eager pass-Q return hop).
    Send {
        /// Which path's visiting origin the return targets.
        path: PathDir,
        /// Symbolic destination rank.
        dst: PeerExpr,
        /// Variant of the sent message.
        variant: &'static str,
        /// Symbolic wire bytes of the message.
        bytes: ByteExpr,
    },
}

/// A guarded symbolic operation: `op` runs in every round where `guard`
/// holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardedOp {
    /// Round guard.
    pub guard: Guard,
    /// The operation.
    pub op: SymOp,
}

/// A symbolic fused collective over one byte table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymCollective {
    /// `All2All`: entry `j` of the table goes to rank `j`; each rank
    /// receives its own entry from every peer.
    AllToAll {
        /// Variant of every payload.
        variant: &'static str,
        /// Byte table indexed by destination rank.
        table: usize,
    },
    /// `AllGather`: each rank broadcasts `table[send_ix]` and collects the
    /// whole table.
    AllGather {
        /// Variant of every payload.
        variant: &'static str,
        /// Byte table indexed by source rank.
        table: usize,
        /// Which entry this rank broadcasts (lawful: [`Ix::SelfRank`]).
        send_ix: Ix,
    },
    /// `AllReduce`: gather + deterministic fold, same shape as
    /// `AllGather`.
    AllReduce {
        /// Variant of every payload.
        variant: &'static str,
        /// Byte table indexed by source rank.
        table: usize,
        /// Which entry this rank contributes (lawful: [`Ix::SelfRank`]).
        send_ix: Ix,
    },
}

/// One segment of a symbolic schedule, executed in order by every rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymSegment {
    /// A round loop `for j in 0..W`, running each guarded op in order per
    /// round — the ring-hop structure shared by Alg. 2–4.
    Rounds(Vec<GuardedOp>),
    /// Trailing lone receives from every peer in ascending rank order —
    /// the collection half of the double-buffered pass-Q return.
    GatherAscending {
        /// Variant of every received message.
        variant: &'static str,
        /// Symbolic wire bytes of each received message.
        bytes: ByteExpr,
    },
    /// Trailing receives of the bidirectional pass-Q return: **two**
    /// messages per peer in ascending rank order, carrying the rank's own
    /// forward-half and reverse-half partials. Grounding orders each pair
    /// by the τ-rule — the half the peer hosted (hence posted) at the
    /// earlier step arrives first on its FIFO channel, `first` winning
    /// ties because the round loop posts the forward return before the
    /// reverse one.
    GatherAscendingBidi {
        /// Variant of every received message.
        variant: &'static str,
        /// Bytes of the forward-half return (lawful: [`Ix::SelfRank`]).
        first: ByteExpr,
        /// Bytes of the reverse-half return (lawful: [`Ix::SelfRank`]).
        second: ByteExpr,
    },
    /// A single fused collective.
    Collective(SymCollective),
}

/// A schedule family declared once over symbolic `(W, byte tables)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymTemplate {
    /// Template name, used in reports.
    pub name: String,
    /// How many times the whole segment list repeats per rank (layers of
    /// a stacked forward plan).
    pub repeat: usize,
    /// Path shape the ops' peer and origin expressions evaluate over:
    /// `None` grounds on the flat ring at any `W`; `Some(g)` grounds on
    /// the hierarchical ring of `W/g` nodes × `g` ranks (TASP-style) and
    /// requires `g | W`. The symbolic laws are shape-independent — every
    /// path is a Hamiltonian cycle with the flat ring's rotation identity.
    pub ranks_per_node: Option<usize>,
    /// Names of the byte tables the expressions index; grounding supplies
    /// one concrete `Vec<usize>` of length `W` per name.
    pub table_names: Vec<&'static str>,
    /// Segments in per-rank program order.
    pub segments: Vec<SymSegment>,
}

/// A violation of the template laws, found symbolically — it holds for
/// *every* instantiation of the template, not one grid point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymViolation {
    /// Malformed template (bad table id, zero repeat, multiple round
    /// loops).
    Structure {
        /// What is malformed.
        detail: String,
    },
    /// A `SendRecv` that is not a lawful `Next`/`Prev` hop with
    /// consecutive origin byte expressions.
    RingHop {
        /// Segment index.
        segment: usize,
        /// Op index within the round loop.
        op: usize,
        /// What disagrees.
        detail: String,
    },
    /// A guard that breaks origin coverage (dropped final hop, or a
    /// wrapped self-send round).
    Coverage {
        /// Segment index.
        segment: usize,
        /// Op index within the round loop.
        op: usize,
        /// What the guard does wrong.
        detail: String,
    },
    /// An eager return send without a lawful shape or matching trailing
    /// gather.
    ScatterGather {
        /// Segment index.
        segment: usize,
        /// What is unpaired or misshapen.
        detail: String,
    },
    /// A gather-shaped collective broadcasting someone else's entry.
    Collective {
        /// Segment index.
        segment: usize,
        /// What the send expression does wrong.
        detail: String,
    },
}

impl std::fmt::Display for SymViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SymViolation::Structure { detail } => write!(f, "structure: {detail}"),
            SymViolation::RingHop {
                segment,
                op,
                detail,
            } => write!(f, "ring-hop law (segment {segment}, op {op}): {detail}"),
            SymViolation::Coverage {
                segment,
                op,
                detail,
            } => write!(f, "coverage law (segment {segment}, op {op}): {detail}"),
            SymViolation::ScatterGather { segment, detail } => {
                write!(f, "scatter/gather law (segment {segment}): {detail}")
            }
            SymViolation::Collective { segment, detail } => {
                write!(f, "collective law (segment {segment}): {detail}")
            }
        }
    }
}

fn guard_holds(guard: Guard, j: usize, world: usize) -> bool {
    match guard {
        Guard::Always => true,
        Guard::BeforeRound(margin) => j + margin < world,
        Guard::NotFirstRound => j > 0,
    }
}

/// Closed-form count of rounds `j ∈ 0..W` satisfying `guard` — the
/// symbolic per-rank call count of a guarded op.
fn guard_rounds(guard: Guard, world: usize) -> usize {
    match guard {
        Guard::Always => world,
        Guard::BeforeRound(margin) => world.saturating_sub(margin),
        Guard::NotFirstRound => world.saturating_sub(1),
    }
}

fn eval_peer(peer: PeerExpr, path: RingPath, rank: usize, round: usize) -> usize {
    match peer {
        PeerExpr::Next => path.send_peer(rank, round),
        PeerExpr::Prev => path.recv_peer(rank, round),
        PeerExpr::VisitingOrigin => path.origin_at(rank, round),
    }
}

fn eval_ix(ix: Ix, path: RingPath, rank: usize, round: usize) -> usize {
    match ix {
        Ix::SelfRank => rank,
        Ix::OriginAt(offset) => path.origin_at(rank, round + offset),
    }
}

fn table(tables: &[Vec<usize>], id: usize) -> Result<&Vec<usize>, String> {
    tables
        .get(id)
        .ok_or_else(|| format!("byte table {id} out of range ({} supplied)", tables.len()))
}

fn eval_bytes(
    expr: ByteExpr,
    tables: &[Vec<usize>],
    path: RingPath,
    rank: usize,
    round: usize,
) -> Result<usize, String> {
    let t = table(tables, expr.table)?;
    let i = eval_ix(expr.ix, path, rank, round);
    t.get(i)
        .copied()
        .ok_or_else(|| format!("byte table {} has no entry {i}", expr.table))
}

impl SymTemplate {
    /// Instantiates the template at a concrete world size and byte
    /// tables, producing the exact [`CommPlan`] the production builders
    /// would declare.
    ///
    /// # Errors
    ///
    /// A description of the first structural mismatch: zero world, table
    /// count or length disagreeing with the template.
    pub fn ground(&self, world: usize, tables: &[Vec<usize>]) -> Result<CommPlan, String> {
        if world == 0 {
            return Err("cannot ground at world 0".to_string());
        }
        if tables.len() != self.table_names.len() {
            return Err(format!(
                "template {} declares {} byte tables, {} supplied",
                self.name,
                self.table_names.len(),
                tables.len()
            ));
        }
        for (name, t) in self.table_names.iter().zip(tables) {
            if t.len() != world {
                return Err(format!(
                    "byte table {name} has {} entries for world {world}",
                    t.len()
                ));
            }
        }
        let layout = match self.ranks_per_node {
            None => RingLayout::Flat,
            Some(g) => {
                if g == 0 || !world.is_multiple_of(g) {
                    return Err(format!(
                        "template {}: {g} ranks per node do not tile world {world}",
                        self.name
                    ));
                }
                RingLayout::Hier(Topology::new(world / g, g))
            }
        };
        let fwd = layout.fwd(world).map_err(|e| e.to_string())?;
        let rev = layout.rev(world).map_err(|e| e.to_string())?;
        let ranks = (0..world)
            .map(|r| {
                Ok(RankPlan {
                    rank: r,
                    ops: self.ground_rank(r, world, tables, fwd, rev)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(CommPlan::from_ranks(ranks))
    }

    fn ground_rank(
        &self,
        rank: usize,
        world: usize,
        tables: &[Vec<usize>],
        fwd: RingPath,
        rev: RingPath,
    ) -> Result<Vec<CommOp>, String> {
        let on = |dir: PathDir| match dir {
            PathDir::Fwd => fwd,
            PathDir::Rev => rev,
        };
        let mut ops = Vec::new();
        for _ in 0..self.repeat {
            for segment in &self.segments {
                match segment {
                    SymSegment::Rounds(gops) => {
                        // The FIFO-safety transform the production
                        // builders apply (`hop_channels` + `defer_return`):
                        // an eager return whose destination also carries
                        // hop traffic is stashed and flushed after the
                        // final hop post, keeping each channel's order
                        // equal to the trailing gather declaration. On the
                        // flat forward ring this is a no-op (the visiting
                        // origin only equals `Next` at the final round).
                        let mut is_hop_dst = vec![false; world];
                        for gop in gops {
                            if let SymOp::SendRecv { path, .. } = gop.op {
                                let p = on(path);
                                for h in 0..world.saturating_sub(1) {
                                    if let Some(slot) = is_hop_dst.get_mut(p.send_peer(rank, h)) {
                                        *slot = true;
                                    }
                                }
                            }
                        }
                        let mut deferred: Vec<CommOp> = Vec::new();
                        for j in 0..world {
                            if j + 1 == world {
                                ops.append(&mut deferred);
                            }
                            for gop in gops {
                                if !guard_holds(gop.guard, j, world) {
                                    continue;
                                }
                                match gop.op {
                                    SymOp::SendRecv {
                                        path,
                                        dst,
                                        src,
                                        send_variant,
                                        recv_variant,
                                        send,
                                        recv,
                                    } => {
                                        let p = on(path);
                                        ops.push(CommOp::SendRecv {
                                            dst: eval_peer(dst, p, rank, j),
                                            src: eval_peer(src, p, rank, j),
                                            send_variant,
                                            recv_variant,
                                            send_bytes: eval_bytes(send, tables, p, rank, j)?,
                                            recv_bytes: eval_bytes(recv, tables, p, rank, j)?,
                                        });
                                    }
                                    SymOp::Send {
                                        path,
                                        dst,
                                        variant,
                                        bytes,
                                    } => {
                                        let p = on(path);
                                        let d = eval_peer(dst, p, rank, j);
                                        let op = CommOp::Send {
                                            dst: d,
                                            variant,
                                            bytes: eval_bytes(bytes, tables, p, rank, j)?,
                                        };
                                        let defer = j + 1 < world
                                            && is_hop_dst.get(d).copied().unwrap_or(false);
                                        if defer {
                                            deferred.push(op);
                                        } else {
                                            ops.push(op);
                                        }
                                    }
                                }
                            }
                        }
                    }
                    SymSegment::GatherAscending { variant, bytes } => {
                        for src in (0..world).filter(|&s| s != rank) {
                            ops.push(CommOp::Recv {
                                src,
                                variant,
                                bytes: eval_bytes(*bytes, tables, fwd, rank, 0)?,
                            });
                        }
                    }
                    SymSegment::GatherAscendingBidi {
                        variant,
                        first,
                        second,
                    } => {
                        for src in (0..world).filter(|&s| s != rank) {
                            // τ-rule: `src` posts our forward-half return
                            // at the step it hosts our A half and the
                            // reverse-half return at the step it hosts our
                            // B half; the earlier host step lands first on
                            // its FIFO channel (forward first on a tie).
                            let step = |p: RingPath| {
                                p.step_of(src, rank).ok_or_else(|| {
                                    format!(
                                        "ring path never routes rank {rank}'s block \
                                         through rank {src}"
                                    )
                                })
                            };
                            let (x, y) = if step(fwd)? <= step(rev)? {
                                (*first, *second)
                            } else {
                                (*second, *first)
                            };
                            for expr in [x, y] {
                                ops.push(CommOp::Recv {
                                    src,
                                    variant,
                                    bytes: eval_bytes(expr, tables, fwd, rank, 0)?,
                                });
                            }
                        }
                    }
                    SymSegment::Collective(c) => ops.push(match *c {
                        SymCollective::AllToAll { variant, table: t } => {
                            let tbl = table(tables, t)?;
                            CommOp::AllToAll {
                                variant,
                                send_bytes: tbl.clone(),
                                recv_bytes: vec![
                                    *tbl.get(rank).ok_or_else(|| format!(
                                        "byte table {t} has no entry {rank}"
                                    ))?;
                                    world
                                ],
                            }
                        }
                        SymCollective::AllGather {
                            variant,
                            table: t,
                            send_ix,
                        } => CommOp::AllGather {
                            variant,
                            send_bytes: eval_bytes(
                                ByteExpr {
                                    table: t,
                                    ix: send_ix,
                                },
                                tables,
                                fwd,
                                rank,
                                0,
                            )?,
                            recv_bytes: table(tables, t)?.clone(),
                        },
                        SymCollective::AllReduce {
                            variant,
                            table: t,
                            send_ix,
                        } => CommOp::AllReduce {
                            variant,
                            send_bytes: eval_bytes(
                                ByteExpr {
                                    table: t,
                                    ix: send_ix,
                                },
                                tables,
                                fwd,
                                rank,
                                0,
                            )?,
                            recv_bytes: table(tables, t)?.clone(),
                        },
                    }),
                }
            }
        }
        Ok(ops)
    }

    /// Closed-form traffic prediction, polynomial in `W` — no per-rank
    /// enumeration of ops.
    ///
    /// For any guarded op with an origin-relative byte expression, the
    /// per-round sum over ranks is a bijection over the table
    /// (`Σ_r table[origin(r, j + c)] = Σ table` for every fixed round
    /// `j`), so each op class contributes `rounds × Σ table` bytes and
    /// `W × rounds` calls per repeat; gather-shaped collectives
    /// contribute `(W − 1) × Σ table` sender-side bytes. Must equal the
    /// grounded plan's `predicted_traffic` for every instantiation.
    ///
    /// # Errors
    ///
    /// A description of a byte-table id out of range.
    pub fn symbolic_traffic(
        &self,
        world: usize,
        tables: &[Vec<usize>],
    ) -> Result<PredictedTraffic, String> {
        let sums: Vec<usize> = tables.iter().map(|t| t.iter().sum()).collect();
        let sum_of = |id: usize| -> Result<usize, String> {
            sums.get(id)
                .copied()
                .ok_or_else(|| format!("byte table {id} out of range ({} supplied)", sums.len()))
        };
        let mut p = PredictedTraffic::default();
        for segment in &self.segments {
            match segment {
                SymSegment::Rounds(gops) => {
                    for gop in gops {
                        let rounds = guard_rounds(gop.guard, world);
                        let (calls, bytes) = match gop.op {
                            SymOp::SendRecv { send, .. } => {
                                (world * rounds, rounds * sum_of(send.table)?)
                            }
                            SymOp::Send { bytes, .. } => {
                                (world * rounds, rounds * sum_of(bytes.table)?)
                            }
                        };
                        p.send_recv.calls += calls as u64;
                        p.send_recv.bytes += bytes;
                        p.messages += calls as u64;
                    }
                }
                // Receives are metered sender-side; the matching sends are
                // already counted by their own op class.
                SymSegment::GatherAscending { .. } | SymSegment::GatherAscendingBidi { .. } => {}
                SymSegment::Collective(c) => {
                    let peers = world.saturating_sub(1);
                    match *c {
                        SymCollective::AllToAll { table: t, .. } => {
                            p.all_to_all.calls += world as u64;
                            p.all_to_all.bytes += peers * sum_of(t)?;
                        }
                        SymCollective::AllGather { table: t, .. } => {
                            p.all_gather.calls += world as u64;
                            p.all_gather.bytes += peers * sum_of(t)?;
                        }
                        SymCollective::AllReduce { table: t, .. } => {
                            p.all_reduce.calls += world as u64;
                            p.all_reduce.bytes += peers * sum_of(t)?;
                        }
                    }
                    p.messages += (world * peers) as u64;
                }
            }
        }
        let repeat = self.repeat;
        p.messages *= repeat as u64;
        for c in [
            &mut p.send_recv,
            &mut p.all_to_all,
            &mut p.all_gather,
            &mut p.all_reduce,
        ] {
            c.calls *= repeat as u64;
            c.bytes *= repeat;
        }
        Ok(p)
    }
}

/// Checks the template laws symbolically. An empty result proves the
/// properties — FIFO matching, variant agreement, origin coverage,
/// scatter/gather pairing, collective self-contribution, and (via the
/// module-level argument) deadlock-freedom — for **every** `(W, tables)`
/// instantiation at once.
pub fn check_template(template: &SymTemplate) -> Vec<SymViolation> {
    let mut v = Vec::new();
    if template.repeat == 0 {
        v.push(SymViolation::Structure {
            detail: format!("template {} repeats zero times", template.name),
        });
    }
    if template.ranks_per_node == Some(0) {
        v.push(SymViolation::Structure {
            detail: format!(
                "template {} declares a hierarchical layout with zero ranks per node",
                template.name
            ),
        });
    }
    let n_tables = template.table_names.len();
    let check_table = |v: &mut Vec<SymViolation>, id: usize, what: &str| {
        if id >= n_tables {
            v.push(SymViolation::Structure {
                detail: format!("{what} references byte table {id}, only {n_tables} declared"),
            });
        }
    };
    let round_segments = template
        .segments
        .iter()
        .filter(|s| matches!(s, SymSegment::Rounds(_)))
        .count();
    if round_segments > 1 {
        v.push(SymViolation::Structure {
            detail: format!(
                "template {} has {round_segments} round loops; the coverage argument \
                 assumes at most one",
                template.name
            ),
        });
    }

    for (si, segment) in template.segments.iter().enumerate() {
        match segment {
            SymSegment::Rounds(gops) => {
                for (oi, gop) in gops.iter().enumerate() {
                    match gop.op {
                        SymOp::SendRecv {
                            path: _,
                            dst,
                            src,
                            send_variant,
                            recv_variant,
                            send,
                            recv,
                        } => {
                            check_table(&mut v, send.table, "hop send");
                            check_table(&mut v, recv.table, "hop recv");
                            if dst != PeerExpr::Next || src != PeerExpr::Prev {
                                v.push(SymViolation::RingHop {
                                    segment: si,
                                    op: oi,
                                    detail: format!(
                                        "hop must send to its path's Next and receive from \
                                         its path's Prev, got dst {dst:?}, src {src:?}"
                                    ),
                                });
                            }
                            if send_variant != recv_variant {
                                v.push(SymViolation::RingHop {
                                    segment: si,
                                    op: oi,
                                    detail: format!(
                                        "hop variants disagree: sends {send_variant}, \
                                         receives {recv_variant}"
                                    ),
                                });
                            }
                            if send.table != recv.table {
                                v.push(SymViolation::RingHop {
                                    segment: si,
                                    op: oi,
                                    detail: format!(
                                        "hop halves index different byte tables ({} vs {})",
                                        send.table, recv.table
                                    ),
                                });
                            }
                            match (send.ix, recv.ix) {
                                (Ix::OriginAt(a), Ix::OriginAt(b)) if b == a + 1 => {}
                                (send_ix, recv_ix) => v.push(SymViolation::RingHop {
                                    segment: si,
                                    op: oi,
                                    detail: format!(
                                        "hop byte expressions must be consecutive origin \
                                         lookups (send origin_at(a), recv origin_at(a+1)) so \
                                         rank r's receive matches rank r-1's send for all W; \
                                         got send {send_ix:?}, recv {recv_ix:?}"
                                    ),
                                }),
                            }
                            if gop.guard != Guard::BeforeRound(1) {
                                v.push(SymViolation::Coverage {
                                    segment: si,
                                    op: oi,
                                    detail: format!(
                                        "hop guard must be BeforeRound(1) (exactly W-1 hops: \
                                         every origin visits every rank once, no wrapped \
                                         self-send); got {:?}",
                                        gop.guard
                                    ),
                                });
                            }
                        }
                        SymOp::Send {
                            path: _,
                            dst,
                            variant,
                            bytes,
                        } => {
                            check_table(&mut v, bytes.table, "eager return send");
                            if dst != PeerExpr::VisitingOrigin {
                                v.push(SymViolation::ScatterGather {
                                    segment: si,
                                    detail: format!(
                                        "op {oi}: eager return must target the visiting \
                                         origin, got {dst:?}"
                                    ),
                                });
                            }
                            if gop.guard != Guard::NotFirstRound {
                                v.push(SymViolation::Coverage {
                                    segment: si,
                                    op: oi,
                                    detail: format!(
                                        "eager return guard must be NotFirstRound (round 0 \
                                         visits the rank's own block, which stays local); \
                                         got {:?}",
                                        gop.guard
                                    ),
                                });
                            }
                            if bytes.ix != Ix::OriginAt(0) {
                                v.push(SymViolation::ScatterGather {
                                    segment: si,
                                    detail: format!(
                                        "op {oi}: eager return must carry the visiting \
                                         origin's entry origin_at(0), got {:?}",
                                        bytes.ix
                                    ),
                                });
                            }
                            let paired = template.segments[si + 1..].iter().any(|s| match s {
                                SymSegment::GatherAscending {
                                    variant: gv,
                                    bytes: gb,
                                } => {
                                    *gv == variant
                                        && gb.table == bytes.table
                                        && gb.ix == Ix::SelfRank
                                }
                                SymSegment::GatherAscendingBidi {
                                    variant: gv,
                                    first,
                                    second,
                                } => {
                                    *gv == variant
                                        && [first, second].iter().any(|gb| {
                                            gb.table == bytes.table && gb.ix == Ix::SelfRank
                                        })
                                }
                                _ => false,
                            });
                            if !paired {
                                v.push(SymViolation::ScatterGather {
                                    segment: si,
                                    detail: format!(
                                        "op {oi}: eager {variant} return has no later \
                                         ascending gather of the rank's own table entry"
                                    ),
                                });
                            }
                        }
                    }
                }
            }
            SymSegment::GatherAscending { variant, bytes } => {
                check_table(&mut v, bytes.table, "trailing gather");
                if bytes.ix != Ix::SelfRank {
                    v.push(SymViolation::ScatterGather {
                        segment: si,
                        detail: format!(
                            "trailing gather must collect the rank's own entry \
                             (every peer returns bytes[self]), got {:?}",
                            bytes.ix
                        ),
                    });
                }
                let sourced = template.segments[..si].iter().any(|s| {
                    matches!(s, SymSegment::Rounds(gops) if gops.iter().any(|g| matches!(
                        g.op,
                        SymOp::Send { variant: sv, bytes: sb, .. }
                            if sv == *variant && sb.table == bytes.table
                    )))
                });
                if !sourced {
                    v.push(SymViolation::ScatterGather {
                        segment: si,
                        detail: format!(
                            "trailing {variant} gather has no earlier eager return feeding it"
                        ),
                    });
                }
            }
            SymSegment::GatherAscendingBidi {
                variant,
                first,
                second,
            } => {
                for (half, expr, dir) in [
                    ("forward", first, PathDir::Fwd),
                    ("reverse", second, PathDir::Rev),
                ] {
                    check_table(&mut v, expr.table, "bidirectional trailing gather");
                    if expr.ix != Ix::SelfRank {
                        v.push(SymViolation::ScatterGather {
                            segment: si,
                            detail: format!(
                                "bidirectional gather's {half} half must collect the rank's \
                                 own entry (every peer returns bytes[self]), got {:?}",
                                expr.ix
                            ),
                        });
                    }
                    // Each half must be fed by an eager return travelling
                    // the matching path, so the τ-rule ordering at
                    // grounding time names the channel the bytes actually
                    // arrive on.
                    let sourced = template.segments[..si].iter().any(|s| {
                        matches!(s, SymSegment::Rounds(gops) if gops.iter().any(|g| matches!(
                            g.op,
                            SymOp::Send { path: sp, variant: sv, bytes: sb, .. }
                                if sv == *variant && sb.table == expr.table && sp == dir
                        )))
                    });
                    if !sourced {
                        v.push(SymViolation::ScatterGather {
                            segment: si,
                            detail: format!(
                                "bidirectional {variant} gather's {half} half has no earlier \
                                 {half}-path eager return feeding it"
                            ),
                        });
                    }
                }
            }
            SymSegment::Collective(c) => match *c {
                SymCollective::AllToAll { table: t, .. } => check_table(&mut v, t, "all_to_all"),
                SymCollective::AllGather {
                    table: t, send_ix, ..
                }
                | SymCollective::AllReduce {
                    table: t, send_ix, ..
                } => {
                    check_table(&mut v, t, "gather-shaped collective");
                    if send_ix != Ix::SelfRank {
                        v.push(SymViolation::Collective {
                            segment: si,
                            detail: format!(
                                "gather-shaped collective must broadcast the rank's own \
                                 entry bytes[self], got {send_ix:?}"
                            ),
                        });
                    }
                }
            },
        }
    }
    v
}

/// A seeded template-level bug: unlike the concrete [`crate::Mutation`]s,
/// these corrupt the *symbolic* declaration, so a single seed misdeclares
/// every instantiation of the family at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemplateMutation {
    /// Hop receive expression reuses the send's origin offset — the
    /// schedule stops tracking block rotation.
    WrongRecvByteExpr,
    /// Hop receive expression skips an origin (`origin_at(a+2)`) — a
    /// rank-rotation off-by-one.
    RotationOffByOne,
    /// Hop guard tightened to `BeforeRound(2)` — the final hop is
    /// dropped, so the last origin never completes its tour. The grounded
    /// plan is still a *valid shorter ring* that concrete `check_plan`
    /// accepts; only the symbolic coverage law (and the runtime
    /// `CheckedFabric` drain check) catch it.
    DropFinalHop,
    /// Gather-shaped collective broadcasts a rotated entry instead of the
    /// rank's own.
    WrongCollectiveSend,
}

impl TemplateMutation {
    /// Every template-level mutation.
    pub fn seeds() -> [TemplateMutation; 4] {
        [
            TemplateMutation::WrongRecvByteExpr,
            TemplateMutation::RotationOffByOne,
            TemplateMutation::DropFinalHop,
            TemplateMutation::WrongCollectiveSend,
        ]
    }

    /// Short id used in reports.
    pub fn tag(self) -> &'static str {
        match self {
            TemplateMutation::WrongRecvByteExpr => "wrong-recv-byte-expr",
            TemplateMutation::RotationOffByOne => "rotation-off-by-one",
            TemplateMutation::DropFinalHop => "drop-final-hop",
            TemplateMutation::WrongCollectiveSend => "wrong-collective-send",
        }
    }
}

/// Applies a template mutation, returning `None` when the template has no
/// site for it (e.g. a collective-only template for a hop mutation).
pub fn apply_template_mutation(
    template: &SymTemplate,
    mutation: TemplateMutation,
) -> Option<SymTemplate> {
    let mut t = template.clone();
    let mut applied = false;
    for segment in &mut t.segments {
        if applied {
            break;
        }
        match (mutation, segment) {
            (
                TemplateMutation::WrongRecvByteExpr
                | TemplateMutation::RotationOffByOne
                | TemplateMutation::DropFinalHop,
                SymSegment::Rounds(gops),
            ) => {
                for gop in gops.iter_mut() {
                    if let SymOp::SendRecv { send, recv, .. } = &mut gop.op {
                        let Ix::OriginAt(a) = send.ix else { continue };
                        match mutation {
                            TemplateMutation::WrongRecvByteExpr => recv.ix = Ix::OriginAt(a),
                            TemplateMutation::RotationOffByOne => recv.ix = Ix::OriginAt(a + 2),
                            TemplateMutation::DropFinalHop => gop.guard = Guard::BeforeRound(2),
                            TemplateMutation::WrongCollectiveSend => unreachable!(),
                        }
                        applied = true;
                        break;
                    }
                }
            }
            (TemplateMutation::WrongCollectiveSend, SymSegment::Collective(c)) => match c {
                SymCollective::AllGather { send_ix, .. }
                | SymCollective::AllReduce { send_ix, .. } => {
                    *send_ix = Ix::OriginAt(1);
                    applied = true;
                }
                SymCollective::AllToAll { .. } => {}
            },
            _ => {}
        }
    }
    applied.then(|| {
        t.name = format!("{}+{}", t.name, mutation.tag());
        t
    })
}

fn hop(variant: &'static str, table: usize) -> GuardedOp {
    hop_on(variant, table, PathDir::Fwd)
}

fn hop_on(variant: &'static str, table: usize, path: PathDir) -> GuardedOp {
    GuardedOp {
        guard: Guard::BeforeRound(1),
        op: SymOp::SendRecv {
            path,
            dst: PeerExpr::Next,
            src: PeerExpr::Prev,
            send_variant: variant,
            recv_variant: variant,
            send: ByteExpr {
                table,
                ix: Ix::OriginAt(0),
            },
            recv: ByteExpr {
                table,
                ix: Ix::OriginAt(1),
            },
        },
    }
}

fn eager_return(variant: &'static str, table: usize, path: PathDir) -> GuardedOp {
    GuardedOp {
        guard: Guard::NotFirstRound,
        op: SymOp::Send {
            path,
            dst: PeerExpr::VisitingOrigin,
            variant,
            bytes: ByteExpr {
                table,
                ix: Ix::OriginAt(0),
            },
        },
    }
}

/// The pass-KV prefill family (Algorithm 2): `W-1` KV ring hops.
pub fn pass_kv_template() -> SymTemplate {
    SymTemplate {
        name: "pass_kv".to_string(),
        repeat: 1,
        ranks_per_node: None,
        table_names: vec!["kv"],
        segments: vec![SymSegment::Rounds(vec![hop("Kv", 0)])],
    }
}

/// The pass-Q prefill family (Algorithm 3, double-buffered return): Q
/// ring hops interleaved with eager partial-output returns, then an
/// ascending gather of this rank's own partials.
pub fn pass_q_template() -> SymTemplate {
    SymTemplate {
        name: "pass_q".to_string(),
        repeat: 1,
        ranks_per_node: None,
        table_names: vec!["q", "out"],
        segments: vec![
            SymSegment::Rounds(vec![hop("Q", 0), eager_return("Out", 1, PathDir::Fwd)]),
            SymSegment::GatherAscending {
                variant: "Out",
                bytes: ByteExpr {
                    table: 1,
                    ix: Ix::SelfRank,
                },
            },
        ],
    }
}

/// The batched pass-Q decode family (Algorithm 4): decode-Q ring hops,
/// then one fused `All2All` of per-slot partial outputs.
pub fn decode_template() -> SymTemplate {
    SymTemplate {
        name: "decode".to_string(),
        repeat: 1,
        ranks_per_node: None,
        table_names: vec!["dq", "dout"],
        segments: vec![
            SymSegment::Rounds(vec![hop("DecodeQ", 0)]),
            SymSegment::Collective(SymCollective::AllToAll {
                variant: "DecodeOut",
                table: 1,
            }),
        ],
    }
}

/// The all-gather pass-KV baseline family (§3.5.2): one fused `AllGather`
/// of every rank's KV shard.
pub fn all_gather_baseline_template() -> SymTemplate {
    SymTemplate {
        name: "all_gather_baseline".to_string(),
        repeat: 1,
        ranks_per_node: None,
        table_names: vec!["kv"],
        segments: vec![SymSegment::Collective(SymCollective::AllGather {
            variant: "Kv",
            table: 0,
            send_ix: Ix::SelfRank,
        })],
    }
}

/// The TP column→row activation `AllReduce` family (Table 2).
pub fn tp_all_reduce_template() -> SymTemplate {
    SymTemplate {
        name: "tp_all_reduce".to_string(),
        repeat: 1,
        ranks_per_node: None,
        table_names: vec!["payload"],
        segments: vec![SymSegment::Collective(SymCollective::AllReduce {
            variant: "payload",
            table: 0,
            send_ix: Ix::SelfRank,
        })],
    }
}

/// The TP attention output `AllGather` family (§4.2.2).
pub fn tp_all_gather_template() -> SymTemplate {
    SymTemplate {
        name: "tp_all_gather".to_string(),
        repeat: 1,
        ranks_per_node: None,
        table_names: vec!["payload"],
        segments: vec![SymSegment::Collective(SymCollective::AllGather {
            variant: "payload",
            table: 0,
            send_ix: Ix::SelfRank,
        })],
    }
}

/// The bidirectional pass-KV prefill family (TokenRing-style,
/// arXiv:2412.20501): each rank's KV block splits at the token midpoint
/// and the two halves counter-rotate, one forward hop and one reverse hop
/// per round — per-link bytes per step halve while total volume is
/// unchanged.
pub fn pass_kv_bidi_template() -> SymTemplate {
    SymTemplate {
        name: "pass_kv_bidi".to_string(),
        repeat: 1,
        ranks_per_node: None,
        table_names: vec!["kv_a", "kv_b"],
        segments: vec![SymSegment::Rounds(vec![
            hop_on("Kv", 0, PathDir::Fwd),
            hop_on("Kv", 1, PathDir::Rev),
        ])],
    }
}

/// The bidirectional pass-Q prefill family: the two query halves
/// counter-rotate, each round posting both hops and both eager partial
/// returns, with a trailing gather of **two** `Out` messages per peer
/// ordered by the τ-rule.
pub fn pass_q_bidi_template() -> SymTemplate {
    SymTemplate {
        name: "pass_q_bidi".to_string(),
        repeat: 1,
        ranks_per_node: None,
        table_names: vec!["q_a", "q_b", "out_a", "out_b"],
        segments: vec![
            SymSegment::Rounds(vec![
                hop_on("Q", 0, PathDir::Fwd),
                hop_on("Q", 1, PathDir::Rev),
                eager_return("Out", 2, PathDir::Fwd),
                eager_return("Out", 3, PathDir::Rev),
            ]),
            SymSegment::GatherAscendingBidi {
                variant: "Out",
                first: ByteExpr {
                    table: 2,
                    ix: Ix::SelfRank,
                },
                second: ByteExpr {
                    table: 3,
                    ix: Ix::SelfRank,
                },
            },
        ],
    }
}

/// The bidirectional batched pass-Q decode family: the slot vector splits
/// at the midpoint, the halves counter-rotate, and the same single
/// `All2All` as the unidirectional family returns the per-origin partials.
pub fn decode_bidi_template() -> SymTemplate {
    SymTemplate {
        name: "decode_bidi".to_string(),
        repeat: 1,
        ranks_per_node: None,
        table_names: vec!["dq_a", "dq_b", "dout"],
        segments: vec![
            SymSegment::Rounds(vec![
                hop_on("DecodeQ", 0, PathDir::Fwd),
                hop_on("DecodeQ", 1, PathDir::Rev),
            ]),
            SymSegment::Collective(SymCollective::AllToAll {
                variant: "DecodeOut",
                table: 2,
            }),
        ],
    }
}

/// The Helix decode attention family (Helix-parallelism-style,
/// arXiv:2507.07120): the `W-1` DecodeQ ring hops of [`decode_template`]
/// fuse into one `AllGather` of every origin's slot vector — each rank
/// attends over its local KV shard for the whole batch at once — and the
/// same single `All2All` returns the per-origin partials for the exact
/// ascending-rank merge.
pub fn helix_decode_template() -> SymTemplate {
    SymTemplate {
        name: "helix_decode".to_string(),
        repeat: 1,
        ranks_per_node: None,
        table_names: vec!["dq", "dout"],
        segments: vec![
            SymSegment::Collective(SymCollective::AllGather {
                variant: "DecodeQ",
                table: 0,
                send_ix: Ix::SelfRank,
            }),
            SymSegment::Collective(SymCollective::AllToAll {
                variant: "DecodeOut",
                table: 1,
            }),
        ],
    }
}

/// The TP-only decode family: one `AllGather` replicating every rank's
/// owned per-sequence KV shards; each slot's owner then folds one partial
/// per source shard locally, so no partials travel back. The `W = 1`
/// production plan degenerates to zero ops (no collective is issued);
/// the family covers the `W ≥ 2` collective.
pub fn tp_only_decode_template() -> SymTemplate {
    SymTemplate {
        name: "tp_only_decode".to_string(),
        repeat: 1,
        ranks_per_node: None,
        table_names: vec!["kv"],
        segments: vec![SymSegment::Collective(SymCollective::AllGather {
            variant: "Kv",
            table: 0,
            send_ix: Ix::SelfRank,
        })],
    }
}

/// One serve-engine transformer layer of Helix decode: the attention
/// collectives of [`helix_decode_template`] followed by the TP reshard —
/// an `AllGather` replicating each owner's merged attention rows (`act`:
/// per-rank real-slot rows × `D`), then two row-parallel `AllReduce`s
/// (out projection, FFN down projection), each summing a full
/// `[batch, D]` partial (`act_sum`, uniform). Stacked per layer via
/// `repeat` — the symbolic form of `stacked_plan` over
/// `helix_layer_plan`.
pub fn helix_layer_template() -> SymTemplate {
    SymTemplate {
        name: "helix_layer".to_string(),
        repeat: 1,
        ranks_per_node: None,
        table_names: vec!["dq", "dout", "act", "act_sum"],
        segments: vec![
            SymSegment::Collective(SymCollective::AllGather {
                variant: "DecodeQ",
                table: 0,
                send_ix: Ix::SelfRank,
            }),
            SymSegment::Collective(SymCollective::AllToAll {
                variant: "DecodeOut",
                table: 1,
            }),
            SymSegment::Collective(SymCollective::AllGather {
                variant: "Act",
                table: 2,
                send_ix: Ix::SelfRank,
            }),
            SymSegment::Collective(SymCollective::AllReduce {
                variant: "Act",
                table: 3,
                send_ix: Ix::SelfRank,
            }),
            SymSegment::Collective(SymCollective::AllReduce {
                variant: "Act",
                table: 3,
                send_ix: Ix::SelfRank,
            }),
        ],
    }
}

/// The topology-aware pass-KV prefill family (TASP-style,
/// arXiv:2509.26541): the flat hop structure over the hierarchical ring of
/// `g` ranks per node, keeping `W-N` of the `W-1` hops on fast intra-node
/// links.
pub fn pass_kv_hier_template(ranks_per_node: usize) -> SymTemplate {
    SymTemplate {
        name: "pass_kv_hier".to_string(),
        ranks_per_node: Some(ranks_per_node),
        ..pass_kv_template()
    }
}

/// The topology-aware pass-Q prefill family: hierarchical Q circulation
/// with the same eager-return / trailing-gather permutation; grounding
/// defers returns that share a channel with later hops (the production
/// `defer_return` transform, a no-op on the flat ring).
pub fn pass_q_hier_template(ranks_per_node: usize) -> SymTemplate {
    SymTemplate {
        name: "pass_q_hier".to_string(),
        ranks_per_node: Some(ranks_per_node),
        ..pass_q_template()
    }
}

/// The bidirectional **and** topology-aware pass-KV family: counter-
/// rotating KV halves over the hierarchical ring — the schedule the
/// adaptive heuristics pick for long-context prefill on multi-node
/// asymmetric fabrics.
pub fn pass_kv_bidi_hier_template(ranks_per_node: usize) -> SymTemplate {
    SymTemplate {
        name: "pass_kv_bidi_hier".to_string(),
        ranks_per_node: Some(ranks_per_node),
        ..pass_kv_bidi_template()
    }
}

/// The compressed pass-KV prefill family (APB-style INT8 wire format):
/// structurally the flat KV ring, but each hop relays `KvQuant` blocks —
/// 1-byte codes plus one `f32` scale per `(token, head)`, `2·l·n_kv·(d+4)`
/// bytes instead of the f32 `2·l·n_kv·d·4`. One byte table, same ring-hop
/// and coverage laws; only the table's entries (and the variant) change.
pub fn pass_kv_quant_template() -> SymTemplate {
    SymTemplate {
        name: "pass_kv_quant".to_string(),
        repeat: 1,
        ranks_per_node: None,
        table_names: vec!["kvq"],
        segments: vec![SymSegment::Rounds(vec![hop("KvQuant", 0)])],
    }
}

/// The bidirectional compressed pass-KV family: the INT8 block splits at
/// the token midpoint (codes copied verbatim, no requantization) and the
/// halves counter-rotate.
pub fn pass_kv_quant_bidi_template() -> SymTemplate {
    SymTemplate {
        name: "pass_kv_quant_bidi".to_string(),
        repeat: 1,
        ranks_per_node: None,
        table_names: vec!["kvq_a", "kvq_b"],
        segments: vec![SymSegment::Rounds(vec![
            hop_on("KvQuant", 0, PathDir::Fwd),
            hop_on("KvQuant", 1, PathDir::Rev),
        ])],
    }
}

/// The topology-aware compressed pass-KV family: INT8 hops over the
/// hierarchical ring.
pub fn pass_kv_quant_hier_template(ranks_per_node: usize) -> SymTemplate {
    SymTemplate {
        name: "pass_kv_quant_hier".to_string(),
        ranks_per_node: Some(ranks_per_node),
        ..pass_kv_quant_template()
    }
}

/// The bidirectional **and** topology-aware compressed pass-KV family.
pub fn pass_kv_quant_bidi_hier_template(ranks_per_node: usize) -> SymTemplate {
    SymTemplate {
        name: "pass_kv_quant_bidi_hier".to_string(),
        ranks_per_node: Some(ranks_per_node),
        ..pass_kv_quant_bidi_template()
    }
}

/// The full-stack forward family: one ring schedule (pass-KV or pass-Q)
/// per transformer layer inside a single fabric session — the symbolic
/// form of `cp_core::schedule::stacked_plan` over the layer template.
pub fn forward_template(layers: usize, pass_q: bool) -> SymTemplate {
    let layer = if pass_q {
        pass_q_template()
    } else {
        pass_kv_template()
    };
    SymTemplate {
        name: format!(
            "forward_{}_x{layers}",
            if pass_q { "pass_q" } else { "pass_kv" }
        ),
        repeat: layers,
        ranks_per_node: layer.ranks_per_node,
        table_names: layer.table_names,
        segments: layer.segments,
    }
}

/// Every declared template family, covering every collective the
/// workspace issues: the three ring algorithms in both directions, the
/// hierarchical layouts, the three decode strategies (batched pass-Q,
/// Helix, TP-only — plus the Helix serve layer with its TP reshard), the
/// all-gather baseline, both TP collectives, and the stacked full-stack
/// forward in both ring variants.
pub fn all_templates() -> Vec<SymTemplate> {
    vec![
        pass_kv_template(),
        pass_q_template(),
        decode_template(),
        pass_kv_bidi_template(),
        pass_q_bidi_template(),
        decode_bidi_template(),
        helix_decode_template(),
        tp_only_decode_template(),
        helix_layer_template(),
        pass_kv_hier_template(2),
        pass_q_hier_template(2),
        pass_kv_bidi_hier_template(2),
        pass_kv_quant_template(),
        pass_kv_quant_bidi_template(),
        pass_kv_quant_hier_template(2),
        pass_kv_quant_bidi_hier_template(2),
        all_gather_baseline_template(),
        tp_all_reduce_template(),
        tp_all_gather_template(),
        forward_template(3, false),
        forward_template(2, true),
    ]
}

/// One grounded template instance paired with the production builder's
/// plan for the same inputs.
#[derive(Debug, Clone)]
pub struct TemplateCase {
    /// Case id, e.g. `w5/pass_q`.
    pub name: String,
    /// The symbolic template.
    pub template: SymTemplate,
    /// Concrete per-origin byte tables, derived independently from the
    /// payload types' [`Wire`] impls (never copied from the builders).
    pub tables: Vec<Vec<usize>>,
    /// The plan the production builder in `cp_core::schedule` declares
    /// for the same inputs — grounding must reproduce it exactly.
    pub production: CommPlan,
}

fn kv_bytes(locals: &[Vec<LocalSeq>]) -> Vec<usize> {
    locals
        .iter()
        .map(|ls| {
            RingMsg::Kv {
                seqs: ls
                    .iter()
                    .map(|l| SeqKv {
                        k: l.k.clone(),
                        v: l.v.clone(),
                        pos: l.kv_pos.clone(),
                    })
                    .collect(),
            }
            .wire_bytes()
        })
        .collect()
}

fn q_bytes(locals: &[Vec<LocalSeq>]) -> Vec<usize> {
    locals
        .iter()
        .enumerate()
        .map(|(r, ls)| {
            RingMsg::Q {
                origin: r,
                seqs: ls
                    .iter()
                    .map(|l| SeqQ {
                        q: l.q.clone(),
                        pos: l.q_pos.clone(),
                    })
                    .collect(),
            }
            .wire_bytes()
        })
        .collect()
}

fn out_bytes(params: &AttentionParams, locals: &[Vec<LocalSeq>]) -> Vec<usize> {
    let h = params.shape.n_heads();
    locals
        .iter()
        .map(|ls| {
            ls.iter()
                .map(|l| (l.q.numel() + l.q_pos.len() * h) * ELEM_BYTES)
                .sum()
        })
        .collect()
}

fn dq_bytes(slots: &[Vec<Option<DecodeSlot>>]) -> Vec<usize> {
    slots
        .iter()
        .enumerate()
        .map(|(r, s)| {
            RingMsg::DecodeQ {
                origin: r,
                slots: s.clone(),
            }
            .wire_bytes()
        })
        .collect()
}

fn dout_bytes(params: &AttentionParams, slots: &[Vec<Option<DecodeSlot>>]) -> Vec<usize> {
    let h = params.shape.n_heads();
    slots
        .iter()
        .map(|s| {
            s.iter()
                .flatten()
                .map(|slot| (slot.q.numel() + h) * ELEM_BYTES)
                .sum()
        })
        .collect()
}

/// Per-rank wire bytes of the compressed KV blocks, derived by actually
/// quantizing the grid inputs and asking the [`Wire`] impl — independent
/// of the builders' zero-code skeletons (byte counts depend only on
/// geometry, which both sides must agree on).
fn kv_quant_bytes(locals: &[Vec<LocalSeq>]) -> Result<Vec<usize>, CoreError> {
    locals
        .iter()
        .map(|ls| {
            let seqs = ls
                .iter()
                .map(|l| {
                    QuantSeqKv::quantize(&SeqKv {
                        k: l.k.clone(),
                        v: l.v.clone(),
                        pos: l.kv_pos.clone(),
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(RingMsg::KvQuant { seqs }.wire_bytes())
        })
        .collect()
}

/// Per-rank `(A, B)` wire bytes of the bidirectional compressed KV
/// halves: quantize, split the codes at the token midpoint, meter each
/// half — the same verbatim-code split the production loops perform.
fn kv_quant_half_tables(locals: &[Vec<LocalSeq>]) -> Result<(Vec<usize>, Vec<usize>), CoreError> {
    let mut a = Vec::with_capacity(locals.len());
    let mut b = Vec::with_capacity(locals.len());
    for ls in locals {
        let (mut ab, mut bb) = (0usize, 0usize);
        for l in ls {
            let q = QuantSeqKv::quantize(&SeqKv {
                k: l.k.clone(),
                v: l.v.clone(),
                pos: l.kv_pos.clone(),
            })?;
            let (ha, hb) = q.split_halves()?;
            ab += RingMsg::KvQuant { seqs: vec![ha] }.wire_bytes();
            bb += RingMsg::KvQuant { seqs: vec![hb] }.wire_bytes();
        }
        a.push(ab);
        b.push(bb);
    }
    Ok((a, b))
}

/// Per-rank `(A, B)` wire bytes of the bidirectional KV halves, derived
/// from the payload types' own midpoint split — independent of the
/// builders' internal tables.
fn kv_half_tables(locals: &[Vec<LocalSeq>]) -> Result<(Vec<usize>, Vec<usize>), CoreError> {
    let mut a = Vec::with_capacity(locals.len());
    let mut b = Vec::with_capacity(locals.len());
    for ls in locals {
        let (mut ab, mut bb) = (0usize, 0usize);
        for l in ls {
            let (ha, hb) = SeqKv {
                k: l.k.clone(),
                v: l.v.clone(),
                pos: l.kv_pos.clone(),
            }
            .split_halves()?;
            ab += RingMsg::Kv { seqs: vec![ha] }.wire_bytes();
            bb += RingMsg::Kv { seqs: vec![hb] }.wire_bytes();
        }
        a.push(ab);
        b.push(bb);
    }
    Ok((a, b))
}

/// Per-rank byte tables `(q_a, q_b, out_a, out_b)` for the
/// bidirectional pass-Q family.
type QOutHalves = (Vec<usize>, Vec<usize>, Vec<usize>, Vec<usize>);

/// Per-rank `(A, B)` wire bytes of the bidirectional Q halves and the
/// `Out` messages returning each half's partials.
fn q_out_half_tables(
    params: &AttentionParams,
    locals: &[Vec<LocalSeq>],
) -> Result<QOutHalves, CoreError> {
    let h = params.shape.n_heads();
    let n = locals.len();
    let (mut qa, mut qb) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let (mut oa, mut ob) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for ls in locals {
        let (mut qav, mut qbv, mut oav, mut obv) = (0usize, 0usize, 0usize, 0usize);
        for l in ls {
            let (ha, hb) = SeqQ {
                q: l.q.clone(),
                pos: l.q_pos.clone(),
            }
            .split_halves()?;
            qav += ha.q.numel() * ELEM_BYTES;
            qbv += hb.q.numel() * ELEM_BYTES;
            oav += (ha.q.numel() + ha.pos.len() * h) * ELEM_BYTES;
            obv += (hb.q.numel() + hb.pos.len() * h) * ELEM_BYTES;
        }
        qa.push(qav);
        qb.push(qbv);
        oa.push(oav);
        ob.push(obv);
    }
    Ok((qa, qb, oa, ob))
}

/// Per-rank `(A, B)` wire bytes of the bidirectional decode-slot halves.
fn dq_half_tables(slots: &[Vec<Option<DecodeSlot>>]) -> (Vec<usize>, Vec<usize>) {
    let mut a = Vec::with_capacity(slots.len());
    let mut b = Vec::with_capacity(slots.len());
    for (r, s) in slots.iter().enumerate() {
        let (ha, hb) = split_slot_vec(s);
        a.push(
            RingMsg::DecodeQ {
                origin: r,
                slots: ha,
            }
            .wire_bytes(),
        );
        b.push(
            RingMsg::DecodeQ {
                origin: r,
                slots: hb,
            }
            .wire_bytes(),
        );
    }
    (a, b)
}

/// Builds every template family's grounding case at one world size:
/// skewed (`varseq`) prefill inputs and ragged decode slots, so byte
/// tables are non-uniform and index bugs are visible. Hierarchical cases
/// (two ranks per node) appear at even worlds ≥ 4, where the topology
/// tiles the ring into at least two nodes.
///
/// # Errors
///
/// Propagates [`CoreError`] from the production plan builders.
pub fn template_cases(world: usize) -> Result<Vec<TemplateCase>, CoreError> {
    let params = grid_params()?;
    let shape = params.shape;
    let locals = grid_locals(world, 2, world > 1, shape);
    let kv = kv_bytes(&locals);
    let q = q_bytes(&locals);
    let outs = out_bytes(&params, &locals);
    let (kv_a, kv_b) = kv_half_tables(&locals)?;
    let kvq = kv_quant_bytes(&locals)?;
    let (kvq_a, kvq_b) = kv_quant_half_tables(&locals)?;
    let (q_a, q_b, out_a, out_b) = q_out_half_tables(&params, &locals)?;
    let slots = grid_slots(world, 2, true, shape);
    let dq = dq_bytes(&slots);
    let dout = dout_bytes(&params, &slots);
    let (dq_a, dq_b) = dq_half_tables(&slots);
    // Helix reshard tables, metered through the `Act` payload's `Wire`
    // impl: per-rank merged attention rows (one `[1, D]` row per real
    // slot) and the uniform `[batch, D]` row-parallel partial.
    let model_dim = shape.n_heads() * shape.head_dim();
    let act_rows = |rows: usize| {
        RingMsg::Act {
            x: Tensor::zeros(&[rows, model_dim]),
        }
        .wire_bytes()
    };
    let act: Vec<usize> = slots
        .iter()
        .map(|s| act_rows(s.iter().flatten().count()))
        .collect();
    let batch_rows: usize = slots.iter().map(|s| s.iter().flatten().count()).sum();
    let act_sum = vec![act_rows(batch_rows); world];
    // Distinct per-rank TP payload sizes: uniform tables would hide
    // wrong-index bugs at grounding time.
    let payload: Vec<usize> = (0..world).map(|r| 4 * (r + 2)).collect();

    let case = |t: SymTemplate, tables: Vec<Vec<usize>>, production: CommPlan| TemplateCase {
        name: format!("w{world}/{}", t.name),
        template: t,
        tables,
        production,
    };
    let mut cases = vec![
        case(pass_kv_template(), vec![kv.clone()], pass_kv_plan(&locals)?),
        case(
            pass_q_template(),
            vec![q.clone(), outs.clone()],
            pass_q_plan(&params, &locals)?,
        ),
        case(
            decode_template(),
            vec![dq.clone(), dout.clone()],
            decode_plan(&params, &slots)?,
        ),
        case(
            helix_decode_template(),
            vec![dq.clone(), dout.clone()],
            helix_decode_plan(&params, &slots)?,
        ),
        case(
            tp_only_decode_template(),
            vec![kv.clone()],
            tp_only_decode_plan(&kv)?,
        ),
        case(
            helix_layer_template(),
            vec![dq.clone(), dout.clone(), act.clone(), act_sum.clone()],
            helix_layer_plan(&params, &slots, model_dim)?,
        ),
        case(
            SymTemplate {
                name: "helix_layer_x3".to_string(),
                repeat: 3,
                ..helix_layer_template()
            },
            vec![dq.clone(), dout.clone(), act, act_sum],
            stacked_plan(helix_layer_plan(&params, &slots, model_dim)?, 3),
        ),
        case(
            pass_kv_bidi_template(),
            vec![kv_a.clone(), kv_b.clone()],
            pass_kv_bidi_plan(&locals, RingLayout::Flat)?,
        ),
        case(
            pass_q_bidi_template(),
            vec![q_a, q_b, out_a, out_b],
            pass_q_bidi_plan(&params, &locals, RingLayout::Flat)?,
        ),
        case(
            decode_bidi_template(),
            vec![dq_a, dq_b, dout],
            decode_bidi_plan(&params, &slots)?,
        ),
        case(
            pass_kv_quant_template(),
            vec![kvq.clone()],
            pass_kv_quant_plan_on(&locals, RingLayout::Flat)?,
        ),
        case(
            pass_kv_quant_bidi_template(),
            vec![kvq_a.clone(), kvq_b.clone()],
            pass_kv_quant_bidi_plan(&locals, RingLayout::Flat)?,
        ),
        case(
            all_gather_baseline_template(),
            vec![kv.clone()],
            all_gather_pass_kv_plan(&locals)?,
        ),
        case(
            tp_all_reduce_template(),
            vec![payload.clone()],
            all_reduce_plan("payload", &payload)?,
        ),
        case(
            tp_all_gather_template(),
            vec![payload.clone()],
            all_gather_plan("payload", &payload)?,
        ),
        case(
            forward_template(3, false),
            vec![kv.clone()],
            stacked_plan(pass_kv_plan(&locals)?, 3),
        ),
        case(
            forward_template(2, true),
            vec![q, outs],
            stacked_plan(pass_q_plan(&params, &locals)?, 2),
        ),
    ];
    if world >= 4 && world.is_multiple_of(2) {
        let hier = RingLayout::Hier(Topology::new(world / 2, 2));
        cases.push(case(
            pass_kv_hier_template(2),
            vec![kv.clone()],
            pass_kv_plan_on(&locals, hier)?,
        ));
        cases.push(case(
            pass_q_hier_template(2),
            vec![q_bytes(&locals), out_bytes(&params, &locals)],
            pass_q_plan_on(&params, &locals, hier)?,
        ));
        cases.push(case(
            pass_kv_bidi_hier_template(2),
            vec![kv_a, kv_b],
            pass_kv_bidi_plan(&locals, hier)?,
        ));
        cases.push(case(
            pass_kv_quant_hier_template(2),
            vec![kvq],
            pass_kv_quant_plan_on(&locals, hier)?,
        ));
        cases.push(case(
            pass_kv_quant_bidi_hier_template(2),
            vec![kvq_a, kvq_b],
            pass_kv_quant_bidi_plan(&locals, hier)?,
        ));
    }
    Ok(cases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_plan;
    use crate::explore::explore_default;
    use cp_attention::AttentionOutput;
    use cp_comm::Communicator;
    use cp_comm::{CheckedFabric, CommError};
    use cp_core::ring::{helix_decode, ring_pass_kv_prefill, ring_pass_q_prefill, RankKv};
    use cp_core::schedule::run_ring_checked;
    use cp_core::{RingMsg, RingSpec, SeqQ};

    /// One rank's default-cell pass-Q body over its `LocalSeq` shards.
    fn pass_q(
        comm: &Communicator<RingMsg>,
        params: &AttentionParams,
        locals: &[LocalSeq],
    ) -> Result<Vec<AttentionOutput>, CoreError> {
        let queries: Vec<SeqQ> = locals.iter().map(LocalSeq::queries).collect();
        let kv: Vec<RankKv<'_>> = locals.iter().map(|l| l.kv().into()).collect();
        ring_pass_q_prefill(comm, params, &RingSpec::default(), &queries, &kv)
    }

    #[test]
    fn laws_accept_every_production_template() {
        for t in all_templates() {
            let v = check_template(&t);
            assert!(v.is_empty(), "{}: {v:?}", t.name);
        }
    }

    #[test]
    fn grounding_reproduces_production_plans_bitwise() {
        for world in 2..=16 {
            for case in template_cases(world).unwrap() {
                let grounded = case.template.ground(world, &case.tables).unwrap();
                assert_eq!(grounded, case.production, "{}", case.name);
            }
        }
    }

    #[test]
    fn grounded_instances_are_clean_and_explorable() {
        for world in 2..=16 {
            for case in template_cases(world).unwrap() {
                let grounded = case.template.ground(world, &case.tables).unwrap();
                let report = check_plan(&grounded);
                assert!(report.is_clean(), "{}: {:?}", case.name, report.violations);
                if world <= crate::EXPLORABLE_CP {
                    let outcome = explore_default(&grounded);
                    assert!(outcome.is_complete(), "{}: {outcome:?}", case.name);
                }
            }
        }
    }

    #[test]
    fn symbolic_traffic_matches_grounded_prediction() {
        for world in 2..=16 {
            for case in template_cases(world).unwrap() {
                let grounded = case.template.ground(world, &case.tables).unwrap();
                let symbolic = case.template.symbolic_traffic(world, &case.tables).unwrap();
                assert_eq!(
                    symbolic,
                    grounded.predicted_traffic(),
                    "{}: symbolic closed form diverges from grounded metering",
                    case.name
                );
            }
        }
    }

    #[test]
    fn ground_rejects_mismatched_tables() {
        let t = pass_kv_template();
        assert!(t.ground(0, &[vec![]]).is_err());
        assert!(t.ground(3, &[]).is_err(), "missing table");
        assert!(t.ground(3, &[vec![8, 8]]).is_err(), "short table");
    }

    #[test]
    fn ground_rejects_non_tiling_hier_world() {
        // 2 ranks per node cannot tile an odd world.
        let t = pass_kv_hier_template(2);
        let err = t.ground(5, &[vec![8; 5]]).unwrap_err();
        assert!(err.contains("do not tile"), "{err}");
        assert!(t.ground(6, &[vec![8; 6]]).is_ok());
    }

    #[test]
    fn every_schedule_family_is_declared() {
        // 21 families: 3 ring algorithms × {uni, bidi}, the Helix and
        // TP-only decode strategies plus the Helix serve layer (attention
        // collectives + TP reshard), 3 hierarchical layouts, 4 compressed
        // pass-KV layouts ({uni, bidi} × {flat, hier}), the all-gather
        // baseline, 2 TP collectives, 2 stacked forwards.
        assert_eq!(all_templates().len(), 21);
    }

    #[test]
    fn quant_templates_compress_every_layout_identically() {
        // All four compressed layouts predict the same total volume
        // (splitting or re-routing the codes moves no extra bytes), and
        // that volume is strictly below the f32 family's — here exactly
        // half: the grid's head_dim 4 gives 2·(4+4) vs 2·4·4 bytes per
        // (token, kv-head) block.
        for world in [4usize, 6] {
            let cases = template_cases(world).unwrap();
            let volume = |name: &str| {
                let case = cases
                    .iter()
                    .find(|c| c.name == format!("w{world}/{name}"))
                    .unwrap_or_else(|| panic!("missing case {name}"));
                case.template
                    .symbolic_traffic(world, &case.tables)
                    .unwrap()
                    .send_recv
                    .bytes
            };
            let f32_volume = volume("pass_kv");
            let quant = volume("pass_kv_quant");
            assert_eq!(quant, volume("pass_kv_quant_bidi"));
            assert_eq!(quant, volume("pass_kv_quant_hier"));
            assert_eq!(quant, volume("pass_kv_quant_bidi_hier"));
            assert_eq!(2 * quant, f32_volume);
        }
    }

    #[test]
    fn bidi_gather_tau_rule_orders_halves_by_host_step() {
        // At world 4 the flat paths give fwd.step_of(src, r) != rev's for
        // off-diagonal peers, so some pair must be reverse-first — pin
        // that the grounding actually exercises both orders.
        let world = 4;
        let case = template_cases(world)
            .unwrap()
            .into_iter()
            .find(|c| c.name.ends_with("/pass_q_bidi"))
            .unwrap();
        let plan = case.template.ground(world, &case.tables).unwrap();
        let out_a = &case.tables[2];
        let out_b = &case.tables[3];
        let mut saw = [false; 2];
        for rank in &plan.ranks {
            let recvs: Vec<usize> = rank
                .ops
                .iter()
                .filter_map(|op| match op {
                    CommOp::Recv { bytes, .. } => Some(*bytes),
                    _ => None,
                })
                .collect();
            for pair in recvs.chunks(2) {
                let r = rank.rank;
                if pair[0] == out_a[r] && pair[1] == out_b[r] && out_a[r] != out_b[r] {
                    saw[0] = true;
                }
                if pair[0] == out_b[r] && pair[1] == out_a[r] && out_a[r] != out_b[r] {
                    saw[1] = true;
                }
            }
        }
        assert!(
            saw[0] && saw[1],
            "expected both A-first and B-first pairs: {saw:?}"
        );
    }

    #[test]
    fn symbolic_checker_rejects_every_mutation_class() {
        // Each mutation lands on a template with a site for it and is
        // caught by the expected law.
        let cases = [
            (
                pass_kv_template(),
                TemplateMutation::WrongRecvByteExpr,
                "ring-hop",
            ),
            (
                pass_q_template(),
                TemplateMutation::RotationOffByOne,
                "ring-hop",
            ),
            (
                pass_kv_template(),
                TemplateMutation::DropFinalHop,
                "coverage",
            ),
            (
                tp_all_reduce_template(),
                TemplateMutation::WrongCollectiveSend,
                "collective",
            ),
            (
                all_gather_baseline_template(),
                TemplateMutation::WrongCollectiveSend,
                "collective",
            ),
            (
                forward_template(2, true),
                TemplateMutation::WrongRecvByteExpr,
                "ring-hop",
            ),
            (
                pass_kv_bidi_template(),
                TemplateMutation::WrongRecvByteExpr,
                "ring-hop",
            ),
            (
                pass_q_bidi_template(),
                TemplateMutation::RotationOffByOne,
                "ring-hop",
            ),
            (
                decode_bidi_template(),
                TemplateMutation::DropFinalHop,
                "coverage",
            ),
            (
                pass_q_hier_template(2),
                TemplateMutation::DropFinalHop,
                "coverage",
            ),
            (
                pass_kv_bidi_hier_template(2),
                TemplateMutation::WrongRecvByteExpr,
                "ring-hop",
            ),
            (
                helix_decode_template(),
                TemplateMutation::WrongCollectiveSend,
                "collective",
            ),
            (
                tp_only_decode_template(),
                TemplateMutation::WrongCollectiveSend,
                "collective",
            ),
            (
                helix_layer_template(),
                TemplateMutation::WrongCollectiveSend,
                "collective",
            ),
        ];
        for (template, mutation, law) in cases {
            let name = template.name.clone();
            let mutant = apply_template_mutation(&template, mutation)
                .unwrap_or_else(|| panic!("{name}: no site for {}", mutation.tag()));
            let violations = check_template(&mutant);
            assert!(
                violations.iter().any(|v| v.to_string().contains(law)),
                "{name}+{}: expected a {law} violation, got {violations:?}",
                mutation.tag()
            );
        }
        // Templates without a site return None rather than a silent no-op.
        assert!(
            apply_template_mutation(&tp_all_reduce_template(), TemplateMutation::DropFinalHop)
                .is_none()
        );
        assert!(apply_template_mutation(
            &pass_kv_template(),
            TemplateMutation::WrongCollectiveSend
        )
        .is_none());
        // Collective-only decode families have no ring-hop sites.
        assert!(
            apply_template_mutation(&helix_decode_template(), TemplateMutation::DropFinalHop)
                .is_none()
        );
    }

    /// Skewed 3-rank prefill inputs: non-uniform Q/Out byte tables, so a
    /// wrong origin lookup grounds to genuinely different byte counts.
    fn skewed_locals() -> Vec<Vec<LocalSeq>> {
        let params = grid_params().unwrap();
        grid_locals(3, 2, true, params.shape)
    }

    fn expect_plan_violation(err: CoreError, what: &str) {
        match err {
            CoreError::Comm(CommError::PlanViolation { .. }) => {}
            other => panic!("{what}: expected PlanViolation, got {other:?}"),
        }
    }

    #[test]
    fn checked_fabric_catches_wrong_recv_byte_expr_at_runtime() {
        let params = grid_params().unwrap();
        let locals = skewed_locals();
        let tables = vec![q_bytes(&locals), out_bytes(&params, &locals)];
        let mutant =
            apply_template_mutation(&pass_q_template(), TemplateMutation::WrongRecvByteExpr)
                .unwrap();
        let plan = mutant.ground(3, &tables).unwrap();
        let fabric = CheckedFabric::new(plan);
        let err = run_ring_checked(&fabric, |comm| pass_q(comm, &params, &locals[comm.rank()]))
            .unwrap_err();
        expect_plan_violation(err, "wrong-recv-byte-expr");
    }

    #[test]
    fn checked_fabric_catches_rotation_off_by_one_at_runtime() {
        let params = grid_params().unwrap();
        let locals = skewed_locals();
        let tables = vec![q_bytes(&locals), out_bytes(&params, &locals)];
        let mutant =
            apply_template_mutation(&pass_q_template(), TemplateMutation::RotationOffByOne)
                .unwrap();
        let plan = mutant.ground(3, &tables).unwrap();
        let fabric = CheckedFabric::new(plan);
        let err = run_ring_checked(&fabric, |comm| pass_q(comm, &params, &locals[comm.rank()]))
            .unwrap_err();
        expect_plan_violation(err, "rotation-off-by-one");
    }

    #[test]
    fn checked_fabric_catches_dropped_final_hop_at_runtime() {
        let params = grid_params().unwrap();
        let locals = skewed_locals();
        let tables = vec![kv_bytes(&locals)];
        let mutant =
            apply_template_mutation(&pass_kv_template(), TemplateMutation::DropFinalHop).unwrap();
        let plan = mutant.ground(3, &tables).unwrap();
        // The grounded mutant is a *valid shorter ring*: concrete
        // check_plan accepts it. Only the symbolic coverage law (above)
        // and the runtime drain check here can tell it from the real
        // schedule — the leverage the template layer adds.
        assert!(check_plan(&plan).is_clean());
        let fabric = CheckedFabric::new(plan);
        let err = run_ring_checked(&fabric, |comm| {
            ring_pass_kv_prefill(comm, &params, &RingSpec::default(), &locals[comm.rank()])
        })
        .unwrap_err();
        expect_plan_violation(err, "drop-final-hop");
    }

    #[test]
    fn checked_fabric_catches_wrong_collective_send_at_runtime() {
        // Per-rank payload lengths differ, so broadcasting a rotated
        // table entry declares byte counts the live all_gather breaks.
        let lens: Vec<usize> = vec![2, 3, 4];
        let tables = vec![lens.iter().map(|l| l * 4).collect::<Vec<usize>>()];
        let mutant = apply_template_mutation(
            &tp_all_gather_template(),
            TemplateMutation::WrongCollectiveSend,
        )
        .unwrap();
        let plan = mutant.ground(3, &tables).unwrap();
        let fabric = CheckedFabric::new(plan);
        let lens_ref = &lens;
        let err = fabric
            .run::<Vec<f32>, _, _>(|comm| comm.all_gather(vec![0.0f32; lens_ref[comm.rank()]]))
            .unwrap_err();
        match err {
            CommError::PlanViolation { .. } => {}
            other => panic!("wrong-collective-send: expected PlanViolation, got {other:?}"),
        }
    }

    /// Ragged 3-slot decode grids: `(r + s) % 2` padding gives per-rank
    /// real-slot counts `[2, 1, 2]` at world 3, so the Helix byte tables
    /// are genuinely non-uniform (the 2-slot grid used by
    /// `template_cases` degenerates to one real slot per rank).
    fn helix_grid() -> (Vec<Vec<Option<DecodeSlot>>>, Vec<RankKv<'static>>) {
        let params = grid_params().unwrap();
        let shape = params.shape;
        let slots = grid_slots(3, 3, true, shape);
        let batch_kv = (0..3)
            .map(|b| {
                RankKv::from(SeqKv {
                    k: Tensor::zeros(&[b + 2, shape.n_kv_heads(), shape.head_dim()]),
                    v: Tensor::zeros(&[b + 2, shape.n_kv_heads(), shape.head_dim()]),
                    pos: (0..b + 2).collect(),
                })
            })
            .collect();
        (slots, batch_kv)
    }

    #[test]
    fn checked_fabric_catches_wrong_helix_collective_send_at_runtime() {
        // A Helix-plan mutation caught end-to-end: the mutated template
        // declares each rank broadcasts a *rotated* DecodeQ table entry,
        // and the live `helix_decode` AllGather (which sends the rank's
        // own slots) breaks the declaration on the skewed tables.
        let params = grid_params().unwrap();
        let (slots, batch_kv) = helix_grid();
        let tables = vec![dq_bytes(&slots), dout_bytes(&params, &slots)];
        let mutant = apply_template_mutation(
            &helix_decode_template(),
            TemplateMutation::WrongCollectiveSend,
        )
        .unwrap();
        let plan = mutant.ground(3, &tables).unwrap();
        let fabric = CheckedFabric::new(plan);
        let slots_ref = &slots;
        let kv_ref = &batch_kv;
        let err = run_ring_checked(&fabric, |comm| {
            helix_decode(comm, &params, &slots_ref[comm.rank()], kv_ref)
        })
        .unwrap_err();
        expect_plan_violation(err, "wrong-helix-collective-send");
    }

    #[test]
    fn conforming_helix_template_runs_clean_under_checked_fabric() {
        // The unmutated grounded Helix template drives the real
        // `helix_decode` body end-to-end with zero violations and the
        // predicted traffic accounts every byte.
        let params = grid_params().unwrap();
        let (slots, batch_kv) = helix_grid();
        let tables = vec![dq_bytes(&slots), dout_bytes(&params, &slots)];
        let plan = helix_decode_template().ground(3, &tables).unwrap();
        let predicted = plan.predicted_traffic();
        let fabric = CheckedFabric::new(plan);
        let slots_ref = &slots;
        let kv_ref = &batch_kv;
        let (_, report) = run_ring_checked(&fabric, |comm| {
            helix_decode(comm, &params, &slots_ref[comm.rank()], kv_ref)
        })
        .unwrap();
        predicted.check_report(&report).unwrap();
    }

    #[test]
    fn conforming_templates_run_clean_under_checked_fabric() {
        // The unmutated grounded templates drive the real ring bodies
        // end-to-end with zero violations.
        let params = grid_params().unwrap();
        let locals = skewed_locals();
        let q_tables = vec![q_bytes(&locals), out_bytes(&params, &locals)];
        let plan = pass_q_template().ground(3, &q_tables).unwrap();
        let predicted = plan.predicted_traffic();
        let fabric = CheckedFabric::new(plan);
        let (_, report) =
            run_ring_checked(&fabric, |comm| pass_q(comm, &params, &locals[comm.rank()])).unwrap();
        predicted.check_report(&report).unwrap();
    }

    #[test]
    fn skewed_tables_are_actually_non_uniform() {
        // The runtime mutation tests rely on per-rank byte-table skew;
        // pin it so a grid refactor can't silently flatten the tables.
        let params = grid_params().unwrap();
        let locals = skewed_locals();
        let q = q_bytes(&locals);
        assert!(q.iter().any(|&b| b != q[0]), "{q:?}");
        let outs = out_bytes(&params, &locals);
        assert!(outs.iter().any(|&b| b != outs[0]), "{outs:?}");
        // The Helix runtime tests rely on skewed DecodeQ tables too.
        let (slots, _) = helix_grid();
        let dq = dq_bytes(&slots);
        assert!(dq.iter().any(|&b| b != dq[0]), "{dq:?}");
    }
}
