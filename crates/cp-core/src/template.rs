//! Schedule templates: each ring-algorithm *family* declared once over
//! symbolic parameters, and grounded into the production [`CommPlan`].
//!
//! A [`SymTemplate`] describes a rank-relative schedule: peers are
//! expressions over the executing rank (`Next`, `Prev`, the visiting
//! block's origin), byte counts are expressions over per-origin byte
//! tables (`bytes[origin_at(j)]`, `bytes[self]`), and rounds are guarded
//! by predicates over the symbolic round index `j` and world size `W`.
//! [`SymTemplate::ground`] instantiates it at a concrete `W` and byte
//! tables; [`crate::schedule::ring_plan`] and the other entry points in
//! [`crate::schedule`] are nothing but "family template + byte tables +
//! ground". The `cp-verify` crate proves the schedule laws on the
//! symbolic form itself, so one check covers every world size and byte
//! table.
//!
//! # Paths: bidirectional and hierarchical families
//!
//! Every op carries a [`PathDir`] selecting which of two counter-rotating
//! [`RingPath`]s its peers and origin lookups follow, and a template's
//! [`SymTemplate::ranks_per_node`] selects the path *shape*: `None`
//! grounds over the flat ring, `Some(g)` over the hierarchical ring of
//! `W/g` nodes ([`on_hier`]).
//!
//! Grounding applies the ring loops' own FIFO-safety transform: an eager
//! return targeting a peer that is also a hop channel is deferred to the
//! final-round flush point ([`crate::schedule`]'s `hop_channels` /
//! `defer_return`, the same two functions [`crate::ring`] calls), and the
//! bidirectional trailing gather orders each peer's two `Out` halves by
//! which half that peer hosted first (the τ-rule via
//! [`RingPath::step_of`]). Both are reorderings of buffered sends, so the
//! laws hold on the declared order while the grounded op order is the one
//! the loops post.

use cp_comm::{CommOp, CommPlan, RankPlan, Topology};

use crate::schedule::{defer_return, hop_channels, RingLayout, RingPath};
use crate::CoreError;

/// A symbolic index into a per-origin byte table, evaluated per
/// `(rank, world, round)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ix {
    /// The executing rank's own entry: `table[r]`.
    SelfRank,
    /// The entry of the block visiting at round `j + offset`:
    /// `table[path.origin_at(r, j + offset)]`.
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

impl Guard {
    /// Whether the guarded op runs at round `j` of a `world`-rank ring.
    fn holds(self, j: usize, world: usize) -> bool {
        match self {
            Guard::Always => true,
            Guard::BeforeRound(margin) => j + margin < world,
            Guard::NotFirstRound => j > 0,
        }
    }
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
    /// How many times the whole segment list repeats per rank — the
    /// layers of a stacked forward ([`forward_template`]).
    pub repeat: usize,
    /// Path shape the ops' peer and origin expressions evaluate over:
    /// `None` grounds on the flat ring at any `W`; `Some(g)` grounds on
    /// the hierarchical ring of `W/g` nodes × `g` ranks (TASP-style) and
    /// requires `g | W`.
    pub ranks_per_node: Option<usize>,
    /// Names of the byte tables the expressions index; grounding supplies
    /// one concrete `Vec<usize>` of length `W` per name.
    pub table_names: Vec<&'static str>,
    /// Segments in per-rank program order.
    pub segments: Vec<SymSegment>,
}

fn internal(detail: String) -> CoreError {
    CoreError::Internal { detail }
}

fn bad_request(reason: String) -> CoreError {
    CoreError::BadRequest { reason }
}

/// The two counter-rotating paths one rank's ops evaluate over.
#[derive(Clone, Copy)]
struct Paths {
    fwd: RingPath,
    rev: RingPath,
}

impl Paths {
    fn on(self, dir: PathDir) -> RingPath {
        match dir {
            PathDir::Fwd => self.fwd,
            PathDir::Rev => self.rev,
        }
    }
}

fn eval_peer(peer: PeerExpr, path: RingPath, rank: usize, round: usize) -> usize {
    match peer {
        PeerExpr::Next => path.send_peer(rank, round),
        PeerExpr::Prev => path.recv_peer(rank, round),
        PeerExpr::VisitingOrigin => path.origin_at(rank, round),
    }
}

fn table(tables: &[Vec<usize>], id: usize) -> Result<&Vec<usize>, CoreError> {
    tables.get(id).ok_or_else(|| {
        internal(format!(
            "byte table {id} out of range ({} supplied)",
            tables.len()
        ))
    })
}

fn entry(tables: &[Vec<usize>], id: usize, i: usize) -> Result<usize, CoreError> {
    table(tables, id)?
        .get(i)
        .copied()
        .ok_or_else(|| internal(format!("byte table {id} has no entry {i}")))
}

fn eval_bytes(
    expr: ByteExpr,
    tables: &[Vec<usize>],
    path: RingPath,
    rank: usize,
    round: usize,
) -> Result<usize, CoreError> {
    let i = match expr.ix {
        Ix::SelfRank => rank,
        Ix::OriginAt(offset) => path.origin_at(rank, round + offset),
    };
    entry(tables, expr.table, i)
}

impl SymTemplate {
    /// Instantiates the template at a concrete world size and byte
    /// tables — the [`CommPlan`] the ring loops are checked against.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadRequest`] for a zero world, a table count or
    /// length disagreeing with the template, or a hierarchical shape that
    /// does not tile `world`; [`CoreError::Internal`] for a template that
    /// indexes a table it does not declare.
    pub fn ground(&self, world: usize, tables: &[Vec<usize>]) -> Result<CommPlan, CoreError> {
        if world == 0 {
            return Err(bad_request(format!(
                "cannot ground template {} at world 0",
                self.name
            )));
        }
        if tables.len() != self.table_names.len() {
            return Err(bad_request(format!(
                "template {} declares {} byte tables, {} supplied",
                self.name,
                self.table_names.len(),
                tables.len()
            )));
        }
        for (name, t) in self.table_names.iter().zip(tables) {
            if t.len() != world {
                return Err(bad_request(format!(
                    "byte table {name} has {} entries for world {world}",
                    t.len()
                )));
            }
        }
        let layout = match self.ranks_per_node {
            None => RingLayout::Flat,
            Some(g) if g > 0 && world.is_multiple_of(g) => {
                RingLayout::Hier(Topology::new(world / g, g))
            }
            Some(g) => {
                return Err(bad_request(format!(
                    "template {}: {g} ranks per node do not tile world {world}",
                    self.name
                )))
            }
        };
        let paths = Paths {
            fwd: layout.fwd(world)?,
            rev: layout.rev(world)?,
        };
        let ranks = (0..world)
            .map(|rank| {
                let mut layer = Vec::new();
                for segment in &self.segments {
                    ground_segment(segment, rank, world, tables, paths, &mut layer)?;
                }
                let ops = (0..self.repeat)
                    .flat_map(|_| layer.iter().cloned())
                    .collect();
                Ok(RankPlan { rank, ops })
            })
            .collect::<Result<Vec<_>, CoreError>>()?;
        Ok(CommPlan::from_ranks(ranks))
    }
}

/// Appends one segment's ops for `rank` to `ops`.
fn ground_segment(
    segment: &SymSegment,
    rank: usize,
    world: usize,
    tables: &[Vec<usize>],
    paths: Paths,
    ops: &mut Vec<CommOp>,
) -> Result<(), CoreError> {
    match segment {
        SymSegment::Rounds(gops) => {
            let hop_paths: Vec<RingPath> = gops
                .iter()
                .filter_map(|g| match g.op {
                    SymOp::SendRecv { path, .. } => Some(paths.on(path)),
                    SymOp::Send { .. } => None,
                })
                .collect();
            let is_hop_dst = hop_channels(rank, &hop_paths);
            let mut deferred: Vec<CommOp> = Vec::new();
            for j in 0..world {
                if j + 1 == world {
                    ops.append(&mut deferred);
                }
                for gop in gops.iter().filter(|g| g.guard.holds(j, world)) {
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
                            let p = paths.on(path);
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
                            let p = paths.on(path);
                            let dst = eval_peer(dst, p, rank, j);
                            let op = CommOp::Send {
                                dst,
                                variant,
                                bytes: eval_bytes(bytes, tables, p, rank, j)?,
                            };
                            if defer_return(&is_hop_dst, dst, j, world) {
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
                    bytes: eval_bytes(*bytes, tables, paths.fwd, rank, 0)?,
                });
            }
        }
        SymSegment::GatherAscendingBidi {
            variant,
            first,
            second,
        } => {
            for src in (0..world).filter(|&s| s != rank) {
                // τ-rule: `src` posts our forward-half return at the
                // step it hosts our A half and the reverse-half return
                // at the step it hosts our B half; the earlier host
                // step lands first on its FIFO channel (forward first
                // on a tie).
                let step = |p: RingPath| {
                    p.step_of(src, rank).ok_or_else(|| {
                        internal(format!(
                            "ring path never routes rank {rank}'s block through rank {src}"
                        ))
                    })
                };
                let pair = if step(paths.fwd)? <= step(paths.rev)? {
                    [*first, *second]
                } else {
                    [*second, *first]
                };
                for expr in pair {
                    ops.push(CommOp::Recv {
                        src,
                        variant,
                        bytes: eval_bytes(expr, tables, paths.fwd, rank, 0)?,
                    });
                }
            }
        }
        SymSegment::Collective(c) => ops.push(match *c {
            SymCollective::AllToAll { variant, table: t } => CommOp::AllToAll {
                variant,
                send_bytes: table(tables, t)?.clone(),
                recv_bytes: vec![entry(tables, t, rank)?; world],
            },
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
                    paths.fwd,
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
                    paths.fwd,
                    rank,
                    0,
                )?,
                recv_bytes: table(tables, t)?.clone(),
            },
        }),
    }
    Ok(())
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

fn own(table: usize) -> ByteExpr {
    ByteExpr {
        table,
        ix: Ix::SelfRank,
    }
}

fn gather(variant: &'static str, table: usize) -> SymSegment {
    SymSegment::Collective(SymCollective::AllGather {
        variant,
        table,
        send_ix: Ix::SelfRank,
    })
}

fn all_reduce(variant: &'static str, table: usize) -> SymSegment {
    SymSegment::Collective(SymCollective::AllReduce {
        variant,
        table,
        send_ix: Ix::SelfRank,
    })
}

fn all_to_all(variant: &'static str, table: usize) -> SymSegment {
    SymSegment::Collective(SymCollective::AllToAll { variant, table })
}

fn family(name: &str, table_names: Vec<&'static str>, segments: Vec<SymSegment>) -> SymTemplate {
    SymTemplate {
        name: name.to_string(),
        repeat: 1,
        ranks_per_node: None,
        table_names,
        segments,
    }
}

/// The pass-KV prefill family (Algorithm 2): `W-1` KV ring hops.
pub fn pass_kv_template() -> SymTemplate {
    family(
        "pass_kv",
        vec!["kv"],
        vec![SymSegment::Rounds(vec![hop_on("Kv", 0, PathDir::Fwd)])],
    )
}

/// The depth-2 pipelined pass-KV family: each hop's payload splits at the
/// token midpoint into two chunks that both travel forward as separate
/// messages, each forwarded the moment it lands (cut-through) — two
/// forward `Kv` hops per round over the two half tables.
pub fn pass_kv_chunked_template() -> SymTemplate {
    family(
        "pass_kv_chunked",
        vec!["kv_h1", "kv_h2"],
        vec![SymSegment::Rounds(vec![
            hop_on("Kv", 0, PathDir::Fwd),
            hop_on("Kv", 1, PathDir::Fwd),
        ])],
    )
}

/// The bidirectional pass-KV prefill family (TokenRing-style,
/// arXiv:2412.20501): each rank's KV block splits at the token midpoint
/// and the two halves counter-rotate, one forward hop and one reverse hop
/// per round — per-link bytes per step halve while total volume is
/// unchanged.
pub fn pass_kv_bidi_template() -> SymTemplate {
    family(
        "pass_kv_bidi",
        vec!["kv_a", "kv_b"],
        vec![SymSegment::Rounds(vec![
            hop_on("Kv", 0, PathDir::Fwd),
            hop_on("Kv", 1, PathDir::Rev),
        ])],
    )
}

/// The compressed pass-KV prefill family (APB-style INT8 wire format):
/// structurally the flat KV ring, but each hop relays `KvQuant` blocks —
/// 1-byte codes plus one `f32` scale per `(token, head)`, `2·l·n_kv·(d+4)`
/// bytes instead of the f32 `2·l·n_kv·d·4`.
pub fn pass_kv_quant_template() -> SymTemplate {
    family(
        "pass_kv_quant",
        vec!["kvq"],
        vec![SymSegment::Rounds(vec![hop_on("KvQuant", 0, PathDir::Fwd)])],
    )
}

/// The bidirectional compressed pass-KV family: the INT8 block splits at
/// the token midpoint (codes copied verbatim, no requantization) and the
/// halves counter-rotate.
pub fn pass_kv_quant_bidi_template() -> SymTemplate {
    family(
        "pass_kv_quant_bidi",
        vec!["kvq_a", "kvq_b"],
        vec![SymSegment::Rounds(vec![
            hop_on("KvQuant", 0, PathDir::Fwd),
            hop_on("KvQuant", 1, PathDir::Rev),
        ])],
    )
}

/// The pass-Q prefill family (Algorithm 3, double-buffered return): Q
/// ring hops, an eager `Out` return of each visiting origin's partials
/// the moment its round computes, then an ascending gather of this
/// rank's own partials from every peer — the `All2All` permutation with
/// overlapped transport.
pub fn pass_q_template() -> SymTemplate {
    family(
        "pass_q",
        vec!["q", "out"],
        vec![
            SymSegment::Rounds(vec![
                hop_on("Q", 0, PathDir::Fwd),
                eager_return("Out", 1, PathDir::Fwd),
            ]),
            SymSegment::GatherAscending {
                variant: "Out",
                bytes: own(1),
            },
        ],
    )
}

/// The bidirectional pass-Q prefill family: the two query halves
/// counter-rotate, each round posting both hops and both eager partial
/// returns, with a trailing gather of **two** `Out` messages per peer
/// ordered by the τ-rule.
pub fn pass_q_bidi_template() -> SymTemplate {
    family(
        "pass_q_bidi",
        vec!["q_a", "q_b", "out_a", "out_b"],
        vec![
            SymSegment::Rounds(vec![
                hop_on("Q", 0, PathDir::Fwd),
                hop_on("Q", 1, PathDir::Rev),
                eager_return("Out", 2, PathDir::Fwd),
                eager_return("Out", 3, PathDir::Rev),
            ]),
            SymSegment::GatherAscendingBidi {
                variant: "Out",
                first: own(2),
                second: own(3),
            },
        ],
    )
}

/// The batched pass-Q decode family (Algorithm 4): decode-Q ring hops,
/// then one fused `All2All` of per-slot partial outputs.
pub fn decode_template() -> SymTemplate {
    family(
        "decode",
        vec!["dq", "dout"],
        vec![
            SymSegment::Rounds(vec![hop_on("DecodeQ", 0, PathDir::Fwd)]),
            all_to_all("DecodeOut", 1),
        ],
    )
}

/// The bidirectional batched pass-Q decode family: the slot vector splits
/// at the midpoint, the halves counter-rotate, and the same single
/// `All2All` as the unidirectional family returns the per-origin partials.
pub fn decode_bidi_template() -> SymTemplate {
    family(
        "decode_bidi",
        vec!["dq_a", "dq_b", "dout"],
        vec![
            SymSegment::Rounds(vec![
                hop_on("DecodeQ", 0, PathDir::Fwd),
                hop_on("DecodeQ", 1, PathDir::Rev),
            ]),
            all_to_all("DecodeOut", 2),
        ],
    )
}

/// The Helix decode attention family (Helix-parallelism-style,
/// arXiv:2507.07120): the `W-1` DecodeQ ring hops of [`decode_template`]
/// fuse into one `AllGather` of every origin's slot vector — each rank
/// attends over its local KV shard for the whole batch at once — and the
/// same single `All2All` returns the per-origin partials for the exact
/// ascending-rank merge.
pub fn helix_decode_template() -> SymTemplate {
    family(
        "helix_decode",
        vec!["dq", "dout"],
        vec![gather("DecodeQ", 0), all_to_all("DecodeOut", 1)],
    )
}

/// One serve-engine transformer layer of Helix decode: the attention
/// collectives of [`helix_decode_template`] followed by the TP reshard —
/// an `AllGather` replicating each owner's merged attention rows (`act`:
/// per-rank real-slot rows × `D`), then two row-parallel `AllReduce`s
/// (out projection, FFN down projection), each summing a full
/// `[batch, D]` partial (`act_sum`, uniform).
pub fn helix_layer_template() -> SymTemplate {
    family(
        "helix_layer",
        vec!["dq", "dout", "act", "act_sum"],
        vec![
            gather("DecodeQ", 0),
            all_to_all("DecodeOut", 1),
            gather("Act", 2),
            all_reduce("Act", 3),
            all_reduce("Act", 3),
        ],
    )
}

/// The TP-only decode family: one `AllGather` replicating every rank's
/// owned per-sequence KV shards; each slot's owner then folds one partial
/// per source shard locally, so no partials travel back.
pub fn tp_only_decode_template() -> SymTemplate {
    family("tp_only_decode", vec!["kv"], vec![gather("Kv", 0)])
}

/// The all-gather pass-KV baseline family (§3.5.2): one fused `AllGather`
/// of every rank's KV shard.
pub fn all_gather_baseline_template() -> SymTemplate {
    family("all_gather_baseline", vec!["kv"], vec![gather("Kv", 0)])
}

/// The TP column→row activation `AllReduce` family (Table 2) over
/// `variant` payloads.
pub fn tp_all_reduce_template(variant: &'static str) -> SymTemplate {
    family(
        "tp_all_reduce",
        vec!["payload"],
        vec![all_reduce(variant, 0)],
    )
}

/// The TP attention output `AllGather` family (§4.2.2) over `variant`
/// payloads.
pub fn tp_all_gather_template(variant: &'static str) -> SymTemplate {
    family("tp_all_gather", vec!["payload"], vec![gather(variant, 0)])
}

/// A ring family on the topology-aware hierarchical layout (TASP-style,
/// arXiv:2509.26541) of `ranks_per_node` ranks per node, keeping `W-N` of
/// the `W-1` hops on fast intra-node links. Grounding defers pass-Q
/// returns that share a channel with later hops (a no-op on the flat
/// ring).
pub fn on_hier(layer: SymTemplate, ranks_per_node: usize) -> SymTemplate {
    SymTemplate {
        name: format!("{}_hier", layer.name),
        ranks_per_node: Some(ranks_per_node),
        ..layer
    }
}

/// The full-stack forward of `layer`: one copy of its schedule per
/// transformer layer inside a single fabric session — the only way a
/// multi-layer plan is declared.
pub fn forward_template(layer: SymTemplate, layers: usize) -> SymTemplate {
    SymTemplate {
        name: format!("forward_{}_x{layers}", layer.name),
        repeat: layers,
        ..layer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let t = on_hier(pass_kv_template(), 2);
        let err = t.ground(5, &[vec![8; 5]]).unwrap_err();
        assert!(err.to_string().contains("do not tile"), "{err}");
        assert!(t.ground(6, &[vec![8; 6]]).is_ok());
    }
}
