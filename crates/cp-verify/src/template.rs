//! Symbolic schedule checking: the structural laws proven on each
//! schedule family's template ([`cp_core::template`]) itself — so one
//! check covers **every** world size and byte table, not one grid
//! instantiation.
//!
//! The families are declared once, in cp-core, and grounding them *is*
//! the production plan. [`check_template`] proves the schedule laws
//! directly on the symbolic form:
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
//! The ring-hop law is path-independent — `Next`/`Prev` mean the hop
//! path's send/receive peer, and every flat or hierarchical path is a
//! Hamiltonian cycle with the same lockstep-FIFO rotation identity — so
//! one symbolic proof covers all four `{uni, bidi} × {flat, hier}`
//! layouts. Grounding's FIFO-deferral and τ-rule reorderings are
//! reorderings of buffered sends, so the laws are checked on the
//! *declared* order.
//!
//! [`template_cases`] grounds every family at concrete `(W, tables)` —
//! ring families on the exact tables [`ring_schedule`] computes for their
//! cell, which must select that family — and [`symbolic_traffic`]'s
//! closed-form volume must equal each grounded plan's `predicted_traffic`.
//! There is no second copy of any schedule to compare against: the
//! independent witness of a grounded plan is the live ring loop under
//! `CheckedFabric` (see DESIGN.md, "Schedules declared once").

use cp_comm::{PredictedTraffic, Topology, Wire};
use cp_core::schedule::{ring_schedule, RingInput, RingLayout};
use cp_core::template::{
    all_gather_baseline_template, decode_bidi_template, decode_template, forward_template,
    helix_decode_template, helix_layer_template, on_hier, pass_kv_bidi_template,
    pass_kv_chunked_template, pass_kv_quant_bidi_template, pass_kv_quant_template,
    pass_kv_template, pass_q_bidi_template, pass_q_template, tp_all_gather_template,
    tp_all_reduce_template, tp_only_decode_template, Guard, Ix, PathDir, PeerExpr, SymCollective,
    SymOp, SymSegment, SymTemplate,
};
use cp_core::{CoreError, RingMsg, RingSpec, RingWire};
use cp_perf::RingDirection;
use cp_tensor::Tensor;

use crate::grid::{grid_locals, grid_params, grid_slots};

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

/// Closed-form count of rounds `j ∈ 0..W` satisfying `guard` — the
/// symbolic per-rank call count of a guarded op.
fn guard_rounds(guard: Guard, world: usize) -> usize {
    match guard {
        Guard::Always => world,
        Guard::BeforeRound(margin) => world.saturating_sub(margin),
        Guard::NotFirstRound => world.saturating_sub(1),
    }
}

/// Closed-form traffic prediction of `template` at `(world, tables)`, polynomial in `W` — no per-rank
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
    template: &SymTemplate,
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
    for segment in &template.segments {
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
    let repeat = template.repeat;
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

/// Every declared template family, covering every collective the
/// workspace issues: the three ring algorithms in both directions, the
/// depth-2 chunked pass-KV ring, the hierarchical layouts, the compressed
/// pass-KV layouts, the three decode strategies (batched pass-Q, Helix,
/// TP-only — plus the Helix serve layer with its TP reshard), the
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
        pass_kv_chunked_template(),
        helix_decode_template(),
        tp_only_decode_template(),
        helix_layer_template(),
        on_hier(pass_kv_template(), 2),
        on_hier(pass_q_template(), 2),
        on_hier(pass_kv_bidi_template(), 2),
        on_hier(pass_q_bidi_template(), 2),
        pass_kv_quant_template(),
        pass_kv_quant_bidi_template(),
        on_hier(pass_kv_quant_template(), 2),
        on_hier(pass_kv_quant_bidi_template(), 2),
        all_gather_baseline_template(),
        tp_all_reduce_template("payload"),
        tp_all_gather_template("payload"),
        forward_template(pass_kv_template(), 3),
        forward_template(pass_q_template(), 2),
    ]
}

/// One template family instantiated at a concrete world size.
#[derive(Debug, Clone)]
pub struct TemplateCase {
    /// Case id, e.g. `w5/pass_q`.
    pub name: String,
    /// The symbolic template.
    pub template: SymTemplate,
    /// Concrete per-origin byte tables: for a ring family, exactly the
    /// tables [`ring_schedule`] grounds it on in production.
    pub tables: Vec<Vec<usize>>,
}

/// Builds every template family's grounding case at one world size:
/// skewed (`varseq`) prefill inputs and ragged decode slots, so byte
/// tables are non-uniform and index bugs are visible. Hierarchical cases
/// (two ranks per node) appear at even worlds ≥ 4, where the topology
/// tiles the ring into at least two nodes.
///
/// # Errors
///
/// Propagates [`CoreError`] from [`ring_schedule`], and
/// [`CoreError::Internal`] when a ring cell selects a different family
/// than the one declared for it here.
pub fn template_cases(world: usize) -> Result<Vec<TemplateCase>, CoreError> {
    let params = grid_params()?;
    let shape = params.shape;
    let locals = grid_locals(world, 2, world > 1, shape);
    let slots = grid_slots(world, 2, true, shape);
    let (kv, q, decode) = (
        RingInput::PassKv(&locals),
        RingInput::PassQ(&locals),
        RingInput::Decode(&slots),
    );
    let uni = RingSpec::default();
    let bidi = RingSpec {
        direction: RingDirection::Bidi,
        ..uni
    };
    let int8 = |spec: RingSpec| RingSpec {
        wire: RingWire::Int8,
        ..spec
    };
    let case = |template: SymTemplate, tables: Vec<Vec<usize>>| TemplateCase {
        name: format!("w{world}/{}", template.name),
        template,
        tables,
    };
    // A ring family's case: the tables production grounds the cell on,
    // after checking the cell selects exactly this family.
    let ring = |family: SymTemplate, input: RingInput<'_>, spec: RingSpec| {
        let schedule = ring_schedule(input, &spec, &params)?;
        if schedule.template != family {
            return Err(CoreError::Internal {
                detail: format!(
                    "cell {spec:?} grounds {} instead of {}",
                    schedule.template.name, family.name
                ),
            });
        }
        Ok(case(family, schedule.tables))
    };
    let kv_tables = ring_schedule(kv, &uni, &params)?.tables;
    let q_tables = ring_schedule(q, &uni, &params)?.tables;
    let decode_tables = ring_schedule(decode, &uni, &params)?.tables;
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
    let real_slots: Vec<usize> = slots.iter().map(|s| s.iter().flatten().count()).collect();
    let mut helix_tables = decode_tables.clone();
    helix_tables.push(real_slots.iter().map(|&n| act_rows(n)).collect());
    helix_tables.push(vec![act_rows(real_slots.iter().sum()); world]);
    // Distinct per-rank TP payload sizes: uniform tables would hide
    // wrong-index bugs at grounding time.
    let payload: Vec<usize> = (0..world).map(|r| 4 * (r + 2)).collect();

    let mut cases = vec![
        ring(pass_kv_template(), kv, uni)?,
        ring(pass_q_template(), q, uni)?,
        ring(decode_template(), decode, uni)?,
        ring(pass_kv_bidi_template(), kv, bidi)?,
        ring(pass_q_bidi_template(), q, bidi)?,
        ring(decode_bidi_template(), decode, bidi)?,
        ring(pass_kv_chunked_template(), kv, RingSpec { depth: 2, ..uni })?,
        ring(pass_kv_quant_template(), kv, int8(uni))?,
        ring(pass_kv_quant_bidi_template(), kv, int8(bidi))?,
        case(helix_decode_template(), decode_tables),
        case(tp_only_decode_template(), kv_tables.clone()),
        case(helix_layer_template(), helix_tables.clone()),
        case(forward_template(helix_layer_template(), 3), helix_tables),
        case(all_gather_baseline_template(), kv_tables.clone()),
        case(tp_all_reduce_template("payload"), vec![payload.clone()]),
        case(tp_all_gather_template("payload"), vec![payload]),
        case(forward_template(pass_kv_template(), 3), kv_tables),
        case(forward_template(pass_q_template(), 2), q_tables),
    ];
    if world >= 4 && world.is_multiple_of(2) {
        let hier = |spec: RingSpec| RingSpec {
            layout: RingLayout::Hier(Topology::new(world / 2, 2)),
            ..spec
        };
        for (family, input, spec) in [
            (pass_kv_template(), kv, uni),
            (pass_q_template(), q, uni),
            (pass_kv_bidi_template(), kv, bidi),
            (pass_q_bidi_template(), q, bidi),
            (pass_kv_quant_template(), kv, int8(uni)),
            (pass_kv_quant_bidi_template(), kv, int8(bidi)),
        ] {
            cases.push(ring(on_hier(family, 2), input, hier(spec))?);
        }
    }
    Ok(cases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_plan;
    use crate::explore::explore_default;
    use cp_attention::{AttentionOutput, AttentionParams};
    use cp_comm::{CheckedFabric, CommError, CommOp, Communicator};
    use cp_core::ring::{helix_decode, ring_pass_kv_prefill, ring_pass_q_prefill, RankKv};
    use cp_core::schedule::run_ring_checked;
    use cp_core::{DecodeSlot, LocalSeq, SeqKv, SeqQ};

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

    /// The default cell's production byte tables for `input`.
    fn tables(input: RingInput<'_>) -> Vec<Vec<usize>> {
        let params = grid_params().unwrap();
        ring_schedule(input, &RingSpec::default(), &params)
            .unwrap()
            .tables
    }

    #[test]
    fn laws_accept_every_production_template() {
        for t in all_templates() {
            let v = check_template(&t);
            assert!(v.is_empty(), "{}: {v:?}", t.name);
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
                let symbolic = symbolic_traffic(&case.template, world, &case.tables).unwrap();
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
    fn every_schedule_family_is_declared() {
        // 23 families: 3 ring algorithms × {uni, bidi}, the depth-2
        // chunked pass-KV ring, the Helix and TP-only decode strategies
        // plus the Helix serve layer (attention collectives + TP reshard),
        // 4 hierarchical layouts ({pass-KV, pass-Q} × {uni, bidi}), 4
        // compressed pass-KV layouts ({uni, bidi} × {flat, hier}), the
        // all-gather baseline, 2 TP collectives, 2 stacked forwards.
        assert_eq!(all_templates().len(), 23);
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
                symbolic_traffic(&case.template, world, &case.tables)
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
                tp_all_reduce_template("payload"),
                TemplateMutation::WrongCollectiveSend,
                "collective",
            ),
            (
                all_gather_baseline_template(),
                TemplateMutation::WrongCollectiveSend,
                "collective",
            ),
            (
                forward_template(pass_q_template(), 2),
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
                on_hier(pass_q_template(), 2),
                TemplateMutation::DropFinalHop,
                "coverage",
            ),
            (
                on_hier(pass_kv_bidi_template(), 2),
                TemplateMutation::WrongRecvByteExpr,
                "ring-hop",
            ),
            (
                pass_kv_chunked_template(),
                TemplateMutation::DropFinalHop,
                "coverage",
            ),
            (
                on_hier(pass_q_bidi_template(), 2),
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
        assert!(apply_template_mutation(
            &tp_all_reduce_template("payload"),
            TemplateMutation::DropFinalHop
        )
        .is_none());
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
        let tables = tables(RingInput::PassQ(&locals));
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
        let tables = tables(RingInput::PassQ(&locals));
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
        let tables = tables(RingInput::PassKv(&locals));
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
            &tp_all_gather_template("payload"),
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
        let tables = tables(RingInput::Decode(&slots));
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
        let tables = tables(RingInput::Decode(&slots));
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
        let q_tables = tables(RingInput::PassQ(&locals));
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
        let locals = skewed_locals();
        let q_tables = tables(RingInput::PassQ(&locals));
        for t in &q_tables {
            assert!(t.iter().any(|&b| b != t[0]), "{t:?}");
        }
        // The Helix runtime tests rely on skewed DecodeQ tables too.
        let (slots, _) = helix_grid();
        let dq = &tables(RingInput::Decode(&slots))[0];
        assert!(dq.iter().any(|&b| b != dq[0]), "{dq:?}");
    }
}
