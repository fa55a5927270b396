//! Shared fixtures for the ring identity suites (`overlap_identity`,
//! `bidi_identity`, `quant_identity`) and `tests/tests/checked_fabric.rs`:
//! ragged inputs, bitwise/tolerance comparisons, and [`spec_grid`] — every
//! supported [`RingSpec`] cell per algorithm, each runnable under a
//! `CheckedFabric` built from [`ring_plan`] so that *every* use of a cell
//! also asserts predicted == measured traffic.

#![allow(dead_code)]

use cp_attention::{AttentionOutput, AttentionParams, GqaShape};
use cp_comm::{
    CheckedFabric, CommError, CommPlan, Communicator, RankPlan, Topology, TrafficReport,
};
use cp_core::ring::{
    ring_pass_kv_prefill, ring_pass_q_decode, ring_pass_q_prefill, run_ring, RankKv,
};
use cp_core::schedule::{ring_plan, run_ring_checked, RingInput, RingLayout};
use cp_core::{CoreError, DecodeSlot, LocalSeq, RingMsg, RingSpec, RingWire, SeqKv, SeqQ};
use cp_perf::RingDirection;
use cp_tensor::DetRng;

pub type RankOutputs = Vec<Vec<AttentionOutput>>;

pub fn params() -> AttentionParams {
    AttentionParams::for_shape(GqaShape::new(2, 1, 4).unwrap())
}

/// One sequence per rank with independent query/KV lengths. `lens[r] =
/// (lq, extra)` gives rank `r` a KV segment of `lq + extra` tokens whose
/// **last** `lq` positions carry queries — `extra > 0` models partial
/// prefill over cached context (history KV with no live queries).
pub fn build_locals(lens: &[(usize, usize)], p: &AttentionParams, seed: u64) -> Vec<Vec<LocalSeq>> {
    let shape = p.shape;
    let mut rng = DetRng::new(seed);
    let mut cur = 0usize;
    lens.iter()
        .map(|&(lq, extra)| {
            let lk = lq + extra;
            let kv_pos: Vec<usize> = (cur..cur + lk).collect();
            let q_pos: Vec<usize> = (cur + extra..cur + lk).collect();
            cur += lk;
            vec![LocalSeq {
                q: rng.tensor(&[lq, shape.n_heads(), shape.head_dim()]),
                q_pos,
                k: rng.tensor(&[lk, shape.n_kv_heads(), shape.head_dim()]),
                v: rng.tensor(&[lk, shape.n_kv_heads(), shape.head_dim()]),
                kv_pos,
            }]
        })
        .collect()
}

/// One decode slot per rank (live where `occupancy[r]`), all of batch
/// sequence 0, whose KV is spread three tokens per rank.
pub fn build_decode(
    occupancy: &[bool],
    p: &AttentionParams,
    seed: u64,
) -> (Vec<Vec<Option<DecodeSlot>>>, Vec<Vec<SeqKv>>) {
    let shape = p.shape;
    let mut rng = DetRng::new(seed);
    let n = occupancy.len();
    let slots: Vec<Vec<Option<DecodeSlot>>> = occupancy
        .iter()
        .map(|&occupied| {
            vec![occupied.then(|| DecodeSlot {
                bid: 0,
                q: rng.tensor(&[1, shape.n_heads(), shape.head_dim()]),
                pos: 4 * n,
            })]
        })
        .collect();
    let kv: Vec<Vec<SeqKv>> = (0..n)
        .map(|r| {
            vec![SeqKv {
                k: rng.tensor(&[3, shape.n_kv_heads(), shape.head_dim()]),
                v: rng.tensor(&[3, shape.n_kv_heads(), shape.head_dim()]),
                pos: (r * 3..(r + 1) * 3).collect(),
            }]
        })
        .collect();
    (slots, kv)
}

/// Bitwise equality, NaN-safe: a schedule change must reproduce the exact
/// same f32 bit patterns, not merely approximately equal values.
pub fn assert_bit_identical(a: &RankOutputs, b: &RankOutputs, what: &str) {
    assert_eq!(a.len(), b.len());
    for (rank, (ra, rb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ra.len(), rb.len(), "rank {rank} ({what})");
        for (i, (oa, ob)) in ra.iter().zip(rb).enumerate() {
            let out_same = oa
                .out
                .as_slice()
                .iter()
                .zip(ob.out.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            let lse_same = oa
                .lse
                .as_slice()
                .iter()
                .zip(ob.lse.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(
                oa.out.as_slice().len() == ob.out.as_slice().len() && out_same && lse_same,
                "rank {rank} sequence {i} diverged: {what}"
            );
        }
    }
}

/// Max-abs closeness with an explicit tolerance, for cells that are exact
/// but fold in a different order (hierarchical f32 pass-KV: 2e-3) or carry
/// quantization error (INT8: 0.05).
pub fn assert_close(a: &RankOutputs, b: &RankOutputs, tol: f32, what: &str) {
    assert_eq!(a.len(), b.len());
    for (rank, (ra, rb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ra.len(), rb.len(), "rank {rank} ({what})");
        for (i, (oa, ob)) in ra.iter().zip(rb).enumerate() {
            assert_eq!(oa.out.as_slice().len(), ob.out.as_slice().len());
            let close = oa
                .out
                .as_slice()
                .iter()
                .zip(ob.out.as_slice())
                .all(|(x, y)| (x - y).abs() <= tol);
            assert!(close, "rank {rank} sequence {i} not close: {what}");
        }
    }
}

/// The hierarchical layouts the proptests exercise: at `W = 4` the 2×2
/// grid is the degenerate case where forward and reverse retrace the same
/// links; `W = 6` covers both genuinely link-disjoint shapes.
pub fn hier_layouts(world: usize) -> Vec<RingLayout> {
    match world {
        4 => vec![RingLayout::Hier(Topology::new(2, 2))],
        6 => vec![
            RingLayout::Hier(Topology::new(2, 3)),
            RingLayout::Hier(Topology::new(3, 2)),
        ],
        _ => Vec::new(),
    }
}

pub fn uni(layout: RingLayout) -> RingSpec {
    RingSpec {
        layout,
        ..RingSpec::default()
    }
}

pub fn bidi(layout: RingLayout) -> RingSpec {
    RingSpec {
        direction: RingDirection::Bidi,
        ..uni(layout)
    }
}

pub fn int8(spec: RingSpec) -> RingSpec {
    RingSpec {
        wire: RingWire::Int8,
        ..spec
    }
}

pub fn at_depth(depth: usize, spec: RingSpec) -> RingSpec {
    RingSpec { depth, ..spec }
}

/// One rank's pass-Q body over its `LocalSeq` shards (owned KV tensors).
pub fn pass_q_body(
    comm: &Communicator<RingMsg>,
    p: &AttentionParams,
    spec: &RingSpec,
    locals: &[LocalSeq],
) -> Result<Vec<AttentionOutput>, CoreError> {
    let queries: Vec<SeqQ> = locals.iter().map(LocalSeq::queries).collect();
    let kv: Vec<RankKv<'_>> = locals.iter().map(|l| l.kv().into()).collect();
    ring_pass_q_prefill(comm, p, spec, &queries, &kv)
}

/// One rank's decode body over owned per-sequence shards.
pub fn decode_body(
    comm: &Communicator<RingMsg>,
    p: &AttentionParams,
    spec: &RingSpec,
    slots: &[Option<DecodeSlot>],
    batch_kv: &[SeqKv],
) -> Result<Vec<AttentionOutput>, CoreError> {
    let kv: Vec<RankKv<'_>> = batch_kv.iter().cloned().map(RankKv::from).collect();
    ring_pass_q_decode(comm, p, spec, slots, &kv)
}

pub fn run_pass_kv(locals: &[Vec<LocalSeq>], p: &AttentionParams, spec: RingSpec) -> RankOutputs {
    let body =
        |comm: &Communicator<RingMsg>| ring_pass_kv_prefill(comm, p, &spec, &locals[comm.rank()]);
    run_ring(locals.len(), body).unwrap().0
}

pub fn run_pass_q(locals: &[Vec<LocalSeq>], p: &AttentionParams, spec: RingSpec) -> RankOutputs {
    let body = |comm: &Communicator<RingMsg>| pass_q_body(comm, p, &spec, &locals[comm.rank()]);
    run_ring(locals.len(), body).unwrap().0
}

pub fn run_decode(
    slots: &[Vec<Option<DecodeSlot>>],
    kv: &[Vec<SeqKv>],
    p: &AttentionParams,
    spec: RingSpec,
) -> RankOutputs {
    let body = |comm: &Communicator<RingMsg>| {
        decode_body(comm, p, &spec, &slots[comm.rank()], &kv[comm.rank()])
    };
    run_ring(slots.len(), body).unwrap().0
}

/// Which ring algorithm a grid [`Cell`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    PassKv,
    PassQ,
    Decode,
}

/// Ragged inputs for every algorithm over one world size: unequal
/// per-rank query/KV lengths with partial-prefill history, and three
/// decode slots per rank (some padding) over two batch sequences, so both
/// halves of every two-lane payload carry real work.
pub struct Inputs {
    pub locals: Vec<Vec<LocalSeq>>,
    pub slots: Vec<Vec<Option<DecodeSlot>>>,
    pub kv: Vec<Vec<SeqKv>>,
}

impl Inputs {
    pub fn new(world: usize, p: &AttentionParams, seed: u64) -> Self {
        let lens: Vec<(usize, usize)> = (0..world)
            .map(|r| (1 + (seed as usize + r) % 4, r % 3))
            .collect();
        let shape = p.shape;
        let mut rng = DetRng::new(seed ^ 0x9e37);
        let slots = (0..world)
            .map(|r| {
                (0..3)
                    .map(|s| {
                        ((r + s) % 3 != 1).then(|| DecodeSlot {
                            bid: (r + s) % 2,
                            q: rng.tensor(&[1, shape.n_heads(), shape.head_dim()]),
                            pos: 4 * world,
                        })
                    })
                    .collect()
            })
            .collect();
        let kv = (0..world)
            .map(|r| {
                (0..2)
                    .map(|b| SeqKv {
                        k: rng.tensor(&[2 + b, shape.n_kv_heads(), shape.head_dim()]),
                        v: rng.tensor(&[2 + b, shape.n_kv_heads(), shape.head_dim()]),
                        pos: (r * 4..r * 4 + 2 + b).collect(),
                    })
                    .collect()
            })
            .collect();
        Inputs {
            locals: build_locals(&lens, p, seed),
            slots,
            kv,
        }
    }
}

/// One (algorithm, schedule cell) pair of the grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    pub algo: Algo,
    pub spec: RingSpec,
}

/// Every layout over `world` ranks: flat plus each `nodes × ranks_per_node`
/// factorization (including the degenerate one-node and one-rank-per-node
/// grids).
pub fn layouts(world: usize) -> Vec<RingLayout> {
    let mut all = vec![RingLayout::Flat];
    all.extend(
        (1..=world)
            .filter(|&nodes| world.is_multiple_of(nodes))
            .map(|nodes| RingLayout::Hier(Topology::new(nodes, world / nodes))),
    );
    all
}

/// Every supported cell over `world` ranks: direction × layout × depth
/// {0, 1} for all three algorithms (decode on the flat layout only),
/// × wire for pass-KV, plus pass-KV's depth-2 cell.
pub fn spec_grid(world: usize) -> Vec<Cell> {
    let mut cells = Vec::new();
    for layout in layouts(world) {
        for family in [uni(layout), bidi(layout)] {
            for depth in [0, 1] {
                let spec = at_depth(depth, family);
                cells.push(Cell {
                    algo: Algo::PassKv,
                    spec,
                });
                cells.push(Cell {
                    algo: Algo::PassKv,
                    spec: int8(spec),
                });
                cells.push(Cell {
                    algo: Algo::PassQ,
                    spec,
                });
                if layout == RingLayout::Flat {
                    cells.push(Cell {
                        algo: Algo::Decode,
                        spec,
                    });
                }
            }
        }
    }
    cells.push(Cell {
        algo: Algo::PassKv,
        spec: at_depth(2, RingSpec::default()),
    });
    cells
}

/// Cells outside the supported space: both [`ring_plan`] and the loop must
/// refuse each with `CoreError::BadRequest` before any message is posted.
pub fn unsupported_cells(world: usize) -> Vec<Cell> {
    let flat = RingLayout::Flat;
    let hier = RingLayout::Hier(Topology::new(1, world));
    let cell = |algo, spec| Cell { algo, spec };
    vec![
        cell(Algo::PassKv, at_depth(2, bidi(flat))),
        cell(Algo::PassKv, at_depth(2, int8(uni(flat)))),
        cell(Algo::PassKv, at_depth(2, uni(hier))),
        cell(Algo::PassKv, at_depth(3, uni(flat))),
        cell(Algo::PassQ, at_depth(2, uni(flat))),
        cell(Algo::PassQ, int8(uni(flat))),
        cell(Algo::Decode, at_depth(2, uni(flat))),
        cell(Algo::Decode, int8(uni(flat))),
        cell(Algo::Decode, uni(hier)),
        cell(
            Algo::PassKv,
            uni(RingLayout::Hier(Topology::new(world + 1, 1))),
        ),
    ]
}

impl Cell {
    /// The declared schedule for this cell over `inputs`.
    pub fn plan(&self, p: &AttentionParams, inputs: &Inputs) -> Result<CommPlan, CoreError> {
        let input = match self.algo {
            Algo::PassKv => RingInput::PassKv(&inputs.locals),
            Algo::PassQ => RingInput::PassQ(&inputs.locals),
            Algo::Decode => RingInput::Decode(&inputs.slots),
        };
        ring_plan(input, &self.spec, p)
    }

    /// One rank's body for this cell.
    pub fn body(
        &self,
        comm: &Communicator<RingMsg>,
        p: &AttentionParams,
        inputs: &Inputs,
    ) -> Result<Vec<AttentionOutput>, CoreError> {
        let r = comm.rank();
        match self.algo {
            Algo::PassKv => ring_pass_kv_prefill(comm, p, &self.spec, &inputs.locals[r]),
            Algo::PassQ => pass_q_body(comm, p, &self.spec, &inputs.locals[r]),
            Algo::Decode => decode_body(comm, p, &self.spec, &inputs.slots[r], &inputs.kv[r]),
        }
    }

    /// Runs the cell under a `CheckedFabric` enforcing its own declared
    /// plan, and asserts the plan's predicted traffic equals the metered
    /// report.
    pub fn run_checked(
        &self,
        p: &AttentionParams,
        inputs: &Inputs,
    ) -> (RankOutputs, TrafficReport) {
        let plan = self
            .plan(p, inputs)
            .unwrap_or_else(|e| panic!("{self:?}: {e}"));
        let predicted = plan.predicted_traffic();
        let fabric = CheckedFabric::new(plan);
        let (outs, report) = run_ring_checked(&fabric, |comm| self.body(comm, p, inputs))
            .unwrap_or_else(|e| panic!("{self:?}: {e}"));
        predicted
            .check_report(&report)
            .unwrap_or_else(|e| panic!("{self:?}: {e}"));
        (outs, report)
    }

    /// Asserts this (unsupported) cell is refused with
    /// `CoreError::BadRequest` by [`ring_plan`] and by the loop — the
    /// latter under a `CheckedFabric` whose plan declares **no** traffic,
    /// where any posted message would be a `PlanViolation` instead, so the
    /// `bad-request` proves the cell was refused before the first post.
    pub fn assert_rejected(&self, p: &AttentionParams, inputs: &Inputs) {
        let err = self
            .plan(p, inputs)
            .expect_err("unsupported cell declared a plan");
        assert!(
            matches!(err, CoreError::BadRequest { .. }),
            "{self:?}: ring_plan returned {err:?}"
        );
        let world = inputs.locals.len();
        let silent = CommPlan::from_ranks(
            (0..world)
                .map(|rank| RankPlan {
                    rank,
                    ops: Vec::new(),
                })
                .collect(),
        );
        let err = run_ring_checked(&CheckedFabric::new(silent), |comm| {
            self.body(comm, p, inputs)
        })
        .expect_err("unsupported cell ran");
        match err {
            CoreError::Comm(CommError::RankFailed { kind, .. }) => {
                assert_eq!(kind, "bad-request", "{self:?}")
            }
            other => panic!("{self:?}: expected a bad-request rank failure, got {other:?}"),
        }
    }

    /// The cell this one must match **bitwise**: pass-Q and decode fold
    /// sources in rank order on every cell, so they match the default
    /// cell; f32 pass-KV folds in the forward lane's visit order, so it
    /// matches the unidirectional depth-1 cell of its own layout; INT8
    /// pass-KV folds canonically, so the whole family matches its flat
    /// unidirectional depth-1 cell.
    pub fn bitwise_reference(&self) -> Cell {
        let spec = match (self.algo, self.spec.wire) {
            (Algo::PassKv, RingWire::F32) => uni(self.spec.layout),
            (Algo::PassKv, RingWire::Int8) => int8(RingSpec::default()),
            _ => RingSpec::default(),
        };
        Cell {
            algo: self.algo,
            spec,
        }
    }

    /// The max-abs tolerance against the **default** cell when the bitwise
    /// reference is a different one: 2e-3 for the fold-order change of a
    /// hierarchical f32 pass-KV layout, 0.05 for INT8 quantization error.
    pub fn tolerance_vs_default(&self) -> Option<f32> {
        match (self.algo, self.spec.wire, self.spec.layout) {
            (Algo::PassKv, RingWire::Int8, _) => Some(0.05),
            (Algo::PassKv, RingWire::F32, RingLayout::Hier(_)) => Some(2e-3),
            _ => None,
        }
    }

    /// Asserts this cell's numeric contract: bitwise against its
    /// [`Cell::bitwise_reference`], and within tolerance of the default
    /// cell where that is a different cell. Both runs are checked runs.
    pub fn assert_contract(&self, p: &AttentionParams, inputs: &Inputs) {
        let (outs, _) = self.run_checked(p, inputs);
        let reference = self.bitwise_reference();
        let (want, _) = reference.run_checked(p, inputs);
        assert_bit_identical(&outs, &want, &format!("{self:?} vs {reference:?}"));
        if let Some(tol) = self.tolerance_vs_default() {
            let default = Cell {
                algo: self.algo,
                spec: RingSpec::default(),
            };
            let (exact, _) = default.run_checked(p, inputs);
            assert_close(&exact, &outs, tol, &format!("{self:?} vs default cell"));
        }
    }
}
