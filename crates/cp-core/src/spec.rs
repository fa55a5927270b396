//! The ring schedule cell and the policy that resolves to it.
//!
//! [`RingSpec`] is the only name a ring schedule has: the loops in
//! [`crate::ring`] run it, [`crate::schedule::ring_plan`] declares its
//! traffic, and both engines obtain it from [`SchedulePolicy`] — so the
//! decision "which (variant, direction, layout, precision) is which loop
//! and which plan" lives in this module alone.

use cp_comm::Topology;
use cp_perf::schedule::{
    choose_decode_strategy, choose_family, hop_bytes_per_layer, quant_kv_hop_bytes_per_layer,
};
use cp_perf::{DecodeStrategy, RingDirection, RingTopologyKind, RingVariant, TopologySpec};

use crate::engine::KvPrecision;
use crate::heuristics::SystemContext;
use crate::schedule::{RingLayout, RingPath};
use crate::CoreError;

/// Wire format of the circulating pass-KV blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RingWire {
    /// Exact f32 [`crate::RingMsg::Kv`] blocks; partials fold in the forward
    /// lane's visit order.
    #[default]
    F32,
    /// INT8 [`crate::RingMsg::KvQuant`] blocks (APB-style, arXiv:2502.12085):
    /// each origin quantizes once, hops relay codes verbatim, every rank
    /// attends them in place, and partials fold in canonical
    /// ascending-origin order — so every direction and layout produces the
    /// same bits.
    Int8,
}

/// One cell of the ring schedule space — the only name a ring schedule
/// has. Every field is an axis of the loop, not of the math: all cells of
/// one [`RingWire`] are exact, and the numeric contract between cells is
/// tabulated in DESIGN.md ("Ring layer").
///
/// Supported cells: `depth` 0 (hop posted after compute), 1
/// (double-buffered, the default) on every direction × layout × wire;
/// `depth` 2 (two chunks per hop, cut-through) on unidirectional flat f32
/// pass-KV only; [`RingWire::Int8`] on pass-KV only; decode on the flat
/// layout only. Anything else is a [`CoreError::BadRequest`] from both the
/// loop and [`crate::schedule::ring_plan`] before any message is posted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingSpec {
    /// One forward lane, or a forward/reverse pair carrying half the
    /// payload each (TokenRing-style, arXiv:2412.20501).
    pub direction: RingDirection,
    /// Flat ring, or hierarchical over a node topology.
    pub layout: RingLayout,
    /// Pass-KV payload format.
    pub wire: RingWire,
    /// Hops in flight ahead of compute: 0, 1 or 2.
    pub depth: usize,
}

impl Default for RingSpec {
    /// The paper's schedule: unidirectional, flat, f32, double-buffered.
    fn default() -> Self {
        RingSpec {
            direction: RingDirection::Uni,
            layout: RingLayout::Flat,
            wire: RingWire::F32,
            depth: 1,
        }
    }
}

/// Which of the three ring algorithms a [`RingSpec`] is applied to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RingAlgo {
    PassKv,
    PassQ,
    Decode,
}

/// A validated [`RingSpec`], resolved to the paths its lanes follow.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LanePlan {
    paths: [RingPath; 2],
    count: usize,
    /// Whether hops are posted ahead of compute (`depth >= 1`).
    pub(crate) overlap: bool,
}

impl LanePlan {
    pub(crate) fn paths(&self) -> &[RingPath] {
        self.paths.get(..self.count).unwrap_or(&self.paths)
    }
}

impl RingSpec {
    /// Validates this cell for `algo` over `world` ranks and resolves its
    /// lanes: one forward lane (uni), forward + reverse (bidi), or two
    /// forward lanes (depth 2).
    pub(crate) fn lanes(&self, algo: RingAlgo, world: usize) -> Result<LanePlan, CoreError> {
        let unsupported = |why: &str| CoreError::BadRequest {
            reason: format!("unsupported ring cell {:?} for {algo:?}: {why}", self),
        };
        if self.depth > 2 {
            return Err(unsupported("depth must be 0, 1 or 2"));
        }
        if self.wire == RingWire::Int8 && algo != RingAlgo::PassKv {
            return Err(unsupported(
                "only pass-KV payloads have an INT8 wire format",
            ));
        }
        if algo == RingAlgo::Decode && self.layout != RingLayout::Flat {
            return Err(unsupported("decode rings are flat"));
        }
        let fwd = self.layout.fwd(world)?;
        let chunked = self.depth == 2;
        if chunked
            && (algo != RingAlgo::PassKv
                || self.direction != RingDirection::Uni
                || self.layout != RingLayout::Flat
                || self.wire != RingWire::F32)
        {
            return Err(unsupported(
                "depth 2 is declared for unidirectional flat f32 pass-KV only",
            ));
        }
        let (second, count) = match self.direction {
            RingDirection::Bidi => (self.layout.rev(world)?, 2),
            RingDirection::Uni if chunked => (fwd, 2),
            RingDirection::Uni => (fwd, 1),
        };
        Ok(LanePlan {
            paths: [fwd, second],
            count,
            overlap: self.depth > 0,
        })
    }
}

/// How an engine picks the ring *schedule family* (payload direction ×
/// link layout) for its prefill and decode rings. Orthogonal to the
/// pass-KV/pass-Q variant choice: every family is exact for both
/// variants, so the variant decides what circulates and the family only
/// decides how it is routed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulePolicy {
    /// Always use this direction and layout. The default —
    /// unidirectional over the flat ring — is the paper's schedule and
    /// preserves the classic behaviour exactly.
    Fixed {
        /// Payload routing direction.
        direction: RingDirection,
        /// Ring layout (flat, or hierarchical over a node topology).
        layout: RingLayout,
    },
    /// Fold family selection into the prefill heuristic: per ring round,
    /// the analytic link model prices all four families for the chosen
    /// variant's payload on this topology and takes the cheapest.
    Auto {
        /// Link topology of the CP ranks (`world` must equal `n_ranks`).
        topo: TopologySpec,
    },
}

impl Default for SchedulePolicy {
    fn default() -> Self {
        SchedulePolicy::Fixed {
            direction: RingDirection::Uni,
            layout: RingLayout::Flat,
        }
    }
}

impl SchedulePolicy {
    /// Checks that the policy's topology covers exactly `n_ranks` ranks —
    /// the check both engines run before any rank thread is spawned.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadRequest`] naming the mismatch.
    pub fn validate(&self, n_ranks: usize) -> Result<(), CoreError> {
        let (what, covered) = match self {
            SchedulePolicy::Fixed {
                layout: RingLayout::Hier(topo),
                ..
            } => (
                format!(
                    "hierarchical layout ({} nodes x {})",
                    topo.nodes, topo.ranks_per_node
                ),
                topo.world(),
            ),
            SchedulePolicy::Auto { topo } => ("auto-schedule topology".to_string(), topo.world()),
            SchedulePolicy::Fixed { .. } => return Ok(()),
        };
        if covered != n_ranks || covered == 0 {
            return Err(CoreError::BadRequest {
                reason: format!("{what} covers {covered} ranks but the engine has {n_ranks}"),
            });
        }
        Ok(())
    }

    /// Resolves the policy to the concrete cell for one prefill round of
    /// `variant` at `(t, p)` new/cached tokens. `Fixed` is taken as-is;
    /// `Auto` prices all four families for the variant's per-hop payload on
    /// the configured link topology and takes the cheapest (ties prefer the
    /// simpler family). Compressed precisions put pass-KV on the INT8 wire
    /// — and `Auto` prices that smaller payload.
    pub fn resolve(
        &self,
        system: &SystemContext,
        precision: KvPrecision,
        variant: RingVariant,
        t: usize,
        p: usize,
    ) -> RingSpec {
        let wire = match (variant, precision) {
            (RingVariant::PassKv, KvPrecision::Int8Wire | KvPrecision::Int8Total) => RingWire::Int8,
            _ => RingWire::F32,
        };
        let (direction, layout) = match self {
            SchedulePolicy::Fixed { direction, layout } => (*direction, *layout),
            SchedulePolicy::Auto { topo } => {
                let bytes = match wire {
                    RingWire::Int8 => {
                        quant_kv_hop_bytes_per_layer(&system.model, topo.world(), t, p)
                    }
                    RingWire::F32 => {
                        hop_bytes_per_layer(&system.model, variant, topo.world(), t, p)
                    }
                };
                let family = choose_family(topo, bytes);
                let layout = match family.topology {
                    RingTopologyKind::Flat => RingLayout::Flat,
                    RingTopologyKind::Hierarchical => {
                        RingLayout::Hier(Topology::new(topo.nodes, topo.ranks_per_node))
                    }
                };
                (family.direction, layout)
            }
        };
        RingSpec {
            direction,
            layout,
            wire,
            ..RingSpec::default()
        }
    }

    /// Resolves one decode step over `ctx_total` cached context tokens
    /// (summed across the batch) and `batch` sequences: a `pinned` strategy
    /// wins, `Auto` prices all three on the configured topology, and a
    /// fixed schedule defaults to the paper's pass-Q. The returned cell is
    /// what the pass-Q strategy's ring runs on — the policy's direction on
    /// the **flat** layout, whatever layout prefill uses, because the
    /// batched `All2All` return is layout-free and only flat decode
    /// schedules are declared.
    pub fn resolve_decode(
        &self,
        system: &SystemContext,
        pinned: Option<DecodeStrategy>,
        ctx_total: usize,
        batch: usize,
    ) -> (DecodeStrategy, RingSpec) {
        let strategy = pinned.unwrap_or_else(|| match self {
            SchedulePolicy::Fixed { .. } => DecodeStrategy::PassQ,
            SchedulePolicy::Auto { topo } => {
                choose_decode_strategy(&system.model, topo, ctx_total, batch)
            }
        });
        let spec = RingSpec {
            layout: RingLayout::Flat,
            ..self.resolve(system, KvPrecision::F32, RingVariant::PassQ, batch, 0)
        };
        (strategy, spec)
    }
}
