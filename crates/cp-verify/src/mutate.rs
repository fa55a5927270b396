//! Seeded schedule mutations for validating the checker and the runtime
//! sanitizer.
//!
//! Each [`Mutation`] injects one realistic communication bug into a clean
//! plan. The test suite asserts that every mutation is caught **twice**:
//! offline by [`crate::check_plan`] / [`crate::explore_interleavings`],
//! and at runtime by `cp_comm::CheckedFabric` when live traffic is held
//! against the mutated plan — in both cases naming the offending rank.

use cp_comm::{CommOp, CommPlan};

/// A single seeded communication-schedule bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Every rank's first ring hop is split into a blocking `Recv`
    /// followed by the `Send`: the classic cyclic-wait deadlock that
    /// buffered sends normally prevent.
    RecvBeforeSend,
    /// One rank declares the wrong message variant on its first ring hop
    /// (e.g. `Kv` traffic labelled as another payload kind).
    WrongVariant {
        /// The rank whose declaration is corrupted.
        rank: usize,
    },
    /// One rank drops its final ring hop — an off-by-one in the ring step
    /// count, leaving a dangling send upstream and a starving receive
    /// downstream.
    DropLastHop {
        /// The rank whose schedule loses its last hop.
        rank: usize,
    },
    /// One rank under-declares the wire bytes of its first ring hop,
    /// breaking sent == received conservation.
    ShortBytes {
        /// The rank whose byte count is shrunk.
        rank: usize,
    },
}

impl Mutation {
    /// The four seeded bugs targeting `rank` (where applicable).
    pub fn seeds(rank: usize) -> [Mutation; 4] {
        [
            Mutation::RecvBeforeSend,
            Mutation::WrongVariant { rank },
            Mutation::DropLastHop { rank },
            Mutation::ShortBytes { rank },
        ]
    }

    /// Short tag for reporting, e.g. `recv-before-send`.
    pub fn tag(&self) -> &'static str {
        match self {
            Mutation::RecvBeforeSend => "recv-before-send",
            Mutation::WrongVariant { .. } => "wrong-variant",
            Mutation::DropLastHop { .. } => "drop-last-hop",
            Mutation::ShortBytes { .. } => "short-bytes",
        }
    }

    /// The rank this mutation corrupts, when it targets a single rank.
    pub fn target_rank(&self) -> Option<usize> {
        match self {
            Mutation::RecvBeforeSend => None,
            Mutation::WrongVariant { rank }
            | Mutation::DropLastHop { rank }
            | Mutation::ShortBytes { rank } => Some(*rank),
        }
    }
}

/// Index of the first `SendRecv` op in a rank's schedule.
fn first_hop(ops: &[CommOp]) -> Option<usize> {
    ops.iter()
        .position(|op| matches!(op, CommOp::SendRecv { .. }))
}

/// Index of the last `SendRecv` op in a rank's schedule.
fn last_hop(ops: &[CommOp]) -> Option<usize> {
    ops.iter()
        .rposition(|op| matches!(op, CommOp::SendRecv { .. }))
}

/// Applies `mutation` to a copy of `plan`. Returns `None` when the plan
/// has no site for the mutation (e.g. a single-rank schedule with no ring
/// hops), so callers can skip degenerate grid points.
pub fn apply_mutation(plan: &CommPlan, mutation: Mutation) -> Option<CommPlan> {
    let mut mutated = plan.clone();
    match mutation {
        Mutation::RecvBeforeSend => {
            // Rewrite every rank, otherwise the surviving buffered sends
            // still unblock the ring.
            let mut rewrote = false;
            for rp in &mut mutated.ranks {
                let Some(i) = first_hop(&rp.ops) else {
                    continue;
                };
                let Some(CommOp::SendRecv {
                    dst,
                    src,
                    send_variant,
                    recv_variant,
                    send_bytes,
                    recv_bytes,
                }) = rp.ops.get(i).cloned()
                else {
                    continue;
                };
                rp.ops.splice(
                    i..=i,
                    [
                        CommOp::Recv {
                            src,
                            variant: recv_variant,
                            bytes: recv_bytes,
                        },
                        CommOp::Send {
                            dst,
                            variant: send_variant,
                            bytes: send_bytes,
                        },
                    ],
                );
                rewrote = true;
            }
            rewrote.then_some(mutated)
        }
        Mutation::WrongVariant { rank } => {
            let rp = mutated.ranks.get_mut(rank)?;
            let i = first_hop(&rp.ops)?;
            if let Some(CommOp::SendRecv { send_variant, .. }) = rp.ops.get_mut(i) {
                *send_variant = "Corrupt";
            }
            Some(mutated)
        }
        Mutation::DropLastHop { rank } => {
            let rp = mutated.ranks.get_mut(rank)?;
            let i = last_hop(&rp.ops)?;
            rp.ops.remove(i);
            Some(mutated)
        }
        Mutation::ShortBytes { rank } => {
            // A zero-byte hop (all-padding decode slot) has no byte to
            // shave; report "no site" rather than a no-op mutation.
            let rp = mutated.ranks.get_mut(rank)?;
            let i = rp.ops.iter().position(
                |op| matches!(op, CommOp::SendRecv { send_bytes, .. } if *send_bytes > 0),
            )?;
            if let Some(CommOp::SendRecv { send_bytes, .. }) = rp.ops.get_mut(i) {
                *send_bytes -= 1;
            }
            Some(mutated)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check_plan, Violation};
    use crate::explore::{explore_default, ExploreOutcome};
    use crate::grid::grid_cases;

    /// Every seeded mutation of every ring-bearing grid schedule must be
    /// caught by the model checker, with the target rank named.
    #[test]
    fn checker_catches_every_seeded_mutation() {
        for cp in [2, 3, 4, 5] {
            for case in grid_cases(cp).unwrap() {
                for mutation in Mutation::seeds(1) {
                    let Some(mutated) = apply_mutation(&case.plan, mutation) else {
                        continue;
                    };
                    let report = check_plan(&mutated);
                    assert!(
                        !report.is_clean(),
                        "{} survived {}",
                        case.name,
                        mutation.tag()
                    );
                    if let Some(rank) = mutation.target_rank() {
                        assert!(
                            report
                                .violations
                                .iter()
                                .any(|v| v.offending_ranks().contains(&rank)),
                            "{}: {} violations {:?} do not name rank {rank}",
                            case.name,
                            mutation.tag(),
                            report.violations
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn recv_before_send_is_reported_as_deadlock_by_both_engines() {
        for case in grid_cases(3).unwrap() {
            let Some(mutated) = apply_mutation(&case.plan, Mutation::RecvBeforeSend) else {
                continue;
            };
            let report = check_plan(&mutated);
            assert!(
                report
                    .violations
                    .iter()
                    .any(|v| matches!(v, Violation::Deadlock { .. })),
                "{}: {:?}",
                case.name,
                report.violations
            );
            assert!(
                matches!(explore_default(&mutated), ExploreOutcome::Deadlock { .. }),
                "{}",
                case.name
            );
        }
    }

    #[test]
    fn drop_last_hop_deadlocks_under_exploration() {
        for case in grid_cases(3).unwrap() {
            let Some(mutated) = apply_mutation(&case.plan, Mutation::DropLastHop { rank: 1 })
            else {
                continue;
            };
            match explore_default(&mutated) {
                ExploreOutcome::Deadlock { blocked, .. } => {
                    assert!(!blocked.is_empty(), "{}", case.name);
                }
                other => panic!("{}: {:?}", case.name, other),
            }
        }
    }

    #[test]
    fn short_bytes_breaks_conservation() {
        for case in grid_cases(2).unwrap() {
            let Some(mutated) = apply_mutation(&case.plan, Mutation::ShortBytes { rank: 0 }) else {
                continue;
            };
            let report = check_plan(&mutated);
            assert!(report.violations.iter().any(|v| matches!(
                v,
                Violation::ByteMismatch { .. } | Violation::Conservation { .. }
            )));
        }
    }

    #[test]
    fn mutations_skip_hopless_plans() {
        let params =
            cp_attention::AttentionParams::for_shape(cp_attention::GqaShape::new(2, 1, 4).unwrap());
        let locals = vec![vec![cp_core::LocalSeq {
            q: cp_tensor::Tensor::zeros(&[1, 2, 4]),
            q_pos: vec![0],
            k: cp_tensor::Tensor::zeros(&[1, 1, 4]),
            v: cp_tensor::Tensor::zeros(&[1, 1, 4]),
            kv_pos: vec![0],
        }]];
        let plan = cp_core::schedule::ring_plan(
            cp_core::schedule::RingInput::PassKv(&locals),
            &cp_core::RingSpec::default(),
            &params,
        )
        .unwrap();
        for mutation in Mutation::seeds(0) {
            assert!(
                apply_mutation(&plan, mutation).is_none(),
                "{}",
                mutation.tag()
            );
        }
    }
}
