//! Measured ring traces: adapts the fabric's recorded timeline into the
//! Chrome-trace structure `cp-perf` exports.
//!
//! `cp_perf::trace::trace_ring` builds a *modeled* trace from the
//! discrete-event simulator's cost formulas. This module builds the same
//! [`RingTrace`] from what actually happened on the thread fabric: every
//! collective wall-time interval and every [`Communicator::time_compute`]
//! span recorded in [`TrafficReport::timeline`]. The two traces share one
//! exporter, so measured and modeled pipelines can be compared side by
//! side in `chrome://tracing` / Perfetto.
//!
//! [`Communicator::time_compute`]: cp_comm::Communicator::time_compute

use cp_comm::TrafficReport;
use cp_perf::trace::{RingTrace, TraceEvent};

/// Converts a fabric [`TrafficReport`]'s measured timeline into a
/// [`RingTrace`].
///
/// Timestamps are relative to the fabric's launch instant and converted
/// from nanoseconds to the trace's microsecond unit; the makespan is the
/// latest interval end (0 for an empty timeline).
pub fn measured_ring_trace(report: &TrafficReport) -> RingTrace {
    let events: Vec<TraceEvent> = report
        .timeline
        .iter()
        .map(|ev| TraceEvent {
            rank: ev.rank,
            lane: ev.lane.as_str().to_string(),
            name: ev.label.clone(),
            start_us: ev.start_ns as f64 / 1_000.0,
            dur_us: ev.dur_ns as f64 / 1_000.0,
            overlap_us: ev.overlapped_ns as f64 / 1_000.0,
        })
        .collect();
    let makespan_us = events
        .iter()
        .map(|e| e.start_us + e.dur_us)
        .fold(0.0, f64::max);
    RingTrace {
        makespan_us,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{ring_pass_kv_prefill, run_ring};
    use crate::LocalSeq;
    use crate::RingSpec;
    use cp_attention::{AttentionParams, GqaShape, PAD};
    use cp_sharding::ShardPlan;
    use cp_tensor::DetRng;

    #[test]
    fn empty_report_gives_empty_trace() {
        let trace = measured_ring_trace(&TrafficReport::default());
        assert_eq!(trace.makespan_us, 0.0);
        assert!(trace.events.is_empty());
    }

    #[test]
    fn measured_prefill_trace_has_both_lanes_per_rank() {
        let n = 2;
        let t = 16;
        let params = AttentionParams::for_shape(GqaShape::new(2, 1, 4).unwrap());
        let mut rng = DetRng::new(31);
        let q = rng.tensor(&[t, 2, 4]);
        let k = rng.tensor(&[t, 1, 4]);
        let v = rng.tensor(&[t, 1, 4]);
        let plan = ShardPlan::new(t, n).unwrap();
        let max_len = (0..n).map(|r| plan.tokens_for(r)).max().unwrap();
        let locals: Vec<Vec<LocalSeq>> = (0..n)
            .map(|r| {
                let positions = plan.positions_for(r);
                let mut kv_pos = positions.clone();
                kv_pos.resize(max_len, PAD);
                vec![LocalSeq {
                    q: q.gather_dim0(&positions).unwrap(),
                    q_pos: positions.clone(),
                    k: k.gather_dim0(&positions)
                        .unwrap()
                        .pad_dim0(max_len, 0.0)
                        .unwrap(),
                    v: v.gather_dim0(&positions)
                        .unwrap()
                        .pad_dim0(max_len, 0.0)
                        .unwrap(),
                    kv_pos,
                }]
            })
            .collect();
        let (_, report) = run_ring(n, |comm| {
            ring_pass_kv_prefill(comm, &params, &RingSpec::default(), &locals[comm.rank()])
        })
        .unwrap();
        let trace = measured_ring_trace(&report);
        assert!(trace.makespan_us > 0.0);
        for rank in 0..n {
            assert!(
                trace
                    .events
                    .iter()
                    .any(|e| e.rank == rank && e.lane == "compute"),
                "rank {rank} has no compute events"
            );
            assert!(
                trace
                    .events
                    .iter()
                    .any(|e| e.rank == rank && e.lane == "comm"),
                "rank {rank} has no comm events"
            );
        }
        // Every attend/merge phase appears, and the exporter accepts it.
        for label in ["attend pass-kv", "merge pass-kv"] {
            assert!(trace.events.iter().any(|e| e.name == label), "{label}");
        }
        let json = trace.to_chrome_json();
        assert!(json.contains("traceEvents"));
        assert!(json.contains("overlap_us"));
        // Measured overlap is clamped to the collective's own duration and
        // never appears on compute-lane events.
        for e in &trace.events {
            match e.lane.as_str() {
                "comm" => assert!(e.overlap_us <= e.dur_us + 1e-9, "{e:?}"),
                _ => assert_eq!(e.overlap_us, 0.0, "{e:?}"),
            }
        }
        // Events stay within the makespan.
        for e in &trace.events {
            assert!(e.start_us + e.dur_us <= trace.makespan_us + 1e-9);
        }
    }
}
