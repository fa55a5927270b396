//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Spans are recorded only in a `--trace 1` run, kept in a `Vec` and written
//! as one Chrome-trace file when the run ends. Tracing *inside* the crates
//! is a later change; these spans sit at the boundary the benchmark can see.

use std::time::Instant;

/// One recorded call. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
    /// Operation (rep, turn or request) the span belongs to; spans of one
    /// request share it.
    pub request: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// No request: a span of the run itself (a scheduler tick serves many).
pub const NO_REQUEST: u64 = u64::MAX;

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle of an open span; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct SpanId(Option<u32>);

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
        // Spans close innermost first; tolerate an early return that skipped one.
        while let Some(top) = self.open.pop() {
            if top == id {
                break;
            }
        }
    }

    /// Records a span whose interval was measured by the caller (a wait
    /// that ends in another call, such as queueing before admission).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u32>,
        start_s: f64,
        end_s: f64,
    ) -> Option<u32> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: (start_s * 1e9) as u64,
            end_ns: (end_s.max(start_s) * 1e9) as u64,
            parent,
            request,
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// Seconds since the tracer was made, on the clock spans use.
    pub fn clock(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Seconds one `begin`/`end` pair costs, measured on a scratch tracer.
    pub fn span_cost_s() -> f64 {
        const N: u32 = 200_000;
        let mut t = Tracer::new(true);
        t.spans.reserve(N as usize);
        let start = Instant::now();
        for i in 0..N {
            let id = t.begin("calibrate", u64::from(i));
            t.end(id);
        }
        let cost = start.elapsed().as_secs_f64() / f64::from(N);
        std::hint::black_box(&t.spans);
        cost
    }

    /// The Chrome-trace (`chrome://tracing`, Perfetto) rendering: one
    /// complete (`"ph":"X"`) event per span, nested by time on one thread,
    /// with `parent` and `request` in `args`.
    pub fn chrome_trace(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 120);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\"");
        out.push_str(workload);
        out.push_str("\"},\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = if s.request == NO_REQUEST {
                "null".to_string()
            } else {
                s.request.to_string()
            };
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"request\":{request},\
                 \"start_ns\":{},\"end_ns\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.start_ns,
                s.end_ns,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_a_request() {
        let mut t = Tracer::new(true);
        let turn = t.begin("turn", 7);
        let prefill = t.begin("engine.prefill", 7);
        t.end(prefill);
        let decode = t.begin("engine.decode", 7);
        t.end(decode);
        t.end(turn);
        let next = t.begin("turn", 8);
        t.end(next);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent, s[3].parent),
            (None, Some(0), Some(0), None)
        );
        assert!(s.iter().take(3).all(|s| s.request == 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert_eq!(t.durations("turn").len(), 2);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", 1);
        t.end(id);
        assert_eq!(t.record("y", 1, None, 0.0, 1.0), None);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_json_with_one_event_per_span() {
        let mut t = Tracer::new(true);
        let a = t.begin("sched.tick", NO_REQUEST);
        t.end(a);
        assert_eq!(t.record("sched.queue_wait", 3, Some(0), 0.5, 0.75), Some(1));
        let v: serde_json::Value = serde_json::from_str(&t.chrome_trace("w")).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0]["name"], "sched.tick");
        assert!(events[0]["args"]["request"].is_null());
        assert_eq!(events[1]["args"]["request"], 3u64);
        assert_eq!(events[1]["dur"], 250_000.0);
    }
}
