//! Span recorder: one span around every call the benchmark makes into a
//! layer. Spans stay in memory and are written at exit as Chrome
//! trace-event JSON. The recorder is also the benchmark's only stopwatch:
//! an untraced run takes its timings from the same `begin`/`end` pair and
//! just does not keep the span.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Workload repetition the span belongs to.
    pub rep: u32,
}

/// Handle of an open span, returned by [`Recorder::begin`].
pub struct Open {
    name: &'static str,
    start: Instant,
    parent: Option<usize>,
    slot: Option<usize>,
}

pub struct Recorder {
    /// Keep spans (the traced run) or only time them.
    pub keep: bool,
    pub rep: u32,
    epoch: Instant,
    spans: Vec<Span>,
    current: Option<usize>,
}

impl Recorder {
    pub fn new(keep: bool) -> Recorder {
        Recorder { keep, rep: 0, epoch: Instant::now(), spans: Vec::new(), current: None }
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let parent = self.current;
        let slot = self.keep.then(|| {
            self.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, rep: self.rep });
            self.spans.len() - 1
        });
        if slot.is_some() {
            self.current = slot;
        }
        Open { name, start: Instant::now(), parent, slot }
    }

    /// Closes the span; returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let elapsed = open.start.elapsed();
        if let Some(slot) = open.slot {
            debug_assert_eq!(self.spans[slot].name, open.name);
            let start_ns = open.start.duration_since(self.epoch).as_nanos() as u64;
            self.spans[slot].start_ns = start_ns;
            self.spans[slot].end_ns = start_ns + elapsed.as_nanos() as u64;
            self.current = open.parent;
        }
        elapsed.as_secs_f64()
    }

    /// Times `f` under a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let value = f();
        (value, self.end(open))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto): complete events, one track per workload.
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{workload}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"rep\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.rep,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_untraced_runs_keep_nothing() {
        let mut rec = Recorder::new(true);
        let outer = rec.begin("outer");
        let (_, inner_s) = rec.time("inner", || std::hint::black_box(1 + 1));
        let outer_s = rec.end(outer);
        assert!(outer_s >= inner_s);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[0].parent, None);
        assert!(rec.to_chrome_json("w").contains("\"name\":\"inner\""));

        let mut off = Recorder::new(false);
        let (_, s) = off.time("x", || ());
        assert!(s >= 0.0);
        assert!(off.spans().is_empty());
    }
}
