//! Spans recorded by the benchmark around its calls into each crate.
//! They live in memory until the run ends and are then written out as
//! JSON lines, one span per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `mapper` or `schedule.lower`.
    pub name: &'static str,
    /// Start and end in seconds from the trace origin.
    pub start: f64,
    /// End in seconds from the trace origin.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (cell or document) the span belongs to.
    pub op: usize,
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span and returns its result and the span index.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: usize,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.origin.elapsed().as_secs_f64();
        let out = f();
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
        });
        (out, self.spans.len() - 1)
    }

    /// Opens a span whose end is set later with [`Trace::close`], for a
    /// span that encloses other spans.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: usize) -> usize {
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Ends an opened span.
    pub fn close(&mut self, index: usize) {
        self.spans[index].end = self.origin.elapsed().as_secs_f64();
    }

    /// Duration of one span in ms.
    pub fn ms(&self, index: usize) -> f64 {
        (self.spans[index].end - self.spans[index].start) * 1e3
    }

    /// Total duration and self time (duration minus the time its direct
    /// children cover) per span name, in ms.
    pub fn by_name(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ms[p] += (span.end - span.start) * 1e3;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let total = (span.end - span.start) * 1e3;
            let entry = out.entry(span.name).or_default();
            entry.total_ms += total;
            entry.self_ms += total - child_ms[i];
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start, s.end, s.op
            );
        }
        out
    }
}

/// Aggregated time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Summed duration in ms.
    pub total_ms: f64,
    /// Summed self time in ms.
    pub self_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Trace::new();
        let root = t.open("pipeline.compile", None, 0);
        let ((), child) = t.span("mapper", Some(root), 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        t.span("schedule.lower", Some(root), 0, || {});
        t.close(root);
        let by = t.by_name();
        let root_ms = t.ms(root);
        let children = by["mapper"].total_ms + by["schedule.lower"].total_ms;
        assert!((by["pipeline.compile"].self_ms - (root_ms - children)).abs() < 1e-9);
        assert!(by["pipeline.compile"].self_ms >= 0.0);
        assert!(t.ms(child) >= 2.0);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }
}
