//! In-memory spans recorded around the benchmark's own calls into the library.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer was created), the
//! span that was open when it started, and the id of the operation it belongs to. Spans
//! stay in memory until the run ends; [`Tracer::chrome_json`] writes them out as Chrome
//! trace events. A disabled tracer records nothing: [`Tracer::open`] is one branch.

use crate::json;
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; pass it back to [`Tracer::close`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// Per-name aggregate of closed spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStats {
    pub count: usize,
    pub total_ms: f64,
    /// Total self time in milliseconds: durations minus what child spans cover.
    pub self_ms: f64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags the spans opened from now on with operation id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    pub fn close(&mut self, id: SpanId) {
        let Some(index) = id.0 else {
            return;
        };
        let end_ns = self.now_ns();
        // Spans a panic left open inside this one end with it.
        while let Some(open) = self.open.pop() {
            self.spans[open].end_ns = end_ns;
            if open == index {
                break;
            }
        }
    }

    /// Closes `id` under the name `name`, for spans whose kind is known only at the end.
    pub fn close_as(&mut self, id: SpanId, name: &'static str) {
        if let Some(index) = id.0 {
            self.spans[index].name = name;
        }
        self.close(id);
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let result = f();
        self.close(id);
        result
    }

    /// Counts, total and self times of the closed spans, grouped by name.
    pub fn stats(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut stats: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = stats.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ms += span.duration_ns() as f64 / 1e6;
            entry.self_ms += span.duration_ns().saturating_sub(children) as f64 / 1e6;
        }
        stats
    }

    /// Durations in milliseconds of the spans named `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// The spans as a Chrome trace-event document (loads in Perfetto).
    pub fn chrome_json(&self) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(index, span)| {
                json::obj(vec![
                    ("name", json::str(span.name)),
                    ("ph", json::str("X")),
                    ("ts", Value::F64(span.start_ns as f64 / 1e3)),
                    ("dur", Value::F64(span.duration_ns() as f64 / 1e3)),
                    ("pid", Value::U64(1)),
                    ("tid", Value::U64(1)),
                    (
                        "args",
                        json::obj(vec![
                            ("span", Value::U64(index as u64)),
                            (
                                "parent",
                                span.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                            ),
                            ("op", Value::U64(span.op)),
                        ]),
                    ),
                ])
            })
            .collect();
        json::to_string(&json::obj(vec![("traceEvents", Value::Array(events))]))
    }
}
