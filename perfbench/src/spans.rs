//! Host-time spans recorded from the benchmark's own code around the
//! calls it makes into each layer. Spans live in memory and are written
//! into the run record when the run ends.

use serde_json::{json, Value};
use std::time::Instant;

struct Span {
    name: &'static str,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
}

/// An in-memory span log with one level of explicit nesting: spans
/// timed while a parent is open record it as their cause.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Option<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: None,
        }
    }

    fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a parent span (a repetition); close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str) {
        let start_s = self.now_s();
        self.spans.push(Span {
            name,
            start_s,
            end_s: start_s,
            parent: None,
        });
        self.open = Some(self.spans.len() - 1);
    }

    pub fn close(&mut self) {
        if let Some(idx) = self.open.take() {
            self.spans[idx].end_s = self.now_s();
        }
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// host duration in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let start_s = self.now_s();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start_s,
            end_s: start_s + secs,
            parent: self.open,
        });
        (out, secs)
    }

    /// Seconds since the span log was created.
    pub fn elapsed_s(&self) -> f64 {
        self.now_s()
    }

    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    json!({
                        "name": s.name,
                        "start_s": s.start_s,
                        "end_s": s.end_s,
                        "parent": s.parent,
                    })
                })
                .collect(),
        )
    }
}
