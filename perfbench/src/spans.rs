//! Spans the benchmark records around its own calls into each layer's
//! public functions.
//!
//! A span is named `layer.fn`; its layer is the part before the first
//! dot. Spans nest by call order on the one benchmark thread, stay in
//! memory until the run ends, and are written out as one Chrome
//! trace-event document. A layer's self time is the time inside its
//! spans minus the time inside their child spans.
//!
//! The durations handed back to the workloads are in reference seconds
//! when the recorder scales by host speed (see [`crate::speed`]); the
//! trace keeps the host's own clock.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::speed::Speed;

/// The root span of every measured pass; shares are taken of its time.
pub const PASS: &str = "perfbench.pass";

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    pass: usize,
    seg: Option<usize>,
}

/// An open span, closed by [`Spans::end`].
#[must_use]
pub struct Open {
    index: Option<usize>,
    start: Instant,
    factor: f64,
}

/// The span recorder. When disabled it still times calls (the host
/// metrics need those durations) but records nothing.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pass: usize,
    depth: usize,
    speed: Option<Speed>,
}

impl Spans {
    /// A recorder; `scaled` turns on scaling by host speed.
    pub fn new(scaled: bool) -> Self {
        Self {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
            depth: 0,
            speed: scaled.then(Speed::new),
        }
    }

    /// Turns recording on for a traced pass and off for an untraced one.
    pub fn set_enabled(&mut self, enabled: bool, pass: usize) {
        self.enabled = enabled;
        self.pass = pass;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn begin(&mut self, name: &'static str, seg: Option<usize>) -> Open {
        // Re-time the reference loop only between a pass's direct calls,
        // so it never runs inside a timed call.
        if let Some(speed) = self.speed.as_mut().filter(|_| self.depth == 1) {
            speed.update();
        }
        self.depth += 1;
        let factor = self.speed.as_ref().map_or(1.0, Speed::factor);
        let start = Instant::now();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start: start - self.epoch,
                end: start - self.epoch,
                parent: self.stack.last().copied(),
                pass: self.pass,
                seg,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open {
            index,
            start,
            factor,
        }
    }

    /// Closes `open` and returns its duration in reference seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        self.depth -= 1;
        if let Some(index) = open.index {
            self.spans[index].end = now - self.epoch;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(index), "spans close in call order");
        }
        (now - open.start).as_secs_f64() * open.factor
    }

    /// Runs `f` inside a leaf span; returns its result and duration in
    /// reference seconds.
    pub fn call<R>(
        &mut self,
        name: &'static str,
        seg: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let open = self.begin(name, seg);
        let result = f();
        (result, self.end(open))
    }

    /// How much slower than the reference host this one ran, or 0 when
    /// the recorder does not scale.
    pub fn slowdown(&self) -> f64 {
        self.speed.as_ref().map_or(0.0, Speed::slowdown)
    }

    fn duration(&self, i: usize) -> f64 {
        (self.spans[i].end - self.spans[i].start).as_secs_f64()
    }

    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = (0..self.spans.len()).map(|i| self.duration(i)).collect();
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                own[parent] -= self.duration(i);
            }
        }
        own
    }

    fn root(&self, mut i: usize) -> usize {
        while let Some(parent) = self.spans[i].parent {
            i = parent;
        }
        i
    }

    /// Seconds inside recorded [`PASS`] spans.
    pub fn pass_seconds(&self) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == PASS)
            .map(|i| self.duration(i))
            .sum()
    }

    /// Self seconds per layer, and total seconds per span name, over the
    /// spans under a [`PASS`] root.
    pub fn attribution(&self) -> (BTreeMap<&'static str, f64>, BTreeMap<&'static str, f64>) {
        let own = self.self_times();
        let mut by_layer = BTreeMap::new();
        let mut by_name = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            if self.spans[self.root(i)].name != PASS {
                continue;
            }
            let layer = span.name.split('.').next().unwrap_or(span.name);
            *by_layer.entry(layer).or_insert(0.0) += own[i];
            *by_name.entry(span.name).or_insert(0.0) += self.duration(i);
        }
        (by_layer, by_name)
    }

    /// The Chrome trace-event document: one complete (`"X"`) event per
    /// span, timestamps in microseconds since the run started.
    pub fn chrome_trace(&self, process: &str) -> String {
        let mut out = String::with_capacity(128 * self.spans.len() + 256);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":\"{process}\"}}}}"
        ));
        for (i, span) in self.spans.iter().enumerate() {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            out.push_str(&format!(
                ",{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"pass\":{}",
                span.name,
                span.start.as_secs_f64() * 1e6,
                self.duration(i) * 1e6,
                span.pass,
            ));
            if let Some(parent) = span.parent {
                out.push_str(&format!(",\"parent\":{parent}"));
            }
            if let Some(seg) = span.seg {
                out.push_str(&format!(",\"seg\":{seg}"));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}
