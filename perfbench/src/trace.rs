//! Spans the benchmark records around its own calls into each layer's
//! public functions. Spans stay in memory (one recorder per client
//! thread, no locks) and are written out once the run ends; per-layer
//! metrics are self times derived from them.

use concord_serve::json::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.open` or `runtime.new`.
    pub name: &'static str,
    /// The operation (request, cycle, round) the span belongs to; spans
    /// of one operation share it.
    pub op: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Start, since the run's epoch.
    pub start: Duration,
    /// End, since the run's epoch.
    pub end: Duration,
}

impl Span {
    fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread span recorder. It starts off; when off, every call is a
/// no-op.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder, off, whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder { on: false, epoch, op: 0, spans: Vec::new(), open: Vec::new() }
    }

    /// Switch recording on or off between operations.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside a span");
        self.on = on;
    }

    /// Tag later spans with operation id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.open.pop().expect("end() matches a begin()");
        self.spans[idx].end = self.epoch.elapsed();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Spans of all recorders of one run, with self times derived.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
    self_ms: Vec<f64>,
    child_ms: Vec<f64>,
}

impl Trace {
    /// Merge recorders' spans; parent indices are rebased per recorder.
    pub fn new(per_thread: Vec<Vec<Span>>) -> Trace {
        let mut spans = Vec::new();
        for (thread, list) in per_thread.into_iter().enumerate() {
            let base = spans.len();
            spans.extend(list.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                // Operations of different threads get distinct ids.
                s.op = (s.op << 8) | thread as u64;
                s
            }));
        }
        let mut child_ms = vec![0.0; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ms[p] += ms(s.dur());
            }
        }
        let self_ms =
            spans.iter().zip(&child_ms).map(|(s, c)| (ms(s.dur()) - c).max(0.0)).collect();
        Trace { spans, self_ms, child_ms }
    }

    /// Per operation, the summed self time (ms) of spans named `name`,
    /// in operation order. Operations without such a span are absent.
    pub fn per_op_self_ms(&self, name: &str) -> Vec<f64> {
        let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
        for (s, self_ms) in self.spans.iter().zip(&self.self_ms) {
            if s.name == name {
                *by_op.entry(s.op).or_default() += self_ms;
            }
        }
        by_op.into_values().collect()
    }

    /// Smallest share (in percent) of a `name` span that its direct
    /// children cover, over every such span; 0 when there is none.
    pub fn min_child_coverage_pct(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(&self.child_ms)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| if s.dur().is_zero() { 100.0 } else { 100.0 * c / ms(s.dur()) })
            .reduce(f64::min)
            .unwrap_or(0.0)
    }

    /// All spans as a JSON array (times in microseconds since the epoch).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .zip(&self.self_ms)
                .map(|(s, self_ms)| {
                    Json::obj(vec![
                        ("name", Json::str(s.name)),
                        ("op", s.op.into()),
                        ("parent", s.parent.map_or(Json::Null, |p| (p as u64).into())),
                        ("start_us", Json::Num(s.start.as_secs_f64() * 1e6)),
                        ("end_us", Json::Num(s.end.as_secs_f64() * 1e6)),
                        ("self_ms", Json::Num(*self_ms)),
                    ])
                })
                .collect(),
        )
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, op: u64, parent: Option<usize>, s: u64, e: u64) -> Span {
        Span { name, op, parent, start: Duration::from_millis(s), end: Duration::from_millis(e) }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let t = Trace::new(vec![vec![
            span("round", 0, None, 0, 10),
            span("a", 0, Some(0), 0, 4),
            span("b", 0, Some(0), 4, 9),
            span("b.inner", 0, Some(2), 5, 7),
        ]]);
        assert_eq!(t.per_op_self_ms("round"), vec![1.0]);
        assert_eq!(t.per_op_self_ms("b"), vec![3.0]);
        assert!((t.min_child_coverage_pct("round") - 90.0).abs() < 1e-9);
    }

    #[test]
    fn threads_keep_their_parents_and_ops_apart() {
        let t = Trace::new(vec![
            vec![span("op", 0, None, 0, 2), span("x", 0, Some(0), 0, 1)],
            vec![span("op", 0, None, 0, 4), span("x", 0, Some(0), 0, 3)],
        ]);
        assert_eq!(t.per_op_self_ms("x"), vec![1.0, 3.0]);
        assert_eq!(t.per_op_self_ms("op"), vec![1.0, 1.0]);
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let mut r = Recorder::new(Instant::now());
        r.time("x", || ());
        assert!(r.into_spans().is_empty());
    }
}
