//! What every workload shares: the run configuration, the clock that
//! decides when a closed-loop caller starts its next operation, and the
//! result a workload hands back.

use crate::stats::{self, Latencies};
use crate::trace::{Recorder, Span, Trace};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Independent set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// A run never measures longer than this many times `--seconds`, even
/// when it has not yet reached the operation count its tail needs.
const MAX_STRETCH: f64 = 3.0;

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run: record spans and report per-layer metrics.
    pub traced: bool,
    /// Fewest timed operations an untraced run completes, so its fixed
    /// tail percentile has ten samples beyond it.
    pub min_ops: usize,
}

/// Whether an operation of a traced run is recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Untraced operation.
    Plain,
    /// Operation recorded with spans.
    Traced,
}

/// Decides, for every closed-loop caller, whether to start another
/// operation. An untraced run measures `seconds` and then continues
/// until `min_ops` operations are done. A traced run measures `seconds`
/// and traces every second operation of each caller, so traced and
/// untraced operations interleave and their medians give the tracing
/// overhead under the same machine conditions.
#[derive(Debug)]
pub struct Clock {
    start: Instant,
    cfg: Cfg,
    done: AtomicUsize,
}

impl Clock {
    /// Start the clock now.
    pub fn start(cfg: Cfg) -> Clock {
        Clock { start: Instant::now(), cfg, done: AtomicUsize::new(0) }
    }

    /// The phase of a caller's operation number `op`, or `None` when the
    /// run is over.
    pub fn next(&self, op: u64) -> Option<Phase> {
        let t = self.start.elapsed().as_secs_f64();
        let s = self.cfg.seconds;
        if self.cfg.traced {
            let phase = if op % 2 == 1 { Phase::Traced } else { Phase::Plain };
            return (t < s).then_some(phase);
        }
        let short = self.done.load(Ordering::Relaxed) < self.cfg.min_ops;
        (t < s || (short && t < s * MAX_STRETCH)).then_some(Phase::Plain)
    }

    /// Count one finished operation.
    pub fn complete(&self) {
        self.done.fetch_add(1, Ordering::Relaxed);
    }

    /// Seconds since the clock started.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Latencies of one caller, split by phase.
#[derive(Debug, Default)]
pub struct PhaseLatencies {
    /// Untraced operations.
    pub plain: Latencies,
    /// Traced operations.
    pub traced: Latencies,
}

impl PhaseLatencies {
    /// Record one operation of `kind`.
    ///
    /// # Panics
    ///
    /// A workload mixing operation kinds in one set is a bug.
    pub fn record(&mut self, phase: Phase, kind: &'static str, ms: f64) {
        let set = match phase {
            Phase::Plain => &mut self.plain,
            Phase::Traced => &mut self.traced,
        };
        set.record(kind, ms).expect("one operation kind per latency set");
    }

    /// Fold another caller's latencies into these.
    pub fn merge(&mut self, other: PhaseLatencies) {
        self.plain.merge(other.plain).expect("one operation kind per latency set");
        self.traced.merge(other.traced).expect("one operation kind per latency set");
    }
}

/// Why an operation failed.
#[derive(Debug)]
pub enum Failure {
    /// A call returned an error.
    Error(String),
    /// An output check found a wrong result.
    Wrong(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Error(m) => write!(f, "error: {m}"),
            Failure::Wrong(m) => write!(f, "wrong output: {m}"),
        }
    }
}

/// Counts and latencies of one closed-loop caller.
#[derive(Debug, Default)]
pub struct Tally {
    /// Latencies of operations that succeeded.
    pub lat: PhaseLatencies,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or failed an output check.
    pub failed: u64,
    /// Output checks that found a wrong result.
    pub wrong: u64,
}

impl Tally {
    /// Fold another caller's tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.lat.merge(other.lat);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    /// Count one operation: its latency on success, otherwise a failure.
    pub fn count(
        &mut self,
        phase: Phase,
        kind: &'static str,
        ms: f64,
        outcome: Result<(), Failure>,
    ) {
        self.attempted += 1;
        match outcome {
            Ok(()) => self.lat.record(phase, kind, ms),
            Err(f) => {
                eprintln!("{kind} failed, {f}");
                self.failed += 1;
                self.wrong += u64::from(matches!(f, Failure::Wrong(_)));
            }
        }
    }
}

/// What a workload run hands back.
#[derive(Debug, Default)]
pub struct Run {
    /// Duration of each independent set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Timed operations of every caller.
    pub tally: Tally,
    /// Seconds the timed phase took.
    pub wall_s: f64,
    /// Spans of a traced run.
    pub trace: Option<Trace>,
    /// Per-layer metrics of a traced run, beyond those derived from spans.
    pub layer: Vec<(&'static str, f64)>,
}

impl Run {
    /// Tracing overhead of a traced run: the median latency of traced
    /// operations over that of the untraced ones, in percent.
    pub fn trace_overhead_pct(&self) -> f64 {
        let lat = &self.tally.lat;
        match (lat.plain.percentile(0.5), lat.traced.percentile(0.5)) {
            (Some(plain), Some(traced)) if plain > 0.0 => (traced / plain - 1.0) * 100.0,
            _ => 0.0,
        }
    }

    /// Median of the per-operation self times of spans named `name`.
    pub fn span_median_ms(&self, name: &str) -> f64 {
        self.trace.as_ref().and_then(|t| stats::median(&t.per_op_self_ms(name))).unwrap_or(0.0)
    }

    /// Add, for each `(span, metric)` pair, the metric as the median
    /// per-operation self time of the span.
    pub fn add_span_metrics(&mut self, pairs: &[(&str, &'static str)]) {
        for &(span, metric) in pairs {
            let v = self.span_median_ms(span);
            self.layer.push((metric, v));
        }
    }
}

/// Run one closed-loop caller thread per element of `states`, each with
/// its own span recorder (timestamps from `epoch`), and return what each
/// caller returned together with its spans.
pub fn run_callers<S: Send, T: Send>(
    states: impl IntoIterator<Item = S>,
    epoch: Instant,
    caller: impl Fn(S, &mut Recorder) -> T + Sync,
) -> Vec<(T, Vec<Span>)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .into_iter()
            .map(|state| {
                let caller = &caller;
                scope.spawn(move || {
                    let mut rec = Recorder::new(epoch);
                    let out = caller(state, &mut rec);
                    (out, rec.into_spans())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("caller thread")).collect()
    })
}

/// Seconds elapsed while running `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Peak resident set of this process in MB (`VmHWM`), 0 when unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A deterministic generator for workload inputs derived from `--seed`
/// (SplitMix64).
#[derive(Debug, Clone)]
pub struct SeedRng(u64);

impl SeedRng {
    /// Generator for `seed`.
    pub fn new(seed: u64) -> SeedRng {
        SeedRng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}
