//! Sampling rules: one operation kind per latency set, nearest-rank
//! percentiles, and the tail rule (a percentile is a tail only with at
//! least [`TAIL_BEYOND`] samples beyond it).

/// Samples a reported tail percentile must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Fewest operations for which any tail is reported.
pub const MIN_TAIL_OPS: usize = 40;

/// Latencies of operations that all do identical work. The first
/// recorded kind names the set; a sample of any other kind is refused,
/// so no percentile ever mixes operation kinds.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    kind: Option<&'static str>,
    ms: Vec<f64>,
}

impl Latencies {
    /// Add one operation's latency in milliseconds.
    ///
    /// # Errors
    ///
    /// The set already holds operations of another kind.
    pub fn record(&mut self, kind: &'static str, ms: f64) -> Result<(), String> {
        match self.kind {
            Some(k) if k != kind => {
                return Err(format!("latency set of `{k}` operations refuses a `{kind}` sample"))
            }
            _ => self.kind = Some(kind),
        }
        self.ms.push(ms);
        Ok(())
    }

    /// Fold another set of the same kind into this one.
    ///
    /// # Errors
    ///
    /// The sets hold different operation kinds.
    pub fn merge(&mut self, other: Latencies) -> Result<(), String> {
        if let Some(kind) = other.kind {
            for ms in other.ms {
                self.record(kind, ms)?;
            }
        }
        Ok(())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ms.len()
    }

    /// Nearest-rank percentile `q` (in `(0, 1]`) of the samples.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        percentile(&self.ms, q)
    }

    /// The tail at percentile `q`, or `None` when fewer than
    /// [`TAIL_BEYOND`] samples lie beyond it or the set has fewer than
    /// [`MIN_TAIL_OPS`] samples.
    pub fn tail(&self, q: f64) -> Option<f64> {
        if tail_ok(self.len(), q) {
            self.percentile(q)
        } else {
            None
        }
    }
}

/// Nearest-rank percentile: the smallest sample with at least `q` of
/// the samples at or below it.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps 0.9 * 100 at rank 90 despite binary rounding.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Whether percentile `q` of `n` samples has at least [`TAIL_BEYOND`]
/// samples beyond it and `n` reaches [`MIN_TAIL_OPS`].
pub fn tail_ok(n: usize, q: f64) -> bool {
    n >= MIN_TAIL_OPS && n - rank(n, q) >= TAIL_BEYOND
}

/// Fewest samples for which percentile `q` is a tail.
pub fn min_ops_for_tail(q: f64) -> usize {
    (MIN_TAIL_OPS..).find(|&n| tail_ok(n, q)).expect("some count satisfies the tail rule")
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(n: usize) -> Latencies {
        let mut l = Latencies::default();
        for i in 1..=n {
            l.record("op", i as f64).unwrap();
        }
        l
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(tail_ok(100, 0.90));
        assert!(!tail_ok(99, 0.90));
        assert!(tail_ok(1000, 0.99));
        assert!(!tail_ok(999, 0.99));
        assert!(tail_ok(40, 0.75));
        assert!(!tail_ok(39, 0.75));
        assert_eq!(min_ops_for_tail(0.90), 100);
        assert_eq!(min_ops_for_tail(0.99), 1000);
        assert_eq!(min_ops_for_tail(0.75), 40);
        // Exactly ten beyond: p90 of 100 samples is the 90th value.
        assert_eq!(set(100).tail(0.90), Some(90.0));
        assert_eq!(set(99).tail(0.90), None);
    }

    #[test]
    fn no_tail_below_forty_operations() {
        // p50 of 39 samples has 19 beyond it, still no tail.
        assert!(!tail_ok(39, 0.50));
        assert_eq!(set(39).tail(0.50), None);
        assert_eq!(set(40).tail(0.75), Some(30.0));
    }

    #[test]
    fn mixed_operation_kinds_are_rejected() {
        let mut l = Latencies::default();
        l.record("launch", 1.0).unwrap();
        assert!(l.record("ping", 1.0).is_err());
        assert_eq!(l.len(), 1);
        let mut other = Latencies::default();
        other.record("cycle", 2.0).unwrap();
        assert!(l.merge(other).is_err());
        let mut same = Latencies::default();
        same.record("launch", 3.0).unwrap();
        l.merge(same).unwrap();
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn percentiles_and_medians() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
