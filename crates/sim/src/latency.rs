//! Latency collection and percentile computation.
//!
//! The QoS Monitor samples the tail latency (95th/99th/90th percentile) of
//! the requests completed in each monitoring interval. [`LatencyRecorder`]
//! collects exact per-interval samples into a buffer that is reused across
//! intervals; [`percentile`] computes exact order statistics by selection
//! (expected O(n), no full sort).

/// Exact percentile of a sample set using linear interpolation between order
/// statistics (the same convention as `numpy.percentile(..., 'linear')`).
///
/// Implemented with [`slice::select_nth_unstable_by`] rather than a full
/// sort: expected O(n) instead of O(n log n). Order statistics under the
/// `total_cmp` order are unique values, so the result is bit-identical to
/// the sort-based computation for the samples this crate produces (finite,
/// non-negative latencies; the lone exception is a `-0.0` sample at an
/// integral rank, where the sort-based interpolation formula would
/// normalize it to `+0.0`). `samples` is only *partially reordered* in
/// place — callers must not rely on it being sorted afterwards.
///
/// Returns `None` on an empty slice.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use hipster_sim::percentile;
///
/// let mut xs = vec![4.0, 1.0, 3.0, 2.0];
/// assert_eq!(percentile(&mut xs, 0.5), Some(2.5));
/// assert_eq!(percentile(&mut xs, 1.0), Some(4.0));
/// assert_eq!(percentile(&mut Vec::new(), 0.9), None);
/// ```
pub fn percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&p), "percentile {p} not in [0,1]");
    if samples.is_empty() {
        return None;
    }
    let n = samples.len();
    if n == 1 {
        return Some(samples[0]);
    }
    let rank = p * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    let (_, &mut lo_v, above) = samples.select_nth_unstable_by(lo, f64::total_cmp);
    let hi_v = if hi == lo {
        lo_v
    } else {
        // `hi == lo + 1`: the next order statistic is the minimum of the
        // partition above the pivot (all its elements are ≥ `lo_v`).
        above
            .iter()
            .copied()
            .min_by(f64::total_cmp)
            .expect("hi > lo implies a non-empty upper partition")
    };
    Some(lo_v + (hi_v - lo_v) * frac)
}

/// Collects latency samples for the current monitoring interval.
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples: Vec<f64>,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed-request latency (seconds).
    ///
    /// # Panics
    ///
    /// Panics if `latency_s` is negative or not finite.
    pub fn record(&mut self, latency_s: f64) {
        assert!(
            latency_s.is_finite() && latency_s >= 0.0,
            "invalid latency: {latency_s}"
        );
        self.samples.push(latency_s);
    }

    /// Number of samples collected so far this interval.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been collected this interval.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Computes interval statistics and clears the recorder.
    ///
    /// Returns `(tail, mean, count)` where `tail` is the `p`-th percentile,
    /// computed by selection (see [`percentile`]). With no samples, both
    /// latencies are `None`. The sample buffer's capacity is retained, so a
    /// recorder that is reused interval after interval stops allocating once
    /// it has seen its high-water-mark completion count.
    pub fn take_interval(&mut self, p: f64) -> (Option<f64>, Option<f64>, usize) {
        let n = self.samples.len();
        if n == 0 {
            return (None, None, 0);
        }
        let mean = self.samples.iter().sum::<f64>() / n as f64;
        let tail = percentile(&mut self.samples, p);
        self.samples.clear();
        (tail, Some(mean), n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_small_sets() {
        assert_eq!(percentile(&mut [], 0.5), None);
        assert_eq!(percentile(&mut [7.0], 0.95), Some(7.0));
        assert_eq!(percentile(&mut [1.0, 2.0], 0.0), Some(1.0));
        assert_eq!(percentile(&mut [1.0, 2.0], 1.0), Some(2.0));
        assert_eq!(percentile(&mut [1.0, 2.0], 0.5), Some(1.5));
    }

    #[test]
    fn percentile_uniform_grid() {
        let mut xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut xs, 0.95), Some(95.0));
        assert_eq!(percentile(&mut xs, 0.90), Some(90.0));
    }

    #[test]
    fn recorder_interval_stats() {
        let mut r = LatencyRecorder::new();
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            r.record(x);
        }
        let (tail, mean, n) = r.take_interval(1.0);
        assert_eq!(tail, Some(5.0));
        assert_eq!(mean, Some(3.0));
        assert_eq!(n, 5);
        // Cleared after take.
        assert!(r.is_empty());
        assert_eq!(r.take_interval(0.95), (None, None, 0));
    }

    #[test]
    #[should_panic(expected = "invalid latency")]
    fn recorder_rejects_nan() {
        LatencyRecorder::new().record(f64::NAN);
    }
}
