//! Latency collection and percentile computation.
//!
//! The QoS Monitor samples the tail latency (95th/99th/90th percentile) of
//! the requests completed in each monitoring interval. [`LatencyRecorder`]
//! collects exact per-interval samples into a buffer it borrows from its
//! thread for the interval; [`percentile`] computes exact order statistics
//! by selection (expected O(n), no full sort).

use std::cell::Cell;

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

thread_local! {
    /// The sample buffer this thread lends to the next recorder that starts
    /// an interval here. Recorders step one interval at a time, so a thread
    /// stepping many nodes in turn (a cluster's node stage) keeps one warm
    /// buffer sized to the largest interval it saw, not one per node.
    static SPARE: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// Collects latency samples for the current monitoring interval.
///
/// The buffer is borrowed from the recording thread at the interval's first
/// [`record`](Self::record) and handed back by
/// [`take_interval`](Self::take_interval), so an idle recorder holds no
/// memory. Borrowing takes the buffer out of the thread's cell, so two
/// recorders open on one thread never share it. Dropping a recorder frees
/// its thread's spare, so a thread keeps one only while the engines or
/// cluster nodes that record on it live.
///
/// The interval's mean comes from a running sum, added in record order from
/// −0.0 as `Sum for f64` folds, so it is bit for bit
/// `samples.iter().sum::<f64>() / n` and closing an interval makes one
/// pass over the samples, the percentile's selection.
#[derive(Debug, Clone)]
pub struct LatencyRecorder {
    samples: Vec<f64>,
    sum: f64,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        LatencyRecorder {
            samples: Vec::new(),
            sum: -0.0,
        }
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
        if self.samples.capacity() == 0 {
            self.borrow_spare();
        }
        self.samples.push(latency_s);
        self.sum += latency_s;
    }

    /// Takes this thread's spare buffer for the interval (it may be empty).
    /// Kept out of line so that `record` stays small enough to inline.
    #[cold]
    fn borrow_spare(&mut self) {
        self.samples = SPARE.take();
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
    /// latencies are `None`. The emptied buffer goes back to the calling
    /// thread's spare, replacing the one there, so the next recorder to
    /// start an interval on this thread reuses its capacity and the
    /// recorder itself holds nothing between intervals.
    pub fn take_interval(&mut self, p: f64) -> (Option<f64>, Option<f64>, usize) {
        let n = self.samples.len();
        if n == 0 {
            return (None, None, 0);
        }
        let mean = std::mem::replace(&mut self.sum, -0.0) / n as f64;
        let tail = percentile(&mut self.samples, p);
        self.samples.clear();
        SPARE.set(std::mem::take(&mut self.samples));
        (tail, Some(mean), n)
    }
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for LatencyRecorder {
    fn drop(&mut self) {
        // `try_with`: the thread's cell may already be gone when a recorder
        // is dropped during thread teardown.
        let _ = SPARE.try_with(Cell::take);
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
    fn the_running_mean_is_the_summed_mean_bit_for_bit() {
        let mut rng = crate::SimRng::seed(9);
        let mut intervals: Vec<Vec<f64>> = (0..50)
            .map(|_| {
                let n = 1 + rng.index(3000);
                (0..n).map(|_| rng.uniform() * 0.02).collect()
            })
            .collect();
        intervals.push(vec![0.0, 3e-3, 1e-5, 7.25e-4]);
        intervals.push(vec![4.2e-3]);
        let mut r = LatencyRecorder::new();
        for samples in &intervals {
            for &x in samples {
                r.record(x);
            }
            let want = samples.iter().sum::<f64>() / samples.len() as f64;
            let (_, mean, n) = r.take_interval(0.95);
            assert_eq!(n, samples.len());
            assert_eq!(mean.map(f64::to_bits), Some(want.to_bits()), "{n} samples");
        }
    }

    #[test]
    fn recorders_on_one_thread_take_turns_with_one_buffer() {
        std::thread::spawn(|| {
            let mut a = LatencyRecorder::new();
            for i in 0..1000 {
                a.record(f64::from(i));
            }
            let cap = a.samples.capacity();
            assert_eq!(a.take_interval(1.0).2, 1000);
            assert_eq!(a.samples.capacity(), 0, "an idle recorder holds no buffer");
            let mut b = LatencyRecorder::new();
            b.record(1.0);
            assert_eq!(b.samples.capacity(), cap, "b reuses a's buffer");
            // While b holds it, another recorder starts a buffer of its own.
            let mut c = LatencyRecorder::new();
            c.record(2.0);
            assert!(c.samples.capacity() < cap);
            assert_eq!(c.take_interval(1.0), (Some(2.0), Some(2.0), 1));
            assert_eq!(b.take_interval(1.0), (Some(1.0), Some(1.0), 1));
            // Dropping a recorder frees the thread's spare.
            drop(c);
            let mut d = LatencyRecorder::new();
            d.record(3.0);
            assert!(
                d.samples.capacity() < cap,
                "the spare outlived its recorders"
            );
        })
        .join()
        .expect("recorder thread");
    }

    #[test]
    #[should_panic(expected = "invalid latency")]
    fn recorder_rejects_nan() {
        LatencyRecorder::new().record(f64::NAN);
    }
}
