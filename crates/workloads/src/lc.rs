//! Generic latency-critical workload model, configured per service.
//!
//! Service demands have a frequency-sensitive compute part (lognormal work
//! units) and a frequency-insensitive memory part (constant seconds). Core
//! speed anchors at the big core's top frequency; small cores pay an IPC
//! penalty on top of their frequency deficit. Arrivals may come in
//! geometric bursts (multiget batching).

use hipster_platform::{CoreKind, Frequency};
use hipster_sim::dist::LogNormal;
use hipster_sim::{ClosedLoop, Demand, LcModel, QosTarget, Sampler, SimRng};

/// A configurable latency-critical service model.
///
/// Build with [`LcWorkloadBuilder`]; the crate provides calibrated presets
/// [`memcached`](crate::memcached) and [`web_search`](crate::web_search).
#[derive(Debug)]
pub struct LcWorkload {
    name: String,
    max_load_rps: f64,
    qos: QosTarget,
    work: LogNormal,
    mem_s: f64,
    /// Work units per second on a big core at `big_anchor`.
    big_speed_anchor: f64,
    big_anchor: Frequency,
    /// IPC penalty of a small core relative to a big core at equal
    /// frequency (>1 — in-order vs out-of-order).
    small_ipc_penalty: f64,
    /// Mean geometric burst size (1 = Poisson arrivals).
    burst_mean: f64,
    /// `ln(1 - 1/burst_mean)`, the geometric draw's divisor, computed once.
    burst_ln_q: f64,
    /// Closed-loop client population, or `None` for open-loop arrivals.
    closed_loop: Option<ClosedLoop>,
    /// Client-side request timeout, seconds.
    timeout_s: Option<f64>,
}

impl LcWorkload {
    /// Starts building a workload named `name`.
    pub fn builder(name: impl Into<String>) -> LcWorkloadBuilder {
        LcWorkloadBuilder::new(name)
    }

    /// Mean service time (seconds) of one request on a core of `kind` at
    /// `freq`, excluding queueing and contention.
    pub fn mean_service_s(&self, kind: CoreKind, freq: Frequency) -> f64 {
        self.work.mean() / self.service_speed(kind, freq) + self.mem_s
    }

    /// Sustainable throughput (requests per second) of a configuration with
    /// the given core counts and frequencies — the reciprocal-service-time
    /// capacity bound, before queueing effects.
    pub fn capacity_rps(
        &self,
        n_big: usize,
        n_small: usize,
        big_freq: Frequency,
        small_freq: Frequency,
    ) -> f64 {
        n_big as f64 / self.mean_service_s(CoreKind::Big, big_freq)
            + n_small as f64 / self.mean_service_s(CoreKind::Small, small_freq)
    }
}

impl LcModel for LcWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn max_load_rps(&self) -> f64 {
        self.max_load_rps
    }

    fn qos(&self) -> QosTarget {
        self.qos
    }

    fn sample_demand(&self, rng: &mut SimRng) -> Demand {
        Demand::new(self.work.sample(rng), self.mem_s)
    }

    fn fill_demands(&self, rng: &mut SimRng, out: &mut [Demand]) {
        // The default's loop, with the lognormal draw inlined into it.
        for d in out {
            *d = Demand::new(self.work.sample(rng), self.mem_s);
        }
    }

    fn service_speed(&self, kind: CoreKind, freq: Frequency) -> f64 {
        let scale = freq.ratio_to(self.big_anchor);
        match kind {
            CoreKind::Big => self.big_speed_anchor * scale,
            CoreKind::Small => self.big_speed_anchor * scale / self.small_ipc_penalty,
        }
    }

    fn sample_burst(&self, rng: &mut SimRng) -> usize {
        if self.burst_mean <= 1.0 {
            return 1;
        }
        // Geometric on {1, 2, ...} with mean `burst_mean`.
        let u = 1.0 - rng.uniform(); // (0, 1]
        1 + (u.ln() / self.burst_ln_q).floor() as usize
    }

    fn mean_burst(&self) -> f64 {
        self.burst_mean.max(1.0)
    }

    fn closed_loop(&self) -> Option<ClosedLoop> {
        self.closed_loop
    }

    fn timeout_s(&self) -> Option<f64> {
        self.timeout_s
    }
}

/// Builder for [`LcWorkload`].
#[derive(Debug, Clone)]
pub struct LcWorkloadBuilder {
    name: String,
    max_load_rps: f64,
    qos: QosTarget,
    work_mean: f64,
    work_sigma: f64,
    mem_s: f64,
    big_speed_anchor: f64,
    big_anchor: Frequency,
    small_ipc_penalty: f64,
    burst_mean: f64,
    closed_loop: Option<ClosedLoop>,
    timeout_s: Option<f64>,
}

impl LcWorkloadBuilder {
    /// Creates a builder with neutral defaults (must still be calibrated).
    pub fn new(name: impl Into<String>) -> Self {
        LcWorkloadBuilder {
            name: name.into(),
            max_load_rps: 100.0,
            qos: QosTarget::new(0.95, 0.1),
            work_mean: 1.0,
            work_sigma: 0.5,
            mem_s: 0.0,
            big_speed_anchor: 1000.0,
            big_anchor: Frequency::from_mhz(1150),
            small_ipc_penalty: 2.0,
            burst_mean: 1.0,
            closed_loop: None,
            timeout_s: None,
        }
    }

    /// Sets the 100%-load request rate (Table 1 "Max. Load").
    pub fn max_load_rps(mut self, rps: f64) -> Self {
        self.max_load_rps = rps;
        self
    }

    /// Sets the QoS target (Table 1 "Target Tail latency").
    pub fn qos(mut self, qos: QosTarget) -> Self {
        self.qos = qos;
        self
    }

    /// Sets the lognormal compute demand: mean work units and sigma.
    pub fn work(mut self, mean: f64, sigma: f64) -> Self {
        self.work_mean = mean;
        self.work_sigma = sigma;
        self
    }

    /// Sets the constant per-request memory time, seconds.
    pub fn mem_seconds(mut self, mem_s: f64) -> Self {
        self.mem_s = mem_s;
        self
    }

    /// Sets the big-core speed (work units/s) at the anchor frequency.
    pub fn big_speed(mut self, units_per_s: f64, anchor: Frequency) -> Self {
        self.big_speed_anchor = units_per_s;
        self.big_anchor = anchor;
        self
    }

    /// Sets the small-core IPC penalty (>1).
    pub fn small_ipc_penalty(mut self, penalty: f64) -> Self {
        self.small_ipc_penalty = penalty;
        self
    }

    /// Sets the mean geometric burst size (1 = plain Poisson).
    pub fn burst_mean(mut self, mean: f64) -> Self {
        self.burst_mean = mean;
        self
    }

    /// Sets the client-side request timeout, seconds (clients abandon
    /// requests older than this; they count as right-censored latencies).
    pub fn timeout(mut self, timeout_s: f64) -> Self {
        self.timeout_s = Some(timeout_s);
        self
    }

    /// Switches to closed-loop load generation (Faban-style): `max_clients`
    /// emulated clients at 100% load, each thinking for an exponential time
    /// of mean `think_s` between requests.
    pub fn closed_loop(mut self, max_clients: usize, think_s: f64) -> Self {
        self.closed_loop = Some(ClosedLoop {
            max_clients,
            think_mean_s: think_s,
        });
        self
    }

    /// Builds the workload.
    ///
    /// # Panics
    ///
    /// Panics, naming the parameter, if any parameter is infinite or NaN,
    /// or non-positive where positivity is required: the max load, work
    /// mean, big-core speed and timeout must be positive, the work sigma,
    /// memory time and a closed loop's think time non-negative, and the
    /// IPC penalty and burst mean at least 1.
    pub fn build(self) -> LcWorkload {
        let positive = |x: f64| x > 0.0;
        let non_negative = |x: f64| x >= 0.0;
        let at_least_one = |x: f64| x >= 1.0;
        require("max load", self.max_load_rps, "positive", positive);
        require("work mean", self.work_mean, "positive", positive);
        require("work sigma", self.work_sigma, "non-negative", non_negative);
        require("memory time", self.mem_s, "non-negative", non_negative);
        require("big speed", self.big_speed_anchor, "positive", positive);
        require("IPC penalty", self.small_ipc_penalty, "≥ 1", at_least_one);
        require("burst mean", self.burst_mean, "≥ 1", at_least_one);
        if let Some(timeout) = self.timeout_s {
            require("timeout", timeout, "positive", positive);
        }
        if let Some(cl) = self.closed_loop {
            require("think time", cl.think_mean_s, "non-negative", non_negative);
        }
        // LogNormal mean = median * exp(sigma²/2)  ⇒  median from mean.
        let median = self.work_mean / (self.work_sigma * self.work_sigma / 2.0).exp();
        LcWorkload {
            name: self.name,
            max_load_rps: self.max_load_rps,
            qos: self.qos,
            work: LogNormal::from_median(median, self.work_sigma),
            mem_s: self.mem_s,
            big_speed_anchor: self.big_speed_anchor,
            big_anchor: self.big_anchor,
            small_ipc_penalty: self.small_ipc_penalty,
            burst_mean: self.burst_mean,
            burst_ln_q: (1.0 - 1.0 / self.burst_mean).ln(),
            closed_loop: self.closed_loop,
            timeout_s: self.timeout_s,
        }
    }
}

/// Asserts that the builder parameter `what` is finite and meets `rule`
/// (`holds`), naming both when it is not.
fn require(what: &str, x: f64, rule: &str, holds: impl Fn(f64) -> bool) {
    assert!(
        x.is_finite() && holds(x),
        "{what} must be finite and {rule}: {x}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> LcWorkload {
        LcWorkload::builder("toy")
            .max_load_rps(1000.0)
            .qos(QosTarget::new(0.95, 0.01))
            .work(50.0, 0.6)
            .mem_seconds(10e-6)
            .big_speed(1.0e6, Frequency::from_mhz(1150))
            .small_ipc_penalty(2.5)
            .burst_mean(4.0)
            .build()
    }

    #[test]
    fn demand_mean_matches_configuration() {
        let w = toy();
        let mut rng = SimRng::seed(1);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| w.sample_demand(&mut rng).work).sum::<f64>() / n as f64;
        assert!((mean - 50.0).abs() / 50.0 < 0.02, "mean work {mean}");
    }

    #[test]
    fn speed_scales_with_frequency_and_kind() {
        let w = toy();
        let big_hi = w.service_speed(CoreKind::Big, Frequency::from_mhz(1150));
        let big_lo = w.service_speed(CoreKind::Big, Frequency::from_mhz(600));
        let small = w.service_speed(CoreKind::Small, Frequency::from_mhz(650));
        assert!((big_hi - 1.0e6).abs() < 1e-6);
        assert!((big_lo / big_hi - 600.0 / 1150.0).abs() < 1e-12);
        // Small at 0.65 GHz: frequency ratio / IPC penalty.
        let expect = 1.0e6 * (650.0 / 1150.0) / 2.5;
        assert!((small - expect).abs() < 1e-6);
    }

    #[test]
    fn mean_service_time_composition() {
        let w = toy();
        let f = Frequency::from_mhz(1150);
        let t = w.mean_service_s(CoreKind::Big, f);
        // 50 units at 1e6 units/s + 10 µs memory.
        assert!((t - 60e-6).abs() < 1e-9, "{t}");
    }

    #[test]
    fn capacity_adds_across_cores() {
        let w = toy();
        let fb = Frequency::from_mhz(1150);
        let fs = Frequency::from_mhz(650);
        let c1 = w.capacity_rps(1, 0, fb, fs);
        let c2 = w.capacity_rps(2, 0, fb, fs);
        let c3 = w.capacity_rps(2, 2, fb, fs);
        assert!((c2 / c1 - 2.0).abs() < 1e-9);
        assert!(c3 > c2);
    }

    #[test]
    fn burst_mean_matches() {
        let w = toy();
        let mut rng = SimRng::seed(2);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| w.sample_burst(&mut rng) as f64).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "burst mean {mean}");
        assert_eq!(w.mean_burst(), 4.0);
    }

    #[test]
    fn burst_draws_match_the_per_draw_formula_bit_for_bit() {
        // The pre-computed `ln(1 - 1/mean)` must leave every burst exactly
        // where computing it per draw put it.
        for mean in [1.5, 4.0, 10.0, 20.0] {
            let w = LcWorkload::builder("x").burst_mean(mean).build();
            let (mut rng, mut old) = (SimRng::seed(4), SimRng::seed(4));
            for _ in 0..10_000 {
                let p = 1.0 / mean;
                let u = 1.0 - old.uniform();
                let want = 1 + (u.ln() / (1.0 - p).ln()).floor() as usize;
                assert_eq!(w.sample_burst(&mut rng), want, "mean {mean}");
            }
        }
    }

    #[test]
    fn filled_demands_are_the_sampled_demands_bit_for_bit() {
        let models = [
            crate::memcached(),
            crate::memcached_bursty(),
            crate::web_search(),
            LcWorkload::builder("fixed").work(50.0, 0.0).build(),
        ];
        for w in &models {
            for len in [0, 1, 63, 64, 65, 1000] {
                let (mut rng, mut one_by_one) = (SimRng::seed(5), SimRng::seed(5));
                let mut filled = vec![Demand::new(0.0, 0.0); len];
                w.fill_demands(&mut rng, &mut filled);
                for (k, d) in filled.iter().enumerate() {
                    let want = w.sample_demand(&mut one_by_one);
                    let bits = |d: &Demand| (d.work.to_bits(), d.mem_s.to_bits());
                    assert_eq!(bits(d), bits(&want), "{}, demand {k} of {len}", w.name());
                }
                assert_eq!(rng.next_u64(), one_by_one.next_u64(), "{}", w.name());
            }
        }
    }

    #[test]
    fn unit_burst_when_mean_is_one() {
        let w = LcWorkload::builder("x").build();
        let mut rng = SimRng::seed(3);
        for _ in 0..100 {
            assert_eq!(w.sample_burst(&mut rng), 1);
        }
    }

    #[test]
    #[should_panic(expected = "burst mean")]
    fn builder_rejects_sub_one_burst() {
        let _ = LcWorkload::builder("x").burst_mean(0.5).build();
    }

    #[test]
    #[should_panic(expected = "think time")]
    fn builder_rejects_nan_think_time() {
        let _ = LcWorkload::builder("x").closed_loop(96, f64::NAN).build();
    }

    #[test]
    #[should_panic(expected = "burst mean must be finite and ≥ 1: inf")]
    fn builder_rejects_infinite_burst_mean() {
        let _ = LcWorkload::builder("x").burst_mean(f64::INFINITY).build();
    }

    #[test]
    #[should_panic(expected = "max load must be finite and positive: inf")]
    fn builder_rejects_infinite_max_load() {
        let _ = LcWorkload::builder("x").max_load_rps(f64::INFINITY).build();
    }

    #[test]
    #[should_panic(expected = "memory time must be finite and non-negative: inf")]
    fn builder_rejects_infinite_memory_time() {
        let _ = LcWorkload::builder("x").mem_seconds(f64::INFINITY).build();
    }

    #[test]
    #[should_panic(expected = "big speed must be finite and positive: inf")]
    fn builder_rejects_infinite_speed() {
        let f = Frequency::from_mhz(1150);
        let _ = LcWorkload::builder("x").big_speed(f64::INFINITY, f).build();
    }

    #[test]
    #[should_panic(expected = "IPC penalty must be finite and ≥ 1: inf")]
    fn builder_rejects_infinite_ipc_penalty() {
        let _ = LcWorkload::builder("x")
            .small_ipc_penalty(f64::INFINITY)
            .build();
    }

    #[test]
    #[should_panic(expected = "work sigma must be finite and non-negative: NaN")]
    fn builder_rejects_nan_sigma() {
        let _ = LcWorkload::builder("x").work(50.0, f64::NAN).build();
    }
}
