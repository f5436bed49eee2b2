//! Tracing wrappers that measure the program's layers from outside, through
//! its public traits only: a [`PolicyFactory`] whose policies timestamp
//! every `decide`, an [`LcModel`] and a [`LoadPattern`] that count the draws
//! the engine makes, and a [`SweepStore`] that times every journal record.
//!
//! Every wrapper delegates each trait method, defaulted ones included, so a
//! traced run simulates exactly what an untraced one does; the benchmark
//! checks that by comparing digests. Logs stay in memory and are collected
//! once the wrapped object drops.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hipster_core::{
    FileStore, Observation, Policy, PolicyFactory, QuarantineRecord, StoreError, SweepRecord,
    SweepStore,
};
use hipster_platform::{CoreConfig, CoreKind, Frequency, Platform};
use hipster_sim::{ClosedLoop, Demand, LcModel, LoadPattern, QosTarget, SimRng};

use crate::gauge;

/// The `decide` timestamps of one policy instance, one entry per call.
/// `ends` stays empty when only call starts were asked for.
#[derive(Debug, Default)]
pub struct DecideLog {
    /// Build order of the policy (cluster node index, or sweep cell index).
    pub id: usize,
    /// When each `decide` call began.
    pub starts: Vec<Instant>,
    /// When each `decide` call returned.
    pub ends: Vec<Instant>,
    /// Seconds of the gauge sample run just before each `decide` call's
    /// start stamp (empty when the factory is not gauged).
    pub gauges: Vec<f64>,
    /// When the factory built the policy.
    pub born: Option<Instant>,
    /// When the policy dropped (its run is over).
    pub died: Option<Instant>,
}

/// Where policy logs land when their policies drop.
#[derive(Debug, Default)]
pub struct DecideLogs(Mutex<Vec<DecideLog>>);

impl DecideLogs {
    /// Every collected log, ordered by id.
    pub fn take(&self) -> Vec<DecideLog> {
        let mut logs = std::mem::take(&mut *self.0.lock().expect("decide log lock poisoned"));
        logs.sort_by_key(|l| l.id);
        logs
    }
}

/// Wraps a policy factory; each policy it builds logs its `decide` calls.
pub struct ProbedFactory<F> {
    inner: F,
    logs: Arc<DecideLogs>,
    with_ends: bool,
    gauge_rounds: u64,
    next_id: AtomicUsize,
}

impl<F> ProbedFactory<F> {
    /// Policies get ids `first_id, first_id + 1, …` in build order. With
    /// `with_ends` off only call starts are stamped (one clock read per
    /// interval), which is what the sweep needs to time its intervals.
    pub fn new(inner: F, logs: Arc<DecideLogs>, with_ends: bool, first_id: usize) -> Self {
        ProbedFactory {
            inner,
            logs,
            with_ends,
            gauge_rounds: 0,
            next_id: AtomicUsize::new(first_id),
        }
    }

    /// Each policy runs a `rounds`-event [`gauge`] sample before it stamps a
    /// `decide` start, which is the only outside hook on an interval when
    /// the fleet owns the stepping loop.
    pub fn gauged(mut self, rounds: u64) -> Self {
        self.gauge_rounds = rounds;
        self
    }
}

impl<F: PolicyFactory> PolicyFactory for ProbedFactory<F> {
    fn build(&self, platform: &Platform, seed: u64) -> Box<dyn Policy> {
        if self.gauge_rounds > 0 {
            // Build this thread's kernel before the policy's life begins.
            gauge::warm();
        }
        Box::new(ProbedPolicy {
            inner: self.inner.build(platform, seed),
            log: DecideLog {
                id: self.next_id.fetch_add(1, Ordering::Relaxed),
                born: Some(Instant::now()),
                ..DecideLog::default()
            },
            with_ends: self.with_ends,
            gauge_rounds: self.gauge_rounds,
            sink: self.logs.clone(),
        })
    }
}

#[derive(Debug)]
struct ProbedPolicy {
    inner: Box<dyn Policy>,
    log: DecideLog,
    with_ends: bool,
    gauge_rounds: u64,
    sink: Arc<DecideLogs>,
}

impl Policy for ProbedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, obs: &Observation) -> CoreConfig {
        if self.gauge_rounds > 0 {
            self.log.gauges.push(gauge::sample(self.gauge_rounds));
        }
        self.log.starts.push(Instant::now());
        let config = self.inner.decide(obs);
        if self.with_ends {
            self.log.ends.push(Instant::now());
        }
        config
    }
}

impl Drop for ProbedPolicy {
    fn drop(&mut self) {
        self.log.died = Some(Instant::now());
        // Never panic in drop: a poisoned sink only loses this log.
        if let Ok(mut logs) = self.sink.0.lock() {
            logs.push(std::mem::take(&mut self.log));
        }
    }
}

/// Draw counts summed over every wrapped workload and load pattern.
#[derive(Debug, Default)]
pub struct Counts {
    /// `LcModel::sample_demand` calls.
    pub demand_draws: AtomicU64,
    /// `LcModel::sample_burst` calls.
    pub burst_draws: AtomicU64,
    /// `LoadPattern::load_at` calls.
    pub load_calls: AtomicU64,
}

impl Counts {
    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// `(demand_draws, burst_draws, load_calls)`.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.demand_draws.load(Ordering::Relaxed),
            self.burst_draws.load(Ordering::Relaxed),
            self.load_calls.load(Ordering::Relaxed),
        )
    }
}

/// A latency-critical model that counts its demand and burst draws.
#[derive(Debug)]
pub struct CountingLc {
    inner: Box<dyn LcModel>,
    demand: Cell<u64>,
    burst: Cell<u64>,
    counts: Arc<Counts>,
}

impl CountingLc {
    /// Wraps `inner`; counts flow into `counts` when the model drops.
    pub fn new(inner: Box<dyn LcModel>, counts: Arc<Counts>) -> Self {
        CountingLc {
            inner,
            demand: Cell::new(0),
            burst: Cell::new(0),
            counts,
        }
    }
}

impl LcModel for CountingLc {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn max_load_rps(&self) -> f64 {
        self.inner.max_load_rps()
    }
    fn qos(&self) -> QosTarget {
        self.inner.qos()
    }
    fn sample_demand(&self, rng: &mut SimRng) -> Demand {
        self.demand.set(self.demand.get() + 1);
        self.inner.sample_demand(rng)
    }
    fn service_speed(&self, kind: CoreKind, freq: Frequency) -> f64 {
        self.inner.service_speed(kind, freq)
    }
    fn sample_burst(&self, rng: &mut SimRng) -> usize {
        self.burst.set(self.burst.get() + 1);
        self.inner.sample_burst(rng)
    }
    fn mean_burst(&self) -> f64 {
        self.inner.mean_burst()
    }
    fn timeout_s(&self) -> Option<f64> {
        self.inner.timeout_s()
    }
    fn closed_loop(&self) -> Option<ClosedLoop> {
        self.inner.closed_loop()
    }
}

impl Drop for CountingLc {
    fn drop(&mut self) {
        Counts::add(&self.counts.demand_draws, self.demand.get());
        Counts::add(&self.counts.burst_draws, self.burst.get());
    }
}

/// A load pattern that counts how often the program samples it.
#[derive(Debug)]
pub struct CountingLoad {
    inner: Box<dyn LoadPattern>,
    calls: Cell<u64>,
    counts: Arc<Counts>,
}

impl CountingLoad {
    /// Wraps `inner`; the call count flows into `counts` on drop.
    pub fn new(inner: Box<dyn LoadPattern>, counts: Arc<Counts>) -> Self {
        CountingLoad {
            inner,
            calls: Cell::new(0),
            counts,
        }
    }
}

impl LoadPattern for CountingLoad {
    fn load_at(&self, t: f64) -> f64 {
        self.calls.set(self.calls.get() + 1);
        self.inner.load_at(t)
    }
    fn duration(&self) -> f64 {
        self.inner.duration()
    }
}

impl Drop for CountingLoad {
    fn drop(&mut self) {
        Counts::add(&self.counts.load_calls, self.calls.get());
    }
}

/// A [`FileStore`] whose `record` calls are timed.
#[derive(Debug)]
pub struct ProbedStore {
    inner: FileStore,
    /// `(start, end)` of every `record` call, in call order.
    pub records: Vec<(Instant, Instant)>,
}

impl ProbedStore {
    /// Wraps an open store.
    pub fn new(inner: FileStore) -> Self {
        ProbedStore {
            inner,
            records: Vec::new(),
        }
    }
}

impl SweepStore for ProbedStore {
    fn completed_indices(&self) -> Vec<u64> {
        self.inner.completed_indices()
    }
    fn quarantined(&self) -> Vec<QuarantineRecord> {
        self.inner.quarantined()
    }
    fn fetch(&self, index: u64) -> Option<SweepRecord> {
        self.inner.fetch(index)
    }
    fn record(&mut self, record: &SweepRecord) -> Result<(), StoreError> {
        let start = Instant::now();
        let result = self.inner.record(record);
        self.records.push((start, Instant::now()));
        result
    }
    fn record_quarantine(&mut self, q: &QuarantineRecord) -> Result<(), StoreError> {
        self.inner.record_quarantine(q)
    }
}
