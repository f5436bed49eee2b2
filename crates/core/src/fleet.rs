//! Multi-machine experiment execution: a [`Fleet`] runs many
//! [`ScenarioSpec`]s across OS threads — one simulated machine per
//! scenario — and yields their outcomes in declaration order.
//!
//! Scheduling is **work-stealing**: every worker claims the next
//! unstarted scenario, in declaration order, from one mutex-guarded job
//! queue the moment it goes idle, so heterogeneous fleets (a fig.
//! 2/3-style heatmap mixes cheap low-load cells with expensive
//! near-saturation ones) keep all cores busy to the end instead of
//! leaving them idle behind the slowest statically assigned shard.
//! Workers send each result to the calling thread, which journals,
//! reorders and reports it; with one worker every scenario runs on the
//! calling thread and nothing is spawned. [`run_tasks`] runs any named
//! closures through the same loop. Results stream back to the caller *as
//! scenarios complete*: [`Fleet::run_each`] folds outcomes in declaration
//! order through a callback (holding only out-of-order stragglers in a
//! reorder buffer), and [`Fleet::run`] is the collect-everything
//! convenience on top.
//!
//! Determinism is the contract: every scenario owns its own engine and
//! seed, so a fleet run is byte-identical to running the same specs one by
//! one (the determinism regression test in `tests/` pins this). Scenarios
//! without a pinned seed get a *split seed* derived from the fleet's base
//! seed and their index ([`split_seed`]), so one `base` reproduces a whole
//! sweep.
//!
//! Sweeps can be made **durable**: [`Fleet::resume`] runs against a
//! [`SweepStore`](crate::store::SweepStore) — every finished scenario is
//! journaled as it completes under work-stealing, completed cells found in
//! the store are restored instead of re-run, and because seeds are split
//! per declaration index the merged output is byte-identical to an
//! uninterrupted run. Panicking scenarios can be *quarantined* into the
//! store ([`PanicPolicy::Quarantine`]) instead of failing the sweep; the
//! surviving cells are unaffected.
//!
//! # Example
//!
//! ```
//! use hipster_core::{Fleet, ScenarioSpec, StaticPolicy};
//! use hipster_platform::Platform;
//! use hipster_workloads::{memcached, Constant};
//!
//! let fleet: Fleet = [0.3, 0.6]
//!     .into_iter()
//!     .map(|load| {
//!         ScenarioSpec::new(format!("load-{load}"), Platform::juno_r1())
//!             .workload_with(|| Box::new(memcached()))
//!             .load(Constant::new(load, 30.0))
//!             .policy(|p: &Platform, _| {
//!                 Box::new(StaticPolicy::all_big(p)) as Box<dyn hipster_core::Policy>
//!             })
//!             .intervals(30)
//!     })
//!     .collect();
//! let outcomes = fleet.run().expect("valid fleet");
//! assert_eq!(outcomes.len(), 2);
//! assert_eq!(outcomes[0].name, "load-0.3"); // declaration order
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Instant;

use hipster_sim::host_cores;

use crate::scenario::{ScenarioError, ScenarioOutcome, ScenarioSpec};
use crate::store::{QuarantineRecord, StoreError, SweepRecord, SweepStore};

/// Derives a scenario's seed from a fleet-level base seed and the
/// scenario's **declaration index** in the fleet (scenarios with pinned
/// seeds keep them, but still occupy their index — so reordering or
/// inserting scenarios changes the seeds of later unseeded ones).
///
/// SplitMix64 over `base` and `index` — the standard way to expand one
/// seed into decorrelated streams (it is also how
/// [`SimRng`](hipster_sim::SimRng) expands its own state). Deterministic
/// across platforms and runs.
pub fn split_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Why a [`Fleet`] refused to run or failed mid-run.
#[derive(Debug)]
pub enum FleetError {
    /// The fleet contains no scenarios.
    Empty,
    /// A scenario failed validation before anything ran.
    InvalidScenario {
        /// Position of the offending scenario.
        index: usize,
        /// Its name.
        name: String,
        /// What was wrong with it.
        error: ScenarioError,
    },
    /// A scenario panicked on its worker thread (e.g. a policy returned a
    /// configuration the platform rejects).
    ScenarioPanicked {
        /// Position of the offending scenario.
        index: usize,
        /// Its name.
        name: String,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The [`SweepStore`] failed while recording a finished scenario —
    /// the sweep stops rather than silently losing durability.
    Store(StoreError),
    /// A resumed store does not belong to this fleet: a recorded cell's
    /// index, name or seed disagrees with the declared scenarios.
    StoreMismatch {
        /// Declaration index of the disputed cell.
        index: u64,
        /// What disagreed.
        detail: String,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Empty => f.write_str("fleet has no scenarios"),
            FleetError::InvalidScenario { index, name, error } => {
                write!(f, "scenario #{index} ({name:?}) is invalid: {error}")
            }
            FleetError::ScenarioPanicked {
                index,
                name,
                message,
            } => {
                write!(f, "scenario #{index} ({name:?}) panicked: {message}")
            }
            FleetError::Store(e) => write!(f, "sweep store failed: {e}"),
            FleetError::StoreMismatch { index, detail } => {
                write!(f, "store cell #{index} does not match this fleet: {detail}")
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::InvalidScenario { error, .. } => Some(error),
            FleetError::Store(error) => Some(error),
            _ => None,
        }
    }
}

/// What a [`Fleet`] does when a scenario panics mid-sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PanicPolicy {
    /// Stop the sweep and report the first (lowest-index) panic as
    /// [`FleetError::ScenarioPanicked`] — the historical behaviour, and
    /// still the default.
    #[default]
    FailFast,
    /// Capture the panic as a [`QuarantineRecord`] (scenario index, seed,
    /// panic message), skip that cell, and keep the sweep running. With a
    /// store attached the record is durable; resumed runs skip
    /// quarantined cells unless [`Fleet::retry_quarantined`] is set.
    Quarantine,
}

/// Execution statistics of one fleet run — how well the scheduler kept
/// its workers fed.
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// Worker threads the run used.
    pub workers: usize,
    /// Scenarios actually executed this run (or claimed before a failure
    /// stopped it) — cells restored from a store are *not* counted here.
    pub scenarios: usize,
    /// Cells restored from an attached [`SweepStore`](crate::SweepStore)
    /// instead of re-run. Always 0 without a store.
    pub resumed: usize,
    /// Cells skipped because a previous run quarantined them and
    /// [`Fleet::retry_quarantined`] was off. Always 0 without a store.
    pub skipped: usize,
    /// Cells that panicked *this run* and were quarantined under
    /// [`PanicPolicy::Quarantine`].
    pub quarantined: usize,
    /// Wall-clock seconds the whole run took, from first claim to last
    /// worker exit.
    pub wall_s: f64,
    /// Wall-clock seconds each worker spent *running scenarios* (the
    /// rest of its lifetime is scheduler idle tail).
    pub worker_busy_s: Vec<f64>,
    /// When each worker ran out of work, in seconds since the run
    /// started. A well-fed schedule finishes its workers together; a
    /// static partition strands early finishers while the straggler
    /// shard drains.
    pub worker_finish_s: Vec<f64>,
}

impl FleetStats {
    /// Total busy seconds across all workers.
    pub fn busy_total_s(&self) -> f64 {
        self.worker_busy_s.iter().sum()
    }

    /// Sweep throughput: scenarios completed per wall-clock second.
    /// 0 when the run was too fast to time (or ran nothing).
    pub fn scenarios_per_sec(&self) -> f64 {
        if self.wall_s <= 0.0 {
            return 0.0;
        }
        self.scenarios as f64 / self.wall_s
    }

    /// The fraction of `workers × wall_s` spent idle. 0 means every
    /// worker was busy until the run ended. Note this compares *thread*
    /// busy spans to wall time, so it is only meaningful when each
    /// worker has a core to itself.
    pub fn idle_frac(&self, wall_s: f64) -> f64 {
        let capacity = self.workers as f64 * wall_s;
        if capacity <= 0.0 {
            return 0.0;
        }
        (1.0 - self.busy_total_s() / capacity).max(0.0)
    }

    /// The straggler tail as finish-time spread: `1 − mean(finish) /
    /// max(finish)` over [`FleetStats::worker_finish_s`]. 0 means every
    /// worker ran out of work at the same moment; large values mean most
    /// workers sat idle while the last shard drained. Unlike
    /// [`FleetStats::idle_frac`] this stays meaningful when workers
    /// time-share cores (CI boxes, laptops), because it only compares
    /// the workers' finish *instants*.
    pub fn idle_tail_frac(&self) -> f64 {
        let last = self.worker_finish_s.iter().copied().fold(0.0_f64, f64::max);
        if last <= 0.0 || self.worker_finish_s.is_empty() {
            return 0.0;
        }
        let mean = self.worker_finish_s.iter().sum::<f64>() / self.worker_finish_s.len() as f64;
        (1.0 - mean / last).max(0.0)
    }
}

/// A set of scenarios executed in parallel across OS threads.
pub struct Fleet {
    scenarios: Vec<ScenarioSpec>,
    threads: usize,
    base_seed: u64,
    panic_policy: PanicPolicy,
    retry_quarantined: bool,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("scenarios", &self.scenarios.len())
            .field("threads", &self.threads)
            .field("base_seed", &self.base_seed)
            .field("panic_policy", &self.panic_policy)
            .field("retry_quarantined", &self.retry_quarantined)
            .finish()
    }
}

impl Default for Fleet {
    fn default() -> Self {
        Fleet::new()
    }
}

impl FromIterator<ScenarioSpec> for Fleet {
    fn from_iter<T: IntoIterator<Item = ScenarioSpec>>(iter: T) -> Self {
        let mut fleet = Fleet::new();
        for spec in iter {
            fleet.push(spec);
        }
        fleet
    }
}

impl Fleet {
    /// An empty fleet (threads default to the machine's parallelism).
    pub fn new() -> Self {
        Fleet {
            scenarios: Vec::new(),
            threads: 0,
            base_seed: 0,
            panic_policy: PanicPolicy::FailFast,
            retry_quarantined: false,
        }
    }

    /// Adds a scenario (builder style).
    pub fn scenario(mut self, spec: ScenarioSpec) -> Self {
        self.push(spec);
        self
    }

    /// Adds a scenario.
    pub fn push(&mut self, spec: ScenarioSpec) {
        self.scenarios.push(spec);
    }

    /// Caps the worker-thread count (0 = one per available core).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Sets the base seed from which unseeded scenarios get their
    /// [`split_seed`]. Scenarios with a pinned seed are unaffected.
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Sets what happens when a scenario panics mid-sweep (default:
    /// [`PanicPolicy::FailFast`]).
    pub fn panic_policy(mut self, policy: PanicPolicy) -> Self {
        self.panic_policy = policy;
        self
    }

    /// When resuming from a store, re-run cells a previous run
    /// quarantined instead of skipping them (default: off — a cell that
    /// panicked once will deterministically panic again unless the code
    /// under test changed).
    pub fn retry_quarantined(mut self, retry: bool) -> Self {
        self.retry_quarantined = retry;
        self
    }

    /// Number of scenarios queued.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the fleet is empty (an empty fleet refuses to run).
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Validates every scenario and assigns split seeds, returning the
    /// ready-to-run specs. All validation happens before any simulation
    /// starts: an invalid scenario anywhere in the fleet means nothing
    /// runs.
    fn prepare(mut self) -> Result<Vec<ScenarioSpec>, FleetError> {
        if self.scenarios.is_empty() {
            return Err(FleetError::Empty);
        }
        for (index, spec) in self.scenarios.iter().enumerate() {
            spec.validate()
                .map_err(|error| FleetError::InvalidScenario {
                    index,
                    name: spec.name().to_owned(),
                    error,
                })?;
        }
        for (index, spec) in self.scenarios.iter_mut().enumerate() {
            spec.assign_seed_if_unset(split_seed(self.base_seed, index as u64));
        }
        Ok(self.scenarios)
    }

    /// Executes the fleet across worker threads and collects every outcome
    /// **in declaration order** regardless of which thread finished first.
    ///
    /// Equivalent to [`Fleet::run_each`] pushing into a `Vec` — use
    /// `run_each` when the fleet is large and outcomes can be reduced on
    /// the fly instead of buffered whole.
    pub fn run(self) -> Result<Vec<ScenarioOutcome>, FleetError> {
        let mut outcomes = Vec::with_capacity(self.len());
        self.run_each(|outcome| outcomes.push(outcome))?;
        Ok(outcomes)
    }

    /// Runs the fleet against a durable [`SweepStore`] and collects the
    /// outcomes **in declaration order**: cells already completed in the
    /// store are restored without re-running, the remainder execute under
    /// work-stealing and are journaled the moment each arrives
    /// (completion order, each durable before the sweep moves on), and
    /// the merged result is byte-identical to an uninterrupted
    /// [`Fleet::run`].
    ///
    /// On a fresh (empty) store this is simply a fully-journaled sweep,
    /// so the same call works for the first attempt and every resume —
    /// kill the process at any cell, call `resume` again, and only the
    /// missing cells re-run. Cells a previous run quarantined are skipped
    /// (see [`Fleet::retry_quarantined`]); skipped and currently
    /// quarantined cells simply do not appear in the returned vector.
    ///
    /// Fails with [`FleetError::StoreMismatch`] if the store's recorded
    /// cells disagree with this fleet's names or seeds — resuming a sweep
    /// against the wrong store would silently splice unrelated results.
    pub fn resume(
        self,
        store: &mut dyn SweepStore,
    ) -> Result<(Vec<ScenarioOutcome>, FleetStats), FleetError> {
        let mut outcomes = Vec::with_capacity(self.len());
        let stats = self.run_each_inner(Some(store), |outcome| outcomes.push(outcome))?;
        Ok((outcomes, stats))
    }

    /// Executes the fleet, streaming each [`ScenarioOutcome`] to `fold`
    /// **in declaration order** as soon as it (and everything before it)
    /// has completed. Only out-of-order stragglers are buffered, so a
    /// thousand-scenario sweep that reduces each outcome to a summary row
    /// never holds a thousand traces in memory.
    ///
    /// Failure semantics match [`Fleet::run`]: the first (lowest-index)
    /// panic or error is reported, no worker claims a new scenario once
    /// a failure has come back, and no outcome at or after the failing
    /// index is delivered. Outcomes *before* the failing index may already
    /// have been folded when the error returns — a streaming API cannot
    /// take them back.
    pub fn run_each<F>(self, fold: F) -> Result<FleetStats, FleetError>
    where
        F: FnMut(ScenarioOutcome),
    {
        self.run_each_inner(None, fold)
    }

    /// The sweep behind [`Fleet::run_each`] and [`Fleet::resume`]:
    /// reconciles the optional store with the declared scenarios, then
    /// hands the remainder to [`steal`], whose sink journals each fresh
    /// completion, quarantines or reports panics, and folds outcomes in
    /// declaration order.
    fn run_each_inner<F>(
        self,
        mut store: Option<&mut dyn SweepStore>,
        mut fold: F,
    ) -> Result<FleetStats, FleetError>
    where
        F: FnMut(ScenarioOutcome),
    {
        let panic_policy = self.panic_policy;
        let retry_quarantined = self.retry_quarantined;
        let threads = self.threads;
        let specs = self.prepare()?;

        // Reconcile the store with this fleet: every recorded cell must
        // name-and-seed-match the scenario at its index, or the caller is
        // resuming against the wrong store. Restored outcomes and skipped
        // quarantine holes preseed the reorder buffer that turns
        // completion order into declaration order.
        let mut pending: BTreeMap<usize, Option<ScenarioOutcome>> = BTreeMap::new();
        if let Some(store) = store.as_deref_mut() {
            for index in store.completed_indices() {
                let rec = store.fetch(index).expect("listed index is retrievable");
                let i = check_cell(index, &rec.name, rec.seed, &specs)?;
                pending.insert(i, Some(rec.into_outcome()));
            }
            for q in store.quarantined() {
                let i = check_cell(q.index, &q.name, q.seed, &specs)?;
                if !retry_quarantined {
                    pending.entry(i).or_insert(None);
                }
            }
        }
        let resumed = pending.values().filter(|cell| cell.is_some()).count();
        let skipped = pending.len() - resumed;

        // Each job keeps its declaration index, name and seed so a fresh
        // completion can be journaled and a panic quarantined.
        let jobs: Vec<(usize, String, u64, ScenarioSpec)> = specs
            .into_iter()
            .enumerate()
            .filter(|(index, _)| !pending.contains_key(index))
            .map(|(index, spec)| {
                let name = spec.name().to_owned();
                let seed = spec.seed_value().expect("prepare assigned every seed");
                (index, name, seed, spec)
            })
            .collect();
        let workers = resolve_workers(threads, jobs.len());

        let mut next = 0usize;
        let mut drain = |pending: &mut BTreeMap<usize, Option<ScenarioOutcome>>| {
            while let Some(cell) = pending.remove(&next) {
                if let Some(outcome) = cell {
                    fold(outcome);
                }
                next += 1;
            }
        };
        drain(&mut pending);
        let mut quarantined = 0usize;
        let mut failure: Option<FleetError> = None;
        let stats = steal(
            jobs.into_iter(),
            workers,
            |(index, name, seed, spec)| (index, name, seed, run_caught(spec)),
            |(index, name, seed, outcome)| {
                if matches!(failure, Some(FleetError::Store(_))) {
                    return false; // the run is already lost
                }
                // A fresh completion is journaled the moment it arrives,
                // so a kill right after loses nothing.
                let stored = match outcome {
                    Ok(outcome) => {
                        let stored = store.as_deref_mut().map_or(Ok(()), |s| {
                            s.record(&SweepRecord::from_outcome(index as u64, &outcome))
                        });
                        pending.insert(index, Some(outcome));
                        stored
                    }
                    Err(message) if panic_policy == PanicPolicy::Quarantine => {
                        quarantined += 1;
                        pending.insert(index, None);
                        let q = QuarantineRecord {
                            index: index as u64,
                            name,
                            seed,
                            message,
                        };
                        store
                            .as_deref_mut()
                            .map_or(Ok(()), |s| s.record_quarantine(&q))
                    }
                    Err(message) => {
                        // Fail fast, reporting the lowest failing index:
                        // jobs claimed before the stop may still panic.
                        match failure {
                            Some(FleetError::ScenarioPanicked { index: lowest, .. })
                                if lowest < index => {}
                            _ => {
                                failure = Some(FleetError::ScenarioPanicked {
                                    index,
                                    name,
                                    message,
                                })
                            }
                        }
                        return false;
                    }
                };
                match stored {
                    Ok(()) => {
                        drain(&mut pending);
                        failure.is_none()
                    }
                    Err(e) => {
                        failure = Some(FleetError::Store(e));
                        false
                    }
                }
            },
        );
        match failure {
            Some(e) => Err(e),
            None => Ok(FleetStats {
                resumed,
                skipped,
                quarantined,
                ..stats
            }),
        }
    }
}

/// The claim-run-report loop behind [`Fleet`] and [`run_tasks`]: runs
/// `work` on every job and hands each result to `sink` on the calling
/// thread.
///
/// With one worker, every job runs on the calling thread, in order, and
/// nothing is spawned. With more, `workers` scoped threads claim jobs
/// from one mutex-guarded iterator — in iterator order, each the moment
/// its claimant goes idle — and send each result back. Once `sink`
/// returns `false`, no worker claims another job; results of jobs
/// already claimed still reach `sink`, so a lower-index failure that
/// finishes late is not lost.
fn steal<J, R>(
    jobs: impl Iterator<Item = J> + Send,
    workers: usize,
    work: impl Fn(J) -> R + Sync,
    mut sink: impl FnMut(R) -> bool,
) -> FleetStats
where
    R: Send,
{
    let started = Instant::now();
    let timed = |job: J| {
        let t = Instant::now();
        let result = work(job);
        (result, t.elapsed().as_secs_f64())
    };
    let mut scenarios = 0usize;
    // Per worker: seconds spent in `work`, and when it ran out of jobs.
    let spans: Vec<(f64, f64)> = if workers <= 1 {
        let mut busy = 0.0f64;
        for job in jobs {
            let (result, secs) = timed(job);
            busy += secs;
            scenarios += 1;
            if !sink(result) {
                break;
            }
        }
        vec![(busy, started.elapsed().as_secs_f64())]
    } else {
        let jobs = Mutex::new(jobs);
        let claim = || jobs.lock().expect("job queue poisoned").next();
        let stop = AtomicBool::new(false);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let (claim, stop, timed) = (&claim, &stop, &timed);
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let tx = tx.clone();
                    scope.spawn(move || {
                        let mut busy = 0.0f64;
                        while !stop.load(Ordering::Relaxed) {
                            let Some(job) = claim() else { break };
                            let (result, secs) = timed(job);
                            busy += secs;
                            if tx.send(result).is_err() {
                                break;
                            }
                        }
                        (busy, started.elapsed().as_secs_f64())
                    })
                })
                .collect();
            drop(tx);
            for result in rx {
                scenarios += 1;
                if !sink(result) {
                    stop.store(true, Ordering::Relaxed);
                }
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("jobs catch their own panics"))
                .collect()
        })
    };
    let (worker_busy_s, worker_finish_s): (Vec<f64>, Vec<f64>) = spans.into_iter().unzip();
    FleetStats {
        workers: worker_busy_s.len(),
        scenarios,
        resumed: 0,
        skipped: 0,
        quarantined: 0,
        wall_s: started.elapsed().as_secs_f64(),
        worker_busy_s,
        worker_finish_s,
    }
}

/// Resolves a thread-count request against the number of runnable jobs
/// (0 = one worker per available core; always at least one worker).
fn resolve_workers(threads: usize, jobs: usize) -> usize {
    let workers = if threads == 0 { host_cores() } else { threads };
    workers.min(jobs).max(1)
}

/// Checks a store record against the declared scenario at its index —
/// the index must be in range and the name and seed must match — and
/// returns the index.
fn check_cell(
    index: u64,
    name: &str,
    seed: u64,
    specs: &[ScenarioSpec],
) -> Result<usize, FleetError> {
    let mismatch = |detail| FleetError::StoreMismatch { index, detail };
    let n = specs.len();
    let i = usize::try_from(index).unwrap_or(usize::MAX);
    let spec = specs
        .get(i)
        .ok_or_else(|| mismatch(format!("the fleet declares only {n} scenarios")))?;
    if name != spec.name() {
        return Err(mismatch(format!(
            "store recorded scenario {:?}, the fleet declares {:?}",
            name,
            spec.name()
        )));
    }
    let expected = spec.seed_value().expect("prepare assigned every seed");
    if seed != expected {
        return Err(mismatch(format!(
            "store recorded seed {seed}, the fleet derives {expected}"
        )));
    }
    Ok(i)
}

/// Runs one spec with panic capture, flattening panics and validation
/// errors into a message.
fn run_caught(spec: ScenarioSpec) -> Result<ScenarioOutcome, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| spec.run()))
        .map_err(|payload| panic_message(payload.as_ref()))
        .and_then(|r| r.map_err(|e| e.to_string()))
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// The Fleet's work-stealing scheduler generalized over *any* named
/// task — the entry point cluster sweeps use, since a cluster run is not
/// a [`ScenarioSpec`]. Tasks are claimed in index order by the same
/// scheduler as [`Fleet::run_each`], results come back **in declaration
/// order**, and the first (lowest-index) panic wins with the same
/// fail-fast semantics. `threads == 0` means one worker per available
/// core; `threads == 1` runs serially on the calling thread.
///
/// Determinism is the caller's contract: a task must not depend on which
/// worker runs it or when — then `run_tasks(tasks, 1)` and
/// `run_tasks(tasks, 32)` return identical results.
///
/// # Example
///
/// ```
/// use hipster_core::run_tasks;
///
/// let tasks: Vec<(String, _)> = (0..8)
///     .map(|i| (format!("square-{i}"), move || i * i))
///     .collect();
/// let (results, stats) = run_tasks(tasks, 0).unwrap();
/// assert_eq!(results, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// assert_eq!(stats.scenarios, 8);
/// ```
pub fn run_tasks<T, F>(
    tasks: Vec<(String, F)>,
    threads: usize,
) -> Result<(Vec<T>, FleetStats), FleetError>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    if tasks.is_empty() {
        return Err(FleetError::Empty);
    }
    let n = tasks.len();
    let mut slots: Vec<Option<Result<T, FleetError>>> = (0..n).map(|_| None).collect();
    let stats = steal(
        tasks.into_iter().enumerate(),
        resolve_workers(threads, n),
        |(index, (name, task))| {
            let result =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)).map_err(|payload| {
                    FleetError::ScenarioPanicked {
                        index,
                        name,
                        message: panic_message(payload.as_ref()),
                    }
                });
            (index, result)
        },
        |(index, result)| {
            let ok = result.is_ok();
            slots[index] = Some(result);
            ok
        },
    );
    // Report the lowest-index failure; slots left unclaimed after the
    // stop can sit on either side of it.
    let results = slots.into_iter().flatten().collect::<Result<Vec<T>, _>>()?;
    Ok((results, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::StaticPolicy;
    use crate::policy::Policy;
    use hipster_platform::{CoreKind, Frequency, Platform};
    use hipster_sim::{Demand, LcModel, LoadPattern, QosTarget, SimRng};

    #[derive(Debug)]
    struct Toy;
    impl LcModel for Toy {
        fn name(&self) -> &str {
            "toy"
        }
        fn max_load_rps(&self) -> f64 {
            100.0
        }
        fn qos(&self) -> QosTarget {
            QosTarget::new(0.95, 0.010)
        }
        fn sample_demand(&self, _rng: &mut SimRng) -> Demand {
            Demand::new(1.0, 0.0)
        }
        fn service_speed(&self, kind: CoreKind, _f: Frequency) -> f64 {
            match kind {
                CoreKind::Big => 1000.0,
                CoreKind::Small => 400.0,
            }
        }
    }

    #[derive(Debug, Clone)]
    struct Half;
    impl LoadPattern for Half {
        fn load_at(&self, _t: f64) -> f64 {
            0.5
        }
        fn duration(&self) -> f64 {
            10.0
        }
    }

    fn spec(name: &str) -> ScenarioSpec {
        ScenarioSpec::new(name, Platform::juno_r1())
            .workload_with(|| Box::new(Toy))
            .load(Half)
            .policy(|p: &Platform, _| Box::new(StaticPolicy::all_big(p)) as Box<dyn Policy>)
            .intervals(4)
    }

    #[test]
    fn empty_fleet_is_a_typed_error() {
        assert!(matches!(Fleet::new().run(), Err(FleetError::Empty)));
    }

    #[test]
    fn invalid_scenario_stops_the_whole_fleet() {
        let err = Fleet::new()
            .scenario(spec("ok"))
            .scenario(spec("broken").intervals(0))
            .run()
            .unwrap_err();
        match err {
            FleetError::InvalidScenario { index, name, error } => {
                assert_eq!(index, 1);
                assert_eq!(name, "broken");
                assert_eq!(error, ScenarioError::ZeroIntervals);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn outcomes_come_back_in_declaration_order() {
        let names: Vec<String> = (0..8).map(|i| format!("s{i}")).collect();
        let fleet: Fleet = names.iter().map(|n| spec(n)).collect();
        let outcomes = fleet.threads(4).run().expect("valid");
        let got: Vec<&str> = outcomes.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(got, names.iter().map(String::as_str).collect::<Vec<_>>());
    }

    #[test]
    fn run_each_streams_in_declaration_order() {
        let names: Vec<String> = (0..10).map(|i| format!("s{i}")).collect();
        let fleet: Fleet = names.iter().map(|n| spec(n)).collect();
        let mut seen = Vec::new();
        let stats = fleet
            .threads(3)
            .run_each(|o| seen.push(o.name))
            .expect("valid");
        assert_eq!(seen, names);
        assert_eq!(stats.workers, 3);
        assert_eq!(stats.scenarios, 10);
        assert_eq!(stats.worker_busy_s.len(), 3);
        assert!(stats.busy_total_s() > 0.0);
    }

    #[test]
    fn stats_idle_fraction_is_sane() {
        let stats = FleetStats {
            workers: 2,
            scenarios: 4,
            resumed: 0,
            skipped: 0,
            quarantined: 0,
            wall_s: 1.0,
            worker_busy_s: vec![1.0, 0.5],
            worker_finish_s: vec![1.0, 0.5],
        };
        assert!((stats.busy_total_s() - 1.5).abs() < 1e-12);
        assert!((stats.idle_frac(1.0) - 0.25).abs() < 1e-12);
        // Measurement jitter cannot drive it negative.
        assert_eq!(stats.idle_frac(0.5), 0.0);
        // Finish-time spread: mean 0.75 over max 1.0 → 25% tail.
        assert!((stats.idle_tail_frac() - 0.25).abs() < 1e-12);
        let even = FleetStats {
            workers: 2,
            scenarios: 4,
            resumed: 0,
            skipped: 0,
            quarantined: 0,
            wall_s: 1.0,
            worker_busy_s: vec![1.0, 1.0],
            worker_finish_s: vec![1.0, 1.0],
        };
        assert_eq!(even.idle_tail_frac(), 0.0);
        assert_eq!(even.scenarios_per_sec(), 4.0);
    }

    #[test]
    fn run_tasks_is_order_stable_and_captures_panics() {
        let make =
            || -> Vec<(String, _)> { (0..40).map(|i| (format!("t{i}"), move || i * 3)).collect() };
        let (serial, s1) = run_tasks(make(), 1).expect("serial");
        let (stolen, s4) = run_tasks(make(), 4).expect("threaded");
        assert_eq!(serial, stolen);
        assert_eq!(serial[7], 21);
        assert_eq!((s1.workers, s4.workers), (1, 4));
        assert_eq!(s4.scenarios, 40);
        assert!(s4.wall_s >= 0.0 && s4.scenarios_per_sec() >= 0.0);

        let tasks: Vec<(String, Box<dyn FnOnce() -> usize + Send>)> = vec![
            ("fine".into(), Box::new(|| 1)),
            ("boom".into(), Box::new(|| panic!("task exploded"))),
        ];
        match run_tasks(tasks, 2) {
            Err(FleetError::ScenarioPanicked {
                index,
                name,
                message,
            }) => {
                assert_eq!((index, name.as_str()), (1, "boom"));
                assert!(message.contains("task exploded"));
            }
            other => panic!("expected panic error, got {other:?}"),
        }
        // Jobs are claimed in index order, so task 3 has started before
        // task 7's panic can stop the claims: the lowest index is reported.
        for threads in [1, 4] {
            let tasks: Vec<(String, _)> = (0..12)
                .map(|i| {
                    (format!("t{i}"), move || {
                        assert!(i != 3 && i != 7, "task {i} exploded");
                        i
                    })
                })
                .collect();
            let err = run_tasks(tasks, threads).expect_err("tasks 3 and 7 panic");
            assert!(
                matches!(err, FleetError::ScenarioPanicked { index: 3, .. }),
                "{threads} workers: {err}"
            );
        }
        assert!(matches!(
            run_tasks(Vec::<(String, fn() -> u8)>::new(), 2),
            Err(FleetError::Empty)
        ));
    }

    #[test]
    fn split_seeds_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..16).map(|i| split_seed(7, i)).collect();
        let b: Vec<u64> = (0..16).map(|i| split_seed(7, i)).collect();
        assert_eq!(a, b);
        let unique: std::collections::HashSet<u64> = a.iter().copied().collect();
        assert_eq!(unique.len(), a.len());
        assert_ne!(split_seed(7, 0), split_seed(8, 0));
    }

    #[test]
    fn unseeded_scenarios_get_split_seeds_pinned_ones_keep_theirs() {
        let outcomes = Fleet::new()
            .scenario(spec("auto"))
            .scenario(spec("pinned").seed(99))
            .base_seed(7)
            .run()
            .expect("valid");
        assert_eq!(outcomes[0].seed, split_seed(7, 0));
        assert_eq!(outcomes[1].seed, 99);
    }

    #[test]
    fn panicking_scenario_reported_not_propagated() {
        #[derive(Debug)]
        struct Bomb;
        impl Policy for Bomb {
            fn name(&self) -> &str {
                "bomb"
            }
            fn decide(&mut self, _obs: &crate::Observation) -> hipster_platform::CoreConfig {
                panic!("boom");
            }
        }
        let err = Fleet::new()
            .scenario(spec("fine"))
            .scenario(spec("bomb").policy(|_: &Platform, _| Box::new(Bomb) as Box<dyn Policy>))
            .run()
            .unwrap_err();
        match err {
            FleetError::ScenarioPanicked { index, message, .. } => {
                assert_eq!(index, 1);
                assert!(message.contains("boom"), "{message}");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    /// A comparable projection of a sweep's full output.
    fn sweep_digest(outcomes: &[ScenarioOutcome]) -> Vec<(String, u64, String, String)> {
        outcomes
            .iter()
            .map(|o| {
                (
                    o.name.clone(),
                    o.seed,
                    o.trace.to_csv(),
                    format!("{:?}", o.summary),
                )
            })
            .collect()
    }

    fn fleet_of(n: usize) -> Fleet {
        (0..n).map(|i| spec(&format!("s{i}"))).collect::<Fleet>()
    }

    #[test]
    fn resume_restores_completed_cells_byte_identically() {
        use crate::store::MemStore;
        let baseline = fleet_of(6).base_seed(11).run().expect("baseline");

        // "Crash" after three cells: run a prefix fleet into the store —
        // split seeds depend only on (base, index), so the prefix's
        // records are exactly what a killed full sweep would have left.
        let mut store = MemStore::new();
        let prefix: Fleet = (0..3).map(|i| spec(&format!("s{i}"))).collect();
        prefix.base_seed(11).resume(&mut store).expect("prefix run");
        assert_eq!(store.len(), 3);

        let (resumed, stats) = fleet_of(6)
            .base_seed(11)
            .threads(2)
            .resume(&mut store)
            .expect("resume");
        assert_eq!(sweep_digest(&resumed), sweep_digest(&baseline));
        assert_eq!((stats.resumed, stats.scenarios, stats.skipped), (3, 3, 0));

        // A second resume restores everything and runs nothing.
        let (again, stats) = fleet_of(6)
            .base_seed(11)
            .resume(&mut store)
            .expect("all restored");
        assert_eq!(sweep_digest(&again), sweep_digest(&baseline));
        assert_eq!((stats.resumed, stats.scenarios), (6, 0));
    }

    #[test]
    fn fresh_store_run_equals_plain_run() {
        use crate::store::MemStore;
        let plain = fleet_of(5).base_seed(3).run().expect("plain");
        let mut store = MemStore::new();
        let (stored, stats) = fleet_of(5)
            .base_seed(3)
            .threads(3)
            .resume(&mut store)
            .expect("stored");
        assert_eq!(sweep_digest(&stored), sweep_digest(&plain));
        assert_eq!((stats.resumed, stats.scenarios), (0, 5));
        assert_eq!(store.len(), 5);
    }

    #[test]
    fn wrong_store_is_a_typed_mismatch_not_a_splice() {
        use crate::store::MemStore;
        let mut store = MemStore::new();
        fleet_of(4)
            .base_seed(1)
            .resume(&mut store)
            .expect("populate");
        // Different base seed → different split seeds → mismatch.
        let err = fleet_of(4)
            .base_seed(2)
            .resume(&mut store)
            .expect_err("seed mismatch");
        assert!(matches!(err, FleetError::StoreMismatch { .. }), "{err}");

        let mut store = MemStore::new();
        fleet_of(4)
            .base_seed(1)
            .resume(&mut store)
            .expect("repopulate");
        // A smaller fleet cannot own cells beyond its length.
        let err = fleet_of(2)
            .base_seed(1)
            .resume(&mut store)
            .expect_err("index out of range");
        match err {
            FleetError::StoreMismatch { index, detail } => {
                assert_eq!(index, 2);
                assert!(detail.contains("2 scenarios"), "{detail}");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[derive(Debug)]
    struct Bomb;
    impl Policy for Bomb {
        fn name(&self) -> &str {
            "bomb"
        }
        fn decide(&mut self, _obs: &crate::Observation) -> hipster_platform::CoreConfig {
            panic!("quarantine me");
        }
    }

    #[test]
    fn quarantine_policy_keeps_survivors_identical() {
        use crate::store::{MemStore, SweepStore};
        // Pin every seed so the bomb-free control fleet sees the same
        // seeds at shifted indices.
        let survivors = |with_bomb: bool| -> Fleet {
            let mut fleet = Fleet::new();
            for i in 0..5 {
                if with_bomb && i == 2 {
                    fleet.push(
                        spec("bomb")
                            .policy(|_: &Platform, _| Box::new(Bomb) as Box<dyn Policy>)
                            .seed(1000),
                    );
                }
                fleet.push(spec(&format!("s{i}")).seed(2000 + i));
            }
            fleet
        };
        let control = survivors(false).run().expect("no bomb");
        for threads in [1, 3] {
            let mut store = MemStore::new();
            let (outcomes, stats) = survivors(true)
                .threads(threads)
                .panic_policy(PanicPolicy::Quarantine)
                .resume(&mut store)
                .expect("quarantine continues");
            assert_eq!(sweep_digest(&outcomes), sweep_digest(&control));
            assert_eq!(stats.quarantined, 1);
            let q = store.quarantined();
            assert_eq!(q.len(), 1);
            assert_eq!((q[0].index, q[0].seed), (2, 1000));
            assert!(q[0].message.contains("quarantine me"), "{}", q[0].message);

            // Resume skips the quarantined cell by default…
            let (again, stats) = survivors(true)
                .threads(threads)
                .panic_policy(PanicPolicy::Quarantine)
                .resume(&mut store)
                .expect("resume skips quarantined");
            assert_eq!(sweep_digest(&again), sweep_digest(&control));
            assert_eq!(
                (
                    stats.resumed,
                    stats.skipped,
                    stats.scenarios,
                    stats.quarantined
                ),
                (5, 1, 0, 0)
            );

            // …and re-runs (and re-quarantines) it when asked to retry.
            let (retried, stats) = survivors(true)
                .threads(threads)
                .panic_policy(PanicPolicy::Quarantine)
                .retry_quarantined(true)
                .resume(&mut store)
                .expect("retry re-quarantines");
            assert_eq!(sweep_digest(&retried), sweep_digest(&control));
            assert_eq!((stats.resumed, stats.skipped, stats.quarantined), (5, 0, 1));
        }
    }

    #[test]
    fn failfast_sweep_still_persists_completed_cells() {
        use crate::store::MemStore;
        // Under the default fail-fast policy a panic aborts the sweep,
        // but cells journaled before the failure survive for resume.
        let mut fleet = Fleet::new();
        for i in 0..3 {
            fleet.push(spec(&format!("s{i}")).seed(100 + i));
        }
        fleet.push(spec("bomb").policy(|_: &Platform, _| Box::new(Bomb) as Box<dyn Policy>));
        let mut store = MemStore::new();
        let err = fleet.threads(1).resume(&mut store).expect_err("fail fast");
        assert!(matches!(err, FleetError::ScenarioPanicked { index: 3, .. }));
        assert_eq!(store.len(), 3, "completed prefix is durable");
    }

    /// A [`MemStore`](crate::store::MemStore) whose `fail_at`-th `record`
    /// call (1-based) fails, as does every `record_quarantine` call.
    #[derive(Default)]
    struct FailingStore {
        inner: crate::store::MemStore,
        calls: usize,
        fail_at: usize,
    }

    fn disk_full() -> StoreError {
        StoreError::Io {
            context: "append journal".into(),
            source: std::io::Error::other("disk full"),
        }
    }

    impl SweepStore for FailingStore {
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
            self.calls += 1;
            if self.calls == self.fail_at {
                return Err(disk_full());
            }
            self.inner.record(record)
        }
        fn record_quarantine(&mut self, _: &QuarantineRecord) -> Result<(), StoreError> {
            Err(disk_full())
        }
    }

    #[test]
    fn failing_store_stops_the_sweep() {
        for threads in [1, 3] {
            let mut store = FailingStore {
                fail_at: 3,
                ..FailingStore::default()
            };
            let err = fleet_of(6)
                .threads(threads)
                .resume(&mut store)
                .expect_err("third record fails");
            assert!(matches!(err, FleetError::Store(_)), "{err}");
            assert_eq!(store.inner.len(), 2, "{threads} workers");
            assert_eq!(store.calls, 3, "no record after the failing one");

            // A panic the store cannot quarantine fails the sweep too.
            let mut fleet = fleet_of(3);
            fleet.push(spec("bomb").policy(|_: &Platform, _| Box::new(Bomb) as Box<dyn Policy>));
            let err = fleet
                .threads(threads)
                .panic_policy(PanicPolicy::Quarantine)
                .resume(&mut FailingStore::default())
                .expect_err("quarantine record fails");
            assert!(matches!(err, FleetError::Store(_)), "{err}");
        }
    }

    #[test]
    fn panicking_scenario_reported_across_worker_threads() {
        #[derive(Debug)]
        struct Bomb;
        impl Policy for Bomb {
            fn name(&self) -> &str {
                "bomb"
            }
            fn decide(&mut self, _obs: &crate::Observation) -> hipster_platform::CoreConfig {
                panic!("threaded boom");
            }
        }
        let mut fleet = Fleet::new();
        for i in 0..6 {
            fleet.push(spec(&format!("fine{i}")));
        }
        fleet.push(spec("bomb").policy(|_: &Platform, _| Box::new(Bomb) as Box<dyn Policy>));
        let err = fleet.threads(3).run().unwrap_err();
        match err {
            FleetError::ScenarioPanicked { index, message, .. } => {
                assert_eq!(index, 6);
                assert!(message.contains("threaded boom"), "{message}");
            }
            other => panic!("wrong error: {other}"),
        }
    }
}
