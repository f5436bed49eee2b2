//! Declarative experiment scenarios: one [`ScenarioSpec`] describes a
//! complete (platform × workload × load × policy) run — duration, seed,
//! collocation, engine knobs and telemetry sinks included — validates
//! itself with typed errors, and builds the `Engine`/[`Manager`] wiring
//! that experiment drivers used to duplicate by hand.
//!
//! A spec runs directly ([`ScenarioSpec::run`]) or as one member of a
//! [`Fleet`](crate::Fleet), which executes many scenarios across OS
//! threads. Construction is deterministic: the same spec produces a
//! byte-identical [`Trace`] on any thread.
//!
//! # Example
//!
//! ```
//! use hipster_core::{Hipster, ScenarioSpec};
//! use hipster_platform::Platform;
//! use hipster_workloads::{memcached, Diurnal};
//!
//! let outcome = ScenarioSpec::new("demo", Platform::juno_r1())
//!     .workload_with(|| Box::new(memcached()))
//!     .load(Diurnal::paper())
//!     .policy(|p: &Platform, seed| {
//!         Box::new(Hipster::interactive(p, seed).learning_intervals(30).build())
//!             as Box<dyn hipster_core::Policy>
//!     })
//!     .intervals(60)
//!     .seed(42)
//!     .run()
//!     .expect("valid scenario");
//! assert_eq!(outcome.trace.len(), 60);
//! assert_eq!(outcome.workload, "Memcached");
//! ```

use hipster_platform::Platform;
use hipster_sim::{
    BatchProgram, EngineSpec, EngineSpecError, FaultSpec, FaultSpecError, LcModel, LoadPattern,
    QosTarget, Trace,
};

use crate::manager::Manager;
use crate::metrics::PolicySummary;
use crate::policy::Policy;
use crate::telemetry::TelemetrySink;

/// Builds the policy of a scenario from the platform and the scenario's
/// seed. Closures of the right shape implement it, so
/// `|p: &Platform, seed| Box::new(…)` is a factory.
///
/// Factories (rather than pre-built [`Policy`] boxes) are what make a
/// scenario replayable: a [`Fleet`](crate::Fleet) can run the same spec on
/// any thread, and stochastic policies get their seed split from the
/// scenario's.
pub trait PolicyFactory: Send + Sync {
    /// Builds the policy for one run.
    fn build(&self, platform: &Platform, seed: u64) -> Box<dyn Policy>;
}

impl<F> PolicyFactory for F
where
    F: Fn(&Platform, u64) -> Box<dyn Policy> + Send + Sync,
{
    fn build(&self, platform: &Platform, seed: u64) -> Box<dyn Policy> {
        self(platform, seed)
    }
}

/// Why a [`ScenarioSpec`] failed validation. Every constructor error is
/// typed — specs never panic on bad input.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// No workload factory was supplied.
    MissingWorkload,
    /// No load-pattern factory was supplied.
    MissingLoad,
    /// No policy factory was supplied.
    MissingPolicy,
    /// The scenario would run for zero monitoring intervals.
    ZeroIntervals,
    /// Collocation is enabled but the batch pool is empty.
    CollocationWithoutBatch,
    /// A batch pool was supplied but collocation is disabled — the batch
    /// jobs would silently never run.
    BatchWithoutCollocation,
    /// An engine knob is invalid (interval length, jitter sigma).
    Engine(EngineSpecError),
    /// The fault-injection spec is invalid (negative rate, probability
    /// outside `[0, 1]`, slowdown below one, ...).
    Fault(FaultSpecError),
    /// A batch deadline was declared without a collocated batch tenant.
    DeadlineWithoutBatch,
    /// The batch deadline itself is malformed (zero tasks, non-positive
    /// work or deadline).
    InvalidDeadline {
        /// The rejected deadline description.
        deadline: BatchDeadline,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::MissingWorkload => f.write_str("scenario has no workload"),
            ScenarioError::MissingLoad => f.write_str("scenario has no load pattern"),
            ScenarioError::MissingPolicy => f.write_str("scenario has no policy"),
            ScenarioError::ZeroIntervals => {
                f.write_str("scenario must run for at least one interval")
            }
            ScenarioError::CollocationWithoutBatch => {
                f.write_str("collocated scenario has an empty batch pool")
            }
            ScenarioError::BatchWithoutCollocation => {
                f.write_str("batch programs supplied but collocation is disabled")
            }
            ScenarioError::Engine(e) => write!(f, "invalid engine configuration: {e}"),
            ScenarioError::Fault(e) => write!(f, "fault spec: {e}"),
            ScenarioError::DeadlineWithoutBatch => {
                f.write_str("batch deadline declared but the scenario is not collocated")
            }
            ScenarioError::InvalidDeadline { deadline } => {
                write!(f, "invalid batch deadline: {deadline:?}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Engine(e) => Some(e),
            ScenarioError::Fault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineSpecError> for ScenarioError {
    fn from(e: EngineSpecError) -> Self {
        ScenarioError::Engine(e)
    }
}

/// A deadline for the collocated batch tenant: a bag of `tasks` equal
/// tasks, each `instructions_per_task` instructions of work, all due by
/// `deadline_s` seconds into the run. Tasks drain sequentially from the
/// measured batch throughput; [`PolicySummary::deadline_miss_pct`]
/// reports the fraction finishing late (or never).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchDeadline {
    /// Number of equal tasks in the bag (≥ 1).
    pub tasks: usize,
    /// Work per task, instructions.
    pub instructions_per_task: f64,
    /// Completion deadline, seconds from the start of the run.
    pub deadline_s: f64,
}

impl BatchDeadline {
    /// A bag of `tasks` tasks of `instructions_per_task` instructions,
    /// all due at `deadline_s`.
    pub fn new(tasks: usize, instructions_per_task: f64, deadline_s: f64) -> Self {
        BatchDeadline {
            tasks,
            instructions_per_task,
            deadline_s,
        }
    }

    pub(crate) fn valid(&self) -> bool {
        self.tasks > 0
            && self.instructions_per_task.is_finite()
            && self.instructions_per_task > 0.0
            && self.deadline_s.is_finite()
            && self.deadline_s > 0.0
    }

    /// Fraction of the bag's tasks finishing after `deadline_s` (or not
    /// at all), given a run's measured batch throughput.
    pub fn miss_fraction(&self, trace: &Trace) -> f64 {
        let mut missed = 0usize;
        let mut completed_instr = 0.0f64;
        let mut next_task = 0usize;
        for iv in trace.intervals() {
            completed_instr += (iv.batch_ips_big + iv.batch_ips_small) * iv.duration_s;
            let end = iv.start_s + iv.duration_s;
            while next_task < self.tasks
                && completed_instr >= (next_task + 1) as f64 * self.instructions_per_task
            {
                if end > self.deadline_s {
                    missed += 1;
                }
                next_task += 1;
            }
        }
        // Tasks the run never finished are late by definition.
        missed += self.tasks - next_task;
        missed as f64 / self.tasks as f64
    }
}

type LcFactory = Box<dyn Fn() -> Box<dyn LcModel> + Send + Sync>;
type LoadFactory = Box<dyn Fn() -> Box<dyn LoadPattern> + Send + Sync>;
type BatchFactory = Box<dyn Fn() -> Box<dyn BatchProgram> + Send + Sync>;

/// A complete, self-validating description of one experiment run.
///
/// Chain setters, then [`ScenarioSpec::run`] (or hand the spec to a
/// [`Fleet`](crate::Fleet)). [`ScenarioSpec::validate`] reports problems
/// as [`ScenarioError`]s without running anything.
pub struct ScenarioSpec {
    name: String,
    platform: Platform,
    workload: Option<LcFactory>,
    load: Option<LoadFactory>,
    policy: Option<Box<dyn PolicyFactory>>,
    batch: Vec<BatchFactory>,
    collocate: bool,
    deadline: Option<BatchDeadline>,
    intervals: usize,
    seed: Option<u64>,
    engine: EngineSpec,
    sinks: Vec<Box<dyn TelemetrySink>>,
}

impl std::fmt::Debug for ScenarioSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioSpec")
            .field("name", &self.name)
            .field("collocate", &self.collocate)
            .field("batch_programs", &self.batch.len())
            .field("deadline", &self.deadline)
            .field("intervals", &self.intervals)
            .field("seed", &self.seed)
            .field("engine", &self.engine)
            .field("sinks", &self.sinks.len())
            .finish_non_exhaustive()
    }
}

impl ScenarioSpec {
    /// Starts an empty scenario named `name` on `platform`.
    pub fn new(name: impl Into<String>, platform: Platform) -> Self {
        ScenarioSpec {
            name: name.into(),
            platform,
            workload: None,
            load: None,
            policy: None,
            batch: Vec::new(),
            collocate: false,
            deadline: None,
            intervals: 0,
            seed: None,
            engine: EngineSpec::default(),
            sinks: Vec::new(),
        }
    }

    /// The scenario's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The seed, if one was pinned with [`ScenarioSpec::seed`].
    ///
    /// An unseeded scenario's effective seed depends on how it runs: a
    /// [`Fleet`](crate::Fleet) assigns it a
    /// [`split_seed`](crate::split_seed) from the fleet's base seed and
    /// the scenario's declaration index, while a direct
    /// [`ScenarioSpec::run`]/[`ScenarioSpec::build`] falls back to seed 0.
    /// Pin the seed when a run must reproduce identically on both paths.
    pub fn seed_value(&self) -> Option<u64> {
        self.seed
    }

    /// Sets the latency-critical workload via a factory.
    pub fn workload_with(
        mut self,
        f: impl Fn() -> Box<dyn LcModel> + Send + Sync + 'static,
    ) -> Self {
        self.workload = Some(Box::new(f));
        self
    }

    /// Sets the load pattern from a cloneable pattern value.
    pub fn load<P>(self, pattern: P) -> Self
    where
        P: LoadPattern + Clone + Send + Sync + 'static,
    {
        self.load_with(move || Box::new(pattern.clone()))
    }

    /// Sets the load pattern via a factory (for non-`Clone` patterns).
    pub fn load_with(
        mut self,
        f: impl Fn() -> Box<dyn LoadPattern> + Send + Sync + 'static,
    ) -> Self {
        self.load = Some(Box::new(f));
        self
    }

    /// Sets the policy factory.
    pub fn policy(mut self, factory: impl PolicyFactory + 'static) -> Self {
        self.policy = Some(Box::new(factory));
        self
    }

    /// Adds one batch program (factory) to the collocation pool.
    pub fn batch_with(
        mut self,
        f: impl Fn() -> Box<dyn BatchProgram> + Send + Sync + 'static,
    ) -> Self {
        self.batch.push(Box::new(f));
        self
    }

    /// Enables batch collocation (HipsterCo style).
    pub fn collocated(mut self) -> Self {
        self.collocate = true;
        self
    }

    /// Declares the collocated batch pool as a deadline-constrained bag
    /// of tasks; the run's summary then reports
    /// [`PolicySummary::deadline_miss_pct`]. Requires
    /// [`collocated`](Self::collocated).
    pub fn batch_deadline(mut self, deadline: BatchDeadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Injects machine faults — transient core revocations and straggler
    /// slowdowns per [`FaultSpec`] — into the engine, on a dedicated
    /// split-seeded stream. `FaultSpec::none()` (the default) leaves the
    /// run byte-identical to a fault-free scenario.
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.engine.faults = spec;
        self
    }

    /// Sets the run length in monitoring intervals.
    pub fn intervals(mut self, n: usize) -> Self {
        self.intervals = n;
        self
    }

    /// Pins the root seed of every stochastic stream (engine and policy).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the monitoring interval length, seconds.
    pub fn interval_s(mut self, seconds: f64) -> Self {
        self.engine.interval_s = seconds;
        self
    }

    /// Sets the background-interference jitter sigma (0 = noiseless).
    pub fn jitter(mut self, sigma: f64) -> Self {
        self.engine.jitter_sigma = sigma;
        self
    }

    /// Overrides the reconfiguration cost model.
    pub fn costs(mut self, costs: hipster_sim::ReconfigCosts) -> Self {
        self.engine.costs = costs;
        self
    }

    /// Overrides the LC-vs-batch contention model.
    pub fn contention(mut self, contention: hipster_sim::ContentionModel) -> Self {
        self.engine.contention = contention;
        self
    }

    /// Arms the Juno perf idle-counter bug.
    pub fn perf_quirk(mut self, armed: bool) -> Self {
        self.engine.perf_quirk = armed;
        self
    }

    /// Disables Linux `cpuidle` (the paper's perf-bug mitigation).
    pub fn cpuidle_disabled(mut self) -> Self {
        self.engine.cpuidle_disabled = true;
        self
    }

    /// Attaches a telemetry sink; the [`Manager`] streams every interval
    /// of the run to it.
    pub fn sink(mut self, sink: Box<dyn TelemetrySink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Checks the spec without running it, returning the first problem.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.workload.is_none() {
            return Err(ScenarioError::MissingWorkload);
        }
        if self.load.is_none() {
            return Err(ScenarioError::MissingLoad);
        }
        if self.policy.is_none() {
            return Err(ScenarioError::MissingPolicy);
        }
        if self.intervals == 0 {
            return Err(ScenarioError::ZeroIntervals);
        }
        if self.collocate && self.batch.is_empty() {
            return Err(ScenarioError::CollocationWithoutBatch);
        }
        if !self.collocate && !self.batch.is_empty() {
            return Err(ScenarioError::BatchWithoutCollocation);
        }
        match &self.deadline {
            Some(_) if !self.collocate => return Err(ScenarioError::DeadlineWithoutBatch),
            Some(d) if !d.valid() => return Err(ScenarioError::InvalidDeadline { deadline: *d }),
            _ => {}
        }
        self.engine
            .faults
            .validate()
            .map_err(ScenarioError::Fault)?;
        self.engine.validate()?;
        Ok(())
    }

    pub(crate) fn assign_seed_if_unset(&mut self, seed: u64) {
        if self.seed.is_none() {
            self.seed = Some(seed);
        }
    }

    /// Builds the fully wired [`Manager`] (engine, policy, collocation,
    /// metadata, sinks) without stepping it — for callers that want to
    /// drive intervals by hand.
    pub fn build(mut self) -> Result<(Manager, usize), ScenarioError> {
        self.validate()?;
        let seed = self.seed.unwrap_or(0);
        let lc = (self.workload.as_ref().expect("validated"))();
        let load = (self.load.as_ref().expect("validated"))();
        let batch: Vec<Box<dyn BatchProgram>> = self.batch.iter().map(|f| f()).collect();
        let mut engine_spec = self.engine;
        engine_spec.seed = seed;
        let engine = engine_spec.build(self.platform.clone(), lc, load, batch)?;
        let policy = self
            .policy
            .as_ref()
            .expect("validated")
            .build(&self.platform, seed);
        let mut manager = Manager::new(engine, policy);
        if self.collocate {
            manager = manager.collocated();
        }
        manager.set_run_identity(self.name.clone(), seed);
        for sink in self.sinks.drain(..) {
            manager.attach_sink(sink);
        }
        Ok((manager, self.intervals))
    }

    /// Validates, builds and runs the scenario to completion.
    ///
    /// An unseeded scenario runs with seed 0 here; inside a
    /// [`Fleet`](crate::Fleet) it would get a split seed instead — see
    /// [`ScenarioSpec::seed_value`].
    pub fn run(self) -> Result<ScenarioOutcome, ScenarioError> {
        let name = self.name.clone();
        let deadline = self.deadline;
        let (mut manager, intervals) = self.build()?;
        let trace = manager.run(intervals);
        let meta = manager.meta().clone();
        let mut summary = PolicySummary::from_trace(meta.policy.clone(), &trace, meta.qos);
        if let Some(d) = deadline {
            summary.deadline_miss_pct = Some(100.0 * d.miss_fraction(&trace));
        }
        let _engine = manager.finish();
        Ok(ScenarioOutcome {
            name,
            policy: meta.policy,
            workload: meta.workload,
            seed: meta.seed,
            qos: meta.qos,
            trace,
            summary,
        })
    }
}

/// Everything a finished scenario hands back, in declaration order when
/// run through a [`Fleet`](crate::Fleet).
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario name (as given to [`ScenarioSpec::new`]).
    pub name: String,
    /// Name of the policy that ran.
    pub policy: String,
    /// Name of the latency-critical workload.
    pub workload: String,
    /// The seed the run used (pinned or fleet-split).
    pub seed: u64,
    /// The workload's QoS target.
    pub qos: QosTarget,
    /// Per-interval statistics of the whole run.
    pub trace: Trace,
    /// Table 3-style summary of the trace.
    pub summary: PolicySummary,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::StaticPolicy;
    use hipster_platform::{CoreKind, Frequency};
    use hipster_sim::{Demand, SimRng};

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

    #[derive(Debug, Clone)]
    struct FixedIps;
    impl BatchProgram for FixedIps {
        fn name(&self) -> &str {
            "fixed"
        }
        fn ips(&self, _kind: CoreKind, _freq: Frequency) -> f64 {
            1.0e9
        }
    }

    fn base() -> ScenarioSpec {
        ScenarioSpec::new("test", Platform::juno_r1())
            .workload_with(|| Box::new(Toy))
            .load(Half)
            .policy(|p: &Platform, _| Box::new(StaticPolicy::all_big(p)) as Box<dyn Policy>)
            .intervals(5)
            .seed(3)
    }

    #[test]
    fn valid_scenario_runs() {
        let out = base().run().expect("valid");
        assert_eq!(out.trace.len(), 5);
        assert_eq!(out.name, "test");
        assert_eq!(out.workload, "toy");
        assert_eq!(out.seed, 3);
        assert_eq!(out.summary.migrations, 0);
    }

    #[test]
    fn missing_pieces_are_typed_errors() {
        let spec = ScenarioSpec::new("x", Platform::juno_r1());
        assert_eq!(spec.validate(), Err(ScenarioError::MissingWorkload));

        let spec = ScenarioSpec::new("x", Platform::juno_r1()).workload_with(|| Box::new(Toy));
        assert_eq!(spec.validate(), Err(ScenarioError::MissingLoad));

        let spec = ScenarioSpec::new("x", Platform::juno_r1())
            .workload_with(|| Box::new(Toy))
            .load(Half);
        assert_eq!(spec.validate(), Err(ScenarioError::MissingPolicy));
    }

    #[test]
    fn zero_intervals_rejected() {
        let spec = base().intervals(0);
        assert_eq!(spec.validate(), Err(ScenarioError::ZeroIntervals));
        assert!(matches!(spec.run(), Err(ScenarioError::ZeroIntervals)));
    }

    #[test]
    fn inconsistent_collocation_rejected_both_ways() {
        let spec = base().collocated();
        assert_eq!(spec.validate(), Err(ScenarioError::CollocationWithoutBatch));
        let spec = base().batch_with(|| Box::new(FixedIps));
        assert_eq!(spec.validate(), Err(ScenarioError::BatchWithoutCollocation));
    }

    #[test]
    fn bad_engine_knobs_are_typed_errors() {
        let spec = base().interval_s(0.0);
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::Engine(
                EngineSpecError::NonPositiveInterval { .. }
            ))
        ));
        let spec = base().jitter(-0.1);
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::Engine(EngineSpecError::InvalidJitter { .. }))
        ));
    }

    #[test]
    fn invalid_reconfiguration_costs_are_typed_errors() {
        // A NaN stall never ends, so intervals complete nothing; a negative
        // one dispatches queued work in the past. Neither may run.
        let juno = hipster_sim::ReconfigCosts::juno_defaults();
        let bad = [
            hipster_sim::ReconfigCosts {
                core_migration_stall_s: f64::NAN,
                ..juno
            },
            hipster_sim::ReconfigCosts {
                core_migration_stall_s: -0.5,
                ..juno
            },
            hipster_sim::ReconfigCosts {
                cold_cache_penalty: 0.5,
                ..juno
            },
        ];
        for costs in bad {
            let spec = base().costs(costs);
            assert!(
                matches!(
                    spec.validate(),
                    Err(ScenarioError::Engine(EngineSpecError::InvalidCost { .. }))
                ),
                "{costs:?} validated"
            );
            assert!(matches!(spec.run(), Err(ScenarioError::Engine(_))));
        }
        assert_eq!(base().costs(juno).validate(), Ok(()));
        assert_eq!(
            base().costs(hipster_sim::ReconfigCosts::free()).validate(),
            Ok(())
        );
    }

    #[test]
    fn invalid_contention_coefficients_are_typed_errors() {
        // The engine clamps the slowdown to at least 1, so a NaN coefficient
        // would silently remove contention and interference jitter alike.
        let collocated = || base().collocated().batch_with(|| Box::new(FixedIps));
        let bad = hipster_sim::ContentionModel {
            same_cluster_per_batch_core: f64::NAN,
            global_per_batch_core: -5.0,
        };
        let spec = collocated().contention(bad);
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::Engine(EngineSpecError::InvalidCost {
                field: "same_cluster_per_batch_core",
                min,
                ..
            })) if min == 0.0
        ));
        assert!(matches!(spec.run(), Err(ScenarioError::Engine(_))));
        let bad = hipster_sim::ContentionModel {
            global_per_batch_core: -5.0,
            ..hipster_sim::ContentionModel::juno_defaults()
        };
        assert!(matches!(
            collocated().contention(bad).validate(),
            Err(ScenarioError::Engine(EngineSpecError::InvalidCost {
                field: "global_per_batch_core",
                value,
                ..
            })) if value == -5.0
        ));
        for ok in [
            hipster_sim::ContentionModel::juno_defaults(),
            hipster_sim::ContentionModel::none(),
        ] {
            assert_eq!(collocated().contention(ok).validate(), Ok(()));
        }
    }

    #[test]
    fn collocated_scenario_runs_batch() {
        let out = base()
            .collocated()
            .batch_with(|| Box::new(FixedIps))
            .run()
            .expect("valid");
        assert!(out.trace.mean_batch_ips() > 0.0);
    }

    #[test]
    fn spec_reproduces_hand_wired_manager() {
        // The whole point: spec-built runs must equal hand-built ones.
        let platform = Platform::juno_r1();
        let engine = hipster_sim::Engine::new(platform.clone(), Box::new(Toy), Box::new(Half), 3);
        let by_hand = Manager::new(engine, Box::new(StaticPolicy::all_big(&platform))).run(5);
        let by_spec = base().run().unwrap().trace;
        assert_eq!(by_hand.to_csv(), by_spec.to_csv());
    }

    #[test]
    fn deadline_misdeclarations_are_typed_errors() {
        let spec = base().batch_deadline(BatchDeadline::new(4, 1.0e9, 5.0));
        assert_eq!(spec.validate(), Err(ScenarioError::DeadlineWithoutBatch));
        let bad = BatchDeadline::new(0, 1.0e9, 5.0);
        let spec = base()
            .collocated()
            .batch_with(|| Box::new(FixedIps))
            .batch_deadline(bad);
        assert_eq!(
            spec.validate(),
            Err(ScenarioError::InvalidDeadline { deadline: bad })
        );
        let bad = BatchDeadline::new(4, -1.0, 5.0);
        let spec = base()
            .collocated()
            .batch_with(|| Box::new(FixedIps))
            .batch_deadline(bad);
        assert_eq!(
            spec.validate(),
            Err(ScenarioError::InvalidDeadline { deadline: bad })
        );
    }

    #[test]
    fn deadline_miss_fraction_lands_in_summary() {
        // Generous deadline: every task makes it.
        let out = base()
            .collocated()
            .batch_with(|| Box::new(FixedIps))
            .batch_deadline(BatchDeadline::new(4, 1.0e6, 5.0))
            .run()
            .expect("valid");
        assert_eq!(out.summary.deadline_miss_pct, Some(0.0));
        // Impossible volume: every task is late (never finishes).
        let out = base()
            .collocated()
            .batch_with(|| Box::new(FixedIps))
            .batch_deadline(BatchDeadline::new(4, 1.0e30, 5.0))
            .run()
            .expect("valid");
        assert_eq!(out.summary.deadline_miss_pct, Some(100.0));
        // No deadline declared: the summary stays None.
        let out = base()
            .collocated()
            .batch_with(|| Box::new(FixedIps))
            .run()
            .expect("valid");
        assert_eq!(out.summary.deadline_miss_pct, None);
    }

    #[test]
    fn bad_fault_spec_is_a_typed_error() {
        let spec = base().faults(FaultSpec::none().with_warned(2.0));
        assert!(matches!(spec.validate(), Err(ScenarioError::Fault(_))));
        let spec = base().faults(FaultSpec::none().with_stragglers(1.0, 0.1, 1.5, 0.5, 2.0));
        assert!(matches!(spec.validate(), Err(ScenarioError::Fault(_))));
    }

    #[test]
    fn fault_off_scenario_matches_plain_run() {
        let plain = base().run().unwrap();
        let off = base().faults(FaultSpec::none()).run().unwrap();
        assert_eq!(plain.trace.to_csv(), off.trace.to_csv());
        // Faults on: the run completes and differs.
        let on = base()
            .faults(FaultSpec::none().with_revocations(3.0, 0.4))
            .run()
            .unwrap();
        assert_ne!(plain.trace.to_csv(), on.trace.to_csv());
    }

    #[test]
    fn error_display_is_descriptive() {
        assert!(ScenarioError::CollocationWithoutBatch
            .to_string()
            .contains("batch"));
        assert!(ScenarioError::ZeroIntervals
            .to_string()
            .contains("interval"));
    }
}
