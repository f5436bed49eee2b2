//! The simulation engine: steps the machine one monitoring interval at a
//! time under a given configuration, producing the observations the Hipster
//! QoS Monitor consumes (tail latency, load, power, batch IPS).
//!
//! # Demand stream and event loop
//!
//! An open-loop interval's event loop draws each arrival gap from the
//! arrival stream, since gaps follow the offered rate, and reads each
//! arrival's burst size and demands from the demand stream, which never
//! depends on the load (`arrivals.rs`). It draws each request's straggle
//! and hedge on a third stream, in request order. Because nothing the node
//! does feeds back into an open loop's demands, the demand stream may be
//! drawn ahead of the loop, across intervals, by a generator thread. Each
//! stream is drawn in the same order either way, so the engine's outputs
//! are bit-identical wherever and whenever its demands are drawn.
//!
//! An engine starts its generator at the first interval that passes the
//! gate: the interval is open-loop; it expects at least
//! `HELPER_MIN_REQUESTS` (4096) requests, rate × interval length; the
//! process may run on two or more cores; the engine steps alone, with no
//! other engine in the process stepping now or since its previous step,
//! unlike the nodes of a cluster or the engines of a multi-worker fleet;
//! and fewer than `host_cores() − 1` generators are alive in the process.
//! The engine keeps the generator until it drops, and every later
//! open-loop interval reads from it. Until then the loop draws each
//! burst and demand as it takes it. Closed-loop intervals, whose
//! arrivals wait on completions, always run on one thread.
//!
//! The model is shared with the generator behind a lock, which the
//! generator takes once per chunk. A step that reads from the generator
//! never takes it: `Engine::new` tabulates the model's service speeds for
//! every DVFS level. Inline and closed-loop intervals take it once.

use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard};

use hipster_platform::{
    CoreConfig, CoreId, CoreKind, EnergyMeter, Frequency, PerfCounters, Platform, PowerBreakdown,
};

use crate::arrivals::{
    self, DemandStream, Demands, Gaps, InlineDemands, SharedModel, Start, Stepping,
};
use crate::costs::{ContentionModel, ReconfigCosts};
use crate::dist::{self, Exponential};
use crate::fault::{FaultPlan, FaultSpec, FaultState, HedgeSpec, Slowdown};
use crate::request::{Demand, QosTarget};
use crate::rng::{Sampler, SimRng};
use crate::service::{NodeInterval, ServerSpec, ServiceNode};
use crate::think::ThinkPool;
use crate::traits::{BatchProgram, ClosedLoop, LcModel, LoadPattern};

/// Default lognormal sigma of the per-interval background-interference
/// slowdown (see [`Engine::with_jitter`]): ±10% noise, roughly what OS
/// housekeeping costs an undisturbed Linux box.
pub const DEFAULT_JITTER_SIGMA: f64 = 0.10;

/// The full machine configuration applied for one monitoring interval.
///
/// `lc` is the configuration chosen by the policy for the latency-critical
/// workload; `big_freq`/`small_freq` are the *actual* cluster frequencies
/// (DVFS is per cluster, so batch jobs sharing a cluster with the LC
/// workload run at the LC frequency — the `lbm` effect of §4.3); and
/// `batch_enabled` controls whether the remaining cores run batch jobs
/// (HipsterCo) or idle (HipsterIn).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Cores + DVFS allocated to the latency-critical workload.
    pub lc: CoreConfig,
    /// Actual big-cluster frequency.
    pub big_freq: Frequency,
    /// Actual small-cluster frequency.
    pub small_freq: Frequency,
    /// Whether remaining cores run batch jobs.
    pub batch_enabled: bool,
}

impl MachineConfig {
    /// An interactive-only configuration (HipsterIn style): clusters the LC
    /// workload does not use are clocked to the platform minimum
    /// (Algorithm 2 lines 12–13).
    pub fn interactive(platform: &Platform, lc: CoreConfig) -> Self {
        let big = platform.cluster(CoreKind::Big);
        let small = platform.cluster(CoreKind::Small);
        MachineConfig {
            lc,
            big_freq: if lc.n_big > 0 {
                lc.big_freq
            } else {
                big.min_freq()
            },
            small_freq: if lc.n_small > 0 {
                lc.small_freq
            } else {
                small.min_freq()
            },
            batch_enabled: false,
        }
    }

    /// A collocated configuration (HipsterCo style): remaining cores run
    /// batch jobs; when the LC workload occupies a single core type, the
    /// other cluster is boosted to its maximum DVFS to accelerate the batch
    /// jobs (Algorithm 2 lines 8–11).
    pub fn collocated(platform: &Platform, lc: CoreConfig) -> Self {
        let big = platform.cluster(CoreKind::Big);
        let small = platform.cluster(CoreKind::Small);
        let (big_freq, small_freq) = match lc.single_core_type() {
            Some(CoreKind::Big) => (lc.big_freq, small.max_freq()),
            Some(CoreKind::Small) => (big.max_freq(), lc.small_freq),
            None => (
                if lc.n_big > 0 {
                    lc.big_freq
                } else {
                    big.min_freq()
                },
                if lc.n_small > 0 {
                    lc.small_freq
                } else {
                    small.min_freq()
                },
            ),
        };
        MachineConfig {
            lc,
            big_freq,
            small_freq,
            batch_enabled: true,
        }
    }
}

/// Everything the simulator measured during one monitoring interval.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalStats {
    /// Zero-based interval index.
    pub index: u64,
    /// Interval start time, seconds.
    pub start_s: f64,
    /// Interval length, seconds.
    pub duration_s: f64,
    /// The configuration in force.
    pub config: MachineConfig,
    /// Commanded load as a fraction of the workload's maximum.
    pub offered_load_frac: f64,
    /// Commanded load in requests per second.
    pub offered_rps: f64,
    /// Requests that arrived.
    pub arrivals: usize,
    /// Requests that completed.
    pub completions: usize,
    /// Requests dropped by client timeouts.
    pub timeouts: usize,
    /// Achieved throughput, requests per second.
    pub throughput_rps: f64,
    /// Tail latency at the workload's QoS percentile, seconds.
    pub tail_latency_s: f64,
    /// Mean latency of completed requests, seconds.
    pub mean_latency_s: f64,
    /// Queue length at interval end.
    pub queue_len: usize,
    /// Busy fraction of each LC server (big servers first).
    pub lc_busy: Vec<f64>,
    /// Average system power during the interval.
    pub power: PowerBreakdown,
    /// Energy consumed during the interval, joules.
    pub energy_j: f64,
    /// Aggregate batch IPS on big cores, as reported by the perf counters.
    pub batch_ips_big: f64,
    /// Aggregate batch IPS on small cores, as reported by the perf counters.
    pub batch_ips_small: f64,
    /// `false` when the Juno perf idle bug corrupted this window's counters
    /// (the batch IPS fields then contain garbage, as real `perf` would).
    pub counters_valid: bool,
    /// Number of LC cores whose allocation changed entering this interval.
    pub migrated_cores: usize,
}

impl IntervalStats {
    /// QoS tardiness of this interval: measured tail / target.
    pub fn tardiness(&self, target_s: f64) -> f64 {
        self.tail_latency_s / target_s
    }
}

/// Discrete-event simulation engine.
///
/// Owns the platform, the latency-critical workload model, the load
/// pattern, an optional batch-job pool, and all measurement apparatus. A
/// policy driver calls [`Engine::step`] once per monitoring interval with
/// the configuration to apply.
#[derive(Debug)]
pub struct Engine {
    platform: Platform,
    /// Where the demand stream is drawn. Declared before `lc`, so that an
    /// engine's drop joins its generator thread before the model drops,
    /// and the model drops on the engine's thread.
    demands: DemandStream,
    /// The model, shared with the generator thread when one runs.
    lc: SharedModel,
    /// `lc.service_speed` at every DVFS level of both clusters, tabulated
    /// at construction: a step validates its frequencies against the
    /// platform, so it never asks the model.
    speeds: Vec<(CoreKind, Frequency, f64)>,
    load: Box<dyn LoadPattern>,
    batch_pool: Vec<Box<dyn BatchProgram>>,
    costs: ReconfigCosts,
    contention: ContentionModel,
    node: ServiceNode,
    counters: PerfCounters,
    meter: EnergyMeter,
    arrival_rng: SimRng,
    now: f64,
    interval_s: f64,
    index: u64,
    current: Option<MachineConfig>,
    cold_this_interval: bool,
    total_migrations: u64,
    power_override: Option<hipster_platform::PowerModel>,
    /// Closed-loop clients currently thinking (min-heap of expiry times).
    thinking: ThinkPool,
    /// The kick of a reconfiguration stall that outlived the last
    /// interval: servers stay stalled past the boundary, so work that
    /// queued meanwhile still needs dispatching when the stall ends.
    pending_kick: Option<f64>,
    /// Lognormal σ of the per-interval background-interference slowdown.
    jitter_sigma: f64,
    jitter_rng: SimRng,
    // Constants of the LC model, hoisted out of the per-interval loop (they
    // are virtual calls on a boxed trait object, and `step` is the hot
    // path).
    /// Cached `lc.max_load_rps()`.
    lc_max_load_rps: f64,
    /// Cached `lc.mean_burst().max(1.0)`.
    lc_mean_burst: f64,
    /// Cached `lc.qos()`.
    lc_qos: QosTarget,
    /// Cached `lc.closed_loop()`.
    lc_closed_loop: Option<ClosedLoop>,
    /// Last inter-arrival distribution, keyed by its event rate; rebuilt
    /// only when the offered load changes between intervals.
    iat_cache: Option<(f64, Exponential)>,
    /// Last think-time distribution, keyed by its rate.
    think_cache: Option<(f64, Exponential)>,
    // Reusable per-interval buffers (no allocation in steady state).
    /// Server specs handed to `ServiceNode::reconfigure`.
    specs_buf: Vec<ServerSpec>,
    /// Core kinds of this interval's batch cores.
    batch_kinds_buf: Vec<CoreKind>,
    /// Per-core busy fractions of the big cluster.
    big_busy_buf: Vec<f64>,
    /// Per-core busy fractions of the small cluster.
    small_busy_buf: Vec<f64>,
    /// Completion times collected by the closed-loop event loop.
    completions_buf: Vec<f64>,
    /// The process-wide ticket of this engine's previous step, which tells
    /// whether another engine stepped since (see `arrivals::Stepping`).
    step_ticket: Option<u64>,
    /// The run seed, kept so the fault stream can be derived lazily from
    /// its own dedicated fork without disturbing demand/arrival/jitter.
    seed: u64,
    /// Per-core fault timelines, when fault injection is enabled.
    faults: Option<FaultPlan>,
    /// Machine-wide fault condition imposed from outside (the cluster
    /// tier revokes or slows whole nodes through this).
    external_fault: FaultState,
    /// Previous interval's per-server revocation flags (spec order), for
    /// detecting alive-set changes that force a preempting reconfigure.
    prev_revoked: Vec<bool>,
    /// Scratch: this interval's per-server revocation flags.
    cur_revoked_buf: Vec<bool>,
    /// Core-intervals spent revoked (fault telemetry).
    revoked_core_intervals: u64,
    /// Core-intervals spent straggling (fault telemetry).
    straggler_core_intervals: u64,
    /// Per-request straggler injection + hedging, when armed.
    req_faults: Option<ReqFaults>,
    /// The hedging policy applied to per-request stragglers.
    hedge: HedgeSpec,
}

/// Per-request straggler machinery: each arriving request independently
/// straggles with probability `prob`, scaling its service demand by a
/// multiplier drawn from a dedicated `"reqstraggle"` RNG fork. Hedging
/// caps the effective multiplier at `1 + delay_multiple` (the backup copy
/// finishes at nominal speed after the issue delay) and counts each capped
/// request as one hedge.
#[derive(Debug)]
struct ReqFaults {
    rng: SimRng,
    prob: f64,
    slowdown: Slowdown,
    /// Effective-multiplier cap from hedging (`1 + delay_multiple`;
    /// infinite when hedging is disabled).
    cap: f64,
    straggled: u64,
    hedged: u64,
}

/// Applies the per-request straggler draw (and hedge cap) to one arriving
/// request's demand. No-op — and crucially, zero RNG draws — when
/// per-request stragglers are unarmed.
#[inline]
fn straggle(req_faults: &mut Option<ReqFaults>, mut demand: Demand) -> Demand {
    if let Some(rf) = req_faults {
        if rf.rng.chance(rf.prob) {
            let drawn = rf.slowdown.sample(&mut rf.rng);
            rf.straggled += 1;
            let eff = if drawn > rf.cap {
                rf.hedged += 1;
                rf.cap
            } else {
                drawn
            };
            demand.work *= eff;
            demand.mem_s *= eff;
        }
    }
    demand
}

impl Engine {
    /// Creates an engine for `platform` running `lc` under `load`, with all
    /// stochastic streams derived from `seed`.
    pub fn new(
        platform: Platform,
        lc: Box<dyn LcModel>,
        load: Box<dyn LoadPattern>,
        seed: u64,
    ) -> Self {
        let mut root = SimRng::seed(seed);
        let num_cores = platform.num_cores();
        let mut node = ServiceNode::new();
        node.set_timeout(lc.timeout_s());
        let lc_max_load_rps = lc.max_load_rps();
        let lc_mean_burst = lc.mean_burst().max(1.0);
        let lc_qos = lc.qos();
        let lc_closed_loop = lc.closed_loop();
        let speeds = CoreKind::ALL
            .iter()
            .flat_map(|&kind| {
                let lc = &lc;
                platform
                    .cluster(kind)
                    .freq_levels()
                    .map(move |f| (kind, f, lc.service_speed(kind, f)))
            })
            .collect();
        Engine {
            demands: DemandStream::Inline(root.fork("demand")),
            lc: Arc::new(Mutex::new(lc)),
            speeds,
            platform,
            load,
            batch_pool: Vec::new(),
            costs: ReconfigCosts::juno_defaults(),
            contention: ContentionModel::juno_defaults(),
            node,
            counters: PerfCounters::new(num_cores, false),
            meter: EnergyMeter::new(),
            arrival_rng: root.fork("arrival"),
            now: 0.0,
            interval_s: 1.0,
            index: 0,
            current: None,
            cold_this_interval: false,
            total_migrations: 0,
            power_override: None,
            thinking: ThinkPool::new(),
            pending_kick: None,
            jitter_sigma: DEFAULT_JITTER_SIGMA,
            jitter_rng: root.fork("jitter"),
            lc_max_load_rps,
            lc_mean_burst,
            lc_qos,
            lc_closed_loop,
            iat_cache: None,
            think_cache: None,
            specs_buf: Vec::new(),
            batch_kinds_buf: Vec::new(),
            big_busy_buf: Vec::new(),
            small_busy_buf: Vec::new(),
            completions_buf: Vec::new(),
            step_ticket: None,
            seed,
            faults: None,
            external_fault: FaultState::Healthy,
            prev_revoked: Vec::new(),
            cur_revoked_buf: Vec::new(),
            revoked_core_intervals: 0,
            straggler_core_intervals: 0,
            req_faults: None,
            hedge: HedgeSpec::none(),
        }
    }

    /// Installs a batch-job pool; remaining cores run these round-robin
    /// whenever the applied [`MachineConfig::batch_enabled`] is set.
    pub fn with_batch_pool(mut self, pool: Vec<Box<dyn BatchProgram>>) -> Self {
        self.batch_pool = pool;
        self
    }

    /// Overrides the reconfiguration cost model.
    ///
    /// # Panics
    ///
    /// Panics if a cost fails [`ReconfigCosts::validate`], the check
    /// [`EngineSpec::validate`](crate::EngineSpec::validate) makes.
    pub fn with_costs(mut self, costs: ReconfigCosts) -> Self {
        if let Err(e) = costs.validate() {
            panic!("invalid reconfiguration costs: {e}");
        }
        self.costs = costs;
        self
    }

    /// Overrides the contention model.
    ///
    /// # Panics
    ///
    /// Panics if a coefficient fails [`ContentionModel::validate`], the
    /// check [`EngineSpec::validate`](crate::EngineSpec::validate) makes.
    pub fn with_contention(mut self, contention: ContentionModel) -> Self {
        if let Err(e) = contention.validate() {
            panic!("invalid contention model: {e}");
        }
        self.contention = contention;
        self
    }

    /// Sets the monitoring interval length (default 1 s, as in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is not strictly positive and finite, the check
    /// [`EngineSpec::validate`](crate::EngineSpec::validate) makes.
    pub fn with_interval(mut self, seconds: f64) -> Self {
        assert!(
            seconds.is_finite() && seconds > 0.0,
            "monitoring interval must be positive, got {seconds}"
        );
        self.interval_s = seconds;
        self
    }

    /// Arms the Juno perf idle-counter bug (disarmed by default).
    pub fn with_perf_quirk(mut self, armed: bool) -> Self {
        let n = self.platform.num_cores();
        self.counters = PerfCounters::new(n, armed);
        self
    }

    /// Sets the background-interference jitter: each monitoring interval
    /// the LC service runs `exp(N(0, σ))` slower than nominal, modelling
    /// OS housekeeping, interrupts and other un-modelled noise on a real
    /// Linux box. Default σ = 0.10; pass 0 for a noiseless simulator.
    ///
    /// This noise is what keeps feedback policies honest: with a perfectly
    /// quiet simulator a threshold controller can park one notch above the
    /// capacity boundary forever, which real systems never allow.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn with_jitter(mut self, sigma: f64) -> Self {
        assert!(sigma.is_finite() && sigma >= 0.0, "invalid jitter: {sigma}");
        self.jitter_sigma = sigma;
        self
    }

    /// Enables fault injection: per-core transient revocations and
    /// straggler episodes scheduled by `spec`. The timelines draw from a
    /// dedicated `"faults"` fork of the run seed, so enabling faults
    /// never perturbs the demand/arrival/jitter streams, and
    /// [`FaultSpec::none`] leaves the engine exactly on the fault-free
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`FaultSpec::validate`] — scenario and
    /// cluster specs validate before reaching here.
    pub fn with_faults(mut self, spec: FaultSpec) -> Self {
        spec.validate()
            .unwrap_or_else(|e| panic!("invalid fault spec: {e}"));
        self.faults = spec.has_unit_faults().then(|| {
            let base = SimRng::seed(self.seed).fork("faults").next_u64();
            FaultPlan::new(spec, base, self.platform.num_cores())
        });
        self.req_faults = spec.has_request_stragglers().then(|| ReqFaults {
            rng: SimRng::seed(self.seed).fork("reqstraggle"),
            prob: spec.request_straggler_prob,
            slowdown: Slowdown::new(
                spec.request_straggler_min,
                spec.request_straggler_max,
                spec.request_straggler_alpha,
            ),
            cap: 1.0 + self.hedge.delay_multiple,
            straggled: 0,
            hedged: 0,
        });
        self
    }

    /// Sets the hedging policy for per-request stragglers: a straggled
    /// request's effective service time is capped at
    /// `1 + delay_multiple` times nominal (the backup copy, issued after
    /// the delay, finishes at nominal speed and the loser is cancelled).
    /// Has no effect unless [`FaultSpec::with_request_stragglers`] is
    /// armed; [`HedgeSpec::none`] never hedges.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`HedgeSpec::validate`].
    pub fn with_hedging(mut self, hedge: HedgeSpec) -> Self {
        hedge
            .validate()
            .unwrap_or_else(|e| panic!("invalid hedge spec: {e}"));
        self.hedge = hedge;
        if let Some(rf) = self.req_faults.as_mut() {
            rf.cap = 1.0 + hedge.delay_multiple;
        }
        self
    }

    /// Cumulative count of requests whose per-request straggle draw fired.
    pub fn request_straggles(&self) -> u64 {
        self.req_faults.as_ref().map_or(0, |rf| rf.straggled)
    }

    /// Cumulative count of requests rescued by a hedged backup copy
    /// (straggle multiplier exceeded the hedge cap).
    pub fn hedged_requests(&self) -> u64 {
        self.req_faults.as_ref().map_or(0, |rf| rf.hedged)
    }

    /// Imposes a machine-wide fault condition from outside for subsequent
    /// intervals — the cluster tier's hook for revoking or slowing whole
    /// nodes. Combines with any per-core [`Engine::with_faults`] plan
    /// (revocation dominates; straggles compound).
    ///
    /// # Panics
    ///
    /// Panics on a straggling state with slowdown below 1.
    pub fn set_external_fault(&mut self, state: FaultState) {
        if let FaultState::Straggling { slowdown } = state {
            assert!(
                slowdown.is_finite() && slowdown >= 1.0,
                "external straggle slowdown must be >= 1: {slowdown}"
            );
        }
        self.external_fault = state;
    }

    /// Core-intervals spent `(revoked, straggling)` so far — the engine's
    /// fault telemetry counters.
    pub fn fault_core_intervals(&self) -> (u64, u64) {
        (self.revoked_core_intervals, self.straggler_core_intervals)
    }

    /// Disables Linux `cpuidle` — the paper's mitigation for the perf bug.
    /// Idle cores stop entering idle states (clean counters) but burn more
    /// power; the power model switches to the cpuidle-disabled calibration.
    pub fn disable_cpuidle(&mut self) {
        self.counters.disable_cpuidle();
        self.power_override = Some(self.platform.power_model().with_cpuidle_disabled());
    }

    /// Current simulated time, seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The platform under simulation.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The latency-critical workload model, behind the lock the engine
    /// shares with its demand generator. The returned guard holds that lock
    /// until it drops, so a caller must not hold two at once, for example
    /// by calling this twice in one expression: the second call would wait
    /// for the first guard forever.
    pub fn lc_model(&self) -> impl Deref<Target = dyn LcModel> + '_ {
        ModelGuard(arrivals::lock_model(&self.lc))
    }

    /// The monitoring interval length, seconds.
    pub fn interval_s(&self) -> f64 {
        self.interval_s
    }

    /// Total LC core migrations so far.
    pub fn total_migrations(&self) -> u64 {
        self.total_migrations
    }

    /// Cumulative energy registers.
    pub fn energy_meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Runs one monitoring interval under `cfg` and returns its statistics.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid for the platform or allocates zero cores
    /// to the latency-critical workload, and with the model's own payload
    /// if the model panics, also when it panics on the generator thread:
    /// then from the step whose interval reaches the draw that panicked.
    pub fn step(&mut self, cfg: MachineConfig) -> IntervalStats {
        self.step_with(cfg, Start::Gated(&arrivals::GENERATORS))
    }

    /// [`Engine::step`], starting the demand generator as `start` says (the
    /// tests start it at chosen intervals, or never).
    fn step_with(&mut self, cfg: MachineConfig, start: Start) -> IntervalStats {
        self.platform
            .validate(&CoreConfig::new(
                cfg.lc.n_big,
                cfg.lc.n_small,
                cfg.big_freq,
                cfg.small_freq,
            ))
            .unwrap_or_else(|e| panic!("invalid machine config: {e}"));
        assert!(
            cfg.lc.total_cores() > 0,
            "latency-critical workload needs at least one core"
        );

        let (mut preempt, mut stall, migrated) = self.transition_kind(&cfg);
        self.total_migrations += migrated as u64;
        self.cold_this_interval = migrated > 0;

        // Batch allocation for this interval: remaining cores, big first.
        // The kinds buffer is moved out for the duration of the step so it
        // can be borrowed alongside `&mut self`, then returned for reuse.
        let mut batch_cores = std::mem::take(&mut self.batch_kinds_buf);
        self.fill_batch_kinds(&cfg, &mut batch_cores);
        let on_lc_clusters = batch_cores.iter().filter(|k| cfg.lc.count(**k) > 0).count();
        let slowdown = self.lc_slowdown(on_lc_clusters, batch_cores.len());

        // LC server specs: big servers first, then small (reused buffer).
        let big_speed = self.speed(CoreKind::Big, cfg.big_freq);
        let small_speed = self.speed(CoreKind::Small, cfg.small_freq);
        self.specs_buf.clear();
        for _ in 0..cfg.lc.n_big {
            self.specs_buf.push(ServerSpec {
                kind: CoreKind::Big,
                freq: cfg.big_freq,
                speed: big_speed,
                slowdown,
            });
        }
        for _ in 0..cfg.lc.n_small {
            self.specs_buf.push(ServerSpec {
                kind: CoreKind::Small,
                freq: cfg.small_freq,
                speed: small_speed,
                slowdown,
            });
        }
        // Fault overlay, sampled at the interval boundary: revoked servers
        // drop out of the spec list (forcing a preempting reconfigure when
        // the alive set changes, so in-flight work requeues), stragglers
        // keep their slot with a multiplied slowdown (a pure re-key riding
        // the DVFS path). When no plan, no external fault, and no revoked
        // carry-over exist, none of this runs and the spec list is exactly
        // the fault-free one.
        let total_servers = cfg.lc.total_cores();
        let mut alive_big = cfg.lc.n_big;
        let mut alive_small = cfg.lc.n_small;
        let faults_active = self.faults.is_some()
            || self.external_fault.is_faulted()
            || self.prev_revoked.iter().any(|&r| r);
        if faults_active {
            let big_total = self.platform.cluster(CoreKind::Big).len();
            self.cur_revoked_buf.clear();
            let mut unwarned_new = false;
            let mut w = 0usize;
            for s in 0..total_servers {
                // Server `s` sits on a stable physical core: big LC servers
                // on big cores 0.., small LC servers on small cores 0..
                // (platform core id `big_total + ..`).
                let unit = if s < cfg.lc.n_big {
                    s
                } else {
                    big_total + (s - cfg.lc.n_big)
                };
                let local = match &mut self.faults {
                    Some(plan) => plan.state(unit, self.now),
                    None => FaultState::Healthy,
                };
                match FaultState::combine(self.external_fault, local) {
                    FaultState::Revoked { warned } => {
                        self.cur_revoked_buf.push(true);
                        if s < cfg.lc.n_big {
                            alive_big -= 1;
                        } else {
                            alive_small -= 1;
                        }
                        self.revoked_core_intervals += 1;
                        if !warned && self.prev_revoked.get(s) != Some(&true) {
                            unwarned_new = true;
                        }
                    }
                    state => {
                        self.cur_revoked_buf.push(false);
                        let mut spec = self.specs_buf[s];
                        if let FaultState::Straggling { slowdown: m } = state {
                            spec.slowdown = (spec.slowdown * m).min(f64::MAX);
                            self.straggler_core_intervals += 1;
                        }
                        self.specs_buf[w] = spec;
                        w += 1;
                    }
                }
            }
            self.specs_buf.truncate(w);
            let cur_any = self.cur_revoked_buf.iter().any(|&r| r);
            let prev_any = self.prev_revoked.iter().any(|&r| r);
            let revoked_set_changed =
                (cur_any || prev_any) && self.prev_revoked != self.cur_revoked_buf;
            if !preempt && revoked_set_changed {
                // The alive set changed: requeue in-flight work through the
                // preemption path. A fresh *unwarned* revocation also pays
                // the migration stall; warned ones drained gracefully.
                preempt = true;
                if unwarned_new {
                    stall = stall.max(self.costs.core_migration_stall_s);
                }
            }
            std::mem::swap(&mut self.prev_revoked, &mut self.cur_revoked_buf);
        } else if !self.prev_revoked.is_empty() {
            self.prev_revoked.clear();
        }
        if self.specs_buf.is_empty() {
            // Every server revoked: nothing to run on. Requests keep
            // queueing (and shed on timeout at dispatch); energy gates in
            // `measure` via the zero alive counts.
            self.node.revoke_all(self.now);
        } else {
            self.node
                .reconfigure(self.now, &self.specs_buf, preempt, stall);
        }
        self.node.begin_interval(self.now);

        // Event loop for the interval. Servers stalled until `now + stall`
        // need a kick then, to start work that queued during the stall. A
        // kick owed by a stall that outlived the last interval still
        // stands unless this reconfiguration preempted, which restarts
        // every stall; a DVFS stall only ever extends it.
        let mut kick_at = (stall > 0.0).then_some(self.now + stall);
        if let Some(owed) = self.pending_kick.take() {
            if !preempt {
                kick_at = Some(kick_at.map_or(owed, |k| k.max(owed)));
            }
        }
        let t_end = self.now + self.interval_s;
        let frac = self.load.load_at(self.now).max(0.0);
        let rate = frac * self.lc_max_load_rps;
        // The interval stays registered as stepping until this step returns.
        let stepping = Stepping::enter(&mut self.step_ticket);
        self.pending_kick = match self.lc_closed_loop {
            Some(cl) => self.run_events_closed(t_end, frac, kick_at, cl),
            None => {
                if let Some(budget) = start.admits(rate * self.interval_s, &stepping) {
                    self.demands.run_ahead(&self.lc, budget);
                }
                self.run_events(t_end, rate, kick_at)
            }
        };

        let node_iv = self.node.end_interval(t_end, self.lc_qos.percentile);

        // Measurement: power, energy, counters.
        let stats = self.measure(
            cfg,
            frac,
            rate,
            node_iv,
            &batch_cores,
            alive_big,
            alive_small,
        );
        self.batch_kinds_buf = batch_cores;
        self.current = Some(cfg);
        self.now = t_end;
        self.index += 1;
        stats
    }

    /// The model's service speed on a core of `kind` at `freq`, from the
    /// table built at construction.
    fn speed(&self, kind: CoreKind, freq: Frequency) -> f64 {
        self.speeds
            .iter()
            .find(|&&(k, f, _)| k == kind && f == freq)
            .map(|&(_, _, speed)| speed)
            .expect("the step validated its frequencies against the platform")
    }

    /// Classifies the transition into (preempt?, stall seconds, migrated
    /// core count).
    fn transition_kind(&self, cfg: &MachineConfig) -> (bool, f64, usize) {
        match &self.current {
            None => (true, 0.0, 0),
            Some(prev) => {
                if !prev.lc.same_mapping(&cfg.lc) {
                    let migrated = prev.lc.n_big.abs_diff(cfg.lc.n_big)
                        + prev.lc.n_small.abs_diff(cfg.lc.n_small);
                    (true, self.costs.core_migration_stall_s, migrated)
                } else if prev.big_freq != cfg.big_freq || prev.small_freq != cfg.small_freq {
                    (false, self.costs.dvfs_stall_s, 0)
                } else {
                    (false, 0.0, 0)
                }
            }
        }
    }

    /// Fills `out` with the core kinds of the batch cores for this config
    /// (big cores first). `out` is a reused buffer; it is cleared first.
    fn fill_batch_kinds(&self, cfg: &MachineConfig, out: &mut Vec<CoreKind>) {
        out.clear();
        if !cfg.batch_enabled || self.batch_pool.is_empty() {
            return;
        }
        let big_total = self.platform.cluster(CoreKind::Big).len();
        let small_total = self.platform.cluster(CoreKind::Small).len();
        out.extend(std::iter::repeat(CoreKind::Big).take(big_total - cfg.lc.n_big));
        out.extend(std::iter::repeat(CoreKind::Small).take(small_total - cfg.lc.n_small));
    }

    fn lc_slowdown(&mut self, on_lc_clusters: usize, n_batch: usize) -> f64 {
        let mut s = self.contention.lc_slowdown(on_lc_clusters, n_batch);
        if self.cold_this_interval {
            s *= self.costs.cold_cache_penalty;
        }
        if self.jitter_sigma > 0.0 {
            // Lognormal interference factor for the interval; interference
            // only ever slows service down.
            s *= (self.jitter_sigma * dist::standard_normal(&mut self.jitter_rng)).exp();
        }
        // An overflowed product (a huge contention coefficient or jitter
        // sigma) saturates at the largest finite slowdown; a NaN one (an
        // overflow times an underflow) reads as no slowdown.
        if s.is_nan() {
            1.0
        } else {
            s.clamp(1.0, f64::MAX)
        }
    }

    /// Open-loop interval up to `t_end`: [`event_loop`] draws the
    /// interval's gaps and reads its bursts and demands from the demand
    /// stream, inline under the model's lock or from the generator, which
    /// draws them in the same order. Returns the kick still owed when
    /// `kick_at` falls at or after `t_end`.
    fn run_events(&mut self, t_end: f64, rate: f64, kick_at: Option<f64>) -> Option<f64> {
        // Arrival *events* carry bursts of requests; thin the event rate so
        // the request rate equals the offered load. The distribution is
        // cached across intervals and only rebuilt when the offered load
        // actually changes.
        let event_rate = rate / self.lc_mean_burst;
        let iat = (event_rate > 0.0).then(|| cached_exp(&mut self.iat_cache, event_rate));
        let mut gaps = Gaps::new(iat, &mut self.arrival_rng, t_end);
        let (node, req_faults, now) = (&mut self.node, &mut self.req_faults, self.now);
        match &mut self.demands {
            DemandStream::Inline(rng) => {
                let lc = arrivals::lock_model(&self.lc);
                let mut inline = InlineDemands::new(&**lc, rng);
                event_loop(node, req_faults, &mut gaps, &mut inline, now, kick_at)
            }
            DemandStream::RunAhead(generator) => {
                event_loop(node, req_faults, &mut gaps, generator, now, kick_at)
            }
        }
    }

    /// Closed-loop event loop: a population of `frac × max_clients` clients
    /// submit → wait → think (exponential, mean `think_mean_s`) → repeat.
    /// The population is adjusted at interval boundaries; surplus clients
    /// are retired from the thinking pool (in-flight requests complete
    /// normally).
    ///
    /// The pool is a binary min-heap ([`ThinkPool`]): each think expiry is
    /// an O(log clients) pop instead of an O(clients) scan, and population
    /// shrink is one selection pass per boundary. Clients are
    /// indistinguishable, so the heap pool reproduces the scan-based
    /// traces bit-for-bit. Returns the kick still owed, as
    /// [`Engine::run_events`] does.
    fn run_events_closed(
        &mut self,
        t_end: f64,
        frac: f64,
        mut kick_at: Option<f64>,
        cl: ClosedLoop,
    ) -> Option<f64> {
        let think = cached_exp(&mut self.think_cache, 1.0 / cl.think_mean_s.max(1e-9));
        let target = (frac * cl.max_clients as f64).round().max(0.0) as usize;
        let mut population = self.thinking.len() + self.node.queue_len() + self.node.in_flight();
        // Grow: new clients start thinking now.
        while population < target {
            let expiry = self.now + think.sample(&mut self.arrival_rng);
            self.thinking.push(expiry);
            population += 1;
        }
        // Shrink: retire the clients that would submit last.
        if population > target {
            self.thinking
                .retire_latest((population - target).min(self.thinking.len()));
        }

        let DemandStream::Inline(demand_rng) = &mut self.demands else {
            unreachable!("a closed loop never starts a demand generator")
        };
        let lc = arrivals::lock_model(&self.lc);
        let mut completions = std::mem::take(&mut self.completions_buf);
        loop {
            let mut t = t_end;
            let mut what = 0u8; // 0 = end, 1 = completion, 2 = think expiry, 3 = kick
            if let Some(x) = self.node.next_completion() {
                if x < t {
                    t = x;
                    what = 1;
                }
            }
            if let Some(x) = self.thinking.peek_min() {
                if x < t {
                    t = x;
                    what = 2;
                }
            }
            if let Some(x) = kick_at {
                if x < t {
                    t = x;
                    what = 3;
                }
            }
            completions.clear();
            self.node.advance_collect(t, &mut completions);
            for &ct in &completions {
                // The responding client starts thinking.
                self.thinking.push(ct + think.sample(&mut self.arrival_rng));
            }
            match what {
                0 => break,
                1 => {}
                2 => {
                    self.thinking.pop_min().expect("think expiry exists");
                    let demand = lc.sample_demand(demand_rng);
                    let demand = straggle(&mut self.req_faults, demand);
                    self.node.arrive(t, demand);
                }
                3 => {
                    self.node.kick(t);
                    kick_at = None;
                }
                _ => unreachable!(),
            }
        }
        self.completions_buf = completions;
        kick_at
    }

    /// `alive_big`/`alive_small` are the LC servers that actually ran
    /// this interval (equal to `cfg.lc` counts unless fault injection
    /// revoked some): the node's busy vector covers exactly those, and
    /// energy gating keys off them so a fully revoked cluster powers down.
    #[allow(clippy::too_many_arguments)]
    fn measure(
        &mut self,
        cfg: MachineConfig,
        frac: f64,
        rate: f64,
        node_iv: NodeInterval,
        batch_cores: &[CoreKind],
        alive_big: usize,
        alive_small: usize,
    ) -> IntervalStats {
        let dur = self.interval_s;
        let big_total = self.platform.cluster(CoreKind::Big).len();
        let small_total = self.platform.cluster(CoreKind::Small).len();

        // Per-core busy fractions in cluster order: LC cores first within
        // each cluster, then batch cores (100% busy), then idle. The
        // buffers are engine-owned and reused across intervals.
        let mut big_busy = std::mem::take(&mut self.big_busy_buf);
        let mut small_busy = std::mem::take(&mut self.small_busy_buf);
        big_busy.clear();
        big_busy.resize(big_total, 0.0);
        small_busy.clear();
        small_busy.resize(small_total, 0.0);
        for i in 0..alive_big {
            big_busy[i] = node_iv.busy[i];
        }
        for i in 0..alive_small {
            small_busy[i] = node_iv.busy[alive_big + i];
        }
        let n_batch_big = batch_cores.iter().filter(|k| **k == CoreKind::Big).count();
        let n_batch_small = batch_cores.len() - n_batch_big;
        for i in 0..n_batch_big {
            big_busy[cfg.lc.n_big + i] = 1.0;
        }
        for i in 0..n_batch_small {
            small_busy[cfg.lc.n_small + i] = 1.0;
        }

        // Perf counters: batch instructions (what HipsterCo reads), LC
        // instructions approximated from busy time, idle stretches for the
        // Juno quirk.
        let mut true_batch_big_ips = 0.0;
        let mut true_batch_small_ips = 0.0;
        for (i, kind) in batch_cores.iter().enumerate() {
            let program = &self.batch_pool[i % self.batch_pool.len()];
            let (core_idx, freq) = match kind {
                CoreKind::Big => (CoreId(cfg.lc.n_big + i), cfg.big_freq),
                CoreKind::Small => {
                    // Small batch cores come after the big batch cores in
                    // `batch_cores`; translate to a platform core id.
                    let small_pos = i - n_batch_big;
                    (
                        CoreId(big_total + cfg.lc.n_small + small_pos),
                        cfg.small_freq,
                    )
                }
            };
            let ips = program.ips(*kind, freq);
            match kind {
                CoreKind::Big => true_batch_big_ips += ips,
                CoreKind::Small => true_batch_small_ips += ips,
            }
            self.counters.record(core_idx, (ips * dur) as u64, 1.0);
        }
        // Cluster IPS at this interval's frequency is per-cluster, not
        // per-core: hoist it out of the busy sweeps.
        let big_lc_ips = self
            .platform
            .cluster(CoreKind::Big)
            .spec()
            .compute_ips(cfg.big_freq);
        let small_lc_ips = self
            .platform
            .cluster(CoreKind::Small)
            .spec()
            .compute_ips(cfg.small_freq);
        for (i, &b) in big_busy.iter().enumerate() {
            if i < alive_big {
                self.counters
                    .record(CoreId(i), (big_lc_ips * b * dur) as u64, b);
            }
            if b < 0.999 {
                self.counters
                    .record_idle_stretch(CoreId(i), (1.0 - b) * dur * 1e6);
            }
        }
        for (i, &b) in small_busy.iter().enumerate() {
            let core = CoreId(big_total + i);
            if i < alive_small {
                self.counters
                    .record(core, (small_lc_ips * b * dur) as u64, b);
            }
            if b < 0.999 {
                self.counters
                    .record_idle_stretch(core, (1.0 - b) * dur * 1e6);
            }
        }

        let (batch_ips_big, batch_ips_small, counters_valid) = match self.counters.read_window(dur)
        {
            Ok(_) => (true_batch_big_ips, true_batch_small_ips, true),
            Err(_) => {
                // Real perf hands back absurd values; reproduce that.
                (1.0e18, 1.0e18, false)
            }
        };

        // A cluster with no latency-critical cores and no batch cores is
        // fully idle: with cpuidle enabled it enters Juno's cluster-off
        // state and its static draw collapses.
        let model = self.power_override.unwrap_or(*self.platform.power_model());
        let big_gated = alive_big == 0 && n_batch_big == 0;
        let small_gated = alive_small == 0 && n_batch_small == 0;
        let power = model.system_power_gated(
            &self.platform,
            cfg.big_freq,
            cfg.small_freq,
            &big_busy,
            &small_busy,
            big_gated,
            small_gated,
        );
        self.meter.advance(dur, power);
        self.big_busy_buf = big_busy;
        self.small_busy_buf = small_busy;

        IntervalStats {
            index: self.index,
            start_s: self.now,
            duration_s: dur,
            config: cfg,
            offered_load_frac: frac,
            offered_rps: rate,
            arrivals: node_iv.arrivals,
            completions: node_iv.completions,
            timeouts: node_iv.timeouts,
            throughput_rps: node_iv.completions as f64 / dur,
            tail_latency_s: node_iv.tail_latency_s,
            mean_latency_s: node_iv.mean_latency_s,
            queue_len: node_iv.queue_len,
            lc_busy: node_iv.busy,
            power,
            energy_j: power.total() * dur,
            batch_ips_big,
            batch_ips_small,
            counters_valid,
            migrated_cores: self.transitioned_cores(&cfg),
        }
    }

    fn transitioned_cores(&self, cfg: &MachineConfig) -> usize {
        match &self.current {
            None => 0,
            Some(prev) => {
                prev.lc.n_big.abs_diff(cfg.lc.n_big) + prev.lc.n_small.abs_diff(cfg.lc.n_small)
            }
        }
    }
}

/// The open-loop event loop: serves the arrivals of the interval from
/// `start` to `gaps.t_end` on `node`, taking each arrival's burst and
/// demands from `demands`. Returns the kick still owed when `kick_at`
/// falls at or after the interval end.
///
/// Each turn takes the earliest of the next arrival, the pending kick and
/// the interval end (an arrival wins a tie with the kick, and both lose
/// one with the end), and first lets the node retire every completion due
/// by then: [`ServiceNode::advance`] retires them in (finish, server)
/// order, each dispatching at its own finish time, so a completion wins
/// any tie. Completions take no turn of their own.
///
/// An arrival's burst goes to the node in runs ([`Demands::demands`]): each
/// run is taken from the demand stream in one call, straggled in place in
/// order, and handed over in one [`ServiceNode::arrive_burst`]. Straggles
/// draw from their own stream, so taking a run before any of it arrives
/// draws what drawing each request's demand and straggle as it arrived
/// did.
fn event_loop(
    node: &mut ServiceNode,
    req_faults: &mut Option<ReqFaults>,
    gaps: &mut Gaps<'_>,
    demands: &mut impl Demands,
    start: f64,
    mut kick_at: Option<f64>,
) -> Option<f64> {
    let t_end = gaps.t_end;
    let mut next_arrival = gaps.after(start);
    loop {
        let mut t = t_end;
        let mut what = 0u8; // 0 = end, 1 = arrival, 2 = kick
        if let Some(x) = next_arrival {
            if x < t {
                t = x;
                what = 1;
            }
        }
        if let Some(x) = kick_at {
            if x < t {
                t = x;
                what = 2;
            }
        }
        node.advance(t);
        match what {
            0 => break,
            1 => {
                let mut left = demands.burst();
                next_arrival = gaps.after(t);
                while left > 0 {
                    let run = demands.demands(left);
                    for d in run.iter_mut() {
                        *d = straggle(req_faults, *d);
                    }
                    node.arrive_burst(t, run);
                    left -= run.len();
                }
            }
            _ => {
                node.kick(t);
                kick_at = None;
            }
        }
    }
    kick_at
}

/// A locked model, dereferencing to the model rather than its box.
struct ModelGuard<'a>(MutexGuard<'a, Box<dyn LcModel>>);

impl Deref for ModelGuard<'_> {
    type Target = dyn LcModel;

    fn deref(&self) -> &Self::Target {
        &**self.0
    }
}

/// Returns the exponential distribution for `rate`, reusing `cache` when
/// the rate is unchanged from the previous interval (so steady-load runs
/// construct each distribution exactly once).
fn cached_exp(cache: &mut Option<(f64, Exponential)>, rate: f64) -> Exponential {
    match *cache {
        Some((r, d)) if r == rate => d,
        _ => {
            let d = Exponential::new(rate);
            *cache = Some((rate, d));
            d
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::time::Duration;

    use super::*;
    use crate::arrivals::{Budget, CHUNK_BURSTS};
    use crate::dist::LogNormal;

    /// A Memcached-like service: lognormal compute demand, a fixed memory
    /// part, geometric bursts, an optional client timeout, and a demand
    /// draw that can be told to panic, first reporting the draw on
    /// `tripped`.
    #[derive(Debug)]
    struct Service {
        max_rps: f64,
        burst_mean: f64,
        timeout: Option<f64>,
        panic_at: Option<u64>,
        tripped: Option<mpsc::Sender<u64>>,
        drawn: Cell<u64>,
    }

    fn service(max_rps: f64, burst_mean: f64) -> Service {
        Service {
            max_rps,
            burst_mean,
            timeout: None,
            panic_at: None,
            tripped: None,
            drawn: Cell::new(0),
        }
    }

    /// Lets every test start as many generators as it asks for.
    static UNCAPPED: Budget = Budget::new(|| usize::MAX);

    impl LcModel for Service {
        fn name(&self) -> &str {
            "service"
        }
        fn max_load_rps(&self) -> f64 {
            self.max_rps
        }
        fn qos(&self) -> QosTarget {
            QosTarget::new(0.95, 0.005)
        }
        fn sample_demand(&self, rng: &mut SimRng) -> Demand {
            let k = self.drawn.get() + 1;
            self.drawn.set(k);
            if self.panic_at == Some(k) {
                if let Some(tripped) = &self.tripped {
                    let _ = tripped.send(k);
                }
                panic!("service model fails on demand draw {k}");
            }
            Demand::new(LogNormal::from_median(50.0, 0.6).sample(rng), 20e-6)
        }
        fn service_speed(&self, kind: CoreKind, freq: Frequency) -> f64 {
            let scale = freq.ratio_to(Frequency::from_mhz(1150));
            match kind {
                CoreKind::Big => 1.0e6 * scale,
                CoreKind::Small => 0.4e6 * scale,
            }
        }
        fn sample_burst(&self, rng: &mut SimRng) -> usize {
            if self.burst_mean <= 1.0 {
                return 1;
            }
            let u = 1.0 - rng.uniform();
            1 + (u.ln() / (1.0 - 1.0 / self.burst_mean).ln()).floor() as usize
        }
        fn mean_burst(&self) -> f64 {
            self.burst_mean.max(1.0)
        }
        fn timeout_s(&self) -> Option<f64> {
            self.timeout
        }
    }

    /// Load fraction `fracs[k % len]` for interval `k` of `interval_s`.
    #[derive(Debug)]
    struct Schedule {
        interval_s: f64,
        fracs: Vec<f64>,
    }

    impl LoadPattern for Schedule {
        fn load_at(&self, t: f64) -> f64 {
            self.fracs[(t / self.interval_s).round() as usize % self.fracs.len()]
        }
        fn duration(&self) -> f64 {
            f64::INFINITY
        }
    }

    fn cfg(label: &str) -> MachineConfig {
        MachineConfig::interactive(&Platform::juno_r1(), label.parse().unwrap())
    }

    /// What one engine did over a differential arm.
    #[derive(Debug, PartialEq)]
    struct Run {
        stats: Vec<IntervalStats>,
        straggles: u64,
        hedges: u64,
        /// `Engine::fault_core_intervals`: (revoked, straggling).
        fault_core_intervals: (u64, u64),
        migrations: u64,
        /// Whether a stall's kick was ever carried across a boundary.
        kick_carried: bool,
    }

    /// One differential arm: how to build its engine, the configurations
    /// to step through, a hook run before each step, and a check that the
    /// run exercised what the arm is named after.
    struct Arm {
        name: &'static str,
        build: fn() -> Engine,
        configs: &'static [&'static str],
        intervals: usize,
        before: fn(&mut Engine, usize),
        exercised: fn(&Run) -> bool,
    }

    /// Steps one engine per demand site through the same configurations:
    /// inline throughout, with a generator from interval 0, and with one
    /// started halfway.
    fn run_sites(arm: &Arm) -> [Run; 3] {
        [None, Some(0), Some(arm.intervals / 2)].map(|start_at| {
            let mut engine = (arm.build)();
            let mut kick_carried = false;
            let stats = (0..arm.intervals)
                .map(|k| {
                    (arm.before)(&mut engine, k);
                    let start = match start_at {
                        Some(at) if k >= at => Start::Now(&UNCAPPED),
                        _ => Start::Never,
                    };
                    let c = cfg(arm.configs[k % arm.configs.len()]);
                    let s = engine.step_with(c, start);
                    kick_carried |= engine.pending_kick.is_some();
                    s
                })
                .collect();
            assert_eq!(
                engine.demands.runs_ahead(),
                start_at.is_some(),
                "{}: generator from interval {start_at:?}",
                arm.name
            );
            Run {
                stats,
                straggles: engine.request_straggles(),
                hedges: engine.hedged_requests(),
                fault_core_intervals: engine.fault_core_intervals(),
                migrations: engine.total_migrations(),
                kick_carried,
            }
        })
    }

    fn engine(lc: Service, fracs: &[f64], interval_s: f64, seed: u64) -> Engine {
        let load = Schedule {
            interval_s,
            fracs: fracs.to_vec(),
        };
        Engine::new(Platform::juno_r1(), Box::new(lc), Box::new(load), seed)
            .with_interval(interval_s)
    }

    fn no_hook(_: &mut Engine, _: usize) {}

    const ARMS: [Arm; 7] = [
        Arm {
            name: "bursts, DVFS changes and remaps",
            build: || engine(service(20_000.0, 10.0), &[0.6, 0.3, 0.8], 0.5, 1),
            configs: &["2B-1.15", "2B-0.90", "1B2S-1.15", "2B4S-1.15"],
            intervals: 12,
            before: no_hook,
            exercised: |r| r.migrations > 0,
        },
        Arm {
            name: "bursts that straddle chunks",
            build: || engine(service(100_000.0, 300.0), &[0.5], 0.1, 2),
            configs: &["2B4S-1.15"],
            intervals: 8,
            before: no_hook,
            exercised: |r| r.stats.iter().any(|s| s.arrivals > 512),
        },
        Arm {
            name: "overload with timeouts",
            build: || {
                let lc = Service {
                    timeout: Some(0.002),
                    ..service(20_000.0, 10.0)
                };
                engine(lc, &[1.6], 0.1, 3)
            },
            configs: &["1S-0.65", "2S-0.65"],
            intervals: 8,
            before: no_hook,
            exercised: |r| r.stats.iter().any(|s| s.timeouts > 0),
        },
        Arm {
            name: "per-request stragglers with hedging",
            build: || {
                engine(service(20_000.0, 4.0), &[0.6], 0.1, 4)
                    .with_faults(FaultSpec::none().with_request_stragglers(0.05, 1.2, 2.0, 40.0))
                    .with_hedging(HedgeSpec::after(3.0))
            },
            configs: &["2B-1.15"],
            intervals: 8,
            before: no_hook,
            exercised: |r| r.straggles > 0 && r.hedges > 0,
        },
        Arm {
            name: "a preempting remap whose stall outlives a 20 ms interval",
            build: || {
                engine(service(20_000.0, 10.0), &[0.9], 0.02, 5)
                    .with_costs(ReconfigCosts::juno_defaults())
            },
            configs: &["2B-1.15", "2B-1.15", "4S-0.65", "4S-0.65"],
            intervals: 16,
            before: no_hook,
            exercised: |r| r.kick_carried,
        },
        Arm {
            name: "per-core faults and revocation",
            build: || {
                let faults = FaultSpec::none()
                    .with_revocations(3.0, 0.2)
                    .with_stragglers(3.0, 0.2, 1.5, 1.5, 4.0);
                engine(service(20_000.0, 10.0), &[0.5], 0.1, 6).with_faults(faults)
            },
            configs: &["2B4S-1.15"],
            intervals: 12,
            before: |e, k| {
                // Intervals 4 and 5 lose the whole node.
                e.set_external_fault(match k {
                    4 | 5 => FaultState::Revoked { warned: false },
                    _ => FaultState::Healthy,
                });
            },
            exercised: |r| r.fault_core_intervals.0 > 0 && r.fault_core_intervals.1 > 0,
        },
        Arm {
            name: "zero-load intervals",
            build: || engine(service(20_000.0, 10.0), &[0.0, 0.7, 0.0, 0.0, 0.4], 0.1, 7),
            configs: &["2B-1.15"],
            intervals: 10,
            before: no_hook,
            exercised: |r| r.stats.iter().any(|s| s.arrivals == 0),
        },
    ];

    #[test]
    fn generator_sites_step_identical_intervals() {
        for arm in &ARMS {
            let [inline, from_start, halfway] = run_sites(arm);
            assert!(
                from_start == inline,
                "{}: a generator from interval 0 differs from inline",
                arm.name
            );
            assert!(
                halfway == inline,
                "{}: a generator started halfway differs from inline",
                arm.name
            );
            assert!(inline.stats.iter().any(|s| s.arrivals > 0), "{}", arm.name);
            assert!((arm.exercised)(&inline), "{} is not exercised", arm.name);
        }
    }

    /// Runs `f` on a thread of its own and returns its result, failing
    /// instead of hanging if it blocks (a hand-off or a join left waiting).
    fn within_two_minutes<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        let runner = std::thread::spawn(move || tx.send(f()).expect("the test waits"));
        let out = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("returns instead of blocking");
        runner.join().expect("the runner sent its result");
        out
    }

    /// An engine with unit bursts at 100 requests per 0.1 s interval, its
    /// demand draw `panic_at` failing.
    fn unit_bursts(panic_at: Option<u64>, tripped: Option<mpsc::Sender<u64>>) -> Engine {
        let lc = Service {
            panic_at,
            tripped,
            ..service(2000.0, 1.0)
        };
        engine(lc, &[0.5], 0.1, 8)
    }

    #[test]
    fn a_generator_panic_surfaces_from_the_step_that_reaches_it() {
        let reference: Vec<IntervalStats> = {
            let mut e = unit_bursts(None, None);
            (0..12)
                .map(|_| e.step_with(cfg("2B-1.15"), Start::Never))
                .collect()
        };
        // Unit bursts draw one demand per arrival, and fill each chunk with
        // `CHUNK_BURSTS` of them: draw n (from 1) sits in chunk
        // (n − 1) / CHUNK_BURSTS. Find an interval k whose last draw shares
        // a chunk with interval k + 1's first, that chunk having begun in k.
        let drawn: Vec<u64> = reference
            .iter()
            .scan(0, |n, s| {
                *n += s.arrivals as u64;
                Some(*n)
            })
            .collect();
        let chunk = |n: u64| (n - 1) / CHUNK_BURSTS as u64;
        let k = (1..drawn.len() - 1)
            .find(|&k| {
                let (before, last, next) = (drawn[k - 1], drawn[k], drawn[k + 1]);
                next > last && chunk(last + 1) == chunk(last) && chunk(last) > chunk(before)
            })
            .expect("a chunk that began in one interval straddles into the next");
        let panic_at = drawn[k] + 1;
        for start in [Start::Never, Start::Now(&UNCAPPED)] {
            let before = reference[..=k].to_vec();
            let msg = within_two_minutes(move || {
                let mut e = unit_bursts(Some(panic_at), None);
                for (i, want) in before.iter().enumerate() {
                    let got = e.step_with(cfg("2B-1.15"), start);
                    assert!(got == *want, "{start:?}: step {i} differs from inline");
                }
                let caught = catch_unwind(AssertUnwindSafe(|| e.step_with(cfg("2B-1.15"), start)));
                let payload = caught.expect_err("the next step reaches the panicking draw");
                if let Start::Now(_) = start {
                    // The generator ended at the panic: a later step panics
                    // too, instead of waiting for a chunk that never comes.
                    let again =
                        catch_unwind(AssertUnwindSafe(|| e.step_with(cfg("2B-1.15"), start)));
                    let again = again.expect_err("the stream has ended");
                    assert_eq!(
                        again.downcast_ref::<&str>(),
                        Some(&"the demand stream ended at a model panic already raised")
                    );
                }
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default()
            });
            assert_eq!(
                msg,
                format!("service model fails on demand draw {panic_at}"),
                "{start:?}"
            );
        }
    }

    #[test]
    fn a_panic_the_run_never_reaches_drops_with_the_engine() {
        within_two_minutes(|| {
            let (tx, rx) = mpsc::channel();
            let mut e = unit_bursts(Some(150), Some(tx));
            let stats = e.step_with(cfg("2B-1.15"), Start::Now(&UNCAPPED));
            assert!(stats.arrivals < 150, "the step stops short of the panic");
            let tripped = rx.recv().expect("the generator draws ahead");
            assert_eq!(tripped, 150, "the generator reached the panicking draw");
            drop(e);
        });
    }

    #[test]
    fn engines_stepped_in_turn_never_start_a_generator() {
        // A cluster's node stage steps its nodes in turn, so each node sees
        // the others' steps between its own and none starts a generator,
        // however heavy its load (4800 expected requests an interval here).
        let heavy = || engine(service(60_000.0, 10.0), &[0.8], 0.1, 10);
        let mut nodes = [heavy(), heavy()];
        for _ in 0..6 {
            for node in &mut nodes {
                node.step_with(cfg("2B4S-1.15"), Start::Gated(&UNCAPPED));
            }
        }
        assert!(nodes.iter().all(|node| !node.demands.runs_ahead()));
    }

    #[test]
    fn a_spent_budget_keeps_an_engine_inline_until_a_drop_frees_its_slot() {
        static ONE: Budget = Budget::new(|| 1);
        let build = || engine(service(20_000.0, 10.0), &[0.6], 0.1, 9);
        let steps = |e: &mut Engine, start: Start| -> Vec<IntervalStats> {
            (0..4).map(|_| e.step_with(cfg("2B-1.15"), start)).collect()
        };
        let inline = steps(&mut build(), Start::Never);
        let mut holder = build();
        assert!(steps(&mut holder, Start::Now(&ONE)) == inline);
        assert!(
            holder.demands.runs_ahead(),
            "the first engine takes the slot"
        );
        let mut refused = build();
        assert!(steps(&mut refused, Start::Now(&ONE)) == inline);
        assert!(
            !refused.demands.runs_ahead(),
            "a spent budget keeps the second engine inline"
        );
        drop(holder);
        let mut next = build();
        assert!(steps(&mut next, Start::Now(&ONE)) == inline);
        assert!(
            next.demands.runs_ahead(),
            "the dropped engine's slot is free"
        );
    }

    #[test]
    #[should_panic(expected = "monitoring interval must be positive, got inf")]
    fn an_infinite_interval_is_rejected() {
        let _ = engine(service(1000.0, 1.0), &[0.5], 1.0, 9).with_interval(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "invalid reconfiguration costs: core_migration_stall_s must be")]
    fn a_nan_migration_stall_is_rejected() {
        let costs = ReconfigCosts {
            core_migration_stall_s: f64::NAN,
            ..ReconfigCosts::juno_defaults()
        };
        let _ = engine(service(1000.0, 1.0), &[0.5], 1.0, 9).with_costs(costs);
    }

    #[test]
    #[should_panic(expected = "invalid contention model: same_cluster_per_batch_core must be")]
    fn a_nan_contention_coefficient_is_rejected() {
        let contention = ContentionModel {
            same_cluster_per_batch_core: f64::NAN,
            ..ContentionModel::juno_defaults()
        };
        let _ = engine(service(1000.0, 1.0), &[0.5], 1.0, 9).with_contention(contention);
    }
}
