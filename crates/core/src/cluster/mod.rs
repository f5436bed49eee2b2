//! The cluster tier: N per-node engines behind a load balancer, with
//! two-tier burst overflow to priced cloud nodes.
//!
//! Everything below the ROADMAP's "millions of users" north star so far
//! simulated one machine. This module scales out: a [`ClusterSim`] owns N
//! [`Manager`]-wrapped engines (each with its own policy instance and a
//! split-seeded RNG), a cluster-level [`Dispatcher`] that places work
//! quanta on nodes from a flat per-node occupancy array, and an optional
//! cloud tier that absorbs bursts past an occupancy
//! watermark at a per-request-second dollar price.
//!
//! # Model
//!
//! Each monitoring interval, the cluster [`LoadPattern`] yields an offered
//! fraction `L` of *private-tier* capacity. That volume is discretized
//! into **quanta** — `round(L · q · N)` of them, each worth `1/q` of one
//! node-interval at max load, with `q = quanta_per_node`. The dispatcher
//! places quanta one at a time on its occupancy signal; occupancy carries
//! across intervals as each node's end-of-interval queue backlog
//! (quantized to quanta). A node assigned `k` quanta then runs its engine
//! interval at load fraction `k/q` — per-node queueing, latency, energy
//! and policy decisions all come from the existing single-machine engine,
//! untouched. Cluster-wide p95/p99 are selection-based percentiles over
//! the per-node tails, and admission spills quanta to the cloud tier
//! whenever private occupancy sits at or above the watermark.
//!
//! Every dispatch decision folds into an FNV-1a digest, so two runs can
//! be compared event for event — the hook the determinism suites use and
//! the per-policy pins in this module's tests hold fixed.
//!
//! # One interval
//!
//! [`ClusterSim::step`] runs an interval as a list of phases: the fault
//! overlay (node and domain fault states, the retry drain), the occupancy
//! publish, admission (the brownout ladder), placement, the node stage
//! and the fold. Once placement has assigned every node its load, the
//! nodes' engine steps are independent, so the node stage runs them on
//! up to one thread per available core, each thread claiming small node
//! chunks from a shared iterator. The thread count is derived, never
//! configured: it is capped at one thread per 16 nodes, so small clusters
//! and one-core hosts step inline on the calling thread. Each node's
//! result lands in its own slot, and the fold reads the slots in node
//! order, so every sum and digest fold is identical at any thread count.
//! A node's panic is re-raised after the stage from the lowest-index
//! failing node, on the calling thread.
//!
//! # Example
//!
//! ```
//! use hipster_core::cluster::{ClusterSpec, DispatchPolicy, OverflowSpec};
//! use hipster_core::StaticPolicy;
//! use hipster_platform::Platform;
//! use hipster_workloads::{memcached, Constant};
//!
//! let outcome = ClusterSpec::new("demo", Platform::juno_r1())
//!     .workload_with(|| Box::new(memcached()))
//!     .load(Constant::new(0.7, 4.0))
//!     .policy(|p: &hipster_platform::Platform, _s: u64| {
//!         Box::new(StaticPolicy::all_big(p)) as Box<dyn hipster_core::Policy>
//!     })
//!     .dispatch(DispatchPolicy::PowerOfTwo)
//!     .private_nodes(8)
//!     .cloud_nodes(2)
//!     .overflow(OverflowSpec::new(0.85, 1e-4))
//!     .intervals(4)
//!     .interval_s(0.05)
//!     .seed(7)
//!     .build()
//!     .unwrap()
//!     .run();
//! assert_eq!(outcome.summary.intervals, 4);
//! ```

pub mod admission;
pub mod dispatch;
pub mod metrics;
pub mod overflow;
pub mod retry;

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hipster_platform::Platform;
use hipster_sim::{
    host_cores, BatchProgram, DomainFaultSpec, EngineSpec, EngineSpecError, FaultPlan, FaultSpec,
    FaultSpecError, FaultState, HedgeSpec, IntervalStats, LcModel, LoadPattern, QosTarget, SimRng,
    TopologySpec, WavePlan,
};

use crate::fleet::split_seed;
use crate::manager::Manager;
use crate::scenario::{BatchDeadline, PolicyFactory};

pub use admission::AdmissionSpec;
pub use dispatch::{DispatchPolicy, Dispatcher};
pub use metrics::{cluster_tails, ClusterInterval, ClusterSummary, ClusterTrace};
pub use overflow::{CloudBill, OverflowSpec};
pub use retry::RetrySpec;

/// Why a [`ClusterSpec`] failed to validate.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// No workload factory was supplied.
    MissingWorkload,
    /// No cluster load pattern was supplied.
    MissingLoad,
    /// No per-node policy factory was supplied.
    MissingPolicy,
    /// The private tier has zero nodes.
    NoPrivateNodes,
    /// The cluster would run for zero monitoring intervals.
    ZeroIntervals,
    /// `quanta_per_node` is zero — no dispatch granularity.
    ZeroQuanta,
    /// Cloud nodes were declared without an overflow rule.
    CloudWithoutOverflow,
    /// An overflow rule was declared without cloud nodes.
    OverflowWithoutCloud,
    /// The overflow watermark is outside `(0, 1]`.
    InvalidWatermark {
        /// The rejected watermark.
        watermark: f64,
    },
    /// The cloud price is negative or non-finite.
    InvalidCost {
        /// The rejected dollars-per-request-second.
        usd_per_req_s: f64,
    },
    /// A per-node engine knob is invalid (interval length, jitter sigma).
    Engine(EngineSpecError),
    /// The fault-injection spec is invalid (negative rate, probability
    /// outside `[0, 1]`, slowdown below one, ...).
    Fault(FaultSpecError),
    /// The retry policy allows zero re-dispatch attempts.
    ZeroRetryAttempts,
    /// The retry backoff cap is zero intervals.
    ZeroBackoffCap,
    /// The declared topology does not address exactly the private tier.
    TopologyNodeMismatch {
        /// Nodes the topology addresses.
        topology_nodes: usize,
        /// Private-tier nodes the cluster actually has.
        private_nodes: usize,
    },
    /// Domain fault waves were declared without a topology to aim at.
    WavesWithoutTopology,
    /// An overload-protection knob is invalid.
    InvalidAdmission {
        /// Which knob was rejected.
        what: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A batch deadline was declared without a batch workload.
    DeadlineWithoutBatch,
    /// The batch deadline has zero tasks, non-positive work or a
    /// non-positive due time.
    InvalidDeadline,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::MissingWorkload => f.write_str("cluster has no workload"),
            ClusterError::MissingLoad => f.write_str("cluster has no load pattern"),
            ClusterError::MissingPolicy => f.write_str("cluster has no per-node policy"),
            ClusterError::NoPrivateNodes => f.write_str("cluster needs at least one private node"),
            ClusterError::ZeroIntervals => {
                f.write_str("cluster must run for at least one interval")
            }
            ClusterError::ZeroQuanta => f.write_str("quanta_per_node must be at least one"),
            ClusterError::CloudWithoutOverflow => {
                f.write_str("cloud nodes declared but no overflow rule; call overflow(...)")
            }
            ClusterError::OverflowWithoutCloud => {
                f.write_str("overflow rule declared but cloud_nodes is zero")
            }
            ClusterError::InvalidWatermark { watermark } => {
                write!(f, "overflow watermark {watermark} is outside (0, 1]")
            }
            ClusterError::InvalidCost { usd_per_req_s } => {
                write!(f, "cloud price {usd_per_req_s} $/req-s is invalid")
            }
            ClusterError::Engine(e) => write!(f, "per-node engine: {e}"),
            ClusterError::Fault(e) => write!(f, "fault spec: {e}"),
            ClusterError::ZeroRetryAttempts => {
                f.write_str("retry policy must allow at least one attempt")
            }
            ClusterError::ZeroBackoffCap => {
                f.write_str("retry backoff cap must be at least one interval")
            }
            ClusterError::TopologyNodeMismatch {
                topology_nodes,
                private_nodes,
            } => write!(
                f,
                "topology addresses {topology_nodes} nodes but the private tier has {private_nodes}"
            ),
            ClusterError::WavesWithoutTopology => {
                f.write_str("domain fault waves declared but no topology; call topology(...)")
            }
            ClusterError::InvalidAdmission { what, value } => {
                write!(f, "admission {what} is invalid: {value}")
            }
            ClusterError::DeadlineWithoutBatch => {
                f.write_str("batch deadline declared but no batch workload; call batch_with(...)")
            }
            ClusterError::InvalidDeadline => {
                f.write_str("batch deadline needs tasks >= 1 and positive work and due time")
            }
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Engine(e) => Some(e),
            ClusterError::Fault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineSpecError> for ClusterError {
    fn from(e: EngineSpecError) -> Self {
        ClusterError::Engine(e)
    }
}

/// Declarative description of a cluster run, mirroring
/// [`ScenarioSpec`](crate::ScenarioSpec): builders accumulate, `build`
/// validates with typed errors and wires every node.
pub struct ClusterSpec {
    name: String,
    platform: Platform,
    workload: Option<Box<dyn Fn() -> Box<dyn LcModel> + Send + Sync>>,
    load: Option<Box<dyn LoadPattern>>,
    policy: Option<Box<dyn PolicyFactory>>,
    dispatch: DispatchPolicy,
    private_nodes: usize,
    cloud_nodes: usize,
    overflow: Option<OverflowSpec>,
    quanta_per_node: usize,
    intervals: usize,
    interval_s: f64,
    seed: u64,
    faults: FaultSpec,
    retry: RetrySpec,
    mitigation: bool,
    topology: Option<TopologySpec>,
    waves: DomainFaultSpec,
    hedge: HedgeSpec,
    admission: AdmissionSpec,
    batch: Option<Box<dyn Fn() -> Vec<Box<dyn BatchProgram>> + Send + Sync>>,
    deadline: Option<BatchDeadline>,
}

impl std::fmt::Debug for ClusterSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSpec")
            .field("name", &self.name)
            .field("dispatch", &self.dispatch)
            .field("private_nodes", &self.private_nodes)
            .field("cloud_nodes", &self.cloud_nodes)
            .field("overflow", &self.overflow)
            .field("quanta_per_node", &self.quanta_per_node)
            .field("intervals", &self.intervals)
            .field("interval_s", &self.interval_s)
            .field("seed", &self.seed)
            .field("faults", &self.faults)
            .field("mitigation", &self.mitigation)
            .field("topology", &self.topology)
            .field("waves", &self.waves)
            .field("hedge", &self.hedge)
            .field("admission", &self.admission)
            .field("deadline", &self.deadline)
            .finish_non_exhaustive()
    }
}

impl ClusterSpec {
    /// Starts a cluster description: power-of-two-choices dispatch, four
    /// quanta per node, 1 s intervals, seed 0, no cloud tier.
    pub fn new(name: impl Into<String>, platform: Platform) -> Self {
        ClusterSpec {
            name: name.into(),
            platform,
            workload: None,
            load: None,
            policy: None,
            dispatch: DispatchPolicy::PowerOfTwo,
            private_nodes: 0,
            cloud_nodes: 0,
            overflow: None,
            quanta_per_node: 4,
            intervals: 0,
            interval_s: 1.0,
            seed: 0,
            faults: FaultSpec::none(),
            retry: RetrySpec::default(),
            mitigation: true,
            topology: None,
            waves: DomainFaultSpec::none(),
            hedge: HedgeSpec::none(),
            admission: AdmissionSpec::none(),
            batch: None,
            deadline: None,
        }
    }

    /// Sets the per-node workload factory (one fresh model per node).
    pub fn workload_with(
        mut self,
        f: impl Fn() -> Box<dyn LcModel> + Send + Sync + 'static,
    ) -> Self {
        self.workload = Some(Box::new(f));
        self
    }

    /// Sets the cluster-level load pattern (fraction of private-tier
    /// capacity).
    pub fn load(mut self, pattern: impl LoadPattern + 'static) -> Self {
        self.load = Some(Box::new(pattern));
        self
    }

    /// Sets the per-node policy factory; each node gets its own policy
    /// built from its split seed.
    pub fn policy(mut self, factory: impl PolicyFactory + 'static) -> Self {
        self.policy = Some(Box::new(factory));
        self
    }

    /// Selects the load-balancing policy (default: power-of-two-choices).
    pub fn dispatch(mut self, policy: DispatchPolicy) -> Self {
        self.dispatch = policy;
        self
    }

    /// Sets the private-tier node count.
    pub fn private_nodes(mut self, n: usize) -> Self {
        self.private_nodes = n;
        self
    }

    /// Sets the cloud-tier node count (requires [`overflow`](Self::overflow)).
    pub fn cloud_nodes(mut self, n: usize) -> Self {
        self.cloud_nodes = n;
        self
    }

    /// Declares the overflow admission rule and cloud price.
    pub fn overflow(mut self, spec: OverflowSpec) -> Self {
        self.overflow = Some(spec);
        self
    }

    /// Sets the dispatch granularity: quanta per node-interval at max
    /// load (default 4).
    pub fn quanta_per_node(mut self, q: usize) -> Self {
        self.quanta_per_node = q;
        self
    }

    /// Sets how many monitoring intervals to simulate.
    pub fn intervals(mut self, n: usize) -> Self {
        self.intervals = n;
        self
    }

    /// Sets the monitoring interval length in seconds (default 1.0).
    pub fn interval_s(mut self, s: f64) -> Self {
        self.interval_s = s;
        self
    }

    /// Sets the cluster base seed; node `i` runs on `split_seed(seed, i)`.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Injects faults into the private tier: transient revocations and
    /// straggler episodes per [`FaultSpec`], drawn from a dedicated
    /// split-seeded stream. `FaultSpec::none()` (the default) leaves the
    /// run byte-identical to a fault-free cluster.
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.faults = spec;
        self
    }

    /// Sets the retry policy for work stranded on revoked nodes.
    pub fn retry(mut self, spec: RetrySpec) -> Self {
        self.retry = spec;
        self
    }

    /// Toggles resilience mitigation (default on). With mitigation off,
    /// faults still strike the nodes but the dispatcher keeps feeding
    /// revoked and straggling nodes as if nothing happened, no request
    /// is hedged and the admission ladder never trips — the ablation
    /// baseline for `BENCH_PR8.json` / `BENCH_PR10.json`.
    pub fn mitigation(mut self, on: bool) -> Self {
        self.mitigation = on;
        self
    }

    /// Declares the private tier's failure-domain layout (node → rack →
    /// zone). Required by [`domain_faults`](Self::domain_faults); also
    /// teaches the dispatcher to steer around degraded domains when
    /// mitigation is on.
    pub fn topology(mut self, topo: TopologySpec) -> Self {
        self.topology = Some(topo);
        self
    }

    /// Schedules correlated fault waves over whole zones and racks per
    /// [`DomainFaultSpec`], drawn from a dedicated `fork("waves")`
    /// stream. `DomainFaultSpec::none()` (the default) leaves the run
    /// byte-identical to a wave-free cluster.
    pub fn domain_faults(mut self, spec: DomainFaultSpec) -> Self {
        self.waves = spec;
        self
    }

    /// Arms per-request hedging on every private node: a request whose
    /// straggler multiplier exceeds `1 + delay_multiple` is re-issued
    /// and the loser cancelled. Only acts when mitigation is on.
    pub fn hedge(mut self, spec: HedgeSpec) -> Self {
        self.hedge = spec;
        self
    }

    /// Arms the overload-protection brownout ladder (shed colocated
    /// batch, then defer best-effort arrivals). Only acts when
    /// mitigation is on.
    pub fn admission(mut self, spec: AdmissionSpec) -> Self {
        self.admission = spec;
        self
    }

    /// Gives every private node a colocated batch pool (one fresh pool
    /// per node) — the sheddable tenant the admission ladder acts on.
    pub fn batch_with(
        mut self,
        f: impl Fn() -> Vec<Box<dyn BatchProgram>> + Send + Sync + 'static,
    ) -> Self {
        self.batch = Some(Box::new(f));
        self
    }

    /// Declares a cluster-wide deadline for the colocated batch bag;
    /// [`ClusterSummary::deadline_miss_pct`] reports the late fraction.
    pub fn batch_deadline(mut self, deadline: BatchDeadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Checks the description without building it.
    pub fn validate(&self) -> Result<(), ClusterError> {
        if self.workload.is_none() {
            return Err(ClusterError::MissingWorkload);
        }
        if self.load.is_none() {
            return Err(ClusterError::MissingLoad);
        }
        if self.policy.is_none() {
            return Err(ClusterError::MissingPolicy);
        }
        if self.private_nodes == 0 {
            return Err(ClusterError::NoPrivateNodes);
        }
        if self.intervals == 0 {
            return Err(ClusterError::ZeroIntervals);
        }
        if self.quanta_per_node == 0 {
            return Err(ClusterError::ZeroQuanta);
        }
        match (&self.overflow, self.cloud_nodes) {
            (None, 0) => {}
            (None, _) => return Err(ClusterError::CloudWithoutOverflow),
            (Some(_), 0) => return Err(ClusterError::OverflowWithoutCloud),
            (Some(of), _) => of.validate()?,
        }
        self.faults.validate().map_err(ClusterError::Fault)?;
        self.retry.validate()?;
        match &self.topology {
            Some(topo) if topo.nodes() != self.private_nodes => {
                return Err(ClusterError::TopologyNodeMismatch {
                    topology_nodes: topo.nodes(),
                    private_nodes: self.private_nodes,
                });
            }
            Some(_) => {}
            None if !self.waves.is_none() => return Err(ClusterError::WavesWithoutTopology),
            None => {}
        }
        self.waves.validate().map_err(ClusterError::Fault)?;
        self.hedge.validate().map_err(ClusterError::Fault)?;
        self.admission.validate()?;
        if self.deadline.is_some() && self.batch.is_none() {
            return Err(ClusterError::DeadlineWithoutBatch);
        }
        if let Some(d) = &self.deadline {
            if !d.valid() {
                return Err(ClusterError::InvalidDeadline);
            }
        }
        // Engine knobs are validated by EngineSpec::build per node; check
        // the shared interval length up front for a better error.
        let mut probe = EngineSpec::seeded(self.seed);
        probe.interval_s = self.interval_s;
        probe.validate()?;
        Ok(())
    }

    /// Validates and wires the cluster: one engine + policy + split seed
    /// per node, dispatchers per tier.
    pub fn build(self) -> Result<ClusterSim, ClusterError> {
        self.validate()?;
        let workload = self.workload.expect("validated");
        let policy = self.policy.expect("validated");
        let load = self.load.expect("validated");
        let q = self.quanta_per_node;
        // Carry (backlog) may stack on top of a full interval's quota;
        // clamp the occupancy signal well above both.
        let cap = (4 * q).max(8) as u32;

        let probe = workload();
        let qos = probe.qos();
        let reqs_per_quantum = probe.max_load_rps() * self.interval_s / q as f64;

        let total = self.private_nodes + self.cloud_nodes;
        let mut nodes = Vec::with_capacity(total);
        for i in 0..total {
            let node_seed = split_seed(self.seed, i as u64);
            let cell = Arc::new(AtomicU64::new(0f64.to_bits()));
            let mut espec = EngineSpec::seeded(node_seed);
            espec.interval_s = self.interval_s;
            // Private nodes suffer the spec's per-request stragglers and
            // (mitigation on) hedge against them; node-level revocation /
            // straggler episodes stay cluster-imposed via the fault
            // overlay, so the unit families are stripped here.
            let batch_pool = if i < self.private_nodes {
                espec.faults = self.faults.request_only();
                if self.mitigation {
                    espec.hedge = self.hedge;
                }
                self.batch.as_ref().map(|f| f()).unwrap_or_default()
            } else {
                Vec::new()
            };
            let collocate = !batch_pool.is_empty();
            let engine = espec.build(
                self.platform.clone(),
                workload(),
                Box::new(SharedLoad(cell.clone())),
                batch_pool,
            )?;
            let mut manager = Manager::new(engine, policy.build(&self.platform, node_seed));
            if collocate {
                manager = manager.collocated();
            }
            manager.set_run_identity(format!("{}/node{i}", self.name), node_seed);
            nodes.push(NodeSlot {
                manager,
                cell,
                carry: 0,
                stats: None,
            });
        }

        let mut private_dispatch = Dispatcher::new(self.dispatch, self.private_nodes, cap);
        if self.mitigation {
            if let Some(topo) = &self.topology {
                let zone_of = (0..self.private_nodes)
                    .map(|i| topo.zone_of(i) as u16)
                    .collect();
                let rack_of = (0..self.private_nodes)
                    .map(|i| topo.rack_of(i) as u16)
                    .collect();
                private_dispatch.set_topology(zone_of, rack_of);
            }
        }
        let cloud_dispatch =
            (self.cloud_nodes > 0).then(|| Dispatcher::new(self.dispatch, self.cloud_nodes, cap));

        // Node-level fault timelines ride their own split stream so the
        // dispatcher RNG is untouched whether or not faults are on.
        // Request-straggler knobs live inside the node engines, so only
        // the unit families warrant a cluster-level plan.
        let faults = self.faults.has_unit_faults().then(|| {
            FaultPlan::new(
                self.faults,
                split_seed(self.seed, u64::MAX - 1),
                self.private_nodes,
            )
        });
        // Domain waves ride yet another stream (`fork("waves")`), split
        // per zone / rack inside the plan, so arming them leaves both
        // the node-fault and dispatcher streams untouched.
        let waves = (!self.waves.is_none()).then(|| {
            let topo = self.topology.expect("validated");
            let base = SimRng::seed(self.seed).fork("waves").next_u64();
            WavePlan::new(self.waves, topo, base)
        });
        let (num_zones, num_racks) = match (&waves, &self.topology) {
            (Some(_), Some(topo)) => (topo.num_zones(), topo.num_racks()),
            _ => (0, 0),
        };

        Ok(ClusterSim {
            name: self.name,
            workers: stage_workers(total),
            nodes,
            n_private: self.private_nodes,
            private_dispatch,
            cloud_dispatch,
            overflow: self.overflow,
            load,
            qos,
            q,
            cap,
            reqs_per_quantum,
            interval_s: self.interval_s,
            intervals_total: self.intervals,
            stepped: 0,
            rng: SimRng::seed(split_seed(self.seed, u64::MAX)),
            digest: FNV_OFFSET,
            decisions: 0,
            bill: CloudBill::default(),
            trace: ClusterTrace::new(),
            assigned: vec![0; total],
            scratch_tails: Vec::with_capacity(total),
            faults,
            retry: self.retry,
            mitigation: self.mitigation,
            node_fault: vec![FaultState::Healthy; self.private_nodes],
            retries: Vec::new(),
            retry_scratch: Vec::new(),
            waves,
            admission: self.admission,
            deadline: self.deadline,
            has_batch: self.batch.is_some(),
            shedding: false,
            deferred: 0,
            zone_bad: vec![false; num_zones],
            rack_bad: vec![false; num_racks],
            prev_hedged: 0,
            prev_straggled: 0,
        })
    }
}

/// A per-node load cell: the dispatcher writes the node's assigned load
/// fraction before each engine step, and the engine's [`LoadPattern`]
/// reads it back. Bits of an `f64` in an `AtomicU64` keep the pattern
/// `Send` without locks.
#[derive(Debug, Clone)]
struct SharedLoad(Arc<AtomicU64>);

impl LoadPattern for SharedLoad {
    fn load_at(&self, _t: f64) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn duration(&self) -> f64 {
        f64::INFINITY
    }
}

struct NodeSlot {
    manager: Manager,
    cell: Arc<AtomicU64>,
    /// Backlog carried into the next interval, in quanta.
    carry: u32,
    /// This interval's engine result (or its panic), written by whichever
    /// node-stage worker stepped the node and taken by the fold.
    stats: Option<std::thread::Result<IntervalStats>>,
}

/// Fewest nodes that earn a node-stage worker thread. On a 2-core host a
/// scoped spawn and join costs about 46 µs and one node interval 16–20 µs,
/// so clusters under twice this size step inline on the calling thread.
const MIN_NODES_PER_WORKER: usize = 16;

/// Nodes a node-stage worker claims at a time: small enough that workers
/// even out nodes of unequal cost (private vs cloud, faulted vs healthy).
const NODE_CHUNK: usize = 8;

/// The node stage's worker count: one per available core, capped so each
/// worker gets at least [`MIN_NODES_PER_WORKER`] nodes.
fn stage_workers(nodes: usize) -> usize {
    match nodes / MIN_NODES_PER_WORKER {
        0 | 1 => 1,
        cap => host_cores().min(cap),
    }
}

/// Steps every node's engine interval on `workers` threads, the calling
/// thread among them (one worker runs inline, spawning nothing). Workers
/// claim [`NODE_CHUNK`]-node chunks from one shared iterator, and each
/// node's result, or its caught panic, lands in the node's own slot.
fn step_nodes(nodes: &mut [NodeSlot], workers: usize) {
    let chunks = Mutex::new(nodes.chunks_mut(NODE_CHUNK));
    let claim = || chunks.lock().expect("node chunk cursor poisoned").next();
    let work = || {
        while let Some(chunk) = claim() {
            for slot in chunk {
                slot.stats = Some(catch_unwind(AssertUnwindSafe(|| slot.manager.step())));
            }
        }
    };
    if workers <= 1 {
        return work();
    }
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        work();
        // Join each helper outright: a scope's implicit join returns
        // before the thread has released its malloc arena, so the next
        // interval's helper could open yet another arena.
        for helper in helpers {
            helper.join().expect("node-stage workers catch node panics");
        }
    });
}

/// What one interval's phases hand each other, from
/// [`ClusterSim::begin`] to the fold.
#[derive(Debug, Default)]
struct StepCtx {
    idx: u64,
    now: f64,
    /// Offered fraction of private-tier capacity.
    offered: f64,
    capacity_quanta: u64,
    /// Fresh quanta the offered load amounts to.
    total_quanta: usize,
    have_faults: bool,
    revoked_nodes: usize,
    straggling_nodes: usize,
    /// Retried quanta joining this interval's placement, placed first.
    retried_quanta: usize,
    dropped_quanta: usize,
    all_private_masked: bool,
    deferred_now: usize,
    released_quanta: usize,
    spilled: usize,
}

/// A batch of quanta stranded by a revocation, waiting out its backoff.
#[derive(Debug, Clone, Copy)]
struct RetryBatch {
    /// Interval index at which the batch becomes eligible again.
    due: u64,
    /// Re-dispatch attempts consumed so far (1-based).
    attempt: u32,
    /// Quanta in the batch.
    count: u32,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one value into an FNV-1a digest (little-endian bytes).
fn fnv_fold(mut hash: u64, value: u64) -> u64 {
    for b in value.to_le_bytes() {
        hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A wired, running cluster: call [`step`](Self::step) interval by
/// interval or [`run`](Self::run) to completion.
pub struct ClusterSim {
    name: String,
    nodes: Vec<NodeSlot>,
    /// Node-stage threads, derived at build by [`stage_workers`].
    workers: usize,
    n_private: usize,
    private_dispatch: Dispatcher,
    cloud_dispatch: Option<Dispatcher>,
    overflow: Option<OverflowSpec>,
    load: Box<dyn LoadPattern>,
    qos: QosTarget,
    q: usize,
    cap: u32,
    reqs_per_quantum: f64,
    interval_s: f64,
    intervals_total: usize,
    stepped: usize,
    rng: SimRng,
    digest: u64,
    decisions: u64,
    bill: CloudBill,
    trace: ClusterTrace,
    assigned: Vec<u32>,
    scratch_tails: Vec<f64>,
    faults: Option<FaultPlan>,
    retry: RetrySpec,
    mitigation: bool,
    node_fault: Vec<FaultState>,
    retries: Vec<RetryBatch>,
    retry_scratch: Vec<RetryBatch>,
    waves: Option<WavePlan>,
    admission: AdmissionSpec,
    deadline: Option<BatchDeadline>,
    has_batch: bool,
    /// Whether the shed rung is currently tripped.
    shedding: bool,
    /// Best-effort quanta parked by the defer rung, awaiting release.
    deferred: u64,
    zone_bad: Vec<bool>,
    rack_bad: Vec<bool>,
    /// Cumulative hedged-request count across nodes at last interval end.
    prev_hedged: u64,
    /// Cumulative straggled-request count at last interval end.
    prev_straggled: u64,
}

impl std::fmt::Debug for ClusterSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSim")
            .field("name", &self.name)
            .field("nodes", &self.nodes.len())
            .field("private", &self.n_private)
            .field("dispatch", &self.private_dispatch.policy())
            .field("stepped", &self.stepped)
            .finish_non_exhaustive()
    }
}

impl ClusterSim {
    /// The cluster's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total node count (private + cloud).
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Private-tier node count.
    pub fn private_nodes(&self) -> usize {
        self.n_private
    }

    /// Intervals simulated so far.
    pub fn stepped(&self) -> usize {
        self.stepped
    }

    /// FNV-1a digest over every dispatch decision so far (tier tag +
    /// node index per quantum): byte-identical runs have equal digests.
    pub fn decision_digest(&self) -> u64 {
        self.digest
    }

    /// The trace so far.
    pub fn trace(&self) -> &ClusterTrace {
        &self.trace
    }

    /// Simulates one monitoring interval across every node and returns
    /// its cluster-wide aggregate.
    pub fn step(&mut self) -> ClusterInterval {
        let mut cx = self.begin();
        if cx.have_faults {
            self.fault_overlay(&mut cx);
        }
        self.publish_occupancy();
        if self.mitigation && !self.admission.is_none() {
            self.admit(&mut cx);
        }
        self.place(&mut cx);
        self.node_stage(&cx);
        let interval = self.fold(&cx);
        self.trace.push(interval.clone());
        self.stepped += 1;
        interval
    }

    /// Reads the interval's offered load and sizes it in quanta.
    fn begin(&self) -> StepCtx {
        let now = self.stepped as f64 * self.interval_s;
        let offered = self.load.load_at(now).max(0.0);
        let capacity_quanta = (self.n_private * self.q) as u64;
        StepCtx {
            idx: self.stepped as u64,
            now,
            offered,
            capacity_quanta,
            total_quanta: (offered * capacity_quanta as f64).round() as usize,
            have_faults: self.faults.is_some() || self.waves.is_some(),
            ..StepCtx::default()
        }
    }

    /// Fault overlay: node fault states, degraded domains and the retry
    /// drain. It runs only with a node or wave plan armed; without one
    /// nothing folds into the digest and nothing is touched, so the run
    /// stays byte-identical to a fault-free cluster.
    fn fault_overlay(&mut self, cx: &mut StepCtx) {
        self.sample_node_faults(cx);
        if self.mitigation {
            self.flag_degraded_domains(cx.now);
        }
        self.drain_retries(cx);
    }

    /// Samples each private node's fault state — the correlated wave
    /// state of its zone and rack combined with its own independent
    /// timeline. On a fresh revocation (mitigation on) masks the node out
    /// of dispatch and strands its carried backlog into the retry queue.
    /// A warned revocation re-dispatches immediately; an unwarned one
    /// waits out the base backoff first.
    fn sample_node_faults(&mut self, cx: &mut StepCtx) {
        for i in 0..self.n_private {
            let mut state = match self.waves.as_mut() {
                Some(w) => w.state(i, cx.now),
                None => FaultState::Healthy,
            };
            if let Some(plan) = self.faults.as_mut() {
                state = FaultState::combine(state, plan.state(i, cx.now));
            }
            self.node_fault[i] = state;
            match state {
                FaultState::Revoked { warned } => {
                    cx.revoked_nodes += 1;
                    if self.mitigation {
                        if !self.private_dispatch.is_masked(i) {
                            self.private_dispatch.set_masked(i, true);
                            self.digest = fnv_fold(self.digest, (2 << 32) | i as u64);
                        }
                        let carry = self.nodes[i].carry;
                        if carry > 0 {
                            let due = if warned {
                                cx.idx
                            } else {
                                cx.idx + self.retry.backoff_for(0)
                            };
                            self.retries.push(RetryBatch {
                                due,
                                attempt: 1,
                                count: carry,
                            });
                            self.nodes[i].carry = 0;
                        }
                    }
                }
                FaultState::Straggling { .. } | FaultState::Healthy => {
                    if state.is_faulted() {
                        cx.straggling_nodes += 1;
                    }
                    if self.private_dispatch.is_masked(i) {
                        self.private_dispatch.set_masked(i, false);
                        self.digest = fnv_fold(self.digest, (3 << 32) | i as u64);
                    }
                }
            }
        }
        cx.all_private_masked = (0..self.n_private).all(|i| self.private_dispatch.is_masked(i));
    }

    /// Tells the dispatcher which whole domains are degraded this
    /// interval so p2c re-probes and retry placement steer toward
    /// survivors; every transition folds into the digest (tag 7 = zone,
    /// tag 8 = rack).
    fn flag_degraded_domains(&mut self, now: f64) {
        let Some(w) = self.waves.as_mut() else {
            return;
        };
        for z in 0..self.zone_bad.len() {
            let bad = w.zone_state(z, now).is_faulted();
            if bad != self.zone_bad[z] {
                self.zone_bad[z] = bad;
                self.private_dispatch.set_domain_degraded(false, z, bad);
                self.digest = fnv_fold(self.digest, (7 << 32) | ((z as u64) << 1) | u64::from(bad));
            }
        }
        for r in 0..self.rack_bad.len() {
            let bad = w.rack_state(r, now).is_faulted();
            if bad != self.rack_bad[r] {
                self.rack_bad[r] = bad;
                self.private_dispatch.set_domain_degraded(true, r, bad);
                self.digest = fnv_fold(self.digest, (8 << 32) | ((r as u64) << 1) | u64::from(bad));
            }
        }
    }

    /// Drains due retry batches back into this interval's dispatch
    /// volume; batches out of attempts with nowhere to go are dropped,
    /// the rest wait out an exponentially longer backoff.
    fn drain_retries(&mut self, cx: &mut StepCtx) {
        let any_private = !cx.all_private_masked;
        let can_spill = self.cloud_dispatch.is_some() && self.overflow.is_some();
        let mut parked = std::mem::take(&mut self.retry_scratch);
        parked.clear();
        for batch in self.retries.drain(..) {
            if batch.due > cx.idx {
                parked.push(batch);
            } else if any_private || can_spill {
                cx.retried_quanta += batch.count as usize;
                self.digest = fnv_fold(self.digest, (4 << 32) | u64::from(batch.count));
            } else if batch.attempt >= self.retry.max_attempts {
                cx.dropped_quanta += batch.count as usize;
                self.digest = fnv_fold(self.digest, (5 << 32) | u64::from(batch.count));
            } else {
                parked.push(RetryBatch {
                    due: cx.idx + self.retry.backoff_for(batch.attempt),
                    attempt: batch.attempt + 1,
                    count: batch.count,
                });
            }
        }
        std::mem::swap(&mut self.retries, &mut parked);
        self.retry_scratch = parked;
    }

    /// Occupancy publish: each node's interval-start occupancy is its
    /// carried backlog. Masked (revoked) nodes report their full capacity
    /// share (`q`) so the watermark sees exactly the lost capacity — mass
    /// revocation then overflows to the cloud tier as graceful
    /// degradation. Straggling nodes (mitigation on) report the capacity
    /// fraction a slowdown of `s` actually forfeits, `(1 - 1/s)·q`, so
    /// power-of-two picks steer around them without the watermark
    /// over-counting.
    fn publish_occupancy(&mut self) {
        for i in 0..self.n_private {
            let occ = if self.private_dispatch.is_masked(i) {
                (self.q as u32).max(self.nodes[i].carry)
            } else if self.mitigation {
                match self.node_fault[i] {
                    FaultState::Straggling { slowdown } => {
                        let penalty = ((1.0 - 1.0 / slowdown) * self.q as f64).round() as u32;
                        self.nodes[i].carry.saturating_add(penalty).min(self.cap)
                    }
                    _ => self.nodes[i].carry,
                }
            } else {
                self.nodes[i].carry
            };
            self.private_dispatch.set_occupancy(i, occ);
        }
        if let Some(cd) = self.cloud_dispatch.as_mut() {
            for (j, slot) in self.nodes[self.n_private..].iter().enumerate() {
                cd.set_occupancy(j, slot.carry);
            }
        }
    }

    /// Admission: the brownout ladder reads interval-start occupancy.
    /// Rung 1 sheds colocated batch; rung 2 parks a fraction of fresh
    /// arrivals in the defer queue and releases them (capacity-capped)
    /// once pressure lifts. Only an armed ladder with mitigation on runs
    /// this phase.
    fn admit(&mut self, cx: &mut StepCtx) {
        let occ_frac = self.private_dispatch.total() as f64 / cx.capacity_quanta as f64;
        let shed = occ_frac >= self.admission.shed_watermark;
        if shed != self.shedding {
            self.shedding = shed;
            self.digest = fnv_fold(self.digest, (10 << 32) | u64::from(shed));
        }
        if occ_frac >= self.admission.defer_watermark {
            cx.deferred_now =
                (self.admission.best_effort_frac * cx.total_quanta as f64).floor() as usize;
            if cx.deferred_now > 0 {
                self.deferred += cx.deferred_now as u64;
                self.digest = fnv_fold(self.digest, (11 << 32) | cx.deferred_now as u64);
            }
        } else if self.deferred > 0 {
            cx.released_quanta = self.deferred.min(cx.capacity_quanta) as usize;
            self.deferred -= cx.released_quanta as u64;
            self.digest = fnv_fold(self.digest, (12 << 32) | cx.released_quanta as u64);
        }
    }

    /// Placement: places the interval's quanta one decision at a time,
    /// retried quanta first (they may take the dispatcher's domain-aware
    /// retry path). With the whole private tier revoked and no cloud to
    /// spill to, fresh quanta are stranded into the retry queue instead
    /// of dispatched onto dead nodes.
    fn place(&mut self, cx: &mut StepCtx) {
        self.assigned.fill(0);
        let mut stranded = 0u32;
        let place_total =
            cx.retried_quanta + cx.total_quanta - cx.deferred_now + cx.released_quanta;
        for k in 0..place_total {
            let spill = match (&self.cloud_dispatch, &self.overflow) {
                (Some(_), Some(of)) => of.spills(self.private_dispatch.total(), cx.capacity_quanta),
                _ => false,
            };
            if cx.all_private_masked && !spill {
                stranded += 1;
                self.digest = fnv_fold(self.digest, 6 << 32);
                continue;
            }
            let (tier_tag, node) = if spill {
                let cd = self.cloud_dispatch.as_mut().expect("checked above");
                let local = cd.pick(&mut self.rng);
                cx.spilled += 1;
                self.assigned[self.n_private + local] += 1;
                (1u64, local)
            } else {
                let local = if k < cx.retried_quanta {
                    self.private_dispatch.pick_retry(&mut self.rng)
                } else {
                    self.private_dispatch.pick(&mut self.rng)
                };
                self.assigned[local] += 1;
                (0u64, local)
            };
            self.digest = fnv_fold(self.digest, (tier_tag << 32) | node as u64);
            self.decisions += 1;
        }
        if stranded > 0 {
            self.retries.push(RetryBatch {
                due: cx.idx + self.retry.backoff_for(0),
                attempt: 1,
                count: stranded,
            });
        }
    }

    /// Node stage: hands every node its load fraction, external fault and
    /// shed flag, then steps every node's engine on the derived worker
    /// count (see `step_nodes`). A node's panic is caught in its slot;
    /// once every node has run, the lowest-index failing node's original
    /// panic is re-raised on the calling thread, so the failure a caller
    /// sees does not depend on which worker stepped which node.
    fn node_stage(&mut self, cx: &StepCtx) {
        for (i, slot) in self.nodes.iter_mut().enumerate() {
            let frac = f64::from(self.assigned[i]) / self.q as f64;
            // Relaxed suffices: the cell publishes only its own value, and
            // the stage's thread spawn and chunk lock order this store
            // before the worker's step reads it.
            slot.cell.store(frac.to_bits(), Ordering::Relaxed);
            if cx.have_faults && i < self.n_private {
                slot.manager.set_external_fault(self.node_fault[i]);
            }
            if self.has_batch && i < self.n_private {
                slot.manager.set_batch_shed(self.shedding);
            }
        }
        step_nodes(&mut self.nodes, self.workers);
        let failed = self
            .nodes
            .iter_mut()
            .find(|s| matches!(s.stats, Some(Err(_))));
        if let Some(Err(payload)) = failed.and_then(|s| s.stats.take()) {
            resume_unwind(payload);
        }
    }

    /// Fold: walks the node slots in node order — exactly the order a
    /// serial loop would step them — so every f64 sum, tail sample, hedge
    /// delta and digest fold is bit-identical for any worker count. Each
    /// node's end-of-interval backlog becomes its carried occupancy.
    fn fold(&mut self, cx: &StepCtx) -> ClusterInterval {
        let (mut arrivals, mut completions, mut timeouts) = (0usize, 0usize, 0usize);
        let mut private_energy = 0.0;
        let mut cloud_busy_req_s = 0.0;
        let mut batch_ips = 0.0;
        let mut hedged_total = 0u64;
        let mut straggled_total = 0u64;
        self.scratch_tails.clear();
        for (i, slot) in self.nodes.iter_mut().enumerate() {
            let Some(Ok(stats)) = slot.stats.take() else {
                unreachable!("the node stage steps every node and re-raises panics");
            };
            arrivals += stats.arrivals;
            completions += stats.completions;
            timeouts += stats.timeouts;
            if stats.completions > 0 {
                self.scratch_tails.push(stats.tail_latency_s);
            }
            if i < self.n_private {
                private_energy += stats.energy_j;
                batch_ips += stats.batch_ips_big + stats.batch_ips_small;
                hedged_total += slot.manager.engine().hedged_requests();
                straggled_total += slot.manager.engine().request_straggles();
            } else {
                cloud_busy_req_s += stats.lc_busy.iter().sum::<f64>() * stats.duration_s;
            }
            slot.carry = quantize_backlog(stats.queue_len, self.reqs_per_quantum);
        }
        // Engines count hedges/straggles cumulatively; the interval's
        // share is the delta. Hedge decisions join the digest (tag 9) so
        // armed sweeps compare hedging event for event.
        let hedged_requests = hedged_total - self.prev_hedged;
        self.prev_hedged = hedged_total;
        let straggled_requests = straggled_total - self.prev_straggled;
        self.prev_straggled = straggled_total;
        if hedged_requests > 0 {
            self.digest = fnv_fold(self.digest, (9 << 32) | hedged_requests);
        }

        let (p95_s, p99_s) = cluster_tails(&mut self.scratch_tails);
        let cloud_cost_usd = match &self.overflow {
            Some(of) => self.bill.charge(cloud_busy_req_s, of),
            None => 0.0,
        };
        ClusterInterval {
            index: cx.idx,
            start_s: cx.now,
            duration_s: self.interval_s,
            offered_frac: cx.offered,
            quanta: cx.total_quanta,
            spilled_quanta: cx.spilled,
            arrivals,
            completions,
            timeouts,
            p95_s,
            p99_s,
            private_energy_j: private_energy,
            cloud_busy_req_s,
            cloud_cost_usd,
            revoked_nodes: cx.revoked_nodes,
            straggling_nodes: cx.straggling_nodes,
            retried_quanta: cx.retried_quanta,
            dropped_quanta: cx.dropped_quanta,
            hedged_requests,
            straggled_requests,
            deferred_quanta: cx.deferred_now,
            batch_ips,
            shed_batch: self.shedding,
        }
    }

    /// Runs the remaining intervals and condenses the result.
    pub fn run(mut self) -> ClusterOutcome {
        while self.stepped < self.intervals_total {
            self.step();
        }
        let mut summary = self.trace.summary(self.name.clone(), self.qos);
        if let Some(d) = &self.deadline {
            summary.deadline_miss_pct = Some(100.0 * self.trace.deadline_miss_fraction(d));
        }
        ClusterOutcome {
            name: self.name,
            summary,
            trace: self.trace,
            decision_digest: self.digest,
            decisions: self.decisions,
            cloud_bill: self.bill,
        }
    }
}

/// Converts an end-of-interval queue backlog (requests) into carried
/// occupancy quanta, rounding up so any backlog registers.
fn quantize_backlog(queue_len: usize, reqs_per_quantum: f64) -> u32 {
    if queue_len == 0 {
        return 0;
    }
    (queue_len as f64 / reqs_per_quantum).ceil() as u32
}

/// Everything a finished cluster run yields.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// The cluster's name.
    pub name: String,
    /// Condensed result (QoS %, p99s, energy, dollars, spill fraction).
    pub summary: ClusterSummary,
    /// Interval-by-interval record.
    pub trace: ClusterTrace,
    /// FNV-1a digest over every dispatch decision — the determinism
    /// hooks compare these.
    pub decision_digest: u64,
    /// Total quanta dispatched.
    pub decisions: u64,
    /// The cloud tier's final bill.
    pub cloud_bill: CloudBill,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::StaticPolicy;
    use crate::policy::Policy;
    use hipster_sim::FaultSpec;
    use hipster_workloads::{memcached, Constant};

    fn spec(nodes: usize) -> ClusterSpec {
        ClusterSpec::new("test", Platform::juno_r1())
            .workload_with(|| Box::new(memcached()))
            .load(Constant::new(0.6, 10.0))
            .policy(|p: &Platform, _s: u64| Box::new(StaticPolicy::all_big(p)) as Box<dyn Policy>)
            .private_nodes(nodes)
            .intervals(3)
            .interval_s(0.05)
            .seed(11)
    }

    #[test]
    fn validation_catches_each_misdeclaration() {
        let base = || spec(4);
        assert_eq!(
            ClusterSpec::new("x", Platform::juno_r1()).validate(),
            Err(ClusterError::MissingWorkload)
        );
        assert_eq!(
            base().private_nodes(0).validate(),
            Err(ClusterError::NoPrivateNodes)
        );
        assert_eq!(
            base().intervals(0).validate(),
            Err(ClusterError::ZeroIntervals)
        );
        assert_eq!(
            base().quanta_per_node(0).validate(),
            Err(ClusterError::ZeroQuanta)
        );
        assert_eq!(
            base().cloud_nodes(2).validate(),
            Err(ClusterError::CloudWithoutOverflow)
        );
        assert_eq!(
            base().overflow(OverflowSpec::new(0.8, 1e-4)).validate(),
            Err(ClusterError::OverflowWithoutCloud)
        );
        assert_eq!(
            base()
                .cloud_nodes(2)
                .overflow(OverflowSpec::new(1.5, 1e-4))
                .validate(),
            Err(ClusterError::InvalidWatermark { watermark: 1.5 })
        );
        assert!(matches!(
            base().interval_s(0.0).validate(),
            Err(ClusterError::Engine(_))
        ));
        assert!(base().validate().is_ok());
    }

    #[test]
    fn same_seed_same_digest_different_seed_different_digest() {
        let a = spec(6).build().unwrap().run();
        let b = spec(6).build().unwrap().run();
        assert_eq!(a.decision_digest, b.decision_digest);
        assert_eq!(a.summary, b.summary);
        let c = spec(6).seed(12).build().unwrap().run();
        assert_ne!(a.decision_digest, c.decision_digest);
    }

    #[test]
    fn work_is_conserved_and_latency_recorded() {
        let out = spec(8).build().unwrap().run();
        // 0.6 load × 8 nodes × 4 quanta = ~19 quanta per interval.
        for iv in out.trace.intervals() {
            assert_eq!(iv.quanta, 19);
            assert_eq!(iv.spilled_quanta, 0); // no cloud tier
            assert!(iv.arrivals > 0);
            assert!(iv.p95_s > 0.0 && iv.p99_s >= iv.p95_s);
            assert!(iv.private_energy_j > 0.0);
            assert_eq!(iv.cloud_cost_usd, 0.0);
        }
        assert_eq!(out.decisions, 3 * 19);
    }

    #[test]
    fn overload_spills_to_the_cloud_tier_and_is_billed() {
        // Offered load beyond the watermark with a tiny private tier:
        // spill must engage and the bill must be positive.
        let out = ClusterSpec::new("burst", Platform::juno_r1())
            .workload_with(|| Box::new(memcached()))
            .load(Constant::new(1.0, 10.0))
            .policy(|p: &Platform, _s: u64| Box::new(StaticPolicy::all_big(p)) as Box<dyn Policy>)
            .private_nodes(2)
            .cloud_nodes(2)
            .overflow(OverflowSpec::new(0.5, 1e-3))
            .intervals(3)
            .interval_s(0.05)
            .seed(3)
            .build()
            .unwrap()
            .run();
        assert!(out.summary.spill_frac > 0.0, "{:?}", out.summary);
        assert!(out.summary.total_cloud_usd > 0.0);
        assert!(out.cloud_bill.req_seconds > 0.0);
    }

    #[test]
    fn fault_off_is_byte_identical_to_the_fault_free_path() {
        let plain = spec(6).build().unwrap().run();
        let fault_off = spec(6).faults(FaultSpec::none()).build().unwrap().run();
        assert_eq!(plain.decision_digest, fault_off.decision_digest);
        assert_eq!(plain.summary, fault_off.summary);
    }

    #[test]
    fn fault_knobs_validate_with_typed_errors() {
        assert!(matches!(
            spec(4)
                .faults(FaultSpec::none().with_revocations(-1.0, 0.2))
                .validate(),
            Err(ClusterError::Fault(_))
        ));
        let mut bad = RetrySpec::default();
        bad.max_attempts = 0;
        assert_eq!(
            spec(4).retry(bad).validate(),
            Err(ClusterError::ZeroRetryAttempts)
        );
        let mut bad = RetrySpec::default();
        bad.backoff_cap_intervals = 0;
        assert_eq!(
            spec(4).retry(bad).validate(),
            Err(ClusterError::ZeroBackoffCap)
        );
    }

    fn faulty_spec(nodes: usize, mitigation: bool) -> ClusterSpec {
        spec(nodes)
            .intervals(40)
            .faults(
                FaultSpec::none()
                    .with_revocations(2.0, 0.3)
                    .with_warned(0.5),
            )
            .mitigation(mitigation)
    }

    #[test]
    fn revocations_mask_nodes_and_recycle_work() {
        let out = faulty_spec(6, true).build().unwrap().run();
        assert!(out.summary.revoked_node_intervals > 0, "{:?}", out.summary);
        assert!(
            out.summary.retried_quanta > 0,
            "stranded backlog should re-dispatch: {:?}",
            out.summary
        );
        // Mitigation changes dispatch decisions relative to the ablation.
        let ablated = faulty_spec(6, false).build().unwrap().run();
        assert_eq!(
            out.summary.revoked_node_intervals, ablated.summary.revoked_node_intervals,
            "fault timeline is independent of mitigation"
        );
        assert_ne!(out.decision_digest, ablated.decision_digest);
        assert_eq!(ablated.summary.retried_quanta, 0);
    }

    #[test]
    fn straggler_episodes_are_counted_and_deterministic() {
        let make = || {
            spec(6)
                .intervals(40)
                .faults(FaultSpec::none().with_stragglers(2.0, 0.3, 1.5, 2.0, 6.0))
                .build()
                .unwrap()
                .run()
        };
        let a = make();
        let b = make();
        assert!(a.summary.straggling_node_intervals > 0, "{:?}", a.summary);
        assert_eq!(a.summary.revoked_node_intervals, 0);
        assert_eq!(a.decision_digest, b.decision_digest);
        assert_eq!(a.summary, b.summary);
    }

    #[test]
    fn total_revocation_without_cloud_strands_then_drops() {
        // One node, revoked essentially forever: fresh quanta must be
        // stranded (never dispatched to the dead node) and eventually
        // dropped once their retry budget runs out.
        let out = spec(1)
            .intervals(30)
            .faults(FaultSpec::none().with_revocations(200.0, 1e6))
            .retry(RetrySpec {
                max_attempts: 2,
                backoff_intervals: 1,
                backoff_cap_intervals: 2,
            })
            .build()
            .unwrap()
            .run();
        assert!(out.summary.revoked_node_intervals > 20, "{:?}", out.summary);
        assert!(out.summary.dropped_quanta > 0, "{:?}", out.summary);
    }

    /// Every policy's decision stream, pinned on a plain cluster and on a
    /// mitigated one: zone revocations mask nodes and strand work into
    /// retries, rack straggler waves degrade racks that stay unmasked (so
    /// least-loaded retry steering and P2C re-probes pick differently
    /// from the plain path), and cloud overflow spills. The constants
    /// were recorded from the occupancy-bitmap dispatcher this
    /// flat-array one replaced, so any divergence from its decisions
    /// fails here.
    #[test]
    fn dispatch_decisions_are_pinned_per_policy() {
        let mitigated = |policy| {
            spec(8)
                .dispatch(policy)
                .intervals(40)
                .topology(TopologySpec::new(2, 2, 2).unwrap())
                .domain_faults(
                    DomainFaultSpec::none()
                        .with_zone_revocations(2.0, 0.3)
                        .with_rack_stragglers(2.0, 0.3),
                )
                .retry(RetrySpec::default())
                .cloud_nodes(2)
                .overflow(OverflowSpec::new(0.85, 1e-4))
        };
        let pins = [
            (
                DispatchPolicy::Random,
                (0x0d8f_1ed5_bee6_3fa0, 57),
                (0xf445_0773_e430_4085, 796),
            ),
            (
                DispatchPolicy::RoundRobin,
                (0x6462_1d43_0900_cdc5, 57),
                (0xdc92_05cb_5939_0273, 792),
            ),
            (
                DispatchPolicy::LeastLoaded,
                (0xe8dc_959b_d4d6_0c45, 57),
                (0x4cd6_9026_b39b_6e02, 788),
            ),
            (
                DispatchPolicy::PowerOfTwo,
                (0x837f_4f0c_aa1b_3502, 57),
                (0x06b0_0264_49fa_e1d6, 778),
            ),
        ];
        for (policy, plain_pin, mitigated_pin) in pins {
            let plain = spec(8).dispatch(policy).build().unwrap().run();
            assert_eq!(
                (plain.decision_digest, plain.decisions),
                plain_pin,
                "plain {}",
                policy.name()
            );
            let out = mitigated(policy).build().unwrap().run();
            assert_eq!(
                (out.decision_digest, out.decisions),
                mitigated_pin,
                "mitigated {}",
                policy.name()
            );
            let s = &out.summary;
            assert!(s.retried_quanta > 0 && s.straggling_node_intervals > 0 && s.spill_frac > 0.0);
        }
    }

    fn batch_pool() -> Vec<Box<dyn BatchProgram>> {
        hipster_workloads::spec::programs()
            .into_iter()
            .take(2)
            .map(|p| Box::new(p) as Box<dyn BatchProgram>)
            .collect()
    }

    #[test]
    fn disarmed_pr10_subsystems_are_byte_identical_to_the_plain_path() {
        // Topology installed, every new subsystem declared but disarmed:
        // the run must be byte-identical to a cluster that has never
        // heard of any of it.
        let plain = spec(8).build().unwrap().run();
        let armed_none = spec(8)
            .topology(TopologySpec::new(2, 2, 2).unwrap())
            .domain_faults(DomainFaultSpec::none())
            .hedge(HedgeSpec::none())
            .admission(AdmissionSpec::none())
            .build()
            .unwrap()
            .run();
        assert_eq!(plain.decision_digest, armed_none.decision_digest);
        assert_eq!(plain.summary, armed_none.summary);
    }

    #[test]
    fn validation_catches_pr10_misdeclarations() {
        let base = || spec(4);
        assert_eq!(
            base()
                .topology(TopologySpec::new(2, 2, 2).unwrap())
                .validate(),
            Err(ClusterError::TopologyNodeMismatch {
                topology_nodes: 8,
                private_nodes: 4,
            })
        );
        assert_eq!(
            base()
                .domain_faults(DomainFaultSpec::none().with_zone_revocations(1.0, 0.3))
                .validate(),
            Err(ClusterError::WavesWithoutTopology)
        );
        assert!(matches!(
            base()
                .topology(TopologySpec::new(2, 1, 2).unwrap())
                .domain_faults(DomainFaultSpec::none().with_zone_revocations(-1.0, 0.3))
                .validate(),
            Err(ClusterError::Fault(_))
        ));
        assert!(matches!(
            base().hedge(HedgeSpec::after(-1.0)).validate(),
            Err(ClusterError::Fault(_))
        ));
        assert!(matches!(
            base()
                .admission(AdmissionSpec::new(0.9, 0.5, 0.5))
                .validate(),
            Err(ClusterError::InvalidAdmission { .. })
        ));
        assert_eq!(
            base()
                .batch_deadline(BatchDeadline::new(10, 1e6, 1.0))
                .validate(),
            Err(ClusterError::DeadlineWithoutBatch)
        );
        assert_eq!(
            base()
                .batch_with(batch_pool)
                .batch_deadline(BatchDeadline::new(0, 1e6, 1.0))
                .validate(),
            Err(ClusterError::InvalidDeadline)
        );
        assert!(base()
            .topology(TopologySpec::new(2, 1, 2).unwrap())
            .domain_faults(DomainFaultSpec::none().with_zone_revocations(1.0, 0.3))
            .hedge(HedgeSpec::after(1.5))
            .admission(AdmissionSpec::new(0.7, 0.9, 0.5))
            .batch_with(batch_pool)
            .batch_deadline(BatchDeadline::new(10, 1e6, 1.0))
            .validate()
            .is_ok());
    }

    fn wave_spec(mitigation: bool) -> ClusterSpec {
        spec(8)
            .intervals(40)
            .topology(TopologySpec::new(2, 2, 2).unwrap())
            .domain_faults(DomainFaultSpec::none().with_zone_revocations(2.0, 0.3))
            .mitigation(mitigation)
    }

    #[test]
    fn zone_waves_revoke_whole_zones_and_mitigation_steers() {
        let on = wave_spec(true).build().unwrap().run();
        assert!(on.summary.revoked_node_intervals > 0, "{:?}", on.summary);
        // Zone-level waves strike all four nodes of a zone at once.
        for iv in on.trace.intervals() {
            assert_eq!(iv.revoked_nodes % 4, 0, "partial zone: {iv:?}");
        }
        // The wave timeline is independent of mitigation; the dispatch
        // decisions are not.
        let off = wave_spec(false).build().unwrap().run();
        assert_eq!(
            on.summary.revoked_node_intervals,
            off.summary.revoked_node_intervals
        );
        assert_ne!(on.decision_digest, off.decision_digest);
        // And the whole thing replays byte-identically.
        let again = wave_spec(true).build().unwrap().run();
        assert_eq!(on.decision_digest, again.decision_digest);
        assert_eq!(on.summary, again.summary);
    }

    #[test]
    fn hedging_fires_only_under_mitigation() {
        let make = |mitigation: bool| {
            spec(6)
                .intervals(20)
                .faults(FaultSpec::none().with_request_stragglers(0.2, 1.5, 4.0, 20.0))
                .hedge(HedgeSpec::after(2.0))
                .mitigation(mitigation)
                .build()
                .unwrap()
                .run()
        };
        let on = make(true);
        let off = make(false);
        assert!(on.summary.hedged_requests > 0, "{:?}", on.summary);
        assert_eq!(off.summary.hedged_requests, 0);
        let straggled: u64 = on
            .trace
            .intervals()
            .iter()
            .map(|iv| iv.straggled_requests)
            .sum();
        assert!(straggled >= on.summary.hedged_requests);
        // Capping straggler work changes backlogs and thus dispatch.
        assert_ne!(on.decision_digest, off.decision_digest);
    }

    #[test]
    fn admission_ladder_sheds_batch_then_defers_arrivals() {
        let make = |mitigation: bool| {
            spec(4)
                .intervals(20)
                .load(Constant::new(1.2, 10.0))
                .batch_with(batch_pool)
                .admission(AdmissionSpec::new(0.3, 0.6, 0.5))
                .mitigation(mitigation)
                .build()
                .unwrap()
                .run()
        };
        let on = make(true);
        assert!(on.summary.shed_intervals > 0, "{:?}", on.summary);
        assert!(on.summary.deferred_quanta > 0, "{:?}", on.summary);
        let off = make(false);
        assert_eq!(off.summary.shed_intervals, 0);
        assert_eq!(off.summary.deferred_quanta, 0);
        assert_ne!(on.decision_digest, off.decision_digest);
    }

    /// Runs `spec` with its node stage on `workers` threads and renders
    /// everything a worker count could perturb.
    fn run_on(spec: ClusterSpec, workers: usize) -> (u64, u64, String, String) {
        let mut sim = spec.build().unwrap();
        sim.workers = workers;
        let out = sim.run();
        (
            out.decision_digest,
            out.decisions,
            format!("{:?}", out.summary),
            out.trace.to_csv(),
        )
    }

    /// A 64-node private tier with 8 cloud nodes, learning Hipster nodes
    /// and p2c dispatch, loaded past the overflow watermark.
    fn wide_spec() -> ClusterSpec {
        spec(64)
            .policy(|p: &Platform, s: u64| {
                Box::new(
                    crate::Hipster::interactive(p, s)
                        .learning_intervals(2)
                        .build(),
                ) as Box<dyn Policy>
            })
            .load(Constant::new(0.9, 10.0))
            .dispatch(DispatchPolicy::PowerOfTwo)
            .cloud_nodes(8)
            .overflow(OverflowSpec::new(0.85, 1e-4))
            .intervals(8)
            .interval_s(0.02)
    }

    /// The same 64 + 8 nodes with every mitigation path armed: zone
    /// revocation and rack straggler waves over a 4×4×4 topology, request
    /// stragglers with hedging, the admission ladder, retries and a
    /// deadline-bound batch bag.
    fn wide_mitigated_spec() -> ClusterSpec {
        spec(64)
            .load(Constant::new(0.9, 10.0))
            .cloud_nodes(8)
            .overflow(OverflowSpec::new(0.85, 1e-4))
            .intervals(16)
            .interval_s(0.02)
            .topology(TopologySpec::new(4, 4, 4).unwrap())
            .domain_faults(
                DomainFaultSpec::none()
                    .with_zone_revocations(4.0, 0.1)
                    .with_rack_stragglers(4.0, 0.1),
            )
            .faults(FaultSpec::none().with_request_stragglers(0.2, 1.5, 4.0, 20.0))
            .hedge(HedgeSpec::after(2.0))
            .admission(AdmissionSpec::new(0.1, 0.3, 0.5))
            .retry(RetrySpec::default())
            .batch_with(batch_pool)
            .batch_deadline(BatchDeadline::new(8, 1e8, 0.2))
    }

    #[test]
    fn node_stage_is_identical_at_any_worker_count() {
        for (name, make) in [
            ("p2c overflow", wide_spec as fn() -> ClusterSpec),
            ("mitigated", wide_mitigated_spec),
        ] {
            let serial = run_on(make(), 1);
            for workers in [2, 3, 7] {
                assert!(
                    serial == run_on(make(), workers),
                    "{name}: 1 vs {workers} workers"
                );
            }
        }
        // Neither spec may pass vacuously: each path it arms must fire.
        let out = wide_mitigated_spec().build().unwrap().run();
        let s = &out.summary;
        assert!(s.spill_frac > 0.0 && s.retried_quanta > 0, "{s:?}");
        assert!(
            s.straggling_node_intervals > 0 && s.hedged_requests > 0,
            "{s:?}"
        );
        assert!(
            s.shed_intervals > 0 && s.deadline_miss_pct.is_some(),
            "{s:?}"
        );
        assert!(wide_spec().build().unwrap().run().summary.spill_frac > 0.0);
    }

    /// A static all-big policy that, when `failing`, panics at its third
    /// decision (interval 2) naming its node.
    #[derive(Debug)]
    struct FailAt {
        node: usize,
        calls: usize,
        failing: bool,
        inner: StaticPolicy,
    }

    impl Policy for FailAt {
        fn name(&self) -> &str {
            "fail-at"
        }

        fn decide(&mut self, obs: &crate::Observation) -> hipster_platform::CoreConfig {
            self.calls += 1;
            if self.failing && self.calls == 3 {
                panic!("node {} failed at interval 2", self.node);
            }
            self.inner.decide(obs)
        }
    }

    /// 64 nodes whose nodes 20 and 45 both panic at interval 2.
    fn failing_spec() -> ClusterSpec {
        spec(64).policy(|p: &Platform, seed: u64| {
            let node = (0..64u64).position(|i| split_seed(11, i) == seed).unwrap();
            Box::new(FailAt {
                node,
                calls: 0,
                failing: node == 20 || node == 45,
                inner: StaticPolicy::all_big(p),
            }) as Box<dyn Policy>
        })
    }

    #[test]
    fn node_panics_surface_the_lowest_failing_node_at_any_worker_count() {
        for workers in [1, 2, 3, 7] {
            let mut sim = failing_spec().build().unwrap();
            sim.workers = workers;
            sim.step();
            sim.step();
            let payload = catch_unwind(AssertUnwindSafe(|| sim.step())).unwrap_err();
            assert_eq!(
                crate::fleet::panic_message(payload.as_ref()),
                "node 20 failed at interval 2",
                "{workers} workers"
            );
        }
        let fleet_error = |workers: usize, threads: usize| {
            type Task = Box<dyn FnOnce() -> u64 + Send>;
            let ok: Task = Box::new(|| spec(4).build().unwrap().run().decisions);
            let failing: Task = Box::new(move || {
                let mut sim = failing_spec().build().unwrap();
                sim.workers = workers;
                sim.run().decisions
            });
            let tasks = vec![("ok".to_owned(), ok), ("failing".to_owned(), failing)];
            crate::fleet::run_tasks(tasks, threads)
                .unwrap_err()
                .to_string()
        };
        let serial = fleet_error(1, 1);
        assert!(serial.contains("node 20 failed at interval 2"), "{serial}");
        for (workers, threads) in [(2, 1), (7, 1), (1, 2), (3, 2)] {
            assert_eq!(serial, fleet_error(workers, threads));
        }
    }

    #[test]
    fn deadline_miss_pct_reported_only_when_declared() {
        let without = spec(4).batch_with(batch_pool).build().unwrap().run();
        assert!(without.summary.deadline_miss_pct.is_none());
        assert!(without
            .trace
            .intervals()
            .iter()
            .any(|iv| iv.batch_ips > 0.0));
        let hopeless = spec(4)
            .batch_with(batch_pool)
            .batch_deadline(BatchDeadline::new(10, 1e15, 0.01))
            .build()
            .unwrap()
            .run();
        assert_eq!(hopeless.summary.deadline_miss_pct, Some(100.0));
        let easy = spec(4)
            .batch_with(batch_pool)
            .batch_deadline(BatchDeadline::new(1, 1.0, 10.0))
            .build()
            .unwrap()
            .run();
        assert_eq!(easy.summary.deadline_miss_pct, Some(0.0));
    }
}
