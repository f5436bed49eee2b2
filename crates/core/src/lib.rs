//! `hipster-core` — the Hipster task manager (HPCA 2017), plus the
//! baselines it is evaluated against.
//!
//! Hipster manages a latency-critical cloud workload on a heterogeneous
//! (big.LITTLE) multicore: every monitoring interval it picks the core
//! mapping and DVFS configuration that meets the tail-latency QoS target
//! while minimizing power (**HipsterIn**) or maximizing collocated batch
//! throughput (**HipsterCo**). It is a *hybrid* of:
//!
//! * a **heuristic feedback mapper** ([`FeedbackController`],
//!   [`HeuristicMapper`]) — a state machine over a power-ranked
//!   configuration ladder with danger/safe latency zones, and
//! * **tabular Q-learning** ([`QTable`], [`reward`], [`Hipster`]) over
//!   quantized load buckets ([`LoadBuckets`]), with the reward of the
//!   paper's Algorithm 1 and the exploitation loop of Algorithm 2.
//!
//! Baselines: [`StaticPolicy`] (all-big / all-small) and [`OctopusMan`]
//! (HPCA 2015 — cluster-exclusive mappings at top DVFS).
//!
//! The [`Manager`] drives any [`Policy`] against a `hipster-sim`
//! [`Engine`](hipster_sim::Engine), standing in for the user-space runtime
//! (sched_setaffinity + acpi-cpufreq + SIGSTOP/SIGCONT) of §3.7, and
//! streams per-interval statistics to pluggable [`TelemetrySink`]s.
//!
//! Whole experiments are declared rather than hand-wired: a
//! [`ScenarioSpec`] validates and builds one (platform × workload × load ×
//! policy) run, and a [`Fleet`] executes many scenarios across OS threads
//! with split seeds and deterministically ordered results. Sweeps become
//! durable and resumable through the [`store`] module: a crash-safe
//! [`SweepStore`] journal lets [`Fleet::resume`] skip completed cells and
//! re-run only the remainder, byte-identical to an uninterrupted run, with
//! panicking scenarios quarantined instead of poisoning the sweep
//! ([`PanicPolicy`]).
//!
//! Beyond one machine, the [`cluster`] module scales out: a
//! [`ClusterSpec`] declares N nodes (each with its own engine, policy and
//! split seed) behind a load-balancing [`cluster::Dispatcher`], with
//! optional burst overflow to priced cloud nodes.
//!
//! # Example: HipsterIn on Memcached under a diurnal load
//!
//! ```
//! use hipster_core::{Hipster, Manager, PolicySummary};
//! use hipster_platform::Platform;
//! use hipster_sim::{Engine, LcModel};
//! use hipster_workloads::{memcached, Diurnal};
//!
//! let platform = Platform::juno_r1();
//! let policy = Hipster::interactive(&platform, 42)
//!     .learning_intervals(30)
//!     .build();
//! let mc = memcached();
//! let qos = mc.qos();
//! let engine = Engine::new(platform, Box::new(mc), Box::new(Diurnal::paper()), 42);
//! let mut manager = Manager::new(engine, Box::new(policy));
//! let trace = manager.run(60); // one simulated minute
//! let summary = PolicySummary::from_trace("HipsterIn", &trace, qos);
//! assert!(summary.qos_guarantee_pct > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod baselines;
mod bucket;
pub mod cluster;
mod configspace;
mod feedback;
mod fleet;
mod hipster;
mod manager;
mod metrics;
mod policy;
mod qtable;
pub mod reference;
mod reward;
mod scenario;
pub mod store;
mod telemetry;

pub use baselines::{DvfsOnly, HeuristicMapper, OctopusMan, StaticPolicy};
pub use bucket::{LoadBuckets, MAX_OBSERVABLE_LOAD_FRAC};
pub use cluster::{
    AdmissionSpec, ClusterError, ClusterInterval, ClusterOutcome, ClusterSim, ClusterSpec,
    ClusterSummary, ClusterTrace, DispatchPolicy, OverflowSpec, RetrySpec,
};
pub use configspace::ConfigSpace;
pub use feedback::{FeedbackController, Zones};
pub use fleet::{run_tasks, split_seed, Fleet, FleetError, FleetStats, PanicPolicy};
pub use hipster::{Hipster, HipsterBuilder, Phase};
pub use manager::Manager;
pub use metrics::{energy_reduction_pct, PolicySummary};
pub use policy::{Observation, Policy};
pub use qtable::QTable;
pub use reward::{reward, Objective, RewardParams};
pub use scenario::{BatchDeadline, PolicyFactory, ScenarioError, ScenarioOutcome, ScenarioSpec};
pub use store::{
    CellJournal, FileStore, MemStore, QuarantineRecord, StoreError, SweepRecord, SweepStore,
};
pub use telemetry::{
    CsvSink, JsonLinesSink, RunMeta, SinkHandle, SummarySink, TelemetrySink, TraceSink,
};
