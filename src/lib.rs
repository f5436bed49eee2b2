//! **hipster** — a from-scratch reproduction of *Hipster: Hybrid Task
//! Manager for Latency-Critical Cloud Workloads* (HPCA 2017).
//!
//! This facade crate re-exports the four workspace crates:
//!
//! * [`platform`] — the heterogeneous big.LITTLE platform model (ARM Juno
//!   R1 preset, Table 2-calibrated power model, energy meters, perf
//!   counters);
//! * [`sim`] — the discrete-event queueing simulator (tail latencies,
//!   migration/DVFS costs, batch execution, closed-loop clients);
//! * [`workloads`] — Memcached, Web-Search, SPEC CPU2006 batch models and
//!   diurnal/ramp/spike load generators;
//! * [`core`] — the Hipster task manager itself (heuristic mapper,
//!   Q-learning, HipsterIn/HipsterCo) plus the Octopus-Man and static
//!   baselines.
//!
//! The most common entry points are also re-exported at the crate root.
//!
//! # Quick start: one scenario
//!
//! A [`ScenarioSpec`] declares a complete run — platform, workload, load,
//! policy, duration, seed — validates itself, and wires the
//! `Engine`/[`Manager`] stack for you:
//!
//! ```
//! use hipster::{Diurnal, Hipster, Platform, Policy, ScenarioSpec};
//! use hipster::workloads::web_search;
//!
//! let outcome = ScenarioSpec::new("quickstart", Platform::juno_r1())
//!     .workload_with(|| Box::new(web_search()))
//!     .load(Diurnal::paper())
//!     .policy(|p: &Platform, seed| {
//!         Box::new(Hipster::interactive(p, seed).learning_intervals(60).build())
//!             as Box<dyn Policy>
//!     })
//!     .intervals(120)
//!     .seed(42)
//!     .run()
//!     .expect("valid scenario");
//! println!("{:.1}% QoS guarantee", outcome.summary.qos_guarantee_pct);
//! ```
//!
//! # Scaling out: a fleet
//!
//! A [`Fleet`] executes many scenarios across OS threads (one simulated
//! machine each) with per-scenario split seeds and deterministically
//! ordered results; [`TelemetrySink`]s tap per-interval statistics without
//! touching the driver (see `examples/fleet.rs`).
//!
//! # Surviving crashes: durable sweeps
//!
//! [`Fleet::resume`] runs a sweep against a [`SweepStore`] — an
//! append-only, fsync'd journal ([`FileStore`] on disk, [`MemStore`] in
//! memory). Kill the process at any cell and call `resume` again with the
//! same store: completed cells restore byte-identically, only the
//! remainder re-run, and panicking cells can be quarantined instead of
//! poisoning the sweep ([`PanicPolicy`]; see `examples/resume.rs`).
//!
//! # Scaling further: a cluster
//!
//! A [`ClusterSpec`] declares N nodes — each its own engine, policy and
//! split seed — behind a load-balancing dispatcher
//! ([`DispatchPolicy`]), with optional burst overflow to priced cloud
//! nodes past an occupancy watermark ([`OverflowSpec`]); the resulting
//! [`ClusterSim`](core::ClusterSim) accumulates cluster-wide p95/p99,
//! energy and dollar cost per interval (see `examples/cluster.rs`).

#![warn(missing_docs)]

pub use hipster_core as core;
pub use hipster_platform as platform;
pub use hipster_sim as sim;
pub use hipster_workloads as workloads;

pub use hipster_core::{
    run_tasks, split_seed, AdmissionSpec, BatchDeadline, CellJournal, ClusterError, ClusterOutcome,
    ClusterSpec, ClusterSummary, ConfigSpace, CsvSink, DispatchPolicy, FileStore, Fleet,
    FleetError, FleetStats, HeuristicMapper, Hipster, JsonLinesSink, Manager, MemStore,
    Observation, OctopusMan, OverflowSpec, PanicPolicy, Policy, PolicyFactory, PolicySummary,
    QuarantineRecord, RetrySpec, RunMeta, ScenarioError, ScenarioOutcome, ScenarioSpec, SinkHandle,
    StaticPolicy, StoreError, SummarySink, SweepRecord, SweepStore, TelemetrySink, TraceSink,
};
pub use hipster_platform::{CoreConfig, CoreKind, Frequency, Platform, PlatformBuilder};
pub use hipster_sim::{
    interval_from_jsonl, interval_to_jsonl, DomainFaultSpec, Engine, EngineSpec, EngineSpecError,
    FaultPlan, FaultSpec, FaultSpecError, FaultState, HedgeSpec, IntervalStats, LcModel,
    MachineConfig, QosTarget, TopologySpec, Trace, WavePlan,
};
pub use hipster_workloads::{
    domain_fault_preset, fault_preset, load_preset, memcached, memcached_bursty,
    memcached_revocable, memcached_straggler, memcached_zonewave, preset, web_search, Constant,
    Diurnal, MmppLoad, Ramp,
};
