//! The runtime driver: wires a [`Policy`] to a simulation [`Engine`] the
//! way the real Hipster wires its Mapper Module to Linux.
//!
//! Each monitoring interval the manager (1) assembles an [`Observation`]
//! from the previous interval's statistics (what the QoS Monitor would
//! read from the latency logfile, energy registers and perf counters),
//! (2) asks the policy for the next core configuration, (3) translates it
//! into a full [`MachineConfig`] — interactive (clusters the LC workload
//! does not use are clocked down) or collocated (remaining cores run batch,
//! Algorithm 2 lines 8–13) — and (4) steps the engine.
//!
//! Any number of [`TelemetrySink`]s can be attached; the manager streams
//! every interval's [`IntervalStats`] to them as it runs, so traces, CSV
//! artifacts and summaries fall out of a run without the driver loop
//! collecting anything by hand.

use hipster_sim::{Engine, IntervalStats, MachineConfig, Trace};

use crate::bucket::MAX_OBSERVABLE_LOAD_FRAC;
use crate::policy::{Observation, Policy};
use crate::telemetry::{RunMeta, TelemetrySink};

/// The handful of scalars [`Manager::observation`] needs from the
/// previous interval. Copied out of the returned [`IntervalStats`] so the
/// per-interval path never clones the full stats value (whose per-server
/// busy vector would allocate every interval).
#[derive(Debug, Clone, Copy)]
struct LastSignals {
    offered_load_frac: f64,
    tail_latency_s: f64,
    power_w: f64,
    batch_ips_big: f64,
    batch_ips_small: f64,
    counters_valid: bool,
}

impl LastSignals {
    fn of(stats: &IntervalStats) -> Self {
        LastSignals {
            offered_load_frac: stats.offered_load_frac,
            tail_latency_s: stats.tail_latency_s,
            power_w: stats.power.total(),
            batch_ips_big: stats.batch_ips_big,
            batch_ips_small: stats.batch_ips_small,
            counters_valid: stats.counters_valid,
        }
    }
}

/// Drives one policy over one engine, producing a [`Trace`].
pub struct Manager {
    engine: Engine,
    policy: Box<dyn Policy>,
    collocate: bool,
    batch_shed: bool,
    last: Option<LastSignals>,
    meta: RunMeta,
    sinks: Vec<Box<dyn TelemetrySink>>,
    started: bool,
}

impl std::fmt::Debug for Manager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Manager")
            .field("engine", &self.engine)
            .field("policy", &self.policy)
            .field("collocate", &self.collocate)
            .field("meta", &self.meta)
            .field("sinks", &self.sinks.len())
            .field("started", &self.started)
            .finish_non_exhaustive()
    }
}

impl Manager {
    /// Creates an interactive-mode manager (no batch collocation).
    pub fn new(engine: Engine, policy: Box<dyn Policy>) -> Self {
        // One model guard for both reads: a second would wait on the first.
        let (workload, qos) = {
            let lc = engine.lc_model();
            (lc.name().to_owned(), lc.qos())
        };
        let meta = RunMeta {
            scenario: policy.name().to_owned(),
            policy: policy.name().to_owned(),
            workload,
            qos,
            seed: 0,
            interval_s: engine.interval_s(),
        };
        Manager {
            engine,
            policy,
            collocate: false,
            batch_shed: false,
            last: None,
            meta,
            sinks: Vec::new(),
            started: false,
        }
    }

    /// Enables batch collocation: remaining cores run the engine's batch
    /// pool and the policy observes batch IPS.
    pub fn collocated(mut self) -> Self {
        self.collocate = true;
        self
    }

    /// Attaches a telemetry sink (builder style).
    pub fn with_sink(mut self, sink: Box<dyn TelemetrySink>) -> Self {
        self.attach_sink(sink);
        self
    }

    /// Attaches a telemetry sink.
    ///
    /// # Panics
    ///
    /// Panics if the run has already started — sinks must see it whole.
    pub fn attach_sink(&mut self, sink: Box<dyn TelemetrySink>) {
        assert!(!self.started, "cannot attach a sink mid-run");
        self.sinks.push(sink);
    }

    /// The run metadata handed to telemetry sinks.
    pub fn meta(&self) -> &RunMeta {
        &self.meta
    }

    /// Overrides the scenario name and seed recorded in the run metadata
    /// (the policy and workload names always come from the live objects).
    ///
    /// # Panics
    ///
    /// Panics if the run has already started.
    pub fn set_run_identity(&mut self, scenario: impl Into<String>, seed: u64) {
        assert!(!self.started, "cannot relabel a run mid-flight");
        self.meta.scenario = scenario.into();
        self.meta.seed = seed;
    }

    /// The policy's name.
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Applies a machine-wide fault state for the next interval — the
    /// cluster tier's hook for injecting node-level revocations and
    /// straggler slowdowns into this node's engine.
    pub fn set_external_fault(&mut self, state: hipster_sim::FaultState) {
        self.engine.set_external_fault(state);
    }

    /// Pauses (`true`) or resumes (`false`) batch collocation without
    /// dropping the pool — the cluster admission ladder's shed rung.
    /// While shed, the node runs its interactive configuration and the
    /// policy sees no batch tenant. No-op on an interactive manager.
    pub fn set_batch_shed(&mut self, shed: bool) {
        self.batch_shed = shed;
    }

    /// The observation the policy will act on next.
    pub fn observation(&self) -> Observation {
        let qos = self.meta.qos;
        match &self.last {
            None => Observation::startup(qos),
            Some(s) => {
                // The MDP state is the *input* load on the workload (the
                // paper's "percentage of maximum load"). The generator's
                // offered fraction is the right signal: measured arrival
                // rates collapse under closed-loop saturation (clients
                // stall mid-wait), which would alias overloaded states
                // onto low-load buckets.
                Observation {
                    load_frac: s.offered_load_frac.clamp(0.0, MAX_OBSERVABLE_LOAD_FRAC),
                    tail_latency_s: s.tail_latency_s,
                    qos,
                    power_w: s.power_w,
                    batch_ips_big: s.batch_ips_big,
                    batch_ips_small: s.batch_ips_small,
                    counters_valid: s.counters_valid,
                    has_batch: self.collocate && !self.batch_shed,
                }
            }
        }
    }

    /// Runs one monitoring interval.
    pub fn step(&mut self) -> IntervalStats {
        if !self.started {
            self.started = true;
            for sink in &mut self.sinks {
                sink.on_run_start(&self.meta);
            }
        }
        let obs = self.observation();
        let lc = self.policy.decide(&obs);
        let cfg = if self.collocate && !self.batch_shed {
            MachineConfig::collocated(self.engine.platform(), lc)
        } else {
            MachineConfig::interactive(self.engine.platform(), lc)
        };
        let stats = self.engine.step(cfg);
        for sink in &mut self.sinks {
            sink.on_interval(&self.meta, &stats);
        }
        self.last = Some(LastSignals::of(&stats));
        stats
    }

    /// Runs `intervals` monitoring intervals and returns their trace.
    pub fn run(&mut self, intervals: usize) -> Trace {
        let mut trace = Trace::with_capacity(intervals);
        for _ in 0..intervals {
            trace.push(self.step());
        }
        trace
    }

    /// Ends the run: fires [`TelemetrySink::on_run_end`] on every sink and
    /// returns the engine (e.g. to inspect cumulative energy).
    pub fn finish(mut self) -> Engine {
        for sink in &mut self.sinks {
            sink.on_run_end(&self.meta);
        }
        self.engine
    }

    /// Consumes the manager after a run, returning the engine. Equivalent
    /// to [`Manager::finish`] (sinks are flushed).
    pub fn into_engine(self) -> Engine {
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::StaticPolicy;
    use crate::telemetry::{SummarySink, TraceSink};
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

    #[derive(Debug)]
    struct Half;
    impl LoadPattern for Half {
        fn load_at(&self, _t: f64) -> f64 {
            0.5
        }
        fn duration(&self) -> f64 {
            10.0
        }
    }

    fn manager() -> Manager {
        let platform = Platform::juno_r1();
        let policy = StaticPolicy::all_big(&platform);
        let engine = Engine::new(platform, Box::new(Toy), Box::new(Half), 3);
        Manager::new(engine, Box::new(policy))
    }

    #[test]
    fn first_observation_is_startup() {
        let m = manager();
        let o = m.observation();
        assert_eq!(o.load_frac, 0.0);
        assert_eq!(o.tail_latency_s, 0.0);
    }

    #[test]
    fn run_produces_trace_and_updates_observation() {
        let mut m = manager();
        let trace = m.run(5);
        assert_eq!(trace.len(), 5);
        let o = m.observation();
        // ~50 rps measured out of 100 max.
        assert!((o.load_frac - 0.5).abs() < 0.25, "{}", o.load_frac);
        assert!(o.power_w > 0.0);
    }

    #[test]
    fn static_policy_holds_configuration() {
        let mut m = manager();
        let trace = m.run(4);
        for s in trace.intervals() {
            assert_eq!(s.config.lc.to_string(), "2B-1.15");
        }
        assert_eq!(trace.total_migrations(), 0);
    }

    #[test]
    fn interactive_mode_downclocks_unused_cluster() {
        let mut m = manager();
        let s = m.step();
        // LC on big cores only → small cluster can't go below its single
        // operating point, but batch is off.
        assert!(!s.config.batch_enabled);
        assert_eq!(s.batch_ips_big, 0.0);
    }

    #[test]
    fn sinks_observe_every_interval() {
        let (trace_sink, trace_handle) = TraceSink::new();
        let (summary_sink, summary_handle) = SummarySink::new();
        let mut m = manager()
            .with_sink(Box::new(trace_sink))
            .with_sink(Box::new(summary_sink));
        let direct = m.run(6);
        assert!(
            summary_handle.snapshot().is_none(),
            "summary only lands after finish()"
        );
        let _engine = m.finish();
        let streamed = trace_handle.take();
        assert_eq!(streamed.len(), 6);
        assert_eq!(streamed.to_csv(), direct.to_csv());
        let summary = summary_handle.take().expect("summary after finish");
        assert_eq!(summary.name, "Static(2B-1.15)");
    }

    #[test]
    fn default_meta_reflects_engine_and_policy() {
        let m = manager();
        assert_eq!(m.meta().workload, "toy");
        assert_eq!(m.meta().policy, "Static(2B-1.15)");
        assert_eq!(m.meta().interval_s, 1.0);
    }

    #[test]
    fn run_identity_overrides_scenario_and_seed() {
        let mut m = manager();
        m.set_run_identity("fig5/memcached", 51);
        assert_eq!(m.meta().scenario, "fig5/memcached");
        assert_eq!(m.meta().seed, 51);
    }

    #[test]
    #[should_panic(expected = "mid-run")]
    fn attaching_sink_mid_run_panics() {
        let (sink, _handle) = TraceSink::new();
        let mut m = manager();
        m.step();
        m.attach_sink(Box::new(sink));
    }

    #[test]
    fn observation_load_clamps_at_named_cap() {
        use crate::bucket::MAX_OBSERVABLE_LOAD_FRAC;
        let mut m = manager();
        let mut s = LastSignals::of(&m.step());
        s.offered_load_frac = 7.0;
        m.last = Some(s);
        assert_eq!(m.observation().load_frac, MAX_OBSERVABLE_LOAD_FRAC);
    }
}
