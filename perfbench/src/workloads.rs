//! The four benchmark workloads and one measured replay ("rep") of each.
//!
//! A rep builds its scenario from the seed and warms up, so the outlying
//! first interval lands in set-up: the first diurnal hour on juno, the
//! first interval of each cluster, the first load level of the sweep. It
//! then steps the rest with host timestamps taken around every call into
//! the program, each followed by a [`gauge`] sample that puts the step's
//! host time at the reference speed. A traced rep additionally routes the policy, the workload
//! model, the load pattern and the sweep store through the wrappers in
//! [`crate::probe`] and derives the per-layer metrics from their logs.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use hipster_core::cluster::{
    AdmissionSpec, ClusterInterval, ClusterOutcome, ClusterSpec, DispatchPolicy, OverflowSpec,
    RetrySpec,
};
use hipster_core::split_seed;
use hipster_core::{
    BatchDeadline, FileStore, Fleet, Hipster, Policy, PolicyFactory, ScenarioOutcome, ScenarioSpec,
    StaticPolicy, SweepRecord, SweepStore, Zones,
};
use hipster_platform::Platform;
use hipster_sim::{BatchProgram, HedgeSpec, LcModel, LoadPattern, TopologySpec, Trace};
use hipster_workloads::{
    domain_fault_preset, fault_preset, memcached, memcached_bursty, preset, spec, web_search,
    Constant, Diurnal, LcWorkload, MmppLoad, PAPER_DIURNAL_HOURS,
};

use crate::gauge;
use crate::probe::{
    CountingLc, CountingLoad, Counts, DecideLog, DecideLogs, ProbedFactory, ProbedStore,
};
use crate::stats::{median, quantile, Fnv};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One Juno R1 node, Memcached under the paper's diurnal load, HipsterIn.
    JunoDiurnal,
    /// 768 private + 256 cloud nodes, bursty Memcached, HipsterIn per node.
    ClusterBursty,
    /// The mitigated zone-wave cluster: 48 private nodes in 4 zones + 16 cloud.
    ClusterZonewave,
    /// Fig. 2/3 heatmap cells for both workloads, journaled to a `FileStore`.
    SweepJournaled,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::JunoDiurnal,
        Workload::ClusterBursty,
        Workload::ClusterZonewave,
        Workload::SweepJournaled,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::JunoDiurnal => "juno-diurnal",
            Workload::ClusterBursty => "cluster-bursty",
            Workload::ClusterZonewave => "cluster-zonewave",
            Workload::SweepJournaled => "sweep-journaled",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs one rep.
    pub fn rep(self, ctx: &Ctx) -> Result<Rep, String> {
        match self {
            Workload::JunoDiurnal => juno(ctx),
            Workload::ClusterBursty | Workload::ClusterZonewave => cluster(self, ctx),
            Workload::SweepJournaled => sweep(ctx),
        }
    }
}

/// What a rep needs to know.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Seed of every stochastic stream (load envelope, engines, policies).
    pub seed: u64,
    /// Tiny sizes for the self-test instead of the benchmark's sizes.
    pub tiny: bool,
    /// Route calls through the tracing wrappers.
    pub traced: bool,
    /// Scratch directory for sweep stores.
    pub out_dir: PathBuf,
    /// Index of this rep within the run (names its scratch store).
    pub rep: usize,
}

/// The simulated results of a rep: a change that only speeds up the
/// simulator leaves every field identical.
#[derive(Debug, Clone, Copy)]
pub struct SimOutputs {
    /// FNV-1a of the trace CSV (juno, sweep) or the dispatch decision digest
    /// (clusters).
    pub digest: u64,
    /// Simulated requests, completed plus timed out.
    pub requests: u64,
    /// Share of intervals meeting QoS, percent (sweep: mean over cells).
    pub qos_pct: f64,
    /// Juno and sweep: 99th percentile of the per-interval QoS tails;
    /// clusters: mean per-interval cluster p99. Milliseconds.
    pub p99_ms: f64,
    /// Simulated energy, joules (clusters: private tier).
    pub energy_j: f64,
    /// Cloud-tier bill, dollars (0 without a cloud tier).
    pub cloud_usd: f64,
}

impl SimOutputs {
    /// Bit-for-bit equality.
    pub fn same(&self, other: &SimOutputs) -> bool {
        self.digest == other.digest
            && self.requests == other.requests
            && self.qos_pct.to_bits() == other.qos_pct.to_bits()
            && self.p99_ms.to_bits() == other.p99_ms.to_bits()
            && self.energy_j.to_bits() == other.energy_j.to_bits()
            && self.cloud_usd.to_bits() == other.cloud_usd.to_bits()
    }

    /// `(name, value)` pairs as printed.
    pub fn fields(&self) -> [(&'static str, String); 6] {
        [
            ("sim.digest", format!("{:016x}", self.digest)),
            ("sim.requests", self.requests.to_string()),
            ("sim.qos_pct", format!("{}", self.qos_pct)),
            ("sim.p99_ms", format!("{}", self.p99_ms)),
            ("sim.energy_j", format!("{}", self.energy_j)),
            ("sim.cloud_usd", format!("{}", self.cloud_usd)),
        ]
    }
}

/// One span of a traced rep, relative to the rep's start.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary: `manager.step`, `cluster.step`, `cluster.pre`,
    /// `node`, `decide`, `fleet.resume` or `store.record`.
    pub name: &'static str,
    /// The span that caused it (empty for roots).
    pub parent: &'static str,
    /// Node or cell index (0 when not applicable).
    pub id: usize,
    /// Interval index (0 when not applicable).
    pub interval: usize,
    /// Start, nanoseconds after the rep began.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// What one rep measured.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Spec build, store open and warm-up, seconds at the reference speed.
    pub setup_s: f64,
    /// Wall time of the timed part without its gauge samples, seconds.
    pub timed_s: f64,
    /// `timed_s` at the reference speed.
    pub wall_ref_s: f64,
    /// Simulated requests in the timed part.
    pub timed_requests: u64,
    /// Scenarios the rep ran: sweep cells, clusters, or one node run.
    pub scenarios: u64,
    /// Host milliseconds of every timed step at the reference speed (sweep:
    /// Memcached cells only).
    pub intervals_ms: Vec<f64>,
    /// Host milliseconds of every unit of serial work in the timed part at
    /// the reference speed, in the same order on every rep: the timed steps,
    /// or the sweep's cells (policy build to policy drop, on a worker
    /// thread).
    pub work_ms: Vec<f64>,
    /// Simulated results.
    pub sim: SimOutputs,
    /// Per-layer metrics (traced reps only).
    pub layers: Vec<(&'static str, f64)>,
    /// Spans (traced reps only).
    pub spans: Vec<Span>,
}

fn secs(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}

/// Gauge rounds after each step: about a quarter of a typical step.
const JUNO_GAUGE: u64 = 4_000;
const BURSTY_GAUGE: u64 = 100_000;
const ZONEWAVE_GAUGE: u64 = 4_000;
/// Gauge rounds before each sweep interval.
const SWEEP_GAUGE: u64 = 2_000;

/// The reference-speed factors of gauge samples of `rounds` events.
fn factors(rounds: u64, samples: &[f64]) -> Vec<f64> {
    samples.iter().map(|&g| gauge::factor(rounds, g)).collect()
}

fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Memcached's tuned danger/safe zones (the repository's offline sweep).
const MEMCACHED_ZONES: (f64, f64) = (0.50, 0.15);

fn hipster_in(learn: u64, bucket: f64) -> impl PolicyFactory {
    move |p: &Platform, seed: u64| -> Box<dyn Policy> {
        Box::new(
            Hipster::interactive(p, seed)
                .learning_intervals(learn)
                .zones(Zones::new(MEMCACHED_ZONES.0, MEMCACHED_ZONES.1))
                .bucket_width(bucket)
                .build(),
        )
    }
}

/// The probes a traced rep installs; `None` fields on untraced reps.
struct Probes {
    counts: Option<Arc<Counts>>,
    logs: Option<Arc<DecideLogs>>,
}

impl Probes {
    fn new(traced: bool) -> Self {
        Probes {
            counts: traced.then(Arc::default),
            logs: traced.then(Arc::default),
        }
    }

    fn policy<F: PolicyFactory + 'static>(&self, factory: F) -> BoxedFactory {
        BoxedFactory(match &self.logs {
            Some(l) => Box::new(ProbedFactory::new(factory, l.clone(), true, 0)),
            None => Box::new(factory),
        })
    }

    fn decide_logs(&self) -> Vec<DecideLog> {
        self.logs.as_ref().map(|l| l.take()).unwrap_or_default()
    }

    fn workload_layers(&self, layers: &mut Vec<(&'static str, f64)>) {
        if let Some(c) = &self.counts {
            draw_layers(c, layers);
        }
    }
}

/// The `workload.*` metrics: draws the engines made through the wrappers.
fn draw_layers(counts: &Counts, layers: &mut Vec<(&'static str, f64)>) {
    let (demand, burst, load) = counts.snapshot();
    layers.extend([
        ("workload.demand_draws", demand as f64),
        ("workload.burst_draws", burst as f64),
        ("workload.load_calls", load as f64),
    ]);
}

/// `model`, behind a draw counter when `counts` is set.
fn counted_lc(counts: &Option<Arc<Counts>>, model: Box<dyn LcModel>) -> Box<dyn LcModel> {
    match counts {
        Some(c) => Box::new(CountingLc::new(model, c.clone())),
        None => model,
    }
}

/// `pattern`, behind a call counter when `counts` is set.
fn counted_load(
    counts: &Option<Arc<Counts>>,
    pattern: Box<dyn LoadPattern>,
) -> Box<dyn LoadPattern> {
    match counts {
        Some(c) => Box::new(CountingLoad::new(pattern, c.clone())),
        None => pattern,
    }
}

/// A boxed factory is itself a factory, so `Probes::policy` can hand either
/// flavour to a spec.
struct BoxedFactory(Box<dyn PolicyFactory>);

impl PolicyFactory for BoxedFactory {
    fn build(&self, platform: &Platform, seed: u64) -> Box<dyn Policy> {
        self.0.build(platform, seed)
    }
}

/// Engine and policy metrics shared by every workload. `span_s` is the host
/// time of the node spans (manager steps) the engine self time is carved
/// from, `thread_s` the host thread time shares are taken of.
struct EngineTotals {
    span_s: f64,
    decide_s: Vec<f64>,
    thread_s: f64,
    requests: u64,
    timeouts: u64,
    hedged: u64,
    straggled: u64,
}

impl EngineTotals {
    fn layers(&self, layers: &mut Vec<(&'static str, f64)>) {
        let decide_total: f64 = self.decide_s.iter().sum();
        let engine_self = self.span_s - decide_total;
        let requests = self.requests.max(1) as f64;
        let calls = self.decide_s.len().max(1) as f64;
        layers.extend([
            ("engine.self_share", engine_self / self.thread_s),
            ("engine.ns_per_request", engine_self * 1e9 / requests),
            ("engine.requests", self.requests as f64),
            ("engine.timeouts", self.timeouts as f64),
            (
                "engine.completed_frac",
                (self.requests - self.timeouts) as f64 / requests,
            ),
            ("engine.hedged_requests", self.hedged as f64),
            ("engine.straggled_requests", self.straggled as f64),
            ("policy.decide_calls", self.decide_s.len() as f64),
            ("policy.decide_ns", decide_total * 1e9 / calls),
            ("policy.decide_share", decide_total / self.thread_s),
        ]);
    }
}

fn trace_requests(trace: &[hipster_sim::IntervalStats]) -> (u64, u64) {
    trace.iter().fold((0, 0), |(r, t), s| {
        (
            r + (s.completions + s.timeouts) as u64,
            t + s.timeouts as u64,
        )
    })
}

fn trace_digest(hash: &mut Fnv, trace: &Trace) {
    hash.write(trace.to_csv().as_bytes());
}

// ---------------------------------------------------------------- juno

fn juno(ctx: &Ctx) -> Result<Rep, String> {
    let probes = Probes::new(ctx.traced);
    let t0 = Instant::now();
    // The paper's diurnal curve at 30 one-second intervals per hour rather
    // than `Diurnal::paper()`'s 60: the same load swings in replays half as
    // long, so a run gets twice as many replays to take each interval's
    // fastest time from. The first hour (the night trough) is the warm-up;
    // a single sub-millisecond interval would leave set-up time mostly noise.
    let hour = if ctx.tiny { 1 } else { 30 };
    let diurnal = Diurnal::new(PAPER_DIURNAL_HOURS.to_vec(), hour as f64);
    let n = diurnal.duration().round() as usize;
    let warmup = hour;
    let (lc_counts, load_counts) = (probes.counts.clone(), probes.counts.clone());
    let spec = ScenarioSpec::new("juno-diurnal", Platform::juno_r1())
        .workload_with(move || counted_lc(&lc_counts, Box::new(memcached())))
        .load_with(move || counted_load(&load_counts, Box::new(diurnal.clone())))
        .policy(probes.policy(hipster_in(250, 0.03)))
        .intervals(n)
        .seed(ctx.seed);
    let (mut manager, n) = spec.build().map_err(|e| e.to_string())?;
    let qos = manager.engine().lc_model().qos();
    let mut trace = Trace::with_capacity(n);
    let mut steps = Vec::with_capacity(n);
    let mut gauges = Vec::with_capacity(n);
    for _ in 0..n {
        let start = Instant::now();
        let stats = manager.step();
        steps.push((start, Instant::now()));
        gauges.push(gauge::sample(JUNO_GAUGE));
        trace.push(stats);
    }
    let hedged = manager.engine().hedged_requests();
    let straggled = manager.engine().request_straggles();
    drop(manager.finish());

    let warm_end = steps[warmup - 1].1;
    // Gauge k runs right after step k: the first `warmup - 1` fall inside
    // set-up, the rest before the last step inside the timed part.
    let setup_s = secs(t0, warm_end) - gauges[..warmup - 1].iter().sum::<f64>();
    let timed_s = secs(warm_end, steps[n - 1].1) - gauges[warmup - 1..n - 1].iter().sum::<f64>();
    let factor = factors(JUNO_GAUGE, &gauges);
    let rep_factor = median(&factor);
    let intervals = trace.intervals();
    let (requests, _) = trace_requests(intervals);
    let (timed_requests, timed_timeouts) = trace_requests(&intervals[warmup..]);
    let mut tails: Vec<f64> = intervals.iter().map(|s| s.tail_latency_s).collect();
    let mut hash = Fnv::default();
    trace_digest(&mut hash, &trace);
    let sim = SimOutputs {
        digest: hash.finish(),
        requests,
        qos_pct: trace.qos_guarantee_pct(qos),
        p99_ms: quantile(&mut tails, 0.99) * 1e3,
        energy_j: trace.total_energy_j(),
        cloud_usd: 0.0,
    };
    let intervals_ms: Vec<f64> = (warmup..n)
        .map(|k| secs(steps[k].0, steps[k].1) * 1e3 * factor[k])
        .collect();
    let mut rep = Rep {
        setup_s: setup_s * rep_factor,
        timed_s,
        wall_ref_s: timed_s * rep_factor,
        timed_requests,
        scenarios: 1,
        work_ms: intervals_ms.clone(),
        intervals_ms,
        sim,
        layers: Vec::new(),
        spans: Vec::new(),
    };
    if ctx.traced {
        let logs = probes.decide_logs();
        let log = match logs.as_slice() {
            [log] if log.starts.len() == n && log.ends.len() == n => log,
            _ => return Err("decide log does not cover every interval".into()),
        };
        let decide_s: Vec<f64> = (warmup..n)
            .map(|k| secs(log.starts[k], log.ends[k]))
            .collect();
        EngineTotals {
            span_s: steps[warmup..].iter().map(|&(s, e)| secs(s, e)).sum(),
            decide_s,
            thread_s: timed_s,
            requests: timed_requests,
            timeouts: timed_timeouts,
            hedged,
            straggled,
        }
        .layers(&mut rep.layers);
        probes.workload_layers(&mut rep.layers);
        for (k, &(s, e)) in steps.iter().enumerate() {
            rep.spans.push(Span {
                name: "manager.step",
                parent: "",
                id: 0,
                interval: k,
                start_ns: nanos(t0, s),
                dur_ns: nanos(s, e),
            });
            rep.spans.push(Span {
                name: "decide",
                parent: "manager.step",
                id: 0,
                interval: k,
                start_ns: nanos(t0, log.starts[k]),
                dur_ns: nanos(log.starts[k], log.ends[k]),
            });
        }
    }
    Ok(rep)
}

// ------------------------------------------------------------- clusters

const CLOUD_USD_PER_REQ_S: f64 = 0.12 / 3600.0;

/// The clusters' MMPP load envelope is the repository's fixed one (seed 17
/// in `repro cluster` and the zone-wave example): a 0.8 s envelope of a
/// few bursts would otherwise change the offered volume several-fold from
/// seed to seed. `--seed` moves every node, dispatch, fault and wave
/// stream instead.
const MMPP_SEED: u64 = 17;

fn bursty_spec(tiny: bool, seed: u64, probes: &Probes) -> (ClusterSpec, usize) {
    let nodes = if tiny { 16 } else { 1024 };
    let intervals = if tiny { 3 } else { 48 };
    let interval_s = 0.05;
    let cloud = nodes / 4;
    let mmpp = MmppLoad::new(
        0.55,
        10.0 * interval_s,
        intervals as f64 * interval_s,
        MMPP_SEED,
    );
    let counts = probes.counts.clone();
    let spec = ClusterSpec::new("cluster-bursty", Platform::juno_r1())
        .workload_with(move || counted_lc(&counts, Box::new(memcached_bursty())))
        .policy(probes.policy(hipster_in(4, 0.05)))
        .dispatch(DispatchPolicy::PowerOfTwo)
        .private_nodes(nodes - cloud)
        .cloud_nodes(cloud)
        .overflow(OverflowSpec::new(0.85, CLOUD_USD_PER_REQ_S))
        .intervals(intervals)
        .interval_s(interval_s)
        .seed(seed);
    (with_cluster_load(spec, probes, mmpp), intervals)
}

/// `ClusterSpec::load` takes a concrete pattern, so the counting wrapper
/// is chosen here rather than through `counted_load`.
fn with_cluster_load(spec: ClusterSpec, probes: &Probes, mmpp: MmppLoad) -> ClusterSpec {
    match &probes.counts {
        Some(c) => spec.load(CountingLoad::new(Box::new(mmpp), c.clone())),
        None => spec.load(mmpp),
    }
}

fn zonewave_spec(tiny: bool, seed: u64, probes: &Probes) -> (ClusterSpec, usize) {
    const PRIVATE: usize = 48;
    const CLOUD: usize = 16;
    let intervals = if tiny { 6 } else { 80 };
    let interval_s = 0.05;
    let duration = intervals as f64 * interval_s;
    let mmpp = MmppLoad::new(0.60, 10.0 * interval_s, duration, MMPP_SEED);
    let counts = probes.counts.clone();
    let all_big = |p: &Platform, _: u64| -> Box<dyn Policy> { Box::new(StaticPolicy::all_big(p)) };
    let spec = ClusterSpec::new("cluster-zonewave", Platform::juno_r1())
        .workload_with(move || {
            let model = preset("memcached-zonewave").expect("workload preset");
            counted_lc(&counts, Box::new(model))
        })
        .policy(probes.policy(all_big))
        .dispatch(DispatchPolicy::PowerOfTwo)
        .private_nodes(PRIVATE)
        .cloud_nodes(CLOUD)
        .overflow(OverflowSpec::new(0.85, CLOUD_USD_PER_REQ_S))
        .intervals(intervals)
        .interval_s(interval_s)
        .seed(seed)
        .faults(fault_preset("memcached-zonewave").expect("fault preset"))
        .topology(TopologySpec::new(4, 2, PRIVATE / 8).expect("4x2 topology"))
        .domain_faults(domain_fault_preset("memcached-zonewave").expect("domain fault preset"))
        .hedge(HedgeSpec::after(1.0))
        .admission(AdmissionSpec::new(0.5, 0.75, 0.5))
        .retry(RetrySpec::default())
        .batch_with(|| {
            spec::programs()
                .into_iter()
                .take(2)
                .map(|p| Box::new(p) as Box<dyn BatchProgram>)
                .collect()
        })
        .batch_deadline(BatchDeadline::new(
            8,
            0.97 * 2.1e9 * PRIVATE as f64 * (0.75 * duration) / 8.0,
            0.75 * duration,
        ))
        .mitigation(true);
    (with_cluster_load(spec, probes, mmpp), intervals)
}

/// One cluster of a rep: its outcome, host timestamps around every
/// `ClusterSim::step` (the first is the warm-up), and its decide logs.
struct ClusterRun {
    built_from: Instant,
    steps: Vec<(Instant, Instant)>,
    /// Seconds of the gauge sample after each step.
    gauges: Vec<f64>,
    out: ClusterOutcome,
    logs: Vec<DecideLog>,
}

/// How many seeded clusters one rep replays. A single zone-wave cluster's
/// cost hinges on where its few waves land, so a rep averages eight
/// seeds; the bursty cluster averages over its 1024 nodes already.
fn clusters_per_rep(workload: Workload, tiny: bool) -> u64 {
    match workload {
        Workload::ClusterZonewave if !tiny => 8,
        _ => 1,
    }
}

fn cluster(workload: Workload, ctx: &Ctx) -> Result<Rep, String> {
    let probes = Probes::new(ctx.traced);
    let k = clusters_per_rep(workload, ctx.tiny);
    let rounds = match workload {
        Workload::ClusterBursty => BURSTY_GAUGE,
        _ => ZONEWAVE_GAUGE,
    };
    let mut runs = Vec::new();
    for j in 0..k {
        let seed = if k == 1 {
            ctx.seed
        } else {
            split_seed(ctx.seed, j)
        };
        let built_from = Instant::now();
        let (spec, n) = match workload {
            Workload::ClusterBursty => bursty_spec(ctx.tiny, seed, &probes),
            _ => zonewave_spec(ctx.tiny, seed, &probes),
        };
        let mut sim = spec.build().map_err(|e| e.to_string())?;
        let mut steps = Vec::with_capacity(n);
        let mut gauges = Vec::with_capacity(n);
        for _ in 0..n {
            let start = Instant::now();
            sim.step();
            steps.push((start, Instant::now()));
            gauges.push(gauge::sample(rounds));
        }
        let out = sim.run();
        let logs = probes.decide_logs();
        if ctx.traced
            && (logs.is_empty()
                || logs
                    .iter()
                    .any(|l| l.starts.len() != n || l.ends.len() != n))
        {
            return Err("decide logs do not cover every node interval".into());
        }
        runs.push(ClusterRun {
            built_from,
            steps,
            gauges,
            out,
            logs,
        });
    }

    fn timed(r: &ClusterRun) -> &[ClusterInterval] {
        &r.out.trace.intervals()[1..]
    }
    let requests = |ivs: &[ClusterInterval]| -> u64 {
        ivs.iter()
            .map(|iv| (iv.completions + iv.timeouts) as u64)
            .sum()
    };
    let mut digest = Fnv::default();
    for r in &runs {
        digest.write(&r.out.decision_digest.to_le_bytes());
    }
    let summaries = || runs.iter().map(|r| &r.out.summary);
    let sim = SimOutputs {
        digest: digest.finish(),
        requests: runs.iter().map(|r| requests(r.out.trace.intervals())).sum(),
        qos_pct: summaries().map(|s| s.qos_guarantee_pct).sum::<f64>() / k as f64,
        p99_ms: summaries().map(|s| s.mean_p99_s).sum::<f64>() * 1e3 / k as f64,
        energy_j: summaries().map(|s| s.total_energy_j).sum(),
        cloud_usd: summaries().map(|s| s.total_cloud_usd).sum(),
    };
    let warm_end = |r: &ClusterRun| r.steps[0].1;
    let last_end = |r: &ClusterRun| r.steps[r.steps.len() - 1].1;
    // Gauge k runs right after step k, so all but the last fall inside the
    // timed part.
    let timed_s: f64 = runs
        .iter()
        .map(|r| secs(warm_end(r), last_end(r)) - r.gauges[..r.gauges.len() - 1].iter().sum::<f64>())
        .sum();
    let timed_requests: u64 = runs.iter().map(|r| requests(timed(r))).sum();
    let factor: Vec<Vec<f64>> = runs.iter().map(|r| factors(rounds, &r.gauges)).collect();
    let rep_factor = median(&factor.concat());
    let intervals_ms: Vec<f64> = runs
        .iter()
        .zip(&factor)
        .flat_map(|(r, f)| {
            r.steps[1..]
                .iter()
                .zip(&f[1..])
                .map(|(&(s, e), f)| secs(s, e) * 1e3 * f)
        })
        .collect();
    let setup_s: f64 = runs.iter().map(|r| secs(r.built_from, warm_end(r))).sum();
    let mut rep = Rep {
        setup_s: setup_s * rep_factor,
        timed_s,
        wall_ref_s: timed_s * rep_factor,
        timed_requests,
        scenarios: k,
        work_ms: intervals_ms.clone(),
        intervals_ms,
        sim,
        layers: Vec::new(),
        spans: Vec::new(),
    };
    if ctx.traced {
        cluster_layers(&runs, timed_s, timed_requests, &mut rep);
        probes.workload_layers(&mut rep.layers);
    }
    Ok(rep)
}

/// Splits every `ClusterSim::step` of a traced rep into its phases. Each
/// node decides first when it steps, in node order, so the gaps between
/// consecutive decide starts are the node spans and the time before the
/// first one is the pre-dispatch phase (fault overlay, retry drain,
/// admission, dispatch). Spans are kept for the rep's last cluster.
fn cluster_layers(runs: &[ClusterRun], timed_s: f64, timed_requests: u64, rep: &mut Rep) {
    let (mut pre_all, mut pre_timed, mut span_s) = (0.0, 0.0, 0.0);
    let (mut pre_ms, mut node_ms, mut imbalance, mut decide_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut decisions, mut timeouts, mut hedged, mut straggled) = (0u64, 0u64, 0u64, 0u64);
    let mut quanta = [0usize; 4];
    for (j, run) in runs.iter().enumerate() {
        let keep_spans = j + 1 == runs.len();
        let logs = &run.logs;
        decisions += run.out.decisions;
        for iv in &run.out.trace.intervals()[1..] {
            timeouts += iv.timeouts as u64;
            hedged += iv.hedged_requests;
            straggled += iv.straggled_requests;
            let q = [
                iv.spilled_quanta,
                iv.retried_quanta,
                iv.dropped_quanta,
                iv.deferred_quanta,
            ];
            for (total, add) in quanta.iter_mut().zip(q) {
                *total += add;
            }
        }
        for (k, &(start, end)) in run.steps.iter().enumerate() {
            let pre = secs(start, logs[0].starts[k]);
            pre_all += pre;
            if keep_spans {
                rep.spans.push(Span {
                    name: "cluster.step",
                    parent: "",
                    id: 0,
                    interval: k,
                    start_ns: nanos(run.built_from, start),
                    dur_ns: nanos(start, end),
                });
                rep.spans.push(Span {
                    name: "cluster.pre",
                    parent: "cluster.step",
                    id: 0,
                    interval: k,
                    start_ns: nanos(run.built_from, start),
                    dur_ns: nanos(start, logs[0].starts[k]),
                });
            }
            let mut spans = Vec::with_capacity(logs.len());
            for (i, log) in logs.iter().enumerate() {
                let node_end = logs.get(i + 1).map_or(end, |next| next.starts[k]);
                let span = secs(log.starts[k], node_end);
                spans.push(span * 1e3);
                if keep_spans {
                    rep.spans.push(Span {
                        name: "node",
                        parent: "cluster.step",
                        id: i,
                        interval: k,
                        start_ns: nanos(run.built_from, log.starts[k]),
                        dur_ns: nanos(log.starts[k], node_end),
                    });
                }
                if k > 0 {
                    span_s += span;
                    decide_s.push(secs(log.starts[k], log.ends[k]));
                }
            }
            if k > 0 {
                pre_timed += pre;
                pre_ms.push(pre * 1e3);
                let mean = spans.iter().sum::<f64>() / spans.len() as f64;
                let max = spans.iter().copied().fold(0.0, f64::max);
                imbalance.push(if mean > 0.0 { max / mean } else { 1.0 });
                node_ms.extend(spans);
            }
        }
    }
    EngineTotals {
        span_s,
        decide_s,
        thread_s: timed_s,
        requests: timed_requests,
        timeouts,
        hedged,
        straggled,
    }
    .layers(&mut rep.layers);
    let node_max = node_ms.iter().copied().fold(0.0, f64::max);
    rep.layers.extend([
        ("cluster.pre_ms", median(&pre_ms)),
        ("cluster.pre_share", pre_timed / timed_s),
        ("cluster.decisions", decisions as f64),
        (
            "cluster.ns_per_decision",
            pre_all * 1e9 / decisions.max(1) as f64,
        ),
        ("cluster.node_ms_p50", quantile(&mut node_ms, 0.5)),
        ("cluster.node_ms_max", node_max),
        ("cluster.node_imbalance", median(&imbalance)),
        ("cluster.spilled_quanta", quanta[0] as f64),
        ("cluster.retried_quanta", quanta[1] as f64),
        ("cluster.dropped_quanta", quanta[2] as f64),
        ("cluster.deferred_quanta", quanta[3] as f64),
    ]);
}

// ---------------------------------------------------------------- sweep

/// The paper's Fig. 2 load levels, Memcached then Web-Search.
const MEMCACHED_LOADS: [f64; 13] = [
    0.29, 0.40, 0.51, 0.63, 0.69, 0.71, 0.77, 0.83, 0.89, 0.91, 0.94, 0.97, 1.0,
];
const WEB_SEARCH_LOADS: [f64; 13] = [
    0.18, 0.25, 0.33, 0.40, 0.47, 0.55, 0.62, 0.69, 0.76, 0.84, 0.91, 0.96, 1.0,
];

/// The baseline configurations (exclusively big or small cores at top
/// DVFS) the sweep pins.
fn sweep_configs(tiny: bool) -> Vec<hipster_platform::CoreConfig> {
    let mut configs = Platform::juno_r1().baseline_configs();
    if tiny {
        configs.truncate(2);
    }
    configs
}

/// The percentile `store.record_ms_tail` reports (156 records leave 15
/// beyond it).
const STORE_TAIL_P: f64 = 0.9;

/// Every baseline configuration at every paper load level, both
/// workloads, as pinned-policy scenarios in declaration order. With
/// `logs`, each cell's policy stamps its `decide` calls (cell index = log
/// id), ends too when `with_ends`.
fn sweep_specs(
    ctx: &Ctx,
    counts: &Option<Arc<Counts>>,
    logs: Option<(&Arc<DecideLogs>, bool)>,
) -> Vec<ScenarioSpec> {
    let platform = Platform::juno_r1();
    let configs = sweep_configs(ctx.tiny);
    let secs = if ctx.tiny { 3 } else { 10 };
    let levels = if ctx.tiny { 2 } else { MEMCACHED_LOADS.len() };
    let workloads = [
        (
            "Memcached",
            memcached as fn() -> LcWorkload,
            &MEMCACHED_LOADS[..levels],
        ),
        ("Web-Search", web_search, &WEB_SEARCH_LOADS[..levels]),
    ];
    let mut specs = Vec::new();
    for (name, model, loads) in workloads {
        for &load in loads {
            for &config in &configs {
                let index = specs.len();
                let pinned = move |_: &Platform, _: u64| -> Box<dyn Policy> {
                    Box::new(StaticPolicy::new(config))
                };
                let (lc_counts, load_counts) = (counts.clone(), counts.clone());
                let mut spec =
                    ScenarioSpec::new(format!("sweep/{name}/{config}@{load}"), platform.clone())
                        .workload_with(move || counted_lc(&lc_counts, Box::new(model())))
                        .load_with(move || {
                            counted_load(&load_counts, Box::new(Constant::new(load, secs as f64)))
                        })
                        .intervals(secs)
                        .seed(ctx.seed);
                spec = match logs {
                    Some((logs, with_ends)) => spec.policy(
                        ProbedFactory::new(pinned, logs.clone(), with_ends, index)
                            .gauged(SWEEP_GAUGE),
                    ),
                    None => spec.policy(pinned),
                };
                specs.push(spec);
            }
        }
    }
    specs
}

fn sweep_digest(outcomes: &[ScenarioOutcome]) -> u64 {
    let mut hash = Fnv::default();
    for o in outcomes {
        hash.write(o.name.as_bytes());
        hash.write(b"\n");
        trace_digest(&mut hash, &o.trace);
    }
    hash.finish()
}

/// Fleet workers: one per core but one. The calling thread is the fleet's
/// consumer, encoding and fsyncing every record while the workers run, so
/// it gets the remaining core. With two cores the fleet runs its serial
/// path, which records inline.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().saturating_sub(1).max(1))
}

fn sweep(ctx: &Ctx) -> Result<Rep, String> {
    let counts: Option<Arc<Counts>> = ctx.traced.then(Arc::default);
    // The fleet owns the stepping loop, so the only outside hook on an
    // interval is its policy call: every rep runs a gauge sample and stamps
    // the decide start there to time intervals; traced reps stamp ends too.
    let logs: Arc<DecideLogs> = Arc::default();
    let dir = ctx
        .out_dir
        .join(format!("store-{}-{}", std::process::id(), ctx.rep));
    let store_err = |e: hipster_core::StoreError| e.to_string();
    let fleet_err = |e: hipster_core::FleetError| e.to_string();

    let t0 = Instant::now();
    let specs = sweep_specs(ctx, &counts, Some((&logs, ctx.traced)));
    let cells = specs.len();
    let store = FileStore::create(&dir).map_err(store_err)?;
    // Warm-up: the first Memcached load level, every configuration, serially.
    let level = sweep_configs(ctx.tiny).len();
    for spec in sweep_specs(ctx, &None, None).into_iter().take(level) {
        spec.run().map_err(|e| e.to_string())?;
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let workers = workers();
    let fleet: Fleet = specs.into_iter().collect::<Fleet>().threads(workers);
    let (start, result, end, records) = if ctx.traced {
        let mut probed = ProbedStore::new(store);
        let start = Instant::now();
        let result = fleet.resume(&mut probed);
        (start, result, Instant::now(), probed.records)
    } else {
        let mut store = store;
        let start = Instant::now();
        let result = fleet.resume(&mut store);
        (start, result, Instant::now(), Vec::new())
    };
    let (outcomes, stats) = result.map_err(fleet_err)?;
    let timed_s = secs(start, end);
    if outcomes.len() != cells || stats.scenarios != cells || stats.resumed != 0 {
        return Err(format!(
            "fresh sweep ran {} of {cells} cells ({} resumed)",
            stats.scenarios, stats.resumed
        ));
    }
    let digest = sweep_digest(&outcomes);

    // Reopen the journal and resume: every cell must come back from the
    // store, unchanged, with nothing re-run.
    let journal_bytes = std::fs::metadata(FileStore::journal_path(&dir))
        .map(|m| m.len())
        .unwrap_or(0);
    let mut reopened = FileStore::open(&dir).map_err(store_err)?;
    for (i, o) in outcomes.iter().enumerate() {
        if reopened.fetch(i as u64) != Some(SweepRecord::from_outcome(i as u64, o)) {
            return Err(format!(
                "journal record {i} differs from the cell it stored"
            ));
        }
    }
    let again: Fleet = sweep_specs(ctx, &None, None).into_iter().collect();
    let (restored, rstats) = again
        .threads(workers)
        .resume(&mut reopened)
        .map_err(fleet_err)?;
    if rstats.scenarios != 0 || rstats.resumed != cells || sweep_digest(&restored) != digest {
        return Err(format!(
            "resume re-ran {} cells and restored {} of {cells}",
            rstats.scenarios, rstats.resumed
        ));
    }
    drop(reopened);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;

    let mut requests = 0;
    let mut timeouts = 0;
    let mut tails = Vec::new();
    for o in &outcomes {
        let (r, t) = trace_requests(o.trace.intervals());
        requests += r;
        timeouts += t;
        tails.extend(o.trace.intervals().iter().map(|s| s.tail_latency_s));
    }
    let sim = SimOutputs {
        digest,
        requests,
        qos_pct: outcomes
            .iter()
            .map(|o| o.summary.qos_guarantee_pct)
            .sum::<f64>()
            / cells as f64,
        p99_ms: quantile(&mut tails, 0.99) * 1e3,
        energy_j: outcomes.iter().map(|o| o.summary.total_energy_j).sum(),
        cloud_usd: 0.0,
    };
    let logs = logs.take();
    if logs.len() != cells || logs.iter().any(|l| l.gauges.is_empty()) {
        return Err("decide logs do not cover every sweep cell".into());
    }
    let mut work_ms = Vec::with_capacity(cells);
    let mut all_factors = Vec::new();
    let mut gauge_s = 0.0;
    for l in &logs {
        let (Some(born), Some(died)) = (l.born, l.died) else {
            return Err(format!("sweep cell {} has no life span", l.id));
        };
        let cell_gauge_s: f64 = l.gauges.iter().sum();
        let factor = factors(SWEEP_GAUGE, &l.gauges);
        work_ms.push((secs(born, died) - cell_gauge_s) * 1e3 * median(&factor));
        gauge_s += cell_gauge_s;
        all_factors.extend(factor);
    }
    let rep_factor = median(&all_factors);
    // Gauge samples run on the workers, side by side when there are several.
    let timed_s = timed_s - gauge_s / workers as f64;
    // Web-Search intervals (microseconds) and Memcached intervals
    // (milliseconds) form two populations of equal size, so a pooled median
    // would fall in the gap between them: the interval metrics use the
    // Memcached cells (the first half), and the Web-Search cells' per-interval
    // cost shows in `cells_per_s`.
    // Interval k runs from decide start k to the gauge sample before decide
    // start k + 1, and takes that sample's factor.
    let intervals_ms = logs[..cells / 2]
        .iter()
        .flat_map(|l| {
            (1..l.starts.len()).map(|k| {
                let gap = secs(l.starts[k - 1], l.starts[k]) - l.gauges[k];
                gap * 1e3 * gauge::factor(SWEEP_GAUGE, l.gauges[k])
            })
        })
        .collect();
    let mut rep = Rep {
        setup_s: setup_s * rep_factor,
        timed_s,
        wall_ref_s: timed_s * rep_factor,
        timed_requests: requests,
        scenarios: cells as u64,
        intervals_ms,
        work_ms,
        sim,
        layers: Vec::new(),
        spans: Vec::new(),
    };
    if ctx.traced {
        let decide_s: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.starts.iter().zip(&l.ends).map(|(&s, &e)| secs(s, e)))
            .collect();
        let busy = stats.busy_total_s() - gauge_s;
        EngineTotals {
            span_s: busy,
            decide_s,
            thread_s: workers as f64 * timed_s,
            requests,
            timeouts,
            hedged: 0,
            straggled: 0,
        }
        .layers(&mut rep.layers);
        draw_layers(&counts.expect("traced reps count draws"), &mut rep.layers);
        let mut record_ms: Vec<f64> = records.iter().map(|&(s, e)| secs(s, e) * 1e3).collect();
        let record_total: f64 = record_ms.iter().sum::<f64>() / 1e3;
        rep.layers.extend([
            ("fleet.busy_s", busy),
            ("fleet.idle_frac", stats.idle_frac(stats.wall_s)),
            ("fleet.idle_tail_frac", stats.idle_tail_frac()),
            ("fleet.ms_per_cell", busy * 1e3 / cells as f64),
            ("store.records", records.len() as f64),
            ("store.record_ms_p50", quantile(&mut record_ms, 0.5)),
            (
                "store.record_ms_tail",
                quantile(&mut record_ms, STORE_TAIL_P),
            ),
            ("store.share", record_total / timed_s),
            (
                "store.bytes_per_record",
                journal_bytes as f64 / records.len().max(1) as f64,
            ),
        ]);
        rep.spans.push(Span {
            name: "fleet.resume",
            parent: "",
            id: 0,
            interval: 0,
            start_ns: nanos(t0, start),
            dur_ns: nanos(start, end),
        });
        for (i, &(s, e)) in records.iter().enumerate() {
            rep.spans.push(Span {
                name: "store.record",
                parent: "fleet.resume",
                id: i,
                interval: 0,
                start_ns: nanos(t0, s),
                dur_ns: nanos(s, e),
            });
        }
        for log in &logs {
            for (k, (&s, &e)) in log.starts.iter().zip(&log.ends).enumerate() {
                rep.spans.push(Span {
                    name: "decide",
                    parent: "fleet.resume",
                    id: log.id,
                    interval: k,
                    start_ns: nanos(t0, s),
                    dur_ns: nanos(s, e),
                });
            }
        }
    }
    Ok(rep)
}
