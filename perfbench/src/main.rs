//! End-to-end benchmark of the Hipster simulator.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <juno-diurnal|cluster-bursty|cluster-zonewave|sweep-journaled|all> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--expect-digest HEX]
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! A run replays its workload, timed from outside, until `--seconds` have
//! passed, checks that every replay simulated exactly the same thing, and
//! prints its metrics by name and unit. Host times are put at a reference
//! host speed by the gauge samples that follow every timed unit (see
//! [`gauge`]), and each unit counts at its median over the replays. The last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A
//! traced run spends half its time untraced and half traced, reports the
//! difference as `trace.overhead_pct`, and writes the last traced replay's
//! spans to `.perfbench/spans-<workload>.jsonl`. Any mismatch or panic is a
//! failed operation and makes the process exit with code 1.

mod gauge;
mod probe;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{beyond, median, quantile};
use workloads::{Ctx, Rep, SimOutputs, Workload};

/// The seed a run uses without `--seed`.
const DEFAULT_SEED: u64 = 1;
/// A seed kept out of development: recheck a claimed gain on it.
const HELD_OUT_SEED: u64 = 20_171_107;
/// How long a run measures without `--seconds`.
const DEFAULT_SECONDS: u64 = 25;
/// Where sweep stores and span files go, relative to the working directory.
const OUT_DIR: &str = ".perfbench";

/// End-to-end metrics, with units.
const END_TO_END: [(&str, &str); 6] = [
    ("ns_per_request", "ns"),
    ("interval_ms_p50", "ms"),
    ("interval_ms_tail", "ms"),
    ("cells_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, with units. Layers a workload does not run read 0.
const PER_LAYER: [(&str, &str); 34] = [
    ("engine.self_share", "frac"),
    ("engine.ns_per_request", "ns"),
    ("engine.requests", "count"),
    ("engine.timeouts", "count"),
    ("engine.completed_frac", "frac"),
    ("engine.hedged_requests", "count"),
    ("engine.straggled_requests", "count"),
    ("policy.decide_calls", "count"),
    ("policy.decide_ns", "ns"),
    ("policy.decide_share", "frac"),
    ("cluster.pre_ms", "ms"),
    ("cluster.pre_share", "frac"),
    ("cluster.decisions", "count"),
    ("cluster.ns_per_decision", "ns"),
    ("cluster.node_ms_p50", "ms"),
    ("cluster.node_ms_max", "ms"),
    ("cluster.node_imbalance", "ratio"),
    ("cluster.spilled_quanta", "count"),
    ("cluster.retried_quanta", "count"),
    ("cluster.dropped_quanta", "count"),
    ("cluster.deferred_quanta", "count"),
    ("workload.demand_draws", "count"),
    ("workload.burst_draws", "count"),
    ("workload.load_calls", "count"),
    ("fleet.busy_s", "s"),
    ("fleet.idle_frac", "frac"),
    ("fleet.idle_tail_frac", "frac"),
    ("fleet.ms_per_cell", "ms"),
    ("store.records", "count"),
    ("store.record_ms_p50", "ms"),
    ("store.record_ms_tail", "ms"),
    ("store.share", "frac"),
    ("store.bytes_per_record", "B"),
    ("trace.overhead_pct", "%"),
];

#[derive(Debug, Clone)]
struct Options {
    workload: Option<Workload>,
    all: bool,
    seed: u64,
    seconds: u64,
    trace: bool,
    expect_digest: Option<u64>,
    tiny: bool,
    self_test: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        expect_digest: None,
        tiny: false,
        self_test: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name == "all" {
                    opts.all = true;
                } else {
                    opts.workload = Some(Workload::parse(&name).ok_or_else(|| {
                        format!("unknown workload {name:?}; expected one of {}", names())
                    })?);
                }
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--expect-digest" => {
                let hex = value()?;
                let hex = hex.trim_start_matches("0x");
                opts.expect_digest = Some(
                    u64::from_str_radix(hex, 16).map_err(|e| format!("--expect-digest: {e}"))?,
                );
            }
            "--self-test" => opts.self_test = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !opts.self_test && !opts.all && opts.workload.is_none() {
        return Err(format!("--workload is required: {} or all", names()));
    }
    Ok(opts)
}

fn names() -> String {
    Workload::ALL.map(Workload::name).join(", ")
}

/// Everything one run measured and checked.
#[derive(Debug)]
struct Report {
    workload: Workload,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    notes: Vec<String>,
    sim: Option<SimOutputs>,
    plain: Vec<Rep>,
    traced: Vec<Rep>,
    peak_rss_mb: f64,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.sim.is_some()
    }

    /// Checks a finished rep against the run's first one and the expected
    /// digest; a mismatch or failure counts as a failed operation.
    fn admit(&mut self, rep: Result<Rep, String>, expect: Option<u64>) -> Option<Rep> {
        self.attempted += 1;
        let rep = match rep {
            Ok(rep) => rep,
            Err(e) => {
                self.failed += 1;
                self.errors.push(e);
                return None;
            }
        };
        let reference = *self.sim.get_or_insert(rep.sim);
        if !rep.sim.same(&reference) {
            self.failed += 1;
            self.errors.push(format!(
                "replay {} simulated differently: {:?} vs {:?}",
                self.attempted, rep.sim, reference
            ));
        } else if expect.is_some_and(|d| d != rep.sim.digest) {
            self.failed += 1;
            self.errors.push(format!(
                "digest {:016x} differs from the expected {:016x}",
                rep.sim.digest,
                expect.unwrap_or_default()
            ));
        }
        Some(rep)
    }
}

/// Replays `workload` untraced (and, with `trace`, traced) for `seconds`,
/// at least once each, checking every replay's simulated outputs.
fn measure(workload: Workload, opts: &Options) -> Report {
    let mut report = Report {
        workload,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        notes: Vec::new(),
        sim: None,
        plain: Vec::new(),
        traced: Vec::new(),
        peak_rss_mb: 0.0,
    };
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        report.failed += 1;
        report.errors.push(format!("create {OUT_DIR}: {e}"));
        return report;
    }
    // A traced run alternates untraced and traced replays, so both kinds
    // sample the same stretches of host noise.
    let kinds: &[bool] = if opts.trace { &[false, true] } else { &[false] };
    gauge::warm();
    let budget = Duration::from_secs(opts.seconds);
    let started = Instant::now();
    let mut i = 0;
    while report.failed == 0 && (i < kinds.len() || started.elapsed() < budget) {
        let traced = kinds[i % kinds.len()];
        let ctx = Ctx {
            seed: opts.seed,
            tiny: opts.tiny,
            traced,
            out_dir: out_dir.clone(),
            rep: i,
        };
        let outcome = std::panic::catch_unwind(|| workload.rep(&ctx))
            .unwrap_or_else(|payload| Err(format!("panic: {}", panic_text(payload.as_ref()))));
        if let Some(rep) = report.admit(outcome, opts.expect_digest) {
            if traced {
                report.traced.push(rep);
            } else {
                report.plain.push(rep);
            }
        }
        i += 1;
    }
    match peak_rss_mb() {
        Ok(mb) => report.peak_rss_mb = mb,
        Err(e) => {
            report.failed += 1;
            report.errors.push(e);
        }
    }
    if opts.trace && report.correct() {
        match write_spans(&report, &out_dir) {
            Ok(path) => report
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => {
                report.failed += 1;
                report.errors.push(e);
            }
        }
    }
    report
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// The process's resident-memory high-water mark, MiB, without the gauge's
/// kernel state, which stays resident for the whole run.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| (kb * 1024.0 - gauge::resident_bytes() as f64) / (1024.0 * 1024.0))
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// The replay whose timed part took the least wall time.
fn fastest(reps: &[Rep]) -> Option<&Rep> {
    reps.iter().min_by(|a, b| a.timed_s.total_cmp(&b.timed_s))
}

/// The highest whole percentile that leaves at least ten of `n` samples
/// beyond it (at most p99).
fn tail_p(n: usize) -> f64 {
    let mut p = 99;
    while p > 50 && beyond(n, f64::from(p) / 100.0) < 10 {
        p -= 1;
    }
    f64::from(p) / 100.0
}

/// Element-wise median over the replays of the samples `f` picks: sample
/// `k` of every replay times the same simulated work, already at the
/// reference speed, and its median sheds the replays a burst of host noise
/// caught.
fn median_each(reps: &[Rep], f: fn(&Rep) -> &[f64]) -> Vec<f64> {
    let n = reps.first().map_or(0, |r| f(r).len());
    (0..n)
        .map(|k| median(&reps.iter().filter_map(|r| f(r).get(k).copied()).collect::<Vec<_>>()))
        .collect()
}

/// Host time of the timed part's serial work (its steps, or the sweep's
/// cells), each unit at its median over the replays, in seconds.
fn work_s(reps: &[Rep]) -> f64 {
    median_each(reps, |r| &r.work_ms).iter().sum::<f64>() / 1e3
}

/// Host nanoseconds of serial work per simulated request over the timed
/// part.
fn ns_per_request(reps: &[Rep]) -> f64 {
    let requests = reps.first().map_or(0, |r| r.timed_requests);
    work_s(reps) * 1e9 / requests.max(1) as f64
}

/// Scenarios completed per host second. The sweep takes the median of its
/// replays' wall times, journal included, since its cells may run on
/// several workers; a serial workload takes set-up plus its serial work.
fn cells_per_s(workload: Workload, reps: &[Rep], setup_s: f64) -> f64 {
    let Some(first) = reps.first() else {
        return 0.0;
    };
    let seconds = match workload {
        Workload::SweepJournaled => median(&reps.iter().map(|r| r.wall_ref_s).collect::<Vec<_>>()),
        _ => setup_s + work_s(reps),
    };
    first.scenarios as f64 / seconds
}

/// The end-to-end metrics of the untraced replays: host times at the
/// reference speed from each unit of work at its median, set-up time as the
/// median over replays, and peak memory.
fn end_to_end(report: &Report) -> Vec<(&'static str, f64, String)> {
    if report.plain.is_empty() {
        return Vec::new();
    }
    let mut intervals = median_each(&report.plain, |r| &r.intervals_ms);
    let n = intervals.len();
    let p = tail_p(n);
    let reps = report.plain.len();
    let note = format!("each unit of work at its median of {reps} replays, at reference speed");
    let setup_s = median(&report.plain.iter().map(|r| r.setup_s).collect::<Vec<_>>());
    vec![
        (
            "ns_per_request",
            ns_per_request(&report.plain),
            note.clone(),
        ),
        (
            "interval_ms_p50",
            quantile(&mut intervals, 0.5),
            format!("{n} intervals, each at its median of {reps} replays"),
        ),
        (
            "interval_ms_tail",
            quantile(&mut intervals, p),
            format!(
                "p{:.0} of {n} intervals, {} beyond, each at its median of {reps} replays",
                p * 100.0,
                beyond(n, p),
            ),
        ),
        (
            "cells_per_s",
            cells_per_s(report.workload, &report.plain, setup_s),
            note,
        ),
        ("setup_s", setup_s, format!("median of {reps} set-ups")),
        (
            "peak_rss_mb",
            report.peak_rss_mb,
            "VmHWM of this process".into(),
        ),
    ]
}

/// The per-layer metrics of the fastest traced replay (0 for layers the
/// workload does not run), plus the tracing overhead: `ns_per_request` of
/// the traced against the untraced replays.
fn per_layer(report: &Report) -> Vec<(&'static str, f64, String)> {
    let Some(traced) = fastest(&report.traced) else {
        return Vec::new();
    };
    let note = format!("fastest of {} traced replays", report.traced.len());
    let plain = ns_per_request(&report.plain);
    let traced_ns = ns_per_request(&report.traced);
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            if name == "trace.overhead_pct" {
                let overhead = 100.0 * (traced_ns - plain) / plain;
                let note = format!("traced {traced_ns:.2} vs untraced {plain:.2} ns/request");
                return (name, overhead, note);
            }
            let value = traced.layers.iter().find(|(n, _)| *n == name);
            (name, value.map_or(0.0, |&(_, v)| v), note.clone())
        })
        .collect()
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |&(_, u)| u)
}

/// Prints the human-readable lines and returns the JSON result line.
fn render(report: &Report, trace: bool, seed: u64) -> String {
    println!(
        "perfbench {}: seed {seed}, {} untraced + {} traced replays, {} worker threads available",
        report.workload.name(),
        report.plain.len(),
        report.traced.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    if let Some(sim) = &report.sim {
        for (name, value) in sim.fields() {
            println!("  {name} = {value}");
        }
    }
    for note in &report.notes {
        println!("  {note}");
    }
    for e in &report.errors {
        println!("  FAILED: {e}");
    }
    let metrics = if report.sim.is_none() {
        Vec::new()
    } else if trace {
        per_layer(report)
    } else {
        end_to_end(report)
    };
    let mut correct = report.correct();
    let mut json = String::new();
    for (name, value, note) in &metrics {
        let unit = unit_of(name);
        println!("  {name} = {value} {unit} ({note})");
        if !value.is_finite() {
            correct = false;
            continue;
        }
        if !json.is_empty() {
            json.push(',');
        }
        let _ = write!(json, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        report.attempted.max(1),
        report.failed + u64::from(!correct && report.failed == 0),
    )
}

/// Writes the last traced replay's spans as JSON lines.
fn write_spans(report: &Report, dir: &Path) -> Result<PathBuf, String> {
    let Some(rep) = report.traced.last() else {
        return Err("no traced replay".into());
    };
    let path = dir.join(format!("spans-{}.jsonl", report.workload.name()));
    let mut body = String::new();
    for s in &rep.spans {
        let _ = writeln!(
            body,
            "{{\"span\":\"{}\",\"parent\":\"{}\",\"id\":{},\"interval\":{},\"start_ns\":{},\"dur_ns\":{}}}",
            s.name, s.parent, s.id, s.interval, s.start_ns, s.dur_ns
        );
    }
    std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

fn run_one(workload: Workload, opts: &Options) -> bool {
    let report = measure(workload, opts);
    let line = render(&report, opts.trace, opts.seed);
    println!("{line}");
    report.correct()
}

/// Runs every workload in its own process, untraced then traced, so each
/// process's peak memory belongs to one workload.
fn run_all(opts: &Options) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return false;
        }
    };
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", workload.name(), "--trace", trace])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()]);
            ok &= cmd.status().map(|s| s.success()).unwrap_or(false);
        }
    }
    ok
}

/// Runs every workload at tiny size, traced and untraced, and checks that
/// every metric prints with its unit, that both runs simulated the same
/// thing, and that a wrong expected digest fails the output check.
fn self_test() -> Result<(), String> {
    for workload in Workload::ALL {
        let opts = |trace, expect_digest| Options {
            workload: Some(workload),
            all: false,
            seed: DEFAULT_SEED,
            seconds: 0,
            trace,
            expect_digest,
            tiny: true,
            self_test: false,
        };
        let name = workload.name();
        let plain = measure(workload, &opts(false, None));
        let traced = measure(workload, &opts(true, None));
        for (report, trace) in [(&plain, false), (&traced, true)] {
            if !report.correct() {
                return Err(format!("{name}: {:?}", report.errors));
            }
            let line = render(report, trace, DEFAULT_SEED);
            let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            for (metric, unit) in wanted {
                let field = format!("\"{metric}\":{{\"value\":");
                let unit_field = format!("\"unit\":\"{unit}\"");
                let Some(at) = line.find(&field) else {
                    return Err(format!("{name}: {metric} missing from {line}"));
                };
                if !line[at..].contains(&unit_field) {
                    return Err(format!("{name}: {metric} printed without unit {unit}"));
                }
            }
        }
        let (a, b) = (plain.sim.expect("checked"), traced.sim.expect("checked"));
        if !a.same(&b) {
            return Err(format!("{name}: traced run simulated differently"));
        }
        let wrong = measure(workload, &opts(false, Some(a.digest ^ 1)));
        if wrong.correct() || render(&wrong, false, DEFAULT_SEED).contains("\"correct\":true") {
            return Err(format!("{name}: a wrong expected digest passed the check"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] \
                 [--expect-digest HEX] | --self-test\n\
                 default seed {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED}",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let ok = if opts.self_test {
        match self_test() {
            Ok(()) => {
                println!("perfbench self-test: ok");
                true
            }
            Err(e) => {
                println!("perfbench self-test FAILED: {e}");
                false
            }
        }
    } else if opts.all {
        run_all(&opts)
    } else {
        run_one(opts.workload.expect("parse_args checked"), &opts)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_test_passes() {
        super::self_test().expect("self-test");
    }
}
