//! Determinism regression: the same `ScenarioSpec` produces byte-identical
//! traces whether it runs serially or through the multi-threaded
//! work-stealing `Fleet`.

use hipster::workloads::{memcached, web_search};
use hipster::{Diurnal, Fleet, Hipster, OctopusMan, Platform, Policy, Ramp, ScenarioSpec};
use hipster_core::{HeuristicMapper, StaticPolicy, Zones};

/// One scenario, reconstructed identically on every call (specs are
/// single-use: they own their telemetry sinks).
fn spec() -> ScenarioSpec {
    ScenarioSpec::new("determinism", Platform::juno_r1())
        .workload_with(|| Box::new(web_search()))
        .load(Diurnal::paper())
        .policy(|p: &Platform, seed| {
            Box::new(
                Hipster::interactive(p, seed)
                    .learning_intervals(40)
                    .zones(Zones::new(0.85, 0.35))
                    .bucket_width(0.06)
                    .build(),
            ) as Box<dyn Policy>
        })
        .intervals(120)
        .seed(9)
}

#[test]
fn serial_and_fleet_runs_are_byte_identical() {
    let serial = spec().run().expect("valid scenario");
    let serial_csv = serial.trace.to_csv();
    let serial_jsonl: Vec<String> = serial
        .trace
        .intervals()
        .iter()
        .map(hipster::interval_to_jsonl)
        .collect();

    // Four copies of the same spec across four worker threads: every copy
    // must reproduce the serial run exactly, regardless of scheduling.
    let fleet: Fleet = (0..4).map(|_| spec()).collect();
    let outcomes = fleet.threads(4).run().expect("valid fleet");
    assert_eq!(outcomes.len(), 4);
    for outcome in &outcomes {
        assert_eq!(outcome.seed, serial.seed);
        assert_eq!(
            outcome.trace.to_csv().into_bytes(),
            serial_csv.clone().into_bytes()
        );
        let jsonl: Vec<String> = outcome
            .trace
            .intervals()
            .iter()
            .map(hipster::interval_to_jsonl)
            .collect();
        assert_eq!(jsonl, serial_jsonl);
    }
}

#[test]
fn fleet_split_seeds_reproduce_across_runs() {
    let run = |threads: usize| {
        let fleet: Fleet = (0..3).map(|_| spec_unseeded()).collect();
        fleet
            .threads(threads)
            .base_seed(77)
            .run()
            .expect("valid fleet")
    };
    let a = run(1);
    let b = run(3);
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.seed, y.seed);
        assert_eq!(x.trace.to_csv(), y.trace.to_csv());
    }
    // Different indices → different split seeds → different traces.
    assert_ne!(a[0].seed, a[1].seed);
    assert_ne!(a[0].trace.to_csv(), a[1].trace.to_csv());
}

fn spec_unseeded() -> ScenarioSpec {
    ScenarioSpec::new("unseeded", Platform::juno_r1())
        .workload_with(|| Box::new(web_search()))
        .load(Diurnal::paper())
        .policy(|p: &Platform, seed| {
            Box::new(Hipster::interactive(p, seed).learning_intervals(20).build())
                as Box<dyn Policy>
        })
        .intervals(60)
}

/// A shortened fig. 5-shaped fleet — three policies × two workloads under
/// the diurnal load — plus the fig. 8 ramp race, all as one heterogeneous
/// fleet (mixed policies and run lengths, exactly what a scheduler could
/// get wrong).
fn fig5_fig8_fleet() -> Fleet {
    let mut fleet = Fleet::new();
    let zones_mc = Zones::new(0.50, 0.15);
    let zones_ws = Zones::new(0.85, 0.35);
    // fig5-style panels.
    for (workload, zones) in [("memcached", zones_mc), ("web-search", zones_ws)] {
        let lc = move || -> Box<dyn hipster::LcModel> {
            match workload {
                "memcached" => Box::new(memcached()),
                _ => Box::new(web_search()),
            }
        };
        fleet.push(
            ScenarioSpec::new(format!("fig5/{workload}/static"), Platform::juno_r1())
                .workload_with(lc)
                .load(Diurnal::paper())
                .policy(|p: &Platform, _| Box::new(StaticPolicy::all_big(p)) as Box<dyn Policy>)
                .intervals(90)
                .seed(51),
        );
        fleet.push(
            ScenarioSpec::new(format!("fig5/{workload}/octopus"), Platform::juno_r1())
                .workload_with(lc)
                .load(Diurnal::paper())
                .policy(move |p: &Platform, _| {
                    Box::new(OctopusMan::new(p, zones)) as Box<dyn Policy>
                })
                .intervals(120)
                .seed(51),
        );
        fleet.push(
            ScenarioSpec::new(format!("fig5/{workload}/heuristic"), Platform::juno_r1())
                .workload_with(lc)
                .load(Diurnal::paper())
                .policy(move |p: &Platform, _| {
                    Box::new(HeuristicMapper::new(p, zones)) as Box<dyn Policy>
                })
                .intervals(60)
                .seed(51),
        );
    }
    // fig8-style ramp race.
    for (name, learn) in [("hipster", 40u64), ("octopus", 0)] {
        fleet.push(
            ScenarioSpec::new(format!("fig8/{name}"), Platform::juno_r1())
                .workload_with(|| Box::new(memcached()))
                .load(Ramp {
                    from: 0.5,
                    to: 1.0,
                    ramp_s: 100.0,
                })
                .policy(move |p: &Platform, seed| -> Box<dyn Policy> {
                    if learn > 0 {
                        Box::new(
                            Hipster::interactive(p, seed)
                                .learning_intervals(learn)
                                .zones(Zones::new(0.50, 0.15))
                                .bucket_width(0.03)
                                .build(),
                        )
                    } else {
                        Box::new(OctopusMan::new(p, Zones::new(0.50, 0.15)))
                    }
                })
                .intervals(100)
                .seed(71),
        );
    }
    fleet
}

#[test]
fn work_stealing_matches_serial_on_fig5_fig8_fleets() {
    // Serial execution (one worker) is the ground truth.
    let serial = fig5_fig8_fleet().threads(1).run().expect("valid fleet");
    let serial_csv: Vec<(String, u64, String)> = serial
        .iter()
        .map(|o| (o.name.clone(), o.seed, o.trace.to_csv()))
        .collect();

    // Work-stealing across 4 workers must reproduce it byte-for-byte.
    let stealing = fig5_fig8_fleet().threads(4).run().expect("valid fleet");
    assert_eq!(stealing.len(), serial_csv.len());
    for (o, (name, seed, csv)) in stealing.iter().zip(serial_csv.iter()) {
        assert_eq!(&o.name, name);
        assert_eq!(&o.seed, seed);
        assert_eq!(
            o.trace.to_csv().into_bytes(),
            csv.clone().into_bytes(),
            "work-stealing diverged on {name}"
        );
    }
}

#[test]
fn run_each_streams_the_same_outcomes_as_run() {
    let collected = fig5_fig8_fleet().threads(2).run().expect("valid fleet");
    let mut streamed = Vec::new();
    let stats = fig5_fig8_fleet()
        .threads(2)
        .run_each(|o| streamed.push((o.name.clone(), o.trace.to_csv())))
        .expect("valid fleet");
    assert_eq!(stats.scenarios, collected.len());
    assert_eq!(streamed.len(), collected.len());
    for ((name, csv), o) in streamed.iter().zip(collected.iter()) {
        assert_eq!(name, &o.name);
        assert_eq!(csv, &o.trace.to_csv());
    }
}
