//! Engine behaviour tests with controlled toy workload models.

use hipster_platform::{CoreConfig, CoreKind, Frequency, Platform};
use hipster_sim::{
    BatchProgram, ContentionModel, Demand, Engine, LcModel, LoadPattern, MachineConfig, QosTarget,
    ReconfigCosts, SimRng, Trace,
};

/// Toy LC workload: each request needs 1 work unit; a big core at max DVFS
/// retires 1000 units/s (1 ms service), a small core 400 (2.5 ms).
#[derive(Debug)]
struct ToyLc {
    max_rps: f64,
}

impl LcModel for ToyLc {
    fn name(&self) -> &str {
        "toy"
    }
    fn max_load_rps(&self) -> f64 {
        self.max_rps
    }
    fn qos(&self) -> QosTarget {
        QosTarget::new(0.95, 0.010)
    }
    fn sample_demand(&self, _rng: &mut SimRng) -> Demand {
        Demand::new(1.0, 0.0)
    }
    fn service_speed(&self, kind: CoreKind, f: Frequency) -> f64 {
        match kind {
            CoreKind::Big => 1000.0 * f.ratio_to(Frequency::from_mhz(1150)),
            CoreKind::Small => 400.0,
        }
    }
}

#[derive(Debug)]
struct Flat(f64);

impl LoadPattern for Flat {
    fn load_at(&self, _t: f64) -> f64 {
        self.0
    }
    fn duration(&self) -> f64 {
        60.0
    }
}

/// Load `frac` for intervals starting in `[from, until)`, idle otherwise.
#[derive(Debug)]
struct Window {
    from: f64,
    until: f64,
    frac: f64,
}

impl LoadPattern for Window {
    fn load_at(&self, t: f64) -> f64 {
        if (self.from..self.until).contains(&t) {
            self.frac
        } else {
            0.0
        }
    }
    fn duration(&self) -> f64 {
        60.0
    }
}

#[derive(Debug)]
struct ToyBatch;

impl BatchProgram for ToyBatch {
    fn name(&self) -> &str {
        "toybatch"
    }
    fn ips(&self, kind: CoreKind, f: Frequency) -> f64 {
        match kind {
            CoreKind::Big => 2.0e9 * f.ratio_to(Frequency::from_mhz(1150)),
            CoreKind::Small => 0.8e9 * f.ratio_to(Frequency::from_mhz(650)),
        }
    }
}

fn engine(load: f64, seed: u64) -> Engine {
    Engine::new(
        Platform::juno_r1(),
        Box::new(ToyLc { max_rps: 1000.0 }),
        Box::new(Flat(load)),
        seed,
    )
}

fn cfg(label: &str) -> MachineConfig {
    let lc: CoreConfig = label.parse().unwrap();
    MachineConfig::interactive(&Platform::juno_r1(), lc)
}

#[test]
fn low_load_meets_qos_on_big_cores() {
    let mut e = engine(0.3, 1);
    let c = cfg("2B-1.15");
    let mut trace = Trace::new();
    for _ in 0..20 {
        trace.push(e.step(c));
    }
    let qos = QosTarget::new(0.95, 0.010);
    assert_eq!(trace.qos_guarantee_pct(qos), 100.0);
    // ~300 rps offered.
    let s = &trace.intervals()[10];
    assert!(s.arrivals > 200 && s.arrivals < 400, "{}", s.arrivals);
}

#[test]
fn overload_violates_qos() {
    // 1000 rps need 1 core-second of big-core work per second; one small
    // core at 400 units/s is hopeless.
    let mut e = engine(1.0, 2);
    let c = cfg("1S-0.65");
    let mut last = None;
    for _ in 0..10 {
        last = Some(e.step(c));
    }
    let s = last.unwrap();
    assert!(s.tail_latency_s > 0.010, "tail {}", s.tail_latency_s);
    assert!(s.queue_len > 100, "queue should explode: {}", s.queue_len);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut e = engine(0.6, 42);
        let c = cfg("2B2S-0.90");
        (0..15).map(|_| e.step(c)).collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.arrivals, y.arrivals);
        assert_eq!(x.completions, y.completions);
        assert!((x.tail_latency_s - y.tail_latency_s).abs() < 1e-15);
        assert!((x.energy_j - y.energy_j).abs() < 1e-12);
    }
}

#[test]
fn dvfs_lowers_power_and_raises_latency() {
    let mut hi = engine(0.5, 3);
    let mut lo = engine(0.5, 3);
    let chi = cfg("2B-1.15");
    let clo = cfg("2B-0.60");
    let mut p_hi = 0.0;
    let mut p_lo = 0.0;
    let mut l_hi = 0.0;
    let mut l_lo = 0.0;
    for _ in 0..20 {
        let a = hi.step(chi);
        let b = lo.step(clo);
        p_hi += a.power.total();
        p_lo += b.power.total();
        l_hi += a.tail_latency_s;
        l_lo += b.tail_latency_s;
    }
    assert!(p_lo < p_hi, "low DVFS must draw less power");
    assert!(l_lo > l_hi, "low DVFS must be slower");
}

#[test]
fn migration_stall_hurts_tail_latency() {
    // Oscillate between mappings every interval vs staying put, at a load
    // where both mappings can serve the demand.
    let costs = ReconfigCosts {
        core_migration_stall_s: 0.050,
        dvfs_stall_s: 0.0,
        cold_cache_penalty: 1.3,
    };
    let mut osc = engine(0.7, 4).with_costs(costs);
    let mut stay = engine(0.7, 4).with_costs(costs);
    let a = cfg("2B-1.15");
    let b = cfg("4S-0.65");
    let mut osc_tail = 0.0;
    let mut stay_tail = 0.0;
    for i in 0..30 {
        let c = if i % 2 == 0 { a } else { b };
        osc_tail += osc.step(c).tail_latency_s;
        stay_tail += stay.step(a).tail_latency_s;
    }
    assert!(
        osc_tail > 2.0 * stay_tail,
        "oscillation tail {osc_tail} vs stable {stay_tail}"
    );
}

#[test]
fn batch_jobs_run_on_remaining_cores() {
    let mut e = engine(0.2, 5).with_batch_pool(vec![Box::new(ToyBatch)]);
    let lc: CoreConfig = "2S-0.65".parse().unwrap();
    let c = MachineConfig::collocated(&Platform::juno_r1(), lc);
    // LC on small cores only → big cluster boosted to max for batch.
    assert_eq!(c.big_freq, Frequency::from_mhz(1150));
    let s = e.step(c);
    // 2 big batch cores at 2 GIPS + 2 small batch cores at 0.8 GIPS.
    assert!((s.batch_ips_big - 4.0e9).abs() < 1e6, "{}", s.batch_ips_big);
    assert!(
        (s.batch_ips_small - 1.6e9).abs() < 1e6,
        "{}",
        s.batch_ips_small
    );
    assert!(s.counters_valid);
}

#[test]
fn batch_disabled_means_no_batch_ips() {
    let mut e = engine(0.2, 6).with_batch_pool(vec![Box::new(ToyBatch)]);
    let s = e.step(cfg("2S-0.65"));
    assert_eq!(s.batch_ips_big, 0.0);
    assert_eq!(s.batch_ips_small, 0.0);
}

#[test]
fn contention_from_batch_slows_lc() {
    let contention = ContentionModel {
        same_cluster_per_batch_core: 0.5,
        global_per_batch_core: 0.1,
    };
    let mk = |with_batch: bool| {
        let mut e = engine(0.8, 7).with_contention(contention);
        if with_batch {
            e = e.with_batch_pool(vec![Box::new(ToyBatch)]);
        }
        let lc: CoreConfig = "1B1S-1.15".parse().unwrap();
        let c = if with_batch {
            MachineConfig::collocated(&Platform::juno_r1(), lc)
        } else {
            MachineConfig::interactive(&Platform::juno_r1(), lc)
        };
        let mut tail = 0.0;
        for _ in 0..10 {
            tail += e.step(c).tail_latency_s;
        }
        tail
    };
    let with = mk(true);
    let without = mk(false);
    assert!(
        with > 1.2 * without,
        "contention must inflate tails: {with} vs {without}"
    );
}

#[test]
fn perf_quirk_corrupts_counters_until_cpuidle_disabled() {
    let mut e = engine(0.05, 8)
        .with_batch_pool(vec![Box::new(ToyBatch)])
        .with_perf_quirk(true);
    // Low load → idle stretches on LC cores → garbage window.
    let lc: CoreConfig = "2S-0.65".parse().unwrap();
    let c = MachineConfig::collocated(&Platform::juno_r1(), lc);
    let s = e.step(c);
    assert!(!s.counters_valid);
    assert!(s.batch_ips_big > 1.0e17, "garbage values expected");

    e.disable_cpuidle();
    let s = e.step(c);
    assert!(s.counters_valid);
    assert!((s.batch_ips_big - 4.0e9).abs() < 1e6);
}

#[test]
fn energy_meter_accumulates_across_steps() {
    let mut e = engine(0.5, 9);
    let c = cfg("2B-0.90");
    let mut total = 0.0;
    for _ in 0..5 {
        total += e.step(c).energy_j;
    }
    let meter = e.energy_meter().read().total();
    assert!((meter - total).abs() < 1e-9);
    assert!(e.now() == 5.0);
}

#[test]
fn zero_load_intervals_are_quiet() {
    let mut e = engine(0.0, 10);
    let s = e.step(cfg("1S-0.65"));
    assert_eq!(s.arrivals, 0);
    assert_eq!(s.completions, 0);
    assert_eq!(s.tail_latency_s, 0.0);
    // Power is just statics + rest of system.
    assert!(s.power.total() < 1.2);
}

#[test]
#[should_panic(expected = "at least one core")]
fn zero_core_config_rejected() {
    let mut e = engine(0.5, 11);
    let lc = CoreConfig::new(0, 0, Frequency::from_mhz(600), Frequency::from_mhz(650));
    e.step(MachineConfig::interactive(&Platform::juno_r1(), lc));
}

/// A 20 ms-interval engine under the Juno costs, whose 30 ms migration
/// stall outlives the interval it starts in.
fn short_interval_engine(max_rps: f64, load: Window, seed: u64) -> Engine {
    Engine::new(
        Platform::juno_r1(),
        Box::new(ToyLc { max_rps }),
        Box::new(load),
        seed,
    )
    .with_costs(ReconfigCosts::juno_defaults())
    .with_interval(0.02)
    .with_jitter(0.0)
}

#[test]
fn stall_outliving_its_interval_survives_the_next_boundary() {
    // Overloaded big cores keep work in flight into the remap at 0.02, whose
    // 30 ms stall ends at 0.05. Re-applying the same config at 0.04 is a
    // stall-free DVFS reconfigure; it must not start that work early.
    let load = Window {
        from: -1.0,
        until: 0.03,
        frac: 1.0,
    };
    let mut e = short_interval_engine(5000.0, load, 14);
    e.step(cfg("2B-1.15"));
    let remap = e.step(cfg("4S-0.65"));
    assert_eq!(remap.completions, 0, "nothing runs inside the stall");
    let next = e.step(cfg("4S-0.65"));
    for &b in &next.lc_busy {
        assert!(
            b > 0.0 && b <= 0.5 + 1e-9,
            "servers may only work from 0.05 on: {:?}",
            next.lc_busy
        );
    }
}

#[test]
fn work_queued_inside_a_stall_starts_when_it_outlives_its_interval() {
    // Nothing is in flight at the remap; every request of the remap
    // interval queues inside the stall, which ends after the interval. The
    // stall's kick must carry over the boundary and start them at 0.05,
    // not wait for the next reconfigure at 0.06.
    let load = Window {
        from: 0.01,
        until: 0.03,
        frac: 1.0,
    };
    let mut e = short_interval_engine(1000.0, load, 13);
    e.step(cfg("2B-1.15"));
    let remap = e.step(cfg("4S-0.65"));
    assert!(remap.arrivals >= 4, "{}", remap.arrivals);
    assert_eq!(remap.completions, 0);
    let next = e.step(cfg("4S-0.65"));
    assert!(next.completions > 0, "queued work must start at 0.05");
    for &b in &next.lc_busy {
        assert!(
            b > 0.0 && b <= 0.5 + 1e-9,
            "servers start when the stall ends: {:?}",
            next.lc_busy
        );
    }
}

#[test]
fn migrated_cores_counted() {
    let mut e = engine(0.3, 12);
    e.step(cfg("2B-1.15"));
    let s = e.step(cfg("2B2S-0.90"));
    assert_eq!(s.migrated_cores, 2); // +2 small cores
    let s = e.step(cfg("2B2S-0.60"));
    assert_eq!(s.migrated_cores, 0); // DVFS only
    assert_eq!(e.total_migrations(), 2);
}
