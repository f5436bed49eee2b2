//! Property-based tests (proptest) on the core data structures and
//! invariants across the workspace.

use hipster::core::{LoadBuckets, QTable};
use hipster::platform::{power_ladder, stress_power, CoreConfig, CoreKind, Frequency, Platform};
use hipster::sim::dist::{BoundedPareto, Exponential, LogNormal, Normal, Zipf};
use hipster::sim::{percentile, Sampler, SimRng};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = CoreConfig> {
    (
        0usize..=2,
        0usize..=4,
        prop_oneof![Just(600u32), Just(900), Just(1150)],
    )
        .prop_filter_map("non-empty config", |(nb, ns, mhz)| {
            if nb + ns == 0 {
                None
            } else {
                Some(CoreConfig::new(
                    nb,
                    ns,
                    Frequency::from_mhz(mhz),
                    Frequency::from_mhz(650),
                ))
            }
        })
}

proptest! {
    #[test]
    fn config_label_round_trips(cfg in arb_config()) {
        let label = cfg.to_string();
        let parsed: CoreConfig = label.parse().unwrap();
        prop_assert_eq!(parsed.to_string(), label);
        prop_assert_eq!(parsed.n_big, cfg.n_big);
        prop_assert_eq!(parsed.n_small, cfg.n_small);
        // The label frequency always survives the round trip.
        prop_assert_eq!(parsed.label_freq(), cfg.label_freq());
    }

    #[test]
    fn percentile_lies_within_sample_range(
        mut xs in prop::collection::vec(0.0f64..1e6, 1..300),
        p in 0.0f64..=1.0,
    ) {
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let v = percentile(&mut xs, p).unwrap();
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
    }

    #[test]
    fn percentile_monotone_in_p(
        mut xs in prop::collection::vec(0.0f64..1e6, 2..200),
        p1 in 0.0f64..=1.0,
        p2 in 0.0f64..=1.0,
    ) {
        let (lo_p, hi_p) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = percentile(&mut xs, lo_p).unwrap();
        let b = percentile(&mut xs, hi_p).unwrap();
        prop_assert!(a <= b + 1e-9);
    }

    #[test]
    fn buckets_are_monotone_and_invertible(
        width in 0.01f64..0.5,
        load in 0.0f64..1.0,
    ) {
        let b = LoadBuckets::new(width);
        let w = b.bucket(load);
        prop_assert!((w as usize) < b.num_buckets());
        // The bucket of the bucket centre is the bucket itself.
        prop_assert_eq!(b.bucket(b.center(w)), w);
        // Monotonicity against a nudge upward.
        prop_assert!(b.bucket((load + 0.05).min(1.0)) >= w);
    }

    #[test]
    fn stress_power_monotone_in_cores(cfg in arb_config()) {
        let platform = Platform::juno_r1();
        let power = stress_power(&platform, &cfg);
        // Adding a small core never reduces stress power.
        if cfg.n_small < 4 {
            let bigger = CoreConfig::new(cfg.n_big, cfg.n_small + 1, cfg.big_freq, cfg.small_freq);
            prop_assert!(stress_power(&platform, &bigger) >= power - 1e-12);
        }
        // Power is bounded by TDP.
        prop_assert!(power <= platform.power_model().tdp(&platform) + 1e-9);
    }

    #[test]
    fn qtable_update_is_bounded_fixed_point(
        reward in -10.0f64..10.0,
        alpha in 0.01f64..1.0,
        n in 1usize..100,
    ) {
        // Repeated updates with the same reward and no future value
        // converge toward the reward without overshooting.
        let mut t = QTable::new();
        let cfg: CoreConfig = "2B-1.15".parse().unwrap();
        let actions = [cfg];
        for _ in 0..n {
            t.update(0, cfg, reward, 1, &[], alpha, 0.9);
        }
        let v = t.get(0, &cfg);
        prop_assert!(v.abs() <= reward.abs() + 1e-9, "v={v} reward={reward}");
        prop_assert!(v * reward >= 0.0, "sign must match");
        let _ = actions;
    }

    #[test]
    fn qtable_best_action_returns_member(
        values in prop::collection::vec(-5.0f64..5.0, 1..20),
    ) {
        let platform = Platform::juno_r1();
        let ladder = power_ladder(&platform);
        let actions: Vec<CoreConfig> = ladder.into_iter().take(values.len()).collect();
        let mut t = QTable::new();
        for (c, v) in actions.iter().zip(values.iter()) {
            t.update(3, *c, *v, 3, &[], 1.0, 0.0);
        }
        let best = t.best_action(3, &actions).unwrap();
        prop_assert!(actions.contains(&best));
        // Its value is maximal.
        let vb = t.get(3, &best);
        for c in &actions {
            prop_assert!(vb >= t.get(3, c) - 1e-12);
        }
    }

    #[test]
    fn exponential_samples_nonnegative(rate in 0.001f64..1e6, seed in 0u64..500) {
        let d = Exponential::new(rate);
        let mut rng = SimRng::seed(seed);
        for _ in 0..50 {
            prop_assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn lognormal_samples_positive(median in 0.001f64..1e4, sigma in 0.0f64..3.0, seed in 0u64..500) {
        let d = LogNormal::from_median(median, sigma);
        let mut rng = SimRng::seed(seed);
        for _ in 0..50 {
            prop_assert!(d.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn normal_samples_finite(
        mean in -1e6f64..1e6,
        std_dev in 0.0f64..1e6,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let d = Normal::new(mean, std_dev);
        let mut rng = SimRng::seed(seed);
        for _ in 0..200 {
            prop_assert!(d.sample(&mut rng).is_finite());
        }
    }

    #[test]
    fn bounded_pareto_respects_bounds(
        lo in 0.01f64..10.0,
        span in 0.1f64..100.0,
        alpha in 0.2f64..4.0,
        seed in 0u64..500,
    ) {
        let hi = lo + span;
        let d = BoundedPareto::new(lo, hi, alpha);
        let mut rng = SimRng::seed(seed);
        for _ in 0..50 {
            let x = d.sample(&mut rng);
            prop_assert!(x >= lo - 1e-9 && x <= hi + 1e-9, "{x} outside [{lo},{hi}]");
        }
    }

    #[test]
    fn zipf_ranks_in_range(n in 1usize..5000, s in 0.0f64..3.0, seed in 0u64..500) {
        let d = Zipf::new(n, s);
        let mut rng = SimRng::seed(seed);
        for _ in 0..20 {
            let r = d.sample_rank(&mut rng);
            prop_assert!((1..=n).contains(&r));
        }
    }

    #[test]
    fn power_ladder_is_sorted_for_any_platform_subset(k in 1usize..34) {
        let platform = Platform::juno_r1();
        let ladder = power_ladder(&platform);
        let subset: Vec<CoreConfig> = ladder.into_iter().take(k).collect();
        for w in subset.windows(2) {
            prop_assert!(
                stress_power(&platform, &w[0]) <= stress_power(&platform, &w[1]) + 1e-12
            );
        }
    }

    #[test]
    fn service_speed_scales_linearly(mhz in 300u32..3000) {
        use hipster::sim::LcModel as _;
        let w = hipster::memcached();
        let f = Frequency::from_mhz(mhz);
        let base = w.service_speed(CoreKind::Big, Frequency::from_mhz(1150));
        let scaled = w.service_speed(CoreKind::Big, f);
        let expect = base * f64::from(mhz) / 1150.0;
        prop_assert!((scaled - expect).abs() < 1e-6 * expect.max(1.0));
    }
}
