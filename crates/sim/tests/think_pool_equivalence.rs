//! Differential property battery: the heap-backed [`ThinkPool`] must
//! reproduce the linear-scan oracle [`ReferenceThinkPool`] **pop for pop**
//! — identical expiry sequences, lengths and peeks — under plain pushes
//! and bounded pops, tie storms (many clients released at one
//! bit-identical instant), far-future expiries, bursty MMPP-shaped clumps
//! separated by calm gaps, `total_cmp` extremes (infinities, negative
//! zero, huge and tiny magnitudes), `retire_latest` population swings, and
//! a closed-loop population of at least 4096 clients cycling through
//! exponential think times.

use hipster_sim::dist::Exponential;
use hipster_sim::reference::ReferenceThinkPool;
use hipster_sim::{Sampler, SimRng, ThinkPool};
use proptest::prelude::*;

/// One step of the driving sequence. Times are generated relative to a
/// sliding `now` so pops keep the pools non-degenerate.
#[derive(Debug, Clone)]
enum Op {
    /// A think expiry at `now + dt`.
    Push { dt: f64 },
    /// A tie storm: `count` expiries at one bit-identical time.
    PushTies { dt: f64, count: usize },
    /// A far-future expiry `mult × 1e6` seconds out.
    PushFar { mult: f64 },
    /// An MMPP-shaped burst: `count` expiries clumped within `spread`
    /// seconds after a calm gap of `gap` seconds.
    Burst { gap: f64, spread: f64, count: usize },
    /// A `total_cmp` extreme drawn from [`WEIRD`].
    PushWeird { pick: usize },
    /// Pop up to `k` earliest expiries.
    PopSome { k: usize },
    /// Pop every expiry due within the next `dt` seconds (the engine's
    /// peek-then-pop shape).
    PopDue { dt: f64 },
    /// Retire the `k` latest thinkers (interval-boundary population
    /// shrink).
    RetireLatest { k: usize },
    /// A closed-loop client population: `count` think timers drawn
    /// exponential with mean `think` seconds after `now`.
    Population { count: usize, think: f64, seed: u64 },
    /// Closed-loop steady state: pop the `k` earliest expiries and re-arm
    /// each client an exponential think time (mean `think`) after it, so
    /// the population keeps its size.
    Cycle { k: usize, think: f64, seed: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0.0f64..10.0).prop_map(|dt| Op::Push { dt }),
        (0.0f64..2.0, 2usize..40).prop_map(|(dt, count)| Op::PushTies { dt, count }),
        (0.001f64..5000.0).prop_map(|mult| Op::PushFar { mult }),
        (0.5f64..20.0, 0.0001f64..0.05, 4usize..48).prop_map(|(gap, spread, count)| Op::Burst {
            gap,
            spread,
            count
        }),
        (0usize..8).prop_map(|pick| Op::PushWeird { pick }),
        (1usize..64).prop_map(|k| Op::PopSome { k }),
        (0.0f64..8.0).prop_map(|dt| Op::PopDue { dt }),
        (0usize..48).prop_map(|k| Op::RetireLatest { k }),
    ]
}

/// The at-scale arm: a population of at least 4096 think timers, then
/// the closed-loop cycle mixed with the ordinary ops.
fn at_scale_ops() -> impl Strategy<Value = Vec<Op>> {
    let population = (4096usize..4608, 0.05f64..5.0, any::<u64>())
        .prop_map(|(count, think, seed)| Op::Population { count, think, seed });
    let cycle = (1usize..256, 0.05f64..5.0, any::<u64>()).prop_map(|(k, think, seed)| Op::Cycle {
        k,
        think,
        seed,
    });
    let steps = prop::collection::vec((cycle, op_strategy()), 1..12);
    (population, steps).prop_map(|(first, steps)| {
        let rest = steps.into_iter().flat_map(|(cycle, op)| [cycle, op]);
        std::iter::once(first).chain(rest).collect()
    })
}

/// `total_cmp` extremes both pools must order identically. (NaN is
/// exercised by the unit tests in `think.rs`; here every popped time must
/// also move the clock, which NaN cannot.)
const WEIRD: [f64; 8] = [
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    1e300,
    -1e300,
    f64::MIN_POSITIVE,
    4e9,
];

/// Applies `ops` to both pools in lock-step, asserting identical pops,
/// peeks and lengths after every step, then drains both to the end.
fn run_pool_differential(ops: &[Op]) {
    let mut heap = ThinkPool::new();
    let mut scan = ReferenceThinkPool::new();
    let mut now = 0.0f64;
    let push_both = |heap: &mut ThinkPool, scan: &mut ReferenceThinkPool, t: f64| {
        heap.push(t);
        scan.push(t);
    };
    for op in ops {
        match *op {
            Op::Push { dt } => push_both(&mut heap, &mut scan, now + dt),
            Op::PushTies { dt, count } => {
                for _ in 0..count {
                    push_both(&mut heap, &mut scan, now + dt);
                }
            }
            Op::PushFar { mult } => push_both(&mut heap, &mut scan, now + mult * 1e6),
            Op::Burst { gap, spread, count } => {
                let start = now + gap;
                for i in 0..count {
                    push_both(
                        &mut heap,
                        &mut scan,
                        start + spread * (i as f64 / count as f64),
                    );
                }
            }
            Op::PushWeird { pick } => push_both(&mut heap, &mut scan, WEIRD[pick % WEIRD.len()]),
            Op::PopSome { k } => {
                for _ in 0..k {
                    let a = heap.pop_min();
                    let b = scan.pop_min();
                    assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "pop diverged");
                    match a {
                        Some(t) => now = now.max(t.min(1e250)),
                        None => break,
                    }
                }
            }
            Op::PopDue { dt } => {
                let to = now + dt;
                while heap.peek_min().is_some_and(|t| t <= to) {
                    let a = heap.pop_min();
                    let b = scan.pop_min();
                    assert_eq!(
                        a.map(f64::to_bits),
                        b.map(f64::to_bits),
                        "bounded pop diverged at to={to}"
                    );
                }
                now = to;
            }
            Op::RetireLatest { k } => {
                heap.retire_latest(k);
                scan.retire_latest(k);
            }
            Op::Population { count, think, seed } => {
                let (dist, mut rng) = (Exponential::new(1.0 / think), SimRng::seed(seed));
                for _ in 0..count {
                    push_both(&mut heap, &mut scan, now + dist.sample(&mut rng));
                }
            }
            Op::Cycle { k, think, seed } => {
                let (dist, mut rng) = (Exponential::new(1.0 / think), SimRng::seed(seed));
                for _ in 0..k {
                    let a = heap.pop_min();
                    let b = scan.pop_min();
                    assert_eq!(
                        a.map(f64::to_bits),
                        b.map(f64::to_bits),
                        "cycle pop diverged"
                    );
                    let Some(t) = a else { break };
                    now = now.max(t.min(1e250));
                    push_both(&mut heap, &mut scan, now + dist.sample(&mut rng));
                }
            }
        }
        assert_eq!(heap.len(), scan.len(), "len diverged");
        assert_eq!(
            heap.peek_min().map(f64::to_bits),
            scan.peek_min().map(f64::to_bits),
            "peek diverged"
        );
    }
    loop {
        let a = heap.pop_min();
        let b = scan.pop_min();
        assert_eq!(
            a.map(f64::to_bits),
            b.map(f64::to_bits),
            "final drain diverged"
        );
        if a.is_none() {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn heap_pool_matches_reference_pool(
        ops in prop::collection::vec(op_strategy(), 1..300),
    ) {
        run_pool_differential(&ops);
    }
}

proptest! {
    // The oracle pays O(clients) per pop, so fewer, larger cases.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn heap_pool_matches_reference_pool_at_4096_clients(ops in at_scale_ops()) {
        run_pool_differential(&ops);
    }
}
