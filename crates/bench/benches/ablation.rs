//! Ablation micro-benchmarks: end-to-end manager throughput with the
//! design knobs `repro ablation` studies (hybrid vs pure RL, stochastic
//! band, myopic γ) — measures the *cost* of each variant's decision loop;
//! the *quality* comparison lives in `repro ablation`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hipster_core::{Hipster, Manager, RewardParams};
use hipster_platform::Platform;
use hipster_sim::Engine;
use hipster_workloads::{web_search, Constant};

fn manager(policy: hipster_core::Hipster) -> Manager {
    let engine = Engine::new(
        Platform::juno_r1(),
        Box::new(web_search()),
        Box::new(Constant::new(0.6, 1000.0)),
        9,
    );
    Manager::new(engine, Box::new(policy))
}

fn benches(c: &mut Criterion) {
    let platform = Platform::juno_r1();
    let variants: Vec<(&str, Box<dyn Fn() -> hipster_core::Hipster>)> = vec![
        ("ablation/hybrid", {
            let p = platform.clone();
            Box::new(move || Hipster::interactive(&p, 9).learning_intervals(5).build())
        }),
        ("ablation/pure_rl", {
            let p = platform.clone();
            Box::new(move || {
                Hipster::interactive(&p, 9)
                    .learning_intervals(5)
                    .pure_rl(0.1)
                    .build()
            })
        }),
        ("ablation/no_stochastic", {
            let p = platform.clone();
            Box::new(move || {
                Hipster::interactive(&p, 9)
                    .learning_intervals(5)
                    .stochastic(false)
                    .build()
            })
        }),
        ("ablation/myopic_gamma0", {
            let p = platform.clone();
            Box::new(move || {
                Hipster::interactive(&p, 9)
                    .learning_intervals(5)
                    .reward_params(RewardParams {
                        gamma: 0.0,
                        ..RewardParams::paper_defaults()
                    })
                    .build()
            })
        }),
    ];
    for (name, make) in variants {
        c.bench_function(name, |b| {
            b.iter_batched(
                || manager(make()),
                |mut m| {
                    for _ in 0..10 {
                        criterion::black_box(m.step());
                    }
                },
                BatchSize::SmallInput,
            )
        });
    }
}

criterion_group!(
    name = group;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(5)).warm_up_time(std::time::Duration::from_secs(1));
    targets = benches
);
criterion_main!(group);
