//! Lookup-table benchmarks: the paper stresses O(1) access (§3.7, the
//! Python-dictionary argument). Measures get / update / argmax on the
//! dense `(bucket, action_index)` table at a realistic size (21 load
//! buckets × 34 configurations).

use criterion::{criterion_group, criterion_main, Criterion};
use hipster_core::{ConfigSpace, QTable};
use hipster_platform::{power_ladder, Platform};

fn benches(c: &mut Criterion) {
    let actions = power_ladder(&Platform::juno_r1());
    let mut table = QTable::for_space(ConfigSpace::new(actions.clone()));
    // Populate every (bucket, config) cell.
    for w in 0..21u32 {
        for i in 0..actions.len() {
            table.update_indexed(w, i, i as f64 * 0.1, (w + 1) % 21, 0.6, 0.9);
        }
    }

    c.bench_function("qtable/get", |b| {
        let mut w = 0u32;
        b.iter(|| {
            w = (w + 1) % 21;
            criterion::black_box(table.value_at(w, (w as usize) % actions.len()))
        })
    });

    c.bench_function("qtable/best_action", |b| {
        let mut w = 0u32;
        b.iter(|| {
            w = (w + 1) % 21;
            criterion::black_box(table.best_index(w))
        })
    });

    c.bench_function("qtable/update", |b| {
        let mut t = table.clone();
        let mut w = 0u32;
        b.iter(|| {
            w = (w + 1) % 21;
            t.update_indexed(w, 3, 2.5, (w + 1) % 21, 0.6, 0.9);
        })
    });
}

criterion_group!(
    name = group;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = benches
);
criterion_main!(group);
