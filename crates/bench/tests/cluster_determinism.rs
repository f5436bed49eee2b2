//! Cluster determinism regression: a fig2-shaped sweep (node counts ×
//! per-node policies) must produce byte-identical results no matter how
//! it is executed — serially, on one work-stealing worker, or across
//! several workers claiming clusters in whatever order the scheduler
//! lands on. Each cluster's decision digest folds every (tier, node)
//! placement, so a single divergent dispatch anywhere in any execution
//! strategy fails the test.

use hipster_bench::experiments::cluster::{cluster_spec, sweep_digests};
use hipster_bench::experiments::faults;
use hipster_bench::runner::{hipster_in, static_all_big, Workload};
use hipster_core::{run_tasks, ClusterOutcome};

#[test]
fn sweep_is_identical_across_execution_strategies() {
    let serial = sweep_digests(1);
    let two_workers = sweep_digests(2);
    let four_workers = sweep_digests(4);
    assert!(!serial.is_empty(), "the digest sweep ran no clusters");
    assert_eq!(serial, two_workers, "1 vs 2 workers diverged");
    assert_eq!(serial, four_workers, "1 vs 4 workers diverged");
}

/// The clusters above have 4–8 nodes, so each steps its nodes inline.
/// These have 64, enough for the node stage to step them on threads of
/// its own on any multi-core host, and they run nested inside 1, 2 or 4
/// fleet workers: a clean learning cluster and both zone-wave arms must
/// still replay byte-for-byte.
#[test]
fn large_clusters_are_identical_across_fleet_and_node_stage_threads() {
    type Row = (String, u64, u64, String, String);
    let sweep = |threads: usize| -> Vec<Row> {
        let row = |out: ClusterOutcome| {
            let summary = format!("{:?}", out.summary);
            let csv = out.trace.to_csv();
            (out.name, out.decision_digest, out.decisions, summary, csv)
        };
        let mut tasks: Vec<(String, Box<dyn FnOnce() -> Row + Send>)> = vec![(
            "n64/HipsterIn".to_owned(),
            Box::new(move || {
                let policy = hipster_in(Workload::Memcached.tuned_zones(), 2, 0.05);
                row(cluster_spec("n64/HipsterIn", 64, policy, 6, 7)
                    .build()
                    .expect("valid cluster spec")
                    .run())
            }),
        )];
        for mitigation in [true, false] {
            let name = format!("n64/zonewave/{mitigation}");
            tasks.push((
                name.clone(),
                Box::new(move || {
                    row(faults::zonewave_cluster_spec(
                        name,
                        64,
                        static_all_big(),
                        8,
                        31,
                        mitigation,
                    )
                    .build()
                    .expect("valid zone-wave cluster spec")
                    .run())
                }),
            ));
        }
        run_tasks(tasks, threads).expect("large-cluster sweep").0
    };
    let serial = sweep(1);
    assert_eq!(serial, sweep(2), "1 vs 2 fleet workers diverged");
    assert_eq!(serial, sweep(4), "1 vs 4 fleet workers diverged");
    assert_ne!(serial[1].1, serial[2].1, "zone-wave mitigation must matter");
}

/// PR 8: the same property under fault injection. Fault timelines ride
/// dedicated split-seeded RNG streams and the resilience layer (masking,
/// retries, backoff) adds its own digest folds — all of it must replay
/// byte-for-byte whether the faulted grid runs serially or across 2 or 4
/// work-stealing workers.
#[test]
fn fault_sweep_is_identical_across_execution_strategies() {
    let serial = faults::sweep_digests(1);
    let two_workers = faults::sweep_digests(2);
    let four_workers = faults::sweep_digests(4);
    assert!(!serial.is_empty(), "the fault digest sweep ran no clusters");
    assert_eq!(serial, two_workers, "1 vs 2 workers diverged under faults");
    assert_eq!(serial, four_workers, "1 vs 4 workers diverged under faults");
    // Mitigation on/off must differ: the ablation compares two genuinely
    // different decision streams, not a no-op toggle.
    for pair in serial.chunks(2) {
        if let [on, off] = pair {
            assert_ne!(on.1, off.1, "{} vs {}: same digest", on.0, off.0);
        }
    }
}

/// Same-seed faulted runs reproduce byte-for-byte; a different seed moves
/// the fault timeline and with it the decision stream.
#[test]
fn repeated_faulted_runs_are_byte_identical() {
    let run = |seed: u64| {
        let out = faults::faulty_cluster_spec(
            "fault-determinism",
            "memcached-revocable",
            8,
            static_all_big(),
            6,
            seed,
            true,
        )
        .build()
        .expect("valid faulted cluster spec")
        .run();
        (
            out.decision_digest,
            out.decisions,
            format!("{:?}", out.summary),
            out.trace.to_csv(),
        )
    };
    let first = run(31);
    assert_eq!(first, run(31), "same seed must reproduce byte-for-byte");
    assert_ne!(
        first.0,
        run(32).0,
        "a different seed must move the fault timeline"
    );
}

#[test]
fn repeated_runs_of_one_spec_are_byte_identical() {
    let run = |seed: u64| {
        let out = cluster_spec("determinism", 6, static_all_big(), 3, seed)
            .build()
            .expect("valid cluster spec")
            .run();
        (
            out.decision_digest,
            out.decisions,
            format!("{:?}", out.summary),
            out.trace.to_csv(),
        )
    };
    let first = run(11);
    assert_eq!(first, run(11), "same seed must reproduce byte-for-byte");
    assert_ne!(
        first.0,
        run(12).0,
        "a different seed must change the decision stream"
    );
}
