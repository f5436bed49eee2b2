//! PR 10 property battery: correlated-wave edge cases.
//!
//! * **All nodes masked**: the dispatcher survives a total mask without
//!   panicking or dividing by zero, mask/unmask cycles consume zero RNG
//!   draws (so an unmask resumes the exact pre-mask decision stream),
//!   and at the cluster level an interval
//!   whose whole private tier is revoked routes 100% of its offered
//!   quanta to the cloud tier.
//! * **Disarmed subsystems**: declaring a failure-domain topology with
//!   no armed waves, an infinite hedge trigger, and an unarmed
//!   admission ladder stays byte-identical to the plain fault path
//!   under arbitrary seeds, sizes and dispatch policies — the PR 10
//!   machinery is provably free until armed.

use proptest::prelude::*;

use hipster_core::cluster::{
    AdmissionSpec, ClusterOutcome, ClusterSpec, DispatchPolicy, Dispatcher, OverflowSpec, RetrySpec,
};
use hipster_core::{Policy, StaticPolicy};
use hipster_platform::Platform;
use hipster_sim::{DomainFaultSpec, HedgeSpec, SimRng, TopologySpec};
use hipster_workloads::{memcached, Constant};

/// A trivial two-zone topology for an even `n`: the lower half of the
/// tier is zone/rack 0, the upper half zone/rack 1.
fn half_topology(n: usize) -> (Vec<u16>, Vec<u16>) {
    let zone_of: Vec<u16> = (0..n).map(|i| u16::from(i >= n / 2)).collect();
    let rack_of = zone_of.clone();
    (zone_of, rack_of)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Masking every node must not panic or divide by zero; the raw
    /// policy candidate comes back unchanged
    /// (the cluster layer strands work instead), so the fully-masked
    /// dispatcher stays pick-for-pick and RNG-for-RNG identical to a
    /// never-masked mirror — which is exactly what "unmask restores the
    /// pre-mask stream" means.
    #[test]
    fn all_nodes_masked_never_panics_and_unmask_restores_the_rng_stream(
        nodes in 2usize..48,
        cap in 1u32..16,
        seed in 0u64..1_000,
        picks_masked in 1usize..40,
        picks_after in 1usize..40,
        with_topology in any::<bool>(),
        degrade_all in any::<bool>(),
    ) {
        let nodes = nodes & !1; // even, for half_topology
        let nodes = nodes.max(2);
        for policy in DispatchPolicy::ALL {
            let mut masked = Dispatcher::new(policy, nodes, cap);
            let mut mirror = Dispatcher::new(policy, nodes, cap);
            if with_topology {
                let (zones, racks) = half_topology(nodes);
                masked.set_topology(zones.clone(), racks.clone());
                mirror.set_topology(zones, racks);
                if degrade_all {
                    // Every domain degraded on both dispatchers: domain
                    // steering must degenerate to the plain path, not
                    // spin or divide by the number of healthy domains.
                    for d in [&mut masked, &mut mirror] {
                        d.set_domain_degraded(false, 0, true);
                        d.set_domain_degraded(false, 1, true);
                        d.set_domain_degraded(true, 0, true);
                        d.set_domain_degraded(true, 1, true);
                    }
                }
            }
            for node in 0..nodes {
                masked.set_masked(node, true);
            }
            let mut rng_m = SimRng::seed(seed);
            let mut rng_mirror = SimRng::seed(seed);
            for k in 0..picks_masked {
                // Alternate plain and retry placement under total mask.
                let (m, r) = if k % 3 == 2 {
                    (masked.pick_retry(&mut rng_m), mirror.pick_retry(&mut rng_mirror))
                } else {
                    (masked.pick(&mut rng_m), mirror.pick(&mut rng_mirror))
                };
                prop_assert!(m < nodes && r < nodes);
                prop_assert_eq!(m, r, "{}: total mask changed the raw candidate", policy.name());
            }
            for node in 0..nodes {
                masked.set_masked(node, false);
            }
            // The mask cycle consumed zero RNG draws and left identical
            // occupancy, so the post-unmask decision streams coincide.
            for _ in 0..picks_after {
                let m = masked.pick(&mut rng_m);
                let r = mirror.pick(&mut rng_mirror);
                prop_assert_eq!(m, r, "{}: unmask did not restore the stream", policy.name());
            }
            prop_assert_eq!(rng_m.next_u64(), rng_mirror.next_u64());
        }
    }
}

fn base_spec(name: &str, nodes: usize, intervals: usize, seed: u64) -> ClusterSpec {
    let private = nodes - 1;
    ClusterSpec::new(name, Platform::juno_r1())
        .workload_with(|| Box::new(memcached()))
        .load(Constant::new(0.5, intervals as f64 * 0.05))
        .policy(|p: &Platform, _| Box::new(StaticPolicy::all_big(p)) as Box<dyn Policy>)
        .dispatch(DispatchPolicy::PowerOfTwo)
        .private_nodes(private)
        .cloud_nodes(1)
        .overflow(OverflowSpec::new(0.85, 0.12 / 3600.0))
        .intervals(intervals)
        .interval_s(0.05)
        .seed(seed)
        .retry(RetrySpec::default())
}

fn run(spec: ClusterSpec) -> ClusterOutcome {
    spec.build().expect("valid cluster spec").run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whenever a wave revokes the entire private tier, no quantum may
    /// be dispatched onto a dead node: each either spills to the cloud
    /// tier (past the overflow watermark) or strands into the retry
    /// queue and resurfaces as a retried quantum one backoff interval
    /// later. The total outage must never panic or divide by an empty
    /// tier.
    #[test]
    fn fully_revoked_private_tier_degrades_to_the_cloud_or_retry_queue(
        nodes in 4usize..10,
        seed in 0u64..200,
    ) {
        // One flat zone holding the whole private tier: any zone
        // revocation is a total outage.
        let private = nodes - 1;
        let out = run(base_spec("wave-prop/total-outage", nodes, 12, seed)
            .topology(TopologySpec::flat(private).expect("flat topology"))
            .domain_faults(DomainFaultSpec::none().with_zone_revocations(40.0, 0.5)));
        let ivs = out.trace.intervals();
        for (i, iv) in ivs.iter().enumerate() {
            if iv.revoked_nodes == private && iv.quanta > 0 && iv.spilled_quanta == 0 {
                // Everything stranded: the default one-interval backoff
                // must re-dispatch the batch in the very next interval.
                if let Some(next) = ivs.get(i + 1) {
                    prop_assert!(
                        next.retried_quanta > 0,
                        "interval {}: stranded quanta never hit the retry path", iv.index
                    );
                }
            }
        }
    }

    /// The disarmed PR 10 stack — topology declared, `none()` waves,
    /// infinite hedge delay, unarmed admission — replays the plain
    /// path byte-for-byte at arbitrary seeds, sizes and policies.
    #[test]
    fn disarmed_wave_stack_is_byte_identical_at_any_seed(
        nodes in 4usize..10,
        intervals in 3usize..7,
        seed in 0u64..500,
        policy_idx in 0usize..DispatchPolicy::ALL.len(),
    ) {
        let policy = DispatchPolicy::ALL[policy_idx];
        let private = nodes - 1;
        let plain = run(base_spec("wave-prop/disarmed", nodes, intervals, seed).dispatch(policy));
        let disarmed = run(base_spec("wave-prop/disarmed", nodes, intervals, seed)
            .dispatch(policy)
            .topology(TopologySpec::flat(private).expect("flat topology"))
            .domain_faults(DomainFaultSpec::none())
            .hedge(HedgeSpec::none())
            .admission(AdmissionSpec::none()));
        prop_assert_eq!(plain.decision_digest, disarmed.decision_digest);
        prop_assert_eq!(plain.decisions, disarmed.decisions);
        prop_assert_eq!(plain.trace.to_csv(), disarmed.trace.to_csv());
        prop_assert_eq!(
            format!("{:?}", plain.summary),
            format!("{:?}", disarmed.summary)
        );
    }
}

/// Deterministic companion to the conditional property above: at this
/// rate and duration a total-outage interval provably occurs, so the
/// 100%-cloud-routing branch cannot silently stop being exercised.
#[test]
fn total_outage_intervals_actually_occur() {
    let private = 5;
    let out = run(base_spec("wave-prop/outage-witness", 6, 6, 9)
        .topology(TopologySpec::flat(private).expect("flat topology"))
        .domain_faults(DomainFaultSpec::none().with_zone_revocations(40.0, 0.5)));
    let full = out
        .trace
        .intervals()
        .iter()
        .filter(|iv| iv.revoked_nodes == private && iv.quanta > 0)
        .count();
    assert!(full > 0, "expected at least one fully-revoked interval");
}
