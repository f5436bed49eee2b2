//! Differential property test: the flat-array [`ServiceNode`] must
//! reproduce the linear-scan oracle [`ReferenceNode`] event for event —
//! identical completion streams, timeouts, and bit-identical interval
//! statistics — under arbitrary arrival / advance / preempt / stall /
//! DVFS-reconfigure / full-revocation / interval-boundary sequences.
//!
//! The server sets cover both dispatch orders the node must get right:
//! a speed ladder with equal-speed ties, and heterogeneous big/small
//! mixes of up to eight servers whose per-server slowdowns split
//! speed-equal servers into different *effective* speeds. Rescales either
//! keep each server's speed or land every server on one speed (all ties).
//! An at-scale arm drives ladders of 32–64 servers under arrivals dense
//! enough to keep every server busy and the queue growing, a spike arm
//! queues far past the node's ring and several of its spill segments while
//! remaps, a rescale and a revocation land mid-spike, and a tie-storm arm
//! keeps every time on a dyadic grid so that completions, arrivals, stall
//! ends and timeouts coincide exactly.
//!
//! Bursts drive [`ServiceNode::arrive_burst`] while the oracle takes the
//! same requests one [`ReferenceNode::arrive`] at a time. The default,
//! timeout and tie-storm arms mix them in, some longer than the engine's
//! 64-demand runs, and the tie storm lands them exactly at stall ends,
//! timeout boundaries and completion instants.

use hipster_platform::{CoreKind, Frequency};
use hipster_sim::reference::ReferenceNode;
use hipster_sim::{Demand, ServerSpec, ServiceNode};
use proptest::prelude::*;

/// One step of the driving sequence, generated from raw random draws.
#[derive(Debug, Clone)]
enum Op {
    /// Let `dt` pass, processing completions, then submit a request.
    Arrive { dt: f64, work: f64, mem: f64 },
    /// Let `dt` pass, processing completions, then submit requests
    /// arriving together: one `arrive_burst` on the node under test, one
    /// `arrive` each on the oracle. Like the engine's event loop, a burst
    /// due at the pending kick's instant arrives before the kick.
    Burst { dt: f64, demands: Vec<Demand> },
    /// Let `dt` pass, processing completions.
    Advance { dt: f64 },
    /// Preempting reconfiguration to `n` servers drawn from `seed`
    /// ([`mixed_specs`] when `mixed`, else [`ladder_specs`]), stalled by
    /// `stall`.
    Remap {
        n: usize,
        seed: u64,
        stall: f64,
        mixed: bool,
    },
    /// DVFS-style rescale of the current servers (no count change). With
    /// `uniform`, every server lands on the same speed.
    Rescale {
        factor: f64,
        stall: f64,
        uniform: bool,
    },
    /// Revoke every server. Arrivals queue (and shed on timeout) until the
    /// next `Remap` brings servers back.
    RevokeAll,
    /// Close the monitoring interval and open the next one.
    Interval,
}

/// A speed ladder: a few equal-speed servers to exercise dispatch ties,
/// plus distinct speeds to exercise the ordering.
fn ladder_specs(n: usize, seed: u64) -> Vec<ServerSpec> {
    (0..n)
        .map(|i| {
            let speed = match (seed as usize + i) % 4 {
                0 | 1 => 2.0,
                2 => 1.0,
                _ => 4.0,
            };
            ServerSpec {
                kind: if i % 2 == 0 {
                    CoreKind::Big
                } else {
                    CoreKind::Small
                },
                freq: Frequency::from_mhz(1000),
                speed,
                slowdown: 1.0 + (i % 3) as f64 * 0.25,
            }
        })
        .collect()
}

/// A heterogeneous big/small mix: several distinct speeds with repeats
/// (dispatch ties), and slowdowns that split speed-equal servers into
/// different effective speeds.
fn mixed_specs(n: usize, seed: u64) -> Vec<ServerSpec> {
    (0..n)
        .map(|i| {
            let speed = match (seed as usize + i) % 5 {
                0 | 1 => 2.0,
                2 => 0.8,
                3 => 4.0,
                _ => 2.0,
            };
            ServerSpec {
                kind: if speed >= 2.0 {
                    CoreKind::Big
                } else {
                    CoreKind::Small
                },
                freq: Frequency::from_mhz(1000),
                speed,
                slowdown: 1.0 + ((seed as usize + i) % 3) as f64 * 0.5,
            }
        })
        .collect()
}

/// The at-scale arm: a 64-server ladder, then bursts of heavy arrivals
/// about 10 ms apart (well past what 64 servers drain), each burst
/// followed by a re-ladder of 32–64 servers, a rescale, an advance or an
/// interval boundary.
fn at_scale_ops() -> impl Strategy<Value = Vec<Op>> {
    let arrival = (0.0f64..0.02, 1.0f64..4.0, 0.0f64..0.25)
        .prop_map(|(dt, work, mem)| Op::Arrive { dt, work, mem });
    let other = prop_oneof![
        (0.0f64..0.5).prop_map(|dt| Op::Advance { dt }),
        (32usize..=64, 0u64..8, 0.0f64..0.3).prop_map(|(n, seed, stall)| Op::Remap {
            n,
            seed,
            stall,
            mixed: false
        }),
        (0.5f64..2.0, 0.0f64..0.1, any::<bool>()).prop_map(|(factor, stall, uniform)| {
            Op::Rescale {
                factor,
                stall,
                uniform,
            }
        }),
        Just(Op::Interval),
    ];
    let step = (prop::collection::vec(arrival, 1..16), other).prop_map(|(mut ops, op)| {
        ops.push(op);
        ops
    });
    (0u64..8, prop::collection::vec(step, 1..60)).prop_map(|(seed, steps)| {
        let ladder = Op::Remap {
            n: 64,
            seed,
            stall: 0.0,
            mixed: false,
        };
        std::iter::once(ladder)
            .chain(steps.into_iter().flatten())
            .collect()
    })
}

/// The tie-storm arm: gaps and memory time in steps of 1/16 s, work in
/// steps of 1/8 unit and stalls in steps of 1/16 s on ladders of speeds 1,
/// 2 and 4 with slowdowns 1, 1.25 and 1.5, rescaled by 0.5 or 2. Every sum
/// is then an exact binary fraction, so completions fall due exactly at
/// arrivals, kicks and interval ends, and ages exactly at the timeout.
/// Each interval boundary follows a grid step, which keeps it off the
/// harness's 1 µs nudge for empty intervals.
fn tie_storm_ops() -> impl Strategy<Value = Vec<Op>> {
    let sixteenths = |k: u32| f64::from(k) / 16.0;
    let demand = move || {
        (1u32..16, 0u32..4)
            .prop_map(move |(work, mem)| Demand::new(f64::from(work) / 8.0, sixteenths(mem)))
    };
    let arrival = move || {
        (0u32..4, demand()).prop_map(move |(dt, d)| {
            vec![Op::Arrive {
                dt: sixteenths(dt),
                work: d.work,
                mem: d.mem_s,
            }]
        })
    };
    let burst = move || {
        (0u32..4, prop::collection::vec(demand(), 1..100)).prop_map(move |(dt, demands)| {
            vec![Op::Burst {
                dt: sixteenths(dt),
                demands,
            }]
        })
    };
    // A stalled remap, requests that queue during the stall, then a burst
    // at the stall's end (before its kick) or when the queued requests'
    // age reaches the harness's 0.75 s timeout (12/16) or passes it.
    let after_a_stall = (
        (1usize..6, 0u64..8, 1u32..16),
        prop::collection::vec(demand(), 0..4),
        (0usize..3, prop::collection::vec(demand(), 1..80)),
    )
        .prop_map(move |((n, seed, stall), queued, (at, demands))| {
            let mut ops = vec![Op::Remap {
                n,
                seed,
                stall: sixteenths(stall),
                mixed: false,
            }];
            ops.extend(queued.into_iter().map(|d| Op::Arrive {
                dt: 0.0,
                work: d.work,
                mem: d.mem_s,
            }));
            ops.push(Op::Burst {
                dt: sixteenths([stall, 12, 13][at]),
                demands,
            });
            ops
        });
    let step = prop_oneof![
        arrival(),
        arrival(),
        arrival(),
        burst(),
        burst(),
        after_a_stall,
        (0u32..8).prop_map(move |dt| vec![Op::Advance { dt: sixteenths(dt) }]),
        (1usize..6, 0u64..8, 0u32..4).prop_map(move |(n, seed, stall)| vec![Op::Remap {
            n,
            seed,
            stall: sixteenths(stall),
            mixed: false
        }]),
        (any::<bool>(), 0u32..3, any::<bool>()).prop_map(move |(up, stall, uniform)| {
            vec![Op::Rescale {
                factor: if up { 2.0 } else { 0.5 },
                stall: sixteenths(stall),
                uniform,
            }]
        }),
        Just(vec![Op::RevokeAll]),
        (1u32..8).prop_map(move |dt| vec![Op::Advance { dt: sixteenths(dt) }, Op::Interval]),
    ];
    prop::collection::vec(step, 1..200).prop_map(|steps| steps.into_iter().flatten().collect())
}

/// A backlog past the node's 128-request ring and three 128-request spill
/// segments.
const DEEP: usize = 512;

/// The spike arm: a few servers, then arrivals about 1 ms apart, far more
/// than they drain, so the backlog grows past the ring and several spill
/// segments (the at-scale arm peaks below 300). A preempting remap, a DVFS
/// rescale and a full revocation land in the middle of the spike; servers
/// come back, the interval closes, and the harness drains the rest.
fn spike_ops() -> impl Strategy<Value = Vec<Op>> {
    let burst = |len: std::ops::Range<usize>| {
        let arrival = (0.0f64..0.002, 0.5f64..2.0, 0.0f64..0.1)
            .prop_map(|(dt, work, mem)| Op::Arrive { dt, work, mem });
        prop::collection::vec(arrival, len)
    };
    let remap = |stall: f64| {
        (1usize..6, 0u64..10, any::<bool>(), 0.0f64..1.0).prop_map(move |(n, seed, mixed, s)| {
            Op::Remap {
                n,
                seed,
                stall: s * stall,
                mixed,
            }
        })
    };
    let rescale =
        (0.5f64..2.0, 0.0f64..0.01, any::<bool>()).prop_map(|(factor, stall, uniform)| {
            Op::Rescale {
                factor,
                stall,
                uniform,
            }
        });
    (
        (remap(0.0), burst(600..900)),
        (remap(0.05), burst(100..300)),
        (rescale, burst(100..300)),
        burst(50..200),
        (remap(0.05), burst(100..300)),
    )
        .prop_map(
            |((start, b0), (remap, b1), (rescale, b2), revoked, (back, b3))| {
                let mut ops = vec![start];
                ops.extend(b0);
                ops.push(remap);
                ops.extend(b1);
                ops.push(rescale);
                ops.extend(b2);
                ops.push(Op::RevokeAll);
                ops.extend(revoked);
                ops.push(back);
                ops.extend(b3);
                ops.push(Op::Interval);
                ops
            },
        )
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let demand = (0.1f64..4.0, 0.0f64..0.5).prop_map(|(work, mem)| Demand::new(work, mem));
    prop_oneof![
        (0.0f64..0.4, prop::collection::vec(demand, 1..80))
            .prop_map(|(dt, demands)| Op::Burst { dt, demands }),
        (0.0f64..0.4, 0.1f64..4.0, 0.0f64..0.5).prop_map(|(dt, work, mem)| Op::Arrive {
            dt,
            work,
            mem
        }),
        // Heavy, compute-bound requests keep every server busy.
        (0.0f64..0.4, 1.0f64..4.0, 0.0f64..0.25).prop_map(|(dt, work, mem)| Op::Arrive {
            dt,
            work,
            mem
        }),
        (0.0f64..1.0).prop_map(|dt| Op::Advance { dt }),
        (1usize..6, 0u64..8, 0.0f64..0.3).prop_map(|(n, seed, stall)| Op::Remap {
            n,
            seed,
            stall,
            mixed: false
        }),
        (1usize..9, 0u64..10, 0.0f64..0.3).prop_map(|(n, seed, stall)| Op::Remap {
            n,
            seed,
            stall,
            mixed: true
        }),
        (0.5f64..2.0, 0.0f64..0.1, any::<bool>()).prop_map(|(factor, stall, uniform)| {
            Op::Rescale {
                factor,
                stall,
                uniform,
            }
        }),
        Just(Op::RevokeAll),
        Just(Op::Interval),
    ]
}

/// The most requests a differential run had in flight, and waiting, at
/// once.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Peaks {
    in_flight: usize,
    queued: usize,
}

/// Applies `ops` to both implementations in lock-step, asserting identical
/// observable behaviour after every step.
fn run_differential(ops: &[Op], timeout: Option<f64>) -> Peaks {
    let mut new = ServiceNode::new();
    let mut old = ReferenceNode::new();
    new.set_timeout(timeout);
    old.set_timeout(timeout);
    let initial = ladder_specs(2, 0);
    let mut current_specs = initial.clone();
    new.reconfigure(0.0, &initial, true, 0.0);
    old.reconfigure(0.0, &initial, true, 0.0);
    new.begin_interval(0.0);
    old.begin_interval(0.0);

    let mut now = 0.0f64;
    let mut interval_start = 0.0f64;
    // Pending kick from the last stalled reconfiguration: delivered (like
    // the engine's event loop) before the first later event, so arrivals
    // and advances land *inside* the stall window.
    let mut kick_at: Option<f64> = None;
    let mut peaks = Peaks {
        in_flight: 0,
        queued: 0,
    };
    for op in ops {
        match *op {
            Op::Arrive { dt, work, mem } => {
                now += dt;
                deliver_kick(&mut new, &mut old, &mut kick_at, now);
                advance_both(&mut new, &mut old, now);
                let d = Demand::new(work, mem);
                new.arrive(now, d);
                old.arrive(now, d);
            }
            Op::Burst { dt, ref demands } => {
                now += dt;
                if kick_at.is_some_and(|k| k < now) {
                    deliver_kick(&mut new, &mut old, &mut kick_at, now);
                }
                advance_both(&mut new, &mut old, now);
                new.arrive_burst(now, demands);
                for &d in demands {
                    old.arrive(now, d);
                }
            }
            Op::Advance { dt } => {
                now += dt;
                deliver_kick(&mut new, &mut old, &mut kick_at, now);
                advance_both(&mut new, &mut old, now);
            }
            Op::Remap {
                n,
                seed,
                stall,
                mixed,
            } => {
                current_specs = if mixed {
                    mixed_specs(n, seed)
                } else {
                    ladder_specs(n, seed)
                };
                new.reconfigure(now, &current_specs, true, stall);
                old.reconfigure(now, &current_specs, true, stall);
                kick_at = if stall > 0.0 { Some(now + stall) } else { None };
            }
            Op::Rescale { .. } if current_specs.is_empty() => {
                // Still revoked: the engine re-applies the revocation every
                // interval.
                new.revoke_all(now);
                old.revoke_all(now);
            }
            Op::Rescale {
                factor,
                stall,
                uniform,
            } => {
                for s in &mut current_specs {
                    if uniform {
                        s.speed = 2.0 * factor;
                        s.slowdown = 1.0;
                    } else {
                        s.speed *= factor;
                    }
                }
                new.reconfigure(now, &current_specs, false, stall);
                old.reconfigure(now, &current_specs, false, stall);
                kick_at = if stall > 0.0 { Some(now + stall) } else { None };
            }
            Op::RevokeAll => {
                new.revoke_all(now);
                old.revoke_all(now);
                current_specs.clear();
            }
            Op::Interval => {
                now = now.max(interval_start + 1e-6);
                deliver_kick(&mut new, &mut old, &mut kick_at, now);
                let a = new.end_interval(now, 0.95);
                let b = old.end_interval(now, 0.95);
                assert_eq!(a, b, "interval stats diverged");
                interval_start = now;
                new.begin_interval(now);
                old.begin_interval(now);
            }
        }
        assert_eq!(
            new.num_servers(),
            old.num_servers(),
            "server count diverged"
        );
        assert_eq!(new.queue_len(), old.queue_len(), "queue length diverged");
        assert_eq!(new.in_flight(), old.in_flight(), "in-flight diverged");
        assert_eq!(
            new.next_completion(),
            old.next_completion(),
            "next completion diverged"
        );
        assert_eq!(new.total_completed(), old.total_completed());
        peaks.in_flight = peaks.in_flight.max(new.in_flight());
        peaks.queued = peaks.queued.max(new.queue_len());
    }
    // A revoked node gets its servers back, then both drain and compare
    // the final interval.
    if current_specs.is_empty() {
        new.reconfigure(now, &initial, true, 0.0);
        old.reconfigure(now, &initial, true, 0.0);
    }
    now += 1000.0;
    deliver_kick(&mut new, &mut old, &mut kick_at, now);
    advance_both(&mut new, &mut old, now);
    let a = new.end_interval(now, 0.95);
    let b = old.end_interval(now, 0.95);
    assert_eq!(a, b, "final interval stats diverged");
    peaks
}

/// Retires every completion due by `to` on both nodes, asserting equal
/// completion streams.
fn advance_both(new: &mut ServiceNode, old: &mut ReferenceNode, to: f64) {
    let mut new_done = Vec::new();
    let mut old_done = Vec::new();
    new.advance_collect(to, &mut new_done);
    old.advance_collect(to, &mut old_done);
    assert_eq!(new_done, old_done, "completion streams diverged");
}

/// Delivers the pending kick if it falls due by `t`, in the engine's
/// order: completions due by the kick retire first, then the kick
/// dispatches.
fn deliver_kick(new: &mut ServiceNode, old: &mut ReferenceNode, kick_at: &mut Option<f64>, t: f64) {
    if let Some(k) = kick_at.filter(|&k| k <= t) {
        advance_both(new, old, k);
        new.kick(k);
        old.kick(k);
        *kick_at = None;
    }
}

/// Witness for the at-scale arm: heavy arrivals 5 ms apart fill every
/// server of the 64-server ladder and queue the rest.
#[test]
fn sixty_four_server_ladder_runs_full() {
    let ladder = Op::Remap {
        n: 64,
        seed: 0,
        stall: 0.0,
        mixed: false,
    };
    let arrivals = (0..400).map(|_| Op::Arrive {
        dt: 0.005,
        work: 3.0,
        mem: 0.1,
    });
    let ops: Vec<Op> = std::iter::once(ladder)
        .chain(arrivals)
        .chain([Op::Interval])
        .collect();
    assert_eq!(run_differential(&ops, None).in_flight, 64);
}

/// Witness for the burst arms, on the tie-storm grid with its timeout:
/// one burst at a stall's end, while a request that arrived during the
/// stall waits and four servers are free again, one at a completion
/// instant that is longer than a 64-demand run, then two at the timeout
/// boundary (the oldest waiting request exactly 0.75 s old, then older).
#[test]
fn bursts_land_at_a_stall_end_a_completion_and_the_timeout() {
    let unit = |n: usize| vec![Demand::new(1.0, 0.0); n];
    let ops = [
        Op::Remap {
            n: 4,
            seed: 0,
            stall: 0.25,
            mixed: false,
        },
        Op::Arrive {
            dt: 0.0,
            work: 1.0,
            mem: 0.0,
        },
        // t = 0.25: the stall ends; all four requests start.
        Op::Burst {
            dt: 0.25,
            demands: unit(3),
        },
        // t = 0.5: the speed-4 server completes, takes one request of the
        // burst, and the other 69 queue.
        Op::Burst {
            dt: 0.25,
            demands: unit(70),
        },
        // t = 1.25: the burst of 0.5 is exactly at the timeout; t = 1.3125:
        // past it.
        Op::Burst {
            dt: 0.75,
            demands: unit(2),
        },
        Op::Burst {
            dt: 0.0625,
            demands: unit(2),
        },
        Op::Interval,
    ];
    let peaks = run_differential(&ops, Some(0.75));
    assert_eq!(peaks.in_flight, 4);
    assert!(peaks.queued >= 69, "{peaks:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn service_node_matches_reference_node(
        ops in prop::collection::vec(op_strategy(), 1..250),
    ) {
        run_differential(&ops, None);
    }

    #[test]
    fn service_node_matches_reference_node_with_timeouts(
        ops in prop::collection::vec(op_strategy(), 1..250),
    ) {
        // A short client deadline relative to the op time scale, so the
        // dispatch-side shedding path runs constantly.
        run_differential(&ops, Some(0.75));
    }

    #[test]
    fn service_node_matches_reference_node_on_a_64_server_ladder(ops in at_scale_ops()) {
        run_differential(&ops, None);
    }

    #[test]
    fn service_node_matches_reference_node_through_a_deep_spike(ops in spike_ops()) {
        let p = run_differential(&ops, None);
        prop_assert!(p.queued > DEEP, "the spike queued only {}", p.queued);
    }

    #[test]
    fn service_node_matches_reference_node_through_a_deep_spike_with_timeouts(
        ops in spike_ops(),
    ) {
        let p = run_differential(&ops, Some(0.75));
        prop_assert!(p.queued > DEEP, "the spike queued only {}", p.queued);
    }

    #[test]
    fn service_node_matches_reference_node_in_a_tie_storm(ops in tie_storm_ops()) {
        run_differential(&ops, Some(0.75));
    }
}
