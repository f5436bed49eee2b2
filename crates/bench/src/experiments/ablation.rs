//! Ablation studies for the reproduction's key design choices:
//!
//! * **hybrid vs pure RL** — §3.1 argues a pure ε-greedy learner violates
//!   QoS while exploring;
//! * **stochastic reward band on/off** (Algorithm 1 line 9);
//! * **discount factor γ = 0 vs 0.9** (short-term-only rewards);
//! * **free reconfiguration** — what Octopus-Man's oscillation would cost
//!   if core migrations were free (they are not; §3.6).

use hipster_core::{DvfsOnly, Hipster, Policy, RewardParams};
use hipster_platform::Platform;
use hipster_sim::ReconfigCosts;
use hipster_workloads::Diurnal;

use crate::runner::{octopus_man, qos_of, run_fleet, scaled, scenario, PolicyFn, Workload};
use crate::tablefmt::{f, pct, Table};

/// Runs the ablation table (Web-Search diurnal) — all seven variants as
/// one fleet.
pub fn run(quick: bool) {
    println!("== Ablations (Web-Search, diurnal) ==\n");
    let secs = scaled(1400, quick);
    let learn = scaled(400, quick) as u64;
    let qos = qos_of(Workload::WebSearch);
    let zones = Workload::WebSearch.tuned_zones();

    let base = move |p: &Platform, seed: u64| {
        Hipster::interactive(p, seed)
            .learning_intervals(learn)
            .zones(zones)
            .bucket_width(0.06)
    };

    // Each variant carries its policy factory and an optional
    // reconfiguration-cost override (only the free-migrations Octopus-Man
    // row overrides the Juno defaults).
    let variants: Vec<(&str, PolicyFn, Option<ReconfigCosts>)> = vec![
        (
            "HipsterIn (hybrid)",
            Box::new(move |p: &Platform, s| Box::new(base(p, s).build()) as Box<dyn Policy>),
            None,
        ),
        (
            "pure RL (ε=0.1, no heuristic)",
            Box::new(move |p: &Platform, s| {
                Box::new(base(p, s).pure_rl(0.1).build()) as Box<dyn Policy>
            }),
            None,
        ),
        (
            "no stochastic reward band",
            Box::new(move |p: &Platform, s| {
                Box::new(base(p, s).stochastic(false).build()) as Box<dyn Policy>
            }),
            None,
        ),
        (
            "γ = 0 (myopic rewards)",
            Box::new(move |p: &Platform, s| {
                Box::new(
                    base(p, s)
                        .reward_params(RewardParams {
                            gamma: 0.0,
                            ..RewardParams::paper_defaults()
                        })
                        .build(),
                ) as Box<dyn Policy>
            }),
            None,
        ),
        // Pegasus-style DVFS-only control: no migrations at all, but no
        // access to the small cores' low-load efficiency either.
        (
            "DVFS-only (Pegasus-style, 2B)",
            Box::new(move |p: &Platform, _| Box::new(DvfsOnly::new(p, zones)) as Box<dyn Policy>),
            None,
        ),
        // Octopus-Man with and without reconfiguration costs: how much of
        // its QoS damage is oscillation paying real migration stalls.
        (
            "Octopus-Man (real migration costs)",
            octopus_man(zones),
            None,
        ),
        (
            "Octopus-Man (free migrations)",
            octopus_man(zones),
            Some(ReconfigCosts::free()),
        ),
    ];

    let mut names = Vec::new();
    let mut specs = Vec::new();
    for (name, policy, costs) in variants {
        let mut spec = scenario(
            format!("ablation/{name}"),
            Workload::WebSearch,
            Diurnal::paper(),
            policy,
            secs,
            121,
        );
        if let Some(costs) = costs {
            spec = spec.costs(costs);
        }
        specs.push(spec);
        names.push(name);
    }

    let mut t = Table::new(vec!["variant", "QoS guarantee", "energy (J)", "migrations"]);
    for (outcome, name) in run_fleet(specs).iter().zip(&names) {
        t.row(vec![
            name.to_string(),
            pct(outcome.trace.qos_guarantee_pct(qos)),
            f(outcome.trace.total_energy_j(), 0),
            outcome.trace.total_migrations().to_string(),
        ]);
    }
    t.print();
    println!(
        "\n(expected: pure RL learns slowly and violates QoS while exploring; \
         myopic γ=0 underperforms; free migrations recover part of \
         Octopus-Man's oscillation damage)\n"
    );
}
