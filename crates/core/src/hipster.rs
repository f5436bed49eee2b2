//! The Hipster hybrid task manager — the paper's contribution.
//!
//! Hipster combines the heuristic feedback mapper (§3.3) with tabular
//! Q-learning (§3.1/3.4) in two phases:
//!
//! * **Learning phase** — the heuristic drives configuration choices while
//!   every interval's outcome populates the lookup table `R(w, c)` through
//!   the Algorithm 1 reward. This avoids the random QoS-violating actions
//!   a pure RL agent would take while exploring.
//! * **Exploitation phase** (Algorithm 2) — the table drives: at load
//!   bucket `w`, pick `argmax_d R(w, d)`. The table keeps updating, and the
//!   manager drops back into the learning phase whenever the recent QoS
//!   guarantee slips below a threshold `X` (line 18).
//!
//! The **HipsterIn** variant optimizes power; **HipsterCo** maximizes batch
//! throughput while the remaining cores run batch jobs (the mapping rules
//! of Algorithm 2 lines 8–13 live in
//! [`MachineConfig::collocated`](hipster_sim::MachineConfig::collocated)).
//!
//! A pure-RL mode (ε-greedy over the same table, no heuristic) is included
//! for the ablation the paper argues against in §3.1.

use std::collections::{HashSet, VecDeque};

use hipster_platform::{power_ladder, CoreConfig, Platform};
use hipster_sim::SimRng;

use crate::bucket::LoadBuckets;
use crate::configspace::ConfigSpace;
use crate::feedback::{FeedbackController, Zones};
use crate::policy::{Observation, Policy};
use crate::qtable::QTable;
use crate::reward::{reward, Objective, RewardParams};

/// Which phase the hybrid manager is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Heuristic drives; table learns. Counts down remaining intervals.
    Learning {
        /// Intervals left before switching to exploitation.
        remaining: u64,
    },
    /// Table drives (Algorithm 2).
    Exploitation,
}

/// The Hipster policy (HipsterIn / HipsterCo / pure-RL ablation).
///
/// The per-interval control path is index-keyed end to end: the action
/// set is enumerated once into the [`QTable`]'s [`ConfigSpace`], and
/// every decision (bucketize → table update → argmax → stabilizers →
/// heuristic hand-over) works on dense `(bucket, action_index)` offsets —
/// no hashing, no allocation, no ladder scans.
#[derive(Debug)]
pub struct Hipster {
    name: String,
    heuristic: FeedbackController,
    qtable: QTable,
    buckets: LoadBuckets,
    params: RewardParams,
    objective: Objective,
    phase: Phase,
    relearn_quantum: u64,
    qos_window: VecDeque<bool>,
    window_size: usize,
    reenter_threshold_pct: f64,
    /// Previous interval's (bucket, action index into the space).
    prev: Option<(u32, u32)>,
    rng: SimRng,
    stochastic: bool,
    pure_rl: bool,
    epsilon: f64,
    heuristic_fallbacks: u64,
    consecutive_violations: u32,
    consecutive_safe: u32,
    /// (bucket, action index) pairs that initiated a violation — never
    /// probed again at that bucket (argmax remains free to choose them).
    probe_blacklist: HashSet<(u32, u32)>,
    /// Intervals left holding a probed configuration so its table entry
    /// converges enough to compete with incumbent values (α = 0.6 needs a
    /// handful of visits).
    probe_hold: u32,
}

impl Hipster {
    /// Starts building a HipsterIn (interactive-only) manager: minimizes
    /// system power subject to QoS.
    pub fn interactive(platform: &Platform, seed: u64) -> HipsterBuilder {
        let tdp = platform.power_model().tdp(platform);
        HipsterBuilder::new(
            platform,
            "HipsterIn",
            Objective::MinimizePower { tdp_w: tdp },
            seed,
        )
    }

    /// Starts building a HipsterCo (collocated) manager: maximizes batch
    /// throughput subject to QoS. `max_ips_sum` is `maxIPS(B) + maxIPS(S)`
    /// of the batch mix (Algorithm 1 line 13's denominator; see
    /// `hipster_workloads::spec::max_ips`).
    pub fn collocated(platform: &Platform, max_ips_sum: f64, seed: u64) -> HipsterBuilder {
        HipsterBuilder::new(
            platform,
            "HipsterCo",
            Objective::MaximizeBatchThroughput { max_ips_sum },
            seed,
        )
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The lookup table (for inspection and persistence).
    pub fn qtable(&self) -> &QTable {
        &self.qtable
    }

    /// The enumerated action set the policy decides over.
    pub fn space(&self) -> &ConfigSpace {
        self.qtable.space()
    }

    /// Number of actions in the ladder.
    fn n_actions(&self) -> usize {
        self.qtable.space().len()
    }

    /// The quantizer in use.
    pub fn buckets(&self) -> LoadBuckets {
        self.buckets
    }

    /// How many exploitation intervals fell back to the heuristic because
    /// the table had no positive entry for the state.
    pub fn heuristic_fallbacks(&self) -> u64 {
        self.heuristic_fallbacks
    }

    /// QoS guarantee over the sliding window, percent (100 when empty).
    fn window_guarantee_pct(&self) -> f64 {
        if self.qos_window.is_empty() {
            return 100.0;
        }
        let met = self.qos_window.iter().filter(|m| **m).count();
        met as f64 / self.qos_window.len() as f64 * 100.0
    }

    /// Exploitation-phase stabilizers:
    ///
    /// 1. **Sticky argmax** — if the previous configuration's value is
    ///    within a small margin of the argmax, keep it. Q-values jitter
    ///    interval to interval; churning between near-equal configurations
    ///    costs core migrations, which is exactly the failure mode Hipster
    ///    exists to avoid.
    /// 2. **Violation guard** — while the measured tail violates the
    ///    target, never de-escalate below one ladder rank above the
    ///    previous configuration; after three consecutive violations jump
    ///    to the ladder top (the table learns the outcome and recovers the
    ///    steady-state choice afterwards).
    /// 3. **Safe-zone probe** — after several consecutive comfortably-met
    ///    intervals on the same configuration, try one ladder rank lower.
    ///    This feeds the table entries for cheaper configurations in
    ///    buckets the learning phase never visited; Algorithm 1's
    ///    earliness + power rewards then make the cheaper entry the argmax
    ///    if it holds QoS.
    fn stabilize(&mut self, mut choice: usize, obs: &Observation, w: u32) -> usize {
        // The action index *is* the ladder rank: the space enumerates the
        // power ladder in declaration order, so the rank arithmetic below
        // needs no position scans.
        if let Some((_, prev_i)) = self.prev {
            let prev_i = prev_i as usize;
            // Sticky argmax.
            if choice != prev_i {
                let vb = self.qtable.value_at(w, choice);
                let vp = self.qtable.value_at(w, prev_i);
                if vp > 0.0 && vb - vp < 0.02 * vb.abs() {
                    choice = prev_i;
                }
            }
            // Violation guard.
            if obs.qos.violated(obs.tail_latency_s) {
                self.consecutive_violations += 1;
                self.consecutive_safe = 0;
                if self.consecutive_violations == 1 {
                    // The configuration that *initiated* this violation is
                    // a bad probe target at this bucket forever (later
                    // violations in the run are backlog drain, not the
                    // config's fault).
                    if let Some((pw, pc)) = self.prev {
                        self.probe_blacklist.insert((pw, pc));
                    }
                }
                if self.consecutive_violations >= 3 {
                    choice = self.n_actions() - 1;
                } else {
                    let floor = (prev_i + 1).min(self.n_actions() - 1);
                    if choice < floor {
                        choice = floor;
                    }
                }
            } else {
                self.consecutive_violations = 0;
                // Safe-zone probe: comfortably under target, same config
                // for a while → test one rank cheaper (unless that rank
                // already initiated a violation at this bucket).
                let comfortable = obs.tail_latency_s < obs.qos.target_s * 0.5;
                if comfortable && choice == prev_i {
                    self.consecutive_safe += 1;
                } else {
                    self.consecutive_safe = 0;
                }
                if self.consecutive_safe >= 8 {
                    if choice > 0 && !self.probe_blacklist.contains(&(w, choice as u32 - 1)) {
                        choice -= 1;
                        self.probe_hold = 8;
                    }
                    self.consecutive_safe = 0;
                }
            }
        }
        choice
    }

    /// Looks for a learned answer in nearby load buckets (preferring
    /// higher-load neighbours, whose configurations are safe here).
    fn generalize_from_neighbors(&self, w: u32) -> Option<usize> {
        for d in 1..=3i64 {
            for cand in [w as i64 + d, w as i64 - d] {
                if cand < 0 {
                    continue;
                }
                let cand = cand as u32;
                if self.qtable.any_positive(cand) {
                    return self.qtable.best_index(cand);
                }
            }
        }
        None
    }

    fn epsilon_greedy(&mut self, w: u32) -> usize {
        if self.rng.chance(self.epsilon) {
            self.rng.index(self.n_actions())
        } else {
            self.qtable.best_index(w).expect("action set is non-empty")
        }
    }
}

impl Policy for Hipster {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, obs: &Observation) -> CoreConfig {
        let w_next = self.buckets.bucket(obs.load_frac);

        // Learn from the interval that just finished (Algorithm 1), in both
        // phases (Algorithm 2 line 16).
        if let Some((w, ci)) = self.prev {
            let lambda = reward(
                obs,
                self.objective,
                &self.params,
                &mut self.rng,
                self.stochastic,
            );
            self.qtable.update_indexed(
                w,
                ci as usize,
                lambda,
                w_next,
                self.params.alpha,
                self.params.gamma,
            );
            // The re-entry window (Algorithm 2 line 18) measures the
            // *exploitation* phase's QoS guarantee — outcomes produced by
            // the heuristic during learning must not poison it.
            if self.phase == Phase::Exploitation {
                self.qos_window
                    .push_back(!obs.qos.violated(obs.tail_latency_s));
                while self.qos_window.len() > self.window_size {
                    self.qos_window.pop_front();
                }
            }
        }

        // Choose the next configuration (by action index).
        let choice = if self.pure_rl {
            self.epsilon_greedy(w_next)
        } else {
            match self.phase {
                Phase::Learning { remaining } => {
                    let ci = self
                        .heuristic
                        .update_index(obs.tail_latency_s, obs.qos.target_s);
                    self.phase = if remaining <= 1 {
                        self.qos_window.clear();
                        Phase::Exploitation
                    } else {
                        Phase::Learning {
                            remaining: remaining - 1,
                        }
                    };
                    ci
                }
                Phase::Exploitation => {
                    // Commit to a freshly probed configuration while it
                    // behaves, so its entry converges before argmax judges.
                    if self.probe_hold > 0 && !obs.qos.violated(obs.tail_latency_s) {
                        if let Some((_, prev_i)) = self.prev {
                            self.probe_hold -= 1;
                            let ci = self.stabilize(prev_i as usize, obs, w_next);
                            self.heuristic.seek_index(ci);
                            self.prev = Some((w_next, ci as u32));
                            return self.qtable.space().get(ci);
                        }
                    }
                    self.probe_hold = 0;
                    let mut ci = if self.qtable.any_positive(w_next) {
                        // Algorithm 2 line 7.
                        self.qtable
                            .best_index(w_next)
                            .expect("action set is non-empty")
                    } else if let Some(ci) = self.generalize_from_neighbors(w_next) {
                        // Unexplored bucket but a nearby one has a learned
                        // answer: borrow it. Borrowing from *higher* load
                        // buckets first is safe (their configurations have
                        // at least the capacity this bucket needs).
                        ci
                    } else {
                        // Nothing learned anywhere near: let the heuristic
                        // handle it — the hybrid fallback.
                        self.heuristic_fallbacks += 1;
                        self.heuristic
                            .update_index(obs.tail_latency_s, obs.qos.target_s)
                    };
                    ci = self.stabilize(ci, obs, w_next);
                    // Keep the heuristic's state machine near the live
                    // configuration so a hand-over is smooth.
                    self.heuristic.seek_index(ci);
                    // Algorithm 2 line 18: re-enter learning on a QoS slump.
                    if self.qos_window.len() >= self.window_size
                        && self.window_guarantee_pct() <= self.reenter_threshold_pct
                    {
                        self.phase = Phase::Learning {
                            remaining: self.relearn_quantum,
                        };
                        self.qos_window.clear();
                    }
                    ci
                }
            }
        };
        self.prev = Some((w_next, choice as u32));
        self.qtable.space().get(choice)
    }
}

/// Builder for [`Hipster`].
#[derive(Debug)]
pub struct HipsterBuilder {
    name: String,
    actions: Vec<CoreConfig>,
    zones: Zones,
    params: RewardParams,
    objective: Objective,
    bucket_width: f64,
    learning_intervals: u64,
    relearn_quantum: u64,
    window_size: usize,
    reenter_threshold_pct: f64,
    stochastic: bool,
    pure_rl: bool,
    epsilon: f64,
    seed: u64,
    warm_table: Option<QTable>,
}

impl HipsterBuilder {
    fn new(platform: &Platform, name: &str, objective: Objective, seed: u64) -> Self {
        HipsterBuilder {
            name: name.to_owned(),
            actions: power_ladder(platform),
            zones: Zones::paper_defaults(),
            params: RewardParams::paper_defaults(),
            objective,
            bucket_width: 0.05,
            learning_intervals: 500,
            relearn_quantum: 100,
            window_size: 100,
            reenter_threshold_pct: 90.0,
            stochastic: true,
            pure_rl: false,
            epsilon: 0.1,
            seed,
            warm_table: None,
        }
    }

    /// Sets the load-bucket width (Fig. 10 sweeps this; paper deploys 2–4%
    /// for Memcached, 3–9% for Web-Search).
    pub fn bucket_width(mut self, width: f64) -> Self {
        self.bucket_width = width;
        self
    }

    /// Sets the learning-phase length in monitoring intervals (the paper
    /// uses 500 s, or 200 s when quantifying learning time).
    pub fn learning_intervals(mut self, n: u64) -> Self {
        self.learning_intervals = n;
        self
    }

    /// Sets how long a re-entered learning phase lasts.
    pub fn relearn_quantum(mut self, n: u64) -> Self {
        self.relearn_quantum = n;
        self
    }

    /// Sets the QoS-guarantee re-entry threshold `X` (percent) and the
    /// sliding window length used to compute it.
    pub fn reenter(mut self, threshold_pct: f64, window: usize) -> Self {
        self.reenter_threshold_pct = threshold_pct;
        self.window_size = window;
        self
    }

    /// Overrides the heuristic danger/safe zones.
    pub fn zones(mut self, zones: Zones) -> Self {
        self.zones = zones;
        self
    }

    /// Overrides the reward constants (α, γ, danger fraction).
    pub fn reward_params(mut self, params: RewardParams) -> Self {
        self.params = params;
        self
    }

    /// Disables the stochastic penalty band (ablation).
    pub fn stochastic(mut self, on: bool) -> Self {
        self.stochastic = on;
        self
    }

    /// Switches to the pure-RL ablation: ε-greedy Q-learning with no
    /// heuristic bootstrap (§3.1 argues this violates QoS while learning).
    pub fn pure_rl(mut self, epsilon: f64) -> Self {
        self.pure_rl = true;
        self.epsilon = epsilon;
        self.name = format!("{}-pureRL", self.name);
        self
    }

    /// Restricts the action set (useful for tests and ablations).
    pub fn actions(mut self, actions: Vec<CoreConfig>) -> Self {
        self.actions = actions;
        self
    }

    /// Warm-starts from a previously learned table (e.g. loaded with
    /// [`QTable::from_tsv`]): the manager skips the learning phase and goes
    /// straight to exploitation. The table keeps adapting online, and a QoS
    /// slump still re-enters the learning phase as usual.
    pub fn warm_start(mut self, table: QTable) -> Self {
        self.warm_table = Some(table);
        self
    }

    /// Builds the policy. The action set is enumerated once into a
    /// [`ConfigSpace`] (warm-started tables are re-keyed onto it), so the
    /// per-interval decision path runs on dense indices.
    ///
    /// # Panics
    ///
    /// Panics if the action set is empty, contains duplicates, or the
    /// bucket width is invalid.
    pub fn build(self) -> Hipster {
        assert!(!self.actions.is_empty(), "action set must not be empty");
        let space = ConfigSpace::new(self.actions.clone());
        let (qtable, phase) = match self.warm_table {
            Some(table) => (table.rekeyed(space), Phase::Exploitation),
            None => (
                QTable::for_space(space),
                Phase::Learning {
                    remaining: self.learning_intervals.max(1),
                },
            ),
        };
        Hipster {
            name: self.name,
            heuristic: FeedbackController::new(self.actions, self.zones),
            qtable,
            buckets: LoadBuckets::new(self.bucket_width),
            params: self.params,
            objective: self.objective,
            phase,
            relearn_quantum: self.relearn_quantum.max(1),
            qos_window: VecDeque::new(),
            window_size: self.window_size.max(1),
            reenter_threshold_pct: self.reenter_threshold_pct,
            prev: None,
            rng: SimRng::seed(self.seed),
            stochastic: self.stochastic,
            pure_rl: self.pure_rl,
            epsilon: self.epsilon,
            heuristic_fallbacks: 0,
            consecutive_violations: 0,
            consecutive_safe: 0,
            probe_blacklist: HashSet::new(),
            probe_hold: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipster_sim::QosTarget;

    fn obs(load: f64, tail_ms: f64, power: f64) -> Observation {
        Observation {
            load_frac: load,
            tail_latency_s: tail_ms / 1e3,
            qos: QosTarget::new(0.95, 0.010),
            power_w: power,
            batch_ips_big: 0.0,
            batch_ips_small: 0.0,
            counters_valid: true,
            has_batch: false,
        }
    }

    fn hipster_in(learn: u64) -> Hipster {
        Hipster::interactive(&Platform::juno_r1(), 7)
            .learning_intervals(learn)
            .build()
    }

    #[test]
    fn starts_in_learning_phase() {
        let h = hipster_in(10);
        assert!(matches!(h.phase(), Phase::Learning { remaining: 10 }));
    }

    #[test]
    fn switches_to_exploitation_after_quantum() {
        let mut h = hipster_in(3);
        for _ in 0..3 {
            h.decide(&obs(0.5, 5.0, 2.0));
        }
        assert_eq!(h.phase(), Phase::Exploitation);
    }

    #[test]
    fn learning_phase_follows_heuristic() {
        let mut h = hipster_in(100);
        // Start high (ladder top), stay safe → steps down monotonically.
        let first = h.decide(&obs(0.5, 1.0, 2.0));
        let second = h.decide(&obs(0.5, 1.0, 2.0));
        assert_ne!(first, second);
    }

    #[test]
    fn table_populates_during_learning() {
        let mut h = hipster_in(50);
        for i in 0..20 {
            // Alternate safe/hold tails so the heuristic walks the ladder
            // while the load sweeps buckets.
            let tail = if i % 2 == 0 { 1.0 } else { 6.0 };
            h.decide(&obs(0.3 + 0.02 * i as f64, tail, 2.0));
        }
        assert!(h.qtable().len() > 5, "{} entries", h.qtable().len());
    }

    #[test]
    fn exploitation_picks_learned_best_action() {
        let mut h = hipster_in(2);
        // Teach: at bucket of load 0.5, config X yields good reward. Run a
        // few learning intervals with a constant story.
        for _ in 0..2 {
            h.decide(&obs(0.5, 5.0, 1.5));
        }
        // Now exploiting; feed the same state repeatedly — the chosen
        // config must stabilize (no oscillation), because the argmax is
        // deterministic.
        let a = h.decide(&obs(0.5, 5.0, 1.5));
        let b = h.decide(&obs(0.5, 5.0, 1.5));
        let c = h.decide(&obs(0.5, 5.0, 1.5));
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn unexplored_state_falls_back_to_heuristic() {
        let mut h = hipster_in(1);
        h.decide(&obs(0.1, 1.0, 1.2)); // single learning step at low load
        assert_eq!(h.phase(), Phase::Exploitation);
        // A load bucket never seen: fallback counter increments.
        let before = h.heuristic_fallbacks();
        h.decide(&obs(0.97, 1.0, 1.2));
        assert_eq!(h.heuristic_fallbacks(), before + 1);
    }

    #[test]
    fn qos_slump_reenters_learning() {
        let mut h = Hipster::interactive(&Platform::juno_r1(), 8)
            .learning_intervals(1)
            .reenter(90.0, 10)
            .relearn_quantum(17)
            .build();
        h.decide(&obs(0.5, 5.0, 2.0));
        assert_eq!(h.phase(), Phase::Exploitation);
        // Ten straight violations → window guarantee 0% ≤ 90%.
        for _ in 0..12 {
            h.decide(&obs(0.5, 50.0, 2.0));
        }
        assert!(
            matches!(h.phase(), Phase::Learning { .. }),
            "should have re-entered learning, phase = {:?}",
            h.phase()
        );
    }

    #[test]
    fn pure_rl_has_no_phases() {
        let mut h = Hipster::interactive(&Platform::juno_r1(), 9)
            .pure_rl(0.2)
            .build();
        assert!(h.name().contains("pureRL"));
        // Just exercises the ε-greedy path.
        for _ in 0..50 {
            let c = h.decide(&obs(0.5, 5.0, 2.0));
            assert!(c.total_cores() > 0);
        }
    }

    #[test]
    fn pure_rl_explores_randomly() {
        let mut h = Hipster::interactive(&Platform::juno_r1(), 10)
            .pure_rl(1.0) // always explore
            .build();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(h.decide(&obs(0.5, 5.0, 2.0)));
        }
        assert!(seen.len() > 10, "ε=1 must scatter: {} configs", seen.len());
    }

    #[test]
    fn collocated_variant_uses_throughput_objective() {
        let h = Hipster::collocated(&Platform::juno_r1(), 3.0e9, 11).build();
        assert_eq!(h.name(), "HipsterCo");
    }

    #[test]
    #[should_panic(expected = "action set")]
    fn empty_action_set_rejected() {
        let _ = Hipster::interactive(&Platform::juno_r1(), 1)
            .actions(vec![])
            .build();
    }

    #[test]
    fn warm_start_skips_learning() {
        let mut table = crate::QTable::new();
        let cfg: hipster_platform::CoreConfig = "2B-1.15".parse().unwrap();
        table.update(10, cfg, 5.0, 10, &[], 1.0, 0.0);
        let mut h = Hipster::interactive(&Platform::juno_r1(), 12)
            .warm_start(table)
            .build();
        assert_eq!(h.phase(), Phase::Exploitation);
        // The warm entry drives the first decision at its bucket.
        let c = h.decide(&obs(0.52, 5.0, 2.0)); // bucket 10 at width 0.05
        assert_eq!(c, cfg);
    }

    #[test]
    fn violation_guard_escalates_to_ladder_top() {
        let mut h = hipster_in(1);
        h.decide(&obs(0.5, 2.0, 2.0)); // leave learning
        assert_eq!(h.phase(), Phase::Exploitation);
        // Three consecutive violations force the ladder top.
        h.decide(&obs(0.5, 30.0, 2.0));
        h.decide(&obs(0.5, 30.0, 2.0));
        let last = h.decide(&obs(0.5, 30.0, 2.0));
        let top = *hipster_platform::power_ladder(&Platform::juno_r1())
            .last()
            .unwrap();
        assert_eq!(last, top);
    }

    #[test]
    fn violation_guard_never_deescalates_mid_violation() {
        let mut h = hipster_in(1);
        h.decide(&obs(0.5, 2.0, 2.0));
        let before = h.decide(&obs(0.5, 2.0, 2.0));
        let during = h.decide(&obs(0.5, 30.0, 2.0));
        let actions = hipster_platform::power_ladder(&Platform::juno_r1());
        let rank = |c: &hipster_platform::CoreConfig| actions.iter().position(|x| x == c).unwrap();
        assert!(
            rank(&during) > rank(&before),
            "violation must escalate: {before} -> {during}"
        );
    }

    #[test]
    fn safe_probe_steps_down_after_quiet_streak() {
        let mut h = hipster_in(1);
        h.decide(&obs(0.5, 2.0, 2.0)); // exploitation
                                       // Stable comfortable intervals at the same bucket.
        let mut seen = Vec::new();
        for _ in 0..25 {
            seen.push(h.decide(&obs(0.5, 2.0, 2.0)));
        }
        let actions = hipster_platform::power_ladder(&Platform::juno_r1());
        let rank = |c: &hipster_platform::CoreConfig| actions.iter().position(|x| x == c).unwrap();
        let first = rank(&seen[0]);
        let last = rank(seen.last().unwrap());
        assert!(
            last < first,
            "probes should walk down the ladder: {} -> {}",
            seen[0],
            seen.last().unwrap()
        );
    }
}
