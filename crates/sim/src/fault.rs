//! Deterministic fault injection: transient server revocations and
//! heavy-tailed straggler episodes.
//!
//! A [`FaultSpec`] declares two independent per-server fault families:
//!
//! * **Transient revocations** (CloudCoaster-style): a server disappears
//!   for a fixed epoch. Revocations arrive as a Poisson process per
//!   server; each episode is *warned* (the scheduler saw it coming and
//!   drains gracefully) or *unwarned* (in-flight work is preempted and
//!   pays the migration stall) with probability `warned_prob`.
//! * **Straggler episodes** (START-style): a server keeps running but
//!   slows down by a heavy-tailed multiplier drawn from a bounded Pareto,
//!   for a fixed epoch. Stragglers ride the existing DVFS re-key path —
//!   the server set is unchanged, only effective rates move.
//!
//! A [`FaultPlan`] expands a spec into per-unit timelines ("unit" is a
//! physical core for the engine, a node for the cluster tier). Every unit
//! gets its own split-seeded [`SimRng`] *pair* (one stream per fault
//! family), so timelines are reproducible and independent of how many
//! other units exist, which units are queried, or what order queries
//! arrive in across units. Queries per unit must be time-monotonic — the
//! engine and cluster both sample at interval starts, which are.
//!
//! Beyond the per-server families, a [`FaultSpec`] can arm per-*request*
//! stragglers (bounded-Pareto service-time multipliers drawn per request
//! from a dedicated stream — the START-style tail, where any individual
//! request can go long even on a healthy server), optionally mitigated by
//! a [`HedgeSpec`] that issues a backup copy after a configurable delay
//! and keeps whichever finishes first. Unit, wave and request stragglers
//! draw their multipliers through one sampler.
//!
//! Correlated *domain* faults — a whole rack or zone failing at once —
//! are declared by a [`DomainFaultSpec`] and expanded over a
//! [`TopologySpec`](crate::TopologySpec) by a [`WavePlan`]: two
//! [`FaultPlan`]s, one whose units are the zones and one whose units are
//! the racks. Callers layer it on top of the independent per-node plan.
//!
//! `FaultSpec::none()` builds no plan at all: the fault-off path draws
//! zero random numbers and executes the exact pre-fault code, which the
//! `fault_equivalence` differential suite pins byte-for-byte. The same
//! holds for `DomainFaultSpec::none()` and `HedgeSpec::none()`.

use crate::dist::{BoundedPareto, Exponential};
use crate::rng::{Sampler, SimRng};
use crate::topology::TopologySpec;
use std::fmt;

/// Declarative fault configuration. `Copy`, like [`crate::EngineSpec`],
/// so specs can be embedded in engine/cluster specs freely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Poisson rate of revocation episodes per server, per second.
    /// Zero disables revocations.
    pub revocation_rate_per_s: f64,
    /// Length of each revocation epoch, seconds.
    pub revocation_duration_s: f64,
    /// Probability a revocation is warned (graceful drain, no stall, and
    /// the cluster tier may re-dispatch stranded work immediately).
    pub warned_prob: f64,
    /// Poisson rate of straggler episodes per server, per second.
    /// Zero disables stragglers.
    pub straggler_rate_per_s: f64,
    /// Length of each straggler epoch, seconds.
    pub straggler_duration_s: f64,
    /// Pareto shape of the slowdown multiplier (smaller = heavier tail).
    pub straggler_alpha: f64,
    /// Minimum slowdown multiplier (must be >= 1: a straggler never
    /// speeds up).
    pub straggler_min: f64,
    /// Maximum slowdown multiplier (>= `straggler_min`).
    pub straggler_max: f64,
    /// Probability that any individual request straggles (service-time
    /// multiplier drawn per request, not per server). Zero disables
    /// per-request stragglers.
    pub request_straggler_prob: f64,
    /// Pareto shape of the per-request multiplier.
    pub request_straggler_alpha: f64,
    /// Minimum per-request multiplier (>= 1).
    pub request_straggler_min: f64,
    /// Maximum per-request multiplier (>= `request_straggler_min`).
    pub request_straggler_max: f64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::none()
    }
}

impl FaultSpec {
    /// No faults at all — the simulator behaves exactly as without this
    /// subsystem.
    pub fn none() -> Self {
        FaultSpec {
            revocation_rate_per_s: 0.0,
            revocation_duration_s: 0.0,
            warned_prob: 0.0,
            straggler_rate_per_s: 0.0,
            straggler_duration_s: 0.0,
            straggler_alpha: 1.0,
            straggler_min: 1.0,
            straggler_max: 1.0,
            request_straggler_prob: 0.0,
            request_straggler_alpha: 1.0,
            request_straggler_min: 1.0,
            request_straggler_max: 1.0,
        }
    }

    /// Enables transient revocations at `rate_per_s` per server, each
    /// lasting `duration_s`.
    pub fn with_revocations(mut self, rate_per_s: f64, duration_s: f64) -> Self {
        self.revocation_rate_per_s = rate_per_s;
        self.revocation_duration_s = duration_s;
        self
    }

    /// Sets the probability that a revocation is warned.
    pub fn with_warned(mut self, prob: f64) -> Self {
        self.warned_prob = prob;
        self
    }

    /// Enables straggler episodes at `rate_per_s` per server, each
    /// lasting `duration_s`, with slowdown multipliers drawn from
    /// `BoundedPareto(min, max, alpha)` (or exactly `min` when
    /// `min == max`).
    pub fn with_stragglers(
        mut self,
        rate_per_s: f64,
        duration_s: f64,
        alpha: f64,
        min: f64,
        max: f64,
    ) -> Self {
        self.straggler_rate_per_s = rate_per_s;
        self.straggler_duration_s = duration_s;
        self.straggler_alpha = alpha;
        self.straggler_min = min;
        self.straggler_max = max;
        self
    }

    /// Each request independently straggles with probability `prob`,
    /// scaling its service demand by a multiplier drawn from
    /// `BoundedPareto(min, max, alpha)` (or exactly `min` when
    /// `min == max`).
    pub fn with_request_stragglers(mut self, prob: f64, alpha: f64, min: f64, max: f64) -> Self {
        self.request_straggler_prob = prob;
        self.request_straggler_alpha = alpha;
        self.request_straggler_min = min;
        self.request_straggler_max = max;
        self
    }

    /// True when every fault family is disabled.
    pub fn is_none(&self) -> bool {
        !self.has_unit_faults() && !self.has_request_stragglers()
    }

    /// True when a per-unit (per-server) fault family is armed — the
    /// families a [`FaultPlan`] expands.
    pub fn has_unit_faults(&self) -> bool {
        self.revocation_rate_per_s > 0.0 || self.straggler_rate_per_s > 0.0
    }

    /// True when per-request stragglers are armed.
    pub fn has_request_stragglers(&self) -> bool {
        self.request_straggler_prob > 0.0
    }

    /// This spec with the per-unit families stripped, keeping only the
    /// per-request straggler knobs. The cluster tier imposes unit faults
    /// itself (so per-node engines must not re-draw them) but delegates
    /// request-level stragglers to each node's engine.
    pub fn request_only(&self) -> FaultSpec {
        FaultSpec {
            request_straggler_prob: self.request_straggler_prob,
            request_straggler_alpha: self.request_straggler_alpha,
            request_straggler_min: self.request_straggler_min,
            request_straggler_max: self.request_straggler_max,
            ..FaultSpec::none()
        }
    }

    /// Checks every knob, returning the first violation. A spec that
    /// passes here can never panic deeper in the stack.
    pub fn validate(&self) -> Result<(), FaultSpecError> {
        for &rate in &[self.revocation_rate_per_s, self.straggler_rate_per_s] {
            if !rate.is_finite() || rate < 0.0 {
                return Err(FaultSpecError::NegativeRate { rate });
            }
        }
        let probability = |prob: f64| {
            if (0.0..=1.0).contains(&prob) {
                Ok(())
            } else {
                Err(FaultSpecError::InvalidProbability { prob })
            }
        };
        let duration = |seconds: f64| {
            if seconds.is_finite() && seconds > 0.0 {
                Ok(())
            } else {
                Err(FaultSpecError::NonPositiveDuration { seconds })
            }
        };
        probability(self.warned_prob)?;
        if self.revocation_rate_per_s > 0.0 {
            duration(self.revocation_duration_s)?;
        }
        if self.straggler_rate_per_s > 0.0 {
            duration(self.straggler_duration_s)?;
            Slowdown::check(self.straggler_min, self.straggler_max, self.straggler_alpha)?;
        }
        probability(self.request_straggler_prob)?;
        if self.request_straggler_prob > 0.0 {
            Slowdown::check(
                self.request_straggler_min,
                self.request_straggler_max,
                self.request_straggler_alpha,
            )?;
        }
        Ok(())
    }
}

/// How a straggle multiplier is drawn: from `BoundedPareto(min, max,
/// alpha)`, or exactly `min` when `min == max`. Unit stragglers, wave
/// stragglers and per-request stragglers all draw through this.
#[derive(Debug, Clone)]
pub(crate) struct Slowdown {
    min: f64,
    pareto: Option<BoundedPareto>,
}

impl Slowdown {
    /// Checks one family's multiplier knobs, in the order `min >= 1`,
    /// `max >= min`, `alpha > 0`, returning the first violation.
    fn check(min: f64, max: f64, alpha: f64) -> Result<(), FaultSpecError> {
        if !min.is_finite() || min < 1.0 {
            return Err(FaultSpecError::SlowdownBelowOne { multiplier: min });
        }
        if !max.is_finite() || max < min {
            return Err(FaultSpecError::InvalidSlowdownRange { min, max });
        }
        if !alpha.is_finite() || alpha <= 0.0 {
            return Err(FaultSpecError::InvalidAlpha { alpha });
        }
        Ok(())
    }

    /// A sampler over knobs that pass [`Slowdown::check`]. Validation
    /// skips an unarmed family's knobs, so build one only for an armed
    /// family.
    pub(crate) fn new(min: f64, max: f64, alpha: f64) -> Self {
        Slowdown {
            min,
            pareto: (max > min).then(|| BoundedPareto::new(min, max, alpha)),
        }
    }

    /// Draws one multiplier (no draw at all for a fixed `min`).
    pub(crate) fn sample(&self, rng: &mut SimRng) -> f64 {
        match &self.pareto {
            Some(pareto) => pareto.sample(rng),
            None => self.min,
        }
    }
}

/// Why a [`FaultSpec`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpecError {
    /// A fault rate was negative or non-finite.
    NegativeRate {
        /// The offending rate, per second.
        rate: f64,
    },
    /// `warned_prob` was outside `[0, 1]` or non-finite.
    InvalidProbability {
        /// The offending probability.
        prob: f64,
    },
    /// An episode duration was zero, negative, or non-finite while its
    /// fault family was enabled.
    NonPositiveDuration {
        /// The offending duration, seconds.
        seconds: f64,
    },
    /// The straggler slowdown floor was below 1 (a straggler never runs
    /// faster than healthy).
    SlowdownBelowOne {
        /// The offending minimum multiplier.
        multiplier: f64,
    },
    /// The straggler slowdown range was inverted (`max < min`).
    InvalidSlowdownRange {
        /// Configured minimum multiplier.
        min: f64,
        /// Configured maximum multiplier.
        max: f64,
    },
    /// The straggler Pareto shape was non-positive or non-finite.
    InvalidAlpha {
        /// The offending shape parameter.
        alpha: f64,
    },
    /// A hedge delay multiple was zero, negative, or NaN.
    InvalidHedgeDelay {
        /// The offending delay multiple.
        delay: f64,
    },
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpecError::NegativeRate { rate } => {
                write!(f, "fault rate must be finite and >= 0, got {rate}")
            }
            FaultSpecError::InvalidProbability { prob } => {
                write!(f, "warned probability must lie in [0, 1], got {prob}")
            }
            FaultSpecError::NonPositiveDuration { seconds } => {
                write!(f, "fault epoch duration must be > 0 s, got {seconds}")
            }
            FaultSpecError::SlowdownBelowOne { multiplier } => {
                write!(f, "straggler slowdown must be >= 1, got {multiplier}")
            }
            FaultSpecError::InvalidSlowdownRange { min, max } => {
                write!(f, "straggler slowdown range inverted: [{min}, {max}]")
            }
            FaultSpecError::InvalidAlpha { alpha } => {
                write!(f, "straggler Pareto alpha must be > 0, got {alpha}")
            }
            FaultSpecError::InvalidHedgeDelay { delay } => {
                write!(f, "hedge delay multiple must be > 0, got {delay}")
            }
        }
    }
}

impl std::error::Error for FaultSpecError {}

/// Request hedging: issue a backup copy of a request once it has run
/// `delay_multiple` times its nominal service time, and keep whichever
/// copy finishes first.
///
/// Under the simulator's analytic cancellation model a request whose
/// per-request straggle multiplier is `m` completes in
/// `min(m, 1 + delay_multiple)` nominal service times: the backup starts
/// after the delay, runs at nominal speed (straggles are per-request, so
/// the backup re-rolls and the winning copy is overwhelmingly the healthy
/// one for tail multipliers), and the loser is cancelled. Hedging only
/// changes behavior when per-request stragglers are armed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeSpec {
    /// Backup-issue delay as a multiple of the request's nominal service
    /// time. `INFINITY` (the [`HedgeSpec::none`] default) never hedges.
    pub delay_multiple: f64,
}

impl Default for HedgeSpec {
    fn default() -> Self {
        HedgeSpec::none()
    }
}

impl HedgeSpec {
    /// Hedging disabled: the backup never fires.
    pub fn none() -> Self {
        HedgeSpec {
            delay_multiple: f64::INFINITY,
        }
    }

    /// Hedge after `delay_multiple` nominal service times (e.g. `2.0`
    /// caps any straggled request at 3x nominal).
    pub fn after(delay_multiple: f64) -> Self {
        HedgeSpec { delay_multiple }
    }

    /// True when hedging is disabled.
    pub fn is_none(&self) -> bool {
        self.delay_multiple.is_infinite()
    }

    /// Checks the delay knob.
    pub fn validate(&self) -> Result<(), FaultSpecError> {
        if self.delay_multiple.is_nan() || self.delay_multiple <= 0.0 {
            return Err(FaultSpecError::InvalidHedgeDelay {
                delay: self.delay_multiple,
            });
        }
        Ok(())
    }
}

/// The fault condition of one unit at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultState {
    /// No active fault.
    Healthy,
    /// The unit is revoked: it serves nothing until the epoch ends.
    Revoked {
        /// Whether the scheduler was warned in advance (graceful drain).
        warned: bool,
    },
    /// The unit runs slowed by the given multiplier (>= 1).
    Straggling {
        /// Service-time multiplier for the epoch.
        slowdown: f64,
    },
}

impl FaultState {
    /// True unless `Healthy`.
    pub fn is_faulted(&self) -> bool {
        !matches!(self, FaultState::Healthy)
    }

    /// Combines an externally-imposed machine-wide state with a local
    /// per-unit state: revocation dominates (external warned flag wins
    /// when both revoke), straggles compound multiplicatively.
    pub fn combine(external: FaultState, local: FaultState) -> FaultState {
        match (external, local) {
            (FaultState::Revoked { warned }, _) | (_, FaultState::Revoked { warned }) => {
                FaultState::Revoked { warned }
            }
            (FaultState::Straggling { slowdown: a }, FaultState::Straggling { slowdown: b }) => {
                FaultState::Straggling { slowdown: a * b }
            }
            (FaultState::Straggling { slowdown }, _) | (_, FaultState::Straggling { slowdown }) => {
                FaultState::Straggling { slowdown }
            }
            (FaultState::Healthy, FaultState::Healthy) => FaultState::Healthy,
        }
    }
}

/// SplitMix64-style per-unit seed derivation, so unit `i`'s timeline
/// never depends on how many units exist or which are queried.
fn unit_seed(base: u64, unit: u64) -> u64 {
    let mut z = base ^ unit.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One armed fault family: episodes start as a Poisson process at the
/// family's rate and each lasts a fixed `duration_s`.
#[derive(Debug, Clone)]
struct Family {
    gap: Exponential,
    duration_s: f64,
    effect: Effect,
}

/// What an episode does to its unit.
#[derive(Debug, Clone)]
enum Effect {
    /// Revokes it, warned with this probability.
    Revoke(f64),
    /// Slows it by a drawn multiplier.
    Slow(Slowdown),
}

/// One unit's current or next episode of one family, drawn from the
/// unit's own stream for that family.
#[derive(Debug, Clone)]
struct Episode {
    rng: SimRng,
    start: f64,
    end: f64,
    /// The state the unit is in while `start <= t < end`.
    state: FaultState,
}

impl Episode {
    /// Replaces this episode with the next: it starts an exponential gap
    /// after this one ends.
    fn advance(&mut self, family: &Family) {
        self.start = self.end + family.gap.sample(&mut self.rng);
        self.end = self.start + family.duration_s;
        self.state = match &family.effect {
            Effect::Revoke(warned_prob) => FaultState::Revoked {
                warned: self.rng.chance(*warned_prob),
            },
            Effect::Slow(slowdown) => FaultState::Straggling {
                slowdown: slowdown.sample(&mut self.rng),
            },
        };
    }

    /// The unit's state under this family at `t`, which must not fall
    /// before an earlier query's.
    fn at(&mut self, family: &Family, t: f64) -> FaultState {
        while t >= self.end {
            self.advance(family);
        }
        if t >= self.start {
            self.state
        } else {
            FaultState::Healthy
        }
    }
}

/// A spec expanded into independent per-unit fault timelines.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Each armed family with one episode per unit, revocations first.
    families: Vec<(Family, Vec<Episode>)>,
    units: usize,
}

impl FaultPlan {
    /// Expands `spec` into `units` independent timelines. `base_seed`
    /// should come from a dedicated split of the run seed so fault
    /// randomness never perturbs demand/arrival/jitter streams.
    ///
    /// # Panics
    /// Panics if the spec does not [`FaultSpec::validate`] — validate at
    /// the scenario/cluster boundary first.
    pub fn new(spec: FaultSpec, base_seed: u64, units: usize) -> Self {
        spec.validate().expect("FaultPlan::new: invalid FaultSpec");
        let revocations = (spec.revocation_rate_per_s > 0.0).then(|| Family {
            gap: Exponential::new(spec.revocation_rate_per_s),
            duration_s: spec.revocation_duration_s,
            effect: Effect::Revoke(spec.warned_prob),
        });
        let stragglers = (spec.straggler_rate_per_s > 0.0).then(|| Family {
            gap: Exponential::new(spec.straggler_rate_per_s),
            duration_s: spec.straggler_duration_s,
            effect: Effect::Slow(Slowdown::new(
                spec.straggler_min,
                spec.straggler_max,
                spec.straggler_alpha,
            )),
        });
        // Each unit's seed is salted once per family: "REVO", "STRG". An
        // episode starts as an empty window ending at t = 0, so the first
        // query draws the first real one from t = 0, whenever it comes.
        let families = [(0x5245_564f, revocations), (0x5354_5247, stragglers)]
            .into_iter()
            .filter_map(|(salt, family)| {
                let family = family?;
                let episodes = (0..units as u64)
                    .map(|unit| Episode {
                        rng: SimRng::seed(unit_seed(unit_seed(base_seed, unit), salt)),
                        start: 0.0,
                        end: 0.0,
                        state: FaultState::Healthy,
                    })
                    .collect();
                Some((family, episodes))
            })
            .collect();
        FaultPlan { families, units }
    }

    /// Number of units this plan covers.
    pub fn units(&self) -> usize {
        self.units
    }

    /// The fault state of `unit` at time `t`. Queries must be
    /// time-monotonic per unit (interval starts are). Revocation wins
    /// when both families overlap.
    pub fn state(&mut self, unit: usize, t: f64) -> FaultState {
        let mut state = FaultState::Healthy;
        for (family, episodes) in &mut self.families {
            let s = episodes[unit].at(family, t);
            if !state.is_faulted() {
                state = s;
            }
        }
        state
    }
}

/// Declarative correlated-fault configuration: revocation and straggler
/// *waves* that hit a whole zone or rack at once.
///
/// Each armed family is a Poisson process per *domain* (not per node);
/// when a domain episode is active, every node in that domain is revoked
/// (or straggling at the same shared multiplier) simultaneously — that is
/// the correlation. A [`WavePlan`] expands the spec over a
/// [`TopologySpec`] and layers on top of the independent per-node
/// [`FaultPlan`] via [`FaultState::combine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainFaultSpec {
    /// Poisson rate of zone-wide revocation waves per zone, per second.
    /// Zero disables them.
    pub zone_revocation_rate_per_s: f64,
    /// Length of each zone revocation wave, seconds.
    pub zone_revocation_duration_s: f64,
    /// Poisson rate of rack-wide revocation waves per rack, per second.
    pub rack_revocation_rate_per_s: f64,
    /// Length of each rack revocation wave, seconds.
    pub rack_revocation_duration_s: f64,
    /// Poisson rate of zone-wide straggler waves per zone, per second.
    pub zone_straggler_rate_per_s: f64,
    /// Length of each zone straggler wave, seconds.
    pub zone_straggler_duration_s: f64,
    /// Poisson rate of rack-wide straggler waves per rack, per second.
    pub rack_straggler_rate_per_s: f64,
    /// Length of each rack straggler wave, seconds.
    pub rack_straggler_duration_s: f64,
    /// Probability a revocation wave is warned (graceful drain).
    pub warned_prob: f64,
    /// Pareto shape of the shared wave slowdown multiplier.
    pub straggler_alpha: f64,
    /// Minimum wave slowdown multiplier (>= 1).
    pub straggler_min: f64,
    /// Maximum wave slowdown multiplier (>= `straggler_min`).
    pub straggler_max: f64,
}

impl Default for DomainFaultSpec {
    fn default() -> Self {
        DomainFaultSpec::none()
    }
}

impl DomainFaultSpec {
    /// No correlated faults — byte-identical to a simulation without this
    /// subsystem.
    pub fn none() -> Self {
        DomainFaultSpec {
            zone_revocation_rate_per_s: 0.0,
            zone_revocation_duration_s: 0.0,
            rack_revocation_rate_per_s: 0.0,
            rack_revocation_duration_s: 0.0,
            zone_straggler_rate_per_s: 0.0,
            zone_straggler_duration_s: 0.0,
            rack_straggler_rate_per_s: 0.0,
            rack_straggler_duration_s: 0.0,
            warned_prob: 0.0,
            straggler_alpha: 1.0,
            straggler_min: 1.0,
            straggler_max: 1.0,
        }
    }

    /// Enables zone-wide revocation waves.
    pub fn with_zone_revocations(mut self, rate_per_s: f64, duration_s: f64) -> Self {
        self.zone_revocation_rate_per_s = rate_per_s;
        self.zone_revocation_duration_s = duration_s;
        self
    }

    /// Enables rack-wide revocation waves.
    pub fn with_rack_revocations(mut self, rate_per_s: f64, duration_s: f64) -> Self {
        self.rack_revocation_rate_per_s = rate_per_s;
        self.rack_revocation_duration_s = duration_s;
        self
    }

    /// Enables zone-wide straggler waves.
    pub fn with_zone_stragglers(mut self, rate_per_s: f64, duration_s: f64) -> Self {
        self.zone_straggler_rate_per_s = rate_per_s;
        self.zone_straggler_duration_s = duration_s;
        self
    }

    /// Enables rack-wide straggler waves.
    pub fn with_rack_stragglers(mut self, rate_per_s: f64, duration_s: f64) -> Self {
        self.rack_straggler_rate_per_s = rate_per_s;
        self.rack_straggler_duration_s = duration_s;
        self
    }

    /// Sets the probability that a revocation wave is warned.
    pub fn with_warned(mut self, prob: f64) -> Self {
        self.warned_prob = prob;
        self
    }

    /// Sets the shared slowdown distribution for straggler waves:
    /// `BoundedPareto(min, max, alpha)` (or exactly `min` when
    /// `min == max`).
    pub fn with_slowdowns(mut self, alpha: f64, min: f64, max: f64) -> Self {
        self.straggler_alpha = alpha;
        self.straggler_min = min;
        self.straggler_max = max;
        self
    }

    /// True when every wave family is disabled.
    pub fn is_none(&self) -> bool {
        self.zone_revocation_rate_per_s == 0.0
            && self.rack_revocation_rate_per_s == 0.0
            && self.zone_straggler_rate_per_s == 0.0
            && self.rack_straggler_rate_per_s == 0.0
    }

    /// Checks every knob, returning the first violation: the zone
    /// families' knobs first, then the rack families'.
    pub fn validate(&self) -> Result<(), FaultSpecError> {
        self.levels().iter().try_for_each(FaultSpec::validate)
    }

    /// The zone-level and rack-level families as per-unit specs, where a
    /// unit is one zone or one rack.
    fn levels(&self) -> [FaultSpec; 2] {
        let shared = FaultSpec {
            warned_prob: self.warned_prob,
            straggler_alpha: self.straggler_alpha,
            straggler_min: self.straggler_min,
            straggler_max: self.straggler_max,
            ..FaultSpec::none()
        };
        [
            FaultSpec {
                revocation_rate_per_s: self.zone_revocation_rate_per_s,
                revocation_duration_s: self.zone_revocation_duration_s,
                straggler_rate_per_s: self.zone_straggler_rate_per_s,
                straggler_duration_s: self.zone_straggler_duration_s,
                ..shared
            },
            FaultSpec {
                revocation_rate_per_s: self.rack_revocation_rate_per_s,
                revocation_duration_s: self.rack_revocation_duration_s,
                straggler_rate_per_s: self.rack_straggler_rate_per_s,
                straggler_duration_s: self.rack_straggler_duration_s,
                ..shared
            },
        ]
    }
}

/// Domain-seed salts so zone and rack streams never collide with each
/// other or with [`FaultPlan`]'s per-unit streams.
const ZONE_SALT: u64 = 0x5a4f_4e45; // "ZONE"
const RACK_SALT: u64 = 0x5241_434b; // "RACK"

/// A [`DomainFaultSpec`] expanded over a [`TopologySpec`]: one
/// [`FaultPlan`] whose units are the zones and one whose units are the
/// racks.
///
/// Each plan's base seed carries a domain-kind salt, so a zone's wave
/// history is independent of rack count, query order, and the per-node
/// [`FaultPlan`] streams. The per-node state is the
/// [`FaultState::combine`] of the node's zone and rack waves; callers
/// combine that again with any independent per-node plan.
#[derive(Debug, Clone)]
pub struct WavePlan {
    topo: TopologySpec,
    zones: FaultPlan,
    racks: FaultPlan,
}

impl WavePlan {
    /// Expands `spec` over `topo`. `base_seed` should come from a
    /// dedicated `fork("waves")` split of the run seed so wave randomness
    /// never perturbs demand/arrival/jitter or per-node fault streams.
    ///
    /// # Panics
    /// Panics if the spec does not [`DomainFaultSpec::validate`] —
    /// validate at the cluster boundary first.
    pub fn new(spec: DomainFaultSpec, topo: TopologySpec, base_seed: u64) -> Self {
        spec.validate()
            .expect("WavePlan::new: invalid DomainFaultSpec");
        let [zone, rack] = spec.levels();
        WavePlan {
            topo,
            zones: FaultPlan::new(zone, base_seed ^ ZONE_SALT, topo.num_zones()),
            racks: FaultPlan::new(rack, base_seed ^ RACK_SALT, topo.num_racks()),
        }
    }

    /// The topology this plan fans out over.
    pub fn topology(&self) -> &TopologySpec {
        &self.topo
    }

    /// The wave state of zone `zone` at time `t`. Queries must be
    /// time-monotonic per domain (interval starts are); repeated queries
    /// at the same `t` are idempotent.
    pub fn zone_state(&mut self, zone: usize, t: f64) -> FaultState {
        self.zones.state(zone, t)
    }

    /// The wave state of (global) rack `rack` at time `t`.
    pub fn rack_state(&mut self, rack: usize, t: f64) -> FaultState {
        self.racks.state(rack, t)
    }

    /// The combined wave state of `node` at time `t`: its zone's wave
    /// combined with its rack's ([`FaultState::combine`] — revocation
    /// dominates, straggles compound).
    pub fn state(&mut self, node: usize, t: f64) -> FaultState {
        let zone = self.zones.state(self.topo.zone_of(node), t);
        let rack = self.racks.state(self.topo.rack_of(node), t);
        FaultState::combine(zone, rack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faulty() -> FaultSpec {
        FaultSpec::none()
            .with_revocations(0.2, 1.5)
            .with_warned(0.5)
            .with_stragglers(0.3, 2.0, 1.5, 2.0, 8.0)
    }

    #[test]
    fn none_is_none_and_validates() {
        let spec = FaultSpec::none();
        assert!(spec.is_none());
        assert_eq!(spec.validate(), Ok(()));
        assert!(!faulty().is_none());
        assert_eq!(faulty().validate(), Ok(()));
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        let bad_rate = FaultSpec::none().with_revocations(-1.0, 1.0);
        assert!(matches!(
            bad_rate.validate(),
            Err(FaultSpecError::NegativeRate { .. })
        ));
        let bad_prob = faulty().with_warned(1.5);
        assert!(matches!(
            bad_prob.validate(),
            Err(FaultSpecError::InvalidProbability { prob }) if prob == 1.5
        ));
        let bad_dur = FaultSpec::none().with_revocations(0.1, 0.0);
        assert!(matches!(
            bad_dur.validate(),
            Err(FaultSpecError::NonPositiveDuration { .. })
        ));
        let slow = FaultSpec::none().with_stragglers(0.1, 1.0, 1.5, 0.5, 8.0);
        assert!(matches!(
            slow.validate(),
            Err(FaultSpecError::SlowdownBelowOne { .. })
        ));
        let inverted = FaultSpec::none().with_stragglers(0.1, 1.0, 1.5, 4.0, 2.0);
        assert!(matches!(
            inverted.validate(),
            Err(FaultSpecError::InvalidSlowdownRange { .. })
        ));
        let alpha = FaultSpec::none().with_stragglers(0.1, 1.0, 0.0, 2.0, 8.0);
        assert!(matches!(
            alpha.validate(),
            Err(FaultSpecError::InvalidAlpha { .. })
        ));
    }

    #[test]
    fn timelines_are_reproducible_and_unit_independent() {
        // The same unit produces the same state sequence regardless of
        // how many other units the plan holds or whether they're queried.
        let mut wide = FaultPlan::new(faulty(), 99, 16);
        let mut narrow = FaultPlan::new(faulty(), 99, 4);
        for step in 0..400 {
            let t = step as f64 * 0.25;
            // Query wide's units in reverse to shuffle cross-unit order.
            let w3 = wide.state(3, t);
            let w0 = wide.state(0, t);
            assert_eq!(narrow.state(0, t), w0, "unit 0 diverged at t={t}");
            assert_eq!(narrow.state(3, t), w3, "unit 3 diverged at t={t}");
        }
    }

    #[test]
    fn episodes_actually_fire_with_sane_parameters() {
        let mut plan = FaultPlan::new(faulty(), 7, 8);
        let (mut revoked, mut straggling) = (0u32, 0u32);
        for step in 0..2000 {
            let t = step as f64 * 0.1;
            for unit in 0..8 {
                match plan.state(unit, t) {
                    FaultState::Revoked { .. } => revoked += 1,
                    FaultState::Straggling { slowdown } => {
                        assert!((2.0..=8.0).contains(&slowdown), "slowdown {slowdown}");
                        straggling += 1;
                    }
                    FaultState::Healthy => {}
                }
            }
        }
        assert!(revoked > 100, "revocations too rare: {revoked}");
        assert!(straggling > 100, "stragglers too rare: {straggling}");
    }

    fn wavy() -> DomainFaultSpec {
        DomainFaultSpec::none()
            .with_zone_revocations(0.1, 2.0)
            .with_rack_revocations(0.2, 1.0)
            .with_zone_stragglers(0.15, 2.5)
            .with_rack_stragglers(0.25, 1.5)
            .with_warned(0.5)
            .with_slowdowns(1.5, 2.0, 8.0)
    }

    #[test]
    fn domain_spec_none_is_none_and_validates() {
        let spec = DomainFaultSpec::none();
        assert!(spec.is_none());
        assert_eq!(spec.validate(), Ok(()));
        assert!(!wavy().is_none());
        assert_eq!(wavy().validate(), Ok(()));
        assert!(matches!(
            DomainFaultSpec::none()
                .with_zone_revocations(-1.0, 1.0)
                .validate(),
            Err(FaultSpecError::NegativeRate { .. })
        ));
        assert!(matches!(
            DomainFaultSpec::none()
                .with_rack_revocations(0.1, 0.0)
                .validate(),
            Err(FaultSpecError::NonPositiveDuration { .. })
        ));
        assert!(matches!(
            wavy().with_slowdowns(1.5, 0.5, 8.0).validate(),
            Err(FaultSpecError::SlowdownBelowOne { .. })
        ));
        assert!(matches!(
            wavy().with_warned(-0.1).validate(),
            Err(FaultSpecError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn waves_hit_every_node_of_a_domain_at_once() {
        let topo = TopologySpec::new(2, 2, 4).unwrap();
        let mut plan = WavePlan::new(wavy(), topo, 1234);
        let mut correlated = 0u32;
        for step in 0..2000 {
            let t = step as f64 * 0.1;
            for zone in 0..topo.num_zones() {
                let zs = plan.zone_state(zone, t);
                if !zs.is_faulted() {
                    continue;
                }
                correlated += 1;
                // Every node of the zone sees at least the zone wave
                // (possibly compounded/overridden by its rack's wave).
                for node in 0..topo.nodes() {
                    if topo.zone_of(node) != zone {
                        continue;
                    }
                    let ns = plan.state(node, t);
                    match (zs, ns) {
                        (FaultState::Revoked { .. }, FaultState::Revoked { .. }) => {}
                        (FaultState::Straggling { .. }, s) => {
                            assert!(s.is_faulted(), "node {node} healthy in zone wave at {t}")
                        }
                        (z, n) => panic!("zone {z:?} but node {n:?} at t={t}"),
                    }
                }
            }
        }
        assert!(correlated > 50, "zone waves too rare: {correlated}");
    }

    #[test]
    fn wave_timelines_are_reproducible_and_query_order_independent() {
        let topo = TopologySpec::new(4, 2, 2).unwrap();
        let mut a = WavePlan::new(wavy(), topo, 77);
        let mut b = WavePlan::new(wavy(), topo, 77);
        for step in 0..500 {
            let t = step as f64 * 0.2;
            // Query a forward, b backward — per-domain streams must not
            // care about cross-domain query order.
            let fwd: Vec<_> = (0..topo.nodes()).map(|n| a.state(n, t)).collect();
            let bwd: Vec<_> = (0..topo.nodes()).rev().map(|n| b.state(n, t)).collect();
            let bwd: Vec<_> = bwd.into_iter().rev().collect();
            assert_eq!(fwd, bwd, "diverged at t={t}");
        }
        // A different seed produces a different history.
        let mut c = WavePlan::new(wavy(), topo, 78);
        let mut differs = false;
        for step in 0..500 {
            let t = step as f64 * 0.2;
            let b0 = b.state(0, t);
            if c.state(0, t) != b0 {
                differs = true;
            }
        }
        assert!(differs, "seed 78 reproduced seed 77's wave history");
    }

    /// Pins all four wave families (zone and rack, revocations and
    /// stragglers): an FNV-1a fold of every node's, zone's and rack's state
    /// on a 0.1 s grid over 200 s.
    #[test]
    fn four_family_wave_history_is_pinned() {
        let topo = TopologySpec::new(2, 2, 4).unwrap();
        let mut plan = WavePlan::new(wavy(), topo, 1234);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for step in 0..2000 {
            let t = step as f64 * 0.1;
            let mut states: Vec<_> = (0..topo.nodes()).map(|n| plan.state(n, t)).collect();
            states.extend((0..topo.num_zones()).map(|z| plan.zone_state(z, t)));
            states.extend((0..topo.num_racks()).map(|r| plan.rack_state(r, t)));
            for state in states {
                let bits = match state {
                    FaultState::Healthy => 0,
                    FaultState::Revoked { warned } => 1 + u64::from(warned),
                    FaultState::Straggling { slowdown } => slowdown.to_bits(),
                };
                for b in bits.to_le_bytes() {
                    digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        assert_eq!(
            digest, 0x4855_e0eb_e14b_2271,
            "wave history moved: {digest:#018x}"
        );
    }

    #[test]
    fn hedge_spec_validates_and_none_is_none() {
        assert!(HedgeSpec::none().is_none());
        assert_eq!(HedgeSpec::none().validate(), Ok(()));
        assert!(!HedgeSpec::after(2.0).is_none());
        assert_eq!(HedgeSpec::after(2.0).validate(), Ok(()));
        assert!(matches!(
            HedgeSpec::after(0.0).validate(),
            Err(FaultSpecError::InvalidHedgeDelay { .. })
        ));
        assert!(matches!(
            HedgeSpec::after(f64::NAN).validate(),
            Err(FaultSpecError::InvalidHedgeDelay { .. })
        ));
    }

    #[test]
    fn request_straggler_knobs_validate() {
        let spec = FaultSpec::none().with_request_stragglers(0.05, 1.5, 2.0, 10.0);
        assert!(!spec.is_none());
        assert!(!spec.has_unit_faults());
        assert!(spec.has_request_stragglers());
        assert_eq!(spec.validate(), Ok(()));
        assert_eq!(spec.request_only(), spec);
        let full = faulty().with_request_stragglers(0.05, 1.5, 2.0, 10.0);
        assert!(full.has_unit_faults());
        assert_eq!(full.request_only(), spec);
        assert!(matches!(
            FaultSpec::none()
                .with_request_stragglers(1.5, 1.5, 2.0, 10.0)
                .validate(),
            Err(FaultSpecError::InvalidProbability { .. })
        ));
        assert!(matches!(
            FaultSpec::none()
                .with_request_stragglers(0.1, 1.5, 0.5, 10.0)
                .validate(),
            Err(FaultSpecError::SlowdownBelowOne { .. })
        ));
        assert!(matches!(
            FaultSpec::none()
                .with_request_stragglers(0.1, 1.5, 4.0, 2.0)
                .validate(),
            Err(FaultSpecError::InvalidSlowdownRange { .. })
        ));
        assert!(matches!(
            FaultSpec::none()
                .with_request_stragglers(0.1, 0.0, 2.0, 10.0)
                .validate(),
            Err(FaultSpecError::InvalidAlpha { .. })
        ));
    }

    #[test]
    fn degenerate_slowdown_range_uses_constant_multiplier() {
        let spec = FaultSpec::none().with_stragglers(5.0, 1.0, 1.5, 3.0, 3.0);
        assert_eq!(spec.validate(), Ok(()));
        let mut plan = FaultPlan::new(spec, 1, 2);
        let mut seen = false;
        for step in 0..200 {
            if let FaultState::Straggling { slowdown } = plan.state(0, step as f64 * 0.1) {
                assert_eq!(slowdown, 3.0);
                seen = true;
            }
        }
        assert!(seen, "no straggler episode fired");
    }
}
