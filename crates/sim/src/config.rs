//! Declarative engine construction: an [`EngineSpec`] carries every knob
//! an [`Engine`] accepts, validates itself with typed errors, and builds
//! the engine in one call.
//!
//! Experiment harnesses used to chain `Engine::new(..).with_interval(..)
//! .with_jitter(..)` by hand in every driver; a spec makes the full
//! configuration a value that can be stored, compared, cloned across a
//! fleet of scenarios, and validated *before* anything panics.

use hipster_platform::Platform;

use crate::costs::{ContentionModel, ReconfigCosts};
use crate::engine::{Engine, DEFAULT_JITTER_SIGMA};
use crate::fault::{FaultSpec, FaultSpecError, HedgeSpec};
use crate::traits::{BatchProgram, LcModel, LoadPattern};

/// Why an [`EngineSpec`] failed validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineSpecError {
    /// The monitoring interval length is zero, negative or not finite.
    NonPositiveInterval {
        /// The rejected interval length, seconds.
        seconds: f64,
    },
    /// The background-interference jitter sigma is negative or not finite.
    InvalidJitter {
        /// The rejected sigma.
        sigma: f64,
    },
    /// A reconfiguration cost or contention coefficient is not finite or
    /// lies below its minimum: 0 for the two stalls and both
    /// [`ContentionModel`] coefficients, 1 for the cold-cache penalty.
    InvalidCost {
        /// The rejected [`ReconfigCosts`] or [`ContentionModel`] field.
        field: &'static str,
        /// Its value.
        value: f64,
        /// The smallest value the field accepts.
        min: f64,
    },
    /// The fault-injection spec is invalid.
    Fault(FaultSpecError),
}

impl std::fmt::Display for EngineSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineSpecError::NonPositiveInterval { seconds } => {
                write!(f, "monitoring interval must be positive, got {seconds}")
            }
            EngineSpecError::InvalidJitter { sigma } => {
                write!(
                    f,
                    "jitter sigma must be finite and non-negative, got {sigma}"
                )
            }
            EngineSpecError::InvalidCost { field, value, min } => {
                write!(f, "{field} must be finite and at least {min}, got {value}")
            }
            EngineSpecError::Fault(e) => write!(f, "fault spec: {e}"),
        }
    }
}

impl std::error::Error for EngineSpecError {}

/// Every engine knob as one declarative value (see [`Engine`] for what each
/// field does). [`EngineSpec::default`] reproduces `Engine::new` exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineSpec {
    /// Root seed for all stochastic streams.
    pub seed: u64,
    /// Monitoring interval length, seconds (paper default: 1 s).
    pub interval_s: f64,
    /// Lognormal sigma of the background-interference slowdown
    /// ([`DEFAULT_JITTER_SIGMA`] unless overridden; 0 = noiseless).
    pub jitter_sigma: f64,
    /// Core-migration / DVFS transition costs.
    pub costs: ReconfigCosts,
    /// LC-vs-batch contention model.
    pub contention: ContentionModel,
    /// Whether the Juno perf idle-counter bug is armed.
    pub perf_quirk: bool,
    /// Whether Linux `cpuidle` is disabled (the paper's perf-bug
    /// mitigation; idle cores burn more power but counters stay clean).
    pub cpuidle_disabled: bool,
    /// Fault injection: transient revocations and straggler episodes
    /// ([`FaultSpec::none`] = the exact fault-free path).
    pub faults: FaultSpec,
    /// Hedging policy for per-request stragglers ([`HedgeSpec::none`] =
    /// no backups; only meaningful when
    /// [`FaultSpec::with_request_stragglers`] is armed).
    pub hedge: HedgeSpec,
}

impl Default for EngineSpec {
    fn default() -> Self {
        EngineSpec {
            seed: 0,
            interval_s: 1.0,
            jitter_sigma: DEFAULT_JITTER_SIGMA,
            costs: ReconfigCosts::juno_defaults(),
            contention: ContentionModel::juno_defaults(),
            perf_quirk: false,
            cpuidle_disabled: false,
            faults: FaultSpec::none(),
            hedge: HedgeSpec::none(),
        }
    }
}

impl EngineSpec {
    /// A default spec with the given root seed.
    pub fn seeded(seed: u64) -> Self {
        EngineSpec {
            seed,
            ..EngineSpec::default()
        }
    }

    /// Checks every field, returning the first problem found.
    pub fn validate(&self) -> Result<(), EngineSpecError> {
        if !self.interval_s.is_finite() || self.interval_s <= 0.0 {
            return Err(EngineSpecError::NonPositiveInterval {
                seconds: self.interval_s,
            });
        }
        if !self.jitter_sigma.is_finite() || self.jitter_sigma < 0.0 {
            return Err(EngineSpecError::InvalidJitter {
                sigma: self.jitter_sigma,
            });
        }
        self.costs.validate()?;
        self.contention.validate()?;
        self.faults.validate().map_err(EngineSpecError::Fault)?;
        self.hedge.validate().map_err(EngineSpecError::Fault)?;
        Ok(())
    }

    /// Builds an engine for `platform` running `lc` under `load` with the
    /// given batch pool (pass an empty vector for interactive-only runs).
    ///
    /// Construction is deterministic: a given spec always yields an engine
    /// with identical stochastic streams, so a spec can be replayed on any
    /// thread of a fleet and produce a byte-identical trace.
    pub fn build(
        &self,
        platform: Platform,
        lc: Box<dyn LcModel>,
        load: Box<dyn LoadPattern>,
        batch: Vec<Box<dyn BatchProgram>>,
    ) -> Result<Engine, EngineSpecError> {
        self.validate()?;
        let mut engine = Engine::new(platform, lc, load, self.seed)
            .with_interval(self.interval_s)
            .with_jitter(self.jitter_sigma)
            .with_costs(self.costs)
            .with_contention(self.contention)
            .with_perf_quirk(self.perf_quirk);
        if !self.hedge.is_none() {
            engine = engine.with_hedging(self.hedge);
        }
        if !self.faults.is_none() {
            engine = engine.with_faults(self.faults);
        }
        if !batch.is_empty() {
            engine = engine.with_batch_pool(batch);
        }
        if self.cpuidle_disabled {
            engine.disable_cpuidle();
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MachineConfig;
    use crate::request::{Demand, QosTarget};
    use crate::rng::SimRng;
    use hipster_platform::{CoreConfig, CoreKind, Frequency};

    #[derive(Debug)]
    struct Toy;
    impl LcModel for Toy {
        fn name(&self) -> &str {
            "toy"
        }
        fn max_load_rps(&self) -> f64 {
            100.0
        }
        fn qos(&self) -> QosTarget {
            QosTarget::new(0.95, 0.010)
        }
        fn sample_demand(&self, _rng: &mut SimRng) -> Demand {
            Demand::new(1.0, 0.0)
        }
        fn service_speed(&self, kind: CoreKind, _f: Frequency) -> f64 {
            match kind {
                CoreKind::Big => 1000.0,
                CoreKind::Small => 400.0,
            }
        }
    }

    #[derive(Debug)]
    struct Half;
    impl LoadPattern for Half {
        fn load_at(&self, _t: f64) -> f64 {
            0.5
        }
        fn duration(&self) -> f64 {
            10.0
        }
    }

    #[test]
    fn default_spec_matches_engine_new() {
        // Same seed, default knobs: spec-built and hand-built engines must
        // produce identical interval statistics.
        let platform = Platform::juno_r1();
        let lc: CoreConfig = "2B-1.15".parse().unwrap();
        let cfg = MachineConfig::interactive(&platform, lc);

        let mut by_hand = Engine::new(platform.clone(), Box::new(Toy), Box::new(Half), 42);
        let mut by_spec = EngineSpec::seeded(42)
            .build(platform, Box::new(Toy), Box::new(Half), Vec::new())
            .unwrap();
        for _ in 0..5 {
            assert_eq!(by_hand.step(cfg), by_spec.step(cfg));
        }
    }

    #[test]
    fn rejects_bad_interval_and_jitter() {
        let mut s = EngineSpec::default();
        s.interval_s = 0.0;
        assert_eq!(
            s.validate(),
            Err(EngineSpecError::NonPositiveInterval { seconds: 0.0 })
        );
        let mut s = EngineSpec::default();
        s.jitter_sigma = -1.0;
        assert_eq!(
            s.validate(),
            Err(EngineSpecError::InvalidJitter { sigma: -1.0 })
        );
        let mut s = EngineSpec::default();
        s.interval_s = f64::NAN;
        assert!(s.validate().is_err());
    }

    #[test]
    fn rejects_bad_fault_spec() {
        let mut s = EngineSpec::default();
        s.faults = FaultSpec::none()
            .with_warned(2.0)
            .with_revocations(0.1, 1.0);
        assert!(matches!(
            s.validate(),
            Err(EngineSpecError::Fault(FaultSpecError::InvalidProbability { prob })) if prob == 2.0
        ));
    }

    #[derive(Debug)]
    struct Spin;
    impl BatchProgram for Spin {
        fn name(&self) -> &str {
            "spin"
        }
        fn ips(&self, _kind: CoreKind, _f: Frequency) -> f64 {
            1e9
        }
    }

    /// Steps six intervals of `spec` on Juno: the toy service at half
    /// load under `config` of `2B-1.15`, with `pool` as the batch pool.
    fn step_six_intervals(
        spec: EngineSpec,
        config: fn(&Platform, CoreConfig) -> MachineConfig,
        pool: Vec<Box<dyn BatchProgram>>,
    ) {
        assert_eq!(spec.validate(), Ok(()));
        let cfg = config(&Platform::juno_r1(), "2B-1.15".parse().unwrap());
        let mut engine = spec
            .build(Platform::juno_r1(), Box::new(Toy), Box::new(Half), pool)
            .unwrap();
        for _ in 0..6 {
            engine.step(cfg);
        }
    }

    #[test]
    fn overflowing_jitter_saturates_the_slowdown() {
        // exp(1000·z) is +inf once z > 0.71, which seed 3 draws by the
        // third interval; a straggle on top must stay finite too.
        let mut s = EngineSpec::seeded(3);
        s.jitter_sigma = 1000.0;
        step_six_intervals(s, MachineConfig::interactive, Vec::new());
        s.faults = FaultSpec::none().with_stragglers(5.0, 1.0, 1.5, 2.0, 8.0);
        step_six_intervals(s, MachineConfig::interactive, Vec::new());
    }

    #[test]
    fn overflowing_contention_saturates_the_slowdown() {
        let mut s = EngineSpec::seeded(3);
        s.contention.global_per_batch_core = 1e308;
        step_six_intervals(s, MachineConfig::collocated, vec![Box::new(Spin)]);
    }

    #[test]
    fn error_messages_name_the_offender() {
        let e = EngineSpecError::InvalidJitter { sigma: -0.5 };
        assert!(e.to_string().contains("-0.5"));
        let e = EngineSpecError::InvalidCost {
            field: "cold_cache_penalty",
            value: 0.5,
            min: 1.0,
        };
        assert_eq!(
            e.to_string(),
            "cold_cache_penalty must be finite and at least 1, got 0.5"
        );
    }
}
