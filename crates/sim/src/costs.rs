//! Reconfiguration costs and shared-resource contention.
//!
//! §3.6 of the paper: responsiveness is bounded by "the computation latency
//! in migrating cores and setting DVFS" and the QoS reaction time; Kasture
//! et al. (cited in §2) note that core transitions are far more costly than
//! DVFS changes — milliseconds versus microseconds. These parameters are
//! what make policy oscillation (Octopus-Man bouncing between 2B and 4S)
//! hurt tail latency in the reproduction, exactly as in Figure 5.

use crate::config::EngineSpecError;

/// Costs charged when the task manager changes the machine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconfigCosts {
    /// Service stall when the core mapping changes (thread migration,
    /// `sched_setaffinity`), seconds. Order of milliseconds.
    pub core_migration_stall_s: f64,
    /// Service stall when only DVFS changes (`acpi-cpufreq` transition),
    /// seconds. Order of microseconds to a fraction of a millisecond.
    pub dvfs_stall_s: f64,
    /// Service-time multiplier applied for one monitoring interval after a
    /// core-mapping change (cold caches on the destination cores). 1.0
    /// disables the effect.
    pub cold_cache_penalty: f64,
}

impl ReconfigCosts {
    /// Default calibration: 30 ms migration stall, 0.2 ms DVFS stall, 15%
    /// cold-cache penalty for one interval.
    pub fn juno_defaults() -> Self {
        ReconfigCosts {
            core_migration_stall_s: 0.030,
            dvfs_stall_s: 0.0002,
            cold_cache_penalty: 1.15,
        }
    }

    /// Zero-cost reconfiguration — the free-reconfiguration ablation
    /// (shows why oscillation matters).
    pub fn free() -> Self {
        ReconfigCosts {
            core_migration_stall_s: 0.0,
            dvfs_stall_s: 0.0,
            cold_cache_penalty: 1.0,
        }
    }

    /// Checks that both stalls are finite and non-negative and the
    /// cold-cache penalty is finite and at least 1, returning the first
    /// field that is not. A NaN stall would never end, and a negative one
    /// would start queued work in the past.
    pub fn validate(&self) -> Result<(), EngineSpecError> {
        first_out_of_range(&[
            ("core_migration_stall_s", self.core_migration_stall_s, 0.0),
            ("dvfs_stall_s", self.dvfs_stall_s, 0.0),
            ("cold_cache_penalty", self.cold_cache_penalty, 1.0),
        ])
    }
}

/// The first `(field, value, min)` whose value is not finite and at least
/// `min`, as an [`EngineSpecError::InvalidCost`].
fn first_out_of_range(fields: &[(&'static str, f64, f64)]) -> Result<(), EngineSpecError> {
    match fields
        .iter()
        .find(|&&(_, value, min)| !(value.is_finite() && value >= min))
    {
        Some(&(field, value, min)) => Err(EngineSpecError::InvalidCost { field, value, min }),
        None => Ok(()),
    }
}

impl Default for ReconfigCosts {
    fn default() -> Self {
        Self::juno_defaults()
    }
}

/// Shared-resource contention between the latency-critical workload and
/// collocated batch jobs.
///
/// The paper (§3.5, corroborating Heracles): "collocating both
/// latency-critical and batch workloads degrades QoS at higher loads due to
/// shared resource contention". The model inflates LC service times by
///
/// ```text
/// slowdown = 1 + same_cluster_per_batch_core · (batch cores on LC clusters)
///              + global_per_batch_core       · (all batch cores)
/// ```
///
/// capturing L2 sharing within a cluster and DRAM-bandwidth sharing across
/// the chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionModel {
    /// LC slowdown per batch core sharing an LC cluster's L2.
    pub same_cluster_per_batch_core: f64,
    /// LC slowdown per batch core anywhere on the chip (memory bandwidth).
    pub global_per_batch_core: f64,
}

impl ContentionModel {
    /// Default calibration: 4% per L2-sharing batch core, 1.5% per batch
    /// core chip-wide.
    pub fn juno_defaults() -> Self {
        ContentionModel {
            same_cluster_per_batch_core: 0.04,
            global_per_batch_core: 0.015,
        }
    }

    /// No contention (isolated clusters — an idealization).
    pub fn none() -> Self {
        ContentionModel {
            same_cluster_per_batch_core: 0.0,
            global_per_batch_core: 0.0,
        }
    }

    /// Checks that both coefficients are finite and non-negative, returning
    /// the first that is not. The engine clamps the slowdown to at least 1,
    /// which would turn a NaN coefficient into no contention (and no
    /// interference jitter) at all.
    pub fn validate(&self) -> Result<(), EngineSpecError> {
        first_out_of_range(&[
            (
                "same_cluster_per_batch_core",
                self.same_cluster_per_batch_core,
                0.0,
            ),
            ("global_per_batch_core", self.global_per_batch_core, 0.0),
        ])
    }

    /// The LC service slowdown factor (≥ 1).
    pub fn lc_slowdown(&self, batch_on_lc_clusters: usize, batch_total: usize) -> f64 {
        1.0 + self.same_cluster_per_batch_core * batch_on_lc_clusters as f64
            + self.global_per_batch_core * batch_total as f64
    }
}

impl Default for ContentionModel {
    fn default() -> Self {
        Self::juno_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migration_costlier_than_dvfs() {
        let c = ReconfigCosts::juno_defaults();
        assert!(c.core_migration_stall_s > 10.0 * c.dvfs_stall_s);
    }

    #[test]
    fn free_costs_are_zero() {
        let c = ReconfigCosts::free();
        assert_eq!(c.core_migration_stall_s, 0.0);
        assert_eq!(c.dvfs_stall_s, 0.0);
        assert_eq!(c.cold_cache_penalty, 1.0);
    }

    #[test]
    fn validate_rejects_each_cost_out_of_range() {
        let juno = ReconfigCosts::juno_defaults();
        assert_eq!(juno.validate(), Ok(()));
        assert_eq!(ReconfigCosts::free().validate(), Ok(()));
        let bad = [
            ("core_migration_stall_s", f64::NAN),
            ("core_migration_stall_s", -0.5),
            ("dvfs_stall_s", f64::INFINITY),
            ("cold_cache_penalty", 0.99),
            ("cold_cache_penalty", f64::NAN),
        ];
        for (want, value) in bad {
            let mut costs = juno;
            match want {
                "core_migration_stall_s" => costs.core_migration_stall_s = value,
                "dvfs_stall_s" => costs.dvfs_stall_s = value,
                _ => costs.cold_cache_penalty = value,
            }
            match costs.validate() {
                Err(EngineSpecError::InvalidCost { field, .. }) => assert_eq!(field, want),
                other => panic!("{costs:?} validated as {other:?}"),
            }
        }
    }

    #[test]
    fn contention_slowdown_composition() {
        let c = ContentionModel {
            same_cluster_per_batch_core: 0.1,
            global_per_batch_core: 0.01,
        };
        assert_eq!(c.lc_slowdown(0, 0), 1.0);
        let s = c.lc_slowdown(2, 4);
        assert!((s - 1.24).abs() < 1e-12);
    }

    #[test]
    fn contention_validate_rejects_each_coefficient_out_of_range() {
        assert_eq!(ContentionModel::juno_defaults().validate(), Ok(()));
        assert_eq!(ContentionModel::none().validate(), Ok(()));
        let bad = [
            ("same_cluster_per_batch_core", f64::NAN),
            ("same_cluster_per_batch_core", -0.01),
            ("global_per_batch_core", f64::INFINITY),
            ("global_per_batch_core", -5.0),
        ];
        for (want, value) in bad {
            let mut c = ContentionModel::juno_defaults();
            if want == "global_per_batch_core" {
                c.global_per_batch_core = value;
            } else {
                c.same_cluster_per_batch_core = value;
            }
            match c.validate() {
                Err(EngineSpecError::InvalidCost { field, min, .. }) => {
                    assert_eq!((field, min), (want, 0.0));
                }
                other => panic!("{c:?} validated as {other:?}"),
            }
        }
    }

    #[test]
    fn none_is_identity() {
        let c = ContentionModel::none();
        assert_eq!(c.lc_slowdown(4, 6), 1.0);
    }
}
