//! Dense enumeration of the reachable action set.
//!
//! The Hipster MDP's action space — the power ladder of
//! [`CoreConfig`]s — is fixed for the lifetime of a policy, yet the
//! lookup table used to hash a full `(bucket, CoreConfig)` key on every
//! monitoring interval of every scenario. A [`ConfigSpace`] enumerates
//! the action set **once**, assigning each configuration a dense index
//! `0..len`, so the per-interval control path ([`QTable`](crate::QTable)
//! lookups, updates and argmax scans) works on array offsets instead of
//! hashes. The enumeration order is the caller's slice order, which for
//! [`power_ladder`](hipster_platform::power_ladder) is ascending power —
//! the same order every tie-break in the policy depends on.

use std::collections::HashMap;

use hipster_platform::{power_ladder, CoreConfig, Platform};

/// An immutable, indexed enumeration of an action set.
///
/// Index order is declaration order: `space.get(i)` is the `i`-th entry
/// of the slice the space was built from, so scanning indices `0..len`
/// visits actions exactly as [`QTable::best_action`](crate::QTable::best_action)
/// scans its `actions` slice (ties break toward the lowest index).
///
/// # Examples
///
/// ```
/// use hipster_core::ConfigSpace;
/// use hipster_platform::Platform;
///
/// let space = ConfigSpace::from_platform(&Platform::juno_r1());
/// assert!(space.len() > 30); // the Juno power ladder
/// let first = space.get(0);
/// assert_eq!(space.index_of(&first), Some(0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ConfigSpace {
    configs: Vec<CoreConfig>,
    index: HashMap<CoreConfig, u32>,
}

impl ConfigSpace {
    /// Enumerates `configs` in slice order.
    ///
    /// # Panics
    ///
    /// Panics if the slice contains duplicate configurations — an action
    /// *set* has one index per action, and a duplicate would make
    /// index-based and config-based lookups disagree.
    pub fn new(configs: Vec<CoreConfig>) -> Self {
        let mut index = HashMap::new();
        for (i, c) in configs.iter().enumerate() {
            let prev = index.insert(*c, i as u32);
            assert!(
                prev.is_none(),
                "duplicate configuration {c} in action set (positions {} and {i})",
                prev.unwrap(),
            );
        }
        ConfigSpace { configs, index }
    }

    /// The canonical space of a platform: its full
    /// [`power_ladder`](hipster_platform::power_ladder), enumerated in
    /// ascending-power order.
    pub fn from_platform(platform: &Platform) -> Self {
        ConfigSpace::new(power_ladder(platform))
    }

    /// Number of configurations in the space.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// The configuration at dense index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> CoreConfig {
        self.configs[i]
    }

    /// The enumerated configurations, in index order.
    pub fn configs(&self) -> &[CoreConfig] {
        &self.configs
    }

    /// The dense index of `config`, or `None` when it is outside the
    /// space. One hash — paid at enumeration boundaries (e.g. when the
    /// heuristic hands over a configuration), never per table cell.
    pub fn index_of(&self, config: &CoreConfig) -> Option<u32> {
        self.index.get(config).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipster_platform::Frequency;

    fn cfg(n_big: usize, n_small: usize) -> CoreConfig {
        CoreConfig::new(
            n_big,
            n_small,
            Frequency::from_mhz(1150),
            Frequency::from_mhz(650),
        )
    }

    #[test]
    fn index_order_is_declaration_order() {
        let actions = vec![cfg(0, 1), cfg(1, 0), cfg(2, 0)];
        let space = ConfigSpace::new(actions.clone());
        assert_eq!(space.len(), 3);
        for (i, c) in actions.iter().enumerate() {
            assert_eq!(space.get(i), *c);
            assert_eq!(space.index_of(c), Some(i as u32));
            assert_eq!(space.configs()[i], *c);
        }
    }

    #[test]
    fn outside_configs_have_no_index() {
        let space = ConfigSpace::new(vec![cfg(1, 0)]);
        assert_eq!(space.index_of(&cfg(2, 0)), None);
    }

    #[test]
    fn empty_space_is_valid() {
        let space = ConfigSpace::default();
        assert!(space.is_empty());
        assert_eq!(space.index_of(&cfg(1, 0)), None);
    }

    #[test]
    #[should_panic(expected = "duplicate configuration")]
    fn duplicates_rejected() {
        ConfigSpace::new(vec![cfg(1, 0), cfg(2, 0), cfg(1, 0)]);
    }

    #[test]
    fn platform_space_matches_power_ladder() {
        let p = Platform::juno_r1();
        let space = ConfigSpace::from_platform(&p);
        let ladder = power_ladder(&p);
        assert_eq!(space.configs(), ladder.as_slice());
        for (i, c) in ladder.iter().enumerate() {
            assert_eq!(space.index_of(c), Some(i as u32));
        }
    }
}
