//! The reference control-plane implementation, kept as a differential
//! oracle.
//!
//! [`ReferenceQTable`] is the hash-map-backed lookup table that
//! [`QTable`](crate::QTable) replaced with a dense
//! `(bucket, action_index)` array, frozen verbatim. A differential
//! property test pins the two to identical
//! `get`/`update`/`max_over`/`best_action` behaviour, tie-breaks and
//! unexplored-state defaults included.
//!
//! Nothing here is reachable from the hot path; the module exists so the
//! fast implementation is falsifiable against a fixed reference.

use std::collections::HashMap;

use hipster_platform::CoreConfig;

/// The pre-PR4 lookup table: a hash map keyed on `(load bucket,
/// configuration)`, hashed on every access. Semantically identical to
/// [`QTable`](crate::QTable); kept verbatim as the differential oracle.
#[derive(Debug, Clone, Default)]
pub struct ReferenceQTable {
    table: HashMap<(u32, CoreConfig), f64>,
}

impl ReferenceQTable {
    /// Creates an empty table (all entries 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of explored (written) entries.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table has never been written.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Reads `R(w, c)`; unexplored entries are 0.
    pub fn get(&self, w: u32, c: &CoreConfig) -> f64 {
        self.table.get(&(w, *c)).copied().unwrap_or(0.0)
    }

    /// The highest `R(w, d)` over an action set (0 if none explored).
    pub fn max_over(&self, w: u32, actions: &[CoreConfig]) -> f64 {
        actions
            .iter()
            .map(|c| self.get(w, c))
            .fold(0.0_f64, f64::max)
    }

    /// The action with the highest `R(w, d)`; ties break toward the
    /// earliest action in `actions`. `None` when `actions` is empty.
    pub fn best_action(&self, w: u32, actions: &[CoreConfig]) -> Option<CoreConfig> {
        let mut best: Option<(CoreConfig, f64)> = None;
        for c in actions {
            let v = self.get(w, c);
            match best {
                None => best = Some((*c, v)),
                Some((_, bv)) if v > bv => best = Some((*c, v)),
                _ => {}
            }
        }
        best.map(|(c, _)| c)
    }

    /// The Q-learning update of Algorithm 1 line 16.
    ///
    /// # Panics
    ///
    /// Panics unless `alpha` and `gamma` lie in `[0, 1]`.
    pub fn update(
        &mut self,
        w: u32,
        c: CoreConfig,
        reward: f64,
        next_w: u32,
        actions: &[CoreConfig],
        alpha: f64,
        gamma: f64,
    ) {
        assert!((0.0..=1.0).contains(&alpha), "alpha {alpha} not in [0,1]");
        assert!((0.0..=1.0).contains(&gamma), "gamma {gamma} not in [0,1]");
        let future = self.max_over(next_w, actions);
        let entry = self.table.entry((w, c)).or_insert(0.0);
        *entry += alpha * (reward + gamma * future - *entry);
    }

    /// Whether state `w` has at least one strictly positive entry.
    pub fn has_positive_entry(&self, w: u32, actions: &[CoreConfig]) -> bool {
        actions.iter().any(|c| self.get(w, c) > 0.0)
    }

    /// Serializes as tab-separated text, sorted for stable output (the
    /// same wire format as [`QTable::to_tsv`](crate::QTable::to_tsv)).
    pub fn to_tsv(&self) -> String {
        let mut rows: Vec<(u32, CoreConfig, f64)> =
            self.table.iter().map(|(&(w, c), &v)| (w, c, v)).collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut out = String::new();
        for (w, c, v) in rows {
            out.push_str(&format!("{w}\t{c}\t{v:.17e}\n"));
        }
        out
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
    fn reference_table_semantics_frozen() {
        let mut t = ReferenceQTable::new();
        let actions = [cfg(0, 1), cfg(1, 0), cfg(2, 0)];
        assert!(t.is_empty());
        assert_eq!(t.get(3, &cfg(1, 0)), 0.0);
        assert_eq!(t.best_action(0, &actions), Some(cfg(0, 1)));
        t.update(0, cfg(1, 0), 10.0, 1, &actions, 0.5, 0.0);
        assert_eq!(t.get(0, &cfg(1, 0)), 5.0);
        assert_eq!(t.best_action(0, &actions), Some(cfg(1, 0)));
        assert!(t.has_positive_entry(0, &actions));
        assert_eq!(t.len(), 1);
        assert_eq!(t.best_action(0, &[]), None);
    }
}
