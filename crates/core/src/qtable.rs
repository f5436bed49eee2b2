//! The Hipster lookup table `R(w, c)`, stored densely.
//!
//! §3.7: "the lookup table was implemented using a Python dictionary, which
//! uses open addressing … having a computational complexity of O(1)". Until
//! PR 4 the Rust equivalent was a hash map keyed on `(load bucket,
//! configuration)` — O(1), but every `get`/`update`/`best_action` of every
//! monitoring interval of every scenario paid a hash of the full key. The
//! state space is tiny and fixed (tens of buckets × tens of ladder
//! configurations), so the table is now **dense**: a [`ConfigSpace`]
//! enumerates the action set once, and values live in a flat `Vec<f64>`
//! indexed by `(bucket, action_index)`. Lookups are array offsets, argmax
//! is a row scan, and the per-interval control path allocates nothing.
//!
//! Entries outside the enumerated space (tables loaded from disk with a
//! foreign ladder, or tables built with [`QTable::new`] and no space at
//! all) spill to a hash map, preserving the old semantics exactly;
//! [`QTable::rekeyed`] moves spilled entries into dense storage once the
//! action set is known. The pre-PR4 map-backed implementation is frozen as
//! [`reference::ReferenceQTable`](crate::reference::ReferenceQTable) and a
//! differential property test pins the two to identical behaviour —
//! tie-breaks and unexplored-state defaults included.

use std::collections::HashMap;

use crate::configspace::ConfigSpace;

use hipster_platform::CoreConfig;

/// Buckets `0..MAX_DENSE_BUCKETS` get dense rows; anything above (only
/// reachable through hand-written TSV input — real quantizers produce a few
/// dozen buckets) spills to the map so a stray huge index cannot allocate
/// gigabytes of zeros.
const MAX_DENSE_BUCKETS: u32 = 4096;

/// Tabular action-value store for the Hipster MDP.
///
/// `w` is a quantized load bucket, `c` a core configuration; `R(w, c)`
/// estimates the total discounted reward from taking `c` in state `w`.
/// Absent entries read as 0 (unexplored).
///
/// Two API layers:
///
/// * **config-keyed** ([`get`](QTable::get), [`update`](QTable::update),
///   [`best_action`](QTable::best_action), …) — the historical interface,
///   usable with or without a space;
/// * **index-keyed** ([`value_at`](QTable::value_at),
///   [`update_indexed`](QTable::update_indexed),
///   [`best_index`](QTable::best_index), …) — the hot path used by
///   [`Hipster`](crate::Hipster), equivalent to the config-keyed calls
///   over the whole [`space`](QTable::space) but with zero hashing.
#[derive(Debug, Clone, Default)]
pub struct QTable {
    space: ConfigSpace,
    /// Row-major `rows × space.len()` values; unwritten cells hold 0.
    dense: Vec<f64>,
    /// One bit per dense cell: whether the cell has been written (an
    /// explored entry with value 0 is distinct from an unexplored one for
    /// [`QTable::len`] / [`QTable::to_tsv`]).
    written: Vec<u64>,
    /// Count of set bits in `written`.
    dense_count: usize,
    /// Entries outside the space (or beyond [`MAX_DENSE_BUCKETS`]).
    spill: HashMap<(u32, CoreConfig), f64>,
}

impl QTable {
    /// Creates an empty table with no action space (all entries spill to
    /// the map — the historical behaviour).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table keyed densely on `space`.
    pub fn for_space(space: ConfigSpace) -> Self {
        QTable {
            space,
            ..Self::default()
        }
    }

    /// Rebuilds this table onto `space`, moving every entry whose
    /// configuration the space enumerates into dense storage (values are
    /// preserved bit-for-bit; entries outside the space keep spilling).
    /// This is how a table loaded with [`QTable::from_tsv`] becomes hot-path
    /// ready for a warm-started policy.
    pub fn rekeyed(self, space: ConfigSpace) -> Self {
        let mut out = QTable::for_space(space);
        for ((w, c), v) in self.iter() {
            out.set_raw(w, c, v);
        }
        out
    }

    /// The action space this table is densely keyed on (empty for
    /// [`QTable::new`] tables).
    pub fn space(&self) -> &ConfigSpace {
        &self.space
    }

    /// Number of explored (written) entries.
    pub fn len(&self) -> usize {
        self.dense_count + self.spill.len()
    }

    /// Whether the table has never been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of dense rows currently allocated.
    fn rows(&self) -> usize {
        let n = self.space.len();
        if n == 0 {
            0
        } else {
            self.dense.len() / n
        }
    }

    #[inline]
    fn dense_cell(&self, w: u32, idx: usize) -> Option<usize> {
        let n = self.space.len();
        let row = w as usize;
        if idx < n && row < self.rows() {
            Some(row * n + idx)
        } else {
            None
        }
    }

    /// Grows dense storage to cover bucket `w`, returning the cell offset.
    fn ensure_cell(&mut self, w: u32, idx: usize) -> usize {
        let n = self.space.len();
        debug_assert!(idx < n && w < MAX_DENSE_BUCKETS);
        let row = w as usize;
        if row >= self.rows() {
            self.dense.resize((row + 1) * n, 0.0);
            let bits = (self.dense.len() + 63) / 64;
            self.written.resize(bits, 0);
        }
        row * n + idx
    }

    #[inline]
    fn is_written(&self, cell: usize) -> bool {
        self.written[cell / 64] >> (cell % 64) & 1 == 1
    }

    fn mark_written(&mut self, cell: usize) {
        let word = &mut self.written[cell / 64];
        let bit = 1u64 << (cell % 64);
        if *word & bit == 0 {
            *word |= bit;
            self.dense_count += 1;
        }
    }

    /// Whether `(w, c)` lands in dense storage.
    #[inline]
    fn dense_key(&self, w: u32, c: &CoreConfig) -> Option<usize> {
        if w < MAX_DENSE_BUCKETS {
            self.space.index_of(c).map(|i| i as usize)
        } else {
            None
        }
    }

    /// Writes a value directly (no Q-learning arithmetic) — deserialization
    /// and re-keying only.
    fn set_raw(&mut self, w: u32, c: CoreConfig, v: f64) {
        match self.dense_key(w, &c) {
            Some(idx) => {
                let cell = self.ensure_cell(w, idx);
                self.dense[cell] = v;
                self.mark_written(cell);
            }
            None => {
                self.spill.insert((w, c), v);
            }
        }
    }

    /// Reads `R(w, c)`; unexplored entries are 0.
    pub fn get(&self, w: u32, c: &CoreConfig) -> f64 {
        match self.dense_key(w, c) {
            Some(idx) => self.dense_cell(w, idx).map_or(0.0, |cell| self.dense[cell]),
            None => self.spill.get(&(w, *c)).copied().unwrap_or(0.0),
        }
    }

    /// Reads the value at dense index `idx` of bucket `w` — no hashing
    /// (buckets beyond the dense cap fall back to the spill map).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is outside the table's [`space`](QTable::space).
    #[inline]
    pub fn value_at(&self, w: u32, idx: usize) -> f64 {
        assert!(idx < self.space.len(), "action index {idx} out of space");
        if w < MAX_DENSE_BUCKETS {
            self.dense_cell(w, idx).map_or(0.0, |cell| self.dense[cell])
        } else {
            self.spill
                .get(&(w, self.space.get(idx)))
                .copied()
                .unwrap_or(0.0)
        }
    }

    /// The dense row of bucket `w`, when allocated (absent rows are all
    /// unexplored — every value 0).
    #[inline]
    fn row_slice(&self, w: u32) -> Option<&[f64]> {
        let n = self.space.len();
        let row = w as usize;
        if n > 0 && row < self.rows() {
            Some(&self.dense[row * n..(row + 1) * n])
        } else {
            None
        }
    }

    /// The highest `R(w, d)` over an action set (0 if none explored).
    pub fn max_over(&self, w: u32, actions: &[CoreConfig]) -> f64 {
        actions
            .iter()
            .map(|c| self.get(w, c))
            .fold(0.0_f64, f64::max)
    }

    /// The highest `R(w, d)` over the **whole space** (0 if none explored) —
    /// the index-keyed equivalent of [`QTable::max_over`] with the full
    /// action set, as one row scan.
    pub fn max_at(&self, w: u32) -> f64 {
        if w >= MAX_DENSE_BUCKETS {
            return self.max_over(w, self.space.configs());
        }
        match self.row_slice(w) {
            Some(row) => row.iter().copied().fold(0.0_f64, f64::max),
            None => 0.0,
        }
    }

    /// The action with the highest `R(w, d)`; ties break toward the
    /// earliest action in `actions` (the power ladder puts cheaper
    /// configurations first, so unexplored states prefer low power).
    ///
    /// Returns `None` when `actions` is empty.
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

    /// The dense index with the highest `R(w, d)` over the whole space;
    /// ties break toward the lowest index (identical to
    /// [`QTable::best_action`] over [`ConfigSpace::configs`], since space
    /// order is declaration order). `None` when the space is empty.
    pub fn best_index(&self, w: u32) -> Option<usize> {
        if self.space.is_empty() {
            return None;
        }
        if w >= MAX_DENSE_BUCKETS {
            let mut best = 0usize;
            let mut bv = self.value_at(w, 0);
            for i in 1..self.space.len() {
                let v = self.value_at(w, i);
                if v > bv {
                    best = i;
                    bv = v;
                }
            }
            return Some(best);
        }
        match self.row_slice(w) {
            Some(row) => {
                let mut best = 0usize;
                let mut bv = row[0];
                for (i, &v) in row.iter().enumerate().skip(1) {
                    if v > bv {
                        best = i;
                        bv = v;
                    }
                }
                Some(best)
            }
            // Unallocated row: every value 0 — the tie-break picks index 0.
            None => Some(0),
        }
    }

    /// The Q-learning update of Algorithm 1 line 16:
    ///
    /// ```text
    /// R(w,c) ← R(w,c) + α · (λ + γ·max_d R(w', d) − R(w,c))
    /// ```
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
        self.apply_update(w, c, reward, future, alpha, gamma);
    }

    /// The same update, index-keyed, bootstrapping from the whole space
    /// (`max_d` over every enumerated action — what [`Hipster`](crate::Hipster)
    /// always passes). No hashing, no allocation once the row exists.
    ///
    /// # Panics
    ///
    /// Panics unless `alpha`/`gamma` lie in `[0, 1]` and `idx` is inside
    /// the space.
    pub fn update_indexed(
        &mut self,
        w: u32,
        idx: usize,
        reward: f64,
        next_w: u32,
        alpha: f64,
        gamma: f64,
    ) {
        assert!((0.0..=1.0).contains(&alpha), "alpha {alpha} not in [0,1]");
        assert!((0.0..=1.0).contains(&gamma), "gamma {gamma} not in [0,1]");
        assert!(idx < self.space.len(), "action index {idx} out of space");
        let future = self.max_at(next_w);
        if w < MAX_DENSE_BUCKETS {
            let cell = self.ensure_cell(w, idx);
            let entry = &mut self.dense[cell];
            *entry += alpha * (reward + gamma * future - *entry);
            self.mark_written(cell);
        } else {
            let c = self.space.get(idx);
            let entry = self.spill.entry((w, c)).or_insert(0.0);
            *entry += alpha * (reward + gamma * future - *entry);
        }
    }

    fn apply_update(
        &mut self,
        w: u32,
        c: CoreConfig,
        reward: f64,
        future: f64,
        alpha: f64,
        gamma: f64,
    ) {
        match self.dense_key(w, &c) {
            Some(idx) => {
                let cell = self.ensure_cell(w, idx);
                let entry = &mut self.dense[cell];
                *entry += alpha * (reward + gamma * future - *entry);
                self.mark_written(cell);
            }
            None => {
                let entry = self.spill.entry((w, c)).or_insert(0.0);
                *entry += alpha * (reward + gamma * future - *entry);
            }
        }
    }

    /// Whether state `w` has at least one strictly positive entry — i.e.
    /// the table has found a configuration believed to meet QoS there.
    pub fn has_positive_entry(&self, w: u32, actions: &[CoreConfig]) -> bool {
        actions.iter().any(|c| self.get(w, c) > 0.0)
    }

    /// Whether state `w` has a strictly positive entry anywhere in the
    /// space — one row scan, the index-keyed
    /// [`QTable::has_positive_entry`].
    pub fn any_positive(&self, w: u32) -> bool {
        if w >= MAX_DENSE_BUCKETS {
            return self.has_positive_entry(w, self.space.configs());
        }
        match self.row_slice(w) {
            Some(row) => row.iter().any(|&v| v > 0.0),
            None => false,
        }
    }

    /// Iterates over all written entries as `((w, c), value)`: dense ones
    /// in `(bucket, index)` order, then spilled ones in no set order
    /// ([`QTable::to_tsv`] sorts).
    pub fn iter(&self) -> impl Iterator<Item = ((u32, CoreConfig), f64)> + '_ {
        let n = self.space.len();
        let dense = self.dense.iter().enumerate().filter_map(move |(cell, &v)| {
            if self.is_written(cell) {
                let w = (cell / n) as u32;
                Some(((w, self.space.get(cell % n)), v))
            } else {
                None
            }
        });
        dense.chain(self.spill.iter().map(|(&k, &v)| (k, v)))
    }

    /// Serializes the table as tab-separated text (`bucket \t config \t
    /// value`), sorted for stable output. The paper's deployment story
    /// assumes learned tables survive across runs; this is the wire format
    /// for that warm start.
    ///
    /// Configurations are stored by their paper-style label, which carries
    /// a single frequency: entries whose idle-cluster frequency differs
    /// from the Juno defaults are canonicalized on reload. Action sets
    /// produced by [`power_ladder`](hipster_platform::power_ladder) are
    /// canonical, so tables learned by [`Hipster`](crate::Hipster) always
    /// round-trip exactly.
    pub fn to_tsv(&self) -> String {
        let mut rows: Vec<(u32, CoreConfig, f64)> =
            self.iter().map(|((w, c), v)| (w, c, v)).collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut out = String::new();
        for (w, c, v) in rows {
            out.push_str(&format!("{w}\t{c}\t{v:.17e}\n"));
        }
        out
    }

    /// Parses a table serialized by [`QTable::to_tsv`]. The result has no
    /// action space ([`QTable::rekeyed`] attaches one); values are
    /// preserved exactly.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_tsv(text: &str) -> Result<Self, String> {
        let mut table = QTable::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let mut parts = line.split('\t');
            let err = |what: &str| format!("line {}: {what}: {line:?}", i + 1);
            let w: u32 = parts
                .next()
                .ok_or_else(|| err("missing bucket"))?
                .parse()
                .map_err(|_| err("bad bucket"))?;
            let c: CoreConfig = parts
                .next()
                .ok_or_else(|| err("missing config"))?
                .parse()
                .map_err(|_| err("bad config"))?;
            let v: f64 = parts
                .next()
                .ok_or_else(|| err("missing value"))?
                .parse()
                .map_err(|_| err("bad value"))?;
            if parts.next().is_some() {
                return Err(err("trailing fields"));
            }
            table.set_raw(w, c, v);
        }
        Ok(table)
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
    fn unexplored_reads_zero() {
        let t = QTable::new();
        assert_eq!(t.get(3, &cfg(1, 0)), 0.0);
        assert!(t.is_empty());
    }

    #[test]
    fn update_moves_toward_target() {
        let mut t = QTable::new();
        let actions = [cfg(1, 0), cfg(2, 0)];
        t.update(0, cfg(1, 0), 10.0, 1, &actions, 0.5, 0.0);
        assert_eq!(t.get(0, &cfg(1, 0)), 5.0);
        t.update(0, cfg(1, 0), 10.0, 1, &actions, 0.5, 0.0);
        assert_eq!(t.get(0, &cfg(1, 0)), 7.5);
    }

    #[test]
    fn discounting_bootstraps_future_value() {
        let mut t = QTable::new();
        let actions = [cfg(1, 0), cfg(2, 0)];
        // Seed the next state's value.
        t.update(1, cfg(2, 0), 8.0, 2, &actions, 1.0, 0.0);
        assert_eq!(t.get(1, &cfg(2, 0)), 8.0);
        // α=1, γ=0.5: R(0,c) = λ + 0.5·max_d R(1,d) = 2 + 4.
        t.update(0, cfg(1, 0), 2.0, 1, &actions, 1.0, 0.5);
        assert_eq!(t.get(0, &cfg(1, 0)), 6.0);
    }

    #[test]
    fn best_action_argmax_with_ladder_tiebreak() {
        let mut t = QTable::new();
        let actions = [cfg(0, 1), cfg(1, 0), cfg(2, 0)];
        // All zero: first (cheapest) wins.
        assert_eq!(t.best_action(0, &actions), Some(cfg(0, 1)));
        t.update(0, cfg(1, 0), 4.0, 0, &actions, 1.0, 0.0);
        assert_eq!(t.best_action(0, &actions), Some(cfg(1, 0)));
        // Negative values lose to zero-valued cheaper entries.
        t.update(1, cfg(0, 1), -3.0, 0, &actions, 1.0, 0.0);
        assert_eq!(t.best_action(1, &actions), Some(cfg(1, 0)));
    }

    #[test]
    fn best_action_empty_set() {
        let t = QTable::new();
        assert_eq!(t.best_action(0, &[]), None);
    }

    #[test]
    fn positive_entry_detection() {
        let mut t = QTable::new();
        let actions = [cfg(1, 0)];
        assert!(!t.has_positive_entry(0, &actions));
        t.update(0, cfg(1, 0), -1.0, 0, &actions, 1.0, 0.0);
        assert!(!t.has_positive_entry(0, &actions));
        t.update(0, cfg(1, 0), 10.0, 0, &actions, 1.0, 0.0);
        assert!(t.has_positive_entry(0, &actions));
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn update_rejects_bad_alpha() {
        let mut t = QTable::new();
        t.update(0, cfg(1, 0), 1.0, 0, &[], 1.5, 0.5);
    }

    #[test]
    fn tsv_round_trip_preserves_entries() {
        // Canonical configs: idle-cluster frequency at the Juno default
        // (0.60 GHz big when no big cores), as power_ladder produces.
        let small_only = CoreConfig::new(0, 3, Frequency::from_mhz(600), Frequency::from_mhz(650));
        let mut t = QTable::new();
        let actions = [cfg(1, 0), cfg(2, 0), small_only];
        t.update(0, cfg(1, 0), 3.25, 1, &actions, 0.6, 0.9);
        t.update(5, small_only, -1.75, 5, &actions, 0.6, 0.9);
        t.update(5, cfg(2, 0), 7.5, 6, &actions, 1.0, 0.0);
        let text = t.to_tsv();
        let back = QTable::from_tsv(&text).unwrap();
        assert_eq!(back.len(), t.len());
        for ((w, c), v) in t.iter() {
            assert!((back.get(w, &c) - v).abs() < 1e-12, "({w},{c})");
        }
    }

    #[test]
    fn every_power_ladder_config_round_trips() {
        use hipster_platform::{power_ladder, Platform};
        let ladder = power_ladder(&Platform::juno_r1());
        let mut t = QTable::new();
        for (i, c) in ladder.iter().enumerate() {
            t.update(i as u32, *c, i as f64, 0, &[], 1.0, 0.0);
        }
        let back = QTable::from_tsv(&t.to_tsv()).unwrap();
        for (i, c) in ladder.iter().enumerate() {
            assert_eq!(back.get(i as u32, c), i as f64, "{c}");
        }
    }

    #[test]
    fn tsv_output_is_sorted_and_stable() {
        let mut t = QTable::new();
        t.update(3, cfg(2, 0), 1.0, 3, &[], 1.0, 0.0);
        t.update(1, cfg(1, 0), 2.0, 1, &[], 1.0, 0.0);
        let a = t.to_tsv();
        let b = t.to_tsv();
        assert_eq!(a, b);
        let lines: Vec<&str> = a.lines().collect();
        assert!(lines[0].starts_with('1'));
        assert!(lines[1].starts_with('3'));
    }

    #[test]
    fn from_tsv_rejects_garbage() {
        assert!(QTable::from_tsv("not a table").is_err());
        assert!(QTable::from_tsv("1\tnonsense\t2.0").is_err());
        assert!(QTable::from_tsv("1\t2B-1.15\tx").is_err());
        assert!(QTable::from_tsv("1\t2B-1.15\t1.0\textra").is_err());
        // Empty and blank lines are fine.
        assert_eq!(QTable::from_tsv("\n\n").unwrap().len(), 0);
    }

    // ---- dense (index-keyed) behaviour ----

    fn spaced() -> (QTable, Vec<CoreConfig>) {
        let actions = vec![cfg(0, 1), cfg(1, 0), cfg(2, 0)];
        (
            QTable::for_space(ConfigSpace::new(actions.clone())),
            actions,
        )
    }

    #[test]
    fn dense_and_config_keyed_views_agree() {
        let (mut t, actions) = spaced();
        t.update(2, actions[1], 4.0, 3, &actions, 0.5, 0.25);
        assert_eq!(t.get(2, &actions[1]), t.value_at(2, 1));
        assert_eq!(t.max_over(2, &actions), t.max_at(2));
        assert_eq!(
            t.best_action(2, &actions),
            Some(actions[t.best_index(2).unwrap()])
        );
        assert_eq!(t.has_positive_entry(2, &actions), t.any_positive(2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn update_indexed_matches_update() {
        let (mut a, actions) = spaced();
        let (mut b, _) = spaced();
        a.update(1, actions[2], -2.5, 2, &actions, 0.6, 0.9);
        a.update(2, actions[0], 7.0, 1, &actions, 0.6, 0.9);
        b.update_indexed(1, 2, -2.5, 2, 0.6, 0.9);
        b.update_indexed(2, 0, 7.0, 1, 0.6, 0.9);
        for w in 0..4u32 {
            for (i, c) in actions.iter().enumerate() {
                assert_eq!(a.get(w, c).to_bits(), b.value_at(w, i).to_bits());
            }
        }
        assert_eq!(a.to_tsv(), b.to_tsv());
    }

    #[test]
    fn unallocated_rows_read_unexplored() {
        let (t, _) = spaced();
        assert_eq!(t.value_at(999, 2), 0.0);
        assert_eq!(t.max_at(999), 0.0);
        assert_eq!(t.best_index(999), Some(0)); // tie-break: cheapest
        assert!(!t.any_positive(999));
    }

    #[test]
    fn best_index_breaks_ties_low_and_tracks_argmax() {
        let (mut t, actions) = spaced();
        assert_eq!(t.best_index(0), Some(0));
        t.update_indexed(0, 1, 4.0, 0, 1.0, 0.0);
        assert_eq!(t.best_index(0), Some(1));
        // A negative value loses to unexplored zeros.
        t.update_indexed(1, 0, -3.0, 0, 1.0, 0.0);
        assert_eq!(t.best_index(1), Some(1));
        assert_eq!(
            t.best_action(1, &actions),
            Some(actions[t.best_index(1).unwrap()])
        );
    }

    #[test]
    fn off_space_configs_spill_and_persist() {
        // Canonical labels only, so the TSV round-trip reproduces keys.
        let in_space = cfg(1, 0);
        let foreign = cfg(3, 0);
        let mut t = QTable::for_space(ConfigSpace::new(vec![in_space, cfg(2, 0)]));
        t.update(0, foreign, 5.0, 0, &[foreign], 1.0, 0.0);
        assert_eq!(t.get(0, &foreign), 5.0);
        assert_eq!(t.len(), 1);
        // Serialization sees dense and spilled entries alike.
        t.update_indexed(0, 0, 1.0, 0, 1.0, 0.0);
        let back = QTable::from_tsv(&t.to_tsv()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.get(0, &foreign), 5.0);
        assert_eq!(back.get(0, &in_space), 1.0);
    }

    #[test]
    fn rekeyed_moves_spilled_entries_into_dense_storage() {
        let actions = vec![cfg(0, 1), cfg(1, 0), cfg(2, 0)];
        let mut flat = QTable::new();
        flat.update(4, actions[2], 3.5, 4, &actions, 0.7, 0.3);
        flat.update(9, actions[0], -1.0, 9, &actions, 0.7, 0.3);
        let dense = flat.clone().rekeyed(ConfigSpace::new(actions.clone()));
        assert_eq!(dense.len(), flat.len());
        assert_eq!(dense.to_tsv(), flat.to_tsv());
        assert_eq!(
            dense.value_at(4, 2).to_bits(),
            flat.get(4, &actions[2]).to_bits()
        );
        assert!(dense.spill.is_empty());
    }

    #[test]
    fn huge_buckets_spill_instead_of_allocating() {
        let (mut t, actions) = spaced();
        t.update(
            3_000_000_000,
            actions[1],
            2.0,
            3_000_000_000,
            &actions,
            1.0,
            0.0,
        );
        assert_eq!(t.get(3_000_000_000, &actions[1]), 2.0);
        assert!(t.dense.is_empty());
        assert_eq!(t.len(), 1);
        // The indexed update hits the same spilled entry.
        t.update_indexed(3_000_000_000, 1, 2.0, 0, 1.0, 0.0);
        assert_eq!(t.get(3_000_000_000, &actions[1]), 2.0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn explored_zero_counts_as_written() {
        let (mut t, _) = spaced();
        t.update_indexed(0, 0, 0.0, 0, 1.0, 0.0);
        assert_eq!(t.value_at(0, 0), 0.0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.to_tsv().lines().count(), 1);
    }
}
