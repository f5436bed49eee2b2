//! A two-level-u64 occupancy bitmap over cluster nodes, so least-loaded
//! dispatch stays O(1) in cluster size.
//!
//! [`NodeOccupancyMap`] buckets *nodes* by integer occupancy (queued work
//! quanta). A cluster has up to thousands of nodes, so unlike a service
//! node's handful of servers, a linear scan per dispatch decision would
//! cost O(N). Each occupancy level keeps a membership bitmap (one bit per
//! node) plus a summary word (one bit per membership word), and a
//! per-level occupancy word marks which levels are non-empty. Picking the
//! least-loaded node is then three
//! constant-time bit scans instead of an O(N) linear scan, and moving a node
//! between levels is two masked stores.
//!
//! Tie-breaks are fixed at the *lowest* node index, which is exactly what a
//! naive left-to-right linear scan with a strict `<` comparison produces —
//! the property the cluster dispatch differential test pins.

/// Occupancy-bucketed node bitmap with O(1) update and min-pick.
///
/// Occupancies saturate at the construction-time `cap`: a node past `cap`
/// stays in the top bucket (and its excess is not tracked), which keeps the
/// structure dense. Pick `cap` comfortably above the per-interval dispatch
/// quota so saturation only occurs under extreme overload, where "which
/// overloaded node" no longer matters.
///
/// # Example
///
/// ```
/// use hipster_sim::NodeOccupancyMap;
///
/// let mut map = NodeOccupancyMap::new(256, 16);
/// map.set(7, 3);
/// map.inc(7);
/// assert_eq!(map.occupancy(7), 4);
/// assert_eq!(map.min_node(), Some(0)); // nodes 0..256 except 7 are empty
/// map.set(7, 0);
/// assert_eq!(map.total(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct NodeOccupancyMap {
    nodes: usize,
    cap: u32,
    /// Clamped occupancy per node.
    occ: Vec<u32>,
    /// One membership level per occupancy value `0..=cap`.
    levels: Vec<Level>,
    /// Bit `c` set when level `c` is non-empty; `(cap + 1).div_ceil(64)`
    /// words (one or two for realistic caps).
    level_occ: Vec<u64>,
    /// Sum of clamped occupancies.
    sum: u64,
}

/// Membership bitmap for one occupancy level.
#[derive(Debug, Clone)]
struct Level {
    /// Bit `n % 64` of word `n / 64` set when node `n` sits at this level.
    words: Vec<u64>,
    /// Bit `w % 64` of word `w / 64` set when `words[w] != 0`.
    summary: Vec<u64>,
}

impl NodeOccupancyMap {
    /// Creates a map of `nodes` nodes, all at occupancy 0, clamping at
    /// `cap`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize, cap: u32) -> Self {
        assert!(nodes > 0, "a cluster tier needs at least one node");
        let n_words = nodes.div_ceil(64);
        let s_words = n_words.div_ceil(64);
        let empty = Level {
            words: vec![0; n_words],
            summary: vec![0; s_words],
        };
        let mut zero = empty.clone();
        for (i, w) in zero.words.iter_mut().enumerate() {
            let remaining = nodes - i * 64;
            *w = if remaining >= 64 {
                u64::MAX
            } else {
                (1u64 << remaining) - 1
            };
            zero.summary[i / 64] |= 1 << (i % 64);
        }
        let mut levels = vec![empty; cap as usize + 1];
        levels[0] = zero;
        let mut level_occ = vec![0u64; (cap as usize + 1).div_ceil(64)];
        level_occ[0] = 1;
        NodeOccupancyMap {
            nodes,
            cap,
            occ: vec![0; nodes],
            levels,
            level_occ,
            sum: 0,
        }
    }

    /// Number of nodes tracked.
    pub fn len(&self) -> usize {
        self.nodes
    }

    /// Always `false`: the constructor rejects empty maps.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The saturation cap occupancies clamp to.
    pub fn cap(&self) -> u32 {
        self.cap
    }

    /// The node's clamped occupancy.
    pub fn occupancy(&self, node: usize) -> u32 {
        self.occ[node]
    }

    /// Sum of all clamped occupancies.
    pub fn total(&self) -> u64 {
        self.sum
    }

    /// Sets `node` to occupancy `value` (clamped to the cap). O(1).
    pub fn set(&mut self, node: usize, value: u32) {
        let value = value.min(self.cap);
        let old = self.occ[node];
        if old == value {
            return;
        }
        self.remove(node, old);
        self.insert(node, value);
        self.occ[node] = value;
        self.sum = self.sum - u64::from(old) + u64::from(value);
    }

    /// Adds one unit of occupancy to `node` (saturating at the cap). O(1).
    pub fn inc(&mut self, node: usize) {
        self.set(node, self.occ[node].saturating_add(1));
    }

    /// Resets every node to occupancy 0.
    pub fn clear(&mut self) {
        *self = NodeOccupancyMap::new(self.nodes, self.cap);
    }

    /// The node with the lowest occupancy, ties broken toward the lowest
    /// node index (the linear-scan order). Three bit scans, O(1) in node
    /// count.
    pub fn min_node(&self) -> Option<usize> {
        let (lw, &word) = self.level_occ.iter().enumerate().find(|(_, w)| **w != 0)?;
        let level = lw * 64 + word.trailing_zeros() as usize;
        let lvl = &self.levels[level];
        let (sw, &sword) = lvl
            .summary
            .iter()
            .enumerate()
            .find(|(_, w)| **w != 0)
            .expect("non-empty level has a summary bit");
        let w = sw * 64 + sword.trailing_zeros() as usize;
        Some(w * 64 + lvl.words[w].trailing_zeros() as usize)
    }

    fn remove(&mut self, node: usize, level: u32) {
        let lvl = &mut self.levels[level as usize];
        let w = node / 64;
        lvl.words[w] &= !(1u64 << (node % 64));
        if lvl.words[w] == 0 {
            lvl.summary[w / 64] &= !(1u64 << (w % 64));
            if lvl.summary.iter().all(|&s| s == 0) {
                self.level_occ[level as usize / 64] &= !(1u64 << (level % 64));
            }
        }
    }

    fn insert(&mut self, node: usize, level: u32) {
        let lvl = &mut self.levels[level as usize];
        let w = node / 64;
        lvl.words[w] |= 1u64 << (node % 64);
        lvl.summary[w / 64] |= 1u64 << (w % 64);
        self.level_occ[level as usize / 64] |= 1u64 << (level % 64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// Oracle: naive left-to-right scan with strict `<`.
    fn scan_min(occ: &[u32]) -> usize {
        let mut best = 0;
        for (i, &o) in occ.iter().enumerate() {
            if o < occ[best] {
                best = i;
            }
        }
        best
    }

    #[test]
    fn fresh_map_picks_node_zero() {
        let map = NodeOccupancyMap::new(100, 8);
        assert_eq!(map.min_node(), Some(0));
        assert_eq!(map.total(), 0);
        assert_eq!(map.len(), 100);
    }

    #[test]
    fn min_matches_linear_scan_under_random_churn() {
        let mut rng = SimRng::seed(42);
        for &n in &[1usize, 63, 64, 65, 200, 1024] {
            let cap = 17;
            let mut map = NodeOccupancyMap::new(n, cap);
            let mut oracle = vec![0u32; n];
            for _ in 0..2000 {
                let node = rng.index(n);
                let v = rng.index(cap as usize + 4) as u32; // exercises clamping
                if rng.chance(0.3) {
                    map.inc(node);
                    oracle[node] = (oracle[node] + 1).min(cap);
                } else {
                    map.set(node, v);
                    oracle[node] = v.min(cap);
                }
                assert_eq!(map.min_node(), Some(scan_min(&oracle)), "n={n}");
                assert_eq!(
                    map.total(),
                    oracle.iter().map(|&o| u64::from(o)).sum::<u64>()
                );
            }
            for (i, &o) in oracle.iter().enumerate() {
                assert_eq!(map.occupancy(i), o);
            }
        }
    }

    #[test]
    fn ties_break_to_lowest_index() {
        let mut map = NodeOccupancyMap::new(130, 8);
        for i in 0..130 {
            map.set(i, 3);
        }
        map.set(70, 1);
        map.set(129, 1);
        assert_eq!(map.min_node(), Some(70));
        map.set(5, 1);
        assert_eq!(map.min_node(), Some(5));
    }

    #[test]
    fn clear_resets_to_fresh() {
        let mut map = NodeOccupancyMap::new(70, 4);
        for i in 0..70 {
            map.set(i, 4);
        }
        map.clear();
        assert_eq!(map.min_node(), Some(0));
        assert_eq!(map.total(), 0);
        assert_eq!(map.occupancy(69), 0);
    }
}
