//! Closed-loop client thinking pool.
//!
//! A closed-loop load generator keeps a population of emulated clients in a
//! submit → wait → think cycle. Between a response and the next request each
//! client "thinks"; the pool holds the absolute expiry times of all clients
//! currently thinking. The engine needs three operations per event or
//! interval boundary:
//!
//! * `peek_min` / `pop_min` — who submits next (every think-expiry event);
//! * `push` — a responding client starts thinking (every completion);
//! * `retire_latest(k)` — at interval boundaries, shrink the population by
//!   retiring the clients that would submit last.
//!
//! The pre-PR3 engine used a plain `Vec` with an O(n) scan for each of
//! these, kept as the oracle
//! [`ReferenceThinkPool`](crate::reference::ReferenceThinkPool). The pool
//! is a binary min-heap of bare `u64` time keys: the only closed-loop
//! preset (Web-Search) runs 96 clients, where a heap's O(log n) push and
//! pop cost a handful of levels.
//!
//! Clients are indistinguishable — the pool is a multiset of expiry times
//! ordered by [`f64::total_cmp`] — so the heap pool reproduces the scan
//! pool bit-identically: the key map is a bijection, so equal keys are
//! equal bits, and the surviving multiset (all future behaviour depends
//! only on it) is the same (differential battery:
//! `tests/think_pool_equivalence.rs`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Maps a time to a `u64` whose unsigned order equals [`f64::total_cmp`]
/// order. Exact for every float (including negatives, zeros and NaNs),
/// so equivalence holds under arbitrary test inputs.
#[inline]
fn key_of(t: f64) -> u64 {
    let b = t.to_bits();
    b ^ ((((b as i64) >> 63) as u64) >> 1) ^ (1u64 << 63)
}

/// Inverse of [`key_of`] (bit-exact round trip). Branchless: the xor
/// mask is `1 << 63` when the top bit is set (positive floats) and all
/// ones otherwise (negative floats, stored complemented).
#[inline]
fn time_of(key: u64) -> f64 {
    f64::from_bits(key ^ !((((key as i64) >> 63) as u64) >> 1))
}

/// Binary min-heap pool of closed-loop client think-timer expiry times
/// (seconds, absolute simulation time): O(log n) push/pop-min, O(1) peek,
/// and one selection pass (not k max-scans) to retire the k latest
/// clients. The pool is a multiset — clients are indistinguishable — so it
/// reproduces the scan pool bit-identically.
#[derive(Debug, Clone, Default)]
pub struct ThinkPool {
    heap: BinaryHeap<Reverse<u64>>,
}

impl ThinkPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of clients currently thinking.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no client is thinking.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Adds a client whose think timer expires at `expiry` (O(log n)).
    pub fn push(&mut self, expiry: f64) {
        self.heap.push(Reverse(key_of(expiry)));
    }

    /// Earliest think expiry (O(1)).
    pub fn peek_min(&self) -> Option<f64> {
        self.heap.peek().map(|&Reverse(k)| time_of(k))
    }

    /// Removes and returns the earliest expiry (O(log n)).
    pub fn pop_min(&mut self) -> Option<f64> {
        self.heap.pop().map(|Reverse(k)| time_of(k))
    }

    /// Retires the `k` clients that would submit last (the largest
    /// expiries). One O(n) selection pass — not k max-scans.
    pub fn retire_latest(&mut self, k: usize) {
        if k == 0 {
            return;
        }
        if k >= self.heap.len() {
            self.heap.clear();
            return;
        }
        // Under `Reverse` the k latest expiries are the k smallest
        // elements: select them to the front, drop them, and re-heapify
        // the survivors in place (O(n) overall).
        let mut v = std::mem::take(&mut self.heap).into_vec();
        v.select_nth_unstable(k - 1);
        v.drain(..k);
        self.heap = BinaryHeap::from(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn key_roundtrip_and_order() {
        let xs = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            1e-300,
            1.0,
            1e300,
            f64::INFINITY,
            f64::NAN,
        ];
        for &x in &xs {
            assert_eq!(time_of(key_of(x)).to_bits(), x.to_bits(), "{x}");
        }
        for w in xs.windows(2) {
            assert!(key_of(w[0]) < key_of(w[1]), "{} !< {}", w[0], w[1]);
        }
    }

    /// Non-finite and negative times follow `total_cmp` order end to end.
    #[test]
    fn total_cmp_extremes_pop_in_key_order() {
        let mut p = ThinkPool::new();
        let times = [
            f64::NAN,
            f64::INFINITY,
            1e300,
            0.0,
            -0.0,
            -3.5,
            f64::NEG_INFINITY,
        ];
        for &t in &times {
            p.push(t);
        }
        let mut got = Vec::new();
        while let Some(t) = p.pop_min() {
            got.push(t);
        }
        let mut want = times;
        want.reverse();
        assert_eq!(bits(&got), bits(&want), "reverse of push order");
    }

    #[test]
    fn pops_in_ascending_order() {
        let mut p = ThinkPool::new();
        for x in [3.0, 1.0, 4.0, 1.5, 9.0, 2.6] {
            p.push(x);
        }
        assert_eq!(p.len(), 6);
        assert_eq!(p.peek_min(), Some(1.0));
        let mut got = Vec::new();
        while let Some(x) = p.pop_min() {
            got.push(x);
        }
        assert_eq!(got, vec![1.0, 1.5, 2.6, 3.0, 4.0, 9.0]);
        assert!(p.is_empty());
    }

    #[test]
    fn retire_latest_removes_largest() {
        let mut p = ThinkPool::new();
        for x in [5.0, 2.0, 8.0, 1.0, 9.0, 3.0] {
            p.push(x);
        }
        p.retire_latest(2); // drops 8.0 and 9.0
        let mut got = Vec::new();
        while let Some(x) = p.pop_min() {
            got.push(x);
        }
        assert_eq!(got, vec![1.0, 2.0, 3.0, 5.0]);
    }

    #[test]
    fn retire_latest_edge_cases() {
        let mut p = ThinkPool::new();
        p.retire_latest(3); // empty pool: no-op
        assert!(p.is_empty());
        p.push(1.0);
        p.push(2.0);
        p.retire_latest(0); // k = 0: no-op
        assert_eq!(p.len(), 2);
        p.retire_latest(5); // k ≥ len: clears
        assert!(p.is_empty());
    }

    #[test]
    fn duplicate_expiries_are_a_multiset() {
        let mut p = ThinkPool::new();
        for x in [2.0, 2.0, 2.0, 1.0] {
            p.push(x);
        }
        p.retire_latest(2);
        assert_eq!(p.pop_min(), Some(1.0));
        assert_eq!(p.pop_min(), Some(2.0));
        assert_eq!(p.pop_min(), None);
    }
}
