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
//! is a calendar queue (`TimerCalendar`): clients are
//! indistinguishable, so each entry is a bare `u64` time key. At 4096
//! thinking clients a binary heap's pop walks ~12 cache-hostile levels per
//! event, while the calendar's time buckets make push and pop-min O(1)
//! amortized — think expiries are `now + Exp(think)` draws, spread over a
//! few mean think times, exactly the regime the queue's width tracks.
//! `retire_latest` stays one O(n) selection per interval boundary.
//!
//! Clients are indistinguishable — the pool is a multiset of expiry times
//! ordered by [`f64::total_cmp`] — so the calendar pool reproduces the
//! scan pool bit-identically: ties between equal expiries remove *a*
//! client with that expiry either way, and the surviving multiset (all
//! future behaviour depends only on it) is the same (differential
//! battery: `tests/calendar_equivalence.rs`).

use crate::calendar::TimerCalendar;

/// Calendar-queue pool of closed-loop client think-timer expiry times
/// (seconds, absolute simulation time): O(1) amortized push/pop-min, O(1)
/// peek, and one selection pass (not k max-scans) to retire the k latest
/// clients. The pool is a multiset — clients are indistinguishable — so it
/// reproduces the scan pool bit-identically.
#[derive(Debug, Clone, Default)]
pub struct ThinkPool {
    queue: TimerCalendar,
    /// Reused selection buffer for [`ThinkPool::retire_latest`].
    scratch: Vec<f64>,
}

impl ThinkPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of clients currently thinking.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no client is thinking.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Adds a client whose think timer expires at `expiry` (O(1)
    /// amortized).
    pub fn push(&mut self, expiry: f64) {
        self.queue.push(expiry);
    }

    /// Earliest think expiry (O(1)).
    pub fn peek_min(&self) -> Option<f64> {
        self.queue.peek_min_time()
    }

    /// Removes and returns the earliest expiry (O(1) amortized).
    pub fn pop_min(&mut self) -> Option<f64> {
        self.queue.pop_if_le(f64::INFINITY)
    }

    /// Retires the `k` clients that would submit last (the largest
    /// expiries). One O(n) selection pass — not k max-scans.
    pub fn retire_latest(&mut self, k: usize) {
        if k == 0 {
            return;
        }
        if k >= self.queue.len() {
            self.queue.clear();
            return;
        }
        let mut v = std::mem::take(&mut self.scratch);
        self.queue.drain_times(&mut v);
        // Partition the k largest expiries to the tail and drop them (the
        // pivot at `keep` is the smallest of the k), then rebuild the
        // calendar from the survivors (O(n)).
        let keep = v.len() - k;
        v.select_nth_unstable_by(keep, |a, b| a.total_cmp(b));
        v.truncate(keep);
        self.queue.rebuild_from_times(&mut v);
        self.scratch = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
