//! Calendar queue of closed-loop think timers: the O(1)-amortized
//! time-bucket priority queue behind [`ThinkPool`](crate::ThinkPool).
//!
//! A calendar queue spreads pending events over a ring of time buckets,
//! each `width` seconds wide, the way a desk calendar spreads
//! appointments over days: enqueue drops an event into the bucket its
//! time falls in (one multiply + mask), and dequeue walks the ring from
//! the current "day", taking the earliest event of the first day that has
//! one. Events more than a whole rotation ahead alias into the same
//! physical buckets (day 3 of *next year* shares a page with day 3 of
//! this year) and are filtered by comparing their virtual day, so
//! far-future events cost nothing until the cursor actually reaches them.
//!
//! The calendar backs think timers only. A closed-loop node keeps
//! thousands of clients thinking, which is the population this structure
//! pays off at; the service node's own completions number at most one per
//! server and live in its flat server array
//! ([`ServiceNode`](crate::ServiceNode)).
//!
//! Four structural choices keep the constant factor below a binary heap's
//! (whose pops walk ~12 cache-hostile levels at 4096 thinking clients):
//!
//! * **Buckets are fixed slots in one flat slab**, [`CAP`] `u64` keys per
//!   bucket plus a byte of occupancy — a bucket is exactly one cache line
//!   — so touching a bucket is one indexed access, not a `Vec`-header
//!   chase to a second random line. The rare bucket that overflows its
//!   slots (bursty clumping, tie storms) spills into a per-bucket overflow
//!   `Vec` consulted only when the slot count is at capacity.
//! * **The current day is a sorted stack.** When the cursor reaches a
//!   day, its events move into the `today` stack, sorted descending, so
//!   every pop inside the day is a `Vec::pop` off the back — one
//!   predictable cache line, no re-scan. Day activation sorts a handful
//!   of entries and is paid once per day, amortized O(1) per event.
//! * **An occupancy bitmap skips empty days word-wise.** Advancing the
//!   cursor consults one bit per day instead of touching each bucket.
//! * **Day-membership is decided per bucket, not per entry.** The key
//!   order is monotone in the day mapping, so one look at a bucket's
//!   smallest entry rejects a whole future-rotation bucket, and one look
//!   at its largest accepts the whole bucket as current-day (the common,
//!   non-aliased case — entries then move to `today` with a bulk copy);
//!   only a bucket actually straddling rotations pays a per-entry split.
//!
//! The structure self-tunes: when the population outgrows or shrinks far
//! below the ring size, the queue resizes and re-measures the live span
//! (see `rebuild`), so it tracks the mean think time of whatever regime
//! the simulation is in — including the bursty MMPP-style clustering that
//! concentrates events in a few buckets between resizes.
//!
//! # Exact pop order
//!
//! Entries are event times mapped through the order-preserving
//! [`f64::total_cmp`] bit trick ([`key_of`]), and the queue always pops
//! the *global minimum* entry: `today` is sorted by key, days are visited
//! in time order, and a day's membership check is monotone in the key.
//! The pool therefore pops exactly the sequence of the linear-scan oracle
//! [`ReferenceThinkPool`](crate::reference::ReferenceThinkPool)
//! (differential battery: `tests/calendar_equivalence.rs`), including
//! tie storms, far-future aliasing and `total_cmp` extremes.

/// Maps an event time to a `u64` whose unsigned order equals
/// [`f64::total_cmp`] order. Exact for every float (including negatives,
/// zeros and NaNs), so equivalence holds under arbitrary test inputs.
#[inline]
fn key_of(finish: f64) -> u64 {
    let b = finish.to_bits();
    b ^ ((((b as i64) >> 63) as u64) >> 1) ^ (1u64 << 63)
}

/// Inverse of [`key_of`] (bit-exact round trip). Branchless: the xor
/// mask is `1 << 63` when the top bit is set (positive floats) and all
/// ones otherwise (negative floats, stored complemented).
#[inline]
fn finish_of(key: u64) -> f64 {
    f64::from_bits(key ^ !((((key as i64) >> 63) as u64) >> 1))
}

/// Inline slab slots per bucket (one 64-byte cache line of `u64` keys);
/// beyond this a bucket spills into its overflow `Vec`.
const CAP: usize = 8;

/// Smallest ring size; below this the ring is a couple of cache lines and
/// shrinking further saves nothing.
const MIN_BUCKETS: usize = 4;

/// The rotating time-bucket core of [`TimerCalendar`]: a multiset of
/// order-preserving `u64` time keys (see [`key_of`]).
#[derive(Debug, Clone)]
struct Ring {
    /// Flat bucket slab: bucket `b` owns `slab[b*CAP .. b*CAP+lens[b]]`,
    /// unsorted *future* events (the current day's live in `today`).
    /// `lens.len()` — the ring size — is a power of two.
    slab: Vec<u64>,
    /// Per-bucket slot occupancy ([`CAP`] fits in a byte).
    lens: Vec<u8>,
    /// Per-bucket overflow beyond the `CAP` slab slots. Invariant:
    /// non-empty only while `lens[b] == CAP`, so the common path never
    /// touches these `Vec` headers.
    over: Vec<Vec<u64>>,
    /// Occupancy bitmap: bit `b` set iff bucket `b` holds any entry.
    occupied: Vec<u64>,
    /// The current day's events, sorted descending — the global minimum is
    /// `today.last()`. Invariant: non-empty whenever `len > 0` (every
    /// mutation re-primes), so peek is branch + load.
    today: Vec<u64>,
    /// `lens.len() - 1`, for mapping virtual days to ring slots.
    mask: u64,
    /// Bucket ("day") width in seconds.
    width: f64,
    /// `1.0 / width`, the hot-path factor of `virtual_day`.
    inv_width: f64,
    /// Virtual (unwrapped) day index `today` covers. Invariant: no stored
    /// event has a smaller virtual day — pushes into the past pull the
    /// cursor back — so `today` always holds the global minimum.
    cursor: u64,
    len: usize,
    /// Reused entry buffer for resizes (no steady-state allocation).
    scratch: Vec<u64>,
    /// Reused buffer for rotation-straddling bucket splits.
    tmp: Vec<u64>,
}

impl Ring {
    fn new() -> Self {
        Ring {
            slab: vec![0; MIN_BUCKETS * CAP],
            lens: vec![0; MIN_BUCKETS],
            over: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: vec![0; 1],
            today: Vec::new(),
            mask: (MIN_BUCKETS - 1) as u64,
            width: 1.0,
            inv_width: 1.0,
            cursor: 0,
            len: 0,
            scratch: Vec::new(),
            tmp: Vec::new(),
        }
    }

    /// The virtual day an event time falls in: `floor(t / width)`,
    /// saturated at both ends so every float (±∞, NaN, negatives) lands on
    /// a day and the mapping stays monotone in [`f64::total_cmp`] order —
    /// the property the day-membership check relies on. One multiply and
    /// a saturating cast (`as` floors non-negative floats and clamps both
    /// ends); only NaN inputs take the branch.
    #[inline]
    fn virtual_day(&self, t: f64) -> u64 {
        let v = t * self.inv_width;
        if v.is_nan() {
            // total_cmp ranks -NaN below -∞ and +NaN above +∞.
            // (inv_width is finite positive, so v is NaN iff t is.)
            if t.is_sign_negative() {
                0
            } else {
                u64::MAX
            }
        } else {
            v as u64
        }
    }

    #[inline]
    fn mark_occupied(&mut self, b: usize) {
        self.occupied[b >> 6] |= 1u64 << (b & 63);
    }

    #[inline]
    fn unmark(&mut self, b: usize) {
        self.occupied[b >> 6] &= !(1u64 << (b & 63));
    }

    /// Appends an entry to bucket `b`: a slab slot while one is free, the
    /// overflow `Vec` past that.
    #[inline]
    fn bucket_insert(&mut self, b: usize, e: u64) {
        let l = self.lens[b] as usize;
        if l < CAP {
            self.slab[b * CAP + l] = e;
            self.lens[b] = (l + 1) as u8;
        } else {
            self.over[b].push(e);
        }
        self.mark_occupied(b);
    }

    /// Inserts an entry whose event time is `t`. O(1): a slab append in
    /// its day's bucket — or, for an event landing on the current day, a
    /// sorted insert into the (tiny) `today` stack, which keeps the
    /// cached minimum warm for free.
    #[inline]
    fn push(&mut self, e: u64, t: f64) {
        let day = self.virtual_day(t);
        self.len += 1;
        if day == self.cursor && (self.len > 1 || !self.today.is_empty()) {
            // Descending order: find the first position whose entry is
            // strictly smaller and insert before it. `today` is a handful
            // of entries, and most pushes target future days, so the
            // memmove is rare and tiny.
            let pos = self.today.partition_point(|&x| x >= e);
            self.today.insert(pos, e);
        } else if day < self.cursor || self.today.is_empty() {
            // Push into the past (or first event of an empty queue): park
            // today's events back in their bucket and re-prime from the
            // new minimum day.
            self.spill_today();
            self.bucket_insert((day & self.mask) as usize, e);
            self.cursor = day;
            self.prime();
        } else {
            self.bucket_insert((day & self.mask) as usize, e);
        }
        if self.len > 8 * self.lens.len() {
            self.rebuild(); // over-populated: grow the ring
        }
    }

    /// Removes and returns the minimum entry. Callers peek first
    /// (`today.last()`); this commits the pop. O(1) amortized: a
    /// `Vec::pop` off the sorted stack, plus a day-advance walk when the
    /// day runs dry.
    #[inline]
    fn pop_min(&mut self) -> u64 {
        let e = self.today.pop().expect("pop_min on empty ring");
        self.len -= 1;
        if self.lens.len() > MIN_BUCKETS && self.len < self.lens.len() {
            self.rebuild(); // under-populated: shrink the ring
        } else if self.today.is_empty() {
            self.prime();
        }
        e
    }

    /// Moves `today`'s events back into their home bucket (cursor is about
    /// to jump somewhere else).
    fn spill_today(&mut self) {
        if self.today.is_empty() {
            return;
        }
        let b = (self.cursor & self.mask) as usize;
        while let Some(e) = self.today.pop() {
            self.bucket_insert(b, e);
        }
    }

    /// Advances the cursor to the next day holding events and activates it
    /// into `today` (sorted descending). Walks occupied days via the
    /// bitmap — empty days cost a bit test, not a bucket access — and
    /// decides whole buckets with one membership check on their smallest
    /// entry (monotone key → if the minimum is a future rotation, all
    /// are). If a whole rotation finds nothing in-window — every live
    /// event is ≥ one full rotation ahead, or aliased past saturation —
    /// falls back to a direct scan for the global minimum day. No-op when
    /// the queue is empty. O(1) amortized against the pops that empty
    /// each day.
    fn prime(&mut self) {
        debug_assert!(self.today.is_empty());
        if self.len == 0 {
            return;
        }
        let start = self.cursor;
        let nbuckets = self.lens.len();
        let words = self.occupied.len();
        let start_pos = (start & self.mask) as usize;
        // Walk the bitmap one full rotation starting at start_pos: the
        // first word masked below the start bit, then whole words, then
        // the start word's low bits after wrapping.
        let mut wi = start_pos >> 6;
        let mut w = self.occupied[wi] & (!0u64 << (start_pos & 63));
        let mut wraps = 0usize;
        loop {
            while w != 0 {
                let p = (wi << 6) | w.trailing_zeros() as usize;
                if wraps == words && p >= start_pos {
                    break; // completed the rotation
                }
                // The unique in-window day for ring position p.
                let day = start.wrapping_add((p as u64).wrapping_sub(start) & self.mask);
                if self.activate(p, day) {
                    self.cursor = day;
                    return;
                }
                w &= w - 1;
            }
            wraps += 1;
            if wraps > words {
                break;
            }
            wi += 1;
            if wi == words {
                wi = 0;
            }
            w = self.occupied[wi];
            if wraps == words {
                // Back at the start word: only positions before start_pos
                // are still unvisited.
                if start_pos & 63 == 0 {
                    break;
                }
                w &= !(!0u64 << (start_pos & 63));
                if wi != start_pos >> 6 {
                    break;
                }
            }
        }
        // Empty rotation: direct search for the global minimum entry (rare
        // — the resize policy keeps the live span within one rotation;
        // this is the multi-rotation and saturated-day fallback).
        let mut best: Option<(u64, usize)> = None;
        for b in 0..nbuckets {
            if self.occupied[b >> 6] & (1u64 << (b & 63)) == 0 {
                continue;
            }
            let l = self.lens[b] as usize;
            let mut m = self.slab[b * CAP];
            for &e in &self.slab[b * CAP + 1..b * CAP + l] {
                m = m.min(e);
            }
            if l == CAP {
                for &e in &self.over[b] {
                    m = m.min(e);
                }
            }
            if best.is_none_or(|(e, _)| m < e) {
                best = Some((m, b));
            }
        }
        let (e, b) = best.expect("non-empty queue has a minimum");
        let day = self.virtual_day(finish_of(e));
        let took = self.activate(b, day);
        debug_assert!(took, "minimum entry must activate its own day");
        self.cursor = day;
    }

    /// Moves the entries of physical bucket `p` that belong to virtual
    /// `day` into `today` (sorted descending), returning whether any did.
    /// One min/max scan decides whole buckets: a future-rotation minimum
    /// rejects the bucket with no moves, a current-day maximum accepts it
    /// with one bulk copy (the common case — the resize policy keeps one
    /// rotation covering the live span, so buckets rarely straddle
    /// rotations). Only a straddling bucket pays a per-entry split.
    fn activate(&mut self, p: usize, day: u64) -> bool {
        let l = self.lens[p] as usize;
        debug_assert!(l > 0, "activate on a bucket the bitmap said is occupied");
        let base = p * CAP;
        let slots = &self.slab[base..base + l];
        let (mut min, mut max) = (slots[0], slots[0]);
        for &e in &slots[1..] {
            min = min.min(e);
            max = max.max(e);
        }
        let has_over = l == CAP && !self.over[p].is_empty();
        if has_over {
            for &e in &self.over[p] {
                min = min.min(e);
                max = max.max(e);
            }
        }
        if self.virtual_day(finish_of(min)) != day {
            return false; // whole bucket is ≥ one rotation ahead
        }
        if self.virtual_day(finish_of(max)) == day {
            // Whole bucket belongs to this day: bulk move, sort once.
            self.today.extend_from_slice(&self.slab[base..base + l]);
            if has_over {
                self.today.append(&mut self.over[p]);
            }
            self.lens[p] = 0;
            self.unmark(p);
        } else {
            // Rotation-straddling bucket: split out this day's entries.
            let mut tmp = std::mem::take(&mut self.tmp);
            tmp.clear();
            tmp.extend_from_slice(&self.slab[base..base + l]);
            tmp.append(&mut self.over[p]);
            self.lens[p] = 0;
            for e in tmp.drain(..) {
                if self.virtual_day(finish_of(e)) == day {
                    self.today.push(e);
                } else {
                    self.bucket_insert(p, e);
                }
            }
            self.tmp = tmp;
            debug_assert!(!self.today.is_empty(), "the minimum is a member");
        }
        // Descending: pops take the minimum off the back.
        self.today.sort_unstable_by(|a, b| b.cmp(a));
        true
    }

    /// Resizes the ring to the live population and re-measures the bucket
    /// width, re-placing every entry. O(n + buckets), amortized against
    /// the pushes / pops that triggered it.
    ///
    /// Resize policy: the ring grows when the population exceeds 8× the
    /// bucket count and shrinks when it falls below 1× (hysteresis — no
    /// thrash at a boundary), targeting population/4 rounded up to a power
    /// of two — about four events per bucket, still under the `CAP` slab
    /// slots, so overflow stays the exception and the per-day activation
    /// amortizes over a few pops. The width targets
    /// `span / (0.75 × buckets)` where `span` is the live min-to-max event
    /// spread, with one rotation covering the whole span so the in-window
    /// walk, not the direct-search fallback, is the steady-state path.
    fn rebuild(&mut self) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.append(&mut self.today);
        for b in 0..self.lens.len() {
            let base = b * CAP;
            scratch.extend_from_slice(&self.slab[base..base + self.lens[b] as usize]);
        }
        for o in &mut self.over {
            scratch.append(o);
        }
        self.place_all(&scratch);
        self.scratch = scratch;
    }

    /// Sizes the ring + width for `entries` and installs them (the shared
    /// tail of `rebuild` and the drain-transform-rebuild reconfiguration
    /// path).
    fn place_all(&mut self, entries: &[u64]) {
        self.len = entries.len();
        let target = (self.len.max(1).div_ceil(4))
            .next_power_of_two()
            .max(MIN_BUCKETS);
        // `resize` keeps existing capacity on shrink, so the slab and the
        // side tables churn no allocations once they've seen a population
        // high-water mark. Stale slab contents beyond `lens` are dead.
        self.slab.resize(target * CAP, 0);
        self.lens.clear();
        self.lens.resize(target, 0);
        if self.over.len() > target {
            self.over.truncate(target);
        } else {
            self.over.resize_with(target, Vec::new);
        }
        for o in &mut self.over {
            o.clear();
        }
        self.occupied.clear();
        self.occupied.resize(target.div_ceil(64), 0);
        self.today.clear();
        self.mask = (target - 1) as u64;
        // Span of the *finite* event times; non-finite outliers would blow
        // the width up to ∞ (every event on day 0, a permanently
        // degenerate calendar), so they ride the saturation path instead.
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &e in entries {
            let t = finish_of(e);
            if t.is_finite() {
                lo = lo.min(t);
                hi = hi.max(t);
            }
        }
        let span = hi - lo;
        if span > 0.0 && span.is_finite() {
            self.width = (span / (0.75 * target as f64)).max(f64::MIN_POSITIVE);
            self.inv_width = 1.0 / self.width;
        }
        // (span ≤ 0 or non-finite: zero/one live time — any width works,
        // keep the current one.)
        self.cursor = u64::MAX;
        for &e in entries {
            let day = self.virtual_day(finish_of(e));
            self.bucket_insert((day & self.mask) as usize, e);
            self.cursor = self.cursor.min(day);
        }
        if self.len == 0 {
            self.cursor = 0;
        } else {
            self.prime();
        }
    }

    /// Removes all events, keeping the ring allocation.
    fn clear(&mut self) {
        self.today.clear();
        self.lens.iter_mut().for_each(|l| *l = 0);
        for o in &mut self.over {
            o.clear();
        }
        self.occupied.iter_mut().for_each(|w| *w = 0);
        self.len = 0;
    }

    /// All stored entries, in unspecified order.
    fn entries(&self) -> impl Iterator<Item = u64> + '_ {
        self.today
            .iter()
            .copied()
            .chain(self.lens.iter().enumerate().flat_map(move |(b, &l)| {
                let base = b * CAP;
                self.slab[base..base + l as usize]
                    .iter()
                    .chain(self.over[b].iter())
                    .copied()
            }))
    }
}

/// The think-timer calendar: a multiset of event *times* stored as
/// order-preserving `u64` keys, with O(1) amortized push/pop and an
/// always-warm minimum (O(1) peek: the back of the sorted current-day
/// stack).
#[derive(Debug, Clone)]
pub(crate) struct TimerCalendar {
    ring: Ring,
}

impl Default for TimerCalendar {
    fn default() -> Self {
        Self::new()
    }
}

impl TimerCalendar {
    /// Creates an empty timer calendar (a minimal ring; the first resize
    /// adapts it).
    pub(crate) fn new() -> Self {
        TimerCalendar { ring: Ring::new() }
    }

    /// Number of stored timers.
    pub(crate) fn len(&self) -> usize {
        self.ring.len
    }

    /// Whether no timer is stored.
    pub(crate) fn is_empty(&self) -> bool {
        self.ring.len == 0
    }

    /// Inserts a timer expiring at `t` (O(1) amortized).
    #[inline]
    pub(crate) fn push(&mut self, t: f64) {
        self.ring.push(key_of(t), t);
    }

    /// Earliest expiry, if any (O(1)).
    #[inline]
    pub(crate) fn peek_min_time(&self) -> Option<f64> {
        self.ring.today.last().map(|&k| finish_of(k))
    }

    /// Pops the earliest expiry if it is ≤ `to` (under `f64` `>`
    /// semantics: a NaN minimum never compares later). O(1) amortized.
    #[inline]
    pub(crate) fn pop_if_le(&mut self, to: f64) -> Option<f64> {
        let &k = self.ring.today.last()?;
        let t = finish_of(k);
        if t > to {
            return None;
        }
        self.ring.pop_min();
        Some(t)
    }

    /// Moves every stored time into `out` (unspecified order) and empties
    /// the calendar, in O(n), keeping the ring allocation.
    pub(crate) fn drain_times(&mut self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.ring.entries().map(finish_of));
        self.ring.clear();
    }

    /// Rebuilds the calendar from `times` in O(n), sizing the ring and
    /// width to them. `times` is left cleared for reuse.
    pub(crate) fn rebuild_from_times(&mut self, times: &mut Vec<f64>) {
        let mut keys = std::mem::take(&mut self.ring.scratch);
        keys.clear();
        keys.extend(times.iter().map(|&t| key_of(t)));
        times.clear();
        self.ring.place_all(&keys);
        self.ring.scratch = keys;
    }

    /// Removes all timers, keeping the ring allocation.
    pub(crate) fn clear(&mut self) {
        self.ring.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(q: &mut TimerCalendar) -> Vec<f64> {
        let mut out = Vec::new();
        while let Some(t) = q.pop_if_le(f64::INFINITY) {
            out.push(t);
        }
        out
    }

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
            assert_eq!(finish_of(key_of(x)).to_bits(), x.to_bits(), "{x}");
        }
        for w in xs.windows(2) {
            assert!(key_of(w[0]) < key_of(w[1]), "{} !< {}", w[0], w[1]);
        }
    }

    #[test]
    fn pop_if_le_respects_bound() {
        let mut q = TimerCalendar::new();
        q.push(1.0);
        q.push(3.0);
        assert_eq!(q.pop_if_le(0.5), None);
        assert_eq!(q.pop_if_le(1.0), Some(1.0));
        assert_eq!(q.pop_if_le(2.0), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_min_time(), Some(3.0));
    }

    /// Day-boundary wraparound: with a fresh calendar (4 buckets, width
    /// 1 s) the times k, k+4, k+8 all alias into the same physical bucket
    /// — consecutive rotations of the ring — and must still pop in time
    /// order, crossing the u64 "day" as the cursor advances.
    #[test]
    fn wraparound_at_day_boundaries() {
        let mut q = TimerCalendar::new();
        assert_eq!(q.ring.lens.len(), 4);
        // Same slot (day % 4 == 1) across three rotations, pushed shuffled.
        q.push(9.5); // day 9
        q.push(1.5); // day 1
        q.push(5.5); // day 5
        assert_eq!(q.peek_min_time(), Some(1.5));
        assert_eq!(
            drain_all(&mut q),
            vec![1.5, 5.5, 9.5],
            "rotation aliasing must not reorder pops"
        );
    }

    /// Empty-rotation skip: every live event sits far beyond one rotation
    /// of the cursor, so the in-window walk finds nothing and the direct
    /// search must jump the cursor straight to the population.
    #[test]
    fn empty_rotation_skips_to_far_future() {
        let mut q = TimerCalendar::new();
        q.push(0.25);
        q.push(1e9); // ~2^30 rotations ahead of day 0
        q.push(1e9 + 0.5);
        assert_eq!(q.pop_if_le(f64::INFINITY), Some(0.25));
        // The cursor was on day 0; the survivors are a billion days out.
        assert_eq!(q.peek_min_time(), Some(1e9));
        assert_eq!(drain_all(&mut q), vec![1e9, 1e9 + 0.5]);
    }

    /// Over-population grows the ring; draining it back down shrinks it.
    #[test]
    fn resize_up_and_down_thresholds() {
        let mut q = TimerCalendar::new();
        let start = q.ring.lens.len();
        for i in 0..64 {
            q.push(i as f64 * 0.1);
        }
        let grown = q.ring.lens.len();
        assert!(
            grown >= 16 && grown > start,
            "64 events must outgrow the {start}-bucket ring: {grown}"
        );
        assert!(
            q.ring.width < 1.0,
            "width must re-measure to the observed spacing: {}",
            q.ring.width
        );
        let mut popped = Vec::new();
        while q.len() > 2 {
            popped.push(q.pop_if_le(f64::INFINITY).expect("non-empty"));
        }
        assert!(
            q.ring.lens.len() < grown,
            "draining to 2 events must shrink the ring: {}",
            q.ring.lens.len()
        );
        for w in popped.windows(2) {
            assert!(w[0] < w[1], "resizes must preserve pop order");
        }
    }

    /// The population-shrink path: drain, rescale every time, rebuild —
    /// pops must follow the *new* times.
    #[test]
    fn reenqueue_after_rescale_rebuild() {
        let mut q = TimerCalendar::new();
        for i in 0..20 {
            q.push(1.0 + i as f64);
        }
        let mut times = Vec::new();
        q.drain_times(&mut times);
        assert!(q.is_empty());
        // Compress the span (the width must follow suit).
        for t in &mut times {
            *t *= 0.5;
        }
        q.rebuild_from_times(&mut times);
        assert!(times.is_empty());
        assert_eq!(q.len(), 20);
        let want: Vec<f64> = (0..20).map(|i| (1.0 + i as f64) * 0.5).collect();
        assert_eq!(drain_all(&mut q), want);
    }

    /// Degenerate storm: every event at the *same* time — span 0, all in
    /// one bucket regardless of ring size, far past the slab slots and
    /// deep into the overflow `Vec` — without resizing into pathology.
    #[test]
    fn all_events_in_one_bucket_degenerates_gracefully() {
        let mut q = TimerCalendar::new();
        for _ in 0..50 {
            q.push(7.25);
        }
        assert_eq!(drain_all(&mut q), vec![7.25; 50], "tie storm pops all");
    }

    /// Non-finite and negative times follow `total_cmp` order end to end.
    #[test]
    fn total_cmp_extremes_pop_in_key_order() {
        let mut q = TimerCalendar::new();
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
            q.push(t);
        }
        let mut want = times;
        want.reverse();
        assert_eq!(
            bits(&drain_all(&mut q)),
            bits(&want),
            "reverse of push order"
        );
    }

    /// Pushes landing on the *current* day (below and above the cached
    /// minimum) must keep the sorted stack exact — the path a plain
    /// bucket-append design would get wrong.
    #[test]
    fn pushes_into_current_day_stay_sorted() {
        let mut q = TimerCalendar::new();
        q.push(0.50);
        q.push(0.90); // same day (width 1.0): sorted insert above
        q.push(0.10); // same day: new minimum
        q.push(0.70);
        assert_eq!(q.peek_min_time(), Some(0.10));
        assert_eq!(drain_all(&mut q), vec![0.10, 0.50, 0.70, 0.90]);
    }

    /// A bucket that overflows its slab slots (more than `CAP` distinct
    /// times on one day) must keep all entries visible to pops, drains
    /// and rebuilds.
    #[test]
    fn overflowed_bucket_keeps_every_entry() {
        let mut q = TimerCalendar::new();
        // 20 distinct times inside one width-1.0 day of the fresh ring,
        // pushed in reverse: the bucket runs through its 8 slab slots and
        // deep into overflow before the growth rebuild spreads it out.
        for i in (0..20).rev() {
            q.push(3.0 + i as f64 / 32.0);
        }
        assert_eq!(q.len(), 20);
        assert_eq!(q.peek_min_time(), Some(3.0));
        let want: Vec<f64> = (0..20).map(|i| 3.0 + i as f64 / 32.0).collect();
        assert_eq!(
            drain_all(&mut q),
            want,
            "slab + overflow pop as one sorted day"
        );
    }

    #[test]
    fn drain_covers_everything() {
        let mut q = TimerCalendar::new();
        for i in 0..17 {
            q.push(i as f64 * 3.7);
        }
        let mut out = Vec::new();
        q.drain_times(&mut out);
        out.sort_by(f64::total_cmp);
        let want: Vec<f64> = (0..17).map(|i| i as f64 * 3.7).collect();
        assert_eq!(out, want);
        assert!(q.is_empty());
        assert_eq!(q.peek_min_time(), None);
    }

    /// Same order, multiset semantics, and the drain → transform →
    /// rebuild cycle.
    #[test]
    fn timer_calendar_orders_and_rebuilds() {
        let mut q = TimerCalendar::new();
        for t in [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.6] {
            q.push(t);
        }
        assert_eq!(q.len(), 7);
        assert_eq!(q.peek_min_time(), Some(1.0));
        assert_eq!(q.pop_if_le(0.5), None);
        assert_eq!(q.pop_if_le(1.0), Some(1.0));
        let mut times = Vec::new();
        q.drain_times(&mut times);
        assert!(q.is_empty());
        assert_eq!(times.len(), 6);
        for t in &mut times {
            *t *= 0.5;
        }
        q.rebuild_from_times(&mut times);
        assert!(times.is_empty());
        assert_eq!(drain_all(&mut q), vec![0.5, 1.3, 1.5, 2.0, 2.5, 4.5]);
    }
}
