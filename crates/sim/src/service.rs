//! The latency-critical service node: a FIFO queue feeding a set of
//! heterogeneous core-servers.
//!
//! Requests arrive into a central FIFO queue and are dispatched to the
//! fastest idle server (requests cannot span cores). Service has two
//! sequential phases — a compute phase retired at the server's
//! frequency-dependent speed and a memory phase that is
//! frequency-insensitive — and both stretch under a contention slowdown
//! while batch jobs share the machine.
//!
//! Reconfigurations preempt in-flight requests (for core-mapping changes)
//! or rescale them (for pure DVFS changes), charging the corresponding
//! stall; this is how the paper's observation that "core-transitions are
//! far more costly relative to DVFS changes" enters the model. Work that a
//! reconfiguration scheduled to start after its stall keeps waiting for
//! that stall to end, even when a later reconfiguration lands inside it.
//!
//! # Layout
//!
//! The node is sized for the machine the paper evaluates — a 6-core Juno
//! R1, so at most six servers and six in-flight requests. Each server is
//! one record in a flat array holding its rate, its stall and the request
//! in flight on it, and the per-event decisions are linear passes over
//! that array:
//!
//! * **next completion** — the busy server with the smallest finish time
//!   under [`f64::total_cmp`], ties to the lowest index. The pick is
//!   cached, so peeking is O(1); starting a request updates it with one
//!   comparison, and a completion rescans;
//! * **dispatch** — the free server whose stall has ended
//!   (`available_at <= now`) with the largest effective speed
//!   `speed / slowdown` under `total_cmp`, ties to the highest index;
//! * **refill** — a completion that frees the only free server while
//!   requests wait needs no dispatch scan: that server's stall ended at the
//!   completion, so it is the pick. It sheds timed-out heads, rescans the
//!   next completion and starts the next request there, so a completion
//!   under load costs one pass. Other completions rescan, then dispatch.
//!   On the benchmark's workloads 82–97% of completions refill;
//! * **bursts** — [`ServiceNode::arrive_burst`] sends a burst's requests
//!   through [`ServiceNode::arrive`] until one has to wait, then only
//!   queues the rest. A request waits only when no server can start it at
//!   that instant, and within the instant nothing frees one: completions
//!   and kicks take turns of their own, and shedding at a fixed time is
//!   idempotent. So the rest would wait too, and shed nothing.
//!
//! Both tie orders are the ones the linear-scan oracle
//! [`ReferenceNode`](crate::reference::ReferenceNode) pins, and every
//! floating-point expression keeps that oracle's operand order, so the
//! two produce bit-identical traces (`tests/node_equivalence.rs`).
//!
//! The picks select by value instead of branching on each comparison:
//! which of six mixed big/LITTLE servers completes or frees up next is
//! close to random, so such branches mispredict often. Each candidate is
//! one integer, its [`rank`]: the integer that `total_cmp` compares for
//! its key ([`order_key`]) above its index. An integer `min` over ranks
//! then keeps the earliest finish, ties to the lowest index, and a `max`
//! the fastest free server, ties to the highest. Both compile to
//! conditional moves; only dispatch's test of whether a server is free and
//! past its stall stays a branch.
//!
//! Waiting requests sit in a FIFO of fixed-size segments of 128 requests.
//! The oldest is a ring (a `VecDeque`, so preemption can requeue at its
//! front); arrivals that find it full fill the segments behind it. When the
//! ring drains, the next segment becomes the ring in O(1) and the drained
//! one is freed. A cluster node's backlog builds up and drains within a few
//! intervals, so the queue memory a node holds follows its live backlog,
//! not the longest queue it ever had. The ring is empty only when the
//! whole queue is, so peeking and popping touch the ring alone; an arrival
//! costs one length compare more than a bare `VecDeque`, and a spilled one
//! a `Vec` push. Latency samples go into a buffer the node borrows from its
//! thread for each interval (see [`LatencyRecorder`]).

use std::collections::VecDeque;

use hipster_platform::{CoreKind, Frequency};

use crate::latency::LatencyRecorder;
use crate::request::{Demand, Request, RequestId};

/// Requests per queue segment. The ring at the head of a node's queue
/// holds one segment's worth before later arrivals spill.
const SEGMENT: usize = 128;

/// The node's FIFO of waiting requests (see the module docs): a ring at the
/// head, then full segments, oldest first, then the segment arrivals are
/// filling.
///
/// Invariants: `limit` is 0 exactly while requests sit behind the ring,
/// and the ring is then non-empty; every segment in `spill` holds
/// [`SEGMENT`] requests; `tail` holds at most [`SEGMENT`] and has no
/// allocation while nothing is spilled.
#[derive(Debug, Clone)]
struct Fifo {
    head: VecDeque<Request>,
    /// Full segments behind the ring, oldest first.
    spill: VecDeque<Vec<Request>>,
    /// The newest arrivals, behind `spill`.
    tail: Vec<Request>,
    /// The ring length at which `push_back` spills: [`SEGMENT`] while
    /// nothing is spilled, 0 while something is, so later arrivals queue
    /// behind it.
    limit: usize,
}

impl Fifo {
    fn new() -> Self {
        Fifo {
            head: VecDeque::new(),
            spill: VecDeque::new(),
            tail: Vec::new(),
            limit: SEGMENT,
        }
    }

    fn len(&self) -> usize {
        self.head.len() + self.spill.len() * SEGMENT + self.tail.len()
    }

    fn is_empty(&self) -> bool {
        self.head.is_empty()
    }

    fn front(&self) -> Option<&Request> {
        self.head.front()
    }

    fn push_back(&mut self, req: Request) {
        if self.head.len() < self.limit {
            self.head.push_back(req);
        } else {
            // Empty (the first spill) or full.
            if self.tail.len() % SEGMENT == 0 {
                self.seal_tail();
            }
            self.tail.push(req);
        }
    }

    /// Requeues `req` ahead of every waiting request. The ring may grow
    /// past [`SEGMENT`] here; the next refill replaces it.
    fn push_front(&mut self, req: Request) {
        self.head.push_front(req);
    }

    fn pop_front(&mut self) -> Option<Request> {
        let req = self.head.pop_front();
        if self.head.is_empty() && self.limit == 0 {
            self.refill();
        }
        req
    }

    /// Moves a full `tail` behind the other segments (none on the first
    /// spill) and opens a new one.
    #[cold]
    fn seal_tail(&mut self) {
        let full = std::mem::replace(&mut self.tail, Vec::with_capacity(SEGMENT));
        if !full.is_empty() {
            self.spill.push_back(full);
        }
        self.limit = 0;
    }

    /// The ring drained while requests wait behind it: the oldest segment
    /// becomes the ring in O(1), and the drained ring is freed. Once `tail`
    /// moves in, nothing is spilled, arrivals go to the ring again, and the
    /// segment list is freed too.
    #[cold]
    fn refill(&mut self) {
        let next = match self.spill.pop_front() {
            Some(seg) => seg,
            None => {
                self.spill = VecDeque::new();
                self.limit = SEGMENT;
                std::mem::take(&mut self.tail)
            }
        };
        self.head = VecDeque::from(next);
    }

    /// Requests' worth of memory the queue holds, counting the segment
    /// list's slots.
    #[cfg(test)]
    fn held(&self) -> usize {
        let slots = self.spill.capacity() * std::mem::size_of::<Vec<Request>>()
            / std::mem::size_of::<Request>();
        self.head.capacity()
            + self.spill.iter().map(Vec::capacity).sum::<usize>()
            + self.tail.capacity()
            + slots
    }
}

/// Specification of one server (one core allocated to the LC workload).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerSpec {
    /// Core class backing this server.
    pub kind: CoreKind,
    /// Cluster frequency of that core.
    pub freq: Frequency,
    /// Compute speed in work units per second at that frequency.
    pub speed: f64,
    /// Service-time multiplier ≥ 1 from contention / cold caches.
    pub slowdown: f64,
}

/// `x`'s place in the [`f64::total_cmp`] order as an integer: the
/// transform `total_cmp` applies to both operands before comparing them as
/// `i64`s, so keys order and tie exactly as their floats do.
#[inline]
fn order_key(x: f64) -> i64 {
    let b = x.to_bits() as i64;
    b ^ (((b >> 63) as u64) >> 1) as i64
}

/// Server `i` under order key `key`, as one integer that orders by the key
/// and then by the index (the sign flip maps `i64` order onto `u64`).
#[inline]
fn rank(key: i64, i: usize) -> u128 {
    u128::from(key as u64 ^ 1 << 63) << 64 | i as u128
}

/// One server: its service rate, its stall, and the request in flight on
/// it (the request fields are meaningful only while `busy`).
#[derive(Debug, Clone, Copy)]
struct Server {
    /// Compute speed of the backing core (work units per second).
    speed: f64,
    /// Contention slowdown ≥ 1.
    slowdown: f64,
    /// Dispatch key: the [`order_key`] of `speed / slowdown`.
    eff: i64,
    /// Earliest time this server may start work: the end of a
    /// reconfiguration stall, or its last completion time.
    available_at: f64,
    /// Whether `req` is in flight.
    busy: bool,
    /// The in-flight request, its demand as of `started`.
    req: Request,
    /// When the in-flight request's current execution (re)started; later
    /// than the current time while it waits out a reconfiguration stall.
    started: f64,
    /// When the in-flight request completes.
    finish: f64,
    /// Busy seconds accumulated in the current interval.
    busy_in_interval: f64,
}

impl Server {
    /// An idle server built from `spec`, stalled until `available_at`.
    fn idle(spec: &ServerSpec, available_at: f64) -> Self {
        Server {
            speed: spec.speed,
            slowdown: spec.slowdown,
            eff: order_key(spec.speed / spec.slowdown),
            available_at,
            busy: false,
            req: Request::new(RequestId(0), 0.0, Demand::new(0.0, 0.0)),
            started: 0.0,
            finish: 0.0,
            busy_in_interval: 0.0,
        }
    }

    /// Service time of the in-flight request's remaining demand.
    fn service_time(&self) -> f64 {
        (self.req.work_left / self.speed + self.req.mem_left) * self.slowdown
    }

    /// Busy seconds of the in-flight request between the interval start
    /// and `now` (zero while it waits for its stall).
    fn busy_until(&self, now: f64, interval_start: f64) -> f64 {
        (now - self.started.max(interval_start)).max(0.0)
    }
}

/// Statistics of one completed monitoring interval of the service node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeInterval {
    /// Requests that arrived during the interval.
    pub arrivals: usize,
    /// Requests that completed during the interval.
    pub completions: usize,
    /// Requests whose clients timed out during the interval.
    pub timeouts: usize,
    /// Tail latency at the requested percentile, seconds.
    ///
    /// When no request completed, this falls back to the age of the oldest
    /// request still in the system (a lower bound on its eventual latency),
    /// or 0 when the system is empty.
    pub tail_latency_s: f64,
    /// Mean latency of completed requests (0 when none completed).
    pub mean_latency_s: f64,
    /// Per-server busy fraction during the interval.
    pub busy: Vec<f64>,
    /// Queue length at the end of the interval (excluding in-flight).
    pub queue_len: usize,
}

/// FIFO multi-server queueing node for the latency-critical workload: one
/// flat array of server records, a cached next completion, and linear
/// dispatch (see the module docs for the tie orders).
#[derive(Debug, Clone)]
pub struct ServiceNode {
    queue: Fifo,
    servers: Vec<Server>,
    /// Number of busy servers.
    in_flight: usize,
    /// The busy server that completes next, by (`total_cmp` finish, lowest
    /// index); `None` while no request is in flight.
    next: Option<usize>,
    recorder: LatencyRecorder,
    /// Reused buffer for preempted in-flight requests.
    preempt_scratch: Vec<Request>,
    next_id: u64,
    interval_start: f64,
    interval_arrivals: usize,
    interval_completions: usize,
    interval_timeouts: usize,
    total_completed: u64,
    /// Client-side request timeout; timed-out requests are dropped at
    /// dispatch and recorded as right-censored latencies.
    timeout_s: Option<f64>,
}

impl ServiceNode {
    /// Creates a node with no servers (configure before use).
    pub fn new() -> Self {
        ServiceNode {
            queue: Fifo::new(),
            servers: Vec::new(),
            in_flight: 0,
            next: None,
            recorder: LatencyRecorder::new(),
            preempt_scratch: Vec::new(),
            next_id: 0,
            interval_start: 0.0,
            interval_arrivals: 0,
            interval_completions: 0,
            interval_timeouts: 0,
            total_completed: 0,
            timeout_s: None,
        }
    }

    /// Sets the client-side request timeout (`None` = patient clients).
    ///
    /// # Panics
    ///
    /// Panics if the timeout is not strictly positive.
    pub fn set_timeout(&mut self, timeout_s: Option<f64>) {
        if let Some(t) = timeout_s {
            assert!(t > 0.0, "timeout must be positive: {t}");
        }
        self.timeout_s = timeout_s;
    }

    /// Number of servers currently configured.
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// Requests waiting in the queue (excluding in-flight).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Requests currently being serviced.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Total requests completed since construction.
    pub fn total_completed(&self) -> u64 {
        self.total_completed
    }

    /// Reconfigures the server set at time `now`.
    ///
    /// * `preempt` — `true` for core-mapping changes: all in-flight requests
    ///   are preempted (remaining demand preserved) and requeued in arrival
    ///   order. `false` for pure DVFS changes: in-flight requests continue
    ///   with their remaining demand rescaled to the new speed; one still
    ///   waiting for an earlier stall starts when that stall ends, or when
    ///   this one does if it ends later.
    /// * `stall_s` — servers may not start work before `now + stall_s`
    ///   (migration or DVFS transition latency).
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty, if any spec has a speed that is not
    /// finite and positive or a slowdown that is not finite and at least 1,
    /// or if `preempt` is `false` while the server count changes.
    pub fn reconfigure(&mut self, now: f64, specs: &[ServerSpec], preempt: bool, stall_s: f64) {
        assert!(!specs.is_empty(), "service node needs at least one server");
        for s in specs {
            assert!(
                s.speed.is_finite() && s.speed > 0.0,
                "server speed must be finite and positive: {s:?}"
            );
            assert!(
                s.slowdown.is_finite() && s.slowdown >= 1.0,
                "slowdown must be finite and ≥ 1: {s:?}"
            );
        }
        if preempt {
            self.preempt_all(now);
            self.servers.clear();
            self.servers
                .extend(specs.iter().map(|spec| Server::idle(spec, now + stall_s)));
        } else {
            assert_eq!(
                specs.len(),
                self.servers.len(),
                "DVFS-only reconfiguration cannot change the server count"
            );
            let interval_start = self.interval_start;
            for (s, spec) in self.servers.iter_mut().zip(specs) {
                s.speed = spec.speed;
                s.slowdown = spec.slowdown;
                s.eff = order_key(spec.speed / spec.slowdown);
                s.available_at = s.available_at.max(now + stall_s);
                if !s.busy {
                    continue;
                }
                if s.started > now {
                    // Not started yet: no demand consumed, and the start
                    // waits for whichever stall ends last.
                    s.started = s.started.max(now + stall_s);
                    s.finish = s.started + s.service_time();
                } else {
                    // Consume demand in proportion to the elapsed service
                    // time, then recompute the finish under the new rate.
                    let left = remaining_fraction(s.started, s.finish, now);
                    s.req.work_left *= left;
                    s.req.mem_left *= left;
                    s.busy_in_interval += s.busy_until(now, interval_start);
                    s.started = now;
                    s.finish = (now + stall_s) + s.service_time();
                }
            }
            self.next = self.earliest_completion();
        }
        self.dispatch(now + stall_s);
    }

    /// Revokes every server at time `now` — the fault-injection layer's
    /// full-revocation path ([`ServiceNode::reconfigure`] itself rejects
    /// an empty server list). In-flight requests are preempted with their
    /// remaining demand preserved and requeued in arrival order, and the
    /// server set empties out. Arrivals keep queueing (and timed-out ones
    /// keep shedding at dispatch) until a preempting `reconfigure` brings
    /// servers back.
    pub fn revoke_all(&mut self, now: f64) {
        self.preempt_all(now);
        self.servers.clear();
        self.dispatch(now);
    }

    /// Preempts every in-flight request at `now` and requeues them, in
    /// arrival order, ahead of the waiting ones.
    fn preempt_all(&mut self, now: f64) {
        let interval_start = self.interval_start;
        let mut preempted = std::mem::take(&mut self.preempt_scratch);
        preempted.clear();
        for s in self.servers.iter_mut().filter(|s| s.busy) {
            s.busy = false;
            s.busy_in_interval += s.busy_until(now, interval_start);
            let left = remaining_fraction(s.started, s.finish, now);
            preempted.push(Request {
                work_left: s.req.work_left * left,
                mem_left: s.req.mem_left * left,
                ..s.req
            });
        }
        self.in_flight = 0;
        self.next = None;
        // Ids grow with arrival time.
        preempted.sort_by_key(|r| r.id);
        for req in preempted.drain(..).rev() {
            self.queue.push_front(req);
        }
        self.preempt_scratch = preempted;
    }

    /// Marks the start of a monitoring interval at time `t`.
    pub fn begin_interval(&mut self, t: f64) {
        self.interval_start = t;
        self.interval_arrivals = 0;
        self.interval_completions = 0;
        self.interval_timeouts = 0;
        for s in &mut self.servers {
            s.busy_in_interval = 0.0;
        }
    }

    /// Enqueues a request arriving at `now` with the given demand, then
    /// dispatches if a server is free.
    pub fn arrive(&mut self, now: f64, demand: Demand) {
        let req = self.admit(now, demand);
        if !self.queue.is_empty() {
            self.queue.push_back(req);
            self.dispatch(now);
            return;
        }
        // Nothing waits ahead of it, and a request of age 0 cannot have
        // timed out: start it directly when a server is free.
        match self.pick_server(now) {
            Some(i) => self.start(i, req, now),
            None => self.queue.push_back(req),
        }
    }

    /// Enqueues requests arriving together at `now` with the given demands,
    /// in order: what [`ServiceNode::arrive`] for each in turn would do.
    /// Once one has to wait, the rest only queue (see the module docs).
    pub fn arrive_burst(&mut self, now: f64, demands: &[Demand]) {
        for (k, &demand) in demands.iter().enumerate() {
            self.arrive(now, demand);
            if !self.queue.is_empty() {
                for &demand in &demands[k + 1..] {
                    let req = self.admit(now, demand);
                    self.queue.push_back(req);
                }
                return;
            }
        }
    }

    /// The request arriving at `now` with `demand`, counted as an arrival.
    fn admit(&mut self, now: f64, demand: Demand) -> Request {
        let req = Request::new(RequestId(self.next_id), now, demand);
        self.next_id += 1;
        self.interval_arrivals += 1;
        req
    }

    /// Earliest pending completion time, if any request is in flight.
    pub fn next_completion(&self) -> Option<f64> {
        self.next.map(|i| self.servers[i].finish)
    }

    /// Processes all completions up to and including time `to`.
    pub fn advance(&mut self, to: f64) {
        while self.complete_next(to).is_some() {}
    }

    /// Like [`ServiceNode::advance`], but appends each completion time to
    /// `out` (closed-loop generators schedule think timers from these).
    pub fn advance_collect(&mut self, to: f64, out: &mut Vec<f64>) {
        while let Some(t) = self.complete_next(to) {
            out.push(t);
        }
    }

    /// Retires the next completion if it is due by `to` (under `f64` `>`
    /// semantics), then dispatches onto the freed server. Returns the
    /// completion time.
    fn complete_next(&mut self, to: f64) -> Option<f64> {
        let i = self.next?;
        let interval_start = self.interval_start;
        let s = &mut self.servers[i];
        let t = s.finish;
        if t > to {
            return None;
        }
        s.busy = false;
        s.busy_in_interval += t - s.started.max(interval_start);
        s.available_at = t;
        self.recorder.record(s.req.age(t));
        self.in_flight -= 1;
        self.interval_completions += 1;
        self.total_completed += 1;
        if self.servers.len() - self.in_flight == 1 && !self.queue.is_empty() {
            self.refill(i, t);
        } else {
            self.next = self.earliest_completion();
            self.dispatch(t);
        }
        Some(t)
    }

    /// Completion at `t` freed server `i`, the only free server, while
    /// requests wait: `i`'s stall ended at `t`, so dispatch would pick it
    /// for the first request that survives shedding. Rescans the next
    /// completion once, then starts that request on `i` without a dispatch
    /// scan.
    fn refill(&mut self, i: usize, t: f64) {
        self.shed_timed_out(t);
        self.next = self.earliest_completion();
        if let Some(req) = self.queue.pop_front() {
            self.start(i, req, t);
        }
    }

    /// The busy server that completes first: smallest finish under
    /// `total_cmp`, ties to the lowest index.
    fn earliest_completion(&self) -> Option<usize> {
        if self.in_flight == 0 {
            return None;
        }
        let mut best = u128::MAX;
        for (i, s) in self.servers.iter().enumerate() {
            // An idle server ranks after every busy one.
            let key = order_key(s.finish).max(if s.busy { i64::MIN } else { i64::MAX });
            best = best.min(rank(key, i));
        }
        Some(best as usize)
    }

    /// The free server whose stall has ended by `now` with the largest
    /// effective speed under `total_cmp`, ties to the highest index.
    fn pick_server(&self, now: f64) -> Option<usize> {
        if self.in_flight == self.servers.len() {
            return None;
        }
        let mut best = 0;
        for (i, s) in self.servers.iter().enumerate() {
            // An ineligible server's key, `i64::MIN`, is below every
            // speed's, so its rank is below every eligible server's.
            let eligible = !s.busy & (s.available_at <= now);
            let key = s.eff.min(if eligible { i64::MAX } else { i64::MIN });
            best = best.max(rank(key, i));
        }
        (best >> 64 != 0).then_some(best as usize)
    }

    /// Dispatches queued requests to free servers (fastest server first),
    /// dropping requests whose client already timed out.
    fn dispatch(&mut self, now: f64) {
        self.shed_timed_out(now);
        while !self.queue.is_empty() {
            let Some(i) = self.pick_server(now) else {
                return;
            };
            let req = self.queue.pop_front().expect("queue non-empty");
            self.start(i, req, now);
        }
    }

    /// Sheds timed-out requests from the queue head at `now`; their latency
    /// is right-censored at the timeout so QoS accounting sees them. One
    /// pass suffices: queued requests are in arrival order, so ages only
    /// decrease toward the tail.
    fn shed_timed_out(&mut self, now: f64) {
        if let Some(t) = self.timeout_s {
            while self.queue.front().is_some_and(|r| r.age(now) > t) {
                self.queue.pop_front();
                self.recorder.record(t);
                self.interval_timeouts += 1;
            }
        }
    }

    /// Starts `req` on free, eligible server `i` at time `now`.
    fn start(&mut self, i: usize, req: Request, now: f64) {
        let s = &mut self.servers[i];
        s.busy = true;
        s.req = req;
        s.started = now;
        s.finish = now + s.service_time();
        let key = order_key(s.finish);
        self.in_flight += 1;
        // With none cached, `j == i` and `i` is the pick.
        let j = self.next.unwrap_or(i);
        let key_j = order_key(self.servers[j].finish);
        self.next = Some(rank(key, i).min(rank(key_j, j)) as usize);
    }

    /// Called by the engine when servers stalled until `t` become free, to
    /// start work that queued during the stall.
    pub fn kick(&mut self, t: f64) {
        self.dispatch(t);
    }

    /// Closes the interval at time `t_end`, returning its statistics.
    ///
    /// The tail latency is the `p`-th percentile of completions in the
    /// interval, computed by selection rather than a full sort; see
    /// [`NodeInterval::tail_latency_s`] for the no-completion fallback. The
    /// returned [`NodeInterval::busy`] vector is allocated afresh each
    /// interval, since the caller's interval record owns it. Beyond it, the
    /// node allocates only when its backlog outgrows its queue's ring (see
    /// the module docs) or its completions outgrow the latency buffer its
    /// thread lends it, which goes back to the thread here.
    pub fn end_interval(&mut self, t_end: f64, p: f64) -> NodeInterval {
        let interval_start = self.interval_start;
        for s in self.servers.iter_mut().filter(|s| s.busy) {
            s.busy_in_interval += t_end - s.started.max(interval_start);
        }
        let dur = (t_end - interval_start).max(f64::EPSILON);
        let busy: Vec<f64> = self
            .servers
            .iter()
            .map(|s| (s.busy_in_interval / dur).clamp(0.0, 1.0))
            .collect();
        let (tail, mean, _n) = self.recorder.take_interval(p);
        let tail = tail.unwrap_or_else(|| self.oldest_age(t_end));
        NodeInterval {
            arrivals: self.interval_arrivals,
            completions: self.interval_completions,
            timeouts: self.interval_timeouts,
            tail_latency_s: tail,
            mean_latency_s: mean.unwrap_or(0.0),
            busy,
            queue_len: self.queue.len(),
        }
    }

    /// Age of the oldest request still in the system. Only consulted when
    /// an interval ends with zero completions (a cold, near-idle or fully
    /// wedged interval).
    fn oldest_age(&self, now: f64) -> f64 {
        let queued = self.queue.front().map(|r| r.age(now));
        let in_flight = self
            .servers
            .iter()
            .filter(|s| s.busy)
            .map(|s| s.req.age(now))
            .max_by(f64::total_cmp);
        match (queued, in_flight) {
            (Some(a), Some(b)) => a.max(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => 0.0,
        }
    }
}

impl Default for ServiceNode {
    fn default() -> Self {
        Self::new()
    }
}

/// Fraction of a request's demand still outstanding when service ran
/// linearly from `started` toward `finish` and was interrupted at `now`.
fn remaining_fraction(started: f64, finish: f64, now: f64) -> f64 {
    let total = finish - started;
    if total <= 0.0 {
        return 0.0;
    }
    1.0 - ((now - started) / total).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec(kind: CoreKind, speed: f64) -> ServerSpec {
        ServerSpec {
            kind,
            freq: Frequency::from_mhz(1000),
            speed,
            slowdown: 1.0,
        }
    }

    fn one_server(speed: f64) -> ServiceNode {
        let mut n = ServiceNode::new();
        n.reconfigure(0.0, &[spec(CoreKind::Big, speed)], true, 0.0);
        n.begin_interval(0.0);
        n
    }

    #[test]
    fn single_request_latency() {
        let mut n = one_server(2.0); // 2 work units/s
        n.arrive(0.0, Demand::new(1.0, 0.5)); // 0.5 s compute + 0.5 s memory
        n.advance(10.0);
        let iv = n.end_interval(10.0, 0.95);
        assert_eq!(iv.completions, 1);
        assert!((iv.tail_latency_s - 1.0).abs() < 1e-12);
        assert!((iv.busy[0] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn fifo_queueing_adds_wait() {
        let mut n = one_server(1.0);
        n.arrive(0.0, Demand::new(1.0, 0.0)); // served 0..1
        n.arrive(0.0, Demand::new(1.0, 0.0)); // served 1..2 → latency 2
        n.advance(5.0);
        let iv = n.end_interval(5.0, 1.0);
        assert_eq!(iv.completions, 2);
        assert!((iv.tail_latency_s - 2.0).abs() < 1e-12);
        assert!((iv.mean_latency_s - 1.5).abs() < 1e-12);
    }

    #[test]
    fn fastest_server_preferred() {
        let mut n = ServiceNode::new();
        n.reconfigure(
            0.0,
            &[spec(CoreKind::Small, 1.0), spec(CoreKind::Big, 4.0)],
            true,
            0.0,
        );
        n.begin_interval(0.0);
        n.arrive(0.0, Demand::new(4.0, 0.0)); // on big: 1 s; on small it'd be 4 s
        n.advance(10.0);
        let iv = n.end_interval(10.0, 1.0);
        assert!((iv.tail_latency_s - 1.0).abs() < 1e-12);
        // Big (index 1) did the work.
        assert!(iv.busy[1] > 0.0 && iv.busy[0] == 0.0);
    }

    #[test]
    fn equal_speed_tie_breaks_to_highest_index() {
        // The oracle's `max_by` scan returns the *last* maximal server;
        // dispatch must reproduce that.
        let mut n = ServiceNode::new();
        n.reconfigure(
            0.0,
            &[
                spec(CoreKind::Big, 2.0),
                spec(CoreKind::Big, 2.0),
                spec(CoreKind::Big, 2.0),
            ],
            true,
            0.0,
        );
        n.begin_interval(0.0);
        n.arrive(0.0, Demand::new(2.0, 0.0));
        n.advance(10.0);
        let iv = n.end_interval(10.0, 1.0);
        assert_eq!(iv.completions, 1);
        assert!(iv.busy[2] > 0.0, "highest-index server should win the tie");
        assert!(iv.busy[0] == 0.0 && iv.busy[1] == 0.0);
    }

    #[test]
    fn equal_finish_completes_lowest_index_first() {
        // Two identical servers, two identical requests submitted together:
        // both finish at the same instant; server 0's request must retire
        // first (the oracle's `position` scan order). The third request
        // then dispatches onto server 0.
        let mut n = ServiceNode::new();
        n.reconfigure(
            0.0,
            &[spec(CoreKind::Big, 1.0), spec(CoreKind::Big, 1.0)],
            true,
            0.0,
        );
        n.begin_interval(0.0);
        n.arrive(0.0, Demand::new(1.0, 0.0)); // server 1 (tie → highest idx)
        n.arrive(0.0, Demand::new(1.0, 0.0)); // server 0
        n.arrive(0.0, Demand::new(1.0, 0.0)); // queued
        n.advance(1.0);
        assert_eq!(n.in_flight(), 1);
        let iv = n.end_interval(2.0, 1.0);
        assert_eq!(iv.completions, 2);
        // Server 0 freed first at t=1 and picked up the queued request.
        assert!((iv.busy[0] - 1.0).abs() < 1e-12, "{:?}", iv.busy);
        assert!((iv.busy[1] - 0.5).abs() < 1e-12, "{:?}", iv.busy);
    }

    #[test]
    fn two_servers_run_in_parallel() {
        let mut n = ServiceNode::new();
        n.reconfigure(
            0.0,
            &[spec(CoreKind::Big, 1.0), spec(CoreKind::Big, 1.0)],
            true,
            0.0,
        );
        n.begin_interval(0.0);
        n.arrive(0.0, Demand::new(1.0, 0.0));
        n.arrive(0.0, Demand::new(1.0, 0.0));
        n.advance(1.0);
        let iv = n.end_interval(1.0, 1.0);
        assert_eq!(iv.completions, 2);
        assert!((iv.tail_latency_s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slowdown_stretches_service() {
        let mut n = ServiceNode::new();
        let mut s = spec(CoreKind::Big, 1.0);
        s.slowdown = 2.0;
        n.reconfigure(0.0, &[s], true, 0.0);
        n.begin_interval(0.0);
        n.arrive(0.0, Demand::new(1.0, 0.0));
        n.advance(10.0);
        let iv = n.end_interval(10.0, 1.0);
        assert!((iv.tail_latency_s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn preemption_preserves_remaining_work() {
        let mut n = one_server(1.0);
        n.arrive(0.0, Demand::new(2.0, 0.0)); // would finish at t=2
        n.advance(1.0);
        // Remap at t=1 onto a 2× faster server with no stall: half the work
        // (1 unit) remains → 0.5 s more.
        n.reconfigure(1.0, &[spec(CoreKind::Big, 2.0)], true, 0.0);
        n.advance(10.0);
        let iv = n.end_interval(10.0, 1.0);
        assert_eq!(iv.completions, 1);
        assert!(
            (iv.tail_latency_s - 1.5).abs() < 1e-9,
            "{}",
            iv.tail_latency_s
        );
    }

    #[test]
    fn migration_stall_delays_service() {
        let mut n = one_server(1.0);
        n.arrive(0.0, Demand::new(1.0, 0.0));
        // Immediately remap with a 0.5 s stall: finish at 1.5 s.
        n.reconfigure(0.0, &[spec(CoreKind::Big, 1.0)], true, 0.5);
        n.advance(10.0);
        let iv = n.end_interval(10.0, 1.0);
        assert!(
            (iv.tail_latency_s - 1.5).abs() < 1e-9,
            "{}",
            iv.tail_latency_s
        );
    }

    #[test]
    fn arrivals_during_stall_wait_for_kick() {
        let mut n = one_server(1.0);
        // Remap with a 1 s stall, then let a request arrive mid-stall: it
        // must not start before the stall elapses.
        n.reconfigure(0.0, &[spec(CoreKind::Big, 1.0)], true, 1.0);
        n.arrive(0.5, Demand::new(1.0, 0.0));
        n.advance(0.9);
        assert_eq!(n.in_flight(), 0);
        assert_eq!(n.queue_len(), 1);
        n.kick(1.0);
        assert_eq!(n.in_flight(), 1);
        n.advance(10.0);
        let iv = n.end_interval(10.0, 1.0);
        assert_eq!(iv.completions, 1);
        // Arrived at 0.5, started at 1.0, finished at 2.0 → latency 1.5.
        assert!(
            (iv.tail_latency_s - 1.5).abs() < 1e-9,
            "{}",
            iv.tail_latency_s
        );
    }

    #[test]
    fn dvfs_change_rescales_in_flight() {
        let mut n = one_server(1.0);
        n.arrive(0.0, Demand::new(2.0, 0.0)); // finish at 2 under speed 1
        n.advance(1.0);
        // At t=1, double the speed without preemption: 1 unit left → 0.5 s.
        n.reconfigure(1.0, &[spec(CoreKind::Big, 2.0)], false, 0.0);
        n.advance(10.0);
        let iv = n.end_interval(10.0, 1.0);
        assert_eq!(iv.completions, 1);
        assert!(
            (iv.tail_latency_s - 1.5).abs() < 1e-9,
            "{}",
            iv.tail_latency_s
        );
    }

    #[test]
    fn no_completion_falls_back_to_oldest_age() {
        let mut n = one_server(0.001); // pathologically slow
        n.arrive(0.0, Demand::new(100.0, 0.0));
        n.arrive(0.5, Demand::new(100.0, 0.0));
        n.advance(1.0);
        let iv = n.end_interval(1.0, 0.95);
        assert_eq!(iv.completions, 0);
        assert!(
            (iv.tail_latency_s - 1.0).abs() < 1e-12,
            "oldest request age"
        );
    }

    #[test]
    fn empty_system_reports_zero_tail() {
        let mut n = one_server(1.0);
        n.advance(1.0);
        let iv = n.end_interval(1.0, 0.95);
        assert_eq!(iv.tail_latency_s, 0.0);
        assert_eq!(iv.queue_len, 0);
    }

    #[test]
    fn busy_fraction_spans_interval_boundaries() {
        let mut n = one_server(1.0);
        n.arrive(0.0, Demand::new(3.0, 0.0)); // runs 0..3
        n.advance(1.0);
        let iv1 = n.end_interval(1.0, 0.95);
        assert!((iv1.busy[0] - 1.0).abs() < 1e-12);
        n.begin_interval(1.0);
        n.advance(2.0);
        let iv2 = n.end_interval(2.0, 0.95);
        assert!((iv2.busy[0] - 1.0).abs() < 1e-12);
        n.begin_interval(2.0);
        n.advance(4.0);
        let iv3 = n.end_interval(4.0, 0.95);
        assert_eq!(iv3.completions, 1);
        assert!((iv3.busy[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn arrival_order_preserved_after_preemption() {
        let mut n = ServiceNode::new();
        n.reconfigure(
            0.0,
            &[spec(CoreKind::Big, 1.0), spec(CoreKind::Big, 1.0)],
            true,
            0.0,
        );
        n.begin_interval(0.0);
        n.arrive(0.0, Demand::new(10.0, 0.0));
        n.arrive(0.1, Demand::new(10.0, 0.0));
        n.arrive(0.2, Demand::new(10.0, 0.0)); // queued behind both
        n.advance(1.0);
        // Shrink to one server: both in-flight requests requeue in id order,
        // ahead of the queued third request.
        n.reconfigure(1.0, &[spec(CoreKind::Big, 100.0)], true, 0.0);
        assert_eq!(n.queue_len(), 2); // one dispatched immediately
        n.advance(20.0);
        let iv = n.end_interval(20.0, 1.0);
        assert_eq!(iv.completions, 3);
    }

    #[test]
    fn in_flight_count_tracks_through_reconfigure() {
        let mut n = ServiceNode::new();
        n.reconfigure(
            0.0,
            &[spec(CoreKind::Big, 1.0), spec(CoreKind::Big, 1.0)],
            true,
            0.0,
        );
        n.begin_interval(0.0);
        n.arrive(0.0, Demand::new(5.0, 0.0));
        n.arrive(0.0, Demand::new(5.0, 0.0));
        assert_eq!(n.in_flight(), 2);
        // DVFS rescale keeps both in flight.
        n.reconfigure(
            1.0,
            &[spec(CoreKind::Big, 2.0), spec(CoreKind::Big, 2.0)],
            false,
            0.0,
        );
        assert_eq!(n.in_flight(), 2);
        // Preempting remap requeues them, then redispatches one per server.
        n.reconfigure(2.0, &[spec(CoreKind::Big, 1.0)], true, 0.0);
        assert_eq!(n.in_flight(), 1);
        assert_eq!(n.queue_len(), 1);
        n.advance(100.0);
        assert_eq!(n.in_flight(), 0);
        assert_eq!(n.total_completed(), 2);
    }

    #[test]
    fn stall_survives_a_dvfs_reconfigure_inside_it() {
        // A 0.05-work job runs from t=0. A preempting remap at 0.01 with a
        // 30 ms stall restarts its remaining 0.04 units at 0.04, due 0.08.
        let mut n = one_server(1.0);
        n.arrive(0.0, Demand::new(0.05, 0.0));
        n.reconfigure(0.01, &[spec(CoreKind::Big, 1.0)], true, 0.03);
        let due = n.next_completion().expect("in flight");
        assert!((due - 0.08).abs() < 1e-12, "{due}");
        // Re-applying the same spec inside the stall must not start the
        // work early.
        n.reconfigure(0.02, &[spec(CoreKind::Big, 1.0)], false, 0.0);
        assert_eq!(n.next_completion(), Some(due));
        // A DVFS stall that ends later moves the start to its end.
        n.reconfigure(0.03, &[spec(CoreKind::Big, 1.0)], false, 0.02);
        let due = n.next_completion().expect("in flight");
        assert!((due - 0.09).abs() < 1e-12, "{due}");
        n.advance(0.0899);
        assert_eq!(n.total_completed(), 0);
        n.advance(1.0);
        assert_eq!(n.total_completed(), 1);
    }

    #[test]
    fn ranks_order_as_total_cmp_then_index() {
        let special = [
            0.0,
            -0.0,
            1e-310,
            -1e-310,
            1.5,
            -1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut rng = crate::SimRng::seed(11);
        let mut xs: Vec<f64> = special.to_vec();
        xs.extend((0..200).map(|_| f64::from_bits(rng.next_u64())));
        for &a in &xs {
            for &b in &xs {
                assert_eq!(
                    order_key(a).cmp(&order_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
                for (i, j) in [(0, 5), (5, 0), (3, 3)] {
                    let want = a.total_cmp(&b).then(i.cmp(&j));
                    assert_eq!(rank(order_key(a), i).cmp(&rank(order_key(b), j)), want);
                }
            }
        }
    }

    /// One step of a [`Fifo`] test sequence.
    #[derive(Debug, Clone)]
    enum FifoOp {
        PushBack(usize),
        /// Preemption requeues: a few requests at the head.
        PushFront(usize),
        Pop(usize),
        /// Pops until the ring refills from a segment (or the queue
        /// empties), then requeues one request at the refilled ring's start.
        RefillThenPushFront,
        /// Carries on with a clone, whose buffers hold no spare capacity.
        Clone,
    }

    /// Checks `q` against its `VecDeque` model and its own invariants.
    fn check_fifo(q: &Fifo, model: &VecDeque<Request>) {
        assert_eq!(q.len(), model.len());
        assert_eq!(q.is_empty(), model.is_empty());
        assert_eq!(q.front(), model.front());
        let spilled = q.len() - q.head.len();
        assert_eq!(q.limit == 0, spilled > 0);
        assert!(
            spilled == 0 || !q.head.is_empty(),
            "empty ring ahead of spill"
        );
        assert!(q.spill.iter().all(|seg| seg.len() == SEGMENT));
        assert!(q.tail.len() <= SEGMENT);
        assert_eq!(q.tail.is_empty(), spilled == 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fifo_matches_a_vecdeque(
            ops in prop::collection::vec(
                prop_oneof![
                    (1usize..=300).prop_map(FifoOp::PushBack),
                    (1usize..=8).prop_map(FifoOp::PushFront),
                    (1usize..=300).prop_map(FifoOp::Pop),
                    Just(FifoOp::RefillThenPushFront),
                    Just(FifoOp::Clone),
                ],
                1..40,
            ),
        ) {
            let mut q = Fifo::new();
            let mut model = VecDeque::new();
            let mut id = 0u64;
            let mut fresh = || {
                id += 1;
                Request::new(RequestId(id), id as f64, Demand::new(1.0, 0.0))
            };
            for op in ops {
                match op {
                    FifoOp::PushBack(n) => {
                        for _ in 0..n {
                            let r = fresh();
                            q.push_back(r);
                            model.push_back(r);
                        }
                    }
                    FifoOp::PushFront(n) => {
                        for _ in 0..n {
                            let r = fresh();
                            q.push_front(r);
                            model.push_front(r);
                        }
                    }
                    FifoOp::Pop(n) => {
                        for _ in 0..n {
                            prop_assert_eq!(q.pop_front(), model.pop_front());
                        }
                    }
                    FifoOp::RefillThenPushFront => {
                        for _ in 0..q.head.len() {
                            prop_assert_eq!(q.pop_front(), model.pop_front());
                        }
                        let r = fresh();
                        q.push_front(r);
                        model.push_front(r);
                    }
                    FifoOp::Clone => q = q.clone(),
                }
                check_fifo(&q, &model);
            }
            while let Some(r) = model.pop_front() {
                prop_assert_eq!(q.pop_front(), Some(r));
            }
            prop_assert_eq!(q.pop_front(), None);
            check_fifo(&q, &model);
        }
    }

    #[test]
    fn push_front_lands_ahead_of_a_freshly_refilled_ring() {
        let r = |id: u64| Request::new(RequestId(id), id as f64, Demand::new(1.0, 0.0));
        let mut q = Fifo::new();
        let mut model = VecDeque::new();
        for id in 0..3 * SEGMENT as u64 {
            q.push_back(r(id));
            model.push_back(r(id));
        }
        assert_eq!(
            (q.head.len(), q.spill.len(), q.tail.len()),
            (SEGMENT, 1, SEGMENT)
        );
        for _ in 0..SEGMENT {
            assert_eq!(q.pop_front(), model.pop_front());
        }
        // The first spilled segment is now the ring, its head at the start.
        assert_eq!((q.head.len(), q.spill.len()), (SEGMENT, 0));
        q.push_front(r(1000));
        model.push_front(r(1000));
        check_fifo(&q, &model);
        while let Some(req) = model.pop_front() {
            assert_eq!(q.pop_front(), Some(req));
            check_fifo(&q, &model);
        }
    }

    #[test]
    fn a_drained_spike_leaves_the_ring_and_at_most_one_segment() {
        let mut n = one_server(1000.0);
        for i in 0..10_000 {
            n.arrive(f64::from(i) * 1e-5, Demand::new(1.0, 0.0));
        }
        assert_eq!(n.queue_len(), 9_999);
        assert!(n.queue.held() >= 9_999, "{}", n.queue.held());
        n.advance(100.0);
        let iv = n.end_interval(100.0, 0.95);
        assert_eq!((iv.completions, iv.queue_len), (10_000, 0));
        assert!(
            n.queue.held() <= 2 * SEGMENT,
            "a drained queue holds {} requests' worth",
            n.queue.held()
        );
    }

    /// Request `i` of interval `iv` in a fixed arrival pattern whose
    /// demands scale with `k`.
    fn step(n: &mut ServiceNode, k: f64, iv: u32, i: u32) {
        if i == 0 {
            n.begin_interval(f64::from(iv));
        }
        let t = f64::from(iv) + f64::from(i) * 0.004;
        n.advance(t);
        n.arrive(t, Demand::new(k * (1.0 + f64::from(i % 7)), 0.001));
    }

    fn close(n: &mut ServiceNode, iv: u32) -> NodeInterval {
        let end = f64::from(iv) + 1.0;
        n.advance(end);
        n.end_interval(end, 0.95)
    }

    fn interval(n: &mut ServiceNode, k: f64, iv: u32) -> NodeInterval {
        for i in 0..200 {
            step(n, k, iv, i);
        }
        close(n, iv)
    }

    #[test]
    fn nodes_recording_in_turn_on_one_thread_keep_their_own_samples() {
        let node = |speed| {
            let mut n = ServiceNode::new();
            n.reconfigure(0.0, &[spec(CoreKind::Big, speed)], true, 0.0);
            n
        };
        // Alone, each on a thread of its own.
        let alone = |speed, k| {
            std::thread::spawn(move || {
                let mut n = node(speed);
                (0..3).map(|iv| interval(&mut n, k, iv)).collect::<Vec<_>>()
            })
            .join()
            .expect("node thread")
        };
        let expected = (alone(1000.0, 1.0), alone(300.0, 3.0));
        // In turn on this thread: whole intervals, as a cluster's node
        // stage steps them, then request by request, so that both nodes
        // hold a buffer at once.
        for by_request in [false, true] {
            let (mut a, mut b) = (node(1000.0), node(300.0));
            let (mut a_out, mut b_out) = (Vec::new(), Vec::new());
            for iv in 0..3 {
                if by_request {
                    for i in 0..200 {
                        step(&mut a, 1.0, iv, i);
                        step(&mut b, 3.0, iv, i);
                    }
                    a_out.push(close(&mut a, iv));
                    b_out.push(close(&mut b, iv));
                } else {
                    a_out.push(interval(&mut a, 1.0, iv));
                    b_out.push(interval(&mut b, 3.0, iv));
                }
            }
            assert_eq!((a_out, b_out), expected, "by request: {by_request}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn reconfigure_rejects_empty() {
        ServiceNode::new().reconfigure(0.0, &[], true, 0.0);
    }

    #[test]
    #[should_panic(expected = "slowdown must be finite")]
    fn reconfigure_rejects_an_infinite_slowdown() {
        // It used to pass `>= 1.0` and wedge the server.
        let mut s = spec(CoreKind::Big, 1.0);
        s.slowdown = f64::INFINITY;
        ServiceNode::new().reconfigure(0.0, &[s], true, 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot change the server count")]
    fn dvfs_reconfigure_rejects_count_change() {
        let mut n = one_server(1.0);
        n.reconfigure(
            1.0,
            &[spec(CoreKind::Big, 1.0), spec(CoreKind::Big, 1.0)],
            false,
            0.0,
        );
    }
}
