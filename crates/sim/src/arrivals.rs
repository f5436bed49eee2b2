//! The open-loop arrival stream: the gaps the event loop draws, the demand
//! stream it reads bursts and demands from, and the generator thread that
//! can draw that stream ahead, across intervals.
//!
//! Each open-loop arrival event takes three kinds of draws: the gap to it,
//! from the arrival stream, and its burst size and that many demands, from
//! the demand stream. A gap depends on the offered rate, which the load
//! pattern sets per interval, so the event loop draws every gap itself
//! ([`Gaps`]). Bursts and demands depend on nothing but the demand stream:
//! each arrival event takes the next burst and its demands, in order,
//! whatever the rate and wherever the interval boundaries fall. So the
//! demand stream can be drawn ahead of the loop by a thread that never
//! reads the load.
//!
//! The loop takes a burst's demands in runs, one call per run
//! ([`Demands::demands`]): inline, one [`LcModel::fill_demands`] call fills
//! a run of up to [`RUN_DEMANDS`]; a generator lends the run in place, up
//! to the end of its chunk.
//!
//! An engine's [`DemandStream`] starts [`DemandStream::Inline`]: the loop
//! draws each burst and demand as it takes it. At the first interval
//! [`Start`] admits, the engine hands the stream to a [`Generator`], one
//! thread for the rest of the engine's life. It fills a ring of
//! [`RING_CHUNKS`] chunks ahead of the loop, across interval boundaries, so
//! every interval starts with its demands already drawn; it parks when the
//! ring is full and is woken once half of it is spent. Both sites draw the
//! same bursts and demands in the same order, and the two streams are
//! separate, so an engine gives the same bits whenever its generator
//! starts, or if it never does.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

use crate::dist::Exponential;
use crate::request::Demand;
use crate::rng::{Sampler, SimRng};
use crate::traits::LcModel;

/// Bursts per chunk.
pub(crate) const CHUNK_BURSTS: usize = 64;

/// The most demands the inline site draws at once: a longer burst arrives
/// in runs of this many. The run's buffer (1 KB) lives in
/// [`InlineDemands`], on the stack of the step that draws inline.
pub(crate) const RUN_DEMANDS: usize = 64;

/// Request demands per chunk: one hand-off carries about 25 µs of the
/// loop's work. A burst whose demands do not fit continues at the head of
/// the next chunk, so no chunk grows past this.
const CHUNK_DEMANDS: usize = 512;

/// Chunks in a generator's ring, about 140 KB: one in the loop's hands,
/// the rest filled ahead of it or being filled. A 32-chunk ring read the
/// same on the Juno.
const RING_CHUNKS: usize = 16;

/// Fewest expected requests (offered rate × interval) for which an
/// interval may start its engine's generator. The generator then serves
/// every later open-loop interval of that engine, so the threshold picks
/// engines whose load repays a thread, not intervals. On a 2-core x86-64
/// host the spawn call takes 0.09–0.21 ms, and drawing the demand stream
/// off the loop saves about 9 ns of the Juno's 44 ns per request, so a
/// generator repays its spawn within a few intervals at this threshold.
/// One Juno node at 1 s intervals clears it from about 11% of Memcached's
/// 36k RPS maximum load (`juno-diurnal` reaches that at its 207th
/// interval). A cluster node at 50 ms intervals needs more than twice its
/// maximum load, and never steps alone anyway.
const HELPER_MIN_REQUESTS: f64 = 4096.0;

/// Engines in this process now stepping an interval. Each step adds and
/// subtracts once, which costs nothing measurable even while a 1024-node
/// cluster's node stage steps engines on two cores. It publishes no other
/// data, so its updates are `Relaxed`.
static STEPPING: AtomicUsize = AtomicUsize::new(0);

/// Steps entered in this process so far: each step takes the next ticket.
/// [`STEPPING`] alone cannot see a node-stage worker that is between two
/// nodes, so a cluster node could start a generator and keep it for the
/// cluster's life (a seed-1 `cluster-bursty` replay did, at a node's fifth
/// interval, and its peak RSS rose from 118 to 128 MB). A cluster node's
/// consecutive tickets always have other nodes' tickets between them; a
/// stand-alone engine's follow each other. Read-modify-writes of one atomic
/// are totally ordered, so `Relaxed` tickets are exact.
static TICKETS: AtomicU64 = AtomicU64::new(0);

/// The process's generator budget: one live generator per core beyond the
/// first, so that engines kept alive after stepping alone cannot hold more
/// generator threads than there are spare cores.
pub(crate) static GENERATORS: Budget = Budget::new(|| host_cores() - 1);

/// Whether an interval may start its engine's generator. It may only when
/// all of these hold: the interval is open-loop (a closed loop's arrivals
/// wait on completions), it expects at least [`HELPER_MIN_REQUESTS`]
/// requests, the host has a second core, and the engine steps alone
/// ([`Stepping::alone`]; the parallel node stage and multi-worker fleets
/// already fill the cores).
pub(crate) fn borrows_core(
    open_loop: bool,
    expected_requests: f64,
    cores: usize,
    alone: bool,
) -> bool {
    open_loop && expected_requests >= HELPER_MIN_REQUESTS && cores >= 2 && alone
}

/// The number of cores this process may run on, read once per process: the
/// underlying call costs tens of microseconds, as much as a short
/// interval's whole step. Every site that sizes its threads by the host
/// reads it here, so they all agree.
pub fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// An engine's place in [`STEPPING`], held while its interval steps and
/// released on drop, also when the step panics.
#[derive(Debug)]
pub(crate) struct Stepping {
    /// Whether the engine steps alone: no other engine was stepping when
    /// this step registered, and none has entered a step since the engine's
    /// previous one.
    pub(crate) alone: bool,
}

impl Stepping {
    /// Registers a step of the engine whose previous step took `ticket`
    /// (`None` before its first), and stores this step's ticket there.
    pub(crate) fn enter(ticket: &mut Option<u64>) -> Self {
        let others = STEPPING.fetch_add(1, Ordering::Relaxed);
        let now = TICKETS.fetch_add(1, Ordering::Relaxed);
        let previous = ticket.replace(now);
        Stepping {
            alone: steps_alone(others, previous, now),
        }
    }
}

impl Drop for Stepping {
    fn drop(&mut self) {
        STEPPING.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Whether a step holding ticket `now` runs alone, given the engines
/// stepping when it registered and the engine's previous ticket.
fn steps_alone(others: usize, previous: Option<u64>, now: u64) -> bool {
    others == 0 && previous.is_some_and(|p| p + 1 == now)
}

/// A cap on the generator threads alive at once.
#[derive(Debug)]
pub(crate) struct Budget {
    live: AtomicUsize,
    cap: fn() -> usize,
}

impl Budget {
    pub(crate) const fn new(cap: fn() -> usize) -> Self {
        Budget {
            live: AtomicUsize::new(0),
            cap,
        }
    }

    /// Takes a slot, or `None` when every slot is live. The count publishes
    /// no other data, so it is `Relaxed`.
    fn claim(&'static self) -> Option<Slot> {
        let cap = (self.cap)();
        self.live
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < cap).then_some(n + 1)
            })
            .ok()
            .map(|_| Slot(self))
    }
}

/// A claimed [`Budget`] slot, released on drop.
#[derive(Debug)]
struct Slot(&'static Budget);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// When a step may hand its engine's demand stream to a generator.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Start {
    /// When [`borrows_core`] admits the interval and the budget has a slot.
    Gated(&'static Budget),
    /// At the first open-loop interval the budget has a slot for (the
    /// tests start generators at chosen intervals).
    #[cfg(test)]
    Now(&'static Budget),
    /// Never: the stream stays where it is.
    #[cfg(test)]
    Never,
}

impl Start {
    /// The budget an open-loop interval expecting `expected_requests` may
    /// start a generator from, if it may start one at all.
    pub(crate) fn admits(
        self,
        expected_requests: f64,
        stepping: &Stepping,
    ) -> Option<&'static Budget> {
        match self {
            Start::Gated(budget) => {
                borrows_core(true, expected_requests, host_cores(), stepping.alone)
                    .then_some(budget)
            }
            #[cfg(test)]
            Start::Now(budget) => Some(budget),
            #[cfg(test)]
            Start::Never => None,
        }
    }
}

/// The engine's model, shared with its generator thread.
pub(crate) type SharedModel = Arc<Mutex<Box<dyn LcModel>>>;

/// Locks the engine's model. A model that panics while the loop holds the
/// lock poisons it; every `LcModel` method takes `&self`, so nothing the
/// engine does through the lock can be left half done, and the guard is
/// recovered.
pub(crate) fn lock_model(lc: &SharedModel) -> MutexGuard<'_, Box<dyn LcModel>> {
    lc.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An open-loop interval's arrival events, drawn on the loop's thread from
/// the arrival stream.
#[derive(Debug)]
pub(crate) struct Gaps<'a> {
    /// Inter-arrival-event gaps; `None` when the interval offers no load.
    iat: Option<Exponential>,
    rng: &'a mut SimRng,
    /// The interval end.
    pub(crate) t_end: f64,
}

impl<'a> Gaps<'a> {
    pub(crate) fn new(iat: Option<Exponential>, rng: &'a mut SimRng, t_end: f64) -> Self {
        Gaps { iat, rng, t_end }
    }

    /// The arrival event one gap after `t`, or `None` when it falls at or
    /// after the interval end. The first gap that reaches the end is drawn
    /// and discarded.
    pub(crate) fn after(&mut self, t: f64) -> Option<f64> {
        let x = t + self.iat.as_ref()?.sample(self.rng);
        (x < self.t_end).then_some(x)
    }
}

/// The event loop's view of the demand stream, wherever it is drawn.
pub(crate) trait Demands {
    /// The next arrival event's burst size (at least 1). Its demands
    /// follow through [`Demands::demands`].
    fn burst(&mut self) -> usize;

    /// The next run of the burst being taken: between 1 and `left` of its
    /// demands, where `left ≥ 1` is how many it still has. The caller may
    /// rewrite them in place before it takes the next run.
    fn demands(&mut self, left: usize) -> &mut [Demand];
}

/// The inline site: the loop draws each burst and run of demands as it
/// takes it, each run into `run`.
#[derive(Debug)]
pub(crate) struct InlineDemands<'a> {
    lc: &'a dyn LcModel,
    rng: &'a mut SimRng,
    run: [Demand; RUN_DEMANDS],
}

impl<'a> InlineDemands<'a> {
    pub(crate) fn new(lc: &'a dyn LcModel, rng: &'a mut SimRng) -> Self {
        let run = [Demand::new(0.0, 0.0); RUN_DEMANDS];
        InlineDemands { lc, rng, run }
    }
}

impl Demands for InlineDemands<'_> {
    fn burst(&mut self) -> usize {
        self.lc.sample_burst(self.rng).max(1)
    }

    fn demands(&mut self, left: usize) -> &mut [Demand] {
        let run = &mut self.run[..left.min(RUN_DEMANDS)];
        self.lc.fill_demands(self.rng, run);
        run
    }
}

/// Where an engine's demand stream is drawn.
#[derive(Debug)]
pub(crate) enum DemandStream {
    /// On the event loop's thread, from this stream.
    Inline(SimRng),
    /// On the engine's generator thread, up to a ring ahead of the loop.
    RunAhead(Generator),
}

impl DemandStream {
    /// Whether a generator draws the stream.
    #[cfg(test)]
    pub(crate) fn runs_ahead(&self) -> bool {
        matches!(self, DemandStream::RunAhead(_))
    }

    /// Hands the stream to a generator thread that draws from `lc`, if
    /// `budget` has a slot and the thread starts; otherwise, or if a
    /// generator already draws it, leaves it where it is.
    pub(crate) fn run_ahead(&mut self, lc: &SharedModel, budget: &'static Budget) {
        if let DemandStream::Inline(rng) = self {
            if let Some(generator) = budget
                .claim()
                .and_then(|slot| Generator::start(lc, rng.clone(), slot))
            {
                *self = DemandStream::RunAhead(generator);
            }
        }
    }
}

/// A run of the demand stream as the generator hands it over: up to
/// [`CHUNK_BURSTS`] bursts and their demands, in draw order.
#[derive(Debug, Default)]
struct Chunk {
    bursts: Vec<usize>,
    /// Room for [`CHUNK_DEMANDS`] demands, of which `demands[..filled]`
    /// are this chunk's: those of its bursts, first the rest of an earlier
    /// chunk's last burst when that burst did not fit.
    demands: Vec<Demand>,
    filled: usize,
    /// The payload of the model panic that ended the stream on the draw
    /// after this chunk's last.
    panic: Option<Box<dyn Any + Send>>,
}

impl Chunk {
    /// An empty chunk with room for a full one, so that filling it never
    /// allocates (a generator thread that allocates would open a malloc
    /// arena of its own).
    fn with_room() -> Self {
        Chunk {
            bursts: Vec::with_capacity(CHUNK_BURSTS),
            demands: vec![Demand::new(0.0, 0.0); CHUNK_DEMANDS],
            filled: 0,
            panic: None,
        }
    }

    /// Refills the chunk with the stream's next bursts and demands, first
    /// the `owed` demands of a burst an earlier chunk could not hold. Each
    /// burst's run of demands is one [`LcModel::fill_demands`] call; a
    /// model panic inside it leaves `filled` at the run's start, so the
    /// loop raises the panic when it reaches that burst.
    fn fill(&mut self, lc: &dyn LcModel, rng: &mut SimRng, owed: &mut usize) {
        self.bursts.clear();
        self.filled = 0;
        loop {
            let n = (*owed).min(CHUNK_DEMANDS - self.filled);
            lc.fill_demands(rng, &mut self.demands[self.filled..][..n]);
            self.filled += n;
            *owed -= n;
            let full = self.bursts.len() == CHUNK_BURSTS || self.filled == CHUNK_DEMANDS;
            if *owed > 0 || full {
                return;
            }
            *owed = lc.sample_burst(rng).max(1);
            self.bursts.push(*owed);
        }
    }
}

/// The chunks a generator and its loop pass between them.
#[derive(Debug)]
struct Ring {
    state: Mutex<RingState>,
    /// Wakes a parked generator.
    to_generator: Condvar,
    /// Wakes a loop waiting for a filled chunk.
    to_loop: Condvar,
}

#[derive(Debug)]
struct RingState {
    /// Filled chunks, in draw order.
    full: VecDeque<Chunk>,
    /// Chunks the loop has read, for the generator to refill.
    spent: Vec<Chunk>,
    /// Whether the generator waits for a spent chunk.
    generator_parked: bool,
    /// Whether the loop waits for a filled chunk.
    loop_waiting: bool,
    /// Set when the engine drops: the generator stops.
    stop: bool,
    /// Set when the generator has ended at a model panic.
    ended: bool,
}

impl Ring {
    fn state(&self) -> MutexGuard<'_, RingState> {
        // Neither side can panic while it holds the lock.
        self.state.lock().expect("demand ring lock poisoned")
    }

    /// The next chunk to fill, parking while none is spent; `None` once the
    /// engine stops the generator.
    fn next_spent(&self) -> Option<Chunk> {
        let mut state = self.state();
        loop {
            if state.stop {
                return None;
            }
            if let Some(chunk) = state.spent.pop() {
                return Some(chunk);
            }
            state.generator_parked = true;
            state = self
                .to_generator
                .wait(state)
                .expect("demand ring lock poisoned");
        }
    }

    /// Hands a filled chunk to the loop; `last` marks the stream's end.
    fn hand_over(&self, chunk: Chunk, last: bool) {
        let mut state = self.state();
        state.full.push_back(chunk);
        state.ended = last;
        if state.loop_waiting {
            state.loop_waiting = false;
            self.to_loop.notify_one();
        }
    }
}

/// The generator thread's body: refills spent chunks in stream order until
/// the engine stops it or the model panics. A panic is caught per fill, so
/// the draws before it still reach the loop, in the chunk that carries the
/// payload, and the thread ends after handing that chunk over.
fn generate(ring: &Ring, lc: &SharedModel, mut rng: SimRng) {
    let mut owed = 0;
    while let Some(mut chunk) = ring.next_spent() {
        chunk.panic = {
            let model = lock_model(lc);
            catch_unwind(AssertUnwindSafe(|| {
                chunk.fill(&**model, &mut rng, &mut owed)
            }))
            .err()
        };
        let last = chunk.panic.is_some();
        ring.hand_over(chunk, last);
        if last {
            return;
        }
    }
}

/// An engine's generator thread, and the loop's end of its ring: the chunk
/// in hand and the read positions in it. Dropping it stops the thread,
/// joins it and releases its budget slot.
#[derive(Debug)]
pub(crate) struct Generator {
    ring: Arc<Ring>,
    chunk: Chunk,
    burst_at: usize,
    demand_at: usize,
    /// Taken when the thread is joined.
    thread: Option<JoinHandle<()>>,
    /// Released after the join, when the generator's fields drop.
    _slot: Slot,
}

impl Generator {
    /// Allocates the ring on this thread and spawns the generator to draw
    /// `rng`'s stream from `lc`; `None` if the thread does not start.
    fn start(lc: &SharedModel, rng: SimRng, slot: Slot) -> Option<Self> {
        let mut spent = Vec::with_capacity(RING_CHUNKS);
        spent.extend((1..RING_CHUNKS).map(|_| Chunk::with_room()));
        let ring = Arc::new(Ring {
            state: Mutex::new(RingState {
                full: VecDeque::with_capacity(RING_CHUNKS),
                spent,
                generator_parked: false,
                loop_waiting: false,
                stop: false,
                ended: false,
            }),
            to_generator: Condvar::new(),
            to_loop: Condvar::new(),
        });
        let thread = {
            let (ring, lc) = (Arc::clone(&ring), Arc::clone(lc));
            std::thread::Builder::new()
                .name("demand-stream".into())
                .spawn(move || generate(&ring, &lc, rng))
                .ok()?
        };
        Some(Generator {
            ring,
            chunk: Chunk::with_room(),
            burst_at: 0,
            demand_at: 0,
            thread: Some(thread),
            _slot: slot,
        })
    }

    /// Swaps the chunk in hand for the next filled one, waiting for it if
    /// the generator is behind. If the chunk in hand carries a model panic,
    /// re-raises it here instead, with the model's own payload: the loop
    /// has reached the draw that panicked.
    fn refill(&mut self) {
        if let Some(payload) = self.chunk.panic.take() {
            resume_unwind(payload);
        }
        let mut state = self.ring.state();
        state.spent.push(std::mem::take(&mut self.chunk));
        if state.generator_parked && state.spent.len() >= RING_CHUNKS / 2 {
            state.generator_parked = false;
            self.ring.to_generator.notify_one();
        }
        self.chunk = loop {
            if let Some(next) = state.full.pop_front() {
                break next;
            }
            if state.ended {
                drop(state);
                panic!("the demand stream ended at a model panic already raised");
            }
            state.loop_waiting = true;
            state = self
                .ring
                .to_loop
                .wait(state)
                .expect("demand ring lock poisoned");
        };
        self.burst_at = 0;
        self.demand_at = 0;
    }
}

impl Demands for Generator {
    fn burst(&mut self) -> usize {
        while self.burst_at == self.chunk.bursts.len() {
            self.refill();
        }
        self.burst_at += 1;
        self.chunk.bursts[self.burst_at - 1]
    }

    fn demands(&mut self, left: usize) -> &mut [Demand] {
        while self.demand_at == self.chunk.filled {
            self.refill();
        }
        let at = self.demand_at;
        self.demand_at = self.chunk.filled.min(at + left);
        &mut self.chunk.demands[at..self.demand_at]
    }
}

impl Drop for Generator {
    fn drop(&mut self) {
        // A drop must not panic, so a poisoned lock is recovered; the flag
        // is all this writes.
        let mut state = self
            .ring
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        state.stop = true;
        drop(state);
        self.ring.to_generator.notify_one();
        if let Some(thread) = self.thread.take() {
            // The thread catches the model's panics, so it returns normally
            // unless this module has a bug, which a drop cannot report.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::QosTarget;
    use hipster_platform::{CoreKind, Frequency};
    use std::cell::Cell;

    /// Geometric-ish bursts of mean `burst_mean` and demands numbered in
    /// draw order.
    #[derive(Debug)]
    struct Numbered {
        burst_mean: f64,
        drawn: Cell<u64>,
    }

    impl LcModel for Numbered {
        fn name(&self) -> &str {
            "numbered"
        }
        fn max_load_rps(&self) -> f64 {
            1.0
        }
        fn qos(&self) -> QosTarget {
            QosTarget::new(0.95, 0.01)
        }
        fn sample_demand(&self, rng: &mut SimRng) -> Demand {
            let k = self.drawn.get() + 1;
            self.drawn.set(k);
            Demand::new(k as f64, rng.uniform())
        }
        fn service_speed(&self, _kind: CoreKind, _freq: Frequency) -> f64 {
            1.0
        }
        fn sample_burst(&self, rng: &mut SimRng) -> usize {
            1 + (rng.uniform() * 2.0 * (self.burst_mean - 1.0)) as usize
        }
        fn mean_burst(&self) -> f64 {
            self.burst_mean
        }
    }

    fn numbered(burst_mean: f64) -> SharedModel {
        Arc::new(Mutex::new(Box::new(Numbered {
            burst_mean,
            drawn: Cell::new(0),
        })))
    }

    static UNCAPPED: Budget = Budget::new(|| usize::MAX);

    /// Every `(time, demand)` one interval yields, read the way the event
    /// loop reads it: each burst in runs.
    fn drain(gaps: &mut Gaps<'_>, demands: &mut impl Demands, start: f64) -> Vec<(f64, Demand)> {
        let mut out = Vec::new();
        let mut next = gaps.after(start);
        while let Some(t) = next {
            let mut left = demands.burst();
            next = gaps.after(t);
            while left > 0 {
                let run = demands.demands(left);
                assert!((1..=left).contains(&run.len()), "{} of {left}", run.len());
                out.extend(run.iter().map(|&d| (t, d)));
                left -= run.len();
            }
        }
        out
    }

    /// Reads one stream through 1 s intervals at `rates`, one interval per
    /// rate, with the generator started before interval `start_at` (never
    /// when it is past the end).
    fn read_intervals(lc: &SharedModel, rates: &[f64], start_at: usize) -> Vec<(f64, Demand)> {
        let (mut stream, mut arrival_rng) =
            (DemandStream::Inline(SimRng::seed(1)), SimRng::seed(2));
        let mut out = Vec::new();
        for (k, &rate) in rates.iter().enumerate() {
            if k == start_at {
                stream.run_ahead(lc, &UNCAPPED);
                assert!(stream.runs_ahead());
            }
            let iat = (rate > 0.0).then(|| Exponential::new(rate));
            let (start, mut gaps) = (k as f64, Gaps::new(iat, &mut arrival_rng, k as f64 + 1.0));
            out.extend(match &mut stream {
                DemandStream::Inline(rng) => {
                    let model = lock_model(lc);
                    drain(&mut gaps, &mut InlineDemands::new(&**model, rng), start)
                }
                DemandStream::RunAhead(generator) => drain(&mut gaps, generator, start),
            });
        }
        if let DemandStream::RunAhead(generator) = &stream {
            let state = generator.ring.state();
            assert!(
                state.full.iter().chain(&state.spent).all(|c| {
                    c.bursts.capacity() == CHUNK_BURSTS && c.demands.capacity() == CHUNK_DEMANDS
                }),
                "no chunk grows, so the generator never allocates"
            );
        }
        out
    }

    #[test]
    fn the_stream_runs_ahead_across_intervals_bit_for_bit() {
        // Bursts of mean 300 overflow chunks often, some by more than a
        // whole chunk, and span interval boundaries; rate 0 takes nothing.
        let rates = [40.0, 0.0, 3.0, 25.0, 0.0, 0.0, 60.0, 1.0, 30.0, 45.0];
        let inline = read_intervals(&numbered(300.0), &rates, usize::MAX);
        assert!(
            inline.len() > 20 * CHUNK_DEMANDS,
            "{} demands",
            inline.len()
        );
        let works: Vec<f64> = inline.iter().map(|(_, d)| d.work).collect();
        let expected: Vec<f64> = (1..=inline.len()).map(|k| k as f64).collect();
        assert_eq!(works, expected, "demands arrive in draw order");
        // The loop reads bursts longer than a chunk, in runs that straddle
        // chunk boundaries.
        let longest = inline
            .iter()
            .zip(&inline[1..])
            .fold((1, 1), |(run, most), (a, b)| {
                let run = if a.0 == b.0 { run + 1 } else { 1 };
                (run, most.max(run))
            })
            .1;
        assert!(longest > CHUNK_DEMANDS, "longest burst {longest}");
        for start_at in [0, 1, 4, 7] {
            let ahead = read_intervals(&numbered(300.0), &rates, start_at);
            assert!(
                ahead == inline,
                "generator started before interval {start_at}"
            );
        }
        // Unit bursts fill chunks by burst count instead.
        let rates = [2000.0, 500.0, 0.0, 3000.0];
        let inline = read_intervals(&numbered(1.0), &rates, usize::MAX);
        assert!(inline == read_intervals(&numbered(1.0), &rates, 0));
    }

    #[test]
    fn gate_refuses_each_missing_condition() {
        let heavy = HELPER_MIN_REQUESTS;
        assert!(borrows_core(true, heavy, 2, true));
        assert!(borrows_core(true, 1e9, 64, true));
        assert!(!borrows_core(false, heavy, 2, true), "closed loop");
        assert!(!borrows_core(true, heavy - 1.0, 2, true), "short interval");
        assert!(!borrows_core(true, 0.0, 2, true), "no load");
        assert!(!borrows_core(true, heavy, 1, true), "one core");
        assert!(
            !borrows_core(true, heavy, 2, false),
            "another engine stepping"
        );
    }

    #[test]
    fn an_engine_steps_alone_only_between_consecutive_tickets() {
        assert!(steps_alone(0, Some(6), 7), "nothing stepped in between");
        assert!(!steps_alone(0, None, 7), "an engine's first step");
        assert!(
            !steps_alone(0, Some(5), 7),
            "another engine stepped between"
        );
        assert!(!steps_alone(1, Some(6), 7), "another engine is stepping");
    }

    #[test]
    fn an_engine_stepping_keeps_others_inline() {
        // Other tests step engines concurrently, so only refusals hold.
        let (mut a, mut b) = (None, None);
        let first = Stepping::enter(&mut a);
        let second = Stepping::enter(&mut b);
        assert!(!second.alone, "the first interval is still stepping");
        let start = Start::Gated(&UNCAPPED);
        assert!(start.admits(10.0 * HELPER_MIN_REQUESTS, &second).is_none());
        drop((first, second));
        let (third, fourth) = (Stepping::enter(&mut a), Stepping::enter(&mut b));
        assert!(
            !third.alone,
            "the other engine stepped since the first's last step"
        );
        drop((third, fourth));
    }

    #[test]
    fn a_budget_hands_out_its_slots_and_takes_them_back() {
        static TWO: Budget = Budget::new(|| 2);
        let (a, b) = (TWO.claim(), TWO.claim());
        assert!(a.is_some() && b.is_some());
        assert!(TWO.claim().is_none(), "both slots are live");
        drop(a);
        assert!(TWO.claim().is_some(), "a dropped slot is free again");
        drop(b);
        assert_eq!(TWO.live.load(Ordering::Relaxed), 0);
    }
}
