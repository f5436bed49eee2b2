//! The open-loop arrival stream: one generator that draws an interval's
//! arrival events, burst sizes and request demands, the chunks that carry
//! them from a helper thread to the engine's event loop, and the gate that
//! decides whether the generator runs on a helper thread at all.
//!
//! In an open loop nothing the node does feeds back into when requests
//! arrive or what they demand, so an interval's arrival stream can be
//! drawn ahead of the loop that serves it. [`ArrivalGen`] draws it in this
//! order, wherever it runs:
//!
//! 1. the first gap from the interval start, from the arrival stream;
//! 2. for each arrival before the interval end, its burst size and that
//!    many demands from the demand stream, and the next gap;
//! 3. nothing after the first gap that reaches the interval end, which is
//!    drawn and discarded.
//!
//! The event loop reads the stream through [`Arrivals`]. Inline, that is
//! the generator itself, drawing each event as the loop takes it. On a
//! spare core, [`relay`] runs the generator on a scoped helper thread that
//! fills [`CHUNKS_IN_FLIGHT`] engine-owned [`ArrivalChunk`]s ahead of the
//! loop and hands them over a bounded channel. Both run the same generator
//! under the same loop, and the demand and arrival streams are separate,
//! so both give the same bits.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SendError, SyncSender};
use std::sync::OnceLock;
use std::thread::ScopedJoinHandle;

use crate::dist::Exponential;
use crate::request::Demand;
use crate::rng::{Sampler, SimRng};
use crate::traits::LcModel;

/// Arrival events per chunk.
const CHUNK_ARRIVALS: usize = 64;

/// Request demands per chunk: one hand-off carries about 25 µs of the
/// loop's work. A burst whose demands do not fit continues at the head of
/// the next chunk, so no chunk grows past this.
const CHUNK_DEMANDS: usize = 512;

/// Chunks a helper interval circulates: one in the event loop's hands, the
/// rest filled ahead of it or being filled. The channels hold this many,
/// so a send never blocks; only a side that has nothing to work on waits.
const CHUNKS_IN_FLIGHT: usize = 4;

/// Fewest expected requests (offered rate × interval) for which an
/// interval's generator earns a helper thread. On a 2-core x86-64 host a
/// scoped spawn and join costs 31–37 µs, and with the ziggurat normal
/// moving the draws off the loop saves about 6.5 ns of the loop's 53 ns
/// per request on the Juno, so the helper repays its spawn after about
/// 5000 requests. An interval just under that loses a few microseconds at
/// most, and 8192 read within noise of this value on the Juno and the
/// sweep; outputs are bit-identical at any value. One Juno node at 1 s
/// intervals clears it from about 11% of Memcached's 36k RPS maximum
/// load. A cluster node at 50 ms intervals needs more than twice its
/// maximum load, which only the overloaded survivors of a zone wave reach,
/// inside a node stage that already fills the cores.
const HELPER_MIN_REQUESTS: f64 = 4096.0;

/// Engines in this process now stepping an interval. Each step adds and
/// subtracts once, which costs nothing measurable even while a 1024-node
/// cluster's node stage steps engines on two cores. It publishes no other
/// data, so its updates are `Relaxed`; a stale read only misplaces one
/// generator.
static STEPPING: AtomicUsize = AtomicUsize::new(0);

/// Where an interval's arrival generator runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Site {
    /// On the event loop's thread, drawing each event as the loop takes it.
    Inline,
    /// On a scoped helper thread, up to [`CHUNKS_IN_FLIGHT`] − 1 chunks
    /// ahead of the loop.
    Helper,
}

/// Whether an interval's generator borrows a core. It does only when all
/// of these hold: the interval is open-loop (a closed loop's arrivals wait
/// on completions), it expects at least [`HELPER_MIN_REQUESTS`] requests,
/// the host has a second core, and no other engine is stepping (the
/// parallel node stage and multi-worker fleets already fill the cores).
pub(crate) fn borrows_core(
    open_loop: bool,
    expected_requests: f64,
    cores: usize,
    others_stepping: usize,
) -> bool {
    open_loop && expected_requests >= HELPER_MIN_REQUESTS && cores >= 2 && others_stepping == 0
}

/// The cores this process may run on, read once per process: the call
/// costs tens of microseconds, as much as a short interval's whole step.
fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// An engine's place in [`STEPPING`], held while its interval steps and
/// released on drop, also when the step panics.
#[derive(Debug)]
pub(crate) struct Stepping {
    /// Other engines stepping when this one registered.
    others: usize,
}

impl Stepping {
    fn enter() -> Self {
        Stepping {
            others: STEPPING.fetch_add(1, Ordering::Relaxed),
        }
    }
}

impl Drop for Stepping {
    fn drop(&mut self) {
        STEPPING.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Registers an engine's interval as stepping, for as long as the returned
/// guard lives, and decides where its generator runs ([`borrows_core`]).
pub(crate) fn choose_site(open_loop: bool, expected_requests: f64) -> (Site, Stepping) {
    let stepping = Stepping::enter();
    let site = if borrows_core(open_loop, expected_requests, host_cores(), stepping.others) {
        Site::Helper
    } else {
        Site::Inline
    };
    (site, stepping)
}

/// One arrival event: when it happens and how many requests it brings.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    t: f64,
    burst: usize,
}

/// A run of an interval's arrival stream, as a helper hands it over: up to
/// [`CHUNK_ARRIVALS`] events and the demands of their bursts, in draw
/// order.
#[derive(Debug)]
struct ArrivalChunk {
    arrivals: Vec<Arrival>,
    /// The demands of this chunk's bursts. It starts with the rest of the
    /// previous chunk's last burst when that burst did not fit.
    demands: Vec<Demand>,
    /// Whether the stream ends with this chunk.
    last: bool,
}

impl ArrivalChunk {
    /// An empty chunk with room for a full one, so that filling it never
    /// allocates (a helper thread that allocates would open a malloc arena
    /// of its own).
    fn new() -> Self {
        ArrivalChunk {
            arrivals: Vec::with_capacity(CHUNK_ARRIVALS),
            demands: Vec::with_capacity(CHUNK_DEMANDS),
            last: false,
        }
    }

    /// Empties the chunk, keeping its room.
    fn reset(&mut self) {
        self.arrivals.clear();
        self.demands.clear();
        self.last = false;
    }
}

/// Everything a helper interval circulates: the chunk buffers and both
/// channels. The engine keeps it between helper intervals, so a warm one
/// allocates nothing on either thread (a new channel is a cache-aligned
/// allocation, and one per interval fragments the heap).
#[derive(Debug)]
pub(crate) struct Conduit {
    chunks: Vec<ArrivalChunk>,
    /// Filled chunks, helper to loop.
    full: (SyncSender<ArrivalChunk>, Receiver<ArrivalChunk>),
    /// Spent chunks, loop to helper.
    spent: (SyncSender<ArrivalChunk>, Receiver<ArrivalChunk>),
}

impl Conduit {
    fn new() -> Self {
        Conduit {
            chunks: (0..CHUNKS_IN_FLIGHT).map(|_| ArrivalChunk::new()).collect(),
            full: sync_channel(CHUNKS_IN_FLIGHT),
            spent: sync_channel(CHUNKS_IN_FLIGHT),
        }
    }
}

/// Draws one interval's open-loop arrival stream (see the module docs for
/// the draw order): event by event for an inline loop, chunk by chunk on a
/// helper thread.
///
/// It holds `&mut` to the model and to both streams for the interval.
/// `LcModel` is `Send` but not `Sync`, so a shared `&dyn LcModel` could not
/// move to a helper thread; exclusive access needs only `Send`.
#[derive(Debug)]
pub(crate) struct ArrivalGen<'a> {
    lc: &'a mut dyn LcModel,
    demand_rng: &'a mut SimRng,
    arrival_rng: &'a mut SimRng,
    /// Inter-arrival-event gaps; `None` when the interval offers no load.
    iat: Option<Exponential>,
    t_end: f64,
    /// The next arrival event's time, its gap drawn but the event not yet
    /// taken; `None` once a gap reached the interval end.
    next: Option<f64>,
    /// Demands of the last burst taken that [`ArrivalGen::fill`] has not
    /// drawn yet, because its chunk was full.
    owed: usize,
}

impl<'a> ArrivalGen<'a> {
    /// Starts the stream of the interval `[now, t_end)`, drawing its first
    /// gap.
    pub(crate) fn new(
        lc: &'a mut dyn LcModel,
        demand_rng: &'a mut SimRng,
        arrival_rng: &'a mut SimRng,
        iat: Option<Exponential>,
        now: f64,
        t_end: f64,
    ) -> Self {
        let mut gen = ArrivalGen {
            lc,
            demand_rng,
            arrival_rng,
            iat,
            t_end,
            next: None,
            owed: 0,
        };
        gen.next = gen.after(now);
        gen
    }

    /// The arrival event one gap after `t`, or `None` when it falls at or
    /// after the interval end.
    fn after(&mut self, t: f64) -> Option<f64> {
        let x = t + self.iat.as_ref()?.sample(self.arrival_rng);
        (x < self.t_end).then_some(x)
    }

    /// Refills `chunk` with the stream's next events and demands, first
    /// finishing a burst that the previous chunk could not hold.
    fn fill(&mut self, chunk: &mut ArrivalChunk) {
        chunk.reset();
        loop {
            let n = self.owed.min(CHUNK_DEMANDS - chunk.demands.len());
            for _ in 0..n {
                chunk.demands.push(self.demand());
            }
            self.owed -= n;
            let full =
                chunk.arrivals.len() == CHUNK_ARRIVALS || chunk.demands.len() == CHUNK_DEMANDS;
            if self.owed > 0 || full {
                break;
            }
            let Some(t) = self.next else { break };
            self.owed = self.take_burst();
            chunk.arrivals.push(Arrival {
                t,
                burst: self.owed,
            });
        }
        chunk.last = self.next.is_none() && self.owed == 0;
    }
}

/// The event loop's view of an interval's arrival stream, wherever its
/// generator runs: the generator itself when it runs inline, a [`Relay`]
/// when it runs on a helper thread.
pub(crate) trait Arrivals {
    /// Time of the next arrival event, or `None` once the stream has ended.
    fn peek(&mut self) -> Option<f64>;

    /// Takes the event [`Arrivals::peek`] returned; returns its burst size.
    /// Its demands follow through [`Arrivals::demand`].
    fn take_burst(&mut self) -> usize;

    /// The next demand of the burst being taken.
    fn demand(&mut self) -> Demand;
}

/// Inline, the generator draws each event as the loop takes it.
impl Arrivals for ArrivalGen<'_> {
    fn peek(&mut self) -> Option<f64> {
        self.next
    }

    /// Draws the burst size, then the gap to the event after it.
    fn take_burst(&mut self) -> usize {
        let t = self.next.expect("an arrival event is pending");
        let burst = self.lc.sample_burst(self.demand_rng).max(1);
        self.next = self.after(t);
        burst
    }

    fn demand(&mut self) -> Demand {
        self.lc.sample_demand(self.demand_rng)
    }
}

/// What the helper thread hands back when it ends: the chunks still in its
/// hands and its ends of the channels (spent chunks in, full ones out).
type Leftovers = (
    Vec<ArrivalChunk>,
    Receiver<ArrivalChunk>,
    SyncSender<ArrivalChunk>,
);

/// The event loop's end of a helper-fed stream: the chunk in hand, the read
/// positions in it, and the channels to and from the helper.
#[derive(Debug)]
pub(crate) struct Relay<'s> {
    full: Receiver<ArrivalChunk>,
    spent: SyncSender<ArrivalChunk>,
    /// Taken when the helper is joined.
    generator: Option<ScopedJoinHandle<'s, Leftovers>>,
    chunk: ArrivalChunk,
    arrival: usize,
    demand: usize,
}

impl Arrivals for Relay<'_> {
    fn peek(&mut self) -> Option<f64> {
        while self.arrival == self.chunk.arrivals.len() {
            if self.chunk.last {
                return None;
            }
            self.refill();
        }
        Some(self.chunk.arrivals[self.arrival].t)
    }

    fn take_burst(&mut self) -> usize {
        let burst = self.chunk.arrivals[self.arrival].burst;
        self.arrival += 1;
        burst
    }

    fn demand(&mut self) -> Demand {
        if self.demand == self.chunk.demands.len() {
            self.refill();
        }
        let demand = self.chunk.demands[self.demand];
        self.demand += 1;
        demand
    }
}

impl Relay<'_> {
    /// Swaps the spent chunk for the helper's next one.
    fn refill(&mut self) {
        match self.full.recv() {
            Ok(next) => {
                let spent = std::mem::replace(&mut self.chunk, next);
                // Never blocks (the channel holds every chunk). Fails only
                // if the helper is gone, which the next `recv` reports.
                let _ = self.spent.send(spent);
            }
            // The helper hung up before its stream's end: it panicked.
            // Re-raise its panic here, with its own payload.
            Err(_) => match self.generator.take().expect("helper joined once").join() {
                Err(payload) => resume_unwind(payload),
                Ok(_) => unreachable!("a helper ends its stream early only by panicking"),
            },
        }
        self.arrival = 0;
        self.demand = 0;
    }
}

/// The helper thread's body: fills spare chunks first, then the ones the
/// loop hands back, until the stream ends or the loop hangs up (a loop
/// that panics drops its channel ends, which wakes a waiting helper).
fn generate(
    mut gen: ArrivalGen<'_>,
    mut spare: Vec<ArrivalChunk>,
    spent: Receiver<ArrivalChunk>,
    full: SyncSender<ArrivalChunk>,
) -> Leftovers {
    while let Some(mut chunk) = spare.pop().or_else(|| spent.recv().ok()) {
        gen.fill(&mut chunk);
        let last = chunk.last;
        if let Err(SendError(chunk)) = full.send(chunk) {
            spare.push(chunk);
            break;
        }
        if last {
            break;
        }
    }
    (spare, spent, full)
}

/// Runs `gen` on a scoped helper thread and `event_loop` on this one,
/// over the [`Relay`] between them, and returns the loop's result. The
/// [`Conduit`] is built at the first helper interval and reused after.
///
/// The helper is joined explicitly before this returns, so that the next
/// interval's helper reuses its malloc arena. If the generator panics, the
/// panic is re-raised on this thread with its own payload; if the loop
/// panics, its dropped channel ends release the helper.
pub(crate) fn relay<R>(
    gen: ArrivalGen<'_>,
    conduit: &mut Option<Conduit>,
    event_loop: impl FnOnce(&mut Relay<'_>) -> R,
) -> R {
    let Conduit {
        mut chunks,
        full: (full_tx, full),
        spent: (spent, spent_rx),
    } = conduit.take().unwrap_or_else(Conduit::new);
    let mut chunk = chunks.pop().expect("a conduit holds every chunk");
    chunk.reset();
    std::thread::scope(|scope| {
        let helper = scope.spawn(move || generate(gen, chunks, spent_rx, full_tx));
        let mut relay = Relay {
            full,
            spent,
            generator: Some(helper),
            chunk,
            arrival: 0,
            demand: 0,
        };
        let out = event_loop(&mut relay);
        let Relay {
            full,
            spent,
            generator,
            chunk,
            ..
        } = relay;
        // Holding the last chunk means the helper sent everything and
        // returns. A loop that stopped short drops its channel ends here
        // instead, which releases a helper still waiting for a spent
        // chunk; the conduit is then rebuilt next time.
        let ends = chunk.last.then_some((full, spent));
        let helper = generator.expect("the stream ended, so its helper was not joined yet");
        let (mut chunks, spent_rx, full_tx) = helper.join().unwrap_or_else(|p| resume_unwind(p));
        if let Some((full, spent)) = ends {
            chunks.extend(spent_rx.try_iter());
            chunks.push(chunk);
            *conduit = Some(Conduit {
                chunks,
                full: (full_tx, full),
                spent: (spent, spent_rx),
            });
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::QosTarget;
    use hipster_platform::{CoreKind, Frequency};
    use std::cell::Cell;

    /// Geometric bursts of mean `burst_mean` and demands numbered in draw
    /// order; panics on demand draw `panic_at`.
    #[derive(Debug)]
    struct Numbered {
        burst_mean: f64,
        drawn: Cell<u64>,
        panic_at: Option<u64>,
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
            assert_ne!(Some(k), self.panic_at, "numbered model fails on draw {k}");
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

    fn numbered(burst_mean: f64, panic_at: Option<u64>) -> Numbered {
        Numbered {
            burst_mean,
            drawn: Cell::new(0),
            panic_at,
        }
    }

    /// Every `(time, demand)` the stream yields, read the way the event
    /// loop reads it.
    fn drain(arrivals: &mut impl Arrivals) -> Vec<(f64, Demand)> {
        let mut out = Vec::new();
        while let Some(t) = arrivals.peek() {
            for _ in 0..arrivals.take_burst() {
                out.push((t, arrivals.demand()));
            }
        }
        out
    }

    fn read_stream(
        lc: &mut Numbered,
        site: Site,
        conduit: &mut Option<Conduit>,
        rate: f64,
    ) -> Vec<(f64, Demand)> {
        let (mut demand_rng, mut arrival_rng) = (SimRng::seed(1), SimRng::seed(2));
        let iat = (rate > 0.0).then(|| Exponential::new(rate));
        let mut gen = ArrivalGen::new(lc, &mut demand_rng, &mut arrival_rng, iat, 3.0, 4.0);
        match site {
            Site::Inline => drain(&mut gen),
            Site::Helper => relay(gen, conduit, |relay| drain(relay)),
        }
    }

    #[test]
    fn both_sites_yield_one_stream_and_keep_the_conduit() {
        // Bursts of mean 300 overflow helper chunks often, some by more
        // than a whole chunk; rate 0 yields an empty stream.
        let mut conduit = None;
        for (burst_mean, rate) in [(1.0, 5000.0), (10.0, 2000.0), (300.0, 40.0), (5.0, 0.0)] {
            let inline = read_stream(
                &mut numbered(burst_mean, None),
                Site::Inline,
                &mut conduit,
                rate,
            );
            // The second and later helper streams reuse the first conduit.
            let helper = read_stream(
                &mut numbered(burst_mean, None),
                Site::Helper,
                &mut conduit,
                rate,
            );
            let kept = conduit
                .as_ref()
                .expect("a finished stream keeps its conduit");
            assert_eq!(
                kept.chunks.len(),
                CHUNKS_IN_FLIGHT,
                "every chunk comes back"
            );
            assert!(kept
                .chunks
                .iter()
                .all(|c| c.arrivals.capacity() >= CHUNK_ARRIVALS
                    && c.demands.capacity() >= CHUNK_DEMANDS));
            assert_eq!(inline, helper, "burst mean {burst_mean}");
            let works: Vec<f64> = inline.iter().map(|(_, d)| d.work).collect();
            let expected: Vec<f64> = (1..=inline.len()).map(|k| k as f64).collect();
            assert_eq!(works, expected, "demands arrive in draw order");
            assert!(inline.iter().all(|&(t, _)| (3.0..4.0).contains(&t)));
            assert_eq!(inline.is_empty(), rate == 0.0);
        }
    }

    #[test]
    fn gate_refuses_each_missing_condition() {
        let heavy = HELPER_MIN_REQUESTS;
        assert!(borrows_core(true, heavy, 2, 0));
        assert!(borrows_core(true, 1e9, 64, 0));
        assert!(!borrows_core(false, heavy, 2, 0), "closed loop");
        assert!(!borrows_core(true, heavy - 1.0, 2, 0), "short interval");
        assert!(!borrows_core(true, 0.0, 2, 0), "no load");
        assert!(!borrows_core(true, heavy, 1, 0), "one core");
        assert!(!borrows_core(true, heavy, 2, 1), "another engine stepping");
    }

    #[test]
    fn an_engine_stepping_keeps_others_inline() {
        // Other tests step engines concurrently, so only lower bounds hold.
        let (_, first) = choose_site(false, 0.0);
        let (site, second) = choose_site(true, 10.0 * HELPER_MIN_REQUESTS);
        assert!(second.others >= 1, "the first interval is still stepping");
        assert_eq!(site, Site::Inline);
        drop((first, second));
    }

    #[test]
    fn a_generator_panic_reaches_the_loop_with_its_own_message() {
        for site in [Site::Inline, Site::Helper] {
            let mut conduit = None;
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                read_stream(&mut numbered(10.0, Some(700)), site, &mut conduit, 2000.0)
            }));
            let payload = caught.expect_err("draw 700 panics");
            let msg = payload
                .downcast_ref::<String>()
                .expect("assert_ne! panics with a formatted message");
            assert!(
                msg.contains("numbered model fails on draw 700"),
                "{site:?}: {msg}"
            );
        }
    }

    /// Runs `event_loop` over a long helper-fed stream on a thread of its
    /// own and returns its outcome, failing instead of hanging if a side
    /// is left blocked.
    fn helper_stream_outcome(
        event_loop: fn(&mut Relay<'_>) -> usize,
    ) -> std::thread::Result<usize> {
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let mut lc = numbered(10.0, None);
            let (mut demand_rng, mut arrival_rng) = (SimRng::seed(1), SimRng::seed(2));
            let iat = Some(Exponential::new(2000.0));
            let gen = ArrivalGen::new(&mut lc, &mut demand_rng, &mut arrival_rng, iat, 0.0, 1.0);
            let mut conduit = None;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                relay(gen, &mut conduit, event_loop)
            }));
            tx.send(outcome).unwrap();
        });
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the stream returns instead of blocking");
        runner
            .join()
            .expect("the runner catches the stream's panic");
        outcome
    }

    #[test]
    fn a_loop_panic_releases_a_waiting_helper() {
        let payload = helper_stream_outcome(|arrivals| {
            arrivals.peek();
            panic!("event loop fails mid-stream")
        })
        .expect_err("the loop panicked");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"event loop fails mid-stream")
        );
    }

    #[test]
    fn a_loop_that_stops_early_still_joins_its_helper() {
        let taken = helper_stream_outcome(|arrivals| {
            arrivals.peek();
            arrivals.take_burst()
        });
        assert!(taken.expect("no panic") >= 1);
    }
}
