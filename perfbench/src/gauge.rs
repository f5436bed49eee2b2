//! A fixed reference kernel that gauges how fast the host runs right now.
//!
//! On a shared host a core's speed moves by up to a third within seconds,
//! as other tenants come and go on the same physical cores and caches, and
//! it stays in a slow or a fast state for long stretches. Taking the fastest
//! or the median of a few replays cannot remove a state that lasts the whole
//! run. So every unit of work the benchmark times (an interval, a cell) is
//! followed by a short sample of this kernel, and the unit's host time is
//! expressed at a reference speed: measured time × the sample's reference
//! duration / the sample's measured duration. The kernel is code of this
//! package that no change to the program touches, so a program that does
//! less work still reads faster, by the same factor.
//!
//! The kernel does the simulator's kind of work: a discrete-event loop over
//! a binary heap, exponential gaps, and scattered updates to 4 MiB of state,
//! twice a core's L2, so that it feels the same cache pressure from other
//! tenants as the engines do. Each thread keeps one kernel for its whole
//! life, so a sample is always warm and always the same work.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Reference duration of one kernel event, nanoseconds: roughly one event's
/// cost on an unloaded 2.1 GHz Xeon core. It only sets the scale.
const REF_NS_PER_ROUND: f64 = 125.0;
/// Pending events in the kernel's queue.
const EVENTS: usize = 4096;
/// Slots of state the events update (4 MiB of `f64`).
const SLOTS: usize = 1 << 19;

/// Bytes of kernel state resident in this process, over all threads.
static RESIDENT: AtomicUsize = AtomicUsize::new(0);

struct Kernel {
    state: Vec<f64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    x: u64,
}

impl Kernel {
    fn new() -> Self {
        let mut kernel = Kernel {
            // A non-zero fill writes every page, so the state is resident
            // from the start and its size is known exactly.
            state: vec![1.0; SLOTS],
            heap: BinaryHeap::with_capacity(EVENTS + 1),
            x: 0x9e37_79b9_7f4a_7c15,
        };
        for id in 0..EVENTS as u32 {
            let t = kernel.next() >> 40;
            kernel.heap.push(Reverse((t, id)));
        }
        let bytes = SLOTS * std::mem::size_of::<f64>()
            + kernel.heap.capacity() * std::mem::size_of::<Reverse<(u64, u32)>>();
        RESIDENT.fetch_add(bytes, Ordering::Relaxed);
        kernel
    }

    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    fn run(&mut self, rounds: u64) {
        let mut acc = 0u64;
        for _ in 0..rounds {
            let Some(Reverse((t, id))) = self.heap.pop() else {
                break;
            };
            let r = self.next();
            let u = ((r >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
            let gap = (-u.ln() * 1000.0) as u64 + 1;
            let slot = (r as usize ^ id as usize) & (SLOTS - 1);
            self.state[slot] = self.state[slot] * 0.5 + gap as f64;
            acc = acc.wrapping_add(self.state[slot] as u64 ^ u64::from(id));
            self.heap.push(Reverse((t + gap, id)));
        }
        black_box(acc);
    }
}

thread_local! {
    static KERNEL: RefCell<Option<Kernel>> = const { RefCell::new(None) };
}

/// Runs `rounds` kernel events on this thread and returns how long they
/// took, seconds. The first call on a thread also builds its kernel, outside
/// the timed part.
pub fn sample(rounds: u64) -> f64 {
    KERNEL.with(|k| {
        let mut k = k.borrow_mut();
        let kernel = k.get_or_insert_with(Kernel::new);
        let start = Instant::now();
        kernel.run(rounds);
        start.elapsed().as_secs_f64()
    })
}

/// Builds this thread's kernel if it has none yet.
pub fn warm() {
    KERNEL.with(|k| {
        k.borrow_mut().get_or_insert_with(Kernel::new);
    });
}

/// The factor that takes a host time measured next to a `rounds`-event
/// sample that took `sample_s` to the reference speed.
pub fn factor(rounds: u64, sample_s: f64) -> f64 {
    rounds as f64 * REF_NS_PER_ROUND * 1e-9 / sample_s.max(1e-12)
}

/// Bytes of kernel state resident in this process, to take out of its peak
/// memory.
pub fn resident_bytes() -> usize {
    RESIDENT.load(Ordering::Relaxed)
}
