//! Deterministic, splittable random number generation.
//!
//! Every stochastic component of the simulator draws from a [`SimRng`]
//! seeded explicitly, so whole experiments are bit-reproducible. Independent
//! streams (arrivals, service demands, policy exploration, …) are derived
//! with [`SimRng::fork`], which decorrelates them without sharing state.

/// Deterministic RNG for the simulator.
///
/// Internally an xoshiro256++ generator whose state is expanded from the
/// 64-bit seed with SplitMix64 (the initialisation the xoshiro authors
/// recommend), so the crate needs no external RNG dependency and the
/// stream is stable across platforms and toolchain versions.
///
/// # Examples
///
/// ```
/// use hipster_sim::SimRng;
///
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// // Forked streams are independent of the parent's later draws.
/// let mut parent = SimRng::seed(7);
/// let mut child = parent.fork("arrivals");
/// let x = child.uniform();
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent child stream identified by `label`.
    ///
    /// The child's seed mixes the parent's next output with a hash of the
    /// label, so forks with different labels diverge even when taken from
    /// identical parent states.
    pub fn fork(&mut self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        SimRng::seed(self.next_u64() ^ h)
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let [a, b, c, d] = self.state;
        let out = a.wrapping_add(d).rotate_left(23).wrapping_add(a);
        let t = b << 17;
        let mut s = [a, b, c, d];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        out
    }

    /// Uniform draw in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot draw from empty range");
        // Lemire-style widening multiply, without the rejection step: the
        // residual bias is O(n / 2^64), negligible for the small `n` the
        // simulator draws (add rejection before using this for large n).
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Bernoulli draw with probability `p` of `true`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} not in [0,1]");
        self.uniform() < p
    }
}

/// A sampleable distribution over `f64`.
///
/// Implemented by the distributions in [`crate::dist`]; workload models use
/// trait objects of this to describe service demands.
pub trait Sampler: std::fmt::Debug + Send {
    /// Draws one value.
    fn sample(&self, rng: &mut SimRng) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_deterministic() {
        let mut a = SimRng::seed(123);
        let mut b = SimRng::seed(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn forks_with_different_labels_diverge() {
        let mut p1 = SimRng::seed(9);
        let mut p2 = SimRng::seed(9);
        let mut a = p1.fork("arrivals");
        let mut b = p2.fork("service");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn forks_are_reproducible() {
        let mut p1 = SimRng::seed(9);
        let mut p2 = SimRng::seed(9);
        let mut a = p1.fork("x");
        let mut b = p2.fork("x");
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn uniform_in_bounds() {
        let mut r = SimRng::seed(5);
        for _ in 0..1000 {
            let x = r.uniform_in(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn uniform_in_rejects_empty() {
        SimRng::seed(0).uniform_in(1.0, 1.0);
    }
}
