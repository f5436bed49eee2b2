//! Probability distributions used by the workload models.
//!
//! Implemented from scratch on top of [`SimRng`] so the simulator has no
//! external RNG dependency at all: exponential (inversion), normal
//! (ziggurat), lognormal, bounded Pareto (inversion) and Zipf
//! (rejection-free inversion over a precomputed CDF).
//!
//! # The normal ziggurat
//!
//! [`Normal`] (and so every [`LogNormal`] service demand and the engine's
//! interference jitter) draws through a 256-layer ziggurat (Marsaglia &
//! Tsang, "The Ziggurat Method for Generating Random Variables", J. Stat.
//! Softw. 2000) with Doornik's fix ("An Improved Ziggurat Method to
//! Generate Normal Random Samples", 2005): each attempt takes one
//! `next_u64`, whose low 8 bits pick the layer and whose top 52 bits give
//! `u ∈ [−1, 1)`, so the layer and the value share no bits. About 98.5% of
//! attempts take the fast path — one table lookup, one multiply, one
//! compare — and return `u·x[i]`. The rest test the wedge against
//! `exp(−x²/2)` or, on the base layer, draw from the tail beyond `R` by
//! Marsaglia's method.
//!
//! The tables `x[0..=256]` and `f[0..=256]` are committed as `u64` bit
//! patterns; nothing is computed at start-up. They were generated once in
//! exact arithmetic (Python `decimal` at 80 digits, whose `exp`, `ln` and
//! `sqrt` are correctly rounded, with `erfc` by its series), solving for
//! the `R` at which the layer recurrence closes at the mode:
//!
//! - `R = 3.6541528853610088` (`x[1]`), the base layer's right edge;
//! - `V = 0.004928673233974655`, every layer's area: `R·f(R)` plus the
//!   tail `∫_R^∞ exp(−x²/2) dx` for the base, `x[i]·(f[i+1] − f[i])` above;
//! - `x[0] = V / f(R)`, `x[i+1] = f⁻¹(f(x[i]) + V / x[i])`, `x[256] = 0`;
//! - `f[i] = exp(−x[i]²/2)` of the rounded `x[i]`, each entry rounded to
//!   the nearest `f64`.
//!
//! Draws that still call the platform libm: `exp` in the lognormal and in
//! the ziggurat's wedge test, `ln` in exponential gaps, geometric bursts
//! and the ziggurat's tail, and `powf` in the bounded Pareto.

use crate::rng::{Sampler, SimRng};

/// Exponential distribution with the given rate (mean `1/rate`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn new(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "invalid rate: {rate}");
        Exponential { rate }
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }
}

impl Sampler for Exponential {
    #[inline]
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inversion: -ln(1-U)/rate; 1-U avoids ln(0).
        -(1.0 - rng.uniform()).ln() / self.rate
    }
}

/// Normal distribution, sampled by the 256-layer ziggurat described in the
/// [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or either parameter is not finite.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(
            mean.is_finite() && std_dev.is_finite() && std_dev >= 0.0,
            "invalid normal parameters: mean {mean}, std dev {std_dev}"
        );
        Normal { mean, std_dev }
    }
}

impl Sampler for Normal {
    #[inline]
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.mean + self.std_dev * standard_normal(rng)
    }
}

/// One standard-normal draw by the ziggurat (see the [module docs](self)):
/// the fast path inline, everything else in [`normal_off_fast_path`].
#[inline]
pub(crate) fn standard_normal(rng: &mut SimRng) -> f64 {
    let (i, u, x) = zig_attempt(rng);
    if x.abs() < f64::from_bits(ZIG_X[i + 1]) {
        return x;
    }
    normal_off_fast_path(rng, i, u, x)
}

/// One ziggurat attempt: its layer `i`, `u ∈ [−1, 1)` and `x = u·x[i]`.
#[inline(always)]
fn zig_attempt(rng: &mut SimRng) -> (usize, f64, f64) {
    let bits = rng.next_u64();
    let i = bits as u8 as usize;
    let u = (bits >> 12) as f64 * (1.0 / (1u64 << 51) as f64) - 1.0;
    (i, u, u * f64::from_bits(ZIG_X[i]))
}

/// The attempts off the fast path (about 1.5%), from attempt `(i, u, x)`
/// on: the base layer draws from the tail beyond `R` by Marsaglia's method
/// (exponentials `x = −ln(U₁)/R`, `y = −ln(U₂)` until `2y > x²`, then
/// `±(R + x)`); any other layer tests the wedge against `exp(−x²/2)` and,
/// when it rejects, makes a fresh attempt.
#[cold]
fn normal_off_fast_path(rng: &mut SimRng, mut i: usize, mut u: f64, mut x: f64) -> f64 {
    loop {
        if i == 0 {
            let r = f64::from_bits(ZIG_X[1]);
            loop {
                let x = -(1.0 - rng.uniform()).ln() / r;
                let y = -(1.0 - rng.uniform()).ln();
                if 2.0 * y > x * x {
                    return if u < 0.0 { -(r + x) } else { r + x };
                }
            }
        }
        let (f_lo, f_hi) = (f64::from_bits(ZIG_F[i]), f64::from_bits(ZIG_F[i + 1]));
        if f_hi + (f_lo - f_hi) * rng.uniform() < (-0.5 * x * x).exp() {
            return x;
        }
        (i, u, x) = zig_attempt(rng);
        if x.abs() < f64::from_bits(ZIG_X[i + 1]) {
            return x;
        }
    }
}

/// Ziggurat abscissae `x[0..=256]` as `f64` bit patterns (module docs).
#[rustfmt::skip]
static ZIG_X: [u64; 257] = [
    0x400f493b7815d982, 0x400d3bb48209ad33, 0x400b981f3878fdb0, 0x400a8fdc78947759,
    0x4009cbee014057aa, 0x40092ee0946f4496, 0x4008ab0fbfaa7c14, 0x400839030529f233,
    0x4007d42df4d6ce8b, 0x4007799556090672, 0x40072728f05f7a33, 0x4006db6b8d09e231,
    0x40069540be9fe5c2, 0x400653ce7b006aea, 0x40061669cf861e4b, 0x4005dc8a243ad0fe,
    0x4005a5c08b718dd9, 0x400571b1a94ae41c, 0x40054011523a7e43, 0x4005109f53e9ac42,
    0x4004e3250dcd8903, 0x4004b7739d6b5a28, 0x40048d62759c43bd, 0x400464ce44a73a16,
    0x40043d9815545e94, 0x400417a49cb9e5db, 0x4003f2dbaa60f475, 0x4003cf27b31704a6,
    0x4003ac7570ae88fa, 0x40038ab39256410a, 0x400369d27a33a840, 0x400349c405ae12a3,
    0x40032a7b5e68a4a3, 0x40030becd256aeee, 0x4002ee0db1a978f5, 0x4002d0d43196db97,
    0x4002b437532a0a53, 0x4002982ecd770e78, 0x40027cb2faa8592e, 0x400261bcc77658e0,
    0x40024745a4ac9c24, 0x40022d477a6fd3ef, 0x400213bc9d04cc82, 0x4001fa9fc2e2d901,
    0x4001e1ebfbe4ae39, 0x4001c99ca971a695, 0x4001b1ad777f2f8f, 0x40019a1a564eebad,
    0x400182df74d21262, 0x40016bf93b9deef5, 0x4001556448602e3d, 0x40013f1d69c4096f,
    0x400129219bbb5d37, 0x4001136e04207043, 0x4000fdffefa69fb8, 0x4000e8d4cf116594,
    0x4000d3ea34aa3d32, 0x4000bf3dd1eed449, 0x4000aacd7571c0c5, 0x4000969708e8a255,
    0x400082988f632e18, 0x40006ed023a72669, 0x40005b3bf6adb37e, 0x400047da4e3ef5c7,
    0x400034a983a902ab, 0x400021a8028fc947, 0x40000ed447d3a075, 0x3ffff859c118f60b,
    0x3fffd360d22fe785, 0x3fffaebb187122bf, 0x3fff8a6604899782, 0x3fff665f20c90168,
    0x3fff42a40fb74d6d, 0x3fff1f328ac25321, 0x3ffefc086101eca9, 0x3ffed9237610a73a,
    0x3ffeb681c0f76f08, 0x3ffe94214b2abf09, 0x3ffe72002f97fe23, 0x3ffe501c99c1d186,
    0x3ffe2e74c4ea46f3, 0x3ffe0d06fb49d219, 0x3ffdebd195522e34, 0x3ffdcad2f8fc490c,
    0x3ffdaa0999206e6e, 0x3ffd8973f4d7fba4, 0x3ffd691096e7f123, 0x3ffd48de1533c647,
    0x3ffd28db1037ef20, 0x3ffd0906328b8f6e, 0x3ffce95e3068e037, 0x3ffcc9e1c73bd690,
    0x3ffcaa8fbd36a2ab, 0x3ffc8b66e0eba617, 0x3ffc6c6608ec8705, 0x3ffc4d8c136e0d1d,
    0x3ffc2ed7e5f07a2d, 0x3ffc10486cec16a0, 0x3ffbf1dc9b81ae82, 0x3ffbd3936b2ec0a2,
    0x3ffbb56bdb85256e, 0x3ffb9764f1e5f73d, 0x3ffb797db93f8928, 0x3ffb5bb541ce3d04,
    0x3ffb3e0aa0e00c01, 0x3ffb207cf09a985c, 0x3ffb030b4fc3a11b, 0x3ffae5b4e18bb338,
    0x3ffac878cd5af5cf, 0x3ffaab563e9ff10a, 0x3ffa8e4c64a0313f, 0x3ffa715a724aa9a7,
    0x3ffa547f9e0bbb8b, 0x3ffa37bb21a2c85e, 0x3ffa1b0c39f93696, 0x3ff9fe7226fad24d,
    0x3ff9e1ec2b6f7414, 0x3ff9c5798cd5d92e, 0x3ff9a919933f99c1, 0x3ff98ccb892e2a33,
    0x3ff9708ebb70d5ef, 0x3ff954627903a28b, 0x3ff9384612ef0afe, 0x3ff91c38dc288349,
    0x3ff9003a2973b591, 0x3ff8e44951446a28, 0x3ff8c865aba10c9d, 0x3ff8ac8e9205c044,
    0x3ff890c35f47f72e, 0x3ff875036f7a7ec7, 0x3ff8594e1fd1f5be, 0x3ff83da2ce899f16,
    0x3ff82200dac88677, 0x3ff80667a486ea1f, 0x3ff7ead68c73dee7, 0x3ff7cf4cf3db22fc,
    0x3ff7b3ca3c8b140a, 0x3ff7984dc8babd94, 0x3ff77cd6faeff44a, 0x3ff7616535e57320,
    0x3ff745f7dc70eedd, 0x3ff72a8e516914c7, 0x3ff70f27f78b68ec, 0x3ff6f3c43161f856,
    0x3ff6d8626128d354, 0x3ff6bd01e8b343bd, 0x3ff6a1a22950b2b3, 0x3ff6864283b13139,
    0x3ff66ae257c99674, 0x3ff64f8104b7260d, 0x3ff6341de8a2b0a4, 0x3ff618b860a31fc5,
    0x3ff5fd4fc89f5e39, 0x3ff5e1e37b2f8cd4, 0x3ff5c672d17d733f, 0x3ff5aafd23241b5a,
    0x3ff58f81c60e8515, 0x3ff574000e555f79, 0x3ff558774e1bb2c9, 0x3ff53ce6d56a6650,
    0x3ff5214df20a8b5c, 0x3ff505abef5e5563, 0x3ff4ea001638a606, 0x3ff4ce49acb311dd,
    0x3ff4b287f602415e, 0x3ff496ba32488f30, 0x3ff47adf9e66c338, 0x3ff45ef773cac75e,
    0x3ff44300e83c30a6, 0x3ff426fb2da6745f, 0x3ff40ae571e09e76, 0x3ff3eebede725a85,
    0x3ff3d28698561de3, 0x3ff3b63bbfb83d06, 0x3ff399dd6fb2b267, 0x3ff37d6abe05586c,
    0x3ff360e2baca52d7, 0x3ff3444470265ea4, 0x3ff3278ee1f4b933, 0x3ff30ac10d6e48da,
    0x3ff2edd9e8cba990, 0x3ff2d0d862e1b855, 0x3ff2b3bb62b82edb, 0x3ff29681c719d71d,
    0x3ff2792a661dd381, 0x3ff25bb40ca96bfe, 0x3ff23e1d7de9c322, 0x3ff2206572c4c6ec,
    0x3ff2028a9940a0a3, 0x3ff1e48b93e0d431, 0x3ff1c666f8f82acf, 0x3ff1a81b51ee6d8b,
    0x3ff189a71a78da37, 0x3ff16b08bfc42020, 0x3ff14c3e9f8e9143, 0x3ff12d4707310fc1,
    0x3ff10e20329515f1, 0x3ff0eec84b16086f, 0x3ff0cf3d664bcc83, 0x3ff0af7d84bc6116,
    0x3ff08f869071f40f, 0x3ff06f565b72a014, 0x3ff04eea9e16a5ff, 0x3ff02e40f5398f9d,
    0x3ff00d56e04234ee, 0x3fefd8537dfa2eb1, 0x3fef956d9e87d7b2, 0x3fef51f654d8f68c,
    0x3fef0de784f0622a, 0x3feec93abdf982d2, 0x3fee83e9337a6f04, 0x3fee3debb5d2ee02,
    0x3fedf73aa9f17656, 0x3fedafce0023b8c8, 0x3fed679d29e41f14, 0x3fed1e9f0e80b74b,
    0x3fecd4c9fe72268f, 0x3fec8a13a5323b66, 0x3fec3e70f9594ef8, 0x3febf1d62abf8239,
    0x3feba4368e529f40, 0x3feb558487427a2f, 0x3feb05b16d136ca2, 0x3feab4ad6e101636,
    0x3fea62676d77cd5f, 0x3fea0eccdca4a731, 0x3fe9b9c98e38c54d, 0x3fe96347822c1ef0,
    0x3fe90b2ea94ecf9e, 0x3fe8b1649e7b769f, 0x3fe855cc53430a7d, 0x3fe7f845ad46f549,
    0x3fe798ad10b32a7e, 0x3fe736dad346f8ad, 0x3fe6d2a292000576, 0x3fe66bd261a37c44,
    0x3fe60231cfd97ef1, 0x3fe59580a707ce9c, 0x3fe52575621ad379, 0x3fe4b1bb363dfead,
    0x3fe439ef8dff9b5a, 0x3fe3bd9ec1a2b134, 0x3fe33c3fc05791fa, 0x3fe2b52e3863d885,
    0x3fe227a28f7a1afa, 0x3fe192a69741367d, 0x3fe0f5053b025d4a, 0x3fe04d32278ebbb4,
    0x3fdf32482d4cd5d0, 0x3fddac2f5a747281, 0x3fdc004d2f386207, 0x3fda230c2e4cd0cb,
    0x3fd801fce82fa71a, 0x3fd57cb938443b71, 0x3fd250af3c2c5bc6, 0x3fcb8d0be3fdf702,
    0x0000000000000000,
];

/// Ziggurat ordinates `f[i] = exp(−x[i]²/2)` as `f64` bit patterns.
#[rustfmt::skip]
static ZIG_F: [u64; 257] = [
    0x3f3f4a946f138432, 0x3f54a605b6b9f70d, 0x3f655f9f43c1b071, 0x3f708a1f03b0b205,
    0x3f769ea8d90cb868, 0x3f7ce160f8ec6838, 0x3f81a59229952f93, 0x3f84eb96421acfeb,
    0x3f8841040d8da47e, 0x3f8ba48d274f8fb3, 0x3f8f152a4f72dd55, 0x3f9149033460301a,
    0x3f930d388dab5e1a, 0x3f94d6eaf2fbb064, 0x3f96a5daf40bbf89, 0x3f9879d1b600c10b,
    0x3f9a529f4e22ebf8, 0x3f9c301983cd0910, 0x3f9e121adb828c6a, 0x3f9ff881d718a5b7,
    0x3fa0f1982e96800b, 0x3fa1e9059f1f6ab7, 0x3fa2e27ce83df492, 0x3fa3ddf2ce98eec4,
    0x3fa4db5d0e11275e, 0x3fa5dab23cf2adce, 0x3fa6dbe9b398d063, 0x3fa7defb77af271d,
    0x3fa8e3e02a68b5ac, 0x3fa9ea90f9295563, 0x3faaf30790385f71, 0x3fabfd3e0f282a2c,
    0x3fad092efeadf161, 0x3fae16d547b25181, 0x3faf262c2b6c6e36, 0x3fb01b979e30e498,
    0x3fb0a4ed2c159620, 0x3fb12f14d0f2179d, 0x3fb1ba0cbe97897c, 0x3fb245d344dd0d90,
    0x3fb2d266cf9b3110, 0x3fb35fc5e4d93e6a, 0x3fb3edef23269a81, 0x3fb47ce1401b2214,
    0x3fb50c9b06fa2bae, 0x3fb59d1b5774669d, 0x3fb62e6124854d12, 0x3fb6c06b73694a45,
    0x3fb753395aaa116e, 0x3fb7e6ca013eefc9, 0x3fb87b1c9dbf2844, 0x3fb9103075a4a09e,
    0x3fb9a604dc9d5b0b, 0x3fba3c9933ea6279, 0x3fbad3ece9caf626, 0x3fbb6bff78f2e22a,
    0x3fbc04d0680b1008, 0x3fbc9e5f493b7403, 0x3fbd38abb9bd91dc, 0x3fbdd3b56176e889,
    0x3fbe6f7bf29aa542, 0x3fbf0bff29520e12, 0x3fbfa93ecb6b222d, 0x3fc0239d54067d2b,
    0x3fc072f94bb8bf85, 0x3fc0c2b33d5209ba, 0x3fc112cb1da26eb9, 0x3fc16340e5a82d63,
    0x3fc1b41492757d42, 0x3fc2054625183c34, 0x3fc256d5a2835eb6, 0x3fc2a8c3137a071b,
    0x3fc2fb0e847c2a65, 0x3fc34db805b4ab88, 0x3fc3a0bfaae8d7ee, 0x3fc3f4258b6931ae,
    0x3fc447e9c20375d6, 0x3fc49c0c6cf5ce30, 0x3fc4f08dade31fc6, 0x3fc5456da9c8683b,
    0x3fc59aac88f31d75, 0x3fc5f04a76f88400, 0x3fc64647a2adf1a4, 0x3fc69ca43e21f260,
    0x3fc6f3607e96471a, 0x3fc74a7c9c7ab5a9, 0x3fc7a1f8d368a322, 0x3fc7f9d5621f7175,
    0x3fc852128a819a39, 0x3fc8aab09192815b, 0x3fc903afbf74fa6a, 0x3fc95d105f6a7c26,
    0x3fc9b6d2bfd2fe5b, 0x3fca10f7322d7e3c, 0x3fca6b7e0b19267d, 0x3fcac667a2571805,
    0x3fcb21b452ccd13b, 0x3fcb7d647a8731aa, 0x3fcbd9787abe18a3, 0x3fcc35f0b7d89d46,
    0x3fcc92cd9971df52, 0x3fccf00f8a5e6fc8, 0x3fcd4db6f8b2514c, 0x3fcdabc455c79006,
    0x3fce0a3816457180, 0x3fce6912b2283cd9, 0x3fcec854a4c99c3f, 0x3fcf27fe6ce998cc,
    0x3fcf88108cb83231, 0x3fcfe88b89df93bd, 0x3fd024b7f6c7747a, 0x3fd0555f2242e9d4,
    0x3fd0863b8f904330, 0x3fd0b74d88b242d5, 0x3fd0e895598709bd, 0x3fd11a134fcf241e,
    0x3fd14bc7bb34ee63, 0x3fd17db2ed5454e5, 0x3fd1afd539c2f04c, 0x3fd1e22ef6188113,
    0x3fd214c079f7cc9c, 0x3fd2478a1f17de87, 0x3fd27a8c414db11a, 0x3fd2adc73e963fd9,
    0x3fd2e13b77210763, 0x3fd314e94d5af62d, 0x3fd348d125f9d19c, 0x3fd37cf368081377,
    0x3fd3b1507cf143ac, 0x3fd3e5e8d08ed2d8, 0x3fd41abcd1357a17, 0x3fd44fccefc324fb,
    0x3fd485199fad6ad3, 0x3fd4baa357109ca2, 0x3fd4f06a8ebf6d91, 0x3fd5266fc2533beb,
    0x3fd55cb3703d00fe, 0x3fd5933619d6eebc, 0x3fd5c9f84376c242, 0x3fd600fa7480d2c6,
    0x3fd6383d377be512, 0x3fd66fc11a25cbe0, 0x3fd6a786ad88de1f, 0x3fd6df8e86124ca5,
    0x3fd717d93ba96148, 0x3fd7506769c7b1e9, 0x3fd78939af9252e7, 0x3fd7c250aff414ab,
    0x3fd7fbad11b8d90d, 0x3fd8354f7faa0dd5, 0x3fd86f38a8ac5ab1, 0x3fd8a9693fde9184,
    0x3fd8e3e1fcb9f113, 0x3fd91ea39b33cb14, 0x3fd959aedbe09f8f, 0x3fd995048418c0c4,
    0x3fd9d0a55e1e93dd, 0x3fda0c923946843c, 0x3fda48cbea20c04b, 0x3fda85534aa4d87e,
    0x3fdac2293a5f5a9a, 0x3fdaff4e9ea1854f, 0x3fdb3cc462b331c7, 0x3fdb7a8b78071319,
    0x3fdbb8a4d6716d8e, 0x3fdbf7117c616a14, 0x3fdc35d26f1d2cb4, 0x3fdc74e8bb00d7c5,
    0x3fdcb45573c0a843, 0x3fdcf419b4ae5b69, 0x3fdd3436a102107b, 0x3fdd74ad6426de2e,
    0x3fddb57f320b56aa, 0x3fddf6ad47763a02, 0x3fde3838ea5f9b7e, 0x3fde7a236a4ec3c0,
    0x3fdebc6e20bd1f50, 0x3fdeff1a717e8f8e, 0x3fdf4229cb2f7aed, 0x3fdf859da7a900c4,
    0x3fdfc9778c7bbd9c, 0x3fe006dc85b8cac2, 0x3fe02931e18b8229, 0x3fe04bbcafa63f2b,
    0x3fe06e7dccf03c33, 0x3fe091761d995d7e, 0x3fe0b4a68d70d9aa, 0x3fe0d8101041429c,
    0x3fe0fbb3a232590f, 0x3fe11f9248311f34, 0x3fe143ad105ea997, 0x3fe16805128639d6,
    0x3fe18c9b709b3c4c, 0x3fe1b171573fd10e, 0x3fe1d687fe549966, 0x3fe1fbe0a992961d,
    0x3fe2217ca92ff7ee, 0x3fe2475d5a90db7f, 0x3fe26d84290504e8, 0x3fe293f28e93cd11,
    0x3fe2baaa14d79545, 0x3fe2e1ac55ea3be9, 0x3fe308fafd6438eb, 0x3fe33097c9703a32,
    0x3fe358848bf550e7, 0x3fe380c32bda00d2, 0x3fe3a955a662cd0b, 0x3fe3d23e10af31a0,
    0x3fe3fb7e99585b7f, 0x3fe425198a355fe0, 0x3fe44f114a493676, 0x3fe479685fdf500f,
    0x3fe4a42172dc5276, 0x3fe4cf3f4f494ebd, 0x3fe4fac4e820b665, 0x3fe526b55a656cd3,
    0x3fe55313f08d9e44, 0x3fe57fe4264c8d8c, 0x3fe5ad29acc85c85, 0x3fe5dae86f4aff66,
    0x3fe6092498802662, 0x3fe637e298550c15, 0x3fe667272a92e31f, 0x3fe696f75e513b26,
    0x3fe6c7589e635a86, 0x3fe6f850baea7aeb, 0x3fe729e5f43f6d0e, 0x3fe75c1f0770d853,
    0x3fe78f033ca0b0d2, 0x3fe7c29a779c6855, 0x3fe7f6ed4b20e2c8, 0x3fe82c050f56cf6b,
    0x3fe861ebfc37bca7, 0x3fe898ad48badefe, 0x3fe8d0554fe60aa4, 0x3fe908f1bd31714b,
    0x3fe94291c21b7a43, 0x3fe97d4657617abe, 0x3fe9b9228d24067e, 0x3fe9f63bee651fd5,
    0x3fea34aafdf5af0c, 0x3fea748bd550c9de, 0x3feab5fef17a2501, 0x3feaf92a3f6ce89f,
    0x3feb3e3a8234dd0d, 0x3feb85653a8ff54f, 0x3febceeb4ee1dc7f, 0x3fec1b1cd9eebae7,
    0x3fec6a5ecea9787c, 0x3fecbd33a8a72de8, 0x3fed144978a119d9, 0x3fed70920657bcef,
    0x3fedd36fa704de93, 0x3fee3f11e027f074, 0x3feeb7545b6ca913, 0x3fef446ac979f084,
    0x3ff0000000000000,
];

/// Lognormal distribution: `exp(N(mu, sigma))`.
///
/// Heavy-tailed service demands (e.g. Web-Search queries over a Zipfian
/// corpus) are modelled with large `sigma`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    base: Normal,
}

impl LogNormal {
    /// Creates a lognormal with location `mu` and scale `sigma` (parameters
    /// of the underlying normal).
    ///
    /// # Panics
    ///
    /// Panics if parameters are invalid for [`Normal::new`].
    pub fn new(mu: f64, sigma: f64) -> Self {
        LogNormal {
            base: Normal::new(mu, sigma),
        }
    }

    /// Constructs the lognormal whose *median* is `median` with scale
    /// `sigma`. The median parameterization is convenient for calibrating
    /// service times ("a typical request takes X µs").
    ///
    /// # Panics
    ///
    /// Panics if `median` is not strictly positive.
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "median must be positive: {median}");
        Self::new(median.ln(), sigma)
    }

    /// Mean of the distribution, `exp(mu + sigma²/2)`.
    pub fn mean(&self) -> f64 {
        (self.base.mean + self.base.std_dev * self.base.std_dev / 2.0).exp()
    }
}

impl Sampler for LogNormal {
    #[inline]
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.base.sample(rng).exp()
    }
}

/// Bounded Pareto distribution on `[lo, hi]` with shape `alpha`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    lo: f64,
    hi: f64,
    alpha: f64,
    /// `lo^alpha`, computed once.
    lo_a: f64,
    /// `hi^alpha`, computed once.
    hi_a: f64,
}

impl BoundedPareto {
    /// Creates a bounded Pareto distribution.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lo < hi` and `alpha > 0`.
    pub fn new(lo: f64, hi: f64, alpha: f64) -> Self {
        assert!(
            lo > 0.0 && hi > lo && alpha > 0.0,
            "invalid bounded Pareto: lo {lo}, hi {hi}, alpha {alpha}"
        );
        BoundedPareto {
            lo,
            hi,
            alpha,
            lo_a: lo.powf(alpha),
            hi_a: hi.powf(alpha),
        }
    }
}

impl Sampler for BoundedPareto {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        let u = rng.uniform();
        let (la, ha) = (self.lo_a, self.hi_a);
        // Inversion of the bounded Pareto CDF.
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / self.alpha)
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `s`, sampled by
/// inversion over a precomputed CDF (O(log n) per draw).
///
/// Used to model the Zipfian popularity of Web-Search terms (Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative/not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s.is_finite() && s >= 0.0, "invalid exponent: {s}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draws a rank in `1..=n` (smaller ranks are more likely).
    pub fn sample_rank(&self, rng: &mut SimRng) -> usize {
        let u = rng.uniform();
        match self.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) | Err(i) => i.min(self.cdf.len() - 1) + 1,
        }
    }
}

impl Sampler for Zipf {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.sample_rank(rng) as f64
    }
}

/// Degenerate distribution that always returns the same value. Useful for
/// deterministic tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constant(pub f64);

impl Sampler for Constant {
    fn sample(&self, _rng: &mut SimRng) -> f64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(s: &dyn Sampler, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::seed(seed);
        (0..n).map(|_| s.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean() {
        let d = Exponential::new(4.0);
        let m = mean_of(&d, 200_000, 1);
        assert!((m - 0.25).abs() < 0.005, "mean {m}");
    }

    #[test]
    fn exponential_nonnegative() {
        let d = Exponential::new(0.5);
        let mut rng = SimRng::seed(2);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(10.0, 2.0);
        let mut rng = SimRng::seed(3);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    /// `V`, the ziggurat's layer area (module docs).
    const ZIG_V: f64 = 0.004_928_673_233_974_655;

    fn x_tab(i: usize) -> f64 {
        f64::from_bits(ZIG_X[i])
    }

    fn f_tab(i: usize) -> f64 {
        f64::from_bits(ZIG_F[i])
    }

    /// `erfc` to fractional error below 1.2e-7 everywhere (the Chebyshev
    /// fit of Press et al., Numerical Recipes §6.2).
    fn erfc(x: f64) -> f64 {
        let z = x.abs();
        let t = 1.0 / (1.0 + 0.5 * z);
        let poly = -z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77))))))));
        let r = t * poly.exp();
        if x >= 0.0 {
            r
        } else {
            2.0 - r
        }
    }

    fn phi(x: f64) -> f64 {
        0.5 * erfc(-x / std::f64::consts::SQRT_2)
    }

    fn standard_draws(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SimRng::seed(seed);
        (0..n).map(|_| standard_normal(&mut rng)).collect()
    }

    #[test]
    fn ziggurat_matches_the_standard_normal() {
        let n = 1_000_000;
        let mut xs = standard_draws(n, 12);
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        // Five standard errors: 1/√n for the mean, √(2/n) for the variance.
        assert!(mean.abs() < 5e-3, "mean {mean}");
        assert!((var - 1.0).abs() < 7.1e-3, "var {var}");
        xs.sort_by(f64::total_cmp);
        let ks = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let cdf = phi(x);
                (cdf - i as f64 / n as f64).max((i + 1) as f64 / n as f64 - cdf)
            })
            .fold(0.0, f64::max);
        let critical = 1.63 / (n as f64).sqrt();
        assert!(
            ks < critical,
            "KS statistic {ks} ≥ 1% critical value {critical}"
        );
    }

    #[test]
    fn ziggurat_tail_mass_matches_erfc() {
        let n = 1_000_000;
        let r = x_tab(1);
        let tail = standard_draws(n, 13).iter().filter(|z| z.abs() > r).count() as f64;
        let expected = n as f64 * erfc(r / std::f64::consts::SQRT_2);
        assert!(
            (expected - 258.0).abs() < 1.0,
            "expected tail count {expected}"
        );
        assert!(
            (tail - expected).abs() < 5.0 * expected.sqrt(),
            "{tail} draws beyond R, expected {expected}"
        );
    }

    #[test]
    fn ziggurat_tables_hold_their_invariants() {
        assert_eq!(x_tab(1), 3.654_152_885_361_009, "x[1] is R");
        assert_eq!(x_tab(256), 0.0);
        assert_eq!(f_tab(256), 1.0);
        for i in 0..256 {
            assert!(x_tab(i + 1) < x_tab(i), "x not strictly decreasing at {i}");
        }
        let rel = |a: f64| (a - ZIG_V).abs() / ZIG_V;
        // The base layer: R·f(R) plus the tail, stored as a rectangle of
        // width x[0] and height f(R).
        let r = x_tab(1);
        let tail = std::f64::consts::FRAC_PI_2.sqrt() * erfc(r / std::f64::consts::SQRT_2);
        assert!(rel(r * f_tab(1) + tail) < 1e-7, "V is not the base area");
        assert!(rel(x_tab(0) * f_tab(1)) < 1e-12, "base layer area");
        for i in 1..256 {
            let area = x_tab(i) * (f_tab(i + 1) - f_tab(i));
            assert!(rel(area) < 1e-12, "layer {i} area {area}");
        }
        for i in 0..=256 {
            let x = x_tab(i);
            // exp(−x²/2) with the rounding error of x² folded back in, so
            // the reference itself is good to about 1.5 ulp.
            let sq = x * x;
            let err = x.mul_add(x, -sq);
            let want = (-0.5 * sq).exp() * (1.0 - 0.5 * err);
            let ulps = (f_tab(i).to_bits() as i64 - want.to_bits() as i64).abs();
            assert!(ulps <= 2, "f[{i}] is {ulps} ulp from exp(-x²/2)");
        }
    }

    #[test]
    fn ziggurat_draws_are_pinned() {
        let mut rng = SimRng::seed(1);
        let first: Vec<u64> = (0..16)
            .map(|_| standard_normal(&mut rng).to_bits())
            .collect();
        let want: [u64; 16] = [
            0x3feb0209616c5342,
            0x3fe6e5df946f918c,
            0xbffea768d09b016a,
            0x3fdcf5b3c1779f1d,
            0xbfea1af629265ef7,
            0x3fd6eecc8e5e158f,
            0x400796394baff757,
            0x3fbc8b72ae29209e,
            0xbfe90df42d454901,
            0xbffe107bf8b0dfd6,
            0x3ffa2a82668ba105,
            0xbfd7d726f8fe2118,
            0xbfe925233e96bd1c,
            0xbfda3f2f03078716,
            0xbfedf462f84bffdd,
            0xbfe8eabec6e2f45c,
        ];
        assert_eq!(first, want, "first 16 draws at seed 1");

        // 100 000 draws cover the slow paths too: a draw that took more
        // than one word went through the wedge or the tail, and only the
        // tail returns |z| > R.
        let mut rng = SimRng::seed(1);
        let (mut hash, mut slow, mut tail) = (0xcbf2_9ce4_8422_2325u64, 0, 0);
        for _ in 0..100_000 {
            let mut one_word = rng.clone();
            one_word.next_u64();
            let z = standard_normal(&mut rng);
            if one_word.next_u64() != rng.clone().next_u64() {
                slow += 1;
            }
            if z.abs() > x_tab(1) {
                tail += 1;
            }
            for b in z.to_bits().to_le_bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(
            hash, 0xcb98_a709_63eb_4179,
            "FNV-1a of the first 100 000 draws at seed 1"
        );
        assert!((1_000..2_500).contains(&slow), "{slow} wedge/tail draws");
        assert!((5..80).contains(&tail), "{tail} tail draws");
    }

    #[test]
    fn lognormal_median_parameterization() {
        let d = LogNormal::from_median(5.0, 1.0);
        let mut rng = SimRng::seed(4);
        let n = 100_001;
        let mut xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        xs.sort_by(f64::total_cmp);
        let median = xs[n / 2];
        assert!((median - 5.0).abs() < 0.2, "median {median}");
    }

    #[test]
    fn lognormal_mean_formula() {
        let d = LogNormal::new(0.0, 0.5);
        let analytic = (0.125f64).exp();
        let m = mean_of(&d, 300_000, 5);
        assert!((m - analytic).abs() < 0.01, "mean {m} vs {analytic}");
    }

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let d = BoundedPareto::new(1.0, 100.0, 1.5);
        let mut rng = SimRng::seed(6);
        for _ in 0..50_000 {
            let x = d.sample(&mut rng);
            assert!((1.0..=100.0).contains(&x), "{x} out of bounds");
        }
    }

    #[test]
    fn bounded_pareto_matches_the_per_draw_formula_bit_for_bit() {
        // The pre-computed `lo^alpha` and `hi^alpha` must leave every draw
        // exactly where computing them per draw put it.
        for (lo, hi, alpha) in [(1.0, 100.0, 1.5), (1.2, 8.0, 0.7), (2.0, 3.0, 4.0)] {
            let d = BoundedPareto::new(lo, hi, alpha);
            let (mut rng, mut old) = (SimRng::seed(11), SimRng::seed(11));
            for _ in 0..10_000 {
                let u: f64 = old.uniform();
                let (la, ha) = (f64::powf(lo, alpha), f64::powf(hi, alpha));
                let want = (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha);
                assert_eq!(d.sample(&mut rng).to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn zipf_rank_one_most_popular() {
        let d = Zipf::new(1000, 1.0);
        let mut rng = SimRng::seed(7);
        let mut counts = vec![0usize; 1001];
        for _ in 0..100_000 {
            counts[d.sample_rank(&mut rng)] += 1;
        }
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[10]);
        // Roughly 1/H(1000) ≈ 13% of mass on rank 1 for s=1.
        assert!(counts[1] > 100_000 / 10);
    }

    #[test]
    fn zipf_single_rank() {
        let d = Zipf::new(1, 1.2);
        let mut rng = SimRng::seed(8);
        assert_eq!(d.sample_rank(&mut rng), 1);
    }

    #[test]
    fn constant_is_constant() {
        let d = Constant(3.5);
        let mut rng = SimRng::seed(9);
        assert_eq!(d.sample(&mut rng), 3.5);
        assert_eq!(d.sample(&mut rng), 3.5);
    }

    #[test]
    #[should_panic(expected = "invalid rate")]
    fn exponential_rejects_zero_rate() {
        Exponential::new(0.0);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_rejects_empty() {
        Zipf::new(0, 1.0);
    }
}
