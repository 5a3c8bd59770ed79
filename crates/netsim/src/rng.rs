//! Deterministic pseudo-random number generation.
//!
//! The simulator must be bit-for-bit reproducible from a seed, so it carries
//! its own small PRNG rather than depending on an external crate whose
//! algorithm could change between versions. Two generators are provided:
//!
//! * [`SplitMix64`] — the canonical seeding/stream-splitting generator;
//! * [`Xoshiro256`] — xoshiro256\*\*, the general-purpose generator used for
//!   workload randomness (good statistical quality, 4×64-bit state).

/// SplitMix64: a tiny 64-bit generator used for seeding and key mixing.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Stateless SplitMix64 finalizer: a high-quality 64→64-bit mixing function.
///
/// Used wherever a deterministic hash of an integer is needed (GUPS index
/// streams, trace hashing) without carrying generator state around.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256\*\* by Blackman & Vigna: the simulator's workhorse generator.
#[derive(Clone, Debug)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seed via SplitMix64, per the xoshiro authors' recommendation.
    pub fn seed_from_u64(seed: u64) -> Xoshiro256 {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for v in &mut s {
            *v = sm.next_u64();
        }
        // An all-zero state would be a fixed point; SplitMix64 cannot produce
        // four consecutive zeros, but guard anyway for hand-built states.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256 { s }
    }

    /// The generator of the `n`-th draw site of `stream` under `seed`.
    ///
    /// A pure function of the three: whoever opens site `n` gets the same
    /// numbers, whatever else drew before it and on whichever thread —
    /// counter-based randomness (Salmon et al., "Parallel Random Numbers:
    /// As Easy as 1, 2, 3", SC'11), here a [`mix64`] chain feeding
    /// [`Xoshiro256::seed_from_u64`].
    pub fn keyed(seed: u64, stream: u64, n: u64) -> Xoshiro256 {
        Xoshiro256::seed_from_u64(mix64(mix64(mix64(seed) ^ stream) ^ n))
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`. `bound` must be nonzero.
    ///
    /// Uses Lemire's multiply-shift rejection method: unbiased and branch-light.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "next_below(0)");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(hi - lo + 1)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

/// A deterministic sampler for Zipf-distributed ranks in `[0, n)`.
///
/// Used by the skewed-access workloads (experiment E8). Implements the
/// standard inverse-CDF-by-binary-search method over precomputed cumulative
/// weights; construction is O(n), sampling O(log n).
///
/// ```
/// use netsim::rng::{Xoshiro256, Zipf};
///
/// let zipf = Zipf::new(100, 0.99);
/// let mut rng = Xoshiro256::seed_from_u64(7);
/// let hot = (0..1000).filter(|_| zipf.sample(&mut rng) == 0).count();
/// assert!(hot > 50, "rank 0 should dominate: {hot}");
/// ```
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `n` ranks with skew exponent `theta`
    /// (`theta = 0` is uniform; ~0.99 is the YCSB default "heavy skew").
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0, "Zipf over empty domain");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draw a rank using randomness from `rng`.
    pub fn sample(&self, rng: &mut Xoshiro256) -> usize {
        let u = rng.next_f64();
        // partition_point: first index whose cdf value exceeds u.
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference outputs for seed 1234567 (from the public-domain C code).
        let mut sm = SplitMix64::new(1234567);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, b);
        // Determinism: same seed, same stream.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next_u64(), a);
        assert_eq!(sm2.next_u64(), b);
    }

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = Xoshiro256::seed_from_u64(42);
        let mut b = Xoshiro256::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xoshiro_seeds_differ() {
        let mut a = Xoshiro256::seed_from_u64(1);
        let mut b = Xoshiro256::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds overlap: {same}");
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.next_below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some values never drawn");
    }

    #[test]
    fn next_f64_unit_interval() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        for _ in 0..1000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn range_inclusive_endpoints() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..2000 {
            let v = rng.range_inclusive(3, 6);
            assert!((3..=6).contains(&v));
            lo_seen |= v == 3;
            hi_seen |= v == 6;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256::seed_from_u64(13);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // With overwhelming probability the shuffle moved something.
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_uniform_when_theta_zero() {
        let z = Zipf::new(4, 0.0);
        let mut rng = Xoshiro256::seed_from_u64(17);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!(
                (8_000..12_000).contains(&c),
                "counts not uniform: {counts:?}"
            );
        }
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = Xoshiro256::seed_from_u64(19);
        let mut head = 0usize;
        let n = 20_000;
        for _ in 0..n {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // Under theta=0.99 the top-10 ranks absorb a large fraction of draws.
        assert!(head > n / 4, "head draws {head} of {n}");
    }

    #[test]
    fn mix64_is_injective_on_small_domain() {
        let mut outs: Vec<u64> = (0..10_000u64).map(mix64).collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), 10_000);
    }
}
