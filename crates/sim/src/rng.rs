//! Deterministic random number generation.
//!
//! Experiments must be exactly reproducible run-to-run, so all randomness
//! flows through [`DetRng`], a seeded xoshiro256**-family generator. The
//! noise helpers model measurement jitter (the ± columns of Table 1) without
//! compromising determinism.

use crate::time::Nanos;

/// A small, fast, deterministic RNG (xoshiro256**).
///
/// Not cryptographically secure; used only for workload placement and
/// measurement-noise modelling.
///
/// # Examples
///
/// ```
/// use gh_sim::DetRng;
///
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct DetRng {
    s: [u64; 4],
}

/// The 64-bit golden ratio, SplitMix64's step.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalizer of `x` advanced one step: a bijective,
/// well-mixed hash of a `u64`. It is the workspace's one way to derive
/// seeds and synthetic hashes (payload ids, placement, fault draws,
/// workflow hop values) from small integers, and [`DetRng::new`] seeds
/// its state from four consecutive steps of it.
#[inline]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl DetRng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        let s = [0u64, 1, 2, 3].map(|i| mix(seed.wrapping_add(i.wrapping_mul(GOLDEN))));
        Self { s }
    }

    /// Derives an independent child generator, e.g. one per benchmark so
    /// that adding benchmarks does not perturb existing streams.
    pub fn fork(&mut self, label: u64) -> DetRng {
        DetRng::new(self.next_u64() ^ label.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Next raw 64-bit value.
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

    /// Uniform value in `[0, bound)`. Returns 0 when `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Multiply-shift bounded sampling (Lemire); slight bias is fine for
        // noise modelling.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// One exponential inter-arrival gap of a Poisson process at `rps`
    /// arrivals per second (one draw), rounded to whole nanoseconds.
    pub fn exp_gap(&mut self, rps: f64) -> Nanos {
        let u = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE);
        Nanos::from_millis_f64(-u.ln() / rps * 1e3)
    }

    /// Standard normal variate (Box–Muller, one value per call).
    pub fn next_gaussian(&mut self) -> f64 {
        // Avoid ln(0).
        let u1 = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }

    /// Multiplicative lognormal noise factor with the given coefficient of
    /// variation; mean is approximately 1.
    ///
    /// Used to model run-to-run measurement jitter (the ±σ columns of
    /// Table 1 and the error bars of Fig. 7).
    pub fn lognormal_factor(&mut self, cov: f64) -> f64 {
        if cov <= 0.0 {
            return 1.0;
        }
        let sigma2 = (1.0 + cov * cov).ln();
        let sigma = sigma2.sqrt();
        let mu = -0.5 * sigma2; // E[exp(N(mu, sigma^2))] = 1
        (mu + sigma * self.next_gaussian()).exp()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        let n = xs.len();
        for i in (1..n).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Samples `k` distinct indices out of `n` (k ≤ n), in sorted order.
    ///
    /// Used to pick which pages a function invocation dirties.
    pub fn sample_indices(&mut self, n: u64, k: u64) -> Vec<u64> {
        let k = k.min(n);
        if k == 0 {
            return Vec::new();
        }
        // Floyd's algorithm for distinct sampling.
        let mut chosen = std::collections::BTreeSet::new();
        for j in (n - k)..n {
            let t = self.next_below(j + 1);
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        chosen.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn forked_streams_are_independent() {
        let mut root = DetRng::new(99);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn bounded_sampling_in_range() {
        let mut r = DetRng::new(3);
        for _ in 0..1000 {
            assert!(r.next_below(17) < 17);
        }
        assert_eq!(r.next_below(0), 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::new(5);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn exp_gap_is_one_inverse_transform_draw() {
        let (mut a, mut b) = (DetRng::new(17), DetRng::new(17));
        let rps = 250.0;
        let n = 20_000;
        let mut total = Nanos::ZERO;
        for _ in 0..n {
            let gap = a.exp_gap(rps);
            let u = (1.0 - b.next_f64()).max(f64::MIN_POSITIVE);
            assert_eq!(gap, Nanos::from_millis_f64(-u.ln() / rps * 1e3));
            total += gap;
        }
        assert_eq!(a.next_u64(), b.next_u64(), "one draw per gap");
        let mean_ms = total.as_millis_f64() / n as f64;
        assert!((mean_ms - 4.0).abs() < 0.1, "mean gap {mean_ms} ms");
    }

    #[test]
    fn lognormal_factor_centres_on_one() {
        let mut r = DetRng::new(11);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.lognormal_factor(0.3)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
        assert_eq!(r.lognormal_factor(0.0), 1.0);
    }

    #[test]
    fn gaussian_moments() {
        let mut r = DetRng::new(13);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.next_gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn sample_indices_distinct_sorted_bounded() {
        let mut r = DetRng::new(17);
        let idx = r.sample_indices(100, 30);
        assert_eq!(idx.len(), 30);
        for w in idx.windows(2) {
            assert!(w[0] < w[1], "sorted + distinct");
        }
        assert!(*idx.last().unwrap() < 100);
        // k > n clamps.
        assert_eq!(r.sample_indices(5, 10).len(), 5);
        assert!(r.sample_indices(5, 0).is_empty());
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::new(19);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
