//! Deterministic random variates for the workload model.
//!
//! A single [`SimRng`] seeds the whole simulation; independent logical
//! streams are derived with [`SimRng::fork`] so that adding a consumer does
//! not perturb the draws of existing ones (a classic simulation-hygiene
//! requirement for comparing strategies on common random numbers).

/// Seedable random source with the distributions used by the simulator.
///
/// The generator is a self-contained xoshiro256++ (the algorithm behind
/// `rand`'s `SmallRng` on 64-bit targets), seeded via SplitMix64 — no
/// external crates, so the simulator's determinism depends only on this
/// file.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

#[inline]
fn splitmix64(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl SimRng {
    pub fn new(seed: u64) -> Self {
        let mut z = seed;
        let state = [
            splitmix64(&mut z),
            splitmix64(&mut z),
            splitmix64(&mut z),
            splitmix64(&mut z),
        ];
        SimRng { state, seed }
    }

    /// Next raw 64-bit output (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent stream identified by `stream`.
    ///
    /// Uses SplitMix64 finalization over `(seed, stream)` so forked streams
    /// are decorrelated from the parent and from each other.
    pub fn fork(&self, stream: u64) -> SimRng {
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SimRng::new(z)
    }

    /// Uniform in `[0, 1)` (53-bit resolution).
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)` (bias-free rejection sampling).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let x = self.next_u64();
            if x < zone {
                return x % n;
            }
        }
    }

    /// Bernoulli trial with success probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponential variate with the given mean (inter-arrival times of the
    /// open queuing model). A zero or negative mean yields zero.
    pub fn exp(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        // Inverse CDF with u in (0, 1]; 1-f64() avoids ln(0).
        let u = 1.0 - self.f64();
        -mean * u.ln()
    }

    /// Zipf-distributed integer in `[0, n)` with skew parameter `theta`
    /// (`theta = 0` is uniform). Used for skewed data-access extensions.
    ///
    /// Rejection-inversion free implementation via the classic power
    /// approximation (Gray et al., SIGMOD'94 quickstep): adequate for
    /// workload generation, O(1) per draw after O(1) setup parameters.
    pub fn zipf(&mut self, n: u64, theta: f64) -> u64 {
        debug_assert!(n > 0);
        if n == 1 || theta <= 0.0 {
            return self.below(n);
        }
        // Compute (or approximate) the generalized harmonic number lazily.
        // For simulation-scale n this direct loop is fine because callers
        // cache a `ZipfGen` for hot paths.
        let zeta: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let u = self.f64() * zeta;
        let mut acc = 0.0;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(theta);
            if acc >= u {
                return i - 1;
            }
        }
        n - 1
    }

    /// Choose `k` distinct indices uniformly from `[0, n)`, in selection
    /// order (partial Fisher-Yates over an index vector).
    pub fn sample_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below((n - i) as u64) as usize;
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Shuffle a slice in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below((i + 1) as u64) as usize;
            xs.swap(i, j);
        }
    }

    /// Pick one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty());
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// Cached Zipf generator for hot paths (precomputes the harmonic sums).
#[derive(Debug, Clone)]
pub struct ZipfGen {
    cdf: Vec<f64>,
}

impl ZipfGen {
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        ZipfGen { cdf }
    }

    pub fn draw(&self, rng: &mut SimRng) -> u64 {
        let u = rng.f64();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i as u64,
            Err(i) => (i.min(self.cdf.len() - 1)) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forked_streams_differ() {
        let root = SimRng::new(7);
        let mut s1 = root.fork(1);
        let mut s2 = root.fork(2);
        let equal = (0..32).filter(|_| s1.next_u64() == s2.next_u64()).count();
        assert_eq!(equal, 0);
    }

    #[test]
    fn fork_is_stable() {
        let a = SimRng::new(7).fork(3).next_u64();
        let b = SimRng::new(7).fork(3).next_u64();
        assert_eq!(a, b);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SimRng::new(1);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exp(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.05, "sample mean {mean}");
    }

    #[test]
    fn exp_degenerate_mean() {
        let mut r = SimRng::new(1);
        assert_eq!(r.exp(0.0), 0.0);
        assert_eq!(r.exp(-3.0), 0.0);
    }

    #[test]
    fn sample_distinct_is_distinct_and_in_range() {
        let mut r = SimRng::new(9);
        for _ in 0..100 {
            let s = r.sample_distinct(20, 8);
            assert_eq!(s.len(), 8);
            let mut sorted = s.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 8);
            assert!(s.iter().all(|&x| x < 20));
        }
    }

    #[test]
    fn sample_distinct_caps_at_n() {
        let mut r = SimRng::new(9);
        let s = r.sample_distinct(3, 10);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn zipf_uniform_when_theta_zero() {
        let mut r = SimRng::new(3);
        let n = 10u64;
        let mut counts = [0u32; 10];
        for _ in 0..50_000 {
            counts[r.zipf(n, 0.0) as usize] += 1;
        }
        for c in counts {
            assert!((c as f64 - 5000.0).abs() < 450.0, "count {c}");
        }
    }

    #[test]
    fn zipf_skews_to_low_indices() {
        let gen = ZipfGen::new(100, 1.0);
        let mut r = SimRng::new(3);
        let mut first = 0;
        let n = 20_000;
        for _ in 0..n {
            if gen.draw(&mut r) == 0 {
                first += 1;
            }
        }
        // P(0) = 1/H_100 ≈ 0.192
        let p = first as f64 / n as f64;
        assert!((p - 0.192).abs() < 0.02, "P(rank 0) = {p}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
