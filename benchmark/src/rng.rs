//! Seeded input generation. Everything a workload feeds the programs — key
//! streams, op mixes, the open-loop schedule — comes from here, so the same
//! `--seed` gives the same inputs and the programs see only the inputs.

/// SplitMix64: tiny, fast, and good enough for load generation. The
/// benchmark owns its generator so the timed loops pay a few nanoseconds per
/// draw, not a ChaCha block.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for `(seed, stream)`: each client and each
    /// purpose draws from its own, so adding a draw in one place does not
    /// shift the inputs of another.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut r = Self(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; `n` must be non-zero).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given mean (Poisson inter-arrival
    /// gaps for the open loop).
    #[inline]
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Zipf(θ) over ranks `0..n` by a precomputed CDF and binary search.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks with skew `theta`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        let mut acc = 0.0f64;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|i| {
                acc += 1.0 / (i as f64).powf(theta);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// Draws a rank; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_streams_differ() {
        let draws = |seed, stream| {
            let mut r = Rng::stream(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<u64>>()
        };
        assert_eq!(draws(42, 1), draws(42, 1));
        assert_ne!(draws(42, 1), draws(42, 2));
        assert_ne!(draws(42, 1), draws(43, 1));
    }

    #[test]
    fn draws_stay_in_range_and_zipf_is_skewed() {
        let mut r = Rng::new(1);
        for _ in 0..10_000 {
            assert!(r.below(7) < 7);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.exp(100.0) >= 0.0);
        }
        let z = Zipf::new(1024, 0.99);
        let mut hits = [0u32; 1024];
        for _ in 0..100_000 {
            hits[z.sample(&mut r)] += 1;
        }
        assert!(hits[0] > 10 * hits[100].max(1), "rank 0 dominates rank 100");
        let mean: f64 = (0..100_000).map(|_| r.exp(50.0)).sum::<f64>() / 100_000.0;
        assert!((45.0..55.0).contains(&mean), "exp mean {mean}");
    }
}
