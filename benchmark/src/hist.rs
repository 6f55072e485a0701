//! The benchmark's own latency recorder: a log-linear histogram whose
//! percentiles are exact to under 1 %.
//!
//! `telemetry::Log2Hist` reports a percentile as the top of a power-of-two
//! bucket (8191, 16383, 32767 …), so a 15 % latency change is invisible to
//! it. Here every octave is cut into [`SUBS`] equal sub-buckets, so a bucket
//! is never wider than 1/128 of its lower bound, and a percentile is
//! interpolated by rank inside its bucket. The table is allocated once, up
//! front; [`Hist::record`] never allocates.

/// Sub-buckets per octave.
const SUB_BITS: u32 = 7;
const SUBS: usize = 1 << SUB_BITS;
/// Values are clamped to `2^MAX_BITS - 1` ns (about 18 minutes).
const MAX_BITS: u32 = 40;
const GROUPS: usize = (MAX_BITS - SUB_BITS + 1) as usize;

/// A fixed-size histogram of `u64` samples (nanoseconds, by convention).
#[derive(Clone)]
pub struct Hist {
    counts: Box<[u32]>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

impl Hist {
    /// An empty histogram (one allocation of about 17 KiB).
    pub fn new() -> Self {
        Self {
            counts: vec![0u32; GROUPS * SUBS].into_boxed_slice(),
            total: 0,
        }
    }

    #[inline]
    fn index(v: u64) -> usize {
        let v = v.min((1u64 << MAX_BITS) - 1);
        if v < SUBS as u64 {
            return v as usize;
        }
        let top = 63 - v.leading_zeros(); // >= SUB_BITS
        let shift = top - SUB_BITS;
        let group = (shift + 1) as usize;
        (group << SUB_BITS) | ((v >> shift) as usize & (SUBS - 1))
    }

    /// Lower bound and width of bucket `idx`.
    fn bounds(idx: usize) -> (u64, u64) {
        let (group, sub) = (idx >> SUB_BITS, (idx & (SUBS - 1)) as u64);
        if group == 0 {
            (sub, 1)
        } else {
            let shift = group as u32 - 1;
            ((SUBS as u64 + sub) << shift, 1u64 << shift)
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let c = &mut self.counts[Self::index(v)];
        *c = c.saturating_add(1);
        self.total += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.total += other.total;
    }

    /// The `q`-quantile (`0.0..=1.0`) of the recorded samples, or `None` if
    /// empty. The sample of rank `q·(n-1)` is located in its bucket and its
    /// value interpolated from its position among the bucket's samples, so
    /// the answer is within one bucket width of the true sample: under 0.8 %
    /// of it, or 1 ns below 128 ns.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut before = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank < (before + c as u64) as f64 {
                let (lo, width) = Self::bounds(idx);
                let within = (rank - before as f64 + 0.5) / c as f64;
                return Some(lo as f64 + within * width as f64);
            }
            before += c as u64;
        }
        unreachable!("rank {rank} is below the total count {}", self.total)
    }
}

/// Median of `values` (mean of the middle two for an even count); `None`
/// if empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// The recorder against sorted raw samples: every percentile within 1 %.
    #[test]
    fn quantiles_match_sorted_samples_within_one_percent() {
        let mut rng = Rng::new(7);
        for spread_bits in [8u32, 16, 24, 34] {
            let mut samples: Vec<u64> = (0..50_000)
                .map(|_| {
                    // Log-uniform: every octave from 128 ns (below which
                    // buckets are 1 ns wide) up to `spread_bits` is hit.
                    let bits = 7 + rng.below(spread_bits as u64 - 6) as u32;
                    (1u64 << bits) + rng.below(1u64 << bits)
                })
                .collect();
            let mut h = Hist::new();
            for &s in &samples {
                h.record(s);
            }
            samples.sort_unstable();
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let exact = samples[(q * (samples.len() - 1) as f64) as usize] as f64;
                let got = h.quantile(q).unwrap();
                let err = (got - exact).abs() / exact.max(1.0);
                assert!(
                    err <= 0.01,
                    "q={q} bits={spread_bits}: {got} vs {exact} ({err:.4})"
                );
            }
        }
    }

    /// A 15 % shift, which `Log2Hist` bucket tops cannot show, is visible.
    #[test]
    fn a_fifteen_percent_shift_is_visible() {
        let (mut a, mut b) = (Hist::new(), Hist::new());
        for i in 0..10_000u64 {
            a.record(10_000 + i % 100);
            b.record(11_500 + i % 100);
        }
        let (pa, pb) = (a.quantile(0.99).unwrap(), b.quantile(0.99).unwrap());
        let shift = pb / pa - 1.0;
        assert!((0.13..0.17).contains(&shift), "shift {shift}");
    }

    #[test]
    fn small_values_are_exact_and_merge_adds() {
        let mut h = Hist::new();
        for v in 0..100u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0).unwrap().floor(), 0.0);
        assert_eq!(h.quantile(1.0).unwrap().floor(), 99.0);
        let mut m = Hist::new();
        m.merge(&h);
        m.merge(&h);
        assert_eq!(m.count(), 200);
        assert!(Hist::new().quantile(0.5).is_none());
        // Out-of-range samples clamp into the last bucket instead of panicking.
        m.record(u64::MAX);
        assert!(m.quantile(1.0).unwrap() > 1e12);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
