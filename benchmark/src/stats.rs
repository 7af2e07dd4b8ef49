//! Order statistics over the harness's own samples, and the seeded
//! generator every input is derived from.

/// Median of `samples` (mean of the two middle values for an even count).
/// Panics on an empty slice: every metric is backed by at least one rep.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank quantile of unsorted `samples`: the smallest sample with at
/// least `q` of the samples at or below it.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `(max − min) / median`: the spread this run's reps showed, recorded next
/// to every end-to-end metric as the measured noise floor.
pub fn spread(samples: &[f64]) -> f64 {
    let m = median(samples);
    let max = samples.iter().copied().fold(f64::MIN, f64::max);
    let min = samples.iter().copied().fold(f64::MAX, f64::min);
    if m == 0.0 {
        0.0
    } else {
        (max - min) / m
    }
}

/// Exact nearest-rank percentile of an ascending `sorted` slice: the
/// smallest sample with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the `q` percentile's rank — how many
/// observations back a reported tail percentile.
pub fn samples_beyond(len: usize, q: f64) -> usize {
    len - ((q * len as f64).ceil() as usize).clamp(1, len)
}

/// SplitMix64: a tiny seeded generator, so the query sequence depends on
/// nothing but `--seed` (no `rand` shim behaviour to pin).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform draw from `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰
    /// for every `n` the harness uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// SplitMix64's finalizer, also the per-line mixer of the output digest.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantile_is_nearest_rank_on_unsorted_samples() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.1), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.0);
        assert_eq!(quantile(&v, 0.9), 4.0);
        let thirty: Vec<f64> = (1..=30).rev().map(f64::from).collect();
        assert_eq!(quantile(&thirty, 0.1), 3.0);
        assert_eq!(quantile(&thirty, 0.9), 27.0);
        assert_eq!(quantile(&[9.0], 0.1), 9.0);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[1.0, 2.0, 3.0]), 1.0);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn percentile_is_exact_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 0.999), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[9], 0.99), 9);
        // 8,000 samples leave exactly 80 beyond the p99 rank.
        assert_eq!(samples_beyond(8000, 0.99), 80);
        assert_eq!(samples_beyond(100, 0.5), 50);
    }

    #[test]
    fn rng_repeats_for_a_seed_and_differs_across_seeds() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut r = Rng::new(1);
        assert!((0..1000).all(|_| r.below(13) < 13));
    }
}
