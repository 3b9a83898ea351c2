//! Skewed object popularity.
//!
//! Real primary-storage traces are not uniform: a small set of hot
//! objects draws most of the traffic (HPDedup's skew/locality analysis,
//! PAPERS.md). [`ZipfSampler`] draws object *ranks* from a Zipf(θ)
//! distribution — θ = 0 degrades to uniform, θ ≈ 0.99 is the YCSB
//! default, θ > 1 concentrates brutally on the first few ranks — so
//! benches and ablations share one seeded popularity model instead of
//! hand-rolled "mostly re-read the hot quarter" loops.

use rand::RngCore;

/// Seeded Zipf(θ) sampler over ranks `0..n` (rank 0 most popular).
///
/// Probability of rank `k` is proportional to `1 / (k + 1)^θ`. The
/// cumulative distribution is precomputed, so each draw costs one RNG
/// word plus a binary search.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// `cdf[k]` = P(rank <= k); last entry is 1.0 (exactly, by division).
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds a sampler over `n` ranks with skew `theta` (≥ 0; 0 means
    /// uniform).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, or `theta` is negative or non-finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "zipf population must be non-empty");
        assert!(
            theta >= 0.0 && theta.is_finite(),
            "zipf theta must be finite and non-negative"
        );
        let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for w in &weights {
            acc += w;
            cdf.push(acc / total);
        }
        // Guard against floating-point shortfall at the top end.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        ZipfSampler { cdf }
    }

    /// Probability mass of `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn probability(&self, rank: usize) -> f64 {
        let above = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        self.cdf[rank] - above
    }

    /// Maps a uniform draw `u ∈ [0, 1)` to a rank (inverse-CDF lookup).
    pub fn sample_at(&self, u: f64) -> usize {
        let u = u.clamp(0.0, 1.0);
        // First rank whose cumulative probability covers u.
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Draws one rank using `rng`.
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        // 53 uniform bits in [0, 1), matching the rand shim's f64 draw.
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.sample_at(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn theta_zero_is_uniform() {
        let z = ZipfSampler::new(8, 0.0);
        for k in 0..8 {
            assert!((z.probability(k) - 0.125).abs() < 1e-9, "rank {k}");
        }
    }

    #[test]
    fn probabilities_decrease_with_rank_and_sum_to_one() {
        let z = ZipfSampler::new(64, 0.99);
        let mut sum = 0.0;
        for k in 0..64 {
            sum += z.probability(k);
            if k > 0 {
                assert!(z.probability(k) <= z.probability(k - 1) + 1e-12);
            }
        }
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn higher_theta_concentrates_on_the_head() {
        let mild = ZipfSampler::new(64, 0.99);
        let hot = ZipfSampler::new(64, 1.2);
        assert!(hot.probability(0) > mild.probability(0));
        assert!(hot.probability(0) > 0.2, "θ=1.2 head rank is hot");
    }

    #[test]
    fn sample_at_inverts_the_cdf() {
        let z = ZipfSampler::new(4, 1.0);
        assert_eq!(z.sample_at(0.0), 0);
        assert_eq!(z.sample_at(0.999_999), 3);
        // Exactly on a boundary goes to the next rank (cdf is P(<= k)).
        let p0 = z.probability(0);
        assert_eq!(z.sample_at(p0 - 1e-9), 0);
        assert_eq!(z.sample_at(p0 + 1e-9), 1);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let z = ZipfSampler::new(32, 0.99);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..100).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn empirical_skew_matches_theta() {
        let z = ZipfSampler::new(16, 1.2);
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = [0u32; 16];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        let head = counts[0] as f64 / 20_000.0;
        assert!(
            (head - z.probability(0)).abs() < 0.02,
            "head mass {head} vs expected {}",
            z.probability(0)
        );
        assert!(counts[0] > counts[8], "rank 0 beats mid ranks");
    }
}
