//! Order statistics for latency samples.

/// Minimum number of samples that must lie beyond a reported tail
/// percentile; with fewer, the percentile is an interpolation between a
/// handful of points and moves with single outliers.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Linear-interpolated percentile at `q` in `[0, 1]` (rank `q·(n−1)` of
/// the sorted samples). `None` on an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let rank = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(s[lo] + (rank - lo as f64) * (s[hi] - s[lo]))
}

/// Median (the mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Number of samples ranked strictly after the interpolation rank of
/// percentile `q` in a sample of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
    n - 1 - rank.floor() as usize
}

/// The highest whole percentile (as a fraction) of a sample of `n` that
/// still has at least [`MIN_BEYOND`] samples beyond it, never below the
/// median: a sample too small for any tail reports its median as the tail.
pub fn tail_quantile(n: usize) -> f64 {
    (50..=99)
        .rev()
        .map(|p| f64::from(p) / 100.0)
        .find(|&q| beyond(n, q) >= MIN_BEYOND)
        .unwrap_or(0.5)
}

/// `(q, value)` of the tail percentile chosen by [`tail_quantile`].
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let q = tail_quantile(samples.len());
    percentile(samples, q).map(|v| (q, v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 1.0), Some(4.0));
        assert_eq!(median(&s), Some(2.5));
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 200 samples: p95 has exactly 10 beyond (ranks 190..199 sit after
        // rank 189.05), p96 would have only 8.
        assert_eq!(beyond(200, 0.95), 10);
        assert!(beyond(200, 0.96) < MIN_BEYOND);
        assert_eq!(tail_quantile(200), 0.95);
        // 100 samples: p90 leaves 10 beyond.
        assert_eq!(tail_quantile(100), 0.9);
        for n in [11, 35, 105, 140, 1000] {
            let q = tail_quantile(n);
            assert!(beyond(n, q) >= MIN_BEYOND || q == 0.5, "n={n} q={q}");
            if q < 0.99 {
                assert!(
                    beyond(n, q + 0.01) < MIN_BEYOND,
                    "n={n}: q={q} is not the highest"
                );
            }
        }
    }

    #[test]
    fn small_samples_fall_back_to_the_median() {
        assert_eq!(tail_quantile(0), 0.5);
        assert_eq!(tail_quantile(5), 0.5);
        let s = [5.0, 1.0, 3.0];
        assert_eq!(tail(&s), Some((0.5, 3.0)));
    }
}
