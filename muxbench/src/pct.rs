//! The percentile rule every latency figure follows.
//!
//! A tail percentile is reported only where at least ten samples lie beyond
//! it: with `n` samples, a target of p99 becomes the highest percentile `q`
//! not above 0.99 with `n * (1 - q) >= 10`. The median is the floor.

/// Samples beyond a reported tail percentile.
pub const MIN_BEYOND: f64 = 10.0;

/// A percentile as reported: which one, its value, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The percentile actually reported, in (0, 1).
    pub q: f64,
    /// Its value (nearest-rank), in the samples' unit.
    pub value: u64,
    /// Number of samples.
    pub n: usize,
}

/// The percentile to report for `target` with `n` samples.
pub fn reportable_q(target: f64, n: usize) -> f64 {
    let cap = 1.0 - MIN_BEYOND / n as f64;
    target.min(cap).max(0.5)
}

/// Nearest-rank percentile of `sorted` (ascending) at `q`, counted from the
/// top so that rounding never leaves fewer samples beyond than intended.
fn rank(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len();
    let beyond = (n as f64 * (1.0 - q) + 1e-9).floor() as usize;
    sorted[n.saturating_sub(beyond).max(1) - 1]
}

/// Sorts `samples` and reports `target` under the rule. `None` when empty.
pub fn tail(samples: &mut [u64], target: f64) -> Option<Pct> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let q = reportable_q(target, samples.len());
    Some(Pct {
        q,
        value: rank(samples, q),
        n: samples.len(),
    })
}

/// Median of `samples` (sorted in place), as `f64`; 0 when empty.
pub fn median(samples: &mut [u64]) -> f64 {
    tail(samples, 0.5).map_or(0.0, |p| p.value as f64)
}

/// Mean of `samples` (sorted in place) with the fastest and the slowest
/// tenth left out, as `f64`; 0 when empty.
pub fn trimmed_mean(samples: &mut [u64]) -> f64 {
    samples.sort_unstable();
    let cut = samples.len() / 10;
    let mid = &samples[cut..samples.len() - cut];
    if mid.is_empty() {
        return 0.0;
    }
    mid.iter().sum::<u64>() as f64 / mid.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trimmed_mean_leaves_out_both_tenths() {
        // 20 samples: the two lowest and the two highest are left out.
        let mut v: Vec<u64> = (1..=16).map(|x| x * 10).collect();
        v.extend([0, 0, 1_000_000, 2_000_000]);
        assert_eq!(trimmed_mean(&mut v), 85.0);
        assert_eq!(trimmed_mean(&mut []), 0.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(reportable_q(0.99, 1000), 0.99);
        assert_eq!(reportable_q(0.99, 5000), 0.99);
        // 500 samples: the highest percentile with 10 beyond is p98.
        assert!((reportable_q(0.99, 500) - 0.98).abs() < 1e-12);
        // p99.9 needs ten thousand.
        assert!((reportable_q(0.999, 10_000) - 0.999).abs() < 1e-12);
        assert!((reportable_q(0.999, 2_000) - 0.995).abs() < 1e-12);
    }

    #[test]
    fn tiny_samples_fall_back_to_the_median() {
        assert_eq!(reportable_q(0.99, 12), 0.5);
        assert_eq!(reportable_q(0.99, 1), 0.5);
    }

    #[test]
    fn reported_tail_leaves_ten_samples_beyond() {
        for n in [20usize, 100, 999, 1000, 1001, 4321] {
            let mut v: Vec<u64> = (1..=n as u64).rev().collect();
            let p = tail(&mut v, 0.99).unwrap();
            let beyond = v.iter().filter(|&&x| x > p.value).count();
            assert!(beyond >= 10, "n={n}: {beyond} beyond");
            assert_eq!(p.n, n);
        }
        let mut v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&mut v, 0.99).unwrap().value, 990);
        assert_eq!(median(&mut v), 500.0);
    }
}
