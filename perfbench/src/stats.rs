//! Order statistics for the reported timings.

/// Fewest samples that must lie beyond a tail percentile for it to be
/// reported at all.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median (mean of the two middle samples for an even count); `None` for
/// no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Nearest-rank `q`-th percentile (`0 < q < 100`), reported only when at
/// least [`TAIL_MIN_BEYOND`] samples lie beyond it: a tail read off fewer
/// samples is one or two outliers, not a percentile.
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    let s = sorted(samples);
    let rank = rank(q, s.len());
    if rank == 0 || s.len() - rank < TAIL_MIN_BEYOND {
        return None;
    }
    Some(s[rank - 1])
}

/// Fewest samples for which [`tail`] reports percentile `q`.
pub fn samples_for_tail(q: f64) -> usize {
    (1..).find(|&n| n - rank(q, n) >= TAIL_MIN_BEYOND).expect("q < 100")
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(q: f64, n: usize) -> usize {
    (q * n as f64 / 100.0).ceil() as usize
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        // p90 of 99 samples is the 90th; only 9 lie beyond it.
        assert_eq!(tail(&xs, 90.0), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs, 90.0), Some(90.0));
        assert_eq!(tail(&xs, 99.0), None);
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail(&xs, 99.0), Some(990.0));
        assert_eq!(tail(&[], 50.0), None);
    }

    #[test]
    fn samples_for_tail_is_the_threshold_tail_uses() {
        for q in [50.0, 90.0, 99.0] {
            let n = samples_for_tail(q);
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert!(tail(&xs, q).is_some(), "q{q} with {n} samples");
            assert!(tail(&xs[1..], q).is_none(), "q{q} with {} samples", n - 1);
        }
    }
}
