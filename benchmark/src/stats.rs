//! Order statistics over small timing samples.

/// Sorted copy of `xs` (total order, so a NaN cannot poison the sort).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count.
///
/// # Panics
///
/// Panics on an empty slice: every caller samples at least once.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Percentile `p` in `[0, 100]` by linear interpolation between the
/// closest ranks (`p = 50` equals [`median`]).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let v = sorted(xs);
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Hodges–Lehmann location estimate: the median of the averages of
/// every pair of samples (each sample paired with itself too). As robust
/// to a few wild samples as the median, and about a third more efficient
/// on well-behaved ones, which is a third fewer rounds for `repeat`.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn hodges_lehmann(xs: &[f64]) -> f64 {
    let mut walsh = Vec::with_capacity(xs.len() * (xs.len() + 1) / 2);
    for (i, a) in xs.iter().enumerate() {
        walsh.extend(xs[i..].iter().map(|b| (a + b) / 2.0));
    }
    median(&walsh)
}

/// Smallest sample.
#[must_use]
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest sample.
#[must_use]
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_interpolates_and_clamps() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 50.0), median(&xs));
        assert_eq!(percentile(&xs, 100.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 46.0);
        assert_eq!(percentile(&xs, 250.0), 50.0);
    }

    #[test]
    fn hodges_lehmann_is_the_median_of_pairwise_averages() {
        assert_eq!(hodges_lehmann(&[4.0]), 4.0);
        // Walsh averages of 1, 2, 9: 1, 1.5, 5, 2, 5.5, 9.
        assert_eq!(hodges_lehmann(&[1.0, 2.0, 9.0]), 3.5);
        // One wild sample among five barely moves it.
        let calm = hodges_lehmann(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let wild = hodges_lehmann(&[1.0, 2.0, 3.0, 4.0, 500.0]);
        assert_eq!(calm, 3.0);
        assert!(wild < 4.0, "{wild}");
    }

    #[test]
    fn min_max() {
        assert_eq!(min(&[2.0, -1.0, 5.0]), -1.0);
        assert_eq!(max(&[2.0, -1.0, 5.0]), 5.0);
    }
}
