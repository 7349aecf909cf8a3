//! Exact order statistics over recorded samples.
//!
//! `ladon-obs`'s log₂ histogram resolves a tail only to a factor of
//! two, which is too coarse to regress against. The benchmark keeps
//! every sample, sorts once, and reads percentiles off the sorted
//! vector. A percentile is refused when fewer than
//! [`MIN_SAMPLES_BEYOND`] samples lie beyond it: such a value is a
//! property of a handful of outliers, not of the distribution.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// A sorted sample set; each sample carries a weight (1 for plain
/// samples, the transaction count for per-block latencies).
pub struct Samples {
    sorted: Vec<(f64, u64)>,
    total_weight: u64,
}

impl Samples {
    /// Unweighted samples.
    pub fn new(values: impl IntoIterator<Item = f64>) -> Self {
        Self::weighted(values.into_iter().map(|v| (v, 1)))
    }

    /// Samples weighted by a positive count; zero-weight entries are
    /// dropped.
    pub fn weighted(values: impl IntoIterator<Item = (f64, u64)>) -> Self {
        let mut sorted: Vec<(f64, u64)> = values.into_iter().filter(|&(_, w)| w > 0).collect();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total_weight = sorted.iter().map(|&(_, w)| w).sum();
        Self {
            sorted,
            total_weight,
        }
    }

    /// The exact `p`-th percentile (`0 < p < 100`) by nearest rank on
    /// cumulative weight: the smallest sample whose cumulative weight
    /// reaches `p` percent of the total. `Err` when fewer than
    /// [`MIN_SAMPLES_BEYOND`] samples lie strictly beyond it.
    pub fn percentile(&self, p: f64) -> Result<f64, String> {
        assert!(p > 0.0 && p < 100.0, "percentile out of range: {p}");
        if self.sorted.is_empty() {
            return Err(format!("p{p}: no samples"));
        }
        let target = (p / 100.0 * self.total_weight as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        let mut idx = self.sorted.len() - 1;
        for (i, &(_, w)) in self.sorted.iter().enumerate() {
            cum += w;
            if cum >= target {
                idx = i;
                break;
            }
        }
        let beyond = self.sorted.len() - 1 - idx;
        if beyond < MIN_SAMPLES_BEYOND {
            return Err(format!(
                "p{p}: only {beyond} of {} samples beyond it (need {MIN_SAMPLES_BEYOND})",
                self.sorted.len()
            ));
        }
        Ok(self.sorted[idx].0)
    }

    /// Largest sample, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().map(|&(v, _)| v)
    }
}

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller holds at least one repetition.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest and largest of `xs`.
pub fn min_max(xs: &[f64]) -> (f64, f64) {
    xs.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// gives them — the rule the acceptance check uses for spread. `None`
/// with fewer than two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let m = xs.len();
    if m < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median (0 when the median
/// is 0 or there are fewer than two values).
pub fn iqr_share(xs: &[f64]) -> f64 {
    let med = median(xs);
    match quartiles(xs) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1).abs() / med.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s = Samples::new((1..=100).map(f64::from));
        assert_eq!(s.percentile(50.0).unwrap(), 50.0);
        assert_eq!(s.percentile(90.0).unwrap(), 90.0);
        assert_eq!(s.max(), Some(100.0));
    }

    #[test]
    fn percentile_refuses_thin_tail() {
        let s = Samples::new((1..=100).map(f64::from));
        // p90 has exactly ten samples beyond it, p91 only nine.
        assert!(s.percentile(90.0).is_ok());
        let err = s.percentile(91.0).unwrap_err();
        assert!(err.contains("only 9 of 100"), "{err}");
        assert!(Samples::new([]).percentile(50.0).is_err());
    }

    #[test]
    fn weights_shift_the_percentile() {
        // Twenty light samples and one heavy one in front: the heavy
        // sample holds half the weight, so it is the median.
        let s = Samples::weighted(
            std::iter::once((1.0, 20)).chain((2..=21).map(|v| (f64::from(v), 1))),
        );
        assert_eq!(s.percentile(50.0).unwrap(), 1.0);
        assert_eq!(s.percentile(55.0).unwrap(), 3.0);
        // Zero-weight entries do not count as samples.
        assert_eq!(Samples::weighted([(1.0, 0), (2.0, 3)]).sorted.len(), 1);
    }

    #[test]
    fn median_and_min_max() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(min_max(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_share(&xs) - 1.0).abs() < 1e-12);
    }
}
