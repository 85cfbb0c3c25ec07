//! Small statistics toolkit: empirical CDFs, percentiles, and moments —
//! the machinery every figure in the paper is built from.

use serde::Serialize;

/// An empirical cumulative distribution over `f64` samples.
#[derive(Debug, Clone, Serialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from samples; non-finite values are dropped.
    pub fn from_samples(samples: impl IntoIterator<Item = f64>) -> Cdf {
        let mut sorted: Vec<f64> = samples.into_iter().filter(|x| x.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite after filter"));
        Cdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples survived.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The underlying sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// The `q`-quantile for `q` in `[0, 1]`, by linear interpolation.
    /// Panics on an empty CDF.
    pub fn quantile(&self, q: f64) -> f64 {
        sorted_quantile(&self.sorted, q)
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Fraction of samples `<= x` (the CDF value at `x`).
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.partition_point(|&v| v <= x) as f64 / self.sorted.len() as f64
    }

    /// Evaluate the CDF at `n` evenly spaced points across the sample
    /// range, as `(x, F(x))` pairs — the plotted curve.
    pub fn curve(&self, n: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || n == 0 {
            return Vec::new();
        }
        let lo = self.sorted[0];
        let hi = *self.sorted.last().expect("non-empty");
        (0..n)
            .map(|i| {
                let x = if n == 1 {
                    hi
                } else {
                    lo + (hi - lo) * i as f64 / (n - 1) as f64
                };
                (x, self.fraction_at_or_below(x))
            })
            .collect()
    }
}

/// The `q`-quantile of ascending samples for `q` in `[0, 1]`, by linear
/// interpolation between the two nearest ranks. Panics when empty.
pub(crate) fn sorted_quantile(sorted: &[f64], q: f64) -> f64 {
    quantile_of(sorted.len(), q, |i| sorted[i])
}

/// [`sorted_quantile`] of `len` ascending samples that `sample(i)`
/// reads: only the two nearest ranks are read. Panics when `len` is 0.
pub(crate) fn quantile_of(len: usize, q: f64, sample: impl Fn(usize) -> f64) -> f64 {
    assert!(len > 0, "quantile of empty CDF");
    let q = q.clamp(0.0, 1.0);
    if len == 1 {
        return sample(0);
    }
    let pos = q * (len - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sample(lo) * (1.0 - frac) + sample(hi) * frac
}

/// Arithmetic mean; zero for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation; zero for fewer than two samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Median of a slice (does not require sorted input); zero when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    Cdf::from_samples(xs.iter().copied()).median()
}

/// A mean with its standard deviation, as the error-bar figures report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MeanStd {
    /// The mean.
    pub mean: f64,
    /// The standard deviation.
    pub std: f64,
}

impl MeanStd {
    /// Compute from samples.
    pub fn of(xs: &[f64]) -> MeanStd {
        MeanStd { mean: mean(xs), std: std_dev(xs) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let cdf = Cdf::from_samples([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(1.0), 4.0);
        assert_eq!(cdf.median(), 2.5);
        assert!((cdf.quantile(0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn single_sample() {
        let cdf = Cdf::from_samples([7.0]);
        assert_eq!(cdf.median(), 7.0);
        assert_eq!(cdf.quantile(0.95), 7.0);
    }

    #[test]
    fn fraction_at_or_below() {
        let cdf = Cdf::from_samples([1.0, 2.0, 2.0, 5.0]);
        assert_eq!(cdf.fraction_at_or_below(0.5), 0.0);
        assert_eq!(cdf.fraction_at_or_below(2.0), 0.75);
        assert_eq!(cdf.fraction_at_or_below(10.0), 1.0);
    }

    #[test]
    fn non_finite_samples_dropped() {
        let cdf = Cdf::from_samples([1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    fn curve_is_monotone() {
        let cdf = Cdf::from_samples((0..100).map(|i| (i * i) as f64));
        let curve = cdf.curve(20);
        assert_eq!(curve.len(), 20);
        for pair in curve.windows(2) {
            assert!(pair[1].1 >= pair[0].1);
            assert!(pair[1].0 >= pair[0].0);
        }
        assert_eq!(curve.last().unwrap().1, 1.0);
    }

    #[test]
    fn moments() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert_eq!(std_dev(&xs), 2.0);
        assert_eq!(median(&xs), 4.5);
        let ms = MeanStd::of(&xs);
        assert_eq!((ms.mean, ms.std), (5.0, 2.0));
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert!(Cdf::from_samples(std::iter::empty()).is_empty());
    }
}
