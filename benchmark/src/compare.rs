//! Judging one set of runs against another, metric by metric.

use crate::catalog::Metric;
use crate::stats::{median, quartiles};

/// How a metric moved between a base and a new set of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound, or every new run beats every base run.
    Better,
    /// Within the bound either way.
    Unchanged,
    /// Worse by more than the bound.
    Worse,
    /// The runs spread wider than the bound, so the medians cannot say.
    Unresolved,
}

impl Verdict {
    /// The verdict as printed.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Change of the new median against the base median, as a share of the
/// base median, signed so that positive means worse.
fn worsening(metric: &Metric, base: &[f64], new: &[f64]) -> f64 {
    let (b, n) = (median(base), median(new));
    let change = (n - b) / b.abs();
    if metric.higher_is_better {
        -change
    } else {
        change
    }
}

/// Judge `new` against `base` by the metric's bound. A metric whose runs
/// spread wider than the bound is unresolved, unless every new run beats
/// every base run.
pub fn verdict(metric: &Metric, base: &[f64], new: &[f64]) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    let worse = worsening(metric, base, new);
    if spread(base).max(spread(new)) > bound {
        let beats = |n: f64, b: f64| if metric.higher_is_better { n > b } else { n < b };
        return if new.iter().all(|&n| base.iter().all(|&b| beats(n, b))) {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse > bound {
        Verdict::Worse
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool) -> Metric {
        Metric { name: "m".into(), unit: "s".into(), higher_is_better, bound: Some(0.1) }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = metric(false);
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(verdict(&lower, &base, &[10.5, 10.4, 10.6, 10.5, 10.5]), Verdict::Unchanged);
        assert_eq!(verdict(&lower, &base, &[12.0, 12.1, 11.9, 12.0, 12.0]), Verdict::Worse);
        assert_eq!(verdict(&lower, &base, &[8.0, 8.1, 7.9, 8.0, 8.0]), Verdict::Better);
        assert_eq!(verdict(&metric(true), &base, &[8.0, 8.1, 7.9, 8.0, 8.0]), Verdict::Worse);
        // Wide new runs: unresolved unless every one beats every base run.
        assert_eq!(verdict(&lower, &base, &[5.0, 9.0, 12.0, 7.0, 11.0]), Verdict::Unresolved);
        assert_eq!(verdict(&lower, &base, &[5.0, 9.0, 6.0, 7.0, 9.5]), Verdict::Better);
    }
}
