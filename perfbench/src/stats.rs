//! Order statistics and the metric records the benchmark prints.

/// The fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// One named measurement with its unit and the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// Median of `xs` (mean of the middle pair for an even count); `None` when
/// empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank `p`-quantile (`0 < p < 1`) of `xs`, reported only when at
/// least [`MIN_BEYOND`] samples lie strictly above its rank; a tail read off
/// fewer samples is noise, so it is withheld rather than printed.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 || !(0.0..1.0).contains(&p) {
        return None;
    }
    // 1-based nearest rank: the smallest k with k/n >= p.
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(v[rank - 1])
}

/// Geometric mean of positive values; `None` when empty or any value is
/// not positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|x| *x <= 0.0) {
        return None;
    }
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    Some((log_sum / xs.len() as f64).exp())
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is rank 90: exactly 10 lie beyond.
        assert_eq!(percentile(&ramp(100), 0.90), Some(90.0));
        // With 99 samples only 9 lie beyond rank 90.
        assert_eq!(percentile(&ramp(99), 0.90), None);
        // p99 needs 1000 samples.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        // Input order does not matter.
        let mut rev = ramp(100);
        rev.reverse();
        assert_eq!(percentile(&rev, 0.90), Some(90.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let g = geomean(&[1.0, 100.0]).unwrap_or(0.0);
        assert!((g - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }
}
