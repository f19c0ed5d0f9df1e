//! Order statistics over latency samples.
//!
//! A percentile is reported together with how many samples lie beyond
//! it: a tail figure backed by fewer than [`MIN_TAIL_SAMPLES`] samples is
//! noise, so [`Samples::supported_percentile`] steps down to the highest
//! percentile the run can actually back.

/// The fewest samples that must lie beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// A set of measurements in milliseconds (or any one unit).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() / self.values.len() as f64
        }
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The `p`-th percentile (0–100) by linear interpolation between
    /// closest ranks, the same rule as Python's
    /// `statistics.quantiles(method="inclusive")`. Empty sets read 0.
    pub fn percentile(&mut self, p: f64) -> f64 {
        self.sort();
        let n = self.values.len();
        if n == 0 {
            return 0.0;
        }
        let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
        let low = rank.floor() as usize;
        let high = rank.ceil() as usize;
        let weight = rank - low as f64;
        self.values[low] + (self.values[high] - self.values[low]) * weight
    }

    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// How many samples lie strictly above the `p`-th percentile rank.
    pub fn beyond(&self, p: f64) -> usize {
        let n = self.values.len();
        let rank = (p / 100.0).clamp(0.0, 1.0) * n.saturating_sub(1) as f64;
        n.saturating_sub(rank.floor() as usize + 1)
    }

    /// The highest of `wanted`, then the standard steps below it (99, 90,
    /// 75, 50), that has at least [`MIN_TAIL_SAMPLES`] samples beyond it,
    /// with its value. Falls back to the median when even that is
    /// unsupported.
    pub fn supported_percentile(&mut self, wanted: f64) -> (f64, f64) {
        let steps = [wanted, 99.0, 90.0, 75.0, 50.0];
        for &p in steps.iter().filter(|&&p| p <= wanted) {
            if self.beyond(p) >= MIN_TAIL_SAMPLES {
                return (p, self.percentile(p));
            }
        }
        (50.0, self.median())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: &[f64]) -> Samples {
        let mut s = Samples::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let mut s = samples(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 5.0);
        assert_eq!(s.percentile(25.0), 2.0);
        assert!((s.percentile(90.0) - 4.6).abs() < 1e-12);
        assert_eq!(Samples::new().median(), 0.0);
    }

    #[test]
    fn beyond_counts_the_samples_past_a_percentile() {
        let s = samples(&(1..=100).map(f64::from).collect::<Vec<_>>());
        // Rank 0.9·99 = 89.1 → samples at 0-based indices 90..99.
        assert_eq!(s.beyond(90.0), 10);
        assert_eq!(s.beyond(99.0), 1);
        assert_eq!(s.beyond(50.0), 50);
    }

    #[test]
    fn unsupported_tails_step_down() {
        let mut s = samples(&(1..=100).map(f64::from).collect::<Vec<_>>());
        // p99 has one sample beyond it, p90 has ten.
        assert_eq!(s.supported_percentile(99.0).0, 90.0);
        let mut small = samples(&[1.0, 2.0, 3.0]);
        assert_eq!(small.supported_percentile(90.0), (50.0, 2.0));
        let mut big = samples(&(1..=2000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(big.supported_percentile(99.0).0, 99.0);
    }
}
