//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark prints comes from the full sample set,
//! sorted, with linear interpolation between the two closest ranks — no
//! bucketing, so a sub-millisecond latency reads as itself and a tail
//! beyond any histogram edge is not clamped.

/// A set of raw samples of one quantity.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The `p`-th percentile (`0..=100`), or 0 for an empty set.
    pub fn pct(&mut self, p: f64) -> f64 {
        self.sort();
        percentile_sorted(&self.values, p)
    }

    pub fn median(&mut self) -> f64 {
        self.pct(50.0)
    }

    /// `{"n":..,"p50":..,"p90":..,"p99":..,"max":..}` — a summary that
    /// always carries its sample count.
    pub fn summary_json(&mut self) -> String {
        format!(
            "{{\"n\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
            self.len(),
            num(self.pct(50.0)),
            num(self.pct(90.0)),
            num(self.pct(99.0)),
            num(self.pct(100.0))
        )
    }
}

/// Linear interpolation between closest ranks over an ascending slice.
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (p.clamp(0.0, 100.0) / 100.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median of a small set (setup repetitions and the like).
pub fn median(values: &[f64]) -> f64 {
    let mut s = Samples::new();
    for &v in values {
        s.push(v);
    }
    s.median()
}

/// A finite JSON number with all its digits (`null` for NaN/inf).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let mut s = Samples::new();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.pct(0.0), 1.0);
        assert_eq!(s.pct(100.0), 4.0);
        assert_eq!(s.median(), 2.5);
        assert!((s.pct(99.0) - 3.97).abs() < 1e-12);
    }

    #[test]
    fn tails_are_not_clamped() {
        let mut s = Samples::new();
        for i in 0..1000 {
            s.push(if i == 999 { 1e9 } else { 0.25 });
        }
        assert_eq!(s.median(), 0.25);
        assert_eq!(s.pct(100.0), 1e9);
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(Samples::new().pct(50.0), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
