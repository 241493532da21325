//! Quantiles and the metric list the benchmark prints.

/// Nearest-rank quantile `q` (0..=1) of an ascending-sorted slice: the
/// smallest sample with at least `q` of the samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nanosecond samples as ascending microseconds.
pub fn sorted_us(ns: impl Iterator<Item = u64>) -> Vec<f64> {
    let mut v: Vec<f64> = ns.map(|n| n as f64 / 1e3).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// `true` when at least [`TAIL_SAMPLES`] of `n` samples lie beyond
/// quantile `q`.
pub fn tail_reportable(n: usize, q: f64) -> bool {
    n - ((n as f64 * q).ceil() as usize).min(n) >= TAIL_SAMPLES
}

/// One named measurement with its unit.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in the order they are added.
#[derive(Default, Debug)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.get(name).is_none(), "metric {name} added twice");
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.add(name, value as f64, "count");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let six = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_eq!((quantile(&six, 0.5), quantile(&six, 0.99)), (3.0, 6.0));
    }

    #[test]
    fn p999_needs_ten_thousand_samples() {
        assert!(!tail_reportable(9_999, 0.999));
        assert!(tail_reportable(10_000, 0.999));
        assert!(tail_reportable(1_000, 0.99));
    }
}
