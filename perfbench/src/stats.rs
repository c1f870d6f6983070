//! The benchmark's own statistics and the metric list it prints.

/// A percentile is printed only when at least this many samples lie
/// beyond it; otherwise one unlucky sample would decide it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending sample: the value at rank
/// `ceil(q · n)` (1-based). `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond that rank.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of an unsorted sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Median, or 0 for an empty sample (a layer the workload never calls).
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Metric names: a letter or digit first, then at most 64 letters,
/// digits, `_`, `.` and `-` in all.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// Metrics in the order they are added, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(
            self.0.iter().all(|(n, ..)| *n != name),
            "metric {name} added twice"
        );
        self.0.push((name, value, unit));
    }

    pub fn iter(&self) -> impl Iterator<Item = &(&'static str, f64, &'static str)> {
        self.0.iter()
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with every digit `f64` carries (non-finite → `null`).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.9), Some(90.0));
        let s: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(51.0));
        assert_eq!(percentile(&s, 0.9), Some(91.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(
            percentile(&s, 0.9),
            None,
            "99 samples leave only 9 above p90"
        );
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(percentile(&s, 0.9).is_some());
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1.0; 19], 0.5), None);
        assert_eq!(percentile(&[1.0; 20], 0.5), Some(1.0));
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_or_zero(&[]), 0.0);
    }

    #[test]
    fn metric_names() {
        for ok in ["setup_s", "op_p50_ms", "core.hier_delta_ms", "9x", "a-b"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ms%", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "bad metric name")]
    fn metrics_refuse_bad_names() {
        Metrics::default().add("op p50", 1.0, "ms");
    }

    #[test]
    fn metrics_json_keeps_every_digit() {
        let mut m = Metrics::default();
        m.add("latency_ms", 1.2034567890123, "ms");
        m.add("n", 3.0, "count");
        assert_eq!(
            m.to_json(),
            "{\"latency_ms\": {\"value\": 1.2034567890123, \"unit\": \"ms\"}, \
             \"n\": {\"value\": 3.0, \"unit\": \"count\"}}"
        );
    }
}
