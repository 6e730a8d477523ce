//! Order statistics and the result line.

use std::fmt::Write as _;

/// The `q`-quantile of `values` (nearest rank on the sorted sample), or 0
/// for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (the 0.5 quantile).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean, or 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The median over consecutive windows of `window` items of a window's
/// count over its duration. Each item is `(count, start, end)`, times in
/// seconds; a window lasts from its first item's start to its last item's
/// end. A shorter last window counts as one. 0 without items.
pub fn windowed_rate(items: &[(f64, f64, f64)], window: usize) -> f64 {
    let rates: Vec<f64> = items
        .chunks(window.max(1))
        .map(|w| {
            let count: f64 = w.iter().map(|item| item.0).sum();
            count / (w[w.len() - 1].2 - w[0].1).max(1e-9)
        })
        .collect();
    median(&rates)
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// The metrics of one run, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// A timing sample as its p50, p99 and mean (`{name}.p50`, ...).
    pub fn push_dist(&mut self, name: &str, unit: &'static str, values: &[f64]) {
        self.push(format!("{name}.p50"), unit, quantile(values, 0.5));
        self.push(format!("{name}.p99"), unit, quantile(values, 0.99));
        self.push(format!("{name}.mean"), unit, mean(values));
    }
}

/// A JSON number: the shortest text that reads back as the same `f64`
/// (non-finite values, which JSON cannot carry, become 0).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_owned()
    }
}

/// The result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn windowed_rate_is_the_median_window() {
        // Windows of two: 4 per 1 s, 4 per 4 s (a stall), 6 per 1 s, and a
        // last window of one item, 3 per 1 s.
        let items = [
            (2.0, 0.0, 0.5),
            (2.0, 0.5, 1.0),
            (2.0, 1.0, 4.5),
            (2.0, 4.5, 5.0),
            (3.0, 5.0, 5.5),
            (3.0, 5.5, 6.0),
            (3.0, 6.0, 7.0),
        ];
        assert_eq!(windowed_rate(&items, 2), 3.0);
        assert_eq!(windowed_rate(&items, 7), 17.0 / 7.0);
        assert_eq!(windowed_rate(&[], 2), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.push("setup_s", "s", 0.5);
        m.push("x", "ms", f64::NAN);
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"x\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
        );
    }
}
