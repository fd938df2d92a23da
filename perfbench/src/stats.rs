//! Percentiles from raw samples, and the metric list the run prints.

/// Nearest-rank percentile of an ascending-sorted slice (`q` in `0..=1`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly beyond the nearest-rank percentile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

/// A named metric with its unit, in print order.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Median, the `tail` percentile and the sample count of `values`,
    /// as `<name>.p50`, `<name>.p<tail>` and `<name>.n`. Fails when the
    /// sample leaves fewer than ten values beyond the tail percentile.
    pub fn timing(
        &mut self,
        name: &str,
        values: &[f64],
        tail: u32,
        unit: &'static str,
    ) -> Result<(), String> {
        let q = tail as f64 / 100.0;
        if beyond(values.len(), q) < 10 {
            return Err(format!(
                "{name}: {} samples leave fewer than 10 beyond p{tail}",
                values.len()
            ));
        }
        let s = sorted(values.to_vec());
        self.push(format!("{name}.p50"), percentile(&s, 0.5), unit);
        self.push(format!("{name}.p{tail}"), percentile(&s, q), unit);
        self.push(format!("{name}.n"), s.len() as f64, "count");
        Ok(())
    }

    /// Median and `tail` percentile of a per-request count or ratio, as
    /// `<name>.p50` and `<name>.p<tail>`.
    pub fn counts(
        &mut self,
        name: &str,
        values: &[f64],
        tail: u32,
        unit: &'static str,
    ) -> Result<(), String> {
        if values.is_empty() {
            return Err(format!("{name}: no samples"));
        }
        let s = sorted(values.to_vec());
        self.push(format!("{name}.p50"), percentile(&s, 0.5), unit);
        self.push(
            format!("{name}.p{tail}"),
            percentile(&s, tail as f64 / 100.0),
            unit,
        );
        Ok(())
    }

    /// The run's result line: one JSON object, printed last on standard
    /// output.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

/// A finite JSON number with all its digits (non-finite values print 0,
/// which no caller produces on a correct run).
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 500.0);
        assert_eq!(percentile(&s, 0.99), 990.0);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(40, 0.75), 10);
        assert_eq!(beyond(39, 0.75), 9);
    }
}
