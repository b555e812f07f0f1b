//! Statistics and output: percentiles with their sample counts, histogram
//! deltas from the telemetry plane, and the result line.

use ms_obs::{HistogramSnapshot, RegistrySnapshot};

use crate::json::quote;

pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(v: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = v
        .into_iter()
        .fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// First quartile, median and third quartile, by the method of Python's
/// `statistics.quantiles(values, n=4)`.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    if n == 1 {
        return (s[0], s[0], s[0]);
    }
    let q = |k: usize| {
        let m = n + 1;
        let j = (k * m / 4).clamp(1, n - 1);
        let delta = (k * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// A nearest-rank percentile and the number of samples above it.
#[derive(Debug, Clone, Copy)]
pub struct Pct {
    pub value: f64,
    pub n: usize,
    pub beyond: usize,
}

pub fn percentile(v: &[f64], q: f64) -> Pct {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return Pct {
            value: 0.0,
            n: 0,
            beyond: 0,
        };
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Pct {
        value: s[rank - 1],
        n,
        beyond: n - rank,
    }
}

/// Sum of every histogram whose name starts with `prefix` (per-shard
/// series merge bucket-wise), as the difference between two snapshots.
pub fn hist_delta(
    before: &RegistrySnapshot,
    after: &RegistrySnapshot,
    prefix: &str,
) -> HistogramSnapshot {
    let sum = |snap: &RegistrySnapshot| {
        snap.histograms
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .fold(HistogramSnapshot::default(), |acc, (_, h)| acc.merge(h))
    };
    let (a, b) = (sum(before), sum(after));
    HistogramSnapshot {
        buckets: std::array::from_fn(|i| b.buckets[i].saturating_sub(a.buckets[i])),
        count: b.count.saturating_sub(a.count),
        sum: b.sum.wrapping_sub(a.sum),
        max: b.max,
    }
}

/// Quantile of a power-of-two-bucket histogram, interpolated linearly
/// within the bucket that holds it.
pub fn hist_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let target = (q * h.count as f64).max(1.0);
    let mut seen = 0.0;
    for (i, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if seen + c as f64 >= target {
            let lower = if i == 0 {
                0.0
            } else {
                (1u64 << (i - 1)) as f64
            };
            let upper = ms_obs::hist::bucket_upper(i) as f64 + 1.0;
            return lower + (upper - lower) * (target - seen) / c as f64;
        }
        seen += c as f64;
    }
    h.max as f64
}

pub fn counter_delta(before: &RegistrySnapshot, after: &RegistrySnapshot, name: &str) -> u64 {
    after
        .counter(name)
        .unwrap_or(0)
        .saturating_sub(before.counter(name).unwrap_or(0))
}

pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Sample counts behind the metrics, and other run facts.
    pub facts: Vec<(String, String)>,
    pub violations: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    fn metrics_json(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    num(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The run record: the result plus run metadata and sample counts.
    pub fn record_json(&self) -> String {
        let facts: Vec<String> = self
            .facts
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
            .collect();
        let violations: Vec<String> = self.violations.iter().map(|v| quote(v)).collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"facts\": {{{}}}, \"violations\": [{}]}}\n",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json(),
            facts.join(", "),
            violations.join(", ")
        )
    }
}

/// A JSON number with all its digits (non-finite values become 0 and are
/// flagged by the caller's checks).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}
