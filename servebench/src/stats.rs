//! Small statistics helpers and the metric record.

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// The `q`-quantile by linear interpolation between closest ranks
/// (0 for an empty sample).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest of p99/p95/p90/p50 that has at least ten samples beyond
/// it, with its label.
pub fn supported_tail(n: usize) -> (f64, &'static str) {
    for (q, label) in [(0.99, "p99"), (0.95, "p95"), (0.90, "p90")] {
        if (n as f64) * (1.0 - q) >= 10.0 {
            return (q, label);
        }
    }
    (0.5, "p50")
}
