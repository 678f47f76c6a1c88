//! Summary statistics, failure accounting and result rendering.
//!
//! Every latency metric is reported as a median plus a tail percentile,
//! and the tail is the highest percentile (at most the requested one)
//! that still has [`MIN_BEYOND`] samples above it, so a short run never
//! reports a "p99" that is really its maximum. Failed operations enter
//! the latency samples as infinitely slow, so they miss every limit.

use std::fmt::Write as _;

/// Samples that must lie strictly above a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Stand-in for an infinite latency in the JSON result, which has no
/// infinity: a tail that a failed operation reached prints as this.
pub const UNBOUNDED: f64 = f64::MAX;

/// A tail percentile taken under the [`MIN_BEYOND`] rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the percentile (nearest rank).
    pub value: f64,
    /// The percentile actually reported, in `(0, 100]`.
    pub pct: f64,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
    /// All samples, failures included.
    pub count: usize,
}

/// Nearest-rank `target` percentile (`0 < target < 1`) of `samples`,
/// lowered until at least [`MIN_BEYOND`] samples lie beyond it. `None`
/// when there are too few samples for any percentile to qualify.
pub fn tail(samples: &[f64], target: f64) -> Option<Tail> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let wanted = ((target * n as f64).ceil() as usize).clamp(1, n) - 1;
    let rank = wanted.min(n - 1 - MIN_BEYOND);
    Some(Tail {
        value: sorted[rank],
        pct: 100.0 * (rank + 1) as f64 / n as f64,
        beyond: n - 1 - rank,
        count: n,
    })
}

/// Median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    })
}

/// Arithmetic mean, `0.0` for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Latencies of one operation class plus its failure count.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    samples: Vec<f64>,
    failed: u64,
}

impl Latencies {
    /// Records a completed operation.
    pub fn ok(&mut self, value: f64) {
        self.samples.push(value);
    }

    /// Records a failed or refused operation: it counts as attempted, as
    /// failed, and as slower than any limit.
    pub fn failed(&mut self) {
        self.samples.push(f64::INFINITY);
        self.failed += 1;
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Operations that failed.
    pub fn failures(&self) -> u64 {
        self.failed
    }

    /// Sum of the completed operations' latencies.
    pub fn total(&self) -> f64 {
        self.samples.iter().filter(|v| v.is_finite()).sum()
    }

    /// Median latency.
    pub fn median(&self) -> Option<f64> {
        median(&self.samples)
    }

    /// Tail latency under the [`MIN_BEYOND`] rule.
    pub fn tail(&self, target: f64) -> Option<Tail> {
        tail(&self.samples, target)
    }

    /// Appends another run's samples.
    pub fn extend(&mut self, other: &Latencies) {
        self.samples.extend_from_slice(&other.samples);
        self.failed += other.failed;
    }
}

/// True when `name` is a legal metric name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
    /// How the value was taken (percentile actually reported, or why the
    /// metric does not apply to this workload).
    pub note: String,
}

impl Metric {
    /// A metric with a note.
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: impl Into<String>,
    ) -> Self {
        Self {
            name,
            value,
            unit,
            samples,
            note: note.into(),
        }
    }

    /// Median and p99-rule tail metrics of `lat`, in ms.
    pub fn latency_pair(
        p50: &'static str,
        p99: &'static str,
        lat: &Latencies,
    ) -> Result<[Metric; 2], String> {
        let count = lat.attempted() as usize;
        let med = lat.median().ok_or_else(|| format!("{p50}: no samples"))?;
        let t = lat
            .tail(0.99)
            .ok_or_else(|| format!("{p99}: {count} samples, need more than {MIN_BEYOND}"))?;
        Ok([
            Metric::new(p50, finite_or_unbounded(med), "ms", count, "p50"),
            Metric::new(
                p99,
                finite_or_unbounded(t.value),
                "ms",
                t.count,
                format!("p{:.3} with {} samples beyond", t.pct, t.beyond),
            ),
        ])
    }
}

fn finite_or_unbounded(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        UNBOUNDED
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted over the measured rounds.
    pub attempted: u64,
    /// Operations that failed, were rejected or answered non-2xx.
    pub failed: u64,
    /// Reported metrics, in order.
    pub metrics: Vec<Metric>,
    /// Output checks, `(name, Ok | Err(reason))`.
    pub checks: Vec<(String, Result<(), String>)>,
    /// Digest of the workload's deterministic outputs.
    pub digest: u64,
}

impl Outcome {
    /// Records an output check.
    pub fn check(&mut self, name: &str, result: Result<(), String>) {
        self.checks.push((name.to_string(), result));
    }

    /// True when every output check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, r)| r.is_ok())
    }

    /// Human-readable lines: one per check and per metric.
    pub fn report_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        lines.push(format!("digest {:016x}", self.digest));
        for (name, result) in &self.checks {
            match result {
                Ok(()) => lines.push(format!("check {name}: ok")),
                Err(reason) => lines.push(format!("check {name}: FAILED: {reason}")),
            }
        }
        for m in &self.metrics {
            lines.push(format!(
                "metric {} = {} {} (n={}; {})",
                m.name, m.value, m.unit, m.samples, m.note
            ));
        }
        lines
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() {
                m.value
            } else {
                UNBOUNDED
            };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:e}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Order-sensitive 64-bit digest of deterministic outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds one word.
    pub fn word(&mut self, x: u64) {
        self.0 = crate::inputs::mix(self.0, x);
    }

    /// Folds the exact bits of a float.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Folds a byte string.
    pub fn bytes(&mut self, s: &[u8]) {
        self.word(s.len() as u64);
        for chunk in s.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples: p99 would leave 1 sample beyond, so the rule drops
        // to rank 89 (p90), which leaves exactly 10.
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&samples, 0.99).unwrap();
        assert_eq!(t.beyond, MIN_BEYOND);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.pct, 90.0);
        assert_eq!(t.count, 100);
    }

    #[test]
    fn tail_is_the_true_p99_with_enough_samples() {
        let samples: Vec<f64> = (1..=2000).rev().map(f64::from).collect();
        let t = tail(&samples, 0.99).unwrap();
        assert_eq!(t.value, 1980.0);
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.beyond, 20);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let samples: Vec<f64> = (0..10).map(f64::from).collect();
        assert!(tail(&samples, 0.99).is_none());
        let samples: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&samples, 0.99).unwrap();
        assert_eq!((t.value, t.beyond), (0.0, 10));
    }

    #[test]
    fn latency_pair_prints_percentile_and_count() {
        let mut lat = Latencies::default();
        for v in 1..=50 {
            lat.ok(f64::from(v));
        }
        let [p50, p99] = Metric::latency_pair("a_ms", "b_ms", &lat).unwrap();
        assert_eq!(p50.value, 25.5);
        assert_eq!(p99.samples, 50);
        assert_eq!(p99.value, 40.0);
        assert!(p99.note.contains("p80.000"), "{}", p99.note);
        assert!(p99.note.contains("10 samples beyond"), "{}", p99.note);
    }

    #[test]
    fn failures_count_as_attempted_failed_and_over_every_limit() {
        let mut lat = Latencies::default();
        for _ in 0..95 {
            lat.ok(1.0);
        }
        for _ in 0..5 {
            lat.failed();
        }
        assert_eq!(lat.attempted(), 100);
        assert_eq!(lat.failures(), 5);
        // Failures sit above any limit: with five of them the tail (10
        // beyond) still lands on a completed sample; with 20 it cannot.
        assert_eq!(lat.tail(0.99).unwrap().value, 1.0);
        for _ in 0..15 {
            lat.failed();
        }
        assert_eq!(lat.tail(0.99).unwrap().value, f64::INFINITY);
        let [_, p99] = Metric::latency_pair("a_ms", "b_ms", &lat).unwrap();
        assert_eq!(p99.value, UNBOUNDED);
    }

    #[test]
    fn failed_operations_reach_the_result_line() {
        let mut out = Outcome {
            attempted: 10,
            failed: 2,
            ..Outcome::default()
        };
        out.metrics
            .push(Metric::new("op_p50_ms", 1.5, "ms", 10, "p50"));
        out.check("ok", Ok(()));
        let json = out.to_json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 2"));
        assert!(json.contains("\"op_p50_ms\": {\"value\": 1.5e0, \"unit\": \"ms\"}"));
        out.check("planted", Err("mismatch".into()));
        assert!(!out.correct());
        assert!(out.to_json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn metric_name_pattern() {
        for good in ["setup_s", "online.probe_us", "a-b.c_9", "9lives"] {
            assert!(valid_metric_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "per/s",
            "ünï",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.word(1);
        a.word(2);
        let mut b = Digest::default();
        b.word(2);
        b.word(1);
        assert_ne!(a.value(), b.value());
    }
}
