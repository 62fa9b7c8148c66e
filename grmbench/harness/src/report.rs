//! The result line, order statistics and process-level measurements.

use crate::Metrics;
use std::fmt::Write as _;
use std::time::Duration;

/// What one workload invocation reports: the contract's result object.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops issued in the timed phase (traced runs: every op replayed).
    pub attempted: u64,
    /// Ops that errored, were refused or cancelled, or answered wrongly.
    pub failed: u64,
    /// Run-level checks that are not ops (set-up equivalence, counter
    /// sanity); any failure here makes the run incorrect.
    pub check_failures: Vec<String>,
    /// The run's metrics, by the names `BENCHMARK.json` lists.
    pub metrics: Metrics,
}

impl Outcome {
    /// Record a failed op, with the reason on stderr.
    pub fn fail_op(&mut self, why: impl AsRef<str>) {
        self.failed += 1;
        eprintln!("grmbench: failed op: {}", why.as_ref());
    }

    /// Record a failed run-level check, with the reason on stderr.
    pub fn fail_check(&mut self, why: impl Into<String>) {
        let why = why.into();
        eprintln!("grmbench: failed check: {why}");
        self.check_failures.push(why);
    }

    /// Render the result as one JSON line, metrics as name to value in
    /// name order.
    pub fn to_json(&self) -> String {
        let correct = self.failed == 0 && self.check_failures.is_empty();
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        let mut names: Vec<_> = self.metrics.keys().collect();
        names.sort_unstable();
        for (i, name) in names.into_iter().enumerate() {
            let value = self.metrics[name];
            let v = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {v:?}");
        }
        s.push_str("}}");
        s
    }
}

/// Milliseconds of a duration, with every digit the clock gave.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in `0..=1`: the smallest sample with at
/// least a `p` share of the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The set-up statistic: the nearest-rank 10th percentile of a run's
/// set-up times. Set-ups are short, and on a shared machine a neighbour
/// slows many of them by a third or more; the low quantile skips those
/// and still does not rest on the single fastest one.
pub fn setup_ms(times: &[f64]) -> f64 {
    percentile(times, 0.10)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Peak resident set of process `pid` (`self` for this one) in MB, from
/// the kernel's high-water mark.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Size of a file or, recursively, of a directory's files, in MB.
pub fn disk_mb(path: &std::path::Path) -> f64 {
    fn bytes(p: &std::path::Path) -> u64 {
        match std::fs::metadata(p) {
            Ok(m) if m.is_dir() => std::fs::read_dir(p)
                .map(|rd| rd.flatten().map(|e| bytes(&e.path())).sum())
                .unwrap_or(0),
            Ok(m) => m.len(),
            Err(_) => 0,
        }
    }
    bytes(path) as f64 / 1e6
}
