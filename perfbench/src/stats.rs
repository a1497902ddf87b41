//! Latency samples, percentiles, and the metric report.
//!
//! Percentile rule: a timing is reported at the requested percentile
//! only when at least ten samples lie beyond it; otherwise at the
//! highest whole percentile that has ten samples beyond it. So a p99
//! needs at least 1,000 samples and is never printed from fewer. A
//! failed operation stays in its sample set as `+inf`: it counts as
//! over every limit and is never dropped.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Samples beyond a reported percentile, at least.
pub const MIN_BEYOND: usize = 10;

/// One latency series, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

/// A percentile as reported: which percentile, its value, and the
/// sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// Whole percent actually reported (may be below the requested one).
    pub pct: u32,
    /// The sample at that percentile (nearest rank), in the series' unit.
    pub value: f64,
    /// Samples in the series, failures included.
    pub n: usize,
}

impl Samples {
    /// Records one completed operation's latency.
    pub fn push(&mut self, ms: f64) {
        self.values.push(ms);
    }

    /// Appends another series.
    pub fn extend(&mut self, other: Samples) {
        self.values.extend(other.values);
    }

    /// Records the latency between two instants.
    pub fn push_between(&mut self, from: Instant, to: Instant) {
        self.push(ms_between(from, to));
    }

    /// Records a failed, refused or timed-out operation: it stays in
    /// the series as over every limit.
    pub fn push_failed(&mut self) {
        self.values.push(f64::INFINITY);
    }

    /// Samples recorded, failures included.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Mean of the finite samples (0 when there are none).
    pub fn mean(&self) -> f64 {
        let finite: Vec<f64> = self
            .values
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .collect();
        if finite.is_empty() {
            0.0
        } else {
            finite.iter().sum::<f64>() / finite.len() as f64
        }
    }

    /// The requested percentile, or the highest whole percentile below
    /// it that leaves [`MIN_BEYOND`] samples beyond; `None` when no
    /// percentile qualifies.
    pub fn percentile(&self, want_pct: u32) -> Option<Quantile> {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        percentile_of_sorted(&sorted, want_pct)
    }
}

/// Nearest-rank percentile over sorted samples under the
/// ten-beyond rule (see [`Samples::percentile`]).
pub fn percentile_of_sorted(sorted: &[f64], want_pct: u32) -> Option<Quantile> {
    let n = sorted.len();
    (1..=want_pct.min(100)).rev().find_map(|pct| {
        // nearest rank: the smallest k with k/n >= pct/100
        let rank = (pct as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= MIN_BEYOND).then(|| Quantile {
            pct,
            value: sorted[rank - 1],
            n,
        })
    })
}

/// Milliseconds from `from` to `to` (0 if `to` is earlier).
pub fn ms_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Median of a small set of measurements (e.g. repeated set-ups).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Open-loop schedule: request `i` is due at `start + i * interval`.
/// Latencies are timed from the due instant, not the send instant, so
/// a stall that delays later sends is charged to those requests.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Instant request 0 is due.
    pub start: Instant,
    /// Time between consecutive requests.
    pub interval: Duration,
}

impl Schedule {
    /// When request `i` is due, shifted by `offset`.
    pub fn due(&self, i: usize, offset: Duration) -> Instant {
        self.start + self.interval.mul_f64(i as f64) + offset
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (a `BENCHMARK.json` name, or a report-only one).
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, refused or timed out.
    pub failed: u64,
    /// Failed output checks, one line each.
    pub check_failures: Vec<String>,
}

impl Report {
    /// Adds a scalar metric.
    pub fn add(&mut self, name: &str, unit: &'static str, value: f64, n: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            n,
        });
    }

    /// Adds `{prefix}_p{pct}_ms` for a latency series. When the series
    /// is too small for the requested percentile the metric is named
    /// after the percentile actually reported, so a p99 is never printed
    /// from fewer than 1,000 samples.
    pub fn add_latency(&mut self, prefix: &str, samples: &Samples, pct: u32) {
        match samples.percentile(pct) {
            Some(q) => self.add(&format!("{prefix}_p{}_ms", q.pct), "ms", q.value, q.n),
            None => self.check(
                false,
                format!(
                    "{prefix}: {} samples are too few for any percentile",
                    samples.len()
                ),
            ),
        }
    }

    /// Records an output check; a false condition fails the run.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.check_failures.push(what.into());
        }
    }

    /// Counts attempted operations and the failures among them.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// Human-readable report: every metric with unit and sample count.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<34} {:>16} {:<6} n={}",
                m.name,
                format_value(m.value),
                m.unit,
                m.n
            );
        }
        for failure in &self.check_failures {
            let _ = writeln!(out, "  CHECK FAILED: {failure}");
        }
        out
    }

    /// The one-line JSON result carrying the metrics named in `keys`.
    /// A key this run did not produce is an error: the result would
    /// not be comparable with other runs.
    pub fn result_line(&self, keys: &[&str]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(keys.len());
        for key in keys {
            let m = self
                .get(key)
                .ok_or_else(|| format!("metric {key} was not measured"))?;
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }
}

fn format_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "inf".into()
    }
}

/// A JSON number with every digit `f64` holds; a non-finite value
/// (a percentile landing on a failed operation) becomes `f64::MAX`,
/// which is over every limit.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> Samples {
        let mut s = Samples::default();
        for i in 1..=n {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let q = series(1000).percentile(99).expect("p99 of 1000");
        assert_eq!(q.pct, 99);
        assert_eq!(q.value, 990.0);
        assert_eq!(q.n, 1000);
        // 999 samples leave only nine beyond rank 990: fall back to p98
        let q = series(999).percentile(99).expect("a lower percentile");
        assert_eq!(q.pct, 98);
        assert_eq!(q.value, 980.0);
    }

    #[test]
    fn reported_percentile_is_the_highest_with_ten_beyond() {
        for n in [11usize, 20, 57, 200, 999, 1000, 4321] {
            let s = series(n);
            let q = s.percentile(99).expect("some percentile");
            assert!(n - q.value as usize >= MIN_BEYOND, "n={n} q={q:?}");
            if q.pct < 99 {
                // the next percentile up would leave fewer than ten
                let rank = ((q.pct as usize + 1) * n).div_ceil(100);
                assert!(n - rank < MIN_BEYOND, "n={n} q={q:?}");
            }
        }
        assert_eq!(series(10).percentile(50), None);
    }

    #[test]
    fn median_is_nearest_rank() {
        let q = series(100).percentile(50).expect("p50");
        assert_eq!((q.pct, q.value), (50, 50.0));
    }

    #[test]
    fn failures_stay_in_the_series_and_exceed_every_limit() {
        let mut s = series(990);
        for _ in 0..20 {
            s.push_failed();
        }
        assert_eq!(s.len(), 1010);
        let q = s.percentile(99).expect("p99");
        assert!(q.value.is_infinite(), "failures sort above every latency");
        assert_eq!(s.percentile(50).map(|q| q.value), Some(505.0));
        assert_eq!(json_number(q.value), format!("{:?}", f64::MAX));
    }

    #[test]
    fn small_series_report_under_their_own_percentile_name() {
        let mut r = Report::default();
        r.add_latency("match", &series(500), 99);
        assert!(r.get("match_p99_ms").is_none());
        assert_eq!(r.get("match_p98_ms").map(|m| m.n), Some(500));
        assert!(r.correct());
        r.add_latency("match", &series(5), 99);
        assert!(!r.correct(), "too few samples fails the run");
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let start = Instant::now();
        let sched = Schedule {
            start,
            interval: Duration::from_millis(2),
        };
        let due = sched.due(5, Duration::from_millis(1));
        assert_eq!(due - start, Duration::from_millis(11));
        // sent 3 ms late, answered 1 ms after the send: 4 ms from due
        let sent = due + Duration::from_millis(3);
        let answered = sent + Duration::from_millis(1);
        let mut s = Samples::default();
        s.push_between(due, answered);
        assert!((s.mean() - 4.0).abs() < 1e-9);
        assert_eq!(ms_between(answered, due), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.add("setup_s", "s", 0.8127, 3);
        r.add("extra", "count", 1.0, 1);
        r.count(10, 0);
        let line = r.result_line(&["setup_s"]).expect("line");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(r.result_line(&["missing"]).is_err());
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
