//! Host-speed probe for the in-process workloads.
//!
//! On a shared host the in-process workloads' CPU-bound timings follow
//! the neighbours' load: the same run can be 1.6× slower in one minute
//! than in the next, in CPU time as well as wall time. The probe is a
//! fixed kernel built from the standard library only (tokenising,
//! string formatting, hashing, a small ordered map), timed between the
//! workload's arrivals so that it sees the same host as they do. Its
//! times measure the host's speed during the run and depend on nothing
//! in the repository's crates.
//!
//! The gated end-to-end timings of the in-process runs, and every
//! run's set-up time, are reported at a nominal host on which one probe
//! takes [`NOMINAL_US`]:
//!
//! - an arrival's latency is scaled by `NOMINAL_US` ÷ the median of the
//!   last [`WINDOW`] probes before it, so each sample is scaled by the
//!   host's speed at its own moment;
//! - a rate is divided by `NOMINAL_US` ÷ the mean probe of the run: a
//!   rate is a mean over the run's wall time, and so is that;
//! - a set-up's time is scaled by `NOMINAL_US` ÷ the median of
//!   [`SETUP_PROBES`] probes right before and after it.
//!
//! The unscaled values and the probe times are printed too.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// Probe time, in µs, of the host the scaled timings are reported at.
pub const NOMINAL_US: f64 = 20.0;

/// Arrivals between probes.
pub const PROBE_EVERY: u64 = 16;

/// Latest probes whose median scales an arrival.
pub const WINDOW: usize = 15;

/// Probes right before, and again right after, a timed set-up.
pub const SETUP_PROBES: usize = 16;

/// The text the kernel tokenises, shaped like an entangled query.
const TEXT: &str = "SELECT 'p1a', fno INTO ANSWER Reservation3 WHERE fno IN \
                    (SELECT fno FROM Flights WHERE dest = 'Paris') \
                    AND ('p1b', fno) IN ANSWER Reservation3 CHOOSE 1";

/// The probe's fixed work; `salt` only varies the keys.
#[inline(never)]
pub fn kernel(salt: u64) -> usize {
    let tokens: Vec<String> = TEXT
        .split(|c: char| c.is_whitespace() || matches!(c, '(' | ')' | ','))
        .filter(|t| !t.is_empty())
        .map(str::to_ascii_lowercase)
        .collect();
    let mut names: HashMap<String, usize> = HashMap::new();
    for (i, t) in tokens.iter().enumerate() {
        names.insert(format!("{t}{}", salt.wrapping_add(i as u64) % 97), i);
    }
    let mut ordered = BTreeMap::new();
    for i in 0..64u64 {
        ordered.insert(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt, i);
    }
    let mut acc = 0usize;
    for t in &tokens {
        acc += names
            .get(&format!("{t}{}", salt % 97))
            .copied()
            .unwrap_or(1);
    }
    while let Some((k, _)) = ordered.pop_first() {
        acc ^= k as usize;
    }
    acc + names.len()
}

/// Probe times of one run and the wall time they took.
#[derive(Debug, Default)]
pub struct HostSpeed {
    /// Probe times, µs.
    probes: Vec<f64>,
    spent: Duration,
}

impl HostSpeed {
    /// Times one run of the kernel.
    pub fn probe(&mut self, salt: u64) {
        let started = Instant::now();
        black_box(kernel(black_box(salt)));
        let took = started.elapsed();
        self.probes.push(took.as_secs_f64() * 1e6);
        self.spent += took;
    }

    /// Wall time spent probing so far, in seconds.
    pub fn spent_s(&self) -> f64 {
        self.spent.as_secs_f64()
    }

    /// Probes taken.
    pub fn len(&self) -> usize {
        self.probes.len()
    }

    /// Median probe time in µs (0 before the first probe).
    pub fn median_us(&self) -> f64 {
        median(&self.probes)
    }

    /// Mean probe time in µs (0 before the first probe).
    pub fn mean_us(&self) -> f64 {
        self.probes.iter().sum::<f64>() / self.probes.len().max(1) as f64
    }

    /// Factor that brings this run's median latencies to the nominal
    /// host (1 before the first probe).
    pub fn median_scale(&self) -> f64 {
        scale(self.median_us())
    }

    /// Factor that brings a latency measured now to the nominal host:
    /// by the median of the last [`WINDOW`] probes (1 before the first).
    pub fn window_scale(&self) -> f64 {
        let recent = &self.probes[self.probes.len().saturating_sub(WINDOW)..];
        scale(median(recent))
    }

    /// Factor that brings this run's total times to the nominal host;
    /// its rates are divided by it (1 before the first probe).
    pub fn mean_scale(&self) -> f64 {
        scale(self.mean_us())
    }
}

/// A set-up's time in seconds, unscaled and at the nominal host.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    /// As measured.
    pub raw_s: f64,
    /// At the nominal host.
    pub s: f64,
}

/// Runs and times `setup` between two bursts of [`SETUP_PROBES`] probes,
/// and scales its time by their median.
pub fn time_setup<T>(setup: impl FnOnce() -> T) -> (T, SetupTime) {
    let mut host = HostSpeed::default();
    for salt in 0..SETUP_PROBES as u64 {
        host.probe(salt);
    }
    let started = Instant::now();
    let out = setup();
    let raw_s = started.elapsed().as_secs_f64();
    for salt in 0..SETUP_PROBES as u64 {
        host.probe(salt);
    }
    let s = raw_s * host.median_scale();
    (out, SetupTime { raw_s, s })
}

fn scale(probe_us: f64) -> f64 {
    if probe_us > 0.0 {
        NOMINAL_US / probe_us
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_bring_the_probe_to_nominal() {
        let mut host = HostSpeed::default();
        assert_eq!((host.median_scale(), host.mean_scale()), (1.0, 1.0));
        for us in [10.0, 40.0, 30.0, 40.0, 40.0] {
            host.probes.push(us);
        }
        assert_eq!(host.median_us(), 40.0);
        assert_eq!(host.mean_us(), 32.0);
        assert_eq!(host.median_scale(), NOMINAL_US / 40.0);
        assert_eq!(host.mean_scale(), NOMINAL_US / 32.0);
        // the window holds the latest probes only
        for _ in 0..WINDOW {
            host.probes.push(10.0);
        }
        assert_eq!(host.window_scale(), NOMINAL_US / 10.0);
        assert_eq!(host.median_scale(), NOMINAL_US / 10.0);
    }

    #[test]
    fn the_kernel_is_deterministic_and_probing_is_timed() {
        assert_eq!(kernel(7), kernel(7));
        let mut host = HostSpeed::default();
        host.probe(1);
        host.probe(2);
        assert_eq!(host.len(), 2);
        assert!(host.spent_s() > 0.0);
    }

    #[test]
    fn a_set_up_is_timed_without_its_probes() {
        let ((), time) = time_setup(|| std::thread::sleep(Duration::from_millis(20)));
        assert!(time.raw_s >= 0.02 && time.raw_s < 0.5, "{time:?}");
        assert!(time.s > 0.0);
    }
}
