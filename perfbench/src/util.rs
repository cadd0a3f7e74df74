//! Shared helpers: metric records, percentiles, clocks, seeds, RSS.

use std::time::Instant;

/// One reported number with its unit and the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

/// Everything one workload run produced.
#[derive(Debug, Default, Clone)]
pub struct Report {
    /// Every oracle check passed.
    pub correct: bool,
    /// Operations issued (transactions, requests or crash/recover cycles).
    pub attempted: u64,
    /// Operations that errored, were refused or returned a wrong result.
    pub failed: u64,
    /// End-to-end metrics (tracing off).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layer: Vec<Metric>,
    /// Counted (deterministic) metrics, for the repeatability self-check.
    pub counted: Vec<(String, f64)>,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.e2e.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Records a counted metric both as an end-to-end value and for the
    /// repeatability check.
    pub fn counted_e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.e2e(name, value, unit, samples);
        self.counted.push((name.to_string(), value));
    }

    /// Records a counted metric both as a per-layer value and for the
    /// repeatability check.
    pub fn counted_layer(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.layer(name, value, unit, samples);
        self.counted.push((name.to_string(), value));
    }

    pub fn line(&mut self, s: String) {
        self.lines.push(s);
    }

    /// Marks a failed operation; `wrong` also fails the whole run. The
    /// first failure and the first wrong result are reported.
    pub fn fail(&mut self, wrong: bool, why: &str) {
        self.failed += 1;
        if wrong && self.correct {
            self.lines.push(format!("WRONG RESULT: {why}"));
        } else if self.failed == 1 {
            self.lines.push(format!("failed: {why}"));
        }
        if wrong {
            self.correct = false;
        }
    }
}

/// Nanoseconds since a shared origin, comparable across threads.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Clock {
        Clock(Instant::now())
    }

    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

impl Default for Clock {
    fn default() -> Clock {
        Clock::new()
    }
}

/// SplitMix64: derives independent sub-seeds from the run seed.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nearest-rank percentile `p` (0..=100) of `v`; sorts `v` in place.
pub fn pct(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Latency samples in constant memory: a log-linear histogram of
/// nanoseconds, exact below 1 µs and within 0.2 % above, so a closed loop
/// that runs more operations does not hold more memory.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Hist {
    /// Buckets per octave above the exact range.
    const SUB: u64 = 512;
    /// Covers samples up to 2^40 ns.
    const BUCKETS: usize = 32 * Self::SUB as usize;

    pub fn new() -> Hist {
        Hist {
            counts: vec![0; Self::BUCKETS],
            n: 0,
        }
    }

    fn index(ns: u64) -> usize {
        if ns < 2 * Self::SUB {
            return ns as usize;
        }
        let shift = 63 - u64::from(ns.leading_zeros()) - Self::SUB.trailing_zeros() as u64;
        ((shift * Self::SUB + (ns >> shift)) as usize).min(Self::BUCKETS - 1)
    }

    /// The middle of bucket `i`, in ns.
    fn value(i: usize) -> f64 {
        let i = i as u64;
        if i < 2 * Self::SUB {
            return i as f64;
        }
        let shift = i / Self::SUB - 1;
        let low = (i - shift * Self::SUB) << shift;
        low as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    pub fn push(&mut self, us: f64) {
        self.counts[Self::index((us * 1e3).round() as u64)] += 1;
        self.n += 1;
    }

    pub fn len(&self) -> usize {
        self.n as usize
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Nearest-rank percentile `p` (0..=100) in µs.
    pub fn pct(&self, p: f64) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        let rank = (((p / 100.0) * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i) / 1e3;
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

impl Default for Hist {
    fn default() -> Hist {
        Hist::new()
    }
}

pub fn median(v: &mut [f64]) -> f64 {
    pct(v, 50.0)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Ratio that reads 0 instead of NaN when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Starts a fresh peak: resets this process's `VmHWM` to its current
/// resident set (`/proc/self/clear_refs`), so that a later
/// [`peak_rss_mib`] covers only what runs in between.
///
/// # Errors
///
/// Returns a description if the kernel refuses the reset.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS: {e}"))
}

/// Peak resident set size of this process in MiB (`VmHWM`) since the last
/// [`reset_peak_rss`].
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Set-ups made per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Runs `f` [`SETUPS`] times and returns the median wall time in seconds
/// and the last result.
pub fn median_setup<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last: Option<T> = None;
    for _ in 0..SETUPS {
        // Drop the previous state first so repeated set-ups do not stack
        // their memory.
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&mut times), last.expect("at least one set-up"))
}

#[cfg(test)]
mod tests {
    use super::Hist;

    #[test]
    fn hist_buckets_are_contiguous_and_tight() {
        let mut prev = 0;
        for ns in [
            0u64,
            1,
            1023,
            1024,
            1025,
            2047,
            2048,
            5_000,
            1 << 20,
            1 << 39,
        ] {
            let i = Hist::index(ns);
            assert!(i >= prev, "index falls at {ns}");
            prev = i;
            let mid = Hist::value(i);
            assert!(
                (mid - ns as f64).abs() <= ns as f64 * 0.002 + 0.5,
                "{ns} -> {mid}"
            );
        }
        for i in 0..Hist::BUCKETS - 1 {
            assert!(Hist::value(i) < Hist::value(i + 1));
        }
    }

    #[test]
    fn hist_percentiles_match_the_samples() {
        let mut h = Hist::new();
        for us in 1..=1000 {
            h.push(us as f64 / 10.0);
        }
        assert_eq!(h.len(), 1000);
        assert!((h.pct(50.0) - 50.0).abs() < 0.1);
        assert!((h.pct(99.0) - 99.0).abs() < 0.2);
        assert!((h.pct(100.0) - 100.0).abs() < 0.2);
    }
}
