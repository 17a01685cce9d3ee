//! Order statistics over harness-side samples, and the process's own
//! memory and CPU counters from procfs.

use std::time::Duration;

// Every statistic here is NaN when there are no samples; `main` refuses
// to report a metric that is not finite.

/// The `p`-quantile (0..=1) of ascending `sorted` by nearest rank.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Half-width of the band of ranks a smoothed quantile averages over.
const BAND: f64 = 0.005;

/// The `p`-quantile of `sorted`, smoothed: the mean of the order
/// statistics between the `p − 0.5 %` and `p + 0.5 %` ranks. On a steep
/// tail a single order statistic is a knife edge — `engine_small`'s
/// service time climbs from 0.03 ms at p98.5 to 0.085 ms at p99.5, so
/// the bare p99 moves ±40 % when the tail's mass moves ±0.3 % — while
/// the band's mean moves with the tail as a whole. With under a hundred
/// samples the band is one sample (two at most) and this is
/// [`quantile`].
pub fn smooth_quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = |p: f64| ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let band = &sorted[rank(p - BAND) - 1..rank(p + BAND)];
    band.iter().sum::<f64>() / band.len() as f64
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
}

/// Median of `values` (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    sort(values);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The timed phase's verified deliveries: when each completed and how
/// long it took, the latter bucketed into equal windows of the phase.
///
/// A percentile is taken inside each window, a rate over each run of
/// completions, and the median of the pieces is reported: a scheduler
/// stall or a noisy neighbour lands in one piece instead of deciding
/// the whole run, which is what keeps a p99 on a shared two-core
/// container within its bound from run to run.
pub struct Windows {
    width: Duration,
    samples: Vec<Vec<f64>>,
    /// Completion times, seconds into the phase, ascending.
    completions: Vec<f64>,
}

/// Pieces the completions are cut into for [`Windows::rate`].
const RATE_SEGMENTS: usize = 8;

impl Windows {
    /// Tile `total` with windows of about one second.
    pub fn new(total: Duration) -> Self {
        let count = (total.as_secs_f64().floor() as usize).max(1);
        Windows {
            width: total.div_f64(count as f64),
            samples: vec![Vec::new(); count],
            completions: Vec::new(),
        }
    }

    /// Record a delivery that took `ms` and completed `at` into the
    /// phase. Deliveries completing after the last window (the drain)
    /// are kept out of the percentiles; they still count for the rate.
    pub fn record(&mut self, at: Duration, ms: f64) {
        self.completions.push(at.as_secs_f64());
        let idx = (at.as_secs_f64() / self.width.as_secs_f64()) as usize;
        if let Some(window) = self.samples.get_mut(idx) {
            window.push(ms);
        }
    }

    pub fn count(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }

    /// Deliveries per second: the completions are cut into eight runs
    /// of equal count, each run's rate is its count over the time it
    /// spanned, and the median of those is reported. Equal counts, not
    /// equal times, so that a workload completing four messages a
    /// second still yields a measured time and not a small integer.
    pub fn rate(&self) -> f64 {
        let n = self.completions.len();
        let segments = RATE_SEGMENTS.min(n);
        let mut rates = Vec::with_capacity(segments);
        let (mut done, mut since) = (0, 0.0);
        for segment in 1..=segments {
            let upto = n * segment / segments;
            let until = self.completions[upto - 1];
            rates.push((upto - done) as f64 / (until - since));
            (done, since) = (upto, until);
        }
        median(&mut rates)
    }

    /// Median over the non-empty windows of each window's smoothed
    /// `p`-quantile.
    pub fn quantile(&mut self, p: f64) -> f64 {
        let mut per_window: Vec<f64> = self
            .samples
            .iter_mut()
            .filter(|w| !w.is_empty())
            .map(|w| {
                sort(w);
                smooth_quantile(w, p)
            })
            .collect();
        median(&mut per_window)
    }

    /// The `p`-quantile of all samples pooled (for the ungated p99.9,
    /// which one window cannot support).
    pub fn pooled_quantile(&self, p: f64) -> f64 {
        let mut all: Vec<f64> = self.samples.iter().flatten().copied().collect();
        sort(&mut all);
        quantile(&all, p)
    }
}

fn status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    status_kib("VmHWM:").map(|kib| kib / 1024.0)
}

/// Current resident set of this process, bytes (`VmRSS`).
pub fn rss_bytes() -> Option<f64> {
    status_kib("VmRSS:").map(|kib| kib * 1024.0)
}

/// User + system CPU time this process has consumed, all threads.
///
/// `/proc/self/stat` counts in clock ticks; Linux fixes `USER_HZ` at
/// 100, and the vendored toolchain has no `sysconf` to ask.
pub fn cpu_time() -> Option<Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields are counted after it.
    let after_comm = &stat[stat.rfind(')')? + 2..];
    let mut fields = after_comm.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(Duration::from_millis((utime + stime) * 10))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn smoothed_quantile_averages_a_band_of_ranks() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Ranks 985..=995.
        assert!((smooth_quantile(&v, 0.99) - 990.0).abs() <= 0.5);
        assert_eq!(smooth_quantile(&v, 0.50), 500.0);
        // Too few samples for a band: the nearest rank (or, where the
        // band straddles two ranks, their mean — the usual median).
        let few = [1.0, 2.0, 3.0, 9.0];
        assert_eq!(smooth_quantile(&few, 0.99), 9.0);
        assert_eq!(smooth_quantile(&few, 0.50), 2.5);
        assert_eq!(smooth_quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn window_median_ignores_one_bad_window() {
        let mut w = Windows::new(Duration::from_secs(3));
        for (sec, ms) in [(0.5, 1.0), (1.5, 100.0), (2.5, 1.2), (3.5, 999.0)] {
            w.record(Duration::from_secs_f64(sec), ms);
        }
        assert_eq!(w.count(), 3, "the drain sample is left out");
        assert_eq!(w.quantile(0.99), 1.2);
    }

    #[test]
    fn rate_is_the_median_segment() {
        // 1000/s throughout, except a stall of a full second after the
        // 300th delivery: the whole-phase rate would read 800/s.
        let mut w = Windows::new(Duration::from_secs(5));
        for i in 1..=4000u32 {
            let stall = if i > 300 { 1.0 } else { 0.0 };
            w.record(Duration::from_secs_f64(f64::from(i) / 1000.0 + stall), 1.0);
        }
        let rate = w.rate();
        assert!((rate - 1000.0).abs() < 1e-6, "{rate}");
        assert!(Windows::new(Duration::from_secs(1)).rate().is_nan());
    }

    #[test]
    fn procfs_reads() {
        assert!(peak_rss_mib().unwrap() > 0.0);
        assert!(cpu_time().is_some());
    }
}
