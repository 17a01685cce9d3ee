//! What one workload run hands back to `main`.

use std::time::Duration;

use crate::json::Json;
use crate::trace::Totals;

/// The end-to-end numbers every workload measures, in the units
/// `BENCHMARK.json` declares. `peak_rss_mib` is read by `main` at exit.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub msgs_per_s: f64,
    pub goodput_mbps: f64,
    pub sessions_per_s: f64,
    pub latency_ms_p50: f64,
    pub latency_ms_p99: f64,
    pub establish_ms_p50: f64,
}

/// One driver run: end-to-end numbers, the per-layer numbers that
/// driver can take, and ungated notes for the human-readable report.
pub struct Measured {
    /// Operations attempted in the timed phase (messages; sessions on
    /// the churn workload), plus any set-up session that never came up.
    pub attempted: u64,
    /// Undelivered + corrupt + duplicate + not-established + rejected.
    pub failed: u64,
    pub end_to_end: EndToEnd,
    /// `(BENCHMARK.json per_layer name, value)`.
    pub layers: Vec<(&'static str, f64)>,
    /// `(label, value)` lines printed but never gated.
    pub notes: Vec<(&'static str, Json)>,
    /// Span aggregates of the timed phase and its wall time.
    pub timed: Totals,
    pub timed_wall: Duration,
}

/// Application payload bits per second, in Mbit/s.
pub fn mbps(msgs_per_s: f64, msg_len: usize) -> f64 {
    msgs_per_s * msg_len as f64 * 8.0 / 1e6
}
