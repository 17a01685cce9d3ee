//! Plaintext/Prometheus metrics exposition for a running node.
//!
//! A hand-rolled HTTP/1.0 listener on the vendored tokio TCP stack
//! (the vendored `io` module exposes only `read_exact`/`write_all`, so
//! requests are parsed byte by byte). Three routes:
//!
//! - `GET /metrics` — Prometheus text exposition of the node's
//!   counters, built from the engines' `counters()` enumerations
//!   ([`slicing_core::RelayStats::counters`],
//!   [`slicing_core::SessionStats::counters`],
//!   [`slicing_overlay::UdpStatsSnapshot::counters`]) so the exported
//!   names can never drift from the atomics.
//! - `GET /healthz` — liveness probe, returns `ok`.
//! - `POST /shutdown` — asks the daemon to exit cleanly.
//!
//! Every relay/session counter is exported as
//! `slicing_relay_<name>` / `slicing_session_<name>`; transport
//! counters as `slicing_udp_<name>`. Congestion control
//! ([`slicing_overlay::cc`]) is exported in aggregate only — neighbours
//! per controller state (`slicing_cc_peers{state}`) and a fixed log₂
//! histogram of their allowed rates (`slicing_cc_rate_dps`) — so a
//! scrape never names a relay's neighbours.

use slicing_core::relay::RelayStatsAtomic;
use slicing_overlay::cc::{CcSnapshot, CcState};
use slicing_overlay::daemon::SessionHandle;
use slicing_overlay::{PortSender, UdpNet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::TcpListener;
use tokio::sync::mpsc;
use tokio::time::Instant;

/// Everything the exposition endpoint reads. All handles are shared
/// snapshot views — rendering never touches a hot path.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

#[derive(Default)]
struct RegistryInner {
    start: Option<Instant>,
    relay: Option<Arc<RelayStatsAtomic>>,
    session: Option<SessionHandle>,
    udp: Option<UdpNet>,
    cc: Option<PortSender>,
    delivered_msgs: AtomicU64,
    delivered_bytes: AtomicU64,
}

/// Builder-style assembly of a [`Registry`].
#[derive(Default)]
pub struct RegistryBuilder {
    relay: Option<Arc<RelayStatsAtomic>>,
    session: Option<SessionHandle>,
    udp: Option<UdpNet>,
    cc: Option<PortSender>,
}

impl RegistryBuilder {
    /// Export the relay plane's shared counters.
    pub fn relay(mut self, stats: Arc<RelayStatsAtomic>) -> Self {
        self.relay = Some(stats);
        self
    }

    /// Export the session plane's counters.
    pub fn session(mut self, handle: SessionHandle) -> Self {
        self.session = Some(handle);
        self
    }

    /// Export the UDP transport's counters.
    pub fn udp(mut self, net: UdpNet) -> Self {
        self.udp = Some(net);
        self
    }

    /// Export this port's congestion-control state, aggregated over its
    /// neighbours.
    pub fn cc(mut self, port: PortSender) -> Self {
        self.cc = Some(port);
        self
    }

    /// Finish; uptime counts from this call.
    pub fn build(self) -> Registry {
        Registry {
            inner: Arc::new(RegistryInner {
                start: Some(Instant::now()),
                relay: self.relay,
                session: self.session,
                udp: self.udp,
                cc: self.cc,
                delivered_msgs: AtomicU64::new(0),
                delivered_bytes: AtomicU64::new(0),
            }),
        }
    }
}

/// Read this process's resident set size from `/proc/self/status`
/// (`VmRSS` is reported in kB). Returns 0 where procfs is unavailable.
pub fn process_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Upper bounds of the `slicing_cc_rate_dps` histogram buckets:
/// powers of two from 1 Ki to 128 Ki datagrams per second, around the
/// controller's default 2 000 – 64 000 range.
const RATE_BUCKETS_LOG2: std::ops::RangeInclusive<u32> = 10..=17;

/// Render congestion-control state aggregated over neighbours: how many
/// sit in each controller state, and the distribution of their allowed
/// rates. Takes the snapshots without their addresses, so no series can
/// carry one.
fn render_cc(out: &mut String, snapshots: impl Iterator<Item = CcSnapshot>) {
    let states = [CcState::Normal, CcState::Rising, CcState::Congested];
    let mut peers = [0u64; 3];
    let mut buckets = [0u64; 8];
    let (mut count, mut sum) = (0u64, 0.0f64);
    for cc in snapshots {
        if let Some(i) = states.iter().position(|&s| s == cc.state) {
            peers[i] += 1;
        }
        for (bucket, log2) in buckets.iter_mut().zip(RATE_BUCKETS_LOG2) {
            if cc.rate_dps <= (1u64 << log2) as f64 {
                *bucket += 1;
            }
        }
        count += 1;
        sum += cc.rate_dps;
    }
    out.push_str("# TYPE slicing_cc_peers gauge\n");
    for (state, n) in states.iter().zip(peers) {
        out.push_str(&format!(
            "slicing_cc_peers{{state=\"{}\"}} {n}\n",
            state.as_str()
        ));
    }
    out.push_str("# TYPE slicing_cc_rate_dps histogram\n");
    for (n, log2) in buckets.iter().zip(RATE_BUCKETS_LOG2) {
        out.push_str(&format!(
            "slicing_cc_rate_dps_bucket{{le=\"{}\"}} {n}\n",
            1u64 << log2
        ));
    }
    out.push_str(&format!(
        "slicing_cc_rate_dps_bucket{{le=\"+Inf\"}} {count}\n"
    ));
    out.push_str(&format!("slicing_cc_rate_dps_sum {sum:?}\n"));
    out.push_str(&format!("slicing_cc_rate_dps_count {count}\n"));
}

impl Registry {
    /// Record one message completed by a colocated destination session.
    pub fn record_delivery(&self, bytes: usize) {
        self.inner.delivered_msgs.fetch_add(1, Ordering::Relaxed);
        self.inner
            .delivered_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Render the Prometheus text exposition.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(2048);
        let uptime = self
            .inner
            .start
            .map(|s| s.elapsed().as_secs_f64())
            .unwrap_or(0.0);
        out.push_str("# TYPE slicing_uptime_seconds gauge\n");
        out.push_str(&format!("slicing_uptime_seconds {uptime:.3}\n"));
        out.push_str("# TYPE slicing_process_rss_bytes gauge\n");
        out.push_str(&format!("slicing_process_rss_bytes {}\n", process_rss_bytes()));
        if let Some(relay) = &self.inner.relay {
            for (name, value) in relay.snapshot().counters() {
                out.push_str(&format!("# TYPE slicing_relay_{name} counter\n"));
                out.push_str(&format!("slicing_relay_{name} {value}\n"));
            }
        }
        if let Some(session) = &self.inner.session {
            for (name, value) in session.stats().counters() {
                out.push_str(&format!("# TYPE slicing_session_{name} counter\n"));
                out.push_str(&format!("slicing_session_{name} {value}\n"));
            }
        }
        out.push_str("# TYPE slicing_dest_delivered_msgs_total counter\n");
        out.push_str(&format!(
            "slicing_dest_delivered_msgs_total {}\n",
            self.inner.delivered_msgs.load(Ordering::Relaxed)
        ));
        out.push_str("# TYPE slicing_dest_delivered_bytes_total counter\n");
        out.push_str(&format!(
            "slicing_dest_delivered_bytes_total {}\n",
            self.inner.delivered_bytes.load(Ordering::Relaxed)
        ));
        if let Some(udp) = &self.inner.udp {
            for (name, value) in udp.stats().counters() {
                out.push_str(&format!("# TYPE slicing_udp_{name} counter\n"));
                out.push_str(&format!("slicing_udp_{name} {value}\n"));
            }
        }
        if let Some(port) = &self.inner.cc {
            render_cc(&mut out, port.cc_snapshots().into_iter().map(|(_, cc)| cc));
        }
        out
    }
}

/// Read one HTTP request head (through the blank line) byte by byte —
/// the vendored reader exposes only `read_exact`. Returns the head or
/// `None` on EOF/oversize.
async fn read_request_head(stream: &mut tokio::net::TcpStream) -> Option<String> {
    let mut head = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    while head.len() < 4096 {
        if stream.read_exact(&mut byte).await.is_err() {
            return None;
        }
        head.push(byte[0]);
        if head.ends_with(b"\r\n\r\n") {
            return String::from_utf8(head).ok();
        }
    }
    None
}

async fn respond(stream: &mut tokio::net::TcpStream, status: &str, body: &str) {
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes()).await;
}

/// Serve the metrics endpoint until the task is aborted. `shutdown`
/// receives one unit per accepted `POST /shutdown`.
pub async fn serve(
    listener: TcpListener,
    registry: Registry,
    shutdown: mpsc::Sender<()>,
) {
    loop {
        let Ok((mut stream, _)) = listener.accept().await else {
            return;
        };
        let registry = registry.clone();
        let shutdown = shutdown.clone();
        tokio::spawn(async move {
            let Some(head) = read_request_head(&mut stream).await else {
                return;
            };
            let mut parts = head.split_whitespace();
            let method = parts.next().unwrap_or("");
            let path = parts.next().unwrap_or("");
            match (method, path) {
                ("GET", "/metrics") => respond(&mut stream, "200 OK", &registry.render()).await,
                ("GET", "/healthz") => respond(&mut stream, "200 OK", "ok\n").await,
                ("POST", "/shutdown") => {
                    let _ = shutdown.try_send(());
                    respond(&mut stream, "200 OK", "shutting down\n").await;
                }
                _ => respond(&mut stream, "404 Not Found", "not found\n").await,
            }
        });
    }
}

/// Parse a Prometheus text exposition into `(series, value)` pairs —
/// the scrape half of the protocol, shared by the orchestrator and the
/// metrics tests. Label sets are kept verbatim in the series name.
pub fn parse_exposition(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use slicing_overlay::testutil::wait_until;
    use slicing_overlay::{UdpFaults, UdpNet};
    use std::collections::HashMap;

    /// A scrape reports congestion control in aggregate: it counts a
    /// live neighbour, and no series names that neighbour's `ip:port`.
    #[tokio::test]
    async fn render_names_no_neighbour() {
        let net = UdpNet::new(UdpFaults::default(), 1);
        let a = net.attach().await.expect("attach");
        let b = net.attach().await.expect("attach");
        // B's delay feedback gives A a controller for B.
        a.tx.send(b.addr, Bytes::copy_from_slice(b"ping")).await;
        let snapshots = wait_until(|| a.tx.cc_snapshots(), |s| !s.is_empty()).await;
        assert_eq!(snapshots.len(), 1, "one neighbour");
        let text = RegistryBuilder::default().cc(a.tx.clone()).build().render();
        let (ip, port) = b.addr.to_ipv4();
        let label = format!("{}.{}.{}.{}:{}", ip[0], ip[1], ip[2], ip[3], port);
        assert!(
            !text.contains(&label),
            "scrape names neighbour {label}:\n{text}"
        );
        assert!(
            !text.contains(&format!(":{port}")),
            "scrape names port {port}:\n{text}"
        );
        let series: HashMap<String, f64> = parse_exposition(&text).into_iter().collect();
        let peers: f64 = ["normal", "rising", "congested"]
            .iter()
            .map(|s| series[&format!("slicing_cc_peers{{state=\"{s}\"}}")])
            .sum();
        assert_eq!(peers, 1.0);
        assert_eq!(series["slicing_cc_rate_dps_count"], 1.0);
        assert_eq!(series["slicing_cc_rate_dps_bucket{le=\"+Inf\"}"], 1.0);
        assert!(text.lines().all(|l| !l.contains("peer=")));
    }
}
