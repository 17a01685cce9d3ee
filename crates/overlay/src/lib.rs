//! The tokio overlay runtime: the Rust equivalent of the paper's
//! PlanetLab prototype (§7.1) — relay daemons, a source utility, and
//! three transports behind one interface:
//!
//! * [`emu::EmulatedNet`] — an in-process network that enforces per-link
//!   propagation delay, per-node and per-link bandwidth, host load delay
//!   and loss, parameterized by [`slicing_sim::wan::NetProfile`]
//!   (LAN / PlanetLab substitutes; see DESIGN.md).
//! * [`tcp::TcpNet`] — real TCP sockets on loopback, for hardware-honest
//!   local-area numbers.
//! * [`udp::UdpNet`] — real UDP datagrams on loopback: the transport the
//!   paper's data plane assumes, with per-neighbour delay-gradient
//!   congestion control ([`cc`]), wheel-driven pacing and
//!   `sendmmsg`-shaped batched egress.
//!
//! The daemons drive the *sans-IO* engines from `slicing-core` and
//! `slicing-onion`; nothing protocol-level lives here.

#![forbid(unsafe_code)]

pub mod cc;
pub mod daemon;
pub mod emu;
pub mod experiment;
pub mod tcp;
pub mod testutil;
pub mod udp;

pub use daemon::{
    spawn_node, spawn_onion_relay, DestSessionSpec, NodeHandle, NodeSpec, OverlayEvent,
    SessionEvent, SessionHandle, StreamDelivery,
};
pub use experiment::{run_churn_session, ChurnSessionConfig, ChurnSessionReport};
pub use emu::EmulatedNet;
pub use experiment::{
    run_multi_flow, run_onion_transfer, run_session_transfer, run_slicing_transfer,
    MultiFlowReport, SessionTransferConfig, SessionTransferReport, TransferConfig, TransferReport,
};
pub use tcp::TcpNet;
pub use udp::{UdpFaults, UdpNet, UdpStatsSnapshot};

use bytes::Bytes;
use slicing_graph::OverlayAddr;
use tokio::sync::mpsc;

/// A bidirectional attachment point for one overlay node.
///
/// Datagrams cross the port as frozen [`Bytes`]: a daemon hands the
/// transport the packet's wire buffer (no re-encode, no copy on the
/// emulated transport) and receives buffers it can adopt zero-copy via
/// `Packet::from_bytes`.
pub struct NodePort {
    /// The node's overlay address.
    pub addr: OverlayAddr,
    /// Incoming datagrams: `(sender, payload)`.
    pub rx: mpsc::Receiver<(OverlayAddr, Bytes)>,
    /// Outgoing sender handle.
    pub tx: PortSender,
}

/// Cloneable sender half of a [`NodePort`].
#[derive(Clone)]
pub struct PortSender {
    pub(crate) addr: OverlayAddr,
    pub(crate) inner: PortSenderInner,
}

#[derive(Clone)]
pub(crate) enum PortSenderInner {
    Emu(std::sync::Arc<emu::Hub>),
    Tcp(tcp::TcpSender),
    Udp(udp::UdpSender),
}

impl PortSender {
    /// Send `bytes` to `to` (fire-and-forget datagram semantics).
    pub async fn send(&self, to: OverlayAddr, bytes: Bytes) {
        match &self.inner {
            PortSenderInner::Emu(hub) => hub.send(self.addr, to, bytes).await,
            PortSenderInner::Tcp(t) => t.send(self.addr, to, bytes).await,
            PortSenderInner::Udp(u) => u.send(self.addr, to, bytes).await,
        }
    }

    /// Send a batch of frames to one neighbour, draining `frames` (the
    /// caller keeps the Vec's capacity). Every transport consults its
    /// shared state once per batch — the TCP connection cache, the
    /// emulated hub's topology lock, the UDP token bucket — and UDP
    /// additionally puts the whole batch on the wire in one
    /// `sendmmsg`-shaped call. The node workers' egress groups each
    /// flush's same-destination sends into these batches.
    pub async fn send_many(&self, to: OverlayAddr, frames: &mut Vec<Bytes>) {
        match &self.inner {
            PortSenderInner::Emu(hub) => hub.send_many(self.addr, to, frames).await,
            PortSenderInner::Tcp(t) => t.send_many(self.addr, to, frames).await,
            PortSenderInner::Udp(u) => u.send_many(self.addr, to, frames).await,
        }
    }

    /// The transport's current pacing advice for sources feeding this
    /// port, in milliseconds per burst — `None` when the transport has
    /// no congestion signal (emulated and TCP transports, or a UDP link
    /// running uncontended). The session layer folds this into its
    /// `pace_ms` so source admission adapts to transport delay.
    pub fn pace_hint_ms(&self) -> Option<u64> {
        match &self.inner {
            PortSenderInner::Udp(u) => u.pace_hint_ms(),
            _ => None,
        }
    }

    /// The sending node's address.
    pub fn addr(&self) -> OverlayAddr {
        self.addr
    }

    /// Per-neighbour congestion-controller snapshots for this port
    /// (metrics export). Empty on transports without a congestion
    /// signal (emulated, TCP) and on UDP links that have not yet seen
    /// delay feedback.
    pub fn cc_snapshots(&self) -> Vec<(OverlayAddr, cc::CcSnapshot)> {
        match &self.inner {
            PortSenderInner::Udp(u) => u.cc_snapshots(),
            _ => Vec::new(),
        }
    }
}
