//! Real UDP datagram transport on loopback — the transport the paper's
//! data plane actually assumes (§7.1 runs fixed-size packets over a
//! datagram substrate; loss and reordering are absorbed by the codec's
//! redundancy, the replay guard and the session retransmit window, not
//! by the transport).
//!
//! One socket per node: the node binds `127.0.0.1:0` and its overlay
//! address encodes the bound `ip:port`, so the *source address of every
//! datagram identifies the sender* — no hello preamble, no connection
//! cache, no per-peer state on the send path at all. Each wire packet
//! rides one datagram (fixed-size datagrams preserve the uniform-shape
//! property the anonymity argument needs), prefixed by a 9-byte
//! transport header carrying a send timestamp:
//!
//! ```text
//! data:     [0xDA][send_micros: u64 LE][wire packet bytes...]
//! feedback: [0xFB][owd_micros: u64 LE][datagrams: u32 LE]
//! ```
//!
//! Receivers measure each datagram's one-way delay from that timestamp
//! and periodically echo the latest sample back (`0xFB`); the sender
//! feeds the echoes into a per-neighbour delay-gradient congestion
//! controller ([`crate::cc`]) whose token budget gates egress. Sends
//! that exceed the budget queue per neighbour and drain from a pacer
//! task driven off the shared [`TimerWheel`] — and the controller's
//! pace hint flows up into the session layer's `pace_ms`, closing the
//! loop from transport delay to source admission.
//!
//! Egress is batched: the daemons already group consecutive
//! same-neighbour sends, and [`PortSender::send_many`] forwards each
//! group to the socket's `sendmmsg`-shaped batch call — one call (one
//! syscall, on a kernel-backed runtime) per batch. The
//! `datagrams_sent / send_calls` ratio in [`UdpStatsSnapshot`] makes
//! the batching directly observable.
//!
//! For tests and loss sweeps the net carries a deterministic
//! fault-injecting shim ([`UdpFaults`]): seeded per-port RNGs drop,
//! duplicate and reorder *data* datagrams on the receive path. Setup
//! packets are exempt from injected drops, mirroring the session-layer
//! proptests: setup has no retransmission layer, and the sweep measures
//! the data plane's loss recovery, not establishment luck.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slicing_core::wheel::TimerWheel;
use slicing_core::Tick;
use slicing_graph::OverlayAddr;
use tokio::net::UdpSocket;
use tokio::sync::mpsc;

use crate::cc::{CcConfig, CcSnapshot, NeighborCc};
use crate::{NodePort, PortSender, PortSenderInner};

/// Transport-frame discriminator: a data datagram (timestamp + packet).
const FRAME_DATA: u8 = 0xDA;
/// Transport-frame discriminator: a delay-feedback echo.
const FRAME_FEEDBACK: u8 = 0xFB;
/// Bytes of the data-frame transport header.
const DATA_HDR: usize = 9;
/// Largest accepted datagram (the practical UDP/IPv4 payload ceiling).
const MAX_DATAGRAM: usize = 65_507;
/// Datagrams drained per receive wakeup.
const RECV_BATCH: usize = 32;
/// Longest the reorder shim holds a datagram waiting for a later one
/// to overtake it; then it is delivered in order.
const REORDER_HOLD: Duration = Duration::from_millis(50);
/// Echo a feedback frame at least every this many data datagrams…
const FEEDBACK_EVERY: u32 = 16;
/// …or after this much silence, whichever comes first.
const FEEDBACK_INTERVAL_US: u64 = 25_000;
/// Pacer wheel bucket width (ms) — token refills are sub-ms affairs.
const PACER_GRANULARITY_MS: u64 = 1;
/// Pacer wheel buckets (horizon 128 ms ≫ any refill wait).
const PACER_BUCKETS: usize = 128;
/// Per-neighbour pacer queue ceiling; beyond it datagrams drop
/// (datagram semantics — the session window retransmits).
const PACER_QUEUE_CAP: usize = 4_096;
/// Burst size (datagrams) the session pace hint is quoted for.
const HINT_BURST: usize = 16;

/// Deterministic receive-path fault injection for a [`UdpNet`].
///
/// Probabilities are per data datagram; setup packets are exempt from
/// `loss` (setup has no retransmission layer — see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct UdpFaults {
    /// Drop probability.
    pub loss: f64,
    /// Probability of holding a datagram back until the next data
    /// datagram on the port has overtaken it (delivered in order if
    /// none arrives within a fixed bound).
    pub reorder: f64,
    /// Probability of delivering a datagram twice.
    pub duplicate: f64,
}

/// Monotonic transport counters, shared by every port of one net.
#[derive(Debug, Default)]
pub(crate) struct UdpStats {
    datagrams_sent: AtomicU64,
    send_calls: AtomicU64,
    datagrams_received: AtomicU64,
    recv_calls: AtomicU64,
    feedback_sent: AtomicU64,
    feedback_received: AtomicU64,
    paced: AtomicU64,
    queue_drops: AtomicU64,
    injected_drops: AtomicU64,
    injected_dups: AtomicU64,
    injected_reorders: AtomicU64,
}

/// A point-in-time copy of a net's transport counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct UdpStatsSnapshot {
    /// Data datagrams put on the wire.
    pub datagrams_sent: u64,
    /// Transmit calls issued (each `send`/`send_many` is one call); the
    /// `datagrams_sent / send_calls` ratio is the realized batching.
    pub send_calls: u64,
    /// Data datagrams received (before fault injection).
    pub datagrams_received: u64,
    /// Receive wakeups (each drains up to a whole burst).
    pub recv_calls: u64,
    /// Delay-feedback frames echoed to senders.
    pub feedback_sent: u64,
    /// Delay-feedback frames consumed by the congestion controller.
    pub feedback_received: u64,
    /// Datagrams deferred into a pacer queue by the token budget.
    pub paced: u64,
    /// Datagrams dropped at a full pacer queue.
    pub queue_drops: u64,
    /// Datagrams dropped by injected loss.
    pub injected_drops: u64,
    /// Datagrams duplicated by injection.
    pub injected_dups: u64,
    /// Datagrams reordered by injection: held back and actually
    /// overtaken by a later datagram.
    pub injected_reorders: u64,
}

impl UdpStatsSnapshot {
    /// Every counter as a `(name, value)` pair, in declaration order.
    ///
    /// The single authoritative enumeration of the transport counters:
    /// metrics exposition iterates it instead of hand-listing fields,
    /// so the exported text can never drift from the atomics (see
    /// [`slicing_core::RelayStats::counters`]).
    pub fn counters(&self) -> [(&'static str, u64); 11] {
        [
            ("datagrams_sent", self.datagrams_sent),
            ("send_calls", self.send_calls),
            ("datagrams_received", self.datagrams_received),
            ("recv_calls", self.recv_calls),
            ("feedback_sent", self.feedback_sent),
            ("feedback_received", self.feedback_received),
            ("paced", self.paced),
            ("queue_drops", self.queue_drops),
            ("injected_drops", self.injected_drops),
            ("injected_dups", self.injected_dups),
            ("injected_reorders", self.injected_reorders),
        ]
    }
}

impl UdpStats {
    fn snapshot(&self) -> UdpStatsSnapshot {
        UdpStatsSnapshot {
            datagrams_sent: self.datagrams_sent.load(Ordering::Relaxed),
            send_calls: self.send_calls.load(Ordering::Relaxed),
            datagrams_received: self.datagrams_received.load(Ordering::Relaxed),
            recv_calls: self.recv_calls.load(Ordering::Relaxed),
            feedback_sent: self.feedback_sent.load(Ordering::Relaxed),
            feedback_received: self.feedback_received.load(Ordering::Relaxed),
            paced: self.paced.load(Ordering::Relaxed),
            queue_drops: self.queue_drops.load(Ordering::Relaxed),
            injected_drops: self.injected_drops.load(Ordering::Relaxed),
            injected_dups: self.injected_dups.load(Ordering::Relaxed),
            injected_reorders: self.injected_reorders.load(Ordering::Relaxed),
        }
    }
}

/// State shared by every port attached to one [`UdpNet`].
struct NetShared {
    /// Clock zero for datagram timestamps (one per net: ports of one
    /// net share it, so receiver-measured OWD has no offset; across
    /// processes the gradient controller tolerates a constant skew).
    epoch: Instant,
    faults: UdpFaults,
    seed: u64,
    cc: CcConfig,
    stats: UdpStats,
    /// Churned-out nodes: their datagrams drop at both ends, emulating
    /// a process kill without tearing down test sockets mid-poll.
    failed: Mutex<std::collections::HashSet<OverlayAddr>>,
    /// Ports attached so far (per-port fault RNG seeds).
    attached: AtomicU64,
}

impl NetShared {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn is_failed(&self, addr: OverlayAddr) -> bool {
        let failed = self.failed.lock();
        !failed.is_empty() && failed.contains(&addr)
    }
}

/// A real-UDP overlay network on loopback.
#[derive(Clone)]
pub struct UdpNet {
    shared: Arc<NetShared>,
}

impl UdpNet {
    /// A net with the given fault profile; `seed` makes the injected
    /// faults reproducible.
    pub fn new(faults: UdpFaults, seed: u64) -> Self {
        UdpNet::with_cc(faults, seed, CcConfig::default())
    }

    /// A net with explicit congestion-controller tuning.
    pub fn with_cc(faults: UdpFaults, seed: u64, cc: CcConfig) -> Self {
        UdpNet {
            shared: Arc::new(NetShared {
                epoch: Instant::now(),
                faults,
                seed,
                cc,
                stats: UdpStats::default(),
                failed: Mutex::new(std::collections::HashSet::new()),
                attached: AtomicU64::new(0),
            }),
        }
    }

    /// Bind a node socket on an ephemeral loopback port; the node's
    /// overlay address encodes `127.0.0.1:port`. The receive task runs
    /// until the returned `NodePort` is dropped.
    pub async fn attach(&self) -> std::io::Result<NodePort> {
        self.attach_at(0).await
    }

    /// Bind a node socket on a *fixed* loopback port (`0` = ephemeral).
    ///
    /// Daemon processes with config-declared listen addresses use this:
    /// their overlay address (`127.0.0.1:port`) must be knowable by
    /// peers before the process starts, and must be rebindable by a
    /// restarted process after a crash.
    pub async fn attach_at(&self, port: u16) -> std::io::Result<NodePort> {
        let sock = Arc::new(UdpSocket::bind(format!("127.0.0.1:{port}")).await?);
        let port = sock.local_addr()?.port();
        let addr = OverlayAddr::from_ipv4([127, 0, 0, 1], port);
        let (tx, rx) = mpsc::channel::<(OverlayAddr, Bytes)>(1024);

        let index = self.shared.attached.fetch_add(1, Ordering::Relaxed);
        let (wake_tx, wake_rx) = mpsc::channel::<()>(1);
        let pacer = Arc::new(Pacer {
            state: Mutex::new(PacerState {
                ccs: HashMap::new(),
                queues: HashMap::new(),
                wheel: TimerWheel::new(PACER_GRANULARITY_MS, PACER_BUCKETS),
                queued: 0,
            }),
            hint_ms: AtomicU64::new(0),
            wake: wake_tx,
        });
        tokio::spawn(pacer_task(
            Arc::downgrade(&pacer),
            wake_rx,
            sock.clone(),
            self.shared.clone(),
        ));
        tokio::spawn(recv_task(
            sock.clone(),
            tx,
            pacer.clone(),
            self.shared.clone(),
            StdRng::seed_from_u64(self.shared.seed ^ (0xDA7A_6E55 + index)),
        ));

        Ok(NodePort {
            addr,
            rx,
            tx: PortSender {
                addr,
                inner: PortSenderInner::Udp(UdpSender {
                    sock,
                    pacer,
                    shared: self.shared.clone(),
                }),
            },
        })
    }

    /// Kill a node: its traffic blackholes in both directions (the
    /// transport-level equivalent of an emulated-net `fail`).
    pub fn fail(&self, addr: OverlayAddr) {
        self.shared.failed.lock().insert(addr);
    }

    /// Current transport counters.
    pub fn stats(&self) -> UdpStatsSnapshot {
        self.shared.stats.snapshot()
    }
}

/// Sender half for the UDP transport: the node's own socket (so the
/// datagram source address is the node's overlay address) plus the
/// per-neighbour pacer.
#[derive(Clone)]
pub(crate) struct UdpSender {
    sock: Arc<UdpSocket>,
    pacer: Arc<Pacer>,
    shared: Arc<NetShared>,
}

/// Pacing state shared between the send path, the feedback consumer
/// (receive task) and the pacer drain task.
pub(crate) struct Pacer {
    state: Mutex<PacerState>,
    /// Latest session pace hint, ms (0 = none — link uncontended).
    hint_ms: AtomicU64,
    /// Nudges the pacer task out of park when a queue forms.
    wake: mpsc::Sender<()>,
}

struct PacerState {
    ccs: HashMap<OverlayAddr, NeighborCc>,
    queues: HashMap<OverlayAddr, VecDeque<Vec<u8>>>,
    wheel: TimerWheel<OverlayAddr>,
    /// Datagrams across all queues.
    queued: usize,
}

impl Pacer {
    /// Feed one echoed delay sample into `neigh`'s controller and
    /// refresh the session pace hint.
    fn on_feedback(&self, cc_cfg: &CcConfig, neigh: OverlayAddr, now_us: u64, owd_us: u64) {
        let mut s = self.state.lock();
        s.ccs
            .entry(neigh)
            .or_insert_with(|| NeighborCc::new(*cc_cfg))
            .on_sample(now_us, owd_us);
        // The session layer paces whole bursts; quote the slowest
        // neighbour (it gates the flow's weakest path).
        let hint = s
            .ccs
            .values()
            .filter_map(|cc| cc.pace_hint_ms(HINT_BURST))
            .max()
            .unwrap_or(0);
        self.hint_ms.store(hint, Ordering::Relaxed);
    }

    fn pace_hint_ms(&self) -> Option<u64> {
        match self.hint_ms.load(Ordering::Relaxed) {
            0 => None,
            ms => Some(ms),
        }
    }

    /// Copy every neighbour controller's observable state out (one lock
    /// acquisition; called at metrics-scrape cadence, not per packet).
    fn cc_snapshots(&self) -> Vec<(OverlayAddr, CcSnapshot)> {
        let s = self.state.lock();
        s.ccs.iter().map(|(&a, cc)| (a, cc.snapshot())).collect()
    }
}

impl UdpSender {
    pub(crate) fn pace_hint_ms(&self) -> Option<u64> {
        self.pacer.pace_hint_ms()
    }

    pub(crate) fn cc_snapshots(&self) -> Vec<(OverlayAddr, CcSnapshot)> {
        self.pacer.cc_snapshots()
    }

    /// Send one frame (fire-and-forget datagram semantics).
    pub(crate) async fn send(&self, from: OverlayAddr, to: OverlayAddr, bytes: Bytes) {
        let mut one = vec![bytes];
        self.send_many(from, to, &mut one).await;
    }

    /// Send a batch of frames to one neighbour in a single transmit
    /// call. Frames beyond the neighbour's token budget queue behind
    /// the pacer; frames to failed or oversize destinations drop.
    pub(crate) async fn send_many(&self, from: OverlayAddr, to: OverlayAddr, frames: &mut Vec<Bytes>) {
        if frames.is_empty() {
            return;
        }
        if self.shared.is_failed(from) || self.shared.is_failed(to) {
            frames.clear();
            return;
        }
        let now_us = self.shared.now_us();
        let mut datagrams: Vec<Vec<u8>> = Vec::with_capacity(frames.len());
        for bytes in frames.drain(..) {
            if bytes.len() + DATA_HDR > MAX_DATAGRAM {
                continue; // cannot ride one datagram; uniform shape says never split
            }
            let mut d = Vec::with_capacity(DATA_HDR + bytes.len());
            d.push(FRAME_DATA);
            d.extend_from_slice(&now_us.to_le_bytes());
            d.extend_from_slice(&bytes);
            datagrams.push(d);
        }
        if datagrams.is_empty() {
            return;
        }

        // Token gate: an empty queue may transmit its granted prefix
        // immediately; a backlogged neighbour appends behind the queue
        // to keep per-link FIFO order.
        let (now_batch, overflow) = self.state_take(to, now_us, datagrams);
        if overflow > 0 {
            self.shared
                .stats
                .queue_drops
                .fetch_add(overflow as u64, Ordering::Relaxed);
        }
        if !now_batch.is_empty() {
            self.transmit(&now_batch, to).await;
        }
    }

    /// Lock the pacer once: grant what the budget allows, queue the
    /// rest (bounded), arm the refill wheel. Returns the batch to send
    /// now plus the count dropped at a full queue.
    // lint: hot-path
    fn state_take(
        &self,
        to: OverlayAddr,
        now_us: u64,
        mut datagrams: Vec<Vec<u8>>,
    ) -> (Vec<Vec<u8>>, usize) {
        let mut guard = self.pacer.state.lock();
        // Split the guard's borrow so the neighbour's controller stays
        // bound across the disjoint `queues`/`queued`/`wheel` updates.
        let s = &mut *guard;
        let cc = s
            .ccs
            .entry(to)
            .or_insert_with(|| NeighborCc::new(self.shared.cc));
        let backlogged = s.queues.get(&to).is_some_and(|q| !q.is_empty());
        let granted = if backlogged {
            0
        } else {
            cc.take(now_us, datagrams.len())
        };
        let mut rest: Vec<Vec<u8>> = datagrams.split_off(granted);
        let mut overflow = 0;
        if !rest.is_empty() {
            self.shared
                .stats
                .paced
                .fetch_add(rest.len() as u64, Ordering::Relaxed);
            let added;
            {
                let q = s.queues.entry(to).or_default();
                let room = PACER_QUEUE_CAP.saturating_sub(q.len());
                if rest.len() > room {
                    overflow = rest.len() - room;
                    rest.truncate(room);
                }
                added = rest.len();
                q.extend(rest);
            }
            s.queued += added;
            let due = cc.next_token_due(now_us);
            s.wheel.schedule(due, to);
            drop(guard);
            let _ = self.pacer.wake.try_send(());
        }
        (datagrams, overflow)
    }

    async fn transmit(&self, batch: &[Vec<u8>], to: OverlayAddr) {
        let (ip, port) = to.to_ipv4();
        let target = std::net::SocketAddr::from((ip, port));
        self.shared.stats.send_calls.fetch_add(1, Ordering::Relaxed);
        if let Ok(n) = self.sock.send_many_to(batch, target).await {
            self.shared
                .stats
                .datagrams_sent
                .fetch_add(n as u64, Ordering::Relaxed);
        }
    }
}

/// The pacer drain task: parks until a send finds an empty token
/// bucket, then ticks the wheel until every queue drains. Holds only a
/// `Weak` on the pacer so dropped ports tear the task down.
// lint: hot-path
async fn pacer_task(
    pacer: Weak<Pacer>,
    mut wake: mpsc::Receiver<()>,
    sock: Arc<UdpSocket>,
    shared: Arc<NetShared>,
) {
    // Reusable tick-loop buffers: neither allocates once warm.
    // lint: allow(hot-path) — one-time task-startup construction, reused for every tick below.
    let mut fired: Vec<(Tick, OverlayAddr)> = Vec::new();
    // lint: allow(hot-path) — one-time task-startup construction, reused for every tick below.
    let mut batches: Vec<(OverlayAddr, Vec<Vec<u8>>)> = Vec::new();
    'park: loop {
        if wake.recv().await.is_none() {
            return; // every sender handle is gone
        }
        loop {
            tokio::time::sleep(Duration::from_millis(PACER_GRANULARITY_MS)).await;
            let Some(pacer) = pacer.upgrade() else { return };
            let now_us = shared.now_us();
            batches.clear();
            let mut drained = {
                let mut s = pacer.state.lock();
                fired.clear();
                let now_tick = Tick(now_us / 1_000);
                s.wheel.poll_expired(now_tick, &mut fired);
                for &(_, addr) in &fired {
                    // Lazy cancellation: duplicates and already-empty
                    // queues re-validate to a no-op here.
                    let granted = {
                        let queue_len = s.queues.get(&addr).map_or(0, |q| q.len());
                        if queue_len == 0 {
                            continue;
                        }
                        s.ccs
                            .get_mut(&addr)
                            .map_or(queue_len, |cc| cc.take(now_us, queue_len))
                    };
                    let Some(q) = s.queues.get_mut(&addr) else {
                        continue; // raced away; nothing to drain
                    };
                    // lint: allow(hot-path) — the batch must own its datagrams: it outlives the lock, crossing the send `.await`.
                    let batch: Vec<Vec<u8>> = q.drain(..granted).collect();
                    s.queued -= batch.len();
                    if !batch.is_empty() {
                        batches.push((addr, batch));
                    }
                    if !s.queues.get(&addr).is_some_and(|q| q.is_empty()) {
                        let due = s
                            .ccs
                            .get(&addr)
                            .map_or(Tick(now_us / 1_000 + 1), |cc| cc.next_token_due(now_us));
                        s.wheel.schedule(due, addr);
                    }
                }
                s.queued == 0
            };
            for (to, batch) in &batches {
                let (ip, port) = to.to_ipv4();
                let target = std::net::SocketAddr::from((ip, port));
                shared.stats.send_calls.fetch_add(1, Ordering::Relaxed);
                if let Ok(n) = sock.send_many_to(batch, target).await {
                    shared
                        .stats
                        .datagrams_sent
                        .fetch_add(n as u64, Ordering::Relaxed);
                }
            }
            if drained {
                // Drain any stale wake nudge so the park below blocks.
                while wake.try_recv().is_ok() {}
                drained = pacer.state.lock().queued == 0;
                if drained {
                    continue 'park;
                }
            }
        }
    }
}

/// Per-sender receive accounting for delay feedback.
struct RxPeer {
    since: u32,
    last_owd_us: u64,
    last_fb_us: u64,
}

/// The port's receive task: drains datagram bursts, measures one-way
/// delay, applies the fault shim, hands payloads to the node's inbox
/// and echoes delay feedback. Exits when the inbox receiver drops.
async fn recv_task(
    sock: Arc<UdpSocket>,
    tx: mpsc::Sender<(OverlayAddr, Bytes)>,
    pacer: Arc<Pacer>,
    shared: Arc<NetShared>,
    mut rng: StdRng,
) {
    let mut peers: HashMap<std::net::SocketAddr, RxPeer> = HashMap::new();
    // A datagram the reorder shim holds back, and when it goes out in
    // order if no later datagram overtakes it first.
    let mut held: Option<((OverlayAddr, Bytes), Instant)> = None;
    let mut buf = vec![0u8; MAX_DATAGRAM];
    loop {
        let flush_at = held.as_ref().map(|(_, at)| *at);
        let recv = Box::pin(sock.recv_many_from(&mut buf, RECV_BATCH));
        let burst = tokio::select! {
            got = recv => match got {
                Ok(burst) => Some(burst),
                Err(_) => break,
            },
            _ = tx.closed() => break,
            _ = tokio::time::sleep_until(flush_at.unwrap_or_else(Instant::now)),
                if flush_at.is_some() => None,
        };
        let Some(burst) = burst else {
            // Nothing overtook the held datagram: deliver it in order.
            if let Some((deferred, _)) = held.take() {
                if tx.send(deferred).await.is_err() {
                    break;
                }
            }
            continue;
        };
        shared.stats.recv_calls.fetch_add(1, Ordering::Relaxed);
        let now_us = shared.now_us();
        let mut exit = false;
        for (datagram, src) in burst {
            let Some(from) = overlay_addr_of(src) else {
                continue;
            };
            match datagram.first() {
                Some(&FRAME_FEEDBACK) if datagram.len() >= 13 => {
                    let owd = u64::from_le_bytes(datagram[1..9].try_into().expect("len checked"));
                    shared
                        .stats
                        .feedback_received
                        .fetch_add(1, Ordering::Relaxed);
                    pacer.on_feedback(&shared.cc, from, now_us, owd);
                }
                Some(&FRAME_DATA) if datagram.len() > DATA_HDR => {
                    shared
                        .stats
                        .datagrams_received
                        .fetch_add(1, Ordering::Relaxed);
                    if shared.is_failed(from) {
                        continue;
                    }
                    let sent_us =
                        u64::from_le_bytes(datagram[1..9].try_into().expect("len checked"));
                    let owd_us = now_us.saturating_sub(sent_us);
                    let peer = peers.entry(src).or_insert(RxPeer {
                        since: 0,
                        last_owd_us: 0,
                        last_fb_us: 0,
                    });
                    peer.since += 1;
                    peer.last_owd_us = owd_us;
                    let payload = Bytes::from(datagram).slice(DATA_HDR..);

                    // Fault shim (deterministic per-port RNG).
                    let f = &shared.faults;
                    if f.loss > 0.0 && !is_setup(&payload) && rng.gen::<f64>() < f.loss {
                        shared.stats.injected_drops.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    if f.reorder > 0.0 && held.is_none() && rng.gen::<f64>() < f.reorder {
                        held = Some(((from, payload), Instant::now() + REORDER_HOLD));
                        continue;
                    }
                    let dup = f.duplicate > 0.0 && rng.gen::<f64>() < f.duplicate;
                    if dup {
                        shared.stats.injected_dups.fetch_add(1, Ordering::Relaxed);
                    }
                    if tx.send((from, payload.clone())).await.is_err() {
                        exit = true;
                        break;
                    }
                    if dup && tx.send((from, payload)).await.is_err() {
                        exit = true;
                        break;
                    }
                    if let Some((deferred, _)) = held.take() {
                        // This datagram overtook the held one.
                        shared
                            .stats
                            .injected_reorders
                            .fetch_add(1, Ordering::Relaxed);
                        if tx.send(deferred).await.is_err() {
                            exit = true;
                            break;
                        }
                    }
                }
                _ => {} // runt or unknown frame: drop
            }
        }
        if exit {
            break;
        }
        // Echo delay feedback to chatty or overdue senders.
        for (src, peer) in peers.iter_mut() {
            if peer.since == 0 {
                continue;
            }
            if peer.since >= FEEDBACK_EVERY || now_us.saturating_sub(peer.last_fb_us) >= FEEDBACK_INTERVAL_US
            {
                let mut fb = Vec::with_capacity(13);
                fb.push(FRAME_FEEDBACK);
                fb.extend_from_slice(&peer.last_owd_us.to_le_bytes());
                fb.extend_from_slice(&peer.since.to_le_bytes());
                peer.since = 0;
                peer.last_fb_us = now_us;
                if sock.send_to(&fb, *src).await.is_ok() {
                    shared.stats.feedback_sent.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// The overlay address a datagram's source socket address implies
/// (every node sends from its bound socket, so this is the sender).
fn overlay_addr_of(src: std::net::SocketAddr) -> Option<OverlayAddr> {
    match src {
        std::net::SocketAddr::V4(v4) => {
            Some(OverlayAddr::from_ipv4(v4.ip().octets(), v4.port()))
        }
        std::net::SocketAddr::V6(_) => None,
    }
}

/// Whether a wire buffer is a setup packet (kind byte 0 behind the
/// 2-byte magic and version — see `slicing_wire`'s header layout).
fn is_setup(frame: &[u8]) -> bool {
    frame.len() >= 4 && frame[..2] == slicing_wire::MAGIC && frame[3] == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[tokio::test]
    async fn round_trip_over_loopback() {
        let net = UdpNet::new(UdpFaults::default(), 1);
        let a = net.attach().await.unwrap();
        let mut b = net.attach().await.unwrap();
        a.tx.send(b.addr, Bytes::from(&b"over udp"[..])).await;
        let (from, bytes) = b.rx.recv().await.unwrap();
        assert_eq!(from, a.addr);
        assert_eq!(bytes, b"over udp");
        let stats = net.stats();
        assert_eq!(stats.datagrams_sent, 1);
        assert_eq!(stats.send_calls, 1);
    }

    #[tokio::test]
    async fn batch_is_one_send_call() {
        let net = UdpNet::new(UdpFaults::default(), 2);
        let a = net.attach().await.unwrap();
        let mut b = net.attach().await.unwrap();
        let mut frames: Vec<Bytes> = (0..20u32)
            .map(|i| Bytes::from(i.to_le_bytes().to_vec()))
            .collect();
        a.tx.send_many(b.addr, &mut frames).await;
        assert!(frames.is_empty(), "send_many drains the batch");
        for i in 0..20u32 {
            let (from, bytes) = b.rx.recv().await.unwrap();
            assert_eq!(from, a.addr);
            assert_eq!(bytes, i.to_le_bytes());
        }
        let stats = net.stats();
        assert_eq!(stats.datagrams_sent, 20);
        assert_eq!(stats.send_calls, 1, "one batch, one transmit call");
        assert!(stats.datagrams_sent / stats.send_calls.max(1) > 1);
    }

    #[tokio::test]
    async fn bidirectional_and_feedback_flows() {
        let net = UdpNet::new(UdpFaults::default(), 3);
        let mut a = net.attach().await.unwrap();
        let mut b = net.attach().await.unwrap();
        // Enough traffic to cross the feedback threshold.
        for _ in 0..FEEDBACK_EVERY + 4 {
            a.tx.send(b.addr, Bytes::from(&b"ping"[..])).await;
            let (_, got) = b.rx.recv().await.unwrap();
            assert_eq!(got, &b"ping"[..]);
        }
        b.tx.send(a.addr, Bytes::from(&b"pong"[..])).await;
        let (_, got) = a.rx.recv().await.unwrap();
        assert_eq!(got, &b"pong"[..]);
        // Feedback frames eventually reach a's controller.
        let stats =
            crate::testutil::wait_until(|| net.stats(), |s| s.feedback_received > 0).await;
        assert!(stats.feedback_sent > 0, "receiver must echo delay samples");
        assert!(stats.feedback_received > 0, "sender must consume echoes");
    }

    #[tokio::test]
    async fn injected_loss_drops_data_not_setup() {
        let net = UdpNet::new(
            UdpFaults {
                loss: 1.0,
                ..Default::default()
            },
            4,
        );
        let a = net.attach().await.unwrap();
        let mut b = net.attach().await.unwrap();
        // A plain (non-wire) frame counts as data: total loss eats it.
        a.tx.send(b.addr, Bytes::from(&b"gone"[..])).await;
        // A real setup packet is exempt even at loss=1.0.
        let setup = slicing_wire::control::keepalive(
            slicing_wire::FlowId(7),
            slicing_wire::FlowId(8),
        );
        let mut setup_bytes = setup.encode().to_vec();
        setup_bytes[3] = 0; // rewrite kind to Setup for the shim's peek
        a.tx.send(b.addr, Bytes::from(setup_bytes.clone())).await;
        let (_, got) = b.rx.recv().await.unwrap();
        assert_eq!(&got[..], &setup_bytes[..], "setup must survive");
        assert_eq!(net.stats().injected_drops, 1);
    }

    #[tokio::test]
    async fn duplication_and_reorder_inject() {
        let net = UdpNet::new(
            UdpFaults {
                duplicate: 1.0,
                ..Default::default()
            },
            5,
        );
        let a = net.attach().await.unwrap();
        let mut b = net.attach().await.unwrap();
        a.tx.send(b.addr, Bytes::from(&b"twice"[..])).await;
        let (_, one) = b.rx.recv().await.unwrap();
        let (_, two) = b.rx.recv().await.unwrap();
        assert_eq!(one, two);
        assert_eq!(net.stats().injected_dups, 1);

        // At reorder=1.0 the first datagram waits for the second to
        // overtake it: in one batch, in two sends, and in two sends with
        // the first already read off the socket when the second leaves.
        for (seed, split) in [(6, None), (11, Some(false)), (13, Some(true))] {
            let net = UdpNet::new(
                UdpFaults {
                    reorder: 1.0,
                    ..Default::default()
                },
                seed,
            );
            let a = net.attach().await.unwrap();
            let mut b = net.attach().await.unwrap();
            let mut frames: Vec<Bytes> =
                vec![Bytes::from(&b"first"[..]), Bytes::from(&b"second"[..])];
            match split {
                None => a.tx.send_many(b.addr, &mut frames).await,
                Some(first_read) => {
                    let second = frames.pop().expect("two frames");
                    a.tx.send(b.addr, frames.pop().expect("two frames")).await;
                    while first_read && net.stats().datagrams_received == 0 {
                        tokio::task::yield_now().await;
                    }
                    a.tx.send(b.addr, second).await;
                }
            }
            let (_, one) = b.rx.recv().await.unwrap();
            let (_, two) = b.rx.recv().await.unwrap();
            assert_eq!((&one[..], &two[..]), (&b"second"[..], &b"first"[..]));
            assert_eq!(net.stats().injected_reorders, 1);
        }
    }

    /// A held datagram that nothing overtakes still arrives, and does
    /// not count as reordered.
    #[tokio::test]
    async fn reorder_hold_flushes_in_order_when_nothing_follows() {
        let net = UdpNet::new(
            UdpFaults {
                reorder: 1.0,
                ..Default::default()
            },
            12,
        );
        let a = net.attach().await.unwrap();
        let mut b = net.attach().await.unwrap();
        a.tx.send(b.addr, Bytes::from(&b"alone"[..])).await;
        let (_, got) = b.rx.recv().await.unwrap();
        assert_eq!(got, &b"alone"[..]);
        assert_eq!(net.stats().injected_reorders, 0);
    }

    #[tokio::test]
    async fn failed_node_blackholes() {
        let net = UdpNet::new(UdpFaults::default(), 7);
        let a = net.attach().await.unwrap();
        let mut b = net.attach().await.unwrap();
        net.fail(b.addr);
        a.tx.send(b.addr, Bytes::from(&b"x"[..])).await;
        tokio::time::sleep(Duration::from_millis(30)).await;
        assert!(b.rx.try_recv().is_err());
    }

    #[tokio::test]
    async fn oversize_frame_dropped_not_split() {
        let net = UdpNet::new(UdpFaults::default(), 8);
        let a = net.attach().await.unwrap();
        let mut b = net.attach().await.unwrap();
        a.tx.send(b.addr, Bytes::from(vec![0u8; MAX_DATAGRAM + 1])).await;
        a.tx.send(b.addr, Bytes::from(&b"after"[..])).await;
        let (_, got) = b.rx.recv().await.unwrap();
        assert_eq!(got, &b"after"[..], "oversize frame must drop, not wedge");
    }

    /// The budget gate: a paced net throttles a burst but loses nothing
    /// — queued datagrams drain from the wheel-driven pacer task.
    #[tokio::test]
    async fn pacer_queues_and_drains() {
        let cc = CcConfig {
            max_rate: 2_000.0,
            min_rate: 500.0,
            bucket_cap: 8.0,
            ..CcConfig::default()
        };
        let net = UdpNet::with_cc(UdpFaults::default(), 9, cc);
        let a = net.attach().await.unwrap();
        let mut b = net.attach().await.unwrap();
        let mut frames: Vec<Bytes> = (0..64u32)
            .map(|i| Bytes::from(i.to_le_bytes().to_vec()))
            .collect();
        a.tx.send_many(b.addr, &mut frames).await;
        for i in 0..64u32 {
            let (_, bytes) = b.rx.recv().await.unwrap();
            assert_eq!(bytes, i.to_le_bytes(), "paced drain must keep FIFO order");
        }
        let stats = net.stats();
        assert!(stats.paced > 0, "burst must exceed the 8-token bucket");
        assert_eq!(stats.queue_drops, 0);
    }

    #[tokio::test]
    async fn dropped_port_releases_socket() {
        let net = UdpNet::new(UdpFaults::default(), 10);
        let node = net.attach().await.unwrap();
        let (ip, port) = node.addr.to_ipv4();
        drop(node);
        let target = std::net::SocketAddr::from((ip, port));
        let rebound = crate::testutil::wait_until(
            || std::net::UdpSocket::bind(target).is_ok(),
            |ok| *ok,
        )
        .await;
        assert!(rebound, "socket must be released after drop");
    }
}
