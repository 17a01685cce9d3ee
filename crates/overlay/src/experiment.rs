//! Measurement harnesses for the paper's performance experiments
//! (Figs. 11–15): end-to-end transfers for information slicing and the
//! onion baseline, over either transport, plus the multi-flow scaling
//! driver.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use slicing_core::{
    DestPlacement, GraphParams, OverlayAddr, RelayConfig, SessionConfig, SessionManager,
    ShardedRelay, SourceConfig, SourceSession,
};
use slicing_graph::packets::SendInstr;
use slicing_onion::{Directory, OnionRelay, OnionSource};
use slicing_sim::churn::ChurnModel;
use slicing_sim::wan::NetProfile;
use tokio::sync::mpsc;

use crate::daemon::{
    now_tick, spawn_node, spawn_onion_relay, DestSessionSpec, NodeHandle, NodeSpec, OverlayEvent,
    SessionEvent, SessionHandle,
};
use crate::{EmulatedNet, NodePort, TcpNet, UdpFaults, UdpNet, UdpStatsSnapshot};

/// Which transport to measure over.
#[derive(Clone, Debug)]
pub enum Transport {
    /// In-process emulated network with the given condition profile.
    Emulated(NetProfile),
    /// Real TCP sockets on loopback.
    Tcp,
    /// Real UDP datagrams on loopback, with delay-gradient congestion
    /// control and the given injected fault profile.
    Udp(UdpFaults),
}

/// Configuration of one transfer experiment.
#[derive(Clone, Debug)]
pub struct TransferConfig {
    /// Graph shape.
    pub params: GraphParams,
    /// Transport to run over.
    pub transport: Transport,
    /// Number of data messages.
    pub messages: usize,
    /// Plaintext bytes per message (clamped to the protocol's budget).
    pub payload_len: usize,
    /// RNG seed.
    pub seed: u64,
    /// Hard deadline for the whole run.
    pub timeout: Duration,
    /// Shards per relay node: the worker tasks behind each node's
    /// ingress (1 = one worker owning the whole flow table).
    pub relay_shards: usize,
    /// Relay engine tuning (timeouts, keepalive/liveness intervals).
    pub relay_config: RelayConfig,
}

impl Default for TransferConfig {
    fn default() -> Self {
        TransferConfig {
            params: GraphParams::new(5, 2).with_dest_placement(DestPlacement::LastStage),
            transport: Transport::Emulated(NetProfile::lan()),
            messages: 20,
            payload_len: 1200,
            seed: 7,
            timeout: Duration::from_secs(60),
            relay_shards: 1,
            relay_config: RelayConfig::default(),
        }
    }
}

/// Results of one transfer run.
#[derive(Clone, Copy, Debug, Default)]
pub struct TransferReport {
    /// Route-setup latency: first setup packet sent → destination
    /// decoded its info (§7.4; the paper adds an explicit ack for
    /// collection, we observe the destination directly).
    pub setup_ms: u64,
    /// Data-phase duration: first data send → last delivery.
    pub transfer_ms: u64,
    /// Application payload bytes delivered.
    pub payload_bytes: u64,
    /// Messages delivered (of the configured count).
    pub messages_delivered: usize,
    /// Application-level throughput in Mbit/s.
    pub throughput_mbps: f64,
    /// Wire packets transported (emulated transport only).
    pub wire_packets: u64,
    /// Wire bytes transported (emulated transport only).
    pub wire_bytes: u64,
}

enum NetHandle {
    Emu(EmulatedNet),
    Tcp,
    Udp(UdpNet),
}

impl NetHandle {
    async fn attach(&self, suggested: OverlayAddr) -> NodePort {
        match self {
            NetHandle::Emu(net) => net.attach(suggested),
            NetHandle::Tcp => TcpNet::attach().await.expect("loopback bind"),
            NetHandle::Udp(net) => net.attach().await.expect("loopback bind"),
        }
    }

    fn counters(&self) -> (u64, u64) {
        match self {
            NetHandle::Emu(net) => net.counters(),
            NetHandle::Tcp => (0, 0),
            NetHandle::Udp(net) => (net.stats().datagrams_sent, 0),
        }
    }

    /// UDP transport counters, when the run went over UDP.
    fn udp_stats(&self) -> Option<UdpStatsSnapshot> {
        match self {
            NetHandle::Udp(net) => Some(net.stats()),
            _ => None,
        }
    }
}

fn make_net(t: &Transport, seed: u64) -> NetHandle {
    match t {
        Transport::Emulated(profile) => NetHandle::Emu(EmulatedNet::new(*profile, seed)),
        Transport::Tcp => NetHandle::Tcp,
        Transport::Udp(faults) => NetHandle::Udp(UdpNet::new(*faults, seed)),
    }
}

/// A live overlay for one experiment run: `d′` pseudo-source ports, an
/// optional dedicated destination and a relay pool, every node of it a
/// relay-plane [`spawn_node`].
struct Overlay {
    /// The source's attachment points, not yet driven by anyone.
    pseudo_ports: Vec<NodePort>,
    /// The dedicated destination node (outside the relay pool).
    dest_addr: Option<OverlayAddr>,
    /// The relay pool Algorithm 1 draws from.
    relay_addrs: Vec<OverlayAddr>,
    /// Every running node; dropping (or shutting down) a handle takes
    /// the node off the overlay.
    nodes: HashMap<OverlayAddr, NodeHandle>,
    events_tx: mpsc::UnboundedSender<OverlayEvent>,
    events_rx: mpsc::UnboundedReceiver<OverlayEvent>,
    epoch: Instant,
}

impl Overlay {
    /// Attach everything (the transport assigns addresses on TCP/UDP)
    /// and spawn one node per relay-pool member plus, with
    /// `dedicated_dest`, one for the destination — each running
    /// `relay(addr)` with `dest_sessions` colocated on its receiver
    /// flows.
    async fn bring_up(
        net: &NetHandle,
        paths: usize,
        dedicated_dest: bool,
        relays: usize,
        relay: impl Fn(OverlayAddr) -> ShardedRelay,
        dest_sessions: Option<DestSessionSpec>,
    ) -> Overlay {
        let mut pseudo_ports = Vec::with_capacity(paths);
        for i in 0..paths {
            pseudo_ports.push(net.attach(OverlayAddr(1_000 + i as u64)).await);
        }
        let mut ports = Vec::with_capacity(relays + 1);
        if dedicated_dest {
            ports.push(net.attach(OverlayAddr(1)).await);
        }
        for i in 0..relays {
            ports.push(net.attach(OverlayAddr(10_000 + i as u64)).await);
        }
        let dest_addr = dedicated_dest.then(|| ports[0].addr);
        let relay_addrs = ports[usize::from(dedicated_dest)..]
            .iter()
            .map(|p| p.addr)
            .collect();

        let (events_tx, events_rx) = mpsc::unbounded_channel();
        let epoch = Instant::now();
        let nodes = ports
            .into_iter()
            .map(|port| {
                let addr = port.addr;
                let node = spawn_node(NodeSpec {
                    relay: Some(relay(addr)),
                    sessions: None,
                    ports: vec![port],
                    dest_sessions: dest_sessions.clone(),
                    events: events_tx.clone(),
                    session_events: None,
                    epoch,
                });
                (addr, node)
            })
            .collect();
        Overlay {
            pseudo_ports,
            dest_addr,
            relay_addrs,
            nodes,
            events_tx,
            events_rx,
            epoch,
        }
    }

    /// Wait for the dedicated destination's receiver flow to establish;
    /// `false` if `timeout` passes first.
    async fn dest_established(&mut self, timeout: Duration) -> bool {
        let deadline = tokio::time::sleep(timeout);
        tokio::pin!(deadline);
        loop {
            tokio::select! {
                ev = self.events_rx.recv() => match ev {
                    Some(OverlayEvent::Established { addr, receiver: true, .. })
                        if Some(addr) == self.dest_addr => return true,
                    Some(_) => continue,
                    None => return false,
                },
                _ = &mut deadline => return false,
            }
        }
    }

    /// Spawn the source node: `manager`'s session plane over the
    /// pseudo-source ports.
    fn spawn_source(
        &mut self,
        manager: SessionManager,
    ) -> (NodeHandle, SessionHandle, mpsc::UnboundedReceiver<SessionEvent>) {
        let (session_events_tx, session_events_rx) = mpsc::unbounded_channel();
        let node = spawn_node(NodeSpec {
            relay: None,
            sessions: Some(manager),
            ports: std::mem::take(&mut self.pseudo_ports),
            dest_sessions: None,
            events: self.events_tx.clone(),
            session_events: Some(session_events_tx),
            epoch: self.epoch,
        });
        let sessions = node
            .sessions
            .clone()
            .expect("source node hosts the session plane");
        (node, sessions, session_events_rx)
    }
}

/// Run one information-slicing transfer end to end; see
/// [`TransferConfig`].
pub async fn run_slicing_transfer(cfg: &TransferConfig) -> TransferReport {
    let net = make_net(&cfg.transport, cfg.seed);
    let params = cfg.params;
    let mut overlay = Overlay::bring_up(
        &net,
        params.paths,
        true,
        params.relay_count() + 4,
        |addr| ShardedRelay::with_config(addr, cfg.seed, cfg.relay_config, cfg.relay_shards),
        None,
    )
    .await;
    let dest_addr = overlay.dest_addr.expect("dedicated destination");
    let pseudo_ports = std::mem::take(&mut overlay.pseudo_ports);
    let pseudo_addrs: Vec<OverlayAddr> = pseudo_ports.iter().map(|p| p.addr).collect();

    // Source: build graph, emit setup from the pseudo-source ports.
    let (mut source, setup) = SourceSession::establish(
        params,
        &pseudo_addrs,
        &overlay.relay_addrs,
        dest_addr,
        cfg.seed,
    )
    .expect("graph parameters validated by caller");
    let setup_start = Instant::now();
    for instr in setup {
        let port = pseudo_ports
            .iter()
            .find(|p| p.addr == instr.from)
            .expect("pseudo-source port");
        port.tx.send(instr.to, instr.packet.encode()).await;
    }

    // Wait for the destination to establish.
    let mut report = TransferReport::default();
    if !overlay.dest_established(cfg.timeout).await {
        return report;
    }
    report.setup_ms = setup_start.elapsed().as_millis() as u64;

    // Data phase.
    let payload_len = cfg.payload_len.min(source.max_chunk_len());
    let payload = vec![0xA5u8; payload_len];
    let data_start = Instant::now();
    for _ in 0..cfg.messages {
        let (_, sends) = source.send_message(&payload).expect("payload clamped to budget");
        for instr in sends {
            let port = pseudo_ports
                .iter()
                .find(|p| p.addr == instr.from)
                .expect("pseudo-source port");
            port.tx.send(instr.to, instr.packet.encode()).await;
        }
    }
    let mut delivered = 0usize;
    let deadline = tokio::time::sleep(cfg.timeout);
    tokio::pin!(deadline);
    while delivered < cfg.messages {
        tokio::select! {
            ev = overlay.events_rx.recv() => {
                match ev {
                    Some(OverlayEvent::MessageReceived { addr, len, .. }) if addr == dest_addr => {
                        delivered += 1;
                        report.payload_bytes += len as u64;
                    }
                    Some(_) => continue,
                    None => break,
                }
            }
            _ = &mut deadline => break,
        }
    }
    report.transfer_ms = data_start.elapsed().as_millis() as u64;
    report.messages_delivered = delivered;
    report.throughput_mbps =
        throughput_mbps_f(report.payload_bytes, data_start.elapsed().as_secs_f64());
    let (p, b) = net.counters();
    report.wire_packets = p;
    report.wire_bytes = b;
    report
}

/// Run one onion-routing transfer (standard, single circuit) with the
/// same measurement points.
pub async fn run_onion_transfer(cfg: &TransferConfig) -> TransferReport {
    let net = make_net(&cfg.transport, cfg.seed ^ 0x0410);
    let hops = cfg.params.length;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let source_port = net.attach(OverlayAddr(1_000)).await;
    let mut relay_ports = Vec::with_capacity(hops);
    for i in 0..hops {
        relay_ports.push(net.attach(OverlayAddr(10_000 + i as u64)).await);
    }
    let path: Vec<OverlayAddr> = relay_ports.iter().map(|p| p.addr).collect();
    let dest_addr = *path.last().expect("non-empty path");

    // PKI: register all relays.
    let mut dir = Directory::new();
    let mut keypairs = Vec::new();
    for &addr in &path {
        keypairs.push((addr, dir.register(addr, 512, &mut rng)));
    }

    let (events_tx, mut events_rx) = mpsc::unbounded_channel();
    let epoch = Instant::now();
    let mut handles = Vec::new();
    for port in relay_ports {
        let (_, kp) = keypairs
            .iter()
            .find(|(a, _)| *a == port.addr)
            .expect("registered");
        let relay = OnionRelay::new(port.addr, kp.clone());
        handles.push(spawn_onion_relay(relay, port, events_tx.clone(), epoch));
    }

    let mut report = TransferReport::default();
    let setup_start = Instant::now();
    let (mut handle, setup) =
        OnionSource::build_circuit(source_port.addr, &path, &dir, &mut rng)
            .expect("registered path");
    source_port.tx.send(setup.to, setup.packet.encode()).await;

    // Wait for the exit to establish.
    let deadline = tokio::time::sleep(cfg.timeout);
    tokio::pin!(deadline);
    loop {
        tokio::select! {
            ev = events_rx.recv() => {
                match ev {
                    Some(OverlayEvent::Established { addr, receiver: true, .. })
                        if addr == dest_addr =>
                    {
                        report.setup_ms = setup_start.elapsed().as_millis() as u64;
                        break;
                    }
                    Some(_) => continue,
                    None => return report,
                }
            }
            _ = &mut deadline => return report,
        }
    }

    // Data phase: same payload volume as the slicing run.
    let payload = vec![0xA5u8; cfg.payload_len];
    let data_start = Instant::now();
    for _ in 0..cfg.messages {
        let (_, send) = handle.send_data(&payload, &mut rng);
        source_port.tx.send(send.to, send.packet.encode()).await;
    }
    let mut delivered = 0usize;
    let deadline = tokio::time::sleep(cfg.timeout);
    tokio::pin!(deadline);
    while delivered < cfg.messages {
        tokio::select! {
            ev = events_rx.recv() => {
                match ev {
                    Some(OverlayEvent::MessageReceived { addr, len, .. }) if addr == dest_addr => {
                        delivered += 1;
                        report.payload_bytes += len as u64;
                    }
                    Some(_) => continue,
                    None => break,
                }
            }
            _ = &mut deadline => break,
        }
    }
    report.transfer_ms = data_start.elapsed().as_millis() as u64;
    report.messages_delivered = delivered;
    report.throughput_mbps =
        throughput_mbps_f(report.payload_bytes, data_start.elapsed().as_secs_f64());
    let (p, b) = net.counters();
    report.wire_packets = p;
    report.wire_bytes = b;
    for h in handles {
        h.abort();
    }
    report
}

/// Results of a multi-flow scaling run (Fig. 13).
#[derive(Clone, Copy, Debug, Default)]
pub struct MultiFlowReport {
    /// Concurrent flows attempted.
    pub flows: usize,
    /// Flows whose destination established.
    pub flows_established: usize,
    /// Total application bytes delivered across flows.
    pub payload_bytes: u64,
    /// Wall-clock duration of the data phase, ms.
    pub elapsed_ms: u64,
    /// Aggregate network throughput, Mbit/s.
    pub aggregate_mbps: f64,
    /// UDP transport counters (batching ratio, pacing, injected faults)
    /// when the run went over [`Transport::Udp`].
    pub udp: Option<UdpStatsSnapshot>,
}

/// Fig. 13: `flows` concurrent anonymous flows over a shared overlay of
/// `overlay_size` relay nodes (the paper: 100 nodes, d = 3, L = 5),
/// each relay sharded `relay_shards` ways.
///
/// Built on the combined-node runtime: every overlay node is a
/// [`spawn_node`] hosting relay + destination roles (receiver flows get
/// colocated destination sessions that acknowledge and reassemble), and
/// **one** source node multiplexes every flow as a session of a single
/// sharded [`SessionManager`] over `d′` shared pseudo-source ports —
/// the paper's many-connections workload as one process would actually
/// run it, rather than `flows` independent driver loops.
#[allow(clippy::too_many_arguments)] // experiment knobs, used by one harness
pub async fn run_multi_flow(
    overlay_size: usize,
    relay_shards: usize,
    flows: usize,
    params: GraphParams,
    transport: Transport,
    messages: usize,
    payload_len: usize,
    seed: u64,
    timeout: Duration,
) -> MultiFlowReport {
    let net = make_net(&transport, seed);
    let (deliveries_tx, mut deliveries_rx) = mpsc::unbounded_channel();
    let relay_config = RelayConfig {
        data_flush_ms: 250,
        ..RelayConfig::default()
    };
    let session_config = SessionConfig {
        retransmit_ms: 1_200,
        ack_interval_ms: 150,
        ..SessionConfig::default()
    };

    // Shared overlay nodes: relay + destination roles combined.
    let mut overlay = Overlay::bring_up(
        &net,
        params.paths,
        false,
        overlay_size,
        |addr| ShardedRelay::with_config(addr, seed, relay_config, relay_shards),
        Some(DestSessionSpec {
            config: session_config,
            seed,
            deliveries: deliveries_tx,
        }),
    )
    .await;

    // The source node: d′ shared pseudo-source ports, one session
    // manager sharded like the relays.
    let pseudo_addrs: Vec<OverlayAddr> = overlay.pseudo_ports.iter().map(|p| p.addr).collect();
    let manager = SessionManager::new(relay_shards.max(1), flows.max(1) * 2 + 8, session_config);
    let (_source_node, sessions, mut session_events_rx) = overlay.spawn_source(manager);

    // Open one session per flow (destinations are overlay nodes).
    let node_addrs = &overlay.relay_addrs;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut opened = 0usize;
    let mut session_ids = Vec::with_capacity(flows);
    for _ in 0..flows {
        let dest = node_addrs[rng.gen_range(0..node_addrs.len())];
        let candidates: Vec<OverlayAddr> = node_addrs
            .iter()
            .copied()
            .filter(|&a| a != dest)
            .collect();
        match SourceSession::establish(params, &pseudo_addrs, &candidates, dest, rng.gen()) {
            Ok((source, setup)) => {
                session_ids.push(sessions.open_source(source, setup).await);
                opened += 1;
            }
            Err(_) => continue,
        }
    }

    // Give setups a moment to land, then stream the data phase.
    tokio::time::sleep(Duration::from_millis(500)).await;
    let mut report = MultiFlowReport {
        flows,
        ..Default::default()
    };
    let data_start = Instant::now();
    let payload = vec![0x5Au8; payload_len];
    for &id in &session_ids {
        for _ in 0..messages {
            sessions.send(id, payload.clone()).await;
        }
    }
    let mut expected_total = opened * messages;

    let mut got = 0usize;
    let mut established = std::collections::HashSet::new();
    let deadline = tokio::time::sleep(timeout);
    tokio::pin!(deadline);
    while got < expected_total {
        tokio::select! {
            dv = deliveries_rx.recv() => {
                match dv {
                    Some(delivery) => {
                        got += 1;
                        report.payload_bytes += delivery.payload.len() as u64;
                        established.insert(delivery.flow);
                    }
                    None => break,
                }
            }
            ev = overlay.events_rx.recv() => {
                match ev {
                    Some(OverlayEvent::Established { flow, receiver: true, .. }) => {
                        established.insert(flow);
                    }
                    Some(_) => continue,
                    None => break,
                }
            }
            sev = session_events_rx.recv() => {
                match sev {
                    // A rejected send (or a send against a rejected
                    // open) can never deliver: shrink the target so a
                    // stray rejection does not burn the whole timeout.
                    Some(SessionEvent::Rejected { session, error, .. }) => {
                        eprintln!("run_multi_flow: {session:?} rejected: {error}");
                        if !matches!(error, slicing_core::SessionError::TooManySessions { .. }) {
                            expected_total = expected_total.saturating_sub(1);
                        }
                    }
                    Some(_) => continue,
                    None => break,
                }
            }
            _ = &mut deadline => break,
        }
    }
    report.elapsed_ms = data_start.elapsed().as_millis() as u64;
    report.flows_established = established.len().min(flows);
    report.aggregate_mbps =
        throughput_mbps_f(report.payload_bytes, data_start.elapsed().as_secs_f64());
    report.udp = net.udp_stats();
    report
}

/// Configuration of one streamed session transfer: a single anonymous
/// session carrying arbitrary-length messages (chunked, windowed,
/// acknowledged end to end) over a live sharded overlay.
#[derive(Clone, Debug)]
pub struct SessionTransferConfig {
    /// Graph shape.
    pub params: GraphParams,
    /// Transport to run over.
    pub transport: Transport,
    /// Stream messages to send.
    pub messages: usize,
    /// Plaintext bytes per message — any length; the session layer
    /// chunks it.
    pub payload_len: usize,
    /// Shards per relay daemon.
    pub relay_shards: usize,
    /// Shards of the source node's session manager.
    pub session_shards: usize,
    /// Relay engine tuning.
    pub relay_config: RelayConfig,
    /// Session endpoint tuning.
    pub session_config: SessionConfig,
    /// RNG seed.
    pub seed: u64,
    /// Hard deadline for the whole run.
    pub timeout: Duration,
}

impl Default for SessionTransferConfig {
    fn default() -> Self {
        SessionTransferConfig {
            params: GraphParams::new(3, 2).with_dest_placement(DestPlacement::LastStage),
            transport: Transport::Emulated(NetProfile::lan()),
            messages: 1,
            payload_len: 100_000,
            relay_shards: 1,
            session_shards: 1,
            relay_config: RelayConfig {
                setup_flush_ms: 500,
                data_flush_ms: 150,
                ..RelayConfig::default()
            },
            session_config: SessionConfig {
                retransmit_ms: 1_000,
                ack_interval_ms: 120,
                ..SessionConfig::default()
            },
            seed: 7,
            timeout: Duration::from_secs(60),
        }
    }
}

/// Outcome of one streamed session transfer.
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionTransferReport {
    /// The destination's receiver flow established.
    pub established: bool,
    /// Chunks each message spans (from the protocol budget).
    pub chunks_per_message: usize,
    /// Messages fully reassembled at the destination.
    pub messages_delivered: usize,
    /// Application bytes delivered.
    pub payload_bytes: u64,
    /// Every delivered message was byte-identical to what was sent, in
    /// order.
    pub bytes_match: bool,
    /// Every message was acknowledged end to end and the source window
    /// drained (no per-message state left behind).
    pub source_drained: bool,
    /// Chunk retransmissions the window performed.
    pub retransmits: u64,
    /// Data-phase duration, ms.
    pub elapsed_ms: u64,
    /// UDP transport counters (batching ratio, pacing, injected faults)
    /// when the run went over [`Transport::Udp`].
    pub udp: Option<UdpStatsSnapshot>,
}

/// Stream `messages × payload_len` bytes through one anonymous session
/// on a live overlay: relays and the destination are combined
/// [`spawn_node`]s (the destination's receiver flow gets a colocated
/// destination session that acks and reassembles), the source is a
/// session-plane node over `d′` pseudo-source ports.
pub async fn run_session_transfer(cfg: &SessionTransferConfig) -> SessionTransferReport {
    let net = make_net(&cfg.transport, cfg.seed ^ 0x5E55);
    let params = cfg.params;
    let mut report = SessionTransferReport::default();

    // Combined nodes: every relay (and the destination) hosts the relay
    // plane plus colocated destination sessions.
    let (deliveries_tx, mut deliveries_rx) = mpsc::unbounded_channel();
    let mut overlay = Overlay::bring_up(
        &net,
        params.paths,
        true,
        params.relay_count() + 4,
        |addr| ShardedRelay::with_config(addr, cfg.seed, cfg.relay_config, cfg.relay_shards),
        Some(DestSessionSpec {
            config: cfg.session_config,
            seed: cfg.seed,
            deliveries: deliveries_tx,
        }),
    )
    .await;
    let dest_addr = overlay.dest_addr.expect("dedicated destination");

    // The source node: session plane over the pseudo-source ports.
    let pseudo_addrs: Vec<OverlayAddr> = overlay.pseudo_ports.iter().map(|p| p.addr).collect();
    let manager = SessionManager::new(cfg.session_shards.max(1), 16, cfg.session_config);
    let (_source_node, sessions, mut session_events_rx) = overlay.spawn_source(manager);

    let (source, setup) = match SourceSession::establish(
        params,
        &pseudo_addrs,
        &overlay.relay_addrs,
        dest_addr,
        cfg.seed,
    ) {
        Ok(ok) => ok,
        Err(_) => return report,
    };
    report.chunks_per_message = cfg.payload_len.div_ceil(source.stream_chunk_len()).max(1);
    let id = sessions.open_source(source, setup).await;

    // Wait for the destination's receiver flow.
    if !overlay.dest_established(cfg.timeout).await {
        return report;
    }
    report.established = true;

    // The data phase: distinct pseudo-random payloads, verified byte
    // for byte on arrival.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xBEEF);
    let mut want: Vec<Vec<u8>> = Vec::with_capacity(cfg.messages);
    let data_start = Instant::now();
    for _ in 0..cfg.messages {
        let mut payload = vec![0u8; cfg.payload_len];
        rng.fill_bytes(&mut payload);
        sessions.send(id, payload.clone()).await;
        want.push(payload);
    }

    let mut acked = 0usize;
    let mut bytes_match = true;
    let deadline = tokio::time::sleep(cfg.timeout);
    tokio::pin!(deadline);
    while report.messages_delivered < cfg.messages || acked < cfg.messages {
        tokio::select! {
            dv = deliveries_rx.recv() => match dv {
                Some(delivery) if delivery.addr == dest_addr => {
                    bytes_match &= want
                        .get(delivery.msg_id as usize)
                        .is_some_and(|w| *w == delivery.payload);
                    report.payload_bytes += delivery.payload.len() as u64;
                    report.messages_delivered += 1;
                }
                Some(_) => continue,
                None => break,
            },
            sev = session_events_rx.recv() => match sev {
                Some(SessionEvent::Acked { .. }) => acked += 1,
                Some(SessionEvent::Rejected { error, .. }) => {
                    // A rejected send can never complete; fail fast.
                    eprintln!("session transfer: send rejected: {error}");
                    break;
                }
                Some(_) => continue,
                None => break,
            },
            _ = &mut deadline => break,
        }
    }
    report.elapsed_ms = data_start.elapsed().as_millis() as u64;
    report.bytes_match = bytes_match && report.messages_delivered == cfg.messages;
    report.source_drained = acked == cfg.messages;
    report.retransmits = sessions.stats().retransmits;
    report.udp = net.udp_stats();
    report
}

/// Configuration of one live churn session: a paced message train
/// through the async runtime while relays churn out mid-flow — and,
/// optionally, the source repairs the forwarding graph around them
/// (Fig. 17 measured end-to-end on the production data plane).
#[derive(Clone, Debug)]
pub struct ChurnSessionConfig {
    /// Graph shape.
    pub params: GraphParams,
    /// Transport to run over.
    pub transport: Transport,
    /// Messages sent across the session.
    pub messages: usize,
    /// Plaintext bytes per message (clamped to the protocol's budget).
    pub payload_len: usize,
    /// Pacing between messages; the session's wall-clock length is
    /// `messages × message_interval` and churn times map onto it.
    pub message_interval: Duration,
    /// Relay tuning — keepalive/liveness intervals set the detection
    /// latency, so they should be a small fraction of the session.
    pub relay_config: RelayConfig,
    /// Shards per relay daemon.
    pub relay_shards: usize,
    /// Sample a failure time for every placed relay (the destination is
    /// exempt) from this model, scaled onto the session length.
    /// Replacements spliced in by a repair get their own lifetime drawn
    /// over the remaining session.
    pub churn: Option<ChurnModel>,
    /// Explicit kills: `(fraction of session, stage, index)` — resolved
    /// against the initial graph. Used by tests to kill one exact relay.
    pub kills: Vec<(f64, usize, usize)>,
    /// Whether the source repairs around reported failures.
    pub repair: bool,
    /// Retry cadence for sent-but-undelivered messages (the driver's
    /// reliability layer over the fire-and-forget data plane; delivery
    /// stays at-most-once via the destination's replay guard). Must
    /// exceed the relays' gather quarantine (`2 × data_flush_ms`) or
    /// retries are eaten as duplicates. `None` resends a message only
    /// over the new routes of a repair.
    pub retransmit_interval: Option<Duration>,
    /// Spare relays attached beyond the graph's need (the repair pool).
    pub spares: usize,
    /// RNG seed.
    pub seed: u64,
    /// Hard deadline for the whole run.
    pub timeout: Duration,
}

impl Default for ChurnSessionConfig {
    fn default() -> Self {
        ChurnSessionConfig {
            params: GraphParams::new(5, 2).with_dest_placement(DestPlacement::LastStage),
            transport: Transport::Emulated(NetProfile::lan()),
            messages: 6,
            payload_len: 600,
            message_interval: Duration::from_millis(300),
            relay_config: RelayConfig {
                setup_flush_ms: 400,
                data_flush_ms: 200,
                keepalive_ms: 100,
                liveness_timeout_ms: 400,
                ..RelayConfig::default()
            },
            relay_shards: 1,
            churn: None,
            kills: Vec::new(),
            repair: true,
            retransmit_interval: Some(Duration::from_millis(600)),
            spares: 4,
            seed: 7,
            timeout: Duration::from_secs(30),
        }
    }
}

/// Outcome of one live churn session.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChurnSessionReport {
    /// The destination decoded its info (setup survived).
    pub established: bool,
    /// Messages handed to the network.
    pub messages_sent: usize,
    /// Distinct messages the destination decoded.
    pub messages_delivered: usize,
    /// Relays killed during the session.
    pub kills: usize,
    /// Source-side repairs performed.
    pub repairs: usize,
    /// Setup packets the source emitted over the session (initial
    /// establishment + repairs) — the repair-locality measure.
    pub setup_packets: u64,
    /// Whole-session success: every message delivered.
    pub success: bool,
}

impl NetHandle {
    /// Take a node off the network (no-op on TCP, where killing the
    /// daemon closes the node's real socket instead; on UDP the node's
    /// datagrams blackhole in both directions).
    fn fail(&self, addr: OverlayAddr) {
        match self {
            NetHandle::Emu(net) => net.fail(addr),
            NetHandle::Tcp => {}
            NetHandle::Udp(net) => net.fail(addr),
        }
    }
}

/// Run one live churn session; see [`ChurnSessionConfig`].
pub async fn run_churn_session(cfg: &ChurnSessionConfig) -> ChurnSessionReport {
    let net = make_net(&cfg.transport, cfg.seed);
    let params = cfg.params;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x00C0_FFEE);
    let mut report = ChurnSessionReport::default();

    // Nodes stay addressable in `overlay.nodes` for mid-session kills.
    let mut overlay = Overlay::bring_up(
        &net,
        params.paths,
        true,
        params.relay_count() + cfg.spares + 4,
        |addr| ShardedRelay::with_config(addr, cfg.seed, cfg.relay_config, cfg.relay_shards),
        None,
    )
    .await;
    let dest_addr = overlay.dest_addr.expect("dedicated destination");
    let epoch = overlay.epoch;
    let pseudo_ports = std::mem::take(&mut overlay.pseudo_ports);
    let pseudo_addrs: Vec<OverlayAddr> = pseudo_ports.iter().map(|p| p.addr).collect();
    let candidate_addrs = overlay.relay_addrs.clone();

    // Source session, tuned to the relays' liveness plane.
    let (mut source, setup) = match SourceSession::establish(
        params,
        &pseudo_addrs,
        &candidate_addrs,
        dest_addr,
        cfg.seed,
    ) {
        Ok(ok) => ok,
        Err(_) => return report,
    };
    source.set_config(SourceConfig {
        keepalive_ms: cfg.relay_config.keepalive_ms.max(1),
        ..SourceConfig::default()
    });

    // Split the pseudo-source ports into senders (for the source's
    // outgoing instructions) and a merged receive stream (reverse-path
    // data and FLOW_FAILED reports funneled into the driver loop).
    let mut pseudo_send: HashMap<OverlayAddr, crate::PortSender> = HashMap::new();
    let (merged_tx, mut merged_rx) =
        mpsc::unbounded_channel::<(OverlayAddr, OverlayAddr, bytes::Bytes)>();
    for mut port in pseudo_ports {
        pseudo_send.insert(port.addr, port.tx.clone());
        let tx = merged_tx.clone();
        let me = port.addr;
        tokio::spawn(async move {
            while let Some((from, bytes)) = port.rx.recv().await {
                if tx.send((me, from, bytes)).is_err() {
                    break;
                }
            }
        });
    }
    let transmit = |pseudo_send: &HashMap<OverlayAddr, crate::PortSender>,
                    sends: Vec<SendInstr>| {
        let pseudo_send = pseudo_send.clone();
        async move {
            for instr in sends {
                if let Some(port) = pseudo_send.get(&instr.from) {
                    port.send(instr.to, instr.packet.encode()).await;
                }
            }
        }
    };

    // Establish, bounded by the session timeout.
    transmit(&pseudo_send, setup).await;
    if !overlay.dest_established(cfg.timeout).await {
        return report;
    }
    report.established = true;

    // Kill schedule over the session's wall clock.
    let session_len = cfg.message_interval * cfg.messages as u32;
    let mut kills: Vec<(Duration, OverlayAddr)> = Vec::new();
    for &(frac, stage, index) in &cfg.kills {
        let addr = source.graph().stages[stage][index];
        assert_ne!(addr, dest_addr, "the destination cannot be killed");
        kills.push((session_len.mul_f64(frac.clamp(0.0, 1.0)), addr));
    }
    if let Some(model) = cfg.churn {
        for addr in source.graph().relay_addrs() {
            if addr == dest_addr {
                continue;
            }
            let node = model.sample_node(&mut rng);
            if let Some(t) = node.sample_failure(model.session_minutes, &mut rng) {
                kills.push((session_len.mul_f64(t / model.session_minutes), addr));
            }
        }
    }
    kills.sort_by_key(|&(t, _)| t);
    let mut killed: HashSet<OverlayAddr> = HashSet::new();

    // The session: paced sends, arrivals into the source, kills on
    // schedule, keepalives and (optionally) repair on a driver tick.
    let payload_len = cfg.payload_len.min(source.max_chunk_len());
    let payload = vec![0xA5u8; payload_len];
    let data_start = Instant::now();
    let hard_deadline = data_start + cfg.timeout;
    let mut delivered: HashSet<u32> = HashSet::new();
    let mut sent_at: BTreeMap<u32, Instant> = BTreeMap::new();
    let mut ticker = tokio::time::interval(Duration::from_millis(25));
    loop {
        if delivered.len() >= cfg.messages || Instant::now() >= hard_deadline {
            break;
        }
        tokio::select! {
            got = merged_rx.recv() => {
                let Some((pseudo, from, bytes)) = got else { break };
                if let Ok(packet) = slicing_core::Packet::from_bytes(bytes) {
                    source.handle_packet(now_tick(epoch), pseudo, from, &packet);
                }
            }
            ev = overlay.events_rx.recv() => {
                if let Some(OverlayEvent::MessageReceived { addr, seq, .. }) = ev {
                    if addr == dest_addr {
                        delivered.insert(seq);
                    }
                }
            }
            _ = ticker.tick() => {
                let now = data_start.elapsed();
                // Kills whose time has come: shut the node down (on the
                // emulated transport the hub blackholes it too).
                while let Some(&(t, addr)) = kills.first() {
                    if t > now {
                        break;
                    }
                    kills.remove(0);
                    if killed.insert(addr) {
                        net.fail(addr);
                        if let Some(node) = overlay.nodes.remove(&addr) {
                            node.shutdown().await;
                        }
                        report.kills += 1;
                    }
                }
                // Paced message train.
                if report.messages_sent < cfg.messages
                    && now >= cfg.message_interval * report.messages_sent as u32
                {
                    let (seq, sends) =
                        source.send_message(&payload).expect("payload clamped to budget");
                    transmit(&pseudo_send, sends).await;
                    sent_at.insert(seq, Instant::now());
                    report.messages_sent += 1;
                }
                // Source-side periodic work: keepalives, then repair.
                let polled = source.poll(now_tick(epoch));
                if !polled.is_empty() {
                    transmit(&pseudo_send, polled).await;
                }
                let mut repaired = false;
                if cfg.repair && source.needs_repair() {
                    let before: HashSet<OverlayAddr> = source.graph().relay_addrs().collect();
                    let pool: Vec<OverlayAddr> = candidate_addrs
                        .iter()
                        .copied()
                        .filter(|a| !killed.contains(a))
                        .collect();
                    if let Ok(sends) = source.repair(&pool) {
                        report.repairs += 1;
                        // Replacements live under the same churn model,
                        // over what remains of the session.
                        if let Some(model) = cfg.churn {
                            let remaining = session_len.saturating_sub(now);
                            let frac = remaining.as_secs_f64()
                                / session_len.as_secs_f64().max(1e-9);
                            for addr in source.graph().relay_addrs() {
                                if before.contains(&addr) || addr == dest_addr {
                                    continue;
                                }
                                let node = model.sample_node(&mut rng);
                                if let Some(t) = node
                                    .sample_failure(model.session_minutes * frac, &mut rng)
                                {
                                    let at = now
                                        + session_len.mul_f64(t / model.session_minutes);
                                    kills.push((at, addr));
                                }
                            }
                            kills.sort_by_key(|&(t, _)| t);
                        }
                        transmit(&pseudo_send, sends).await;
                        repaired = true;
                    }
                }
                // Reliability layer, in seq order: every undelivered
                // message over a fresh repair's routes, otherwise those
                // whose retry is due (a cadence longer than the relays'
                // gather quarantine).
                let now_i = Instant::now();
                for (&seq, at) in sent_at.iter_mut() {
                    let due = cfg
                        .retransmit_interval
                        .is_some_and(|interval| now_i.duration_since(*at) >= interval);
                    if !delivered.contains(&seq) && (repaired || due) {
                        let sends = source.retransmit(seq, &payload);
                        transmit(&pseudo_send, sends.expect("payload clamped to budget")).await;
                        *at = now_i;
                    }
                }
            }
        }
    }

    report.messages_delivered = delivered.len();
    report.setup_packets = source.setup_packets_sent();
    report.success = report.messages_delivered >= cfg.messages;
    report
}

/// Application throughput in Mbit/s from bytes over fractional seconds
/// (millisecond counters quantize badly on loopback).
fn throughput_mbps_f(bytes: u64, secs: f64) -> f64 {
    if secs <= 0.0 {
        return 0.0;
    }
    (bytes as f64 * 8.0) / (secs * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn slicing_transfer_over_emulated_lan() {
        let cfg = TransferConfig {
            messages: 5,
            timeout: Duration::from_secs(30),
            ..TransferConfig::default()
        };
        let report = run_slicing_transfer(&cfg).await;
        assert_eq!(report.messages_delivered, 5, "report: {report:?}");
        assert!(report.setup_ms < 10_000);
        assert!(report.payload_bytes > 0);
        assert!(report.wire_packets > 0);
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn slicing_transfer_over_tcp() {
        let cfg = TransferConfig {
            transport: Transport::Tcp,
            messages: 5,
            timeout: Duration::from_secs(30),
            ..TransferConfig::default()
        };
        let report = run_slicing_transfer(&cfg).await;
        assert_eq!(report.messages_delivered, 5, "report: {report:?}");
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn slicing_transfer_sharded_relays_emulated() {
        let cfg = TransferConfig {
            messages: 5,
            timeout: Duration::from_secs(30),
            relay_shards: 4,
            ..TransferConfig::default()
        };
        let report = run_slicing_transfer(&cfg).await;
        assert_eq!(report.messages_delivered, 5, "report: {report:?}");
        assert!(report.setup_ms < 10_000);
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn slicing_transfer_sharded_relays_tcp() {
        let cfg = TransferConfig {
            transport: Transport::Tcp,
            messages: 5,
            timeout: Duration::from_secs(30),
            relay_shards: 4,
            ..TransferConfig::default()
        };
        let report = run_slicing_transfer(&cfg).await;
        assert_eq!(report.messages_delivered, 5, "report: {report:?}");
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn onion_transfer_over_emulated_lan() {
        let cfg = TransferConfig {
            messages: 5,
            timeout: Duration::from_secs(30),
            ..TransferConfig::default()
        };
        let report = run_onion_transfer(&cfg).await;
        assert_eq!(report.messages_delivered, 5, "report: {report:?}");
        assert!(report.setup_ms < 10_000);
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn multi_flow_smoke() {
        let params = GraphParams::new(3, 2);
        let report = run_multi_flow(
            30,
            1,
            3,
            params,
            Transport::Emulated(NetProfile::lan()),
            3,
            600,
            11,
            Duration::from_secs(30),
        )
        .await;
        assert!(report.payload_bytes > 0, "report: {report:?}");
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn multi_flow_sharded_smoke() {
        let params = GraphParams::new(3, 2);
        let report = run_multi_flow(
            30,
            4,
            3,
            params,
            Transport::Emulated(NetProfile::lan()),
            3,
            600,
            11,
            Duration::from_secs(30),
        )
        .await;
        assert!(report.payload_bytes > 0, "report: {report:?}");
    }
}
