//! Crash-restart regression: SIGKILL a stage-2 relay *process* of an
//! established session just before its transfer starts. The session
//! layer must detect the silent peer through the relay liveness
//! protocol, repair the forwarding graph around it from a spare-process
//! pool, and complete the stream byte-identically — over real UDP and
//! over TCP. The killed process is then restarted
//! and must come back healthy and scrapeable.
//!
//! This is the process-level twin of the in-process repair test in
//! `crates/overlay/tests/repair_cmd.rs`: the graph shape (`d′ = d`, no
//! redundancy headroom) makes the kill fully stalling, so completion
//! proves the repair path, not luck.

mod common;

use common::{process_relay_config, process_session_config, spawn_relay_fleet};
use slicing_core::{SessionManager, SourceConfig, SourceSession};
use slicing_graph::{DestPlacement, GraphParams, OverlayAddr};
use slicing_node::config::TransportKind;
use slicing_node::runtime::data_addr;
use slicing_overlay::daemon::{spawn_node, DestSessionSpec, NodeSpec, OverlayEvent, SessionEvent};
use slicing_overlay::{TcpNet, UdpFaults, UdpNet};
use slicing_node::orchestrator::{free_tcp_port, free_udp_port};
use std::time::Duration;
use tokio::sync::mpsc;

const SEED: u64 = 0xC4A5;

/// Driver-side transport: pseudo-source ports and the in-process
/// destination attach over the same real transport as the fleet.
enum DriverNet {
    Udp(UdpNet),
    Tcp,
}

impl DriverNet {
    async fn attach(&self) -> slicing_overlay::NodePort {
        match self {
            DriverNet::Udp(net) => net
                .attach_at(free_udp_port())
                .await
                .expect("attach driver UDP port"),
            DriverNet::Tcp => TcpNet::attach_at(free_tcp_port())
                .await
                .expect("attach driver TCP port"),
        }
    }
}

async fn crash_restart(transport: TransportKind) {
    let relay_config = process_relay_config();
    let session_config = process_session_config();
    // d′ = d: losing any placed relay stalls the stream until repair.
    let params = GraphParams::new(3, 2).with_dest_placement(DestPlacement::LastStage);
    let relay_count = params.relay_count();

    // The fleet: exactly `relay_count` candidate processes (so the
    // victim is guaranteed to be an external process) plus two spares
    // forming the repair pool.
    let (mut fleet, data_ports) =
        spawn_relay_fleet(relay_count + 2, transport, relay_config, session_config);
    let candidates: Vec<OverlayAddr> = data_ports[..relay_count]
        .iter()
        .map(|&p| data_addr(p))
        .collect();
    let spares: Vec<OverlayAddr> = data_ports[relay_count..]
        .iter()
        .map(|&p| data_addr(p))
        .collect();

    // Driver side: d′ pseudo-source ports plus an in-process combined
    // destination node (so delivered bytes can be verified in-memory).
    let net = match transport {
        TransportKind::Udp => DriverNet::Udp(UdpNet::new(UdpFaults::default(), SEED)),
        TransportKind::Tcp => DriverNet::Tcp,
    };
    let mut pseudo_ports = Vec::with_capacity(params.paths);
    for _ in 0..params.paths {
        pseudo_ports.push(net.attach().await);
    }
    let pseudo_addrs: Vec<OverlayAddr> = pseudo_ports.iter().map(|p| p.addr).collect();
    let dest_port = net.attach().await;
    let dest_addr = dest_port.addr;

    let (events_tx, mut events_rx) = mpsc::unbounded_channel();
    let (deliveries_tx, mut deliveries_rx) = mpsc::unbounded_channel();
    let epoch = tokio::time::Instant::now();
    let dest_node = spawn_node(NodeSpec {
        relay: Some(slicing_core::ShardedRelay::with_config(
            dest_addr,
            SEED,
            relay_config,
            2,
        )),
        sessions: None,
        ports: vec![dest_port],
        dest_sessions: Some(DestSessionSpec {
            config: session_config,
            seed: SEED,
            deliveries: deliveries_tx,
        }),
        events: events_tx.clone(),
        session_events: None,
        epoch,
    });

    let (session_events_tx, mut session_events_rx) = mpsc::unbounded_channel();
    let source_node = spawn_node(NodeSpec {
        relay: None,
        sessions: Some(SessionManager::new(2, 16, session_config)),
        ports: pseudo_ports,
        dest_sessions: None,
        events: events_tx,
        session_events: Some(session_events_tx),
        epoch,
    });
    let sessions = source_node.sessions.clone().expect("session plane");

    let (mut source, setup) =
        SourceSession::establish(params, &pseudo_addrs, &candidates, dest_addr, SEED)
            .expect("establish");
    // Announce liveness at the relays' cadence or the stage-1 relays
    // declare the pseudo-sources dead and drop the reverse path the
    // FLOW_FAILED reports travel on.
    source.set_config(SourceConfig {
        keepalive_ms: relay_config.keepalive_ms,
        ..SourceConfig::default()
    });
    // The victim: a stage-2 relay — by construction one of the
    // external candidate processes.
    let victim = source.graph().stages[2][0];
    let victim_idx = data_ports
        .iter()
        .position(|&p| data_addr(p) == victim)
        .expect("victim is an external relay process");
    let id = sessions.open_source(source, setup).await;

    // Wait for the destination's receiver flow, then stream.
    let deadline = tokio::time::sleep(Duration::from_secs(30));
    tokio::pin!(deadline);
    loop {
        tokio::select! {
            ev = events_rx.recv() => match ev.expect("events") {
                OverlayEvent::Established { addr, receiver: true, .. }
                    if addr == dest_addr => break,
                _ => continue,
            },
            _ = &mut deadline => panic!("flow never established"),
        }
    }
    // SIGKILL the victim process, then start the stream. Acks travel
    // at forward speed, so a stream started first can finish inside
    // any fixed delay before the kill and never need the repair this
    // test is about. Killed first, the victim stalls the stream from
    // its first chunk until failure detection and repair land.
    fleet.kill(victim_idx);
    let payload: Vec<u8> = (0..96_000u32).map(|i| (i.wrapping_mul(131) % 251) as u8).collect();
    sessions.send(id, payload.clone()).await;

    // Nurse the session exactly like the soak driver: speculative
    // repairs from the pool of live processes until the ack lands.
    let pool: Vec<OverlayAddr> = candidates
        .iter()
        .chain(spares.iter())
        .copied()
        .filter(|a| *a != victim)
        .collect();
    let mut repaired = 0usize;
    let mut acked = 0usize;
    let mut delivered: Option<Vec<u8>> = None;
    let mut nudge = tokio::time::interval(Duration::from_millis(250));
    let deadline = tokio::time::sleep(Duration::from_secs(90));
    tokio::pin!(deadline);
    while acked == 0 || delivered.is_none() {
        tokio::select! {
            _ = nudge.tick() => sessions.repair(id, pool.clone()).await,
            sev = session_events_rx.recv() => match sev.expect("session events") {
                SessionEvent::Repaired { session, failed, .. } => {
                    assert_eq!(session, id);
                    assert!(failed >= 1, "repair must route around the killed process");
                    repaired += 1;
                }
                SessionEvent::Acked { session, .. } if session == id => acked += 1,
                SessionEvent::Rejected { error, .. } => panic!("rejected: {error}"),
                _ => continue,
            },
            dv = deliveries_rx.recv() => match dv.expect("deliveries") {
                d if d.addr == dest_addr => delivered = Some(d.payload),
                _ => continue,
            },
            _ = &mut deadline => panic!(
                "wedged after process kill: repaired={repaired} acked={acked} delivered={}",
                delivered.is_some()
            ),
        }
    }
    assert!(repaired >= 1, "the repair path must have fired");
    assert_eq!(
        delivered.as_deref(),
        Some(payload.as_slice()),
        "stream must complete byte-identically across the process kill"
    );

    // The surviving processes carry the repair in their exported
    // counters: the victim's children spliced new parent lists.
    let live = (0..fleet.len()).filter(|&i| i != victim_idx);
    let repaired_flows = common::fleet_counter_sum(&fleet, live, "slicing_relay_flows_repaired");
    assert!(
        repaired_flows >= 1.0,
        "no surviving process exported a spliced re-setup (flows_repaired sum: {repaired_flows})"
    );

    // Restart the killed process: it must come back healthy and
    // scrapeable with fresh counters.
    fleet.spawn(victim_idx).expect("respawn victim");
    assert!(
        fleet.wait_healthy(victim_idx, Duration::from_secs(10)),
        "restarted process never became healthy"
    );
    let metrics = fleet.scrape(victim_idx).expect("scrape restarted process");
    assert_eq!(
        metrics.get("slicing_relay_flows_established").copied(),
        Some(0.0),
        "restart must start from fresh counters"
    );

    source_node.abort();
    dest_node.abort();
    fleet.kill_all();
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn stage2_process_kill_recovers_over_udp() {
    crash_restart(TransportKind::Udp).await;
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn stage2_process_kill_recovers_over_tcp() {
    crash_restart(TransportKind::Tcp).await;
}
