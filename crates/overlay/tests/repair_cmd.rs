//! The session plane's `Repair` command end to end: a manager-hosted
//! source session loses a mid-graph relay with `d′ = d` (no redundancy
//! headroom), the driver calls [`SessionHandle::repair`] speculatively
//! on a timer — exactly how the `slicing-node` soak driver nurses
//! wedged sessions — and the daemon repairs the graph, replays the
//! window and completes the transfer byte-identically.

mod common;

use std::time::{Duration, Instant};

use slicing_core::{
    DestPlacement, GraphParams, RelayConfig, SessionConfig, SessionManager, ShardedRelay,
    SourceConfig, SourceSession,
};
use slicing_overlay::{
    spawn_node, DestSessionSpec, EmulatedNet, NodeSpec, OverlayEvent, SessionEvent,
};
use slicing_sim::wan::NetProfile;
use tokio::sync::mpsc;

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn repair_command_recovers_manager_hosted_session() {
    const SEED: u64 = 11;
    let net = EmulatedNet::new(NetProfile::lan(), SEED);
    // d′ = d: losing any relay stalls the flow until a repair reroutes it.
    let params = GraphParams::new(3, 2).with_dest_placement(DestPlacement::LastStage);
    let relay_config = RelayConfig {
        setup_flush_ms: 400,
        data_flush_ms: 150,
        keepalive_ms: 100,
        liveness_timeout_ms: 400,
        ..RelayConfig::default()
    };
    let session_config = SessionConfig {
        retransmit_ms: 600,
        ack_interval_ms: 120,
        ..SessionConfig::default()
    };

    let dp = params.paths;
    let relay_count = params.relay_count() + 4; // 4 spares for the repair pool
    let mut pseudo_ports = Vec::with_capacity(dp);
    for i in 0..dp {
        pseudo_ports.push(net.attach(slicing_graph::OverlayAddr(1_000 + i as u64)));
    }
    let dest_port = net.attach(slicing_graph::OverlayAddr(1));
    let dest_addr = dest_port.addr;
    let mut relay_ports = Vec::with_capacity(relay_count);
    for i in 0..relay_count {
        relay_ports.push(net.attach(slicing_graph::OverlayAddr(10_000 + i as u64)));
    }
    let pseudo_addrs: Vec<_> = pseudo_ports.iter().map(|p| p.addr).collect();
    let candidates: Vec<_> = relay_ports.iter().map(|p| p.addr).collect();

    let (events_tx, mut events_rx) = mpsc::unbounded_channel();
    let (deliveries_tx, mut deliveries_rx) = mpsc::unbounded_channel();
    let epoch = Instant::now();
    let mut handles = Vec::new();
    for port in relay_ports.into_iter().chain(std::iter::once(dest_port)) {
        handles.push(spawn_node(NodeSpec {
            relay: Some(ShardedRelay::with_config(port.addr, SEED, relay_config, 2)),
            sessions: None,
            ports: vec![port],
            dest_sessions: Some(DestSessionSpec {
                config: session_config,
                seed: SEED,
                deliveries: deliveries_tx.clone(),
            }),
            events: events_tx.clone(),
            session_events: None,
            epoch,
        }));
    }

    let (session_events_tx, mut session_events_rx) = mpsc::unbounded_channel();
    let source_node = spawn_node(NodeSpec {
        relay: None,
        sessions: Some(SessionManager::new(2, 16, session_config)),
        ports: pseudo_ports,
        dest_sessions: None,
        events: events_tx.clone(),
        session_events: Some(session_events_tx),
        epoch,
    });
    let sessions = source_node.sessions.clone().expect("session plane");

    let (mut source, setup) =
        SourceSession::establish(params, &pseudo_addrs, &candidates, dest_addr, SEED)
            .expect("establish");
    // The source must announce liveness at the relays' cadence, or the
    // stage-1 relays declare the pseudo-sources dead and stop relaying
    // reverse traffic — including the FLOW_FAILED reports the repair
    // depends on.
    source.set_config(SourceConfig {
        keepalive_ms: relay_config.keepalive_ms,
        ..SourceConfig::default()
    });
    // The victim: a mid-graph relay (stage 2 of 3; the destination sits
    // in the last stage and must survive).
    let victim = source.graph().stages[2][0];
    assert_ne!(victim, dest_addr);
    let id = sessions.open_source(source, setup).await;

    // Wait for the destination's receiver flow, then start the stream.
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
    // Kill the victim, then start the stream: blackhole it on the
    // emulated net so its upstream/downstream neighbours stop hearing
    // keepalives. The stream cannot complete before failure detection
    // lands — acks travel at forward speed, so a 24 kB transfer that
    // started first would finish in milliseconds, before any kill.
    net.fail(victim);
    let payload: Vec<u8> = (0..24_000u32).map(|i| (i * 31 % 251) as u8).collect();
    sessions.send(id, payload.clone()).await;

    // Speculative repair, soak-driver style: every 200 ms nudge the
    // session with the pool of still-live candidates. Before failure
    // detection lands the command is a documented no-op; once the
    // FLOW_FAILED report reaches the source the daemon repairs and
    // replays the window.
    let pool: Vec<_> = candidates.iter().copied().filter(|a| *a != victim).collect();
    let mut repaired = 0usize;
    let mut acked = 0usize;
    let mut delivered: Option<Vec<u8>> = None;
    let mut nudge = tokio::time::interval(Duration::from_millis(200));
    let deadline = tokio::time::sleep(Duration::from_secs(60));
    tokio::pin!(deadline);
    while acked == 0 || delivered.is_none() {
        tokio::select! {
            _ = nudge.tick() => sessions.repair(id, pool.clone()).await,
            sev = session_events_rx.recv() => match sev.expect("session events") {
                SessionEvent::Repaired { session, failed, .. } => {
                    assert_eq!(session, id);
                    assert!(failed >= 1, "repair must route around a reported failure");
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
                "wedged: repaired={repaired} acked={acked} delivered={}",
                delivered.is_some()
            ),
        }
    }

    assert!(repaired >= 1, "the Repair command must have fired");
    assert_eq!(delivered.as_deref(), Some(payload.as_slice()), "byte-identical");
    // The handle's stats converge with the events (no drift between the
    // two observation channels).
    let stats = common::wait_until(|| sessions.stats(), |s| s.msgs_acked >= 1).await;
    assert!(stats.msgs_acked >= 1, "stats: {stats:?}");
    assert_eq!(stats.drops, 0, "stats: {stats:?}");

    source_node.abort();
    for h in handles {
        h.abort();
    }
}
