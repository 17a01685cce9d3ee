//! `session_bench`: thousands of live anonymous sessions multiplexed on
//! one node, measured on the production async runtime.
//!
//! One source node hosts every session in a sharded
//! `SessionManager` over shared pseudo-source ports; a pool of combined
//! relay+destination nodes (sharded relays with colocated destination
//! sessions) carries the traffic on the emulated LAN transport. Per
//! session count the bench reports:
//!
//! * **setup** — wall-clock to open + establish all sessions, per
//!   session (graph build, d′² setup packets, relay decode, session
//!   registration);
//! * **msgs/s** — aggregate acknowledged stream-message rate while all
//!   sessions are live (every message is chunked, delivered, reassembled
//!   and acked end to end);
//! * **teardown** — wall-clock to close all sessions, per session;
//! * **retx** — chunk retransmissions (0 on the lossless LAN profile
//!   unless timers misfire).
//!
//! Invariant checked every run: after the data phase drains, sent ==
//! acked == delivered — no per-message state (window entries, partial
//! reassembly) survives delivery anywhere in the node.
//!
//! `--quick` (or `SESSION_BENCH_QUICK=1`) runs the small sweep CI uses.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slicing_bench::{banner, RunOpts, Table};
use slicing_core::{
    DestPlacement, GraphParams, OverlayAddr, RelayConfig, SessionConfig, SessionManager,
    ShardedRelay, SourceSession,
};
use slicing_overlay::{
    spawn_node, DestSessionSpec, EmulatedNet, NodeSpec, OverlayEvent, SessionEvent,
};
use slicing_sim::wan::NetProfile;
use tokio::sync::mpsc;

const RELAY_POOL: usize = 32;
const RELAY_SHARDS: usize = 2;
const SESSION_SHARDS: usize = 4;

struct RunResult {
    sessions: usize,
    established: usize,
    setup_us_per_session: f64,
    msgs_per_sec: f64,
    teardown_us_per_session: f64,
    retransmits: u64,
    drained: bool,
}

async fn run_count(sessions: usize, messages: usize, seed: u64) -> RunResult {
    let net = EmulatedNet::new(NetProfile::lan(), seed);
    let (events_tx, mut events_rx) = mpsc::unbounded_channel();
    let (deliveries_tx, mut deliveries_rx) = mpsc::unbounded_channel();
    let (session_events_tx, mut session_events_rx) = mpsc::unbounded_channel();
    let epoch = Instant::now();
    // Quiet relays: no keepalive/liveness chatter, snappy flush so the
    // reverse (ack) path keeps the windows moving.
    let relay_config = RelayConfig {
        setup_flush_ms: 400,
        data_flush_ms: 150,
        keepalive_ms: 0,
        liveness_timeout_ms: 0,
        max_flows: 64 * 1024,
        ..RelayConfig::default()
    };
    let session_config = SessionConfig {
        retransmit_ms: 1_500,
        ack_interval_ms: 150,
        ..SessionConfig::default()
    };

    // The shared overlay: combined relay + destination nodes.
    let mut node_addrs = Vec::with_capacity(RELAY_POOL);
    let mut handles = Vec::new();
    for i in 0..RELAY_POOL {
        let port = net.attach(OverlayAddr(10_000 + i as u64));
        node_addrs.push(port.addr);
        handles.push(spawn_node(NodeSpec {
            relay: Some(ShardedRelay::with_config(
                port.addr,
                seed,
                relay_config,
                RELAY_SHARDS,
            )),
            sessions: None,
            ports: vec![port],
            dest_sessions: Some(DestSessionSpec {
                config: session_config,
                seed,
                deliveries: deliveries_tx.clone(),
            }),
            events: events_tx.clone(),
            session_events: None,
            epoch,
        }));
    }

    // The one node under test: every session lives here.
    let params = GraphParams::new(3, 2).with_dest_placement(DestPlacement::LastStage);
    let mut pseudo_ports = Vec::with_capacity(params.paths);
    for i in 0..params.paths {
        pseudo_ports.push(net.attach(OverlayAddr(1_000_000 + i as u64)));
    }
    let pseudo_addrs: Vec<OverlayAddr> = pseudo_ports.iter().map(|p| p.addr).collect();
    let manager = SessionManager::new(SESSION_SHARDS, sessions + 8, session_config);
    let source_node = spawn_node(NodeSpec {
        relay: None,
        sessions: Some(manager),
        ports: pseudo_ports,
        dest_sessions: None,
        events: events_tx.clone(),
        session_events: Some(session_events_tx),
        epoch,
    });
    let plane = source_node.sessions.clone().expect("session plane");

    // Phase 1: open every session and wait for its receiver flow.
    let setup_start = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ids = Vec::with_capacity(sessions);
    for _ in 0..sessions {
        let dest = node_addrs[rng.gen_range(0..node_addrs.len())];
        let candidates: Vec<OverlayAddr> = node_addrs
            .iter()
            .copied()
            .filter(|&a| a != dest)
            .collect();
        let (source, setup) =
            SourceSession::establish(params, &pseudo_addrs, &candidates, dest, rng.gen())
                .expect("pool large enough");
        ids.push(plane.open_source(source, setup).await);
    }
    let mut established = 0usize;
    let establish_deadline = Instant::now() + Duration::from_secs(120);
    while established < sessions && Instant::now() < establish_deadline {
        tokio::select! {
            ev = events_rx.recv() => match ev {
                Some(OverlayEvent::Established { receiver: true, .. }) => established += 1,
                Some(_) => continue,
                None => break,
            },
            _ = tokio::time::sleep(Duration::from_millis(200)) => continue,
        }
    }
    let setup_us = setup_start.elapsed().as_micros() as f64 / sessions as f64;

    // Phase 2: every session streams `messages` messages concurrently.
    let payload = vec![0xA5u8; 400];
    let data_start = Instant::now();
    for &id in &ids {
        for _ in 0..messages {
            plane.send(id, payload.clone()).await;
        }
    }
    let expected = sessions * messages;
    let mut delivered = 0usize;
    let mut acked = 0usize;
    let data_deadline = Instant::now() + Duration::from_secs(180);
    while (delivered < expected || acked < expected) && Instant::now() < data_deadline {
        tokio::select! {
            dv = deliveries_rx.recv() => {
                if dv.is_some() { delivered += 1; } else { break; }
            }
            sev = session_events_rx.recv() => match sev {
                Some(SessionEvent::Acked { .. }) => acked += 1,
                Some(SessionEvent::Rejected { error, .. }) => {
                    eprintln!("send rejected: {error}");
                }
                Some(_) => continue,
                None => break,
            },
            _ = tokio::time::sleep(Duration::from_millis(200)) => continue,
        }
    }
    let data_elapsed = data_start.elapsed().as_secs_f64();

    // Phase 3: teardown.
    let teardown_start = Instant::now();
    for &id in &ids {
        plane.close(id).await;
    }
    let closed_deadline = Instant::now() + Duration::from_secs(30);
    while plane.stats().closed < sessions as u64 && Instant::now() < closed_deadline {
        tokio::time::sleep(Duration::from_millis(10)).await;
    }
    let teardown_us = teardown_start.elapsed().as_micros() as f64 / sessions as f64;

    let stats = plane.stats();
    let drained = delivered == expected
        && acked == expected
        && stats.msgs_acked == expected as u64;
    source_node.abort();
    for h in handles {
        h.abort();
    }
    RunResult {
        sessions,
        established,
        setup_us_per_session: setup_us,
        msgs_per_sec: delivered as f64 / data_elapsed.max(1e-9),
        teardown_us_per_session: teardown_us,
        retransmits: stats.retransmits,
        drained,
    }
}

#[tokio::main(flavor = "multi_thread")]
async fn main() {
    let opts = RunOpts::from_args();
    let quick = opts.quick || std::env::var_os("SESSION_BENCH_QUICK").is_some();
    let (counts, messages): (&[usize], usize) = if quick {
        (&[64, 256], 2)
    } else {
        (&[256, 1024, 2048], 4)
    };
    banner(
        "session_bench — concurrent anonymous sessions on one node",
        &format!(
            "overlay {RELAY_POOL} nodes x {RELAY_SHARDS} shards, session shards {SESSION_SHARDS}, \
             L = 3, d = 2, {messages} msgs/session, 400 B payloads, emulated LAN"
        ),
        "msgs/s grows with session count until the node saturates; \
         setup/teardown cost per session stays flat",
    );
    let mut table = Table::new(&[
        "sessions",
        "established",
        "setup_us",
        "msgs_per_s",
        "teardown_us",
        "retx",
        "drained",
    ]);
    let mut all_drained = true;
    for &n in counts {
        let r = run_count(n, messages, opts.seed).await;
        all_drained &= r.drained;
        table.row(&[
            r.sessions as f64,
            r.established as f64,
            r.setup_us_per_session,
            r.msgs_per_sec,
            r.teardown_us_per_session,
            r.retransmits as f64,
            if r.drained { 1.0 } else { 0.0 },
        ]);
    }
    table.print();
    assert!(
        all_drained,
        "per-message state must drain after delivery at every session count"
    );
    println!("ok: every session count drained (sent == delivered == acked)");
}
