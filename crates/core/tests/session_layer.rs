//! End-to-end tests of the session layer: streamed multi-chunk messages
//! through a (sharded) relay overlay into the destination session
//! colocated with the destination's relay, acks driving the source
//! window, replies on the reverse path, quotas and teardown hygiene.

mod common;

use common::SessionNet;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use slicing_core::{
    DestPlacement, FlowId, GraphParams, OverlayAddr, RelayConfig, SessionConfig, SessionError,
    SessionId, SessionManager, SourceSession,
};

fn addrs(base: u64, n: usize) -> Vec<OverlayAddr> {
    (0..n as u64).map(|i| OverlayAddr(base + i)).collect()
}

/// Relay tuning for session tests: short flush timeouts so the reverse
/// (ack) path does not dawdle, liveness off (no churn here).
fn relay_config() -> RelayConfig {
    RelayConfig {
        setup_flush_ms: 400,
        data_flush_ms: 200,
        keepalive_ms: 0,
        liveness_timeout_ms: 0,
        ..RelayConfig::default()
    }
}

/// Session tuning compatible with the relay config above (retransmit
/// past the 2 × data_flush_ms gather quarantine).
fn session_config() -> SessionConfig {
    SessionConfig {
        retransmit_ms: 1_000,
        ack_interval_ms: 100,
        ..SessionConfig::default()
    }
}

/// Build one session's graph over the shared relay pool, host its
/// source on `manager` and bring up a node at the destination address;
/// returns the source's id, the receiver flow (the key of everything
/// the destination side reports) and the setup packets to submit. The
/// destination learns the flow from the setup slices like any relay.
#[allow(clippy::too_many_arguments)]
fn open_session(
    manager: &mut SessionManager,
    net: &mut SessionNet,
    pseudo: &[OverlayAddr],
    dest_addr: OverlayAddr,
    l: usize,
    d: usize,
    dp: usize,
    seed: u64,
) -> (SessionId, FlowId, Vec<slicing_core::SendInstr>) {
    let params = GraphParams::new(l, d)
        .with_paths(dp)
        .with_dest_placement(DestPlacement::LastStage);
    let (source, setup) =
        SourceSession::establish(params, pseudo, &net.candidates, dest_addr, seed).unwrap();
    let g = source.graph();
    let dest_flow = g.flow_ids[g.dest.stage][g.dest.index];
    net.add_node(dest_addr);
    let src_id = manager.open_source(net.now, source).unwrap();
    (src_id, dest_flow, setup)
}

#[test]
fn stream_round_trip_32_chunks() {
    let relays = addrs(20_000, 24);
    let pseudo = addrs(10_000, 2);
    let dest = OverlayAddr(1);
    let mut net = SessionNet::new(&relays, 7, relay_config(), session_config(), 2);
    let mut manager = SessionManager::new(2, 64, session_config());

    let (src, dst, setup) = open_session(&mut manager, &mut net, &pseudo, dest, 3, 2, 2, 7);
    net.submit(setup);
    net.run(&mut manager, 4, 200);

    // A payload spanning well over 32 chunks, byte-checkable.
    let chunk = manager.source_mut(src).unwrap().max_chunk_len();
    let mut payload = vec![0u8; chunk * 32 + 123];
    StdRng::seed_from_u64(99).fill_bytes(&mut payload);
    let (msg_id, sends) = manager.send(net.now, src, &payload).unwrap();
    net.submit(sends);
    net.run(&mut manager, 60, 100);

    assert_eq!(
        net.delivered.len(),
        1,
        "exactly one message must complete (stats: {:?})",
        manager.stats()
    );
    assert_eq!(net.delivered[0].0, dst);
    assert_eq!(net.delivered[0].1, msg_id);
    assert_eq!(net.delivered[0].2, payload, "byte-identical reassembly");

    // Source learned of the completion, window fully drained: no
    // per-message state survives delivery.
    assert!(net.acked.contains(&(src, msg_id)));
    assert!(manager.streams_idle(), "window must drain after acks");
    assert_eq!(manager.in_flight_chunks(), 0);
    let resident = net.dest_session(dst).unwrap().resident();
    assert_eq!(resident.partial_msgs, 0);
    assert_eq!(resident.ready_msgs, 0);
    assert_eq!(resident.reassembly_bytes, 0);

    let stats = manager.stats();
    assert_eq!(stats.msgs_acked, 1);
    assert!(stats.chunks_sent >= 33, "stats: {stats:?}");
}

/// An ack travels the reverse path at forward speed: on a lossless net
/// the first ack reaches the source within the forward delivery latency
/// plus one step, even with a flush timer far longer than that. Only the
/// destination speaks upstream, so a reverse gather that waited for
/// every child would hold each ack for a full `data_flush_ms` at the
/// destination's parents.
#[test]
fn first_ack_arrives_within_forward_latency_plus_one_step() {
    const STEP_MS: u64 = 10;
    let relays = addrs(20_000, 24);
    let pseudo = addrs(10_000, 2);
    let dest = OverlayAddr(1);
    let relay_config = RelayConfig {
        data_flush_ms: 1_000,
        ..relay_config()
    };
    let session_config = SessionConfig {
        retransmit_ms: 2_500,
        ..session_config()
    };
    let mut net = SessionNet::new(&relays, 41, relay_config, session_config, 1);
    let mut manager = SessionManager::new(1, 8, session_config);
    let (src, _dst, setup) = open_session(&mut manager, &mut net, &pseudo, dest, 3, 2, 2, 41);
    net.submit(setup);
    net.run(&mut manager, 2, STEP_MS);
    assert_eq!(net.dest_session_count(), 1, "established");

    for m in 0..4u8 {
        let (_, sends) = manager.send(net.now, src, &[m; 100]).unwrap();
        net.submit(sends);
    }
    let (mut delivered_at, mut acked_at) = (None, None);
    for step in 1..=200u64 {
        net.step(&mut manager, STEP_MS);
        if delivered_at.is_none() && !net.delivered.is_empty() {
            delivered_at = Some(step);
        }
        if !net.acked.is_empty() {
            acked_at = Some(step);
            break;
        }
    }
    let delivered_at = delivered_at.expect("forward delivery");
    let acked_at = acked_at.expect("a message is acked");
    assert!(
        acked_at <= delivered_at + 1,
        "delivered after {delivered_at} step(s) but acked after {acked_at} (of {STEP_MS} ms)"
    );
}

#[test]
fn many_sessions_multiplex_in_order() {
    let relays = addrs(20_000, 30);
    let dest_pool = addrs(40_000, 8);
    let mut net = SessionNet::new(&relays, 11, relay_config(), session_config(), 1);
    let mut manager = SessionManager::new(4, 256, session_config());

    let mut rng = StdRng::seed_from_u64(3);
    let mut sessions = Vec::new();
    for s in 0..24u64 {
        let pseudo = addrs(10_000 + s * 4, 2);
        let dest = dest_pool[rng.gen_range(0..dest_pool.len() - 1) + (s as usize % 2)];
        // Sessions share destination nodes: a node's host keys its
        // sessions by receiver flow.
        let (src, dst, setup) =
            open_session(&mut manager, &mut net, &pseudo, dest, 3, 2, 2, 100 + s);
        net.submit(setup);
        sessions.push((src, dst));
    }
    net.run(&mut manager, 5, 200);
    assert_eq!(manager.session_count(), 24);
    assert_eq!(net.dest_session_count(), 24);

    // Every session streams 3 distinct messages.
    let mut want: Vec<(FlowId, u32, Vec<u8>)> = Vec::new();
    for (i, &(src, dst)) in sessions.iter().enumerate() {
        for m in 0..3u32 {
            let payload = format!("session {i} message {m}").into_bytes();
            let (msg_id, sends) = manager.send(net.now, src, &payload).unwrap();
            net.submit(sends);
            want.push((dst, msg_id, payload));
        }
    }
    net.run(&mut manager, 40, 150);

    assert_eq!(
        net.delivered.len(),
        want.len(),
        "all messages delivered exactly once (stats: {:?})",
        manager.stats()
    );
    for w in &want {
        assert!(net.delivered.contains(w), "missing {w:?}");
    }
    // Per-session in-order delivery.
    for &(_, dst) in &sessions {
        let ids: Vec<u32> = net
            .delivered
            .iter()
            .filter(|(s, _, _)| *s == dst)
            .map(|&(_, id, _)| id)
            .collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "messages must release in order for {dst:?}");
    }
    assert!(manager.streams_idle());

    // Teardown: every close releases its router registrations.
    for &(src, _) in &sessions {
        assert!(manager.close(src));
    }
    assert_eq!(manager.session_count(), 0);
    let stats = manager.stats();
    assert_eq!(stats.closed, 24);
}

#[test]
fn backpressure_and_oversize_are_typed() {
    let relays = addrs(20_000, 16);
    let pseudo = addrs(10_000, 2);
    let dest = OverlayAddr(1);
    let mut net = SessionNet::new(&relays, 13, relay_config(), session_config(), 1);
    let tight = SessionConfig {
        send_buffer_bytes: 4_000,
        ..session_config()
    };
    let mut manager = SessionManager::new(1, 8, tight);
    let (src, _dst, _setup) = open_session(&mut manager, &mut net, &pseudo, dest, 3, 2, 2, 13);

    // Oversize: more than 65 535 chunks can never be expressed.
    let max = manager.source_mut(src).unwrap().max_stream_len();
    match manager.send(net.now, src, &vec![0u8; max + 1]).unwrap_err() {
        SessionError::Oversize { len, .. } => assert_eq!(len, max + 1),
        e => panic!("expected Oversize, got {e:?}"),
    }

    // Backpressure: the 4 KB quota admits one 3 KB message, rejects the
    // next until the window drains.
    manager.send(net.now, src, &vec![1u8; 3_000]).unwrap();
    match manager.send(net.now, src, &vec![2u8; 3_000]).unwrap_err() {
        SessionError::Backpressure { buffered, quota } => {
            assert!(buffered >= 3_000);
            assert_eq!(quota, 4_000);
        }
        e => panic!("expected Backpressure, got {e:?}"),
    }

    // Shard quota: the 8-session budget rejects the 9th open.
    let candidates = net.candidates.clone();
    let mut opened = 1; // src above
    loop {
        let (source, _) = SourceSession::establish(
            GraphParams::new(3, 2).with_dest_placement(DestPlacement::LastStage),
            &pseudo,
            &candidates,
            dest,
            500 + opened,
        )
        .unwrap();
        match manager.open_source(net.now, source) {
            Ok(_) => opened += 1,
            Err(SessionError::TooManySessions { limit }) => {
                assert_eq!(limit, 8);
                break;
            }
            Err(e) => panic!("unexpected {e:?}"),
        }
        assert!(opened <= 9, "quota never enforced");
    }

    // Unknown session id.
    assert_eq!(
        manager.send(net.now, SessionId(999), b"x").unwrap_err(),
        SessionError::UnknownSession
    );
}

/// Colocated lost-ack recovery: when a destination's ack is lost, the
/// source retransmits chunks the relay's replay guard suppresses —
/// `RelayOutput::replayed` must surface those so the colocated
/// `DestSession` re-announces its delivery state and the window drains.
#[test]
fn colocated_replay_surfaces_and_reacks() {
    use slicing_core::{DestSession, ShardedRelay, SendInstr, Tick};

    // A stage-1 destination so the source's packets hit the receiver
    // relay directly (no intermediate hops to drive).
    let params = GraphParams::new(1, 2).with_dest_placement(DestPlacement::LastStage);
    let pseudo = addrs(10_000, 2);
    let candidates = addrs(20_000, 8);
    let (mut source, setup) =
        SourceSession::establish(params, &pseudo, &candidates, OverlayAddr(1), 5).unwrap();
    source.set_session_config(session_config());
    let g = source.graph();
    let dest_addr = g.stages[g.dest.stage][g.dest.index];
    let dest_flow = g.flow_ids[g.dest.stage][g.dest.index];
    let mut relay = ShardedRelay::with_config(dest_addr, 5, relay_config(), 1);

    let feed = |relay: &mut ShardedRelay, now: Tick, sends: &[SendInstr]| {
        let mut received = Vec::new();
        let mut replayed = Vec::new();
        for instr in sends.iter().filter(|s| s.to == dest_addr) {
            let out = relay.handle_packet(now, instr.from, &instr.packet);
            received.extend(out.received);
            replayed.extend(out.replayed);
        }
        (received, replayed)
    };

    feed(&mut relay, Tick(0), &setup);
    let dest_info = relay.flow_info(dest_flow).expect("setup decoded").clone();
    let mut dest = DestSession::new(dest_addr, dest_flow, dest_info, session_config(), 5);
    let (_, sends) = source.send(Tick(0), b"needs an ack").unwrap();
    let (received, replayed) = feed(&mut relay, Tick(10), &sends);
    assert_eq!(received.len(), 1, "chunk must deliver");
    assert!(replayed.is_empty());
    // The delivery produces the ack… which we "lose".
    let dout = dest.handle_delivery(Tick(10), received[0].seq, received[0].plaintext.clone());
    assert!(!dout.sends.is_empty(), "first delivery acks immediately");
    assert_eq!(source.stream_in_flight(), 1, "ack was lost, window still open");

    // Past the retransmit deadline *and* the relay's gather quarantine
    // (2 × data_flush_ms), the source retries; the relay suppresses the
    // duplicate delivery but must report the replay.
    relay.poll(Tick(900)); // reap the gather tombstone
    let retries = source.pump(Tick(1_100));
    assert!(!retries.is_empty(), "retransmit must fire");
    let (received, replayed) = feed(&mut relay, Tick(1_200), &retries);
    assert!(received.is_empty(), "replay guard keeps delivery at-most-once");
    assert!(!replayed.is_empty(), "suppressed replay must be surfaced");

    // The colocated session re-announces; the re-ack drains the window.
    let (flow, seq) = replayed[0];
    assert_eq!(flow, dest_flow);
    let dout = dest.handle_replay(Tick(1_200), seq);
    assert!(!dout.sends.is_empty(), "replay must trigger a re-ack");
    for instr in &dout.sends {
        let pseudo_addr = instr.to;
        if let Ok(p) = slicing_core::Packet::from_bytes(instr.packet.encode()) {
            source.handle_packet(Tick(1_300), pseudo_addr, instr.from, &p);
        }
    }
    let _ = source.pump(Tick(1_300));
    assert!(source.stream_idle(), "re-ack must drain the window");
    assert_eq!(source.pop_acked_msgs(), vec![0]);
}

#[test]
fn replies_reach_the_source() {
    let relays = addrs(20_000, 20);
    let pseudo = addrs(10_000, 2);
    let dest = OverlayAddr(1);
    let mut net = SessionNet::new(&relays, 17, relay_config(), session_config(), 2);
    let mut manager = SessionManager::new(2, 16, session_config());
    let (src, dst, setup) = open_session(&mut manager, &mut net, &pseudo, dest, 3, 2, 2, 17);
    net.submit(setup);
    net.run(&mut manager, 4, 200);

    // Forward traffic first, so the reverse path's relays are warm.
    let (_, sends) = manager.send(net.now, src, b"ping").unwrap();
    net.submit(sends);
    net.run(&mut manager, 15, 150);
    assert_eq!(net.delivered.len(), 1);

    let now = net.now;
    let (reply_id, sends) = net
        .dest_session(dst)
        .unwrap()
        .reply(now, b"pong from the hidden side")
        .unwrap();
    net.submit(sends);
    net.run(&mut manager, 15, 150);

    assert!(
        net.replies
            .contains(&(src, reply_id, b"pong from the hidden side".to_vec())),
        "reply must surface at the source (got {:?})",
        net.replies
    );
}

/// Every destination session of a node shares the node's seed; each must
/// still draw its own nonce and coding-coefficient stream. The
/// coefficients travel in clear at the head of every ack slice, so two
/// flows answering with identical coefficients would let their first-hop
/// reverse relays link them to one destination.
#[test]
fn sessions_of_one_node_draw_distinct_coding_streams() {
    use slicing_core::{DestHost, ShardedRelay, Tick};

    let params = GraphParams::new(1, 2).with_dest_placement(DestPlacement::LastStage);
    let candidates = addrs(20_000, 8);
    let dest_addr = OverlayAddr(1);
    let mut relay = ShardedRelay::with_config(dest_addr, 5, relay_config(), 1);
    let mut host = DestHost::new(dest_addr, session_config(), 5, relay.shared_stats());

    // Two flows terminating at the same node; each sends one chunk and
    // gets its first ack back: one slice per parent, `coeffs ‖ payload`.
    let mut first_ack_coeffs = |pseudo_base: u64, seed: u64| -> Vec<Vec<u8>> {
        let pseudo = addrs(pseudo_base, 2);
        let (mut source, setup) =
            SourceSession::establish(params, &pseudo, &candidates, dest_addr, seed).unwrap();
        let (_, sends) = source.send(Tick(0), b"same plaintext on both flows").unwrap();
        let mut acks = Vec::new();
        for instr in setup.iter().chain(&sends).filter(|s| s.to == dest_addr) {
            let mut out = relay.handle_packet(Tick(10), instr.from, &instr.packet);
            let report = host.drive(Tick(10), &mut out, |f| relay.flow_info(f), false);
            assert!(report.refused.is_empty());
            acks.extend(out.sends);
        }
        assert_eq!(acks.len(), 2, "the first delivery acks at once, one slice per parent");
        acks.iter().map(|a| a.packet.slot(0)[..2].to_vec()).collect()
    };
    let a = first_ack_coeffs(10_000, 5);
    let b = first_ack_coeffs(11_000, 6);
    assert_eq!(host.session_count(), 2);
    assert_ne!(a, b, "two flows of one node answered with the same coefficients");
}

/// A chunk the destination session refuses over its reassembly quota is
/// a drop of the relay that decoded it — and only a deferral: the source
/// retries it, and once the quota drained it is decoded and delivered
/// again instead of being swallowed as a replay.
#[test]
fn reassembly_quota_drop_is_counted_and_redelivered() {
    let relays = addrs(20_000, 16);
    let pseudo = addrs(10_000, 2);
    let dest = OverlayAddr(1);
    let params = GraphParams::new(3, 2)
        .with_paths(2)
        .with_dest_placement(DestPlacement::LastStage);
    let (source, setup) = SourceSession::establish(params, &pseudo, &relays, dest, 23).unwrap();
    let chunk = source.stream_chunk_len();
    // Room for one full chunk and a little more.
    let tight = SessionConfig {
        reassembly_bytes: chunk + 100,
        ..session_config()
    };
    let mut net = SessionNet::new(&relays, 23, relay_config(), tight, 1);
    net.add_node(dest);
    let mut manager = SessionManager::new(1, 8, session_config());
    let src = manager.open_source(net.now, source).unwrap();
    net.submit(setup);
    net.run(&mut manager, 4, 200);

    // Message 0 spans two chunks; its second chunk is lost, so its first
    // sits in reassembly when message 1 arrives and no longer fits.
    let first = vec![0xA5u8; chunk + 10];
    let second = vec![0x5Au8; 200];
    let (_, sends) = manager.send(net.now, src, &first).unwrap();
    let lost_seq = sends.iter().map(|s| s.packet.header.seq).max().unwrap();
    net.submit(sends.into_iter().filter(|s| s.packet.header.seq != lost_seq).collect());
    net.run(&mut manager, 1, 100);
    let drops_before = net.relay(dest).stats().drops;
    let (_, sends) = manager.send(net.now, src, &second).unwrap();
    net.submit(sends);
    net.run(&mut manager, 1, 100);
    assert_eq!(net.relay(dest).stats().drops, drops_before + 1, "the refused chunk is a relay drop");
    assert!(net.delivered.is_empty());

    // The retransmit timer resends both unacked chunks: message 0
    // completes and drains the quota, the refused chunk is admitted on
    // its retry.
    net.run(&mut manager, 30, 100);
    let got: Vec<&[u8]> = net.delivered.iter().map(|(_, _, bytes)| bytes.as_slice()).collect();
    assert!(got == [first.as_slice(), second.as_slice()], "{} delivered", got.len());
    assert_eq!(net.relay(dest).stats().drops, drops_before + 1);
    assert!(manager.streams_idle(), "every chunk acknowledged");
    assert_eq!(net.relay(dest).stats().drops, drops_before + 1);
}

/// Later messages that complete first are held for in-order release and
/// fill the reassembly quota; the head message they all wait for must
/// still be admitted, or every retransmission of it is refused and the
/// stream wedges.
#[test]
fn head_message_is_admitted_over_a_quota_held_by_successors() {
    let relays = addrs(20_000, 16);
    let pseudo = addrs(10_000, 2);
    let dest = OverlayAddr(1);
    let params = GraphParams::new(3, 2)
        .with_paths(2)
        .with_dest_placement(DestPlacement::LastStage);
    let (source, setup) = SourceSession::establish(params, &pseudo, &relays, dest, 29).unwrap();
    let chunk = source.stream_chunk_len();
    let g = source.graph();
    let dest_flow = g.flow_ids[g.dest.stage][g.dest.index];
    // Room for the two one-chunk successors, not for the head beside them.
    let tight = SessionConfig {
        reassembly_bytes: 2 * chunk + 100,
        ..session_config()
    };
    let mut net = SessionNet::new(&relays, 29, relay_config(), tight, 1);
    net.add_node(dest);
    let mut manager = SessionManager::new(1, 8, session_config());
    let src = manager.open_source(net.now, source).unwrap();
    net.submit(setup);
    net.run(&mut manager, 4, 200);

    // Message 0 is held back in the network while messages 1 and 2
    // arrive, complete and wait for it.
    let head = vec![0x11u8; 200];
    let (_, held) = manager.send(net.now, src, &head).unwrap();
    let later: Vec<Vec<u8>> = vec![vec![0x22u8; chunk], vec![0x33u8; chunk]];
    for msg in &later {
        let (_, sends) = manager.send(net.now, src, msg).unwrap();
        net.submit(sends);
    }
    net.run(&mut manager, 3, 100);
    assert!(net.delivered.is_empty(), "successors wait for the head");
    let resident = net.dest_session(dest_flow).unwrap().resident();
    assert_eq!(resident.ready_msgs, 2);
    assert!(
        resident.reassembly_bytes + 200 > 2 * chunk + 100,
        "quota is full"
    );

    net.submit(held);
    net.run(&mut manager, 30, 100);
    let got: Vec<&[u8]> = net
        .delivered
        .iter()
        .map(|(_, _, bytes)| bytes.as_slice())
        .collect();
    assert!(
        got == [head.as_slice(), later[0].as_slice(), later[1].as_slice()],
        "{} of 3 delivered",
        got.len()
    );
    assert!(manager.streams_idle(), "every chunk acknowledged");
}

/// A data frame as the source's stream layer builds it:
/// `0xD1 ‖ msg_id ‖ chunk_idx ‖ chunk_count ‖ chunk` (little-endian).
fn data_frame(msg_id: u32, idx: u16, count: u16, chunk: &[u8]) -> Vec<u8> {
    let mut f = vec![0xD1];
    f.extend_from_slice(&msg_id.to_le_bytes());
    f.extend_from_slice(&idx.to_le_bytes());
    f.extend_from_slice(&count.to_le_bytes());
    f.extend_from_slice(chunk);
    f
}

/// The per-chunk table a message header makes the destination allocate
/// is sized by the source-chosen chunk count, so it is charged to the
/// reassembly quota: a 65 535-part header the quota cannot hold is
/// refused, however few chunk bytes it carries. Only the next message
/// due is admitted past the quota. (The charge is released when a
/// message completes: `stream_round_trip_32_chunks` ends at zero.)
#[test]
fn oversized_part_tables_are_charged_to_the_quota() {
    use slicing_core::{DestSession, ShardedRelay, Tick};

    let params = GraphParams::new(1, 2).with_dest_placement(DestPlacement::LastStage);
    let pseudo = addrs(10_000, 2);
    let candidates = addrs(20_000, 8);
    let (source, setup) =
        SourceSession::establish(params, &pseudo, &candidates, OverlayAddr(1), 31).unwrap();
    let g = source.graph();
    let dest_addr = g.stages[g.dest.stage][g.dest.index];
    let dest_flow = g.flow_ids[g.dest.stage][g.dest.index];
    let mut relay = ShardedRelay::with_config(dest_addr, 31, relay_config(), 1);
    for instr in setup.iter().filter(|s| s.to == dest_addr) {
        relay.handle_packet(Tick(0), instr.from, &instr.packet);
    }
    let info = relay.flow_info(dest_flow).expect("setup decoded").clone();
    let config = SessionConfig {
        reassembly_bytes: 1024 * 1024,
        ..session_config()
    };
    let mut dest = DestSession::new(dest_addr, dest_flow, info, config, 31);
    let slot = std::mem::size_of::<Option<Vec<u8>>>();
    assert!(65_535 * slot > config.reassembly_bytes);

    // Headers for messages behind the head, one byte of chunk each.
    for msg_id in 1..=8u32 {
        let out = dest.handle_delivery(Tick(1), msg_id, data_frame(msg_id, 0, 65_535, b"x"));
        assert_eq!(out.dropped, 1, "header of message {msg_id} admitted");
    }
    assert_eq!(dest.resident().partial_msgs, 0);
    assert_eq!(dest.resident().reassembly_bytes, 0);

    // A header that fits is admitted and charged for its table.
    let out = dest.handle_delivery(Tick(2), 9, data_frame(9, 0, 2, b"abc"));
    assert_eq!(out.dropped, 0);
    assert_eq!(dest.resident().reassembly_bytes, 3 + 2 * slot);

    // The head message is admitted whatever its count: every held
    // successor waits for it, and the overshoot is bounded by it.
    let out = dest.handle_delivery(Tick(3), 10, data_frame(0, 0, 65_535, b"head"));
    assert_eq!(out.dropped, 0);
    assert_eq!(dest.resident().partial_msgs, 2);
    assert_eq!(
        dest.resident().reassembly_bytes,
        3 + 2 * slot + 4 + 65_535 * slot
    );
}
