//! Flow-table resource-guard tests: eviction at `max_flows`, Dead-flow
//! quarantine, and the timer-wheel idle GC firing *exactly* at
//! `flow_ttl` — including deadlines that land mid-bucket and activity
//! that re-arms an expiry.

use slicing_core::{
    DataMode, DestPlacement, GraphParams, OverlayAddr, Packet, PacketKind, RelayConfig, ShardedRelay,
    SendInstr, SourceSession, Tick,
};
use slicing_wire::{FlowId, PacketHeader};

/// A syntactically valid setup packet whose slots are noise (decode can
/// never succeed — the flow will go Dead on the setup-flush timeout).
fn garbage_setup(flow: u64, fill: u8) -> Packet {
    Packet::new(
        PacketHeader {
            kind: PacketKind::Setup,
            flow_id: FlowId(flow),
            seq: 0,
            d: 2,
            slot_count: 2,
            slot_len: 20,
        },
        vec![vec![fill; 20], vec![fill.wrapping_add(1); 20]],
    )
}

/// Establish one real flow on `relay` (at `now`) using the graph
/// machinery, mirroring the paper's stage-1 relay: returns the flow's
/// data-packet template (one send per parent) for later traffic.
fn establish_flow(relay: &mut ShardedRelay, now: Tick, seed: u64) -> (SourceSession, Vec<SendInstr>) {
    let params = GraphParams::new(3, 2)
        .with_paths(2)
        .with_data_mode(DataMode::Recode)
        .with_dest_placement(DestPlacement::LastStage);
    let pseudo: Vec<OverlayAddr> = (0..2u64).map(|i| OverlayAddr(10_000 + i)).collect();
    let candidates: Vec<OverlayAddr> = (0..16u64).map(|i| OverlayAddr(20_000 + i)).collect();
    let (mut source, setup) =
        SourceSession::establish(params, &pseudo, &candidates, OverlayAddr(1), seed)
            .expect("valid params");
    let established_before = relay.stats().flows_established;
    let target = source.graph().stages[1][0];
    for instr in setup {
        if instr.to == target {
            relay.handle_packet(now, instr.from, &instr.packet);
        }
    }
    assert_eq!(
        relay.stats().flows_established,
        established_before + 1,
        "flow must establish"
    );
    let (_, sends) = source.send_message(b"traffic").expect("within chunk budget");
    let template = sends.into_iter().filter(|s| s.to == target).collect();
    (source, template)
}

#[test]
fn eviction_at_max_flows_and_readmission() {
    let config = RelayConfig {
        max_flows: 3,
        flow_ttl_ms: 1_000,
        ..RelayConfig::default()
    };
    let mut relay = ShardedRelay::with_config(OverlayAddr(1), 7, config, 1);
    // Fill the table.
    for f in 0..3u64 {
        relay.handle_packet(Tick(0), OverlayAddr(100 + f), &garbage_setup(f, f as u8));
    }
    assert_eq!(relay.flow_count(), 3);
    // Over capacity: dropped, not admitted, nothing evicted early.
    relay.handle_packet(Tick(10), OverlayAddr(200), &garbage_setup(99, 9));
    assert_eq!(relay.flow_count(), 3);
    assert_eq!(relay.stats().drops, 1);
    assert_eq!(relay.stats().flows_evicted, 0);
    // The TTL wheel entry evicts all three; capacity frees up.
    relay.poll(Tick(5_000));
    assert_eq!(relay.flow_count(), 0);
    assert_eq!(relay.stats().flows_evicted, 3);
    relay.handle_packet(Tick(5_001), OverlayAddr(201), &garbage_setup(42, 5));
    assert_eq!(relay.flow_count(), 1, "capacity must be reusable after GC");
}

#[test]
fn dead_flow_quarantine_swallows_traffic_until_ttl() {
    let config = RelayConfig {
        setup_flush_ms: 500,
        flow_ttl_ms: 2_000,
        ..RelayConfig::default()
    };
    let mut relay = ShardedRelay::with_config(OverlayAddr(1), 7, config, 1);
    // Two garbage parents → decode attempt fails on the forced flush.
    relay.handle_packet(Tick(0), OverlayAddr(10), &garbage_setup(5, 1));
    relay.handle_packet(Tick(0), OverlayAddr(11), &garbage_setup(5, 3));
    relay.poll(Tick(500));
    assert_eq!(relay.stats().setup_failures, 1);
    assert_eq!(relay.flow_count(), 1, "Dead flow still occupies its slot");

    // Quarantine: data for the dead flow is swallowed (no sends, counted
    // as drops), and does not resurrect the flow.
    let drops_before = relay.stats().drops;
    let data = Packet::new(
        PacketHeader {
            kind: PacketKind::Data,
            flow_id: FlowId(5),
            seq: 1,
            d: 2,
            slot_count: 1,
            slot_len: 20,
        },
        vec![vec![7u8; 20]],
    );
    let out = relay.handle_packet(Tick(600), OverlayAddr(10), &data);
    assert!(out.sends.is_empty());
    assert_eq!(relay.stats().drops, drops_before + 1);
    assert_eq!(relay.flow_count(), 1);

    // Dead flows age from first_seen: evicted exactly at the TTL.
    relay.poll(Tick(1_999));
    assert_eq!(relay.flow_count(), 1, "one tick early must not evict");
    relay.poll(Tick(2_000));
    assert_eq!(relay.flow_count(), 0);
    assert_eq!(relay.stats().flows_evicted, 1);
}

#[test]
fn idle_gc_fires_exactly_at_flow_ttl_mid_bucket() {
    // A TTL that is not a multiple of the 50 ms wheel granularity: the
    // deadline lands mid-bucket, and the partial-bucket re-sweep must
    // fire it on the first poll with now >= deadline — never early.
    let config = RelayConfig {
        flow_ttl_ms: 1_234,
        ..RelayConfig::default()
    };
    let mut relay = ShardedRelay::with_config(OverlayAddr(1), 7, config, 1);
    relay.handle_packet(Tick(0), OverlayAddr(10), &garbage_setup(8, 1));
    relay.poll(Tick(1_233));
    assert_eq!(relay.flow_count(), 1, "must not fire before the deadline");
    relay.poll(Tick(1_234));
    assert_eq!(relay.flow_count(), 0, "must fire exactly at flow_ttl");
}

#[test]
fn activity_rearms_flow_expiry() {
    let config = RelayConfig {
        flow_ttl_ms: 1_000,
        data_flush_ms: 100,
        ..RelayConfig::default()
    };
    let mut relay = ShardedRelay::with_config(OverlayAddr(42), 7, config, 1);
    let (_source, template) = establish_flow(&mut relay, Tick(0), 77);
    assert_eq!(relay.flow_count(), 1);

    // Traffic at t=600 refreshes last_activity.
    for instr in &template {
        relay.handle_packet(Tick(600), instr.from, &instr.packet);
    }
    // The original expiry (armed at admission for t=1000) fires, sees the
    // refreshed activity, and re-arms instead of evicting.
    relay.poll(Tick(1_000));
    assert_eq!(relay.flow_count(), 1, "active flow must survive its first TTL");
    // One tick before the re-armed deadline: still alive.
    relay.poll(Tick(1_599));
    assert_eq!(relay.flow_count(), 1);
    // Exactly last_activity + ttl: evicted.
    relay.poll(Tick(1_600));
    assert_eq!(relay.flow_count(), 0);
    assert_eq!(relay.stats().flows_evicted, 1);
}

#[test]
fn wheel_flushes_partial_data_gather_on_deadline() {
    // One parent delivers, the other never does: the wheel's data-flush
    // deadline — not a table scan — must flush the partial gather.
    let config = RelayConfig {
        data_flush_ms: 777,
        ..RelayConfig::default()
    };
    let mut relay = ShardedRelay::with_config(OverlayAddr(42), 7, config, 1);
    let (_source, template) = establish_flow(&mut relay, Tick(0), 99);
    let first = &template[0];
    let out = relay.handle_packet(Tick(1_000), first.from, &first.packet);
    assert!(out.sends.is_empty(), "gather incomplete, nothing to send yet");
    let out = relay.poll(Tick(1_776));
    assert!(out.sends.is_empty(), "one tick before the flush deadline");
    let out = relay.poll(Tick(1_777));
    assert!(
        !out.sends.is_empty(),
        "flush deadline must forward the partial gather"
    );
}

#[test]
fn data_too_short_for_a_slice_is_counted_and_its_sender_heard() {
    let mut relay = ShardedRelay::new(OverlayAddr(42), 7, 1);
    let (_source, template) = establish_flow(&mut relay, Tick(0), 99);
    // d = 2 needs 2 + 4 bytes per slot; 5 passes the wire check only.
    let short = Packet::new(
        PacketHeader {
            slot_len: 5,
            ..template[0].packet.header
        },
        vec![vec![0u8; 5]],
    );
    let drops_before = relay.stats().drops;
    let out = relay.handle_packet(Tick(10), template[0].from, &short);
    assert!(out.sends.is_empty());
    assert_eq!(
        relay.stats().drops,
        drops_before + 1,
        "malformed geometry must be visible"
    );
    // Like a packet of pure padding it still counts toward the gather:
    // the other parent completes it without waiting for the flush timeout.
    let out = relay.handle_packet(Tick(10), template[1].from, &template[1].packet);
    assert!(!out.sends.is_empty(), "short-slot sender must count as heard");
    assert_eq!(relay.stats().drops, drops_before + 1);
}

#[test]
fn flushed_gathers_are_dropped_after_quarantine() {
    // Per-seq gather state must not accumulate for the lifetime of a
    // long-lived flow: after the flush deadline (plus one quarantine
    // window for timeout-flushed gathers) the wheel removes the entry.
    let config = RelayConfig {
        data_flush_ms: 100,
        flow_ttl_ms: 60_000,
        ..RelayConfig::default()
    };
    let mut relay = ShardedRelay::with_config(OverlayAddr(42), 7, config, 1);
    let (mut source, _) = establish_flow(&mut relay, Tick(0), 55);
    let target = source.graph().stages[1][0];
    // Stream 50 messages, polling as a daemon would.
    for m in 0..50u64 {
        let now = Tick(1_000 + m * 10);
        let (_, sends) = source.send_message(b"stream").expect("within chunk budget");
        for instr in sends.into_iter().filter(|s| s.to == target) {
            relay.handle_packet(now, instr.from, &instr.packet);
        }
        relay.poll(now);
    }
    // All gathers complete immediately (both parents deliver); after the
    // flush windows pass (and the flow's stale setup-flush entry fires
    // as a no-op), the wheel must have reaped every gather. What remains
    // is the flow's constant-size steady state: its expiry entry plus
    // the keepalive and liveness-check heartbeats.
    relay.poll(Tick(5_000));
    assert_eq!(relay.flow_count(), 1, "flow itself stays");
    assert_eq!(
        relay.pending_deadlines(),
        3,
        "only flow-expiry + keepalive + liveness may remain once all gathers are reaped"
    );
}

#[test]
fn replay_after_gather_reap_is_not_redelivered() {
    // Place the destination in stage 1 so our relay IS the receiver,
    // deliver a message, let the wheel reap the per-seq gather, then
    // replay the captured packets: the flow-level replay guard must
    // reject re-delivery even though the gather (and its `delivered`
    // flag) is gone.
    let config = RelayConfig {
        data_flush_ms: 1_000,
        ..RelayConfig::default()
    };
    let params = GraphParams::new(3, 2)
        .with_paths(2)
        .with_data_mode(DataMode::Map)
        .with_dest_placement(DestPlacement::Stage(1));
    let pseudo: Vec<OverlayAddr> = (0..2u64).map(|i| OverlayAddr(10_000 + i)).collect();
    let candidates: Vec<OverlayAddr> = (0..16u64).map(|i| OverlayAddr(20_000 + i)).collect();
    let (mut source, setup) =
        SourceSession::establish(params, &pseudo, &candidates, OverlayAddr(1), 31)
            .expect("valid params");
    let dest = source.graph().dest;
    assert_eq!(dest.stage, 1, "destination must sit in stage 1");
    let target = source.graph().stages[dest.stage][dest.index];
    let mut relay = ShardedRelay::with_config(target, 7, config, 1);
    let mut receiver = false;
    for instr in setup {
        if instr.to == target {
            let out = relay.handle_packet(Tick(0), instr.from, &instr.packet);
            receiver |= out.established.iter().any(|&(_, r)| r);
        }
    }
    assert!(receiver, "relay must establish as the flow's destination");

    let (_, sends) = source.send_message(b"once only").expect("within chunk budget");
    let to_dest: Vec<SendInstr> = sends.into_iter().filter(|s| s.to == target).collect();
    let mut delivered = 0;
    for instr in &to_dest {
        delivered += relay
            .handle_packet(Tick(1_000), instr.from, &instr.packet)
            .received
            .len();
    }
    assert_eq!(delivered, 1, "first delivery succeeds");

    // Let the wheel flush-fire and then reap the gather.
    relay.poll(Tick(2_000));
    relay.poll(Tick(3_100));

    // Replay the exact same packets.
    let mut redelivered = 0;
    for instr in &to_dest {
        redelivered += relay
            .handle_packet(Tick(3_500), instr.from, &instr.packet)
            .received
            .len();
    }
    assert_eq!(redelivered, 0, "replayed seq must not be re-delivered");
    assert_eq!(relay.stats().messages_received, 1);
}

#[test]
fn idle_poll_does_not_touch_live_flows() {
    // With many live flows and nothing expired, poll emits nothing and
    // consumes no wheel entries — the O(flows) scan is gone; cost is
    // O(buckets swept), independent of table size.
    let mut relay = ShardedRelay::new(OverlayAddr(1), 7, 1);
    for f in 0..100u64 {
        relay.handle_packet(Tick(0), OverlayAddr(100 + f), &garbage_setup(f, f as u8));
    }
    assert_eq!(relay.flow_count(), 100);
    let armed = relay.pending_deadlines();
    assert!(armed >= 200, "setup-flush + expiry per flow");
    for now in [Tick(1), Tick(100), Tick(1_999)] {
        let out = relay.poll(now);
        assert!(out.sends.is_empty() && out.received.is_empty());
    }
    assert_eq!(
        relay.pending_deadlines(),
        armed,
        "idle polls must not consume or re-create deadlines"
    );
    assert_eq!(relay.flow_count(), 100);
}
