//! Churn-resilient live sessions, deterministically: failure detection
//! (keepalive/liveness timeouts), FlowFailed propagation to the source,
//! and source-side repair splicing new routes into a live flow — the
//! sans-IO versions of the paper's §8.2 claims, driven through
//! [`TestNet`].

use std::collections::HashSet;

use slicing_core::testnet::TestNet;
use slicing_core::{
    DataMode, DestPlacement, GraphParams, OverlayAddr, RelayConfig, ShardedRelay, SourceConfig,
    SourceSession, Tick,
};

/// Short timeouts so sessions detect and repair within a few simulated
/// seconds.
fn churn_config() -> RelayConfig {
    RelayConfig {
        setup_flush_ms: 400,
        data_flush_ms: 300,
        keepalive_ms: 400,
        liveness_timeout_ms: 1_500,
        ..RelayConfig::default()
    }
}

fn addrs(base: u64, n: usize) -> Vec<OverlayAddr> {
    (0..n as u64).map(|i| OverlayAddr(base + i)).collect()
}

struct Session {
    net: TestNet,
    source: SourceSession,
    dest: OverlayAddr,
    /// Candidates not placed in the graph: the repair spare pool.
    spares: Vec<OverlayAddr>,
}

/// Establish a session over a TestNet with churn-tuned timeouts.
fn establish(l: usize, d: usize, dp: usize, mode: DataMode, seed: u64, shards: usize) -> Session {
    let pseudo = addrs(10_000, dp);
    let candidates = addrs(20_000, l * dp + 6);
    let dest = OverlayAddr(1);
    let mut all_nodes = candidates.clone();
    all_nodes.push(dest);
    let params = GraphParams::new(l, d)
        .with_paths(dp)
        .with_data_mode(mode)
        .with_dest_placement(DestPlacement::LastStage);
    let (mut source, setup) =
        SourceSession::establish(params, &pseudo, &candidates, dest, seed).unwrap();
    source.set_config(SourceConfig {
        keepalive_ms: 400,
        ..SourceConfig::default()
    });
    let mut net = TestNet::with_shards(&all_nodes, seed, churn_config(), shards);
    net.submit(setup);
    net.run_to_quiescence(Some(&mut source));
    let placed: HashSet<OverlayAddr> = source.graph().relay_addrs().collect();
    let spares = candidates
        .into_iter()
        .filter(|a| !placed.contains(a))
        .collect();
    Session {
        net,
        source,
        dest,
        spares,
    }
}

/// The acceptance scenario: kill a stage-2 relay mid-session with
/// `d′ = d` (no redundancy — the flow cannot survive without repair),
/// and assert the transfer completes after source-side repair without
/// re-establishing unaffected paths.
fn repair_completes_no_redundancy(shards: usize) {
    let (l, d, dp) = (5usize, 2usize, 2usize);
    let Session {
        mut net,
        mut source,
        dest,
        spares,
    } = establish(l, d, dp, DataMode::Map, 7, shards);

    // Two messages flow while everything is healthy.
    for m in 0..2 {
        let (_, sends) = source.send_message(format!("msg {m}").as_bytes()).expect("within chunk budget");
        net.submit(sends);
        net.run_to_quiescence(Some(&mut source));
    }
    assert_eq!(net.messages_for(dest).len(), 2);

    // Kill a stage-2 relay. With d′ = d every subsequent message is
    // undecodable until the source repairs the path.
    let victim = source.graph().stages[2][0];
    assert_ne!(victim, dest);
    net.fail(victim);
    for m in 2..4 {
        let (_, sends) = source.send_message(format!("msg {m}").as_bytes()).expect("within chunk budget");
        net.submit(sends);
    }
    // Let liveness timeouts fire and the FlowFailed report wash up the
    // reverse path to the pseudo-sources.
    net.settle(Some(&mut source), 400, 12);
    assert_eq!(
        net.messages_for(dest).len(),
        2,
        "with d' = d the killed relay must stall the transfer"
    );
    assert!(
        source.needs_repair(),
        "the sealed FLOW_FAILED report must reach and authenticate at the source"
    );
    assert_eq!(source.failed_nodes(), &HashSet::from([victim]));

    // Snapshot setup traffic, then repair.
    let setup_before = net.setup_delivered.clone();
    let unaffected: Vec<OverlayAddr> = source
        .graph()
        .relay_addrs()
        .filter(|&a| {
            a != victim
                && !source.graph().stages[1].contains(&a)
                && !source.graph().stages[3].contains(&a)
        })
        .collect();
    assert_eq!(unaffected.len(), (l - 3) * dp + 1, "sibling + stages 4, 5");
    let mut sends = source.repair(&spares).unwrap();
    assert!(!source.needs_repair());
    // The driver resends every message it sent, in seq order, in the
    // same batch as the re-setup packets.
    for m in 0..4u32 {
        sends.extend(
            source
                .retransmit(m, format!("msg {m}").as_bytes())
                .expect("within chunk budget"),
        );
    }
    net.submit(sends);
    net.settle(Some(&mut source), 400, 12);

    // The transfer completes: the stalled messages were retransmitted
    // over the repaired routes, and earlier seqs were not re-delivered.
    let got = net.messages_for(dest);
    assert_eq!(got.len(), 4, "all messages must complete after repair");
    for (m, (seq, plaintext)) in got.iter().enumerate() {
        assert_eq!(*seq as usize, m);
        assert_eq!(plaintext, format!("msg {m}").as_bytes());
    }

    // Only affected paths re-keyed: the replacement plus the dead
    // node's parents (stage 1) and children (stage 3) saw new setup
    // packets — d′ each — and nobody else saw any.
    let replacement = source.graph().stages[2][0];
    assert_ne!(replacement, victim);
    assert_eq!(
        net.setup_delivered.get(&replacement).copied().unwrap_or(0),
        dp as u64,
        "replacement establishes from d' repair packets"
    );
    for v in 0..dp {
        for stage in [1usize, 3] {
            let addr = source.graph().stages[stage][v];
            let before = setup_before.get(&addr).copied().unwrap_or(0);
            assert_eq!(
                net.setup_delivered.get(&addr).copied().unwrap_or(0),
                before + dp as u64,
                "neighbour at stage {stage} gets exactly d' update packets"
            );
        }
    }
    for addr in unaffected {
        assert_eq!(
            net.setup_delivered.get(&addr).copied().unwrap_or(0),
            setup_before.get(&addr).copied().unwrap_or(0),
            "unaffected relay {addr:?} must not be re-established"
        );
    }
}

#[test]
fn repair_completes_transfer_with_no_redundancy() {
    repair_completes_no_redundancy(1);
}

#[test]
fn repair_routes_through_sharded_relays() {
    // The same scenario with 8-way sharded relays: FlowFailed arrives on
    // reverse flow ids (routed to the owning shard via the reverse-id
    // map) and re-setup packets on forward ids — both must land on the
    // shard holding the flow.
    repair_completes_no_redundancy(8);
}

#[test]
fn redundant_flow_survives_stage2_kill_without_repair() {
    // Fig. 17's premise: with d′ > d and in-network recoding, a dead
    // relay costs redundancy, not the session — no repair needed.
    let (_l, _d, dp) = (5usize, 2usize, 3usize);
    let Session {
        mut net,
        mut source,
        dest,
        ..
    } = establish(5, 2, dp, DataMode::Recode, 11, 1);

    let victim = source.graph().stages[2][1];
    assert_ne!(victim, dest);
    net.fail(victim);

    for m in 0..4 {
        let (_, sends) = source.send_message(format!("chunk {m}").as_bytes()).expect("within chunk budget");
        net.submit(sends);
        net.settle(Some(&mut source), 400, 6);
    }
    let got = net.messages_for(dest);
    assert_eq!(got.len(), 4, "d' > d must ride out the failure unrepaired");
    // Detection still reported the death upstream (the source may
    // repair at its leisure); we simply never acted on it.
    assert!(source.needs_repair());
    assert_eq!(source.failed_nodes(), &HashSet::from([victim]));
}

/// Drive a single stage-1 relay directly: establish one flow on it and
/// return the source plus the per-parent data sends for traffic.
fn single_relay(seed: u64, config: RelayConfig) -> (ShardedRelay, SourceSession) {
    let params = GraphParams::new(3, 2)
        .with_paths(2)
        .with_data_mode(DataMode::Recode)
        .with_dest_placement(DestPlacement::LastStage);
    let pseudo = addrs(10_000, 2);
    let candidates = addrs(20_000, 16);
    let (source, setup) =
        SourceSession::establish(params, &pseudo, &candidates, OverlayAddr(1), seed).unwrap();
    let target = source.graph().stages[1][0];
    let mut relay = ShardedRelay::with_config(target, 9, config, 1);
    for instr in setup {
        if instr.to == target {
            relay.handle_packet(Tick(0), instr.from, &instr.packet);
        }
    }
    assert_eq!(relay.stats().flows_established, 1);
    (relay, source)
}

/// Regression test for the lazy-validation requirement on liveness
/// deadlines: like flow GC, a keepalive/teardown deadline must
/// re-validate against the flow's *current* `last_heard` when it fires.
/// A parent that was declared dead and then revived (repair, or a slow
/// link recovering) leaves stale wheel entries behind — they must
/// re-arm, never fire a second spurious teardown.
#[test]
fn stale_liveness_entry_cannot_fire_spurious_teardown() {
    let config = RelayConfig {
        liveness_timeout_ms: 1_000,
        keepalive_ms: 0, // isolate the detection plane
        ..RelayConfig::default()
    };
    let (mut relay, mut source) = single_relay(21, config);
    let target = relay.addr();
    let send_from = |relay: &mut ShardedRelay, source: &mut SourceSession, now: Tick, who: usize| {
        let parent = source.graph().stages[0][who];
        let (_, sends) = source.send_message(b"tick").expect("within chunk budget");
        for instr in sends.into_iter().filter(|s| s.to == target && s.from == parent) {
            relay.handle_packet(now, instr.from, &instr.packet);
        }
    };

    // Both parents speak at t=500; the t=1000 check re-arms quietly.
    send_from(&mut relay, &mut source, Tick(500), 0);
    send_from(&mut relay, &mut source, Tick(500), 1);
    let out = relay.poll(Tick(1_000));
    assert_eq!(relay.stats().parents_lost, 0);
    assert!(out.sends.iter().all(|s| {
        s.packet.header.kind != slicing_core::PacketKind::Control
    }));

    // Parent 1 goes silent; parent 0 keeps talking. The re-armed check
    // fires at t=1500 and declares parent 1 dead, reporting upstream.
    send_from(&mut relay, &mut source, Tick(1_499), 0);
    let out = relay.poll(Tick(1_500));
    assert_eq!(relay.stats().parents_lost, 1);
    let reports = out
        .sends
        .iter()
        .filter(|s| s.packet.header.kind == slicing_core::PacketKind::Control)
        .count();
    assert_eq!(reports, 1, "one FLOW_FAILED to the one live parent");

    // Parent 1 revives (as a repair splice would); both keep talking.
    // Every stale wheel entry that fires between now and t=2599 must
    // re-validate against the refreshed last_heard and re-arm — not
    // re-report the revived parent.
    send_from(&mut relay, &mut source, Tick(1_600), 1);
    send_from(&mut relay, &mut source, Tick(1_700), 0);
    for now in [1_900u64, 2_200, 2_499, 2_599] {
        let out = relay.poll(Tick(now));
        assert_eq!(
            relay.stats().parents_lost,
            1,
            "stale liveness entry fired a spurious teardown at t={now}"
        );
        assert!(
            out.sends
                .iter()
                .all(|s| s.packet.header.kind != slicing_core::PacketKind::Control),
            "spurious FLOW_FAILED at t={now}"
        );
    }
}

#[test]
fn forged_keepalive_cannot_suppress_detection() {
    // Keepalives authenticate flow membership with the sender's reverse
    // flow id: an attacker who knows a forward flow id and a parent's
    // address (both cleartext on other links) still cannot refresh that
    // parent's liveness and suppress failure detection.
    let config = RelayConfig {
        liveness_timeout_ms: 1_000,
        keepalive_ms: 0,
        ..RelayConfig::default()
    };
    let (mut relay, source) = single_relay(27, config);
    let flow = source.graph().flow_ids[1][0];
    let parent0 = source.graph().stages[0][0];
    let parent1 = source.graph().stages[0][1];

    // Forged keepalive for parent 0 (right address, wrong token) vs a
    // genuine one for parent 1 (its reverse flow id, as the source and
    // relays emit).
    let forged = slicing_wire::control::keepalive(flow, slicing_wire::FlowId(0xBAD));
    let genuine =
        slicing_wire::control::keepalive(flow, source.graph().reverse_flow_ids[0][1]);
    let drops_before = relay.stats().drops;
    relay.handle_packet(Tick(900), parent0, &forged);
    relay.handle_packet(Tick(900), parent1, &genuine);
    assert_eq!(relay.stats().drops, drops_before + 1, "forgery must drop");

    // At the liveness deadline parent 0 (silent since establishment)
    // dies; parent 1 was genuinely refreshed.
    relay.poll(Tick(1_000));
    assert_eq!(
        relay.stats().parents_lost,
        1,
        "forged keepalive must not keep parent 0 alive; genuine one keeps parent 1"
    );
}

#[test]
fn relays_emit_keepalives_to_children() {
    let config = RelayConfig {
        keepalive_ms: 700,
        liveness_timeout_ms: 0,
        ..RelayConfig::default()
    };
    let (mut relay, source) = single_relay(23, config);
    let children: HashSet<OverlayAddr> = source.graph().stages[2].iter().copied().collect();
    let out = relay.poll(Tick(699));
    assert!(out.sends.is_empty(), "not before the interval");
    let out = relay.poll(Tick(700));
    let targets: HashSet<OverlayAddr> = out
        .sends
        .iter()
        .filter(|s| s.packet.header.kind == slicing_core::PacketKind::Control)
        .map(|s| s.to)
        .collect();
    assert_eq!(targets, children, "one keepalive per child");
    // And the heartbeat re-arms.
    let out = relay.poll(Tick(1_400));
    assert!(!out.sends.is_empty(), "keepalive must re-arm");
}

#[test]
fn detection_shrinks_gather_horizon() {
    // Once a parent is declared dead the completeness count drops, so
    // messages stop paying the flush timeout for a neighbour that will
    // never deliver: data from the live parents alone flushes a relay
    // immediately.
    let Session {
        mut net,
        mut source,
        dest,
        ..
    } = establish(4, 2, 3, DataMode::Recode, 13, 1);

    let victim = source.graph().stages[1][0];
    net.fail(victim);
    net.settle(Some(&mut source), 400, 8); // liveness fires at stage 2

    let stage2 = &source.graph().stages[2];
    let lost: u64 = stage2
        .iter()
        .map(|a| net.relays[a].stats().parents_lost)
        .sum();
    assert!(
        lost >= stage2.len() as u64,
        "every stage-2 relay must have declared the dead parent ({lost})"
    );

    // A fresh message now completes without any timeout-driven settle:
    // run_to_quiescence alone (no advance) must deliver it.
    let before = net.messages_for(dest).len();
    let (_, sends) = source.send_message(b"no timeout wait").expect("within chunk budget");
    net.submit(sends);
    net.run_to_quiescence(Some(&mut source));
    assert_eq!(
        net.messages_for(dest).len(),
        before + 1,
        "live parents alone must satisfy the shrunken gather horizon"
    );
}
