//! Wire fingerprints of seeded sessions: every setup, data and control
//! packet a [`TestNet`] run moves, folded into one FNV-1a digest
//! ([`TestNet::wire_digest`]). The pinned values were recorded before
//! the source stopped keeping its setup blueprint and its plaintext
//! retransmission log, and before the relays moved their data gathers
//! into seq-indexed stores; a change to how state is held must leave
//! every byte on the wire and every seeded RNG draw as it was, and
//! these digests say so at a glance.
//!
//! Each run covers establishment, forward data on completion and on
//! timeout, reverse replies, keepalives, a relay kill with its sealed
//! `FLOW_FAILED` report, the source's repair (rebuild, targeted
//! re-setup) with the driver resending every message it sent, and
//! traffic over the repaired graph.

use std::collections::HashSet;

use slicing_core::session::{DestSession, SessionConfig};
use slicing_core::testnet::TestNet;
use slicing_core::{
    DataMode, DestPlacement, GraphParams, OverlayAddr, RelayConfig, SourceConfig, SourceSession,
};

fn addrs(base: u64, n: usize) -> Vec<OverlayAddr> {
    (0..n as u64).map(|i| OverlayAddr(base + i)).collect()
}

/// Run the scripted session and return the network's digest.
fn digest(l: usize, d: usize, dp: usize, mode: DataMode, seed: u64) -> u64 {
    let pseudo = addrs(10_000, dp);
    let candidates = addrs(20_000, l * dp + 6);
    let dest = OverlayAddr(1);
    let mut nodes = candidates.clone();
    nodes.push(dest);
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
    let config = RelayConfig {
        setup_flush_ms: 400,
        data_flush_ms: 300,
        keepalive_ms: 400,
        liveness_timeout_ms: 1_500,
        ..RelayConfig::default()
    };
    let mut net = TestNet::with_config(&nodes, seed, config);
    net.submit(setup);
    net.run_to_quiescence(Some(&mut source));

    // Every plaintext sent before the repair, in seq order: the driver
    // resends them over the repaired graph.
    let mut sent: Vec<Vec<u8>> = Vec::new();
    // Healthy traffic of a few sizes.
    for m in 0..6usize {
        let msg = vec![m as u8; 1 + 97 * m];
        let (_, sends) = source.send_message(&msg).unwrap();
        sent.push(msg);
        net.submit(sends);
        net.run_to_quiescence(Some(&mut source));
    }
    // One message whose first stage-1 relay hears only some parents:
    // its gathers flush on the deadline.
    let (_, sends) = source.send_message(b"partial").unwrap();
    sent.push(b"partial".to_vec());
    let first = source.graph().stages[1][0];
    let from0 = source.graph().stages[0][0];
    net.submit(
        sends
            .into_iter()
            .filter(|s| s.to != first || s.from == from0)
            .collect(),
    );
    net.run_to_quiescence(Some(&mut source));
    net.settle(Some(&mut source), 100, 8);

    // Reverse replies from the destination.
    let at = source.graph().dest;
    let dest_flow = source.graph().flow_ids[at.stage][at.index];
    let info = net.relays[&dest].flow_info(dest_flow).unwrap().clone();
    let mut replies = DestSession::new(dest, dest_flow, info, SessionConfig::default(), seed);
    for r in 0..3u8 {
        let (_, sends) = replies.reply(net.now, &[r; 40]).unwrap();
        net.submit(sends);
        net.run_to_quiescence(Some(&mut source));
    }
    net.settle(Some(&mut source), 100, 8);
    assert_eq!(
        source.pop_replies().len(),
        3,
        "every reply decodes at the source"
    );

    // Kill a stage-2 relay, let the report reach the source, repair.
    let victim = source.graph().stages[2][0];
    net.fail(victim);
    let (_, sends) = source.send_message(b"in flight at the kill").unwrap();
    sent.push(b"in flight at the kill".to_vec());
    net.submit(sends);
    net.settle(Some(&mut source), 400, 12);
    assert_eq!(source.failed_nodes(), &HashSet::from([victim]));
    let placed: HashSet<OverlayAddr> = source.graph().relay_addrs().collect();
    let spares: Vec<OverlayAddr> = candidates
        .into_iter()
        .filter(|a| !placed.contains(a) && *a != victim)
        .collect();
    let mut sends = source.repair(&spares).unwrap();
    for (seq, msg) in sent.iter().enumerate() {
        sends.extend(source.retransmit(seq as u32, msg).unwrap());
    }
    net.submit(sends);
    net.run_to_quiescence(Some(&mut source));
    for m in 0..3usize {
        let (_, sends) = source.send_message(&[0xA0 | m as u8; 77]).unwrap();
        net.submit(sends);
        net.run_to_quiescence(Some(&mut source));
    }
    net.settle(Some(&mut source), 100, 30);
    let delivered = net.messages_for(dest).len();
    assert!(delivered >= 10, "only {delivered} messages delivered");
    net.wire_digest
}

#[test]
fn map_3_2_2_wire_digest_is_pinned() {
    assert_eq!(
        digest(3, 2, 2, DataMode::Map, 11),
        7_822_150_331_584_797_589
    );
}

#[test]
fn recode_5_3_4_wire_digest_is_pinned() {
    assert_eq!(
        digest(5, 3, 4, DataMode::Recode, 12),
        6_898_548_947_710_361_882
    );
}
