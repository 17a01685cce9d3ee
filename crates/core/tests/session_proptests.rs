//! Property tests for the session layer's chunk → reassemble pipeline:
//! arbitrary payloads streamed through a real relay overlay into the
//! `DestSession` colocated with the destination's relay — the path a
//! running node takes — survive loss, reordering and duplication —
//! the reassembled output is byte-identical, delivered exactly once,
//! in order, and no per-message state outlives delivery.

mod common;

use common::SessionNet;
use proptest::prelude::*;
use slicing_core::{
    DestPlacement, GraphParams, OverlayAddr, RelayConfig, SessionConfig, SessionManager,
    SourceConfig, SourceSession,
};

fn addrs(base: u64, n: usize) -> Vec<OverlayAddr> {
    (0..n as u64).map(|i| OverlayAddr(base + i)).collect()
}

fn relay_config() -> RelayConfig {
    RelayConfig {
        setup_flush_ms: 400,
        data_flush_ms: 200,
        keepalive_ms: 0,
        liveness_timeout_ms: 0,
        ..RelayConfig::default()
    }
}

/// Stream `payloads` through a lossy/reordering/duplicating net and
/// assert exactly-once, in-order, byte-identical delivery.
fn round_trip(
    seed: u64,
    payloads: Vec<Vec<u8>>,
    drop_prob: f64,
    dup_prob: f64,
    shuffle: bool,
) {
    let relays = addrs(20_000, 14);
    // d' = 3 paths → 3 pseudo-sources.
    let pseudo = addrs(10_000, 3);
    let dest = OverlayAddr(1);
    let session_config = SessionConfig {
        retransmit_ms: 1_000,
        ack_interval_ms: 100,
        ..SessionConfig::default()
    };
    let mut net = SessionNet::new(&relays, seed, relay_config(), session_config, 1);
    let mut manager = SessionManager::new(2, 16, session_config);

    // Redundant paths (d' > d) so individual packet loss is survivable
    // within one round; retransmits cover the rest.
    let params = GraphParams::new(3, 2)
        .with_paths(3)
        .with_dest_placement(DestPlacement::LastStage);
    let (mut source, setup) =
        SourceSession::establish(params, &pseudo, &net.candidates, dest, seed).unwrap();
    // A small packet budget so modest payloads span several chunks.
    source.set_config(SourceConfig {
        data_packet_budget: 256,
        keepalive_ms: 0,
    });
    let g = source.graph();
    // Everything the destination side reports is keyed by the receiver
    // flow, which its relay learns from the setup slices.
    let dst = g.flow_ids[g.dest.stage][g.dest.index];
    net.add_node(dest);
    let src = manager.open_source(net.now, source).unwrap();

    // Establish over a clean net (setup has no retransmission layer).
    net.submit(setup);
    net.run(&mut manager, 4, 200);

    // Now the adversarial transport.
    net.drop_prob = drop_prob;
    net.dup_prob = dup_prob;
    net.shuffle = shuffle;

    let mut want = Vec::new();
    for payload in &payloads {
        let (msg_id, sends) = manager.send(net.now, src, payload).unwrap();
        net.submit(sends);
        want.push((dst, msg_id, payload.clone()));
    }
    // Settle until everything is delivered and acked (bounded).
    for _ in 0..120 {
        net.step(&mut manager, 150);
        if net.delivered.len() >= want.len() && manager.streams_idle() {
            break;
        }
    }

    assert_eq!(
        net.delivered, want,
        "exactly-once in-order byte-identical delivery (stats: {:?})",
        manager.stats()
    );
    assert!(manager.streams_idle(), "source window must drain");
    let resident = net.dest_session(dst).unwrap().resident();
    assert_eq!(resident.partial_msgs, 0, "no partial messages retained");
    assert_eq!(resident.reassembly_bytes, 0, "no bytes retained");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Lossless but adversarially reordered and duplicated transport:
    /// multi-chunk messages reassemble byte-identically, exactly once.
    #[test]
    fn reorder_and_duplication(
        seed in any::<u64>(),
        msgs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..1200), 1..4),
    ) {
        round_trip(seed, msgs, 0.0, 0.3, true);
    }

    /// Lossy transport: the retransmit window recovers every chunk; the
    /// replay guard keeps redelivery at-most-once.
    #[test]
    fn loss_with_retransmission(
        seed in any::<u64>(),
        drop_pm in 50u32..200,
        msgs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..900), 1..3),
    ) {
        round_trip(seed, msgs, drop_pm as f64 / 1000.0, 0.0, false);
    }

    /// Everything at once: loss + duplication + reordering.
    #[test]
    fn loss_reorder_duplication(
        seed in any::<u64>(),
        drop_pm in 20u32..150,
        msgs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..700), 1..3),
    ) {
        round_trip(seed, msgs, drop_pm as f64 / 1000.0, 0.25, true);
    }
}
