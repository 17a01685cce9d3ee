//! Integration tests for the security properties the paper argues in
//! §5 and §9: pi-security end to end, per-hop pattern hiding, constant
//! packet sizes, and what a compromised relay actually sees.

use information_slicing::codec::{coder, encode};
use information_slicing::core::testnet::TestNet;
use information_slicing::core::{GraphParams, OverlayAddr, SourceSession};
use information_slicing::gf::{Gf256, Matrix};
use information_slicing::graph::build;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn addrs(base: u64, n: usize) -> Vec<OverlayAddr> {
    (0..n as u64).map(|i| OverlayAddr(base + i)).collect()
}

/// §9.4(c): every setup packet in a flow has exactly the same wire size,
/// at every hop.
#[test]
fn constant_packet_size_across_hops() {
    let (l, d) = (5usize, 2usize);
    let pseudo = addrs(10_000, d);
    let candidates = addrs(20_000, 20);
    let dest = OverlayAddr(1);
    let mut nodes = candidates.clone();
    nodes.push(dest);
    let (mut source, setup) =
        SourceSession::establish(GraphParams::new(l, d), &pseudo, &candidates, dest, 3).unwrap();
    let wire_len = setup[0].packet.encode().len();
    assert!(setup.iter().all(|s| s.packet.encode().len() == wire_len));

    // Count bytes through the test net: every transported setup packet
    // must be the same size, so total bytes divide evenly.
    let mut net = TestNet::new(&nodes, 3);
    net.submit(setup);
    net.run_to_quiescence(Some(&mut source));
    assert_eq!(
        net.bytes_transported % wire_len as u64,
        0,
        "a relay emitted a differently-sized setup packet"
    );
}

/// §9.4(a): the same logical slice never shows the same bit pattern on
/// two different links (per-hop transforms).
#[test]
fn no_repeated_slice_patterns_between_stages() {
    let (l, d) = (4usize, 2usize);
    let pseudo = addrs(10_000, d);
    let candidates = addrs(20_000, 20);
    let dest = OverlayAddr(1);
    let (source, setup) =
        SourceSession::establish(GraphParams::new(l, d), &pseudo, &candidates, dest, 5).unwrap();
    let _ = source;
    // Gather all slots of all first-hop packets; no two identical slots
    // may appear anywhere (each is either a distinct slice or distinct
    // wrapping).
    let mut seen = std::collections::HashSet::new();
    for instr in &setup {
        for slot in instr.packet.slots() {
            assert!(
                seen.insert(slot.to_vec()),
                "identical slot bytes on two first-hop packets"
            );
        }
    }
}

/// §5 / Lemma 5.1 at the system level: a relay that decodes its own info
/// learns its neighbours and nothing else — specifically, the receiver
/// flag of OTHER nodes is not derivable from fewer than d slices of their
/// info.
#[test]
fn single_relay_cannot_decode_other_nodes_info() {
    let (l, d) = (4usize, 2usize);
    let pseudo = addrs(10_000, d);
    let candidates = addrs(20_000, 20);
    let dest = OverlayAddr(1);
    // The setup blueprint the source sends and forgets.
    let mut rng = StdRng::seed_from_u64(7);
    let (_, blueprint) =
        build::build(GraphParams::new(l, d), &pseudo, &candidates, dest, &mut rng).unwrap();
    // A stage-2 node holds exactly one slice of each stage-3 node's info
    // (vertex-disjoint paths); one slice of a d=2 encoding is not enough:
    // by super-regularity *any* value of any byte remains consistent.
    let target_slices = &blueprint.info_slices[3][0];
    let one = &target_slices[0];
    // Consistency check for three candidate values of byte 0 of block 0.
    for candidate in [0u8, 1, 255] {
        // One equation, one fixed unknown (block0[0] = candidate), one
        // free unknown (block1[0]): solvable iff coeff of block1 != 0.
        let c1 = Gf256::new(one.coeffs[1]);
        assert!(!c1.is_zero(), "super-regular generator has no zero entries");
        let rhs = Gf256::new(one.payload[0])
            .sub(Gf256::new(one.coeffs[0]).mul(Gf256::new(candidate)));
        // block1[0] = rhs / c1 always exists.
        let _ = rhs.div(c1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// End-to-end pi-security: for random messages and random observed
    /// subsets of d−1 slices, every probe byte value stays consistent.
    #[test]
    fn pi_security_holds_for_random_subsets(
        seed in any::<u64>(),
        msg in proptest::collection::vec(any::<u8>(), 16..128),
        probe in any::<u8>(),
    ) {
        let d = 4usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let coded = encode(&msg, d, d, &mut rng);
        // Observe slices 1..d (drop slice 0).
        let observed = &coded.slices[1..];
        let mut a = Matrix::zero(d - 1, d - 1);
        let mut b = Vec::new();
        for (i, s) in observed.iter().enumerate() {
            for k in 1..d {
                a.set(i, k - 1, Gf256::new(s.coeffs[k]));
            }
            b.push(Gf256::new(s.payload[0])
                .sub(Gf256::new(s.coeffs[0]).mul(Gf256::new(probe))));
        }
        prop_assert!(a.solve(&b).is_some());
    }

    /// Data confidentiality end to end: flipping any wire bit of a data
    /// packet can only lose the message, never corrupt the plaintext.
    #[test]
    fn corruption_never_yields_wrong_plaintext(
        seed in any::<u64>(), flip in any::<(u16, u8)>(),
    ) {
        let (l, d) = (3usize, 2usize);
        let pseudo = addrs(10_000, d);
        let candidates = addrs(20_000, 14);
        let dest = OverlayAddr(1);
        let mut nodes = candidates.clone();
        nodes.push(dest);
        let (mut source, setup) = SourceSession::establish(
            GraphParams::new(l, d), &pseudo, &candidates, dest, seed,
        ).unwrap();
        let mut net = TestNet::new(&nodes, seed);
        net.submit(setup);
        net.run_to_quiescence(Some(&mut source));
        let (_, mut sends) = source.send_message(b"authentic").expect("within chunk budget");
        // Corrupt one bit of one data packet.
        let idx = (flip.0 as usize) % sends.len();
        let mut bytes = sends[idx].packet.encode().to_vec();
        let pos = 20 + (flip.0 as usize % (bytes.len() - 20));
        bytes[pos] ^= 1 << (flip.1 % 8);
        if let Ok(p) = information_slicing::wire::Packet::decode(&bytes) {
            sends[idx].packet = p;
        }
        net.submit(sends);
        net.settle(Some(&mut source), 1_500, 4);
        let got = net.messages_for(dest);
        // Either delivered intact (redundant slices cover it) or lost.
        for (_, body) in got {
            prop_assert_eq!(body, b"authentic".to_vec());
        }
    }
}

/// The codec rejects systematically-leaky encodings: coded payloads never
/// equal a plaintext block (super-regular generators have no unit rows).
#[test]
fn no_systematic_leak() {
    let mut rng = StdRng::seed_from_u64(9);
    let msg = vec![0x11u8; 300];
    for d in 2..=6 {
        let coded = encode(&msg, d, d, &mut rng);
        let (blocks, _) = coder::split_blocks(&msg, d);
        for s in &coded.slices {
            for b in &blocks {
                assert_ne!(&s.payload, b, "coded slice equals plaintext block");
            }
        }
    }
}
