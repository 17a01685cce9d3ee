//! Property tests for graph construction: structural invariants must
//! hold for every shape and seed.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use slicing_graph::{build, GraphParams, NodeInfo, OverlayAddr};

fn addrs(base: u64, n: usize) -> Vec<OverlayAddr> {
    (0..n as u64).map(|i| OverlayAddr(base + i)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every buildable graph validates: vertex-disjoint paths, Latin
    /// balance, unique flow ids.
    #[test]
    fn built_graphs_validate(seed in any::<u64>(), l in 1usize..8, d in 2usize..4,
                             extra in 0usize..3) {
        let dp = d + extra;
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, _) = build::build(
            GraphParams::new(l, d).with_paths(dp),
            &addrs(10_000, dp),
            &addrs(20_000, l * dp + 4),
            OverlayAddr(1),
            &mut rng,
        ).unwrap();
        prop_assert!(g.validate().is_ok());
    }

    /// Info slices of every node decode back to the exact NodeInfo, from
    /// any d-subset.
    #[test]
    fn info_round_trips_from_any_subset(seed in any::<u64>(), l in 1usize..6) {
        let (d, dp) = (2usize, 3usize);
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, bp) = build::build(
            GraphParams::new(l, d).with_paths(dp),
            &addrs(10_000, dp),
            &addrs(20_000, l * dp + 4),
            OverlayAddr(1),
            &mut rng,
        ).unwrap();
        for stage in 1..=l {
            for v in 0..dp {
                for skip in 0..dp {
                    let subset: Vec<_> = bp.info_slices[stage][v]
                        .iter()
                        .enumerate()
                        .filter(|(k, _)| *k != skip)
                        .map(|(_, s)| s.clone())
                        .collect();
                    let bytes = slicing_codec::decode(&subset, d).unwrap();
                    let info = NodeInfo::decode(&bytes).unwrap();
                    prop_assert_eq!(&info, &bp.infos[stage][v]);
                }
            }
        }
    }

    /// Setup packets: exactly d'^2, all equal size, slot 0 always clean.
    #[test]
    fn setup_packets_shape(seed in any::<u64>(), l in 1usize..7, d in 2usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, bp) = build::build(
            GraphParams::new(l, d),
            &addrs(10_000, d),
            &addrs(20_000, l * d + 4),
            OverlayAddr(1),
            &mut rng,
        ).unwrap();
        let packets = bp.setup_packets(&g);
        prop_assert_eq!(packets.len(), d * d);
        let len = packets[0].packet.encode().len();
        for p in &packets {
            prop_assert_eq!(p.packet.encode().len(), len);
            prop_assert!(build::BuiltGraph::parse_slot(
                d, bp.info_block_len, p.packet.slot(0)).is_some());
        }
    }

    /// NodeInfo serialization round-trips for arbitrary-ish field values;
    /// the one contradictory flag pair (the destination as its own
    /// parent) is refused instead.
    #[test]
    fn node_info_round_trip(seed in any::<u64>(), receiver in any::<bool>(),
                            dest_parent in any::<bool>(), recode in any::<bool>(),
                            has_children in any::<bool>()) {
        use slicing_graph::info::InfoError;
        use slicing_codec::HopTransform;
        use slicing_crypto::SymmetricKey;
        use slicing_wire::FlowId;
        let mut rng = StdRng::seed_from_u64(seed);
        let dp = 3usize;
        let slots = 6usize;
        let info = NodeInfo {
            receiver,
            dest_parent,
            recode,
            secret_key: SymmetricKey::random(&mut rng),
            reverse_flow_id: FlowId::random(&mut rng),
            d: 2,
            d_prime: dp as u8,
            slots: slots as u8,
            out_real_slots: if has_children { 3 } else { 0 },
            transform: HopTransform::random(&mut rng),
            parents: (0..dp)
                .map(|i| (OverlayAddr(seed ^ i as u64), FlowId(i as u64 + 1)))
                .collect(),
            children: if has_children {
                (0..dp).map(|i| (OverlayAddr(900 + i as u64), FlowId(800 + i as u64))).collect()
            } else { vec![] },
            data_map: if has_children { vec![0, 1, 2] } else { vec![] },
            slice_map: if has_children {
                vec![vec![Some(0), Some(1), Some(2), None, None, None]; dp]
            } else { vec![] },
        };
        let decoded = NodeInfo::decode(&info.encode());
        if receiver && dest_parent {
            prop_assert_eq!(decoded, Err(InfoError::Inconsistent));
        } else {
            prop_assert_eq!(decoded, Ok(info));
        }
    }

    /// Corrupting any single byte of an encoded NodeInfo is detected.
    #[test]
    fn node_info_corruption_detected(pos_seed in any::<u16>(), bit in 0u8..8) {
        use slicing_codec::HopTransform;
        use slicing_crypto::SymmetricKey;
        use slicing_wire::FlowId;
        let mut rng = StdRng::seed_from_u64(7);
        let info = NodeInfo {
            receiver: false,
            dest_parent: false,
            recode: true,
            secret_key: SymmetricKey::random(&mut rng),
            reverse_flow_id: FlowId::random(&mut rng),
            d: 2,
            d_prime: 2,
            slots: 4,
            out_real_slots: 2,
            transform: HopTransform::random(&mut rng),
            parents: vec![(OverlayAddr(1), FlowId(2)), (OverlayAddr(3), FlowId(4))],
            children: vec![(OverlayAddr(5), FlowId(6)), (OverlayAddr(7), FlowId(8))],
            data_map: vec![0, 1],
            slice_map: vec![vec![Some(0), Some(1), None, None]; 2],
        };
        let mut bytes = info.encode();
        let pos = pos_seed as usize % bytes.len();
        bytes[pos] ^= 1 << bit;
        prop_assert!(NodeInfo::decode(&bytes).is_err());
    }
}
