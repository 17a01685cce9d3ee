//! Property-based tests for the codec: round-trips, any-d decodability,
//! recombination, transforms, and the pi-security shape.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use slicing_codec::{coder, decode, encode, recombine, transform, HopTransform};

proptest! {
    /// encode/decode round-trips for arbitrary messages and (d, d′).
    #[test]
    fn round_trip(seed in any::<u64>(),
                  msg in proptest::collection::vec(any::<u8>(), 0..2000),
                  d in 1usize..6, extra in 0usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let coded = encode(&msg, d, d + extra, &mut rng);
        prop_assert_eq!(decode(&coded.slices, d).unwrap(), msg);
    }

    /// Any d-subset of d′ slices decodes.
    #[test]
    fn arbitrary_subset_decodes(seed in any::<u64>(),
                                msg in proptest::collection::vec(any::<u8>(), 1..500),
                                subset_seed in any::<u64>()) {
        let (d, dp) = (3usize, 5usize);
        let mut rng = StdRng::seed_from_u64(seed);
        let coded = encode(&msg, d, dp, &mut rng);
        use rand::seq::SliceRandom;
        let mut pick_rng = StdRng::seed_from_u64(subset_seed);
        let mut idx: Vec<usize> = (0..dp).collect();
        idx.shuffle(&mut pick_rng);
        let subset: Vec<_> = idx[..d].iter().map(|&i| coded.slices[i].clone()).collect();
        prop_assert_eq!(decode(&subset, d).unwrap(), msg);
    }

    /// Slices that survive a recombination storm still decode: replace
    /// slices with random combinations repeatedly, keep d' alive.
    #[test]
    fn recombination_storm(seed in any::<u64>(),
                           msg in proptest::collection::vec(any::<u8>(), 1..300),
                           rounds in 1usize..8) {
        let (d, dp) = (2usize, 3usize);
        let mut rng = StdRng::seed_from_u64(seed);
        let coded = encode(&msg, d, dp, &mut rng);
        let mut current = coded.slices;
        for _ in 0..rounds {
            // Lose one slice, regenerate from the survivors.
            current.remove(0);
            current.push(recombine(&current, &mut rng));
        }
        prop_assert_eq!(decode(&current, d).unwrap(), msg);
    }

    /// Per-hop transform chains preserve content and never repeat a wire
    /// pattern.
    #[test]
    fn transform_chain_round_trip(seed in any::<u64>(),
                                  data in proptest::collection::vec(any::<u8>(), 1..200),
                                  hops in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let chain: Vec<HopTransform> =
            (0..hops).map(|_| HopTransform::random(&mut rng)).collect();
        let mut buf = data.clone();
        transform::apply_chain(&chain, &mut buf);
        for t in &chain {
            t.unapply(&mut buf);
        }
        prop_assert_eq!(buf, data);
    }

    /// split/join block framing round-trips for all message sizes.
    #[test]
    fn block_framing(msg in proptest::collection::vec(any::<u8>(), 0..1000), d in 1usize..8) {
        let (blocks, block_len) = coder::split_blocks(&msg, d);
        prop_assert_eq!(blocks.len(), d);
        prop_assert!(blocks.iter().all(|b| b.len() == block_len));
        prop_assert_eq!(coder::join_blocks(&blocks).unwrap(), msg);
    }

    /// pi-security: any d−1 slices are consistent with any value of any
    /// message byte (generalized form of the unit test, random positions).
    #[test]
    fn pi_security(seed in any::<u64>(),
                   msg in proptest::collection::vec(any::<u8>(), 8..64),
                   probe in any::<u8>(), pos_seed in any::<u16>()) {
        use slicing_gf::{Gf256, Matrix};
        let d = 3usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let coded = encode(&msg, d, d, &mut rng);
        let observed = &coded.slices[..d - 1];
        let block_len = coded.block_len;
        let byte_pos = (pos_seed as usize) % block_len;
        // Fix block 0's byte at `byte_pos` to `probe`; solve for the rest.
        let mut a = Matrix::zero(d - 1, d - 1);
        let mut b = Vec::new();
        for (i, s) in observed.iter().enumerate() {
            for k in 1..d {
                a.set(i, k - 1, Gf256::new(s.coeffs[k]));
            }
            b.push(Gf256::new(s.payload[byte_pos])
                .sub(Gf256::new(s.coeffs[0]).mul(Gf256::new(probe))));
        }
        prop_assert!(a.solve(&b).is_some(), "partial slices leaked information");
    }

    /// encode_blocks → decode_blocks round-trips byte-identically through
    /// the bulk kernel path for every generator the MDS layer produces.
    #[test]
    fn encode_decode_blocks_bulk_round_trip(
        seed in any::<u64>(),
        msg in proptest::collection::vec(any::<u8>(), 0..2048),
        d in 1usize..6, extra in 0usize..4,
    ) {
        use slicing_gf::mds;
        let mut rng = StdRng::seed_from_u64(seed);
        let (blocks, _) = coder::split_blocks(&msg, d);
        let g = mds::strong_generator(d + extra, d, &mut rng);
        let slices = coder::encode_blocks(&g, &blocks);
        let decoded = coder::decode_blocks(&slices, d).unwrap();
        prop_assert_eq!(&decoded, &blocks, "blocks must round-trip byte-identically");
        // And through redundancy: the *last* d slices alone decode too.
        let tail = coder::decode_blocks(&slices[extra..], d).unwrap();
        prop_assert_eq!(&tail, &blocks);
    }

    /// Batched regeneration is interchangeable with repeated single
    /// recombination: any d of the batch + survivors still decode.
    #[test]
    fn recombine_batch_decodes(
        seed in any::<u64>(),
        msg in proptest::collection::vec(any::<u8>(), 1..512),
        n in 1usize..5,
    ) {
        let (d, dp) = (2usize, 3usize);
        let mut rng = StdRng::seed_from_u64(seed);
        let coded = encode(&msg, d, dp, &mut rng);
        let fresh = recombine::recombine_batch(&coded.slices, n, &mut rng);
        prop_assert_eq!(fresh.len(), n);
        for f in &fresh {
            // A single random combination may (w.p. ~1/255) align with
            // slice 0, so offer two originals: greedy rank selection in
            // decode always finds d independent rows among the three.
            let set = vec![f.clone(), coded.slices[0].clone(), coded.slices[1].clone()];
            prop_assert_eq!(decode(&set, d).unwrap(), msg.clone());
        }
    }
}
