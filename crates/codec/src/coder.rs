//! Encoding and decoding of information slices (§4.1, §4.3.2, §4.3.5).

use rand::Rng;

use slicing_gf::{bulk, mds, Gf256, Matrix};

use crate::slice::{InfoSlice, SlicedMessage};

/// Errors surfaced by [`decode`] and [`decode_blocks`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer slices than the split factor `d`.
    NotEnoughSlices {
        /// Slices supplied.
        have: usize,
        /// Split factor required.
        need: usize,
    },
    /// The supplied slices' coefficient rows span fewer than `d`
    /// dimensions (duplicates or unlucky recombinations).
    RankDeficient,
    /// Slices disagree on `d` or block length.
    ShapeMismatch,
    /// The decoded length prefix is inconsistent with the block size.
    CorruptLength,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::NotEnoughSlices { have, need } => {
                write!(f, "need {need} slices to decode, have {have}")
            }
            CodecError::RankDeficient => write!(f, "slice coefficient rows are not independent"),
            CodecError::ShapeMismatch => write!(f, "slices have inconsistent shapes"),
            CodecError::CorruptLength => write!(f, "decoded length prefix is corrupt"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Split `msg` into `d` equal blocks (4-byte little-endian length prefix,
/// zero padding), returning `(blocks, block_len)`.
pub fn split_blocks(msg: &[u8], d: usize) -> (Vec<Vec<u8>>, usize) {
    assert!(d >= 1, "split factor must be >= 1");
    let framed_len = msg.len() + 4;
    let block_len = framed_len.div_ceil(d).max(1);
    let mut framed = Vec::with_capacity(block_len * d);
    framed.extend_from_slice(&(msg.len() as u32).to_le_bytes());
    framed.extend_from_slice(msg);
    framed.resize(block_len * d, 0);
    let blocks = framed.chunks(block_len).map(|c| c.to_vec()).collect();
    (blocks, block_len)
}

/// Reassemble the message from its decoded blocks (inverse of
/// [`split_blocks`]).
pub fn join_blocks(blocks: &[Vec<u8>]) -> Result<Vec<u8>, CodecError> {
    let block_len = blocks.first().map_or(0, |b| b.len());
    if blocks.iter().any(|b| b.len() != block_len) {
        return Err(CodecError::ShapeMismatch);
    }
    let framed: Vec<u8> = blocks.concat();
    if framed.len() < 4 {
        return Err(CodecError::CorruptLength);
    }
    let len = u32::from_le_bytes([framed[0], framed[1], framed[2], framed[3]]) as usize;
    if len + 4 > framed.len() {
        return Err(CodecError::CorruptLength);
    }
    Ok(framed[4..4 + len].to_vec())
}

/// Code raw blocks with generator `g` (`d′ × d`): `payload_i = Σ g[i][k] · block_k`.
///
/// # Panics
/// Panics if `g.ncols() != blocks.len()` or blocks are ragged.
pub fn encode_blocks(g: &Matrix, blocks: &[Vec<u8>]) -> Vec<InfoSlice> {
    assert_eq!(g.ncols(), blocks.len(), "generator shape mismatch");
    let block_len = blocks.first().map_or(0, |b| b.len());
    assert!(blocks.iter().all(|b| b.len() == block_len), "ragged blocks");
    let mut out = Vec::with_capacity(g.nrows());
    for i in 0..g.nrows() {
        let mut payload = vec![0u8; block_len];
        let mut coeffs = Vec::with_capacity(g.ncols());
        for (k, block) in blocks.iter().enumerate() {
            let c = g.get(i, k).value();
            coeffs.push(c);
            if k == 0 {
                // Fresh payload: a straight scaled copy beats xor-into-zero.
                bulk::mul_slice_into(&mut payload, c, block);
            } else {
                bulk::mul_add_slice(&mut payload, c, block);
            }
        }
        out.push(InfoSlice::new(coeffs, payload));
    }
    out
}

/// Slice a message: randomize with a super-regular generator (every
/// square submatrix invertible) and emit `d′ ≥ d` slices (§4.3.2;
/// redundancy per §4.4(b)).
///
/// With `d_prime == d` this realizes `I* = A·I` (§4.1), and the
/// super-regularity of `A` makes pi-security (Lemma 5.1) hold
/// *deterministically*: any `m < d` observed slices leave every message
/// component consistent with every candidate value.
///
/// # Panics
/// Panics if `d == 0` or `d_prime < d`.
pub fn encode<R: Rng + ?Sized>(
    msg: &[u8],
    d: usize,
    d_prime: usize,
    rng: &mut R,
) -> SlicedMessage {
    assert!(d >= 1, "split factor must be >= 1");
    assert!(d_prime >= d, "d' must be >= d");
    let (blocks, block_len) = split_blocks(msg, d);
    let g = mds::strong_generator(d_prime, d, rng);
    SlicedMessage {
        slices: encode_blocks(&g, &blocks),
        d,
        block_len,
    }
}

/// Decode the raw blocks from any `d` independent slices.
///
/// Greedy selection: slices are scanned in order and kept while they
/// increase the rank of the coefficient matrix, so duplicated or
/// linearly-dependent slices (e.g. from aggressive relay recombination)
/// are skipped rather than fatal.
pub fn decode_blocks(slices: &[InfoSlice], d: usize) -> Result<Vec<Vec<u8>>, CodecError> {
    if slices.len() < d {
        return Err(CodecError::NotEnoughSlices {
            have: slices.len(),
            need: d,
        });
    }
    let block_len = slices[0].payload.len();
    if slices
        .iter()
        .any(|s| s.coeffs.len() != d || s.payload.len() != block_len)
    {
        return Err(CodecError::ShapeMismatch);
    }

    // Greedily collect d slices with independent rows.
    let mut chosen: Vec<&InfoSlice> = Vec::with_capacity(d);
    let mut rows: Vec<Vec<Gf256>> = Vec::with_capacity(d);
    for s in slices {
        if chosen.len() == d {
            break;
        }
        let candidate: Vec<Gf256> = s.coeffs.iter().map(|&c| Gf256::new(c)).collect();
        rows.push(candidate);
        let m = Matrix::from_rows(&rows);
        if m.rank() == rows.len() {
            chosen.push(s);
        } else {
            rows.pop();
        }
    }
    if chosen.len() < d {
        return Err(CodecError::RankDeficient);
    }

    let a = Matrix::from_rows(&rows);
    let inv = a.inverse().ok_or(CodecError::RankDeficient)?;
    // block_k[j] = Σ_i inv[k][i] · payload_i[j]
    let mut blocks = vec![vec![0u8; block_len]; d];
    for (k, block) in blocks.iter_mut().enumerate() {
        for (i, s) in chosen.iter().enumerate() {
            if i == 0 {
                bulk::mul_slice_into(block, inv.get(k, i).value(), &s.payload);
            } else {
                bulk::mul_add_slice(block, inv.get(k, i).value(), &s.payload);
            }
        }
    }
    Ok(blocks)
}

/// Decode a message from any `d` independent slices (`m = A⁻¹ I*`).
pub fn decode(slices: &[InfoSlice], d: usize) -> Result<Vec<u8>, CodecError> {
    let blocks = decode_blocks(slices, d)?;
    join_blocks(&blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn round_trip_no_redundancy() {
        let mut rng = rng();
        for d in 1..=6 {
            let msg = b"Let's meet at 5pm";
            let coded = encode(msg, d, d, &mut rng);
            assert_eq!(coded.slices.len(), d);
            let decoded = decode(&coded.slices, d).unwrap();
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn round_trip_empty_message() {
        let mut rng = rng();
        let coded = encode(b"", 3, 3, &mut rng);
        assert_eq!(decode(&coded.slices, 3).unwrap(), b"");
    }

    #[test]
    fn any_d_of_d_prime_decode() {
        let mut rng = rng();
        let msg = b"churn resilient payload";
        let (d, dp) = (2, 4);
        let coded = encode(msg, d, dp, &mut rng);
        // Every 2-subset of the 4 slices must decode.
        for i in 0..dp {
            for j in i + 1..dp {
                let subset = vec![coded.slices[i].clone(), coded.slices[j].clone()];
                assert_eq!(decode(&subset, d).unwrap(), msg, "subset ({i},{j})");
            }
        }
    }

    #[test]
    fn too_few_slices_fails() {
        let mut rng = rng();
        let coded = encode(b"hello", 3, 3, &mut rng);
        let err = decode(&coded.slices[..2], 3).unwrap_err();
        assert_eq!(err, CodecError::NotEnoughSlices { have: 2, need: 3 });
    }

    #[test]
    fn duplicate_slices_skipped_when_extras_available() {
        let mut rng = rng();
        let msg = b"dup tolerance";
        let coded = encode(msg, 2, 3, &mut rng);
        // [s0, s0, s1]: the duplicate must be skipped, decode via s0+s1.
        let slices = vec![
            coded.slices[0].clone(),
            coded.slices[0].clone(),
            coded.slices[1].clone(),
        ];
        assert_eq!(decode(&slices, 2).unwrap(), msg);
    }

    #[test]
    fn all_duplicates_is_rank_deficient() {
        let mut rng = rng();
        let coded = encode(b"x", 2, 2, &mut rng);
        let slices = vec![coded.slices[0].clone(), coded.slices[0].clone()];
        assert_eq!(decode(&slices, 2).unwrap_err(), CodecError::RankDeficient);
    }

    #[test]
    fn shape_mismatch_detected() {
        let mut rng = rng();
        let mut coded = encode(b"abc", 2, 2, &mut rng);
        coded.slices[1].payload.push(0);
        assert_eq!(
            decode(&coded.slices, 2).unwrap_err(),
            CodecError::ShapeMismatch
        );
    }

    #[test]
    fn corrupt_length_detected() {
        let mut rng = rng();
        let coded = encode(b"abc", 2, 2, &mut rng);
        let mut blocks = decode_blocks(&coded.slices, 2).unwrap();
        // Overwrite the length prefix with an impossible value.
        blocks[0][..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(join_blocks(&blocks).unwrap_err(), CodecError::CorruptLength);
    }

    #[test]
    fn coded_slices_differ_from_plaintext() {
        // The randomized slices must not contain the raw message blocks
        // (sanity check that we are not sending a systematic code).
        let mut rng = rng();
        let msg = vec![0x55u8; 64];
        let coded = encode(&msg, 2, 2, &mut rng);
        let (blocks, _) = split_blocks(&msg, 2);
        for s in &coded.slices {
            // A coded payload equal to a plaintext block would require
            // coeffs to be a unit vector; extremely unlikely and worth
            // rejecting outright for privacy.
            assert!(
                s.payload != blocks[0] && s.payload != blocks[1]
                    || s.coeffs.iter().filter(|&&c| c != 0).count() > 1
            );
        }
    }

    #[test]
    fn large_message_many_slices() {
        let mut rng = rng();
        let msg: Vec<u8> = (0..10_000u32).map(|i| (i % 256) as u8).collect();
        let coded = encode(&msg, 5, 8, &mut rng);
        // Use the *last* 5 slices (pure redundancy mix).
        let decoded = decode(&coded.slices[3..], 5).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn split_blocks_shape() {
        let (blocks, block_len) = split_blocks(&[1, 2, 3, 4, 5], 3);
        assert_eq!(blocks.len(), 3);
        assert_eq!(block_len, 3); // (5+4)/3 = 3
        assert!(blocks.iter().all(|b| b.len() == 3));
        assert_eq!(join_blocks(&blocks).unwrap(), vec![1, 2, 3, 4, 5]);
    }

    /// pi-security shape (Lemma 5.1): with only d−1 slices, *any* value of
    /// a chosen message block position is consistent with the observations,
    /// so partial information reveals nothing.
    #[test]
    fn pi_security_partial_slices_reveal_nothing() {
        let mut rng = rng();
        let d = 3;
        let msg = b"top secret rendezvous";
        let coded = encode(msg, d, d, &mut rng);
        let (blocks, block_len) = split_blocks(msg, d);
        let observed = &coded.slices[..d - 1]; // attacker sees d-1 slices

        // For the first byte of block 0, every candidate value v must admit
        // a consistent assignment of the remaining blocks.
        let byte_pos = 0usize;
        for v in [0u8, 1, 17, 128, 255] {
            // Unknowns: blocks[1][0], blocks[2][0]; fixed: blocks[0][0] = v.
            // Observed equations: payload_i[0] = Σ_k coeffs_i[k]·block_k[0].
            let mut a = Matrix::zero(d - 1, d - 1);
            let mut b = Vec::with_capacity(d - 1);
            for (i, s) in observed.iter().enumerate() {
                for k in 1..d {
                    a.set(i, k - 1, Gf256::new(s.coeffs[k]));
                }
                let rhs = Gf256::new(s.payload[byte_pos])
                    .sub(Gf256::new(s.coeffs[0]).mul(Gf256::new(v)));
                b.push(rhs);
            }
            let solution = a.solve(&b);
            assert!(
                solution.is_some(),
                "value {v} not consistent — information leaked"
            );
        }
        // And of course the true value is among the consistent ones.
        assert_eq!(blocks[0][byte_pos], {
            let decoded = decode(&coded.slices, d).unwrap();
            let (true_blocks, _) = split_blocks(&decoded, d);
            let _ = block_len;
            true_blocks[0][byte_pos]
        });
    }
}
