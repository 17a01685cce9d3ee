//! Relay-side redundancy regeneration via network coding (§4.4.1).
//!
//! When a relay has received `k ≥ d` slices but an upstream failure cost
//! the flow one of its `d′` redundant slices, the relay fabricates a
//! replacement: `m′_new = Σ pᵢ·m′ᵢ` with the *same* random `pᵢ` applied to
//! the coefficient rows, `A′_new = Σ pᵢ·A′ᵢ`. The new slice is a valid
//! codeword of the original generator, so downstream decoding is
//! unaffected — "with a small amount of redundancy, we can survive many
//! node failures because at each stage the nodes can re-generate the lost
//! redundancy."

use rand::Rng;

use slicing_gf::bulk;

use crate::slice::InfoSlice;

fn assert_consistent(slices: &[InfoSlice]) -> (usize, usize) {
    assert!(!slices.is_empty(), "cannot recombine zero slices");
    let d = slices[0].coeffs.len();
    let block_len = slices[0].payload.len();
    assert!(
        slices
            .iter()
            .all(|s| s.coeffs.len() == d && s.payload.len() == block_len),
        "inconsistent slice shapes"
    );
    (d, block_len)
}

/// Accumulate one random combination into pre-zeroed `coeffs`/`payload`
/// buffers through the shared bulk kernels.
fn mix_into<R: Rng + ?Sized>(
    slices: &[InfoSlice],
    rng: &mut R,
    coeffs: &mut [u8],
    payload: &mut [u8],
) {
    for s in slices {
        let p: u8 = rng.gen_range(1..=255);
        bulk::mul_add_slice(coeffs, p, &s.coeffs);
        bulk::mul_add_slice(payload, p, &s.payload);
    }
}

/// Produce a fresh slice as a random linear combination of `slices`.
///
/// Every combination coefficient is nonzero, so the output mixes *all*
/// inputs. (For `d = 2` this provably preserves pairwise independence
/// across regeneration rounds; for larger `d` dependence is possible only
/// with probability ~`d/255` per round, matching the randomized network
/// coding guarantee the paper cites (its reference 18).)
///
/// # Panics
/// Panics if `slices` is empty or shapes are inconsistent.
pub fn recombine<R: Rng + ?Sized>(slices: &[InfoSlice], rng: &mut R) -> InfoSlice {
    let (d, block_len) = assert_consistent(slices);
    let mut coeffs = vec![0u8; d];
    let mut payload = vec![0u8; block_len];
    mix_into(slices, rng, &mut coeffs, &mut payload);
    InfoSlice::new(coeffs, payload)
}

/// Produce `n` fresh random combinations of `slices` in one pass.
///
/// This is the relay-side regeneration entry point (§4.4.1): a relay
/// that must fabricate several outgoing slices (lost redundancy, or
/// Recode-mode fan-out to all children) asks for them together, so every
/// coded byte goes through the same [`bulk`] kernels and the shape
/// checks run once instead of per slice.
///
/// # Panics
/// Panics if `slices` is empty or shapes are inconsistent.
pub fn recombine_batch<R: Rng + ?Sized>(
    slices: &[InfoSlice],
    n: usize,
    rng: &mut R,
) -> Vec<InfoSlice> {
    let (d, block_len) = assert_consistent(slices);
    // Draw all combination coefficients up front, output-major — the
    // same stream order as n sequential `mix_into` passes — then hand
    // the whole batch to the fused kernel, which loads each input slice
    // once per group of outputs instead of once per (output, input).
    let ps: Vec<u8> = (0..n * slices.len())
        .map(|_| rng.gen_range(1..=255))
        .collect();
    let src_coeffs: Vec<&[u8]> = slices.iter().map(|s| s.coeffs.as_slice()).collect();
    let src_payloads: Vec<&[u8]> = slices.iter().map(|s| s.payload.as_slice()).collect();
    let mut coeffs: Vec<Vec<u8>> = (0..n).map(|_| vec![0u8; d]).collect();
    let mut payloads: Vec<Vec<u8>> = (0..n).map(|_| vec![0u8; block_len]).collect();
    let mut coeff_refs: Vec<&mut [u8]> = coeffs.iter_mut().map(|c| c.as_mut_slice()).collect();
    let mut payload_refs: Vec<&mut [u8]> =
        payloads.iter_mut().map(|p| p.as_mut_slice()).collect();
    bulk::mul_add_fused(&mut coeff_refs, &ps, &src_coeffs);
    bulk::mul_add_fused(&mut payload_refs, &ps, &src_payloads);
    coeffs
        .into_iter()
        .zip(payloads)
        .map(|(c, p)| InfoSlice::new(c, p))
        .collect()
}

/// Accumulate one fresh random combination of raw slice buffers directly
/// into a pre-zeroed output buffer.
///
/// Each input is the wire image of a slice — `coeffs ‖ payload` — and
/// the output gets the same layout: because the same combination
/// coefficient multiplies both the generator row and the coded block,
/// one [`bulk::mul_add_slice`] pass per input covers both at once. This
/// is the relay data plane's zero-allocation path: the output buffer is
/// the outgoing packet's slot, and no [`InfoSlice`] is materialized.
///
/// # Panics
/// Panics if `slices` is empty or any input length differs from `out`.
pub fn recombine_into<R: Rng + ?Sized, S: AsRef<[u8]>>(
    slices: &[S],
    rng: &mut R,
    out: &mut [u8],
) {
    assert!(!slices.is_empty(), "cannot recombine zero slices");
    for s in slices {
        let p: u8 = rng.gen_range(1..=255);
        bulk::mul_add_slice(out, p, s.as_ref());
    }
}

/// Accumulate several fresh random combinations of raw slice buffers
/// into pre-zeroed output buffers through one fused kernel pass.
///
/// Combination coefficients are drawn **output-major** (for each output,
/// one coefficient per input slice), which makes the result bit-identical
/// to `outs.len()` sequential [`recombine_into`] calls on the same RNG —
/// but each input slice is loaded once per group of outputs instead of
/// once per (output, input) pair ([`bulk::mul_add_fused`]). This is the
/// relay forward path's regeneration kernel: one call fills every
/// outgoing packet slot that needs a fresh combination.
///
/// # Panics
/// Panics if `slices` is empty or any input/output length differs.
pub fn recombine_multi_into<R: Rng + ?Sized, S: AsRef<[u8]>>(
    slices: &[S],
    rng: &mut R,
    outs: &mut [&mut [u8]],
) {
    assert!(!slices.is_empty(), "cannot recombine zero slices");
    let ps: Vec<u8> = (0..outs.len() * slices.len())
        .map(|_| rng.gen_range(1..=255))
        .collect();
    let srcs: Vec<&[u8]> = slices.iter().map(|s| s.as_ref()).collect();
    bulk::mul_add_fused(outs, &ps, &srcs);
}

/// Regenerate up to `want` slices from the `have` received ones,
/// returning `have.len() + missing` slices where
/// `missing = want.saturating_sub(have.len())`.
///
/// This is what a relay runs when its parents delivered fewer slices than
/// the flow's `d′` (§4.4.1): the received slices are forwarded as-is and
/// the shortfall is made up with recombinations.
pub fn restore_redundancy<R: Rng + ?Sized>(
    have: &[InfoSlice],
    want: usize,
    rng: &mut R,
) -> Vec<InfoSlice> {
    let mut out: Vec<InfoSlice> = have.to_vec();
    if out.len() < want {
        out.extend(recombine_batch(have, want - out.len(), rng));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coder::{decode, encode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use slicing_gf::Gf256;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2024)
    }

    #[test]
    fn recombined_slice_decodes_with_originals() {
        let mut rng = rng();
        let msg = b"regenerate me";
        let coded = encode(msg, 2, 3, &mut rng);
        let fresh = recombine(&coded.slices, &mut rng);
        // fresh + one original must decode (2-of-* decodability).
        let set = vec![fresh.clone(), coded.slices[0].clone()];
        assert_eq!(decode(&set, 2).unwrap(), msg);
    }

    #[test]
    fn lost_slice_fully_replaced() {
        let mut rng = rng();
        let msg = b"one parent failed";
        let (d, dp) = (2, 3);
        let coded = encode(msg, d, dp, &mut rng);
        // A stage lost slice 2; the relay restores d' from the surviving 2.
        let survivors = &coded.slices[..2];
        let restored = restore_redundancy(survivors, dp, &mut rng);
        assert_eq!(restored.len(), dp);
        // Any 2 of the restored 3 decode — including the regenerated one.
        for i in 0..dp {
            for j in i + 1..dp {
                let set = vec![restored[i].clone(), restored[j].clone()];
                assert_eq!(decode(&set, d).unwrap(), msg, "({i},{j})");
            }
        }
    }

    #[test]
    fn chained_regeneration_over_stages() {
        // Simulate L=5 stages, each losing one slice then regenerating —
        // the scenario Fig. 17 relies on.
        let mut rng = rng();
        let msg = b"multi-stage survival";
        let (d, dp) = (2, 3);
        let coded = encode(msg, d, dp, &mut rng);
        let mut current = coded.slices.clone();
        for _stage in 0..5 {
            current.remove(0); // a parent fails
            current = restore_redundancy(&current, dp, &mut rng);
            assert_eq!(current.len(), dp);
        }
        assert_eq!(decode(&current, d).unwrap(), msg);
    }

    #[test]
    fn recombine_single_slice_is_scaled_copy() {
        let mut rng = rng();
        let coded = encode(b"solo", 2, 2, &mut rng);
        let fresh = recombine(&coded.slices[..1], &mut rng);
        // A combination of one slice spans the same line; it cannot decode
        // with the original alone (rank 1).
        let set = vec![fresh, coded.slices[0].clone()];
        assert!(decode(&set, 2).is_err());
    }

    #[test]
    fn recombine_into_matches_recombine() {
        // The raw-buffer path (coeffs ‖ payload in one pass) must produce
        // a slice distributed identically to the InfoSlice path: same RNG
        // stream in, same combination out.
        let mut rng_a = rng();
        let mut rng_b = rng();
        let coded = encode(b"one pass", 3, 4, &mut rng_a);
        // Re-sync: encode consumed randomness from rng_a; mirror on rng_b.
        let _ = encode(b"one pass", 3, 4, &mut rng_b);
        let via_slices = recombine(&coded.slices, &mut rng_a);
        let raw: Vec<Vec<u8>> = coded.slices.iter().map(|s| s.to_bytes()).collect();
        let mut out = vec![0u8; raw[0].len()];
        recombine_into(&raw, &mut rng_b, &mut out);
        assert_eq!(out, via_slices.to_bytes());
    }

    #[test]
    fn recombined_raw_buffer_decodes() {
        let mut r = rng();
        let msg = b"zero copy regen";
        let coded = encode(msg, 2, 3, &mut r);
        let raw: Vec<Vec<u8>> = coded.slices.iter().map(|s| s.to_bytes()).collect();
        let mut out = vec![0u8; raw[0].len()];
        recombine_into(&raw, &mut r, &mut out);
        let fresh = InfoSlice::from_bytes(2, coded.block_len, &out).unwrap();
        let set = vec![fresh, coded.slices[0].clone()];
        assert_eq!(decode(&set, 2).unwrap(), msg);
    }

    #[test]
    fn recombine_multi_into_matches_sequential_single() {
        // The fused multi-output path must be bit-identical to n
        // sequential recombine_into calls on the same RNG stream.
        for n in [1usize, 2, 3, 4, 5, 9] {
            let mut rng_a = rng();
            let mut rng_b = rng();
            let coded = encode(b"fused outputs", 3, 4, &mut rng_a);
            let _ = encode(b"fused outputs", 3, 4, &mut rng_b);
            let raw: Vec<Vec<u8>> = coded.slices.iter().map(|s| s.to_bytes()).collect();
            let len = raw[0].len();
            let mut seq: Vec<Vec<u8>> = (0..n).map(|_| vec![0u8; len]).collect();
            for out in seq.iter_mut() {
                recombine_into(&raw, &mut rng_a, out);
            }
            let mut fused: Vec<Vec<u8>> = (0..n).map(|_| vec![0u8; len]).collect();
            let mut refs: Vec<&mut [u8]> = fused.iter_mut().map(|o| o.as_mut_slice()).collect();
            recombine_multi_into(&raw, &mut rng_b, &mut refs);
            assert_eq!(fused, seq, "n = {n}");
        }
    }

    #[test]
    fn recombine_multi_into_outputs_decode() {
        let mut r = rng();
        let msg = b"fused regen decodes";
        let coded = encode(msg, 2, 3, &mut r);
        let raw: Vec<Vec<u8>> = coded.slices.iter().map(|s| s.to_bytes()).collect();
        let mut outs: Vec<Vec<u8>> = (0..2).map(|_| vec![0u8; raw[0].len()]).collect();
        let mut refs: Vec<&mut [u8]> = outs.iter_mut().map(|o| o.as_mut_slice()).collect();
        recombine_multi_into(&raw, &mut r, &mut refs);
        let a = InfoSlice::from_bytes(2, coded.block_len, &outs[0]).unwrap();
        let b = InfoSlice::from_bytes(2, coded.block_len, &outs[1]).unwrap();
        assert_eq!(decode(&[a, b], 2).unwrap(), msg);
    }

    #[test]
    fn gf_scaling_sanity() {
        // recombine of [s] with p must equal p·s elementwise.
        let s = InfoSlice::new(vec![1, 0], vec![2, 4, 8]);
        let mut rng = rng();
        let out = recombine(std::slice::from_ref(&s), &mut rng);
        // The ratio payload[i]/coeffs[0] must be constant = p.
        let p = Gf256::new(out.coeffs[0]);
        assert!(!p.is_zero());
        for (o, orig) in out.payload.iter().zip(s.payload.iter()) {
            assert_eq!(Gf256::new(*o), p.mul(Gf256::new(*orig)));
        }
    }
}
