//! Per-hop slice transforms that defeat pattern-insertion tracking
//! (§9.4(a)).
//!
//! Colluding attackers in non-consecutive stages could recognise a flow by
//! inserting a bit pattern and spotting it downstream. The defence: the
//! source pre-applies a chain of random invertible transforms
//! `T₁ ∘ T₂ ∘ … ∘ T_{i−1}` to each slice, and sends each relay on the
//! slice's path the inverse of one `T_k` (inside its confidential `I_x`).
//! Each hop strips one layer, so the slice's bits look completely
//! different on every link, and only the final recipient sees the
//! original.
//!
//! Our `T` is an affine map over the slice bytes: multiply by a nonzero
//! GF(2⁸) scalar and add a ChaCha20 keystream pad derived from a secret
//! 16-byte seed. Affine maps compose and invert cheaply, and with a secret
//! seed the padded output is unpredictable to an observer.

use rand::Rng;

use slicing_crypto::chacha20::ChaCha20;
use slicing_gf::{bulk, Gf256};

/// Length of a transform seed in bytes.
pub const SEED_LEN: usize = 16;

/// One invertible per-hop transform.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct HopTransform {
    /// Nonzero GF(2⁸) multiplier.
    pub mult: u8,
    /// Pad seed (expanded with ChaCha20).
    pub seed: [u8; SEED_LEN],
}

impl std::fmt::Debug for HopTransform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HopTransform(mult={:#04x}, seed=..)", self.mult)
    }
}

impl HopTransform {
    /// Sample a random transform.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut seed = [0u8; SEED_LEN];
        rng.fill_bytes(&mut seed);
        HopTransform {
            mult: Gf256::random_nonzero(rng).value(),
            seed,
        }
    }

    /// Serialized length.
    pub const WIRE_LEN: usize = 1 + SEED_LEN;

    /// Serialize as `mult ‖ seed`.
    pub fn to_bytes(&self) -> [u8; Self::WIRE_LEN] {
        let mut out = [0u8; Self::WIRE_LEN];
        out[0] = self.mult;
        out[1..].copy_from_slice(&self.seed);
        out
    }

    /// Deserialize; `None` if the multiplier is zero (not invertible).
    pub fn from_bytes(bytes: &[u8; Self::WIRE_LEN]) -> Option<Self> {
        if bytes[0] == 0 {
            return None;
        }
        let mut seed = [0u8; SEED_LEN];
        seed.copy_from_slice(&bytes[1..]);
        Some(HopTransform {
            mult: bytes[0],
            seed,
        })
    }

    fn pad(&self, len: usize) -> Vec<u8> {
        let mut key = [0u8; 32];
        key[..SEED_LEN].copy_from_slice(&self.seed);
        let mut pad = vec![0u8; len];
        ChaCha20::xor(&key, &[0u8; 12], 0, &mut pad);
        pad
    }

    /// Apply the forward transform in place: `b ← mult·b + pad`, fused
    /// into a single pass over the buffer.
    pub fn apply(&self, data: &mut [u8]) {
        debug_assert!(self.mult != 0);
        let pad = self.pad(data.len());
        bulk::mul_xor_slice(data, self.mult, &pad);
    }

    /// Apply the inverse transform in place: `b ← mult⁻¹·(b − pad)`,
    /// fused into a single pass over the buffer.
    pub fn unapply(&self, data: &mut [u8]) {
        debug_assert!(self.mult != 0);
        let inv = Gf256::new(self.mult).inv().value();
        let pad = self.pad(data.len());
        bulk::xor_mul_slice(data, inv, &pad);
    }
}

/// Apply a whole source-side chain `T₁ ∘ … ∘ T_n` to a slice buffer.
///
/// The chain is applied so that relays unapply in **path order**: the
/// first relay on the path strips `chain[0]`, the second `chain[1]`, …
/// (i.e. the source applies them in reverse).
pub fn apply_chain(chain: &[HopTransform], data: &mut [u8]) {
    for t in chain.iter().rev() {
        t.apply(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    #[test]
    fn apply_unapply_round_trip() {
        let mut rng = rng();
        let t = HopTransform::random(&mut rng);
        let original: Vec<u8> = (0..200u32).map(|i| (i % 256) as u8).collect();
        let mut data = original.clone();
        t.apply(&mut data);
        assert_ne!(data, original);
        t.unapply(&mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn chain_strips_in_path_order() {
        let mut rng = rng();
        let chain: Vec<HopTransform> = (0..4).map(|_| HopTransform::random(&mut rng)).collect();
        let original = b"pattern-free slice".to_vec();
        let mut data = original.clone();
        apply_chain(&chain, &mut data);
        // Each relay k strips chain[k] in order; after all, original returns.
        for t in &chain {
            assert_ne!(data, original, "pattern visible mid-path");
            t.unapply(&mut data);
        }
        assert_eq!(data, original);
    }

    #[test]
    fn intermediate_states_all_differ() {
        // The same slice must look different on every link (§9.4(a)).
        let mut rng = rng();
        let chain: Vec<HopTransform> = (0..5).map(|_| HopTransform::random(&mut rng)).collect();
        let mut data = vec![0xAAu8; 64];
        apply_chain(&chain, &mut data);
        let mut seen = vec![data.clone()];
        for t in &chain {
            t.unapply(&mut data);
            assert!(!seen.contains(&data), "repeated wire pattern");
            seen.push(data.clone());
        }
    }

    #[test]
    fn wire_round_trip() {
        let mut rng = rng();
        let t = HopTransform::random(&mut rng);
        let b = t.to_bytes();
        assert_eq!(HopTransform::from_bytes(&b).unwrap(), t);
    }

    #[test]
    fn zero_multiplier_rejected() {
        let mut b = [0u8; HopTransform::WIRE_LEN];
        b[5] = 3;
        assert!(HopTransform::from_bytes(&b).is_none());
    }

    #[test]
    fn empty_buffer_is_fine() {
        let mut rng = rng();
        let t = HopTransform::random(&mut rng);
        let mut data: Vec<u8> = vec![];
        t.apply(&mut data);
        t.unapply(&mut data);
        assert!(data.is_empty());
    }
}
