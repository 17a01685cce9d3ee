//! Deterministic message payloads: every byte follows from
//! `(seed, workload, session, index, due time)`, so the harness can
//! re-derive what the destination must have decoded and compare.
//!
//! Layout: `session u32 ‖ index u32 ‖ due_ns u64 ‖ keystream…` (little
//! endian). The header lets a delivery be matched to its send record
//! without trusting the transport's own ids; the keystream makes any
//! corrupted, truncated or cross-wired delivery fail the comparison.

/// Bytes of the cleartext header.
pub const HEADER_LEN: usize = 16;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mix several words into one seed (also used for per-flow graph seeds).
pub fn mix(words: &[u64]) -> u64 {
    let mut state = 0x5EED_5EED_5EED_5EED;
    for &w in words {
        state ^= w;
        splitmix(&mut state);
    }
    splitmix(&mut state)
}

/// What identifies one message of one run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgKey {
    pub session: u32,
    pub index: u32,
    /// When the message was due to be sent, ns since the run's epoch.
    pub due_ns: u64,
}

/// Generates and checks the payloads of one `(seed, workload)` run.
#[derive(Clone, Copy)]
pub struct Payloads {
    base: u64,
}

impl Payloads {
    pub fn new(seed: u64, workload: &str) -> Self {
        let tag = workload
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(131) ^ u64::from(b));
        Payloads {
            base: mix(&[seed, tag]),
        }
    }

    /// Fill `buf` (at least [`HEADER_LEN`] bytes) with the message for
    /// `key`.
    pub fn fill(&self, key: MsgKey, buf: &mut [u8]) {
        buf[0..4].copy_from_slice(&key.session.to_le_bytes());
        buf[4..8].copy_from_slice(&key.index.to_le_bytes());
        buf[8..16].copy_from_slice(&key.due_ns.to_le_bytes());
        let mut state = mix(&[
            self.base,
            u64::from(key.session) << 32 | u64::from(key.index),
            key.due_ns,
        ]);
        for chunk in buf[HEADER_LEN..].chunks_mut(8) {
            let word = splitmix(&mut state).to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    /// The `(session, index)` a delivered payload claims, if it is long
    /// enough to claim anything.
    pub fn claimed(delivered: &[u8]) -> Option<(u32, u32)> {
        let session = delivered.get(0..4)?.try_into().ok()?;
        let index = delivered.get(4..8)?.try_into().ok()?;
        Some((u32::from_le_bytes(session), u32::from_le_bytes(index)))
    }

    /// Whether `delivered` is byte for byte the `len`-byte message for
    /// `key`. `scratch` is reused between calls to avoid allocating
    /// per check.
    pub fn verify(&self, key: MsgKey, len: usize, delivered: &[u8], scratch: &mut Vec<u8>) -> bool {
        if delivered.len() != len || len < HEADER_LEN {
            return false;
        }
        scratch.resize(len, 0);
        self.fill(key, scratch);
        scratch == delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_accepts_own_payload_and_nothing_else() {
        let p = Payloads::new(7, "engine_small");
        let key = MsgKey {
            session: 3,
            index: 9,
            due_ns: 123_456,
        };
        let mut buf = vec![0u8; 64];
        p.fill(key, &mut buf);
        let mut scratch = Vec::new();
        assert_eq!(Payloads::claimed(&buf), Some((3, 9)));
        assert!(p.verify(key, 64, &buf, &mut scratch));
        assert!(!p.verify(MsgKey { index: 10, ..key }, 64, &buf, &mut scratch));
        assert!(!p.verify(key, 64, &buf[..63], &mut scratch), "truncated");
        buf[40] ^= 1;
        assert!(!p.verify(key, 64, &buf, &mut scratch), "one bit flipped");
        let other_seed = Payloads::new(8, "engine_small");
        buf[40] ^= 1;
        assert!(!other_seed.verify(key, 64, &buf, &mut scratch));
        let other_workload = Payloads::new(7, "engine_bulk");
        assert!(!other_workload.verify(key, 64, &buf, &mut scratch));
    }
}
