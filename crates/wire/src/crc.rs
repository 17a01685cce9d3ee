//! CRC-32 (IEEE 802.3) for slice-slot integrity.
//!
//! Slots that a relay could not fill (failed parent) are padded with
//! random bytes (§4.3.6); the final consumer of a slice uses this CRC to
//! tell real slices from padding before decoding. This is an integrity
//! sanity check, not an authenticity mechanism — authenticity of data
//! comes from the AEAD layer.
//!
//! # The checksum plane
//!
//! Every data slot is checksummed by its sender and again by its
//! receiver at every hop, which made this the dominant byte cost of the
//! relay path once coding and crypto ran on SIMD. [`crc32`] therefore
//! routes through one of two [`Backend`]s, chosen **once** at first use
//! and cached for the life of the process (the same shape as
//! `slicing_gf::simd` and `slicing_crypto::simd`):
//!
//! * [`Backend::Table`] — slicing-by-8 lookup tables, always available.
//! * [`Backend::Simd`] — carry-less-multiply folding.
//!
//! | arch | kernel | selected when |
//! |------|--------|---------------|
//! | x86_64 | PCLMULQDQ 4 × 128-bit fold + Barrett reduction | `pclmulqdq` + `sse4.1` |
//! | other | — (stays on [`Backend::Table`]) | — |
//!
//! Inputs shorter than [`FOLD_MIN`] (one 4 × 128-bit fold block) never
//! reach the dispatch at all: the choice is made by **length**, not by
//! a setting, so the ~40 B slots of small-message flows pay exactly the
//! table loop they always did. Every backend is bit-identical to the
//! byte-at-a-time definition — the wire format is unchanged.
//!
//! The polynomial stays IEEE 802.3 (not Castagnoli, which x86 has a
//! dedicated instruction for) because it *is* the wire format: every
//! deployed node verifies trailers with it, and the folded kernel runs
//! an order of magnitude faster than the tables on it anyway.
//!
//! As in the other two planes, no setting overrides detection: tests and
//! benches pin a backend per call with [`crc32_on`], and the sweep over
//! [`available_backends`] runs against the bit-serial oracle on every
//! test run.

use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86;
#[cfg(target_arch = "x86_64")]
use x86::detect;

/// No kernel on this architecture: [`crc32`] stays on the tables.
#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Option<(Kernel, &'static str)> {
    None
}

/// The reflected IEEE 802.3 generator polynomial (bit `31 − k` holds the
/// coefficient of `x^k`; the `x^32` term is implicit).
const POLY: u32 = 0xEDB8_8320;

/// Inputs shorter than this stay on the table path whatever the active
/// backend: one 4 × 128-bit fold block, below which the folded kernel
/// has nothing to fold and its fixed reduction cost cannot pay back.
pub const FOLD_MIN: usize = 64;

/// Slicing-by-8 CRC-32 lookup tables (reflected, polynomial
/// 0xEDB88320). `TABLES[0]` is the classic byte-at-a-time table; table
/// `k` maps a byte to its CRC contribution from `k` positions earlier,
/// letting the loop fold eight input bytes per iteration with eight
/// independent loads instead of eight dependent ones.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Which implementation family [`crc32`] runs on for inputs of at least
/// [`FOLD_MIN`] bytes.
///
/// See the [module docs](self) for what each backend is and when it is
/// selected. Obtain the process-wide active backend with [`backend`];
/// pin one per call with [`crc32_on`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Slicing-by-8 lookup tables — the always-available fallback.
    Table,
    /// Runtime-detected `std::arch` kernel (PCLMULQDQ folding).
    Simd,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Table => "table",
            Backend::Simd => "simd",
        })
    }
}

/// A detected kernel: advances the raw CRC register (initial XOR
/// applied, final XOR not) over `data`, which holds at least
/// [`FOLD_MIN`] bytes.
type Kernel = fn(u32, &[u8]) -> u32;

/// The detected kernel and its ISA name, probed once per process.
fn kernel() -> Option<(Kernel, &'static str)> {
    static KERNEL: OnceLock<Option<(Kernel, &'static str)>> = OnceLock::new();
    *KERNEL.get_or_init(detect)
}

/// The process-wide active backend, selected once at first use by
/// runtime CPU feature detection.
pub fn backend() -> Backend {
    match kernel() {
        Some(_) => Backend::Simd,
        None => Backend::Table,
    }
}

/// Human-readable name of the instruction set the active
/// [`Backend::Simd`] kernel uses (`"pclmulqdq"`), or `"none"` when the
/// active backend is the tables.
pub fn isa() -> &'static str {
    kernel().map_or("none", |(_, isa)| isa)
}

/// Every backend usable on this host, slowest first. [`Backend::Table`]
/// is always present; [`Backend::Simd`] only when detection found a
/// usable ISA. Benches and the oracle sweeps iterate this.
pub fn available_backends() -> Vec<Backend> {
    let mut v = vec![Backend::Table];
    if backend() == Backend::Simd {
        v.push(Backend::Simd);
    }
    v
}

/// Advance the raw CRC register over `data` with the slicing-by-8
/// tables (bit-identical to the byte-at-a-time definition).
// lint: hot-path
fn update_table(mut crc: u32, data: &[u8]) -> u32 {
    let (chunks, tail) = data.as_chunks::<8>();
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in chunks {
        let lo = u32::from_le_bytes([b0, b1, b2, b3]) ^ crc;
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][b4 as usize]
            ^ TABLES[2][b5 as usize]
            ^ TABLES[1][b6 as usize]
            ^ TABLES[0][b7 as usize];
    }
    for &b in tail {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Compute the CRC-32 of `data` on the process-wide backend. Inputs
/// shorter than [`FOLD_MIN`] take the table path without consulting the
/// dispatch.
// lint: hot-path
pub fn crc32(data: &[u8]) -> u32 {
    if data.len() >= FOLD_MIN {
        if let Some((kernel, _)) = kernel() {
            return !kernel(0xFFFF_FFFF, data);
        }
    }
    !update_table(0xFFFF_FFFF, data)
}

/// [`crc32`] pinned to `backend` (tests and benches sweep
/// [`available_backends`] through this). The length rule is the same:
/// below [`FOLD_MIN`] every backend is the table path. Asking for
/// [`Backend::Simd`] on a host without a usable ISA computes on the
/// tables.
pub fn crc32_on(backend: Backend, data: &[u8]) -> u32 {
    match backend {
        Backend::Simd => crc32(data),
        Backend::Table => !update_table(0xFFFF_FFFF, data),
    }
}

/// Append the CRC-32 of `data` (little-endian) to it.
pub fn append_crc(data: &mut Vec<u8>) {
    let c = crc32(data);
    data.extend_from_slice(&c.to_le_bytes());
}

/// Write the CRC-32 of `slot[..len-4]` into the trailing 4 bytes — the
/// in-place form of [`append_crc`] for pre-sized slot buffers (the
/// packet builder's "code into the slot, then seal it" pattern).
///
/// # Panics
/// Panics if `slot` is shorter than the 4-byte trailer.
pub fn write_crc(slot: &mut [u8]) {
    assert!(slot.len() >= 4, "slot too short for CRC trailer");
    let (payload, tail) = slot.split_at_mut(slot.len() - 4);
    tail.copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Verify and strip a trailing CRC-32; returns the payload on success.
pub fn check_crc(data: &[u8]) -> Option<&[u8]> {
    let (payload, tail) = data.split_last_chunk::<4>()?;
    (crc32(payload) == u32::from_le_bytes(*tail)).then_some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The definition: one bit at a time, reflected.
    fn bit_serial(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        StdRng::seed_from_u64(seed).fill_bytes(&mut v);
        v
    }

    #[test]
    fn known_vector_on_every_backend() {
        // The canonical CRC-32 check value, alone (table path by length)
        // and as the tail of a buffer long enough to reach the kernels.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        for backend in available_backends() {
            assert_eq!(crc32_on(backend, b"123456789"), 0xCBF4_3926, "{backend}");
            // CRC(m ‖ CRC(m) LE) is the constant residue 0x2144DF1C for
            // every m; long m exercises the kernel on a known answer.
            let mut long = b"123456789".repeat(40);
            let c = crc32_on(backend, &long);
            long.extend_from_slice(&c.to_le_bytes());
            assert_eq!(crc32_on(backend, &long), 0x2144_DF1C, "{backend}");
        }
    }

    #[test]
    fn active_backend_is_available_and_named() {
        assert!(available_backends().contains(&backend()));
        assert!(available_backends().contains(&Backend::Table));
        assert_eq!(backend() == Backend::Simd, isa() != "none");
    }

    #[test]
    fn every_backend_matches_oracle_at_every_length_and_alignment() {
        // One buffer, every (misalignment, length) window of it: the
        // kernels must not care where a slot starts or how it ends.
        let buf = random_bytes(0xC3C, 2048 + 16);
        let backends = available_backends();
        for len in 0..=2048usize {
            for start in 0..16usize {
                let window = &buf[start..start + len];
                let want = bit_serial(window);
                for &backend in &backends {
                    assert_eq!(
                        crc32_on(backend, window),
                        want,
                        "{backend} len {len} start {start}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_backend_matches_oracle_on_64_kib() {
        let big = random_bytes(0xB16, 64 * 1024);
        let want = bit_serial(&big);
        for backend in available_backends() {
            assert_eq!(crc32_on(backend, &big), want, "{backend}");
        }
        assert_eq!(crc32(&big), want);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_and_check_round_trip() {
        let mut data = b"slice contents".to_vec();
        append_crc(&mut data);
        assert_eq!(check_crc(&data).unwrap(), b"slice contents");
    }

    #[test]
    fn write_crc_matches_append_crc() {
        for len in [14usize, 196, 1334] {
            let body = random_bytes(len as u64, len);
            let mut appended = body.clone();
            append_crc(&mut appended);
            let mut in_place = body.clone();
            in_place.extend_from_slice(&[0xAA; 4]);
            write_crc(&mut in_place);
            assert_eq!(in_place, appended);
            assert_eq!(check_crc(&in_place).unwrap(), &body[..]);
        }
    }

    #[test]
    fn corruption_detected() {
        for len in [14usize, 1334] {
            let mut data = random_bytes(7, len);
            append_crc(&mut data);
            data[3] ^= 0x40;
            assert!(check_crc(&data).is_none());
        }
    }

    #[test]
    fn too_short_rejected() {
        assert!(check_crc(&[1, 2, 3]).is_none());
    }

    #[test]
    fn random_padding_rejected() {
        // A random slot should essentially never pass the CRC (seeded:
        // these 100 draws do not).
        let mut rng = StdRng::seed_from_u64(0x9AD);
        for len in [40usize, 1338] {
            for _ in 0..50 {
                let mut data = vec![0u8; len];
                rng.fill_bytes(&mut data);
                assert!(check_crc(&data).is_none());
            }
        }
    }
}
