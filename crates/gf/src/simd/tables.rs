//! Split-nibble multiplication tables and the polynomial reduction the
//! SIMD kernels share.
//!
//! The PSHUFB trick (ISA-L / Reed–Solomon style) computes `c · x` for
//! 16/32 bytes at once by decomposing `x` into nibbles: because
//! multiplication by a fixed `c` is linear over GF(2),
//! `c · x = c · x_lo ⊕ c · (x_hi << 4)`, and each term is a lookup into
//! a 16-entry table — exactly the shape a byte-shuffle instruction
//! evaluates 16 lanes at a time. Both 16-entry tables for every
//! coefficient are baked at compile time into [`NIB8`] — 32 bytes per
//! coefficient, 8 KiB total, so a kernel invocation is two table loads
//! with no setup multiply.

use crate::gf256::{build_exp, build_log};

/// Per-coefficient split-nibble tables for GF(2⁸), built at compile time.
///
/// `NIB8[c][x]` (for `x < 16`) is `c · x`; `NIB8[c][16 + x]` is
/// `c · (x << 4)`. A full product is
/// `NIB8[c][b & 0xF] ^ NIB8[c][16 + (b >> 4)]`.
pub(crate) static NIB8: [[u8; 32]; 256] = build_nib8();

const fn build_nib8() -> [[u8; 32]; 256] {
    let exp = build_exp();
    let log = build_log();
    let mut t = [[0u8; 32]; 256];
    let mut c = 1usize;
    while c < 256 {
        let lc = log[c] as usize;
        let mut x = 1usize;
        while x < 16 {
            t[c][x] = exp[lc + log[x] as usize];
            t[c][16 + x] = exp[lc + log[x << 4] as usize];
            x += 1;
        }
        c += 1;
    }
    t
}

/// Reduce an unreduced carry-less product/accumulator of degree ≤ 14
/// modulo the GF(2⁸) polynomial `x⁸ + x⁴ + x³ + x² + 1` (0x11D).
///
/// The SIMD dot kernels XOR-accumulate *unreduced* 15-bit products
/// (reduction is linear, so one pass at the end suffices); this folds
/// the result back into the field.
pub(crate) fn reduce15(mut v: u32) -> u8 {
    for bit in (8..16).rev() {
        if v & (1 << bit) != 0 {
            v ^= (crate::gf256::POLY as u32) << (bit - 8);
        }
    }
    v as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gf256;

    #[test]
    fn nib8_decomposition_is_exact() {
        for c in 0..=255u8 {
            for b in 0..=255u8 {
                let via_nibbles =
                    NIB8[c as usize][(b & 0xF) as usize] ^ NIB8[c as usize][16 + (b >> 4) as usize];
                assert_eq!(via_nibbles, Gf256::mul_bytes(c, b), "c={c} b={b}");
            }
        }
    }

    #[test]
    fn reductions_match_field_multiplication() {
        // An unreduced schoolbook product reduced by reduce15 must equal
        // the table multiply.
        for (a, b) in [(0x53u8, 0xCAu8), (0xFF, 0xFF), (2, 0x80), (1, 1)] {
            let mut un = 0u32;
            for i in 0..8 {
                if b & (1 << i) != 0 {
                    un ^= (a as u32) << i;
                }
            }
            assert_eq!(reduce15(un), Gf256::mul_bytes(a, b));
        }
    }
}
