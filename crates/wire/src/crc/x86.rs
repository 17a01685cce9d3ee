//! x86_64 kernel: CRC-32 by carry-less-multiply folding.
//!
//! The message is a polynomial over GF(2); its CRC is that polynomial
//! (times `x^32`) modulo `P`. Because `A·x^n ≡ A·(x^n mod P)`, a 128-bit
//! accumulator can be carried `n` bits forward by two 64 × 64 carry-less
//! multiplies against precomputed `x^n mod P` constants and XORed onto
//! the message block that lies there — congruence mod `P` is all a CRC
//! needs. Four independent accumulators hide the multiplier's latency;
//! at the end they are folded into one, the 128 bits are reduced to 64
//! and then to 32 by a Barrett reduction (two more multiplies: by
//! `µ = ⌊x^64 / P⌋`, then by `P`).
//!
//! Everything is in the *reflected* bit order the IEEE CRC uses, so the
//! low qword of a register is the earlier half of a block. The constants
//! are derived by the `const fn`s below, never pasted.
//!
//! The `unsafe` here is confined to the unaligned vector loads (from
//! exactly-sized array references) and to the entry point that calls
//! `#[target_feature]` code after [`detect`] has verified the features.

use std::arch::x86_64::*;

use super::{update_table, Kernel, POLY};

/// `x^n mod P` in the reflected representation, by `n` multiplications
/// by `x` (shift toward bit 0; the coefficient that falls off is `x^32`,
/// which reduces to `P`).
const fn xpow_mod_p(n: u32) -> u32 {
    let mut r = 0x8000_0000u32; // x^0
    let mut i = 0;
    while i < n {
        r = if r & 1 != 0 { (r >> 1) ^ POLY } else { r >> 1 };
        i += 1;
    }
    r
}

/// A folding constant as the carry-less multiplier consumes it:
/// `x^n mod P`, reflected, pre-shifted by one because the product of two
/// reflected 64-bit operands lands one bit low in the 128-bit result.
const fn fold_const(n: u32) -> u64 {
    (xpow_mod_p(n) as u64) << 1
}

/// The `(low-half, high-half)` multiplier pair that advances a 128-bit
/// accumulator by `distance_bits` of message: the low half of a
/// reflected register is the *earlier* 64 bits, so it takes the larger
/// exponent.
const fn fold_pair(distance_bits: u32) -> (u64, u64) {
    (
        fold_const(distance_bits + 32),
        fold_const(distance_bits - 32),
    )
}

/// Barrett quotient `⌊x^64 / P⌋` (33 bits), reflected: long division of
/// `x^64` by the full 33-bit generator in the normal bit order, then a
/// 33-bit reversal.
const fn barrett_mu() -> u64 {
    // The generator in normal (MSB-first) order, x^32 term included.
    let p = (POLY.reverse_bits() as u64) | (1 << 32);
    let mut rem = 1u64;
    let mut q = 0u64;
    let mut i = 0;
    while i < 64 {
        rem <<= 1;
        q <<= 1;
        if rem & (1 << 32) != 0 {
            rem ^= p;
            q |= 1;
        }
        i += 1;
    }
    q.reverse_bits() >> 31
}

/// The full 33-bit generator, reflected (the Barrett multiplier that
/// turns the quotient estimate back into a multiple of `P`).
const fn barrett_poly() -> u64 {
    ((POLY as u64) << 1) | 1
}

/// Carries a 128-bit accumulator four blocks (512 bits) forward: the
/// stride of the 4 × 128-bit loop.
const FOLD_4: (u64, u64) = fold_pair(512);
/// Carries a 128-bit accumulator one block forward: merges the four
/// accumulators and absorbs trailing blocks once the loop is done.
const FOLD_1: (u64, u64) = fold_pair(128);
/// `x^64 mod P`: the 64 → 32 step of the final reduction.
const K_64: u64 = fold_const(64);

/// The kernel this host supports, with its ISA name.
pub(super) fn detect() -> Option<(Kernel, &'static str)> {
    (is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1"))
        .then_some((update_pclmul as Kernel, "pclmulqdq"))
}

/// Kernel entry. Only reachable through [`detect`].
fn update_pclmul(crc: u32, data: &[u8]) -> u32 {
    // SAFETY: `detect` hands this function out only after verifying
    // pclmulqdq and sse4.1 on the running CPU.
    unsafe { fold_pclmul(crc, data) }
}

#[inline]
#[target_feature(enable = "sse2")]
fn load128(block: &[u8; 16]) -> __m128i {
    // SAFETY: `block` is 16 readable bytes and the unaligned load has no
    // alignment requirement.
    unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
}

/// A `(low-half, high-half)` constant pair as a multiplier operand.
#[inline]
#[target_feature(enable = "sse2")]
fn pair128(k: (u64, u64)) -> __m128i {
    _mm_set_epi64x(k.1 as i64, k.0 as i64)
}

/// Carry `x` forward by the distance `k` was built for.
#[inline]
#[target_feature(enable = "pclmulqdq,sse2")]
fn fold128(x: __m128i, k: __m128i) -> __m128i {
    _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(x, k),
        _mm_clmulepi64_si128::<0x11>(x, k),
    )
}

/// Reduce a 128-bit accumulator to the 32-bit CRC register.
#[inline]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn reduce128(x: __m128i) -> u32 {
    let low32 = _mm_setr_epi32(!0, 0, !0, 0);
    // 128 → 64: carry the low qword 64 bits forward onto the high one.
    let x = _mm_xor_si128(
        _mm_srli_si128::<8>(x),
        _mm_clmulepi64_si128::<0x10>(x, pair128(FOLD_1)),
    );
    // 64 → 32 plus the 32 bits still to be shifted out.
    let x = _mm_xor_si128(
        _mm_srli_si128::<4>(x),
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), pair128((K_64, 0))),
    );
    // Barrett: quotient estimate by µ, back to a multiple of P, cancel.
    let barrett = pair128((barrett_poly(), barrett_mu()));
    let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), barrett);
    let m = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), barrett);
    _mm_extract_epi32::<1>(_mm_xor_si128(x, m)) as u32
}

/// The 4 × 128-bit fold over the whole 16-byte blocks of `data`; the
/// sub-block tail goes through the tables, as does an input with fewer
/// than four whole blocks (never produced by the dispatch, which
/// guarantees [`super::FOLD_MIN`] bytes).
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn fold_pclmul(crc: u32, data: &[u8]) -> u32 {
    let (blocks, tail) = data.as_chunks::<16>();
    let (quads, singles) = blocks.as_chunks::<4>();
    let Some((first, quads)) = quads.split_first() else {
        return update_table(crc, data);
    };
    let mut x = [
        load128(&first[0]),
        load128(&first[1]),
        load128(&first[2]),
        load128(&first[3]),
    ];
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));
    let k = pair128(FOLD_4);
    for quad in quads {
        for (acc, block) in x.iter_mut().zip(quad) {
            *acc = _mm_xor_si128(fold128(*acc, k), load128(block));
        }
    }
    // Four accumulators → one, then the blocks short of a full stride.
    let k = pair128(FOLD_1);
    let [mut acc, rest @ ..] = x;
    for next in rest {
        acc = _mm_xor_si128(fold128(acc, k), next);
    }
    for block in singles {
        acc = _mm_xor_si128(fold128(acc, k), load128(block));
    }
    update_table(reduce128(acc), tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `x^n mod P` by long division in the *normal* bit order (MSB-first
    /// generator 0x04C11DB7) — a different representation from the
    /// reflected `const fn`, so a slip in either shows.
    fn xpow_mod_p_oracle(n: u32) -> u32 {
        let mut r = 1u32;
        for _ in 0..n {
            let carry = r & 0x8000_0000 != 0;
            r <<= 1;
            if carry {
                r ^= 0x04C1_1DB7;
            }
        }
        r
    }

    #[test]
    fn fold_constants_match_bit_serial_oracle() {
        for n in [32u32, 64, 96, 160, 480, 544] {
            assert_eq!(xpow_mod_p(n), xpow_mod_p_oracle(n).reverse_bits(), "x^{n}");
        }
        // 4 × 128-bit and single 128-bit fold distances, and the
        // 64 → 32 step, against the published values for this
        // polynomial.
        assert_eq!(fold_pair(512), (0x1_5444_2BD4, 0x1_C6E4_1596));
        assert_eq!(fold_pair(128), (0x1_7519_97D0, 0x0_CCAA_009E));
        assert_eq!(fold_const(64), 0x1_63CD_6124);
    }

    #[test]
    fn barrett_constants_match_bit_serial_oracle() {
        // µ·P = x^64 + (remainder of degree < 32): multiply back, bit by
        // bit in the normal order, and check the quotient property.
        let mu = barrett_mu().reverse_bits() >> 31; // back to normal order
        let p = 0x1_04C1_1DB7u64;
        let mut product = 0u128;
        for bit in 0..33 {
            if mu >> bit & 1 != 0 {
                product ^= (p as u128) << bit;
            }
        }
        assert_eq!(
            product >> 32,
            1u128 << 32,
            "µ·P must equal x^64 + r, deg r < 32"
        );
        assert_eq!(barrett_mu(), 0x1_F701_1641);
        assert_eq!(barrett_poly(), 0x1_DB71_0641);
        assert_eq!(barrett_poly().reverse_bits() >> 31, p);
    }
}
