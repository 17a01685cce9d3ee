//! Runtime-dispatched GF(2⁸) kernels over byte slices — the workspace's
//! one shared coding hot path.
//!
//! Every coded byte in the system flows through these operations:
//!
//! * [`mul_add_slice`] — `dst[i] ^= c · src[i]` (axpy), the inner loop of
//!   slice encoding, Gaussian decode back-substitution, and relay
//!   network re-coding (§7.1 of the paper measures exactly this: coding
//!   costs ~`d` of these multiplies per byte);
//! * [`mul_slice`] / [`mul_slice_into`] — `dst[i] = c · dst[i]` /
//!   `dst[i] = c · src[i]`, the per-hop transform multiply;
//! * [`mul_xor_slice`] / [`xor_mul_slice`] — the fused per-hop
//!   transform+pad passes;
//! * [`dot_slice8`] — varying × varying dot product, the decode inner
//!   product;
//! * [`mul_add_fused`] — the multi-output recombine kernel: `d`
//!   accumulators fed per pass over each source slice, instead of `d`
//!   independent axpy sweeps;
//! * [`xor_slice`] — `dst[i] ^= src[i]`, the `c = 1` fast path.
//!
//! Each entry point dispatches once through [`crate::simd::backend`]
//! (runtime CPU detection) to one of three implementations — see
//! [`crate::simd`] for the backend taxonomy:
//!
//! * **scalar** — per-element log/exp arithmetic, the oracle;
//! * **swar** — one 256-byte row of a 64 KiB compile-time multiplication
//!   table per coefficient (L1-resident across the slice), `u64` SWAR
//!   XOR;
//! * **simd** — split-nibble PSHUFB multiplies and carry-less-multiply
//!   dot products (the x86_64 kernels under `crate::simd`).
//!
//! The `*_on` variants take an explicit [`Backend`] so benches and the
//! proptest oracles can pin and compare paths inside one process.

use crate::gf256::{build_exp, build_log};
use crate::simd::{self, Backend};
use crate::Gf256;

/// `MUL[a][b] = a · b` in GF(2⁸), built at compile time.
static MUL: [[u8; 256]; 256] = build_mul_table();

const fn build_mul_table() -> [[u8; 256]; 256] {
    let exp = build_exp();
    let log = build_log();
    let mut t = [[0u8; 256]; 256];
    let mut a = 1usize;
    while a < 256 {
        let mut b = 1usize;
        while b < 256 {
            t[a][b] = exp[log[a] as usize + log[b] as usize];
            b += 1;
        }
        a += 1;
    }
    t
}

/// The 256-byte multiplication row for a fixed coefficient:
/// `mul_row(c)[x] == c · x`.
///
/// Exposed so callers composing their own kernels (e.g. fused
/// multiply-and-pad loops) can reuse the shared table.
#[inline]
pub fn mul_row(c: u8) -> &'static [u8; 256] {
    &MUL[c as usize]
}

/// `dst[i] ^= src[i]` for all `i`, eight bytes at a time.
///
/// Backend-independent: XOR is the same word-wide operation everywhere,
/// so this kernel has no `_on` variant.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn xor_slice(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor_slice length mismatch");
    let mut dst_words = dst.chunks_exact_mut(8);
    let mut src_words = src.chunks_exact(8);
    for (d, s) in dst_words.by_ref().zip(src_words.by_ref()) {
        let word = u64::from_ne_bytes(d.try_into().expect("8-byte chunk"))
            ^ u64::from_ne_bytes(s.try_into().expect("8-byte chunk"));
        d.copy_from_slice(&word.to_ne_bytes());
    }
    for (d, s) in dst_words
        .into_remainder()
        .iter_mut()
        .zip(src_words.remainder())
    {
        *d ^= s;
    }
}

// ---- GF(2⁸) slice transforms ----------------------------------------------

/// `dst[i] = c · dst[i]` for all `i` (in-place scale).
#[inline]
pub fn mul_slice(dst: &mut [u8], c: u8) {
    mul_slice_on(simd::backend(), dst, c);
}

/// [`mul_slice`] pinned to an explicit backend.
pub fn mul_slice_on(backend: Backend, dst: &mut [u8], c: u8) {
    match backend {
        Backend::Scalar => {
            for d in dst.iter_mut() {
                *d = Gf256::mul_bytes(c, *d);
            }
        }
        Backend::Swar => match c {
            0 => dst.fill(0),
            1 => {}
            _ => {
                let row = mul_row(c);
                for d in dst.iter_mut() {
                    *d = row[*d as usize];
                }
            }
        },
        Backend::Simd => match c {
            0 => dst.fill(0),
            1 => {}
            _ => simd::kernels::mul8(dst, c),
        },
    }
}

/// `dst[i] = c · src[i]` for all `i` (scale into a destination).
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn mul_slice_into(dst: &mut [u8], c: u8, src: &[u8]) {
    mul_slice_into_on(simd::backend(), dst, c, src);
}

/// [`mul_slice_into`] pinned to an explicit backend.
pub fn mul_slice_into_on(backend: Backend, dst: &mut [u8], c: u8, src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "mul_slice_into length mismatch");
    match backend {
        Backend::Scalar => {
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                *d = Gf256::mul_bytes(c, s);
            }
        }
        Backend::Swar => match c {
            0 => dst.fill(0),
            1 => dst.copy_from_slice(src),
            _ => {
                let row = mul_row(c);
                for (d, &s) in dst.iter_mut().zip(src.iter()) {
                    *d = row[s as usize];
                }
            }
        },
        Backend::Simd => match c {
            0 => dst.fill(0),
            1 => dst.copy_from_slice(src),
            _ => simd::kernels::mul8_into(dst, c, src),
        },
    }
}

/// `dst[i] = c · dst[i] ^ pad[i]` for all `i` — the fused forward
/// per-hop transform (scale then pad) in one pass over the buffer.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn mul_xor_slice(dst: &mut [u8], c: u8, pad: &[u8]) {
    mul_xor_slice_on(simd::backend(), dst, c, pad);
}

/// [`mul_xor_slice`] pinned to an explicit backend.
pub fn mul_xor_slice_on(backend: Backend, dst: &mut [u8], c: u8, pad: &[u8]) {
    assert_eq!(dst.len(), pad.len(), "mul_xor_slice length mismatch");
    match backend {
        Backend::Scalar => {
            for (d, &p) in dst.iter_mut().zip(pad.iter()) {
                *d = Gf256::mul_bytes(c, *d) ^ p;
            }
        }
        Backend::Swar => {
            if c == 1 {
                xor_slice(dst, pad);
                return;
            }
            let row = mul_row(c);
            for (d, &p) in dst.iter_mut().zip(pad.iter()) {
                *d = row[*d as usize] ^ p;
            }
        }
        Backend::Simd => match c {
            0 => dst.copy_from_slice(pad),
            1 => xor_slice(dst, pad),
            _ => simd::kernels::mul_xor8(dst, c, pad),
        },
    }
}

/// `dst[i] = c · (dst[i] ^ pad[i])` for all `i` — the fused inverse
/// per-hop transform (unpad then scale) in one pass over the buffer.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn xor_mul_slice(dst: &mut [u8], c: u8, pad: &[u8]) {
    xor_mul_slice_on(simd::backend(), dst, c, pad);
}

/// [`xor_mul_slice`] pinned to an explicit backend.
pub fn xor_mul_slice_on(backend: Backend, dst: &mut [u8], c: u8, pad: &[u8]) {
    assert_eq!(dst.len(), pad.len(), "xor_mul_slice length mismatch");
    match backend {
        Backend::Scalar => {
            for (d, &p) in dst.iter_mut().zip(pad.iter()) {
                *d = Gf256::mul_bytes(c, *d ^ p);
            }
        }
        Backend::Swar => {
            if c == 1 {
                xor_slice(dst, pad);
                return;
            }
            let row = mul_row(c);
            for (d, &p) in dst.iter_mut().zip(pad.iter()) {
                *d = row[(*d ^ p) as usize];
            }
        }
        Backend::Simd => match c {
            0 => dst.fill(0),
            1 => xor_slice(dst, pad),
            _ => simd::kernels::xor_mul8(dst, c, pad),
        },
    }
}

/// `dst[i] ^= c · src[i]` for all `i` — the axpy kernel.
///
/// `c = 0` is a no-op; `c = 1` takes the SWAR [`xor_slice`] path; other
/// coefficients stream through the active backend's multiply kernel.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn mul_add_slice(dst: &mut [u8], c: u8, src: &[u8]) {
    mul_add_slice_on(simd::backend(), dst, c, src);
}

/// [`mul_add_slice`] pinned to an explicit backend.
pub fn mul_add_slice_on(backend: Backend, dst: &mut [u8], c: u8, src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "mul_add_slice length mismatch");
    match backend {
        Backend::Scalar => {
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                *d ^= Gf256::mul_bytes(c, s);
            }
        }
        Backend::Swar => match c {
            0 => {}
            1 => xor_slice(dst, src),
            _ => {
                let row = mul_row(c);
                for (d, &s) in dst.iter_mut().zip(src.iter()) {
                    *d ^= row[s as usize];
                }
            }
        },
        Backend::Simd => match c {
            0 => {}
            1 => xor_slice(dst, src),
            _ => simd::kernels::axpy8(dst, c, src),
        },
    }
}

/// Dot product `Σ a[i]·b[i]` over GF(2⁸) byte slices — both operands
/// varying, so no coefficient table applies; the SIMD path uses
/// carry-less multiplication instead and falls back to the 2-D table
/// when the host lacks it.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn dot_slice8(a: &[u8], b: &[u8]) -> u8 {
    dot_slice8_on(simd::backend(), a, b)
}

/// [`dot_slice8`] pinned to an explicit backend.
pub fn dot_slice8_on(backend: Backend, a: &[u8], b: &[u8]) -> u8 {
    assert_eq!(a.len(), b.len(), "dot_slice8 length mismatch");
    let swar = |a: &[u8], b: &[u8]| {
        let mut acc = 0u8;
        for (&x, &y) in a.iter().zip(b.iter()) {
            acc ^= MUL[x as usize][y as usize];
        }
        acc
    };
    match backend {
        Backend::Scalar => {
            let mut acc = 0u8;
            for (&x, &y) in a.iter().zip(b.iter()) {
                acc ^= Gf256::mul_bytes(x, y);
            }
            acc
        }
        Backend::Swar => swar(a, b),
        Backend::Simd => simd::kernels::dot8(a, b).unwrap_or_else(|| swar(a, b)),
    }
}

/// Fused multi-coefficient accumulate:
/// `outs[j][k] ^= Σ_i coeffs[j·srcs.len() + i] · srcs[i][k]` with
/// coefficients laid out output-major.
///
/// The SIMD path loads each source block once and feeds up to four
/// output accumulators per pass; scalar and SWAR decompose into
/// `outs.len() · srcs.len()` independent [`mul_add_slice`] sweeps (same
/// result, more memory traffic).
///
/// # Panics
/// Panics unless `coeffs.len() == outs.len() · srcs.len()` and every
/// output and source slice has the same length.
#[inline]
pub fn mul_add_fused(outs: &mut [&mut [u8]], coeffs: &[u8], srcs: &[&[u8]]) {
    mul_add_fused_on(simd::backend(), outs, coeffs, srcs);
}

/// [`mul_add_fused`] pinned to an explicit backend.
pub fn mul_add_fused_on(backend: Backend, outs: &mut [&mut [u8]], coeffs: &[u8], srcs: &[&[u8]]) {
    assert_eq!(
        coeffs.len(),
        outs.len() * srcs.len(),
        "mul_add_fused coefficient count mismatch"
    );
    let len = srcs
        .first()
        .map_or_else(|| outs.first().map_or(0, |o| o.len()), |s| s.len());
    assert!(
        outs.iter().all(|o| o.len() == len) && srcs.iter().all(|s| s.len() == len),
        "mul_add_fused length mismatch"
    );
    match backend {
        Backend::Scalar | Backend::Swar => {
            let nsrc = srcs.len();
            for (j, out) in outs.iter_mut().enumerate() {
                for (i, src) in srcs.iter().enumerate() {
                    mul_add_slice_on(backend, out, coeffs[j * nsrc + i], src);
                }
            }
        }
        Backend::Simd => simd::kernels::fused8(outs, coeffs, srcs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gf256;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    const LENS: [usize; 5] = [0, 1, 7, 64, 4096];

    fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        rng.fill_bytes(&mut v);
        v
    }

    #[test]
    fn mul_table_matches_scalar() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul_row(a)[b as usize], Gf256::mul_bytes(a, b));
            }
        }
    }

    #[test]
    fn xor_slice_matches_scalar_all_lengths() {
        let mut rng = StdRng::seed_from_u64(1);
        for len in LENS {
            let src = random_bytes(&mut rng, len);
            let mut dst = random_bytes(&mut rng, len);
            let expect: Vec<u8> = dst.iter().zip(src.iter()).map(|(d, s)| d ^ s).collect();
            xor_slice(&mut dst, &src);
            assert_eq!(dst, expect, "len {len}");
        }
    }

    #[test]
    fn mul_add_slice_matches_scalar_all_lengths_all_backends() {
        let mut rng = StdRng::seed_from_u64(2);
        for backend in simd::available_backends() {
            for len in LENS {
                for c in [0u8, 1, 2, 17, 255] {
                    let src = random_bytes(&mut rng, len);
                    let mut dst = random_bytes(&mut rng, len);
                    let expect: Vec<u8> = dst
                        .iter()
                        .zip(src.iter())
                        .map(|(&d, &s)| d ^ Gf256::mul_bytes(c, s))
                        .collect();
                    mul_add_slice_on(backend, &mut dst, c, &src);
                    assert_eq!(dst, expect, "backend {backend}, len {len}, c {c}");
                }
            }
        }
    }

    #[test]
    fn mul_slice_matches_scalar_all_backends() {
        let mut rng = StdRng::seed_from_u64(3);
        for backend in simd::available_backends() {
            for len in LENS {
                let c: u8 = rng.gen();
                let orig = random_bytes(&mut rng, len);
                let mut dst = orig.clone();
                mul_slice_on(backend, &mut dst, c);
                let expect: Vec<u8> = orig.iter().map(|&b| Gf256::mul_bytes(c, b)).collect();
                assert_eq!(dst, expect, "backend {backend}, len {len}, c {c}");
            }
        }
    }

    #[test]
    fn mul_slice_into_matches_in_place() {
        let mut rng = StdRng::seed_from_u64(4);
        for backend in simd::available_backends() {
            for len in LENS {
                for c in [0u8, 1, 99] {
                    let src = random_bytes(&mut rng, len);
                    let mut a = src.clone();
                    mul_slice_on(backend, &mut a, c);
                    let mut b = vec![0xFFu8; len];
                    mul_slice_into_on(backend, &mut b, c, &src);
                    assert_eq!(a, b, "backend {backend}, len {len}, c {c}");
                }
            }
        }
    }

    #[test]
    fn mul_add_is_field_axpy() {
        // The byte kernel agrees with the element-slice axpy.
        let mut rng = StdRng::seed_from_u64(5);
        let src = random_bytes(&mut rng, 253);
        let mut dst = random_bytes(&mut rng, 253);
        let c: u8 = rng.gen();
        let mut field_acc: Vec<Gf256> = dst.iter().map(|&b| Gf256::new(b)).collect();
        let field_src: Vec<Gf256> = src.iter().map(|&b| Gf256::new(b)).collect();
        crate::axpy(&mut field_acc, Gf256::new(c), &field_src);
        mul_add_slice(&mut dst, c, &src);
        assert_eq!(
            dst,
            field_acc.iter().map(|f| f.value()).collect::<Vec<u8>>()
        );
    }

    #[test]
    fn fused_transform_kernels_match_two_pass() {
        let mut rng = StdRng::seed_from_u64(6);
        for backend in simd::available_backends() {
            for len in LENS {
                for c in [1u8, 2, 0x53, 255] {
                    let pad = random_bytes(&mut rng, len);
                    let orig = random_bytes(&mut rng, len);
                    // Forward: fused vs scale-then-xor.
                    let mut fused = orig.clone();
                    mul_xor_slice_on(backend, &mut fused, c, &pad);
                    let mut two_pass = orig.clone();
                    mul_slice_on(backend, &mut two_pass, c);
                    xor_slice(&mut two_pass, &pad);
                    assert_eq!(fused, two_pass, "forward {backend} len {len} c {c}");
                    // Inverse: fused vs xor-then-scale, and round-trip.
                    let inv = Gf256::new(c).inv().value();
                    xor_mul_slice_on(backend, &mut fused, inv, &pad);
                    assert_eq!(fused, orig, "round-trip {backend} len {len} c {c}");
                }
            }
        }
    }

    #[test]
    fn dot_slice8_matches_scalar_all_backends() {
        let mut rng = StdRng::seed_from_u64(8);
        for backend in simd::available_backends() {
            for len in LENS {
                let a = random_bytes(&mut rng, len);
                let b = random_bytes(&mut rng, len);
                let want = a
                    .iter()
                    .zip(b.iter())
                    .fold(0u8, |acc, (&x, &y)| acc ^ Gf256::mul_bytes(x, y));
                assert_eq!(
                    dot_slice8_on(backend, &a, &b),
                    want,
                    "backend {backend}, len {len}"
                );
            }
        }
    }

    #[test]
    fn fused_matches_independent_axpy_sweeps() {
        let mut rng = StdRng::seed_from_u64(9);
        for backend in simd::available_backends() {
            for len in LENS {
                for (nout, nsrc) in [(1, 1), (3, 3), (5, 2), (4, 7)] {
                    let srcs: Vec<Vec<u8>> =
                        (0..nsrc).map(|_| random_bytes(&mut rng, len)).collect();
                    let coeffs: Vec<u8> = (0..nout * nsrc).map(|_| rng.gen()).collect();
                    let mut outs: Vec<Vec<u8>> =
                        (0..nout).map(|_| random_bytes(&mut rng, len)).collect();
                    let mut want = outs.clone();
                    for (j, w) in want.iter_mut().enumerate() {
                        for (i, s) in srcs.iter().enumerate() {
                            mul_add_slice_on(Backend::Swar, w, coeffs[j * nsrc + i], s);
                        }
                    }
                    let src_refs: Vec<&[u8]> = srcs.iter().map(|s| s.as_slice()).collect();
                    let mut out_refs: Vec<&mut [u8]> =
                        outs.iter_mut().map(|o| o.as_mut_slice()).collect();
                    mul_add_fused_on(backend, &mut out_refs, &coeffs, &src_refs);
                    assert_eq!(outs, want, "backend {backend}, len {len}, {nout}x{nsrc}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let mut dst = [0u8; 4];
        mul_add_slice(&mut dst, 3, &[0u8; 5]);
    }
}
