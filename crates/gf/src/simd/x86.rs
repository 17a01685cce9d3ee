//! x86_64 kernels: SSSE3/AVX2 split-nibble table multiplies and
//! PCLMULQDQ carry-less dot products.
//!
//! Every function in this module is a **safe** wrapper around
//! `#[target_feature]` inner loops; the wrappers pick the widest
//! available engine from [`crate::simd::caps`] (detected once at
//! startup) and finish odd-length tails with the scalar table row, so
//! callers never see alignment or length restrictions. The `unsafe` here
//! is confined to `std::arch` intrinsics on the little-endian x86_64
//! memory model they assume.
//!
//! Two instruction families do the work:
//!
//! * `PSHUFB` (`_mm_shuffle_epi8` / `_mm256_shuffle_epi8`) evaluates the
//!   16-entry split-nibble tables of [`super::tables`] across 16 or 32
//!   lanes per step — the ISA-L-style constant-coefficient multiply.
//! * `PCLMULQDQ` computes dot products of *varying* × *varying*
//!   operands (no fixed coefficient to build a table for): both inputs
//!   are widened to 2× lanes, one is byte-reversed per group so lane
//!   products land in non-overlapping bit slots, the unreduced carry-less
//!   products are XOR-folded in-register, and one polynomial reduction
//!   at the end maps back into the field.

use std::arch::x86_64::*;

use crate::bulk;
use crate::simd::tables::{self, NIB8};

// ---- GF(2⁸) slice transforms ----------------------------------------------

/// Dataflow selector for the const-generic transform engines. Each
/// kernel's per-block recipe, with `m(x)` the split-nibble multiply:
/// axpy `d ^= m(o)`, scale-into `d = m(o)`, scale `d = m(d)`,
/// fused-forward `d = m(d) ^ o`, fused-inverse `d = m(d ^ o)`.
const OP_AXPY: u8 = 0;
const OP_MUL_INTO: u8 = 1;
const OP_MUL: u8 = 2;
const OP_MUL_XOR: u8 = 3;
const OP_XOR_MUL: u8 = 4;

/// One 32-lane split-nibble multiply: `m(v) = tlo[v & 0xF] ^ thi[v >> 4]`.
/// Register-only (no memory access), so it is a *safe* target-feature
/// fn: the engines that call it already carry the `avx2` feature.
#[inline]
#[target_feature(enable = "avx2")]
fn mul_block256(tlo: __m256i, thi: __m256i, mask: __m256i, v: __m256i) -> __m256i {
    _mm256_xor_si256(
        _mm256_shuffle_epi8(tlo, _mm256_and_si256(v, mask)),
        _mm256_shuffle_epi8(thi, _mm256_and_si256(_mm256_srli_epi16(v, 4), mask)),
    )
}

/// One 16-lane split-nibble multiply (SSSE3 engine). Register-only and
/// safe, as [`mul_block256`].
#[inline]
#[target_feature(enable = "ssse3")]
fn mul_block128(tlo: __m128i, thi: __m128i, mask: __m128i, v: __m128i) -> __m128i {
    _mm_xor_si128(
        _mm_shuffle_epi8(tlo, _mm_and_si128(v, mask)),
        _mm_shuffle_epi8(thi, _mm_and_si128(_mm_srli_epi16(v, 4), mask)),
    )
}

/// AVX2 transform engine: applies `OP` over 32-byte blocks (64-byte main
/// loop), returns the number of bytes processed. `other` must equal
/// `dst` for the one-operand ops (`OP_MUL`) and may not otherwise alias.
///
/// # Safety
///
/// `dst` and `other` must each be valid for `len` bytes (`dst` for
/// writes); they must not partially overlap (equal is fine); the caller
/// must have verified AVX2 support.
#[target_feature(enable = "avx2")]
unsafe fn transform8_avx2<const OP: u8>(
    dst: *mut u8,
    other: *const u8,
    len: usize,
    tab: &[u8; 32],
) -> usize {
    // SAFETY: per the fn contract, every `dst`/`other` offset below is
    // `< len` and the unaligned load/store intrinsics tolerate any
    // alignment; `tab` is a 32-byte array so `tab + 16` is in bounds.
    unsafe {
        let tlo = _mm256_broadcastsi128_si256(_mm_loadu_si128(tab.as_ptr() as *const __m128i));
        let thi =
            _mm256_broadcastsi128_si256(_mm_loadu_si128(tab.as_ptr().add(16) as *const __m128i));
        let mask = _mm256_set1_epi8(0x0f);
        let mut i = 0usize;
        macro_rules! block {
            ($off:expr) => {{
                let o = $off;
                let r = match OP {
                    OP_AXPY => {
                        let d = _mm256_loadu_si256(dst.add(o) as *const __m256i);
                        let s = _mm256_loadu_si256(other.add(o) as *const __m256i);
                        _mm256_xor_si256(d, mul_block256(tlo, thi, mask, s))
                    }
                    OP_MUL_INTO => {
                        let s = _mm256_loadu_si256(other.add(o) as *const __m256i);
                        mul_block256(tlo, thi, mask, s)
                    }
                    OP_MUL => {
                        let d = _mm256_loadu_si256(dst.add(o) as *const __m256i);
                        mul_block256(tlo, thi, mask, d)
                    }
                    OP_MUL_XOR => {
                        let d = _mm256_loadu_si256(dst.add(o) as *const __m256i);
                        let p = _mm256_loadu_si256(other.add(o) as *const __m256i);
                        _mm256_xor_si256(mul_block256(tlo, thi, mask, d), p)
                    }
                    _ => {
                        let d = _mm256_loadu_si256(dst.add(o) as *const __m256i);
                        let p = _mm256_loadu_si256(other.add(o) as *const __m256i);
                        mul_block256(tlo, thi, mask, _mm256_xor_si256(d, p))
                    }
                };
                _mm256_storeu_si256(dst.add(o) as *mut __m256i, r);
            }};
        }
        while i + 64 <= len {
            block!(i);
            block!(i + 32);
            i += 64;
        }
        if i + 32 <= len {
            block!(i);
            i += 32;
        }
        i
    }
}

/// SSSE3 transform engine: 16-byte blocks (32-byte main loop).
///
/// # Safety
///
/// Same contract as [`transform8_avx2`], with SSSE3 as the required
/// feature.
#[target_feature(enable = "ssse3")]
unsafe fn transform8_ssse3<const OP: u8>(
    dst: *mut u8,
    other: *const u8,
    len: usize,
    tab: &[u8; 32],
) -> usize {
    // SAFETY: as in `transform8_avx2` — offsets stay `< len`, loads and
    // stores are the unaligned variants, `tab` covers 32 bytes.
    unsafe {
        let tlo = _mm_loadu_si128(tab.as_ptr() as *const __m128i);
        let thi = _mm_loadu_si128(tab.as_ptr().add(16) as *const __m128i);
        let mask = _mm_set1_epi8(0x0f);
        let mut i = 0usize;
        macro_rules! block {
            ($off:expr) => {{
                let o = $off;
                let r = match OP {
                    OP_AXPY => {
                        let d = _mm_loadu_si128(dst.add(o) as *const __m128i);
                        let s = _mm_loadu_si128(other.add(o) as *const __m128i);
                        _mm_xor_si128(d, mul_block128(tlo, thi, mask, s))
                    }
                    OP_MUL_INTO => {
                        let s = _mm_loadu_si128(other.add(o) as *const __m128i);
                        mul_block128(tlo, thi, mask, s)
                    }
                    OP_MUL => {
                        let d = _mm_loadu_si128(dst.add(o) as *const __m128i);
                        mul_block128(tlo, thi, mask, d)
                    }
                    OP_MUL_XOR => {
                        let d = _mm_loadu_si128(dst.add(o) as *const __m128i);
                        let p = _mm_loadu_si128(other.add(o) as *const __m128i);
                        _mm_xor_si128(mul_block128(tlo, thi, mask, d), p)
                    }
                    _ => {
                        let d = _mm_loadu_si128(dst.add(o) as *const __m128i);
                        let p = _mm_loadu_si128(other.add(o) as *const __m128i);
                        mul_block128(tlo, thi, mask, _mm_xor_si128(d, p))
                    }
                };
                _mm_storeu_si128(dst.add(o) as *mut __m128i, r);
            }};
        }
        while i + 32 <= len {
            block!(i);
            block!(i + 16);
            i += 32;
        }
        if i + 16 <= len {
            block!(i);
            i += 16;
        }
        i
    }
}

/// Run a GF(2⁸) transform with the widest available engine; returns the
/// number of bytes handled (the caller finishes the tail).
#[inline]
fn run_transform8<const OP: u8>(dst: *mut u8, other: *const u8, len: usize, c: u8) -> usize {
    let tab = &NIB8[c as usize];
    // SAFETY: dispatch guarantees the required target features; pointers
    // cover `len` valid bytes per the safe wrappers' slice arguments.
    unsafe {
        if crate::simd::caps().wide {
            transform8_avx2::<OP>(dst, other, len, tab)
        } else {
            transform8_ssse3::<OP>(dst, other, len, tab)
        }
    }
}

/// `dst[i] ^= c · src[i]` (generic `c`; `c = 0/1` are dispatched to the
/// SWAR fast paths before reaching this kernel).
pub(crate) fn axpy8(dst: &mut [u8], c: u8, src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    let n = run_transform8::<OP_AXPY>(dst.as_mut_ptr(), src.as_ptr(), dst.len(), c);
    let row = bulk::mul_row(c);
    for (d, &s) in dst[n..].iter_mut().zip(&src[n..]) {
        *d ^= row[s as usize];
    }
}

/// `dst[i] = c · dst[i]` (in-place scale).
pub(crate) fn mul8(dst: &mut [u8], c: u8) {
    let n = run_transform8::<OP_MUL>(dst.as_mut_ptr(), dst.as_ptr(), dst.len(), c);
    let row = bulk::mul_row(c);
    for d in dst[n..].iter_mut() {
        *d = row[*d as usize];
    }
}

/// `dst[i] = c · src[i]` (scale into a destination).
pub(crate) fn mul8_into(dst: &mut [u8], c: u8, src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    let n = run_transform8::<OP_MUL_INTO>(dst.as_mut_ptr(), src.as_ptr(), dst.len(), c);
    let row = bulk::mul_row(c);
    for (d, &s) in dst[n..].iter_mut().zip(&src[n..]) {
        *d = row[s as usize];
    }
}

/// `dst[i] = c · dst[i] ^ pad[i]` (fused forward per-hop transform).
pub(crate) fn mul_xor8(dst: &mut [u8], c: u8, pad: &[u8]) {
    debug_assert_eq!(dst.len(), pad.len());
    let n = run_transform8::<OP_MUL_XOR>(dst.as_mut_ptr(), pad.as_ptr(), dst.len(), c);
    let row = bulk::mul_row(c);
    for (d, &p) in dst[n..].iter_mut().zip(&pad[n..]) {
        *d = row[*d as usize] ^ p;
    }
}

/// `dst[i] = c · (dst[i] ^ pad[i])` (fused inverse per-hop transform).
pub(crate) fn xor_mul8(dst: &mut [u8], c: u8, pad: &[u8]) {
    debug_assert_eq!(dst.len(), pad.len());
    let n = run_transform8::<OP_XOR_MUL>(dst.as_mut_ptr(), pad.as_ptr(), dst.len(), c);
    let row = bulk::mul_row(c);
    for (d, &p) in dst[n..].iter_mut().zip(&pad[n..]) {
        *d = row[(*d ^ p) as usize];
    }
}

// ---- GF(2⁸) fused multi-accumulator ---------------------------------------

/// How many output accumulators one fused pass feeds. Four 256-bit
/// accumulators plus per-source data and table registers fit the 16-ymm
/// register file; larger groups spill.
pub(crate) const FUSED_GROUP: usize = 4;

/// AVX2 fused kernel: for up to [`FUSED_GROUP`] outputs at once,
/// `outs[j][k] ^= Σ_i coeffs[j·nsrc + i] · srcs[i][k]`, loading each
/// source block once per group instead of once per (output, source)
/// pair. Returns bytes processed.
///
/// # Safety
///
/// Every pointer in `outs` and `srcs` must be valid for `len` bytes
/// (`outs` for writes), all mutually disjoint; `coeffs` must hold
/// `outs.len() · srcs.len()` entries; `outs.len() ≤ FUSED_GROUP`; the
/// caller must have verified AVX2 support.
#[target_feature(enable = "avx2")]
unsafe fn fused8_avx2(outs: &[*mut u8], coeffs: &[u8], srcs: &[*const u8], len: usize) -> usize {
    // SAFETY: per the fn contract, each indexed offset is `< len` on a
    // live disjoint buffer and `NIB8` rows are 32 bytes.
    unsafe {
        let g = outs.len();
        let nsrc = srcs.len();
        let mask = _mm256_set1_epi8(0x0f);
        let blocks = len / 32 * 32;
        for (si, &sp) in srcs.iter().enumerate() {
            // Hoist this source's per-output tables out of the block loop:
            // 2·FUSED_GROUP table registers plus the source stream and one
            // accumulator stay inside the 16-register file.
            let mut tlo = [_mm256_setzero_si256(); FUSED_GROUP];
            let mut thi = [_mm256_setzero_si256(); FUSED_GROUP];
            let mut live = [false; FUSED_GROUP];
            for j in 0..g {
                let c = coeffs[j * nsrc + si];
                if c == 0 {
                    continue;
                }
                let tab = &NIB8[c as usize];
                tlo[j] =
                    _mm256_broadcastsi128_si256(_mm_loadu_si128(tab.as_ptr() as *const __m128i));
                thi[j] = _mm256_broadcastsi128_si256(_mm_loadu_si128(
                    tab.as_ptr().add(16) as *const __m128i
                ));
                live[j] = true;
            }
            if !live.contains(&true) {
                continue;
            }
            let mut i = 0usize;
            while i + 32 <= len {
                let s = _mm256_loadu_si256(sp.add(i) as *const __m256i);
                let lo = _mm256_and_si256(s, mask);
                let hi = _mm256_and_si256(_mm256_srli_epi16(s, 4), mask);
                for j in 0..g {
                    if !live[j] {
                        continue;
                    }
                    let op = outs[j].add(i);
                    let acc = _mm256_loadu_si256(op as *const __m256i);
                    let prod = _mm256_xor_si256(
                        _mm256_shuffle_epi8(tlo[j], lo),
                        _mm256_shuffle_epi8(thi[j], hi),
                    );
                    _mm256_storeu_si256(op as *mut __m256i, _mm256_xor_si256(acc, prod));
                }
                i += 32;
            }
        }
        blocks
    }
}

/// SSSE3 fused kernel — same dataflow at 16 bytes per block.
///
/// # Safety
///
/// Same contract as [`fused8_avx2`], with SSSE3 as the required feature.
#[target_feature(enable = "ssse3")]
unsafe fn fused8_ssse3(outs: &[*mut u8], coeffs: &[u8], srcs: &[*const u8], len: usize) -> usize {
    // SAFETY: as in `fused8_avx2`.
    unsafe {
        let g = outs.len();
        let nsrc = srcs.len();
        let mask = _mm_set1_epi8(0x0f);
        let blocks = len / 16 * 16;
        for (si, &sp) in srcs.iter().enumerate() {
            let mut tlo = [_mm_setzero_si128(); FUSED_GROUP];
            let mut thi = [_mm_setzero_si128(); FUSED_GROUP];
            let mut live = [false; FUSED_GROUP];
            for j in 0..g {
                let c = coeffs[j * nsrc + si];
                if c == 0 {
                    continue;
                }
                let tab = &NIB8[c as usize];
                tlo[j] = _mm_loadu_si128(tab.as_ptr() as *const __m128i);
                thi[j] = _mm_loadu_si128(tab.as_ptr().add(16) as *const __m128i);
                live[j] = true;
            }
            if !live.contains(&true) {
                continue;
            }
            let mut i = 0usize;
            while i + 16 <= len {
                let s = _mm_loadu_si128(sp.add(i) as *const __m128i);
                let lo = _mm_and_si128(s, mask);
                let hi = _mm_and_si128(_mm_srli_epi16(s, 4), mask);
                for j in 0..g {
                    if !live[j] {
                        continue;
                    }
                    let op = outs[j].add(i);
                    let acc = _mm_loadu_si128(op as *const __m128i);
                    let prod =
                        _mm_xor_si128(_mm_shuffle_epi8(tlo[j], lo), _mm_shuffle_epi8(thi[j], hi));
                    _mm_storeu_si128(op as *mut __m128i, _mm_xor_si128(acc, prod));
                }
                i += 16;
            }
        }
        blocks
    }
}

/// Fused multi-coefficient accumulate:
/// `outs[j][k] ^= Σ_i coeffs[j·srcs.len() + i] · srcs[i][k]`
/// (coefficients output-major), loading each source slice once per
/// group of [`FUSED_GROUP`] outputs.
pub(crate) fn fused8(outs: &mut [&mut [u8]], coeffs: &[u8], srcs: &[&[u8]]) {
    let nsrc = srcs.len();
    let len = srcs.first().map_or(0, |s| s.len());
    let src_ptrs: Vec<*const u8> = srcs.iter().map(|s| s.as_ptr()).collect();
    for (chunk_idx, chunk) in outs.chunks_mut(FUSED_GROUP).enumerate() {
        let cbase = chunk_idx * FUSED_GROUP * nsrc;
        let coeffs = &coeffs[cbase..cbase + chunk.len() * nsrc];
        let out_ptrs: Vec<*mut u8> = chunk.iter_mut().map(|o| o.as_mut_ptr()).collect();
        // SAFETY: the `&mut` outputs are disjoint by construction, the
        // pointers cover `len` bytes each (asserted by the dispatcher),
        // and the required target features are detection-guaranteed.
        let n = unsafe {
            if crate::simd::caps().wide {
                fused8_avx2(&out_ptrs, coeffs, &src_ptrs, len)
            } else {
                fused8_ssse3(&out_ptrs, coeffs, &src_ptrs, len)
            }
        };
        // Scalar tail: same accumulation order, table-row lookups.
        for (j, out) in chunk.iter_mut().enumerate() {
            for (si, src) in srcs.iter().enumerate() {
                let c = coeffs[j * nsrc + si];
                if c == 0 {
                    continue;
                }
                let row = bulk::mul_row(c);
                for (d, &s) in out[n..].iter_mut().zip(&src[n..]) {
                    *d ^= row[s as usize];
                }
            }
        }
    }
}

// ---- GF(2⁸) dot product (PCLMULQDQ) ---------------------------------------

/// Carry-less dot core: processes `len/16*16` bytes, returning the
/// *unreduced* 15-bit accumulator and bytes consumed.
///
/// Both operands are widened to 16-bit lanes; `b` is byte-reversed
/// within each 4-byte group so that after widening, the products
/// `a[k]·b[k]` of one 64-bit lane land at distinct 32-bit spacings of
/// one `PCLMULQDQ` result, XOR-aligned at bit 48 across lanes.
///
/// # Safety
///
/// `a` and `b` must each be valid for `len` bytes; the caller must have
/// verified SSSE3 + PCLMULQDQ + SSE4.1 support.
#[target_feature(enable = "ssse3,pclmulqdq,sse4.1")]
unsafe fn dot8_clmul(a: *const u8, b: *const u8, len: usize) -> (u32, usize) {
    // SAFETY: per the fn contract, `a + i`/`b + i` stay `< len` and the
    // loads are unaligned variants.
    unsafe {
        let rev = _mm_setr_epi8(3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12);
        let mut acc = _mm_setzero_si128();
        let n = len / 16 * 16;
        let mut i = 0usize;
        while i < n {
            let va = _mm_loadu_si128(a.add(i) as *const __m128i);
            let vb = _mm_shuffle_epi8(_mm_loadu_si128(b.add(i) as *const __m128i), rev);
            let a_lo = _mm_cvtepu8_epi16(va);
            let a_hi = _mm_cvtepu8_epi16(_mm_srli_si128(va, 8));
            let b_lo = _mm_cvtepu8_epi16(vb);
            let b_hi = _mm_cvtepu8_epi16(_mm_srli_si128(vb, 8));
            acc = _mm_xor_si128(acc, _mm_clmulepi64_si128(a_lo, b_lo, 0x00));
            acc = _mm_xor_si128(acc, _mm_clmulepi64_si128(a_lo, b_lo, 0x11));
            acc = _mm_xor_si128(acc, _mm_clmulepi64_si128(a_hi, b_hi, 0x00));
            acc = _mm_xor_si128(acc, _mm_clmulepi64_si128(a_hi, b_hi, 0x11));
            i += 16;
        }
        // Every lane-product of every CLMUL lands its dot terms at bits
        // 48..62 of the low qword; everything else is discarded cross-terms.
        let lo = _mm_cvtsi128_si64(acc) as u64;
        (((lo >> 48) & 0x7FFF) as u32, n)
    }
}

/// Dot product `Σ a[i]·b[i]` over GF(2⁸), or `None` when the host lacks
/// PCLMULQDQ (dispatch then falls back to the SWAR path).
pub(crate) fn dot8(a: &[u8], b: &[u8]) -> Option<u8> {
    debug_assert_eq!(a.len(), b.len());
    if !crate::simd::caps().clmul {
        return None;
    }
    // SAFETY: clmul capability checked above; pointers cover `len` bytes.
    let (un, n) = unsafe { dot8_clmul(a.as_ptr(), b.as_ptr(), a.len()) };
    let mut acc = tables::reduce15(un);
    for (&x, &y) in a[n..].iter().zip(&b[n..]) {
        acc ^= bulk::mul_row(x)[y as usize];
    }
    Some(acc)
}
