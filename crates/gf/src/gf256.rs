//! GF(2⁸) with log/exp table arithmetic — the one field every slice is
//! coded in — and the element-slice kernels ([`dot`], [`axpy`],
//! [`scale`], [`sub_scaled`]) the matrix code runs on.
//!
//! Modulus polynomial: `x⁸ + x⁴ + x³ + x² + 1` (0x11D), generator `α = 2`
//! — the classic Reed–Solomon field. Tables are built at compile time, so
//! multiplication is two loads, an add and a load.

use rand::Rng;

pub(crate) const POLY: u16 = 0x11D;

/// `EXP[i] = α^i` for `i ∈ [0, 510)`; doubled so `mul` avoids a mod 255.
static EXP: [u8; 510] = build_exp();
/// `LOG[x] = log_α x` for `x ∈ [1, 256)`; `LOG[0]` is a sentinel (unused).
static LOG: [u8; 256] = build_log();

pub(crate) const fn build_exp() -> [u8; 510] {
    let mut t = [0u8; 510];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        t[i] = x as u8;
        t[i + 255] = x as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    t
}

pub(crate) const fn build_log() -> [u8; 256] {
    let exp = build_exp();
    let mut t = [0u8; 256];
    let mut i = 0;
    while i < 255 {
        t[exp[i] as usize] = i as u8;
        i += 1;
    }
    t
}

/// An element of GF(2⁸).
///
/// The canonical payload field: a byte of message data is exactly one
/// element, so slicing a buffer requires no re-packing.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
#[repr(transparent)]
pub struct Gf256(pub u8);

impl std::fmt::Debug for Gf256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gf256:{:02x}", self.0)
    }
}

impl Gf256 {
    /// Wrap a raw byte as a field element.
    #[inline]
    pub const fn new(v: u8) -> Self {
        Gf256(v)
    }

    /// The raw byte value.
    #[inline]
    pub const fn value(self) -> u8 {
        self.0
    }

    /// Multiply two raw bytes in GF(2⁸) (free function form used by the
    /// hot byte-slice kernels in `slicing-codec`).
    #[inline]
    pub fn mul_bytes(a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            return 0;
        }
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

// Inherent methods named after the algebra rather than `std::ops`
// impls: `a.mul(b)` reads as field multiplication at every call site,
// where `a * b` would pass for integer arithmetic on the wrapped byte.
#[allow(clippy::should_implement_trait)]
impl Gf256 {
    /// Additive identity.
    #[inline]
    pub const fn zero() -> Self {
        Gf256(0)
    }

    /// Multiplicative identity.
    #[inline]
    pub const fn one() -> Self {
        Gf256(1)
    }

    /// Whether this element is the additive identity.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Field addition (XOR).
    #[inline]
    pub const fn add(self, rhs: Self) -> Self {
        Gf256(self.0 ^ rhs.0)
    }

    /// Field subtraction — identical to [`Gf256::add`] in characteristic
    /// 2, kept separate so code reads like the algebra in the paper.
    #[inline]
    pub const fn sub(self, rhs: Self) -> Self {
        Gf256(self.0 ^ rhs.0)
    }

    /// Field multiplication.
    #[inline]
    pub fn mul(self, rhs: Self) -> Self {
        Gf256(Self::mul_bytes(self.0, rhs.0))
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if `self` is zero.
    #[inline]
    pub fn inv(self) -> Self {
        assert!(self.0 != 0, "inverse of zero in GF(2^8)");
        Gf256(EXP[255 - LOG[self.0 as usize] as usize])
    }

    /// Field division (`self · rhs⁻¹`).
    ///
    /// # Panics
    /// Panics if `rhs` is zero.
    #[inline]
    pub fn div(self, rhs: Self) -> Self {
        self.mul(rhs.inv())
    }

    /// Exponentiation by squaring.
    pub fn pow(self, mut e: u64) -> Self {
        let mut base = self;
        let mut acc = Self::one();
        while e > 0 {
            if e & 1 == 1 {
                acc = acc.mul(base);
            }
            base = base.mul(base);
            e >>= 1;
        }
        acc
    }

    /// Sample a uniformly random element (the low byte of one `u64`
    /// draw, so seeded streams stay what they were).
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Gf256(rng.gen::<u64>() as u8)
    }

    /// Sample a uniformly random *nonzero* element.
    pub fn random_nonzero<R: Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let v = Self::random(rng);
            if !v.is_zero() {
                return v;
            }
        }
    }
}

// ---- element-slice kernels ------------------------------------------------
//
// Matrix and dot-product code runs through these four, and they run
// through the runtime-dispatched byte kernels in `crate::bulk` (SWAR
// table rows or SIMD split-nibble / carry-less multiply, per
// `crate::simd::backend`). `Gf256` is `#[repr(transparent)]` over
// `u8`, so element slices reinterpret directly as the byte slices the
// kernels take.

/// Dot product `Σ a[i]·b[i]` of two equal-length element slices — the
/// inner loop of `Matrix::mul_vec`, kept free-standing so benches can
/// measure it directly.
#[inline]
pub fn dot(a: &[Gf256], b: &[Gf256]) -> Gf256 {
    debug_assert_eq!(a.len(), b.len());
    Gf256(crate::bulk::dot_slice8(as_bytes(a), as_bytes(b)))
}

/// `acc[i] += c · src[i]` for all `i` — the axpy kernel used by matrix
/// multiplication.
#[inline]
pub fn axpy(acc: &mut [Gf256], c: Gf256, src: &[Gf256]) {
    debug_assert_eq!(acc.len(), src.len());
    crate::bulk::mul_add_slice(as_bytes_mut(acc), c.0, as_bytes(src));
}

/// `row[i] *= c` for all `i` — the pivot-normalization kernel of
/// Gaussian elimination.
#[inline]
pub fn scale(row: &mut [Gf256], c: Gf256) {
    crate::bulk::mul_slice(as_bytes_mut(row), c.0);
}

/// `dst[i] -= c · src[i]` for all `i` — the row-elimination kernel of
/// Gaussian elimination (rank, inversion, solving). Coincides with
/// [`axpy`] in characteristic 2.
#[inline]
pub fn sub_scaled(dst: &mut [Gf256], c: Gf256, src: &[Gf256]) {
    axpy(dst, c, src);
}

/// Reinterpret a `Gf256` slice as raw bytes (`#[repr(transparent)]`
/// makes the layouts identical).
#[inline]
#[allow(unsafe_code)]
fn as_bytes(s: &[Gf256]) -> &[u8] {
    // SAFETY: `Gf256` is `#[repr(transparent)]` over `u8`: same size,
    // alignment and validity invariants, so the reinterpretation is
    // sound for the same length.
    unsafe { std::slice::from_raw_parts(s.as_ptr() as *const u8, s.len()) }
}

/// Mutable variant of [`as_bytes`].
#[inline]
#[allow(unsafe_code)]
fn as_bytes_mut(s: &mut [Gf256]) -> &mut [u8] {
    // SAFETY: as in `as_bytes`; the `&mut` borrow is carried through
    // unchanged, so aliasing rules are preserved.
    unsafe { std::slice::from_raw_parts_mut(s.as_mut_ptr() as *mut u8, s.len()) }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Schoolbook carry-less multiply + reduce, for cross-checking tables.
    fn slow_mul(a: u8, b: u8) -> u8 {
        let (a, b) = (a as u16, b as u16);
        let mut acc: u16 = 0;
        for i in 0..8 {
            if b & (1 << i) != 0 {
                acc ^= a << i;
            }
        }
        // Reduce modulo POLY.
        for bit in (8..16).rev() {
            if acc & (1 << bit) != 0 {
                acc ^= POLY << (bit - 8);
            }
        }
        acc as u8
    }

    #[test]
    fn table_mul_matches_schoolbook() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(
                    Gf256::mul_bytes(a, b),
                    slow_mul(a, b),
                    "mismatch at {a} * {b}"
                );
            }
        }
    }

    #[test]
    fn every_nonzero_element_has_inverse() {
        for a in 1..=255u8 {
            let inv = Gf256(a).inv();
            assert_eq!(Gf256(a).mul(inv), Gf256::one());
        }
    }

    #[test]
    fn generator_has_full_order() {
        // α = 2 must generate all 255 nonzero elements.
        let mut seen = [false; 256];
        let mut x = Gf256::one();
        for _ in 0..255 {
            assert!(!seen[x.0 as usize], "generator order < 255");
            seen[x.0 as usize] = true;
            x = x.mul(Gf256(2));
        }
        assert_eq!(x, Gf256::one());
    }

    #[test]
    fn mul_by_zero_and_one() {
        for a in 0..=255u8 {
            assert_eq!(Gf256(a).mul(Gf256(0)), Gf256(0));
            assert_eq!(Gf256(a).mul(Gf256(1)), Gf256(a));
        }
    }

    fn axioms_hold() {
        let mut rng = rand::thread_rng();
        for _ in 0..200 {
            let a = Gf256::random(&mut rng);
            let b = Gf256::random(&mut rng);
            let c = Gf256::random(&mut rng);
            // Commutativity.
            assert_eq!(a.add(b), b.add(a));
            assert_eq!(a.mul(b), b.mul(a));
            // Associativity.
            assert_eq!(a.add(b).add(c), a.add(b.add(c)));
            assert_eq!(a.mul(b).mul(c), a.mul(b.mul(c)));
            // Distributivity.
            assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
            // Identities.
            assert_eq!(a.add(Gf256::zero()), a);
            assert_eq!(a.mul(Gf256::one()), a);
            // Inverses.
            assert_eq!(a.sub(a), Gf256::zero());
            if !a.is_zero() {
                assert_eq!(a.mul(a.inv()), Gf256::one());
                assert_eq!(a.div(a), Gf256::one());
            }
        }
    }

    #[test]
    fn gf256_axioms() {
        axioms_hold();
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let mut rng = rand::thread_rng();
        let a = Gf256::random_nonzero(&mut rng);
        let mut acc = Gf256::one();
        for e in 0..20u64 {
            assert_eq!(a.pow(e), acc);
            acc = acc.mul(a);
        }
    }

    #[test]
    fn dot_and_axpy_agree() {
        let mut rng = rand::thread_rng();
        let a: Vec<Gf256> = (0..16).map(|_| Gf256::random(&mut rng)).collect();
        let b: Vec<Gf256> = (0..16).map(|_| Gf256::random(&mut rng)).collect();
        let d = dot(&a, &b);
        // Compute the same dot product via axpy into a 1-element accumulator
        // per term.
        let mut acc = Gf256::zero();
        for i in 0..16 {
            let mut cell = [acc];
            axpy(&mut cell, a[i], &[b[i]]);
            acc = cell[0];
        }
        assert_eq!(acc, d);
    }

    #[test]
    fn bulk_hooks_match_scalar_semantics() {
        // The table-backed slice kernels must agree with explicit
        // element-wise loops for every kernel the matrix code uses.
        let mut rng = rand::thread_rng();
        for len in [0usize, 1, 7, 64, 255] {
            let a: Vec<Gf256> = (0..len).map(|_| Gf256::random(&mut rng)).collect();
            let b: Vec<Gf256> = (0..len).map(|_| Gf256::random(&mut rng)).collect();
            for c in [Gf256::new(0), Gf256::new(1), Gf256::new(0xA7)] {
                // dot
                let mut want = Gf256::zero();
                for (&x, &y) in a.iter().zip(b.iter()) {
                    want = want.add(x.mul(y));
                }
                assert_eq!(dot(&a, &b), want, "dot len {len}");
                // axpy
                let mut got = a.clone();
                axpy(&mut got, c, &b);
                let want: Vec<Gf256> = a
                    .iter()
                    .zip(b.iter())
                    .map(|(&x, &y)| x.add(c.mul(y)))
                    .collect();
                assert_eq!(got, want, "axpy len {len} c {c:?}");
                // scale
                let mut got = a.clone();
                scale(&mut got, c);
                let want: Vec<Gf256> = a.iter().map(|&x| x.mul(c)).collect();
                assert_eq!(got, want, "scale len {len} c {c:?}");
                // sub_scaled
                let mut got = a.clone();
                sub_scaled(&mut got, c, &b);
                let want: Vec<Gf256> = a
                    .iter()
                    .zip(b.iter())
                    .map(|(&x, &y)| x.sub(c.mul(y)))
                    .collect();
                assert_eq!(got, want, "sub_scaled len {len} c {c:?}");
            }
        }
    }
}
