//! Finite-field arithmetic and linear algebra for information slicing.
//!
//! Everything the paper's coding layer needs lives here. The paper
//! (note 1, §4.3.2) works in `F_{p^q}`; every slice this system puts on
//! the wire is coded in one field, GF(2⁸), where a byte of message data
//! is exactly one element:
//!
//! * [`Gf256`] — the field element, with its arithmetic as inherent
//!   methods, plus the element-slice kernels [`dot`], [`axpy`],
//!   [`scale`] and [`sub_scaled`] the matrix code runs on.
//! * [`Matrix`] — dense row-major matrices with Gauss–Jordan inversion,
//!   rank, multiplication and linear solving. Used for the random
//!   transform `A`, its inverse at the receiving node (`I = A⁻¹ I*`,
//!   §4.3.5), and the redundant `d′ × d` transform of §4.4.
//! * [`mds`] — the randomized Cauchy construction of `d′ × d` matrices
//!   in which *any* square submatrix is invertible ("any d of d′ slices
//!   decode", §4.4(b)).
//! * [`bulk`] — the byte-slice kernels (`mul_add_slice`, `mul_slice`,
//!   `xor_slice`, `dot_slice8`, `mul_add_fused`) every packet payload in
//!   the workspace is coded through.
//! * [`simd`] — the runtime-dispatched backends behind those kernels:
//!   SSSE3/AVX2 split-nibble and PCLMULQDQ kernels on x86_64, the
//!   table-driven SWAR paths on every other architecture, and a
//!   pure-scalar oracle the tests compare both against.
//!
//! All randomness is taken through `rand::Rng` so protocol code and tests
//! can seed deterministically.
//!
//! `unsafe` is denied crate-wide except inside [`simd`]'s `std::arch`
//! kernels and the `#[repr(transparent)]` slice casts that feed them;
//! every unsafe block carries a SAFETY comment and is covered by the
//! proptest oracle suite.

#![deny(unsafe_code)]

pub mod bulk;
pub mod gf256;
pub mod matrix;
pub mod mds;
pub mod simd;

pub use gf256::{axpy, dot, scale, sub_scaled, Gf256};
pub use matrix::Matrix;
pub use simd::Backend;
