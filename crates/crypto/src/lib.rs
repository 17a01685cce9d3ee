//! From-scratch cryptographic substrate for the information-slicing stack.
//!
//! The paper needs two kinds of cryptography:
//!
//! 1. **Symmetric keys** delivered to each relay/destination during graph
//!    establishment (§4.2.1, §4.3.1) and used to encrypt data messages.
//!    Provided here: [`chacha20`] (RFC 8439 stream cipher), [`sha256`]
//!    (FIPS 180-4), [`hmac`] (RFC 2104), [`hkdf`] (RFC 5869), and an
//!    encrypt-then-MAC [`aead`] built from those pieces. ChaCha20 and the
//!    SHA-256 compression dispatch at runtime through [`simd`]: x86_64
//!    `std::arch` engines when the host has the features, the portable
//!    scalar code on every other host.
//! 2. **Public-key operations** for the *onion-routing baseline* (§2,
//!    §7.2: onion routing uses PKC for route setup, symmetric session keys
//!    for data). Provided here: [`bignum`] multi-precision arithmetic,
//!    [`prime`] (Miller–Rabin generation) and [`rsa`] (raw RSA with
//!    configurable, deliberately *toy-sized* moduli so benchmarks finish
//!    quickly).
//!
//! Everything is implemented from the specifications and validated against
//! the RFC/FIPS test vectors in the unit tests. **None of this is intended
//! as production cryptography** — it exists because the reproduction must
//! be self-contained and the approved offline crate list has no crypto
//! crates. The protocol-relevant property is the *cost structure*
//! (asymmetric setup vs symmetric data path), which these implementations
//! preserve.

// Unsafe is denied crate-wide; only the `simd` arch kernels opt out
// (module-scoped `#[allow(unsafe_code)]`), confining `std::arch`
// intrinsics behind safe wrappers exactly as `slicing-gf` does. Every
// unsafe block carries a SAFETY contract audited by `slicing-lint`
// (see UNSAFE_LEDGER.md).
#![deny(unsafe_code)]

pub mod aead;
pub mod bignum;
pub mod chacha20;
pub mod hkdf;
pub mod hmac;
pub mod prime;
pub mod rng;
pub mod rsa;
pub mod sha256;
pub mod simd;

pub use aead::{open, seal, SealError, SealingKey};
pub use bignum::BigUint;
pub use chacha20::{ChaCha20, KeystreamExhausted};
pub use hmac::HmacKey;
pub use rng::ChaChaRng;
pub use rsa::{RsaKeyPair, RsaPublicKey};
pub use sha256::Sha256;
pub use simd::Backend;

/// A 256-bit symmetric key, as distributed to each node in its
/// per-node information `I_x` ("Secret Key", §4.3.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SymmetricKey(pub [u8; 32]);

impl SymmetricKey {
    /// Sample a fresh random key.
    pub fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        let mut k = [0u8; 32];
        rng.fill_bytes(&mut k);
        SymmetricKey(k)
    }

    /// Derive a sub-key bound to a context label (HKDF-Expand).
    pub fn derive(&self, context: &[u8]) -> SymmetricKey {
        let mut out = [0u8; 32];
        hkdf::expand(&self.0, context, &mut out);
        SymmetricKey(out)
    }
}

impl std::fmt::Debug for SymmetricKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "SymmetricKey(..)")
    }
}
