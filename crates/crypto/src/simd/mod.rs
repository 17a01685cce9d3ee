//! Runtime-dispatched SIMD engines for the symmetric primitives.
//!
//! Mirrors the [`slicing_gf::simd`](../../../gf/src/simd/mod.rs)
//! architecture: every hot symmetric operation ([`crate::chacha20`]
//! keystream XOR, [`crate::sha256`] compression — and everything built
//! on them: HMAC, HKDF, the AEAD) routes through one of two
//! [`Backend`]s, chosen **once** at first use by CPU detection and
//! cached for the life of the process:
//!
//! * [`Backend::Scalar`] — the portable reference implementations, the
//!   oracle every SIMD engine is tested against and the path every
//!   host without a usable ISA runs.
//! * [`Backend::Simd`] — `std::arch` kernels selected by runtime
//!   feature detection.
//!
//! ## Supported ISAs
//!
//! | arch | ChaCha20 | SHA-256 |
//! |------|----------|---------|
//! | x86_64 | AVX2 4×-block, else SSSE3 1×-block | SHA-NI (`sha256rnds2`), else SSSE3 vectorized message schedule |
//! | other | — (falls back to [`Backend::Scalar`]) | — |
//!
//! Kernels exist only for an ISA this workspace's CI compiles and tests;
//! every other architecture runs the scalar path until a kernel lands
//! together with a CI job for it. Feature detection is dynamic
//! (`is_x86_feature_detected!`), so one binary runs everywhere and uses
//! the best engine the host offers; a host with SSSE3 but no SHA
//! extensions gets SIMD ChaCha20 and the vectorized-schedule SHA-256.
//! Tests and benches use the explicit `*_on` entry points
//! ([`crate::chacha20::ChaCha20::new_on`],
//! [`crate::sha256::Sha256::new_on`], [`crate::hmac::HmacKey::new_on`],
//! [`crate::aead::SealingKey::new_on`]) to sweep every backend in
//! [`available_backends`] against the scalar reference in one process.

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(crate) mod x86;

/// The cfg-selected kernels the primitives dispatch into when the
/// active backend is [`Backend::Simd`]: the x86_64 kernels, or scalar
/// delegates on every other architecture, where they are never
/// selected at runtime (the detector never returns `Simd` there) but
/// keep the call sites compiling.
pub(crate) mod kernels {
    #[cfg(target_arch = "x86_64")]
    pub(crate) use super::x86::*;

    #[cfg(not(target_arch = "x86_64"))]
    pub(crate) use super::portable_fallback::*;
}

#[cfg(not(target_arch = "x86_64"))]
mod portable_fallback {
    //! Scalar delegates for architectures without SIMD kernels. Dead at
    //! runtime (detection never selects `Simd` here); present so the
    //! dispatch arms typecheck on every target.

    /// Never processes anything: the scalar tail path does all the work.
    pub(crate) fn chacha_xor(
        key: &[u8; 32],
        nonce: &[u8; 12],
        counter: u32,
        data: &mut [u8],
    ) -> usize {
        let _ = (key, nonce, counter, data);
        0
    }

    /// Never compresses: the caller falls back to the scalar rounds.
    pub(crate) fn sha256_compress(state: &mut [u32; 8], blocks: &[u8]) -> bool {
        let _ = (state, blocks);
        false
    }
}

use std::sync::OnceLock;

/// Which implementation family the symmetric primitives run on.
///
/// See the [module docs](self) for what each backend is and when it is
/// selected. Obtain the process-wide active backend with [`backend`];
/// pin one per object with the `new_on` constructors.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Portable reference implementations — the oracle.
    Scalar,
    /// Runtime-detected `std::arch` kernels (AVX2/SSSE3/SHA-NI).
    Simd,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Scalar => "scalar",
            Backend::Simd => "simd",
        })
    }
}

/// What the `Simd` backend can use on this host.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Caps {
    /// 4×-block AVX2 ChaCha20 rather than 1×-block SSSE3.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    pub(crate) wide_chacha: bool,
    /// Dedicated SHA-256 rounds (SHA-NI) rather than the vectorized
    /// message schedule.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    pub(crate) sha_rounds: bool,
}

struct State {
    backend: Backend,
    caps: Caps,
    isa: &'static str,
}

fn detect() -> (Backend, Caps, &'static str) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("ssse3") {
            let wide_chacha = std::arch::is_x86_feature_detected!("avx2");
            let sha_rounds = std::arch::is_x86_feature_detected!("sha")
                && std::arch::is_x86_feature_detected!("sse4.1");
            let isa = match (wide_chacha, sha_rounds) {
                (true, true) => "avx2+sha_ni",
                (true, false) => "avx2",
                (false, true) => "ssse3+sha_ni",
                (false, false) => "ssse3",
            };
            return (
                Backend::Simd,
                Caps {
                    wide_chacha,
                    sha_rounds,
                },
                isa,
            );
        }
        (
            Backend::Scalar,
            Caps {
                wide_chacha: false,
                sha_rounds: false,
            },
            "none",
        )
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        (
            Backend::Scalar,
            Caps {
                wide_chacha: false,
                sha_rounds: false,
            },
            "none",
        )
    }
}

fn state() -> &'static State {
    static STATE: OnceLock<State> = OnceLock::new();
    STATE.get_or_init(|| {
        let (backend, caps, isa) = detect();
        State { backend, caps, isa }
    })
}

/// The process-wide active backend, selected once at first use by
/// runtime CPU feature detection.
#[inline]
pub fn backend() -> Backend {
    state().backend
}

/// Human-readable name of the instruction set the active
/// [`Backend::Simd`] engines use (`"avx2+sha_ni"`, `"ssse3"`, …), or
/// `"none"` when the active backend is not SIMD.
pub fn isa() -> &'static str {
    state().isa
}

#[inline]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) fn caps() -> Caps {
    state().caps
}

/// Every backend usable on this host, in increasing order of expected
/// speed. [`Backend::Scalar`] is always present; [`Backend::Simd`] is
/// included only when detection found a usable ISA. Tests and benches
/// iterate this to sweep every engine against the scalar oracle.
pub fn available_backends() -> Vec<Backend> {
    let mut v = vec![Backend::Scalar];
    if detect().0 == Backend::Simd {
        v.push(Backend::Simd);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_always_available() {
        assert!(available_backends().contains(&Backend::Scalar));
    }

    #[test]
    fn active_backend_is_available() {
        assert!(available_backends().contains(&backend()));
    }

    #[test]
    fn isa_consistent_with_backend() {
        if backend() == Backend::Simd {
            assert_ne!(isa(), "none");
        } else {
            assert_eq!(isa(), "none");
        }
    }
}
