//! Runtime-dispatched SIMD kernels for the GF(2⁸) bulk operations.
//!
//! Every bulk entry point in [`crate::bulk`] routes through one of three
//! [`Backend`]s, chosen **once** at first use by CPU detection and cached
//! for the life of the process:
//!
//! * [`Backend::Scalar`] — per-element log/exp arithmetic, the reference
//!   implementation. Slowest; never selected by detection, it exists as
//!   the oracle every other path is tested against.
//! * [`Backend::Swar`] — the table-driven paths (one L1-resident 256-byte
//!   multiplication row per coefficient, `u64` SWAR XOR). Always
//!   available on every architecture; this is the fallback when no SIMD
//!   ISA is detected.
//! * [`Backend::Simd`] — `std::arch` kernels using the split-nibble
//!   multiply (PSHUFB; see [`crate::bulk`] for the per-operation
//!   details). Selected when the host supports a usable ISA.
//!
//! ## Supported ISAs
//!
//! | arch | table kernels (axpy/scale/transform/fused) | dot kernels |
//! |------|--------------------------------------------|-------------|
//! | x86_64 | SSSE3 (16 B/step) or AVX2 (32–64 B/step) | PCLMULQDQ + SSE4.1 |
//! | other | — (falls back to [`Backend::Swar`]) | — |
//!
//! Kernels exist only for an ISA this workspace's CI compiles and tests;
//! every other architecture runs the SWAR path until a kernel lands
//! together with a CI job for it. Feature detection is dynamic
//! (`is_x86_feature_detected!`), so one binary runs everywhere and uses
//! the best kernel the host offers; a host with SSSE3 but without
//! PCLMULQDQ gets SIMD table kernels and SWAR dot products. Tests and
//! benches pin a backend per call through the `*_on` entry points in
//! [`crate::bulk`] and sweep [`available_backends`], so every backend is
//! cross-checked against the scalar oracle in one process.

#[cfg(target_arch = "x86_64")]
pub(crate) mod tables;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub(crate) mod x86;

/// The cfg-selected kernels `bulk` dispatches into when the active
/// backend is [`Backend::Simd`]: the x86_64 kernels, or SWAR delegates
/// on every other architecture, where they are never selected at
/// runtime (the detector never returns `Simd` there) but keep the call
/// sites compiling.
pub(crate) mod kernels {
    #[cfg(target_arch = "x86_64")]
    pub(crate) use super::x86::*;

    #[cfg(not(target_arch = "x86_64"))]
    pub(crate) use super::portable_fallback::*;
}

#[cfg(not(target_arch = "x86_64"))]
mod portable_fallback {
    //! SWAR delegates for architectures without SIMD kernels. Dead at
    //! runtime (detection never selects `Simd` here); present so the
    //! dispatch arms typecheck on every target.
    use crate::bulk;
    use crate::simd::Backend;

    pub(crate) fn axpy8(dst: &mut [u8], c: u8, src: &[u8]) {
        bulk::mul_add_slice_on(Backend::Swar, dst, c, src);
    }
    pub(crate) fn mul8(dst: &mut [u8], c: u8) {
        bulk::mul_slice_on(Backend::Swar, dst, c);
    }
    pub(crate) fn mul8_into(dst: &mut [u8], c: u8, src: &[u8]) {
        bulk::mul_slice_into_on(Backend::Swar, dst, c, src);
    }
    pub(crate) fn mul_xor8(dst: &mut [u8], c: u8, pad: &[u8]) {
        bulk::mul_xor_slice_on(Backend::Swar, dst, c, pad);
    }
    pub(crate) fn xor_mul8(dst: &mut [u8], c: u8, pad: &[u8]) {
        bulk::xor_mul_slice_on(Backend::Swar, dst, c, pad);
    }
    pub(crate) fn dot8(a: &[u8], b: &[u8]) -> Option<u8> {
        let _ = (a, b);
        None
    }
    pub(crate) fn fused8(outs: &mut [&mut [u8]], coeffs: &[u8], srcs: &[&[u8]]) {
        bulk::mul_add_fused_on(Backend::Swar, outs, coeffs, srcs);
    }
}

use std::sync::OnceLock;

/// Which implementation family the bulk kernels run on.
///
/// See the [module docs](self) for what each backend is and when it is
/// selected. Obtain the process-wide active backend with [`backend`];
/// pin one per call with the `*_on` functions in [`crate::bulk`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Per-element log/exp arithmetic — the reference oracle.
    Scalar,
    /// Table-driven + SWAR paths — the always-available fallback.
    Swar,
    /// Runtime-detected `std::arch` kernels (SSSE3/AVX2, PCLMULQDQ).
    Simd,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Scalar => "scalar",
            Backend::Swar => "swar",
            Backend::Simd => "simd",
        })
    }
}

/// What the `Simd` backend can use on this host.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Caps {
    /// 256-bit table kernels (AVX2) rather than 128-bit (SSSE3).
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    pub(crate) wide: bool,
    /// Carry-less-multiply dot kernels (PCLMULQDQ + SSE4.1).
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    pub(crate) clmul: bool,
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
            let wide = std::arch::is_x86_feature_detected!("avx2");
            let clmul = std::arch::is_x86_feature_detected!("pclmulqdq")
                && std::arch::is_x86_feature_detected!("sse4.1");
            let isa = match (wide, clmul) {
                (true, true) => "avx2+clmul",
                (true, false) => "avx2",
                (false, true) => "ssse3+clmul",
                (false, false) => "ssse3",
            };
            return (Backend::Simd, Caps { wide, clmul }, isa);
        }
        (
            Backend::Swar,
            Caps {
                wide: false,
                clmul: false,
            },
            "none",
        )
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        (
            Backend::Swar,
            Caps {
                wide: false,
                clmul: false,
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

/// Human-readable name of the instruction set the active [`Backend::Simd`]
/// kernels use (`"avx2+clmul"`, `"ssse3"`, …), or `"none"`
/// when the active backend is not SIMD.
pub fn isa() -> &'static str {
    state().isa
}

#[inline]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) fn caps() -> Caps {
    state().caps
}

/// Every backend that is usable on this host, in increasing order of
/// expected speed. [`Backend::Scalar`] and [`Backend::Swar`] are always
/// present; [`Backend::Simd`] is included only when detection found a
/// usable ISA. Benches and the proptest oracles iterate this.
pub fn available_backends() -> Vec<Backend> {
    let mut v = vec![Backend::Scalar, Backend::Swar];
    if detect().0 == Backend::Simd {
        v.push(Backend::Simd);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_and_swar_always_available() {
        let avail = available_backends();
        assert!(avail.contains(&Backend::Scalar));
        assert!(avail.contains(&Backend::Swar));
    }

    #[test]
    fn active_backend_is_available() {
        assert!(available_backends().contains(&backend()));
    }

    #[test]
    fn isa_consistent_with_backend() {
        if backend() != Backend::Simd {
            assert_eq!(isa(), "none");
        } else {
            assert_ne!(isa(), "none");
        }
    }
}
