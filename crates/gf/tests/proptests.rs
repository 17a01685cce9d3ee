//! Property-based tests for field axioms, matrix identities, and the
//! bulk byte-slice kernels.

use proptest::prelude::*;
use slicing_gf::{bulk, mds, Gf256, Matrix};

/// The slice lengths the bulk kernels must agree with scalar arithmetic
/// on: empty, single byte, sub-word, one cache line, and a full page.
const KERNEL_LENS: [usize; 5] = [0, 1, 7, 64, 4096];

fn gf256() -> impl Strategy<Value = Gf256> {
    any::<u8>().prop_map(Gf256::new)
}

proptest! {
    #[test]
    fn gf256_add_assoc(a in gf256(), b in gf256(), c in gf256()) {
        prop_assert_eq!(a.add(b).add(c), a.add(b.add(c)));
    }

    #[test]
    fn gf256_mul_distributes(a in gf256(), b in gf256(), c in gf256()) {
        prop_assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
    }

    #[test]
    fn gf256_inverse(a in gf256()) {
        if !a.is_zero() {
            prop_assert_eq!(a.mul(a.inv()), Gf256::one());
        }
    }

    /// Random square matrices: inverse round-trips whenever it exists.
    #[test]
    fn matrix_inverse_round_trip(seed in any::<u64>(), n in 1usize..7) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let m = Matrix::random(n, n, &mut rng);
        match m.inverse() {
            Some(inv) => {
                prop_assert_eq!(m.mul_mat(&inv), Matrix::identity(n));
                prop_assert!(m.is_invertible());
            }
            None => prop_assert!(!m.is_invertible()),
        }
    }

    /// (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn transpose_of_product(seed in any::<u64>(), n in 1usize..6, m in 1usize..6, k in 1usize..6) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random(n, m, &mut rng);
        let b = Matrix::random(m, k, &mut rng);
        prop_assert_eq!(
            a.mul_mat(&b).transpose(),
            b.transpose().mul_mat(&a.transpose())
        );
    }

    /// solve(b) really solves A·x = b for invertible A.
    #[test]
    fn solve_is_correct(seed in any::<u64>(), n in 1usize..7) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random_invertible(n, &mut rng);
        let b: Vec<Gf256> = (0..n).map(|_| Gf256::random(&mut rng)).collect();
        let x = a.solve(&b).unwrap();
        prop_assert_eq!(a.mul_vec(&x), b);
    }

    /// Every MDS generator has the any-d-rows-invertible property (kept
    /// small so the exhaustive check is fast).
    #[test]
    fn generator_property(seed in any::<u64>(), d in 1usize..5, extra in 0usize..4) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let dp = d + extra;
        let g = mds::strong_generator(dp, d, &mut rng);
        prop_assert!(mds::all_row_subsets_invertible(&g));
    }

    /// Matrix serialization round-trips.
    #[test]
    fn matrix_bytes_round_trip(seed in any::<u64>(), r in 1usize..6, c in 1usize..6) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let m = Matrix::random(r, c, &mut rng);
        prop_assert_eq!(Matrix::from_bytes(r, c, &m.to_bytes()), m);
    }

    /// `bulk::mul_add_slice` agrees with element-at-a-time `Gf256` ops
    /// at every interesting length, including the `c = 0`/`c = 1`
    /// special-cased paths.
    #[test]
    fn bulk_mul_add_matches_scalar(seed in any::<u64>(), c in any::<u8>()) {
        use rand::{rngs::StdRng, RngCore, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        for len in KERNEL_LENS {
            let mut src = vec![0u8; len];
            let mut dst = vec![0u8; len];
            rng.fill_bytes(&mut src);
            rng.fill_bytes(&mut dst);
            for c in [c, 0, 1] {
                let expect: Vec<u8> = dst
                    .iter()
                    .zip(src.iter())
                    .map(|(&d, &s)| Gf256::new(d).add(Gf256::new(c).mul(Gf256::new(s))).value())
                    .collect();
                let mut got = dst.clone();
                bulk::mul_add_slice(&mut got, c, &src);
                prop_assert_eq!(&got, &expect, "len {} c {}", len, c);
            }
        }
    }

    /// `bulk::mul_slice` (in place) and `bulk::mul_slice_into` agree
    /// with scalar multiplication at every interesting length.
    #[test]
    fn bulk_mul_matches_scalar(seed in any::<u64>(), c in any::<u8>()) {
        use rand::{rngs::StdRng, RngCore, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        for len in KERNEL_LENS {
            let mut src = vec![0u8; len];
            rng.fill_bytes(&mut src);
            for c in [c, 0, 1] {
                let expect: Vec<u8> = src
                    .iter()
                    .map(|&s| Gf256::new(c).mul(Gf256::new(s)).value())
                    .collect();
                let mut in_place = src.clone();
                bulk::mul_slice(&mut in_place, c);
                prop_assert_eq!(&in_place, &expect, "mul_slice len {} c {}", len, c);
                let mut into = vec![0xEEu8; len];
                bulk::mul_slice_into(&mut into, c, &src);
                prop_assert_eq!(&into, &expect, "mul_slice_into len {} c {}", len, c);
            }
        }
    }

    /// The SWAR XOR path is exact at word boundaries and remainders.
    #[test]
    fn bulk_xor_matches_scalar(seed in any::<u64>()) {
        use rand::{rngs::StdRng, RngCore, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        for len in KERNEL_LENS {
            let mut src = vec![0u8; len];
            let mut dst = vec![0u8; len];
            rng.fill_bytes(&mut src);
            rng.fill_bytes(&mut dst);
            let expect: Vec<u8> = dst.iter().zip(src.iter()).map(|(d, s)| d ^ s).collect();
            bulk::xor_slice(&mut dst, &src);
            prop_assert_eq!(&dst, &expect, "len {}", len);
        }
    }
}

// ---- per-backend kernel oracles -------------------------------------------
//
// Every backend the host offers (scalar, SWAR, and — on capable hosts —
// SIMD) must agree bit-for-bit with element-at-a-time scalar field
// arithmetic, over arbitrary lengths (odd tails), unaligned starting
// offsets (the SIMD engines use unaligned loads, but the tail-handoff
// arithmetic must stay exact wherever the slice begins), and the
// special-cased `c = 0` / `c = 1` coefficients.

proptest! {
    /// All five GF(2⁸) slice transforms plus the dot product, on every
    /// available backend.
    #[test]
    fn gf8_kernels_match_oracle_on_every_backend(
        seed in any::<u64>(),
        len in 0usize..530,
        off in 0usize..17,
        c_any in any::<u8>(),
    ) {
        use rand::{rngs::StdRng, RngCore, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a_buf = vec![0u8; off + len];
        let mut b_buf = vec![0u8; off + len];
        rng.fill_bytes(&mut a_buf);
        rng.fill_bytes(&mut b_buf);
        let a = &a_buf[off..];
        let b = &b_buf[off..];
        let mul = |x: u8, y: u8| Gf256::new(x).mul(Gf256::new(y)).value();
        for backend in slicing_gf::simd::available_backends() {
            for c in [c_any, 0, 1] {
                // axpy: dst ^= c·src
                let mut got = a_buf.clone();
                bulk::mul_add_slice_on(backend, &mut got[off..], c, b);
                let want: Vec<u8> =
                    a.iter().zip(b).map(|(&d, &s)| d ^ mul(c, s)).collect();
                prop_assert_eq!(&got[off..], &want[..], "axpy {} c {}", backend, c);
                // scale in place: dst = c·dst
                let mut got = a_buf.clone();
                bulk::mul_slice_on(backend, &mut got[off..], c);
                let want: Vec<u8> = a.iter().map(|&d| mul(c, d)).collect();
                prop_assert_eq!(&got[off..], &want[..], "scale {} c {}", backend, c);
                // scale into: dst = c·src
                let mut got = a_buf.clone();
                bulk::mul_slice_into_on(backend, &mut got[off..], c, b);
                let want: Vec<u8> = b.iter().map(|&s| mul(c, s)).collect();
                prop_assert_eq!(&got[off..], &want[..], "into {} c {}", backend, c);
                // fused forward: dst = c·dst ^ pad
                let mut got = a_buf.clone();
                bulk::mul_xor_slice_on(backend, &mut got[off..], c, b);
                let want: Vec<u8> =
                    a.iter().zip(b).map(|(&d, &p)| mul(c, d) ^ p).collect();
                prop_assert_eq!(&got[off..], &want[..], "mul_xor {} c {}", backend, c);
                // fused inverse: dst = c·(dst ^ pad)
                let mut got = a_buf.clone();
                bulk::xor_mul_slice_on(backend, &mut got[off..], c, b);
                let want: Vec<u8> =
                    a.iter().zip(b).map(|(&d, &p)| mul(c, d ^ p)).collect();
                prop_assert_eq!(&got[off..], &want[..], "xor_mul {} c {}", backend, c);
            }
            // dot: Σ a[i]·b[i]
            let want = a.iter().zip(b).fold(0u8, |acc, (&x, &y)| acc ^ mul(x, y));
            prop_assert_eq!(bulk::dot_slice8_on(backend, a, b), want, "dot {}", backend);
        }
    }

    /// The fused multi-output kernel equals independent scalar axpy
    /// sweeps for every output/source shape on every backend.
    #[test]
    fn fused_kernel_matches_oracle_on_every_backend(
        seed in any::<u64>(),
        len in 0usize..300,
        nout in 1usize..7,
        nsrc in 1usize..7,
    ) {
        use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let srcs: Vec<Vec<u8>> = (0..nsrc)
            .map(|_| {
                let mut v = vec![0u8; len];
                rng.fill_bytes(&mut v);
                v
            })
            .collect();
        let inits: Vec<Vec<u8>> = (0..nout)
            .map(|_| {
                let mut v = vec![0u8; len];
                rng.fill_bytes(&mut v);
                v
            })
            .collect();
        // Include the c = 0 / c = 1 edges among random coefficients.
        let coeffs: Vec<u8> = (0..nout * nsrc)
            .map(|i| match i % 5 {
                0 => 0,
                1 => 1,
                _ => rng.gen(),
            })
            .collect();
        let mut want = inits.clone();
        for (j, w) in want.iter_mut().enumerate() {
            for (i, s) in srcs.iter().enumerate() {
                let c = coeffs[j * nsrc + i];
                for (d, &x) in w.iter_mut().zip(s) {
                    *d ^= Gf256::new(c).mul(Gf256::new(x)).value();
                }
            }
        }
        let src_refs: Vec<&[u8]> = srcs.iter().map(|s| s.as_slice()).collect();
        for backend in slicing_gf::simd::available_backends() {
            let mut outs = inits.clone();
            let mut out_refs: Vec<&mut [u8]> =
                outs.iter_mut().map(|o| o.as_mut_slice()).collect();
            bulk::mul_add_fused_on(backend, &mut out_refs, &coeffs, &src_refs);
            prop_assert_eq!(&outs, &want, "fused {} {}x{}", backend, nout, nsrc);
        }
    }
}
