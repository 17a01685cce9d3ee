//! Criterion benches for the finite-field substrate: the per-byte
//! multiplication kernel (the §7.1 cost driver) and matrix inversion
//! (the per-relay decode step).

// criterion_group! expands to an undocumented fn.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use slicing_gf::{bulk, Gf256, Matrix};

fn gf(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);

    let mut group = c.benchmark_group("gf_mul");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_millis(600));
    group.warm_up_time(std::time::Duration::from_millis(200));
    let a256: Vec<Gf256> = (0..4096).map(|_| Gf256::random(&mut rng)).collect();
    let b256: Vec<Gf256> = (0..4096).map(|_| Gf256::random(&mut rng)).collect();
    group.throughput(Throughput::Bytes(4096));
    // The pre-port scalar loop (log/exp per element) the bulk-table
    // `dot` replaced; kept for the before/after delta.
    group.bench_function("gf256_4096", |bench| {
        bench.iter(|| {
            let mut acc = Gf256::zero();
            for (&x, &y) in a256.iter().zip(b256.iter()) {
                acc = acc.add(x.mul(y));
            }
            acc
        });
    });
    group.bench_function("gf256_4096_dot_bulk", |bench| {
        bench.iter(|| slicing_gf::dot(&a256, &b256));
    });
    // Field-element axpy: the matrix-elimination row kernel, scalar loop
    // vs the bulk-table `axpy` it now dispatches to.
    let mut acc256: Vec<Gf256> = (0..4096).map(|_| Gf256::random(&mut rng)).collect();
    group.bench_function("gf256_4096_axpy_scalar", |bench| {
        bench.iter(|| {
            let c = Gf256::new(0xA7);
            for (a, &s) in acc256.iter_mut().zip(b256.iter()) {
                *a = a.add(c.mul(s));
            }
        });
    });
    group.bench_function("gf256_4096_axpy_bulk", |bench| {
        bench.iter(|| slicing_gf::axpy(&mut acc256, Gf256::new(0xA7), &b256));
    });
    group.finish();

    // The bulk byte-slice kernels every packet payload goes through,
    // against the element-at-a-time loops they replaced.
    let mut group = c.benchmark_group("bulk_kernels_4096B");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_millis(600));
    group.warm_up_time(std::time::Duration::from_millis(200));
    let mut src = vec![0u8; 4096];
    rng.fill_bytes(&mut src);
    let mut dst = vec![0u8; 4096];
    rng.fill_bytes(&mut dst);
    group.throughput(Throughput::Bytes(4096));
    group.bench_function("scalar_axpy", |bench| {
        bench.iter(|| {
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                *d ^= Gf256::mul_bytes(0xA7, s);
            }
        });
    });
    group.bench_function("bulk_mul_add", |bench| {
        bench.iter(|| bulk::mul_add_slice(&mut dst, 0xA7, &src));
    });
    group.bench_function("scalar_xor", |bench| {
        bench.iter(|| {
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                *d ^= s;
            }
        });
    });
    group.bench_function("bulk_xor", |bench| {
        bench.iter(|| bulk::xor_slice(&mut dst, &src));
    });
    group.bench_function("bulk_mul_slice", |bench| {
        bench.iter(|| bulk::mul_slice(&mut dst, 0xA7));
    });
    group.finish();

    // The same kernels pinned to each backend the host offers, so one
    // run shows the scalar → SWAR → SIMD trajectory side by side.
    let mut group = c.benchmark_group("gf_backends_4096B");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_millis(600));
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.throughput(Throughput::Bytes(4096));
    let dot_a = a256.iter().map(|g| g.value()).collect::<Vec<u8>>();
    let dot_b = b256.iter().map(|g| g.value()).collect::<Vec<u8>>();
    for backend in slicing_gf::simd::available_backends() {
        group.bench_function(BenchmarkId::new("axpy8", backend), |bench| {
            bench.iter(|| bulk::mul_add_slice_on(backend, &mut dst, 0xA7, &src));
        });
        group.bench_function(BenchmarkId::new("dot8", backend), |bench| {
            bench.iter(|| bulk::dot_slice8_on(backend, &dot_a, &dot_b));
        });
    }
    group.finish();

    // The fused multi-output kernel (4 outputs × 4 sources) vs the 16
    // independent axpy sweeps it replaces in relay recombination.
    let mut group = c.benchmark_group("gf_fused_4x4x1024B");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_millis(600));
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.throughput(Throughput::Bytes(16 * 1024));
    let srcs: Vec<Vec<u8>> = (0..4)
        .map(|_| {
            let mut v = vec![0u8; 1024];
            rng.fill_bytes(&mut v);
            v
        })
        .collect();
    let src_refs: Vec<&[u8]> = srcs.iter().map(|s| s.as_slice()).collect();
    let coeffs: Vec<u8> = (0..16).map(|i| (i as u8).wrapping_mul(37) | 1).collect();
    let mut outs: Vec<Vec<u8>> = vec![vec![0u8; 1024]; 4];
    for backend in slicing_gf::simd::available_backends() {
        group.bench_function(BenchmarkId::new("sweeps", backend), |bench| {
            bench.iter(|| {
                for (j, out) in outs.iter_mut().enumerate() {
                    for (i, s) in src_refs.iter().enumerate() {
                        bulk::mul_add_slice_on(backend, out, coeffs[j * 4 + i], s);
                    }
                }
            });
        });
        group.bench_function(BenchmarkId::new("fused", backend), |bench| {
            bench.iter(|| {
                let mut out_refs: Vec<&mut [u8]> =
                    outs.iter_mut().map(|o| o.as_mut_slice()).collect();
                bulk::mul_add_fused_on(backend, &mut out_refs, &coeffs, &src_refs);
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("matrix_inverse");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_millis(600));
    group.warm_up_time(std::time::Duration::from_millis(200));
    for n in [2usize, 4, 8] {
        let m = Matrix::random_invertible(n, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| m.inverse().unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, gf);
criterion_main!(benches);
