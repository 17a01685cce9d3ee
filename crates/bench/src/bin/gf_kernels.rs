//! GF(2⁸) kernel throughput smoke: GiB/s per kernel, per available
//! backend — and a machine-readable `BENCH_gf.json` so CI
//! records the perf trajectory across PRs.
//!
//! Self-timed (no criterion) so it runs in seconds as a CI step. Each
//! kernel is timed over `reps` passes of a 4096 B working set (small
//! enough to stay in L1, so this measures the kernels, not the memory
//! bus). Output goes to stdout as the usual aligned table and to
//! `BENCH_gf.json` in the current directory (`--out PATH` overrides).
//!
//! Kernels covered, matching the gf_bench criterion groups:
//! * `axpy8` / `dot8` — GF(2⁸) slice transform and dot product;
//! * `fused8` — the 4-output × 4-source fused recombine kernel.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use slicing_bench::{banner, RunOpts, Table};
use slicing_gf::{bulk, simd};

/// Bytes processed per kernel pass (per input stream).
const LEN: usize = 4096;

/// Time `f` over `reps` calls and return GiB/s for `bytes_per_call`.
fn gibs(reps: usize, bytes_per_call: usize, mut f: impl FnMut()) -> f64 {
    // One warm-up pass builds any per-coefficient tables and faults
    // pages in before the timed window.
    f();
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    let secs = start.elapsed().as_secs_f64();
    (reps * bytes_per_call) as f64 / secs / (1u64 << 30) as f64
}

fn main() {
    let opts = RunOpts::from_args();
    let reps = opts.trials(200_000);
    let out_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1).cloned())
            .unwrap_or_else(|| "BENCH_gf.json".to_string())
    };
    banner(
        "GF kernel throughput (4096 B working set)",
        &format!(
            "dispatch: {} ({}); backends: {:?}",
            simd::backend(),
            simd::isa(),
            simd::available_backends()
        ),
        "SIMD ≥4× SWAR on axpy/dot on a capable host",
    );

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut dst = vec![0u8; LEN];
    let mut src = vec![0u8; LEN];
    rng.fill_bytes(&mut dst);
    rng.fill_bytes(&mut src);
    let srcs: Vec<Vec<u8>> = (0..4)
        .map(|_| {
            let mut v = vec![0u8; LEN / 4];
            rng.fill_bytes(&mut v);
            v
        })
        .collect();
    let src_refs: Vec<&[u8]> = srcs.iter().map(|s| s.as_slice()).collect();
    let coeffs: Vec<u8> = (0..16).map(|_| rng.gen_range(1..=255)).collect();
    let mut fused_outs: Vec<Vec<u8>> = vec![vec![0u8; LEN / 4]; 4];

    let mut table = Table::new(&["backend", "axpy8", "dot8", "fused8"]);
    let mut entries = Vec::new();
    for (bi, backend) in simd::available_backends().into_iter().enumerate() {
        let axpy8 = gibs(reps, LEN, || {
            bulk::mul_add_slice_on(backend, &mut dst, 0xA7, &src)
        });
        let dot8 = gibs(reps, LEN, || {
            std::hint::black_box(bulk::dot_slice8_on(backend, &dst, &src));
        });
        let fused8 = gibs(reps / 4, 4 * LEN, || {
            let mut out_refs: Vec<&mut [u8]> =
                fused_outs.iter_mut().map(|o| o.as_mut_slice()).collect();
            bulk::mul_add_fused_on(backend, &mut out_refs, &coeffs, &src_refs);
        });
        table.row(&[bi as f64, axpy8, dot8, fused8]);
        entries.push(format!(
            "    {{\"backend\": \"{backend}\", \
             \"gf8\": {{\"axpy_gibs\": {axpy8:.3}, \"dot_gibs\": {dot8:.3}, \
             \"fused_axpy_gibs\": {fused8:.3}}}}}"
        ));
    }
    println!("(backend column: index into {:?})", simd::available_backends());
    table.print();

    let json = format!(
        "{{\n  \"bench\": \"gf_kernels\",\n  \"working_set_bytes\": {LEN},\n  \
         \"dispatch\": \"{}\",\n  \"isa\": \"{}\",\n  \"kernels\": [\n{}\n  ]\n}}\n",
        simd::backend(),
        simd::isa(),
        entries.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write BENCH_gf.json");
    println!("wrote {out_path}");
}
