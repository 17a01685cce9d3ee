//! §7.1 microbenchmarks: coding/decoding cost per packet, implied
//! maximum output rate, and memory footprint — the in-text table of the
//! implementation section.
//!
//! The paper (Celeron 800 MHz): coding ≈ d GF multiplications per byte;
//! at d = 5, ~60 µs per 1500 B packet → ~200 Mb/s ceiling; memory
//! footprint d × 1500 B.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use slicing_bench::{banner, RunOpts, Table};
use slicing_codec::{decode, encode, recombine};
use slicing_wire::crc;

fn main() {
    let opts = RunOpts::from_args();
    let reps = opts.trials(2000);
    banner(
        "§7.1 — coding microbenchmarks (1500 B packets)",
        "per-packet encode/decode/recombine cost and implied max rate",
        "encode cost grows ~linearly with d; hundreds of Mb/s on modern \
         hardware (paper: 200 Mb/s at d=5 on a Celeron 800)",
    );
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let packet = vec![0xABu8; 1500];
    let mut table = Table::new(&[
        "d",
        "encode_us",
        "decode_us",
        "recombine_us",
        "max_rate_mbps",
        "mem_footprint_B",
    ]);
    for d in 2..=8usize {
        // Encode.
        let start = Instant::now();
        let mut coded = None;
        for _ in 0..reps {
            coded = Some(encode(&packet, d, d, &mut rng));
        }
        let encode_us = start.elapsed().as_micros() as f64 / reps as f64;
        let coded = coded.unwrap();

        // Decode.
        let start = Instant::now();
        for _ in 0..reps {
            let _ = decode(&coded.slices, d).unwrap();
        }
        let decode_us = start.elapsed().as_micros() as f64 / reps as f64;

        // Relay recombination (the per-hop data cost in Recode mode).
        let start = Instant::now();
        for _ in 0..reps {
            let _ = recombine(&coded.slices, &mut rng);
        }
        let recombine_us = start.elapsed().as_micros() as f64 / reps as f64;

        let max_rate_mbps = (1500.0 * 8.0) / encode_us; // Mbit/s
        let mem = (d * (1500 / d + d + 4)) as f64;
        table.row(&[
            d as f64,
            encode_us,
            decode_us,
            recombine_us,
            max_rate_mbps,
            mem,
        ]);
    }
    table.print();
    crc_rows(reps);
}

/// Slot-checksum throughput per backend at the three slot shapes the
/// gated benchmark uses (`engine_small`, the UDP workloads,
/// `engine_bulk`): every data slot pays this once at its sender and once
/// at its receiver, per hop.
fn crc_rows(reps: usize) {
    println!(
        "\nslot CRC-32 (active backend: {}, isa: {})",
        crc::backend(),
        crc::isa()
    );
    let backends = crc::available_backends();
    let mut columns = vec!["slot_B".to_string()];
    for backend in &backends {
        columns.push(format!("{backend}_gibs"));
        columns.push(format!("{backend}_ns"));
    }
    let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = Table::new(&columns);
    for slot_len in [40usize, 200, 1338] {
        let mut slot: Vec<u8> = (0..slot_len).map(|i| (i * 31) as u8).collect();
        let mut row = vec![slot_len as f64];
        for &backend in &backends {
            let body = slot_len - 4;
            let iters = reps * 200;
            let start = Instant::now();
            for _ in 0..iters {
                // Feed the result back so successive calls cannot overlap
                // beyond what a real write-then-send sequence allows.
                let c = crc::crc32_on(backend, black_box(&slot[..body]));
                slot[0] ^= c as u8;
            }
            let ns = start.elapsed().as_nanos() as f64 / iters as f64;
            row.push(body as f64 / ns * 1e9 / (1u64 << 30) as f64);
            row.push(ns);
        }
        table.row(&row);
    }
    table.print();
}
