//! Criterion benches for the relay data plane: packets/sec through a
//! one-shard `ShardedRelay::handle_packet` (the bare engine: its router
//! short-circuits) and the cost of the timer `poll`, at
//! 1 / 64 / 1024 concurrent flows (the §7.1 per-node multi-flow daemon,
//! scaled toward the ROADMAP's "millions of users" north star), plus a
//! multi-threaded sharded scaling run: the same message stream pushed
//! through a `ShardedRelay` split 1/2/4/8 ways, one thread per shard,
//! reporting aggregate packets/sec (flows have shard affinity, so flows
//! are the unit of parallelism — 1 flow cannot use 8 shards).
//!
//! Each iteration replays one full data message for one flow: the relay
//! receives one wire packet from each parent (decoded from bytes, as the
//! daemon would), completes the gather and flushes downstream — i.e. the
//! whole receive → gather → re-code → forward hot path.
//!
//! Set `RELAY_BENCH_QUICK=1` for a seconds-long smoke run (CI exercises
//! the sharded path this way); leave it unset for the recorded numbers.

// criterion_group! expands to an undocumented fn.
#![allow(missing_docs)]

use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use slicing_core::{
    DataMode, DestPlacement, GraphParams, OverlayAddr, Packet, RelayShard, ShardedRelay,
    SourceSession, Tick,
};

/// Wire offset of the `seq` header field (magic 2 + version 1 + kind 1 +
/// flow id 8).
const SEQ_OFFSET: usize = 12;

/// Whether to run the short smoke configuration.
fn quick() -> bool {
    std::env::var_os("RELAY_BENCH_QUICK").is_some()
}

/// One established flow hosted by the benched relay: the wire bytes of a
/// template data message (one packet per parent) whose `seq` field gets
/// patched per iteration.
struct FlowTemplates {
    packets: Vec<(OverlayAddr, Vec<u8>)>,
}

/// Build `flows` independent small graphs and establish each on a relay
/// split `shards` ways (fed the graph's stage-1 setup packets), returning
/// the relay and the per-flow data-packet templates.
fn establish(flows: usize, shards: usize) -> (ShardedRelay, Vec<FlowTemplates>) {
    let mut relay = ShardedRelay::new(OverlayAddr(42), 7, shards);
    let params = GraphParams::new(3, 2)
        .with_paths(2)
        .with_data_mode(DataMode::Recode)
        .with_dest_placement(DestPlacement::LastStage);
    let pseudo: Vec<OverlayAddr> = (0..2u64).map(|i| OverlayAddr(10_000 + i)).collect();
    let candidates: Vec<OverlayAddr> = (0..16u64).map(|i| OverlayAddr(20_000 + i)).collect();
    let mut templates = Vec::with_capacity(flows);
    for f in 0..flows {
        let (mut source, setup) = SourceSession::establish(
            params,
            &pseudo,
            &candidates,
            OverlayAddr(1),
            1000 + f as u64,
        )
        .expect("valid params");
        let target = source.graph().stages[1][0];
        for instr in setup {
            if instr.to == target {
                relay.handle_packet(Tick(0), instr.from, &instr.packet);
            }
        }
        let payload = vec![0xA5u8; 1200];
        let (_, sends) = source.send_message(&payload).expect("within chunk budget");
        let packets = sends
            .into_iter()
            .filter(|s| s.to == target)
            .map(|s| (s.from, s.packet.encode().to_vec()))
            .collect();
        templates.push(FlowTemplates { packets });
    }
    assert_eq!(
        relay.stats().flows_established,
        flows as u64,
        "all benched flows must establish"
    );
    (relay, templates)
}

fn relay_data_plane(c: &mut Criterion) {
    let (meas, warm) = if quick() {
        (Duration::from_millis(80), Duration::from_millis(20))
    } else {
        (Duration::from_millis(800), Duration::from_millis(200))
    };
    let mut group = c.benchmark_group("relay_data_plane");
    group.sample_size(20);
    group.measurement_time(meas);
    group.warm_up_time(warm);
    for flows in [1usize, 64, 1024] {
        let (mut relay, mut templates) = establish(flows, 1);
        // Two parent packets per message = two handle_packet calls/iter.
        group.throughput(Throughput::Elements(2));
        let mut seq: u32 = 1;
        let mut next = 0usize;
        group.bench_with_input(
            BenchmarkId::new("handle_packet", flows),
            &flows,
            |b, _| {
                b.iter(|| {
                    let t = &mut templates[next];
                    next = (next + 1) % flows;
                    seq = seq.wrapping_add(1);
                    let mut outputs = 0usize;
                    for (from, bytes) in &mut t.packets {
                        bytes[SEQ_OFFSET..SEQ_OFFSET + 4].copy_from_slice(&seq.to_le_bytes());
                        let packet = Packet::decode(bytes).expect("valid template");
                        let out = relay.handle_packet(Tick(1), *from, &packet);
                        outputs += out.sends.len();
                    }
                    black_box(outputs)
                });
            },
        );
    }
    group.finish();

    // poll() with nothing expired: the per-tick cost a daemon pays every
    // 50 ms regardless of traffic.
    let mut group = c.benchmark_group("relay_poll_idle");
    group.sample_size(20);
    group.measurement_time(if quick() { meas } else { Duration::from_millis(400) });
    group.warm_up_time(if quick() { warm } else { Duration::from_millis(100) });
    for flows in [1usize, 64, 1024] {
        let (mut relay, _templates) = establish(flows, 1);
        group.bench_with_input(BenchmarkId::new("poll", flows), &flows, |b, _| {
            b.iter(|| black_box(relay.poll(Tick(100)).sends.len()));
        });
    }
    group.finish();
}

/// One worker's share of a sharded run: its shard plus the templates the
/// router assigns to it.
struct ShardWork {
    shard: RelayShard,
    templates: Vec<FlowTemplates>,
}

/// Aggregate packets/sec through a `ShardedRelay` split `shards` ways,
/// one OS thread per shard (the worker-task model of the sharded
/// daemon), over `run_for` of wall clock.
fn sharded_rate(shards: usize, flows: usize, run_for: Duration) -> f64 {
    let (relay, templates) = establish(flows, shards);
    let router = relay.router().clone();
    let (shard_states, _, _) = relay.into_parts();

    // Partition flows exactly as the ingress dispatcher would.
    let mut work: Vec<ShardWork> = shard_states
        .into_iter()
        .map(|shard| ShardWork {
            shard,
            templates: Vec::new(),
        })
        .collect();
    for t in templates {
        let flow = Packet::decode(&t.packets[0].1)
            .expect("valid template")
            .header
            .flow_id;
        work[router.route(flow)].templates.push(t);
    }

    let barrier = Barrier::new(shards + 1);
    let total_packets = Mutex::new(0u64);
    // Placeholder; the driver stores the real deadline before releasing
    // the barrier the workers wait on.
    let deadline = Mutex::new(Instant::now());
    std::thread::scope(|scope| {
        for w in &mut work {
            let barrier = &barrier;
            let total_packets = &total_packets;
            let deadline = &deadline;
            scope.spawn(move || {
                barrier.wait();
                let stop = *deadline.lock().unwrap();
                let mut seq: u32 = 1;
                let mut next = 0usize;
                let mut packets = 0u64;
                if w.templates.is_empty() {
                    return; // no flows landed on this shard
                }
                // Check the clock once per 64 messages, not per packet.
                'outer: loop {
                    for _ in 0..64 {
                        let n = w.templates.len();
                        let t = &mut w.templates[next];
                        next = (next + 1) % n;
                        seq = seq.wrapping_add(1);
                        for (from, bytes) in &mut t.packets {
                            bytes[SEQ_OFFSET..SEQ_OFFSET + 4]
                                .copy_from_slice(&seq.to_le_bytes());
                            let packet = Packet::decode(bytes).expect("valid template");
                            black_box(w.shard.handle_packet(Tick(1), *from, &packet).sends.len());
                            packets += 1;
                        }
                    }
                    if Instant::now() >= stop {
                        break 'outer;
                    }
                }
                *total_packets.lock().unwrap() += packets;
            });
        }
        let start = Instant::now();
        *deadline.lock().unwrap() = start + run_for;
        barrier.wait();
    });
    let elapsed = run_for.as_secs_f64();
    let packets = *total_packets.lock().unwrap();
    packets as f64 / elapsed
}

/// The sharded scaling table (printed, not a criterion group: the
/// measured quantity is aggregate throughput across threads).
fn sharded_scaling(_c: &mut Criterion) {
    let run_for = if quick() {
        Duration::from_millis(60)
    } else {
        Duration::from_millis(400)
    };
    let flow_counts: &[usize] = if quick() { &[1, 64] } else { &[1, 64, 1024] };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("\nsharded relay scaling (aggregate packets/sec, one thread per shard):");
    println!(
        "available hardware parallelism: {cores} core(s) — speedup is bounded by min(shards, cores, flows)"
    );
    println!("{:>8} {:>8} {:>14} {:>10}", "shards", "flows", "pkts/s", "vs 1");
    for &flows in flow_counts {
        let mut base = 0.0f64;
        for &shards in &[1usize, 2, 4, 8] {
            let rate = sharded_rate(shards, flows, run_for);
            if shards == 1 {
                base = rate;
            }
            println!(
                "{:>8} {:>8} {:>14.0} {:>9.2}x",
                shards,
                flows,
                rate,
                rate / base.max(1.0)
            );
        }
    }
}

criterion_group!(benches, relay_data_plane, sharded_scaling);
criterion_main!(benches);
