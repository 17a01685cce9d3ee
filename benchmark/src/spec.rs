//! The six workloads' fixed constants. `BENCHMARK.json` names the
//! workloads and says why each exists; its schema has no room for
//! their parameters, so they live here (and in the README's table).
//! Changing any of them changes the baseline: that is its own PR.

use slicing_core::{DataMode, DestPlacement, GraphParams};

use crate::engine::EngineSpec;
use crate::live::{LiveSpec, Load};

pub enum Workload {
    Engine(EngineSpec),
    Live(LiveSpec),
}

/// Every graph ends at the destination (`LastStage`), so a message
/// crosses all `L` stages and latency covers the whole path.
fn graph(length: usize, split: usize, paths: usize, mode: DataMode) -> GraphParams {
    GraphParams::new(length, split)
        .with_paths(paths)
        .with_data_mode(mode)
        .with_dest_placement(DestPlacement::LastStage)
}

/// The live overlay all three UDP workloads share.
fn live(name: &'static str, msg_len: usize, warmup: u64, load: Load) -> Workload {
    Workload::Live(LiveSpec {
        name,
        nodes: 8,
        sessions: 512,
        opens_per_s: 500.0,
        params: graph(3, 2, 2, DataMode::Map),
        msg_len,
        warmup,
        load,
    })
}

pub fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "engine_small" => Workload::Engine(EngineSpec {
            name: "engine_small",
            flows: 16_384,
            params: graph(3, 2, 2, DataMode::Map),
            msg_len: 64,
            warmup: 16_384,
            flow_ttl_ms: 120_000,
            // A poll sweep every 800 messages. At 64 per tick the
            // relays' gather tables grow large enough between sweeps
            // that their periodic rehash (≈ 30 µs) lands on ≈ 1 % of
            // messages — exactly where p99 is read — and p99 flips
            // between 0.03 and 0.065 ms from one second to the next.
            ops_per_tick: 16,
        }),
        "engine_bulk" => Workload::Engine(EngineSpec {
            name: "engine_bulk",
            flows: 16,
            params: graph(5, 3, 4, DataMode::Recode),
            msg_len: 4_000,
            warmup: 1_024,
            flow_ttl_ms: 120_000,
            // ≈ 4000 msg/s, so the virtual clock runs near real time.
            // At 64 per tick eight seconds are half a virtual second:
            // no gather tombstone is ever reaped and they pile up
            // (230 MiB where this holds 60).
            ops_per_tick: 4,
        }),
        // 1000 sessions per virtual second against a 5 s flow TTL: the
        // timer wheel evicts as fast as the driver inserts.
        "engine_churn" => Workload::Engine(EngineSpec {
            name: "engine_churn",
            flows: 0,
            params: graph(3, 2, 2, DataMode::Map),
            msg_len: 64,
            warmup: 6_000,
            flow_ttl_ms: 5_000,
            ops_per_tick: 1,
        }),
        "udp_sat" => live("udp_sat", 400, 2_048, Load::Closed { in_flight: 64 }),
        "udp_paced" => live(
            "udp_paced",
            400,
            1_024,
            Load::Open {
                msgs_per_s: 4_000.0,
            },
        ),
        "udp_stream" => live("udp_stream", 100_000, 2, Load::Stream { queued: 4 }),
        _ => return None,
    })
}

/// Length of the short pass of the other driver a traced run adds (see
/// `complement` in main.rs).
pub const REFERENCE_SECONDS: f64 = 1.0;

/// The sans-IO engine at a live workload's graph shape and message
/// size: what `core`, `wire` and the coding layers cost per message
/// there, which a live run cannot see from outside its tasks.
pub fn engine_reference(params: GraphParams, msg_len: usize) -> EngineSpec {
    EngineSpec {
        name: "engine_reference",
        flows: 64,
        params,
        msg_len,
        warmup: 256,
        flow_ttl_ms: 120_000,
        ops_per_tick: 16,
    }
}

/// A small live overlay under closed-loop load: transport and session
/// numbers to set beside an engine workload's.
pub fn live_reference() -> LiveSpec {
    LiveSpec {
        name: "live_reference",
        nodes: 8,
        sessions: 64,
        opens_per_s: 500.0,
        params: graph(3, 2, 2, DataMode::Map),
        msg_len: 400,
        warmup: 64,
        load: Load::Closed { in_flight: 16 },
    }
}
