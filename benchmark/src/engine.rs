//! The sans-IO workloads: one thread drives `SourceSession`s and a pool
//! of `ShardedRelay`s directly, packets handed from one state machine
//! to the next through a FIFO — no sockets, no runtime, no timers. What
//! is left is exactly the per-packet and per-flow cost of `graph`,
//! `core`, `wire`, `codec`, `gf` and `crypto`.
//!
//! Two things a daemon does are kept because leaving them out changes
//! what is measured: every packet is re-parsed from its wire bytes
//! (`Packet::from_bytes`) before a relay sees it, and a virtual clock
//! advances with the traffic and polls every relay each 50 virtual ms.
//! With a frozen clock the relays' gather tombstones are never reaped
//! and resident memory balloons (58 → 317 MiB at 4096 flows).

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slicing_core::{
    DataMode, FlowId, GraphParams, OverlayAddr, Packet, PacketKind, ReceivedData, RelayConfig,
    SendInstr, ShardedRelay, SourceSession, Tick,
};

use crate::json::Json;
use crate::outcome::{mbps, EndToEnd, Measured};
use crate::payload::{mix, MsgKey, Payloads};
use crate::stats::{self, Windows};
use crate::trace::{Layer, Tracer};

/// Relays in the pool every graph draws from.
const POOL: usize = 32;
const RELAY_BASE: u64 = 10_000;
const PSEUDO_BASE: u64 = 1_000_000;
/// The daemons' poll period, in virtual milliseconds.
const POLL_EVERY_MS: u64 = 50;

/// One sans-IO workload.
pub struct EngineSpec {
    pub name: &'static str,
    /// Standing flows established before the timed phase and sent on
    /// round-robin; 0 = the churn workload, where every timed
    /// operation establishes a fresh flow, sends once and abandons it.
    pub flows: usize,
    pub params: GraphParams,
    pub msg_len: usize,
    /// Operations run before timing starts (messages, or sessions on
    /// the churn workload). A count, not a duration, so that set-up
    /// time follows the speed of the code under test.
    pub warmup: usize,
    pub flow_ttl_ms: u64,
    /// Operations per virtual millisecond.
    pub ops_per_tick: u64,
}

struct Flow {
    source: SourceSession,
    /// The flow id the destination delivers under.
    dest_flow: FlowId,
    next_index: u32,
}

/// The in-memory network: relays, FIFO, virtual clock.
struct Net {
    relays: Vec<ShardedRelay>,
    queue: VecDeque<SendInstr>,
    now: Tick,
    last_poll: Tick,
    delivered: Vec<ReceivedData>,
    established: Vec<(FlowId, bool)>,
    /// Data packets relays handled (for packets-per-message).
    data_packets: u64,
}

impl Net {
    fn new(seed: u64, flow_ttl_ms: u64) -> Self {
        let config = RelayConfig {
            flow_ttl_ms,
            max_flows: 1 << 20,
            ..RelayConfig::default()
        };
        Net {
            relays: (0..POOL as u64)
                .map(|i| {
                    ShardedRelay::with_config(OverlayAddr(RELAY_BASE + i), seed ^ i, config, 1)
                })
                .collect(),
            queue: VecDeque::new(),
            now: Tick::ZERO,
            last_poll: Tick::ZERO,
            delivered: Vec::new(),
            established: Vec::new(),
            data_packets: 0,
        }
    }

    /// Deliver queued packets, and the packets they cause, until quiet.
    fn run(&mut self, tr: &mut Tracer, req: u64) {
        while let Some(instr) = self.queue.pop_front() {
            // Packets for the pseudo-sources (reverse path) have no
            // receiver here: raw messages are not acknowledged.
            let Some(relay) = instr
                .to
                .0
                .checked_sub(RELAY_BASE)
                .and_then(|i| self.relays.get_mut(i as usize))
            else {
                continue;
            };
            let wire = instr.packet.encode();
            tr.begin(Layer::WireDecode, req);
            let parsed = Packet::from_bytes(wire);
            tr.end();
            let packet = parsed.expect("the engine emits well-formed packets");
            tr.begin(Layer::RelayData, req);
            let out = relay.handle_packet(self.now, instr.from, &packet);
            tr.end_as(match packet.header.kind {
                PacketKind::Setup => Layer::RelaySetup,
                _ if !out.received.is_empty() => Layer::RelayDest,
                _ => Layer::RelayData,
            });
            if packet.header.kind == PacketKind::Data {
                self.data_packets += 1;
            }
            self.queue.extend(out.sends);
            self.delivered.extend(out.received);
            self.established.extend(out.established);
        }
    }

    /// Advance the virtual clock by one millisecond; every 50 of them,
    /// poll each relay as its daemon would.
    fn tick(&mut self, tr: &mut Tracer) {
        self.now = self.now.plus(1);
        if self.now.since(self.last_poll) < POLL_EVERY_MS {
            return;
        }
        self.last_poll = self.now;
        for relay in &mut self.relays {
            tr.begin(Layer::RelayPoll, 0);
            let out = relay.poll(self.now);
            tr.end();
            self.queue.extend(out.sends);
            self.delivered.extend(out.received);
        }
        self.run(tr, 0);
    }

    fn live_relay_flows(&self) -> usize {
        self.relays.iter().map(ShardedRelay::flow_count).sum()
    }
}

/// Everything one repetition of set-up owns.
struct Driver<'a> {
    spec: &'a EngineSpec,
    seed: u64,
    payloads: Payloads,
    epoch: Instant,
    net: Net,
    rng: StdRng,
    pseudo: Vec<OverlayAddr>,
    candidates: Vec<OverlayAddr>,
    buf: Vec<u8>,
    scratch: Vec<u8>,
    ops_since_tick: u64,
    /// Deliveries nobody asked for: duplicates, corrupt or misrouted.
    strays: u64,
    /// Messages sent a second time because the first never decoded.
    resends: u64,
}

impl<'a> Driver<'a> {
    fn new(spec: &'a EngineSpec, seed: u64, epoch: Instant) -> Self {
        Driver {
            spec,
            seed,
            payloads: Payloads::new(seed, spec.name),
            epoch,
            net: Net::new(seed, spec.flow_ttl_ms),
            rng: StdRng::seed_from_u64(mix(&[seed, 0xD357])),
            pseudo: (0..spec.params.paths as u64)
                .map(|i| OverlayAddr(PSEUDO_BASE + i))
                .collect(),
            candidates: Vec::with_capacity(POOL),
            buf: vec![0; spec.msg_len],
            scratch: Vec::new(),
            ops_since_tick: 0,
            strays: 0,
            resends: 0,
        }
    }

    /// Build a graph to a seed-chosen destination and run its setup
    /// packets to quiescence. `None` if the destination's receiver
    /// flow did not come up.
    fn open(&mut self, tr: &mut Tracer, session: u32) -> Option<Flow> {
        let dest = OverlayAddr(RELAY_BASE + self.rng.gen_range(0..POOL as u64));
        self.candidates.clear();
        self.candidates.extend(
            (0..POOL as u64)
                .map(|i| OverlayAddr(RELAY_BASE + i))
                .filter(|&a| a != dest),
        );
        let req = u64::from(session) << 32;
        tr.begin(Layer::GraphEstablish, req);
        let built = SourceSession::establish(
            self.spec.params,
            &self.pseudo,
            &self.candidates,
            dest,
            mix(&[self.seed, u64::from(session)]),
        );
        tr.end();
        let (source, setup) = built.expect("the pool holds enough relays for one graph");
        let at = source.graph().dest;
        let dest_flow = source.graph().flow_ids[at.stage][at.index];
        self.net.queue.extend(setup);
        self.net.run(tr, req);
        let up = self
            .net
            .established
            .drain(..)
            .fold(false, |up, (flow, receiver)| {
                up | (receiver && flow == dest_flow)
            });
        up.then_some(Flow {
            source,
            dest_flow,
            next_index: 0,
        })
    }

    /// Send the flow's next message and run it to the destination;
    /// `true` if exactly the bytes sent were delivered there.
    fn send(&mut self, tr: &mut Tracer, session: u32, flow: &mut Flow) -> bool {
        let key = MsgKey {
            session,
            index: flow.next_index,
            due_ns: self.epoch.elapsed().as_nanos() as u64,
        };
        flow.next_index += 1;
        self.payloads.fill(key, &mut self.buf);
        // Recode redraws its combinations at every hop and a draw can
        // be singular; an application resends such a message, so the
        // harness does, once, and counts it.
        let tries = if self.spec.params.data_mode == DataMode::Recode {
            2
        } else {
            1
        };
        let req = u64::from(session) << 32 | u64::from(key.index);
        for attempt in 0..tries {
            self.resends += attempt;
            tr.begin(Layer::SourceSend, req);
            let sent = flow.source.send_message(&self.buf);
            tr.end();
            let (_, sends) = sent.expect("the message fits one chunk");
            self.net.queue.extend(sends);
            self.net.run(tr, req);
            let mut ok = false;
            for got in self.net.delivered.drain(..) {
                let good = !ok
                    && got.flow == flow.dest_flow
                    && self
                        .payloads
                        .verify(key, self.buf.len(), &got.plaintext, &mut self.scratch);
                ok |= good;
                self.strays += u64::from(!good);
            }
            if ok {
                return true;
            }
        }
        false
    }

    /// Account one finished operation against the virtual clock.
    fn op_done(&mut self, tr: &mut Tracer) {
        self.ops_since_tick += 1;
        if self.ops_since_tick >= self.spec.ops_per_tick {
            self.ops_since_tick = 0;
            self.net.tick(tr);
            self.strays += self.net.delivered.drain(..).count() as u64;
        }
    }

    /// Resident bytes gained since `rss_before` per live session (a
    /// session holds one flow entry on each relay of its graph).
    fn bytes_per_flow(&self, rss_before: Option<f64>) -> Option<f64> {
        let live = self.net.live_relay_flows() as f64 / self.spec.params.relay_count() as f64;
        rss_before
            .zip(stats::rss_bytes())
            .filter(|_| live > 0.0)
            .map(|(before, after)| (after - before) / live)
    }

    /// One churn operation: establish, send one message, abandon.
    /// Returns `(establish_ms, message latency_ms)` on success.
    fn churn_once(&mut self, tr: &mut Tracer, session: u32) -> Option<(f64, f64)> {
        tr.begin(Layer::Harness, u64::from(session) << 32);
        let t0 = Instant::now();
        let result = self.open(tr, session).and_then(|mut flow| {
            let t1 = Instant::now();
            self.send(tr, session, &mut flow)
                .then(|| (ms(t1 - t0), ms(t1.elapsed())))
        });
        tr.end();
        self.op_done(tr);
        result
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one repetition of set-up measured.
struct SetupRep {
    wall_s: f64,
    sessions_per_s: f64,
    /// Per-session establish times, ms.
    establish_ms: Vec<f64>,
    /// Sessions that never came up or lost their first message.
    failed: u64,
    bytes_per_flow: Option<f64>,
}

/// Establish the standing flows (each delivers one message before it
/// counts), then warm up.
fn set_up(d: &mut Driver, tr: &mut Tracer, flows: &mut Vec<Flow>) -> SetupRep {
    let start = Instant::now();
    let rss_before = stats::rss_bytes();
    let mut establish = Vec::with_capacity(d.spec.flows);
    let mut failed = 0;
    for session in 0..d.spec.flows as u32 {
        tr.begin(Layer::Harness, u64::from(session) << 32);
        let t0 = Instant::now();
        let opened = d.open(tr, session);
        let took = ms(t0.elapsed());
        let flow = opened.and_then(|mut flow| d.send(tr, session, &mut flow).then_some(flow));
        tr.end();
        d.op_done(tr);
        match flow {
            Some(flow) => {
                establish.push(took);
                flows.push(flow);
            }
            None => failed += 1,
        }
    }
    let established_s = start.elapsed().as_secs_f64();
    let sessions = flows.len();
    let bytes_per_flow = d.bytes_per_flow(rss_before);
    for k in 0..d.spec.warmup {
        let session = k % sessions.max(1);
        if let Some(flow) = flows.get_mut(session) {
            d.send(tr, session as u32, flow);
        }
        d.op_done(tr);
    }
    SetupRep {
        wall_s: start.elapsed().as_secs_f64(),
        sessions_per_s: sessions as f64 / established_s,
        establish_ms: establish,
        failed,
        bytes_per_flow,
    }
}

/// Churn set-up: run sessions until the relays' TTL evicts as fast as
/// the driver inserts, so timing starts at steady state.
fn set_up_churn(d: &mut Driver, tr: &mut Tracer) -> SetupRep {
    let start = Instant::now();
    let rss_before = stats::rss_bytes();
    for session in 0..d.spec.warmup as u32 {
        d.churn_once(tr, session);
    }
    SetupRep {
        wall_s: start.elapsed().as_secs_f64(),
        // The timed phase measures these on the churn workload.
        sessions_per_s: f64::NAN,
        establish_ms: Vec::new(),
        failed: 0,
        bytes_per_flow: d.bytes_per_flow(rss_before),
    }
}

/// Run one sans-IO workload: `reps` set-ups (the last one is kept and
/// timed for `seconds`).
pub fn run(spec: &EngineSpec, seed: u64, seconds: f64, reps: usize, tr: &mut Tracer) -> Measured {
    let epoch = tr.epoch();
    let churn = spec.flows == 0;
    let mut kept = None;
    let mut setups = Vec::with_capacity(reps);
    for _ in 0..reps {
        // Drop the previous repetition first: two flow tables at once
        // would double the peak this run reports.
        drop(kept.take());
        let mut driver = Driver::new(spec, seed, epoch);
        let mut flows = Vec::with_capacity(spec.flows);
        setups.push(if churn {
            set_up_churn(&mut driver, tr)
        } else {
            set_up(&mut driver, tr, &mut flows)
        });
        kept = Some((driver, flows));
    }
    let (mut d, mut flows) = kept.expect("at least one set-up repetition");
    let setup_totals = tr.take_totals();
    tr.keep_spans();

    let total = Duration::from_secs_f64(seconds);
    let mut latency = Windows::new(total);
    // Establish times, ms: the timed phase's on the churn workload,
    // else every set-up repetition's, pooled.
    let mut establish: Vec<f64> = setups
        .iter()
        .flat_map(|s| &s.establish_ms)
        .copied()
        .collect();
    let (mut attempted, mut delivered) = (0u64, 0u64);
    d.strays = 0;
    d.resends = 0;
    d.net.data_packets = 0;
    let start = Instant::now();
    while start.elapsed() < total {
        attempted += 1;
        if churn {
            // Session numbers continue after the warm-up's.
            let session = (spec.warmup as u64 + attempted) as u32;
            if let Some((establish_ms, latency_ms)) = d.churn_once(tr, session) {
                delivered += 1;
                establish.push(establish_ms);
                latency.record(start.elapsed(), latency_ms);
            }
            continue;
        }
        let session = (attempted - 1) as usize % flows.len();
        let flow = &mut flows[session];
        tr.begin(
            Layer::Harness,
            u64::from(session as u32) << 32 | u64::from(flow.next_index),
        );
        let t0 = Instant::now();
        let ok = d.send(tr, session as u32, flow);
        let took = ms(t0.elapsed());
        tr.end();
        d.op_done(tr);
        if ok {
            delivered += 1;
            latency.record(start.elapsed(), took);
        }
    }
    let elapsed = start.elapsed();
    let timed = tr.take_totals();

    let last = setups.last().expect("at least one set-up repetition");
    let setup_failed = last.failed;
    let median_of =
        |f: fn(&SetupRep) -> f64| stats::median(&mut setups.iter().map(f).collect::<Vec<_>>());
    stats::sort(&mut establish);
    let rate = latency.rate();
    let end_to_end = EndToEnd {
        setup_s: median_of(|s| s.wall_s),
        msgs_per_s: rate,
        goodput_mbps: mbps(rate, spec.msg_len),
        sessions_per_s: if churn {
            rate
        } else {
            median_of(|s| s.sessions_per_s)
        },
        latency_ms_p50: latency.quantile(0.50),
        latency_ms_p99: latency.quantile(0.99),
        establish_ms_p50: stats::quantile(&establish, 0.50),
    };

    // A layer the timed phase never called (set-up calls on a
    // standing-flow workload) is reported from the set-up phase.
    let mean = |layer| timed.mean_ns(layer).or(setup_totals.mean_ns(layer));
    let mut layers = Vec::new();
    for (name, layer, per) in [
        ("graph.establish_us", Layer::GraphEstablish, 1e3),
        ("core.source.send_us", Layer::SourceSend, 1e3),
        ("core.relay.data_ns", Layer::RelayData, 1.0),
        ("core.relay.dest_ns", Layer::RelayDest, 1.0),
        ("core.relay.setup_ns", Layer::RelaySetup, 1.0),
        ("core.relay.poll_ns", Layer::RelayPoll, 1.0),
    ] {
        if let Some(ns) = mean(layer) {
            layers.push((name, ns / per));
        }
    }
    // The first repetition starts from a fresh heap; later ones reuse
    // freed pages and would show no growth.
    if let Some(bytes) = setups[0].bytes_per_flow {
        layers.push(("core.relay.bytes_per_flow", bytes));
    }
    let packets_per_msg = d.net.data_packets as f64 / (delivered + d.resends).max(1) as f64;
    layers.push(("engine.packets_per_msg", packets_per_msg));
    layers.push(("engine.us_per_msg", 1e6 / rate));

    let num = |v: f64| Json::Num(v);
    let notes = vec![
        ("latency samples", num(latency.count() as f64)),
        (
            "latency_ms_p99.9 (pooled, ungated)",
            num(latency.pooled_quantile(0.999)),
        ),
        (
            "establish_ms_p95 (ungated)",
            num(stats::quantile(&establish, 0.95)),
        ),
        ("resent after a singular recode draw", num(d.resends as f64)),
        ("stray deliveries (duplicate/corrupt)", num(d.strays as f64)),
        ("virtual clock at end (ms)", num(d.net.now.0 as f64)),
        (
            "live relay flow entries at end",
            num(d.net.live_relay_flows() as f64),
        ),
    ];
    Measured {
        attempted: attempted + setup_failed,
        failed: attempted - delivered + d.strays + setup_failed,
        end_to_end,
        layers,
        notes,
        timed,
        timed_wall: elapsed,
    }
}
