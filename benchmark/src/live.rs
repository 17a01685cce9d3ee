//! The live workloads: the production async runtime (`spawn_node`
//! relays with colocated destination sessions, one source node with a
//! `SessionManager`) over real loopback UDP sockets. The harness is one
//! task on the main thread; it is the only sender, through exactly the
//! source node's `d′ = 2` pseudo-source sockets.
//!
//! Sizing pitfalls baked in here rather than left to the reader:
//! * sessions open at a paced 500/s — opening 512 in one burst drops
//!   setup packets on loopback and 10–20 % never establish;
//! * the saturating workload keeps 64 messages in flight — 256
//!   overflows the socket buffers and collapses throughput into
//!   retransmits;
//! * the streaming workload drives `SessionHandle::send` itself and
//!   keeps a bounded number of messages queued — enqueueing a whole
//!   transfer up front trips `send buffer full` past 512 KiB.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slicing_core::{
    FlowId, GraphParams, OverlayAddr, RelayConfig, SessionConfig, SessionManager, ShardedRelay,
    SourceSession,
};
use slicing_overlay::{
    spawn_node, DestSessionSpec, NodeHandle, NodeSpec, OverlayEvent, SessionEvent, SessionHandle,
    StreamDelivery, UdpFaults, UdpNet,
};
use slicing_overlay::{PortSender, UdpStatsSnapshot};
use tokio::sync::mpsc;

use crate::json::Json;
use crate::outcome::{mbps, EndToEnd, Measured};
use crate::payload::{mix, MsgKey, Payloads};
use crate::stats::{self, Windows};
use crate::trace::{Layer, Tracer};

/// After the timed phase stops sending, wait this long for what is
/// still in flight; anything later counts as failed.
const DRAIN: Duration = Duration::from_secs(3);
/// After the last open, wait this long for sessions to come up.
const ESTABLISH_GRACE: Duration = Duration::from_secs(3);
/// A session's first message proves the path works; it need not be a
/// whole bulk message to do that.
const FIRST_MSG_MAX: usize = 400;
/// No phase may outlive its planned length by more than this.
const PHASE_SLACK: Duration = Duration::from_secs(20);

/// How the timed phase offers load.
#[derive(Clone, Copy)]
pub enum Load {
    /// Closed loop: keep `in_flight` messages outstanding, round-robin
    /// over the sessions; each verified delivery releases the next.
    Closed { in_flight: usize },
    /// Open loop: one message per slot of `1 / msgs_per_s`, round-robin,
    /// timed from when it was due whether or not the harness kept up.
    /// The due time sits at a seeded random offset inside its slot: a
    /// strictly periodic schedule phase-locks with the runtime's 1 ms
    /// socket polls, and each run then measures whichever phase it drew.
    Open { msgs_per_s: f64 },
    /// One session streams large messages, at most `queued` of them
    /// unacknowledged at a time (the session's backpressure contract).
    Stream { queued: usize },
}

/// One live workload.
#[derive(Clone, Copy)]
pub struct LiveSpec {
    pub name: &'static str,
    /// Combined relay + destination nodes, one shard each.
    pub nodes: usize,
    pub sessions: usize,
    pub opens_per_s: f64,
    pub params: GraphParams,
    pub msg_len: usize,
    /// Messages sent under the workload's own load before timing.
    pub warmup: u64,
    pub load: Load,
}

#[derive(Clone, Copy)]
struct Sent {
    due_ns: u64,
    len: u32,
    delivered: bool,
}

struct Session {
    id: slicing_core::SessionId,
    dest_flow: FlowId,
    opened: Instant,
    sent: Vec<Sent>,
}

enum Happened {
    Established {
        session: u32,
        took: Duration,
    },
    /// `due_ns` tells which phase the message belongs to.
    Delivered {
        session: u32,
        due_ns: u64,
        latency: Duration,
    },
    Acked {
        due_ns: u64,
        after: Duration,
    },
    Rejected,
    Timeout,
}

enum Stop {
    After(Duration),
    Count(u64),
}

/// What one load phase measured.
struct Phase {
    latency: Windows,
    ack_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    attempted: u64,
    delivered: u64,
    /// First send to last verified delivery.
    busy: Duration,
    backlog_at_stop: usize,
}

struct Overlay {
    spec: LiveSpec,
    seed: u64,
    payloads: Payloads,
    epoch: Instant,
    net: UdpNet,
    nodes: Vec<NodeHandle>,
    node_addrs: Vec<OverlayAddr>,
    pseudo_addrs: Vec<OverlayAddr>,
    pseudo_tx: Vec<PortSender>,
    plane: SessionHandle,
    events: mpsc::UnboundedReceiver<OverlayEvent>,
    deliveries: mpsc::UnboundedReceiver<StreamDelivery>,
    session_events: mpsc::UnboundedReceiver<SessionEvent>,
    sessions: Vec<Session>,
    by_flow: HashMap<FlowId, u32>,
    by_id: HashMap<u64, u32>,
    /// Sessions whose first message was delivered intact.
    ready: Vec<u32>,
    next_rr: usize,
    scratch: Vec<u8>,
    /// Deliveries nobody asked for: duplicates, corrupt or misrouted.
    strays: u64,
    rejected: u64,
}

impl Overlay {
    async fn build(spec: LiveSpec, seed: u64, epoch: Instant) -> Overlay {
        let net = UdpNet::new(UdpFaults::default(), seed);
        let (events_tx, events) = mpsc::unbounded_channel();
        let (deliveries_tx, deliveries) = mpsc::unbounded_channel();
        let (session_events_tx, session_events) = mpsc::unbounded_channel();
        // The live-overlay tuning the repo's own `session_bench` runs:
        // no keepalive chatter, and gathers that flush after 150 ms so
        // the reverse (ack) path keeps the session windows moving. With
        // the 1 s default flush every ack takes a second to come back.
        let relay_config = RelayConfig {
            setup_flush_ms: 400,
            data_flush_ms: 150,
            keepalive_ms: 0,
            liveness_timeout_ms: 0,
            max_flows: 1 << 20,
            ..RelayConfig::default()
        };
        let session_config = SessionConfig::default();

        let mut nodes = Vec::with_capacity(spec.nodes + 1);
        let mut node_addrs = Vec::with_capacity(spec.nodes);
        for i in 0..spec.nodes as u64 {
            let port = net.attach().await.expect("bind a loopback UDP socket");
            node_addrs.push(port.addr);
            nodes.push(spawn_node(NodeSpec {
                relay: Some(ShardedRelay::with_config(
                    port.addr,
                    seed ^ i,
                    relay_config,
                    1,
                )),
                sessions: None,
                ports: vec![port],
                dest_sessions: Some(DestSessionSpec {
                    config: session_config,
                    seed,
                    deliveries: deliveries_tx.clone(),
                }),
                events: events_tx.clone(),
                session_events: None,
                epoch,
            }));
        }
        let mut pseudo_ports = Vec::with_capacity(spec.params.paths);
        for _ in 0..spec.params.paths {
            pseudo_ports.push(net.attach().await.expect("bind a loopback UDP socket"));
        }
        let pseudo_addrs = pseudo_ports.iter().map(|p| p.addr).collect();
        let pseudo_tx = pseudo_ports.iter().map(|p| p.tx.clone()).collect();
        let source = spawn_node(NodeSpec {
            relay: None,
            sessions: Some(SessionManager::new(1, spec.sessions + 8, session_config)),
            ports: pseudo_ports,
            dest_sessions: None,
            events: events_tx,
            session_events: Some(session_events_tx),
            epoch,
        });
        let plane = source
            .sessions
            .clone()
            .expect("the source node hosts sessions");
        nodes.push(source);
        Overlay {
            spec,
            seed,
            payloads: Payloads::new(seed, spec.name),
            epoch,
            net,
            nodes,
            node_addrs,
            pseudo_addrs,
            pseudo_tx,
            plane,
            events,
            deliveries,
            session_events,
            sessions: Vec::with_capacity(spec.sessions),
            by_flow: HashMap::new(),
            by_id: HashMap::new(),
            ready: Vec::with_capacity(spec.sessions),
            next_rr: 0,
            scratch: Vec::new(),
            strays: 0,
            rejected: 0,
        }
    }

    /// Stop every node and give their tasks a moment to wind down, so
    /// the next repetition does not share the cores with this one.
    async fn tear_down(self) {
        for node in &self.nodes {
            node.abort();
        }
        drop(self);
        tokio::time::sleep(Duration::from_millis(100)).await;
    }

    /// Wait for the next thing the overlay reports, or until `until`.
    async fn step(&mut self, until: Instant) -> Happened {
        enum Raw {
            Overlay(Option<OverlayEvent>),
            Delivery(Option<StreamDelivery>),
            Session(Option<SessionEvent>),
            Timeout,
        }
        loop {
            // The branch futures borrow the receivers until the macro's
            // block ends, so the bodies only tag what arrived.
            let raw = tokio::select! {
                ev = self.events.recv() => Raw::Overlay(ev),
                got = self.deliveries.recv() => Raw::Delivery(got),
                ev = self.session_events.recv() => Raw::Session(ev),
                _ = tokio::time::sleep_until(until) => Raw::Timeout,
            };
            let at = Instant::now();
            match raw {
                Raw::Overlay(Some(OverlayEvent::Established {
                    flow,
                    receiver: true,
                    ..
                })) => {
                    if let Some(&session) = self.by_flow.get(&flow) {
                        let took = at - self.sessions[session as usize].opened;
                        return Happened::Established { session, took };
                    }
                }
                Raw::Delivery(Some(got)) => match self.verify(&got) {
                    Some((session, due_ns)) => {
                        let due = self.epoch + Duration::from_nanos(due_ns);
                        return Happened::Delivered {
                            session,
                            due_ns,
                            latency: at.saturating_duration_since(due),
                        };
                    }
                    None => self.strays += 1,
                },
                Raw::Session(Some(SessionEvent::Acked {
                    session, msg_id, ..
                })) => {
                    // The harness is a session's only sender, so stream
                    // message ids count up with its own indices.
                    let sent = self
                        .by_id
                        .get(&session.0)
                        .and_then(|&s| self.sessions[s as usize].sent.get(msg_id as usize));
                    if let Some(sent) = sent {
                        let due = self.epoch + Duration::from_nanos(sent.due_ns);
                        return Happened::Acked {
                            due_ns: sent.due_ns,
                            after: at.saturating_duration_since(due),
                        };
                    }
                }
                Raw::Session(Some(SessionEvent::Rejected { error, .. })) => {
                    eprintln!("send rejected: {error}");
                    self.rejected += 1;
                    return Happened::Rejected;
                }
                Raw::Timeout => return Happened::Timeout,
                Raw::Overlay(None) | Raw::Delivery(None) | Raw::Session(None) => {
                    panic!("the overlay hung up on the harness")
                }
                Raw::Overlay(Some(_)) | Raw::Session(Some(_)) => {}
            }
        }
    }

    /// Check a delivery byte for byte against what was sent; returns
    /// its session and due time if it is the first correct copy.
    fn verify(&mut self, got: &StreamDelivery) -> Option<(u32, u64)> {
        let (session, index) = Payloads::claimed(&got.payload)?;
        let s = self.sessions.get_mut(session as usize)?;
        let sent = s.sent.get_mut(index as usize)?;
        let key = MsgKey {
            session,
            index,
            due_ns: sent.due_ns,
        };
        let good = !sent.delivered
            && got.flow == s.dest_flow
            && self
                .payloads
                .verify(key, sent.len as usize, &got.payload, &mut self.scratch);
        sent.delivered |= good;
        good.then_some((session, sent.due_ns))
    }

    /// Build one graph and hand it to the session plane.
    async fn open(&mut self, tr: &mut Tracer) {
        let session = self.sessions.len() as u32;
        let mut rng = StdRng::seed_from_u64(mix(&[self.seed, 0x0DE5, u64::from(session)]));
        let dest = self.node_addrs[rng.gen_range(0..self.node_addrs.len())];
        let candidates: Vec<OverlayAddr> = self
            .node_addrs
            .iter()
            .copied()
            .filter(|&a| a != dest)
            .collect();
        let req = u64::from(session) << 32;
        tr.begin(Layer::Harness, req);
        let opened = Instant::now();
        tr.begin(Layer::GraphEstablish, req);
        let built = SourceSession::establish(
            self.spec.params,
            &self.pseudo_addrs,
            &candidates,
            dest,
            rng.gen(),
        );
        tr.end();
        let (source, setup) = built.expect("the overlay holds enough relays for one graph");
        let at = source.graph().dest;
        let dest_flow = source.graph().flow_ids[at.stage][at.index];
        self.by_flow.insert(dest_flow, session);
        tr.begin(Layer::SessionOpen, req);
        let id = self.plane.open_source(source, setup).await;
        tr.end();
        tr.end();
        self.by_id.insert(id.0, session);
        self.sessions.push(Session {
            id,
            dest_flow,
            opened,
            sent: Vec::new(),
        });
    }

    /// Queue the session's next message, `len` bytes, due at `due`.
    async fn send(&mut self, tr: &mut Tracer, session: u32, due: Instant, len: usize) {
        let s = &mut self.sessions[session as usize];
        let key = MsgKey {
            session,
            index: s.sent.len() as u32,
            due_ns: due.saturating_duration_since(self.epoch).as_nanos() as u64,
        };
        s.sent.push(Sent {
            due_ns: key.due_ns,
            len: len as u32,
            delivered: false,
        });
        let mut payload = vec![0; len];
        self.payloads.fill(key, &mut payload);
        let req = u64::from(session) << 32 | u64::from(key.index);
        let id = s.id;
        tr.begin(Layer::Harness, req);
        tr.begin(Layer::SessionSend, req);
        self.plane.send(id, payload).await;
        tr.end();
        tr.end();
    }

    /// Open every session at the paced rate (jittered within each slot,
    /// as the open loop is); a session is up once its
    /// destination reports the receiver flow *and* its first message
    /// arrives there intact. Returns the per-session establish times
    /// and how long it took until the last session was up.
    async fn open_sessions(&mut self, tr: &mut Tracer) -> (Vec<f64>, Duration) {
        let start = Instant::now();
        let gap = 1.0 / self.spec.opens_per_s;
        let mut jitter = StdRng::seed_from_u64(mix(&[self.seed, 0x0FE7]));
        let mut due = start;
        let mut establish_ms = Vec::with_capacity(self.spec.sessions);
        let mut give_up = start + PHASE_SLACK;
        let mut all_up = Duration::ZERO;
        while self.ready.len() < self.spec.sessions {
            let opened = self.sessions.len();
            let wake = if opened < self.spec.sessions {
                if Instant::now() >= due {
                    self.open(tr).await;
                    due = start
                        + Duration::from_secs_f64(
                            (opened as f64 + 1.0 + jitter.gen::<f64>()) * gap,
                        );
                    if opened + 1 == self.spec.sessions {
                        give_up = Instant::now() + ESTABLISH_GRACE;
                    }
                    continue;
                }
                due
            } else if Instant::now() >= give_up {
                break;
            } else {
                give_up
            };
            match self.step(wake).await {
                Happened::Established { session, took } => {
                    establish_ms.push(took.as_secs_f64() * 1e3);
                    self.send(
                        tr,
                        session,
                        Instant::now(),
                        self.spec.msg_len.min(FIRST_MSG_MAX),
                    )
                    .await;
                }
                Happened::Delivered { session, .. } => {
                    self.ready.push(session);
                    all_up = start.elapsed();
                }
                _ => {}
            }
        }
        (establish_ms, all_up)
    }

    fn next_session(&mut self) -> u32 {
        let session = self.ready[self.next_rr % self.ready.len()];
        self.next_rr += 1;
        session
    }

    /// Offer the workload's load until `stop`, then drain.
    async fn drive(&mut self, tr: &mut Tracer, stop: Stop) -> Phase {
        let start = Instant::now();
        // Acks (and, were a drain ever cut short, deliveries) of an
        // earlier phase's messages must not be booked to this one.
        let phase_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let (stop_at, count) = match stop {
            Stop::After(d) => (start + d, u64::MAX),
            Stop::Count(n) => (start + PHASE_SLACK, n),
        };
        let planned = stop_at - start;
        let mut phase = Phase {
            latency: Windows::new(planned),
            ack_ms: Vec::new(),
            lag_ms: Vec::new(),
            attempted: 0,
            delivered: 0,
            busy: Duration::ZERO,
            backlog_at_stop: 0,
        };
        // Sent but not yet delivered / not yet acknowledged.
        let (mut undelivered, mut unacked) = (0usize, 0usize);
        // The open loop's next due time.
        let mut jitter = StdRng::seed_from_u64(mix(&[self.seed, 0x0FE8]));
        let mut due = start;
        let mut drain_until = None;
        loop {
            let now = Instant::now();
            if drain_until.is_none() && (now >= stop_at || phase.attempted >= count) {
                drain_until = Some(now + DRAIN);
                phase.backlog_at_stop = undelivered;
            }
            let mut wake = drain_until.unwrap_or(stop_at);
            if drain_until.is_none() {
                let room = count - phase.attempted;
                match self.spec.load {
                    Load::Closed { in_flight } => {
                        for _ in 0..in_flight.saturating_sub(undelivered).min(room as usize) {
                            let session = self.next_session();
                            self.send(tr, session, Instant::now(), self.spec.msg_len)
                                .await;
                            phase.attempted += 1;
                            undelivered += 1;
                        }
                    }
                    Load::Open { msgs_per_s } => loop {
                        let now = Instant::now();
                        if due > now || due >= stop_at || phase.attempted >= count {
                            wake = wake.min(due);
                            break;
                        }
                        phase.lag_ms.push((now - due).as_secs_f64() * 1e3);
                        let session = self.next_session();
                        self.send(tr, session, due, self.spec.msg_len).await;
                        phase.attempted += 1;
                        undelivered += 1;
                        let slot = phase.attempted as f64 + jitter.gen::<f64>();
                        due = start + Duration::from_secs_f64(slot / msgs_per_s);
                    },
                    Load::Stream { queued } => {
                        for _ in 0..queued.saturating_sub(unacked).min(room as usize) {
                            let session = self.ready[0];
                            self.send(tr, session, Instant::now(), self.spec.msg_len)
                                .await;
                            phase.attempted += 1;
                            undelivered += 1;
                            unacked += 1;
                        }
                    }
                }
            } else if (undelivered == 0 && unacked == 0) || now >= wake {
                break;
            }
            match self.step(wake).await {
                Happened::Delivered {
                    due_ns, latency, ..
                } if due_ns >= phase_ns => {
                    undelivered -= 1;
                    phase.delivered += 1;
                    phase.busy = start.elapsed();
                    phase
                        .latency
                        .record(phase.busy, latency.as_secs_f64() * 1e3);
                }
                Happened::Acked { due_ns, after } if due_ns >= phase_ns => {
                    unacked = unacked.saturating_sub(1);
                    phase.ack_ms.push(after.as_secs_f64() * 1e3);
                }
                Happened::Rejected => {
                    undelivered = undelivered.saturating_sub(1);
                    unacked = unacked.saturating_sub(1);
                }
                _ => {}
            }
        }
        phase
    }

    fn mean_cc_rate(&self) -> (f64, String) {
        let snaps: Vec<_> = self
            .pseudo_tx
            .iter()
            .flat_map(PortSender::cc_snapshots)
            .collect();
        let mut states: Vec<&str> = snaps.iter().map(|(_, s)| s.state.as_str()).collect();
        states.sort_unstable();
        let rate = snaps.iter().map(|(_, s)| s.rate_dps).sum::<f64>() / snaps.len().max(1) as f64;
        (rate, states.join(","))
    }
}

/// The largest piece of a streamed message that crosses a graph of this
/// shape as one protocol message (what `SessionHandle::send` chunks a
/// 100 kB message into).
pub fn stream_chunk_len(params: GraphParams) -> usize {
    let addrs = |from: usize, count: usize| -> Vec<OverlayAddr> {
        (from..from + count)
            .map(|i| OverlayAddr(i as u64))
            .collect()
    };
    let relays = params.relay_count();
    let (source, _) = SourceSession::establish(
        params,
        &addrs(1, params.paths),
        &addrs(1 + params.paths, relays),
        OverlayAddr(0),
        0,
    )
    .expect("a graph of the workload's own shape builds");
    source.stream_chunk_len()
}

/// Run one live workload: `reps` set-ups (the last one is kept and
/// timed for `seconds`).
pub async fn run(
    spec: LiveSpec,
    seed: u64,
    seconds: f64,
    reps: usize,
    tr: &mut Tracer,
) -> Measured {
    let mut setup_s = Vec::with_capacity(reps);
    let mut sessions_per_s = Vec::with_capacity(reps);
    // Pooled over the repetitions.
    let mut establish_ms = Vec::with_capacity(reps * spec.sessions);
    let mut kept = None;
    let mut bytes_per_flow = None;
    for rep in 0..reps {
        let start = Instant::now();
        let rss_before = stats::rss_bytes();
        let mut overlay = Overlay::build(spec, seed, tr.epoch()).await;
        let (established, all_up) = overlay.open_sessions(tr).await;
        // Only the first repetition starts from a fresh heap.
        if rep == 0 && !overlay.ready.is_empty() {
            bytes_per_flow = rss_before
                .zip(stats::rss_bytes())
                .map(|(before, after)| (after - before) / overlay.ready.len() as f64);
        }
        establish_ms.extend(established);
        assert!(!overlay.ready.is_empty(), "no session came up");
        overlay.drive(tr, Stop::Count(spec.warmup)).await;
        setup_s.push(start.elapsed().as_secs_f64());
        sessions_per_s.push(overlay.ready.len() as f64 / all_up.as_secs_f64());
        if rep + 1 < reps {
            overlay.tear_down().await;
        } else {
            kept = Some(overlay);
        }
    }
    let mut overlay = kept.expect("at least one set-up repetition");
    let setup_totals = tr.take_totals();
    tr.keep_spans();
    let not_up = (spec.sessions - overlay.ready.len()) as u64;
    overlay.strays = 0;
    overlay.rejected = 0;

    let udp_before = overlay.net.stats();
    let session_before = overlay.plane.stats();
    let cpu_before = stats::cpu_time();
    let mut phase = overlay
        .drive(tr, Stop::After(Duration::from_secs_f64(seconds)))
        .await;
    let cpu = stats::cpu_time()
        .zip(cpu_before)
        .map(|(after, before)| after - before);
    let udp = delta(overlay.net.stats(), udp_before);
    let retransmits = overlay.plane.stats().retransmits - session_before.retransmits;
    let (cc_rate, cc_states) = overlay.mean_cc_rate();
    let timed = tr.take_totals();
    let (strays, rejected) = (overlay.strays, overlay.rejected);
    overlay.tear_down().await;

    stats::sort(&mut establish_ms);
    let busy = phase.busy.as_secs_f64();
    let delivered = phase.delivered as f64;
    let rate = phase.latency.rate();
    let end_to_end = EndToEnd {
        setup_s: stats::median(&mut setup_s),
        msgs_per_s: rate,
        goodput_mbps: mbps(rate, spec.msg_len),
        sessions_per_s: stats::median(&mut sessions_per_s),
        latency_ms_p50: phase.latency.quantile(0.50),
        latency_ms_p99: phase.latency.quantile(0.99),
        establish_ms_p50: stats::quantile(&establish_ms, 0.50),
    };

    let mean = |layer| timed.mean_ns(layer).or(setup_totals.mean_ns(layer));
    let mut layers = vec![
        (
            "overlay.udp.datagrams_per_msg",
            udp.datagrams_sent as f64 / delivered.max(1.0),
        ),
        (
            "overlay.udp.batch_ratio",
            udp.datagrams_sent as f64 / udp.send_calls.max(1) as f64,
        ),
        ("overlay.udp.queue_drops", udp.queue_drops as f64),
        ("overlay.udp.paced", udp.paced as f64),
        ("core.session.retransmits", retransmits as f64),
        ("overlay.cc.rate", cc_rate),
    ];
    // Here the whole process's growth per session: relay flow
    // entries, the source's session state and the transport's queues.
    if let Some(bytes) = bytes_per_flow {
        layers.push(("core.relay.bytes_per_flow", bytes));
    }
    if let Some(us) = mean(Layer::GraphEstablish) {
        layers.push(("graph.establish_us", us / 1e3));
    }
    if let Some(cpu) = cpu {
        layers.push((
            "overlay.cpu_us_per_msg",
            cpu.as_secs_f64() * 1e6 / delivered.max(1.0),
        ));
        layers.push(("overlay.cpu_util", cpu.as_secs_f64() / busy));
    }
    if !phase.ack_ms.is_empty() {
        layers.push(("core.session.ack_ms_p50", stats::median(&mut phase.ack_ms)));
    }

    let num = |v: f64| Json::Num(v);
    let mut notes = vec![
        ("latency samples", num(phase.latency.count() as f64)),
        (
            "latency_ms_p99.9 (pooled, ungated)",
            num(phase.latency.pooled_quantile(0.999)),
        ),
        (
            "establish_ms_p95 (ungated)",
            num(stats::quantile(&establish_ms, 0.95)),
        ),
        ("sessions not established", num(not_up as f64)),
        ("stray deliveries (duplicate/corrupt)", num(strays as f64)),
        ("sends rejected", num(rejected as f64)),
        (
            "undelivered at stop (backlog)",
            num(phase.backlog_at_stop as f64),
        ),
        ("congestion controller states", Json::Str(cc_states)),
    ];
    if let Some(cpu) = cpu {
        notes.push(("cpu_util (cores busy)", num(cpu.as_secs_f64() / busy)));
    }
    if !phase.lag_ms.is_empty() {
        stats::sort(&mut phase.lag_ms);
        notes.push((
            "generator lag ms p50",
            num(stats::quantile(&phase.lag_ms, 0.50)),
        ));
        notes.push((
            "generator lag ms p99",
            num(stats::quantile(&phase.lag_ms, 0.99)),
        ));
    }
    Measured {
        attempted: phase.attempted + not_up,
        failed: phase.attempted - phase.delivered + strays + not_up,
        end_to_end,
        layers,
        notes,
        timed,
        timed_wall: phase.busy,
    }
}

fn delta(after: UdpStatsSnapshot, before: UdpStatsSnapshot) -> UdpStatsSnapshot {
    UdpStatsSnapshot {
        datagrams_sent: after.datagrams_sent - before.datagrams_sent,
        send_calls: after.send_calls - before.send_calls,
        queue_drops: after.queue_drops - before.queue_drops,
        paced: after.paced - before.paced,
        ..after
    }
}
