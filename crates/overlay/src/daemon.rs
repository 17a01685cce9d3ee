//! Daemon tasks: async drivers around the sans-IO engines.
//!
//! One shape, the paper's per-node multi-threaded daemon (§7.1):
//! [`spawn_node`] runs relay, source and destination roles concurrently
//! over shared transports.
//!
//! * Per port, an **ingress** task peeks just the flow id out of each
//!   received buffer and hands the frozen [`Bytes`] over an SPSC channel
//!   to the worker owning that flow: the session plane (a
//!   [`slicing_core::SessionManager`] split into per-shard workers that
//!   host thousands of source endpoints) if it registered the flow, the
//!   relay plane otherwise.
//! * Each relay **worker** drives one [`RelayShard`] (packets + 50 ms
//!   timer). Flows have shard affinity (`hash(flow_id) % N` via the
//!   shared [`FlowRouter`]), so shards never contend on flow state and a
//!   relay scales across cores; one shard is simply one worker behind the
//!   ingress. The destination role is core's [`DestHost`], one beside
//!   each shard: receiver flows the relay plane establishes get a
//!   [`slicing_core::DestSession`] there — flow affinity means the role
//!   adds no locks to the packet path — while the relay keeps forwarding
//!   downstream so neighbours cannot tell the node terminates traffic.
//!   The worker only moves the host's output onto channels.
//! * Every worker of either plane transmits through the same egress
//!   flusher over the node's per-address sender map, grouping a flush's
//!   sends by `(from, to)` into one transport batch each.
//!
//! Wire-garbage (buffers that fail packet parsing) is counted into the
//! relay's shared [`slicing_core::RelayStatsAtomic`] by whichever task
//! rejects it, and every worker folds its shard's counters into the same
//! cell, so tests and dashboards can watch a live relay without owning
//! its state.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use slicing_core::{
    DestHost, FlowRouter, OverlayAddr, Packet, RelayOutput, RelayShard, RelayStatsAtomic,
    SessionConfig, SessionError, SessionId, SessionManager, SessionOutput, SessionRouter,
    SessionShard, SessionStats, SessionStatsAtomic, ShardedRelay, SourceSession, Tick,
};
use slicing_graph::packets::SendInstr;
use slicing_onion::{OnionPacket, OnionRelay};
use slicing_wire::{peek_flow_id, FlowId};
use std::sync::Arc;
use tokio::sync::mpsc;

use crate::{NodePort, PortSender};

/// Most packets a shard worker drains from its inbox before touching
/// the network (bounds latency of the first queued send; keeps the
/// egress batches dense under load).
const WORKER_DRAIN_BATCH: usize = 32;

/// Most `(from, to)` egress buckets a worker carries from one flush to
/// the next for their allocations (see [`flush_instr_batches`]): above
/// any one node's working set of neighbours in the overlays we run, small
/// enough that scanning it per send stays cheaper than a map.
const EGRESS_BUCKETS_KEPT: usize = 32;

/// Timer cadence for the relay state machines. The select loops are
/// biased toward the packet arm, so under sustained traffic the ticker
/// arm may never win; every loop additionally runs overdue timer work
/// at batch boundaries so gather flushes and flow GC cannot be starved
/// by load.
const POLL_PERIOD: Duration = Duration::from_millis(50);

/// Events the daemons report to the experiment harness.
#[derive(Clone, Debug)]
pub enum OverlayEvent {
    /// A relay completed flow establishment; `receiver` = destination?
    Established {
        /// The node that established.
        addr: OverlayAddr,
        /// The established flow.
        flow: FlowId,
        /// Whether it is the flow's destination.
        receiver: bool,
        /// Milliseconds since the daemon started.
        at_ms: u64,
    },
    /// The destination decoded and decrypted a data message.
    MessageReceived {
        /// Destination address.
        addr: OverlayAddr,
        /// Message sequence number.
        seq: u32,
        /// Plaintext length (payload itself omitted from events).
        len: usize,
        /// Milliseconds since the daemon started.
        at_ms: u64,
    },
}

/// Report one call's output as events.
fn emit_events(
    events: &mpsc::UnboundedSender<OverlayEvent>,
    addr: OverlayAddr,
    epoch: Instant,
    outputs: &RelayOutput,
) {
    let at_ms = epoch.elapsed().as_millis() as u64;
    for &(flow, receiver) in &outputs.established {
        let _ = events.send(OverlayEvent::Established {
            addr,
            flow,
            receiver,
            at_ms,
        });
    }
    for r in &outputs.received {
        let _ = events.send(OverlayEvent::MessageReceived {
            addr,
            seq: r.seq,
            len: r.plaintext.len(),
            at_ms,
        });
    }
}

/// One shard's worker: owns the shard, drives packets and the 50 ms
/// timer, reports events, and transmits through the node's shared egress
/// map. Exits when every ingress has closed its inbox.
///
/// With `dest_spec` set, the worker also plays the **destination role**
/// for receiver flows its shard establishes: a [`DestHost`] consumes the
/// shard's output at every batch boundary; completed stream messages go
/// out on the spec's delivery channel and acks ride the reverse path
/// through this worker's egress.
async fn shard_worker(
    mut shard: RelayShard,
    mut rx: mpsc::Receiver<RelayPacket>,
    egress: Arc<HashMap<OverlayAddr, PortSender>>,
    events: mpsc::UnboundedSender<OverlayEvent>,
    epoch: Instant,
    dest_spec: Option<DestSessionSpec>,
) {
    let addr = shard.addr();
    let stats = shard.shared_stats();
    let mut ticker = tokio::time::interval(POLL_PERIOD);
    ticker.set_missed_tick_behavior(tokio::time::MissedTickBehavior::Delay);
    let mut scratch = Vec::new();
    let mut last_poll = Instant::now();
    let mut dest_role = dest_spec.map(|spec| {
        let host = DestHost::new(addr, spec.config, spec.seed, Arc::clone(&stats));
        (host, spec.deliveries)
    });
    let handle = |shard: &mut RelayShard, from: OverlayAddr, bytes: Bytes| match Packet::from_bytes(
        bytes,
    ) {
        Ok(packet) => shard.handle_packet(now_tick(epoch), from, &packet),
        Err(_) => {
            // The ingress peek admits buffers whose body later fails
            // full validation; they die here.
            stats.record_garbage();
            RelayOutput::default()
        }
    };
    loop {
        let mut poll_boundary = false;
        let mut outputs = tokio::select! {
            maybe = rx.recv() => {
                let Some((from, bytes)) = maybe else { break };
                handle(&mut shard, from, bytes)
            }
            _ = ticker.tick() => {
                last_poll = Instant::now();
                poll_boundary = true;
                shard.poll(now_tick(epoch))
            }
        };
        // Drain whatever else is already queued before touching the
        // network, so bursts produce dense egress batches.
        for _ in 0..WORKER_DRAIN_BATCH {
            match rx.try_recv() {
                Ok((from, bytes)) => outputs.merge(handle(&mut shard, from, bytes)),
                Err(_) => break,
            }
        }
        // Biased select: sustained traffic keeps the packet arm winning,
        // so run overdue timer work at batch boundaries as well.
        if last_poll.elapsed() >= POLL_PERIOD {
            last_poll = Instant::now();
            poll_boundary = true;
            outputs.merge(shard.poll(now_tick(epoch)));
        }
        if let Some((host, deliveries)) = &mut dest_role {
            let now = now_tick(epoch);
            let report = host.drive(now, &mut outputs, |f| shard.flow_info(f), poll_boundary);
            for (flow, seq) in report.refused {
                shard.forget_delivery(flow, seq);
            }
            for (flow, msg_id, payload) in report.messages {
                let _ = deliveries.send(StreamDelivery {
                    addr,
                    flow,
                    msg_id,
                    payload,
                    at_ms: now.0,
                });
            }
        }
        emit_events(&events, addr, epoch, &outputs);
        let misaddressed = flush_instr_batches(&egress, outputs.sends, &mut scratch).await;
        (0..misaddressed).for_each(|_| stats.record_drop());
        shard.publish_stats();
    }
    // Exiting (port closed or shutdown): leave the shared stats exact.
    shard.publish_stats();
}

// ---- the combined node: relay + source + destination roles ---------------

/// Colocated destination-session support for relay workers: receiver
/// flows established by the relay plane get a
/// [`slicing_core::DestSession`] in their owning shard worker's
/// [`DestHost`].
#[derive(Clone)]
pub struct DestSessionSpec {
    /// Session tuning (ack cadence, reassembly quotas).
    pub config: SessionConfig,
    /// Base RNG seed (each session mixes its flow id in).
    pub seed: u64,
    /// Completed stream messages are reported here.
    pub deliveries: mpsc::UnboundedSender<StreamDelivery>,
}

/// A stream message completed at a combined node's destination role.
#[derive(Clone, Debug)]
pub struct StreamDelivery {
    /// The destination node.
    pub addr: OverlayAddr,
    /// The receiver flow it arrived on.
    pub flow: FlowId,
    /// Stream message id (per-session, in delivery order).
    pub msg_id: u32,
    /// The reassembled payload.
    pub payload: Vec<u8>,
    /// Milliseconds since the daemon epoch.
    pub at_ms: u64,
}

/// Events the session plane reports to the harness.
#[derive(Clone, Debug)]
pub enum SessionEvent {
    /// A source-side stream message was fully acknowledged end to end.
    Acked {
        /// The source session.
        session: SessionId,
        /// The completed message.
        msg_id: u32,
        /// Milliseconds since the daemon epoch.
        at_ms: u64,
    },
    /// A destination reply surfaced at a source session.
    Reply {
        /// The source session.
        session: SessionId,
        /// Reply id.
        reply_id: u32,
        /// Reply payload.
        payload: Vec<u8>,
        /// Milliseconds since the daemon epoch.
        at_ms: u64,
    },
    /// An unframed (legacy) reverse message surfaced at a source session.
    Raw {
        /// The session.
        session: SessionId,
        /// Protocol sequence number.
        seq: u32,
        /// Decoded payload.
        payload: Vec<u8>,
        /// Milliseconds since the daemon epoch.
        at_ms: u64,
    },
    /// A source session repaired its forwarding graph around
    /// reported-dead relays (targeted re-setup transmitted; buffered
    /// messages re-encoded against the repaired graph).
    Repaired {
        /// The repaired source session.
        session: SessionId,
        /// Relays that had been reported dead and were routed around.
        failed: usize,
        /// Milliseconds since the daemon epoch.
        at_ms: u64,
    },
    /// A command against a session failed (backpressure, quota, unknown
    /// id) — the session plane's typed error surface.
    Rejected {
        /// The session the command addressed.
        session: SessionId,
        /// Why it was rejected.
        error: SessionError,
        /// Milliseconds since the daemon epoch.
        at_ms: u64,
    },
}

/// Commands a [`SessionHandle`] routes to session shard workers.
enum SessionCommand {
    OpenSource {
        id: SessionId,
        source: Box<SourceSession>,
        setup: Vec<SendInstr>,
    },
    Send {
        id: SessionId,
        payload: Vec<u8>,
    },
    Repair {
        id: SessionId,
        pool: Vec<OverlayAddr>,
    },
    Close {
        id: SessionId,
    },
}

/// Driver-side handle to a spawned node's session plane: open, feed and
/// close sessions while the workers own the shards. Cloneable; commands
/// route by session id to the owning worker, results surface through
/// [`SessionEvent`]s and the shared stats.
#[derive(Clone)]
pub struct SessionHandle {
    next_id: Arc<AtomicU64>,
    router: SessionRouter,
    config: SessionConfig,
    cmds: Vec<mpsc::Sender<SessionCommand>>,
    stats: Arc<SessionStatsAtomic>,
}

impl SessionHandle {
    /// Open a source session (applies the node's default session
    /// config); `setup` is transmitted by the owning worker once the
    /// session's flows are registered, so reverse traffic can never
    /// race its registration.
    pub async fn open_source(
        &self,
        mut source: SourceSession,
        setup: Vec<SendInstr>,
    ) -> SessionId {
        let id = SessionId(self.next_id.fetch_add(1, Ordering::Relaxed));
        source.set_session_config(self.config);
        let source = Box::new(source);
        self.command(id, SessionCommand::OpenSource { id, source, setup })
            .await;
        id
    }

    /// Hand `cmd` to the worker owning session `id`.
    async fn command(&self, id: SessionId, cmd: SessionCommand) {
        let _ = self.cmds[self.router.route_id(id)].send(cmd).await;
    }

    /// Queue one stream message on a session. Fire-and-forget: failures
    /// (backpressure, unknown id) surface as
    /// [`SessionEvent::Rejected`].
    pub async fn send(&self, id: SessionId, payload: Vec<u8>) {
        self.command(id, SessionCommand::Send { id, payload }).await;
    }

    /// Ask a source session to repair its forwarding graph around any
    /// relays reported dead, drawing replacements from `pool`.
    ///
    /// A no-op when the session has no reported failures, so drivers
    /// may call it speculatively (e.g. for every session not yet acked
    /// after a grace period). Outcomes surface as events: a performed
    /// repair emits [`SessionEvent::Repaired`]; an unknown id emits
    /// [`SessionEvent::Rejected`]; a repair the pool cannot satisfy
    /// emits nothing and the failure state is kept for a retry with a
    /// fresher pool.
    pub async fn repair(&self, id: SessionId, pool: Vec<OverlayAddr>) {
        self.command(id, SessionCommand::Repair { id, pool }).await;
    }

    /// Tear a session down.
    pub async fn close(&self, id: SessionId) {
        self.command(id, SessionCommand::Close { id }).await;
    }

    /// Snapshot of the node's session-plane counters.
    pub fn stats(&self) -> SessionStats {
        self.stats.snapshot()
    }

    /// The session router (flow registrations; shard lookup).
    pub fn router(&self) -> &SessionRouter {
        &self.router
    }
}

/// Everything [`spawn_node`] needs to bring one overlay node up.
pub struct NodeSpec {
    /// The relay plane, if this node forwards traffic.
    pub relay: Option<ShardedRelay>,
    /// The session plane, if this node hosts endpoints.
    pub sessions: Option<SessionManager>,
    /// Every attachment point the node owns (its relay address and/or
    /// its pseudo-source addresses) — one shared ingress discipline
    /// routes each port's traffic to whichever plane owns the flow.
    pub ports: Vec<NodePort>,
    /// Colocated destination sessions on the relay plane's receiver
    /// flows.
    pub dest_sessions: Option<DestSessionSpec>,
    /// Relay-plane events.
    pub events: mpsc::UnboundedSender<OverlayEvent>,
    /// Session-plane events.
    pub session_events: Option<mpsc::UnboundedSender<SessionEvent>>,
    /// Shared epoch for the Tick clock.
    pub epoch: Instant,
}

/// A running node.
///
/// Dropping the handle also stops the node (the stop lines close, every
/// ingress exits, and the workers drain out behind them), so harnesses
/// that collect nodes in a `Vec` clean up by dropping it.
pub struct NodeHandle {
    stops: Vec<mpsc::Sender<()>>,
    ingress: Vec<tokio::task::JoinHandle<()>>,
    workers: Vec<tokio::task::JoinHandle<()>>,
    /// The session plane's driver handle (when the node hosts one).
    pub sessions: Option<SessionHandle>,
}

impl NodeHandle {
    /// Ask every ingress to exit and wait until the node has stopped:
    /// the ports are released, the workers have drained their inboxes,
    /// transmitted what that produced and published their final stats.
    ///
    /// Used by the churn driver to take a node off the overlay mid-flow:
    /// on TCP the node's port closes and peers' cached connections fail
    /// over to datagram drops, exactly like a crashed process.
    pub async fn shutdown(self) {
        for stop in &self.stops {
            let _ = stop.send(()).await;
        }
        for join in self.ingress.into_iter().chain(self.workers) {
            let _ = join.await;
        }
    }

    /// Hard-abort the node's ingress tasks (teardown); the workers drain
    /// out once their inboxes close.
    pub fn abort(&self) {
        for join in &self.ingress {
            join.abort();
        }
    }
}

/// A session-plane packet handed to a shard worker: `(owning session —
/// resolved once at the ingress — local, from, wire bytes)`.
type SessionPacket = (SessionId, OverlayAddr, OverlayAddr, Bytes);
/// A relay-plane packet handed to a shard worker: `(from, wire bytes)`.
type RelayPacket = (OverlayAddr, Bytes);

/// What a node ingress needs to steer one received buffer.
#[derive(Clone)]
struct IngressRouting {
    session: Option<(SessionRouter, Vec<mpsc::Sender<SessionPacket>>, Arc<SessionStatsAtomic>)>,
    relay: Option<(FlowRouter, Vec<mpsc::Sender<RelayPacket>>, Arc<RelayStatsAtomic>)>,
}

/// Spawn one overlay node hosting any combination of relay, source and
/// destination roles over shared transports.
///
/// Per port, an ingress task peeks each buffer's flow id and routes it:
/// flows registered with the session plane go to the owning
/// [`SessionShard`] worker, everything else to the relay plane's
/// [`RelayShard`] workers (or dies as garbage when no plane claims it).
/// Receiver flows the relay establishes get colocated
/// [`slicing_core::DestSession`]s when `dest_sessions` is set, so one
/// node terminates, originates and forwards traffic concurrently — with
/// flow/session affinity keeping every packet path lock-free.
///
/// Workers transmit each [`SendInstr`] through the port attached at its
/// `from` address, so a relay must be spawned on a port at its own
/// address; sends from an address the node does not own are counted as
/// `drops` in the owning plane's shared stats.
///
/// # Example
///
/// Run one 4-way sharded relay on the in-process emulated network,
/// watch it count an unparseable frame through the shared stats, and
/// shut it down cleanly:
///
/// ```
/// use std::time::{Duration, Instant};
/// use slicing_core::{OverlayAddr, ShardedRelay};
/// use slicing_overlay::{spawn_node, EmulatedNet, NodeSpec};
/// use slicing_sim::wan::NetProfile;
/// use tokio::sync::mpsc;
///
/// #[tokio::main]
/// async fn main() {
///     let net = EmulatedNet::new(NetProfile::lan(), 1);
///     let port = net.attach(OverlayAddr(10));
///     let sender = net.attach(OverlayAddr(11));
///     let relay = ShardedRelay::new(OverlayAddr(10), 7, 4);
///     let stats = relay.shared_stats();
///     let (events, _events_rx) = mpsc::unbounded_channel();
///     let node = spawn_node(NodeSpec {
///         relay: Some(relay),
///         sessions: None,
///         ports: vec![port],
///         dest_sessions: None,
///         events,
///         session_events: None,
///         epoch: Instant::now(),
///     });
///
///     // Anything sent to OverlayAddr(10) is peeked for its flow id and
///     // dispatched to the shard owning that flow; garbage dies at the
///     // ingress and is counted in the shared stats.
///     sender.tx.send(OverlayAddr(10), bytes::Bytes::from(&b"junk"[..])).await;
///     while stats.snapshot().garbage == 0 {
///         tokio::time::sleep(Duration::from_millis(5)).await;
///     }
///     node.shutdown().await;
/// }
/// ```
pub fn spawn_node(spec: NodeSpec) -> NodeHandle {
    let NodeSpec {
        relay,
        sessions,
        ports,
        dest_sessions,
        events,
        session_events,
        epoch,
    } = spec;
    // Egress: one sender per attachment address, shared by every worker
    // (SendInstr.from picks the port).
    let egress: Arc<HashMap<OverlayAddr, PortSender>> = Arc::new(
        ports
            .iter()
            .map(|p| (p.addr, p.tx.clone()))
            .collect(),
    );

    let mut workers = Vec::new();

    // Relay plane.
    let mut relay_routing = None;
    if let Some(relay) = relay {
        let (shards, router, stats) = relay.into_parts();
        let mut shard_txs = Vec::with_capacity(shards.len());
        for shard in shards {
            let (stx, srx) = mpsc::channel::<RelayPacket>(1024);
            workers.push(tokio::spawn(shard_worker(
                shard,
                srx,
                Arc::clone(&egress),
                events.clone(),
                epoch,
                dest_sessions.clone(),
            )));
            shard_txs.push(stx);
        }
        relay_routing = Some((router, shard_txs, stats));
    }

    // Session plane.
    let mut session_routing = None;
    let mut session_handle = None;
    if let Some(manager) = sessions {
        let config = manager.default_config();
        let (shards, router, stats) = manager.into_parts();
        let mut packet_txs = Vec::with_capacity(shards.len());
        let mut cmd_txs = Vec::with_capacity(shards.len());
        for shard in shards {
            let (ptx, prx) = mpsc::channel::<SessionPacket>(1024);
            let (ctx, crx) = mpsc::channel::<SessionCommand>(256);
            workers.push(tokio::spawn(session_worker(
                shard,
                prx,
                crx,
                Arc::clone(&egress),
                session_events.clone(),
                Arc::clone(&stats),
                epoch,
            )));
            packet_txs.push(ptx);
            cmd_txs.push(ctx);
        }
        session_handle = Some(SessionHandle {
            next_id: Arc::new(AtomicU64::new(1)),
            router: router.clone(),
            config,
            cmds: cmd_txs,
            stats: Arc::clone(&stats),
        });
        session_routing = Some((router, packet_txs, stats));
    }

    let routing = IngressRouting {
        session: session_routing,
        relay: relay_routing,
    };
    let mut stops = Vec::with_capacity(ports.len());
    let mut ingress = Vec::with_capacity(ports.len());
    for port in ports {
        let (stop_tx, stop_rx) = mpsc::channel(1);
        stops.push(stop_tx);
        ingress.push(tokio::spawn(node_ingress(port, routing.clone(), stop_rx)));
    }
    NodeHandle {
        stops,
        ingress,
        workers,
        sessions: session_handle,
    }
}

/// One port's ingress: peek the flow id, pick the plane, pick the
/// shard, hand the frozen buffer over. Full packet validation happens in
/// the owning worker — the ingress reads 12 bytes per packet and never
/// blocks on protocol work. Datagram semantics — a full worker inbox
/// sheds the packet rather than stalling the other shards.
async fn node_ingress(mut port: NodePort, routing: IngressRouting, mut stop: mpsc::Receiver<()>) {
    let local = port.addr;
    loop {
        let received = tokio::select! {
            maybe = port.rx.recv() => maybe,
            // Clean shutdown (or node handle dropped).
            _ = stop.recv() => None,
        };
        let Some((from, bytes)) = received else { break };
        match peek_flow_id(&bytes) {
            Some(flow) => {
                if let Some((router, txs, stats)) = &routing.session {
                    if let Some((shard, id)) = router.lookup(flow) {
                        if txs[shard].try_send((id, local, from, bytes)).is_err() {
                            stats.record_drop();
                        }
                        continue;
                    }
                }
                if let Some((router, txs, stats)) = &routing.relay {
                    let idx = router.route(flow);
                    if txs[idx].try_send((from, bytes)).is_err() {
                        stats.record_drop();
                    }
                    continue;
                }
                // No plane claims the flow on a session-only node.
                if let Some((_, _, stats)) = &routing.session {
                    stats.record_drop();
                }
            }
            None => {
                if let Some((_, _, stats)) = &routing.relay {
                    stats.record_garbage();
                } else if let Some((_, _, stats)) = &routing.session {
                    stats.record_drop();
                }
            }
        }
    }
    // Dropping the routing clones closes the workers' inboxes once
    // every ingress has exited.
}

/// One session shard's worker: owns the shard, drives packets, driver
/// commands and the shard's timers, transmits through the node's shared
/// egress map, and reports session events.
///
/// There is no periodic tick. Between events the worker sleeps until the
/// shard's next deadline, exactly (a pacing gap, a retransmit, a
/// keepalive), or until a packet or command arrives when no session
/// waits on a timer. Due timers run at every batch boundary, so a busy
/// inbox cannot starve them.
async fn session_worker(
    mut shard: SessionShard,
    mut packets: mpsc::Receiver<SessionPacket>,
    mut cmds: mpsc::Receiver<SessionCommand>,
    egress: Arc<HashMap<OverlayAddr, PortSender>>,
    events: Option<mpsc::UnboundedSender<SessionEvent>>,
    stats: Arc<SessionStatsAtomic>,
    epoch: Instant,
) {
    // Cleared once the last driver handle is dropped, so the select loop
    // keeps serving packets instead of spinning on the closed channel.
    let mut cmds_open = true;
    let mut scratch = Vec::new();
    let handle = |shard: &mut SessionShard,
                  id: SessionId,
                  local: OverlayAddr,
                  from: OverlayAddr,
                  bytes: Bytes| match Packet::from_bytes(bytes) {
        Ok(packet) => shard.handle_routed(now_tick(epoch), id, local, from, &packet),
        Err(_) => {
            stats.record_drop();
            SessionOutput::default()
        }
    };
    loop {
        // Tick `t` is the instant `epoch + t` ms and `now_tick` rounds
        // down, so waking at that instant reads `now >= t`: the entry
        // fires on this wake, never a spin later.
        let wake = shard
            .next_deadline()
            .map(|t| epoch + Duration::from_millis(t.0));
        let mut out = tokio::select! {
            maybe = packets.recv() => {
                let Some((id, local, from, bytes)) = maybe else { break };
                handle(&mut shard, id, local, from, bytes)
            }
            cmd = cmds.recv(), if cmds_open => {
                match cmd {
                    Some(cmd) => apply_session_command(&mut shard, cmd, &events, epoch),
                    None => {
                        cmds_open = false;
                        continue;
                    }
                }
            }
            // The guard keeps the arm (and its timer) off when nothing
            // is scheduled; `epoch` is then never awaited.
            _ = tokio::time::sleep_until(wake.unwrap_or(epoch)), if wake.is_some() => {
                SessionOutput::default()
            }
        };
        for _ in 0..WORKER_DRAIN_BATCH {
            match packets.try_recv() {
                Ok((id, local, from, bytes)) => {
                    out.merge(handle(&mut shard, id, local, from, bytes))
                }
                Err(_) => break,
            }
        }
        let now = now_tick(epoch);
        if shard.next_deadline().is_some_and(|t| t <= now) {
            // Fold the transport's congestion hint into the shard's
            // pacing floor: sources slow their admission to what the
            // wire is actually draining (0 clears the override).
            let hint = egress
                .values()
                .filter_map(|p| p.pace_hint_ms())
                .max()
                .unwrap_or(0);
            shard.set_pace_override(hint);
            out.merge(shard.poll(now));
        }
        emit_session_events(&events, epoch, &mut out);
        let misaddressed = flush_instr_batches(&egress, out.sends, &mut scratch).await;
        (0..misaddressed).for_each(|_| stats.record_drop());
        shard.publish_stats();
    }
    shard.publish_stats();
}

/// Apply one driver command to a session shard.
fn apply_session_command(
    shard: &mut SessionShard,
    cmd: SessionCommand,
    events: &Option<mpsc::UnboundedSender<SessionEvent>>,
    epoch: Instant,
) -> SessionOutput {
    let now = now_tick(epoch);
    let mut out = SessionOutput::default();
    let reject = |id: SessionId, error: SessionError| {
        if let Some(ev) = events {
            let _ = ev.send(SessionEvent::Rejected {
                session: id,
                error,
                at_ms: epoch.elapsed().as_millis() as u64,
            });
        }
    };
    match cmd {
        SessionCommand::OpenSource { id, source, setup } => {
            match shard.open_source(now, id, *source) {
                // The session's flows are registered; setup may now hit
                // the wire without racing reverse traffic.
                Ok(()) => out.sends.extend(setup),
                Err(e) => reject(id, e),
            }
        }
        SessionCommand::Send { id, payload } => match shard.send(now, id, &payload) {
            Ok((_, sends)) => out.sends.extend(sends),
            Err(e) => reject(id, e),
        },
        SessionCommand::Repair { id, pool } => match shard.source_mut(id) {
            Some(source) => {
                if source.needs_repair() {
                    let failed = source.failed_nodes().len();
                    // A pool that cannot satisfy the rebuild keeps the
                    // failure state; the driver retries with a fresher
                    // pool (e.g. after more restarts were observed).
                    if let Ok(sends) = source.repair(&pool) {
                        out.sends.extend(sends);
                        if let Some(ev) = events {
                            let _ = ev.send(SessionEvent::Repaired {
                                session: id,
                                failed,
                                at_ms: epoch.elapsed().as_millis() as u64,
                            });
                        }
                    }
                }
            }
            None => reject(id, SessionError::UnknownSession),
        },
        SessionCommand::Close { id } => {
            shard.close(id);
        }
    }
    out
}

/// Report a shard output's session events.
fn emit_session_events(
    events: &Option<mpsc::UnboundedSender<SessionEvent>>,
    epoch: Instant,
    out: &mut SessionOutput,
) {
    let Some(ev) = events else {
        out.acked.clear();
        out.replies.clear();
        out.raw.clear();
        return;
    };
    let at_ms = epoch.elapsed().as_millis() as u64;
    for (session, msg_id) in out.acked.drain(..) {
        let _ = ev.send(SessionEvent::Acked {
            session,
            msg_id,
            at_ms,
        });
    }
    for (session, reply_id, payload) in out.replies.drain(..) {
        let _ = ev.send(SessionEvent::Reply {
            session,
            reply_id,
            payload,
            at_ms,
        });
    }
    for (session, seq, payload) in out.raw.drain(..) {
        let _ = ev.send(SessionEvent::Raw {
            session,
            seq,
            payload,
            at_ms,
        });
    }
}

/// Transmit `sends` through a per-address egress map, grouping every
/// send that shares a `(from, to)` pair across the whole flush into one
/// transport call — one connection-cache probe on TCP, one
/// `sendmmsg`-shaped syscall on UDP. A relay generation fans its `d`
/// packets out to *different* next hops, so same-destination sends
/// interleave rather than run consecutively; grouping across the flush
/// is what makes the batches dense. Per-destination order is preserved
/// (the only order a datagram transport carries); ordering *between*
/// destinations has no protocol meaning.
///
/// `batches` is the caller's scratch: drained buckets stay in it so
/// their allocations serve the next flush to the same neighbours, but
/// once more than [`EGRESS_BUCKETS_KEPT`] have piled up every bucket the
/// current flush does not use is released — a long-lived worker never
/// holds (or scans, or offers the transport) a bucket per neighbour it
/// has ever sent to.
///
/// Returns how many frames were dropped because the node owns no port at
/// their `from` address (a mis-addressed instruction, not a transport
/// error) for the caller to count.
async fn flush_instr_batches(
    egress: &HashMap<OverlayAddr, PortSender>,
    sends: Vec<SendInstr>,
    batches: &mut Vec<((OverlayAddr, OverlayAddr), Vec<Bytes>)>,
) -> u64 {
    // A flush touches a handful of neighbours; linear scan over the
    // bucket list beats a map allocation at these sizes.
    for instr in sends {
        let key = (instr.from, instr.to);
        let frames = match batches.iter_mut().find(|(k, _)| *k == key) {
            Some((_, frames)) => frames,
            None => {
                batches.push((key, Vec::new()));
                &mut batches.last_mut().expect("just pushed").1
            }
        };
        frames.push(instr.packet.encode());
    }
    if batches.len() > EGRESS_BUCKETS_KEPT {
        batches.retain(|(_, frames)| !frames.is_empty());
    }
    let mut misaddressed = 0;
    for ((from, to), frames) in batches.iter_mut().filter(|(_, f)| !f.is_empty()) {
        if let Some(port) = egress.get(from) {
            port.send_many(*to, frames).await;
        } else {
            misaddressed += frames.len() as u64;
            frames.clear();
        }
    }
    misaddressed
}

/// Spawn an onion relay daemon on `port`.
pub fn spawn_onion_relay(
    mut relay: OnionRelay,
    mut port: NodePort,
    events: mpsc::UnboundedSender<OverlayEvent>,
    epoch: Instant,
) -> tokio::task::JoinHandle<()> {
    tokio::spawn(async move {
        let addr = port.addr;
        while let Some((_, bytes)) = port.rx.recv().await {
            let Ok(packet) = OnionPacket::from_bytes(bytes) else {
                continue;
            };
            let out = relay.handle_packet(&packet);
            let at_ms = epoch.elapsed().as_millis() as u64;
            if let Some(is_exit) = out.established {
                let _ = events.send(OverlayEvent::Established {
                    addr,
                    // Onion circuits have no slicing flow id.
                    flow: FlowId(0),
                    receiver: is_exit,
                    at_ms,
                });
            }
            for (seq, plaintext) in &out.delivered {
                let _ = events.send(OverlayEvent::MessageReceived {
                    addr,
                    seq: *seq,
                    len: plaintext.len(),
                    at_ms,
                });
            }
            for send in out.sends {
                port.tx.send(send.to, send.packet.encode()).await;
            }
        }
    })
}

/// Milliseconds since the epoch as a protocol [`Tick`].
pub fn now_tick(epoch: Instant) -> Tick {
    Tick(epoch.elapsed().as_millis() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EmulatedNet;
    use slicing_core::GraphParams;
    use slicing_sim::wan::NetProfile;
    use slicing_wire::{PacketHeader, PacketKind};

    /// Wait (bounded) until `cond` observes the shared stats; returns
    /// the last snapshot (see [`crate::testutil`]).
    async fn wait_stats(
        stats: &Arc<RelayStatsAtomic>,
        cond: impl Fn(&slicing_core::RelayStats) -> bool,
    ) -> slicing_core::RelayStats {
        crate::testutil::wait_until(|| stats.snapshot(), cond).await
    }

    /// A relay-only node for `relay` on `port`.
    fn relay_node(
        relay: ShardedRelay,
        port: NodePort,
    ) -> (NodeHandle, mpsc::UnboundedReceiver<OverlayEvent>) {
        let (events, events_rx) = mpsc::unbounded_channel();
        let node = spawn_node(NodeSpec {
            relay: Some(relay),
            sessions: None,
            ports: vec![port],
            dest_sessions: None,
            events,
            session_events: None,
            epoch: Instant::now(),
        });
        (node, events_rx)
    }

    /// A well-formed one-slot data packet on an unknown flow.
    fn data_packet() -> Packet {
        Packet::new(
            PacketHeader {
                kind: PacketKind::Data,
                flow_id: FlowId(99),
                seq: 0,
                d: 2,
                slot_count: 1,
                slot_len: 10,
            },
            vec![vec![0u8; 10]],
        )
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn node_drops_garbage_at_ingress_and_worker() {
        for shards in [1, 4] {
            let net = EmulatedNet::new(NetProfile::lan(), 2);
            let relay_port = net.attach(OverlayAddr(10));
            let sender = net.attach(OverlayAddr(11));
            let relay = ShardedRelay::new(OverlayAddr(10), 7, shards);
            let stats = relay.shared_stats();
            let (_node, _events) = relay_node(relay, relay_port);
            // Fails the ingress peek (bad magic): counted at the ingress.
            sender
                .tx
                .send(OverlayAddr(10), Bytes::from(&b"not a packet"[..]))
                .await;
            let seen = wait_stats(&stats, |s| s.garbage >= 1).await;
            assert_eq!(seen.garbage, 1, "{shards} shard(s): bad magic dies at the ingress");
            // Passes the peek but fails full validation (truncated
            // body): counted by the owning shard's worker.
            let valid = data_packet().encode();
            sender
                .tx
                .send(OverlayAddr(10), valid.slice(..valid.len() - 1))
                .await;
            let seen = wait_stats(&stats, |s| s.garbage >= 2).await;
            assert_eq!(seen.garbage, 2, "{shards} shard(s): both rejects must be counted");
            assert_eq!(seen.packets_in, 0, "{shards} shard(s): garbage never reaches the engine");
        }
    }

    /// A data packet that parses on the wire (`d ≤ slot_len`) but whose
    /// slots are too short for `coeffs ‖ crc` contributes no slice; it
    /// used to vanish without a trace. It must show up in `drops`.
    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn node_counts_data_too_short_for_a_slice() {
        let net = EmulatedNet::new(NetProfile::lan(), 6);
        let pseudo_ports = [net.attach(OverlayAddr(501)), net.attach(OverlayAddr(502))];
        let pseudo: Vec<OverlayAddr> = pseudo_ports.iter().map(|p| p.addr).collect();
        let candidates: Vec<OverlayAddr> = (0..16).map(|i| OverlayAddr(20_000 + i)).collect();
        let (source, setup) = SourceSession::establish(
            GraphParams::new(3, 2).with_paths(2),
            &pseudo,
            &candidates,
            OverlayAddr(1),
            23,
        )
        .expect("valid params");
        let target = source.graph().stages[1][0];
        let relay = ShardedRelay::new(target, 7, 1);
        let stats = relay.shared_stats();
        let (_node, _events) = relay_node(relay, net.attach(target));
        for instr in setup.iter().filter(|i| i.to == target) {
            let port = pseudo_ports.iter().find(|p| p.addr == instr.from).expect("pseudo");
            port.tx.send(target, instr.packet.encode()).await;
        }
        let seen = wait_stats(&stats, |s| s.flows_established == 1).await;
        assert_eq!((seen.flows_established, seen.drops), (1, 0), "stats: {seen:?}");

        // From a legitimate parent, on the live flow: d = 2 needs at
        // least 2 + 4 bytes per slot; 5 passes the wire check only.
        let short = Packet::new(
            PacketHeader {
                kind: PacketKind::Data,
                flow_id: source.graph().flow_ids[1][0],
                seq: 0,
                d: 2,
                slot_count: 1,
                slot_len: 5,
            },
            vec![vec![0u8; 5]],
        );
        pseudo_ports[0].tx.send(target, short.encode()).await;
        let seen = wait_stats(&stats, |s| s.drops >= 1).await;
        assert_eq!(seen.drops, 1, "short-slot data must be counted: {seen:?}");
        assert_eq!(seen.garbage, 0, "it is a valid packet, not garbage");
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn dropping_the_handle_stops_ingress_and_workers() {
        let net = EmulatedNet::new(NetProfile::lan(), 3);
        let relay = ShardedRelay::new(OverlayAddr(10), 7, 4);
        let stats = relay.shared_stats();
        let (node, mut events_rx) = relay_node(relay, net.attach(OverlayAddr(10)));
        // The ingress (through its routing table) and every shard hold
        // a clone of the stats cell while they run.
        assert!(Arc::strong_count(&stats) > 1);
        drop(node);
        let holders =
            crate::testutil::wait_until(|| Arc::strong_count(&stats), |&n| n == 1).await;
        assert_eq!(holders, 1, "an ingress or shard worker outlived the handle");
        // Each worker held an events sender; all of them are gone.
        assert!(events_rx.recv().await.is_none());
    }

    #[tokio::test]
    async fn egress_buckets_do_not_outlive_their_flush() {
        let net = EmulatedNet::new(NetProfile::lan(), 4);
        let me = OverlayAddr(1);
        let egress = HashMap::from([(me, net.attach(me).tx)]);
        let sends = |neighbours: u64| -> Vec<SendInstr> {
            (0..neighbours)
                .map(|i| SendInstr {
                    from: me,
                    to: OverlayAddr(100 + i),
                    packet: data_packet(),
                })
                .collect()
        };
        let mut batches = Vec::new();
        assert_eq!(flush_instr_batches(&egress, sends(200), &mut batches).await, 0);
        assert_eq!(batches.len(), 200);
        assert_eq!(flush_instr_batches(&egress, sends(1), &mut batches).await, 0);
        assert_eq!(batches.len(), 1, "buckets of earlier flushes must be released");
        // Under the cap, idle buckets keep their allocation.
        assert_eq!(flush_instr_batches(&egress, sends(8), &mut batches).await, 0);
        assert_eq!(flush_instr_batches(&egress, sends(1), &mut batches).await, 0);
        assert_eq!(batches.len(), 8);
        assert!(batches.iter().all(|(_, frames)| frames.is_empty()));
    }

    /// A relay spawned on a port that is not its address, and a session
    /// whose pseudo-sources the node does not own, both lose every send
    /// — visibly, in their plane's `drops`.
    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn misaddressed_sends_are_counted_as_drops() {
        let net = EmulatedNet::new(NetProfile::lan(), 5);
        let pseudo_ports = [net.attach(OverlayAddr(501)), net.attach(OverlayAddr(502))];
        let pseudo: Vec<OverlayAddr> = pseudo_ports.iter().map(|p| p.addr).collect();
        let candidates: Vec<OverlayAddr> = (0..16).map(|i| OverlayAddr(20_000 + i)).collect();
        let params = GraphParams::new(3, 2).with_paths(2);
        let establish = |seed| {
            SourceSession::establish(params, &pseudo, &candidates, OverlayAddr(1), seed)
                .expect("valid params")
        };

        // Relay plane: the engine says it is OverlayAddr(10), the port is
        // attached at OverlayAddr(12). Establish a flow on it so it has
        // setup slices to forward.
        let relay = ShardedRelay::new(OverlayAddr(10), 7, 1);
        let relay_stats = relay.shared_stats();
        let (_relay_node, _events) = relay_node(relay, net.attach(OverlayAddr(12)));
        let (source, setup) = establish(21);
        let target = source.graph().stages[1][0];
        for instr in setup.iter().filter(|i| i.to == target) {
            let port = pseudo_ports.iter().find(|p| p.addr == instr.from).expect("pseudo");
            port.tx.send(OverlayAddr(12), instr.packet.encode()).await;
        }
        let seen = wait_stats(&relay_stats, |s| s.packets_out > 0).await;
        assert_eq!(seen.flows_established, 1, "stats: {seen:?}");
        assert!(seen.drops > 0, "forwarded setup must be counted lost: {seen:?}");

        // Session plane: ports at 601/602, sessions claiming 501/502.
        let (events, _events_rx) = mpsc::unbounded_channel();
        let node = spawn_node(NodeSpec {
            relay: None,
            sessions: Some(SessionManager::new(1, 8, SessionConfig::default())),
            ports: vec![net.attach(OverlayAddr(601)), net.attach(OverlayAddr(602))],
            dest_sessions: None,
            events,
            session_events: None,
            epoch: Instant::now(),
        });
        let sessions = node.sessions.clone().expect("session plane");
        let (source, setup) = establish(22);
        // Every setup send, then the session's first keepalive burst (due
        // at once: one per pseudo-source × stage-1 relay). The next burst
        // is `keepalive_ms` (10 s) away, so the count is exact whatever
        // the worker's wake cadence.
        let dp = params.paths as u64;
        let lost = setup.len() as u64 + dp * dp;
        sessions.open_source(source, setup).await;
        let seen = crate::testutil::wait_until(|| sessions.stats(), |s| s.drops >= lost).await;
        assert_eq!(
            seen.drops, lost,
            "every setup and keepalive send is mis-addressed"
        );
    }

    /// The session worker sleeps until its shard's next deadline, not a
    /// periodic tick: source keepalives due every 5 ms go out about every
    /// 5 ms (onto ports the node does not own, so each burst shows up as
    /// drops), where a 50 ms tick would space them ten times wider.
    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn session_worker_wakes_at_the_next_deadline() {
        const BURSTS: u64 = 20;
        let net = EmulatedNet::new(NetProfile::lan(), 7);
        let pseudo = [OverlayAddr(501), OverlayAddr(502)];
        let candidates: Vec<OverlayAddr> = (0..16).map(|i| OverlayAddr(20_000 + i)).collect();
        let params = GraphParams::new(3, 2).with_paths(2);
        let (mut source, setup) =
            SourceSession::establish(params, &pseudo, &candidates, OverlayAddr(1), 23)
                .expect("valid params");
        source.set_config(slicing_core::SourceConfig {
            keepalive_ms: 5,
            ..slicing_core::SourceConfig::default()
        });
        let (events, _events_rx) = mpsc::unbounded_channel();
        let node = spawn_node(NodeSpec {
            relay: None,
            sessions: Some(SessionManager::new(1, 8, SessionConfig::default())),
            ports: vec![net.attach(OverlayAddr(601)), net.attach(OverlayAddr(602))],
            dest_sessions: None,
            events,
            session_events: None,
            epoch: Instant::now(),
        });
        let sessions = node.sessions.clone().expect("session plane");
        let dp = params.paths as u64;
        let want = setup.len() as u64 + BURSTS * dp * dp;
        let start = Instant::now();
        sessions.open_source(source, setup).await;
        let seen = crate::testutil::wait_until(|| sessions.stats(), |s| s.drops >= want).await;
        let took = start.elapsed();
        assert!(seen.drops >= want, "stats: {seen:?}");
        // 20 bursts 5 ms apart take about 100 ms; 50 ms apart, a second.
        assert!(
            took < Duration::from_millis(500),
            "{BURSTS} keepalive bursts due 5 ms apart took {took:?}"
        );
    }
}
