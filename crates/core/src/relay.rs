//! The relay state machine: the sans-IO equivalent of the paper's
//! "overlay daemon" (§7.1).
//!
//! A relay maintains a hash table keyed on cleartext flow-ids. For each
//! flow it gathers its own setup slices, decodes its per-node information
//! `I_x`, forwards the remaining slices per the slice-map (stripping one
//! per-hop transform layer, replacing consumed slices with padding), and
//! then relays data slices per the data-map or by network re-coding.
//! If the receiver flag is set, it additionally decodes and decrypts data
//! messages — while still forwarding downstream so that its neighbours
//! cannot tell it is the destination.
//!
//! # Sharding
//!
//! The state machine lives in [`RelayShard`]: one flow map, one
//! [`TimerWheel`], one RNG, one scratch buffer — everything a flow
//! touches is shard-local, because flows are independent (the only
//! cross-flow state a relay has is its stats and its reverse-flow-id
//! routing, both shared through [`FlowRouter`] /
//! [`RelayStatsAtomic`]). [`crate::shard::ShardedRelay`] is the one
//! public relay type: it fans the engine out across `N ≥ 1` shards keyed
//! by `hash(flow_id) % N` (one shard = one `&mut self` state machine
//! with no routing step, the paper's per-node daemon).
//!
//! # Hot-path discipline
//!
//! The data plane is zero-copy end to end: gathered slices are CRC-valid
//! [`Bytes`] views into the receive buffers (no slice is copied out of a
//! packet), and outgoing slots are coded in place — a picked slice is one
//! `memcpy` into the packet under construction, and all regenerated
//! slices of a flush are accumulated straight into their packets' slots
//! by one fused multi-output pass over the gathered slices
//! ([`recombine::recombine_multi_into`]). Timeouts live in a hashed
//! [`TimerWheel`]: gathers and flows register their deadlines once, and
//! [`RelayShard::poll`] pops only what expired — it never scans live
//! flows and allocates nothing when idle. Stats stay plain shard-local
//! counters on the hot path; [`RelayShard::publish_stats`] folds the
//! delta into the shared atomics when a driver wants them visible.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::replay::ReplayGuard;
use crate::shard::FlowRouter;

use slicing_codec::{coder, recombine, InfoSlice};
use slicing_crypto::SealingKey;
use slicing_graph::info::NodeInfo;
use slicing_graph::packets::SendInstr;
use slicing_graph::{BuiltGraph, OverlayAddr};
use slicing_wire::{crc, FlowId, Packet, PacketBuilder, PacketHeader, PacketKind};

use crate::time::Tick;
use crate::wheel::TimerWheel;

/// Timer-wheel bucket width. One bucket per daemon poll period.
const WHEEL_GRANULARITY_MS: u64 = 50;
/// Timer-wheel bucket count (horizon = 12.8 s; longer deadlines such as
/// the flow TTL ride across rotations).
const WHEEL_BUCKETS: usize = 256;

/// Tunable relay behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RelayConfig {
    /// Flush a setup gather after this long even if parents are missing.
    pub setup_flush_ms: u64,
    /// Flush a data gather after this long even if parents are missing.
    pub data_flush_ms: u64,
    /// Evict idle flows after this long (the daemon's GC, §7.1).
    pub flow_ttl_ms: u64,
    /// Maximum data packets buffered for a not-yet-established flow.
    pub max_pending_data: usize,
    /// Maximum concurrently tracked flows (resource-exhaustion guard).
    pub max_flows: usize,
    /// How often an established flow announces liveness to its children
    /// (a [`slicing_wire::control::KEEPALIVE`] on each child's forward
    /// flow id). `0` disables keepalives.
    pub keepalive_ms: u64,
    /// A parent silent (no data, no keepalive) for longer than this is
    /// declared dead: the relay stops waiting for it in gathers and
    /// reports a sealed [`slicing_wire::control::FLOW_FAILED`] toward
    /// the source. Must comfortably exceed the upstream keepalive
    /// interval. `0` disables failure detection.
    pub liveness_timeout_ms: u64,
}

impl Default for RelayConfig {
    fn default() -> Self {
        RelayConfig {
            setup_flush_ms: 2_000,
            data_flush_ms: 1_000,
            flow_ttl_ms: 120_000,
            max_pending_data: 64,
            max_flows: 4_096,
            keepalive_ms: 10_000,
            liveness_timeout_ms: 30_000,
        }
    }
}

/// A data message decoded and decrypted by the destination.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReceivedData {
    /// The flow it arrived on.
    pub flow: FlowId,
    /// Message sequence number.
    pub seq: u32,
    /// Decrypted application payload.
    pub plaintext: Vec<u8>,
}

/// Counters exposed for tests and measurements.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RelayStats {
    /// Packets accepted.
    pub packets_in: u64,
    /// Packets emitted.
    pub packets_out: u64,
    /// Flows successfully established (own info decoded).
    pub flows_established: u64,
    /// Setup gathers that failed to decode.
    pub setup_failures: u64,
    /// Data messages decoded as the destination.
    pub messages_received: u64,
    /// Packets dropped (unknown flow, malformed, over limits).
    pub drops: u64,
    /// Flows evicted by GC.
    pub flows_evicted: u64,
    /// Receive buffers that never parsed as a packet (counted by the
    /// I/O layer — daemon loop or sharded ingress — not by the engine,
    /// which only ever sees valid packets).
    pub garbage: u64,
    /// Parents declared dead by liveness tracking (churn detection).
    pub parents_lost: u64,
    /// Established flows whose info was replaced in place by an
    /// authenticated re-setup (source-side repair).
    pub flows_repaired: u64,
}

impl RelayStats {
    /// Field-wise difference (`self` must be a later snapshot of the
    /// same monotonically growing counters).
    fn delta_since(&self, earlier: &RelayStats) -> RelayStats {
        RelayStats {
            packets_in: self.packets_in - earlier.packets_in,
            packets_out: self.packets_out - earlier.packets_out,
            flows_established: self.flows_established - earlier.flows_established,
            setup_failures: self.setup_failures - earlier.setup_failures,
            messages_received: self.messages_received - earlier.messages_received,
            drops: self.drops - earlier.drops,
            flows_evicted: self.flows_evicted - earlier.flows_evicted,
            garbage: self.garbage - earlier.garbage,
            parents_lost: self.parents_lost - earlier.parents_lost,
            flows_repaired: self.flows_repaired - earlier.flows_repaired,
        }
    }

    /// Every counter as a `(name, value)` pair, in declaration order.
    ///
    /// This is the single authoritative enumeration of the relay
    /// counters: metrics exposition (the `slicing-node` daemon's
    /// `/metrics` endpoint) iterates it instead of hand-listing fields,
    /// so a counter added here is exported automatically and the text
    /// exposition can never drift from the atomics.
    pub fn counters(&self) -> [(&'static str, u64); 10] {
        [
            ("packets_in", self.packets_in),
            ("packets_out", self.packets_out),
            ("flows_established", self.flows_established),
            ("setup_failures", self.setup_failures),
            ("messages_received", self.messages_received),
            ("drops", self.drops),
            ("flows_evicted", self.flows_evicted),
            ("garbage", self.garbage),
            ("parents_lost", self.parents_lost),
            ("flows_repaired", self.flows_repaired),
        ]
    }

    /// Field-wise sum.
    pub(crate) fn add(&mut self, other: &RelayStats) {
        self.packets_in += other.packets_in;
        self.packets_out += other.packets_out;
        self.flows_established += other.flows_established;
        self.setup_failures += other.setup_failures;
        self.messages_received += other.messages_received;
        self.drops += other.drops;
        self.flows_evicted += other.flows_evicted;
        self.garbage += other.garbage;
        self.parents_lost += other.parents_lost;
        self.flows_repaired += other.flows_repaired;
    }
}

/// The shared, atomically updated mirror of a relay's [`RelayStats`]:
/// every shard folds its local counters into one instance of this, so a
/// driver (daemon, test, dashboard) can observe a live relay without
/// owning any shard — shards are owned by their worker tasks in the
/// sharded runtime.
///
/// Hot paths never touch these atomics: shards count into plain local
/// fields and [`RelayShard::publish_stats`] folds the delta in batches,
/// so the cacheline is not contended at packet rate.
#[derive(Debug, Default)]
pub struct RelayStatsAtomic {
    packets_in: AtomicU64,
    packets_out: AtomicU64,
    flows_established: AtomicU64,
    setup_failures: AtomicU64,
    messages_received: AtomicU64,
    drops: AtomicU64,
    flows_evicted: AtomicU64,
    garbage: AtomicU64,
    parents_lost: AtomicU64,
    flows_repaired: AtomicU64,
}

impl RelayStatsAtomic {
    /// Read a consistent-enough snapshot (individual counters are exact;
    /// cross-counter skew is bounded by one publish batch).
    pub fn snapshot(&self) -> RelayStats {
        RelayStats {
            packets_in: self.packets_in.load(Ordering::Relaxed),
            packets_out: self.packets_out.load(Ordering::Relaxed),
            flows_established: self.flows_established.load(Ordering::Relaxed),
            setup_failures: self.setup_failures.load(Ordering::Relaxed),
            messages_received: self.messages_received.load(Ordering::Relaxed),
            drops: self.drops.load(Ordering::Relaxed),
            flows_evicted: self.flows_evicted.load(Ordering::Relaxed),
            garbage: self.garbage.load(Ordering::Relaxed),
            parents_lost: self.parents_lost.load(Ordering::Relaxed),
            flows_repaired: self.flows_repaired.load(Ordering::Relaxed),
        }
    }

    /// Count one receive buffer that failed wire-level parsing. Called
    /// by the I/O layer, which has no shard to count into.
    pub fn record_garbage(&self) {
        self.garbage.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one packet dropped by the I/O layer (e.g. a sharded
    /// ingress shedding load when a shard's inbox is full).
    pub fn record_drop(&self) {
        self.drops.fetch_add(1, Ordering::Relaxed);
    }

    /// Fold a delta of per-shard counters in.
    fn fold(&self, d: &RelayStats) {
        // Skip the RMW entirely for untouched counters — a publish after
        // an idle poll is free.
        macro_rules! fold_field {
            ($f:ident) => {
                if d.$f != 0 {
                    self.$f.fetch_add(d.$f, Ordering::Relaxed);
                }
            };
        }
        fold_field!(packets_in);
        fold_field!(packets_out);
        fold_field!(flows_established);
        fold_field!(setup_failures);
        fold_field!(messages_received);
        fold_field!(drops);
        fold_field!(flows_evicted);
        fold_field!(garbage);
        fold_field!(parents_lost);
        fold_field!(flows_repaired);
    }
}

/// Everything a single `handle_packet`/`poll` call wants to tell the
/// driver.
#[derive(Clone, Debug, Default)]
pub struct RelayOutput {
    /// Packets to transmit.
    pub sends: Vec<SendInstr>,
    /// Messages decoded by this node as the destination.
    pub received: Vec<ReceivedData>,
    /// One entry per flow establishment this call (or merged batch of
    /// calls) completed: the flow id plus the receiver flag (true =
    /// this node is that flow's destination). A `Vec` rather than an
    /// `Option` so batching drivers can merge outputs without losing
    /// events; the flow id lets drivers attach per-flow machinery (e.g.
    /// a [`crate::session::DestSession`]) to freshly established
    /// receiver flows.
    pub established: Vec<(FlowId, bool)>,
    /// Receiver-flow seqs that arrived again *after* delivery (the
    /// replay guard suppressed the duplicate). A colocated
    /// [`crate::session::DestSession`] treats these as "my ack was
    /// lost" and re-announces its delivery state — without this signal
    /// a lost final ack would wedge the source's retransmit loop
    /// forever, since retransmitted chunks never re-deliver.
    pub replayed: Vec<(FlowId, u32)>,
    /// Flows whose neighbour lists a source-issued repair re-setup just
    /// spliced (flow id + receiver flag). A colocated
    /// [`crate::session::DestSession`] must refresh its routing from
    /// the relay's new flow info ([`DestSession::set_info`]) — its ack
    /// slices otherwise keep fanning to the dead parent, and with
    /// `d′ = d` the source can never decode another ack.
    ///
    /// [`DestSession::set_info`]: crate::session::DestSession::set_info
    pub rekeyed: Vec<(FlowId, bool)>,
}

impl RelayOutput {
    /// Append another call's output (drivers batching several
    /// `handle_packet` calls before touching the network use this too).
    pub fn merge(&mut self, other: RelayOutput) {
        self.sends.extend(other.sends);
        self.received.extend(other.received);
        self.established.extend(other.established);
        self.replayed.extend(other.replayed);
        self.rekeyed.extend(other.rekeyed);
    }
}

/// Per-(direction, seq) data-slice gathering. Its flush deadline lives
/// in the relay's timer wheel, registered at creation.
#[derive(Clone, Debug)]
struct DataGather {
    /// Parents (or children, for reverse flows) heard from.
    heard: HashSet<OverlayAddr>,
    /// The neighbour each retained slice came from (parallel to
    /// `slices`; Map-mode forwarding selects by origin).
    origins: Vec<OverlayAddr>,
    /// CRC-valid slice bytes (`coeffs ‖ payload`), zero-copy views into
    /// the receive buffers.
    slices: Vec<Bytes>,
    /// Already flushed downstream (late packets are ignored).
    flushed: bool,
    /// Already delivered to the application (destination only).
    delivered: bool,
}

impl DataGather {
    fn new() -> Self {
        DataGather {
            heard: HashSet::new(),
            origins: Vec::new(),
            slices: Vec::new(),
            flushed: false,
            delivered: false,
        }
    }
}

/// Setup-phase gathering: the packets received so far, by parent.
/// Cloning a [`Packet`] into the gather is O(1) — the wire buffer is
/// shared, not copied.
#[derive(Clone, Debug)]
struct SetupGather {
    first_seen: Tick,
    packets: HashMap<OverlayAddr, Packet>,
    flushed: bool,
}

/// Pending authenticated re-setup of an established flow (source-side
/// repair, §4.4.2 extended): clean info slices gathered per sender until
/// `d` decode into a [`NodeInfo`] proving knowledge of the flow's secret
/// key. Bounded (one per flow, capped senders) and reaped by a wheel
/// deadline, so forged re-setups cannot pin memory.
#[derive(Clone, Debug, Default)]
struct ResetupGather {
    /// One retained slice per sender (repair packets are one slot each).
    slices: HashMap<OverlayAddr, InfoSlice>,
}

/// An established flow.
#[derive(Clone, Debug)]
struct ActiveFlow {
    info: NodeInfo,
    /// Cached sealing state for the flow's secret key (subkeys + HMAC
    /// midstates derived once at establishment). A repair re-setup
    /// never changes the key — the authenticity check requires it to
    /// match — so the sealer survives splices untouched.
    sealer: SealingKey,
    last_activity: Tick,
    /// Forward data gathers by seq.
    data: HashMap<u32, DataGather>,
    /// Reverse data gathers by seq.
    reverse: HashMap<u32, DataGather>,
    /// Seqs already delivered to the application (receiver flows);
    /// outlives the per-seq gathers so replays never double-deliver.
    delivered: ReplayGuard,
    /// Last tick each parent was heard from (data, keepalive or
    /// control), parallel to `info.parents`.
    last_heard: Vec<Tick>,
    /// Parents currently considered dead, as a bitmask over parent
    /// indices (`d′ ≤ 64` by [`slicing_graph::GraphParams::validate`]).
    dead_parents: u64,
    /// Parents whose death has already been reported toward the source.
    reported_dead: u64,
    /// Hashes of recently forwarded FLOW_FAILED payloads (dedup against
    /// the `d′`-ary fan-in re-delivering the same report).
    seen_failures: Vec<u64>,
    /// In-progress authenticated re-setup, if any.
    resetup: Option<ResetupGather>,
}

impl ActiveFlow {
    /// Parents not currently marked dead.
    fn live_parent_count(&self) -> usize {
        self.info.parents.len() - (self.dead_parents.count_ones() as usize)
    }

    /// Revive a parent if it was marked dead (it spoke again, or repair
    /// replaced it); clears the reported flag so a later real death is
    /// reported afresh.
    fn revive_parent(&mut self, idx: usize) {
        let bit = 1u64 << idx;
        self.dead_parents &= !bit;
        self.reported_dead &= !bit;
    }
}

#[derive(Clone, Debug)]
enum FlowState {
    Gathering(SetupGather, Vec<(OverlayAddr, Packet)>),
    Active(Box<ActiveFlow>),
    /// Establishment failed; swallow traffic until GC.
    Dead(Tick),
}

/// A registered deadline; validated lazily when it fires (there are no
/// cancellation handles — state that resolved early just ignores the
/// stale entry).
#[derive(Clone, Copy, Debug)]
enum Deadline {
    /// Force-establish an overdue setup gather.
    SetupFlush(FlowId),
    /// Flush an overdue data gather.
    DataFlush {
        /// The (forward) flow the gather belongs to.
        flow: FlowId,
        /// Message sequence number.
        seq: u32,
        /// Reverse-direction gather?
        reverse: bool,
    },
    /// Candidate idle-GC point; re-armed if activity refreshed the flow.
    FlowExpiry(FlowId),
    /// Periodic liveness announcement to the flow's children.
    Keepalive(FlowId),
    /// Candidate parent-death point; like [`Deadline::FlowExpiry`] it is
    /// validated lazily against the flow's *current* `last_heard` state
    /// and re-armed at the true deadline, so a stale entry left behind
    /// by a repair (or by chatty parents) can never fire a spurious
    /// teardown.
    LivenessCheck(FlowId),
    /// Reap an abandoned re-setup gather.
    ResetupExpire(FlowId),
}

/// Outcome of the borrow-free establishment analysis.
enum Establish {
    /// Keep gathering (need more parents, or decode not yet possible).
    Wait,
    /// Decoding failed; `hard` failures (undecodable `NodeInfo`) kill the
    /// flow immediately, soft ones only on a forced (timed-out) attempt.
    Failed {
        /// Whether the failure is terminal regardless of `force`.
        hard: bool,
    },
    /// Our info decoded and the parent set is satisfied.
    Go(Box<NodeInfo>),
}

/// One shard of a relay's data plane: a complete, independent instance
/// of the flow state machine — its own flow map, timer wheel, RNG and
/// scratch buffers. Flows never span shards, so `N` shards handle `N`
/// disjoint flow sets with no synchronization on the packet path; the
/// only shared state is the [`FlowRouter`] (reverse-flow-id → shard,
/// written at establishment/eviction) and the [`RelayStatsAtomic`]
/// counters (folded in batches by [`publish_stats`]).
///
/// [`publish_stats`]: RelayShard::publish_stats
pub struct RelayShard {
    addr: OverlayAddr,
    /// This shard's index within its relay (0 for a single-shard node).
    index: usize,
    flows: HashMap<FlowId, FlowState>,
    /// Reverse flow-id → forward flow-id (shard-local; the router holds
    /// the cross-shard reverse → shard map).
    reverse_index: HashMap<FlowId, FlowId>,
    config: RelayConfig,
    /// Hot-path counters: plain shard-local fields.
    stats: RelayStats,
    /// The part of `stats` already folded into `shared`.
    folded: RelayStats,
    /// The relay-wide atomic mirror all shards fold into.
    shared: Arc<RelayStatsAtomic>,
    /// The relay-wide flow router (reverse-flow-id registrations).
    router: FlowRouter,
    rng: StdRng,
    /// Deadlines for every pending gather flush and flow expiry.
    wheel: TimerWheel<Deadline>,
    /// Reusable buffer for expired wheel entries (poll never allocates).
    expired: Vec<(Tick, Deadline)>,
    /// Reusable buffer for the outgoing-slot indexes that need a fresh
    /// combination during a flush (the flush path never allocates it).
    scratch_regen: Vec<usize>,
}

impl RelayShard {
    /// Create shard `index` of a relay at `addr`. `config.max_flows` is
    /// this shard's own quota (callers building an `N`-shard relay
    /// divide the node budget before constructing shards).
    pub fn new(
        addr: OverlayAddr,
        seed: u64,
        config: RelayConfig,
        index: usize,
        router: FlowRouter,
        shared: Arc<RelayStatsAtomic>,
    ) -> Self {
        // Shard 0 draws the unmixed stream: a 1-shard relay's RNG depends
        // on `(seed, addr)` alone.
        let stream = (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        RelayShard {
            addr,
            index,
            flows: HashMap::new(),
            reverse_index: HashMap::new(),
            config,
            stats: RelayStats::default(),
            folded: RelayStats::default(),
            shared,
            router,
            rng: StdRng::seed_from_u64(seed ^ addr.0 ^ stream),
            wheel: TimerWheel::new(WHEEL_GRANULARITY_MS, WHEEL_BUCKETS),
            expired: Vec::new(),
            scratch_regen: Vec::new(),
        }
    }

    /// This node's address.
    pub fn addr(&self) -> OverlayAddr {
        self.addr
    }

    /// This shard's index within its relay.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Shard-local counters (excludes other shards; see
    /// [`RelayStatsAtomic::snapshot`] for the relay-wide view).
    pub fn stats(&self) -> RelayStats {
        self.stats
    }

    /// Fold counters accrued since the last publish into the shared
    /// atomic stats. Cheap when nothing changed; called by drivers at
    /// batch boundaries, never per packet.
    pub fn publish_stats(&mut self) {
        let delta = self.stats.delta_since(&self.folded);
        if delta != RelayStats::default() {
            self.shared.fold(&delta);
            self.folded = self.stats;
        }
    }

    /// The relay-wide atomic stats this shard folds into.
    pub fn shared_stats(&self) -> Arc<RelayStatsAtomic> {
        Arc::clone(&self.shared)
    }

    /// Number of live flows in this shard's table.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Number of pending timer-wheel entries (tests and diagnostics).
    pub fn pending_deadlines(&self) -> usize {
        self.wheel.len()
    }

    /// The decoded info of an established flow, if any (used by drivers
    /// to e.g. discover that this node is a destination).
    pub fn flow_info(&self, flow: FlowId) -> Option<&NodeInfo> {
        match self.flows.get(&flow) {
            Some(FlowState::Active(a)) => Some(&a.info),
            _ => None,
        }
    }

    /// The consumer of [`RelayOutput::received`] refused `seq` on
    /// receiver flow `flow` (a destination session over its reassembly
    /// quota): forget the delivery, so the source's retransmission is
    /// decoded and delivered again instead of being suppressed as a
    /// replay — the refused chunk would otherwise be lost for good.
    pub fn forget_delivery(&mut self, flow: FlowId, seq: u32) {
        if let Some(FlowState::Active(active)) = self.flows.get_mut(&flow) {
            active.delivered.remove(seq);
            if let Some(gather) = active.data.get_mut(&seq) {
                gather.delivered = false;
            }
        }
    }

    /// Feed one packet into the state machine.
    // lint: hot-path
    pub fn handle_packet(&mut self, now: Tick, from: OverlayAddr, packet: &Packet) -> RelayOutput {
        self.stats.packets_in += 1;
        match packet.header.kind {
            PacketKind::Setup => self.handle_setup(now, from, packet),
            PacketKind::Data => self.handle_data(now, from, packet),
            PacketKind::Control => self.handle_control(now, from, packet),
        }
    }

    /// Drive timeouts: pop expired deadlines off the wheel and act on
    /// each. Does not scan live flows; allocation-free when nothing is
    /// due.
    pub fn poll(&mut self, now: Tick) -> RelayOutput {
        let mut out = RelayOutput::default();
        let mut expired = std::mem::take(&mut self.expired);
        expired.clear();
        self.wheel.poll_expired(now, &mut expired);
        for &(_, deadline) in &expired {
            match deadline {
                Deadline::SetupFlush(flow) => {
                    let overdue = matches!(
                        self.flows.get(&flow),
                        Some(FlowState::Gathering(g, _)) if !g.flushed
                    );
                    if overdue {
                        out.merge(self.try_establish(now, flow, true));
                    }
                }
                Deadline::DataFlush { flow, seq, reverse } => {
                    match self.gather_flushed(flow, seq, reverse) {
                        // Flow or gather already gone.
                        None => {}
                        // Flushed earlier (completeness beat the clock, or
                        // this is the quarantine firing after a timeout
                        // flush): the tombstone has swallowed late
                        // duplicates for a full window — drop it, so
                        // per-seq state cannot accumulate on long-lived
                        // flows.
                        Some(true) => self.remove_gather(flow, seq, reverse),
                        // Overdue: flush now, then keep the tombstone for
                        // one more window before the re-armed deadline
                        // removes it.
                        Some(false) => {
                            out.merge(self.flush_data(now, flow, seq, reverse));
                            self.wheel.schedule(
                                now.plus(self.config.data_flush_ms),
                                Deadline::DataFlush { flow, seq, reverse },
                            );
                        }
                    }
                }
                Deadline::FlowExpiry(flow) => self.check_expiry(now, flow),
                Deadline::Keepalive(flow) => out.merge(self.send_keepalives(now, flow)),
                Deadline::LivenessCheck(flow) => out.merge(self.check_liveness(now, flow)),
                Deadline::ResetupExpire(flow) => {
                    if let Some(FlowState::Active(a)) = self.flows.get_mut(&flow) {
                        a.resetup = None;
                    }
                }
            }
        }
        self.expired = expired;
        out
    }

    /// A [`Deadline::Keepalive`] fired: announce liveness to every child
    /// of the flow and re-arm. Dropped without re-arm once the flow is
    /// gone, so keepalives stop when GC collects the flow.
    fn send_keepalives(&mut self, now: Tick, flow: FlowId) -> RelayOutput {
        let interval = self.config.keepalive_ms;
        let mut out = RelayOutput::default();
        let Some(FlowState::Active(active)) = self.flows.get(&flow) else {
            return out;
        };
        if interval == 0 || active.info.children.is_empty() {
            return out;
        }
        for &(child_addr, child_flow) in &active.info.children {
            out.sends.push(SendInstr {
                from: self.addr,
                to: child_addr,
                // Our reverse flow id doubles as the membership token
                // the child checks against its parent list.
                packet: slicing_wire::control::keepalive(
                    child_flow,
                    active.info.reverse_flow_id,
                ),
            });
        }
        self.stats.packets_out += out.sends.len() as u64;
        self.wheel
            .schedule(now.plus(interval), Deadline::Keepalive(flow));
        out
    }

    /// A [`Deadline::LivenessCheck`] fired: declare every parent silent
    /// past the timeout dead, report each death toward the source
    /// (sealed under this flow's secret key, §9.4 confidentiality), and
    /// re-arm at the earliest deadline a still-live parent could miss.
    ///
    /// The entry is validated lazily against `last_heard` — parents
    /// refreshed by traffic (or replaced wholesale by a repair, which
    /// resets the liveness slate) simply push the next check out; a
    /// stale entry can never fire a spurious teardown.
    fn check_liveness(&mut self, now: Tick, flow: FlowId) -> RelayOutput {
        let timeout = self.config.liveness_timeout_ms;
        let mut out = RelayOutput::default();
        if timeout == 0 {
            return out;
        }
        let RelayShard {
            flows,
            stats,
            rng,
            addr,
            wheel,
            config: _,
            ..
        } = self;
        let Some(FlowState::Active(active)) = flows.get_mut(&flow) else {
            return out;
        };
        let mut next_due: Option<u64> = None;
        let mut newly_dead: Vec<usize> = Vec::new();
        for (idx, &heard) in active.last_heard.iter().enumerate() {
            if active.dead_parents & (1 << idx) != 0 {
                continue;
            }
            let due = heard.plus(timeout);
            if due.0 <= now.0 {
                newly_dead.push(idx);
            } else {
                next_due = Some(next_due.map_or(due.0, |d: u64| d.min(due.0)));
            }
        }
        for idx in newly_dead {
            let bit = 1u64 << idx;
            active.dead_parents |= bit;
            stats.parents_lost += 1;
            if active.reported_dead & bit != 0 {
                continue;
            }
            active.reported_dead |= bit;
            // Seal the dead parent's address under this flow's secret
            // key: forwarding relays learn nothing, the source (which
            // issued every per-node key) recovers and authenticates it.
            let dead_addr = active.info.parents[idx].0;
            let sealed = active.sealer.seal(&dead_addr.to_bytes(), rng);
            for (pidx, &(parent_addr, parent_rev)) in active.info.parents.iter().enumerate() {
                if active.dead_parents & (1 << pidx) != 0 {
                    continue;
                }
                out.sends.push(SendInstr {
                    from: *addr,
                    to: parent_addr,
                    packet: slicing_wire::control::flow_failed(parent_rev, &sealed),
                });
            }
        }
        stats.packets_out += out.sends.len() as u64;
        // Lazy re-arm at the true next deadline (only live parents can
        // still miss one).
        if let Some(due) = next_due {
            wheel.schedule(Tick(due), Deadline::LivenessCheck(flow));
        }
        out
    }

    /// Whether the gather for `(flow, seq, reverse)` exists and has
    /// flushed (`None` if the flow or gather is gone).
    fn gather_flushed(&self, flow: FlowId, seq: u32, reverse: bool) -> Option<bool> {
        let Some(FlowState::Active(active)) = self.flows.get(&flow) else {
            return None;
        };
        let gathers = if reverse { &active.reverse } else { &active.data };
        gathers.get(&seq).map(|g| g.flushed)
    }

    /// Drop a gather's per-seq state. Very late slices for the seq will
    /// re-gather (and be re-forwarded, deduplicated downstream by the
    /// receiving gathers' `heard` sets) — the bounded price of not
    /// holding per-message state for a flow's whole lifetime.
    fn remove_gather(&mut self, flow: FlowId, seq: u32, reverse: bool) {
        if let Some(FlowState::Active(active)) = self.flows.get_mut(&flow) {
            let gathers = if reverse {
                &mut active.reverse
            } else {
                &mut active.data
            };
            gathers.remove(&seq);
        }
    }

    /// A [`Deadline::FlowExpiry`] fired: evict the flow if it is actually
    /// idle, otherwise re-arm at its true expiry (the daemon's GC, §7.1).
    fn check_expiry(&mut self, now: Tick, flow: FlowId) {
        let ttl = self.config.flow_ttl_ms;
        let due = match self.flows.get(&flow) {
            None => return, // already evicted or re-established
            Some(FlowState::Gathering(g, _)) => g.first_seen.plus(ttl),
            Some(FlowState::Active(a)) => a.last_activity.plus(ttl),
            Some(FlowState::Dead(t)) => t.plus(ttl),
        };
        if due.0 <= now.0 {
            if let Some(FlowState::Active(a)) = self.flows.remove(&flow) {
                self.reverse_index.remove(&a.info.reverse_flow_id);
                self.router
                    .unregister_reverse(a.info.reverse_flow_id, self.index);
            }
            self.stats.flows_evicted += 1;
        } else {
            self.wheel.schedule(due, Deadline::FlowExpiry(flow));
        }
    }

    // ---- setup phase -----------------------------------------------------

    fn handle_setup(&mut self, now: Tick, from: OverlayAddr, packet: &Packet) -> RelayOutput {
        let flow = packet.header.flow_id;
        // Setup for an established flow: a source-side repair updating
        // this node's neighbour lists in place — authenticated by the
        // flow's secret key.
        if matches!(self.flows.get(&flow), Some(FlowState::Active(_))) {
            return self.handle_resetup(now, from, packet);
        }
        let at_capacity = self.flows.len() >= self.config.max_flows;
        match self.flows.entry(flow) {
            Entry::Occupied(mut e) => match e.get_mut() {
                FlowState::Gathering(g, _) => {
                    if g.flushed {
                        self.stats.drops += 1;
                        return RelayOutput::default();
                    }
                    // One shape per gather: a forged packet with a
                    // different geometry must not poison slot indexing
                    // when the gather is forwarded.
                    let consistent = g.packets.values().next().is_none_or(|first| {
                        let (a, b) = (&first.header, &packet.header);
                        a.d == b.d && a.slot_count == b.slot_count && a.slot_len == b.slot_len
                    });
                    if !consistent {
                        self.stats.drops += 1;
                        return RelayOutput::default();
                    }
                    g.packets.insert(from, packet.clone());
                }
                _ => {
                    // Duplicate setup for a dead flow: ignore (active
                    // flows were diverted to the re-setup path above).
                    self.stats.drops += 1;
                    return RelayOutput::default();
                }
            },
            Entry::Vacant(v) => {
                if at_capacity {
                    self.stats.drops += 1;
                    return RelayOutput::default();
                }
                let mut g = SetupGather {
                    first_seen: now,
                    packets: HashMap::new(),
                    flushed: false,
                };
                g.packets.insert(from, packet.clone());
                v.insert(FlowState::Gathering(g, Vec::new()));
                // Register the flow's deadlines once, at admission.
                self.wheel.schedule(
                    now.plus(self.config.setup_flush_ms),
                    Deadline::SetupFlush(flow),
                );
                self.wheel
                    .schedule(now.plus(self.config.flow_ttl_ms), Deadline::FlowExpiry(flow));
            }
        }
        // Try to establish once we *could* have enough: we don't know d'
        // until decode succeeds, so we try whenever ≥ d distinct parents
        // have delivered; `try_establish` without `force` only forwards
        // when the full parent set has arrived.
        let d = packet.header.d as usize;
        let have = match self.flows.get(&flow) {
            Some(FlowState::Gathering(g, _)) => g.packets.len(),
            _ => 0,
        };
        if have >= d {
            self.try_establish(now, flow, false)
        } else {
            RelayOutput::default()
        }
    }

    /// Attempt to decode our info and (once the parent set is complete, or
    /// on `force`) forward downstream.
    fn try_establish(&mut self, now: Tick, flow: FlowId, force: bool) -> RelayOutput {
        // Phase 1: read-only analysis of the gather (no packet clones).
        let (first_seen, decision) = {
            let Some(FlowState::Gathering(gather, _)) = self.flows.get(&flow) else {
                return RelayOutput::default();
            };
            if gather.flushed {
                return RelayOutput::default();
            }
            let Some(first) = gather.packets.values().next() else {
                return RelayOutput::default();
            };
            let d = first.header.d as usize;
            let slot_len = first.header.slot_len as usize;
            let decision = match slot_len.checked_sub(d + 4) {
                None => Establish::Failed { hard: false },
                Some(block_len) => {
                    // Decode our own info from the slot-0 slices.
                    let own: Vec<InfoSlice> = gather
                        .packets
                        .values()
                        .filter_map(|p| BuiltGraph::parse_slot(d, block_len, p.slot(0)))
                        .collect();
                    match coder::decode(&own, d) {
                        Err(_) => Establish::Failed { hard: false },
                        Ok(bytes) => match NodeInfo::decode(&bytes) {
                            Err(_) => Establish::Failed { hard: true },
                            Ok(info) => {
                                if !force && gather.packets.len() < info.d_prime as usize {
                                    // Parent set incomplete; wait for the
                                    // rest (or the timeout).
                                    Establish::Wait
                                } else {
                                    Establish::Go(Box::new(info))
                                }
                            }
                        },
                    }
                }
            };
            (gather.first_seen, decision)
        };

        // Phase 2: act, with the gather borrow released.
        match decision {
            Establish::Wait => RelayOutput::default(),
            Establish::Failed { hard } => {
                if hard || force {
                    self.stats.setup_failures += 1;
                    self.flows.insert(flow, FlowState::Dead(first_seen));
                }
                RelayOutput::default()
            }
            Establish::Go(info) => {
                // Take ownership of the gathered packets — no clone.
                let Some(FlowState::Gathering(gather, pending)) = self.flows.remove(&flow) else {
                    return RelayOutput::default();
                };
                let mut out = RelayOutput {
                    established: vec![(flow, info.receiver)],
                    ..RelayOutput::default()
                };
                out.sends = self.forward_setup(&info, &gather.packets);
                self.stats.packets_out += out.sends.len() as u64;
                self.stats.flows_established += 1;

                // Transition to Active and replay any buffered early data.
                self.reverse_index.insert(info.reverse_flow_id, flow);
                self.router.register_reverse(info.reverse_flow_id, self.index);
                let parent_count = info.parents.len();
                let has_children = !info.children.is_empty();
                let sealer = SealingKey::new(&info.secret_key);
                self.flows.insert(
                    flow,
                    FlowState::Active(Box::new(ActiveFlow {
                        info: *info,
                        sealer,
                        last_activity: now,
                        data: HashMap::new(),
                        reverse: HashMap::new(),
                        delivered: ReplayGuard::default(),
                        last_heard: vec![now; parent_count],
                        dead_parents: 0,
                        reported_dead: 0,
                        seen_failures: Vec::new(),
                        resetup: None,
                    })),
                );
                // Liveness plane: announce downstream, watch upstream.
                if self.config.keepalive_ms > 0 && has_children {
                    self.wheel.schedule(
                        now.plus(self.config.keepalive_ms),
                        Deadline::Keepalive(flow),
                    );
                }
                if self.config.liveness_timeout_ms > 0 && parent_count > 0 {
                    self.wheel.schedule(
                        now.plus(self.config.liveness_timeout_ms),
                        Deadline::LivenessCheck(flow),
                    );
                }
                for (from, p) in pending {
                    out.merge(self.handle_data(now, from, &p));
                }
                out
            }
        }
    }

    /// Build the downstream setup packets per the slice-map (§4.3.6),
    /// coding each slot in place: copy the parent's slot into the packet
    /// under construction, strip our transform layer there (§9.4(a)), or
    /// fill with random padding.
    fn forward_setup(
        &mut self,
        info: &NodeInfo,
        packets: &HashMap<OverlayAddr, Packet>,
    ) -> Vec<SendInstr> {
        // Nothing to forward for last-stage nodes — or for flows
        // (re-)established from repair setup packets, which carry no
        // downstream slices (`out_real_slots == 0`): the source delivers
        // every affected node's info directly, so forwarding would only
        // spray padding at the children.
        if info.children.is_empty() || info.out_real_slots == 0 {
            return Vec::new();
        }
        let slots_n = info.slots as usize;
        let slot_len = packets
            .values()
            .next()
            .map(|p| p.header.slot_len)
            .unwrap_or(0);
        let mut sends = Vec::with_capacity(info.children.len());
        for (j, &(child_addr, child_flow)) in info.children.iter().enumerate() {
            let mut builder = PacketBuilder::new(PacketHeader {
                kind: PacketKind::Setup,
                flow_id: child_flow,
                seq: 0,
                d: info.d,
                slot_count: slots_n as u8,
                slot_len,
            });
            for s in 0..slots_n {
                let slot = builder.slot();
                let parent_packet = info.slice_map[j][s]
                    .and_then(|idx| info.parents.get(idx as usize))
                    .and_then(|&(addr, _)| packets.get(&addr))
                    // The gather admits one shape only, but a slice-map
                    // built for a deeper graph could still point past
                    // this packet's slots; pad rather than panic.
                    .filter(|p| s + 1 < p.header.slot_count as usize);
                match parent_packet {
                    Some(p) => {
                        // Forward incoming slot s+1, stripping our
                        // transform layer (§9.4(a)).
                        slot.copy_from_slice(p.slot(s + 1));
                        info.transform.unapply(slot);
                    }
                    None => self.rng.fill_bytes(slot),
                }
            }
            sends.push(SendInstr {
                from: self.addr,
                to: child_addr,
                packet: builder.build(),
            });
        }
        sends
    }

    /// Setup slices arriving for an *established* flow: a source-side
    /// repair (§4.4.2 extended) replacing this node's neighbour lists in
    /// place. The new info must prove knowledge of the flow's secret key
    /// (and preserve the flow's identity — reverse id, `d`, `d′`,
    /// receiver flag), so only the source that built the flow can splice
    /// new routes into it; anything else is dropped and the bounded
    /// gather is reaped by a wheel deadline.
    fn handle_resetup(&mut self, now: Tick, from: OverlayAddr, packet: &Packet) -> RelayOutput {
        let flow = packet.header.flow_id;
        let RelayShard {
            flows,
            stats,
            wheel,
            config,
            ..
        } = self;
        let Some(FlowState::Active(active)) = flows.get_mut(&flow) else {
            stats.drops += 1;
            return RelayOutput::default();
        };
        let d = active.info.d as usize;
        let slot_len = packet.header.slot_len as usize;
        let slice = (packet.header.d as usize == d)
            .then(|| slot_len.checked_sub(d + 4))
            .flatten()
            .and_then(|block_len| BuiltGraph::parse_slot(d, block_len, packet.slot(0)));
        let Some(slice) = slice else {
            stats.drops += 1;
            return RelayOutput::default();
        };
        if active.resetup.is_none() {
            active.resetup = Some(ResetupGather::default());
            wheel.schedule(
                now.plus(config.setup_flush_ms),
                Deadline::ResetupExpire(flow),
            );
        }
        let gather = active.resetup.as_mut().expect("created above");
        // One coded shape per gather, bounded sender set.
        let consistent = gather
            .slices
            .values()
            .next()
            .is_none_or(|s| s.payload.len() == slice.payload.len());
        if !consistent || (gather.slices.len() >= 64 && !gather.slices.contains_key(&from)) {
            stats.drops += 1;
            return RelayOutput::default();
        }
        gather.slices.insert(from, slice);
        if gather.slices.len() < d {
            return RelayOutput::default();
        }
        let slices: Vec<InfoSlice> = gather.slices.values().cloned().collect();
        let Ok(bytes) = coder::decode(&slices, d) else {
            // Not yet decodable (dependent combination or noise): keep
            // gathering until more slices or the reaper arrive.
            return RelayOutput::default();
        };
        let Ok(new_info) = NodeInfo::decode(&bytes) else {
            active.resetup = None;
            stats.drops += 1;
            return RelayOutput::default();
        };
        // Identity only: everything else, the reverse fan-in flag
        // included, comes from the new info.
        let cur = &active.info;
        let authentic = new_info.secret_key == cur.secret_key
            && new_info.reverse_flow_id == cur.reverse_flow_id
            && new_info.d == cur.d
            && new_info.d_prime == cur.d_prime
            && new_info.receiver == cur.receiver;
        if !authentic {
            active.resetup = None;
            stats.drops += 1;
            return RelayOutput::default();
        }
        if new_info == *cur {
            // Idempotent duplicate: the leftover d′−d slices of an
            // already-applied repair (the gather completes at d) decode
            // to the same neighbour lists. Applying again would reset
            // the liveness slate for nothing — worst case masking a
            // real death for a full timeout — and over-count repairs.
            active.resetup = None;
            return RelayOutput::default();
        }
        // Splice the repaired neighbour lists into the live flow: data
        // gathers, pending seqs and the replay guard all survive; the
        // liveness slate resets so stale deadlines validate cleanly.
        active.info = new_info;
        active.resetup = None;
        active.last_heard = vec![now; active.info.parents.len()];
        active.dead_parents = 0;
        active.reported_dead = 0;
        active.last_activity = now;
        stats.flows_repaired += 1;
        if config.liveness_timeout_ms > 0 && !active.info.parents.is_empty() {
            wheel.schedule(
                now.plus(config.liveness_timeout_ms),
                Deadline::LivenessCheck(flow),
            );
        }
        RelayOutput {
            rekeyed: vec![(flow, active.info.receiver)],
            ..RelayOutput::default()
        }
    }

    // ---- control plane ---------------------------------------------------

    /// Keepalives (downstream, on forward flow ids) and failure reports
    /// (upstream, on reverse flow ids).
    fn handle_control(&mut self, now: Tick, from: OverlayAddr, packet: &Packet) -> RelayOutput {
        let mut out = RelayOutput::default();
        let Some((op, payload)) = slicing_wire::control::parse(packet) else {
            self.stats.drops += 1;
            return out;
        };
        let flow = packet.header.flow_id;
        match op {
            slicing_wire::control::KEEPALIVE => {
                let Some(FlowState::Active(active)) = self.flows.get_mut(&flow) else {
                    self.stats.drops += 1;
                    return out;
                };
                // Only the flow's own parents may vouch for themselves,
                // and the payload must carry the parent's reverse flow
                // id — a membership token a transport-level address
                // forgery does not know, so a forged keepalive cannot
                // suppress failure detection.
                let Some(idx) = active.info.parents.iter().position(|&(a, _)| a == from)
                else {
                    self.stats.drops += 1;
                    return out;
                };
                let token_ok = <[u8; 8]>::try_from(payload)
                    .is_ok_and(|b| u64::from_le_bytes(b) == active.info.parents[idx].1 .0);
                if !token_ok {
                    self.stats.drops += 1;
                    return out;
                }
                active.last_heard[idx] = now;
                active.last_activity = now;
                let was_dead = active.dead_parents & (1 << idx) != 0;
                active.revive_parent(idx);
                if was_dead && self.config.liveness_timeout_ms > 0 {
                    // The liveness heartbeat stopped re-arming when every
                    // parent was dead or the entry went stale; restart it
                    // for the revived parent.
                    self.wheel.schedule(
                        now.plus(self.config.liveness_timeout_ms),
                        Deadline::LivenessCheck(flow),
                    );
                }
            }
            slicing_wire::control::FLOW_FAILED => {
                // A downstream relay lost a neighbour; relay the sealed
                // report toward the source along the reverse path.
                let Some(&fwd) = self.reverse_index.get(&flow) else {
                    self.stats.drops += 1;
                    return out;
                };
                let RelayShard {
                    flows, stats, addr, ..
                } = self;
                let Some(FlowState::Active(active)) = flows.get_mut(&fwd) else {
                    stats.drops += 1;
                    return out;
                };
                if !active.info.children.iter().any(|&(a, _)| a == from) {
                    stats.drops += 1;
                    return out;
                }
                active.last_activity = now;
                // The d′-ary fan-in re-delivers each report d′ times;
                // forward each distinct payload once.
                let h = hash_bytes(payload);
                if active.seen_failures.contains(&h) {
                    return out;
                }
                if active.seen_failures.len() >= 32 {
                    active.seen_failures.remove(0);
                }
                active.seen_failures.push(h);
                for (pidx, &(parent_addr, parent_rev)) in
                    active.info.parents.iter().enumerate()
                {
                    if active.dead_parents & (1 << pidx) != 0 {
                        continue;
                    }
                    out.sends.push(SendInstr {
                        from: *addr,
                        to: parent_addr,
                        packet: slicing_wire::control::flow_failed(parent_rev, payload),
                    });
                }
                stats.packets_out += out.sends.len() as u64;
            }
            _ => {
                self.stats.drops += 1;
            }
        }
        out
    }

    // ---- data phase ------------------------------------------------------

    // lint: hot-path
    fn handle_data(&mut self, now: Tick, from: OverlayAddr, packet: &Packet) -> RelayOutput {
        let flow = packet.header.flow_id;
        // Reverse traffic? Map to the forward flow.
        if let Some(&fwd) = self.reverse_index.get(&flow) {
            return self.accumulate_data(now, fwd, from, packet, true);
        }
        match self.flows.get_mut(&flow) {
            Some(FlowState::Active(_)) => self.accumulate_data(now, flow, from, packet, false),
            Some(FlowState::Gathering(_, pending)) => {
                // Data raced ahead of setup; buffer a bounded amount
                // (an O(1) buffer clone — the wire bytes are shared).
                if pending.len() < self.config.max_pending_data {
                    // lint: allow(hot-path) — Packet clones share the wire Bytes buffer: O(1) refcount bump, no copy.
                    pending.push((from, packet.clone()));
                } else {
                    self.stats.drops += 1;
                }
                RelayOutput::default()
            }
            Some(FlowState::Dead(_)) | None => {
                self.stats.drops += 1;
                RelayOutput::default()
            }
        }
    }

    // lint: hot-path
    fn accumulate_data(
        &mut self,
        now: Tick,
        flow: FlowId,
        from: OverlayAddr,
        packet: &Packet,
        is_reverse: bool,
    ) -> RelayOutput {
        let seq = packet.header.seq;
        let data_flush_ms = self.config.data_flush_ms;
        let liveness_timeout_ms = self.config.liveness_timeout_ms;
        // All hot-path state updates below borrow disjoint fields
        // (`flows`, `stats`, `wheel`); nothing is cloned per packet.
        let complete = {
            let Some(FlowState::Active(active)) = self.flows.get_mut(&flow) else {
                self.stats.drops += 1;
                return RelayOutput::default();
            };
            active.last_activity = now;
            // Only the flow's own neighbours may contribute slices:
            // parents on the forward path, children on the reverse.
            // Anything else could poison the gather's shape or inflate
            // the completeness count toward a premature flush. A
            // legitimate parent also refreshes its liveness slot — and
            // revives itself if it had been declared dead (a repaired or
            // merely slow neighbour rejoins the expected set).
            if is_reverse {
                if !active.info.children.iter().any(|&(a, _)| a == from) {
                    self.stats.drops += 1;
                    return RelayOutput::default();
                }
            } else {
                let Some(idx) = active.info.parents.iter().position(|&(a, _)| a == from)
                else {
                    self.stats.drops += 1;
                    return RelayOutput::default();
                };
                active.last_heard[idx] = now;
                if active.dead_parents & (1 << idx) != 0 {
                    active.revive_parent(idx);
                    if liveness_timeout_ms > 0 {
                        self.wheel.schedule(
                            now.plus(liveness_timeout_ms),
                            Deadline::LivenessCheck(flow),
                        );
                    }
                }
            }
            // Completeness horizon. Forward: parents declared dead are
            // no longer waited for, so one churned-out neighbour does not
            // push every subsequent message into the flush timeout.
            // Reverse: only the destination speaks upstream, so its
            // parents hear one child and every stage above hears all
            // `d′` (each dest-parent forwards to every parent). The
            // flush deadline stays the fallback either way.
            let expected = if !is_reverse {
                active.live_parent_count()
            } else if active.info.dest_parent {
                1
            } else {
                active.info.children.len()
            };
            // Replay of a seq this destination already delivered: even if
            // the per-seq gather was reaped, the guard remembers.
            let already_delivered =
                !is_reverse && active.info.receiver && active.delivered.contains(seq);
            let info = &active.info;
            let d = info.d as usize;
            let gathers = if is_reverse {
                &mut active.reverse
            } else {
                &mut active.data
            };
            let gather = match gathers.entry(seq) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(v) => {
                    // First slice of this message: register its flush
                    // deadline once; the wheel will fire it if the
                    // parent set never completes.
                    self.wheel.schedule(
                        now.plus(data_flush_ms),
                        Deadline::DataFlush {
                            flow,
                            seq,
                            reverse: is_reverse,
                        },
                    );
                    v.insert(DataGather::new())
                }
            };
            if gather.flushed && (gather.delivered || already_delivered) {
                self.stats.drops += 1;
                // A replayed seq on a receiver flow means the sender
                // did not hear our delivery state: surface it so a
                // colocated destination session can re-acknowledge.
                let mut out = RelayOutput::default();
                if active.info.receiver && !is_reverse {
                    out.replayed.push((flow, seq));
                }
                return out;
            }
            if !gather.heard.insert(from) {
                // Duplicate from the same neighbour.
                self.stats.drops += 1;
                return RelayOutput::default();
            }
            let slot_len = packet.header.slot_len as usize;
            if slot_len >= d + 4 {
                for i in 0..packet.header.slot_count as usize {
                    // Retain CRC-valid slices as zero-copy views into the
                    // receive buffer (coeffs ‖ payload, CRC stripped).
                    if crc::check_crc(packet.slot(i)).is_none() {
                        continue;
                    }
                    debug_assert_eq!(
                        packet.slot(i).len(),
                        slot_len,
                        "wire slot length disagrees with header geometry"
                    );
                    let body = packet.slot_bytes(i).slice(..slot_len - 4);
                    // One coded shape per gather: a CRC-valid slot of a
                    // different length can be neither combined nor
                    // decoded with the rest, and must not reach the
                    // recombination kernels (whose shape check would
                    // panic the relay).
                    let consistent = gather
                        .slices
                        .first()
                        .is_none_or(|s| s.len() == body.len());
                    if consistent {
                        gather.origins.push(from);
                        gather.slices.push(body);
                    } else {
                        self.stats.drops += 1;
                    }
                }
            } else {
                // Malformed geometry: no slot this short can hold a
                // slice. Counted — but like a packet of pure padding, the
                // neighbour was still heard.
                self.stats.drops += 1;
            }
            gather.heard.len() >= expected
        };
        if complete {
            self.flush_data(now, flow, seq, is_reverse)
        } else {
            RelayOutput::default()
        }
    }

    /// Forward (and, at the destination, deliver) a gathered data message.
    // lint: hot-path
    fn flush_data(&mut self, _now: Tick, flow: FlowId, seq: u32, is_reverse: bool) -> RelayOutput {
        // Split the borrow: the flow entry, the stats, the RNG, the
        // regen scratch and our address are disjoint fields.
        let RelayShard {
            flows,
            stats,
            rng,
            addr,
            scratch_regen,
            ..
        } = self;
        let Some(FlowState::Active(active)) = flows.get_mut(&flow) else {
            return RelayOutput::default();
        };
        let ActiveFlow {
            info,
            sealer,
            data,
            reverse,
            delivered,
            ..
        } = &mut **active;
        let gathers = if is_reverse { reverse } else { data };
        let Some(gather) = gathers.get_mut(&seq) else {
            return RelayOutput::default();
        };
        let d = info.d as usize;
        let mut out = RelayOutput::default();

        // Destination delivery (forward direction only). The d InfoSlice
        // views are materialized once per *message*, never per packet;
        // the flow-level replay guard enforces at-most-once even after
        // this gather's state has been reaped.
        if info.receiver && !is_reverse && !gather.delivered && delivered.contains(seq) {
            // A retransmission completed a fresh gather for a seq the
            // guard already delivered (its tombstone was reaped): the
            // sender is retrying because an ack was lost.
            out.replayed.push((flow, seq));
        }
        if info.receiver
            && !is_reverse
            && !gather.delivered
            && !delivered.contains(seq)
            && gather.slices.len() >= d
        {
            let bare: Vec<InfoSlice> = gather
                .slices
                .iter()
                .filter_map(|b| InfoSlice::from_bytes(d, b.len() - d, b))
                // lint: allow(hot-path) — destination delivery: d slice views built once per *delivered message*, not per packet.
                .collect();
            if let Ok(sealed) = coder::decode(&bare, d) {
                if let Ok(plaintext) = sealer.open_owned(sealed) {
                    gather.delivered = true;
                    delivered.insert(seq);
                    stats.messages_received += 1;
                    out.received.push(ReceivedData {
                        flow,
                        seq,
                        plaintext,
                    });
                }
            }
        }

        if gather.flushed {
            return out;
        }
        gather.flushed = true;
        let origins = std::mem::take(&mut gather.origins);
        let slices = std::mem::take(&mut gather.slices);
        if slices.is_empty() {
            return out;
        }

        // Next hops: children forward, parents reverse.
        let next_hops: &[(OverlayAddr, FlowId)] = if is_reverse {
            &info.parents
        } else {
            &info.children
        };
        if next_hops.is_empty() {
            return out;
        }

        // The accumulate-side consistency check admits one coded shape
        // per gather; the recombine kernels below rely on it.
        debug_assert!(
            slices.iter().all(|s| s.len() == slices[0].len()),
            "gather slices drifted from a single coded shape"
        );
        let block_len = slices[0].len() - d;
        let slot_len = d + block_len + 4;
        // Build every outgoing packet first, filling piped slots in
        // place and remembering which slots still need a fresh
        // combination; those are then coded together through one fused
        // multi-output recombine (each gathered slice is loaded once and
        // feeds all pending accumulators, instead of one independent
        // axpy sweep per outgoing packet). Coefficient draws stay
        // output-major in hop order, so the wire bytes are identical to
        // the old per-hop `recombine_into` loop.
        let mut builders: Vec<PacketBuilder> = Vec::with_capacity(next_hops.len());
        scratch_regen.clear();
        for (j, &(_, next_flow)) in next_hops.iter().enumerate() {
            let mut builder = PacketBuilder::new(PacketHeader {
                kind: PacketKind::Data,
                flow_id: next_flow,
                seq,
                d: info.d,
                slot_count: 1,
                slot_len: slot_len as u16,
            });
            let slot = builder.slot();
            // Static data-map: pipe the designated parent's slice if it
            // survived; otherwise (or in Recode mode / on the reverse
            // path, §4.4.1 applied continuously, which also defeats
            // pattern tracking, §9.4(a)) code a fresh random combination
            // of everything gathered straight into the outgoing slot.
            let picked = if info.recode || is_reverse {
                None
            } else {
                info.data_map
                    .get(j)
                    .and_then(|&p| info.parents.get(p as usize))
                    .and_then(|&(want, _)| origins.iter().position(|&o| o == want))
            };
            match picked {
                Some(i) => slot[..d + block_len].copy_from_slice(&slices[i]),
                None => scratch_regen.push(j),
            }
            builders.push(builder);
        }
        if !scratch_regen.is_empty() {
            let mut pending = scratch_regen.iter().copied().peekable();
            let mut outs: Vec<&mut [u8]> = builders
                .iter_mut()
                .enumerate()
                .filter(|(j, _)| {
                    if pending.peek() == Some(j) {
                        pending.next();
                        true
                    } else {
                        false
                    }
                })
                .map(|(_, b)| &mut b.slot_mut(0)[..d + block_len])
                // lint: allow(hot-path) — borrow list over `builders`; cannot outlive this call, ≤ d′ entries per flushed message.
                .collect();
            recombine::recombine_multi_into(&slices, rng, &mut outs);
        }
        out.sends.reserve(next_hops.len());
        for (mut builder, &(to_addr, _)) in builders.into_iter().zip(next_hops.iter()) {
            crc::write_crc(builder.slot_mut(0));
            out.sends.push(SendInstr {
                from: *addr,
                to: to_addr,
                packet: builder.build(),
            });
        }
        stats.packets_out += out.sends.len() as u64;
        out
    }
}

/// FNV-1a over a byte string — the cheap fingerprint behind the per-flow
/// FLOW_FAILED dedup (collisions only delay a duplicate report's drop).
fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardedRelay;

    /// `counters()` must enumerate every field exactly once: the
    /// exhaustive destructuring below fails to compile when a field is
    /// added without extending the array, and the value checks catch a
    /// name wired to the wrong field.
    #[test]
    fn relay_counters_enumerate_every_field() {
        let stats = RelayStats {
            packets_in: 1,
            packets_out: 2,
            flows_established: 3,
            setup_failures: 4,
            messages_received: 5,
            drops: 6,
            flows_evicted: 7,
            garbage: 8,
            parents_lost: 9,
            flows_repaired: 10,
        };
        let names: Vec<&str> = stats.counters().iter().map(|(n, _)| *n).collect();
        let values: Vec<u64> = stats.counters().iter().map(|(_, v)| *v).collect();
        assert_eq!(values, (1..=10).collect::<Vec<u64>>());
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "counter names must be unique");
    }

    /// A reverse gather completes on the children that speak: a
    /// dest-parent flushes a reverse seq on the destination's one
    /// packet, while a relay above it keeps waiting for all `d′` of its
    /// children, until the flush deadline.
    #[test]
    fn reverse_gather_completes_on_the_children_that_speak() {
        use crate::source::SourceSession;
        use slicing_graph::{DestPlacement, GraphParams};

        let pseudo = [OverlayAddr(501), OverlayAddr(502)];
        let candidates: Vec<OverlayAddr> = (0..16).map(|i| OverlayAddr(20_000 + i)).collect();
        // The stage-1 relay under test is the dest-parent when the
        // destination sits at stage 2, and one stage further up at 3.
        for (dest_stage, dest_parent) in [(2, true), (3, false)] {
            let params = GraphParams::new(3, 2)
                .with_paths(2)
                .with_dest_placement(DestPlacement::Stage(dest_stage));
            let (source, setup) =
                SourceSession::establish(params, &pseudo, &candidates, OverlayAddr(1), 7).unwrap();
            let g = source.graph();
            let me = g.stages[1][0];
            let mut relay = ShardedRelay::new(me, 7, 1);
            for instr in setup.iter().filter(|i| i.to == me) {
                relay.handle_packet(Tick(0), instr.from, &instr.packet);
            }
            let info = relay
                .flow_info(g.flow_ids[1][0])
                .expect("established")
                .clone();
            assert_eq!(info.dest_parent, dest_parent);

            // One CRC-valid reverse slice from one child (the destination
            // itself when it is a child).
            let child = if dest_parent {
                g.dest_addr()
            } else {
                info.children[0].0
            };
            let mut builder = PacketBuilder::new(PacketHeader {
                kind: PacketKind::Data,
                flow_id: info.reverse_flow_id,
                seq: 0,
                d: 2,
                slot_count: 1,
                slot_len: 2 + 16 + 4,
            });
            builder.slot().fill(7);
            crc::write_crc(builder.slot_mut(0));
            let out = relay.handle_packet(Tick(10), child, &builder.build());

            let to_parents = |sends: &[SendInstr]| -> Vec<(OverlayAddr, FlowId)> {
                sends
                    .iter()
                    .map(|s| (s.to, s.packet.header.flow_id))
                    .collect()
            };
            if dest_parent {
                assert_eq!(to_parents(&out.sends), info.parents, "flushed on one child");
            } else {
                assert!(
                    out.sends.is_empty(),
                    "one of d′ children is not a complete gather"
                );
                let out = relay.poll(Tick(10 + RelayConfig::default().data_flush_ms));
                assert_eq!(
                    to_parents(&out.sends),
                    info.parents,
                    "the deadline still flushes"
                );
            }
        }
    }

    #[test]
    fn unknown_data_flow_dropped() {
        let mut relay = ShardedRelay::new(OverlayAddr(1), 7, 1);
        let packet = Packet::new(
            PacketHeader {
                kind: PacketKind::Data,
                flow_id: FlowId(99),
                seq: 0,
                d: 2,
                slot_count: 1,
                slot_len: 10,
            },
            vec![vec![0u8; 10]],
        );
        let out = relay.handle_packet(Tick(0), OverlayAddr(2), &packet);
        assert!(out.sends.is_empty());
        assert_eq!(relay.stats().drops, 1);
    }

    #[test]
    fn flow_limit_enforced() {
        let config = RelayConfig {
            max_flows: 2,
            ..RelayConfig::default()
        };
        let mut relay = ShardedRelay::with_config(OverlayAddr(1), 7, config, 1);
        for i in 0..5u64 {
            let packet = Packet::new(
                PacketHeader {
                    kind: PacketKind::Setup,
                    flow_id: FlowId(100 + i),
                    seq: 0,
                    d: 2,
                    slot_count: 2,
                    slot_len: 16,
                },
                vec![vec![0u8; 16], vec![0u8; 16]],
            );
            relay.handle_packet(Tick(0), OverlayAddr(2), &packet);
        }
        assert_eq!(relay.flow_count(), 2);
        assert_eq!(relay.stats().drops, 3);
    }

    #[test]
    fn garbage_setup_flow_dies_on_timeout() {
        let mut relay = ShardedRelay::new(OverlayAddr(1), 7, 1);
        // Two garbage packets from two "parents": enough to try decoding,
        // which fails (slots are noise, CRC rejects them all).
        for p in 0..2u64 {
            let packet = Packet::new(
                PacketHeader {
                    kind: PacketKind::Setup,
                    flow_id: FlowId(5),
                    seq: 0,
                    d: 2,
                    slot_count: 2,
                    slot_len: 20,
                },
                vec![vec![p as u8; 20], vec![p as u8; 20]],
            );
            relay.handle_packet(Tick(0), OverlayAddr(10 + p), &packet);
        }
        // Nothing yet (decode failed quietly, waiting for more slices).
        assert_eq!(relay.stats().setup_failures, 0);
        // Timeout forces the decision.
        relay.poll(Tick(10_000));
        assert_eq!(relay.stats().setup_failures, 1);
    }

    #[test]
    fn gc_evicts_stale_flows() {
        let config = RelayConfig {
            flow_ttl_ms: 1_000,
            ..RelayConfig::default()
        };
        let mut relay = ShardedRelay::with_config(OverlayAddr(1), 7, config, 1);
        let packet = Packet::new(
            PacketHeader {
                kind: PacketKind::Setup,
                flow_id: FlowId(5),
                seq: 0,
                d: 2,
                slot_count: 2,
                slot_len: 20,
            },
            vec![vec![1u8; 20], vec![2u8; 20]],
        );
        relay.handle_packet(Tick(0), OverlayAddr(2), &packet);
        assert_eq!(relay.flow_count(), 1);
        relay.poll(Tick(5_000));
        assert_eq!(relay.flow_count(), 0);
        assert_eq!(relay.stats().flows_evicted, 1);
    }

    #[test]
    fn mismatched_setup_shape_dropped() {
        let mut relay = ShardedRelay::new(OverlayAddr(1), 7, 1);
        let shape = |slot_len: u16, fill: u8| {
            Packet::new(
                PacketHeader {
                    kind: PacketKind::Setup,
                    flow_id: FlowId(5),
                    seq: 0,
                    d: 2,
                    slot_count: 2,
                    slot_len,
                },
                vec![vec![fill; slot_len as usize]; 2],
            )
        };
        relay.handle_packet(Tick(0), OverlayAddr(2), &shape(20, 1));
        relay.handle_packet(Tick(0), OverlayAddr(3), &shape(24, 2));
        // The second packet's geometry disagrees: dropped, not gathered.
        assert_eq!(relay.stats().drops, 1);
    }
}
