//! Sharding the relay data plane across cores.
//!
//! The paper's relays carry many concurrent flows (§7's multi-flow
//! throughput experiments), and flows are independent by construction:
//! a flow's gathers, timers and per-hop state never reference another
//! flow. [`ShardedRelay`] exploits that by splitting one relay into `N`
//! [`RelayShard`]s and routing every packet by its cleartext flow id —
//! `hash(flow_id) % N` — so each shard owns a disjoint flow set and the
//! packet path crosses no locks.
//!
//! Two pieces of state span shards:
//!
//! * **Stats** — each shard counts locally and folds deltas into one
//!   [`RelayStatsAtomic`] (see [`RelayShard::publish_stats`]).
//! * **Reverse flow ids** — reverse-path packets arrive under the
//!   flow's *reverse* id, which hashes to an arbitrary shard. The
//!   [`FlowRouter`] keeps a reverse-id → shard map, written only at flow
//!   establishment and eviction (never at packet rate) and consulted by
//!   the router before falling back to the hash. A reverse packet that
//!   races ahead of its flow's registration is dropped exactly as it
//!   would have been by a single-shard relay that had not yet
//!   established the flow.
//!
//! `max_flows` becomes a per-shard quota: [`ShardedRelay::with_config`]
//! divides the node budget across shards, so the resource-exhaustion
//! guard needs no cross-shard coordination.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use slicing_graph::info::NodeInfo;
use slicing_graph::OverlayAddr;
use slicing_wire::{FlowId, Packet};

use crate::relay::{RelayConfig, RelayOutput, RelayShard, RelayStats, RelayStatsAtomic};
use crate::time::Tick;

/// Routes packets to shards by flow id.
///
/// Cloneable and cheap to share: the node runtime hands one clone to
/// each ingress task while the shards themselves (each holding another
/// clone for reverse-id registration) move into their worker tasks.
#[derive(Clone, Debug)]
pub struct FlowRouter {
    shards: usize,
    /// Reverse flow-id → owning shard. Written at establishment and
    /// eviction only; read per reverse-capable routing decision.
    reverse: Arc<RwLock<HashMap<FlowId, usize>>>,
}

impl FlowRouter {
    /// A router over `shards` shards.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a relay needs at least one shard");
        FlowRouter {
            shards,
            reverse: Arc::new(RwLock::new(HashMap::new())),
        }
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard that owns `flow`: a registered reverse id routes to the
    /// shard holding its forward flow, anything else by hash.
    pub fn route(&self, flow: FlowId) -> usize {
        if self.shards == 1 {
            return 0;
        }
        if let Some(&idx) = self.reverse.read().unwrap().get(&flow) {
            return idx;
        }
        self.hash_route(flow)
    }

    /// The hash route ignoring reverse registrations (Fibonacci hashing
    /// over the high bits — flow ids are uniform random u64s, but cheap
    /// mixing keeps adversarially chosen ids from pinning one shard).
    fn hash_route(&self, flow: FlowId) -> usize {
        ((flow.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % self.shards
    }

    /// Record that `shard` established the flow whose reverse id is
    /// `rev` (called by [`RelayShard`]; no-op for single-shard relays).
    pub(crate) fn register_reverse(&self, rev: FlowId, shard: usize) {
        if self.shards > 1 {
            self.reverse.write().unwrap().insert(rev, shard);
        }
    }

    /// Drop a reverse-id registration at flow eviction — only if it
    /// still points at the evicting shard (a colliding id re-registered
    /// by another shard must survive).
    pub(crate) fn unregister_reverse(&self, rev: FlowId, shard: usize) {
        if self.shards > 1 {
            let mut map = self.reverse.write().unwrap();
            if map.get(&rev) == Some(&shard) {
                map.remove(&rev);
            }
        }
    }
}

/// A relay fanned out over `N` independent [`RelayShard`]s, routed by
/// flow id.
///
/// The one public relay type. The synchronous `&mut self` front drives
/// the deterministic test network and the benches; with one shard the
/// router short-circuits, so `ShardedRelay::new(addr, seed, 1)` is the
/// bare engine. [`ShardedRelay::into_parts`] splits ownership for the
/// async runtime: each shard moves into its own worker task and the
/// [`FlowRouter`] moves into the ingress dispatcher.
pub struct ShardedRelay {
    addr: OverlayAddr,
    shards: Vec<RelayShard>,
    router: FlowRouter,
    shared: Arc<RelayStatsAtomic>,
}

impl ShardedRelay {
    /// Create a relay with `shards` shards and default configuration.
    pub fn new(addr: OverlayAddr, seed: u64, shards: usize) -> Self {
        Self::with_config(addr, seed, RelayConfig::default(), shards)
    }

    /// Create with explicit configuration. `config.max_flows` is the
    /// whole node's budget; each shard gets an equal share (rounded up),
    /// making the exhaustion guard a per-shard quota.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn with_config(addr: OverlayAddr, seed: u64, config: RelayConfig, shards: usize) -> Self {
        let router = FlowRouter::new(shards);
        let shared = Arc::new(RelayStatsAtomic::default());
        let per_shard = RelayConfig {
            max_flows: config.max_flows.div_ceil(shards).max(1),
            ..config
        };
        let shards = (0..shards)
            .map(|i| {
                RelayShard::new(
                    addr,
                    seed,
                    per_shard,
                    i,
                    router.clone(),
                    Arc::clone(&shared),
                )
            })
            .collect();
        ShardedRelay {
            addr,
            shards,
            router,
            shared,
        }
    }

    /// This node's address.
    pub fn addr(&self) -> OverlayAddr {
        self.addr
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The router (exposed so drivers can pre-partition work the way
    /// the ingress dispatcher would).
    pub fn router(&self) -> &FlowRouter {
        &self.router
    }

    /// Relay-wide counters: the sum of every shard's local counters,
    /// plus the two counters the I/O layer records straight into the
    /// shared cell (wire-garbage and ingress load-shedding drops).
    /// While the front owns its shards nothing folds shard locals into
    /// the cell, so the cell holds exactly the I/O-recorded part and
    /// this sum double-counts nothing.
    pub fn stats(&self) -> RelayStats {
        let io = self.shared.snapshot();
        let mut total = RelayStats {
            garbage: io.garbage,
            drops: io.drops,
            ..RelayStats::default()
        };
        for s in &self.shards {
            total.add(&s.stats());
        }
        total
    }

    /// The shared atomic stats (complete only after
    /// [`RelayShard::publish_stats`]; the synchronous [`stats`] is exact).
    ///
    /// [`stats`]: ShardedRelay::stats
    pub fn shared_stats(&self) -> Arc<RelayStatsAtomic> {
        Arc::clone(&self.shared)
    }

    /// Live flows across all shards.
    pub fn flow_count(&self) -> usize {
        self.shards.iter().map(|s| s.flow_count()).sum()
    }

    /// Pending timer-wheel entries across all shards (tests and
    /// diagnostics).
    pub fn pending_deadlines(&self) -> usize {
        self.shards.iter().map(|s| s.pending_deadlines()).sum()
    }

    /// The decoded info of an established flow, if any.
    pub fn flow_info(&self, flow: FlowId) -> Option<&NodeInfo> {
        self.shards[self.router.route(flow)].flow_info(flow)
    }

    /// Forget a delivery its consumer refused; see
    /// [`RelayShard::forget_delivery`].
    pub fn forget_delivery(&mut self, flow: FlowId, seq: u32) {
        let idx = self.router.route(flow);
        self.shards[idx].forget_delivery(flow, seq);
    }

    /// Feed one packet to the shard owning its flow.
    pub fn handle_packet(&mut self, now: Tick, from: OverlayAddr, packet: &Packet) -> RelayOutput {
        let idx = self.router.route(packet.header.flow_id);
        self.shards[idx].handle_packet(now, from, packet)
    }

    /// Drive timeouts on every shard (each shard pops only its own
    /// expired deadlines).
    pub fn poll(&mut self, now: Tick) -> RelayOutput {
        let mut out = RelayOutput::default();
        for s in &mut self.shards {
            out.merge(s.poll(now));
        }
        out
    }

    /// Split into the pieces the async runtime owns separately: the
    /// shards (one per worker task), the router (for the ingress
    /// dispatcher) and the shared stats.
    pub fn into_parts(self) -> (Vec<RelayShard>, FlowRouter, Arc<RelayStatsAtomic>) {
        (self.shards, self.router, self.shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_is_stable_and_in_range() {
        let r = FlowRouter::new(8);
        for i in 0..1000u64 {
            let f = FlowId(i.wrapping_mul(0x1234_5678_9ABC_DEF1));
            let idx = r.route(f);
            assert!(idx < 8);
            assert_eq!(idx, r.route(f), "routing must be deterministic");
        }
    }

    #[test]
    fn router_spreads_flows() {
        let r = FlowRouter::new(8);
        let mut counts = [0usize; 8];
        for i in 0..8000u64 {
            // Uniform-ish ids, as FlowId::random produces.
            counts[r.route(FlowId(i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)))] += 1;
        }
        for &c in &counts {
            assert!(c > 500, "shard starved: {counts:?}");
        }
    }

    #[test]
    fn reverse_registration_overrides_hash() {
        let r = FlowRouter::new(8);
        let rev = FlowId(0xDEAD_BEEF);
        let natural = r.route(rev);
        let target = (natural + 3) % 8;
        r.register_reverse(rev, target);
        assert_eq!(r.route(rev), target);
        // Unregister by the wrong shard is a no-op; by the right one
        // restores hash routing.
        r.unregister_reverse(rev, (target + 1) % 8);
        assert_eq!(r.route(rev), target);
        r.unregister_reverse(rev, target);
        assert_eq!(r.route(rev), natural);
    }

    #[test]
    fn single_shard_router_never_locks_registrations() {
        let r = FlowRouter::new(1);
        r.register_reverse(FlowId(7), 0);
        assert_eq!(r.route(FlowId(7)), 0);
        assert!(r.reverse.read().unwrap().is_empty(), "N=1 skips the map");
    }

    #[test]
    fn max_flows_becomes_per_shard_quota() {
        let cfg = RelayConfig {
            max_flows: 10,
            ..RelayConfig::default()
        };
        let relay = ShardedRelay::with_config(OverlayAddr(1), 7, cfg, 4);
        // ceil(10 / 4) = 3 per shard; total capacity 12 ≥ the node
        // budget, enforced without cross-shard coordination.
        assert_eq!(relay.shard_count(), 4);
    }
}
