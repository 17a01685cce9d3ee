//! A deterministic mini-net for driving the session layer end to end:
//! a pool of (sharded) relays, destination nodes that are exactly what
//! `spawn_node` runs — a real relay at the destination address that
//! decodes its own setup slices, with core's [`DestHost`] beside it —
//! plus one [`SessionManager`] hosting the sources, with optional loss /
//! duplication / reordering applied to every in-flight packet — the
//! adversarial transport the chunk → reassemble round-trip tests need.

// Each test crate uses its own subset of the harness.
#![allow(dead_code)]

use std::collections::{BTreeMap, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slicing_core::{
    DestHost, DestSession, FlowId, OverlayAddr, RelayConfig, RelayOutput, SendInstr,
    SessionConfig, SessionId, SessionManager, ShardedRelay, Tick,
};

/// One overlay node: the relay engine and its destination role.
struct Node {
    relay: ShardedRelay,
    host: DestHost,
}

pub struct SessionNet {
    /// Every node by address (ordered, so runs repeat exactly).
    nodes: BTreeMap<OverlayAddr, Node>,
    /// The relay pool graphs draw their stages from.
    pub candidates: Vec<OverlayAddr>,
    pub queue: VecDeque<SendInstr>,
    pub now: Tick,
    /// Per-delivery drop probability.
    pub drop_prob: f64,
    /// Per-delivery duplication probability.
    pub dup_prob: f64,
    /// Deliver in random order instead of FIFO.
    pub shuffle: bool,
    seed: u64,
    relay_config: RelayConfig,
    session_config: SessionConfig,
    relay_shards: usize,
    rng: StdRng,
    /// Stream messages completed at destination nodes, keyed by the
    /// receiver flow they arrived on.
    pub delivered: Vec<(FlowId, u32, Vec<u8>)>,
    pub acked: Vec<(SessionId, u32)>,
    pub replies: Vec<(SessionId, u32, Vec<u8>)>,
    pub raw: Vec<(SessionId, u32, Vec<u8>)>,
}

impl SessionNet {
    pub fn new(
        relay_addrs: &[OverlayAddr],
        seed: u64,
        relay_config: RelayConfig,
        session_config: SessionConfig,
        relay_shards: usize,
    ) -> Self {
        let mut net = SessionNet {
            nodes: BTreeMap::new(),
            candidates: relay_addrs.to_vec(),
            queue: VecDeque::new(),
            now: Tick::ZERO,
            drop_prob: 0.0,
            dup_prob: 0.0,
            shuffle: false,
            seed,
            relay_config,
            session_config,
            relay_shards,
            rng: StdRng::seed_from_u64(seed ^ 0x005E_5510), // session net stream
            delivered: Vec::new(),
            acked: Vec::new(),
            replies: Vec::new(),
            raw: Vec::new(),
        };
        for &addr in relay_addrs {
            net.add_node(addr);
        }
        net
    }

    /// Bring up a node at `addr` (idempotent) — how tests place a
    /// destination outside the candidate pool.
    pub fn add_node(&mut self, addr: OverlayAddr) {
        let (seed, shards) = (self.seed, self.relay_shards);
        let (relay_config, session_config) = (self.relay_config, self.session_config);
        self.nodes.entry(addr).or_insert_with(|| {
            let relay = ShardedRelay::with_config(addr, seed, relay_config, shards);
            let host = DestHost::new(addr, session_config, seed, relay.shared_stats());
            Node { relay, host }
        });
    }

    /// The relay engine at `addr` (stats, flow table).
    pub fn relay(&self, addr: OverlayAddr) -> &ShardedRelay {
        &self.nodes[&addr].relay
    }

    /// The destination session terminating `flow`, wherever it lives.
    pub fn dest_session(&mut self, flow: FlowId) -> Option<&mut DestSession> {
        self.nodes.values_mut().find_map(|n| n.host.session_mut(flow))
    }

    /// Destination sessions across all nodes.
    pub fn dest_session_count(&self) -> usize {
        self.nodes.values().map(|n| n.host.session_count()).sum()
    }

    pub fn submit(&mut self, sends: Vec<SendInstr>) {
        self.queue.extend(sends);
    }

    /// Deliver everything queued (and whatever those deliveries spawn)
    /// under the configured perturbations, then advance virtual time by
    /// `step_ms` and poll relays + manager once.
    pub fn step(&mut self, manager: &mut SessionManager, step_ms: u64) {
        let mut iterations = 0usize;
        while !self.queue.is_empty() {
            iterations += 1;
            assert!(iterations < 1_000_000, "session net did not quiesce");
            let idx = if self.shuffle {
                self.rng.gen_range(0..self.queue.len())
            } else {
                0
            };
            let instr = self.queue.swap_remove_back(idx).expect("non-empty");
            if self.drop_prob > 0.0 && self.rng.gen::<f64>() < self.drop_prob {
                continue;
            }
            if self.dup_prob > 0.0 && self.rng.gen::<f64>() < self.dup_prob {
                self.queue.push_back(instr.clone());
            }
            self.deliver(manager, instr);
        }
        self.now = self.now.plus(step_ms);
        let now = self.now;
        for node in self.nodes.values_mut() {
            let out = node.relay.poll(now);
            Self::run_dest_role(node, now, out, true, &mut self.queue, &mut self.delivered);
        }
        let out = manager.poll(self.now);
        self.absorb(out);
    }

    fn deliver(&mut self, manager: &mut SessionManager, instr: SendInstr) {
        if let Some(node) = self.nodes.get_mut(&instr.to) {
            let out = node.relay.handle_packet(self.now, instr.from, &instr.packet);
            Self::run_dest_role(node, self.now, out, false, &mut self.queue, &mut self.delivered);
            return;
        }
        // Not a node: a manager attachment point (pseudo-source).
        // Unknown flows die here like any unroutable datagram.
        let out = manager.handle_packet(self.now, instr.to, instr.from, &instr.packet);
        self.absorb(out);
    }

    /// What a relay shard worker does with each relay output: hand it to
    /// the node's destination host, transmit, report completed messages.
    fn run_dest_role(
        node: &mut Node,
        now: Tick,
        mut out: RelayOutput,
        poll: bool,
        queue: &mut VecDeque<SendInstr>,
        delivered: &mut Vec<(FlowId, u32, Vec<u8>)>,
    ) {
        let relay = &node.relay;
        let report = node.host.drive(now, &mut out, |f| relay.flow_info(f), poll);
        for (flow, seq) in report.refused {
            node.relay.forget_delivery(flow, seq);
        }
        delivered.extend(report.messages);
        queue.extend(out.sends);
    }

    fn absorb(&mut self, out: slicing_core::SessionOutput) {
        self.queue.extend(out.sends);
        self.acked.extend(out.acked);
        self.replies.extend(out.replies);
        self.raw.extend(out.raw);
    }

    /// Run `steps` rounds of [`SessionNet::step`].
    pub fn run(&mut self, manager: &mut SessionManager, steps: usize, step_ms: u64) {
        for _ in 0..steps {
            self.step(manager, step_ms);
        }
    }
}
