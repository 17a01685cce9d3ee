//! A deterministic in-memory overlay for driving whole graphs through the
//! sans-IO engine — used by the integration tests, the churn simulator
//! (Fig. 17) and the property tests.
//!
//! Supports failure injection: nodes can be killed (they silently eat
//! packets, like a departed overlay peer) and links can drop packets with
//! a configured probability.

use std::collections::{HashMap, HashSet, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use slicing_graph::packets::SendInstr;
use slicing_graph::OverlayAddr;

use crate::relay::{ReceivedData, RelayConfig};
use crate::shard::ShardedRelay;
use crate::source::SourceSession;
use crate::time::Tick;

/// The in-memory network.
pub struct TestNet {
    /// Relay state machines by address. Hosted as [`ShardedRelay`]s so
    /// every scenario can also run with a sharded data plane (see
    /// [`TestNet::with_shards`]); the default is one shard.
    pub relays: HashMap<OverlayAddr, ShardedRelay>,
    /// Addresses that have failed (packets to them vanish).
    pub failed: HashSet<OverlayAddr>,
    /// Per-packet drop probability on every link.
    pub drop_prob: f64,
    /// In-flight packets (FIFO).
    queue: VecDeque<SendInstr>,
    /// Virtual clock.
    pub now: Tick,
    /// Messages delivered to destinations.
    pub delivered: Vec<(OverlayAddr, ReceivedData)>,
    /// Total packets transported.
    pub packets_transported: u64,
    /// Total payload bytes transported.
    pub bytes_transported: u64,
    /// Setup packets delivered per relay address — lets churn tests
    /// assert a repair re-established only the affected nodes.
    pub setup_delivered: HashMap<OverlayAddr, u64>,
    rng: StdRng,
}

impl TestNet {
    /// Create a network hosting relays at the given addresses.
    pub fn new(relay_addrs: &[OverlayAddr], seed: u64) -> Self {
        Self::with_config(relay_addrs, seed, RelayConfig::default())
    }

    /// Create with a custom relay configuration.
    pub fn with_config(relay_addrs: &[OverlayAddr], seed: u64, config: RelayConfig) -> Self {
        Self::with_shards(relay_addrs, seed, config, 1)
    }

    /// Create with every relay sharded `shards` ways — the same traffic
    /// flows through `hash(flow_id)`-routed [`crate::relay::RelayShard`]s
    /// instead of one state machine per node.
    pub fn with_shards(
        relay_addrs: &[OverlayAddr],
        seed: u64,
        config: RelayConfig,
        shards: usize,
    ) -> Self {
        let relays = relay_addrs
            .iter()
            .map(|&a| (a, ShardedRelay::with_config(a, seed, config, shards)))
            .collect();
        TestNet {
            relays,
            failed: HashSet::new(),
            drop_prob: 0.0,
            queue: VecDeque::new(),
            now: Tick::ZERO,
            delivered: Vec::new(),
            packets_transported: 0,
            bytes_transported: 0,
            setup_delivered: HashMap::new(),
            rng: StdRng::seed_from_u64(seed ^ 0xD15EA5E),
        }
    }

    /// Mark a node as failed (silent blackhole, like a churned-out peer).
    pub fn fail(&mut self, addr: OverlayAddr) {
        self.failed.insert(addr);
    }

    /// Revive a failed node (it keeps its old state, like a returning
    /// peer whose flow table survived).
    pub fn revive(&mut self, addr: OverlayAddr) {
        self.failed.remove(&addr);
    }

    /// Enqueue packets for delivery.
    pub fn submit(&mut self, sends: Vec<SendInstr>) {
        self.queue.extend(sends);
    }

    /// Deliver all queued packets (and the packets they generate) until
    /// the network is quiet. `source` receives reverse-path packets
    /// addressed to its pseudo-sources; decoded reverse messages are
    /// returned.
    pub fn run_to_quiescence(
        &mut self,
        source: Option<&mut SourceSession>,
    ) -> Vec<(u32, Vec<u8>)> {
        let mut reverse_messages = Vec::new();
        let mut source = source;
        let mut iterations = 0usize;
        while let Some(instr) = self.queue.pop_front() {
            iterations += 1;
            assert!(
                iterations < 10_000_000,
                "testnet did not quiesce; routing loop?"
            );
            if self.failed.contains(&instr.to) || self.failed.contains(&instr.from) {
                continue;
            }
            if self.drop_prob > 0.0 && self.rng.gen::<f64>() < self.drop_prob {
                continue;
            }
            self.packets_transported += 1;
            self.bytes_transported += instr.packet.encode().len() as u64;

            // Pseudo-source delivery (reverse path).
            if let Some(src) = source.as_deref_mut() {
                if src.pseudo_sources().contains(&instr.to) {
                    if let Some(msg) =
                        src.handle_packet(self.now, instr.to, instr.from, &instr.packet)
                    {
                        reverse_messages.push(msg);
                    }
                    continue;
                }
            }
            let Some(relay) = self.relays.get_mut(&instr.to) else {
                continue;
            };
            if instr.packet.header.kind == slicing_wire::PacketKind::Setup {
                *self.setup_delivered.entry(instr.to).or_insert(0) += 1;
            }
            let out = relay.handle_packet(self.now, instr.from, &instr.packet);
            for r in out.received {
                self.delivered.push((instr.to, r));
            }
            self.queue.extend(out.sends);
        }
        reverse_messages
    }

    /// Advance virtual time and poll every live relay (fires timeouts).
    pub fn advance(&mut self, ms: u64) {
        self.now = self.now.plus(ms);
        let addrs: Vec<OverlayAddr> = self.relays.keys().copied().collect();
        for addr in addrs {
            if self.failed.contains(&addr) {
                continue;
            }
            let out = self.relays.get_mut(&addr).unwrap().poll(self.now);
            for r in out.received {
                self.delivered.push((addr, r));
            }
            self.queue.extend(out.sends);
        }
    }

    /// Advance + run repeatedly until both the queue and the timers are
    /// exhausted (used after failures, when timeouts must fire). Returns
    /// any reverse-path messages decoded by the source along the way.
    ///
    /// When a source is supplied, its periodic work
    /// ([`SourceSession::poll`] — keepalives to the stage-1 relays) runs
    /// on every step, exactly as a live driver would run it.
    pub fn settle(
        &mut self,
        mut source: Option<&mut SourceSession>,
        step_ms: u64,
        steps: usize,
    ) -> Vec<(u32, Vec<u8>)> {
        let mut reverse = Vec::new();
        for _ in 0..steps {
            reverse.extend(self.run_to_quiescence(source.as_deref_mut()));
            self.advance(step_ms);
            if let Some(src) = source.as_deref_mut() {
                let sends = src.poll(self.now);
                self.submit(sends);
            }
        }
        reverse.extend(self.run_to_quiescence(source));
        reverse
    }

    /// Plaintexts delivered to a given destination address, in seq order.
    pub fn messages_for(&self, addr: OverlayAddr) -> Vec<(u32, Vec<u8>)> {
        let mut v: Vec<(u32, Vec<u8>)> = self
            .delivered
            .iter()
            .filter(|(a, _)| *a == addr)
            .map(|(_, r)| (r.seq, r.plaintext.clone()))
            .collect();
        v.sort();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{DestSession, SessionConfig};
    use slicing_graph::{DataMode, DestPlacement, GraphParams};

    fn addrs(base: u64, n: usize) -> Vec<OverlayAddr> {
        (0..n as u64).map(|i| OverlayAddr(base + i)).collect()
    }

    /// Full end-to-end: establish a graph, send a message, verify only
    /// the destination decodes it — with every relay sharded `shards`
    /// ways (1 = the classic single state machine per node).
    fn end_to_end_sharded(l: usize, d: usize, dp: usize, mode: DataMode, seed: u64, shards: usize) {
        let pseudo = addrs(10_000, dp);
        let candidates = addrs(20_000, l * dp + 10);
        let dest = OverlayAddr(1);
        let mut all_nodes = candidates.clone();
        all_nodes.push(dest);
        let params = GraphParams::new(l, d)
            .with_paths(dp)
            .with_data_mode(mode);
        let (mut source, setup) =
            SourceSession::establish(params, &pseudo, &candidates, dest, seed).unwrap();
        let mut net = TestNet::with_shards(&all_nodes, seed, RelayConfig::default(), shards);
        net.submit(setup);
        net.run_to_quiescence(Some(&mut source));

        let (_, sends) = source.send_message(b"Let's meet at 5pm").expect("within chunk budget");
        net.submit(sends);
        net.run_to_quiescence(Some(&mut source));

        let got = net.messages_for(dest);
        assert_eq!(got.len(), 1, "destination must decode exactly one message");
        assert_eq!(got[0].1, b"Let's meet at 5pm");
        // No other relay decoded anything.
        assert!(net.delivered.iter().all(|(a, _)| *a == dest));
    }

    fn end_to_end(l: usize, d: usize, dp: usize, mode: DataMode, seed: u64) {
        end_to_end_sharded(l, d, dp, mode, seed, 1);
    }

    #[test]
    fn end_to_end_recode_small() {
        end_to_end(3, 2, 2, DataMode::Recode, 1);
    }

    #[test]
    fn end_to_end_sharded_relays() {
        // The identical scenario through 8-way sharded relays: flow-id
        // routing must not change what arrives where.
        end_to_end_sharded(3, 2, 2, DataMode::Recode, 1, 8);
        end_to_end_sharded(5, 2, 3, DataMode::Recode, 2, 4);
        end_to_end_sharded(4, 2, 3, DataMode::Map, 3, 8);
    }

    /// A CRC-valid data slot whose length disagrees with the flow's must
    /// not panic the relay's recombination path nor corrupt delivery.
    #[test]
    fn malformed_slot_length_does_not_poison_flow() {
        use slicing_wire::{crc, Packet, PacketHeader, PacketKind};

        let (l, d, dp) = (3usize, 2usize, 2usize);
        let pseudo = addrs(10_000, dp);
        let candidates = addrs(20_000, l * dp + 10);
        let dest = OverlayAddr(1);
        let mut all_nodes = candidates.clone();
        all_nodes.push(dest);
        let params = GraphParams::new(l, d).with_paths(dp);
        let (mut source, setup) =
            SourceSession::establish(params, &pseudo, &candidates, dest, 2).unwrap();
        let mut net = TestNet::new(&all_nodes, 2);
        net.submit(setup);
        net.run_to_quiescence(Some(&mut source));

        // Legitimate message alongside a forged, CRC-valid slot of the
        // wrong length injected into a stage-1 relay for seq 0.
        let (seq, sends) = source.send_message(b"survives forgery").expect("within chunk budget");
        let target = source.graph().stages[1][0];
        let target_flow = source.graph().flow_ids[1][0];
        let bogus_block = 7usize; // flow's real block length differs
        let mut slot = vec![0xEEu8; d + bogus_block];
        crc::append_crc(&mut slot);
        let forged = Packet::new(
            PacketHeader {
                kind: PacketKind::Data,
                flow_id: target_flow,
                seq,
                d: d as u8,
                slot_count: 1,
                slot_len: slot.len() as u16,
            },
            vec![slot],
        );
        net.submit(vec![SendInstr {
            from: OverlayAddr(666),
            to: target,
            packet: forged,
        }]);
        net.submit(sends);
        net.run_to_quiescence(Some(&mut source));
        net.settle(Some(&mut source), 1_500, 6);

        let got = net.messages_for(dest);
        assert_eq!(got.len(), 1, "message must survive the forged slot");
        assert_eq!(got[0].1, b"survives forgery");
    }

    #[test]
    fn end_to_end_recode_redundant() {
        end_to_end(5, 2, 3, DataMode::Recode, 2);
    }

    #[test]
    fn end_to_end_map_mode() {
        end_to_end(4, 2, 3, DataMode::Map, 3);
    }

    #[test]
    fn end_to_end_bigger_graph() {
        end_to_end(8, 3, 3, DataMode::Recode, 4);
    }

    #[test]
    fn survives_single_relay_failure_with_redundancy() {
        let (l, d, dp) = (5usize, 2usize, 3usize);
        let pseudo = addrs(10_000, dp);
        let candidates = addrs(20_000, l * dp + 10);
        let dest = OverlayAddr(1);
        let mut all_nodes = candidates.clone();
        all_nodes.push(dest);
        let params = GraphParams::new(l, d)
            .with_paths(dp)
            .with_dest_placement(DestPlacement::LastStage);
        let (mut source, setup) =
            SourceSession::establish(params, &pseudo, &candidates, dest, 5).unwrap();
        let mut net = TestNet::new(&all_nodes, 5);
        net.submit(setup);
        net.run_to_quiescence(Some(&mut source));

        // Kill one non-destination relay in stage 2.
        let victim = source.graph().stages[2][0];
        assert_ne!(victim, dest);
        net.fail(victim);

        let (_, sends) = source.send_message(b"resilient").expect("within chunk budget");
        net.submit(sends);
        // Failures leave gathers waiting on the dead parent; let the data
        // flush timeout fire.
        net.settle(Some(&mut source), 1_500, 8);

        let got = net.messages_for(dest);
        assert_eq!(got.len(), 1, "message must survive one relay failure");
        assert_eq!(got[0].1, b"resilient");
    }

    #[test]
    fn reverse_path_delivers_to_source() {
        reverse_path_sharded(1);
    }

    #[test]
    fn reverse_path_delivers_to_source_sharded() {
        // Reverse packets arrive under the flow's *reverse* id, which
        // hashes to an arbitrary shard — delivery proves the router's
        // reverse-id registrations steer them to the owning shard.
        reverse_path_sharded(8);
    }

    fn reverse_path_sharded(shards: usize) {
        let (l, d, dp) = (4usize, 2usize, 2usize);
        let pseudo = addrs(10_000, dp);
        let candidates = addrs(20_000, l * dp + 10);
        let dest = OverlayAddr(1);
        let mut all_nodes = candidates.clone();
        all_nodes.push(dest);
        let params = GraphParams::new(l, d).with_paths(dp);
        let (mut source, setup) =
            SourceSession::establish(params, &pseudo, &candidates, dest, 6).unwrap();
        let mut net = TestNet::with_shards(&all_nodes, 6, RelayConfig::default(), shards);
        net.submit(setup);
        net.run_to_quiescence(Some(&mut source));

        // Destination responds over the reverse path, from the flow info
        // its relay decoded out of the setup slices.
        let dest_flow = source.graph().flow_ids[source.graph().dest.stage]
            [source.graph().dest.index];
        let info = net.relays[&dest]
            .flow_info(dest_flow)
            .expect("destination established")
            .clone();
        let mut session = DestSession::new(dest, dest_flow, info, SessionConfig::default(), 6);
        let (reply_id, sends) = session.reply(Tick(0), b"pong").expect("within reply budget");
        net.submit(sends);
        // First-hop reverse relays wait for their full child set, which
        // only the timeout resolves (the destination is one child).
        net.settle(Some(&mut source), 1_500, 6);
        assert_eq!(source.pop_replies(), vec![(reply_id, b"pong".to_vec())]);
    }

    #[test]
    fn lossy_network_fails_gracefully() {
        // With 100% loss nothing is delivered and nothing panics.
        let (l, d, dp) = (3usize, 2usize, 2usize);
        let pseudo = addrs(10_000, dp);
        let candidates = addrs(20_000, 20);
        let dest = OverlayAddr(1);
        let mut all = candidates.clone();
        all.push(dest);
        let (mut source, setup) = SourceSession::establish(
            GraphParams::new(l, d),
            &pseudo,
            &candidates,
            dest,
            8,
        )
        .unwrap();
        let mut net = TestNet::new(&all, 8);
        net.drop_prob = 1.0;
        net.submit(setup);
        net.run_to_quiescence(Some(&mut source));
        assert!(net.delivered.is_empty());
        assert_eq!(net.packets_transported, 0);
    }
}
