//! Emission of the setup packets the source-stage nodes send (§4.3.4).
//!
//! Each pseudo-source sends one packet to each stage-1 relay. Slot 0 is
//! the relay's own info slice (clean); slot `s ≥ 1` carries the info slice
//! of the unique stage-`(1+s)` target routed through this
//! (pseudo-source, stage-1 relay) edge, wrapped in the per-hop transform
//! chain of the relays that will forward it (§9.4(a)). Every slot carries
//! a trailing CRC-32 so the final consumer can tell real slices from the
//! random padding that replaces slices lost to failed parents.

use slicing_codec::transform;
use slicing_codec::InfoSlice;
use slicing_wire::{crc, Packet, PacketBuilder, PacketHeader, PacketKind};

use crate::addr::OverlayAddr;
use crate::build::{Blueprint, BuiltGraph};

/// One packet to hand to the network: send `packet` from `from` to `to`.
#[derive(Clone, Debug)]
pub struct SendInstr {
    /// Originating address (a pseudo-source for setup packets).
    pub from: OverlayAddr,
    /// Next-hop address.
    pub to: OverlayAddr,
    /// The wire packet.
    pub packet: Packet,
}

impl Blueprint {
    /// Slot length of the graph's setup packets
    /// (`d` coefficients + info block + CRC-32).
    pub fn setup_slot_len(&self, graph: &BuiltGraph) -> usize {
        graph.params.split + self.info_block_len + 4
    }

    /// Wrap a slice for its journey directly into a packet slot: write
    /// `coeffs ‖ payload`, seal with the CRC, then apply the transform
    /// chain of the relays at stages `1..target_stage` on its path — all
    /// in place.
    ///
    /// # Panics
    /// Panics if `out` is not exactly [`Self::setup_slot_len`] bytes.
    fn wrap_slice_into(
        &self,
        graph: &BuiltGraph,
        target_stage: usize,
        x: usize,
        k: usize,
        out: &mut [u8],
    ) {
        let slice = &self.info_slices[target_stage][x][k];
        let d = slice.coeffs.len();
        assert_eq!(out.len(), d + slice.payload.len() + 4, "slot length");
        out[..d].copy_from_slice(&slice.coeffs);
        out[d..d + slice.payload.len()].copy_from_slice(&slice.payload);
        crc::write_crc(out);
        // Forwarding relays: stages 1..target_stage on this slice's path.
        let chain: Vec<_> = (1..target_stage)
            .map(|m| {
                let holder = graph.holders.holder(target_stage, x, k, m);
                graph.transforms[m][holder]
            })
            .collect();
        transform::apply_chain(&chain, out);
    }

    /// Produce every setup packet of `graph` (one per pseudo-source →
    /// stage-1 relay edge, `d′²` in total). Every slot is real: slot 0
    /// carries the stage-1 relay's own slice, slot `s` one slice of a
    /// stage-`(1+s)` relay.
    pub fn setup_packets(&self, graph: &BuiltGraph) -> Vec<SendInstr> {
        let dp = graph.params.paths;
        let l_len = graph.params.length;
        let slot_len = self.setup_slot_len(graph);
        let holders = &graph.holders;
        let mut out = Vec::with_capacity(dp * dp);
        for i in 0..dp {
            for v in 0..dp {
                let mut builder = PacketBuilder::new(PacketHeader {
                    kind: PacketKind::Setup,
                    flow_id: graph.flow_ids[1][v],
                    seq: 0,
                    d: graph.params.split as u8,
                    slot_count: l_len as u8,
                    slot_len: slot_len as u16,
                });
                // Slot 0: v's own slice, via pseudo-source i.
                let k_own = (0..dp)
                    .find(|&k| holders.holder(1, v, k, 0) == i)
                    .expect("own-slice permutation");
                self.wrap_slice_into(graph, 1, v, k_own, builder.slot());
                // Slots 1..L-1: one slice per downstream stage.
                for s in 1..l_len {
                    let target_stage = 1 + s;
                    let mut filled = None;
                    for x in 0..dp {
                        for k in 0..dp {
                            if holders.holder(target_stage, x, k, 0) == i
                                && holders.holder(target_stage, x, k, 1) == v
                            {
                                assert!(filled.is_none(), "balance violated");
                                filled = Some((target_stage, x, k));
                            }
                        }
                    }
                    let (ts, x, k) = filled.expect("balance violated: empty first-hop slot");
                    self.wrap_slice_into(graph, ts, x, k, builder.slot());
                }
                out.push(SendInstr {
                    from: graph.stages[0][i],
                    to: graph.stages[1][v],
                    packet: builder.build(),
                });
            }
        }
        out
    }
}

impl BuiltGraph {
    /// Parse a clean (unwrapped, CRC-checked) slot into an [`InfoSlice`].
    ///
    /// Returns `None` for padding or corrupted slots.
    pub fn parse_slot(d: usize, block_len: usize, slot: &[u8]) -> Option<InfoSlice> {
        let payload = crc::check_crc(slot)?;
        InfoSlice::from_bytes(d, block_len, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build;
    use crate::params::GraphParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graph(l: usize, d: usize, dp: usize) -> (BuiltGraph, Blueprint) {
        let mut rng = StdRng::seed_from_u64(21);
        let pseudo: Vec<OverlayAddr> = (0..dp as u64).map(|i| OverlayAddr(10_000 + i)).collect();
        let candidates: Vec<OverlayAddr> =
            (0..(l * dp + 5) as u64).map(|i| OverlayAddr(20_000 + i)).collect();
        build(
            GraphParams::new(l, d).with_paths(dp),
            &pseudo,
            &candidates,
            OverlayAddr(1),
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn emits_dp_squared_packets() {
        let (g, bp) = graph(4, 2, 3);
        let packets = bp.setup_packets(&g);
        assert_eq!(packets.len(), 9);
        for p in &packets {
            assert_eq!(p.packet.header.slot_count, 4);
            assert_eq!(p.packet.header.kind, PacketKind::Setup);
            assert_eq!(p.packet.header.slot_len as usize, bp.setup_slot_len(&g));
        }
    }

    #[test]
    fn all_packets_same_size() {
        let (g, bp) = graph(5, 2, 2);
        let packets = bp.setup_packets(&g);
        let len = packets[0].packet.encode().len();
        assert!(packets.iter().all(|p| p.packet.encode().len() == len));
    }

    #[test]
    fn stage1_slot0_is_clean_and_decodable() {
        let (g, bp) = graph(4, 2, 3);
        let packets = bp.setup_packets(&g);
        // Gather the slot-0 slices per stage-1 relay, decode their info.
        for v in 0..3usize {
            let relay_addr = g.stages[1][v];
            let slices: Vec<_> = packets
                .iter()
                .filter(|p| p.to == relay_addr)
                .map(|p| {
                    BuiltGraph::parse_slot(2, bp.info_block_len, p.packet.slot(0))
                        .expect("slot 0 must be clean")
                })
                .collect();
            assert_eq!(slices.len(), 3);
            let bytes = slicing_codec::decode(&slices, 2).unwrap();
            let info = crate::info::NodeInfo::decode(&bytes).unwrap();
            assert_eq!(&info, &bp.infos[1][v]);
        }
    }

    #[test]
    fn downstream_slots_are_wrapped() {
        // Slices for stage >= 2 targets must NOT parse before unwrapping
        // (the CRC check fails on wrapped bytes).
        let (g, bp) = graph(4, 2, 2);
        let packets = bp.setup_packets(&g);
        let mut wrapped = 0;
        for p in &packets {
            for slot in p.packet.slots().skip(1) {
                if BuiltGraph::parse_slot(2, bp.info_block_len, slot).is_none() {
                    wrapped += 1;
                }
            }
        }
        // All downstream slots are transform-wrapped.
        assert_eq!(wrapped, packets.len() * 3);
    }

    #[test]
    fn wrapped_slice_unwraps_along_path() {
        let (g, bp) = graph(4, 2, 2);
        // Take the stage-3 target (x=0, k=0): wrap then manually strip the
        // relays' transforms in path order; must parse and contribute to
        // decoding at the end.
        let (l, x, k) = (3usize, 0usize, 0usize);
        let mut bytes = vec![0u8; bp.setup_slot_len(&g)];
        bp.wrap_slice_into(&g, l, x, k, &mut bytes);
        for m in 1..l {
            let holder = g.holders.holder(l, x, k, m);
            g.transforms[m][holder].unapply(&mut bytes);
        }
        let slice = BuiltGraph::parse_slot(2, bp.info_block_len, &bytes).unwrap();
        assert_eq!(&slice, &bp.info_slices[l][x][k]);
    }
}
