//! Per-node information `I_x` (§4.3.1) and its fixed-size serialization.
//!
//! `I_x` is everything a relay needs to participate in a flow:
//! next-hop addresses and flow-ids, the receiver and reverse fan-in
//! flags, a symmetric secret key, the slice-map (§4.3.6), the data-map
//! (§4.3.7), the expected parent set (with reverse flow-ids for
//! §4.3.7's reverse path) and the per-hop transform it must strip from
//! forwarded slices (§9.4(a)).
//!
//! The encoding is **fixed-size for a given `(L, d′)`** — relays at
//! different stages produce identical-length blobs (absent children are
//! zeroed) so all setup slices, and therefore all setup packets, are the
//! same size (§9.4(c)).

use slicing_codec::HopTransform;
use slicing_crypto::sha256::Sha256;
use slicing_crypto::SymmetricKey;
use slicing_wire::FlowId;

use crate::addr::OverlayAddr;

/// Sentinel parent index meaning "random padding" in the slice-map.
pub const SLICE_MAP_RAND: u8 = 0xFF;

/// One slice-map routing entry: fill `out slot` of the packet to child
/// `child` with the slice that arrived from parent `parent` (at incoming
/// slot `out_slot + 1`; the offset is fixed by the slot convention).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SliceMapEntry {
    /// Child index this entry applies to.
    pub child: u8,
    /// Outgoing slot.
    pub out_slot: u8,
    /// Parent index the slice comes from.
    pub parent: u8,
}

/// The per-node information `I_x` (§4.3.1).
#[derive(Clone, Debug, PartialEq)]
pub struct NodeInfo {
    /// Receiver flag: is this node the intended destination?
    pub receiver: bool,
    /// Reverse fan-in flag: one of this node's children is the
    /// destination (this node sits at `dest_stage − 1`). Only the
    /// destination speaks upstream (§4.3.7), so a reverse gather here is
    /// complete on the first child's packet; every stage above hears all
    /// `d′` children. Which child is the destination is not said.
    pub dest_parent: bool,
    /// Data-phase discipline: `true` = recode at every hop
    /// ([`DataMode::Recode`]), `false` = static data-map.
    ///
    /// [`DataMode::Recode`]: crate::params::DataMode::Recode
    pub recode: bool,
    /// Symmetric secret key for this node.
    pub secret_key: SymmetricKey,
    /// Flow-id on which this node receives *reverse-path* data (§4.3.7).
    pub reverse_flow_id: FlowId,
    /// Split factor `d`.
    pub d: u8,
    /// Path count `d′`.
    pub d_prime: u8,
    /// Slot count per packet (the graph's `L`).
    pub slots: u8,
    /// Number of real (non-padding) slots in this node's outgoing setup
    /// packets (`L − stage`; 0 for the last stage).
    pub out_real_slots: u8,
    /// The transform this node strips from every forwarded slice.
    pub transform: HopTransform,
    /// Expected parents (`d′` of them) with their reverse flow-ids.
    pub parents: Vec<(OverlayAddr, FlowId)>,
    /// Children with their (forward) flow-ids; empty at the last stage.
    pub children: Vec<(OverlayAddr, FlowId)>,
    /// Data-map (used in [`DataMode::Map`]): for child `j`, forward the
    /// data slice received from parent `data_map[j]`.
    ///
    /// [`DataMode::Map`]: crate::params::DataMode::Map
    pub data_map: Vec<u8>,
    /// Slice-map: `slice_map[child][out_slot]` = parent index, or `None`
    /// for random padding.
    pub slice_map: Vec<Vec<Option<u8>>>,
}

/// Serialization failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InfoError {
    /// Wrong length for the declared `(L, d′)`.
    BadLength,
    /// Unknown version byte.
    BadVersion,
    /// Checksum mismatch (corrupted or mis-decoded slices).
    BadChecksum,
    /// Fields are internally inconsistent.
    Inconsistent,
}

impl std::fmt::Display for InfoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InfoError::BadLength => write!(f, "node info has wrong length"),
            InfoError::BadVersion => write!(f, "node info has unknown version"),
            InfoError::BadChecksum => write!(f, "node info checksum mismatch"),
            InfoError::Inconsistent => write!(f, "node info fields inconsistent"),
        }
    }
}

impl std::error::Error for InfoError {}

const VERSION: u8 = 1;
const CHECKSUM_LEN: usize = 8;

/// Encoded size of a `NodeInfo` for the given graph shape.
pub const fn encoded_len(slots: usize, d_prime: usize) -> usize {
    // version(1) flags(1) key(32) rev_flow(8) d(1) d'(1) slots(1)
    // out_real(1) transform(17) parents(16·d') children(16·d')
    // data_map(d') slice_map(L·d') checksum(8)
    1 + 1 + 32 + 8 + 4 + HopTransform::WIRE_LEN + 16 * d_prime + 16 * d_prime + d_prime
        + slots * d_prime
        + CHECKSUM_LEN
}

impl NodeInfo {
    /// Serialize to the fixed-size layout.
    ///
    /// # Panics
    /// Panics if the vectors disagree with `d_prime`/`slots`.
    pub fn encode(&self) -> Vec<u8> {
        let dp = self.d_prime as usize;
        let slots = self.slots as usize;
        assert_eq!(self.parents.len(), dp, "parent count");
        assert!(
            self.children.is_empty() || self.children.len() == dp,
            "child count"
        );
        assert!(self.data_map.is_empty() || self.data_map.len() == dp);
        assert!(self.slice_map.is_empty() || self.slice_map.len() == dp);

        let mut out = Vec::with_capacity(encoded_len(slots, dp));
        out.push(VERSION);
        let mut flags = 0u8;
        if self.receiver {
            flags |= 1;
        }
        if !self.children.is_empty() {
            flags |= 2;
        }
        if self.recode {
            flags |= 4;
        }
        if self.dest_parent {
            flags |= 8;
        }
        out.push(flags);
        out.extend_from_slice(&self.secret_key.0);
        out.extend_from_slice(&self.reverse_flow_id.0.to_le_bytes());
        out.push(self.d);
        out.push(self.d_prime);
        out.push(self.slots);
        out.push(self.out_real_slots);
        out.extend_from_slice(&self.transform.to_bytes());
        for &(addr, rev) in &self.parents {
            out.extend_from_slice(&addr.to_bytes());
            out.extend_from_slice(&rev.0.to_le_bytes());
        }
        for j in 0..dp {
            let (addr, flow) = self
                .children
                .get(j)
                .copied()
                .unwrap_or((OverlayAddr::NONE, FlowId(0)));
            out.extend_from_slice(&addr.to_bytes());
            out.extend_from_slice(&flow.0.to_le_bytes());
        }
        for j in 0..dp {
            out.push(self.data_map.get(j).copied().unwrap_or(0));
        }
        for j in 0..dp {
            for s in 0..slots {
                let v = self
                    .slice_map
                    .get(j)
                    .and_then(|row| row.get(s).copied().flatten())
                    .unwrap_or(SLICE_MAP_RAND);
                out.push(v);
            }
        }
        let digest = Sha256::digest(&out);
        out.extend_from_slice(&digest[..CHECKSUM_LEN]);
        debug_assert_eq!(out.len(), encoded_len(slots, dp));
        out
    }

    /// Deserialize and verify the checksum.
    pub fn decode(bytes: &[u8]) -> Result<NodeInfo, InfoError> {
        if bytes.len() < 1 + 1 + 32 + 8 + 4 + HopTransform::WIRE_LEN + CHECKSUM_LEN {
            return Err(InfoError::BadLength);
        }
        if bytes[0] != VERSION {
            return Err(InfoError::BadVersion);
        }
        // Shape fields live at fixed offsets.
        let d = bytes[42];
        let d_prime = bytes[43];
        let slots = bytes[44];
        let out_real = bytes[45];
        let dp = d_prime as usize;
        let nslots = slots as usize;
        if bytes.len() != encoded_len(nslots, dp) {
            return Err(InfoError::BadLength);
        }
        if d == 0 || d_prime < d || out_real as usize > nslots {
            return Err(InfoError::Inconsistent);
        }
        let (body, tail) = bytes.split_at(bytes.len() - CHECKSUM_LEN);
        let digest = Sha256::digest(body);
        if digest[..CHECKSUM_LEN] != *tail {
            return Err(InfoError::BadChecksum);
        }

        let flags = bytes[1];
        let receiver = flags & 1 != 0;
        let has_children = flags & 2 != 0;
        let recode = flags & 4 != 0;
        let dest_parent = flags & 8 != 0;
        // Bits 4–7 are unassigned, and the destination is never its own
        // parent.
        if flags & 0xF0 != 0 || (receiver && dest_parent) {
            return Err(InfoError::Inconsistent);
        }
        let mut key = [0u8; 32];
        key.copy_from_slice(&bytes[2..34]);
        let reverse_flow_id = FlowId(u64::from_le_bytes(bytes[34..42].try_into().unwrap()));
        let mut off = 46;
        let mut tbytes = [0u8; HopTransform::WIRE_LEN];
        tbytes.copy_from_slice(&bytes[off..off + HopTransform::WIRE_LEN]);
        let transform = HopTransform::from_bytes(&tbytes).ok_or(InfoError::Inconsistent)?;
        off += HopTransform::WIRE_LEN;

        let mut parents = Vec::with_capacity(dp);
        for _ in 0..dp {
            let addr = OverlayAddr::from_bytes(bytes[off..off + 8].try_into().unwrap());
            let rev = FlowId(u64::from_le_bytes(bytes[off + 8..off + 16].try_into().unwrap()));
            parents.push((addr, rev));
            off += 16;
        }
        let mut children = Vec::with_capacity(dp);
        for _ in 0..dp {
            let addr = OverlayAddr::from_bytes(bytes[off..off + 8].try_into().unwrap());
            let flow = FlowId(u64::from_le_bytes(
                bytes[off + 8..off + 16].try_into().unwrap(),
            ));
            children.push((addr, flow));
            off += 16;
        }
        if !has_children {
            children.clear();
        }
        let mut data_map = Vec::with_capacity(dp);
        for _ in 0..dp {
            data_map.push(bytes[off]);
            off += 1;
        }
        if !has_children {
            data_map.clear();
        }
        let mut slice_map = Vec::with_capacity(dp);
        for _ in 0..dp {
            let mut row = Vec::with_capacity(nslots);
            for _ in 0..nslots {
                let v = bytes[off];
                off += 1;
                row.push(if v == SLICE_MAP_RAND { None } else { Some(v) });
            }
            slice_map.push(row);
        }
        if !has_children {
            slice_map.clear();
        }

        Ok(NodeInfo {
            receiver,
            dest_parent,
            recode,
            secret_key: SymmetricKey(key),
            reverse_flow_id,
            d,
            d_prime,
            slots,
            out_real_slots: out_real,
            transform,
            parents,
            children,
            data_map,
            slice_map,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample(with_children: bool) -> NodeInfo {
        let mut rng = StdRng::seed_from_u64(1);
        let dp = 3usize;
        let slots = 5usize;
        NodeInfo {
            receiver: true,
            dest_parent: false,
            recode: true,
            secret_key: SymmetricKey([7u8; 32]),
            reverse_flow_id: FlowId(0xAA),
            d: 2,
            d_prime: dp as u8,
            slots: slots as u8,
            out_real_slots: if with_children { 3 } else { 0 },
            transform: HopTransform::random(&mut rng),
            parents: (0..dp)
                .map(|i| (OverlayAddr(100 + i as u64), FlowId(200 + i as u64)))
                .collect(),
            children: if with_children {
                (0..dp)
                    .map(|i| (OverlayAddr(300 + i as u64), FlowId(400 + i as u64)))
                    .collect()
            } else {
                vec![]
            },
            data_map: if with_children { vec![2, 0, 1] } else { vec![] },
            slice_map: if with_children {
                vec![
                    vec![Some(0), Some(1), None, None, None],
                    vec![Some(1), Some(2), None, None, None],
                    vec![Some(2), Some(0), None, None, None],
                ]
            } else {
                vec![]
            },
        }
    }

    #[test]
    fn round_trip_with_children() {
        let info = sample(true);
        let bytes = info.encode();
        assert_eq!(bytes.len(), encoded_len(5, 3));
        assert_eq!(NodeInfo::decode(&bytes).unwrap(), info);
    }

    #[test]
    fn round_trip_last_stage() {
        let info = sample(false);
        let bytes = info.encode();
        // Same size as the with-children encoding: fixed-size property.
        assert_eq!(bytes.len(), encoded_len(5, 3));
        assert_eq!(NodeInfo::decode(&bytes).unwrap(), info);
    }

    #[test]
    fn corruption_detected() {
        let mut bytes = sample(true).encode();
        bytes[50] ^= 1;
        assert_eq!(NodeInfo::decode(&bytes).unwrap_err(), InfoError::BadChecksum);
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample(true).encode();
        assert_eq!(
            NodeInfo::decode(&bytes[..bytes.len() - 1]).unwrap_err(),
            InfoError::BadLength
        );
    }

    #[test]
    fn version_checked() {
        let mut bytes = sample(true).encode();
        bytes[0] = 9;
        assert_eq!(NodeInfo::decode(&bytes).unwrap_err(), InfoError::BadVersion);
    }

    /// Re-seal `bytes` after an edit, so decode gets past the checksum.
    fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        let body = bytes.len() - CHECKSUM_LEN;
        let digest = Sha256::digest(&bytes[..body]);
        bytes[body..].copy_from_slice(&digest[..CHECKSUM_LEN]);
        bytes
    }

    #[test]
    fn dest_parent_round_trips_in_the_flags_byte() {
        let info = NodeInfo {
            receiver: false,
            dest_parent: true,
            ..sample(true)
        };
        let bytes = info.encode();
        assert_eq!(bytes.len(), encoded_len(5, 3), "no byte added");
        assert_eq!(bytes[1] & 8, 8);
        assert_eq!(NodeInfo::decode(&bytes).unwrap(), info);
    }

    #[test]
    fn unassigned_or_contradictory_flags_are_inconsistent() {
        let bytes = NodeInfo {
            receiver: false,
            ..sample(true)
        }
        .encode();
        for bit in 4..8 {
            let mut forged = bytes.clone();
            forged[1] |= 1 << bit;
            assert_eq!(
                NodeInfo::decode(&reseal(forged)).unwrap_err(),
                InfoError::Inconsistent,
                "flag bit {bit}"
            );
        }
        // Receiver and dest-parent at once.
        let mut forged = sample(true).encode();
        forged[1] |= 8;
        assert_eq!(
            NodeInfo::decode(&reseal(forged)).unwrap_err(),
            InfoError::Inconsistent
        );
    }

    #[test]
    fn sizes_scale_with_shape() {
        assert!(encoded_len(8, 3) > encoded_len(5, 3));
        assert!(encoded_len(5, 4) > encoded_len(5, 3));
    }
}
