//! Wire format for information-slicing packets (Fig. 3, §4.3.3, §9.4(c)).
//!
//! A packet carries a cleartext **flow-id** (so a relay can group the `d`
//! packets of one flow, §4.3.1) followed by a fixed number of equal-size
//! **slots**. Slot 0 is always the slice addressed to the receiving relay;
//! the remaining slots are opaque to it (they hold downstream slices,
//! possibly wrapped in per-hop transforms, or the random padding a relay
//! inserts in place of its consumed slice, §4.3.6).
//!
//! Every packet of a flow has identical length at every hop — the
//! slice-map machinery replaces consumed slices with padding rather than
//! shrinking packets, defeating packet-size analysis (§9.4(c)).
//!
//! # Zero-copy data plane
//!
//! A [`Packet`] is a parsed [`PacketHeader`] plus one frozen [`Bytes`]
//! buffer holding the full wire image. [`Packet::from_bytes`] validates a
//! received buffer and *keeps it* — slot accessors ([`Packet::slot`],
//! [`Packet::slot_bytes`]) are views into the receive buffer, and
//! [`Packet::encode`] hands the same buffer back for transmission, so a
//! relay that forwards a packet never copies its payload. New packets are
//! assembled once, in place, through [`PacketBuilder`] (reserve a slot,
//! code into it, freeze).
//!
//! `unsafe` is denied crate-wide except inside [`crc`]'s `std::arch`
//! kernel (the vector load and the post-detection `#[target_feature]`
//! call); each site carries a SAFETY comment and the kernel is swept
//! against a bit-serial oracle by the test suite.

#![deny(unsafe_code)]

pub mod crc;

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Magic bytes prefixed to every packet ("IS").
pub const MAGIC: [u8; 2] = [0x49, 0x53];
/// Wire format version.
pub const VERSION: u8 = 1;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 20;

/// A 64-bit cleartext flow identifier.
///
/// Flow-ids change at every hop ("to prevent the attacker from detecting
/// the path by matching flow-ids", §4.3.1); all parents of one child use
/// the same flow-id so the child can group packets of the flow.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

impl FlowId {
    /// Sample a fresh random flow id.
    pub fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> Self {
        FlowId(rng.gen())
    }
}

impl std::fmt::Debug for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flow:{:016x}", self.0)
    }
}

/// What phase of the protocol a packet belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// Graph-establishment packet: slots carry per-node information
    /// slices (§4.3.4).
    Setup,
    /// Data packet: slots carry coded data slices (§4.3.7).
    Data,
    /// Control packet: neighbour keepalives and failure notifications
    /// (slot 0 carries a [`control`] body). Control packets ride the
    /// same flow ids as data — keepalives travel downstream on forward
    /// flow ids, failure reports travel upstream on reverse flow ids.
    Control,
}

impl PacketKind {
    fn to_byte(self) -> u8 {
        match self {
            PacketKind::Setup => 0,
            PacketKind::Data => 1,
            PacketKind::Control => 2,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(PacketKind::Setup),
            1 => Some(PacketKind::Data),
            2 => Some(PacketKind::Control),
            _ => None,
        }
    }
}

/// Control-packet bodies (slot 0 of a [`PacketKind::Control`] packet).
///
/// The first byte of the slot is the opcode; the rest is the
/// opcode-specific payload. Control packets are deliberately tiny — they
/// are the live overlay's failure-detection plane, not a data path.
pub mod control {
    use super::{FlowId, Packet, PacketBuilder, PacketHeader, PacketKind};

    /// Opcode: "I am alive" — sent by a relay to each child of an
    /// established flow on the child's forward flow id, so children can
    /// distinguish an idle parent from a dead one. The payload is the
    /// sender's own reverse flow id (8 bytes LE), which the child holds
    /// in its parent list: a flow-membership token that keeps a
    /// transport-level address forgery from refreshing a parent's
    /// liveness (and thereby suppressing failure detection).
    pub const KEEPALIVE: u8 = 1;

    /// Opcode: "a neighbour of this flow died" — sent toward the source
    /// on reverse flow ids. The payload is the dead node's address,
    /// AEAD-sealed under the *reporting* relay's secret key, so
    /// forwarding relays learn nothing about nodes beyond their own
    /// neighbours while the source (which knows every per-node key it
    /// issued) can recover and authenticate the report.
    pub const FLOW_FAILED: u8 = 2;

    /// Build a keepalive packet for `flow`, carrying the sender's own
    /// reverse flow id as the membership token the receiver checks
    /// against its parent list.
    pub fn keepalive(flow: FlowId, token: FlowId) -> Packet {
        let mut b = PacketBuilder::new(PacketHeader {
            kind: PacketKind::Control,
            flow_id: flow,
            seq: 0,
            d: 1,
            slot_count: 1,
            slot_len: 9,
        });
        let slot = b.slot();
        slot[0] = KEEPALIVE;
        slot[1..9].copy_from_slice(&token.0.to_le_bytes());
        b.build()
    }

    /// Build a flow-failed packet for `flow` carrying `sealed` (the
    /// AEAD-sealed address of the dead node).
    pub fn flow_failed(flow: FlowId, sealed: &[u8]) -> Packet {
        let mut b = PacketBuilder::new(PacketHeader {
            kind: PacketKind::Control,
            flow_id: flow,
            seq: 0,
            d: 1,
            slot_count: 1,
            slot_len: (1 + sealed.len()) as u16,
        });
        let slot = b.slot();
        slot[0] = FLOW_FAILED;
        slot[1..].copy_from_slice(sealed);
        b.build()
    }

    /// Split a control packet's slot 0 into `(opcode, payload)`.
    /// `None` if the packet is not a control packet.
    pub fn parse(packet: &Packet) -> Option<(u8, &[u8])> {
        if packet.header.kind != PacketKind::Control || packet.header.slot_count == 0 {
            return None;
        }
        let body = packet.slot(0);
        Some((body[0], &body[1..]))
    }
}

/// Parsed packet header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketHeader {
    /// Protocol phase.
    pub kind: PacketKind,
    /// Cleartext flow identifier.
    pub flow_id: FlowId,
    /// Message sequence number within the flow (0 for setup packets).
    pub seq: u32,
    /// Split factor of the flow (coefficients per slice).
    pub d: u8,
    /// Number of slots in the packet (the paper's `L` slices, Fig. 3).
    pub slot_count: u8,
    /// Length of each slot in bytes (`d + block_len`).
    pub slot_len: u16,
}

/// A wire packet: a parsed header over one frozen wire buffer with
/// `slot_count` opaque slots of `slot_len` bytes each.
///
/// Cloning is O(1) (the buffer is shared); equality compares the wire
/// bytes.
#[derive(Clone)]
pub struct Packet {
    /// The header (parsed from, and consistent with, the wire buffer).
    pub header: PacketHeader,
    /// Full wire image: header followed by the slots.
    wire: Bytes,
}

impl PartialEq for Packet {
    fn eq(&self, other: &Packet) -> bool {
        self.wire == other.wire
    }
}

impl Eq for Packet {}

impl std::fmt::Debug for Packet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Packet({:?}, {:?}, {} slots x {}B)",
            self.header.kind, self.header.flow_id, self.header.slot_count, self.header.slot_len
        )
    }
}

/// Decoding failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Input shorter than the header or the declared body.
    Truncated,
    /// Magic bytes missing.
    BadMagic,
    /// Unknown version.
    BadVersion,
    /// Unknown packet kind byte.
    BadKind,
    /// Header fields are internally inconsistent (e.g. zero slots).
    Inconsistent,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "packet truncated"),
            WireError::BadMagic => write!(f, "bad magic bytes"),
            WireError::BadVersion => write!(f, "unsupported version"),
            WireError::BadKind => write!(f, "unknown packet kind"),
            WireError::Inconsistent => write!(f, "inconsistent header"),
        }
    }
}

impl std::error::Error for WireError {}

impl Packet {
    /// Assemble a packet from owned slot vectors (convenience for tests
    /// and cold paths; hot paths use [`PacketBuilder`] to code slots in
    /// place).
    ///
    /// # Panics
    /// Panics if the slots don't match the header's declared shape.
    pub fn new(header: PacketHeader, slots: Vec<Vec<u8>>) -> Self {
        assert_eq!(slots.len(), header.slot_count as usize, "slot count");
        assert!(
            slots.iter().all(|s| s.len() == header.slot_len as usize),
            "slot length"
        );
        let mut b = PacketBuilder::new(header);
        for slot in &slots {
            b.push_slot(slot);
        }
        b.build()
    }

    /// Total encoded length.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.header.slot_count as usize * self.header.slot_len as usize
    }

    /// The frozen wire image, ready to transmit.
    ///
    /// O(1): returns a shared view of the buffer the packet was decoded
    /// from (or built into) — forwarding never re-serializes.
    pub fn encode(&self) -> Bytes {
        self.wire.clone()
    }

    /// Borrow slot `i` (zero-copy view into the wire buffer).
    ///
    /// # Panics
    /// Panics if `i >= slot_count`.
    pub fn slot(&self, i: usize) -> &[u8] {
        assert!(i < self.header.slot_count as usize, "slot index");
        let len = self.header.slot_len as usize;
        let start = HEADER_LEN + i * len;
        &self.wire[start..start + len]
    }

    /// Slot `i` as a shared [`Bytes`] view — O(1), keeps the receive
    /// buffer alive, lets a gather retain one slot without copying the
    /// packet.
    ///
    /// # Panics
    /// Panics if `i >= slot_count`.
    pub fn slot_bytes(&self, i: usize) -> Bytes {
        assert!(i < self.header.slot_count as usize, "slot index");
        let len = self.header.slot_len as usize;
        let start = HEADER_LEN + i * len;
        self.wire.slice(start..start + len)
    }

    /// Iterate over all slots.
    pub fn slots(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.header.slot_count as usize).map(|i| self.slot(i))
    }

    /// Deserialize from a borrowed buffer, validating shape (copies the
    /// bytes; receive paths holding a [`Bytes`] should use
    /// [`Packet::from_bytes`] instead).
    pub fn decode(bytes: &[u8]) -> Result<Packet, WireError> {
        Packet::from_bytes(Bytes::copy_from_slice(bytes))
    }

    /// Zero-copy deserialize: validate `bytes` and adopt it as the
    /// packet's wire buffer. Accepts and rejects byte-identically to
    /// [`Packet::decode`].
    pub fn from_bytes(bytes: Bytes) -> Result<Packet, WireError> {
        let mut cursor: &[u8] = &bytes;
        if cursor.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let mut magic = [0u8; 2];
        cursor.copy_to_slice(&mut magic);
        if magic != MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = cursor.get_u8();
        if version != VERSION {
            return Err(WireError::BadVersion);
        }
        let kind = PacketKind::from_byte(cursor.get_u8()).ok_or(WireError::BadKind)?;
        let flow_id = FlowId(cursor.get_u64_le());
        let seq = cursor.get_u32_le();
        let d = cursor.get_u8();
        let slot_count = cursor.get_u8();
        let slot_len = cursor.get_u16_le();
        if d == 0 || slot_count == 0 || (d as u16) > slot_len {
            return Err(WireError::Inconsistent);
        }
        let body_len = slot_count as usize * slot_len as usize;
        if cursor.remaining() != body_len {
            return Err(WireError::Truncated);
        }
        Ok(Packet {
            header: PacketHeader {
                kind,
                flow_id,
                seq,
                d,
                slot_count,
                slot_len,
            },
            wire: bytes,
        })
    }
}

/// Read just the flow id out of a wire buffer, validating only the
/// fixed prelude (magic, version, kind byte) — the cheap peek a sharded
/// ingress uses to pick a shard before the owning shard runs the full
/// [`Packet::from_bytes`] validation. `None` means the buffer can never
/// parse as a packet and can be dropped at the door.
pub fn peek_flow_id(bytes: &[u8]) -> Option<FlowId> {
    if bytes.len() < HEADER_LEN || bytes[..2] != MAGIC || bytes[2] != VERSION {
        return None;
    }
    PacketKind::from_byte(bytes[3])?;
    Some(FlowId(u64::from_le_bytes(bytes[4..12].try_into().ok()?)))
}

/// Assembles a packet in a single buffer: header first, then each slot
/// written (or coded) in place, then [`build`](PacketBuilder::build)
/// freezes the buffer into a [`Packet`].
pub struct PacketBuilder {
    header: PacketHeader,
    buf: BytesMut,
    written: u8,
}

impl PacketBuilder {
    /// Start a packet with the given header (slot contents follow).
    pub fn new(header: PacketHeader) -> Self {
        let mut buf = BytesMut::with_capacity(
            HEADER_LEN + header.slot_count as usize * header.slot_len as usize,
        );
        buf.put_slice(&MAGIC);
        buf.put_u8(VERSION);
        buf.put_u8(header.kind.to_byte());
        buf.put_u64_le(header.flow_id.0);
        buf.put_u32_le(header.seq);
        buf.put_u8(header.d);
        buf.put_u8(header.slot_count);
        buf.put_u16_le(header.slot_len);
        PacketBuilder {
            header,
            buf,
            written: 0,
        }
    }

    /// Append the next (zero-initialized) slot and return it for in-place
    /// filling — the data plane codes slices directly into this region.
    ///
    /// # Panics
    /// Panics if all declared slots have already been written.
    pub fn slot(&mut self) -> &mut [u8] {
        assert!(self.written < self.header.slot_count, "too many slots");
        self.written += 1;
        self.buf.put_zeroed(self.header.slot_len as usize)
    }

    /// Re-borrow an already-written slot for further in-place editing.
    ///
    /// The fused relay coding path fills several packets' slots through
    /// one multi-output kernel call after all builders exist, then comes
    /// back here to stamp CRCs.
    ///
    /// # Panics
    /// Panics if slot `i` has not been written yet.
    pub fn slot_mut(&mut self, i: usize) -> &mut [u8] {
        assert!(i < self.written as usize, "slot not yet written");
        let len = self.header.slot_len as usize;
        let start = HEADER_LEN + i * len;
        &mut self.buf[start..start + len]
    }

    /// Append a pre-assembled slot.
    ///
    /// # Panics
    /// Panics on length mismatch or slot overflow.
    pub fn push_slot(&mut self, bytes: &[u8]) {
        assert_eq!(bytes.len(), self.header.slot_len as usize, "slot length");
        self.slot().copy_from_slice(bytes);
    }

    /// Freeze the buffer into an immutable [`Packet`].
    ///
    /// # Panics
    /// Panics unless exactly `slot_count` slots were written.
    pub fn build(self) -> Packet {
        assert_eq!(self.written, self.header.slot_count, "slot count");
        Packet {
            header: self.header,
            wire: self.buf.freeze(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Packet {
        Packet::new(
            PacketHeader {
                kind: PacketKind::Setup,
                flow_id: FlowId(0xDEADBEEF12345678),
                seq: 7,
                d: 2,
                slot_count: 3,
                slot_len: 10,
            },
            vec![vec![1u8; 10], vec![2u8; 10], vec![3u8; 10]],
        )
    }

    #[test]
    fn round_trip() {
        let p = sample();
        let bytes = p.encode();
        assert_eq!(bytes.len(), p.wire_len());
        assert_eq!(Packet::decode(&bytes).unwrap(), p);
    }

    #[test]
    fn from_bytes_is_zero_copy() {
        let wire = sample().encode();
        let p = Packet::from_bytes(wire.clone()).unwrap();
        // Re-encoding hands back the same buffer, not a copy.
        assert_eq!(p.encode(), wire);
        // Slots are views into it.
        assert_eq!(p.slot(1), &[2u8; 10]);
        assert_eq!(p.slot_bytes(2), &[3u8; 10]);
    }

    #[test]
    fn builder_in_place_slots() {
        let header = PacketHeader {
            kind: PacketKind::Data,
            flow_id: FlowId(5),
            seq: 1,
            d: 2,
            slot_count: 2,
            slot_len: 4,
        };
        let mut b = PacketBuilder::new(header);
        b.slot().copy_from_slice(&[9, 9, 9, 9]);
        let s = b.slot();
        s[0] = 1;
        s[3] = 2;
        let p = b.build();
        assert_eq!(p.slot(0), &[9, 9, 9, 9]);
        assert_eq!(p.slot(1), &[1, 0, 0, 2]);
        assert_eq!(Packet::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    #[should_panic(expected = "slot count")]
    fn builder_missing_slot_panics() {
        let header = PacketHeader {
            kind: PacketKind::Data,
            flow_id: FlowId(5),
            seq: 1,
            d: 1,
            slot_count: 2,
            slot_len: 4,
        };
        let mut b = PacketBuilder::new(header);
        b.push_slot(&[0; 4]);
        let _ = b.build();
    }

    #[test]
    fn truncated_rejected() {
        let bytes = sample().encode();
        for cut in [0usize, 1, HEADER_LEN - 1, HEADER_LEN + 5, bytes.len() - 1] {
            assert_eq!(
                Packet::decode(&bytes[..cut]).unwrap_err(),
                WireError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample().encode().to_vec();
        bytes.push(0);
        assert_eq!(Packet::decode(&bytes).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().encode().to_vec();
        bytes[0] ^= 0xFF;
        assert_eq!(Packet::decode(&bytes).unwrap_err(), WireError::BadMagic);
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = sample().encode().to_vec();
        bytes[2] = 99;
        assert_eq!(Packet::decode(&bytes).unwrap_err(), WireError::BadVersion);
    }

    #[test]
    fn bad_kind_rejected() {
        let mut bytes = sample().encode().to_vec();
        bytes[3] = 7;
        assert_eq!(Packet::decode(&bytes).unwrap_err(), WireError::BadKind);
    }

    #[test]
    fn zero_d_rejected() {
        let mut bytes = sample().encode().to_vec();
        bytes[16] = 0; // d field
        assert_eq!(Packet::decode(&bytes).unwrap_err(), WireError::Inconsistent);
    }

    #[test]
    fn constant_size_for_flow() {
        // Packets of one flow shape always encode to the same length,
        // regardless of slot content (§9.4(c)).
        let p1 = sample();
        let header = p1.header;
        let p2 = Packet::new(
            header,
            vec![vec![1u8; 10], vec![0xFF; 10], vec![3u8; 10]],
        );
        assert_eq!(p1.encode().len(), p2.encode().len());
    }

    #[test]
    fn kind_round_trips() {
        for kind in [PacketKind::Setup, PacketKind::Data, PacketKind::Control] {
            assert_eq!(PacketKind::from_byte(kind.to_byte()), Some(kind));
        }
        assert_eq!(PacketKind::from_byte(255), None);
    }

    #[test]
    fn control_bodies_round_trip() {
        let ka = control::keepalive(FlowId(9), FlowId(0x0102_0304_0506_0708));
        assert_eq!(
            control::parse(&ka),
            Some((
                control::KEEPALIVE,
                &0x0102_0304_0506_0708u64.to_le_bytes()[..],
            ))
        );
        let sealed = [7u8; 52];
        let ff = control::flow_failed(FlowId(9), &sealed);
        assert_eq!(control::parse(&ff), Some((control::FLOW_FAILED, &sealed[..])));
        // Control packets survive the wire like any other.
        let decoded = Packet::decode(&ff.encode()).unwrap();
        assert_eq!(decoded, ff);
        assert_eq!(peek_flow_id(&ff.encode()), Some(FlowId(9)));
        // Data packets are not control packets.
        assert_eq!(control::parse(&sample()), None);
    }

    #[test]
    fn peek_flow_id_agrees_with_full_decode() {
        let p = sample();
        let wire = p.encode();
        assert_eq!(peek_flow_id(&wire), Some(p.header.flow_id));
        // Too short, bad magic, bad version, bad kind: all rejected.
        assert_eq!(peek_flow_id(&wire[..HEADER_LEN - 1]), None);
        let mut bad = wire.to_vec();
        bad[0] ^= 0xFF;
        assert_eq!(peek_flow_id(&bad), None);
        let mut bad = wire.to_vec();
        bad[2] = 99;
        assert_eq!(peek_flow_id(&bad), None);
        let mut bad = wire.to_vec();
        bad[3] = 7;
        assert_eq!(peek_flow_id(&bad), None);
        // A truncated body still peeks (full validation is the shard's
        // job); only the fixed prelude gates the peek.
        assert_eq!(peek_flow_id(&wire[..HEADER_LEN]), Some(p.header.flow_id));
    }

    #[test]
    fn flow_id_randomness() {
        let mut rng = rand::thread_rng();
        let a = FlowId::random(&mut rng);
        let b = FlowId::random(&mut rng);
        assert_ne!(a, b); // 2^-64 collision chance
    }
}
