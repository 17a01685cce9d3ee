//! The source session: the sans-IO equivalent of the paper's "source
//! utility" (§7.1).
//!
//! A session owns a forwarding graph. Creating it yields the setup
//! packets to transmit from the pseudo-sources; afterwards the source can
//! slice-and-send encrypted data messages (§4.3.7), decode reverse-path
//! data arriving at the pseudo-sources — and keep the session alive
//! through churn: sealed `FLOW_FAILED` reports from downstream relays
//! accumulate in [`SourceSession::failed_nodes`], and
//! [`SourceSession::repair`] re-runs Algorithm 1 around the dead nodes
//! ([`build::rebuild_excluding`]) and splices the new routes into the
//! live flow with targeted re-setup packets. What was in flight is
//! resent by whoever holds it: the streaming window resends its own
//! chunks, and drivers of raw messages hand the bytes back to
//! [`SourceSession::retransmit`].
//!
//! The type is split along a durable/per-message seam:
//!
//! * **Durable session state** lives directly on [`SourceSession`] — the
//!   graph (addresses, keys, flow ids, transforms), configuration, RNG,
//!   failure set and keepalive clock. This is what a session *is* for
//!   its whole lifetime, and it is constant-size.
//! * **Per-message machinery** is bounded and transient: the reverse
//!   assembler (`ReverseAssembler` — capped gathers plus a
//!   constant-space replay guard) and the streaming window
//!   (`StreamState`, driven through [`SourceSession::send`] /
//!   [`SourceSession::pump`]). Both drain back to empty once traffic is
//!   acknowledged, and raw sends keep no copy at all, which is what
//!   lets a [`crate::session::SessionManager`] hold thousands of these
//!   without per-message residue.

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use slicing_codec::{coder, recombine, InfoSlice};
use slicing_crypto::SealingKey;
use slicing_graph::packets::SendInstr;
use slicing_graph::{build, BuiltGraph, GraphError, GraphParams, NodeInfo, OverlayAddr};
use slicing_wire::{control, crc, Packet, PacketBuilder, PacketHeader, PacketKind};

use crate::replay::ReplayGuard;
use crate::session::{SessionError, StreamState};
use crate::time::Tick;

/// Source-side tunables.
#[derive(Clone, Copy, Debug)]
pub struct SourceConfig {
    /// Target wire size for data packets; the message chunk size is
    /// derived from it (paper uses 1500-byte packets, §7.2).
    pub data_packet_budget: usize,
    /// How often [`SourceSession::poll`] announces liveness to the
    /// stage-1 relays (who would otherwise declare their pseudo-source
    /// parents dead). Must stay below the relays'
    /// [`crate::RelayConfig::liveness_timeout_ms`]. `0` disables.
    pub keepalive_ms: u64,
}

impl Default for SourceConfig {
    fn default() -> Self {
        SourceConfig {
            data_packet_budget: 1500,
            keepalive_ms: 10_000,
        }
    }
}

/// Per-seq reverse gathering state: (pseudo-source, sender) pairs heard
/// and the CRC-valid slices collected so far.
type ReverseGather = (HashSet<(OverlayAddr, OverlayAddr)>, Vec<InfoSlice>);

/// Upper bound on concurrently gathering reverse seqs; beyond it, seqs
/// far behind the newest are reaped (they will re-gather if their
/// slices ever complete).
const REVERSE_GATHER_CAP: usize = 128;
/// How far behind the newest reverse seq a gather may lag before the
/// cap reaps it.
const REVERSE_GATHER_HORIZON: u32 = 512;

/// The per-message half of the reverse path: bounded in-progress
/// gathers plus a constant-space at-most-once guard. Long-lived
/// sessions accumulate nothing here — decoded seqs collapse into the
/// guard's watermark+bitmap and stale gathers are reaped by the cap.
///
/// The cap cannot be pinned by forged traffic: the horizon tracks the
/// highest *authenticated* (decoded) seq — a forged far-future seq in a
/// cleartext header never moves it — and when the cap is reached the
/// oldest gather is evicted for the newcomer, so progress on fresh seqs
/// is always possible.
#[derive(Debug, Default)]
struct ReverseAssembler {
    /// Reverse-path gathering: seq → ((pseudo-source, sender) pairs
    /// heard, slices). Keyed on the pair because one relay legitimately
    /// delivers distinct slices to several pseudo-sources (e.g. a
    /// destination sitting in stage 1).
    gathers: HashMap<u32, ReverseGather>,
    /// Reverse seqs already decoded (constant space).
    done: ReplayGuard,
    /// Highest reverse seq successfully decoded (AEAD-authenticated;
    /// drives the gather horizon).
    highest: u32,
}

impl ReverseAssembler {
    /// Admit `seq` for gathering; `None` when it is already decoded.
    /// Enforces the gather cap: stale seqs far behind the newest
    /// decoded one are reaped first, then the oldest pending gather is
    /// evicted so the newcomer always finds room.
    fn admit(&mut self, seq: u32) -> Option<&mut ReverseGather> {
        if self.done.contains(seq) {
            return None;
        }
        if self.gathers.len() >= REVERSE_GATHER_CAP && !self.gathers.contains_key(&seq) {
            let horizon = self.highest.saturating_sub(REVERSE_GATHER_HORIZON);
            self.gathers.retain(|&s, _| s >= horizon);
            if self.gathers.len() >= REVERSE_GATHER_CAP {
                if let Some(&oldest) = self.gathers.keys().min() {
                    self.gathers.remove(&oldest);
                }
            }
        }
        Some(self.gathers.entry(seq).or_default())
    }

    /// Mark `seq` decoded (ratcheting the authenticated horizon) and
    /// drop its gather.
    fn finish(&mut self, seq: u32) {
        self.done.insert(seq);
        self.highest = self.highest.max(seq);
        self.gathers.remove(&seq);
    }
}

/// An anonymous connection from the source's point of view.
///
/// # Example
///
/// Establish a 3-stage graph over the deterministic
/// [`TestNet`](crate::testnet::TestNet), send one message, and observe
/// that only the destination decodes it:
///
/// ```
/// use slicing_core::testnet::TestNet;
/// use slicing_core::{GraphParams, OverlayAddr, SourceSession};
///
/// let pseudo: Vec<OverlayAddr> = (0..2).map(OverlayAddr).collect();
/// let relays: Vec<OverlayAddr> = (100..116).map(OverlayAddr).collect();
/// let dest = OverlayAddr(999);
/// let mut nodes = relays.clone();
/// nodes.push(dest);
///
/// // Build the forwarding graph (Algorithm 1) and its setup packets.
/// let (mut session, setup) =
///     SourceSession::establish(GraphParams::new(3, 2), &pseudo, &relays, dest, 42)
///         .expect("enough candidate relays");
/// let mut net = TestNet::new(&nodes, 42);
/// net.submit(setup);
/// net.run_to_quiescence(Some(&mut session));
///
/// // Slice, encrypt and send one data message.
/// let (seq, sends) = session.send_message(b"hello overlay").expect("fits one chunk");
/// net.submit(sends);
/// net.run_to_quiescence(Some(&mut session));
/// assert_eq!(
///     net.messages_for(dest),
///     vec![(seq, b"hello overlay".to_vec())],
/// );
/// ```
pub struct SourceSession {
    graph: BuiltGraph,
    pub(crate) config: SourceConfig,
    next_seq: u32,
    /// Per-message reverse-path machinery (bounded).
    reverse: ReverseAssembler,
    /// Relays reported dead (authenticated `FLOW_FAILED` reports) and
    /// not yet repaired around.
    failed: HashSet<OverlayAddr>,
    /// Last keepalive emission ([`SourceSession::poll`]).
    pub(crate) last_keepalive: Option<Tick>,
    /// Setup packets emitted over the session's lifetime (initial
    /// establishment plus repairs) — the measure of how much of the
    /// graph a repair had to touch.
    setup_packets_sent: u64,
    /// The streaming window (per-message machinery; see
    /// [`SourceSession::send`]).
    pub(crate) stream: StreamState,
    /// Cached sealing state for the destination key — subkeys and HMAC
    /// midstates derived once per session (rebuilt when a repair swaps
    /// the graph), not once per message.
    dest_sealer: SealingKey,
    /// Sealers for every per-node key the source issued, used to
    /// authenticate `FLOW_FAILED` reports. Built lazily on the first
    /// report (most sessions never see one) and cleared on repair.
    issued_sealers: Vec<SealingKey>,
    /// Reusable seal output buffer: steady-state sends write
    /// `nonce ‖ ciphertext ‖ tag` here without allocating.
    seal_buf: Vec<u8>,
    rng: StdRng,
}

impl SourceSession {
    /// Build a forwarding graph and the setup packets that establish it.
    ///
    /// Arguments mirror [`slicing_graph::build::build`]; see there for the
    /// requirements on `pseudo_sources` and `candidates`.
    pub fn establish(
        params: GraphParams,
        pseudo_sources: &[OverlayAddr],
        candidates: &[OverlayAddr],
        dest: OverlayAddr,
        seed: u64,
    ) -> Result<(SourceSession, Vec<SendInstr>), GraphError> {
        let mut rng = StdRng::seed_from_u64(seed);
        // The blueprint becomes the setup packets and is dropped here:
        // the session keeps only what data, control and repair read.
        let (graph, blueprint) = build::build(params, pseudo_sources, candidates, dest, &mut rng)?;
        let setup = blueprint.setup_packets(&graph);
        let dest_sealer = SealingKey::new(graph.dest_key());
        Ok((
            SourceSession {
                graph,
                config: SourceConfig::default(),
                next_seq: 0,
                reverse: ReverseAssembler::default(),
                failed: HashSet::new(),
                last_keepalive: None,
                setup_packets_sent: setup.len() as u64,
                stream: StreamState::default(),
                dest_sealer,
                issued_sealers: Vec::new(),
                seal_buf: Vec::new(),
                rng,
            },
            setup,
        ))
    }

    /// Override the configuration.
    pub fn set_config(&mut self, config: SourceConfig) {
        self.config = config;
    }

    /// The underlying graph (stages, destination position, keys).
    pub fn graph(&self) -> &BuiltGraph {
        &self.graph
    }

    /// Largest plaintext chunk that fits the data-packet budget.
    ///
    /// A data slot is `d` coefficients + block + CRC; the sealed message
    /// (nonce + ciphertext + tag = plaintext + 44 bytes) is split into `d`
    /// blocks.
    pub fn max_chunk_len(&self) -> usize {
        let d = self.graph.params.split;
        let header = slicing_wire::HEADER_LEN;
        let block_budget = self
            .config
            .data_packet_budget
            .saturating_sub(header + d + 4);
        // block_len = ceil((sealed + 4) / d)  =>  sealed ≈ block_budget·d − 4
        (block_budget * d).saturating_sub(4 + 44).max(1)
    }

    /// Slice, encrypt and address one single-chunk data message; returns
    /// its sequence number and the packets to transmit (d′² of them, one
    /// per pseudo-source → stage-1 relay edge, §7.2).
    ///
    /// The session keeps no copy of the plaintext. A caller that wants
    /// a message to survive loss or a relay's death keeps the bytes
    /// itself and hands them to [`SourceSession::retransmit`] until it
    /// sees the message delivered.
    ///
    /// Plaintexts larger than [`Self::max_chunk_len`] yield
    /// [`SessionError::Oversize`] — use the streaming
    /// [`SourceSession::send`], which chunks arbitrary lengths.
    ///
    /// Raw and streamed sends share the session's sequence space. On a
    /// session that uses the streaming `send`, prefer it exclusively:
    /// raw messages are not covered by the ack/retransmit window, and a
    /// raw seq that is *never* delivered stalls the destination's
    /// cumulative ack watermark (the ack bitmap reaches only 64 seqs
    /// past it). Drivers that mix the two — like the churn harness —
    /// must retry raw messages themselves.
    pub fn send_message(
        &mut self,
        plaintext: &[u8],
    ) -> Result<(u32, Vec<SendInstr>), SessionError> {
        self.check_fits(plaintext)?;
        Ok(self.send_raw(plaintext))
    }

    /// [`SessionError::Oversize`] unless `plaintext` fits one chunk.
    fn check_fits(&self, plaintext: &[u8]) -> Result<(), SessionError> {
        let max = self.max_chunk_len();
        if plaintext.len() > max {
            return Err(SessionError::Oversize {
                len: plaintext.len(),
                max,
            });
        }
        Ok(())
    }

    /// Allocate a sequence number and encode `plaintext` against the
    /// current graph (the streaming window keeps its own copy of every
    /// in-flight chunk).
    pub(crate) fn send_raw(&mut self, plaintext: &[u8]) -> (u32, Vec<SendInstr>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        (seq, self.encode_message(seq, plaintext))
    }

    /// Slice, encrypt and address `plaintext` as message `seq` against
    /// the current graph (shared by fresh sends and retransmissions —
    /// the destination's replay guard keeps repeated seqs at-most-once).
    pub(crate) fn encode_message(&mut self, seq: u32, plaintext: &[u8]) -> Vec<SendInstr> {
        let params = self.graph.params;
        let (d, dp) = (params.split, params.paths);
        // Cached subkeys + midstates, sealed into the reusable buffer —
        // the steady-state seal allocates nothing.
        self.dest_sealer
            .seal_into(plaintext, &mut self.seal_buf, &mut self.rng);
        let coded = coder::encode(&self.seal_buf, d, dp, &mut self.rng);
        let slot_len = d + coded.block_len + 4;
        let recode = matches!(params.data_mode, slicing_graph::DataMode::Recode);
        let mut sends = Vec::with_capacity(dp * dp);
        for i in 0..dp {
            for v in 0..dp {
                let mut builder = PacketBuilder::new(PacketHeader {
                    kind: PacketKind::Data,
                    flow_id: self.graph.flow_ids[1][v],
                    seq,
                    d: d as u8,
                    slot_count: 1,
                    slot_len: slot_len as u16,
                });
                // Write the slice straight into the packet's slot.
                let slot = builder.slot();
                let body = d + coded.block_len;
                let fresh;
                let slice = if recode {
                    fresh = recombine::recombine(&coded.slices, &mut self.rng);
                    &fresh
                } else {
                    // Static assignment: slice (i + v + h₀) mod d′ crosses
                    // edge (pseudo-source i → stage-1 relay v).
                    &coded.slices[(i + v + self.graph.data_offsets[0]) % dp]
                };
                slot[..d].copy_from_slice(&slice.coeffs);
                slot[d..body].copy_from_slice(&slice.payload);
                crc::write_crc(slot);
                sends.push(SendInstr {
                    from: self.graph.stages[0][i],
                    to: self.graph.stages[1][v],
                    packet: builder.build(),
                });
            }
        }
        sends
    }

    /// Feed a packet received at one of the pseudo-sources; returns a
    /// decoded raw reverse-path message when one completes (§4.3.7).
    ///
    /// Sealed `FLOW_FAILED` control reports are consumed here too: the
    /// source tries every per-node key it issued, and an authentic
    /// report adds the dead relay to [`SourceSession::failed_nodes`]
    /// for the driver to [`repair`](SourceSession::repair) around.
    ///
    /// Stream control traffic (acknowledgements for the
    /// [`send`](SourceSession::send) window, framed replies) is consumed
    /// internally: acks open the window (emitted by the next
    /// [`pump`](SourceSession::pump)), replies are drained via
    /// [`pop_replies`](SourceSession::pop_replies).
    pub fn handle_packet(
        &mut self,
        _now: Tick,
        pseudo_source: OverlayAddr,
        from: OverlayAddr,
        packet: &Packet,
    ) -> Option<(u32, Vec<u8>)> {
        if packet.header.kind == PacketKind::Control {
            self.handle_control(packet);
            return None;
        }
        if packet.header.kind != PacketKind::Data {
            return None;
        }
        // Reverse packets arrive on the pseudo-sources' reverse flow ids
        // (borrowed in place — this runs once per received packet).
        if !self.graph.reverse_flow_ids[0].contains(&packet.header.flow_id) {
            return None;
        }
        let seq = packet.header.seq;
        let d = self.graph.params.split;
        // Parse before admitting: a packet with no CRC-valid slice
        // allocates no gather state (cheap chaff cannot occupy the cap).
        let mut slices = Vec::new();
        for slot in packet.slots() {
            if slot.len() < d + 4 {
                continue;
            }
            if let Some(payload) = crc::check_crc(slot) {
                if let Some(slice) = InfoSlice::from_bytes(d, slot.len() - d - 4, payload) {
                    slices.push(slice);
                }
            }
        }
        if slices.is_empty() {
            return None;
        }
        let entry = self.reverse.admit(seq)?;
        if !entry.0.insert((pseudo_source, from)) {
            return None;
        }
        entry.1.extend(slices);
        if entry.1.len() >= d {
            if let Ok(sealed) = coder::decode(&entry.1, d) {
                if let Ok(plaintext) = self.dest_sealer.open_owned(sealed) {
                    self.reverse.finish(seq);
                    return self.stream_consume(seq, plaintext);
                }
            }
        }
        None
    }

    /// Decode a control packet addressed to the source (a stage-0
    /// reverse flow id): sealed FLOW_FAILED reports name dead relays.
    fn handle_control(&mut self, packet: &Packet) {
        if !self.graph.reverse_flow_ids[0].contains(&packet.header.flow_id) {
            return;
        }
        let Some((control::FLOW_FAILED, sealed)) = control::parse(packet) else {
            return;
        };
        // The reporter sealed the address under its own secret key; the
        // source issued every key in the graph, so trying each is cheap
        // (L·d′ AEAD opens) and authenticates the report. The per-key
        // sealers (subkey derivations + HMAC midstates) are cached
        // across reports — a churn burst delivers many, and re-deriving
        // L·d′ subkey sets per report would dwarf the opens themselves.
        if self.issued_sealers.is_empty() {
            self.issued_sealers = self
                .graph
                .keys
                .iter()
                .flatten()
                .map(SealingKey::new)
                .collect();
        }
        for sealer in &self.issued_sealers {
            if let Ok(bytes) = sealer.open(sealed) {
                let Ok(addr_bytes) = <[u8; 8]>::try_from(bytes.as_slice()) else {
                    return;
                };
                let dead = OverlayAddr::from_bytes(addr_bytes);
                // Stragglers naming already-replaced nodes (reports
                // still washing up the reverse path) are ignored:
                // only a relay in the *current* graph can fail.
                if self.graph.relay_addrs().any(|a| a == dead)
                    && dead != self.graph.dest_addr()
                {
                    self.failed.insert(dead);
                }
                return;
            }
        }
    }

    /// Relays reported dead (and not yet repaired around).
    pub fn failed_nodes(&self) -> &HashSet<OverlayAddr> {
        &self.failed
    }

    /// Whether any relay of the live graph has been reported dead.
    pub fn needs_repair(&self) -> bool {
        !self.failed.is_empty()
    }

    /// Setup packets emitted so far (initial establishment plus every
    /// repair) — lets tests assert a repair re-keyed only the affected
    /// paths.
    pub fn setup_packets_sent(&self) -> u64 {
        self.setup_packets_sent
    }

    /// Periodic source-side work: liveness announcements to the stage-1
    /// relays (every [`SourceConfig::keepalive_ms`]) and stream-window
    /// driving ([`pump`](SourceSession::pump) — retransmits and paced
    /// chunk emission). Drive this from the daemon's timer alongside
    /// feeding received packets in; [`next_due`](SourceSession::next_due)
    /// says when the next call is actually needed.
    pub fn poll(&mut self, now: Tick) -> Vec<SendInstr> {
        let mut sends = self.pump(now);
        sends.extend(self.keepalives(now));
        sends
    }

    /// Emit keepalives to the stage-1 relays when the interval elapsed.
    fn keepalives(&mut self, now: Tick) -> Vec<SendInstr> {
        let interval = self.config.keepalive_ms;
        if interval == 0 {
            return Vec::new();
        }
        if let Some(last) = self.last_keepalive {
            if now.0 < last.0 + interval {
                return Vec::new();
            }
        }
        self.last_keepalive = Some(now);
        let dp = self.graph.params.paths;
        let mut sends = Vec::with_capacity(dp * dp);
        for i in 0..dp {
            for v in 0..dp {
                sends.push(SendInstr {
                    from: self.graph.stages[0][i],
                    to: self.graph.stages[1][v],
                    // Token = the pseudo-source's reverse flow id, as
                    // held in the stage-1 relay's parent list.
                    packet: control::keepalive(
                        self.graph.flow_ids[1][v],
                        self.graph.reverse_flow_ids[0][i],
                    ),
                });
            }
        }
        sends
    }

    /// Re-run Algorithm 1 around the reported-dead relays
    /// ([`build::rebuild_excluding`]) and splice the new routes into the
    /// live flow. Returns the targeted re-setup packets to transmit:
    /// `d′` clean setup packets per *affected* relay only (the
    /// replacements and the dead nodes' direct neighbours), sent
    /// straight from the pseudo-sources. Survivors authenticate the
    /// update against their flow's secret key and splice the new
    /// neighbour lists in place; replacements establish as fresh flows.
    /// Unaffected relays receive nothing.
    ///
    /// Messages in flight through the dead relay are not resent here:
    /// the streaming window retransmits its unacknowledged chunks, and
    /// a driver of raw messages resends each one it has not seen
    /// delivered through [`SourceSession::retransmit`], in the same
    /// batch as these packets.
    ///
    /// `spares` are candidate replacement relays; addresses already in
    /// the graph (or themselves reported dead) are skipped.
    pub fn repair(&mut self, spares: &[OverlayAddr]) -> Result<Vec<SendInstr>, GraphError> {
        let failed = std::mem::take(&mut self.failed);
        let (graph, blueprint, affected) =
            match build::rebuild_excluding(&self.graph, &failed, spares, &mut self.rng) {
                Ok(ok) => ok,
                Err(e) => {
                    self.failed = failed;
                    return Err(e);
                }
            };
        let d = graph.params.split;
        let dp = graph.params.paths;
        let mut sends = Vec::new();
        for pos in &affected {
            // The update a relay applies in place (or, for a
            // replacement, establishes from): correct parents/children
            // and maps, but no downstream slices to forward — repair
            // setup is delivered directly to each affected node.
            let mut info: NodeInfo = blueprint.infos[pos.stage][pos.index].clone();
            info.out_real_slots = 0;
            info.slice_map = Vec::new();
            let coded = coder::encode(&info.encode(), d, dp, &mut self.rng);
            let slot_len = d + coded.block_len + 4;
            for (i, slice) in coded.slices.iter().enumerate() {
                let mut builder = PacketBuilder::new(PacketHeader {
                    kind: PacketKind::Setup,
                    flow_id: graph.flow_ids[pos.stage][pos.index],
                    seq: 0,
                    d: d as u8,
                    slot_count: 1,
                    slot_len: slot_len as u16,
                });
                let slot = builder.slot();
                slot[..d].copy_from_slice(&slice.coeffs);
                slot[d..d + coded.block_len].copy_from_slice(&slice.payload);
                crc::write_crc(slot);
                sends.push(SendInstr {
                    from: graph.stages[0][i % dp],
                    to: graph.stages[pos.stage][pos.index],
                    packet: builder.build(),
                });
            }
        }
        self.setup_packets_sent += sends.len() as u64;
        self.graph = graph;
        // The repair re-keyed part of the graph: rebuild the cached
        // destination sealer and drop the issued-key sealers (rebuilt
        // lazily from the new key set on the next report).
        self.dest_sealer = SealingKey::new(self.graph.dest_key());
        self.issued_sealers.clear();
        Ok(sends)
    }

    /// Re-encode and re-address message `seq` from the `plaintext` the
    /// caller kept (fresh coded slices over the *current* graph). The
    /// session never stored it, so the caller must pass the bytes it
    /// first sent under `seq`; like [`SourceSession::send_message`] it
    /// refuses a plaintext over [`Self::max_chunk_len`] with
    /// [`SessionError::Oversize`].
    ///
    /// Drivers use this to retry messages the destination has not
    /// acknowledged — e.g. a message whose slices were in flight through
    /// a relay when it died (resend it after
    /// [`repair`](SourceSession::repair)), or a retransmission that
    /// raced a gather's duplicate-suppression window. Delivery stays
    /// at-most-once (the destination's replay guard).
    pub fn retransmit(
        &mut self,
        seq: u32,
        plaintext: &[u8],
    ) -> Result<Vec<SendInstr>, SessionError> {
        self.check_fits(plaintext)?;
        Ok(self.encode_message(seq, plaintext))
    }

    /// All addresses this session's pseudo-sources use.
    pub fn pseudo_sources(&self) -> &[OverlayAddr] {
        &self.graph.stages[0]
    }

    /// Random convenience access for drivers that need additional
    /// source-side randomness (e.g. jitter).
    pub fn rng(&mut self) -> &mut impl Rng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicing_graph::DestPlacement;

    fn addrs(base: u64, n: usize) -> Vec<OverlayAddr> {
        (0..n as u64).map(|i| OverlayAddr(base + i)).collect()
    }

    fn session(l: usize, d: usize, dp: usize) -> (SourceSession, Vec<SendInstr>) {
        let params = GraphParams::new(l, d)
            .with_paths(dp)
            .with_dest_placement(DestPlacement::LastStage);
        SourceSession::establish(
            params,
            &addrs(10_000, dp),
            &addrs(20_000, l * dp + 8),
            OverlayAddr(1),
            7,
        )
        .unwrap()
    }

    #[test]
    fn establish_emits_setup_packets() {
        let (s, setup) = session(4, 2, 3);
        assert_eq!(setup.len(), 9); // d'^2
        assert_eq!(s.graph().params.length, 4);
    }

    #[test]
    fn send_message_emits_dp_squared_packets() {
        let (mut s, _) = session(4, 2, 3);
        let (seq, sends) = s.send_message(b"hello").unwrap();
        assert_eq!(seq, 0);
        assert_eq!(sends.len(), 9);
        let (seq2, _) = s.send_message(b"world").unwrap();
        assert_eq!(seq2, 1);
    }

    #[test]
    fn data_packets_fit_budget() {
        let (mut s, _) = session(5, 3, 3);
        let chunk = vec![0xAB; s.max_chunk_len()];
        let (_, sends) = s.send_message(&chunk).unwrap();
        for send in sends {
            assert!(
                send.packet.encode().len() <= 1500,
                "packet {} exceeds budget",
                send.packet.encode().len()
            );
        }
    }

    #[test]
    fn oversize_message_is_typed_error() {
        let (mut s, _) = session(5, 2, 2);
        let max = s.max_chunk_len();
        let too_big = vec![0u8; max + 1];
        assert_eq!(
            s.send_message(&too_big).unwrap_err(),
            crate::session::SessionError::Oversize { len: max + 1, max },
        );
        // The session stays usable — no seq was consumed.
        let (seq, _) = s.send_message(b"still fine").unwrap();
        assert_eq!(seq, 0);
    }

    #[test]
    fn retransmit_reencodes_the_callers_bytes_under_the_same_seq() {
        let (mut s, _) = session(4, 2, 3);
        let (seq, first) = s.send_message(b"hello").unwrap();
        let again = s.retransmit(seq, b"hello").unwrap();
        assert_eq!(again.len(), first.len());
        assert!(again.iter().all(|x| x.packet.header.seq == seq));
        let max = s.max_chunk_len();
        assert_eq!(
            s.retransmit(seq, &vec![0u8; max + 1]).unwrap_err(),
            crate::session::SessionError::Oversize { len: max + 1, max },
        );
        // Retransmissions consume no seq.
        let (next, _) = s.send_message(b"world").unwrap();
        assert_eq!(next, seq + 1);
    }

    #[test]
    fn map_mode_sends_each_slice_once_per_stage1_node() {
        let params = GraphParams::new(3, 2)
            .with_paths(3)
            .with_data_mode(slicing_graph::DataMode::Map);
        let (mut s, _) = SourceSession::establish(
            params,
            &addrs(10_000, 3),
            &addrs(20_000, 30),
            OverlayAddr(1),
            9,
        )
        .unwrap();
        let (_, sends) = s.send_message(b"map mode").unwrap();
        // Every stage-1 relay receives 3 distinct coefficient rows.
        for v in 0..3usize {
            let to = s.graph().stages[1][v];
            let rows: HashSet<Vec<u8>> = sends
                .iter()
                .filter(|x| x.to == to)
                .map(|x| x.packet.slot(0)[..2].to_vec())
                .collect();
            assert_eq!(rows.len(), 3, "stage-1 node {v} got duplicate slices");
        }
    }
}
