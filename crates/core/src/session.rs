//! The session layer: first-class endpoints over the relay data plane.
//!
//! Everything below the session layer moves *packets*; this module moves
//! *messages of arbitrary length* between one source and one
//! destination, multiplexing thousands of such conversations over a
//! single node:
//!
//! * **Streaming** — [`SourceSession::send`] accepts any payload length,
//!   chunks it across sequenced protocol messages (each chunk rides the
//!   existing per-seq slicing path) and drives a bounded
//!   pacing/retransmit window. Chunk framing lives *inside* the AEAD
//!   plaintext, so relays cannot distinguish a 100-byte chat line from a
//!   megabyte transfer beyond packet count.
//! * [`DestSession`] — the destination endpoint of one flow. In the paper
//!   a destination is a relay that happens to decode (§4.3.5), so slice
//!   gathering, recombination and decryption stay in the relay
//!   ([`crate::RelayOutput::received`]); the session consumes the
//!   decrypted chunks: frame parsing → constant-space replay guard →
//!   in-order message reassembly, plus reverse-path acknowledgements and
//!   application replies.
//! * [`DestHost`] — the destination role of one relay: every receiver
//!   flow the relay establishes gets a [`DestSession`], fed from the
//!   relay's own output. The overlay daemon runs one per relay shard
//!   worker; the test harnesses run the same host next to a
//!   [`crate::ShardedRelay`].
//! * [`SessionManager`] — source endpoints multiplexed at scale:
//!   sessions are sharded by session id exactly like
//!   [`crate::ShardedRelay`] shards flows (per-shard maps and
//!   [`TimerWheel`], shared atomic [`SessionStatsAtomic`]), with
//!   per-session buffer quotas so one slow or hostile session exerts
//!   backpressure on itself, never on its shard.
//!
//! Per-session state is bounded by construction: the send window holds
//! at most [`SessionConfig::window_chunks`] unacked chunks plus a
//! byte-capped queue, the receive side caps reassembly bytes, and
//! completed messages leave nothing behind — the replay guard
//! (watermark + bitmap) remembers delivery in constant space after the
//! per-message state is gone.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use rand::rngs::StdRng;
use rand::SeedableRng;

use slicing_codec::coder;
use slicing_crypto::SealingKey;
use slicing_graph::packets::SendInstr;
use slicing_graph::{NodeInfo, OverlayAddr};
use slicing_wire::{crc, FlowId, Packet, PacketBuilder, PacketHeader, PacketKind};

use crate::relay::{RelayOutput, RelayStatsAtomic};
use crate::replay::ReplayGuard;
use crate::source::SourceSession;
use crate::time::Tick;
use crate::wheel::TimerWheel;

/// Timer-wheel bucket width for session shards (matching the relay
/// wheel). Entries fire exactly at their deadline and drivers sleep until
/// [`SessionShard::next_deadline`], so the width sets scan cost only.
const WHEEL_GRANULARITY_MS: u64 = 50;
/// Timer-wheel bucket count (12.8 s horizon; longer deadlines ride
/// across rotations).
const WHEEL_BUCKETS: usize = 256;

// ---- errors ---------------------------------------------------------------

/// Typed session-layer failures. Everything here is a *caller* problem
/// (too big, too fast, wrong id) surfaced as a `Result` — the session
/// engine itself never panics on application input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// The payload cannot be expressed in the available chunk space
    /// (single-packet callers: larger than
    /// [`SourceSession::max_chunk_len`]; streaming callers: more than
    /// 65 535 chunks).
    Oversize {
        /// Offered payload length.
        len: usize,
        /// Largest accepted length.
        max: usize,
    },
    /// The session's send buffer is full; retry after in-flight chunks
    /// are acknowledged. This is the per-session backpressure bound —
    /// a slow session fills its own quota, not its shard's.
    Backpressure {
        /// Bytes currently buffered (queued + in flight).
        buffered: usize,
        /// The session's buffer quota.
        quota: usize,
    },
    /// The shard's session quota is exhausted.
    TooManySessions {
        /// The per-shard limit that was hit.
        limit: usize,
    },
    /// No session with that id (closed, or never opened here).
    UnknownSession,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Oversize { len, max } => {
                write!(f, "payload of {len} bytes exceeds the limit of {max}")
            }
            SessionError::Backpressure { buffered, quota } => {
                write!(f, "send buffer full ({buffered}/{quota} bytes)")
            }
            SessionError::TooManySessions { limit } => {
                write!(f, "shard session quota ({limit}) exhausted")
            }
            SessionError::UnknownSession => write!(f, "unknown session id"),
        }
    }
}

impl std::error::Error for SessionError {}

// ---- configuration --------------------------------------------------------

/// Tunables for one session endpoint (either side).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionConfig {
    /// Maximum unacknowledged chunks in flight (clamped to 64, the ack
    /// bitmap width).
    pub window_chunks: usize,
    /// Most fresh chunks emitted per pump; further chunks wait
    /// [`pace_ms`](SessionConfig::pace_ms) — the wheel-driven pacing
    /// that keeps one bulk sender from bursting its whole window into
    /// the first-hop queues.
    pub burst_chunks: usize,
    /// Minimum spacing between emission bursts.
    pub pace_ms: u64,
    /// Retransmit an unacknowledged chunk after this long. Must exceed
    /// the relays' per-seq tombstone, or retries are swallowed as
    /// duplicates: a gather is kept until `data_flush_ms` after its first
    /// slice, and until `2 × data_flush_ms` when it had to time out (a
    /// lost slice). On a healthy path acks return at forward speed, so
    /// this bound, not the ack latency, sets the floor.
    pub retransmit_ms: u64,
    /// Per-session cap on buffered send bytes (queued + in flight);
    /// [`SourceSession::send`] returns [`SessionError::Backpressure`]
    /// beyond it.
    pub send_buffer_bytes: usize,
    /// Acknowledge after this many newly delivered chunks, even if the
    /// ack timer has not fired.
    pub ack_every_chunks: usize,
    /// Acknowledge pending delivery state at least this often.
    pub ack_interval_ms: u64,
    /// Per-session cap on reassembly bytes (partial and
    /// completed-but-out-of-order messages, plus each partial message's
    /// per-chunk bookkeeping). Chunks beyond it are dropped *unacked*,
    /// so the source retries them later — except chunks of the next
    /// message due for delivery, which are always admitted.
    pub reassembly_bytes: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            window_chunks: 32,
            burst_chunks: 16,
            pace_ms: 5,
            retransmit_ms: 1_500,
            send_buffer_bytes: 512 * 1024,
            ack_every_chunks: 4,
            ack_interval_ms: 150,
            reassembly_bytes: 1024 * 1024,
        }
    }
}

impl SessionConfig {
    /// The window size actually used (the ack bitmap covers 64 seqs).
    pub(crate) fn window(&self) -> usize {
        self.window_chunks.clamp(1, 64)
    }
}

// ---- chunk framing --------------------------------------------------------
//
// Stream frames live inside the AEAD plaintext of a protocol message, so
// relays (and any observer) see only opaque fixed-shape slices. A
// plaintext that parses as none of these is a legacy raw message and is
// surfaced unchanged.

pub(crate) const FRAME_DATA: u8 = 0xD1;
pub(crate) const FRAME_ACK: u8 = 0xA1;
pub(crate) const FRAME_REPLY: u8 = 0xE1;
/// `op ‖ msg_id(4) ‖ chunk_idx(2) ‖ chunk_count(2)`.
pub(crate) const DATA_HEADER_LEN: usize = 9;

pub(crate) enum Frame<'a> {
    /// One chunk of stream message `msg_id`.
    Data {
        msg_id: u32,
        idx: u16,
        count: u16,
        chunk: &'a [u8],
    },
    /// Cumulative ack: every chunk seq `< cum` delivered; bit `i` of
    /// `bits` means seq `cum + 1 + i` delivered too.
    Ack { cum: u32, bits: u64 },
    /// A destination-originated application reply.
    Reply { id: u32, payload: &'a [u8] },
}

pub(crate) fn data_frame(msg_id: u32, idx: u16, count: u16, chunk: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(DATA_HEADER_LEN + chunk.len());
    out.push(FRAME_DATA);
    out.extend_from_slice(&msg_id.to_le_bytes());
    out.extend_from_slice(&idx.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(chunk);
    out
}

pub(crate) fn ack_frame(cum: u32, bits: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(13);
    out.push(FRAME_ACK);
    out.extend_from_slice(&cum.to_le_bytes());
    out.extend_from_slice(&bits.to_le_bytes());
    out
}

pub(crate) fn reply_frame(id: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + payload.len());
    out.push(FRAME_REPLY);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

pub(crate) fn parse_frame(plain: &[u8]) -> Option<Frame<'_>> {
    match *plain.first()? {
        FRAME_DATA if plain.len() >= DATA_HEADER_LEN => {
            let msg_id = u32::from_le_bytes(plain[1..5].try_into().ok()?);
            let idx = u16::from_le_bytes(plain[5..7].try_into().ok()?);
            let count = u16::from_le_bytes(plain[7..9].try_into().ok()?);
            if count == 0 || idx >= count {
                return None;
            }
            Some(Frame::Data {
                msg_id,
                idx,
                count,
                chunk: &plain[DATA_HEADER_LEN..],
            })
        }
        FRAME_ACK if plain.len() == 13 => Some(Frame::Ack {
            cum: u32::from_le_bytes(plain[1..5].try_into().ok()?),
            bits: u64::from_le_bytes(plain[5..13].try_into().ok()?),
        }),
        FRAME_REPLY if plain.len() >= 5 => Some(Frame::Reply {
            id: u32::from_le_bytes(plain[1..5].try_into().ok()?),
            payload: &plain[5..],
        }),
        _ => None,
    }
}

// ---- source-side streaming ------------------------------------------------

/// One framed chunk waiting to enter the window.
#[derive(Debug)]
pub(crate) struct PendingChunk {
    pub(crate) msg_id: u32,
    pub(crate) frame: Vec<u8>,
}

/// One framed chunk in flight (sent, unacked).
#[derive(Debug)]
pub(crate) struct InFlight {
    pub(crate) seq: u32,
    pub(crate) msg_id: u32,
    pub(crate) frame: Vec<u8>,
    pub(crate) due: Tick,
}

/// The per-message half of a streaming source: everything that exists
/// only while messages are in flight. [`SourceSession`] holds the
/// durable half (graph, keys, flow ids, RNG); this window comes and
/// goes with traffic and is empty — zero retained bytes — once every
/// message has been acknowledged.
#[derive(Debug, Default)]
pub(crate) struct StreamState {
    pub(crate) config: SessionConfig,
    pub(crate) next_msg_id: u32,
    /// Framed chunks not yet admitted to the window (paced).
    pub(crate) queue: std::collections::VecDeque<PendingChunk>,
    /// Sent, unacknowledged chunks (≤ the window size).
    pub(crate) in_flight: Vec<InFlight>,
    /// Bytes across `queue` + `in_flight`.
    pub(crate) buffered_bytes: usize,
    /// Chunks outstanding per unacked message (drops to empty as
    /// messages complete — no per-message residue).
    pub(crate) msg_chunks_left: HashMap<u32, u32>,
    /// Earliest next emission (pacing).
    pub(crate) next_pace: Tick,
    /// Transport-imposed pacing floor, ms (0 = none). The effective
    /// inter-burst gap is `max(config.pace_ms, pace_override_ms)`, so a
    /// congested transport can slow admission below the configured rate
    /// without rewriting the session's config.
    pub(crate) pace_override_ms: u64,
    /// Fully acknowledged message ids, drained by the driver.
    pub(crate) acked_msgs: Vec<u32>,
    /// Replies received from the destination, drained by the driver.
    pub(crate) replies: Vec<(u32, Vec<u8>)>,
    /// Chunks emitted since the last metrics drain.
    pub(crate) chunks_sent: u64,
    /// Retransmissions since the last metrics drain.
    pub(crate) retransmits: u64,
}

// The `Default` above needs SessionConfig: fine, derived via impl below.

impl StreamState {
    pub(crate) fn idle(&self) -> bool {
        self.queue.is_empty() && self.in_flight.is_empty()
    }
}

/// Streaming extensions on the source endpoint (the per-message window
/// machinery lives in `StreamState`; these methods orchestrate it
/// against the durable session).
impl SourceSession {
    /// Override the stream configuration (window, pacing, retransmit,
    /// buffer quota).
    pub fn set_session_config(&mut self, config: SessionConfig) {
        self.stream.config = config;
    }

    /// Impose (or clear, with 0) a transport pacing floor in
    /// milliseconds: the effective inter-burst gap becomes
    /// `max(config.pace_ms, ms)`. Driven by the transport's congestion
    /// controller — a UDP port under delay pressure quotes a hint here
    /// so sources stop outrunning the wire.
    pub fn set_pace_override(&mut self, ms: u64) {
        self.stream.pace_override_ms = ms;
    }

    /// Largest payload [`SourceSession::send`] accepts: 65 535 chunks of
    /// the per-packet chunk space.
    pub fn max_stream_len(&self) -> usize {
        self.stream_chunk_len() * u16::MAX as usize
    }

    /// Plaintext bytes of one stream chunk: the per-packet budget
    /// ([`SourceSession::max_chunk_len`]) minus the in-plaintext frame
    /// header. A payload of `n` bytes spans `ceil(n / stream_chunk_len)`
    /// sequenced messages.
    pub fn stream_chunk_len(&self) -> usize {
        self.max_chunk_len().saturating_sub(DATA_HEADER_LEN).max(1)
    }

    /// Queue `payload` as one stream message of any length: it is split
    /// into sequenced chunks, paced into a bounded in-flight window and
    /// retransmitted until the destination acknowledges each chunk.
    /// Returns the message id plus the packets to transmit now (the
    /// remainder is emitted by later [`poll`](SourceSession::poll) /
    /// [`pump`](SourceSession::pump) calls as the window opens).
    ///
    /// Errors are typed: [`SessionError::Oversize`] when the payload
    /// cannot fit 65 535 chunks, [`SessionError::Backpressure`] when the
    /// session's send buffer is full (per-session quota — retry after
    /// acks drain the window).
    pub fn send(
        &mut self,
        now: Tick,
        payload: &[u8],
    ) -> Result<(u32, Vec<SendInstr>), SessionError> {
        let chunk_len = self.stream_chunk_len();
        let count = payload.len().div_ceil(chunk_len).max(1);
        if count > u16::MAX as usize {
            return Err(SessionError::Oversize {
                len: payload.len(),
                max: self.max_stream_len(),
            });
        }
        let framed = payload.len() + count * DATA_HEADER_LEN;
        let quota = self.stream.config.send_buffer_bytes;
        if self.stream.buffered_bytes + framed > quota {
            return Err(SessionError::Backpressure {
                buffered: self.stream.buffered_bytes,
                quota,
            });
        }
        let msg_id = self.stream.next_msg_id;
        self.stream.next_msg_id = self.stream.next_msg_id.wrapping_add(1);
        if payload.is_empty() {
            self.stream.queue.push_back(PendingChunk {
                msg_id,
                frame: data_frame(msg_id, 0, 1, &[]),
            });
        } else {
            for (idx, chunk) in payload.chunks(chunk_len).enumerate() {
                self.stream.queue.push_back(PendingChunk {
                    msg_id,
                    frame: data_frame(msg_id, idx as u16, count as u16, chunk),
                });
            }
        }
        self.stream.buffered_bytes += framed;
        self.stream.msg_chunks_left.insert(msg_id, count as u32);
        Ok((msg_id, self.pump(now)))
    }

    /// Drive the stream window: retransmit overdue chunks and emit
    /// queued chunks into whatever window room is open (paced). Called
    /// from [`poll`](SourceSession::poll); drivers that want minimum
    /// latency call it directly after feeding acks in.
    pub fn pump(&mut self, now: Tick) -> Vec<SendInstr> {
        let mut sends = Vec::new();
        // Retransmits: the window is ≤ 64 entries, a scan is cheap.
        let retransmit_ms = self.stream.config.retransmit_ms;
        for i in 0..self.stream.in_flight.len() {
            if self.stream.in_flight[i].due.0 > now.0 {
                continue;
            }
            let seq = self.stream.in_flight[i].seq;
            let frame = std::mem::take(&mut self.stream.in_flight[i].frame);
            sends.extend(self.encode_message(seq, &frame));
            self.stream.in_flight[i].frame = frame;
            self.stream.in_flight[i].due = now.plus(retransmit_ms);
            self.stream.retransmits += 1;
        }
        // Fresh emissions, paced.
        if now.0 >= self.stream.next_pace.0 {
            let window = self.stream.config.window();
            // The ack bitmap covers 64 seqs; a wider window (or more
            // in-flight chunks — possible only if a mid-stream config
            // override mishandled a shrink) would let acked chunks
            // alias unacked ones.
            debug_assert!(window <= 64, "window exceeds the ack-bitmap cap");
            debug_assert!(
                self.stream.in_flight.len() <= 64,
                "in-flight chunks exceed the ack-bitmap cap"
            );
            let burst = self.stream.config.burst_chunks.max(1);
            let mut emitted = 0;
            while emitted < burst
                && self.stream.in_flight.len() < window
                && !self.stream.queue.is_empty()
            {
                let chunk = self.stream.queue.pop_front().expect("checked non-empty");
                let (seq, s) = self.send_raw(&chunk.frame);
                sends.extend(s);
                self.stream.in_flight.push(InFlight {
                    seq,
                    msg_id: chunk.msg_id,
                    frame: chunk.frame,
                    due: now.plus(retransmit_ms),
                });
                self.stream.chunks_sent += 1;
                emitted += 1;
            }
            // Pacing gates *between bursts*; a window-full stall is
            // woken by the ack that opens it (or a retransmit), not by
            // the pace timer — re-arming here would busy-wake every
            // backlogged session for nothing.
            if emitted > 0 && !self.stream.queue.is_empty() {
                let pace = self.stream.config.pace_ms.max(self.stream.pace_override_ms);
                self.stream.next_pace = now.plus(pace);
            }
        }
        sends
    }

    /// Feed a decoded reverse-path plaintext through the stream layer:
    /// acks and replies are consumed (`None`), anything else is a legacy
    /// raw reverse message and passes through.
    pub(crate) fn stream_consume(
        &mut self,
        seq: u32,
        plaintext: Vec<u8>,
    ) -> Option<(u32, Vec<u8>)> {
        match parse_frame(&plaintext) {
            Some(Frame::Ack { cum, bits }) => {
                self.apply_ack(cum, bits);
                None
            }
            Some(Frame::Reply { id, payload }) => {
                self.stream.replies.push((id, payload.to_vec()));
                None
            }
            // Stream data frames never travel source-ward; treat as raw.
            Some(Frame::Data { .. }) | None => Some((seq, plaintext)),
        }
    }

    /// Apply an ack frame: drop acknowledged chunks from the window and
    /// record message completions.
    fn apply_ack(&mut self, cum: u32, bits: u64) {
        let StreamState {
            in_flight,
            msg_chunks_left,
            acked_msgs,
            buffered_bytes,
            ..
        } = &mut self.stream;
        in_flight.retain(|f| {
            let acked = f.seq < cum
                || (f.seq > cum && f.seq - cum - 1 < 64 && (bits >> (f.seq - cum - 1)) & 1 == 1);
            if acked {
                *buffered_bytes = buffered_bytes.saturating_sub(f.frame.len());
                if let Some(left) = msg_chunks_left.get_mut(&f.msg_id) {
                    *left -= 1;
                    if *left == 0 {
                        msg_chunks_left.remove(&f.msg_id);
                        acked_msgs.push(f.msg_id);
                    }
                }
            }
            !acked
        });
    }

    /// When this session next needs driving (retransmit, paced
    /// emission, or keepalive). `None` when fully idle. Session shards
    /// use this to wheel-schedule wakeups instead of polling every
    /// session every tick.
    pub fn next_due(&self) -> Option<Tick> {
        let mut due: Option<Tick> = None;
        let mut consider = |t: Tick| {
            due = Some(due.map_or(t, |d: Tick| if t.0 < d.0 { t } else { d }));
        };
        for f in &self.stream.in_flight {
            consider(f.due);
        }
        // Queued chunks only need a pace wake while the window has
        // room; a full window is opened by acks, which pump directly.
        if !self.stream.queue.is_empty()
            && self.stream.in_flight.len() < self.stream.config.window()
        {
            consider(self.stream.next_pace);
        }
        if self.config.keepalive_ms > 0 {
            consider(
                self.last_keepalive
                    .map_or(Tick::ZERO, |l| l.plus(self.config.keepalive_ms)),
            );
        }
        due
    }

    /// Whether the stream has nothing queued or in flight (every sent
    /// message fully acknowledged — the "no per-message state retained"
    /// invariant is directly observable here).
    pub fn stream_idle(&self) -> bool {
        self.stream.idle()
    }

    /// Chunks currently in flight (sent, unacknowledged).
    pub fn stream_in_flight(&self) -> usize {
        self.stream.in_flight.len()
    }

    /// Bytes buffered for transmission (queued + in flight).
    pub fn stream_buffered_bytes(&self) -> usize {
        self.stream.buffered_bytes
    }

    /// Drain the ids of messages fully acknowledged since the last call.
    pub fn pop_acked_msgs(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.stream.acked_msgs)
    }

    /// Drain replies received from the destination since the last call.
    pub fn pop_replies(&mut self) -> Vec<(u32, Vec<u8>)> {
        std::mem::take(&mut self.stream.replies)
    }

    /// Drain `(chunks_sent, retransmits)` accumulated since the last
    /// call (shard stats accounting).
    pub fn take_stream_metrics(&mut self) -> (u64, u64) {
        let m = (self.stream.chunks_sent, self.stream.retransmits);
        self.stream.chunks_sent = 0;
        self.stream.retransmits = 0;
        m
    }
}

// ---- destination-side session --------------------------------------------

/// Everything one `handle_delivery`/`handle_replay`/`poll` call on a
/// [`DestSession`] wants to tell the driver.
#[derive(Clone, Debug, Default)]
pub struct DestOutput {
    /// Packets to transmit (acknowledgements and replies, addressed to
    /// the flow's parents on their reverse flow ids).
    pub sends: Vec<SendInstr>,
    /// Stream messages completed this call, in order: `(msg_id, bytes)`.
    pub messages: Vec<(u32, Vec<u8>)>,
    /// Unframed (pre-streaming) messages decoded this call:
    /// `(seq, bytes)`.
    pub raw: Vec<(u32, Vec<u8>)>,
    /// Newly delivered chunks this call (stats accounting).
    pub chunks: usize,
    /// Chunks dropped this call (quota or malformed — stats accounting).
    pub dropped: usize,
}

impl DestOutput {
    /// Append another call's output.
    pub fn merge(&mut self, other: DestOutput) {
        self.sends.extend(other.sends);
        self.messages.extend(other.messages);
        self.raw.extend(other.raw);
        self.chunks += other.chunks;
        self.dropped += other.dropped;
    }
}

/// Resident per-session receive state — exposed so tests and benches can
/// assert the "no per-message state retained after delivery" invariant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DestResident {
    /// Messages with some but not all chunks.
    pub partial_msgs: usize,
    /// Completed messages held for in-order release.
    pub ready_msgs: usize,
    /// Bytes charged to the reassembly quota: chunk bytes across
    /// partial and held messages plus the partial messages' per-chunk
    /// bookkeeping.
    pub reassembly_bytes: usize,
}

/// One partially reassembled stream message.
#[derive(Debug)]
struct Reassembly {
    count: u16,
    got: u16,
    parts: Vec<Option<Vec<u8>>>,
}

/// Quota charge of a [`Reassembly`]'s `parts` table for a `count`-chunk
/// message, held from the entry's creation until it completes.
fn parts_cost(count: u16) -> usize {
    count as usize * std::mem::size_of::<Option<Vec<u8>>>()
}

/// The destination endpoint of one anonymous session (§4.3.5 applied at
/// the session layer). The relay that established the receiver flow
/// gathers, recombines and decrypts each sequenced chunk — and keeps
/// forwarding downstream, so neighbours cannot tell it is the
/// destination; the session takes the decrypted chunks
/// ([`DestSession::handle_delivery`]) and the replays the relay
/// suppressed ([`DestSession::handle_replay`]), reassembles chunks into
/// in-order messages, and speaks the reverse path — acknowledgements for
/// the source's retransmit window and application replies.
///
/// Construction needs the flow's decoded [`NodeInfo`], from the relay
/// that established it ([`crate::ShardedRelay::flow_info`]); a
/// [`DestHost`] does exactly that for every receiver flow of its relay.
pub struct DestSession {
    addr: OverlayAddr,
    info: NodeInfo,
    /// Cached sealing state for the flow's secret key (subkeys + HMAC
    /// midstates derived once; rebuilt by [`DestSession::set_info`]).
    sealer: SealingKey,
    /// Reusable seal output buffer for reverse frames.
    seal_buf: Vec<u8>,
    config: SessionConfig,
    rng: StdRng,
    /// Chunk seqs delivered (constant space).
    delivered: ReplayGuard,
    /// Every chunk seq `< cum` is delivered (ack watermark).
    cum: u32,
    reasm: HashMap<u32, Reassembly>,
    reasm_bytes: usize,
    /// Next stream message id to release (in-order delivery).
    next_deliver: u32,
    /// Completed messages waiting for earlier ids.
    ready: BTreeMap<u32, Vec<u8>>,
    next_reverse_seq: u32,
    /// Newly delivered chunks since the last ack.
    unacked: usize,
    /// Whether any state changed that the source should hear about.
    pending_ack: bool,
    last_ack: Option<Tick>,
    /// Last delivery activity (idle GC in drivers).
    last_activity: Tick,
}

impl DestSession {
    /// Create the destination endpoint for `flow` at `addr`, from the
    /// flow's decoded info. `seed` may be shared by every session of a
    /// node: the flow id is mixed in here (and only here), so sessions
    /// draw distinct nonce and coding-coefficient streams.
    pub fn new(addr: OverlayAddr, flow: FlowId, info: NodeInfo, config: SessionConfig, seed: u64) -> Self {
        let sealer = SealingKey::new(&info.secret_key);
        DestSession {
            addr,
            info,
            sealer,
            seal_buf: Vec::new(),
            config,
            rng: StdRng::seed_from_u64(seed ^ flow.0),
            delivered: ReplayGuard::default(),
            cum: 0,
            reasm: HashMap::new(),
            reasm_bytes: 0,
            next_deliver: 0,
            ready: BTreeMap::new(),
            next_reverse_seq: 0,
            unacked: 0,
            pending_ack: false,
            last_ack: None,
            last_activity: Tick::ZERO,
        }
    }

    /// Splice repaired routing into the live session: a source-issued
    /// repair re-setup gave the flow new neighbour lists (the owning
    /// relay authenticated them against the flow's secret key), and the
    /// session's reverse traffic must follow — ack slices addressed to
    /// a replaced parent blackhole, and with `d′ = d` a single stale
    /// parent leaves the source unable to decode any ack ever again.
    ///
    /// Delivery state (replay guard, watermark, reassembly) is
    /// untouched; an ack is marked pending so the next poll re-announces
    /// the delivery state over the repaired routes immediately.
    pub fn set_info(&mut self, info: NodeInfo) {
        self.sealer = SealingKey::new(&info.secret_key);
        self.info = info;
        self.pending_ack = true;
    }

    /// Last delivery activity (drivers use this for idle GC).
    pub fn last_activity(&self) -> Tick {
        self.last_activity
    }

    /// Current resident receive state (bounded by configuration).
    pub fn resident(&self) -> DestResident {
        DestResident {
            partial_msgs: self.reasm.len(),
            ready_msgs: self.ready.len(),
            reassembly_bytes: self.reasm_bytes,
        }
    }

    /// Feed one message the relay gathered, recombined and decrypted for
    /// this receiver flow.
    pub fn handle_delivery(&mut self, now: Tick, seq: u32, plaintext: Vec<u8>) -> DestOutput {
        self.last_activity = now;
        if self.delivered.contains(seq) {
            self.pending_ack = true;
            return self.maybe_ack(now, false);
        }
        self.note_chunk(now, seq, plaintext)
    }

    /// The relay saw a replay of an already-delivered
    /// seq (its replay guard suppressed the duplicate delivery). The
    /// sender is retransmitting because an ack was lost — re-announce
    /// the delivery state so its window can drain.
    pub fn handle_replay(&mut self, now: Tick, seq: u32) -> DestOutput {
        self.last_activity = now;
        let _ = seq; // the cumulative ack covers it regardless
        self.pending_ack = true;
        self.maybe_ack(now, false)
    }

    /// Shared chunk path: replay-guard the seq, parse the frame, update
    /// reassembly, release completed messages in order, ack.
    fn note_chunk(&mut self, now: Tick, seq: u32, plaintext: Vec<u8>) -> DestOutput {
        let mut out = DestOutput::default();
        match parse_frame(&plaintext) {
            Some(Frame::Data {
                msg_id,
                idx,
                count,
                chunk,
            }) => {
                if msg_id < self.next_deliver {
                    // A fresh seq re-carrying an already-delivered
                    // message (retransmit raced its ack): mark and ack
                    // so the source stops resending, deliver nothing.
                    self.mark_delivered(seq);
                    out.chunks += 1;
                } else {
                    // The head message is always admitted: every held
                    // successor waits for it, so refusing it would wedge
                    // the stream. The quota overshoot is bounded by that
                    // one message.
                    let head = msg_id == self.next_deliver;
                    let quota = self.config.reassembly_bytes;
                    if !self.reasm.contains_key(&msg_id) {
                        // The `parts` table is sized by the source-chosen
                        // count, so it is charged like chunk bytes.
                        let cost = parts_cost(count);
                        if !head && self.reasm_bytes + cost + chunk.len() > quota {
                            // Reassembly quota: drop *unacked* so the
                            // source retries once earlier messages drained.
                            out.dropped += 1;
                            return out;
                        }
                        self.reasm_bytes += cost;
                        self.reasm.insert(
                            msg_id,
                            Reassembly {
                                count,
                                got: 0,
                                parts: vec![None; count as usize],
                            },
                        );
                    }
                    let r = self.reasm.get_mut(&msg_id).expect("present");
                    if r.count != count || r.parts[idx as usize].is_some() {
                        // Shape forgery or duplicate chunk under a fresh
                        // seq: ack the seq (it is delivered content-wise)
                        // but change nothing.
                        self.mark_delivered(seq);
                        out.chunks += 1;
                    } else {
                        if !head && self.reasm_bytes + chunk.len() > quota {
                            out.dropped += 1;
                            return out;
                        }
                        self.reasm_bytes += chunk.len();
                        r.parts[idx as usize] = Some(chunk.to_vec());
                        r.got += 1;
                        let complete = r.got == r.count;
                        self.mark_delivered(seq);
                        out.chunks += 1;
                        if complete {
                            let r = self.reasm.remove(&msg_id).expect("present");
                            self.reasm_bytes -= parts_cost(r.count);
                            let mut bytes =
                                Vec::with_capacity(r.parts.iter().flatten().map(Vec::len).sum());
                            for part in r.parts.into_iter().flatten() {
                                bytes.extend_from_slice(&part);
                            }
                            if msg_id == self.next_deliver {
                                self.reasm_bytes = self.reasm_bytes.saturating_sub(bytes.len());
                                out.messages.push((msg_id, bytes));
                                self.next_deliver += 1;
                                // Release any held successors.
                                while let Some(b) = self.ready.remove(&self.next_deliver) {
                                    self.reasm_bytes = self.reasm_bytes.saturating_sub(b.len());
                                    out.messages.push((self.next_deliver, b));
                                    self.next_deliver += 1;
                                }
                            } else {
                                // Completed early; hold (bytes stay under
                                // the reassembly quota) until the gap fills.
                                self.ready.insert(msg_id, bytes);
                            }
                        }
                    }
                }
            }
            Some(Frame::Ack { .. }) | Some(Frame::Reply { .. }) => {
                // Control frames never travel dest-ward; swallow.
                self.mark_delivered(seq);
                out.dropped += 1;
            }
            None => {
                // Legacy unframed message: surface as-is, still
                // at-most-once and acked (the source's cum then skips
                // over interleaved raw seqs).
                self.mark_delivered(seq);
                out.raw.push((seq, plaintext));
                out.chunks += 1;
            }
        }
        out.merge(self.maybe_ack(now, false));
        out
    }

    /// Record a chunk seq as delivered and advance the cumulative
    /// watermark.
    fn mark_delivered(&mut self, seq: u32) {
        self.delivered.insert(seq);
        while self.delivered.contains(self.cum) {
            self.cum += 1;
        }
        self.unacked += 1;
        self.pending_ack = true;
    }

    /// Emit an ack if enough chunks or enough time accumulated.
    fn maybe_ack(&mut self, now: Tick, force: bool) -> DestOutput {
        let mut out = DestOutput::default();
        if !self.pending_ack {
            return out;
        }
        let timer_due = self
            .last_ack
            .is_none_or(|l| now.since(l) >= self.config.ack_interval_ms);
        if !(force || self.unacked >= self.config.ack_every_chunks || timer_due) {
            return out;
        }
        let mut bits = 0u64;
        for i in 0..64u32 {
            if self.delivered.contains(self.cum + 1 + i) {
                bits |= 1 << i;
            }
        }
        let frame = ack_frame(self.cum, bits);
        out.sends = self.send_reverse_frame(&frame);
        self.pending_ack = false;
        self.unacked = 0;
        self.last_ack = Some(now);
        out
    }

    /// Send an application reply toward the source over the reverse
    /// path. Returns the reply id (independent of chunk seqs) and the
    /// packets to transmit.
    pub fn reply(&mut self, now: Tick, payload: &[u8]) -> Result<(u32, Vec<SendInstr>), SessionError> {
        // The reverse path carries whole messages (slot_len is u16 on
        // the wire); leave generous headroom for sealing + CRC.
        let d = self.info.d as usize;
        let max = (u16::MAX as usize - d - 4) * d;
        let max = max.saturating_sub(4 + 44);
        if payload.len() > max {
            return Err(SessionError::Oversize {
                len: payload.len(),
                max,
            });
        }
        self.last_activity = now;
        let id = self.next_reverse_seq; // reply ids share the reverse seq space
        let frame = reply_frame(id, payload);
        Ok((id, self.send_reverse_frame(&frame)))
    }

    /// Periodic work: fire the ack timer.
    pub fn poll(&mut self, now: Tick) -> DestOutput {
        self.maybe_ack(now, false)
    }

    /// When this session next needs a [`poll`](DestSession::poll): the
    /// pending-ack timer. `None` when idle.
    pub fn next_due(&self) -> Option<Tick> {
        self.pending_ack.then(|| {
            self.last_ack
                .map_or(Tick::ZERO, |l| l.plus(self.config.ack_interval_ms))
        })
    }

    /// Seal a reverse frame and address one coded slice to each parent
    /// on its reverse flow id (§4.3.7) — the one dest→parents builder.
    fn send_reverse_frame(&mut self, frame: &[u8]) -> Vec<SendInstr> {
        let seq = self.next_reverse_seq;
        self.next_reverse_seq += 1;
        let info = &self.info;
        let d = info.d as usize;
        let dp = info.d_prime as usize;
        // Cached subkeys + midstates, sealed into the reusable buffer.
        self.sealer
            .seal_into(frame, &mut self.seal_buf, &mut self.rng);
        let coded = coder::encode(&self.seal_buf, d, dp, &mut self.rng);
        let slot_len = d + coded.block_len + 4;
        let mut sends = Vec::with_capacity(info.parents.len());
        for (k, &(parent_addr, parent_rev_flow)) in info.parents.iter().enumerate() {
            let mut builder = PacketBuilder::new(PacketHeader {
                kind: PacketKind::Data,
                flow_id: parent_rev_flow,
                seq,
                d: info.d,
                slot_count: 1,
                slot_len: slot_len as u16,
            });
            let slot = builder.slot();
            let slice = &coded.slices[k % coded.slices.len()];
            slot[..d].copy_from_slice(&slice.coeffs);
            slot[d..d + coded.block_len].copy_from_slice(&slice.payload);
            crc::write_crc(slot);
            sends.push(SendInstr {
                from: self.addr,
                to: parent_addr,
                packet: builder.build(),
            });
        }
        sends
    }
}

// ---- the destination role of a relay --------------------------------------

/// What one [`DestHost::drive`] call reports to its relay's driver.
#[derive(Clone, Debug, Default)]
#[must_use = "refused deliveries must be handed back to the relay"]
pub struct DestHostOutput {
    /// Stream messages completed this call: `(flow, msg_id, bytes)`, in
    /// per-flow order.
    pub messages: Vec<(FlowId, u32, Vec<u8>)>,
    /// Deliveries a session refused *unacked* (reassembly quota): hand
    /// each to the relay's `forget_delivery`, so the source's retry is
    /// decoded again instead of being suppressed as a replay.
    pub refused: Vec<(FlowId, u32)>,
}

/// The destination role of one relay: a [`DestSession`] per receiver flow
/// the relay established, driven entirely by the relay's own output —
/// flow affinity means the role adds no locks to the packet path. The
/// overlay daemon runs one beside each [`crate::RelayShard`] worker, the
/// test harnesses one beside a [`crate::ShardedRelay`]; both hand
/// [`DestHost::drive`] their relay's `flow_info` lookup.
pub struct DestHost {
    addr: OverlayAddr,
    config: SessionConfig,
    seed: u64,
    /// The owning relay's shared counters: a chunk the destination role
    /// drops is a drop of that relay.
    stats: Arc<RelayStatsAtomic>,
    sessions: HashMap<FlowId, DestSession>,
}

impl DestHost {
    /// The destination role of the relay at `addr`, counting its drops
    /// into that relay's `stats`. Every session gets `config` and a
    /// stream of `seed` (see [`DestSession::new`]).
    pub fn new(
        addr: OverlayAddr,
        config: SessionConfig,
        seed: u64,
        stats: Arc<RelayStatsAtomic>,
    ) -> Self {
        DestHost {
            addr,
            config,
            seed,
            stats,
            sessions: HashMap::new(),
        }
    }

    /// Receiver flows currently hosting a session.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// The session terminating `flow` (application replies, resident
    /// state).
    pub fn session_mut(&mut self, flow: FlowId) -> Option<&mut DestSession> {
        self.sessions.get_mut(&flow)
    }

    /// Consume one (possibly merged) relay output: open sessions on
    /// freshly established receiver flows, follow repair re-setups, feed
    /// decoded deliveries and suppressed replays through their sessions,
    /// and — when `poll` is set, at the relay's poll cadence — run due ack
    /// timers and drop sessions whose flow the relay evicted (its flow GC
    /// is authoritative). Acks are appended to `out.sends`; chunks the
    /// sessions dropped are counted into the relay's `drops`.
    pub fn drive<'a>(
        &mut self,
        now: Tick,
        out: &mut RelayOutput,
        flow_info: impl Fn(FlowId) -> Option<&'a NodeInfo>,
        poll: bool,
    ) -> DestHostOutput {
        let mut report = DestHostOutput::default();
        let stats = &self.stats;
        let messages = &mut report.messages;
        let mut absorb = |flow: FlowId, dout: DestOutput, sends: &mut Vec<SendInstr>| {
            sends.extend(dout.sends);
            (0..dout.dropped).for_each(|_| stats.record_drop());
            messages.extend(dout.messages.into_iter().map(|(id, bytes)| (flow, id, bytes)));
        };
        for &(flow, receiver) in &out.established {
            if receiver && !self.sessions.contains_key(&flow) {
                if let Some(info) = flow_info(flow) {
                    self.sessions.insert(
                        flow,
                        DestSession::new(self.addr, flow, info.clone(), self.config, self.seed),
                    );
                }
            }
        }
        // Repair re-setups splice new neighbour lists into the relay's
        // flow; the session's reverse routing must follow or its acks
        // keep fanning to the replaced parent.
        for &(flow, receiver) in &out.rekeyed {
            if receiver {
                if let (Some(dest), Some(info)) = (self.sessions.get_mut(&flow), flow_info(flow)) {
                    dest.set_info(info.clone());
                }
            }
        }
        for r in &out.received {
            if let Some(dest) = self.sessions.get_mut(&r.flow) {
                let dout = dest.handle_delivery(now, r.seq, r.plaintext.clone());
                absorb(r.flow, dout, &mut out.sends);
                if !dest.delivered.contains(r.seq) {
                    report.refused.push((r.flow, r.seq));
                }
            }
        }
        // Replays the relay suppressed mean a lost ack: re-announce.
        for &(flow, seq) in &out.replayed {
            if let Some(dest) = self.sessions.get_mut(&flow) {
                let dout = dest.handle_replay(now, seq);
                absorb(flow, dout, &mut out.sends);
            }
        }
        if poll && !self.sessions.is_empty() {
            for (&flow, dest) in self.sessions.iter_mut() {
                if dest.next_due().is_some_and(|d| d.0 <= now.0) {
                    let dout = dest.poll(now);
                    absorb(flow, dout, &mut out.sends);
                }
            }
            self.sessions.retain(|&flow, _| flow_info(flow).is_some());
        }
        report
    }
}

// ---- the sharded session manager -----------------------------------------

/// Identifier of one session hosted by a [`SessionManager`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl std::fmt::Debug for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sess:{}", self.0)
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Routes packets and commands to session shards.
///
/// Sessions are sharded by `hash(session id) % N` (exactly the
/// [`crate::FlowRouter`] discipline); in addition the router maps every
/// flow id a session listens on — its stage-0 reverse flow ids — to its
/// owning `(shard, session)`. The map is written at open/close only, never at
/// packet rate.
#[derive(Clone, Debug)]
pub struct SessionRouter {
    shards: usize,
    flows: Arc<RwLock<HashMap<FlowId, (usize, SessionId)>>>,
}

impl SessionRouter {
    /// A router over `shards` shards.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a session manager needs at least one shard");
        SessionRouter {
            shards,
            flows: Arc::new(RwLock::new(HashMap::new())),
        }
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning session `id` (Fibonacci hash, like flow
    /// routing).
    pub fn route_id(&self, id: SessionId) -> usize {
        if self.shards == 1 {
            return 0;
        }
        ((id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % self.shards
    }

    /// The `(shard, session)` listening on `flow`, if any — the ingress
    /// peek that decides "session plane or relay plane" for a received
    /// buffer.
    pub fn lookup(&self, flow: FlowId) -> Option<(usize, SessionId)> {
        self.flows.read().unwrap().get(&flow).copied()
    }

    pub(crate) fn register(&self, flow: FlowId, shard: usize, id: SessionId) {
        self.flows.write().unwrap().insert(flow, (shard, id));
    }

    pub(crate) fn unregister(&self, flow: FlowId, id: SessionId) {
        let mut map = self.flows.write().unwrap();
        if map.get(&flow).is_some_and(|&(_, owner)| owner == id) {
            map.remove(&flow);
        }
    }
}

/// Counters across a session manager (monotonic; see
/// [`SessionStatsAtomic`] for the shared mirror).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Sessions opened.
    pub opened: u64,
    /// Sessions closed.
    pub closed: u64,
    /// Session opens rejected by the shard quota.
    pub rejected: u64,
    /// Stream messages accepted for sending.
    pub msgs_sent: u64,
    /// Chunks emitted (first transmissions).
    pub chunks_sent: u64,
    /// Chunk retransmissions.
    pub retransmits: u64,
    /// Stream messages fully acknowledged end to end.
    pub msgs_acked: u64,
    /// Replies surfaced to source sessions.
    pub replies: u64,
    /// Packets/chunks dropped by the session layer.
    pub drops: u64,
}

impl SessionStats {
    fn delta_since(&self, earlier: &SessionStats) -> SessionStats {
        SessionStats {
            opened: self.opened - earlier.opened,
            closed: self.closed - earlier.closed,
            rejected: self.rejected - earlier.rejected,
            msgs_sent: self.msgs_sent - earlier.msgs_sent,
            chunks_sent: self.chunks_sent - earlier.chunks_sent,
            retransmits: self.retransmits - earlier.retransmits,
            msgs_acked: self.msgs_acked - earlier.msgs_acked,
            replies: self.replies - earlier.replies,
            drops: self.drops - earlier.drops,
        }
    }

    /// Every counter as a `(name, value)` pair, in declaration order.
    ///
    /// The single authoritative enumeration of the session counters:
    /// metrics exposition iterates it instead of hand-listing fields,
    /// so the exported text can never drift from the atomics (see
    /// [`crate::RelayStats::counters`]).
    pub fn counters(&self) -> [(&'static str, u64); 9] {
        [
            ("opened", self.opened),
            ("closed", self.closed),
            ("rejected", self.rejected),
            ("msgs_sent", self.msgs_sent),
            ("chunks_sent", self.chunks_sent),
            ("retransmits", self.retransmits),
            ("msgs_acked", self.msgs_acked),
            ("replies", self.replies),
            ("drops", self.drops),
        ]
    }

    pub(crate) fn add(&mut self, other: &SessionStats) {
        self.opened += other.opened;
        self.closed += other.closed;
        self.rejected += other.rejected;
        self.msgs_sent += other.msgs_sent;
        self.chunks_sent += other.chunks_sent;
        self.retransmits += other.retransmits;
        self.msgs_acked += other.msgs_acked;
        self.replies += other.replies;
        self.drops += other.drops;
    }
}

/// Shared, atomically updated mirror of [`SessionStats`]: shards count
/// into plain locals on the hot path and fold deltas here at batch
/// boundaries, exactly like [`crate::RelayStatsAtomic`].
#[derive(Debug, Default)]
pub struct SessionStatsAtomic {
    opened: AtomicU64,
    closed: AtomicU64,
    rejected: AtomicU64,
    msgs_sent: AtomicU64,
    chunks_sent: AtomicU64,
    retransmits: AtomicU64,
    msgs_acked: AtomicU64,
    replies: AtomicU64,
    drops: AtomicU64,
}

impl SessionStatsAtomic {
    /// Read a snapshot (each counter exact; cross-counter skew bounded
    /// by one publish batch).
    pub fn snapshot(&self) -> SessionStats {
        SessionStats {
            opened: self.opened.load(Ordering::Relaxed),
            closed: self.closed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            chunks_sent: self.chunks_sent.load(Ordering::Relaxed),
            retransmits: self.retransmits.load(Ordering::Relaxed),
            msgs_acked: self.msgs_acked.load(Ordering::Relaxed),
            replies: self.replies.load(Ordering::Relaxed),
            drops: self.drops.load(Ordering::Relaxed),
        }
    }

    /// Count one dropped buffer from the I/O layer (which owns no
    /// shard).
    pub fn record_drop(&self) {
        self.drops.fetch_add(1, Ordering::Relaxed);
    }

    fn fold(&self, d: &SessionStats) {
        macro_rules! fold_field {
            ($f:ident) => {
                if d.$f != 0 {
                    self.$f.fetch_add(d.$f, Ordering::Relaxed);
                }
            };
        }
        fold_field!(opened);
        fold_field!(closed);
        fold_field!(rejected);
        fold_field!(msgs_sent);
        fold_field!(chunks_sent);
        fold_field!(retransmits);
        fold_field!(msgs_acked);
        fold_field!(replies);
        fold_field!(drops);
    }
}

/// Everything one shard call wants to tell the driver.
#[derive(Clone, Debug, Default)]
pub struct SessionOutput {
    /// Packets to transmit.
    pub sends: Vec<SendInstr>,
    /// Completions: `(session, msg_id)` fully acknowledged.
    pub acked: Vec<(SessionId, u32)>,
    /// Destination replies: `(session, reply_id, bytes)`.
    pub replies: Vec<(SessionId, u32, Vec<u8>)>,
    /// Unframed (legacy) reverse messages: `(session, seq, bytes)`.
    pub raw: Vec<(SessionId, u32, Vec<u8>)>,
}

impl SessionOutput {
    /// Append another call's output.
    pub fn merge(&mut self, other: SessionOutput) {
        self.sends.extend(other.sends);
        self.acked.extend(other.acked);
        self.replies.extend(other.replies);
        self.raw.extend(other.raw);
    }
}

/// A map slot: the session plus its earliest scheduled wheel wake (so
/// re-scheduling never floods the wheel with duplicates).
struct Slot {
    inner: SourceSession,
    wake: Option<Tick>,
}

/// One shard of a [`SessionManager`]: its own source session map, its
/// own [`TimerWheel`] of per-session wake deadlines,
/// its own scratch — nothing on the per-packet path crosses shards. The
/// only shared state is the [`SessionRouter`] (written at open/close)
/// and the [`SessionStatsAtomic`] mirror (folded at batch boundaries via
/// [`SessionShard::publish_stats`]).
pub struct SessionShard {
    index: usize,
    max_sessions: usize,
    sources: HashMap<u64, Slot>,
    wheel: TimerWheel<u64>,
    expired: Vec<(Tick, u64)>,
    router: SessionRouter,
    stats: SessionStats,
    folded: SessionStats,
    shared: Arc<SessionStatsAtomic>,
    /// Transport pacing floor applied to every hosted source (0 = none);
    /// inherited by sessions opened later.
    pace_override_ms: u64,
}

impl SessionShard {
    /// Create shard `index` with a per-shard session quota.
    pub fn new(
        index: usize,
        max_sessions: usize,
        router: SessionRouter,
        shared: Arc<SessionStatsAtomic>,
    ) -> Self {
        SessionShard {
            index,
            max_sessions: max_sessions.max(1),
            sources: HashMap::new(),
            wheel: TimerWheel::new(WHEEL_GRANULARITY_MS, WHEEL_BUCKETS),
            expired: Vec::new(),
            router,
            stats: SessionStats::default(),
            folded: SessionStats::default(),
            shared,
            pace_override_ms: 0,
        }
    }

    /// Set (or clear, with 0) the transport pacing floor for every
    /// source session this shard hosts, now and in the future. Called by
    /// the daemon when its egress transport publishes a new pace hint.
    pub fn set_pace_override(&mut self, ms: u64) {
        if self.pace_override_ms == ms {
            return;
        }
        self.pace_override_ms = ms;
        for slot in self.sources.values_mut() {
            slot.inner.set_pace_override(ms);
        }
    }

    /// This shard's index within its manager.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Sessions hosted by this shard.
    pub fn session_count(&self) -> usize {
        self.sources.len()
    }

    /// Shard-local counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Fold counters accrued since the last publish into the shared
    /// atomic stats.
    pub fn publish_stats(&mut self) {
        let delta = self.stats.delta_since(&self.folded);
        if delta != SessionStats::default() {
            self.shared.fold(&delta);
            self.folded = self.stats;
        }
    }

    /// Chunks in flight across this shard's source sessions.
    pub fn in_flight_chunks(&self) -> usize {
        self.sources.values().map(|s| s.inner.stream_in_flight()).sum()
    }

    /// Whether every hosted source session's stream is drained.
    pub fn streams_idle(&self) -> bool {
        self.sources.values().all(|s| s.inner.stream_idle())
    }

    /// Host a source session under `id`. Its stage-0 reverse flow ids
    /// are registered with the router so the ingress can steer reverse
    /// traffic here.
    pub fn open_source(
        &mut self,
        now: Tick,
        id: SessionId,
        mut source: SourceSession,
    ) -> Result<(), SessionError> {
        if self.session_count() >= self.max_sessions {
            self.stats.rejected += 1;
            return Err(SessionError::TooManySessions {
                limit: self.max_sessions,
            });
        }
        source.set_pace_override(self.pace_override_ms);
        for &flow in &source.graph().reverse_flow_ids[0] {
            self.router.register(flow, self.index, id);
        }
        self.sources.insert(
            id.0,
            Slot {
                inner: source,
                wake: None,
            },
        );
        self.stats.opened += 1;
        self.reschedule(now, id.0);
        Ok(())
    }

    /// Tear a session down, releasing its router registrations. Returns
    /// whether the id was hosted here. Per-session state dies with the
    /// session; stale wheel entries validate lazily and vanish.
    pub fn close(&mut self, id: SessionId) -> bool {
        if let Some(slot) = self.sources.remove(&id.0) {
            for &flow in &slot.inner.graph().reverse_flow_ids[0] {
                self.router.unregister(flow, id);
            }
            self.stats.closed += 1;
            return true;
        }
        false
    }

    /// Queue a stream message on a hosted source session.
    pub fn send(
        &mut self,
        now: Tick,
        id: SessionId,
        payload: &[u8],
    ) -> Result<(u32, Vec<SendInstr>), SessionError> {
        let slot = self
            .sources
            .get_mut(&id.0)
            .ok_or(SessionError::UnknownSession)?;
        let result = slot.inner.send(now, payload);
        if result.is_ok() {
            self.stats.msgs_sent += 1;
        }
        let (chunks, retx) = slot.inner.take_stream_metrics();
        self.stats.chunks_sent += chunks;
        self.stats.retransmits += retx;
        self.reschedule(now, id.0);
        result
    }

    /// Feed one received packet to the session owning its flow.
    /// `local` is the attachment address the packet arrived on (one of
    /// the session's pseudo-sources).
    // lint: hot-path
    pub fn handle_packet(
        &mut self,
        now: Tick,
        local: OverlayAddr,
        from: OverlayAddr,
        packet: &Packet,
    ) -> SessionOutput {
        let Some((shard, id)) = self.router.lookup(packet.header.flow_id) else {
            self.stats.drops += 1;
            return SessionOutput::default();
        };
        if shard != self.index {
            self.stats.drops += 1;
            return SessionOutput::default();
        }
        self.handle_routed(now, id, local, from, packet)
    }

    /// Like [`handle_packet`](SessionShard::handle_packet), with the
    /// owning session already resolved — the path ingress dispatchers
    /// take, so the router's shared map is read once per packet (at the
    /// ingress), never again on the shard. A stale id (session closed
    /// since dispatch) drops the packet.
    // lint: hot-path
    pub fn handle_routed(
        &mut self,
        now: Tick,
        id: SessionId,
        local: OverlayAddr,
        from: OverlayAddr,
        packet: &Packet,
    ) -> SessionOutput {
        let mut out = SessionOutput::default();
        if let Some(slot) = self.sources.get_mut(&id.0) {
            if let Some((seq, plaintext)) = slot.inner.handle_packet(now, local, from, packet) {
                out.raw.push((id, seq, plaintext));
            }
            out.sends.extend(slot.inner.pump(now));
            self.drain_source(id, &mut out);
            self.reschedule(now, id.0);
        } else {
            self.stats.drops += 1;
        }
        out
    }

    /// Drive timeouts: pop expired per-session wakes off the wheel and
    /// run each due session's periodic work. Never scans idle sessions.
    pub fn poll(&mut self, now: Tick) -> SessionOutput {
        let mut out = SessionOutput::default();
        let mut expired = std::mem::take(&mut self.expired);
        expired.clear();
        self.wheel.poll_expired(now, &mut expired);
        for &(_, key) in &expired {
            self.wake(now, key, &mut out);
        }
        self.expired = expired;
        out
    }

    /// When [`poll`](SessionShard::poll) next has work: the earliest
    /// wheel entry, exactly (a stale entry only costs one empty wake).
    /// `None` when no session waits on a timer; drivers then sleep until
    /// a packet or command arrives.
    pub fn next_deadline(&self) -> Option<Tick> {
        self.wheel.next_deadline()
    }

    /// One session's wheel entry fired: validate lazily and act.
    fn wake(&mut self, now: Tick, key: u64, out: &mut SessionOutput) {
        let id = SessionId(key);
        if let Some(slot) = self.sources.get_mut(&key) {
            slot.wake = None;
            let due = slot.inner.next_due();
            if due.is_some_and(|d| d.0 <= now.0) {
                out.sends.extend(slot.inner.poll(now));
                self.drain_source(id, out);
            }
            self.reschedule(now, key);
        }
        // Closed sessions: stale entry, nothing to do.
    }

    /// Surface a source session's drained events + metrics.
    fn drain_source(&mut self, id: SessionId, out: &mut SessionOutput) {
        let Some(slot) = self.sources.get_mut(&id.0) else {
            return;
        };
        for msg in slot.inner.pop_acked_msgs() {
            self.stats.msgs_acked += 1;
            out.acked.push((id, msg));
        }
        for (rid, payload) in slot.inner.pop_replies() {
            self.stats.replies += 1;
            out.replies.push((id, rid, payload));
        }
        let (chunks, retx) = slot.inner.take_stream_metrics();
        self.stats.chunks_sent += chunks;
        self.stats.retransmits += retx;
    }

    /// Re-arm the wheel at the session's earliest deadline, skipping
    /// when an earlier entry is already pending.
    fn reschedule(&mut self, _now: Tick, key: u64) {
        let Some(slot) = self.sources.get_mut(&key) else {
            return;
        };
        let Some(due) = slot.inner.next_due() else { return };
        if slot.wake.is_none_or(|w| due.0 < w.0) {
            self.wheel.schedule(due, key);
            slot.wake = Some(due);
        }
    }

    /// Mutable access to a hosted source session (tuning, repair).
    pub fn source_mut(&mut self, id: SessionId) -> Option<&mut SourceSession> {
        self.sources.get_mut(&id.0).map(|s| &mut s.inner)
    }
}

/// Thousands of concurrent source sessions multiplexed over one node.
///
/// The synchronous front mirrors [`crate::ShardedRelay`]: `&mut self`
/// calls route by session id (or, for packets, by registered flow id) to
/// the owning [`SessionShard`], while [`SessionManager::into_parts`]
/// splits ownership for the async runtime — each shard moves into its
/// own worker task and the [`SessionRouter`] into the ingress
/// dispatcher.
pub struct SessionManager {
    shards: Vec<SessionShard>,
    router: SessionRouter,
    shared: Arc<SessionStatsAtomic>,
    next_id: u64,
    default_config: SessionConfig,
}

impl SessionManager {
    /// A manager with `shards` shards and a whole-node session budget
    /// (divided into per-shard quotas, like
    /// [`crate::RelayConfig::max_flows`]).
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(shards: usize, max_sessions: usize, config: SessionConfig) -> Self {
        let router = SessionRouter::new(shards);
        let shared = Arc::new(SessionStatsAtomic::default());
        let per_shard = max_sessions.div_ceil(shards).max(1);
        let shards = (0..shards)
            .map(|i| SessionShard::new(i, per_shard, router.clone(), Arc::clone(&shared)))
            .collect();
        SessionManager {
            shards,
            router,
            shared,
            next_id: 1,
            default_config: config,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The default per-session configuration applied at open.
    pub fn default_config(&self) -> SessionConfig {
        self.default_config
    }

    /// The router (ingress dispatchers use it to steer received buffers
    /// to the session plane).
    pub fn router(&self) -> &SessionRouter {
        &self.router
    }

    /// The shared atomic stats mirror.
    pub fn shared_stats(&self) -> Arc<SessionStatsAtomic> {
        Arc::clone(&self.shared)
    }

    /// Exact manager-wide counters (sum of shard locals plus I/O-layer
    /// drops recorded straight into the shared cell).
    pub fn stats(&self) -> SessionStats {
        let io = self.shared.snapshot();
        let mut total = SessionStats {
            drops: io.drops,
            ..SessionStats::default()
        };
        for s in &self.shards {
            total.add(&s.stats());
        }
        total
    }

    /// Sessions hosted across all shards.
    pub fn session_count(&self) -> usize {
        self.shards.iter().map(|s| s.session_count()).sum()
    }

    /// Chunks in flight across every hosted source session.
    pub fn in_flight_chunks(&self) -> usize {
        self.shards.iter().map(|s| s.in_flight_chunks()).sum()
    }

    /// Whether every hosted source stream is drained (all messages
    /// acknowledged, nothing queued).
    pub fn streams_idle(&self) -> bool {
        self.shards.iter().all(|s| s.streams_idle())
    }

    /// Allocate the next session id (stable hash-routing to a shard).
    pub fn alloc_id(&mut self) -> SessionId {
        let id = SessionId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Host a source session; applies the manager's default
    /// [`SessionConfig`] and registers its reverse flow ids.
    pub fn open_source(
        &mut self,
        now: Tick,
        mut source: SourceSession,
    ) -> Result<SessionId, SessionError> {
        let id = self.alloc_id();
        source.set_session_config(self.default_config);
        let shard = self.router.route_id(id);
        self.shards[shard].open_source(now, id, source)?;
        Ok(id)
    }

    /// Tear a session down.
    pub fn close(&mut self, id: SessionId) -> bool {
        let shard = self.router.route_id(id);
        self.shards[shard].close(id)
    }

    /// Queue a stream message on session `id`.
    pub fn send(
        &mut self,
        now: Tick,
        id: SessionId,
        payload: &[u8],
    ) -> Result<(u32, Vec<SendInstr>), SessionError> {
        let shard = self.router.route_id(id);
        self.shards[shard].send(now, id, payload)
    }

    /// Feed one received packet (routed by its flow id to the owning
    /// shard; unknown flows are dropped and counted).
    pub fn handle_packet(
        &mut self,
        now: Tick,
        local: OverlayAddr,
        from: OverlayAddr,
        packet: &Packet,
    ) -> SessionOutput {
        match self.router.lookup(packet.header.flow_id) {
            Some((shard, id)) => self.shards[shard].handle_routed(now, id, local, from, packet),
            None => {
                self.shared.record_drop();
                SessionOutput::default()
            }
        }
    }

    /// Drive timeouts on every shard.
    pub fn poll(&mut self, now: Tick) -> SessionOutput {
        let mut out = SessionOutput::default();
        for s in &mut self.shards {
            out.merge(s.poll(now));
        }
        out
    }

    /// Mutable access to a hosted source session.
    pub fn source_mut(&mut self, id: SessionId) -> Option<&mut SourceSession> {
        let shard = self.router.route_id(id);
        self.shards[shard].source_mut(id)
    }

    /// Split into the pieces the async runtime owns separately: the
    /// shards (one per worker task), the router (ingress) and the
    /// shared stats.
    pub fn into_parts(self) -> (Vec<SessionShard>, SessionRouter, Arc<SessionStatsAtomic>) {
        (self.shards, self.router, self.shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// See `RelayStats::counters` test: one entry per field, distinct
    /// names, values wired to the right fields.
    #[test]
    fn session_counters_enumerate_every_field() {
        let stats = SessionStats {
            opened: 1,
            closed: 2,
            rejected: 3,
            msgs_sent: 4,
            chunks_sent: 5,
            retransmits: 6,
            msgs_acked: 7,
            replies: 8,
            drops: 9,
        };
        let values: Vec<u64> = stats.counters().iter().map(|(_, v)| *v).collect();
        assert_eq!(values, (1..=9).collect::<Vec<u64>>());
        let mut names: Vec<&str> = stats.counters().iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 9, "counter names must be unique");
    }

    #[test]
    fn frames_round_trip() {
        let f = data_frame(7, 2, 5, b"chunk bytes");
        match parse_frame(&f) {
            Some(Frame::Data {
                msg_id,
                idx,
                count,
                chunk,
            }) => {
                assert_eq!((msg_id, idx, count), (7, 2, 5));
                assert_eq!(chunk, b"chunk bytes");
            }
            _ => panic!("data frame must parse"),
        }
        let f = ack_frame(41, 0b1011);
        match parse_frame(&f) {
            Some(Frame::Ack { cum, bits }) => assert_eq!((cum, bits), (41, 0b1011)),
            _ => panic!("ack frame must parse"),
        }
        let f = reply_frame(3, b"pong");
        match parse_frame(&f) {
            Some(Frame::Reply { id, payload }) => {
                assert_eq!(id, 3);
                assert_eq!(payload, b"pong");
            }
            _ => panic!("reply frame must parse"),
        }
    }

    #[test]
    fn malformed_frames_are_raw() {
        assert!(parse_frame(b"").is_none());
        assert!(parse_frame(b"hello overlay").is_none());
        // Truncated data header.
        assert!(parse_frame(&[FRAME_DATA, 1, 2, 3]).is_none());
        // Zero chunk count.
        let mut bad = data_frame(1, 0, 1, b"x");
        bad[7] = 0;
        bad[8] = 0;
        assert!(parse_frame(&bad).is_none());
        // idx >= count.
        let mut bad = data_frame(1, 0, 1, b"x");
        bad[5] = 9;
        assert!(parse_frame(&bad).is_none());
        // Wrong ack length.
        assert!(parse_frame(&[FRAME_ACK, 0, 0, 0, 0]).is_none());
    }

    #[test]
    fn session_router_registration() {
        let r = SessionRouter::new(4);
        let id = SessionId(9);
        let flow = FlowId(0xF00);
        assert_eq!(r.lookup(flow), None);
        r.register(flow, 2, id);
        assert_eq!(r.lookup(flow), Some((2, id)));
        // Unregister by the wrong owner is a no-op.
        r.unregister(flow, SessionId(8));
        assert_eq!(r.lookup(flow), Some((2, id)));
        r.unregister(flow, id);
        assert_eq!(r.lookup(flow), None);
    }

    #[test]
    fn router_spreads_session_ids() {
        let r = SessionRouter::new(8);
        let mut counts = [0usize; 8];
        for i in 1..=8000u64 {
            counts[r.route_id(SessionId(i))] += 1;
        }
        for &c in &counts {
            assert!(c > 500, "shard starved: {counts:?}");
        }
    }
}
