//! Direct-call probes of the layers no span can reach from outside:
//! the coding kernels and endpoint crypto run *inside* `send_message`
//! and `handle_packet`, and a datagram hop runs inside the transport.
//! Each probe calls the layer's public API at the workload's own
//! `(d, d′, message length)` and reports the mean cost of one call.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use slicing_codec::{coder, recombine};
use slicing_core::{FlowId, GraphParams, Packet, PacketKind};
use slicing_crypto::{SealingKey, SymmetricKey};
use slicing_gf::bulk;
use slicing_overlay::{UdpFaults, UdpNet};
use slicing_wire::{crc, PacketHeader};

use crate::stats;

/// How long each coding probe loops.
const PROBE: Duration = Duration::from_millis(40);
/// Datagrams the hop probe times, one at a time.
const HOPS: usize = 200;

/// Mean seconds per call of `f`, looping for [`PROBE`].
fn time(mut f: impl FnMut()) -> f64 {
    for _ in 0..16 {
        f();
    }
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        for _ in 0..64 {
            f();
        }
        calls += 64;
        let elapsed = start.elapsed();
        if elapsed >= PROBE {
            return elapsed.as_secs_f64() / calls as f64;
        }
    }
}

/// The coding and crypto calls one message of `msg_len` bytes makes on
/// a graph of shape `params`.
pub fn coding(params: GraphParams, msg_len: usize, seed: u64) -> Vec<(&'static str, f64)> {
    let (d, paths) = (params.split, params.paths);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut msg = vec![0u8; msg_len];
    rng.fill_bytes(&mut msg);
    let sealer = SealingKey::new(&SymmetricKey::random(&mut rng));

    let mut sealed = Vec::new();
    let seal_s = time(|| sealer.seal_into(black_box(&msg), &mut sealed, &mut rng));
    let mut opened = sealed.clone();
    let open_s = time(|| {
        opened.copy_from_slice(&sealed);
        black_box(sealer.open_in_place(&mut opened).expect("own seal opens"));
    });

    let encode_s = time(|| {
        black_box(coder::encode(black_box(&sealed), d, paths, &mut rng));
    });
    let coded = coder::encode(&sealed, d, paths, &mut rng);
    let decode_s = time(|| {
        black_box(coder::decode(black_box(&coded.slices), d).expect("own encoding decodes"));
    });

    // What a relay recombines: the `coeffs ‖ payload` wire image of the
    // slices its parents sent, into one outgoing slot.
    let wire: Vec<Vec<u8>> = coded
        .slices
        .iter()
        .map(|s| [s.coeffs.as_slice(), s.payload.as_slice()].concat())
        .collect();
    let mut slot = vec![0u8; wire[0].len()];
    let recombine_s = time(|| {
        slot.fill(0);
        recombine::recombine_into(black_box(&wire), &mut rng, &mut slot);
        black_box(&slot);
    });

    // What a relay checks on every slot it receives and writes on
    // every slot it sends: `coeffs ‖ payload ‖ crc32`.
    let mut crc_slot = vec![0u8; wire[0].len() + 4];
    crc_slot[..wire[0].len()].copy_from_slice(&wire[0]);
    let crc_s = time(|| {
        crc::write_crc(black_box(&mut crc_slot));
    });

    // What a daemon does with every datagram: adopt the buffer,
    // validate it, drop it. Tens of nanoseconds — no more than a
    // span's own two clock reads — so it is looped like the kernels.
    let packet = Packet::new(
        PacketHeader {
            kind: PacketKind::Data,
            flow_id: FlowId(seed),
            seq: 1,
            d: d as u8,
            slot_count: 1,
            slot_len: crc_slot.len() as u16,
        },
        vec![crc_slot.clone()],
    );
    let frame = packet.encode();
    let decode_wire_s = time(|| {
        black_box(Packet::from_bytes(black_box(frame.clone())).expect("own packet parses"));
    });

    let block = &wire[0][d..];
    let mut acc = vec![0u8; block.len()];
    let axpy_s = time(|| {
        bulk::mul_add_slice(&mut acc, black_box(0x53), black_box(block));
        black_box(&acc);
    });

    vec![
        (
            "gf.mul_add_gibs",
            block.len() as f64 / axpy_s / (1u64 << 30) as f64,
        ),
        ("codec.encode_us", encode_s * 1e6),
        ("codec.recombine_us", recombine_s * 1e6),
        ("codec.decode_us", decode_s * 1e6),
        ("crypto.seal_us", seal_s * 1e6),
        ("crypto.open_us", open_s * 1e6),
        ("wire.crc_us", crc_s * 1e6),
        ("wire.decode_ns", decode_wire_s * 1e9),
    ]
}

/// One datagram, `PortSender::send` to the peer port's inbox, on an
/// otherwise idle `UdpNet`: the transport's wake-up latency per hop.
pub async fn udp_hop_us_p50(len: usize, seed: u64) -> f64 {
    let net = UdpNet::new(UdpFaults::default(), seed);
    let a = net.attach().await.expect("bind a loopback UDP socket");
    let mut b = net.attach().await.expect("bind a loopback UDP socket");
    let frame = Bytes::from(vec![0xA5u8; len]);
    let mut us = Vec::with_capacity(HOPS);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..HOPS {
        // Let the receiver go back to sleep, and land anywhere in its
        // 1 ms poll period: sent back to back, datagrams either catch
        // the receive task still awake (6 µs) or all just miss its
        // tick (1.1 ms), whichever way the two threads happen to race.
        tokio::time::sleep(Duration::from_micros(rng.gen_range(1_000..2_000))).await;
        let start = Instant::now();
        a.tx.send(b.addr, frame.clone()).await;
        b.rx.recv().await.expect("the peer port stays attached");
        us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    stats::median(&mut us)
}
