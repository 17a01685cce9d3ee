//! Bidirectional anonymous chat over the tokio overlay: Alice reaches Bob
//! through the forwarding graph; Bob answers along the reverse path
//! (§4.3.7) without ever learning who Alice is.
//!
//! Run with: `cargo run --example anonymous_chat`

use std::time::{Duration, Instant};

use information_slicing::core::{
    DestHost, GraphParams, OverlayAddr, RelayOutput, SendInstr, SessionConfig, ShardedRelay,
    SourceSession, Tick,
};
use information_slicing::overlay::daemon::now_tick;
use information_slicing::overlay::{spawn_node, EmulatedNet, NodeSpec};
use information_slicing::sim::NetProfile;
use information_slicing::wire::Packet;
use tokio::sync::mpsc;

/// Bob is a relay like any other that happens to be the destination: his
/// destination role consumes whatever his relay just decoded and answers
/// every completed message along the reverse path.
fn bob_answers(
    relay: &mut ShardedRelay,
    dest: &mut DestHost,
    now: Tick,
    mut out: RelayOutput,
    poll: bool,
) -> (Vec<SendInstr>, bool) {
    let report = dest.drive(now, &mut out, |f| relay.flow_info(f), poll);
    for (flow, seq) in report.refused {
        relay.forget_delivery(flow, seq);
    }
    let heard = !report.messages.is_empty();
    for (flow, _, text) in report.messages {
        println!("Bob received : {:?}", String::from_utf8_lossy(&text));
        let session = dest.session_mut(flow).expect("the flow just delivered");
        let (_, reply) = session
            .reply(now, b"hello, mysterious stranger")
            .expect("within the reply budget");
        out.sends.extend(reply);
    }
    (out.sends, heard)
}

#[tokio::main(flavor = "multi_thread", worker_threads = 4)]
async fn main() {
    let net = EmulatedNet::new(NetProfile::lan(), 99);
    let epoch = Instant::now();
    let (events_tx, _events_rx) = mpsc::unbounded_channel();

    // Overlay relays (node daemons; dropping a handle stops its node).
    let mut candidates = Vec::new();
    let mut handles = Vec::new();
    for i in 0..24u64 {
        let port = net.attach(OverlayAddr(10_000 + i));
        candidates.push(port.addr);
        handles.push(spawn_node(NodeSpec {
            relay: Some(ShardedRelay::new(port.addr, 99, 1)),
            sessions: None,
            ports: vec![port],
            dest_sessions: None,
            events: events_tx.clone(),
            session_events: None,
            epoch,
        }));
    }

    // Bob: driven manually in this example so he can talk back.
    let mut bob_port = net.attach(OverlayAddr(1));
    let bob_addr = bob_port.addr;
    let mut bob = ShardedRelay::new(bob_addr, 99, 1);
    let mut bob_dest = DestHost::new(bob_addr, SessionConfig::default(), 99, bob.shared_stats());

    // Alice: two pseudo-sources, a 4-stage graph with d = 2.
    let mut port_a = net.attach(OverlayAddr(501));
    let mut port_b = net.attach(OverlayAddr(502));
    let pseudo: Vec<OverlayAddr> = vec![port_a.addr, port_b.addr];
    let (mut alice, setup) =
        SourceSession::establish(GraphParams::new(4, 2), &pseudo, &candidates, bob_addr, 99)
            .expect("establish");
    for instr in setup {
        let port = if instr.from == port_a.addr { &port_a } else { &port_b };
        port.tx.send(instr.to, instr.packet.encode()).await;
    }
    tokio::time::sleep(Duration::from_millis(300)).await;

    // Alice speaks first.
    let (_, sends) = alice
        .send(now_tick(epoch), b"hi bob, it's... someone")
        .expect("within the send buffer");
    for instr in sends {
        let port = if instr.from == port_a.addr { &port_a } else { &port_b };
        port.tx.send(instr.to, instr.packet.encode()).await;
    }

    // Bob's event loop: decode the message, reply on the reverse path.
    let mut replied = false;
    let mut reply = None;
    let deadline = tokio::time::sleep(Duration::from_secs(30));
    tokio::pin!(deadline);
    let mut ticker = tokio::time::interval(Duration::from_millis(100));
    while reply.is_none() {
        tokio::select! {
            maybe = bob_port.rx.recv() => {
                let Some((from, bytes)) = maybe else { break };
                let Ok(packet) = Packet::decode(&bytes) else { continue };
                let now = now_tick(epoch);
                let out = bob.handle_packet(now, from, &packet);
                let (sends, heard) = bob_answers(&mut bob, &mut bob_dest, now, out, false);
                replied |= heard;
                for send in sends {
                    bob_port.tx.send(send.to, send.packet.encode()).await;
                }
            }
            // Alice's pseudo-sources listen for the reverse reply.
            maybe = port_a.rx.recv(), if replied => {
                if let Some((from, bytes)) = maybe {
                    if let Ok(p) = Packet::decode(&bytes) {
                        alice.handle_packet(now_tick(epoch), port_a.addr, from, &p);
                        reply = alice.pop_replies().pop();
                    }
                }
            }
            maybe = port_b.rx.recv(), if replied => {
                if let Some((from, bytes)) = maybe {
                    if let Ok(p) = Packet::decode(&bytes) {
                        alice.handle_packet(now_tick(epoch), port_b.addr, from, &p);
                        reply = alice.pop_replies().pop();
                    }
                }
            }
            // Bob's timers (gather flushes, ack cadence).
            _ = ticker.tick() => {
                let now = now_tick(epoch);
                let out = bob.poll(now);
                let (sends, _) = bob_answers(&mut bob, &mut bob_dest, now, out, true);
                for send in sends {
                    bob_port.tx.send(send.to, send.packet.encode()).await;
                }
            }
            _ = &mut deadline => break,
        }
    }

    match reply {
        Some((_, text)) => {
            println!("Alice received: {:?}", String::from_utf8_lossy(&text));
            println!("two-way anonymous channel established — done.");
        }
        None => println!("no reply within deadline"),
    }
}
