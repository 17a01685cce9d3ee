//! Bidirectional anonymous chat over the tokio overlay: Alice reaches Bob
//! through the forwarding graph; Bob answers along the reverse path
//! (§4.3.7) without ever learning who Alice is.
//!
//! Run with: `cargo run --example anonymous_chat`

use std::time::{Duration, Instant};

use information_slicing::core::{GraphParams, OverlayAddr, ShardedRelay, SourceSession, Tick};
use information_slicing::overlay::daemon::now_tick;
use information_slicing::overlay::{spawn_node, EmulatedNet, NodeSpec};
use information_slicing::sim::NetProfile;
use information_slicing::wire::Packet;
use tokio::sync::mpsc;

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
    let (_, sends) = alice.send_message(b"hi bob, it's... someone").expect("within chunk budget");
    for instr in sends {
        let port = if instr.from == port_a.addr { &port_a } else { &port_b };
        port.tx.send(instr.to, instr.packet.encode()).await;
    }

    // Bob's event loop: decode the message, reply on the reverse path.
    let mut bob_flow = None;
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
                let out = bob.handle_packet(now_tick(epoch), from, &packet);
                if let Some(&(flow, true)) = out.established.first() {
                    bob_flow = Some(flow);
                }
                for send in out.sends {
                    bob_port.tx.send(send.to, send.packet.encode()).await;
                }
                if let Some(msg) = out.received.into_iter().next() {
                    println!("Bob received : {:?}", String::from_utf8_lossy(&msg.plaintext));
                    let flow = bob_flow.expect("established before data");
                    let replies = bob
                        .send_reverse(now_tick(epoch), flow, 0, b"hello, mysterious stranger")
                        .expect("bob is the receiver");
                    for send in replies {
                        bob_port.tx.send(send.to, send.packet.encode()).await;
                    }
                    replied = true;
                }
            }
            // Alice's pseudo-sources listen for the reverse reply.
            maybe = port_a.rx.recv(), if replied => {
                if let Some((from, bytes)) = maybe {
                    if let Ok(p) = Packet::decode(&bytes) {
                        let a = port_a.addr;
                        reply = alice.handle_packet(Tick(0), a, from, &p);
                    }
                }
            }
            maybe = port_b.rx.recv(), if replied => {
                if let Some((from, bytes)) = maybe {
                    if let Ok(p) = Packet::decode(&bytes) {
                        let a = port_b.addr;
                        reply = alice.handle_packet(Tick(0), a, from, &p);
                    }
                }
            }
            // Bob's timers (reverse first-hop relays flush on timeout).
            _ = ticker.tick() => {
                let out = bob.poll(now_tick(epoch));
                for send in out.sends {
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
