//! The §9.3 "powerful firewall" scenario: a censor sees *every* slice
//! crossing the border, but as long as at least one slice travels
//! encrypted (through a pseudo-source tunnel) — or the graph is cut
//! across stages — it cannot reconstruct the message.
//!
//! This example demonstrates the information-theoretic half of that
//! argument with the codec directly: given all-but-one slice, every
//! candidate plaintext is equally consistent (pi-security, Lemma 5.1).
//!
//! Run with: `cargo run --example firewall_slices`

use information_slicing::codec::{decode, encode};
use information_slicing::gf::{Gf256, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2024);
    let message = b"meet at the border cafe at noon";
    let d = 3;

    // The sender splits the message into d = 3 slices; one slice is
    // tunneled to a pseudo-source outside the firewall (the censor sees
    // only ciphertext for it), the other two cross openly.
    let coded = encode(message, d, d, &mut rng);
    let crossing_openly = &coded.slices[..d - 1];
    println!(
        "firewall observes {} of {} slices ({} bytes each)",
        crossing_openly.len(),
        d,
        crossing_openly[0].payload.len()
    );

    // The censor tries to brute-force the first byte of the message
    // block: every candidate value is *consistent* with what it saw.
    let block_len = coded.block_len;
    let mut consistent = 0usize;
    for candidate in 0..=255u8 {
        // Fix message block 0, byte 0 to `candidate`; check that the
        // remaining unknowns can still satisfy the observed slices.
        let mut a = Matrix::zero(d - 1, d - 1);
        let mut b = Vec::new();
        for (i, s) in crossing_openly.iter().enumerate() {
            for k in 1..d {
                a.set(i, k - 1, Gf256::new(s.coeffs[k]));
            }
            b.push(
                Gf256::new(s.payload[0])
                    .sub(Gf256::new(s.coeffs[0]).mul(Gf256::new(candidate))),
            );
        }
        if a.solve(&b).is_some() {
            consistent += 1;
        }
    }
    println!("candidate first bytes consistent with the observation: {consistent}/256");
    assert_eq!(consistent, 256, "pi-security: nothing is ruled out");
    let _ = block_len;

    // The intended recipient, holding all d slices, decodes trivially.
    let decoded = decode(&coded.slices, d).unwrap();
    assert_eq!(decoded, message);
    println!(
        "recipient with all {} slices decodes: {:?}",
        d,
        String::from_utf8_lossy(&decoded)
    );
    println!("the censor learned nothing; the message crossed anyway.");
}
