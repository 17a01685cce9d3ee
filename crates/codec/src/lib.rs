//! The information-slicing codec (§4.1, §4.3.2, §4.4, §4.4.1, §9.4(a)).
//!
//! A message is randomized by multiplying it with a random invertible
//! matrix `A` and split into `d` **information slices** — each slice
//! carries one coded block plus the row of `A` that produced it (Fig. 3).
//! An observer holding fewer than `d` slices learns *nothing* about the
//! message (pi-security, Lemma 5.1); the intended recipient gathers `d`
//! slices and inverts: `m = A⁻¹ I*` (§4.3.5).
//!
//! For churn resilience the source can emit `d′ > d` *dependent* slices
//! using a generator in which any `d` rows are independent (§4.4(b));
//! relays can then regenerate lost redundancy by re-coding random linear
//! combinations of the slices they received — network coding, §4.4.1 —
//! via [`recombine()`].
//!
//! Module map:
//! * [`slice`](mod@slice) — the [`InfoSlice`] type and its serialization.
//! * [`coder`] — [`encode`] / [`decode`] and the byte-level GF kernels.
//! * [`recombine`](mod@recombine) — relay-side redundancy regeneration.
//! * [`transform`] — per-hop affine slice transforms that defeat
//!   pattern-insertion tracking (§9.4(a)).

#![forbid(unsafe_code)]

pub mod coder;
pub mod recombine;
pub mod slice;
pub mod transform;

pub use coder::{decode, decode_blocks, encode, encode_blocks, CodecError};
pub use recombine::recombine;
pub use slice::{InfoSlice, SlicedMessage};
pub use transform::HopTransform;
