//! Forwarding-graph construction — the paper's Algorithm 1 plus the
//! per-node information, slice-maps, data-maps and flow-id machinery of
//! §4.3.
//!
//! The source arranges `L` stages of `d′` relays (stage 0 being itself and
//! its pseudo-sources), assigns every relay's confidential routing
//! information to `d′` slices travelling on **vertex-disjoint paths**, and
//! computes for every relay the slice-map (§4.3.6) and data-map (§4.3.7)
//! that tell it how to forward without learning anything beyond its own
//! parents and children.
//!
//! Our slice-to-node assignment uses a *balanced* variant of the paper's
//! "distribute randomly, one slice per node" rule: per target stage the
//! transition permutations between consecutive stages form a Latin-square
//! decomposition of the complete bipartite stage graph, which makes every
//! packet carry **exactly** `L − m` real slices at stage boundary
//! `m → m+1` — matching Fig. 4, where each source packet carries one slice
//! per downstream stage — so packets are constant-size with pure random
//! padding in the unused slots (§9.4(c)).
//!
//! Module map:
//! * [`addr`] — opaque overlay addresses.
//! * [`params`] — graph parameters and validation.
//! * [`info`] — the per-node information `I_x` (§4.3.1) and its
//!   fixed-size serialization.
//! * [`build`] — graph construction (Algorithm 1) and path/slice-map
//!   computation.
//! * [`packets`] — emission of the setup packets the pseudo-sources send,
//!   from a graph's transient [`Blueprint`].

#![forbid(unsafe_code)]

pub mod addr;
pub mod build;
pub mod info;
pub mod packets;
pub mod params;

pub use addr::OverlayAddr;
pub use build::{rebuild_excluding, Blueprint, BuiltGraph, GraphError, NodePosition};
pub use info::{NodeInfo, SliceMapEntry};
pub use params::{DataMode, DestPlacement, GraphParams};
