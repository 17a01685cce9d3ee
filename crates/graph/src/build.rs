//! Graph construction: Algorithm 1 with balanced (Latin-square) slice
//! distribution, per-node info assembly, and path bookkeeping.

use std::collections::HashSet;

use rand::seq::SliceRandom;
use rand::Rng;

use slicing_codec::{coder, HopTransform, InfoSlice};
use slicing_crypto::SymmetricKey;
use slicing_wire::FlowId;

use crate::addr::OverlayAddr;
use crate::info::NodeInfo;
use crate::params::{DestPlacement, GraphParams};

/// A node's position in the graph: stage (0 = source stage) and index
/// within the stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodePosition {
    /// Stage, `0..=L`.
    pub stage: usize,
    /// Index within the stage, `0..d′`.
    pub index: usize,
}

/// Construction failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Parameter validation failed.
    BadParams(String),
    /// Not enough distinct candidate relays for `L × d′ − 1` slots.
    NotEnoughRelays {
        /// Candidates supplied (excluding destination).
        have: usize,
        /// Required.
        need: usize,
    },
    /// Wrong number of pseudo-sources (must equal `d′`).
    WrongPseudoSourceCount {
        /// Supplied.
        have: usize,
        /// Required (`d′`).
        need: usize,
    },
    /// An address appears more than once across candidates,
    /// pseudo-sources and destination.
    DuplicateAddress(OverlayAddr),
    /// A node that cannot be excluded from the graph (the destination or
    /// a pseudo-source) was reported dead.
    UnrepairableNode(OverlayAddr),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::BadParams(msg) => write!(f, "bad parameters: {msg}"),
            GraphError::NotEnoughRelays { have, need } => {
                write!(f, "need {need} candidate relays, have {have}")
            }
            GraphError::WrongPseudoSourceCount { have, need } => {
                write!(f, "need {need} pseudo-sources, have {have}")
            }
            GraphError::DuplicateAddress(a) => write!(f, "duplicate address {a:?}"),
            GraphError::UnrepairableNode(a) => {
                write!(f, "node {a:?} cannot be replaced (destination or pseudo-source)")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Slice-position bookkeeping: where each slice of each target node sits
/// at each upstream stage.
///
/// `holder(l, x, k, m)` = index within stage `m` of the node carrying
/// slice `k` of the target at `(stage l, index x)`, for `0 ≤ m < l`.
///
/// The construction is `(κ_{l,x}(k) + x·m + γ_{l,m}) mod d′` with a random
/// permutation `κ` per target and random offsets `γ` per (target-stage,
/// path-stage). Per boundary `m → m+1` the transition of target `x`'s
/// slices is the shift `i ↦ i + x + δ`, so across the `d′` targets of a
/// stage the transitions tile the complete bipartite stage graph exactly
/// once — every edge carries exactly one slice per downstream stage
/// (matching Fig. 4), and paths of one target's slices are vertex-disjoint
/// (distinct shifts of a permutation).
#[derive(Clone, Debug)]
pub struct Holders {
    d_prime: usize,
    /// `kappa[l][x]` — slice-index permutation per target (stage `l ≥ 1`).
    kappa: Vec<Vec<Vec<usize>>>,
    /// `gamma[l][m]` — offset per (target stage, path stage).
    gamma: Vec<Vec<usize>>,
}

impl Holders {
    fn generate<R: Rng + ?Sized>(length: usize, d_prime: usize, rng: &mut R) -> Self {
        let mut kappa = vec![Vec::new()];
        let mut gamma = vec![Vec::new()];
        for l in 1..=length {
            let mut per_target = Vec::with_capacity(d_prime);
            for _ in 0..d_prime {
                let mut perm: Vec<usize> = (0..d_prime).collect();
                perm.shuffle(rng);
                per_target.push(perm);
            }
            kappa.push(per_target);
            gamma.push((0..l).map(|_| rng.gen_range(0..d_prime)).collect());
        }
        Holders {
            d_prime,
            kappa,
            gamma,
        }
    }

    /// Index within stage `m` holding slice `k` of target `(l, x)`.
    ///
    /// # Panics
    /// Panics unless `1 ≤ l`, `m < l`, `x < d′`, `k < d′`.
    pub fn holder(&self, l: usize, x: usize, k: usize, m: usize) -> usize {
        assert!(l >= 1 && m < l && x < self.d_prime && k < self.d_prime);
        (self.kappa[l][x][k] + x * m + self.gamma[l][m]) % self.d_prime
    }

    /// Full path of slice `k` of target `(l, x)`: holder indices at stages
    /// `0..l` (position 0 is the pseudo-source index).
    pub fn path(&self, l: usize, x: usize, k: usize) -> Vec<usize> {
        (0..l).map(|m| self.holder(l, x, k, m)).collect()
    }
}

/// A fully constructed forwarding graph, ready to emit setup packets.
#[derive(Clone, Debug)]
pub struct BuiltGraph {
    /// The parameters it was built with.
    pub params: GraphParams,
    /// Node addresses: `stages[0]` = pseudo-sources, `stages[1..=L]` = relays.
    pub stages: Vec<Vec<OverlayAddr>>,
    /// The destination's position (stage ≥ 1).
    pub dest: NodePosition,
    /// The destination's secret key (what the source encrypts data with).
    pub dest_key: SymmetricKey,
    /// Forward flow-ids per relay: `flow_ids[stage][index]` (stage ≥ 1).
    pub flow_ids: Vec<Vec<FlowId>>,
    /// Reverse flow-ids per node, including stage 0 (where the source
    /// listens for reverse-path data).
    pub reverse_flow_ids: Vec<Vec<FlowId>>,
    /// Per-relay info blobs: `infos[stage][index]` (stage ≥ 1).
    pub infos: Vec<Vec<NodeInfo>>,
    /// Per-relay hop transforms (duplicated from infos for source-side
    /// wrapping).
    pub transforms: Vec<Vec<HopTransform>>,
    /// Coded info slices per relay: `info_slices[stage][index][k]`.
    pub info_slices: Vec<Vec<Vec<InfoSlice>>>,
    /// Slice-position bookkeeping.
    pub holders: Holders,
    /// Codec block length of the info slices.
    pub info_block_len: usize,
    /// Per-boundary offsets `h_m` for the static data-map
    /// (`slice (i + j + h_m) mod d′` crosses edge `(i, j)`).
    pub data_offsets: Vec<usize>,
}

/// Build a forwarding graph.
///
/// * `pseudo_sources` — exactly `d′` addresses the source controls (§3(c)).
/// * `candidates` — the pool of overlay relays to draw from (the paper's
///   node list, §7.1); must not contain `dest` or any pseudo-source.
/// * `dest` — the destination's address; placed per
///   [`GraphParams::dest_placement`].
pub fn build<R: Rng + ?Sized>(
    params: GraphParams,
    pseudo_sources: &[OverlayAddr],
    candidates: &[OverlayAddr],
    dest: OverlayAddr,
    rng: &mut R,
) -> Result<BuiltGraph, GraphError> {
    params.validate().map_err(GraphError::BadParams)?;
    let (l_len, d, dp) = (params.length, params.split, params.paths);

    if pseudo_sources.len() != dp {
        return Err(GraphError::WrongPseudoSourceCount {
            have: pseudo_sources.len(),
            need: dp,
        });
    }
    let need = l_len * dp - 1;
    if candidates.len() < need {
        return Err(GraphError::NotEnoughRelays {
            have: candidates.len(),
            need,
        });
    }
    // Address uniqueness across the whole graph.
    let mut seen = HashSet::new();
    for &a in pseudo_sources.iter().chain(candidates.iter()).chain([&dest]) {
        if !seen.insert(a) {
            return Err(GraphError::DuplicateAddress(a));
        }
    }

    // Pick L·d′ − 1 distinct relays, then splice the destination in at its
    // placement (§4.2.1: "randomly assigned to one of the stages").
    let mut pool: Vec<OverlayAddr> = candidates.to_vec();
    pool.shuffle(rng);
    pool.truncate(need);
    let dest_stage = match params.dest_placement {
        DestPlacement::Random => rng.gen_range(1..=l_len),
        DestPlacement::LastStage => l_len,
        DestPlacement::Stage(s) => s,
    };
    let dest_index = rng.gen_range(0..dp);
    let mut stages: Vec<Vec<OverlayAddr>> = vec![pseudo_sources.to_vec()];
    let mut pool_iter = pool.into_iter();
    for stage in 1..=l_len {
        let mut nodes = Vec::with_capacity(dp);
        for idx in 0..dp {
            if stage == dest_stage && idx == dest_index {
                nodes.push(dest);
            } else {
                nodes.push(pool_iter.next().expect("pool sized above"));
            }
        }
        stages.push(nodes);
    }

    // Flow ids (unique across the graph), reverse flow ids, keys,
    // transforms.
    let mut used_flows = HashSet::new();
    let mut fresh_flow = |rng: &mut R| loop {
        let f = FlowId::random(rng);
        if f.0 != 0 && used_flows.insert(f) {
            return f;
        }
    };
    let mut flow_ids: Vec<Vec<FlowId>> = vec![vec![]];
    let mut reverse_flow_ids: Vec<Vec<FlowId>> =
        vec![(0..dp).map(|_| fresh_flow(rng)).collect()];
    let mut keys: Vec<Vec<SymmetricKey>> = vec![vec![]];
    let mut transforms: Vec<Vec<HopTransform>> = vec![vec![]];
    for _stage in 1..=l_len {
        flow_ids.push((0..dp).map(|_| fresh_flow(rng)).collect());
        reverse_flow_ids.push((0..dp).map(|_| fresh_flow(rng)).collect());
        keys.push((0..dp).map(|_| SymmetricKey::random(rng)).collect());
        transforms.push((0..dp).map(|_| HopTransform::random(rng)).collect());
    }

    let holders = Holders::generate(l_len, dp, rng);
    let data_offsets: Vec<usize> = (0..l_len).map(|_| rng.gen_range(0..dp)).collect();

    let infos = assemble_infos(
        &params,
        &stages,
        &flow_ids,
        &reverse_flow_ids,
        &keys,
        &transforms,
        &holders,
        &data_offsets,
        dest_stage,
        dest_index,
    );
    let (info_slices, info_block_len) = slice_infos(&infos, d, dp, rng);

    Ok(BuiltGraph {
        params,
        dest: NodePosition {
            stage: dest_stage,
            index: dest_index,
        },
        dest_key: keys[dest_stage][dest_index],
        stages,
        flow_ids,
        reverse_flow_ids,
        infos,
        transforms,
        info_slices,
        holders,
        info_block_len,
        data_offsets,
    })
}

/// Assemble per-node infos for a graph whose node placement, keys, flow
/// ids, transforms and slice-position bookkeeping are already fixed.
/// Shared by initial construction and by [`rebuild_excluding`] (which
/// changes only the entries at replaced positions and recomputes the
/// rest from the same inputs).
#[allow(clippy::too_many_arguments)] // internal assembly step over one graph's parts
fn assemble_infos(
    params: &GraphParams,
    stages: &[Vec<OverlayAddr>],
    flow_ids: &[Vec<FlowId>],
    reverse_flow_ids: &[Vec<FlowId>],
    keys: &[Vec<SymmetricKey>],
    transforms: &[Vec<HopTransform>],
    holders: &Holders,
    data_offsets: &[usize],
    dest_stage: usize,
    dest_index: usize,
) -> Vec<Vec<NodeInfo>> {
    let (l_len, d, dp) = (params.length, params.split, params.paths);
    let mut infos: Vec<Vec<NodeInfo>> = vec![vec![]];
    for stage in 1..=l_len {
        let mut stage_infos = Vec::with_capacity(dp);
        for v in 0..dp {
            let has_children = stage < l_len;
            // Parents: stage-1 relays' parents are the pseudo-sources.
            let parents: Vec<(OverlayAddr, FlowId)> = (0..dp)
                .map(|i| (stages[stage - 1][i], reverse_flow_ids[stage - 1][i]))
                .collect();
            let children: Vec<(OverlayAddr, FlowId)> = if has_children {
                (0..dp)
                    .map(|j| (stages[stage + 1][j], flow_ids[stage + 1][j]))
                    .collect()
            } else {
                vec![]
            };
            // Static data-map (Map mode): to child j, forward the data
            // slice received from parent (j + h_stage − h_{stage−1}).
            let data_map: Vec<u8> = if has_children {
                (0..dp)
                    .map(|j| {
                        ((j + data_offsets[stage] + dp - data_offsets[stage - 1]) % dp) as u8
                    })
                    .collect()
            } else {
                vec![]
            };
            // Slice-map: out slot s of the packet to child j.
            let out_real = if has_children { l_len - stage } else { 0 };
            let slice_map: Vec<Vec<Option<u8>>> = if has_children {
                (0..dp)
                    .map(|j| {
                        (0..l_len)
                            .map(|s| {
                                if s >= out_real {
                                    return None;
                                }
                                if s == 0 {
                                    // Slot 0: child j's own slice — the
                                    // one whose path puts it at me (v) at
                                    // this stage.
                                    let k = (0..dp)
                                        .find(|&k| holders.holder(stage + 1, j, k, stage) == v)
                                        .expect("own-slice permutation");
                                    let parent = holders.holder(stage + 1, j, k, stage - 1);
                                    return Some(parent as u8);
                                }
                                // Slot s ≥ 1 carries the slice of the
                                // unique target at stage (stage + 1 + s)
                                // passing through (me=v at `stage`, child
                                // j at `stage+1`).
                                let target_stage = stage + 1 + s;
                                let (x, k) = find_transit(
                                    holders, target_stage, stage, v, j, dp,
                                );
                                let parent = holders.holder(target_stage, x, k, stage - 1);
                                Some(parent as u8)
                            })
                            .collect()
                    })
                    .collect()
            } else {
                vec![]
            };
            stage_infos.push(NodeInfo {
                receiver: stage == dest_stage && v == dest_index,
                dest_parent: stage + 1 == dest_stage,
                recode: matches!(params.data_mode, crate::params::DataMode::Recode),
                secret_key: keys[stage][v],
                reverse_flow_id: reverse_flow_ids[stage][v],
                d: d as u8,
                d_prime: dp as u8,
                slots: l_len as u8,
                out_real_slots: out_real as u8,
                transform: transforms[stage][v],
                parents,
                children,
                data_map,
                slice_map,
            });
        }
        infos.push(stage_infos);
    }
    infos
}

/// Code every info blob into `d′` slices of `d` blocks each.
fn slice_infos<R: Rng + ?Sized>(
    infos: &[Vec<NodeInfo>],
    d: usize,
    dp: usize,
    rng: &mut R,
) -> (Vec<Vec<Vec<InfoSlice>>>, usize) {
    let mut info_slices: Vec<Vec<Vec<InfoSlice>>> = vec![vec![]];
    let mut info_block_len = 0;
    for stage_infos in infos.iter().skip(1) {
        let mut per_node = Vec::with_capacity(dp);
        for info in stage_infos {
            let bytes = info.encode();
            let coded = coder::encode(&bytes, d, dp, rng);
            if info_block_len == 0 {
                info_block_len = coded.block_len;
            }
            assert_eq!(
                coded.block_len, info_block_len,
                "fixed-size info encoding violated"
            );
            per_node.push(coded.slices);
        }
        info_slices.push(per_node);
    }
    (info_slices, info_block_len)
}

/// Re-run Algorithm 1 after node failures, reusing everything that
/// survived: surviving nodes keep their positions, addresses, secret
/// keys, transforms and flow ids, and the slice-position bookkeeping
/// ([`Holders`]) and data offsets are carried over unchanged. Only the
/// dead positions are re-keyed — each gets a fresh address drawn from
/// `replacements`, a fresh key, transform and fresh flow ids — so the
/// repair touches exactly the dead nodes and their direct neighbours
/// (whose parent/child lists name the replacement).
///
/// Returns the repaired graph plus the positions whose [`NodeInfo`]
/// changed (the replacement itself and the dead node's neighbours);
/// everything else is byte-identical and needs no re-establishment.
///
/// `dead` addresses not present in the graph are ignored. Reporting the
/// destination or a pseudo-source dead is an error
/// ([`GraphError::UnrepairableNode`]) — the session cannot outlive
/// either.
pub fn rebuild_excluding<R: Rng + ?Sized>(
    graph: &BuiltGraph,
    dead: &HashSet<OverlayAddr>,
    replacements: &[OverlayAddr],
    rng: &mut R,
) -> Result<(BuiltGraph, Vec<NodePosition>), GraphError> {
    let params = graph.params;
    let (l_len, d, dp) = (params.length, params.split, params.paths);

    if let Some(&a) = dead.iter().find(|a| graph.stages[0].contains(a)) {
        return Err(GraphError::UnrepairableNode(a));
    }
    if dead.contains(&graph.dest_addr()) {
        return Err(GraphError::UnrepairableNode(graph.dest_addr()));
    }

    // Locate the dead positions (dead addresses not in the graph are
    // someone else's problem).
    let mut dead_positions: Vec<NodePosition> = Vec::new();
    for stage in 1..=l_len {
        for v in 0..dp {
            if dead.contains(&graph.stages[stage][v]) {
                dead_positions.push(NodePosition { stage, index: v });
            }
        }
    }

    // Fresh addresses: replacements minus anything already placed, the
    // dead themselves, and duplicates within the caller's list (a
    // repeated spare handed to two dead positions would place one
    // address twice and corrupt both paths).
    let placed: HashSet<OverlayAddr> = graph
        .stages
        .iter()
        .flatten()
        .copied()
        .collect();
    let mut seen_fresh = HashSet::new();
    let fresh: Vec<OverlayAddr> = replacements
        .iter()
        .copied()
        .filter(|&a| !placed.contains(&a) && !dead.contains(&a) && seen_fresh.insert(a))
        .collect();
    if fresh.len() < dead_positions.len() {
        return Err(GraphError::NotEnoughRelays {
            have: fresh.len(),
            need: dead_positions.len(),
        });
    }
    let mut fresh_addrs = fresh.into_iter();
    // Fresh flow ids must not collide with any id the graph still uses.
    let mut used_flows: HashSet<FlowId> = graph
        .flow_ids
        .iter()
        .chain(graph.reverse_flow_ids.iter())
        .flatten()
        .copied()
        .collect();
    let mut fresh_flow = |rng: &mut R| loop {
        let f = FlowId::random(rng);
        if f.0 != 0 && used_flows.insert(f) {
            return f;
        }
    };

    // Carry everything over; re-key only the dead positions.
    let mut stages = graph.stages.clone();
    let mut flow_ids = graph.flow_ids.clone();
    let mut reverse_flow_ids = graph.reverse_flow_ids.clone();
    let mut transforms = graph.transforms.clone();
    // Keys live inside the infos (the graph does not store them
    // separately); recover the surviving ones from there.
    let mut keys: Vec<Vec<SymmetricKey>> = vec![vec![]];
    for stage_infos in graph.infos.iter().skip(1) {
        keys.push(stage_infos.iter().map(|i| i.secret_key).collect());
    }
    for &pos in &dead_positions {
        let addr = fresh_addrs.next().expect("count checked above");
        stages[pos.stage][pos.index] = addr;
        flow_ids[pos.stage][pos.index] = fresh_flow(rng);
        reverse_flow_ids[pos.stage][pos.index] = fresh_flow(rng);
        keys[pos.stage][pos.index] = SymmetricKey::random(rng);
        transforms[pos.stage][pos.index] = HopTransform::random(rng);
    }

    let infos = assemble_infos(
        &params,
        &stages,
        &flow_ids,
        &reverse_flow_ids,
        &keys,
        &transforms,
        &graph.holders,
        &graph.data_offsets,
        graph.dest.stage,
        graph.dest.index,
    );
    let (info_slices, info_block_len) = slice_infos(&infos, d, dp, rng);

    // Affected = every position whose info changed (replacements plus
    // the dead nodes' direct parents and children).
    let mut affected = Vec::new();
    for (stage, stage_infos) in infos.iter().enumerate().skip(1) {
        for (v, info) in stage_infos.iter().enumerate() {
            if *info != graph.infos[stage][v] {
                affected.push(NodePosition { stage, index: v });
            }
        }
    }

    Ok((
        BuiltGraph {
            params,
            dest: graph.dest,
            dest_key: graph.dest_key,
            stages,
            flow_ids,
            reverse_flow_ids,
            infos,
            transforms,
            info_slices,
            holders: graph.holders.clone(),
            info_block_len,
            data_offsets: graph.data_offsets.clone(),
        },
        affected,
    ))
}

/// Find the unique `(target index, slice index)` of stage `target_stage`
/// whose slice transits `(node v at stage m) → (node j at stage m+1)`.
///
/// # Panics
/// Panics if the Latin-square balance invariant is violated (no match or
/// multiple matches) — this is a construction bug, not a runtime input.
fn find_transit(
    holders: &Holders,
    target_stage: usize,
    m: usize,
    v: usize,
    j: usize,
    dp: usize,
) -> (usize, usize) {
    let mut found = None;
    for x in 0..dp {
        for k in 0..dp {
            if holders.holder(target_stage, x, k, m) == v
                && holders.holder(target_stage, x, k, m + 1) == j
            {
                assert!(
                    found.is_none(),
                    "balance violated: multiple slices on one edge"
                );
                found = Some((x, k));
            }
        }
    }
    found.expect("balance violated: no slice for edge")
}

impl BuiltGraph {
    /// Address of a node by position.
    pub fn addr(&self, pos: NodePosition) -> OverlayAddr {
        self.stages[pos.stage][pos.index]
    }

    /// The destination's address.
    pub fn dest_addr(&self) -> OverlayAddr {
        self.addr(self.dest)
    }

    /// Forward flow-id of a relay (stage ≥ 1).
    pub fn flow_id(&self, pos: NodePosition) -> FlowId {
        self.flow_ids[pos.stage][pos.index]
    }

    /// All relay addresses (stages 1..=L) in stage order.
    pub fn relay_addrs(&self) -> impl Iterator<Item = OverlayAddr> + '_ {
        self.stages[1..].iter().flatten().copied()
    }

    /// Validate structural invariants (used by tests and debug builds):
    /// vertex-disjoint slice paths, Latin balance, unique flow ids.
    pub fn validate(&self) -> Result<(), String> {
        let dp = self.params.paths;
        let l_len = self.params.length;
        // Vertex-disjointness: for each target, at each stage m the d'
        // slices occupy d' distinct nodes.
        for l in 1..=l_len {
            for x in 0..dp {
                for m in 0..l {
                    let mut seen = HashSet::new();
                    for k in 0..dp {
                        if !seen.insert(self.holders.holder(l, x, k, m)) {
                            return Err(format!(
                                "paths not vertex-disjoint at l={l} x={x} m={m}"
                            ));
                        }
                    }
                }
            }
        }
        // Latin balance: each edge (i, j) at boundary m→m+1 carries exactly
        // one slice per downstream target stage.
        for m in 0..l_len.saturating_sub(1) {
            for target in m + 2..=l_len {
                let mut count = vec![vec![0usize; dp]; dp];
                for x in 0..dp {
                    for k in 0..dp {
                        let i = self.holders.holder(target, x, k, m);
                        let j = self.holders.holder(target, x, k, m + 1);
                        count[i][j] += 1;
                    }
                }
                for (i, row) in count.iter().enumerate() {
                    for (j, &c) in row.iter().enumerate() {
                        if c != 1 {
                            return Err(format!(
                                "edge ({i},{j}) at boundary {m} carries {c} slices of stage {target}"
                            ));
                        }
                    }
                }
            }
        }
        // Unique flow ids.
        let mut flows = HashSet::new();
        for stage in self.flow_ids.iter().chain(self.reverse_flow_ids.iter()) {
            for f in stage {
                if !flows.insert(*f) {
                    return Err(format!("duplicate flow id {f:?}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn addrs(base: u64, n: usize) -> Vec<OverlayAddr> {
        (0..n as u64).map(|i| OverlayAddr(base + i)).collect()
    }

    fn build_graph(l: usize, d: usize, dp: usize, seed: u64) -> BuiltGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = GraphParams::new(l, d).with_paths(dp);
        let pseudo = addrs(10_000, dp);
        let candidates = addrs(20_000, l * dp + 10);
        build(params, &pseudo, &candidates, OverlayAddr(1), &mut rng).unwrap()
    }

    #[test]
    fn builds_and_validates() {
        for (l, d, dp) in [(3, 2, 2), (5, 2, 3), (8, 3, 3), (4, 2, 4), (1, 2, 2)] {
            let g = build_graph(l, d, dp, 42 + l as u64);
            g.validate().unwrap();
            assert_eq!(g.stages.len(), l + 1);
            assert!(g.stages.iter().all(|s| s.len() == dp));
        }
    }

    #[test]
    fn destination_present_once() {
        let g = build_graph(5, 2, 3, 7);
        let count = g
            .relay_addrs()
            .filter(|&a| a == OverlayAddr(1))
            .count();
        assert_eq!(count, 1);
        assert_eq!(g.dest_addr(), OverlayAddr(1));
        assert!(g.dest.stage >= 1 && g.dest.stage <= 5);
        // Receiver flag set exactly at the destination.
        for stage in 1..=5 {
            for v in 0..3 {
                let is_dest = stage == g.dest.stage && v == g.dest.index;
                assert_eq!(g.infos[stage][v].receiver, is_dest);
            }
        }
    }

    /// Positions whose info carries the reverse fan-in flag.
    fn dest_parents(g: &BuiltGraph) -> Vec<NodePosition> {
        let mut out = Vec::new();
        for (stage, infos) in g.infos.iter().enumerate().skip(1) {
            for (index, info) in infos.iter().enumerate() {
                if info.dest_parent {
                    out.push(NodePosition { stage, index });
                }
            }
        }
        out
    }

    #[test]
    fn dest_parent_flag_marks_exactly_the_stage_above_the_destination() {
        let mut rng = StdRng::seed_from_u64(37);
        for dest_stage in 1..=4usize {
            let params = GraphParams::new(4, 2)
                .with_paths(3)
                .with_dest_placement(DestPlacement::Stage(dest_stage));
            let g = build(
                params,
                &addrs(10_000, 3),
                &addrs(20_000, 20),
                OverlayAddr(1),
                &mut rng,
            )
            .unwrap();
            let want: Vec<NodePosition> = if dest_stage == 1 {
                // The destination's parents are the pseudo-sources: the
                // source itself, which carries no info.
                Vec::new()
            } else {
                (0..3)
                    .map(|index| NodePosition {
                        stage: dest_stage - 1,
                        index,
                    })
                    .collect()
            };
            assert_eq!(dest_parents(&g), want, "dest at stage {dest_stage}");

            // Repair re-keys positions, never the destination's placement.
            let victim = g
                .relay_addrs()
                .find(|&a| a != g.dest_addr())
                .expect("a non-destination relay");
            let (g2, _) =
                rebuild_excluding(&g, &[victim].into(), &addrs(90_000, 2), &mut rng).unwrap();
            assert_eq!(
                dest_parents(&g2),
                want,
                "dest at stage {dest_stage}, repaired"
            );
        }
    }

    #[test]
    fn dest_placement_respected() {
        let mut rng = StdRng::seed_from_u64(3);
        let params = GraphParams::new(6, 2)
            .with_dest_placement(DestPlacement::LastStage);
        let g = build(
            params,
            &addrs(10_000, 2),
            &addrs(20_000, 20),
            OverlayAddr(1),
            &mut rng,
        )
        .unwrap();
        assert_eq!(g.dest.stage, 6);

        let params = GraphParams::new(6, 2)
            .with_dest_placement(DestPlacement::Stage(2));
        let g = build(
            params,
            &addrs(10_000, 2),
            &addrs(20_000, 20),
            OverlayAddr(1),
            &mut rng,
        )
        .unwrap();
        assert_eq!(g.dest.stage, 2);
    }

    #[test]
    fn errors_reported() {
        let mut rng = StdRng::seed_from_u64(4);
        let params = GraphParams::new(5, 2);
        // Too few candidates.
        let err = build(
            params,
            &addrs(10_000, 2),
            &addrs(20_000, 3),
            OverlayAddr(1),
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::NotEnoughRelays { .. }));
        // Wrong pseudo-source count.
        let err = build(
            params,
            &addrs(10_000, 1),
            &addrs(20_000, 30),
            OverlayAddr(1),
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::WrongPseudoSourceCount { .. }));
        // Duplicate address.
        let err = build(
            params,
            &addrs(10_000, 2),
            &addrs(10_000, 30),
            OverlayAddr(1),
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::DuplicateAddress(_)));
    }

    #[test]
    fn slice_maps_reference_valid_parents() {
        let g = build_graph(6, 2, 3, 9);
        for stage in 1..=6usize {
            for v in 0..3 {
                let info = &g.infos[stage][v];
                let out_real = info.out_real_slots as usize;
                if stage == 6 {
                    assert_eq!(out_real, 0);
                    assert!(info.children.is_empty());
                    continue;
                }
                assert_eq!(out_real, 6 - stage);
                for row in &info.slice_map {
                    for (s, entry) in row.iter().enumerate() {
                        if s < out_real {
                            let p = entry.expect("real slot needs a parent");
                            assert!((p as usize) < 3);
                        } else {
                            assert!(entry.is_none(), "padding slot must be rand");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn data_map_is_a_permutation_per_child_view() {
        // Each child must receive all d' distinct data slices: across its
        // parents v, the slice indices (v + j + h) they forward to child j
        // must be distinct.
        let g = build_graph(5, 2, 3, 11);
        let dp = 3usize;
        for stage in 1..5usize {
            for j in 0..dp {
                let mut seen = HashSet::new();
                for v in 0..dp {
                    let parent_idx = g.infos[stage][v].data_map[j] as usize;
                    // Slice that v received from parent_idx:
                    let slice_idx = (parent_idx + v + g.data_offsets[stage - 1]) % dp;
                    assert!(seen.insert(slice_idx), "child {j} gets duplicate slice");
                }
            }
        }
    }

    #[test]
    fn info_slices_decode_back() {
        use slicing_codec::decode;
        let g = build_graph(4, 2, 3, 13);
        for stage in 1..=4usize {
            for v in 0..3 {
                let decoded = decode(&g.info_slices[stage][v], 2).unwrap();
                let info = NodeInfo::decode(&decoded).unwrap();
                assert_eq!(&info, &g.infos[stage][v]);
            }
        }
    }

    #[test]
    fn rebuild_replaces_only_the_dead_position() {
        let g = build_graph(5, 2, 3, 23);
        let victim = g.stages[2][1];
        let dead: HashSet<OverlayAddr> = [victim].into();
        let spares = addrs(90_000, 4);
        let mut rng = StdRng::seed_from_u64(99);
        let (g2, affected) = rebuild_excluding(&g, &dead, &spares, &mut rng).unwrap();
        g2.validate().unwrap();
        // The victim is gone; its position holds a spare.
        assert!(!g2.relay_addrs().any(|a| a == victim));
        assert_eq!(g2.stages[2][1], OverlayAddr(90_000));
        // Everything else kept its address, flow ids and key.
        for stage in 1..=5usize {
            for v in 0..3 {
                if (stage, v) == (2, 1) {
                    assert_ne!(g2.flow_ids[2][1], g.flow_ids[2][1]);
                    assert_ne!(g2.infos[2][1].secret_key, g.infos[2][1].secret_key);
                    continue;
                }
                assert_eq!(g2.stages[stage][v], g.stages[stage][v]);
                assert_eq!(g2.flow_ids[stage][v], g.flow_ids[stage][v]);
                assert_eq!(g2.infos[stage][v].secret_key, g.infos[stage][v].secret_key);
            }
        }
        // Affected = the replacement plus the victim's parents (stage 1)
        // and children (stage 3): 1 + 3 + 3 positions.
        assert_eq!(affected.len(), 7, "affected: {affected:?}");
        for pos in &affected {
            assert!(
                pos.stage == 2 && pos.index == 1 || pos.stage == 1 || pos.stage == 3,
                "unexpected affected position {pos:?}"
            );
        }
        // Unaffected infos are byte-identical (no re-establishment).
        assert_eq!(g2.infos[4], g.infos[4]);
        assert_eq!(g2.infos[5], g.infos[5]);
        assert_eq!(g2.dest_key, g.dest_key);
    }

    #[test]
    fn rebuild_rejects_unrepairable_and_exhausted() {
        let g = build_graph(4, 2, 2, 29);
        let mut rng = StdRng::seed_from_u64(1);
        // Destination is sacred.
        let err = rebuild_excluding(
            &g,
            &[g.dest_addr()].into(),
            &addrs(90_000, 4),
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::UnrepairableNode(_)));
        // Pseudo-sources too.
        let err = rebuild_excluding(
            &g,
            &[g.stages[0][0]].into(),
            &addrs(90_000, 4),
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::UnrepairableNode(_)));
        // No spare relays left.
        let victim = g
            .relay_addrs()
            .find(|&a| a != g.dest_addr())
            .expect("some non-destination relay");
        let err = rebuild_excluding(&g, &[victim].into(), &[], &mut rng).unwrap_err();
        assert!(matches!(err, GraphError::NotEnoughRelays { .. }));
        // A spare already placed in the graph does not count.
        let err =
            rebuild_excluding(&g, &[victim].into(), &[g.stages[3][0]], &mut rng).unwrap_err();
        assert!(matches!(err, GraphError::NotEnoughRelays { .. }));
        // Duplicate spares collapse to one usable address: two dead
        // nodes cannot share it (that would place one overlay address
        // at two positions and corrupt both paths).
        let second = g
            .relay_addrs()
            .find(|&a| a != g.dest_addr() && a != victim)
            .expect("a second victim");
        let err = rebuild_excluding(
            &g,
            &[victim, second].into(),
            &[OverlayAddr(90_000), OverlayAddr(90_000)],
            &mut rng,
        )
        .unwrap_err();
        assert!(
            matches!(err, GraphError::NotEnoughRelays { have: 1, need: 2 }),
            "got {err:?}"
        );
    }

    #[test]
    fn rebuild_infos_decode_back() {
        use slicing_codec::decode;
        let g = build_graph(4, 2, 3, 31);
        let mut rng = StdRng::seed_from_u64(5);
        let (g2, _) = rebuild_excluding(
            &g,
            &[g.stages[3][2]].into(),
            &addrs(90_000, 2),
            &mut rng,
        )
        .unwrap();
        for stage in 1..=4usize {
            for v in 0..3 {
                let decoded = decode(&g2.info_slices[stage][v], 2).unwrap();
                let info = NodeInfo::decode(&decoded).unwrap();
                assert_eq!(&info, &g2.infos[stage][v]);
            }
        }
        assert_eq!(g2.info_block_len, g.info_block_len, "fixed-size encoding");
    }

    #[test]
    fn holder_paths_are_consistent() {
        let g = build_graph(5, 2, 3, 17);
        for l in 1..=5usize {
            for x in 0..3 {
                for k in 0..3 {
                    let path = g.holders.path(l, x, k);
                    assert_eq!(path.len(), l);
                    for (m, &h) in path.iter().enumerate() {
                        assert_eq!(h, g.holders.holder(l, x, k, m));
                    }
                }
            }
        }
    }
}
