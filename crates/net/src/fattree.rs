//! A k-ary fat-tree: leaves are processors, link bundles widen toward the
//! root.
//!
//! The fat-tree is the canonical "bandwidth does not thin out" topology
//! (Leiserson's universal network; every large cluster fabric since is a
//! folded variant), which makes it the natural counterpoint to the EM-X's
//! circular Omega: logarithmic distance like the Omega, but with explicit
//! up/down routing through a lowest-common-ancestor switch instead of a
//! fixed multistage permutation.
//!
//! Structure: `P` leaves, switches of `arity` children per level above
//! them. The edge between a level-`l` node and its parent is a *bundle* of
//! `arity^l` parallel sub-links (leaf edges are single links; each level
//! up multiplies the bundle width by `arity`), so the aggregate capacity
//! entering any subtree equals the leaves below it. A packet climbs
//! up-edges to the lowest common ancestor of source and destination, then
//! descends down-edges; each sub-link has the same virtual-cut-through
//! timing as every other model here (head advances
//! [`hop_cycles`](emx_core::NetConfig::hop_cycles) per traversed edge,
//! a sub-link stays busy [`port_service`](emx_core::NetConfig::port_service)
//! cycles per packet). A packet entering a bundle takes the
//! earliest-free sub-link, lowest index on ties — deterministic, and
//! monotone: a reservation only raises sub-link free times, so the bundle
//! minimum never decreases and same-pair packets (which traverse the
//! identical bundle sequence) cannot overtake.

use emx_core::{Cycle, NetConfig, PeId, SimError};

use crate::stats::NetStats;
use crate::Network;

/// A k-ary fat-tree with per-sub-link contention.
pub struct FatTreeNetwork {
    arity: usize,
    /// Up-edge levels: a packet from leaf to root traverses
    /// `levels` up-edges. 0 for a single-leaf machine.
    levels: usize,
    cfg: NetConfig,
    /// `up[l]` / `down[l]`: the sub-link free times of every level-`l`
    /// edge, flattened as `node * width[l] + sublink` where `node` is the
    /// level-`l` node id (`leaf / arity^l`).
    up: Vec<Vec<Cycle>>,
    down: Vec<Vec<Cycle>>,
    /// Sub-links per level-`l` edge: `arity^l`.
    width: Vec<usize>,
    stats: NetStats,
}

/// Reserve the earliest-free sub-link of one bundle (lowest index on
/// ties): the packet head arrives at `head`, waits until the link frees,
/// holds it for `service`, and advances `hop` cycles.
fn traverse(bundle: &mut [Cycle], head: Cycle, hop: u64, service: u64) -> (Cycle, Cycle) {
    let mut best = 0;
    for (i, &free) in bundle.iter().enumerate() {
        if free < bundle[best] {
            best = i;
        }
    }
    let ready = head.max(bundle[best]);
    let waited = ready - head;
    bundle[best] = ready + service;
    (ready + hop, waited)
}

impl FatTreeNetwork {
    /// Build a fat-tree over `num_pes` leaves with `arity` children per
    /// switch.
    pub fn new(num_pes: usize, arity: usize, cfg: NetConfig) -> Result<Self, SimError> {
        if num_pes == 0 {
            return Err(SimError::BadConfig {
                reason: "fat-tree needs at least one leaf".into(),
            });
        }
        if arity < 2 {
            return Err(SimError::BadConfig {
                reason: format!("fat-tree arity must be at least 2, got {arity}"),
            });
        }
        let mut levels = 0usize;
        let mut span = 1usize; // leaves under one level-`levels` node
        while span < num_pes {
            span *= arity;
            levels += 1;
        }
        let mut up = Vec::with_capacity(levels);
        let mut down = Vec::with_capacity(levels);
        let mut width = Vec::with_capacity(levels);
        let mut w = 1usize;
        let mut nodes = num_pes;
        for _ in 0..levels {
            up.push(vec![Cycle::ZERO; nodes * w]);
            down.push(vec![Cycle::ZERO; nodes * w]);
            width.push(w);
            w *= arity;
            nodes = nodes.div_ceil(arity);
        }
        Ok(FatTreeNetwork {
            arity,
            levels,
            cfg,
            up,
            down,
            width,
            stats: NetStats::default(),
        })
    }

    /// `(arity, up-edge levels)` of the built tree.
    pub fn shape(&self) -> (usize, usize) {
        (self.arity, self.levels)
    }

    /// Number of up-edges from `src`'s leaf to the lowest common ancestor
    /// with `dst` (equals the down-edges back out).
    fn lca_level(&self, src: PeId, dst: PeId) -> usize {
        let (mut a, mut b) = (src.index(), dst.index());
        let mut l = 0;
        while a != b {
            a /= self.arity;
            b /= self.arity;
            l += 1;
        }
        l
    }
}

impl Network for FatTreeNetwork {
    fn route(&mut self, now: Cycle, src: PeId, dst: PeId) -> Cycle {
        if src == dst {
            self.stats.record(1, 0, Cycle::ZERO);
            return now + u64::from(self.cfg.hop_cycles);
        }
        let hop = u64::from(self.cfg.hop_cycles);
        let service = u64::from(self.cfg.port_service);
        let lca = self.lca_level(src, dst);
        let mut head = now + hop;
        let mut waited = Cycle::ZERO;
        for l in 0..lca {
            let node = src.index() / self.arity.pow(l as u32);
            let w = self.width[l];
            let bundle = &mut self.up[l][node * w..(node + 1) * w];
            let (h, wt) = traverse(bundle, head, hop, service);
            head = h;
            waited += wt;
        }
        for l in (0..lca).rev() {
            let node = dst.index() / self.arity.pow(l as u32);
            let w = self.width[l];
            let bundle = &mut self.down[l][node * w..(node + 1) * w];
            let (h, wt) = traverse(bundle, head, hop, service);
            head = h;
            waited += wt;
        }
        self.stats.record(1, (2 * lca) as u32, waited);
        head
    }

    fn hops(&self, src: PeId, dst: PeId) -> u32 {
        if src == dst {
            return 0;
        }
        (2 * self.lca_level(src, dst)) as u32
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn save_state(&self) -> crate::NetSnapshot {
        // Up-edge timelines of every level, then down-edge timelines, in
        // level order; the level shapes are configuration, so lengths
        // restore unambiguously.
        let words = self
            .up
            .iter()
            .chain(self.down.iter())
            .flat_map(|level| level.iter().map(|c| c.get()))
            .collect();
        crate::NetSnapshot {
            stats: self.stats.clone(),
            words,
            inner: None,
        }
    }

    fn load_state(&mut self, snap: &crate::NetSnapshot) -> Result<(), SimError> {
        let total: usize = self
            .up
            .iter()
            .chain(self.down.iter())
            .map(|level| level.len())
            .sum();
        if snap.words.len() != total {
            return Err(crate::NetSnapshot::shape_error("fat-tree"));
        }
        self.stats = snap.stats.clone();
        let mut words = snap.words.iter();
        for level in self.up.iter_mut().chain(self.down.iter_mut()) {
            for slot in level.iter_mut() {
                *slot = Cycle::new(*words.next().expect("length checked"));
            }
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "fat-tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(pes: usize, arity: usize) -> FatTreeNetwork {
        FatTreeNetwork::new(pes, arity, NetConfig::default()).unwrap()
    }

    #[test]
    fn shape_matches_the_leaf_count() {
        assert_eq!(net(16, 4).shape(), (4, 2));
        assert_eq!(net(16, 2).shape(), (2, 4));
        assert_eq!(net(1, 2).shape(), (2, 0));
        assert_eq!(net(17, 4).shape(), (4, 3), "padding rounds the depth up");
    }

    #[test]
    fn up_down_routing_climbs_exactly_to_the_lowest_common_ancestor() {
        let n = net(16, 4);
        // Siblings under one leaf switch: 1 up + 1 down.
        assert_eq!(n.hops(PeId(0), PeId(3)), 2);
        // Different leaf switches: through the root, 2 up + 2 down.
        assert_eq!(n.hops(PeId(0), PeId(15)), 4);
        assert_eq!(n.hops(PeId(4), PeId(7)), 2);
        // Symmetric, and zero on loopback.
        for (a, b) in [(0u16, 3u16), (0, 15), (2, 9)] {
            assert_eq!(n.hops(PeId(a), PeId(b)), n.hops(PeId(b), PeId(a)));
        }
        assert_eq!(n.hops(PeId(5), PeId(5)), 0);
    }

    #[test]
    fn uncontended_latency_is_hops_plus_one() {
        let mut n = net(16, 4);
        assert_eq!(n.route(Cycle::new(10), PeId(0), PeId(3)), Cycle::new(13));
        assert_eq!(n.route(Cycle::new(20), PeId(0), PeId(15)), Cycle::new(25));
    }

    #[test]
    fn sibling_leaf_links_contend_but_fat_upper_bundles_do_not() {
        // Two packets out of the same leaf share its single up-link and
        // serialize; two packets from *different* leaves crossing the same
        // upper edge ride parallel sub-links of the widened bundle.
        let mut n = net(16, 4);
        let a = n.route(Cycle::new(0), PeId(0), PeId(15));
        let b = n.route(Cycle::new(0), PeId(0), PeId(15));
        assert!(b > a, "shared leaf up-link must serialize");

        let mut n = net(16, 4);
        // Leaves 0..4 sit under one switch; all target the far subtree, so
        // all four cross the same level-1 up-edge (width 4) concurrently.
        let arrivals: Vec<Cycle> = (0..4u16)
            .map(|s| n.route(Cycle::new(0), PeId(s), PeId(12 + s)))
            .collect();
        assert!(
            arrivals.iter().all(|&t| t == arrivals[0]),
            "width-4 bundle carries four concurrent packets without waiting: {arrivals:?}"
        );
        assert_eq!(n.stats().contention_wait.get(), 0);
    }

    #[test]
    fn non_overtaking_per_pair() {
        let mut n = net(64, 4);
        let mut last = Cycle::ZERO;
        for i in 0..100u64 {
            n.route(
                Cycle::new(i),
                PeId((i % 64) as u16),
                PeId(((i * 11) % 64) as u16),
            );
            let arr = n.route(Cycle::new(i), PeId(5), PeId(50));
            assert!(arr >= last);
            last = arr;
        }
    }

    #[test]
    fn local_delivery_one_cycle() {
        let mut n = net(9, 2);
        assert_eq!(n.route(Cycle::new(3), PeId(4), PeId(4)), Cycle::new(4));
    }

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(FatTreeNetwork::new(0, 2, NetConfig::default()).is_err());
        assert!(FatTreeNetwork::new(8, 1, NetConfig::default()).is_err());
    }
}
