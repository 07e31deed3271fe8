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
//! descends down-edges, one [fabric](crate::fabric) bundle per edge: it
//! takes the earliest-free sub-link, lowest index on ties. That is
//! deterministic and monotone — a reservation only raises sub-link free
//! times, so the bundle minimum never decreases and same-pair packets
//! (which traverse the identical bundle sequence) cannot overtake.

use std::ops::Range;

use emx_core::SimError;

use crate::fabric::Topology;

/// A k-ary fat-tree over `P` leaves.
pub(crate) struct FatTree {
    arity: usize,
    /// Per up-edge level `l`: the first port of the level's up-edges, and
    /// the first port of its down-edges. The fabric's ports hold every up
    /// level, then every down level; a level-`l` node `leaf / arity^l`
    /// owns the `arity^l` sub-links from `node * arity^l`.
    up: Vec<usize>,
    down: Vec<usize>,
    ports: usize,
}

impl FatTree {
    /// The fat-tree over `num_pes` leaves with `arity` children per switch.
    pub(crate) fn new(num_pes: usize, arity: usize) -> Result<FatTree, SimError> {
        if arity < 2 {
            return Err(SimError::BadConfig {
                reason: format!("fat-tree arity must be at least 2, got {arity}"),
            });
        }
        // Level-l edges: ceil(P / arity^l) nodes of arity^l sub-links each.
        let mut up = Vec::new();
        let (mut span, mut nodes, mut next) = (1usize, num_pes, 0usize);
        while span < num_pes {
            up.push(next);
            next += nodes * span;
            span *= arity;
            nodes = nodes.div_ceil(arity);
        }
        let down = up.iter().map(|&start| start + next).collect();
        Ok(FatTree {
            arity,
            up,
            down,
            ports: 2 * next,
        })
    }

    /// Number of up-edges from `src`'s leaf to the lowest common ancestor
    /// with `dst` (equals the down-edges back out).
    fn lca_level(&self, src: usize, dst: usize) -> usize {
        let (mut a, mut b) = (src, dst);
        let mut l = 0;
        while a != b {
            a /= self.arity;
            b /= self.arity;
            l += 1;
        }
        l
    }

    /// The bundle of `leaf`'s level-`l` ancestor edge whose level starts at
    /// port `first`.
    fn bundle(&self, first: usize, l: usize, leaf: usize) -> Range<usize> {
        let width = self.arity.pow(l as u32);
        let start = first + leaf / width * width;
        start..start + width
    }
}

impl Topology for FatTree {
    fn ports(&self) -> usize {
        self.ports
    }

    fn path(&self, src: usize, dst: usize, out: &mut Vec<Range<usize>>) -> u32 {
        let lca = self.lca_level(src, dst);
        out.extend((0..lca).map(|l| self.bundle(self.up[l], l, src)));
        out.extend((0..lca).rev().map(|l| self.bundle(self.down[l], l, dst)));
        (2 * lca) as u32
    }

    fn hops(&self, src: usize, dst: usize) -> u32 {
        (2 * self.lca_level(src, dst)) as u32
    }

    fn name(&self) -> &'static str {
        "fat-tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_network, Network};
    use emx_core::{Cycle, NetConfig, NetModelKind, PeId};

    fn net(pes: usize, arity: u32) -> Box<dyn Network> {
        let cfg = NetConfig {
            model: NetModelKind::FatTree { arity },
            ..NetConfig::default()
        };
        build_network(&cfg, pes).unwrap()
    }

    #[test]
    fn shape_matches_the_leaf_count() {
        let levels = |pes, arity| FatTree::new(pes, arity).unwrap().up.len();
        assert_eq!(levels(16, 4), 2);
        assert_eq!(levels(16, 2), 4);
        assert_eq!(levels(1, 2), 0);
        assert_eq!(levels(17, 4), 3, "padding rounds the depth up");
        // 17 leaves, arity 4: levels of 17x1, 5x4 and 2x16 sub-links, up
        // then down.
        let t = FatTree::new(17, 4).unwrap();
        assert_eq!(
            (t.up.as_slice(), t.down.as_slice()),
            (&[0, 17, 37][..], &[69, 86, 106][..])
        );
        assert_eq!(t.ports, 138);
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
        let cfg = |arity| NetConfig {
            model: NetModelKind::FatTree { arity },
            ..NetConfig::default()
        };
        assert!(build_network(&cfg(2), 0).is_err());
        assert!(build_network(&cfg(1), 8).is_err());
    }
}
