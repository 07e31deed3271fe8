//! The circular Omega network.
//!
//! An Omega network for `N = 2^n` ports consists of `n` stages of `N/2`
//! two-by-two switches, with a perfect-shuffle permutation feeding each
//! stage. Routing is destination-tag: at stage `i` the packet exits on the
//! switch output selected by bit `n-1-i` of the destination address, so every
//! source/destination pair has exactly one path of `n` hops.
//!
//! The EM-X variant is *circular*: each processor is attached to a switch
//! box, the last stage wraps back to the first, and machines whose processor
//! count is not a power of two (the 80-PE prototype) route as a network
//! padded to the next power of two with the surplus ports unused. A packet
//! to its own processor turns around in the switch box: the local shortcut,
//! zero hops, one cycle.
//!
//! Every switch output port is a one-port bundle of the
//! [fabric](crate::fabric): cut-through timing, per-port contention, and —
//! because the path is unique — no overtaking on a source/destination pair.

use std::ops::Range;

use crate::fabric::Topology;

/// Identifies one switch output port: `(stage, switch, output)` flattened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortId(pub u32);

/// The output ports destination-tag routing takes from `src` to `dst` over
/// `stages` stages, one per stage, each flattened as
/// `stage << stages | position`.
fn dest_tag(src: usize, dst: usize, stages: u32) -> impl Iterator<Item = usize> {
    let n = stages;
    let mask = (1usize << n) - 1;
    let mut pos = src & mask;
    (0..n).map(move |stage| {
        // Perfect shuffle: rotate the position left by one bit...
        pos = ((pos << 1) | (pos >> (n - 1))) & mask;
        // ...then the switch replaces the low bit with the routing bit. The
        // switch index is pos >> 1 and the output within it is the bit.
        pos = (pos & !1) | ((dst >> (n - 1 - stage)) & 1);
        ((stage as usize) << n) | pos
    })
}

/// Compute the sequence of output ports a packet traverses from `src` to
/// `dst` in an Omega network of `stages` stages (`2^stages` ports).
///
/// Returns one `PortId` per stage: the routing function the network's
/// timing runs over.
pub fn route_ports(src: usize, dst: usize, stages: u32) -> Vec<PortId> {
    let ports: Vec<PortId> = dest_tag(src, dst, stages)
        .map(|p| PortId(p as u32))
        .collect();
    if let Some(last) = ports.last() {
        let mask = (1usize << stages) - 1;
        debug_assert_eq!(
            last.0 as usize & mask,
            dst & mask,
            "destination-tag routing must terminate at dst"
        );
    }
    ports
}

/// The circular Omega topology: `log2(P)` stages, padded to a power of two.
pub(crate) struct Omega {
    stages: u32,
}

impl Omega {
    pub(crate) fn new(num_pes: usize) -> Omega {
        Omega {
            stages: num_pes.next_power_of_two().max(2).trailing_zeros(),
        }
    }
}

impl Topology for Omega {
    fn ports(&self) -> usize {
        (self.stages as usize) << self.stages
    }

    fn path(&self, src: usize, dst: usize, out: &mut Vec<Range<usize>>) -> u32 {
        if src == dst {
            return 0;
        }
        out.extend(dest_tag(src, dst, self.stages).map(|p| p..p + 1));
        self.stages
    }

    fn hops(&self, src: usize, dst: usize) -> u32 {
        if src == dst {
            0
        } else {
            self.stages
        }
    }

    fn name(&self) -> &'static str {
        "circular-omega"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_network, Network};
    use emx_core::{Cycle, NetConfig, PeId};

    fn net(pes: usize) -> Box<dyn Network> {
        build_network(&NetConfig::default(), pes).unwrap()
    }

    #[test]
    fn uncontended_latency_is_k_plus_one() {
        // "A packet can be transferred in k+1 cycles to the processor k hops
        // beyond" — with k = stages = log2(P).
        for (pes, k) in [(2usize, 1u64), (4, 2), (16, 4), (64, 6), (128, 7)] {
            let mut n = net(pes);
            let (src, dst) = (PeId(0), PeId((pes - 1) as u16));
            assert_eq!(u64::from(n.hops(src, dst)), k);
            let arrival = n.route(Cycle::new(100), src, dst);
            assert_eq!(
                arrival,
                Cycle::new(100 + k + 1),
                "P={pes}: expected k+1 = {} cycles",
                k + 1
            );
        }
    }

    #[test]
    fn local_delivery_is_one_cycle() {
        let mut n = net(16);
        assert_eq!(n.route(Cycle::new(5), PeId(3), PeId(3)), Cycle::new(6));
        assert_eq!(n.hops(PeId(3), PeId(3)), 0);
    }

    #[test]
    fn eighty_pes_route_as_padded_128() {
        assert_eq!(Omega::new(80).stages, 7);
        assert_eq!(net(80).hops(PeId(0), PeId(79)), 7);
    }

    #[test]
    fn route_ports_terminates_at_destination_for_all_pairs() {
        // route_ports carries a debug_assert that the walk ends at dst;
        // exercise every pair in a 32-port network.
        for src in 0..32 {
            for dst in 0..32 {
                let ports = route_ports(src, dst, 5);
                assert_eq!(ports.len(), 5);
            }
        }
    }

    #[test]
    fn distinct_paths_have_distinct_final_ports() {
        // Two different destinations must exit through different last-stage
        // ports (the last-stage port determines the destination).
        let a = route_ports(0, 3, 4);
        let b = route_ports(0, 9, 4);
        assert_ne!(a.last(), b.last());
    }

    #[test]
    fn contention_delays_second_packet_on_shared_port() {
        let mut n = net(16);
        // Two packets from the same source to the same destination share the
        // whole path; the second must wait for the first's port occupancy.
        let t1 = n.route(Cycle::new(0), PeId(0), PeId(5));
        let t2 = n.route(Cycle::new(0), PeId(0), PeId(5));
        assert!(t2 > t1, "second packet must be serialized behind the first");
    }

    #[test]
    fn non_overtaking_per_pair_under_cross_traffic() {
        let mut n = net(64);
        let mut last = Cycle::ZERO;
        for i in 0..200u64 {
            // Cross traffic from other sources...
            n.route(
                Cycle::new(i),
                PeId((i % 64) as u16),
                PeId(((i * 7) % 64) as u16),
            );
            // ...must never reorder the monitored pair 3 -> 42.
            let arr = n.route(Cycle::new(i), PeId(3), PeId(42));
            assert!(arr >= last, "packet {i} overtook its predecessor");
            last = arr;
        }
    }

    #[test]
    fn disjoint_paths_do_not_interfere() {
        // A pair whose path shares no port with a packet already in flight
        // sees the uncontended latency; one that shares a port is at worst
        // delayed.
        let mut fresh = net(16);
        let alone = fresh.route(Cycle::new(0), PeId(12), PeId(11));
        let mut together = net(16);
        together.route(Cycle::new(0), PeId(1), PeId(2));
        let with_traffic = together.route(Cycle::new(0), PeId(12), PeId(11));
        let disjoint = route_ports(1, 2, 4)
            .iter()
            .all(|p| !route_ports(12, 11, 4).contains(p));
        if disjoint {
            assert_eq!(with_traffic, alone);
        } else {
            assert!(with_traffic >= alone);
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut n = net(16);
        n.route(Cycle::new(0), PeId(0), PeId(1));
        n.route(Cycle::new(0), PeId(0), PeId(1));
        let s = n.stats();
        assert_eq!(s.packets, 2);
        assert!(s.contention_wait.get() > 0, "second packet waited");
    }

    #[test]
    fn rejects_empty_network() {
        assert!(build_network(&NetConfig::default(), 0).is_err());
    }
}
