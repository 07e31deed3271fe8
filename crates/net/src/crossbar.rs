//! A full crossbar, for ablation.
//!
//! Every source reaches every destination in a single hop, but each
//! destination input port still accepts only one packet per
//! [`port_service`](emx_core::NetConfig::port_service) cycles. Comparing
//! against the circular Omega separates *endpoint* contention (many readers
//! hammering one processor's IBU) from *path* contention inside the
//! multistage fabric. A local packet also passes through its destination
//! port, but counts zero hops.

use std::ops::Range;

use crate::fabric::Topology;

/// One input port per processor.
pub(crate) struct Crossbar {
    pub(crate) pes: usize,
}

impl Topology for Crossbar {
    fn ports(&self) -> usize {
        self.pes
    }

    fn path(&self, src: usize, dst: usize, out: &mut Vec<Range<usize>>) -> u32 {
        out.push(dst..dst + 1);
        self.hops(src, dst)
    }

    fn hops(&self, src: usize, dst: usize) -> u32 {
        u32::from(src != dst)
    }

    fn name(&self) -> &'static str {
        "crossbar"
    }
}

#[cfg(test)]
mod tests {
    use crate::{build_network, Network};
    use emx_core::{Cycle, NetConfig, NetModelKind, PeId};

    fn net(pes: usize) -> Box<dyn Network> {
        let cfg = NetConfig {
            model: NetModelKind::FullCrossbar,
            ..NetConfig::default()
        };
        build_network(&cfg, pes).unwrap()
    }

    #[test]
    fn single_hop_uncontended_latency() {
        let mut n = net(8);
        // head advances 1 cycle in, 1 cycle out: arrival = now + 2.
        assert_eq!(n.route(Cycle::new(10), PeId(0), PeId(5)), Cycle::new(12));
    }

    #[test]
    fn destination_port_serializes() {
        let mut n = net(8);
        let a = n.route(Cycle::new(0), PeId(0), PeId(5));
        let b = n.route(Cycle::new(0), PeId(1), PeId(5));
        assert!(b > a, "same destination must serialize");
        let c = n.route(Cycle::new(0), PeId(2), PeId(6));
        assert_eq!(c, Cycle::new(2), "different destination is unaffected");
        // A local packet queues on its destination port too, at zero hops.
        let d = n.route(Cycle::new(0), PeId(5), PeId(5));
        assert!(d > b, "local delivery passes through the busy port");
        assert_eq!(n.hops(PeId(5), PeId(5)), 0);
        assert_eq!(n.stats().total_hops, 3);
    }

    #[test]
    fn non_overtaking_per_pair() {
        let mut n = net(4);
        let mut last = Cycle::ZERO;
        for i in 0..50u64 {
            n.route(Cycle::new(i), PeId(1), PeId(3));
            let arr = n.route(Cycle::new(i), PeId(0), PeId(3));
            assert!(arr >= last);
            last = arr;
        }
    }
}
