//! A full-crossbar network, for ablation.
//!
//! Every source reaches every destination in a single hop, but each
//! destination input port still accepts only one packet per
//! [`port_service`](emx_core::NetConfig::port_service) cycles. Comparing
//! against [`crate::OmegaNetwork`] separates *endpoint* contention (many
//! readers hammering one processor's IBU) from *path* contention inside the
//! multistage fabric.

use emx_core::{Cycle, NetConfig, PeId};

use crate::stats::NetStats;
use crate::Network;

/// Single-hop crossbar with per-destination-port serialization.
pub struct CrossbarNetwork {
    cfg: NetConfig,
    /// First cycle each destination port can accept another packet.
    next_free: Vec<Cycle>,
    stats: NetStats,
}

impl CrossbarNetwork {
    /// A crossbar for `num_pes` endpoints.
    pub fn new(num_pes: usize, cfg: NetConfig) -> Self {
        CrossbarNetwork {
            cfg,
            next_free: vec![Cycle::ZERO; num_pes],
            stats: NetStats::default(),
        }
    }
}

impl Network for CrossbarNetwork {
    fn route(&mut self, now: Cycle, src: PeId, dst: PeId) -> Cycle {
        debug_assert!(dst.index() < self.next_free.len());
        let hop = u64::from(self.cfg.hop_cycles);
        let head = now + hop;
        let free = self.next_free[dst.index()];
        let ready = head.max(free);
        let waited = ready - head;
        self.next_free[dst.index()] = ready + u64::from(self.cfg.port_service);
        self.stats.record(1, if src == dst { 0 } else { 1 }, waited);
        ready + hop
    }

    fn hops(&self, src: PeId, dst: PeId) -> u32 {
        if src == dst {
            0
        } else {
            1
        }
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn save_state(&self) -> crate::NetSnapshot {
        crate::NetSnapshot {
            stats: self.stats.clone(),
            words: self.next_free.iter().map(|c| c.get()).collect(),
            inner: None,
        }
    }

    fn load_state(&mut self, snap: &crate::NetSnapshot) -> Result<(), emx_core::SimError> {
        if snap.words.len() != self.next_free.len() {
            return Err(crate::NetSnapshot::shape_error("crossbar"));
        }
        self.stats = snap.stats.clone();
        for (slot, &w) in self.next_free.iter_mut().zip(&snap.words) {
            *slot = Cycle::new(w);
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "crossbar"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(pes: usize) -> CrossbarNetwork {
        CrossbarNetwork::new(pes, NetConfig::default())
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
