//! A contention-free fixed-latency network, for ablation.
//!
//! Every packet arrives exactly `latency` cycles after injection, regardless
//! of traffic. Comparing a workload on [`IdealNetwork`] against the
//! circular Omega isolates how much of its communication time is path
//! contention rather than raw distance.

use emx_core::{Codec, Cycle, PeId, SimError};

use crate::stats::NetStats;
use crate::{snap_bare, Network};

/// Fixed-latency, infinite-bandwidth network model.
pub struct IdealNetwork {
    num_pes: usize,
    latency: u32,
    stats: NetStats,
}

impl IdealNetwork {
    /// A network of `num_pes` endpoints with one-way `latency` cycles.
    pub fn new(num_pes: usize, latency: u32) -> Self {
        IdealNetwork {
            num_pes,
            latency,
            stats: NetStats::default(),
        }
    }

    /// The configured one-way latency.
    #[inline]
    pub fn latency(&self) -> u32 {
        self.latency
    }
}

impl Network for IdealNetwork {
    fn route(&mut self, now: Cycle, src: PeId, dst: PeId) -> Cycle {
        debug_assert!(src.index() < self.num_pes);
        debug_assert!(dst.index() < self.num_pes);
        self.stats
            .record(1, if src == dst { 0 } else { 1 }, Cycle::ZERO);
        now + u64::from(self.latency)
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

    fn snap(&mut self, c: &mut dyn Codec) -> Result<(), SimError> {
        snap_bare(c, "ideal", &mut self.stats, &mut Vec::new())
    }

    fn name(&self) -> &'static str {
        "ideal"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_constant_under_load() {
        let mut n = IdealNetwork::new(8, 12);
        for i in 0..100u64 {
            let arr = n.route(Cycle::new(i), PeId(0), PeId(7));
            assert_eq!(arr, Cycle::new(i + 12));
        }
        assert_eq!(n.stats().packets, 100);
        assert_eq!(n.stats().contention_wait, Cycle::ZERO);
    }

    #[test]
    fn non_overtaking_holds_trivially() {
        let mut n = IdealNetwork::new(4, 5);
        let a = n.route(Cycle::new(1), PeId(0), PeId(1));
        let b = n.route(Cycle::new(2), PeId(0), PeId(1));
        assert!(a <= b);
    }
}
