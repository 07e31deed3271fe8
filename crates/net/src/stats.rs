//! Network traffic statistics.

use emx_core::{Codec, Cycle, SimError};

/// Accumulated traffic statistics for a network model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Packets routed.
    pub packets: u64,
    /// Total hops traversed by all packets.
    pub total_hops: u64,
    /// Total cycles packets spent blocked on busy ports.
    pub contention_wait: Cycle,
}

impl NetStats {
    /// Record one routed packet.
    #[inline]
    pub fn record(&mut self, packets: u64, hops: u32, waited: Cycle) {
        self.packets += packets;
        self.total_hops += u64::from(hops) * packets;
        self.contention_wait += waited;
    }

    /// Pass the three counters through `c`.
    pub fn snap(&mut self, c: &mut dyn Codec) -> Result<(), SimError> {
        c.u64(&mut self.packets)?;
        c.u64(&mut self.total_hops)?;
        c.cycle(&mut self.contention_wait)
    }

    /// Mean hops per packet (0 if no traffic).
    pub fn mean_hops(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.packets as f64
        }
    }

    /// Mean contention wait per packet, in cycles (0 if no traffic).
    pub fn mean_wait(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.contention_wait.get() as f64 / self.packets as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_averages() {
        let mut s = NetStats::default();
        s.record(1, 4, Cycle::new(2));
        s.record(1, 6, Cycle::new(0));
        assert_eq!(s.packets, 2);
        assert_eq!(s.total_hops, 10);
        assert!((s.mean_hops() - 5.0).abs() < 1e-12);
        assert!((s.mean_wait() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_zero_means() {
        let s = NetStats::default();
        assert_eq!(s.mean_hops(), 0.0);
        assert_eq!(s.mean_wait(), 0.0);
    }
}
