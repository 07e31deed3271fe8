//! The four-component execution-time breakdown of Figure 8.

use std::ops::{Add, AddAssign};

use emx_core::Cycle;

/// Where a processor's cycles went.
///
/// "The plots have four timing components: computation, overhead,
/// communication, and switching" (paper §5). The simulator attributes every
/// cycle of a run to exactly one component:
///
/// * **compute** — EXU cycles retiring workload instructions;
/// * **overhead** — EXU cycles generating packets (send instructions plus
///   the address-computation loop around them, measured in the paper by a
///   null loop);
/// * **comm** — cycles the EXU sat idle waiting for remote data or
///   synchronization;
/// * **switch** — cycles spent saving registers and dispatching the next
///   thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Workload computation cycles.
    pub compute: Cycle,
    /// Packet-generation overhead cycles.
    pub overhead: Cycle,
    /// Idle cycles waiting on communication.
    pub comm: Cycle,
    /// Context-switch cycles.
    pub switch: Cycle,
}

impl Breakdown {
    /// Sum of all four components.
    pub fn total(&self) -> Cycle {
        self.compute + self.overhead + self.comm + self.switch
    }

    /// Components as fractions of the total, in the order
    /// `[compute, overhead, comm, switch]`. All zeros for an empty breakdown.
    pub fn fractions(&self) -> [f64; 4] {
        let t = self.total().get();
        if t == 0 {
            return [0.0; 4];
        }
        let t = t as f64;
        [
            self.compute.get() as f64 / t,
            self.overhead.get() as f64 / t,
            self.comm.get() as f64 / t,
            self.switch.get() as f64 / t,
        ]
    }

    /// Component labels matching [`fractions`](Self::fractions) order.
    pub const LABELS: [&'static str; 4] = ["compute", "overhead", "comm", "switch"];

    /// Scale every component by `1/n` (for per-processor averages); `n = 0`
    /// is the identity.
    pub fn mean_of(self, n: u64) -> Breakdown {
        let div = |c: Cycle| Cycle::new(c.get().checked_div(n).unwrap_or(c.get()));
        Breakdown {
            compute: div(self.compute),
            overhead: div(self.overhead),
            comm: div(self.comm),
            switch: div(self.switch),
        }
    }
}

impl Add for Breakdown {
    type Output = Breakdown;
    fn add(self, rhs: Breakdown) -> Breakdown {
        Breakdown {
            compute: self.compute + rhs.compute,
            overhead: self.overhead + rhs.overhead,
            comm: self.comm + rhs.comm,
            switch: self.switch + rhs.switch,
        }
    }
}

impl AddAssign for Breakdown {
    fn add_assign(&mut self, rhs: Breakdown) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bd(c: u64, o: u64, m: u64, s: u64) -> Breakdown {
        Breakdown {
            compute: Cycle::new(c),
            overhead: Cycle::new(o),
            comm: Cycle::new(m),
            switch: Cycle::new(s),
        }
    }

    #[test]
    fn total_sums_components() {
        assert_eq!(bd(1, 2, 3, 4).total(), Cycle::new(10));
    }

    #[test]
    fn fractions_sum_to_one() {
        let f = bd(10, 20, 30, 40).fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((f[0] - 0.1).abs() < 1e-12);
        assert!((f[3] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_has_zero_fractions() {
        assert_eq!(Breakdown::default().fractions(), [0.0; 4]);
    }

    #[test]
    fn addition_is_componentwise() {
        let mut a = bd(1, 2, 3, 4);
        a += bd(10, 20, 30, 40);
        assert_eq!(a, bd(11, 22, 33, 44));
    }

    #[test]
    fn mean_of_divides() {
        assert_eq!(bd(10, 20, 30, 40).mean_of(10), bd(1, 2, 3, 4));
        assert_eq!(bd(1, 1, 1, 1).mean_of(0), bd(1, 1, 1, 1), "n=0 is identity");
    }
}
