//! The three-way switch census of Figure 9.

use std::ops::{Add, AddAssign};

/// Context switches by cause.
///
/// "Switches are classified into three types: remote read switch, iteration
/// synchronization switch, and thread synchronization switch" (paper §5):
///
/// * **remote_read** — a thread suspended after issuing a split-phase read
///   ("every remote read causes a thread switch"); fixed by n, h, P;
/// * **iter_sync** — a re-dispatch of a thread polling the end-of-iteration
///   barrier; grows with the thread count h;
/// * **thread_sync** — a re-dispatch of a thread that had its data but had
///   to wait for a predecessor thread (sorting's ordered merge); absent in
///   FFT.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchCensus {
    /// Switches caused by split-phase remote reads.
    pub remote_read: u64,
    /// Switches caused by iteration-barrier polling.
    pub iter_sync: u64,
    /// Switches caused by intra-processor thread ordering.
    pub thread_sync: u64,
}

impl SwitchCensus {
    /// All switches.
    pub fn total(&self) -> u64 {
        self.remote_read + self.iter_sync + self.thread_sync
    }

    /// Component labels in field order.
    pub const LABELS: [&'static str; 3] = ["remote-read", "iter-sync", "thread-sync"];

    /// Components in field order.
    pub fn counts(&self) -> [u64; 3] {
        [self.remote_read, self.iter_sync, self.thread_sync]
    }

    /// Per-processor average; `n = 0` is the identity.
    pub fn mean_of(self, n: u64) -> SwitchCensus {
        let div = |v: u64| v.checked_div(n).unwrap_or(v);
        SwitchCensus {
            remote_read: div(self.remote_read),
            iter_sync: div(self.iter_sync),
            thread_sync: div(self.thread_sync),
        }
    }
}

impl Add for SwitchCensus {
    type Output = SwitchCensus;
    fn add(self, rhs: SwitchCensus) -> SwitchCensus {
        SwitchCensus {
            remote_read: self.remote_read + rhs.remote_read,
            iter_sync: self.iter_sync + rhs.iter_sync,
            thread_sync: self.thread_sync + rhs.thread_sync,
        }
    }
}

impl AddAssign for SwitchCensus {
    fn add_assign(&mut self, rhs: SwitchCensus) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_counts() {
        let c = SwitchCensus {
            remote_read: 5,
            iter_sync: 3,
            thread_sync: 2,
        };
        assert_eq!(c.total(), 10);
        assert_eq!(c.counts(), [5, 3, 2]);
    }

    #[test]
    fn addition_and_mean() {
        let a = SwitchCensus {
            remote_read: 10,
            iter_sync: 20,
            thread_sync: 30,
        };
        let sum = a + a;
        assert_eq!(sum.remote_read, 20);
        assert_eq!(sum.mean_of(2), a);
    }
}
