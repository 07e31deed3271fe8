//! Per-processor and whole-run aggregates.

use emx_core::Cycle;

use crate::breakdown::Breakdown;
use crate::census::SwitchCensus;

/// Everything measured on one processor during a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PeStats {
    /// Timing breakdown (Figure 8 components).
    pub breakdown: Breakdown,
    /// Switch census (Figure 9 components).
    pub switches: SwitchCensus,
    /// Packets this processor injected into the network.
    pub packets_sent: u64,
    /// Split-phase read requests issued (single-word equivalents; a block
    /// read of n words counts n).
    pub reads_issued: u64,
    /// Threads dispatched (packet-queue pops that started or resumed a
    /// thread).
    pub dispatches: u64,
    /// Maximum packets simultaneously waiting in this processor's queues.
    pub max_queue_depth: usize,
    /// Packets that overflowed the on-chip IBU FIFO into the memory buffer.
    pub ibu_spills: u64,
    /// Spills from the high-priority FIFO alone.
    pub high_spills: u64,
    /// Spills from the low-priority FIFO alone.
    pub low_spills: u64,
    /// Spills forced by fault injection despite on-chip room (also counted
    /// in the per-priority and total spill figures).
    pub forced_spills: u64,
    /// High-water mark of the high-priority FIFO.
    pub max_high_depth: usize,
    /// High-water mark of the low-priority FIFO.
    pub max_low_depth: usize,
}

/// Machine-wide tallies of injected faults and the recovery work they
/// caused. `None` in a [`RunReport`] means the run had no fault machinery
/// armed at all (the paper's lossless machine).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Data-plane packets dropped at network injection.
    pub dropped: u64,
    /// Data-plane packets duplicated at network injection.
    pub duplicated: u64,
    /// Packets whose arrival was artificially delayed.
    pub delayed: u64,
    /// Queue pushes forced to the on-memory buffer by fault injection.
    pub forced_spills: u64,
    /// By-pass DMA services stalled by fault injection.
    pub dma_stalls: u64,
    /// Remote reads re-issued by the retry protocol.
    pub retries: u64,
    /// Responses discarded as stale or duplicate by sequence matching.
    pub stale_responses: u64,
}

/// The result of one simulated run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Per-processor statistics, indexed by PE number.
    pub per_pe: Vec<PeStats>,
    /// Cycle at which the last event completed.
    pub elapsed: Cycle,
    /// Clock the run was simulated at, for seconds conversion.
    pub clock_hz: u64,
    /// Network packets routed (from the network model).
    pub net_packets: u64,
    /// Total cycles packets waited on busy network ports.
    pub net_contention: Cycle,
    /// Fault-injection tallies; `None` when no fault machinery was armed.
    pub faults: Option<FaultSummary>,
}

impl RunReport {
    /// Wall-clock duration of the run in (simulated) seconds.
    pub fn elapsed_secs(&self) -> f64 {
        if self.clock_hz == 0 {
            return 0.0;
        }
        self.elapsed.as_secs(self.clock_hz)
    }

    /// Sum of all processors' breakdowns.
    pub fn total_breakdown(&self) -> Breakdown {
        self.per_pe
            .iter()
            .fold(Breakdown::default(), |acc, p| acc + p.breakdown)
    }

    /// Mean per-processor breakdown.
    pub fn mean_breakdown(&self) -> Breakdown {
        self.total_breakdown().mean_of(self.per_pe.len() as u64)
    }

    /// Sum of all processors' switch censuses.
    pub fn total_switches(&self) -> SwitchCensus {
        self.per_pe
            .iter()
            .fold(SwitchCensus::default(), |acc, p| acc + p.switches)
    }

    /// Mean per-processor switch census — the y-axis of Figure 9 ("average
    /// number of switches for each processor").
    pub fn mean_switches(&self) -> SwitchCensus {
        self.total_switches().mean_of(self.per_pe.len() as u64)
    }

    /// Mean per-processor communication time in seconds — the y-axis of
    /// Figure 6.
    pub fn comm_time_secs(&self) -> f64 {
        if self.clock_hz == 0 {
            return 0.0;
        }
        let total: Cycle = self.per_pe.iter().map(|p| p.breakdown.comm).sum();
        let n = self.per_pe.len().max(1) as u64;
        Cycle::new(total.get() / n).as_secs(self.clock_hz)
    }

    /// Mean per-processor communication time *including* thread-switching
    /// machinery (context switches, queue spills, wake-ups), in seconds.
    ///
    /// This is the quantity the paper's Figure 6 plots: its communication
    /// curves rise again beyond the h = 2–4 minimum because "larger numbers
    /// of threads have adversely affected the amount of overlapping due to
    /// an excessive number of switches" — i.e. the measured communication
    /// time absorbs the switching cost it induces. Pure idle time is
    /// [`comm_time_secs`](Self::comm_time_secs).
    pub fn comm_sync_time_secs(&self) -> f64 {
        if self.clock_hz == 0 {
            return 0.0;
        }
        let total: Cycle = self
            .per_pe
            .iter()
            .map(|p| p.breakdown.comm + p.breakdown.switch)
            .sum();
        let n = self.per_pe.len().max(1) as u64;
        Cycle::new(total.get() / n).as_secs(self.clock_hz)
    }

    /// Per-processor busy fractions (total breakdown / elapsed), the
    /// utilization the analytic model predicts. Empty report → empty vec.
    pub fn utilizations(&self) -> Vec<f64> {
        let elapsed = self.elapsed.get();
        if elapsed == 0 {
            return vec![0.0; self.per_pe.len()];
        }
        self.per_pe
            .iter()
            .map(|p| {
                // Polling cycles are accounted in the comm component but do
                // occupy the EXU; utilization here means "busy", so use the
                // full breakdown.
                (p.breakdown.total().get() as f64 / elapsed as f64).min(1.0)
            })
            .collect()
    }

    /// Mean busy fraction across processors.
    pub fn mean_utilization(&self) -> f64 {
        let u = self.utilizations();
        if u.is_empty() {
            0.0
        } else {
            u.iter().sum::<f64>() / u.len() as f64
        }
    }

    /// Total remote reads issued across the machine.
    pub fn total_reads(&self) -> u64 {
        self.per_pe.iter().map(|p| p.reads_issued).sum()
    }

    /// Total packets sent across the machine.
    pub fn total_packets(&self) -> u64 {
        self.per_pe.iter().map(|p| p.packets_sent).sum()
    }
}

/// The overlap efficiency of Figure 7:
/// `E = (Tcomm,1 − Tcomm,h) / Tcomm,1`, in percent.
///
/// `comm_one` is the communication time with one thread (no overlap
/// possible); `comm_h` with h threads. Returns 0 when `comm_one` is zero.
pub fn overlap_efficiency(comm_one: f64, comm_h: f64) -> f64 {
    if comm_one <= 0.0 {
        0.0
    } else {
        (comm_one - comm_h) / comm_one * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pe(comm: u64, reads: u64) -> PeStats {
        PeStats {
            breakdown: Breakdown {
                comm: Cycle::new(comm),
                compute: Cycle::new(100),
                ..Breakdown::default()
            },
            reads_issued: reads,
            ..PeStats::default()
        }
    }

    #[test]
    fn report_aggregates_over_pes() {
        let r = RunReport {
            per_pe: vec![pe(20, 5), pe(40, 7)],
            elapsed: Cycle::new(200),
            clock_hz: 20_000_000,
            ..RunReport::default()
        };
        assert_eq!(r.total_breakdown().comm, Cycle::new(60));
        assert_eq!(r.mean_breakdown().comm, Cycle::new(30));
        assert_eq!(r.total_reads(), 12);
        // 30 cycles at 20 MHz = 1.5 µs
        assert!((r.comm_time_secs() - 1.5e-6).abs() < 1e-15);
        assert!((r.elapsed_secs() - 1e-5).abs() < 1e-15);
    }

    #[test]
    fn comm_sync_includes_switch_time() {
        let mut p = pe(20, 0);
        p.breakdown.switch = Cycle::new(10);
        let r = RunReport {
            per_pe: vec![p],
            clock_hz: 20_000_000,
            ..RunReport::default()
        };
        // (20 + 10) cycles at 20 MHz = 1.5 µs.
        assert!((r.comm_sync_time_secs() - 1.5e-6).abs() < 1e-15);
        assert!((r.comm_time_secs() - 1.0e-6).abs() < 1e-15);
    }

    #[test]
    fn efficiency_formula_matches_paper() {
        // 95% overlap: h-thread comm time is 5% of single-thread.
        assert!((overlap_efficiency(1.0, 0.05) - 95.0).abs() < 1e-9);
        // No improvement -> 0%.
        assert!((overlap_efficiency(2.0, 2.0)).abs() < 1e-9);
        // Degradation -> negative (more switches than masking).
        assert!(overlap_efficiency(1.0, 1.5) < 0.0);
        // Degenerate base.
        assert_eq!(overlap_efficiency(0.0, 1.0), 0.0);
    }

    #[test]
    fn utilizations_are_busy_over_elapsed() {
        let r = RunReport {
            per_pe: vec![pe(20, 0), pe(80, 0)],
            elapsed: Cycle::new(200),
            clock_hz: 20_000_000,
            ..RunReport::default()
        };
        let u = r.utilizations();
        // pe(comm, _) also carries 100 compute cycles.
        assert!((u[0] - 120.0 / 200.0).abs() < 1e-12);
        assert!((u[1] - 180.0 / 200.0).abs() < 1e-12);
        assert!((r.mean_utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = RunReport::default();
        assert_eq!(r.comm_time_secs(), 0.0);
        assert_eq!(r.mean_breakdown(), Breakdown::default());
        assert_eq!(r.mean_switches(), SwitchCensus::default());
    }
}
