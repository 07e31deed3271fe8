//! Error type shared across the simulator crates.

use std::fmt;

/// Everything that can go wrong while configuring or running the simulator.
///
/// The simulator is deterministic, so most of these indicate a programming
/// error in a workload or harness (bad addresses, malformed packets) rather
/// than a runtime condition; [`SimError::Deadlock`] is the exception and is
/// the signal a mis-synchronized workload receives instead of a hang.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A processor index outside the configured machine (or the packed
    /// address range).
    BadPe {
        /// The offending index.
        pe: usize,
    },
    /// A local-memory word offset outside the packed address range.
    AddressOutOfRange {
        /// The offending word offset.
        offset: u32,
    },
    /// A memory access outside the configured local memory of a processor.
    MemoryFault {
        /// Processor whose memory was accessed.
        pe: usize,
        /// The offending word offset.
        offset: u32,
        /// Configured memory size in words.
        size: usize,
    },
    /// An activation-frame index that does not fit the packed continuation.
    FrameOutOfRange {
        /// The offending frame index.
        frame: usize,
    },
    /// A barrier packet names a barrier id the machine does not define.
    BadBarrier {
        /// Processor that received the packet.
        pe: usize,
        /// The undefined barrier id.
        id: u32,
    },
    /// Frame table exhausted on a processor.
    OutOfFrames {
        /// Processor whose frame table overflowed.
        pe: usize,
    },
    /// A wire tag carried an unassigned packet-kind code.
    BadPacketKind {
        /// The unassigned code.
        code: u8,
    },
    /// A block read of zero words.
    EmptyBlockRead,
    /// A wire buffer too short to hold a packet.
    TruncatedWirePacket {
        /// Bytes actually available.
        have: usize,
    },
    /// An event scheduled before the current simulation time.
    EventInPast {
        /// Requested cycle.
        at: u64,
        /// Current cycle.
        now: u64,
    },
    /// The event queue drained while threads were still suspended: the
    /// workload deadlocked (e.g. a barrier nobody releases, or a read whose
    /// response was dropped).
    Deadlock {
        /// Cycle at which the queue drained.
        at: u64,
        /// Number of threads still suspended.
        suspended: usize,
    },
    /// Simulated time passed the run's fuel limit while events were still
    /// pending: the workload livelocked (e.g. a barrier that polls forever)
    /// or genuinely needs a larger limit. Unlike [`SimError::Deadlock`] the
    /// machine still had work to do — it just never quiesced.
    FuelExhausted {
        /// The first pending cycle beyond the limit.
        cycle: u64,
        /// Threads still live (suspended or queued) when the run stopped.
        live_threads: usize,
    },
    /// A split-phase read was re-issued up to the configured attempt limit
    /// without a response arriving (fault injection with packet loss).
    RetryExhausted {
        /// Processor whose thread gave up.
        pe: usize,
        /// Activation frame of the suspended thread.
        frame: usize,
        /// Re-issues attempted before giving up.
        attempts: u32,
    },
    /// A runtime invariant check failed (packet conservation, per-pair
    /// non-overtaking, FIFO order within priority, or monotonic event
    /// time). Carries the rendered fault report of the checker.
    InvariantViolation {
        /// Which invariant failed and the evidence, rendered by the
        /// checker's structured fault report.
        report: String,
    },
    /// A machine configuration that cannot be built (e.g. zero processors,
    /// or a network that requires a power-of-two processor count).
    BadConfig {
        /// Human-readable explanation.
        reason: String,
    },
    /// An ISA-level fault (decode error, bad register, bad jump target).
    IsaFault {
        /// Human-readable explanation.
        reason: String,
    },
    /// A workload-level invariant violation (e.g. output verification).
    Workload {
        /// Human-readable explanation.
        reason: String,
    },
    /// The machine holds live state that has no snapshot representation
    /// (e.g. a native thread body without save/restore hooks).
    SnapshotUnsupported {
        /// What could not be serialized.
        what: String,
    },
    /// A snapshot that failed to parse, failed its digest stamp, or does
    /// not match the machine it is being restored into.
    SnapshotInvalid {
        /// Human-readable explanation.
        reason: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadPe { pe } => write!(f, "processor index {pe} out of range"),
            SimError::AddressOutOfRange { offset } => {
                write!(f, "word offset {offset:#x} exceeds packed address range")
            }
            SimError::MemoryFault { pe, offset, size } => write!(
                f,
                "memory fault on PE{pe}: offset {offset:#x} outside {size} words"
            ),
            SimError::FrameOutOfRange { frame } => {
                write!(f, "frame index {frame} exceeds packed continuation range")
            }
            SimError::BadBarrier { pe, id } => {
                write!(f, "PE{pe} received a packet for undefined barrier {id}")
            }
            SimError::OutOfFrames { pe } => write!(f, "PE{pe} exhausted its frame table"),
            SimError::BadPacketKind { code } => write!(f, "unassigned packet kind code {code}"),
            SimError::EmptyBlockRead => write!(f, "block read of zero words"),
            SimError::TruncatedWirePacket { have } => {
                write!(f, "wire buffer holds only {have} bytes of a packet")
            }
            SimError::EventInPast { at, now } => {
                write!(f, "event scheduled at cycle {at}, but now is {now}")
            }
            SimError::Deadlock { at, suspended } => write!(
                f,
                "deadlock at cycle {at}: {suspended} threads suspended with no pending events"
            ),
            SimError::FuelExhausted {
                cycle,
                live_threads,
            } => write!(
                f,
                "fuel exhausted: event pending at cycle {cycle} passed the cycle limit, \
                 {live_threads} threads still live"
            ),
            SimError::RetryExhausted {
                pe,
                frame,
                attempts,
            } => write!(
                f,
                "PE{pe} frame {frame}: read retry exhausted after {attempts} attempts"
            ),
            SimError::InvariantViolation { report } => {
                write!(f, "invariant violation: {report}")
            }
            SimError::BadConfig { reason } => write!(f, "bad machine configuration: {reason}"),
            SimError::IsaFault { reason } => write!(f, "ISA fault: {reason}"),
            SimError::Workload { reason } => write!(f, "workload error: {reason}"),
            SimError::SnapshotUnsupported { what } => {
                write!(f, "machine state has no snapshot representation: {what}")
            }
            SimError::SnapshotInvalid { reason } => write!(f, "invalid snapshot: {reason}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::MemoryFault {
            pe: 3,
            offset: 0x100,
            size: 64,
        };
        let s = e.to_string();
        assert!(s.contains("PE3"));
        assert!(s.contains("0x100"));
        assert!(s.contains("64"));
    }

    #[test]
    fn implements_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&SimError::EmptyBlockRead);
    }

    #[test]
    fn fuel_exhausted_reports_cycle_and_threads() {
        let e = SimError::FuelExhausted {
            cycle: 123,
            live_threads: 5,
        };
        let s = e.to_string();
        assert!(s.contains("cycle 123"));
        assert!(s.contains("5 threads"));
        assert!(s.contains("cycle limit"));
    }

    #[test]
    fn deadlock_reports_counts() {
        let e = SimError::Deadlock {
            at: 99,
            suspended: 7,
        };
        assert!(e.to_string().contains("7 threads"));
    }
}
