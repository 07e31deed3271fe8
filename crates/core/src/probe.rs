//! The structured observability vocabulary: trace events and the [`Probe`]
//! sink the simulator layers emit them through.
//!
//! Every layer of the simulator — the `Machine` event loop, the Input
//! Buffer Unit's packet queue, the by-passing DMA, and the network models —
//! can narrate what it does as a stream of [`TraceKind`] events. The stream
//! covers the full packet/thread lifecycle the paper's Figure 4 walks
//! through by hand: thread spawn/suspend/resume/retire (with the suspension
//! cause, distinguishing an R-cycle end from a remote-read switch), queue
//! enqueue/spill/unspill per priority, by-pass DMA service, and network
//! injection/ejection with hop counts.
//!
//! Consumers implement [`Probe`] — one callback, one event. The runtime
//! holds its probe as an `Option`, so a disabled probe costs one branch per
//! emission site and no event is ever constructed; this is the
//! "zero-cost-when-disabled" contract the sweep benchmarks rely on. The
//! exporters (Perfetto/Chrome-trace JSON, columnar CSV) and the metrics
//! registry live in the `emx-obs` crate; the wire format is specified in
//! `docs/OBSERVABILITY.md` as `emx-trace/1`.

use std::fmt;

use crate::addr::{FrameId, PeId};
use crate::packet::{PacketKind, Priority};
use crate::time::Cycle;

/// Version tag of the trace event schema. Bump when [`TraceKind`] gains,
/// loses, or reshapes a variant; the exporters stamp it into every file so
/// a reader can never misparse an old dump (`docs/OBSERVABILITY.md`).
///
/// `emx-trace/2` added [`TraceKind::DispatchEnd`] (exact burst-end marks,
/// enabling trace-side time attribution) and [`TraceKind::FaultInjected`]
/// (network fault narration from `emx-faults`).
pub const TRACE_SCHEMA: &str = "emx-trace/2";

/// Why a thread left the EXU at the end of a burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuspendCause {
    /// Split-phase single-word remote read issued; resumes on the response.
    RemoteRead,
    /// Block read issued; resumes when the last word is deposited.
    BlockRead,
    /// Arrived at a global barrier; resumes on the release poll.
    Barrier,
    /// Waiting on a sequence cell (merge-order thread synchronization).
    ThreadSync,
    /// Explicit yield instruction.
    Yield,
}

impl SuspendCause {
    /// Short lower-case label used by the CSV and Chrome-trace exporters.
    pub fn label(self) -> &'static str {
        match self {
            SuspendCause::RemoteRead => "remote-read",
            SuspendCause::BlockRead => "block-read",
            SuspendCause::Barrier => "barrier",
            SuspendCause::ThreadSync => "thread-sync",
            SuspendCause::Yield => "yield",
        }
    }
}

/// What a fault-injecting network did to a packet at the injection port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The packet was silently discarded; no arrival is scheduled.
    Drop,
    /// A duplicate arrival was scheduled after the genuine one.
    Dup,
    /// The arrival was pushed later than the fault-free route time.
    Delay,
}

impl FaultKind {
    /// Short lower-case label used by the CSV and Chrome-trace exporters.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Dup => "dup",
            FaultKind::Delay => "delay",
        }
    }
}

/// What happened. One variant per observable step of the packet/thread
/// lifecycle; the emitting layer is noted on each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// The EXU popped a packet from the queue and acted on it (runtime).
    Dispatch {
        /// Kind of the dispatched packet.
        pkt: PacketKind,
    },
    /// A packet left this processor's OBU for `dst` (runtime).
    Send {
        /// Kind of the injected packet.
        pkt: PacketKind,
        /// Destination processor.
        dst: PeId,
    },
    /// A new thread was instantiated in activation frame `frame` (runtime).
    ThreadSpawn {
        /// Frame the thread occupies.
        frame: FrameId,
        /// Registered entry (native factory or ISA template) it runs.
        entry: u32,
    },
    /// A suspended thread was switched back onto the EXU (runtime).
    ThreadResume {
        /// Frame of the resumed thread.
        frame: FrameId,
    },
    /// A running thread left the EXU mid-R-cycle (runtime). `cause` is the
    /// context-switch reason — a remote read, a barrier, a merge-order
    /// wait, or an explicit yield. A run-to-completion end is
    /// [`TraceKind::ThreadRetire`] instead.
    ThreadSuspend {
        /// Frame of the suspended thread.
        frame: FrameId,
        /// Why it suspended.
        cause: SuspendCause,
    },
    /// A thread ran to the end of its R-cycle and its frame was freed
    /// (runtime).
    ThreadRetire {
        /// Frame the thread occupied.
        frame: FrameId,
    },
    /// A packet entered the IBU packet queue (proc). `depth` is the total
    /// number of queued packets after the push; `spilled` marks an
    /// overflow (or fault-forced) trip through the on-memory buffer.
    Enqueue {
        /// Kind of the queued packet.
        pkt: PacketKind,
        /// FIFO class it joined.
        priority: Priority,
        /// Whether it overflowed to the on-memory buffer.
        spilled: bool,
        /// Packets waiting across both classes after this push.
        depth: usize,
    },
    /// A spilled packet was restored from the on-memory buffer at dispatch
    /// (proc); the restore penalty is charged to switching.
    Unspill {
        /// Kind of the restored packet.
        pkt: PacketKind,
        /// FIFO class it was restored into.
        priority: Priority,
    },
    /// The by-pass DMA serviced a remote access without consuming EXU
    /// cycles (proc) — the EM-X's signature path.
    DmaService {
        /// Kind of the serviced request.
        pkt: PacketKind,
        /// Words read or written (a block read counts its length).
        words: u16,
    },
    /// A packet was accepted by the network at the source switch (net).
    /// Emitted alongside [`TraceKind::Send`]; adds the route's hop count.
    NetInject {
        /// Kind of the injected packet.
        pkt: PacketKind,
        /// Destination processor.
        dst: PeId,
        /// Switch hops the route traverses.
        hops: u32,
    },
    /// A packet was ejected from the network into this processor's IBU
    /// (runtime, on arrival of a packet that travelled the wire).
    NetDeliver {
        /// Kind of the delivered packet.
        pkt: PacketKind,
        /// Source processor.
        src: PeId,
    },
    /// The EXU finished acting on the packet dispatched at the matching
    /// [`TraceKind::Dispatch`] and committed its cycle charges (runtime).
    /// The interval from dispatch to dispatch-end is the exact occupied
    /// span the profiler attributes; emitted since `emx-trace/2`.
    DispatchEnd,
    /// A fault-injecting network perturbed this packet at the injection
    /// port (net, `emx-faults`); emitted alongside [`TraceKind::NetInject`]
    /// since `emx-trace/2`.
    FaultInjected {
        /// Kind of the perturbed packet.
        pkt: PacketKind,
        /// Destination processor it was bound for.
        dst: PeId,
        /// What the fault plan did to it.
        fault: FaultKind,
    },
}

impl TraceKind {
    /// Short lower-case event name used by the CSV and Chrome-trace
    /// exporters and documented in `docs/OBSERVABILITY.md`.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::Dispatch { .. } => "dispatch",
            TraceKind::Send { .. } => "send",
            TraceKind::ThreadSpawn { .. } => "thread-spawn",
            TraceKind::ThreadResume { .. } => "thread-resume",
            TraceKind::ThreadSuspend { .. } => "thread-suspend",
            TraceKind::ThreadRetire { .. } => "thread-retire",
            TraceKind::Enqueue { .. } => "enqueue",
            TraceKind::Unspill { .. } => "unspill",
            TraceKind::DmaService { .. } => "dma-service",
            TraceKind::NetInject { .. } => "net-inject",
            TraceKind::NetDeliver { .. } => "net-deliver",
            TraceKind::DispatchEnd => "dispatch-end",
            TraceKind::FaultInjected { .. } => "fault-injected",
        }
    }
}

/// One trace record: when, where, what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation time of the event.
    pub at: Cycle,
    /// Processor the event happened on.
    pub pe: PeId,
    /// The event.
    pub kind: TraceKind,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>10} {} ", self.at, self.pe)?;
        match self.kind {
            TraceKind::Dispatch { pkt } => write!(f, "dispatch {pkt:?}"),
            TraceKind::Send { pkt, dst } => write!(f, "send {pkt:?} -> {dst}"),
            TraceKind::ThreadSpawn { frame, entry } => {
                write!(f, "spawn thread {frame} (entry {entry})")
            }
            TraceKind::ThreadResume { frame } => write!(f, "resume thread {frame}"),
            TraceKind::ThreadSuspend { frame, cause } => {
                write!(f, "suspend thread {frame} ({})", cause.label())
            }
            TraceKind::ThreadRetire { frame } => write!(f, "retire thread {frame}"),
            TraceKind::Enqueue {
                pkt,
                priority,
                spilled,
                depth,
            } => write!(
                f,
                "enqueue {pkt:?} {priority:?}{} depth={depth}",
                if spilled { " SPILL" } else { "" }
            ),
            TraceKind::Unspill { pkt, priority } => write!(f, "unspill {pkt:?} {priority:?}"),
            TraceKind::DmaService { pkt, words } => write!(f, "dma {pkt:?} x{words}"),
            TraceKind::NetInject { pkt, dst, hops } => {
                write!(f, "net-inject {pkt:?} -> {dst} ({hops} hops)")
            }
            TraceKind::NetDeliver { pkt, src } => write!(f, "net-deliver {pkt:?} <- {src}"),
            TraceKind::DispatchEnd => write!(f, "dispatch-end"),
            TraceKind::FaultInjected { pkt, dst, fault } => {
                write!(f, "fault {pkt:?} -> {dst} ({})", fault.label())
            }
        }
    }
}

/// A sink for trace events.
///
/// The runtime, processor units, and network call [`Probe::on`] once per
/// observable step when — and only when — a probe is attached; the
/// implementor decides what to keep (the `emx-obs` recorder keeps a bounded
/// event log and a metrics registry). Implementations must be cheap: they
/// run inside the simulator's hot loop.
pub trait Probe {
    /// Record that `kind` happened on `pe` at cycle `at`.
    fn on(&mut self, at: Cycle, pe: PeId, kind: TraceKind);
}

/// A probe that discards everything — handy default for probed call paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProbe;

impl Probe for NullProbe {
    fn on(&mut self, _at: Cycle, _pe: PeId, _kind: TraceKind) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_names_are_stable() {
        // The CSV/JSON exporters and docs/OBSERVABILITY.md key on these
        // exact strings; changing one is a schema bump.
        let ev = TraceKind::ThreadSuspend {
            frame: FrameId(3),
            cause: SuspendCause::RemoteRead,
        };
        assert_eq!(ev.name(), "thread-suspend");
        assert_eq!(SuspendCause::RemoteRead.label(), "remote-read");
        assert_eq!(TraceKind::DispatchEnd.name(), "dispatch-end");
        assert_eq!(FaultKind::Delay.label(), "delay");
        assert_eq!(TRACE_SCHEMA, "emx-trace/2");
    }

    #[test]
    fn display_covers_every_variant() {
        let evs = [
            TraceKind::Dispatch {
                pkt: PacketKind::Spawn,
            },
            TraceKind::Send {
                pkt: PacketKind::ReadReq,
                dst: PeId(1),
            },
            TraceKind::ThreadSpawn {
                frame: FrameId(0),
                entry: 2,
            },
            TraceKind::ThreadResume { frame: FrameId(0) },
            TraceKind::ThreadSuspend {
                frame: FrameId(0),
                cause: SuspendCause::Barrier,
            },
            TraceKind::ThreadRetire { frame: FrameId(0) },
            TraceKind::Enqueue {
                pkt: PacketKind::ReadResp,
                priority: Priority::High,
                spilled: true,
                depth: 9,
            },
            TraceKind::Unspill {
                pkt: PacketKind::ReadResp,
                priority: Priority::Low,
            },
            TraceKind::DmaService {
                pkt: PacketKind::ReadBlockReq,
                words: 8,
            },
            TraceKind::NetInject {
                pkt: PacketKind::Write,
                dst: PeId(3),
                hops: 4,
            },
            TraceKind::NetDeliver {
                pkt: PacketKind::Write,
                src: PeId(0),
            },
            TraceKind::DispatchEnd,
            TraceKind::FaultInjected {
                pkt: PacketKind::ReadReq,
                dst: PeId(2),
                fault: FaultKind::Drop,
            },
        ];
        for kind in evs {
            let e = TraceEvent {
                at: Cycle::new(7),
                pe: PeId(0),
                kind,
            };
            let s = e.to_string();
            assert!(s.contains("PE0"), "{s}");
        }
    }

    #[test]
    fn null_probe_accepts_events() {
        let mut p = NullProbe;
        p.on(
            Cycle::ZERO,
            PeId(0),
            TraceKind::Dispatch {
                pkt: PacketKind::Spawn,
            },
        );
    }
}
