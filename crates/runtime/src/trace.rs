//! Optional execution tracing.
//!
//! When enabled with [`Machine::enable_trace`](crate::Machine::enable_trace),
//! the machine records one event per observable scheduling step — packet
//! dispatch and injection, thread spawn/suspend/resume/retire, queue
//! enqueue/spill/unspill, by-pass DMA service, and network
//! injection/ejection — enough to reconstruct the FIFO scheduling
//! interleaving the paper's Figure 4 walks through by hand. The event
//! vocabulary itself ([`TraceKind`], [`TraceEvent`]) lives in `emx-core`
//! so the processor units and network models can emit through the same
//! [`Probe`](emx_core::Probe) sink; this module re-exports it and keeps
//! the bounded in-memory [`Trace`] buffer the machine fills.
//!
//! The trace is bounded: once `capacity` events have been recorded the rest
//! are counted but dropped, so tracing is safe on long runs. The drop count
//! stays exact even when the buffer overflows.

use emx_core::{Cycle, PeId, Probe};
use emx_stats::Table;

pub use emx_core::{FaultKind, SuspendCause, TraceEvent, TraceKind, TRACE_SCHEMA};

/// A bounded event trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    capacity: usize,
    /// Events that arrived after the buffer filled.
    pub dropped: u64,
}

impl Trace {
    /// An empty trace that keeps at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Trace {
            events: Vec::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// Record an event (drops once full).
    pub fn record(&mut self, at: Cycle, pe: PeId, kind: TraceKind) {
        if self.events.len() < self.capacity {
            self.events.push(TraceEvent { at, pe, kind });
        } else {
            self.dropped += 1;
        }
    }

    /// All recorded events, in emission order.
    ///
    /// Emission order is *causal*: an event is recorded the moment its
    /// layer performs the step. Timestamps are monotone per timeline (EXU
    /// bursts, OBU departures, dispatch starts) but not globally sorted —
    /// a packet's OBU departure stamp can precede the suspend event of the
    /// burst that produced it. Stable-sort by [`TraceEvent::at`] to
    /// recover strict time order; the `emx-obs` exporters do.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events on one processor.
    pub fn for_pe(&self, pe: PeId) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.pe == pe)
    }

    /// Render as an aligned table (cycle, PE, event, detail).
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(["cycle", "pe", "event", "detail"]);
        for e in &self.events {
            let detail = match e.kind {
                TraceKind::Dispatch { pkt } => format!("{pkt:?}"),
                TraceKind::Send { pkt, dst } => format!("{pkt:?} -> {dst}"),
                TraceKind::ThreadSpawn { frame, entry } => format!("{frame} entry={entry}"),
                TraceKind::ThreadResume { frame } => format!("{frame}"),
                TraceKind::ThreadSuspend { frame, cause } => {
                    format!("{frame} {}", cause.label())
                }
                TraceKind::ThreadRetire { frame } => format!("{frame}"),
                TraceKind::Enqueue {
                    pkt,
                    priority,
                    spilled,
                    depth,
                } => format!(
                    "{pkt:?} {priority:?}{} depth={depth}",
                    if spilled { " spill" } else { "" }
                ),
                TraceKind::Unspill { pkt, priority } => format!("{pkt:?} {priority:?}"),
                TraceKind::DmaService { pkt, words } => format!("{pkt:?} x{words}"),
                TraceKind::NetInject { pkt, dst, hops } => {
                    format!("{pkt:?} -> {dst} hops={hops}")
                }
                TraceKind::NetDeliver { pkt, src } => format!("{pkt:?} <- {src}"),
                TraceKind::DispatchEnd => String::new(),
                TraceKind::FaultInjected { pkt, dst, fault } => {
                    format!("{pkt:?} -> {dst} {}", fault.label())
                }
            };
            t.row([
                e.at.get().to_string(),
                e.pe.to_string(),
                e.kind.name().to_string(),
                detail,
            ]);
        }
        t
    }
}

impl Probe for Trace {
    fn on(&mut self, at: Cycle, pe: PeId, kind: TraceKind) {
        self.record(at, pe, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emx_core::PacketKind;

    #[test]
    fn records_until_capacity_then_counts_drops() {
        let mut tr = Trace::new(2);
        for i in 0..5u64 {
            tr.record(
                Cycle::new(i),
                PeId(0),
                TraceKind::Dispatch {
                    pkt: PacketKind::Spawn,
                },
            );
        }
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.dropped, 3);
    }

    #[test]
    fn filters_by_pe_and_renders() {
        let mut tr = Trace::new(8);
        tr.record(
            Cycle::new(1),
            PeId(0),
            TraceKind::Dispatch {
                pkt: PacketKind::Spawn,
            },
        );
        tr.record(
            Cycle::new(2),
            PeId(1),
            TraceKind::Send {
                pkt: PacketKind::ReadReq,
                dst: PeId(0),
            },
        );
        assert_eq!(tr.for_pe(PeId(1)).count(), 1);
        let rendered = tr.to_table().render();
        assert!(rendered.contains("ReadReq"));
        assert!(rendered.contains("PE1"));
        assert!(tr.events()[1].to_string().contains("send"));
    }

    #[test]
    fn table_covers_lifecycle_events() {
        use emx_core::FrameId;
        let mut tr = Trace::new(16);
        tr.record(
            Cycle::new(3),
            PeId(0),
            TraceKind::ThreadSuspend {
                frame: FrameId(2),
                cause: SuspendCause::RemoteRead,
            },
        );
        tr.record(
            Cycle::new(4),
            PeId(0),
            TraceKind::Enqueue {
                pkt: PacketKind::ReadResp,
                priority: emx_core::Priority::High,
                spilled: true,
                depth: 5,
            },
        );
        let rendered = tr.to_table().render();
        assert!(rendered.contains("thread-suspend"), "{rendered}");
        assert!(rendered.contains("remote-read"), "{rendered}");
        assert!(rendered.contains("spill"), "{rendered}");
    }
}
