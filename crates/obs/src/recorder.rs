//! The [`Recorder`]: a [`Probe`] that captures the event stream into a
//! bounded [`EventLog`] as the machine runs.
//!
//! The machine owns its probe (`Machine::attach_probe` takes a `Box`), so
//! retrieval after the run goes through a second handle: [`Recorder`] and
//! [`RecorderHandle`] share one `Arc<Mutex<EventLog>>`; attach the
//! recorder, run, then call [`RecorderHandle::finish`] to take the log
//! out. The log is bounded ([`Recorder::bounded`]) so tracing a long sweep
//! cannot exhaust memory — but its per-kind counts and PE count are updated
//! for *every* event, dropped or kept, so they stay exact past the buffer
//! limit. Per-PE counts and distributions are the profiler's
//! (`emx-profile`).

use std::sync::{Arc, Mutex};

use emx_core::{Cycle, PeId, Probe, TraceEvent, TraceKind};

/// A bounded log of trace events with exact per-kind counts.
///
/// Once `capacity` events are stored, further events are counted (total,
/// per kind, and the PEs they came from) but not kept;
/// [`EventLog::dropped`] reports how many.
#[derive(Debug, Clone)]
pub struct EventLog {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
    counts: [u64; TraceKind::COUNT],
    pes: usize,
}

impl EventLog {
    /// An empty log keeping at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        EventLog {
            events: Vec::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
            counts: [0; TraceKind::COUNT],
            pes: 0,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        self.counts[ev.kind.index()] += 1;
        self.pes = self.pes.max(ev.pe.index() + 1);
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// The kept events, in emission (causal) order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events observed but not kept (buffer overflow).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events observed, kept or dropped. Exact.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Exact count of events of `kind`'s variant, kept or dropped.
    pub fn count_of(&self, kind: &TraceKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Exact per-kind counts as `(name, count)` pairs, in schema order.
    pub fn counts(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        TraceKind::NAMES.into_iter().zip(self.counts)
    }

    /// Processors seen: the highest PE index of any event, kept or
    /// dropped, plus one (0 for an empty log).
    pub fn pes(&self) -> usize {
        self.pes
    }
}

/// The probe half: attach to a machine with
/// `machine.attach_probe(Box::new(recorder))`.
pub struct Recorder {
    inner: Arc<Mutex<EventLog>>,
}

impl Recorder {
    /// A recorder keeping at most `capacity` events (counts stay exact
    /// past the limit), plus the handle that retrieves the log.
    pub fn bounded(capacity: usize) -> (Recorder, RecorderHandle) {
        let inner = Arc::new(Mutex::new(EventLog::new(capacity)));
        (
            Recorder {
                inner: Arc::clone(&inner),
            },
            RecorderHandle { inner },
        )
    }

    /// A recorder that keeps every event. Fine for workload-sized runs;
    /// prefer [`Recorder::bounded`] inside sweeps.
    pub fn unbounded() -> (Recorder, RecorderHandle) {
        Recorder::bounded(usize::MAX)
    }
}

impl Probe for Recorder {
    fn on(&mut self, at: Cycle, pe: PeId, kind: TraceKind) {
        self.inner
            .lock()
            .expect("recorder mutex poisoned")
            .push(TraceEvent { at, pe, kind });
    }
}

/// The retrieval half of a [`Recorder`].
pub struct RecorderHandle {
    inner: Arc<Mutex<EventLog>>,
}

impl RecorderHandle {
    /// Take the log out. Call after the run completes; the machine can
    /// keep its (now inert) recorder attached, which counts into an empty
    /// log that keeps nothing.
    pub fn finish(self) -> EventLog {
        let mut log = self.inner.lock().expect("recorder mutex poisoned");
        std::mem::replace(&mut log, EventLog::new(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emx_core::PacketKind;

    fn ev(i: u64) -> (Cycle, PeId, TraceKind) {
        (
            Cycle::new(i),
            PeId(0),
            TraceKind::Dispatch {
                pkt: PacketKind::Spawn,
            },
        )
    }

    #[test]
    fn overflow_keeps_counts_exact() {
        let (mut rec, handle) = Recorder::bounded(3);
        for i in 0..10 {
            let (at, pe, kind) = ev(i);
            rec.on(at, pe, kind);
        }
        rec.on(
            Cycle::new(10),
            PeId(2),
            TraceKind::ThreadRetire {
                frame: emx_core::FrameId(0),
            },
        );
        let log = handle.finish();
        assert_eq!(log.events().len(), 3);
        assert_eq!(log.dropped(), 8);
        assert_eq!(log.total(), 11);
        assert_eq!(
            log.count_of(&TraceKind::Dispatch {
                pkt: PacketKind::Spawn
            }),
            10
        );
        // The PE count covers dropped events too.
        assert_eq!(log.pes(), 3);
    }

    #[test]
    fn kind_names_align_with_indices() {
        let kinds = [
            TraceKind::Dispatch {
                pkt: PacketKind::Spawn,
            },
            TraceKind::NetDeliver {
                pkt: PacketKind::Write,
                src: PeId(0),
            },
        ];
        let mut log = EventLog::new(kinds.len());
        for kind in kinds {
            log.push(TraceEvent {
                at: Cycle::ZERO,
                pe: PeId(0),
                kind,
            });
        }
        // Each kind is counted at its index, under its own name.
        for k in kinds {
            assert_eq!(log.counts().nth(k.index()), Some((k.name(), 1)));
        }
    }
}
