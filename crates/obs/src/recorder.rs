//! The [`Recorder`]: a [`Probe`] that captures the event stream and folds
//! it into a [`MetricsRegistry`] as the machine runs.
//!
//! The machine owns its probe (`Machine::attach_probe` takes a `Box`), so
//! retrieval after the run goes through a second handle: [`Recorder`] and
//! [`RecorderHandle`] share one `Arc<Mutex<Observation>>`; attach the
//! recorder, run, then call [`RecorderHandle::finish`] to take the
//! observation out. The event log is bounded ([`Recorder::bounded`]) so
//! tracing a long sweep cannot exhaust memory — but the metrics registry
//! and the per-kind event counts are updated for *every* event, dropped or
//! kept, so aggregate numbers stay exact past the buffer limit.

use std::sync::{Arc, Mutex};

use emx_core::{Cycle, PeId, Probe, TraceEvent, TraceKind};

use crate::metrics::MetricsRegistry;

/// A bounded log of trace events with exact per-kind counts.
///
/// Once `capacity` events are stored, further events are counted (total,
/// and per kind) but not kept; [`EventLog::dropped`] reports how many.
#[derive(Debug, Clone)]
pub struct EventLog {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
    counts: [u64; TraceKind::COUNT],
}

impl EventLog {
    /// An empty log keeping at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        EventLog {
            events: Vec::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
            counts: [0; TraceKind::COUNT],
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        self.counts[ev.kind.index()] += 1;
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
}

/// Everything one run's observation produced: the (bounded) event log and
/// the (exact) metrics registry.
#[derive(Debug, Clone)]
pub struct Observation {
    /// The recorded event stream.
    pub log: EventLog,
    /// Aggregated counters, gauges and histograms.
    pub metrics: MetricsRegistry,
}

impl Observation {
    fn new(capacity: usize) -> Self {
        Observation {
            log: EventLog::new(capacity),
            metrics: MetricsRegistry::new(),
        }
    }

    fn observe(&mut self, at: Cycle, pe: PeId, kind: TraceKind) {
        self.log.push(TraceEvent { at, pe, kind });
        self.metrics.observe(at, pe, &kind);
    }
}

/// The probe half: attach to a machine with
/// `machine.attach_probe(Box::new(recorder))`.
pub struct Recorder {
    inner: Arc<Mutex<Observation>>,
}

impl Recorder {
    /// A recorder keeping at most `capacity` events (metrics stay exact
    /// past the limit), plus the handle that retrieves the observation.
    pub fn bounded(capacity: usize) -> (Recorder, RecorderHandle) {
        let inner = Arc::new(Mutex::new(Observation::new(capacity)));
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
            .observe(at, pe, kind);
    }
}

/// The retrieval half of a [`Recorder`].
pub struct RecorderHandle {
    inner: Arc<Mutex<Observation>>,
}

impl RecorderHandle {
    /// Take the observation. Call after the run completes; the machine can
    /// keep its (now inert) recorder attached.
    pub fn finish(self) -> Observation {
        let obs = self.inner.lock().expect("recorder mutex poisoned");
        obs.clone()
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
            PeId(0),
            TraceKind::ThreadRetire {
                frame: emx_core::FrameId(0),
            },
        );
        let obs = handle.finish();
        assert_eq!(obs.log.events().len(), 3);
        assert_eq!(obs.log.dropped(), 8);
        assert_eq!(obs.log.total(), 11);
        assert_eq!(
            obs.log.count_of(&TraceKind::Dispatch {
                pkt: PacketKind::Spawn
            }),
            10
        );
        // Metrics also saw all eleven events.
        assert_eq!(obs.metrics.pe(PeId(0)).unwrap().dispatches, 10);
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
