//! The [`DigestProbe`]: a [`Probe`] that folds the full trace-event stream
//! into a 128-bit digest as the machine runs.
//!
//! Unlike the [`Recorder`](crate::Recorder), nothing is buffered — each
//! event's canonical text rendering (its `Display` form plus a newline) is
//! hashed immediately, so the probe costs O(1) memory on runs of any
//! length. Because the machine emits trace events in one canonical order,
//! the digest is the cheap way to assert that two runs produced
//! *identical* event streams: compare 32 hex chars instead of gigabytes of
//! trace.

use std::sync::{Arc, Mutex};

use emx_core::{Cycle, PeId, Probe, TraceEvent, TraceKind};
use emx_stats::Digest128;

/// A probe hashing every trace event into a shared [`Digest128`].
///
/// Attach with `machine.attach_probe(Box::new(probe))`; read the digest
/// through the [`DigestHandle`] after the run.
pub struct DigestProbe {
    inner: Arc<Mutex<Digest128>>,
    count: Arc<Mutex<u64>>,
}

impl DigestProbe {
    /// A fresh probe plus the handle that retrieves its digest.
    pub fn new() -> (DigestProbe, DigestHandle) {
        let inner = Arc::new(Mutex::new(Digest128::new()));
        let count = Arc::new(Mutex::new(0));
        (
            DigestProbe {
                inner: Arc::clone(&inner),
                count: Arc::clone(&count),
            },
            DigestHandle { inner, count },
        )
    }
}

impl Probe for DigestProbe {
    fn on(&mut self, at: Cycle, pe: PeId, kind: TraceKind) {
        let line = TraceEvent { at, pe, kind }.to_string();
        let mut d = self.inner.lock().expect("digest mutex poisoned");
        d.write_str(&line);
        d.write_str("\n");
        *self.count.lock().expect("digest mutex poisoned") += 1;
    }
}

/// The retrieval half of a [`DigestProbe`].
pub struct DigestHandle {
    inner: Arc<Mutex<Digest128>>,
    count: Arc<Mutex<u64>>,
}

impl DigestHandle {
    /// The 32-hex-char digest of the event stream observed so far.
    pub fn hex(&self) -> String {
        self.inner.lock().expect("digest mutex poisoned").hex()
    }

    /// A new probe that keeps folding into this handle's digest — attach
    /// it to a second machine (e.g. one restored from a checkpoint of the
    /// first) and the digest covers the concatenated event stream, directly
    /// comparable to one uninterrupted run.
    pub fn probe(&self) -> DigestProbe {
        DigestProbe {
            inner: Arc::clone(&self.inner),
            count: Arc::clone(&self.count),
        }
    }

    /// Number of events hashed.
    pub fn events(&self) -> u64 {
        *self.count.lock().expect("digest mutex poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emx_core::PacketKind;

    #[test]
    fn digest_matches_hashing_the_rendered_stream() {
        let evs = [
            TraceEvent {
                at: Cycle::new(3),
                pe: PeId(1),
                kind: TraceKind::Dispatch {
                    pkt: PacketKind::Spawn,
                },
            },
            TraceEvent {
                at: Cycle::new(7),
                pe: PeId(0),
                kind: TraceKind::DispatchEnd,
            },
        ];
        let (mut probe, handle) = DigestProbe::new();
        for e in &evs {
            probe.on(e.at, e.pe, e.kind);
        }
        let mut expect = Digest128::new();
        for e in &evs {
            expect.write_str(&e.to_string());
            expect.write_str("\n");
        }
        assert_eq!(handle.hex(), expect.hex());
        assert_eq!(handle.events(), 2);
    }

    #[test]
    fn different_streams_have_different_digests() {
        let (mut a, ha) = DigestProbe::new();
        let (mut b, hb) = DigestProbe::new();
        let base = TraceEvent {
            at: Cycle::new(1),
            pe: PeId(0),
            kind: TraceKind::DispatchEnd,
        };
        a.on(base.at, base.pe, base.kind);
        b.on(Cycle::new(2), base.pe, base.kind);
        assert_ne!(ha.hex(), hb.hex());
    }
}
