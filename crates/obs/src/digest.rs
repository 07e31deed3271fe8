//! The [`DigestProbe`]: a [`Probe`] that folds the full trace-event stream
//! into a 128-bit digest as the machine runs.
//!
//! Unlike the [`Recorder`](crate::Recorder), nothing is buffered: each
//! event's canonical line ([`TraceEvent::line`], its `Display` form plus a
//! newline) is rendered on the stack and hashed immediately, so the probe
//! costs O(1) memory on runs of any length and allocates nothing per event.
//! Because the machine emits trace events in one canonical order, the
//! digest is the cheap way to assert that two runs produced *identical*
//! event streams: compare 32 hex chars instead of gigabytes of trace.

use std::sync::{Arc, Mutex};

use emx_core::{Cycle, PeId, Probe, TraceEvent, TraceKind};
use emx_stats::Digest128;

/// The digest and the number of events folded into it, behind one lock so
/// the two can never disagree.
struct Folded {
    digest: Digest128,
    events: u64,
}

/// A probe hashing every trace event into a shared [`Digest128`].
///
/// Attach with `machine.attach_probe(Box::new(probe))`; read the digest
/// through the [`DigestHandle`] after the run.
pub struct DigestProbe {
    folded: Arc<Mutex<Folded>>,
}

impl DigestProbe {
    /// A fresh probe plus the handle that retrieves its digest.
    pub fn new() -> (DigestProbe, DigestHandle) {
        let folded = Arc::new(Mutex::new(Folded {
            digest: Digest128::new(),
            events: 0,
        }));
        (
            DigestProbe {
                folded: Arc::clone(&folded),
            },
            DigestHandle { folded },
        )
    }
}

impl Probe for DigestProbe {
    fn on(&mut self, at: Cycle, pe: PeId, kind: TraceKind) {
        let line = TraceEvent { at, pe, kind }.line();
        let mut f = self.folded.lock().expect("digest mutex poisoned");
        f.digest.write(line.as_bytes());
        f.events += 1;
    }
}

/// The retrieval half of a [`DigestProbe`].
pub struct DigestHandle {
    folded: Arc<Mutex<Folded>>,
}

impl DigestHandle {
    /// The 32-hex-char digest of the event stream observed so far.
    pub fn hex(&self) -> String {
        self.folded
            .lock()
            .expect("digest mutex poisoned")
            .digest
            .hex()
    }

    /// A new probe that keeps folding into this handle's digest — attach
    /// it to a second machine (e.g. one restored from a checkpoint of the
    /// first) and the digest covers the concatenated event stream, directly
    /// comparable to one uninterrupted run.
    pub fn probe(&self) -> DigestProbe {
        DigestProbe {
            folded: Arc::clone(&self.folded),
        }
    }

    /// Number of events hashed.
    pub fn events(&self) -> u64 {
        self.folded.lock().expect("digest mutex poisoned").events
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
    fn a_stream_continued_through_the_handle_equals_one_uninterrupted_probe() {
        let evs: Vec<TraceEvent> = (0..6u64)
            .map(|i| TraceEvent {
                at: Cycle::new(i * 3),
                pe: PeId(i as u16 % 2),
                kind: TraceKind::Dispatch {
                    pkt: PacketKind::ReadResp,
                },
            })
            .collect();
        let (mut whole, whole_handle) = DigestProbe::new();
        for e in &evs {
            whole.on(e.at, e.pe, e.kind);
        }
        let (mut first, handle) = DigestProbe::new();
        for e in &evs[..2] {
            first.on(e.at, e.pe, e.kind);
        }
        drop(first);
        let mut rest = handle.probe();
        for e in &evs[2..] {
            rest.on(e.at, e.pe, e.kind);
        }
        assert_eq!(handle.hex(), whole_handle.hex());
        assert_eq!(handle.events(), 6);
        assert_eq!(whole_handle.events(), 6);
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
