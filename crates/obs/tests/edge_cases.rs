//! Edge cases of the observability layer: exact accounting at the event
//! log's capacity boundary, and exporter determinism on an empty trace.

use emx_core::{Cycle, FrameId, PacketKind, PeId, Probe, TraceKind};
use emx_obs::{chrome_trace_json, events_csv, validate_chrome_trace, EventLog, Recorder};

fn dispatch() -> TraceKind {
    TraceKind::Dispatch {
        pkt: PacketKind::Spawn,
    }
}

fn retire() -> TraceKind {
    TraceKind::ThreadRetire { frame: FrameId(0) }
}

/// Feed `dispatches` + `retires` events through a bounded recorder.
fn overflowed(capacity: usize, dispatches: u64, retires: u64) -> EventLog {
    let (mut rec, handle) = Recorder::bounded(capacity);
    let mut t = 0;
    for _ in 0..dispatches {
        rec.on(Cycle::new(t), PeId(0), dispatch());
        t += 1;
    }
    for _ in 0..retires {
        rec.on(Cycle::new(t), PeId(0), retire());
        t += 1;
    }
    handle.finish()
}

#[test]
fn event_log_overflow_counts_stay_exact_past_capacity() {
    let log = overflowed(5, 12, 3);
    // Exactly `capacity` events kept, every overflow counted.
    assert_eq!(log.events().len(), 5);
    assert_eq!(log.dropped(), 10);
    assert_eq!(log.total(), 15);
    // Per-kind counts are exact even though 10 of the 15 were dropped.
    assert_eq!(log.count_of(&dispatch()), 12);
    assert_eq!(log.count_of(&retire()), 3);
    let by_name: Vec<(&str, u64)> = log.counts().filter(|&(_, c)| c > 0).collect();
    assert_eq!(by_name, vec![("dispatch", 12), ("thread-retire", 3)]);
}

#[test]
fn zero_capacity_log_keeps_nothing_but_counts_everything() {
    let log = overflowed(0, 7, 0);
    assert_eq!(log.events().len(), 0);
    assert_eq!(log.dropped(), 7);
    assert_eq!(log.total(), 7);
    assert_eq!(log.count_of(&dispatch()), 7);
}

#[test]
fn at_capacity_log_drops_nothing() {
    let log = overflowed(15, 12, 3);
    assert_eq!(log.events().len(), 15);
    assert_eq!(log.dropped(), 0);
    assert_eq!(log.total(), 15);
}

#[test]
fn empty_trace_exports_are_byte_deterministic_and_valid() {
    let empty = || Recorder::bounded(16).1.finish();
    let (a, b) = (empty(), empty());
    assert_eq!(a.total(), 0);

    // Both exporters produce identical bytes for identical (empty) input.
    let json = chrome_trace_json(&a, 20_000_000);
    assert_eq!(json, chrome_trace_json(&b, 20_000_000));
    let csv = events_csv(&a, 20_000_000);
    assert_eq!(csv, events_csv(&b, 20_000_000));

    // The empty Chrome trace still validates: metadata only, no slices.
    let sum = validate_chrome_trace(&json).expect("empty trace validates");
    assert_eq!(sum.slices, 0);
    assert_eq!(sum.asyncs, 0);

    // The empty CSV is exactly its three header lines, with zero counts.
    assert_eq!(csv.lines().count(), 3);
    assert!(csv.lines().nth(1).unwrap().contains("events=0 dropped=0"));
}
