//! Perfetto/Chrome-trace JSON export.
//!
//! Emits the [Trace Event Format] JSON object that both `chrome://tracing`
//! and <https://ui.perfetto.dev> open directly:
//!
//! * one named thread track per processor (pid 1, tid = PE index) carrying
//!   complete (`"X"`) slices for every EXU burst — dispatch to
//!   suspend/retire, named by the dispatched packet and frame, with the
//!   suspension cause in `args`;
//! * complete (`"X"`) slices, category `"dispatch"`, for dispatches that
//!   do not run a thread burst (barrier bookkeeping, partial block
//!   deposits), closed by the burst's `dispatch-end` mark;
//! * async (`"b"`/`"e"`) pairs, category `"read"`, spanning each
//!   split-phase read from the suspend that issued it to the resume its
//!   response triggered — Perfetto draws these as arrows over the track;
//! * per-PE counter (`"C"`) series sampling IBU queue depth at every
//!   enqueue;
//! * a separate network process (pid 2) with instant events for every
//!   fabric injection and ejection (carrying hop counts) and for every
//!   injected fault, category `"fault"`.
//!
//! Timestamps are microseconds derived from cycles with pure integer
//! arithmetic (`cycles * 1e9 / clock_hz` nanoseconds, printed as
//! `µs.nnn`), so output is byte-deterministic across platforms. The
//! top-level `otherData` object stamps the `emx-trace/2` schema, the clock,
//! exact event counts, and the stream digest shared with the CSV exporter.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use emx_core::{SuspendCause, TraceKind, TRACE_SCHEMA};
use emx_stats::json::quote;

use crate::csv::stream_digest;
use crate::recorder::EventLog;

/// Cycles to a microsecond JSON number with nanosecond precision, by
/// integer math only: `cycles * 1_000_000_000 / clock_hz` ns, printed as
/// `micros.nnn`.
fn us(cycles: u64, clock_hz: u64) -> String {
    let hz = clock_hz.max(1);
    let ns = u128::from(cycles) * 1_000_000_000u128 / u128::from(hz);
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

struct PendingSlice {
    start: u64,
    pkt: &'static str,
    frame: Option<u16>,
}

fn pkt_name(pkt: emx_core::PacketKind) -> &'static str {
    use emx_core::PacketKind::*;
    match pkt {
        ReadReq => "ReadReq",
        ReadBlockReq => "ReadBlockReq",
        ReadResp => "ReadResp",
        Write => "Write",
        Spawn => "Spawn",
        SyncArrive => "SyncArrive",
        SyncRelease => "SyncRelease",
    }
}

/// Crate-internal alias so the CSV exporter shares the packet labels.
pub(crate) fn pkt_name_pub(pkt: emx_core::PacketKind) -> &'static str {
    pkt_name(pkt)
}

/// Render one run's event log as a Chrome-trace/Perfetto JSON string.
///
/// `clock_hz` converts cycles to wall time (take it from
/// `RunReport::clock_hz`). The output is byte-deterministic: the same
/// event stream and clock produce the same string.
pub fn chrome_trace_json(log: &EventLog, clock_hz: u64) -> String {
    let mut events: Vec<String> = Vec::with_capacity(log.events().len() + 16);

    // Metadata: name the processes and one thread per PE, in pid/tid order.
    let npes = log.pes();
    events.push(
        r#"{"ph":"M","name":"process_name","pid":1,"tid":0,"args":{"name":"EM-X PEs"}}"#.into(),
    );
    for pe in 0..npes {
        events.push(format!(
            r#"{{"ph":"M","name":"thread_name","pid":1,"tid":{pe},"args":{{"name":"PE{pe}"}}}}"#
        ));
    }
    events.push(
        r#"{"ph":"M","name":"process_name","pid":2,"tid":0,"args":{"name":"network"}}"#.into(),
    );
    events
        .push(r#"{"ph":"M","name":"thread_name","pid":2,"tid":0,"args":{"name":"fabric"}}"#.into());

    // Per-PE walk state.
    let mut pending: Vec<Option<PendingSlice>> = (0..npes).map(|_| None).collect();
    let mut open_reads: Vec<Vec<(u16, u64)>> = vec![Vec::new(); npes]; // (frame, async id)
    let mut next_async = 0u64;

    let flush_pending = |events: &mut Vec<String>, p: Option<PendingSlice>, pe: usize| {
        // A dispatch whose end mark is missing (dropped by a bounded log)
        // renders as an instant on the PE track.
        if let Some(s) = p {
            events.push(format!(
                r#"{{"ph":"i","name":{},"cat":"dispatch","pid":1,"tid":{pe},"ts":{},"s":"t","args":{{"cycle":{}}}}}"#,
                quote(s.pkt),
                us(s.start, clock_hz),
                s.start,
            ));
        }
    };

    for ev in log.events() {
        // The log's PE count covers every event it kept.
        let pe = ev.pe.index();
        let at = ev.at.get();
        match ev.kind {
            TraceKind::Dispatch { pkt } => {
                let old = pending[pe].take();
                flush_pending(&mut events, old, pe);
                pending[pe] = Some(PendingSlice {
                    start: at,
                    pkt: pkt_name(pkt),
                    frame: None,
                });
            }
            TraceKind::ThreadSpawn { frame, .. } | TraceKind::ThreadResume { frame } => {
                if let Some(p) = pending[pe].as_mut() {
                    p.frame = Some(frame.0);
                }
                if let TraceKind::ThreadResume { frame } = ev.kind {
                    if let Some(pos) = open_reads[pe].iter().position(|&(f, _)| f == frame.0) {
                        let (_, id) = open_reads[pe].remove(pos);
                        events.push(format!(
                            r#"{{"ph":"e","name":"read","cat":"read","id":"r{id}","pid":1,"tid":{pe},"ts":{},"args":{{"cycle":{at}}}}}"#,
                            us(at, clock_hz),
                        ));
                    }
                }
            }
            TraceKind::ThreadSuspend { frame, cause } => {
                if let Some(s) = pending[pe].take() {
                    let name = match s.frame {
                        Some(f) => format!("{} F{f}", s.pkt),
                        None => s.pkt.to_string(),
                    };
                    events.push(format!(
                        r#"{{"ph":"X","name":{},"cat":"burst","pid":1,"tid":{pe},"ts":{},"dur":{},"args":{{"cause":"{}","start_cycle":{},"end_cycle":{at}}}}}"#,
                        quote(&name),
                        us(s.start, clock_hz),
                        us(at - s.start, clock_hz),
                        cause.label(),
                        s.start,
                    ));
                }
                if matches!(cause, SuspendCause::RemoteRead | SuspendCause::BlockRead) {
                    let id = next_async;
                    next_async += 1;
                    open_reads[pe].push((frame.0, id));
                    events.push(format!(
                        r#"{{"ph":"b","name":"read","cat":"read","id":"r{id}","pid":1,"tid":{pe},"ts":{},"args":{{"frame":{},"cause":"{}","cycle":{at}}}}}"#,
                        us(at, clock_hz),
                        frame.0,
                        cause.label(),
                    ));
                }
            }
            TraceKind::ThreadRetire { frame } => {
                if let Some(s) = pending[pe].take() {
                    let name = match s.frame {
                        Some(f) => format!("{} F{f}", s.pkt),
                        None => format!("{} F{}", s.pkt, frame.0),
                    };
                    events.push(format!(
                        r#"{{"ph":"X","name":{},"cat":"burst","pid":1,"tid":{pe},"ts":{},"dur":{},"args":{{"cause":"retire","start_cycle":{},"end_cycle":{at}}}}}"#,
                        quote(&name),
                        us(s.start, clock_hz),
                        us(at - s.start, clock_hz),
                        s.start,
                    ));
                }
            }
            TraceKind::Enqueue { depth, .. } => {
                events.push(format!(
                    r#"{{"ph":"C","name":"PE{pe} queue","pid":1,"tid":{pe},"ts":{},"args":{{"depth":{depth}}}}}"#,
                    us(at, clock_hz),
                ));
            }
            TraceKind::Unspill { pkt, .. } => {
                events.push(format!(
                    r#"{{"ph":"i","name":"unspill {}","cat":"queue","pid":1,"tid":{pe},"ts":{},"s":"t","args":{{"cycle":{at}}}}}"#,
                    pkt_name(pkt),
                    us(at, clock_hz),
                ));
            }
            TraceKind::DmaService { pkt, words } => {
                events.push(format!(
                    r#"{{"ph":"i","name":"dma {}","cat":"dma","pid":1,"tid":{pe},"ts":{},"s":"t","args":{{"words":{words},"cycle":{at}}}}}"#,
                    pkt_name(pkt),
                    us(at, clock_hz),
                ));
            }
            TraceKind::NetInject { pkt, dst, hops } => {
                events.push(format!(
                    r#"{{"ph":"i","name":"inject {}","cat":"net","pid":2,"tid":0,"ts":{},"s":"t","args":{{"src":{pe},"dst":{},"hops":{hops},"cycle":{at}}}}}"#,
                    pkt_name(pkt),
                    us(at, clock_hz),
                    dst.index(),
                ));
            }
            TraceKind::NetDeliver { pkt, src } => {
                events.push(format!(
                    r#"{{"ph":"i","name":"deliver {}","cat":"net","pid":2,"tid":0,"ts":{},"s":"t","args":{{"src":{},"dst":{pe},"cycle":{at}}}}}"#,
                    pkt_name(pkt),
                    us(at, clock_hz),
                    src.index(),
                ));
            }
            TraceKind::DispatchEnd => {
                // The end mark closes a dispatch that ran no thread burst
                // (barrier bookkeeping, partial block deposits) as a real
                // slice; burst-carrying dispatches were already closed by
                // their suspend/retire.
                if let Some(s) = pending[pe].take() {
                    events.push(format!(
                        r#"{{"ph":"X","name":{},"cat":"dispatch","pid":1,"tid":{pe},"ts":{},"dur":{},"args":{{"start_cycle":{},"end_cycle":{at}}}}}"#,
                        quote(s.pkt),
                        us(s.start, clock_hz),
                        us(at - s.start, clock_hz),
                        s.start,
                    ));
                }
            }
            TraceKind::FaultInjected { pkt, dst, fault } => {
                events.push(format!(
                    r#"{{"ph":"i","name":"fault {}","cat":"fault","pid":2,"tid":0,"ts":{},"s":"t","args":{{"src":{pe},"dst":{},"pkt":"{}","cycle":{at}}}}}"#,
                    fault.label(),
                    us(at, clock_hz),
                    dst.index(),
                    pkt_name(pkt),
                ));
            }
            TraceKind::Send { .. } => {
                // OBU departure; the paired NetInject carries the track
                // event, so sends add no slice of their own.
            }
        }
    }
    for (pe, p) in pending.into_iter().enumerate() {
        flush_pending(&mut events, p, pe);
    }

    let mut out = String::with_capacity(64 * events.len() + 256);
    out.push_str("{\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(e);
    }
    out.push_str("\n],\n\"displayTimeUnit\":\"ms\",\n");
    out.push_str(&format!(
        "\"otherData\":{{\"schema\":\"{}\",\"clock_hz\":\"{}\",\"events\":\"{}\",\"dropped\":\"{}\",\"digest\":\"{}\"}}}}\n",
        TRACE_SCHEMA,
        clock_hz,
        log.total(),
        log.dropped(),
        stream_digest(log),
    ));
    out
}
