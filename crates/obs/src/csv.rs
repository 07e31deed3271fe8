//! Columnar CSV export of the `emx-trace/2` event stream.
//!
//! One row per event, one column per field; fields that do not apply to an
//! event kind are empty. The two comment lines at the top carry the schema
//! tag, the clock, exact totals (kept *and* dropped — counts stay exact
//! past the event-log bound), and the stream digest. The digest covers the
//! data rows only and is the same value the Chrome-trace exporter stamps
//! into `otherData.digest`, so the two files of one run vouch for each
//! other.

use emx_core::{TraceKind, TRACE_SCHEMA};
use emx_stats::Digest128;

use crate::recorder::EventLog;

/// The data-row header (column order is part of the `emx-trace/2` schema).
const HEADER: &str =
    "cycle,pe,event,pkt,dst,src,frame,entry,cause,priority,spilled,depth,words,hops";

fn pkt_str(p: emx_core::PacketKind) -> &'static str {
    crate::chrome::pkt_name_pub(p)
}

/// One event as its canonical CSV row (no trailing newline).
fn row(ev: &emx_core::TraceEvent) -> String {
    // cycle,pe,event then the kind-specific columns.
    let mut c = [
        ev.at.get().to_string(),
        ev.pe.index().to_string(),
        ev.kind.name().to_string(),
        String::new(), // pkt
        String::new(), // dst
        String::new(), // src
        String::new(), // frame
        String::new(), // entry
        String::new(), // cause
        String::new(), // priority
        String::new(), // spilled
        String::new(), // depth
        String::new(), // words
        String::new(), // hops
    ];
    match ev.kind {
        TraceKind::Dispatch { pkt } => c[3] = pkt_str(pkt).into(),
        TraceKind::Send { pkt, dst } => {
            c[3] = pkt_str(pkt).into();
            c[4] = dst.index().to_string();
        }
        TraceKind::ThreadSpawn { frame, entry } => {
            c[6] = frame.0.to_string();
            c[7] = entry.to_string();
        }
        TraceKind::ThreadResume { frame } | TraceKind::ThreadRetire { frame } => {
            c[6] = frame.0.to_string();
        }
        TraceKind::ThreadSuspend { frame, cause } => {
            c[6] = frame.0.to_string();
            c[8] = cause.label().into();
        }
        TraceKind::Enqueue {
            pkt,
            priority,
            spilled,
            depth,
        } => {
            c[3] = pkt_str(pkt).into();
            c[9] = priority_str(priority).into();
            c[10] = if spilled { "1" } else { "0" }.into();
            c[11] = depth.to_string();
        }
        TraceKind::Unspill { pkt, priority } => {
            c[3] = pkt_str(pkt).into();
            c[9] = priority_str(priority).into();
        }
        TraceKind::DmaService { pkt, words } => {
            c[3] = pkt_str(pkt).into();
            c[12] = words.to_string();
        }
        TraceKind::NetInject { pkt, dst, hops } => {
            c[3] = pkt_str(pkt).into();
            c[4] = dst.index().to_string();
            c[13] = hops.to_string();
        }
        TraceKind::NetDeliver { pkt, src } => {
            c[3] = pkt_str(pkt).into();
            c[5] = src.index().to_string();
        }
        TraceKind::DispatchEnd => {}
        TraceKind::FaultInjected { pkt, dst, fault } => {
            c[3] = pkt_str(pkt).into();
            c[4] = dst.index().to_string();
            c[8] = fault.label().into();
        }
    }
    c.join(",")
}

fn priority_str(p: emx_core::Priority) -> &'static str {
    match p {
        emx_core::Priority::High => "high",
        emx_core::Priority::Low => "low",
    }
}

/// 128-bit hex digest of the kept event stream: the CSV data rows, one per
/// line. Stamped by both exporters, so a run's CSV and Chrome-trace JSON
/// carry matching digests.
pub(crate) fn stream_digest(log: &EventLog) -> String {
    let mut d = Digest128::new();
    for ev in log.events() {
        d.write_str(&row(ev));
        d.write_str("\n");
    }
    d.hex()
}

/// Render one run's event log as a CSV string (see module docs).
pub fn events_csv(log: &EventLog, clock_hz: u64) -> String {
    let mut out = String::with_capacity(48 * log.events().len() + 128);
    out.push_str("# ");
    out.push_str(TRACE_SCHEMA);
    out.push('\n');
    out.push_str(&format!(
        "# clock_hz={} events={} dropped={} digest={}\n",
        clock_hz,
        log.total(),
        log.dropped(),
        stream_digest(log),
    ));
    out.push_str(HEADER);
    out.push('\n');
    for ev in log.events() {
        out.push_str(&row(ev));
        out.push('\n');
    }
    out
}
