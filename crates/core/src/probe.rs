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
//! `docs/OBSERVABILITY.md` as `emx-trace/2`. Each event also has one
//! canonical text line, [`TraceEvent::line`], which the trace digest
//! hashes and `Display` prints.

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
    /// Every cause, in declaration order: `cause as usize` indexes it.
    pub const ALL: [SuspendCause; 5] = [
        SuspendCause::RemoteRead,
        SuspendCause::BlockRead,
        SuspendCause::Barrier,
        SuspendCause::ThreadSync,
        SuspendCause::Yield,
    ];

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
    /// Every fault kind, in declaration order: `fault as usize` indexes it.
    pub const ALL: [FaultKind; 3] = [FaultKind::Drop, FaultKind::Dup, FaultKind::Delay];

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
    /// Number of variants.
    pub const COUNT: usize = 13;

    /// Each variant's [`name`](Self::name), at its [`index`](Self::index).
    pub const NAMES: [&'static str; TraceKind::COUNT] = [
        "dispatch",
        "send",
        "thread-spawn",
        "thread-resume",
        "thread-suspend",
        "thread-retire",
        "enqueue",
        "unspill",
        "dma-service",
        "net-inject",
        "net-deliver",
        "dispatch-end",
        "fault-injected",
    ];

    /// Dense index of the variant, in declaration order, for per-kind
    /// tables.
    pub fn index(&self) -> usize {
        match self {
            TraceKind::Dispatch { .. } => 0,
            TraceKind::Send { .. } => 1,
            TraceKind::ThreadSpawn { .. } => 2,
            TraceKind::ThreadResume { .. } => 3,
            TraceKind::ThreadSuspend { .. } => 4,
            TraceKind::ThreadRetire { .. } => 5,
            TraceKind::Enqueue { .. } => 6,
            TraceKind::Unspill { .. } => 7,
            TraceKind::DmaService { .. } => 8,
            TraceKind::NetInject { .. } => 9,
            TraceKind::NetDeliver { .. } => 10,
            TraceKind::DispatchEnd => 11,
            TraceKind::FaultInjected { .. } => 12,
        }
    }

    /// Short lower-case event name used by the CSV and Chrome-trace
    /// exporters and documented in `docs/OBSERVABILITY.md`.
    pub fn name(&self) -> &'static str {
        TraceKind::NAMES[self.index()]
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

impl TraceEvent {
    /// This event's canonical `emx-trace/2` line, rendered without
    /// allocating (see [`TraceLine`]).
    pub fn line(&self) -> TraceLine {
        TraceLine::render(self)
    }
}

/// Thin wrapper over [`TraceEvent::line`]: the canonical line without its
/// newline, so the printed form and the digested bytes cannot drift apart.
impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.line().as_str())
    }
}

/// Longest canonical line in bytes, newline included: a spilled `enqueue`
/// at maximum field values, `18446744073709551615cy PE65535 enqueue
/// ReadBlockReq High SPILL depth=18446744073709551615` plus `\n`.
const TRACE_LINE_MAX: usize = 90;

/// One trace event's canonical line, `<cycle>cy PE<pe> <event text>\n`,
/// in a stack buffer.
///
/// This is the one renderer of the `emx-trace/2` line grammar
/// (`docs/OBSERVABILITY.md` §5): the trace digest (`emx-obs`'s
/// `DigestProbe`) hashes [`TraceLine::as_bytes`], and [`TraceEvent`]'s
/// `Display` prints [`TraceLine::as_str`]. Fields are never padded.
/// Rendering writes digits by hand and takes names from fixed tables, so it
/// allocates nothing and runs no `fmt` machinery.
pub struct TraceLine {
    buf: [u8; TRACE_LINE_MAX],
    len: usize,
}

impl TraceLine {
    fn render(e: &TraceEvent) -> TraceLine {
        let mut l = TraceLine {
            buf: [0; TRACE_LINE_MAX],
            len: 0,
        };
        l.num(e.at.get());
        l.put("cy PE");
        l.num(e.pe.0.into());
        l.put(" ");
        match e.kind {
            TraceKind::Dispatch { pkt } => {
                l.put("dispatch ");
                l.put(pkt_name(pkt));
            }
            TraceKind::Send { pkt, dst } => {
                l.put("send ");
                l.put(pkt_name(pkt));
                l.put(" -> PE");
                l.num(dst.0.into());
            }
            TraceKind::ThreadSpawn { frame, entry } => {
                l.put("spawn thread F");
                l.num(frame.0.into());
                l.put(" (entry ");
                l.num(entry.into());
                l.put(")");
            }
            TraceKind::ThreadResume { frame } => {
                l.put("resume thread F");
                l.num(frame.0.into());
            }
            TraceKind::ThreadSuspend { frame, cause } => {
                l.put("suspend thread F");
                l.num(frame.0.into());
                l.put(" (");
                l.put(cause.label());
                l.put(")");
            }
            TraceKind::ThreadRetire { frame } => {
                l.put("retire thread F");
                l.num(frame.0.into());
            }
            TraceKind::Enqueue {
                pkt,
                priority,
                spilled,
                depth,
            } => {
                l.put("enqueue ");
                l.put(pkt_name(pkt));
                l.put(" ");
                l.put(priority_name(priority));
                if spilled {
                    l.put(" SPILL");
                }
                l.put(" depth=");
                l.num(depth as u64);
            }
            TraceKind::Unspill { pkt, priority } => {
                l.put("unspill ");
                l.put(pkt_name(pkt));
                l.put(" ");
                l.put(priority_name(priority));
            }
            TraceKind::DmaService { pkt, words } => {
                l.put("dma ");
                l.put(pkt_name(pkt));
                l.put(" x");
                l.num(words.into());
            }
            TraceKind::NetInject { pkt, dst, hops } => {
                l.put("net-inject ");
                l.put(pkt_name(pkt));
                l.put(" -> PE");
                l.num(dst.0.into());
                l.put(" (");
                l.num(hops.into());
                l.put(" hops)");
            }
            TraceKind::NetDeliver { pkt, src } => {
                l.put("net-deliver ");
                l.put(pkt_name(pkt));
                l.put(" <- PE");
                l.num(src.0.into());
            }
            TraceKind::DispatchEnd => l.put("dispatch-end"),
            TraceKind::FaultInjected { pkt, dst, fault } => {
                l.put("fault ");
                l.put(pkt_name(pkt));
                l.put(" -> PE");
                l.num(dst.0.into());
                l.put(" (");
                l.put(fault.label());
                l.put(")");
            }
        }
        l.put("\n");
        l
    }

    fn put(&mut self, s: &str) {
        let end = self.len + s.len();
        self.buf[self.len..end].copy_from_slice(s.as_bytes());
        self.len = end;
    }

    /// Append `v` in decimal: digits least significant first, then
    /// reversed in place.
    fn num(&mut self, mut v: u64) {
        let start = self.len;
        loop {
            self.buf[self.len] = b'0' + (v % 10) as u8;
            self.len += 1;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.buf[start..self.len].reverse();
    }

    /// The line, newline included: the bytes the trace digest hashes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }

    /// The line without its newline: [`TraceEvent`]'s `Display` form.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len - 1]).expect("trace lines are ASCII")
    }
}

/// A packet kind's name as the line grammar spells it (its `Debug` form).
fn pkt_name(pkt: PacketKind) -> &'static str {
    match pkt {
        PacketKind::ReadReq => "ReadReq",
        PacketKind::ReadBlockReq => "ReadBlockReq",
        PacketKind::ReadResp => "ReadResp",
        PacketKind::Write => "Write",
        PacketKind::Spawn => "Spawn",
        PacketKind::SyncArrive => "SyncArrive",
        PacketKind::SyncRelease => "SyncRelease",
    }
}

/// A priority's name as the line grammar spells it (its `Debug` form).
fn priority_name(priority: Priority) -> &'static str {
    match priority {
        Priority::High => "High",
        Priority::Low => "Low",
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
    use proptest::prelude::*;

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

    /// The `write!`-based rendering [`TraceLine`] replaced, kept as its
    /// reference. `Cycle`'s `Display` writes with `write!`, so the `{:>10}`
    /// pads nothing.
    fn reference(e: &TraceEvent) -> String {
        use std::fmt::Write;
        let mut f = String::new();
        write!(f, "{:>10} {} ", e.at, e.pe).unwrap();
        match e.kind {
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
        .unwrap();
        f
    }

    /// Assert the renderer's bytes are the reference line plus `\n`, and
    /// that `Display` is the line without it.
    fn assert_matches_reference(e: &TraceEvent) -> usize {
        let want = reference(e);
        assert_eq!(e.line().as_bytes(), format!("{want}\n").as_bytes());
        assert_eq!(e.to_string(), want);
        e.line().as_bytes().len()
    }

    const CAUSES: [SuspendCause; 5] = [
        SuspendCause::RemoteRead,
        SuspendCause::BlockRead,
        SuspendCause::Barrier,
        SuspendCause::ThreadSync,
        SuspendCause::Yield,
    ];
    const FAULTS: [FaultKind; 3] = [FaultKind::Drop, FaultKind::Dup, FaultKind::Delay];

    /// Every packet kind, by wire code.
    fn pkt(code: u8) -> PacketKind {
        PacketKind::ALL[usize::from(code)]
    }

    /// One event of every kind with every field at its maximum, spilled
    /// and unspilled, for each packet kind and priority.
    fn kinds_at_maximum() -> Vec<TraceKind> {
        let (pe, frame) = (PeId(u16::MAX), FrameId(u16::MAX));
        let mut kinds = vec![
            TraceKind::ThreadSpawn {
                frame,
                entry: u32::MAX,
            },
            TraceKind::ThreadResume { frame },
            TraceKind::ThreadRetire { frame },
            TraceKind::DispatchEnd,
        ];
        kinds.extend(CAUSES.map(|cause| TraceKind::ThreadSuspend { frame, cause }));
        for pkt in (0..7).map(pkt) {
            kinds.push(TraceKind::Dispatch { pkt });
            kinds.push(TraceKind::Send { pkt, dst: pe });
            for priority in [Priority::High, Priority::Low] {
                for spilled in [false, true] {
                    kinds.push(TraceKind::Enqueue {
                        pkt,
                        priority,
                        spilled,
                        depth: usize::MAX,
                    });
                }
                kinds.push(TraceKind::Unspill { pkt, priority });
            }
            kinds.push(TraceKind::DmaService {
                pkt,
                words: u16::MAX,
            });
            kinds.push(TraceKind::NetInject {
                pkt,
                dst: pe,
                hops: u32::MAX,
            });
            kinds.push(TraceKind::NetDeliver { pkt, src: pe });
            kinds.extend(FAULTS.map(|fault| TraceKind::FaultInjected {
                pkt,
                dst: pe,
                fault,
            }));
        }
        kinds
    }

    #[test]
    fn extreme_values_render_like_the_reference_within_the_bound() {
        let kinds = kinds_at_maximum();
        let names: std::collections::BTreeSet<_> = kinds.iter().map(TraceKind::name).collect();
        assert_eq!(names.len(), 13, "every TraceKind variant is covered");
        let mut longest = 0;
        for at in [Cycle::ZERO, Cycle::new(u64::MAX)] {
            for pe in [PeId(0), PeId(u16::MAX)] {
                for &kind in &kinds {
                    longest = longest.max(assert_matches_reference(&TraceEvent { at, pe, kind }));
                }
            }
        }
        // The buffer is exactly as long as the longest line: a spilled
        // enqueue at `u64::MAX` cycles with a 64-bit `usize::MAX` depth.
        assert!(longest <= TRACE_LINE_MAX);
        if cfg!(target_pointer_width = "64") {
            assert_eq!(longest, TRACE_LINE_MAX);
        }
    }

    #[test]
    fn canonical_lines_are_pinned_and_unpadded() {
        for (at, pe, kind, want) in [
            (
                42,
                3,
                TraceKind::Dispatch {
                    pkt: PacketKind::ReadReq,
                },
                "42cy PE3 dispatch ReadReq",
            ),
            (
                7,
                0,
                TraceKind::Enqueue {
                    pkt: PacketKind::ReadResp,
                    priority: Priority::High,
                    spilled: true,
                    depth: 9,
                },
                "7cy PE0 enqueue ReadResp High SPILL depth=9",
            ),
            (
                0,
                12,
                TraceKind::NetInject {
                    pkt: PacketKind::Write,
                    dst: PeId(0),
                    hops: 10,
                },
                "0cy PE12 net-inject Write -> PE0 (10 hops)",
            ),
            (
                1_000_000,
                1,
                TraceKind::ThreadSuspend {
                    frame: FrameId(3),
                    cause: SuspendCause::RemoteRead,
                },
                "1000000cy PE1 suspend thread F3 (remote-read)",
            ),
        ] {
            let e = TraceEvent {
                at: Cycle::new(at),
                pe: PeId(pe),
                kind,
            };
            assert_eq!(e.line().as_bytes(), format!("{want}\n").as_bytes());
            assert_eq!(e.to_string(), want);
        }
    }

    #[test]
    fn variant_tables_follow_declaration_order() {
        for (i, cause) in SuspendCause::ALL.into_iter().enumerate() {
            assert_eq!(cause as usize, i);
        }
        for (i, fault) in FaultKind::ALL.into_iter().enumerate() {
            assert_eq!(fault as usize, i);
        }
    }

    #[test]
    fn name_tables_equal_debug() {
        for p in (0..7).map(pkt) {
            assert_eq!(pkt_name(p), format!("{p:?}"));
        }
        for p in [Priority::High, Priority::Low] {
            assert_eq!(priority_name(p), format!("{p:?}"));
        }
    }

    /// A value below `2^bits`, drawn at every magnitude: uniform bits
    /// shifted right by a uniform amount, so 0, short and full-width
    /// numbers all occur.
    fn spread(bits: u32) -> impl Strategy<Value = u64> {
        (any::<u64>(), 0..=bits)
            .prop_map(move |(v, s)| (v >> (64 - bits)).checked_shr(s).unwrap_or(0))
    }

    fn arb_pkt() -> impl Strategy<Value = PacketKind> {
        (0u8..7).prop_map(pkt)
    }

    fn arb_priority() -> impl Strategy<Value = Priority> {
        any::<bool>().prop_map(|high| if high { Priority::High } else { Priority::Low })
    }

    fn arb_pe() -> impl Strategy<Value = PeId> {
        spread(16).prop_map(|v| PeId(v as u16))
    }

    fn arb_frame() -> impl Strategy<Value = FrameId> {
        spread(16).prop_map(|v| FrameId(v as u16))
    }

    fn arb_kind() -> impl Strategy<Value = TraceKind> {
        prop_oneof![
            arb_pkt().prop_map(|pkt| TraceKind::Dispatch { pkt }),
            (arb_pkt(), arb_pe()).prop_map(|(pkt, dst)| TraceKind::Send { pkt, dst }),
            (arb_frame(), spread(32)).prop_map(|(frame, entry)| TraceKind::ThreadSpawn {
                frame,
                entry: entry as u32
            }),
            arb_frame().prop_map(|frame| TraceKind::ThreadResume { frame }),
            (arb_frame(), 0usize..5).prop_map(|(frame, c)| TraceKind::ThreadSuspend {
                frame,
                cause: CAUSES[c]
            }),
            arb_frame().prop_map(|frame| TraceKind::ThreadRetire { frame }),
            (arb_pkt(), arb_priority(), any::<bool>(), spread(64)).prop_map(
                |(pkt, priority, spilled, depth)| TraceKind::Enqueue {
                    pkt,
                    priority,
                    spilled,
                    depth: depth as usize
                }
            ),
            (arb_pkt(), arb_priority())
                .prop_map(|(pkt, priority)| TraceKind::Unspill { pkt, priority }),
            (arb_pkt(), spread(16)).prop_map(|(pkt, words)| TraceKind::DmaService {
                pkt,
                words: words as u16
            }),
            (arb_pkt(), arb_pe(), spread(32)).prop_map(|(pkt, dst, hops)| TraceKind::NetInject {
                pkt,
                dst,
                hops: hops as u32
            }),
            (arb_pkt(), arb_pe()).prop_map(|(pkt, src)| TraceKind::NetDeliver { pkt, src }),
            Just(TraceKind::DispatchEnd),
            (arb_pkt(), arb_pe(), 0usize..3).prop_map(|(pkt, dst, f)| {
                TraceKind::FaultInjected {
                    pkt,
                    dst,
                    fault: FAULTS[f],
                }
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The renderer emits exactly the bytes of the `write!` reference,
        /// newline added, for every kind at every field magnitude.
        #[test]
        fn renderer_matches_the_write_reference(
            at in spread(64),
            pe in arb_pe(),
            kind in arb_kind(),
        ) {
            let e = TraceEvent { at: Cycle::new(at), pe, kind };
            let want = reference(&e);
            let (line, with_newline) = (e.line(), format!("{want}\n"));
            prop_assert_eq!(line.as_bytes(), with_newline.as_bytes());
            prop_assert_eq!(e.to_string(), want);
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
