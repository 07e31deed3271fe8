//! The per-PE fold: exact event counts, the queue-depth and run-length
//! histograms, and the busy / context-switch / queue-wait / idle
//! decomposition of every processor's time.
//!
//! Every per-PE quantity the report carries is counted here, once: the
//! `events` line's counters (dispatches, sends, lifecycle events by kind
//! and suspend cause, queue traffic, by-pass DMA services, network
//! traffic, faults drawn at the injection port) and the two machine-wide
//! distributions sampled per event — IBU depth at every enqueue, and the
//! EXU run length from a dispatch to the first suspend or retire in it.
//!
//! The attribution leans on two `emx-trace/2` guarantees:
//!
//! * every `dispatch` has exactly one `dispatch-end`, stamped with the
//!   cycle the runtime committed to `busy_until` — so the *occupied* span
//!   of every EXU burst is exact, and the gap between a `dispatch-end`
//!   and the next `dispatch` is exactly the machine's idle-or-waiting
//!   time;
//! * lifecycle events (`thread-spawn`/`resume`/`suspend`/`retire`) are
//!   emitted causally inside the burst that produced them, so the live
//!   thread count at a dispatch matches what the runtime saw when it
//!   decided whether the gap counts as communication waiting (the
//!   Figure 6 rule: a gap is *waiting* only while suspended threads
//!   exist; otherwise it is genuine idleness).
//!
//! Within an occupied span the class split is reconstructed from the cost
//! model: every lifecycle event costs one `context_switch`, every unspill
//! one `ibu_spill`, every barrier-protocol dispatch two cycles, and every
//! barrier-protocol send one `send_packet` — the same charges
//! `Machine::on_dispatch` makes. The one trace-invisible case is a
//! spurious sequence-cell wake (charged to switching by the runtime but
//! indistinguishable from a failed barrier poll, which is charged to
//! communication); both are 2-cycle burstless `ReadResp` dispatches, so
//! the fold attributes them to queue-wait and the cross-validation
//! tolerance absorbs the difference.

use emx_core::{CostModel, PacketKind, TraceKind};

use crate::histogram::Histogram;

/// Bucket bounds (upper-inclusive, packets) of the queue-depth histogram,
/// sampled at every enqueue.
const QUEUE_DEPTH_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128];

/// Bucket bounds (upper-inclusive, cycles) of the run-length histogram:
/// dispatch to suspend/retire, the R-cycle length of Figure 5.
const RUN_LENGTH_BOUNDS: &[u64] = &[4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// Exact event counts of one processor, the report's `events` line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeEvents {
    /// Packets popped and acted on by the EXU.
    pub dispatches: u64,
    /// Packets injected from this processor's OBU.
    pub sends: u64,
    /// Threads instantiated here.
    pub spawns: u64,
    /// Suspended threads switched back onto the EXU.
    pub resumes: u64,
    /// Threads that left the EXU mid-R-cycle, by cause, indexed like
    /// `SuspendCause::ALL`.
    pub suspends: [u64; 5],
    /// Threads that ran to completion and freed their frame.
    pub retires: u64,
    /// Packets that entered the IBU queue.
    pub enqueues: u64,
    /// Enqueues that overflowed (or were forced) to the on-memory buffer.
    pub spills: u64,
    /// Spilled packets restored at dispatch.
    pub unspills: u64,
    /// Remote accesses serviced by the by-pass DMA.
    pub dma_services: u64,
    /// Words moved by the by-pass DMA.
    pub dma_words: u64,
    /// Packets this processor injected into the network fabric.
    pub net_injects: u64,
    /// Network hops summed over this processor's injections.
    pub net_hops: u64,
    /// Packets the network ejected into this processor's IBU.
    pub net_delivers: u64,
    /// Gauge: deepest the IBU queue ever got (both priority classes).
    pub max_queue_depth: u64,
    /// Network faults drawn at this processor's injection port, indexed
    /// like `FaultKind::ALL` (zero on fault-free networks).
    pub faults: [u64; 3],
}

impl PeEvents {
    /// Suspends of every cause.
    pub fn total_suspends(&self) -> u64 {
        self.suspends.iter().sum()
    }

    /// Lifecycle events: spawns, resumes, suspends and retires, each one
    /// `context_switch` charge.
    pub fn lifecycle(&self) -> u64 {
        self.spawns + self.resumes + self.total_suspends() + self.retires
    }
}

/// Attribution classes of one processor's wall-clock time, in cycles.
/// `busy + switch + wait + idle == elapsed` by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeAttribution {
    /// Useful work: compute plus send/DMA overhead (Figure 8 "busy").
    pub busy: u64,
    /// Context-switch and packet-handling cycles (Figure 8 "switch").
    pub switch: u64,
    /// Cycles lost waiting on communication/synchronization: inter-burst
    /// gaps while suspended threads existed, plus failed barrier polls.
    pub wait: u64,
    /// Cycles with no work and no suspended threads.
    pub idle: u64,
    /// Total EXU-occupied cycles (busy + switch + in-burst waiting);
    /// exact, straight from dispatch→dispatch-end spans.
    pub occupied: u64,
}

/// One open EXU burst.
#[derive(Debug, Clone, Copy)]
struct CurBurst {
    start: u64,
    readresp: bool,
    spilled: bool,
    resumed: bool,
    /// A thread already left the EXU (suspend or retire), ending the run
    /// the run-length histogram times.
    left: bool,
}

/// Streaming per-PE fold state.
#[derive(Debug, Clone, Default)]
struct PeFold {
    events: PeEvents,
    /// Cycle of the last dispatch-end (mirror of the runtime's
    /// `busy_until`).
    last_end: u64,
    cur: Option<CurBurst>,
    /// Live threads: spawns minus retires.
    live: u64,
    /// Exact sum of dispatch→dispatch-end spans.
    occupied: u64,
    /// Exact inter-burst gaps while `live > 0`.
    wait: u64,
    /// Span sum of burstless `ReadResp` dispatches (failed barrier polls
    /// and discarded stale responses): in-burst communication waiting,
    /// gross of any unspill penalty inside those spans.
    burstless_rr: u64,
    /// How many of those burstless spans started with an unspill (whose
    /// `ibu_spill` cycles belong to switching, not waiting).
    burstless_rr_spills: u64,
    /// Barrier-protocol dispatches and sends, charged to switching.
    sync_dispatches: u64,
    sync_sends: u64,
    pending_unspill: bool,
}

/// A thread left the EXU at `at`: time the open burst's run, unless an
/// earlier suspend or retire in the same burst already ended it.
fn end_run(cur: &mut Option<CurBurst>, at: u64, run_length: &mut Histogram) {
    if let Some(b) = cur.as_mut().filter(|b| !b.left) {
        b.left = true;
        run_length.record(at.saturating_sub(b.start));
    }
}

/// Streaming fold of the whole machine's per-PE counts and attribution.
#[derive(Debug, Clone)]
pub struct AttribFold {
    pes: Vec<PeFold>,
    /// IBU depth sampled at every enqueue, packets.
    pub queue_depth: Histogram,
    /// EXU run lengths: dispatch to the first suspend or retire, cycles.
    pub run_length: Histogram,
}

impl Default for AttribFold {
    fn default() -> Self {
        AttribFold {
            pes: Vec::new(),
            queue_depth: Histogram::new("queue_depth_pkts", QUEUE_DEPTH_BOUNDS),
            run_length: Histogram::new("run_length_cycles", RUN_LENGTH_BOUNDS),
        }
    }
}

impl AttribFold {
    /// Fold one event.
    pub fn observe(&mut self, at: u64, pe: usize, kind: &TraceKind) {
        if pe >= self.pes.len() {
            self.pes.resize_with(pe + 1, PeFold::default);
        }
        let f = &mut self.pes[pe];
        let n = &mut f.events;
        match *kind {
            TraceKind::Dispatch { pkt } => {
                n.dispatches += 1;
                let gap = at.saturating_sub(f.last_end);
                if f.live > 0 {
                    f.wait += gap;
                }
                if matches!(pkt, PacketKind::SyncArrive | PacketKind::SyncRelease) {
                    f.sync_dispatches += 1;
                }
                let spilled = std::mem::take(&mut f.pending_unspill);
                f.cur = Some(CurBurst {
                    start: at,
                    readresp: pkt == PacketKind::ReadResp,
                    spilled,
                    resumed: false,
                    left: false,
                });
            }
            TraceKind::DispatchEnd => {
                if let Some(b) = f.cur.take() {
                    let span = at.saturating_sub(b.start);
                    f.occupied += span;
                    if b.readresp && !b.resumed {
                        // Failed poll / spurious wake / discarded stale
                        // response; everything beyond the unspill penalty
                        // is synchronization waiting.
                        f.burstless_rr += span;
                        if b.spilled {
                            f.burstless_rr_spills += 1;
                        }
                    }
                }
                f.last_end = at;
            }
            TraceKind::Unspill { .. } => {
                n.unspills += 1;
                f.pending_unspill = true;
            }
            TraceKind::ThreadSpawn { .. } => {
                n.spawns += 1;
                f.live += 1;
            }
            TraceKind::ThreadResume { .. } => {
                n.resumes += 1;
                if let Some(b) = f.cur.as_mut() {
                    b.resumed = true;
                }
            }
            TraceKind::ThreadSuspend { cause, .. } => {
                n.suspends[cause as usize] += 1;
                end_run(&mut f.cur, at, &mut self.run_length);
            }
            TraceKind::ThreadRetire { .. } => {
                n.retires += 1;
                f.live = f.live.saturating_sub(1);
                end_run(&mut f.cur, at, &mut self.run_length);
            }
            TraceKind::Send { pkt, .. } => {
                n.sends += 1;
                if matches!(pkt, PacketKind::SyncArrive | PacketKind::SyncRelease) {
                    f.sync_sends += 1;
                }
            }
            TraceKind::Enqueue { spilled, depth, .. } => {
                n.enqueues += 1;
                n.spills += u64::from(spilled);
                n.max_queue_depth = n.max_queue_depth.max(depth as u64);
                self.queue_depth.record(depth as u64);
            }
            TraceKind::DmaService { words, .. } => {
                n.dma_services += 1;
                n.dma_words += u64::from(words);
            }
            TraceKind::NetInject { hops, .. } => {
                n.net_injects += 1;
                n.net_hops += u64::from(hops);
            }
            TraceKind::NetDeliver { .. } => n.net_delivers += 1,
            TraceKind::FaultInjected { fault, .. } => n.faults[fault as usize] += 1,
        }
    }

    /// Exact event counts of processor `pe` (all zero if it emitted none).
    pub fn events(&self, pe: usize) -> PeEvents {
        self.pes.get(pe).map(|f| f.events).unwrap_or_default()
    }

    /// Number of processors that emitted at least one event.
    pub fn num_pes(&self) -> usize {
        self.pes.len()
    }

    /// Final attribution of processor `pe` over `elapsed` cycles under the
    /// run's cost model.
    pub fn attribution(&self, pe: usize, elapsed: u64, costs: &CostModel) -> PeAttribution {
        let Some(f) = self.pes.get(pe) else {
            return PeAttribution {
                idle: elapsed,
                ..PeAttribution::default()
            };
        };
        let switch = u64::from(costs.ibu_spill) * f.events.unspills
            + u64::from(costs.context_switch) * f.events.lifecycle()
            + 2 * f.sync_dispatches
            + u64::from(costs.send_packet) * f.sync_sends;
        let comm_in_burst = f
            .burstless_rr
            .saturating_sub(u64::from(costs.ibu_spill) * f.burstless_rr_spills);
        let busy = f.occupied.saturating_sub(switch + comm_in_burst);
        let wait = f.wait + comm_in_burst;
        let idle = elapsed.saturating_sub(f.occupied + f.wait);
        PeAttribution {
            busy,
            switch,
            wait,
            idle,
            occupied: f.occupied,
        }
    }
}
