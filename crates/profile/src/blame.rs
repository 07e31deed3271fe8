//! Remote-read latency blame: split every suspend→resume round trip into
//! the phases the thread actually waited in.
//!
//! A single remote read (paper §4, the 35-cycle round trip) passes six
//! stations, each visible as a trace mark:
//!
//! | # | phase          | interval                                        |
//! |---|----------------|--------------------------------------------------|
//! | 0 | `inject`       | suspend → request leaves the OBU (`net-inject`)  |
//! | 1 | `req-transit`  | → request delivered at the server (`net-deliver`)|
//! | 2 | `service`      | → response leaves the server (`net-inject`)      |
//! | 3 | `resp-transit` | → response delivered back (`net-deliver`)        |
//! | 4 | `resp-queue`   | → response dispatched from the IBU (`dispatch`)  |
//! | 5 | `resume`       | → thread resumed (`thread-resume`)               |
//!
//! The marks are folded through a saturating cumulative maximum, so each
//! phase is non-negative and the six phases sum *exactly* to the observed
//! suspend→resume latency.
//!
//! Matching is FIFO per (source, destination) pair — the network never
//! reorders packets of one class on one lane, and a DMA engine services
//! each arriving request atomically, so its response words leave
//! contiguously. Fault injection breaks pairings deliberately: dropped
//! packets pop their in-flight entry, duplicates thread an opaque marker
//! through the server and back, and any chain left with a hole is counted
//! in `unmatched` rather than guessed at. Its suspend→resume latency still
//! lands in `read_total`, which times every single-word read; the phase
//! histograms cover matched reads only. On a fault-free run every
//! single-word read matches and the histograms are exact.
//!
//! Block reads (`ReadBlock`) are timed end-to-end only (`block_total`):
//! their response is a word stream with one final resume packet, so a
//! phase split would blame the last word for the whole stream.

use std::collections::{HashMap, VecDeque};

use emx_core::{FaultKind, PacketKind, SuspendCause, TraceKind};

use crate::histogram::Histogram;

/// Number of blame phases of a single-word remote read.
pub const NUM_PHASES: usize = 6;

/// Canonical phase labels, in pipeline order.
pub const PHASE_NAMES: [&str; NUM_PHASES] = [
    "inject",
    "req-transit",
    "service",
    "resp-transit",
    "resp-queue",
    "resume",
];

/// Histogram bucket bounds for per-phase and total read latencies.
static LATENCY_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096];

static PHASE_HIST_NAMES: [&str; NUM_PHASES] = [
    "phase_inject",
    "phase_req_transit",
    "phase_service",
    "phase_resp_transit",
    "phase_resp_queue",
    "phase_resume",
];

/// An open single-word read chain, keyed by (requester PE, frame).
#[derive(Debug, Clone, Copy, Default)]
struct Chain {
    suspend: u64,
    inject: Option<u64>,
    req_deliver: Option<u64>,
    resp_inject: Option<u64>,
    resp_deliver: Option<u64>,
    hops: u64,
}

/// What the next outbound `net-inject` on a PE belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SendSlot {
    Single { frame: u16 },
    Block,
}

/// An in-flight request on a (src, dst) lane.
#[derive(Debug, Clone, Copy)]
enum ReqEntry {
    Single {
        frame: u16,
    },
    Block,
    /// A duplicate or an otherwise unattributable packet; threads through
    /// the server so downstream FIFOs stay aligned.
    Opaque,
}

/// A request sitting at (or being serviced by) a server's DMA.
#[derive(Debug, Clone, Copy)]
struct ServiceEntry {
    /// The requester the response goes back to.
    dst: usize,
    /// Responses still to be injected for this request.
    remaining: u64,
    kind: ReqEntry,
}

/// An in-flight response on a (server, requester) lane.
#[derive(Debug, Clone, Copy)]
enum RespEntry {
    Single { frame: u16 },
    BlockWord,
    Opaque,
}

/// Summary counters of the blame fold (histograms live alongside).
#[derive(Debug, Clone, Copy, Default)]
pub struct BlameCounters {
    /// Single-word reads with all six marks present.
    pub matched: u64,
    /// Block reads timed end-to-end.
    pub block_matched: u64,
    /// Chains broken by faults, retries, or log truncation.
    pub unmatched: u64,
    /// Outbound read injects with no suspended thread awaiting a send —
    /// fault-tolerance retries.
    pub retry_sends: u64,
}

/// Streaming fold of remote-read blame.
#[derive(Debug)]
pub struct BlameFold {
    open: HashMap<(usize, u16), Chain>,
    block_open: HashMap<(usize, u16), u64>,
    await_send: HashMap<usize, VecDeque<SendSlot>>,
    req_inflight: HashMap<(usize, usize), VecDeque<ReqEntry>>,
    pending_service: HashMap<usize, VecDeque<ServiceEntry>>,
    resp_inflight: HashMap<(usize, usize), VecDeque<RespEntry>>,
    last_dispatch: HashMap<usize, u64>,
    pub counters: BlameCounters,
    /// Per-phase waiting-cycle histograms, pipeline order; matched reads
    /// only.
    pub phases: [Histogram; NUM_PHASES],
    /// End-to-end single-word read latency of every read, matched or not.
    pub total: Histogram,
    /// End-to-end block read latency.
    pub block_total: Histogram,
    hops_sum: u64,
}

impl Default for BlameFold {
    fn default() -> Self {
        Self {
            open: HashMap::new(),
            block_open: HashMap::new(),
            await_send: HashMap::new(),
            req_inflight: HashMap::new(),
            pending_service: HashMap::new(),
            resp_inflight: HashMap::new(),
            last_dispatch: HashMap::new(),
            counters: BlameCounters::default(),
            phases: PHASE_HIST_NAMES.map(|n| Histogram::new(n, LATENCY_BOUNDS)),
            total: Histogram::new("read_total", LATENCY_BOUNDS),
            block_total: Histogram::new("block_total", LATENCY_BOUNDS),
            hops_sum: 0,
        }
    }
}

impl BlameFold {
    /// Fold one event.
    pub fn observe(&mut self, at: u64, pe: usize, kind: &TraceKind) {
        match *kind {
            TraceKind::ThreadSuspend { frame, cause } => match cause {
                SuspendCause::RemoteRead => {
                    self.open.insert(
                        (pe, frame.0),
                        Chain {
                            suspend: at,
                            ..Chain::default()
                        },
                    );
                    self.await_send
                        .entry(pe)
                        .or_default()
                        .push_back(SendSlot::Single { frame: frame.0 });
                }
                SuspendCause::BlockRead => {
                    self.block_open.insert((pe, frame.0), at);
                    self.await_send
                        .entry(pe)
                        .or_default()
                        .push_back(SendSlot::Block);
                }
                _ => {}
            },
            TraceKind::NetInject { pkt, dst, hops } => match pkt {
                PacketKind::ReadReq | PacketKind::ReadBlockReq => {
                    self.on_request_inject(at, pe, dst.index(), pkt, hops);
                }
                PacketKind::ReadResp => self.on_response_inject(at, pe, dst.index()),
                _ => {}
            },
            TraceKind::NetDeliver { pkt, src } => match pkt {
                PacketKind::ReadReq | PacketKind::ReadBlockReq => {
                    self.on_request_deliver(at, pe, src.index());
                }
                PacketKind::ReadResp => self.on_response_deliver(at, pe, src.index()),
                _ => {}
            },
            TraceKind::DmaService {
                pkt: PacketKind::ReadBlockReq,
                words,
            } => {
                // The DMA sized the block: the most recent service entry
                // on this server is the one being processed.
                if let Some(e) = self.pending_service.entry(pe).or_default().back_mut() {
                    e.remaining = u64::from(words).max(1);
                }
            }
            TraceKind::Dispatch {
                pkt: PacketKind::ReadResp,
            } => {
                self.last_dispatch.insert(pe, at);
            }
            TraceKind::ThreadResume { frame } => self.on_resume(at, pe, frame.0),
            TraceKind::FaultInjected { pkt, dst, fault } => {
                self.on_fault(pe, dst.index(), pkt, fault);
            }
            _ => {}
        }
    }

    fn on_request_inject(&mut self, at: u64, pe: usize, dst: usize, pkt: PacketKind, hops: u32) {
        let lane = self.req_inflight.entry((pe, dst)).or_default();
        let waiting = self.await_send.entry(pe).or_default();
        let want_block = pkt == PacketKind::ReadBlockReq;
        match waiting.front() {
            Some(SendSlot::Single { frame }) if !want_block => {
                let frame = *frame;
                waiting.pop_front();
                if let Some(c) = self.open.get_mut(&(pe, frame)) {
                    c.inject = Some(at);
                    c.hops = u64::from(hops);
                }
                lane.push_back(ReqEntry::Single { frame });
            }
            Some(SendSlot::Block) if want_block => {
                waiting.pop_front();
                lane.push_back(ReqEntry::Block);
            }
            _ => {
                // No suspended thread waiting on a send: a fault-tolerance
                // retry (or an ordering we do not model). Thread an opaque
                // entry so the server-side FIFO stays aligned.
                self.counters.retry_sends += 1;
                lane.push_back(ReqEntry::Opaque);
            }
        }
    }

    fn on_request_deliver(&mut self, at: u64, server: usize, src: usize) {
        let entry = self
            .req_inflight
            .entry((src, server))
            .or_default()
            .pop_front();
        let Some(entry) = entry else {
            self.counters.unmatched += 1;
            return;
        };
        if let ReqEntry::Single { frame } = entry {
            if let Some(c) = self.open.get_mut(&(src, frame)) {
                c.req_deliver = Some(at);
            }
        }
        self.pending_service
            .entry(server)
            .or_default()
            .push_back(ServiceEntry {
                dst: src,
                remaining: 1,
                kind: entry,
            });
    }

    fn on_response_inject(&mut self, at: u64, server: usize, dst: usize) {
        let queue = self.pending_service.entry(server).or_default();
        let Some(front) = queue.front_mut() else {
            self.counters.unmatched += 1;
            return;
        };
        if front.dst != dst {
            // Responses of one request leave contiguously, so a
            // destination mismatch means an earlier pairing broke.
            self.counters.unmatched += 1;
            return;
        }
        let resp = match front.kind {
            ReqEntry::Single { frame } => {
                if let Some(c) = self.open.get_mut(&(dst, frame)) {
                    c.resp_inject = Some(at);
                }
                RespEntry::Single { frame }
            }
            ReqEntry::Block => RespEntry::BlockWord,
            ReqEntry::Opaque => RespEntry::Opaque,
        };
        front.remaining = front.remaining.saturating_sub(1);
        if front.remaining == 0 {
            queue.pop_front();
        }
        self.resp_inflight
            .entry((server, dst))
            .or_default()
            .push_back(resp);
    }

    fn on_response_deliver(&mut self, at: u64, pe: usize, server: usize) {
        match self
            .resp_inflight
            .entry((server, pe))
            .or_default()
            .pop_front()
        {
            Some(RespEntry::Single { frame }) => {
                if let Some(c) = self.open.get_mut(&(pe, frame)) {
                    c.resp_deliver = Some(at);
                }
            }
            Some(RespEntry::BlockWord | RespEntry::Opaque) => {}
            None => self.counters.unmatched += 1,
        }
    }

    fn on_resume(&mut self, at: u64, pe: usize, frame: u16) {
        if let Some(c) = self.open.remove(&(pe, frame)) {
            self.total.record(at.saturating_sub(c.suspend));
            let (Some(inject), Some(req_deliver), Some(resp_inject), Some(resp_deliver)) =
                (c.inject, c.req_deliver, c.resp_inject, c.resp_deliver)
            else {
                self.counters.unmatched += 1;
                return;
            };
            let dispatch = self.last_dispatch.get(&pe).copied().unwrap_or(at);
            // Saturating cumulative max: each phase non-negative, phases
            // sum exactly to the observed suspend→resume latency.
            let mut marks = [inject, req_deliver, resp_inject, resp_deliver, dispatch, at];
            let mut hi = c.suspend;
            for m in &mut marks {
                hi = hi.max(*m);
                *m = hi;
            }
            let mut prev = c.suspend;
            for (i, m) in marks.iter().enumerate() {
                self.phases[i].record(m - prev);
                prev = *m;
            }
            self.hops_sum += c.hops;
            self.counters.matched += 1;
        } else if let Some(t0) = self.block_open.remove(&(pe, frame)) {
            self.block_total.record(at.saturating_sub(t0));
            self.counters.block_matched += 1;
        }
        // Resumes of barrier/yield/sequence waits carry frames that were
        // never opened here; they fall through silently by design.
    }

    fn on_fault(&mut self, src: usize, dst: usize, pkt: PacketKind, fault: FaultKind) {
        let read_req = matches!(pkt, PacketKind::ReadReq | PacketKind::ReadBlockReq);
        let read_resp = pkt == PacketKind::ReadResp;
        match fault {
            // The packet just injected never arrives: un-thread it.
            FaultKind::Drop if read_req => {
                self.req_inflight.entry((src, dst)).or_default().pop_back();
            }
            FaultKind::Drop if read_resp => {
                self.resp_inflight.entry((src, dst)).or_default().pop_back();
            }
            // A copy arrives later: thread an opaque twin behind it.
            FaultKind::Dup if read_req => {
                self.req_inflight
                    .entry((src, dst))
                    .or_default()
                    .push_back(ReqEntry::Opaque);
            }
            FaultKind::Dup if read_resp => {
                self.resp_inflight
                    .entry((src, dst))
                    .or_default()
                    .push_back(RespEntry::Opaque);
            }
            // Delay reorders nothing on a FIFO lane model; timing shifts
            // are captured by the marks themselves.
            _ => {}
        }
    }

    /// Phase index with the largest total waiting time, or `None` when no
    /// read completed.
    pub fn dominant_phase(&self) -> Option<usize> {
        if self.counters.matched == 0 {
            return None;
        }
        let mut best = 0;
        for i in 1..NUM_PHASES {
            if self.phases[i].sum() > self.phases[best].sum() {
                best = i;
            }
        }
        Some(best)
    }

    /// Mean network hops of matched single-word reads, in thousandths.
    pub fn mean_hops_milli(&self) -> u64 {
        (self.hops_sum * 1000)
            .checked_div(self.counters.matched)
            .unwrap_or(0)
    }
}
