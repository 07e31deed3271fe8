//! The metrics registry: per-PE counters, gauges, and fixed-bucket
//! histograms folded from the `emx-trace/2` event stream.
//!
//! Counters are exact for every event observed (the registry sits in front
//! of the bounded event log, not behind it). Histograms use fixed,
//! compile-time bucket bounds so two runs — or two machines — produce
//! structurally identical, directly comparable distributions, and the
//! canonical text ([`MetricsRegistry::canonical_text`], format
//! `emx-metrics/2`) is byte-deterministic and digest-stamped for
//! provenance sidecars.

use emx_core::{Cycle, FaultKind, FrameId, PeId, SuspendCause, TraceKind};
use emx_stats::{Digest128, Table};

/// Version tag of the metrics canonical-text format. Bump when fields,
/// ordering, or bucket bounds change (`docs/OBSERVABILITY.md`).
///
/// `emx-metrics/2` added the per-PE `fault[...]` counters folded from
/// `fault-injected` events.
pub const METRICS_SCHEMA: &str = "emx-metrics/2";

/// Bucket bounds (upper-inclusive, cycles) of the read-latency histogram:
/// suspend-on-read to resume-on-response, the paper's Table 2 quantity.
const READ_LATENCY_BOUNDS: &[u64] = &[8, 16, 32, 64, 128, 256, 512, 1024, 4096];

/// Bucket bounds (upper-inclusive, packets) of the queue-depth histogram,
/// sampled at every enqueue.
const QUEUE_DEPTH_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128];

/// Bucket bounds (upper-inclusive, cycles) of the run-length histogram:
/// dispatch to suspend/retire, the R-cycle length of Figure 5.
const RUN_LENGTH_BOUNDS: &[u64] = &[4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// A fixed-bucket histogram over `u64` samples.
///
/// `bounds` are upper-inclusive bucket edges; one extra overflow bucket
/// catches everything above the last edge. Count, sum and max are kept
/// exactly alongside.
#[derive(Debug, Clone)]
pub struct Histogram {
    name: &'static str,
    bounds: &'static [u64],
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    fn new(name: &'static str, bounds: &'static [u64]) -> Self {
        Histogram {
            name,
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// An empty histogram over caller-supplied upper-inclusive bucket
    /// bounds (plus the implicit overflow bucket). Bounds must be static
    /// so the structure stays comparable across runs; `emx-profile` uses
    /// this for its latency-phase histograms.
    pub fn with_bounds(name: &'static str, bounds: &'static [u64]) -> Self {
        Histogram::new(name, bounds)
    }

    /// The canonical `hist ...` line of this histogram, as embedded in
    /// [`MetricsRegistry::canonical_text`] and the `emx-profile/1` report.
    pub fn canonical_text_line(&self) -> String {
        self.canonical_line()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Histogram name (stable, used in the canonical text).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Buckets as `(label, count)` pairs, lowest bound first, overflow
    /// bucket (`>last`) last.
    pub fn buckets(&self) -> Vec<(String, u64)> {
        let mut out = Vec::with_capacity(self.counts.len());
        for (i, &c) in self.counts.iter().enumerate() {
            let label = match self.bounds.get(i) {
                Some(b) => format!("<={b}"),
                None => format!(">{}", self.bounds[self.bounds.len() - 1]),
            };
            out.push((label, c));
        }
        out
    }

    fn canonical_line(&self) -> String {
        let mut s = format!(
            "hist {} count={} sum={} max={} buckets=",
            self.name, self.count, self.sum, self.max
        );
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&c.to_string());
        }
        s
    }
}

/// Exact per-processor counters and gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeMetrics {
    /// Packets popped and acted on by the EXU.
    pub dispatches: u64,
    /// Packets injected from this processor's OBU.
    pub sends: u64,
    /// Threads instantiated here.
    pub spawns: u64,
    /// Suspended threads switched back onto the EXU.
    pub resumes: u64,
    /// Threads that left the EXU mid-R-cycle, by any cause.
    pub suspends: u64,
    /// Suspends by cause, indexed `[remote-read, block-read, barrier,
    /// thread-sync, yield]`.
    pub suspends_by_cause: [u64; 5],
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
    /// `[drop, dup, delay]` (zero on fault-free networks).
    pub faults_by_kind: [u64; 3],
}

/// Per-PE burst/read trackers, kept outside [`PeMetrics`] so the public
/// counters stay plain data.
#[derive(Debug, Clone, Default)]
struct PeTrack {
    /// Start of the burst currently on the EXU (last dispatch).
    burst_start: Option<Cycle>,
    /// Outstanding split-phase reads: (frame, suspend time). FIFO-scanned;
    /// deterministic because the event stream is.
    reads: Vec<(FrameId, Cycle)>,
}

/// Counters, gauges and histograms aggregated from a run's event stream.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    pes: Vec<PeMetrics>,
    tracks: Vec<PeTrack>,
    read_latency: Histogram,
    queue_depth: Histogram,
    run_length: Histogram,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            pes: Vec::new(),
            tracks: Vec::new(),
            read_latency: Histogram::new("read_latency_cycles", READ_LATENCY_BOUNDS),
            queue_depth: Histogram::new("queue_depth_pkts", QUEUE_DEPTH_BOUNDS),
            run_length: Histogram::new("run_length_cycles", RUN_LENGTH_BOUNDS),
        }
    }

    fn ensure_pe(&mut self, pe: PeId) -> usize {
        let i = pe.index();
        if i >= self.pes.len() {
            self.pes.resize_with(i + 1, PeMetrics::default);
            self.tracks.resize_with(i + 1, PeTrack::default);
        }
        i
    }

    /// Fold one event into the registry.
    pub fn observe(&mut self, at: Cycle, pe: PeId, kind: &TraceKind) {
        let i = self.ensure_pe(pe);
        let m = &mut self.pes[i];
        let tr = &mut self.tracks[i];
        match *kind {
            TraceKind::Dispatch { .. } => {
                m.dispatches += 1;
                tr.burst_start = Some(at);
            }
            TraceKind::Send { .. } => m.sends += 1,
            TraceKind::ThreadSpawn { .. } => m.spawns += 1,
            TraceKind::ThreadResume { frame } => {
                m.resumes += 1;
                if let Some(pos) = tr.reads.iter().position(|&(f, _)| f == frame) {
                    let (_, t0) = tr.reads.remove(pos);
                    self.read_latency.record((at - t0).get());
                }
            }
            TraceKind::ThreadSuspend { frame, cause } => {
                m.suspends += 1;
                m.suspends_by_cause[cause as usize] += 1;
                if matches!(cause, SuspendCause::RemoteRead | SuspendCause::BlockRead) {
                    tr.reads.push((frame, at));
                }
                if let Some(s) = tr.burst_start.take() {
                    self.run_length.record((at - s).get());
                }
            }
            TraceKind::ThreadRetire { .. } => {
                m.retires += 1;
                if let Some(s) = tr.burst_start.take() {
                    self.run_length.record((at - s).get());
                }
            }
            TraceKind::Enqueue { spilled, depth, .. } => {
                m.enqueues += 1;
                if spilled {
                    m.spills += 1;
                }
                let d = depth as u64;
                m.max_queue_depth = m.max_queue_depth.max(d);
                self.queue_depth.record(d);
            }
            TraceKind::Unspill { .. } => m.unspills += 1,
            TraceKind::DmaService { words, .. } => {
                m.dma_services += 1;
                m.dma_words += u64::from(words);
            }
            TraceKind::NetInject { hops, .. } => {
                m.net_injects += 1;
                m.net_hops += u64::from(hops);
            }
            TraceKind::NetDeliver { .. } => m.net_delivers += 1,
            TraceKind::DispatchEnd => {
                // The burst's cycle charges are committed; any suspend or
                // retire inside the burst already recorded its run length
                // (those events arrive causally before the end mark), so
                // only clear the tracker — never record here.
                tr.burst_start = None;
            }
            TraceKind::FaultInjected { fault, .. } => {
                m.faults_by_kind[fault as usize] += 1;
            }
        }
    }

    /// Metrics of one processor, if it ever emitted an event.
    pub fn pe(&self, pe: PeId) -> Option<&PeMetrics> {
        self.pes.get(pe.index())
    }

    /// Per-processor metrics, PE 0 first.
    pub fn per_pe(&self) -> &[PeMetrics] {
        &self.pes
    }

    /// The read-latency histogram (suspend-on-read to resume, cycles).
    pub fn read_latency(&self) -> &Histogram {
        &self.read_latency
    }

    /// The queue-depth histogram (sampled at every enqueue, packets).
    pub fn queue_depth(&self) -> &Histogram {
        &self.queue_depth
    }

    /// The run-length histogram (dispatch to suspend/retire, cycles).
    pub fn run_length(&self) -> &Histogram {
        &self.run_length
    }

    /// Canonical text: versioned, line-oriented, byte-deterministic.
    /// Format (`emx-metrics/2`): one `pe` line per processor with every
    /// counter as `key=value`, then one `hist` line per histogram.
    pub fn canonical_text(&self) -> String {
        let mut s = String::with_capacity(256 + 160 * self.pes.len());
        s.push_str(METRICS_SCHEMA);
        s.push('\n');
        s.push_str(&format!("pes {}\n", self.pes.len()));
        for (i, m) in self.pes.iter().enumerate() {
            s.push_str(&format!(
                "pe {i} dispatches={} sends={} spawns={} resumes={} suspends={} \
                 retires={} enqueues={} spills={} unspills={} dma_services={} \
                 dma_words={} net_injects={} net_hops={} net_delivers={} \
                 max_queue_depth={}",
                m.dispatches,
                m.sends,
                m.spawns,
                m.resumes,
                m.suspends,
                m.retires,
                m.enqueues,
                m.spills,
                m.unspills,
                m.dma_services,
                m.dma_words,
                m.net_injects,
                m.net_hops,
                m.net_delivers,
                m.max_queue_depth,
            ));
            for (cause, n) in SuspendCause::ALL.iter().zip(m.suspends_by_cause) {
                s.push_str(&format!(" suspend[{}]={n}", cause.label()));
            }
            for (fault, n) in FaultKind::ALL.iter().zip(m.faults_by_kind) {
                s.push_str(&format!(" fault[{}]={n}", fault.label()));
            }
            s.push('\n');
        }
        for h in [&self.read_latency, &self.queue_depth, &self.run_length] {
            s.push_str(&h.canonical_line());
            s.push('\n');
        }
        s
    }

    /// 128-bit hex digest of [`canonical_text`](Self::canonical_text).
    pub fn digest(&self) -> String {
        let mut d = Digest128::new();
        d.write_str(&self.canonical_text());
        d.hex()
    }

    /// Render the per-PE counters as an aligned table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new([
            "pe", "disp", "sends", "spawn", "resume", "susp", "retire", "enq", "spill", "unspill",
            "dma", "inject", "deliver", "maxq",
        ]);
        for (i, m) in self.pes.iter().enumerate() {
            t.row([
                format!("PE{i}"),
                m.dispatches.to_string(),
                m.sends.to_string(),
                m.spawns.to_string(),
                m.resumes.to_string(),
                m.suspends.to_string(),
                m.retires.to_string(),
                m.enqueues.to_string(),
                m.spills.to_string(),
                m.unspills.to_string(),
                m.dma_services.to_string(),
                m.net_injects.to_string(),
                m.net_delivers.to_string(),
                m.max_queue_depth.to_string(),
            ]);
        }
        t
    }

    /// Render the three histograms as an aligned table.
    pub fn histograms_table(&self) -> Table {
        let mut t = Table::new(["histogram", "bucket", "count"]);
        for h in [&self.read_latency, &self.queue_depth, &self.run_length] {
            for (label, c) in h.buckets() {
                t.row([h.name().to_string(), label, c.to_string()]);
            }
            t.row([
                h.name().to_string(),
                "total".into(),
                format!("{} (mean {:.1}, max {})", h.count(), h.mean(), h.max()),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emx_core::{PacketKind, Priority};

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new("t", &[4, 8]);
        for v in [1, 4, 5, 8, 9, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 127);
        assert_eq!(h.max(), 100);
        let b = h.buckets();
        assert_eq!(b[0], ("<=4".to_string(), 2));
        assert_eq!(b[1], ("<=8".to_string(), 2));
        assert_eq!(b[2], (">8".to_string(), 2));
    }

    #[test]
    fn read_latency_pairs_suspend_with_resume() {
        let mut m = MetricsRegistry::new();
        let pe = PeId(0);
        m.observe(
            Cycle::new(10),
            pe,
            &TraceKind::ThreadSuspend {
                frame: FrameId(2),
                cause: SuspendCause::RemoteRead,
            },
        );
        // Unrelated frame resuming first must not steal the sample.
        m.observe(
            Cycle::new(15),
            pe,
            &TraceKind::ThreadResume { frame: FrameId(7) },
        );
        m.observe(
            Cycle::new(74),
            pe,
            &TraceKind::ThreadResume { frame: FrameId(2) },
        );
        assert_eq!(m.read_latency().count(), 1);
        assert_eq!(m.read_latency().sum(), 64);
        // Barrier suspends are not reads.
        m.observe(
            Cycle::new(80),
            pe,
            &TraceKind::ThreadSuspend {
                frame: FrameId(3),
                cause: SuspendCause::Barrier,
            },
        );
        m.observe(
            Cycle::new(99),
            pe,
            &TraceKind::ThreadResume { frame: FrameId(3) },
        );
        assert_eq!(m.read_latency().count(), 1);
    }

    #[test]
    fn canonical_text_is_versioned_and_deterministic() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        for m in [&mut a, &mut b] {
            m.observe(
                Cycle::new(1),
                PeId(1),
                &TraceKind::Enqueue {
                    pkt: PacketKind::Spawn,
                    priority: Priority::Low,
                    spilled: true,
                    depth: 3,
                },
            );
        }
        assert!(a.canonical_text().starts_with(METRICS_SCHEMA));
        assert_eq!(a.canonical_text(), b.canonical_text());
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.pe(PeId(1)).unwrap().spills, 1);
        assert_eq!(a.pe(PeId(1)).unwrap().max_queue_depth, 3);
        // Any observation changes the digest.
        b.observe(
            Cycle::new(2),
            PeId(0),
            &TraceKind::Dispatch {
                pkt: PacketKind::Spawn,
            },
        );
        assert_ne!(a.digest(), b.digest());
    }
}
