//! Outside-in layer costs.
//!
//! The traced run attaches a [`Recorder`] probe — the only window the
//! simulator offers from outside — which keeps in memory just what each
//! replay needs: the `(at, src, dst)` of every network injection, each
//! PE's queue pushes and pops, and (only where the workload carries a
//! live trace digest) the full event stream. After the run, each record
//! is replayed through the owning layer's public API — `Network::route`,
//! `PacketQueue::push`/`pop`, `DigestProbe` — on a fresh instance, and the
//! replay must reproduce what the live run reported before its time is
//! trusted as that layer's cost.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use emx::core::{
    Cycle, GlobalAddr, MachineConfig, Packet, PeId, Priority, Probe, SimError, TraceEvent,
    TraceKind,
};
use emx::net::build_network;
use emx::obs::DigestProbe;
use emx::proc::{PacketQueue, Pushed};
use emx::stats::RunReport;
use emx::sweep::RunSpec;

use crate::workloads::run_observed;

/// The recorder reads the clock once every this many events: often
/// enough to place the last event within a few microseconds, rarely
/// enough to keep clock reads out of the cost being measured.
const CLOCK_EVERY: u64 = 64;

/// One network injection.
#[derive(Debug, Clone, Copy)]
pub struct Route {
    pub at: u64,
    pub src: u16,
    pub dst: u16,
}

/// One packet-queue operation on one PE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueueOp {
    /// A push, with the class it joined and what the live queue reported
    /// after it.
    Push {
        pe: u16,
        high: bool,
        spilled: bool,
        depth: u32,
    },
    /// A dispatch, which popped the queue.
    Pop { pe: u16 },
}

/// What a recorder kept from one run.
#[derive(Debug, Default)]
pub struct Capture {
    pub routes: Vec<Route>,
    pub queue: Vec<QueueOp>,
    /// The full stream, kept only for the digest replay.
    pub events: Vec<TraceEvent>,
    /// Events the probe saw.
    pub count: u64,
    pub first: Option<Instant>,
    pub last: Option<Instant>,
}

/// The recording probe. The machine owns its probe and drops it when the
/// run's entry point returns; the drop hands the capture back.
struct Recorder {
    cap: Capture,
    keep_events: bool,
    live: Option<DigestProbe>,
    out: Arc<Mutex<Option<Capture>>>,
}

impl Probe for Recorder {
    fn on(&mut self, at: Cycle, pe: PeId, kind: TraceKind) {
        if let Some(live) = self.live.as_mut() {
            live.on(at, pe, kind);
        }
        let c = &mut self.cap;
        if c.count % CLOCK_EVERY == 0 {
            let now = Instant::now();
            c.first.get_or_insert(now);
            c.last = Some(now);
        }
        c.count += 1;
        match kind {
            TraceKind::NetInject { dst, .. } => c.routes.push(Route {
                at: at.get(),
                src: pe.0,
                dst: dst.0,
            }),
            TraceKind::Enqueue {
                priority,
                spilled,
                depth,
                ..
            } => c.queue.push(QueueOp::Push {
                pe: pe.0,
                high: priority == Priority::High,
                spilled,
                depth: u32::try_from(depth).unwrap_or(u32::MAX),
            }),
            TraceKind::Dispatch { .. } => c.queue.push(QueueOp::Pop { pe: pe.0 }),
            _ => {}
        }
        if self.keep_events {
            c.events.push(TraceEvent { at, pe, kind });
        }
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        if let Ok(mut slot) = self.out.lock() {
            *slot = Some(std::mem::take(&mut self.cap));
        }
    }
}

/// One recorded run.
pub struct Captured {
    pub cap: Capture,
    pub report: RunReport,
    /// The live trace digest, when the workload carries one.
    pub live_digest: Option<String>,
    /// When the workload's entry point was called and when it returned.
    pub called: Instant,
    pub returned: Instant,
}

impl Captured {
    /// Call to first event, first to last event, and last event to
    /// return, in milliseconds (the build, run and finish spans).
    pub fn spans_ms(&self) -> (f64, f64, f64) {
        let first = self.cap.first.unwrap_or(self.returned);
        let last = self.cap.last.unwrap_or(first);
        let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
        (
            ms(self.called, first),
            ms(first, last),
            ms(last, self.returned),
        )
    }
}

/// Run `spec` on `cfg` with a recorder attached. `live_digest` also
/// attaches the workload's own `DigestProbe` behind the recorder and
/// keeps the full stream for the digest replay.
pub fn capture(
    spec: &RunSpec,
    cfg: &MachineConfig,
    live_digest: bool,
) -> Result<Captured, SimError> {
    let out = Arc::new(Mutex::new(None));
    let (live, handle) = live_digest.then(DigestProbe::new).unzip();
    let rec = Recorder {
        cap: Capture::default(),
        keep_events: live_digest,
        live,
        out: Arc::clone(&out),
    };
    let called = Instant::now();
    let report = run_observed(spec, cfg, |m| m.attach_probe(Box::new(rec)))?;
    let returned = Instant::now();
    let cap = out
        .lock()
        .expect("recorder slot is never poisoned")
        .take()
        .unwrap_or_default();
    Ok(Captured {
        cap,
        report,
        live_digest: handle.map(|h| h.hex()),
        called,
        returned,
    })
}

/// A replay's cost and whether it reproduced the live run.
#[derive(Debug, Clone, Default)]
pub struct Replayed {
    pub ms: f64,
    pub ops: u64,
    /// Why the replay does not match the live run; empty when it does.
    pub mismatch: String,
}

/// Replay every injection through a fresh network of the run's model.
/// Matches when the replay's contention and packet count equal the live
/// report's.
pub fn replay_routes(
    cfg: &MachineConfig,
    routes: &[Route],
    report: &RunReport,
) -> Result<Replayed, SimError> {
    let mut net = build_network(&cfg.net, cfg.num_pes)?;
    let t = Instant::now();
    for r in routes {
        black_box(net.route(Cycle::new(r.at), PeId(r.src), PeId(r.dst)));
    }
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let s = net.stats();
    let mut mismatch = String::new();
    if s.contention_wait != report.net_contention || s.packets != report.net_packets {
        mismatch = format!(
            "routes replayed to contention {} over {} packets, live run had {} over {}",
            s.contention_wait.get(),
            s.packets,
            report.net_contention.get(),
            report.net_packets
        );
    }
    Ok(Replayed {
        ms,
        ops: routes.len() as u64,
        mismatch,
    })
}

/// Replay each PE's pushes and pops through fresh packet queues of the
/// run's on-chip capacity. Matches when every push lands where the live
/// queue said (spilled or not, same depth after it), every pop finds a
/// packet, and the spill total equals the live report's.
pub fn replay_queue(
    cfg: &MachineConfig,
    ops: &[QueueOp],
    report: &RunReport,
) -> Result<Replayed, SimError> {
    let mut queues: Vec<PacketQueue> = (0..cfg.num_pes)
        .map(|_| PacketQueue::new(cfg.ibu_fifo_capacity))
        .collect();
    let pkt = Packet::write(PeId(0), GlobalAddr::new(PeId(0), 0)?, 0);
    let mut bad = 0u64;
    let t = Instant::now();
    for op in ops {
        match *op {
            QueueOp::Push {
                pe,
                high,
                spilled,
                depth,
            } => {
                let q = &mut queues[usize::from(pe)];
                let prio = if high { Priority::High } else { Priority::Low };
                let pushed = q.push(pkt.with_priority(prio));
                bad +=
                    u64::from((pushed == Pushed::Spilled) != spilled || q.len() != depth as usize);
            }
            QueueOp::Pop { pe } => {
                bad += u64::from(black_box(queues[usize::from(pe)].pop()).is_none());
            }
        }
    }
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let spills: u64 = queues.iter().map(|q| q.spills).sum();
    let live_spills: u64 = report.per_pe.iter().map(|p| p.ibu_spills).sum();
    let mut mismatch = String::new();
    if bad > 0 || spills != live_spills {
        mismatch = format!(
            "{bad} queue operations diverged; {spills} spills replayed, live run had {live_spills}"
        );
    }
    Ok(Replayed {
        ms,
        ops: ops.len() as u64,
        mismatch,
    })
}

/// Replay the full stream through a fresh `DigestProbe`. Matches when the
/// replayed digest equals the live one.
pub fn replay_digest(events: &[TraceEvent], live: &str) -> Replayed {
    let (mut probe, handle) = DigestProbe::new();
    let t = Instant::now();
    for e in events {
        probe.on(e.at, e.pe, e.kind);
    }
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let replayed = handle.hex();
    let mismatch = if replayed == live {
        String::new()
    } else {
        format!("digest replayed to {replayed}, live run had {live}")
    };
    Replayed {
        ms,
        ops: events.len() as u64,
        mismatch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emx::core::NetModelKind;
    use emx::sweep::Workload as Kernel;

    fn spec(kernel: Kernel, net: NetModelKind) -> (RunSpec, MachineConfig) {
        let mut s = RunSpec::new(kernel, 4, 64, 2);
        s.net_model = net;
        let cfg = s.machine_config();
        (s, cfg)
    }

    #[test]
    fn route_replay_reproduces_contention_on_omega_and_mesh() {
        for net in [NetModelKind::CircularOmega, NetModelKind::Mesh2D] {
            let (s, cfg) = spec(Kernel::Sort, net);
            let run = capture(&s, &cfg, false).expect("captured run");
            assert!(
                run.report.net_contention.get() > 0,
                "{net:?}: no contention to check"
            );
            assert_eq!(run.cap.routes.len() as u64, run.report.net_packets);
            let r = replay_routes(&cfg, &run.cap.routes, &run.report).unwrap();
            assert_eq!(r.mismatch, "", "{net:?}");
            // Teeth: losing one injection must be noticed.
            let short = &run.cap.routes[1..];
            let r = replay_routes(&cfg, short, &run.report).unwrap();
            assert_ne!(r.mismatch, "", "{net:?}");
        }
    }

    #[test]
    fn queue_replay_reproduces_every_depth_and_the_spill_count() {
        let (s, mut cfg) = spec(Kernel::Sort, NetModelKind::CircularOmega);
        // A two-packet on-chip FIFO forces spills at this size.
        cfg.ibu_fifo_capacity = 2;
        let run = capture(&s, &cfg, false).expect("captured run");
        let spills: u64 = run.report.per_pe.iter().map(|p| p.ibu_spills).sum();
        assert!(spills > 0, "the check needs spills to compare");
        let r = replay_queue(&cfg, &run.cap.queue, &run.report).unwrap();
        assert_eq!(r.mismatch, "");
        // Teeth: a single wrong depth must be noticed.
        let mut ops = run.cap.queue.clone();
        let i = ops
            .iter()
            .position(|o| matches!(o, QueueOp::Push { .. }))
            .unwrap();
        if let QueueOp::Push { depth, .. } = &mut ops[i] {
            *depth += 1;
        }
        assert_ne!(replay_queue(&cfg, &ops, &run.report).unwrap().mismatch, "");
    }

    #[test]
    fn digest_replay_reproduces_the_live_digest() {
        let (mut s, cfg) = spec(Kernel::Fft, NetModelKind::CircularOmega);
        s.comm_only = false;
        let run = capture(&s, &cfg, true).expect("captured run");
        let live = run.live_digest.as_deref().expect("live digest");
        assert_eq!(run.cap.events.len() as u64, run.cap.count);
        assert_eq!(replay_digest(&run.cap.events, live).mismatch, "");
        assert_ne!(replay_digest(&run.cap.events[1..], live).mismatch, "");
    }

    #[test]
    fn capture_leaves_the_simulation_unchanged() {
        let (s, cfg) = spec(Kernel::Bfs, NetModelKind::Mesh2D);
        let run = capture(&s, &cfg, false).expect("captured run");
        assert_eq!(run.report, s.execute().expect("plain run"));
        let (build, span, finish) = run.spans_ms();
        assert!(build >= 0.0 && span >= 0.0 && finish >= 0.0);
        assert!(run.cap.count > 0 && run.cap.first.is_some());
    }
}
