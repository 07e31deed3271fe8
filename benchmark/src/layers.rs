//! The traced run: per-layer metrics, one crate per layer, all measured
//! from outside through public calls.
//!
//! Order matters. Untraced reps first give the baseline the overhead and
//! per-event costs are divided by. One rep with `emx-hostprof` on (and no
//! probe, so the machine allocates exactly as in the timed run) gives the
//! deterministic counters; that snapshot is taken before any replay,
//! because the replays bump the same counters. Then the recorded run, and
//! last the replays, with `emx-hostprof` off again.

use std::path::Path;

use emx::core::SimError;
use emx::hostprof::{self, Host, Sim, Wall};
use emx::stats::report_digest;

use crate::measure::{timed_reps, warm_up, Tally};
use crate::replay::{capture, replay_digest, replay_queue, replay_routes, Replayed};
use crate::stats::{percentile, ratio, sorted};
use crate::workloads::Workload;

/// Untimed reps before the baseline reps.
const WARMUP_REPS: usize = 1;

/// Baseline reps the traced run makes even when its time runs out.
const MIN_BASELINE_REPS: usize = 3;

/// The per-layer metrics of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    pub events: f64,
    pub events_per_cycle: f64,
    pub ns_per_event: f64,
    pub parallel_windows: f64,
    pub run_ms: f64,
    pub residual_ms: f64,
    pub routes: f64,
    pub route_ns_per_call: f64,
    pub route_ms: f64,
    pub route_share: f64,
    pub queue_ops: f64,
    pub queue_spills: f64,
    pub dma_services: f64,
    pub queue_ns_per_op: f64,
    pub queue_ms: f64,
    pub trace_events: f64,
    pub digest_ns_per_event: f64,
    pub digest_ms: f64,
    pub allocs_per_event: f64,
    pub bytes_per_event: f64,
    pub build_ms: f64,
    pub finish_ms: f64,
    pub cold_points_per_s: f64,
    pub warm_points_per_s: f64,
    pub cache_hits: f64,
    pub worker_busy_frac: f64,
    pub overhead_frac: f64,
}

impl Layers {
    /// Name and value of every per-layer metric, in catalog order.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("runtime.events", self.events),
            ("runtime.events_per_cycle", self.events_per_cycle),
            ("runtime.ns_per_event", self.ns_per_event),
            ("runtime.parallel_windows", self.parallel_windows),
            ("runtime.run_ms", self.run_ms),
            ("runtime.residual_ms", self.residual_ms),
            ("net.routes", self.routes),
            ("net.route_ns_per_call", self.route_ns_per_call),
            ("net.route_ms", self.route_ms),
            ("net.route_share", self.route_share),
            ("proc.queue_ops", self.queue_ops),
            ("proc.queue_spills", self.queue_spills),
            ("proc.dma_services", self.dma_services),
            ("proc.queue_ns_per_op", self.queue_ns_per_op),
            ("proc.queue_ms", self.queue_ms),
            ("obs.trace_events", self.trace_events),
            ("obs.digest_ns_per_event", self.digest_ns_per_event),
            ("obs.digest_ms", self.digest_ms),
            ("alloc.per_event", self.allocs_per_event),
            ("alloc.bytes_per_event", self.bytes_per_event),
            ("workloads.build_ms", self.build_ms),
            ("workloads.finish_ms", self.finish_ms),
            ("sweep.cold_points_per_s", self.cold_points_per_s),
            ("sweep.warm_points_per_s", self.warm_points_per_s),
            ("sweep.cache_hits", self.cache_hits),
            ("sweep.worker_busy_frac", self.worker_busy_frac),
            ("trace.overhead_frac", self.overhead_frac),
        ]
    }
}

/// One replay-fidelity check: `None` when the workload has nothing to
/// check (no live digest), else whether every replay matched.
pub struct Check {
    pub name: &'static str,
    pub passed: Option<bool>,
}

/// A finished traced run.
pub struct Traced {
    pub layers: Layers,
    pub checks: Vec<Check>,
    pub baseline_reps: usize,
    pub tally: Tally,
}

/// One layer's replay totals over every recorded run of a workload.
#[derive(Default)]
struct Total {
    ms: f64,
    ops: u64,
    replays: usize,
    mismatches: Vec<String>,
}

impl Total {
    fn add(&mut self, replayed: Result<Replayed, SimError>) {
        self.replays += 1;
        match replayed {
            Ok(r) => {
                self.ms += r.ms;
                self.ops += r.ops;
                if !r.mismatch.is_empty() {
                    self.mismatches.push(r.mismatch);
                }
            }
            Err(e) => self.mismatches.push(e.to_string()),
        }
    }

    /// The check this layer's replays amount to, reporting any mismatch
    /// into `tally`.
    fn check(&self, name: &'static str, tally: &mut Tally) -> Check {
        for e in &self.mismatches {
            tally.errors.push(format!("{name}: {e}"));
        }
        Check {
            name,
            passed: (self.replays > 0).then_some(self.mismatches.is_empty()),
        }
    }
}

/// The traced run of one workload. `seconds` bounds the baseline reps.
pub fn run(w: &Workload, seconds: f64, scratch: &Path) -> Traced {
    let mut tally = Tally::default();
    let mut l = Layers::default();

    // Baseline: untraced, hostprof off, exactly like the timed run.
    hostprof::set_enabled(false);
    warm_up(w, scratch, WARMUP_REPS, &mut tally);
    let (times, cycles) = timed_reps(
        w,
        scratch,
        seconds / 2.0,
        MIN_BASELINE_REPS,
        &mut tally,
        |_| {},
    );
    let p50 = percentile(&sorted(&times), 50);

    // Counters: one rep (for a sweep, one cold and one warm pass) with
    // hostprof on and no probe attached.
    hostprof::set_enabled(true);
    hostprof::reset();
    let (counted, passes) = match w.sweep_passes(scratch) {
        Some((rep, passes)) => (rep, Some(passes)),
        None => (w.rep(scratch), None),
    };
    let snap = hostprof::snapshot();
    hostprof::set_enabled(false);
    tally.add(&counted);

    let sim = |c: Sim| snap.sim[c as usize] as f64;
    l.events = sim(Sim::CalPops);
    l.events_per_cycle = ratio(l.events, cycles as f64);
    l.ns_per_event = ratio(p50 * 1e9, l.events);
    l.parallel_windows = snap.host[Host::DriverWindows as usize] as f64;
    l.queue_ops = sim(Sim::QueuePushes) + sim(Sim::QueuePops);
    l.queue_spills = sim(Sim::QueueSpills);
    l.dma_services = sim(Sim::DmaServices);
    l.allocs_per_event = ratio(snap.wall[Wall::AllocAllocs as usize] as f64, l.events);
    l.bytes_per_event = ratio(snap.wall[Wall::AllocBytes as usize] as f64, l.events);
    if let Some(p) = &passes {
        let exec_s = snap.wall[Wall::SweepExecNs as usize] as f64 / 1e9;
        l.worker_busy_frac = ratio(exec_s, p.jobs as f64 * (p.cold_secs + p.warm_secs));
        // SweepEngine takes no probe, so the sweep's traced wall time is
        // this hostprof-on pass.
        l.overhead_frac = ratio(counted.secs, p50) - 1.0;
        // Pass rates come from one more untraced rep: the counters'
        // shared atomics slow the workers down when two of them bump.
        if let Some((rep, p)) = w.sweep_passes(scratch) {
            let points = w.runs().len() as f64;
            l.cold_points_per_s = ratio(points, p.cold_secs);
            l.warm_points_per_s = ratio(points, p.warm_secs);
            l.cache_hits = p.warm_hits as f64;
            tally.add(&rep);
        }
    }

    // Recorded runs, then their replays.
    let (mut routes, mut queue, mut digest) =
        (Total::default(), Total::default(), Total::default());
    let mut traced_s = 0.0;
    let mut reports = Vec::new();
    for (spec, cfg) in w.runs() {
        let run = match capture(&spec, &cfg, w.live_digest()) {
            Ok(run) => run,
            Err(e) => {
                tally.attempted += 1;
                tally.failed += 1;
                tally
                    .errors
                    .push(format!("{}: traced run: {e}", spec.label()));
                continue;
            }
        };
        traced_s += run.returned.duration_since(run.called).as_secs_f64();
        let (build, span, finish) = run.spans_ms();
        l.build_ms += build;
        l.run_ms += span;
        l.finish_ms += finish;
        l.trace_events += run.cap.count as f64;
        routes.add(replay_routes(&cfg, &run.cap.routes, &run.report));
        queue.add(replay_queue(&cfg, &run.cap.queue, &run.report));
        if let Some(live) = &run.live_digest {
            digest.add(Ok(replay_digest(&run.cap.events, live)));
        }
        reports.push(report_digest(&run.report));
    }
    if passes.is_none() {
        l.overhead_frac = ratio(traced_s, p50) - 1.0;
    }

    l.routes = routes.ops as f64;
    l.route_ms = routes.ms;
    l.route_ns_per_call = ratio(l.route_ms * 1e6, l.routes);
    l.route_share = ratio(l.route_ms, l.run_ms);
    l.queue_ms = queue.ms;
    l.queue_ns_per_op = ratio(l.queue_ms * 1e6, queue.ops as f64);
    l.digest_ms = digest.ms;
    l.digest_ns_per_event = ratio(l.digest_ms * 1e6, digest.ops as f64);
    l.residual_ms = l.run_ms - l.route_ms - l.queue_ms - l.digest_ms;

    // A probe must not change the simulation: the recorded runs'
    // reports must fingerprint exactly like the untraced reps'.
    let traced_fp = w.fingerprint_reports(&reports);
    if tally.fingerprint("report_digest") != Some(traced_fp.as_str()) {
        tally.failed += 1;
        tally
            .errors
            .push("the recorded run's reports differ from the untraced reps'".into());
    }
    let checks = vec![
        routes.check("net_replay", &mut tally),
        queue.check("queue_replay", &mut tally),
        digest.check("digest_replay", &mut tally),
    ];
    Traced {
        layers: l,
        checks,
        baseline_reps: times.len(),
        tally,
    }
}
