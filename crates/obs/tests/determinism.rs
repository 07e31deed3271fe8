//! End-to-end checks of the observability pipeline: a real machine run
//! recorded through the probe, exported through both exporters, validated
//! by the JSON reader, and repeated to prove byte-determinism.

use std::collections::BTreeMap;

use emx_core::{GlobalAddr, MachineConfig, PeId, TraceKind};
use emx_obs::{chrome_trace_json, events_csv, validate_chrome_trace, EventLog, Recorder};
use emx_profile::{PeEvents, ProfileReport, Profiler};
use emx_runtime::{Action, Machine, ThreadBody, ThreadCtx, WorkKind};

fn ga(pe: u16, off: u32) -> GlobalAddr {
    GlobalAddr::new(PeId(pe), off).unwrap()
}

/// A thread that performs a scripted sequence of actions.
struct Scripted {
    actions: Vec<Action>,
    at: usize,
}

impl ThreadBody for Scripted {
    fn step(&mut self, _ctx: &mut ThreadCtx<'_>) -> Action {
        let a = self.actions.get(self.at).copied().unwrap_or(Action::End);
        self.at += 1;
        a
    }
}

/// A small cross-PE workload, ready to run: remote reads in both
/// directions plus local compute.
fn scripted_machine() -> Machine {
    let mut m = Machine::new(MachineConfig::with_pes(4)).unwrap();
    for pe in 0..4u16 {
        m.mem_mut(PeId(pe))
            .unwrap()
            .write(0, u32::from(pe) + 1)
            .unwrap();
    }
    let entry = m.register_entry("reader", |pe, _| {
        let peer = u16::try_from((pe.index() + 1) % 4).unwrap();
        Box::new(Scripted {
            at: 0,
            actions: vec![
                Action::Read { addr: ga(peer, 0) },
                Action::Work {
                    cycles: 12,
                    kind: WorkKind::Compute,
                },
                Action::Read { addr: ga(peer, 0) },
                Action::Work {
                    cycles: 4,
                    kind: WorkKind::Compute,
                },
            ],
        })
    });
    for pe in 0..4u16 {
        m.spawn_at_start(PeId(pe), entry, 0).unwrap();
    }
    m
}

/// Run the scripted workload with a recorder of the given capacity
/// attached.
fn observed_run(capacity: usize) -> EventLog {
    let mut m = scripted_machine();
    let (rec, handle) = Recorder::bounded(capacity);
    m.attach_probe(Box::new(rec));
    m.run().unwrap();
    handle.finish()
}

/// Run the scripted workload with the profiler attached.
fn profiled_run() -> ProfileReport {
    let mut m = scripted_machine();
    let (profiler, handle) = Profiler::new(m.config().costs);
    m.attach_probe(Box::new(profiler));
    let run = m.run().unwrap();
    handle.finish(&run)
}

#[test]
fn exports_are_byte_deterministic_across_runs() {
    let a = observed_run(1 << 16);
    let b = observed_run(1 << 16);
    assert_eq!(
        chrome_trace_json(&a, 20_000_000),
        chrome_trace_json(&b, 20_000_000)
    );
    assert_eq!(events_csv(&a, 20_000_000), events_csv(&b, 20_000_000));
}

#[test]
fn chrome_export_validates_and_matches_csv_digest() {
    let log = observed_run(1 << 16);
    let json = chrome_trace_json(&log, 20_000_000);
    let sum = validate_chrome_trace(&json).expect("exporter output must validate");
    // Eight split-phase reads (two per PE) -> eight async begin/end pairs.
    assert_eq!(sum.asyncs, 16, "{sum:?}");
    // Every thread ran bursts; slices exist and metadata names 4 PEs + net.
    assert!(sum.slices >= 8, "{sum:?}");
    assert_eq!(sum.metadata, 7, "{sum:?}");

    // The CSV header carries the same stream digest the JSON stamps.
    let csv = events_csv(&log, 20_000_000);
    let line = csv.lines().nth(1).unwrap();
    let digest = line
        .split_whitespace()
        .find_map(|f| f.strip_prefix("digest="))
        .unwrap();
    assert_eq!(sum.digest, digest);

    // CSV rows equal kept events, plus 3 header lines.
    assert_eq!(csv.lines().count(), log.events().len() + 3);
}

#[test]
fn a_bounded_export_keeps_a_track_per_processor() {
    // One event kept, the rest dropped: the Chrome trace still names one
    // track per processor the run used, because the log counts the PEs
    // of dropped events too.
    let log = observed_run(1);
    assert_eq!(log.events().len(), 1);
    let sum = validate_chrome_trace(&chrome_trace_json(&log, 20_000_000)).unwrap();
    // Four PE tracks, two process names and the fabric track.
    assert_eq!(sum.metadata, 7, "{sum:?}");
}

#[test]
fn metrics_cover_the_run() {
    let profile = profiled_run();
    assert_eq!(profile.pes.len(), 4);
    for (pe, p) in profile.pes.iter().enumerate() {
        let e = &p.events;
        assert_eq!(e.spawns, 1, "PE{pe}");
        assert_eq!(e.retires, 1, "PE{pe}");
        assert_eq!(e.total_suspends(), 2, "PE{pe}");
        assert!(e.dispatches >= 3, "PE{pe}");
        assert!(e.net_injects >= 2, "PE{pe}");
    }
    // The profile's per-PE counts add up to the recorder's per-kind
    // counts of the same run: both fold every event.
    let log = observed_run(1 << 16);
    let logged: BTreeMap<_, _> = log.counts().collect();
    let summed =
        |count: fn(&PeEvents) -> u64| -> u64 { profile.pes.iter().map(|p| count(&p.events)).sum() };
    for (kind, total) in [
        ("dispatch", summed(|e| e.dispatches)),
        ("send", summed(|e| e.sends)),
        ("thread-spawn", summed(|e| e.spawns)),
        ("thread-resume", summed(|e| e.resumes)),
        ("thread-suspend", summed(PeEvents::total_suspends)),
        ("thread-retire", summed(|e| e.retires)),
        ("enqueue", summed(|e| e.enqueues)),
        ("net-inject", summed(|e| e.net_injects)),
        ("net-deliver", summed(|e| e.net_delivers)),
    ] {
        assert_eq!(total, logged[kind], "{kind}");
    }
    // Each read suspend paired with its resume: 8 latency samples.
    assert_eq!(profile.blame.total.count(), 8);
    assert!(profile.blame.total.sum() > 0);
    assert!(profile.run_length.count() >= 8);
}

#[test]
fn bounded_recorder_overflows_without_losing_counts() {
    let full = observed_run(1 << 16);
    assert_eq!(full.dropped(), 0);
    let small = observed_run(8);
    assert_eq!(small.events().len(), 8);
    assert!(small.dropped() > 0);
    // Aggregates are exact despite the overflow: totals, per-kind counts
    // and the PE count match the unbounded run.
    assert_eq!(small.total(), full.total());
    let full_counts: Vec<_> = full.counts().collect();
    let small_counts: Vec<_> = small.counts().collect();
    assert_eq!(full_counts, small_counts);
    assert_eq!((small.pes(), full.pes()), (4, 4));
    // And the run saw real work: 4 retires, 8 remote-read suspends.
    let retire = TraceKind::ThreadRetire {
        frame: emx_core::FrameId(0),
    };
    assert_eq!(full.count_of(&retire), 4);
}
