//! Host-side self-observability (`emx-hostprof`) integration tests.
//!
//! The contract under test (see `docs/OBSERVABILITY.md` § "Host
//! profiling"): the deterministic `counters` section is byte-identical
//! across `--jobs` values for error-free runs and exact on four pinned
//! quick points, arming the sweep heartbeat never changes sweep results,
//! the counting allocator's totals are monotone, neither the event loop
//! nor the trace digest allocates per event, and building a machine
//! allocates what it holds rather than what its configuration allows.
//!
//! Counters are process-global, so every test serializes on one lock and
//! leaves the gate disabled on exit.

use std::sync::Mutex;

use emx::hostprof;
use emx::prelude::*;
use emx::sweep::{grid, ProgressConfig, RunSpec, SweepEngine, Workload};

/// This test binary opts in to the counting allocator, exercising the
/// same wiring `emx-cli` and `figures` use.
#[global_allocator]
static ALLOC: hostprof::CountingAlloc = hostprof::CountingAlloc::new();

/// Counters are process-global; all tests toggling the gate take this.
static LOCK: Mutex<()> = Mutex::new(());

/// Run one comm-only FFT with profiling armed and return the settled
/// report.
fn profiled_fft() -> hostprof::HostProfReport {
    let mut cfg = MachineConfig::with_pes(64);
    cfg.local_memory_words = 1 << 17;
    hostprof::set_enabled(true);
    hostprof::reset();
    run(&cfg, &FftParams::comm_only(64 * 64, 4), |_| {}).unwrap();
    let rep = hostprof::HostProfReport::new(Vec::new(), hostprof::snapshot());
    hostprof::set_enabled(false);
    rep
}

/// Run a small sweep (cache disabled, so every point simulates) at the
/// given worker count with profiling armed; return the report plus the
/// concatenated canonical report texts of all points.
fn profiled_sweep(jobs: usize, progress: bool) -> (hostprof::HostProfReport, String) {
    hostprof::set_enabled(true);
    hostprof::reset();
    let mut engine = SweepEngine::new().jobs(jobs).cache(None).quiet(true);
    if progress {
        engine = engine.progress(ProgressConfig::every_ms(10));
    }
    let outcome = engine.run(grid(Workload::Sort, 4, &[64, 128], &[1, 2]));
    let rep = hostprof::HostProfReport::new(Vec::new(), hostprof::snapshot());
    hostprof::set_enabled(false);
    let texts: String = outcome
        .points
        .iter()
        .map(|pt| emx::stats::digest::report_canonical_text(&pt.report))
        .collect();
    (rep, texts)
}

#[test]
fn counter_and_host_sections_are_identical_across_jobs() {
    let _g = LOCK.lock().unwrap();
    let (serial, serial_texts) = profiled_sweep(1, false);
    let (parallel, parallel_texts) = profiled_sweep(4, false);
    assert_eq!(serial_texts, parallel_texts);
    assert_eq!(
        serial.counters_section(),
        parallel.counters_section(),
        "counters section diverged across --jobs"
    );
    // Host counters cover sweep structure (points, cache hits, simulated
    // count) — all scheduling-independent, so they match too.
    assert_eq!(serial.snap.host, parallel.snap.host);
    assert_eq!(serial.snap.host[hostprof::Host::SweepPoints as usize], 4);
    assert_eq!(serial.snap.host[hostprof::Host::SweepSimulated as usize], 4);
    assert_eq!(serial.snap.host[hostprof::Host::SweepCacheHits as usize], 0);
}

/// (workload, h, cycles, report digest, hostprof digest, the `counters`
/// section in `SIM_NAMES` order).
type QuickPoint = (Workload, usize, u64, &'static str, &'static str, [u64; 14]);

/// Bitonic sort and comm-only FFT at P = 16, 256 elements per PE, h = 1
/// and h = 4. Any change to these numbers is a change in simulated work:
/// name the counter that moved and why, then update the pin.
#[rustfmt::skip]
const QUICK_POINTS: [QuickPoint; 4] = [
    (Workload::Sort, 1, 138_305, "1ecabfd9382064ccfef34e2e8b3320dc", "42cc4378bd280a39576ad2f165f798dc",
        [81226, 81226, 30316, 9370, 0, 41540, 30316, 30316, 0, 0, 20594, 20946, 0, 41540]),
    (Workload::Sort, 4, 100_340, "5c5e12d5b7cfb048e1cf7bd634e0cb3a", "8631804a882a28d2aaffdf7f46374827",
        [123010, 123010, 46792, 17014, 0, 59204, 46792, 46792, 4, 0, 29426, 29778, 0, 59204]),
    (Workload::Fft, 1, 478_491, "ec3da430f77226d563f829e2bc2c99f3", "aac5d699c703b457835a59242ee0574e",
        [155282, 155282, 61257, 28361, 0, 65664, 61257, 61257, 0, 0, 32768, 32896, 0, 65664]),
    (Workload::Fft, 4, 283_309, "8db15f425ed2abfeb929aadaccc58464", "c5fd0e7d3883bc6b9850cefa0d2ec3a3",
        [110704, 110704, 38968, 6072, 0, 65664, 38968, 38968, 1, 0, 32768, 32896, 0, 65664]),
];

#[test]
fn quick_point_counters_are_exact() {
    let _g = LOCK.lock().unwrap();
    hostprof::set_enabled(true);
    for (workload, threads, cycles, report_digest, hostprof_digest, counters) in QUICK_POINTS {
        let spec = RunSpec::new(workload, 16, 256, threads);
        let label = spec.label();
        hostprof::reset();
        let report = spec.execute().unwrap_or_else(|e| panic!("{label}: {e}"));
        let rep = hostprof::HostProfReport::new(Vec::new(), hostprof::snapshot());
        assert_eq!(report.elapsed.get(), cycles, "{label}");
        assert_eq!(emx::stats::report_digest(&report), report_digest, "{label}");
        let named = |vals: [u64; 14]| hostprof::SIM_NAMES.iter().zip(vals).collect::<Vec<_>>();
        assert_eq!(named(rep.snap.sim), named(counters), "{label}");
        // A direct run outside a sweep touches no host counter.
        assert_eq!(rep.snap.host, [0; hostprof::HOST_NAMES.len()], "{label}");
        assert_eq!(rep.digest(), hostprof_digest, "{label}");
    }
    hostprof::set_enabled(false);
}

/// Allocations made by one direct run of `workload` at `per_pe`, and the
/// events it popped.
fn allocs_and_pops(workload: Workload, per_pe: usize) -> (u64, u64) {
    let spec = RunSpec::new(workload, 16, per_pe, 2);
    hostprof::reset();
    let (before, _) = hostprof::CountingAlloc::raw_totals();
    spec.execute()
        .unwrap_or_else(|e| panic!("{}: {e}", spec.label()));
    let (after, _) = hostprof::CountingAlloc::raw_totals();
    let pops = hostprof::snapshot().sim[hostprof::Sim::CalPops as usize];
    (after - before, pops)
}

/// The event loop allocates nothing per event: doubling a workload's size
/// adds tens of thousands of events but only a handful of allocations
/// (larger memories and inputs, buffers growing to a new high-water mark).
/// Histogram is left out because it boxes one thread body per increment,
/// and stencil because its pop count does not grow with `per_pe`.
#[test]
fn event_loop_allocates_nothing_per_event() {
    let _g = LOCK.lock().unwrap();
    hostprof::set_enabled(true);
    for workload in [Workload::Sort, Workload::Fft, Workload::Bfs, Workload::Spmv] {
        let (allocs_small, pops_small) = allocs_and_pops(workload, 256);
        let (allocs_large, pops_large) = allocs_and_pops(workload, 512);
        let extra_pops = pops_large - pops_small;
        let extra_allocs = allocs_large.saturating_sub(allocs_small);
        assert!(
            extra_pops >= 10_000,
            "{workload:?}: {extra_pops} extra pops are too few to tell"
        );
        assert!(
            extra_allocs * 100 <= extra_pops,
            "{workload:?}: {extra_allocs} extra allocations for {extra_pops} extra pops"
        );
    }
    hostprof::set_enabled(false);
}

/// A machine costs what its run touches, not what its configuration
/// allows: building the paper-scale default at P = 64 (4,096 frames and
/// 2^20 words of memory per processor, 5 MiB per processor if paid up
/// front) allocates under 1 MiB in all.
#[test]
fn building_a_machine_allocates_only_what_it_holds() {
    let _g = LOCK.lock().unwrap();
    let cfg = MachineConfig::with_pes(64);
    assert_eq!((cfg.frames_per_pe, cfg.local_memory_words), (4096, 1 << 20));
    let (_, before) = hostprof::CountingAlloc::raw_totals();
    let machine = Machine::new(cfg).unwrap();
    let (_, after) = hostprof::CountingAlloc::raw_totals();
    drop(machine);
    let bytes = after - before;
    assert!(
        bytes < 1 << 20,
        "building the machine allocated {bytes} bytes"
    );
}

#[test]
fn heartbeat_does_not_change_sweep_results_or_counters() {
    let _g = LOCK.lock().unwrap();
    let (off, off_texts) = profiled_sweep(2, false);
    let (on, on_texts) = profiled_sweep(2, true);
    assert_eq!(off_texts, on_texts, "heartbeat must not change results");
    assert_eq!(off.counters_section(), on.counters_section());
    assert_eq!(off.snap.host, on.snap.host);
}

#[test]
fn counting_allocator_totals_are_monotone() {
    let _g = LOCK.lock().unwrap();
    hostprof::set_enabled(true);
    hostprof::reset();
    let (a0, b0) = hostprof::alloc_totals();
    // Force real heap traffic that the optimizer cannot elide.
    let v: Vec<String> = (0..512).map(|i| format!("alloc-probe-{i}")).collect();
    assert_eq!(v.len(), 512);
    let (a1, b1) = hostprof::alloc_totals();
    drop(v);
    let (a2, b2) = hostprof::alloc_totals();
    hostprof::set_enabled(false);
    assert!(a1 > a0, "allocation count must grow ({a0} -> {a1})");
    assert!(b1 > b0, "byte count must grow ({b0} -> {b1})");
    // Totals count allocation traffic, not live bytes: frees never
    // decrease them.
    assert!(a2 >= a1);
    assert!(b2 >= b1);
}

#[test]
fn digest_probe_allocates_nothing_per_event() {
    use emx::core::{FrameId, Probe};
    let _g = LOCK.lock().unwrap();
    let (mut probe, handle) = DigestProbe::new();
    let kinds = [
        TraceKind::Dispatch {
            pkt: PacketKind::ReadReq,
        },
        TraceKind::Enqueue {
            pkt: PacketKind::ReadResp,
            priority: Priority::High,
            spilled: true,
            depth: usize::MAX,
        },
        TraceKind::ThreadSpawn {
            frame: FrameId(u16::MAX),
            entry: u32::MAX,
        },
        TraceKind::DispatchEnd,
    ];
    // The test harness may still allocate on its own threads while this
    // test holds the lock, so the claim is that some round of 1000 events
    // allocates nothing at all; a `String` per event allocates every round.
    let fewest = (0..5u16)
        .map(|round| {
            let (before, _) = hostprof::CountingAlloc::raw_totals();
            for i in 0..1000u64 {
                probe.on(
                    Cycle::new(u64::MAX - i),
                    PeId(round),
                    kinds[i as usize % kinds.len()],
                );
            }
            hostprof::CountingAlloc::raw_totals().0 - before
        })
        .min();
    assert_eq!(fewest, Some(0));
    assert_eq!(handle.events(), 5000);
}

#[test]
fn report_digest_ignores_wall_and_meta() {
    let _g = LOCK.lock().unwrap();
    let mut a = profiled_fft();
    let mut b = a.clone();
    b.meta = vec![("jobs".into(), "8".into())];
    b.snap.wall = [9; hostprof::WALL_NAMES.len()];
    b.snap.host = [9; hostprof::HOST_NAMES.len()];
    assert_eq!(a.digest(), b.digest());
    a.snap.sim[hostprof::Sim::CalPops as usize] += 1;
    assert_ne!(a.digest(), b.digest());
}
