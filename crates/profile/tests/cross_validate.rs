//! The profiler's accuracy contract: trace-derived per-PE attribution
//! must agree with the runtime's own counter breakdown to within 1% of
//! elapsed time, per processor and per class, on the paper's workloads at
//! P = 16 — and the report artifacts must be byte-deterministic.

use emx_core::MachineConfig;
use emx_profile::{diff_profiles, parse_text, Profiler, DEFAULT_THRESHOLD_PPM};
use emx_stats::{RunReport, Verdict};
use emx_workloads::{run, FftParams, SortParams};

fn cfg(p: usize) -> MachineConfig {
    let mut c = MachineConfig::with_pes(p);
    c.local_memory_words = 1 << 17;
    c
}

/// 1% of elapsed, in ppm.
const TOLERANCE_PPM: u64 = 10_000;

fn profile_fft(n: usize, h: usize) -> (emx_profile::ProfileReport, RunReport) {
    let c = cfg(16);
    let (probe, handle) = Profiler::new(c.costs);
    let mut probe = Some(probe);
    let out = run(&c, &FftParams::comm_only(n, h), |m| {
        m.attach_probe(Box::new(probe.take().unwrap()));
    })
    .unwrap();
    (handle.finish(&out.report), out.report)
}

fn profile_bitonic(n: usize, h: usize) -> (emx_profile::ProfileReport, RunReport) {
    let c = cfg(16);
    let (probe, handle) = Profiler::new(c.costs);
    let mut probe = Some(probe);
    let out = run(&c, &SortParams::new(n, h), |m| {
        m.attach_probe(Box::new(probe.take().unwrap()));
    })
    .unwrap();
    (handle.finish(&out.report), out.report)
}

fn assert_within_tolerance(rep: &emx_profile::ProfileReport, what: &str) {
    for (i, p) in rep.pes.iter().enumerate() {
        for (c, name) in emx_profile::CLASS_NAMES.iter().enumerate() {
            assert!(
                p.xval_ppm[c] <= TOLERANCE_PPM,
                "{what}: PE{i} {name} drifted {} ppm (> {TOLERANCE_PPM}): \
                 trace {:?} vs counter {:?}",
                p.xval_ppm[c],
                p.attrib,
                p.counter,
            );
        }
    }
    assert!(
        rep.xval_max_ppm <= TOLERANCE_PPM,
        "{what}: max {}",
        rep.xval_max_ppm
    );
}

#[test]
fn fft_attribution_matches_counters_within_one_percent() {
    for h in [1usize, 4] {
        let (rep, run) = profile_fft(16 * 512, h);
        assert_eq!(rep.pes.len(), 16);
        assert_eq!(rep.elapsed, run.elapsed.get());
        assert_within_tolerance(&rep, &format!("fft h={h}"));
        // The profile saw real work: reads matched and a critical path
        // was extracted covering most of the makespan.
        assert!(rep.blame.counters.matched > 0, "no reads matched");
        assert_eq!(
            rep.blame.counters.unmatched, 0,
            "fault-free run must match all"
        );
        let crit = rep.critical.as_ref().expect("threads retired");
        assert!(
            crit.share_ppm > 500_000,
            "critical path covers most of the run: {} ppm",
            crit.share_ppm
        );
    }
}

#[test]
fn bitonic_attribution_matches_counters_within_one_percent() {
    for h in [1usize, 4] {
        let (rep, _) = profile_bitonic(16 * 256, h);
        assert_eq!(rep.pes.len(), 16);
        assert_within_tolerance(&rep, &format!("bitonic h={h}"));
        assert!(rep.blame.counters.matched > 0);
        assert_eq!(rep.blame.counters.unmatched, 0);
    }
}

#[test]
fn profile_reports_are_byte_deterministic_and_self_consistent() {
    let (a, _) = profile_fft(16 * 256, 4);
    let (b, _) = profile_fft(16 * 256, 4);
    let (ta, tb) = (a.canonical_text(), b.canonical_text());
    assert_eq!(ta, tb, "same run, same bytes");
    assert_eq!(a.to_json(), b.to_json());

    // The text parses, the digest verifies, and a self-diff is identical.
    let pa = parse_text(&ta).expect("canonical text parses");
    let pb = parse_text(&tb).unwrap();
    assert_eq!(
        diff_profiles(&pa, &pb, DEFAULT_THRESHOLD_PPM).verdict(),
        Verdict::Identical
    );

    // A genuinely different run diffs as drift or within-threshold, never
    // as a parse failure.
    let (c, _) = profile_fft(16 * 256, 1);
    let pc = parse_text(&c.canonical_text()).unwrap();
    let d = diff_profiles(&pc, &pa, DEFAULT_THRESHOLD_PPM);
    assert_ne!(d.verdict(), Verdict::Identical);
}

#[test]
fn blame_phases_reconstruct_every_matched_read_exactly() {
    let (rep, _) = profile_fft(16 * 256, 2);
    // Per-read phase decomposition is exact: summed over all matched
    // reads, the six phases add up to the summed end-to-end latency.
    let phase_sum: u64 = rep.blame.phases.iter().map(|h| h.sum()).sum();
    assert_eq!(phase_sum, rep.blame.total.sum());
    for h in rep.blame.phases.iter() {
        assert_eq!(h.count(), rep.blame.counters.matched, "{}", h.name());
    }
}
