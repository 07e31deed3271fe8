//! Property-based integration tests: random configurations must always
//! sort, always transform, and always agree with their reruns.

use emx::prelude::*;
use proptest::prelude::*;

fn cfg(p: usize) -> MachineConfig {
    let mut c = MachineConfig::with_pes(p);
    c.local_memory_words = 1 << 14;
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bitonic sorting is correct for arbitrary power-of-two machines,
    /// compatible thread counts, and any distribution/seed.
    #[test]
    fn sort_always_sorts(
        p_log in 0u32..=3,
        m_log in 4u32..=7,
        h_log in 0u32..=3,
        dist_sel in 0usize..5,
        seed in any::<u64>(),
    ) {
        let p = 1usize << p_log;
        let m = 1usize << m_log;
        let h = (1usize << h_log).min(m);
        let dist = [
            KeyDist::Uniform,
            KeyDist::Sorted,
            KeyDist::Reverse,
            KeyDist::Gaussian,
            KeyDist::Constant,
        ][dist_sel];
        let mut params = SortParams::new(p * m, h);
        params.dist = dist;
        params.seed = seed;
        let out = run(&cfg(p), &params, |_| {}).unwrap();
        prop_assert!(out.output.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Block-read mode produces exactly the same sorted output as
    /// per-element mode (they differ only in transfer granularity).
    #[test]
    fn block_mode_is_observationally_equal(
        p_log in 1u32..=3,
        m_log in 4u32..=6,
        seed in any::<u64>(),
    ) {
        let p = 1usize << p_log;
        let m = 1usize << m_log;
        let mut a = SortParams::new(p * m, 2);
        a.seed = seed;
        let mut b = a.clone();
        b.block_read = true;
        let pa = run(&cfg(p), &a, |_| {}).unwrap();
        let pb = run(&cfg(p), &b, |_| {}).unwrap();
        prop_assert_eq!(pa.output, pb.output);
    }

    /// The FFT verifies against the f64 reference for random signals on
    /// random machine shapes (verification happens in `finish`).
    #[test]
    fn fft_always_verifies(
        p_log in 0u32..=3,
        m_log in 3u32..=6,
        h_log in 0u32..=2,
        seed in any::<u64>(),
        full in any::<bool>(),
    ) {
        let p = 1usize << p_log;
        let m = 1usize << m_log;
        let h = (1usize << h_log).min(m);
        let mut params = if full {
            FftParams::new(p * m, h)
        } else {
            FftParams::comm_only(p * m, h)
        };
        params.seed = seed;
        run(&cfg(p), &params, |_| {}).unwrap();
    }

    /// Reruns of the same configuration agree cycle-for-cycle, packet-for-
    /// packet — the simulator is a pure function.
    #[test]
    fn reruns_agree_exactly(seed in any::<u64>(), h_log in 0u32..=2) {
        let mut params = SortParams::new(8 * 64, 1usize << h_log);
        params.seed = seed;
        let a = run(&cfg(8), &params, |_| {}).unwrap();
        let b = run(&cfg(8), &params, |_| {}).unwrap();
        prop_assert_eq!(a.report.elapsed, b.report.elapsed);
        prop_assert_eq!(a.report.total_packets(), b.report.total_packets());
        prop_assert_eq!(
            a.report.total_switches().counts(),
            b.report.total_switches().counts()
        );
    }

    /// Remote-read switch counts always equal issued reads — the paper's
    /// "every remote read causes a thread switch" — across both workloads.
    #[test]
    fn remote_read_switch_invariant(h_log in 0u32..=2, m_log in 4u32..=6) {
        let m = 1usize << m_log;
        let h = 1usize << h_log;
        let sort = run(&cfg(4), &SortParams::new(4 * m, h), |_| {}).unwrap();
        // Sorting issues one request per element read.
        prop_assert_eq!(
            sort.report.total_switches().remote_read,
            sort.report.total_reads()
        );
        let fft = run(&cfg(4), &FftParams::comm_only(4 * m, h), |_| {}).unwrap();
        prop_assert_eq!(
            fft.report.total_switches().remote_read,
            fft.report.total_reads()
        );
    }
}
