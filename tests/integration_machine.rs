//! Repo-level integration: machine-wide behaviours that span crates —
//! servicing-mode ablation, network models, priority scheduling,
//! determinism of full workload runs.

use emx::prelude::*;

fn cfg(p: usize) -> MachineConfig {
    let mut c = MachineConfig::with_pes(p);
    c.local_memory_words = 1 << 16;
    c
}

#[test]
fn bypass_dma_beats_em4_servicing_on_real_workloads() {
    // Paper §2.1: the EM-4 treats a remote read "as another 1-instruction
    // thread which consumes processor cycles. This consumption adversely
    // affects the performance."
    let n = 16 * 512;
    let elapsed = |mode: ServiceMode| {
        let mut c = cfg(16);
        c.service_mode = mode;
        run(&c, &SortParams::new(n, 4), |_| {})
            .unwrap()
            .report
            .elapsed_secs()
    };
    let emx = elapsed(ServiceMode::BypassDma);
    let em4 = elapsed(ServiceMode::ExuThread);
    assert!(
        em4 > emx,
        "EM-4 servicing must be slower: EM-X {emx:.4e}s vs EM-4 {em4:.4e}s"
    );
}

#[test]
fn network_models_order_sanely() {
    // An ideal zero-contention network can only speed things up relative to
    // the omega fabric; the crossbar sits between (endpoint contention
    // only). We compare total elapsed on the same workload.
    let n = 16 * 512;
    let elapsed = |model: NetModelKind| {
        let mut c = cfg(16);
        c.net.model = model;
        run(&c, &FftParams::comm_only(n, 2), |_| {})
            .unwrap()
            .report
            .elapsed_secs()
    };
    let omega = elapsed(NetModelKind::CircularOmega);
    let ideal = elapsed(NetModelKind::Ideal { latency: 2 });
    assert!(
        ideal <= omega,
        "2-cycle ideal network must not lose to omega: ideal {ideal:.4e}, omega {omega:.4e}"
    );
    // The crossbar run must simply complete and verify; its relative
    // position depends on the traffic pattern.
    elapsed(NetModelKind::FullCrossbar);
}

#[test]
fn priority_scheduling_changes_timing_but_not_results() {
    let n = 16 * 512;
    let sort_with = |pri: bool| {
        let mut c = cfg(16);
        c.priority_read_responses = pri;
        run(&c, &SortParams::new(n, 8), |_| {}).unwrap()
    };
    let plain = sort_with(false);
    let prioritized = sort_with(true);
    assert_eq!(
        plain.output, prioritized.output,
        "scheduling must not change the sort"
    );
    assert_ne!(
        plain.report.elapsed, prioritized.report.elapsed,
        "the scheduling knob should actually reschedule something"
    );
}

#[test]
fn whole_workload_runs_are_deterministic() {
    let n = 16 * 512;
    let one = run(&cfg(16), &FftParams::new(n, 4), |_| {}).unwrap();
    let two = run(&cfg(16), &FftParams::new(n, 4), |_| {}).unwrap();
    assert_eq!(one.report.elapsed, two.report.elapsed);
    assert_eq!(one.report.total_packets(), two.report.total_packets());
    assert_eq!(
        one.report.total_switches().counts(),
        two.report.total_switches().counts()
    );
    assert_eq!(one.output, two.output);
}

#[test]
fn queue_pressure_spills_to_memory_at_high_thread_counts() {
    // Beyond 8 concurrent responses the on-chip IBU FIFO (capacity 8)
    // overflows to the on-memory buffer — visible as spills at h=16 but
    // not at h=1.
    let n = 16 * 1024;
    let spills = |h: usize| {
        run(&cfg(16), &SortParams::new(n, h), |_| {})
            .unwrap()
            .report
            .per_pe
            .iter()
            .map(|p| p.ibu_spills)
            .sum::<u64>()
    };
    assert!(
        spills(16) > spills(1),
        "h=16 must overflow the 8-deep FIFO more than h=1"
    );
}

#[test]
fn breakdown_is_conserved_against_elapsed() {
    // No PE's four-component breakdown can exceed the run's wall-clock.
    let n = 16 * 512;
    let out = run(&cfg(16), &SortParams::new(n, 4), |_| {}).unwrap();
    for (pe, stats) in out.report.per_pe.iter().enumerate() {
        assert!(
            stats.breakdown.total() <= out.report.elapsed,
            "PE{pe} breakdown {} exceeds elapsed {}",
            stats.breakdown.total(),
            out.report.elapsed
        );
    }
}

#[test]
fn eighty_pe_prototype_configuration_works() {
    // The real machine has 80 processors (non-power-of-two): the runtime
    // and network must handle it for direct Machine programs even though
    // the power-of-two workload drivers don't use it.
    let c = MachineConfig {
        local_memory_words: 1 << 12,
        ..Default::default()
    };
    let mut m = Machine::new(c).unwrap();
    struct Relay;
    impl ThreadBody for Relay {
        fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
            match ctx.value {
                None => Action::Read {
                    addr: GlobalAddr::new(PeId((ctx.pe.0 + 1) % 80), 0).unwrap(),
                },
                Some(v) => {
                    ctx.mem.write(1, v + 1).unwrap();
                    Action::End
                }
            }
        }
    }
    let entry = m.register_entry("relay", |_, _| Box::new(Relay));
    for pe in 0..80u16 {
        m.mem_mut(PeId(pe))
            .unwrap()
            .write(0, u32::from(pe))
            .unwrap();
        m.spawn_at_start(PeId(pe), entry, 0).unwrap();
    }
    let report = m.run().unwrap();
    assert_eq!(report.total_reads(), 80);
    assert_eq!(m.mem(PeId(0)).unwrap().read(1).unwrap(), 2); // PE1's 1 + 1
}
