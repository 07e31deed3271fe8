//! Repo-level integration: the analytic multithreading model against the
//! simulator.

use emx::prelude::*;

/// Simulated idle cycles per read for h threads per PE on the paper's
/// 16-PE machine, each running the 12-cycle read loop for 200 reads.
fn idle_per_read(h: usize) -> f64 {
    let mut cfg = MachineConfig::paper_p16();
    cfg.local_memory_words = 1 << 12;
    read_loop_idle(&cfg, h, 200).unwrap()
}

#[test]
fn model_and_simulation_agree_on_the_masking_trend() {
    // Use the simulated h=1 idle as the model's latency parameter, then
    // check the model predicts the simulated idle within a factor at every
    // h (the model is deterministic; the simulator adds queueing noise).
    let l = idle_per_read(1);
    assert!(
        l > 5.0,
        "baseline idle per read should be noticeable, got {l:.1}"
    );
    let m = ModelParams::sorting(&MachineConfig::paper_p16().costs, l);
    for h in [2u32, 3, 4] {
        let sim = idle_per_read(h as usize);
        let pred = m.idle_per_read(h);
        assert!(
            (sim - pred).abs() <= l * 0.35,
            "h={h}: sim idle {sim:.1} vs model {pred:.1} (L={l:.1})"
        );
    }
}

#[test]
fn saturation_region_has_negligible_idle() {
    let l = idle_per_read(1);
    let m = ModelParams::sorting(&MachineConfig::paper_p16().costs, l);
    let h_sat = m.optimal_threads();
    assert!(
        h_sat <= 4,
        "paper: 2-4 threads mask the latency, model says {h_sat}"
    );
    let sim = idle_per_read((h_sat + 2) as usize);
    assert!(
        sim < l * 0.25,
        "beyond saturation the simulated idle should collapse: {sim:.1} vs baseline {l:.1}"
    );
}

#[test]
fn model_matches_paper_parameters_exactly() {
    // R = 12, S = 4: h* = (16 + L)/16.
    let m = ModelParams::new(12.0, 4.0, 32.0);
    assert_eq!(m.optimal_threads(), 3);
    assert_eq!(m.region(1), Region::Linear);
    assert_eq!(m.region(8), Region::Saturation);
    assert!(
        (m.utilization(16.0) - 0.75).abs() < 1e-12,
        "saturation U = R/(R+S)"
    );
}
