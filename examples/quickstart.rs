//! Quickstart: build an EM-X machine, run both paper workloads, and print
//! the measurements the paper reports.
//!
//! ```text
//! cargo run --release -p emx --example quickstart
//! ```

use emx::prelude::*;
use emx::sweep::Workload;

fn main() {
    // A 16-processor EM-X (the paper's smaller configuration), with memory
    // trimmed to what these problem sizes need.
    let mut cfg = MachineConfig::paper_p16();
    cfg.local_memory_words = 1 << 18;

    println!(
        "== EM-X quickstart: {} PEs at {} MHz ==\n",
        cfg.num_pes,
        cfg.clock_hz / 1_000_000
    );

    // Each kernel run is a `RunSpec` (kernel, P, n/P, h) executed on `cfg`;
    // the kernel verifies its own output before reporting.
    let run = |spec: RunSpec| spec.execute_on(&cfg, |_| {}).expect("kernel runs");

    // --- Bitonic sorting, 16K keys, 4 threads per processor -------------
    let sort = run(RunSpec::new(Workload::Sort, 16, 1024, 4));
    println!("bitonic sort, n=16384, h=4");
    println!(
        "  simulated time     {:>10.3} ms",
        sort.elapsed_secs() * 1e3
    );
    println!(
        "  mean comm time     {:>10.3} ms",
        sort.comm_time_secs() * 1e3
    );
    println!("  remote reads       {:>10}", sort.total_reads());
    println!("  packets routed     {:>10}", sort.net_packets);
    let sw = sort.mean_switches();
    println!(
        "  switches/PE        remote-read {} / iter-sync {} / thread-sync {}",
        sw.remote_read, sw.iter_sync, sw.thread_sync
    );
    println!("  mean utilization   {:>10.3}", sort.mean_utilization());

    // --- FFT, 16K points, 4 threads per processor -----------------------
    let mut fft = RunSpec::new(Workload::Fft, 16, 1024, 4);
    fft.comm_only = false;
    let fft = run(fft);
    println!("\nFFT, n=16384, h=4 (full transform, verified against the DFT reference)");
    println!("  simulated time     {:>10.3} ms", fft.elapsed_secs() * 1e3);
    println!(
        "  mean comm time     {:>10.3} ms",
        fft.comm_time_secs() * 1e3
    );
    println!("  remote reads       {:>10}", fft.total_reads());

    // --- The four-component execution-time breakdown (Figure 8) ---------
    println!("\nper-PE mean breakdown (sort vs FFT), % of execution time");
    let mut t = Table::new(["component", "sort %", "fft %"]);
    let sf = sort.mean_breakdown().fractions();
    let ff = fft.mean_breakdown().fractions();
    for (i, label) in Breakdown::LABELS.iter().enumerate() {
        t.row([
            label.to_string(),
            format!("{:.1}", sf[i] * 100.0),
            format!("{:.1}", ff[i] * 100.0),
        ]);
    }
    println!("{}", t.render());

    // --- What the analytic model says ------------------------------------
    let model = ModelParams::sorting(&cfg.costs, 30.0);
    println!(
        "analytic model (R=12, S={}, L=30): optimal threads = {} (paper: two to four)",
        cfg.costs.context_switch,
        model.optimal_threads()
    );
}
