//! Sweep the thread count for the multithreaded FFT and print the overlap
//! efficiency of Figure 7(c,d) — the paper's >95% headline.
//!
//! ```text
//! cargo run --release -p emx --example fft_overlap
//! ```

use emx::prelude::*;
use emx::sweep::Workload;

fn main() {
    let mut cfg = MachineConfig::paper_p16();
    cfg.local_memory_words = 1 << 18;
    let n = 32_768;
    let threads = [1usize, 2, 3, 4, 8, 16];

    println!("FFT on P=16, n={n} (first log P iterations, as in the paper)\n");
    let mut table = Table::new(["h", "comm (ms)", "efficiency E (%)", "thread-sync switches"]);
    let mut base = None;
    let mut best = 0.0f64;
    for &h in &threads {
        let report = RunSpec::new(Workload::Fft, cfg.num_pes, n / cfg.num_pes, h)
            .execute_on(&cfg, |_| {})
            .expect("fft runs");
        let comm = report.comm_time_secs();
        let base_val = *base.get_or_insert(comm);
        let eff = overlap_efficiency(base_val, comm);
        best = best.max(eff);
        table.row([
            h.to_string(),
            format!("{:.4}", comm * 1e3),
            format!("{:.1}", eff),
            report.total_switches().thread_sync.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "best overlap: {best:.1}% (paper: \"FFT has given over 95% of overlapping\n\
         for two to four threads\"; FFT needs no thread synchronization, hence the\n\
         zero thread-sync column)"
    );
}
