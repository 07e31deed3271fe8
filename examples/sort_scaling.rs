//! Sweep the thread count for multithreaded bitonic sorting and print the
//! communication-time valley of Figure 6(a,b) plus the overlap efficiency
//! of Figure 7(a,b).
//!
//! ```text
//! cargo run --release -p emx --example sort_scaling
//! ```

use emx::prelude::*;
use emx::sweep::Workload;

fn main() {
    let mut cfg = MachineConfig::paper_p16();
    cfg.local_memory_words = 1 << 18;
    let n = 32_768;
    let threads = [1usize, 2, 4, 8, 16];

    println!("bitonic sorting on P=16, n={n}: communication time vs threads\n");
    let mut series = Vec::new();
    let mut table = Table::new(["h", "comm (ms)", "efficiency E (%)", "switches/PE"]);
    let mut base = None;
    for &h in &threads {
        let report = RunSpec::new(Workload::Sort, cfg.num_pes, n / cfg.num_pes, h)
            .execute_on(&cfg, |_| {})
            .expect("sort runs");
        let comm = report.comm_time_secs();
        let base_val = *base.get_or_insert(comm);
        let eff = overlap_efficiency(base_val, comm);
        table.row([
            h.to_string(),
            format!("{:.4}", comm * 1e3),
            format!("{:.1}", eff),
            report.mean_switches().total().to_string(),
        ]);
        series.push((h as f64, comm));
    }
    println!("{}", table.render());
    println!("{}", ascii_chart(&[Series::new("sort comm", series)], 48));
    println!(
        "The paper: \"the communication time becomes minimal when the number of\n\
         threads is three to four\" and sorting overlaps ~35% of communication."
    );
}
