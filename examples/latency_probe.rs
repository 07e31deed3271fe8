//! Measure the remote-read latency with an interpreted ISA kernel — the
//! paper's in-text claim: "A typical remote read takes approximately 1 µs"
//! (20 cycles at 20 MHz), with a 20–40 cycle band under load.
//!
//! Reader processors each run a 64-read loop against the last processor
//! ([`remote_read_latency`]); their idle plus switch time divided by the
//! number of reads is the average unmasked round-trip latency.
//!
//! ```text
//! cargo run --release -p emx --example latency_probe
//! ```

use emx::prelude::*;

fn main() {
    println!("remote read latency probe (interpreted EMC-Y kernel)\n");
    let mut t = Table::new(["PEs", "concurrent readers", "cycles/read", "µs/read"]);
    for (pes, readers) in [
        (16usize, 1usize),
        (16, 4),
        (16, 8),
        (64, 1),
        (64, 16),
        (64, 32),
    ] {
        let mut cfg = MachineConfig::with_pes(pes);
        cfg.local_memory_words = 1 << 12;
        let cycles = remote_read_latency(&cfg, readers, 64).expect("probe runs");
        t.row([
            pes.to_string(),
            readers.to_string(),
            format!("{cycles:.1}"),
            format!("{:.2}", cycles / 20.0), // microseconds at 20 MHz
        ]);
    }
    println!("{}", t.render());
    println!(
        "paper: \"The average remote memory latency, when the network is normally\n\
         loaded, is approximately 1 to 2 µs, or 20-40 clocks.\""
    );
}
