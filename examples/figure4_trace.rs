//! Reproduce the paper's Figure 4: the scheduling interleaving of
//! multithreaded bitonic sorting on two processors with two threads each,
//! sorting 8 elements — the exact scenario the paper walks through by hand
//! (threads issue reads RR0..RR3, suspend, resume in FIFO order, and merges
//! run in thread order).
//!
//! The scenario lives in `emx::workloads::fig4`; this example records it
//! through the observability probe, prints each event's canonical trace
//! line, machine-checks the schedule against the paper's narration, and
//! writes a Perfetto trace of it.
//!
//! ```text
//! cargo run --release -p emx --example figure4_trace
//! ```

use emx::prelude::*;
use emx::workloads::fig4;

fn main() {
    let mut m = fig4::build().unwrap();
    let (rec, handle) = Recorder::unbounded();
    m.attach_probe(Box::new(rec));
    let report = m.run().unwrap();
    let log = handle.finish();

    println!("Figure 4 rebuilt: 2 PEs x 2 threads, 8 elements, one merge step\n");
    for e in log.events() {
        println!("{e}");
    }
    println!(
        "\n{} events ({} dropped); elapsed {} = {:.2} µs",
        log.total(),
        log.dropped(),
        report.elapsed,
        report.elapsed.as_emx_micros()
    );

    // The machine-checked version of the paper's narration: spawns first,
    // reads resume FIFO t0,t1,t0,t1, an all-suspended window before the
    // first response, merges retire in thread order.
    let summary = fig4::check_schedule(log.events()).unwrap();
    println!(
        "\nschedule check: OK — data resumes {:?}, retires {:?}",
        summary.data_resumes, summary.retires
    );

    let json = chrome_trace_json(&log, report.clock_hz);
    let out = std::env::temp_dir().join("emx_figure4.json");
    std::fs::write(&out, &json).unwrap();
    println!(
        "wrote {} — open at https://ui.perfetto.dev to see the figure as a timeline",
        out.display()
    );
    println!(
        "\nCompare with the paper's narration: each RRn send is followed by a\n\
         switch to the other thread; between the last send and the first\n\
         response 'there are no threads running'; merges dispatch in thread\n\
         order after their data arrives."
    );
}
