//! Integration test of the paper's Figure 4: the hand-walked FIFO schedule
//! of 2 PEs × 2 threads merging 8 elements, captured through the
//! observability probe and verified end to end — schedule shape, exporter
//! validity, byte-determinism, and the profile's per-PE counts.

use emx::obs::{chrome_trace_json, events_csv, validate_chrome_trace, EventLog, Recorder};
use emx::prelude::*;
use emx::workloads::fig4;

fn observed_fig4() -> (EventLog, RunReport) {
    let mut m = fig4::build().unwrap();
    let (rec, handle) = Recorder::unbounded();
    m.attach_probe(Box::new(rec));
    let report = m.run().unwrap();
    (handle.finish(), report)
}

fn profiled_fig4() -> ProfileReport {
    let mut m = fig4::build().unwrap();
    let (probe, handle) = Profiler::new(m.config().costs);
    m.attach_probe(Box::new(probe));
    let report = m.run().unwrap();
    handle.finish(&report)
}

#[test]
fn dispatch_sequence_matches_the_paper() {
    let (log, _) = observed_fig4();
    let summary = fig4::check_schedule(log.events()).expect("paper schedule");

    // Eight remote reads (RR0..RR3 per direction in the figure): each PE's
    // two threads alternate FIFO, and all four merges retire in thread
    // order. The checker enforces the shape; pin the totals here.
    assert_eq!(summary.data_resumes.len(), 8);
    assert_eq!(summary.retires.len(), 4);
    for pe in 0..2usize {
        let [f0, f1] = summary.frames[pe];
        let resumes: Vec<u16> = summary
            .data_resumes
            .iter()
            .filter(|&&(p, _)| p as usize == pe)
            .map(|&(_, f)| f)
            .collect();
        assert_eq!(resumes, [f0, f1, f0, f1], "PE{pe}");
    }
}

#[test]
fn figure4_trace_exports_validate_and_are_deterministic() {
    let (a, report) = observed_fig4();
    let (b, _) = observed_fig4();

    let json = chrome_trace_json(&a, report.clock_hz);
    assert_eq!(json, chrome_trace_json(&b, report.clock_hz));
    let csv = events_csv(&a, report.clock_hz);
    assert_eq!(csv, events_csv(&b, report.clock_hz));

    let sum = validate_chrome_trace(&json).expect("valid chrome trace");
    // 2 PEs × 2 threads × (2 read suspends) → 8 async read arrows.
    assert_eq!(sum.asyncs, 16);
    // Both files stamp the same stream digest.
    assert!(csv
        .lines()
        .nth(1)
        .unwrap()
        .contains(&format!("digest={}", sum.digest)));
}

#[test]
fn figure4_metrics_match_the_schedule() {
    // Each PE spawned two threads; each thread suspended on its two reads
    // and on the barrier, resumed from each, and retired.
    let rep = profiled_fig4();
    let text = rep.canonical_text();
    for want in [
        "events pe=0 dispatches=11 sends=11 spawns=2 resumes=6 suspends=6 retires=2 \
         enqueues=11 spills=0 unspills=0 dma_services=4 dma_words=4 net_injects=11 \
         net_hops=9 net_delivers=11 max_queue_depth=2 suspend[remote-read]=4 \
         suspend[block-read]=0 suspend[barrier]=2 suspend[thread-sync]=0 suspend[yield]=0 \
         fault[drop]=0 fault[dup]=0 fault[delay]=0",
        "events pe=1 dispatches=9 sends=9 spawns=2 resumes=6 suspends=6 retires=2 \
         enqueues=9 spills=0 unspills=0 dma_services=4 dma_words=4 net_injects=9 \
         net_hops=9 net_delivers=9 max_queue_depth=1 suspend[remote-read]=4 \
         suspend[block-read]=0 suspend[barrier]=2 suspend[thread-sync]=0 suspend[yield]=0 \
         fault[drop]=0 fault[dup]=0 fault[delay]=0",
        "hist queue_depth_pkts count=20 sum=21 max=2 buckets=19,1,0,0,0,0,0,0,0",
        "hist run_length_cycles count=16 sum=222 max=30 buckets=0,4,8,4,0,0,0,0,0,0",
    ] {
        assert!(
            text.lines().any(|l| l == want),
            "missing {want:?} in\n{text}"
        );
    }
    // The eight remote reads, RR0..RR3 in each direction, all single-word.
    let reads = &rep.blame.total;
    assert_eq!((reads.count(), reads.sum(), reads.max()), (8, 144, 33));
    assert_eq!(rep.blame.block_total.count(), 0);
}
