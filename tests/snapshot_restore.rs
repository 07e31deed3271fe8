//! Checkpoint/restore on every kernel: a small run of each, snapshotted at
//! every k-th event boundary (k ∈ {1, 7, 64}) and restored into fresh
//! shells, must finish with the exact report of the uninterrupted run and
//! pass the kernel's own verification.

use emx::prelude::*;
use emx::stats::digest::{digest_hex, report_canonical_text};

const STRIDES: [u64; 3] = [1, 7, 64];

fn build<K: Kernel>(params: &K) -> Machine {
    let mut cfg = MachineConfig::with_pes(4);
    cfg.local_memory_words = 1 << 14;
    params.build(&cfg, |_| {}).unwrap()
}

/// At every stride, drive a machine in `stride`-event steps; at each pause
/// snapshot it, restore into a fresh shell, run that to completion, and
/// check its report against the uninterrupted run's and its output with
/// the kernel's `finish`.
fn walk<K: Kernel>(params: K) {
    let fuel = Cycle::new(DEFAULT_FUEL);
    let mut reference = build(&params);
    let ref_report = reference.run().unwrap();
    // The uninterrupted run itself verifies against the sequential oracle.
    params.finish(&reference, ref_report.clone()).unwrap();
    let ref_text = report_canonical_text(&ref_report);
    for stride in STRIDES {
        let mut machine = build(&params);
        let mut checkpoints = 0;
        let stepped = loop {
            if let Some(report) = machine.step_events(stride, fuel).unwrap() {
                break report;
            }
            let snap = machine.snapshot().unwrap();
            checkpoints += 1;
            let mut resumed = build(&params);
            resumed.restore(&snap).unwrap();
            let report = resumed.run().unwrap();
            assert_eq!(
                report_canonical_text(&report),
                ref_text,
                "resume diverged (stride {stride}, checkpoint {checkpoints})"
            );
            params.finish(&resumed, report).unwrap();
        };
        assert_eq!(
            report_canonical_text(&stepped),
            ref_text,
            "stepped run diverged (stride {stride})"
        );
        assert!(checkpoints > 0, "stride {stride} never paused mid-run");
    }
}

#[test]
fn fft_checkpoints_are_transparent_at_any_stride() {
    walk(FftParams::comm_only(32, 2));
}

#[test]
fn bfs_checkpoints_are_transparent_at_any_stride() {
    walk(BfsParams::new(32, 2));
}

#[test]
fn sort_checkpoints_are_transparent_at_any_stride() {
    walk(SortParams::new(32, 4));
    walk(SortParams::with_block_reads(32, 4));
}

#[test]
fn histogram_checkpoints_are_transparent_at_any_stride() {
    walk(HistogramParams::new(32, 2));
}

#[test]
fn spmv_checkpoints_are_transparent_at_any_stride() {
    walk(SpmvParams::new(8, 2));
}

#[test]
fn stencil_checkpoints_are_transparent_at_any_stride() {
    walk(StencilParams {
        width: 8,
        iters: 2,
        ..StencilParams::new(64, 2)
    });
}

/// One digest over every snapshot of a stride-7 walk of `machine`.
fn walk_digest(mut machine: Machine) -> String {
    let mut lines = String::new();
    while machine
        .step_events(7, Cycle::new(DEFAULT_FUEL))
        .unwrap()
        .is_none()
    {
        lines.push_str(&digest_hex(&machine.snapshot().unwrap()));
        lines.push('\n');
    }
    digest_hex(&lines)
}

/// Pins the `emx-snap/1` bytes of the FFT walk: a change to what any
/// section holds, or to its token order, moves the digest.
#[test]
fn fft_walk_snapshot_bytes_are_pinned() {
    let machine = build(&FftParams::comm_only(32, 2));
    assert_eq!(walk_digest(machine), "9e363969be5133ccb64b34a6185f599e");
}

/// Pins the `emx-snap/1` bytes of the BFS walk.
#[test]
fn bfs_walk_snapshot_bytes_are_pinned() {
    let machine = build(&BfsParams::new(32, 2));
    assert_eq!(walk_digest(machine), "17b26e5e3bec21385c0a8c0f7bf31bba");
}
