//! `emx-cli` runs every kernel at its defaults, under every workload
//! word, and rejects the shapes it cannot run with a message.
//!
//! The stencil needs a band row per thread, so when `--threads` is absent
//! the CLI caps the subcommand's default thread count at the rows the
//! grid has per processor. An explicit thread count it cannot run is
//! still an error, exit 1, with the stencil's own message.

use std::process::{Command, Output};

fn emx_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_emx-cli"))
        .args(args)
        .output()
        .expect("emx-cli starts")
}

#[test]
fn stencil_runs_at_every_subcommand_default() {
    for cmd in ["run", "trace", "profile"] {
        let out = emx_cli(&[cmd, "stencil"]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{cmd} stencil: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn explicit_out_of_range_threads_still_fail() {
    for (args, message) in [
        (
            &["run", "stencil", "--threads", "4"][..],
            "h=4 must be in 1..=2 (one band row minimum)",
        ),
        (
            &["trace", "stencil", "--threads", "2"][..],
            "h=2 must be in 1..=1 (one band row minimum)",
        ),
        (
            &["profile", "stencil", "--threads", "9"][..],
            "h=9 must be in 1..=8 (one band row minimum)",
        ),
    ] {
        let out = emx_cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}

/// Every word `Workload::parse` accepts.
const WORKLOAD_WORDS: [&str; 9] = [
    "sort",
    "bitonic",
    "bitonic-sort",
    "fft",
    "bfs",
    "histogram",
    "hist",
    "spmv",
    "stencil",
];

#[test]
fn every_workload_word_runs_through_the_run_family() {
    for cmd in ["run", "trace", "profile"] {
        for word in WORKLOAD_WORDS {
            let out = emx_cli(&[cmd, word, "--pes", "4", "--n", "256", "--threads", "2"]);
            assert_eq!(
                out.status.code(),
                Some(0),
                "{cmd} {word}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        let out = emx_cli(&[cmd, "foo"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(4), "{cmd} foo: {stderr}");
        assert!(
            stderr.contains("bad workload \"foo\""),
            "{cmd} foo: {stderr}"
        );
    }
}

#[test]
fn fig4_profiles_and_the_metrics_command_is_retired() {
    // `profile` takes the Figure 4 scenario as `trace` does, and ends
    // with its report's digest line.
    let out = emx_cli(&["profile", "fig4"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.starts_with("emx-profile/2\nmeta workload=fig4\n"),
        "{stdout}"
    );
    let last = stdout.lines().last().unwrap_or_default();
    let hex = last.strip_prefix("digest: ").unwrap_or_default();
    assert!(
        hex.len() == 32 && hex.bytes().all(|b| b.is_ascii_hexdigit()),
        "{last:?}"
    );
    // The profile carries what `metrics` printed, so the command is gone.
    let out = emx_cli(&["metrics", "fig4"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn shapes_the_kernels_cannot_run_fail_with_a_message() {
    for (args, message) in [
        (
            &["run", "bfs", "--pes", "0"][..],
            "n=4096 not divisible by P=0",
        ),
        (
            &["run", "bfs", "--pes", "3", "--n", "100"][..],
            "n=100 not divisible by P=3",
        ),
        (
            &["profile", "fft", "--pes", "16", "--n", "2047"][..],
            "n=2047 not divisible by P=16",
        ),
    ] {
        let out = emx_cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}

#[test]
fn latency_reads_must_fit_the_loop_limit() {
    // The read loop's limit is a 16-bit signed immediate: 65537 reads
    // would wrap to one, and zero would loop until the fuel runs out.
    for (reads, message) in [
        ("65537", "reads=65537 must be in 1..=32767"),
        ("32768", "reads=32768 must be in 1..=32767"),
        ("0", "reads=0 must be in 1..=32767"),
    ] {
        let out = emx_cli(&["latency", "--pes", "4", "--reads", reads]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--reads {reads}: {stderr}");
        assert!(stderr.contains(message), "--reads {reads}: {stderr}");
    }
    let out = emx_cli(&["latency", "--pes", "4", "--reads", "32767"]);
    assert_eq!(out.status.code(), Some(0), "--reads 32767");
}

#[test]
fn thirty_two_bit_flags_fail_instead_of_wrapping() {
    // 2^32 + 1 would wrap to 1, and 2^32 + 128 to 128: the run would
    // print what the small value prints.
    let out = emx_cli(&["nullloop", "--packets", "4294967297"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "--packets: {stderr}");
    assert!(
        stderr.contains("--packets 4294967297 out of range"),
        "{stderr}"
    );
    for flag in [
        "dup",
        "delay",
        "max-delay",
        "timeout",
        "backoff-cap",
        "max-attempts",
    ] {
        let flag = format!("--{flag}");
        let out = emx_cli(&[
            "faults",
            "--workload",
            "fft",
            "--pes",
            "2",
            "--sizes",
            "16",
            "--threads",
            "1",
            "--loss",
            "0",
            "--no-cache",
            &flag,
            "4294967424",
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} 4294967424 out of range")),
            "{flag}: {stderr}"
        );
    }
}
