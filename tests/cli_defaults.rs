//! `emx-cli` runs every kernel at its defaults.
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
    for cmd in ["run", "trace", "metrics", "profile"] {
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
            &["metrics", "stencil", "--threads", "2"][..],
            "h=2 must be in 1..=1 (one band row minimum)",
        ),
    ] {
        let out = emx_cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}
