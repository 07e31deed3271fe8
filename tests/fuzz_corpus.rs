//! Regression corpus replay plus campaign-level determinism checks.
//!
//! Every committed `.emxfuzz` case under `tests/corpus/` pins the oracle
//! verdict (and usually the reference trace digest) it produced when it
//! was minimized. Replaying the corpus on every CI run turns each past
//! finding — and each deliberately constructed oracle exercise — into a
//! permanent regression test.

use emx::fuzz::{run_campaign, run_case, CampaignOptions, CaseSpec};

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/corpus")
        .canonicalize()
        .expect("tests/corpus directory exists")
}

fn corpus_files() -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(corpus_dir())
        .expect("readable corpus directory")
        .map(|e| e.expect("readable corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "emxfuzz"))
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_is_committed_and_nonempty() {
    let files = corpus_files();
    assert!(
        files.len() >= 3,
        "expected at least 3 committed corpus cases, found {}",
        files.len()
    );
}

#[test]
fn corpus_cases_reproduce_their_pinned_outcomes() {
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).unwrap();
        let case = CaseSpec::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let expect = case
            .expect
            .clone()
            .unwrap_or_else(|| panic!("{}: corpus case pins no expectation", path.display()));
        let outcome = run_case(&case, false);
        assert_eq!(
            outcome.verdict.as_str(),
            expect.verdict,
            "{}: verdict drifted ({})",
            path.display(),
            outcome.detail
        );
        if let Some(d) = &expect.trace_digest {
            assert_eq!(
                &outcome.trace_digest,
                d,
                "{}: reference trace digest drifted",
                path.display()
            );
        }
    }
}

#[test]
fn out_of_range_numbers_and_surplus_operands_are_rejected_by_line() {
    let text = std::fs::read_to_string(corpus_dir().join("pass-mesh-rmw.emxfuzz")).unwrap();
    for (from, to) in [
        // A pe that only fits after wrapping to 16 bits.
        ("read:5,64", "read:65541,64"),
        // A root whose pe and arg wrap to 3 and 2.
        ("root = 3,0,2", "root = 65539,0,4294967298"),
        // Surplus operands on an op that takes two, and on one that takes none.
        ("read:5,64", "read:5,64,77"),
        (" yield ", " yield:9 "),
        // A fault rate that wraps to 0, and a surplus retry operand.
        ("drop:0", "drop:4294967296"),
        ("retry:64,4096,0", "retry:64,4096,0,1"),
    ] {
        let mutant = text.replacen(from, to, 1);
        assert_ne!(mutant, text, "{from:?} occurs in the case");
        let line = 1 + mutant.lines().position(|l| l.contains(to.trim())).unwrap();
        let err = CaseSpec::parse(&mutant).expect_err(to);
        assert!(err.starts_with(&format!("line {line}: ")), "{to}: {err}");
    }
}

#[test]
fn corpus_files_roundtrip_through_the_text_format() {
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).unwrap();
        let case = CaseSpec::parse(&text).unwrap();
        let reparsed = CaseSpec::parse(&case.to_text())
            .unwrap_or_else(|e| panic!("{}: re-parse failed: {e}", path.display()));
        assert_eq!(
            case,
            reparsed,
            "{}: format round trip drifted",
            path.display()
        );
    }
}

/// Two PEs, by-pass service, no faults: one halo exchange whose blocks
/// land at the last 32-bit offset, so the second block's destination
/// would pass it.
const HALO_PAST_THE_LAST_OFFSET: &str = "\
emx-fuzz/2
name = halo-past-the-last-offset
seed = 1
pes = 2
net = omega
ibu = 8
frames = 8
mem = 4096
fuel = 5000000
service = bypass
prio-responses = false
seq-cells = 0
barrier-participants = 0
faults = fseed:1 drop:0 dup:0 delay:0,0 spill:0 dma:0,0 cap:none retry:0,0,0
prog 0 = halo:0,4,4294967295
root = 0,0,0
";

/// A block-read destination past `u32::MAX` is a memory fault in every
/// build, not an overflow panic in the oracle. The case lives here rather
/// than in `tests/corpus/`, which stays as it was.
#[test]
fn a_halo_destination_past_the_last_offset_is_a_memory_fault() {
    let case = CaseSpec::parse(HALO_PAST_THE_LAST_OFFSET).unwrap();
    let outcome = run_case(&case, false);
    assert_eq!(
        outcome.verdict.as_str(),
        "error:memory-fault",
        "{}",
        outcome.detail
    );
    assert_eq!(outcome.trace_digest, "2e249155529fbea6eb3ad9f61327d37d");
}

#[test]
fn campaign_digest_is_reproducible() {
    let opts = CampaignOptions {
        cases: 40,
        seed: 7,
        perturb_replay: false,
    };
    let a = run_campaign(&opts);
    let b = run_campaign(&opts);
    assert_eq!(a.failure_count(), 0, "unexpected failures:\n{}", a.render());
    assert_eq!(a.render(), b.render());
}

#[test]
fn perturbation_hook_is_caught_by_the_oracle() {
    let clean = run_campaign(&CampaignOptions {
        cases: 20,
        seed: 7,
        perturb_replay: false,
    });
    let perturbed = run_campaign(&CampaignOptions {
        cases: 20,
        seed: 7,
        perturb_replay: true,
    });
    assert!(
        perturbed.failure_count() > 0,
        "a one-cycle latency perturbation must surface as digest mismatches"
    );
    assert_ne!(clean.digest, perturbed.digest);
}
