//! Campaign driver: generate N cases, run the three-way oracle on each,
//! and fold every per-case result into one reproducible summary digest.
//!
//! The summary is byte-deterministic: the same `(cases, seed)` pair always
//! produces the same text, ending in the canonical `digest:` line, so CI
//! can assert a single string instead of archiving full logs.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use emx_faults::Rng64;
use emx_stats::digest::Digest128;

use crate::case::CaseSpec;
use crate::gen::generate;
use crate::oracle::{run_case, CaseOutcome, Verdict};

/// Knobs for one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Number of cases to generate and execute.
    pub cases: usize,
    /// Base seed; per-case seeds are derived from it deterministically.
    pub seed: u64,
    /// Test-only mutation hook: perturb the replay arm's network latency by
    /// one cycle. A sound oracle then reports digest mismatches.
    pub perturb_replay: bool,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            cases: 100,
            seed: 7,
            perturb_replay: false,
        }
    }
}

/// One failing case, kept for reporting and shrinking.
#[derive(Debug, Clone)]
pub struct CampaignFailure {
    /// Campaign-local index of the case.
    pub index: usize,
    /// The case's generator seed.
    pub case_seed: u64,
    /// The failing case itself (pre-shrink).
    pub case: CaseSpec,
    /// The oracle's judgement.
    pub outcome: CaseOutcome,
}

/// Aggregated result of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignSummary {
    /// Cases executed.
    pub cases: usize,
    /// Base seed the campaign ran under.
    pub seed: u64,
    /// Count per verdict string, sorted by verdict.
    pub counts: BTreeMap<String, usize>,
    /// Every failing case, in campaign order.
    pub failures: Vec<CampaignFailure>,
    /// 32-hex digest over every canonical per-case line.
    pub digest: String,
}

impl CampaignSummary {
    /// Total oracle failures.
    pub fn failure_count(&self) -> usize {
        self.failures.len()
    }

    /// Render the byte-deterministic summary text. Ends with the canonical
    /// `digest:` line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fuzz campaign: cases={} seed={}\n",
            self.cases, self.seed
        ));
        for (verdict, n) in &self.counts {
            out.push_str(&format!("  {verdict}: {n}\n"));
        }
        for f in &self.failures {
            out.push_str(&format!(
                "  FAIL case {:06} seed={:016x} verdict={} {}\n",
                f.index, f.case_seed, f.outcome.verdict, f.outcome.detail
            ));
        }
        out.push_str(&format!("failures: {}\n", self.failures.len()));
        out.push_str(&format!("digest: {}\n", self.digest));
        out
    }
}

/// Derive the generator seed for case `index` of a campaign.
pub fn case_seed(base: u64, index: usize) -> u64 {
    Rng64::new(base ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Run one case defensively: a panic anywhere in the simulator becomes a
/// [`Verdict::Panic`] outcome instead of tearing the campaign down.
fn run_guarded(case: &CaseSpec, perturb_replay: bool) -> CaseOutcome {
    let result = catch_unwind(AssertUnwindSafe(|| run_case(case, perturb_replay)));
    match result {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            CaseOutcome {
                verdict: Verdict::Panic,
                trace_digest: "-".repeat(32),
                detail: msg.lines().next().unwrap_or_default().to_string(),
            }
        }
    }
}

/// Execute a full campaign.
pub fn run_campaign(opts: &CampaignOptions) -> CampaignSummary {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut failures = Vec::new();
    let mut digest = Digest128::new();
    for index in 0..opts.cases {
        let cseed = case_seed(opts.seed, index);
        // Generation itself runs under the panic guard too: an ill-formed
        // generator is a harness bug the campaign must record, not hide.
        let generated = catch_unwind(AssertUnwindSafe(|| generate(cseed)));
        let (case, outcome) = match generated {
            Ok(case) => {
                let outcome = run_guarded(&case, opts.perturb_replay);
                (case, outcome)
            }
            Err(_) => (
                CaseSpec::empty(format!("gen-panic-{cseed:016x}"), 1),
                CaseOutcome {
                    verdict: Verdict::Panic,
                    trace_digest: "-".repeat(32),
                    detail: "generator panicked".into(),
                },
            ),
        };
        let line = format!(
            "case {index:06} seed={cseed:016x} verdict={} digest={}",
            outcome.verdict, outcome.trace_digest
        );
        digest.write_str(&line);
        digest.write_str("\n");
        *counts.entry(outcome.verdict.as_str()).or_insert(0) += 1;
        if outcome.verdict.is_failure() {
            failures.push(CampaignFailure {
                index,
                case_seed: cseed,
                case,
                outcome,
            });
        }
    }
    CampaignSummary {
        cases: opts.cases,
        seed: opts.seed,
        counts,
        failures,
        digest: digest.hex(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_summary_is_deterministic() {
        let opts = CampaignOptions {
            cases: 10,
            seed: 7,
            perturb_replay: false,
        };
        let a = run_campaign(&opts);
        let b = run_campaign(&opts);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn small_campaign_has_no_oracle_failures() {
        let summary = run_campaign(&CampaignOptions {
            cases: 25,
            seed: 11,
            perturb_replay: false,
        });
        assert_eq!(
            summary.failure_count(),
            0,
            "unexpected failures:\n{}",
            summary.render()
        );
    }

    #[test]
    fn perturbed_replay_is_caught() {
        let clean = run_campaign(&CampaignOptions {
            cases: 15,
            seed: 7,
            perturb_replay: false,
        });
        let perturbed = run_campaign(&CampaignOptions {
            cases: 15,
            seed: 7,
            perturb_replay: true,
        });
        assert!(
            perturbed.failure_count() > 0,
            "latency perturbation went undetected:\n{}",
            perturbed.render()
        );
        assert_ne!(clean.digest, perturbed.digest);
    }

    #[test]
    fn case_seed_is_stable() {
        assert_eq!(case_seed(7, 0), case_seed(7, 0));
        assert_ne!(case_seed(7, 0), case_seed(7, 1));
        assert_ne!(case_seed(7, 1), case_seed(8, 1));
    }
}
