//! Comparing two `emx-profile/2` reports: the drift gate behind
//! `emx-cli profile-diff`, a field list over [`emx_stats::diff`].
//!
//! The comparison is deliberately narrow — it checks the handful of
//! numbers that constitute the profile's *conclusion*, not every bucket:
//! the machine-level attribution shares and the critical path's share of
//! the makespan (absolute, in ppm points), the run length (relative, in
//! ppm of the baseline), the dominant remote-read stall phase, and the
//! machine size. A shift beyond the threshold in any of these means the
//! performance *story* changed; bucket-level churn below that bar is
//! noise, so a changed digest alone only warns.

use emx_stats::diff::{Diff, Verdict};

use crate::report::{ParsedProfile, CLASS_NAMES};

/// Default drift threshold: 20 000 ppm = 2 percentage points.
pub const DEFAULT_THRESHOLD_PPM: u64 = 20_000;

/// Compare `current` against `baseline` under a drift threshold in ppm.
pub fn diff_profiles(current: &ParsedProfile, baseline: &ParsedProfile, limit: u64) -> Diff {
    let (cur, base) = (current, baseline);
    let mut d = Diff {
        title: format!("profile-diff: {} PEs, threshold {limit} ppm", base.pes),
        ..Diff::default()
    };
    d.text("digest", &cur.digest, &base.digest, Verdict::Warn);
    d.count("pes", cur.pes, base.pes, 0);
    for (i, name) in CLASS_NAMES.iter().enumerate() {
        let (c, b) = (cur.shares_ppm[i], base.shares_ppm[i]);
        d.gate(format!("share {name}"), c, b, c.abs_diff(b), limit);
    }
    let (c, b) = (cur.crit_share_ppm, base.crit_share_ppm);
    d.gate("critical-path share", c, b, c.abs_diff(b), limit);
    d.count("elapsed", cur.elapsed, base.elapsed, limit);
    d.text("dominant", &cur.dominant, &base.dominant, Verdict::Drift);
    d
}
