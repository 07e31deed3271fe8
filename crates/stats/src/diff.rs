//! The drift comparator behind the report gate: `profile-diff`
//! (`emx-profile/2`) is a field list over [`Diff`]. Equal quantities
//! record nothing, and the worst recorded entry is the [`Verdict`].
//! `docs/OBSERVABILITY.md` § "Drift gate" gives the rules and the exit
//! codes the CLI maps verdicts to.

use std::cmp::Reverse;

/// Severity of a comparison, ordered: the worst entry decides a diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Nothing differs.
    Identical,
    /// A difference within its threshold, or in a value that only warns:
    /// reported, passes the gate.
    Warn,
    /// A gated quantity beyond its threshold, or a changed pinned value:
    /// fails the gate.
    Drift,
}

/// One quantity that differs between the current and the baseline report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffEntry {
    /// What was compared, e.g. `share wait` or `elapsed`.
    pub what: String,
    /// The current report's value.
    pub current: String,
    /// The baseline report's value.
    pub baseline: String,
    /// The change in ppm; `None` for a value that only matches or not.
    pub delta_ppm: Option<u64>,
    /// Severity of this entry.
    pub verdict: Verdict,
}

/// |current − baseline| in ppm of the baseline (a zero baseline counts as
/// 1), rounded up so that any change is at least 1 ppm and never slips
/// past an exact gate, and saturating at `u64::MAX`.
pub fn delta_ppm(current: u64, baseline: u64) -> u64 {
    let delta = u128::from(current.abs_diff(baseline)) * 1_000_000;
    u64::try_from(delta.div_ceil(u128::from(baseline.max(1)))).unwrap_or(u64::MAX)
}

/// The differing entries of one comparison, under a one-line title.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diff {
    /// First line of the rendering: the gate and its summary.
    pub title: String,
    /// Every quantity that differs, in comparison order.
    pub entries: Vec<DiffEntry>,
}

impl Diff {
    /// Gate a number that moved by `delta` ppm: drift beyond `limit`, a
    /// warning at or under it.
    pub fn gate(&mut self, what: impl Into<String>, cur: u64, base: u64, delta: u64, limit: u64) {
        if cur != base {
            let verdict = if delta > limit {
                Verdict::Drift
            } else {
                Verdict::Warn
            };
            self.push(what, cur, base, Some(delta), verdict);
        }
    }

    /// Gate a count by its [`delta_ppm`].
    pub fn count(&mut self, what: impl Into<String>, cur: u64, base: u64, limit: u64) {
        self.gate(what, cur, base, delta_ppm(cur, base), limit);
    }

    /// A value that must match: a mismatch records `verdict`.
    pub fn text(&mut self, what: impl Into<String>, cur: &str, base: &str, verdict: Verdict) {
        if cur != base {
            self.push(what, cur, base, None, verdict);
        }
    }

    fn push(
        &mut self,
        what: impl Into<String>,
        cur: impl ToString,
        base: impl ToString,
        delta_ppm: Option<u64>,
        verdict: Verdict,
    ) {
        self.entries.push(DiffEntry {
            what: what.into(),
            current: cur.to_string(),
            baseline: base.to_string(),
            delta_ppm,
            verdict,
        });
    }

    /// The worst entry's verdict; [`Verdict::Identical`] when none differ.
    pub fn verdict(&self) -> Verdict {
        let worst = self.entries.iter().map(|e| e.verdict).max();
        worst.unwrap_or(Verdict::Identical)
    }

    /// The title, one line per entry (drifts first, marked `!`; warnings
    /// marked `~`), and a `verdict:` line.
    pub fn render(&self) -> String {
        let mut entries: Vec<&DiffEntry> = self.entries.iter().collect();
        entries.sort_by_key(|e| Reverse(e.verdict));
        let mut s = format!("{}\n", self.title);
        for e in entries {
            let mark = if e.verdict == Verdict::Drift {
                '!'
            } else {
                '~'
            };
            s.push_str(&format!(
                "{mark} {}: current={} baseline={}",
                e.what, e.current, e.baseline
            ));
            if let Some(d) = e.delta_ppm {
                s.push_str(&format!(" (Δ {d} ppm)"));
            }
            s.push('\n');
        }
        s.push_str(match self.verdict() {
            Verdict::Identical => "verdict: IDENTICAL\n",
            Verdict::Warn => "verdict: WITHIN THRESHOLD\n",
            Verdict::Drift => "verdict: DRIFT\n",
        });
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_rounds_up_and_saturates() {
        assert_eq!(delta_ppm(5, 5), 0);
        assert_eq!(delta_ppm(2_000_001, 2_000_000), 1);
        assert_eq!(delta_ppm(110, 100), 100_000);
        assert_eq!(delta_ppm(1, 0), 1_000_000);
        assert_eq!(delta_ppm(u64::MAX, 0), u64::MAX);
    }

    #[test]
    fn the_worst_entry_decides_and_renders_first() {
        let mut d = Diff::default();
        d.count("same", 7, 7, 0);
        assert_eq!(d.verdict(), Verdict::Identical, "nothing recorded");
        d.gate("share busy", 510_000, 500_000, 10_000, 20_000);
        d.text("digest", "ab", "cd", Verdict::Drift);
        assert_eq!(
            d.render(),
            "\n! digest: current=ab baseline=cd\n\
             ~ share busy: current=510000 baseline=500000 (Δ 10000 ppm)\nverdict: DRIFT\n"
        );
    }
}
