//! `bench-diff`: compare two benchmark trajectory files (`emx-bench/2`)
//! point by point, modeled on `emx-profile`'s `profile-diff`.
//!
//! Field classes drive the comparison:
//!
//! * **deterministic** — `cycles`, the run `digest`, the per-point
//!   hostprof digest, and every `counters`/`host` counter. Hard-compared
//!   against `threshold_ppm` (default 0: these are byte-deterministic,
//!   any drift is a regression or an intentional change that must
//!   regenerate the baseline).
//! * **annotations** — `wall` section values and `wall_ns`. Compared
//!   against `wall_threshold_ppm` and reported as warnings only; they
//!   never affect the outcome.
//!
//! The CLI maps [`DriftKind::Drift`] to exit code 3, like profile drift.

/// Benchmark file schemas `bench-diff` understands.
pub const HOSTPROF_SCHEMAS: [&str; 1] = ["emx-bench/2"];

/// Default hard threshold for deterministic fields: exact match.
pub const DEFAULT_THRESHOLD_PPM: u64 = 0;

/// Default warn threshold for wall-clock annotations: 50%.
pub const DEFAULT_WALL_THRESHOLD_PPM: u64 = 500_000;

/// One benchmark point, already parsed out of the JSON by the caller.
#[derive(Debug, Clone, Default)]
pub struct BenchPoint {
    /// Identity within the file, e.g. `fft p=16 h=4 r=256`.
    pub key: String,
    /// Simulated cycles to completion (deterministic).
    pub cycles: u64,
    /// The run's report digest (deterministic).
    pub digest: String,
    /// The point's `emx-hostprof/1` counters digest, if recorded.
    pub hostprof_digest: Option<String>,
    /// Deterministic counters (`counters` + `host` sections), name→value.
    pub counters: Vec<(String, u64)>,
    /// Wall-clock annotations (`wall` section, `wall_ns`), name→value.
    pub wall: Vec<(String, u64)>,
}

/// A parsed benchmark trajectory file.
#[derive(Debug, Clone, Default)]
pub struct BenchFile {
    /// Schema tag (`emx-bench/2`).
    pub schema: String,
    /// Scale provenance (`quick`/`standard`/`full`).
    pub scale: String,
    /// The points, in file order.
    pub points: Vec<BenchPoint>,
}

/// Severity of a single comparison entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftKind {
    /// Deterministic fields match exactly and annotations are within the
    /// warn threshold.
    Identical,
    /// Deterministic delta within `threshold_ppm`, or an annotation past
    /// the warn threshold — reported, does not fail the gate.
    Warn,
    /// Deterministic drift beyond threshold (or structural mismatch):
    /// fails the gate (exit 3).
    Drift,
}

/// One compared field.
#[derive(Debug, Clone)]
pub struct DiffEntry {
    /// `"<point key> :: <field>"`.
    pub what: String,
    /// Current / baseline renderings (numbers or digests).
    pub current: String,
    /// Baseline value.
    pub baseline: String,
    /// |current − baseline| in parts-per-million of the baseline.
    pub delta_ppm: u64,
    /// Severity of this entry.
    pub kind: DriftKind,
}

/// Full comparison result.
#[derive(Debug, Clone)]
pub struct BenchDiffReport {
    /// Every non-identical entry (drifts first, then warns).
    pub entries: Vec<DiffEntry>,
    /// Overall severity: worst entry kind.
    pub outcome: DriftKind,
    /// Points compared / points only in baseline / only in current.
    pub compared: usize,
    /// Baseline points missing from the current file (hard drift).
    pub missing: usize,
    /// Current points absent from the baseline (warn only).
    pub extra: usize,
}

/// |a − b| in parts-per-million of `b`, rounded *up* so any nonzero
/// delta is at least 1 ppm — a single-count drift on a large counter
/// must not round down to 0 and slip past an exact (0 ppm) threshold.
fn ppm(a: u64, b: u64) -> u64 {
    let delta = a.abs_diff(b) as u128;
    let base = b.max(1) as u128;
    u64::try_from((delta * 1_000_000).div_ceil(base)).unwrap_or(u64::MAX)
}

/// Compare `current` against `baseline`. Points are matched by `key`;
/// baseline points missing from `current` are hard drift, extra current
/// points are warnings (a grown matrix should regenerate the baseline
/// but must not mask regressions in the overlap).
pub fn diff_bench(
    current: &BenchFile,
    baseline: &BenchFile,
    threshold_ppm: u64,
    wall_threshold_ppm: u64,
) -> BenchDiffReport {
    let mut entries = Vec::new();
    let mut compared = 0usize;
    let mut missing = 0usize;
    let mut extra = 0usize;

    if current.schema != baseline.schema {
        entries.push(DiffEntry {
            what: "schema".into(),
            current: current.schema.clone(),
            baseline: baseline.schema.clone(),
            delta_ppm: u64::MAX,
            kind: DriftKind::Drift,
        });
    }
    if current.scale != baseline.scale {
        entries.push(DiffEntry {
            what: "scale".into(),
            current: current.scale.clone(),
            baseline: baseline.scale.clone(),
            delta_ppm: u64::MAX,
            kind: DriftKind::Drift,
        });
    }

    for base in &baseline.points {
        let Some(cur) = current.points.iter().find(|p| p.key == base.key) else {
            missing += 1;
            entries.push(DiffEntry {
                what: format!("{} :: point", base.key),
                current: "<missing>".into(),
                baseline: "present".into(),
                delta_ppm: u64::MAX,
                kind: DriftKind::Drift,
            });
            continue;
        };
        compared += 1;
        compare_num(
            &mut entries,
            &base.key,
            "cycles",
            cur.cycles,
            base.cycles,
            threshold_ppm,
            false,
        );
        compare_str(&mut entries, &base.key, "digest", &cur.digest, &base.digest);
        if let (Some(c), Some(b)) = (&cur.hostprof_digest, &base.hostprof_digest) {
            compare_str(&mut entries, &base.key, "hostprof_digest", c, b);
        }
        for (name, bval) in &base.counters {
            match cur.counters.iter().find(|(n, _)| n == name) {
                Some((_, cval)) => compare_num(
                    &mut entries,
                    &base.key,
                    name,
                    *cval,
                    *bval,
                    threshold_ppm,
                    false,
                ),
                None => entries.push(DiffEntry {
                    what: format!("{} :: {name}", base.key),
                    current: "<missing>".into(),
                    baseline: bval.to_string(),
                    delta_ppm: u64::MAX,
                    kind: DriftKind::Drift,
                }),
            }
        }
        for (name, bval) in &base.wall {
            if let Some((_, cval)) = cur.wall.iter().find(|(n, _)| n == name) {
                compare_num(
                    &mut entries,
                    &base.key,
                    name,
                    *cval,
                    *bval,
                    wall_threshold_ppm,
                    true,
                );
            }
        }
    }
    for cur in &current.points {
        if !baseline.points.iter().any(|p| p.key == cur.key) {
            extra += 1;
            entries.push(DiffEntry {
                what: format!("{} :: point", cur.key),
                current: "present".into(),
                baseline: "<missing>".into(),
                delta_ppm: 0,
                kind: DriftKind::Warn,
            });
        }
    }

    entries.sort_by_key(|e| match e.kind {
        DriftKind::Drift => 0,
        DriftKind::Warn => 1,
        DriftKind::Identical => 2,
    });
    let outcome = if entries.iter().any(|e| e.kind == DriftKind::Drift) {
        DriftKind::Drift
    } else if entries.iter().any(|e| e.kind == DriftKind::Warn) {
        DriftKind::Warn
    } else {
        DriftKind::Identical
    };
    BenchDiffReport {
        entries,
        outcome,
        compared,
        missing,
        extra,
    }
}

fn compare_num(
    entries: &mut Vec<DiffEntry>,
    key: &str,
    field: &str,
    cur: u64,
    base: u64,
    threshold_ppm: u64,
    annotation: bool,
) {
    if cur == base {
        return;
    }
    let delta = ppm(cur, base);
    let kind = if annotation {
        if delta > threshold_ppm {
            DriftKind::Warn
        } else {
            return;
        }
    } else if delta > threshold_ppm {
        DriftKind::Drift
    } else {
        DriftKind::Warn
    };
    entries.push(DiffEntry {
        what: format!("{key} :: {field}"),
        current: cur.to_string(),
        baseline: base.to_string(),
        delta_ppm: delta,
        kind,
    });
}

fn compare_str(entries: &mut Vec<DiffEntry>, key: &str, field: &str, cur: &str, base: &str) {
    if cur != base {
        entries.push(DiffEntry {
            what: format!("{key} :: {field}"),
            current: cur.into(),
            baseline: base.into(),
            delta_ppm: u64::MAX,
            kind: DriftKind::Drift,
        });
    }
}

impl BenchDiffReport {
    /// Human-readable rendering, `!` marking hard drifts and `~` warns.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "bench-diff: {} point(s) compared, {} missing, {} extra\n",
            self.compared, self.missing, self.extra
        ));
        for e in &self.entries {
            let mark = match e.kind {
                DriftKind::Drift => '!',
                DriftKind::Warn => '~',
                DriftKind::Identical => ' ',
            };
            let delta = if e.delta_ppm == u64::MAX {
                "∞".to_string()
            } else {
                format!("{} ppm", e.delta_ppm)
            };
            s.push_str(&format!(
                "{mark} {}: current={} baseline={} (Δ {delta})\n",
                e.what, e.current, e.baseline
            ));
        }
        let verdict = match self.outcome {
            DriftKind::Identical => "IDENTICAL",
            DriftKind::Warn => "WITHIN THRESHOLD (annotations may have drifted)",
            DriftKind::Drift => "DRIFT — deterministic fields diverged",
        };
        s.push_str(&format!("verdict: {verdict}\n"));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(key: &str, cycles: u64, pushes: u64, wall: u64) -> BenchPoint {
        BenchPoint {
            key: key.into(),
            cycles,
            digest: "d0".repeat(16),
            hostprof_digest: Some("a1".repeat(16)),
            counters: vec![("calendar.pushes".into(), pushes)],
            wall: vec![("wall_ns".into(), wall)],
        }
    }

    fn file(points: Vec<BenchPoint>) -> BenchFile {
        BenchFile {
            schema: "emx-bench/2".into(),
            scale: "quick".into(),
            points,
        }
    }

    #[test]
    fn identical_files() {
        let a = file(vec![point("fft h=1", 100, 50, 1000)]);
        let r = diff_bench(&a, &a.clone(), 0, DEFAULT_WALL_THRESHOLD_PPM);
        assert_eq!(r.outcome, DriftKind::Identical);
        assert_eq!(r.compared, 1);
        assert!(r.entries.is_empty());
    }

    #[test]
    fn counter_drift_is_hard() {
        let base = file(vec![point("fft h=1", 100, 50, 1000)]);
        let cur = file(vec![point("fft h=1", 100, 51, 1000)]);
        let r = diff_bench(&cur, &base, 0, DEFAULT_WALL_THRESHOLD_PPM);
        assert_eq!(r.outcome, DriftKind::Drift);
        assert!(r.render().contains("! fft h=1 :: calendar.pushes"));
    }

    #[test]
    fn wall_drift_is_warn_only() {
        let base = file(vec![point("fft h=1", 100, 50, 1000)]);
        let cur = file(vec![point("fft h=1", 100, 50, 9000)]);
        let r = diff_bench(&cur, &base, 0, DEFAULT_WALL_THRESHOLD_PPM);
        assert_eq!(r.outcome, DriftKind::Warn);
        assert!(r.render().contains("~ fft h=1 :: wall_ns"));
    }

    #[test]
    fn small_wall_drift_is_silent() {
        let base = file(vec![point("fft h=1", 100, 50, 1000)]);
        let cur = file(vec![point("fft h=1", 100, 50, 1100)]);
        let r = diff_bench(&cur, &base, 0, DEFAULT_WALL_THRESHOLD_PPM);
        assert_eq!(r.outcome, DriftKind::Identical);
    }

    #[test]
    fn digest_mismatch_and_missing_point() {
        let base = file(vec![
            point("fft h=1", 100, 50, 1000),
            point("fft h=4", 100, 50, 1000),
        ]);
        let mut cur = file(vec![point("fft h=1", 100, 50, 1000)]);
        cur.points[0].digest = "ff".repeat(16);
        let r = diff_bench(&cur, &base, 0, DEFAULT_WALL_THRESHOLD_PPM);
        assert_eq!(r.outcome, DriftKind::Drift);
        assert_eq!(r.missing, 1);
        assert!(r.render().contains(":: digest"));
    }

    #[test]
    fn cycles_within_nonzero_threshold_is_warn() {
        let base = file(vec![point("fft h=1", 1_000_000, 50, 1000)]);
        let cur = file(vec![point("fft h=1", 1_000_010, 50, 1000)]);
        let r = diff_bench(&cur, &base, 20, DEFAULT_WALL_THRESHOLD_PPM);
        assert_eq!(r.outcome, DriftKind::Warn);
    }

    #[test]
    fn schema_or_scale_mismatch_is_drift() {
        let base = file(vec![]);
        let mut cur = file(vec![]);
        cur.scale = "standard".into();
        let r = diff_bench(&cur, &base, 0, DEFAULT_WALL_THRESHOLD_PPM);
        assert_eq!(r.outcome, DriftKind::Drift);
    }

    #[test]
    fn extra_point_is_warn() {
        let base = file(vec![point("fft h=1", 100, 50, 1000)]);
        let cur = file(vec![
            point("fft h=1", 100, 50, 1000),
            point("fft h=4", 90, 50, 900),
        ]);
        let r = diff_bench(&cur, &base, 0, DEFAULT_WALL_THRESHOLD_PPM);
        assert_eq!(r.outcome, DriftKind::Warn);
        assert_eq!(r.extra, 1);
    }
}
