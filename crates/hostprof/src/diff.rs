//! `bench-diff`: compare two benchmark trajectory files (`emx-bench/2`)
//! point by point — a field list over [`emx_stats::diff`].
//!
//! The deterministic fields — `cycles`, the run `digest`, the per-point
//! hostprof digest, and every `counters`/`host` counter — are gated by
//! `limit` (default 0: they are byte-deterministic, so any drift is a
//! regression or an intentional change that must regenerate the
//! baseline). The annotations — `wall_ns` and the `wall` section — only
//! warn past `wall_limit`.

use emx_stats::diff::{Diff, Verdict};

use crate::bench::BenchFile;

/// Default hard threshold for deterministic fields: exact match.
pub const DEFAULT_THRESHOLD_PPM: u64 = 0;

/// Default warn threshold for wall-clock annotations: 50%.
pub const DEFAULT_WALL_THRESHOLD_PPM: u64 = 500_000;

/// Compare `current` against `baseline`. Points are matched by
/// [`key`](crate::BenchPoint::key); baseline points missing from
/// `current` are hard drift, extra current points are warnings (a grown
/// matrix should regenerate the baseline but must not mask regressions in
/// the overlap).
pub fn diff_bench(current: &BenchFile, baseline: &BenchFile, limit: u64, wall_limit: u64) -> Diff {
    let mut d = Diff::default();
    d.text("scale", &current.scale, &baseline.scale, Verdict::Drift);
    let (mut compared, mut missing) = (0, 0);
    for base in &baseline.points {
        let key = base.key();
        let at = |field: &str| format!("{key} :: {field}");
        let Some(cur) = current.points.iter().find(|p| p.key() == key) else {
            missing += 1;
            d.text(at("point"), "<missing>", "present", Verdict::Drift);
            continue;
        };
        compared += 1;
        d.count(at("cycles"), cur.cycles, base.cycles, limit);
        d.text(at("digest"), &cur.digest, &base.digest, Verdict::Drift);
        let (c, b) = (&cur.hostprof_digest, &base.hostprof_digest);
        d.text(at("hostprof_digest"), c, b, Verdict::Drift);
        for (cs, bs) in [(&cur.counters, &base.counters), (&cur.host, &base.host)] {
            for (name, b) in bs {
                match cs.iter().find(|(n, _)| n == name) {
                    Some((_, c)) => d.count(at(name), *c, *b, limit),
                    None => d.text(at(name), "<missing>", &b.to_string(), Verdict::Drift),
                }
            }
        }
        d.annotation(at("wall_ns"), cur.wall_ns, base.wall_ns, wall_limit);
        for (name, b) in &base.wall {
            if let Some((_, c)) = cur.wall.iter().find(|(n, _)| n == name) {
                d.annotation(at(name), *c, *b, wall_limit);
            }
        }
    }
    let mut extra = 0;
    for cur in &current.points {
        let key = cur.key();
        if !baseline.points.iter().any(|p| p.key() == key) {
            extra += 1;
            d.text(key + " :: point", "present", "<missing>", Verdict::Warn);
        }
    }
    d.title = format!("bench-diff: {compared} point(s) compared, {missing} missing, {extra} extra");
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::BenchPoint;

    fn point(h: u64, cycles: u64, pushes: u64, wall_ns: u64) -> BenchPoint {
        BenchPoint {
            workload: "fft".into(),
            p: 16,
            h,
            r: 256,
            n: 4096,
            cycles,
            wall_ns,
            digest: "d0".repeat(16),
            hostprof_digest: "a1".repeat(16),
            counters: vec![("calendar.pushes".into(), pushes)],
            ..BenchPoint::default()
        }
    }

    fn file(points: Vec<BenchPoint>) -> BenchFile {
        BenchFile {
            scale: "quick".into(),
            points,
            ..BenchFile::default()
        }
    }

    #[test]
    fn identical_files() {
        let a = file(vec![point(1, 100, 50, 1000)]);
        let r = diff_bench(&a, &a.clone(), 0, DEFAULT_WALL_THRESHOLD_PPM);
        assert_eq!(r.verdict(), Verdict::Identical);
        assert!(r.title.contains("1 point(s) compared"));
        assert!(r.entries.is_empty());
    }

    #[test]
    fn counter_drift_is_hard() {
        let base = file(vec![point(1, 100, 50, 1000)]);
        let cur = file(vec![point(1, 100, 51, 1000)]);
        let r = diff_bench(&cur, &base, 0, DEFAULT_WALL_THRESHOLD_PPM);
        assert_eq!(r.verdict(), Verdict::Drift);
        assert!(r
            .render()
            .contains("! fft p=16 h=1 r=256 :: calendar.pushes"));
    }

    #[test]
    fn wall_drift_is_warn_only() {
        let base = file(vec![point(1, 100, 50, 1000)]);
        let cur = file(vec![point(1, 100, 50, 9000)]);
        let r = diff_bench(&cur, &base, 0, DEFAULT_WALL_THRESHOLD_PPM);
        assert_eq!(r.verdict(), Verdict::Warn);
        assert!(r.render().contains("~ fft p=16 h=1 r=256 :: wall_ns"));
    }

    #[test]
    fn small_wall_drift_is_silent() {
        let base = file(vec![point(1, 100, 50, 1000)]);
        let cur = file(vec![point(1, 100, 50, 1100)]);
        let r = diff_bench(&cur, &base, 0, DEFAULT_WALL_THRESHOLD_PPM);
        assert_eq!(r.verdict(), Verdict::Identical);
    }

    #[test]
    fn digest_mismatch_and_missing_point() {
        let base = file(vec![point(1, 100, 50, 1000), point(4, 100, 50, 1000)]);
        let mut cur = file(vec![point(1, 100, 50, 1000)]);
        cur.points[0].digest = "ff".repeat(16);
        let r = diff_bench(&cur, &base, 0, DEFAULT_WALL_THRESHOLD_PPM);
        assert_eq!(r.verdict(), Verdict::Drift);
        assert!(r.title.contains("1 missing"));
        assert!(r.render().contains(":: digest"));
    }

    #[test]
    fn cycles_within_nonzero_threshold_is_warn() {
        let base = file(vec![point(1, 1_000_000, 50, 1000)]);
        let cur = file(vec![point(1, 1_000_010, 50, 1000)]);
        let r = diff_bench(&cur, &base, 20, DEFAULT_WALL_THRESHOLD_PPM);
        assert_eq!(r.verdict(), Verdict::Warn);
    }

    #[test]
    fn schema_or_scale_mismatch_is_drift() {
        // A foreign schema is a parse error (`BenchFile::parse`); a scale
        // mismatch parses and is drift.
        let base = file(vec![]);
        let mut cur = file(vec![]);
        cur.scale = "standard".into();
        let r = diff_bench(&cur, &base, 0, DEFAULT_WALL_THRESHOLD_PPM);
        assert_eq!(r.verdict(), Verdict::Drift);
    }

    #[test]
    fn extra_point_is_warn() {
        let base = file(vec![point(1, 100, 50, 1000)]);
        let cur = file(vec![point(1, 100, 50, 1000), point(4, 90, 50, 900)]);
        let r = diff_bench(&cur, &base, 0, DEFAULT_WALL_THRESHOLD_PPM);
        assert_eq!(r.verdict(), Verdict::Warn);
        assert!(r.title.contains("1 extra"));
    }
}
