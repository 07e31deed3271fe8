//! Set files — every workload's result from one `run` or `trace` — and
//! `compare`, which applies the bounds in `BENCHMARK.json` to two groups
//! of them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use emx::obs::{parse_json, JsonValue};

use crate::catalog::Spec;
use crate::stats::{quartiles, spread};

/// Schema tag of a set file.
pub const SET_SCHEMA: &str = "emx-benchmark/1";

/// One workload's result within a set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub reps: u64,
    /// `(name, value, unit)` in the order the run printed them.
    pub metrics: Vec<(String, f64, String)>,
    pub fingerprints: BTreeMap<String, String>,
    /// Replay-fidelity checks of a traced run: `pass`, `FAIL` or `n/a`.
    pub checks: BTreeMap<String, String>,
}

impl WorkloadResult {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// Every workload's result from one `run` or `trace` invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SetFile {
    pub mode: String,
    pub seed: u64,
    pub seconds: u64,
    pub host_threads: u64,
    pub workloads: Vec<(String, WorkloadResult)>,
}

impl SetFile {
    pub fn workload(&self, name: &str) -> Option<&WorkloadResult> {
        self.workloads
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| r)
    }
}

/// A JSON string literal (names, units and hex digests need no escapes
/// beyond these).
fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn object(pairs: impl IntoIterator<Item = (String, String)>) -> String {
    let body: Vec<String> = pairs
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", quote(&k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn metrics_object(r: &WorkloadResult) -> String {
    object(r.metrics.iter().map(|(n, v, u)| {
        (
            n.clone(),
            format!("{{\"value\": {v}, \"unit\": {}}}", quote(u)),
        )
    }))
}

/// What a single-workload run prints: one line per metric
/// (`<workload> <metric> <value> <unit>`), then its rep count, its
/// fingerprints and its checks, and last the one-line result object.
pub fn print_lines(workload: &str, r: &WorkloadResult) -> Vec<String> {
    let mut lines: Vec<String> = r
        .metrics
        .iter()
        .map(|(n, v, u)| format!("{workload} {n} {v} {u}"))
        .collect();
    lines.push(format!("{workload} reps {}", r.reps));
    for (k, v) in &r.fingerprints {
        lines.push(format!("{workload} fingerprint {k} {v}"));
    }
    for (k, v) in &r.checks {
        lines.push(format!("{workload} check {k} {v}"));
    }
    lines.push(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics_object(r)
    ));
    lines
}

/// Read back what [`print_lines`] printed for `workload`: the result
/// object on the last line, everything else from the lines before it.
pub fn parse_lines(workload: &str, text: &str) -> Result<WorkloadResult, String> {
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().ok_or("no output")?;
    let head = parse_result(&parse_json(last)?)?;
    let mut r = WorkloadResult {
        correct: head.correct,
        attempted: head.attempted,
        failed: head.failed,
        ..WorkloadResult::default()
    };
    for line in lines {
        let t: Vec<&str> = line.split_whitespace().collect();
        match t.as_slice() {
            [w, "reps", n] if *w == workload => {
                r.reps = n.parse().map_err(|_| format!("bad rep count {n:?}"))?;
            }
            [w, "fingerprint", k, v] if *w == workload => {
                r.fingerprints.insert(k.to_string(), v.to_string());
            }
            [w, "check", k, v] if *w == workload => {
                r.checks.insert(k.to_string(), v.to_string());
            }
            [w, n, v, u] if *w == workload => {
                let v = v.parse().map_err(|_| format!("bad value {v:?} for {n}"))?;
                r.metrics.push((n.to_string(), v, u.to_string()));
            }
            _ => {}
        }
    }
    Ok(r)
}

/// Render a set file.
pub fn render(set: &SetFile) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": {},", quote(SET_SCHEMA));
    let _ = writeln!(out, "  \"mode\": {},", quote(&set.mode));
    let _ = writeln!(out, "  \"seed\": {},", set.seed);
    let _ = writeln!(out, "  \"seconds\": {},", set.seconds);
    let _ = writeln!(out, "  \"host_threads\": {},", set.host_threads);
    let _ = writeln!(out, "  \"workloads\": {{");
    for (i, (name, r)) in set.workloads.iter().enumerate() {
        let metrics = metrics_object(r);
        let fps = object(r.fingerprints.iter().map(|(k, v)| (k.clone(), quote(v))));
        let checks = object(r.checks.iter().map(|(k, v)| (k.clone(), quote(v))));
        let _ = write!(
            out,
            "    {}: {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"reps\": {},\n      \
             \"metrics\": {metrics},\n      \"fingerprints\": {fps},\n      \"checks\": {checks}}}",
            quote(name),
            r.correct,
            r.attempted,
            r.failed,
            r.reps,
        );
        let _ = writeln!(
            out,
            "{}",
            if i + 1 < set.workloads.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}

fn num(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_num)
        .ok_or(format!("set file: {key:?} is missing or not a number"))
}

fn strings(v: Option<&JsonValue>) -> BTreeMap<String, String> {
    match v {
        Some(JsonValue::Obj(m)) => m
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// Parse one workload's result object (a set-file entry, or the result
/// line a single-workload run prints).
pub fn parse_result(v: &JsonValue) -> Result<WorkloadResult, String> {
    let correct = matches!(v.get("correct"), Some(JsonValue::Bool(true)));
    let mut metrics = Vec::new();
    if let Some(JsonValue::Obj(m)) = v.get("metrics") {
        for (name, mv) in m {
            let unit = mv.get("unit").and_then(JsonValue::as_str).unwrap_or("");
            metrics.push((name.clone(), num(mv, "value")?, unit.to_string()));
        }
    }
    Ok(WorkloadResult {
        correct,
        attempted: num(v, "attempted")? as u64,
        failed: num(v, "failed")? as u64,
        reps: v.get("reps").and_then(JsonValue::as_num).unwrap_or(0.0) as u64,
        metrics,
        fingerprints: strings(v.get("fingerprints")),
        checks: strings(v.get("checks")),
    })
}

/// Parse a set file.
pub fn parse(text: &str) -> Result<SetFile, String> {
    let root = parse_json(text)?;
    let schema = root.get("schema").and_then(JsonValue::as_str);
    if schema != Some(SET_SCHEMA) {
        return Err(format!("not a {SET_SCHEMA} set file (schema {schema:?})"));
    }
    let mut workloads = Vec::new();
    if let Some(JsonValue::Obj(m)) = root.get("workloads") {
        for (name, v) in m {
            workloads.push((name.clone(), parse_result(v)?));
        }
    }
    Ok(SetFile {
        mode: root
            .get("mode")
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_string(),
        seed: num(&root, "seed")? as u64,
        seconds: num(&root, "seconds")? as u64,
        host_threads: num(&root, "host_threads")? as u64,
        workloads,
    })
}

/// Apply the end-to-end bounds of `spec` to a base group and a new group
/// of set files. Returns one line per finding and whether the new group
/// passes: every workload present and correct, fingerprints identical
/// wherever both groups ran the same seed, and no metric's median worse
/// than the base median by more than its bound. A metric whose run-to-run
/// spread exceeds its bound is reported `unresolved` (without failing)
/// unless every new run beats every base run.
pub fn compare(spec: &Spec, base: &[SetFile], new: &[SetFile]) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut ok = true;
    for w in &spec.workloads {
        let pick = |group: &[SetFile]| -> Vec<(u64, WorkloadResult)> {
            group
                .iter()
                .filter_map(|s| s.workload(w).map(|r| (s.seed, r.clone())))
                .collect()
        };
        let (b, n) = (pick(base), pick(new));
        if b.is_empty() || n.is_empty() {
            lines.push(format!("{w}: missing from one side FAIL"));
            ok = false;
            continue;
        }
        for (seed, r) in b.iter().chain(&n) {
            if !r.correct || r.failed > 0 {
                lines.push(format!(
                    "{w}: seed {seed} not correct ({} of {} failed) FAIL",
                    r.failed, r.attempted
                ));
                ok = false;
            }
        }
        for (bs, br) in &b {
            for (ns, nr) in n.iter().filter(|(s, _)| s == bs) {
                if br.fingerprints != nr.fingerprints {
                    lines.push(format!(
                        "{w}: fingerprints drifted at seed {ns}: {:?} -> {:?} FAIL",
                        br.fingerprints, nr.fingerprints
                    ));
                    ok = false;
                }
            }
        }
        for (metric, bound) in &spec.end_to_end {
            let values = |side: &[(u64, WorkloadResult)]| -> Option<Vec<f64>> {
                side.iter().map(|(_, r)| r.metric(metric)).collect()
            };
            let (Some(bv), Some(nv)) = (values(&b), values(&n)) else {
                lines.push(format!("{w} {metric}: missing FAIL"));
                ok = false;
                continue;
            };
            let (bm, nm) = (median(&bv), median(&nv));
            let worse = if bound.lower_is_better {
                (nm - bm) / bm
            } else {
                (bm - nm) / bm
            };
            let noisy = [&bv, &nv]
                .iter()
                .any(|v| spread(v).is_some_and(|s| s > bound.bound));
            let all_better = nv.iter().all(|x| {
                bv.iter()
                    .all(|y| if bound.lower_is_better { x < y } else { x > y })
            });
            let verdict = if worse > bound.bound {
                ok = false;
                "REGRESSED"
            } else if noisy && !all_better {
                "unresolved"
            } else {
                "ok"
            };
            lines.push(format!(
                "{w} {metric} base {bm} new {nm} {} worse {:+.2}% bound {:.0}% {verdict}",
                bound.unit,
                worse * 100.0,
                bound.bound * 100.0
            ));
        }
    }
    (lines, ok)
}

/// Median of a non-empty group (the middle quartile cut, which averages
/// the middle pair of an even group).
fn median(v: &[f64]) -> f64 {
    quartiles(v).map_or(v[0], |q| q[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Bound;

    fn spec() -> Spec {
        let mut end_to_end = BTreeMap::new();
        end_to_end.insert(
            "run_s_p50".to_string(),
            Bound {
                unit: "s".into(),
                lower_is_better: true,
                bound: 0.10,
            },
        );
        end_to_end.insert(
            "sim_cycles_per_s".to_string(),
            Bound {
                unit: "cycles/s".into(),
                lower_is_better: false,
                bound: 0.10,
            },
        );
        Spec {
            workloads: vec!["w".into()],
            end_to_end,
        }
    }

    fn set(seed: u64, run_s: f64, digest: &str) -> SetFile {
        let mut fingerprints = BTreeMap::new();
        fingerprints.insert("report_digest".to_string(), digest.to_string());
        SetFile {
            mode: "run".into(),
            seed,
            seconds: 10,
            host_threads: 2,
            workloads: vec![(
                "w".into(),
                WorkloadResult {
                    correct: true,
                    attempted: 10,
                    failed: 0,
                    reps: 10,
                    metrics: vec![
                        ("run_s_p50".into(), run_s, "s".into()),
                        ("sim_cycles_per_s".into(), 1e6 / run_s, "cycles/s".into()),
                    ],
                    fingerprints,
                    checks: BTreeMap::new(),
                },
            )],
        }
    }

    #[test]
    fn compare_passes_inside_the_bound() {
        let (lines, ok) = compare(&spec(), &[set(1, 1.0, "aa")], &[set(1, 1.08, "aa")]);
        assert!(ok, "{lines:#?}");
        // Getting faster never fails, however far.
        assert!(compare(&spec(), &[set(1, 1.0, "aa")], &[set(1, 0.2, "aa")]).1);
    }

    #[test]
    fn compare_fails_outside_the_bound() {
        let (lines, ok) = compare(&spec(), &[set(1, 1.0, "aa")], &[set(1, 1.12, "aa")]);
        assert!(!ok);
        assert!(lines
            .iter()
            .any(|l| l.contains("run_s_p50") && l.ends_with("REGRESSED")));
        assert!(lines
            .iter()
            .any(|l| l.contains("sim_cycles_per_s") && l.ends_with("REGRESSED")));
    }

    #[test]
    fn compare_fails_on_any_fingerprint_drift() {
        let (lines, ok) = compare(&spec(), &[set(1, 1.0, "aa")], &[set(1, 1.0, "ab")]);
        assert!(!ok);
        assert!(lines.iter().any(|l| l.contains("fingerprints drifted")));
        // Different seeds have different inputs, so their fingerprints
        // are not compared.
        assert!(compare(&spec(), &[set(1, 1.0, "aa")], &[set(2, 1.0, "ab")]).1);
    }

    #[test]
    fn compare_fails_on_incorrect_or_missing_runs() {
        let mut bad = set(1, 1.0, "aa");
        bad.workloads[0].1.failed = 1;
        assert!(!compare(&spec(), &[set(1, 1.0, "aa")], &[bad]).1);
        let mut empty = set(1, 1.0, "aa");
        empty.workloads.clear();
        assert!(!compare(&spec(), &[set(1, 1.0, "aa")], &[empty]).1);
    }

    #[test]
    fn compare_reports_noisy_groups_as_unresolved() {
        let base = [set(1, 1.0, "aa"), set(2, 1.3, "bb"), set(3, 0.8, "cc")];
        let new = [set(1, 1.0, "aa"), set(2, 1.02, "bb"), set(3, 1.05, "cc")];
        let (lines, ok) = compare(&spec(), &base, &new);
        assert!(ok, "{lines:#?}");
        assert!(lines.iter().any(|l| l.ends_with("unresolved")));
    }

    #[test]
    fn printed_lines_read_back() {
        let mut r = set(1, 0.25, "feed").workloads.remove(0).1;
        r.checks.insert("net_replay".into(), "pass".into());
        let text = print_lines("w", &r).join("\n");
        assert!(text.lines().any(|l| l == "w run_s_p50 0.25 s"));
        assert_eq!(parse_lines("w", &text), Ok(r));
        assert!(parse_lines("w", "").is_err());
    }

    #[test]
    fn set_files_round_trip() {
        let mut s = set(7, 0.5, "0123456789abcdef");
        s.workloads[0]
            .1
            .checks
            .insert("net_replay".into(), "pass".into());
        let back = parse(&render(&s)).expect("rendered set parses");
        assert_eq!(back.seed, 7);
        assert_eq!(
            back.workloads[0].1.fingerprints,
            s.workloads[0].1.fingerprints
        );
        assert_eq!(back.workloads[0].1.checks, s.workloads[0].1.checks);
        assert_eq!(back.workloads[0].1.metric("run_s_p50"), Some(0.5));
        assert!(parse("{\"schema\": \"other\"}").is_err());
    }
}
