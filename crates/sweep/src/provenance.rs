//! Provenance sidecars: `results/<figure>.json` next to `results/<figure>.csv`.
//!
//! Every CSV the figure harness regenerates gets a JSON sidecar recording
//! *exactly* which simulations produced it: per run the full spec, the
//! effective seed, the content-address cache key (which folds in the cost
//! model and engine version), whether it was a cache hit, and a stable
//! digest of the resulting report — plus sweep-level facts (engine
//! version, worker count, wall clock). The schema is documented in
//! `docs/SWEEPS.md`; its identifier is [`SCHEMA`].
//!
//! The JSON is hand-emitted (the workspace deliberately carries no JSON
//! dependency); every string goes through the shared
//! [`emx_stats::json::quote`] escaper.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use emx_stats::digest::report_digest;
use emx_stats::json::quote;

use crate::cache::CACHE_FORMAT;
use crate::engine::SweepOutcome;

/// Schema identifier stamped into every sidecar. `/2` added the per-run
/// fault plan, the `runs_failed` count, the `failed_runs` array, and the
/// per-run cost-model `preset`; later (additively, no bump) the
/// `runs_resumed` count.
pub const SCHEMA: &str = "emx-sweep/2";

/// Render the sidecar JSON for `outcome`, labelled as `figure`, with
/// `extra` free-form string facts (e.g. `("scale", "standard")`).
pub fn render(
    figure: &str,
    csv_file: &str,
    outcome: &SweepOutcome,
    extra: &[(&str, String)],
) -> String {
    let mut j = String::with_capacity(512 + 512 * outcome.points.len());
    j.push_str("{\n");
    j.push_str(&format!("  \"schema\": {},\n", quote(SCHEMA)));
    j.push_str(&format!("  \"figure\": {},\n", quote(figure)));
    j.push_str(&format!("  \"csv\": {},\n", quote(csv_file)));
    j.push_str(&format!(
        "  \"engine\": {{\"name\": \"emx-sweep\", \"version\": {}, \"cache_format\": {}}},\n",
        quote(env!("CARGO_PKG_VERSION")),
        CACHE_FORMAT
    ));
    j.push_str(&format!("  \"jobs\": {},\n", outcome.jobs));
    j.push_str(&format!("  \"wall_ms\": {},\n", outcome.wall.as_millis()));
    j.push_str(&format!(
        "  \"runs_total\": {},\n",
        outcome.points.len() + outcome.failed.len()
    ));
    j.push_str(&format!("  \"runs_simulated\": {},\n", outcome.simulated));
    j.push_str(&format!("  \"cache_hits\": {},\n", outcome.cache_hits));
    j.push_str(&format!("  \"runs_failed\": {},\n", outcome.failed.len()));
    j.push_str(&format!("  \"runs_resumed\": {},\n", outcome.resumed));
    j.push_str("  \"extra\": {");
    for (i, (k, v)) in extra.iter().enumerate() {
        if i > 0 {
            j.push_str(", ");
        }
        j.push_str(&format!("{}: {}", quote(k), quote(v)));
    }
    j.push_str("},\n");
    j.push_str("  \"runs\": [\n");
    for (i, pt) in outcome.points.iter().enumerate() {
        let s = &pt.spec;
        j.push_str("    {");
        j.push_str(&format!("\"workload\": {}, ", quote(s.workload.name())));
        j.push_str(&format!("\"pes\": {}, ", s.pes));
        j.push_str(&format!("\"per_pe\": {}, ", s.per_pe));
        j.push_str(&format!("\"n\": {}, ", s.n()));
        j.push_str(&format!("\"threads\": {}, ", s.threads));
        j.push_str(&format!("\"seed\": {}, ", s.effective_seed()));
        j.push_str(&format!("\"comm_only\": {}, ", s.comm_only));
        j.push_str(&format!("\"block_read\": {}, ", s.block_read));
        match s.point_cycles {
            Some(c) => j.push_str(&format!("\"point_cycles\": {c}, ")),
            None => j.push_str("\"point_cycles\": null, "),
        }
        j.push_str(&format!("\"service_mode\": \"{:?}\", ", s.service_mode));
        j.push_str(&format!(
            "\"priority_read_responses\": {}, ",
            s.priority_read_responses
        ));
        j.push_str(&format!(
            "\"net_model\": {}, ",
            quote(&format!("{:?}", s.net_model))
        ));
        j.push_str(&format!("\"preset\": {}, ", quote(s.preset.name())));
        match &s.faults {
            Some(f) => j.push_str(&format!("\"faults\": {}, ", quote(&f.canonical()))),
            None => j.push_str("\"faults\": null, "),
        }
        j.push_str(&format!("\"key\": {}, ", quote(pt.key.hex())));
        j.push_str(&format!("\"cached\": {}, ", pt.cached));
        j.push_str(&format!(
            "\"elapsed_cycles\": {}, ",
            pt.report.elapsed.get()
        ));
        j.push_str(&format!("\"clock_hz\": {}, ", pt.report.clock_hz));
        j.push_str(&format!(
            "\"report_digest\": {}",
            quote(&report_digest(&pt.report))
        ));
        j.push('}');
        if i + 1 < outcome.points.len() {
            j.push(',');
        }
        j.push('\n');
    }
    j.push_str("  ],\n");
    j.push_str("  \"failed_runs\": [\n");
    for (i, f) in outcome.failed.iter().enumerate() {
        let s = &f.spec;
        j.push_str("    {");
        j.push_str(&format!("\"index\": {}, ", f.index));
        j.push_str(&format!("\"workload\": {}, ", quote(s.workload.name())));
        j.push_str(&format!("\"pes\": {}, ", s.pes));
        j.push_str(&format!("\"per_pe\": {}, ", s.per_pe));
        j.push_str(&format!("\"threads\": {}, ", s.threads));
        match &s.faults {
            Some(fp) => j.push_str(&format!("\"faults\": {}, ", quote(&fp.canonical()))),
            None => j.push_str("\"faults\": null, "),
        }
        j.push_str(&format!("\"key\": {}, ", quote(f.key.hex())));
        j.push_str(&format!("\"error\": {}", quote(&f.error)));
        j.push('}');
        if i + 1 < outcome.failed.len() {
            j.push(',');
        }
        j.push('\n');
    }
    j.push_str("  ]\n");
    j.push_str("}\n");
    j
}

/// Write the sidecar next to `csv_path` (same stem, `.json` extension) and
/// return its path.
pub fn write_sidecar(
    csv_path: &Path,
    figure: &str,
    outcome: &SweepOutcome,
    extra: &[(&str, String)],
) -> io::Result<PathBuf> {
    let path = csv_path.with_extension("json");
    let csv_file = csv_path
        .file_name()
        .map(|f| f.to_string_lossy().into_owned())
        .unwrap_or_default();
    fs::write(&path, render(figure, &csv_file, outcome, extra))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SweepEngine;
    use crate::spec::{grid, Workload};

    #[test]
    fn render_emits_the_documented_fields() {
        let outcome = SweepEngine::new().cache(None).quiet(true).jobs(2).run(grid(
            Workload::Sort,
            4,
            &[64],
            &[1, 2],
        ));
        let json = render(
            "test_fig",
            "test_fig.csv",
            &outcome,
            &[("scale", "quick".into())],
        );
        for needle in [
            "\"schema\": \"emx-sweep/2\"",
            "\"figure\": \"test_fig\"",
            "\"csv\": \"test_fig.csv\"",
            "\"runs_total\": 2",
            "\"runs_failed\": 0",
            "\"runs_resumed\": 0",
            "\"workload\": \"bitonic-sort\"",
            "\"service_mode\": \"BypassDma\"",
            "\"net_model\": \"CircularOmega\"",
            "\"preset\": \"paper\"",
            "\"report_digest\": \"",
            "\"scale\": \"quick\"",
            "\"point_cycles\": null",
            "\"faults\": null",
            "\"failed_runs\": [",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // Balanced braces/brackets (cheap well-formedness check; none of
        // the emitted values contain braces).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn escaping_covers_quotes_and_control_chars() {
        let outcome = SweepEngine::new().cache(None).quiet(true).run(Vec::new());
        let tricky = "a\"b\\c line\nbreak\ttab \u{1}";
        let json = render("fig", "fig.csv", &outcome, &[("note", tricky.into())]);
        assert!(json.contains(r#""note": "a\"b\\c line\nbreak\ttab \u0001""#));
        let doc = emx_stats::json::parse_json(&json).expect("sidecar is valid JSON");
        let extra = doc.get("extra").expect("extra object");
        assert_eq!(extra.get("note").and_then(|v| v.as_str()), Some(tricky));
    }
}
