//! Every name the benchmark prints, with its unit, and the reader for the
//! bounds `BENCHMARK.json` fixes on them. A unit test pins the two to
//! each other.

use std::collections::BTreeMap;

use emx::obs::{parse_json, JsonValue};

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("run_s_p50", "s"),
    ("run_s_p75", "s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, measured by the separate traced run.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("runtime.events", "count"),
    ("runtime.events_per_cycle", "events/cycle"),
    ("runtime.ns_per_event", "ns"),
    ("runtime.parallel_windows", "count"),
    ("runtime.run_ms", "ms"),
    ("runtime.residual_ms", "ms"),
    ("net.routes", "count"),
    ("net.route_ns_per_call", "ns"),
    ("net.route_ms", "ms"),
    ("net.route_share", "fraction"),
    ("proc.queue_ops", "count"),
    ("proc.queue_spills", "count"),
    ("proc.dma_services", "count"),
    ("proc.queue_ns_per_op", "ns"),
    ("proc.queue_ms", "ms"),
    ("obs.trace_events", "count"),
    ("obs.digest_ns_per_event", "ns"),
    ("obs.digest_ms", "ms"),
    ("alloc.per_event", "allocs/event"),
    ("alloc.bytes_per_event", "B/event"),
    ("workloads.build_ms", "ms"),
    ("workloads.finish_ms", "ms"),
    ("sweep.cold_points_per_s", "1/s"),
    ("sweep.warm_points_per_s", "1/s"),
    ("sweep.cache_hits", "count"),
    ("sweep.worker_busy_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// Seconds one run measures by default (`run_seconds` in BENCHMARK.json).
pub const RUN_SECONDS: u64 = 15;

/// The unit of a metric the catalog lists.
///
/// # Panics
/// On a name outside the catalog — a bug in this binary, which the
/// catalog test exists to catch.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name:?} is not in the catalog"))
}

/// One end-to-end metric's regression rule, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the base median by which the metric may get worse.
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` `compare` uses.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: BTreeMap<String, Bound>,
}

fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or(format!("BENCHMARK.json: missing {key:?}"))
}

fn text(v: &JsonValue, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or(format!("BENCHMARK.json: {key:?} is not a string"))
}

fn list<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    field(v, key)?
        .as_arr()
        .ok_or(format!("BENCHMARK.json: {key:?} is not a list"))
}

/// Parse the text of `BENCHMARK.json`.
pub fn parse_spec(json: &str) -> Result<Spec, String> {
    let root = parse_json(json)?;
    let workloads = list(&root, "workloads")?
        .iter()
        .map(|w| text(w, "name"))
        .collect::<Result<_, _>>()?;
    let mut end_to_end = BTreeMap::new();
    for m in list(&root, "end_to_end")? {
        let better = text(m, "better")?;
        let bound = field(m, "bound")?
            .as_num()
            .ok_or("BENCHMARK.json: bound is not a number")?;
        end_to_end.insert(
            text(m, "name")?,
            Bound {
                unit: text(m, "unit")?,
                lower_is_better: better == "lower",
                bound,
            },
        );
    }
    Ok(Spec {
        workloads,
        end_to_end,
    })
}

/// Read `BENCHMARK.json` from the directory the benchmark runs in.
pub fn load_spec() -> Result<Spec, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the current directory: {e}"))?;
    parse_spec(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    fn repo_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")
    }

    fn repo_spec() -> Spec {
        parse_spec(&repo_json()).expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_names_exactly_what_the_binary_prints() {
        let spec = repo_spec();
        assert_eq!(spec.workloads, NAMES);
        let e2e: Vec<(String, String)> = spec
            .end_to_end
            .iter()
            .map(|(n, b)| (n.clone(), b.unit.clone()))
            .collect();
        let mut want: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        want.sort();
        assert_eq!(e2e, want);

        let root = parse_json(&repo_json()).unwrap();
        let layers: Vec<(&str, &str)> = list(&root, "per_layer")
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(JsonValue::as_str).unwrap();
                (s("name"), s("unit"))
            })
            .collect();
        assert_eq!(layers, PER_LAYER);
        let seconds = root.get("run_seconds").and_then(JsonValue::as_num);
        assert_eq!(seconds, Some(RUN_SECONDS as f64));
    }

    #[test]
    fn the_metric_builders_emit_the_catalog_in_order() {
        let e2e: Vec<&str> = crate::measure::EndToEnd::default()
            .metrics()
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(e2e, END_TO_END.map(|(n, _)| n));
        let layers: Vec<&str> = crate::layers::Layers::default()
            .metrics()
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(layers, PER_LAYER.map(|(n, _)| n));
    }

    #[test]
    fn bounds_read_direction_and_share() {
        let spec = repo_spec();
        let cps = &spec.end_to_end["sim_cycles_per_s"];
        assert!(!cps.lower_is_better);
        let setup = &spec.end_to_end["setup_s"];
        assert!(setup.lower_is_better);
        let largest = spec
            .end_to_end
            .values()
            .map(|b| b.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "setup_s carries the largest bound");
        assert!(spec
            .end_to_end
            .values()
            .all(|b| b.bound > 0.0 && b.bound <= 0.25));
    }

    #[test]
    #[should_panic(expected = "not in the catalog")]
    fn unknown_metrics_are_a_bug() {
        unit("runtime.vibes");
    }
}
