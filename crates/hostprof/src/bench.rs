//! The `emx-bench/2` benchmark trajectory file that `figures bench`
//! writes and `bench-diff` gates: its types, its writer and its parser.
//!
//! ```text
//! {
//!   "schema": "emx-bench/2",
//!   "scale": "quick",
//!   "reps": 3,
//!   "host_threads": 2,
//!   "points": [
//!     {"workload": "fft", "p": 16, "h": 4, "r": 256, "n": 4096, "cycles": .., "wall_ns": .., "digest": "..",
//!      "hostprof_digest": "..", "counters": {..}, "host": {..}, "wall": {..}},
//!     ...
//!   ]
//! }
//! ```
//!
//! Each point embeds its run's `emx-hostprof/1` sections in canonical
//! counter order. Every number is an integer below 2^53, the range the
//! `f64` JSON reader holds exactly; the parser rejects anything else.

use emx_stats::json::{parse_json, quote, JsonValue};

use crate::counters::{HOST_NAMES, SIM_NAMES, WALL_NAMES};
use crate::report::HostProfReport;

/// Schema tag of the benchmark file.
pub const BENCH_SCHEMA: &str = "emx-bench/2";

/// A benchmark trajectory file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BenchFile {
    /// Scale provenance (`quick`/`standard`/`full`).
    pub scale: String,
    /// Timed repetitions per point.
    pub reps: u64,
    /// The writing host's available parallelism (annotation).
    pub host_threads: u64,
    /// The points, in file order.
    pub points: Vec<BenchPoint>,
}

/// One benchmark point: a run, its fastest wall time, and its counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BenchPoint {
    /// Workload name.
    pub workload: String,
    /// Processors.
    pub p: u64,
    /// Threads per processor.
    pub h: u64,
    /// Elements per processor.
    pub r: u64,
    /// Total problem size.
    pub n: u64,
    /// Simulated cycles to completion (deterministic).
    pub cycles: u64,
    /// Fastest repetition's wall time in nanoseconds (annotation).
    pub wall_ns: u64,
    /// The run's report digest (deterministic).
    pub digest: String,
    /// The run's `emx-hostprof/1` counters digest (deterministic).
    pub hostprof_digest: String,
    /// The `counters` section, name → value (deterministic).
    pub counters: Vec<(String, u64)>,
    /// The `host` section, name → value (deterministic).
    pub host: Vec<(String, u64)>,
    /// The `wall` section, name → value (annotations).
    pub wall: Vec<(String, u64)>,
}

impl BenchPoint {
    /// A point carrying `hp`'s digest and sections; the caller fills in
    /// the run identity and timing.
    pub fn from_hostprof(hp: &HostProfReport) -> Self {
        let named = |names: &[&str], vals: &[u64]| -> Vec<(String, u64)> {
            names
                .iter()
                .map(|n| n.to_string())
                .zip(vals.to_vec())
                .collect()
        };
        BenchPoint {
            hostprof_digest: hp.digest(),
            counters: named(&SIM_NAMES, &hp.snap.sim),
            host: named(&HOST_NAMES, &hp.snap.host),
            wall: named(&WALL_NAMES, &hp.snap.wall),
            ..BenchPoint::default()
        }
    }

    /// Identity within a file, e.g. `fft p=16 h=4 r=256`: `bench-diff`
    /// matches points by it.
    pub fn key(&self) -> String {
        format!("{} p={} h={} r={}", self.workload, self.p, self.h, self.r)
    }

    fn render(&self) -> String {
        let obj = |kvs: &[(String, u64)]| {
            let fields: Vec<String> = kvs
                .iter()
                .map(|(n, v)| format!("{}: {v}", quote(n)))
                .collect();
            format!("{{{}}}", fields.join(", "))
        };
        format!(
            "    {{\"workload\": {}, \"p\": {}, \"h\": {}, \"r\": {}, \"n\": {}, \"cycles\": {}, \
             \"wall_ns\": {}, \"digest\": {},\n     \"hostprof_digest\": {}, \"counters\": {}, \
             \"host\": {}, \"wall\": {}}}",
            quote(&self.workload),
            self.p,
            self.h,
            self.r,
            self.n,
            self.cycles,
            self.wall_ns,
            quote(&self.digest),
            quote(&self.hostprof_digest),
            obj(&self.counters),
            obj(&self.host),
            obj(&self.wall),
        )
    }

    fn parse(v: &JsonValue) -> Result<BenchPoint, String> {
        let num = |key: &str| int(v.get(key), key);
        Ok(BenchPoint {
            workload: string(v, "workload")?,
            p: num("p")?,
            h: num("h")?,
            r: num("r")?,
            n: num("n")?,
            cycles: num("cycles")?,
            wall_ns: num("wall_ns")?,
            digest: string(v, "digest")?,
            hostprof_digest: string(v, "hostprof_digest")?,
            counters: section(v, "counters", &SIM_NAMES)?,
            host: section(v, "host", &HOST_NAMES)?,
            wall: section(v, "wall", &WALL_NAMES)?,
        })
    }
}

impl BenchFile {
    /// The file's bytes.
    pub fn render(&self) -> String {
        let points: Vec<String> = self.points.iter().map(BenchPoint::render).collect();
        format!(
            "{{\n  \"schema\": {},\n  \"scale\": {},\n  \"reps\": {},\n  \"host_threads\": {},\n  \
             \"points\": [\n{}\n  ]\n}}\n",
            quote(BENCH_SCHEMA),
            quote(&self.scale),
            self.reps,
            self.host_threads,
            points.join(",\n"),
        )
    }

    /// Parse a bench file. Errors name the point and field: a wrong schema,
    /// a missing field, or a number that is negative, fractional or not
    /// below 2^53.
    pub fn parse(text: &str) -> Result<BenchFile, String> {
        let v = parse_json(text)?;
        let schema = string(&v, "schema")?;
        if schema != BENCH_SCHEMA {
            return Err(format!(
                "unsupported schema {schema:?} (want {BENCH_SCHEMA:?}; regenerate with `figures bench`)"
            ));
        }
        let points = v
            .get("points")
            .and_then(JsonValue::as_arr)
            .ok_or("missing points array")?;
        let points = points
            .iter()
            .enumerate()
            .map(|(i, p)| BenchPoint::parse(p).map_err(|e| format!("point {i}: {e}")));
        Ok(BenchFile {
            scale: string(&v, "scale")?,
            reps: int(v.get("reps"), "reps")?,
            host_threads: int(v.get("host_threads"), "host_threads")?,
            points: points.collect::<Result<_, _>>()?,
        })
    }
}

fn string(v: &JsonValue, key: &str) -> Result<String, String> {
    match v.get(key).and_then(JsonValue::as_str) {
        Some(s) => Ok(s.to_string()),
        None => Err(format!("missing string {key:?}")),
    }
}

/// An integer in 0..2^53: every one reads back exactly through `f64`.
/// (From 2^52 up, `f64` holds no fraction, so a fractional literal there
/// reads as its nearest integer.)
fn int(v: Option<&JsonValue>, what: &str) -> Result<u64, String> {
    match v.and_then(JsonValue::as_num) {
        Some(n) if n.fract() == 0.0 && (0.0..9_007_199_254_740_992.0).contains(&n) => Ok(n as u64),
        Some(n) => Err(format!("{what}: {n} is not an integer in 0..2^53")),
        None => Err(format!("{what}: missing or not a number")),
    }
}

/// A name → integer object, in `order` (names it lacks sort last): the
/// JSON reader does not keep key order, so the canonical one is restored.
fn section(v: &JsonValue, key: &str, order: &[&str]) -> Result<Vec<(String, u64)>, String> {
    let Some(JsonValue::Obj(m)) = v.get(key) else {
        return Err(format!("missing object {key:?}"));
    };
    let mut kvs = Vec::with_capacity(m.len());
    for (name, x) in m {
        kvs.push((name.clone(), int(Some(x), &format!("{key}.{name}"))?));
    }
    kvs.sort_by_key(|(n, _)| order.iter().position(|o| o == n).unwrap_or(order.len()));
    Ok(kvs)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = include_str!("../../../results/baselines/BENCH_profile_quick.json");

    #[test]
    fn written_files_parse_back_to_the_same_points() {
        let file = BenchFile::parse(BASELINE).expect("the committed baseline parses");
        assert_eq!(file.points.len(), 4);
        // The writer reproduces the committed bytes, and reads back unchanged.
        assert_eq!(file.render(), BASELINE);
        assert_eq!(BenchFile::parse(&file.render()), Ok(file));
    }

    #[test]
    fn rejects_negative_fractional_and_oversized_numbers() {
        // Rewrite the first value of `field` in the committed baseline.
        let with = |field: &str, bad: &str| {
            let at = BASELINE.find(field).expect("field present") + field.len();
            let end = at + BASELINE[at..].find([',', '}']).expect("value ends");
            format!("{}{bad}{}", &BASELINE[..at], &BASELINE[end..])
        };
        for (field, bad) in [
            ("\"calendar.pushes\": ", "81226.9"),
            ("\"cycles\": ", "-138305"),
            ("\"driver.windows\": ", "0.5"),
            ("\"alloc.bytes\": ", "9007199254740992"),
            ("\"wall_ns\": ", "1e300"),
        ] {
            let err = BenchFile::parse(&with(field, bad)).unwrap_err();
            assert!(
                err.starts_with("point 0: ") && err.contains("not an integer"),
                "{err}"
            );
        }
        assert!(BenchFile::parse(&with("\"cycles\": ", "9007199254740991")).is_ok());
        let other = BASELINE.replace("emx-bench/2", "emx-bench/1");
        assert!(BenchFile::parse(&other)
            .unwrap_err()
            .contains("unsupported schema"));
    }
}
