//! `benchmark` — the repository benchmark of the EM-X simulator.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1
//! benchmark run   --seed N [--seconds S] [--out FILE]
//! benchmark trace --seed N [--seconds S] [--out FILE]
//! benchmark compare BASE NEW
//! ```
//!
//! The first form runs one workload in this process: `--trace 0` is the
//! timed run and prints every end-to-end metric, `--trace 1` is the
//! traced run and prints every per-layer metric. `run` and `trace` run
//! every workload, each in a fresh child process of the first form, one
//! after another, and can write the results as a set file. `compare`
//! applies the bounds in `BENCHMARK.json` to two set files (or two
//! comma-separated lists of them). Every form exits non-zero when a
//! result is incorrect or a check fails. See README.md beside this crate
//! for the metrics, the layers and the caveats.

mod catalog;
mod layers;
mod measure;
mod replay;
mod sets;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use sets::{SetFile, WorkloadResult};
use workloads::{Workload, NAMES};

/// The counting allocator `figures` and `emx-cli` install, so the
/// benchmark runs with the allocator users run with.
#[global_allocator]
static ALLOC: emx::hostprof::CountingAlloc = emx::hostprof::CountingAlloc::new();

/// Scratch directory (under the working directory) for the sweep's fresh
/// run caches; each rep removes what it created.
const SCRATCH: &str = ".bench_scratch";

const USAGE: &str = "usage: benchmark --workload W --seed N --seconds S --trace 0|1\n\
                     \x20      benchmark run|trace --seed N [--seconds S] [--out FILE]\n\
                     \x20      benchmark compare BASE NEW";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..], false),
        Some("trace") => run_all(&args[1..], true),
        Some("compare") => compare(&args[1..]),
        _ => run_one(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

/// `--name value` pairs, restricted to `allowed` names.
fn flags<'a>(args: &'a [String], allowed: &[&str]) -> Result<BTreeMap<&'a str, &'a str>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let name = a
            .strip_prefix("--")
            .filter(|n| allowed.contains(n))
            .ok_or(format!("unexpected argument {a:?}"))?;
        let value = it.next().ok_or(format!("--{name} needs a value"))?;
        out.insert(name, value.as_str());
    }
    Ok(out)
}

fn number(f: &BTreeMap<&str, &str>, name: &str, default: Option<u64>) -> Result<u64, String> {
    match f.get(name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} wants a whole number, got {v:?}")),
        None => default.ok_or(format!("--{name} is required")),
    }
}

fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args, &["workload", "seed", "seconds", "trace"])?;
    let name = *f.get("workload").ok_or("--workload is required")?;
    let seed = number(&f, "seed", None)?;
    let seconds = number(&f, "seconds", None)?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match f.get("trace").copied() {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let w = Workload::new(name, seed)
        .ok_or(format!("unknown workload {name:?} ({})", NAMES.join(", ")))?;

    let scratch = Path::new(SCRATCH);
    std::fs::create_dir_all(scratch).map_err(|e| format!("{SCRATCH}: {e}"))?;
    let r = if trace {
        traced(&w, seconds as f64, scratch)
    } else {
        timed(&w, seconds as f64, scratch)
    };
    let _ = std::fs::remove_dir(scratch);

    for line in sets::print_lines(name, &r) {
        println!("{line}");
    }
    Ok(if r.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn report_errors(workload: &str, errors: &[String]) {
    for e in errors.iter().take(10) {
        eprintln!("{workload}: {e}");
    }
    if errors.len() > 10 {
        eprintln!("{workload}: ... {} more", errors.len() - 10);
    }
}

fn with_units(metrics: Vec<(&'static str, f64)>) -> Vec<(String, f64, String)> {
    metrics
        .into_iter()
        .map(|(n, v)| (n.to_string(), v, catalog::unit(n).to_string()))
        .collect()
}

fn fingerprints(tally: &measure::Tally) -> BTreeMap<String, String> {
    tally
        .fingerprints
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

fn timed(w: &Workload, seconds: f64, scratch: &Path) -> WorkloadResult {
    let t = measure::run(w, seconds, scratch);
    report_errors(w.name, &t.tally.errors);
    WorkloadResult {
        correct: t.tally.failed == 0 && !t.tally.fingerprints.is_empty(),
        attempted: t.tally.attempted,
        failed: t.tally.failed,
        reps: t.reps as u64,
        metrics: with_units(t.metrics.metrics()),
        fingerprints: fingerprints(&t.tally),
        checks: BTreeMap::new(),
    }
}

fn traced(w: &Workload, seconds: f64, scratch: &Path) -> WorkloadResult {
    let t = layers::run(w, seconds, scratch);
    report_errors(w.name, &t.tally.errors);
    let checks_pass = t.checks.iter().all(|c| c.passed != Some(false));
    WorkloadResult {
        correct: checks_pass && t.tally.failed == 0 && !t.tally.fingerprints.is_empty(),
        attempted: t.tally.attempted,
        failed: t.tally.failed,
        reps: t.baseline_reps as u64,
        metrics: with_units(t.layers.metrics()),
        fingerprints: fingerprints(&t.tally),
        checks: t
            .checks
            .iter()
            .map(|c| {
                let verdict = match c.passed {
                    Some(true) => "pass",
                    Some(false) => "FAIL",
                    None => "n/a",
                };
                (c.name.to_string(), verdict.to_string())
            })
            .collect(),
    }
}

/// `run` / `trace`: every workload in a fresh child process, one after
/// another, each waited for before the next starts.
fn run_all(args: &[String], trace: bool) -> Result<ExitCode, String> {
    let f = flags(args, &["seed", "seconds", "out"])?;
    let seed = number(&f, "seed", None)?;
    let seconds = number(&f, "seconds", Some(catalog::RUN_SECONDS))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut set = SetFile {
        mode: if trace { "trace" } else { "run" }.to_string(),
        seed,
        seconds,
        host_threads: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        workloads: Vec::new(),
    };
    let mut ok = true;
    for name in NAMES {
        let out = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start {name}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        match sets::parse_lines(name, &text) {
            Ok(r) => {
                for line in text.lines().filter(|l| l.starts_with(name)) {
                    println!("{line}");
                }
                ok &= r.correct && out.status.success();
                set.workloads.push((name.to_string(), r));
            }
            Err(e) => {
                ok = false;
                eprintln!("{name}: no result ({e}; {})", out.status);
            }
        }
    }
    if let Some(path) = f.get("out") {
        std::fs::write(path, sets::render(&set)).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    println!(
        "{}",
        if ok {
            "all workloads correct"
        } else {
            "FAILED"
        }
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `compare BASE NEW`, each a set file or a comma-separated list of them.
fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [base, new] = args else {
        return Err("compare takes exactly two arguments".into());
    };
    let spec = catalog::load_spec()?;
    let load = |arg: &str| -> Result<Vec<SetFile>, String> {
        arg.split(',')
            .map(|p| {
                let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
                sets::parse(&text).map_err(|e| format!("{p}: {e}"))
            })
            .collect()
    };
    let (lines, ok) = sets::compare(&spec, &load(base)?, &load(new)?);
    for line in lines {
        println!("{line}");
    }
    println!("compare: {}", if ok { "pass" } else { "FAIL" });
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
