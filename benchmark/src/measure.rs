//! The timed run: end-to-end metrics with tracing and `emx-hostprof` off.
//!
//! One client, closed loop: the next rep starts only when the previous
//! one has returned. Warm-up reps first, then timed reps until the run's
//! seconds are spent, with the set-up samples spread between them.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use emx::runtime::Machine;

use crate::stats::{beyond, percentile, ratio, sorted, tail_percentile, MIN_BEYOND};
use crate::workloads::{Rep, Workload};

/// Untimed reps before measuring, so lazy set-up and allocator growth
/// are paid before the clock starts.
const WARMUP_REPS: usize = 3;

/// Timed reps a run makes even when its seconds run out first, so the
/// percentiles always rest on several samples.
const MIN_REPS: usize = 5;

/// Set-up samples per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 11;

/// Rep accounting shared by the timed and traced runs: attempts,
/// failures, and the fingerprints every rep must repeat.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub fingerprints: Vec<(&'static str, String)>,
    pub errors: Vec<String>,
}

impl Tally {
    /// Count one rep. A rep fails on an error, on a failed verification
    /// (the workloads verify their own output and return an error), or on
    /// fingerprints that differ from the first good rep's.
    pub fn add(&mut self, rep: &Rep) {
        self.attempted += rep.points;
        self.failed += rep.failed;
        self.errors.extend(rep.errors.iter().cloned());
        if rep.failed > 0 {
            return;
        }
        if self.fingerprints.is_empty() {
            self.fingerprints = rep.fingerprints.clone();
        } else if self.fingerprints != rep.fingerprints {
            self.failed += rep.points;
            self.errors
                .push("fingerprints differ between reps of one seed".to_string());
        }
    }

    /// The reference value of one fingerprint.
    pub fn fingerprint(&self, name: &str) -> Option<&str> {
        self.fingerprints
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// The end-to-end metrics of one run.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub run_s_p50: f64,
    pub run_s_p75: f64,
    pub sim_cycles_per_s: f64,
    pub setup_s: f64,
    pub peak_rss_mib: f64,
}

impl EndToEnd {
    /// Name and value of every end-to-end metric, in catalog order.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("run_s_p50", self.run_s_p50),
            ("run_s_p75", self.run_s_p75),
            ("sim_cycles_per_s", self.sim_cycles_per_s),
            ("setup_s", self.setup_s),
            ("peak_rss_mib", self.peak_rss_mib),
        ]
    }
}

/// A finished timed run.
pub struct Timed {
    pub metrics: EndToEnd,
    pub reps: usize,
    pub tally: Tally,
}

/// Seconds of one set-up sample: direct `Machine::new` calls on the
/// workload's configurations (each machine is dropped outside the clock).
fn setup_sample(w: &Workload) -> Result<f64, String> {
    let (cfgs, calls) = w.setup_plan();
    let mut total = Duration::ZERO;
    for _ in 0..calls {
        for cfg in &cfgs {
            let cfg = cfg.clone();
            let t = Instant::now();
            let m = Machine::new(cfg).map_err(|e| format!("Machine::new: {e}"))?;
            total += t.elapsed();
            drop(black_box(m));
        }
    }
    Ok(total.as_secs_f64())
}

/// Untimed warm-up reps, counted in `tally`.
pub fn warm_up(w: &Workload, scratch: &Path, reps: usize, tally: &mut Tally) {
    for _ in 0..reps {
        tally.add(&w.rep(scratch));
    }
}

/// Timed reps until `seconds` are spent (and at least `min_reps` ran).
/// Before each rep, `between` is told the share of `seconds` spent so
/// far. Returns each rep's wall time and the simulated cycles of a rep.
pub fn timed_reps(
    w: &Workload,
    scratch: &Path,
    seconds: f64,
    min_reps: usize,
    tally: &mut Tally,
    mut between: impl FnMut(f64),
) -> (Vec<f64>, u64) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut cycles = 0;
    while times.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        between(start.elapsed().as_secs_f64() / seconds);
        let rep = w.rep(scratch);
        times.push(rep.secs);
        cycles = cycles.max(rep.cycles);
        tally.add(&rep);
    }
    (times, cycles)
}

/// The timed run of one workload.
pub fn run(w: &Workload, seconds: f64, scratch: &Path) -> Timed {
    let mut tally = Tally::default();
    warm_up(w, scratch, WARMUP_REPS, &mut tally);

    // Set-up samples fall due evenly over the timed window, between reps,
    // so a burst of host noise moves their median no more than the reps'.
    let mut setup = Vec::with_capacity(SETUP_SAMPLES);
    let mut setup_error = None;
    let mut take_setup = |due: usize| {
        while setup.len() < due.min(SETUP_SAMPLES) && setup_error.is_none() {
            match setup_sample(w) {
                Ok(s) => setup.push(s),
                Err(e) => setup_error = Some(e),
            }
        }
    };
    let (times, cycles) = timed_reps(w, scratch, seconds, MIN_REPS, &mut tally, |done| {
        take_setup((done * SETUP_SAMPLES as f64) as usize + 1)
    });
    take_setup(SETUP_SAMPLES);
    if let Some(e) = setup_error {
        tally.attempted += 1;
        tally.failed += 1;
        tally.errors.push(e);
    }

    if beyond(times.len(), 75) < MIN_BEYOND {
        let tail = tail_percentile(times.len(), MIN_BEYOND)
            .map_or("none".to_string(), |p| format!("p{p}"));
        eprintln!(
            "{}: run_s_p75 rests on {} reps beyond it ({} timed reps; the highest \
             percentile with {MIN_BEYOND} beyond is {tail})",
            w.name,
            beyond(times.len(), 75),
            times.len(),
        );
    }
    let times = sorted(&times);
    let p50 = percentile(&times, 50);
    Timed {
        metrics: EndToEnd {
            run_s_p50: p50,
            run_s_p75: percentile(&times, 75),
            sim_cycles_per_s: ratio(cycles as f64, p50),
            setup_s: if setup.is_empty() {
                0.0
            } else {
                percentile(&sorted(&setup), 50)
            },
            peak_rss_mib: peak_rss_mib(),
        },
        reps: times.len(),
        tally,
    }
}

/// The process's peak resident set (`VmHWM`), in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
