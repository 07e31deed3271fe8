//! [`SweepEngine`]: parallel, deterministic, cached execution of a list of
//! [`RunSpec`]s.
//!
//! Independent simulation runs are embarrassingly parallel, and every run
//! is a pure function of its spec (the simulator is seeded and its event
//! queue tie-broken — see DESIGN.md §5). The engine therefore fans specs
//! out over a [`std::thread::scope`] worker pool and reassembles results
//! **by input index**, so the output order — and every CSV derived from
//! it — is byte-identical whatever the worker count. `--jobs 1` is the
//! serial path; `--jobs N` is the same computation, faster.
//!
//! Every point runs once, bounded by the machine's event fuel
//! (`DEFAULT_FUEL`), not by a wall clock:
//!
//! - A sweep point that returns a [`SimError`](emx_core::SimError) or
//!   panics does not take the whole sweep (and its siblings' results)
//!   down. It is recorded as a [`FailedRun`] and the remaining points
//!   complete normally. It is not retried: the point is a pure function
//!   of its spec, so a rerun would fail the same way. Callers that
//!   require completeness (the figure harness) call
//!   [`SweepOutcome::expect_complete`].
//! - An optional write-ahead [journal](crate::journal) commits every
//!   finished point to disk, so a killed *process* can be resumed with
//!   `emx-cli resume` and still produce a byte-identical CSV.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use emx_stats::RunReport;

use crate::cache::{CacheKey, RunCache};
use crate::journal::Journal;
use crate::progress::{render_heartbeat, ProgressConfig};
use crate::spec::RunSpec;

/// A finished point as workers record it: the report plus its cached
/// flag, or the error message. Shared with the journal module, which
/// prefills slots from committed records on resume.
pub(crate) type Slot = Result<(RunReport, bool), String>;

/// Lock `m`, recovering the guard if a thread panicked while holding it.
/// Every update under the engine's and journal's locks is a single store
/// or a whole-line append, so a poisoned lock still guards valid data.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One executed (or cache-restored) sweep point, in input order.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The spec that produced this point.
    pub spec: RunSpec,
    /// Content address of the run (always derived, even with the cache
    /// disabled, so provenance sidecars can record it).
    pub key: CacheKey,
    /// The run's measurements.
    pub report: RunReport,
    /// Whether the report was restored from the cache.
    pub cached: bool,
}

/// One sweep point that failed to execute. Recorded in outcome and
/// provenance instead of aborting the sweep.
#[derive(Debug, Clone)]
pub struct FailedRun {
    /// Index of the spec in the submitted list.
    pub index: usize,
    /// The spec that failed.
    pub spec: RunSpec,
    /// Its content address.
    pub key: CacheKey,
    /// The error or panic message.
    pub error: String,
}

/// The result of one engine invocation.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Successfully executed points, in the order of the submitted specs
    /// (failed specs leave no hole — they are in [`failed`](Self::failed)).
    pub points: Vec<SweepPoint>,
    /// Specs that failed, in submission order.
    pub failed: Vec<FailedRun>,
    /// Worker threads used.
    pub jobs: usize,
    /// Points actually simulated this invocation.
    pub simulated: usize,
    /// Points restored from the run cache.
    pub cache_hits: usize,
    /// Points replayed from a journal (resume); their original
    /// simulated/cached split is preserved per point but not re-counted
    /// here.
    pub resumed: usize,
    /// Host wall-clock time of the whole sweep.
    pub wall: Duration,
}

impl SweepOutcome {
    /// Summary string for logs: `"24 runs (12 simulated, 12 cached) in 3.2 s on 8 workers"`.
    pub fn summary(&self) -> String {
        let resumed = if self.resumed == 0 {
            String::new()
        } else {
            format!(", {} replayed from journal", self.resumed)
        };
        let failed = if self.failed.is_empty() {
            String::new()
        } else {
            format!(", {} FAILED", self.failed.len())
        };
        format!(
            "{} runs ({} simulated, {} cached{}{}) in {:.1} s on {} worker{}",
            self.points.len() + self.failed.len(),
            self.simulated,
            self.cache_hits,
            resumed,
            failed,
            self.wall.as_secs_f64(),
            self.jobs,
            if self.jobs == 1 { "" } else { "s" },
        )
    }

    /// Assert every submitted spec produced a report, returning `self` for
    /// chaining. The figure harness uses this: a figure CSV with silently
    /// missing points would be worse than no CSV.
    ///
    /// # Panics
    /// If any run failed, with every failure's label and error.
    pub fn expect_complete(self) -> SweepOutcome {
        if !self.failed.is_empty() {
            let mut msg = String::from("sweep incomplete:");
            for f in &self.failed {
                msg.push_str(&format!(
                    "\n  [{}] {} ({}): {}",
                    f.index,
                    f.spec.label(),
                    f.key.short(),
                    f.error
                ));
            }
            panic!("{msg}");
        }
        self
    }
}

/// Parallel deterministic sweep executor with an optional run cache.
///
/// ```
/// use emx_sweep::{grid, SweepEngine, Workload};
///
/// let engine = SweepEngine::new().quiet(true).cache(None);
/// let outcome = engine.run(grid(Workload::Sort, 4, &[64], &[1, 2]));
/// assert_eq!(outcome.points.len(), 2);
/// // Results come back in grid order regardless of worker count.
/// assert_eq!(outcome.points[0].spec.threads, 1);
/// assert_eq!(outcome.points[1].spec.threads, 2);
/// ```
#[derive(Debug, Clone)]
pub struct SweepEngine {
    jobs: usize,
    cache: Option<RunCache>,
    quiet: bool,
    journal: Option<Arc<Journal>>,
    progress: Option<ProgressConfig>,
}

impl Default for SweepEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepEngine {
    /// An engine with [`std::thread::available_parallelism`] workers and
    /// the cache at its conventional `results/cache/` location.
    pub fn new() -> SweepEngine {
        SweepEngine {
            jobs: std::thread::available_parallelism().map_or(4, |n| n.get()),
            cache: Some(RunCache::default_location()),
            quiet: false,
            journal: None,
            progress: None,
        }
    }

    /// Set the worker count (clamped to at least 1). The CLI `--jobs`
    /// flag lands here.
    pub fn jobs(mut self, jobs: usize) -> SweepEngine {
        self.jobs = jobs.max(1);
        self
    }

    /// Replace the run cache (`None` disables caching — the CLI
    /// `--no-cache` flag).
    pub fn cache(mut self, cache: Option<RunCache>) -> SweepEngine {
        self.cache = cache;
        self
    }

    /// Suppress per-run progress lines on stderr.
    pub fn quiet(mut self, quiet: bool) -> SweepEngine {
        self.quiet = quiet;
        self
    }

    /// Arm a write-ahead [`Journal`]: every finished point is committed
    /// to it, making a killed sweep resumable (`emx-cli resume`). Journal
    /// I/O errors are deliberately non-fatal — a sweep with a broken
    /// journal still completes, it just cannot be resumed.
    pub fn journal(mut self, journal: Journal) -> SweepEngine {
        self.journal = Some(Arc::new(journal));
        self
    }

    /// Arm the live [heartbeat](crate::progress): one summary line on
    /// stderr at the configured cadence (per-lane status, points
    /// done/total, cache-hit count, ETA). stdout is untouched, so sweep
    /// output stays byte-identical with the heartbeat on or off.
    pub fn progress(mut self, cfg: ProgressConfig) -> SweepEngine {
        self.progress = Some(cfg);
        self
    }

    /// Execute `specs`, returning points in input order.
    ///
    /// Each worker claims the next pending index, consults the cache,
    /// simulates on a miss, stores the result, and writes it into the
    /// slot for that index. Determinism: simulation is a pure function of
    /// the spec, and assembly is by index, so neither the worker count
    /// nor scheduling order can influence the returned values or their
    /// order.
    ///
    /// A point whose execution errors or panics lands in
    /// [`SweepOutcome::failed`] while every other point completes.
    pub fn run(&self, specs: Vec<RunSpec>) -> SweepOutcome {
        let blank = (0..specs.len()).map(|_| None).collect();
        self.run_prefilled(specs, blank)
    }

    /// [`run`](Self::run) with some slots already decided — the resume
    /// path. `prefilled[i] = Some(slot)` replays point `i` verbatim
    /// (report, cached flag, or recorded failure) without executing it;
    /// `None` slots are executed normally. Replayed points count in
    /// [`SweepOutcome::resumed`], not in `simulated`/`cache_hits`.
    pub(crate) fn run_prefilled(
        &self,
        specs: Vec<RunSpec>,
        prefilled: Vec<Option<Slot>>,
    ) -> SweepOutcome {
        assert_eq!(specs.len(), prefilled.len(), "one slot per spec");
        let started = Instant::now();
        let total = specs.len();
        let keys: Vec<CacheKey> = specs
            .iter()
            .map(|s| CacheKey::for_run(s, &s.machine_config()))
            .collect();

        let replayed: Vec<bool> = prefilled.iter().map(Option::is_some).collect();
        let resumed = replayed.iter().filter(|r| **r).count();
        let pending: Vec<usize> = (0..total).filter(|&i| !replayed[i]).collect();
        let workers = self.jobs.min(pending.len().max(1));

        let slots: Mutex<Vec<Option<Slot>>> = Mutex::new(prefilled);
        // Workers claim `pending[cursor]` and exit once it runs past the end.
        let cursor = AtomicUsize::new(0);
        let done = AtomicUsize::new(resumed);
        let hits = AtomicUsize::new(0);
        // lane -> index of the point it is executing (heartbeat display).
        let board: Mutex<Vec<Option<usize>>> = Mutex::new(vec![None; workers]);

        std::thread::scope(|scope| {
            let slots = &slots;
            let cursor = &cursor;
            let done = &done;
            let hits = &hits;
            let board = &board;
            let pending = &pending;
            let keys = &keys;
            let specs = &specs;
            for lane in 0..workers {
                scope.spawn(move || {
                    while let Some(&i) = pending.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        let spec = &specs[i];
                        let key = &keys[i];
                        if self.progress.is_some() {
                            lock(board)[lane] = Some(i);
                        }
                        if let Some(journal) = &self.journal {
                            let t = emx_hostprof::now();
                            let _ = journal.intent(i, key.hex());
                            emx_hostprof::wall_since(emx_hostprof::Wall::SweepJournalNs, t);
                        }
                        let run_started = Instant::now();
                        let slot: Slot = match self.cache.as_ref().and_then(|c| c.load(key)) {
                            Some(report) => Ok((report, true)),
                            None => execute(spec).map(|report| {
                                if let Some(cache) = &self.cache {
                                    // A failed store only costs future
                                    // cache hits; the sweep proceeds.
                                    let _ = cache.store(key, spec, &report);
                                }
                                (report, false)
                            }),
                        };
                        if self.progress.is_some() {
                            lock(board)[lane] = None;
                        }
                        if emx_hostprof::enabled() {
                            let ns =
                                u64::try_from(run_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                            emx_hostprof::add_wall(emx_hostprof::Wall::SweepExecNs, ns);
                        }
                        if let Some(journal) = &self.journal {
                            let t = emx_hostprof::now();
                            let _ = match &slot {
                                Ok((report, cached)) => {
                                    journal.result(i, key.hex(), *cached, report)
                                }
                                Err(error) => journal.fail(i, error),
                            };
                            emx_hostprof::wall_since(emx_hostprof::Wall::SweepJournalNs, t);
                        }
                        if matches!(&slot, Ok((_, true))) {
                            hits.fetch_add(1, Ordering::Relaxed);
                        }
                        let outcome = (!self.quiet).then(|| match &slot {
                            Ok((_, true)) => "cache hit".to_string(),
                            Ok((_, false)) => {
                                format!("simulated in {:.2} s", run_started.elapsed().as_secs_f64())
                            }
                            Err(error) => format!("FAILED: {error}"),
                        });
                        lock(slots)[i] = Some(slot);
                        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                        if let Some(outcome) = outcome {
                            eprintln!(
                                "[sweep {finished}/{total}] {} ({}): {outcome}",
                                spec.label(),
                                key.short(),
                            );
                        }
                    }
                });
            }
            if let Some(cfg) = self.progress {
                scope.spawn(move || {
                    // Poll in short slices so the reporter exits promptly
                    // when the sweep finishes, whatever the cadence.
                    let slice = cfg.every.min(Duration::from_millis(50));
                    let mut last = Instant::now();
                    while done.load(Ordering::Relaxed) < total {
                        std::thread::sleep(slice);
                        if last.elapsed() < cfg.every {
                            continue;
                        }
                        last = Instant::now();
                        if done.load(Ordering::Relaxed) == total {
                            break; // the engine prints the final line itself
                        }
                        let running: Vec<String> = lock(board)
                            .iter()
                            .filter_map(|slot| slot.map(|i| specs[i].label()))
                            .collect();
                        eprintln!(
                            "{}",
                            render_heartbeat(
                                done.load(Ordering::Relaxed),
                                total,
                                hits.load(Ordering::Relaxed),
                                &running,
                                started.elapsed(),
                            )
                        );
                    }
                });
            }
        });

        if let Some(journal) = &self.journal {
            let _ = journal.done(total);
        }

        let mut simulated = 0;
        let mut cache_hits = 0;
        let mut points = Vec::with_capacity(total);
        let mut failed = Vec::new();
        let slots = slots.into_inner().unwrap_or_else(PoisonError::into_inner);
        for (index, ((slot, spec), key)) in slots.into_iter().zip(specs).zip(keys).enumerate() {
            match slot.expect("every claimed slot is filled") {
                Ok((report, cached)) => {
                    if !replayed[index] {
                        if cached {
                            cache_hits += 1;
                        } else {
                            simulated += 1;
                        }
                    }
                    points.push(SweepPoint {
                        spec,
                        key,
                        report,
                        cached,
                    });
                }
                Err(error) => failed.push(FailedRun {
                    index,
                    spec,
                    key,
                    error,
                }),
            }
        }

        // Settled after assembly, so the totals are scheduling-independent:
        // the same specs yield the same counters at any `--jobs` count.
        emx_hostprof::add_host(emx_hostprof::Host::SweepPoints, total as u64);
        emx_hostprof::add_host(emx_hostprof::Host::SweepCacheHits, cache_hits as u64);
        emx_hostprof::add_host(emx_hostprof::Host::SweepSimulated, simulated as u64);

        let outcome = SweepOutcome {
            points,
            failed,
            jobs: workers,
            simulated,
            cache_hits,
            resumed,
            wall: started.elapsed(),
        };
        if self.progress.is_some() {
            eprintln!(
                "{}",
                render_heartbeat(total, total, cache_hits, &[], outcome.wall)
            );
        }
        if !self.quiet {
            eprintln!("[sweep] {}", outcome.summary());
        }
        outcome
    }
}

/// Execute `spec` once, absorbing both `SimError`s and panics into the
/// error message.
fn execute(spec: &RunSpec) -> Result<RunReport, String> {
    match catch_unwind(AssertUnwindSafe(|| spec.execute())) {
        Ok(result) => result.map_err(|e| e.to_string()),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(format!("worker panicked: {msg}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{grid, Workload};

    fn quiet_engine() -> SweepEngine {
        SweepEngine::new().cache(None).quiet(true)
    }

    #[test]
    fn results_come_back_in_input_order() {
        let specs = grid(Workload::Sort, 4, &[64, 128], &[2, 1]);
        let outcome = quiet_engine().jobs(3).run(specs.clone());
        let got: Vec<(usize, usize)> = outcome
            .points
            .iter()
            .map(|p| (p.spec.per_pe, p.spec.threads))
            .collect();
        let want: Vec<(usize, usize)> = specs.iter().map(|s| (s.per_pe, s.threads)).collect();
        assert_eq!(got, want);
        assert_eq!(outcome.simulated, 4);
        assert_eq!(outcome.cache_hits, 0);
        assert_eq!(outcome.resumed, 0);
    }

    #[test]
    fn jobs_are_clamped_and_counted() {
        let outcome = quiet_engine()
            .jobs(64)
            .run(grid(Workload::Fft, 4, &[64], &[1]));
        // One spec -> one worker actually used.
        assert_eq!(outcome.jobs, 1);
        assert_eq!(outcome.points.len(), 1);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let outcome = quiet_engine().run(Vec::new());
        assert!(outcome.points.is_empty());
        assert!(outcome.failed.is_empty());
        assert_eq!(outcome.simulated, 0);
    }

    /// A spec whose fault plan fails validation: deterministic, immediate
    /// failure without a long simulation.
    fn doomed_spec() -> crate::spec::RunSpec {
        let mut spec = grid(Workload::Sort, 4, &[64], &[2]).pop().unwrap();
        let mut faults = emx_core::FaultSpec::with_loss(1, 1000);
        faults.delay_ppm = 1; // delay without max_delay: rejected
        spec.faults = Some(faults);
        spec
    }

    #[test]
    fn failed_points_do_not_take_the_sweep_down() {
        let mut specs = grid(Workload::Sort, 4, &[64], &[1, 2]);
        specs.insert(1, doomed_spec());
        let outcome = quiet_engine().jobs(2).run(specs);
        assert_eq!(outcome.points.len(), 2);
        assert_eq!(outcome.failed.len(), 1);
        let f = &outcome.failed[0];
        assert_eq!(f.index, 1);
        assert!(f.error.contains("max_delay"), "error: {}", f.error);
        // The surviving points are in submission order.
        assert_eq!(outcome.points[0].spec.threads, 1);
        assert_eq!(outcome.points[1].spec.threads, 2);
    }

    #[test]
    #[should_panic(expected = "sweep incomplete")]
    fn expect_complete_panics_on_failures() {
        quiet_engine().run(vec![doomed_spec()]).expect_complete();
    }

    #[test]
    fn failures_leave_the_cache_untouched() {
        let dir =
            std::env::temp_dir().join(format!("emx-sweep-engine-failure-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let outcome = SweepEngine::new()
            .cache(Some(crate::cache::RunCache::new(&dir)))
            .quiet(true)
            .run(vec![doomed_spec()]);
        assert_eq!(outcome.failed.len(), 1);
        // The failure is recorded in the outcome, not in the cache.
        let left = std::fs::read_dir(&dir).map_or(0, Iterator::count);
        assert_eq!(left, 0, "a failed point writes no cache file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prefilled_slots_replay_without_executing() {
        let specs = grid(Workload::Sort, 4, &[64], &[1, 2]);
        let reference = quiet_engine().run(specs.clone());
        let mut prefilled: Vec<Option<Slot>> = vec![None, None];
        prefilled[0] = Some(Ok((reference.points[0].report.clone(), true)));
        let outcome = quiet_engine().run_prefilled(specs, prefilled);
        assert_eq!(outcome.resumed, 1);
        assert_eq!(outcome.simulated, 1, "only the open slot executes");
        assert_eq!(outcome.cache_hits, 0, "replayed hits are not re-counted");
        assert!(outcome.points[0].cached, "the replayed cached flag sticks");
        assert_eq!(outcome.points[1].report, reference.points[1].report);
        assert!(outcome.summary().contains("1 replayed from journal"));
    }
}
