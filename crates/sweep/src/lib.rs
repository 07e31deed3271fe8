//! # emx-sweep
//!
//! The parallel, deterministic, cached sweep engine behind every figure
//! and ablation regeneration in this repository.
//!
//! Every paper figure (Figs. 6–9, the latency probe, the ablations) is a
//! sweep over (workload, P, n, h) plus ablation knobs. Each point is an
//! independent, *pure* simulation — the simulator is seeded and its event
//! queue tie-broken, so a run's result is a function of its spec alone.
//! This crate exploits that three ways:
//!
//! * **Parallel** — [`SweepEngine`] expands a grid into an indexed list of
//!   [`RunSpec`]s and executes them on a [`std::thread::scope`] worker
//!   pool ([`std::thread::available_parallelism`] workers by default,
//!   overridable with `--jobs`), reassembling results **by input index**
//!   so output — and every CSV derived from it — is byte-identical to the
//!   serial path.
//! * **Cached** — results are stored content-addressed under
//!   `results/cache/`, keyed by a stable digest of the spec, the full
//!   machine/cost/network configuration, and the engine version
//!   ([`CacheKey`]). Re-running a figure only simulates changed points;
//!   editing a cost reruns everything it affects, automatically.
//! * **Accounted** — every regenerated CSV gets a JSON provenance sidecar
//!   ([`provenance`]) recording the specs, seeds, cache keys, per-report
//!   digests, worker count and wall clock behind it.
//!
//! Long sweeps are additionally **recoverable**: an optional write-ahead
//! [`journal`] commits every finished point to disk so a killed process
//! can be resumed (`emx-cli resume`) with a byte-identical outcome. Each
//! point runs once, bounded by the machine's event fuel rather than a
//! wall clock.
//!
//! The grid/determinism/caching contract is documented in `docs/SWEEPS.md`;
//! the journal recovery story in `docs/CHECKPOINT.md`.
//!
//! ```
//! use emx_sweep::{grid, SweepEngine, Workload};
//!
//! // Sweep sort on 4 PEs, 64 keys per PE, h ∈ {1, 2}, without caching.
//! let outcome = SweepEngine::new()
//!     .jobs(2)
//!     .cache(None)
//!     .quiet(true)
//!     .run(grid(Workload::Sort, 4, &[64], &[1, 2]));
//! assert_eq!(outcome.points.len(), 2);
//! let comm1 = outcome.points[0].report.comm_sync_time_secs();
//! let comm2 = outcome.points[1].report.comm_sync_time_secs();
//! assert!(comm2 < comm1, "a second thread overlaps some communication");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod journal;
pub mod progress;
pub mod provenance;
pub mod spec;

pub use cache::{CacheKey, GcAction, GcReport, RunCache, CACHE_FORMAT, DEFAULT_CACHE_DIR};
pub use engine::{FailedRun, SweepEngine, SweepOutcome, SweepPoint};
pub use journal::{resume, Completed, Journal, JournalState, ResumedSweep, JOURNAL_FORMAT};
pub use progress::ProgressConfig;
pub use spec::{config_canonical, grid, RunSpec, Workload};
