//! # emx-stats
//!
//! Instrumentation for the EM-X simulator, mirroring the measurements of the
//! SPAA'97 paper:
//!
//! * [`Breakdown`] — the four timing components of Figure 8: computation,
//!   overhead (packet generation), communication (EXU idle waiting on
//!   remote data), and switching;
//! * [`SwitchCensus`] — the three switch types of Figure 9: remote-read,
//!   iteration-synchronization, and thread-synchronization switches;
//! * [`PeStats`] / [`RunReport`] — per-processor and whole-run aggregates,
//!   including the overlap efficiency `E = (Tcomm,1 − Tcomm,h)/Tcomm,1` of
//!   Figure 7;
//! * [`Table`] and [`ascii_chart`] — plain-text reporters used by the
//!   examples and the figure-regeneration harness;
//! * [`digest`] — stable (platform- and process-independent) content
//!   digests of runs and reports, the provenance hooks behind `emx-sweep`'s
//!   run cache and the `results/*.json` sidecars, and both directions of
//!   the canonical `emx-report v2` text;
//! * [`json`] — the one JSON string escaper and the JSON reader every
//!   report writer and parser shares;
//! * [`diff`] — the drift comparator behind `profile-diff`: one
//!   [`Verdict`], one [`DiffEntry`], one delta rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breakdown;
mod census;
mod chart;
pub mod diff;
pub mod digest;
pub mod json;
mod report;
mod table;

pub use breakdown::Breakdown;
pub use census::SwitchCensus;
pub use chart::{ascii_chart, bar, Series};
pub use diff::{Diff, DiffEntry, Verdict};
pub use digest::{report_digest, Digest128};
pub use report::{overlap_efficiency, FaultSummary, PeStats, RunReport};
pub use table::Table;
