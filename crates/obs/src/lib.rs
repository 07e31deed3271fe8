//! # emx-obs
//!
//! Observability for the EM-X simulator: a [`Recorder`] that attaches to a
//! [`Machine`](../emx_runtime/struct.Machine.html) as a
//! [`Probe`](emx_core::Probe) and keeps a bounded [`EventLog`], the
//! deterministic exporters that lay the log out — Perfetto/Chrome-trace
//! JSON ([`chrome_trace_json`]) and columnar CSV ([`events_csv`]) — and
//! the [`DigestProbe`] that fingerprints a stream without keeping it.
//!
//! The EM-X paper argues its case with *schedules*: Figure 4 hand-walks the
//! FIFO interleaving of four threads across two processors, and Figures 6–9
//! aggregate the same lifecycle into breakdowns. The recorder captures the
//! exact `emx-trace/2` event stream (spawn/suspend/resume/retire with
//! causes, queue pressure, by-pass DMA service, network hops), and the
//! exporters lay it out on one track per processor for
//! <https://ui.perfetto.dev>. Per-PE counts and distributions folded from
//! the same stream are `emx-profile`'s report. The wire formats are
//! specified in `docs/OBSERVABILITY.md`.
//!
//! ## Usage
//!
//! ```
//! use emx_obs::Recorder;
//! # use emx_runtime::Machine;
//! # use emx_core::{MachineConfig, PeId};
//! let mut m = Machine::new(MachineConfig::with_pes(2)).unwrap();
//! let (recorder, handle) = Recorder::bounded(4096);
//! m.attach_probe(Box::new(recorder));
//! // ... register entries, spawn, m.run() ...
//! # struct Noop;
//! # impl emx_runtime::ThreadBody for Noop {
//! #     fn step(&mut self, _: &mut emx_runtime::ThreadCtx<'_>) -> emx_runtime::Action {
//! #         emx_runtime::Action::End
//! #     }
//! # }
//! # let entry = m.register_entry("noop", |_, _| Box::new(Noop));
//! # m.spawn_at_start(PeId(0), entry, 0).unwrap();
//! # let report = m.run().unwrap();
//! let log = handle.finish();
//! let json = emx_obs::chrome_trace_json(&log, report.clock_hz);
//! let csv = emx_obs::events_csv(&log, report.clock_hz);
//! assert!(emx_obs::validate_chrome_trace(&json).is_ok());
//! ```
//!
//! Everything here is deterministic: the same seed and spec produce
//! byte-identical JSON and CSV, at any parallelism, and each export is
//! stamped with a 128-bit digest of its event stream so provenance
//! sidecars can cross-check files against runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod csv;
mod digest;
mod json;
mod recorder;

pub use chrome::chrome_trace_json;
pub use csv::events_csv;
pub use digest::{DigestHandle, DigestProbe};
pub use emx_stats::json::{parse_json, JsonValue};
pub use json::{validate_chrome_trace, ChromeSummary};
pub use recorder::{EventLog, Recorder, RecorderHandle};
