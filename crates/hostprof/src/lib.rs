//! # emx-hostprof
//!
//! Host-side self-observability for the EM-X simulator — the mirror image
//! of what `emx-profile` does for the *guest* machine. Where emx-profile
//! decomposes simulated cycles into busy/switch/wait/idle, this crate
//! decomposes *host* work: how many calendar operations, events, queue and
//! DMA operations the simulator performed, how a sweep was served (cache
//! hits vs. simulated points), and where wall-clock time went (sweep
//! worker vs. journal flush).
//!
//! Three counter classes, three report sections (`emx-hostprof/1`):
//!
//! * **`counters`** ([`Sim`]) — semantic simulation work. For an
//!   error-free run these are byte-identical across runs and `--jobs`
//!   settings, because the event loop pops every event in canonical
//!   order. The report digest covers *only* this section.
//! * **`host`** ([`Host`]) — deterministic for a fixed host configuration
//!   but dependent on it (sweep points, cache hits). Reported and
//!   digest-excluded.
//! * **`wall`** ([`Wall`]) — wall-clock section timers in nanoseconds and
//!   the opt-in counting-allocator totals. Annotations only:
//!   digest-excluded.
//!
//! Counting is globally gated by an atomic flag ([`set_enabled`]); when
//! disabled every hook is a single relaxed load and branch, so the hot
//! paths stay effectively free. All counters are process-global relaxed
//! atomics: sums are order-independent, which is exactly why the counter
//! section is reproducible at any worker count.
//!
//! The workspace test `tests/hostprof.rs` pins the exact counters of four
//! small sort and FFT runs. See `docs/OBSERVABILITY.md` § "Host
//! profiling" for the schema and the counter glossary.

// `deny` rather than the workspace-usual `forbid`: the counting global
// allocator is the one place that needs `unsafe` (GlobalAlloc), and it
// carries a scoped `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod counters;
pub mod report;

pub use alloc::{alloc_totals, CountingAlloc};
pub use counters::{
    add, add_host, add_wall, bump, count_lane, enabled, now, reset, set_enabled, snapshot,
    wall_since, Host, Sim, Snapshot, Wall, HOST_NAMES, SIM_NAMES, WALL_NAMES,
};
pub use report::{HostProfReport, HOSTPROF_SCHEMA};
