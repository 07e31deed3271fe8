//! The trace-event vocabulary, re-exported from `emx-core`.
//!
//! The machine narrates one event per observable scheduling step — packet
//! dispatch and injection, thread spawn/suspend/resume/retire, queue
//! enqueue/spill/unspill, by-pass DMA service, and network
//! injection/ejection — enough to reconstruct the FIFO scheduling
//! interleaving the paper's Figure 4 walks through by hand. The vocabulary
//! ([`TraceKind`], [`TraceEvent`]) lives in `emx-core` so the processor
//! units and network models emit through the same
//! [`Probe`](emx_core::Probe) sink. The machine keeps no event buffer of
//! its own: attach a probe with
//! [`Machine::attach_probe`](crate::Machine::attach_probe) (the `emx-obs`
//! recorder keeps a bounded log with exact drop counts).

pub use emx_core::{FaultKind, SuspendCause, TraceEvent, TraceKind, TRACE_SCHEMA};
