//! # emx-core
//!
//! Core types shared by every crate of the EM-X simulator: simulated time in
//! processor cycles, the global address space, the 2-word fixed-size packet
//! that carries *all* EM-X communication, and the machine configuration
//! (processor counts, cost model, network selection).
//!
//! The EM-X (Electrotechnical Laboratory, 1995) is a distributed-memory
//! multiprocessor whose 80 EMC-Y processors run at 20 MHz and communicate
//! exclusively through two-word packets routed over a circular Omega network.
//! This crate pins down those machine constants and the vocabulary the rest of
//! the workspace builds on; it contains no simulation logic itself.
//!
//! ## Layout
//!
//! * [`time`] — [`Cycle`] arithmetic and wall-clock conversion.
//! * [`addr`] — [`PeId`], [`GlobalAddr`] and
//!   [`Continuation`] with their 32-bit wire packings.
//! * [`packet`] — [`Packet`], its kinds and priorities, and
//!   the exact 2×32-bit wire encoding.
//! * [`config`] — [`MachineConfig`] and
//!   [`CostModel`].
//! * [`faults`] — [`FaultSpec`], the deterministic
//!   fault-injection plan threaded through network, processor and runtime.
//! * [`probe`] — the [`TraceKind`] event vocabulary and
//!   the [`Probe`] sink the observability layer hangs off
//!   (exporters and metrics live in `emx-obs`; spec in
//!   `docs/OBSERVABILITY.md`).
//! * [`codec`] — the [`Codec`] every checkpointed field passes through,
//!   once, in its owner's `snap` method.
//! * [`error`] — [`SimError`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod codec;
pub mod config;
pub mod error;
pub mod faults;
pub mod packet;
pub mod probe;
pub mod time;

pub use addr::{Continuation, FrameId, GlobalAddr, PeId, SlotId};
pub use codec::{Codec, Tape};
pub use config::{CostModel, CostPreset, MachineConfig, NetConfig, NetModelKind, ServiceMode};
pub use error::SimError;
pub use faults::{FaultSpec, PPM_SCALE};
pub use packet::{Packet, PacketKind, Priority, WirePacket};
pub use probe::{
    FaultKind, NullProbe, Probe, SuspendCause, TraceEvent, TraceKind, TraceLine, TRACE_SCHEMA,
};
pub use time::Cycle;
