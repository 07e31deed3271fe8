//! # emx-runtime
//!
//! The EM-X multithreading runtime: threads, activation frames, FIFO
//! hardware scheduling, split-phase remote reads, barriers, and the
//! [`Machine`] facade that drives the whole simulation.
//!
//! ## Execution model
//!
//! "A thread of instructions is ... invoked by using the address portion of
//! the packet just dequeued. The thread will run to completion unless it
//! encounters any remote memory operations or explicit thread switching. If
//! the thread encounters a remote memory operation, it will be suspended
//! after the remote read request is sent out. ... The completion or
//! suspension of a thread causes the next packet to be automatically
//! dequeued from the packet queue using FIFO scheduling." (paper §2.3)
//!
//! Threads come in two flavours:
//!
//! * **ISA threads** execute a [`Program`](emx_isa::Program) template on the
//!   interpreted EMC-Y pipeline — full architectural fidelity, used by the
//!   microkernels and the latency experiments;
//! * **native threads** implement [`ThreadBody`]: Rust state machines that
//!   return one [`Action`] per resumption point and charge explicit cycle
//!   counts, calibrated against the ISA cost table — used by the large
//!   bitonic-sort and FFT workloads where interpreting every instruction
//!   would make paper-scale runs intractable.
//!
//! Both flavours share frames, scheduling, packets, switch accounting and
//! the network, so the timing phenomena the paper studies (latency masking,
//! switch censuses, overlap efficiency) are identical across them.
//!
//! ## Quick start
//!
//! ```
//! use emx_core::{GlobalAddr, MachineConfig, PeId};
//! use emx_runtime::{Action, Machine, ThreadBody, ThreadCtx, WorkKind};
//!
//! /// Read one word from the next processor, double it, store locally.
//! struct Doubler {
//!     step: u8,
//! }
//!
//! impl ThreadBody for Doubler {
//!     fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
//!         self.step += 1;
//!         match self.step {
//!             1 => {
//!                 let mate = PeId((ctx.pe.0 + 1) % ctx.npes as u16);
//!                 Action::Read { addr: GlobalAddr::new(mate, 0).unwrap() }
//!             }
//!             2 => {
//!                 let v = ctx.value.unwrap();
//!                 ctx.mem.write(1, v * 2).unwrap();
//!                 Action::Work { cycles: 3, kind: WorkKind::Compute }
//!             }
//!             _ => Action::End,
//!         }
//!     }
//! }
//!
//! let mut m = Machine::new(MachineConfig::with_pes(4)).unwrap();
//! let entry = m.register_entry("doubler", |_pe, _arg| Box::new(Doubler { step: 0 }));
//! for pe in 0..4u16 {
//!     m.mem_mut(PeId(pe)).unwrap().write(0, 10 + u32::from(pe)).unwrap();
//!     m.spawn_at_start(PeId(pe), entry, 0).unwrap();
//! }
//! let report = m.run().unwrap();
//! assert_eq!(m.mem(PeId(0)).unwrap().read(1).unwrap(), 22); // 2 x PE1's word
//! assert_eq!(report.total_reads(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calendar;
mod driver;
mod machine;
mod snapshot;
mod thread;
mod trace;

pub use machine::{EntryId, Machine, BARRIER_COORDINATOR, DEFAULT_FUEL, FRAME_WORDS};
pub use snapshot::config_digest;
pub use thread::{Action, BarrierId, ThreadBody, ThreadCtx, WorkKind};
pub use trace::{FaultKind, SuspendCause, TraceEvent, TraceKind, TRACE_SCHEMA};
