//! # emx-proc
//!
//! The EMC-Y processing-element component models.
//!
//! Each EMC-Y is "a single chip pipelined RISC-style processor ... \[which\]
//! consists of Switching Unit (SU), Input Buffer Unit (IBU), Matching Unit
//! (MU), Execution Unit (EXU), Output Buffer Unit (OBU) and Memory Control
//! Unit (MCU)" (paper §2.2). This crate provides those units as passive,
//! individually-tested state machines; the event loop in `emx-runtime`
//! orchestrates them:
//!
//! * [`LocalMemory`] — the MCU's view of the 4 MB static memory, implementing
//!   the ISA's [`MemoryBus`](emx_isa::MemoryBus);
//! * [`PacketQueue`] — the IBU's two-priority on-chip FIFOs (8 packets each)
//!   with automatic spill to the on-memory buffer;
//! * [`FrameTable`] — the activation-frame tree ("activation frames form a
//!   tree rather than a stack", §2.3), a slab allocator of thread frames;
//! * [`BypassDma`] — the IBU→MCU→OBU path that services remote reads and
//!   writes "without consuming the cycles of \[the\] Execution Unit".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dma;
mod frames;
mod memory;
mod queue;

pub use dma::BypassDma;
pub use frames::FrameTable;
pub use memory::LocalMemory;
pub use queue::{PacketQueue, Pushed};
