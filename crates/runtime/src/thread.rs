//! The native thread model: state-machine bodies and their actions.

use emx_core::{Codec, Cycle, GlobalAddr, PeId, SimError};
use emx_proc::LocalMemory;

use crate::machine::EntryId;

/// How EXU cycles charged by [`Action::Work`] are classified in the
/// Figure 8 breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkKind {
    /// Workload computation (merging, butterflies, ...).
    Compute,
    /// Packet-generation overhead: the address-computation loop around send
    /// instructions, which the paper measures with a null loop (§5).
    Overhead,
}

/// Identifier of a global barrier defined with
/// [`Machine::define_barrier`](crate::Machine::define_barrier).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BarrierId(pub u32);

/// What a native thread asks the runtime to do at a resumption point.
///
/// Non-suspending actions (`Work`, `Write`, `Spawn`, `SignalSeq`) return
/// control to the thread immediately — [`ThreadBody::step`] is called again
/// within the same burst, exactly like a thread that "continues the
/// computation without any interruption" after a send (paper §2.3).
/// Suspending actions (`Read`, `ReadBlock`, `Barrier`, `WaitSeq`, `Yield`,
/// `End`) end the burst and let the FIFO scheduler dispatch the next packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Charge `cycles` of EXU time, classified as `kind`.
    Work {
        /// EXU cycles to consume.
        cycles: u32,
        /// Breakdown classification.
        kind: WorkKind,
    },
    /// Issue a split-phase remote read of one word and suspend. The value
    /// arrives in [`ThreadCtx::value`] at the next step. Costs one send
    /// cycle (overhead) plus the context-switch cost, and counts one
    /// remote-read switch.
    Read {
        /// The word to read.
        addr: GlobalAddr,
    },
    /// Issue a block read of `len` words into local memory at `local_dst`
    /// and suspend until the last word has been deposited (by this
    /// processor's IBU, off the EXU). One request packet, `len` response
    /// packets; counts one remote-read switch and `len` issued reads.
    ReadBlock {
        /// First remote word.
        addr: GlobalAddr,
        /// Word count.
        len: u16,
        /// Local word offset of the destination buffer.
        local_dst: u32,
    },
    /// Remote write; "remote writes do not suspend the issuing threads"
    /// (paper §2.3).
    Write {
        /// Destination word.
        addr: GlobalAddr,
        /// Value to store.
        value: u32,
    },
    /// Send a thread-invocation packet; the issuing thread continues.
    Spawn {
        /// Target processor.
        pe: PeId,
        /// Registered entry to invoke.
        entry: EntryId,
        /// Argument word (lands in the new thread's `arg`).
        arg: u32,
    },
    /// Arrive at a global barrier and suspend until every registered
    /// participant on every processor has arrived and the coordinator's
    /// release reaches this processor. Waiting threads re-poll on the
    /// [`barrier_poll_interval`](emx_core::CostModel::barrier_poll_interval);
    /// each unsuccessful poll counts one iteration-sync switch.
    Barrier {
        /// Which barrier.
        id: BarrierId,
    },
    /// Suspend until this processor's sequence cell `cell` reaches
    /// `threshold` — the ordered-merge synchronization of multithreaded
    /// bitonic sorting ("Thread j cannot proceed to computation before
    /// Thread i, where j > i", paper §4). Counts thread-sync switches.
    WaitSeq {
        /// Index of the local sequence cell.
        cell: u32,
        /// Value the cell must reach before the thread resumes.
        threshold: u64,
    },
    /// Increment local sequence cell `cell` by one, waking satisfied
    /// waiters; the thread continues.
    SignalSeq {
        /// Index of the local sequence cell.
        cell: u32,
    },
    /// Explicit thread switch: re-enqueue this thread behind the packets
    /// already waiting.
    Yield,
    /// Thread completes; its activation frame is reclaimed.
    End,
}

impl Action {
    /// Whether this action ends the current execution burst.
    pub fn suspends(&self) -> bool {
        matches!(
            self,
            Action::Read { .. }
                | Action::ReadBlock { .. }
                | Action::Barrier { .. }
                | Action::WaitSeq { .. }
                | Action::Yield
                | Action::End
        )
    }
}

/// Everything a native thread can see when it is stepped.
pub struct ThreadCtx<'a> {
    /// The processor this thread runs on.
    pub pe: PeId,
    /// Machine size.
    pub npes: u32,
    /// Current simulation time (read-only; useful for tracing).
    pub now: Cycle,
    /// Value delivered by the last [`Action::Read`] (or the word count of a
    /// completed [`Action::ReadBlock`]); `None` on other resumptions.
    pub value: Option<u32>,
    /// The argument word of the packet that invoked this thread.
    pub arg: u32,
    /// This processor's local memory. Reads and writes here are free;
    /// charge their cost explicitly with [`Action::Work`].
    pub mem: &'a mut LocalMemory,
    /// Read-only view of this processor's sequence cells.
    pub seq: &'a [u64],
}

/// A native thread: a state machine stepped by the scheduler.
///
/// `step` is called when the thread is (re)dispatched and again after every
/// non-suspending action; it must eventually return a suspending action.
/// State lives in `self` — the runtime saves nothing else across
/// suspensions, mirroring the EM-X rule that registers are saved to the
/// activation frame (here: the body itself is the frame's payload, and
/// [`snap`](ThreadBody::snap) checkpoints it).
pub trait ThreadBody: Send {
    /// Produce the next action.
    fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action;

    /// Short name for traces and deadlock diagnostics.
    fn name(&self) -> &'static str {
        "thread"
    }

    /// Pass this body's dynamic state through `c`, one field at a time,
    /// for a machine snapshot: the frame's payload, as the EM-X saves a
    /// suspended thread's registers to its activation frame. Encoding reads
    /// the fields; decoding overwrites them in a body freshly built by the
    /// entry's factory from the original spawn argument, so fields the
    /// factory derives need no saving. Encode floats through `to_bits`.
    ///
    /// The default fails with [`SimError::SnapshotUnsupported`]: a machine
    /// with such a body live cannot be checkpointed.
    fn snap(&mut self, _c: &mut dyn Codec) -> Result<(), SimError> {
        Err(SimError::SnapshotUnsupported {
            what: format!("body '{}' has no snap hook", self.name()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suspending_actions_are_exactly_the_blocking_ones() {
        let ga = GlobalAddr::new(PeId(0), 0).unwrap();
        assert!(Action::Read { addr: ga }.suspends());
        assert!(Action::ReadBlock {
            addr: ga,
            len: 4,
            local_dst: 0
        }
        .suspends());
        assert!(Action::Barrier { id: BarrierId(0) }.suspends());
        assert!(Action::WaitSeq {
            cell: 0,
            threshold: 1
        }
        .suspends());
        assert!(Action::Yield.suspends());
        assert!(Action::End.suspends());
        assert!(!Action::Work {
            cycles: 1,
            kind: WorkKind::Compute
        }
        .suspends());
        assert!(!Action::Write { addr: ga, value: 0 }.suspends());
        assert!(!Action::SignalSeq { cell: 0 }.suspends());
    }
}
