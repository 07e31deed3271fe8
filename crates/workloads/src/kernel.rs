//! The one shape every kernel has: build a machine, run it, finish.

use emx_core::{MachineConfig, PeId, SimError};
use emx_runtime::{EntryId, Machine};
use emx_stats::RunReport;

/// A kernel's parameters, and the two halves of a run around
/// [`Machine::run`].
///
/// Between [`build`](Kernel::build) and [`finish`](Kernel::finish) the
/// machine is the caller's: [`run`] runs it to quiescence, and a caller may
/// instead step it with [`Machine::step_events`], checkpoint it with
/// [`Machine::snapshot`], or restore a checkpoint into a second machine
/// built with the same parameters, and finish that one.
pub trait Kernel {
    /// What a verified run returns: its report and its gathered output.
    type Outcome;

    /// Validate the parameters against `cfg` and build a machine loaded
    /// and spawned for this run, but not yet run. `attach` receives the
    /// freshly built machine before anything is loaded or spawned, so it
    /// can attach a probe and see the complete event stream of the run.
    fn build(
        &self,
        cfg: &MachineConfig,
        attach: impl FnOnce(&mut Machine),
    ) -> Result<Machine, SimError>;

    /// Gather the output of a quiesced machine that [`build`](Kernel::build)
    /// made with these parameters, and verify it against a sequential
    /// reference computed from the same seed.
    fn finish(&self, machine: &Machine, report: RunReport) -> Result<Self::Outcome, SimError>;
}

/// Build, run to quiescence and finish: the one way a kernel runs.
///
/// # Examples
///
/// ```
/// use emx_core::MachineConfig;
/// use emx_workloads::{run, HistogramParams};
///
/// let mut cfg = MachineConfig::with_pes(4);
/// cfg.local_memory_words = 1 << 12;
/// let out = run(&cfg, &HistogramParams::new(256, 2), |_| {}).unwrap();
/// // Every key landed in exactly one of the 4 * 16 bucket cells.
/// assert_eq!(out.counts.len(), 64);
/// assert_eq!(out.counts.iter().map(|&c| c as u64).sum::<u64>(), 256);
/// ```
pub fn run<K: Kernel>(
    cfg: &MachineConfig,
    params: &K,
    attach: impl FnOnce(&mut Machine),
) -> Result<K::Outcome, SimError> {
    let mut machine = params.build(cfg, attach)?;
    let report = machine.run()?;
    params.finish(&machine, report)
}

/// Declare a worker's `Phase` enum and `PHASES`, the table
/// `Codec::variant` checkpoints it through. Both come from one list, so
/// every phase is in the table, and its snapshot token is its
/// declaration index.
macro_rules! phases {
    ($($phase:ident),+ $(,)?) => {
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum Phase {
            $($phase),+
        }

        /// Every phase, in snapshot token order.
        const PHASES: &[Phase] = &[$(Phase::$phase),+];
    };
}
pub(crate) use phases;

/// Spawn `h` workers running `entry` on every processor, in processor
/// order; worker `t` gets argument `t`.
pub(crate) fn spawn_workers(
    machine: &mut Machine,
    entry: EntryId,
    h: usize,
) -> Result<(), SimError> {
    for pe in 0..machine.config().num_pes {
        for t in 0..h {
            machine.spawn_at_start(PeId(pe as u16), entry, t as u32)?;
        }
    }
    Ok(())
}

/// Every processor's `len` words from `offset`, in processor order.
pub(crate) fn gather(machine: &Machine, offset: u32, len: usize) -> Result<Vec<u32>, SimError> {
    let mut out = Vec::with_capacity(machine.config().num_pes * len);
    for pe in 0..machine.config().num_pes {
        out.extend_from_slice(&machine.mem(PeId(pe as u16))?.read_slice(offset, len)?);
    }
    Ok(out)
}
