//! The event loop: pop the calendar in canonical [`EvKey`] order and
//! process each event to completion, effects included, before the next.
//!
//! [`EvKey`] is a total order over every event a run can schedule (see
//! `calendar.rs`), so the pop sequence — and with it every trace, report
//! and host-counter digest — is a pure function of the configuration and
//! the workload. Each event applies its effects inline
//! ([`Core::process_event`]): the invariant checker's observations, trace
//! and probe emissions as they happen, then each outgoing packet's route
//! and arrival push. DESIGN.md §8 records why a conservative parallel
//! driver was measured and removed.
//!
//! [`EvKey`]: crate::calendar::EvKey

use emx_core::{Cycle, SimError};
use emx_faults::FaultReport;
use emx_stats::RunReport;

use crate::machine::{Core, Fx, Machine, Obs, Shared};

impl Machine {
    /// Run to quiescence, failing if simulated time passes `limit` (guards
    /// against livelock from a barrier that can never be satisfied): a
    /// [`Machine::step_events`] with no event budget.
    pub fn run_until(&mut self, limit: Cycle) -> Result<RunReport, SimError> {
        let report = self.step_events(u64::MAX, limit)?;
        Ok(report.expect("an unbudgeted step runs to quiescence"))
    }

    /// Step the machine forward by at most `max_events` events, pausing at
    /// an event boundary.
    ///
    /// Returns `Ok(Some(report))` when the machine quiesced within the
    /// budget — the machine is then finished exactly as after
    /// [`Machine::run_until`] — or `Ok(None)` when it paused with events
    /// still pending. A paused machine can be snapshotted
    /// ([`Machine::snapshot`]), stepped again, or handed to
    /// [`Machine::run_until`] to finish.
    pub fn step_events(
        &mut self,
        max_events: u64,
        limit: Cycle,
    ) -> Result<Option<RunReport>, SimError> {
        if self.ran {
            return Err(SimError::Workload {
                reason: "the machine has already run to completion".into(),
            });
        }
        match self.drive_events(limit, max_events) {
            Ok(true) => {
                self.ran = true;
                self.finish().map(Some)
            }
            Ok(false) => Ok(None),
            Err(mut e) => {
                self.ran = true;
                if let SimError::FuelExhausted { live_threads, .. } = &mut e {
                    *live_threads = self.core.suspended();
                }
                Err(e)
            }
        }
    }

    /// Pop and fully process up to `max_events` events. `Ok(true)` means
    /// the calendar drained (quiescence); `Ok(false)` means the budget ran
    /// out with events still pending — the machine is paused at an event
    /// boundary, the state from which a snapshot is taken.
    fn drive_events(&mut self, limit: Cycle, max_events: u64) -> Result<bool, SimError> {
        let Machine {
            cfg,
            net,
            core,
            entries,
            barrier_defs,
            probe,
            checker,
            ..
        } = self;
        let sh = Shared {
            cfg,
            entries,
            barrier_defs,
        };
        let mut fx = Fx {
            net: net.as_mut(),
            obs: Obs {
                probe: probe.as_deref_mut(),
                emitted: 0,
            },
            checker: checker.as_mut(),
        };
        let res = drive(core, &sh, &mut fx, limit, max_events);
        emx_hostprof::add(emx_hostprof::Sim::ReplayEmissions, fx.obs.emitted);
        res
    }

    /// End-of-run checks: deadlock detection, the invariant checker's
    /// final pass, and report assembly.
    fn finish(&mut self) -> Result<RunReport, SimError> {
        let suspended = self.core.suspended();
        if suspended > 0 {
            return Err(SimError::Deadlock {
                at: self.core.cal.now().get(),
                suspended,
            });
        }
        if let Some(ck) = &self.checker {
            ck.final_check(self.net.fault_counters())
                .map_err(FaultReport::into_error)?;
            let fifo = self.core.fifo_violations();
            if fifo > 0 {
                return Err(FaultReport::new(
                    "fifo-within-priority",
                    format!("{fifo} packet(s) popped out of enqueue order"),
                )
                .into_error());
            }
        }
        Ok(self.report())
    }
}

/// The loop behind [`Machine::drive_events`].
fn drive(
    core: &mut Core,
    sh: &Shared<'_>,
    fx: &mut Fx<'_>,
    limit: Cycle,
    max_events: u64,
) -> Result<bool, SimError> {
    let mut popped = 0u64;
    while popped < max_events {
        let Some(head) = core.cal.peek_key() else {
            break;
        };
        if head.at > limit {
            // `step_events` patches in the live-thread census.
            return Err(SimError::FuelExhausted {
                cycle: head.at.get(),
                live_threads: 0,
            });
        }
        let Some((key, ev)) = core.cal.pop() else {
            break;
        };
        emx_faults::kill::tick();
        popped += 1;
        core.process_event(sh, fx, key, ev)?;
    }
    Ok(core.cal.peek_key().is_none())
}
