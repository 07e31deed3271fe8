//! Runtime invariant checking.
//!
//! When [`FaultSpec::check_invariants`](emx_core::FaultSpec) is set, the
//! machine feeds its event loop through an [`InvariantChecker`] that verifies
//! the properties the simulator's correctness rests on: simulated time never
//! runs backwards, no packet overtakes an earlier packet on the same
//! (source, destination) pair, and every packet injected into the network is
//! accounted for — delivered, dropped, or duplicated — by the end of the run
//! (packet conservation). A violation is not a panic: it becomes a
//! structured [`FaultReport`] rendered into
//! [`SimError::InvariantViolation`], so sweeps degrade to a failed point
//! instead of aborting the process.

use std::collections::HashMap;
use std::fmt;

use emx_core::{Codec, Cycle, PeId, SimError};
use emx_net::FaultCounters;

use crate::snap_pairs;

/// A structured description of one invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultReport {
    /// Which invariant was violated (short stable identifier).
    pub invariant: &'static str,
    /// Human-readable specifics: where, when, observed vs expected.
    pub detail: String,
}

impl FaultReport {
    /// A report for `invariant` with `detail`.
    pub fn new(invariant: &'static str, detail: String) -> FaultReport {
        FaultReport { invariant, detail }
    }

    /// Render into the error the simulator surfaces to callers.
    pub fn into_error(self) -> SimError {
        SimError::InvariantViolation {
            report: self.to_string(),
        }
    }
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

/// Checks the machine's core invariants as the event loop runs.
///
/// The checker is observation-only: the machine reports event pops, packet
/// sends (with their scheduled arrivals) and packet deliveries, and each
/// observation either passes or returns a [`FaultReport`]. Conservation is
/// checked once at end of run via [`final_check`](InvariantChecker::final_check).
#[derive(Debug, Default)]
pub struct InvariantChecker {
    last_event: Cycle,
    last_pair: HashMap<(PeId, PeId), Cycle>,
    injected: u64,
    scheduled: u64,
    delivered: u64,
}

impl InvariantChecker {
    /// A fresh checker at time zero.
    pub fn new() -> InvariantChecker {
        InvariantChecker::default()
    }

    /// An event was popped at `t`: simulated time must be monotonic.
    pub fn observe_event(&mut self, t: Cycle) -> Result<(), FaultReport> {
        if t < self.last_event {
            return Err(FaultReport::new(
                "monotonic-event-time",
                format!(
                    "event at cycle {} popped after cycle {}",
                    t.get(),
                    self.last_event.get()
                ),
            ));
        }
        self.last_event = t;
        Ok(())
    }

    /// A packet was injected on (src, dst) with these scheduled `arrivals`:
    /// none may precede an arrival already scheduled on the pair.
    pub fn observe_send(
        &mut self,
        src: PeId,
        dst: PeId,
        arrivals: &[Cycle],
    ) -> Result<(), FaultReport> {
        self.injected += 1;
        self.scheduled += arrivals.len() as u64;
        let last = self.last_pair.entry((src, dst)).or_insert(Cycle::ZERO);
        for &t in arrivals {
            if t < *last {
                return Err(FaultReport::new(
                    "per-pair-non-overtaking",
                    format!(
                        "PE{}->PE{}: arrival at cycle {} overtakes cycle {}",
                        src.0,
                        dst.0,
                        t.get(),
                        last.get()
                    ),
                ));
            }
            *last = t;
        }
        Ok(())
    }

    /// A scheduled arrival reached its destination's input buffer.
    pub fn observe_arrival(&mut self) {
        self.delivered += 1;
    }

    /// Pass the ledger through `c`: the latest event time, the per-pair
    /// latest arrivals, and the three packet counts.
    pub fn snap(&mut self, c: &mut dyn Codec) -> Result<(), SimError> {
        c.cycle(&mut self.last_event)?;
        let mut pairs = self.last_pair.len();
        c.usize(&mut pairs)?;
        snap_pairs(c, pairs, &mut self.last_pair)?;
        c.u64(&mut self.injected)?;
        c.u64(&mut self.scheduled)?;
        c.u64(&mut self.delivered)
    }

    /// End-of-run packet conservation: every injection is accounted for as a
    /// delivery, a drop, or an extra duplicated copy.
    pub fn final_check(&self, counters: Option<FaultCounters>) -> Result<(), FaultReport> {
        let c = counters.unwrap_or_default();
        let expected = self.injected - c.dropped + c.duplicated;
        if self.scheduled != expected {
            return Err(FaultReport::new(
                "packet-conservation",
                format!(
                    "scheduled {} arrivals from {} injections ({} dropped, {} duplicated); \
                     expected {expected}",
                    self.scheduled, self.injected, c.dropped, c.duplicated
                ),
            ));
        }
        if self.delivered != self.scheduled {
            return Err(FaultReport::new(
                "packet-conservation",
                format!(
                    "delivered {} of {} scheduled arrivals",
                    self.delivered, self.scheduled
                ),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_time_accepts_order_and_rejects_regression() {
        let mut c = InvariantChecker::new();
        c.observe_event(Cycle::new(1)).unwrap();
        c.observe_event(Cycle::new(1)).unwrap();
        c.observe_event(Cycle::new(5)).unwrap();
        let err = c.observe_event(Cycle::new(4)).unwrap_err();
        assert_eq!(err.invariant, "monotonic-event-time");
        assert!(matches!(
            err.into_error(),
            SimError::InvariantViolation { .. }
        ));
    }

    #[test]
    fn non_overtaking_is_per_pair() {
        let mut c = InvariantChecker::new();
        c.observe_send(PeId(0), PeId(1), &[Cycle::new(10)]).unwrap();
        // A different pair may arrive earlier.
        c.observe_send(PeId(0), PeId(2), &[Cycle::new(3)]).unwrap();
        // Same pair, equal time: ties are allowed.
        c.observe_send(PeId(0), PeId(1), &[Cycle::new(10)]).unwrap();
        let err = c
            .observe_send(PeId(0), PeId(1), &[Cycle::new(9)])
            .unwrap_err();
        assert_eq!(err.invariant, "per-pair-non-overtaking");
    }

    #[test]
    fn conservation_balances_drops_and_duplicates() {
        let mut c = InvariantChecker::new();
        c.observe_send(PeId(0), PeId(1), &[]).unwrap(); // dropped
        c.observe_send(PeId(0), PeId(1), &[Cycle::new(5), Cycle::new(6)])
            .unwrap(); // duplicated
        c.observe_send(PeId(0), PeId(1), &[Cycle::new(7)]).unwrap();
        for _ in 0..3 {
            c.observe_arrival();
        }
        let counters = FaultCounters {
            dropped: 1,
            duplicated: 1,
            delayed: 0,
        };
        c.final_check(Some(counters)).unwrap();
    }

    #[test]
    fn unreported_drop_fails_conservation() {
        let mut c = InvariantChecker::new();
        c.observe_send(PeId(0), PeId(1), &[]).unwrap(); // dropped
        c.observe_send(PeId(0), PeId(1), &[Cycle::new(4)]).unwrap();
        c.observe_arrival();
        // The drop never made it into the fault counters: ledger breaks.
        assert_eq!(
            c.final_check(None).unwrap_err().invariant,
            "packet-conservation"
        );
    }

    #[test]
    fn undelivered_arrival_fails_conservation() {
        let mut c = InvariantChecker::new();
        c.observe_send(PeId(0), PeId(1), &[Cycle::new(5)]).unwrap();
        let err = c.final_check(None).unwrap_err();
        assert!(err.detail.contains("delivered 0 of 1"));
        c.observe_arrival();
        c.final_check(None).unwrap();
    }

    #[test]
    fn report_renders_invariant_and_detail() {
        let r = FaultReport::new("demo", "what happened".into());
        assert_eq!(r.to_string(), "demo: what happened");
    }
}
