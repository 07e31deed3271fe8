//! Deterministic fault-injection specification.
//!
//! The paper's EM-X assumes a lossless, non-overtaking network and bounded
//! on-chip FIFOs that spill to memory (§2.2–§2.3). [`FaultSpec`] makes those
//! assumptions *experimental knobs*: it describes, as plain data, which
//! faults a run injects — packet drop/duplicate/delay at network injection,
//! forced IBU spills, DMA stalls, and frame-table exhaustion on chosen
//! processors — plus the remote-read retry protocol that lets workloads
//! complete under loss.
//!
//! Everything is integer-valued (probabilities in parts-per-million) so a
//! spec is `Eq`/hashable and participates in sweep cache keys exactly like
//! every other knob. The spec carries a seed; fault *decisions* are made by
//! the seeded generators in the `emx-faults` crate, never by wall-clock or
//! ambient randomness, so a run with a given spec is exactly reproducible.

use crate::error::SimError;

/// One million: the denominator of every `*_ppm` probability field.
pub const PPM_SCALE: u32 = 1_000_000;

/// A deterministic fault-injection plan for one run.
///
/// All probabilities are in parts-per-million of [`PPM_SCALE`]; a field of
/// `0` disables that fault entirely. The default spec injects nothing and
/// arms the retry protocol with calibrated timeouts (a remote-read round
/// trip is 20–40 cycles, paper §2.3, so the base timeout comfortably
/// exceeds it).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// Seed for every fault-decision stream derived from this spec.
    pub seed: u64,
    /// Probability (ppm) that a data-plane packet is dropped at injection.
    pub drop_ppm: u32,
    /// Probability (ppm) that a data-plane packet is duplicated at
    /// injection (both copies traverse the network).
    pub dup_ppm: u32,
    /// Probability (ppm) that a packet's arrival is delayed.
    pub delay_ppm: u32,
    /// Maximum extra delay in cycles (uniform in `1..=max_delay`); must be
    /// positive when `delay_ppm > 0`.
    pub max_delay: u32,
    /// Probability (ppm) that an enqueued packet is forced to spill to the
    /// on-memory buffer even when the on-chip FIFO has room.
    pub spill_ppm: u32,
    /// Probability (ppm) that the by-pass DMA stalls before servicing a
    /// remote access.
    pub dma_stall_ppm: u32,
    /// Stall length in cycles; must be positive when `dma_stall_ppm > 0`.
    pub dma_stall_cycles: u32,
    /// Cap the frame table of the targeted processors to this many frames
    /// (exhaustion then surfaces as [`SimError::OutOfFrames`]).
    pub frame_cap: Option<u32>,
    /// Processors whose frame table is capped; empty means every processor.
    pub frame_cap_pes: Vec<u16>,
    /// Base remote-read retry timeout in cycles; `0` disables the retry
    /// protocol (a dropped read response then deadlocks, as on the real
    /// machine).
    pub retry_timeout: u32,
    /// Upper bound on the exponential backoff between retries, in cycles.
    pub retry_backoff_cap: u32,
    /// Give up a read after this many re-issues and fail the run with
    /// [`SimError::RetryExhausted`]; `0` retries forever.
    pub max_attempts: u32,
    /// Run the invariant checker (packet conservation, per-pair
    /// non-overtaking, FIFO order within priority, monotonic event time)
    /// and fail with [`SimError::InvariantViolation`] on a violation.
    pub check_invariants: bool,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::new(0)
    }
}

impl FaultSpec {
    /// A spec that injects nothing, with the retry protocol armed at
    /// calibrated timeouts and invariant checking off.
    pub fn new(seed: u64) -> FaultSpec {
        FaultSpec {
            seed,
            drop_ppm: 0,
            dup_ppm: 0,
            delay_ppm: 0,
            max_delay: 0,
            spill_ppm: 0,
            dma_stall_ppm: 0,
            dma_stall_cycles: 0,
            frame_cap: None,
            frame_cap_pes: Vec::new(),
            retry_timeout: 128,
            retry_backoff_cap: 4096,
            max_attempts: 0,
            check_invariants: false,
        }
    }

    /// A spec that drops data-plane packets with probability `drop_ppm`.
    pub fn with_loss(seed: u64, drop_ppm: u32) -> FaultSpec {
        FaultSpec {
            drop_ppm,
            ..FaultSpec::new(seed)
        }
    }

    /// Whether this spec can change a run at all: no fault has a non-zero
    /// probability, no frame table is capped, and invariant checking is
    /// off. (The retry fields alone are inert — with nothing dropped, no
    /// retry ever fires.)
    pub fn is_noop(&self) -> bool {
        self.drop_ppm == 0
            && self.dup_ppm == 0
            && self.delay_ppm == 0
            && self.spill_ppm == 0
            && self.dma_stall_ppm == 0
            && self.frame_cap.is_none()
            && !self.check_invariants
    }

    /// Whether any network-level fault (drop/duplicate/delay) is enabled.
    pub fn any_net_faults(&self) -> bool {
        self.drop_ppm > 0 || self.dup_ppm > 0 || self.delay_ppm > 0
    }

    /// Whether the remote-read retry protocol is armed.
    pub fn retry_enabled(&self) -> bool {
        self.retry_timeout > 0
    }

    /// Whether `pe`'s frame table is capped, and to how many frames.
    pub fn frame_cap_for(&self, pe: usize) -> Option<u32> {
        let cap = self.frame_cap?;
        if self.frame_cap_pes.is_empty() || self.frame_cap_pes.iter().any(|&p| usize::from(p) == pe)
        {
            Some(cap)
        } else {
            None
        }
    }

    /// Validate the spec; returns the reason it cannot be used.
    pub fn validate(&self) -> Result<(), SimError> {
        let fail = |reason: String| Err(SimError::BadConfig { reason });
        for (name, ppm) in [
            ("drop_ppm", self.drop_ppm),
            ("dup_ppm", self.dup_ppm),
            ("delay_ppm", self.delay_ppm),
            ("spill_ppm", self.spill_ppm),
            ("dma_stall_ppm", self.dma_stall_ppm),
        ] {
            if ppm > PPM_SCALE {
                return fail(format!("{name}={ppm} exceeds {PPM_SCALE} (100%)"));
            }
        }
        if self.drop_ppm == PPM_SCALE {
            return fail("drop_ppm of 100% can never converge".into());
        }
        if self.delay_ppm > 0 && self.max_delay == 0 {
            return fail("delay_ppm > 0 requires max_delay > 0".into());
        }
        if self.dma_stall_ppm > 0 && self.dma_stall_cycles == 0 {
            return fail("dma_stall_ppm > 0 requires dma_stall_cycles > 0".into());
        }
        if self.frame_cap == Some(0) {
            return fail("frame_cap must leave at least one frame".into());
        }
        if (self.drop_ppm > 0 || self.dup_ppm > 0) && self.retry_enabled() {
            // Retry re-issues must eventually outlast the backoff cap.
            if self.retry_backoff_cap < self.retry_timeout {
                return fail("retry_backoff_cap below retry_timeout".into());
            }
        }
        Ok(())
    }

    /// Canonical one-line text rendering, used by sweep cache keys and
    /// provenance. Every field appears exactly once.
    pub fn canonical(&self) -> String {
        let pes = self
            .frame_cap_pes
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "faults: seed={} drop_ppm={} dup_ppm={} delay_ppm={} max_delay={} spill_ppm={} \
             dma_stall_ppm={} dma_stall_cycles={} frame_cap={} frame_cap_pes=[{}] \
             retry_timeout={} retry_backoff_cap={} max_attempts={} check_invariants={}",
            self.seed,
            self.drop_ppm,
            self.dup_ppm,
            self.delay_ppm,
            self.max_delay,
            self.spill_ppm,
            self.dma_stall_ppm,
            self.dma_stall_cycles,
            match self.frame_cap {
                Some(c) => c.to_string(),
                None => "none".into(),
            },
            pes,
            self.retry_timeout,
            self.retry_backoff_cap,
            self.max_attempts,
            self.check_invariants,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_noop_and_valid() {
        let f = FaultSpec::new(7);
        assert!(f.is_noop());
        assert!(!f.any_net_faults());
        assert!(f.retry_enabled());
        f.validate().unwrap();
    }

    #[test]
    fn loss_spec_has_net_faults() {
        let f = FaultSpec::with_loss(1, 10_000);
        assert!(!f.is_noop());
        assert!(f.any_net_faults());
        f.validate().unwrap();
    }

    #[test]
    fn validation_rejects_degenerate_specs() {
        let mut f = FaultSpec::new(0);
        f.drop_ppm = PPM_SCALE + 1;
        assert!(f.validate().is_err());

        let mut f = FaultSpec::new(0);
        f.drop_ppm = PPM_SCALE;
        assert!(f.validate().is_err(), "certain loss can never converge");

        let mut f = FaultSpec::new(0);
        f.delay_ppm = 1;
        assert!(f.validate().is_err(), "delay needs max_delay");
        f.max_delay = 8;
        f.validate().unwrap();

        let mut f = FaultSpec::new(0);
        f.dma_stall_ppm = 1;
        assert!(f.validate().is_err(), "stall needs a length");
        f.dma_stall_cycles = 4;
        f.validate().unwrap();

        let mut f = FaultSpec::new(0);
        f.frame_cap = Some(0);
        assert!(f.validate().is_err());

        let mut f = FaultSpec::with_loss(0, 1000);
        f.retry_backoff_cap = f.retry_timeout - 1;
        assert!(f.validate().is_err());
    }

    #[test]
    fn frame_cap_targets_chosen_pes() {
        let mut f = FaultSpec::new(0);
        assert_eq!(f.frame_cap_for(3), None);
        f.frame_cap = Some(2);
        assert_eq!(f.frame_cap_for(3), Some(2));
        f.frame_cap_pes = vec![1, 4];
        assert_eq!(f.frame_cap_for(1), Some(2));
        assert_eq!(f.frame_cap_for(3), None);
        assert!(!f.is_noop());
    }

    #[test]
    fn canonical_covers_every_field() {
        let base = FaultSpec::new(1);
        let c0 = base.canonical();
        for mutate in [
            |f: &mut FaultSpec| f.seed = 2,
            |f: &mut FaultSpec| f.drop_ppm = 1,
            |f: &mut FaultSpec| f.dup_ppm = 1,
            |f: &mut FaultSpec| f.delay_ppm = 1,
            |f: &mut FaultSpec| f.max_delay = 1,
            |f: &mut FaultSpec| f.spill_ppm = 1,
            |f: &mut FaultSpec| f.dma_stall_ppm = 1,
            |f: &mut FaultSpec| f.dma_stall_cycles = 1,
            |f: &mut FaultSpec| f.frame_cap = Some(9),
            |f: &mut FaultSpec| f.frame_cap_pes = vec![5],
            |f: &mut FaultSpec| f.retry_timeout = 99,
            |f: &mut FaultSpec| f.retry_backoff_cap = 9999,
            |f: &mut FaultSpec| f.max_attempts = 3,
            |f: &mut FaultSpec| f.check_invariants = true,
        ] {
            let mut f = base.clone();
            mutate(&mut f);
            assert_ne!(c0, f.canonical(), "canonical missed a field: {f:?}");
        }
    }
}
