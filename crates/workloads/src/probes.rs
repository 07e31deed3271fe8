//! The paper's two in-text microprobes, beside the §5 null loop.
//!
//! * [`remote_read_latency`] — "the average remote memory latency, when
//!   the network is normally loaded, is approximately 1 to 2 µs, or 20-40
//!   clocks": reader processors run the interpreted
//!   [`read_loop`](emx_isa::kernels::read_loop) kernel against the last
//!   processor, so contention grows with the reader count.
//! * [`read_loop_idle`] — the native 12-cycle read loop (11 cycles of loop
//!   overhead + 1 send, the sorting loop body) that calibrates and checks
//!   the analytic model's "two to four threads".

use emx_core::{GlobalAddr, MachineConfig, PeId, SimError};
use emx_runtime::{Action, Machine, ThreadBody, ThreadCtx, WorkKind};

/// The most reads one [`remote_read_latency`] reader issues: the read
/// loop's limit is a 16-bit signed immediate.
const MAX_READS: usize = i16::MAX as usize;

/// Mean remote-read round trip, in cycles, of `readers` processors (PEs
/// `0..readers`) each running `reads` split-phase reads of a word on the
/// last processor.
///
/// The round trip is idle waiting plus the suspend/resume switching, the
/// quantity the paper's 20-40 clock band describes. Fails with a
/// [`SimError::Workload`] unless `readers` is in `1..num_pes` and `reads`
/// in `1..=32767`.
pub fn remote_read_latency(
    cfg: &MachineConfig,
    readers: usize,
    reads: usize,
) -> Result<f64, SimError> {
    let pes = cfg.num_pes;
    let fail = |reason: String| Err(SimError::Workload { reason });
    if readers == 0 || readers >= pes {
        return fail(format!("readers={readers} must be in 1..{pes}"));
    }
    if reads == 0 || reads > MAX_READS {
        return fail(format!("reads={reads} must be in 1..={MAX_READS}"));
    }
    let mut m = Machine::new(cfg.clone())?;
    let tmpl = m.register_template(emx_isa::kernels::read_loop(reads as i16, 0));
    let target = GlobalAddr::new(PeId((pes - 1) as u16), 64)
        .expect("word 64 of a machine PE")
        .pack();
    for r in 0..readers {
        m.spawn_at_start(PeId(r as u16), tmpl, target)?;
    }
    let report = m.run()?;
    let wait: u64 = report.per_pe[..readers]
        .iter()
        .map(|p| (p.breakdown.comm + p.breakdown.switch).get())
        .sum();
    Ok(wait as f64 / report.total_reads() as f64)
}

/// Simulated idle (communication) cycles per read when every processor
/// runs `threads` threads of the native 12-cycle read loop, each issuing
/// `reads` reads to the next processor.
pub fn read_loop_idle(cfg: &MachineConfig, threads: usize, reads: u32) -> Result<f64, SimError> {
    let mut m = Machine::new(cfg.clone())?;
    let entry = m.register_entry("readloop", move |_, _| {
        Box::new(ReadLoop {
            remaining: reads,
            cursor: 0,
            in_body: false,
        })
    });
    for pe in 0..cfg.num_pes {
        for _ in 0..threads {
            m.spawn_at_start(PeId(pe as u16), entry, 0)?;
        }
    }
    let report = m.run()?;
    let idle: u64 = report.per_pe.iter().map(|p| p.breakdown.comm.get()).sum();
    Ok(idle as f64 / report.total_reads() as f64)
}

/// One thread of the native read loop: 11 cycles of loop overhead, then
/// a remote read of the next processor, `remaining` times.
struct ReadLoop {
    remaining: u32,
    cursor: u32,
    in_body: bool,
}

impl ThreadBody for ReadLoop {
    fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        if self.remaining == 0 {
            return Action::End;
        }
        if !self.in_body {
            self.in_body = true;
            return Action::Work {
                cycles: 11,
                kind: WorkKind::Overhead,
            };
        }
        self.in_body = false;
        self.remaining -= 1;
        self.cursor += 1;
        let mate = PeId((ctx.pe.0 + 1) % ctx.npes as u16);
        Action::Read {
            addr: GlobalAddr::new(mate, 64 + (self.cursor % 512)).expect("address in range"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(pes: usize) -> MachineConfig {
        let mut c = MachineConfig::with_pes(pes);
        c.local_memory_words = 1 << 12;
        c
    }

    #[test]
    fn a_lone_reader_sees_the_papers_latency_band() {
        let cycles = remote_read_latency(&cfg(16), 1, 64).unwrap();
        assert!((20.0..=40.0).contains(&cycles), "{cycles:.1} cycles/read");
    }

    #[test]
    fn reader_and_read_counts_outside_their_ranges_are_workload_errors() {
        for (readers, reads, reason) in [
            (0, 64, "readers=0 must be in 1..4"),
            (4, 64, "readers=4 must be in 1..4"),
            (1, 0, "reads=0 must be in 1..=32767"),
            (1, 65_537, "reads=65537 must be in 1..=32767"),
        ] {
            assert_eq!(
                remote_read_latency(&cfg(4), readers, reads),
                Err(SimError::Workload {
                    reason: reason.into()
                }),
                "readers={readers} reads={reads}"
            );
        }
        assert!(remote_read_latency(&cfg(4), 3, MAX_READS).is_ok());
    }
}
