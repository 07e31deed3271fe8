//! The paper's Figure 4 scenario, buildable and machine-checkable.
//!
//! Figure 4 of the SPAA'97 paper hand-walks the scheduling interleaving of
//! multithreaded bitonic sorting on two processors with two threads each,
//! sorting eight elements: `Px = (2,5,6,7)` on PE0 and `Py = (1,3,4,8)` on
//! PE1. Each thread issues its remote reads one at a time (RR0..RR3 in the
//! figure), suspends on each, and the IBU FIFO resumes threads in response
//! arrival order; merges then run in thread order through a sequence cell,
//! and a final barrier closes the step.
//!
//! [`build`] constructs exactly that machine; attach a probe (for example
//! `emx_obs::Recorder`) before running it, then hand the recorded event
//! stream to [`check_schedule`], which verifies the properties the paper's
//! narration claims:
//!
//! 1. the first two dispatches on each PE are the `Spawn` packets;
//! 2. each PE's two threads interleave reads FIFO — data resumes arrive
//!    in issue order `t0, t1, t0, t1`;
//! 3. both threads are suspended before the first response arrives (the
//!    figure's "there are no threads running" window);
//! 4. merges retire in thread order (`t0` before `t1` on each PE).

use emx_core::{
    GlobalAddr, MachineConfig, PacketKind, PeId, SimError, SuspendCause, TraceEvent, TraceKind,
};
use emx_runtime::{Action, BarrierId, Machine, ThreadBody, ThreadCtx, WorkKind};

/// PE0's locally sorted chunk in the paper's example.
pub const PX: [u32; 4] = [2, 5, 6, 7];
/// PE1's locally sorted chunk in the paper's example.
pub const PY: [u32; 4] = [1, 3, 4, 8];

/// Base address of the local chunk on each PE.
const CHUNK: u32 = 64;
/// Base address where arrived mate elements are deposited.
const INBOX: u32 = 128;

/// One thread of the figure: read the two mate elements one at a time
/// (suspending on each, as RRn in the figure), wait its merge turn on the
/// sequence cell, merge, signal, barrier, end.
struct Fig4Thread {
    t: u64,
    phase: u8,
    k: u32,
    barrier: BarrierId,
}

impl ThreadBody for Fig4Thread {
    fn name(&self) -> &'static str {
        "fig4"
    }

    fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        let mate = PeId(1 - ctx.pe.0);
        let keep_low = ctx.pe.0 == 0;
        match self.phase {
            // Read element k of my chunk's mates (chunk = [2t, 2t+2)).
            0 => {
                if let Some(v) = ctx.value {
                    let pos = 2 * self.t as u32 + self.k - 1;
                    let idx = if keep_low { pos } else { 3 - pos };
                    ctx.mem.write(INBOX + idx, v).unwrap();
                }
                if self.k == 2 {
                    self.phase = 1;
                    return Action::WaitSeq {
                        cell: 0,
                        threshold: self.t,
                    };
                }
                let pos = 2 * self.t as u32 + self.k;
                self.k += 1;
                let idx = if keep_low { pos } else { 3 - pos };
                Action::Read {
                    addr: GlobalAddr::new(mate, CHUNK + idx).unwrap(),
                }
            }
            // Merge my chunk in turn (the schedule shape is what Figure 4
            // is about; the real merge lives in the bitonic driver).
            1 => {
                self.phase = 2;
                Action::Work {
                    cycles: 20,
                    kind: WorkKind::Compute,
                }
            }
            2 => {
                self.phase = 3;
                Action::SignalSeq { cell: 0 }
            }
            3 => {
                self.phase = 4;
                Action::Barrier { id: self.barrier }
            }
            _ => Action::End,
        }
    }
}

/// Build the Figure 4 machine: 2 PEs, 2 threads each, the paper's element
/// values loaded, ready to run. Attach a probe or enable the bounded trace
/// before calling `run` to capture the schedule.
pub fn build() -> Result<Machine, SimError> {
    let mut cfg = MachineConfig::with_pes(2);
    cfg.local_memory_words = 1 << 10;
    let mut m = Machine::new(cfg)?;
    m.define_seq_cells(1);
    let barrier = m.define_barrier(2);

    m.mem_mut(PeId(0))?.write_slice(CHUNK, &PX)?;
    m.mem_mut(PeId(1))?.write_slice(CHUNK, &PY)?;

    let entry = m.register_entry("fig4", move |_, arg| {
        Box::new(Fig4Thread {
            t: u64::from(arg),
            phase: 0,
            k: 0,
            barrier,
        })
    });
    for pe in 0..2u16 {
        for t in 0..2u32 {
            m.spawn_at_start(PeId(pe), entry, t)?;
        }
    }
    Ok(m)
}

/// What [`check_schedule`] extracted from a verified event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleSummary {
    /// Per PE: the frame of thread 0 and thread 1, in spawn order.
    pub frames: [[u16; 2]; 2],
    /// Data resumes (after a remote-read suspend), in order, as
    /// `(pe, frame)`.
    pub data_resumes: Vec<(u16, u16)>,
    /// Thread retirements in order, as `(pe, frame)`.
    pub retires: Vec<(u16, u16)>,
}

fn fail(what: &str, detail: String) -> String {
    format!("figure-4 schedule violated: {what} ({detail})")
}

/// Verify a recorded Figure 4 event stream against the paper's hand-walked
/// FIFO schedule (see the module docs for the four properties). `events`
/// must be in emission (causal) order, as an attached probe such as
/// `emx_obs::Recorder` receives them.
pub fn check_schedule(events: &[TraceEvent]) -> Result<ScheduleSummary, String> {
    // Property 1: each PE's first two dispatches are the Spawn packets,
    // and they spawn the two worker frames in thread order.
    let mut frames: [Vec<u16>; 2] = [Vec::new(), Vec::new()];
    for pe in 0..2u16 {
        let dispatches: Vec<PacketKind> = events
            .iter()
            .filter(|e| e.pe == PeId(pe))
            .filter_map(|e| match e.kind {
                TraceKind::Dispatch { pkt } => Some(pkt),
                _ => None,
            })
            .collect();
        if dispatches.len() < 2 || dispatches[..2] != [PacketKind::Spawn, PacketKind::Spawn] {
            return Err(fail(
                "first two dispatches per PE must be Spawn",
                format!(
                    "PE{pe} dispatched {:?}",
                    &dispatches[..dispatches.len().min(3)]
                ),
            ));
        }
        frames[pe as usize] = events
            .iter()
            .filter(|e| e.pe == PeId(pe))
            .filter_map(|e| match e.kind {
                TraceKind::ThreadSpawn { frame, .. } => Some(frame.0),
                _ => None,
            })
            .collect();
        if frames[pe as usize].len() != 2 {
            return Err(fail(
                "each PE spawns exactly two threads",
                format!("PE{pe} spawned {:?}", frames[pe as usize]),
            ));
        }
    }

    // Walk the stream pairing each resume with the suspend that preceded
    // it for that frame, keeping only data resumes (remote reads).
    let mut last_cause: Vec<((u16, u16), SuspendCause)> = Vec::new();
    let mut data_resumes = Vec::new();
    let mut read_suspends: [Vec<u16>; 2] = [Vec::new(), Vec::new()];
    let mut first_resume_seen = [false; 2];
    let mut suspended_before_first_resume = [0usize; 2];
    let mut retires = Vec::new();
    for ev in events {
        let pe = ev.pe.0;
        match ev.kind {
            TraceKind::ThreadSuspend { frame, cause } => {
                last_cause.retain(|&(k, _)| k != (pe, frame.0));
                last_cause.push(((pe, frame.0), cause));
                if cause == SuspendCause::RemoteRead {
                    read_suspends[pe as usize].push(frame.0);
                    if !first_resume_seen[pe as usize] {
                        suspended_before_first_resume[pe as usize] += 1;
                    }
                }
            }
            TraceKind::ThreadResume { frame } => {
                first_resume_seen[pe as usize] = true;
                let cause = last_cause
                    .iter()
                    .find(|&&(k, _)| k == (pe, frame.0))
                    .map(|&(_, c)| c);
                if cause == Some(SuspendCause::RemoteRead) {
                    data_resumes.push((pe, frame.0));
                }
            }
            TraceKind::ThreadRetire { frame } => retires.push((pe, frame.0)),
            _ => {}
        }
    }

    // Property 2: data resumes per PE arrive FIFO, t0 t1 t0 t1.
    for (pe, pe_frames) in frames.iter().enumerate() {
        let [f0, f1] = [pe_frames[0], pe_frames[1]];
        let got: Vec<u16> = data_resumes
            .iter()
            .filter(|&&(p, _)| p as usize == pe)
            .map(|&(_, f)| f)
            .collect();
        if got != [f0, f1, f0, f1] {
            return Err(fail(
                "data resumes must interleave FIFO t0,t1,t0,t1",
                format!("PE{pe} resumed frames {got:?}, threads are F{f0}/F{f1}"),
            ));
        }
    }

    // Property 3: the figure's idle window — both threads issued their
    // first read and suspended before any response resumed either.
    for (pe, &suspends) in suspended_before_first_resume.iter().enumerate() {
        if suspends < 2 {
            return Err(fail(
                "both threads must be suspended before the first response",
                format!("PE{pe} had only {suspends} read suspends before its first resume"),
            ));
        }
    }

    // Property 4: merges retire in thread order on each PE.
    for (pe, pe_frames) in frames.iter().enumerate() {
        let got: Vec<u16> = retires
            .iter()
            .filter(|&&(p, _)| p as usize == pe)
            .map(|&(_, f)| f)
            .collect();
        if got != [pe_frames[0], pe_frames[1]] {
            return Err(fail(
                "threads must retire in thread order",
                format!("PE{pe} retired frames {got:?}, spawned {pe_frames:?}"),
            ));
        }
    }

    Ok(ScheduleSummary {
        frames: [[frames[0][0], frames[0][1]], [frames[1][0], frames[1][1]]],
        data_resumes,
        retires,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    use emx_obs::{EventLog, Recorder};

    /// Run the Figure 4 machine with a bounded recorder attached.
    fn recorded_run() -> EventLog {
        let mut m = build().unwrap();
        let (rec, handle) = Recorder::bounded(4096);
        m.attach_probe(Box::new(rec));
        m.run().unwrap();
        handle.finish()
    }

    #[test]
    fn built_machine_matches_the_paper_schedule() {
        let log = recorded_run();
        assert_eq!(log.dropped(), 0);
        let summary = check_schedule(log.events()).unwrap();
        assert_eq!(summary.data_resumes.len(), 8);
        assert_eq!(summary.retires.len(), 4);
    }

    #[test]
    fn check_rejects_a_reordered_stream() {
        let mut events = recorded_run().events().to_vec();
        // Swap the first two data-resume events: FIFO order breaks.
        let resumes: Vec<usize> = events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.pe == PeId(0) && matches!(e.kind, TraceKind::ThreadResume { .. }))
            .map(|(i, _)| i)
            .collect();
        events.swap(resumes[0], resumes[1]);
        assert!(check_schedule(&events).is_err());
    }
}
