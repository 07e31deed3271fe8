//! The three-way oracle: run a case and judge it.
//!
//! Every case is executed up to three times, always fuel-bounded and with
//! the invariant checker armed:
//!
//! 1. **Reference run**. Structural failures surface here: a deadlock,
//!    fuel exhaustion, an invariant violation.
//! 2. **Replay run** — identical configuration. The complete fingerprint
//!    (outcome, `emx-trace` stream digest, event count, canonical report
//!    text) must be byte-identical; any difference is nondeterminism.
//! 3. **Checkpoint run** — step to a seed-derived event index, snapshot
//!    (`emx-snap/1`), restore into a fresh shell, and run that to
//!    completion. The stitched fingerprint — trace digest continued
//!    across the restore, final report, outcome — must match the
//!    reference byte for byte: checkpoints are transparent or they are a
//!    bug.
//!
//! Structured simulation errors *other* than the failure classes (e.g.
//! [`SimError::OutOfFrames`] under a frame-cap fault) are legitimate
//! recorded outcomes: the oracle only requires them to be byte-identical
//! across all arms.

use std::sync::Arc;

use emx_core::{Cycle, GlobalAddr, MachineConfig, NetModelKind, PeId, SimError};
use emx_obs::DigestProbe;
use emx_runtime::{Action, BarrierId, EntryId, Machine, ThreadBody, ThreadCtx, WorkKind};
use emx_stats::digest::report_canonical_text;

use crate::case::{CaseSpec, Op};

/// The oracle's judgement of one case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// All arms agree and the run quiesced cleanly.
    Pass,
    /// All arms agree the run ends in a structured, non-failure simulation
    /// error (short kind string, e.g. `out-of-frames`).
    Error(String),
    /// The machine deadlocked: events drained with threads suspended.
    Deadlock,
    /// The run passed its fuel limit: a livelock, by construction.
    FuelExhausted,
    /// The invariant checker (or the FIFO census) fired.
    Invariant,
    /// The replay run's fingerprint differed from the reference run.
    DigestMismatch,
    /// The checkpoint/restore run's fingerprint differed from the
    /// reference run, or snapshotting itself failed.
    CheckpointDivergence,
    /// The case panicked the simulator (caught by the campaign driver).
    Panic,
}

impl Verdict {
    /// Whether this verdict is an oracle failure (a bug in the simulator,
    /// the generator, or the determinism argument), as opposed to a
    /// recorded-but-acceptable outcome.
    pub fn is_failure(&self) -> bool {
        !matches!(self, Verdict::Pass | Verdict::Error(_))
    }

    /// Stable short string, used in campaign lines and `expect =` fields.
    pub fn as_str(&self) -> String {
        match self {
            Verdict::Pass => "pass".into(),
            Verdict::Error(kind) => format!("error:{kind}"),
            Verdict::Deadlock => "deadlock".into(),
            Verdict::FuelExhausted => "fuel-exhausted".into(),
            Verdict::Invariant => "invariant".into(),
            Verdict::DigestMismatch => "digest-mismatch".into(),
            Verdict::CheckpointDivergence => "checkpoint-divergence".into(),
            Verdict::Panic => "panic".into(),
        }
    }

    /// Parse the string form back (inverse of [`Verdict::as_str`]).
    pub fn parse(s: &str) -> Option<Verdict> {
        Some(match s {
            "pass" => Verdict::Pass,
            "deadlock" => Verdict::Deadlock,
            "fuel-exhausted" => Verdict::FuelExhausted,
            "invariant" => Verdict::Invariant,
            "digest-mismatch" => Verdict::DigestMismatch,
            "checkpoint-divergence" => Verdict::CheckpointDivergence,
            "panic" => Verdict::Panic,
            other => Verdict::Error(other.strip_prefix("error:")?.to_string()),
        })
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.as_str())
    }
}

/// Everything externally observable about one execution of a case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// `"ok"`, or the error's full display text.
    pub outcome: String,
    /// 32-hex digest of the complete `emx-trace` stream.
    pub trace_digest: String,
    /// Number of trace events the stream carried.
    pub events: u64,
    /// Canonical report text on success, empty on error.
    pub report: String,
}

/// The oracle's full result for one case.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// The judgement.
    pub verdict: Verdict,
    /// Reference-run trace digest (the value `expect-digest` pins).
    pub trace_digest: String,
    /// One-line human detail: the error text, or which arm diverged.
    pub detail: String,
}

/// A generated thread: executes its op list one op per scheduler step.
/// Ops that expand to two actions (halo exchange) stash the second in
/// `pending` and issue it on the next resumption.
struct OpThread {
    ops: Arc<[Op]>,
    pc: usize,
    pending: Option<Action>,
    /// Entry of the built-in increment program `Op::RmwAdd` spawns
    /// (registered after the case's own programs).
    inc_entry: EntryId,
}

impl ThreadBody for OpThread {
    fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        if let Some(action) = self.pending.take() {
            return action;
        }
        let Some(op) = self.ops.get(self.pc) else {
            return Action::End;
        };
        self.pc += 1;
        match *op {
            Op::Work { cycles } => Action::Work {
                cycles,
                kind: WorkKind::Compute,
            },
            Op::Read { pe, offset } => match GlobalAddr::new(PeId(pe), offset) {
                Ok(addr) => Action::Read { addr },
                Err(_) => Action::End,
            },
            Op::ReadBlock {
                pe,
                offset,
                len,
                dst,
            } => match GlobalAddr::new(PeId(pe), offset) {
                Ok(addr) => Action::ReadBlock {
                    addr,
                    len,
                    local_dst: dst,
                },
                Err(_) => Action::End,
            },
            Op::Write { pe, offset, value } => match GlobalAddr::new(PeId(pe), offset) {
                Ok(addr) => Action::Write { addr, value },
                Err(_) => Action::End,
            },
            Op::Spawn { pe, prog, arg } => Action::Spawn {
                pe: PeId(pe),
                entry: EntryId(u32::from(prog)),
                arg,
            },
            Op::SignalSeq { cell } => Action::SignalSeq { cell },
            Op::WaitSeq { cell, threshold } => Action::WaitSeq { cell, threshold },
            Op::Barrier => Action::Barrier { id: BarrierId(0) },
            Op::Yield => Action::Yield,
            Op::RmwAdd { pe, offset } => Action::Spawn {
                pe: PeId(pe),
                entry: self.inc_entry,
                arg: offset,
            },
            Op::Halo { offset, len, dst } => {
                let npes = ctx.npes as usize;
                let me = ctx.pe.index();
                let prev = PeId(((me + npes - 1) % npes) as u16);
                let next = PeId(((me + 1) % npes) as u16);
                match (GlobalAddr::new(prev, offset), GlobalAddr::new(next, offset)) {
                    (Ok(a), Ok(b)) => {
                        // A second destination past the last offset stops
                        // there, outside every memory, and faults.
                        self.pending = Some(Action::ReadBlock {
                            addr: b,
                            len,
                            local_dst: dst.saturating_add(u32::from(len)),
                        });
                        Action::ReadBlock {
                            addr: a,
                            len,
                            local_dst: dst,
                        }
                    }
                    _ => Action::End,
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "fuzz-op"
    }

    // The only action ever stashed in `pending` is the halo exchange's
    // second block read, so the pending slot serializes as its four
    // address words behind a presence flag.
    fn save_state(&self) -> Option<Vec<u64>> {
        let mut words = vec![self.pc as u64];
        match &self.pending {
            None => words.push(0),
            Some(Action::ReadBlock {
                addr,
                len,
                local_dst,
            }) => {
                words.push(1);
                words.push(u64::from(addr.pe.0));
                words.push(u64::from(addr.offset));
                words.push(u64::from(*len));
                words.push(u64::from(*local_dst));
            }
            Some(_) => return None,
        }
        Some(words)
    }

    fn load_state(&mut self, words: &[u64]) -> bool {
        match words {
            [pc, 0] => {
                self.pc = *pc as usize;
                self.pending = None;
                true
            }
            [pc, 1, pe, offset, len, dst] => {
                let Ok(addr) = GlobalAddr::new(PeId(*pe as u16), *offset as u32) else {
                    return false;
                };
                self.pc = *pc as usize;
                self.pending = Some(Action::ReadBlock {
                    addr,
                    len: *len as u16,
                    local_dst: *dst as u32,
                });
                true
            }
            _ => false,
        }
    }
}

/// The built-in read-modify-write thread `Op::RmwAdd` spawns: adds one to
/// the local word its argument names, charges a cycle, and ends.
struct IncThread {
    done: bool,
}

impl ThreadBody for IncThread {
    fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        if self.done {
            return Action::End;
        }
        self.done = true;
        if let Ok(v) = ctx.mem.read(ctx.arg) {
            let _ = ctx.mem.write(ctx.arg, v.wrapping_add(1));
        }
        Action::Work {
            cycles: 1,
            kind: WorkKind::Compute,
        }
    }

    fn name(&self) -> &'static str {
        "fuzz-rmw-inc"
    }

    fn save_state(&self) -> Option<Vec<u64>> {
        Some(vec![u64::from(self.done)])
    }

    fn load_state(&mut self, words: &[u64]) -> bool {
        let [done] = words else { return false };
        if *done > 1 {
            return false;
        }
        self.done = *done == 1;
        true
    }
}

/// Short stable kind string for a structured simulation error.
pub fn error_kind(e: &SimError) -> &'static str {
    match e {
        SimError::BadPe { .. } => "bad-pe",
        SimError::AddressOutOfRange { .. } => "address-range",
        SimError::MemoryFault { .. } => "memory-fault",
        SimError::FrameOutOfRange { .. } => "frame-range",
        SimError::BadBarrier { .. } => "bad-barrier",
        SimError::OutOfFrames { .. } => "out-of-frames",
        SimError::BadPacketKind { .. } => "bad-packet-kind",
        SimError::EmptyBlockRead => "empty-block-read",
        SimError::TruncatedWirePacket { .. } => "truncated-packet",
        SimError::EventInPast { .. } => "event-in-past",
        SimError::Deadlock { .. } => "deadlock",
        SimError::FuelExhausted { .. } => "fuel-exhausted",
        SimError::RetryExhausted { .. } => "retry-exhausted",
        SimError::InvariantViolation { .. } => "invariant",
        SimError::BadConfig { .. } => "bad-config",
        SimError::IsaFault { .. } => "isa-fault",
        SimError::Workload { .. } => "workload",
        SimError::SnapshotUnsupported { .. } => "snapshot-unsupported",
        SimError::SnapshotInvalid { .. } => "snapshot-invalid",
        _ => "other",
    }
}

/// Expand a case into a machine configuration. `perturb` is the test-only
/// mutation hook: it nudges the network latency by one cycle so the
/// replay oracle demonstrably catches behavior changes.
fn machine_config(case: &CaseSpec, perturb: bool) -> MachineConfig {
    let mut cfg = MachineConfig::with_pes(case.pes);
    cfg.local_memory_words = case.memory_words;
    cfg.ibu_fifo_capacity = case.ibu_capacity;
    cfg.frames_per_pe = case.frames_per_pe;
    cfg.service_mode = case.service_mode;
    cfg.priority_read_responses = case.priority_read_responses;
    cfg.net.model = case.net;
    let mut faults = case.faults.clone();
    faults.check_invariants = true;
    cfg.faults = Some(faults);
    if perturb {
        match cfg.net.model {
            NetModelKind::Ideal { latency } => {
                cfg.net.model = NetModelKind::Ideal {
                    latency: latency + 1,
                }
            }
            _ => cfg.net.hop_cycles += 1,
        }
    }
    cfg
}

/// One execution: the comparable fingerprint plus the structured error (a
/// setup failure or the run's own error), kept for classification.
struct RunResult {
    fp: Fingerprint,
    err: Option<SimError>,
}

/// Build the case's machine: configuration, synchronization resources,
/// entry table, and initial threads. The entry table is identical on every
/// call, which is what lets a checkpoint from one build restore into a
/// fresh shell from another.
fn build_machine(case: &CaseSpec, perturb: bool) -> Result<Machine, SimError> {
    let cfg = machine_config(case, perturb);
    let mut m = Machine::new(cfg)?;
    if case.seq_cells > 0 {
        m.define_seq_cells(case.seq_cells);
    }
    if case.barrier_participants > 0 {
        m.define_barrier(case.barrier_participants);
    }
    // The increment entry lands at index `programs.len()`, right after the
    // case's own programs (entry id = index for roots and spawns).
    let inc_entry = EntryId(case.programs.len() as u32);
    for prog in &case.programs {
        let ops: Arc<[Op]> = prog.ops.clone().into();
        m.register_entry("fuzz-op", move |_pe, _arg| {
            Box::new(OpThread {
                ops: ops.clone(),
                pc: 0,
                pending: None,
                inc_entry,
            })
        });
    }
    let registered = m.register_entry("fuzz-rmw-inc", |_pe, _arg| {
        Box::new(IncThread { done: false })
    });
    debug_assert_eq!(registered, inc_entry);
    for r in &case.roots {
        m.spawn_at_start(PeId(r.pe), EntryId(u32::from(r.prog)), r.arg)?;
    }
    Ok(m)
}

/// Fold a finished run (or its error) into a fingerprint.
fn fingerprint_of(
    res: Result<emx_stats::RunReport, SimError>,
    handle: &emx_obs::DigestHandle,
) -> RunResult {
    let (outcome, report, err) = match res {
        Ok(report) => ("ok".to_string(), report_canonical_text(&report), None),
        Err(e) => (e.to_string(), String::new(), Some(e)),
    };
    RunResult {
        fp: Fingerprint {
            outcome,
            trace_digest: handle.hex(),
            events: handle.events(),
            report,
        },
        err,
    }
}

/// Execute the case once and collect its fingerprint. Never panics for a
/// buildable case: setup failures fold into the fingerprint too, so the
/// arms stay comparable.
fn exec(case: &CaseSpec, perturb: bool) -> RunResult {
    let mut m = match build_machine(case, perturb) {
        Ok(m) => m,
        Err(e) => return setup_failure(e),
    };
    let (probe, handle) = DigestProbe::new();
    m.attach_probe(Box::new(probe));
    let res = m.run_until(Cycle::new(case.fuel));
    fingerprint_of(res, &handle)
}

/// Execute the case with a checkpoint at event index `k`: step the machine
/// `k` events, snapshot it, restore into a freshly built shell, and run
/// that shell to completion — with the trace digest continued across the
/// restore so the stitched fingerprint is comparable to one uninterrupted
/// run. `Err` carries a snapshot-machinery failure (itself a bug).
fn exec_checkpoint(case: &CaseSpec, k: u64) -> Result<RunResult, String> {
    let mut m = match build_machine(case, false) {
        Ok(m) => m,
        Err(e) => return Ok(setup_failure(e)),
    };
    let (probe, handle) = DigestProbe::new();
    m.attach_probe(Box::new(probe));
    let fuel = Cycle::new(case.fuel);
    match m.step_events(k, fuel) {
        // Quiesced (or failed) before the checkpoint index: a complete,
        // comparable run in its own right.
        Ok(Some(report)) => return Ok(fingerprint_of(Ok(report), &handle)),
        Err(e) => return Ok(fingerprint_of(Err(e), &handle)),
        Ok(None) => {}
    }
    let snap = m
        .snapshot()
        .map_err(|e| format!("snapshot at event {k} failed: {e}"))?;
    let mut shell = build_machine(case, false).map_err(|e| format!("shell rebuild failed: {e}"))?;
    shell.attach_probe(Box::new(handle.probe()));
    shell
        .restore(&snap)
        .map_err(|e| format!("restore at event {k} failed: {e}"))?;
    let res = shell.run_until(fuel);
    Ok(fingerprint_of(res, &handle))
}

fn setup_failure(e: SimError) -> RunResult {
    RunResult {
        fp: Fingerprint {
            outcome: format!("setup: {e}"),
            trace_digest: "-".repeat(32),
            events: 0,
            report: String::new(),
        },
        err: Some(e),
    }
}

/// Map a structured error to its verdict class.
fn verdict_for_error(e: &SimError) -> Verdict {
    match e {
        SimError::Deadlock { .. } => Verdict::Deadlock,
        SimError::FuelExhausted { .. } => Verdict::FuelExhausted,
        SimError::InvariantViolation { .. } => Verdict::Invariant,
        other => Verdict::Error(error_kind(other).to_string()),
    }
}

/// Run the full three-way oracle on `case`.
///
/// `perturb_replay` is the mutation hook: when set, the replay arm runs
/// with a one-cycle network-latency perturbation, which a sound oracle
/// must report as [`Verdict::DigestMismatch`] for any case with network
/// traffic.
pub fn run_case(case: &CaseSpec, perturb_replay: bool) -> CaseOutcome {
    let reference = exec(case, false);
    let replay = exec(case, perturb_replay);
    if replay.fp != reference.fp {
        return CaseOutcome {
            verdict: Verdict::DigestMismatch,
            trace_digest: reference.fp.trace_digest,
            detail: "replay run diverged from the reference run".into(),
        };
    }
    // Checkpoint arm: pause at a seed-derived event index (spread over a
    // prime span so nearby seeds land on different boundaries), restore
    // into a fresh shell, finish, and demand the stitched fingerprint.
    let k = 1 + case.seed % 97;
    match exec_checkpoint(case, k) {
        Ok(checkpointed) => {
            if checkpointed.fp != reference.fp {
                return CaseOutcome {
                    verdict: Verdict::CheckpointDivergence,
                    trace_digest: reference.fp.trace_digest,
                    detail: format!(
                        "checkpoint/restore at event {k} diverged from the reference run"
                    ),
                };
            }
        }
        Err(detail) => {
            return CaseOutcome {
                verdict: Verdict::CheckpointDivergence,
                trace_digest: reference.fp.trace_digest,
                detail,
            };
        }
    }
    let (verdict, detail) = match &reference.err {
        None => (Verdict::Pass, String::new()),
        Some(e) => (verdict_for_error(e), e.to_string()),
    };
    CaseOutcome {
        verdict,
        trace_digest: reference.fp.trace_digest,
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed checkpoint-arm corpus case must actually pause
    /// mid-run at its seed-derived event index — if the run quiesced
    /// first, the arm would degenerate into a plain replay and the case
    /// would pin nothing about snapshot/restore.
    #[test]
    fn checkpoint_corpus_case_pauses_mid_run() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/corpus/pass-checkpoint-halo-rmw.emxfuzz");
        let case = CaseSpec::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let k = 1 + case.seed % 97;
        let mut m = build_machine(&case, false).unwrap();
        assert!(
            m.step_events(k, Cycle::new(case.fuel)).unwrap().is_none(),
            "case quiesced before event {k}; the checkpoint arm never fires mid-run"
        );
        m.snapshot().expect("mid-run snapshot of the corpus case");
    }

    /// Fold the snapshots of `case` into `out`, one digest line each: at
    /// the checkpoint index the oracle uses, then at two later boundaries
    /// while the run is still live. Returns how many were taken.
    fn fold_snapshots(case: &CaseSpec, out: &mut String) -> usize {
        let Ok(mut m) = build_machine(case, false) else {
            return 0;
        };
        let fuel = Cycle::new(case.fuel);
        let mut taken = 0;
        for events in [1 + case.seed % 97, 97, 97] {
            if !matches!(m.step_events(events, fuel), Ok(None)) {
                break;
            }
            let snap = m.snapshot().expect("snapshot of a live run");
            out.push_str(&emx_stats::digest::digest_hex(&snap));
            out.push('\n');
            taken += 1;
        }
        taken
    }

    /// One digest over the snapshots of `cases`, plus the cases that
    /// yielded at least one snapshot.
    fn snapshot_digest(cases: &[CaseSpec]) -> (String, Vec<&CaseSpec>) {
        let mut lines = String::new();
        let snapped = cases
            .iter()
            .filter(|case| fold_snapshots(case, &mut lines) > 0)
            .collect();
        (emx_stats::digest::digest_hex(&lines), snapped)
    }

    /// Pins the `emx-snap/1` bytes of every committed corpus case and of
    /// the first 50 cases the campaign at seed 7 draws. Together they
    /// snapshot EM-4 mode, all six network models and every fault kind, so
    /// a change to what any section holds, or to its token order, moves a
    /// digest.
    #[test]
    fn snapshot_bytes_are_pinned() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "emxfuzz"))
            .collect();
        paths.sort();
        let corpus: Vec<CaseSpec> = paths
            .iter()
            .map(|p| CaseSpec::parse(&std::fs::read_to_string(p).unwrap()).unwrap())
            .collect();
        let generated: Vec<CaseSpec> = (0..50)
            .map(|i| crate::generate(crate::case_seed(7, i)))
            .collect();

        let (corpus_digest, mut snapped) = snapshot_digest(&corpus);
        let (generated_digest, more) = snapshot_digest(&generated);
        snapped.extend(more);
        assert!(snapped
            .iter()
            .any(|c| c.service_mode == emx_core::ServiceMode::ExuThread));
        let models: std::collections::BTreeSet<String> = snapped
            .iter()
            .map(|c| c.net.name().split(':').next().unwrap().to_string())
            .collect();
        assert_eq!(models.len(), 6, "network models snapshotted: {models:?}");
        let f = |pick: fn(&emx_core::FaultSpec) -> bool| snapped.iter().any(|c| pick(&c.faults));
        assert!(f(|s| s.drop_ppm > 0) && f(|s| s.dup_ppm > 0) && f(|s| s.delay_ppm > 0));
        assert!(
            f(|s| s.spill_ppm > 0) && f(|s| s.dma_stall_ppm > 0) && f(|s| s.frame_cap.is_some())
        );

        assert_eq!(corpus_digest, "8458a965e3576ab22d097bd0c52bfc07");
        assert_eq!(generated_digest, "34187809de8d746257241d62abd6a9ef");
    }
}
