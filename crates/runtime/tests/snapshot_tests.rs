//! Checkpoint/restore: a machine snapshotted at an event boundary and
//! restored into a fresh shell finishes byte-identically to the
//! uninterrupted run — reports and memories — and a snapshot the shell
//! cannot hold fails to restore without touching the shell.

use emx_core::{Codec, GlobalAddr, MachineConfig, PeId, SimError};
use emx_runtime::{Action, BarrierId, Machine, ThreadBody, ThreadCtx, WorkKind};

const NPES: u16 = 4;

/// A thread with real suspension structure: remote read from the left
/// neighbour, compute, barrier, then a second read — so checkpoints land
/// while packets are in flight, frames are suspended, and barrier ledgers
/// are mid-epoch.
struct Relay {
    step: u8,
    carry: u32,
}

impl ThreadBody for Relay {
    fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        self.step += 1;
        let left = PeId((ctx.pe.0 + ctx.npes as u16 - 1) % ctx.npes as u16);
        match self.step {
            1 => Action::Read {
                addr: GlobalAddr::new(left, 0).unwrap(),
            },
            2 => {
                self.carry = ctx.value.unwrap() * 3 + 1;
                Action::Work {
                    cycles: 5,
                    kind: WorkKind::Compute,
                }
            }
            3 => Action::Barrier { id: BarrierId(0) },
            4 => Action::Read {
                addr: GlobalAddr::new(left, 1).unwrap(),
            },
            5 => {
                let v = ctx.value.unwrap();
                ctx.mem.write(2, self.carry.wrapping_add(v)).unwrap();
                Action::End
            }
            _ => unreachable!(),
        }
    }

    fn name(&self) -> &'static str {
        "relay"
    }

    fn snap(&mut self, c: &mut dyn Codec) -> Result<(), SimError> {
        c.u8(&mut self.step)?;
        c.u32(&mut self.carry)
    }
}

fn build() -> Machine {
    let mut m = Machine::new(MachineConfig::with_pes(usize::from(NPES))).unwrap();
    let entry = m.register_entry("relay", |_pe, _arg| Box::new(Relay { step: 0, carry: 0 }));
    m.define_barrier(1);
    for pe in 0..NPES {
        let mem = m.mem_mut(PeId(pe)).unwrap();
        mem.write(0, 100 + u32::from(pe)).unwrap();
        mem.write(1, 7 * u32::from(pe)).unwrap();
        m.spawn_at_start(PeId(pe), entry, 0).unwrap();
    }
    m
}

fn final_words(m: &Machine) -> Vec<u32> {
    (0..NPES)
        .map(|pe| m.mem(PeId(pe)).unwrap().read(2).unwrap())
        .collect()
}

#[test]
fn restore_at_every_boundary_matches_uninterrupted() {
    let mut reference = build();
    let ref_report = reference.run().unwrap();
    let ref_words = final_words(&reference);

    // Walk the whole run: pause after k events for every k until the run
    // quiesces within the budget, snapshotting and resuming at each pause.
    let mut k = 1;
    loop {
        let mut paused = build();
        match paused.step_events(k, emx_core::Cycle::new(emx_runtime::DEFAULT_FUEL)) {
            Ok(None) => {}
            Ok(Some(report)) => {
                assert_eq!(report, ref_report, "stepped-to-completion report diverged");
                break;
            }
            Err(e) => panic!("step_events failed at k={k}: {e}"),
        }
        let snap = paused.snapshot().unwrap();

        let mut resumed = build();
        resumed.restore(&snap).unwrap();
        let report = resumed.run().unwrap();
        assert_eq!(report, ref_report, "resume after {k} events diverged");
        assert_eq!(final_words(&resumed), ref_words);

        // The snapshot itself is deterministic: the paused machine
        // re-serializes to the same bytes, and so does the restored shell.
        assert_eq!(paused.snapshot().unwrap(), snap);
        assert_eq!(resumed_shell_snapshot(&snap), snap);
        k += 1;
    }
    assert!(k > 3, "workload too small to exercise mid-run checkpoints");
}

/// Restore a snapshot into a fresh shell and immediately re-serialize it.
fn resumed_shell_snapshot(snap: &str) -> String {
    let mut shell = build();
    shell.restore(snap).unwrap();
    shell.snapshot().unwrap()
}

#[test]
fn pre_run_snapshot_restores_the_initial_state() {
    let mut m = build();
    let snap = m.snapshot().unwrap();
    let mut resumed = build();
    resumed.restore(&snap).unwrap();
    let report = resumed.run().unwrap();
    let mut reference = build();
    assert_eq!(report, reference.run().unwrap());
}

#[test]
fn restore_rejects_config_mismatch() {
    let mut m = build();
    let snap = m.snapshot().unwrap();
    let mut other = Machine::new(MachineConfig::with_pes(8)).unwrap();
    let err = other.restore(&snap).unwrap_err();
    assert!(matches!(err, SimError::SnapshotInvalid { .. }));
    assert!(err.to_string().contains("digest"));
}

#[test]
fn restore_rejects_entry_table_mismatch() {
    let mut m = build();
    let snap = m.snapshot().unwrap();
    // Same config, different registration: restore must refuse.
    let mut shell = Machine::new(MachineConfig::with_pes(usize::from(NPES))).unwrap();
    shell.register_entry("impostor", |_pe, _arg| {
        Box::new(Relay { step: 0, carry: 0 })
    });
    shell.define_barrier(1);
    let err = shell.restore(&snap).unwrap_err();
    assert!(err.to_string().contains("impostor") || err.to_string().contains("entry"));
}

#[test]
fn restore_rejects_tampered_text() {
    let mut m = build();
    let snap = m.snapshot().unwrap();
    let tampered = snap.replacen("s meta", "s mata", 1);
    assert!(matches!(
        build().restore(&tampered),
        Err(SimError::SnapshotInvalid { .. })
    ));
}

/// A body without checkpoint hooks: snapshot must fail loudly once such a
/// thread is live, never silently drop its state.
struct Opaque;
impl ThreadBody for Opaque {
    fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        if ctx.value.is_some() {
            Action::End
        } else {
            Action::Read {
                addr: GlobalAddr::new(PeId(0), 0).unwrap(),
            }
        }
    }
}

#[test]
fn snapshot_of_hookless_native_thread_is_unsupported() {
    let mut m = Machine::new(MachineConfig::with_pes(2)).unwrap();
    let entry = m.register_entry("opaque", |_pe, _arg| Box::new(Opaque));
    m.spawn_at_start(PeId(1), entry, 0).unwrap();
    // Step far enough that the thread is suspended on its read.
    let mut stepped = 0;
    loop {
        stepped += 1;
        assert!(stepped < 64, "workload never suspended");
        m.step_events(1, emx_core::Cycle::new(emx_runtime::DEFAULT_FUEL))
            .unwrap();
        match m.snapshot() {
            Err(SimError::SnapshotUnsupported { what }) => {
                assert!(what.contains("opaque"));
                break;
            }
            Ok(_) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}

/// `snap` with token `index` of the `nth` line of section `section`
/// replaced by `value`, and the digest line restamped so the text still
/// parses: a well-formed snapshot that holds a value the machine cannot.
fn retoken(snap: &str, section: &str, nth: usize, index: usize, value: &str) -> String {
    let prefix = format!("s {section} ");
    let mut lines: Vec<String> = snap
        .lines()
        .filter(|l| !l.starts_with("digest "))
        .map(str::to_string)
        .collect();
    let line = lines
        .iter_mut()
        .filter(|l| l.starts_with(&prefix))
        .nth(nth)
        .expect("section present");
    let mut tokens: Vec<&str> = line.split(' ').collect();
    tokens[index] = value;
    *line = tokens.join(" ");
    let body: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let digest = emx_stats::digest::digest_hex(&body);
    format!("{body}digest {digest}\n")
}

/// Step `m` one event at a time until a PE's only live frame waits with
/// `tag` (the token at `at` on its `frames` line); returns the snapshot
/// and the PE.
fn snapshot_waiting(m: &mut Machine, tag: &str, at: usize) -> (String, usize) {
    for _ in 0..200 {
        let snap = m.snapshot().unwrap();
        let waiting = snap
            .lines()
            .filter(|l| l.starts_with("s frames "))
            .position(|l| l.split(' ').nth(at) == Some(tag));
        if let Some(pe) = waiting {
            return (snap, pe);
        }
        let paused = m.step_events(1, emx_core::Cycle::new(emx_runtime::DEFAULT_FUEL));
        assert!(paused.unwrap().is_none(), "run ended before the wait");
    }
    panic!("no frame ever waited with tag {tag}");
}

/// The position, on the `cal` line, and the value of the address word of
/// the first in-flight packet of kind code `kind`. Each event is its five key tokens
/// and a tag; an arrival (tag 0) then has its PE, its network flag and
/// eight packet tokens (kind, priority, address, ...), a dispatch (tag 1)
/// its PE, and a retry timer (tag 2) four more tokens.
fn in_flight_addr(snap: &str, kind: &str) -> Option<(usize, u32)> {
    let line = snap.lines().find(|l| l.starts_with("s cal "))?;
    let t: Vec<&str> = line.split(' ').collect();
    let mut at = 3;
    while at < t.len() {
        let tag = t[at + 5];
        if tag == "0" && t[at + 8] == kind {
            return Some((at + 10, u32::from_str_radix(t[at + 10], 16).ok()?));
        }
        at += match tag {
            "0" => 16,
            "1" => 7,
            _ => 10,
        };
    }
    None
}

#[test]
fn a_packet_naming_an_undefined_barrier_fails_the_run() {
    // Kind codes 5 and 6: a barrier arrival on its way to the coordinator
    // and a release on its way back. The address offset is the barrier id.
    for kind in ["5", "6"] {
        let mut m = build();
        let (snap, (at, addr)) = (0..200)
            .find_map(|_| {
                let snap = m.snapshot().unwrap();
                let found = in_flight_addr(&snap, kind).map(|at| (snap, at));
                if found.is_none() {
                    let paused = m.step_events(1, emx_core::Cycle::new(emx_runtime::DEFAULT_FUEL));
                    assert!(paused.unwrap().is_none(), "run ended before the packet");
                }
                found
            })
            .expect("the packet is never in flight");
        let pe = GlobalAddr::unpack(addr).pe;
        let undefined = GlobalAddr::new(pe, 999).unwrap().pack();
        let bad = retoken(&snap, "cal", 0, at, &format!("{undefined:x}"));

        let mut shell = build();
        shell.restore(&bad).unwrap();
        let err = shell.run().unwrap_err();
        assert_eq!(
            err,
            SimError::BadBarrier {
                pe: pe.index(),
                id: 999
            }
        );
    }
}

#[test]
fn a_failed_restore_leaves_the_shell_as_it_was() {
    let mut reference = build();
    let ref_report = reference.run().unwrap();

    let mut paused = build();
    assert!(paused
        .step_events(6, emx_core::Cycle::new(emx_runtime::DEFAULT_FUEL))
        .unwrap()
        .is_none());
    // The last PE's first nonzero word moves outside its memory: the text
    // parses, and the failure surfaces only on the last PE.
    let bad = retoken(
        &paused.snapshot().unwrap(),
        "mem",
        usize::from(NPES) - 1,
        3,
        "ffffffff",
    );

    let mut shell = build();
    let before = shell.snapshot().unwrap();
    let err = shell.restore(&bad).unwrap_err();
    assert!(err.to_string().contains("ffffffff"), "{err}");
    assert_eq!(shell.snapshot().unwrap(), before, "restore half-applied");
    assert_eq!(shell.run().unwrap(), ref_report);
}

#[test]
fn a_body_word_too_wide_for_its_field_fails_the_restore() {
    let mut paused = build();
    assert!(paused
        .step_events(6, emx_core::Cycle::new(emx_runtime::DEFAULT_FUEL))
        .unwrap()
        .is_none());
    let snap = paused.snapshot().unwrap();
    // PE 0's frame after its first read: live count, frame, native tag,
    // entry, the body's two words. The first is `Relay::step`, a `u8`:
    // raise it to 0x101, which a narrowing cast would read as 1.
    let frames = snap.lines().find(|l| l.starts_with("s frames ")).unwrap();
    let tokens: Vec<&str> = frames.split(' ').collect();
    assert_eq!(tokens[2..8], ["1", "0", "0", "0", "2", "1"]);
    let wide = retoken(&snap, "frames", 0, 7, "101");

    let mut shell = build();
    let before = shell.snapshot().unwrap();
    let err = shell.restore(&wide).unwrap_err();
    assert!(
        matches!(&err, SimError::SnapshotInvalid { reason } if reason.contains("exceeds u8")),
        "{err}"
    );
    assert_eq!(shell.snapshot().unwrap(), before, "restore half-applied");
}

#[test]
fn restore_rejects_an_event_on_a_pe_outside_the_machine() {
    // The `cal` line's first event is PE 0's loader spawn: after the
    // count, its key's cycle, PE (token 4) and lane (token 5, lane 1 for
    // a local arrival), two discriminants, the event tag and, at token 9,
    // the event's PE. No run makes a key in another lane or on another
    // PE than its event's, nor a lane above 3.
    let snap = build().snapshot().unwrap();
    for (token, value) in [(9, "3e7"), (5, "9"), (5, "3"), (4, "7"), (4, "1")] {
        let bad = retoken(&snap, "cal", 0, token, value);
        let err = build().restore(&bad).unwrap_err();
        assert!(
            matches!(err, SimError::SnapshotInvalid { .. }),
            "token {token} = {value}: {err}"
        );
    }
}

#[test]
fn restore_rejects_a_barrier_wait_outside_the_barrier_table() {
    // A relay frame's line: count, fid, native tag, entry, two words,
    // then the wait tag (3 is a barrier wait) and the barrier id.
    let mut m = build();
    let (snap, pe) = snapshot_waiting(&mut m, "3", 9);
    let bad = retoken(&snap, "frames", pe, 10, "3e7");
    let err = build().restore(&bad).unwrap_err();
    assert!(matches!(err, SimError::SnapshotInvalid { .. }), "{err}");
}

/// Waits on sequence cell 0 (arg 0), or works and then signals it (arg 1).
struct SeqPair {
    step: u8,
}

impl ThreadBody for SeqPair {
    fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        self.step += 1;
        match (ctx.arg, self.step) {
            (0, 1) => Action::WaitSeq {
                cell: 0,
                threshold: 1,
            },
            (1, 1) => Action::Work {
                cycles: 50,
                kind: WorkKind::Compute,
            },
            (1, 2) => Action::SignalSeq { cell: 0 },
            _ => Action::End,
        }
    }

    fn snap(&mut self, c: &mut dyn Codec) -> Result<(), SimError> {
        c.u8(&mut self.step)
    }
}

fn build_seq_pair() -> Machine {
    let mut m = Machine::new(MachineConfig::with_pes(2)).unwrap();
    let entry = m.register_entry("seq-pair", |_pe, _arg| Box::new(SeqPair { step: 0 }));
    m.define_seq_cells(1);
    m.spawn_at_start(PeId(0), entry, 0).unwrap();
    m.spawn_at_start(PeId(0), entry, 1).unwrap();
    m
}

#[test]
fn restore_rejects_a_seq_wait_outside_the_seq_cells() {
    // A one-word frame's line: count, fid, native tag, entry, one word,
    // then the wait tag (4 is a seq wait) and the cell.
    let mut m = build_seq_pair();
    let (snap, pe) = snapshot_waiting(&mut m, "4", 8);
    let bad = retoken(&snap, "frames", pe, 9, "3e7");
    let err = build_seq_pair().restore(&bad).unwrap_err();
    assert!(matches!(err, SimError::SnapshotInvalid { .. }), "{err}");
}
