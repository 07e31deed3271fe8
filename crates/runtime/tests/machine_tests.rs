//! Integration tests of the runtime: scheduling, split-phase reads,
//! barriers, ordering, the two servicing modes, and determinism.

use std::sync::{Arc, Mutex};

use emx_core::{Cycle, GlobalAddr, MachineConfig, PeId, Probe, ServiceMode, SimError};
use emx_isa::ProgramBuilder;
use emx_runtime::{
    Action, BarrierId, Machine, ThreadBody, ThreadCtx, TraceEvent, TraceKind, WorkKind,
};

fn ga(pe: u16, off: u32) -> GlobalAddr {
    GlobalAddr::new(PeId(pe), off).unwrap()
}

/// A probe keeping every trace event, readable after the machine (which
/// owns the probe) has run.
#[derive(Clone, Default)]
struct Events(Arc<Mutex<Vec<TraceEvent>>>);

impl Events {
    /// Attach a fresh recording probe to `m` and return its reader.
    fn attach(m: &mut Machine) -> Events {
        let events = Events::default();
        m.attach_probe(Box::new(events.clone()));
        events
    }

    fn collected(&self) -> Vec<TraceEvent> {
        self.0.lock().unwrap().clone()
    }
}

impl Probe for Events {
    fn on(&mut self, at: Cycle, pe: PeId, kind: TraceKind) {
        self.0.lock().unwrap().push(TraceEvent { at, pe, kind });
    }
}

/// A thread that performs a scripted sequence of actions.
struct Scripted {
    actions: Vec<Action>,
    at: usize,
    /// Values observed in ctx.value at each step.
    seen: Vec<Option<u32>>,
}

impl Scripted {
    fn new(actions: Vec<Action>) -> Self {
        Scripted {
            actions,
            at: 0,
            seen: Vec::new(),
        }
    }
}

impl ThreadBody for Scripted {
    fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        self.seen.push(ctx.value);
        let a = self.actions.get(self.at).copied().unwrap_or(Action::End);
        self.at += 1;
        a
    }
}

#[test]
fn remote_read_round_trip_within_paper_band() {
    // "A typical remote read takes approximately 1 µs" (§2.3), i.e. 20
    // cycles at 20 MHz, and §4 quotes a 20–40 cycle band. Measure an
    // uncontended read on a 16-PE machine by timing the whole program: the
    // run is spawn + read + resume + end, so elapsed ≈ switch costs + round
    // trip.
    let mut m = Machine::new(MachineConfig::paper_p16()).unwrap();
    m.mem_mut(PeId(9)).unwrap().write(5, 1234).unwrap();
    let entry = m.register_entry("reader", |_, _| {
        Box::new(Scripted::new(vec![Action::Read { addr: ga(9, 5) }]))
    });
    m.spawn_at_start(PeId(0), entry, 0).unwrap();
    let report = m.run().unwrap();
    // Pure round trip = elapsed − spawn dispatch switch − read-issue send
    // − suspension switch − resume switch − end switch. All those are small
    // constants; just check the whole program fits inside ~2x the band.
    let elapsed = report.elapsed.get();
    assert!(
        (20..=60).contains(&elapsed),
        "read round trip {elapsed} cycles, expected within the 20–40 band plus dispatch costs"
    );
    assert_eq!(report.total_reads(), 1);
    assert_eq!(
        report.mean_switches().remote_read,
        0,
        "mean over 16 PEs rounds to 0"
    );
    assert_eq!(report.total_switches().remote_read, 1);
}

#[test]
fn read_delivers_the_remote_value() {
    let mut m = Machine::new(MachineConfig::with_pes(4)).unwrap();
    m.mem_mut(PeId(2)).unwrap().write(7, 0xCAFE).unwrap();
    let entry = m.register_entry("reader", |_, _| {
        Box::new(Scripted::new(vec![
            Action::Read { addr: ga(2, 7) },
            // Store what we read, so the test can see it after the run.
            Action::Work {
                cycles: 1,
                kind: WorkKind::Compute,
            },
        ]))
    });
    m.spawn_at_start(PeId(0), entry, 0).unwrap();

    // Verify via a second read-back thread instead of poking internals:
    // write the value to local memory from inside the thread.
    struct ReadStore;
    impl ThreadBody for ReadStore {
        fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
            match ctx.value {
                None => Action::Read { addr: ga(2, 7) },
                Some(v) => {
                    ctx.mem.write(0, v).unwrap();
                    Action::End
                }
            }
        }
    }
    let entry2 = m.register_entry("readstore", |_, _| Box::new(ReadStore));
    m.spawn_at_start(PeId(1), entry2, 0).unwrap();
    m.run().unwrap();
    assert_eq!(m.mem(PeId(1)).unwrap().read(0).unwrap(), 0xCAFE);
}

#[test]
fn remote_write_lands_without_suspending() {
    let mut m = Machine::new(MachineConfig::with_pes(4)).unwrap();
    let entry = m.register_entry("writer", |_, _| {
        Box::new(Scripted::new(vec![
            Action::Write {
                addr: ga(3, 11),
                value: 42,
            },
            Action::Write {
                addr: ga(3, 12),
                value: 43,
            },
            Action::Work {
                cycles: 5,
                kind: WorkKind::Compute,
            },
        ]))
    });
    m.spawn_at_start(PeId(0), entry, 0).unwrap();
    let report = m.run().unwrap();
    assert_eq!(m.mem(PeId(3)).unwrap().read(11).unwrap(), 42);
    assert_eq!(m.mem(PeId(3)).unwrap().read(12).unwrap(), 43);
    // No reads, so no remote-read switches.
    assert_eq!(report.total_switches().remote_read, 0);
    assert_eq!(report.total_packets(), 2);
}

#[test]
fn block_read_deposits_into_local_buffer() {
    let mut m = Machine::new(MachineConfig::with_pes(4)).unwrap();
    let data: Vec<u32> = (0..32).map(|i| 1000 + i).collect();
    m.mem_mut(PeId(1)).unwrap().write_slice(100, &data).unwrap();

    struct BlockReader;
    impl ThreadBody for BlockReader {
        fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
            match ctx.value {
                None => Action::ReadBlock {
                    addr: ga(1, 100),
                    len: 32,
                    local_dst: 200,
                },
                Some(n) => {
                    assert_eq!(n, 32, "completion reports the word count");
                    Action::End
                }
            }
        }
    }
    let entry = m.register_entry("blockreader", |_, _| Box::new(BlockReader));
    m.spawn_at_start(PeId(0), entry, 0).unwrap();
    let report = m.run().unwrap();
    assert_eq!(
        m.mem(PeId(0)).unwrap().read_slice(200, 32).unwrap(),
        &data[..]
    );
    // One request packet, 32 reads issued, one remote-read switch.
    assert_eq!(report.total_reads(), 32);
    assert_eq!(report.total_switches().remote_read, 1);
}

#[test]
fn block_read_works_in_em4_mode_too() {
    // In EM-4 servicing mode both the remote fetch and the local deposits
    // consume EXU cycles; the data must still land correctly.
    let mut cfg = MachineConfig::with_pes(4);
    cfg.service_mode = ServiceMode::ExuThread;
    let mut m = Machine::new(cfg).unwrap();
    let data: Vec<u32> = (0..16).map(|i| 5000 + i).collect();
    m.mem_mut(PeId(1)).unwrap().write_slice(100, &data).unwrap();

    struct BlockReader;
    impl ThreadBody for BlockReader {
        fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
            match ctx.value {
                None => Action::ReadBlock {
                    addr: ga(1, 100),
                    len: 16,
                    local_dst: 300,
                },
                Some(n) => {
                    assert_eq!(n, 16);
                    Action::End
                }
            }
        }
    }
    let entry = m.register_entry("blockreader", |_, _| Box::new(BlockReader));
    m.spawn_at_start(PeId(0), entry, 0).unwrap();
    let report = m.run().unwrap();
    assert_eq!(
        m.mem(PeId(0)).unwrap().read_slice(300, 16).unwrap(),
        &data[..]
    );
    // Both the remote PE (servicing) and the local PE (deposits) burned EXU
    // cycles on overhead in EM-4 mode.
    assert!(report.per_pe[1].breakdown.overhead.get() > 0);
    assert!(report.per_pe[0].breakdown.overhead.get() > 0);
}

#[test]
fn barrier_synchronizes_all_processors() {
    // Each PE writes a flag after the barrier; a checker thread reads all
    // flags before its own barrier arrival would release — instead we
    // verify by ordering: every PE records the barrier-release observation
    // AFTER every PE recorded its arrival.
    let p = 8usize;
    let mut m = Machine::new(MachineConfig::with_pes(p)).unwrap();
    let barrier = m.define_barrier(1);

    struct BarrierThread {
        barrier: BarrierId,
        phase: u8,
    }
    impl ThreadBody for BarrierThread {
        fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
            self.phase += 1;
            match self.phase {
                1 => {
                    //

                    // Record arrival order marker locally.
                    ctx.mem.write(0, 1).unwrap();
                    Action::Barrier { id: self.barrier }
                }
                2 => {
                    // After release, read the *remote* arrival marker of the
                    // next PE: it must already be set.
                    let mate = (ctx.pe.0 + 1) % ctx.npes as u16;
                    Action::Read { addr: ga(mate, 0) }
                }
                3 => {
                    assert_eq!(ctx.value, Some(1), "barrier released before all arrived");
                    ctx.mem.write(1, 1).unwrap();
                    Action::End
                }
                _ => Action::End,
            }
        }
    }
    let entry = m.register_entry("barrier", move |_, _| {
        Box::new(BarrierThread { barrier, phase: 0 })
    });
    for pe in 0..p {
        m.spawn_at_start(PeId(pe as u16), entry, 0).unwrap();
    }
    let report = m.run().unwrap();
    for pe in 0..p {
        assert_eq!(m.mem(PeId(pe as u16)).unwrap().read(1).unwrap(), 1);
    }
    assert!(
        report.total_switches().iter_sync >= p as u64,
        "each thread suspends at least once"
    );
}

#[test]
fn barrier_epochs_do_not_mix() {
    // Two iterations over the same barrier: a thread must not pass epoch 2
    // until every thread arrived at epoch 2.
    let p = 4usize;
    let mut m = Machine::new(MachineConfig::with_pes(p)).unwrap();
    let barrier = m.define_barrier(1);

    struct TwoEpochs {
        barrier: BarrierId,
        phase: u8,
    }
    impl ThreadBody for TwoEpochs {
        fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
            self.phase += 1;
            match self.phase {
                1 => Action::Barrier { id: self.barrier },
                2 => {
                    ctx.mem.write(0, 100).unwrap();
                    Action::Barrier { id: self.barrier }
                }
                3 => {
                    let mate = (ctx.pe.0 + 1) % ctx.npes as u16;
                    Action::Read { addr: ga(mate, 0) }
                }
                4 => {
                    assert_eq!(ctx.value, Some(100), "epoch 2 released early");
                    Action::End
                }
                _ => Action::End,
            }
        }
    }
    let entry = m.register_entry("epochs", move |_, _| {
        Box::new(TwoEpochs { barrier, phase: 0 })
    });
    for pe in 0..p {
        m.spawn_at_start(PeId(pe as u16), entry, 0).unwrap();
    }
    m.run().unwrap();
}

#[test]
fn seq_cells_order_local_threads() {
    // Three threads on one PE append to a log in seq order regardless of
    // spawn order.
    let mut m = Machine::new(MachineConfig::with_pes(2)).unwrap();
    m.define_seq_cells(1);

    struct Ordered {
        rank: u32,
        phase: u8,
    }
    impl ThreadBody for Ordered {
        fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
            self.phase += 1;
            match self.phase {
                1 => Action::WaitSeq {
                    cell: 0,
                    threshold: u64::from(self.rank),
                },
                2 => {
                    // Append rank to the log at mem[10 + len], len at mem[9].
                    let len = ctx.mem.read(9).unwrap();
                    ctx.mem.write(10 + len, self.rank).unwrap();
                    ctx.mem.write(9, len + 1).unwrap();
                    Action::SignalSeq { cell: 0 }
                }
                _ => Action::End,
            }
        }
    }
    let entry = m.register_entry("ordered", |_, arg| {
        Box::new(Ordered {
            rank: arg,
            phase: 0,
        })
    });
    // Spawn in reverse order to prove ordering comes from seq cells.
    for rank in [2u32, 1, 0] {
        m.spawn_at_start(PeId(0), entry, rank).unwrap();
    }
    let report = m.run().unwrap();
    let log = m.mem(PeId(0)).unwrap().read_slice(10, 3).unwrap().to_vec();
    assert_eq!(log, vec![0, 1, 2]);
    // Ranks 1 and 2 had to defer at least once each.
    assert!(report.total_switches().thread_sync >= 2);
}

#[test]
fn yield_requeues_behind_other_work() {
    // Thread A yields between two writes; thread B runs in the gap.
    let mut m = Machine::new(MachineConfig::with_pes(1)).unwrap();

    struct Yielder {
        phase: u8,
    }
    impl ThreadBody for Yielder {
        fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
            self.phase += 1;
            match self.phase {
                1 => {
                    ctx.mem.write(0, 1).unwrap();
                    Action::Yield
                }
                2 => {
                    // B must have run during the yield.
                    assert_eq!(ctx.mem.read(1).unwrap(), 1, "yield did not let B in");
                    Action::End
                }
                _ => Action::End,
            }
        }
    }
    struct Other;
    impl ThreadBody for Other {
        fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
            if ctx.mem.read(1).unwrap() == 0 {
                ctx.mem.write(1, 1).unwrap();
                Action::Work {
                    cycles: 2,
                    kind: WorkKind::Compute,
                }
            } else {
                Action::End
            }
        }
    }
    let a = m.register_entry("yielder", |_, _| Box::new(Yielder { phase: 0 }));
    let b = m.register_entry("other", |_, _| Box::new(Other));
    m.spawn_at_start(PeId(0), a, 0).unwrap();
    m.spawn_at_start(PeId(0), b, 0).unwrap();
    m.run().unwrap();
}

#[test]
fn multithreading_overlaps_communication() {
    // The paper's central claim in miniature: h threads each reading a
    // stream of remote words overlap each other's latency, so the per-PE
    // communication (idle) time drops versus a single thread doing all the
    // reads. Total work is held constant.
    fn comm_time(h: u32) -> f64 {
        let total_reads = 64u32;
        let mut m = Machine::new(MachineConfig::with_pes(4)).unwrap();
        struct ReadLoop {
            base: u32,
            remaining: u32,
            issued: u32,
        }
        impl ThreadBody for ReadLoop {
            fn step(&mut self, _ctx: &mut ThreadCtx<'_>) -> Action {
                if self.remaining == 0 {
                    return Action::End;
                }
                self.remaining -= 1;
                let off = self.base + self.issued;
                self.issued += 1;
                Action::Read { addr: ga(1, off) }
            }
        }
        let per_thread = total_reads / h;
        let entry = m.register_entry("readloop", move |_, arg| {
            Box::new(ReadLoop {
                base: arg * per_thread,
                remaining: per_thread,
                issued: 0,
            })
        });
        for t in 0..h {
            m.spawn_at_start(PeId(0), entry, t).unwrap();
        }
        let report = m.run().unwrap();
        report.per_pe[0].breakdown.comm.get() as f64
    }
    let one = comm_time(1);
    let four = comm_time(4);
    assert!(
        four < one * 0.7,
        "4 threads should hide at least 30% of latency: h=1 -> {one}, h=4 -> {four}"
    );
}

#[test]
fn bypass_dma_keeps_remote_exu_free() {
    // Hammer PE1 with reads from PE0 while PE1 has no threads: under
    // BypassDma its EXU does nothing; under ExuThread (EM-4) it burns
    // cycles servicing requests.
    fn victim_busy(mode: ServiceMode) -> u64 {
        let mut cfg = MachineConfig::with_pes(2);
        cfg.service_mode = mode;
        let mut m = Machine::new(cfg).unwrap();
        struct Hammer {
            remaining: u32,
        }
        impl ThreadBody for Hammer {
            fn step(&mut self, _ctx: &mut ThreadCtx<'_>) -> Action {
                if self.remaining == 0 {
                    return Action::End;
                }
                self.remaining -= 1;
                Action::Read {
                    addr: ga(1, self.remaining),
                }
            }
        }
        let entry = m.register_entry("hammer", |_, _| Box::new(Hammer { remaining: 50 }));
        m.spawn_at_start(PeId(0), entry, 0).unwrap();
        let report = m.run().unwrap();
        report.per_pe[1].breakdown.total().get()
    }
    assert_eq!(
        victim_busy(ServiceMode::BypassDma),
        0,
        "by-pass must not touch the EXU"
    );
    assert!(
        victim_busy(ServiceMode::ExuThread) > 0,
        "EM-4 mode must consume EXU cycles"
    );
}

#[test]
fn runs_are_deterministic() {
    fn run_once() -> (Cycle, u64, u64) {
        let mut m = Machine::new(MachineConfig::with_pes(8)).unwrap();
        let barrier = m.define_barrier(2);
        struct Mix {
            barrier: BarrierId,
            phase: u8,
        }
        impl ThreadBody for Mix {
            fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
                self.phase += 1;
                match self.phase {
                    1 => Action::Read {
                        addr: ga((ctx.pe.0 + 3) % 8, u32::from(ctx.pe.0)),
                    },
                    2 => Action::Write {
                        addr: ga((ctx.pe.0 + 5) % 8, 40 + u32::from(ctx.pe.0)),
                        value: ctx.value.unwrap_or(0),
                    },
                    3 => Action::Barrier { id: self.barrier },
                    4 => Action::Work {
                        cycles: 17,
                        kind: WorkKind::Compute,
                    },
                    _ => Action::End,
                }
            }
        }
        let entry = m.register_entry("mix", move |_, _| Box::new(Mix { barrier, phase: 0 }));
        for pe in 0..8u16 {
            for t in 0..2u32 {
                m.spawn_at_start(PeId(pe), entry, t).unwrap();
            }
        }
        let r = m.run().unwrap();
        (r.elapsed, r.total_packets(), r.total_switches().total())
    }
    assert_eq!(
        run_once(),
        run_once(),
        "identical runs must agree cycle-for-cycle"
    );
}

#[test]
fn deadlock_is_detected_not_hung() {
    let mut m = Machine::new(MachineConfig::with_pes(1)).unwrap();
    m.define_seq_cells(1);
    let entry = m.register_entry("stuck", |_, _| {
        Box::new(Scripted::new(vec![Action::WaitSeq {
            cell: 0,
            threshold: 99,
        }]))
    });
    m.spawn_at_start(PeId(0), entry, 0).unwrap();
    match m.run() {
        Err(SimError::Deadlock { suspended, .. }) => assert_eq!(suspended, 1),
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn trace_records_the_scheduling_interleaving() {
    let mut m = Machine::new(MachineConfig::with_pes(2)).unwrap();
    let events = Events::attach(&mut m);
    m.mem_mut(PeId(1)).unwrap().write(0, 5).unwrap();
    let entry = m.register_entry("reader", |_, _| {
        Box::new(Scripted::new(vec![Action::Read { addr: ga(1, 0) }]))
    });
    m.spawn_at_start(PeId(0), entry, 0).unwrap();
    m.run().unwrap();
    let trace = events.collected();
    assert!(!trace.is_empty());
    // The interleaving must contain: a spawn dispatch, the read request
    // leaving PE0, and the response dispatch resuming the thread.
    use emx_core::PacketKind;
    let kinds: Vec<_> = trace.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&TraceKind::Dispatch {
        pkt: PacketKind::Spawn
    }));
    assert!(kinds.contains(&TraceKind::Send {
        pkt: PacketKind::ReadReq,
        dst: PeId(1)
    }));
    assert!(kinds.contains(&TraceKind::Dispatch {
        pkt: PacketKind::ReadResp
    }));
    // Emission order is causal, not globally time-sorted (OBU departure
    // stamps interleave with later EXU events inside one burst), but each
    // processor's dispatches must still be monotone in time.
    for pe in [PeId(0), PeId(1)] {
        let starts: Vec<_> = trace
            .iter()
            .filter(|e| e.pe == pe && matches!(e.kind, TraceKind::Dispatch { .. }))
            .map(|e| e.at)
            .collect();
        assert!(starts.windows(2).all(|w| w[0] <= w[1]), "{pe}: {starts:?}");
    }
}

#[test]
fn run_until_bounds_a_livelocked_barrier() {
    // A barrier expecting 2 participants per PE with only 1 thread spawned
    // never releases; the waiting thread polls forever. run_until turns
    // that livelock into an error instead of a hang.
    let mut m = Machine::new(MachineConfig::with_pes(2)).unwrap();
    let barrier = m.define_barrier(2);
    let entry = m.register_entry("lonely", move |_, _| {
        Box::new(Scripted::new(vec![Action::Barrier { id: barrier }]))
    });
    m.spawn_at_start(PeId(0), entry, 0).unwrap();
    let err = m.run_until(Cycle::new(50_000)).unwrap_err();
    match &err {
        SimError::FuelExhausted {
            cycle,
            live_threads,
        } => {
            assert!(*cycle > 50_000, "offending cycle {cycle} is past the limit");
            assert_eq!(*live_threads, 1, "the lonely barrier waiter is live");
        }
        other => panic!("expected FuelExhausted, got {other:?}"),
    }
    assert!(err.to_string().contains("cycle limit"), "{err}");
}

#[test]
fn machine_runs_only_once() {
    let mut m = Machine::new(MachineConfig::with_pes(1)).unwrap();
    m.run().unwrap();
    assert!(m.run().is_err());
}

#[test]
fn isa_thread_reads_remotely_through_the_interpreter() {
    // An interpreted kernel: read mem[arg] of PE1 into r5, add 1, store to
    // local mem[8].
    let mut m = Machine::new(MachineConfig::with_pes(2)).unwrap();
    m.mem_mut(PeId(1)).unwrap().write(3, 555).unwrap();

    let r5 = emx_isa::Reg::r(5);
    let r6 = emx_isa::Reg::r(6);
    let mut b = ProgramBuilder::new("fetch_add");
    // Build the packed global address PE1:3 = (1 << 22) | 3.
    b.li32(r6, (1 << 22) | 3);
    b.rread(r5, r6);
    b.addi(r5, r5, 1);
    b.sw(r5, emx_isa::Reg::ZERO, 8);
    b.end();
    let tmpl = m.register_template(b.build().unwrap());
    m.spawn_at_start(PeId(0), tmpl, 0).unwrap();
    let report = m.run().unwrap();
    assert_eq!(m.mem(PeId(0)).unwrap().read(8).unwrap(), 556);
    assert_eq!(report.total_reads(), 1);
    // The send instruction's cycle is classified as overhead.
    assert!(report.per_pe[0].breakdown.overhead.get() >= 1);
}

#[test]
fn isa_thread_spawns_native_style_worker_on_other_pe() {
    // ISA thread on PE0 spawns a template on PE1 that writes arg to mem[0].
    let mut m = Machine::new(MachineConfig::with_pes(2)).unwrap();

    let r5 = emx_isa::Reg::r(5);
    let mut worker = ProgramBuilder::new("store_arg");
    worker.sw(emx_isa::Reg::ARG, emx_isa::Reg::ZERO, 0);
    worker.end();
    let worker_id = m.register_template(worker.build().unwrap());

    let mut spawner = ProgramBuilder::new("spawner");
    // entry gaddr = PE1, offset = worker entry id.
    spawner.li32(r5, (1 << 22) | worker_id.0);
    spawner.addi(emx_isa::Reg::r(6), emx_isa::Reg::ZERO, 77);
    spawner.spawn(r5, emx_isa::Reg::r(6));
    spawner.end();
    let spawner_id = m.register_template(spawner.build().unwrap());

    m.spawn_at_start(PeId(0), spawner_id, 0).unwrap();
    m.run().unwrap();
    assert_eq!(m.mem(PeId(1)).unwrap().read(0).unwrap(), 77);
}

#[test]
fn breakdown_components_sum_to_busy_time() {
    // Conservation: elapsed >= any PE's total breakdown, and compute charged
    // equals what the workload asked for.
    let mut m = Machine::new(MachineConfig::with_pes(2)).unwrap();
    let entry = m.register_entry("worker", |_, _| {
        Box::new(Scripted::new(vec![
            Action::Work {
                cycles: 100,
                kind: WorkKind::Compute,
            },
            Action::Work {
                cycles: 10,
                kind: WorkKind::Overhead,
            },
            Action::Read { addr: ga(1, 0) },
            Action::Work {
                cycles: 50,
                kind: WorkKind::Compute,
            },
        ]))
    });
    m.spawn_at_start(PeId(0), entry, 0).unwrap();
    let report = m.run().unwrap();
    let bd = &report.per_pe[0].breakdown;
    assert_eq!(bd.compute.get(), 150);
    // Overhead = explicit 10 + 1 send cycle.
    assert_eq!(bd.overhead.get(), 11);
    assert!(bd.switch.get() > 0);
    assert!(bd.comm.get() > 0, "the read must cost idle time with h=1");
    assert!(report.elapsed >= bd.total());
}

#[test]
fn spawn_rejects_bad_targets() {
    let mut m = Machine::new(MachineConfig::with_pes(2)).unwrap();
    let entry = m.register_entry("noop", |_, _| Box::new(Scripted::new(vec![])));
    assert!(m.spawn_at_start(PeId(5), entry, 0).is_err());
    assert!(m
        .spawn_at_start(PeId(0), emx_runtime::EntryId(99), 0)
        .is_err());
}

#[test]
fn probe_and_trace_see_the_same_lifecycle_stream() {
    use emx_core::{PacketKind, SuspendCause};

    let mut m = Machine::new(MachineConfig::with_pes(2)).unwrap();
    let rec = Events::attach(&mut m);
    m.mem_mut(PeId(1)).unwrap().write(0, 5).unwrap();
    let entry = m.register_entry("reader", |_, _| {
        Box::new(Scripted::new(vec![
            Action::Read { addr: ga(1, 0) },
            Action::Work {
                cycles: 10,
                kind: WorkKind::Compute,
            },
        ]))
    });
    m.spawn_at_start(PeId(0), entry, 0).unwrap();
    m.run().unwrap();

    let seen = rec.collected();
    let kinds: Vec<_> = seen.iter().map(|e| e.kind).collect();
    // Full lifecycle of the single thread on PE0: spawned, suspended on the
    // remote read, resumed by the response, retired at the R-cycle end.
    let spawn = kinds
        .iter()
        .position(|k| matches!(k, TraceKind::ThreadSpawn { entry: 0, .. }))
        .expect("thread-spawn");
    let suspend = kinds
        .iter()
        .position(|k| {
            matches!(
                k,
                TraceKind::ThreadSuspend {
                    cause: SuspendCause::RemoteRead,
                    ..
                }
            )
        })
        .expect("thread-suspend(remote-read)");
    let resume = kinds
        .iter()
        .position(|k| matches!(k, TraceKind::ThreadResume { .. }))
        .expect("thread-resume");
    let retire = kinds
        .iter()
        .position(|k| matches!(k, TraceKind::ThreadRetire { .. }))
        .expect("thread-retire");
    assert!(spawn < suspend && suspend < resume && resume < retire);

    // The remote read's service shows up off-EXU: the request is injected
    // into the network, delivered to PE1, serviced by the by-pass DMA, and
    // the response enqueued back on PE0.
    assert!(kinds.iter().any(|k| matches!(
        k,
        TraceKind::NetInject {
            pkt: PacketKind::ReadReq,
            dst: PeId(1),
            ..
        }
    )));
    assert!(seen.iter().any(|e| e.pe == PeId(1)
        && matches!(
            e.kind,
            TraceKind::NetDeliver {
                pkt: PacketKind::ReadReq,
                src: PeId(0)
            }
        )));
    assert!(seen.iter().any(|e| e.pe == PeId(1)
        && matches!(
            e.kind,
            TraceKind::DmaService {
                pkt: PacketKind::ReadReq,
                words: 1
            }
        )));
    assert!(seen.iter().any(|e| e.pe == PeId(0)
        && matches!(
            e.kind,
            TraceKind::Enqueue {
                pkt: PacketKind::ReadResp,
                ..
            }
        )));
}

#[test]
fn detached_probe_stops_the_stream() {
    use emx_core::{Probe, TraceKind};
    use std::sync::{Arc, Mutex};

    #[derive(Clone, Default)]
    struct Counter(Arc<Mutex<u64>>);
    impl Probe for Counter {
        fn on(&mut self, _at: Cycle, _pe: PeId, _kind: TraceKind) {
            *self.0.lock().unwrap() += 1;
        }
    }

    let mut m = Machine::new(MachineConfig::with_pes(1)).unwrap();
    let c = Counter::default();
    m.attach_probe(Box::new(c.clone()));
    assert!(m.detach_probe().is_some());
    assert!(m.detach_probe().is_none());
    let entry = m.register_entry("noop", |_, _| Box::new(Scripted::new(vec![])));
    m.spawn_at_start(PeId(0), entry, 0).unwrap();
    m.run().unwrap();
    assert_eq!(*c.0.lock().unwrap(), 0, "detached probe must see nothing");
}

#[test]
fn instantaneous_obu_forwarding_is_rejected() {
    // Canonical network-arrival keys name a packet by its sender's OBU
    // depart cycle. With a zero-cycle OBU two same-cycle sends would share
    // that cycle, two arrivals could share a key, and pop order would fall
    // back to heap layout.
    let mut cfg = MachineConfig::with_pes(4);
    cfg.costs.obu_forward = 0;
    assert!(matches!(Machine::new(cfg), Err(SimError::BadConfig { .. })));
}
