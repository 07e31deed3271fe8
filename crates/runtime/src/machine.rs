//! The [`Machine`]: processors, network, event loop, and scheduling.
//!
//! The simulator is event-driven: the events are packet arrivals, EXU
//! dispatch attempts and read-retry timers. The Input/Output Buffer Units
//! and the by-pass DMA run on their own per-processor timelines, so remote
//! reads are serviced without consuming EXU cycles — unless the EM-4
//! ablation mode ([`ServiceMode::ExuThread`]) is selected, in which case
//! requests join the packet queue and steal processor time exactly as the
//! paper describes for the EM-X's predecessor.
//!
//! ## The thread lifecycle
//!
//! A dispatch pops one packet and computes everything the EXU does for it
//! in one [`Burst`]: the EXU clock, the cycles charged to each Figure 8
//! class ([`Burst::charge`]) and the packets it sends. Each step of the
//! paper's lifecycle (§2.3) has one path:
//!
//! * **switch-in** ([`Core::switch_in`]): the context switch, then
//!   `thread-spawn` or `thread-resume`, then the thread's burst. A spawn
//!   packet allocates a frame first; a wake-up packet goes through
//!   [`Core::wake`], whose slot only decides whether the thread resumes,
//!   keeps waiting (a failed barrier poll, a spurious sequence wake, an
//!   EM-4 partial block) or was addressed by a stale response;
//! * **the burst** ([`Core::run_burst`]): step the thread, applying each
//!   non-suspending action inline, until it retires or an action names a
//!   [`SuspendCause`] together with the wait it leaves behind. Both read
//!   actions send their request through [`Pe::issue_read`];
//! * **switch-out**, the burst's tail: the context switch, then
//!   `thread-suspend` or `thread-retire`;
//! * **block-word deposit** ([`Frame::deposit`]): one path for both service
//!   modes — the requester's IBU in by-pass mode, the EXU in EM-4 mode.
//!
//! A dispatch ends by committing the burst's charges, then routing its
//! packets in the order it produced them.
//!
//! ## Execution split: core vs. shared vs. effects
//!
//! The machine's run-time state is split three ways so an event handler
//! can borrow each part independently:
//!
//! * [`Core`] — everything event processing mutates on the processors:
//!   the PEs and the one event [`Calendar`], keyed by the canonical
//!   [`EvKey`] order;
//! * [`Shared`] — the immutable tables every handler reads:
//!   configuration, entry definitions, barrier membership;
//! * [`Fx`] — the **order-sensitive** resources an event's effects land
//!   on: the stateful network model, the attached probe, and the
//!   invariant checker. [`Core::process_event`] applies them inline, in
//!   the order the event produces them; the driver loop (`driver.rs`)
//!   pops events in canonical key order, so every digest is a pure
//!   function of the configuration and the workload.

use emx_core::{
    Continuation, Cycle, FrameId, GlobalAddr, MachineConfig, Packet, PacketKind, PeId, Priority,
    Probe, ServiceMode, SimError, SlotId, SuspendCause,
};
use emx_faults::{FaultPlan, FaultReport, FaultyNetwork, InvariantChecker, Rng64};
use emx_isa::{Effect, Program, Reg, ThreadState};
use emx_net::{build_network, DeliveryClass, Network};
use emx_proc::{BypassDma, FrameTable, LocalMemory, PacketQueue};
use emx_stats::{Breakdown, FaultSummary, PeStats, RunReport};

use crate::calendar::{Calendar, EvKey, LANE_DISPATCH, LANE_LOCAL, LANE_RETRY};
use crate::thread::{Action, BarrierId, ThreadBody, ThreadCtx, WorkKind};
use crate::trace::TraceKind;

/// Continuation slot carrying a data value or a block-read completion.
const SLOT_DATA: SlotId = SlotId(0);
/// Continuation slot marking a barrier re-poll.
const SLOT_POLL: SlotId = SlotId(1);
/// Continuation slot marking a sequence-cell wake-up.
const SLOT_SEQ: SlotId = SlotId(2);
/// Continuation slot marking an explicit-yield resumption.
const SLOT_YIELD: SlotId = SlotId(3);

/// The processor that runs the barrier-coordination service threads.
pub const BARRIER_COORDINATOR: PeId = PeId(0);

/// When a barrier poll made at `now` by frame `fid` on processor `pe`
/// polls again: `interval` cycles later, plus a deterministic jitter.
///
/// A fully deterministic machine with identical per-PE work phase-locks:
/// every processor polls on the same grid, and quantization offsets can
/// amplify into large artificial barrier skew at particular intervals (a
/// resonance real hardware never exhibits, because instruction timing,
/// refresh, and arbitration add noise). A small hash-based jitter — a pure
/// function of (pe, frame, time), so runs remain exactly reproducible —
/// breaks the phase lock.
#[inline]
fn next_poll(pe: usize, fid: FrameId, now: Cycle, interval: u32) -> Cycle {
    let mut x = (pe as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(fid.0) << 32)
        .wrapping_add(now.get());
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    now + u64::from(interval) + x % 13
}

/// The sequence number of a processor's latest split-phase read: its
/// remote-read census, wrapped to the packet's 16-bit field.
///
/// A per-frame counter would restart at every spawn, so a late duplicate
/// response addressed to an earlier occupant of a recycled frame slot
/// could match the new occupant's read and be deposited as its data. The
/// census counts every read the processor issues and is already part of
/// every snapshot.
#[inline]
fn read_seq(stats: &PeStats) -> u16 {
    stats.switches.remote_read as u16
}

/// Words of local memory reserved per activation frame for ISA threads
/// (the `fp` register points at `frame_index * FRAME_WORDS`).
pub const FRAME_WORDS: u32 = 64;

/// Default fuel limit of [`Machine::run`], in cycles: 2^32, about 3.6
/// minutes of simulated 20 MHz time and more than 180x the longest
/// committed experiment (the P=1024 FFT at 22.8M cycles). Generous enough
/// that no legitimate workload hits it, small enough that a livelocked run
/// fails in bounded host time with [`SimError::FuelExhausted`].
pub const DEFAULT_FUEL: u64 = 1 << 32;

/// Identifier of a registered thread entry (native factory or ISA template).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EntryId(pub u32);

/// A native entry's body factory. `Send` so the machine owning it can move
/// to a sweep worker thread.
pub(crate) type Factory = Box<dyn Fn(PeId, u32) -> Box<dyn ThreadBody> + Send>;

pub(crate) enum EntryDef {
    Native { name: String, factory: Factory },
    Template(Program),
}

impl EntryDef {
    /// The registered name; a template reports its program's.
    pub(crate) fn name(&self) -> &str {
        match self {
            EntryDef::Native { name, .. } => name,
            EntryDef::Template(p) => &p.name,
        }
    }
}

pub(crate) enum ThreadKind {
    /// A native body plus the entry index it was instantiated from, kept so
    /// a snapshot can name the factory that rebuilds the body on restore.
    Native {
        body: Box<dyn ThreadBody>,
        entry: u32,
    },
    Isa {
        state: ThreadState,
        template: u32,
    },
}

/// The blank a snapshot decodes a frame's thread over.
impl Default for ThreadKind {
    fn default() -> Self {
        ThreadKind::Isa {
            state: ThreadState::default(),
            template: 0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Wait {
    /// Running or queued for dispatch.
    #[default]
    Ready,
    /// One split-phase read outstanding; for ISA threads the register the
    /// value lands in.
    Value { isa_dst: Option<Reg> },
    /// Block read in flight: `received` of `len` words deposited at
    /// `local_dst`.
    Block {
        local_dst: u32,
        len: u16,
        received: u16,
    },
    /// Waiting for barrier `id`'s release number to reach `target`.
    Barrier { id: u32, target: u64 },
    /// Waiting for sequence cell `cell` to reach `threshold`.
    Seq { cell: u32, threshold: u64 },
    /// Explicitly yielded; resumption packet in flight.
    Yielded,
}

#[derive(Default)]
pub(crate) struct Frame {
    pub(crate) thread: ThreadKind,
    pub(crate) wait: Wait,
    pub(crate) arg: u32,
    /// Value delivered by the last read, consumed by the next step.
    pub(crate) inbox: Option<u32>,
    /// Unique id across frame-slot reuse, so a stale retry timer can never
    /// act on a later thread that recycled the slot.
    pub(crate) uid: u64,
    /// Sequence number of the thread's current split-phase read; stamped on
    /// requests and matched against responses when the retry protocol is
    /// armed. Drawn from the processor-wide read count ([`read_seq`]), so
    /// it is unique across frame-slot reuse too.
    pub(crate) cur_seq: u16,
    /// Retry re-issues of the current read.
    pub(crate) attempts: u32,
    /// The in-flight request, kept for idempotent re-issue.
    pub(crate) pending: Option<Packet>,
    /// Bitmap of block-read word indices already deposited (duplicate
    /// suppression under response duplication/retry).
    pub(crate) seen: Vec<u64>,
}

impl Frame {
    /// Mark word `idx` as deposited; returns whether it already was.
    fn seen_test_and_set(&mut self, idx: u16) -> bool {
        let (w, b) = (usize::from(idx) / 64, usize::from(idx) % 64);
        if w >= self.seen.len() {
            self.seen.resize(w + 1, 0);
        }
        let hit = self.seen[w] & (1 << b) != 0;
        self.seen[w] |= 1 << b;
        hit
    }

    /// Write block-read word `pkt` into `mem` for this frame's block read,
    /// in either service mode. Without the retry protocol words arrive in
    /// order and land one after another; with it, each lands at its own
    /// index, and a word from a superseded attempt or one already
    /// deposited is discarded: `None`. Otherwise returns whether the block
    /// is now complete. A word whose destination passes the last 32-bit
    /// offset is a memory fault at `u32::MAX`, never a wrapped write.
    fn deposit(
        &mut self,
        mem: &mut LocalMemory,
        pkt: &Packet,
        retry_armed: bool,
    ) -> Result<Option<bool>, SimError> {
        let Wait::Block {
            local_dst,
            len,
            received,
        } = self.wait
        else {
            return Err(SimError::Workload {
                reason: format!("block deposit for a frame in state {:?}", self.wait),
            });
        };
        let idx = if retry_armed { pkt.idx } else { received };
        if retry_armed && (pkt.seq != self.cur_seq || self.seen_test_and_set(idx)) {
            return Ok(None);
        }
        let Some(dst) = local_dst.checked_add(u32::from(idx)) else {
            return Err(mem.fault(u32::MAX));
        };
        mem.write(dst, pkt.data)?;
        let received = received + 1;
        self.wait = Wait::Block {
            local_dst,
            len,
            received,
        };
        Ok(Some(received == len))
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LocalBarrier {
    pub(crate) arrived: usize,
    pub(crate) releases: u64,
}

pub(crate) struct Pe {
    pub(crate) mem: LocalMemory,
    pub(crate) queue: PacketQueue,
    pub(crate) frames: FrameTable<Frame>,
    pub(crate) dma: BypassDma,
    pub(crate) busy_until: Cycle,
    pub(crate) dispatch_scheduled: bool,
    pub(crate) live_threads: usize,
    pub(crate) seq_cells: Vec<u64>,
    pub(crate) seq_waiters: Vec<(FrameId, u32, u64)>,
    pub(crate) barriers: Vec<LocalBarrier>,
    pub(crate) stats: PeStats,
    /// Source of per-frame [`Frame::uid`] values.
    pub(crate) next_uid: u64,
    /// Per-PE seeded fault-decision streams (present iff fault injection is
    /// configured). Per-PE rather than machine-global so each processor's
    /// draws are a function of the seed and that processor alone, never of
    /// how other processors' events interleave with its own.
    pub(crate) spill_rng: Option<Rng64>,
    pub(crate) dma_rng: Option<Rng64>,
    /// Canonical-key counters, one per [`EvKey`] lane homed on this PE,
    /// indexed by lane (dispatch, local, retry). They advance only while
    /// this PE's own events execute (or during pre-run setup), so an
    /// event's key is a function of its own processor's history.
    pub(crate) ev_seq: [u64; 3],
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// Packet arrival; the flag records whether it travelled the network
    /// (local scheduler wake-ups and loader spawns did not), which the
    /// invariant checker's conservation ledger needs.
    Arrive(PeId, Packet, bool),
    Dispatch(PeId),
    /// Retry timer for frame `FrameId` (identified by uid) read `seq`.
    Retry(PeId, FrameId, u64, u16),
}

/// The blank a snapshot decodes a calendar event over.
impl Default for Ev {
    fn default() -> Self {
        Ev::Dispatch(PeId(0))
    }
}

/// The Figure 8 class a span of EXU cycles is charged to.
#[derive(Debug, Clone, Copy)]
enum Class {
    Compute,
    Overhead,
    Switch,
    /// Busy cycles that are really synchronization waiting in disguise
    /// (barrier re-polls); classified as communication time, matching the
    /// paper's observation that excessive iteration-sync switching erodes
    /// the communication minimum at high thread counts.
    Comm,
}

/// What one dispatch does on the EXU: the EXU clock, the cycles charged to
/// each Figure 8 class, and the packets produced, routed once the charges
/// are committed.
struct Burst {
    now: Cycle,
    spent: Breakdown,
    out: Vec<Outgoing>,
}

impl Burst {
    /// Advance the EXU clock by `cycles`, charged to `class`.
    #[inline]
    fn charge(&mut self, class: Class, cycles: impl Into<u64>) {
        let cycles = cycles.into();
        self.now += cycles;
        let spent = match class {
            Class::Compute => &mut self.spent.compute,
            Class::Overhead => &mut self.spent.overhead,
            Class::Switch => &mut self.spent.switch,
            Class::Comm => &mut self.spent.comm,
        };
        *spent += cycles;
    }

    /// Send `pkt` out of `pe`'s OBU at the current EXU cycle.
    fn send(&mut self, pe: &mut Pe, pkt: Packet) {
        let depart = pe.dma.obu_depart(self.now);
        pe.stats.packets_sent += 1;
        self.out.push(Outgoing::Net { depart, pkt });
    }

    /// Deliver `pkt` to this processor's own queue at `at`.
    fn local(&mut self, at: Cycle, pkt: Packet) {
        self.out.push(Outgoing::LocalAt { at, pkt });
    }
}

/// The run's one observation consumer, the attached probe, behind a
/// [`Probe`] that also counts emissions.
///
/// [`Obs::as_probe`] keeps the `*_probed` entry points of the processor
/// units and the network on their `None` fast path — no event is ever
/// constructed — when observation is off.
pub(crate) struct Obs<'a> {
    pub(crate) probe: Option<&'a mut (dyn Probe + Send + 'static)>,
    /// Emissions made by event processing (`replay.emissions`); a route's
    /// own narration is excluded (see [`Core::route`]).
    pub(crate) emitted: u64,
}

impl Obs<'_> {
    #[inline]
    fn enabled(&self) -> bool {
        self.probe.is_some()
    }

    /// `Some(self)` when observation is on, else `None`.
    #[inline]
    fn as_probe(&mut self) -> Option<&mut dyn Probe> {
        if self.enabled() {
            Some(self)
        } else {
            None
        }
    }

    /// Emit `kind` when observation is on.
    #[inline]
    fn record(&mut self, at: Cycle, pe: PeId, kind: TraceKind) {
        if self.enabled() {
            self.on(at, pe, kind);
        }
    }
}

impl Probe for Obs<'_> {
    fn on(&mut self, at: Cycle, pe: PeId, kind: TraceKind) {
        self.emitted += 1;
        if let Some(p) = self.probe.as_mut() {
            p.on(at, pe, kind);
        }
    }
}

/// The order-sensitive resources an event applies its effects to,
/// borrowed from the [`Machine`] for the length of a driver loop.
pub(crate) struct Fx<'a> {
    pub(crate) net: &'a mut dyn Network,
    pub(crate) obs: Obs<'a>,
    pub(crate) checker: Option<&'a mut InvariantChecker>,
}

/// A packet produced during a dispatch, to be scheduled after borrows end.
enum Outgoing {
    /// Route through the network from this processor at `depart`.
    Net { depart: Cycle, pkt: Packet },
    /// Deliver locally (scheduler bookkeeping) at `at`.
    LocalAt { at: Cycle, pkt: Packet },
    /// Arm a remote-read retry timer.
    RetryAt {
        at: Cycle,
        fid: FrameId,
        uid: u64,
        seq: u16,
    },
}

/// The processor half of a machine: every PE and the event calendar.
pub(crate) struct Core {
    pub(crate) pes: Vec<Pe>,
    pub(crate) cal: Calendar<Ev>,
    /// Coordinator-side arrival counts per barrier id; only mutated by
    /// events on [`BARRIER_COORDINATOR`].
    pub(crate) barrier_counts: Vec<usize>,
    /// Latest meaningful simulated time: advanced by arrivals, dispatches
    /// and real retry re-issues, but *not* by stale retry timers popping
    /// after the workload completed — those must not inflate `elapsed`.
    pub(crate) progress: Cycle,
    /// Recovery tallies (DMA stalls, retries, stale responses) for the
    /// report.
    pub(crate) fsummary: FaultSummary,
    /// The packet buffer of each dispatch's [`Burst`]. Kept between
    /// dispatches, empty, so that a dispatch does not allocate.
    out: Vec<Outgoing>,
    /// The responses a by-pass DMA service produces, kept between
    /// arrivals, empty, for the same reason.
    dma_out: Vec<(Cycle, Packet)>,
}

/// The immutable tables every event handler reads during a run.
pub(crate) struct Shared<'a> {
    pub(crate) cfg: &'a MachineConfig,
    pub(crate) entries: &'a [EntryDef],
    /// Participants per PE for each barrier id.
    pub(crate) barrier_defs: &'a [usize],
}

impl Shared<'_> {
    /// Whether split-phase reads carry sequence numbers and retry timers:
    /// only when network faults can actually lose or duplicate packets and
    /// the retry protocol is switched on.
    fn retry_armed(&self) -> bool {
        self.cfg
            .faults
            .as_ref()
            .is_some_and(|f| f.any_net_faults() && f.retry_enabled())
    }
}

/// The EM-X machine: configuration, processors, network, and event loop.
///
/// See the crate docs for a usage example. A `Machine` simulates one run:
/// populate memories, register entries, spawn initial threads, call
/// [`run`](Machine::run), then inspect memories and the returned
/// [`RunReport`].
pub struct Machine {
    pub(crate) cfg: MachineConfig,
    pub(crate) net: Box<dyn Network>,
    pub(crate) core: Core,
    pub(crate) entries: Vec<EntryDef>,
    /// Participants per PE for each barrier id.
    pub(crate) barrier_defs: Vec<usize>,
    /// Externally attached observability sink ([`Machine::attach_probe`]);
    /// receives every trace event, unbounded.
    pub(crate) probe: Option<Box<dyn Probe + Send>>,
    /// Fault-model invariant checker, fed each event's effects as they
    /// happen, in canonical event order.
    pub(crate) checker: Option<InvariantChecker>,
    pub(crate) ran: bool,
}

/// `Machine` must stay [`Send`]: the sweep engine (`emx-sweep`) builds and
/// runs machines on worker threads. `Network` and `ThreadBody` carry
/// explicit `Send` bounds for the same reason — adding a non-`Send` field
/// (an `Rc`, a raw pointer, a thread-local handle) breaks parallel sweeps,
/// and this guard turns that mistake into a compile error here rather than
/// a trait-bound error three crates away.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Machine>();
};

/// The parts of a machine a run mutates: the network, the processors and
/// the calendar, and the invariant checker.
pub(crate) type Parts = (Box<dyn Network>, Core, Option<InvariantChecker>);

/// Build [`Parts`] from the configuration alone: the network behind the
/// fault layer when the plan injects network faults, and the checker when
/// armed. [`Machine::new`] builds a machine around them, and restore
/// decodes a snapshot into a fresh set.
pub(crate) fn parts(cfg: &MachineConfig) -> Result<Parts, SimError> {
    let mut net = build_network(&cfg.net, cfg.num_pes)?;
    let plan = cfg.faults.as_ref().map(|spec| FaultPlan::new(spec.clone()));
    let checker = cfg
        .faults
        .as_ref()
        .and_then(|spec| spec.check_invariants.then(InvariantChecker::new));
    if let Some(spec) = &cfg.faults {
        if spec.any_net_faults() {
            net = Box::new(FaultyNetwork::new(net, &FaultPlan::new(spec.clone())));
        }
    }
    let pes = (0..cfg.num_pes)
        .map(|i| {
            let frames = match cfg.faults.as_ref().and_then(|s| s.frame_cap_for(i)) {
                Some(cap) => (cap as usize).min(cfg.frames_per_pe),
                None => cfg.frames_per_pe,
            };
            Pe {
                mem: LocalMemory::new(i, cfg.local_memory_words),
                queue: PacketQueue::new(cfg.ibu_fifo_capacity),
                frames: FrameTable::new(i, frames),
                dma: BypassDma::new(PeId(i as u16), cfg.costs.dma_service, cfg.costs.obu_forward),
                busy_until: Cycle::ZERO,
                dispatch_scheduled: false,
                live_threads: 0,
                seq_cells: Vec::new(),
                seq_waiters: Vec::new(),
                barriers: Vec::new(),
                stats: PeStats::default(),
                next_uid: 0,
                spill_rng: plan.as_ref().map(|p| p.spill_rng_for(i)),
                dma_rng: plan.as_ref().map(|p| p.dma_rng_for(i)),
                ev_seq: [0; 3],
            }
        })
        .collect();
    let core = Core {
        pes,
        cal: Calendar::new(),
        barrier_counts: Vec::new(),
        progress: Cycle::ZERO,
        fsummary: FaultSummary::default(),
        out: Vec::new(),
        dma_out: Vec::new(),
    };
    Ok((net, core, checker))
}

impl Machine {
    /// Build a machine from a validated configuration.
    pub fn new(cfg: MachineConfig) -> Result<Self, SimError> {
        cfg.validate()?;
        let (net, core, checker) = parts(&cfg)?;
        Ok(Machine {
            cfg,
            net,
            core,
            entries: Vec::new(),
            barrier_defs: Vec::new(),
            probe: None,
            checker,
            ran: false,
        })
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Register a native thread entry: `factory(pe, arg)` builds the body
    /// when an invocation packet for this entry is dispatched.
    pub fn register_entry(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn(PeId, u32) -> Box<dyn ThreadBody> + Send + 'static,
    ) -> EntryId {
        self.entries.push(EntryDef::Native {
            name: name.into(),
            factory: Box::new(factory),
        });
        EntryId(self.entries.len() as u32 - 1)
    }

    /// Register an ISA template; spawns of this entry run the interpreted
    /// program with `arg` in the `arg` register and `fp` pointing at the
    /// frame's [`FRAME_WORDS`]-word memory region.
    pub fn register_template(&mut self, prog: Program) -> EntryId {
        self.entries.push(EntryDef::Template(prog));
        EntryId(self.entries.len() as u32 - 1)
    }

    /// Attach an observability probe. The probe receives every trace
    /// event (unbounded — the probe owns its retention policy), so the
    /// recorder (`emx-obs`) and the profiler (`emx-profile`) can observe a
    /// run without the machine holding their storage. With no probe attached
    /// every emission site is a single `None` check and no event is built.
    pub fn attach_probe(&mut self, probe: Box<dyn Probe + Send>) {
        self.probe = Some(probe);
    }

    /// Detach and return the attached probe, if any.
    pub fn detach_probe(&mut self) -> Option<Box<dyn Probe + Send>> {
        self.probe.take()
    }

    /// Name of a registered entry (for traces; templates report their
    /// program name).
    pub fn entry_name(&self, entry: EntryId) -> Option<&str> {
        self.entries.get(entry.0 as usize).map(EntryDef::name)
    }

    /// Define a global barrier with `participants_per_pe` threads arriving
    /// on every processor per epoch.
    pub fn define_barrier(&mut self, participants_per_pe: usize) -> BarrierId {
        let id = self.barrier_defs.len() as u32;
        self.barrier_defs.push(participants_per_pe);
        self.core.barrier_counts.push(0);
        for pe in &mut self.core.pes {
            pe.barriers.push(LocalBarrier::default());
        }
        BarrierId(id)
    }

    /// Give every processor `count` sequence cells (initialized to zero) for
    /// [`Action::WaitSeq`]/[`Action::SignalSeq`] ordering.
    pub fn define_seq_cells(&mut self, count: usize) {
        for pe in &mut self.core.pes {
            pe.seq_cells = vec![0; count];
        }
    }

    /// Immutable access to a processor's local memory.
    pub fn mem(&self, pe: PeId) -> Result<&LocalMemory, SimError> {
        self.core
            .pes
            .get(pe.index())
            .map(|p| &p.mem)
            .ok_or(SimError::BadPe { pe: pe.index() })
    }

    /// Mutable access to a processor's local memory (workload setup).
    pub fn mem_mut(&mut self, pe: PeId) -> Result<&mut LocalMemory, SimError> {
        self.core
            .pes
            .get_mut(pe.index())
            .map(|p| &mut p.mem)
            .ok_or(SimError::BadPe { pe: pe.index() })
    }

    /// Enqueue an invocation of `entry` on `pe` at cycle zero (free of
    /// charge: models the program loader, not a runtime spawn).
    pub fn spawn_at_start(&mut self, pe: PeId, entry: EntryId, arg: u32) -> Result<(), SimError> {
        if pe.index() >= self.core.pes.len() {
            return Err(SimError::BadPe { pe: pe.index() });
        }
        if entry.0 as usize >= self.entries.len() {
            return Err(SimError::Workload {
                reason: format!("entry {} not registered", entry.0),
            });
        }
        let pkt = Packet::spawn(pe, GlobalAddr::new(pe, entry.0)?, arg);
        let key = self.core.lane_key(Cycle::ZERO, pe, LANE_LOCAL);
        self.core.cal.push(key, Ev::Arrive(pe, pkt, false))
    }

    /// Run to quiescence under the default fuel limit [`DEFAULT_FUEL`].
    ///
    /// The limit is real: a run that passes it fails with
    /// [`SimError::FuelExhausted`] carrying the offending cycle and the
    /// live-thread count, so livelocks surface as diagnosable structured
    /// errors instead of wall-clock hangs.
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        self.run_until(Cycle::new(DEFAULT_FUEL))
    }

    /// Assemble the run report from the machine state.
    pub(crate) fn report(&self) -> RunReport {
        let net_stats = self.net.stats();
        // The last dispatch event starts before its burst finishes: the true
        // end of the run is the latest EXU activity, not the last event.
        let elapsed = self
            .core
            .pes
            .iter()
            .map(|p| p.busy_until)
            .fold(self.core.progress, Cycle::max);
        RunReport {
            per_pe: self
                .core
                .pes
                .iter()
                .map(|p| {
                    let mut s = p.stats.clone();
                    s.max_queue_depth = p.queue.max_depth;
                    s.ibu_spills = p.queue.spills;
                    s.high_spills = p.queue.high_spills;
                    s.low_spills = p.queue.low_spills;
                    s.forced_spills = p.queue.forced_spills;
                    s.max_high_depth = p.queue.max_high_depth;
                    s.max_low_depth = p.queue.max_low_depth;
                    s
                })
                .collect(),
            elapsed,
            clock_hz: self.cfg.clock_hz,
            net_packets: net_stats.packets,
            net_contention: net_stats.contention_wait,
            faults: self.cfg.faults.as_ref().map(|_| {
                let c = self.net.fault_counters().unwrap_or_default();
                FaultSummary {
                    dropped: c.dropped,
                    duplicated: c.duplicated,
                    delayed: c.delayed,
                    forced_spills: self.core.pes.iter().map(|p| p.queue.forced_spills).sum(),
                    dma_stalls: self.core.fsummary.dma_stalls,
                    retries: self.core.fsummary.retries,
                    stale_responses: self.core.fsummary.stale_responses,
                }
            }),
        }
    }
}

impl Core {
    /// Threads still live (suspended or queued) on the processors.
    pub(crate) fn suspended(&self) -> usize {
        self.pes.iter().map(|p| p.live_threads).sum()
    }

    /// FIFO-within-priority violations observed by the packet queues.
    pub(crate) fn fifo_violations(&self) -> u64 {
        self.pes.iter().map(|p| p.queue.fifo_violations).sum()
    }

    /// Mint the canonical key for the next lane-`lane` event homed on `pe`.
    fn lane_key(&mut self, at: Cycle, pe: PeId, lane: u8) -> EvKey {
        let ctr = &mut self.pes[pe.index()].ev_seq[usize::from(lane)];
        let a = *ctr;
        *ctr += 1;
        EvKey {
            at,
            pe: pe.0,
            lane,
            a,
            b: 0,
        }
    }

    /// Send `pkt` from `src` into the network at OBU depart cycle
    /// `depart`: the `Send` emission, the route call (which narrates the
    /// packet's path and draws its faults), the checker's send
    /// observation, then one arrival event per delivery.
    ///
    /// Every handler routes its packets after its last emission, so an
    /// event's trace is its processing emissions followed by its routes.
    fn route(
        &mut self,
        sh: &Shared<'_>,
        fx: &mut Fx<'_>,
        depart: Cycle,
        src: PeId,
        pkt: Packet,
    ) -> Result<(), SimError> {
        emx_hostprof::bump(emx_hostprof::Sim::ReplayRoutes);
        let dst = pkt.dst();
        if dst.index() >= sh.cfg.num_pes {
            return Err(SimError::BadPe { pe: dst.index() });
        }
        let class = match pkt.kind {
            PacketKind::ReadReq | PacketKind::ReadBlockReq | PacketKind::ReadResp => {
                DeliveryClass::Data
            }
            _ => DeliveryClass::Control,
        };
        // The route's own emissions are not the event's: keep them off
        // `replay.emissions`.
        let emitted = fx.obs.emitted;
        fx.obs
            .record(depart, src, TraceKind::Send { pkt: pkt.kind, dst });
        let deliveries = fx
            .net
            .route_probed(depart, src, dst, class, pkt.kind, fx.obs.as_probe());
        fx.obs.emitted = emitted;
        if let Some(ck) = fx.checker.as_deref_mut() {
            ck.observe_send(src, dst, deliveries.as_slice())
                .map_err(FaultReport::into_error)?;
        }
        for (dup, &arrival) in deliveries.as_slice().iter().enumerate() {
            self.cal.push(
                EvKey::net(arrival, dst, src, depart, dup as u64),
                Ev::Arrive(dst, pkt, true),
            )?;
        }
        Ok(())
    }

    /// Process one popped event, applying its effects to `fx` as they
    /// happen: the checker's event observation first, then the handler's
    /// emissions and routes.
    pub(crate) fn process_event(
        &mut self,
        sh: &Shared<'_>,
        fx: &mut Fx<'_>,
        key: EvKey,
        ev: Ev,
    ) -> Result<(), SimError> {
        let t = key.at;
        if let Some(ck) = fx.checker.as_deref_mut() {
            ck.observe_event(t).map_err(FaultReport::into_error)?;
            if matches!(ev, Ev::Arrive(_, _, true)) {
                ck.observe_arrival();
            }
        }
        match ev {
            Ev::Arrive(pe, pkt, via_net) => {
                self.progress = self.progress.max(t);
                if via_net {
                    fx.obs.record(
                        t,
                        pe,
                        TraceKind::NetDeliver {
                            pkt: pkt.kind,
                            src: pkt.src,
                        },
                    );
                }
                self.on_arrive(sh, fx, t, pe, pkt)
            }
            Ev::Dispatch(pe) => {
                self.progress = self.progress.max(t);
                self.on_dispatch(sh, fx, t, pe)
            }
            Ev::Retry(pe, fid, uid, seq) => self.on_retry(sh, fx, t, pe, fid, uid, seq),
        }
    }

    /// A retry timer fired: if the read it guards is still outstanding,
    /// re-issue the request idempotently and re-arm with exponential
    /// backoff. Timers for completed, superseded, or recycled frames are
    /// ignored without advancing `progress`.
    #[allow(clippy::too_many_arguments)]
    fn on_retry(
        &mut self,
        sh: &Shared<'_>,
        fx: &mut Fx<'_>,
        t: Cycle,
        pe_id: PeId,
        fid: FrameId,
        uid: u64,
        seq: u16,
    ) -> Result<(), SimError> {
        let Some((timeout, backoff_cap, max_attempts)) = sh
            .cfg
            .faults
            .as_ref()
            .map(|f| (f.retry_timeout, f.retry_backoff_cap, f.max_attempts))
        else {
            return Ok(());
        };
        let pe_idx = pe_id.index();
        let (pkt, attempts) = {
            let pe = &mut self.pes[pe_idx];
            let Some(frame) = pe.frames.get_mut(fid) else {
                return Ok(());
            };
            if frame.uid != uid || frame.cur_seq != seq {
                return Ok(());
            }
            if !matches!(frame.wait, Wait::Value { .. } | Wait::Block { .. }) {
                return Ok(());
            }
            let Some(pkt) = frame.pending else {
                return Ok(());
            };
            frame.attempts += 1;
            if max_attempts > 0 && frame.attempts > max_attempts {
                return Err(SimError::RetryExhausted {
                    pe: pe_idx,
                    frame: fid.index(),
                    attempts: frame.attempts - 1,
                });
            }
            pe.stats.packets_sent += 1;
            (pkt, frame.attempts)
        };
        self.progress = self.progress.max(t);
        self.fsummary.retries += 1;
        let depart = self.pes[pe_idx].dma.obu_depart(t);
        self.route(sh, fx, depart, pe_id, pkt)?;
        let shift = attempts.min(16);
        let delay = (u64::from(timeout) << shift).min(u64::from(backoff_cap.max(timeout)));
        let key = self.lane_key(depart + delay, pe_id, LANE_RETRY);
        self.cal.push(key, Ev::Retry(pe_id, fid, uid, seq))
    }

    /// Enqueue `pkt` on `pe`'s packet queue at time `t` and make sure a
    /// dispatch is scheduled.
    fn enqueue(
        &mut self,
        sh: &Shared<'_>,
        fx: &mut Fx<'_>,
        t: Cycle,
        pe_id: PeId,
        pkt: Packet,
    ) -> Result<(), SimError> {
        let spill_ppm = sh.cfg.faults.as_ref().map_or(0, |s| s.spill_ppm);
        let pe = &mut self.pes[pe_id.index()];
        let force_spill = match pe.spill_rng.as_mut() {
            Some(rng) => rng.chance_ppm(spill_ppm),
            None => false,
        };
        pe.queue
            .push_probed(pkt, force_spill, t, pe_id, fx.obs.as_probe());
        if !pe.dispatch_scheduled {
            let at = t.max(pe.busy_until);
            pe.dispatch_scheduled = true;
            let key = self.lane_key(at, pe_id, LANE_DISPATCH);
            self.cal.push(key, Ev::Dispatch(pe_id))?;
        }
        Ok(())
    }

    fn on_arrive(
        &mut self,
        sh: &Shared<'_>,
        fx: &mut Fx<'_>,
        t: Cycle,
        pe_id: PeId,
        pkt: Packet,
    ) -> Result<(), SimError> {
        let bypass = sh.cfg.service_mode == ServiceMode::BypassDma;
        match pkt.kind {
            // Remote accesses are serviced by the IBU/by-pass DMA without
            // touching the EXU — the EM-X's key feature. In the EM-4
            // ablation they fall through to the packet queue instead.
            PacketKind::ReadReq | PacketKind::ReadBlockReq | PacketKind::Write if bypass => {
                let (stall_ppm, stall_cycles) = sh
                    .cfg
                    .faults
                    .as_ref()
                    .map_or((0, 0), |s| (s.dma_stall_ppm, s.dma_stall_cycles));
                let mut responses = std::mem::take(&mut self.dma_out);
                {
                    let pe = &mut self.pes[pe_id.index()];
                    // An injected DMA stall holds the request at the IBU
                    // before the by-pass path services it.
                    let stalled = pe
                        .dma_rng
                        .as_mut()
                        .is_some_and(|rng| rng.chance_ppm(stall_ppm));
                    let t = if stalled {
                        self.fsummary.dma_stalls += 1;
                        t + u64::from(stall_cycles)
                    } else {
                        t
                    };
                    pe.dma.service_probed(
                        t,
                        &pkt,
                        &mut pe.mem,
                        &mut responses,
                        fx.obs.as_probe(),
                    )?;
                }
                for (depart, resp) in responses.drain(..) {
                    self.route(sh, fx, depart, pe_id, resp)?;
                }
                self.dma_out = responses;
                Ok(())
            }
            // Block-read data words are deposited by the *requester's* IBU,
            // also off the EXU; the completion resumes the thread through
            // the queue.
            PacketKind::ReadResp if bypass && pkt.continuation().slot == SLOT_DATA => {
                let cont = pkt.continuation();
                let pe = &mut self.pes[pe_id.index()];
                let waiting = pe.frames.get_mut(cont.frame).and_then(|f| match f.wait {
                    Wait::Block { len, .. } => Some((f, len)),
                    _ => None,
                });
                let Some((frame, len)) = waiting else {
                    return self.enqueue(sh, fx, t, pe_id, prioritize(sh.cfg, pkt));
                };
                let Some(complete) = frame.deposit(&mut pe.mem, &pkt, sh.retry_armed())? else {
                    self.fsummary.stale_responses += 1;
                    return Ok(());
                };
                let done = pe.dma.ibu_deposit(t);
                if complete {
                    // `cur_seq` is 0 unless the retry protocol is armed.
                    let resume =
                        Packet::read_resp(pe_id, cont, u32::from(len)).with_seq(frame.cur_seq);
                    self.enqueue(sh, fx, done, pe_id, resume)?;
                }
                Ok(())
            }
            _ => self.enqueue(sh, fx, t, pe_id, prioritize(sh.cfg, pkt)),
        }
    }
}

/// Apply the optional scheduler policy: read responses jump to the
/// high-priority IBU FIFO so suspended threads resume before new
/// invocations.
fn prioritize(cfg: &MachineConfig, pkt: Packet) -> Packet {
    if cfg.priority_read_responses
        && pkt.kind == PacketKind::ReadResp
        && pkt.continuation().slot == SLOT_DATA
    {
        pkt.with_priority(Priority::High)
    } else {
        pkt
    }
}

impl Core {
    /// Pop the next packet on `pe_id`'s queue and act on it in one
    /// [`Burst`]: spawn or wake a thread, handle a barrier packet, or
    /// (EM-4) service a remote access; then commit the burst's charges and
    /// route what it produced.
    fn on_dispatch(
        &mut self,
        sh: &Shared<'_>,
        fx: &mut Fx<'_>,
        t: Cycle,
        pe_id: PeId,
    ) -> Result<(), SimError> {
        let pe_idx = pe_id.index();
        let costs = sh.cfg.costs;
        let pe = &mut self.pes[pe_idx];
        pe.dispatch_scheduled = false;
        let start = t.max(pe.busy_until);
        let Some((pkt, spilled)) = pe.queue.pop_probed(start, pe_id, fx.obs.as_probe()) else {
            return Ok(());
        };
        // EXU idle between the last burst and this dispatch: if this
        // processor still had live (suspended) threads, the gap is time
        // lost to communication/synchronization — the Figure 6 quantity.
        let gap = start - pe.busy_until;
        if pe.live_threads > 0 && gap.get() > 0 {
            pe.stats.breakdown.comm += gap;
        }
        pe.stats.dispatches += 1;
        fx.obs
            .record(start, pe_id, TraceKind::Dispatch { pkt: pkt.kind });

        let mut b = Burst {
            now: start,
            spent: Breakdown::default(),
            out: std::mem::take(&mut self.out),
        };
        if spilled {
            // Restoring a packet from the on-memory overflow buffer costs
            // extra IBU/memory cycles, charged to switching.
            b.charge(Class::Switch, costs.ibu_spill);
        }
        match pkt.kind {
            PacketKind::Spawn => {
                let entry = pkt.global_addr().offset;
                let fid = self.spawn(sh, pe_idx, entry, pkt.data)?;
                self.switch_in(sh, &mut fx.obs, pe_idx, fid, Some(entry), &mut b)?;
            }
            PacketKind::ReadResp => {
                if self.wake(sh, pe_idx, &pkt, &mut b)? {
                    let fid = pkt.continuation().frame;
                    self.switch_in(sh, &mut fx.obs, pe_idx, fid, None, &mut b)?;
                }
            }
            PacketKind::SyncArrive => {
                debug_assert_eq!(pe_id, BARRIER_COORDINATOR);
                let id = pkt.global_addr().offset;
                b.charge(Class::Switch, 2u64);
                let count = self
                    .barrier_counts
                    .get_mut(id as usize)
                    .ok_or(SimError::BadBarrier { pe: pe_idx, id })?;
                *count += 1;
                if *count == sh.cfg.num_pes {
                    *count = 0;
                    // Release broadcast: one send instruction per processor.
                    let pe = &mut self.pes[pe_idx];
                    for j in 0..sh.cfg.num_pes {
                        b.charge(Class::Switch, costs.send_packet);
                        let to = GlobalAddr::new(PeId(j as u16), id)?;
                        b.send(pe, Packet::sync(PacketKind::SyncRelease, pe_id, to, 0));
                    }
                }
            }
            PacketKind::SyncRelease => {
                let id = pkt.global_addr().offset;
                b.charge(Class::Switch, 2u64);
                self.pes[pe_idx]
                    .barriers
                    .get_mut(id as usize)
                    .ok_or(SimError::BadBarrier { pe: pe_idx, id })?
                    .releases += 1;
            }
            // EM-4 ablation: remote accesses consume EXU cycles as
            // one-instruction threads.
            PacketKind::ReadReq | PacketKind::ReadBlockReq | PacketKind::Write => {
                debug_assert_eq!(sh.cfg.service_mode, ServiceMode::ExuThread);
                self.exu_service(sh, pe_idx, &pkt, &mut b)?;
            }
        }

        // Commit charges and schedule follow-ups.
        let pe = &mut self.pes[pe_idx];
        pe.busy_until = b.now;
        pe.stats.breakdown += b.spent;
        // The burst's occupied span is exactly [start, now]: `now` is the
        // value committed to busy_until above, so the profiler can
        // reconstruct per-PE occupancy without the cost model.
        fx.obs.record(b.now, pe_id, TraceKind::DispatchEnd);
        for o in b.out.drain(..) {
            match o {
                Outgoing::Net { depart, pkt } => self.route(sh, fx, depart, pe_id, pkt)?,
                Outgoing::LocalAt { at, pkt } => {
                    let key = self.lane_key(at, pe_id, LANE_LOCAL);
                    self.cal.push(key, Ev::Arrive(pe_id, pkt, false))?
                }
                Outgoing::RetryAt { at, fid, uid, seq } => {
                    let key = self.lane_key(at, pe_id, LANE_RETRY);
                    self.cal.push(key, Ev::Retry(pe_id, fid, uid, seq))?
                }
            }
        }
        self.out = b.out;
        let pe = &mut self.pes[pe_idx];
        if !pe.queue.is_empty() && !pe.dispatch_scheduled {
            pe.dispatch_scheduled = true;
            let key = self.lane_key(b.now, pe_id, LANE_DISPATCH);
            self.cal.push(key, Ev::Dispatch(pe_id))?;
        }
        Ok(())
    }

    /// Allocate a frame on `pe_idx` for a new thread of `entry` with
    /// argument `arg`.
    fn spawn(
        &mut self,
        sh: &Shared<'_>,
        pe_idx: usize,
        entry: u32,
        arg: u32,
    ) -> Result<FrameId, SimError> {
        let pe_id = PeId(pe_idx as u16);
        let thread = match sh.entries.get(entry as usize) {
            Some(EntryDef::Native { factory, .. }) => ThreadKind::Native {
                body: factory(pe_id, arg),
                entry,
            },
            Some(EntryDef::Template(_)) => ThreadKind::Isa {
                state: ThreadState::at_entry(pe_id.0, sh.cfg.num_pes as u32, 0, arg),
                template: entry,
            },
            None => {
                return Err(SimError::Workload {
                    reason: format!("spawn of unregistered entry {entry}"),
                })
            }
        };
        let pe = &mut self.pes[pe_idx];
        pe.live_threads += 1;
        pe.next_uid += 1;
        let fid = pe.frames.alloc(Frame {
            thread,
            arg,
            uid: pe.next_uid,
            ..Frame::default()
        })?;
        // ISA threads address their operand segment through fp.
        if let Some(Frame {
            thread: ThreadKind::Isa { state, .. },
            ..
        }) = pe.frames.get_mut(fid)
        {
            state.set(Reg::FP, fid.index() as u32 * FRAME_WORDS);
        }
        Ok(fid)
    }

    /// Switch thread `fid` in: the context switch, then `thread-spawn` (a
    /// new thread of `spawned`) or `thread-resume`, then its burst.
    fn switch_in(
        &mut self,
        sh: &Shared<'_>,
        obs: &mut Obs<'_>,
        pe_idx: usize,
        fid: FrameId,
        spawned: Option<u32>,
        b: &mut Burst,
    ) -> Result<(), SimError> {
        b.charge(Class::Switch, sh.cfg.costs.context_switch);
        let kind = match spawned {
            Some(entry) => TraceKind::ThreadSpawn { frame: fid, entry },
            None => TraceKind::ThreadResume { frame: fid },
        };
        obs.record(b.now, PeId(pe_idx as u16), kind);
        self.run_burst(sh, obs, pe_idx, fid, b)
    }

    /// A wake-up packet for a suspended thread reached the EXU: returns
    /// whether the thread resumes. Its continuation slot decides; a thread
    /// that keeps waiting (a failed barrier poll, a spurious sequence wake,
    /// an EM-4 block still missing words) has its cycles charged here.
    ///
    /// With the retry protocol armed, a data response whose sequence
    /// number does not match the frame's current read — or that lands on
    /// a dead, recycled, or already-resumed frame — is a late duplicate of
    /// a retried request and is discarded silently.
    fn wake(
        &mut self,
        sh: &Shared<'_>,
        pe_idx: usize,
        pkt: &Packet,
        b: &mut Burst,
    ) -> Result<bool, SimError> {
        let costs = sh.cfg.costs;
        let retry_armed = sh.retry_armed();
        let cont = pkt.continuation();
        let fid = cont.frame;
        let pe = &mut self.pes[pe_idx];
        let Some(frame) = pe.frames.get_mut(fid) else {
            if retry_armed && cont.slot == SLOT_DATA {
                return Ok(self.stale());
            }
            return Err(SimError::Workload {
                reason: format!("wake-up for dead frame {fid} on {}", PeId(pe_idx as u16)),
            });
        };
        match cont.slot {
            SLOT_DATA => {
                if retry_armed && pkt.seq != frame.cur_seq {
                    return Ok(self.stale());
                }
                match frame.wait {
                    Wait::Value { isa_dst } => {
                        frame.inbox = Some(pkt.data);
                        if let (Some(reg), ThreadKind::Isa { state, .. }) =
                            (isa_dst, &mut frame.thread)
                        {
                            state.set(reg, pkt.data);
                        }
                    }
                    // A by-pass block read's completion.
                    Wait::Block { len, received, .. } if received == len => {
                        frame.inbox = Some(u32::from(len));
                    }
                    // In EM-4 mode incoming block-read words are not
                    // intercepted by the IBU; the EXU deposits each one
                    // (consuming cycles) and the thread resumes only after
                    // the last.
                    Wait::Block { len, .. } => {
                        debug_assert_eq!(
                            sh.cfg.service_mode,
                            ServiceMode::ExuThread,
                            "partial block deposits reach the EXU only in EM-4 mode"
                        );
                        let Some(complete) = frame.deposit(&mut pe.mem, pkt, retry_armed)? else {
                            return Ok(self.stale());
                        };
                        b.charge(Class::Overhead, costs.dma_service);
                        if !complete {
                            return Ok(false);
                        }
                        frame.inbox = Some(u32::from(len));
                    }
                    _ if retry_armed => return Ok(self.stale()),
                    other => {
                        return Err(SimError::Workload {
                            reason: format!("data response for frame {fid} in state {other:?}"),
                        })
                    }
                }
                frame.pending = None;
            }
            SLOT_POLL => {
                let Wait::Barrier { id, target } = frame.wait else {
                    return Err(SimError::Workload {
                        reason: format!("poll for non-waiting frame {fid}"),
                    });
                };
                if pe.barriers[id as usize].releases < target {
                    // Unsuccessful check: the iteration-sync switch of
                    // Figure 9. Its cycles are synchronization waiting, so
                    // they count as communication time. Re-poll after the
                    // configured interval.
                    b.charge(Class::Comm, 2u64);
                    pe.stats.switches.iter_sync += 1;
                    let at = next_poll(pe_idx, fid, b.now, costs.barrier_poll_interval);
                    b.local(at, *pkt);
                    return Ok(false);
                }
            }
            SLOT_SEQ => {
                let Wait::Seq { cell, threshold } = frame.wait else {
                    return Err(SimError::Workload {
                        reason: format!("seq wake for non-waiting frame {fid}"),
                    });
                };
                if pe.seq_cells[cell as usize] < threshold {
                    // Spurious wake (signal raced a higher threshold):
                    // re-register and count the thread-sync switch.
                    b.charge(Class::Switch, 2u64);
                    pe.stats.switches.thread_sync += 1;
                    pe.seq_waiters.push((fid, cell, threshold));
                    return Ok(false);
                }
            }
            SLOT_YIELD => {}
            other => {
                return Err(SimError::Workload {
                    reason: format!("unknown continuation slot {}", other.0),
                })
            }
        }
        frame.wait = Wait::Ready;
        Ok(true)
    }

    /// Count a discarded stale response; its thread does not resume.
    fn stale(&mut self) -> bool {
        self.fsummary.stale_responses += 1;
        false
    }

    /// EM-4-mode servicing of a remote access on the EXU. A single-word
    /// read is the one-word case of a block read.
    fn exu_service(
        &mut self,
        sh: &Shared<'_>,
        pe_idx: usize,
        pkt: &Packet,
        b: &mut Burst,
    ) -> Result<(), SimError> {
        let dma_service = sh.cfg.costs.dma_service;
        let pe = &mut self.pes[pe_idx];
        let ga = pkt.global_addr();
        if pkt.kind == PacketKind::Write {
            b.charge(Class::Overhead, dma_service);
            return pe.mem.write(ga.offset, pkt.data);
        }
        for i in 0..pkt.words() {
            b.charge(Class::Overhead, dma_service);
            let value = pe.mem.read(ga.offset + u32::from(i))?;
            let resp = Packet::read_resp(PeId(pe_idx as u16), pkt.continuation(), value)
                .with_seq(pkt.seq)
                .with_idx(i);
            b.send(pe, resp);
        }
        Ok(())
    }

    /// Run thread `fid` on the EXU: step it, applying each non-suspending
    /// action inline, until it retires or suspends, then switch it out.
    fn run_burst(
        &mut self,
        sh: &Shared<'_>,
        obs: &mut Obs<'_>,
        pe_idx: usize,
        fid: FrameId,
        b: &mut Burst,
    ) -> Result<(), SimError> {
        let costs = sh.cfg.costs;
        let npes = sh.cfg.num_pes as u32;
        let pe_id = PeId(pe_idx as u16);
        // Base retry timeout, when the protocol is armed for this run.
        let retry_timeout = if sh.retry_armed() {
            sh.cfg.faults.as_ref().map(|f| f.retry_timeout)
        } else {
            None
        };
        let pe = &mut self.pes[pe_idx];

        // Each suspending action sets up what its wake-up needs and names
        // the wait it leaves and its cause; `None` retires the thread.
        let suspend = loop {
            let Pe {
                mem,
                frames,
                seq_cells,
                ..
            } = pe;
            let frame = frames.get_mut(fid).ok_or_else(|| SimError::Workload {
                reason: format!("burst on dead frame {fid}"),
            })?;
            // Produce the next action, either from the native body or by
            // interpreting ISA instructions up to the next effect.
            let (action, isa_dst): (Action, Option<Reg>) = match &mut frame.thread {
                ThreadKind::Native { body, .. } => {
                    let mut ctx = ThreadCtx {
                        pe: pe_id,
                        npes,
                        now: b.now,
                        value: frame.inbox.take(),
                        arg: frame.arg,
                        mem,
                        seq: seq_cells,
                    };
                    (body.step(&mut ctx), None)
                }
                ThreadKind::Isa { state, template } => {
                    let EntryDef::Template(prog) = &sh.entries[*template as usize] else {
                        unreachable!("template id points at native");
                    };
                    frame.inbox = None;
                    loop {
                        let outcome = emx_isa::step(prog, state, mem, &costs)?;
                        let (class, effect) = match outcome.effect {
                            Effect::None => (Class::Compute, None),
                            Effect::RemoteWrite { gaddr, value } => {
                                let addr = GlobalAddr::unpack(gaddr);
                                (Class::Overhead, Some((Action::Write { addr, value }, None)))
                            }
                            Effect::Spawn { entry, arg } => {
                                let ga = GlobalAddr::unpack(entry);
                                let (pe, entry) = (ga.pe, EntryId(ga.offset));
                                (
                                    Class::Overhead,
                                    Some((Action::Spawn { pe, entry, arg }, None)),
                                )
                            }
                            Effect::RemoteRead { gaddr, dst } => {
                                let addr = GlobalAddr::unpack(gaddr);
                                (Class::Overhead, Some((Action::Read { addr }, Some(dst))))
                            }
                            Effect::RemoteReadBlock { gaddr, local, len } => {
                                let read = Action::ReadBlock {
                                    addr: GlobalAddr::unpack(gaddr),
                                    len,
                                    local_dst: local,
                                };
                                (Class::Overhead, Some((read, None)))
                            }
                            Effect::Yield => (Class::Switch, Some((Action::Yield, None))),
                            Effect::End => (Class::Compute, Some((Action::End, None))),
                        };
                        b.charge(class, outcome.cost);
                        if let Some(effect) = effect {
                            break effect;
                        }
                    }
                }
            };
            // A native thread's send instruction is charged here; the
            // interpreter has already charged an ISA thread's.
            let sends = matches!(
                action,
                Action::Write { .. }
                    | Action::Spawn { .. }
                    | Action::Read { .. }
                    | Action::ReadBlock { .. }
            );
            if sends && matches!(frame.thread, ThreadKind::Native { .. }) {
                b.charge(Class::Overhead, costs.send_packet);
            }

            match action {
                Action::Work { cycles, kind } => {
                    let class = match kind {
                        WorkKind::Compute => Class::Compute,
                        WorkKind::Overhead => Class::Overhead,
                    };
                    b.charge(class, cycles);
                }
                Action::Write { addr, value } => {
                    b.send(pe, Packet::write(pe_id, addr, value));
                }
                Action::Spawn {
                    pe: target,
                    entry,
                    arg,
                } => {
                    let at = GlobalAddr::new(target, entry.0)?;
                    b.send(pe, Packet::spawn(pe_id, at, arg));
                }
                Action::SignalSeq { cell } => {
                    b.charge(Class::Compute, 1u64);
                    let Some(count) = pe.seq_cells.get_mut(cell as usize) else {
                        return Err(SimError::Workload {
                            reason: format!("signal of undefined seq cell {cell}"),
                        });
                    };
                    *count += 1;
                    let value = *count;
                    let mut i = 0;
                    while i < pe.seq_waiters.len() {
                        let (wfid, wcell, wthr) = pe.seq_waiters[i];
                        if wcell == cell && value >= wthr {
                            pe.seq_waiters.swap_remove(i);
                            let cont = Continuation::new(pe_id, wfid, SLOT_SEQ)?;
                            b.local(b.now + 1, Packet::read_resp(pe_id, cont, 0));
                        } else {
                            i += 1;
                        }
                    }
                }
                Action::Read { addr } => {
                    let cont = Continuation::new(pe_id, fid, SLOT_DATA)?;
                    pe.issue_read(b, fid, Packet::read_req(pe_id, addr, cont), retry_timeout)?;
                    break Some((Wait::Value { isa_dst }, SuspendCause::RemoteRead));
                }
                Action::ReadBlock {
                    addr,
                    len,
                    local_dst,
                } => {
                    let cont = Continuation::new(pe_id, fid, SLOT_DATA)?;
                    let req = Packet::read_block_req(pe_id, addr, cont, len)?;
                    pe.issue_read(b, fid, req, retry_timeout)?;
                    let wait = Wait::Block {
                        local_dst,
                        len,
                        received: 0,
                    };
                    break Some((wait, SuspendCause::BlockRead));
                }
                Action::Barrier { id } => {
                    let bid = id.0 as usize;
                    let Some(&participants) = sh.barrier_defs.get(bid) else {
                        return Err(SimError::Workload {
                            reason: format!("arrival at undefined barrier {}", id.0),
                        });
                    };
                    let lb = &mut pe.barriers[bid];
                    lb.arrived += 1;
                    let target = lb.releases + 1;
                    if lb.arrived == participants {
                        lb.arrived = 0;
                        // Last local thread notifies the coordinator.
                        b.charge(Class::Switch, costs.send_packet);
                        let to = GlobalAddr::new(BARRIER_COORDINATOR, id.0)?;
                        let data = u32::from(pe_id.0);
                        b.send(pe, Packet::sync(PacketKind::SyncArrive, pe_id, to, data));
                    }
                    // First check counts as an iteration-sync switch, then
                    // the thread polls on the configured interval.
                    pe.stats.switches.iter_sync += 1;
                    let cont = Continuation::new(pe_id, fid, SLOT_POLL)?;
                    let at = next_poll(pe_idx, fid, b.now, costs.barrier_poll_interval);
                    b.local(at, Packet::read_resp(pe_id, cont, 0));
                    break Some((Wait::Barrier { id: id.0, target }, SuspendCause::Barrier));
                }
                Action::WaitSeq { cell, threshold } => {
                    let Some(&count) = pe.seq_cells.get(cell as usize) else {
                        return Err(SimError::Workload {
                            reason: format!("wait on undefined seq cell {cell}"),
                        });
                    };
                    if count >= threshold {
                        // Already satisfied: continue without switching —
                        // this is the fast path a well-ordered merge takes.
                        continue;
                    }
                    pe.seq_waiters.push((fid, cell, threshold));
                    pe.stats.switches.thread_sync += 1;
                    break Some((Wait::Seq { cell, threshold }, SuspendCause::ThreadSync));
                }
                Action::Yield => {
                    let cont = Continuation::new(pe_id, fid, SLOT_YIELD)?;
                    b.local(b.now + 1, Packet::read_resp(pe_id, cont, 0));
                    break Some((Wait::Yielded, SuspendCause::Yield));
                }
                Action::End => break None,
            }
        };

        // Switch out.
        b.charge(Class::Switch, costs.context_switch);
        let kind = match suspend {
            Some((wait, cause)) => {
                pe.frames
                    .get_mut(fid)
                    .ok_or(SimError::FrameOutOfRange { frame: fid.index() })?
                    .wait = wait;
                TraceKind::ThreadSuspend { frame: fid, cause }
            }
            None => {
                pe.live_threads -= 1;
                pe.frames.free(fid);
                TraceKind::ThreadRetire { frame: fid }
            }
        };
        obs.record(b.now, pe_id, kind);
        Ok(())
    }
}

impl Pe {
    /// Send split-phase read request `req` for frame `fid`: the census,
    /// then, with the retry protocol armed (`retry_timeout`), the request's
    /// sequence number, its copy for re-issue and its retry timer.
    fn issue_read(
        &mut self,
        b: &mut Burst,
        fid: FrameId,
        mut req: Packet,
        retry_timeout: Option<u32>,
    ) -> Result<(), SimError> {
        let depart = self.dma.obu_depart(b.now);
        self.stats.packets_sent += 1;
        self.stats.reads_issued += u64::from(req.words());
        self.stats.switches.remote_read += 1;
        if let Some(timeout) = retry_timeout {
            let frame = self
                .frames
                .get_mut(fid)
                .ok_or(SimError::FrameOutOfRange { frame: fid.index() })?;
            frame.cur_seq = read_seq(&self.stats);
            frame.attempts = 0;
            if req.kind == PacketKind::ReadBlockReq {
                frame.seen.clear();
            }
            req = req.with_seq(frame.cur_seq);
            frame.pending = Some(req);
            b.out.push(Outgoing::RetryAt {
                at: depart + u64::from(timeout),
                fid,
                uid: frame.uid,
                seq: frame.cur_seq,
            });
        }
        b.out.push(Outgoing::Net { depart, pkt: req });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// With the retry protocol each block word lands at its own index, so
    /// word 2 of a block at `u32::MAX - 1` lies past the last offset: a
    /// memory fault, not a write that wraps to word 0.
    #[test]
    fn a_block_word_past_the_last_offset_faults() {
        let mut mem = LocalMemory::new(3, 64);
        let mut frame = Frame {
            wait: Wait::Block {
                local_dst: u32::MAX - 1,
                len: 4,
                received: 0,
            },
            ..Frame::default()
        };
        let cont = Continuation::new(PeId(3), FrameId(0), SlotId(0)).unwrap();
        let word = Packet::read_resp(PeId(0), cont, 0xBAD).with_idx(2);
        let fault = SimError::MemoryFault {
            pe: 3,
            offset: u32::MAX,
            size: 64,
        };
        assert_eq!(frame.deposit(&mut mem, &word, true), Err(fault));
        assert_eq!(mem.read(0), Ok(0));
    }
}
