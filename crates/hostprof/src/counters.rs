//! Global host counters: an enable gate, relaxed atomic counter banks for
//! the three counter classes, and inline bump helpers cheap enough to sit
//! on the calendar/queue/DMA hot paths.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Deterministic simulation-work counters (the digested `counters`
/// section). Byte-identical across runs and `--jobs` values for
/// error-free runs: the event loop pops every event in canonical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Sim {
    /// Semantic calendar insertions (`Calendar::push`), counted once per
    /// event — snapshot-restore re-insertions are excluded.
    CalPushes,
    /// Calendar pops.
    CalPops,
    /// Events processed on the dispatch lane (lane 0).
    EvDispatch,
    /// Events processed on the local-advance lane (lane 1).
    EvLocal,
    /// Events processed on the retry lane (lane 2).
    EvRetry,
    /// Events processed on the network-arrival lane (lane 3).
    EvNet,
    /// Packet-queue enqueues, including spill re-admissions.
    QueuePushes,
    /// Packet-queue dequeues.
    QueuePops,
    /// Packet-queue overflow spills to simulated off-chip memory.
    QueueSpills,
    /// Inbound DMA (IBU) packet deposits.
    DmaDeposits,
    /// DMA service steps (IBU drain into the dispatch path).
    DmaServices,
    /// Outbound DMA (OBU) packet departures onto the network.
    DmaDeparts,
    /// Trace emissions made by event processing while a trace or probe
    /// is attached (a route's own `Send` and network narration excluded).
    ReplayEmissions,
    /// Network route calls (packets entering the network).
    ReplayRoutes,
}

/// Host-configuration counters (the `host` section): deterministic for a
/// fixed cache configuration. Digest-excluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Host {
    /// Window rounds of a parallel event driver. The event loop runs on
    /// one calendar, so this reads 0 (the benchmark's
    /// `runtime.parallel_windows`).
    DriverWindows,
    /// Sweep points executed or served from cache.
    SweepPoints,
    /// Sweep points served from the content-addressed run cache.
    SweepCacheHits,
    /// Sweep points actually simulated (cache miss or cache disabled).
    SweepSimulated,
}

/// Wall-clock annotations (the `wall` section): nanosecond section timers
/// plus the counting-allocator totals. Digest-excluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Wall {
    /// Nanoseconds sweep workers spent executing points (incl. cache IO).
    SweepExecNs,
    /// Nanoseconds spent appending to / flushing the write-ahead journal.
    SweepJournalNs,
    /// Heap allocations observed by [`crate::CountingAlloc`] (0 unless
    /// the binary opted in).
    AllocAllocs,
    /// Bytes allocated through [`crate::CountingAlloc`].
    AllocBytes,
}

/// Canonical names for the [`Sim`] counters, in enum order.
pub const SIM_NAMES: [&str; 14] = [
    "calendar.pushes",
    "calendar.pops",
    "events.dispatch",
    "events.local",
    "events.retry",
    "events.net",
    "queue.pushes",
    "queue.pops",
    "queue.spills",
    "dma.deposits",
    "dma.services",
    "dma.departs",
    "replay.emissions",
    "replay.routes",
];

/// Canonical names for the [`Host`] counters, in enum order.
pub const HOST_NAMES: [&str; 4] = [
    "driver.windows",
    "sweep.points",
    "sweep.cache_hits",
    "sweep.simulated",
];

/// Canonical names for the [`Wall`] counters, in enum order.
pub const WALL_NAMES: [&str; 4] = [
    "sweep.exec_ns",
    "sweep.journal_ns",
    "alloc.allocs",
    "alloc.bytes",
];

static ENABLED: AtomicBool = AtomicBool::new(false);
static SIM: [AtomicU64; SIM_NAMES.len()] = [const { AtomicU64::new(0) }; SIM_NAMES.len()];
static HOST: [AtomicU64; HOST_NAMES.len()] = [const { AtomicU64::new(0) }; HOST_NAMES.len()];
// Wall bank excludes the two allocator slots, which live in always-on
// statics owned by `alloc.rs` and are spliced in at snapshot time.
static WALL: [AtomicU64; 2] = [const { AtomicU64::new(0) }; 2];

/// Is host profiling currently collecting? A single relaxed load — this
/// is the entire cost of every hook when profiling is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn collection on or off. Counters keep their values; call
/// [`reset`] to zero them (allocator totals are process-lifetime and are
/// baselined by [`snapshot`] instead).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Zero every gated counter bank and re-baseline the allocator totals.
pub fn reset() {
    for c in &SIM {
        c.store(0, Ordering::Relaxed);
    }
    for c in &HOST {
        c.store(0, Ordering::Relaxed);
    }
    for c in &WALL {
        c.store(0, Ordering::Relaxed);
    }
    crate::alloc::rebaseline();
}

/// Add 1 to a [`Sim`] counter (no-op while disabled).
#[inline]
pub fn bump(c: Sim) {
    if enabled() {
        SIM[c as usize].fetch_add(1, Ordering::Relaxed);
    }
}

/// Add `n` to a [`Sim`] counter (no-op while disabled).
#[inline]
pub fn add(c: Sim, n: u64) {
    if enabled() && n != 0 {
        SIM[c as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Add `n` to a [`Host`] counter (no-op while disabled).
#[inline]
pub fn add_host(c: Host, n: u64) {
    if enabled() && n != 0 {
        HOST[c as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Add `n` nanoseconds (or allocator units) to a [`Wall`] timer. The
/// allocator slots are snapshot-only and ignore this call.
#[inline]
pub fn add_wall(c: Wall, n: u64) {
    let i = c as usize;
    if enabled() && n != 0 && i < WALL.len() {
        WALL[i].fetch_add(n, Ordering::Relaxed);
    }
}

/// Classify a popped event by its calendar lane (0..=3) into the four
/// per-lane [`Sim`] event counters, and count the pop itself.
#[inline]
pub fn count_lane(lane: u8) {
    if !enabled() {
        return;
    }
    SIM[Sim::CalPops as usize].fetch_add(1, Ordering::Relaxed);
    let c = match lane {
        0 => Sim::EvDispatch,
        1 => Sim::EvLocal,
        2 => Sim::EvRetry,
        _ => Sim::EvNet,
    };
    SIM[c as usize].fetch_add(1, Ordering::Relaxed);
}

/// Start a wall-clock section: `Some(Instant)` while enabled, `None`
/// otherwise, so disabled runs never touch the OS clock.
#[inline]
pub fn now() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Close a wall-clock section opened with [`now`], attributing the
/// elapsed nanoseconds to `c`.
#[inline]
pub fn wall_since(c: Wall, start: Option<Instant>) {
    if let Some(t) = start {
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        add_wall(c, ns);
    }
}

/// A point-in-time copy of every counter bank, in canonical enum order.
/// The allocator totals are read relative to the last [`reset`] baseline
/// and appear in the final two [`Wall`] slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// [`Sim`] counter values, indexed like [`SIM_NAMES`].
    pub sim: [u64; SIM_NAMES.len()],
    /// [`Host`] counter values, indexed like [`HOST_NAMES`].
    pub host: [u64; HOST_NAMES.len()],
    /// [`Wall`] values, indexed like [`WALL_NAMES`].
    pub wall: [u64; WALL_NAMES.len()],
}

/// Read every counter bank. Relaxed reads: exact once the instrumented
/// work has quiesced (workers joined), which is when callers snapshot.
pub fn snapshot() -> Snapshot {
    let mut sim = [0u64; SIM_NAMES.len()];
    for (v, c) in sim.iter_mut().zip(SIM.iter()) {
        *v = c.load(Ordering::Relaxed);
    }
    let mut host = [0u64; HOST_NAMES.len()];
    for (v, c) in host.iter_mut().zip(HOST.iter()) {
        *v = c.load(Ordering::Relaxed);
    }
    let mut wall = [0u64; WALL_NAMES.len()];
    for (v, c) in wall.iter_mut().zip(WALL.iter()) {
        *v = c.load(Ordering::Relaxed);
    }
    let (allocs, bytes) = crate::alloc::alloc_totals();
    wall[Wall::AllocAllocs as usize] = allocs;
    wall[Wall::AllocBytes as usize] = bytes;
    Snapshot { sim, host, wall }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Counters are process-global; serialize tests that toggle the gate.
    pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_hooks_are_inert() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        reset();
        bump(Sim::CalPushes);
        add(Sim::QueuePushes, 7);
        add_host(Host::DriverWindows, 1);
        add_wall(Wall::SweepExecNs, 99);
        count_lane(2);
        assert!(now().is_none());
        let s = snapshot();
        assert_eq!(s.sim, [0; SIM_NAMES.len()]);
        assert_eq!(s.host, [0; HOST_NAMES.len()]);
        assert_eq!(&s.wall[..2], &[0; 2]);
    }

    #[test]
    fn lane_classification() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        count_lane(0);
        count_lane(1);
        count_lane(1);
        count_lane(2);
        count_lane(3);
        let s = snapshot();
        set_enabled(false);
        assert_eq!(s.sim[Sim::CalPops as usize], 5);
        assert_eq!(s.sim[Sim::EvDispatch as usize], 1);
        assert_eq!(s.sim[Sim::EvLocal as usize], 2);
        assert_eq!(s.sim[Sim::EvRetry as usize], 1);
        assert_eq!(s.sim[Sim::EvNet as usize], 1);
    }
}
