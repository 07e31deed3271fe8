//! Breadth-first search over a distributed random graph.
//!
//! Vertices are blocked across processors; each processor stores the
//! distance slab and the *predecessor lists* of its own vertices (the
//! edge u→v lives with v). The traversal is pull-based and
//! level-synchronous: at level `l` every undiscovered vertex reads the
//! distances of its predecessors — fine-grain single-word remote reads
//! to whichever processor owns each predecessor — and adopts `l + 1` the
//! moment one of them is on the current frontier.
//!
//! This is the classic irregular workload: data-dependent remote reads
//! with no spatial locality, a tiny compute-to-communication ratio, and a
//! global convergence test every level (a changed-flag reduction done
//! with remote reads). Latency tolerance via multithreading is the whole
//! game here, which is exactly what the EM-X was built to show.
//!
//! Each level costs three barrier epochs: reset the per-PE changed flag,
//! scan, then collect the flags into a global continue/stop decision.
//! Races are benign by construction — scan-phase distance writes are
//! `l + 1`, which can never equal the `l` the readers are matching.

use emx_core::{GlobalAddr, MachineConfig, PeId, SimError};
use emx_runtime::{Action, BarrierId, Machine, ThreadBody, ThreadCtx, WorkKind};
use emx_stats::RunReport;

use crate::gen::indices;

/// Distance value for vertices the traversal never reached.
pub const UNREACHED: u32 = u32::MAX;

/// Word offsets of the per-processor memory layout.
mod layout {
    /// Distance slab: one word per local vertex.
    pub const DIST: u32 = 64;

    /// Per-PE "a vertex was discovered this level" flag.
    pub fn changed(per_pe: usize) -> u32 {
        DIST + per_pe as u32
    }

    /// Global continue flag; only PE 0's copy is meaningful.
    pub fn gflag(per_pe: usize) -> u32 {
        changed(per_pe) + 1
    }

    /// Predecessor lists of the local vertices, `degree` words each.
    pub fn preds(per_pe: usize) -> u32 {
        gflag(per_pe) + 1
    }

    /// Words of memory the layout needs.
    pub fn words_needed(per_pe: usize, degree: usize) -> usize {
        preds(per_pe) as usize + per_pe * degree
    }
}

/// Parameters of a BFS run.
#[derive(Debug, Clone)]
pub struct BfsParams {
    /// Total vertices (must be divisible by the processor count).
    pub n: usize,
    /// Threads per processor, h (1..=vertices per processor); each
    /// thread scans a band of local vertices.
    pub threads: usize,
    /// Predecessors per vertex, drawn uniformly over all vertices.
    pub degree: usize,
    /// PRNG seed for the edge lists.
    pub seed: u64,
    /// Cycles of address arithmetic around each predecessor probe.
    pub read_loop_overhead: u32,
}

impl BfsParams {
    /// Defaults for `n` vertices over `threads` threads per PE: a
    /// degree-4 uniform random graph rooted at vertex 0.
    pub fn new(n: usize, threads: usize) -> Self {
        BfsParams {
            n,
            threads,
            degree: 4,
            seed: 0xBF5_0000_0001,
            read_loop_overhead: 11,
        }
    }
}

/// The result of a BFS run.
#[derive(Debug)]
pub struct BfsOutcome {
    /// Per-processor and machine-wide measurements.
    pub report: RunReport,
    /// Verified distance of every vertex from the root ([`UNREACHED`]
    /// where no path exists), gathered across processors.
    pub dist: Vec<u32>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Reset,
    Scan,
    PredIssue,
    PredCheck,
    Collect,
    CollectCheck,
    Check,
    Decide,
    Done,
}

impl Phase {
    fn code(self) -> u64 {
        match self {
            Phase::Reset => 0,
            Phase::Scan => 1,
            Phase::PredIssue => 2,
            Phase::PredCheck => 3,
            Phase::Collect => 4,
            Phase::CollectCheck => 5,
            Phase::Check => 6,
            Phase::Decide => 7,
            Phase::Done => 8,
        }
    }

    fn from_code(code: u64) -> Option<Phase> {
        Some(match code {
            0 => Phase::Reset,
            1 => Phase::Scan,
            2 => Phase::PredIssue,
            3 => Phase::PredCheck,
            4 => Phase::Collect,
            5 => Phase::CollectCheck,
            6 => Phase::Check,
            7 => Phase::Decide,
            8 => Phase::Done,
            _ => return None,
        })
    }
}

/// One worker: scans a band of local vertices each level; thread 0 of
/// PE 0 additionally collects the changed flags between levels.
struct BfsWorker {
    t: usize,
    h: usize,
    per_pe: usize,
    degree: usize,
    read_loop_overhead: u32,
    barrier: BarrierId,
    level: u32,
    phase: Phase,
    /// Local index of the vertex being scanned.
    v: usize,
    /// Predecessor slot being probed for `v`.
    e: usize,
    /// Collector state: next PE to poll and the OR of flags so far.
    q: usize,
    flag: u32,
}

impl BfsWorker {
    fn band_lo(&self) -> usize {
        self.t * self.per_pe / self.h
    }

    fn band_hi(&self) -> usize {
        (self.t + 1) * self.per_pe / self.h
    }
}

impl ThreadBody for BfsWorker {
    fn name(&self) -> &'static str {
        "bfs-worker"
    }

    fn save_state(&self) -> Option<Vec<u64>> {
        Some(vec![
            u64::from(self.level),
            self.phase.code(),
            self.v as u64,
            self.e as u64,
            self.q as u64,
            u64::from(self.flag),
        ])
    }

    fn load_state(&mut self, words: &[u64]) -> bool {
        let [level, phase, v, e, q, flag] = words else {
            return false;
        };
        let Some(phase) = Phase::from_code(*phase) else {
            return false;
        };
        self.level = *level as u32;
        self.phase = phase;
        self.v = *v as usize;
        self.e = *e as usize;
        self.q = *q as usize;
        self.flag = *flag as u32;
        true
    }

    fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        let mem_err = "bfs layout within configured memory";
        loop {
            match self.phase {
                Phase::Reset => {
                    if self.t == 0 {
                        ctx.mem
                            .write(layout::changed(self.per_pe), 0)
                            .expect(mem_err);
                    }
                    self.v = self.band_lo();
                    self.e = 0;
                    self.phase = Phase::Scan;
                    return Action::Barrier { id: self.barrier };
                }
                Phase::Scan => {
                    while self.v < self.band_hi() {
                        let d = ctx.mem.read(layout::DIST + self.v as u32).expect(mem_err);
                        if d != UNREACHED || self.e == self.degree {
                            self.v += 1;
                            self.e = 0;
                            continue;
                        }
                        self.phase = Phase::PredIssue;
                        return Action::Work {
                            cycles: self.read_loop_overhead,
                            kind: WorkKind::Overhead,
                        };
                    }
                    self.phase = Phase::Collect;
                    return Action::Barrier { id: self.barrier };
                }
                Phase::PredIssue => {
                    let slot = layout::preds(self.per_pe) + (self.v * self.degree + self.e) as u32;
                    let u = ctx.mem.read(slot).expect(mem_err) as usize;
                    let owner = PeId((u / self.per_pe) as u16);
                    let off = layout::DIST + (u % self.per_pe) as u32;
                    self.phase = Phase::PredCheck;
                    return Action::Read {
                        addr: GlobalAddr::new(owner, off)
                            .expect("owner address within packed range"),
                    };
                }
                Phase::PredCheck => {
                    let d = ctx
                        .value
                        .take()
                        .expect("read response carries the distance");
                    if d == self.level {
                        // A frontier predecessor: discover v and move on.
                        ctx.mem
                            .write(layout::DIST + self.v as u32, self.level + 1)
                            .expect(mem_err);
                        ctx.mem
                            .write(layout::changed(self.per_pe), 1)
                            .expect(mem_err);
                        self.v += 1;
                        self.e = 0;
                    } else {
                        self.e += 1;
                    }
                    self.phase = Phase::Scan;
                }
                Phase::Collect => {
                    if ctx.pe.index() == 0 && self.t == 0 {
                        if self.q < ctx.npes as usize {
                            self.phase = Phase::CollectCheck;
                            return Action::Read {
                                addr: GlobalAddr::new(
                                    PeId(self.q as u16),
                                    layout::changed(self.per_pe),
                                )
                                .expect("peer address within packed range"),
                            };
                        }
                        ctx.mem
                            .write(layout::gflag(self.per_pe), self.flag)
                            .expect(mem_err);
                    }
                    self.phase = Phase::Check;
                    return Action::Barrier { id: self.barrier };
                }
                Phase::CollectCheck => {
                    self.flag |= ctx.value.take().expect("read response carries the flag");
                    self.q += 1;
                    self.phase = Phase::Collect;
                }
                Phase::Check => {
                    self.phase = Phase::Decide;
                    return Action::Read {
                        addr: GlobalAddr::new(PeId(0), layout::gflag(self.per_pe))
                            .expect("PE 0 address within packed range"),
                    };
                }
                Phase::Decide => {
                    let go = ctx.value.take().expect("read response carries the flag");
                    if go != 0 {
                        self.level += 1;
                        self.q = 0;
                        self.flag = 0;
                        self.phase = Phase::Reset;
                    } else {
                        self.phase = Phase::Done;
                    }
                }
                Phase::Done => return Action::End,
            }
        }
    }
}

/// Validate parameters against a machine configuration; returns the
/// per-processor vertex count.
fn validate(cfg: &MachineConfig, params: &BfsParams) -> Result<usize, SimError> {
    let p = cfg.num_pes;
    let fail = |reason: String| Err(SimError::Workload { reason });
    if params.n == 0 || params.n % p != 0 {
        return fail(format!("n={} not divisible by P={p}", params.n));
    }
    let per_pe = params.n / p;
    if params.threads == 0 || params.threads > per_pe {
        return fail(format!(
            "h={} must be in 1..={per_pe} (one vertex per band minimum)",
            params.threads
        ));
    }
    if params.degree == 0 {
        return fail("need at least one predecessor per vertex".into());
    }
    if layout::words_needed(per_pe, params.degree) > cfg.local_memory_words {
        return fail(format!(
            "{} vertices of degree {} need {} words, machine has {}",
            per_pe,
            params.degree,
            layout::words_needed(per_pe, params.degree),
            cfg.local_memory_words
        ));
    }
    Ok(per_pe)
}

/// Sequential reference: level-synchronous relaxation over the same
/// predecessor lists, identical to the simulated semantics.
fn reference(n: usize, degree: usize, preds: &[u32]) -> Vec<u32> {
    let mut dist = vec![UNREACHED; n];
    dist[0] = 0;
    let mut level = 0u32;
    loop {
        let mut changed = false;
        for v in 0..n {
            if dist[v] != UNREACHED {
                continue;
            }
            for e in 0..degree {
                if dist[preds[v * degree + e] as usize] == level {
                    dist[v] = level + 1;
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            return dist;
        }
        level += 1;
    }
}

/// Run BFS from vertex 0 on the given machine configuration, verify the
/// distances against a sequential reference, and return the measurements.
pub fn run_bfs(cfg: &MachineConfig, params: &BfsParams) -> Result<BfsOutcome, SimError> {
    run_bfs_observed(cfg, params, |_| {})
}

/// [`run_bfs`] with an observation hook: `setup` receives the freshly
/// built machine before anything is loaded or spawned.
pub fn run_bfs_observed(
    cfg: &MachineConfig,
    params: &BfsParams,
    setup: impl FnOnce(&mut Machine),
) -> Result<BfsOutcome, SimError> {
    let mut machine = build_bfs(cfg, params, setup)?;
    let report = machine.run()?;
    finish_bfs(&machine, params, report)
}

/// Build a machine loaded and spawned for a BFS run, but not yet run.
///
/// The returned machine can be driven by [`Machine::run`], stepped with
/// [`Machine::step_events`], or used as a restore shell for an `emx-snap/1`
/// checkpoint of an identically built machine; [`finish_bfs`] gathers and
/// verifies once it quiesces.
pub fn build_bfs(
    cfg: &MachineConfig,
    params: &BfsParams,
    setup: impl FnOnce(&mut Machine),
) -> Result<Machine, SimError> {
    let p = cfg.num_pes;
    let per_pe = validate(cfg, params)?;
    let h = params.threads;

    let mut machine = Machine::new(cfg.clone())?;
    setup(&mut machine);
    let barrier = machine.define_barrier(h);

    // Distribute the graph: each PE gets its vertices' distances
    // (unreached, except the root on PE 0) and predecessor lists.
    let preds = indices(params.n * params.degree, params.n, params.seed);
    for pe in 0..p {
        let mem = machine.mem_mut(PeId(pe as u16))?;
        mem.write_slice(layout::DIST, &vec![UNREACHED; per_pe])?;
        mem.write(layout::changed(per_pe), 0)?;
        mem.write(layout::gflag(per_pe), 0)?;
        let lo = pe * per_pe * params.degree;
        let hi = lo + per_pe * params.degree;
        mem.write_slice(layout::preds(per_pe), &preds[lo..hi])?;
    }
    machine.mem_mut(PeId(0))?.write(layout::DIST, 0)?;

    let worker = params.clone();
    let entry = machine.register_entry("bfs-worker", move |_pe, arg| {
        Box::new(BfsWorker {
            t: arg as usize,
            h: worker.threads,
            per_pe,
            degree: worker.degree,
            read_loop_overhead: worker.read_loop_overhead,
            barrier,
            level: 0,
            phase: Phase::Reset,
            v: 0,
            e: 0,
            q: 0,
            flag: 0,
        })
    });
    for pe in 0..p {
        for t in 0..h {
            machine.spawn_at_start(PeId(pe as u16), entry, t as u32)?;
        }
    }
    Ok(machine)
}

/// Gather and verify the distances of a quiesced BFS machine built by
/// [`build_bfs`] with the same parameters.
pub fn finish_bfs(
    machine: &Machine,
    params: &BfsParams,
    report: RunReport,
) -> Result<BfsOutcome, SimError> {
    let p = machine.config().num_pes;
    let per_pe = params.n / p;
    let preds = indices(params.n * params.degree, params.n, params.seed);

    let mut dist = Vec::with_capacity(params.n);
    for pe in 0..p {
        dist.extend_from_slice(
            &machine
                .mem(PeId(pe as u16))?
                .read_slice(layout::DIST, per_pe)?,
        );
    }
    if dist != reference(params.n, params.degree, &preds) {
        return Err(SimError::Workload {
            reason: "BFS distances disagree with the sequential reference".into(),
        });
    }
    Ok(BfsOutcome { report, dist })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(p: usize) -> MachineConfig {
        let mut c = MachineConfig::with_pes(p);
        c.local_memory_words = 1 << 14;
        c
    }

    #[test]
    fn verifies_across_machine_sizes_and_thread_counts() {
        for p in [1usize, 2, 4, 8] {
            for h in [1usize, 2, 4] {
                let params = BfsParams::new(p * 32, h);
                let out = run_bfs(&cfg(p), &params).unwrap_or_else(|e| panic!("P={p} h={h}: {e}"));
                assert_eq!(out.dist.len(), p * 32);
            }
        }
    }

    #[test]
    fn traversal_reaches_a_nontrivial_frontier() {
        let out = run_bfs(&cfg(4), &BfsParams::new(256, 2)).unwrap();
        assert_eq!(out.dist[0], 0);
        let reached = out.dist.iter().filter(|&&d| d != UNREACHED).count();
        // A degree-4 uniform random graph reaches far more than the root.
        assert!(reached > 16, "only {reached} of 256 vertices reached");
        assert!(out.dist.iter().any(|&d| d > 1 && d != UNREACHED));
    }

    #[test]
    fn probes_travel_as_fine_grain_remote_reads() {
        let out = run_bfs(&cfg(4), &BfsParams::new(256, 2)).unwrap();
        // Predecessor probes plus the flag reduction are all single-word
        // reads; there is no bulk traffic in this kernel.
        assert!(out.report.total_reads() > 256);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(
            run_bfs(&cfg(4), &BfsParams::new(30, 1)).is_err(),
            "n not divisible by P"
        );
        assert!(
            run_bfs(&cfg(4), &BfsParams::new(128, 64)).is_err(),
            "h exceeds vertices per PE"
        );
        let mut params = BfsParams::new(128, 1);
        params.degree = 0;
        assert!(run_bfs(&cfg(4), &params).is_err(), "zero degree");
        let mut small = cfg(4);
        small.local_memory_words = 128;
        assert!(run_bfs(&small, &BfsParams::new(512, 1)).is_err(), "memory");
    }

    #[test]
    fn deterministic_across_runs() {
        let params = BfsParams::new(128, 4);
        let a = run_bfs(&cfg(4), &params).unwrap();
        let b = run_bfs(&cfg(4), &params).unwrap();
        assert_eq!(a.report.elapsed, b.report.elapsed);
        assert_eq!(a.dist, b.dist);
    }
}
