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

use emx_core::{Codec, GlobalAddr, MachineConfig, PeId, SimError};
use emx_runtime::{Action, BarrierId, Machine, ThreadBody, ThreadCtx, WorkKind};
use emx_stats::RunReport;

use crate::gen::indices;
use crate::kernel::{gather, phases, spawn_workers};
use crate::Kernel;

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

phases! {
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

    fn snap(&mut self, c: &mut dyn Codec) -> Result<(), SimError> {
        c.u32(&mut self.level)?;
        c.variant(&mut self.phase, PHASES)?;
        c.usize(&mut self.v)?;
        c.usize(&mut self.e)?;
        c.usize(&mut self.q)?;
        c.u32(&mut self.flag)
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

/// BFS from vertex 0.
impl Kernel for BfsParams {
    type Outcome = BfsOutcome;

    fn build(
        &self,
        cfg: &MachineConfig,
        attach: impl FnOnce(&mut Machine),
    ) -> Result<Machine, SimError> {
        let p = cfg.num_pes;
        let per_pe = validate(cfg, self)?;
        let h = self.threads;

        let mut machine = Machine::new(cfg.clone())?;
        attach(&mut machine);
        let barrier = machine.define_barrier(h);

        // Distribute the graph: each PE gets its vertices' distances
        // (unreached, except the root on PE 0) and predecessor lists.
        let preds = indices(self.n * self.degree, self.n, self.seed);
        for pe in 0..p {
            let mem = machine.mem_mut(PeId(pe as u16))?;
            mem.write_slice(layout::DIST, &vec![UNREACHED; per_pe])?;
            mem.write(layout::changed(per_pe), 0)?;
            mem.write(layout::gflag(per_pe), 0)?;
            let lo = pe * per_pe * self.degree;
            let hi = lo + per_pe * self.degree;
            mem.write_slice(layout::preds(per_pe), &preds[lo..hi])?;
        }
        machine.mem_mut(PeId(0))?.write(layout::DIST, 0)?;

        let worker = self.clone();
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
        spawn_workers(&mut machine, entry, h)?;
        Ok(machine)
    }

    fn finish(&self, machine: &Machine, report: RunReport) -> Result<BfsOutcome, SimError> {
        let p = machine.config().num_pes;
        let per_pe = self.n / p;
        let preds = indices(self.n * self.degree, self.n, self.seed);

        let dist = gather(machine, layout::DIST, per_pe)?;
        if dist != reference(self.n, self.degree, &preds) {
            return Err(SimError::Workload {
                reason: "BFS distances disagree with the sequential reference".into(),
            });
        }
        Ok(BfsOutcome { report, dist })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;

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
                let out =
                    run(&cfg(p), &params, |_| {}).unwrap_or_else(|e| panic!("P={p} h={h}: {e}"));
                assert_eq!(out.dist.len(), p * 32);
            }
        }
    }

    #[test]
    fn traversal_reaches_a_nontrivial_frontier() {
        let out = run(&cfg(4), &BfsParams::new(256, 2), |_| {}).unwrap();
        assert_eq!(out.dist[0], 0);
        let reached = out.dist.iter().filter(|&&d| d != UNREACHED).count();
        // A degree-4 uniform random graph reaches far more than the root.
        assert!(reached > 16, "only {reached} of 256 vertices reached");
        assert!(out.dist.iter().any(|&d| d > 1 && d != UNREACHED));
    }

    #[test]
    fn probes_travel_as_fine_grain_remote_reads() {
        let out = run(&cfg(4), &BfsParams::new(256, 2), |_| {}).unwrap();
        // Predecessor probes plus the flag reduction are all single-word
        // reads; there is no bulk traffic in this kernel.
        assert!(out.report.total_reads() > 256);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(
            run(&cfg(4), &BfsParams::new(30, 1), |_| {}).is_err(),
            "n not divisible by P"
        );
        assert!(
            run(&cfg(4), &BfsParams::new(128, 64), |_| {}).is_err(),
            "h exceeds vertices per PE"
        );
        let mut params = BfsParams::new(128, 1);
        params.degree = 0;
        assert!(run(&cfg(4), &params, |_| {}).is_err(), "zero degree");
        let mut small = cfg(4);
        small.local_memory_words = 128;
        assert!(
            run(&small, &BfsParams::new(512, 1), |_| {}).is_err(),
            "memory"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let params = BfsParams::new(128, 4);
        let a = run(&cfg(4), &params, |_| {}).unwrap();
        let b = run(&cfg(4), &params, |_| {}).unwrap();
        assert_eq!(a.report.elapsed, b.report.elapsed);
        assert_eq!(a.dist, b.dist);
    }
}
