//! Multithreaded bitonic sorting (paper §3.1).
//!
//! Given P processors and n keys, each processor holds m = n/P keys. A local
//! sort is followed by `log2(P) * (log2(P)+1) / 2` merge steps; in step
//! (i, j) processor p exchanges its block with mate `p ^ (1<<j)` and keeps
//! the low or high half of the merged 2m keys, so that after the last step
//! the keys are globally ascending. (The paper's variant seeds the network
//! with ascending/descending local sorts; this implementation uses the
//! equivalent merge-split formulation — every block stays ascending and each
//! step is a compare-split — which produces the same communication pattern:
//! every step reads up to m mate elements and merges them.)
//!
//! The multithreaded version divides each step among h threads. Each thread
//! reads its m/h-element chunk of the mate's list one element at a time —
//! the read loop is the paper's 12-instruction body (11 cycles of loop
//! overhead plus the one-cycle send), giving the reported run length of 12 —
//! and then merges *in ascending thread order*: "computation must be done in
//! an ascending order of threads to ensure proper merge" (§4), enforced with
//! a sequence cell (thread-sync switches). A merge step stops as soon as m
//! outputs are produced, so trailing reads are skipped — the paper's
//! irregularity ("not all the elements residing in the mate processor need
//! to be read").

use emx_core::{GlobalAddr, MachineConfig, PeId, SimError};
use emx_runtime::{Action, BarrierId, Machine, ThreadBody, ThreadCtx, WorkKind};
use emx_stats::RunReport;

use crate::gen::{keys, KeyDist};

/// Word offsets of the per-processor memory layout.
mod layout {
    /// Control block: six counters, indexed by buffer parity.
    pub const LI: u32 = 0; // + parity: local elements consumed
    pub const OI: u32 = 2; // + parity: outputs produced
    pub const RI: u32 = 4; // + parity: mate elements consumed
    /// First data buffer.
    pub const BUF_A: u32 = 64;

    /// Buffer base for a given parity and block size.
    pub fn buf(parity: usize, m: usize) -> u32 {
        BUF_A + (parity as u32) * m as u32
    }

    /// Receive buffer base.
    pub fn recv(m: usize) -> u32 {
        BUF_A + 2 * m as u32
    }

    /// Words of memory the layout needs for block size `m`.
    pub fn words_needed(m: usize) -> usize {
        BUF_A as usize + 3 * m
    }
}

/// Parameters of a bitonic sorting run.
#[derive(Debug, Clone)]
pub struct SortParams {
    /// Total keys (must be divisible by the processor count; the processor
    /// count must be a power of two).
    pub n: usize,
    /// Threads per processor, h (1..=n/P; chunks are evened out when h
    /// does not divide the block size).
    pub threads: usize,
    /// Input distribution.
    pub dist: KeyDist,
    /// PRNG seed.
    pub seed: u64,
    /// Cycles of loop overhead around each remote read; 11 makes the loop
    /// body 12 cycles with the send instruction — the paper's run length.
    pub read_loop_overhead: u32,
    /// Compute cycles per merged output element ("not more than 10
    /// instructions", §4).
    pub merge_cycles_per_elem: u32,
    /// Compute cycles per element per level of the initial local sort.
    pub sort_cycles_per_elem_level: u32,
    /// Use the EM-X block-read send instruction: one request per thread
    /// chunk instead of one per element. The paper did not evaluate this
    /// (its §2.2 only notes the instruction exists); the
    /// `ablation_block_read` bench measures what it would have bought.
    pub block_read: bool,
}

impl SortParams {
    /// Paper-calibrated defaults for `n` keys and `threads` threads per PE.
    pub fn new(n: usize, threads: usize) -> Self {
        SortParams {
            n,
            threads,
            dist: KeyDist::Uniform,
            seed: 0xB170_41C5,
            read_loop_overhead: 11,
            merge_cycles_per_elem: 10,
            sort_cycles_per_elem_level: 8,
            block_read: false,
        }
    }

    /// Same, with block reads instead of per-element reads.
    pub fn with_block_reads(n: usize, threads: usize) -> Self {
        SortParams {
            block_read: true,
            ..Self::new(n, threads)
        }
    }
}

/// The result of a sorting run: the report plus the (verified) output.
#[derive(Debug)]
pub struct SortOutcome {
    /// Per-processor and machine-wide measurements.
    pub report: RunReport,
    /// The globally sorted keys, gathered across processors.
    pub output: Vec<u32>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Start,
    PostSort,
    ReadWork,
    ReadIssue,
    StoreValue,
    BlockIssue,
    BlockDone,
    WaitTurn,
    FinalMerge,
    Signalled,
    NextStep,
    Done,
}

struct SortWorker {
    t: usize,
    h: usize,
    m: usize,
    params: SortParams,
    barrier: BarrierId,
    /// Merge schedule for this PE: (mate, keep_low) per step. Computed on
    /// the first step() call, when the PE number is known.
    steps: Option<Vec<(u16, bool)>>,
    s: usize,
    k: usize,
    phase: Phase,
}

impl SortWorker {
    /// This thread's slice of read-order positions: `[lo, hi)`. Chunks are
    /// as even as possible and cover all m positions even when h does not
    /// divide m (the paper sweeps h = 1..16 over power-of-two blocks).
    fn chunk_lo(&self) -> usize {
        self.t * self.m / self.h
    }

    fn chunk_hi(&self) -> usize {
        (self.t + 1) * self.m / self.h
    }

    fn chunk_len(&self) -> usize {
        self.chunk_hi() - self.chunk_lo()
    }

    /// Read-order position `pos` (0..m) maps to a mate list index: ascending
    /// for keep-low merges, descending from the top for keep-high merges.
    fn mate_index(&self, keep_low: bool, pos: usize) -> u32 {
        if keep_low {
            pos as u32
        } else {
            (self.m - 1 - pos) as u32
        }
    }

    fn local_sort(&self, ctx: &mut ThreadCtx<'_>) -> Result<u32, SimError> {
        let m = self.m;
        let base = layout::buf(0, m);
        let mut block = ctx.mem.read_slice(base, m)?.into_owned();
        block.sort_unstable();
        ctx.mem.write_slice(base, &block)?;
        let levels = m.next_power_of_two().trailing_zeros().max(1);
        Ok((m as u32) * levels * self.params.sort_cycles_per_elem_level)
    }

    /// The sequence-cell value at which this thread holds the merge turn
    /// for the current step.
    fn turn_threshold(&self) -> u64 {
        (self.s * self.h + self.t) as u64
    }

    /// Continue the shared merge for this step, consuming receive-buffer
    /// positions strictly below `limit` (the elements that have actually
    /// arrived). Returns the cycle charge. `drain` lets the last thread pull
    /// the tail of the local list once the mate stream is exhausted.
    fn merge_upto(
        &self,
        ctx: &mut ThreadCtx<'_>,
        keep_low: bool,
        limit: u32,
        drain: bool,
    ) -> Result<u32, SimError> {
        let m = self.m;
        let par = self.s % 2;
        let src = layout::buf(par, m);
        let dst = layout::buf(1 - par, m);
        let recv = layout::recv(m);

        let mut li = ctx.mem.read(layout::LI + par as u32)?;
        let mut oi = ctx.mem.read(layout::OI + par as u32)?;
        let mut ri = ctx.mem.read(layout::RI + par as u32)?;
        let start_oi = oi;
        let m32 = m as u32;

        while oi < m32 && ri < limit {
            // The receive buffer is indexed by mate-list position, so both
            // per-element and block transfers share one layout; the merge
            // consumes positions in read order.
            let rv = ctx
                .mem
                .read(recv + self.mate_index(keep_low, ri as usize))?;
            if keep_low {
                let lv = ctx.mem.read(src + li)?;
                if lv <= rv {
                    ctx.mem.write(dst + oi, lv)?;
                    li += 1;
                } else {
                    ctx.mem.write(dst + oi, rv)?;
                    ri += 1;
                }
            } else {
                let lv = ctx.mem.read(src + (m32 - 1 - li))?;
                if lv >= rv {
                    ctx.mem.write(dst + (m32 - 1 - oi), lv)?;
                    li += 1;
                } else {
                    ctx.mem.write(dst + (m32 - 1 - oi), rv)?;
                    ri += 1;
                }
            }
            oi += 1;
        }
        // The last thread drains the local list if the mate ran out.
        if drain {
            while oi < m32 {
                if keep_low {
                    let lv = ctx.mem.read(src + li)?;
                    ctx.mem.write(dst + oi, lv)?;
                } else {
                    let lv = ctx.mem.read(src + (m32 - 1 - li))?;
                    ctx.mem.write(dst + (m32 - 1 - oi), lv)?;
                }
                li += 1;
                oi += 1;
            }
        }
        ctx.mem.write(layout::LI + par as u32, li)?;
        ctx.mem.write(layout::OI + par as u32, oi)?;
        ctx.mem.write(layout::RI + par as u32, ri)?;
        // Thread 0 resets the other parity's counters for the next step.
        if self.t == 0 {
            let other = (1 - par) as u32;
            ctx.mem.write(layout::LI + other, 0)?;
            ctx.mem.write(layout::OI + other, 0)?;
            ctx.mem.write(layout::RI + other, 0)?;
        }
        Ok((oi - start_oi) * self.params.merge_cycles_per_elem + 4)
    }
}

impl ThreadBody for SortWorker {
    fn name(&self) -> &'static str {
        "bitonic-sort-worker"
    }

    fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        // Compute the merge schedule once the PE number is known.
        if self.steps.is_none() {
            let p = ctx.pe.0;
            let log_p = (ctx.npes as usize).trailing_zeros();
            let mut steps = Vec::new();
            for i in 0..log_p {
                for j in (0..=i).rev() {
                    let mate = p ^ (1 << j);
                    let ascending = (p >> (i + 1)) & 1 == 0;
                    let keep_low = (p < mate) == ascending;
                    steps.push((mate, keep_low));
                }
            }
            self.steps = Some(steps);
        }
        let steps = self.steps.as_deref().expect("set above");

        loop {
            match self.phase {
                Phase::Start => {
                    self.phase = Phase::PostSort;
                    if self.t == 0 {
                        let cycles = self
                            .local_sort(ctx)
                            .expect("local sort within configured memory");
                        return Action::Work {
                            cycles,
                            kind: WorkKind::Compute,
                        };
                    }
                    // Other threads go straight to the post-sort barrier.
                    continue;
                }
                Phase::PostSort => {
                    self.phase = Phase::ReadWork;
                    return Action::Barrier { id: self.barrier };
                }
                Phase::ReadWork => {
                    if self.s == steps.len() {
                        self.phase = Phase::Done;
                        return Action::End;
                    }
                    if self.k == self.chunk_len() {
                        self.phase = Phase::WaitTurn;
                        continue;
                    }
                    let par = (self.s % 2) as u32;
                    let oi = ctx.mem.read(layout::OI + par).expect("counter in range");
                    if oi == self.m as u32 {
                        // Early termination: the merge already produced all m
                        // outputs, so the remaining mate elements are not
                        // needed (paper §3.1's irregularity).
                        self.k = self.chunk_len();
                        self.phase = Phase::WaitTurn;
                        continue;
                    }
                    self.phase = if self.params.block_read && self.k == 0 {
                        Phase::BlockIssue
                    } else {
                        Phase::ReadIssue
                    };
                    // The 12-instruction read-loop body: 11 cycles of
                    // address computation and loop control... (block mode
                    // pays it once per chunk).
                    return Action::Work {
                        cycles: self.params.read_loop_overhead,
                        kind: WorkKind::Overhead,
                    };
                }
                Phase::BlockIssue => {
                    // One block-read request fetches the whole chunk; the
                    // responses are deposited by this PE's IBU, off the EXU.
                    let (mate, keep_low) = steps[self.s];
                    let (clo, chi) = (self.chunk_lo(), self.chunk_hi());
                    let lo = if keep_low {
                        clo as u32
                    } else {
                        (self.m - chi) as u32
                    };
                    let src = layout::buf(self.s % 2, self.m);
                    self.phase = Phase::BlockDone;
                    return Action::ReadBlock {
                        addr: GlobalAddr::new(PeId(mate), src + lo)
                            .expect("mate address within packed range"),
                        len: (chi - clo) as u16,
                        local_dst: layout::recv(self.m) + lo,
                    };
                }
                Phase::BlockDone => {
                    self.k = self.chunk_len();
                    self.phase = Phase::WaitTurn;
                    continue;
                }
                Phase::ReadIssue => {
                    let (mate, keep_low) = steps[self.s];
                    let pos = self.chunk_lo() + self.k;
                    let idx = self.mate_index(keep_low, pos);
                    let src = layout::buf(self.s % 2, self.m);
                    self.phase = Phase::StoreValue;
                    // ...plus the one-cycle send instruction.
                    return Action::Read {
                        addr: GlobalAddr::new(PeId(mate), src + idx)
                            .expect("mate address within packed range"),
                    };
                }
                Phase::StoreValue => {
                    let v = ctx.value.expect("read resumption carries the value");
                    let (_, keep_low) = steps[self.s];
                    let pos = self.chunk_lo() + self.k;
                    let idx = self.mate_index(keep_low, pos);
                    ctx.mem
                        .write(layout::recv(self.m) + idx, v)
                        .expect("recv buffer within configured memory");
                    self.k += 1;
                    self.phase = Phase::ReadWork;
                    // Per-element merging while holding the turn (the
                    // paper's Figure 4 trace: Thd0 merges each value as it
                    // returns, while later threads' merges wait). Computation
                    // has no parallelism across threads — only reading does.
                    if ctx.seq[0] >= self.turn_threshold() {
                        let (_, keep_low) = steps[self.s];
                        let limit = (self.chunk_lo() + self.k) as u32;
                        let cycles = self
                            .merge_upto(ctx, keep_low, limit, false)
                            .expect("merge within configured memory");
                        if cycles > 0 {
                            return Action::Work {
                                cycles,
                                kind: WorkKind::Compute,
                            };
                        }
                    }
                    continue;
                }
                Phase::WaitTurn => {
                    self.phase = Phase::FinalMerge;
                    return Action::WaitSeq {
                        cell: 0,
                        threshold: self.turn_threshold(),
                    };
                }
                Phase::FinalMerge => {
                    // The turn is held; consume everything this thread read
                    // and, if this is the last thread, drain the local list.
                    let (_, keep_low) = steps[self.s];
                    let limit = (self.chunk_lo() + self.k) as u32;
                    let drain = self.t == self.h - 1;
                    let cycles = self
                        .merge_upto(ctx, keep_low, limit, drain)
                        .expect("merge within configured memory");
                    self.phase = Phase::Signalled;
                    if cycles > 0 {
                        return Action::Work {
                            cycles,
                            kind: WorkKind::Compute,
                        };
                    }
                    continue;
                }
                Phase::Signalled => {
                    self.phase = Phase::NextStep;
                    return Action::SignalSeq { cell: 0 };
                }
                Phase::NextStep => {
                    self.s += 1;
                    self.k = 0;
                    self.phase = Phase::ReadWork;
                    return Action::Barrier { id: self.barrier };
                }
                Phase::Done => return Action::End,
            }
        }
    }
}

/// Validate parameters against a machine configuration.
fn validate(cfg: &MachineConfig, params: &SortParams) -> Result<usize, SimError> {
    let p = cfg.num_pes;
    let fail = |reason: String| Err(SimError::Workload { reason });
    if !p.is_power_of_two() {
        return fail(format!(
            "bitonic sorting needs a power-of-two machine, got {p} PEs"
        ));
    }
    if params.n == 0 || params.n % p != 0 {
        return fail(format!("n={} not divisible by P={p}", params.n));
    }
    let m = params.n / p;
    if params.threads == 0 || params.threads > m {
        return fail(format!("h={} must be in 1..={m}", params.threads));
    }
    if layout::words_needed(m) > cfg.local_memory_words {
        return fail(format!(
            "block of {m} keys needs {} words, machine has {}",
            layout::words_needed(m),
            cfg.local_memory_words
        ));
    }
    if params.block_read && m.div_ceil(params.threads) > u16::MAX as usize {
        return fail(format!(
            "block reads carry a 16-bit length; chunk {} too large",
            m.div_ceil(params.threads)
        ));
    }
    Ok(m)
}

/// Run multithreaded bitonic sorting on the given machine configuration,
/// verify the output (globally ascending and a permutation of the input),
/// and return the measurements.
pub fn run_bitonic(cfg: &MachineConfig, params: &SortParams) -> Result<SortOutcome, SimError> {
    run_bitonic_observed(cfg, params, |_| {})
}

/// [`run_bitonic`] with an observation hook: `setup` receives the freshly
/// built machine before anything is loaded or spawned, so it can attach a
/// probe (`machine.attach_probe(..)`) or enable the bounded trace and see
/// the complete event stream of the run.
pub fn run_bitonic_observed(
    cfg: &MachineConfig,
    params: &SortParams,
    setup: impl FnOnce(&mut Machine),
) -> Result<SortOutcome, SimError> {
    let p = cfg.num_pes;
    let m = validate(cfg, params)?;
    let h = params.threads;

    let mut machine = Machine::new(cfg.clone())?;
    setup(&mut machine);
    machine.define_seq_cells(1);
    let barrier = machine.define_barrier(h);

    // Blocked data distribution: PE i holds keys [i*m, (i+1)*m).
    let input = keys(params.n, params.dist, params.seed);
    for pe in 0..p {
        machine
            .mem_mut(PeId(pe as u16))?
            .write_slice(layout::buf(0, m), &input[pe * m..(pe + 1) * m])?;
    }

    let worker_params = params.clone();
    let entry = machine.register_entry("bitonic-worker", move |_pe, arg| {
        Box::new(SortWorker {
            t: arg as usize,
            h: worker_params.threads,
            m,
            params: worker_params.clone(),
            barrier,
            steps: None,
            s: 0,
            k: 0,
            phase: Phase::Start,
        })
    });
    for pe in 0..p {
        for t in 0..h {
            machine.spawn_at_start(PeId(pe as u16), entry, t as u32)?;
        }
    }

    let report = machine.run()?;

    // Gather and verify.
    let log_p = p.trailing_zeros();
    let steps_total = (log_p * (log_p + 1) / 2) as usize;
    let final_par = steps_total % 2;
    let mut output = Vec::with_capacity(params.n);
    for pe in 0..p {
        output.extend_from_slice(
            &machine
                .mem(PeId(pe as u16))?
                .read_slice(layout::buf(final_par, m), m)?,
        );
    }
    if !output.windows(2).all(|w| w[0] <= w[1]) {
        return Err(SimError::Workload {
            reason: "bitonic output is not globally sorted".into(),
        });
    }
    let mut expect = input;
    expect.sort_unstable();
    if output != expect {
        return Err(SimError::Workload {
            reason: "bitonic output is not a permutation of the input".into(),
        });
    }
    Ok(SortOutcome { report, output })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(p: usize) -> MachineConfig {
        let mut c = MachineConfig::with_pes(p);
        c.local_memory_words = 1 << 16;
        c
    }

    #[test]
    fn sorts_across_machine_sizes_and_thread_counts() {
        for p in [2usize, 4, 8] {
            for h in [1usize, 2, 4] {
                let params = SortParams::new(p * 64, h);
                let out =
                    run_bitonic(&cfg(p), &params).unwrap_or_else(|e| panic!("P={p} h={h}: {e}"));
                assert_eq!(out.output.len(), p * 64);
            }
        }
    }

    #[test]
    fn sorts_every_distribution() {
        for dist in [
            KeyDist::Uniform,
            KeyDist::Sorted,
            KeyDist::Reverse,
            KeyDist::Gaussian,
            KeyDist::Constant,
        ] {
            let mut params = SortParams::new(256, 2);
            params.dist = dist;
            run_bitonic(&cfg(4), &params).unwrap_or_else(|e| panic!("{dist:?}: {e}"));
        }
    }

    #[test]
    fn single_pe_machine_is_a_local_sort() {
        let params = SortParams::new(128, 2);
        let out = run_bitonic(&cfg(1), &params).unwrap();
        assert_eq!(
            out.report.total_reads(),
            0,
            "no merge steps, no remote reads"
        );
    }

    #[test]
    fn remote_read_switches_equal_reads_issued() {
        // "Every remote read causes a thread switch" — and the count is
        // fixed by n, h, P (§5).
        let params = SortParams::new(256, 2);
        let out = run_bitonic(&cfg(4), &params).unwrap();
        assert_eq!(
            out.report.total_switches().remote_read,
            out.report.total_reads()
        );
    }

    #[test]
    fn read_count_is_bounded_by_full_exchange() {
        // With early termination, reads never exceed m per PE per step and
        // are usually fewer.
        let p = 4usize;
        let params = SortParams::new(512, 2);
        let out = run_bitonic(&cfg(p), &params).unwrap();
        let m = 512 / p;
        let steps = 3; // logP=2 -> 2*3/2
        let max = (p * m * steps) as u64;
        let reads = out.report.total_reads();
        assert!(reads <= max, "reads {reads} exceed full exchange {max}");
        assert!(reads > 0);
    }

    #[test]
    fn thread_sync_switches_appear_only_with_multiple_threads() {
        let one = run_bitonic(&cfg(4), &SortParams::new(256, 1)).unwrap();
        assert_eq!(one.report.total_switches().thread_sync, 0);
        let four = run_bitonic(&cfg(4), &SortParams::new(256, 4)).unwrap();
        assert!(four.report.total_switches().thread_sync > 0);
    }

    #[test]
    fn multithreading_reduces_communication_time() {
        // The headline effect, in miniature: with 4 threads the mean
        // per-PE communication (idle) time drops below the single-thread
        // time.
        let one = run_bitonic(&cfg(4), &SortParams::new(1024, 1)).unwrap();
        let four = run_bitonic(&cfg(4), &SortParams::new(1024, 4)).unwrap();
        let t1 = one.report.comm_time_secs();
        let t4 = four.report.comm_time_secs();
        assert!(
            t4 < t1,
            "4 threads must overlap some communication: h=1 {t1:.3e}s, h=4 {t4:.3e}s"
        );
    }

    #[test]
    fn block_read_mode_sorts_with_fewer_packets() {
        let per_elem = run_bitonic(&cfg(4), &SortParams::new(512, 2)).unwrap();
        let block = run_bitonic(&cfg(4), &SortParams::with_block_reads(512, 2)).unwrap();
        assert_eq!(per_elem.output, block.output, "same sorted result");
        // One request per chunk instead of one per element: far fewer
        // EXU-generated packets.
        assert!(
            block.report.total_packets() < per_elem.report.total_packets() / 2,
            "block {} vs per-element {}",
            block.report.total_packets(),
            per_elem.report.total_packets()
        );
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(
            run_bitonic(&cfg(3), &SortParams::new(96, 1)).is_err(),
            "non-pow2 P"
        );
        assert!(
            run_bitonic(&cfg(4), &SortParams::new(101, 1)).is_err(),
            "n % P != 0"
        );
        assert!(
            run_bitonic(&cfg(4), &SortParams::new(256, 65)).is_err(),
            "h > m"
        );
        run_bitonic(&cfg(4), &SortParams::new(256, 3)).expect("uneven chunks are fine");
        let mut small = cfg(4);
        small.local_memory_words = 80;
        assert!(
            run_bitonic(&small, &SortParams::new(256, 1)).is_err(),
            "memory"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let params = SortParams::new(256, 2);
        let a = run_bitonic(&cfg(4), &params).unwrap();
        let b = run_bitonic(&cfg(4), &params).unwrap();
        assert_eq!(a.report.elapsed, b.report.elapsed);
        assert_eq!(a.report.total_packets(), b.report.total_packets());
        assert_eq!(a.output, b.output);
    }
}
