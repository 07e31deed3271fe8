//! 2D five-point stencil with halo exchange.
//!
//! A `width x rows` grid of u32 cells is row-blocked across processors
//! and iterated under the five-point update `next = c + up + down +
//! left + right` (wrapping addition; both dimensions are cyclic, so every
//! processor is symmetric). Each iteration a processor needs exactly two
//! remote rows — the last row of the block above and the first row of the
//! block below — which its boundary threads fetch with one *block read*
//! each: the halo-exchange pattern, and the workload that shows the
//! EM-X's DMA-serviced block transfer where it matters.
//!
//! Double buffering (parity per iteration) means readers only ever touch
//! the buffer writers finished in the previous iteration, and one barrier
//! per iteration is the whole synchronization story: nearest-neighbour
//! traffic, bulk transfers, compute-bound interiors — the opposite corner
//! of the irregular space from the histogram's all-to-all scatter.

use emx_core::{Codec, GlobalAddr, MachineConfig, PeId, SimError};
use emx_runtime::{Action, BarrierId, Machine, ThreadBody, ThreadCtx, WorkKind};
use emx_stats::RunReport;

use crate::gen::{keys, KeyDist};
use crate::kernel::{gather, phases, spawn_workers};
use crate::Kernel;

/// Word offsets of the per-processor memory layout.
mod layout {
    /// First grid buffer; the parity-1 buffer follows it.
    pub const BUF_A: u32 = 64;

    /// Buffer base for an iteration parity and block size.
    pub fn buf(parity: usize, per_pe: usize) -> u32 {
        BUF_A + (parity as u32) * per_pe as u32
    }

    /// Halo row fetched from the block above.
    pub fn halo_top(per_pe: usize) -> u32 {
        BUF_A + 2 * per_pe as u32
    }

    /// Halo row fetched from the block below.
    pub fn halo_bot(per_pe: usize, width: usize) -> u32 {
        halo_top(per_pe) + width as u32
    }

    /// Words of memory the layout needs.
    pub fn words_needed(per_pe: usize, width: usize) -> usize {
        BUF_A as usize + 2 * per_pe + 2 * width
    }
}

/// Parameters of a stencil run.
#[derive(Debug, Clone)]
pub struct StencilParams {
    /// Total grid cells (must be divisible by the processor count, and
    /// the per-processor share by `width`).
    pub n: usize,
    /// Threads per processor, h (1..=rows per processor); each thread
    /// updates a band of rows.
    pub threads: usize,
    /// Grid width in cells; the grid has `n / width` rows.
    pub width: usize,
    /// Stencil iterations.
    pub iters: usize,
    /// PRNG seed.
    pub seed: u64,
    /// Compute cycles per cell update (four adds and the stores).
    pub cell_cycles: u32,
    /// Cycles of address arithmetic around each halo block-read send.
    pub read_loop_overhead: u32,
}

impl StencilParams {
    /// Defaults for `n` cells over `threads` threads per PE: a 32-wide
    /// grid iterated 4 times.
    pub fn new(n: usize, threads: usize) -> Self {
        StencilParams {
            n,
            threads,
            width: 32,
            iters: 4,
            seed: 0x057E_4C11,
            cell_cycles: 6,
            read_loop_overhead: 11,
        }
    }
}

/// The result of a stencil run.
#[derive(Debug)]
pub struct StencilOutcome {
    /// Per-processor and machine-wide measurements.
    pub report: RunReport,
    /// The verified final grid, gathered row-major across processors.
    pub grid: Vec<u32>,
}

phases! {
    HaloTop,
    HaloBot,
    Compute,
    Sync,
    Done,
}

/// One worker: updates a band of rows each iteration, fetching the halo
/// rows its band borders on with block reads.
struct StencilWorker {
    t: usize,
    h: usize,
    rows: usize,
    width: usize,
    per_pe: usize,
    params: StencilParams,
    barrier: BarrierId,
    iter: usize,
    phase: Phase,
}

impl StencilWorker {
    fn band_lo(&self) -> usize {
        self.t * self.rows / self.h
    }

    fn band_hi(&self) -> usize {
        (self.t + 1) * self.rows / self.h
    }

    /// Compute this thread's band for the current iteration. Interior
    /// neighbours come straight from the parity buffer; boundary rows use
    /// the halo copies.
    fn compute_band(&self, ctx: &mut ThreadCtx<'_>) -> Result<u32, SimError> {
        let par = self.iter % 2;
        let w = self.width;
        let src = layout::buf(par, self.per_pe);
        let dst = layout::buf(1 - par, self.per_pe);
        let mut cells = 0u32;
        for r in self.band_lo()..self.band_hi() {
            for c in 0..w {
                let at = |row: usize, col: usize| (row * w + col) as u32;
                let center = ctx.mem.read(src + at(r, c))?;
                let up = if r > 0 {
                    ctx.mem.read(src + at(r - 1, c))?
                } else {
                    ctx.mem.read(layout::halo_top(self.per_pe) + c as u32)?
                };
                let down = if r + 1 < self.rows {
                    ctx.mem.read(src + at(r + 1, c))?
                } else {
                    ctx.mem.read(layout::halo_bot(self.per_pe, w) + c as u32)?
                };
                let left = ctx.mem.read(src + at(r, (c + w - 1) % w))?;
                let right = ctx.mem.read(src + at(r, (c + 1) % w))?;
                let next = center
                    .wrapping_add(up)
                    .wrapping_add(down)
                    .wrapping_add(left)
                    .wrapping_add(right);
                ctx.mem.write(dst + at(r, c), next)?;
                cells += 1;
            }
        }
        Ok(cells * self.params.cell_cycles)
    }
}

impl ThreadBody for StencilWorker {
    fn name(&self) -> &'static str {
        "stencil-worker"
    }

    fn snap(&mut self, c: &mut dyn Codec) -> Result<(), SimError> {
        c.usize(&mut self.iter)?;
        c.variant(&mut self.phase, PHASES)
    }

    fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        let par = self.iter % 2;
        let w = self.width;
        loop {
            match self.phase {
                Phase::HaloTop => {
                    self.phase = Phase::HaloBot;
                    if self.band_lo() == 0 {
                        // The block above ends at its last row (cyclic).
                        let above = (ctx.pe.index() + ctx.npes as usize - 1) % ctx.npes as usize;
                        let src = layout::buf(par, self.per_pe) + ((self.rows - 1) * w) as u32;
                        return Action::ReadBlock {
                            addr: GlobalAddr::new(PeId(above as u16), src)
                                .expect("neighbour address within packed range"),
                            len: w as u16,
                            local_dst: layout::halo_top(self.per_pe),
                        };
                    }
                }
                Phase::HaloBot => {
                    self.phase = Phase::Compute;
                    if self.band_hi() == self.rows {
                        let below = (ctx.pe.index() + 1) % ctx.npes as usize;
                        let src = layout::buf(par, self.per_pe);
                        return Action::ReadBlock {
                            addr: GlobalAddr::new(PeId(below as u16), src)
                                .expect("neighbour address within packed range"),
                            len: w as u16,
                            local_dst: layout::halo_bot(self.per_pe, w),
                        };
                    }
                }
                Phase::Compute => {
                    let cycles = self
                        .compute_band(ctx)
                        .expect("band update within configured memory")
                        + self.params.read_loop_overhead;
                    self.phase = Phase::Sync;
                    return Action::Work {
                        cycles,
                        kind: WorkKind::Compute,
                    };
                }
                Phase::Sync => {
                    self.iter += 1;
                    self.phase = if self.iter == self.params.iters {
                        Phase::Done
                    } else {
                        Phase::HaloTop
                    };
                    return Action::Barrier { id: self.barrier };
                }
                Phase::Done => return Action::End,
            }
        }
    }
}

/// Validate parameters against a machine configuration; returns
/// `(per_pe, rows_per_pe)`.
fn validate(cfg: &MachineConfig, params: &StencilParams) -> Result<(usize, usize), SimError> {
    let p = cfg.num_pes;
    let fail = |reason: String| Err(SimError::Workload { reason });
    if params.width == 0 {
        return fail("grid width must be positive".into());
    }
    if params.n == 0 || params.n % p != 0 {
        return fail(format!("n={} not divisible by P={p}", params.n));
    }
    let per_pe = params.n / p;
    if per_pe % params.width != 0 {
        return fail(format!(
            "per-PE share {per_pe} not divisible by width {}",
            params.width
        ));
    }
    let rows = per_pe / params.width;
    if params.threads == 0 || params.threads > rows {
        return fail(format!(
            "h={} must be in 1..={rows} (one band row minimum)",
            params.threads
        ));
    }
    if params.iters == 0 {
        return fail("need at least one iteration".into());
    }
    if params.width > u16::MAX as usize {
        return fail("halo block reads carry a 16-bit length".into());
    }
    if layout::words_needed(per_pe, params.width) > cfg.local_memory_words {
        return fail(format!(
            "{} cells need {} words, machine has {}",
            per_pe,
            layout::words_needed(per_pe, params.width),
            cfg.local_memory_words
        ));
    }
    Ok((per_pe, rows))
}

/// Sequential reference: the same update on the full grid.
fn reference(grid: &[u32], width: usize, iters: usize) -> Vec<u32> {
    let rows = grid.len() / width;
    let mut cur = grid.to_vec();
    let mut next = vec![0u32; grid.len()];
    for _ in 0..iters {
        for r in 0..rows {
            for c in 0..width {
                let up = cur[(r + rows - 1) % rows * width + c];
                let down = cur[(r + 1) % rows * width + c];
                let left = cur[r * width + (c + width - 1) % width];
                let right = cur[r * width + (c + 1) % width];
                next[r * width + c] = cur[r * width + c]
                    .wrapping_add(up)
                    .wrapping_add(down)
                    .wrapping_add(left)
                    .wrapping_add(right);
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// The row-blocked initial grid: small values, so a few iterations stay
/// readable (the arithmetic wraps regardless).
fn input(params: &StencilParams) -> Vec<u32> {
    keys(params.n, KeyDist::Uniform, params.seed)
        .into_iter()
        .map(|v| v & 0xFF)
        .collect()
}

impl Kernel for StencilParams {
    type Outcome = StencilOutcome;

    fn build(
        &self,
        cfg: &MachineConfig,
        attach: impl FnOnce(&mut Machine),
    ) -> Result<Machine, SimError> {
        let p = cfg.num_pes;
        let (per_pe, rows) = validate(cfg, self)?;
        let h = self.threads;

        let mut machine = Machine::new(cfg.clone())?;
        attach(&mut machine);
        let barrier = machine.define_barrier(h);

        let grid = input(self);
        for pe in 0..p {
            machine.mem_mut(PeId(pe as u16))?.write_slice(
                layout::buf(0, per_pe),
                &grid[pe * per_pe..(pe + 1) * per_pe],
            )?;
        }

        let worker_params = self.clone();
        let entry = machine.register_entry("stencil-worker", move |_pe, arg| {
            Box::new(StencilWorker {
                t: arg as usize,
                h: worker_params.threads,
                rows,
                width: worker_params.width,
                per_pe,
                params: worker_params.clone(),
                barrier,
                iter: 0,
                phase: Phase::HaloTop,
            })
        });
        spawn_workers(&mut machine, entry, h)?;
        Ok(machine)
    }

    fn finish(&self, machine: &Machine, report: RunReport) -> Result<StencilOutcome, SimError> {
        let p = machine.config().num_pes;
        let per_pe = self.n / p;
        // Gather the final-parity buffer.
        let final_par = self.iters % 2;
        let grid = gather(machine, layout::buf(final_par, per_pe), per_pe)?;
        if grid != reference(&input(self), self.width, self.iters) {
            return Err(SimError::Workload {
                reason: "stencil grid disagrees with the sequential reference".into(),
            });
        }
        Ok(StencilOutcome { report, grid })
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
                let params = StencilParams::new(p * 128, h); // 4 rows/PE
                let out =
                    run(&cfg(p), &params, |_| {}).unwrap_or_else(|e| panic!("P={p} h={h}: {e}"));
                assert_eq!(out.grid.len(), p * 128);
            }
        }
    }

    #[test]
    fn halo_traffic_is_two_block_reads_per_pe_per_iteration() {
        let params = StencilParams::new(512, 2); // P=4, 4 rows/PE
        let out = run(&cfg(4), &params, |_| {}).unwrap();
        // Each PE fetches exactly two halo rows per iteration, as block
        // reads: width cells each.
        assert_eq!(
            out.report.total_reads(),
            (4 * 2 * params.iters * params.width) as u64
        );
    }

    #[test]
    fn iteration_count_changes_the_result() {
        let mut a = StencilParams::new(512, 1);
        let mut b = StencilParams::new(512, 1);
        a.iters = 1;
        b.iters = 3;
        let ga = run(&cfg(4), &a, |_| {}).unwrap().grid;
        let gb = run(&cfg(4), &b, |_| {}).unwrap().grid;
        assert_ne!(ga, gb);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(
            run(&cfg(4), &StencilParams::new(100, 1), |_| {}).is_err(),
            "per-PE share not divisible by width"
        );
        assert!(
            run(&cfg(4), &StencilParams::new(128, 2), |_| {}).is_err(),
            "h exceeds one band per row (1 row/PE)"
        );
        let mut params = StencilParams::new(512, 1);
        params.iters = 0;
        assert!(run(&cfg(4), &params, |_| {}).is_err(), "zero iterations");
        let mut small = cfg(4);
        small.local_memory_words = 128;
        assert!(
            run(&small, &StencilParams::new(512, 1), |_| {}).is_err(),
            "memory"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let params = StencilParams::new(512, 2);
        let a = run(&cfg(4), &params, |_| {}).unwrap();
        let b = run(&cfg(4), &params, |_| {}).unwrap();
        assert_eq!(a.report.elapsed, b.report.elapsed);
        assert_eq!(a.grid, b.grid);
    }
}
