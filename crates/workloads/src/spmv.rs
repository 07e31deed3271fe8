//! Sparse matrix-vector product over a distributed vector.
//!
//! Rows are blocked across processors; each row holds a fixed number of
//! nonzeros at seeded-random column positions, so the gather of `x[col]`
//! values is an *irregular* remote-read stream — no structure, no reuse,
//! just latency to mask. That makes SpMV the irregular twin of the FFT:
//! like the FFT there is no inter-thread dependence whatsoever (each
//! thread owns whole rows), so threads never synchronize and every spare
//! thread converts directly into read-latency overlap; unlike the FFT the
//! destinations are scattered uniformly instead of following the binary-
//! exchange pattern, so every processor pair carries traffic every cycle.
//!
//! Arithmetic is wrapping u32 multiply-add — exact, associative in the
//! accumulation order the thread walks (a fixed order), and therefore
//! byte-for-byte verifiable against the sequential reference.

use emx_core::{GlobalAddr, MachineConfig, PeId, SimError};
use emx_runtime::{Action, Machine, ThreadBody, ThreadCtx, WorkKind};
use emx_stats::RunReport;

use crate::gen::{indices, keys, KeyDist};

/// Word offsets of the per-processor memory layout.
mod layout {
    /// The local block of the dense vector x.
    pub const X: u32 = 64;

    /// Result block y.
    pub fn y(per_pe: usize) -> u32 {
        X + per_pe as u32
    }

    /// Column indices of the local rows, row-major.
    pub fn cols(per_pe: usize) -> u32 {
        X + 2 * per_pe as u32
    }

    /// Nonzero values of the local rows, row-major.
    pub fn vals(per_pe: usize, nnz: usize) -> u32 {
        cols(per_pe) + (per_pe * nnz) as u32
    }

    /// Words of memory the layout needs.
    pub fn words_needed(per_pe: usize, nnz: usize) -> usize {
        X as usize + per_pe * (2 + 2 * nnz)
    }
}

/// Parameters of a sparse mat-vec run.
#[derive(Debug, Clone)]
pub struct SpmvParams {
    /// Total rows (must be divisible by the processor count). The matrix
    /// is square: columns index the same `n`-element distributed vector.
    pub n: usize,
    /// Threads per processor, h (1..=n/P).
    pub threads: usize,
    /// Nonzeros per row, each at a seeded-random column.
    pub nnz_per_row: usize,
    /// PRNG seed.
    pub seed: u64,
    /// Cycles of loop overhead around each remote read of `x[col]`; 11
    /// makes the loop body 12 cycles with the send — the paper's run
    /// length.
    pub read_loop_overhead: u32,
    /// Compute cycles per multiply-accumulate.
    pub mul_add_cycles: u32,
    /// Compute cycles to finish a row (store + loop bookkeeping).
    pub row_finish_cycles: u32,
}

impl SpmvParams {
    /// Defaults for an `n x n` matrix over `threads` threads per PE.
    pub fn new(n: usize, threads: usize) -> Self {
        SpmvParams {
            n,
            threads,
            nnz_per_row: 8,
            seed: 0x5EED_5133,
            read_loop_overhead: 11,
            mul_add_cycles: 2,
            row_finish_cycles: 4,
        }
    }
}

/// The result of a sparse mat-vec run.
#[derive(Debug)]
pub struct SpmvOutcome {
    /// Per-processor and machine-wide measurements.
    pub report: RunReport,
    /// The verified result vector y, gathered across processors.
    pub y: Vec<u32>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    RowStart,
    Elem,
    Issue,
    Accumulate,
}

/// One worker: computes its chunk of local rows, gathering `x[col]` with
/// one split-phase remote read per nonzero.
struct SpmvWorker {
    t: usize,
    h: usize,
    per_pe: usize,
    params: SpmvParams,
    r: usize,
    e: usize,
    acc: u32,
    phase: Phase,
}

impl SpmvWorker {
    fn chunk_hi(&self) -> usize {
        (self.t + 1) * self.per_pe / self.h
    }
}

impl ThreadBody for SpmvWorker {
    fn name(&self) -> &'static str {
        "spmv-worker"
    }

    fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        let nnz = self.params.nnz_per_row;
        loop {
            match self.phase {
                Phase::RowStart => {
                    if self.r == self.chunk_hi() {
                        return Action::End;
                    }
                    self.e = 0;
                    self.acc = 0;
                    self.phase = Phase::Elem;
                }
                Phase::Elem => {
                    if self.e == nnz {
                        ctx.mem
                            .write(layout::y(self.per_pe) + self.r as u32, self.acc)
                            .expect("y block within configured memory");
                        self.r += 1;
                        self.phase = Phase::RowStart;
                        return Action::Work {
                            cycles: self.params.row_finish_cycles,
                            kind: WorkKind::Compute,
                        };
                    }
                    // The read-loop body around the send.
                    self.phase = Phase::Issue;
                    return Action::Work {
                        cycles: self.params.read_loop_overhead,
                        kind: WorkKind::Overhead,
                    };
                }
                Phase::Issue => {
                    let col = ctx
                        .mem
                        .read(layout::cols(self.per_pe) + (self.r * nnz + self.e) as u32)
                        .expect("column block within configured memory");
                    let owner = col as usize / self.per_pe;
                    let offset = layout::X + col % self.per_pe as u32;
                    self.phase = Phase::Accumulate;
                    return Action::Read {
                        addr: GlobalAddr::new(PeId(owner as u16), offset)
                            .expect("x owner address within packed range"),
                    };
                }
                Phase::Accumulate => {
                    let xv = ctx.value.expect("read resumption carries the value");
                    let val = ctx
                        .mem
                        .read(layout::vals(self.per_pe, nnz) + (self.r * nnz + self.e) as u32)
                        .expect("value block within configured memory");
                    self.acc = self.acc.wrapping_add(val.wrapping_mul(xv));
                    self.e += 1;
                    self.phase = Phase::Elem;
                    return Action::Work {
                        cycles: self.params.mul_add_cycles,
                        kind: WorkKind::Compute,
                    };
                }
            }
        }
    }
}

/// Validate parameters against a machine configuration.
fn validate(cfg: &MachineConfig, params: &SpmvParams) -> Result<usize, SimError> {
    let p = cfg.num_pes;
    let fail = |reason: String| Err(SimError::Workload { reason });
    if params.n == 0 || params.n % p != 0 {
        return fail(format!("n={} not divisible by P={p}", params.n));
    }
    let per_pe = params.n / p;
    if params.threads == 0 || params.threads > per_pe {
        return fail(format!("h={} must be in 1..={per_pe}", params.threads));
    }
    if params.nnz_per_row == 0 {
        return fail("rows need at least one nonzero".into());
    }
    if layout::words_needed(per_pe, params.nnz_per_row) > cfg.local_memory_words {
        return fail(format!(
            "{} rows x {} nonzeros need {} words, machine has {}",
            per_pe,
            params.nnz_per_row,
            layout::words_needed(per_pe, params.nnz_per_row),
            cfg.local_memory_words
        ));
    }
    Ok(per_pe)
}

/// Run the sparse mat-vec on the given machine configuration, verify y
/// against a sequential reference, and return the measurements.
pub fn run_spmv(cfg: &MachineConfig, params: &SpmvParams) -> Result<SpmvOutcome, SimError> {
    run_spmv_observed(cfg, params, |_| {})
}

/// [`run_spmv`] with an observation hook: `setup` receives the freshly
/// built machine before anything is loaded or spawned.
pub fn run_spmv_observed(
    cfg: &MachineConfig,
    params: &SpmvParams,
    setup: impl FnOnce(&mut Machine),
) -> Result<SpmvOutcome, SimError> {
    let p = cfg.num_pes;
    let per_pe = validate(cfg, params)?;
    let h = params.threads;
    let nnz = params.nnz_per_row;

    let mut machine = Machine::new(cfg.clone())?;
    setup(&mut machine);

    // Seeded matrix and vector. Values are kept to 16 bits so individual
    // products do not saturate; the accumulation wraps deliberately.
    let cols = indices(params.n * nnz, params.n, params.seed);
    let vals: Vec<u32> = keys(params.n * nnz, KeyDist::Uniform, params.seed ^ 0xA5A5)
        .into_iter()
        .map(|v| v & 0xFFFF)
        .collect();
    let x: Vec<u32> = keys(params.n, KeyDist::Uniform, params.seed ^ 0x5A5A)
        .into_iter()
        .map(|v| v & 0xFFFF)
        .collect();
    for pe in 0..p {
        let mem = machine.mem_mut(PeId(pe as u16))?;
        mem.write_slice(layout::X, &x[pe * per_pe..(pe + 1) * per_pe])?;
        mem.write_slice(layout::y(per_pe), &vec![0u32; per_pe])?;
        let row0 = pe * per_pe;
        mem.write_slice(
            layout::cols(per_pe),
            &cols[row0 * nnz..(row0 + per_pe) * nnz],
        )?;
        mem.write_slice(
            layout::vals(per_pe, nnz),
            &vals[row0 * nnz..(row0 + per_pe) * nnz],
        )?;
    }

    let worker_params = params.clone();
    let entry = machine.register_entry("spmv-worker", move |_pe, arg| {
        let t = arg as usize;
        Box::new(SpmvWorker {
            t,
            h: worker_params.threads,
            per_pe,
            params: worker_params.clone(),
            r: t * per_pe / worker_params.threads,
            e: 0,
            acc: 0,
            phase: Phase::RowStart,
        })
    });
    for pe in 0..p {
        for t in 0..h {
            machine.spawn_at_start(PeId(pe as u16), entry, t as u32)?;
        }
    }

    let report = machine.run()?;

    // Gather and verify.
    let mut y = Vec::with_capacity(params.n);
    for pe in 0..p {
        y.extend_from_slice(
            &machine
                .mem(PeId(pe as u16))?
                .read_slice(layout::y(per_pe), per_pe)?,
        );
    }
    let expect: Vec<u32> = (0..params.n)
        .map(|r| {
            (0..nnz).fold(0u32, |acc, e| {
                let col = cols[r * nnz + e] as usize;
                acc.wrapping_add(vals[r * nnz + e].wrapping_mul(x[col]))
            })
        })
        .collect();
    if y != expect {
        return Err(SimError::Workload {
            reason: "spmv result disagrees with the sequential reference".into(),
        });
    }
    Ok(SpmvOutcome { report, y })
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
    fn verifies_across_machine_sizes_and_thread_counts() {
        for p in [1usize, 2, 4, 8] {
            for h in [1usize, 2, 4] {
                let params = SpmvParams::new(p * 32, h);
                let out = run_spmv(&cfg(p), &params).unwrap_or_else(|e| panic!("P={p} h={h}: {e}"));
                assert_eq!(out.y.len(), p * 32);
            }
        }
    }

    #[test]
    fn every_nonzero_is_one_remote_read() {
        let params = SpmvParams::new(128, 2);
        let out = run_spmv(&cfg(4), &params).unwrap();
        assert_eq!(
            out.report.total_reads(),
            (params.n * params.nnz_per_row) as u64
        );
        // Like the FFT, there is no inter-thread dependence: no seq-cell
        // thread-sync switches at all.
        assert_eq!(out.report.total_switches().thread_sync, 0);
    }

    #[test]
    fn multithreading_reduces_communication_time() {
        let one = run_spmv(&cfg(4), &SpmvParams::new(256, 1)).unwrap();
        let four = run_spmv(&cfg(4), &SpmvParams::new(256, 4)).unwrap();
        assert!(
            four.report.comm_time_secs() < one.report.comm_time_secs(),
            "4 threads must overlap some of the gather latency"
        );
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(
            run_spmv(&cfg(4), &SpmvParams::new(101, 1)).is_err(),
            "n % P"
        );
        assert!(
            run_spmv(&cfg(4), &SpmvParams::new(8, 3)).is_err(),
            "h > n/P"
        );
        let mut params = SpmvParams::new(128, 1);
        params.nnz_per_row = 0;
        assert!(run_spmv(&cfg(4), &params).is_err(), "no nonzeros");
        let mut small = cfg(4);
        small.local_memory_words = 128;
        assert!(
            run_spmv(&small, &SpmvParams::new(128, 1)).is_err(),
            "memory"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let params = SpmvParams::new(128, 2);
        let a = run_spmv(&cfg(4), &params).unwrap();
        let b = run_spmv(&cfg(4), &params).unwrap();
        assert_eq!(a.report.elapsed, b.report.elapsed);
        assert_eq!(a.y, b.y);
    }
}
