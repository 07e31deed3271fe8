//! Multithreaded Fast Fourier Transform (paper §3.2).
//!
//! n complex points are block-distributed over P processors (PE p owns
//! points [p·m, (p+1)·m), m = n/P). A radix-2 decimation-in-frequency FFT
//! runs log2(n) iterations; with blocked distribution "an FFT ... requires
//! communication for the first log P iterations" — in iteration k < log P
//! every processor remote-reads all m points (two words each, real and
//! imaginary) of its mate `p ^ (P >> (k+1))` and computes its own m new
//! points. The remaining iterations are local.
//!
//! The multithreaded version splits each processor's m points among h
//! threads. "Unlike bitonic sorting, FFT possesses no data dependence
//! between elements within an iteration ... the threads compute and
//! communicate independent of other threads" — so there is no sequence-cell
//! ordering here, only the end-of-iteration barrier, and the per-point
//! computation (twiddle factors, "some trigonometric function computations
//! and a loop to find complex roots") gives run lengths of hundreds of
//! cycles, which is why FFT overlaps >95 % of its communication.
//!
//! Like the paper, the driver can run only the first log P (communication)
//! iterations for timing experiments, or the full transform for numerical
//! verification; either way the simulated output is checked element-by-
//! element against an f64 host reference of exactly the executed stages.

use emx_core::{Codec, GlobalAddr, MachineConfig, PeId, SimError};
use emx_runtime::{Action, BarrierId, Machine, ThreadBody, ThreadCtx, WorkKind};
use emx_stats::RunReport;

use crate::gen::{signal, Signal};
use crate::kernel::{phases, spawn_workers};
use crate::Kernel;

/// Per-processor memory layout: two (re, im) buffer pairs, by parity.
mod layout {
    /// Base of the data region.
    pub const BASE: u32 = 64;

    /// Real-part buffer base for a parity.
    pub fn re(parity: usize, m: usize) -> u32 {
        BASE + (parity as u32) * 2 * m as u32
    }

    /// Imaginary-part buffer base for a parity.
    pub fn im(parity: usize, m: usize) -> u32 {
        re(parity, m) + m as u32
    }

    /// Words needed for block size m.
    pub fn words_needed(m: usize) -> usize {
        BASE as usize + 4 * m
    }
}

/// Parameters of an FFT run.
#[derive(Debug, Clone)]
pub struct FftParams {
    /// Total points (power of two, divisible by the PE count).
    pub n: usize,
    /// Threads per processor (1..=n/P; chunks are evened out when h does
    /// not divide the block size).
    pub threads: usize,
    /// Input signal shape.
    pub shape: Signal,
    /// PRNG seed (for [`Signal::Random`]).
    pub seed: u64,
    /// Compute cycles charged per point per iteration — the paper's
    /// "hundreds of clocks due to trigonometric function computations".
    pub point_cycles: u32,
    /// Address-computation overhead charged before each point's two reads.
    pub addr_overhead: u32,
    /// Run the local (log n − log P) iterations too. The paper's timing
    /// experiments use only the first log P iterations; verification runs
    /// want the full transform.
    pub local_phase: bool,
}

impl FftParams {
    /// Paper-calibrated defaults.
    pub fn new(n: usize, threads: usize) -> Self {
        FftParams {
            n,
            threads,
            shape: Signal::Random,
            seed: 0xFF7_0001,
            point_cycles: 240,
            addr_overhead: 3,
            local_phase: true,
        }
    }

    /// Same, but communication iterations only (the paper's measurement
    /// setup).
    pub fn comm_only(n: usize, threads: usize) -> Self {
        FftParams {
            local_phase: false,
            ..Self::new(n, threads)
        }
    }
}

/// The result of an FFT run.
#[derive(Debug)]
pub struct FftOutcome {
    /// Per-processor and machine-wide measurements.
    pub report: RunReport,
    /// The gathered output points, in the engine's natural order (bit-
    /// reversed for a full DIF transform); verified against the host
    /// reference before being returned.
    pub output: Vec<(f32, f32)>,
}

/// Apply `stages` DIF butterflies to `x` in f64 — the verification oracle.
pub fn reference_dif_stages(input: &[(f32, f32)], stages: usize) -> Vec<(f64, f64)> {
    let n = input.len();
    let mut x: Vec<(f64, f64)> = input
        .iter()
        .map(|&(r, i)| (f64::from(r), f64::from(i)))
        .collect();
    for k in 0..stages {
        let s = n >> (k + 1);
        for i in 0..n {
            if i & s == 0 {
                let (ar, ai) = x[i];
                let (br, bi) = x[i + s];
                x[i] = (ar + br, ai + bi);
                let (dr, di) = (ar - br, ai - bi);
                let angle = -std::f64::consts::PI * (i % s.max(1)) as f64 / s as f64;
                let (sv, cv) = angle.sin_cos();
                x[i + s] = (dr * cv - di * sv, dr * sv + di * cv);
            }
        }
    }
    x
}

/// Bit-reverse permutation of a slice whose length is a power of two:
/// converts DIF output order to natural frequency order.
pub fn bit_reverse_order<T: Copy>(v: &[T]) -> Vec<T> {
    let n = v.len();
    let bits = n.trailing_zeros();
    (0..n)
        .map(|i| v[(i as u32).reverse_bits() as usize >> (32 - bits)])
        .collect()
}

phases! {
    CommWork,
    ReadRe,
    GotRe,
    GotIm,
    PointDone,
    IterBarrier,
    LocalStage,
    LocalBarrier,
    Done,
}

struct FftWorker {
    t: usize,
    h: usize,
    m: usize,
    n: usize,
    params: FftParams,
    barrier: BarrierId,
    iter: usize,
    k: usize,
    partner_re: f32,
    phase: Phase,
}

impl FftWorker {
    /// This thread's slice of point offsets: `[lo, hi)`; chunks cover all
    /// m points even when h does not divide m.
    fn chunk_lo(&self) -> usize {
        self.t * self.m / self.h
    }

    fn chunk_len(&self) -> usize {
        (self.t + 1) * self.m / self.h - self.chunk_lo()
    }

    fn log_p(&self, npes: u32) -> usize {
        npes.trailing_zeros() as usize
    }

    fn log_n(&self) -> usize {
        self.n.trailing_zeros() as usize
    }

    fn off(&self) -> usize {
        self.chunk_lo() + self.k
    }

    /// Per-point compute cycles: the nominal charge plus a small
    /// deterministic data-shaped variance. The paper's per-point work
    /// includes "a loop to find complex roots", whose iteration count is
    /// argument-dependent — modelling it as a constant would leave every
    /// processor in perfect lockstep, a degenerate synchrony real machines
    /// never exhibit (and which lets network collisions repeat identically
    /// at every point).
    fn point_cost(&self, pe: u16) -> u32 {
        let mut x = (u64::from(pe) << 40)
            ^ ((self.iter as u64) << 20)
            ^ (self.off() as u64)
            ^ 0x5DEE_CE66_D15C_0FFE;
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 29;
        self.params.point_cycles + (x % 13) as u32
    }

    /// DIF butterfly output for this PE's point at `off` in iteration
    /// `iter`, given the partner's value.
    fn butterfly(&self, pe: u16, mine: (f32, f32), partner: (f32, f32)) -> (f32, f32) {
        let s = self.n >> (self.iter + 1);
        let i = pe as usize * self.m + self.off();
        let a_side = i & s == 0;
        if a_side {
            (mine.0 + partner.0, mine.1 + partner.1)
        } else {
            let (dr, di) = (
                f64::from(partner.0) - f64::from(mine.0),
                f64::from(partner.1) - f64::from(mine.1),
            );
            let angle = -std::f64::consts::PI * (i % s) as f64 / s as f64;
            let (sv, cv) = angle.sin_cos();
            ((dr * cv - di * sv) as f32, (dr * sv + di * cv) as f32)
        }
    }
}

impl ThreadBody for FftWorker {
    fn name(&self) -> &'static str {
        "fft-worker"
    }

    fn snap(&mut self, c: &mut dyn Codec) -> Result<(), SimError> {
        c.usize(&mut self.iter)?;
        c.usize(&mut self.k)?;
        let mut partner_re = self.partner_re.to_bits();
        c.u32(&mut partner_re)?;
        self.partner_re = f32::from_bits(partner_re);
        c.variant(&mut self.phase, PHASES)
    }

    fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        let m = self.m;
        let log_p = self.log_p(ctx.npes);
        loop {
            match self.phase {
                Phase::CommWork => {
                    if self.iter == log_p {
                        self.phase = Phase::LocalStage;
                        continue;
                    }
                    if self.k == self.chunk_len() {
                        self.phase = Phase::IterBarrier;
                        continue;
                    }
                    self.phase = Phase::ReadRe;
                    return Action::Work {
                        cycles: self.params.addr_overhead,
                        kind: WorkKind::Overhead,
                    };
                }
                Phase::ReadRe => {
                    let mate = PeId(ctx.pe.0 ^ (ctx.npes >> (self.iter + 1)) as u16);
                    let src = layout::re(self.iter % 2, m) + self.off() as u32;
                    self.phase = Phase::GotRe;
                    return Action::Read {
                        addr: GlobalAddr::new(mate, src).expect("mate address in range"),
                    };
                }
                Phase::GotRe => {
                    self.partner_re =
                        f32::from_bits(ctx.value.expect("read resumption carries value"));
                    let mate = PeId(ctx.pe.0 ^ (ctx.npes >> (self.iter + 1)) as u16);
                    let src = layout::im(self.iter % 2, m) + self.off() as u32;
                    self.phase = Phase::GotIm;
                    return Action::Read {
                        addr: GlobalAddr::new(mate, src).expect("mate address in range"),
                    };
                }
                Phase::GotIm => {
                    let partner = (
                        self.partner_re,
                        f32::from_bits(ctx.value.expect("read resumption carries value")),
                    );
                    let par = self.iter % 2;
                    let off = self.off() as u32;
                    let mine = (
                        f32::from_bits(ctx.mem.read(layout::re(par, m) + off).expect("in range")),
                        f32::from_bits(ctx.mem.read(layout::im(par, m) + off).expect("in range")),
                    );
                    let out = self.butterfly(ctx.pe.0, mine, partner);
                    let dst_par = 1 - par;
                    ctx.mem
                        .write(layout::re(dst_par, m) + off, out.0.to_bits())
                        .expect("in range");
                    ctx.mem
                        .write(layout::im(dst_par, m) + off, out.1.to_bits())
                        .expect("in range");
                    self.phase = Phase::PointDone;
                    // "A lot of instructions with two reals and two
                    // imaginaries" — the trig loop that makes FFT run
                    // lengths hundreds of cycles (with data-dependent
                    // length; see point_cost).
                    return Action::Work {
                        cycles: self.point_cost(ctx.pe.0),
                        kind: WorkKind::Compute,
                    };
                }
                Phase::PointDone => {
                    self.k += 1;
                    self.phase = Phase::CommWork;
                    continue;
                }
                Phase::IterBarrier => {
                    self.iter += 1;
                    self.k = 0;
                    self.phase = Phase::CommWork;
                    return Action::Barrier { id: self.barrier };
                }
                Phase::LocalStage => {
                    if !self.params.local_phase || self.iter == self.log_n() {
                        self.phase = Phase::Done;
                        return Action::End;
                    }
                    // Thread 0 performs the whole local stage; the others
                    // only take part in the barrier.
                    self.phase = Phase::LocalBarrier;
                    if self.t != 0 {
                        continue;
                    }
                    // Local stages run in place in the buffer the last
                    // communication iteration wrote (parity log P % 2).
                    let par = log_p % 2;
                    let s = self.n >> (self.iter + 1);
                    let base = ctx.pe.0 as usize * m;
                    for off in 0..m {
                        let i = base + off;
                        if i & s != 0 {
                            continue;
                        }
                        let (lo, hi) = (off as u32, (off + s) as u32);
                        let a = (
                            f32::from_bits(ctx.mem.read(layout::re(par, m) + lo).unwrap()),
                            f32::from_bits(ctx.mem.read(layout::im(par, m) + lo).unwrap()),
                        );
                        let b = (
                            f32::from_bits(ctx.mem.read(layout::re(par, m) + hi).unwrap()),
                            f32::from_bits(ctx.mem.read(layout::im(par, m) + hi).unwrap()),
                        );
                        let sum = (a.0 + b.0, a.1 + b.1);
                        let (dr, di) = (
                            f64::from(a.0) - f64::from(b.0),
                            f64::from(a.1) - f64::from(b.1),
                        );
                        let angle = -std::f64::consts::PI * (i % s) as f64 / s as f64;
                        let (sv, cv) = angle.sin_cos();
                        let tw = ((dr * cv - di * sv) as f32, (dr * sv + di * cv) as f32);
                        ctx.mem
                            .write(layout::re(par, m) + lo, sum.0.to_bits())
                            .unwrap();
                        ctx.mem
                            .write(layout::im(par, m) + lo, sum.1.to_bits())
                            .unwrap();
                        ctx.mem
                            .write(layout::re(par, m) + hi, tw.0.to_bits())
                            .unwrap();
                        ctx.mem
                            .write(layout::im(par, m) + hi, tw.1.to_bits())
                            .unwrap();
                    }
                    // Keep parity unchanged for in-place local stages: copy
                    // is avoided by leaving data where it is. Charge the
                    // stage's computation.
                    return Action::Work {
                        cycles: (m as u32) * self.params.point_cycles,
                        kind: WorkKind::Compute,
                    };
                }
                Phase::LocalBarrier => {
                    self.iter += 1;
                    self.phase = Phase::LocalStage;
                    return Action::Barrier { id: self.barrier };
                }
                Phase::Done => return Action::End,
            }
        }
    }
}

fn validate(cfg: &MachineConfig, params: &FftParams) -> Result<usize, SimError> {
    let p = cfg.num_pes;
    let fail = |reason: String| Err(SimError::Workload { reason });
    if !p.is_power_of_two() {
        return fail(format!("FFT needs a power-of-two machine, got {p} PEs"));
    }
    if !params.n.is_power_of_two() || params.n < p {
        return fail(format!("n={} must be a power of two >= P={p}", params.n));
    }
    let m = params.n / p;
    if params.threads == 0 || params.threads > m {
        return fail(format!("h={} must be in 1..={m}", params.threads));
    }
    if params.local_phase && m < 2 && params.n > p {
        return fail("local phase needs at least 2 points per PE".into());
    }
    if layout::words_needed(m) > cfg.local_memory_words {
        return fail(format!(
            "block of {m} points needs {} words, machine has {}",
            layout::words_needed(m),
            cfg.local_memory_words
        ));
    }
    Ok(m)
}

impl Kernel for FftParams {
    type Outcome = FftOutcome;

    fn build(
        &self,
        cfg: &MachineConfig,
        attach: impl FnOnce(&mut Machine),
    ) -> Result<Machine, SimError> {
        let p = cfg.num_pes;
        let m = validate(cfg, self)?;
        let h = self.threads;

        let mut machine = Machine::new(cfg.clone())?;
        attach(&mut machine);
        let barrier = machine.define_barrier(h);

        let input = signal(self.n, self.shape, self.seed);
        for pe in 0..p {
            let re: Vec<u32> = input[pe * m..(pe + 1) * m]
                .iter()
                .map(|&(r, _)| r.to_bits())
                .collect();
            let im: Vec<u32> = input[pe * m..(pe + 1) * m]
                .iter()
                .map(|&(_, i)| i.to_bits())
                .collect();
            let mem = machine.mem_mut(PeId(pe as u16))?;
            mem.write_slice(layout::re(0, m), &re)?;
            mem.write_slice(layout::im(0, m), &im)?;
        }

        let wp = self.clone();
        let n = self.n;
        let entry = machine.register_entry("fft-worker", move |_pe, arg| {
            Box::new(FftWorker {
                t: arg as usize,
                h: wp.threads,
                m,
                n,
                params: wp.clone(),
                barrier,
                iter: 0,
                k: 0,
                partner_re: 0.0,
                phase: Phase::CommWork,
            })
        });
        spawn_workers(&mut machine, entry, h)?;
        Ok(machine)
    }

    /// Gather the output and verify it against the f64 host reference of
    /// exactly the executed stages.
    fn finish(&self, machine: &Machine, report: RunReport) -> Result<FftOutcome, SimError> {
        let p = machine.config().num_pes;
        let m = self.n / p;
        let log_p = p.trailing_zeros() as usize;
        let log_n = self.n.trailing_zeros() as usize;

        // Gather: comm iterations alternate buffers; local stages run in place.
        let final_par = log_p % 2;
        let mut output = Vec::with_capacity(self.n);
        for pe in 0..p {
            let mem = machine.mem(PeId(pe as u16))?;
            let re = mem.read_slice(layout::re(final_par, m), m)?;
            let im = mem.read_slice(layout::im(final_par, m), m)?;
            for (r, i) in re.iter().zip(im.iter()) {
                output.push((f32::from_bits(*r), f32::from_bits(*i)));
            }
        }

        let input = signal(self.n, self.shape, self.seed);
        let stages = if self.local_phase { log_n } else { log_p };
        let reference = reference_dif_stages(&input, stages);
        let scale: f64 = reference
            .iter()
            .map(|(r, i)| r.abs().max(i.abs()))
            .fold(1.0, f64::max);
        let tol = scale * 1e-4 * (stages.max(1) as f64);
        for (idx, (&(sr, si), &(rr, ri))) in output.iter().zip(reference.iter()).enumerate() {
            if (f64::from(sr) - rr).abs() > tol || (f64::from(si) - ri).abs() > tol {
                return Err(SimError::Workload {
                    reason: format!(
                        "FFT output diverges at {idx}: sim ({sr}, {si}) vs ref ({rr:.6}, {ri:.6})"
                    ),
                });
            }
        }
        Ok(FftOutcome { report, output })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::dft;
    use crate::run;

    fn cfg(p: usize) -> MachineConfig {
        let mut c = MachineConfig::with_pes(p);
        c.local_memory_words = 1 << 16;
        c
    }

    #[test]
    fn full_fft_matches_naive_dft() {
        for (p, n) in [(2usize, 16usize), (4, 64), (8, 64)] {
            let mut params = FftParams::new(n, 2);
            params.shape = Signal::TwoTones(3, 7);
            let out = run(&cfg(p), &params, |_| {}).unwrap_or_else(|e| panic!("P={p} n={n}: {e}"));
            // Compare bit-reverse-corrected output with the naive DFT.
            let natural = bit_reverse_order(&out.output);
            let expect = dft(&signal(n, params.shape, params.seed));
            for (k, (&(sr, si), &(er, ei))) in natural.iter().zip(expect.iter()).enumerate() {
                assert!(
                    (f64::from(sr) - er).abs() < 1e-2 && (f64::from(si) - ei).abs() < 1e-2,
                    "P={p} n={n} bin {k}: sim ({sr}, {si}) vs dft ({er:.4}, {ei:.4})"
                );
            }
        }
    }

    #[test]
    fn comm_only_run_matches_partial_reference() {
        // `finish` verifies; success is the assertion.
        let params = FftParams::comm_only(256, 4);
        let out = run(&cfg(8), &params, |_| {}).unwrap();
        // Exactly 2 reads per point per comm iteration.
        let expected_reads = (256 / 8) * 2 * 3 * 8; // m * 2 * logP * P
        assert_eq!(out.report.total_reads(), expected_reads as u64);
    }

    #[test]
    fn no_thread_sync_switches_ever() {
        // "No thread synchronization is required for FFT."
        let params = FftParams::new(128, 4);
        let out = run(&cfg(4), &params, |_| {}).unwrap();
        assert_eq!(out.report.total_switches().thread_sync, 0);
    }

    #[test]
    fn multithreading_overlaps_most_communication() {
        // The paper's >95% claim needs paper-scale compute; at this tiny
        // scale just require substantial overlap.
        let one = run(&cfg(4), &FftParams::comm_only(512, 1), |_| {}).unwrap();
        let four = run(&cfg(4), &FftParams::comm_only(512, 4), |_| {}).unwrap();
        let t1 = one.report.comm_time_secs();
        let t4 = four.report.comm_time_secs();
        assert!(
            t4 < t1 * 0.5,
            "4 threads should hide over half the communication: h=1 {t1:.3e}, h=4 {t4:.3e}"
        );
    }

    #[test]
    fn impulse_spectrum_is_flat() {
        let mut params = FftParams::new(64, 2);
        params.shape = Signal::Impulse;
        let out = run(&cfg(4), &params, |_| {}).unwrap();
        for &(r, i) in &out.output {
            assert!((r - 1.0).abs() < 1e-4 && i.abs() < 1e-4);
        }
    }

    #[test]
    fn single_pe_is_all_local() {
        let params = FftParams::new(64, 1);
        let out = run(&cfg(1), &params, |_| {}).unwrap();
        assert_eq!(out.report.total_reads(), 0);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(run(&cfg(3), &FftParams::new(48, 1), |_| {}).is_err());
        assert!(run(&cfg(4), &FftParams::new(100, 1), |_| {}).is_err());
        assert!(run(&cfg(4), &FftParams::new(64, 17), |_| {}).is_err());
        run(&cfg(4), &FftParams::new(64, 3), |_| {}).expect("uneven chunks are fine");
    }

    #[test]
    fn deterministic_across_runs() {
        let params = FftParams::new(128, 2);
        let a = run(&cfg(4), &params, |_| {}).unwrap();
        let b = run(&cfg(4), &params, |_| {}).unwrap();
        assert_eq!(a.report.elapsed, b.report.elapsed);
        assert_eq!(a.output, b.output);
    }
}
