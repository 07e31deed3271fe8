//! Histogram with remote read-modify-write cells.
//!
//! Each processor owns a slab of bucket counters and a block of keys.
//! Worker threads hash their local keys and bump the owning processor's
//! counter — not by reading, adding, and writing back over the network
//! (three racy round trips), but the EM-X way: a one-packet *fire-and-
//! forget spawn* of a tiny increment thread on the bucket's owner. The
//! increment runs as an ordinary fine-grain thread on the owning
//! processor, so the read-modify-write is atomic by construction (a
//! thread step is indivisible) and the spawn packet travels as control
//! traffic, which the fault layer may delay but never lose — the kernel
//! runs unchanged under fault injection.
//!
//! Traffic pattern: all-to-all scatter of single-packet updates with no
//! read dependencies at all, the pure "fire and forget" end of the
//! irregular spectrum. There is nothing to wait on — [`Machine::run`]
//! quiesces only when every in-flight increment thread has drained — so
//! the kernel needs no barriers and no sequence cells, and multithreading
//! wins only by overlapping packet-generation overhead, not read latency.

use emx_core::{MachineConfig, PeId, SimError};
use emx_runtime::{Action, Machine, ThreadBody, ThreadCtx, WorkKind};
use emx_stats::RunReport;

use crate::gen::{keys, KeyDist};

/// Word offsets of the per-processor memory layout.
mod layout {
    /// Bucket counters start here; keys follow them.
    pub const BUCKETS: u32 = 64;

    /// Base of the local key block.
    pub fn keys_base(buckets_per_pe: usize) -> u32 {
        BUCKETS + buckets_per_pe as u32
    }

    /// Words of memory the layout needs.
    pub fn words_needed(buckets_per_pe: usize, per_pe: usize) -> usize {
        BUCKETS as usize + buckets_per_pe + per_pe
    }
}

/// Parameters of a histogram run.
#[derive(Debug, Clone)]
pub struct HistogramParams {
    /// Total keys (must be divisible by the processor count).
    pub n: usize,
    /// Threads per processor, h (1..=n/P).
    pub threads: usize,
    /// Bucket counters owned by each processor; the histogram has
    /// `buckets_per_pe * P` buckets total.
    pub buckets_per_pe: usize,
    /// Input key distribution. `Uniform` spreads updates evenly; skewed
    /// distributions concentrate them (and the activation-frame budget
    /// must absorb the burst — see `docs/WORKLOADS.md`).
    pub dist: KeyDist,
    /// PRNG seed.
    pub seed: u64,
    /// Cycles to hash a key and form the update address — the per-element
    /// loop body around the one-cycle spawn send.
    pub hash_cycles: u32,
}

impl HistogramParams {
    /// Defaults for `n` keys over `threads` threads per processor.
    pub fn new(n: usize, threads: usize) -> Self {
        HistogramParams {
            n,
            threads,
            buckets_per_pe: 16,
            dist: KeyDist::Uniform,
            seed: 0x4157_0621,
            hash_cycles: 8,
        }
    }
}

/// The result of a histogram run.
#[derive(Debug)]
pub struct HistogramOutcome {
    /// Per-processor and machine-wide measurements.
    pub report: RunReport,
    /// The verified bucket counts, gathered across processors in bucket
    /// order.
    pub counts: Vec<u32>,
}

/// The bucket a key lands in: multiplicative hash, then modulo.
fn bucket_of(key: u32, total_buckets: usize) -> usize {
    (key.wrapping_mul(0x9E37_79B1) >> 8) as usize % total_buckets
}

/// A scatter thread: hashes its chunk of local keys and fire-and-forget
/// spawns one increment per key on the bucket owner.
struct ScatterWorker {
    t: usize,
    h: usize,
    per_pe: usize,
    buckets_per_pe: usize,
    params: HistogramParams,
    inc_entry: emx_runtime::EntryId,
    k: usize,
    hashed: bool,
    started: bool,
}

impl ScatterWorker {
    fn chunk_lo(&self) -> usize {
        self.t * self.per_pe / self.h
    }

    fn chunk_hi(&self) -> usize {
        (self.t + 1) * self.per_pe / self.h
    }
}

impl ThreadBody for ScatterWorker {
    fn name(&self) -> &'static str {
        "histogram-scatter"
    }

    fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        if !self.started {
            self.started = true;
            self.k = self.chunk_lo();
        }
        if self.k == self.chunk_hi() {
            return Action::End;
        }
        if !self.hashed {
            // The hash + address computation around the send.
            self.hashed = true;
            return Action::Work {
                cycles: self.params.hash_cycles,
                kind: WorkKind::Overhead,
            };
        }
        self.hashed = false;
        let key = ctx
            .mem
            .read(layout::keys_base(self.buckets_per_pe) + self.k as u32)
            .expect("key block within configured memory");
        let bucket = bucket_of(key, self.buckets_per_pe * ctx.npes as usize);
        let owner = (bucket / self.buckets_per_pe) as u16;
        let offset = layout::BUCKETS + (bucket % self.buckets_per_pe) as u32;
        self.k += 1;
        Action::Spawn {
            pe: PeId(owner),
            entry: self.inc_entry,
            arg: offset,
        }
    }
}

/// The remote read-modify-write cell: a two-step thread that bumps the
/// local counter named by its argument (atomically — a thread step is
/// indivisible) and ends.
struct Increment {
    cost: u32,
    done: bool,
}

impl ThreadBody for Increment {
    fn name(&self) -> &'static str {
        "histogram-increment"
    }

    fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        if self.done {
            return Action::End;
        }
        self.done = true;
        let cell = ctx.arg;
        let v = ctx.mem.read(cell).expect("bucket cell within memory");
        ctx.mem
            .write(cell, v.wrapping_add(1))
            .expect("bucket cell within memory");
        Action::Work {
            cycles: self.cost,
            kind: WorkKind::Compute,
        }
    }
}

/// Validate parameters against a machine configuration.
fn validate(cfg: &MachineConfig, params: &HistogramParams) -> Result<usize, SimError> {
    let p = cfg.num_pes;
    let fail = |reason: String| Err(SimError::Workload { reason });
    if params.n == 0 || params.n % p != 0 {
        return fail(format!("n={} not divisible by P={p}", params.n));
    }
    let per_pe = params.n / p;
    if params.threads == 0 || params.threads > per_pe {
        return fail(format!("h={} must be in 1..={per_pe}", params.threads));
    }
    if params.buckets_per_pe == 0 {
        return fail("need at least one bucket per processor".into());
    }
    if layout::words_needed(params.buckets_per_pe, per_pe) > cfg.local_memory_words {
        return fail(format!(
            "{} keys + {} buckets need {} words, machine has {}",
            per_pe,
            params.buckets_per_pe,
            layout::words_needed(params.buckets_per_pe, per_pe),
            cfg.local_memory_words
        ));
    }
    Ok(per_pe)
}

/// Run the histogram on the given machine configuration, verify the counts
/// against a sequential reference, and return the measurements.
///
/// # Examples
///
/// ```
/// use emx_core::MachineConfig;
/// use emx_workloads::{run_histogram, HistogramParams};
///
/// let mut cfg = MachineConfig::with_pes(4);
/// cfg.local_memory_words = 1 << 12;
/// let out = run_histogram(&cfg, &HistogramParams::new(256, 2)).unwrap();
/// // Every key landed in exactly one of the 4 * 16 bucket cells.
/// assert_eq!(out.counts.len(), 64);
/// assert_eq!(out.counts.iter().map(|&c| c as u64).sum::<u64>(), 256);
/// ```
pub fn run_histogram(
    cfg: &MachineConfig,
    params: &HistogramParams,
) -> Result<HistogramOutcome, SimError> {
    run_histogram_observed(cfg, params, |_| {})
}

/// [`run_histogram`] with an observation hook: `setup` receives the
/// freshly built machine before anything is loaded or spawned, so it can
/// attach a probe and see the complete event stream of the run.
pub fn run_histogram_observed(
    cfg: &MachineConfig,
    params: &HistogramParams,
    setup: impl FnOnce(&mut Machine),
) -> Result<HistogramOutcome, SimError> {
    let p = cfg.num_pes;
    let per_pe = validate(cfg, params)?;
    let h = params.threads;
    let bpp = params.buckets_per_pe;

    let mut machine = Machine::new(cfg.clone())?;
    setup(&mut machine);

    // Blocked key distribution, zeroed counters.
    let input = keys(params.n, params.dist, params.seed);
    for pe in 0..p {
        let mem = machine.mem_mut(PeId(pe as u16))?;
        mem.write_slice(layout::BUCKETS, &vec![0u32; bpp])?;
        mem.write_slice(
            layout::keys_base(bpp),
            &input[pe * per_pe..(pe + 1) * per_pe],
        )?;
    }

    let inc_cost = cfg.costs.mem_exchange;
    let inc_entry = machine.register_entry("histogram-increment", move |_pe, _arg| {
        Box::new(Increment {
            cost: inc_cost,
            done: false,
        })
    });
    let worker_params = params.clone();
    let entry = machine.register_entry("histogram-scatter", move |_pe, arg| {
        Box::new(ScatterWorker {
            t: arg as usize,
            h: worker_params.threads,
            per_pe,
            buckets_per_pe: worker_params.buckets_per_pe,
            params: worker_params.clone(),
            inc_entry,
            k: 0,
            hashed: false,
            started: false,
        })
    });
    for pe in 0..p {
        for t in 0..h {
            machine.spawn_at_start(PeId(pe as u16), entry, t as u32)?;
        }
    }

    // run() quiesces only after every in-flight increment has drained —
    // the kernel's only synchronization.
    let report = machine.run()?;

    // Gather and verify against a sequential reference.
    let mut counts = Vec::with_capacity(p * bpp);
    for pe in 0..p {
        counts.extend_from_slice(
            &machine
                .mem(PeId(pe as u16))?
                .read_slice(layout::BUCKETS, bpp)?,
        );
    }
    let mut expect = vec![0u32; p * bpp];
    for &key in &input {
        expect[bucket_of(key, p * bpp)] += 1;
    }
    if counts != expect {
        return Err(SimError::Workload {
            reason: "histogram counts disagree with the sequential reference".into(),
        });
    }
    Ok(HistogramOutcome { report, counts })
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
    fn counts_match_across_machine_sizes_and_thread_counts() {
        for p in [1usize, 2, 4, 8] {
            for h in [1usize, 2, 4] {
                let params = HistogramParams::new(p * 64, h);
                let out =
                    run_histogram(&cfg(p), &params).unwrap_or_else(|e| panic!("P={p} h={h}: {e}"));
                assert_eq!(out.counts.len(), p * params.buckets_per_pe);
            }
        }
    }

    #[test]
    fn every_distribution_verifies() {
        for dist in [
            KeyDist::Uniform,
            KeyDist::Sorted,
            KeyDist::Reverse,
            KeyDist::Gaussian,
            KeyDist::Constant,
        ] {
            let mut params = HistogramParams::new(256, 2);
            params.dist = dist;
            run_histogram(&cfg(4), &params).unwrap_or_else(|e| panic!("{dist:?}: {e}"));
        }
    }

    #[test]
    fn updates_travel_as_spawn_packets_not_reads() {
        let out = run_histogram(&cfg(4), &HistogramParams::new(256, 2)).unwrap();
        assert_eq!(out.report.total_reads(), 0, "no remote reads at all");
        assert!(out.report.total_packets() > 0, "updates cross the network");
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(
            run_histogram(&cfg(4), &HistogramParams::new(101, 1)).is_err(),
            "n % P != 0"
        );
        assert!(
            run_histogram(&cfg(4), &HistogramParams::new(8, 3)).is_err(),
            "h > n/P"
        );
        let mut small = cfg(4);
        small.local_memory_words = 80;
        assert!(
            run_histogram(&small, &HistogramParams::new(256, 1)).is_err(),
            "memory"
        );
        let mut params = HistogramParams::new(256, 1);
        params.buckets_per_pe = 0;
        assert!(run_histogram(&cfg(4), &params).is_err(), "zero buckets");
    }

    #[test]
    fn deterministic_across_runs() {
        let params = HistogramParams::new(512, 4);
        let a = run_histogram(&cfg(4), &params).unwrap();
        let b = run_histogram(&cfg(4), &params).unwrap();
        assert_eq!(a.report.elapsed, b.report.elapsed);
        assert_eq!(a.report.total_packets(), b.report.total_packets());
        assert_eq!(a.counts, b.counts);
    }
}
