//! [`RunSpec`]: one fully-described simulation run.
//!
//! A sweep is a list of `RunSpec`s; each spec carries *everything* that
//! influences the simulated result — workload, shape, thread count, seed,
//! and every ablation knob — so that (a) executing a spec is a pure
//! function, and (b) hashing a spec (plus the machine configuration it
//! expands to) is a sound cache address.

use emx_core::{CostPreset, FaultSpec, MachineConfig, NetModelKind, ServiceMode, SimError};
use emx_runtime::Machine;
use emx_stats::RunReport;
use emx_workloads::{
    run, BfsParams, FftParams, HistogramParams, SortParams, SpmvParams, StencilParams,
};

/// Which workload a spec runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Multithreaded bitonic sorting.
    Sort,
    /// Multithreaded FFT, first log P iterations (the paper's setup).
    Fft,
    /// Breadth-first search over a distributed random graph.
    Bfs,
    /// Histogram with spawned remote read-modify-write increments.
    Histogram,
    /// Sparse matrix–vector product with per-nonzero remote gathers.
    Spmv,
    /// 2D five-point stencil with block-read halo exchange. Requires
    /// `per_pe` divisible by the grid width (32 at the calibrated
    /// default).
    Stencil,
}

impl Workload {
    /// Display name (also used in CSV file names and provenance sidecars).
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sort => "bitonic-sort",
            Workload::Fft => "fft",
            Workload::Bfs => "bfs",
            Workload::Histogram => "histogram",
            Workload::Spmv => "spmv",
            Workload::Stencil => "stencil",
        }
    }

    /// Parse a CLI word.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "sort" | "bitonic" | "bitonic-sort" => Some(Workload::Sort),
            "fft" => Some(Workload::Fft),
            "bfs" => Some(Workload::Bfs),
            "histogram" | "hist" => Some(Workload::Histogram),
            "spmv" => Some(Workload::Spmv),
            "stencil" => Some(Workload::Stencil),
            _ => None,
        }
    }

    /// Every workload, in the order figures enumerate them.
    pub fn all() -> [Workload; 6] {
        [
            Workload::Sort,
            Workload::Fft,
            Workload::Bfs,
            Workload::Histogram,
            Workload::Spmv,
            Workload::Stencil,
        ]
    }
}

/// One swept configuration: workload, shape, and every knob that can vary
/// across the figure and ablation sweeps.
///
/// Knobs default to the paper-baseline behaviour of the figure harness;
/// the ablation regenerators override individual fields. `seed` and
/// `point_cycles` default to `None`, meaning "the workload's calibrated
/// default" — keeping them out of the spec unless explicitly overridden
/// makes the cache address independent of where the default is written
/// down (the workload defaults are part of the hashed config digest via
/// the crate version).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpec {
    /// Workload to run.
    pub workload: Workload,
    /// Number of processors.
    pub pes: usize,
    /// Elements (sort keys / FFT points) per processor; total n is
    /// `per_pe * pes`.
    pub per_pe: usize,
    /// Threads per processor, the paper's h.
    pub threads: usize,
    /// PRNG seed override; `None` uses the workload's calibrated default.
    pub seed: Option<u64>,
    /// For FFT: run only the first log P (communication) iterations, the
    /// paper's measurement setup. Ignored by sorting.
    pub comm_only: bool,
    /// For sorting: use the block-read send instruction instead of
    /// per-element reads. Ignored by the FFT.
    pub block_read: bool,
    /// For FFT: override the per-point computation charge (the run-length
    /// sensitivity sweep). `None` uses the calibrated default.
    pub point_cycles: Option<u32>,
    /// Remote-read servicing mode (EM-X by-pass DMA vs EM-4 EXU thread).
    pub service_mode: ServiceMode,
    /// Place read responses in the high-priority IBU FIFO.
    pub priority_read_responses: bool,
    /// Network model routing the packets.
    pub net_model: NetModelKind,
    /// Cost-model preset: the paper's calibrated charges, or the modern
    /// latency/bandwidth ratio.
    pub preset: CostPreset,
    /// Fault-injection plan; `None` is the paper's lossless machine. A
    /// `Some` spec that [`FaultSpec::is_noop`]s still arms the fault
    /// machinery (and so reports a zeroed fault summary) — callers wanting
    /// byte-identical baselines pass `None`.
    pub faults: Option<FaultSpec>,
}

impl RunSpec {
    /// A paper-baseline spec: by-pass DMA, circular Omega network, uniform
    /// priority, per-element reads, FFT in communication-only mode.
    pub fn new(workload: Workload, pes: usize, per_pe: usize, threads: usize) -> RunSpec {
        RunSpec {
            workload,
            pes,
            per_pe,
            threads,
            seed: None,
            comm_only: true,
            block_read: false,
            point_cycles: None,
            service_mode: ServiceMode::BypassDma,
            priority_read_responses: false,
            net_model: NetModelKind::CircularOmega,
            preset: CostPreset::Paper,
            faults: None,
        }
    }

    /// Total elements/points.
    pub fn n(&self) -> usize {
        self.per_pe * self.pes
    }

    /// The seed the run will actually use.
    pub fn effective_seed(&self) -> u64 {
        self.seed.unwrap_or(match self.workload {
            Workload::Sort => SortParams::new(2, 1).seed,
            Workload::Fft => FftParams::new(2, 1).seed,
            Workload::Bfs => BfsParams::new(2, 1).seed,
            Workload::Histogram => HistogramParams::new(2, 1).seed,
            Workload::Spmv => SpmvParams::new(2, 1).seed,
            Workload::Stencil => StencilParams::new(2, 1).seed,
        })
    }

    /// The machine configuration this spec expands to: paper-default EM-X
    /// with memory sized to the largest block the sweep needs (sort needs
    /// 3 blocks + control, FFT 4, spmv holds its nonzeros — round up
    /// generously), plus the spec's ablation knobs.
    pub fn machine_config(&self) -> MachineConfig {
        let mut cfg = MachineConfig::with_pes(self.pes);
        let words_per_element = match self.workload {
            // 8 nonzeros per row, two words each, plus vector slabs.
            Workload::Spmv => 20,
            _ => 6,
        };
        cfg.local_memory_words = (self.per_pe * words_per_element + 256).next_power_of_two();
        cfg.service_mode = self.service_mode;
        cfg.priority_read_responses = self.priority_read_responses;
        cfg.net.model = self.net_model;
        cfg.faults = self.faults.clone();
        self.preset.apply(&mut cfg);
        cfg
    }

    /// Run the simulation this spec describes. Pure: the result depends
    /// only on the spec (plus the crate versions of the simulator).
    pub fn execute(&self) -> Result<RunReport, SimError> {
        self.execute_on(&self.machine_config(), |_| {})
    }

    /// Run this spec's kernel on `cfg` instead of [`RunSpec::machine_config`]
    /// — `attach` receives the freshly built machine before anything is
    /// loaded or spawned, so it can fit a probe. The workspace's one place
    /// a kernel's parameters are built, each then run by
    /// [`emx_workloads::run`]: the kernel, n, h, seed, `comm_only`,
    /// `block_read` and `point_cycles` come from the spec; the machine, and
    /// so the spec's service-mode, network, preset and fault knobs, from
    /// `cfg`.
    pub fn execute_on(
        &self,
        cfg: &MachineConfig,
        attach: impl FnOnce(&mut Machine),
    ) -> Result<RunReport, SimError> {
        let (n, h) = (self.n(), self.threads);
        let seed = |default| self.seed.unwrap_or(default);
        match self.workload {
            Workload::Sort => {
                let mut p = SortParams::new(n, h);
                p.seed = seed(p.seed);
                p.block_read = self.block_read;
                run(cfg, &p, attach).map(|o| o.report)
            }
            Workload::Fft => {
                let mut p = if self.comm_only {
                    FftParams::comm_only(n, h)
                } else {
                    FftParams::new(n, h)
                };
                p.seed = seed(p.seed);
                p.point_cycles = self.point_cycles.unwrap_or(p.point_cycles);
                run(cfg, &p, attach).map(|o| o.report)
            }
            Workload::Bfs => {
                let mut p = BfsParams::new(n, h);
                p.seed = seed(p.seed);
                run(cfg, &p, attach).map(|o| o.report)
            }
            Workload::Histogram => {
                let mut p = HistogramParams::new(n, h);
                p.seed = seed(p.seed);
                run(cfg, &p, attach).map(|o| o.report)
            }
            Workload::Spmv => {
                let mut p = SpmvParams::new(n, h);
                p.seed = seed(p.seed);
                run(cfg, &p, attach).map(|o| o.report)
            }
            Workload::Stencil => {
                let mut p = StencilParams::new(n, h);
                p.seed = seed(p.seed);
                run(cfg, &p, attach).map(|o| o.report)
            }
        }
    }

    /// One-line human-readable summary, used in progress lines.
    pub fn label(&self) -> String {
        format!(
            "{} P={} n/P={} h={}",
            self.workload.name(),
            self.pes,
            self.per_pe,
            self.threads
        )
    }

    /// Canonical, versioned text rendering — the spec half of the cache
    /// key. Every field appears exactly once; bump the version tag when a
    /// field is added so old cache entries can never alias new specs.
    pub fn canonical(&self) -> String {
        format!(
            "emx-spec v3\n\
             workload={} pes={} per_pe={} threads={}\n\
             seed={} comm_only={} block_read={} point_cycles={}\n\
             service_mode={:?} priority_read_responses={} net_model={:?} preset={}\n\
             {}\n",
            self.workload.name(),
            self.pes,
            self.per_pe,
            self.threads,
            match self.seed {
                Some(s) => s.to_string(),
                None => "default".into(),
            },
            self.comm_only,
            self.block_read,
            match self.point_cycles {
                Some(c) => c.to_string(),
                None => "default".into(),
            },
            self.service_mode,
            self.priority_read_responses,
            self.net_model,
            self.preset.name(),
            match &self.faults {
                Some(f) => f.canonical(),
                None => "faults: none".into(),
            },
        )
    }
}

/// Canonical, versioned text rendering of the parts of a [`MachineConfig`]
/// that influence simulated results — the config half of the cache key.
/// Listing fields explicitly (rather than a `Debug` dump) makes additions
/// deliberate: a new cost field must be added here to invalidate caches.
pub fn config_canonical(cfg: &MachineConfig) -> String {
    let c = &cfg.costs;
    format!(
        "emx-config v3\n\
         num_pes={} clock_hz={} local_memory_words={} ibu_fifo={} frames={}\n\
         service_mode={:?} priority_read_responses={}\n\
         costs: context_switch={} send_packet={} dma_service={} ibu_spill={} obu_forward={} \
         fdiv={} mem_exchange={} barrier_poll_interval={}\n\
         net: model={:?} port_service={} hop_cycles={}\n\
         {}\n",
        cfg.num_pes,
        cfg.clock_hz,
        cfg.local_memory_words,
        cfg.ibu_fifo_capacity,
        cfg.frames_per_pe,
        cfg.service_mode,
        cfg.priority_read_responses,
        c.context_switch,
        c.send_packet,
        c.dma_service,
        c.ibu_spill,
        c.obu_forward,
        c.fdiv,
        c.mem_exchange,
        c.barrier_poll_interval,
        cfg.net.model,
        cfg.net.port_service,
        cfg.net.hop_cycles,
        match &cfg.faults {
            Some(f) => f.canonical(),
            None => "faults: none".into(),
        },
    )
}

/// Expand a sweep grid — the cartesian product of per-PE sizes and thread
/// counts for one workload and processor count — into specs in **grid
/// order**: size-major, thread-minor. With ascending sizes this is the
/// ascending (n, h) order every figure CSV uses; the engine returns
/// results in exactly this order regardless of worker count.
pub fn grid(
    workload: Workload,
    pes: usize,
    per_pe_sizes: &[usize],
    threads: &[usize],
) -> Vec<RunSpec> {
    per_pe_sizes
        .iter()
        .flat_map(|&per_pe| {
            threads
                .iter()
                .map(move |&h| RunSpec::new(workload, pes, per_pe, h))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_size_major_thread_minor() {
        let g = grid(Workload::Sort, 4, &[64, 128], &[1, 2]);
        let shape: Vec<(usize, usize)> = g.iter().map(|s| (s.per_pe, s.threads)).collect();
        assert_eq!(shape, vec![(64, 1), (64, 2), (128, 1), (128, 2)]);
        assert!(g.iter().all(|s| s.pes == 4 && s.workload == Workload::Sort));
    }

    #[test]
    fn canonical_covers_every_knob() {
        let mut a = RunSpec::new(Workload::Fft, 16, 512, 4);
        let base = a.canonical();
        a.block_read = true;
        assert_ne!(base, a.canonical());
        a.block_read = false;
        a.seed = Some(7);
        assert_ne!(base, a.canonical());
        a.seed = None;
        a.point_cycles = Some(10);
        assert_ne!(base, a.canonical());
        a.point_cycles = None;
        a.service_mode = ServiceMode::ExuThread;
        assert_ne!(base, a.canonical());
        a.service_mode = ServiceMode::BypassDma;
        a.net_model = NetModelKind::Ideal { latency: 5 };
        assert_ne!(base, a.canonical());
        a.net_model = NetModelKind::CircularOmega;
        a.preset = CostPreset::Modern;
        assert_ne!(base, a.canonical());
        a.preset = CostPreset::Paper;
        a.faults = Some(FaultSpec::with_loss(3, 10_000));
        assert_ne!(base, a.canonical());
        a.faults = None;
        assert_eq!(base, a.canonical());
    }

    #[test]
    fn machine_config_sizes_memory_and_pes_per_workload() {
        // Part of the cache key: memory is (per_pe · words + 256) rounded
        // up to a power of two, with 20 words per element for spmv's
        // nonzeros and 6 for every other workload.
        for w in Workload::all() {
            let cfg = RunSpec::new(w, 16, 512, 4).machine_config();
            let mem = if w == Workload::Spmv { 16384 } else { 4096 };
            assert_eq!(cfg.local_memory_words, mem, "{}", w.name());
            assert_eq!(cfg.num_pes, 16);
        }
        let cfg = RunSpec::new(Workload::Fft, 64, 1000, 1).machine_config();
        assert_eq!((cfg.local_memory_words, cfg.num_pes), (8192, 64));
        // Neither the thread count nor (spmv aside) the workload reaches
        // the machine, so a panel's points share one configuration.
        assert_eq!(
            RunSpec::new(Workload::Sort, 16, 512, 1).machine_config(),
            RunSpec::new(Workload::Fft, 16, 512, 4).machine_config()
        );
    }

    #[test]
    fn preset_flows_into_machine_config() {
        let mut spec = RunSpec::new(Workload::Sort, 4, 64, 2);
        let paper = spec.machine_config();
        spec.preset = CostPreset::Modern;
        let modern = spec.machine_config();
        assert_ne!(paper.net.hop_cycles, modern.net.hop_cycles);
        // The preset lands in the config half of the cache key too.
        assert_ne!(config_canonical(&paper), config_canonical(&modern));
    }

    #[test]
    fn every_workload_executes_a_small_spec() {
        for w in Workload::all() {
            // Stencil needs per_pe divisible by its 32-wide grid; 64 works
            // for everyone.
            let spec = RunSpec::new(w, 2, 64, 2);
            let report = spec
                .execute()
                .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert!(report.elapsed.0 > 0, "{} ran no cycles", w.name());
            // `execute` is `execute_on` its own machine, with `attach`
            // seeing the machine exactly once.
            let mut attached = 0;
            let on = spec.execute_on(&spec.machine_config(), |_| attached += 1);
            assert_eq!((attached, on), (1, Ok(report)), "{}", w.name());
        }
    }

    #[test]
    fn faults_flow_into_machine_config_and_cache_address() {
        let mut spec = RunSpec::new(Workload::Sort, 4, 64, 2);
        assert!(spec.machine_config().faults.is_none());
        spec.faults = Some(FaultSpec::with_loss(9, 5_000));
        let cfg = spec.machine_config();
        assert_eq!(cfg.faults, spec.faults);
        let base = config_canonical(&RunSpec::new(Workload::Sort, 4, 64, 2).machine_config());
        assert_ne!(base, config_canonical(&cfg));
    }

    #[test]
    fn config_canonical_tracks_cost_model() {
        let spec = RunSpec::new(Workload::Sort, 4, 64, 1);
        let base = config_canonical(&spec.machine_config());
        let mut cfg = spec.machine_config();
        cfg.costs.context_switch += 1;
        assert_ne!(base, config_canonical(&cfg));
    }

    #[test]
    fn workload_parse_and_names() {
        assert_eq!(Workload::parse("sort"), Some(Workload::Sort));
        assert_eq!(Workload::parse("bitonic-sort"), Some(Workload::Sort));
        assert_eq!(Workload::parse("fft"), Some(Workload::Fft));
        assert_eq!(Workload::parse("mandelbrot"), None);
        assert_eq!(Workload::Sort.name(), "bitonic-sort");
        for w in Workload::all() {
            assert_eq!(
                Workload::parse(w.name()),
                Some(w),
                "{} round-trips",
                w.name()
            );
        }
    }

    #[test]
    fn effective_seed_matches_workload_defaults() {
        let sort = RunSpec::new(Workload::Sort, 4, 64, 1);
        assert_eq!(sort.effective_seed(), SortParams::new(2, 1).seed);
        let mut fft = RunSpec::new(Workload::Fft, 4, 64, 1);
        assert_eq!(fft.effective_seed(), FftParams::new(2, 1).seed);
        fft.seed = Some(42);
        assert_eq!(fft.effective_seed(), 42);
    }
}
