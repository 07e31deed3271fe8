//! The five benchmark workloads and one closed-loop rep of each.
//!
//! Every workload is built from the `--seed` alone; the simulator only
//! ever sees the generated specs and parameters. Each one stresses a
//! different layer (the README has the full layer table):
//!
//! * `sort-p64` — the densest event stream (calendar, dispatch, thread
//!   bodies, allocation);
//! * `fft-p64` — compute-dominated, so per-event savings show least;
//! * `bfs-mesh-p64` — data-dependent reads over a multi-hop fabric, where
//!   routing costs several times more per packet than on Omega;
//! * `fft-digest-p64` — the observed path `emx-cli run fft` takes, with a
//!   `DigestProbe` attached and a large-memory machine to build;
//! * `sweep-p16` — many small machines through `SweepEngine`, so build,
//!   verify, engine and cache work dominate.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

use emx::core::{MachineConfig, NetModelKind, SimError};
use emx::obs::DigestProbe;
use emx::runtime::Machine;
use emx::stats::{report_digest, Digest128, RunReport};
use emx::sweep::{RunCache, RunSpec, SweepEngine, Workload as Kernel};
use emx::workloads::{
    run_bfs_observed, run_bitonic_observed, run_fft_observed, run_histogram_observed,
    run_spmv_observed, run_stencil_observed, BfsParams, FftParams, HistogramParams, SortParams,
    SpmvParams, StencilParams,
};

/// Workload names, in the order `run` and `trace` execute them.
pub const NAMES: [&str; 5] = [
    "sort-p64",
    "fft-p64",
    "bfs-mesh-p64",
    "fft-digest-p64",
    "sweep-p16",
];

/// Sweep worker threads (`sweep-p16`), never more than the host has.
fn sweep_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// `Machine::new` calls per setup sample for single-machine workloads; a
/// `sweep-p16` sample builds each of its machines once.
const SETUP_CALLS: usize = 3;

/// What one workload runs.
#[allow(clippy::large_enum_variant)] // one value per process
pub enum Kind {
    /// One machine per rep. `live_digest` attaches a `DigestProbe`, as
    /// `emx-cli run` does, and makes its digest part of the fingerprint.
    Single {
        spec: RunSpec,
        cfg: MachineConfig,
        live_digest: bool,
    },
    /// The `figures workloads standard` grid through `SweepEngine`: a cold
    /// pass into a fresh cache, then a warm pass that must hit on every
    /// point.
    Sweep(Vec<RunSpec>),
}

/// A named workload, fully determined by its seed.
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

/// The outcome of one rep: its wall time, its simulated cycles, the
/// fingerprints a host-speed change must leave byte-identical, and how
/// many of its points failed.
pub struct Rep {
    pub secs: f64,
    pub cycles: u64,
    pub fingerprints: Vec<(&'static str, String)>,
    pub points: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Workload {
    /// The workload called `name`, with inputs generated from `seed`.
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        let seeded = |mut spec: RunSpec| {
            spec.seed = Some(seed);
            spec
        };
        let single = |spec: RunSpec| Kind::Single {
            cfg: spec.machine_config(),
            spec,
            live_digest: false,
        };
        let kind = match name {
            "sort-p64" => single(seeded(RunSpec::new(Kernel::Sort, 64, 512, 4))),
            "fft-p64" => single(seeded(RunSpec::new(Kernel::Fft, 64, 512, 4))),
            "bfs-mesh-p64" => {
                let mut spec = RunSpec::new(Kernel::Bfs, 64, 256, 4);
                spec.seed = Some(bfs_seed(seed, spec.n()));
                spec.net_model = NetModelKind::Mesh2D;
                single(spec)
            }
            "fft-digest-p64" => {
                // `emx-cli run fft` defaults: the full transform of n = 4096
                // points on 64 PEs at h = 4, with 2^18-word memories.
                let mut spec = seeded(RunSpec::new(Kernel::Fft, 64, 64, 4));
                spec.comm_only = false;
                let mut cfg = MachineConfig::with_pes(64);
                cfg.local_memory_words = 1 << 18;
                Kind::Single {
                    spec,
                    cfg,
                    live_digest: true,
                }
            }
            "sweep-p16" => Kind::Sweep(standard_grid(seed)),
            _ => return None,
        };
        let name = NAMES.iter().find(|n| **n == name)?;
        Some(Workload { name, kind })
    }

    /// The machine configurations one setup sample builds, and how many
    /// times it builds each.
    pub fn setup_plan(&self) -> (Vec<MachineConfig>, usize) {
        match &self.kind {
            Kind::Single { cfg, .. } => (vec![cfg.clone()], SETUP_CALLS),
            Kind::Sweep(specs) => (specs.iter().map(RunSpec::machine_config).collect(), 1),
        }
    }

    /// Every (spec, config) pair a rep executes, for the traced replays.
    pub fn runs(&self) -> Vec<(RunSpec, MachineConfig)> {
        match &self.kind {
            Kind::Single { spec, cfg, .. } => vec![(spec.clone(), cfg.clone())],
            Kind::Sweep(specs) => specs
                .iter()
                .map(|s| (s.clone(), s.machine_config()))
                .collect(),
        }
    }

    /// The `report_digest` fingerprint of one rep's report digests, in run
    /// order: the digest itself for one machine, a digest over all of them
    /// for a sweep.
    pub fn fingerprint_reports(&self, digests: &[String]) -> String {
        match &self.kind {
            Kind::Single { .. } => digests.concat(),
            Kind::Sweep(_) => digest_of(digests),
        }
    }

    /// Whether the workload's own path carries a live trace digest.
    pub fn live_digest(&self) -> bool {
        matches!(
            self.kind,
            Kind::Single {
                live_digest: true,
                ..
            }
        )
    }

    /// Run one closed-loop rep. `scratch` holds the sweep's fresh cache
    /// directory, created and removed inside the rep.
    pub fn rep(&self, scratch: &Path) -> Rep {
        match &self.kind {
            Kind::Single {
                spec,
                cfg,
                live_digest,
            } => single_rep(spec, cfg, *live_digest),
            Kind::Sweep(specs) => sweep_rep(specs, scratch).0,
        }
    }

    /// A `sweep-p16` rep that also returns the wall time of its cold and
    /// warm passes and the warm pass's cache hits (the traced run's
    /// sweep-layer numbers). `None` for single-machine workloads.
    pub fn sweep_passes(&self, scratch: &Path) -> Option<(Rep, SweepPasses)> {
        match &self.kind {
            Kind::Sweep(specs) => Some(sweep_rep(specs, scratch)),
            Kind::Single { .. } => None,
        }
    }
}

/// BFS depth every `bfs-mesh-p64` graph must have.
const BFS_LEVELS: u32 = 9;

/// The graph seed `bfs-mesh-p64` uses for benchmark seed `seed`: the first
/// of the seed's candidates whose graph BFS from vertex 0 covers in
/// exactly [`BFS_LEVELS`] levels, reaching all but 1% of its `n` vertices.
/// A degree-4 random graph can leave vertex 0 with almost no successors,
/// and then the search ends after a few levels and does a fraction of the
/// work. Filtering on depth and reach lets the seed vary the graph while
/// the amount of work stays the same.
fn bfs_seed(seed: u64, n: usize) -> u64 {
    let degree = BfsParams::new(n, 1).degree;
    (0u64..)
        .map(|i| (seed << 16) ^ i)
        .find(|&s| {
            let (levels, reached) = bfs_shape(n, degree, s);
            levels == BFS_LEVELS && reached * 100 >= n * 99
        })
        .expect("some candidate graph has the usual shape")
}

/// Levels and vertices reached by level-synchronous BFS from vertex 0 over
/// the predecessor lists the workload draws for `seed`.
fn bfs_shape(n: usize, degree: usize, seed: u64) -> (u32, usize) {
    let preds = emx::workloads::gen::indices(n * degree, n, seed);
    let mut dist = vec![u32::MAX; n];
    dist[0] = 0;
    let (mut level, mut reached) = (0, 1);
    loop {
        let mut changed = false;
        for v in 0..n {
            if dist[v] == u32::MAX
                && preds[v * degree..(v + 1) * degree]
                    .iter()
                    .any(|&p| dist[p as usize] == level)
            {
                dist[v] = level + 1;
                reached += 1;
                changed = true;
            }
        }
        if !changed {
            return (level, reached);
        }
        level += 1;
    }
}

/// The `figures workloads standard` grid: every kernel at its standard
/// smallest per-PE size on Omega, a 2D mesh and a 4-ary fat-tree, at
/// h = 1, 2, 4 on 16 PEs — 54 points.
fn standard_grid(seed: u64) -> Vec<RunSpec> {
    let nets = [
        NetModelKind::CircularOmega,
        NetModelKind::Mesh2D,
        NetModelKind::FatTree { arity: 4 },
    ];
    let mut specs = Vec::new();
    for w in Kernel::all() {
        let per_pe = match w {
            Kernel::Sort | Kernel::Fft => 512,
            Kernel::Spmv => 64,
            Kernel::Bfs | Kernel::Histogram | Kernel::Stencil => 128,
        };
        for net in nets {
            for h in [1, 2, 4] {
                let mut s = RunSpec::new(w, 16, per_pe, h);
                s.net_model = net;
                s.seed = Some(seed);
                specs.push(s);
            }
        }
    }
    specs
}

/// Execute `spec` on `cfg` through the workload's public `run_*_observed`
/// entry point, handing the freshly built machine to `setup` (where a
/// probe is attached). Builds the same parameters as `RunSpec::execute`,
/// which a unit test pins; `cfg` may differ from `spec.machine_config()`
/// (the large-memory `fft-digest-p64` machine).
pub fn run_observed(
    spec: &RunSpec,
    cfg: &MachineConfig,
    setup: impl FnOnce(&mut Machine),
) -> Result<RunReport, SimError> {
    let (n, h) = (spec.n(), spec.threads);
    macro_rules! seeded {
        ($params:expr) => {{
            let mut p = $params;
            if let Some(seed) = spec.seed {
                p.seed = seed;
            }
            p
        }};
    }
    match spec.workload {
        Kernel::Sort => {
            let mut p = seeded!(SortParams::new(n, h));
            p.block_read = spec.block_read;
            run_bitonic_observed(cfg, &p, setup).map(|o| o.report)
        }
        Kernel::Fft => {
            let mut p = seeded!(if spec.comm_only {
                FftParams::comm_only(n, h)
            } else {
                FftParams::new(n, h)
            });
            if let Some(pc) = spec.point_cycles {
                p.point_cycles = pc;
            }
            run_fft_observed(cfg, &p, setup).map(|o| o.report)
        }
        Kernel::Bfs => {
            run_bfs_observed(cfg, &seeded!(BfsParams::new(n, h)), setup).map(|o| o.report)
        }
        Kernel::Histogram => {
            run_histogram_observed(cfg, &seeded!(HistogramParams::new(n, h)), setup)
                .map(|o| o.report)
        }
        Kernel::Spmv => {
            run_spmv_observed(cfg, &seeded!(SpmvParams::new(n, h)), setup).map(|o| o.report)
        }
        Kernel::Stencil => {
            run_stencil_observed(cfg, &seeded!(StencilParams::new(n, h)), setup).map(|o| o.report)
        }
    }
}

fn single_rep(spec: &RunSpec, cfg: &MachineConfig, live_digest: bool) -> Rep {
    let (probe, handle) = live_digest.then(DigestProbe::new).unzip();
    let t0 = Instant::now();
    let out = run_observed(spec, cfg, |m| {
        if let Some(p) = probe {
            m.attach_probe(Box::new(p));
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    match out {
        Ok(report) => {
            let mut fingerprints = vec![
                ("sim_cycles", report.elapsed.get().to_string()),
                ("report_digest", report_digest(&report)),
            ];
            if let Some(h) = handle {
                fingerprints.push(("trace_digest", h.hex()));
            }
            Rep {
                secs,
                cycles: report.elapsed.get(),
                fingerprints,
                points: 1,
                failed: 0,
                errors: Vec::new(),
            }
        }
        Err(e) => Rep {
            secs,
            cycles: 0,
            fingerprints: Vec::new(),
            points: 1,
            failed: 1,
            errors: vec![format!("{}: {e}", spec.label())],
        },
    }
}

/// One digest over a sweep's per-point report digests, in grid order.
fn digest_of(digests: &[String]) -> String {
    let mut d = Digest128::new();
    for x in digests {
        d.write_str(x);
    }
    d.hex()
}

/// Wall time of a sweep rep's two passes, the warm pass's cache hits,
/// and the worker threads the engine used.
pub struct SweepPasses {
    pub jobs: usize,
    pub cold_secs: f64,
    pub warm_secs: f64,
    pub warm_hits: usize,
}

fn sweep_rep(specs: &[RunSpec], scratch: &Path) -> (Rep, SweepPasses) {
    let dir = scratch.join(format!("sweep-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = SweepEngine::new()
        .jobs(sweep_jobs())
        .quiet(true)
        .cache(Some(RunCache::new(&dir)));

    let t0 = Instant::now();
    let cold = engine.run(specs.to_vec());
    let t1 = Instant::now();
    let warm = engine.run(specs.to_vec());
    let t2 = Instant::now();
    let _ = std::fs::remove_dir_all(&dir);

    let mut failed = BTreeSet::new();
    let mut errors = Vec::new();
    for f in cold.failed.iter().chain(&warm.failed) {
        failed.insert(f.index);
        errors.push(format!("{}: {}", f.spec.label(), f.error));
    }
    if failed.is_empty() {
        // A warm point must come from the cache and equal its cold twin.
        for (i, (c, w)) in cold.points.iter().zip(&warm.points).enumerate() {
            if !w.cached || c.report != w.report {
                failed.insert(i);
                errors.push(format!("{}: warm pass diverged from cold", c.spec.label()));
            }
        }
    }
    let digests: Vec<String> = cold
        .points
        .iter()
        .map(|pt| report_digest(&pt.report))
        .collect();
    let cycles: u64 = cold.points.iter().map(|pt| pt.report.elapsed.get()).sum();
    let rep = Rep {
        secs: (t2 - t0).as_secs_f64(),
        cycles,
        fingerprints: vec![
            ("sim_cycles", cycles.to_string()),
            ("report_digest", digest_of(&digests)),
        ],
        points: specs.len() as u64,
        failed: failed.len() as u64,
        errors,
    };
    let passes = SweepPasses {
        jobs: cold.jobs,
        cold_secs: (t1 - t0).as_secs_f64(),
        warm_secs: (t2 - t1).as_secs_f64(),
        warm_hits: warm.cache_hits,
    };
    (rep, passes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observed_runner_matches_runspec_execute() {
        for w in Kernel::all() {
            let mut spec = RunSpec::new(w, 4, 64, 2);
            spec.seed = Some(3);
            let via_spec = spec.execute().expect("spec executes");
            let via_hook = run_observed(&spec, &spec.machine_config(), |_| {}).expect("runs");
            assert_eq!(via_spec, via_hook, "{}", w.name());
        }
    }

    #[test]
    fn the_seed_reaches_every_spec() {
        for name in NAMES {
            let seeds = |seed| -> Vec<Option<u64>> {
                let w = Workload::new(name, seed).expect("known workload");
                w.runs().iter().map(|(s, _)| s.seed).collect()
            };
            let (a, b) = (seeds(1), seeds(2));
            assert_eq!(a, seeds(1), "{name}: one seed, one input");
            assert_eq!(a.len(), b.len());
            assert!(
                a.iter().zip(&b).all(|(x, y)| x.is_some() && x != y),
                "{name}"
            );
        }
        assert!(Workload::new("nope", 1).is_none());
    }

    #[test]
    fn bfs_graphs_share_one_shape() {
        for seed in 1..=10 {
            let s = bfs_seed(seed, 16384);
            let (levels, reached) = bfs_shape(16384, 4, s);
            assert_eq!(levels, BFS_LEVELS);
            assert!(reached * 100 >= 16384 * 99);
            // Candidates of different seeds never coincide.
            assert_eq!(s >> 16, seed);
        }
    }

    #[test]
    fn sweep_grid_is_the_standard_54_points() {
        let w = Workload::new("sweep-p16", 1).unwrap();
        assert_eq!(w.runs().len(), 54);
        assert_eq!(w.setup_plan().0.len(), 54);
        assert!(w.runs().iter().all(|(s, _)| s.pes == 16));
    }
}
