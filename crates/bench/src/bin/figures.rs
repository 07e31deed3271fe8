//! Regenerate every figure of the SPAA'97 EM-X paper as tables + CSV.
//!
//! ```text
//! cargo run --release -p emx-bench --bin figures -- all [quick|standard|full]
//! cargo run --release -p emx-bench --bin figures -- fig6 standard --jobs 4
//! cargo run --release -p emx-bench --bin figures -- fig6 standard --no-cache
//! ```
//!
//! The committed `results/` come from two commands: `figures all standard`,
//! then `figures scaling full`. `all` runs every figure but `scaling`, whose
//! one CSV (`results/scaling_fft.csv`) holds the `full`-scale run out to
//! n = 8M; rerun it only at `full` scale to keep the committed file.
//!
//! Subcommands: `fig4` (the hand-walked scheduling interleaving, checked
//! against a probe-recorded trace and exported for Perfetto — see
//! `docs/OBSERVABILITY.md`), `fig6` (communication time vs threads), `fig7` (overlap
//! efficiency), `fig8` (execution-time breakdown), `fig9` (switch census),
//! `latency` (remote-read latency probe), `model` (analytic model vs
//! simulation), `ablation` (by-pass DMA vs EM-4 servicing), `block`
//! (block-read send instruction), `priority` (two-priority IBU scheduling),
//! `runlength` (computation-to-communication sensitivity), `topology`
//! (network-model ablation), `workloads` (every kernel — regular and
//! irregular — compared across the Omega, 2D-mesh and fat-tree fabrics;
//! see `docs/WORKLOADS.md`), `scaling` (FFT processor-count scaling out to
//! the 1024-PE limit — n = 8M at `full` scale), `all` (every figure but
//! `scaling`).
//!
//! Every sweep runs through the `emx-sweep` engine: points execute in
//! parallel (`--jobs N`, default all host cores), results
//! assemble in grid order so the CSV output is byte-identical at any job
//! count, and each simulated point is cached content-addressed under
//! `results/cache/` (`--no-cache` bypasses it; delete the directory to
//! clear it). Each CSV written to `results/` gets a `.json` provenance
//! sidecar recording the exact specs, seeds, cache keys and report digests
//! behind it — see `docs/SWEEPS.md`.
//!
//! `latency` and `model` are direct single-machine probes (the
//! `emx-workloads` microprobes: an interpreted ISA read loop and the native
//! 12-cycle read loop), not grid sweeps; they run outside the engine and
//! carry no sidecar.

use std::fs;
use std::path::Path;

use emx::prelude::*;
use emx::sweep::{grid, provenance, RunSpec, SweepEngine, SweepOutcome};
use emx_bench::{fmt_n, series_by_size, Point, Scale, Workload};

/// The hostprof counting allocator, as `emx-cli` installs it: both
/// binaries allocate through the path the repository benchmark times.
#[global_allocator]
static ALLOC: emx::hostprof::CountingAlloc = emx::hostprof::CountingAlloc::new();

/// Figure-harness options parsed from the command line.
#[derive(Clone)]
struct Opts {
    scale: Scale,
    jobs: Option<usize>,
    no_cache: bool,
}

impl Opts {
    /// Run specs through an engine configured per the command line:
    /// default cache under `results/cache/` unless `--no-cache`, all host
    /// cores unless `--jobs N`.
    fn sweep(&self, specs: Vec<RunSpec>) -> SweepOutcome {
        let mut e = SweepEngine::new();
        if let Some(j) = self.jobs {
            e = e.jobs(j);
        }
        if self.no_cache {
            e = e.cache(None);
        }
        e.run(specs)
    }
}

fn save_csv(name: &str, table: &Table) -> Option<std::path::PathBuf> {
    let dir = Path::new("results");
    fs::create_dir_all(dir).ok()?;
    let path = dir.join(format!("{name}.csv"));
    fs::write(&path, table.to_csv()).ok()?;
    println!("  [csv] {}", path.display());
    Some(path)
}

/// Write the CSV and its provenance sidecar (same stem, `.json`).
fn save_csv_with_provenance(
    name: &str,
    table: &Table,
    outcome: &SweepOutcome,
    opts: &Opts,
    extra: &[(&str, String)],
) {
    let Some(path) = save_csv(name, table) else {
        return;
    };
    let mut facts = vec![("scale", opts.scale.name().to_string())];
    facts.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    match provenance::write_sidecar(&path, name, outcome, &facts) {
        Ok(side) => println!("  [provenance] {}", side.display()),
        Err(e) => eprintln!("  [provenance] failed for {name}: {e}"),
    }
}

fn to_points(outcome: &SweepOutcome) -> Vec<Point> {
    let mut pts: Vec<Point> = outcome
        .points
        .iter()
        .map(|pt| Point {
            p: pt.spec.pes,
            n: pt.spec.n(),
            h: pt.spec.threads,
            report: pt.report.clone(),
        })
        .collect();
    pts.sort_by_key(|pt| (pt.n, pt.h));
    pts
}

fn sizes_for(w: Workload, scale: Scale) -> Vec<usize> {
    match w {
        Workload::Sort => scale.sort_per_pe(),
        Workload::Fft => scale.fft_per_pe(),
        Workload::Bfs | Workload::Histogram | Workload::Stencil => scale.irregular_per_pe(),
        // spmv reads two words per nonzero (8 nonzeros/row), so halve the
        // row count to keep the panel's packet volume comparable.
        Workload::Spmv => scale.irregular_per_pe().iter().map(|n| n / 2).collect(),
    }
}

/// One figure panel's sweep: every (per-PE size, thread count) pair for a
/// workload on `p` processors, through the engine.
fn panel_sweep(w: Workload, p: usize, opts: &Opts) -> SweepOutcome {
    let sizes = sizes_for(w, opts.scale);
    opts.sweep(grid(w, p, &sizes, &opts.scale.threads()))
        .expect_complete()
}

/// Figure 6: communication time (seconds) vs number of threads, four
/// panels: sorting P=16/64, FFT P=16/64.
fn fig6(opts: &Opts, cache: &mut Vec<(Workload, usize, SweepOutcome)>) {
    println!("\n=== Figure 6: communication time vs number of threads ===");
    for w in [Workload::Sort, Workload::Fft] {
        for &p in &opts.scale.panel_pes() {
            let outcome = panel_sweep(w, p, opts);
            let points = to_points(&outcome);
            let series = series_by_size(&points, |pt| pt.report.comm_sync_time_secs());
            let mut table = Table::new(["n", "h", "comm (s)"]);
            let mut chart = Vec::new();
            for (n, ys) in &series {
                for &(h, y) in ys {
                    table.row([fmt_n(*n), h.to_string(), format!("{y:.6e}")]);
                }
                chart.push(Series::new(
                    format!("{} P={p} n={}", w.name(), fmt_n(*n)),
                    ys.iter().map(|&(h, y)| (h as f64, y)).collect(),
                ));
            }
            println!("\n--- {} P={p} ---", w.name());
            println!("{}", table.render());
            println!("{}", ascii_chart(&chart, 40));
            save_csv_with_provenance(
                &format!("fig6_{}_p{p}", w.name()),
                &table,
                &outcome,
                opts,
                &[],
            );
            cache.push((w, p, outcome));
        }
    }
    println!(
        "paper: \"the communication time becomes minimal when the number of threads\n\
         is two to four\"; FFT's valleys are deeper than sorting's."
    );
}

/// Figure 7: overlap efficiency E = (Tcomm,1 - Tcomm,h)/Tcomm,1.
///
/// Derived from the Figure 6 sweeps — no new simulations, so its sidecars
/// point at the same runs (all cache hits when Figure 6 just ran).
fn fig7(opts: &Opts, cache: &[(Workload, usize, SweepOutcome)]) {
    println!("\n=== Figure 7: efficiency of overlapping ===");
    let mut summary: Vec<(String, f64)> = Vec::new();
    for (w, p, outcome) in cache {
        let points = to_points(outcome);
        let series = series_by_size(&points, |pt| pt.report.comm_sync_time_secs());
        let mut table = Table::new(["n", "h", "E (%)"]);
        let mut best_at_small_h = 0.0f64;
        for (n, ys) in &series {
            let base = ys.first().map(|&(_, y)| y).unwrap_or(0.0);
            for &(h, y) in ys {
                let e = overlap_efficiency(base, y);
                if (2..=4).contains(&h) {
                    best_at_small_h = best_at_small_h.max(e);
                }
                table.row([fmt_n(*n), h.to_string(), format!("{e:.1}")]);
            }
        }
        println!("\n--- {} P={p} ---", w.name());
        println!("{}", table.render());
        save_csv_with_provenance(
            &format!("fig7_{}_p{p}", w.name()),
            &table,
            outcome,
            opts,
            &[("derived_from", format!("fig6_{}_p{p}", w.name()))],
        );
        summary.push((format!("{} P={p}", w.name()), best_at_small_h));
    }
    println!("best efficiency at h in 2..4 (paper: sorting ~35%, FFT >95%):");
    for (name, e) in summary {
        println!("  {name:<20} {e:.1}%");
    }
}

/// Figure 8: distribution of execution time (four components), P = largest
/// panel, small and large problem sizes.
fn fig8(opts: &Opts) {
    println!("\n=== Figure 8: distribution of execution time ===");
    let p = *opts.scale.panel_pes().last().unwrap();
    for w in [Workload::Sort, Workload::Fft] {
        let sizes = sizes_for(w, opts.scale);
        for &per_pe in [sizes.first().unwrap(), sizes.last().unwrap()].iter() {
            let outcome = opts
                .sweep(grid(w, p, &[*per_pe], &opts.scale.threads()))
                .expect_complete();
            let mut table = Table::new(["h", "compute %", "overhead %", "comm %", "switch %"]);
            for pt in &outcome.points {
                let f = pt.report.mean_breakdown().fractions();
                table.row([
                    pt.spec.threads.to_string(),
                    format!("{:.1}", f[0] * 100.0),
                    format!("{:.1}", f[1] * 100.0),
                    format!("{:.1}", f[2] * 100.0),
                    format!("{:.1}", f[3] * 100.0),
                ]);
            }
            let n = per_pe * p;
            println!("\n--- {} P={p} n={} ---", w.name(), fmt_n(n));
            println!("{}", table.render());
            save_csv_with_provenance(
                &format!("fig8_{}_p{p}_n{}", w.name(), fmt_n(n)),
                &table,
                &outcome,
                opts,
                &[],
            );
        }
    }
    println!(
        "paper: sorting's communication band exceeds its computation; FFT is\n\
         computation-dominated; the h=1 column looks different because nothing\n\
         overlaps with one thread."
    );
}

/// Figure 9: average number of switches per processor, by type.
fn fig9(opts: &Opts) {
    println!("\n=== Figure 9: average number of switches per processor ===");
    let p = *opts.scale.panel_pes().last().unwrap();
    for w in [Workload::Sort, Workload::Fft] {
        let sizes = sizes_for(w, opts.scale);
        for &per_pe in [sizes.first().unwrap(), sizes.last().unwrap()].iter() {
            let outcome = opts
                .sweep(grid(w, p, &[*per_pe], &opts.scale.threads()))
                .expect_complete();
            let mut table = Table::new(["h", "remote-read", "iter-sync", "thread-sync"]);
            for pt in &outcome.points {
                let s = pt.report.mean_switches();
                table.row([
                    pt.spec.threads.to_string(),
                    s.remote_read.to_string(),
                    s.iter_sync.to_string(),
                    s.thread_sync.to_string(),
                ]);
            }
            let n = per_pe * p;
            println!("\n--- {} P={p} n={} ---", w.name(), fmt_n(n));
            println!("{}", table.render());
            save_csv_with_provenance(
                &format!("fig9_{}_p{p}_n{}", w.name(), fmt_n(n)),
                &table,
                &outcome,
                opts,
                &[],
            );
        }
    }
    println!(
        "paper: remote-read switches are flat in h; iteration-sync switches grow\n\
         with h and overtake remote-read switches at h=16 for the small size;\n\
         thread-sync switches appear for sorting but not FFT."
    );
}

/// A paper-default machine of `pes` processors with memories trimmed to
/// what the microprobes touch.
fn probe_machine(pes: usize) -> MachineConfig {
    let mut cfg = MachineConfig::with_pes(pes);
    cfg.local_memory_words = 1 << 12;
    cfg
}

/// In-text claim: remote read latency of 20-40 clocks (1-2 µs).
///
/// A direct probe (`emx_workloads::remote_read_latency`, an interpreted
/// ISA kernel), not a grid sweep — it runs outside the sweep engine and
/// writes no sidecar.
fn latency() {
    println!("\n=== Remote read latency probe (interpreted ISA kernel) ===");
    let mut table = Table::new(["PEs", "readers", "cycles/read", "us/read"]);
    for (pes, readers) in [
        (16usize, 1usize),
        (16, 4),
        (16, 8),
        (64, 1),
        (64, 16),
        (64, 32),
    ] {
        let per_read =
            remote_read_latency(&probe_machine(pes), readers, 64).expect("latency probe runs");
        table.row([
            pes.to_string(),
            readers.to_string(),
            format!("{per_read:.1}"),
            format!("{:.2}", per_read / 20.0),
        ]);
    }
    println!("{}", table.render());
    save_csv("latency", &table);
    println!("paper: \"approximately 1 to 2 us, or 20-40 clocks\" under normal load.");
}

/// Analytic model (Saavedra-Barrera) vs simulation on the native 12-cycle
/// read loop (`emx_workloads::read_loop_idle`).
///
/// A direct probe like `latency`, it runs outside the sweep engine.
fn model() {
    println!("\n=== Analytic model vs simulation ===");
    let cfg = probe_machine(16);
    // Self-calibrate: the single-thread simulated idle per read IS the
    // model's effective latency parameter.
    let idle = |h: usize| read_loop_idle(&cfg, h, 128).expect("read loop runs");
    let measured_latency = idle(1);
    let m = ModelParams::sorting(&cfg.costs, measured_latency);
    println!("calibrated L = {measured_latency:.1} cycles from the h=1 run");
    let mut table = Table::new(["h", "model idle/read", "sim idle/read", "model region"]);
    for h in [1u32, 2, 3, 4, 8, 16] {
        let pt = idle(h as usize);
        table.row([
            h.to_string(),
            format!("{:.1}", m.idle_per_read(h)),
            format!("{pt:.1}"),
            format!("{:?}", m.region(h)),
        ]);
    }
    println!("{}", table.render());
    save_csv("model_vs_sim", &table);
    println!(
        "model optimal thread count: {} (paper: \"two to four threads\")",
        m.optimal_threads()
    );
}

/// Ablation: the by-passing DMA (EM-X) vs EXU-thread servicing (EM-4).
fn ablation(opts: &Opts) {
    println!("\n=== Ablation: by-pass DMA (EM-X) vs EXU-thread servicing (EM-4) ===");
    let per_pe = opts.scale.sort_per_pe()[0];
    let mut specs = Vec::new();
    for w in [Workload::Sort, Workload::Fft] {
        for mode in [ServiceMode::BypassDma, ServiceMode::ExuThread] {
            let mut spec = RunSpec::new(w, 16, per_pe, 4);
            spec.service_mode = mode;
            specs.push(spec);
        }
    }
    let outcome = opts.sweep(specs).expect_complete();
    let mut table = Table::new(["workload", "mode", "elapsed (s)", "comm (s)"]);
    for pt in &outcome.points {
        table.row([
            pt.spec.workload.name().to_string(),
            format!("{:?}", pt.spec.service_mode),
            format!("{:.6e}", pt.report.elapsed_secs()),
            format!("{:.6e}", pt.report.comm_sync_time_secs()),
        ]);
    }
    println!("{}", table.render());
    save_csv_with_provenance("ablation_bypass", &table, &outcome, opts, &[]);
    println!(
        "the EM-4 mode steals remote-PE processor cycles for every read (paper §2.1:\n\
         \"this consumption adversely affects the performance\")."
    );
}

/// Ablation: per-element reads vs the block-read send instruction.
fn block(opts: &Opts) {
    println!("\n=== Ablation: per-element reads vs block reads ===");
    let per_pe = opts.scale.sort_per_pe()[0];
    let mut specs = Vec::new();
    for &h in &[1usize, 4] {
        for blockmode in [false, true] {
            let mut spec = RunSpec::new(Workload::Sort, 16, per_pe, h);
            spec.block_read = blockmode;
            specs.push(spec);
        }
    }
    let outcome = opts.sweep(specs).expect_complete();
    let mut table = Table::new(["mode", "h", "elapsed (s)", "comm (s)", "packets"]);
    for pt in &outcome.points {
        table.row([
            if pt.spec.block_read {
                "block"
            } else {
                "per-element"
            }
            .to_string(),
            pt.spec.threads.to_string(),
            format!("{:.6e}", pt.report.elapsed_secs()),
            format!("{:.6e}", pt.report.comm_sync_time_secs()),
            pt.report.total_packets().to_string(),
        ]);
    }
    println!("{}", table.render());
    save_csv_with_provenance("ablation_block_read", &table, &outcome, opts, &[]);
}

/// Sensitivity: how the computation-to-communication ratio drives overlap.
///
/// The paper's second key observation: "the ratio of computation to
/// communication plays a critical role in tolerating latency". Sweeping the
/// FFT's per-point computation from a handful of cycles (sorting-like) to
/// hundreds (true FFT) moves the overlap efficiency from partial to >95 %.
fn runlength(opts: &Opts) {
    println!("\n=== Sensitivity: run length (computation per point) vs overlap ===");
    let per_pe = opts.scale.fft_per_pe()[0];
    const CYCLES: [u32; 6] = [10, 30, 60, 120, 240, 480];
    const THREADS: [usize; 3] = [1, 2, 4];
    let mut specs = Vec::new();
    for &cycles in &CYCLES {
        for &h in &THREADS {
            let mut spec = RunSpec::new(Workload::Fft, 16, per_pe, h);
            spec.point_cycles = Some(cycles);
            specs.push(spec);
        }
    }
    let outcome = opts.sweep(specs).expect_complete();
    let mut table = Table::new(["point cycles", "E(2) %", "E(4) %"]);
    for (i, &cycles) in CYCLES.iter().enumerate() {
        let row = &outcome.points[i * THREADS.len()..(i + 1) * THREADS.len()];
        let base = row[0].report.comm_sync_time_secs();
        table.row([
            cycles.to_string(),
            format!(
                "{:.1}",
                overlap_efficiency(base, row[1].report.comm_sync_time_secs())
            ),
            format!(
                "{:.1}",
                overlap_efficiency(base, row[2].report.comm_sync_time_secs())
            ),
        ]);
    }
    println!("{}", table.render());
    save_csv_with_provenance("runlength_sensitivity", &table, &outcome, opts, &[]);
    println!(
        "with tiny per-point computation the FFT behaves like sorting; with the\n\
         paper's hundreds-of-cycles trig loops two threads already mask the latency."
    );
}

/// Ablation: two-priority IBU scheduling of read responses.
fn priority(opts: &Opts) {
    println!("\n=== Ablation: high-priority read responses (scheduler tuning) ===");
    let per_pe = opts.scale.sort_per_pe()[0];
    let mut specs = Vec::new();
    for &h in &[4usize, 16] {
        for pri in [false, true] {
            let mut spec = RunSpec::new(Workload::Sort, 16, per_pe, h);
            spec.priority_read_responses = pri;
            specs.push(spec);
        }
    }
    let outcome = opts.sweep(specs).expect_complete();
    let mut table = Table::new(["priority responses", "h", "elapsed (s)", "comm (s)"]);
    for pt in &outcome.points {
        table.row([
            pt.spec.priority_read_responses.to_string(),
            pt.spec.threads.to_string(),
            format!("{:.6e}", pt.report.elapsed_secs()),
            format!("{:.6e}", pt.report.comm_sync_time_secs()),
        ]);
    }
    println!("{}", table.render());
    save_csv_with_provenance("ablation_priority", &table, &outcome, opts, &[]);
    println!("the paper's stated next goal: fine-tuning hardware thread scheduling.");
}

/// Ablation: network topologies under the same FFT workload.
fn topology(opts: &Opts) {
    println!("\n=== Ablation: network topology (omega vs torus vs crossbar vs ideal) ===");
    let per_pe = opts.scale.fft_per_pe()[0];
    let mut specs = Vec::new();
    for model in [
        NetModelKind::CircularOmega,
        NetModelKind::Torus2D,
        NetModelKind::FullCrossbar,
        NetModelKind::Ideal { latency: 5 },
    ] {
        let mut spec = RunSpec::new(Workload::Fft, 16, per_pe, 4);
        spec.net_model = model;
        specs.push(spec);
    }
    let outcome = opts.sweep(specs).expect_complete();
    let mut table = Table::new(["network", "elapsed (s)", "comm (s)", "net contention (cy)"]);
    for pt in &outcome.points {
        table.row([
            format!("{:?}", pt.spec.net_model),
            format!("{:.6e}", pt.report.elapsed_secs()),
            format!("{:.6e}", pt.report.comm_sync_time_secs()),
            pt.report.net_contention.get().to_string(),
        ]);
    }
    println!("{}", table.render());
    save_csv_with_provenance("ablation_topology", &table, &outcome, opts, &[]);
    println!("the EM-X behaviour is not Omega-specific: any low-latency fabric masks\nsimilarly once h covers the round trip.");
}

/// Workload x topology comparison: every kernel (regular and irregular)
/// on the paper's circular Omega, a 2D mesh with XY dimension-order
/// routing, and a 4-ary fat-tree, at h = 1/2/4 on 16 PEs. The irregular
/// suite (BFS, histogram, spmv, stencil) runs on exactly the same
/// spawn/remote-read primitives as sorting and FFT, so this single sweep
/// answers "which kernels care which fabric they run on" — see
/// `docs/WORKLOADS.md` for the per-kernel traffic patterns behind the
/// shapes.
fn workloads(opts: &Opts) {
    println!("\n=== Workload x topology comparison (P=16, omega vs mesh vs fat-tree) ===");
    let nets = [
        (NetModelKind::CircularOmega, "omega"),
        (NetModelKind::Mesh2D, "mesh"),
        (NetModelKind::FatTree { arity: 4 }, "fattree4"),
    ];
    let threads = [1usize, 2, 4];
    let mut specs = Vec::new();
    for w in Workload::all() {
        let per_pe = sizes_for(w, opts.scale)[0];
        for (net, _) in &nets {
            for &h in &threads {
                let mut s = RunSpec::new(w, 16, per_pe, h);
                s.net_model = *net;
                specs.push(s);
            }
        }
    }
    let outcome = opts.sweep(specs).expect_complete();
    let mut table = Table::new([
        "workload",
        "network",
        "h",
        "cycles",
        "comm (s)",
        "reads",
        "contention (cy)",
    ]);
    for pt in &outcome.points {
        let net = nets
            .iter()
            .find(|(kind, _)| *kind == pt.spec.net_model)
            .map_or("?", |(_, name)| name);
        table.row([
            pt.spec.workload.name().to_string(),
            net.to_string(),
            pt.spec.threads.to_string(),
            pt.report.elapsed.get().to_string(),
            format!("{:.6e}", pt.report.comm_sync_time_secs()),
            pt.report.total_reads().to_string(),
            pt.report.net_contention.get().to_string(),
        ]);
    }
    println!("{}", table.render());
    save_csv_with_provenance(
        "workloads_compare",
        &table,
        &outcome,
        opts,
        &[("pes", "16".to_string())],
    );
    println!(
        "neighbour-heavy kernels (stencil halos, FFT butterflies) barely feel the\n\
         fabric; all-to-all kernels (histogram, spmv, BFS probes) pay the mesh's\n\
         extra hops and recover most of it on the fat-tree's upper links."
    );
}

/// Figure 4: the hand-walked scheduling interleaving, regenerated from a
/// real probe-recorded trace instead of by hand. Runs the 2-PE × 2-thread
/// merge scenario, machine-checks the FIFO schedule the paper narrates,
/// and writes the Perfetto trace + event CSV under `results/`.
fn fig4() {
    use emx::obs::{chrome_trace_json, events_csv, validate_chrome_trace, Recorder};
    use emx::workloads::fig4;

    println!("\n== Figure 4: FIFO scheduling interleaving (2 PEs x 2 threads) ==");
    let mut m = fig4::build().expect("fig4 machine");
    let (rec, handle) = Recorder::unbounded();
    m.attach_probe(Box::new(rec));
    let report = m.run().expect("fig4 run");
    let log = handle.finish();

    let summary = fig4::check_schedule(log.events()).expect("paper schedule");
    println!(
        "schedule check: OK — 8 FIFO data resumes {:?}, retires in thread order {:?}",
        summary.data_resumes, summary.retires
    );

    let json = chrome_trace_json(&log, report.clock_hz);
    let sum = validate_chrome_trace(&json).expect("exporter output validates");
    let dir = Path::new("results");
    if fs::create_dir_all(dir).is_ok() {
        let jpath = dir.join("fig4_trace.json");
        if fs::write(&jpath, &json).is_ok() {
            println!(
                "  [trace] {} — open at https://ui.perfetto.dev",
                jpath.display()
            );
        }
        let cpath = dir.join("fig4_events.csv");
        if fs::write(&cpath, events_csv(&log, report.clock_hz)).is_ok() {
            println!("  [csv] {}", cpath.display());
        }
    }
    println!(
        "{} events ({} slices, {} read arrows)",
        sum.events, sum.slices, sum.asyncs
    );
    println!("digest: {}", sum.digest);
}

/// Processor-count scaling: FFT at a fixed per-PE size with the processor
/// count swept out to the 1024-PE packed-address limit
/// (`emx::core::addr::MAX_PES`). At `full` scale the largest point is
/// n = 8M (1024 PEs x 8K points/PE) — the biggest problem size the paper
/// reports on real hardware. Runs through the engine like every other
/// figure sweep, so finished points are cached.
fn scaling(opts: &Opts) {
    use emx::core::addr::MAX_PES;

    let (pes, per_pe): (Vec<usize>, usize) = match opts.scale {
        Scale::Quick => (vec![16, 64, 256], 128),
        Scale::Standard => (vec![64, 256, MAX_PES], 512),
        Scale::Full => (vec![256, MAX_PES], 8192),
    };
    let h = 4;
    println!(
        "\n=== Scaling: FFT, {} points/PE, h={h}, P up to {} ===",
        fmt_n(per_pe),
        pes.last().unwrap()
    );
    let specs: Vec<RunSpec> = pes
        .iter()
        .map(|&p| RunSpec::new(Workload::Fft, p, per_pe, h))
        .collect();
    let outcome = opts.sweep(specs).expect_complete();
    let mut table = Table::new(["P", "n", "cycles", "elapsed (s)", "comm (s)", "speedup"]);
    let base = &outcome.points[0];
    for pt in &outcome.points {
        // Fixed work per PE: throughput relative to the smallest panel is
        // (P / P_base) x (elapsed_base / elapsed) — P under ideal scaling.
        let rel = (pt.spec.pes as f64 / base.spec.pes as f64)
            * (base.report.elapsed_secs() / pt.report.elapsed_secs());
        table.row([
            pt.spec.pes.to_string(),
            fmt_n(pt.spec.n()),
            pt.report.elapsed.get().to_string(),
            format!("{:.6e}", pt.report.elapsed_secs()),
            format!("{:.6e}", pt.report.comm_sync_time_secs()),
            format!("{rel:.1}x"),
        ]);
    }
    println!("{}", table.render());
    save_csv_with_provenance(
        "scaling_fft",
        &table,
        &outcome,
        opts,
        &[("per_pe", per_pe.to_string()), ("threads", h.to_string())],
    );
    println!(
        "fixed work per PE: ideal scaling keeps elapsed flat, so speedup\n\
         (throughput relative to the smallest panel) tracks P; the gap is\n\
         the network's growing hop count and butterfly exchange distance."
    );
}

fn usage() -> ! {
    eprintln!(
        "usage: figures [fig4|fig6|fig7|fig8|fig9|latency|model|ablation|block|priority|runlength|topology|workloads|scaling|all]\n\
         \x20              [quick|standard|full] [--jobs N] [--no-cache]\n\
         `all` is every figure but `scaling`; the committed results/ are\n\
         `figures all standard`, then `figures scaling full`"
    );
    std::process::exit(2);
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = Vec::new();
    let mut jobs = None;
    let mut no_cache = false;
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" | "-j" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => jobs = Some(n),
                _ => {
                    eprintln!("--jobs needs a positive integer");
                    usage();
                }
            },
            "--no-cache" => no_cache = true,
            "--help" | "-h" => usage(),
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag {flag:?}");
                usage();
            }
            _ => positional.push(arg.clone()),
        }
    }
    let cmd = positional.first().map(String::as_str).unwrap_or("all");
    let scale = match positional.get(1) {
        None => Scale::Standard,
        Some(word) => Scale::parse(word).unwrap_or_else(|| {
            eprintln!("unknown scale {word:?}");
            usage();
        }),
    };
    if let Some(extra) = positional.get(2) {
        eprintln!("unexpected argument {extra:?}");
        usage();
    }
    let opts = Opts {
        scale,
        jobs,
        no_cache,
    };

    println!("EM-X figure regeneration -- {cmd} at {scale:?} scale");
    let mut cache = Vec::new();
    match cmd {
        "fig4" => fig4(),
        "fig6" => fig6(&opts, &mut cache),
        "fig7" => {
            fig6(&opts, &mut cache);
            fig7(&opts, &cache);
        }
        "fig8" => fig8(&opts),
        "fig9" => fig9(&opts),
        "latency" => latency(),
        "model" => model(),
        "ablation" => ablation(&opts),
        "block" => block(&opts),
        "priority" => priority(&opts),
        "runlength" => runlength(&opts),
        "topology" => topology(&opts),
        "workloads" => workloads(&opts),
        "scaling" => scaling(&opts),
        "all" => {
            fig4();
            fig6(&opts, &mut cache);
            fig7(&opts, &cache);
            fig8(&opts);
            fig9(&opts);
            latency();
            model();
            ablation(&opts);
            block(&opts);
            priority(&opts);
            runlength(&opts);
            topology(&opts);
            workloads(&opts);
        }
        other => {
            eprintln!("unknown figure {other:?}");
            usage();
        }
    }
}
