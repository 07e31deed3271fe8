//! `emx-cli` — run EM-X workloads and tools from the command line.
//!
//! ```text
//! emx-cli run     <sort|fft|bfs|histogram|spmv|stencil> --pes 64 --n 4096 --threads 4
//!                 [--comm-only] [--block] [--seed N] [--net MODEL] [--preset paper|modern]
//!                 [--em4] [--priority-responses] [--memory-words N] [--csv]
//!                 [--kill-after EVENTS] [--hostprof]
//! emx-cli trace   <sort|fft|bfs|histogram|spmv|stencil|fig4> [--pes N --n N --threads N --seed N]
//!                 [--format chrome|csv] [--events CAP] [--check] [--out FILE]
//! emx-cli profile <sort|fft|bfs|histogram|spmv|stencil|fig4> [--pes N --n N --threads N --seed N]
//!                 [--comm-only] [--block] [--json] [--out FILE]
//! emx-cli profile-diff <report> [<baseline>] [--baseline-dir DIR] [--threshold PPM]
//! emx-cli sweep   --workload <sort|fft|bfs|histogram|spmv|stencil> --pes 16 --sizes 512,2048
//!                 --threads 1,2,4 [--net MODEL] [--preset paper|modern]
//!                 [--jobs N] [--no-cache] [--csv] [--out results/sweep.csv]
//!                 [--journal FILE] [--kill-after EVENTS]
//!                 [--hostprof] [--progress[=EVERY-MS]]
//! emx-cli faults  --workload sort --pes 16 --sizes 512 --threads 1,2,4
//!                 --loss 0,1000,10000 [--seed 1] [--dup PPM] [--delay PPM --max-delay N]
//!                 [--timeout N] [--backoff-cap N] [--max-attempts N] [--check-invariants]
//!                 [--net MODEL] [--preset paper|modern]
//!                 [--jobs N] [--no-cache] [--csv] [--out results/faults.csv]
//!                 [--journal FILE] [--kill-after EVENTS] [--hostprof] [--progress[=EVERY-MS]]
//! emx-cli resume  <FILE.journal> [--jobs N] [--no-cache] [--csv] [--out FILE.csv]
//!                 [--kill-after EVENTS] [--hostprof] [--progress[=EVERY-MS]]
//! emx-cli cache gc [--dir results/cache] [--dry-run]
//! emx-cli fuzz run    [--cases N] [--seed S] [--perturb] [--shrink-failures DIR]
//! emx-cli fuzz replay <file.emxfuzz> [<file2> ...]
//! emx-cli fuzz shrink <file.emxfuzz> [--out FILE]
//! emx-cli nullloop --pes 4 --threads 2 --packets 100
//! emx-cli latency --pes 16 --readers 4 [--reads 64]
//! emx-cli asm     <file.s>            # assemble and list a kernel
//! emx-cli info    [--pes 80]          # dump the machine configuration
//! ```
//!
//! Subcommands taking machine options also accept `--net MODEL` with
//! `MODEL` one of `omega | ideal[:LAT] | crossbar | torus | mesh |
//! fattree[:ARITY]` (the network routing the packets) and `--preset
//! paper|modern` (the cost model: the paper's calibrated charges, or a
//! modern latency/bandwidth ratio — see `docs/WORKLOADS.md`).
//!
//! `run`, `trace` and `profile` take the workload words
//! `sweep --workload` takes (`bitonic` and `hist` included) and build the
//! kernel's parameters the way a sweep does: their flags become a
//! `RunSpec` of `--n / --pes` elements per processor, run by
//! `RunSpec::execute_on` on the machine the flags configure. `--pes` must
//! divide `--n`. Without `--threads` they give the stencil no more threads
//! than its grid has band rows per processor (`n / pes / 32`), so every
//! kernel runs at its defaults.
//!
//! `run` executes one workload with the streaming trace digest attached
//! and prints the run report followed by two stable fingerprints: a
//! `report digest:` line (canonical report text) and the final `digest:`
//! line hashing the complete `emx-trace` event stream. Execution is
//! byte-deterministic, so both lines are identical on every invocation —
//! the workloads smoke test in CI asserts exactly that.
//!
//! `trace` runs a workload with the observability recorder attached and
//! exports the `emx-trace/2` event stream as Chrome-trace/Perfetto JSON
//! (open it at <https://ui.perfetto.dev>) or as CSV; `--check` re-parses
//! the JSON with the built-in validator. The `fig4` workload rebuilds the
//! paper's Figure 4 scenario; `trace fig4` verifies its hand-walked FIFO
//! schedule before exporting. Its 2-PE machine and scenario are fixed, so
//! `trace fig4` and `profile fig4` reject the machine and kernel flags as
//! usage errors.
//!
//! `profile` runs a workload with the streaming `emx-profile` probe and
//! prints the digest-stamped `emx-profile/2` report: exact per-PE event
//! counts, the queue-depth and run-length histograms, per-PE
//! busy/switch/wait/idle attribution cross-validated against the counter
//! breakdown, remote-read latency blame split into six phases, and the
//! critical path through spawns and reads (see
//! `docs/OBSERVABILITY.md`). `profile-diff` compares two
//! reports (or one report against its committed baseline under
//! `results/baselines/`) and exits 3 when the attribution story drifted
//! beyond `--threshold` (default 20000 ppm = 2 percentage points), 1 on
//! schema or digest errors, 2 without a report argument — the drift
//! gate's exit contract (`docs/OBSERVABILITY.md` § "Drift gate").
//!
//! `--hostprof` (on `run`, `sweep`, `faults` and `resume`) arms the
//! `emx-hostprof` host-side counters and appends the digest-stamped
//! `emx-hostprof/1` report to stdout: deterministic simulation-work
//! counters (calendar pushes/pops, per-lane events, queue and DMA
//! traffic, replay emissions — byte-identical on every invocation and at
//! any `--jobs` value), host-structure counters (sweep points and cache
//! hits) and wall-clock annotations (sweep and journal time, allocator
//! traffic). `--progress[=EVERY-MS]` (on `sweep`, `faults` and `resume`)
//! prints a heartbeat line to stderr at the given cadence (default 1 s) —
//! points done/total, cache hits, running labels, ETA — without touching
//! stdout bytes. See `docs/OBSERVABILITY.md` § "Host profiling".
//!
//! Every subcommand that emits a content digest prints it as a final
//! `digest: <32 hex>` line (the canonical form smoke tests assert on).
//!
//! `sweep` runs a (per-PE size × thread count) grid through the parallel
//! cached sweep engine (`emx-sweep`): points fan out across host threads,
//! output order is deterministic, and simulated points are cached under
//! `results/cache/`. With `--out FILE.csv` it also writes the CSV plus a
//! JSON provenance sidecar (see `docs/SWEEPS.md`).
//!
//! `faults` runs the fault matrix: the same grid crossed with a list of
//! packet-loss rates (ppm), each point under a deterministic per-point
//! seed derived from `--seed`. Workloads complete under loss via the
//! remote-read retry protocol; a row whose point still fails is omitted
//! from the CSV and recorded in the sidecar's `failed_runs`. The final
//! `digest:` line is a stable content digest of every report — rerunning
//! with the same seed must reproduce it byte-for-byte, and the `--loss 0`
//! rows match a fault-free `sweep` exactly (see `docs/FAULTS.md`).
//!
//! `sweep` and `faults` accept `--journal FILE` to arm a write-ahead
//! journal committing every finished point to disk, and `--kill-after
//! EVENTS` to abort the process (no cleanup, a real crash) after that
//! many simulated events — the crash-recovery test switch. Each point
//! runs once; a point that fails is reported, not retried.
//! `resume <FILE.journal>` finishes an interrupted journaled sweep:
//! committed points are replayed verbatim, the rest re-execute, and the
//! resulting CSV is byte-identical to an uninterrupted run (see
//! `docs/CHECKPOINT.md`). `cache gc` sweeps the run cache directory,
//! dropping quarantine markers that older builds wrote, orphaned temp
//! files, and corrupt entries;
//! `--dry-run` previews without deleting, and both modes end with a
//! stable `digest:` line over the scan listing.
//!
//! Exit codes: 0 success; 1 runtime error; 2 usage error (unknown
//! command, subcommand or flag, or missing required argument); 3 drift
//! (`profile-diff`); 4 syntactically invalid argument
//! value. The table is documented in README.md and relied on by scripts
//! and CI.
//!
//! `fuzz run` drives the deterministic fuzzing campaign (`emx-fuzz`):
//! seeded random programs crossed with random machine shapes and fault
//! plans, each judged by the three-way invariant/replay/checkpoint
//! oracle. The summary is byte-identical for the same `--cases`/`--seed`
//! pair and ends with the canonical `digest:` line; the exit code is
//! nonzero when any oracle failure was recorded. `--perturb` (or
//! `EMX_FUZZ_PERTURB=1`) arms the test-only network-latency mutation that
//! a sound oracle must catch as digest mismatches. `fuzz replay` re-runs
//! committed `.emxfuzz` cases and checks their pinned verdicts and
//! digests; `fuzz shrink` minimizes a failing case. See
//! `docs/FUZZING.md`.

use std::process::ExitCode;

use emx::prelude::*;
use emx::sweep::{
    grid, provenance, GcAction, Journal, ProgressConfig, RunCache, SweepEngine, SweepOutcome,
    Workload, DEFAULT_CACHE_DIR,
};

/// Opt in to the hostprof counting allocator, so `--hostprof` reports
/// carry `alloc.allocs` / `alloc.bytes` (see `docs/OBSERVABILITY.md`
/// § "Host profiling"). Counting is two relaxed adds per allocation.
#[global_allocator]
static ALLOC: emx::hostprof::CountingAlloc = emx::hostprof::CountingAlloc::new();

/// Minimal flag parser: `--name value` / `--name=value` pairs plus
/// boolean `--name` switches and positional arguments.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if let Some((name, value)) = name.split_once('=') {
                    flags.push((name.to_string(), Some(value.to_string())));
                    continue;
                }
                let value = it
                    .peek()
                    .filter(|v| !v.starts_with("--"))
                    .map(|v| (*v).clone());
                if value.is_some() {
                    it.next();
                }
                flags.push((name.to_string(), value));
            } else {
                positional.push(a.clone());
            }
        }
        Args { positional, flags }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn usize_or(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} wants a number, got {v:?}")),
        }
    }

    fn u64_opt(&self, name: &str) -> Result<Option<u64>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name} wants a number, got {v:?}"))
            })
            .transpose()
    }

    fn u64_or(&self, name: &str, default: u64) -> Result<u64, String> {
        Ok(self.u64_opt(name)?.unwrap_or(default))
    }

    /// A 32-bit value: one past `u32::MAX` fails naming the flag instead
    /// of wrapping.
    fn u32_or(&self, name: &str, default: u32) -> Result<u32, String> {
        let v = self.u64_or(name, u64::from(default))?;
        u32::try_from(v).map_err(|_| format!("--{name} {v} out of range"))
    }
}

/// Parse a `--net` word: the spelling of [`NetModelKind::parse`], plus
/// the CLI's shortcuts — bare `ideal` is latency 1, bare `fattree` or
/// `fat-tree` is arity 4, and `fat-tree:K` is `fattree:K`.
fn parse_net(s: &str) -> Result<NetModelKind, String> {
    let word = match s.split_once(':') {
        None if s == "ideal" => "ideal:1".to_string(),
        None if s == "fattree" || s == "fat-tree" => "fattree:4".to_string(),
        Some(("fat-tree", arity)) => format!("fattree:{arity}"),
        _ => s.to_string(),
    };
    NetModelKind::parse(&word).ok_or(format!(
        "unknown network {s:?} (omega|ideal[:LAT]|crossbar|torus|mesh|fattree[:ARITY])"
    ))
}

/// Parse a `--preset` word into a cost-model preset.
fn parse_preset(s: &str) -> Result<CostPreset, String> {
    CostPreset::parse(s).ok_or(format!("unknown preset {s:?} (paper|modern)"))
}

fn machine_cfg(args: &Args, default_pes: usize) -> Result<MachineConfig, String> {
    let pes = args.usize_or("pes", default_pes)?;
    let mut cfg = MachineConfig::with_pes(pes);
    cfg.local_memory_words = args.usize_or("memory-words", 1 << 18)?;
    if args.has("em4") {
        cfg.service_mode = ServiceMode::ExuThread;
    }
    if args.has("priority-responses") {
        cfg.priority_read_responses = true;
    }
    if let Some(net) = args.get("net") {
        cfg.net.model = parse_net(net)?;
    }
    if let Some(preset) = args.get("preset") {
        parse_preset(preset)?.apply(&mut cfg);
    }
    Ok(cfg)
}

fn print_report(report: &RunReport, csv: bool) {
    let mut t = Table::new(["metric", "value"]);
    t.row([
        "elapsed (s)".to_string(),
        format!("{:.6e}", report.elapsed_secs()),
    ]);
    t.row([
        "comm+sync (s)".to_string(),
        format!("{:.6e}", report.comm_sync_time_secs()),
    ]);
    t.row([
        "pure idle (s)".to_string(),
        format!("{:.6e}", report.comm_time_secs()),
    ]);
    t.row(["remote reads".to_string(), report.total_reads().to_string()]);
    t.row(["packets".to_string(), report.total_packets().to_string()]);
    t.row(["net packets".to_string(), report.net_packets.to_string()]);
    t.row([
        "mean utilization".to_string(),
        format!("{:.3}", report.mean_utilization()),
    ]);
    let s = report.mean_switches();
    t.row([
        "switches/PE remote-read".to_string(),
        s.remote_read.to_string(),
    ]);
    t.row(["switches/PE iter-sync".to_string(), s.iter_sync.to_string()]);
    t.row([
        "switches/PE thread-sync".to_string(),
        s.thread_sync.to_string(),
    ]);
    let f = report.mean_breakdown().fractions();
    for (i, label) in Breakdown::LABELS.iter().enumerate() {
        t.row([format!("{label} %"), format!("{:.1}", f[i] * 100.0)]);
    }
    if csv {
        print!("{}", t.to_csv());
    } else {
        print!("{}", t.render());
    }
}

/// Arm the `emx-hostprof` counter banks when `--hostprof` is present:
/// enable the global gate and zero every bank so the final report covers
/// exactly this invocation. Returns whether profiling is on.
fn arm_hostprof(args: &Args) -> bool {
    let on = args.has("hostprof");
    if on {
        emx::hostprof::set_enabled(true);
        emx::hostprof::reset();
    }
    on
}

/// Settle and print the digest-stamped `emx-hostprof/1` report for the
/// finished invocation (see `docs/OBSERVABILITY.md` § "Host profiling").
fn print_hostprof(meta: Vec<(String, String)>) {
    let rep = emx::hostprof::HostProfReport::new(meta, emx::hostprof::snapshot());
    print!("{}", rep.canonical_text());
}

/// The kernel subcommands' flags as a [`RunSpec`] for `cfg`: the
/// `workload` word, `--n` total elements (else `default_n`; `--pes` must
/// divide it), `--threads` (else `default_threads`), `--seed`,
/// `--comm-only` (fft) and `--block` (sort). The stencil needs a band row
/// per thread, so without `--threads` it runs no more threads than its
/// grid has rows per processor; an explicit value is passed through for
/// the stencil to accept or reject.
fn kernel_spec(
    args: &Args,
    workload: &str,
    cfg: &MachineConfig,
    default_n: usize,
    default_threads: usize,
) -> Result<RunSpec, String> {
    let kernel = Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?;
    let (n, pes) = (args.usize_or("n", default_n)?, cfg.num_pes);
    if pes == 0 || n % pes != 0 {
        return Err(format!("n={n} not divisible by P={pes}"));
    }
    let per_pe = n / pes;
    let default_threads = match kernel {
        Workload::Stencil => {
            let rows = per_pe / StencilParams::new(n, default_threads).width;
            default_threads.min(rows).max(1)
        }
        _ => default_threads,
    };
    let mut spec = RunSpec::new(
        kernel,
        pes,
        per_pe,
        args.usize_or("threads", default_threads)?,
    );
    spec.seed = args.u64_opt("seed")?;
    spec.comm_only = args.has("comm-only");
    spec.block_read = args.has("block");
    Ok(spec)
}

/// The workload word of `run`, `trace` or `profile`: the first
/// positional, else `fig4` for `trace` and `fft` for the others.
fn workload_word<'a>(cmd: &str, args: &'a Args) -> &'a str {
    let default = if cmd == "trace" { "fig4" } else { "fft" };
    args.positional.first().map_or(default, String::as_str)
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let workload = workload_word("run", args);
    let cfg = machine_cfg(args, 64)?;
    let spec = kernel_spec(args, workload, &cfg, 4096, 4)?;
    arm_kill_switch(args)?;
    let hostprof = arm_hostprof(args);
    let (probe, handle) = DigestProbe::new();
    let report = spec
        .execute_on(&cfg, |m| m.attach_probe(Box::new(probe)))
        .map_err(|e| e.to_string())?;
    if !args.has("csv") {
        println!(
            "{workload}: {} elements on {} PEs, h={}, {} trace events",
            spec.n(),
            cfg.num_pes,
            spec.threads,
            handle.events()
        );
    }
    print_report(&report, args.has("csv"));
    println!("report digest: {}", emx::stats::report_digest(&report));
    println!("digest: {}", handle.hex());
    if hostprof {
        print_hostprof(vec![
            ("cmd".to_string(), "run".to_string()),
            ("workload".to_string(), workload.to_string()),
            ("pes".to_string(), cfg.num_pes.to_string()),
            ("n".to_string(), spec.n().to_string()),
            ("threads".to_string(), spec.threads.to_string()),
        ]);
    }
    Ok(())
}

/// A probed subcommand's defaults: processors, total elements, threads.
type Shape = (usize, usize, usize);

/// A run's provenance as `meta` key/value pairs.
type Meta = Vec<(String, String)>;

/// `trace`'s defaults: a machine the size of Figure 4's.
const TRACE_SHAPE: Shape = (2, 64, 2);

/// `profile`'s defaults.
const PROFILE_SHAPE: Shape = (16, 16 * 256, 4);

/// Run the named workload — a kernel on the machine the flags configure,
/// `shape` giving the defaults, or the paper's `fig4` scenario — with the
/// probe `attach` puts on the machine. Returns what `attach` returned
/// (the probe's retrieval handle), the run report, and the run's
/// provenance as `meta` pairs.
fn probed_run<H>(
    args: &Args,
    workload: &str,
    (pes, n, threads): Shape,
    attach: impl FnOnce(&mut Machine) -> H,
) -> Result<(H, RunReport, Meta), String> {
    if workload == "fig4" {
        let mut m = emx::workloads::fig4::build().map_err(|e| e.to_string())?;
        let handle = attach(&mut m);
        let report = m.run().map_err(|e| e.to_string())?;
        let meta = vec![
            ("workload".to_string(), workload.to_string()),
            ("pes".to_string(), report.per_pe.len().to_string()),
        ];
        return Ok((handle, report, meta));
    }
    let cfg = machine_cfg(args, pes)?;
    let spec = kernel_spec(args, workload, &cfg, n, threads)?;
    let mut handle = None;
    let report = spec
        .execute_on(&cfg, |m| handle = Some(attach(m)))
        .map_err(|e| e.to_string())?;
    let meta = vec![
        ("workload".to_string(), workload.to_string()),
        ("pes".to_string(), cfg.num_pes.to_string()),
        ("n".to_string(), spec.n().to_string()),
        ("threads".to_string(), spec.threads.to_string()),
        ("seed".to_string(), spec.effective_seed().to_string()),
    ];
    Ok((handle.expect("the kernel attaches its probe"), report, meta))
}

/// Attach the streaming [`Profiler`] under the machine's cost model and
/// return its handle.
fn attach_profiler(m: &mut Machine) -> ProfilerHandle {
    let (probe, handle) = Profiler::new(m.config().costs);
    m.attach_probe(Box::new(probe));
    handle
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let workload = workload_word("trace", args);
    let (rec, handle) = Recorder::bounded(args.usize_or("events", 1 << 20)?);
    let attach = |m: &mut Machine| m.attach_probe(Box::new(rec));
    let ((), report, _) = probed_run(args, workload, TRACE_SHAPE, attach)?;
    let (log, clock_hz) = (handle.finish(), report.clock_hz);

    if workload == "fig4" {
        // The hand-walked schedule of the paper's Figure 4 must hold.
        emx::workloads::fig4::check_schedule(log.events())?;
        eprintln!("fig4: dispatch sequence matches the paper's FIFO schedule");
    }

    let format = args.get("format").unwrap_or("chrome");
    let text = match format {
        "chrome" | "json" | "perfetto" => chrome_trace_json(&log, clock_hz),
        "csv" => events_csv(&log, clock_hz),
        other => return Err(format!("unknown format {other:?} (chrome|csv)")),
    };
    if args.has("check") {
        let json = if format == "csv" {
            chrome_trace_json(&log, clock_hz)
        } else {
            text.clone()
        };
        let sum = validate_chrome_trace(&json)?;
        eprintln!(
            "trace valid: {} events ({} slices, {} asyncs, {} counters, {} instants)",
            sum.events, sum.slices, sum.asyncs, sum.counters, sum.instants
        );
        eprintln!("digest: {}", sum.digest);
    }
    match args.get("out") {
        Some(out) => {
            let path = std::path::Path::new(out);
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(path, &text).map_err(|e| format!("{out}: {e}"))?;
            eprintln!(
                "wrote {} ({} events, {} dropped) — open at https://ui.perfetto.dev",
                path.display(),
                log.total(),
                log.dropped()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    let workload = workload_word("profile", args);
    let (handle, report, meta) = probed_run(args, workload, PROFILE_SHAPE, attach_profiler)?;
    let mut rep = handle.finish(&report);
    rep.meta = meta;
    let text = if args.has("json") {
        rep.to_json()
    } else {
        rep.canonical_text()
    };
    match args.get("out") {
        Some(out) => {
            let path = std::path::Path::new(out);
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(path, &text).map_err(|e| format!("{out}: {e}"))?;
            eprintln!("wrote {}", path.display());
            println!("digest: {}", rep.digest());
        }
        // The canonical text already ends with its `digest:` line.
        None => print!("{text}"),
    }
    Ok(())
}

/// `profile-diff`: parse the current report and its baseline (the second
/// argument, or the same file name under `--baseline-dir`, default
/// `results/baselines`), run the gate and print the diff. `main` maps the
/// verdict to exit 0 or 3.
fn cmd_diff(args: &Args) -> Result<Verdict, String> {
    use std::path::Path;
    let load = |path: &Path| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        parse_text(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    // `validate_shape` guarantees the first positional.
    let current = Path::new(&args.positional[0]);
    let baseline = match args.positional.get(1) {
        Some(p) => Path::new(p).to_path_buf(),
        None => {
            let name = current
                .file_name()
                .ok_or_else(|| format!("{}: not a file path", current.display()))?;
            Path::new(args.get("baseline-dir").unwrap_or("results/baselines")).join(name)
        }
    };
    let diff = diff_profiles(
        &load(current)?,
        &load(&baseline)?,
        args.u64_or("threshold", DEFAULT_THRESHOLD_PPM)?,
    );
    print!("{}", diff.render());
    Ok(diff.verdict())
}

fn parse_list(name: &str, raw: &str) -> Result<Vec<usize>, String> {
    let vals: Result<Vec<usize>, _> = raw.split(',').map(|v| v.trim().parse()).collect();
    match vals {
        Ok(v) if !v.is_empty() => Ok(v),
        _ => Err(format!(
            "--{name} wants a comma-separated list of numbers, got {raw:?}"
        )),
    }
}

/// Build a [`SweepEngine`] from the shared sweep flags: `--jobs`,
/// `--no-cache`, `--progress[=EVERY-MS]`.
fn engine_from_args(args: &Args) -> Result<SweepEngine, String> {
    let mut engine = SweepEngine::new();
    if let Some(j) = args.get("jobs") {
        let j: usize = j
            .parse()
            .map_err(|_| format!("--jobs wants a number, got {j:?}"))?;
        engine = engine.jobs(j);
    }
    if args.has("no-cache") {
        engine = engine.cache(None);
    }
    if args.has("progress") {
        let cfg =
            match args.get("progress") {
                None => ProgressConfig::default(),
                Some(ms) => ProgressConfig::every_ms(ms.parse().map_err(|_| {
                    format!("--progress wants a cadence in milliseconds, got {ms:?}")
                })?),
            };
        engine = engine.progress(cfg);
    }
    Ok(engine)
}

/// Arm the simulated-event kill switch when `--kill-after` is present:
/// the process aborts — no destructors, no flushing, a faithful crash —
/// after exactly that many events. Pairs with `--journal` and `resume`
/// to test crash recovery end to end.
fn arm_kill_switch(args: &Args) -> Result<(), String> {
    if let Some(n) = args.get("kill-after") {
        let n: u64 = n
            .parse()
            .map_err(|_| format!("--kill-after wants an event count, got {n:?}"))?;
        emx::faults::kill::arm(n);
    }
    Ok(())
}

/// The `sweep` output table, shared with `resume`.
fn sweep_table(outcome: &SweepOutcome) -> Table {
    let mut t = Table::new(["n", "h", "elapsed (s)", "comm+sync (s)", "cached"]);
    for pt in &outcome.points {
        t.row([
            pt.spec.n().to_string(),
            pt.spec.threads.to_string(),
            format!("{:.6e}", pt.report.elapsed_secs()),
            format!("{:.6e}", pt.report.comm_sync_time_secs()),
            pt.cached.to_string(),
        ]);
    }
    t
}

/// The `faults` output table plus the matrix content digest, shared with
/// `resume`.
fn faults_table(outcome: &SweepOutcome) -> (Table, String) {
    let mut t = Table::new([
        "n",
        "h",
        "loss_ppm",
        "elapsed (s)",
        "comm+sync (s)",
        "dropped",
        "retries",
        "stale",
        "forced_spills",
    ]);
    let mut digest = emx::stats::Digest128::new();
    for pt in &outcome.points {
        let loss = pt.spec.faults.as_ref().map(|f| f.drop_ppm).unwrap_or(0);
        let f = pt.report.faults.unwrap_or_default();
        t.row([
            pt.spec.n().to_string(),
            pt.spec.threads.to_string(),
            loss.to_string(),
            format!("{:.6e}", pt.report.elapsed_secs()),
            format!("{:.6e}", pt.report.comm_sync_time_secs()),
            f.dropped.to_string(),
            f.retries.to_string(),
            f.stale_responses.to_string(),
            f.forced_spills.to_string(),
        ]);
        digest.write_str(&emx::stats::digest::report_canonical_text(&pt.report));
    }
    (t, digest.hex())
}

/// The report tail `sweep`, `faults` and `resume` share. `mode` (the
/// journal's, for `resume`) picks the table: `sweep`'s, or `faults`'s with
/// its matrix digest. Prints the table (CSV with `--csv`) and the digest,
/// lists failed points on stderr, writes the `--out` CSV and its sidecar
/// (`source` is `emx-cli <cmd>`, then `facts`, then the matrix digest),
/// and prints the hostprof report when `hostprof` is on.
fn sweep_report(
    args: &Args,
    cmd: &str,
    mode: &str,
    figure: &str,
    outcome: &SweepOutcome,
    facts: Vec<(&str, String)>,
    hostprof: bool,
) -> Result<(), String> {
    let mut extra = vec![("source", format!("emx-cli {cmd}"))];
    extra.extend(facts);
    let (t, digest) = match mode {
        "sweep" => (sweep_table(outcome), None),
        "faults" => {
            let (t, digest) = faults_table(outcome);
            extra.push(("matrix_digest", digest.clone()));
            (t, Some(digest))
        }
        other => return Err(format!("unknown journal mode {other:?} for {figure}")),
    };
    if args.has("csv") {
        print!("{}", t.to_csv());
    } else {
        print!("{}", t.render());
    }
    if let Some(digest) = digest {
        println!("digest: {digest}");
    }
    for f in &outcome.failed {
        eprintln!("emx-cli: point {} FAILED: {}", f.spec.label(), f.error);
    }
    if let Some(out) = args.get("out") {
        let path = std::path::Path::new(out);
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, t.to_csv()).map_err(|e| format!("{out}: {e}"))?;
        let side = provenance::write_sidecar(path, figure, outcome, &extra)
            .map_err(|e| format!("{out}: {e}"))?;
        eprintln!("wrote {} and {}", path.display(), side.display());
    }
    if hostprof {
        print_hostprof(vec![
            ("cmd".to_string(), cmd.to_string()),
            ("figure".to_string(), figure.to_string()),
            ("points".to_string(), outcome.points.len().to_string()),
            ("jobs".to_string(), outcome.jobs.to_string()),
        ]);
    }
    Ok(())
}

/// `--workload` of a sweep-shaped subcommand (`validate_values` has
/// checked the word), else sorting.
fn workload_flag(args: &Args) -> Workload {
    args.get("workload")
        .and_then(Workload::parse)
        .unwrap_or(Workload::Sort)
}

/// Apply a sweep-shaped subcommand's `--net` and `--preset` to `spec`.
fn machine_flags(args: &Args, spec: &mut RunSpec) -> Result<(), String> {
    if let Some(net) = args.get("net") {
        spec.net_model = parse_net(net)?;
    }
    if let Some(preset) = args.get("preset") {
        spec.preset = parse_preset(preset)?;
    }
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let workload = workload_flag(args);
    let pes = args.usize_or("pes", 16)?;
    let sizes = parse_list("sizes", args.get("sizes").unwrap_or("512,2048"))?;
    let threads = parse_list("threads", args.get("threads").unwrap_or("1,2,4,8"))?;

    let mut engine = engine_from_args(args)?;
    let mut specs = grid(workload, pes, &sizes, &threads);
    for s in &mut specs {
        machine_flags(args, s)?;
    }
    let figure = format!("sweep_{}_p{pes}", workload.name());
    if let Some(journal) = args.get("journal") {
        engine = engine.journal(
            Journal::create(journal, "sweep", &figure, &specs)
                .map_err(|e| format!("{journal}: {e}"))?,
        );
    }
    arm_kill_switch(args)?;
    let hostprof = arm_hostprof(args);
    let outcome = engine.run(specs);
    sweep_report(args, "sweep", "sweep", &figure, &outcome, vec![], hostprof)
}

/// Derive the per-point fault seed: a stable hash of the base seed and
/// the point's coordinates, so every matrix point draws an independent
/// fault stream and the whole matrix is reproducible from `--seed` alone.
fn point_seed(base: u64, per_pe: usize, threads: usize, loss_ppm: u32) -> u64 {
    emx::stats::digest::fnv1a_64(
        format!("emx-faults {base} {per_pe} {threads} {loss_ppm}").as_bytes(),
    )
}

fn cmd_faults(args: &Args) -> Result<(), String> {
    let workload = workload_flag(args);
    let pes = args.usize_or("pes", 16)?;
    let sizes = parse_list("sizes", args.get("sizes").unwrap_or("512"))?;
    let threads = parse_list("threads", args.get("threads").unwrap_or("1,2,4"))?;
    let losses = parse_list("loss", args.get("loss").unwrap_or("0,1000,10000"))?;
    let seed = args.u64_or("seed", 1)?;
    let dup = args.u32_or("dup", 0)?;
    let delay = args.u32_or("delay", 0)?;
    let max_delay = args.u32_or("max-delay", if delay > 0 { 16 } else { 0 })?;
    let timeout = args.u32_or("timeout", 128)?;
    let backoff_cap = args.u32_or("backoff-cap", 4096)?;
    let max_attempts = args.u32_or("max-attempts", 0)?;
    let check = args.has("check-invariants");

    // Grid order: size-major, then threads, then loss — every loss column
    // of one (n, h) row is adjacent in the CSV.
    let mut specs = Vec::new();
    for &per_pe in &sizes {
        for &h in &threads {
            for &loss in &losses {
                let loss =
                    u32::try_from(loss).map_err(|_| format!("--loss {loss} out of range"))?;
                let mut spec = RunSpec::new(workload, pes, per_pe, h);
                machine_flags(args, &mut spec)?;
                let mut fs = FaultSpec::new(point_seed(seed, per_pe, h, loss));
                fs.drop_ppm = loss;
                fs.dup_ppm = dup;
                fs.delay_ppm = delay;
                fs.max_delay = max_delay;
                fs.retry_timeout = timeout;
                fs.retry_backoff_cap = backoff_cap;
                fs.max_attempts = max_attempts;
                fs.check_invariants = check;
                fs.validate().map_err(|e| e.to_string())?;
                // A no-op plan is exactly the paper's lossless machine:
                // leave the fault machinery unarmed so the run (and its
                // digest and cache entry) is identical to a plain sweep.
                spec.faults = (!fs.is_noop()).then_some(fs);
                specs.push(spec);
            }
        }
    }

    let mut engine = engine_from_args(args)?;
    let figure = format!("faults_{}_p{pes}", workload.name());
    if let Some(journal) = args.get("journal") {
        engine = engine.journal(
            Journal::create(journal, "faults", &figure, &specs)
                .map_err(|e| format!("{journal}: {e}"))?,
        );
    }
    arm_kill_switch(args)?;
    let hostprof = arm_hostprof(args);
    let outcome = engine.run(specs);
    let facts = vec![("seed", seed.to_string())];
    sweep_report(args, "faults", "faults", &figure, &outcome, facts, hostprof)
}

fn cmd_resume(args: &Args) -> Result<(), String> {
    let journal = args
        .positional
        .first()
        .ok_or("resume wants a journal file")?;
    let engine = engine_from_args(args)?;
    arm_kill_switch(args)?;
    let hostprof = arm_hostprof(args);
    let resumed = emx::sweep::resume(std::path::Path::new(journal), engine)?;
    // The table follows the journal's recorded mode, so a resumed run
    // prints what the uninterrupted invocation it recovers would have.
    let (mode, label) = (resumed.mode.as_str(), resumed.label.as_str());
    sweep_report(
        args,
        "resume",
        mode,
        label,
        &resumed.outcome,
        vec![],
        hostprof,
    )
}

fn cmd_cache(args: &Args) -> Result<(), String> {
    // Shape is validated in main: the only subcommand today is `gc`.
    let dir = args.get("dir").unwrap_or(DEFAULT_CACHE_DIR);
    let dry = args.has("dry-run");
    let report = RunCache::new(dir)
        .gc(dry)
        .map_err(|e| format!("{dir}: {e}"))?;
    for (action, name) in &report.files {
        println!("{} {name}", action.word());
    }
    println!(
        "cache gc{}: {} kept, {} quarantine, {} orphan, {} corrupt, {} skipped ({} dropped)",
        if dry { " (dry run)" } else { "" },
        report.count(GcAction::Keep),
        report.count(GcAction::DropQuarantine),
        report.count(GcAction::DropOrphan),
        report.count(GcAction::DropCorrupt),
        report.count(GcAction::Skip),
        if dry {
            format!("would be: {}", report.dropped())
        } else {
            report.dropped().to_string()
        },
    );
    println!("digest: {}", report.digest());
    Ok(())
}

fn cmd_fuzz(args: &Args) -> Result<(), String> {
    match args.positional.first().map(String::as_str) {
        Some("run") => fuzz_run(args),
        Some("replay") => fuzz_replay(args),
        Some("shrink") => fuzz_shrink(args),
        _ => Err("fuzz wants a subcommand: run | replay | shrink".into()),
    }
}

fn fuzz_run(args: &Args) -> Result<(), String> {
    let opts = emx::fuzz::CampaignOptions {
        cases: args.usize_or("cases", 100)?,
        seed: args.u64_or("seed", 7)?,
        perturb_replay: args.has("perturb")
            || std::env::var("EMX_FUZZ_PERTURB").is_ok_and(|v| v == "1"),
    };
    let summary = emx::fuzz::run_campaign(&opts);
    print!("{}", summary.render());
    if let Some(dir) = args.get("shrink-failures") {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for f in &summary.failures {
            let shrunk = emx::fuzz::shrink(&f.case, &emx::fuzz::ShrinkOptions::default());
            let mut case = shrunk.case;
            case.name = format!("shrunk-{:016x}", f.case_seed);
            let outcome = emx::fuzz::run_case(&case, false);
            case.expect = Some(emx::fuzz::Expected {
                verdict: outcome.verdict.as_str(),
                trace_digest: Some(outcome.trace_digest),
            });
            let path = dir.join(format!("case-{:06}-{}.emxfuzz", f.index, outcome.verdict));
            std::fs::write(&path, case.to_text())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!(
                "wrote {} ({} shrink attempts)",
                path.display(),
                shrunk.attempts
            );
        }
    }
    let failures = summary.failure_count();
    if failures > 0 {
        return Err(format!("{failures} oracle failure(s)"));
    }
    Ok(())
}

fn fuzz_replay(args: &Args) -> Result<(), String> {
    let files = &args.positional[1..];
    if files.is_empty() {
        return Err("fuzz replay wants one or more .emxfuzz files".into());
    }
    let mut digest = emx::stats::Digest128::new();
    let mut mismatches = 0usize;
    for path in files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let case = emx::fuzz::CaseSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let outcome = emx::fuzz::run_case(&case, false);
        let mut status = "ok";
        if let Some(expect) = &case.expect {
            if expect.verdict != outcome.verdict.as_str() {
                status = "VERDICT MISMATCH";
            } else if expect
                .trace_digest
                .as_ref()
                .is_some_and(|d| *d != outcome.trace_digest)
            {
                status = "DIGEST MISMATCH";
            }
        }
        if status != "ok" {
            mismatches += 1;
        }
        let line = format!(
            "replay {path}: verdict={} digest={} {status}",
            outcome.verdict, outcome.trace_digest
        );
        println!("{line}");
        digest.write_str(&line);
        digest.write_str("\n");
    }
    println!("digest: {}", digest.hex());
    if mismatches > 0 {
        return Err(format!(
            "{mismatches} case(s) diverged from their pinned outcome"
        ));
    }
    Ok(())
}

fn fuzz_shrink(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .get(1)
        .ok_or("fuzz shrink wants a .emxfuzz file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let case = emx::fuzz::CaseSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let before = case.total_ops() + case.roots.len();
    let result = emx::fuzz::shrink(&case, &emx::fuzz::ShrinkOptions::default());
    let mut shrunk = result.case;
    let outcome = emx::fuzz::run_case(&shrunk, false);
    shrunk.expect = Some(emx::fuzz::Expected {
        verdict: outcome.verdict.as_str(),
        trace_digest: Some(outcome.trace_digest),
    });
    let after = shrunk.total_ops() + shrunk.roots.len();
    eprintln!(
        "shrink: verdict={} {} -> {} ops+roots in {} attempts / {} rounds",
        result.verdict, before, after, result.attempts, result.rounds
    );
    match args.get("out") {
        Some(out) => {
            let p = std::path::Path::new(out);
            if let Some(dir) = p.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(p, shrunk.to_text()).map_err(|e| format!("{out}: {e}"))?;
            eprintln!("wrote {}", p.display());
        }
        None => print!("{}", shrunk.to_text()),
    }
    Ok(())
}

fn cmd_nullloop(args: &Args) -> Result<(), String> {
    let cfg = machine_cfg(args, 4)?;
    let params = NullLoopParams::new(args.u32_or("packets", 100)?, args.usize_or("threads", 2)?);
    let out = run_null_loop(&cfg, &params).map_err(|e| e.to_string())?;
    println!(
        "null loop: {:.2} overhead cycles per generated packet (paper measures \
         packet-generation overhead exactly this way)",
        out.overhead_per_packet
    );
    print_report(&out.report, args.has("csv"));
    Ok(())
}

fn cmd_latency(args: &Args) -> Result<(), String> {
    let cfg = machine_cfg(args, 16)?;
    let readers = args.usize_or("readers", 1)?;
    let reads = args.usize_or("reads", 64)?;
    let per_read = remote_read_latency(&cfg, readers, reads).map_err(|e| e.to_string())?;
    println!(
        "{} reader(s) on {} PEs: {:.1} cycles/read = {:.2} µs at 20 MHz (paper band: 20-40 cycles)",
        readers,
        cfg.num_pes,
        per_read,
        per_read / 20.0
    );
    Ok(())
}

fn cmd_asm(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or("asm wants a source file path")?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let prog = assemble(path.clone(), &src).map_err(|e| e.to_string())?;
    let costs = MachineConfig::default().costs;
    println!(
        "; {} instructions, straight-line cost {} cycles",
        prog.len(),
        prog.straight_line_cost(&costs)
    );
    for (i, (ins, word)) in prog.instrs().iter().zip(prog.encode()).enumerate() {
        println!("{i:>4}  {word:08x}  {ins}");
    }
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let cfg = machine_cfg(args, 80)?;
    let mut t = Table::new(["parameter", "value"]);
    t.row(["processors".to_string(), cfg.num_pes.to_string()]);
    t.row([
        "clock (MHz)".to_string(),
        (cfg.clock_hz / 1_000_000).to_string(),
    ]);
    t.row([
        "memory words/PE".to_string(),
        cfg.local_memory_words.to_string(),
    ]);
    t.row([
        "IBU FIFO capacity".to_string(),
        cfg.ibu_fifo_capacity.to_string(),
    ]);
    t.row(["frames/PE".to_string(), cfg.frames_per_pe.to_string()]);
    t.row([
        "service mode".to_string(),
        format!("{:?}", cfg.service_mode),
    ]);
    t.row([
        "context switch (cy)".to_string(),
        cfg.costs.context_switch.to_string(),
    ]);
    t.row([
        "DMA service (cy)".to_string(),
        cfg.costs.dma_service.to_string(),
    ]);
    t.row([
        "barrier poll interval (cy)".to_string(),
        cfg.costs.barrier_poll_interval.to_string(),
    ]);
    t.row(["network".to_string(), format!("{:?}", cfg.net.model)]);
    print!("{}", t.render());
    Ok(())
}

const USAGE: &str = "usage: emx-cli <run|trace|profile|profile-diff|sweep|faults|resume|cache|fuzz|nullloop|latency|asm|info> [options]";

/// Flags `machine_cfg` reads.
#[rustfmt::skip]
const MACHINE_FLAGS: &[&str] = &["pes", "memory-words", "em4", "priority-responses", "net", "preset"];

/// Flags `kernel_spec` reads. With `MACHINE_FLAGS`, the flags that `fig4`,
/// a fixed machine running a fixed scenario, rejects.
const KERNEL_FLAGS: &[&str] = &["n", "threads", "seed", "comm-only", "block"];

/// Flags every sweep-shaped subcommand (`sweep`, `faults`, `resume`)
/// reads: `engine_from_args`, the kill switch, hostprof and the output.
#[rustfmt::skip]
const SWEEP_FLAGS: &[&str] = &["jobs", "no-cache", "progress", "kill-after", "hostprof", "csv", "out"];

/// The flags each subcommand reads. Any other flag is a usage error, so a
/// typo or a retired flag fails loudly instead of running with a default.
#[rustfmt::skip]
const FLAGS: &[(&str, &[&[&str]])] = &[
    ("run", &[MACHINE_FLAGS, KERNEL_FLAGS, &["csv", "kill-after", "hostprof"]]),
    ("trace", &[MACHINE_FLAGS, &["n", "threads", "seed", "events", "format", "check", "out"]]),
    ("profile", &[MACHINE_FLAGS, KERNEL_FLAGS, &["json", "out"]]),
    ("profile-diff", &[&["baseline-dir", "threshold"]]),
    ("sweep", &[SWEEP_FLAGS, &["workload", "pes", "sizes", "threads", "net", "preset", "journal"]]),
    ("faults", &[SWEEP_FLAGS, &["workload", "pes", "sizes", "threads", "net", "preset", "journal",
        "loss", "seed", "dup", "delay", "max-delay", "timeout", "backoff-cap", "max-attempts",
        "check-invariants"]]),
    ("resume", &[SWEEP_FLAGS]),
    ("cache", &[&["dir", "dry-run"]]),
    ("fuzz", &[&["cases", "seed", "perturb", "shrink-failures", "out"]]),
    ("nullloop", &[MACHINE_FLAGS, &["packets", "threads", "csv"]]),
    ("latency", &[MACHINE_FLAGS, &["readers", "reads"]]),
    ("asm", &[]),
    ("info", &[MACHINE_FLAGS]),
];

/// Usage-shape validation (exit 2): the command and its subcommand /
/// required positionals must exist, and every flag must be one the
/// command reads — for `fig4`, none that shapes the machine or kernel —
/// before any work starts.
fn validate_shape(cmd: &str, args: &Args) -> Result<(), String> {
    if let Some((_, groups)) = FLAGS.iter().find(|(name, _)| *name == cmd) {
        let known = |flag: &str| groups.iter().any(|group| group.contains(&flag));
        if let Some((flag, _)) = args.flags.iter().find(|(flag, _)| !known(flag)) {
            return Err(format!("unknown flag --{flag} for {cmd}"));
        }
    }
    if matches!(cmd, "trace" | "profile") && workload_word(cmd, args) == "fig4" {
        let shapes = |flag: &str| MACHINE_FLAGS.contains(&flag) || KERNEL_FLAGS.contains(&flag);
        if let Some((flag, _)) = args.flags.iter().find(|(flag, _)| shapes(flag)) {
            return Err(format!(
                "--{flag} does not apply to fig4: its machine and scenario are fixed"
            ));
        }
    }
    match cmd {
        "fuzz" => match args.positional.first().map(String::as_str) {
            Some("run" | "replay" | "shrink") => Ok(()),
            _ => Err("fuzz wants a subcommand: run | replay | shrink".into()),
        },
        "cache" => match args.positional.first().map(String::as_str) {
            Some("gc") => Ok(()),
            _ => Err("cache wants a subcommand: gc".into()),
        },
        "resume" if args.positional.is_empty() => Err("resume wants a journal file".into()),
        "profile-diff" if args.positional.is_empty() => {
            Err("profile-diff wants <report> [<baseline>]".into())
        }
        "asm" if args.positional.is_empty() => Err("asm wants a source file path".into()),
        _ => Ok(()),
    }
}

/// Argument-value validation (exit 4): flags whose value has a closed
/// syntax, and the workload word of the kernel subcommands, are checked up
/// front, so a typo fails fast with a distinct exit code instead of
/// surfacing mid-run as a generic error.
fn validate_values(cmd: &str, args: &Args) -> Result<(), String> {
    if let Some(net) = args.get("net") {
        parse_net(net).map_err(|e| format!("bad value for --net: {e}"))?;
    }
    if let Some(preset) = args.get("preset") {
        parse_preset(preset).map_err(|e| format!("bad value for --preset: {e}"))?;
    }
    if let Some(w) = args.get("workload") {
        Workload::parse(w).ok_or(format!(
            "bad value for --workload: unknown workload {w:?} (sort|fft|bfs|histogram|spmv|stencil)"
        ))?;
    }
    let takes_fig4 = matches!(cmd, "trace" | "profile");
    if let ("run" | "trace" | "profile", Some(w)) = (cmd, args.positional.first()) {
        if Workload::parse(w).is_none() && !(takes_fig4 && w == "fig4") {
            let more = if takes_fig4 { "|fig4" } else { "" };
            return Err(format!(
                "bad workload {w:?} (sort|fft|bfs|histogram|spmv|stencil{more})"
            ));
        }
    }
    for flag in ["kill-after", "threshold", "progress"] {
        if let Some(v) = args.get(flag) {
            v.parse::<u64>()
                .map_err(|_| format!("bad value for --{flag}: {v:?} is not a number"))?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().cloned() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let args = Args::parse(&raw[1..]);
    if let Err(msg) = validate_shape(&cmd, &args) {
        eprintln!("emx-cli: {msg}");
        return ExitCode::from(2);
    }
    if let Err(msg) = validate_values(&cmd, &args) {
        eprintln!("emx-cli: {msg}");
        return ExitCode::from(4);
    }
    if cmd == "profile-diff" {
        return match cmd_diff(&args) {
            Ok(Verdict::Drift) => ExitCode::from(3),
            Ok(_) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("emx-cli: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    let result = match cmd.as_str() {
        "run" => cmd_run(&args),
        "trace" => cmd_trace(&args),
        "profile" => cmd_profile(&args),
        "sweep" => cmd_sweep(&args),
        "faults" => cmd_faults(&args),
        "resume" => cmd_resume(&args),
        "cache" => cmd_cache(&args),
        "fuzz" => cmd_fuzz(&args),
        "nullloop" => cmd_nullloop(&args),
        "latency" => cmd_latency(&args),
        "asm" => cmd_asm(&args),
        "info" => cmd_info(&args),
        other => {
            eprintln!("emx-cli: unknown command {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("emx-cli: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `validate_shape` on a command line written as one string.
    fn shape(line: &str) -> Result<(), String> {
        let raw: Vec<String> = line.split_whitespace().map(String::from).collect();
        validate_shape(&raw[0], &Args::parse(&raw[1..]))
    }

    #[test]
    fn unknown_misspelled_and_retired_flags_are_usage_errors() {
        for (line, flag) in [
            (
                "run fft --pes 4 --n 64 --threads 2 --bogus-flag 3",
                "bogus-flag",
            ),
            ("run fft --pes 4 --n 64 --thread 2", "thread"),
            (
                "sweep --workload sort --pes 4 --sizes 64 --threads 1 --watchdog-ms 99999",
                "watchdog-ms",
            ),
            (
                "faults --workload sort --loss 0 --watchdog-ms 5",
                "watchdog-ms",
            ),
            ("resume s.journal --watchdog-ms 5", "watchdog-ms"),
            ("sweep --workload sort --shards 2", "shards"),
            ("run fft --shards 2", "shards"),
        ] {
            let cmd = line.split_whitespace().next().unwrap();
            assert_eq!(
                shape(line),
                Err(format!("unknown flag --{flag} for {cmd}")),
                "{line}"
            );
        }
    }

    #[test]
    fn net_flag_adds_its_shortcuts_to_the_shared_spelling() {
        assert_eq!(parse_net("mesh"), Ok(NetModelKind::Mesh2D));
        assert_eq!(parse_net("ideal"), Ok(NetModelKind::Ideal { latency: 1 }));
        for word in ["fattree", "fat-tree", "fattree:4", "fat-tree:4"] {
            assert_eq!(parse_net(word), Ok(NetModelKind::FatTree { arity: 4 }));
        }
        assert!(parse_net("ideal:4294967296").is_err());
    }

    #[test]
    fn trace_and_profile_accept_every_kernel_and_fig4() {
        // `trace` and `profile` both run through `probed_run`. The stencil
        // needs a band row per thread, so n is raised from trace's default
        // 64; its 2 PEs and h = 2 stay, for both probes. `fig4`'s machine
        // and scenario are fixed, so it takes no `--n`.
        let sized = Args::parse(&["--n".to_string(), "256".to_string()]);
        let fixed = Args::parse(&[]);
        for w in ["sort", "fft", "bfs", "histogram", "spmv", "stencil", "fig4"] {
            let (args, flags) = if w == "fig4" {
                (&fixed, "")
            } else {
                (&sized, " --n 256")
            };
            for cmd in ["trace", "profile"] {
                assert_eq!(shape(&format!("{cmd} {w}{flags}")), Ok(()), "{cmd} {w}");
            }
            let (rec, handle) = Recorder::unbounded();
            probed_run(args, w, TRACE_SHAPE, |m| m.attach_probe(Box::new(rec)))
                .unwrap_or_else(|e| panic!("{w}: {e}"));
            assert!(handle.finish().total() > 0, "{w} recorded no events");
            let (handle, report, _) = probed_run(args, w, TRACE_SHAPE, attach_profiler)
                .unwrap_or_else(|e| panic!("{w}: {e}"));
            let profile = handle.finish(&report);
            assert_eq!(profile.pes.len(), 2, "{w}");
            assert!(
                profile.pes[0].events.dispatches > 0,
                "{w} profiled no events"
            );
        }
    }

    #[test]
    fn every_flag_in_the_usage_text_is_accepted() {
        let src = include_str!("emx-cli.rs");
        let usage = src
            .split("//! ```text\n")
            .nth(1)
            .and_then(|rest| rest.split("//! ```\n").next())
            .expect("the module docs open with the usage block");
        let mut cmd = "";
        let mut checked = 0;
        for line in usage.lines() {
            let line = line.trim_start_matches("//!").trim();
            if let Some(rest) = line.strip_prefix("emx-cli ") {
                cmd = rest.split_whitespace().next().unwrap();
            }
            for token in line.split_whitespace() {
                let Some(flag) = token.trim_start_matches('[').strip_prefix("--") else {
                    continue;
                };
                let flag = flag.split(['=', '[', ']']).next().unwrap();
                let (_, groups) = FLAGS
                    .iter()
                    .find(|(name, _)| *name == cmd)
                    .unwrap_or_else(|| panic!("{cmd} has no flag table entry"));
                assert!(
                    groups.iter().any(|group| group.contains(&flag)),
                    "{cmd} documents --{flag} but does not accept it"
                );
                checked += 1;
            }
        }
        assert!(checked > 50, "only {checked} documented flags found");
    }
}
