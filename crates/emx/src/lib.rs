//! # emx
//!
//! Facade crate for the EM-X fine-grain multithreading simulator — a
//! from-scratch Rust reproduction of *Fine-Grain Multithreading with the
//! EM-X Multiprocessor* (Sohn, Kodama, Ku, Sato, Sakane, Yamana, Sakai,
//! Yamaguchi; SPAA 1997).
//!
//! The workspace models the 80-processor EM-X distributed-memory machine —
//! EMC-Y processors with by-passing DMA, two-priority hardware packet
//! queues, FIFO thread scheduling, 2-word packets, and a circular Omega
//! network — and reruns the paper's bitonic-sorting and FFT experiments on
//! it. This crate re-exports every public API under stable module names:
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`core`] | cycles, packets, addresses, machine configuration |
//! | [`net`] | circular Omega / ideal / crossbar / torus / mesh / fat-tree network models |
//! | [`isa`] | EMC-Y instruction set, assembler, interpreter |
//! | [`proc`] | processor units: memory, packet queue, frames, by-pass DMA |
//! | [`runtime`] | threads, scheduling, barriers, the [`Machine`](runtime::Machine) |
//! | [`workloads`] | bitonic sorting, FFT, BFS, histogram, spmv, stencil drivers; the §5 null loop and latency probes |
//! | [`model`] | the Saavedra-Barrera analytic multithreading model |
//! | [`stats`] | breakdowns, switch censuses, reporters, stable digests |
//! | [`sweep`] | parallel deterministic cached sweep engine + provenance |
//! | [`fuzz`] | deterministic fuzzing: random programs, replay/checkpoint oracle, shrinking |
//! | [`faults`] | deterministic fault injection, invariant checking |
//! | [`obs`] | bounded trace recorder, Perfetto/Chrome-trace + CSV export, trace digest |
//! | [`profile`] | trace-driven profiler: per-PE event counts and histograms, attribution, read blame, critical path |
//!
//! ## Quick start
//!
//! ```
//! use emx::prelude::*;
//!
//! // Sort 1024 keys on a 4-processor EM-X with 4 threads per processor.
//! let mut cfg = MachineConfig::with_pes(4);
//! cfg.local_memory_words = 1 << 16;
//! let outcome = run(&cfg, &SortParams::new(1024, 4), |_| {}).unwrap();
//! assert!(outcome.output.windows(2).all(|w| w[0] <= w[1]));
//! println!(
//!     "sorted in {:.3} ms simulated, comm time {:.3} ms",
//!     outcome.report.elapsed_secs() * 1e3,
//!     outcome.report.comm_time_secs() * 1e3,
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use emx_core as core;
pub use emx_faults as faults;
pub use emx_fuzz as fuzz;
pub use emx_hostprof as hostprof;
pub use emx_isa as isa;
pub use emx_model as model;
pub use emx_net as net;
pub use emx_obs as obs;
pub use emx_proc as proc;
pub use emx_profile as profile;
pub use emx_runtime as runtime;
pub use emx_stats as stats;
pub use emx_sweep as sweep;
pub use emx_workloads as workloads;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use emx_core::{
        CostPreset, Cycle, FaultSpec, GlobalAddr, MachineConfig, NetConfig, NetModelKind, Packet,
        PacketKind, PeId, Priority, ServiceMode, SimError, PPM_SCALE,
    };
    pub use emx_faults::{FaultPlan, FaultReport, FaultyNetwork, InvariantChecker};
    pub use emx_isa::{assemble, kernels, Instr, Program, ProgramBuilder, Reg};
    pub use emx_model::{ModelParams, Region};
    pub use emx_net::{build_network, Network};
    pub use emx_obs::{
        chrome_trace_json, events_csv, validate_chrome_trace, DigestHandle, DigestProbe, EventLog,
        Recorder,
    };
    pub use emx_profile::{
        diff_profiles, parse_text, ProfileReport, Profiler, ProfilerHandle, DEFAULT_THRESHOLD_PPM,
        PROFILE_SCHEMA,
    };
    pub use emx_runtime::{
        config_digest, Action, BarrierId, EntryId, Machine, SuspendCause, ThreadBody, ThreadCtx,
        TraceEvent, TraceKind, WorkKind, DEFAULT_FUEL,
    };
    pub use emx_stats::{
        ascii_chart, overlap_efficiency, Breakdown, FaultSummary, PeStats, RunReport, Series,
        SwitchCensus, Table, Verdict,
    };
    pub use emx_sweep::{RunCache, RunSpec, SweepEngine};
    pub use emx_workloads::gen::{dft, keys, signal, KeyDist, Signal};
    pub use emx_workloads::{
        read_loop_idle, remote_read_latency, run, run_null_loop, BfsOutcome, BfsParams, FftOutcome,
        FftParams, HistogramOutcome, HistogramParams, Kernel, NullLoopOutcome, NullLoopParams,
        SortOutcome, SortParams, SpmvOutcome, SpmvParams, StencilOutcome, StencilParams,
    };
}
