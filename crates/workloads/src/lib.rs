//! # emx-workloads
//!
//! The application kernels of the EM-X study. The two from the SPAA'97
//! paper, in their multithreaded forms:
//!
//! * [`bitonic`] — multithreaded bitonic sorting (Batcher). Selected by the
//!   paper "for its nearly 1-to-1 computation-to-communication ratio and the
//!   small amount of thread computation parallelism": communication can
//!   proceed in any order, but merges must run in ascending thread order,
//!   so threads synchronize through sequence cells and the switch census
//!   shows thread-sync switches.
//! * [`fft`] — multithreaded Fast Fourier Transform (Cooley-Tukey, radix-2
//!   DIF with blocked binary-exchange distribution). Selected "because of
//!   its high computation-to-communication ratio and the large amount of
//!   thread computation parallelism": no data dependence exists between
//!   points within an iteration, so threads never synchronize with each
//!   other and overlap exceeds 95%.
//!
//! And an irregular suite that opens the workload space past the paper's
//! two regular kernels, each stressing a different traffic pattern on the
//! same spawn / remote-read / synchronization primitives:
//!
//! * [`bfs`] — pull-based level-synchronous breadth-first search over a
//!   distributed random graph: data-dependent single-word remote reads
//!   with no locality, plus a changed-flag reduction every level.
//! * [`histogram`] — all-to-all scatter where every increment travels as
//!   a spawned remote thread (fault-safe remote read-modify-write on the
//!   owner, the EM-X answer to remote atomics).
//! * [`spmv`] — sparse matrix–vector product: one fine-grain remote read
//!   per stored nonzero, gather traffic shaped by the sparsity pattern.
//! * [`stencil`] — 2D five-point stencil with halo exchange: bulk
//!   nearest-neighbour block reads and one barrier per iteration.
//!
//! Every kernel has one shape, the [`Kernel`] trait on its parameters:
//! `build` makes a [`Machine`](emx_runtime::Machine) with the data
//! distributed blocked (n/P contiguous elements per processor) and `h`
//! worker threads spawned per processor; the machine runs to quiescence;
//! `finish` gathers the result, **verifies it against a sequential
//! reference** (sorted permutation; FFT against a naive DFT; exact counts,
//! distances, products, and grids for the irregular suite), and returns it
//! with the run's [`RunReport`](emx_stats::RunReport). [`run`] is that
//! sequence. Every worker body implements
//! [`ThreadBody::snap`](emx_runtime::ThreadBody::snap), so a machine of any
//! kernel can be checkpointed mid-run and resumed.
//!
//! [`gen`] provides seeded input generators so every run is reproducible,
//! and [`fig4`] rebuilds the paper's Figure 4 scheduling scenario with a
//! checker for its hand-walked FIFO schedule. [`nullloop`] is the paper's
//! §5 packet-overhead measurement, and [`probes`] holds its two in-text
//! microprobes: the remote-read latency and the 12-cycle read loop behind
//! the analytic-model check.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod bitonic;
pub mod fft;
pub mod fig4;
pub mod gen;
pub mod histogram;
mod kernel;
pub mod nullloop;
pub mod probes;
pub mod spmv;
pub mod stencil;

pub use bfs::{BfsOutcome, BfsParams};
pub use bitonic::{SortOutcome, SortParams};
pub use fft::{FftOutcome, FftParams};
pub use histogram::{HistogramOutcome, HistogramParams};
pub use kernel::{run, Kernel};
pub use nullloop::{run_null_loop, NullLoopOutcome, NullLoopParams};
pub use probes::{read_loop_idle, remote_read_latency};
pub use spmv::{SpmvOutcome, SpmvParams};
pub use stencil::{StencilOutcome, StencilParams};

/// [`run`] under the per-kernel names the benchmark harness (`benchmark/`)
/// imports; kept until the harness runs its kernels through
/// `RunSpec::execute_on`.
pub use kernel::{
    run as run_bfs_observed, run as run_bitonic_observed, run as run_fft_observed,
    run as run_histogram_observed, run as run_spmv_observed, run as run_stencil_observed,
};
