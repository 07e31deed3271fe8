//! # emx-bench
//!
//! Figure harness regenerating every figure of the SPAA'97 EM-X paper.
//!
//! Every figure is a sweep over (workload, P, n, h) plus ablation knobs,
//! executed by the [`emx::sweep::SweepEngine`] — parallel across host
//! threads, deterministic (results are assembled in grid order, so CSV
//! output is byte-identical at any `--jobs` count), and cached
//! content-addressed under `results/cache/` (see `docs/SWEEPS.md`). This
//! crate layers the figure-specific vocabulary on top:
//!
//! * [`Scale`] — how big the regenerated figures are (`quick` CI smoke
//!   runs, `standard` for EXPERIMENTS.md numbers, `full` near paper
//!   sizes), and which per-PE sizes / thread counts / PE panels each
//!   scale sweeps;
//! * [`Workload`] — the six kernels (re-exported from `emx-sweep`): the
//!   paper's multithreaded bitonic sorting and FFT, and the irregular
//!   BFS, histogram, spmv and stencil;
//! * [`series_by_size`] — regroup sweep points into the per-size series
//!   the figure panels plot.
//!
//! The `figures` binary (`cargo run --release -p emx-bench --bin figures`)
//! regenerates every figure and ablation as tables + CSV + provenance
//! sidecars; see its `--help` text and README § "Regenerating the
//! figures". Simulator performance is measured by the repository
//! benchmark (`benchmark/README.md`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use emx::prelude::*;

pub use emx::sweep::Workload;

/// How big the regenerated figures are.
///
/// The paper runs up to n = 8M elements on real hardware; the simulator
/// reproduces shapes at reduced sizes with identical per-PE ratios (see
/// EXPERIMENTS.md). `Full` approaches paper scale and takes correspondingly
/// long.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds: CI-sized smoke runs.
    Quick,
    /// A couple of minutes: the default for EXPERIMENTS.md numbers.
    Standard,
    /// Tens of minutes: closest to paper sizes.
    Full,
}

impl Scale {
    /// Parse from a CLI word.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "standard" => Some(Scale::Standard),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// The CLI word for this scale.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Standard => "standard",
            Scale::Full => "full",
        }
    }

    /// Elements-per-PE series for the sorting panels (the paper's series
    /// are n/P = 8K..128K for P=16 and 8K..128K for P=64).
    pub fn sort_per_pe(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![256, 1024],
            Scale::Standard => vec![512, 2048, 8192],
            Scale::Full => vec![2048, 8192, 32768],
        }
    }

    /// Points-per-PE series for the FFT panels.
    pub fn fft_per_pe(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![256, 1024],
            Scale::Standard => vec![512, 2048, 8192],
            Scale::Full => vec![2048, 8192, 32768],
        }
    }

    /// Per-PE size series for the irregular workloads (BFS vertices,
    /// histogram updates, spmv rows, stencil cells per PE). Smaller than
    /// the regular series: every element of an irregular kernel costs at
    /// least one fine-grain remote read, so these sizes produce similar
    /// packet counts to the sorting/FFT panels.
    pub fn irregular_per_pe(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![64, 128],
            Scale::Standard => vec![128, 256],
            Scale::Full => vec![256, 1024],
        }
    }

    /// Thread counts swept on the x axis (the paper sweeps 1..16).
    pub fn threads(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![1, 2, 4, 8, 16],
            _ => vec![1, 2, 3, 4, 6, 8, 12, 16],
        }
    }

    /// Processor counts for the figure panels (paper: 16 and 64).
    pub fn panel_pes(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![16],
            _ => vec![16, 64],
        }
    }
}

/// One swept configuration and its result.
#[derive(Debug, Clone)]
pub struct Point {
    /// Processors.
    pub p: usize,
    /// Total elements/points.
    pub n: usize,
    /// Threads per processor.
    pub h: usize,
    /// The run's measurements.
    pub report: RunReport,
}

/// Group a sweep's points into per-size series of (h, y) pairs using the
/// given metric.
pub fn series_by_size(
    points: &[Point],
    metric: impl Fn(&Point) -> f64,
) -> Vec<(usize, Vec<(usize, f64)>)> {
    let mut sizes: Vec<usize> = points.iter().map(|p| p.n).collect();
    sizes.dedup();
    sizes
        .into_iter()
        .map(|n| {
            let ys = points
                .iter()
                .filter(|pt| pt.n == n)
                .map(|pt| (pt.h, metric(pt)))
                .collect();
            (n, ys)
        })
        .collect()
}

/// Human-readable element count ("32K", "2M").
pub fn fmt_n(n: usize) -> String {
    if n >= 1 << 20 && n % (1 << 20) == 0 {
        format!("{}M", n >> 20)
    } else if n >= 1 << 10 && n % (1 << 10) == 0 {
        format!("{}K", n >> 10)
    } else {
        n.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emx::sweep::RunSpec;

    #[test]
    fn scales_parse() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("standard"), Some(Scale::Standard));
        assert_eq!(Scale::parse("bogus"), None);
        assert_eq!(Scale::Full.name(), "full");
    }

    #[test]
    fn fmt_n_uses_suffixes() {
        assert_eq!(fmt_n(512), "512");
        assert_eq!(fmt_n(2048), "2K");
        assert_eq!(fmt_n(8 << 20), "8M");
    }

    #[test]
    fn series_by_size_groups() {
        let pts: Vec<Point> = [1, 2]
            .into_iter()
            .map(|h| {
                let spec = RunSpec::new(Workload::Fft, 4, 64, h);
                Point {
                    p: spec.pes,
                    n: spec.n(),
                    h,
                    report: spec.execute().unwrap(),
                }
            })
            .collect();
        let series = series_by_size(&pts, |p| p.report.comm_sync_time_secs());
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].1.len(), 2);
    }
}
