//! Content-addressed run cache.
//!
//! Re-running `figures` only simulates points whose inputs changed: each
//! run's result is stored under `results/cache/<key>.run`, where `<key>`
//! is a stable 128-bit digest of the [`RunSpec`], the expanded
//! [`MachineConfig`](emx_core::MachineConfig) (including the whole cost
//! model and network timing),
//! and the engine's cache-format/crate version. Any change to a knob, a
//! cost, or the format yields a different address, so stale entries are
//! never *read* — they are simply orphaned (delete `results/cache/` to
//! reclaim the space).
//!
//! Entries are versioned plain text (the canonical report rendering from
//! [`emx_stats::digest`]) so they diff and review like the CSVs they feed.
//! A corrupt or truncated entry is treated as a miss, never an error.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use emx_stats::digest::{parse_report_text, report_canonical_text, Digest128};
use emx_stats::RunReport;

use crate::spec::{config_canonical, RunSpec};

/// Bumped whenever the entry layout or key derivation changes; part of
/// every cache address. v2: report layout gained queue-pressure fields and
/// the fault summary line; specs and configs carry a fault plan.
pub const CACHE_FORMAT: u32 = 2;

/// The default cache location, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = "results/cache";

/// A stable content address for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey(String);

impl CacheKey {
    /// Derive the address of `spec` under `cfg`.
    ///
    /// `cfg` is passed separately (rather than re-expanded from the spec)
    /// so callers can verify that editing the cost model moves the
    /// address; the engine always passes `spec.machine_config()`.
    pub fn for_run(spec: &RunSpec, cfg: &emx_core::MachineConfig) -> CacheKey {
        let mut d = Digest128::new();
        d.write_str("emx-sweep cache v");
        d.write_str(&CACHE_FORMAT.to_string());
        d.write_str(" engine ");
        d.write_str(env!("CARGO_PKG_VERSION"));
        d.write_str("\n");
        d.write_str(&spec.canonical());
        d.write_str(&config_canonical(cfg));
        CacheKey(d.hex())
    }

    /// Rehydrate a key from its 32-hex-digit rendering (a cache entry's
    /// file stem, or a journal record). `None` if the text is not a
    /// plausible address.
    pub fn from_hex(s: &str) -> Option<CacheKey> {
        if s.len() == 32
            && s.bytes()
                .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
        {
            Some(CacheKey(s.to_string()))
        } else {
            None
        }
    }

    /// The 32-hex-digit address.
    pub fn hex(&self) -> &str {
        &self.0
    }

    /// Abbreviated form for progress lines.
    pub fn short(&self) -> &str {
        &self.0[..12]
    }
}

/// A directory of content-addressed run results.
#[derive(Debug, Clone)]
pub struct RunCache {
    dir: PathBuf,
}

impl RunCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> RunCache {
        RunCache { dir: dir.into() }
    }

    /// The conventional `results/cache/` location.
    pub fn default_location() -> RunCache {
        RunCache::new(DEFAULT_CACHE_DIR)
    }

    /// Where this cache lives.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the entry for `key`.
    pub fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{}.run", key.hex()))
    }

    /// Load the report cached under `key`, if a valid entry exists.
    /// Corrupt entries are treated as misses.
    pub fn load(&self, key: &CacheKey) -> Option<RunReport> {
        let text = fs::read_to_string(self.entry_path(key)).ok()?;
        parse_entry(&text, key)
    }

    /// Store `report` under `key`. The entry records the spec and config
    /// canonically for human inspection; only the report section is read
    /// back. Writes go through a temp file + rename so a crashed run
    /// never leaves a truncated entry behind.
    pub fn store(&self, key: &CacheKey, spec: &RunSpec, report: &RunReport) -> io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let mut text = String::new();
        text.push_str(&format!("emx-cache v{CACHE_FORMAT}\n"));
        text.push_str(&format!("key {}\n", key.hex()));
        text.push_str(&spec.canonical());
        text.push_str(&config_canonical(&spec.machine_config()));
        text.push_str(&report_canonical_text(report));
        let tmp = self
            .dir
            .join(format!("{}.tmp.{}", key.hex(), std::process::id()));
        fs::write(&tmp, &text)?;
        fs::rename(&tmp, self.entry_path(key))
    }

    /// Sweep the cache directory for entries that only waste space:
    /// quarantine markers (`*.fail`) that older builds wrote on a failed
    /// run, orphaned temp files from crashed writes (`*.tmp.*`), and
    /// corrupt or misnamed `*.run` entries (which are misses anyway). With `dry_run` nothing is deleted; the report
    /// lists the same planned actions either way, sorted by file name, so
    /// its digest is deterministic for a given directory state.
    pub fn gc(&self, dry_run: bool) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        let entries = match fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            // A cache that was never created has nothing to collect.
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(report),
            Err(e) => return Err(e),
        };
        let mut files: Vec<PathBuf> = Vec::new();
        for entry in entries {
            let path = entry?.path();
            if path.is_file() {
                files.push(path);
            }
        }
        files.sort();
        for path in files {
            let name = path
                .file_name()
                .map(|f| f.to_string_lossy().into_owned())
                .unwrap_or_default();
            let action = if name.ends_with(".fail") {
                GcAction::DropQuarantine
            } else if name.contains(".tmp.") {
                GcAction::DropOrphan
            } else if let Some(stem) = name.strip_suffix(".run") {
                let valid = CacheKey::from_hex(stem).is_some_and(|key| {
                    fs::read_to_string(&path)
                        .ok()
                        .and_then(|text| parse_entry(&text, &key))
                        .is_some()
                });
                if valid {
                    GcAction::Keep
                } else {
                    GcAction::DropCorrupt
                }
            } else {
                GcAction::Skip
            };
            if !dry_run && action.drops() {
                fs::remove_file(&path)?;
            }
            report.files.push((action, name));
        }
        Ok(report)
    }
}

/// What the garbage collector decided about one cache file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcAction {
    /// A valid run entry — kept.
    Keep,
    /// A quarantine marker (`*.fail`) an older build left behind — dropped;
    /// nothing reads it.
    DropQuarantine,
    /// A temp file orphaned by a crashed write — dropped.
    DropOrphan,
    /// A misnamed or unparsable run entry — dropped (it was a miss anyway).
    DropCorrupt,
    /// An unrelated file — left alone.
    Skip,
}

impl GcAction {
    /// Whether the garbage collector removes files with this verdict.
    pub fn drops(self) -> bool {
        matches!(
            self,
            GcAction::DropQuarantine | GcAction::DropOrphan | GcAction::DropCorrupt
        )
    }

    /// Stable one-word rendering, used in listings and the summary digest.
    pub fn word(self) -> &'static str {
        match self {
            GcAction::Keep => "keep",
            GcAction::DropQuarantine => "drop-quarantine",
            GcAction::DropOrphan => "drop-orphan",
            GcAction::DropCorrupt => "drop-corrupt",
            GcAction::Skip => "skip",
        }
    }
}

/// The garbage collector's findings: every cache file with its verdict,
/// sorted by file name.
#[derive(Debug, Clone, Default)]
pub struct GcReport {
    /// `(verdict, file name)` for every regular file in the cache dir.
    pub files: Vec<(GcAction, String)>,
}

impl GcReport {
    /// How many files carry `action`.
    pub fn count(&self, action: GcAction) -> usize {
        self.files.iter().filter(|(a, _)| *a == action).count()
    }

    /// How many files the collector drops (or would drop, under
    /// `dry_run`).
    pub fn dropped(&self) -> usize {
        self.files.iter().filter(|(a, _)| a.drops()).count()
    }

    /// Deterministic digest of the planned actions: the same directory
    /// state always produces the same digest, dry run or not.
    pub fn digest(&self) -> String {
        let mut d = Digest128::new();
        d.write_str("emx-cache gc v1\n");
        for (action, name) in &self.files {
            d.write_str(action.word());
            d.write_str(" ");
            d.write_str(name);
            d.write_str("\n");
        }
        d.hex()
    }
}

/// Parse a cache entry; `None` on any structural mismatch.
fn parse_entry(text: &str, key: &CacheKey) -> Option<RunReport> {
    let mut lines = text.lines();
    if lines.next()? != format!("emx-cache v{CACHE_FORMAT}") {
        return None;
    }
    if lines.next()? != format!("key {}", key.hex()) {
        return None;
    }
    parse_report_text(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Workload;
    use emx_core::Cycle;
    use emx_stats::{FaultSummary, PeStats};

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("emx-sweep-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_report(pes: usize) -> RunReport {
        let mut r = RunReport {
            per_pe: vec![PeStats::default(); pes],
            elapsed: Cycle::new(12_345),
            clock_hz: 20_000_000,
            net_packets: 77,
            net_contention: Cycle::new(9),
            faults: None,
        };
        for (i, p) in r.per_pe.iter_mut().enumerate() {
            p.breakdown.compute = Cycle::new(100 + i as u64);
            p.breakdown.comm = Cycle::new(50 + i as u64);
            p.switches.remote_read = 3 * i as u64;
            p.packets_sent = 10 + i as u64;
            p.reads_issued = i as u64;
            p.dispatches = 2;
            p.max_queue_depth = 4;
            p.ibu_spills = 1;
            p.high_spills = i as u64;
            p.low_spills = 1 + i as u64;
            p.forced_spills = i as u64 / 2;
            p.max_high_depth = 2;
            p.max_low_depth = 3 + i;
        }
        r
    }

    #[test]
    fn roundtrip_preserves_the_report_exactly() {
        let cache = RunCache::new(scratch_dir("roundtrip"));
        let spec = RunSpec::new(Workload::Sort, 4, 64, 2);
        let key = CacheKey::for_run(&spec, &spec.machine_config());
        let report = sample_report(4);
        assert!(cache.load(&key).is_none());
        cache.store(&key, &spec, &report).unwrap();
        assert_eq!(cache.load(&key), Some(report));
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn roundtrip_preserves_fault_summaries() {
        let cache = RunCache::new(scratch_dir("faulty-roundtrip"));
        let spec = RunSpec::new(Workload::Sort, 4, 64, 2);
        let key = CacheKey::for_run(&spec, &spec.machine_config());
        let mut report = sample_report(2);
        report.faults = Some(FaultSummary {
            dropped: 5,
            retries: 7,
            stale_responses: 2,
            ..FaultSummary::default()
        });
        cache.store(&key, &spec, &report).unwrap();
        assert_eq!(cache.load(&key), Some(report));
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_entries_are_misses() {
        let cache = RunCache::new(scratch_dir("corrupt"));
        let spec = RunSpec::new(Workload::Fft, 4, 64, 2);
        let key = CacheKey::for_run(&spec, &spec.machine_config());
        fs::create_dir_all(cache.dir()).unwrap();
        fs::write(cache.entry_path(&key), "not a cache entry").unwrap();
        assert!(cache.load(&key).is_none());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn key_round_trips_through_hex() {
        let spec = RunSpec::new(Workload::Sort, 4, 64, 2);
        let key = CacheKey::for_run(&spec, &spec.machine_config());
        assert_eq!(CacheKey::from_hex(key.hex()), Some(key));
        assert_eq!(CacheKey::from_hex("deadbeef"), None, "too short");
        assert_eq!(
            CacheKey::from_hex("ZZadbeefdeadbeefdeadbeefdeadbeef"),
            None,
            "not hex"
        );
    }

    #[test]
    fn gc_drops_quarantine_orphans_and_corruption_but_keeps_entries() {
        let cache = RunCache::new(scratch_dir("gc"));
        let spec = RunSpec::new(Workload::Sort, 4, 64, 2);
        let key = CacheKey::for_run(&spec, &spec.machine_config());
        cache.store(&key, &spec, &sample_report(4)).unwrap();
        let mut other = spec.clone();
        other.threads = 4;
        let other_key = CacheKey::for_run(&other, &other.machine_config());
        let marker = cache.dir().join(format!("{}.fail", other_key.hex()));
        fs::write(&marker, "boom").unwrap();
        fs::write(
            cache.dir().join(format!("{}.tmp.999", other_key.hex())),
            "torn write",
        )
        .unwrap();
        fs::write(cache.dir().join("deadbeef.run"), "not a cache entry").unwrap();
        fs::write(cache.dir().join("NOTES"), "unrelated").unwrap();

        let dry = cache.gc(true).unwrap();
        assert_eq!(dry.count(GcAction::Keep), 1);
        assert_eq!(dry.count(GcAction::DropQuarantine), 1);
        assert_eq!(dry.count(GcAction::DropOrphan), 1);
        assert_eq!(dry.count(GcAction::DropCorrupt), 1);
        assert_eq!(dry.count(GcAction::Skip), 1);
        // The dry run deleted nothing...
        assert!(marker.exists());
        let real = cache.gc(false).unwrap();
        // ...and planned exactly what the real pass then did.
        assert_eq!(real.digest(), dry.digest());
        assert_eq!(real.dropped(), 3);
        assert!(!marker.exists());
        assert_eq!(cache.load(&key), Some(sample_report(4)));
        assert!(cache.dir().join("NOTES").exists());
        // A second pass over the now-clean directory drops nothing.
        let again = cache.gc(false).unwrap();
        assert_eq!(again.dropped(), 0);
        assert_ne!(again.digest(), real.digest());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn gc_of_a_missing_directory_is_empty() {
        let cache = RunCache::new(scratch_dir("gc-missing"));
        let report = cache.gc(false).unwrap();
        assert!(report.files.is_empty());
        assert_eq!(report.dropped(), 0);
    }

    #[test]
    fn key_depends_on_spec_and_cost_model() {
        let spec = RunSpec::new(Workload::Sort, 4, 64, 2);
        let cfg = spec.machine_config();
        let base = CacheKey::for_run(&spec, &cfg);

        let mut other = spec.clone();
        other.threads = 4;
        assert_ne!(base, CacheKey::for_run(&other, &other.machine_config()));

        let mut costlier = cfg.clone();
        costlier.costs.context_switch += 1;
        assert_ne!(base, CacheKey::for_run(&spec, &costlier));

        assert_eq!(base, CacheKey::for_run(&spec, &spec.machine_config()));
        assert_eq!(base.hex().len(), 32);
    }
}
