//! Write-ahead journal for crash-recoverable sweeps (`emx-journal/1`).
//!
//! A sweep armed with a journal records its full identity up front — the
//! mode and label of the invocation plus every [`RunSpec`] in a
//! self-contained one-line codec — then appends one record group per
//! point as workers finish:
//!
//! ```text
//! emx-journal/1
//! mode sweep
//! label sweep_fft_p16
//! spec 0 |workload=fft pes=16 per_pe=512 threads=1 ...
//! spec 1 |workload=fft pes=16 per_pe=512 threads=2 ...
//! end-header 2
//! intent 0 <cache key>
//! result 0 <cache key> 0 |emx-report v2\n...
//! commit 0
//! intent 1 <cache key>
//! fail 1 |worker panicked: ...
//! commit 1
//! done 2
//! ```
//!
//! The protocol is intent → result → commit, each line flushed before the
//! next is written: a `result` (or `fail`) record embeds the complete
//! canonical report (escaped onto one line) *before* the `commit` that
//! makes it authoritative, so a crash can tear at most the uncommitted
//! tail. [`load`] replays the journal, keeps every committed point, and
//! silently stops at the first malformed line — exactly the torn state a
//! `process::abort` (or the `--kill-after` switch) leaves behind.
//! [`resume`] then re-executes only the points with no committed record
//! and reassembles the outcome **by input index**, so the resumed CSV is
//! byte-identical to an uninterrupted run: replayed points keep their
//! recorded report and `cached` flag, and re-executed points are pure
//! functions of their spec.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use emx_core::{CostPreset, FaultSpec, NetModelKind, ServiceMode};
use emx_stats::digest::{parse_report_text, report_canonical_text};
use emx_stats::RunReport;

use crate::engine::{lock, Slot, SweepEngine, SweepOutcome};
use crate::spec::{RunSpec, Workload};

/// Format tag on the journal's first line; bumped with any layout change.
pub const JOURNAL_FORMAT: &str = "emx-journal/1";

/// Escape a multi-line payload onto one journal line.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Invert [`esc`]; `None` on a dangling or unknown escape (a torn line).
fn unesc(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

/// One-word (comma-joined) rendering of a fault plan, invertible by
/// [`faults_parse`]. Every field appears exactly once.
fn faults_word(f: &FaultSpec) -> String {
    let cap = match f.frame_cap {
        Some(c) => c.to_string(),
        None => "none".into(),
    };
    let pes = if f.frame_cap_pes.is_empty() {
        "-".to_string()
    } else {
        f.frame_cap_pes
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join("+")
    };
    format!(
        "seed:{},drop:{},dup:{},delay:{},max_delay:{},spill:{},dma:{},dma_cycles:{},\
         cap:{},cap_pes:{},retry:{},backoff:{},attempts:{},check:{}",
        f.seed,
        f.drop_ppm,
        f.dup_ppm,
        f.delay_ppm,
        f.max_delay,
        f.spill_ppm,
        f.dma_stall_ppm,
        f.dma_stall_cycles,
        cap,
        pes,
        f.retry_timeout,
        f.retry_backoff_cap,
        f.max_attempts,
        f.check_invariants,
    )
}

fn faults_parse(w: &str) -> Option<FaultSpec> {
    let mut f = FaultSpec::new(0);
    let mut seen: Vec<&str> = Vec::new();
    for field in w.split(',') {
        let (name, value) = field.split_once(':')?;
        if seen.contains(&name) {
            return None;
        }
        match name {
            "seed" => f.seed = value.parse().ok()?,
            "drop" => f.drop_ppm = value.parse().ok()?,
            "dup" => f.dup_ppm = value.parse().ok()?,
            "delay" => f.delay_ppm = value.parse().ok()?,
            "max_delay" => f.max_delay = value.parse().ok()?,
            "spill" => f.spill_ppm = value.parse().ok()?,
            "dma" => f.dma_stall_ppm = value.parse().ok()?,
            "dma_cycles" => f.dma_stall_cycles = value.parse().ok()?,
            "cap" => {
                f.frame_cap = match value {
                    "none" => None,
                    n => Some(n.parse().ok()?),
                }
            }
            "cap_pes" => {
                f.frame_cap_pes = match value {
                    "-" => Vec::new(),
                    list => list
                        .split('+')
                        .map(|p| p.parse().ok())
                        .collect::<Option<Vec<u16>>>()?,
                }
            }
            "retry" => f.retry_timeout = value.parse().ok()?,
            "backoff" => f.retry_backoff_cap = value.parse().ok()?,
            "attempts" => f.max_attempts = value.parse().ok()?,
            "check" => f.check_invariants = value.parse().ok()?,
            _ => return None,
        }
        seen.push(name);
    }
    (seen.len() == 14).then_some(f)
}

/// Render a [`RunSpec`] as one self-contained journal line: `key=value`
/// tokens, every field exactly once, invertible by [`spec_from_line`].
pub fn spec_to_line(s: &RunSpec) -> String {
    let opt = |v: Option<u64>| match v {
        Some(v) => v.to_string(),
        None => "none".into(),
    };
    format!(
        "workload={} pes={} per_pe={} threads={} seed={} comm_only={} block_read={} \
         point_cycles={} service={} prio_responses={} net={} preset={} faults={}",
        s.workload.name(),
        s.pes,
        s.per_pe,
        s.threads,
        opt(s.seed),
        s.comm_only,
        s.block_read,
        opt(s.point_cycles.map(u64::from)),
        s.service_mode.name(),
        s.priority_read_responses,
        s.net_model.name(),
        s.preset.name(),
        match &s.faults {
            Some(f) => faults_word(f),
            None => "none".into(),
        },
    )
}

/// Invert [`spec_to_line`]. Strict: every field must appear exactly once
/// and nothing else may — a journal is a versioned format, not a config
/// file.
pub fn spec_from_line(line: &str) -> Result<RunSpec, String> {
    let bad = |msg: String| Err(format!("bad spec line: {msg}"));
    let mut spec = RunSpec::new(Workload::Sort, 0, 0, 0);
    let mut seen: Vec<&str> = Vec::new();
    for token in line.split_whitespace() {
        let Some((name, value)) = token.split_once('=') else {
            return bad(format!("token {token:?} is not key=value"));
        };
        if seen.contains(&name) {
            return bad(format!("repeated field {name:?}"));
        }
        let field = |what: &str| format!("bad spec line: {what} {value:?}");
        match name {
            "workload" => {
                spec.workload = Workload::parse(value).ok_or_else(|| field("unknown workload"))?;
            }
            "pes" => spec.pes = value.parse().map_err(|_| field("bad pes"))?,
            "per_pe" => spec.per_pe = value.parse().map_err(|_| field("bad per_pe"))?,
            "threads" => spec.threads = value.parse().map_err(|_| field("bad threads"))?,
            "seed" => {
                spec.seed = match value {
                    "none" => None,
                    v => Some(v.parse().map_err(|_| field("bad seed"))?),
                }
            }
            "comm_only" => spec.comm_only = value.parse().map_err(|_| field("bad comm_only"))?,
            "block_read" => {
                spec.block_read = value.parse().map_err(|_| field("bad block_read"))?;
            }
            "point_cycles" => {
                spec.point_cycles = match value {
                    "none" => None,
                    v => Some(v.parse().map_err(|_| field("bad point_cycles"))?),
                }
            }
            "service" => {
                spec.service_mode =
                    ServiceMode::parse(value).ok_or_else(|| field("unknown service mode"))?;
            }
            "prio_responses" => {
                spec.priority_read_responses =
                    value.parse().map_err(|_| field("bad prio_responses"))?;
            }
            "net" => {
                spec.net_model =
                    NetModelKind::parse(value).ok_or_else(|| field("unknown net model"))?;
            }
            "preset" => {
                spec.preset = CostPreset::parse(value).ok_or_else(|| field("unknown preset"))?;
            }
            "faults" => {
                spec.faults = match value {
                    "none" => None,
                    w => Some(faults_parse(w).ok_or_else(|| field("bad fault plan"))?),
                }
            }
            other => return bad(format!("unknown field {other:?}")),
        }
        seen.push(name);
    }
    if seen.len() != 13 {
        return bad(format!("{} fields, want 13", seen.len()));
    }
    Ok(spec)
}

/// The append half of a journal: created by the invocation that arms it,
/// re-opened in append mode by [`resume`]. Every record is flushed before
/// the method returns, preserving the intent → result → commit ordering
/// on disk.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<File>,
}

impl Journal {
    /// Start a fresh journal at `path` for a sweep in `mode` (`"sweep"` or
    /// `"faults"` — the CLI table the resumed outcome feeds) labelled
    /// `label`, covering exactly `specs`.
    pub fn create(
        path: impl Into<PathBuf>,
        mode: &str,
        label: &str,
        specs: &[RunSpec],
    ) -> io::Result<Journal> {
        let path = path.into();
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            fs::create_dir_all(dir)?;
        }
        let mut header = String::new();
        header.push_str(JOURNAL_FORMAT);
        header.push('\n');
        header.push_str(&format!("mode {}\n", esc(mode)));
        header.push_str(&format!("label {}\n", esc(label)));
        for (i, spec) in specs.iter().enumerate() {
            header.push_str(&format!("spec {i} |{}\n", spec_to_line(spec)));
        }
        header.push_str(&format!("end-header {}\n", specs.len()));
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(header.as_bytes())?;
        file.flush()?;
        Ok(Journal {
            path,
            file: Mutex::new(file),
        })
    }

    /// Re-open an existing journal for appending (resume). The caller has
    /// already validated the header via [`load`].
    pub fn append_to(path: impl Into<PathBuf>) -> io::Result<Journal> {
        let path = path.into();
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(Journal {
            path,
            file: Mutex::new(file),
        })
    }

    /// Where this journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append `lines` as one uninterrupted group, flushing each line
    /// before the next is written.
    fn append(&self, lines: &[&str]) -> io::Result<()> {
        let mut file = lock(&self.file);
        for line in lines {
            file.write_all(line.as_bytes())?;
            file.write_all(b"\n")?;
            file.flush()?;
        }
        Ok(())
    }

    /// Record that a worker is about to execute point `index`.
    pub(crate) fn intent(&self, index: usize, key: &str) -> io::Result<()> {
        self.append(&[&format!("intent {index} {key}")])
    }

    /// Record point `index`'s report and commit it. The result line is
    /// flushed before the commit line is written.
    pub(crate) fn result(
        &self,
        index: usize,
        key: &str,
        cached: bool,
        report: &RunReport,
    ) -> io::Result<()> {
        self.append(&[
            &format!(
                "result {index} {key} {} |{}",
                u8::from(cached),
                esc(&report_canonical_text(report))
            ),
            &format!("commit {index}"),
        ])
    }

    /// Record point `index`'s failure and commit it.
    pub(crate) fn fail(&self, index: usize, error: &str) -> io::Result<()> {
        self.append(&[
            &format!("fail {index} |{}", esc(error)),
            &format!("commit {index}"),
        ])
    }

    /// Mark the sweep complete: every one of `points` specs has a
    /// committed record.
    pub(crate) fn done(&self, points: usize) -> io::Result<()> {
        self.append(&[&format!("done {points}")])
    }
}

/// One committed point replayed from a journal.
#[derive(Debug, Clone)]
pub enum Completed {
    /// The point produced a report (possibly from the run cache).
    Ok {
        /// The recorded content address.
        key: String,
        /// Whether the original execution was a cache hit.
        cached: bool,
        /// The recorded report.
        report: RunReport,
    },
    /// The point failed.
    Failed {
        /// The recorded error message.
        error: String,
    },
}

/// Everything [`load`] recovers from a journal file.
#[derive(Debug)]
pub struct JournalState {
    /// The invocation mode recorded at creation (`"sweep"` / `"faults"`).
    pub mode: String,
    /// The invocation label (provenance figure name).
    pub label: String,
    /// Every spec of the original sweep, in input order.
    pub specs: Vec<RunSpec>,
    /// Committed points by input index.
    pub completed: BTreeMap<usize, Completed>,
    /// `intent` records seen (diagnostics: intents without a commit are
    /// the points that were in flight at the crash).
    pub intents: usize,
    /// Whether the original sweep ran to completion (`done` record).
    pub done: bool,
    /// Byte length of the journal's well-formed prefix. A crash can leave
    /// a torn (newline-less or half-written) tail; [`resume`] truncates
    /// the file to this length before appending, so the resumed journal
    /// is fully well-formed again.
    pub valid_bytes: u64,
}

/// Parse a journal. The header must be intact (a journal whose *header*
/// is torn recorded no work worth resuming); the record section is read
/// up to the first malformed or torn line, keeping every point committed
/// before it.
pub fn load(path: &Path) -> Result<JournalState, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    // Every line the writer produces ends in '\n' (each record is written
    // newline-included and flushed), so a chunk without one is a torn
    // tail by definition.
    let mut offset = 0usize;
    let mut chunks = text.split_inclusive('\n');
    let mut header_line = || -> Option<&str> {
        let chunk = chunks.next()?;
        let line = chunk.strip_suffix('\n')?;
        offset += chunk.len();
        Some(line)
    };
    if header_line() != Some(JOURNAL_FORMAT) {
        return Err(format!(
            "{}: not an {JOURNAL_FORMAT} journal",
            path.display()
        ));
    }
    let mut mode = None;
    let mut label = None;
    let mut specs: Vec<RunSpec> = Vec::new();
    loop {
        let line = header_line()
            .ok_or_else(|| format!("{}: journal header is truncated", path.display()))?;
        if let Some(rest) = line.strip_prefix("mode ") {
            mode = unesc(rest);
        } else if let Some(rest) = line.strip_prefix("label ") {
            label = unesc(rest);
        } else if let Some(rest) = line.strip_prefix("spec ") {
            let (index, body) = rest
                .split_once(" |")
                .ok_or_else(|| format!("{}: malformed spec line", path.display()))?;
            if index.parse::<usize>() != Ok(specs.len()) {
                return Err(format!(
                    "{}: spec indices must be dense and in order",
                    path.display()
                ));
            }
            specs.push(spec_from_line(body).map_err(|e| format!("{}: {e}", path.display()))?);
        } else if let Some(rest) = line.strip_prefix("end-header ") {
            if rest.parse::<usize>() != Ok(specs.len()) {
                return Err(format!("{}: header spec count mismatch", path.display()));
            }
            break;
        } else {
            return Err(format!(
                "{}: unrecognized header line {line:?}",
                path.display()
            ));
        }
    }
    let (mode, label) = (
        mode.ok_or_else(|| format!("{}: header has no mode", path.display()))?,
        label.ok_or_else(|| format!("{}: header has no label", path.display()))?,
    );

    // Records. A torn tail after a crash is expected, not an error: stop
    // at the first line that does not parse (or has no newline) and keep
    // what was committed, remembering where the well-formed prefix ends.
    let mut pending: BTreeMap<usize, Completed> = BTreeMap::new();
    let mut completed: BTreeMap<usize, Completed> = BTreeMap::new();
    let mut intents = 0usize;
    let mut done = false;
    for chunk in chunks {
        let Some(line) = chunk.strip_suffix('\n') else {
            break;
        };
        match parse_record(line, specs.len()) {
            Some(Record::Intent { .. }) => intents += 1,
            Some(Record::Result { index, completed }) => {
                pending.insert(index, completed);
            }
            Some(Record::Commit { index }) => match pending.remove(&index) {
                Some(point) => {
                    completed.insert(index, point);
                }
                // A commit with no pending result is torn state.
                None => break,
            },
            Some(Record::Done { points }) => {
                done = points == completed.len();
                offset += chunk.len();
                break;
            }
            None => break,
        }
        offset += chunk.len();
    }
    Ok(JournalState {
        mode,
        label,
        specs,
        completed,
        intents,
        done,
        valid_bytes: offset as u64,
    })
}

enum Record {
    Intent { _index: usize },
    Result { index: usize, completed: Completed },
    Commit { index: usize },
    Done { points: usize },
}

/// Parse one record line; `None` marks the line (and everything after it)
/// as torn.
fn parse_record(line: &str, total: usize) -> Option<Record> {
    let index_in = |s: &str| s.parse::<usize>().ok().filter(|i| *i < total);
    if let Some(rest) = line.strip_prefix("intent ") {
        let (index, _key) = rest.split_once(' ')?;
        return Some(Record::Intent {
            _index: index_in(index)?,
        });
    }
    if let Some(rest) = line.strip_prefix("result ") {
        let (head, payload) = rest.split_once(" |")?;
        let mut it = head.split(' ');
        let index = index_in(it.next()?)?;
        let key = it.next()?.to_string();
        let cached = match it.next()? {
            "0" => false,
            "1" => true,
            _ => return None,
        };
        if it.next().is_some() {
            return None;
        }
        let report = parse_report_text(unesc(payload)?.lines())?;
        return Some(Record::Result {
            index,
            completed: Completed::Ok {
                key,
                cached,
                report,
            },
        });
    }
    if let Some(rest) = line.strip_prefix("fail ") {
        let (index, payload) = rest.split_once(" |")?;
        return Some(Record::Result {
            index: index_in(index)?,
            completed: Completed::Failed {
                error: unesc(payload)?,
            },
        });
    }
    if let Some(rest) = line.strip_prefix("commit ") {
        return Some(Record::Commit {
            index: index_in(rest)?,
        });
    }
    if let Some(rest) = line.strip_prefix("done ") {
        return Some(Record::Done {
            points: rest.parse().ok()?,
        });
    }
    None
}

/// The result of [`resume`]: the recovered invocation identity plus the
/// finished outcome.
#[derive(Debug)]
pub struct ResumedSweep {
    /// The journal's recorded mode (`"sweep"` / `"faults"`).
    pub mode: String,
    /// The journal's recorded label.
    pub label: String,
    /// The completed outcome, point order identical to the original
    /// submission.
    pub outcome: SweepOutcome,
}

/// Finish the sweep a journal describes: committed points are replayed
/// verbatim (report *and* `cached` flag, so derived CSVs are
/// byte-identical), incomplete points are re-executed by `engine`, and
/// new records — including the final `done` — are appended to the same
/// journal. Resuming an already-finished journal replays everything and
/// touches nothing.
pub fn resume(path: &Path, engine: SweepEngine) -> Result<ResumedSweep, String> {
    let state = load(path)?;
    let total = state.specs.len();
    let mut prefilled: Vec<Option<Slot>> = (0..total).map(|_| None).collect();
    for (index, point) in &state.completed {
        prefilled[*index] = Some(match point {
            Completed::Ok { report, cached, .. } => Ok((report.clone(), *cached)),
            Completed::Failed { error } => Err(error.clone()),
        });
    }
    let engine = if state.done {
        engine
    } else {
        // Cut off the torn tail a crash may have left (a half-written
        // line, possibly without its newline) so appended records start
        // on a fresh, well-formed line.
        let io = |e: io::Error| format!("{}: {e}", path.display());
        OpenOptions::new()
            .write(true)
            .open(path)
            .and_then(|f| f.set_len(state.valid_bytes))
            .map_err(io)?;
        engine.journal(Journal::append_to(path).map_err(io)?)
    };
    let outcome = engine.run_prefilled(state.specs, prefilled);
    Ok(ResumedSweep {
        mode: state.mode,
        label: state.label,
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::grid;

    fn full_spec() -> RunSpec {
        let mut s = RunSpec::new(Workload::Stencil, 8, 128, 3);
        s.seed = Some(99);
        s.comm_only = false;
        s.block_read = true;
        s.point_cycles = Some(17);
        s.service_mode = ServiceMode::ExuThread;
        s.priority_read_responses = true;
        s.net_model = NetModelKind::FatTree { arity: 3 };
        s.preset = CostPreset::Modern;
        let mut f = FaultSpec::with_loss(41, 10_000);
        f.dup_ppm = 5;
        f.delay_ppm = 7;
        f.max_delay = 9;
        f.spill_ppm = 11;
        f.dma_stall_ppm = 13;
        f.dma_stall_cycles = 15;
        f.frame_cap = Some(6);
        f.frame_cap_pes = vec![1, 5];
        f.max_attempts = 3;
        f.check_invariants = true;
        s.faults = Some(f);
        s
    }

    #[test]
    fn spec_line_round_trips_every_field() {
        let spec = full_spec();
        assert_eq!(spec_from_line(&spec_to_line(&spec)).unwrap(), spec);
        // The defaults round-trip too, for every workload and net model.
        for w in Workload::all() {
            let spec = RunSpec::new(w, 4, 64, 2);
            assert_eq!(spec_from_line(&spec_to_line(&spec)).unwrap(), spec);
        }
        for net in [
            NetModelKind::CircularOmega,
            NetModelKind::Ideal { latency: 5 },
            NetModelKind::FullCrossbar,
            NetModelKind::Torus2D,
            NetModelKind::Mesh2D,
            NetModelKind::FatTree { arity: 4 },
        ] {
            let mut spec = RunSpec::new(Workload::Fft, 4, 64, 2);
            spec.net_model = net;
            assert_eq!(spec_from_line(&spec_to_line(&spec)).unwrap(), spec);
        }
    }

    #[test]
    fn spec_line_parser_rejects_malformed_input() {
        let line = spec_to_line(&full_spec());
        assert!(spec_from_line(&line.replace("workload=stencil", "workload=mandelbrot")).is_err());
        assert!(spec_from_line(&format!("{line} extra=1")).is_err());
        assert!(
            spec_from_line(line.rsplit_once(' ').unwrap().0).is_err(),
            "a missing field is rejected"
        );
        assert!(spec_from_line("").is_err());
    }

    #[test]
    fn spec_line_parser_rejects_repeated_fields() {
        // Thirteen fields, but `per_pe` twice and no `threads`: counting
        // tokens would load this as a run with zero threads.
        let line =
            spec_to_line(&RunSpec::new(Workload::Sort, 4, 64, 2)).replace("threads=2", "per_pe=64");
        assert_eq!(
            spec_from_line(&line),
            Err("bad spec line: repeated field \"per_pe\"".to_string())
        );
        // The same in the fault plan: `seed` twice and no `drop`.
        let line = spec_to_line(&full_spec()).replace("drop:10000", "seed:7");
        assert!(line.contains(",seed:7,"));
        let err = spec_from_line(&line).unwrap_err();
        assert!(err.starts_with("bad spec line: bad fault plan"), "{err}");
    }

    #[test]
    fn escape_round_trips_and_rejects_torn_escapes() {
        let s = "line one\nline\\two\r\n";
        assert_eq!(unesc(&esc(s)).as_deref(), Some(s));
        assert_eq!(unesc("dangling\\"), None);
        assert_eq!(unesc("bad\\q"), None);
    }

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "emx-journal-test-{tag}-{}.journal",
            std::process::id()
        ))
    }

    fn quiet_engine() -> SweepEngine {
        SweepEngine::new().cache(None).quiet(true)
    }

    #[test]
    fn a_finished_journal_replays_the_whole_sweep() {
        let path = scratch("finished");
        let specs = grid(Workload::Sort, 4, &[64], &[1, 2]);
        let journal = Journal::create(&path, "sweep", "test_sweep", &specs).unwrap();
        let original = quiet_engine().journal(journal).run(specs);

        let state = load(&path).unwrap();
        assert!(state.done);
        assert_eq!(state.mode, "sweep");
        assert_eq!(state.label, "test_sweep");
        assert_eq!(state.completed.len(), 2);
        assert_eq!(state.intents, 2);

        let resumed = resume(&path, quiet_engine()).unwrap();
        assert_eq!(resumed.outcome.resumed, 2);
        assert_eq!(resumed.outcome.simulated, 0, "nothing re-executes");
        for (a, b) in original.points.iter().zip(&resumed.outcome.points) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.report, b.report);
            assert_eq!(a.cached, b.cached);
        }
        let _ = fs::remove_file(&path);
    }

    /// Truncate the journal right after the `index`-th commit line,
    /// leaving a torn half-record behind — the state a mid-write crash
    /// produces.
    fn tear_after_commit(path: &Path, commits: usize) {
        let text = fs::read_to_string(path).unwrap();
        let mut seen = 0;
        let mut keep = 0;
        for line in text.lines() {
            keep += line.len() + 1;
            if line.starts_with("commit ") {
                seen += 1;
                if seen == commits {
                    break;
                }
            }
        }
        assert_eq!(seen, commits, "journal has too few commits to tear");
        let torn = format!("{}result 9", &text[..keep]);
        fs::write(path, torn).unwrap();
    }

    #[test]
    fn a_torn_journal_resumes_to_the_identical_outcome() {
        let path = scratch("torn");
        let specs = grid(Workload::Sort, 4, &[64, 128], &[1, 2]);
        let reference = quiet_engine().run(specs.clone());

        let journal = Journal::create(&path, "sweep", "torn_sweep", &specs).unwrap();
        let _ = quiet_engine().jobs(1).journal(journal).run(specs);
        tear_after_commit(&path, 2);

        let state = load(&path).unwrap();
        assert!(!state.done);
        assert_eq!(state.completed.len(), 2, "two committed points survive");

        let resumed = resume(&path, quiet_engine()).unwrap();
        assert_eq!(resumed.outcome.resumed, 2);
        assert_eq!(resumed.outcome.simulated, 2, "the torn half re-executes");
        assert_eq!(resumed.outcome.points.len(), reference.points.len());
        for (a, b) in reference.points.iter().zip(&resumed.outcome.points) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.report, b.report, "resumed reports are byte-identical");
        }
        // The resumed run appended its own records and the done marker:
        // a second resume replays everything.
        let state = load(&path).unwrap();
        assert!(state.done);
        assert_eq!(state.completed.len(), 4);
        let _ = fs::remove_file(&path);
    }

    /// `spec` with a fault plan that fails validation: a deterministic,
    /// immediate failure.
    fn doomed(mut spec: RunSpec) -> RunSpec {
        let mut faults = FaultSpec::with_loss(1, 1000);
        faults.delay_ppm = 1; // delay without max_delay: rejected
        spec.faults = Some(faults);
        spec
    }

    #[test]
    fn failed_points_are_journaled_and_not_retried_on_resume() {
        let path = scratch("failed");
        let mut specs = grid(Workload::Sort, 4, &[64], &[1]);
        specs.push(doomed(specs[0].clone()));

        let journal = Journal::create(&path, "sweep", "failing", &specs).unwrap();
        let original = quiet_engine().journal(journal).run(specs);
        assert_eq!(original.failed.len(), 1);

        let resumed = resume(&path, quiet_engine()).unwrap();
        assert_eq!(resumed.outcome.simulated, 0);
        assert_eq!(resumed.outcome.failed.len(), 1);
        let f = &resumed.outcome.failed[0];
        assert_eq!(f.index, 1);
        assert_eq!(f.error, original.failed[0].error);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_retired_fail_record_is_a_torn_tail_that_resume_reruns() {
        let path = scratch("retired-fail");
        let mut specs = grid(Workload::Sort, 4, &[64], &[1, 2]);
        specs.insert(1, doomed(specs[0].clone()));
        let journal = Journal::create(&path, "sweep", "retired", &specs).unwrap();
        let original = quiet_engine().jobs(1).journal(journal).run(specs);
        assert_eq!(original.failed.len(), 1);

        // The previous layout carried an attempt count after the index.
        let text = fs::read_to_string(&path).unwrap();
        let retired = text.replace("fail 1 |", "fail 1 2 |");
        assert_ne!(retired, text);
        fs::write(&path, retired).unwrap();

        let state = load(&path).unwrap();
        assert!(!state.done);
        assert_eq!(
            state.completed.keys().copied().collect::<Vec<_>>(),
            vec![0],
            "replay ends at the retired line"
        );

        let resumed = resume(&path, quiet_engine()).unwrap().outcome;
        assert_eq!(resumed.resumed, 1);
        assert_eq!(resumed.simulated, 1, "the point after the tear reruns");
        assert_eq!(resumed.points.len(), original.points.len());
        for (a, b) in original.points.iter().zip(&resumed.points) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.report, b.report);
            assert_eq!(a.cached, b.cached);
        }
        assert_eq!(resumed.failed.len(), 1);
        assert_eq!(resumed.failed[0].index, 1);
        assert_eq!(resumed.failed[0].error, original.failed[0].error);
        assert!(load(&path).unwrap().done);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn load_rejects_foreign_files_and_broken_headers() {
        let path = scratch("reject");
        fs::write(&path, "not a journal\n").unwrap();
        assert!(load(&path).unwrap_err().contains("not an emx-journal/1"));
        fs::write(&path, format!("{JOURNAL_FORMAT}\nmode sweep\n")).unwrap();
        assert!(load(&path).unwrap_err().contains("truncated"));
        fs::write(
            &path,
            format!("{JOURNAL_FORMAT}\nmode sweep\nlabel x\nend-header 3\n"),
        )
        .unwrap();
        assert!(load(&path).unwrap_err().contains("spec count"));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn load_rejects_the_retired_14_field_spec_line() {
        // The previous layout carried a host-only partition count just
        // before `faults`; such a header must fail as a parse error.
        let path = scratch("retired");
        let line = spec_to_line(&RunSpec::new(Workload::Fft, 4, 64, 2))
            .replace(" faults=", " shards=1 faults=");
        fs::write(
            &path,
            format!("{JOURNAL_FORMAT}\nmode sweep\nlabel x\nspec 0 |{line}\nend-header 1\n"),
        )
        .unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.contains("bad spec line: unknown field"), "{err}");
        let _ = fs::remove_file(&path);
    }
}
