//! Deterministic checkpoint/restore of a [`Machine`] at an event boundary,
//! in the `emx-snap/1` text format.
//!
//! [`Machine::snapshot`] passes the machine's complete dynamic state
//! through the encoder, [`Writer`]; [`Machine::restore`] passes the same
//! fields, in the same order, through the decoder, [`Reader`]. Each state
//! owner names its fields once, in its `snap` method; so does every native
//! thread body, in [`ThreadBody::snap`](crate::ThreadBody::snap).
//!
//! Restore targets a *shell*: a machine built with the same configuration
//! and the same entries, barriers and sequence cells, which has not run.
//! The snapshot pins a digest of the configuration and the decoder checks
//! the entry table, so a snapshot only restores into the machine it came
//! from. Decoding fills freshly built parts, which replace the shell's
//! only once the whole text has decoded: a snapshot that fails anywhere
//! leaves the shell as it was. A restored machine continues
//! byte-identically to the uninterrupted run.
//!
//! ```text
//! emx-snap/1
//! config <32-hex digest of the machine configuration>
//! s <section-name> <token> <token> ...
//! s <section-name> ...
//! digest <32-hex digest of every preceding line>
//! ```
//!
//! Tokens are lowercase hex `u64` values or `$`-prefixed hex-encoded UTF-8
//! strings, separated by single spaces. The decoder rejects a wrong
//! section name, a short token list, a trailing token surplus and any
//! digest mismatch. `docs/CHECKPOINT.md` §1 lists the sections. Neither an
//! attached probe nor the entry table is state: factories are code, and
//! the shell registers them again.

use std::fmt::Write as _;

use emx_core::{Codec, FrameId, MachineConfig, Packet, PeId, SimError, Tape};
use emx_faults::{InvariantChecker, Rng64};
use emx_isa::{Reg, ThreadState};
use emx_net::Network;
use emx_stats::digest::digest_hex;

use crate::calendar::{Calendar, EvKey};
use crate::machine::{parts, Core, EntryDef, Ev, Frame, Machine, Pe, Shared, ThreadKind, Wait};

/// Format identifier on the first line of every snapshot.
const MAGIC: &str = "emx-snap/1";

/// The digest restore validates a snapshot's `config` line against: a hash
/// of the machine configuration's canonical debug rendering. Two machines
/// agree on it exactly when they were built from equal configurations.
pub fn config_digest(cfg: &MachineConfig) -> String {
    digest_hex(&format!("{cfg:?}"))
}

fn bad(reason: impl Into<String>) -> SimError {
    SimError::SnapshotInvalid {
        reason: reason.into(),
    }
}

/// The encoder: appends each field as a token of the open section's line.
pub(crate) struct Writer {
    text: String,
}

impl Writer {
    /// Start a snapshot pinned to a machine-configuration digest.
    pub(crate) fn new(config_digest: &str) -> Writer {
        Writer {
            text: format!("{MAGIC}\nconfig {config_digest}\n"),
        }
    }

    fn end_line(&mut self) {
        if !self.text.ends_with('\n') {
            self.text.push('\n');
        }
    }

    /// Seal the snapshot with the digest line and return the text.
    pub(crate) fn finish(mut self) -> String {
        self.end_line();
        let digest = digest_hex(&self.text);
        self.text.push_str(&format!("digest {digest}\n"));
        self.text
    }
}

impl Codec for Writer {
    fn decoding(&self) -> bool {
        false
    }

    fn section(&mut self, name: &str) -> Result<(), SimError> {
        self.end_line();
        self.text.push_str("s ");
        self.text.push_str(name);
        Ok(())
    }

    fn u64(&mut self, v: &mut u64) -> Result<(), SimError> {
        let _ = write!(self.text, " {v:x}");
        Ok(())
    }

    fn str(&mut self, v: &mut String) -> Result<(), SimError> {
        self.text.push_str(" $");
        for b in v.bytes() {
            let _ = write!(self.text, "{b:02x}");
        }
        Ok(())
    }

    fn invalid(&self, detail: &str) -> SimError {
        bad(detail)
    }
}

/// The decoder: overwrites each field with the next token of the open
/// section.
pub(crate) struct Reader<'a> {
    /// The section lines not yet opened.
    lines: std::str::Lines<'a>,
    /// The open section's name.
    section: &'a str,
    /// Its tokens not yet read.
    tokens: std::str::SplitAsciiWhitespace<'a>,
}

impl<'a> Reader<'a> {
    /// Check the magic line and the digest stamp of `text`; returns the
    /// decoder and the configuration digest the text was captured under.
    pub(crate) fn new(text: &'a str) -> Result<(Reader<'a>, &'a str), SimError> {
        // The digest covers everything before its own line, including the
        // trailing newline of the last section.
        let body = text.find("\ndigest ").map_or(text, |i| &text[..=i]);
        let mut lines = body.lines();
        let first = lines.next().unwrap_or("");
        if first != MAGIC {
            return Err(bad(format!(
                "not an {MAGIC} snapshot (first line {first:?})"
            )));
        }
        let config = lines
            .next()
            .and_then(|l| l.strip_prefix("config "))
            .ok_or_else(|| bad("snapshot config line missing or malformed"))?;
        let stamp = text[body.len()..].lines().next().unwrap_or("");
        let claimed = stamp.strip_prefix("digest ").unwrap_or("");
        let expected = digest_hex(body);
        if claimed != expected {
            return Err(bad(format!(
                "snapshot digest mismatch: body hashes to {expected}, file claims {claimed:?}"
            )));
        }
        let reader = Reader {
            lines,
            section: "",
            tokens: "".split_ascii_whitespace(),
        };
        Ok((reader, config))
    }

    /// Require the open section to be used up.
    fn end(&mut self) -> Result<(), SimError> {
        match self.tokens.next() {
            None => Ok(()),
            Some(tok) => Err(self.invalid(&format!("trailing token {tok:?}"))),
        }
    }

    /// Require the whole snapshot to be used up.
    pub(crate) fn finish(mut self) -> Result<(), SimError> {
        self.end()?;
        match self.lines.next() {
            None => Ok(()),
            Some(line) => Err(bad(format!(
                "snapshot line {line:?} follows the last section"
            ))),
        }
    }

    fn next_token(&mut self) -> Result<&'a str, SimError> {
        self.tokens
            .next()
            .ok_or_else(|| self.invalid("ran out of tokens"))
    }
}

/// Decode a `$`-prefixed string token.
fn decode_str(tok: &str) -> Option<String> {
    let hex = tok.strip_prefix('$')?.as_bytes();
    if hex.len() % 2 != 0 {
        return None;
    }
    let byte = |pair: &[u8]| u8::from_str_radix(std::str::from_utf8(pair).ok()?, 16).ok();
    String::from_utf8(hex.chunks(2).map(byte).collect::<Option<_>>()?).ok()
}

impl Codec for Reader<'_> {
    fn decoding(&self) -> bool {
        true
    }

    fn section(&mut self, name: &str) -> Result<(), SimError> {
        self.end()?;
        let line = self.lines.next().unwrap_or("");
        let mut tokens = line
            .strip_prefix("s ")
            .unwrap_or("")
            .split_ascii_whitespace();
        let found = tokens.next().unwrap_or("");
        if found != name {
            return Err(bad(if found.is_empty() {
                format!("snapshot ended before section {name:?}")
            } else {
                format!("expected snapshot section {name:?}, found {found:?}")
            }));
        }
        self.section = found;
        self.tokens = tokens;
        Ok(())
    }

    fn u64(&mut self, v: &mut u64) -> Result<(), SimError> {
        let tok = self.next_token()?;
        *v = u64::from_str_radix(tok, 16)
            .map_err(|_| self.invalid(&format!("bad u64 token {tok:?}")))?;
        Ok(())
    }

    fn str(&mut self, v: &mut String) -> Result<(), SimError> {
        let tok = self.next_token()?;
        *v = decode_str(tok).ok_or_else(|| self.invalid(&format!("bad string token {tok:?}")))?;
        Ok(())
    }

    fn invalid(&self, detail: &str) -> SimError {
        bad(format!("snapshot section {:?}: {detail}", self.section))
    }
}

/// A value the shell already holds: encoded as is; decoding requires the
/// snapshot to agree, or fails with `mismatch(found)`.
fn expect(
    c: &mut dyn Codec,
    want: usize,
    mismatch: impl FnOnce(usize) -> String,
) -> Result<(), SimError> {
    let mut found = want;
    c.usize(&mut found)?;
    if found == want {
        Ok(())
    } else {
        Err(bad(mismatch(found)))
    }
}

/// Decoding requires `i` to index the shell's table of `len` `what`s.
fn within(c: &dyn Codec, what: &str, i: usize, len: usize) -> Result<(), SimError> {
    if i < len {
        Ok(())
    } else {
        Err(c.invalid(&format!("{what} {i} is outside the shell's {len}")))
    }
}

/// A table the shell's setup sizes: its length, which must agree, then
/// each element through `each`, in place.
fn table<T>(
    c: &mut dyn Codec,
    what: &str,
    v: &mut [T],
    mut each: impl FnMut(&mut T, &mut dyn Codec) -> Result<(), SimError>,
) -> Result<(), SimError> {
    let want = v.len();
    expect(c, want, |n| {
        format!("snapshot has {n} {what}, the shell has {want}")
    })?;
    v.iter_mut().try_for_each(|x| each(x, c))
}

/// Every section of a snapshot, in token order, over a machine's parts.
fn snap(
    c: &mut dyn Codec,
    sh: &Shared<'_>,
    net: &mut dyn Network,
    core: &mut Core,
    checker: &mut Option<InvariantChecker>,
) -> Result<(), SimError> {
    let pes = sh.cfg.num_pes;
    let mut now = core.cal.now();
    c.section("meta")?;
    expect(c, pes, |n| {
        format!("snapshot has {n} PEs, machine has {pes}")
    })?;
    c.cycle(&mut core.progress)?;
    c.cycle(&mut now)?;

    // The entry table is code, not state: its names and kinds let restore
    // verify that the shell registered the same table.
    c.section("entries")?;
    let entries = sh.entries.len();
    expect(c, entries, |n| {
        format!("snapshot registered {n} entries, shell registered {entries}")
    })?;
    for (i, def) in sh.entries.iter().enumerate() {
        let (want_kind, want_name) = (u8::from(matches!(def, EntryDef::Template(_))), def.name());
        let (mut kind, mut name) = (want_kind, want_name.to_string());
        c.u8(&mut kind)?;
        c.str(&mut name)?;
        if (kind, name.as_str()) != (want_kind, want_name) {
            return Err(bad(format!(
                "entry {i} mismatch: snapshot has {name:?} (kind {kind}), \
                 shell has {want_name:?} (kind {want_kind})"
            )));
        }
    }

    c.section("barriers")?;
    let barriers = sh.barrier_defs.len();
    expect(c, barriers, |n| {
        format!("snapshot defines {n} barriers, shell defines {barriers}")
    })?;
    for (i, &want) in sh.barrier_defs.iter().enumerate() {
        expect(c, want, |n| {
            format!("barrier {i} has {n} participants per PE in the snapshot, {want} in the shell")
        })?;
    }
    for count in &mut core.barrier_counts {
        c.usize(count)?;
    }

    c.section("fsummary")?;
    let fs = &mut core.fsummary;
    c.u64(&mut fs.dropped)?;
    c.u64(&mut fs.duplicated)?;
    c.u64(&mut fs.delayed)?;
    c.u64(&mut fs.forced_spills)?;
    c.u64(&mut fs.dma_stalls)?;
    c.u64(&mut fs.retries)?;
    c.u64(&mut fs.stale_responses)?;

    c.section("checker")?;
    expect(c, usize::from(checker.is_some()), |_| {
        "snapshot and shell disagree on invariant-checker presence".into()
    })?;
    if let Some(ck) = checker {
        ck.snap(c)?;
    }

    c.section("net")?;
    net.snap(c)?;

    for (i, pe) in core.pes.iter_mut().enumerate() {
        pe.snap(c, PeId(i as u16), sh.entries)?;
    }

    c.section("cal")?;
    let mut events = core.cal.entries_sorted();
    c.vec(&mut events, |(key, ev), c| {
        key.snap(c)?;
        ev.snap(c, pes)
    })?;
    if c.decoding() {
        core.cal = Calendar::restore(now, events)?;
    }
    Ok(())
}

impl Pe {
    /// One processor's sections: `pe`, `mem`, `queue`, `dma`, `frames`,
    /// `seq`, `lb` and `stats`.
    fn snap(&mut self, c: &mut dyn Codec, id: PeId, entries: &[EntryDef]) -> Result<(), SimError> {
        c.section("pe")?;
        c.cycle(&mut self.busy_until)?;
        c.bool(&mut self.dispatch_scheduled)?;
        c.usize(&mut self.live_threads)?;
        c.u64(&mut self.next_uid)?;
        self.ev_seq.iter_mut().try_for_each(|seq| c.u64(seq))?;
        c.opt(&mut self.spill_rng, Rng64::snap)?;
        c.opt(&mut self.dma_rng, Rng64::snap)?;

        c.section("mem")?;
        self.mem.snap(c)?;
        c.section("queue")?;
        self.queue.snap(c)?;
        c.section("dma")?;
        self.dma.snap(c)?;

        c.section("frames")?;
        let tables = (self.barriers.len(), self.seq_cells.len());
        self.frames
            .snap(c, |frame, c| frame.snap(c, id, entries, tables))?;

        c.section("seq")?;
        table(c, "sequence cells", &mut self.seq_cells, |cell, c| {
            c.u64(cell)
        })?;
        c.vec(&mut self.seq_waiters, |(fid, cell, threshold), c| {
            c.u16(&mut fid.0)?;
            c.u32(cell)?;
            c.u64(threshold)
        })?;

        c.section("lb")?;
        table(c, "local barriers", &mut self.barriers, |lb, c| {
            c.usize(&mut lb.arrived)?;
            c.u64(&mut lb.releases)
        })?;

        c.section("stats")?;
        let s = &mut self.stats;
        c.cycle(&mut s.breakdown.compute)?;
        c.cycle(&mut s.breakdown.overhead)?;
        c.cycle(&mut s.breakdown.comm)?;
        c.cycle(&mut s.breakdown.switch)?;
        c.u64(&mut s.switches.remote_read)?;
        c.u64(&mut s.switches.iter_sync)?;
        c.u64(&mut s.switches.thread_sync)?;
        c.u64(&mut s.packets_sent)?;
        c.u64(&mut s.reads_issued)?;
        c.u64(&mut s.dispatches)?;
        c.usize(&mut s.max_queue_depth)?;
        c.u64(&mut s.ibu_spills)?;
        c.u64(&mut s.high_spills)?;
        c.u64(&mut s.low_spills)?;
        c.u64(&mut s.forced_spills)?;
        c.usize(&mut s.max_high_depth)?;
        c.usize(&mut s.max_low_depth)
    }
}

impl Frame {
    /// One live frame: its thread (native entry and body words, or
    /// template, PC and registers), wait, argument, inbox, uid, read
    /// sequence and attempts, pending request and deposit bitmap. A native
    /// body's fields go out as one counted word list, written by its
    /// [`ThreadBody::snap`](crate::ThreadBody::snap) onto a [`Tape`];
    /// decoding builds the body from the shell's factory and reads the
    /// words back through the same `snap`. `tables` holds the PE's barrier
    /// and sequence-cell counts.
    fn snap(
        &mut self,
        c: &mut dyn Codec,
        pe: PeId,
        entries: &[EntryDef],
        tables: (usize, usize),
    ) -> Result<(), SimError> {
        // A body's own error, placed at its frame.
        let at = |entry: u32, e: SimError| {
            let name = entries.get(entry as usize).map_or("?", EntryDef::name);
            let here = format!("native thread '{name}' (entry {entry}) on {pe}");
            match e {
                SimError::SnapshotUnsupported { what } => SimError::SnapshotUnsupported {
                    what: format!("{here}: {what}"),
                },
                SimError::SnapshotInvalid { reason } => bad(format!("{here}: {reason}")),
                e => e,
            }
        };
        let (mut kind, mut entry, mut words, mut state) = match &mut self.thread {
            ThreadKind::Native { body, entry } => {
                let words = Tape::encode(|c| body.snap(c)).map_err(|e| at(*entry, e))?;
                (0, *entry, words, ThreadState::default())
            }
            ThreadKind::Isa { state, template } => (1, *template, Vec::new(), state.clone()),
        };
        c.u8(&mut kind)?;
        c.u32(&mut entry)?;
        match kind {
            0 => c.vec(&mut words, |w, c| c.u64(w))?,
            1 => std::iter::once(&mut state.pc)
                .chain(&mut state.regs)
                .try_for_each(|v| c.u32(v))?,
            _ => return Err(c.invalid(&format!("unknown thread tag {kind}"))),
        }
        self.wait.snap(c, tables)?;
        c.u32(&mut self.arg)?;
        c.opt(&mut self.inbox, |v, c| c.u32(v))?;
        c.u64(&mut self.uid)?;
        c.u16(&mut self.cur_seq)?;
        c.u32(&mut self.attempts)?;
        c.opt(&mut self.pending, Packet::snap)?;
        c.vec(&mut self.seen, |w, c| c.u64(w))?;
        if !c.decoding() {
            return Ok(());
        }
        self.thread = match (kind, entries.get(entry as usize)) {
            (0, Some(EntryDef::Native { factory, .. })) => {
                let mut body = factory(pe, self.arg);
                Tape::decode(&words, |c| body.snap(c)).map_err(|e| at(entry, e))?;
                ThreadKind::Native { body, entry }
            }
            (1, Some(EntryDef::Template(_))) => ThreadKind::Isa {
                state,
                template: entry,
            },
            _ => {
                let wanted = ["native entry", "template"][usize::from(kind)];
                return Err(bad(format!(
                    "frame on {pe} names entry {entry}, which is not a registered {wanted}"
                )));
            }
        };
        Ok(())
    }
}

impl Wait {
    /// The wait's tag, then its fields. Decoding rejects a barrier or a
    /// sequence cell outside the PE's `(barriers, seq_cells)` tables.
    fn snap(
        &mut self,
        c: &mut dyn Codec,
        (barriers, seq_cells): (usize, usize),
    ) -> Result<(), SimError> {
        let mut tag: u8 = match self {
            Wait::Ready => 0,
            Wait::Value { .. } => 1,
            Wait::Block { .. } => 2,
            Wait::Barrier { .. } => 3,
            Wait::Seq { .. } => 4,
            Wait::Yielded => 5,
        };
        c.u8(&mut tag)?;
        if c.decoding() {
            *self = match tag {
                0 => Wait::Ready,
                1 => Wait::Value { isa_dst: None },
                2 => Wait::Block {
                    local_dst: 0,
                    len: 0,
                    received: 0,
                },
                3 => Wait::Barrier { id: 0, target: 0 },
                4 => Wait::Seq {
                    cell: 0,
                    threshold: 0,
                },
                5 => Wait::Yielded,
                _ => return Err(c.invalid(&format!("unknown wait tag {tag}"))),
            };
        }
        match self {
            Wait::Ready | Wait::Yielded => Ok(()),
            Wait::Value { isa_dst } => {
                let mut present = isa_dst.is_some();
                let mut num = isa_dst.map_or(0, Reg::num);
                c.bool(&mut present)?;
                c.u8(&mut num)?;
                let bad_reg = || c.invalid(&format!("bad register number {num}"));
                *isa_dst = present
                    .then_some(num)
                    .map(|n| Reg::try_r(n).ok_or_else(bad_reg))
                    .transpose()?;
                Ok(())
            }
            Wait::Block {
                local_dst,
                len,
                received,
            } => {
                c.u32(local_dst)?;
                c.u16(len)?;
                c.u16(received)
            }
            Wait::Barrier { id, target } => {
                c.u32(id)?;
                c.u64(target)?;
                within(c, "barrier", *id as usize, barriers)
            }
            Wait::Seq { cell, threshold } => {
                c.u32(cell)?;
                c.u64(threshold)?;
                within(c, "sequence cell", *cell as usize, seq_cells)
            }
        }
    }
}

impl EvKey {
    /// The key's time, PE, lane and two lane discriminants.
    fn snap(&mut self, c: &mut dyn Codec) -> Result<(), SimError> {
        c.cycle(&mut self.at)?;
        c.u16(&mut self.pe)?;
        c.u8(&mut self.lane)?;
        c.u64(&mut self.a)?;
        c.u64(&mut self.b)
    }
}

impl Ev {
    /// The event's tag, then its fields. Decoding rejects an event on a
    /// PE outside the machine's `pes`.
    fn snap(&mut self, c: &mut dyn Codec, pes: usize) -> Result<(), SimError> {
        let mut tag: u8 = match self {
            Ev::Arrive(..) => 0,
            Ev::Dispatch(_) => 1,
            Ev::Retry(..) => 2,
        };
        c.u8(&mut tag)?;
        if c.decoding() {
            *self = match tag {
                0 => Ev::Arrive(PeId(0), Packet::default(), false),
                1 => Ev::Dispatch(PeId(0)),
                2 => Ev::Retry(PeId(0), FrameId(0), 0, 0),
                _ => return Err(c.invalid(&format!("unknown calendar event tag {tag}"))),
            };
        }
        match self {
            Ev::Arrive(pe, pkt, via_net) => {
                c.u16(&mut pe.0)?;
                c.bool(via_net)?;
                pkt.snap(c)?;
            }
            Ev::Dispatch(pe) => c.u16(&mut pe.0)?,
            Ev::Retry(pe, fid, uid, seq) => {
                c.u16(&mut pe.0)?;
                c.u16(&mut fid.0)?;
                c.u64(uid)?;
                c.u16(seq)?;
            }
        }
        let (Ev::Arrive(pe, ..) | Ev::Dispatch(pe) | Ev::Retry(pe, ..)) = *self;
        within(c, "event PE", pe.index(), pes)
    }
}

impl Machine {
    /// Serialize the machine's complete dynamic state as an `emx-snap/1`
    /// snapshot.
    ///
    /// Valid at any event boundary: before the first event, at a
    /// [`Machine::step_events`] pause, or after quiescence. Fails with
    /// [`SimError::SnapshotUnsupported`] if a live native thread's body
    /// does not implement [`ThreadBody::snap`](crate::ThreadBody::snap);
    /// ISA threads always serialize. Encoding reads the state it is handed
    /// and changes nothing; it takes `&mut self` because encoding and
    /// decoding are one pass over the same fields.
    pub fn snapshot(&mut self) -> Result<String, SimError> {
        let mut w = Writer::new(&config_digest(&self.cfg));
        let sh = Shared {
            cfg: &self.cfg,
            entries: &self.entries,
            barrier_defs: &self.barrier_defs,
        };
        snap(
            &mut w,
            &sh,
            self.net.as_mut(),
            &mut self.core,
            &mut self.checker,
        )?;
        Ok(w.finish())
    }

    /// Restore a snapshot produced by [`Machine::snapshot`] into this
    /// machine, which must be a fresh shell: same configuration, same
    /// entries, templates, barriers and sequence cells, never run.
    ///
    /// All or nothing: the text decodes into a freshly built network,
    /// processor set, calendar and checker, made as [`Machine::new`] makes
    /// them and sized like the shell's tables, and these replace the
    /// shell's only when every section has decoded. Native bodies come
    /// from the shell's own factories, fed their saved words through
    /// [`ThreadBody::snap`](crate::ThreadBody::snap). On success the
    /// machine is paused exactly where the snapshot was taken and
    /// [`Machine::run_until`] / [`Machine::step_events`] continue it; on
    /// failure it is unchanged.
    pub fn restore(&mut self, text: &str) -> Result<(), SimError> {
        if self.ran {
            return Err(bad("restore target has already run"));
        }
        let (mut r, config) = Reader::new(text)?;
        let want = config_digest(&self.cfg);
        if config != want {
            return Err(bad(format!(
                "configuration digest mismatch: snapshot {config} vs machine {want} \
                 (snapshots restore only into an identically configured machine)"
            )));
        }
        let (mut net, mut core, mut checker) = parts(&self.cfg)?;
        // The shell's setup sized the barrier ledgers and sequence cells;
        // decoding overwrites every element.
        core.barrier_counts.clone_from(&self.core.barrier_counts);
        for (fresh, shell) in core.pes.iter_mut().zip(&self.core.pes) {
            fresh.barriers.clone_from(&shell.barriers);
            fresh.seq_cells.clone_from(&shell.seq_cells);
        }
        let sh = Shared {
            cfg: &self.cfg,
            entries: &self.entries,
            barrier_defs: &self.barrier_defs,
        };
        snap(&mut r, &sh, net.as_mut(), &mut core, &mut checker)?;
        r.finish()?;
        self.net = net;
        self.core = core;
        self.checker = checker;
        Ok(())
    }
}
