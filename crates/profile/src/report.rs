//! The `emx-profile/2` report: canonical text, JSON twin, and parser.
//!
//! The canonical text is the normative format. It is line-oriented,
//! integer-only (shares are parts-per-million, never floats), and ends
//! with a `digest: <32 hex>` line — the FNV-1a-128 digest of every byte
//! above it. Two runs produced the same profile iff the files compare
//! byte-equal; a report was not hand-edited iff the digest re-computes,
//! and nothing may follow the digest line. The JSON twin embeds the same
//! digest so either artifact can vouch for the other.
//!
//! Line grammar (order fixed; `#` never appears — there are no comments):
//!
//! ```text
//! emx-profile/2
//! meta <key>=<value>                        (zero or more, caller order)
//! run elapsed=E clock_hz=H pes=P
//! share busy_ppm=.. switch_ppm=.. wait_ppm=.. idle_ppm=..
//! counter-share busy_ppm=.. switch_ppm=.. wait_ppm=.. idle_ppm=..
//! attr pe=N busy=.. switch=.. wait=.. idle=.. occupied=..   (per PE)
//! counter pe=N busy=.. switch=.. wait=.. idle=..            (per PE)
//! xval pe=N busy_ppm=.. switch_ppm=.. wait_ppm=.. idle_ppm=..
//! events pe=N dispatches=.. sends=.. .. suspend[<cause>]=.. fault[<kind>]=..
//! xval max_ppm=N
//! blame matched=.. block=.. unmatched=.. retries=.. drop=.. dup=..
//!       delay=.. mean_hops_milli=.. dominant=<phase|none>   (one line)
//! hist read_total ...                                       (10 lines)
//! crit end=.. root=.. span=.. depth=.. share_ppm=..   (or `crit none`)
//! crit-seg cat=<name> cycles=.. count=.. share_ppm=..  (ranked desc)
//! digest: <32 hex>
//! ```
//!
//! Machine-level `share` lines are denominated in total PE-time
//! (`elapsed × pes`); per-PE `xval` deltas in `elapsed`. The `share` line
//! is the contract `profile-diff` checks drift against.

use emx_core::{FaultKind, SuspendCause};
use emx_stats::digest::digest_hex;
use emx_stats::json::quote;

use crate::attrib::{PeAttribution, PeEvents};
use crate::blame::{BlameCounters, NUM_PHASES, PHASE_NAMES};
use crate::critical::{CAT_NAMES, NUM_CATS};
use crate::histogram::Histogram;

/// Schema tag of the profile report format.
///
/// `emx-profile/2` added the per-PE `events` lines and the
/// `queue_depth_pkts` and `run_length_cycles` histograms, and times every
/// single-word read in `read_total`, matched or not.
pub const PROFILE_SCHEMA: &str = "emx-profile/2";

/// Attribution class labels, reporting order.
pub const CLASS_NAMES: [&str; 4] = ["busy", "switch", "wait", "idle"];

/// `x / denom` in parts-per-million, denominator clamped to 1.
pub fn ppm(x: u64, denom: u64) -> u64 {
    ((u128::from(x) * 1_000_000) / u128::from(denom.max(1))) as u64
}

/// One processor's profile: event counts, trace-side attribution,
/// counter-side breakdown, and their disagreement.
#[derive(Debug, Clone, Copy)]
pub struct PeProfile {
    /// Exact event counts.
    pub events: PeEvents,
    /// Trace-derived attribution.
    pub attrib: PeAttribution,
    /// Counter-derived Figure 8 classes `[busy, switch, wait, idle]`.
    pub counter: [u64; 4],
    /// `|trace − counter|` per class, in ppm of elapsed.
    pub xval_ppm: [u64; 4],
}

/// Remote-read blame, summarized for the report.
#[derive(Debug, Clone)]
pub struct BlameSummary {
    /// Matching and fault counters.
    pub counters: BlameCounters,
    /// Index into [`PHASE_NAMES`] of the dominant stall source.
    pub dominant: Option<usize>,
    /// Mean hops of matched reads, thousandths.
    pub mean_hops_milli: u64,
    /// Per-phase waiting histograms of matched reads, pipeline order.
    pub phases: Vec<Histogram>,
    /// End-to-end latency of every single-word read.
    pub total: Histogram,
    /// End-to-end block latency.
    pub block_total: Histogram,
}

/// The critical path, summarized for the report.
#[derive(Debug, Clone)]
pub struct CritSummary {
    /// Cycle of the final retire.
    pub end: u64,
    /// Cycle the chain was rooted.
    pub root: u64,
    /// Chain span in cycles.
    pub span: u64,
    /// Lifecycle edges on the chain.
    pub depth: u64,
    /// Chain span as ppm of elapsed.
    pub share_ppm: u64,
    /// `(category, cycles, edge count, share of span in ppm)`, ranked by
    /// cycles descending (ties broken by category order).
    pub segments: Vec<(usize, u64, u64, u64)>,
}

/// A complete `emx-profile/2` report.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Free-form provenance (workload, parameters, seed...), caller order.
    pub meta: Vec<(String, String)>,
    /// Run length in cycles.
    pub elapsed: u64,
    /// Simulated clock.
    pub clock_hz: u64,
    /// Per-processor profiles, PE order.
    pub pes: Vec<PeProfile>,
    /// Machine-level trace-side shares of total PE-time, `CLASS_NAMES`
    /// order. Sums to ~1e6.
    pub shares_ppm: [u64; 4],
    /// Machine-level counter-side shares, same denomination.
    pub counter_shares_ppm: [u64; 4],
    /// Worst per-PE per-class disagreement, ppm of elapsed.
    pub xval_max_ppm: u64,
    /// Remote-read blame.
    pub blame: BlameSummary,
    /// IBU depth sampled at every enqueue, packets.
    pub queue_depth: Histogram,
    /// EXU run lengths, dispatch to the first suspend or retire, cycles.
    pub run_length: Histogram,
    /// Critical path, absent when no thread retired.
    pub critical: Option<CritSummary>,
}

/// The `events` line's `key=value` pairs, in line order.
fn event_fields(e: &PeEvents) -> Vec<(String, u64)> {
    let mut fields: Vec<(String, u64)> = [
        ("dispatches", e.dispatches),
        ("sends", e.sends),
        ("spawns", e.spawns),
        ("resumes", e.resumes),
        ("suspends", e.total_suspends()),
        ("retires", e.retires),
        ("enqueues", e.enqueues),
        ("spills", e.spills),
        ("unspills", e.unspills),
        ("dma_services", e.dma_services),
        ("dma_words", e.dma_words),
        ("net_injects", e.net_injects),
        ("net_hops", e.net_hops),
        ("net_delivers", e.net_delivers),
        ("max_queue_depth", e.max_queue_depth),
    ]
    .map(|(k, v)| (k.to_string(), v))
    .into();
    for (cause, n) in SuspendCause::ALL.iter().zip(e.suspends) {
        fields.push((format!("suspend[{}]", cause.label()), n));
    }
    for (fault, n) in FaultKind::ALL.iter().zip(e.faults) {
        fields.push((format!("fault[{}]", fault.label()), n));
    }
    fields
}

impl ProfileReport {
    /// Faults drawn machine-wide, `[drop, dup, delay]`: the per-PE counts
    /// summed.
    pub fn faults(&self) -> [u64; 3] {
        let mut total = [0; 3];
        for p in &self.pes {
            for (t, n) in total.iter_mut().zip(p.events.faults) {
                *t += n;
            }
        }
        total
    }

    /// The canonical text *without* the digest line.
    pub fn canonical_body(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str(PROFILE_SCHEMA);
        s.push('\n');
        for (k, v) in &self.meta {
            s.push_str(&format!("meta {k}={v}\n"));
        }
        s.push_str(&format!(
            "run elapsed={} clock_hz={} pes={}\n",
            self.elapsed,
            self.clock_hz,
            self.pes.len()
        ));
        for (tag, shares) in [
            ("share", &self.shares_ppm),
            ("counter-share", &self.counter_shares_ppm),
        ] {
            s.push_str(tag);
            for (name, v) in CLASS_NAMES.iter().zip(shares) {
                s.push_str(&format!(" {name}_ppm={v}"));
            }
            s.push('\n');
        }
        for (i, p) in self.pes.iter().enumerate() {
            let a = &p.attrib;
            s.push_str(&format!(
                "attr pe={i} busy={} switch={} wait={} idle={} occupied={}\n",
                a.busy, a.switch, a.wait, a.idle, a.occupied
            ));
            s.push_str(&format!("counter pe={i}"));
            for (name, v) in CLASS_NAMES.iter().zip(&p.counter) {
                s.push_str(&format!(" {name}={v}"));
            }
            s.push('\n');
            s.push_str(&format!("xval pe={i}"));
            for (name, v) in CLASS_NAMES.iter().zip(&p.xval_ppm) {
                s.push_str(&format!(" {name}_ppm={v}"));
            }
            s.push('\n');
            s.push_str(&format!("events pe={i}"));
            for (k, v) in event_fields(&p.events) {
                s.push_str(&format!(" {k}={v}"));
            }
            s.push('\n');
        }
        s.push_str(&format!("xval max_ppm={}\n", self.xval_max_ppm));
        let b = &self.blame;
        let c = &b.counters;
        let faults = self.faults();
        s.push_str(&format!(
            "blame matched={} block={} unmatched={} retries={} drop={} dup={} delay={} \
             mean_hops_milli={} dominant={}\n",
            c.matched,
            c.block_matched,
            c.unmatched,
            c.retry_sends,
            faults[0],
            faults[1],
            faults[2],
            b.mean_hops_milli,
            b.dominant.map_or("none", |i| PHASE_NAMES[i]),
        ));
        let hists = std::iter::once(&b.total).chain(&b.phases).chain([
            &b.block_total,
            &self.queue_depth,
            &self.run_length,
        ]);
        for h in hists {
            s.push_str(&h.canonical_line());
            s.push('\n');
        }
        match &self.critical {
            None => s.push_str("crit none\n"),
            Some(cr) => {
                s.push_str(&format!(
                    "crit end={} root={} span={} depth={} share_ppm={}\n",
                    cr.end, cr.root, cr.span, cr.depth, cr.share_ppm
                ));
                for (cat, cycles, count, share) in &cr.segments {
                    s.push_str(&format!(
                        "crit-seg cat={} cycles={cycles} count={count} share_ppm={share}\n",
                        CAT_NAMES[*cat]
                    ));
                }
            }
        }
        s
    }

    /// Digest of the canonical body (what the `digest:` line carries).
    pub fn digest(&self) -> String {
        digest_hex(&self.canonical_body())
    }

    /// The full canonical text, digest line included.
    pub fn canonical_text(&self) -> String {
        let body = self.canonical_body();
        format!("{body}digest: {}\n", digest_hex(&body))
    }

    /// The JSON twin. Hand-rendered (deterministic key order) and stamped
    /// with the *canonical-text* digest so the two artifacts cross-vouch.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(8192);
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": {},\n", quote(PROFILE_SCHEMA)));
        s.push_str("  \"meta\": {");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{}: {}", quote(k), quote(v)));
        }
        s.push_str("},\n");
        s.push_str(&format!(
            "  \"run\": {{\"elapsed\": {}, \"clock_hz\": {}, \"pes\": {}}},\n",
            self.elapsed,
            self.clock_hz,
            self.pes.len()
        ));
        s.push_str(&format!(
            "  \"share_ppm\": {},\n",
            json_classes(&self.shares_ppm)
        ));
        s.push_str(&format!(
            "  \"counter_share_ppm\": {},\n",
            json_classes(&self.counter_shares_ppm)
        ));
        s.push_str("  \"pes\": [\n");
        for (i, p) in self.pes.iter().enumerate() {
            let a = &p.attrib;
            let events: Vec<String> = event_fields(&p.events)
                .iter()
                .map(|(k, v)| format!("{}: {v}", quote(k)))
                .collect();
            s.push_str(&format!(
                "    {{\"pe\": {i}, \"attrib\": {}, \"occupied\": {}, \"counter\": {}, \
                 \"xval_ppm\": {}, \"events\": {{{}}}}}{}\n",
                json_classes(&[a.busy, a.switch, a.wait, a.idle]),
                a.occupied,
                json_classes(&p.counter),
                json_classes(&p.xval_ppm),
                events.join(", "),
                if i + 1 < self.pes.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!("  \"xval_max_ppm\": {},\n", self.xval_max_ppm));
        let b = &self.blame;
        let c = &b.counters;
        let faults = self.faults();
        s.push_str("  \"blame\": {\n");
        s.push_str(&format!(
            "    \"matched\": {}, \"block_matched\": {}, \"unmatched\": {}, \"retries\": {},\n",
            c.matched, c.block_matched, c.unmatched, c.retry_sends
        ));
        s.push_str(&format!(
            "    \"faults\": {{\"drop\": {}, \"dup\": {}, \"delay\": {}}},\n",
            faults[0], faults[1], faults[2]
        ));
        s.push_str(&format!(
            "    \"mean_hops_milli\": {}, \"dominant\": {},\n",
            b.mean_hops_milli,
            b.dominant
                .map_or_else(|| "null".into(), |i| quote(PHASE_NAMES[i])),
        ));
        s.push_str(&format!("    \"total\": {},\n", json_hist(&b.total)));
        s.push_str("    \"phases\": [\n");
        for (i, h) in b.phases.iter().enumerate() {
            s.push_str(&format!(
                "      {}{}\n",
                json_hist(h),
                if i + 1 < NUM_PHASES { "," } else { "" }
            ));
        }
        s.push_str("    ],\n");
        s.push_str(&format!(
            "    \"block_total\": {}\n  }},\n",
            json_hist(&b.block_total)
        ));
        s.push_str(&format!(
            "  \"queue_depth\": {},\n  \"run_length\": {},\n",
            json_hist(&self.queue_depth),
            json_hist(&self.run_length)
        ));
        match &self.critical {
            None => s.push_str("  \"critical\": null,\n"),
            Some(cr) => {
                s.push_str(&format!(
                    "  \"critical\": {{\"end\": {}, \"root\": {}, \"span\": {}, \
                     \"depth\": {}, \"share_ppm\": {}, \"segments\": [",
                    cr.end, cr.root, cr.span, cr.depth, cr.share_ppm
                ));
                for (i, (cat, cycles, count, share)) in cr.segments.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    s.push_str(&format!(
                        "{{\"cat\": {}, \"cycles\": {cycles}, \"count\": {count}, \
                         \"share_ppm\": {share}}}",
                        quote(CAT_NAMES[*cat])
                    ));
                }
                s.push_str("]},\n");
            }
        }
        s.push_str(&format!("  \"digest\": {}\n}}\n", quote(&self.digest())));
        s
    }
}

fn json_classes(v: &[u64; 4]) -> String {
    format!(
        "{{\"busy\": {}, \"switch\": {}, \"wait\": {}, \"idle\": {}}}",
        v[0], v[1], v[2], v[3]
    )
}

fn json_hist(h: &Histogram) -> String {
    let mut s = format!(
        "{{\"name\": {}, \"count\": {}, \"sum\": {}, \"max\": {}, \"buckets\": [",
        quote(h.name()),
        h.count(),
        h.sum(),
        h.max()
    );
    for (i, (label, c)) in h.buckets().iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("[{}, {c}]", quote(label)));
    }
    s.push_str("]}");
    s
}

/// The fields `profile-diff` compares, parsed back out of a canonical
/// text report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedProfile {
    /// Run length in cycles.
    pub elapsed: u64,
    /// Number of PEs.
    pub pes: u64,
    /// Machine-level trace-side shares, `CLASS_NAMES` order.
    pub shares_ppm: [u64; 4],
    /// Dominant blame phase label (`none` when no read completed).
    pub dominant: String,
    /// Critical-path share of elapsed, ppm (0 when absent).
    pub crit_share_ppm: u64,
    /// The stamped (and re-verified) digest.
    pub digest: String,
    /// `meta` lines, for display.
    pub meta: Vec<(String, String)>,
}

/// Field lookup inside one canonical line: `key=value` tokens.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .filter_map(|tok| tok.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

fn field_u64(line: &str, key: &str, what: &str) -> Result<u64, String> {
    field(line, key)
        .ok_or_else(|| format!("missing {key}= on {what} line"))?
        .parse::<u64>()
        .map_err(|_| format!("non-integer {key}= on {what} line"))
}

/// Parse and integrity-check a canonical `emx-profile/2` text report.
///
/// Errors on: wrong schema tag, missing sections, non-integer fields, a
/// line after the digest line, or a digest that does not match the bytes
/// above it (a hand-edited or truncated report).
pub fn parse_text(text: &str) -> Result<ParsedProfile, String> {
    let mut lines = text.lines();
    let schema = lines.next().ok_or("empty report")?;
    if schema != PROFILE_SCHEMA {
        return Err(format!(
            "schema mismatch: expected {PROFILE_SCHEMA}, found {schema:?}"
        ));
    }
    let mut meta = Vec::new();
    let mut elapsed = None;
    let mut pes = None;
    let mut shares = None;
    let mut dominant = None;
    let mut crit_share = 0;
    let mut digest = None;
    for line in lines {
        if digest.is_some() {
            return Err(format!("line after the digest line: {line:?}"));
        }
        if let Some(rest) = line.strip_prefix("meta ") {
            if let Some((k, v)) = rest.split_once('=') {
                meta.push((k.to_string(), v.to_string()));
            }
        } else if line.starts_with("run ") {
            elapsed = Some(field_u64(line, "elapsed", "run")?);
            pes = Some(field_u64(line, "pes", "run")?);
        } else if line.starts_with("share ") {
            let mut v = [0u64; 4];
            for (slot, name) in v.iter_mut().zip(CLASS_NAMES) {
                *slot = field_u64(line, &format!("{name}_ppm"), "share")?;
            }
            shares = Some(v);
        } else if line.starts_with("blame ") {
            dominant = Some(
                field(line, "dominant")
                    .ok_or("missing dominant= on blame line")?
                    .to_string(),
            );
        } else if line.starts_with("crit ") && !line.starts_with("crit none") {
            crit_share = field_u64(line, "share_ppm", "crit")?;
        } else if let Some(rest) = line.strip_prefix("digest: ") {
            digest = Some(rest.trim().to_string());
        }
    }
    let digest = digest.ok_or("missing digest line")?;
    if digest.len() != 32 || !digest.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("malformed digest {digest:?}"));
    }
    // The digest line is the last line, so its bytes start after the
    // body's final newline.
    let body_end = text.rfind("\ndigest: ").ok_or("missing digest line")? + 1;
    let actual = digest_hex(&text[..body_end]);
    if actual != digest {
        return Err(format!(
            "digest mismatch: report stamped {digest} but content hashes to {actual} \
             (edited or truncated?)"
        ));
    }
    Ok(ParsedProfile {
        elapsed: elapsed.ok_or("missing run line")?,
        pes: pes.ok_or("missing run line")?,
        shares_ppm: shares.ok_or("missing share line")?,
        dominant: dominant.ok_or("missing blame line")?,
        crit_share_ppm: crit_share,
        digest,
        meta,
    })
}

/// Rank critical-path segments: cycles descending, category order tying.
pub fn rank_segments(
    cycles: &[u64; NUM_CATS],
    counts: &[u64; NUM_CATS],
    span: u64,
) -> Vec<(usize, u64, u64, u64)> {
    let mut segs: Vec<_> = (0..NUM_CATS)
        .map(|cat| (cat, cycles[cat], counts[cat], ppm(cycles[cat], span)))
        .collect();
    segs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    segs
}
