//! Stable content digests for provenance and run caching.
//!
//! The sweep engine (crate `emx-sweep`) addresses cached simulation results
//! by a content hash of the run specification and machine configuration,
//! and stamps every results CSV with a digest of the reports behind it.
//! Those hashes must be *stable*: identical across processes, platforms,
//! and compiler versions, unlike [`std::hash::DefaultHasher`] which is
//! documented to be seed- and version-dependent. This module provides a
//! fixed-parameter FNV-1a implementation (64-bit and a doubled 128-bit
//! variant) plus a canonical text rendering of [`RunReport`] so callers
//! hash bytes with a defined layout rather than in-memory representations,
//! and the parser that reads that rendering back.

use emx_core::Cycle;

use crate::report::{FaultSummary, PeStats, RunReport};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One-shot FNV-1a 64-bit hash of `bytes`.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// An incremental 128-bit digest built from two independent FNV-1a 64-bit
/// lanes (the second lane is offset by a distinct basis and consumes each
/// byte bit-rotated), giving collision resistance adequate for cache
/// addressing — this is a content address, not a cryptographic commitment.
#[derive(Debug, Clone)]
pub struct Digest128 {
    lo: u64,
    hi: u64,
}

impl Default for Digest128 {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest128 {
    /// A fresh digest.
    pub fn new() -> Self {
        Digest128 {
            lo: FNV_OFFSET,
            // The 64-bit offset basis XOR-folded with an arbitrary odd
            // constant, so the two lanes never agree on input position.
            hi: FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.lo ^= u64::from(b);
            self.lo = self.lo.wrapping_mul(FNV_PRIME);
            self.hi ^= u64::from(b.rotate_left(3));
            self.hi = self.hi.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb a string.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
    }

    /// The 32-hex-digit content address.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

/// One-shot 128-bit digest of a string, as 32 hex digits.
pub fn digest_hex(s: &str) -> String {
    let mut d = Digest128::new();
    d.write_str(s);
    d.hex()
}

/// Canonical, versioned text rendering of a [`RunReport`].
///
/// Every measured field appears exactly once in a defined order; the layout
/// is versioned by the leading tag so a report digest can never silently
/// collide across format revisions. This is the byte stream behind
/// [`report_digest`], and the run cache stores exactly these lines.
pub fn report_canonical_text(r: &RunReport) -> String {
    let mut out = String::with_capacity(64 + 128 * r.per_pe.len());
    out.push_str("emx-report v2\n");
    out.push_str(&format!(
        "elapsed={} clock_hz={} net_packets={} net_contention={}\n",
        r.elapsed.get(),
        r.clock_hz,
        r.net_packets,
        r.net_contention.get()
    ));
    if let Some(f) = &r.faults {
        out.push_str(&format!(
            "faults dropped={} duplicated={} delayed={} forced_spills={} dma_stalls={} \
             retries={} stale_responses={}\n",
            f.dropped,
            f.duplicated,
            f.delayed,
            f.forced_spills,
            f.dma_stalls,
            f.retries,
            f.stale_responses
        ));
    }
    for p in &r.per_pe {
        out.push_str(&format!(
            "pe {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}\n",
            p.breakdown.compute.get(),
            p.breakdown.overhead.get(),
            p.breakdown.comm.get(),
            p.breakdown.switch.get(),
            p.switches.remote_read,
            p.switches.iter_sync,
            p.switches.thread_sync,
            p.packets_sent,
            p.reads_issued,
            p.dispatches,
            p.max_queue_depth,
            p.ibu_spills,
            p.high_spills,
            p.low_spills,
            p.forced_spills,
            p.max_high_depth,
            p.max_low_depth
        ));
    }
    out
}

/// Stable 128-bit digest of a [`RunReport`], as 32 hex digits — the
/// provenance sidecars record this per run so a regenerated figure can be
/// checked against the cached simulation that produced it.
pub fn report_digest(r: &RunReport) -> String {
    digest_hex(&report_canonical_text(r))
}

/// The inverse of [`report_canonical_text`]: parse the `emx-report v2`
/// section out of an iterator of lines; `None` on any structural
/// mismatch. Lines before the `emx-report v2` tag are skipped, so records
/// that embed the text after their own header lines (the sweep cache's
/// entries, its journal's `result` records) parse as they are.
pub fn parse_report_text<'a>(lines: impl Iterator<Item = &'a str>) -> Option<RunReport> {
    // Skip the human-readable spec/config sections down to the report tag.
    let mut lines = lines.skip_while(|l| *l != "emx-report v2");
    if lines.next()? != "emx-report v2" {
        return None;
    }

    // "elapsed=E clock_hz=C net_packets=P net_contention=N"
    let header = lines.next()?;
    let mut elapsed = None;
    let mut clock_hz = None;
    let mut net_packets = None;
    let mut net_contention = None;
    for field in header.split_whitespace() {
        let (name, value) = field.split_once('=')?;
        let value: u64 = value.parse().ok()?;
        match name {
            "elapsed" => elapsed = Some(value),
            "clock_hz" => clock_hz = Some(value),
            "net_packets" => net_packets = Some(value),
            "net_contention" => net_contention = Some(value),
            _ => return None,
        }
    }

    let mut faults = None;
    let mut per_pe = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("faults ") {
            // Armed runs carry one machine-wide fault summary line.
            if faults.is_some() || !per_pe.is_empty() {
                return None;
            }
            let mut f = FaultSummary::default();
            for field in rest.split_whitespace() {
                let (name, value) = field.split_once('=')?;
                let value: u64 = value.parse().ok()?;
                match name {
                    "dropped" => f.dropped = value,
                    "duplicated" => f.duplicated = value,
                    "delayed" => f.delayed = value,
                    "forced_spills" => f.forced_spills = value,
                    "dma_stalls" => f.dma_stalls = value,
                    "retries" => f.retries = value,
                    "stale_responses" => f.stale_responses = value,
                    _ => return None,
                }
            }
            faults = Some(f);
            continue;
        }
        let mut it = line.split_whitespace();
        if it.next()? != "pe" {
            return None;
        }
        let mut next = || -> Option<u64> { it.next()?.parse().ok() };
        let stats = PeStats {
            breakdown: crate::Breakdown {
                compute: Cycle::new(next()?),
                overhead: Cycle::new(next()?),
                comm: Cycle::new(next()?),
                switch: Cycle::new(next()?),
            },
            switches: crate::SwitchCensus {
                remote_read: next()?,
                iter_sync: next()?,
                thread_sync: next()?,
            },
            packets_sent: next()?,
            reads_issued: next()?,
            dispatches: next()?,
            max_queue_depth: next()? as usize,
            ibu_spills: next()?,
            high_spills: next()?,
            low_spills: next()?,
            forced_spills: next()?,
            max_high_depth: next()? as usize,
            max_low_depth: next()? as usize,
        };
        per_pe.push(stats);
    }

    Some(RunReport {
        per_pe,
        elapsed: Cycle::new(elapsed?),
        clock_hz: clock_hz?,
        net_packets: net_packets?,
        net_contention: Cycle::new(net_contention?),
        faults,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn digest_is_stable_and_input_sensitive() {
        assert_eq!(digest_hex("abc"), digest_hex("abc"));
        assert_ne!(digest_hex("abc"), digest_hex("abd"));
        assert_eq!(digest_hex("").len(), 32);
    }

    #[test]
    fn report_digest_tracks_content() {
        let mut r = RunReport {
            per_pe: vec![PeStats::default(); 2],
            elapsed: Cycle::new(100),
            clock_hz: 20_000_000,
            ..RunReport::default()
        };
        let d0 = report_digest(&r);
        assert_eq!(d0, report_digest(&r.clone()));
        r.per_pe[1].reads_issued = 1;
        assert_ne!(d0, report_digest(&r));
    }

    #[test]
    fn canonical_covers_queue_pressure_fields() {
        let base = RunReport {
            per_pe: vec![PeStats::default()],
            ..RunReport::default()
        };
        let c0 = report_canonical_text(&base);
        for mutate in [
            |p: &mut PeStats| p.high_spills = 1,
            |p: &mut PeStats| p.low_spills = 1,
            |p: &mut PeStats| p.forced_spills = 1,
            |p: &mut PeStats| p.max_high_depth = 1,
            |p: &mut PeStats| p.max_low_depth = 1,
        ] {
            let mut r = base.clone();
            mutate(&mut r.per_pe[0]);
            assert_ne!(c0, report_canonical_text(&r));
        }
    }

    #[test]
    fn faults_line_present_only_when_armed() {
        let mut r = RunReport::default();
        assert!(!report_canonical_text(&r).contains("faults "));
        r.faults = Some(FaultSummary::default());
        let armed = report_canonical_text(&r);
        assert!(armed.contains("faults dropped=0"));
        r.faults = Some(FaultSummary {
            retries: 3,
            ..FaultSummary::default()
        });
        assert_ne!(armed, report_canonical_text(&r));
    }
}
