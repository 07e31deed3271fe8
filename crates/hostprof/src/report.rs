//! The `emx-hostprof/1` report: the canonical text rendering of a counter
//! [`Snapshot`], digest-stamped over the deterministic `counters` section
//! only.

use crate::counters::{Snapshot, HOST_NAMES, SIM_NAMES, WALL_NAMES};
use emx_stats::digest::Digest128;

/// Schema identifier for the report (first line of the text form).
pub const HOSTPROF_SCHEMA: &str = "emx-hostprof/1";

/// A settled host-profiling report: free-form metadata (digest-excluded)
/// plus one counter [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostProfReport {
    /// Context key/value pairs (workload, jobs, …). Rendered on the `run`
    /// line; never digested — metadata may legitimately differ between
    /// runs whose simulation work is identical (e.g. `--jobs 1` vs
    /// `--jobs 4`).
    pub meta: Vec<(String, String)>,
    /// The counter values this report settles.
    pub snap: Snapshot,
}

impl HostProfReport {
    /// Build a report from metadata pairs and a snapshot.
    pub fn new(meta: Vec<(String, String)>, snap: Snapshot) -> Self {
        HostProfReport { meta, snap }
    }

    /// Digest over the canonical bytes of the `counters` section only.
    /// Equal digests ⇔ equal deterministic simulation work; `host` and
    /// `wall` sections never influence it.
    pub fn digest(&self) -> String {
        let mut d = Digest128::new();
        d.write_str(HOSTPROF_SCHEMA);
        for (name, v) in SIM_NAMES.iter().zip(self.snap.sim.iter()) {
            d.write_str(name);
            d.write(&v.to_le_bytes());
        }
        d.hex()
    }

    /// The deterministic `counters` section alone, one `  name value`
    /// line per counter — what the cross-run/cross-jobs byte-identity
    /// tests and CI compare.
    pub fn counters_section(&self) -> String {
        section("counters", &SIM_NAMES, &self.snap.sim)
    }

    /// Canonical text rendering: schema line, `run` metadata line,
    /// `counters` / `host` / `wall` sections, and a final
    /// `digest: <32 hex>` line (covering the counters section only).
    pub fn canonical_text(&self) -> String {
        let mut s = String::new();
        s.push_str(HOSTPROF_SCHEMA);
        s.push('\n');
        if !self.meta.is_empty() {
            s.push_str("run");
            for (k, v) in &self.meta {
                s.push_str(&format!(" {k}={v}"));
            }
            s.push('\n');
        }
        s.push_str(&self.counters_section());
        s.push_str(&section("host", &HOST_NAMES, &self.snap.host));
        s.push_str(&section("wall", &WALL_NAMES, &self.snap.wall));
        s.push_str(&format!("digest: {}\n", self.digest()));
        s
    }
}

/// One section: its title line, then a `  name value` line per counter.
fn section(title: &str, names: &[&str], vals: &[u64]) -> String {
    let mut s = format!("{title}\n");
    for (name, v) in names.iter().zip(vals) {
        s.push_str(&format!("  {name} {v}\n"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{Host, Sim, Wall};

    fn sample() -> HostProfReport {
        let mut snap = Snapshot {
            sim: [0; SIM_NAMES.len()],
            host: [0; HOST_NAMES.len()],
            wall: [0; WALL_NAMES.len()],
        };
        snap.sim[Sim::CalPushes as usize] = 100;
        snap.sim[Sim::CalPops as usize] = 100;
        snap.host[Host::DriverWindows as usize] = 7;
        snap.wall[Wall::SweepExecNs as usize] = 12345;
        HostProfReport::new(
            vec![
                ("workload".into(), "fft".into()),
                ("jobs".into(), "4".into()),
            ],
            snap,
        )
    }

    #[test]
    fn digest_covers_counters_only() {
        let a = sample();
        let mut b = sample();
        b.meta.clear();
        b.snap.host[Host::DriverWindows as usize] = 99;
        b.snap.wall[Wall::SweepExecNs as usize] = 0;
        assert_eq!(a.digest(), b.digest());
        let mut c = sample();
        c.snap.sim[Sim::CalPops as usize] += 1;
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn text_is_stable_and_digest_stamped() {
        let r = sample();
        let t1 = r.canonical_text();
        let t2 = r.canonical_text();
        assert_eq!(t1, t2);
        assert!(t1.starts_with("emx-hostprof/1\n"));
        assert!(t1.contains("run workload=fft jobs=4\n"));
        assert!(t1.contains("\ncounters\n  calendar.pushes 100\n"));
        let last = t1.lines().last().unwrap();
        assert!(last.starts_with("digest: "));
        assert_eq!(last.len(), "digest: ".len() + 32);
        assert!(t1.contains(&r.counters_section()));
    }
}
