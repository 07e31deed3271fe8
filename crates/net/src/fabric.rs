//! The one virtual-cut-through fabric every contended topology runs on.
//!
//! The paper's Switching Unit has a single timing rule (§2.2): the packet
//! head advances one hop per [`hop_cycles`](emx_core::NetConfig::hop_cycles)
//! cycle, so an uncontended packet reaches a processor k hops away in k+1
//! cycles; each port accepts one packet every
//! [`port_service`](emx_core::NetConfig::port_service) cycles; and a packet
//! that finds its port busy waits for it. [`Fabric`] owns that rule once —
//! the port timelines, the statistics, the snapshot image and the walk —
//! and a [`Topology`] supplies only where a packet goes.
//!
//! A path is a list of *bundles*, each a range of parallel ports; the walk
//! takes a bundle's earliest-free port, lowest index on ties. A one-port
//! bundle is a plain link. Because every model routes a (source,
//! destination) pair over the same bundles each time and a reservation only
//! raises port free times, a later injection on a pair can never arrive
//! earlier: messages do not overtake.

use std::ops::Range;

use emx_core::{Codec, Cycle, NetConfig, PeId, SimError};

use crate::{snap_bare, NetStats, Network};

/// Where packets go: the routing function of one contended topology.
pub(crate) trait Topology: Send {
    /// Number of ports: the length of the fabric's timeline.
    fn ports(&self) -> usize;

    /// Append the bundles from `src` to `dst` to `out` and return the hop
    /// count the route reports. An empty path is the local shortcut: the
    /// packet arrives one hop after injection.
    fn path(&self, src: usize, dst: usize, out: &mut Vec<Range<usize>>) -> u32;

    /// The hop count [`path`](Topology::path) returns, without the path.
    fn hops(&self, src: usize, dst: usize) -> u32;

    /// Model name, for reports and snapshot errors.
    fn name(&self) -> &'static str;
}

/// A [`Topology`] with cut-through timing and per-port contention.
pub(crate) struct Fabric<T> {
    topo: T,
    hop: u64,
    service: u64,
    /// First cycle each port can accept another packet.
    next_free: Vec<Cycle>,
    stats: NetStats,
    /// The current route, reused so routing allocates nothing per packet.
    path: Vec<Range<usize>>,
}

impl<T: Topology> Fabric<T> {
    pub(crate) fn new(topo: T, cfg: &NetConfig) -> Fabric<T> {
        Fabric {
            hop: u64::from(cfg.hop_cycles),
            service: u64::from(cfg.port_service),
            next_free: vec![Cycle::ZERO; topo.ports()],
            stats: NetStats::default(),
            path: Vec::new(),
            topo,
        }
    }
}

impl<T: Topology> Network for Fabric<T> {
    fn route(&mut self, now: Cycle, src: PeId, dst: PeId) -> Cycle {
        self.path.clear();
        let hops = self.topo.path(src.index(), dst.index(), &mut self.path);
        // Injection from the processor into its switch: one hop.
        let mut head = now + self.hop;
        let mut waited = Cycle::ZERO;
        for bundle in &self.path {
            // A one-port bundle skips the scan: it costs one timeline read.
            let mut best = bundle.start;
            for port in bundle.start + 1..bundle.end {
                if self.next_free[port] < self.next_free[best] {
                    best = port;
                }
            }
            let ready = head.max(self.next_free[best]);
            waited += ready - head;
            self.next_free[best] = ready + self.service;
            // Cut-through: the head moves on as soon as it holds the port.
            head = ready + self.hop;
        }
        self.stats.record(1, hops, waited);
        head
    }

    fn hops(&self, src: PeId, dst: PeId) -> u32 {
        self.topo.hops(src.index(), dst.index())
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn snap(&mut self, c: &mut dyn Codec) -> Result<(), SimError> {
        snap_bare(c, self.topo.name(), &mut self.stats, &mut self.next_free)
    }

    fn name(&self) -> &'static str {
        self.topo.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every route crosses one two-port bundle, then one single port.
    struct TwoLane;

    impl Topology for TwoLane {
        fn ports(&self) -> usize {
            3
        }

        fn path(&self, _: usize, _: usize, out: &mut Vec<Range<usize>>) -> u32 {
            out.extend([0..2, 2..3]);
            2
        }

        fn hops(&self, _: usize, _: usize) -> u32 {
            2
        }

        fn name(&self) -> &'static str {
            "two-lane"
        }
    }

    #[test]
    fn a_bundle_takes_its_earliest_free_port_lowest_index_first() {
        let mut f = Fabric::new(TwoLane, &NetConfig::default());
        // Three packets at once: the first two ride ports 0 and 1 of the
        // bundle without waiting, the third waits for port 0; all three
        // then queue on the single port.
        let t: Vec<u64> = (0..3)
            .map(|_| f.route(Cycle::new(10), PeId(0), PeId(1)).get())
            .collect();
        assert_eq!(t, [13, 15, 17]);
        assert_eq!(f.next_free, [15, 13, 18].map(Cycle::new));
        assert_eq!(f.stats().contention_wait, Cycle::new(2 + 2 + 2));
    }

    /// A token tape: encodes onto `tokens`, or decodes them from `at`.
    struct Tape {
        tokens: Vec<u64>,
        at: Option<usize>,
    }

    impl Codec for Tape {
        fn decoding(&self) -> bool {
            self.at.is_some()
        }

        fn section(&mut self, _: &str) -> Result<(), SimError> {
            Ok(())
        }

        fn u64(&mut self, v: &mut u64) -> Result<(), SimError> {
            match self.at {
                None => self.tokens.push(*v),
                Some(at) => {
                    *v = *self.tokens.get(at).ok_or(self.invalid("ran out"))?;
                    self.at = Some(at + 1);
                }
            }
            Ok(())
        }

        fn str(&mut self, _: &mut String) -> Result<(), SimError> {
            unreachable!("a network holds no strings")
        }

        fn invalid(&self, detail: &str) -> SimError {
            SimError::SnapshotInvalid {
                reason: detail.into(),
            }
        }
    }

    #[test]
    fn a_state_image_of_the_wrong_length_is_rejected() {
        let mut f = Fabric::new(TwoLane, &NetConfig::default());
        let mut tape = Tape {
            tokens: Vec::new(),
            at: None,
        };
        f.snap(&mut tape).unwrap();
        // Statistics, the port count, three ports, the no-wrap flag.
        assert_eq!(tape.tokens, [0, 0, 0, 3, 0, 0, 0, 0]);
        tape.tokens.remove(4);
        tape.tokens[3] = 2;
        tape.at = Some(0);
        assert!(f.snap(&mut tape).is_err());
    }
}
