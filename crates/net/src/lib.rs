//! # emx-net
//!
//! Network models for the EM-X simulator.
//!
//! The real machine connects its 80 EMC-Y processors "through a circular
//! Omega network ... except that each processor is attached to a switch box"
//! (paper §2.2). Packets are routed virtual-cut-through: "a packet can be
//! transferred in k+1 cycles to the processor k hops beyond", each switch
//! port "can transfer a packet ... at every second cycle", and the Switching
//! Unit enforces message non-overtaking.
//!
//! That timing rule lives once, in the crate-private fabric: it owns the
//! port timelines, the statistics, the snapshot image and the cut-through
//! walk. Each contended topology is only a routing function over it — the
//! circular Omega (destination-tag routing over `log2(P)` stages of 2x2
//! switches, see [`route_ports`]), a full crossbar (single hop, endpoint
//! contention only), a 2D mesh or torus (one grid, X-then-Y routing, with
//! or without wraparound) and a k-ary fat-tree (up/down through the lowest
//! common ancestor over widening link bundles). [`IdealNetwork`] (fixed
//! latency, no contention) isolates topology effects for the ablations.
//!
//! [`build_network`] makes every model from a [`NetConfig`]. All of them
//! implement [`Network`]: given the injection time of a packet they return
//! its arrival time at the destination's Input Buffer Unit, and they
//! guarantee non-overtaking per (source, destination) pair.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crossbar;
mod fabric;
mod fattree;
mod grid;
mod ideal;
mod omega;
mod stats;

// The mesh and the torus are one grid but two models, each with its own
// unit tests.
#[cfg(test)]
mod mesh {
    crate::grid::grid_model_tests!(emx_core::NetModelKind::Mesh2D, false);
}
#[cfg(test)]
mod torus {
    crate::grid::grid_model_tests!(emx_core::NetModelKind::Torus2D, true);
}

pub use ideal::IdealNetwork;
pub use omega::{route_ports, PortId};
pub use stats::NetStats;

use crossbar::Crossbar;
use fabric::Fabric;
use fattree::FatTree;
use grid::Grid;
use omega::Omega;

use emx_core::{
    Codec, Cycle, NetConfig, NetModelKind, PacketKind, PeId, Probe, SimError, TraceKind,
};

/// How a packet may be treated by a fault-injecting network layer.
///
/// The paper's network is lossless; the fault-injection layer relaxes that
/// only where the runtime has a recovery protocol. Split-phase reads are
/// covered by sequence-numbered retry with duplicate suppression, so their
/// packets may be dropped or duplicated; everything else (spawns, writes,
/// barrier traffic) has no acknowledgement path and is only ever *delayed*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryClass {
    /// Read requests and responses: drop/duplicate/delay eligible (the
    /// retry protocol recovers losses, duplicate responses are suppressed).
    Data,
    /// Control traffic (spawn, write, barrier): delay-only.
    Control,
}

/// The scheduled arrivals of one injected packet: zero (dropped), one, or
/// two (duplicated) arrival cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deliveries {
    times: [Cycle; 2],
    len: u8,
}

impl Deliveries {
    /// The packet was dropped at injection.
    pub fn none() -> Deliveries {
        Deliveries {
            times: [Cycle::ZERO; 2],
            len: 0,
        }
    }

    /// Normal delivery at `t`.
    pub fn one(t: Cycle) -> Deliveries {
        Deliveries {
            times: [t, Cycle::ZERO],
            len: 1,
        }
    }

    /// Duplicated delivery at `a` and `b`.
    pub fn two(a: Cycle, b: Cycle) -> Deliveries {
        Deliveries {
            times: [a, b],
            len: 2,
        }
    }

    /// The scheduled arrival cycles.
    pub fn as_slice(&self) -> &[Cycle] {
        &self.times[..usize::from(self.len)]
    }

    /// Number of scheduled arrivals (0, 1, or 2).
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether the packet was dropped.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Counters of the faults a network layer actually injected. Returned by
/// [`Network::fault_counters`]; `None` for fault-free models.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Packets dropped at injection.
    pub dropped: u64,
    /// Packets duplicated at injection (each counts once).
    pub duplicated: u64,
    /// Packets whose arrival was artificially delayed.
    pub delayed: u64,
}

/// Pass the state of a model that wraps no other through `c`: its
/// statistics, its port timeline with its length (empty for a model
/// without ports), and the flag that no wrapped state follows. Decoding
/// rejects a timeline of another length, and a wrapped state.
pub(crate) fn snap_bare(
    c: &mut dyn Codec,
    model: &str,
    stats: &mut NetStats,
    ports: &mut Vec<Cycle>,
) -> Result<(), SimError> {
    stats.snap(c)?;
    let len = ports.len();
    c.vec(ports, |t, c| c.cycle(t))?;
    let mut wraps = false;
    c.bool(&mut wraps)?;
    if ports.len() != len || wraps {
        return Err(c.invalid(&format!("network state does not fit the {model} model")));
    }
    Ok(())
}

/// A network model: maps packet injections to arrival times.
pub trait Network: Send {
    /// A packet leaves `src`'s Output Buffer Unit at `now`; return the cycle
    /// its last word arrives at `dst`'s Input Buffer Unit.
    ///
    /// Implementations must be monotone per (src, dst) pair: if packet A is
    /// injected no later than packet B on the same pair, A arrives no later
    /// than B (message non-overtaking, paper §2.2).
    fn route(&mut self, now: Cycle, src: PeId, dst: PeId) -> Cycle;

    /// Fault-aware routing: like [`route`](Network::route), but a
    /// fault-injecting layer may return zero arrivals (packet dropped) or
    /// two (packet duplicated) for [`DeliveryClass::Data`] traffic. The
    /// default implementation — every fault-free model — is exactly one
    /// arrival at the `route` time, so existing models are unaffected.
    fn route_deliveries(
        &mut self,
        now: Cycle,
        src: PeId,
        dst: PeId,
        class: DeliveryClass,
    ) -> Deliveries {
        let _ = class;
        Deliveries::one(self.route(now, src, dst))
    }

    /// [`route_deliveries`](Network::route_deliveries) with an
    /// observability probe: emits one [`TraceKind::NetInject`] event at the
    /// injection time, carrying the packet kind, destination, and the
    /// route's hop count (the paper's k+1-cycle virtual-cut-through walk).
    /// The matching ejection event ([`TraceKind::NetDeliver`]) is emitted
    /// by the runtime when the packet arrives at the destination IBU.
    fn route_probed(
        &mut self,
        now: Cycle,
        src: PeId,
        dst: PeId,
        class: DeliveryClass,
        pkt: PacketKind,
        probe: Option<&mut dyn Probe>,
    ) -> Deliveries {
        let deliveries = self.route_deliveries(now, src, dst, class);
        if let Some(p) = probe {
            p.on(
                now,
                src,
                TraceKind::NetInject {
                    pkt,
                    dst,
                    hops: self.hops(src, dst),
                },
            );
        }
        deliveries
    }

    /// The number of hops the route from `src` to `dst` traverses.
    fn hops(&self, src: PeId, dst: PeId) -> u32;

    /// Accumulated traffic statistics.
    fn stats(&self) -> &NetStats;

    /// Pass the model's complete mutable state through `c`: its
    /// statistics, its state words with their count, and whether a wrapped
    /// model's state follows, then that state. Decoding requires a model
    /// configured like the one that encoded.
    fn snap(&mut self, c: &mut dyn Codec) -> Result<(), SimError>;

    /// Counters of injected faults; `None` unless this is a fault layer.
    fn fault_counters(&self) -> Option<FaultCounters> {
        None
    }

    /// Human-readable model name, for reports.
    fn name(&self) -> &'static str;
}

/// Build the network selected by `cfg` for a machine of `num_pes` processors.
pub fn build_network(cfg: &NetConfig, num_pes: usize) -> Result<Box<dyn Network>, SimError> {
    if num_pes == 0 {
        return Err(SimError::BadConfig {
            reason: "network needs at least one endpoint".into(),
        });
    }
    Ok(match cfg.model {
        NetModelKind::CircularOmega => Box::new(Fabric::new(Omega::new(num_pes), cfg)),
        NetModelKind::Ideal { latency } => Box::new(IdealNetwork::new(num_pes, latency)),
        NetModelKind::FullCrossbar => Box::new(Fabric::new(Crossbar { pes: num_pes }, cfg)),
        NetModelKind::Torus2D => Box::new(Fabric::new(Grid::new(num_pes, true), cfg)),
        NetModelKind::Mesh2D => Box::new(Fabric::new(Grid::new(num_pes, false), cfg)),
        NetModelKind::FatTree { arity } => {
            Box::new(Fabric::new(FatTree::new(num_pes, arity as usize)?, cfg))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_each_model() {
        let mut cfg = NetConfig::default();
        assert_eq!(build_network(&cfg, 16).unwrap().name(), "circular-omega");
        cfg.model = NetModelKind::Ideal { latency: 10 };
        assert_eq!(build_network(&cfg, 16).unwrap().name(), "ideal");
        cfg.model = NetModelKind::FullCrossbar;
        assert_eq!(build_network(&cfg, 16).unwrap().name(), "crossbar");
        cfg.model = NetModelKind::Torus2D;
        assert_eq!(build_network(&cfg, 16).unwrap().name(), "torus-2d");
        cfg.model = NetModelKind::Mesh2D;
        assert_eq!(build_network(&cfg, 16).unwrap().name(), "mesh-2d");
        cfg.model = NetModelKind::FatTree { arity: 4 };
        assert_eq!(build_network(&cfg, 16).unwrap().name(), "fat-tree");
    }

    #[test]
    fn factory_rejects_empty_machine() {
        for model in [
            NetModelKind::CircularOmega,
            NetModelKind::Ideal { latency: 1 },
            NetModelKind::FullCrossbar,
            NetModelKind::Torus2D,
            NetModelKind::Mesh2D,
            NetModelKind::FatTree { arity: 2 },
        ] {
            let cfg = NetConfig {
                model,
                ..NetConfig::default()
            };
            assert!(build_network(&cfg, 0).is_err(), "{model:?}");
        }
    }

    #[test]
    fn default_route_deliveries_matches_route() {
        // Two identical deterministic networks: one driven through route(),
        // one through the defaulted route_deliveries(). Must agree exactly.
        let cfg = NetConfig::default();
        let mut a = build_network(&cfg, 8).unwrap();
        let mut b = build_network(&cfg, 8).unwrap();
        for i in 0..50u64 {
            let now = Cycle::new(i * 3);
            let (src, dst) = (PeId((i % 8) as u16), PeId(((i * 5 + 1) % 8) as u16));
            let t = a.route(now, src, dst);
            let d = b.route_deliveries(now, src, dst, DeliveryClass::Data);
            assert_eq!(d.as_slice(), &[t]);
        }
        assert_eq!(a.fault_counters(), None);
    }

    #[test]
    fn route_probed_emits_injection_with_hop_count() {
        #[derive(Default)]
        struct Rec(Vec<(Cycle, PeId, TraceKind)>);
        impl Probe for Rec {
            fn on(&mut self, at: Cycle, pe: PeId, kind: TraceKind) {
                self.0.push((at, pe, kind));
            }
        }

        let mut net = build_network(&NetConfig::default(), 8).unwrap();
        let mut rec = Rec::default();
        let (src, dst) = (PeId(0), PeId(5));
        let d = net.route_probed(
            Cycle::new(10),
            src,
            dst,
            DeliveryClass::Data,
            PacketKind::ReadReq,
            Some(&mut rec),
        );
        assert_eq!(d.len(), 1);
        let (at, pe, kind) = rec.0[0];
        assert_eq!((at, pe), (Cycle::new(10), src));
        match kind {
            TraceKind::NetInject { pkt, dst: d, hops } => {
                assert_eq!(pkt, PacketKind::ReadReq);
                assert_eq!(d, dst);
                assert_eq!(hops, net.hops(src, dst));
            }
            other => panic!("expected NetInject, got {other:?}"),
        }
        // Probe-less routing matches plain route_deliveries on a twin net.
        let mut twin = build_network(&NetConfig::default(), 8).unwrap();
        let plain = twin.route_deliveries(Cycle::new(10), src, dst, DeliveryClass::Data);
        assert_eq!(d.as_slice(), plain.as_slice());
    }

    #[test]
    fn deliveries_hold_zero_one_or_two_arrivals() {
        assert!(Deliveries::none().is_empty());
        assert_eq!(Deliveries::one(Cycle::new(5)).as_slice(), &[Cycle::new(5)]);
        let two = Deliveries::two(Cycle::new(1), Cycle::new(9));
        assert_eq!(two.len(), 2);
        assert_eq!(two.as_slice(), &[Cycle::new(1), Cycle::new(9)]);
    }
}
