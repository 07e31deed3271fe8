//! # emx-faults
//!
//! Deterministic, seeded fault injection for the EM-X simulator.
//!
//! The paper's machine assumes a lossless, non-overtaking network (§2.2);
//! this crate makes that assumption a knob. A [`FaultSpec`] (defined in
//! `emx-core` so it can live inside `MachineConfig` and sweep cache keys)
//! describes which faults a run injects; this crate turns the spec into
//! behaviour:
//!
//! * [`FaultPlan`] / [`Rng64`] — seeded SplitMix64 decision streams, one per
//!   fault layer, with no wall-clock or ambient randomness anywhere.
//! * [`FaultyNetwork`] — wraps any [`Network`](emx_net::Network) model and
//!   injects packet drop, duplication and delay at the injection point,
//!   preserving per-pair non-overtaking.
//! * [`InvariantChecker`] / [`FaultReport`] — optional runtime verification
//!   of packet conservation, non-overtaking, and monotonic event time,
//!   surfacing violations as structured errors instead of panics.
//!
//! Two laws anchor the design and are property-tested here:
//! **identity** — a zero-probability plan is byte-identical to no plan at
//! all — and **determinism** — equal seeds replay equal fault sequences.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checker;
pub mod kill;
mod network;
mod rng;

pub use checker::{FaultReport, InvariantChecker};
pub use network::FaultyNetwork;
pub use rng::{FaultPlan, Rng64};

pub use emx_core::faults::PPM_SCALE;
pub use emx_core::FaultSpec;

use std::collections::HashMap;

use emx_core::{Codec, Cycle, PeId, SimError};

/// Pass `len` entries of a per-pair cycle table through `c` as
/// (src, dst, cycle) triples sorted by pair, so the image does not depend
/// on `HashMap` order.
fn snap_pairs(
    c: &mut dyn Codec,
    len: usize,
    table: &mut HashMap<(PeId, PeId), Cycle>,
) -> Result<(), SimError> {
    let mut triples: Vec<(PeId, PeId, Cycle)> = table
        .iter()
        .map(|(&(src, dst), &at)| (src, dst, at))
        .collect();
    triples.sort_unstable();
    c.items(len, &mut triples, |(src, dst, at), c| {
        c.u16(&mut src.0)?;
        c.u16(&mut dst.0)?;
        c.cycle(at)
    })?;
    if c.decoding() {
        *table = triples
            .into_iter()
            .map(|(src, dst, at)| ((src, dst), at))
            .collect();
    }
    Ok(())
}

#[cfg(test)]
mod proptests {
    use super::*;
    use emx_core::{Cycle, NetConfig, NetModelKind, PeId};
    use emx_net::{build_network, DeliveryClass, Network};
    use proptest::prelude::*;

    fn drive(net: &mut dyn Network, steps: u64, pes: u16, stride: u64) -> Vec<Vec<Cycle>> {
        (0..steps)
            .map(|i| {
                let now = Cycle::new(i * stride);
                let src = PeId((i % u64::from(pes)) as u16);
                let dst = PeId(((i * 13 + 5) % u64::from(pes)) as u16);
                let class = if i % 4 == 0 {
                    DeliveryClass::Control
                } else {
                    DeliveryClass::Data
                };
                net.route_deliveries(now, src, dst, class)
                    .as_slice()
                    .to_vec()
            })
            .collect()
    }

    proptest! {
        /// Identity law: wrapping any topology with a zero-probability plan
        /// leaves every scheduled arrival byte-identical to the bare model.
        #[test]
        fn zero_probability_plan_is_identity(
            seed in any::<u64>(),
            stride in 1u64..8,
            model_ix in 0usize..4,
        ) {
            let model = [
                NetModelKind::CircularOmega,
                NetModelKind::Ideal { latency: 9 },
                NetModelKind::FullCrossbar,
                NetModelKind::Torus2D,
            ][model_ix];
            let cfg = NetConfig { model, ..NetConfig::default() };
            let mut bare = build_network(&cfg, 16).unwrap();
            let mut faulty = FaultyNetwork::new(
                build_network(&cfg, 16).unwrap(),
                &FaultPlan::new(FaultSpec::new(seed)),
            );
            prop_assert_eq!(
                drive(bare.as_mut(), 120, 16, stride),
                drive(&mut faulty, 120, 16, stride)
            );
        }

        /// Determinism: equal specs replay the exact same fault sequence;
        /// and whatever the probabilities, non-overtaking survives.
        #[test]
        fn faults_are_deterministic_and_non_overtaking(
            seed in any::<u64>(),
            drop_ppm in 0u32..500_000,
            dup_ppm in 0u32..300_000,
            delay_ppm in 0u32..500_000,
        ) {
            let mut spec = FaultSpec::new(seed);
            spec.drop_ppm = drop_ppm;
            spec.dup_ppm = dup_ppm;
            spec.delay_ppm = delay_ppm;
            spec.max_delay = 64;
            spec.validate().unwrap();
            let cfg = NetConfig::default();
            let make = || FaultyNetwork::new(
                build_network(&cfg, 8).unwrap(),
                &FaultPlan::new(spec.clone()),
            );
            let (mut a, mut b) = (make(), make());
            let run_a = drive(&mut a, 150, 8, 2);
            prop_assert_eq!(&run_a, &drive(&mut b, 150, 8, 2));
            prop_assert_eq!(a.fault_counters(), b.fault_counters());

            let mut last: std::collections::HashMap<(u16, u16), Cycle> =
                std::collections::HashMap::new();
            for (i, arrivals) in run_a.iter().enumerate() {
                let i = i as u64;
                let (src, dst) = ((i % 8) as u16, ((i * 13 + 5) % 8) as u16);
                for &t in arrivals {
                    let prev = last.entry((src, dst)).or_insert(Cycle::ZERO);
                    prop_assert!(t >= *prev);
                    *prev = t;
                }
            }
        }
    }
}
