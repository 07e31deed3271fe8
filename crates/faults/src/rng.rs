//! Seeded, wall-clock-free random streams for fault decisions.
//!
//! Fault injection must be exactly reproducible: the same [`FaultSpec`]
//! always injects the same faults at the same points. [`Rng64`] is a
//! SplitMix64 generator — tiny, statistically solid for this use, and fully
//! determined by its seed — and [`FaultPlan`] derives one independent
//! stream per fault layer (network, queue, DMA) from the spec's seed, so
//! adding a decision in one layer never perturbs another layer's stream.

use emx_core::faults::PPM_SCALE;
use emx_core::{Codec, FaultSpec, SimError};

/// SplitMix64 increment (Weyl sequence constant).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A deterministic 64-bit generator (SplitMix64).
///
/// This is the workspace's only SplitMix64: the fault streams and the
/// workload input generators (`emx_workloads::gen`) both draw from it, so
/// a change to its output changes every committed input and digest.
#[derive(Debug, Clone, Default)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng64 {
        Rng64 { state: seed }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Bernoulli draw with probability `ppm` parts-per-million.
    ///
    /// `ppm == 0` consumes **no** state, so disabled faults leave the
    /// stream untouched — the identity law (a zero-probability plan behaves
    /// byte-identically to no plan) depends on this.
    pub fn chance_ppm(&mut self, ppm: u32) -> bool {
        if ppm == 0 {
            return false;
        }
        (self.next_u64() % u64::from(PPM_SCALE)) < u64::from(ppm)
    }

    /// Uniform draw in `0..n` (`n > 0`). The modulo bias is negligible for
    /// the small ranges fault delays use.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// Pass the cursor through `c`: SplitMix64 is fully determined by this
    /// one word, so a snapshot resumes the stream mid-flight.
    pub fn snap(&mut self, c: &mut dyn Codec) -> Result<(), SimError> {
        c.u64(&mut self.state)
    }
}

/// One mixing round, used to derive independent per-layer seeds.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(GAMMA);
    z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z = (z ^ (z >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    z ^ (z >> 33)
}

/// The seeded decision streams derived from one [`FaultSpec`].
///
/// Each fault layer draws from its own stream: the network wrapper from
/// [`net_rng`](FaultPlan::net_rng), forced queue spills from
/// [`spill_rng`](FaultPlan::spill_rng), DMA stalls from
/// [`dma_rng`](FaultPlan::dma_rng). Streams are independent functions of
/// the spec seed, so the set of, say, DMA stalls a seed produces does not
/// change when packet loss is turned on.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    spec: FaultSpec,
}

impl FaultPlan {
    /// The plan for `spec`.
    pub fn new(spec: FaultSpec) -> FaultPlan {
        FaultPlan { spec }
    }

    /// The spec the plan was built from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// The network-layer stream (drop/duplicate/delay decisions).
    pub fn net_rng(&self) -> Rng64 {
        Rng64::new(mix(self.spec.seed, 0x004E_4554)) // "NET"
    }

    /// The queue-layer stream (forced spill decisions).
    pub fn spill_rng(&self) -> Rng64 {
        Rng64::new(mix(self.spec.seed, 0x0053_504C)) // "SPL"
    }

    /// The DMA-layer stream (stall decisions).
    pub fn dma_rng(&self) -> Rng64 {
        Rng64::new(mix(self.spec.seed, 0x0044_4D41)) // "DMA"
    }

    /// The forced-spill stream of one processor.
    ///
    /// Per-PE streams (rather than one machine-global stream consumed in
    /// event order) make each processor's fault decisions a function of the
    /// seed and that processor alone, never of how other processors'
    /// events interleave with its own.
    pub fn spill_rng_for(&self, pe: usize) -> Rng64 {
        Rng64::new(mix(mix(self.spec.seed, 0x0053_504C), pe as u64 + 1))
    }

    /// The DMA-stall stream of one processor; see
    /// [`spill_rng_for`](FaultPlan::spill_rng_for) for why streams are
    /// per-PE.
    pub fn dma_rng_for(&self, pe: usize) -> Rng64 {
        Rng64::new(mix(mix(self.spec.seed, 0x0044_4D41), pe as u64 + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn zero_ppm_consumes_no_state() {
        let mut a = Rng64::new(9);
        let mut b = Rng64::new(9);
        assert!(!a.chance_ppm(0));
        // b drew nothing either; the streams must still agree.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn chance_ppm_tracks_probability() {
        let mut rng = Rng64::new(7);
        let trials = 100_000;
        let hits = (0..trials).filter(|_| rng.chance_ppm(250_000)).count();
        let rate = hits as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate} far from 0.25");
    }

    #[test]
    fn plan_streams_are_independent() {
        let plan = FaultPlan::new(FaultSpec::new(5));
        let n = plan.net_rng().next_u64();
        let s = plan.spill_rng().next_u64();
        let d = plan.dma_rng().next_u64();
        assert_ne!(n, s);
        assert_ne!(s, d);
        assert_ne!(n, d);
        // And reproducible.
        assert_eq!(plan.net_rng().next_u64(), n);
    }

    #[test]
    fn per_pe_streams_are_independent_and_reproducible() {
        let plan = FaultPlan::new(FaultSpec::new(5));
        let a0 = plan.spill_rng_for(0).next_u64();
        let a1 = plan.spill_rng_for(1).next_u64();
        assert_ne!(a0, a1, "distinct PEs must draw distinct streams");
        assert_eq!(plan.spill_rng_for(0).next_u64(), a0);
        assert_ne!(
            plan.spill_rng_for(3).next_u64(),
            plan.dma_rng_for(3).next_u64(),
            "layers stay independent per PE"
        );
    }

    #[test]
    fn below_is_in_range() {
        let mut rng = Rng64::new(3);
        for _ in 0..1000 {
            assert!(rng.below(13) < 13);
        }
    }
}
