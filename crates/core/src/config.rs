//! Machine configuration and the cycle cost model.
//!
//! Every quantity the paper studies — run length, switch cost, remote-read
//! latency, packet-generation overhead — is a cycle count, so the whole
//! reproduction hangs off [`CostModel`]. Defaults are calibrated to the
//! paper's reported numbers (see each field); everything is adjustable for
//! sensitivity studies.

use crate::addr::MAX_PES;
use crate::error::SimError;
use crate::faults::FaultSpec;
use crate::time::EMX_CLOCK_HZ;

/// How a processor services incoming remote-read requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServiceMode {
    /// EM-X behaviour: the Input Buffer Unit reads memory through the
    /// by-passing DMA and hands the response to the Output Buffer Unit
    /// "without consuming the cycles of \[the\] Execution Unit" (paper §2.2).
    #[default]
    BypassDma,
    /// EM-4 behaviour, kept for ablation: a remote read is treated "as
    /// another 1-instruction thread which consumes processor cycles"
    /// (paper §2.1) — the request joins the packet queue and steals EXU time.
    ExuThread,
}

impl ServiceMode {
    /// Stable word for the sweep journal and `.emxfuzz` cases: `bypass`
    /// or `exu`.
    pub fn name(self) -> &'static str {
        match self {
            ServiceMode::BypassDma => "bypass",
            ServiceMode::ExuThread => "exu",
        }
    }

    /// Parse a word (inverse of [`ServiceMode::name`]).
    pub fn parse(s: &str) -> Option<ServiceMode> {
        match s {
            "bypass" => Some(ServiceMode::BypassDma),
            "exu" => Some(ServiceMode::ExuThread),
            _ => None,
        }
    }
}

/// Which network model routes packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetModelKind {
    /// The EM-X circular Omega network: `log2(P)` stages of 2x2 switches,
    /// virtual cut-through (a packet reaches a processor k hops away in k+1
    /// cycles), per-port contention, message non-overtaking.
    #[default]
    CircularOmega,
    /// A contention-free network with a fixed one-way latency, for isolating
    /// topology effects in ablations.
    Ideal {
        /// One-way latency in cycles.
        latency: u32,
    },
    /// A full crossbar: single hop, but each destination port still
    /// serializes packets — isolates endpoint contention from path contention.
    FullCrossbar,
    /// A 2D torus with dimension-order routing and per-link contention, for
    /// cross-topology ablations against the Omega fabric.
    Torus2D,
    /// A 2D mesh with XY dimension-order routing and per-link contention —
    /// the torus without wraparound links, so edge nodes pay the full
    /// Manhattan distance. XY routing is deterministic and orders every
    /// path X-then-Y, which makes the channel dependency graph acyclic
    /// (deadlock freedom) and preserves message non-overtaking.
    Mesh2D,
    /// A k-ary fat-tree: processors at the leaves, switches above, and
    /// link bundles that widen by a factor of `arity` per level toward the
    /// root, so the bisection does not thin out the way a plain tree's
    /// does. Routing climbs to the lowest common ancestor and descends.
    FatTree {
        /// Children per switch (k >= 2). Level-l edges carry k^l
        /// sub-links.
        arity: u32,
    },
}

impl NetModelKind {
    /// Stable one-word spelling for the sweep journal, `.emxfuzz` cases and
    /// `--net`: `omega`, `ideal:L`, `crossbar`, `torus`, `mesh` or
    /// `fattree:K`.
    pub fn name(self) -> String {
        match self {
            NetModelKind::CircularOmega => "omega".into(),
            NetModelKind::Ideal { latency } => format!("ideal:{latency}"),
            NetModelKind::FullCrossbar => "crossbar".into(),
            NetModelKind::Torus2D => "torus".into(),
            NetModelKind::Mesh2D => "mesh".into(),
            NetModelKind::FatTree { arity } => format!("fattree:{arity}"),
        }
    }

    /// Parse a word (inverse of [`NetModelKind::name`]). Strict: `ideal`
    /// and `fattree` need their `u32` parameter, and the others take none.
    pub fn parse(s: &str) -> Option<NetModelKind> {
        Some(match s.split_once(':') {
            None if s == "omega" => NetModelKind::CircularOmega,
            None if s == "crossbar" => NetModelKind::FullCrossbar,
            None if s == "torus" => NetModelKind::Torus2D,
            None if s == "mesh" => NetModelKind::Mesh2D,
            Some(("ideal", latency)) => NetModelKind::Ideal {
                latency: latency.parse().ok()?,
            },
            Some(("fattree", arity)) => NetModelKind::FatTree {
                arity: arity.parse().ok()?,
            },
            _ => return None,
        })
    }
}

/// Network timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Topology / contention model.
    pub model: NetModelKind,
    /// Cycles a switch output port is occupied per packet. "Each port can
    /// transfer a packet ... at every second cycle" (paper §2.2): 2.
    pub port_service: u32,
    /// Cycles for the packet head to advance one hop under cut-through: 1,
    /// which yields the paper's k+1 cycles for k hops.
    pub hop_cycles: u32,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            model: NetModelKind::CircularOmega,
            port_service: 2,
            hop_cycles: 1,
        }
    }
}

/// The cycle cost of every primitive the simulator charges for.
///
/// Calibration targets from the paper: a remote read round trip of 20–40
/// cycles (1–2 µs at 20 MHz, §2.3/§4); a sort read-loop run length of 12
/// cycles (§4); context switching "spending several clocks" (§3.1); and the
/// rule of thumb that 2–4 threads mask the latency, which requires
/// `(h-1)·(R+S) ≥ L` to first hold around h−1 ∈ {2,3} for R = 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Cycles to switch threads: save live registers to the activation frame
    /// plus Matching Unit direct-matching dispatch of the next packet.
    /// Default 4 ("several clocks", and R+S = 16 places the masking
    /// crossover at 2–4 threads for L = 20–40).
    pub context_switch: u32,
    /// Cycles for one EXU send instruction; "packet generation is also
    /// performed by this unit, which takes one clock" (§2.2). Default 1.
    pub send_packet: u32,
    /// Cycles the by-passing DMA needs to service one remote read at the
    /// target IBU/MCU. Default 4.
    pub dma_service: u32,
    /// Extra cycles per packet when the 8-deep on-chip IBU FIFO overflows
    /// and packets spill to the on-memory buffer (§2.2). Default 4.
    pub ibu_spill: u32,
    /// Cycles the OBU needs to forward one packet to the network. Default 1.
    pub obu_forward: u32,
    /// Cycles for a floating-point divide, the one FP instruction that is
    /// not single-cycle (§2.2). Default 8.
    pub fdiv: u32,
    /// Cycles for the memory-exchange instruction, the one integer
    /// instruction that is not single-cycle (§2.2). Default 2.
    pub mem_exchange: u32,
    /// Minimum cycles between re-polls of an unsatisfied barrier by a waiting
    /// thread; models the iteration-synchronization check loop whose switch
    /// count Figure 9 studies. Default 64, calibrated so the iteration-sync
    /// census sits below the remote-read census at h = 1 and overtakes it
    /// between h = 8 and 16 — the paper's crossover.
    pub barrier_poll_interval: u32,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            context_switch: 4,
            send_packet: 1,
            dma_service: 4,
            ibu_spill: 4,
            obu_forward: 1,
            fdiv: 8,
            mem_exchange: 2,
            barrier_poll_interval: 64,
        }
    }
}

/// A named calibration of the cycle cost model and network timing.
///
/// The paper's EM-X runs its network at processor speed: a hop costs one
/// 20 MHz cycle and a switch port turns a packet around every second
/// cycle. Modern machines sit at the opposite latency/bandwidth ratio —
/// cores run an order of magnitude faster than a network traversal, while
/// per-link bandwidth has grown even faster than latency has shrunk. The
/// `Modern` preset shifts the simulator to that regime so the latency-
/// masking story can be asked about today's machines: hops are several
/// core cycles, but ports accept a packet every cycle and thread switches
/// are cheaper relative to the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostPreset {
    /// The paper-calibrated EM-X defaults (every struct `Default`).
    #[default]
    Paper,
    /// Modern latency/bandwidth ratio: hop latency 8 cycles (a network
    /// traversal costs many core cycles), port service 1 cycle (wide
    /// links — bandwidth outgrew latency), DMA service 2 and context
    /// switch 2 (fast cores shrink the fixed overheads relative to the
    /// wire).
    Modern,
}

impl CostPreset {
    /// Stable lowercase name, used in CLI flags and provenance sidecars.
    pub fn name(self) -> &'static str {
        match self {
            CostPreset::Paper => "paper",
            CostPreset::Modern => "modern",
        }
    }

    /// Parse a CLI word (inverse of [`CostPreset::name`]).
    pub fn parse(s: &str) -> Option<CostPreset> {
        match s {
            "paper" | "emx" => Some(CostPreset::Paper),
            "modern" => Some(CostPreset::Modern),
            _ => None,
        }
    }

    /// Apply the preset's timing to `cfg`, leaving the topology model and
    /// every non-timing field untouched.
    pub fn apply(self, cfg: &mut MachineConfig) {
        match self {
            CostPreset::Paper => {}
            CostPreset::Modern => {
                cfg.net.hop_cycles = 8;
                cfg.net.port_service = 1;
                cfg.costs.dma_service = 2;
                cfg.costs.context_switch = 2;
            }
        }
    }
}

/// Full machine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of processing elements. The prototype has 80; the paper's
    /// experiments use 16 and 64.
    pub num_pes: usize,
    /// Processor clock in Hz; 20 MHz on the EMC-Y.
    pub clock_hz: u64,
    /// Local memory per processor, in 32-bit words. 4 MB = 2^20 words.
    pub local_memory_words: usize,
    /// Capacity of each on-chip IBU priority FIFO, in packets. Default 8.
    pub ibu_fifo_capacity: usize,
    /// Activation frames available per processor.
    pub frames_per_pe: usize,
    /// Remote-read servicing mode (EM-X by-pass vs EM-4 EXU-thread).
    pub service_mode: ServiceMode,
    /// Place read responses in the high-priority IBU FIFO so suspended
    /// threads resume ahead of new invocations. Off by default (the paper's
    /// machine treated everything uniformly; its conclusion names thread
    /// scheduling fine-tuning as the next goal — the scheduler ablation
    /// bench measures this knob).
    pub priority_read_responses: bool,
    /// Cycle cost model.
    pub costs: CostModel,
    /// Network model and timing.
    pub net: NetConfig,
    /// Deterministic fault-injection plan; `None` (the default) is the
    /// paper's lossless machine with no fault machinery armed at all.
    pub faults: Option<FaultSpec>,
}

impl Default for MachineConfig {
    /// The 80-processor EM-X prototype.
    fn default() -> Self {
        MachineConfig {
            num_pes: 80,
            clock_hz: EMX_CLOCK_HZ,
            local_memory_words: 1 << 20,
            ibu_fifo_capacity: 8,
            frames_per_pe: 4096,
            service_mode: ServiceMode::BypassDma,
            priority_read_responses: false,
            costs: CostModel::default(),
            net: NetConfig::default(),
            faults: None,
        }
    }
}

impl MachineConfig {
    /// A machine with `num_pes` processors and paper-default parameters.
    pub fn with_pes(num_pes: usize) -> Self {
        MachineConfig {
            num_pes,
            ..Self::default()
        }
    }

    /// The 16-processor configuration used in Figures 6–9 (a,c panels).
    pub fn paper_p16() -> Self {
        Self::with_pes(16)
    }

    /// The 64-processor configuration used in Figures 6–9 (b,d panels).
    pub fn paper_p64() -> Self {
        Self::with_pes(64)
    }

    /// Validate the configuration; returns the reason it cannot be built.
    pub fn validate(&self) -> Result<(), SimError> {
        let fail = |reason: String| Err(SimError::BadConfig { reason });
        if self.num_pes == 0 {
            return fail("machine needs at least one processor".into());
        }
        if self.num_pes > MAX_PES {
            return fail(format!(
                "{} processors exceed the {MAX_PES} addressable by a packed global address",
                self.num_pes
            ));
        }
        if self.local_memory_words == 0 {
            return fail("local memory must be non-empty".into());
        }
        if self.local_memory_words > (1usize << crate::addr::OFFSET_BITS) {
            return fail(format!(
                "{} words exceed the packed offset range",
                self.local_memory_words
            ));
        }
        if self.clock_hz == 0 {
            return fail("clock must be positive".into());
        }
        if self.ibu_fifo_capacity == 0 {
            return fail("the IBU FIFO needs capacity of at least one packet".into());
        }
        if self.costs.obu_forward == 0 {
            // Canonical network-arrival keys name a packet by its sender's
            // OBU depart cycle, which must strictly increase per sender.
            return fail("OBU forwarding must take at least one cycle".into());
        }
        if self.frames_per_pe == 0 || self.frames_per_pe > crate::addr::MAX_FRAMES {
            return fail(format!(
                "frames_per_pe must be in 1..={}",
                crate::addr::MAX_FRAMES
            ));
        }
        if self.net.port_service == 0 {
            return fail("network port service time must be at least one cycle".into());
        }
        if let NetModelKind::FatTree { arity } = self.net.model {
            if arity < 2 {
                return fail(format!("fat-tree arity must be at least 2, got {arity}"));
            }
        }
        if let Some(faults) = &self.faults {
            faults.validate()?;
        }
        Ok(())
    }

    /// Seconds represented by `cycles` at this machine's clock.
    #[inline]
    pub fn cycles_to_secs(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_hz as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_80_pe_prototype() {
        let c = MachineConfig::default();
        assert_eq!(c.num_pes, 80);
        assert_eq!(c.clock_hz, 20_000_000);
        assert_eq!(c.local_memory_words, 1 << 20); // 4 MB of 32-bit words
        assert_eq!(c.ibu_fifo_capacity, 8);
        c.validate().unwrap();
    }

    #[test]
    fn paper_configs_validate() {
        MachineConfig::paper_p16().validate().unwrap();
        MachineConfig::paper_p64().validate().unwrap();
    }

    #[test]
    fn default_costs_put_masking_crossover_at_2_to_4_threads() {
        // The paper's argument (§4): with run length R = 12 and latency
        // L = 20..40, "each remote read needs two to four threads to mask off
        // the latency". Check (h-1)(R+S) >= L first holds at h in 2..=4.
        let costs = CostModel::default();
        let r = 12u32;
        let s = costs.context_switch;
        for l in [20u32, 40] {
            let h_needed = 1 + l.div_ceil(r + s);
            assert!(
                (2..=4).contains(&h_needed),
                "latency {l} masked at h={h_needed}, outside the paper's 2..4"
            );
        }
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let c = MachineConfig {
            num_pes: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = MachineConfig {
            num_pes: MAX_PES + 1,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = MachineConfig {
            local_memory_words: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = MachineConfig {
            ibu_fifo_capacity: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = MachineConfig {
            frames_per_pe: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let mut c = MachineConfig::default();
        c.net.port_service = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn non_power_of_two_pe_count_is_allowed() {
        // The real prototype has 80 PEs on a (padded) circular Omega network.
        MachineConfig::with_pes(80).validate().unwrap();
    }

    #[test]
    fn cycles_to_secs_uses_configured_clock() {
        let c = MachineConfig::default();
        assert!((c.cycles_to_secs(20_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn service_mode_default_is_bypass_dma() {
        assert_eq!(ServiceMode::default(), ServiceMode::BypassDma);
    }

    #[test]
    fn fat_tree_arity_is_validated() {
        let mut c = MachineConfig::paper_p16();
        c.net.model = NetModelKind::FatTree { arity: 4 };
        c.validate().unwrap();
        c.net.model = NetModelKind::FatTree { arity: 1 };
        assert!(c.validate().is_err());
    }

    #[test]
    fn modern_preset_shifts_the_latency_bandwidth_ratio() {
        let mut paper = MachineConfig::paper_p16();
        CostPreset::Paper.apply(&mut paper);
        assert_eq!(
            paper,
            MachineConfig::paper_p16(),
            "paper preset is identity"
        );

        let mut modern = MachineConfig::paper_p16();
        CostPreset::Modern.apply(&mut modern);
        // Latency up (hop cycles), bandwidth up (port service down), fixed
        // processor overheads down relative to the wire.
        assert!(modern.net.hop_cycles > paper.net.hop_cycles);
        assert!(modern.net.port_service < paper.net.port_service);
        assert!(modern.costs.context_switch < paper.costs.context_switch);
        assert_eq!(modern.net.model, paper.net.model, "topology untouched");
        modern.validate().unwrap();
    }

    #[test]
    fn preset_names_round_trip() {
        for p in [CostPreset::Paper, CostPreset::Modern] {
            assert_eq!(CostPreset::parse(p.name()), Some(p));
        }
        assert_eq!(CostPreset::parse("quantum"), None);
        assert_eq!(CostPreset::default(), CostPreset::Paper);
    }

    #[test]
    fn net_and_service_names_round_trip() {
        for net in [
            NetModelKind::CircularOmega,
            NetModelKind::Ideal { latency: u32::MAX },
            NetModelKind::FullCrossbar,
            NetModelKind::Torus2D,
            NetModelKind::Mesh2D,
            NetModelKind::FatTree { arity: 4 },
        ] {
            assert_eq!(NetModelKind::parse(&net.name()), Some(net), "{net:?}");
        }
        assert_eq!(NetModelKind::FatTree { arity: 2 }.name(), "fattree:2");
        // The CLI's shortcuts and anything that does not fit stay out.
        for word in [
            "ideal",
            "fattree",
            "fat-tree:4",
            "ideal:4294967296",
            "mesh:3",
        ] {
            assert_eq!(NetModelKind::parse(word), None, "{word}");
        }
        for mode in [ServiceMode::BypassDma, ServiceMode::ExuThread] {
            assert_eq!(ServiceMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(ServiceMode::ExuThread.name(), "exu");
    }
}
