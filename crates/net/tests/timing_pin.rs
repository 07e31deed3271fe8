//! Pins the exact timing of every network model.
//!
//! Each model configuration routes a seeded packet stream (local sends
//! included) on odd, power-of-two and padded machine sizes under three
//! (hop, service) timings: the paper's (1, 2), the modern preset's (8, 1)
//! and (3, 5). One FNV-1a digest per model folds in every arrival cycle,
//! every `hops()` value, and the model state `snap` encodes — the final
//! `NetStats` and the port timeline — and the arrivals of a second stream
//! routed after that state is decoded back. Any change to a route, a
//! tie-break, a hop count or the snapshot word layout moves the digest.

use emx_core::{Cycle, NetConfig, NetModelKind, PeId, Tape};
use emx_net::{build_network, Network};

const SIZES: [usize; 10] = [1, 2, 3, 7, 9, 16, 17, 64, 80, 100];
const TIMINGS: [(u32, u32); 3] = [(1, 2), (8, 1), (3, 5)];
const PACKETS: usize = 3000;

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold in an encoded model state: statistics, the word count and the
    /// words. The trailing flag says whether a wrapped model's state
    /// follows; a bare model has none.
    fn snapshot(&mut self, tokens: &[u64]) {
        let (&wrapped, state) = tokens.split_last().expect("a model state");
        assert_eq!(wrapped, 0, "a bare model has no wrapped state");
        for &w in state {
            self.word(w);
        }
    }
}

/// splitmix64: a small, seedable stream independent of any crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Route `count` packets starting at `now`, folding arrivals and hops into
/// `h`; returns the last injection time. Injections advance 0–3 cycles so
/// ports contend; one packet in eight is a local send.
fn stream(
    net: &mut dyn Network,
    rng: &mut Rng,
    h: &mut Fnv,
    pes: usize,
    mut now: Cycle,
    count: usize,
) -> Cycle {
    for _ in 0..count {
        now += rng.below(4);
        let src = PeId(rng.below(pes as u64) as u16);
        let dst = if rng.below(8) == 0 {
            src
        } else {
            PeId(rng.below(pes as u64) as u16)
        };
        let arrival = net.route(now, src, dst);
        h.word(arrival.get());
        h.word(u64::from(net.hops(src, dst)));
    }
    now
}

fn model_digest(model: NetModelKind) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for pes in SIZES {
        for (hop_cycles, port_service) in TIMINGS {
            let cfg = NetConfig {
                model,
                port_service,
                hop_cycles,
            };
            let mut net = build_network(&cfg, pes).unwrap();
            let mut rng = Rng((pes as u64) << 16 | u64::from(hop_cycles) << 8);
            let now = stream(net.as_mut(), &mut rng, &mut h, pes, Cycle::ZERO, PACKETS);
            let saved = Tape::encode(|c| net.snap(c)).unwrap();
            h.snapshot(&saved);

            // Route on, then restore and replay the same tail: the restored
            // model must reproduce it exactly.
            let tail_seed = rng.next();
            let mut first = Fnv(0);
            stream(
                net.as_mut(),
                &mut Rng(tail_seed),
                &mut first,
                pes,
                now,
                PACKETS / 2,
            );
            Tape::decode(&saved, |c| net.snap(c)).unwrap();
            let mut again = Fnv(0);
            stream(
                net.as_mut(),
                &mut Rng(tail_seed),
                &mut again,
                pes,
                now,
                PACKETS / 2,
            );
            assert_eq!(
                first.0, again.0,
                "{model:?} P={pes}: restore changed the tail"
            );
            h.word(again.0);
            h.snapshot(&Tape::encode(|c| net.snap(c)).unwrap());
            for b in net.name().bytes() {
                h.word(u64::from(b));
            }
        }
    }
    h.0
}

#[test]
fn every_model_keeps_its_pinned_timing() {
    let pinned: [(NetModelKind, u64); 8] = [
        (NetModelKind::CircularOmega, 0x79aa_b441_bfaa_7788),
        (NetModelKind::Ideal { latency: 5 }, 0xc77d_7825_c750_31e3),
        (NetModelKind::FullCrossbar, 0xd510_b2d9_8c8d_0ef5),
        (NetModelKind::Torus2D, 0x6bec_01f9_9f9d_886e),
        (NetModelKind::Mesh2D, 0xb33f_5fa2_e07e_b0da),
        (NetModelKind::FatTree { arity: 2 }, 0x816e_e83b_d0eb_ab3e),
        (NetModelKind::FatTree { arity: 3 }, 0xc04e_defb_21ca_72be),
        (NetModelKind::FatTree { arity: 4 }, 0xb902_d057_b976_7e96),
    ];
    let drifted: Vec<String> = pinned
        .iter()
        .filter_map(|&(model, want)| {
            let got = model_digest(model);
            (got != want).then(|| format!("{}: {got:#018x} (pinned {want:#018x})", model.name()))
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "timing drifted:\n{}",
        drifted.join("\n")
    );
}
