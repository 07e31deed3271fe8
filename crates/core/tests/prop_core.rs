//! Property-based tests of the core types: packings, wire encodings, time
//! arithmetic, and event-queue ordering.

use emx_core::addr::{MAX_FRAMES, MAX_OFFSET, MAX_PES};
use emx_core::{
    Continuation, Cycle, FrameId, GlobalAddr, Packet, PeId, Priority, SlotId, WirePacket,
};
use proptest::prelude::*;

fn arb_gaddr() -> impl Strategy<Value = GlobalAddr> {
    (0..MAX_PES as u16, 0..=MAX_OFFSET)
        .prop_map(|(pe, off)| GlobalAddr::new(PeId(pe), off).unwrap())
}

fn arb_cont() -> impl Strategy<Value = Continuation> {
    (0..MAX_PES as u16, 0..MAX_FRAMES as u16, any::<u8>())
        .prop_map(|(pe, f, s)| Continuation::new(PeId(pe), FrameId(f), SlotId(s)).unwrap())
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    prop_oneof![
        (arb_gaddr(), arb_cont(), 0..MAX_PES as u16).prop_map(|(g, c, src)| Packet::read_req(
            PeId(src),
            g,
            c
        )),
        (arb_gaddr(), arb_cont(), 1u16..=4096, 0..MAX_PES as u16)
            .prop_map(|(g, c, n, src)| Packet::read_block_req(PeId(src), g, c, n).unwrap()),
        (arb_cont(), any::<u32>(), 0..MAX_PES as u16).prop_map(|(c, v, src)| Packet::read_resp(
            PeId(src),
            c,
            v
        )),
        (arb_gaddr(), any::<u32>(), 0..MAX_PES as u16).prop_map(|(g, v, src)| Packet::write(
            PeId(src),
            g,
            v
        )),
        (arb_gaddr(), any::<u32>(), 0..MAX_PES as u16).prop_map(|(g, a, src)| Packet::spawn(
            PeId(src),
            g,
            a
        )),
    ]
}

proptest! {
    /// Global addresses and continuations pack into one word and back
    /// without loss, for the whole representable range.
    #[test]
    fn addr_packings_roundtrip(g in arb_gaddr(), c in arb_cont()) {
        prop_assert_eq!(GlobalAddr::unpack(g.pack()), g);
        prop_assert_eq!(Continuation::unpack(c.pack()), c);
    }

    /// Distinct addresses pack to distinct words (injectivity).
    #[test]
    fn addr_packing_is_injective(a in arb_gaddr(), b in arb_gaddr()) {
        prop_assert_eq!(a.pack() == b.pack(), a == b);
    }

    /// Every constructible packet survives the wire encoding, including a
    /// byte-level serialize/deserialize pass, and routes to the same
    /// destination afterwards.
    #[test]
    fn packets_roundtrip_on_the_wire(p in arb_packet(), prio in any::<bool>()) {
        let p = p.with_priority(if prio { Priority::High } else { Priority::Low });
        let wire = p.to_wire();
        let wire2 = WirePacket::from_bytes(&wire.to_bytes()).unwrap();
        prop_assert_eq!(wire2, wire);
        let back = Packet::from_wire(wire2, p.src).unwrap();
        prop_assert_eq!(back, p);
        prop_assert_eq!(back.dst(), p.dst());
    }

    /// Cycle arithmetic: addition is associative/commutative over samples,
    /// subtraction saturates, min/max are consistent.
    #[test]
    fn cycle_arithmetic_laws(a in any::<u32>(), b in any::<u32>(), c in any::<u32>()) {
        let (ca, cb, cc) = (Cycle::new(a.into()), Cycle::new(b.into()), Cycle::new(c.into()));
        prop_assert_eq!(ca + cb, cb + ca);
        prop_assert_eq!((ca + cb) + cc, ca + (cb + cc));
        prop_assert_eq!(ca - cb, Cycle::new(u64::from(a).saturating_sub(u64::from(b))));
        prop_assert_eq!(ca.max(cb).get(), u64::from(a.max(b)));
        prop_assert_eq!(ca.min(cb).get(), u64::from(a.min(b)));
    }

    /// offset_by walks memory without crossing processors.
    #[test]
    fn offset_by_preserves_pe(g in arb_gaddr(), d in 0u32..1024) {
        if let Ok(g2) = g.offset_by(d) {
            prop_assert_eq!(g2.pe, g.pe);
            prop_assert_eq!(g2.offset, g.offset + d);
        } else {
            prop_assert!(g.offset.checked_add(d).map(|o| o > MAX_OFFSET).unwrap_or(true));
        }
    }
}
