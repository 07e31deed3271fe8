//! Property-based tests of the processor components against reference
//! models.

use emx_core::{Continuation, Cycle, FrameId, GlobalAddr, Packet, PeId, Priority, SlotId};
use emx_proc::{BypassDma, FrameTable, LocalMemory, PacketQueue};
use proptest::prelude::*;
use std::collections::VecDeque;

fn wr(n: u32, prio: Priority) -> Packet {
    Packet::write(PeId(0), GlobalAddr::new(PeId(0), 0).unwrap(), n).with_priority(prio)
}

proptest! {
    /// The two-priority queue behaves exactly like two reference VecDeques:
    /// FIFO within a class, high before low, spill exactly past capacity.
    #[test]
    fn queue_matches_reference_model(
        cap in 1usize..16,
        ops in proptest::collection::vec((any::<bool>(), any::<bool>(), 0u32..1000), 1..200),
    ) {
        let mut q = PacketQueue::new(cap);
        let mut hi: VecDeque<u32> = VecDeque::new();
        let mut lo: VecDeque<u32> = VecDeque::new();
        let mut spills = 0u64;
        for (push, high, val) in ops {
            if push {
                let prio = if high { Priority::High } else { Priority::Low };
                let model = if high { &mut hi } else { &mut lo };
                if model.len() >= cap {
                    spills += 1;
                }
                model.push_back(val);
                q.push(wr(val, prio));
            } else {
                let expect = hi.pop_front().or_else(|| lo.pop_front());
                let got = q.pop().map(|(p, _)| p.data);
                prop_assert_eq!(got, expect);
            }
        }
        prop_assert_eq!(q.len(), hi.len() + lo.len());
        prop_assert_eq!(q.spills, spills);
        // Drain in model order.
        while let Some(expect) = hi.pop_front().or_else(|| lo.pop_front()) {
            prop_assert_eq!(q.pop().map(|(p, _)| p.data), Some(expect));
        }
        prop_assert!(q.is_empty());
    }

    /// The frame slab behaves like a map: allocations are unique, frees
    /// return the payload once, live counts agree.
    #[test]
    fn frame_table_matches_map_model(
        ops in proptest::collection::vec((any::<bool>(), 0u16..32), 1..200),
    ) {
        let mut t: FrameTable<u32> = FrameTable::new(0, 32);
        let mut model: std::collections::HashMap<FrameId, u32> = Default::default();
        let mut counter = 0u32;
        let mut live: Vec<FrameId> = Vec::new();
        for (alloc, pick) in ops {
            if alloc {
                match t.alloc(counter) {
                    Ok(id) => {
                        prop_assert!(model.insert(id, counter).is_none(), "id reused while live");
                        live.push(id);
                        counter += 1;
                    }
                    Err(_) => prop_assert_eq!(model.len(), 32, "premature exhaustion"),
                }
            } else if !live.is_empty() {
                let id = live[pick as usize % live.len()];
                let expect = model.remove(&id);
                prop_assert_eq!(t.free(id), expect);
                live.retain(|&x| x != id);
            }
        }
        prop_assert_eq!(t.live(), model.len());
        for (id, v) in &model {
            prop_assert_eq!(t.get(*id), Some(v));
        }
    }

    /// DMA service times are monotone per unit: the IBU and OBU never go
    /// backwards regardless of request order, and every read returns the
    /// memory content.
    #[test]
    fn dma_times_are_monotone_and_values_correct(
        reqs in proptest::collection::vec((0u32..64, 0u64..200), 1..100),
    ) {
        let mut dma = BypassDma::new(PeId(0), 4, 1);
        let mut mem = LocalMemory::new(0, 64);
        for off in 0..64u32 {
            mem.write(off, off * 3 + 1).unwrap();
        }
        let cont = Continuation::new(PeId(1), FrameId(0), SlotId(0)).unwrap();
        let mut last_depart = Cycle::ZERO;
        let mut now = Cycle::ZERO;
        let mut out = Vec::new();
        for (off, dt) in reqs {
            now += dt;
            let req = Packet::read_req(PeId(1), GlobalAddr::new(PeId(0), off).unwrap(), cont);
            out.clear();
            dma.service(now, &req, &mut mem, &mut out).unwrap();
            prop_assert_eq!(out.len(), 1);
            let (depart, resp) = out[0];
            prop_assert_eq!(resp.data, off * 3 + 1);
            prop_assert!(depart > now, "response departs after arrival");
            prop_assert!(depart >= last_depart, "OBU order preserved");
            last_depart = depart;
        }
    }

    /// Block reads return every word in order with strictly increasing
    /// departures, for any block length.
    #[test]
    fn dma_block_reads_stream_in_order(len in 1u16..64, start in 0u32..32) {
        let mut dma = BypassDma::new(PeId(0), 4, 1);
        let mut mem = LocalMemory::new(0, 128);
        for off in 0..128u32 {
            mem.write(off, off ^ 0xAAAA).unwrap();
        }
        let cont = Continuation::new(PeId(1), FrameId(1), SlotId(0)).unwrap();
        let req = Packet::read_block_req(
            PeId(1),
            GlobalAddr::new(PeId(0), start).unwrap(),
            cont,
            len,
        )
        .unwrap();
        let mut out = Vec::new();
        dma.service(Cycle::ZERO, &req, &mut mem, &mut out).unwrap();
        prop_assert_eq!(out.len(), len as usize);
        let mut last = Cycle::ZERO;
        for (i, (t, p)) in out.iter().enumerate() {
            prop_assert_eq!(p.data, (start + i as u32) ^ 0xAAAA);
            prop_assert!(*t > last);
            last = *t;
        }
    }

    /// Local memory slice operations agree with word-at-a-time access.
    #[test]
    fn memory_slices_agree_with_words(
        base in 0u32..64,
        vals in proptest::collection::vec(any::<u32>(), 1..64),
    ) {
        let mut m = LocalMemory::new(0, 128);
        m.write_slice(base, &vals).unwrap();
        for (i, v) in vals.iter().enumerate() {
            prop_assert_eq!(m.read(base + i as u32).unwrap(), *v);
        }
        prop_assert_eq!(m.read_slice(base, vals.len()).unwrap(), &vals[..]);
    }
}
