//! The Input Buffer Unit's two-priority packet queue.
//!
//! "It has two levels of priority packet buffers for flexible thread
//! scheduling. Each buffer is an on-chip FIFO, which can hold up to 8
//! packets. If the buffer becomes full, the packets are stored to on-memory
//! buffer, and if not, they are automatically restored back to on-chip FIFO."
//! (paper §2.2)
//!
//! The queue preserves FIFO order within each priority; a spilled packet
//! remembers it went through memory so the dispatcher can charge the spill
//! penalty when it is restored.

use std::collections::VecDeque;

use emx_core::{Codec, Cycle, Packet, PeId, Priority, Probe, SimError, TraceKind};

/// Where a pushed packet landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pushed {
    /// Into the on-chip FIFO.
    OnChip,
    /// Into the on-memory overflow buffer (charge the spill penalty when it
    /// is dispatched).
    Spilled,
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    pkt: Packet,
    spilled: bool,
    seq: u64,
}

/// Two-priority FIFO with bounded on-chip capacity and unbounded memory
/// spill.
#[derive(Debug, Clone)]
pub struct PacketQueue {
    high: VecDeque<Slot>,
    low: VecDeque<Slot>,
    on_chip_capacity: usize,
    /// Lifetime spill count across both priorities.
    pub spills: u64,
    /// High-water mark of total queued packets.
    pub max_depth: usize,
    /// Spills from the high-priority FIFO.
    pub high_spills: u64,
    /// Spills from the low-priority FIFO.
    pub low_spills: u64,
    /// Spills forced by fault injection despite on-chip room.
    pub forced_spills: u64,
    /// High-water mark of the high-priority FIFO.
    pub max_high_depth: usize,
    /// High-water mark of the low-priority FIFO.
    pub max_low_depth: usize,
    /// Pops observed out of enqueue order within a priority class. The
    /// VecDeque implementation keeps this at zero by construction; the
    /// invariant checker asserts it, guarding future refactors.
    pub fifo_violations: u64,
    next_seq: u64,
    last_popped: [u64; 2],
}

impl PacketQueue {
    /// A queue whose on-chip FIFOs hold `on_chip_capacity` packets each.
    pub fn new(on_chip_capacity: usize) -> Self {
        PacketQueue {
            high: VecDeque::with_capacity(on_chip_capacity),
            low: VecDeque::with_capacity(on_chip_capacity),
            on_chip_capacity,
            spills: 0,
            max_depth: 0,
            high_spills: 0,
            low_spills: 0,
            forced_spills: 0,
            max_high_depth: 0,
            max_low_depth: 0,
            fifo_violations: 0,
            next_seq: 0,
            last_popped: [0; 2],
        }
    }

    fn enqueue(&mut self, pkt: Packet, forced: bool) -> Pushed {
        let prio = pkt.priority;
        let seq = self.next_seq;
        self.next_seq += 1;
        let q = match prio {
            Priority::High => &mut self.high,
            Priority::Low => &mut self.low,
        };
        let spilled = forced || q.len() >= self.on_chip_capacity;
        q.push_back(Slot { pkt, spilled, seq });
        emx_hostprof::bump(emx_hostprof::Sim::QueuePushes);
        if spilled {
            emx_hostprof::bump(emx_hostprof::Sim::QueueSpills);
            self.spills += 1;
            match prio {
                Priority::High => self.high_spills += 1,
                Priority::Low => self.low_spills += 1,
            }
        }
        self.max_high_depth = self.max_high_depth.max(self.high.len());
        self.max_low_depth = self.max_low_depth.max(self.low.len());
        self.max_depth = self.max_depth.max(self.len());
        if spilled {
            Pushed::Spilled
        } else {
            Pushed::OnChip
        }
    }

    /// Enqueue a packet into its priority class.
    pub fn push(&mut self, pkt: Packet) -> Pushed {
        self.enqueue(pkt, false)
    }

    /// Enqueue a packet forced to the on-memory buffer even if the on-chip
    /// FIFO has room (fault injection). FIFO order is unaffected.
    pub fn push_spilled(&mut self, pkt: Packet) -> Pushed {
        self.forced_spills += 1;
        self.enqueue(pkt, true)
    }

    /// [`push`](Self::push) with an observability probe: emits one
    /// [`TraceKind::Enqueue`] event carrying the FIFO class, whether the
    /// packet spilled to the on-memory buffer, and the queue depth after
    /// the push. `forced` routes through
    /// [`push_spilled`](Self::push_spilled) instead.
    pub fn push_probed(
        &mut self,
        pkt: Packet,
        forced: bool,
        at: Cycle,
        pe: PeId,
        probe: Option<&mut dyn Probe>,
    ) -> Pushed {
        let priority = pkt.priority;
        let kind = pkt.kind;
        let pushed = if forced {
            self.push_spilled(pkt)
        } else {
            self.push(pkt)
        };
        if let Some(p) = probe {
            p.on(
                at,
                pe,
                TraceKind::Enqueue {
                    pkt: kind,
                    priority,
                    spilled: pushed == Pushed::Spilled,
                    depth: self.len(),
                },
            );
        }
        pushed
    }

    /// [`pop`](Self::pop) with an observability probe: emits one
    /// [`TraceKind::Unspill`] event when the popped packet is restored from
    /// the on-memory overflow buffer (the restore penalty the dispatcher
    /// charges to switching).
    pub fn pop_probed(
        &mut self,
        at: Cycle,
        pe: PeId,
        probe: Option<&mut dyn Probe>,
    ) -> Option<(Packet, bool)> {
        let (pkt, spilled) = self.pop()?;
        if spilled {
            if let Some(p) = probe {
                p.on(
                    at,
                    pe,
                    TraceKind::Unspill {
                        pkt: pkt.kind,
                        priority: pkt.priority,
                    },
                );
            }
        }
        Some((pkt, spilled))
    }

    /// Dequeue the next packet — high priority first, FIFO within a class.
    /// The boolean reports whether the packet had spilled to memory.
    pub fn pop(&mut self) -> Option<(Packet, bool)> {
        let (slot, class) = match self.high.pop_front() {
            Some(s) => (s, 0),
            None => (self.low.pop_front()?, 1),
        };
        emx_hostprof::bump(emx_hostprof::Sim::QueuePops);
        if slot.seq < self.last_popped[class] {
            self.fifo_violations += 1;
        } else {
            self.last_popped[class] = slot.seq;
        }
        Some((slot.pkt, slot.spilled))
    }

    /// Pass the queue's state through `c`: each class's packets in FIFO
    /// order as (packet, spilled, sequence number), then the counters and
    /// cursors. The on-chip capacity is configuration, not state.
    pub fn snap(&mut self, c: &mut dyn Codec) -> Result<(), SimError> {
        for class in [&mut self.high, &mut self.low] {
            c.vec(class, |slot: &mut Slot, c| {
                slot.pkt.snap(c)?;
                c.bool(&mut slot.spilled)?;
                c.u64(&mut slot.seq)
            })?;
        }
        c.u64(&mut self.spills)?;
        c.usize(&mut self.max_depth)?;
        c.u64(&mut self.high_spills)?;
        c.u64(&mut self.low_spills)?;
        c.u64(&mut self.forced_spills)?;
        c.usize(&mut self.max_high_depth)?;
        c.usize(&mut self.max_low_depth)?;
        c.u64(&mut self.fifo_violations)?;
        c.u64(&mut self.next_seq)?;
        let [high, low] = &mut self.last_popped;
        c.u64(high)?;
        c.u64(low)
    }

    /// Packets currently queued across both classes.
    pub fn len(&self) -> usize {
        self.high.len() + self.low.len()
    }

    /// Whether both classes are empty.
    pub fn is_empty(&self) -> bool {
        self.high.is_empty() && self.low.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emx_core::{Continuation, FrameId, GlobalAddr, PeId, SlotId};

    fn pkt(n: u32, prio: Priority) -> Packet {
        Packet::read_resp(
            PeId(0),
            Continuation::new(PeId(0), FrameId(0), SlotId(0)).unwrap(),
            n,
        )
        .with_priority(prio)
    }

    fn wr(n: u32) -> Packet {
        Packet::write(PeId(0), GlobalAddr::new(PeId(0), 0).unwrap(), n)
    }

    #[test]
    fn fifo_within_priority() {
        let mut q = PacketQueue::new(8);
        for i in 0..5 {
            q.push(wr(i));
        }
        for i in 0..5 {
            assert_eq!(q.pop().unwrap().0.data, i);
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn high_priority_preempts_low() {
        let mut q = PacketQueue::new(8);
        q.push(pkt(1, Priority::Low));
        q.push(pkt(2, Priority::High));
        q.push(pkt(3, Priority::Low));
        q.push(pkt(4, Priority::High));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(p, _)| p.data)).collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
    }

    #[test]
    fn ninth_packet_spills() {
        let mut q = PacketQueue::new(8);
        for i in 0..8 {
            assert_eq!(q.push(wr(i)), Pushed::OnChip);
        }
        assert_eq!(q.push(wr(8)), Pushed::Spilled);
        assert_eq!(q.spills, 1);
        // FIFO order survives the spill, and the spilled flag is reported on
        // pop.
        let mut seen_spill = false;
        for i in 0..9 {
            let (p, spilled) = q.pop().unwrap();
            assert_eq!(p.data, i);
            seen_spill |= spilled;
            assert_eq!(spilled, i == 8);
        }
        assert!(seen_spill);
    }

    #[test]
    fn priorities_spill_independently() {
        let mut q = PacketQueue::new(2);
        q.push(pkt(0, Priority::High));
        q.push(pkt(1, Priority::High));
        assert_eq!(q.push(pkt(2, Priority::High)), Pushed::Spilled);
        // Low FIFO still has room.
        assert_eq!(q.push(pkt(3, Priority::Low)), Pushed::OnChip);
    }

    #[test]
    fn forced_spill_ignores_on_chip_room() {
        let mut q = PacketQueue::new(8);
        assert_eq!(q.push_spilled(wr(0)), Pushed::Spilled);
        assert_eq!(q.spills, 1);
        assert_eq!(q.forced_spills, 1);
        assert_eq!(q.low_spills, 1);
        let (p, spilled) = q.pop().unwrap();
        assert_eq!(p.data, 0);
        assert!(spilled, "forced spill must charge the restore penalty");
    }

    #[test]
    fn spills_and_depths_are_tracked_per_priority() {
        let mut q = PacketQueue::new(2);
        for i in 0..3 {
            q.push(pkt(i, Priority::High));
        }
        q.push(pkt(9, Priority::Low));
        assert_eq!(q.high_spills, 1);
        assert_eq!(q.low_spills, 0);
        assert_eq!(q.max_high_depth, 3);
        assert_eq!(q.max_low_depth, 1);
        assert_eq!(q.max_depth, 4);
        assert_eq!(q.forced_spills, 0);
    }

    #[test]
    fn fifo_violations_stay_zero_under_mixed_traffic() {
        let mut q = PacketQueue::new(2);
        for i in 0..20 {
            if i % 3 == 0 {
                q.push(pkt(i, Priority::High));
            } else {
                q.push(pkt(i, Priority::Low));
            }
            if i % 4 == 3 {
                q.pop();
            }
        }
        while q.pop().is_some() {}
        assert_eq!(q.fifo_violations, 0);
    }

    #[test]
    fn probed_push_and_pop_emit_queue_events() {
        use emx_core::{TraceEvent, TraceKind};

        #[derive(Default)]
        struct Rec(Vec<TraceEvent>);
        impl Probe for Rec {
            fn on(&mut self, at: Cycle, pe: PeId, kind: TraceKind) {
                self.0.push(TraceEvent { at, pe, kind });
            }
        }

        let mut q = PacketQueue::new(1);
        let mut rec = Rec::default();
        q.push_probed(wr(0), false, Cycle::new(5), PeId(2), Some(&mut rec));
        q.push_probed(wr(1), false, Cycle::new(6), PeId(2), Some(&mut rec));
        assert_eq!(rec.0.len(), 2);
        assert!(matches!(
            rec.0[0].kind,
            TraceKind::Enqueue {
                spilled: false,
                depth: 1,
                ..
            }
        ));
        assert!(matches!(
            rec.0[1].kind,
            TraceKind::Enqueue {
                spilled: true,
                depth: 2,
                ..
            }
        ));
        // Only the spilled pop reports an unspill.
        q.pop_probed(Cycle::new(7), PeId(2), Some(&mut rec));
        assert_eq!(rec.0.len(), 2);
        q.pop_probed(Cycle::new(8), PeId(2), Some(&mut rec));
        assert!(matches!(rec.0[2].kind, TraceKind::Unspill { .. }));
        // Probe-less calls behave exactly like the plain API.
        let mut q2 = PacketQueue::new(1);
        assert_eq!(q2.push_probed(wr(0), true, Cycle::ZERO, PeId(0), None), {
            Pushed::Spilled
        });
        assert_eq!(q2.forced_spills, 1);
    }

    #[test]
    fn max_depth_tracks_high_water() {
        let mut q = PacketQueue::new(8);
        q.push(wr(0));
        q.push(wr(1));
        q.pop();
        q.push(wr(2));
        assert_eq!(q.max_depth, 2);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }
}
