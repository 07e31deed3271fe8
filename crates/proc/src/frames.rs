//! The activation-frame table.
//!
//! "Invoking a function involves allocating an operand segment as an
//! activation frame. ... Activation frames (threads) form a tree rather than
//! a stack, reflecting a dynamic calling structure. This tree of activation
//! frames allows threads to spawn one to many threads on processors
//! including itself. The level of thread activation/suspension is limited
//! only by the amount of system memory." (paper §2.3)
//!
//! [`FrameTable`] is a slab allocator over frame payloads `T` (the runtime
//! stores its per-thread state there), bounded by
//! [`frames_per_pe`](emx_core::MachineConfig::frames_per_pe) and by the
//! 14-bit frame field of the packed continuation. Like the paper's frames it
//! costs what the run uses, not what the configuration allows: the table
//! holds only the slots it has handed out, so a machine with thousands of
//! frames per processor and a kernel that keeps four of them live pays for
//! four.

use emx_core::{Codec, FrameId, SimError};

/// Slab of activation frames with O(1) allocate/free.
///
/// Slots are handed out lowest index first (for readable traces) and a
/// freed slot is the next one reused, exactly as a stack of every free
/// index, `[capacity - 1, ..., 1, 0]` topped by the freed ones, would hand
/// them out; the never-used indices above the handed-out slots stay
/// implicit.
#[derive(Debug)]
pub struct FrameTable<T> {
    /// The slots handed out so far, live or freed.
    slots: Vec<Option<T>>,
    /// Freed slots; the last is reused first.
    free: Vec<u16>,
    capacity: usize,
    pe: usize,
    live: usize,
    /// High-water mark of simultaneously live frames.
    pub max_live: usize,
}

impl<T> FrameTable<T> {
    /// A table of `capacity` frames for processor `pe`.
    pub fn new(pe: usize, capacity: usize) -> Self {
        assert!(
            capacity <= emx_core::addr::MAX_FRAMES,
            "frame table exceeds packed continuation range"
        );
        FrameTable {
            slots: Vec::new(),
            free: Vec::new(),
            capacity,
            pe,
            live: 0,
            max_live: 0,
        }
    }

    /// Allocate a frame holding `payload`: the most recently freed slot,
    /// else the lowest never-used one, else [`SimError::OutOfFrames`].
    pub fn alloc(&mut self, payload: T) -> Result<FrameId, SimError> {
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None if self.slots.len() < self.capacity => {
                self.slots.push(None);
                (self.slots.len() - 1) as u16
            }
            None => return Err(SimError::OutOfFrames { pe: self.pe }),
        };
        let slot = &mut self.slots[usize::from(idx)];
        debug_assert!(slot.is_none());
        *slot = Some(payload);
        self.live += 1;
        self.max_live = self.max_live.max(self.live);
        Ok(FrameId(idx))
    }

    /// Borrow a live frame.
    pub fn get(&self, id: FrameId) -> Option<&T> {
        self.slots.get(id.index())?.as_ref()
    }

    /// Mutably borrow a live frame.
    pub fn get_mut(&mut self, id: FrameId) -> Option<&mut T> {
        self.slots.get_mut(id.index())?.as_mut()
    }

    /// Free a frame, returning its payload (thread completion reclaims the
    /// operand segment).
    pub fn free(&mut self, id: FrameId) -> Option<T> {
        let slot = self.slots.get_mut(id.index())?;
        let payload = slot.take()?;
        self.free.push(id.0);
        self.live -= 1;
        Some(payload)
    }

    /// Number of live frames.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Whether no frames are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pass the table through `c`: the live frames as (index, payload)
    /// in index order, each payload through `each`, then the free list in
    /// allocation order (it decides which index the next
    /// [`alloc`](Self::alloc) hands out) and the high-water mark. The free
    /// list names every free index: the never-used ones, highest first,
    /// under the freed ones. Decoding fills the table anew from blank
    /// `T::default()` payloads and folds the list's bottom run of
    /// never-used indices back into the implicit range; a live index out
    /// of range or taken twice, a free index that is out of range, live or
    /// listed twice, or lists that do not add up to the capacity is a
    /// [`SimError::FrameOutOfRange`].
    pub fn snap(
        &mut self,
        c: &mut dyn Codec,
        mut each: impl FnMut(&mut T, &mut dyn Codec) -> Result<(), SimError>,
    ) -> Result<(), SimError>
    where
        T: Default,
    {
        let mut live = self.live;
        c.usize(&mut live)?;
        if c.decoding() {
            self.slots.clear();
            self.live = 0;
            for _ in 0..live {
                let mut idx = 0;
                c.u16(&mut idx)?;
                let mut payload = T::default();
                each(&mut payload, c)?;
                let frame = usize::from(idx);
                if frame < self.capacity && frame >= self.slots.len() {
                    self.slots.resize_with(frame + 1, || None);
                }
                let vacant = self.slots.get_mut(frame).filter(|s| s.is_none());
                let Some(slot) = vacant else {
                    return Err(SimError::FrameOutOfRange { frame });
                };
                *slot = Some(payload);
                self.live += 1;
            }
        } else {
            for (idx, slot) in self.slots.iter_mut().enumerate() {
                if let Some(payload) = slot {
                    c.u16(&mut (idx as u16))?;
                    each(payload, c)?;
                }
            }
        }
        let mut free = Vec::new();
        if !c.decoding() {
            let never_used = (self.slots.len()..self.capacity).rev().map(|i| i as u16);
            free.extend(never_used.chain(self.free.iter().copied()));
        }
        c.vec(&mut free, |idx, c| c.u16(idx))?;
        c.usize(&mut self.max_live)?;
        if c.decoding() {
            self.adopt_free_list(free)?;
        }
        Ok(())
    }

    /// Check a decoded free list against the decoded live frames, then keep
    /// its freed part and fold its bottom run of never-used indices
    /// (`capacity - 1`, `capacity - 2`, ...) back into the implicit range.
    fn adopt_free_list(&mut self, mut free: Vec<u16>) -> Result<(), SimError> {
        let mut listed: Vec<bool> = (0..self.capacity)
            .map(|i| self.slots.get(i).is_some_and(Option::is_some))
            .collect();
        for &idx in &free {
            let frame = usize::from(idx);
            match listed.get_mut(frame) {
                Some(seen @ false) => *seen = true,
                _ => return Err(SimError::FrameOutOfRange { frame }),
            }
        }
        if self.live + free.len() != self.capacity {
            return Err(SimError::FrameOutOfRange {
                frame: self.live + free.len(),
            });
        }
        let top = (0..self.capacity).rev().map(|i| i as u16);
        let never_used = free.iter().zip(top).take_while(|&(&f, i)| f == i).count();
        self.slots.resize_with(self.capacity - never_used, || None);
        free.drain(..never_used);
        self.free = free;
        Ok(())
    }

    /// Iterate over live frames (for deadlock diagnostics).
    pub fn iter_live(&self) -> impl Iterator<Item = (FrameId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|t| (FrameId(i as u16), t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emx_core::Tape;
    use proptest::prelude::*;

    /// The eager table the on-demand one replaced, kept as its reference
    /// model: every slot allocated up front and a stack of every free
    /// index. Its allocation, free and snapshot paths are as they were.
    #[derive(Debug)]
    struct EagerFrameTable<T> {
        slots: Vec<Option<T>>,
        free: Vec<u16>,
        pe: usize,
        live: usize,
        max_live: usize,
    }

    impl<T> EagerFrameTable<T> {
        fn new(pe: usize, capacity: usize) -> Self {
            assert!(
                capacity <= emx_core::addr::MAX_FRAMES,
                "frame table exceeds packed continuation range"
            );
            EagerFrameTable {
                slots: Vec::new(),
                free: Vec::new(),
                pe,
                live: 0,
                max_live: 0,
            }
            .with_capacity(capacity)
        }

        fn with_capacity(mut self, capacity: usize) -> Self {
            self.slots = (0..capacity).map(|_| None).collect();
            // Allocate low indices first for readable traces.
            self.free = (0..capacity as u16).rev().collect();
            self
        }

        fn alloc(&mut self, payload: T) -> Result<FrameId, SimError> {
            let idx = self
                .free
                .pop()
                .ok_or(SimError::OutOfFrames { pe: self.pe })?;
            debug_assert!(self.slots[idx as usize].is_none());
            self.slots[idx as usize] = Some(payload);
            self.live += 1;
            self.max_live = self.max_live.max(self.live);
            Ok(FrameId(idx))
        }

        fn free(&mut self, id: FrameId) -> Option<T> {
            let slot = self.slots.get_mut(id.index())?;
            let payload = slot.take()?;
            self.free.push(id.0);
            self.live -= 1;
            Some(payload)
        }

        fn snap(
            &mut self,
            c: &mut dyn Codec,
            mut each: impl FnMut(&mut T, &mut dyn Codec) -> Result<(), SimError>,
        ) -> Result<(), SimError>
        where
            T: Default,
        {
            let mut live = self.live;
            c.usize(&mut live)?;
            if c.decoding() {
                self.slots.fill_with(|| None);
                self.live = 0;
                for _ in 0..live {
                    let mut idx = 0;
                    c.u16(&mut idx)?;
                    let mut payload = T::default();
                    each(&mut payload, c)?;
                    let vacant = self.slots.get_mut(usize::from(idx)).filter(|s| s.is_none());
                    let Some(slot) = vacant else {
                        return Err(SimError::FrameOutOfRange {
                            frame: usize::from(idx),
                        });
                    };
                    *slot = Some(payload);
                    self.live += 1;
                }
            } else {
                for (idx, slot) in self.slots.iter_mut().enumerate() {
                    if let Some(payload) = slot {
                        c.u16(&mut (idx as u16))?;
                        each(payload, c)?;
                    }
                }
            }
            c.vec(&mut self.free, |idx, c| c.u16(idx))?;
            c.usize(&mut self.max_live)?;
            let listed = self.live + self.free.len();
            let taken = |idx: &&u16| {
                self.slots
                    .get(usize::from(**idx))
                    .is_none_or(Option::is_some)
            };
            let frame = match self.free.iter().find(taken) {
                Some(&idx) => usize::from(idx),
                None if listed != self.slots.len() => listed,
                None => return Ok(()),
            };
            Err(SimError::FrameOutOfRange { frame })
        }
    }

    fn payload(v: &mut u32, c: &mut dyn Codec) -> Result<(), SimError> {
        c.u32(v)
    }

    /// `tokens`, a table's snapshot stream, with one fault each: an index
    /// out of range, an index taken twice, and lists one short of the
    /// capacity. The stream is the live count, (index, payload) per live
    /// frame, the free-list length, the free list and the high-water mark.
    fn corruptions(tokens: &[u64], cap: usize) -> Vec<Vec<u64>> {
        let live = tokens[0] as usize;
        let free_len = 1 + 2 * live;
        let first_free = free_len + 1;
        let has_free = tokens[free_len] > 0;
        let mut bad = Vec::new();
        let mut edit = |at: usize, value: u64| {
            let mut t = tokens.to_vec();
            t[at] = value;
            bad.push(t);
        };
        if has_free {
            edit(first_free, cap as u64);
        }
        if live > 0 {
            edit(1, cap as u64);
        }
        if live > 1 {
            edit(3, tokens[1]);
        }
        if live > 0 && has_free {
            edit(first_free, tokens[1]);
        }
        let mut short = tokens.to_vec();
        if has_free {
            short.remove(first_free);
            short[free_len] -= 1;
        } else {
            short.drain(free_len - 2..free_len);
            short[0] -= 1;
        }
        bad.push(short);
        bad
    }

    proptest! {
        /// The on-demand table hands out the same frames as the eager
        /// stack, runs out at the same point, keeps the same high-water
        /// mark and writes the same snapshot tokens. Each decodes the
        /// eager table's stream, the on-demand one re-encodes it unchanged,
        /// and both reject the same corruptions of it.
        #[test]
        fn on_demand_table_matches_the_eager_stack(
            cap in 1usize..65,
            ops in proptest::collection::vec((0u8..8, any::<u16>()), 1..400),
        ) {
            let mut lazy: FrameTable<u32> = FrameTable::new(0, cap);
            let mut eager: EagerFrameTable<u32> = EagerFrameTable::new(0, cap);
            let mut live: Vec<FrameId> = Vec::new();
            for (n, (op, pick)) in ops.into_iter().enumerate() {
                match op {
                    0..=3 => {
                        let id = lazy.alloc(n as u32);
                        prop_assert_eq!(&id, &eager.alloc(n as u32));
                        live.extend(id.ok());
                    }
                    4..=6 => {
                        // Mostly a live frame; now and then any index,
                        // free, never used or out of range.
                        let id = match live.len() {
                            k if k > 0 && pick % 4 != 0 => live[usize::from(pick) % k],
                            _ => FrameId(pick % (cap as u16 + 2)),
                        };
                        live.retain(|&x| x != id);
                        prop_assert_eq!(lazy.free(id), eager.free(id));
                    }
                    _ => {
                        let tokens = Tape::encode(|c| eager.snap(c, payload)).unwrap();
                        prop_assert_eq!(&Tape::encode(|c| lazy.snap(c, payload)).unwrap(), &tokens);
                        let handed_out = lazy.slots.len();
                        lazy = FrameTable::new(0, cap);
                        eager = EagerFrameTable::new(0, cap);
                        prop_assert_eq!(Tape::decode(&tokens, |c| lazy.snap(c, payload)), Ok(()));
                        prop_assert_eq!(Tape::decode(&tokens, |c| eager.snap(c, payload)), Ok(()));
                        prop_assert_eq!(&Tape::encode(|c| lazy.snap(c, payload)).unwrap(), &tokens);
                        // A freed slot whose index continues the run of
                        // never-used ones reads as never used, so a
                        // restore may hold fewer slots, never more.
                        prop_assert!(lazy.slots.len() <= handed_out);
                        for bad in corruptions(&tokens, cap) {
                            let mut l: FrameTable<u32> = FrameTable::new(0, cap);
                            let mut e: EagerFrameTable<u32> = EagerFrameTable::new(0, cap);
                            let (l, e) = (
                                Tape::decode(&bad, |c| l.snap(c, payload)),
                                Tape::decode(&bad, |c| e.snap(c, payload)),
                            );
                            prop_assert!(l.is_err(), "on-demand table accepted {:?}", bad);
                            prop_assert_eq!(l, e, "{:?}", bad);
                        }
                    }
                }
                prop_assert_eq!(lazy.live(), eager.live);
                prop_assert_eq!(lazy.max_live, eager.max_live);
            }
        }
    }

    #[test]
    fn a_free_index_listed_twice_is_rejected() {
        // Capacity 2, nothing live, free list [0, 0]: the lists add up, but
        // slot 1 is lost and slot 0 would be handed out twice. The eager
        // table accepted this stream.
        let tokens = [0, 2, 0, 0, 0];
        let mut t: FrameTable<u32> = FrameTable::new(0, 2);
        let got = Tape::decode(&tokens, |c| t.snap(c, payload));
        assert_eq!(got, Err(SimError::FrameOutOfRange { frame: 0 }));
        let mut e: EagerFrameTable<u32> = EagerFrameTable::new(0, 2);
        assert_eq!(Tape::decode(&tokens, |c| e.snap(c, payload)), Ok(()));
    }

    #[test]
    fn an_idle_table_holds_no_slots() {
        let mut t: FrameTable<u32> = FrameTable::new(0, emx_core::addr::MAX_FRAMES);
        assert_eq!(t.capacity(), emx_core::addr::MAX_FRAMES);
        assert_eq!(t.slots.capacity(), 0);
        let a = t.alloc(1).unwrap();
        t.free(a);
        t.alloc(2).unwrap();
        assert_eq!(t.slots.len(), 1);
    }

    #[test]
    fn alloc_get_free_roundtrip() {
        let mut t: FrameTable<&str> = FrameTable::new(0, 4);
        let a = t.alloc("a").unwrap();
        let b = t.alloc("b").unwrap();
        assert_ne!(a, b);
        assert_eq!(t.get(a), Some(&"a"));
        *t.get_mut(b).unwrap() = "b2";
        assert_eq!(t.free(b), Some("b2"));
        assert_eq!(t.get(b), None);
        assert_eq!(t.live(), 1);
    }

    #[test]
    fn exhaustion_reports_out_of_frames() {
        let mut t: FrameTable<u32> = FrameTable::new(5, 2);
        t.alloc(1).unwrap();
        t.alloc(2).unwrap();
        assert!(matches!(t.alloc(3), Err(SimError::OutOfFrames { pe: 5 })));
    }

    #[test]
    fn freed_frames_are_reused() {
        let mut t: FrameTable<u32> = FrameTable::new(0, 1);
        let a = t.alloc(1).unwrap();
        t.free(a).unwrap();
        let b = t.alloc(2).unwrap();
        assert_eq!(a, b, "single-slot table must recycle the slot");
    }

    #[test]
    fn double_free_is_none() {
        let mut t: FrameTable<u32> = FrameTable::new(0, 2);
        let a = t.alloc(1).unwrap();
        assert!(t.free(a).is_some());
        assert!(t.free(a).is_none());
        assert_eq!(t.live(), 0);
        assert!(t.is_empty());
    }

    #[test]
    fn max_live_high_water() {
        let mut t: FrameTable<u32> = FrameTable::new(0, 8);
        let ids: Vec<_> = (0..5).map(|i| t.alloc(i).unwrap()).collect();
        for id in &ids {
            t.free(*id);
        }
        t.alloc(9).unwrap();
        assert_eq!(t.max_live, 5);
    }

    #[test]
    fn iter_live_lists_only_live() {
        let mut t: FrameTable<u32> = FrameTable::new(0, 4);
        let a = t.alloc(10).unwrap();
        let b = t.alloc(20).unwrap();
        t.free(a);
        let live: Vec<_> = t.iter_live().collect();
        assert_eq!(live, vec![(b, &20)]);
    }
}
