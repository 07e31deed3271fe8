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
//! 14-bit frame field of the packed continuation.

use emx_core::{Codec, FrameId, SimError};

/// Slab of activation frames with O(1) allocate/free.
#[derive(Debug)]
pub struct FrameTable<T> {
    slots: Vec<Option<T>>,
    free: Vec<u16>,
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

    /// Allocate a frame holding `payload`.
    pub fn alloc(&mut self, payload: T) -> Result<FrameId, SimError> {
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
        self.slots.len()
    }

    /// Pass the table through `c`: the live frames as (index, payload)
    /// in index order, each payload through `each`, then the free list in
    /// allocation order (it decides which index the next
    /// [`alloc`](Self::alloc) hands out) and the high-water mark.
    /// Decoding fills the table anew from blank `T::default()` payloads; a
    /// live index out of range or taken twice, a free index that is not a
    /// vacant slot, or lists that do not add up to the capacity is a
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
