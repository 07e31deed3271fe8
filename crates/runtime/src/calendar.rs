//! The event calendar and its canonical event key.
//!
//! [`EvKey`] orders events by a *canonical* total order computed from the
//! event's own identity — time, home processor, lane, and
//! per-(processor, lane) sequence counters that advance only while the
//! home processor's events execute — rather than by insertion sequence.
//! An event's key therefore does not depend on when it was pushed
//! relative to other processors' events, which is what lets a snapshot
//! restore re-insert pending events in any order.
//!
//! Keys are globally unique (the lane counters and the strictly monotone
//! OBU depart times guarantee it; `MachineConfig::validate` rejects an
//! instantaneous OBU, which would break the latter), so the key order is
//! total and a pop sequence is a pure function of the pushed set.
//!
//! [`Calendar`] is a bucketed wheel. `now` is the time of the last pop,
//! and each cycle of the window `[now, now + SLOTS)` has one slot, kept
//! sorted by key, largest first, so that a pop is a `Vec::pop`. A bitmap
//! of the non-empty slots finds the next occupied cycle. Keys at or
//! beyond the window wait in an overflow heap and move into their slots
//! as `now` advances. A move is not a push, so `calendar.pushes` still
//! counts each event once.
//!
//! A push at `now` may carry a key below the one just popped: a network
//! arrival (lane 3) schedules its processor's dispatch (lane 0) in the
//! same cycle. Sorted insertion puts that key at the end of the current
//! slot, so it pops next, as the key order requires.
//!
//! `SLOTS` is 256 because the machine schedules almost all of its work a
//! few tens of cycles ahead: a remote read takes 20–40 cycles and a sort
//! read-loop about 12. On `sort-p64`, 99% of pushes land at most 268
//! cycles ahead, and only 6,943 of 2.21M more than 1,024. A 1,024-slot
//! wheel ran no faster, and since each slot keeps the capacity of its
//! busiest cycle, it added about 1.5 MiB of peak RSS where 256 slots add
//! about 0.6 MiB.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use emx_core::{Cycle, PeId, SimError};

/// Lane of EXU dispatch events.
pub(crate) const LANE_DISPATCH: u8 = 0;
/// Lane of local (non-network) packet arrivals.
pub(crate) const LANE_LOCAL: u8 = 1;
/// Lane of retry-protocol timer events.
pub(crate) const LANE_RETRY: u8 = 2;
/// Lane of network packet arrivals.
pub(crate) const LANE_NET: u8 = 3;

/// Canonical identity and ordering of one scheduled event.
///
/// Ordering is lexicographic over the fields in declaration order: time,
/// then home processor, then lane, then the lane-specific discriminants.
/// Lanes separate the event sources on one processor at one cycle:
///
/// * lane 0 — dispatch events, `a` = the PE's dispatch push counter;
/// * lane 1 — local (non-network) arrivals, `a` = the PE's local counter;
/// * lane 2 — retry timers, `a` = the PE's retry counter;
/// * lane 3 — network arrivals, `a` = source PE, `b` = `2 * depart + dup`
///   (the sender's OBU depart cycle is strictly monotone per source, so the
///   pair is unique; `dup` distinguishes a duplicated delivery's copies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub(crate) struct EvKey {
    /// Simulation time of the event.
    pub at: Cycle,
    /// Processor the event executes on.
    pub pe: u16,
    /// Event source lane; see the type docs.
    pub lane: u8,
    /// First lane discriminant.
    pub a: u64,
    /// Second lane discriminant.
    pub b: u64,
}

impl EvKey {
    /// The canonical key of a network arrival at `dst`, sent by `src` at
    /// OBU depart cycle `depart`; `dup` distinguishes the copies of a
    /// fault-duplicated delivery (0 for the first, 1 for the second).
    pub(crate) fn net(at: Cycle, dst: PeId, src: PeId, depart: Cycle, dup: u64) -> EvKey {
        EvKey {
            at,
            pe: dst.0,
            lane: LANE_NET,
            a: u64::from(src.0),
            b: depart.get() * 2 + dup,
        }
    }
}

/// One scheduled entry: key plus payload. Ordered by key alone.
#[derive(Debug, Clone)]
struct Entry<T> {
    key: EvKey,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we pop the smallest key first.
        other.key.cmp(&self.key)
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Cycles the wheel spans: slot `at % SLOTS` holds the entries of cycle
/// `at` for every `at` in `[now, now + SLOTS)`. See the module docs for
/// why it has this value.
const SLOTS: usize = 256;
/// Words of the occupancy bitmap, one bit per slot.
const WORDS: usize = SLOTS / 64;

/// A deterministic event calendar ordered by [`EvKey`]: a bucketed wheel
/// of one slot per cycle, plus an overflow heap for keys beyond it.
///
/// Pops never go backwards in time, and scheduling strictly before the
/// last popped time is reported as [`SimError::EventInPast`].
#[derive(Debug, Clone)]
pub(crate) struct Calendar<T> {
    /// One slot per cycle of the window, each sorted by key, largest
    /// first, so the slot's next entry is its last.
    slots: Box<[Vec<Entry<T>>; SLOTS]>,
    /// Bit `i % 64` of word `i / 64` is set iff `slots[i]` is non-empty.
    occupied: [u64; WORDS],
    /// Entries at or beyond `now + SLOTS`, smallest key on top. They move
    /// into the wheel as `now` advances.
    overflow: BinaryHeap<Entry<T>>,
    now: Cycle,
}

// `push`, `push_uncounted` and `pop` are the event loop's hottest calls and
// carry `#[inline]`: without the hint, whether they inline into the loop
// depends on how the crate's codegen units happen to be partitioned, and an
// unrelated edit elsewhere in the crate once moved `sort-p64` by ~5%.
impl<T> Calendar<T> {
    /// An empty calendar at time zero.
    pub fn new() -> Self {
        Self::empty_at(Cycle::ZERO)
    }

    fn empty_at(now: Cycle) -> Self {
        Calendar {
            slots: Box::new(std::array::from_fn(|_| Vec::new())),
            occupied: [0; WORDS],
            overflow: BinaryHeap::new(),
            now,
        }
    }

    /// Schedule `payload` under `key`.
    #[inline]
    pub fn push(&mut self, key: EvKey, payload: T) -> Result<(), SimError> {
        self.push_uncounted(key, payload)?;
        emx_hostprof::bump(emx_hostprof::Sim::CalPushes);
        Ok(())
    }

    /// [`Calendar::push`] without the hostprof counter — for re-inserting
    /// events that were already counted when first scheduled (snapshot
    /// restore), so `calendar.pushes` counts each event once.
    #[inline]
    pub fn push_uncounted(&mut self, key: EvKey, payload: T) -> Result<(), SimError> {
        if key.at < self.now {
            return Err(SimError::EventInPast {
                at: key.at.get(),
                now: self.now.get(),
            });
        }
        let e = Entry { key, payload };
        if self.in_window(key.at) {
            self.insert(e);
        } else {
            self.overflow.push(e);
        }
        Ok(())
    }

    /// Remove and return the smallest-keyed event, advancing the clock.
    /// Counts the pop and classifies the event by lane when host
    /// profiling is enabled.
    #[inline]
    pub fn pop(&mut self) -> Option<(EvKey, T)> {
        let i = match self.next_slot() {
            Some(i) => i,
            None => {
                // The wheel is empty: jump to the overflow's first cycle.
                let at = self.overflow.peek()?.key.at;
                self.advance(at);
                self.next_slot()
                    .expect("the overflow's first entry moved into the wheel")
            }
        };
        let slot = &mut self.slots[i];
        let e = slot.pop().expect("an occupied slot holds an entry");
        if slot.is_empty() {
            self.occupied[i / 64] &= !(1 << (i % 64));
        }
        debug_assert!(e.key.at >= self.now, "calendar time went backwards");
        if e.key.at > self.now {
            self.advance(e.key.at);
        }
        emx_hostprof::count_lane(e.key.lane);
        Some((e.key, e.payload))
    }

    /// Key of the next event, if any.
    pub fn peek_key(&self) -> Option<EvKey> {
        match self.next_slot() {
            Some(i) => self.slots[i].last().map(|e| e.key),
            None => self.overflow.peek().map(|e| e.key),
        }
    }

    /// The time of the most recently popped event.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// A sorted, non-consuming copy of every pending entry — the canonical
    /// pop order a snapshot records.
    pub fn entries_sorted(&self) -> Vec<(EvKey, T)>
    where
        T: Clone,
    {
        let mut v: Vec<(EvKey, T)> = self
            .slots
            .iter()
            .flatten()
            .chain(self.overflow.iter())
            .map(|e| (e.key, e.payload.clone()))
            .collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    /// Rebuild a calendar mid-run: clock at `now`, `entries` pending.
    pub fn restore(now: Cycle, entries: Vec<(EvKey, T)>) -> Result<Calendar<T>, SimError> {
        let mut cal = Calendar::empty_at(now);
        for (key, payload) in entries {
            cal.push_uncounted(key, payload)?;
        }
        Ok(cal)
    }

    /// Whether cycle `at`, which is not before `now`, has a slot.
    #[inline]
    fn in_window(&self, at: Cycle) -> bool {
        at.get() - self.now.get() < SLOTS as u64
    }

    /// Put `e`, which is in the window, into its cycle's slot in key order.
    #[inline]
    fn insert(&mut self, e: Entry<T>) {
        let i = e.key.at.get() as usize % SLOTS;
        let slot = &mut self.slots[i];
        let pos = slot.partition_point(|x| x.key > e.key);
        slot.insert(pos, e);
        self.occupied[i / 64] |= 1 << (i % 64);
    }

    /// Move the clock to `at` and the overflow entries the window now
    /// reaches into their slots.
    fn advance(&mut self, at: Cycle) {
        self.now = at;
        while let Some(top) = self.overflow.peek() {
            if !self.in_window(top.key.at) {
                break;
            }
            let e = self.overflow.pop().expect("peeked above");
            self.insert(e);
        }
    }

    /// Index of the slot holding the earliest cycle with entries: the
    /// first set bit at or after `now`'s slot, wrapping once around.
    #[inline]
    fn next_slot(&self) -> Option<usize> {
        let start = self.now.get() as usize % SLOTS;
        let w0 = start / 64;
        let first = self.occupied[w0] & (!0 << (start % 64));
        if first != 0 {
            return Some(w0 * 64 + first.trailing_zeros() as usize);
        }
        // The last word visited is `w0` again, whose bits at or after
        // `start` are clear: what is left are the window's last cycles.
        (1..=WORDS).find_map(|k| {
            let w = (w0 + k) % WORDS;
            let bits = self.occupied[w];
            (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
        })
    }
}

impl<T> Default for Calendar<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    fn key(at: u64, pe: u16, lane: u8, a: u64, b: u64) -> EvKey {
        EvKey {
            at: Cycle::new(at),
            pe,
            lane,
            a,
            b,
        }
    }

    #[test]
    fn pops_in_canonical_key_order() {
        let mut c = Calendar::new();
        // Same cycle, shuffled push order: must come out sorted by
        // (pe, lane, a, b), not by insertion.
        c.push(key(5, 1, 3, 0, 9), "pe1-net").unwrap();
        c.push(key(5, 0, 1, 2, 0), "pe0-local-2").unwrap();
        c.push(key(5, 0, 0, 7, 0), "pe0-dispatch").unwrap();
        c.push(key(5, 0, 1, 1, 0), "pe0-local-1").unwrap();
        c.push(key(3, 9, 3, 4, 4), "earlier").unwrap();
        let order: Vec<&str> = std::iter::from_fn(|| c.pop().map(|(_, v)| v)).collect();
        assert_eq!(
            order,
            vec![
                "earlier",
                "pe0-dispatch",
                "pe0-local-1",
                "pe0-local-2",
                "pe1-net"
            ]
        );
    }

    #[test]
    fn rejects_events_in_the_past() {
        let mut c = Calendar::new();
        c.push(key(10, 0, 0, 0, 0), ()).unwrap();
        assert_eq!(c.pop().unwrap().0.at, Cycle::new(10));
        assert!(matches!(
            c.push(key(9, 0, 0, 1, 0), ()),
            Err(SimError::EventInPast { at: 9, now: 10 })
        ));
        // Scheduling exactly at `now` is allowed.
        c.push(key(10, 0, 0, 2, 0), ()).unwrap();
        assert_eq!(c.now(), Cycle::new(10));
    }

    #[test]
    fn peek_matches_next_pop() {
        let mut c = Calendar::new();
        c.push(key(7, 2, 0, 0, 0), 'x').unwrap();
        c.push(key(4, 3, 2, 1, 0), 'y').unwrap();
        let head = c.peek_key().unwrap();
        assert_eq!((head.at, head.pe), (Cycle::new(4), 3));
        assert_eq!(c.pop().unwrap().1, 'y');
    }

    /// A key `lead` cycles after `now` with tie-breaking fields drawn from
    /// small ranges, so that one cycle collects several keys.
    fn drawn(now: u64, lead: u64, r: u64) -> EvKey {
        key(
            now + lead,
            (r % 4) as u16,
            ((r >> 8) % 4) as u8,
            (r >> 16) % 4,
            (r >> 24) % 4,
        )
    }

    /// A key at the popped key's cycle that orders before it, if any does.
    fn below(last: EvKey, r: u64) -> Option<EvKey> {
        let mut k = last;
        if last.b > 0 {
            k.b = r % last.b;
        } else if last.a > 0 {
            k.a = r % last.a;
        } else if last.lane > 0 {
            k.lane = (r % u64::from(last.lane)) as u8;
        } else if last.pe > 0 {
            k.pe = (r % u64::from(last.pe)) as u16;
        } else {
            return None;
        }
        Some(k)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Random interleavings of pushes, pops and snapshot round trips
        /// pop exactly what a sorted reference multiset pops, and reject
        /// exactly the keys it says are in the past.
        #[test]
        fn wheel_pops_the_reference_minimum(
            ops in proptest::collection::vec((0u8..10, proptest::prelude::any::<u64>()), 1..1500),
        ) {
            let mut cal: Calendar<u64> = Calendar::new();
            let mut reference: BTreeMap<EvKey, u64> = BTreeMap::new();
            let mut now = 0u64;
            let mut last: Option<EvKey> = None;
            let window = SLOTS as u64;
            for (id, (op, r)) in (0u64..).zip(ops) {
                let k = match op {
                    0 | 1 => {
                        let want = reference.pop_first();
                        let got = cal.pop();
                        proptest::prop_assert_eq!(got, want);
                        if let Some((k, _)) = want {
                            now = k.at.get();
                            last = Some(k);
                        }
                        None
                    }
                    2 => {
                        let entries = cal.entries_sorted();
                        let want: Vec<(EvKey, u64)> =
                            reference.iter().map(|(k, v)| (*k, *v)).collect();
                        proptest::prop_assert_eq!(&entries, &want);
                        cal = Calendar::restore(Cycle::new(now), entries).unwrap();
                        None
                    }
                    3 => Some(drawn(now, 0, r)),
                    4 => last.and_then(|l| below(l, r)),
                    5 => Some(drawn(now, window - 1, r)),
                    6 => Some(drawn(now, window, r)),
                    7 => Some(drawn(now, (r >> 32) % 40_001, r)),
                    8 => Some(drawn(now, (r >> 32) % 300, r)),
                    _ => Some(drawn(now.saturating_sub(1 + (r >> 32) % 600), 0, r)),
                };
                if let Some(k) = k {
                    if reference.contains_key(&k) {
                        continue;
                    }
                    match cal.push(k, id) {
                        Ok(()) => {
                            proptest::prop_assert!(k.at.get() >= now, "{k:?} accepted at {now}");
                            reference.insert(k, id);
                        }
                        Err(SimError::EventInPast { at, now: at_now }) => {
                            proptest::prop_assert!(k.at.get() < now, "{k:?} rejected at {now}");
                            proptest::prop_assert_eq!((at, at_now), (k.at.get(), now));
                        }
                        Err(e) => proptest::prop_assert!(false, "unexpected {e}"),
                    }
                }
                proptest::prop_assert_eq!(cal.now(), Cycle::new(now));
                proptest::prop_assert_eq!(cal.peek_key(), reference.keys().next().copied());
            }
            // Drain: whatever is left still comes out in reference order.
            while let Some(want) = reference.pop_first() {
                proptest::prop_assert_eq!(cal.pop(), Some(want));
            }
            proptest::prop_assert_eq!(cal.pop(), None);
        }
    }
}
