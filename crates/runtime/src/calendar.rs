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
//! [`Calendar`] is a wheel of one slot per cycle over the window
//! `[now, now + SLOTS)`, where `now` is the time of the last pop. Its
//! entries live in one pool of nodes with a free list, and each slot is
//! the head of an unsorted list of pool nodes; a bitmap of the non-empty
//! slots finds the next occupied cycle. When the clock reaches a slot,
//! its entries move into one `cur` buffer, which is sorted once, largest
//! key first, and pops take from its end. Keys at or beyond the window
//! wait in an overflow heap and move into the wheel as `now` advances. A
//! move is not a push, so `calendar.pushes` still counts each event once.
//!
//! A push at `now` goes into `cur` by sorted insertion. Its key may lie
//! below the one just popped: a network arrival (lane 3) schedules its
//! processor's dispatch (lane 0) in the same cycle. That key lands at the
//! end of `cur`, so it pops next, as the key order requires.
//!
//! The wheel's memory follows the high-water mark of pending events: a
//! freed node serves the next push at any cycle, and `cur` holds one
//! cycle's entries at a time. An earlier wheel kept one sorted `Vec` per
//! slot, each at the capacity of its busiest cycle, which cost about
//! 0.5 MiB of RSS at 256 slots and ruled out a wider window.
//!
//! `SLOTS` is 1,024 because the machine schedules almost all of its work
//! a few tens to a few hundred cycles ahead: a remote read takes 20–40
//! cycles, a sort read-loop about 12 and an FFT point a few hundred.
//! Where the calendar's pushes land, by cycles ahead of `now`:
//!
//! | workload | pushes | at `now` | 1–255 | 256–1,023 | 1,024 or more |
//! |---|---:|---:|---:|---:|---:|
//! | `sort-p64` | 2,212,222 | 17.6% | 82.1% | 0.02% | 0.31% |
//! | `fft-p64` | 1,344,174 | 6.1% | 65.9% | 27.9% | 0 |
//! | `bfs-mesh-p64` | 1,507,246 | 8.0% | 91.9% | 0.13% | 0 |
//! | `fft-digest-p64` | 250,354 | 17.7% | 63.1% | 18.8% | 0.33% |
//!
//! (One run of each benchmark workload at seed 1.) Every push at `now`
//! there is a dispatch keyed below the last pop. A 256-slot wheel sent
//! the FFT's pushes 256–1,023 cycles ahead through the overflow heap; at
//! 1,024 slots almost no push goes there.

use std::cmp::{Ordering, Reverse};
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
#[derive(Clone, Copy)]
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

/// A pool node: a wheel entry and the next node of its slot's list, or,
/// while the node is free, of the free list.
#[derive(Clone, Copy)]
struct Node<T> {
    entry: Entry<T>,
    next: u32,
}

/// Cycles the wheel spans: slot `at % SLOTS` lists the entries of cycle
/// `at` for every `at` in `(now, now + SLOTS)`. See the module docs for
/// why it has this value.
const SLOTS: usize = 1024;
/// Words of the occupancy bitmap, one bit per slot.
const WORDS: usize = SLOTS / 64;
/// The end of a node list.
const NIL: u32 = u32::MAX;

/// A deterministic event calendar ordered by [`EvKey`]: a wheel of one
/// slot per cycle over a pool of nodes, plus an overflow heap for keys
/// beyond it.
///
/// Pops never go backwards in time, and scheduling strictly before the
/// last popped time is reported as [`SimError::EventInPast`].
pub(crate) struct Calendar<T> {
    /// The pending entries at `now`, sorted by key, largest first, so the
    /// next pop is the last.
    cur: Vec<Entry<T>>,
    /// The first node of each slot's unsorted list, or `NIL`. The slot of
    /// `now` itself is always empty: its entries are in `cur`.
    heads: Box<[u32; SLOTS]>,
    /// Bit `i % 64` of word `i / 64` is set iff slot `i` lists a node.
    occupied: [u64; WORDS],
    /// Every node a slot has listed, in use or on the free list.
    nodes: Vec<Node<T>>,
    /// The first free node, or `NIL`.
    free: u32,
    /// Entries at or beyond `now + SLOTS`, smallest key on top. They move
    /// into the wheel as `now` advances.
    overflow: BinaryHeap<Entry<T>>,
    now: Cycle,
}

// `push`, `push_uncounted` and `pop` are the event loop's hottest calls and
// carry `#[inline]`: without the hint, whether they inline into the loop
// depends on how the crate's codegen units happen to be partitioned, and an
// unrelated edit elsewhere in the crate once moved `sort-p64` by ~5%.
impl<T: Copy> Calendar<T> {
    /// An empty calendar at time zero.
    pub fn new() -> Self {
        Self::empty_at(Cycle::ZERO)
    }

    fn empty_at(now: Cycle) -> Self {
        Calendar {
            cur: Vec::new(),
            heads: Box::new([NIL; SLOTS]),
            occupied: [0; WORDS],
            nodes: Vec::new(),
            free: NIL,
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
        let e = Entry { key, payload };
        match key.at.get().checked_sub(self.now.get()) {
            None => {
                return Err(SimError::EventInPast {
                    at: key.at.get(),
                    now: self.now.get(),
                })
            }
            Some(0) => {
                let pos = self.cur.partition_point(|x| x.key > key);
                self.cur.insert(pos, e);
            }
            Some(lead) if lead < SLOTS as u64 => self.link(e),
            Some(_) => self.overflow.push(e),
        }
        Ok(())
    }

    /// Remove and return the smallest-keyed event, advancing the clock.
    /// Counts the pop and classifies the event by lane when host
    /// profiling is enabled.
    ///
    /// `Ok(None)` means nothing is pending. An event later than `limit`
    /// stays pending and fails the pop with [`SimError::FuelExhausted`]
    /// at its cycle; the machine fills in the live-thread census.
    #[inline]
    pub fn pop(&mut self, limit: Cycle) -> Result<Option<(EvKey, T)>, SimError> {
        if self.cur.is_empty() {
            let Some(at) = self.next_cycle() else {
                return Ok(None);
            };
            if at > limit {
                return Err(beyond(at));
            }
            self.open(at);
        } else if self.now > limit {
            return Err(beyond(self.now));
        }
        let e = self.cur.pop().expect("an opened cycle holds an entry");
        emx_hostprof::count_lane(e.key.lane);
        Ok(Some((e.key, e.payload)))
    }

    /// Whether no event is pending.
    pub fn is_empty(&self) -> bool {
        self.cur.is_empty() && self.occupied == [0; WORDS] && self.overflow.is_empty()
    }

    /// The time of the most recently popped event.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// A sorted, non-consuming copy of every pending entry — the canonical
    /// pop order a snapshot records.
    pub fn entries_sorted(&self) -> Vec<(EvKey, T)> {
        let node = |n: u32| (n != NIL).then(|| &self.nodes[n as usize]);
        let listed = self
            .heads
            .iter()
            .flat_map(|&head| std::iter::successors(node(head), |x| node(x.next)))
            .map(|x| &x.entry);
        let mut v: Vec<(EvKey, T)> = self
            .cur
            .iter()
            .chain(listed)
            .chain(self.overflow.iter())
            .map(|e| (e.key, e.payload))
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

    /// List `e`, which is after `now` and in the window, in its cycle's
    /// slot, on a free node if there is one.
    #[inline]
    fn link(&mut self, e: Entry<T>) {
        let i = e.key.at.get() as usize % SLOTS;
        let node = Node {
            entry: e,
            next: self.heads[i],
        };
        let n = if self.free == NIL {
            assert!(self.nodes.len() < NIL as usize, "calendar pool is full");
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let n = self.free;
            self.free = std::mem::replace(&mut self.nodes[n as usize], node).next;
            n
        };
        self.heads[i] = n;
        self.occupied[i / 64] |= 1 << (i % 64);
    }

    /// The earliest cycle with entries after `now`: the wheel's next
    /// occupied slot, else the overflow's first key.
    #[inline]
    fn next_cycle(&self) -> Option<Cycle> {
        match self.next_slot() {
            Some(i) => {
                let lead = (i + SLOTS - self.now.get() as usize % SLOTS) % SLOTS;
                Some(self.now + lead as u64)
            }
            None => self.overflow.peek().map(|e| e.key.at),
        }
    }

    /// Move the clock to `at`, the next cycle with entries, and those
    /// entries into `cur`, sorted: its slot's list and, when the wheel was
    /// empty, the overflow keys at `at`. The other overflow keys the
    /// window now reaches move into their slots.
    fn open(&mut self, at: Cycle) {
        self.now = at;
        let i = at.get() as usize % SLOTS;
        let mut n = std::mem::replace(&mut self.heads[i], NIL);
        self.occupied[i / 64] &= !(1 << (i % 64));
        while n != NIL {
            let node = &mut self.nodes[n as usize];
            self.cur.push(node.entry);
            let next = std::mem::replace(&mut node.next, self.free);
            self.free = n;
            n = next;
        }
        while let Some(top) = self.overflow.peek() {
            if top.key.at.get() - at.get() >= SLOTS as u64 {
                break;
            }
            let e = self.overflow.pop().expect("peeked above");
            if e.key.at == at {
                self.cur.push(e);
            } else {
                self.link(e);
            }
        }
        self.cur.sort_unstable_by_key(|e| Reverse(e.key));
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

/// The error of a pop whose next event, at `at`, is past the run's limit.
fn beyond(at: Cycle) -> SimError {
    SimError::FuelExhausted {
        cycle: at.get(),
        live_threads: 0,
    }
}

impl<T: Copy> Default for Calendar<T> {
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

    /// An unlimited pop.
    fn pop<T: Copy>(c: &mut Calendar<T>) -> Option<(EvKey, T)> {
        c.pop(Cycle::MAX).unwrap()
    }

    fn drain<T: Copy>(c: &mut Calendar<T>) -> Vec<T> {
        std::iter::from_fn(|| pop(c).map(|(_, v)| v)).collect()
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
        assert_eq!(
            drain(&mut c),
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
        assert_eq!(pop(&mut c).unwrap().0.at, Cycle::new(10));
        assert!(matches!(
            c.push(key(9, 0, 0, 1, 0), ()),
            Err(SimError::EventInPast { at: 9, now: 10 })
        ));
        // Scheduling exactly at `now` is allowed.
        c.push(key(10, 0, 0, 2, 0), ()).unwrap();
        assert_eq!(c.now(), Cycle::new(10));
    }

    #[test]
    fn a_pop_leaves_an_event_past_the_limit_pending() {
        let mut c = Calendar::new();
        c.push(key(7, 2, 0, 0, 0), 'x').unwrap();
        c.push(key(4, 3, 2, 1, 0), 'y').unwrap();
        let past = |at| SimError::FuelExhausted {
            cycle: at,
            live_threads: 0,
        };
        assert_eq!(c.pop(Cycle::new(3)), Err(past(4)));
        assert_eq!(c.now(), Cycle::ZERO);
        assert_eq!(c.pop(Cycle::new(4)).unwrap().unwrap().1, 'y');
        assert_eq!(c.pop(Cycle::new(6)), Err(past(7)));
        // An entry at `now` is judged against the limit too.
        c.push(key(4, 3, 2, 2, 0), 'z').unwrap();
        assert_eq!(c.pop(Cycle::new(3)), Err(past(4)));
        assert_eq!(drain(&mut c), vec!['z', 'x']);
        assert!(c.is_empty());
        assert_eq!(c.pop(Cycle::ZERO), Ok(None));
    }

    /// When the wheel is empty, the clock jumps to the overflow's first
    /// cycle: every key there pops, in key order, before the next cycle's.
    #[test]
    fn overflow_keys_at_the_new_now_pop_before_the_next_cycle() {
        let far = 5 * SLOTS as u64 + 3;
        let mut c = Calendar::new();
        c.push(key(far + 1, 0, 0, 0, 0), "next cycle").unwrap();
        c.push(key(far, 1, 0, 0, 0), "second").unwrap();
        c.push(key(far, 0, 3, 0, 0), "first").unwrap();
        assert_eq!(pop(&mut c).unwrap().1, "first");
        assert_eq!(c.now(), Cycle::new(far));
        // A push at the new `now`, below the key just popped, pops next.
        c.push(key(far, 0, 0, 0, 0), "pushed at now").unwrap();
        assert_eq!(drain(&mut c), vec!["pushed at now", "second", "next cycle"]);
    }

    /// The calendar's heap bytes: the pool, `cur`, the slot heads and the
    /// overflow heap.
    fn heap_bytes<T: Copy>(c: &Calendar<T>) -> usize {
        use std::mem::size_of;
        c.nodes.capacity() * size_of::<Node<T>>()
            + (c.cur.capacity() + c.overflow.capacity()) * size_of::<Entry<T>>()
            + size_of::<[u32; SLOTS]>()
    }

    /// The wheel keeps no buffer per slot: after a burst of 10,000 events
    /// at one cycle, 10,000 more spread over 1,000 cycles, with at most a
    /// few dozen pending, reuse the burst's nodes and grow nothing.
    #[test]
    fn memory_follows_the_pending_high_water_mark() {
        let mut c = Calendar::new();
        for i in 0..10_000u64 {
            c.push(key(10, (i % 64) as u16, 1, i, 0), i).unwrap();
        }
        assert_eq!(c.nodes.len(), 10_000);
        assert_eq!(drain(&mut c).len(), 10_000);
        let after_burst = heap_bytes(&c);

        let mut pending = 0;
        for i in 0..10_000u64 {
            let at = c.now().get() + 1 + (i * 7_919) % 1_000;
            c.push(key(at, (i % 64) as u16, 1, i, 0), i).unwrap();
            pending += 1;
            while pending > 40 {
                pop(&mut c).unwrap();
                pending -= 1;
            }
        }
        assert_eq!(drain(&mut c).len(), 40);
        assert_eq!(c.nodes.len(), 10_000, "the pool grew past the burst");
        assert_eq!(heap_bytes(&c), after_burst);
        assert!(c.heads.iter().all(|&h| h == NIL) && c.is_empty());
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

        /// Random interleavings of pushes, pops (some under a cycle limit)
        /// and snapshot round trips pop exactly what a sorted reference
        /// multiset pops, and reject exactly the keys it says are in the
        /// past or beyond the limit.
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
                        let limit = if op == 0 { u64::MAX } else { now + (r >> 32) % (2 * window) };
                        let head = reference.keys().next().map(|k| k.at.get());
                        match head.filter(|&at| at > limit) {
                            Some(at) => {
                                let want = SimError::FuelExhausted { cycle: at, live_threads: 0 };
                                proptest::prop_assert_eq!(cal.pop(Cycle::new(limit)), Err(want));
                            }
                            None => {
                                let want = reference.pop_first();
                                proptest::prop_assert_eq!(cal.pop(Cycle::new(limit)), Ok(want));
                                if let Some((k, _)) = want {
                                    now = k.at.get();
                                    last = Some(k);
                                }
                            }
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
                    7 => Some(drawn(now, (r >> 32) % (160 * window), r)),
                    8 => Some(drawn(now, (r >> 32) % (window + window / 6), r)),
                    _ => Some(drawn(now.saturating_sub(1 + (r >> 32) % (2 * window)), 0, r)),
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
                proptest::prop_assert_eq!(cal.is_empty(), reference.is_empty());
            }
            // Drain: whatever is left still comes out in reference order.
            while let Some(want) = reference.pop_first() {
                proptest::prop_assert_eq!(pop(&mut cal), Some(want));
            }
            proptest::prop_assert_eq!(pop(&mut cal), None);
        }
    }
}
