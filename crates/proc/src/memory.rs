//! The Memory Control Unit's local memory.

use std::borrow::Cow;

use emx_core::{Codec, SimError};
use emx_isa::MemoryBus;

/// One processor's local memory: a flat array of 32-bit words.
///
/// "Each processor runs at 20 MHz with 4 MB of one-level static memory"
/// (paper §2.2) — 2^20 words. The simulator honours whatever size the
/// configuration requests as the address limit, but stores words only up
/// to the highest one written and grows when a write lands past it; every
/// word beyond reads as zero. A kernel that touches a few hundred words of
/// a 4 MB memory pays for those words, not for the megabytes.
#[derive(Debug, Clone)]
pub struct LocalMemory {
    /// The written prefix of the memory, never longer than `size`.
    words: Vec<u32>,
    /// Configured size in words: the first offset that faults.
    size: usize,
    pe: usize,
}

impl LocalMemory {
    /// Zeroed memory of `words` words belonging to processor `pe` (the PE
    /// number only decorates fault reports).
    pub fn new(pe: usize, words: usize) -> Self {
        LocalMemory {
            words: Vec::new(),
            size: words,
            pe,
        }
    }

    /// Memory size in words.
    pub fn len(&self) -> usize {
        self.size
    }

    /// Whether the memory has zero words (degenerate configs only).
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// The fault an access at `offset` outside this memory raises.
    pub fn fault(&self, offset: u32) -> SimError {
        SimError::MemoryFault {
            pe: self.pe,
            offset,
            size: self.size,
        }
    }

    /// Store words up to `end` (at most `size`), at least doubling the
    /// stored prefix's capacity when it must move, but never past `size`.
    fn grow_to(&mut self, end: usize) {
        if end > self.words.capacity() {
            let target = end.max(2 * self.words.capacity()).min(self.size);
            self.words.reserve_exact(target - self.words.len());
        }
        self.words.resize(end, 0);
    }

    /// Pass the contents through `c` as the sparse (offset, value) pairs
    /// of the nonzero words, in address order: memory starts zeroed, so
    /// zero words carry nothing. Decoding zeroes the memory and writes the
    /// pairs back.
    pub fn snap(&mut self, c: &mut dyn Codec) -> Result<(), SimError> {
        let nonzero = self.words.iter().zip(0..).filter(|(&w, _)| w != 0);
        let mut pairs: Vec<(u32, u32)> = nonzero.map(|(&w, i)| (i, w)).collect();
        c.vec(&mut pairs, |(offset, value), c| {
            c.u32(offset)?;
            c.u32(value)
        })?;
        if c.decoding() {
            self.words.clear();
            for (offset, value) in pairs {
                self.write(offset, value)?;
            }
        }
        Ok(())
    }

    /// Read the word at `offset`.
    pub fn read(&self, offset: u32) -> Result<u32, SimError> {
        match self.words.get(offset as usize) {
            Some(&word) => Ok(word),
            None if (offset as usize) < self.size => Ok(0),
            None => Err(self.fault(offset)),
        }
    }

    /// Write the word at `offset`.
    pub fn write(&mut self, offset: u32, value: u32) -> Result<(), SimError> {
        let at = offset as usize;
        if at >= self.words.len() {
            if at >= self.size {
                return Err(self.fault(offset));
            }
            self.grow_to(at + 1);
        }
        self.words[at] = value;
        Ok(())
    }

    /// Bulk-load `values` starting at `offset` (workload initialization).
    pub fn write_slice(&mut self, offset: u32, values: &[u32]) -> Result<(), SimError> {
        let start = offset as usize;
        let end = start + values.len();
        if end > self.size {
            return Err(self.fault(end as u32));
        }
        if end > self.words.len() {
            self.grow_to(end);
        }
        self.words[start..end].copy_from_slice(values);
        Ok(())
    }

    /// Read `len` words starting at `offset` (workload verification):
    /// borrowed from the stored words, or a copy when the range runs past
    /// them into words never written.
    pub fn read_slice(&self, offset: u32, len: usize) -> Result<Cow<'_, [u32]>, SimError> {
        let start = offset as usize;
        let end = start + len;
        if end > self.size {
            return Err(self.fault(end as u32));
        }
        if let Some(stored) = self.words.get(start..end) {
            return Ok(Cow::Borrowed(stored));
        }
        let mut copy = self.words.get(start..).unwrap_or_default().to_vec();
        copy.resize(len, 0);
        Ok(Cow::Owned(copy))
    }
}

impl MemoryBus for LocalMemory {
    fn load(&mut self, offset: u32) -> Result<u32, SimError> {
        self.read(offset)
    }

    fn store(&mut self, offset: u32, value: u32) -> Result<(), SimError> {
        self.write(offset, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;
    use proptest::prelude::*;

    /// The dense memory the grow-on-write one replaced, kept as its
    /// reference model: every configured word allocated and zeroed up
    /// front. Its access and snapshot paths are as they were.
    #[derive(Debug, Clone)]
    struct DenseMemory {
        words: Vec<u32>,
        pe: usize,
    }

    impl DenseMemory {
        fn new(pe: usize, words: usize) -> Self {
            DenseMemory {
                words: vec![0; words],
                pe,
            }
        }

        fn snap(&mut self, c: &mut dyn Codec) -> Result<(), SimError> {
            let nonzero = self.words.iter().zip(0..).filter(|(&w, _)| w != 0);
            let mut pairs: Vec<(u32, u32)> = nonzero.map(|(&w, i)| (i, w)).collect();
            c.vec(&mut pairs, |(offset, value), c| {
                c.u32(offset)?;
                c.u32(value)
            })?;
            if c.decoding() {
                self.words.fill(0);
                for (offset, value) in pairs {
                    self.write(offset, value)?;
                }
            }
            Ok(())
        }

        fn read(&self, offset: u32) -> Result<u32, SimError> {
            self.words
                .get(offset as usize)
                .copied()
                .ok_or(SimError::MemoryFault {
                    pe: self.pe,
                    offset,
                    size: self.words.len(),
                })
        }

        fn write(&mut self, offset: u32, value: u32) -> Result<(), SimError> {
            let size = self.words.len();
            let pe = self.pe;
            *self
                .words
                .get_mut(offset as usize)
                .ok_or(SimError::MemoryFault { pe, offset, size })? = value;
            Ok(())
        }

        fn write_slice(&mut self, offset: u32, values: &[u32]) -> Result<(), SimError> {
            let start = offset as usize;
            let end = start + values.len();
            if end > self.words.len() {
                return Err(SimError::MemoryFault {
                    pe: self.pe,
                    offset: end as u32,
                    size: self.words.len(),
                });
            }
            self.words[start..end].copy_from_slice(values);
            Ok(())
        }

        fn read_slice(&self, offset: u32, len: usize) -> Result<&[u32], SimError> {
            let start = offset as usize;
            let end = start + len;
            if end > self.words.len() {
                return Err(SimError::MemoryFault {
                    pe: self.pe,
                    offset: end as u32,
                    size: self.words.len(),
                });
            }
            Ok(&self.words[start..end])
        }
    }

    /// Offsets around a small memory's end, plus a few at the top of the
    /// address space, where `offset + len` passes `u32::MAX`.
    fn offsets() -> impl Strategy<Value = u32> {
        prop_oneof![0u32..112, (u32::MAX - 8)..=u32::MAX]
    }

    proptest! {
        /// Reads, writes, bulk loads, bulk reads and snapshot round trips
        /// give the same values, the same faults and the same tokens on a
        /// grow-on-write memory as on a dense zeroed one.
        #[test]
        fn grow_on_write_memory_matches_a_dense_one(
            size in 0usize..96,
            ops in proptest::collection::vec(
                (0u8..6, offsets(), proptest::collection::vec(0u32..3, 0..12)),
                1..100,
            ),
        ) {
            let mut m = LocalMemory::new(2, size);
            let mut dense = DenseMemory::new(2, size);
            for (op, offset, values) in ops {
                let len = values.len();
                match op {
                    0 => prop_assert_eq!(m.read(offset), dense.read(offset)),
                    1 => {
                        let value = values.first().copied().unwrap_or(7);
                        prop_assert_eq!(m.write(offset, value), dense.write(offset, value));
                    }
                    2 => prop_assert_eq!(
                        m.write_slice(offset, &values),
                        dense.write_slice(offset, &values)
                    ),
                    3 => prop_assert_eq!(
                        m.read_slice(offset, len).map(Cow::into_owned),
                        dense.read_slice(offset, len).map(<[u32]>::to_vec)
                    ),
                    _ => {
                        let tokens = Tape::encode(|c| dense.snap(c));
                        prop_assert_eq!(&Tape::encode(|c| m.snap(c)), &tokens);
                        m = LocalMemory::new(2, size);
                        dense = DenseMemory::new(2, size);
                        prop_assert_eq!(Tape::decode(&tokens, |c| m.snap(c)), Ok(()));
                        prop_assert_eq!(Tape::decode(&tokens, |c| dense.snap(c)), Ok(()));
                        prop_assert_eq!(&Tape::encode(|c| m.snap(c)), &tokens);
                        // One more pair, at the first offset past the end.
                        let mut bad = tokens.clone();
                        bad[0] += 1;
                        bad.extend([size as u64, 1]);
                        let (mut m2, mut d2) = (LocalMemory::new(2, size), DenseMemory::new(2, size));
                        let got = Tape::decode(&bad, |c| m2.snap(c));
                        prop_assert!(got.is_err());
                        prop_assert_eq!(got, Tape::decode(&bad, |c| d2.snap(c)));
                    }
                }
                prop_assert_eq!(m.len(), dense.words.len());
                prop_assert!(m.words.len() <= size && m.words.capacity() <= size);
            }
            for offset in 0..=size as u32 {
                prop_assert_eq!(m.read(offset), dense.read(offset));
            }
        }
    }

    #[test]
    fn a_memory_stores_only_its_written_prefix() {
        let mut m = LocalMemory::new(0, 1 << 20);
        assert_eq!(m.read((1 << 20) - 1).unwrap(), 0);
        assert_eq!(m.words.capacity(), 0);
        m.write(100, 5).unwrap();
        assert_eq!(m.words.len(), 101);
        assert_eq!(*m.read_slice(99, 4).unwrap(), [0, 5, 0, 0]);
        assert!(matches!(m.read_slice(100, 1).unwrap(), Cow::Borrowed(&[5])));
        assert_eq!(m.len(), 1 << 20);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = LocalMemory::new(3, 64);
        m.write(10, 0xABCD).unwrap();
        assert_eq!(m.read(10).unwrap(), 0xABCD);
        assert_eq!(m.read(11).unwrap(), 0);
    }

    #[test]
    fn faults_carry_pe_and_size() {
        let mut m = LocalMemory::new(7, 8);
        match m.read(8) {
            Err(SimError::MemoryFault {
                pe: 7,
                offset: 8,
                size: 8,
            }) => {}
            other => panic!("unexpected: {other:?}"),
        }
        assert!(m.write(100, 0).is_err());
    }

    #[test]
    fn slice_operations() {
        let mut m = LocalMemory::new(0, 16);
        m.write_slice(4, &[1, 2, 3]).unwrap();
        assert_eq!(*m.read_slice(4, 3).unwrap(), [1, 2, 3]);
        assert!(m.write_slice(15, &[1, 2]).is_err());
        assert!(m.read_slice(15, 2).is_err());
    }

    #[test]
    fn implements_memory_bus() {
        let mut m = LocalMemory::new(0, 4);
        MemoryBus::store(&mut m, 2, 9).unwrap();
        assert_eq!(MemoryBus::load(&mut m, 2).unwrap(), 9);
    }
}
