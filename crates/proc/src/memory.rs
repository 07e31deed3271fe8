//! The Memory Control Unit's local memory.

use emx_core::{Codec, SimError};
use emx_isa::MemoryBus;

/// One processor's local memory: a flat array of 32-bit words.
///
/// "Each processor runs at 20 MHz with 4 MB of one-level static memory"
/// (paper §2.2) — 2^20 words. The simulator allocates lazily-zeroed memory of
/// whatever size the configuration requests, so small test machines stay
/// cheap.
#[derive(Debug, Clone)]
pub struct LocalMemory {
    words: Vec<u32>,
    pe: usize,
}

impl LocalMemory {
    /// Zeroed memory of `words` words belonging to processor `pe` (the PE
    /// number only decorates fault reports).
    pub fn new(pe: usize, words: usize) -> Self {
        LocalMemory {
            words: vec![0; words],
            pe,
        }
    }

    /// Memory size in words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the memory has zero words (degenerate configs only).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
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
            self.words.fill(0);
            for (offset, value) in pairs {
                self.write(offset, value)?;
            }
        }
        Ok(())
    }

    /// Read the word at `offset`.
    pub fn read(&self, offset: u32) -> Result<u32, SimError> {
        self.words
            .get(offset as usize)
            .copied()
            .ok_or(SimError::MemoryFault {
                pe: self.pe,
                offset,
                size: self.words.len(),
            })
    }

    /// Write the word at `offset`.
    pub fn write(&mut self, offset: u32, value: u32) -> Result<(), SimError> {
        let size = self.words.len();
        let pe = self.pe;
        *self
            .words
            .get_mut(offset as usize)
            .ok_or(SimError::MemoryFault { pe, offset, size })? = value;
        Ok(())
    }

    /// Bulk-load `values` starting at `offset` (workload initialization).
    pub fn write_slice(&mut self, offset: u32, values: &[u32]) -> Result<(), SimError> {
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

    /// Read `len` words starting at `offset` (workload verification).
    pub fn read_slice(&self, offset: u32, len: usize) -> Result<&[u32], SimError> {
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
        assert_eq!(m.read_slice(4, 3).unwrap(), &[1, 2, 3]);
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
