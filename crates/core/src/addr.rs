//! The EM-X global address space and continuations.
//!
//! The EM-X compiler supports a global address space: a remote memory access
//! packet carries a *global address* consisting of the processor number and
//! the local memory address on that processor (paper §2.3). Each EMC-Y has
//! 4 MB of single-level static memory, i.e. 2^20 32-bit words, so a global
//! address packs into one 32-bit word as `[pe:10 | offset:22]` — room for up
//! to 1024 processors and 4 M words each, comfortably covering the 80-PE
//! prototype.
//!
//! A *continuation* names the suspended computation a read response must
//! resume: the originating processor, the activation frame of the suspended
//! thread, and the slot within that frame where the value lands. It also
//! packs into the 32-bit data word of a read-request packet.

use std::fmt;

use crate::error::SimError;

/// Bits reserved for the processor number in a packed global address.
pub const PE_BITS: u32 = 10;
/// Bits reserved for the word offset in a packed global address.
pub const OFFSET_BITS: u32 = 22;
/// Maximum number of processors addressable by a packed global address.
pub const MAX_PES: usize = 1 << PE_BITS;
/// Maximum per-processor memory size, in 32-bit words, addressable by a
/// packed global address.
pub const MAX_OFFSET: u32 = (1 << OFFSET_BITS) - 1;

/// Identifier of a processing element (EMC-Y processor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PeId(pub u16);

impl PeId {
    /// Construct from an index, checking it fits the packed representation.
    pub fn new(index: usize) -> Result<Self, SimError> {
        if index >= MAX_PES {
            return Err(SimError::BadPe { pe: index });
        }
        Ok(PeId(index as u16))
    }

    /// The processor index as a `usize`, for table lookups.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PE{}", self.0)
    }
}

impl From<u16> for PeId {
    #[inline]
    fn from(v: u16) -> Self {
        PeId(v)
    }
}

/// A global address: processor number plus local word offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalAddr {
    /// The processor that owns the word.
    pub pe: PeId,
    /// Word offset into that processor's local memory.
    pub offset: u32,
}

impl GlobalAddr {
    /// Construct a global address, validating both components against the
    /// packed wire representation.
    pub fn new(pe: PeId, offset: u32) -> Result<Self, SimError> {
        if pe.index() >= MAX_PES {
            return Err(SimError::BadPe { pe: pe.index() });
        }
        if offset > MAX_OFFSET {
            return Err(SimError::AddressOutOfRange { offset });
        }
        Ok(GlobalAddr { pe, offset })
    }

    /// Pack into the single 32-bit address word of a packet:
    /// `[pe:10 | offset:22]`.
    #[inline]
    pub fn pack(self) -> u32 {
        ((self.pe.0 as u32) << OFFSET_BITS) | (self.offset & MAX_OFFSET)
    }

    /// Unpack from a 32-bit address word.
    #[inline]
    pub fn unpack(word: u32) -> Self {
        GlobalAddr {
            pe: PeId((word >> OFFSET_BITS) as u16),
            offset: word & MAX_OFFSET,
        }
    }

    /// The address `words` words further along in the same processor's
    /// memory. Errors if the result leaves the addressable range.
    pub fn offset_by(self, words: u32) -> Result<Self, SimError> {
        let offset = self
            .offset
            .checked_add(words)
            .ok_or(SimError::AddressOutOfRange { offset: u32::MAX })?;
        GlobalAddr::new(self.pe, offset)
    }
}

impl fmt::Display for GlobalAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{:#x}", self.pe, self.offset)
    }
}

/// Identifier of an activation frame on some processor.
///
/// Activation frames form a tree, not a stack (paper §2.3); frames are
/// allocated from a per-PE table and reclaimed when the thread completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FrameId(pub u16);

impl FrameId {
    /// The frame index as a `usize`, for table lookups.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F{}", self.0)
    }
}

/// Slot within an activation frame that a returning value fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SlotId(pub u8);

impl SlotId {
    /// The slot index as a `usize`.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// The return address of a split-phase transaction (paper §2.3): "the second
/// 32-bit contains the return address which is often called continuation".
///
/// Packs as `[pe:10 | frame:14 | slot:8]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Continuation {
    /// Processor on which the suspended thread lives.
    pub pe: PeId,
    /// Activation frame of the suspended thread.
    pub frame: FrameId,
    /// Slot within the frame where the returned value is deposited.
    pub slot: SlotId,
}

/// Bits for the frame field of a packed continuation.
pub const FRAME_BITS: u32 = 14;
/// Bits for the slot field of a packed continuation.
pub const SLOT_BITS: u32 = 8;
/// Maximum frame index representable in a packed continuation.
pub const MAX_FRAMES: usize = 1 << FRAME_BITS;

impl Continuation {
    /// Construct a continuation, validating the frame fits the wire packing.
    pub fn new(pe: PeId, frame: FrameId, slot: SlotId) -> Result<Self, SimError> {
        if frame.index() >= MAX_FRAMES {
            return Err(SimError::FrameOutOfRange {
                frame: frame.index(),
            });
        }
        if pe.index() >= MAX_PES {
            return Err(SimError::BadPe { pe: pe.index() });
        }
        Ok(Continuation { pe, frame, slot })
    }

    /// Pack into the 32-bit data word of a read-request packet.
    #[inline]
    pub fn pack(self) -> u32 {
        ((self.pe.0 as u32) << (FRAME_BITS + SLOT_BITS))
            | ((self.frame.0 as u32) << SLOT_BITS)
            | self.slot.0 as u32
    }

    /// Unpack from a 32-bit word.
    #[inline]
    pub fn unpack(word: u32) -> Self {
        Continuation {
            pe: PeId((word >> (FRAME_BITS + SLOT_BITS)) as u16),
            frame: FrameId(((word >> SLOT_BITS) & ((1 << FRAME_BITS) - 1)) as u16),
            slot: SlotId((word & ((1 << SLOT_BITS) - 1)) as u8),
        }
    }
}

impl fmt::Display for Continuation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}+{}", self.pe, self.frame, self.slot.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_addr_pack_roundtrip() {
        let a = GlobalAddr::new(PeId(79), 0x3F_FFFF).unwrap();
        assert_eq!(GlobalAddr::unpack(a.pack()), a);
        let b = GlobalAddr::new(PeId(0), 0).unwrap();
        assert_eq!(GlobalAddr::unpack(b.pack()), b);
    }

    #[test]
    fn global_addr_rejects_out_of_range() {
        assert!(GlobalAddr::new(PeId(0), MAX_OFFSET + 1).is_err());
        assert!(PeId::new(MAX_PES).is_err());
        assert!(PeId::new(MAX_PES - 1).is_ok());
    }

    #[test]
    fn global_addr_offset_by_walks_memory() {
        let a = GlobalAddr::new(PeId(3), 100).unwrap();
        let b = a.offset_by(28).unwrap();
        assert_eq!(b.pe, PeId(3));
        assert_eq!(b.offset, 128);
        assert!(a.offset_by(MAX_OFFSET).is_err());
    }

    #[test]
    fn continuation_pack_roundtrip() {
        let c = Continuation::new(PeId(80), FrameId(12345), SlotId(255)).unwrap();
        assert_eq!(Continuation::unpack(c.pack()), c);
        let z = Continuation::new(PeId(0), FrameId(0), SlotId(0)).unwrap();
        assert_eq!(Continuation::unpack(z.pack()), z);
    }

    #[test]
    fn continuation_rejects_oversized_frame() {
        assert!(Continuation::new(PeId(0), FrameId(MAX_FRAMES as u16), SlotId(0)).is_err());
    }

    #[test]
    fn packing_fields_do_not_collide() {
        // Adjacent field values must not bleed into each other.
        let a = GlobalAddr::new(PeId(1), 0).unwrap();
        let b = GlobalAddr::new(PeId(0), 1 << (OFFSET_BITS - 1)).unwrap();
        assert_ne!(a.pack(), b.pack());
        let c1 = Continuation::new(PeId(1), FrameId(0), SlotId(0)).unwrap();
        let c2 = Continuation::new(PeId(0), FrameId(1), SlotId(0)).unwrap();
        let c3 = Continuation::new(PeId(0), FrameId(0), SlotId(1)).unwrap();
        assert_ne!(c1.pack(), c2.pack());
        assert_ne!(c2.pack(), c3.pack());
    }

    #[test]
    fn display_formats() {
        let a = GlobalAddr::new(PeId(7), 255).unwrap();
        assert_eq!(a.to_string(), "PE7:0xff");
        let c = Continuation::new(PeId(2), FrameId(3), SlotId(4)).unwrap();
        assert_eq!(c.to_string(), "PE2@F3+4");
    }
}
