//! The 2-word fixed-size EM-X packet.
//!
//! All EM-X communication — thread invocation, remote reads and writes, read
//! responses, synchronization — travels in packets "which consist of a word
//! of address part and a word of data part" (paper §2.2). The Switching Unit
//! moves one word per clock per port, so a packet occupies a port for two
//! cycles; the Input Buffer Unit holds packets in two *priority* FIFOs of
//! eight packets each.
//!
//! [`Packet`] is the simulator-level representation: the two payload words
//! plus the framing the hardware carries out-of-band (packet kind, priority
//! class, block length for block reads) and simulator bookkeeping (source PE
//! and a trace id, which never travel on the wire). [`WirePacket`] is the
//! exact wire image: two 32-bit payload words plus a one-byte tag and a
//! two-byte auxiliary field modelling the hardware framing.

use std::fmt;

use crate::addr::{Continuation, GlobalAddr, PeId};
use crate::codec::Codec;
use crate::error::SimError;

/// Priority class of a packet in the Input Buffer Unit.
///
/// The IBU "has two levels of priority packet buffers for flexible thread
/// scheduling" (paper §2.2). By default everything travels at [`Priority::Low`];
/// the scheduler ablation (`figures priority`) raises read responses to [`Priority::High`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Serviced first.
    High,
    /// Serviced when no high-priority packet is waiting.
    #[default]
    Low,
}

impl Priority {
    /// Wire encoding: a single bit.
    #[inline]
    pub fn bit(self) -> u8 {
        match self {
            Priority::High => 1,
            Priority::Low => 0,
        }
    }

    /// Decode from the wire bit.
    #[inline]
    pub fn from_bit(bit: u8) -> Priority {
        if bit & 1 == 1 {
            Priority::High
        } else {
            Priority::Low
        }
    }
}

/// What a packet asks the receiving processor to do.
///
/// The EMC-Y implements "four types of send instructions ... including remote
/// read request for one data and for a block of data" (paper §2.2); responses,
/// writes, spawns and the two barrier packets complete the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PacketKind {
    /// Split-phase remote read of one word. Address word: packed
    /// [`GlobalAddr`]; data word: packed [`Continuation`]. Serviced by the
    /// by-passing DMA without involving the remote EXU.
    #[default]
    ReadReq,
    /// Block variant of [`PacketKind::ReadReq`]: requests `block_len`
    /// consecutive words; the remote IBU emits one response per word.
    ReadBlockReq,
    /// Response to a read request. Address word: packed [`Continuation`]
    /// (which names the destination PE); data word: the value.
    ReadResp,
    /// Remote write; does not suspend the issuing thread. Address word:
    /// packed [`GlobalAddr`]; data word: the value.
    Write,
    /// Thread invocation / function spawn. Address word: packed
    /// [`GlobalAddr`] of the thread entry on the target PE; data word: an
    /// argument (conventionally a packed continuation or frame handle).
    Spawn,
    /// Barrier arrival notification sent to the coordinator PE. Address word:
    /// packed [`GlobalAddr`] naming the coordinator and barrier id; data
    /// word: the arriving PE.
    SyncArrive,
    /// Barrier release broadcast from the coordinator. Address word: packed
    /// [`GlobalAddr`] naming the released PE and barrier id; data word: the
    /// barrier epoch.
    SyncRelease,
}

impl PacketKind {
    /// Every kind, indexed by its three-bit wire code.
    pub const ALL: [PacketKind; 7] = [
        PacketKind::ReadReq,
        PacketKind::ReadBlockReq,
        PacketKind::ReadResp,
        PacketKind::Write,
        PacketKind::Spawn,
        PacketKind::SyncArrive,
        PacketKind::SyncRelease,
    ];

    /// Wire encoding: three bits, the kind's index in [`PacketKind::ALL`].
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Decode from the three wire bits.
    pub fn decode(code: u8) -> Result<PacketKind, SimError> {
        PacketKind::ALL
            .get(usize::from(code))
            .copied()
            .ok_or(SimError::BadPacketKind { code })
    }

    /// Whether the address word carries a [`GlobalAddr`] (as opposed to a
    /// [`Continuation`]).
    #[inline]
    pub fn addr_is_global(self) -> bool {
        !matches!(self, PacketKind::ReadResp)
    }
}

/// A packet in flight, as the simulator sees it. The default is the
/// all-zero packet, the blank a snapshot decodes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Packet {
    /// What the packet asks of the receiver.
    pub kind: PacketKind,
    /// IBU priority class.
    pub priority: Priority,
    /// The 32-bit address word (packed [`GlobalAddr`] or [`Continuation`]).
    pub addr: u32,
    /// The 32-bit data word.
    pub data: u32,
    /// Number of words requested by a [`PacketKind::ReadBlockReq`]; 1 for
    /// every other kind. Carried in hardware framing, not the payload words.
    pub block_len: u16,
    /// Request sequence number for the remote-read retry protocol: stamped
    /// on read requests by the issuing frame and echoed on every response,
    /// so a requester can match responses to its *current* outstanding read
    /// and silently discard stale or duplicate responses. `0` when the
    /// retry protocol is not armed.
    pub seq: u16,
    /// Word index within a block-read response (`0..block_len`), so a
    /// requester can deposit words idempotently by position even when the
    /// network reorders, drops, or duplicates them. `0` for every other
    /// kind.
    pub idx: u16,
    /// Issuing processor. Simulator bookkeeping only (the hardware recovers
    /// it from the continuation when it needs it); used for tracing and for
    /// network source routing.
    pub src: PeId,
}

impl Packet {
    /// Pass the packet's fields through `c`: kind code, priority bit,
    /// address and data words, block length, sequence number, word index
    /// and source.
    pub fn snap(&mut self, c: &mut dyn Codec) -> Result<(), SimError> {
        c.variant(&mut self.kind, &PacketKind::ALL)?;
        let mut priority = self.priority.bit();
        c.u8(&mut priority)?;
        self.priority = Priority::from_bit(priority);
        c.u32(&mut self.addr)?;
        c.u32(&mut self.data)?;
        c.u16(&mut self.block_len)?;
        c.u16(&mut self.seq)?;
        c.u16(&mut self.idx)?;
        c.u16(&mut self.src.0)
    }

    /// The packet every constructor starts from: low priority, one word,
    /// no sequence number or word index.
    fn build(kind: PacketKind, src: PeId, addr: u32, data: u32) -> Packet {
        Packet {
            kind,
            priority: Priority::Low,
            addr,
            data,
            block_len: 1,
            seq: 0,
            idx: 0,
            src,
        }
    }

    /// Build a split-phase read request.
    pub fn read_req(src: PeId, target: GlobalAddr, cont: Continuation) -> Packet {
        Packet::build(PacketKind::ReadReq, src, target.pack(), cont.pack())
    }

    /// Build a block read request for `len` consecutive words.
    pub fn read_block_req(
        src: PeId,
        target: GlobalAddr,
        cont: Continuation,
        len: u16,
    ) -> Result<Packet, SimError> {
        if len == 0 {
            return Err(SimError::EmptyBlockRead);
        }
        Ok(Packet {
            block_len: len,
            ..Packet::build(PacketKind::ReadBlockReq, src, target.pack(), cont.pack())
        })
    }

    /// Build the response to a read request.
    pub fn read_resp(src: PeId, cont: Continuation, value: u32) -> Packet {
        Packet::build(PacketKind::ReadResp, src, cont.pack(), value)
    }

    /// Build a remote write.
    pub fn write(src: PeId, target: GlobalAddr, value: u32) -> Packet {
        Packet::build(PacketKind::Write, src, target.pack(), value)
    }

    /// Build a thread-invocation (spawn) packet.
    pub fn spawn(src: PeId, entry: GlobalAddr, arg: u32) -> Packet {
        Packet::build(PacketKind::Spawn, src, entry.pack(), arg)
    }

    /// Build a barrier packet: a [`PacketKind::SyncArrive`] or a
    /// [`PacketKind::SyncRelease`], addressed to `barrier`, whose offset is
    /// the barrier id, on the processor that receives it.
    pub fn sync(kind: PacketKind, src: PeId, barrier: GlobalAddr, data: u32) -> Packet {
        debug_assert!(matches!(
            kind,
            PacketKind::SyncArrive | PacketKind::SyncRelease
        ));
        Packet::build(kind, src, barrier.pack(), data)
    }

    /// The processor this packet must be routed to, derived from the address
    /// word exactly as the Switching Unit does.
    #[inline]
    pub fn dst(&self) -> PeId {
        if self.kind.addr_is_global() {
            GlobalAddr::unpack(self.addr).pe
        } else {
            Continuation::unpack(self.addr).pe
        }
    }

    /// Words the packet asks its receiver to move: the block length of a
    /// [`PacketKind::ReadBlockReq`], one for every other kind.
    #[inline]
    pub fn words(&self) -> u16 {
        match self.kind {
            PacketKind::ReadBlockReq => self.block_len,
            _ => 1,
        }
    }

    /// Interpret the address word as a [`GlobalAddr`]. Meaningful for every
    /// kind except [`PacketKind::ReadResp`].
    #[inline]
    pub fn global_addr(&self) -> GlobalAddr {
        GlobalAddr::unpack(self.addr)
    }

    /// Interpret the appropriate word as the [`Continuation`]: the data word
    /// for requests, the address word for responses.
    #[inline]
    pub fn continuation(&self) -> Continuation {
        match self.kind {
            PacketKind::ReadResp => Continuation::unpack(self.addr),
            _ => Continuation::unpack(self.data),
        }
    }

    /// Raise this packet to the high-priority IBU FIFO.
    #[inline]
    pub fn with_priority(mut self, priority: Priority) -> Packet {
        self.priority = priority;
        self
    }

    /// Stamp the retry-protocol sequence number.
    #[inline]
    pub fn with_seq(mut self, seq: u16) -> Packet {
        self.seq = seq;
        self
    }

    /// Stamp the block-response word index.
    #[inline]
    pub fn with_idx(mut self, idx: u16) -> Packet {
        self.idx = idx;
        self
    }

    /// Encode to the exact wire image. The auxiliary half-word is
    /// kind-dependent: block length for a block request, word index for a
    /// response, unused otherwise.
    pub fn to_wire(&self) -> WirePacket {
        let aux = match self.kind {
            PacketKind::ReadBlockReq => self.block_len,
            PacketKind::ReadResp => self.idx,
            _ => 0,
        };
        WirePacket {
            tag: (self.kind.code() << 1) | self.priority.bit(),
            aux,
            seq: self.seq,
            words: [self.addr, self.data],
        }
    }

    /// Decode from a wire image; `src` is supplied by the receiving link.
    pub fn from_wire(wire: WirePacket, src: PeId) -> Result<Packet, SimError> {
        let kind = PacketKind::decode(wire.tag >> 1)?;
        if kind == PacketKind::ReadBlockReq && wire.aux == 0 {
            return Err(SimError::EmptyBlockRead);
        }
        Ok(Packet {
            kind,
            priority: Priority::from_bit(wire.tag & 1),
            addr: wire.words[0],
            data: wire.words[1],
            block_len: if kind == PacketKind::ReadBlockReq {
                wire.aux
            } else {
                1
            },
            seq: wire.seq,
            idx: if kind == PacketKind::ReadResp {
                wire.aux
            } else {
                0
            },
            src,
        })
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?}[{} -> {}] addr={:#010x} data={:#010x}",
            self.kind,
            self.src,
            self.dst(),
            self.addr,
            self.data
        )
    }
}

/// The exact wire image of a packet: two 32-bit payload words (address part
/// and data part, paper §2.2) plus the framing byte (kind and priority), the
/// kind-dependent auxiliary half-word (block length of a block request, word
/// index of a response), and the retry-protocol sequence half-word the
/// hardware carries alongside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WirePacket {
    /// Framing: `[kind:3 | priority:1]` in the low nibble.
    pub tag: u8,
    /// Block length for block read requests, word index for responses;
    /// unused otherwise.
    pub aux: u16,
    /// Retry-protocol sequence number; `0` when retry is not armed.
    pub seq: u16,
    /// The address word and the data word.
    pub words: [u32; 2],
}

/// Byte length of a serialized [`WirePacket`].
pub const WIRE_PACKET_BYTES: usize = 1 + 2 + 2 + 8;

impl WirePacket {
    /// Serialize as a link would frame it: `tag`, `aux`, `seq` and the two
    /// words, each big-endian.
    pub fn to_bytes(&self) -> [u8; WIRE_PACKET_BYTES] {
        let mut out = [0u8; WIRE_PACKET_BYTES];
        out[0] = self.tag;
        out[1..3].copy_from_slice(&self.aux.to_be_bytes());
        out[3..5].copy_from_slice(&self.seq.to_be_bytes());
        out[5..9].copy_from_slice(&self.words[0].to_be_bytes());
        out[9..13].copy_from_slice(&self.words[1].to_be_bytes());
        out
    }

    /// Deserialize the packet at the front of `bytes`, the inverse of
    /// [`to_bytes`](Self::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<WirePacket, SimError> {
        let Some(b) = bytes.first_chunk::<WIRE_PACKET_BYTES>() else {
            return Err(SimError::TruncatedWirePacket { have: bytes.len() });
        };
        Ok(WirePacket {
            tag: b[0],
            aux: u16::from_be_bytes([b[1], b[2]]),
            seq: u16::from_be_bytes([b[3], b[4]]),
            words: [
                u32::from_be_bytes([b[5], b[6], b[7], b[8]]),
                u32::from_be_bytes([b[9], b[10], b[11], b[12]]),
            ],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{FrameId, SlotId};

    fn cont(pe: u16, frame: u16, slot: u8) -> Continuation {
        Continuation::new(PeId(pe), FrameId(frame), SlotId(slot)).unwrap()
    }

    fn gaddr(pe: u16, off: u32) -> GlobalAddr {
        GlobalAddr::new(PeId(pe), off).unwrap()
    }

    #[test]
    fn read_req_routes_to_target_pe() {
        let p = Packet::read_req(PeId(1), gaddr(7, 0x100), cont(1, 2, 3));
        assert_eq!(p.dst(), PeId(7));
        assert_eq!(p.continuation(), cont(1, 2, 3));
        assert_eq!(p.global_addr(), gaddr(7, 0x100));
    }

    #[test]
    fn read_resp_routes_to_continuation_pe() {
        let p = Packet::read_resp(PeId(7), cont(1, 2, 3), 0xDEAD);
        assert_eq!(p.dst(), PeId(1));
        assert_eq!(p.continuation(), cont(1, 2, 3));
        assert_eq!(p.data, 0xDEAD);
    }

    #[test]
    fn write_and_spawn_route_by_global_addr() {
        let w = Packet::write(PeId(0), gaddr(5, 64), 99);
        assert_eq!(w.dst(), PeId(5));
        let s = Packet::spawn(PeId(0), gaddr(9, 0), 42);
        assert_eq!(s.dst(), PeId(9));
        assert_eq!(s.data, 42);
    }

    #[test]
    fn block_read_carries_length() {
        let p = Packet::read_block_req(PeId(0), gaddr(2, 0), cont(0, 0, 0), 16).unwrap();
        assert_eq!(p.block_len, 16);
        assert!(Packet::read_block_req(PeId(0), gaddr(2, 0), cont(0, 0, 0), 0).is_err());
    }

    #[test]
    fn wire_roundtrip_preserves_all_fields() {
        let samples = [
            Packet::read_req(PeId(3), gaddr(7, 0x3FFFFF), cont(3, 16383, 255)),
            Packet::read_block_req(PeId(3), gaddr(7, 1), cont(3, 1, 1), 64).unwrap(),
            Packet::read_resp(PeId(7), cont(3, 9, 2), u32::MAX),
            Packet::write(PeId(3), gaddr(0, 0), 0),
            Packet::spawn(PeId(3), gaddr(1023, 0), 7).with_priority(Priority::High),
        ];
        for p in samples {
            let back = Packet::from_wire(p.to_wire(), p.src).unwrap();
            assert_eq!(back, p, "wire roundtrip mangled {p}");
        }
    }

    #[test]
    fn wire_roundtrip_preserves_seq_and_idx() {
        let req = Packet::read_req(PeId(3), gaddr(7, 0x10), cont(3, 2, 0)).with_seq(0xBEEF);
        let back = Packet::from_wire(req.to_wire(), req.src).unwrap();
        assert_eq!(back.seq, 0xBEEF);
        assert_eq!(back, req);

        let resp = Packet::read_resp(PeId(7), cont(3, 2, 0), 42)
            .with_seq(0xBEEF)
            .with_idx(17);
        let back = Packet::from_wire(resp.to_wire(), resp.src).unwrap();
        assert_eq!(back.seq, 0xBEEF);
        assert_eq!(back.idx, 17);
        assert_eq!(back, resp);
    }

    #[test]
    fn kind_codes_index_the_kind_table() {
        for (code, kind) in PacketKind::ALL.into_iter().enumerate() {
            assert_eq!(usize::from(kind.code()), code);
            assert_eq!(PacketKind::decode(kind.code()), Ok(kind));
        }
    }

    #[test]
    fn wire_rejects_bad_kind_code() {
        let mut w = Packet::write(PeId(0), gaddr(0, 0), 0).to_wire();
        w.tag = 7 << 1; // kind code 7 is unassigned
        assert!(Packet::from_wire(w, PeId(0)).is_err());
    }

    #[test]
    fn wire_byte_serialization_roundtrip() {
        let p = Packet::read_req(PeId(11), gaddr(13, 0xBEEF), cont(11, 17, 5)).with_seq(0x1234);
        let w = p.to_wire();
        let bytes = w.to_bytes();
        // The big-endian link framing: tag, aux, seq, address word, data word.
        assert_eq!(
            bytes,
            [0x00, 0x00, 0x00, 0x12, 0x34, 0x03, 0x40, 0xbe, 0xef, 0x02, 0xc0, 0x11, 0x05]
        );
        assert_eq!(WirePacket::from_bytes(&bytes), Ok(w));
    }

    #[test]
    fn wire_byte_deserialization_detects_truncation() {
        let bytes = Packet::write(PeId(0), gaddr(0, 0), 0).to_wire().to_bytes();
        assert_eq!(
            WirePacket::from_bytes(&bytes[..1]),
            Err(SimError::TruncatedWirePacket { have: 1 })
        );
        assert_eq!(
            WirePacket::from_bytes(&bytes[..WIRE_PACKET_BYTES - 1]),
            Err(SimError::TruncatedWirePacket {
                have: WIRE_PACKET_BYTES - 1
            })
        );
    }

    #[test]
    fn priority_defaults_low_and_can_be_raised() {
        let p = Packet::read_resp(PeId(0), cont(0, 0, 0), 1);
        assert_eq!(p.priority, Priority::Low);
        assert_eq!(p.with_priority(Priority::High).priority, Priority::High);
    }
}
