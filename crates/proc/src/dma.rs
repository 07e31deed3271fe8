//! The by-passing DMA: the EM-X's signature remote-access path.
//!
//! "Remote read requests received by other processors are processed by the
//! IBU which uses the by-pass DMA to read data from the memory. When the
//! data fetched by the IBU is given to OBU, it will be immediately sent out
//! to the destination address specified in the read request packet. This
//! internal working of IBU and OBU is the key feature of EM-X for fast
//! remote read/writes without consuming the main processor cycles."
//! (paper §2.2)
//!
//! [`BypassDma`] owns the IBU-service and OBU-forward timelines of one
//! processor and turns an arriving remote read/write into response packets
//! with correct departure times — entirely off the EXU's timeline.
//!
//! A block read produces one `ReadResp` per word, in address order. The
//! network's non-overtaking guarantee delivers them in order, and the
//! *requester's* IBU deposits them into the destination buffer via its own
//! by-pass path (see `emx-runtime`), so no extra addressing travels on the
//! wire.

use emx_core::{Codec, Continuation, Cycle, Packet, PacketKind, PeId, Probe, SimError, TraceKind};

use crate::memory::LocalMemory;

/// Per-processor IBU/OBU service timelines for the by-pass path.
#[derive(Debug, Clone)]
pub struct BypassDma {
    pe: PeId,
    ibu_free: Cycle,
    obu_free: Cycle,
    dma_service: u32,
    obu_forward: u32,
    /// Requests serviced (reads and writes count per word).
    pub serviced_words: u64,
}

impl BypassDma {
    /// Timelines for processor `pe` with the given unit costs.
    pub fn new(pe: PeId, dma_service: u32, obu_forward: u32) -> Self {
        BypassDma {
            pe,
            ibu_free: Cycle::ZERO,
            obu_free: Cycle::ZERO,
            dma_service,
            obu_forward,
            serviced_words: 0,
        }
    }

    /// When this processor's IBU next comes free (for deposit accounting on
    /// the requester side of a block read).
    pub fn ibu_free(&self) -> Cycle {
        self.ibu_free
    }

    /// Pass the timelines and the service count through `c`. The unit
    /// costs are configuration, not state.
    pub fn snap(&mut self, c: &mut dyn Codec) -> Result<(), SimError> {
        c.cycle(&mut self.ibu_free)?;
        c.cycle(&mut self.obu_free)?;
        c.u64(&mut self.serviced_words)
    }

    /// Occupy the IBU for one word-deposit starting no earlier than `now`;
    /// returns completion time. Used by the requester's IBU when it writes
    /// incoming block-read words to memory without EXU involvement.
    pub fn ibu_deposit(&mut self, now: Cycle) -> Cycle {
        let done = now.max(self.ibu_free) + u64::from(self.dma_service);
        self.ibu_free = done;
        self.serviced_words += 1;
        emx_hostprof::bump(emx_hostprof::Sim::DmaDeposits);
        done
    }

    /// Service a remote access arriving at `now`, appending each response
    /// packet with its departure time from the OBU to `responses`, and
    /// return when the IBU finished with the request (its service
    /// timeline). The caller owns `responses`, so servicing allocates
    /// nothing once it has grown.
    ///
    /// * `ReadReq` — one memory read, one `ReadResp` out through the OBU;
    /// * `ReadBlockReq` — `block_len` pipelined reads, one `ReadResp` per
    ///   word in address order;
    /// * `Write` — one memory write, no response.
    pub fn service(
        &mut self,
        now: Cycle,
        pkt: &Packet,
        mem: &mut LocalMemory,
        responses: &mut Vec<(Cycle, Packet)>,
    ) -> Result<Cycle, SimError> {
        emx_hostprof::bump(emx_hostprof::Sim::DmaServices);
        match pkt.kind {
            PacketKind::Write => {
                let ga = pkt.global_addr();
                debug_assert_eq!(ga.pe, self.pe);
                let done = self.ibu_deposit(now);
                mem.write(ga.offset, pkt.data)?;
                Ok(done)
            }
            // A single-word read is the one-word case of a block read.
            PacketKind::ReadReq | PacketKind::ReadBlockReq => {
                let ga = pkt.global_addr();
                debug_assert_eq!(ga.pe, self.pe);
                let cont = Continuation::unpack(pkt.data);
                let mut t = now.max(self.ibu_free);
                for i in 0..pkt.words() {
                    t += u64::from(self.dma_service);
                    let value = mem.read(ga.offset + u32::from(i))?;
                    self.serviced_words += 1;
                    let depart = t.max(self.obu_free) + u64::from(self.obu_forward);
                    self.obu_free = depart;
                    // Each response echoes the request's retry sequence
                    // number, so the requester can match it against its
                    // current attempt, and carries its word index (the wire
                    // word otherwise unused on responses), so a retried
                    // block read can deposit duplicates idempotently.
                    let resp = Packet::read_resp(self.pe, cont, value)
                        .with_seq(pkt.seq)
                        .with_idx(i);
                    responses.push((depart, resp));
                }
                self.ibu_free = t;
                Ok(t)
            }
            other => Err(SimError::Workload {
                reason: format!("by-pass DMA cannot service {other:?}"),
            }),
        }
    }

    /// [`service`](Self::service) with an observability probe: emits one
    /// [`TraceKind::DmaService`] event recording the request kind and the
    /// number of words the by-pass path moved — the paper's "fast remote
    /// read/writes without consuming the main processor cycles".
    pub fn service_probed(
        &mut self,
        now: Cycle,
        pkt: &Packet,
        mem: &mut LocalMemory,
        responses: &mut Vec<(Cycle, Packet)>,
        probe: Option<&mut dyn Probe>,
    ) -> Result<Cycle, SimError> {
        let ibu_done = self.service(now, pkt, mem, responses)?;
        if let Some(p) = probe {
            p.on(
                now,
                self.pe,
                TraceKind::DmaService {
                    pkt: pkt.kind,
                    words: pkt.words(),
                },
            );
        }
        Ok(ibu_done)
    }

    /// Reserve the OBU for one EXU-generated packet leaving at `now`;
    /// returns the departure time. (The OBU "receives packets generated by
    /// the EXU or IBU", so both share this timeline.)
    pub fn obu_depart(&mut self, now: Cycle) -> Cycle {
        let depart = now.max(self.obu_free) + u64::from(self.obu_forward);
        self.obu_free = depart;
        emx_hostprof::bump(emx_hostprof::Sim::DmaDeparts);
        depart
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emx_core::{FrameId, GlobalAddr, SlotId};

    fn cont() -> Continuation {
        Continuation::new(PeId(1), FrameId(2), SlotId(3)).unwrap()
    }

    fn ga(pe: u16, off: u32) -> GlobalAddr {
        GlobalAddr::new(PeId(pe), off).unwrap()
    }

    #[test]
    fn read_request_produces_response_without_exu() {
        let mut dma = BypassDma::new(PeId(0), 4, 1);
        let mut mem = LocalMemory::new(0, 64);
        mem.write(10, 777).unwrap();
        let req = Packet::read_req(PeId(1), ga(0, 10), cont());
        let mut out = Vec::new();
        let done = dma
            .service(Cycle::new(100), &req, &mut mem, &mut out)
            .unwrap();
        assert_eq!(done, Cycle::new(104));
        assert_eq!(out.len(), 1);
        let (t, resp) = &out[0];
        assert_eq!(resp.kind, PacketKind::ReadResp);
        assert_eq!(resp.data, 777);
        assert_eq!(resp.dst(), PeId(1));
        // 4 cycles DMA + 1 cycle OBU forward.
        assert_eq!(*t, Cycle::new(105));
    }

    #[test]
    fn back_to_back_requests_serialize_on_the_ibu() {
        let mut dma = BypassDma::new(PeId(0), 4, 1);
        let mut mem = LocalMemory::new(0, 64);
        let req = Packet::read_req(PeId(1), ga(0, 0), cont());
        let mut out = Vec::new();
        let a = dma
            .service(Cycle::new(0), &req, &mut mem, &mut out)
            .unwrap();
        let b = dma
            .service(Cycle::new(0), &req, &mut mem, &mut out)
            .unwrap();
        assert_eq!(a, Cycle::new(4));
        assert_eq!(b, Cycle::new(8), "second request waits for the first");
        // Responses append: the caller's buffer is never cleared.
        assert_eq!(out.len(), 2);
        assert!(out[0].0 < out[1].0);
    }

    #[test]
    fn responses_echo_seq_and_carry_word_index() {
        let mut dma = BypassDma::new(PeId(0), 4, 1);
        let mut mem = LocalMemory::new(0, 64);
        let req = Packet::read_req(PeId(1), ga(0, 0), cont()).with_seq(7);
        let mut out = Vec::new();
        dma.service(Cycle::ZERO, &req, &mut mem, &mut out).unwrap();
        assert_eq!(out[0].1.seq, 7);
        assert_eq!(out[0].1.idx, 0);

        let blk = Packet::read_block_req(PeId(1), ga(0, 0), cont(), 4)
            .unwrap()
            .with_seq(9);
        out.clear();
        dma.service(Cycle::ZERO, &blk, &mut mem, &mut out).unwrap();
        for (i, (_, p)) in out.iter().enumerate() {
            assert_eq!(p.seq, 9);
            assert_eq!(p.idx, i as u16);
        }
    }

    #[test]
    fn write_is_applied_and_silent() {
        let mut dma = BypassDma::new(PeId(0), 4, 1);
        let mut mem = LocalMemory::new(0, 16);
        let w = Packet::write(PeId(1), ga(0, 5), 42);
        let mut out = Vec::new();
        let done = dma.service(Cycle::new(0), &w, &mut mem, &mut out).unwrap();
        assert_eq!(done, Cycle::new(4));
        assert!(out.is_empty());
        assert_eq!(mem.read(5).unwrap(), 42);
    }

    #[test]
    fn block_read_streams_words_in_order() {
        let mut dma = BypassDma::new(PeId(0), 4, 1);
        let mut mem = LocalMemory::new(0, 64);
        for i in 0..8 {
            mem.write(i, 100 + i).unwrap();
        }
        let req = Packet::read_block_req(PeId(1), ga(0, 0), cont(), 8).unwrap();
        let mut out = Vec::new();
        let done = dma
            .service(Cycle::new(0), &req, &mut mem, &mut out)
            .unwrap();
        assert_eq!(done, Cycle::new(32), "eight pipelined 4-cycle reads");
        assert_eq!(out.len(), 8);
        for (i, (_, p)) in out.iter().enumerate() {
            assert_eq!(p.kind, PacketKind::ReadResp);
            assert_eq!(p.data, 100 + i as u32);
            assert_eq!(p.continuation(), cont());
        }
        // Departures are monotone (OBU serializes) — order on the wire is
        // the deposit order at the requester.
        let times: Vec<Cycle> = out.iter().map(|(t, _)| *t).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn requester_side_deposits_serialize_on_ibu() {
        let mut dma = BypassDma::new(PeId(1), 4, 1);
        let a = dma.ibu_deposit(Cycle::new(10));
        let b = dma.ibu_deposit(Cycle::new(10));
        assert_eq!(a, Cycle::new(14));
        assert_eq!(b, Cycle::new(18));
        assert_eq!(dma.serviced_words, 2);
        assert_eq!(dma.ibu_free(), Cycle::new(18));
    }

    #[test]
    fn probed_service_reports_kind_and_word_count() {
        use emx_core::TraceKind;

        #[derive(Default)]
        struct Rec(Vec<TraceKind>);
        impl Probe for Rec {
            fn on(&mut self, _at: Cycle, pe: PeId, kind: TraceKind) {
                assert_eq!(pe, PeId(0), "DMA events carry the servicing PE");
                self.0.push(kind);
            }
        }

        let mut dma = BypassDma::new(PeId(0), 4, 1);
        let mut mem = LocalMemory::new(0, 64);
        let mut rec = Rec::default();
        let mut out = Vec::new();
        let req = Packet::read_req(PeId(1), ga(0, 0), cont());
        dma.service_probed(Cycle::ZERO, &req, &mut mem, &mut out, Some(&mut rec))
            .unwrap();
        let blk = Packet::read_block_req(PeId(1), ga(0, 0), cont(), 6).unwrap();
        dma.service_probed(Cycle::ZERO, &blk, &mut mem, &mut out, Some(&mut rec))
            .unwrap();
        assert_eq!(
            rec.0,
            vec![
                TraceKind::DmaService {
                    pkt: PacketKind::ReadReq,
                    words: 1
                },
                TraceKind::DmaService {
                    pkt: PacketKind::ReadBlockReq,
                    words: 6
                },
            ]
        );
        // Probe-less calls are the plain service path.
        assert!(dma
            .service_probed(Cycle::ZERO, &req, &mut mem, &mut out, None)
            .is_ok());
        assert_eq!(out.len(), 1 + 6 + 1);
    }

    #[test]
    fn spawn_cannot_be_dma_serviced() {
        let mut dma = BypassDma::new(PeId(0), 4, 1);
        let mut mem = LocalMemory::new(0, 8);
        let sp = Packet::spawn(PeId(1), ga(0, 0), 0);
        let mut out = Vec::new();
        assert!(dma.service(Cycle::ZERO, &sp, &mut mem, &mut out).is_err());
        assert!(out.is_empty());
    }

    #[test]
    fn exu_packets_share_the_obu_timeline() {
        let mut dma = BypassDma::new(PeId(0), 4, 1);
        let mut mem = LocalMemory::new(0, 8);
        let d1 = dma.obu_depart(Cycle::new(10));
        assert_eq!(d1, Cycle::new(11));
        // A DMA response right after must queue behind the EXU packet.
        let req = Packet::read_req(PeId(1), ga(0, 0), cont());
        let mut out = Vec::new();
        dma.service(Cycle::new(0), &req, &mut mem, &mut out)
            .unwrap();
        assert!(out[0].0 > d1);
    }
}
