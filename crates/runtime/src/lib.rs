//! # emx-runtime
//!
//! The EM-X multithreading runtime: threads, activation frames, FIFO
//! hardware scheduling, split-phase remote reads, barriers, and the
//! [`Machine`] facade that drives the whole simulation.
//!
//! ## Execution model
//!
//! "A thread of instructions is ... invoked by using the address portion of
//! the packet just dequeued. The thread will run to completion unless it
//! encounters any remote memory operations or explicit thread switching. If
//! the thread encounters a remote memory operation, it will be suspended
//! after the remote read request is sent out. ... The completion or
//! suspension of a thread causes the next packet to be automatically
//! dequeued from the packet queue using FIFO scheduling." (paper §2.3)
//!
//! Threads come in two flavours:
//!
//! * **ISA threads** execute a [`Program`](emx_isa::Program) template on the
//!   interpreted EMC-Y pipeline — full architectural fidelity, used by the
//!   microkernels and the latency experiments;
//! * **native threads** implement [`ThreadBody`]: Rust state machines that
//!   return one [`Action`] per resumption point and charge explicit cycle
//!   counts, calibrated against the ISA cost table — used by the large
//!   bitonic-sort and FFT workloads where interpreting every instruction
//!   would make paper-scale runs intractable.
//!
//! Both flavours share frames, scheduling, packets, switch accounting and
//! the network, so the timing phenomena the paper studies (latency masking,
//! switch censuses, overlap efficiency) are identical across them.
//!
//! ## Quick start
//!
//! ```
//! use emx_core::{GlobalAddr, MachineConfig, PeId};
//! use emx_runtime::{Action, Machine, ThreadBody, ThreadCtx, WorkKind};
//!
//! /// Read one word from the next processor, double it, store locally.
//! struct Doubler {
//!     step: u8,
//! }
//!
//! impl ThreadBody for Doubler {
//!     fn step(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
//!         self.step += 1;
//!         match self.step {
//!             1 => {
//!                 let mate = PeId((ctx.pe.0 + 1) % ctx.npes as u16);
//!                 Action::Read { addr: GlobalAddr::new(mate, 0).unwrap() }
//!             }
//!             2 => {
//!                 let v = ctx.value.unwrap();
//!                 ctx.mem.write(1, v * 2).unwrap();
//!                 Action::Work { cycles: 3, kind: WorkKind::Compute }
//!             }
//!             _ => Action::End,
//!         }
//!     }
//! }
//!
//! let mut m = Machine::new(MachineConfig::with_pes(4)).unwrap();
//! let entry = m.register_entry("doubler", |_pe, _arg| Box::new(Doubler { step: 0 }));
//! for pe in 0..4u16 {
//!     m.mem_mut(PeId(pe)).unwrap().write(0, 10 + u32::from(pe)).unwrap();
//!     m.spawn_at_start(PeId(pe), entry, 0).unwrap();
//! }
//! let report = m.run().unwrap();
//! assert_eq!(m.mem(PeId(0)).unwrap().read(1).unwrap(), 22); // 2 x PE1's word
//! assert_eq!(report.total_reads(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calendar;
mod driver;
mod machine;
mod snapshot;
mod thread;
mod trace;

pub use machine::{EntryId, Machine, BARRIER_COORDINATOR, DEFAULT_FUEL, FRAME_WORDS};
pub use snapshot::config_digest;
pub use thread::{Action, BarrierId, ThreadBody, ThreadCtx, WorkKind};
pub use trace::{FaultKind, SuspendCause, TraceEvent, TraceKind, TRACE_SCHEMA};

/// The `emx-snap/1` container: the encoder and decoder of the snapshot
/// module on hand-written sections.
#[cfg(test)]
mod tests {
    use emx_core::{Codec, SimError};

    use crate::snapshot::{Reader, Writer};

    fn roundtrip_snapshot() -> String {
        let mut w = Writer::new("00112233445566778899aabbccddeeff");
        let c: &mut dyn Codec = &mut w;
        c.section("clock").unwrap();
        c.u64(&mut 12345).unwrap();
        c.section("names").unwrap();
        for s in ["fft-worker", "", "with space & $ign"] {
            c.str(&mut s.to_string()).unwrap();
        }
        c.section("empty").unwrap();
        c.section("values").unwrap();
        c.u32(&mut 7).unwrap();
        c.u16(&mut 65535).unwrap();
        c.u8(&mut 255).unwrap();
        c.bool(&mut true).unwrap();
        c.bool(&mut false).unwrap();
        w.finish()
    }

    fn reason(err: SimError) -> String {
        match err {
            SimError::SnapshotInvalid { reason } => reason,
            other => panic!("not a snapshot error: {other}"),
        }
    }

    #[test]
    fn roundtrip_preserves_tokens() {
        let text = roundtrip_snapshot();
        let (mut r, config) = Reader::new(&text).unwrap();
        assert_eq!(config, "00112233445566778899aabbccddeeff");
        let c: &mut dyn Codec = &mut r;
        let (mut n, mut s) = (0u64, String::new());
        c.section("clock").unwrap();
        c.u64(&mut n).unwrap();
        assert_eq!(n, 12345);
        c.section("names").unwrap();
        for want in ["fft-worker", "", "with space & $ign"] {
            c.str(&mut s).unwrap();
            assert_eq!(s, want);
        }
        c.section("empty").unwrap();
        c.section("values").unwrap();
        let (mut a, mut b, mut d, mut t, mut f) = (0u32, 0u16, 0u8, false, true);
        c.u32(&mut a).unwrap();
        c.u16(&mut b).unwrap();
        c.u8(&mut d).unwrap();
        c.bool(&mut t).unwrap();
        c.bool(&mut f).unwrap();
        assert_eq!((a, b, d, t, f), (7, 65535, 255, true, false));
        r.finish().unwrap();
    }

    #[test]
    fn writer_output_is_deterministic() {
        assert_eq!(roundtrip_snapshot(), roundtrip_snapshot());
    }

    #[test]
    fn bitflip_is_rejected() {
        // 12345 serializes as hex 3039 in the clock section; the body
        // changes but the stamp does not.
        let flipped = roundtrip_snapshot().replacen("3039", "3038", 1);
        let err = Reader::new(&flipped).err().unwrap();
        assert!(reason(err).contains("digest mismatch"));
    }

    #[test]
    fn truncation_is_rejected() {
        let text = roundtrip_snapshot();
        assert!(Reader::new(&text[..text.len() / 2]).is_err());
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let err = Reader::new("emx-snap/9\n").err().unwrap();
        assert!(reason(err).contains("not an emx-snap/1 snapshot"));
    }

    #[test]
    fn wrong_section_order_is_reported() {
        let text = roundtrip_snapshot();
        let (mut r, _) = Reader::new(&text).unwrap();
        let err = (&mut r as &mut dyn Codec).section("names").unwrap_err();
        assert!(reason(err).contains("expected snapshot section \"names\""));
    }

    #[test]
    fn a_string_token_split_inside_a_character_is_an_error() {
        // `é` is two bytes, so the hex pairs of `$aéb` would split it.
        let text = roundtrip_snapshot();
        let body = &text[..=text.find("\ndigest ").unwrap()];
        let body = body.replacen("$6666742d776f726b6572", "$a\u{e9}b", 1);
        let digest = emx_stats::digest::digest_hex(&body);
        let text = format!("{body}digest {digest}\n");
        let (mut r, _) = Reader::new(&text).unwrap();
        let c: &mut dyn Codec = &mut r;
        c.section("clock").unwrap();
        c.u64(&mut 0).unwrap();
        c.section("names").unwrap();
        let err = c.str(&mut String::new()).unwrap_err();
        assert!(reason(err).contains("bad string token"));
    }

    #[test]
    fn out_of_range_and_surplus_tokens_are_errors() {
        let mut w = Writer::new("0");
        let c: &mut dyn Codec = &mut w;
        c.section("v").unwrap();
        c.u64(&mut (1 << 40)).unwrap();
        c.u64(&mut 2).unwrap();
        let text = w.finish();
        let open = |r: &mut Reader<'_>| (r as &mut dyn Codec).section("v").unwrap();

        let (mut r, _) = Reader::new(&text).unwrap();
        open(&mut r);
        assert!((&mut r as &mut dyn Codec).u16(&mut 0).is_err());

        let (mut r, _) = Reader::new(&text).unwrap();
        open(&mut r);
        (&mut r as &mut dyn Codec).u64(&mut 0).unwrap();
        let err = r.finish().unwrap_err();
        assert!(reason(err).contains("trailing token"));

        let (mut r, _) = Reader::new(&text).unwrap();
        open(&mut r);
        let c: &mut dyn Codec = &mut r;
        c.u64(&mut 0).unwrap();
        c.u64(&mut 0).unwrap();
        assert!(c.u64(&mut 0).is_err(), "reading past the end must error");
    }
}
