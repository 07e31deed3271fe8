//! The instruction set, its cycle costs, and its 32-bit binary encoding.
//!
//! Timing follows the EMC-Y (paper §2.2): every integer instruction is one
//! clock except the register/memory exchange; every single-precision FP
//! instruction is one clock except divide; each of the four send
//! instructions generates a packet in one clock.
//!
//! Encoding formats (32 bits):
//!
//! * **R-type** `[op:6 | rd:5 | rs:5 | rt:5 | 0:11]` — register ALU ops.
//! * **I-type** `[op:6 | rd:5 | rs:5 | imm:16]` — immediates, loads/stores,
//!   branches (rd doubles as the first source for branches; `imm` is the
//!   *absolute* target instruction index).
//! * **J-type** `[op:6 | target:26]` — unconditional jump.

use emx_core::{CostModel, SimError};

use crate::reg::Reg;

/// Numeric opcode of each instruction, as used in the binary encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum Opcode {
    Nop = 0,
    Add = 1,
    Sub = 2,
    Mul = 3,
    Div = 4,
    And = 5,
    Or = 6,
    Xor = 7,
    Sll = 8,
    Srl = 9,
    Sra = 10,
    Slt = 11,
    Sltu = 12,
    Addi = 13,
    Andi = 14,
    Ori = 15,
    Xori = 16,
    Slti = 17,
    Slli = 18,
    Srli = 19,
    Srai = 20,
    Lui = 21,
    FAdd = 22,
    FSub = 23,
    FMul = 24,
    FDiv = 25,
    Itof = 26,
    Ftoi = 27,
    Lw = 28,
    Sw = 29,
    Exch = 30,
    Beq = 31,
    Bne = 32,
    Blt = 33,
    Bge = 34,
    J = 35,
    Rread = 36,
    Rreadb = 37,
    Rwrite = 38,
    Spawn = 39,
    End = 40,
    Yield = 41,
}

impl Opcode {
    /// Decode an opcode from its 6-bit field.
    pub fn decode(code: u8) -> Result<Opcode, SimError> {
        use Opcode::*;
        const TABLE: [Opcode; 42] = [
            Nop, Add, Sub, Mul, Div, And, Or, Xor, Sll, Srl, Sra, Slt, Sltu, Addi, Andi, Ori, Xori,
            Slti, Slli, Srli, Srai, Lui, FAdd, FSub, FMul, FDiv, Itof, Ftoi, Lw, Sw, Exch, Beq,
            Bne, Blt, Bge, J, Rread, Rreadb, Rwrite, Spawn, End, Yield,
        ];
        TABLE
            .get(code as usize)
            .copied()
            .ok_or_else(|| SimError::IsaFault {
                reason: format!("unassigned opcode {code}"),
            })
    }
}

/// One EMC-Y instruction.
///
/// Register conventions: `rd` is the destination, `rs`/`rt` are sources,
/// except for stores (`Sw { src, base, imm }`) and sends, which name their
/// operands explicitly.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)]
pub enum Instr {
    /// No operation (one clock).
    Nop,
    // ---- integer register ALU (one clock each) ----
    Add {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Sub {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Mul {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    /// Signed division; divide-by-zero produces 0 (the EMC-Y traps; the
    /// simulator's kernels never divide by zero and a defined result keeps
    /// the interpreter total).
    Div {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    And {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Or {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Xor {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    /// Shift left logical by `rt & 31`.
    Sll {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Srl {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Sra {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    /// Set `rd` to 1 if `rs < rt` signed, else 0.
    Slt {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    Sltu {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    // ---- integer immediate ALU (one clock each) ----
    Addi {
        rd: Reg,
        rs: Reg,
        imm: i16,
    },
    Andi {
        rd: Reg,
        rs: Reg,
        imm: i16,
    },
    Ori {
        rd: Reg,
        rs: Reg,
        imm: i16,
    },
    Xori {
        rd: Reg,
        rs: Reg,
        imm: i16,
    },
    Slti {
        rd: Reg,
        rs: Reg,
        imm: i16,
    },
    /// Shift left logical by `imm & 31`.
    Slli {
        rd: Reg,
        rs: Reg,
        imm: i16,
    },
    Srli {
        rd: Reg,
        rs: Reg,
        imm: i16,
    },
    Srai {
        rd: Reg,
        rs: Reg,
        imm: i16,
    },
    /// `rd = (imm as u32) << 16`.
    Lui {
        rd: Reg,
        imm: i16,
    },
    // ---- single-precision floating point (one clock, except divide) ----
    FAdd {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    FSub {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    FMul {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    /// The one multi-cycle FP instruction (`CostModel::fdiv`).
    FDiv {
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    /// Convert signed integer in `rs` to f32 bits in `rd`.
    Itof {
        rd: Reg,
        rs: Reg,
    },
    /// Convert f32 bits in `rs` to a (truncated) signed integer in `rd`.
    Ftoi {
        rd: Reg,
        rs: Reg,
    },
    // ---- local memory ----
    /// `rd = mem[rs + imm]` (word offset).
    Lw {
        rd: Reg,
        base: Reg,
        imm: i16,
    },
    /// `mem[base + imm] = src`.
    Sw {
        src: Reg,
        base: Reg,
        imm: i16,
    },
    /// Atomically exchange `rd` with `mem[rs]` — the one multi-cycle integer
    /// instruction (`CostModel::mem_exchange`).
    Exch {
        rd: Reg,
        addr: Reg,
    },
    // ---- control flow (targets are absolute instruction indices) ----
    Beq {
        rs: Reg,
        rt: Reg,
        target: u16,
    },
    Bne {
        rs: Reg,
        rt: Reg,
        target: u16,
    },
    /// Branch if `rs < rt` signed.
    Blt {
        rs: Reg,
        rt: Reg,
        target: u16,
    },
    Bge {
        rs: Reg,
        rt: Reg,
        target: u16,
    },
    J {
        target: u32,
    },
    // ---- the four send instructions (one clock each, §2.2) ----
    /// Split-phase remote read: request the word at the global address in
    /// `gaddr`; the thread suspends and the value arrives in `rd`.
    Rread {
        rd: Reg,
        gaddr: Reg,
    },
    /// Block remote read: request `len` consecutive words starting at the
    /// global address in `gaddr`, deposited into local memory starting at
    /// the word offset in `local`; the thread suspends until all arrive.
    Rreadb {
        gaddr: Reg,
        local: Reg,
        len: u16,
    },
    /// Remote write of `val` to the global address in `gaddr`; the thread
    /// continues (remote writes do not suspend, §2.3).
    Rwrite {
        gaddr: Reg,
        val: Reg,
    },
    /// Spawn a thread: send an invocation packet to the entry global address
    /// in `entry` with argument `arg`.
    Spawn {
        entry: Reg,
        arg: Reg,
    },
    // ---- thread control ----
    /// Thread completes; the processor dequeues the next packet.
    End,
    /// Explicit thread switch: suspend and re-enqueue this thread.
    Yield,
}

impl Instr {
    /// The opcode of this instruction.
    pub fn opcode(&self) -> Opcode {
        use Instr::*;
        match self {
            Nop => Opcode::Nop,
            Add { .. } => Opcode::Add,
            Sub { .. } => Opcode::Sub,
            Mul { .. } => Opcode::Mul,
            Div { .. } => Opcode::Div,
            And { .. } => Opcode::And,
            Or { .. } => Opcode::Or,
            Xor { .. } => Opcode::Xor,
            Sll { .. } => Opcode::Sll,
            Srl { .. } => Opcode::Srl,
            Sra { .. } => Opcode::Sra,
            Slt { .. } => Opcode::Slt,
            Sltu { .. } => Opcode::Sltu,
            Addi { .. } => Opcode::Addi,
            Andi { .. } => Opcode::Andi,
            Ori { .. } => Opcode::Ori,
            Xori { .. } => Opcode::Xori,
            Slti { .. } => Opcode::Slti,
            Slli { .. } => Opcode::Slli,
            Srli { .. } => Opcode::Srli,
            Srai { .. } => Opcode::Srai,
            Lui { .. } => Opcode::Lui,
            FAdd { .. } => Opcode::FAdd,
            FSub { .. } => Opcode::FSub,
            FMul { .. } => Opcode::FMul,
            FDiv { .. } => Opcode::FDiv,
            Itof { .. } => Opcode::Itof,
            Ftoi { .. } => Opcode::Ftoi,
            Lw { .. } => Opcode::Lw,
            Sw { .. } => Opcode::Sw,
            Exch { .. } => Opcode::Exch,
            Beq { .. } => Opcode::Beq,
            Bne { .. } => Opcode::Bne,
            Blt { .. } => Opcode::Blt,
            Bge { .. } => Opcode::Bge,
            J { .. } => Opcode::J,
            Rread { .. } => Opcode::Rread,
            Rreadb { .. } => Opcode::Rreadb,
            Rwrite { .. } => Opcode::Rwrite,
            Spawn { .. } => Opcode::Spawn,
            End => Opcode::End,
            Yield => Opcode::Yield,
        }
    }

    /// Cycle cost of this instruction under the given cost model.
    ///
    /// Everything is one clock except FP divide, the memory exchange, and
    /// whatever `CostModel` says about send instructions (default: one).
    pub fn cost(&self, costs: &CostModel) -> u32 {
        match self {
            Instr::FDiv { .. } => costs.fdiv,
            Instr::Exch { .. } => costs.mem_exchange,
            Instr::Rread { .. }
            | Instr::Rreadb { .. }
            | Instr::Rwrite { .. }
            | Instr::Spawn { .. } => costs.send_packet,
            _ => 1,
        }
    }

    /// Whether executing this instruction suspends the thread.
    pub fn suspends(&self) -> bool {
        matches!(
            self,
            Instr::Rread { .. } | Instr::Rreadb { .. } | Instr::Yield | Instr::End
        )
    }

    /// Encode into the 32-bit binary form.
    pub fn encode(&self) -> u32 {
        use Instr::*;
        let op = |o: Opcode| (o as u32) << 26;
        let r3 = |o: Opcode, rd: Reg, rs: Reg, rt: Reg| {
            op(o) | (rd.num() as u32) << 21 | (rs.num() as u32) << 16 | (rt.num() as u32) << 11
        };
        let i16f = |o: Opcode, rd: Reg, rs: Reg, imm: i16| {
            op(o) | (rd.num() as u32) << 21 | (rs.num() as u32) << 16 | (imm as u16 as u32)
        };
        match *self {
            Nop => op(Opcode::Nop),
            Add { rd, rs, rt } => r3(Opcode::Add, rd, rs, rt),
            Sub { rd, rs, rt } => r3(Opcode::Sub, rd, rs, rt),
            Mul { rd, rs, rt } => r3(Opcode::Mul, rd, rs, rt),
            Div { rd, rs, rt } => r3(Opcode::Div, rd, rs, rt),
            And { rd, rs, rt } => r3(Opcode::And, rd, rs, rt),
            Or { rd, rs, rt } => r3(Opcode::Or, rd, rs, rt),
            Xor { rd, rs, rt } => r3(Opcode::Xor, rd, rs, rt),
            Sll { rd, rs, rt } => r3(Opcode::Sll, rd, rs, rt),
            Srl { rd, rs, rt } => r3(Opcode::Srl, rd, rs, rt),
            Sra { rd, rs, rt } => r3(Opcode::Sra, rd, rs, rt),
            Slt { rd, rs, rt } => r3(Opcode::Slt, rd, rs, rt),
            Sltu { rd, rs, rt } => r3(Opcode::Sltu, rd, rs, rt),
            Addi { rd, rs, imm } => i16f(Opcode::Addi, rd, rs, imm),
            Andi { rd, rs, imm } => i16f(Opcode::Andi, rd, rs, imm),
            Ori { rd, rs, imm } => i16f(Opcode::Ori, rd, rs, imm),
            Xori { rd, rs, imm } => i16f(Opcode::Xori, rd, rs, imm),
            Slti { rd, rs, imm } => i16f(Opcode::Slti, rd, rs, imm),
            Slli { rd, rs, imm } => i16f(Opcode::Slli, rd, rs, imm),
            Srli { rd, rs, imm } => i16f(Opcode::Srli, rd, rs, imm),
            Srai { rd, rs, imm } => i16f(Opcode::Srai, rd, rs, imm),
            Lui { rd, imm } => i16f(Opcode::Lui, rd, Reg::ZERO, imm),
            FAdd { rd, rs, rt } => r3(Opcode::FAdd, rd, rs, rt),
            FSub { rd, rs, rt } => r3(Opcode::FSub, rd, rs, rt),
            FMul { rd, rs, rt } => r3(Opcode::FMul, rd, rs, rt),
            FDiv { rd, rs, rt } => r3(Opcode::FDiv, rd, rs, rt),
            Itof { rd, rs } => r3(Opcode::Itof, rd, rs, Reg::ZERO),
            Ftoi { rd, rs } => r3(Opcode::Ftoi, rd, rs, Reg::ZERO),
            Lw { rd, base, imm } => i16f(Opcode::Lw, rd, base, imm),
            Sw { src, base, imm } => i16f(Opcode::Sw, src, base, imm),
            Exch { rd, addr } => r3(Opcode::Exch, rd, addr, Reg::ZERO),
            Beq { rs, rt, target } => i16f(Opcode::Beq, rs, rt, target as i16),
            Bne { rs, rt, target } => i16f(Opcode::Bne, rs, rt, target as i16),
            Blt { rs, rt, target } => i16f(Opcode::Blt, rs, rt, target as i16),
            Bge { rs, rt, target } => i16f(Opcode::Bge, rs, rt, target as i16),
            J { target } => op(Opcode::J) | (target & 0x03FF_FFFF),
            Rread { rd, gaddr } => r3(Opcode::Rread, rd, gaddr, Reg::ZERO),
            Rreadb { gaddr, local, len } => i16f(Opcode::Rreadb, local, gaddr, len as i16),
            Rwrite { gaddr, val } => r3(Opcode::Rwrite, Reg::ZERO, gaddr, val),
            Spawn { entry, arg } => r3(Opcode::Spawn, Reg::ZERO, entry, arg),
            End => op(Opcode::End),
            Yield => op(Opcode::Yield),
        }
    }

    /// Decode from the 32-bit binary form.
    pub fn decode(word: u32) -> Result<Instr, SimError> {
        let opcode = Opcode::decode((word >> 26) as u8)?;
        let reg = |shift: u32| -> Result<Reg, SimError> {
            Reg::try_r(((word >> shift) & 0x1F) as u8).ok_or_else(|| SimError::IsaFault {
                reason: "register field out of range".into(),
            })
        };
        let rd = reg(21)?;
        let rs = reg(16)?;
        let rt = reg(11)?;
        let imm = word as u16 as i16;
        use Instr::*;
        Ok(match opcode {
            Opcode::Nop => Nop,
            Opcode::Add => Add { rd, rs, rt },
            Opcode::Sub => Sub { rd, rs, rt },
            Opcode::Mul => Mul { rd, rs, rt },
            Opcode::Div => Div { rd, rs, rt },
            Opcode::And => And { rd, rs, rt },
            Opcode::Or => Or { rd, rs, rt },
            Opcode::Xor => Xor { rd, rs, rt },
            Opcode::Sll => Sll { rd, rs, rt },
            Opcode::Srl => Srl { rd, rs, rt },
            Opcode::Sra => Sra { rd, rs, rt },
            Opcode::Slt => Slt { rd, rs, rt },
            Opcode::Sltu => Sltu { rd, rs, rt },
            Opcode::Addi => Addi { rd, rs, imm },
            Opcode::Andi => Andi { rd, rs, imm },
            Opcode::Ori => Ori { rd, rs, imm },
            Opcode::Xori => Xori { rd, rs, imm },
            Opcode::Slti => Slti { rd, rs, imm },
            Opcode::Slli => Slli { rd, rs, imm },
            Opcode::Srli => Srli { rd, rs, imm },
            Opcode::Srai => Srai { rd, rs, imm },
            Opcode::Lui => Lui { rd, imm },
            Opcode::FAdd => FAdd { rd, rs, rt },
            Opcode::FSub => FSub { rd, rs, rt },
            Opcode::FMul => FMul { rd, rs, rt },
            Opcode::FDiv => FDiv { rd, rs, rt },
            Opcode::Itof => Itof { rd, rs },
            Opcode::Ftoi => Ftoi { rd, rs },
            Opcode::Lw => Lw { rd, base: rs, imm },
            Opcode::Sw => Sw {
                src: rd,
                base: rs,
                imm,
            },
            Opcode::Exch => Exch { rd, addr: rs },
            Opcode::Beq => Beq {
                rs: rd,
                rt: rs,
                target: imm as u16,
            },
            Opcode::Bne => Bne {
                rs: rd,
                rt: rs,
                target: imm as u16,
            },
            Opcode::Blt => Blt {
                rs: rd,
                rt: rs,
                target: imm as u16,
            },
            Opcode::Bge => Bge {
                rs: rd,
                rt: rs,
                target: imm as u16,
            },
            Opcode::J => J {
                target: word & 0x03FF_FFFF,
            },
            Opcode::Rread => Rread { rd, gaddr: rs },
            Opcode::Rreadb => Rreadb {
                gaddr: rs,
                local: rd,
                len: imm as u16,
            },
            Opcode::Rwrite => Rwrite { gaddr: rs, val: rt },
            Opcode::Spawn => Spawn { entry: rs, arg: rt },
            Opcode::End => End,
            Opcode::Yield => Yield,
        })
    }
}

impl std::fmt::Display for Instr {
    /// Disassemble into the text-assembler syntax. Branch and jump targets
    /// print as numeric labels `Ln`, which [`crate::assemble`] accepts when
    /// a matching `Ln:` label exists (see [`crate::Program::disassemble`]
    /// for whole-program listings that emit those labels).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use Instr::*;
        match *self {
            Nop => write!(f, "nop"),
            Add { rd, rs, rt } => write!(f, "add {rd}, {rs}, {rt}"),
            Sub { rd, rs, rt } => write!(f, "sub {rd}, {rs}, {rt}"),
            Mul { rd, rs, rt } => write!(f, "mul {rd}, {rs}, {rt}"),
            Div { rd, rs, rt } => write!(f, "div {rd}, {rs}, {rt}"),
            And { rd, rs, rt } => write!(f, "and {rd}, {rs}, {rt}"),
            Or { rd, rs, rt } => write!(f, "or {rd}, {rs}, {rt}"),
            Xor { rd, rs, rt } => write!(f, "xor {rd}, {rs}, {rt}"),
            Sll { rd, rs, rt } => write!(f, "sll {rd}, {rs}, {rt}"),
            Srl { rd, rs, rt } => write!(f, "srl {rd}, {rs}, {rt}"),
            Sra { rd, rs, rt } => write!(f, "sra {rd}, {rs}, {rt}"),
            Slt { rd, rs, rt } => write!(f, "slt {rd}, {rs}, {rt}"),
            Sltu { rd, rs, rt } => write!(f, "sltu {rd}, {rs}, {rt}"),
            Addi { rd, rs, imm } => write!(f, "addi {rd}, {rs}, {imm}"),
            Andi { rd, rs, imm } => write!(f, "andi {rd}, {rs}, {imm}"),
            Ori { rd, rs, imm } => write!(f, "ori {rd}, {rs}, {imm}"),
            Xori { rd, rs, imm } => write!(f, "xori {rd}, {rs}, {imm}"),
            Slti { rd, rs, imm } => write!(f, "slti {rd}, {rs}, {imm}"),
            Slli { rd, rs, imm } => write!(f, "slli {rd}, {rs}, {imm}"),
            Srli { rd, rs, imm } => write!(f, "srli {rd}, {rs}, {imm}"),
            Srai { rd, rs, imm } => write!(f, "srai {rd}, {rs}, {imm}"),
            Lui { rd, imm } => write!(f, "lui {rd}, {imm}"),
            FAdd { rd, rs, rt } => write!(f, "fadd {rd}, {rs}, {rt}"),
            FSub { rd, rs, rt } => write!(f, "fsub {rd}, {rs}, {rt}"),
            FMul { rd, rs, rt } => write!(f, "fmul {rd}, {rs}, {rt}"),
            FDiv { rd, rs, rt } => write!(f, "fdiv {rd}, {rs}, {rt}"),
            Itof { rd, rs } => write!(f, "itof {rd}, {rs}"),
            Ftoi { rd, rs } => write!(f, "ftoi {rd}, {rs}"),
            Lw { rd, base, imm } => write!(f, "lw {rd}, {base}, {imm}"),
            Sw { src, base, imm } => write!(f, "sw {src}, {base}, {imm}"),
            Exch { rd, addr } => write!(f, "exch {rd}, {addr}"),
            Beq { rs, rt, target } => write!(f, "beq {rs}, {rt}, L{target}"),
            Bne { rs, rt, target } => write!(f, "bne {rs}, {rt}, L{target}"),
            Blt { rs, rt, target } => write!(f, "blt {rs}, {rt}, L{target}"),
            Bge { rs, rt, target } => write!(f, "bge {rs}, {rt}, L{target}"),
            J { target } => write!(f, "j L{target}"),
            Rread { rd, gaddr } => write!(f, "rread {rd}, {gaddr}"),
            Rreadb { gaddr, local, len } => write!(f, "rreadb {gaddr}, {local}, {len}"),
            Rwrite { gaddr, val } => write!(f, "rwrite {gaddr}, {val}"),
            Spawn { entry, arg } => write!(f, "spawn {entry}, {arg}"),
            End => write!(f, "end"),
            Yield => write!(f, "yield"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u8) -> Reg {
        Reg::r(n)
    }

    fn samples() -> Vec<Instr> {
        use Instr::*;
        vec![
            Nop,
            Add {
                rd: r(5),
                rs: r(6),
                rt: r(7),
            },
            Sub {
                rd: r(31),
                rs: r(0),
                rt: r(1),
            },
            Mul {
                rd: r(8),
                rs: r(8),
                rt: r(8),
            },
            Div {
                rd: r(9),
                rs: r(10),
                rt: r(11),
            },
            And {
                rd: r(5),
                rs: r(6),
                rt: r(7),
            },
            Or {
                rd: r(5),
                rs: r(6),
                rt: r(7),
            },
            Xor {
                rd: r(5),
                rs: r(6),
                rt: r(7),
            },
            Sll {
                rd: r(5),
                rs: r(6),
                rt: r(7),
            },
            Srl {
                rd: r(5),
                rs: r(6),
                rt: r(7),
            },
            Sra {
                rd: r(5),
                rs: r(6),
                rt: r(7),
            },
            Slt {
                rd: r(5),
                rs: r(6),
                rt: r(7),
            },
            Sltu {
                rd: r(5),
                rs: r(6),
                rt: r(7),
            },
            Addi {
                rd: r(5),
                rs: r(6),
                imm: -32768,
            },
            Andi {
                rd: r(5),
                rs: r(6),
                imm: 32767,
            },
            Ori {
                rd: r(5),
                rs: r(6),
                imm: 255,
            },
            Xori {
                rd: r(5),
                rs: r(6),
                imm: -1,
            },
            Slti {
                rd: r(5),
                rs: r(6),
                imm: 0,
            },
            Slli {
                rd: r(5),
                rs: r(6),
                imm: 31,
            },
            Srli {
                rd: r(5),
                rs: r(6),
                imm: 1,
            },
            Srai {
                rd: r(5),
                rs: r(6),
                imm: 2,
            },
            Lui {
                rd: r(5),
                imm: 0x7FFF,
            },
            FAdd {
                rd: r(5),
                rs: r(6),
                rt: r(7),
            },
            FSub {
                rd: r(5),
                rs: r(6),
                rt: r(7),
            },
            FMul {
                rd: r(5),
                rs: r(6),
                rt: r(7),
            },
            FDiv {
                rd: r(5),
                rs: r(6),
                rt: r(7),
            },
            Itof { rd: r(5), rs: r(6) },
            Ftoi { rd: r(5), rs: r(6) },
            Lw {
                rd: r(5),
                base: r(3),
                imm: 12,
            },
            Sw {
                src: r(5),
                base: r(3),
                imm: -4,
            },
            Exch {
                rd: r(5),
                addr: r(6),
            },
            Beq {
                rs: r(5),
                rt: r(6),
                target: 100,
            },
            Bne {
                rs: r(5),
                rt: r(6),
                target: 0,
            },
            Blt {
                rs: r(5),
                rt: r(6),
                target: 65535,
            },
            Bge {
                rs: r(5),
                rt: r(6),
                target: 7,
            },
            J {
                target: 0x03FF_FFFF,
            },
            Rread {
                rd: r(5),
                gaddr: r(6),
            },
            Rreadb {
                gaddr: r(6),
                local: r(7),
                len: 64,
            },
            Rwrite {
                gaddr: r(6),
                val: r(7),
            },
            Spawn {
                entry: r(6),
                arg: r(7),
            },
            End,
            Yield,
        ]
    }

    #[test]
    fn encode_decode_roundtrip_every_instruction() {
        for ins in samples() {
            let back = Instr::decode(ins.encode())
                .unwrap_or_else(|e| panic!("decode failed for {ins:?}: {e}"));
            assert_eq!(back, ins, "roundtrip mangled {ins:?}");
        }
    }

    #[test]
    fn opcodes_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for ins in samples() {
            seen.insert(ins.opcode() as u8);
        }
        assert_eq!(seen.len(), samples().len(), "duplicate opcode assignment");
    }

    #[test]
    fn decode_rejects_unassigned_opcode() {
        assert!(Instr::decode(63u32 << 26).is_err());
    }

    #[test]
    fn costs_follow_the_paper() {
        let cm = CostModel::default();
        // "All integer instructions take one clock cycle" ...
        assert_eq!(
            Instr::Add {
                rd: r(5),
                rs: r(6),
                rt: r(7)
            }
            .cost(&cm),
            1
        );
        assert_eq!(
            Instr::Mul {
                rd: r(5),
                rs: r(6),
                rt: r(7)
            }
            .cost(&cm),
            1
        );
        // ... "with the exception of an instruction which exchanges the
        // content of a register with the content of memory."
        assert_eq!(
            Instr::Exch {
                rd: r(5),
                addr: r(6)
            }
            .cost(&cm),
            cm.mem_exchange
        );
        // "Single precision floating point instructions are also executed in
        // one clock, except floating point division."
        assert_eq!(
            Instr::FMul {
                rd: r(5),
                rs: r(6),
                rt: r(7)
            }
            .cost(&cm),
            1
        );
        assert_eq!(
            Instr::FDiv {
                rd: r(5),
                rs: r(6),
                rt: r(7)
            }
            .cost(&cm),
            cm.fdiv
        );
        // "Packet generation ... takes one clock."
        assert_eq!(
            Instr::Rread {
                rd: r(5),
                gaddr: r(6)
            }
            .cost(&cm),
            1
        );
        assert_eq!(
            Instr::Spawn {
                entry: r(5),
                arg: r(6)
            }
            .cost(&cm),
            1
        );
    }

    #[test]
    fn suspension_set_is_exactly_reads_yield_end() {
        for ins in samples() {
            let expect = matches!(
                ins,
                Instr::Rread { .. } | Instr::Rreadb { .. } | Instr::Yield | Instr::End
            );
            assert_eq!(ins.suspends(), expect, "{ins:?}");
        }
    }
}
