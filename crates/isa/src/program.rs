//! Programs (template segments) and the label-resolving builder.
//!
//! "The compiled functions are stored in template segments" (paper §2.3); a
//! [`Program`] is one template — a named, immutable sequence of instructions
//! that threads execute from their own activation frames.

use std::collections::HashMap;

use emx_core::{CostModel, SimError};

use crate::instr::Instr;
use crate::reg::Reg;

/// An immutable instruction sequence (one template segment).
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Human-readable template name, for traces and errors.
    pub name: String,
    instrs: Vec<Instr>,
}

impl Program {
    /// Wrap a raw instruction vector.
    pub fn new(name: impl Into<String>, instrs: Vec<Instr>) -> Self {
        Program {
            name: name.into(),
            instrs,
        }
    }

    /// The instruction at `pc`, or an ISA fault if `pc` ran off the end.
    pub fn fetch(&self, pc: u32) -> Result<Instr, SimError> {
        self.instrs
            .get(pc as usize)
            .copied()
            .ok_or_else(|| SimError::IsaFault {
                reason: format!("pc {pc} past end of template {:?}", self.name),
            })
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The raw instruction slice.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Total cycle cost of a straight-line execution of the whole template —
    /// the *run length* of a thread that never branches backwards. The paper
    /// characterizes threads by exactly this quantity.
    pub fn straight_line_cost(&self, costs: &CostModel) -> u64 {
        self.instrs.iter().map(|i| u64::from(i.cost(costs))).sum()
    }

    /// Encode the whole template to binary words.
    pub fn encode(&self) -> Vec<u32> {
        self.instrs.iter().map(Instr::encode).collect()
    }

    /// Disassemble into text the assembler accepts: every instruction
    /// position that is a branch or jump target gets an `Ln:` label, and
    /// branch operands reference those labels. `assemble(disassemble(p))`
    /// reproduces the program exactly (tested).
    pub fn disassemble(&self) -> String {
        use std::collections::BTreeSet;
        use std::fmt::Write as _;
        let mut targets: BTreeSet<u32> = BTreeSet::new();
        for ins in &self.instrs {
            match *ins {
                Instr::Beq { target, .. }
                | Instr::Bne { target, .. }
                | Instr::Blt { target, .. }
                | Instr::Bge { target, .. } => {
                    targets.insert(u32::from(target));
                }
                Instr::J { target } => {
                    targets.insert(target);
                }
                _ => {}
            }
        }
        let mut out = String::new();
        for (i, ins) in self.instrs.iter().enumerate() {
            if targets.contains(&(i as u32)) {
                let _ = writeln!(out, "L{i}:");
            }
            let _ = writeln!(out, "    {ins}");
        }
        // A target one past the end (legal for a trailing branch that is
        // never taken backwards) still needs its label.
        if targets.contains(&(self.instrs.len() as u32)) {
            let _ = writeln!(out, "L{}:", self.instrs.len());
        }
        out
    }

    /// Decode a template from binary words.
    pub fn decode(name: impl Into<String>, words: &[u32]) -> Result<Self, SimError> {
        let instrs = words
            .iter()
            .map(|&w| Instr::decode(w))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Program::new(name, instrs))
    }
}

/// A pending branch/jump target: a named label resolved at build time.
#[derive(Debug, Clone)]
enum Target {
    Label(String),
}

/// Instruction with possibly-unresolved target.
#[derive(Debug, Clone)]
enum Pending {
    Ready(Instr),
    Beq(Reg, Reg, Target),
    Bne(Reg, Reg, Target),
    Blt(Reg, Reg, Target),
    Bge(Reg, Reg, Target),
    Jmp(Target),
}

/// A programmatic builder with named labels.
///
/// ```
/// use emx_isa::{ProgramBuilder, Reg, Instr};
///
/// let r5 = Reg::r(5);
/// let mut b = ProgramBuilder::new("count_down");
/// b.addi(r5, Reg::ZERO, 10);
/// b.label("loop");
/// b.addi(r5, r5, -1);
/// b.bne(r5, Reg::ZERO, "loop");
/// b.end();
/// let prog = b.build().unwrap();
/// assert_eq!(prog.len(), 4);
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    pending: Vec<Pending>,
    labels: HashMap<String, u32>,
}

impl ProgramBuilder {
    /// Start building a template named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            pending: Vec::new(),
            labels: HashMap::new(),
        }
    }

    /// Define a label at the current position. Redefinition is an error at
    /// [`build`](Self::build) time.
    pub fn label(&mut self, name: impl Into<String>) -> &mut Self {
        let name = name.into();
        // Duplicate definitions are caught at build time by keeping the
        // first and recording a poison entry.
        let at = self.pending.len() as u32;
        if self.labels.insert(name.clone(), at).is_some() {
            self.labels.insert(format!("\u{0}dup\u{0}{name}"), at);
        }
        self
    }

    /// Append a raw instruction.
    pub fn push(&mut self, ins: Instr) -> &mut Self {
        self.pending.push(Pending::Ready(ins));
        self
    }

    /// Current instruction index (where the next instruction will land).
    pub fn here(&self) -> u32 {
        self.pending.len() as u32
    }

    /// Resolve labels and produce the [`Program`].
    pub fn build(self) -> Result<Program, SimError> {
        if let Some(dup) = self.labels.keys().find(|k| k.starts_with('\u{0}')) {
            let pretty = dup
                .trim_start_matches('\u{0}')
                .trim_start_matches("dup\u{0}");
            return Err(SimError::IsaFault {
                reason: format!("label {pretty:?} defined twice in {:?}", self.name),
            });
        }
        let resolve = |t: &Target| -> Result<u32, SimError> {
            let Target::Label(l) = t;
            self.labels
                .get(l)
                .copied()
                .ok_or_else(|| SimError::IsaFault {
                    reason: format!("undefined label {l:?} in {:?}", self.name),
                })
        };
        let branch_target = |t: &Target| -> Result<u16, SimError> {
            let a = resolve(t)?;
            u16::try_from(a).map_err(|_| SimError::IsaFault {
                reason: format!("branch target {a} exceeds 16 bits in {:?}", self.name),
            })
        };
        let mut instrs = Vec::with_capacity(self.pending.len());
        for p in &self.pending {
            instrs.push(match p {
                Pending::Ready(i) => *i,
                Pending::Beq(rs, rt, t) => Instr::Beq {
                    rs: *rs,
                    rt: *rt,
                    target: branch_target(t)?,
                },
                Pending::Bne(rs, rt, t) => Instr::Bne {
                    rs: *rs,
                    rt: *rt,
                    target: branch_target(t)?,
                },
                Pending::Blt(rs, rt, t) => Instr::Blt {
                    rs: *rs,
                    rt: *rt,
                    target: branch_target(t)?,
                },
                Pending::Bge(rs, rt, t) => Instr::Bge {
                    rs: *rs,
                    rt: *rt,
                    target: branch_target(t)?,
                },
                Pending::Jmp(t) => Instr::J {
                    target: resolve(t)?,
                },
            });
        }
        Ok(Program::new(self.name, instrs))
    }
}

/// Generate a fluent builder method per instruction shape.
macro_rules! r3_methods {
    ($($(#[$doc:meta])* $m:ident => $v:ident),* $(,)?) => {
        impl ProgramBuilder {
            $(
                $(#[$doc])*
                pub fn $m(&mut self, rd: Reg, rs: Reg, rt: Reg) -> &mut Self {
                    self.push(Instr::$v { rd, rs, rt })
                }
            )*
        }
    };
}

r3_methods! {
    /// `rd = rs + rt`
    add => Add,
    /// `rd = rs - rt`
    sub => Sub,
    /// `rd = rs * rt`
    mul => Mul,
    /// `rd = rs / rt` (signed; 0 on divide-by-zero)
    div => Div,
    /// `rd = rs & rt`
    and => And,
    /// `rd = rs | rt`
    or => Or,
    /// `rd = rs ^ rt`
    xor => Xor,
    /// `rd = rs << (rt & 31)`
    sll => Sll,
    /// `rd = rs >> (rt & 31)` logical
    srl => Srl,
    /// `rd = rs >> (rt & 31)` arithmetic
    sra => Sra,
    /// `rd = (rs < rt) as u32`, signed
    slt => Slt,
    /// `rd = (rs < rt) as u32`, unsigned
    sltu => Sltu,
    /// `rd = rs +f rt` (f32)
    fadd => FAdd,
    /// `rd = rs -f rt` (f32)
    fsub => FSub,
    /// `rd = rs *f rt` (f32)
    fmul => FMul,
    /// `rd = rs /f rt` (f32; the one multi-cycle FP op)
    fdiv => FDiv,
}

macro_rules! imm_methods {
    ($($(#[$doc:meta])* $m:ident => $v:ident),* $(,)?) => {
        impl ProgramBuilder {
            $(
                $(#[$doc])*
                pub fn $m(&mut self, rd: Reg, rs: Reg, imm: i16) -> &mut Self {
                    self.push(Instr::$v { rd, rs, imm })
                }
            )*
        }
    };
}

imm_methods! {
    /// `rd = rs + imm`
    addi => Addi,
    /// `rd = rs & imm` (zero-extended mask)
    andi => Andi,
    /// `rd = rs | imm`
    ori => Ori,
    /// `rd = rs ^ imm`
    xori => Xori,
    /// `rd = (rs < imm) as u32`, signed
    slti => Slti,
    /// `rd = rs << (imm & 31)`
    slli => Slli,
    /// `rd = rs >> (imm & 31)` logical
    srli => Srli,
    /// `rd = rs >> (imm & 31)` arithmetic
    srai => Srai,
}

impl ProgramBuilder {
    /// `rd = imm << 16`
    pub fn lui(&mut self, rd: Reg, imm: i16) -> &mut Self {
        self.push(Instr::Lui { rd, imm })
    }

    /// Load a full 32-bit constant (pseudo-instruction: `lui` + `ori`, or a
    /// single `addi` when the value fits 15 bits).
    pub fn li32(&mut self, rd: Reg, value: u32) -> &mut Self {
        if (value as i32) >= -(1 << 15) && (value as i32) < (1 << 15) {
            return self.addi(rd, Reg::ZERO, value as i32 as i16);
        }
        self.lui(rd, (value >> 16) as i16);
        if value & 0xFFFF != 0 {
            // ori zero-extends its immediate, so one instruction fills the
            // low half exactly.
            self.ori(rd, rd, (value & 0xFFFF) as u16 as i16);
        }
        self
    }

    /// `rd = f32 constant` (pseudo-instruction via [`li32`](Self::li32)).
    pub fn lif(&mut self, rd: Reg, value: f32) -> &mut Self {
        self.li32(rd, value.to_bits())
    }

    /// `rd = rs as f32`
    pub fn itof(&mut self, rd: Reg, rs: Reg) -> &mut Self {
        self.push(Instr::Itof { rd, rs })
    }

    /// `rd = trunc(rs: f32) as i32`
    pub fn ftoi(&mut self, rd: Reg, rs: Reg) -> &mut Self {
        self.push(Instr::Ftoi { rd, rs })
    }

    /// `rd = mem[base + imm]`
    pub fn lw(&mut self, rd: Reg, base: Reg, imm: i16) -> &mut Self {
        self.push(Instr::Lw { rd, base, imm })
    }

    /// `mem[base + imm] = src`
    pub fn sw(&mut self, src: Reg, base: Reg, imm: i16) -> &mut Self {
        self.push(Instr::Sw { src, base, imm })
    }

    /// Exchange `rd` with `mem[addr]` (multi-cycle).
    pub fn exch(&mut self, rd: Reg, addr: Reg) -> &mut Self {
        self.push(Instr::Exch { rd, addr })
    }

    /// Branch to `label` if `rs == rt`.
    pub fn beq(&mut self, rs: Reg, rt: Reg, label: impl Into<String>) -> &mut Self {
        self.pending
            .push(Pending::Beq(rs, rt, Target::Label(label.into())));
        self
    }

    /// Branch to `label` if `rs != rt`.
    pub fn bne(&mut self, rs: Reg, rt: Reg, label: impl Into<String>) -> &mut Self {
        self.pending
            .push(Pending::Bne(rs, rt, Target::Label(label.into())));
        self
    }

    /// Branch to `label` if `rs < rt` (signed).
    pub fn blt(&mut self, rs: Reg, rt: Reg, label: impl Into<String>) -> &mut Self {
        self.pending
            .push(Pending::Blt(rs, rt, Target::Label(label.into())));
        self
    }

    /// Branch to `label` if `rs >= rt` (signed).
    pub fn bge(&mut self, rs: Reg, rt: Reg, label: impl Into<String>) -> &mut Self {
        self.pending
            .push(Pending::Bge(rs, rt, Target::Label(label.into())));
        self
    }

    /// Unconditional jump to `label`.
    pub fn j(&mut self, label: impl Into<String>) -> &mut Self {
        self.pending.push(Pending::Jmp(Target::Label(label.into())));
        self
    }

    /// Split-phase remote read: value at global address in `gaddr` arrives
    /// in `rd` after the thread suspends and is resumed.
    pub fn rread(&mut self, rd: Reg, gaddr: Reg) -> &mut Self {
        self.push(Instr::Rread { rd, gaddr })
    }

    /// Block remote read of `len` words into local memory at offset `local`.
    pub fn rreadb(&mut self, gaddr: Reg, local: Reg, len: u16) -> &mut Self {
        self.push(Instr::Rreadb { gaddr, local, len })
    }

    /// Remote write (non-suspending).
    pub fn rwrite(&mut self, gaddr: Reg, val: Reg) -> &mut Self {
        self.push(Instr::Rwrite { gaddr, val })
    }

    /// Spawn a thread at the entry global address in `entry` with `arg`.
    pub fn spawn(&mut self, entry: Reg, arg: Reg) -> &mut Self {
        self.push(Instr::Spawn { entry, arg })
    }

    /// No-op.
    pub fn nop(&mut self) -> &mut Self {
        self.push(Instr::Nop)
    }

    /// Explicit thread switch.
    pub fn yld(&mut self) -> &mut Self {
        self.push(Instr::Yield)
    }

    /// Thread end.
    pub fn end(&mut self) -> &mut Self {
        self.push(Instr::End)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_resolves_forward_and_backward_labels() {
        let r5 = Reg::r(5);
        let mut b = ProgramBuilder::new("t");
        b.j("fwd");
        b.label("back");
        b.end();
        b.label("fwd");
        b.bne(r5, Reg::ZERO, "back");
        b.end();
        let p = b.build().unwrap();
        assert_eq!(p.fetch(0).unwrap(), Instr::J { target: 2 });
        assert_eq!(
            p.fetch(2).unwrap(),
            Instr::Bne {
                rs: r5,
                rt: Reg::ZERO,
                target: 1
            }
        );
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut b = ProgramBuilder::new("t");
        b.j("nowhere");
        assert!(matches!(b.build(), Err(SimError::IsaFault { .. })));
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let mut b = ProgramBuilder::new("t");
        b.label("x");
        b.nop();
        b.label("x");
        b.end();
        let err = b.build().unwrap_err();
        assert!(err.to_string().contains("defined twice"), "{err}");
    }

    #[test]
    fn fetch_past_end_faults() {
        let p = Program::new("t", vec![Instr::End]);
        assert!(p.fetch(0).is_ok());
        assert!(p.fetch(1).is_err());
    }

    #[test]
    fn program_encode_decode_roundtrip() {
        let mut b = ProgramBuilder::new("t");
        b.addi(Reg::r(5), Reg::ZERO, 3);
        b.label("l");
        b.addi(Reg::r(5), Reg::r(5), -1);
        b.bne(Reg::r(5), Reg::ZERO, "l");
        b.end();
        let p = b.build().unwrap();
        let back = Program::decode("t", &p.encode()).unwrap();
        assert_eq!(back.instrs(), p.instrs());
    }

    #[test]
    fn disassemble_assemble_roundtrip_on_kernels() {
        let costs = CostModel::default();
        for prog in [
            crate::kernels::read_loop(16, 2),
            crate::kernels::vector_sum(64, 10),
            crate::kernels::saxpy(1.5, 0, 16, 8),
            crate::kernels::memset_local(8, 4, 3),
            crate::kernels::block_fetch(100, 32),
            crate::kernels::spawn_ring(2, 4),
            crate::kernels::insertion_sort(16, 8),
            crate::kernels::compare_split_low(0, 16, 32, 8),
        ] {
            let text = prog.disassemble();
            let back = crate::asm::assemble(prog.name.clone(), &text)
                .unwrap_or_else(|e| panic!("{}: {e}\n{text}", prog.name));
            assert_eq!(back.instrs(), prog.instrs(), "{}:\n{text}", prog.name);
            assert_eq!(
                back.straight_line_cost(&costs),
                prog.straight_line_cost(&costs)
            );
        }
    }

    #[test]
    fn straight_line_cost_counts_multi_cycle_ops() {
        let cm = CostModel::default();
        let mut b = ProgramBuilder::new("t");
        b.nop(); // 1
        b.fdiv(Reg::r(5), Reg::r(6), Reg::r(7)); // cm.fdiv
        b.end(); // 1
        let p = b.build().unwrap();
        assert_eq!(p.straight_line_cost(&cm), 2 + u64::from(cm.fdiv));
    }

    #[test]
    fn li32_handles_all_value_shapes() {
        // Checked through the interpreter in interp.rs tests; here just the
        // shapes: small positive, small negative, large, low-bit-15 set.
        for v in [0u32, 1, 0x7FFF, 0xFFFF_FFFF, 0x1234_8765, 0xDEAD_BEEF] {
            let mut b = ProgramBuilder::new("t");
            b.li32(Reg::r(5), v);
            b.end();
            assert!(b.build().is_ok());
        }
    }
}
