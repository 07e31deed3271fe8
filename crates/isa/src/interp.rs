//! The Execution Unit interpreter.
//!
//! [`step`] executes one instruction against a [`ThreadState`] and a local
//! [`MemoryBus`], returning the cycle cost and the [`Effect`] the processor
//! model must apply (packet sends, split-phase suspension, thread end).
//! The interpreter itself knows nothing about packets, continuations or the
//! network — that separation lets `emx-proc` charge cycles and build packets
//! with the right continuation for the dispatching thread.

use emx_core::{CostModel, SimError};

use crate::instr::Instr;
use crate::program::Program;
use crate::reg::Reg;

/// Architected per-thread state: the register file and program counter.
///
/// "The registers can hold values for one thread at a time. The current
/// version does not share registers across threads." (paper §2.3) — so each
/// thread owns a full `ThreadState`, saved to its activation frame on
/// suspension.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ThreadState {
    /// The 32-register file (r0 reads as zero regardless of content).
    pub regs: [u32; Reg::COUNT],
    /// Program counter: index of the next instruction in the template.
    pub pc: u32,
}

impl ThreadState {
    /// Fresh state at the template entry, with the special registers
    /// preloaded: own PE number, machine size, frame base, and the invoking
    /// packet's data word ("the first instruction of a thread operates on
    /// input tokens", paper §2.3).
    pub fn at_entry(pe: u16, npes: u32, frame_base: u32, arg: u32) -> Self {
        let mut regs = [0u32; Reg::COUNT];
        regs[Reg::PE.index()] = u32::from(pe);
        regs[Reg::NPES.index()] = npes;
        regs[Reg::FP.index()] = frame_base;
        regs[Reg::ARG.index()] = arg;
        ThreadState { regs, pc: 0 }
    }

    /// Read a register (r0 is hardwired zero).
    #[inline]
    pub fn get(&self, r: Reg) -> u32 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Write a register (writes to r0 are discarded).
    #[inline]
    pub fn set(&mut self, r: Reg, v: u32) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }
}

/// Local-memory interface the interpreter loads and stores through.
pub trait MemoryBus {
    /// Load the word at `offset`.
    fn load(&mut self, offset: u32) -> Result<u32, SimError>;
    /// Store `value` at `offset`.
    fn store(&mut self, offset: u32, value: u32) -> Result<(), SimError>;
}

/// A plain `Vec`-backed memory, used by unit tests and standalone kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VecMemory(pub Vec<u32>);

impl VecMemory {
    /// Zeroed memory of `words` words.
    pub fn zeroed(words: usize) -> Self {
        VecMemory(vec![0; words])
    }
}

impl MemoryBus for VecMemory {
    fn load(&mut self, offset: u32) -> Result<u32, SimError> {
        self.0
            .get(offset as usize)
            .copied()
            .ok_or(SimError::MemoryFault {
                pe: 0,
                offset,
                size: self.0.len(),
            })
    }

    fn store(&mut self, offset: u32, value: u32) -> Result<(), SimError> {
        let size = self.0.len();
        *self
            .0
            .get_mut(offset as usize)
            .ok_or(SimError::MemoryFault {
                pe: 0,
                offset,
                size,
            })? = value;
        Ok(())
    }
}

/// What an executed instruction asks the processor model to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Nothing beyond the register/memory update already applied.
    None,
    /// Issue a split-phase read of the word at the packed global address;
    /// the thread suspends and the response lands in `dst`.
    RemoteRead {
        /// Packed [`emx_core::GlobalAddr`].
        gaddr: u32,
        /// Register filled on resumption.
        dst: Reg,
    },
    /// Issue a block read of `len` words into local memory at `local`;
    /// the thread suspends until the last response arrives.
    RemoteReadBlock {
        /// Packed [`emx_core::GlobalAddr`] of the first word.
        gaddr: u32,
        /// Local destination word offset.
        local: u32,
        /// Word count.
        len: u16,
    },
    /// Send a remote write (thread continues).
    RemoteWrite {
        /// Packed [`emx_core::GlobalAddr`].
        gaddr: u32,
        /// The value to store.
        value: u32,
    },
    /// Send a thread-invocation packet (thread continues).
    Spawn {
        /// Packed [`emx_core::GlobalAddr`] of the entry.
        entry: u32,
        /// Argument word.
        arg: u32,
    },
    /// Explicit switch: suspend and re-enqueue this thread.
    Yield,
    /// Thread complete.
    End,
}

/// Result of executing one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// Cycles the EXU spent.
    pub cost: u32,
    /// The effect for the processor model.
    pub effect: Effect,
}

impl StepOutcome {
    /// Whether the thread is suspended (or finished) after this step.
    pub fn suspends(&self) -> bool {
        matches!(
            self.effect,
            Effect::RemoteRead { .. }
                | Effect::RemoteReadBlock { .. }
                | Effect::Yield
                | Effect::End
        )
    }
}

#[inline]
fn f(bits: u32) -> f32 {
    f32::from_bits(bits)
}

/// Execute the instruction at `state.pc`, updating state and memory, and
/// report the cycle cost and effect. The pc is advanced (or redirected for
/// taken branches) before returning, so a suspended thread resumes at the
/// instruction after its read.
pub fn step(
    prog: &Program,
    state: &mut ThreadState,
    mem: &mut impl MemoryBus,
    costs: &CostModel,
) -> Result<StepOutcome, SimError> {
    let ins = prog.fetch(state.pc)?;
    let cost = ins.cost(costs);
    let mut next_pc = state.pc + 1;
    let mut effect = Effect::None;

    macro_rules! alu {
        ($rd:expr, $v:expr) => {{
            let v = $v;
            state.set($rd, v);
        }};
    }

    use Instr::*;
    match ins {
        Nop => {}
        Add { rd, rs, rt } => alu!(rd, state.get(rs).wrapping_add(state.get(rt))),
        Sub { rd, rs, rt } => alu!(rd, state.get(rs).wrapping_sub(state.get(rt))),
        Mul { rd, rs, rt } => alu!(rd, state.get(rs).wrapping_mul(state.get(rt))),
        Div { rd, rs, rt } => {
            let d = state.get(rt) as i32;
            let v = if d == 0 {
                0
            } else {
                (state.get(rs) as i32).wrapping_div(d) as u32
            };
            alu!(rd, v);
        }
        And { rd, rs, rt } => alu!(rd, state.get(rs) & state.get(rt)),
        Or { rd, rs, rt } => alu!(rd, state.get(rs) | state.get(rt)),
        Xor { rd, rs, rt } => alu!(rd, state.get(rs) ^ state.get(rt)),
        Sll { rd, rs, rt } => alu!(rd, state.get(rs) << (state.get(rt) & 31)),
        Srl { rd, rs, rt } => alu!(rd, state.get(rs) >> (state.get(rt) & 31)),
        Sra { rd, rs, rt } => alu!(rd, ((state.get(rs) as i32) >> (state.get(rt) & 31)) as u32),
        Slt { rd, rs, rt } => alu!(rd, ((state.get(rs) as i32) < (state.get(rt) as i32)) as u32),
        Sltu { rd, rs, rt } => alu!(rd, (state.get(rs) < state.get(rt)) as u32),
        Addi { rd, rs, imm } => alu!(rd, state.get(rs).wrapping_add(imm as i32 as u32)),
        // Logical immediates zero-extend (MIPS convention), which is what
        // makes the lui+ori constant idiom exact.
        Andi { rd, rs, imm } => alu!(rd, state.get(rs) & u32::from(imm as u16)),
        Ori { rd, rs, imm } => alu!(rd, state.get(rs) | u32::from(imm as u16)),
        Xori { rd, rs, imm } => alu!(rd, state.get(rs) ^ u32::from(imm as u16)),
        Slti { rd, rs, imm } => alu!(rd, ((state.get(rs) as i32) < i32::from(imm)) as u32),
        Slli { rd, rs, imm } => alu!(rd, state.get(rs) << (imm as u32 & 31)),
        Srli { rd, rs, imm } => alu!(rd, state.get(rs) >> (imm as u32 & 31)),
        Srai { rd, rs, imm } => alu!(rd, ((state.get(rs) as i32) >> (imm as u32 & 31)) as u32),
        Lui { rd, imm } => alu!(rd, (imm as u16 as u32) << 16),
        FAdd { rd, rs, rt } => alu!(rd, (f(state.get(rs)) + f(state.get(rt))).to_bits()),
        FSub { rd, rs, rt } => alu!(rd, (f(state.get(rs)) - f(state.get(rt))).to_bits()),
        FMul { rd, rs, rt } => alu!(rd, (f(state.get(rs)) * f(state.get(rt))).to_bits()),
        FDiv { rd, rs, rt } => alu!(rd, (f(state.get(rs)) / f(state.get(rt))).to_bits()),
        Itof { rd, rs } => alu!(rd, (state.get(rs) as i32 as f32).to_bits()),
        Ftoi { rd, rs } => alu!(rd, (f(state.get(rs)) as i32) as u32),
        Lw { rd, base, imm } => {
            let addr = state.get(base).wrapping_add(imm as i32 as u32);
            let v = mem.load(addr)?;
            state.set(rd, v);
        }
        Sw { src, base, imm } => {
            let addr = state.get(base).wrapping_add(imm as i32 as u32);
            mem.store(addr, state.get(src))?;
        }
        Exch { rd, addr } => {
            let a = state.get(addr);
            let old = mem.load(a)?;
            mem.store(a, state.get(rd))?;
            state.set(rd, old);
        }
        Beq { rs, rt, target } => {
            if state.get(rs) == state.get(rt) {
                next_pc = u32::from(target);
            }
        }
        Bne { rs, rt, target } => {
            if state.get(rs) != state.get(rt) {
                next_pc = u32::from(target);
            }
        }
        Blt { rs, rt, target } => {
            if (state.get(rs) as i32) < (state.get(rt) as i32) {
                next_pc = u32::from(target);
            }
        }
        Bge { rs, rt, target } => {
            if (state.get(rs) as i32) >= (state.get(rt) as i32) {
                next_pc = u32::from(target);
            }
        }
        J { target } => next_pc = target,
        Rread { rd, gaddr } => {
            effect = Effect::RemoteRead {
                gaddr: state.get(gaddr),
                dst: rd,
            };
        }
        Rreadb { gaddr, local, len } => {
            effect = Effect::RemoteReadBlock {
                gaddr: state.get(gaddr),
                local: state.get(local),
                len,
            };
        }
        Rwrite { gaddr, val } => {
            effect = Effect::RemoteWrite {
                gaddr: state.get(gaddr),
                value: state.get(val),
            };
        }
        Spawn { entry, arg } => {
            effect = Effect::Spawn {
                entry: state.get(entry),
                arg: state.get(arg),
            };
        }
        End => effect = Effect::End,
        Yield => effect = Effect::Yield,
    }

    state.pc = next_pc;
    Ok(StepOutcome { cost, effect })
}

/// Run until the thread suspends, ends, or `max_steps` instructions retire.
/// Returns accumulated cycles and the stopping effect. Convenience for
/// single-processor kernel tests; the full machine drives [`step`] itself.
pub fn run_until_suspend(
    prog: &Program,
    state: &mut ThreadState,
    mem: &mut impl MemoryBus,
    costs: &CostModel,
    max_steps: u64,
) -> Result<(u64, Effect), SimError> {
    let mut cycles = 0u64;
    for _ in 0..max_steps {
        let out = step(prog, state, mem, costs)?;
        cycles += u64::from(out.cost);
        match out.effect {
            Effect::None => {}
            Effect::RemoteWrite { .. } | Effect::Spawn { .. } => {
                // Standalone runs have nowhere to send packets; callers that
                // care use the full machine. Treat as executed-and-continue.
            }
            e => return Ok((cycles, e)),
        }
    }
    Err(SimError::IsaFault {
        reason: format!("thread exceeded {max_steps} steps without suspending"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    fn cm() -> CostModel {
        CostModel::default()
    }

    fn run(p: &Program) -> (ThreadState, VecMemory, u64) {
        let mut st = ThreadState::at_entry(3, 16, 100, 7);
        let mut mem = VecMemory::zeroed(256);
        let (cycles, eff) = run_until_suspend(p, &mut st, &mut mem, &cm(), 10_000).unwrap();
        assert_eq!(eff, Effect::End);
        (st, mem, cycles)
    }

    #[test]
    fn special_registers_preloaded() {
        let st = ThreadState::at_entry(5, 64, 200, 42);
        assert_eq!(st.get(Reg::PE), 5);
        assert_eq!(st.get(Reg::NPES), 64);
        assert_eq!(st.get(Reg::FP), 200);
        assert_eq!(st.get(Reg::ARG), 42);
        assert_eq!(st.get(Reg::ZERO), 0);
    }

    #[test]
    fn writes_to_zero_register_are_discarded() {
        let mut st = ThreadState::at_entry(0, 1, 0, 0);
        st.set(Reg::ZERO, 99);
        assert_eq!(st.get(Reg::ZERO), 0);
    }

    #[test]
    fn arithmetic_loop_computes_sum() {
        // sum = 1 + 2 + ... + 10 via a count-down loop.
        let (i, acc) = (Reg::r(5), Reg::r(6));
        let mut b = ProgramBuilder::new("sum");
        b.addi(i, Reg::ZERO, 10);
        b.label("loop");
        b.add(acc, acc, i);
        b.addi(i, i, -1);
        b.bne(i, Reg::ZERO, "loop");
        b.end();
        let p = b.build().unwrap();
        let (st, _, cycles) = run(&p);
        assert_eq!(st.get(acc), 55);
        // 1 init + 10 iterations x 3 instructions + 1 end = 32 cycles.
        assert_eq!(cycles, 32);
    }

    #[test]
    fn memory_load_store_and_exchange() {
        let (a, v) = (Reg::r(5), Reg::r(6));
        let mut b = ProgramBuilder::new("mem");
        b.addi(a, Reg::ZERO, 8);
        b.addi(v, Reg::ZERO, 123);
        b.sw(v, a, 0); // mem[8] = 123
        b.lw(v, a, 0); // v = 123
        b.addi(v, v, 1); // v = 124
        b.exch(v, a); // swap: v = 123, mem[8] = 124
        b.end();
        let p = b.build().unwrap();
        let (st, mem, cycles) = run(&p);
        assert_eq!(st.get(v), 123);
        assert_eq!(mem.0[8], 124);
        // exch is the one multi-cycle integer instruction.
        assert_eq!(cycles, 5 + u64::from(cm().mem_exchange) + 1);
    }

    #[test]
    fn li32_materializes_arbitrary_constants() {
        for val in [
            0u32,
            1,
            0x7FFF,
            0x8000,
            0xFFFF,
            0x1_0000,
            0xDEAD_BEEF,
            u32::MAX,
        ] {
            let r5 = Reg::r(5);
            let mut b = ProgramBuilder::new("li");
            b.li32(r5, val);
            b.end();
            let p = b.build().unwrap();
            let (st, _, _) = run(&p);
            assert_eq!(st.get(r5), val, "li32({val:#x})");
        }
    }

    #[test]
    fn float_pipeline_single_cycle_except_divide() {
        let (x, y, z) = (Reg::r(5), Reg::r(6), Reg::r(7));
        let mut b = ProgramBuilder::new("fp");
        b.lif(x, 3.5);
        b.lif(y, 2.0);
        b.fmul(z, x, y); // 7.0
        b.fadd(z, z, y); // 9.0
        b.fdiv(z, z, y); // 4.5
        b.end();
        let p = b.build().unwrap();
        let (st, _, _) = run(&p);
        assert_eq!(f32::from_bits(st.get(z)), 4.5);
    }

    #[test]
    fn itof_ftoi_roundtrip() {
        let (x, y) = (Reg::r(5), Reg::r(6));
        let mut b = ProgramBuilder::new("cvt");
        b.addi(x, Reg::ZERO, -37);
        b.itof(y, x);
        b.ftoi(x, y);
        b.end();
        let p = b.build().unwrap();
        let (st, _, _) = run(&p);
        assert_eq!(st.get(x) as i32, -37);
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let (x, y) = (Reg::r(5), Reg::r(6));
        let mut b = ProgramBuilder::new("div0");
        b.addi(x, Reg::ZERO, 9);
        b.push(Instr::Div {
            rd: y,
            rs: x,
            rt: Reg::ZERO,
        });
        b.end();
        let p = b.build().unwrap();
        let (st, _, _) = run(&p);
        assert_eq!(st.get(y), 0);
    }

    #[test]
    fn branches_compare_signed() {
        let (x, y, flag) = (Reg::r(5), Reg::r(6), Reg::r(7));
        let mut b = ProgramBuilder::new("signed");
        b.addi(x, Reg::ZERO, -1);
        b.addi(y, Reg::ZERO, 1);
        b.blt(x, y, "taken");
        b.end(); // not reached
        b.label("taken");
        b.addi(flag, Reg::ZERO, 1);
        b.end();
        let p = b.build().unwrap();
        let (st, _, _) = run(&p);
        assert_eq!(st.get(flag), 1);
    }

    #[test]
    fn remote_read_suspends_with_effect() {
        let (g, d) = (Reg::r(5), Reg::r(6));
        let mut b = ProgramBuilder::new("rr");
        b.li32(g, 0x0040_0010); // some packed global address
        b.rread(d, g);
        b.end();
        let p = b.build().unwrap();
        let mut st = ThreadState::at_entry(0, 2, 0, 0);
        let mut mem = VecMemory::zeroed(16);
        let (_, eff) = run_until_suspend(&p, &mut st, &mut mem, &cm(), 100).unwrap();
        assert_eq!(
            eff,
            Effect::RemoteRead {
                gaddr: 0x0040_0010,
                dst: d
            }
        );
        // pc points past the read: the thread resumes at the next instruction.
        assert_eq!(p.fetch(st.pc).unwrap(), Instr::End);
    }

    #[test]
    fn yield_and_end_effects() {
        let mut b = ProgramBuilder::new("y");
        b.yld();
        b.end();
        let p = b.build().unwrap();
        let mut st = ThreadState::at_entry(0, 1, 0, 0);
        let mut mem = VecMemory::zeroed(1);
        let (_, eff) = run_until_suspend(&p, &mut st, &mut mem, &cm(), 10).unwrap();
        assert_eq!(eff, Effect::Yield);
        let (_, eff) = run_until_suspend(&p, &mut st, &mut mem, &cm(), 10).unwrap();
        assert_eq!(eff, Effect::End);
    }

    #[test]
    fn runaway_thread_is_detected() {
        let mut b = ProgramBuilder::new("spin");
        b.label("forever");
        b.j("forever");
        let p = b.build().unwrap();
        let mut st = ThreadState::at_entry(0, 1, 0, 0);
        let mut mem = VecMemory::zeroed(1);
        assert!(run_until_suspend(&p, &mut st, &mut mem, &cm(), 1000).is_err());
    }

    #[test]
    fn memory_fault_on_out_of_range_access() {
        let mut b = ProgramBuilder::new("oob");
        b.li32(Reg::r(5), 1 << 20);
        b.lw(Reg::r(6), Reg::r(5), 0);
        b.end();
        let p = b.build().unwrap();
        let mut st = ThreadState::at_entry(0, 1, 0, 0);
        let mut mem = VecMemory::zeroed(16);
        assert!(matches!(
            run_until_suspend(&p, &mut st, &mut mem, &cm(), 100),
            Err(SimError::MemoryFault { .. })
        ));
    }
}
