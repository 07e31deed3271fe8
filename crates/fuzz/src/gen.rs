//! Seeded generator of well-formed random EM-X fuzz cases.
//!
//! A generated case terminates under fuel *by design*: the generator only
//! emits programs satisfying [`CaseSpec::validate`]'s well-formedness rules
//! (forward-only spawn DAG, sync-free spawn targets, covered wait
//! thresholds, uniform barrier participation, unlimited retries whenever
//! network loss is armed). Randomness comes exclusively from the seeded
//! SplitMix64 stream — the same seed always yields the same case, byte for
//! byte, which is what makes campaign summaries reproducible.

use emx_core::{FaultSpec, NetModelKind, ServiceMode};
use emx_faults::Rng64;

use crate::case::{CaseSpec, Op, ProgramSpec, Root};

fn pick<T: Copy>(rng: &mut Rng64, xs: &[T]) -> T {
    xs[rng.below(xs.len() as u64) as usize]
}

/// Generate the well-formed case for `seed`.
///
/// Panics if the generator ever emits a case that fails its own
/// well-formedness validation — that is a harness bug the campaign must
/// surface loudly (it records the panic as a failing case).
pub fn generate(seed: u64) -> CaseSpec {
    let mut rng = Rng64::new(seed);
    let pes: usize = pick(&mut rng, &[1, 2, 3, 4, 6, 8]);
    let mem: usize = 1 << 12;

    let mut case = CaseSpec::empty(format!("gen-{seed:016x}"), pes);
    case.seed = seed;
    case.memory_words = mem;
    case.net = match rng.below(6) {
        0 => NetModelKind::CircularOmega,
        1 => NetModelKind::Ideal {
            latency: 1 + rng.below(8) as u32,
        },
        2 => NetModelKind::FullCrossbar,
        3 => NetModelKind::Torus2D,
        4 => NetModelKind::Mesh2D,
        _ => NetModelKind::FatTree {
            arity: 2 + rng.below(3) as u32,
        },
    };
    case.ibu_capacity = pick(&mut rng, &[2, 4, 8]);
    case.service_mode = if rng.chance_ppm(200_000) {
        ServiceMode::ExuThread
    } else {
        ServiceMode::BypassDma
    };
    case.priority_read_responses = rng.chance_ppm(300_000);
    case.fuel = 2_000_000;
    case.seq_cells = 1 + rng.below(2) as usize;

    let roots_per_pe = 1 + rng.below(2) as usize;
    let barrier_epochs = if rng.chance_ppm(500_000) {
        1 + rng.below(2) as usize
    } else {
        0
    };
    let nroot_progs = 1 + rng.below(2) as usize;
    let nspawnee = rng.below(3) as usize;
    let nprogs = nroot_progs + nspawnee;

    // Spawnee programs first (they live at the high indices): plain data
    // movement and forward spawns, no sync ops.
    let mut spawnees: Vec<ProgramSpec> = Vec::new();
    for si in 0..nspawnee {
        let idx = nroot_progs + si;
        let len = 1 + rng.below(5) as usize;
        let mut ops = Vec::with_capacity(len);
        for _ in 0..len {
            ops.push(random_plain_op(&mut rng, pes, mem, idx + 1, nprogs));
        }
        spawnees.push(ProgramSpec { ops });
    }

    // Root programs: a seq-region of plain ops and signals, waits patched
    // in later, then the barrier epochs.
    let mut root_progs: Vec<ProgramSpec> = Vec::new();
    let mut is_waiter = Vec::new();
    for _ in 0..nroot_progs {
        let waiter = rng.chance_ppm(400_000);
        is_waiter.push(waiter);
        let len = 2 + rng.below(7) as usize;
        let mut ops = Vec::with_capacity(len);
        for _ in 0..len {
            if !waiter && rng.chance_ppm(250_000) {
                ops.push(Op::SignalSeq {
                    cell: rng.below(case.seq_cells as u64) as u32,
                });
            } else {
                // Roots may only spawn spawnee programs: spawn targets must
                // be sync-free by well-formedness rule 2.
                ops.push(random_plain_op(&mut rng, pes, mem, nroot_progs, nprogs));
            }
        }
        root_progs.push(ProgramSpec { ops });
    }

    // Assign roots. With a barrier in play every processor must host
    // exactly `roots_per_pe` roots; without one, vary the count per PE.
    let mut roots = Vec::new();
    for pe in 0..pes {
        let count = if barrier_epochs > 0 {
            roots_per_pe
        } else {
            1 + rng.below(roots_per_pe as u64 + 1) as usize
        };
        for _ in 0..count {
            roots.push(Root {
                pe: pe as u16,
                prog: rng.below(nroot_progs as u64) as u16,
                arg: rng.next_u64() as u32,
            });
        }
    }

    // Patch waits into waiter programs, bounded by the signals guaranteed
    // on every processor that hosts the waiter.
    let mut signals = vec![vec![0u64; case.seq_cells]; pes];
    for r in &roots {
        for op in &root_progs[usize::from(r.prog)].ops {
            if let Op::SignalSeq { cell } = op {
                signals[usize::from(r.pe)][*cell as usize] += 1;
            }
        }
    }
    for (pi, prog) in root_progs.iter_mut().enumerate() {
        if !is_waiter[pi] {
            continue;
        }
        let hosts: Vec<usize> = roots
            .iter()
            .filter(|r| usize::from(r.prog) == pi)
            .map(|r| usize::from(r.pe))
            .collect();
        if hosts.is_empty() {
            continue;
        }
        let mins: Vec<u64> = (0..case.seq_cells)
            .map(|cell| hosts.iter().map(|&pe| signals[pe][cell]).min().unwrap_or(0))
            .collect();
        for (cell, &min_sig) in mins.iter().enumerate() {
            if min_sig == 0 || !rng.chance_ppm(600_000) {
                continue;
            }
            let threshold = 1 + rng.below(min_sig);
            let pos = rng.below(prog.ops.len() as u64 + 1) as usize;
            prog.ops.insert(
                pos,
                Op::WaitSeq {
                    cell: cell as u32,
                    threshold,
                },
            );
        }
    }

    // Barrier epochs, appended after the whole seq region.
    if barrier_epochs > 0 {
        case.barrier_participants = roots_per_pe;
        for prog in &mut root_progs {
            for _ in 0..barrier_epochs {
                prog.ops.push(Op::Barrier);
                if rng.chance_ppm(500_000) {
                    // Post-barrier filler may not spawn (min index == nprogs)
                    // and may not touch seq cells, per rules 2 and 3.
                    prog.ops
                        .push(random_plain_op(&mut rng, pes, mem, nprogs, nprogs));
                }
            }
        }
    }

    case.programs = root_progs;
    case.programs.extend(spawnees);
    case.roots = roots;

    // Fault plan: unlimited retries whenever the network can lose packets,
    // so every generated case converges by construction.
    let mut f = FaultSpec::new(rng.next_u64());
    f.retry_timeout = pick(&mut rng, &[64, 128]);
    f.retry_backoff_cap = 4096;
    f.max_attempts = 0;
    if rng.chance_ppm(700_000) {
        if rng.chance_ppm(350_000) {
            f.drop_ppm = pick(&mut rng, &[1_000, 10_000, 50_000, 150_000]);
        }
        if rng.chance_ppm(250_000) {
            f.dup_ppm = pick(&mut rng, &[1_000, 10_000, 50_000]);
        }
        if rng.chance_ppm(400_000) {
            f.delay_ppm = pick(&mut rng, &[10_000, 100_000, 300_000]);
            f.max_delay = 1 + rng.below(32) as u32;
        }
        if rng.chance_ppm(250_000) {
            f.spill_ppm = pick(&mut rng, &[10_000, 100_000]);
        }
        if rng.chance_ppm(200_000) {
            f.dma_stall_ppm = pick(&mut rng, &[10_000, 100_000]);
            f.dma_stall_cycles = 1 + rng.below(8) as u32;
        }
        if rng.chance_ppm(100_000) {
            // Deliberately under-provisioned frames: exhaustion is a
            // legitimate recorded outcome (`error:out-of-frames`), and the
            // oracle still requires it to be byte-identical across arms.
            f.frame_cap = Some(1 + rng.below(4) as u32);
        }
    }
    case.faults = f;

    // Frames: a conservative static bound treating every thread the case
    // can ever create as simultaneously live.
    case.frames_per_pe = peak_threads(&case).max(4) + 2;

    if let Err(e) = case.validate() {
        panic!("generator emitted an ill-formed case (seed {seed:#x}): {e}");
    }
    case
}

/// A non-sync op: work, remote data movement, a forward spawn, a remote
/// read-modify-write, a halo exchange, or a yield. Spawns target only
/// programs in `spawn_lo..nprogs` (an empty range disables spawning),
/// which keeps the spawn graph a forward DAG and keeps sync ops out of
/// spawn targets.
fn random_plain_op(rng: &mut Rng64, pes: usize, mem: usize, spawn_lo: usize, nprogs: usize) -> Op {
    let can_spawn = spawn_lo < nprogs;
    loop {
        match rng.below(8) {
            0 => {
                return Op::Work {
                    cycles: 1 + rng.below(32) as u32,
                }
            }
            1 => {
                return Op::Read {
                    pe: rng.below(pes as u64) as u16,
                    offset: rng.below(mem as u64) as u32,
                }
            }
            2 => {
                let len = 1 + rng.below(8) as u16;
                return Op::ReadBlock {
                    pe: rng.below(pes as u64) as u16,
                    offset: rng.below((mem - usize::from(len)) as u64 + 1) as u32,
                    len,
                    dst: rng.below((mem - usize::from(len)) as u64 + 1) as u32,
                };
            }
            3 => {
                return Op::Write {
                    pe: rng.below(pes as u64) as u16,
                    offset: rng.below(mem as u64) as u32,
                    value: rng.next_u64() as u32,
                }
            }
            4 if can_spawn => {
                let lo = spawn_lo as u64;
                return Op::Spawn {
                    pe: rng.below(pes as u64) as u16,
                    prog: (lo + rng.below(nprogs as u64 - lo)) as u16,
                    arg: rng.next_u64() as u32,
                };
            }
            5 => return Op::Yield,
            6 => {
                return Op::RmwAdd {
                    pe: rng.below(pes as u64) as u16,
                    offset: rng.below(mem as u64) as u32,
                }
            }
            7 => {
                let len = 1 + rng.below(4) as u16;
                return Op::Halo {
                    offset: rng.below((mem - usize::from(len)) as u64 + 1) as u32,
                    len,
                    dst: rng.below((mem - 2 * usize::from(len)) as u64 + 1) as u32,
                };
            }
            _ => {} // spawn slot rolled without spawn rights: redraw
        }
    }
}

/// Conservative peak-thread bound per processor: roots plus every spawn
/// arrival the case can ever produce, as if all were live at once.
fn peak_threads(case: &CaseSpec) -> usize {
    // Instantiation count per program, propagated along the forward DAG.
    let mut inst = vec![0u64; case.programs.len()];
    for r in &case.roots {
        inst[usize::from(r.prog)] += 1;
    }
    let mut arrivals = vec![0u64; case.pes];
    for r in &case.roots {
        arrivals[usize::from(r.pe)] += 1;
    }
    for pi in 0..case.programs.len() {
        let n = inst[pi];
        if n == 0 {
            continue;
        }
        for op in &case.programs[pi].ops {
            match op {
                Op::Spawn { pe, prog, .. } => {
                    inst[usize::from(*prog)] += n;
                    arrivals[usize::from(*pe)] += n;
                }
                // Each remote RMW spawns one built-in increment thread.
                Op::RmwAdd { pe, .. } => arrivals[usize::from(*pe)] += n,
                _ => {}
            }
        }
    }
    arrivals.iter().copied().max().unwrap_or(0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 7, 0xDEAD_BEEF] {
            assert_eq!(generate(seed), generate(seed));
        }
    }

    #[test]
    fn generated_cases_are_well_formed() {
        for seed in 0..200u64 {
            let case = generate(seed);
            case.validate()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(!case.roots.is_empty());
        }
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(generate(1), generate(2));
    }
}
