//! Dispatch-path edge cases for the chained/superblock translator: self-loop
//! promotion, chain invalidation across a reconfigure, superblocks that span
//! a page boundary, and a randomized chained-vs-unchained equivalence check.
//!
//! The reference executor for the equivalence check is the same machine with
//! a scheduling quantum of 1: chains and superblock promotion only engage on
//! the second dispatch *within* a quantum, so a one-instruction quantum runs
//! every block through the plain cache-lookup path.

use embsan_emu::prelude::*;

fn build_machine(insns: &[Insn], quantum: Option<u64>) -> Machine {
    build_smp_machine(insns, quantum, 1)
}

fn build_smp_machine(insns: &[Insn], quantum: Option<u64>, cpus: usize) -> Machine {
    let profile = ArchProfile::armv();
    let mut text = Vec::new();
    for insn in insns {
        text.extend_from_slice(&insn.encode().to_bytes(profile.endian));
    }
    let mut builder = Machine::builder(profile)
        .rom(profile.rom_base, &text)
        .ram(profile.ram_base, 0x1_0000)
        .cpus(cpus);
    if let Some(q) = quantum {
        builder = builder.quantum(q);
    }
    builder.build().unwrap()
}

/// A one-instruction self-loop: promotion keeps merging the block with
/// itself, which must terminate at the superblock size cap instead of
/// growing (or recursing) forever.
#[test]
fn self_loop_block_promotes_then_chains() {
    let mut m = build_machine(&[Insn::Jal { rd: Reg::R0, offset: 0 }], None);
    let rom = ArchProfile::armv().rom_base;

    let exit = m.run(&mut NullHook, 5_000).unwrap();
    assert_eq!(exit, RunExit::BudgetExhausted);
    assert_eq!(m.retired(), 5_000);
    assert_eq!(m.cpu(0).pc, rom);

    let stats = m.cache_stats();
    assert!(stats.superblocks_formed > 0, "self-loop never promoted");
    assert!(
        stats.superblocks_formed <= 32,
        "self-loop promotion did not converge: {} merges",
        stats.superblocks_formed
    );
    assert!(stats.chained_dispatches > 0, "steady state should dispatch via chains");

    // Growth is capped: more execution must not form more superblocks.
    let formed = stats.superblocks_formed;
    m.run(&mut NullHook, 5_000).unwrap();
    assert_eq!(m.cache_stats().superblocks_formed, formed);
    assert_eq!(m.retired(), 10_000);
}

/// Reconfiguring the hook set bumps the cache generation; chains installed
/// under the old configuration must not carry execution into stale blocks
/// that lack the newly requested probes.
#[test]
fn reconfigure_severs_stale_chains() {
    struct Recorder(u64);
    impl ExecHook for Recorder {
        fn mem_access(&mut self, _cpu: &mut CpuView<'_>, _access: &MemAccess) -> HookAction {
            self.0 += 1;
            HookAction::Continue
        }
    }

    let profile = ArchProfile::armv();
    // 0: lui r1, ram   4: sw r0, 0(r1)   8: jal -4 (back to the store)
    let mut m = build_machine(
        &[
            Insn::Lui { rd: Reg::R1, imm: profile.ram_base },
            Insn::Sw { rs2: Reg::R0, rs1: Reg::R1, imm: 0 },
            Insn::Jal { rd: Reg::R0, offset: -4 },
        ],
        None,
    );

    // Phase 1: run unarmed long enough for chains and superblocks to form.
    let exit = m.run(&mut NullHook, 1_001).unwrap();
    assert_eq!(exit, RunExit::BudgetExhausted);
    let before = m.cache_stats();
    assert!(before.chained_dispatches > 0, "phase 1 never chained");

    // Phase 2: arm memory probes. Every store from here on must be observed;
    // a stale chain into a generation-0 block would silently skip them.
    m.set_hook_config(HookConfig { mem: true, ..HookConfig::none() });
    let mut recorder = Recorder(0);
    // pc is at the store (500 whole loop iterations completed), so a budget
    // of 100 executes exactly 50 more store/jump pairs.
    let exit = m.run(&mut recorder, 100).unwrap();
    assert_eq!(exit, RunExit::BudgetExhausted);
    assert_eq!(recorder.0, 50, "reconfigured probes missed stores");
    assert_eq!(m.cache_stats().reconfigures, before.reconfigures + 1);
}

/// Two blocks joined by an unconditional jump across a 4 KiB boundary merge
/// into one superblock whose ops span the boundary; execution stays exact.
#[test]
fn superblock_spans_page_boundary() {
    let n_pad = 0xFF8 / 4 - 1; // nops between the entry jump and page end
    let mut insns = vec![Insn::Jal { rd: Reg::R0, offset: 0xFF8 }];
    insns.extend(std::iter::repeat_n(Insn::Nop, n_pad));
    // 0xFF8: addi r1 += 1     0xFFC: jal +4 (crosses into the next page)
    // 0x1000: addi r2 += 1    0x1004: jal -12 (back to 0xFF8)
    insns.push(Insn::Addi { rd: Reg::R1, rs1: Reg::R1, imm: 1 });
    insns.push(Insn::Jal { rd: Reg::R0, offset: 4 });
    insns.push(Insn::Addi { rd: Reg::R2, rs1: Reg::R2, imm: 1 });
    insns.push(Insn::Jal { rd: Reg::R0, offset: -12 });

    let mut m = build_machine(&insns, None);
    let exit = m.run(&mut NullHook, 3_001).unwrap();
    assert_eq!(exit, RunExit::BudgetExhausted);
    assert_eq!(m.retired(), 3_001);
    // 1 entry jump + 750 whole loop iterations of 4 instructions.
    assert_eq!(m.cpu(0).regs.read(Reg::R1), 750);
    assert_eq!(m.cpu(0).regs.read(Reg::R2), 750);
    assert_eq!(m.cpu(0).pc, ArchProfile::armv().rom_base + 0xFF8);

    let stats = m.cache_stats();
    // At minimum the cross-page pair (0xFF8 -> 0x1000) merged.
    assert!(stats.superblocks_formed >= 2, "cross-page blocks never merged");
    assert!(stats.chained_dispatches > 0);
}

// ---------------------------------------------------------------------------
// Randomized chained ≡ unchained equivalence.
// ---------------------------------------------------------------------------

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Decodes one raw u64 into a loop-heavy instruction at index `i` of an
/// `n`-instruction program. The subset is deliberately tame: no CSR writes
/// (no timer interrupts), no `wfi` (no parking), no indirect jumps, and all
/// memory traffic through a preserved RAM base register — so both executors
/// retire the identical architectural stream until the budget runs out.
/// Reads of the cycle CSR expose the vCPU's retire counter to the guest
/// mid-block.
fn synth_insn(raw: u64, i: usize, n: usize) -> Insn {
    let rd = Reg::from_index((raw >> 8) as u8 % 16);
    let rd = if rd == Reg::R10 { Reg::R11 } else { rd };
    let rs1 = Reg::from_index((raw >> 16) as u8 % 16);
    let rs2 = Reg::from_index((raw >> 24) as u8 % 16);
    let imm = ((raw >> 32) & 0x7FF) as i32;
    let target = ((raw >> 44) as usize) % n;
    let offset = (target as i32 - i as i32) * 4;
    match raw % 11 {
        0 => Insn::Add { rd, rs1, rs2 },
        1 => Insn::Sub { rd, rs1, rs2 },
        2 => Insn::Xor { rd, rs1, rs2 },
        3 => Insn::Addi { rd, rs1, imm: imm - 1024 },
        4 => Insn::Slli { rd, rs1, shamt: (raw >> 50) as u8 % 32 },
        5 => Insn::Lw { rd, rs1: Reg::R10, imm: imm & !3 },
        6 => Insn::Sw { rs2: rs1, rs1: Reg::R10, imm: imm & !3 },
        7 => Insn::Beq { rs1, rs2, offset },
        8 => Insn::Bne { rs1, rs2, offset },
        9 => Insn::Csrr { rd, idx: Csr::Cycle as u16 },
        _ => Insn::Jal { rd: Reg::R0, offset },
    }
}

fn gen_program(seed: u64) -> Vec<Insn> {
    let mut state = seed;
    let n = 24;
    // Fixed prologue: r10 = RAM base, so generated loads/stores stay mapped.
    let mut insns = vec![Insn::Lui { rd: Reg::R10, imm: ArchProfile::armv().ram_base }];
    for i in 1..n {
        let raw = splitmix(&mut state);
        insns.push(synth_insn(raw, i, n));
    }
    // Close the program with a backward jump so every seed loops.
    let target = (splitmix(&mut state) as usize) % n;
    insns.push(Insn::Jal { rd: Reg::R0, offset: (target as i32 - n as i32) * 4 });
    insns
}

/// One memory probe as the hook saw it: `(pc, addr, retired)`, where
/// `retired` is the vCPU's own retire counter when the probe fired.
type Probe = (u32, u32, u64);

/// Logs every memory probe per vCPU and stalls a fixed subset of accesses
/// (a pure function of pc and address), so the retire accounting around
/// hook calls and stall windows is part of what two executors must agree
/// on.
#[derive(Default)]
struct Recorder {
    log: Vec<Vec<Probe>>,
}

impl ExecHook for Recorder {
    fn mem_access(&mut self, cpu: &mut CpuView<'_>, access: &MemAccess) -> HookAction {
        let idx = cpu.cpu_index();
        if self.log.len() <= idx {
            self.log.resize(idx + 1, Vec::new());
        }
        self.log[idx].push((access.pc, access.addr, cpu.cpu.retired));
        if (access.pc ^ access.addr).is_multiple_of(5) {
            HookAction::Stall { instrs: u64::from(access.addr % 13) + 1, token: 0 }
        } else {
            HookAction::Continue
        }
    }
}

/// Everything the two executors must agree on for a uniprocessor run.
#[derive(Debug, PartialEq, Eq)]
struct Final {
    exit: RunExit,
    regs: Vec<u32>,
    pc: u32,
    cpu_retired: u64,
    retired: u64,
    lifetime_retired: u64,
    log: Vec<Vec<Probe>>,
}

fn final_state(insns: &[Insn], config: HookConfig, quantum: Option<u64>) -> Final {
    let mut m = build_machine(insns, quantum);
    m.set_hook_config(config);
    let mut hook = Recorder::default();
    let exit = m.run(&mut hook, 2_500).unwrap();
    Final {
        exit,
        regs: Reg::ALL.iter().map(|&r| m.cpu(0).regs.read(r)).collect(),
        pc: m.cpu(0).pc,
        cpu_retired: m.cpu(0).retired,
        retired: m.retired(),
        lifetime_retired: m.lifetime_retired(),
        log: hook.log,
    }
}

/// For random loop-heavy programs, the chained/superblock dispatcher must
/// retire the exact stream of the plain per-block dispatcher, under both the
/// unarmed and the armed specialization. Armed, a recording hook sees every
/// access with the vCPU's retire count and stalls some of them.
#[test]
fn random_programs_chained_equals_unchained() {
    let armed = HookConfig { mem: true, calls: true, ..HookConfig::none() };
    let mut total_chained = 0;
    let mut total_stalls = 0;
    for seed in 0..16u64 {
        let insns = gen_program(0xE1B5_0000 | seed);
        for config in [HookConfig::none(), armed] {
            let subject = final_state(&insns, config, None);
            let reference = final_state(&insns, config, Some(1));
            assert_eq!(subject, reference, "seed {seed} diverged under {config:?}");
            total_stalls += subject.retired - subject.cpu_retired;
        }
        // Track that the subject path actually exercises the new machinery.
        let mut m = build_machine(&insns, None);
        m.run(&mut NullHook, 2_500).unwrap();
        total_chained += m.cache_stats().chained_dispatches;
    }
    assert!(total_chained > 0, "no seed ever took a chained dispatch");
    assert!(total_stalls > 0, "no seed ever stalled");
}

/// A terminating 2-vCPU program: each vCPU runs the same random body
/// `LOOPS` times over its own RAM page and registers, stores a completion
/// marker, then idles in `wfi`. Loop-body branches only go forward; the
/// loop closes with a direct backward jump (a superblock seam).
fn gen_smp_program(seed: u64) -> Vec<Insn> {
    const LOOPS: i32 = 40;
    let body = 20;
    let mut insns = vec![
        Insn::Csrr { rd: Reg::R2, idx: Csr::Cpuid as u16 },
        Insn::Slli { rd: Reg::R2, rs1: Reg::R2, shamt: 12 },
        Insn::Lui { rd: Reg::R10, imm: ArchProfile::armv().ram_base },
        Insn::Add { rd: Reg::R10, rs1: Reg::R10, rs2: Reg::R2 },
        Insn::Addi { rd: Reg::R9, rs1: Reg::R0, imm: LOOPS },
    ];
    let top = insns.len();
    let tail = top + body; // the loop-counter decrement
    let mut state = seed;
    for i in top..tail {
        let raw = splitmix(&mut state);
        // The loop counter and the page base are never written.
        let rd = match Reg::from_index((raw >> 8) as u8 % 16) {
            Reg::R9 | Reg::R10 => Reg::R11,
            rd => rd,
        };
        let rs1 = Reg::from_index((raw >> 16) as u8 % 16);
        let rs2 = Reg::from_index((raw >> 24) as u8 % 16);
        let imm = ((raw >> 32) & 0x7FF) as i32;
        let offset = (1 + ((raw >> 44) as usize) % (tail - i)) as i32 * 4;
        insns.push(match raw % 10 {
            0 => Insn::Add { rd, rs1, rs2 },
            1 => Insn::Xor { rd, rs1, rs2 },
            2 => Insn::Addi { rd, rs1, imm: imm - 1024 },
            3 | 4 => Insn::Lw { rd, rs1: Reg::R10, imm: imm & !3 },
            5 | 6 => Insn::Sw { rs2: rs1, rs1: Reg::R10, imm: imm & !3 },
            7 => Insn::Csrr { rd, idx: Csr::Cycle as u16 },
            8 => Insn::Bne { rs1, rs2, offset },
            _ => Insn::Jal { rd: Reg::R0, offset },
        });
    }
    insns.extend([
        Insn::Addi { rd: Reg::R9, rs1: Reg::R9, imm: -1 },
        Insn::Beq { rs1: Reg::R9, rs2: Reg::R0, offset: 8 },
        Insn::Jal { rd: Reg::R0, offset: (top as i32 - tail as i32 - 2) * 4 },
        Insn::Sw { rs2: Reg::R9, rs1: Reg::R10, imm: 0x7FC },
        Insn::Wfi,
        Insn::Jal { rd: Reg::R0, offset: -4 },
    ]);
    insns
}

/// Per-vCPU registers and probe logs of a 2-vCPU run. The vCPUs share no
/// memory, so each one's stream is independent of how the round-robin
/// quanta interleave them; the completion marker's log entry carries each
/// vCPU's retire count at the end of its work.
fn smp_final_state(insns: &[Insn], quantum: Option<u64>) -> (Vec<Vec<u32>>, Vec<Vec<Probe>>) {
    let mut m = build_smp_machine(insns, quantum, 2);
    m.set_hook_config(HookConfig { mem: true, ..HookConfig::none() });
    let mut hook = Recorder::default();
    assert_eq!(m.run(&mut hook, 200_000).unwrap(), RunExit::BudgetExhausted);
    let regs = (0..2).map(|c| Reg::ALL.iter().map(|&r| m.cpu(c).regs.read(r)).collect()).collect();
    (regs, hook.log)
}

/// The 2-vCPU case: stall windows on one vCPU let the other run, and the
/// quantum switches vCPUs mid-loop; neither may change what either vCPU
/// retires, reads or writes.
#[test]
fn smp_program_chained_equals_unchained() {
    for seed in 0..4u64 {
        let insns = gen_smp_program(0x5E9_0000 | seed);
        let subject = smp_final_state(&insns, None);
        assert_eq!(subject, smp_final_state(&insns, Some(1)), "seed {seed} diverged");
        let marker = ArchProfile::armv().rom_base + 4 * (insns.len() as u32 - 3);
        for (cpu, probes) in subject.1.iter().enumerate() {
            assert!(
                probes.iter().any(|&(pc, _, _)| pc == marker),
                "seed {seed}: vCPU {cpu} never finished its loop"
            );
        }
    }
}
