//! Fork-isolation: the copy-on-write snapshot contract.
//!
//! Two workers forked from one base image must be able to mutate RAM —
//! including the same pages — without any write-through to the shared
//! base, each worker's incremental footprint must be exactly its dirty
//! pages, and the CoW restore path must be byte-equivalent to the
//! materializing (non-CoW) restore it replaced.

use std::sync::Arc;

use embsan::core::distill::{distill, UMSAN_HEADER};
use embsan::core::probe::{probe, ProbeMode};
use embsan::core::session::Session;
use embsan::dsl::{InitProgram, InitStep, PoisonKind};
use embsan::emu::prelude::*;
use embsan::fuzz::campaign::{prepare_session, CampaignConfig};
use embsan::fuzz::{descriptions_for, Fuzzer, FuzzerConfig, Strategy};
use embsan::guestos::executor::{sys, ExecProgram};
use embsan::guestos::{firmware_by_name, os, BuildOptions, SanMode};
use embsan::obs::TraceConfig;

const PAGE: u32 = 4096;

/// A machine whose guest increments a RAM counter forever (enough activity
/// to make snapshots non-trivial), with 8 pages of RAM to fork across.
fn counting_machine() -> Machine {
    let profile = ArchProfile::armv();
    let ram = profile.ram_base;
    let insns = [
        Insn::Lui { rd: Reg::R1, imm: ram },
        Insn::Lw { rd: Reg::R3, rs1: Reg::R1, imm: 0 },
        Insn::Addi { rd: Reg::R3, rs1: Reg::R3, imm: 1 },
        Insn::Sw { rs2: Reg::R3, rs1: Reg::R1, imm: 0 },
        Insn::Jal { rd: Reg::R0, offset: -12 },
    ];
    let mut text = Vec::new();
    for insn in &insns {
        text.extend_from_slice(&insn.encode().to_bytes(profile.endian));
    }
    Machine::builder(profile).rom(profile.rom_base, &text).ram(ram, 8 * PAGE).build().unwrap()
}

/// Two machines forked from one snapshot mutate disjoint and overlapping
/// pages; neither write reaches the shared base or the other fork, each
/// fork's overlay is exactly its dirty pages, and restore returns both to
/// the base image.
#[test]
fn forked_workers_mutate_without_write_through() {
    let mut a = counting_machine();
    a.run(&mut NullHook, 100).unwrap();
    let snap = a.snapshot();
    let base_before: Vec<u8> = snap.ram_base().as_ref().clone();

    // Fork both machines from the same base allocation.
    let mut b = counting_machine();
    a.restore(&snap).unwrap();
    b.restore(&snap).unwrap();
    for m in [&a, &b] {
        assert!(m.bus().ram_shares_base(snap.ram_base()), "fork shares the base Arc");
    }
    assert_eq!(Arc::strong_count(snap.ram_base()), 3, "snapshot + two forks, one allocation");

    let ram = a.bus().ram_range().0;
    // Disjoint pages: A writes page 1, B writes page 2.
    a.write_mem(ram + PAGE, 4, 0xAAAA_0001).unwrap();
    b.write_mem(ram + 2 * PAGE, 4, 0xBBBB_0002).unwrap();
    // Overlapping page 3: different values at the same address.
    a.write_mem(ram + 3 * PAGE, 4, 0xAAAA_0003).unwrap();
    b.write_mem(ram + 3 * PAGE, 4, 0xBBBB_0003).unwrap();

    // Each fork sees its own writes...
    assert_eq!(a.read_mem(ram + PAGE, 4).unwrap(), 0xAAAA_0001);
    assert_eq!(a.read_mem(ram + 3 * PAGE, 4).unwrap(), 0xAAAA_0003);
    assert_eq!(b.read_mem(ram + 2 * PAGE, 4).unwrap(), 0xBBBB_0002);
    assert_eq!(b.read_mem(ram + 3 * PAGE, 4).unwrap(), 0xBBBB_0003);
    // ...and base values everywhere the *other* fork wrote.
    assert_eq!(a.read_mem(ram + 2 * PAGE, 4).unwrap(), 0);
    assert_eq!(b.read_mem(ram + PAGE, 4).unwrap(), 0);

    // No write-through: the shared base allocation is untouched.
    assert_eq!(snap.ram_base().as_ref(), &base_before);

    // Incremental footprint is exactly the dirty pages: two each.
    assert_eq!(a.ram_overlay_bytes(), 2 * PAGE as usize);
    assert_eq!(b.ram_overlay_bytes(), 2 * PAGE as usize);

    // Restore-to-base: both forks return to the identical image, O(dirty).
    a.restore(&snap).unwrap();
    b.restore(&snap).unwrap();
    assert_eq!(a.snapshot(), snap);
    assert_eq!(b.snapshot(), snap);
    assert_eq!(a.ram_overlay_bytes(), 0, "restore frees the overlay");
    assert_eq!(b.ram_overlay_bytes(), 0);
}

/// The CoW restore path produces a machine state byte-identical to the
/// pre-CoW materializing restore, including after guest execution dirtied
/// state beyond what host writes touch.
#[test]
fn cow_restore_equals_materialized_restore() {
    let mut cow = counting_machine();
    let mut flat = counting_machine();
    cow.run(&mut NullHook, 100).unwrap();
    flat.run(&mut NullHook, 100).unwrap();
    let snap = cow.snapshot();

    for round in 0..3u64 {
        // Dirty both machines identically through guest stores + host writes.
        for m in [&mut cow, &mut flat] {
            m.run(&mut NullHook, 60 + round).unwrap();
            let ram = m.bus().ram_range().0;
            m.write_mem(ram + 5 * PAGE, 4, 0xDEAD_0000 + round as u32).unwrap();
        }
        cow.restore(&snap).unwrap();
        flat.restore_materialized(&snap).unwrap();
        assert!(cow.bus().ram_is_forked());
        assert!(!flat.bus().ram_is_forked());
        assert_eq!(cow.snapshot(), flat.snapshot(), "round {round}");
        assert_eq!(cow.snapshot(), snap, "round {round}");
        // Re-execution from either restore is identical.
        let ea = cow.run(&mut NullHook, 200).unwrap();
        let eb = flat.run(&mut NullHook, 200).unwrap();
        assert_eq!(ea, eb);
        assert_eq!(cow.snapshot(), flat.snapshot(), "round {round} post-run");
        cow.restore(&snap).unwrap();
        flat.restore_materialized(&snap).unwrap();
    }
}

/// Session-level sharing: a second worker adopting the first worker's
/// [`embsan::core::session::BaseImage`] drops its private copy, shares the
/// one allocation, starts with a zero-byte overlay — and fuzzes to exactly
/// the same findings, coverage and corpus as the worker that kept its
/// private base.
#[test]
fn adopted_base_is_shared_and_fuzzes_identically() {
    let spec = firmware_by_name("TP-Link WDR-7660").unwrap();
    let config = CampaignConfig::default();
    let (mut own, dict_own) = prepare_session(spec, &config).unwrap();
    let (mut adopted, dict_adopted) = prepare_session(spec, &config).unwrap();

    // Deterministic preparation: both workers independently computed the
    // same content hash, so the leader's base is adoptable.
    assert_eq!(own.base_hash(), adopted.base_hash());
    let base = Arc::clone(own.base().unwrap());
    let count_before = Arc::strong_count(&base);
    assert!(adopted.adopt_base(&base).unwrap(), "hash-equal base must be adopted");
    assert_eq!(Arc::strong_count(&base), count_before + 1, "adopter shares the allocation");
    assert_eq!(adopted.base_hash(), Some(base.hash()));
    assert_eq!(adopted.overlay_bytes(), 0, "fresh fork starts with an empty overlay");
    assert!(adopted.base_bytes() > 0);

    // Identical campaigns over the private and the adopted base.
    let observe = |session: &mut embsan::core::session::Session, dict| {
        let mut fuzzer = Fuzzer::new(
            session,
            descriptions_for(spec),
            dict,
            FuzzerConfig::new(Strategy::Tardis, 42),
        );
        fuzzer.run(40).unwrap();
        let stats = fuzzer.stats();
        let findings: Vec<_> = fuzzer
            .findings()
            .iter()
            .map(|f| (f.report.class.to_string(), f.report.pc, f.program.clone()))
            .collect();
        (stats, findings)
    };
    let private_run = observe(&mut own, dict_own);
    let adopted_run = observe(&mut adopted, dict_adopted);
    assert_eq!(private_run, adopted_run, "adopting a base must not change results");

    // The shared base survived both campaigns unmutated.
    assert_eq!(own.base_hash(), Some(base.hash()));
    assert_eq!(adopted.base_hash(), Some(base.hash()));
    assert!(Arc::strong_count(&base) >= 3);
}

/// The live state's content hash, composed exactly as the ready point
/// composes a base image's hash, but over `snapshot` for the machine part.
fn state_hash(session: &Session, snapshot: &embsan::emu::snapshot::Snapshot) -> u64 {
    session.runtime().state().fold_plane_hash(snapshot.fold_hash(0))
}

/// The ready point freezes RAM in place: the base image's RAM is the live
/// machine's base allocation and nothing is overlaid, yet the hash still
/// covers every RAM byte and the shadow plane.
#[test]
fn ready_point_freezes_ram_in_place_and_hashes_all_state() {
    let spec = firmware_by_name("TP-Link WDR-7660").unwrap();
    let config = CampaignConfig::default();
    let (mut session, _) = prepare_session(spec, &config).unwrap();
    let (twin, _) = prepare_session(spec, &config).unwrap();
    let base = Arc::clone(session.base().unwrap());
    let ram_base = base.snapshot().ram_base();
    assert!(session.machine().bus().ram_shares_base(ram_base), "capture is the live base");
    assert_eq!(session.overlay_bytes(), 0);
    assert_eq!(session.base_bytes(), 4_718_592, "4 MiB of RAM plus its shadow plane");
    assert_eq!(twin.base_hash(), Some(base.hash()), "independent boots hash alike");
    assert_eq!(state_hash(&session, base.snapshot()), base.hash());

    // One RAM byte, captured through an emu-level snapshot.
    let (ram, size) = session.machine().bus().ram_range();
    for offset in [0, size / 2, size - 1] {
        let machine = session.machine_mut();
        let byte = machine.read_mem(ram + offset, 1).unwrap();
        machine.write_mem(ram + offset, 1, byte ^ 0x01).unwrap();
        let diverged = machine.snapshot();
        assert_ne!(state_hash(&session, &diverged), base.hash(), "RAM byte at {offset:#x}");
        session.reset().unwrap();
        assert_eq!(state_hash(&session, &session.machine().snapshot()), base.hash());
    }

    // One shadow granule (8 bytes of RAM), RAM itself unchanged.
    let start = u64::from(ram + size / 2);
    let poison = InitStep::Poison { start, end: start + 8, kind: PoisonKind::Invalid };
    session.runtime_mut().apply_init(&InitProgram { steps: vec![poison] });
    assert_ne!(state_hash(&session, base.snapshot()), base.hash(), "shadow granule");
    session.reset().unwrap();
    assert_eq!(state_hash(&session, base.snapshot()), base.hash());
}

/// With UMSAN attached the uninit plane is part of the base hash: an
/// 8-byte allocation marks its bytes uninitialized and changes it. UMSAN
/// is the only sanitizer here, so the shadow plane stays as booted.
#[test]
fn ready_point_hash_covers_the_uninit_plane() {
    let image =
        os::emblinux::build(&BuildOptions::new(Arch::Armv).san(SanMode::SanCall), &[]).unwrap();
    let specs = [distill(UMSAN_HEADER).unwrap()];
    let artifacts = probe(&image, ProbeMode::CompileTime, None).unwrap();
    let mut session = Session::new(&image, &specs, &artifacts).unwrap();
    session.run_to_ready(200_000_000).unwrap();
    let base = Arc::clone(session.base().unwrap());
    let ram_size = session.machine().bus().ram_range().1 as usize;
    assert_eq!(base.base_bytes(), ram_size + 2 * ram_size / 8, "RAM, shadow and uninit plane");
    let mut nop = ExecProgram::new();
    nop.push(sys::NOP, &[]);
    session.run_program(&nop, 20_000_000).unwrap();
    assert_eq!(state_hash(&session, base.snapshot()), base.hash(), "no plane touched");
    let mut alloc = ExecProgram::new();
    alloc.push(sys::ALLOC, &[8, 0]);
    session.run_program(&alloc, 20_000_000).unwrap();
    assert_ne!(state_hash(&session, base.snapshot()), base.hash(), "uninit granule");
    session.reset().unwrap();
    assert_eq!(state_hash(&session, base.snapshot()), base.hash());
}

/// Adoption is hash-guarded: a base prepared from different firmware is
/// rejected and the worker keeps its private copy.
#[test]
fn adopt_base_rejects_mismatched_image() {
    let config = CampaignConfig::default();
    let (own, _) = prepare_session(firmware_by_name("TP-Link WDR-7660").unwrap(), &config).unwrap();
    let (mut other, _) =
        prepare_session(firmware_by_name("OpenHarmony-stm32mp1").unwrap(), &config).unwrap();
    let foreign = Arc::clone(own.base().unwrap());
    let own_hash = other.base_hash();
    assert!(!other.adopt_base(&foreign).unwrap(), "mismatched hash must be refused");
    assert_eq!(other.base_hash(), own_hash, "private base is kept on refusal");
}

/// Restore rewinds the round-robin scheduler cursor with the rest of the
/// machine: on a 2-vCPU firmware one interrupt program yields the same
/// exit, results, reports and trace whatever program ran before the reset.
#[test]
fn smp_outcome_is_independent_of_the_previous_program() {
    let spec = firmware_by_name("InfiniTime-sensor").unwrap();
    let (mut session, _) = prepare_session(spec, &CampaignConfig::default()).unwrap();
    // Every program reports afresh, so a predecessor's report cannot hide
    // the same report from the program under test.
    session.runtime_mut().dedup_enabled = false;
    session.enable_tracing(TraceConfig::deterministic());
    let mut target = ExecProgram::new();
    target.push(sys::IRQ_SETUP, &[50, 1, 1]);
    target.push(sys::IRQ_LOAD, &[20]);
    let program = |calls: &[(u8, &[u32])]| {
        let mut p = ExecProgram::new();
        for (nr, args) in calls {
            p.push(*nr, args);
        }
        p
    };
    let predecessors = [
        None,
        Some(program(&[(sys::HASH, &[37])])),
        Some(program(&[(sys::NOP, &[])])),
        Some(program(&[(sys::ECHO, &[5]), (sys::HASH, &[3])])),
        Some(program(&[])),
    ];
    let mut outcomes = Vec::new();
    for before in &predecessors {
        if let Some(before) = before {
            session.run_program_fresh(before, 2_000_000).unwrap();
        }
        session.take_trace();
        session.reset().unwrap();
        let mark = session.trace_mark();
        let outcome = session.run_program(&target, 2_000_000).unwrap();
        let trace = embsan::obs::trace_to_jsonl(&session.drain_trace(mark), &[]);
        outcomes.push((outcome.exit, outcome.results, outcome.reports, trace));
    }
    for (before, outcome) in predecessors.iter().zip(&outcomes).skip(1) {
        assert_eq!(outcome, &outcomes[0], "outcome changed after {before:?}");
    }
}
