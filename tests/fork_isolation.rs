//! Fork-isolation: the copy-on-write snapshot contract.
//!
//! Two workers forked from one base image must be able to mutate RAM —
//! including the same pages — without any write-through to the shared
//! base, each worker's incremental footprint must be exactly its dirty
//! pages, and every restore must leave exactly the bytes a flat
//! `Vec<u8>` model of the same writes predicts.

use std::collections::BTreeSet;
use std::sync::Arc;

use embsan::core::distill::{distill, UMSAN_HEADER};
use embsan::core::probe::{probe, ProbeMode};
use embsan::core::session::Session;
use embsan::dsl::{InitProgram, InitStep, PoisonKind};
use embsan::emu::cow::{FrozenPages, PagedBytes, PAGE_SIZE};
use embsan::emu::hash::fold;
use embsan::emu::prelude::*;
use embsan::fuzz::campaign::{prepare_session, CampaignConfig};
use embsan::fuzz::{descriptions_for, Fuzzer, FuzzerConfig, SplitMix64, Strategy};
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

/// All of a machine's RAM, read byte for byte.
fn ram_of(machine: &Machine) -> Vec<u8> {
    let (ram, size) = machine.bus().ram_range();
    let mut bytes = vec![0; size as usize];
    machine.bus().read_bytes(ram, &mut bytes).unwrap();
    bytes
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
    let base_before = ram_of(&a);

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

    // No write-through: a third machine forked from the base afterwards
    // reads the bytes captured before either fork wrote.
    let mut c = counting_machine();
    c.restore(&snap).unwrap();
    assert_eq!(ram_of(&c), base_before);

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

/// Records every guest store into a flat byte vector: a model of RAM that
/// shares no code with the paged store.
struct FlatRam {
    base: u32,
    bytes: Vec<u8>,
}

impl ExecHook for FlatRam {
    fn mem_access(&mut self, _: &mut CpuView<'_>, access: &MemAccess) -> HookAction {
        if access.kind.is_write() {
            let (at, size) = ((access.addr - self.base) as usize, usize::from(access.size));
            self.bytes[at..at + size].copy_from_slice(&access.value.to_le_bytes()[..size]);
        }
        HookAction::Continue
    }
}

/// The copy-on-write restore leaves exactly the RAM a flat model of the
/// same guest stores and host writes predicts, before and after restores,
/// and re-execution from a restore matches the model again.
#[test]
fn cow_restore_equals_materialized_restore() {
    let mut machine = counting_machine();
    machine.set_hook_config(HookConfig { mem: true, ..HookConfig::none() });
    let (ram, size) = machine.bus().ram_range();
    let mut model = FlatRam { base: ram, bytes: vec![0; size as usize] };
    machine.run(&mut model, 100).unwrap();
    let snap = machine.snapshot();
    let ready = model.bytes.clone();
    assert_eq!(ram_of(&machine), ready);

    for round in 0..3u64 {
        machine.run(&mut model, 60 + round).unwrap();
        let value = 0xDEAD_0000 + round as u32;
        machine.write_mem(ram + 5 * PAGE, 4, value).unwrap();
        let at = 5 * PAGE as usize;
        model.bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
        assert_eq!(ram_of(&machine), model.bytes, "round {round}");
        machine.restore(&snap).unwrap();
        model.bytes.clone_from(&ready);
        assert!(machine.bus().ram_is_forked());
        assert_eq!(ram_of(&machine), model.bytes, "round {round} restored");
        assert_eq!(machine.snapshot(), snap, "round {round}");
        // Re-execution from the restore matches the model.
        machine.run(&mut model, 200).unwrap();
        assert_eq!(ram_of(&machine), model.bytes, "round {round} post-run");
        machine.restore(&snap).unwrap();
        model.bytes.clone_from(&ready);
    }
}

/// A flat model of one [`PagedBytes`]: its contents, and the pages written
/// since the last restore, freeze or adopt.
#[derive(Clone, Default)]
struct PagedModel {
    bytes: Vec<u8>,
    touched: BTreeSet<usize>,
}

impl PagedModel {
    fn write(&mut self, offset: usize, src: &[u8]) {
        self.bytes[offset..offset + src.len()].copy_from_slice(src);
        if !src.is_empty() {
            self.touched.extend(offset / PAGE_SIZE..=(offset + src.len() - 1) / PAGE_SIZE);
        }
    }

    fn overlay_bytes(&self) -> usize {
        self.touched.iter().map(|&page| (self.bytes.len() - page * PAGE_SIZE).min(PAGE_SIZE)).sum()
    }

    /// The documented content hash over the flat bytes: the length, then
    /// the index and bytes of every page holding a non-zero byte.
    fn hash(&self, seed: u64) -> u64 {
        let mut hash = fold(seed, &(self.bytes.len() as u64).to_le_bytes());
        for (index, page) in self.bytes.chunks(PAGE_SIZE).enumerate() {
            if page.iter().any(|&byte| byte != 0) {
                hash = fold(fold(hash, &(index as u64).to_le_bytes()), page);
            }
        }
        hash
    }

    fn check(&self, buf: &PagedBytes, rng: &mut SplitMix64, step: usize) {
        let mut contents = vec![0; buf.len()];
        buf.read_bytes(0, &mut contents);
        assert!(contents == self.bytes, "contents differ after step {step}");
        let at = rng.gen_usize() % buf.len();
        assert_eq!(buf.get(at), self.bytes[at], "get({at}) after step {step}");
        assert_eq!(buf.overlay_bytes(), self.overlay_bytes(), "overlay after step {step}");
        assert_eq!(buf.overlay_pages(), self.touched.len(), "private pages after step {step}");
        let seed = rng.next_u64();
        assert_eq!(buf.fold_hash(seed), self.hash(seed), "hash after step {step}");
    }
}

/// Drives one [`PagedBytes`] and its flat model with `steps` random
/// operations: in-page and straddling writes and fills (zero fills
/// included, onto the partial last page too), freezes, restores, adopting
/// another frozen base, and restoring from another buffer. Contents,
/// private bytes and the hash must match the model after every step, and
/// no frozen base may ever change.
fn run_paged_model(seed: u64, steps: usize) {
    const LEN: usize = 5 * PAGE_SIZE + 123;
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut buf = PagedBytes::zeroed(LEN);
    let mut model = PagedModel { bytes: vec![0; LEN], touched: BTreeSet::new() };
    // The model of the buffer's base contents, and every frozen base so far.
    let mut base_bytes = vec![0; LEN];
    let mut bases: Vec<(Arc<FrozenPages>, Vec<u8>)> = Vec::new();
    for step in 0..steps {
        let offset = rng.gen_usize() % LEN;
        let room = LEN - offset;
        match rng.gen_usize() % 16 {
            0..=3 => {
                let len = 1 + rng.gen_usize() % (PAGE_SIZE - offset % PAGE_SIZE).min(room).min(8);
                let src: Vec<u8> = (0..len).map(|_| rng.gen_u8()).collect();
                buf.slice_mut(offset, len).copy_from_slice(&src);
                model.write(offset, &src);
            }
            4..=6 => {
                let len = rng.gen_usize() % room.min(2 * PAGE_SIZE + 64);
                let value = if rng.gen_bool(0.4) { 0 } else { rng.gen_u8() };
                buf.fill(offset, len, value);
                model.write(offset, &vec![value; len]);
            }
            7..=9 => {
                let len = rng.gen_usize() % room.min(PAGE_SIZE + 300);
                let src: Vec<u8> = (0..len).map(|_| rng.gen_u8() & 3).collect();
                buf.write_bytes(offset, &src);
                model.write(offset, &src);
            }
            10 => {
                let value = rng.gen_u8();
                *buf.byte_mut(offset) = value;
                model.write(offset, &[value]);
            }
            11 => {
                let base = buf.freeze();
                assert!(buf.shares_base(&base));
                base_bytes.clone_from(&model.bytes);
                model.touched.clear();
                bases.push((base, base_bytes.clone()));
            }
            12 | 13 => {
                buf.restore();
                model.bytes.clone_from(&base_bytes);
                model.touched.clear();
            }
            14 if !bases.is_empty() => {
                let (base, bytes) = &bases[rng.gen_usize() % bases.len()];
                buf.adopt(Arc::clone(base));
                base_bytes.clone_from(bytes);
                model = PagedModel { bytes: bytes.clone(), touched: BTreeSet::new() };
            }
            15 if !bases.is_empty() => {
                let (base, bytes) = &bases[rng.gen_usize() % bases.len()];
                let mut other = PagedBytes::forked(Arc::clone(base));
                let mut other_model = PagedModel { bytes: bytes.clone(), touched: BTreeSet::new() };
                if rng.gen_bool(0.5) {
                    other.write_bytes(offset, &[0xA5]);
                    other_model.write(offset, &[0xA5]);
                }
                buf.restore_from(&other);
                base_bytes.clone_from(bytes);
                model = other_model;
            }
            _ => {}
        }
        model.check(&buf, &mut rng, step);
    }
    for (base, bytes) in &bases {
        let fork = PagedBytes::forked(Arc::clone(base));
        PagedModel { bytes: bytes.clone(), touched: BTreeSet::new() }.check(&fork, &mut rng, steps);
        assert_eq!(base.fold_hash(7), fork.fold_hash(7), "an image hashes as its forks do");
    }
}

#[test]
fn paged_bytes_matches_a_flat_model() {
    for seed in [1, 2, 3] {
        run_paged_model(seed, 600);
    }
}

/// The same model check at about 10^5 operations per seed (run in release).
#[test]
#[ignore = "long-running; run in release with --include-ignored"]
fn paged_bytes_matches_a_flat_model_at_scale() {
    for seed in [11, 12, 13, 14] {
        run_paged_model(seed, 100_000);
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
