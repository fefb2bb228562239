//! Property-based tests (proptest) over the core data structures and
//! invariants: instruction codec, image serialization, the executor wire
//! format, shadow-memory soundness, and the DSL merge rules.
//!
//! Gated behind the off-by-default `proptest` feature: the external
//! `proptest` crate cannot be fetched in offline builds. To run these,
//! restore `proptest` as a dev-dependency and pass `--features proptest`.
#![cfg(feature = "proptest")]

use proptest::prelude::*;

use embsan::core::runtime::kasan::{KasanConfig, KasanEngine};
use embsan::core::runtime::shadow::{code, ShadowMemory};
use embsan::dsl::{merge, ArgSpec, ArgType, InterceptPoint, PointKind, SanitizerSpec};
use embsan::emu::isa::{Insn, Reg, Word};
use embsan::guestos::executor::{ExecCall, ExecProgram};

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..16).prop_map(Reg::from_index)
}

fn arb_insn() -> impl Strategy<Value = Insn> {
    prop_oneof![
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(rd, rs1, rs2)| Insn::Add { rd, rs1, rs2 }),
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(rd, rs1, rs2)| Insn::Mulh { rd, rs1, rs2 }),
        (arb_reg(), arb_reg(), -2048i32..2048).prop_map(|(rd, rs1, imm)| Insn::Addi {
            rd,
            rs1,
            imm
        }),
        (arb_reg(), arb_reg(), 0i32..4096).prop_map(|(rd, rs1, imm)| Insn::Ori { rd, rs1, imm }),
        (arb_reg(), arb_reg(), 0u8..32).prop_map(|(rd, rs1, shamt)| Insn::Slli { rd, rs1, shamt }),
        (arb_reg(), 0u32..(1 << 20)).prop_map(|(rd, imm)| Insn::Lui { rd, imm: imm << 12 }),
        (arb_reg(), arb_reg(), -2048i32..2048).prop_map(|(rd, rs1, imm)| Insn::Lw { rd, rs1, imm }),
        (arb_reg(), arb_reg(), -2048i32..2048).prop_map(|(rs2, rs1, imm)| Insn::Sb {
            rs2,
            rs1,
            imm
        }),
        (arb_reg(), arb_reg(), -2048i32..2048).prop_map(|(rs1, rs2, off)| Insn::Beq {
            rs1,
            rs2,
            offset: off * 4
        }),
        (arb_reg(), -(1i32 << 19)..(1 << 19))
            .prop_map(|(rd, off)| Insn::Jal { rd, offset: off * 4 }),
        (0u32..(1 << 20)).prop_map(|nr| Insn::Hyper { nr }),
        (0u16..u16::MAX).prop_map(|code| Insn::Halt { code }),
        Just(Insn::Wfi),
        Just(Insn::Eret),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every encodable instruction decodes back to itself, and its byte
    /// serialization round-trips in both endiannesses.
    #[test]
    fn insn_codec_roundtrip(insn in arb_insn()) {
        let word = insn.encode();
        prop_assert_eq!(Insn::decode(word), Ok(insn));
        for endian in [embsan::emu::Endian::Little, embsan::emu::Endian::Big] {
            let bytes = word.to_bytes(endian);
            prop_assert_eq!(Word::from_bytes(bytes, endian), word);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The executor wire format round-trips arbitrary well-formed programs.
    #[test]
    fn exec_program_roundtrip(
        calls in prop::collection::vec(
            (0u8..64, prop::collection::vec(any::<u32>(), 0..=4)),
            0..32
        )
    ) {
        let program = ExecProgram {
            calls: calls
                .into_iter()
                .map(|(nr, args)| ExecCall { nr, args })
                .collect(),
        };
        prop_assert_eq!(ExecProgram::decode(&program.encode()), Some(program));
    }

    /// Decoding never panics on arbitrary bytes (it may reject them).
    #[test]
    fn exec_program_decode_total(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = ExecProgram::decode(&bytes);
    }
}

/// Abstract allocator events over a shadow memory.
#[derive(Debug, Clone)]
enum AllocEvent {
    Alloc { slot: usize, size: u32 },
    Free { slot: usize },
}

fn arb_events() -> impl Strategy<Value = Vec<AllocEvent>> {
    prop::collection::vec(
        prop_oneof![
            (0usize..6, 1u32..200).prop_map(|(slot, size)| AllocEvent::Alloc { slot, size }),
            (0usize..6).prop_map(|slot| AllocEvent::Free { slot }),
        ],
        0..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Shadow soundness under arbitrary allocator histories: every byte of
    /// every *live* object is addressable; the first byte past a live
    /// object is not; freed objects are poisoned. This is the sanitizer's
    /// no-false-positive / no-false-negative core invariant.
    #[test]
    fn shadow_tracks_arbitrary_alloc_histories(events in arb_events()) {
        let ram_base = 0x10_0000u32;
        let heap_base = 0x10_1000u32;
        let mut shadow = ShadowMemory::new(ram_base, 0x4_0000);
        shadow.poison(heap_base, ram_base + 0x4_0000, code::HEAP);
        let mut engine = KasanEngine::new(KasanConfig::default());

        // A slab-like allocator model: slots at fixed, disjoint addresses
        // with an 8-byte header gap (as all the guest allocators keep).
        let slot_addr = |slot: usize| heap_base + (slot as u32) * 0x200 + 8;
        let mut live: [Option<u32>; 6] = [None; 6];

        for event in events {
            match event {
                AllocEvent::Alloc { slot, size } => {
                    // (Re)allocate the slot; a still-live slot is freed
                    // first, as a real freelist would.
                    if live[slot].is_some() {
                        let report =
                            engine.on_free(&mut shadow, slot_addr(slot), 0x100, 0);
                        prop_assert!(report.is_none());
                    }
                    engine.on_alloc(&mut shadow, slot_addr(slot), size, 0x200);
                    live[slot] = Some(size);
                }
                AllocEvent::Free { slot } => {
                    if live[slot].take().is_some() {
                        let report =
                            engine.on_free(&mut shadow, slot_addr(slot), 0x300, 0);
                        prop_assert!(report.is_none(), "live free must not report");
                    }
                }
            }
            // Invariants over all slots after every event.
            for (slot, state) in live.iter().enumerate() {
                let addr = slot_addr(slot);
                match state {
                    Some(size) => {
                        prop_assert!(
                            shadow.check(addr, 1).is_ok(),
                            "first byte of live object"
                        );
                        prop_assert!(
                            shadow.check(addr + size - 1, 1).is_ok(),
                            "last byte of live object (size {size})"
                        );
                        prop_assert!(
                            shadow.check(addr + size, 1).is_err(),
                            "one past a live object of size {size}"
                        );
                    }
                    None => {
                        prop_assert!(
                            shadow.check(addr, 1).is_err(),
                            "freed/unallocated slot is poisoned"
                        );
                    }
                }
            }
        }
    }

    /// Double frees are always reported, regardless of history.
    #[test]
    fn double_free_always_reported(size in 1u32..200) {
        let mut shadow = ShadowMemory::new(0x10_0000, 0x1_0000);
        shadow.poison(0x10_1000, 0x10_8000, code::HEAP);
        let mut engine = KasanEngine::new(KasanConfig::default());
        engine.on_alloc(&mut shadow, 0x10_1008, size, 0x1);
        prop_assert!(engine.on_free(&mut shadow, 0x10_1008, 0x2, 0).is_none());
        let report = engine.on_free(&mut shadow, 0x10_1008, 0x3, 0);
        prop_assert!(report.is_some());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Snapshot fidelity: from any reachable machine state,
    /// `restore(snapshot())` followed by `snapshot()` is the identity. The
    /// supervisor's wedge recovery and every fuzzing reset rely on this.
    #[test]
    fn snapshot_roundtrip_is_identity(
        boot_budget in 1_000u64..200_000,
        perturb in 100u64..20_000,
        calls in prop::collection::vec((0u8..24, prop::collection::vec(any::<u32>(), 0..3)), 0..3)
    ) {
        let opts = embsan::guestos::BuildOptions::new(embsan::emu::profile::Arch::Armv);
        let image = embsan::guestos::os::emblinux::build(&opts, &[]).unwrap();
        let mut machine = image.boot_machine(1).unwrap();
        machine.run(&mut embsan::emu::NullHook, boot_budget).unwrap();
        let mut program = ExecProgram::new();
        for (nr, args) in calls {
            program.push(nr, &args);
        }
        machine.bus_mut().devices.mailbox.host_load(&program.encode());
        machine.run(&mut embsan::emu::NullHook, perturb).unwrap();

        let first = machine.snapshot();
        machine.run(&mut embsan::emu::NullHook, perturb).unwrap();
        machine.restore(&first).unwrap();
        prop_assert_eq!(machine.snapshot(), first);
    }

    /// Restoring into a machine with a different vCPU count is a typed
    /// mismatch error for every count pair, and never mutates the target.
    #[test]
    fn snapshot_vcpu_mismatch_is_typed(a in 1usize..4, b in 1usize..4) {
        prop_assume!(a != b);
        let opts = embsan::guestos::BuildOptions::new(embsan::emu::profile::Arch::Armv);
        let image = embsan::guestos::os::emblinux::build(&opts, &[]).unwrap();
        let source = image.boot_machine(a).unwrap();
        let mut target = image.boot_machine(b).unwrap();
        let before = target.snapshot();
        let err = target.restore(&source.snapshot()).unwrap_err();
        prop_assert!(matches!(err, embsan::emu::error::EmuError::SnapshotMismatch(_)));
        prop_assert_eq!(target.snapshot(), before);
    }
}

fn arb_spec(name: &'static str) -> impl Strategy<Value = SanitizerSpec> {
    let arb_ty = prop_oneof![
        Just(ArgType::U8),
        Just(ArgType::U16),
        Just(ArgType::U32),
        Just(ArgType::Usize),
        Just(ArgType::Ptr),
    ];
    let arg_names = prop::sample::select(vec!["addr", "size", "value", "cpu", "flags"]);
    let point = (
        prop_oneof![Just(PointKind::Insn), Just(PointKind::Call), Just(PointKind::Event)],
        prop::sample::select(vec!["load", "store", "atomic", "alloc", "free", "ready"]),
        prop::collection::btree_map(arg_names, arb_ty, 0..4),
    )
        .prop_map(|(kind, pname, args)| InterceptPoint {
            kind,
            name: pname.to_string(),
            args: args
                .into_iter()
                .map(|(n, ty)| ArgSpec { name: n.to_string(), ty, sources: Vec::new() })
                .collect(),
        });
    prop::collection::vec(point, 0..6).prop_map(move |points| {
        // Deduplicate (kind, name) pairs: a single spec lists each point once.
        let mut seen = std::collections::BTreeSet::new();
        let points = points.into_iter().filter(|p| seen.insert((p.kind, p.name.clone()))).collect();
        SanitizerSpec { name: name.to_string(), resources: Default::default(), points }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// §3.1 merge laws: the merged point set is the union (order-insensitive
    /// as a set), every argument is annotated with at least one source, and
    /// merged argument types are at least as wide as every source's.
    #[test]
    fn merge_laws(a in arb_spec("kasan"), b in arb_spec("kcsan")) {
        let merged = merge(&[a.clone(), b.clone()]);
        let key = |p: &InterceptPoint| (p.kind, p.name.clone());
        let merged_keys: std::collections::BTreeSet<_> =
            merged.points.iter().map(key).collect();
        let union_keys: std::collections::BTreeSet<_> =
            a.points.iter().chain(&b.points).map(key).collect();
        prop_assert_eq!(&merged_keys, &union_keys);

        let flipped = merge(&[b.clone(), a.clone()]);
        let flipped_keys: std::collections::BTreeSet<_> =
            flipped.points.iter().map(key).collect();
        prop_assert_eq!(&merged_keys, &flipped_keys);

        for point in &merged.points {
            for arg in &point.args {
                prop_assert!(!arg.sources.is_empty(), "annotations identify sources");
                for source in [&a, &b] {
                    if let Some(p) = source.point(point.kind, &point.name) {
                        if let Some(src_arg) = p.args.iter().find(|x| x.name == arg.name) {
                            prop_assert!(
                                arg.ty >= src_arg.ty,
                                "merged type is the largest union"
                            );
                        }
                    }
                }
            }
        }

        // The merged spec is printable, parseable DSL.
        let reparsed = embsan::dsl::parse(&merged.to_string()).unwrap();
        prop_assert_eq!(reparsed.len(), 1);
    }
}

proptest! {
    /// The parallel engine ships coverage as sparse classified exports and
    /// merges them at epoch barriers; that path must be exactly equivalent
    /// to the sequential fuzzer's dense `merge_novel` — same novelty count,
    /// same resulting global map — or parallel corpus admission would
    /// diverge from the 1-worker run.
    #[test]
    fn sparse_classified_merge_matches_dense_merge(
        records in proptest::collection::vec((0u32..(1 << 18), 0usize..8), 0..300)
    ) {
        use embsan::fuzz::cover::{CoverageMap, MAP_SIZE};
        let mut cov = CoverageMap::new();
        for &(pc, cpu) in &records {
            cov.record(cpu, pc);
        }
        let mut dense = Box::new([0u8; MAP_SIZE]);
        let mut via_sparse = Box::new([0u8; MAP_SIZE]);
        let dense_novel = cov.merge_novel(&mut dense);
        let sparse = cov.classified_sparse();
        let sparse_novel = CoverageMap::merge_classified(&mut via_sparse, &sparse);
        prop_assert_eq!(dense_novel, sparse_novel);
        prop_assert_eq!(&dense[..], &via_sparse[..]);

        // Re-merging the same export is never novel (idempotence).
        prop_assert_eq!(CoverageMap::merge_classified(&mut via_sparse, &sparse), 0);
    }
}

/// Decodes one raw u64 into a loop-heavy instruction at index `i` of an
/// `n`-instruction program, mirroring the deterministic generator in
/// `crates/emu/tests/chaining.rs`: no CSR writes (no timer interrupts), no
/// `wfi`, no indirect jumps, memory traffic only through a preserved RAM
/// base register — so the retired stream depends only on the program.
fn synth_loop_insn(raw: u64, i: usize, n: usize) -> Insn {
    let rd = Reg::from_index((raw >> 8) as u8 % 16);
    let rd = if rd == Reg::R10 { Reg::R11 } else { rd };
    let rs1 = Reg::from_index((raw >> 16) as u8 % 16);
    let rs2 = Reg::from_index((raw >> 24) as u8 % 16);
    let imm = ((raw >> 32) & 0x7FF) as i32;
    let target = ((raw >> 44) as usize) % n;
    let offset = (target as i32 - i as i32) * 4;
    match raw % 10 {
        0 => Insn::Add { rd, rs1, rs2 },
        1 => Insn::Sub { rd, rs1, rs2 },
        2 => Insn::Xor { rd, rs1, rs2 },
        3 => Insn::Addi { rd, rs1, imm: imm - 1024 },
        4 => Insn::Slli { rd, rs1, shamt: (raw >> 50) as u8 % 32 },
        5 => Insn::Lw { rd, rs1: Reg::R10, imm: imm & !3 },
        6 => Insn::Sw { rs2: rs1, rs1: Reg::R10, imm: imm & !3 },
        7 => Insn::Beq { rs1, rs2, offset },
        8 => Insn::Bne { rs1, rs2, offset },
        _ => Insn::Jal { rd: Reg::R0, offset },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The chained/superblock dispatcher retires the identical architectural
    /// stream as the plain per-block dispatcher. The reference executor is
    /// the same machine with a one-instruction scheduling quantum: chains
    /// and promotion only engage on the second dispatch within a quantum, so
    /// quantum 1 always goes through the plain cache-lookup path.
    #[test]
    fn chained_dispatch_equals_unchained(
        words in proptest::collection::vec(any::<u64>(), 24),
        tail in any::<u64>(),
        armed in any::<bool>(),
    ) {
        use embsan::emu::prelude::*;

        let profile = ArchProfile::armv();
        let n = words.len() + 1;
        let mut insns = vec![Insn::Lui { rd: Reg::R10, imm: profile.ram_base }];
        for (i, &raw) in words.iter().enumerate() {
            insns.push(synth_loop_insn(raw, i + 1, n));
        }
        // Close the program with a backward jump so every case loops.
        let target = (tail as usize) % n;
        insns.push(Insn::Jal { rd: Reg::R0, offset: (target as i32 - n as i32) * 4 });

        let config = if armed {
            HookConfig { mem: true, calls: true, ..HookConfig::none() }
        } else {
            HookConfig::none()
        };
        let run = |quantum: Option<u64>| {
            let mut text = Vec::new();
            for insn in &insns {
                text.extend_from_slice(&insn.encode().to_bytes(profile.endian));
            }
            let mut builder = Machine::builder(profile)
                .rom(profile.rom_base, &text)
                .ram(profile.ram_base, 0x1_0000);
            if let Some(q) = quantum {
                builder = builder.quantum(q);
            }
            let mut m = builder.build().unwrap();
            m.set_hook_config(config);
            let exit = m.run(&mut NullHook, 2_500).unwrap();
            let regs: Vec<u32> = Reg::ALL.iter().map(|&r| m.cpu(0).regs.read(r)).collect();
            (exit, regs, m.cpu(0).pc, m.retired())
        };
        prop_assert_eq!(run(None), run(Some(1)));
    }
}
