//! Integration tests for the static-analysis passes, over real firmware
//! built by `embsan-guestos`.

use embsan_analysis::audit::{audit, audit_with};
use embsan_analysis::cfg::{Cfg, VIRTUAL_ROOT};
use embsan_analysis::races::{race_candidates, watchpoint_priorities};
use embsan_analysis::{harvest, static_priors, AnalysisArtifact};
use embsan_asm::image::FirmwareImage;
use embsan_core::probe::{probe, ProbeMode};
use embsan_emu::hook::HookConfig;
use embsan_emu::isa::Insn;
use embsan_emu::profile::Arch;
use embsan_emu::translate::translate_block_at;
use embsan_guestos::bugs::{BugKind, BugSpec, LATENT_BUGS};
use embsan_guestos::{os, BuildOptions, SanMode};

fn all_images() -> Vec<(String, FirmwareImage)> {
    let mut images = Vec::new();
    for arch in Arch::ALL {
        let opts = BuildOptions::new(arch);
        images.push((format!("emblinux/{arch:?}"), os::emblinux::build(&opts, &[]).unwrap()));
        images.push((format!("freertos/{arch:?}"), os::freertos::build(&opts, &[]).unwrap()));
        images.push((format!("liteos/{arch:?}"), os::liteos::build(&opts, &[]).unwrap()));
        // The VxWorks flavour ships stripped; audit the closed-source form.
        images.push((format!("vxworks/{arch:?}"), os::vxworks::build(&opts, &[]).unwrap()));
    }
    images
}

/// Tentpole acceptance: the real translator splices a probe on every
/// reachable memory op, for all 4 OS flavours × all 3 arch profiles.
#[test]
fn probe_audit_is_clean_on_all_images() {
    for (name, image) in all_images() {
        let report = audit(&image, HookConfig::all()).unwrap();
        assert!(report.checked_sites > 100, "{name}: implausibly few sites");
        assert!(
            report.is_clean(),
            "{name}: missing={:x?} spurious={:x?} uncovered={:x?}",
            report.missing,
            report.spurious,
            report.uncovered,
        );
        // With probes disarmed nothing may carry a probe marker.
        let disarmed = audit(&image, HookConfig::none()).unwrap();
        assert_eq!(disarmed.probed_sites, 0, "{name}: probes spliced while disarmed");
        assert!(disarmed.is_clean(), "{name}: disarmed audit not clean");
    }
}

/// Deliberately stripping probe splicing from one memory-op kind (stores)
/// must make the audit fail — the negative control for the auditor itself.
#[test]
fn audit_catches_stripped_store_probes() {
    let opts = BuildOptions::new(Arch::Armv);
    let image = os::emblinux::build(&opts, &[]).unwrap();
    let broken = |bus: &_, pc, config| {
        let mut block = translate_block_at(bus, pc, config)?;
        for op in &mut block.ops {
            if matches!(op.insn, Insn::Sb { .. } | Insn::Sh { .. } | Insn::Sw { .. }) {
                op.probe_mem = false;
            }
        }
        Ok(block)
    };
    let report = audit_with(&image, HookConfig::all(), broken).unwrap();
    assert!(!report.is_clean());
    assert!(!report.missing.is_empty());
    assert!(report
        .missing
        .iter()
        .all(|(_, insn)| matches!(insn, Insn::Sb { .. } | Insn::Sh { .. } | Insn::Sw { .. })));
}

/// CFG recovery finds the kernel's functions, reaches the indirect-dispatch
/// syscall handlers via address-taken constants, and roots its dominator
/// tree correctly.
#[test]
fn cfg_recovers_functions_dispatch_targets_and_dominators() {
    let opts = BuildOptions::new(Arch::Armv);
    let image = os::emblinux::build(&opts, &[]).unwrap();
    let cfg = Cfg::build(&image);

    for name in ["boot", "kernel_ready", "uart_puts", "executor_loop", "syscalls_init"] {
        let addr = image.symbol(name).unwrap();
        assert!(cfg.functions.contains_key(&addr), "function {name} not recovered");
    }
    // sys_stat is only reachable through the sys_table function-pointer
    // dispatch; address-taken recovery must still reach it.
    let stat = image.symbol("sys_stat").unwrap();
    assert!(cfg.address_taken.contains(&stat), "sys_stat not address-taken");
    assert!(cfg.blocks.contains_key(&stat), "sys_stat unreachable");

    // Every recovered block has a dominator chain ending at the virtual root.
    for &start in cfg.blocks.keys() {
        assert!(cfg.idom.contains_key(&start), "block {start:#x} lacks an idom");
        assert!(cfg.dominates(VIRTUAL_ROOT, start));
    }
    // A function entry dominates the blocks of its own straight-line body.
    let puts = image.symbol("uart_puts").unwrap();
    for &b in &cfg.functions[&puts].blocks {
        assert!(cfg.dominates(puts, b));
    }
    assert!(cfg.reachable_fraction() > 0.5, "most of the text should be reachable");
}

/// The allocator-signature pass must rank the true allocator pair of the
/// *stripped* VxWorks image, and feeding it to the D-binary prober must cut
/// the dry-run passes strictly below the unassisted baseline.
#[test]
fn static_priors_cut_dynamic_binary_probe_passes() {
    let opts = BuildOptions::new(Arch::Armv);
    let stripped = os::vxworks::build(&opts, &[]).unwrap();
    let truth = os::vxworks::build_unstripped(&opts, &[]).unwrap();
    let alloc_addr = truth.symbol("memPartAlloc").unwrap();
    let free_addr = truth.symbol("memPartFree").unwrap();

    let prior = static_priors(&stripped);
    assert!(
        prior.alloc_candidates.contains(&alloc_addr),
        "memPartAlloc {alloc_addr:#x} missing from candidates {:#x?}",
        prior.alloc_candidates
    );
    assert!(
        prior.free_candidates.contains(&free_addr),
        "memPartFree {free_addr:#x} missing from candidates {:#x?}",
        prior.free_candidates
    );

    let baseline = probe(&stripped, ProbeMode::DynamicBinary, None).unwrap();
    let assisted = probe(&stripped, ProbeMode::DynamicBinary, Some(&prior)).unwrap();
    assert!(
        assisted.stats.dry_run_passes < baseline.stats.dry_run_passes,
        "static priors did not cut passes: {} vs {}",
        assisted.stats.dry_run_passes,
        baseline.stats.dry_run_passes
    );
    assert_eq!(assisted.stats.dry_run_passes, 1);
    assert_eq!(baseline.stats.dry_run_passes, 2);
    // Both paths must converge on the same platform description.
    assert_eq!(assisted.to_dsl(), baseline.to_dsl());
}

/// The lockset pass flags the deliberately unsynchronized counter and does
/// not flag the spinlock-protected statistics word.
#[test]
fn lockset_flags_racy_counter_but_not_locked_stats() {
    let race_bug = LATENT_BUGS
        .iter()
        .find(|b| b.kind == BugKind::Race)
        .map(|b| BugSpec::new(b.location, b.kind))
        .expect("corpus has a race bug");
    let mut opts = BuildOptions::new(Arch::Armv);
    opts.cpus = 2;
    let image = os::emblinux::build(&opts, &[race_bug]).unwrap();
    let cfg = Cfg::build(&image);
    let candidates = race_candidates(&cfg, &image);

    let racy = image.symbol("racy_counter").unwrap();
    let shared = image.symbol("shared_stats").unwrap();
    assert!(
        candidates.iter().any(|c| c.addr == racy),
        "racy_counter {racy:#x} not flagged: {candidates:#x?}"
    );
    assert!(
        !candidates.iter().any(|c| c.addr == shared),
        "lock-protected shared_stats {shared:#x} wrongly flagged"
    );
    let candidate = candidates.iter().find(|c| c.addr == racy).unwrap();
    assert!(candidate.unlocked_writes >= 1);
    assert_eq!(candidate.symbol.as_deref(), Some("racy_counter"));
}

/// The ranked race candidates plumb through to the KCSAN engine's
/// watchpoint prioritization on a live session.
#[test]
fn race_priorities_flow_into_kcsan_session() {
    let race_bug = LATENT_BUGS
        .iter()
        .find(|b| b.kind == BugKind::Race)
        .map(|b| BugSpec::new(b.location, b.kind))
        .unwrap();
    let mut opts = BuildOptions::new(Arch::Armv);
    opts.cpus = 2;
    opts.san = SanMode::SanCall;
    let image = os::emblinux::build(&opts, &[race_bug]).unwrap();
    let cfg = Cfg::build(&image);
    let priorities = watchpoint_priorities(&cfg, &image);
    let racy = image.symbol("racy_counter").unwrap();
    assert!(priorities.contains(&racy), "racy_counter missing from priorities");

    let specs = embsan_core::reference_specs().unwrap();
    let artifacts = probe(&image, ProbeMode::CompileTime, None).unwrap();
    let mut session = embsan_core::session::Session::new(&image, &specs, &artifacts).unwrap();
    assert_eq!(session.runtime().race_priority_count(), 0);
    session.set_race_priorities(&priorities);
    assert_eq!(session.runtime().race_priority_count(), priorities.len());
}

/// The comparison harvester reassembles a wide-gate trigger key that the
/// immediate scan can only ever see as two disjoint halves.
#[test]
fn harvester_reassembles_wide_gate_keys() {
    let spec = BugSpec::new("fuzz/wide", BugKind::OobWrite);
    let opts = BuildOptions::new(Arch::Armv).wide_gates(true);
    let image = os::emblinux::build(&opts, std::slice::from_ref(&spec)).unwrap();
    let cfg = Cfg::build(&image);
    let key = embsan_guestos::bugs::wide_trigger_key("fuzz/wide");
    let operands = harvest(&cfg);
    let hit = operands.iter().find(|op| op.value == key).unwrap_or_else(|| {
        panic!("wide key {key:#x} not harvested from {} operands", operands.len())
    });
    // The guarding block lives inside the bug handler.
    let handler = image.symbol("sys_bug_0").unwrap();
    assert_eq!(cfg.owner_of(hit.block), handler, "guard block outside sys_bug_0");
    // The staged-gate build of the same firmware never compares the wide
    // key (its constants are the two gate bytes).
    let staged = os::emblinux::build(&BuildOptions::new(Arch::Armv), &[spec]).unwrap();
    let staged_ops = harvest(&Cfg::build(&staged));
    assert!(staged_ops.iter().all(|op| op.value != key));
}

/// The artifact round-trips through JSON bit-exactly and validates its
/// image pairing.
#[test]
fn artifact_round_trips_on_real_firmware() {
    let spec = BugSpec::new("fuzz/wide", BugKind::OobWrite);
    let opts = BuildOptions::new(Arch::Armv).wide_gates(true);
    let image = os::emblinux::build(&opts, &[spec]).unwrap();
    let artifact = AnalysisArtifact::from_image(&image);
    let key = embsan_guestos::bugs::wide_trigger_key("fuzz/wide");
    assert!(artifact.operands().contains(&key), "the wide key should be harvested");
    let reparsed = AnalysisArtifact::parse(&artifact.to_json()).unwrap();
    assert_eq!(reparsed, artifact);
    assert!(artifact.matches_image(&image));
    // A different build is refused.
    let other = os::freertos::build(&BuildOptions::new(Arch::Armv), &[]).unwrap();
    assert!(!artifact.matches_image(&other));
}

/// `memory_sites_cached` memoizes: repeated calls return the same slice,
/// and the owned export matches it.
#[test]
fn memory_sites_are_memoized() {
    let opts = BuildOptions::new(Arch::Armv);
    let image = os::emblinux::build(&opts, &[]).unwrap();
    let cfg = Cfg::build(&image);
    let first = cfg.memory_sites_cached();
    let second = cfg.memory_sites_cached();
    assert_eq!(first.as_ptr(), second.as_ptr(), "cache was recomputed");
    let owned = cfg.memory_sites();
    assert_eq!(owned.len(), first.len());
    assert!(owned.iter().zip(first).all(|(a, b)| a.pc == b.pc && a.addr == b.addr));
}
