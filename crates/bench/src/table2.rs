//! Table 2: replay of the 25 previously-found bugs under EMBSAN-C,
//! EMBSAN-D and native KASAN.
//!
//! Following §4.1: for each bug, the specific kernel is built (one seeded
//! bug per build, like checking out the bug report's kernel version), its
//! reproducer program is replayed under each sanitizer configuration, and
//! detection is recorded. The expected outcome — everything detected except
//! the two global-OOB bugs under EMBSAN-D — must *emerge* from the
//! mechanisms; nothing here special-cases those rows.

use embsan_core::probe::{probe, ProbeMode};
use embsan_core::report::BugClass;
use embsan_emu::hook::NullHook;
use embsan_emu::machine::RunExit;
use embsan_emu::profile::Arch;
use embsan_fuzz::campaign::boot_session;
use embsan_fuzz::CampaignConfig;
use embsan_guestos::bugs::{trigger_key, BugKind, BugSpec, KnownBug, KNOWN_BUGS};
use embsan_guestos::executor::{sys, ExecProgram};
use embsan_guestos::native::{KASAN_EXIT, KASAN_MARKER};
use embsan_guestos::{os, BuildOptions, SanMode};

/// Detection outcome for one Table-2 row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectionRow {
    /// Index into [`KNOWN_BUGS`].
    pub index: usize,
    /// Detected by EMBSAN-C.
    pub embsan_c: bool,
    /// Detected by EMBSAN-D.
    pub embsan_d: bool,
    /// Detected by the guest-native KASAN baseline.
    pub kasan: bool,
}

/// The report classes that count as detecting a seeded bug kind.
fn expected_classes(kind: BugKind) -> &'static [BugClass] {
    match kind {
        BugKind::OobWrite | BugKind::OobRead | BugKind::OobWriteFar => &[BugClass::HeapOob],
        BugKind::Uaf => &[BugClass::Uaf],
        BugKind::DoubleFree => &[BugClass::DoubleFree, BugClass::InvalidFree],
        BugKind::NullDeref => &[BugClass::NullDeref],
        BugKind::GlobalOob => &[BugClass::GlobalOob],
        BugKind::Race => &[BugClass::Race],
        BugKind::UninitRead => &[BugClass::UninitRead],
    }
}

/// The reproducer program shipped with a known bug.
pub fn reproducer(bug: &KnownBug) -> ExecProgram {
    let mut program = ExecProgram::new();
    program.push(sys::BUG_BASE, &[trigger_key(bug.location)]);
    program
}

const READY_BUDGET: u64 = 100_000_000;
const RUN_BUDGET: u64 = 20_000_000;

/// Replays one known bug under an EMBSAN configuration.
fn replay_embsan(bug: &KnownBug, san: SanMode, mode: ProbeMode) -> bool {
    let spec = BugSpec::new(bug.location, bug.kind);
    let opts = BuildOptions::new(Arch::Armv).san(san);
    let image =
        os::emblinux::build(&opts, std::slice::from_ref(&spec)).expect("known-bug kernel builds");
    let artifacts = probe(&image, mode, None).expect("probing succeeds");
    let ready = CampaignConfig { ready_budget: READY_BUDGET, ..CampaignConfig::default() };
    let mut session = boot_session(&image, &artifacts, 1, &ready).expect("ready");
    let outcome = session.run_program(&reproducer(bug), RUN_BUDGET).expect("reproducer runs");
    let expected = expected_classes(bug.kind);
    outcome.reports.iter().any(|r| expected.contains(&r.class))
}

/// Replays one known bug on the guest-native KASAN baseline (no EMBSAN
/// attached; the sanitizer runs as translated guest code).
fn replay_native_kasan(bug: &KnownBug) -> bool {
    let spec = BugSpec::new(bug.location, bug.kind);
    let opts = BuildOptions::new(Arch::Armv).san(SanMode::NativeKasan);
    let image = os::emblinux::build(&opts, std::slice::from_ref(&spec))
        .expect("native-kasan kernel builds");
    let mut machine = image.boot_machine(1).expect("machine boots");
    let exit = machine.run(&mut NullHook, READY_BUDGET).expect("boot runs");
    assert_eq!(exit, RunExit::AllIdle, "native build boots to idle");
    machine.take_console();
    machine.bus_mut().devices.mailbox.host_load(&reproducer(bug).encode());
    let exit = machine.run(&mut NullHook, RUN_BUDGET).expect("reproducer runs");
    let console = String::from_utf8_lossy(&machine.take_console()).to_string();
    // Native KASAN reports on its console and powers off; a null deref
    // manifests as a guard-page fault (the paged-fault path real KASAN
    // rides on).
    console.contains(KASAN_MARKER.trim_end())
        || console.contains("KASAN:")
        || exit == RunExit::Halted { code: KASAN_EXIT }
        || matches!(exit, RunExit::Faulted { fault: embsan_emu::Fault::NullPage { .. }, .. })
}

/// Replays one known bug under all three sanitizer configurations.
pub fn replay_known_bug(index: usize) -> DetectionRow {
    let bug = &KNOWN_BUGS[index];
    DetectionRow {
        index,
        embsan_c: replay_embsan(bug, SanMode::SanCall, ProbeMode::CompileTime),
        embsan_d: replay_embsan(bug, SanMode::None, ProbeMode::DynamicSource),
        kasan: replay_native_kasan(bug),
    }
}

/// Replays the full Table-2 corpus.
pub fn replay_table2() -> Vec<DetectionRow> {
    (0..KNOWN_BUGS.len()).map(replay_known_bug).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A detection spot-check per bug kind (the full matrix is the
    /// integration test / bench binary's job).
    #[test]
    fn representative_rows_match_the_paper() {
        // Row 0: slab OOB — everyone detects it.
        let row = replay_known_bug(0);
        assert!(row.embsan_c && row.embsan_d && row.kasan, "{row:?}");
        // Row 23 (fbcon_get_font): global OOB — EMBSAN-D misses it.
        let row = replay_known_bug(23);
        assert!(row.embsan_c, "EMBSAN-C detects global OOB");
        assert!(!row.embsan_d, "EMBSAN-D lacks global redzones");
        assert!(row.kasan, "native KASAN detects global OOB");
    }

    #[test]
    fn uaf_and_npd_rows() {
        // Row 1: use-after-free.
        let row = replay_known_bug(1);
        assert!(row.embsan_c && row.embsan_d && row.kasan, "{row:?}");
        // Row 7 (free_pages): null deref.
        let row = replay_known_bug(7);
        assert!(row.embsan_c && row.embsan_d && row.kasan, "{row:?}");
    }
}
