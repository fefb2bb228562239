//! Supervisor resilience integration tests: snapshot fidelity, journaled
//! kill/resume determinism, and watchdog recovery from injected live-locks.

use std::path::{Path, PathBuf};

use embsan::emu::error::EmuError;
use embsan::emu::fault::{FaultEvent, FaultKind, FaultPlan};
use embsan::emu::profile::Arch;
use embsan::fuzz::campaign::run_campaign;
use embsan::fuzz::{
    resume_supervised, run_supervised, CampaignConfig, SplitMix64, SupervisorConfig,
};
use embsan::guestos::executor::ExecProgram;
use embsan::guestos::{firmware_by_name, os, BuildOptions, SanMode};

fn tmp_path(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir.join(name)
}

/// `restore(snapshot())` followed by `snapshot()` captures bit-identical
/// state, across randomized mid-program machine states. This is the
/// property the supervisor's recovery path (and every fuzzing reset)
/// depends on.
#[test]
fn snapshot_restore_roundtrip_is_identity() {
    let opts = BuildOptions::new(Arch::Armv).san(SanMode::None);
    let image = os::emblinux::build(&opts, &[]).expect("firmware builds");
    let mut machine = image.boot_machine(1).expect("machine boots");
    machine.run(&mut embsan::emu::NullHook, 10_000_000).expect("boot");

    let mut rng = SplitMix64::seed_from_u64(0xE5);
    for round in 0..12 {
        // Drive the executor into a randomized mid-program state: a random
        // program, stopped after a random slice of its execution.
        let mut program = ExecProgram::new();
        for _ in 0..rng.range_usize_incl(1, 3) {
            let nr = rng.gen_u8() % 24;
            let args: Vec<u32> = (0..rng.range_usize(0, 3)).map(|_| rng.gen_u32()).collect();
            program.push(nr, &args);
        }
        machine.bus_mut().devices.mailbox.host_load(&program.encode());
        machine.run(&mut embsan::emu::NullHook, rng.range_u64(500, 50_000)).expect("run returns");

        let first = machine.snapshot();
        // Perturb past the capture point, then rewind.
        machine.run(&mut embsan::emu::NullHook, 10_000).expect("perturb");
        machine.restore(&first).expect("restore accepts own snapshot");
        assert_eq!(machine.snapshot(), first, "round {round}: restore must be exact");
    }
}

/// Snapshots only restore into machines of the same shape: a vCPU-count or
/// RAM-size mismatch is a typed [`EmuError::SnapshotMismatch`], and the
/// rejected restore leaves the target machine untouched.
#[test]
fn snapshot_shape_mismatches_are_typed_and_harmless() {
    let opts = BuildOptions::new(Arch::Armv).san(SanMode::None);
    let image = os::emblinux::build(&opts, &[]).expect("firmware builds");
    let mut uni = image.boot_machine(1).expect("1-cpu machine");
    let mut smp = image.boot_machine(2).expect("2-cpu machine");
    uni.run(&mut embsan::emu::NullHook, 100_000).expect("run");
    smp.run(&mut embsan::emu::NullHook, 100_000).expect("run");

    let uni_snap = uni.snapshot();
    let smp_before = smp.snapshot();
    let err = smp.restore(&uni_snap).expect_err("vCPU-count mismatch must fail");
    assert!(matches!(err, EmuError::SnapshotMismatch(_)), "{err:?}");
    assert_eq!(smp.snapshot(), smp_before, "failed restore must not touch the machine");
    assert!(matches!(uni.restore(&smp_before), Err(EmuError::SnapshotMismatch(_))));

    // Different RAM size: a FreeRTOS image against the emblinux snapshot.
    let other = os::freertos::build(&opts, &[]).expect("freertos builds");
    let mut other_machine = other.boot_machine(1).expect("machine boots");
    if other_machine.bus().ram_range().1 != uni.bus().ram_range().1 {
        assert!(matches!(other_machine.restore(&uni_snap), Err(EmuError::SnapshotMismatch(_))));
    }
}

/// A campaign killed mid-flight and resumed from its journal produces
/// bit-identical results to a campaign that was never interrupted — and
/// the supervisor itself is neutral: without faults it reproduces the
/// plain `run_campaign` results exactly.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "campaign-scale test; run with `cargo test --release --test resilience`"
)]
fn killed_and_resumed_campaign_is_bit_identical() {
    let spec = firmware_by_name("OpenHarmony-stm32f407").unwrap();
    let campaign = CampaignConfig { iterations: 2_000, seed: 99, ..CampaignConfig::default() };
    let baseline = run_campaign(spec, &campaign).unwrap();

    let journal = tmp_path("kill_resume.journal");
    let mut config = SupervisorConfig {
        campaign,
        checkpoint_interval: 300,
        // Kill at a non-checkpoint iteration so resume must re-execute the
        // 100 iterations after the newest checkpoint (at 900) exactly.
        kill_after: Some(1_000),
        ..SupervisorConfig::default()
    };
    let first = run_supervised(spec, &config, Some(&journal)).unwrap();
    assert!(!first.completed, "kill_after must stop the campaign early");
    assert!(first.health.checkpoints >= 3);

    config.kill_after = None;
    let resumed = resume_supervised(&journal, &config).unwrap();
    assert!(resumed.completed);
    assert_eq!(resumed.result.stats, baseline.stats, "stats must match uninterrupted run");
    assert_eq!(resumed.result.found.len(), baseline.found.len());
    for (a, b) in resumed.result.found.iter().zip(&baseline.found) {
        assert_eq!(a.latent_index, b.latent_index);
        assert_eq!(a.class, b.class);
        assert_eq!(a.reproducer, b.reproducer);
    }
    assert!(!baseline.found.is_empty(), "comparison is vacuous without findings");

    // The journal now records completion; resuming again is a typed error,
    // not a re-run.
    let again = resume_supervised(&journal, &config);
    assert!(again.is_err(), "a completed journal must not resume");
}

/// The trace side of kill/resume determinism: the killed run's event
/// spans up to the resume point, concatenated with the resumed run's
/// spans, equal the uninterrupted campaign's merged trace exactly. Span
/// clocks are rebased per iteration, so the re-executed iterations after
/// the newest checkpoint reproduce their spans bit-for-bit.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "campaign-scale test; run with `cargo test --release --test resilience`"
)]
fn kill_and_resume_traces_concatenate_exactly() {
    use embsan::obs::MergedTrace;

    let spec = firmware_by_name("OpenHarmony-stm32f407").unwrap();
    let campaign = CampaignConfig { iterations: 2_000, seed: 99, ..CampaignConfig::default() };
    let uninterrupted = run_supervised(
        spec,
        &SupervisorConfig { campaign, trace: true, ..SupervisorConfig::default() },
        None,
    )
    .unwrap();

    let journal = tmp_path("trace_concat.journal");
    let mut config = SupervisorConfig {
        campaign,
        checkpoint_interval: 300,
        kill_after: Some(1_000),
        trace: true,
        ..SupervisorConfig::default()
    };
    let first = run_supervised(spec, &config, Some(&journal)).unwrap();
    assert!(!first.completed, "kill_after must stop the campaign early");
    config.kill_after = None;
    let resumed = resume_supervised(&journal, &config).unwrap();
    assert!(resumed.completed);

    let full = uninterrupted.trace.expect("uninterrupted run was traced");
    let head = first.trace.expect("killed run was traced");
    let tail = resumed.trace.expect("resumed run was traced");
    let resume_start = tail.spans.first().expect("resumed run has spans").iter;
    assert!(resume_start < 1_000, "resume must re-execute from the newest checkpoint");

    let mut stitched = MergedTrace::default();
    stitched.spans.extend(head.spans.into_iter().filter(|span| span.iter < resume_start));
    stitched.spans.extend(tail.spans);
    assert_eq!(stitched.spans.len(), full.spans.len(), "span count must match");
    for (got, want) in stitched.spans.iter().zip(&full.spans) {
        assert_eq!(got.iter, want.iter, "span order must match");
        assert_eq!(got, want, "iteration {} must replay its exact span", want.iter);
    }
    assert!(full.event_count() > 0, "comparison is vacuous without events");
}

/// A fault plan live-locks the guest mid-campaign: the watchdog classifies
/// the hang, snapshot-restore recovery retries it, the input is quarantined
/// after the retry bound, and the campaign still completes — finding every
/// seeded bug of the firmware.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "campaign-scale test; run with `cargo test --release --test resilience`"
)]
fn wedge_recovery_quarantines_and_completes() {
    use embsan::guestos::bugs::LATENT_BUGS;

    let spec = firmware_by_name("InfiniTime").unwrap();
    let campaign = CampaignConfig { iterations: 6_000, seed: 21, ..CampaignConfig::default() };
    // Wedge vCPU 0 repeatedly: the first firing live-locks the running
    // program; the tight repeat spacing (well under one program's length)
    // re-wedges each watchdog retry, forcing the quarantine path. Each
    // wedged run burns the full 3M-instruction program budget, so the
    // repeat span covers the initial run plus both retries and then runs
    // dry, letting the campaign proceed.
    let plan = FaultPlan::new().with(FaultEvent::repeating(
        2_000_000,
        2_000,
        4_700,
        FaultKind::StuckCpu { cpu: 0 },
    ));
    let config =
        SupervisorConfig { campaign, fault_plan: Some(plan), ..SupervisorConfig::default() };
    let result = run_supervised(spec, &config, None).unwrap();

    assert!(result.completed);
    assert!(result.injection.cpu_wedges > 0, "plan must have fired: {:?}", result.injection);
    assert!(result.health.wedges > 0, "watchdog must observe live-locks: {:?}", result.health);
    assert!(result.health.recoveries > 0, "retries happen before quarantine");
    assert!(result.health.quarantined >= 1, "persistent wedging must quarantine");

    // Despite the injected live-locks the campaign finds all of the
    // firmware's Table-4 bugs.
    let expected: std::collections::BTreeSet<&str> =
        LATENT_BUGS.iter().filter(|b| b.firmware == spec.name).map(|b| b.location).collect();
    let found: std::collections::BTreeSet<&str> =
        result.result.found.iter().map(|b| b.location).collect();
    assert_eq!(found, expected, "stats: {:?} health: {:?}", result.result.stats, result.health);
}

/// Supervised campaigns without faults, journals or kills are exactly the
/// plain campaign: the supervisor must never perturb a healthy run.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "campaign-scale test; run with `cargo test --release --test resilience`"
)]
fn supervisor_is_neutral_for_healthy_runs() {
    let campaign = CampaignConfig { iterations: 1_500, seed: 11, ..CampaignConfig::default() };
    assert_supervisor_neutral("OpenHarmony-stm32mp1", campaign, None);
}

/// The same neutrality on a 2-vCPU firmware, journaled: a completed program
/// ends in `ProgramDone` although the secondary vCPU never idles, so the
/// watchdog never mistakes a finished program for a live-lock.
#[test]
fn supervisor_is_neutral_for_smp_runs() {
    let campaign = CampaignConfig { iterations: 300, seed: 1, ..CampaignConfig::default() };
    let journal = tmp_path("smp_supervised.journal");
    let found = assert_supervisor_neutral("OpenWRT-x86_64", campaign, Some(&journal));
    assert!(found > 0, "the SMP campaign must find a bug");
}

/// Runs `campaign` plain and supervised and asserts identical statistics and
/// findings, with no wedge and no quarantine. Returns the number of bugs found.
fn assert_supervisor_neutral(
    firmware: &str,
    campaign: CampaignConfig,
    journal: Option<&Path>,
) -> usize {
    let spec = firmware_by_name(firmware).unwrap();
    let plain = run_campaign(spec, &campaign).unwrap();
    let config = SupervisorConfig { campaign, ..SupervisorConfig::default() };
    let supervised = run_supervised(spec, &config, journal).unwrap();
    assert_eq!(supervised.result.stats, plain.stats);
    assert_eq!(supervised.result.found.len(), plain.found.len());
    for (a, b) in supervised.result.found.iter().zip(&plain.found) {
        assert_eq!((a.latent_index, a.class), (b.latent_index, b.class));
        assert_eq!(a.reproducer, b.reproducer);
    }
    assert_eq!(supervised.health.wedges, 0);
    assert_eq!(supervised.health.quarantined, 0);
    plain.found.len()
}
