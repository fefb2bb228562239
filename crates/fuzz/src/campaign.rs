//! Deterministic fuzzing campaigns per firmware (the Table 3/4 driver).
//!
//! The paper runs 7-day campaigns; this driver scales that to a seeded,
//! bounded-iteration budget. Each firmware is built in its Table-1
//! configuration, probed in the matching mode (EMBSAN-C → compile-time,
//! open EMBSAN-D → dynamic-source, closed → dynamic-binary), fuzzed with
//! its assigned strategy, and the triaged findings are attributed back to
//! the seeded Table-4 bugs via their gated syscalls.

use std::sync::Arc;

use embsan_asm::image::FirmwareImage;
use embsan_core::probe::{probe, ProbeArtifacts, ProbeError, ProbeMode};
use embsan_core::report::BugClass;
use embsan_core::session::{BaseImage, Session, SessionError};
use embsan_guestos::bugs::LATENT_BUGS;
use embsan_guestos::executor::{sys, ExecProgram};
use embsan_guestos::firmware::Fuzzer as PaperFuzzer;
use embsan_guestos::FirmwareSpec;

use crate::descs::descriptions_for;
use crate::dictionary::Dictionary;
use crate::fuzzer::{Fuzzer, FuzzerConfig, FuzzerStats, Strategy};

/// Campaign configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Fuzzing iterations (the scaled-down "7 days").
    pub iterations: u64,
    /// RNG seed.
    pub seed: u64,
    /// Boot budget in instructions.
    pub ready_budget: u64,
    /// Per-program execution budget in instructions.
    pub program_budget: u64,
    /// Model-free MMIO region as `(base, size)`: guest reads in it are
    /// answered from a per-iteration response stream derived from the
    /// program under test (see [`embsan_emu::ModelFreeMmio`]). `None`
    /// leaves the platform model as the only MMIO.
    pub model_free: Option<(u32, u32)>,
    /// Withholds the platform device window from the guest, so its MMIO
    /// accesses fall through to the model-free region — fuzzing firmware
    /// whose MMIO map is unknown. Requires `model_free` covering the
    /// window; programs are then delivered via the response stream and
    /// each execution ends on stream exhaustion or budget, never on
    /// mailbox completion.
    pub mmio_withheld: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            iterations: 12_000,
            seed: 0x0E1B_5A11,
            ready_budget: 200_000_000,
            program_budget: 3_000_000,
            model_free: None,
            mmio_withheld: false,
        }
    }
}

/// What failed at the harness level (guest crashes are findings, never
/// errors).
#[derive(Debug)]
pub enum CampaignErrorKind {
    /// Firmware build failure.
    Build(embsan_asm::LinkError),
    /// Probing failure.
    Probe(ProbeError),
    /// Session failure.
    Session(SessionError),
    /// Distiller failure.
    Distill(embsan_core::DistillError),
    /// Campaign-journal failure (supervised runs).
    Journal(crate::journal::JournalError),
}

impl std::fmt::Display for CampaignErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignErrorKind::Build(e) => write!(f, "firmware build failed: {e}"),
            CampaignErrorKind::Probe(e) => write!(f, "probing failed: {e}"),
            CampaignErrorKind::Session(e) => write!(f, "session failed: {e}"),
            CampaignErrorKind::Distill(e) => write!(f, "distilling failed: {e}"),
            CampaignErrorKind::Journal(e) => write!(f, "campaign journal failed: {e}"),
        }
    }
}

/// A campaign failure with enough context to reproduce it: which firmware,
/// at which iteration, executing which program. Context fields are filled
/// in as the error propagates outward (the innermost layers don't know
/// them), so any of them may be absent.
#[derive(Debug)]
pub struct CampaignError {
    /// The underlying failure.
    pub kind: CampaignErrorKind,
    /// Firmware name (campaigns) or image path (CLI runs), when known.
    pub firmware: Option<String>,
    /// Fuzzing iteration at which the failure occurred, when known.
    pub iteration: Option<u64>,
    /// The program being executed when the failure occurred, when known.
    pub program: Option<ExecProgram>,
}

impl CampaignError {
    /// Wraps a failure kind with no context yet.
    pub fn new(kind: CampaignErrorKind) -> CampaignError {
        CampaignError { kind, firmware: None, iteration: None, program: None }
    }

    /// Attaches the firmware name (kept if already set — the innermost
    /// attribution wins).
    #[must_use]
    pub fn with_firmware(mut self, firmware: &str) -> CampaignError {
        self.firmware.get_or_insert_with(|| firmware.to_string());
        self
    }

    /// Attaches iteration and program context (kept if already set).
    #[must_use]
    pub fn context(mut self, iteration: u64, program: &ExecProgram) -> CampaignError {
        self.iteration.get_or_insert(iteration);
        self.program.get_or_insert_with(|| program.clone());
        self
    }
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.kind)?;
        if let Some(firmware) = &self.firmware {
            write!(f, " [firmware: {firmware}]")?;
        }
        if let Some(iteration) = self.iteration {
            write!(f, " [iteration: {iteration}]")?;
        }
        if let Some(program) = &self.program {
            let nrs: Vec<u8> = program.calls.iter().map(|c| c.nr).collect();
            write!(f, " [program: {} call(s) {nrs:?}]", program.calls.len())?;
        }
        Ok(())
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            CampaignErrorKind::Build(e) => Some(e),
            CampaignErrorKind::Probe(e) => Some(e),
            CampaignErrorKind::Session(e) => Some(e),
            CampaignErrorKind::Distill(e) => Some(e),
            CampaignErrorKind::Journal(e) => Some(e),
        }
    }
}

impl From<embsan_asm::LinkError> for CampaignError {
    fn from(e: embsan_asm::LinkError) -> CampaignError {
        CampaignError::new(CampaignErrorKind::Build(e))
    }
}

impl From<ProbeError> for CampaignError {
    fn from(e: ProbeError) -> CampaignError {
        CampaignError::new(CampaignErrorKind::Probe(e))
    }
}

impl From<SessionError> for CampaignError {
    fn from(e: SessionError) -> CampaignError {
        CampaignError::new(CampaignErrorKind::Session(e))
    }
}

impl From<embsan_core::DistillError> for CampaignError {
    fn from(e: embsan_core::DistillError) -> CampaignError {
        CampaignError::new(CampaignErrorKind::Distill(e))
    }
}

impl From<crate::journal::JournalError> for CampaignError {
    fn from(e: crate::journal::JournalError) -> CampaignError {
        CampaignError::new(CampaignErrorKind::Journal(e))
    }
}

/// One campaign-confirmed bug.
#[derive(Debug, Clone)]
pub struct FoundBug {
    /// Index into [`LATENT_BUGS`] (the paper's Table 4 row).
    pub latent_index: usize,
    /// Location string from Table 4.
    pub location: &'static str,
    /// Detected class.
    pub class: BugClass,
    /// Minimized reproducer.
    pub reproducer: ExecProgram,
}

/// The result of one firmware's campaign.
#[derive(Debug)]
pub struct CampaignResult {
    /// Firmware name.
    pub firmware: &'static str,
    /// Found bugs, deduplicated by Table-4 identity, in discovery order.
    pub found: Vec<FoundBug>,
    /// Fuzzer statistics.
    pub stats: FuzzerStats,
}

/// The probe mode matching a firmware's Table-1 row.
pub fn probe_mode_for(spec: &FirmwareSpec) -> ProbeMode {
    if spec.embsan_c {
        ProbeMode::CompileTime
    } else if spec.open_source {
        ProbeMode::DynamicSource
    } else {
        ProbeMode::DynamicBinary
    }
}

/// The fuzzing strategy of a firmware's Table-1 row.
pub fn paper_strategy(spec: &FirmwareSpec) -> Strategy {
    match spec.fuzzer {
        PaperFuzzer::Syzkaller => Strategy::Syz,
        PaperFuzzer::Tardis => Strategy::Tardis,
    }
}

/// Boots a ready session: the one recipe behind every campaign, whether
/// its image comes from a [`FirmwareSpec`] or from a file. Attaches the
/// reference sanitizers to `cpus` vCPUs, arms `config.model_free` and
/// runs to the ready point within `config.ready_budget`.
///
/// # Errors
///
/// Propagates distill and session errors.
pub fn boot_session(
    image: &FirmwareImage,
    artifacts: &ProbeArtifacts,
    cpus: usize,
    config: &CampaignConfig,
) -> Result<Session, CampaignError> {
    let sanitizers = embsan_core::reference_specs()?;
    let mut session = Session::with_cpus(image, &sanitizers, artifacts, cpus)?;
    if let Some((base, size)) = config.model_free {
        // Before run_to_ready, so the boot-time refinement state is part of
        // the reset snapshot and every iteration replays it identically.
        session.enable_model_free(base, size, config.mmio_withheld);
    }
    session.run_to_ready(config.ready_budget)?;
    Ok(session)
}

/// Publish-or-adopt through `slot`, which holds the ready-point base image
/// shared by every session of one firmware: the first ready session
/// publishes its own base there, every later one adopts it
/// ([`Session::adopt_base`]; a hash mismatch keeps the private copy,
/// which is correct but costs a full image). Returns whether `session`
/// now runs on the slot's base.
///
/// # Errors
///
/// See [`Session::adopt_base`].
pub fn share_base(
    session: &mut Session,
    slot: &mut Option<Arc<BaseImage>>,
) -> Result<bool, SessionError> {
    match slot {
        Some(base) => session.adopt_base(base),
        None => {
            *slot = session.base().cloned();
            Ok(slot.is_some())
        }
    }
}

/// Prepares a ready session for a firmware in its Table-1 configuration.
///
/// # Errors
///
/// Propagates build, probe and session errors.
pub fn prepare_session(
    spec: &FirmwareSpec,
    config: &CampaignConfig,
) -> Result<(Session, Dictionary), CampaignError> {
    let image = spec.build(spec.default_san_mode())?;
    let artifacts = probe(&image, probe_mode_for(spec), None)?;
    let cpus = if spec.needs_smp() { 2 } else { 1 };
    let session = boot_session(&image, &artifacts, cpus, config)?;
    Ok((session, Dictionary::extract(&image)))
}

/// Runs the campaign for one firmware.
///
/// # Errors
///
/// See [`CampaignError`].
pub fn run_campaign(
    spec: &FirmwareSpec,
    config: &CampaignConfig,
) -> Result<CampaignResult, CampaignError> {
    let (mut session, dict) =
        prepare_session(spec, config).map_err(|e| e.with_firmware(spec.name))?;
    let mut fuzzer_config = FuzzerConfig::new(paper_strategy(spec), config.seed);
    fuzzer_config.program_budget = config.program_budget;
    let descs = descriptions_for(spec);
    let mut fuzzer = Fuzzer::new(&mut session, descs, dict, fuzzer_config);
    fuzzer.run(config.iterations).map_err(|e| CampaignError::from(e).with_firmware(spec.name))?;
    let stats = fuzzer.stats();
    let found = attribute_findings(spec, fuzzer.findings());
    Ok(CampaignResult { firmware: spec.name, found, stats })
}

/// Attributes triaged findings to Table-4 rows via the gated syscalls left
/// in the minimized reproducers, deduplicated by Table-4 identity (§4.2).
pub fn attribute_findings(
    spec: &FirmwareSpec,
    findings: &[crate::fuzzer::Finding],
) -> Vec<FoundBug> {
    let firmware_bugs = spec.latent_bugs();
    let mut found: Vec<FoundBug> = Vec::new();
    for finding in findings {
        for nr in &finding.bug_syscalls {
            let local_index = usize::from(nr - sys::BUG_BASE);
            let Some(bug) = firmware_bugs.get(local_index) else { continue };
            let Some(latent_index) = LATENT_BUGS
                .iter()
                .position(|l| l.firmware == spec.name && l.location == bug.location)
            else {
                continue;
            };
            if found.iter().any(|f| f.latent_index == latent_index) {
                continue; // deduplicated (§4.2)
            }
            found.push(FoundBug {
                latent_index,
                location: LATENT_BUGS[latent_index].location,
                class: finding.report.class,
                reproducer: finding.program.clone(),
            });
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use embsan_guestos::firmware_by_name;

    #[test]
    fn probe_modes_match_table1() {
        assert_eq!(
            probe_mode_for(firmware_by_name("OpenWRT-armvirt").unwrap()),
            ProbeMode::CompileTime
        );
        assert_eq!(
            probe_mode_for(firmware_by_name("OpenWRT-bcm63xx").unwrap()),
            ProbeMode::DynamicSource
        );
        assert_eq!(
            probe_mode_for(firmware_by_name("TP-Link WDR-7660").unwrap()),
            ProbeMode::DynamicBinary
        );
    }

    /// End-to-end campaign smoke test on the smallest target: the
    /// closed-source VxWorks firmware, probed binary-only, fuzzed
    /// Tardis-style. A short run must at least boot, fuzz and attribute
    /// without errors; finding both bugs is the (longer) bench's job.
    #[test]
    fn campaign_smoke_on_closed_firmware() {
        let spec = firmware_by_name("TP-Link WDR-7660").unwrap();
        let config = CampaignConfig { iterations: 400, seed: 5, ..CampaignConfig::default() };
        let result = run_campaign(spec, &config).unwrap();
        assert_eq!(result.firmware, "TP-Link WDR-7660");
        assert_eq!(result.stats.execs, 400);
        for bug in &result.found {
            assert!(LATENT_BUGS[bug.latent_index].firmware == spec.name);
        }
    }

    /// The campaign driver is deterministic: same seed, same findings.
    #[test]
    fn campaign_is_deterministic() {
        let spec = firmware_by_name("OpenHarmony-stm32mp1").unwrap();
        let config = CampaignConfig { iterations: 300, seed: 11, ..CampaignConfig::default() };
        let a = run_campaign(spec, &config).unwrap();
        let b = run_campaign(spec, &config).unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(
            a.found.iter().map(|f| f.latent_index).collect::<Vec<_>>(),
            b.found.iter().map(|f| f.latent_index).collect::<Vec<_>>()
        );
    }
}
