//! Testing-phase orchestration (§3.4 / §3.5).
//!
//! A [`Session`] binds a firmware image, the merged sanitizer spec and the
//! prober's artifacts into a runnable sanitized machine:
//!
//! 1. [`Session::run_to_ready`] boots the firmware to its ready-to-run
//!    point (READY hypercall, ready-address breakpoint, or first idle,
//!    per the platform spec), applies the init routine, activates the
//!    runtime, and snapshots the machine for fast resets;
//! 2. [`Session::run_program`] injects one executor test program and
//!    collects results, console output and new sanitizer reports;
//! 3. [`Session::reset`] restores the post-ready snapshot (machine *and*
//!    sanitizer state), giving fuzzers a clean target per input.

use std::sync::Arc;

use embsan_asm::image::FirmwareImage;
use embsan_dsl::{merge, InitProgram, ReadyPoint, SanitizerSpec};
use embsan_emu::machine::{Machine, RunExit};
use embsan_emu::snapshot::Snapshot;
use embsan_emu::EmuError;
use embsan_guestos::executor::ExecProgram;

use crate::health::{Degradation, HealthCounters};
use crate::probe::ProbeArtifacts;
use crate::report::Report;
use crate::runtime::{EmbsanRuntime, RuntimeError, RuntimeState};

/// Session construction/run errors.
#[derive(Debug)]
pub enum SessionError {
    /// Emulator-level failure.
    Emu(EmuError),
    /// Runtime construction failure.
    Runtime(RuntimeError),
    /// The firmware did not reach its ready point within the budget.
    ReadyTimeout(String),
    /// An operation that requires the ready state was called too early.
    NotReady,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Emu(e) => write!(f, "emulator error: {e}"),
            SessionError::Runtime(e) => write!(f, "runtime error: {e}"),
            SessionError::ReadyTimeout(msg) => write!(f, "firmware never became ready: {msg}"),
            SessionError::NotReady => write!(f, "session has not reached the ready state"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<EmuError> for SessionError {
    fn from(e: EmuError) -> SessionError {
        SessionError::Emu(e)
    }
}

impl From<RuntimeError> for SessionError {
    fn from(e: RuntimeError) -> SessionError {
        SessionError::Runtime(e)
    }
}

/// Outcome of running one test program.
#[derive(Debug)]
pub struct ExecOutcome {
    /// How the run ended. A completed program normally ends in
    /// [`RunExit::AllIdle`] on a uniprocessor and [`RunExit::ProgramDone`]
    /// on SMP firmware, whose secondary vCPU never idles;
    /// [`RunExit::BudgetExhausted`] means the budget ran out first, or that
    /// a uniprocessor program completed while an interrupt source kept the
    /// machine busy until the end of a slice.
    pub exit: RunExit,
    /// Per-call result bytes from the executor.
    pub results: Vec<u8>,
    /// New (deduplicated) sanitizer reports from this program.
    pub reports: Vec<Report>,
    /// Console output produced during the program.
    pub console: Vec<u8>,
}

/// An immutable ready-point image: the machine snapshot plus the captured
/// sanitizer state, content-hashed. One `Arc<BaseImage>` is shared by every
/// session forked from it — each fork holds only the pages it dirties
/// (copy-on-write), so N workers cost one base plus N small overlays
/// instead of N private RAM copies.
pub struct BaseImage {
    snapshot: Snapshot,
    state: RuntimeState,
    hash: u64,
}

impl std::fmt::Debug for BaseImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaseImage")
            .field("hash", &format_args!("{:#018x}", self.hash))
            .field("base_bytes", &self.base_bytes())
            .field("resident_pages", &self.resident_pages())
            .finish_non_exhaustive()
    }
}

impl BaseImage {
    /// Content hash of the ready state: [`Snapshot::fold_hash`] from seed 0,
    /// then [`RuntimeState::fold_plane_hash`]. Sessions whose base images hash
    /// alike are bit-identical at the ready point and may share one base.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The machine snapshot every reset restores.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// Logical size of the base image: RAM plus sanitizer planes.
    pub fn base_bytes(&self) -> usize {
        self.snapshot.base_bytes() + self.state.plane_bytes()
    }

    /// Pages the base image holds (RAM plus sanitizer planes): the pages
    /// with data at the ready point, paid once per base regardless of how
    /// many sessions fork from it.
    pub fn resident_pages(&self) -> usize {
        self.snapshot.ram_base().resident_pages() + self.state.plane_resident_pages()
    }
}

/// A sanitized testing session over one firmware image.
pub struct Session {
    machine: Machine,
    runtime: EmbsanRuntime,
    init: InitProgram,
    ready: Option<ReadyPoint>,
    image: FirmwareImage,
    ready_done: bool,
    baseline: Option<Arc<BaseImage>>,
    tracer: embsan_obs::Tracer,
    programs_run: u64,
    /// Per-program retired-instruction distribution (log2 buckets); a pure
    /// function of the executed programs, so it snapshots deterministically.
    exec_insns: embsan_obs::Histogram,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("ready", &self.ready_done)
            .field("reports", &self.runtime.reports().len())
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Creates a single-vCPU session.
    ///
    /// # Errors
    ///
    /// Fails if the machine cannot be built or the specs do not resolve.
    pub fn new(
        image: &FirmwareImage,
        specs: &[SanitizerSpec],
        artifacts: &ProbeArtifacts,
    ) -> Result<Session, SessionError> {
        Session::with_cpus(image, specs, artifacts, 1)
    }

    /// Creates a session with `cpus` vCPUs (≥2 for race-capable firmware).
    ///
    /// # Errors
    ///
    /// See [`Session::new`].
    pub fn with_cpus(
        image: &FirmwareImage,
        specs: &[SanitizerSpec],
        artifacts: &ProbeArtifacts,
        cpus: usize,
    ) -> Result<Session, SessionError> {
        let merged = if specs.len() == 1 { specs[0].clone() } else { merge(specs) };
        let machine = image.boot_machine(cpus)?;
        let runtime = EmbsanRuntime::new(&merged, &artifacts.platform, cpus)?;
        let mut session = Session {
            machine,
            runtime,
            init: artifacts.init.clone(),
            ready: artifacts.platform.ready,
            image: image.clone(),
            ready_done: false,
            baseline: None,
            tracer: embsan_obs::Tracer::disabled(),
            programs_run: 0,
            exec_insns: embsan_obs::Histogram::new(),
        };
        let config = session.runtime.hook_config();
        session.machine.set_hook_config(config);
        Ok(session)
    }

    /// The underlying machine (e.g. for console inspection).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access (e.g. to drive devices directly).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The runtime (report access, statistics).
    pub fn runtime(&self) -> &EmbsanRuntime {
        &self.runtime
    }

    /// Translation-cache counters for this session's machine (hit/miss and
    /// generation-reuse telemetry for the bench and campaign reports).
    pub fn cache_stats(&self) -> embsan_emu::CacheStats {
        self.machine.cache_stats()
    }

    /// Arms structured event tracing: one shared ring buffer receives
    /// events from the machine, the translation cache and the sanitizer
    /// runtime, tagged with the lifetime-retired instruction clock.
    ///
    /// Typically called after [`Session::run_to_ready`] so the trace
    /// covers test programs, not the boot's millions of instructions. The
    /// tracer is not part of the reset snapshot: events survive
    /// [`Session::reset`] until drained.
    pub fn enable_tracing(&mut self, config: embsan_obs::TraceConfig) {
        let tracer = embsan_obs::Tracer::new(config);
        self.machine.set_tracer(tracer.clone());
        self.runtime.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// The session's tracer handle (disabled until
    /// [`Session::enable_tracing`]).
    pub fn tracer(&self) -> &embsan_obs::Tracer {
        &self.tracer
    }

    /// The lifetime-retired clock value to pass to
    /// [`Session::drain_trace`] for iteration-relative rebasing.
    pub fn trace_mark(&self) -> u64 {
        self.machine.lifetime_retired()
    }

    /// Drains buffered trace events, rebasing clock tags onto `mark`
    /// (a value from [`Session::trace_mark`]) and restarting the sequence
    /// counter — the resulting span is independent of how much this
    /// session executed before the mark.
    pub fn drain_trace(&mut self, mark: u64) -> Vec<embsan_obs::Event> {
        self.tracer.drain_rebased(mark)
    }

    /// Drains buffered trace events with absolute clock tags.
    pub fn take_trace(&mut self) -> Vec<embsan_obs::Event> {
        self.tracer.drain()
    }

    /// Copies this session's counters into `registry`.
    ///
    /// Everything a sequential session observes is a pure function of the
    /// executed programs, so all entries are
    /// [`embsan_obs::MetricClass::Deterministic`] here; campaign engines
    /// re-class schedule-dependent counters (notably per-worker cache
    /// warmth) as telemetry in their own adapters.
    pub fn collect_metrics(&self, registry: &mut embsan_obs::MetricsRegistry) {
        use embsan_obs::MetricClass::Deterministic;
        self.cache_stats().record_into(registry, Deterministic);
        registry.counter(
            "hooks",
            "checks_performed",
            Deterministic,
            self.runtime.checks_performed(),
        );
        registry.counter(
            "hooks",
            "slow_path_checks",
            Deterministic,
            self.runtime.slow_path_checks(),
        );
        registry.counter("shadow", "reports", Deterministic, self.runtime.reports().len() as u64);
        self.health().record_into(registry, Deterministic);
        self.machine.injection_stats().record_into(registry, Deterministic);
        registry.counter("session", "programs_run", Deterministic, self.programs_run);
        registry.histogram("session", "program_insns", Deterministic, self.exec_insns.clone());
        registry.counter("session", "trace_dropped", Deterministic, self.tracer.dropped());
    }

    /// A metrics snapshot of this session (see
    /// [`Session::collect_metrics`]).
    pub fn metrics_snapshot(&self) -> embsan_obs::MetricsSnapshot {
        let mut registry = embsan_obs::MetricsRegistry::new();
        self.collect_metrics(&mut registry);
        registry.snapshot()
    }

    /// Mutable runtime access (e.g. to set `stop_on_report`).
    pub fn runtime_mut(&mut self) -> &mut EmbsanRuntime {
        &mut self.runtime
    }

    /// All deduplicated reports so far.
    pub fn reports(&self) -> &[Report] {
        self.runtime.reports()
    }

    /// Campaign-wide degradation counters (quarantine pressure, shadow
    /// clips, probe-spec drift). Not reset by [`Session::reset`].
    pub fn health(&self) -> &HealthCounters {
        self.runtime.health()
    }

    /// The bounded log of degradation events behind [`Session::health`].
    pub fn degradations(&self) -> &[Degradation] {
        self.runtime.degradations()
    }

    /// Prioritizes KCSAN watchpoints on statically suspected race
    /// addresses (from `embsan-analysis`). Call before
    /// [`run_to_ready`](Session::run_to_ready) so the priorities are part
    /// of the reset snapshot.
    pub fn set_race_priorities(&mut self, addrs: &[u32]) {
        self.runtime.set_race_priorities(addrs);
    }

    /// Enables the model-free MMIO region (`[base, base + size)`): reads
    /// with no device behind them are answered from a fuzzer-controlled
    /// response stream with Ember-IO-style per-(pc, addr) refinement
    /// instead of faulting. With `withhold_devices` the platform device
    /// window itself is hidden and must be covered by the region — the
    /// "fuzz firmware whose MMIO map we never modelled" mode.
    ///
    /// Call before [`run_to_ready`](Session::run_to_ready) so the
    /// boot-time refinement state (cache, cursor) is part of the reset
    /// snapshot and survives kill/resume and CoW forking.
    pub fn enable_model_free(&mut self, base: u32, size: u32, withhold_devices: bool) {
        self.machine.bus_mut().enable_model_free(base, size, withhold_devices);
    }

    /// Installs the response stream for the model-free MMIO region and
    /// rewinds its cursor (the refinement cache is kept — committed
    /// responses persist across iterations like a learned peripheral
    /// model). Call after [`reset`](Session::reset), before running an
    /// iteration's program. No-op when model-free MMIO is not enabled.
    pub fn set_model_free_stream(&mut self, stream: &[u8]) {
        if let Some(mf) = self.machine.bus_mut().devices.model_free.as_mut() {
            mf.set_stream(stream);
        }
    }

    /// Refinement statistics for the model-free MMIO region, if enabled.
    pub fn model_free_stats(&self) -> Option<embsan_emu::ModelFreeStats> {
        self.machine.bus().devices.model_free.as_ref().map(|mf| mf.stats)
    }

    /// Whether the platform device window is withheld (served entirely by
    /// the model-free region). In this mode the guest's result writes are
    /// absorbed, so programs run to their full budget by design.
    pub fn mmio_withheld(&self) -> bool {
        self.machine.bus().mmio_is_withheld()
    }

    /// Renders a report against this session's firmware symbols.
    pub fn render_report(&self, report: &Report) -> String {
        report.render(if self.image.has_symbols() { Some(&self.image) } else { None })
    }

    /// Boots the firmware to its ready point, applies the init routine and
    /// activates the sanitizer (§3.5's initialization step).
    ///
    /// # Errors
    ///
    /// [`SessionError::ReadyTimeout`] if the ready point is not reached
    /// within `budget` instructions.
    pub fn run_to_ready(&mut self, budget: u64) -> Result<(), SessionError> {
        match self.ready {
            Some(ReadyPoint::Hypercall) => {
                let exit = self.machine.run(&mut self.runtime, budget)?;
                if !(exit == RunExit::Stopped && self.runtime.ready_seen()) {
                    return Err(SessionError::ReadyTimeout(format!("{exit:?}")));
                }
            }
            Some(ReadyPoint::Addr(addr)) => {
                let addr = addr as u32;
                self.machine.add_breakpoint(addr);
                let exit = self.machine.run(&mut self.runtime, budget)?;
                self.machine.remove_breakpoint(addr);
                if !matches!(exit, RunExit::Breakpoint { pc, .. } if pc == addr) {
                    return Err(SessionError::ReadyTimeout(format!("{exit:?}")));
                }
            }
            None => {
                // Binary-only firmware: boot completes when the executor
                // first idles.
                let exit = self.machine.run(&mut self.runtime, budget)?;
                if exit != RunExit::AllIdle {
                    return Err(SessionError::ReadyTimeout(format!("{exit:?}")));
                }
            }
        }
        // Surface probe-spec drift (hooks that can never fire because they
        // point outside the firmware text) as degradation events.
        let (rom_base, rom_size) = self.machine.bus().rom_range();
        self.runtime.audit_probe_spec(rom_base, rom_size);
        self.runtime.apply_init(&self.init);
        if !self.runtime.is_active() {
            // Init routines normally end with `ready;`; be lenient.
            self.runtime.activate();
        }
        self.ready_done = true;
        // Freeze RAM and the sanitizer planes first: the capture then shares
        // one immutable backing with the live state (no copy, and the first
        // reset is O(dirty)), as does every session adopting this base.
        self.machine.freeze_ram();
        self.runtime.freeze_planes();
        let snapshot = self.machine.snapshot();
        let state = self.runtime.state();
        let hash = state.fold_plane_hash(snapshot.fold_hash(0));
        self.baseline = Some(Arc::new(BaseImage { snapshot, state, hash }));
        Ok(())
    }

    /// The base image captured at the ready point, shareable across
    /// sessions of the same firmware via [`Session::adopt_base`].
    pub fn base(&self) -> Option<&Arc<BaseImage>> {
        self.baseline.as_ref()
    }

    /// Content hash of the ready-point base image (`None` before ready).
    pub fn base_hash(&self) -> Option<u64> {
        self.baseline.as_ref().map(|base| base.hash)
    }

    /// Bytes held by the (possibly shared) base image; 0 before ready.
    pub fn base_bytes(&self) -> usize {
        self.baseline.as_ref().map_or(0, |base| base.base_bytes())
    }

    /// Private bytes this session holds beyond the shared base image: the
    /// machine's private RAM pages plus the sanitizer planes' private pages.
    /// O(pages touched since the last reset) — the per-worker incremental
    /// memory cost under copy-on-write forking.
    pub fn overlay_bytes(&self) -> usize {
        self.machine.ram_overlay_bytes() + self.runtime.plane_overlay_bytes()
    }

    /// Replaces this session's private baseline with a shared base image
    /// captured by another session of the same firmware, then resets onto
    /// it. Returns `Ok(false)` (keeping the private baseline) if the
    /// hashes differ — the sessions did not reach bit-identical ready
    /// states, so sharing would corrupt both.
    ///
    /// # Errors
    ///
    /// [`SessionError::NotReady`] before [`Session::run_to_ready`];
    /// emulator errors from the reset.
    pub fn adopt_base(&mut self, base: &Arc<BaseImage>) -> Result<bool, SessionError> {
        let own = self.baseline.as_ref().ok_or(SessionError::NotReady)?;
        if own.hash != base.hash {
            return Ok(false);
        }
        self.baseline = Some(Arc::clone(base));
        self.reset()?;
        Ok(true)
    }

    /// Restores the post-ready snapshot: machine and sanitizer state
    /// (reports already collected are kept).
    ///
    /// # Errors
    ///
    /// [`SessionError::NotReady`] before [`Session::run_to_ready`].
    pub fn reset(&mut self) -> Result<(), SessionError> {
        let Session { machine, runtime, baseline, .. } = self;
        let base = baseline.as_ref().ok_or(SessionError::NotReady)?;
        machine.restore(&base.snapshot)?;
        // Borrowing restore: reuses the runtime's allocations and, once the
        // live planes fork the base's, reverts only pages dirtied since.
        runtime.restore_state_from(&base.state);
        Ok(())
    }

    /// Arms translation-block probes so an observer hook (e.g. a fuzzer's
    /// coverage collector) receives block-enter events. Call once, before
    /// or after [`Session::run_to_ready`] (the translation cache is
    /// regenerated either way).
    pub fn enable_block_coverage(&mut self) {
        let mut config = self.runtime.hook_config();
        config.blocks = true;
        self.machine.set_hook_config(config);
    }

    /// Injects and runs one executor program, collecting its outcome.
    ///
    /// # Errors
    ///
    /// [`SessionError::NotReady`] before [`Session::run_to_ready`].
    pub fn run_program(
        &mut self,
        program: &ExecProgram,
        budget: u64,
    ) -> Result<ExecOutcome, SessionError> {
        self.run_program_observed(program, budget, &mut embsan_emu::NullHook)
    }

    /// Like [`Session::run_program`], with a passive observer hook attached
    /// (receiving the same events; its verdicts are ignored). Generic over
    /// the observer, so the dispatch loop reaches it and the sanitizer
    /// runtime by static dispatch.
    ///
    /// # Errors
    ///
    /// [`SessionError::NotReady`] before [`Session::run_to_ready`].
    pub fn run_program_observed<O: embsan_emu::ExecHook + ?Sized>(
        &mut self,
        program: &ExecProgram,
        budget: u64,
        observer: &mut O,
    ) -> Result<ExecOutcome, SessionError> {
        if !self.ready_done {
            return Err(SessionError::NotReady);
        }
        self.machine.take_console();
        self.runtime.take_new_reports();
        self.machine.bus_mut().devices.mailbox.host_load(&program.encode());
        // With model-free MMIO enabled the program is also the response
        // stream (the mailbox may sit inside the withheld window), so every
        // execution path — fuzzing, reproduction, minimization, trace
        // capture — installs it here rather than at each call site.
        if self.machine.bus().devices.model_free.is_some() {
            self.set_model_free_stream(&program.model_free_stream());
        }
        // Run in slices, waking parked vCPUs at each slice boundary (`wfi`
        // waits for an event; host slicing is one). The completion signal is
        // the mailbox's "answered" state (one result byte per call): the
        // machine stops on it by itself when the executor parks — with
        // `AllIdle` once every vCPU idles, with `ProgramDone` while another
        // vCPU is still runnable — and otherwise at the next slice boundary.
        let insns_before = self.machine.lifetime_retired();
        let mut exit;
        let mut spent: u64 = 0;
        loop {
            let slice = budget.saturating_sub(spent).clamp(1, 500_000);
            let Session { machine, runtime, .. } = &mut *self;
            let mut combined =
                embsan_emu::hook::CombinedHook { primary: runtime, observer: &mut *observer };
            exit = machine.run(&mut combined, slice)?;
            spent += slice;
            match exit {
                RunExit::Faulted { .. } | RunExit::Halted { .. } => break,
                RunExit::Stopped if self.runtime.stop_on_report => break,
                _ if self.machine.bus().devices.mailbox.answered() => break,
                // All vCPUs parked with the program incomplete: stuck.
                RunExit::AllIdle => break,
                _ if spent >= budget => break,
                _ => {}
            }
        }
        self.programs_run += 1;
        self.exec_insns.observe(self.machine.lifetime_retired() - insns_before);
        Ok(ExecOutcome {
            exit,
            results: self.machine.bus_mut().devices.mailbox.host_take_results(),
            reports: self.runtime.take_new_reports(),
            console: self.machine.take_console(),
        })
    }

    /// Convenience: reset, then run the program (the fuzzing hot path).
    ///
    /// # Errors
    ///
    /// See [`Session::reset`] and [`Session::run_program`].
    pub fn run_program_fresh(
        &mut self,
        program: &ExecProgram,
        budget: u64,
    ) -> Result<ExecOutcome, SessionError> {
        self.reset()?;
        self.run_program(program, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distill::reference_specs;
    use crate::probe::{probe, ProbeMode};
    use crate::report::BugClass;
    use embsan_emu::profile::Arch;
    use embsan_guestos::bugs::{trigger_key, BugKind, BugSpec};
    use embsan_guestos::executor::sys;
    use embsan_guestos::{os, BuildOptions, SanMode};

    fn session_for(san: SanMode, mode: ProbeMode, bugs: &[BugSpec]) -> Session {
        let opts = BuildOptions::new(Arch::Armv).san(san);
        let image = os::emblinux::build(&opts, bugs).unwrap();
        let specs = reference_specs().unwrap();
        let artifacts = probe(&image, mode, None).unwrap();
        let mut session = Session::new(&image, &specs, &artifacts).unwrap();
        session.run_to_ready(100_000_000).unwrap();
        session
    }

    #[test]
    fn embsan_c_detects_heap_oob_write() {
        let bug = BugSpec::new("t/oob", BugKind::OobWrite);
        let mut session =
            session_for(SanMode::SanCall, ProbeMode::CompileTime, std::slice::from_ref(&bug));
        let mut program = ExecProgram::new();
        program.push(sys::BUG_BASE, &[trigger_key("t/oob")]);
        let outcome = session.run_program(&program, 10_000_000).unwrap();
        assert_eq!(
            outcome.reports.iter().map(|r| r.class).collect::<Vec<_>>(),
            vec![BugClass::HeapOob],
            "console: {}",
            String::from_utf8_lossy(&outcome.console)
        );
        assert!(outcome.reports[0].is_write);
    }

    #[test]
    fn embsan_d_detects_heap_oob_via_dynamic_interception() {
        let bug = BugSpec::new("t/oob", BugKind::OobWrite);
        let mut session =
            session_for(SanMode::None, ProbeMode::DynamicSource, std::slice::from_ref(&bug));
        let mut program = ExecProgram::new();
        program.push(sys::BUG_BASE, &[trigger_key("t/oob")]);
        let outcome = session.run_program(&program, 10_000_000).unwrap();
        assert!(
            outcome.reports.iter().any(|r| r.class == BugClass::HeapOob),
            "reports: {:?}",
            outcome.reports
        );
    }

    #[test]
    fn no_false_positives_on_clean_workload() {
        for (san, mode) in
            [(SanMode::SanCall, ProbeMode::CompileTime), (SanMode::None, ProbeMode::DynamicSource)]
        {
            let mut session = session_for(san, mode, &[]);
            let corpus = embsan_guestos::workload::merged_corpus(11, 3, 30);
            for program in &corpus {
                let outcome = session.run_program(program, 20_000_000).unwrap();
                assert!(
                    outcome.reports.is_empty(),
                    "{san:?}/{mode:?} false positive: {:?}",
                    outcome.reports
                );
                assert_eq!(outcome.exit, RunExit::AllIdle);
            }
        }
    }

    #[test]
    fn reset_gives_clean_state_per_program() {
        let bug = BugSpec::new("t/uaf", BugKind::Uaf);
        let mut session = session_for(SanMode::SanCall, ProbeMode::CompileTime, &[bug]);
        let mut trigger = ExecProgram::new();
        trigger.push(sys::BUG_BASE, &[trigger_key("t/uaf")]);
        let outcome = session.run_program_fresh(&trigger, 10_000_000).unwrap();
        assert_eq!(outcome.reports.len(), 1);
        assert_eq!(outcome.reports[0].class, BugClass::Uaf);
        // Same program again after reset: the report deduplicates (same pc)
        // but execution still works and state was clean.
        let outcome = session.run_program_fresh(&trigger, 10_000_000).unwrap();
        assert!(outcome.reports.is_empty());
        assert_eq!(outcome.exit, RunExit::AllIdle);
        // A clean program after reset sees no stale allocations.
        let mut clean = ExecProgram::new();
        clean.push(sys::ALLOC, &[64, 0]);
        clean.push(sys::WRITE, &[0, 10, 1]);
        let outcome = session.run_program_fresh(&clean, 10_000_000).unwrap();
        assert!(outcome.reports.is_empty());
    }

    #[test]
    fn double_free_detected_in_both_modes() {
        let bug = BugSpec::new("t/df", BugKind::DoubleFree);
        for (san, mode) in
            [(SanMode::SanCall, ProbeMode::CompileTime), (SanMode::None, ProbeMode::DynamicSource)]
        {
            let mut session = session_for(san, mode, std::slice::from_ref(&bug));
            let mut program = ExecProgram::new();
            program.push(sys::BUG_BASE, &[trigger_key("t/df")]);
            let outcome = session.run_program(&program, 10_000_000).unwrap();
            assert!(
                outcome.reports.iter().any(|r| r.class == BugClass::DoubleFree),
                "{san:?}: {:?}",
                outcome.reports
            );
        }
    }

    #[test]
    fn null_deref_reported_from_fault() {
        let bug = BugSpec::new("t/npd", BugKind::NullDeref);
        let mut session = session_for(SanMode::SanCall, ProbeMode::CompileTime, &[bug]);
        let mut program = ExecProgram::new();
        program.push(sys::BUG_BASE, &[trigger_key("t/npd")]);
        let outcome = session.run_program(&program, 10_000_000).unwrap();
        assert!(outcome.reports.iter().any(|r| r.class == BugClass::NullDeref));
        assert!(matches!(outcome.exit, RunExit::Faulted { .. }));
        // The machine faulted; reset recovers it.
        session.reset().unwrap();
        let mut clean = ExecProgram::new();
        clean.push(sys::NOP, &[]);
        let outcome = session.run_program(&clean, 10_000_000).unwrap();
        assert_eq!(outcome.exit, RunExit::AllIdle);
    }

    #[test]
    fn global_oob_detected_by_c_missed_by_d() {
        let bug = BugSpec::new("t/goob", BugKind::GlobalOob);
        // EMBSAN-C: compile-time redzones catch it.
        let mut session =
            session_for(SanMode::SanCall, ProbeMode::CompileTime, std::slice::from_ref(&bug));
        let mut program = ExecProgram::new();
        program.push(sys::BUG_BASE, &[trigger_key("t/goob")]);
        let outcome = session.run_program(&program, 10_000_000).unwrap();
        assert!(
            outcome.reports.iter().any(|r| r.class == BugClass::GlobalOob),
            "EMBSAN-C must detect global OOB: {:?}",
            outcome.reports
        );
        // EMBSAN-D: no redzones around globals — undetected (Table 2).
        let mut session =
            session_for(SanMode::None, ProbeMode::DynamicSource, std::slice::from_ref(&bug));
        let outcome = session.run_program(&program, 10_000_000).unwrap();
        assert!(outcome.reports.is_empty(), "EMBSAN-D must miss global OOB: {:?}", outcome.reports);
    }

    #[test]
    fn race_detected_with_kcsan_on_smp() {
        let bug = BugSpec::new("t/race", BugKind::Race);
        let opts = BuildOptions::new(Arch::X86v).san(SanMode::SanCall).cpus(2);
        let image = os::emblinux::build(&opts, std::slice::from_ref(&bug)).unwrap();
        let specs = reference_specs().unwrap();
        let artifacts = probe(&image, ProbeMode::CompileTime, None).unwrap();
        let mut session = Session::with_cpus(&image, &specs, &artifacts, 2).unwrap();
        session.run_to_ready(200_000_000).unwrap();
        let mut program = ExecProgram::new();
        // Several trigger calls: sampling needs a few chances.
        for _ in 0..8 {
            program.push(sys::BUG_BASE, &[trigger_key("t/race")]);
        }
        let outcome = session.run_program(&program, 100_000_000).unwrap();
        assert!(
            outcome.reports.iter().any(|r| r.class == BugClass::Race),
            "reports: {:?}",
            outcome.reports
        );
    }
}
