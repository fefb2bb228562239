//! The Common Sanitizer Runtime (§3.3).
//!
//! [`EmbsanRuntime`] implements the emulator's [`ExecHook`]: depending on
//! the attach mode it either receives *hypercalls* from the dummy sanitizer
//! library (EMBSAN-C — the translated firmware calls straight into the
//! host) or arms *translation-template probes* on every load/store plus
//! call/return interception of the allocator functions named in the
//! platform spec (EMBSAN-D). Both paths feed the same engines over the same
//! unified shadow memory.
//!
//! The runtime is *passive* during boot; the session applies the prober's
//! init routine at the ready point and activates it — precisely the
//! paper's "the sanitizer will initialize upon the firmware reaching the
//! ready-to-run state".

pub mod kasan;
pub mod kcsan;
pub mod shadow;
pub mod umsan;

use std::collections::{HashMap, HashSet};

use embsan_dsl::{
    FuncRole, InitProgram, InitStep, PlatformSpec, PointKind, PoisonKind, ReadyPoint, SanitizerSpec,
};
use embsan_emu::bus::{MemAccess, MemKind};
use embsan_emu::cpu::CpuView;
use embsan_emu::hook::{ExecHook, HookAction, HookConfig};
use embsan_emu::isa::Reg;
use embsan_emu::profile::Arch;
use embsan_emu::Fault;

use crate::health::{Degradation, HealthCounters};
use crate::report::{BugClass, Report};
use kasan::{KasanConfig, KasanEngine};
use kcsan::{KcsanConfig, KcsanEngine, KcsanOutcome};
use shadow::{code, ShadowMemory};
use umsan::UmsanEngine;

/// How the runtime attaches to the firmware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttachMode {
    /// EMBSAN-C: the firmware's compile-time instrumentation hypercalls in.
    CompileTime,
    /// EMBSAN-D: translation-spliced probes plus dynamic function
    /// interception.
    Dynamic,
}

/// Errors constructing a runtime from DSL specifications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The platform spec references an unknown architecture or register.
    BadPlatform(String),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::BadPlatform(msg) => write!(f, "bad platform spec: {msg}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// A resolved (register-level) dynamic function hook.
#[derive(Debug, Clone)]
struct ResolvedHook {
    addr: u32,
    role: FuncRole,
    /// `(semantic name, ABI argument index)`.
    params: Vec<(String, u8)>,
    returns: bool,
}

/// Platform details resolved from the DSL to emulator-level types.
#[derive(Debug, Clone)]
pub struct ResolvedPlatform {
    /// Architecture.
    pub arch: Arch,
    /// RAM range `(base, size)`.
    pub ram: (u32, u32),
    /// Hypercall argument registers.
    pub hypercall_args: Vec<Reg>,
    /// Register carrying addresses for check hypercalls.
    pub check_reg: Reg,
    /// Ready-point description.
    pub ready: Option<ReadyPoint>,
    hooks: Vec<ResolvedHook>,
}

impl ResolvedPlatform {
    /// Resolves a platform spec.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadPlatform`] on unknown architecture or
    /// register names.
    pub fn resolve(spec: &PlatformSpec) -> Result<ResolvedPlatform, RuntimeError> {
        let arch = match spec.arch.as_str() {
            "armv" => Arch::Armv,
            "mipsv" => Arch::Mipsv,
            "x86v" => Arch::X86v,
            other => return Err(RuntimeError::BadPlatform(format!("unknown arch `{other}`"))),
        };
        let reg = |name: &str| -> Result<Reg, RuntimeError> {
            Reg::parse(name)
                .ok_or_else(|| RuntimeError::BadPlatform(format!("unknown register `{name}`")))
        };
        let hypercall_args =
            spec.hypercall_args.iter().map(|n| reg(n)).collect::<Result<Vec<_>, _>>()?;
        let check_reg =
            if spec.check_reg.is_empty() { Reg::SCRATCH } else { reg(&spec.check_reg)? };
        let hooks = spec
            .funcs
            .iter()
            .map(|f| ResolvedHook {
                addr: f.addr as u32,
                role: f.role,
                params: f.params.clone(),
                returns: f.returns.is_some(),
            })
            .collect();
        Ok(ResolvedPlatform {
            arch,
            ram: (spec.ram.0 as u32, (spec.ram.1 - spec.ram.0) as u32),
            hypercall_args,
            check_reg,
            ready: spec.ready,
            hooks,
        })
    }
}

/// Which engines a merged sanitizer spec enables, plus their parameters.
#[derive(Debug, Clone, Copy)]
pub struct EngineSelection {
    /// KASAN parameters, if enabled.
    pub kasan: Option<KasanConfig>,
    /// KCSAN parameters, if enabled.
    pub kcsan: Option<KcsanConfig>,
    /// Whether the UMSAN extension engine is enabled.
    pub umsan: bool,
}

impl EngineSelection {
    /// Derives the selection from a (possibly merged) sanitizer spec: an
    /// engine is enabled when the spec's name or argument annotations
    /// mention it.
    pub fn from_spec(spec: &SanitizerSpec) -> EngineSelection {
        let mut names: HashSet<&str> = spec.name.split('_').collect();
        for point in &spec.points {
            for arg in &point.args {
                for source in &arg.sources {
                    names.insert(source);
                }
            }
        }
        let kasan = names.contains("kasan").then(|| KasanConfig {
            quarantine_bytes: spec.resource("quarantine", "bytes").unwrap_or(256 * 1024),
            heap_prepoison: true,
        });
        let kcsan = names.contains("kcsan").then(|| KcsanConfig {
            slots: spec.resource("watchpoints", "slots").unwrap_or(8) as usize,
            window: spec.resource("watchpoints", "window").unwrap_or(600),
            sample: spec.resource("watchpoints", "sample").unwrap_or(61).max(1),
        });
        EngineSelection { kasan, kcsan, umsan: names.contains("umsan") }
    }
}

/// Opaque snapshot of the runtime's mutable sanitizer state, captured at
/// the ready point and restored on every fuzzer reset.
#[derive(Clone)]
pub struct RuntimeState {
    shadow: ShadowMemory,
    kasan: Option<KasanEngine>,
    kcsan: Option<KcsanEngine>,
    umsan: Option<UmsanEngine>,
    pending: Vec<Vec<PendingCall>>,
    suppress: Vec<u32>,
    active: bool,
}

impl RuntimeState {
    /// Folds the big sanitizer planes into `hash`: the shadow plane, then
    /// the uninit plane when UMSAN is attached, each page by page
    /// ([`embsan_emu::PagedBytes::fold_hash`]). Part of the base-image
    /// identity: two sessions whose RAM, CPU state *and* sanitizer planes
    /// hash alike can share one copy-on-write base.
    pub fn fold_plane_hash(&self, hash: u64) -> u64 {
        let hash = self.shadow.fold_plane_hash(hash);
        self.umsan.as_ref().map_or(hash, |umsan| umsan.fold_plane_hash(hash))
    }

    /// Total bytes of the big sanitizer planes (shared-base accounting).
    pub(crate) fn plane_bytes(&self) -> usize {
        self.shadow.plane_bytes() + self.umsan.as_ref().map_or(0, UmsanEngine::plane_bytes)
    }

    /// Pages the big sanitizer planes hold (shared-base accounting).
    pub(crate) fn plane_resident_pages(&self) -> usize {
        self.shadow.resident_pages() + self.umsan.as_ref().map_or(0, UmsanEngine::resident_pages)
    }
}

#[derive(Debug, Clone)]
struct PendingCall {
    hook_index: usize,
    ret_to: u32,
    args: [u32; 4],
}

/// The Common Sanitizer Runtime: an [`ExecHook`] hosting the KASAN and
/// KCSAN engines.
pub struct EmbsanRuntime {
    platform: ResolvedPlatform,
    mode: AttachMode,
    shadow: ShadowMemory,
    kasan: Option<KasanEngine>,
    kcsan: Option<KcsanEngine>,
    umsan: Option<UmsanEngine>,
    active: bool,
    ready_seen: bool,
    pending: Vec<Vec<PendingCall>>,
    suppress: Vec<u32>,
    stall_watch: HashMap<u64, (u32, u8)>,
    reports: Vec<Report>,
    new_reports: Vec<Report>,
    dedup: HashSet<(BugClass, u32, u64)>,
    /// Stop the machine on the first report (off by default: sanitizers
    /// report and continue).
    pub stop_on_report: bool,
    /// When `false`, reports bypass deduplication and the cumulative list:
    /// they appear only in the per-run batch. Used by crash triage, which
    /// must re-observe already-known bugs while minimizing reproducers.
    pub dedup_enabled: bool,
    checks_performed: u64,
    /// Checks that fell off the inline shadow fast path onto the byte-wise
    /// slow walk (partial granules, poisoned neighborhoods, MMIO).
    slow_path_checks: u64,
    /// Monotonic degradation counters (like reports, not part of
    /// [`RuntimeState`]: they describe the whole campaign).
    health: HealthCounters,
    /// Bounded log of degradation events (the counters stay exact even
    /// after the log caps out).
    degradations: Vec<Degradation>,
    tracer: embsan_obs::Tracer,
}

/// Cap on the retained [`Degradation`] event log; beyond this only the
/// [`HealthCounters`] keep counting.
const DEGRADATION_LOG_CAP: usize = 256;

impl std::fmt::Debug for EmbsanRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmbsanRuntime")
            .field("mode", &self.mode)
            .field("active", &self.active)
            .field("reports", &self.reports.len())
            .finish_non_exhaustive()
    }
}

impl EmbsanRuntime {
    /// Creates a runtime from a merged sanitizer spec and a platform spec.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError`] if the platform spec cannot be resolved.
    pub fn new(
        spec: &SanitizerSpec,
        platform_spec: &PlatformSpec,
        cpus: usize,
    ) -> Result<EmbsanRuntime, RuntimeError> {
        let platform = ResolvedPlatform::resolve(platform_spec)?;
        let selection = EngineSelection::from_spec(spec);
        let mode = match platform_spec.instrumented.as_str() {
            "sancall" => AttachMode::CompileTime,
            _ => AttachMode::Dynamic,
        };
        // §3.1: the runtime only intercepts what the merged spec asks for.
        let wants_insns = spec.point(PointKind::Insn, "load").is_some()
            || spec.point(PointKind::Insn, "store").is_some();
        if !wants_insns {
            return Err(RuntimeError::BadPlatform(
                "merged spec has no load/store interception points".to_string(),
            ));
        }
        Ok(EmbsanRuntime {
            shadow: ShadowMemory::new(platform.ram.0, platform.ram.1),
            kasan: selection.kasan.map(KasanEngine::new),
            kcsan: selection.kcsan.map(KcsanEngine::new),
            umsan: selection.umsan.then(|| UmsanEngine::new(platform.ram.0, platform.ram.1)),
            platform,
            mode,
            active: false,
            ready_seen: false,
            pending: vec![Vec::new(); cpus],
            suppress: vec![0; cpus],
            stall_watch: HashMap::new(),
            reports: Vec::new(),
            new_reports: Vec::new(),
            dedup: HashSet::new(),
            stop_on_report: false,
            dedup_enabled: true,
            checks_performed: 0,
            slow_path_checks: 0,
            health: HealthCounters::default(),
            degradations: Vec::new(),
            tracer: embsan_obs::Tracer::disabled(),
        })
    }

    /// Attaches an observability tracer (shadow checks, allocator
    /// intercepts, reports). Sessions share one tracer between the
    /// machine and the runtime so the event stream is totally ordered.
    pub fn set_tracer(&mut self, tracer: embsan_obs::Tracer) {
        self.tracer = tracer;
    }

    /// The attach mode.
    pub fn mode(&self) -> AttachMode {
        self.mode
    }

    /// The hook configuration the machine must install for this runtime —
    /// this is what regenerates the translation templates (§3.3).
    pub fn hook_config(&self) -> HookConfig {
        match self.mode {
            AttachMode::CompileTime => {
                HookConfig { hypercalls: true, mem: false, calls: false, blocks: false }
            }
            AttachMode::Dynamic => {
                HookConfig { hypercalls: false, mem: true, calls: true, blocks: false }
            }
        }
    }

    /// Whether the firmware has signalled the ready-to-run state.
    pub fn ready_seen(&self) -> bool {
        self.ready_seen
    }

    /// Whether the runtime is actively sanitizing.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Activates sanitizing (the session calls this at the ready point).
    pub fn activate(&mut self) {
        self.active = true;
    }

    /// Total checks performed (for overhead accounting).
    pub fn checks_performed(&self) -> u64 {
        self.checks_performed
    }

    /// Checks served by the byte-wise slow path (a subset of
    /// [`EmbsanRuntime::checks_performed`]; the rest proved clean inline).
    pub fn slow_path_checks(&self) -> u64 {
        self.slow_path_checks
    }

    /// All reports so far (deduplicated).
    pub fn reports(&self) -> &[Report] {
        &self.reports
    }

    /// Feeds statically ranked race-candidate addresses (the
    /// `embsan-analysis` lockset pass) to the KCSAN engine's watchpoint
    /// prioritization. No-op when KCSAN is not selected.
    pub fn set_race_priorities(&mut self, addrs: &[u32]) {
        if let Some(kcsan) = &mut self.kcsan {
            kcsan.set_priorities(addrs.iter().copied());
        }
    }

    /// Number of installed KCSAN priority addresses.
    pub fn race_priority_count(&self) -> usize {
        self.kcsan.as_ref().map_or(0, |k| k.priorities().len())
    }

    /// Takes the reports recorded since the last call.
    pub fn take_new_reports(&mut self) -> Vec<Report> {
        std::mem::take(&mut self.new_reports)
    }

    /// Campaign-wide degradation counters (never reset by state restores).
    pub fn health(&self) -> &HealthCounters {
        &self.health
    }

    /// The bounded degradation event log (see [`HealthCounters`] for exact
    /// totals once the log caps out).
    pub fn degradations(&self) -> &[Degradation] {
        &self.degradations
    }

    fn note_degradation(&mut self, event: Degradation) {
        match &event {
            Degradation::QuarantineEvicted { chunks } => {
                self.health.quarantine_evictions += chunks;
            }
            Degradation::ShadowClipped { granules, .. } => {
                self.health.shadow_clips += u64::from(*granules);
            }
            Degradation::SpecDrift { .. } => self.health.spec_drift += 1,
        }
        if self.degradations.len() < DEGRADATION_LOG_CAP {
            self.degradations.push(event);
        }
    }

    /// Folds quarantine-pressure evictions accumulated inside the (restorable)
    /// KASAN engine into the campaign-wide health counters. Called after every
    /// free so the counters survive fuzzer state restores.
    fn drain_kasan_pressure(&mut self) {
        let chunks = self.kasan.as_mut().map_or(0, KasanEngine::take_pressure_evictions);
        if chunks > 0 {
            self.note_degradation(Degradation::QuarantineEvicted { chunks });
        }
    }

    /// Audits the resolved probe spec against the firmware's text range
    /// `[text_base, text_base + text_size)`. Hooks whose address falls
    /// outside can never fire — that is probe-spec drift (the spec was
    /// written for a different firmware build), recorded as a
    /// [`Degradation::SpecDrift`] per offending hook rather than an error:
    /// the remaining hooks still provide partial coverage.
    ///
    /// Returns the number of drifted hooks found.
    pub fn audit_probe_spec(&mut self, text_base: u32, text_size: u32) -> usize {
        let in_text = |addr: u32| addr >= text_base && addr < text_base.saturating_add(text_size);
        let drifted: Vec<(String, u32)> = self
            .platform
            .hooks
            .iter()
            .filter(|hook| !in_text(hook.addr))
            .map(|hook| (format!("{:?} hook", hook.role), hook.addr))
            .collect();
        let count = drifted.len();
        for (what, addr) in drifted {
            self.note_degradation(Degradation::SpecDrift { what, addr });
        }
        count
    }

    /// Executes a prober-compiled init routine: shadow setup, boot-time
    /// allocation replay, global registration, then activation on `ready`.
    pub fn apply_init(&mut self, init: &InitProgram) {
        for step in &init.steps {
            match *step {
                InitStep::Poison { start, end, kind } => {
                    let poison_code = match kind {
                        PoisonKind::HeapRedzone => code::HEAP,
                        PoisonKind::GlobalRedzone => code::GLOBAL_REDZONE,
                        PoisonKind::Freed => code::FREED,
                        PoisonKind::Invalid => code::INVALID,
                    };
                    let clipped = self.shadow.poison(start as u32, end as u32, poison_code);
                    if clipped > 0 {
                        self.note_degradation(Degradation::ShadowClipped {
                            start: start as u32,
                            end: end as u32,
                            granules: clipped,
                        });
                    }
                }
                InitStep::Unpoison { start, end } => {
                    let clipped = self.shadow.poison(start as u32, end as u32, 0);
                    if clipped > 0 {
                        self.note_degradation(Degradation::ShadowClipped {
                            start: start as u32,
                            end: end as u32,
                            granules: clipped,
                        });
                    }
                }
                InitStep::Alloc { addr, size, site } => {
                    if !self.shadow.covers(addr as u32) {
                        self.note_degradation(Degradation::SpecDrift {
                            what: "boot-time allocation".to_string(),
                            addr: addr as u32,
                        });
                    }
                    if let Some(kasan) = &mut self.kasan {
                        kasan.on_alloc(&mut self.shadow, addr as u32, size as u32, site as u32);
                    }
                    if let Some(umsan) = &mut self.umsan {
                        // Boot-time allocations are treated as initialized:
                        // the dry run cannot replay which bytes boot code
                        // wrote, and flagging firmware-internal state would
                        // be noise.
                        umsan.on_alloc(addr as u32, size as u32, site as u32);
                        umsan.mark_initialized(addr as u32, size as u32);
                    }
                }
                InitStep::Global { addr, size, redzone } => {
                    if !self.shadow.covers(addr as u32) {
                        self.note_degradation(Degradation::SpecDrift {
                            what: "global registration".to_string(),
                            addr: addr as u32,
                        });
                    }
                    if let Some(kasan) = &mut self.kasan {
                        kasan.on_global(&mut self.shadow, addr as u32, size as u32, redzone as u32);
                    }
                }
                InitStep::Ready => self.activate(),
            }
        }
    }

    /// Freezes the big sanitizer planes (shadow, uninit bits) as immutable
    /// shared bases and re-forks the live planes from them. Called once at
    /// the ready point, *before* capturing the baseline state: the capture
    /// then clones an empty-overlay fork, so baseline and live plane share
    /// one backing allocation and per-iteration restores cost O(dirty).
    pub fn freeze_planes(&mut self) {
        self.shadow.freeze_plane();
        if let Some(umsan) = &mut self.umsan {
            umsan.freeze_plane();
        }
    }

    /// Private overlay bytes the live sanitizer planes hold beyond their
    /// shared bases (0 until a plane page diverges from the frozen base).
    pub fn plane_overlay_bytes(&self) -> usize {
        self.shadow.overlay_bytes() + self.umsan.as_ref().map_or(0, UmsanEngine::overlay_bytes)
    }

    /// Captures the mutable sanitizer state (for fuzzer resets paired with
    /// machine snapshots). Reports and dedup history are *not* part of the
    /// state — they accumulate across resets.
    pub fn state(&self) -> RuntimeState {
        RuntimeState {
            shadow: self.shadow.clone(),
            kasan: self.kasan.clone(),
            kcsan: self.kcsan.clone(),
            umsan: self.umsan.clone(),
            pending: self.pending.clone(),
            suppress: self.suppress.clone(),
            active: self.active,
        }
    }

    /// Restores state captured by [`EmbsanRuntime::state`].
    pub fn restore_state(&mut self, state: RuntimeState) {
        self.shadow = state.shadow;
        self.kasan = state.kasan;
        self.kcsan = state.kcsan;
        self.umsan = state.umsan;
        self.pending = state.pending;
        self.suppress = state.suppress;
        self.active = state.active;
        self.stall_watch.clear();
    }

    /// Borrowing restore for the per-iteration reset path: installs
    /// `state` without consuming it, reusing this runtime's allocations.
    /// When the live shadow/uninit planes fork the same frozen bases as
    /// `state`'s, only the pages touched since the last restore are
    /// reverted — O(touched state) instead of O(RAM).
    pub fn restore_state_from(&mut self, state: &RuntimeState) {
        if self.shadow.same_shape(&state.shadow) {
            self.shadow.restore_from(&state.shadow);
        } else {
            self.shadow = state.shadow.clone();
        }
        match (&mut self.kasan, &state.kasan) {
            (Some(live), Some(base)) => live.restore_from(base),
            (live, base) => *live = base.clone(),
        }
        match (&mut self.kcsan, &state.kcsan) {
            (Some(live), Some(base)) => live.restore_from(base),
            (live, base) => *live = base.clone(),
        }
        match (&mut self.umsan, &state.umsan) {
            (Some(live), Some(base)) if live.same_shape(base) => live.restore_from(base),
            (live, base) => *live = base.clone(),
        }
        self.pending.clone_from(&state.pending);
        self.suppress.clone_from(&state.suppress);
        self.active = state.active;
        self.stall_watch.clear();
    }

    /// Heuristic guest backtrace signature: scan the top of the stack for
    /// text addresses (the same trick KASAN uses on architectures without
    /// reliable frame pointers). Distinguishes reports whose immediate pc
    /// falls in shared runtime code (e.g. the dummy library's `__san_free`).
    fn call_site_signature(cpu: &mut CpuView<'_>) -> u64 {
        let (rom_base, rom_size) = cpu.bus.rom_range();
        let sp = cpu.reg(Reg::SP);
        let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
        let mut frames = 0;
        for slot in 0..64u32 {
            let Ok(word) = cpu.read_mem(sp.wrapping_add(slot * 4), 4) else { break };
            if word >= rom_base && word < rom_base + rom_size {
                hash = (hash ^ u64::from(word)).wrapping_mul(0x0000_0100_0000_01B3);
                frames += 1;
                if frames == 4 {
                    break;
                }
            }
        }
        hash
    }

    fn record(&mut self, report: Report) -> HookAction {
        self.record_with_signature(report, 0)
    }

    fn record_with_signature(&mut self, mut report: Report, signature: u64) -> HookAction {
        report.site = signature;
        let key = report.dedup_key();
        let (class, pc, _) = key;
        // Recorded before deduplication, so the event stream stays a pure
        // function of the current execution (dedup depends on campaign
        // history). Guarded: the label allocates.
        if self.tracer.is_enabled() {
            self.tracer.record(embsan_obs::EventKind::Report { class: class.to_string(), pc });
        }
        if !self.dedup_enabled {
            self.new_reports.push(report);
        } else if self.dedup.insert(key) {
            self.reports.push(report.clone());
            self.new_reports.push(report);
        }
        if self.stop_on_report {
            HookAction::Stop
        } else {
            HookAction::Continue
        }
    }

    /// The common check path for both attach modes.
    ///
    /// `written_value` is the value a store is about to write, when the
    /// probe knows it (EMBSAN-D memory probes): the store completes before
    /// its stall window opens, so the KCSAN value-change baseline must be
    /// the written value, not the pre-store memory content.
    #[allow(clippy::too_many_arguments)]
    fn check_access(
        &mut self,
        cpu: &mut CpuView<'_>,
        addr: u32,
        size: u8,
        is_write: bool,
        atomic: bool,
        pc: u32,
        written_value: Option<u32>,
    ) -> HookAction {
        self.checks_performed += 1;
        self.tracer.record(embsan_obs::EventKind::ShadowCheck { addr, size, write: is_write });
        let cpu_index = cpu.cpu_index();
        if self.kasan.is_some() {
            // Inline fast path: a provably-clean access costs one compare
            // against the valid-granule shape; everything else (partial
            // granules, poison, MMIO) drops to the out-of-line byte-wise
            // walk and is counted.
            if !self.shadow.check_fast(addr, size) {
                self.slow_path_checks += 1;
                if let Err(violation) = self.shadow.check_slow(addr, size) {
                    let report = self.kasan.as_ref().map(|k| {
                        k.classify(
                            violation.bad_addr,
                            violation.code,
                            size,
                            is_write,
                            pc,
                            cpu_index,
                        )
                    });
                    if let Some(report) = report {
                        return self.record(report);
                    }
                }
            }
        }
        if let Some(umsan) = &mut self.umsan {
            if is_write {
                umsan.on_store(addr, size);
            } else if let Some(report) = umsan.on_load(addr, size, pc, cpu_index) {
                return self.record(report);
            }
        }
        if !atomic {
            if let Some(kcsan) = &mut self.kcsan {
                let value_now =
                    written_value.unwrap_or_else(|| cpu.read_mem(addr, size.min(4)).unwrap_or(0));
                match kcsan.on_access(addr, size, is_write, cpu_index, pc, value_now) {
                    KcsanOutcome::Pass => {}
                    KcsanOutcome::Watch { token, window } => {
                        self.stall_watch.insert(token, (addr, size));
                        return HookAction::Stall { instrs: window, token };
                    }
                    KcsanOutcome::Race(report) => return self.record(report),
                }
            }
        }
        HookAction::Continue
    }
}

impl ExecHook for EmbsanRuntime {
    fn mem_access(&mut self, cpu: &mut CpuView<'_>, access: &MemAccess) -> HookAction {
        if !self.active || self.suppress[access.cpu] > 0 {
            return HookAction::Continue;
        }
        // Device memory is not sanitized.
        if cpu.bus.is_mmio(access.addr) {
            return HookAction::Continue;
        }
        self.check_access(
            cpu,
            access.addr,
            access.size,
            access.kind.is_write(),
            access.kind == MemKind::AtomicRmw,
            access.pc,
            access.kind.is_write().then_some(access.value),
        )
    }

    fn hypercall(&mut self, cpu: &mut CpuView<'_>, nr: u32) -> HookAction {
        use embsan_asm::sanabi::hyper;
        let pc = cpu.pc();
        let cpu_index = cpu.cpu_index();
        if let Some((size, is_write)) = hyper::decode_check(nr) {
            if !self.active {
                return HookAction::Continue;
            }
            let addr = cpu.reg(self.platform.check_reg);
            // Report at the *instrumented call site*, not inside the shared
            // dummy-library stub: the check-link register holds the return
            // address, which is the guarded access instruction itself.
            let pc = cpu.reg(embsan_asm::instrument::CHECK_LINK);
            // The check hypercall precedes the instruction: the pre-access
            // memory content is the correct value-change baseline.
            return self.check_access(
                cpu,
                addr,
                size,
                is_write,
                nr == hyper::CHECK_ATOMIC4,
                pc,
                None,
            );
        }
        let arg = |cpu: &CpuView<'_>, i: usize| {
            self.platform.hypercall_args.get(i).map(|&r| cpu.reg(r)).unwrap_or(0)
        };
        match nr {
            hyper::ALLOC if self.active => {
                let (addr, size) = (arg(cpu, 0), arg(cpu, 1));
                self.tracer.record(embsan_obs::EventKind::AllocIntercept {
                    op: embsan_obs::AllocOp::Alloc,
                    addr,
                    size,
                });
                if let Some(kasan) = &mut self.kasan {
                    kasan.on_alloc(&mut self.shadow, addr, size, pc);
                }
                if let Some(umsan) = &mut self.umsan {
                    umsan.on_alloc(addr, size, pc);
                }
                HookAction::Continue
            }
            hyper::FREE if self.active => {
                let addr = arg(cpu, 0);
                self.tracer.record(embsan_obs::EventKind::AllocIntercept {
                    op: embsan_obs::AllocOp::Free,
                    addr,
                    size: 0,
                });
                if let Some(umsan) = &mut self.umsan {
                    umsan.on_free(addr);
                }
                let report = self
                    .kasan
                    .as_mut()
                    .and_then(|k| k.on_free(&mut self.shadow, addr, pc, cpu_index));
                self.drain_kasan_pressure();
                match report {
                    Some(report) => {
                        let signature = Self::call_site_signature(cpu);
                        self.record_with_signature(report, signature)
                    }
                    None => HookAction::Continue,
                }
            }
            hyper::REGISTER_GLOBAL if self.active => {
                let (addr, size, redzone) = (arg(cpu, 0), arg(cpu, 1), arg(cpu, 2));
                self.tracer.record(embsan_obs::EventKind::AllocIntercept {
                    op: embsan_obs::AllocOp::Global,
                    addr,
                    size,
                });
                if let Some(kasan) = &mut self.kasan {
                    kasan.on_global(&mut self.shadow, addr, size, redzone);
                }
                HookAction::Continue
            }
            hyper::READY => {
                // Stop only on the first READY: the machine re-executes the
                // stopped instruction on resume, which must then fall
                // through.
                if self.ready_seen {
                    HookAction::Continue
                } else {
                    self.ready_seen = true;
                    HookAction::Stop
                }
            }
            _ => HookAction::Continue,
        }
    }

    fn call(&mut self, cpu: &mut CpuView<'_>, target: u32, ret_to: u32) {
        let Some(hook_index) = self.platform.hooks.iter().position(|h| h.addr == target) else {
            return;
        };
        let cpu_index = cpu.cpu_index();
        let args = [cpu.reg(Reg::A0), cpu.reg(Reg::A1), cpu.reg(Reg::A2), cpu.reg(Reg::A3)];
        self.pending[cpu_index].push(PendingCall { hook_index, ret_to, args });
        // Allocator internals legitimately touch free memory: suppress
        // checks on this vCPU until the function returns.
        self.suppress[cpu_index] += 1;
    }

    fn ret(&mut self, cpu: &mut CpuView<'_>, target: u32) {
        let cpu_index = cpu.cpu_index();
        let Some(top) = self.pending[cpu_index].last() else { return };
        if top.ret_to != target {
            return;
        }
        // Infallible: `last()` above just witnessed a top-of-stack entry
        // and nothing between the two calls can pop it.
        let pending = self.pending[cpu_index].pop().expect("pending call just observed");
        self.suppress[cpu_index] = self.suppress[cpu_index].saturating_sub(1);
        let hook = self.platform.hooks[pending.hook_index].clone();
        let param = |name: &str| -> u32 {
            hook.params
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, idx)| pending.args[usize::from(idx).min(3)])
                .unwrap_or(0)
        };
        let pc = target.wrapping_sub(4); // the call site
        match hook.role {
            FuncRole::Alloc if self.active => {
                let addr = if hook.returns { cpu.reg(Reg::A0) } else { 0 };
                let size = param("size");
                self.tracer.record(embsan_obs::EventKind::AllocIntercept {
                    op: embsan_obs::AllocOp::Alloc,
                    addr,
                    size,
                });
                if let Some(kasan) = &mut self.kasan {
                    kasan.on_alloc(&mut self.shadow, addr, size, pc);
                }
                if let Some(umsan) = &mut self.umsan {
                    umsan.on_alloc(addr, size, pc);
                }
            }
            FuncRole::Free if self.active => {
                let addr = param("addr");
                self.tracer.record(embsan_obs::EventKind::AllocIntercept {
                    op: embsan_obs::AllocOp::Free,
                    addr,
                    size: 0,
                });
                if let Some(umsan) = &mut self.umsan {
                    umsan.on_free(addr);
                }
                let report = self
                    .kasan
                    .as_mut()
                    .and_then(|k| k.on_free(&mut self.shadow, addr, pc, cpu_index));
                self.drain_kasan_pressure();
                if let Some(report) = report {
                    self.record(report);
                }
            }
            FuncRole::Global if self.active => {
                self.tracer.record(embsan_obs::EventKind::AllocIntercept {
                    op: embsan_obs::AllocOp::Global,
                    addr: param("addr"),
                    size: param("size"),
                });
                if let Some(kasan) = &mut self.kasan {
                    kasan.on_global(
                        &mut self.shadow,
                        param("addr"),
                        param("size"),
                        param("redzone"),
                    );
                }
            }
            FuncRole::Ready => {
                self.ready_seen = true;
            }
            _ => {}
        }
    }

    fn stall_expired(&mut self, cpu: &mut CpuView<'_>, token: u64) {
        let Some((addr, size)) = self.stall_watch.remove(&token) else { return };
        let value_now = cpu.read_mem(addr, size.min(4)).unwrap_or(0);
        let report = self.kcsan.as_mut().and_then(|k| k.on_stall_expired(token, value_now));
        if let Some(report) = report {
            self.record(report);
        }
    }

    fn fault(&mut self, cpu: &mut CpuView<'_>, fault: Fault) {
        if !self.active {
            return;
        }
        if let Fault::NullPage { addr, is_write } = fault {
            let report = Report {
                class: BugClass::NullDeref,
                addr,
                size: 0,
                is_write,
                pc: cpu.pc(),
                cpu: cpu.cpu_index(),
                chunk: None,
                other: None,
                site: 0,
            };
            self.record(report);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distill::reference_merged;

    fn platform_spec() -> PlatformSpec {
        let doc = r#"
platform test {
    arch armv;
    endian little;
    ram 0x00100000 .. 0x00500000;
    mmio 0xF0000000 .. 0xF0001000;
    hypercall args r1 r2 r3 r4 ret r1;
    check_reg r12;
    instrumented sancall;
    ready hypercall;
}
"#;
        match embsan_dsl::parse(doc).unwrap().remove(0) {
            embsan_dsl::Item::Platform(p) => p,
            _ => panic!(),
        }
    }

    #[test]
    fn engine_selection_from_merged_spec() {
        let merged = reference_merged().unwrap();
        let selection = EngineSelection::from_spec(&merged);
        assert!(selection.kasan.is_some());
        assert!(selection.kcsan.is_some());
        assert_eq!(selection.kasan.unwrap().quarantine_bytes, 262144);
        assert_eq!(selection.kcsan.unwrap().sample, 47);
    }

    #[test]
    fn engine_selection_single_sanitizer() {
        let kasan_only = crate::distill::distill(crate::distill::KASAN_HEADER).unwrap();
        let selection = EngineSelection::from_spec(&kasan_only);
        assert!(selection.kasan.is_some());
        assert!(selection.kcsan.is_none());
    }

    #[test]
    fn runtime_modes_arm_different_probes() {
        let merged = reference_merged().unwrap();
        let mut spec = platform_spec();
        let runtime = EmbsanRuntime::new(&merged, &spec, 1).unwrap();
        assert_eq!(runtime.mode(), AttachMode::CompileTime);
        assert!(runtime.hook_config().hypercalls);
        assert!(!runtime.hook_config().mem);

        spec.instrumented = "none".to_string();
        let runtime = EmbsanRuntime::new(&merged, &spec, 1).unwrap();
        assert_eq!(runtime.mode(), AttachMode::Dynamic);
        assert!(runtime.hook_config().mem);
        assert!(runtime.hook_config().calls);
    }

    #[test]
    fn init_program_drives_shadow_and_activation() {
        let merged = reference_merged().unwrap();
        let mut runtime = EmbsanRuntime::new(&merged, &platform_spec(), 1).unwrap();
        assert!(!runtime.is_active());
        let init = match embsan_dsl::parse(
            "init {
                poison 0x200000 .. 0x210000 heap_redzone;
                alloc 0x200040 size 64 site 0x10000;
                global 0x100100 size 40 redzone 32;
                ready;
            }",
        )
        .unwrap()
        .remove(0)
        {
            embsan_dsl::Item::Init(init) => init,
            _ => panic!(),
        };
        runtime.apply_init(&init);
        assert!(runtime.is_active());
        // The replayed boot alloc is addressable, its surroundings poisoned.
        assert!(runtime.shadow.check(0x20_0040, 4).is_ok());
        assert!(runtime.shadow.check(0x20_00C0, 4).is_err());
        // The registered global has redzones.
        assert!(runtime.shadow.check(0x10_0100, 4).is_ok());
        assert!(runtime.shadow.check(0x10_0100 + 44, 1).is_err());
    }

    #[test]
    fn bad_platform_specs_are_rejected() {
        let merged = reference_merged().unwrap();
        let mut spec = platform_spec();
        spec.arch = "sparc".to_string();
        assert!(matches!(EmbsanRuntime::new(&merged, &spec, 1), Err(RuntimeError::BadPlatform(_))));
        let mut spec = platform_spec();
        spec.hypercall_args = vec!["r99".to_string()];
        assert!(EmbsanRuntime::new(&merged, &spec, 1).is_err());
    }

    #[test]
    fn drifted_init_steps_degrade_instead_of_misbehaving() {
        let merged = reference_merged().unwrap();
        let mut runtime = EmbsanRuntime::new(&merged, &platform_spec(), 1).unwrap();
        // RAM is 0x100000..0x500000: poison past the end and replay a boot
        // alloc outside RAM entirely (a spec written for different firmware).
        let init = match embsan_dsl::parse(
            "init {
                poison 0x4FFFF0 .. 0x500080 invalid;
                alloc 0x900000 size 64 site 0x10000;
                ready;
            }",
        )
        .unwrap()
        .remove(0)
        {
            embsan_dsl::Item::Init(init) => init,
            _ => panic!(),
        };
        runtime.apply_init(&init);
        assert!(runtime.is_active());
        let health = runtime.health();
        assert_eq!(health.shadow_clips, 16, "0x80 bytes past the limit = 16 granules");
        assert_eq!(health.spec_drift, 1);
        assert!(!health.is_clean());
        // The in-range prefix of the clipped poison still applied.
        assert!(runtime.shadow.check(0x4F_FFF0, 4).is_err());
        assert!(runtime
            .degradations()
            .iter()
            .any(|d| matches!(d, Degradation::ShadowClipped { granules: 16, .. })));
        assert!(runtime
            .degradations()
            .iter()
            .any(|d| matches!(d, Degradation::SpecDrift { addr: 0x90_0000, .. })));
    }

    #[test]
    fn reports_dedup_on_class_pc_and_call_site() {
        let merged = reference_merged().unwrap();
        let mut runtime = EmbsanRuntime::new(&merged, &platform_spec(), 1).unwrap();
        let report = |class: BugClass, pc: u32| Report {
            class,
            addr: 0x20_0000,
            size: 4,
            is_write: false,
            pc,
            cpu: 0,
            chunk: None,
            other: None,
            site: 0,
        };
        runtime.record_with_signature(report(BugClass::Uaf, 0x1_0200), 7);
        runtime.record_with_signature(report(BugClass::Uaf, 0x1_0200), 7);
        runtime.record_with_signature(report(BugClass::Uaf, 0x1_0200), 8);
        runtime.record_with_signature(report(BugClass::HeapOob, 0x1_0200), 7);
        let keys: Vec<_> = runtime.reports().iter().map(Report::dedup_key).collect();
        assert_eq!(
            keys,
            [
                (BugClass::Uaf, 0x1_0200, 7),
                (BugClass::Uaf, 0x1_0200, 8),
                (BugClass::HeapOob, 0x1_0200, 7),
            ]
        );
    }
}
