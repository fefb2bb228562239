//! The full-system machine: vCPUs, bus, translation cache, and the
//! deterministic execution loop.

use std::collections::HashSet;

use crate::bus::{Bus, MemAccess, MemKind};
use crate::cpu::{Cpu, CpuView, Csr};
use crate::error::{EmuError, Fault};
use crate::fault::{ArmedPlan, FaultKind, FaultPlan, HangClass, InjectionStats};
use crate::hook::{ExecHook, HookAction, HookConfig};
use crate::isa::Insn;
use crate::profile::ArchProfile;
use crate::translate::{call_kind, Block, BlockCache, BlockId, CallKind, TranslatedOp};

/// Why a [`Machine::run`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// A `halt` instruction or a power-controller write stopped the machine.
    Halted {
        /// Guest-provided exit code.
        code: u16,
    },
    /// A vCPU faulted (after [`ExecHook::fault`] was delivered).
    Faulted {
        /// The fault.
        fault: Fault,
        /// Index of the faulting vCPU.
        cpu: usize,
        /// Program counter of the faulting instruction.
        pc: u32,
    },
    /// The instruction budget was exhausted.
    BudgetExhausted,
    /// A hook returned [`HookAction::Stop`].
    Stopped,
    /// Every vCPU is parked in `wfi` with no interrupt source able to wake it.
    AllIdle,
    /// A vCPU parked in `wfi` with the mailbox program answered (see
    /// [`crate::device::Mailbox::answered`]) while another vCPU was still
    /// runnable. On a uniprocessor, or once every vCPU is parked,
    /// [`RunExit::AllIdle`] reports the same point instead.
    ProgramDone,
    /// Execution reached a host breakpoint (the instruction at `pc` has not
    /// executed yet).
    Breakpoint {
        /// The breakpoint address.
        pc: u32,
        /// Index of the vCPU that hit it.
        cpu: usize,
    },
}

/// Builder for [`Machine`].
#[derive(Debug)]
pub struct MachineBuilder {
    profile: ArchProfile,
    rom: Option<(u32, Vec<u8>)>,
    ram: Option<(u32, u32)>,
    cpus: usize,
    quantum: u64,
    entry: Option<u32>,
    rng_seed: u64,
}

impl MachineBuilder {
    /// Starts a builder for the given architecture profile.
    pub fn new(profile: ArchProfile) -> MachineBuilder {
        MachineBuilder {
            profile,
            rom: None,
            ram: None,
            cpus: 1,
            quantum: 1000,
            entry: None,
            rng_seed: 0x5EED,
        }
    }

    /// Installs the boot ROM image at `base`.
    pub fn rom(mut self, base: u32, image: &[u8]) -> MachineBuilder {
        self.rom = Some((base, image.to_vec()));
        self
    }

    /// Installs `size` bytes of zeroed RAM at `base`.
    pub fn ram(mut self, base: u32, size: u32) -> MachineBuilder {
        self.ram = Some((base, size));
        self
    }

    /// Sets the number of vCPUs (default 1).
    pub fn cpus(mut self, count: usize) -> MachineBuilder {
        self.cpus = count;
        self
    }

    /// Sets the round-robin scheduling quantum in instructions (default 1000).
    pub fn quantum(mut self, instructions: u64) -> MachineBuilder {
        self.quantum = instructions;
        self
    }

    /// Sets the boot entry point (default: the ROM base).
    pub fn entry(mut self, pc: u32) -> MachineBuilder {
        self.entry = Some(pc);
        self
    }

    /// Seeds the RNG device (default: a fixed seed; runs are deterministic).
    pub fn rng_seed(mut self, seed: u64) -> MachineBuilder {
        self.rng_seed = seed;
        self
    }

    /// Builds the machine.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::InvalidConfig`] if ROM or RAM is missing, regions
    /// overlap each other / the MMIO window / the null guard page, or the
    /// vCPU count or quantum is zero.
    pub fn build(self) -> Result<Machine, EmuError> {
        let (rom_base, rom) =
            self.rom.ok_or_else(|| EmuError::InvalidConfig("no ROM image".into()))?;
        let (ram_base, ram_size) =
            self.ram.ok_or_else(|| EmuError::InvalidConfig("no RAM region".into()))?;
        if self.cpus == 0 {
            return Err(EmuError::InvalidConfig("machine needs at least one vCPU".into()));
        }
        if self.quantum == 0 {
            return Err(EmuError::InvalidConfig("scheduling quantum must be non-zero".into()));
        }
        let regions = [
            ("rom", u64::from(rom_base), rom.len() as u64),
            ("ram", u64::from(ram_base), u64::from(ram_size)),
            ("mmio", u64::from(self.profile.mmio_base), u64::from(self.profile.mmio_size)),
            ("null-guard", 0, u64::from(crate::bus::NULL_GUARD_END)),
        ];
        for (i, a) in regions.iter().enumerate() {
            for b in regions.iter().skip(i + 1) {
                if a.1 < b.1 + b.2 && b.1 < a.1 + a.2 && a.2 > 0 && b.2 > 0 {
                    return Err(EmuError::InvalidConfig(format!(
                        "{} region overlaps {} region",
                        a.0, b.0
                    )));
                }
            }
        }
        let entry = self.entry.unwrap_or(rom_base);
        let bus = Bus::new(&self.profile, rom_base, rom, ram_base, ram_size, self.rng_seed);
        let cpus = (0..self.cpus).map(|i| Cpu::new(i, self.cpus, entry)).collect();
        Ok(Machine {
            profile: self.profile,
            bus,
            cpus,
            cache: BlockCache::new(),
            quantum: self.quantum,
            global_retired: 0,
            lifetime_retired: 0,
            next_cpu: 0,
            breakpoints: HashSet::new(),
            skip_bp_once: None,
            fault_plan: None,
            injection_stats: InjectionStats::default(),
            tracer: embsan_obs::Tracer::disabled(),
        })
    }
}

/// A full-system EV32 machine.
pub struct Machine {
    profile: ArchProfile,
    bus: Bus,
    cpus: Vec<Cpu>,
    cache: BlockCache,
    quantum: u64,
    global_retired: u64,
    /// Monotonic instruction clock: like `global_retired` but never rewound
    /// by snapshot restore. Fault plans trigger against this clock so that
    /// restoring the per-program snapshot cannot replay already-injected
    /// faults.
    lifetime_retired: u64,
    next_cpu: usize,
    breakpoints: HashSet<u32>,
    skip_bp_once: Option<(usize, u32)>,
    fault_plan: Option<ArmedPlan>,
    injection_stats: InjectionStats,
    tracer: embsan_obs::Tracer,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("arch", &self.profile.arch)
            .field("cpus", &self.cpus.len())
            .field("retired", &self.global_retired)
            .finish_non_exhaustive()
    }
}

/// Outcome of one scheduling quantum on one vCPU.
enum QuantumExit {
    Continue,
    Parked,
    Stalled,
    Halt(u16),
    Fault(Fault, u32),
    Stopped,
    Breakpoint(u32),
}

impl Machine {
    /// Starts building a machine for `profile`.
    pub fn builder(profile: ArchProfile) -> MachineBuilder {
        MachineBuilder::new(profile)
    }

    /// The machine's architecture profile.
    pub fn profile(&self) -> &ArchProfile {
        &self.profile
    }

    /// Shared access to the bus (devices, memory ranges).
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// Mutable access to the bus (e.g. to drive the mailbox or read the UART).
    pub fn bus_mut(&mut self) -> &mut Bus {
        &mut self.bus
    }

    /// The vCPU at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn cpu(&self, index: usize) -> &Cpu {
        &self.cpus[index]
    }

    /// Mutable access to the vCPU at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn cpu_mut(&mut self, index: usize) -> &mut Cpu {
        &mut self.cpus[index]
    }

    /// Number of vCPUs.
    pub fn cpu_count(&self) -> usize {
        self.cpus.len()
    }

    /// Total instructions retired across all vCPUs.
    pub fn retired(&self) -> u64 {
        self.global_retired
    }

    pub(crate) fn set_retired(&mut self, value: u64) {
        self.global_retired = value;
    }

    /// The vCPU the round-robin scheduler tries first in the next quantum.
    pub(crate) fn next_cpu(&self) -> usize {
        self.next_cpu
    }

    pub(crate) fn set_next_cpu(&mut self, idx: usize) {
        self.next_cpu = idx;
    }

    /// Monotonic lifetime instruction clock (never rewound by snapshot
    /// restore); the trigger timebase for fault plans.
    pub fn lifetime_retired(&self) -> u64 {
        self.lifetime_retired
    }

    /// Arms `plan` against the current lifetime clock: event offsets are
    /// relative to this call. Replaces any previously armed plan.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.fault_plan = Some(ArmedPlan::arm(plan, self.lifetime_retired));
    }

    /// Disarms any pending fault plan (already-injected faults persist).
    pub fn clear_fault_plan(&mut self) {
        self.fault_plan = None;
    }

    /// Number of fault firings still pending in the armed plan.
    pub fn pending_faults(&self) -> usize {
        self.fault_plan.as_ref().map_or(0, ArmedPlan::pending)
    }

    /// Counters for faults injected so far.
    pub fn injection_stats(&self) -> InjectionStats {
        self.injection_stats
    }

    /// Attaches an observability tracer. The handle is shared with the
    /// translation cache; the machine keeps the tracer's clock pinned to
    /// [`Machine::lifetime_retired`] at scheduling-quantum granularity, so
    /// event tags are a pure function of guest execution. Snapshot restore
    /// does not touch the tracer (like the lifetime clock itself).
    pub fn set_tracer(&mut self, tracer: embsan_obs::Tracer) {
        tracer.set_clock(self.lifetime_retired);
        self.cache.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// The attached tracer (disabled by default).
    pub fn tracer(&self) -> &embsan_obs::Tracer {
        &self.tracer
    }

    /// Injects every armed fault whose trigger time has passed.
    fn apply_due_faults(&mut self) {
        let Some(plan) = self.fault_plan.as_mut() else {
            return;
        };
        let due = plan.take_due(self.lifetime_retired);
        for kind in due {
            let label = match kind {
                FaultKind::RamBitFlip { .. } => "ram-bit-flip",
                FaultKind::MmioCorrupt { .. } => "mmio-corrupt",
                FaultKind::SpuriousIrq => "spurious-irq",
                FaultKind::AllocFail { .. } => "alloc-fail",
                FaultKind::StuckCpu { .. } => "stuck-cpu",
            };
            self.tracer.record(embsan_obs::EventKind::FaultInjected { fault: label });
            match kind {
                FaultKind::RamBitFlip { offset, bit } => {
                    let (base, size) = self.bus.ram_range();
                    if offset < size {
                        let addr = base.wrapping_add(offset);
                        // Byte accesses are always aligned; RAM reads and
                        // writes of an in-range byte cannot fault.
                        if let Ok(byte) = self.bus.read(addr, 1) {
                            let _ = self.bus.write(addr, 1, byte ^ (1 << bit));
                            self.injection_stats.ram_bit_flips += 1;
                        }
                    }
                }
                FaultKind::MmioCorrupt { xor, reads } => {
                    self.bus.arm_mmio_corruption(xor, reads);
                    self.injection_stats.mmio_corruptions += 1;
                }
                FaultKind::SpuriousIrq => {
                    for cpu in &mut self.cpus {
                        cpu.irq_pending = true;
                        cpu.parked = false;
                    }
                    self.injection_stats.spurious_irqs += 1;
                }
                FaultKind::AllocFail { count } => {
                    self.bus.devices.fault.arm_alloc_failures(count);
                    self.injection_stats.alloc_failures += 1;
                }
                FaultKind::StuckCpu { cpu } => {
                    if let Some(target) = self.cpus.get_mut(cpu) {
                        target.wedged = true;
                        target.parked = false;
                        self.injection_stats.cpu_wedges += 1;
                    }
                }
            }
        }
    }

    /// Classifies why a guest that exhausted its budget is not progressing,
    /// by running up to `slices` further windows of `slice_budget`
    /// instructions each (without waking parked vCPUs) and watching whether
    /// instructions still retire.
    ///
    /// The caller is expected to discard the machine state afterwards
    /// (typically via snapshot restore): classification executes guest code.
    ///
    /// # Errors
    ///
    /// Propagates [`Machine::run_resume`] errors (currently none).
    pub fn classify_hang<H: ExecHook + ?Sized>(
        &mut self,
        hook: &mut H,
        slices: u32,
        slice_budget: u64,
    ) -> Result<HangClass, EmuError> {
        for _ in 0..slices.max(1) {
            let before = self.global_retired;
            match self.run_resume(hook, slice_budget.max(1))? {
                RunExit::AllIdle => return Ok(HangClass::WfiIdle),
                RunExit::BudgetExhausted => {
                    if self.global_retired == before {
                        // Nothing retired in the whole window: effectively idle.
                        return Ok(HangClass::WfiIdle);
                    }
                }
                _ => return Ok(HangClass::Responsive),
            }
        }
        Ok(HangClass::LiveLock)
    }

    /// Installs a hook configuration, regenerating translation templates
    /// (flushing the block cache) if it differs from the current one.
    pub fn set_hook_config(&mut self, config: HookConfig) {
        self.cache.reconfigure(config);
    }

    /// The currently installed hook configuration.
    pub fn hook_config(&self) -> HookConfig {
        self.cache.config()
    }

    /// Flushes the translation cache (required after host-side code patching).
    pub fn flush_translation_cache(&mut self) {
        self.cache.flush();
    }

    /// Number of block translations performed so far.
    pub fn translation_count(&self) -> u64 {
        self.cache.translation_count()
    }

    /// Translation-cache counters (hits, misses, generation telemetry).
    pub fn cache_stats(&self) -> crate::translate::CacheStats {
        self.cache.stats()
    }

    /// Adds a host breakpoint: [`Machine::run`] returns
    /// [`RunExit::Breakpoint`] just before executing the instruction at `pc`.
    pub fn add_breakpoint(&mut self, pc: u32) {
        self.breakpoints.insert(pc);
    }

    /// Removes a host breakpoint.
    pub fn remove_breakpoint(&mut self, pc: u32) {
        self.breakpoints.remove(&pc);
    }

    /// Removes every host breakpoint.
    pub fn clear_breakpoints(&mut self) {
        self.breakpoints.clear();
        self.skip_bp_once = None;
    }

    /// Host-side convenience read of guest memory.
    ///
    /// # Errors
    ///
    /// Propagates bus faults as [`EmuError::Fault`].
    pub fn read_mem(&mut self, addr: u32, size: u8) -> Result<u32, EmuError> {
        Ok(self.bus.read(addr, size)?)
    }

    /// Host-side convenience write of guest RAM.
    ///
    /// # Errors
    ///
    /// Propagates bus faults as [`EmuError::Fault`].
    pub fn write_mem(&mut self, addr: u32, size: u8, value: u32) -> Result<(), EmuError> {
        Ok(self.bus.write(addr, size, value)?)
    }

    /// Takes the console output accumulated since the last call.
    pub fn take_console(&mut self) -> Vec<u8> {
        self.bus.devices.uart.take_output()
    }

    /// Runs the machine for at most `budget` instructions, delivering events
    /// to `hook` according to the installed [`HookConfig`].
    ///
    /// Parked (`wfi`) vCPUs are woken on entry, so loading work into the
    /// mailbox and calling `run` again resumes an idle guest.
    ///
    /// # Errors
    ///
    /// This method currently never fails; the `Result` is kept for API
    /// stability. Guest faults are reported via [`RunExit::Faulted`].
    pub fn run<H: ExecHook + ?Sized>(
        &mut self,
        hook: &mut H,
        budget: u64,
    ) -> Result<RunExit, EmuError> {
        for cpu in &mut self.cpus {
            cpu.parked = false;
        }
        self.run_resume(hook, budget)
    }

    /// Like [`Machine::run`] but does not wake parked vCPUs; used to resume
    /// after a breakpoint or stop without disturbing idle CPUs.
    ///
    /// # Errors
    ///
    /// See [`Machine::run`].
    pub fn run_resume<H: ExecHook + ?Sized>(
        &mut self,
        hook: &mut H,
        budget: u64,
    ) -> Result<RunExit, EmuError> {
        let mut executed_total: u64 = 0;
        loop {
            if executed_total >= budget {
                return Ok(RunExit::BudgetExhausted);
            }
            // Pin the trace clock to the lifetime-retired counter once per
            // quantum: events within a quantum share its start tag and are
            // ordered by sequence number. Quantum boundaries are
            // deterministic, so traces are reproducible.
            self.tracer.set_clock(self.lifetime_retired);
            // Expire stalls whose window has passed.
            for idx in 0..self.cpus.len() {
                if let Some(until) = self.cpus[idx].stalled_until {
                    if until <= self.global_retired {
                        self.cpus[idx].stalled_until = None;
                        let token = self.cpus[idx].stall_token;
                        let mut view = CpuView { cpu: &mut self.cpus[idx], bus: &mut self.bus };
                        hook.stall_expired(&mut view, token);
                    }
                }
            }
            // `wfi` is a hint: while any vCPU is still runnable, parked
            // vCPUs receive spurious wakes (matching real hardware, where
            // WFI may return at any time). Parking is only binding when the
            // whole machine is idle.
            let any_runnable = self.cpus.iter().any(|c| !c.parked && c.stalled_until.is_none());
            if any_runnable {
                for cpu in &mut self.cpus {
                    if cpu.stalled_until.is_none() {
                        cpu.parked = false;
                    }
                }
            }
            // Pick the next runnable vCPU, round-robin.
            let ncpus = self.cpus.len();
            let runnable = (0..ncpus)
                .map(|off| (self.next_cpu + off) % ncpus)
                .find(|&i| !self.cpus[i].parked && self.cpus[i].stalled_until.is_none());
            let idx = match runnable {
                Some(idx) => idx,
                None => {
                    // Everyone is parked or stalled. If someone is stalled,
                    // fast-forward time to the earliest stall end.
                    if let Some(min_until) = self.cpus.iter().filter_map(|c| c.stalled_until).min()
                    {
                        let skipped = min_until.saturating_sub(self.global_retired);
                        self.global_retired = self.global_retired.max(min_until);
                        self.lifetime_retired += skipped;
                        self.apply_due_faults();
                        continue;
                    }
                    // All parked: only a device interrupt (timer, GPIO
                    // edge, alarm/deferred call) can wake them. Skip time
                    // ahead far enough for any armed source to fire.
                    let irq_live = self.bus.devices.irq_source_armed()
                        && self.bus.devices.tick(u64::MAX / 2)
                        && self.cpus.iter().any(|c| c.csr(Csr::Ie) != 0 && c.csr(Csr::Tvec) != 0);
                    self.drain_irq_events();
                    if irq_live {
                        for cpu in &mut self.cpus {
                            cpu.irq_pending = true;
                            cpu.parked = false;
                        }
                        continue;
                    }
                    return Ok(RunExit::AllIdle);
                }
            };
            self.next_cpu = (idx + 1) % ncpus;

            // Deliver a pending interrupt before running the quantum.
            let cpu = &mut self.cpus[idx];
            if cpu.irq_pending && cpu.csr(Csr::Ie) != 0 && cpu.csr(Csr::Tvec) != 0 {
                cpu.irq_pending = false;
                cpu.set_csr(Csr::Epc, cpu.pc);
                cpu.set_csr(Csr::Cause, Cpu::CAUSE_TIMER_IRQ);
                cpu.pc = cpu.csr(Csr::Tvec);
            }

            let quantum = self.quantum.min(budget - executed_total);
            let before = self.cpus[idx].retired;
            let exit = self.run_quantum(idx, hook, quantum);
            let ran = self.cpus[idx].retired - before;
            executed_total += ran;
            self.lifetime_retired += ran;
            self.apply_due_faults();

            // Advance platform time.
            if self.bus.devices.tick(ran) {
                for cpu in &mut self.cpus {
                    cpu.irq_pending = true;
                    cpu.parked = false;
                }
            }
            self.drain_irq_events();
            if let Some(code) = self.bus.devices.power.halt_request() {
                self.bus.devices.power.clear();
                return Ok(RunExit::Halted { code });
            }

            match exit {
                // A vCPU idled with every call answered while another is
                // still runnable: on SMP firmware whose secondary never
                // sleeps, `AllIdle` would never come.
                QuantumExit::Parked
                    if self.bus.devices.mailbox.answered()
                        && self.cpus.iter().enumerate().any(|(i, c)| i != idx && !c.parked) =>
                {
                    return Ok(RunExit::ProgramDone);
                }
                QuantumExit::Continue | QuantumExit::Parked | QuantumExit::Stalled => {}
                QuantumExit::Halt(code) => return Ok(RunExit::Halted { code }),
                QuantumExit::Fault(fault, pc) => {
                    return Ok(RunExit::Faulted { fault, cpu: idx, pc })
                }
                QuantumExit::Stopped => return Ok(RunExit::Stopped),
                QuantumExit::Breakpoint(pc) => {
                    self.skip_bp_once = Some((idx, pc));
                    return Ok(RunExit::Breakpoint { pc, cpu: idx });
                }
            }
        }
    }

    /// Executes up to `quantum` instructions on vCPU `idx`.
    fn run_quantum<H: ExecHook + ?Sized>(
        &mut self,
        idx: usize,
        hook: &mut H,
        quantum: u64,
    ) -> QuantumExit {
        if self.cpus[idx].wedged {
            // A stuck core keeps fetching and retiring the same instruction
            // without architectural progress: burn the quantum so the hang
            // is visible as budget exhaustion, never as idleness.
            self.cpus[idx].retired += quantum;
            self.global_retired += quantum;
            return QuantumExit::Continue;
        }
        let cfg = self.cache.config();
        // Monomorphize the dispatch loop on "anything armed?": the unarmed
        // instantiation folds every probe branch and the breakpoint scan out
        // of the hot loop entirely.
        if cfg == HookConfig::none() && self.breakpoints.is_empty() {
            self.run_quantum_spec::<false, H>(idx, hook, cfg, quantum)
        } else {
            self.run_quantum_spec::<true, H>(idx, hook, cfg, quantum)
        }
    }

    /// The dispatch loop, monomorphized over `ARMED` (any probes or
    /// breakpoints live) and over the hook type, so probes reach the hook
    /// by static dispatch. `ARMED == false` implies `cfg` is
    /// [`HookConfig::none`] and no breakpoints are set.
    ///
    /// The machine's borrows are split once per quantum into a
    /// [`Quantum`], whose retire counters are exact only where something
    /// can observe them (see [`Quantum::sync`]).
    fn run_quantum_spec<const ARMED: bool, H: ExecHook + ?Sized>(
        &mut self,
        idx: usize,
        hook: &mut H,
        cfg: HookConfig,
        quantum: u64,
    ) -> QuantumExit {
        let Machine { cpus, bus, cache, tracer, breakpoints, skip_bp_once, global_retired, .. } =
            self;
        let cpu = &mut cpus[idx];
        let mut q = Quantum {
            idx,
            cpu_base: cpu.retired,
            global_base: *global_retired,
            executed: 0,
            cpu,
            bus,
            tracer,
            global_retired,
        };
        // Host breakpoints cannot change while a quantum runs.
        let breakpoints_live = ARMED && !breakpoints.is_empty();
        // Dispatches served through superblock seams, folded into the cache
        // counters when the quantum ends.
        let mut seam_dispatches = 0;
        let exit = 'quantum: {
            // The block run by the previous dispatch in this quantum: its
            // chain slots resolve repeat control transfers without a cache
            // lookup. The first dispatch of a quantum always goes through
            // the cache, so chains never outlive a reconfiguration (each
            // quantum re-enters through the active generation).
            let mut prev: Option<BlockId> = None;
            while q.executed < quantum {
                let pc = q.cpu.pc;
                let id = match cache.enter(&*q.bus, prev, pc) {
                    Ok(id) => id,
                    Err(fault) => {
                        hook.fault(&mut q.view(), fault);
                        break 'quantum QuantumExit::Fault(fault, pc);
                    }
                };
                let block = cache.block(id);
                if ARMED && cfg.blocks {
                    q.block_enter(hook, pc);
                }
                let mut i = 0;
                while i < block.ops.len() {
                    let op = &block.ops[i];
                    // Host breakpoints (checked only when any are set).
                    if breakpoints_live && breakpoints.contains(&op.pc) {
                        if *skip_bp_once == Some((idx, op.pc)) {
                            *skip_bp_once = None;
                        } else {
                            q.cpu.pc = op.pc;
                            break 'quantum QuantumExit::Breakpoint(op.pc);
                        }
                    }
                    let step = exec_op::<ARMED, H>(&mut q, hook, cfg, op);
                    q.executed += 1;
                    match step {
                        Step::Next => q.cpu.pc = op.pc.wrapping_add(4),
                        Step::Jump(target) => {
                            q.cpu.pc = target;
                            if has_seam(block, i + 1, target) {
                                // The merged continuation starts at the next
                                // op. Replicate the unmerged flow exactly:
                                // quantum expiry first (pc already points at
                                // the seam), then the block-entry probe, then
                                // fall through into the continuation's ops.
                                if q.executed >= quantum {
                                    break 'quantum QuantumExit::Continue;
                                }
                                seam_dispatches += 1;
                                if ARMED && cfg.blocks {
                                    q.block_enter(hook, target);
                                }
                                i += 1;
                                continue;
                            }
                            break; // control flow leaves the block
                        }
                        Step::Halt(code) => break 'quantum QuantumExit::Halt(code),
                        Step::Park => {
                            q.cpu.pc = op.pc.wrapping_add(4);
                            q.cpu.parked = true;
                            break 'quantum QuantumExit::Parked;
                        }
                        Step::Stall { instrs, token } => {
                            q.cpu.pc = op.pc.wrapping_add(4);
                            q.cpu.stalled_until = Some(q.global_base + q.executed + instrs);
                            q.cpu.stall_token = token;
                            break 'quantum QuantumExit::Stalled;
                        }
                        Step::Stopped => {
                            q.cpu.pc = op.pc; // re-execute on resume
                            break 'quantum QuantumExit::Stopped;
                        }
                        Step::Fault(fault) => {
                            q.cpu.pc = op.pc;
                            hook.fault(&mut q.view(), fault);
                            break 'quantum QuantumExit::Fault(fault, op.pc);
                        }
                    }
                    if q.executed >= quantum {
                        // Quantum expired mid-block; pc already advanced.
                        break 'quantum QuantumExit::Continue;
                    }
                    i += 1;
                }
                prev = Some(id);
            }
            QuantumExit::Continue
        };
        cache.note_seams(seam_dispatches);
        q.sync();
        exit
    }

    /// Drains the interrupt raise/ack/deferred events devices recorded and
    /// stamps them onto the trace at the current quantum clock. Called once
    /// per quantum (and on the all-parked skip-ahead) so delivery order is a
    /// pure function of guest execution.
    fn drain_irq_events(&mut self) {
        if !self.tracer.is_enabled() {
            // Still drain so the device queues never grow unbounded (and so
            // snapshot equality never depends on whether tracing was on).
            self.bus.devices.drain_irq_events();
            return;
        }
        for event in self.bus.devices.drain_irq_events() {
            let kind = match event {
                crate::device::IrqEvent::Raised { source, lines } => {
                    embsan_obs::EventKind::IrqRaised { source, lines }
                }
                crate::device::IrqEvent::Acked { source, lines } => {
                    embsan_obs::EventKind::IrqAcked { source, lines }
                }
                crate::device::IrqEvent::DeferredScheduled { delay } => {
                    embsan_obs::EventKind::DeferredCall { delay }
                }
            };
            self.tracer.record(kind);
        }
    }
}

/// What one scheduling quantum runs on: the borrows of the machine split
/// once per quantum, and the quantum's retire accounting.
///
/// Instructions retired in the quantum are counted in `executed` only;
/// `cpu.retired` and the machine's counter stay at their quantum-entry
/// values until [`Quantum::sync`] writes them back. That happens exactly
/// where they can be observed: before every hook call (through
/// [`Quantum::view`]), before a guest read of [`Csr::Cycle`], and when the
/// quantum exits.
struct Quantum<'m> {
    idx: usize,
    /// `cpu.retired` and the machine's retire counter at quantum entry.
    cpu_base: u64,
    global_base: u64,
    /// Instructions retired in this quantum so far.
    executed: u64,
    cpu: &'m mut Cpu,
    bus: &'m mut Bus,
    tracer: &'m embsan_obs::Tracer,
    global_retired: &'m mut u64,
}

impl Quantum<'_> {
    /// Makes `cpu.retired` and the machine's retire counter exact.
    #[inline(always)]
    fn sync(&mut self) {
        self.cpu.retired = self.cpu_base + self.executed;
        *self.global_retired = self.global_base + self.executed;
    }

    /// The hook-facing view of the vCPU, its retire counter made exact.
    #[inline(always)]
    fn view(&mut self) -> CpuView<'_> {
        self.sync();
        CpuView { cpu: &mut *self.cpu, bus: &mut *self.bus }
    }

    #[inline(always)]
    fn probe_fire(&self, probe: embsan_obs::ProbeKind, pc: u32) {
        self.tracer.record(embsan_obs::EventKind::ProbeFire { probe, pc });
    }

    #[inline(always)]
    fn block_enter<H: ExecHook + ?Sized>(&mut self, hook: &mut H, pc: u32) {
        self.probe_fire(embsan_obs::ProbeKind::Block, pc);
        hook.block_enter(&mut self.view(), pc);
    }
}

/// Executes one translated op on the quantum's vCPU. Monomorphized over
/// `ARMED` like [`Machine::run_quantum_spec`]: the unarmed instantiation
/// compiles every probe branch out.
#[inline(always)]
fn exec_op<const ARMED: bool, H: ExecHook + ?Sized>(
    q: &mut Quantum<'_>,
    hook: &mut H,
    cfg: HookConfig,
    op: &TranslatedOp,
) -> Step {
    let TranslatedOp { insn, pc, probe_mem, probe_call } = *op;

    macro_rules! r {
        ($reg:expr) => {
            q.cpu.regs.read($reg)
        };
    }
    macro_rules! alu {
        ($rd:expr, $val:expr) => {{
            let value = $val;
            q.cpu.regs.write($rd, value);
            Step::Next
        }};
    }

    match insn {
        Insn::Add { rd, rs1, rs2 } => alu!(rd, r!(rs1).wrapping_add(r!(rs2))),
        Insn::Sub { rd, rs1, rs2 } => alu!(rd, r!(rs1).wrapping_sub(r!(rs2))),
        Insn::And { rd, rs1, rs2 } => alu!(rd, r!(rs1) & r!(rs2)),
        Insn::Or { rd, rs1, rs2 } => alu!(rd, r!(rs1) | r!(rs2)),
        Insn::Xor { rd, rs1, rs2 } => alu!(rd, r!(rs1) ^ r!(rs2)),
        Insn::Sll { rd, rs1, rs2 } => alu!(rd, r!(rs1) << (r!(rs2) & 31)),
        Insn::Srl { rd, rs1, rs2 } => alu!(rd, r!(rs1) >> (r!(rs2) & 31)),
        Insn::Sra { rd, rs1, rs2 } => alu!(rd, ((r!(rs1) as i32) >> (r!(rs2) & 31)) as u32),
        Insn::Mul { rd, rs1, rs2 } => alu!(rd, r!(rs1).wrapping_mul(r!(rs2))),
        Insn::Mulh { rd, rs1, rs2 } => {
            alu!(rd, ((u64::from(r!(rs1)) * u64::from(r!(rs2))) >> 32) as u32)
        }
        Insn::Divu { rd, rs1, rs2 } => alu!(rd, r!(rs1).checked_div(r!(rs2)).unwrap_or(u32::MAX)),
        Insn::Remu { rd, rs1, rs2 } => {
            let d = r!(rs2);
            alu!(rd, if d == 0 { r!(rs1) } else { r!(rs1) % d })
        }
        Insn::Slt { rd, rs1, rs2 } => alu!(rd, u32::from((r!(rs1) as i32) < (r!(rs2) as i32))),
        Insn::Sltu { rd, rs1, rs2 } => alu!(rd, u32::from(r!(rs1) < r!(rs2))),

        Insn::Addi { rd, rs1, imm } => alu!(rd, r!(rs1).wrapping_add(imm as u32)),
        // Logical immediates are zero-extended (see the codec docs).
        Insn::Andi { rd, rs1, imm } => alu!(rd, r!(rs1) & (imm as u32 & 0xFFF)),
        Insn::Ori { rd, rs1, imm } => alu!(rd, r!(rs1) | (imm as u32 & 0xFFF)),
        Insn::Xori { rd, rs1, imm } => alu!(rd, r!(rs1) ^ (imm as u32 & 0xFFF)),
        Insn::Slli { rd, rs1, shamt } => alu!(rd, r!(rs1) << shamt),
        Insn::Srli { rd, rs1, shamt } => alu!(rd, r!(rs1) >> shamt),
        Insn::Srai { rd, rs1, shamt } => alu!(rd, ((r!(rs1) as i32) >> shamt) as u32),
        Insn::Slti { rd, rs1, imm } => alu!(rd, u32::from((r!(rs1) as i32) < imm)),
        Insn::Sltiu { rd, rs1, imm } => alu!(rd, u32::from(r!(rs1) < imm as u32)),
        Insn::Lui { rd, imm } => alu!(rd, imm),
        Insn::Auipc { rd, imm } => alu!(rd, pc.wrapping_add(imm)),

        Insn::Lb { rd, rs1, imm }
        | Insn::Lbu { rd, rs1, imm }
        | Insn::Lh { rd, rs1, imm }
        | Insn::Lhu { rd, rs1, imm }
        | Insn::Lw { rd, rs1, imm } => {
            let addr = r!(rs1).wrapping_add(imm as u32);
            let (size, sign) = match insn {
                Insn::Lb { .. } => (1u8, true),
                Insn::Lbu { .. } => (1, false),
                Insn::Lh { .. } => (2, true),
                Insn::Lhu { .. } => (2, false),
                _ => (4, false),
            };
            if ARMED && probe_mem {
                q.probe_fire(embsan_obs::ProbeKind::Mem, pc);
                let access =
                    MemAccess { addr, size, kind: MemKind::Read, value: 0, pc, cpu: q.idx };
                match hook.mem_access(&mut q.view(), &access) {
                    HookAction::Continue => {}
                    HookAction::Stop => return Step::Stopped,
                    HookAction::Stall { instrs, token } => {
                        // Perform the access, then open the stall window.
                        return match load_value(q.bus, addr, size, sign, pc) {
                            Ok(value) => {
                                q.cpu.regs.write(rd, value);
                                Step::Stall { instrs, token }
                            }
                            Err(fault) => Step::Fault(fault),
                        };
                    }
                }
            }
            match load_value(q.bus, addr, size, sign, pc) {
                Ok(value) => alu!(rd, value),
                Err(fault) => Step::Fault(fault),
            }
        }

        Insn::Sb { rs2, rs1, imm } | Insn::Sh { rs2, rs1, imm } | Insn::Sw { rs2, rs1, imm } => {
            let addr = r!(rs1).wrapping_add(imm as u32);
            let size = match insn {
                Insn::Sb { .. } => 1u8,
                Insn::Sh { .. } => 2,
                _ => 4,
            };
            let value = r!(rs2)
                & match size {
                    1 => 0xFF,
                    2 => 0xFFFF,
                    _ => u32::MAX,
                };
            let mut stall: Option<(u64, u64)> = None;
            if ARMED && probe_mem {
                q.probe_fire(embsan_obs::ProbeKind::Mem, pc);
                let access = MemAccess { addr, size, kind: MemKind::Write, value, pc, cpu: q.idx };
                match hook.mem_access(&mut q.view(), &access) {
                    HookAction::Continue => {}
                    HookAction::Stop => return Step::Stopped,
                    HookAction::Stall { instrs, token } => stall = Some((instrs, token)),
                }
            }
            match q.bus.write_at(addr, size, value, pc) {
                Ok(()) => match stall {
                    Some((instrs, token)) => Step::Stall { instrs, token },
                    None => Step::Next,
                },
                Err(fault) => Step::Fault(fault),
            }
        }

        Insn::AmoAddW { rd, rs1, rs2 } | Insn::AmoSwpW { rd, rs1, rs2 } => {
            let addr = r!(rs1);
            let operand = r!(rs2);
            if ARMED && probe_mem {
                q.probe_fire(embsan_obs::ProbeKind::Mem, pc);
                let access = MemAccess {
                    addr,
                    size: 4,
                    kind: MemKind::AtomicRmw,
                    value: operand,
                    pc,
                    cpu: q.idx,
                };
                match hook.mem_access(&mut q.view(), &access) {
                    HookAction::Continue => {}
                    HookAction::Stop => return Step::Stopped,
                    // Atomic ops never stall: a stall window inside a
                    // lock operation would deadlock the guest.
                    HookAction::Stall { .. } => {}
                }
            }
            let old = match q.bus.read_at(addr, 4, pc) {
                Ok(value) => value,
                Err(fault) => return Step::Fault(fault),
            };
            let new = match insn {
                Insn::AmoAddW { .. } => old.wrapping_add(operand),
                _ => operand,
            };
            if let Err(fault) = q.bus.write_at(addr, 4, new, pc) {
                return Step::Fault(fault);
            }
            alu!(rd, old)
        }

        Insn::Beq { rs1, rs2, offset } => branch(pc, offset, r!(rs1) == r!(rs2)),
        Insn::Bne { rs1, rs2, offset } => branch(pc, offset, r!(rs1) != r!(rs2)),
        Insn::Blt { rs1, rs2, offset } => branch(pc, offset, (r!(rs1) as i32) < (r!(rs2) as i32)),
        Insn::Bltu { rs1, rs2, offset } => branch(pc, offset, r!(rs1) < r!(rs2)),
        Insn::Bge { rs1, rs2, offset } => branch(pc, offset, (r!(rs1) as i32) >= (r!(rs2) as i32)),
        Insn::Bgeu { rs1, rs2, offset } => branch(pc, offset, r!(rs1) >= r!(rs2)),

        Insn::Jal { rd, offset } => {
            let target = pc.wrapping_add(offset as u32);
            let ret_to = pc.wrapping_add(4);
            q.cpu.regs.write(rd, ret_to);
            if ARMED && probe_call && cfg.calls {
                q.probe_fire(embsan_obs::ProbeKind::Call, pc);
                hook.call(&mut q.view(), target, ret_to);
            }
            Step::Jump(target)
        }
        Insn::Jalr { rd, rs1, imm } => {
            let target = r!(rs1).wrapping_add(imm as u32) & !3;
            let ret_to = pc.wrapping_add(4);
            q.cpu.regs.write(rd, ret_to);
            if ARMED && probe_call && cfg.calls {
                match call_kind(&insn) {
                    CallKind::Call => {
                        q.probe_fire(embsan_obs::ProbeKind::Call, pc);
                        hook.call(&mut q.view(), target, ret_to);
                    }
                    CallKind::Ret => {
                        q.probe_fire(embsan_obs::ProbeKind::Ret, pc);
                        hook.ret(&mut q.view(), target);
                    }
                    CallKind::Neither => {}
                }
            }
            Step::Jump(target)
        }

        Insn::Ecall { code } => {
            let tvec = q.cpu.csr(Csr::Tvec);
            if tvec == 0 {
                return Step::Fault(Fault::NoTrapVector { pc });
            }
            q.cpu.set_csr(Csr::Epc, pc.wrapping_add(4));
            q.cpu.set_csr(Csr::Cause, u32::from(code));
            Step::Jump(tvec)
        }
        Insn::Eret => Step::Jump(q.cpu.csr(Csr::Epc)),

        Insn::Hyper { nr } => {
            if ARMED && cfg.hypercalls {
                q.probe_fire(embsan_obs::ProbeKind::Hypercall, pc);
                match hook.hypercall(&mut q.view(), nr) {
                    HookAction::Continue => Step::Next,
                    HookAction::Stop => Step::Stopped,
                    HookAction::Stall { instrs, token } => Step::Stall { instrs, token },
                }
            } else {
                Step::Next
            }
        }

        Insn::Csrr { rd, idx: csr } => {
            // The cycle CSR reads the vCPU's retire counter.
            if csr == Csr::Cycle as u16 {
                q.sync();
            }
            alu!(rd, q.cpu.csr_read(csr))
        }
        Insn::Csrw { rs1, idx: csr } => {
            let value = r!(rs1);
            q.cpu.csr_write(csr, value);
            Step::Next
        }

        Insn::Halt { code } => Step::Halt(code),
        Insn::Wfi => Step::Park,
        Insn::Nop | Insn::Fence => Step::Next,
        Insn::Brk => Step::Fault(Fault::Breakpoint { pc }),
    }
}

/// Whether `block` has a superblock seam at op `index` continuing at `pc`.
#[inline]
fn has_seam(block: &Block, index: usize, pc: u32) -> bool {
    block.seams.iter().any(|&(i, p)| i == index && p == pc)
}

fn load_value(bus: &mut Bus, addr: u32, size: u8, sign: bool, pc: u32) -> Result<u32, Fault> {
    let raw = bus.read_at(addr, size, pc)?;
    Ok(if sign {
        match size {
            1 => raw as u8 as i8 as i32 as u32,
            2 => raw as u16 as i16 as i32 as u32,
            _ => raw,
        }
    } else {
        raw
    })
}

fn branch(pc: u32, offset: i32, taken: bool) -> Step {
    if taken {
        Step::Jump(pc.wrapping_add(offset as u32))
    } else {
        Step::Next
    }
}

enum Step {
    Next,
    Jump(u32),
    Halt(u16),
    Park,
    Stall { instrs: u64, token: u64 },
    Stopped,
    Fault(Fault),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::NullHook;
    use crate::isa::Reg;
    use crate::profile::ArchProfile;

    fn machine_with(insns: &[Insn]) -> Machine {
        machine_with_profile(ArchProfile::armv(), insns)
    }

    fn machine_with_profile(profile: ArchProfile, insns: &[Insn]) -> Machine {
        let mut text = Vec::new();
        for insn in insns {
            text.extend_from_slice(&insn.encode().to_bytes(profile.endian));
        }
        Machine::builder(profile)
            .rom(profile.rom_base, &text)
            .ram(profile.ram_base, 0x1_0000)
            .build()
            .unwrap()
    }

    #[test]
    fn arithmetic_program_runs() {
        let mut m = machine_with(&[
            Insn::Addi { rd: Reg::R1, rs1: Reg::R0, imm: 21 },
            Insn::Addi { rd: Reg::R2, rs1: Reg::R0, imm: 2 },
            Insn::Mul { rd: Reg::R3, rs1: Reg::R1, rs2: Reg::R2 },
            Insn::Halt { code: 9 },
        ]);
        let exit = m.run(&mut NullHook, 100).unwrap();
        assert_eq!(exit, RunExit::Halted { code: 9 });
        assert_eq!(m.cpu(0).regs.read(Reg::R3), 42);
        assert_eq!(m.retired(), 4);
    }

    #[test]
    fn runs_on_all_profiles() {
        for arch in crate::profile::Arch::ALL {
            let profile = ArchProfile::for_arch(arch);
            let ram = profile.ram_base;
            let mut m = machine_with_profile(
                profile,
                &[
                    Insn::Lui { rd: Reg::R1, imm: ram & 0xFFFF_F000 },
                    Insn::Ori { rd: Reg::R1, rs1: Reg::R1, imm: (ram & 0xFFF) as i32 },
                    Insn::Addi { rd: Reg::R2, rs1: Reg::R0, imm: 0x5A },
                    Insn::Sw { rs2: Reg::R2, rs1: Reg::R1, imm: 8 },
                    Insn::Lw { rd: Reg::R3, rs1: Reg::R1, imm: 8 },
                    Insn::Halt { code: 0 },
                ],
            );
            let exit = m.run(&mut NullHook, 100).unwrap();
            assert_eq!(exit, RunExit::Halted { code: 0 }, "arch {arch:?}");
            assert_eq!(m.cpu(0).regs.read(Reg::R3), 0x5A, "arch {arch:?}");
        }
    }

    /// `r0` reads zero after a write through every rd-writing instruction
    /// class and through [`CpuView::set_reg`], in the unarmed and the armed
    /// dispatch loop. Each write is followed by `or r5, r5, r0`, so a
    /// nonzero `r0` at any point shows in `r5`.
    #[test]
    fn r0_stays_zero_through_every_writer() {
        struct SetR0(u32);
        impl ExecHook for SetR0 {
            fn hypercall(&mut self, cpu: &mut CpuView<'_>, _nr: u32) -> HookAction {
                self.0 += 1;
                cpu.set_reg(Reg::R0, 0xDEAD);
                HookAction::Continue
            }
        }
        let ram = ArchProfile::armv().ram_base;
        let (r0, r1, r2, r3) = (Reg::R0, Reg::R1, Reg::R2, Reg::R3);
        let writers = [
            Insn::Add { rd: r0, rs1: r2, rs2: r2 },
            Insn::Mul { rd: r0, rs1: r2, rs2: r2 },
            Insn::Sltu { rd: r0, rs1: r0, rs2: r2 },
            Insn::Addi { rd: r0, rs1: r2, imm: 1 },
            Insn::Ori { rd: r0, rs1: r2, imm: 0xF0 },
            Insn::Srai { rd: r0, rs1: r1, shamt: 4 },
            Insn::Lui { rd: r0, imm: 0x1000 },
            Insn::Auipc { rd: r0, imm: 0x1000 },
            Insn::Lw { rd: r0, rs1: r1, imm: 0 },
            Insn::Lb { rd: r0, rs1: r1, imm: 0 },
            Insn::AmoAddW { rd: r0, rs1: r1, rs2: r2 },
            Insn::AmoSwpW { rd: r0, rs1: r1, rs2: r2 },
            Insn::Csrr { rd: r0, idx: Csr::Cpuid as u16 },
            Insn::Csrr { rd: r0, idx: Csr::Cycle as u16 },
            // Falls through to the next instruction, linking into r0.
            Insn::Jal { rd: r0, offset: 4 },
            Insn::Hyper { nr: 1 },
        ];
        let or_r0 = Insn::Or { rd: Reg::R5, rs1: Reg::R5, rs2: r0 };
        let mut program = vec![
            Insn::Lui { rd: r1, imm: ram },
            Insn::Addi { rd: r2, rs1: r0, imm: 0x55 },
            Insn::Sw { rs2: r2, rs1: r1, imm: 0 },
        ];
        for writer in writers {
            program.extend([writer, or_r0]);
        }
        // `jalr r0` to the instruction after it, linking into r0.
        program.extend([
            Insn::Auipc { rd: r3, imm: 0 },
            Insn::Jalr { rd: r0, rs1: r3, imm: 8 },
            or_r0,
            Insn::Halt { code: 0 },
        ]);
        for armed in [false, true] {
            let mut m = machine_with(&program);
            let mut hook = SetR0(0);
            if armed {
                m.set_hook_config(HookConfig::all());
            }
            assert_eq!(m.run(&mut hook, 1000).unwrap(), RunExit::Halted { code: 0 });
            assert_eq!(hook.0, u32::from(armed), "armed {armed}");
            assert_eq!(m.cpu(0).regs.read(Reg::R5), 0, "armed {armed}");
            assert_eq!(m.cpu(0).regs.read(r0), 0, "armed {armed}");
            // The writes ran: the two atomics added 0x55 to the word, then
            // swapped 0x55 in.
            assert_eq!(m.read_mem(ram, 4).unwrap(), 0x55, "armed {armed}");
        }
    }

    #[test]
    fn budget_exhaustion() {
        // Infinite loop.
        let mut m = machine_with(&[Insn::Jal { rd: Reg::R0, offset: 0 }]);
        let exit = m.run(&mut NullHook, 500).unwrap();
        assert_eq!(exit, RunExit::BudgetExhausted);
        assert_eq!(m.retired(), 500);
    }

    #[test]
    fn fault_reports_pc() {
        let mut m = machine_with(&[
            Insn::Addi { rd: Reg::R1, rs1: Reg::R0, imm: 16 },
            Insn::Lw { rd: Reg::R2, rs1: Reg::R1, imm: 0 }, // null page
        ]);
        let exit = m.run(&mut NullHook, 100).unwrap();
        let rom = ArchProfile::armv().rom_base;
        assert_eq!(
            exit,
            RunExit::Faulted {
                fault: Fault::NullPage { addr: 16, is_write: false },
                cpu: 0,
                pc: rom + 4,
            }
        );
    }

    #[test]
    fn wfi_all_idle() {
        let mut m = machine_with(&[Insn::Wfi]);
        let exit = m.run(&mut NullHook, 100).unwrap();
        assert_eq!(exit, RunExit::AllIdle);
        // Running again wakes the CPU (which re-executes from after wfi and
        // falls off into an illegal fetch region of the ROM — here the ROM is
        // 4 bytes, so it's a fetch fault).
        let exit = m.run(&mut NullHook, 100).unwrap();
        assert!(matches!(exit, RunExit::Faulted { .. }));
    }

    #[test]
    fn mem_probe_sees_accesses() {
        struct Recorder(Vec<MemAccess>);
        impl ExecHook for Recorder {
            fn mem_access(&mut self, _cpu: &mut CpuView<'_>, access: &MemAccess) -> HookAction {
                self.0.push(*access);
                HookAction::Continue
            }
        }
        let profile = ArchProfile::armv();
        let ram = profile.ram_base;
        let mut m = machine_with(&[
            Insn::Lui { rd: Reg::R1, imm: ram },
            Insn::Addi { rd: Reg::R2, rs1: Reg::R0, imm: 7 },
            Insn::Sw { rs2: Reg::R2, rs1: Reg::R1, imm: 4 },
            Insn::Lbu { rd: Reg::R3, rs1: Reg::R1, imm: 4 },
            Insn::Halt { code: 0 },
        ]);
        m.set_hook_config(HookConfig { mem: true, ..HookConfig::none() });
        let mut recorder = Recorder(Vec::new());
        m.run(&mut recorder, 100).unwrap();
        assert_eq!(recorder.0.len(), 2);
        assert_eq!(recorder.0[0].kind, MemKind::Write);
        assert_eq!(recorder.0[0].addr, ram + 4);
        assert_eq!(recorder.0[0].value, 7);
        assert_eq!(recorder.0[1].kind, MemKind::Read);
        assert_eq!(recorder.0[1].size, 1);
    }

    #[test]
    fn probes_not_delivered_without_config() {
        struct Panicker;
        impl ExecHook for Panicker {
            fn mem_access(&mut self, _cpu: &mut CpuView<'_>, _access: &MemAccess) -> HookAction {
                panic!("probe delivered without configuration");
            }
        }
        let profile = ArchProfile::armv();
        let mut m = machine_with(&[
            Insn::Lui { rd: Reg::R1, imm: profile.ram_base },
            Insn::Sw { rs2: Reg::R0, rs1: Reg::R1, imm: 0 },
            Insn::Halt { code: 0 },
        ]);
        m.run(&mut Panicker, 100).unwrap();
    }

    #[test]
    fn hook_stop_halts_machine() {
        struct Stopper;
        impl ExecHook for Stopper {
            fn mem_access(&mut self, _cpu: &mut CpuView<'_>, _access: &MemAccess) -> HookAction {
                HookAction::Stop
            }
        }
        let profile = ArchProfile::armv();
        let mut m = machine_with(&[
            Insn::Lui { rd: Reg::R1, imm: profile.ram_base },
            Insn::Sw { rs2: Reg::R0, rs1: Reg::R1, imm: 0 },
            Insn::Halt { code: 0 },
        ]);
        m.set_hook_config(HookConfig { mem: true, ..HookConfig::none() });
        let exit = m.run(&mut Stopper, 100).unwrap();
        assert_eq!(exit, RunExit::Stopped);
        // The store did not execute.
        assert_eq!(m.read_mem(profile.ram_base, 4).unwrap(), 0);
    }

    #[test]
    fn hypercall_round_trip() {
        struct Hyper(Vec<u32>);
        impl ExecHook for Hyper {
            fn hypercall(&mut self, cpu: &mut CpuView<'_>, nr: u32) -> HookAction {
                self.0.push(nr);
                cpu.set_reg(Reg::R1, 0x77);
                HookAction::Continue
            }
        }
        let mut m = machine_with(&[Insn::Hyper { nr: 1234 }, Insn::Halt { code: 0 }]);
        m.set_hook_config(HookConfig { hypercalls: true, ..HookConfig::none() });
        let mut hook = Hyper(Vec::new());
        m.run(&mut hook, 100).unwrap();
        assert_eq!(hook.0, vec![1234]);
        assert_eq!(m.cpu(0).regs.read(Reg::R1), 0x77);
    }

    #[test]
    fn hypercall_is_nop_without_hook_config() {
        let mut m = machine_with(&[Insn::Hyper { nr: 1 }, Insn::Halt { code: 5 }]);
        let exit = m.run(&mut NullHook, 100).unwrap();
        assert_eq!(exit, RunExit::Halted { code: 5 });
    }

    #[test]
    fn call_and_ret_probes() {
        #[derive(Default)]
        struct Tracker {
            calls: Vec<(u32, u32)>,
            rets: Vec<u32>,
        }
        impl ExecHook for Tracker {
            fn call(&mut self, _cpu: &mut CpuView<'_>, target: u32, ret_to: u32) {
                self.calls.push((target, ret_to));
            }
            fn ret(&mut self, _cpu: &mut CpuView<'_>, target: u32) {
                self.rets.push(target);
            }
        }
        let rom = ArchProfile::armv().rom_base;
        // 0: jal lr, +12 (to 12)
        // 4: halt 0
        // 8: nop (padding)
        // 12: jalr r0, lr, 0 (return)
        let mut m = machine_with(&[
            Insn::Jal { rd: Reg::LR, offset: 12 },
            Insn::Halt { code: 0 },
            Insn::Nop,
            Insn::Jalr { rd: Reg::R0, rs1: Reg::LR, imm: 0 },
        ]);
        m.set_hook_config(HookConfig { calls: true, ..HookConfig::none() });
        let mut tracker = Tracker::default();
        let exit = m.run(&mut tracker, 100).unwrap();
        assert_eq!(exit, RunExit::Halted { code: 0 });
        assert_eq!(tracker.calls, vec![(rom + 12, rom + 4)]);
        assert_eq!(tracker.rets, vec![rom + 4]);
    }

    #[test]
    fn breakpoints_pause_and_resume() {
        let rom = ArchProfile::armv().rom_base;
        let mut m = machine_with(&[
            Insn::Addi { rd: Reg::R1, rs1: Reg::R0, imm: 1 },
            Insn::Addi { rd: Reg::R2, rs1: Reg::R0, imm: 2 },
            Insn::Halt { code: 0 },
        ]);
        m.add_breakpoint(rom + 4);
        let exit = m.run(&mut NullHook, 100).unwrap();
        assert_eq!(exit, RunExit::Breakpoint { pc: rom + 4, cpu: 0 });
        assert_eq!(m.cpu(0).regs.read(Reg::R1), 1);
        assert_eq!(m.cpu(0).regs.read(Reg::R2), 0);
        // Resume past the breakpoint.
        let exit = m.run_resume(&mut NullHook, 100).unwrap();
        assert_eq!(exit, RunExit::Halted { code: 0 });
        assert_eq!(m.cpu(0).regs.read(Reg::R2), 2);
    }

    #[test]
    fn ecall_and_eret_trap_flow() {
        let rom = ArchProfile::armv().rom_base;
        // Handler at rom+16 writes r5 = cause, then eret.
        let mut m = machine_with(&[
            Insn::Addi { rd: Reg::R1, rs1: Reg::R0, imm: (rom + 16) as i32 & 0x7FF },
            Insn::Nop, // placeholder; we set TVEC directly below
            Insn::Ecall { code: 33 },
            Insn::Halt { code: 1 },
            Insn::Csrr { rd: Reg::R5, idx: Csr::Cause as u16 },
            Insn::Eret,
        ]);
        m.cpu_mut(0).set_csr(Csr::Tvec, rom + 16);
        let exit = m.run(&mut NullHook, 100).unwrap();
        assert_eq!(exit, RunExit::Halted { code: 1 });
        assert_eq!(m.cpu(0).regs.read(Reg::R5), 33);
    }

    #[test]
    fn ecall_without_vector_faults() {
        let mut m = machine_with(&[Insn::Ecall { code: 1 }]);
        let exit = m.run(&mut NullHook, 100).unwrap();
        assert!(matches!(exit, RunExit::Faulted { fault: Fault::NoTrapVector { .. }, .. }));
    }

    #[test]
    fn power_device_halts_machine() {
        let profile = ArchProfile::armv();
        let power = profile.mmio_base + crate::device::POWER_BASE;
        let mut m = machine_with(&[
            Insn::Lui { rd: Reg::R1, imm: power & 0xFFFF_F000 },
            Insn::Ori { rd: Reg::R1, rs1: Reg::R1, imm: (power & 0xFFF) as i32 },
            Insn::Addi { rd: Reg::R2, rs1: Reg::R0, imm: 88 },
            Insn::Sw { rs2: Reg::R2, rs1: Reg::R1, imm: 0 },
            Insn::Jal { rd: Reg::R0, offset: 0 },
        ]);
        let exit = m.run(&mut NullHook, 10_000).unwrap();
        assert_eq!(exit, RunExit::Halted { code: 88 });
    }

    #[test]
    fn multi_cpu_round_robin_is_deterministic() {
        // Two CPUs increment separate RAM counters; with a fixed quantum the
        // interleaving (and hence final counts at any budget) is reproducible.
        let profile = ArchProfile::armv();
        let ram = profile.ram_base;
        let insns = [
            // r1 = ram + cpuid*4 (each CPU its own slot)
            Insn::Csrr { rd: Reg::R2, idx: Csr::Cpuid as u16 },
            Insn::Slli { rd: Reg::R2, rs1: Reg::R2, shamt: 2 },
            Insn::Lui { rd: Reg::R1, imm: ram },
            Insn::Add { rd: Reg::R1, rs1: Reg::R1, rs2: Reg::R2 },
            // loop: r3 = [r1]; r3 += 1; [r1] = r3; j loop
            Insn::Lw { rd: Reg::R3, rs1: Reg::R1, imm: 0 },
            Insn::Addi { rd: Reg::R3, rs1: Reg::R3, imm: 1 },
            Insn::Sw { rs2: Reg::R3, rs1: Reg::R1, imm: 0 },
            Insn::Jal { rd: Reg::R0, offset: -12 },
        ];
        let mut text = Vec::new();
        for insn in &insns {
            text.extend_from_slice(&insn.encode().to_bytes(profile.endian));
        }
        let run_once = || {
            let mut m = Machine::builder(profile)
                .rom(profile.rom_base, &text)
                .ram(profile.ram_base, 0x1000)
                .cpus(2)
                .quantum(100)
                .build()
                .unwrap();
            m.run(&mut NullHook, 5000).unwrap();
            (m.read_mem(ram, 4).unwrap(), m.read_mem(ram + 4, 4).unwrap())
        };
        let (a1, b1) = run_once();
        let (a2, b2) = run_once();
        assert_eq!((a1, b1), (a2, b2));
        assert!(a1 > 0 && b1 > 0, "both CPUs made progress: {a1} {b1}");
    }

    /// The executor (cpu 0) answers its one call and parks while cpu 1
    /// spins: the run ends at `ProgramDone` on SMP, at `AllIdle` on a
    /// uniprocessor, and not at all while no program awaits an answer.
    #[test]
    fn answered_program_ends_the_run_when_the_executor_parks() {
        let profile = ArchProfile::armv();
        let result_reg = (crate::device::MAILBOX_BASE + 0xC) as i32;
        let insns = [
            Insn::Csrr { rd: Reg::R2, idx: Csr::Cpuid as u16 },
            Insn::Bne { rs1: Reg::R2, rs2: Reg::R0, offset: 20 },
            Insn::Lui { rd: Reg::R1, imm: profile.mmio_base },
            Insn::Sw { rs2: Reg::R0, rs1: Reg::R1, imm: result_reg },
            Insn::Wfi,
            Insn::Jal { rd: Reg::R0, offset: -4 },
            Insn::Jal { rd: Reg::R0, offset: 0 }, // cpu 1: never sleeps
        ];
        let mut text = Vec::new();
        for insn in &insns {
            text.extend_from_slice(&insn.encode().to_bytes(profile.endian));
        }
        let machine = |cpus| {
            Machine::builder(profile)
                .rom(profile.rom_base, &text)
                .ram(profile.ram_base, 0x1000)
                .cpus(cpus)
                .build()
                .unwrap()
        };
        // One call: nr 0, no arguments.
        let program = [1, 0, 0];

        let mut smp = machine(2);
        smp.bus_mut().devices.mailbox.host_load(&program);
        assert_eq!(smp.run(&mut NullHook, 100_000).unwrap(), RunExit::ProgramDone);
        assert_eq!(smp.retired(), 5, "stops at cpu 0's wfi, before cpu 1 runs");
        assert_eq!(smp.bus_mut().devices.mailbox.host_take_results(), vec![0]);
        // Results taken: nothing awaits an answer, cpu 1 spins on.
        assert_eq!(smp.run(&mut NullHook, 100_000).unwrap(), RunExit::BudgetExhausted);

        let mut up = machine(1);
        up.bus_mut().devices.mailbox.host_load(&program);
        assert_eq!(up.run(&mut NullHook, 100_000).unwrap(), RunExit::AllIdle);
        assert_eq!(up.retired(), 5);

        // Nothing is answered before a program is loaded (boot).
        let mut boot = machine(2);
        assert_eq!(boot.run(&mut NullHook, 100_000).unwrap(), RunExit::BudgetExhausted);
    }

    #[test]
    fn stall_lets_other_cpu_run() {
        // CPU0 stores to a watched address and stalls; CPU1 keeps counting.
        struct StallOnce {
            stalled: bool,
            expired: Vec<u64>,
        }
        impl ExecHook for StallOnce {
            fn mem_access(&mut self, cpu: &mut CpuView<'_>, access: &MemAccess) -> HookAction {
                if !self.stalled && access.kind.is_write() && cpu.cpu_index() == 0 {
                    self.stalled = true;
                    return HookAction::Stall { instrs: 50, token: 0xAB };
                }
                HookAction::Continue
            }
            fn stall_expired(&mut self, cpu: &mut CpuView<'_>, token: u64) {
                self.expired.push(token);
                assert_eq!(cpu.cpu_index(), 0);
            }
        }
        let profile = ArchProfile::armv();
        let ram = profile.ram_base;
        let insns = [
            Insn::Csrr { rd: Reg::R2, idx: Csr::Cpuid as u16 },
            Insn::Slli { rd: Reg::R2, rs1: Reg::R2, shamt: 2 },
            Insn::Lui { rd: Reg::R1, imm: ram },
            Insn::Add { rd: Reg::R1, rs1: Reg::R1, rs2: Reg::R2 },
            Insn::Lw { rd: Reg::R3, rs1: Reg::R1, imm: 0 },
            Insn::Addi { rd: Reg::R3, rs1: Reg::R3, imm: 1 },
            Insn::Sw { rs2: Reg::R3, rs1: Reg::R1, imm: 0 },
            Insn::Jal { rd: Reg::R0, offset: -12 },
        ];
        let mut text = Vec::new();
        for insn in &insns {
            text.extend_from_slice(&insn.encode().to_bytes(profile.endian));
        }
        let mut m = Machine::builder(profile)
            .rom(profile.rom_base, &text)
            .ram(profile.ram_base, 0x1000)
            .cpus(2)
            .quantum(10)
            .build()
            .unwrap();
        m.set_hook_config(HookConfig { mem: true, ..HookConfig::none() });
        let mut hook = StallOnce { stalled: false, expired: Vec::new() };
        m.run(&mut hook, 2000).unwrap();
        assert_eq!(hook.expired, vec![0xAB]);
        // The stalled store still landed.
        assert!(m.read_mem(ram, 4).unwrap() > 0);
        assert!(m.read_mem(ram + 4, 4).unwrap() > 0);
    }

    #[test]
    fn single_cpu_stall_fast_forwards() {
        struct StallOnce(bool);
        impl ExecHook for StallOnce {
            fn mem_access(&mut self, _cpu: &mut CpuView<'_>, access: &MemAccess) -> HookAction {
                if !self.0 && access.kind.is_write() {
                    self.0 = true;
                    return HookAction::Stall { instrs: 1000, token: 1 };
                }
                HookAction::Continue
            }
        }
        let profile = ArchProfile::armv();
        let mut m = machine_with(&[
            Insn::Lui { rd: Reg::R1, imm: profile.ram_base },
            Insn::Sw { rs2: Reg::R1, rs1: Reg::R1, imm: 0 },
            Insn::Halt { code: 3 },
        ]);
        m.set_hook_config(HookConfig { mem: true, ..HookConfig::none() });
        let exit = m.run(&mut StallOnce(false), 10_000).unwrap();
        assert_eq!(exit, RunExit::Halted { code: 3 });
    }

    #[test]
    fn timer_irq_wakes_and_traps() {
        let rom = ArchProfile::armv().rom_base;
        // Main: enable timer + IE, then wfi forever.
        // Handler at rom+40: r9 += 1, eret.
        let profile = ArchProfile::armv();
        let timer_ctrl = profile.mmio_base + crate::device::TIMER_BASE;
        let insns = [
            // r1 = timer base
            Insn::Lui { rd: Reg::R1, imm: timer_ctrl & 0xFFFF_F000 },
            Insn::Ori { rd: Reg::R1, rs1: Reg::R1, imm: (timer_ctrl & 0xFFF) as i32 },
            // reload = 64
            Insn::Addi { rd: Reg::R2, rs1: Reg::R0, imm: 64 },
            Insn::Sw { rs2: Reg::R2, rs1: Reg::R1, imm: 4 },
            // enable
            Insn::Addi { rd: Reg::R2, rs1: Reg::R0, imm: 1 },
            Insn::Sw { rs2: Reg::R2, rs1: Reg::R1, imm: 0 },
            // IE = 1
            Insn::Csrw { rs1: Reg::R2, idx: Csr::Ie as u16 },
            // idle loop
            Insn::Wfi,
            Insn::Jal { rd: Reg::R0, offset: -4 },
            Insn::Nop,
            // handler at rom + 40:
            Insn::Addi { rd: Reg::R9, rs1: Reg::R9, imm: 1 },
            Insn::Eret,
        ];
        let mut text = Vec::new();
        for insn in &insns {
            text.extend_from_slice(&insn.encode().to_bytes(profile.endian));
        }
        let mut m = Machine::builder(profile)
            .rom(rom, &text)
            .ram(profile.ram_base, 0x1000)
            .build()
            .unwrap();
        m.cpu_mut(0).set_csr(Csr::Tvec, rom + 40);
        let exit = m.run(&mut NullHook, 2000).unwrap();
        assert_eq!(exit, RunExit::BudgetExhausted);
        assert!(m.cpu(0).regs.read(Reg::R9) >= 2, "handler ran repeatedly");
    }

    #[test]
    fn builder_rejects_bad_configs() {
        let profile = ArchProfile::armv();
        assert!(Machine::builder(profile).ram(profile.ram_base, 4).build().is_err());
        assert!(Machine::builder(profile).rom(profile.rom_base, &[0; 4]).build().is_err());
        assert!(Machine::builder(profile)
            .rom(0x800, &[0; 4096]) // overlaps null guard
            .ram(profile.ram_base, 4096)
            .build()
            .is_err());
        assert!(Machine::builder(profile)
            .rom(profile.ram_base, &[0; 4096]) // overlaps ram
            .ram(profile.ram_base, 4096)
            .build()
            .is_err());
        assert!(Machine::builder(profile)
            .rom(profile.rom_base, &[0; 16])
            .ram(profile.ram_base, 4096)
            .cpus(0)
            .build()
            .is_err());
    }

    #[test]
    fn fault_plan_flips_ram_bit_deterministically() {
        let profile = ArchProfile::armv();
        let run = |with_plan: bool| {
            // Store a known value, then spin so the scheduled flip lands.
            let ram = profile.ram_base;
            let mut m = machine_with(&[
                Insn::Lui { rd: Reg::R1, imm: ram },
                Insn::Addi { rd: Reg::R2, rs1: Reg::R0, imm: 0x55 },
                Insn::Sw { rs2: Reg::R2, rs1: Reg::R1, imm: 0 },
                Insn::Jal { rd: Reg::R0, offset: 0 },
            ]);
            if with_plan {
                let plan = crate::fault::FaultPlan::new().with(crate::fault::FaultEvent::once(
                    100,
                    FaultKind::RamBitFlip { offset: 0, bit: 1 },
                ));
                m.set_fault_plan(&plan);
            }
            m.run(&mut crate::hook::NullHook, 500).unwrap();
            (m.read_mem(ram, 4).unwrap(), m.injection_stats())
        };
        let (clean, clean_stats) = run(false);
        assert_eq!(clean, 0x55);
        assert_eq!(clean_stats.total(), 0);
        let (flipped, stats) = run(true);
        assert_eq!(flipped, 0x57, "bit 1 flipped exactly once");
        assert_eq!(stats.ram_bit_flips, 1);
        // Determinism: the same plan injects identically on a second run.
        assert_eq!(run(true), (flipped, stats));
    }

    #[test]
    fn fault_plan_survives_snapshot_restore_without_replaying() {
        let ram = ArchProfile::armv().ram_base;
        let mut m = machine_with(&[
            Insn::Lui { rd: Reg::R1, imm: ram },
            Insn::Sw { rs2: Reg::R0, rs1: Reg::R1, imm: 0 },
            Insn::Jal { rd: Reg::R0, offset: 0 },
        ]);
        let plan = crate::fault::FaultPlan::new()
            .with(crate::fault::FaultEvent::once(50, FaultKind::RamBitFlip { offset: 0, bit: 0 }));
        m.set_fault_plan(&plan);
        let snap = m.snapshot();
        m.run(&mut crate::hook::NullHook, 200).unwrap();
        assert_eq!(m.injection_stats().ram_bit_flips, 1);
        assert_eq!(m.pending_faults(), 0);
        // Restoring the snapshot rewinds guest state but not the lifetime
        // clock: the already-fired event must not replay.
        m.restore(&snap).unwrap();
        m.run(&mut crate::hook::NullHook, 200).unwrap();
        assert_eq!(m.injection_stats().ram_bit_flips, 1, "no replay after restore");
        assert_eq!(m.read_mem(ram, 4).unwrap(), 0, "restored RAM stays clean");
        assert!(m.lifetime_retired() > m.retired());
    }

    #[test]
    fn mmio_corruption_window_applies_and_drains() {
        let mut m = machine_with(&[Insn::Jal { rd: Reg::R0, offset: 0 }]);
        let plan = crate::fault::FaultPlan::new().with(crate::fault::FaultEvent::once(
            10,
            FaultKind::MmioCorrupt { xor: 0xFF, reads: 2 },
        ));
        m.set_fault_plan(&plan);
        m.run(&mut crate::hook::NullHook, 50).unwrap();
        assert_eq!(m.injection_stats().mmio_corruptions, 1);
        let mmio = m.profile().mmio_base;
        // UART status normally reads 1 (always ready); corrupted it is 0xFE.
        assert_eq!(m.bus_mut().read(mmio + 4, 4).unwrap(), 0xFE);
        assert_eq!(m.bus_mut().read(mmio + 4, 4).unwrap(), 0xFE);
        assert_eq!(m.bus_mut().read(mmio + 4, 4).unwrap(), 1, "window drained");
    }

    #[test]
    fn stuck_cpu_live_locks_and_classifies() {
        // A well-behaved guest that parks after storing.
        let mut m = machine_with(&[
            Insn::Addi { rd: Reg::R1, rs1: Reg::R0, imm: 1 },
            Insn::Wfi,
            Insn::Jal { rd: Reg::R0, offset: -4 },
        ]);
        assert_eq!(m.run(&mut crate::hook::NullHook, 1000).unwrap(), RunExit::AllIdle);
        assert_eq!(
            m.classify_hang(&mut crate::hook::NullHook, 3, 100).unwrap(),
            HangClass::WfiIdle
        );
        // Wedge the core: it now burns budget forever.
        let plan = crate::fault::FaultPlan::new()
            .with(crate::fault::FaultEvent::once(0, FaultKind::StuckCpu { cpu: 0 }));
        m.set_fault_plan(&plan);
        assert_eq!(m.run(&mut crate::hook::NullHook, 1000).unwrap(), RunExit::BudgetExhausted);
        assert!(m.cpu(0).is_wedged());
        assert_eq!(
            m.classify_hang(&mut crate::hook::NullHook, 3, 100).unwrap(),
            HangClass::LiveLock
        );
        assert_eq!(m.injection_stats().cpu_wedges, 1);
    }

    #[test]
    fn spurious_irq_and_alloc_fail_inject() {
        let mut m = machine_with(&[Insn::Jal { rd: Reg::R0, offset: 0 }]);
        let plan = crate::fault::FaultPlan::new()
            .with(crate::fault::FaultEvent::once(10, FaultKind::SpuriousIrq))
            .with(crate::fault::FaultEvent::once(20, FaultKind::AllocFail { count: 3 }));
        m.set_fault_plan(&plan);
        m.run(&mut crate::hook::NullHook, 100).unwrap();
        let stats = m.injection_stats();
        assert_eq!(stats.spurious_irqs, 1);
        assert_eq!(stats.alloc_failures, 1);
        // With no trap vector the IRQ stays pending; the fault device is armed.
        assert_eq!(m.bus_mut().devices.fault.armed(), 3);
    }
}
