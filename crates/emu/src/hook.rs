//! Execution hooks: the interface through which the EMBSAN runtime, the
//! platform prober and the fuzzers observe and steer guest execution.
//!
//! A [`HookConfig`] declares which events the hook wants; the machine's block
//! translator uses it to decide which probes to splice into translated code
//! (changing the configuration flushes the translation cache — the analogue
//! of re-generating TCG templates in §3.3).

use crate::bus::MemAccess;
use crate::cpu::CpuView;
use crate::error::Fault;

/// Which probe classes the translator should arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HookConfig {
    /// Probe every load/store/atomic with [`ExecHook::mem_access`].
    pub mem: bool,
    /// Deliver `hyper` instructions to [`ExecHook::hypercall`].
    pub hypercalls: bool,
    /// Report translation-block entries to [`ExecHook::block_enter`].
    pub blocks: bool,
    /// Report calls (`jal`/`jalr` writing the link register) and returns
    /// (`jalr` through the link register) to [`ExecHook::call`] / [`ExecHook::ret`].
    pub calls: bool,
}

impl HookConfig {
    /// A configuration with every probe class armed.
    pub fn all() -> HookConfig {
        HookConfig { mem: true, hypercalls: true, blocks: true, calls: true }
    }

    /// A configuration with no probes armed.
    pub fn none() -> HookConfig {
        HookConfig::default()
    }
}

/// The hook's verdict on an intercepted event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookAction {
    /// Continue execution normally.
    Continue,
    /// Stall this vCPU until `instrs` further instructions have retired on
    /// the machine (other vCPUs keep running). When the stall expires,
    /// [`ExecHook::stall_expired`] is called with `token`. Used by the KCSAN
    /// engine's watchpoint windows.
    Stall { instrs: u64, token: u64 },
    /// Stop the machine; [`crate::machine::RunExit::Stopped`] is returned.
    Stop,
}

/// Observer/controller of guest execution.
///
/// All methods have no-op defaults so implementations only override what
/// they need. Events are only delivered if the corresponding [`HookConfig`]
/// flag was set when the machine's hook configuration was installed.
#[allow(unused_variables)]
pub trait ExecHook {
    /// A sanitizer-sensitive memory access is about to execute.
    ///
    /// For stores, `access.value` is the value being written. The access has
    /// not yet reached the bus; returning [`HookAction::Stop`] prevents it.
    fn mem_access(&mut self, cpu: &mut CpuView<'_>, access: &MemAccess) -> HookAction {
        HookAction::Continue
    }

    /// A `hyper` instruction executed with hypercall number `nr`.
    ///
    /// Argument registers are profile-specific; the EMBSAN runtime
    /// reconstructs them via the platform spec. With no hook (or hypercalls
    /// unarmed) `hyper` is a no-op — the "dummy sanitizer library" behaviour.
    fn hypercall(&mut self, cpu: &mut CpuView<'_>, nr: u32) -> HookAction {
        HookAction::Continue
    }

    /// Execution entered the translation block starting at `pc`.
    fn block_enter(&mut self, cpu: &mut CpuView<'_>, pc: u32) {}

    /// A call instruction is transferring to `target`; the return address is
    /// `ret_to`. Used by EMBSAN-D to intercept allocator functions.
    fn call(&mut self, cpu: &mut CpuView<'_>, target: u32, ret_to: u32) {}

    /// A return instruction is transferring to `target`.
    fn ret(&mut self, cpu: &mut CpuView<'_>, target: u32) {}

    /// A stall previously requested via [`HookAction::Stall`] has expired.
    fn stall_expired(&mut self, cpu: &mut CpuView<'_>, token: u64) {}

    /// The vCPU raised a fault. The machine stops after this callback.
    fn fault(&mut self, cpu: &mut CpuView<'_>, fault: Fault) {}
}

/// A hook that observes nothing; useful for unsanitized baseline runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullHook;

impl ExecHook for NullHook {}

/// Combines a controlling hook with a passive observer.
///
/// The `primary` hook's [`HookAction`]s steer execution; the `observer`
/// sees the same events but its verdicts are ignored. Used to attach a
/// fuzzer's coverage collector alongside the sanitizer runtime.
///
/// Generic over both hooks, so a machine run with concrete types reaches
/// each by static dispatch and a hook's empty default method (say, the
/// sanitizer runtime's `block_enter`) compiles away; either may still be a
/// `dyn ExecHook`.
pub struct CombinedHook<'a, P: ?Sized, O: ?Sized> {
    /// The controlling hook.
    pub primary: &'a mut P,
    /// The passive observer.
    pub observer: &'a mut O,
}

impl<P: ExecHook + ?Sized, O: ExecHook + ?Sized> ExecHook for CombinedHook<'_, P, O> {
    #[inline]
    fn mem_access(&mut self, cpu: &mut CpuView<'_>, access: &MemAccess) -> HookAction {
        let _ = self.observer.mem_access(cpu, access);
        self.primary.mem_access(cpu, access)
    }

    #[inline]
    fn hypercall(&mut self, cpu: &mut CpuView<'_>, nr: u32) -> HookAction {
        let _ = self.observer.hypercall(cpu, nr);
        self.primary.hypercall(cpu, nr)
    }

    #[inline]
    fn block_enter(&mut self, cpu: &mut CpuView<'_>, pc: u32) {
        self.observer.block_enter(cpu, pc);
        self.primary.block_enter(cpu, pc);
    }

    #[inline]
    fn call(&mut self, cpu: &mut CpuView<'_>, target: u32, ret_to: u32) {
        self.observer.call(cpu, target, ret_to);
        self.primary.call(cpu, target, ret_to);
    }

    #[inline]
    fn ret(&mut self, cpu: &mut CpuView<'_>, target: u32) {
        self.observer.ret(cpu, target);
        self.primary.ret(cpu, target);
    }

    #[inline]
    fn stall_expired(&mut self, cpu: &mut CpuView<'_>, token: u64) {
        self.primary.stall_expired(cpu, token);
    }

    #[inline]
    fn fault(&mut self, cpu: &mut CpuView<'_>, fault: Fault) {
        self.observer.fault(cpu, fault);
        self.primary.fault(cpu, fault);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_constructors() {
        assert!(HookConfig::all().mem);
        assert!(HookConfig::all().calls);
        assert!(!HookConfig::none().mem);
        assert_eq!(HookConfig::default(), HookConfig::none());
    }
}
