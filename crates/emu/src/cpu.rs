//! Virtual CPU state and the hook-facing CPU view.

use crate::bus::Bus;
use crate::error::Fault;
use crate::isa::Reg;

/// Control/status register indices.
///
/// CSRs are accessed by the `csrr`/`csrw` instructions and by host tooling
/// through [`Cpu::csr`] / [`Cpu::set_csr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum Csr {
    /// This vCPU's index (read-only to the guest).
    Cpuid = 0,
    /// Trap vector: target of `ecall` and interrupts.
    Tvec = 1,
    /// Exception PC: return address for `eret`.
    Epc = 2,
    /// Trap cause: `ecall` code, or [`Cpu::CAUSE_TIMER_IRQ`].
    Cause = 3,
    /// Interrupt enable (non-zero enables timer interrupts).
    Ie = 4,
    /// Retired-instruction counter, low 32 bits (read-only to the guest).
    Cycle = 5,
    /// Number of vCPUs in the machine (read-only to the guest).
    Ncpus = 6,
}

const CSR_COUNT: usize = 8;

/// The general-purpose register file. `r0` reads as zero and ignores writes.
///
/// Invariant: slot 0 holds zero between any two calls. [`Regs::write`]
/// stores into any slot and then re-zeroes slot 0, so neither side of the
/// interpreter's hottest path branches on the register index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Regs([u32; 16]);

impl Regs {
    /// Reads a register (`r0` always reads zero).
    #[inline(always)]
    pub fn read(&self, reg: Reg) -> u32 {
        self.0[reg.index()]
    }

    /// Writes a register (writes to `r0` are discarded).
    #[inline(always)]
    pub fn write(&mut self, reg: Reg, value: u32) {
        self.0[reg.index()] = value;
        self.0[Reg::ZERO.index()] = 0;
    }
}

/// One virtual CPU.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cpu {
    /// General-purpose registers.
    pub regs: Regs,
    /// Program counter.
    pub pc: u32,
    csrs: [u32; CSR_COUNT],
    /// Parked by `wfi` until the next wake event.
    pub(crate) parked: bool,
    /// Stalled (by a sanitizer watchpoint) until the machine's global retired
    /// counter reaches this value.
    pub(crate) stalled_until: Option<u64>,
    /// Token passed back to the hook when the stall expires.
    pub(crate) stall_token: u64,
    /// Pending timer interrupt.
    pub(crate) irq_pending: bool,
    /// Wedged by an injected [`crate::fault::FaultKind::StuckCpu`] fault:
    /// retires instructions without making progress until a snapshot
    /// restore replaces this vCPU's state.
    pub(crate) wedged: bool,
    /// Instructions retired by this vCPU.
    pub retired: u64,
}

impl Cpu {
    /// Trap cause value for a timer interrupt.
    pub const CAUSE_TIMER_IRQ: u32 = 0x8000_0000;

    /// Creates a vCPU with the given index, starting at `entry`.
    pub fn new(index: usize, ncpus: usize, entry: u32) -> Cpu {
        let mut csrs = [0u32; CSR_COUNT];
        csrs[Csr::Cpuid as usize] = index as u32;
        csrs[Csr::Ncpus as usize] = ncpus as u32;
        Cpu {
            regs: Regs::default(),
            pc: entry,
            csrs,
            parked: false,
            stalled_until: None,
            stall_token: 0,
            irq_pending: false,
            wedged: false,
            retired: 0,
        }
    }

    /// Whether the vCPU is wedged by an injected stuck-at fault.
    pub fn is_wedged(&self) -> bool {
        self.wedged
    }

    /// This vCPU's index.
    pub fn index(&self) -> usize {
        self.csrs[Csr::Cpuid as usize] as usize
    }

    /// Reads a CSR by typed name.
    pub fn csr(&self, csr: Csr) -> u32 {
        self.csrs[csr as usize]
    }

    /// Writes a CSR by typed name (host side; no read-only enforcement).
    pub fn set_csr(&mut self, csr: Csr, value: u32) {
        self.csrs[csr as usize] = value;
    }

    /// Guest-side CSR read by raw index; unknown CSRs read zero.
    pub(crate) fn csr_read(&self, idx: u16) -> u32 {
        match idx {
            x if x == Csr::Cycle as u16 => self.retired as u32,
            x if (x as usize) < CSR_COUNT => self.csrs[x as usize],
            _ => 0,
        }
    }

    /// Guest-side CSR write by raw index; read-only and unknown CSRs are
    /// silently ignored (matching typical embedded core behaviour).
    pub(crate) fn csr_write(&mut self, idx: u16, value: u32) {
        match idx {
            x if x == Csr::Cpuid as u16 || x == Csr::Cycle as u16 || x == Csr::Ncpus as u16 => {}
            x if (x as usize) < CSR_COUNT => self.csrs[x as usize] = value,
            _ => {}
        }
    }

    /// Whether the vCPU is parked by `wfi`.
    pub fn is_parked(&self) -> bool {
        self.parked
    }
}

/// A mutable view of one vCPU plus the bus, handed to [`crate::ExecHook`]
/// callbacks.
///
/// Hooks use the view to reconstruct arguments (read registers, follow
/// pointers into guest memory) and, for hypercalls, to write results back.
pub struct CpuView<'a> {
    /// The vCPU being executed.
    pub cpu: &'a mut Cpu,
    /// The machine's memory bus.
    pub bus: &'a mut Bus,
}

impl<'a> CpuView<'a> {
    /// Reads a general-purpose register.
    pub fn reg(&self, reg: Reg) -> u32 {
        self.cpu.regs.read(reg)
    }

    /// Writes a general-purpose register.
    pub fn set_reg(&mut self, reg: Reg, value: u32) {
        self.cpu.regs.write(reg, value);
    }

    /// The current program counter.
    pub fn pc(&self) -> u32 {
        self.cpu.pc
    }

    /// The vCPU index.
    pub fn cpu_index(&self) -> usize {
        self.cpu.index()
    }

    /// Reads guest memory without triggering probes (host-side access).
    ///
    /// # Errors
    ///
    /// Propagates bus faults; the hook decides how to handle them.
    pub fn read_mem(&mut self, addr: u32, size: u8) -> Result<u32, Fault> {
        self.bus.read(addr, size)
    }

    /// Bulk-reads guest memory (ROM or RAM) without triggering probes.
    ///
    /// # Errors
    ///
    /// Propagates bus faults.
    pub fn read_bytes(&mut self, addr: u32, buf: &mut [u8]) -> Result<(), Fault> {
        self.bus.read_bytes(addr, buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r0_is_hardwired_zero() {
        let mut regs = Regs::default();
        regs.write(Reg::R0, 0xFFFF);
        assert_eq!(regs.read(Reg::R0), 0);
        regs.write(Reg::R1, 0xFFFF);
        assert_eq!(regs.read(Reg::R1), 0xFFFF);
    }

    #[test]
    fn csr_readonly_from_guest() {
        let mut cpu = Cpu::new(2, 4, 0x1000);
        assert_eq!(cpu.csr_read(Csr::Cpuid as u16), 2);
        assert_eq!(cpu.csr_read(Csr::Ncpus as u16), 4);
        cpu.csr_write(Csr::Cpuid as u16, 9);
        assert_eq!(cpu.csr_read(Csr::Cpuid as u16), 2);
        cpu.csr_write(Csr::Tvec as u16, 0x2000);
        assert_eq!(cpu.csr(Csr::Tvec), 0x2000);
    }

    #[test]
    fn unknown_csrs_are_benign() {
        let mut cpu = Cpu::new(0, 1, 0);
        assert_eq!(cpu.csr_read(999), 0);
        cpu.csr_write(999, 5); // must not panic
    }
}
