//! Full-system emulator substrate for EMBSAN.
//!
//! This crate is the reproduction's stand-in for QEMU/TCG: a deterministic
//! full-system emulator for the 32-bit EV32 instruction set with a
//! block-translation engine whose *translation templates can be modified* to
//! splice in sanitizer probes — the central mechanism of the EMBSAN paper's
//! Common Sanitizer Runtime (§3.3).
//!
//! The main entry point is [`machine::Machine`], which owns one or more
//! virtual CPUs ([`cpu::Cpu`]), a physical memory [`bus::Bus`] with MMIO
//! devices, and a [`translate::BlockCache`]. External tooling (the EMBSAN
//! runtime, fuzzers, the platform prober) observes and steers execution
//! through the [`hook::ExecHook`] trait.
//!
//! # Example
//!
//! ```
//! use embsan_emu::prelude::*;
//!
//! # fn main() -> Result<(), embsan_emu::EmuError> {
//! // Hand-assemble: r1 = 5; r2 = 7; r1 = r1 + r2; halt 0
//! let program = [
//!     Insn::Addi { rd: Reg::R1, rs1: Reg::R0, imm: 5 },
//!     Insn::Addi { rd: Reg::R2, rs1: Reg::R0, imm: 7 },
//!     Insn::Add { rd: Reg::R1, rs1: Reg::R1, rs2: Reg::R2 },
//!     Insn::Halt { code: 0 },
//! ];
//! let profile = ArchProfile::armv();
//! let mut text = Vec::new();
//! for insn in &program {
//!     text.extend_from_slice(&insn.encode().to_bytes(profile.endian));
//! }
//! let mut machine = Machine::builder(profile)
//!     .rom(profile.rom_base, &text)
//!     .ram(profile.ram_base, 0x1_0000)
//!     .build()?;
//! let exit = machine.run(&mut NullHook, 1_000)?;
//! assert_eq!(exit, RunExit::Halted { code: 0 });
//! assert_eq!(machine.cpu(0).regs.read(Reg::R1), 12);
//! # Ok(())
//! # }
//! ```

pub mod bus;
pub mod cow;
pub mod cpu;
pub mod device;
pub mod error;
pub mod fault;
pub mod hash;
pub mod hook;
pub mod isa;
pub mod machine;
pub mod mmio_free;
pub mod profile;
pub mod snapshot;
pub mod translate;

pub use cow::{FrozenPages, PagedBytes};
pub use error::{EmuError, Fault};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultPlanError, HangClass, InjectionStats};
pub use hook::{ExecHook, HookAction, HookConfig, NullHook};
pub use machine::{Machine, MachineBuilder, RunExit};
pub use mmio_free::{ModelFreeMmio, ModelFreeStats};
pub use profile::{Arch, ArchProfile, Endian};
pub use translate::CacheStats;

/// Convenient glob import of the types needed by most users.
pub mod prelude {
    pub use crate::bus::{Bus, MemAccess, MemKind};
    pub use crate::cpu::{Cpu, CpuView, Csr};
    pub use crate::error::{EmuError, Fault};
    pub use crate::fault::{FaultEvent, FaultKind, FaultPlan, HangClass, InjectionStats};
    pub use crate::hook::{ExecHook, HookAction, HookConfig, NullHook};
    pub use crate::isa::{Insn, Reg, Word};
    pub use crate::machine::{Machine, MachineBuilder, RunExit};
    pub use crate::profile::{Arch, ArchProfile, Endian};
    pub use crate::translate::CacheStats;
}
