//! Machine snapshot / restore around copy-on-write forking.
//!
//! Fuzzers take a snapshot at the firmware's ready-to-run point and restore
//! it before every test program, so each execution starts from an identical,
//! fully booted system state.
//!
//! The RAM image inside a [`Snapshot`] is an immutable `Arc`-shared base
//! ([`FrozenPages`]) holding only the pages with data: restoring it *forks*
//! the machine's RAM from that base instead of copying it. From then on the
//! bus allocates private pages only for pages the guest writes, and
//! restoring the same snapshot again points those pages back at the base
//! (O(dirty), and it *frees* memory rather than copying).
//! Any number of machines — parallel fuzzing workers, daemon jobs — can
//! fork from one base, so per-worker incremental memory is O(dirty pages),
//! not O(RAM). Base identity is `Arc` pointer identity: no id counters, no
//! cross-restore bookkeeping to invalidate.

use std::sync::Arc;

use crate::cow::FrozenPages;
use crate::cpu::Cpu;
use crate::device::DeviceSet;
use crate::error::EmuError;
use crate::machine::Machine;

/// A point-in-time copy of all mutable machine state (RAM, vCPUs, devices,
/// retired-instruction counters, round-robin cursor). The ROM and
/// translation cache are not part of the snapshot: ROM is immutable and the
/// cache is a pure function of ROM plus the hook configuration.
///
/// The RAM image is `Arc`-shared and never mutated after capture; clones
/// share it. `PartialEq` compares the full captured state byte-for-byte,
/// which is what the snapshot-fidelity property tests rely on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// The immutable base RAM image machines fork from on restore.
    ram: Arc<FrozenPages>,
    cpus: Vec<Cpu>,
    devices: DeviceSet,
    global_retired: u64,
    /// The vCPU the scheduler runs first: without it an SMP program's
    /// interleaving would depend on the program run before the restore.
    next_cpu: usize,
}

impl Snapshot {
    /// The shared base RAM image (for base-identity checks and hashing).
    pub fn ram_base(&self) -> &Arc<FrozenPages> {
        &self.ram
    }

    /// Logical size of the captured RAM in bytes.
    pub fn base_bytes(&self) -> usize {
        self.ram.len()
    }

    /// Folds this snapshot's contents into `hash` with
    /// [`crate::hash::fold`]: the RAM image page by page
    /// ([`FrozenPages::fold_hash`]), then the CPU/device state, retired
    /// count and round-robin cursor as their canonical `Debug` rendering.
    /// Deterministic for identical machine states, so two independently
    /// booted sessions of the same firmware hash alike and can share one
    /// base image.
    pub fn fold_hash(&self, hash: u64) -> u64 {
        let tail =
            format!("{:?}|{:?}|{}|{}", self.cpus, self.devices, self.global_retired, self.next_cpu);
        crate::hash::fold(self.ram.fold_hash(hash), tail.as_bytes())
    }
}

impl Machine {
    /// Captures a snapshot of the current machine state. When no RAM page
    /// is private (right after [`Machine::freeze_ram`] or a restore) the
    /// snapshot shares RAM's base; otherwise the new image shares the
    /// base's pages and copies the private ones. Either way it becomes the
    /// immutable shared base of every machine that restores the snapshot.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            ram: self.bus().ram_image(),
            cpus: (0..self.cpu_count()).map(|i| self.cpu(i).clone()).collect(),
            devices: self.bus().devices.clone(),
            global_retired: self.retired(),
            next_cpu: self.next_cpu(),
        }
    }

    /// Freezes guest RAM in place as an immutable shared base, moving its
    /// private pages into it with no byte copy. A following
    /// [`Machine::snapshot`] captures that base in O(1) bytes, and the first
    /// restore of it takes the O(dirty) copy-on-write path.
    pub fn freeze_ram(&mut self) {
        self.bus_mut().freeze_ram();
    }

    /// Restores a snapshot previously taken from a machine with the same
    /// RAM size and vCPU count.
    ///
    /// If RAM already forks from this snapshot's base, the restore points
    /// only the pages dirtied since the last restore back at the base
    /// (O(dirty)). Otherwise RAM re-forks from the snapshot's base —
    /// O(pages) bookkeeping and zero byte copies, releasing any previously
    /// private RAM back to the allocator.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::SnapshotMismatch`] if the snapshot shape does not
    /// match this machine.
    pub fn restore(&mut self, snapshot: &Snapshot) -> Result<(), EmuError> {
        self.check_shape(snapshot)?;
        if self.bus().ram_shares_base(&snapshot.ram) {
            // Fast path: RAM differs from the base only on its private
            // pages, all written since the last restore.
            self.bus_mut().restore_ram();
        } else {
            self.bus_mut().adopt_ram(&snapshot.ram);
        }
        self.finish_restore(snapshot);
        Ok(())
    }

    fn check_shape(&self, snapshot: &Snapshot) -> Result<(), EmuError> {
        let (_, ram_size) = self.bus().ram_range();
        if snapshot.ram.len() != ram_size as usize {
            return Err(EmuError::SnapshotMismatch(format!(
                "snapshot RAM is {} bytes, machine has {}",
                snapshot.ram.len(),
                ram_size
            )));
        }
        if snapshot.cpus.len() != self.cpu_count() {
            return Err(EmuError::SnapshotMismatch(format!(
                "snapshot has {} vCPUs, machine has {}",
                snapshot.cpus.len(),
                self.cpu_count()
            )));
        }
        Ok(())
    }

    fn finish_restore(&mut self, snapshot: &Snapshot) {
        self.bus_mut().devices = snapshot.devices.clone();
        for (i, cpu) in snapshot.cpus.iter().enumerate() {
            *self.cpu_mut(i) = cpu.clone();
        }
        self.set_retired(snapshot.global_retired);
        self.set_next_cpu(snapshot.next_cpu);
    }

    /// Private bytes guest RAM holds beyond its shared base (0 right after
    /// a restore; grows with pages dirtied since).
    pub fn ram_overlay_bytes(&self) -> usize {
        self.bus().ram_overlay_bytes()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::hook::NullHook;
    use crate::isa::{Insn, Reg};
    use crate::machine::{Machine, RunExit};
    use crate::profile::ArchProfile;

    fn counting_machine() -> Machine {
        let profile = ArchProfile::armv();
        let ram = profile.ram_base;
        let insns = [
            Insn::Lui { rd: Reg::R1, imm: ram },
            Insn::Lw { rd: Reg::R3, rs1: Reg::R1, imm: 0 },
            Insn::Addi { rd: Reg::R3, rs1: Reg::R3, imm: 1 },
            Insn::Sw { rs2: Reg::R3, rs1: Reg::R1, imm: 0 },
            Insn::Jal { rd: Reg::R0, offset: -12 },
        ];
        let mut text = Vec::new();
        for insn in &insns {
            text.extend_from_slice(&insn.encode().to_bytes(profile.endian));
        }
        Machine::builder(profile).rom(profile.rom_base, &text).ram(ram, 0x1000).build().unwrap()
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut m = counting_machine();
        let ram = ArchProfile::armv().ram_base;
        m.run(&mut NullHook, 100).unwrap();
        let snap = m.snapshot();
        let count_at_snap = m.read_mem(ram, 4).unwrap();
        let pc_at_snap = m.cpu(0).pc;

        m.run(&mut NullHook, 1000).unwrap();
        assert_ne!(m.read_mem(ram, 4).unwrap(), count_at_snap);

        m.restore(&snap).unwrap();
        assert_eq!(m.read_mem(ram, 4).unwrap(), count_at_snap);
        assert_eq!(m.cpu(0).pc, pc_at_snap);
        assert_eq!(m.retired(), 100);

        // Determinism: re-running from the snapshot reproduces the same state.
        let exit1 = m.run(&mut NullHook, 500).unwrap();
        let v1 = m.read_mem(ram, 4).unwrap();
        m.restore(&snap).unwrap();
        let exit2 = m.run(&mut NullHook, 500).unwrap();
        let v2 = m.read_mem(ram, 4).unwrap();
        assert_eq!(exit1, exit2);
        assert_eq!(exit1, RunExit::BudgetExhausted);
        assert_eq!(v1, v2);
    }

    #[test]
    fn repeated_restores_use_cow_fast_path_and_stay_exact() {
        let mut m = counting_machine();
        m.run(&mut NullHook, 100).unwrap();
        let snap = m.snapshot();
        // First restore forks RAM from the snapshot's base.
        m.restore(&snap).unwrap();
        assert!(m.bus().ram_is_forked());
        assert_eq!(m.bus().dirty_ram_pages(), 0);
        assert_eq!(m.ram_overlay_bytes(), 0);
        for round in 0..4u64 {
            // Dirty RAM through both guest stores and host bulk writes.
            m.run(&mut NullHook, 50 + round).unwrap();
            let (ram_base, ram_size) = m.bus().ram_range();
            m.write_mem(ram_base + ram_size - 4, 4, 0xC0FF_EE00 + round as u32).unwrap();
            m.bus_mut().write_bytes(ram_base + 0x800, &[round as u8; 16]).unwrap();
            assert!(m.bus().dirty_ram_pages() > 0);
            assert!(m.ram_overlay_bytes() > 0, "writes allocate overlay pages");
            m.restore(&snap).unwrap();
            // CoW restore must leave state byte-identical to a full
            // restore: re-capturing reproduces the original snapshot exactly.
            assert_eq!(m.snapshot(), snap);
            assert_eq!(m.bus().dirty_ram_pages(), 0);
            assert_eq!(m.ram_overlay_bytes(), 0, "restore frees the overlay");
        }
    }

    #[test]
    fn frozen_ram_is_captured_without_a_copy() {
        let mut m = counting_machine();
        m.run(&mut NullHook, 100).unwrap();
        let copied = m.snapshot();
        assert!(!m.bus().ram_is_forked(), "snapshotting flat RAM leaves it flat");
        m.freeze_ram();
        let snap = m.snapshot();
        assert_eq!(snap, copied);
        assert!(m.bus().ram_shares_base(snap.ram_base()), "the capture is the base");
        assert_eq!((m.bus().dirty_ram_pages(), m.ram_overlay_bytes()), (0, 0));
        m.run(&mut NullHook, 50).unwrap();
        assert!(m.bus().dirty_ram_pages() > 0);
        m.restore(&snap).unwrap();
        assert!(m.bus().ram_shares_base(snap.ram_base()), "first restore is copy-on-write");
        assert_eq!(m.snapshot(), snap);
    }

    #[test]
    fn restoring_a_different_snapshot_rebases() {
        let mut m = counting_machine();
        m.run(&mut NullHook, 100).unwrap();
        let snap_a = m.snapshot();
        m.restore(&snap_a).unwrap(); // RAM now forks from snap_a's base
        m.run(&mut NullHook, 100).unwrap();
        let snap_b = m.snapshot();
        // Alternating snapshots re-forks each time; each restore must be
        // exact (no stale overlay from the other base can survive).
        m.restore(&snap_a).unwrap();
        assert_eq!(m.snapshot(), snap_a);
        m.restore(&snap_b).unwrap();
        assert_eq!(m.snapshot(), snap_b);
        m.restore(&snap_a).unwrap();
        assert_eq!(m.snapshot(), snap_a);
    }

    #[test]
    fn forked_machines_share_one_base() {
        let mut a = counting_machine();
        a.run(&mut NullHook, 100).unwrap();
        let snap = a.snapshot();
        let mut b = counting_machine();
        a.restore(&snap).unwrap();
        b.restore(&snap).unwrap();
        assert!(a.bus().ram_shares_base(snap.ram_base()));
        assert!(b.bus().ram_shares_base(snap.ram_base()));
        // Diverge both; the base (and the other fork) must not observe it.
        let (ram_base, _) = a.bus().ram_range();
        a.write_mem(ram_base + 0x10, 4, 0xAAAA_AAAA).unwrap();
        b.write_mem(ram_base + 0x10, 4, 0xBBBB_BBBB).unwrap();
        assert_eq!(a.read_mem(ram_base + 0x10, 4).unwrap(), 0xAAAA_AAAA);
        assert_eq!(b.read_mem(ram_base + 0x10, 4).unwrap(), 0xBBBB_BBBB);
        a.restore(&snap).unwrap();
        b.restore(&snap).unwrap();
        assert_eq!(a.snapshot(), snap);
        assert_eq!(b.snapshot(), snap);
    }

    /// Restores against a flat `Vec<u8>` model driven by the same host
    /// writes: the model, not another restore path, says what RAM holds.
    #[test]
    fn restore_matches_a_flat_model_of_the_same_writes() {
        let mut m = counting_machine();
        m.run(&mut NullHook, 100).unwrap();
        let snap = m.snapshot();
        let (ram, size) = m.bus().ram_range();
        let ram_of = |m: &Machine| {
            let mut bytes = vec![0; size as usize];
            m.bus().read_bytes(ram, &mut bytes).unwrap();
            bytes
        };
        let count = m.read_mem(ram, 4).unwrap();
        let mut ready = vec![0u8; size as usize];
        ready[..4].copy_from_slice(&count.to_le_bytes());
        assert_eq!(ram_of(&m), ready);
        for step in 0..3usize {
            let mut model = ready.clone();
            for k in 0..8 {
                let at = (step * 977 + k * 1031) % (size as usize - 16);
                let bytes = [step as u8 + 1, k as u8, 0, 0xFF];
                m.bus_mut().write_bytes(ram + at as u32, &bytes).unwrap();
                model[at..at + 4].copy_from_slice(&bytes);
            }
            m.write_mem(ram + size - 4, 4, 0xC0FF_EE00).unwrap();
            model[size as usize - 4..].copy_from_slice(&0xC0FF_EE00u32.to_le_bytes());
            assert_eq!(ram_of(&m), model, "divergence at step {step}");
            m.restore(&snap).unwrap();
            assert_eq!(ram_of(&m), ready, "restore at step {step}");
            assert_eq!(m.snapshot(), snap);
        }
        assert!(Arc::strong_count(snap.ram_base()) >= 2, "the machine shares the base");
    }

    #[test]
    fn mismatched_snapshot_rejected() {
        let m1 = counting_machine();
        let snap = m1.snapshot();
        let profile = ArchProfile::armv();
        let mut m2 = Machine::builder(profile)
            .rom(profile.rom_base, &[0; 16])
            .ram(profile.ram_base, 0x2000) // different RAM size
            .build()
            .unwrap();
        assert!(m2.restore(&snap).is_err());
    }
}
