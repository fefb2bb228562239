//! Physical memory bus: ROM, RAM, MMIO window, and fault generation.

use std::sync::Arc;

use crate::cow::{FrozenPages, PagedBytes};
use crate::device::DeviceSet;
use crate::error::Fault;
use crate::mmio_free::ModelFreeMmio;
use crate::profile::{ArchProfile, Endian};

/// End of the null guard page: accesses below this address fault as
/// [`Fault::NullPage`], which the EMBSAN runtime classifies as
/// null-pointer dereferences.
pub const NULL_GUARD_END: u32 = 0x1000;

/// The kind of a guest memory access, as seen by sanitizer probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// A plain load.
    Read,
    /// A plain store.
    Write,
    /// An atomic read-modify-write (counts as both for race detection).
    AtomicRmw,
}

impl MemKind {
    /// Whether this access writes memory.
    pub fn is_write(self) -> bool {
        matches!(self, MemKind::Write | MemKind::AtomicRmw)
    }

    /// Whether this access reads memory.
    pub fn is_read(self) -> bool {
        matches!(self, MemKind::Read | MemKind::AtomicRmw)
    }
}

/// A sanitizer-visible description of one guest memory access.
///
/// Probes run *before* the access is performed, matching how compiler
/// sanitizers insert checks before the instruction; `value` therefore only
/// carries the to-be-written value for stores (zero for loads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Guest physical address.
    pub addr: u32,
    /// Access width in bytes (1, 2 or 4).
    pub size: u8,
    /// Load / store / atomic.
    pub kind: MemKind,
    /// For writes: the value being written. Zero for reads.
    pub value: u32,
    /// Program counter of the accessing instruction.
    pub pc: u32,
    /// Index of the accessing vCPU.
    pub cpu: usize,
}

#[derive(Debug, Clone)]
struct Region {
    base: u32,
    data: Vec<u8>,
}

impl Region {
    fn contains(&self, addr: u32, size: u32) -> bool {
        addr >= self.base
            && u64::from(addr) + u64::from(size) <= u64::from(self.base) + self.data.len() as u64
    }
}

/// The machine's physical memory bus.
///
/// Address space layout: a null guard page at the bottom, a read-only ROM,
/// a RAM region, and an MMIO window dispatching to [`DeviceSet`]. All other
/// addresses fault.
#[derive(Debug, Clone)]
pub struct Bus {
    endian: Endian,
    rom: Region,
    ram_base: u32,
    /// Guest RAM: a sparse page table that owns only the pages boot wrote,
    /// and a copy-on-write fork of an `Arc`-shared base image once frozen or
    /// restored (see [`crate::snapshot`]). Forked workers then hold only the
    /// private pages they dirty — O(dirty), not O(RAM).
    ram: PagedBytes,
    mmio_base: u32,
    mmio_size: u32,
    /// Remaining guest MMIO reads corrupted by an injected bus fault.
    mmio_xor_reads: u32,
    /// Corruption mask XOR-ed into corrupted MMIO reads.
    mmio_xor: u32,
    /// When set, the platform device window is *withheld*: guest accesses
    /// to it are not dispatched to [`DeviceSet`] and instead fall through
    /// to the model-free region (which must cover the window) — the
    /// "fuzz firmware whose MMIO map we don't know" mode. Host-side
    /// device access is unaffected.
    mmio_withheld: bool,
    /// The platform devices. Public so hosts (fuzzers, benches, the prober)
    /// can drive the mailbox and read the UART.
    pub devices: DeviceSet,
}

impl Bus {
    /// Creates a bus for `profile` with the given ROM image and RAM size.
    pub fn new(
        profile: &ArchProfile,
        rom_base: u32,
        rom: Vec<u8>,
        ram_base: u32,
        ram_size: u32,
        rng_seed: u64,
    ) -> Bus {
        Bus {
            endian: profile.endian,
            rom: Region { base: rom_base, data: rom },
            ram_base,
            ram: PagedBytes::zeroed(ram_size as usize),
            mmio_base: profile.mmio_base,
            mmio_size: profile.mmio_size,
            mmio_xor_reads: 0,
            mmio_xor: 0,
            mmio_withheld: false,
            devices: DeviceSet::new(rng_seed),
        }
    }

    /// Installs a model-free MMIO region answering reads in
    /// `base..base+size` from a fuzzer-controlled response stream (see
    /// [`crate::mmio_free`]). With `withhold_devices`, the platform
    /// device window is additionally hidden from the guest so its
    /// accesses fall through to the model-free region — the region must
    /// then cover the window.
    pub fn enable_model_free(&mut self, base: u32, size: u32, withhold_devices: bool) {
        self.devices.model_free = Some(ModelFreeMmio::new(base, size));
        self.mmio_withheld = withhold_devices;
        if withhold_devices {
            let mf = self.devices.model_free.as_ref().expect("just installed");
            assert!(
                mf.contains(self.mmio_base, 1)
                    && mf.contains(self.mmio_base.saturating_add(self.mmio_size - 1), 1),
                "withheld device window must be covered by the model-free region"
            );
        }
    }

    /// Whether the platform device window is withheld from the guest.
    pub fn mmio_is_withheld(&self) -> bool {
        self.mmio_withheld
    }

    /// Opens a fault-injection window: the next `reads` guest MMIO reads
    /// return their data XOR-ed with `xor` (a flaky peripheral bus).
    pub fn arm_mmio_corruption(&mut self, xor: u32, reads: u32) {
        self.mmio_xor = xor;
        self.mmio_xor_reads = reads;
    }

    /// Remaining MMIO reads in the current corruption window.
    pub fn mmio_corruption_pending(&self) -> u32 {
        self.mmio_xor_reads
    }

    /// Guest memory byte order.
    pub fn endian(&self) -> Endian {
        self.endian
    }

    /// The RAM region as `(base, size)`.
    pub fn ram_range(&self) -> (u32, u32) {
        (self.ram_base, self.ram.len() as u32)
    }

    /// Whether `addr..addr+size` falls entirely inside RAM (internal,
    /// byte-offset form of [`Bus::is_ram`]).
    #[inline]
    fn ram_contains(&self, addr: u32, size: u32) -> bool {
        addr >= self.ram_base
            && u64::from(addr) + u64::from(size) <= u64::from(self.ram_base) + self.ram.len() as u64
    }

    /// The ROM region as `(base, size)`.
    pub fn rom_range(&self) -> (u32, u32) {
        (self.rom.base, self.rom.data.len() as u32)
    }

    /// Whether `addr` falls inside the MMIO window (device memory is not
    /// sanitized).
    pub fn is_mmio(&self, addr: u32) -> bool {
        addr >= self.mmio_base && addr < self.mmio_base.saturating_add(self.mmio_size)
    }

    /// Whether `addr..addr+size` falls entirely inside RAM.
    pub fn is_ram(&self, addr: u32, size: u32) -> bool {
        self.ram_contains(addr, size)
    }

    fn classify_fault(&self, addr: u32, is_write: bool) -> Fault {
        if addr < NULL_GUARD_END {
            Fault::NullPage { addr, is_write }
        } else {
            Fault::Unmapped { addr, is_write }
        }
    }

    fn load_int(bytes: &[u8], endian: Endian) -> u32 {
        let mut value: u32 = 0;
        match endian {
            Endian::Little => {
                for (i, byte) in bytes.iter().enumerate() {
                    value |= u32::from(*byte) << (8 * i);
                }
            }
            Endian::Big => {
                for byte in bytes {
                    value = value << 8 | u32::from(*byte);
                }
            }
        }
        value
    }

    fn store_int(bytes: &mut [u8], endian: Endian, value: u32) {
        match endian {
            Endian::Little => {
                for (i, byte) in bytes.iter_mut().enumerate() {
                    *byte = (value >> (8 * i)) as u8;
                }
            }
            Endian::Big => {
                let n = bytes.len();
                for (i, byte) in bytes.iter_mut().enumerate() {
                    *byte = (value >> (8 * (n - 1 - i))) as u8;
                }
            }
        }
    }

    /// Performs a guest read of `size` bytes (1, 2 or 4) at `addr`
    /// without an attributed program counter (host-side and legacy
    /// callers). Guest instruction paths use [`Bus::read_at`] so
    /// model-free responses are cached per read *site*.
    ///
    /// # Errors
    ///
    /// Faults on misalignment, the null guard page, and unmapped addresses.
    pub fn read(&mut self, addr: u32, size: u8) -> Result<u32, Fault> {
        self.read_at(addr, size, 0)
    }

    /// Performs a guest read of `size` bytes (1, 2 or 4) at `addr` from
    /// the instruction at `pc`.
    ///
    /// # Errors
    ///
    /// Faults on misalignment, the null guard page, and unmapped addresses.
    pub fn read_at(&mut self, addr: u32, size: u8, pc: u32) -> Result<u32, Fault> {
        if misaligned(addr, size) {
            return Err(Fault::Misaligned { addr, size });
        }
        let len = u32::from(size);
        if self.ram_contains(addr, len) {
            let off = (addr - self.ram_base) as usize;
            // Size-aligned loads of ≤4 bytes cannot straddle a page.
            return Ok(Self::load_int(self.ram.read_slice(off, size as usize), self.endian));
        }
        if self.rom.contains(addr, len) {
            let off = (addr - self.rom.base) as usize;
            return Ok(Self::load_int(&self.rom.data[off..off + size as usize], self.endian));
        }
        if !self.mmio_withheld && self.is_mmio(addr) {
            let mut value = self.devices.read(addr - self.mmio_base);
            if self.mmio_xor_reads > 0 {
                self.mmio_xor_reads -= 1;
                value ^= self.mmio_xor;
            }
            return Ok(value);
        }
        if let Some(mf) = &mut self.devices.model_free {
            if mf.contains(addr, len) {
                return Ok(mf.read(pc, addr, size));
            }
        }
        Err(self.classify_fault(addr, false))
    }

    /// Performs a guest write of `size` bytes (1, 2 or 4) at `addr`
    /// without an attributed program counter (see [`Bus::read`]).
    ///
    /// # Errors
    ///
    /// Faults on misalignment, ROM writes, the null guard page, and unmapped
    /// addresses.
    pub fn write(&mut self, addr: u32, size: u8, value: u32) -> Result<(), Fault> {
        self.write_at(addr, size, value, 0)
    }

    /// Performs a guest write of `size` bytes (1, 2 or 4) at `addr` from
    /// the instruction at `pc`.
    ///
    /// # Errors
    ///
    /// Faults on misalignment, ROM writes, the null guard page, and unmapped
    /// addresses.
    pub fn write_at(&mut self, addr: u32, size: u8, value: u32, pc: u32) -> Result<(), Fault> {
        if misaligned(addr, size) {
            return Err(Fault::Misaligned { addr, size });
        }
        let len = u32::from(size);
        if self.ram_contains(addr, len) {
            let off = (addr - self.ram_base) as usize;
            // Size-aligned stores of ≤4 bytes cannot straddle a page.
            Self::store_int(self.ram.slice_mut(off, size as usize), self.endian, value);
            return Ok(());
        }
        if self.rom.contains(addr, len) {
            return Err(Fault::RomWrite { addr });
        }
        if !self.mmio_withheld && self.is_mmio(addr) {
            self.devices.write(addr - self.mmio_base, value);
            return Ok(());
        }
        if let Some(mf) = &mut self.devices.model_free {
            if mf.contains(addr, len) {
                mf.write(pc, addr, value);
                return Ok(());
            }
        }
        Err(self.classify_fault(addr, true))
    }

    /// Fetches the instruction word at `pc`.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::BadFetch`] if `pc` is misaligned or outside ROM/RAM.
    pub fn fetch(&self, pc: u32) -> Result<u32, Fault> {
        if !pc.is_multiple_of(4) {
            return Err(Fault::BadFetch { pc });
        }
        if self.rom.contains(pc, 4) {
            let off = (pc - self.rom.base) as usize;
            return Ok(Self::load_int(&self.rom.data[off..off + 4], self.endian));
        }
        if self.ram_contains(pc, 4) {
            // 4-byte-aligned fetches cannot straddle a page.
            let off = (pc - self.ram_base) as usize;
            return Ok(Self::load_int(self.ram.read_slice(off, 4), self.endian));
        }
        Err(Fault::BadFetch { pc })
    }

    /// The first byte of `addr..addr+len` not covered by the region the
    /// range starts in (RAM or ROM) — the exact faulting address for a
    /// byte-granular access, rather than the request base. A range that
    /// starts outside both regions faults at its base.
    fn first_uncovered_byte(&self, addr: u32, len: u32) -> u32 {
        if self.ram_contains(addr, 1) {
            // Starts in RAM: faults at the first byte past RAM's end.
            let ram_end = u64::from(self.ram_base) + self.ram.len() as u64;
            return ram_end.min(u64::from(addr) + u64::from(len) - 1) as u32;
        }
        if self.rom.contains(addr, 1) {
            let rom_end = u64::from(self.rom.base) + self.rom.data.len() as u64;
            return rom_end.min(u64::from(addr) + u64::from(len) - 1) as u32;
        }
        addr
    }

    /// Host-side bulk read from ROM or RAM (never touches devices).
    ///
    /// # Errors
    ///
    /// Faults at the exact first uncovered byte if any byte of the range
    /// is outside ROM and RAM.
    pub fn read_bytes(&self, addr: u32, buf: &mut [u8]) -> Result<(), Fault> {
        let len = buf.len() as u32;
        if self.ram_contains(addr, len) {
            let off = (addr - self.ram_base) as usize;
            self.ram.read_bytes(off, buf);
            return Ok(());
        }
        if self.rom.contains(addr, len) {
            let off = (addr - self.rom.base) as usize;
            buf.copy_from_slice(&self.rom.data[off..off + buf.len()]);
            return Ok(());
        }
        Err(self.classify_fault(self.first_uncovered_byte(addr, len.max(1)), false))
    }

    /// Host-side bulk write into RAM (used by loaders and the fuzzer to
    /// inject data without going through guest code).
    ///
    /// # Errors
    ///
    /// Faults at the exact first uncovered byte if any byte of the range
    /// is outside RAM.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), Fault> {
        let len = bytes.len() as u32;
        if self.ram_contains(addr, len) {
            let off = (addr - self.ram_base) as usize;
            self.ram.write_bytes(off, bytes);
            return Ok(());
        }
        if self.rom.contains(addr, 1) {
            // Starts in ROM: a bulk *write* is a ROM write at the base.
            return Err(Fault::RomWrite { addr });
        }
        Err(self.classify_fault(self.first_uncovered_byte(addr, len.max(1)), true))
    }

    /// The current RAM contents as an immutable shared image: the base
    /// itself when no RAM page is private, else a copy of the private ones.
    pub(crate) fn ram_image(&self) -> Arc<FrozenPages> {
        self.ram.share()
    }

    /// Freezes RAM in place as an immutable shared base and re-forks it
    /// from that base: the private pages move into the base with no byte
    /// copy, and no page is private afterwards.
    pub(crate) fn freeze_ram(&mut self) {
        self.ram.freeze();
    }

    /// Whether guest RAM currently forks from exactly `base`.
    pub fn ram_shares_base(&self, base: &Arc<FrozenPages>) -> bool {
        self.ram.shares_base(base)
    }

    /// Re-forks RAM from `base`: contents become byte-identical to the
    /// base image with no private page. O(pages) slot writes, no byte
    /// copies.
    pub(crate) fn adopt_ram(&mut self, base: &Arc<FrozenPages>) {
        self.ram.adopt(Arc::clone(base));
    }

    /// Copy-on-write restore: points every private RAM page back at its
    /// base page. O(dirty pages), and frees the worker's private memory
    /// instead of copying into it.
    pub(crate) fn restore_ram(&mut self) {
        self.ram.restore();
    }

    /// Number of RAM pages written since the last restore (telemetry).
    pub fn dirty_ram_pages(&self) -> usize {
        self.ram.overlay_pages()
    }

    /// Private bytes resident for guest RAM (0 when freshly frozen or
    /// restored; the shared base is not counted).
    pub fn ram_overlay_bytes(&self) -> usize {
        self.ram.overlay_bytes()
    }

    /// Whether guest RAM is a copy-on-write fork of a shared base.
    pub fn ram_is_forked(&self) -> bool {
        self.ram.is_forked()
    }
}

/// Whether `addr` is not a multiple of `size` (1, 2 or 4). A mask instead
/// of `u32::is_multiple_of`, whose remainder by a run-time size compiles to
/// a division on every guest load and store. Size 0 agrees too: only
/// address 0 counts as aligned.
#[inline(always)]
fn misaligned(addr: u32, size: u8) -> bool {
    addr & u32::from(size).wrapping_sub(1) != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_bus(endian: Endian) -> Bus {
        let mut profile = ArchProfile::armv();
        profile.endian = endian;
        Bus::new(&profile, 0x1_0000, vec![0xAA; 64], 0x10_0000, 0x1000, 7)
    }

    #[test]
    fn ram_read_write_roundtrip_le() {
        let mut bus = test_bus(Endian::Little);
        bus.write(0x10_0000, 4, 0xDEAD_BEEF).unwrap();
        assert_eq!(bus.read(0x10_0000, 4).unwrap(), 0xDEAD_BEEF);
        assert_eq!(bus.read(0x10_0000, 1).unwrap(), 0xEF);
        assert_eq!(bus.read(0x10_0002, 2).unwrap(), 0xDEAD);
    }

    #[test]
    fn ram_read_write_roundtrip_be() {
        let mut bus = test_bus(Endian::Big);
        bus.write(0x10_0000, 4, 0xDEAD_BEEF).unwrap();
        assert_eq!(bus.read(0x10_0000, 4).unwrap(), 0xDEAD_BEEF);
        assert_eq!(bus.read(0x10_0000, 1).unwrap(), 0xDE);
        assert_eq!(bus.read(0x10_0002, 2).unwrap(), 0xBEEF);
    }

    #[test]
    fn null_page_faults() {
        let mut bus = test_bus(Endian::Little);
        assert_eq!(bus.read(0x10, 4), Err(Fault::NullPage { addr: 0x10, is_write: false }));
        assert_eq!(bus.write(0x0, 4, 1), Err(Fault::NullPage { addr: 0x0, is_write: true }));
    }

    #[test]
    fn rom_is_read_only() {
        let mut bus = test_bus(Endian::Little);
        assert_eq!(bus.read(0x1_0000, 1).unwrap(), 0xAA);
        assert_eq!(bus.write(0x1_0000, 1, 0), Err(Fault::RomWrite { addr: 0x1_0000 }));
    }

    #[test]
    fn misaligned_access_faults() {
        let mut bus = test_bus(Endian::Little);
        assert_eq!(bus.read(0x10_0001, 4), Err(Fault::Misaligned { addr: 0x10_0001, size: 4 }));
        assert_eq!(bus.read(0x10_0001, 2), Err(Fault::Misaligned { addr: 0x10_0001, size: 2 }));
        // Byte accesses are never misaligned.
        assert!(bus.read(0x10_0001, 1).is_ok());
    }

    #[test]
    fn unmapped_faults() {
        let mut bus = test_bus(Endian::Little);
        assert_eq!(
            bus.read(0x8000_0000, 4),
            Err(Fault::Unmapped { addr: 0x8000_0000, is_write: false })
        );
    }

    #[test]
    fn region_boundary_is_exact() {
        let mut bus = test_bus(Endian::Little);
        // Last word of RAM is accessible; one past is not.
        assert!(bus.write(0x10_0FFC, 4, 1).is_ok());
        assert!(bus.write(0x10_1000, 4, 1).is_err());
        // A 4-byte access straddling the end faults.
        assert!(bus.read(0x10_0FFC, 4).is_ok());
        assert!(bus.read(0x10_1000 - 2, 2).is_ok());
    }

    #[test]
    fn mmio_dispatch() {
        let mut bus = test_bus(Endian::Little);
        let mmio = 0xF000_0000;
        bus.write(mmio, 4, u32::from(b'x')).unwrap();
        assert_eq!(bus.devices.uart.take_output(), b"x");
        assert!(bus.is_mmio(mmio));
        assert!(!bus.is_mmio(0x10_0000));
    }

    #[test]
    fn fetch_from_rom_and_ram() {
        let mut bus = test_bus(Endian::Little);
        assert_eq!(bus.fetch(0x1_0000).unwrap(), 0xAAAA_AAAA);
        bus.write(0x10_0000, 4, 0x1234_5678).unwrap();
        assert_eq!(bus.fetch(0x10_0000).unwrap(), 0x1234_5678);
        assert_eq!(bus.fetch(0x2), Err(Fault::BadFetch { pc: 2 }));
        assert_eq!(bus.fetch(0x9000_0000), Err(Fault::BadFetch { pc: 0x9000_0000 }));
    }

    #[test]
    fn host_bulk_access() {
        let mut bus = test_bus(Endian::Little);
        bus.write_bytes(0x10_0100, &[1, 2, 3, 4]).unwrap();
        let mut buf = [0u8; 4];
        bus.read_bytes(0x10_0100, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
        // Bulk reads can also see ROM.
        let mut rom_buf = [0u8; 2];
        bus.read_bytes(0x1_0000, &mut rom_buf).unwrap();
        assert_eq!(rom_buf, [0xAA, 0xAA]);
        // Bulk writes cannot touch ROM.
        assert!(bus.write_bytes(0x1_0000, &[0]).is_err());
    }

    #[test]
    fn alignment_mask_agrees_with_the_remainder() {
        for size in [0u8, 1, 2, 4] {
            for addr in (0..64).chain(u32::MAX - 64..=u32::MAX) {
                assert_eq!(misaligned(addr, size), !addr.is_multiple_of(u32::from(size)));
            }
        }
    }

    #[test]
    fn misalignment_at_device_boundaries() {
        let mut bus = test_bus(Endian::Little);
        let mmio = 0xF000_0000;
        // Halfword/word accesses at odd offsets inside the window fault as
        // misaligned before any device sees them.
        for (addr, size) in [(mmio + 0x101, 2u8), (mmio + 0x102, 4), (mmio + 0x3FE, 4)] {
            assert_eq!(bus.read(addr, size), Err(Fault::Misaligned { addr, size }));
            assert_eq!(bus.write(addr, size, 1), Err(Fault::Misaligned { addr, size }));
        }
        // The exact first and last aligned words of the window dispatch.
        assert!(bus.read(mmio, 4).is_ok());
        assert!(bus.read(mmio + 0x0FFC, 4).is_ok());
        // One word past the window is unmapped, not a device.
        assert_eq!(
            bus.read(mmio + 0x1000, 4),
            Err(Fault::Unmapped { addr: mmio + 0x1000, is_write: false })
        );
    }

    #[test]
    fn rom_write_and_null_guard_faults() {
        let mut bus = test_bus(Endian::Little);
        // Every size of ROM store faults as RomWrite at the exact address.
        for size in [1u8, 2, 4] {
            assert_eq!(bus.write(0x1_0004, size, 0), Err(Fault::RomWrite { addr: 0x1_0004 }));
        }
        // Null-guard faults cover the whole guard page, reads and writes.
        assert_eq!(bus.read(0xFFC, 4), Err(Fault::NullPage { addr: 0xFFC, is_write: false }));
        assert_eq!(bus.write(0xFFC, 4, 1), Err(Fault::NullPage { addr: 0xFFC, is_write: true }));
        // First byte past the guard is merely unmapped.
        assert_eq!(bus.read(0x1000, 4), Err(Fault::Unmapped { addr: 0x1000, is_write: false }));
    }

    #[test]
    fn bulk_access_straddling_a_region_boundary_faults_at_exact_byte() {
        let mut bus = test_bus(Endian::Little);
        // RAM is 0x10_0000..0x10_1000: a 8-byte read starting 4 bytes
        // before the end faults at the first byte past RAM, not the base.
        let mut buf = [0u8; 8];
        assert_eq!(
            bus.read_bytes(0x10_0FFC, &mut buf),
            Err(Fault::Unmapped { addr: 0x10_1000, is_write: false })
        );
        assert_eq!(
            bus.write_bytes(0x10_0FFC, &buf),
            Err(Fault::Unmapped { addr: 0x10_1000, is_write: true })
        );
        // ROM is 0x1_0000..0x1_0040: a straddling bulk read faults at the
        // first byte past ROM.
        let mut rom_buf = [0u8; 0x50];
        assert_eq!(
            bus.read_bytes(0x1_0000, &mut rom_buf),
            Err(Fault::Unmapped { addr: 0x1_0040, is_write: false })
        );
        // A range starting outside everything still faults at its base.
        assert_eq!(
            bus.read_bytes(0x8000_0000, &mut buf),
            Err(Fault::Unmapped { addr: 0x8000_0000, is_write: false })
        );
        assert_eq!(
            bus.read_bytes(0x10, &mut buf),
            Err(Fault::NullPage { addr: 0x10, is_write: false })
        );
    }

    #[test]
    fn model_free_region_answers_before_unmapped() {
        let mut bus = test_bus(Endian::Little);
        bus.enable_model_free(0x4000_0000, 0x1000, false);
        let mf = bus.devices.model_free.as_mut().unwrap();
        mf.set_stream(&[0x78, 0x56, 0x34, 0x12]);
        // Inside the region: served from the stream instead of faulting.
        assert_eq!(bus.read_at(0x4000_0010, 4, 0x100).unwrap(), 0x1234_5678);
        // Writes are absorbed.
        bus.write_at(0x4000_0010, 4, 7, 0x104).unwrap();
        assert_eq!(bus.devices.model_free.as_ref().unwrap().stats.writes, 1);
        // Outside the region: still unmapped.
        assert_eq!(
            bus.read(0x5000_0000, 4),
            Err(Fault::Unmapped { addr: 0x5000_0000, is_write: false })
        );
        // RAM and the device window are untouched by the fallback.
        bus.write(0x10_0000, 4, 9).unwrap();
        assert_eq!(bus.read(0x10_0000, 4).unwrap(), 9);
        bus.write(0xF000_0000, 4, u32::from(b'y')).unwrap();
        assert_eq!(bus.devices.uart.take_output(), b"y");
    }

    #[test]
    fn withheld_window_falls_through_to_model_free() {
        let mut bus = test_bus(Endian::Little);
        bus.enable_model_free(0xF000_0000, 0x1000, true);
        assert!(bus.mmio_is_withheld());
        bus.devices.model_free.as_mut().unwrap().set_stream(&[0xAB, 0, 0, 0]);
        // A guest UART write no longer reaches the device...
        bus.write_at(0xF000_0000, 4, u32::from(b'z'), 0x200).unwrap();
        assert!(bus.devices.uart.take_output().is_empty());
        // ...and reads come from the stream, not device registers.
        assert_eq!(bus.read_at(0xF000_0100, 4, 0x204).unwrap(), 0xAB);
    }
}
