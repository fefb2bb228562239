//! Sanitizer reports: classification, KASAN-style rendering, deduplication.

use embsan_asm::image::FirmwareImage;

/// Classification of a detected violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BugClass {
    /// Out-of-bounds access on a heap object (into slack or unallocated
    /// heap).
    HeapOob,
    /// Out-of-bounds access into a global object's redzone.
    GlobalOob,
    /// Access to freed (quarantined) memory.
    Uaf,
    /// Second free of an already-freed chunk.
    DoubleFree,
    /// Free of an address that was never allocated.
    InvalidFree,
    /// Dereference inside the null guard page.
    NullDeref,
    /// Concurrent conflicting accesses (KCSAN).
    Race,
    /// Access to unmapped or otherwise wild memory.
    WildAccess,
    /// Read of never-initialized heap memory (the UMSAN extension engine).
    UninitRead,
}

impl BugClass {
    /// Short label used in report headers.
    pub fn label(self) -> &'static str {
        match self {
            BugClass::HeapOob => "slab-out-of-bounds",
            BugClass::GlobalOob => "global-out-of-bounds",
            BugClass::Uaf => "use-after-free",
            BugClass::DoubleFree => "double-free",
            BugClass::InvalidFree => "invalid-free",
            BugClass::NullDeref => "null-ptr-deref",
            BugClass::Race => "data-race",
            BugClass::WildAccess => "wild-memory-access",
            BugClass::UninitRead => "uninit-read",
        }
    }

    /// Stable wire code for journal serialization. Codes are append-only:
    /// never renumber an existing class, or resumed campaigns written by an
    /// older build would mis-seed their dedup state.
    pub fn code(self) -> u8 {
        match self {
            BugClass::HeapOob => 0,
            BugClass::GlobalOob => 1,
            BugClass::Uaf => 2,
            BugClass::DoubleFree => 3,
            BugClass::InvalidFree => 4,
            BugClass::NullDeref => 5,
            BugClass::Race => 6,
            BugClass::WildAccess => 7,
            BugClass::UninitRead => 8,
        }
    }

    /// Inverse of [`BugClass::code`]; `None` for unknown codes (a journal
    /// written by a newer build).
    pub fn from_code(code: u8) -> Option<BugClass> {
        Some(match code {
            0 => BugClass::HeapOob,
            1 => BugClass::GlobalOob,
            2 => BugClass::Uaf,
            3 => BugClass::DoubleFree,
            4 => BugClass::InvalidFree,
            5 => BugClass::NullDeref,
            6 => BugClass::Race,
            7 => BugClass::WildAccess,
            8 => BugClass::UninitRead,
            _ => return None,
        })
    }

    /// The bug-class label used by the paper's tables.
    pub fn paper_class(self) -> &'static str {
        match self {
            BugClass::HeapOob | BugClass::GlobalOob | BugClass::WildAccess => "OOB Access",
            BugClass::Uaf => "UAF",
            BugClass::DoubleFree | BugClass::InvalidFree => "Double Free",
            BugClass::NullDeref => "Null-pointer-deref",
            BugClass::Race => "Race",
            BugClass::UninitRead => "Uninit Read",
        }
    }
}

impl std::fmt::Display for BugClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Heap-chunk context attached to heap reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkInfo {
    /// Object address.
    pub addr: u32,
    /// Requested size.
    pub size: u32,
    /// Allocation site (guest pc).
    pub alloc_pc: u32,
    /// Free site, if the chunk was freed.
    pub free_pc: Option<u32>,
}

/// The second party of a data race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceOther {
    /// Program counter of the conflicting access.
    pub pc: u32,
    /// vCPU of the conflicting access.
    pub cpu: usize,
    /// Whether the conflicting access was a write.
    pub is_write: bool,
}

/// One sanitizer report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Violation class.
    pub class: BugClass,
    /// Faulting guest address.
    pub addr: u32,
    /// Access width in bytes (0 when not applicable).
    pub size: u8,
    /// Whether the access was a write.
    pub is_write: bool,
    /// Program counter of the access.
    pub pc: u32,
    /// vCPU index.
    pub cpu: usize,
    /// Heap-chunk context, when known.
    pub chunk: Option<ChunkInfo>,
    /// Race second party, for [`BugClass::Race`].
    pub other: Option<RaceOther>,
    /// Call-site signature: a hash of the return addresses on the guest
    /// stack, where the runtime takes one (frees, whose pc falls in shared
    /// allocator code), else 0. Part of [`Report::dedup_key`].
    pub site: u64,
}

impl Report {
    /// The key used for deduplication, by the runtime and by every fuzzing
    /// driver alike: class, reporting pc and call-site signature.
    ///
    /// Real deployments dedup by stack hash; a single frame is the
    /// equivalent here since guest functions are small, except where the
    /// pc falls in shared code, which the call-site signature separates.
    pub fn dedup_key(&self) -> (BugClass, u32, u64) {
        (self.class, self.pc, self.site)
    }

    /// A stable 64-bit classified signature for cross-campaign
    /// deduplication: FNV-1a over the class code and the access shape
    /// (pc, addr, size, direction). Unlike [`Report::dedup_key`] this
    /// folds in the faulting address so two campaigns of the same firmware
    /// that hit the same site through different objects still collide only
    /// when the whole access shape matches, and it serializes as one u64
    /// for store keys and wire formats.
    pub fn signature(&self) -> u64 {
        let mut bytes = vec![self.class.code()];
        bytes.extend(self.pc.to_le_bytes());
        bytes.extend(self.addr.to_le_bytes());
        bytes.extend([self.size, u8::from(self.is_write)]);
        embsan_emu::hash::fnv1a(&bytes)
    }

    /// Renders a KASAN-style textual report; with an unstripped firmware
    /// image, addresses are symbolized to function names.
    pub fn render(&self, image: Option<&FirmwareImage>) -> String {
        let sym = |addr: u32| -> String {
            image
                .and_then(|img| img.function_at(addr))
                .map(|s| format!("{addr:#010x} ({}+{:#x})", s.name, addr - s.addr))
                .unwrap_or_else(|| format!("{addr:#010x}"))
        };
        let mut out = String::new();
        out.push_str("==================================================================\n");
        out.push_str(&format!("BUG: EMBSAN: {} in {}\n", self.class, sym(self.pc)));
        out.push_str(&format!(
            "{} of size {} at addr {:#010x} on cpu {}\n",
            if self.is_write { "Write" } else { "Read" },
            self.size,
            self.addr,
            self.cpu
        ));
        if let Some(chunk) = &self.chunk {
            out.push_str(&format!(
                "The buggy address belongs to the object at {:#010x} of size {}\n",
                chunk.addr, chunk.size
            ));
            out.push_str(&format!("Allocated at {}\n", sym(chunk.alloc_pc)));
            if let Some(free_pc) = chunk.free_pc {
                out.push_str(&format!("Freed at {}\n", sym(free_pc)));
            }
        }
        if let Some(other) = &self.other {
            out.push_str(&format!(
                "Racing {} at {} on cpu {}\n",
                if other.is_write { "write" } else { "read" },
                sym(other.pc),
                other.cpu
            ));
        }
        out.push_str("==================================================================\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            class: BugClass::Uaf,
            addr: 0x20_0040,
            size: 4,
            is_write: false,
            pc: 0x1_0100,
            cpu: 0,
            chunk: Some(ChunkInfo {
                addr: 0x20_0040,
                size: 24,
                alloc_pc: 0x1_0050,
                free_pc: Some(0x1_0060),
            }),
            other: None,
            site: 0,
        }
    }

    #[test]
    fn renders_kasan_style_text() {
        let text = sample().render(None);
        assert!(text.contains("BUG: EMBSAN: use-after-free"));
        assert!(text.contains("Read of size 4 at addr 0x00200040"));
        assert!(text.contains("Allocated at 0x00010050"));
        assert!(text.contains("Freed at 0x00010060"));
    }

    #[test]
    fn dedup_key_ignores_addresses() {
        let a = sample();
        let mut b = sample();
        b.addr = 0x20_0F00; // different chunk, same pc
        assert_eq!(a.dedup_key(), b.dedup_key());
        let mut c = sample();
        c.pc = 0x1_0104;
        assert_ne!(a.dedup_key(), c.dedup_key());
        // Two call sites reaching the same shared free stay apart.
        let mut d = sample();
        d.site = 0x5EED;
        assert_ne!(a.dedup_key(), d.dedup_key());
    }

    #[test]
    fn signature_separates_access_shapes() {
        let a = sample();
        let same = sample();
        assert_eq!(a.signature(), same.signature());
        let mut other_addr = sample();
        other_addr.addr = 0x20_0F00;
        assert_ne!(a.signature(), other_addr.signature(), "addr is part of the shape");
        let mut other_dir = sample();
        other_dir.is_write = true;
        assert_ne!(a.signature(), other_dir.signature());
        let mut other_chunk = sample();
        other_chunk.chunk = None; // context is not part of the shape
        assert_eq!(a.signature(), other_chunk.signature());
    }

    #[test]
    fn paper_classes() {
        assert_eq!(BugClass::HeapOob.paper_class(), "OOB Access");
        assert_eq!(BugClass::GlobalOob.paper_class(), "OOB Access");
        assert_eq!(BugClass::DoubleFree.paper_class(), "Double Free");
        assert_eq!(BugClass::Race.paper_class(), "Race");
    }
}
