//! Immediate-constant dictionary extracted from firmware binaries.
//!
//! The classic binary-fuzzing trick: comparison constants in the target
//! usually appear as immediates in its code. Scanning the firmware's text
//! section for `addi rd, r0, imm` / `li`-style materializations and branch
//! comparisons yields a dictionary that mutation splices into arguments —
//! which is how magic-gated paths (like real kernels' command codes) become
//! reachable without symbolic execution.
//!
//! A wide (multi-piece) constant appears in the text only as disjoint
//! `lui`/`ori` halves. Those come from the analysis crate's operand harvest
//! instead ([`Dictionary::with_wide`], the `embsan fuzz --analysis` path):
//! a *directed* campaign is one whose dictionary carries harvested wide
//! entries.

use embsan_asm::image::FirmwareImage;
use embsan_emu::isa::{Insn, Reg, Word};
use embsan_emu::profile::ArchProfile;

/// A dictionary of interesting constants.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    values: Vec<u32>,
    /// Harvested wide comparison operands, sorted and deduplicated. They
    /// follow `values` in the constant pool; empty for an undirected
    /// campaign, which leaves every draw as it was without them.
    wide: Vec<u32>,
}

impl Dictionary {
    /// Extracts a dictionary from a firmware image's text section.
    ///
    /// Works on stripped images too — only the instruction stream is
    /// needed.
    pub fn extract(image: &FirmwareImage) -> Dictionary {
        let profile = ArchProfile::for_arch(image.arch);
        let mut values = Vec::new();
        for chunk in image.text.chunks_exact(4) {
            let word = Word::from_bytes([chunk[0], chunk[1], chunk[2], chunk[3]], profile.endian);
            let Ok(insn) = Insn::decode(word) else { continue };
            let interesting = match insn {
                // Constant materialization into a register.
                Insn::Addi { rs1: Reg::R0, imm, .. } => Some(imm as u32),
                Insn::Ori { imm, .. } | Insn::Xori { imm, .. } => Some(imm as u32),
                Insn::Slti { imm, .. } | Insn::Sltiu { imm, .. } => Some(imm as u32),
                Insn::Lui { imm, .. } => Some(imm),
                _ => None,
            };
            if let Some(value) = interesting {
                if value != 0 && !values.contains(&value) {
                    values.push(value);
                }
            }
        }
        Dictionary { values, wide: Vec::new() }
    }

    /// Builds a dictionary from explicit values (tests, replayed
    /// checkpoints).
    pub fn from_values(values: &[u32]) -> Dictionary {
        Dictionary { values: values.to_vec(), wide: Vec::new() }
    }

    /// Adds harvested wide comparison operands (sorted and deduplicated
    /// here). They join the constant pool after the extracted values, and
    /// the deterministic stage substitutes each one whole.
    pub fn with_wide(mut self, operands: &[u32]) -> Dictionary {
        self.wide.extend_from_slice(operands);
        self.wide.sort_unstable();
        self.wide.dedup();
        self
    }

    /// The extracted constants.
    pub fn values(&self) -> &[u32] {
        &self.values
    }

    /// The harvested wide operands, sorted ascending.
    pub fn wide(&self) -> &[u32] {
        &self.wide
    }

    /// Whether the constant pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of entries in the constant pool (extracted plus wide).
    pub fn len(&self) -> usize {
        self.values.len() + self.wide.len()
    }

    /// Picks a pool entry — extracted values first, then wide operands —
    /// by an arbitrary index (callers supply randomness). One index covers
    /// the whole pool, so the caller's RNG stream does not depend on
    /// whether wide operands are loaded.
    pub fn pick(&self, index: usize) -> Option<u32> {
        if self.is_empty() {
            return None;
        }
        let at = index % self.len();
        Some(self.values.get(at).copied().unwrap_or_else(|| self.wide[at - self.values.len()]))
    }

    /// The byte-sized entries (values < 256), used by byte-splice mutation
    /// and the deterministic dictionary stage. Single-byte comparisons —
    /// staged magic gates — always draw from this set.
    pub fn bytes(&self) -> Vec<u8> {
        self.values.iter().filter(|&&v| v < 256).map(|&v| v as u8).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embsan_emu::profile::Arch;
    use embsan_guestos::bugs::{gate_stages, BugKind, BugSpec};
    use embsan_guestos::{os, BuildOptions};

    #[test]
    fn extracts_gate_constants_from_stripped_firmware() {
        let spec = BugSpec::new("victim/path", BugKind::OobWrite);
        let opts = BuildOptions::new(Arch::Armv);
        let image = os::vxworks::build(&opts, std::slice::from_ref(&spec)).unwrap();
        assert!(!image.has_symbols());
        let dict = Dictionary::extract(&image);
        assert!(!dict.is_empty());
        let [s0, s1] = gate_stages("victim/path");
        assert!(
            dict.values().contains(&u32::from(s0)) || s0 == 0,
            "stage-1 gate constant must be in the dictionary"
        );
        assert!(
            dict.values().contains(&u32::from(s1)) || s1 == 0,
            "stage-2 gate constant must be in the dictionary"
        );
    }

    #[test]
    fn pick_is_total_over_nonempty_dictionaries() {
        let dict = Dictionary::from_values(&[1, 2, 3]);
        assert_eq!(dict.pick(0), Some(1));
        assert_eq!(dict.pick(4), Some(2));
        assert_eq!(Dictionary::default().pick(7), None);
    }

    #[test]
    fn wide_operands_follow_the_extracted_values() {
        let dict =
            Dictionary::from_values(&[7, 9]).with_wide(&[0x5000_0000, 0x1234_5678, 0x5000_0000]);
        assert_eq!(dict.wide(), &[0x1234_5678, 0x5000_0000]);
        assert_eq!(dict.len(), 4);
        let pool: Vec<u32> = (0..4).filter_map(|i| dict.pick(i)).collect();
        assert_eq!(pool, [7, 9, 0x1234_5678, 0x5000_0000]);
        assert_eq!(Dictionary::default().with_wide(&[0x1234_5678]).pick(5), Some(0x1234_5678));
        // Wide operands never reach the byte splices.
        assert_eq!(dict.bytes(), [7, 9]);
    }
}
