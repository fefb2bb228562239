//! Comparison-operand harvesting (Icicle's CompCov idiom, statically).
//!
//! [`crate::cfg`]'s constant propagation already reconstructs multi-byte
//! constants from their `lui`+`ori`/`addi` materialization sequences. This
//! pass walks every reachable compare and conditional-branch instruction
//! and records the *reassembled* operand values those comparisons test
//! against, together with the guarding block — precisely the values a
//! magic-number gate demands, which `dictionary.rs`'s immediate scan can
//! only ever see as disjoint halves.
//!
//! The harvest is deterministic: operands come out sorted and deduplicated,
//! a pure function of the image.

use std::collections::BTreeSet;

use embsan_emu::isa::{Insn, Reg};

use crate::cfg::Cfg;

/// A harvested comparison operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CmpOperand {
    /// The constant one side of the comparison resolves to.
    pub value: u32,
    /// Start address of the guarding block (the block containing the
    /// compare/branch).
    pub block: u32,
}

/// The registers a compare-like instruction tests, or `None` if the
/// instruction is not a comparison.
fn compared_regs(insn: &Insn) -> Option<(Reg, Reg)> {
    match *insn {
        Insn::Beq { rs1, rs2, .. }
        | Insn::Bne { rs1, rs2, .. }
        | Insn::Blt { rs1, rs2, .. }
        | Insn::Bltu { rs1, rs2, .. }
        | Insn::Bge { rs1, rs2, .. }
        | Insn::Bgeu { rs1, rs2, .. }
        | Insn::Slt { rs1, rs2, .. }
        | Insn::Sltu { rs1, rs2, .. } => Some((rs1, rs2)),
        _ => None,
    }
}

/// Harvests every comparison operand that constant propagation can resolve,
/// sorted by `(value, block)` and deduplicated.
///
/// Zero is skipped (every `beq rX, r0` null check would otherwise flood the
/// harvest), as are values that fit a single immediate — the plain
/// dictionary already finds those; the harvest exists for the multi-piece
/// constants it cannot.
pub fn harvest(cfg: &Cfg) -> Vec<CmpOperand> {
    let mut out = BTreeSet::new();
    for function in cfg.functions.values() {
        let states = cfg.reg_states(function);
        for &start in &function.blocks {
            let Some(&in_state) = states.get(&start) else { continue };
            let mut state = in_state;
            for (_, insn) in &cfg.blocks[&start].insns {
                if let Some((rs1, rs2)) = compared_regs(insn) {
                    for reg in [rs1, rs2] {
                        if let Some(value) = state.get(reg) {
                            if wide_constant(value) {
                                out.insert(CmpOperand { value, block: start });
                            }
                        }
                    }
                }
                state.step(insn);
            }
        }
    }
    out.into_iter().collect()
}

/// Whether a constant needs more than one immediate to materialize (both a
/// non-zero upper-20 and a non-zero low-12 part) — the shape the immediate
/// scan misses.
fn wide_constant(value: u32) -> bool {
    value & 0xFFFF_F000 != 0 && value & 0xFFF != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wide_constant_filter() {
        assert!(!wide_constant(0)); // zero
        assert!(!wide_constant(0x41)); // single addi/ori immediate
        assert!(!wide_constant(0x4000_0000)); // single lui immediate
        assert!(wide_constant(0x1234_5678)); // needs lui+ori
        assert!(wide_constant(0x1000_0001));
    }

    #[test]
    fn compared_regs_covers_branches_and_set_less_than() {
        let b = Insn::Bne { rs1: Reg::A0, rs2: Reg::A2, offset: 8 };
        assert_eq!(compared_regs(&b), Some((Reg::A0, Reg::A2)));
        let s = Insn::Sltu { rd: Reg::A1, rs1: Reg::A0, rs2: Reg::A2 };
        assert_eq!(compared_regs(&s), Some((Reg::A0, Reg::A2)));
        assert_eq!(compared_regs(&Insn::Addi { rd: Reg::A0, rs1: Reg::A0, imm: 1 }), None);
    }
}
