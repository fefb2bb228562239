//! Program generation and mutation.
//!
//! The mutator is shared by both fuzzing strategies; the difference is how
//! much interface knowledge it applies:
//!
//! - **Syz**: argument kinds from the syscall descriptions keep slots,
//!   sizes and offsets in their natural ranges;
//! - **Tardis**: only the interface *shape* (numbers and arities) is used;
//!   argument values are unconstrained.
//!
//! Both splice dictionary constants into arguments — byte-wise and whole —
//! which is what lets coverage-guided search climb staged magic-value
//! gates one comparison at a time.

use embsan_guestos::executor::{ExecProgram, MAX_ARGS};

use crate::descs::{ArgKind, SyscallDesc};
use crate::dictionary::Dictionary;
use crate::fuzzer::Strategy;
use crate::rng::SplitMix64;

/// Most calls a generated or mutated program holds.
const MAX_CALLS: usize = 12;

/// Interesting boundary values mixed into numeric arguments.
const INTERESTING: [u32; 8] = [0, 1, 7, 8, 0xFF, 0x100, 0xFFFF, u32::MAX];

/// Program generator/mutator.
#[derive(Debug)]
pub struct Mutator {
    descs: Vec<SyscallDesc>,
    dict: Dictionary,
    strategy: Strategy,
}

impl Mutator {
    /// Creates a mutator over the given interface.
    ///
    /// # Panics
    ///
    /// Panics if `descs` is empty.
    pub fn new(descs: Vec<SyscallDesc>, dict: Dictionary, strategy: Strategy) -> Mutator {
        assert!(!descs.is_empty(), "mutator needs at least one syscall description");
        Mutator { descs, dict, strategy }
    }

    fn gen_value(&self, rng: &mut SplitMix64) -> u32 {
        match rng.range_u32(0, 4) {
            0 => INTERESTING[rng.range_usize(0, INTERESTING.len())],
            1 => self.dict.pick(rng.gen_usize()).unwrap_or_else(|| rng.gen_u32()),
            2 => rng.range_u32(0, 1024),
            _ => rng.gen_u32(),
        }
    }

    /// Generates one argument appropriate for `kind`.
    fn gen_arg(&self, kind: ArgKind, rng: &mut SplitMix64) -> u32 {
        if self.strategy == Strategy::Tardis {
            // Shape-only: no kind knowledge.
            return self.gen_value(rng);
        }
        match kind {
            ArgKind::Slot => rng.range_u32(0, 8),
            ArgKind::Size => match rng.range_u32(0, 3) {
                0 => rng.range_u32(1, 64),
                1 => rng.range_u32(1, 1024),
                _ => INTERESTING[rng.range_usize(0, INTERESTING.len())],
            },
            ArgKind::Offset => rng.range_u32(0, 1100),
            ArgKind::Value | ArgKind::Key => self.gen_value(rng),
        }
    }

    /// Generates a call from a random description.
    fn gen_call(&self, rng: &mut SplitMix64) -> (u8, Vec<u32>) {
        let desc = &self.descs[rng.range_usize(0, self.descs.len())];
        let args = desc.args.iter().map(|&k| self.gen_arg(k, rng)).collect();
        (desc.nr, args)
    }

    /// Generates a fresh program of 1–8 calls.
    pub fn generate(&self, rng: &mut SplitMix64) -> ExecProgram {
        let mut program = ExecProgram::new();
        for _ in 0..rng.range_usize_incl(1, 8usize.min(MAX_CALLS)) {
            let (nr, args) = self.gen_call(rng);
            program.push(nr, &args);
        }
        program
    }

    /// Mutates one argument value in place.
    fn mutate_value(&self, value: u32, rng: &mut SplitMix64) -> u32 {
        match rng.range_u32(0, 6) {
            0 => value ^ (1 << rng.range_u32(0, 32)), // bit flip
            1 => {
                // Replace one byte with a random byte.
                let shift = 8 * rng.range_u32(0, 4);
                (value & !(0xFF << shift)) | (u32::from(rng.gen_u8()) << shift)
            }
            2 => {
                // Splice a dictionary byte into one byte position — the
                // stage-climbing move for byte-compared gates.
                let byte = self.dict.pick(rng.gen_usize()).unwrap_or_else(|| rng.gen_u32()) & 0xFF;
                let shift = 8 * rng.range_u32(0, 4);
                (value & !(0xFF << shift)) | (byte << shift)
            }
            3 => self.dict.pick(rng.gen_usize()).unwrap_or_else(|| rng.gen_u32()),
            4 => value.wrapping_add(rng.range_u32(0, 8)).wrapping_sub(4),
            _ => INTERESTING[rng.range_usize(0, INTERESTING.len())],
        }
    }

    fn kind_of(&self, nr: u8, arg_index: usize) -> ArgKind {
        self.descs
            .iter()
            .find(|d| d.nr == nr)
            .and_then(|d| d.args.get(arg_index))
            .copied()
            .unwrap_or(ArgKind::Value)
    }

    /// Produces a mutated copy of `program` (1–3 stacked mutations).
    pub fn mutate(&self, program: &ExecProgram, rng: &mut SplitMix64) -> ExecProgram {
        let mut out = program.clone();
        for _ in 0..rng.range_usize_incl(1, 3) {
            let choice = rng.range_u32(0, 100);
            match choice {
                // Insert a generated call at a random position.
                0..=19 if out.calls.len() < MAX_CALLS => {
                    let (nr, args) = self.gen_call(rng);
                    let at = rng.range_usize_incl(0, out.calls.len());
                    out.calls.insert(at, embsan_guestos::executor::ExecCall::new(nr, &args));
                }
                // Remove a call.
                20..=29 if out.calls.len() > 1 => {
                    let at = rng.range_usize(0, out.calls.len());
                    out.calls.remove(at);
                }
                // Duplicate a call (races often need repetition).
                30..=39 if !out.calls.is_empty() && out.calls.len() < MAX_CALLS => {
                    let at = rng.range_usize(0, out.calls.len());
                    let call = out.calls[at].clone();
                    out.calls.insert(at, call);
                }
                // Mutate one argument.
                _ if !out.calls.is_empty() => {
                    let at = rng.range_usize(0, out.calls.len());
                    let call = &mut out.calls[at];
                    if call.args.is_empty() {
                        if call.args.len() < MAX_ARGS && rng.gen_bool(0.3) {
                            call.args.push(self.gen_value(rng));
                        }
                        continue;
                    }
                    let arg_at = rng.range_usize(0, call.args.len());
                    let nr = call.nr;
                    if self.strategy == Strategy::Syz && rng.gen_bool(0.5) {
                        // Regenerate by kind.
                        call.args[arg_at] = self.gen_arg(self.kind_of(nr, arg_at), rng);
                    } else {
                        call.args[arg_at] = self.mutate_value(call.args[arg_at], rng);
                    }
                }
                _ => {}
            }
        }
        if out.calls.is_empty() {
            return self.generate(rng);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descs::base_descriptions;

    fn mutator(strategy: Strategy) -> Mutator {
        Mutator::new(base_descriptions(), Dictionary::default(), strategy)
    }

    #[test]
    fn generation_respects_limits() {
        let m = mutator(Strategy::Syz);
        let mut rng = SplitMix64::seed_from_u64(1);
        for _ in 0..200 {
            let program = m.generate(&mut rng);
            assert!(!program.calls.is_empty());
            assert!(program.calls.len() <= 12);
            for call in &program.calls {
                assert!(call.args.len() <= MAX_ARGS);
                // Generated calls use described syscalls only.
                assert!(m.descs.iter().any(|d| d.nr == call.nr));
            }
        }
    }

    #[test]
    fn mutation_preserves_validity_and_changes_programs() {
        let m = mutator(Strategy::Syz);
        let mut rng = SplitMix64::seed_from_u64(2);
        let base = m.generate(&mut rng);
        let mut changed = 0;
        for _ in 0..100 {
            let mutated = m.mutate(&base, &mut rng);
            assert!(!mutated.calls.is_empty());
            assert!(mutated.calls.len() <= 12);
            if mutated != base {
                changed += 1;
            }
        }
        assert!(changed > 90, "mutations almost always change the program");
    }

    #[test]
    fn deterministic_under_seed() {
        let m = mutator(Strategy::Tardis);
        let mut a = SplitMix64::seed_from_u64(7);
        let mut b = SplitMix64::seed_from_u64(7);
        for _ in 0..50 {
            assert_eq!(m.generate(&mut a), m.generate(&mut b));
        }
    }

    #[test]
    fn wide_operands_leave_the_rng_stream_alone() {
        let dict = Dictionary::from_values(&[0x41, 0x1000, 0xBEEF]);
        let plain = Mutator::new(base_descriptions(), dict.clone(), Strategy::Tardis);
        let wide = dict.with_wide(&[0x1234_5678]);
        let loaded = Mutator::new(base_descriptions(), wide, Strategy::Tardis);
        let mut a = SplitMix64::seed_from_u64(99);
        let mut b = SplitMix64::seed_from_u64(99);
        let base = plain.generate(&mut a);
        loaded.generate(&mut b);
        assert_eq!(a.state(), b.state(), "RNG streams diverged");
        for _ in 0..200 {
            plain.mutate(&base, &mut a);
            loaded.mutate(&base, &mut b);
            assert_eq!(a.state(), b.state(), "RNG streams diverged");
        }
    }

    #[test]
    fn wide_operands_join_the_constant_pool() {
        let key = 0x1234_5678u32;
        let wide = Dictionary::default().with_wide(&[key]);
        let m = Mutator::new(base_descriptions(), wide, Strategy::Tardis);
        let mut rng = SplitMix64::seed_from_u64(5);
        let base = m.generate(&mut rng);
        let mut seen = false;
        for _ in 0..2000 {
            let mutated = m.mutate(&base, &mut rng);
            if mutated.calls.iter().any(|c| c.args.contains(&key)) {
                seen = true;
                break;
            }
        }
        assert!(seen, "harvested operand never spliced whole into an argument");
    }

    #[test]
    fn syz_keeps_slots_in_range() {
        let m = mutator(Strategy::Syz);
        let mut rng = SplitMix64::seed_from_u64(3);
        for _ in 0..500 {
            let program = m.generate(&mut rng);
            for call in &program.calls {
                if call.nr == embsan_guestos::executor::sys::ALLOC {
                    assert!(call.args[1] < 8, "slot argument in range");
                }
            }
        }
    }
}
