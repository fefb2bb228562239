//! Static analysis for the EMBSAN reproduction.
//!
//! Passes over a [`FirmwareImage`](embsan_asm::image::FirmwareImage),
//! composing with the dynamic pipeline rather than replacing it:
//!
//! - [`cfg`] — CFG recovery straight from the text section: linear-sweep +
//!   recursive-descent decoding through the emulator's codec, basic blocks,
//!   call graph, dominator tree, reachability from the entry point, and
//!   address-taken function-pointer targets (indirect dispatch).
//! - [`audit`] — the probe-coverage auditor: cross-checks the block
//!   translator's spliced memory probes against an independent static
//!   enumeration of load/store/atomic sites, in both directions.
//! - [`allocsig`] — static allocator-signature detection, exported as
//!   ranked [`PriorKnowledge`](embsan_core::probe::PriorKnowledge) so the
//!   D-binary Prober verifies candidates against one recorded boot trace
//!   instead of running a separate discovery pass.
//! - [`races`] — lockset-based race candidates: shared RAM addresses
//!   reached on paths not provably holding an AMO spinlock, ranked for the
//!   KCSAN engine's watchpoint prioritization.
//! - [`compare`] — comparison-operand harvesting: multi-byte constants
//!   tested by compare/branch instructions, reassembled by constant
//!   propagation, with their guarding blocks.
//! - [`artifact`] — the versioned `embsan-analysis-v2` JSON document that
//!   packages the harvest so one analysis run feeds many directed
//!   campaigns.

pub mod allocsig;
pub mod artifact;
pub mod audit;
pub mod cfg;
pub mod compare;
pub mod races;

pub use allocsig::{function_signatures, static_priors, static_priors_from_cfg, FnSignature};
pub use artifact::AnalysisArtifact;
pub use audit::{audit, audit_with, AuditError, AuditReport};
pub use cfg::{BasicBlock, Cfg, Function, MemSite, VIRTUAL_ROOT};
pub use compare::{harvest, CmpOperand};
pub use races::{lock_functions, race_candidates, watchpoint_priorities, RaceCandidate};
