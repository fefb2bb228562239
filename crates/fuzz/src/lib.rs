//! Kernel fuzzers for EMBSAN guest firmware.
//!
//! Stand-ins for the two fuzzers the paper pairs with EMBSAN:
//!
//! - **Syzkaller-style** ([`Strategy::Syz`]): generation and mutation driven
//!   by typed syscall [`descs`] (slot/size/offset/value/key argument kinds),
//!   used for the Embedded Linux firmware;
//! - **Tardis-style** ([`Strategy::Tardis`]): OS-agnostic — programs are
//!   mutated with interface-shape knowledge only (call count and arity),
//!   and coverage is collected from the *emulator's* translation-block
//!   events rather than any in-guest instrumentation, matching Tardis's
//!   emulator-side coverage mechanism.
//!
//! Both share AFL-style edge [`cover`]age, a [`corpus`] with
//! novelty-gating, a [`dictionary`] of immediate constants extracted from
//! the firmware binary (the classic binary-dictionary trick), crash triage
//! with program minimization, and a deterministic seeded [`campaign`]
//! driver used by the Table 3/4 benches.
//!
//! Loading an `embsan-analysis-v2` artifact upgrades either strategy to a
//! **directed** campaign: its harvested wide comparison operands join the
//! [`Dictionary`] ([`Dictionary::with_wide`]), so mutation splices them
//! and the deterministic stage substitutes each one whole. Scheduling is
//! unchanged, and with no artifact loaded the dictionary is exactly the
//! extracted one.

pub mod campaign;
pub mod corpus;
pub mod cover;
pub mod descs;
pub mod dictionary;
pub mod fuzzer;
pub mod journal;
pub mod mutate;
pub mod parallel;
pub mod rng;
pub mod supervisor;

pub use campaign::{
    run_campaign, CampaignConfig, CampaignError, CampaignErrorKind, CampaignResult, FoundBug,
};
pub use corpus::Corpus;
pub use cover::CoverageMap;
pub use descs::{descriptions_for, ArgKind, SyscallDesc};
pub use dictionary::Dictionary;
pub use fuzzer::{
    CommitSummary, CoverageSource, Finding, Fuzzer, FuzzerConfig, FuzzerState, FuzzerStats,
    Strategy,
};
pub use journal::{
    backoff_delay_ms, is_transient_io, retry_io, Journal, JournalError, LoadedJournal, Record,
    RetryPolicy, StartInfo, SupervisorHealth,
};
pub use parallel::{
    run_parallel, run_parallel_campaign, ParallelConfig, ParallelOutcome, ParallelStats,
};
pub use rng::SplitMix64;
pub use supervisor::{
    program_hash, resume_supervised, run_supervised, run_supervised_span, ResumePoint,
    SupervisedOutcome, SupervisedResult, SupervisedRun, SupervisorConfig,
};
