//! Profile-overhead benchmark: the cost of the `profile` feature when its
//! timers are compiled in but left **disabled**.
//!
//! A single binary cannot contain both the feature-off and the feature-on
//! hot paths, so the budget is enforced with a two-invocation protocol
//! (see the `profile_overhead` bin): the feature-off build measures the
//! baseline wall time of a fixed corpus-replay workload and writes it to a
//! file; the feature-on build — timers compiled in, profiler left in its
//! detached default state, exactly what every run pays unless someone
//! calls `enable_profiling` — repeats the measurement and gates the
//! ratio. Both invocations take the minimum over several rounds, which
//! filters scheduler noise far better than averaging.

use std::time::{Duration, Instant};

use embsan_core::probe::{probe, ProbeMode};
use embsan_fuzz::campaign::boot_session;
use embsan_fuzz::CampaignConfig;
use embsan_guestos::workload::merged_corpus;
use embsan_guestos::{FirmwareSpec, SanMode};
use embsan_obs::{ProfileReport, Profiler};

/// Workload and repetition parameters.
#[derive(Debug, Clone, Copy)]
pub struct ProfileWorkload {
    /// Corpus seed.
    pub seed: u32,
    /// Number of corpus programs.
    pub programs: usize,
    /// Calls per program.
    pub calls: usize,
    /// Corpus replays per timed round.
    pub repeats: usize,
    /// Timed rounds (the report keeps the minimum).
    pub rounds: usize,
}

impl Default for ProfileWorkload {
    fn default() -> ProfileWorkload {
        ProfileWorkload { seed: 0xF16, programs: 16, calls: 48, repeats: 6, rounds: 5 }
    }
}

/// One build's measurement.
#[derive(Debug, Clone)]
pub struct ProfileOverheadReport {
    /// Whether the `profile` feature is compiled into this binary.
    pub compiled: bool,
    /// Minimum wall time over all rounds.
    pub best_wall: Duration,
    /// Every round's wall time, in order.
    pub rounds: Vec<Duration>,
    /// Programs executed per round.
    pub execs_per_round: u64,
    /// Enabled-profiler phase timings, captured after the timed rounds
    /// (always present when compiled, for the report's sake; never taken
    /// while the gate is being measured).
    pub enabled_profile: Option<ProfileReport>,
}

const READY_BUDGET: u64 = 400_000_000;
const PROGRAM_BUDGET: u64 = 50_000_000;

/// Measures the corpus-replay workload with the timers compiled in but
/// the profiler detached — the default state of every session, and the
/// exact configuration the ≤2% budget is defined over.
///
/// # Panics
///
/// Panics on harness failures: the build, boot or a workload program
/// failing, or the clean workload raising a sanitizer report.
pub fn measure_profile_overhead(
    spec: &FirmwareSpec,
    workload: &ProfileWorkload,
) -> ProfileOverheadReport {
    let corpus = merged_corpus(workload.seed, workload.programs, workload.calls);
    let image = spec.build(SanMode::None).expect("baseline build");
    let mode =
        if image.has_symbols() { ProbeMode::DynamicSource } else { ProbeMode::DynamicBinary };
    let artifacts = probe(&image, mode, None).expect("probing");
    let ready = CampaignConfig { ready_budget: READY_BUDGET, ..CampaignConfig::default() };
    let mut session = boot_session(&image, &artifacts, 1, &ready).expect("ready");

    let mut rounds = Vec::with_capacity(workload.rounds);
    for _ in 0..workload.rounds.max(1) {
        let start = Instant::now();
        for program in corpus.iter().cycle().take(corpus.len() * workload.repeats) {
            session.run_program(program, PROGRAM_BUDGET).expect("workload program runs");
        }
        rounds.push(start.elapsed());
    }
    assert!(session.reports().is_empty(), "clean workload must stay clean");
    let best_wall = rounds.iter().copied().min().expect("at least one round");

    // With the feature compiled in, demonstrate the enabled path too: one
    // extra corpus pass with the profiler attached and timing on, outside
    // the gated measurement.
    let enabled_profile = if Profiler::compiled() {
        let profiler = session.enable_profiling();
        assert!(!profiler.is_enabled(), "profiler must start disabled");
        profiler.set_enabled(true);
        for program in &corpus {
            session.run_program(program, PROGRAM_BUDGET).expect("profiled program runs");
        }
        profiler.set_enabled(false);
        Some(profiler.report())
    } else {
        None
    };

    ProfileOverheadReport {
        compiled: Profiler::compiled(),
        best_wall,
        rounds,
        execs_per_round: (corpus.len() * workload.repeats) as u64,
        enabled_profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embsan_guestos::firmware_by_name;

    #[test]
    fn measurement_matches_build_configuration() {
        let spec = firmware_by_name("TP-Link WDR-7660").unwrap();
        let workload = ProfileWorkload { programs: 2, calls: 10, repeats: 1, rounds: 2, seed: 3 };
        let report = measure_profile_overhead(spec, &workload);
        assert_eq!(report.compiled, Profiler::compiled());
        assert_eq!(report.rounds.len(), 2);
        assert_eq!(report.execs_per_round, 2);
        assert!(report.best_wall <= *report.rounds.iter().max().unwrap());
        if report.compiled {
            let profile = report.enabled_profile.as_ref().unwrap();
            assert!(profile.phases.iter().any(|(name, s)| *name == "execute" && s.calls > 0));
        } else {
            assert!(report.enabled_profile.is_none());
        }
    }
}
