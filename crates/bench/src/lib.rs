//! Benchmark harnesses regenerating every table and figure of the EMBSAN
//! paper.
//!
//! One binary per experiment (see `src/bin/`):
//!
//! | binary | regenerates |
//! |--------|-------------|
//! | `table1` | the evaluated-firmware matrix |
//! | `table2` | known-bug replay under EMBSAN-C / EMBSAN-D / native KASAN |
//! | `table3` | new-bug classification per firmware (campaigns) |
//! | `table4` | the full new-bug listing (campaigns) |
//! | `figure2` | runtime-overhead comparison |
//!
//! This library holds the machinery those binaries, the integration tests
//! and the `perfbench/` workloads share.

pub mod ablation;
pub mod overhead;
pub mod table2;
pub mod table34;

pub use overhead::{
    measure_configuration, OverheadConfig, OverheadRow, OverheadWorkload, SanitizerChoice,
};
pub use table2::{replay_known_bug, replay_table2, DetectionRow};
pub use table34::{run_all_campaigns, CampaignSummary};

/// Reads an environment-variable budget with a default (used to scale the
/// campaign and overhead benches without recompiling).
pub fn env_budget(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Peak resident-set size of this process in bytes, from
/// `/proc/self/status` `VmHWM`. Returns 0 on hosts without procfs.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kib| kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_budget_parses_and_defaults() {
        assert_eq!(env_budget("EMBSAN_NO_SUCH_VAR_XYZ", 42), 42);
        std::env::set_var("EMBSAN_TEST_BUDGET_VAR", "17");
        assert_eq!(env_budget("EMBSAN_TEST_BUDGET_VAR", 42), 17);
        std::env::set_var("EMBSAN_TEST_BUDGET_VAR", "bogus");
        assert_eq!(env_budget("EMBSAN_TEST_BUDGET_VAR", 42), 42);
        std::env::remove_var("EMBSAN_TEST_BUDGET_VAR");
    }
}
