//! Fuzzing-throughput and translation-cache benchmarks (`embsan bench`).
//!
//! Two measurements back the parallel-engine work:
//!
//! 1. **Worker scaling**: execs/sec and blocks-translated/exec of the
//!    parallel campaign engine at several worker counts on one firmware in
//!    its Table-1 sanitizer configuration. The finding set is
//!    worker-count-independent (the engine's determinism contract), so the
//!    points differ only in wall clock.
//! 2. **Cache generations**: translations per hook-configuration toggle.
//!    With generation-tagged block storage, toggling between two
//!    configurations retranslates only on the first pass; every later
//!    toggle reuses a retained generation (~0 retranslations).
//!
//! The report serializes to the `embsan-bench-throughput-v1`
//! JSON schema consumed by CI's bench-smoke job and checked in as
//! `BENCH_throughput.json`.

use std::time::Instant;

use embsan_emu::CacheStats;
use embsan_fuzz::campaign::prepare_session;
use embsan_fuzz::{run_parallel_campaign, CampaignConfig, CampaignError, ParallelConfig};
use embsan_guestos::workload::merged_corpus;
use embsan_guestos::FirmwareSpec;
use embsan_obs::json::escape;

/// One worker-count measurement.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPoint {
    /// Worker threads used.
    pub workers: usize,
    /// Programs executed.
    pub execs: u64,
    /// Fuzzing-loop wall clock in seconds (excludes build and boot).
    pub fuzz_wall_secs: f64,
    /// Throughput (execs / fuzz_wall_secs).
    pub execs_per_sec: f64,
    /// Blocks translated across all workers.
    pub blocks_translated: u64,
    /// Translations amortized per execution.
    pub blocks_per_exec: f64,
    /// Coverage buckets reached (identical across worker counts).
    pub coverage: usize,
    /// Deduplicated findings (identical across worker counts).
    pub findings: usize,
    /// Shadow checks that took the byte-wise slow path (summed over
    /// workers; the rest proved clean on the inline fast path).
    pub slow_path_checks: u64,
    /// Full cache counters.
    pub cache: CacheStats,
    /// Bytes of the shared ready-point base image (RAM + sanitizer
    /// planes) — paid once, not per worker.
    pub base_bytes: u64,
    /// Largest per-worker copy-on-write overlay observed: the incremental
    /// memory each extra worker costs. CI's memory gate requires this to
    /// stay an order of magnitude below `base_bytes` (O(dirty pages), not
    /// O(RAM)).
    pub peak_overlay_bytes: u64,
    /// Workers that forked from the shared base image.
    pub workers_sharing_base: usize,
}

/// Result of the configuration-toggle cache measurement.
#[derive(Debug, Clone, Copy)]
pub struct CacheToggleReport {
    /// Toggle cycles measured after the first pass.
    pub toggles: u64,
    /// Translations spent populating both configurations once.
    pub first_pass_translations: u64,
    /// Translations during the steady toggling phase (~0 with generations).
    pub retranslations_after_first_pass: u64,
    /// Generation reactivations observed.
    pub generation_hits: u64,
}

/// Throughput + cache measurements for one firmware.
#[derive(Debug, Clone)]
pub struct FirmwareThroughput {
    /// Firmware name.
    pub firmware: String,
    /// Sanitizer configuration label (Table-1 default for the firmware).
    pub san: String,
    /// One point per measured worker count.
    pub points: Vec<WorkerPoint>,
    /// The cache-generation toggle measurement.
    pub cache_toggle: CacheToggleReport,
}

/// The full bench report (`BENCH_throughput.json`).
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// Host CPU cores available to the worker pool — essential context for
    /// the scaling points (a single-core host cannot show parallel
    /// speedup regardless of engine quality).
    pub host_cores: usize,
    /// Iterations per campaign run.
    pub iterations: u64,
    /// Campaign seed.
    pub seed: u64,
    /// Peak resident set of the bench process in bytes (`VmHWM`), covering
    /// every measurement; `0` when the host does not expose it.
    pub peak_rss_bytes: u64,
    /// Per-firmware sections.
    pub firmwares: Vec<FirmwareThroughput>,
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

/// One structured data-quality warning attached to a bench report (see
/// [`ThroughputReport::warnings`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchWarning {
    /// Machine-readable warning class (e.g. `oversubscribed_workers`).
    pub kind: &'static str,
    /// Firmware whose scaling point triggered the warning.
    pub firmware: String,
    /// Worker count of the affected point.
    pub workers: usize,
    /// Host cores available to the pool.
    pub host_cores: usize,
}

/// The sanitizer-configuration label for a firmware's Table-1 row.
pub fn san_label(spec: &FirmwareSpec) -> &'static str {
    if spec.embsan_c {
        "EMBSAN-C"
    } else if spec.open_source {
        "EMBSAN-D (source)"
    } else {
        "EMBSAN-D (binary)"
    }
}

/// Measures parallel-campaign throughput on `spec` at each worker count.
///
/// # Errors
///
/// Propagates campaign failures (build, probe, session).
pub fn measure_worker_scaling(
    spec: &FirmwareSpec,
    campaign: &CampaignConfig,
    worker_counts: &[usize],
) -> Result<Vec<WorkerPoint>, CampaignError> {
    let mut points = Vec::new();
    for &workers in worker_counts {
        let config = ParallelConfig { workers, campaign: *campaign, ..ParallelConfig::default() };
        let started = Instant::now();
        let (_result, outcome) = run_parallel_campaign(spec, &config)?;
        let stats = outcome.stats;
        // Fall back to total wall for degenerate zero-length runs.
        let wall = if stats.fuzz_wall.is_zero() { started.elapsed() } else { stats.fuzz_wall };
        let secs = wall.as_secs_f64().max(f64::EPSILON);
        points.push(WorkerPoint {
            workers,
            execs: stats.execs,
            fuzz_wall_secs: secs,
            execs_per_sec: stats.execs as f64 / secs,
            blocks_translated: stats.cache.translations,
            blocks_per_exec: if stats.execs == 0 {
                0.0
            } else {
                stats.cache.translations as f64 / stats.execs as f64
            },
            coverage: stats.coverage,
            findings: stats.findings,
            slow_path_checks: stats.slow_path_checks,
            cache: stats.cache,
            base_bytes: stats.base_bytes,
            peak_overlay_bytes: stats.max_worker_overlay_bytes,
            workers_sharing_base: stats.workers_sharing_base,
        });
    }
    Ok(points)
}

/// Measures translations per hook-configuration toggle: a clean workload
/// corpus is replayed while the session's block probes are armed and
/// disarmed `toggles` times (exactly what the fuzzer and the overhead
/// bench do between configurations).
///
/// # Errors
///
/// Propagates campaign failures.
pub fn measure_cache_generations(
    spec: &FirmwareSpec,
    campaign: &CampaignConfig,
    toggles: u64,
) -> Result<CacheToggleReport, CampaignError> {
    let (mut session, _dict) = prepare_session(spec, campaign)?;
    let corpus = merged_corpus(0xF16, 4, 24);
    let base = session.runtime().hook_config();
    let mut armed = base;
    armed.blocks = true;

    let replay = |session: &mut embsan_core::session::Session| -> Result<(), CampaignError> {
        for program in &corpus {
            session.reset()?;
            session.run_program(program, campaign.program_budget)?;
        }
        Ok(())
    };

    let before = session.cache_stats();
    session.machine_mut().set_hook_config(armed);
    replay(&mut session)?;
    session.machine_mut().set_hook_config(base);
    replay(&mut session)?;
    let first_pass = session.cache_stats();

    for _ in 0..toggles {
        session.machine_mut().set_hook_config(armed);
        replay(&mut session)?;
        session.machine_mut().set_hook_config(base);
        replay(&mut session)?;
    }
    let steady = session.cache_stats();
    Ok(CacheToggleReport {
        toggles,
        first_pass_translations: first_pass.translations - before.translations,
        retranslations_after_first_pass: steady.translations - first_pass.translations,
        generation_hits: steady.generation_hits - before.generation_hits,
    })
}

/// Runs both measurements for one firmware.
///
/// # Errors
///
/// Propagates campaign failures.
pub fn measure_firmware_throughput(
    spec: &FirmwareSpec,
    campaign: &CampaignConfig,
    worker_counts: &[usize],
    toggles: u64,
) -> Result<FirmwareThroughput, CampaignError> {
    Ok(FirmwareThroughput {
        firmware: spec.name.to_string(),
        san: san_label(spec).to_string(),
        points: measure_worker_scaling(spec, campaign, worker_counts)?,
        cache_toggle: measure_cache_generations(spec, campaign, toggles)?,
    })
}

fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.4}")
    } else {
        "null".to_string()
    }
}

impl ThroughputReport {
    /// Structured data-quality warnings for this report. Currently one
    /// kind: a scaling point that ran more workers than the host has
    /// cores measures scheduler contention, not engine regression, and
    /// consumers (CI's regression guard, humans reading the JSON) must not
    /// read its throughput as a slowdown.
    pub fn warnings(&self) -> Vec<BenchWarning> {
        let mut warnings = Vec::new();
        for fw in &self.firmwares {
            for p in &fw.points {
                if p.workers > self.host_cores {
                    warnings.push(BenchWarning {
                        kind: "oversubscribed_workers",
                        firmware: fw.firmware.clone(),
                        workers: p.workers,
                        host_cores: self.host_cores,
                    });
                }
            }
        }
        warnings
    }

    /// Serializes to the `embsan-bench-throughput-v1` schema.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"embsan-bench-throughput-v1\",\n");
        out.push_str(&format!("  \"host_cores\": {},\n", self.host_cores));
        out.push_str(&format!("  \"iterations\": {},\n", self.iterations));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"peak_rss_bytes\": {},\n", self.peak_rss_bytes));
        let warnings = self.warnings();
        out.push_str("  \"warnings\": [");
        for (i, w) in warnings.iter().enumerate() {
            out.push_str(&format!(
                "\n    {{\"kind\": \"{}\", \"firmware\": \"{}\", \"workers\": {}, \
                 \"host_cores\": {}, \"note\": \"throughput at this point measures host \
                 oversubscription, not engine regression\"}}{}",
                escape(w.kind),
                escape(&w.firmware),
                w.workers,
                w.host_cores,
                if i + 1 < warnings.len() { "," } else { "\n  " },
            ));
        }
        out.push_str("],\n");
        out.push_str("  \"firmwares\": [\n");
        for (i, fw) in self.firmwares.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"firmware\": \"{}\",\n", escape(&fw.firmware)));
            out.push_str(&format!("      \"san\": \"{}\",\n", escape(&fw.san)));
            out.push_str("      \"workers\": [\n");
            for (j, p) in fw.points.iter().enumerate() {
                out.push_str(&format!(
                    "        {{\"workers\": {}, \"execs\": {}, \"fuzz_wall_secs\": {}, \
                     \"execs_per_sec\": {}, \"blocks_translated\": {}, \"blocks_per_exec\": {}, \
                     \"coverage\": {}, \"findings\": {}, \"slow_path_checks\": {}, \
                     \"base_bytes\": {}, \"peak_overlay_bytes\": {}, \
                     \"workers_sharing_base\": {}, \
                     \"cache\": {{\"translations\": {}, \
                     \"hits\": {}, \"reconfigures\": {}, \"generation_hits\": {}, \
                     \"generation_evictions\": {}, \"flushes\": {}, \
                     \"chained_dispatches\": {}, \"superblocks_formed\": {}}}}}{}\n",
                    p.workers,
                    p.execs,
                    json_f64(p.fuzz_wall_secs),
                    json_f64(p.execs_per_sec),
                    p.blocks_translated,
                    json_f64(p.blocks_per_exec),
                    p.coverage,
                    p.findings,
                    p.slow_path_checks,
                    p.base_bytes,
                    p.peak_overlay_bytes,
                    p.workers_sharing_base,
                    p.cache.translations,
                    p.cache.hits,
                    p.cache.reconfigures,
                    p.cache.generation_hits,
                    p.cache.generation_evictions,
                    p.cache.flushes,
                    p.cache.chained_dispatches,
                    p.cache.superblocks_formed,
                    if j + 1 < fw.points.len() { "," } else { "" },
                ));
            }
            out.push_str("      ],\n");
            let t = &fw.cache_toggle;
            out.push_str(&format!(
                "      \"cache_toggle\": {{\"toggles\": {}, \"first_pass_translations\": {}, \
                 \"retranslations_after_first_pass\": {}, \"generation_hits\": {}}}\n",
                t.toggles,
                t.first_pass_translations,
                t.retranslations_after_first_pass,
                t.generation_hits,
            ));
            out.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.firmwares.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embsan_guestos::firmware_by_name;

    #[test]
    fn cache_toggles_stop_retranslating_after_first_pass() {
        let spec = firmware_by_name("TP-Link WDR-7660").unwrap();
        let campaign = CampaignConfig::default();
        let report = measure_cache_generations(spec, &campaign, 6).unwrap();
        assert!(report.first_pass_translations > 0, "first pass translates the image");
        assert_eq!(
            report.retranslations_after_first_pass, 0,
            "retained generations make toggles free"
        );
        // Each toggle cycle reactivates both generations, plus the two
        // first-pass switches.
        assert_eq!(report.generation_hits, 2 * report.toggles + 1);
    }

    #[test]
    fn json_schema_is_well_formed_enough() {
        let report = ThroughputReport {
            host_cores: 4,
            iterations: 100,
            seed: 1,
            peak_rss_bytes: 123_456,
            firmwares: vec![FirmwareThroughput {
                firmware: "T\"est".to_string(),
                san: "EMBSAN-D (binary)".to_string(),
                points: vec![WorkerPoint {
                    workers: 1,
                    execs: 100,
                    fuzz_wall_secs: 0.5,
                    execs_per_sec: 200.0,
                    blocks_translated: 40,
                    blocks_per_exec: 0.4,
                    coverage: 10,
                    findings: 0,
                    slow_path_checks: 7,
                    cache: CacheStats::default(),
                    base_bytes: 1_048_576,
                    peak_overlay_bytes: 8_192,
                    workers_sharing_base: 1,
                }],
                cache_toggle: CacheToggleReport {
                    toggles: 2,
                    first_pass_translations: 40,
                    retranslations_after_first_pass: 0,
                    generation_hits: 5,
                },
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"embsan-bench-throughput-v1\""));
        assert!(json.contains("\\\"est"), "quotes escaped");
        assert!(json.contains("\"slow_path_checks\": 7"));
        assert!(json.contains("\"chained_dispatches\": 0"));
        assert!(json.contains("\"superblocks_formed\": 0"));
        assert!(json.contains("\"peak_rss_bytes\": 123456"));
        assert!(json.contains("\"base_bytes\": 1048576"));
        assert!(json.contains("\"peak_overlay_bytes\": 8192"));
        assert!(json.contains("\"workers_sharing_base\": 1"));
        // 1 worker on 4 cores: no oversubscription warning.
        assert!(json.contains("\"warnings\": []"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn oversubscription_yields_structured_warning_not_regression() {
        let mut report = ThroughputReport {
            host_cores: 1,
            iterations: 100,
            seed: 1,
            peak_rss_bytes: 0,
            firmwares: vec![FirmwareThroughput {
                firmware: "Router".to_string(),
                san: "EMBSAN-D (binary)".to_string(),
                points: vec![
                    WorkerPoint {
                        workers: 1,
                        execs: 100,
                        fuzz_wall_secs: 0.5,
                        execs_per_sec: 200.0,
                        blocks_translated: 40,
                        blocks_per_exec: 0.4,
                        coverage: 10,
                        findings: 0,
                        slow_path_checks: 0,
                        cache: CacheStats::default(),
                        base_bytes: 0,
                        peak_overlay_bytes: 0,
                        workers_sharing_base: 1,
                    },
                    WorkerPoint {
                        workers: 4,
                        execs: 100,
                        fuzz_wall_secs: 1.0,
                        execs_per_sec: 100.0,
                        blocks_translated: 160,
                        blocks_per_exec: 1.6,
                        coverage: 10,
                        findings: 0,
                        slow_path_checks: 0,
                        cache: CacheStats::default(),
                        base_bytes: 0,
                        peak_overlay_bytes: 0,
                        workers_sharing_base: 4,
                    },
                ],
                cache_toggle: CacheToggleReport {
                    toggles: 2,
                    first_pass_translations: 40,
                    retranslations_after_first_pass: 0,
                    generation_hits: 5,
                },
            }],
        };
        let warnings = report.warnings();
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].kind, "oversubscribed_workers");
        assert_eq!(warnings[0].workers, 4);
        assert_eq!(warnings[0].host_cores, 1);
        let json = report.to_json();
        assert!(json.contains("\"kind\": \"oversubscribed_workers\""));
        assert!(json.contains("not engine regression"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // Enough cores: the warning disappears.
        report.host_cores = 8;
        assert!(report.warnings().is_empty());
    }
}
