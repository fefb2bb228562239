//! Baseline comparison for the CI bench-smoke regression guard.
//!
//! Reads a checked-in `embsan-bench-throughput-v1` document (the baseline),
//! matches its worker-scaling points against a freshly measured
//! [`ThroughputReport`] by `(firmware, workers)`, and reports every point
//! whose throughput fell more than the tolerated fraction below the
//! baseline. Points flagged `oversubscribed_workers` — in the baseline's
//! warnings array or on the current host — are excluded: their wall clock
//! measures host scheduling, not the engine (see
//! [`ThroughputReport::warnings`]).

use embsan_obs::json::{self, Value};

use crate::throughput::ThroughputReport;

/// One comparable worker-scaling point lifted from a baseline document.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselinePoint {
    /// Firmware name.
    pub firmware: String,
    /// Worker threads of the point.
    pub workers: usize,
    /// Baseline throughput.
    pub execs_per_sec: f64,
    /// Whether the baseline itself flagged this point as oversubscribed.
    pub oversubscribed: bool,
    /// Baseline shared-base size in bytes (`None` in documents written
    /// before the memory fields existed).
    pub base_bytes: Option<u64>,
    /// Baseline peak per-worker overlay in bytes (`None` for old
    /// documents).
    pub peak_overlay_bytes: Option<u64>,
}

/// Extracts the comparable points of a baseline throughput document.
///
/// # Errors
///
/// Returns a description of the first malformed construct. Unknown fields
/// are ignored so older guards keep working as the schema grows.
pub fn parse_baseline(text: &str) -> Result<Vec<BaselinePoint>, String> {
    let root = json::parse(text)?;
    if root.get("schema").and_then(Value::as_str) != Some("embsan-bench-throughput-v1") {
        return Err("baseline is not an embsan-bench-throughput-v1 document".into());
    }
    let as_usize = |value: &Value| value.as_u64().and_then(|n| usize::try_from(n).ok());

    let mut flagged = Vec::new();
    if let Some(warnings) = root.get("warnings").and_then(Value::as_array) {
        for w in warnings {
            if w.get("kind").and_then(Value::as_str) == Some("oversubscribed_workers") {
                let firmware =
                    w.get("firmware").and_then(Value::as_str).ok_or("warning missing firmware")?;
                let workers =
                    w.get("workers").and_then(as_usize).ok_or("warning missing workers")?;
                flagged.push((firmware.to_string(), workers));
            }
        }
    }

    let mut points = Vec::new();
    let firmwares = root
        .get("firmwares")
        .and_then(Value::as_array)
        .ok_or("baseline missing firmwares array")?;
    for fw in firmwares {
        let name =
            fw.get("firmware").and_then(Value::as_str).ok_or("firmware entry missing name")?;
        let workers = fw
            .get("workers")
            .and_then(Value::as_array)
            .ok_or("firmware entry missing workers array")?;
        for p in workers {
            let count =
                p.get("workers").and_then(as_usize).ok_or("worker point missing workers")?;
            let execs_per_sec = p
                .get("execs_per_sec")
                .and_then(Value::as_f64)
                .ok_or("worker point missing execs_per_sec")?;
            // Memory fields are additive (schema stays -v1): absent in
            // older baselines, so they parse as None rather than erroring.
            points.push(BaselinePoint {
                firmware: name.to_string(),
                workers: count,
                execs_per_sec,
                oversubscribed: flagged.iter().any(|(f, w)| f == name && *w == count),
                base_bytes: p.get("base_bytes").and_then(Value::as_u64),
                peak_overlay_bytes: p.get("peak_overlay_bytes").and_then(Value::as_u64),
            });
        }
    }
    Ok(points)
}

/// Compares a fresh report against baseline points and returns one line per
/// regression: a matched point whose throughput is more than `tolerance`
/// (a fraction, e.g. `0.25`) below the baseline. Oversubscribed points —
/// flagged in the baseline or exceeding the fresh report's `host_cores` —
/// and points without a baseline counterpart are skipped.
pub fn regressions(
    baseline: &[BaselinePoint],
    fresh: &ThroughputReport,
    tolerance: f64,
) -> Vec<String> {
    let mut out = Vec::new();
    for fw in &fresh.firmwares {
        for p in &fw.points {
            if p.workers > fresh.host_cores {
                continue;
            }
            let Some(base) =
                baseline.iter().find(|b| b.firmware == fw.firmware && b.workers == p.workers)
            else {
                continue;
            };
            if base.oversubscribed {
                continue;
            }
            let floor = base.execs_per_sec * (1.0 - tolerance);
            if p.execs_per_sec < floor {
                out.push(format!(
                    "{} @ {} workers: {:.0} execs/sec is {:.0}% below baseline {:.0} \
                     (tolerance {:.0}%)",
                    fw.firmware,
                    p.workers,
                    p.execs_per_sec,
                    (1.0 - p.execs_per_sec / base.execs_per_sec) * 100.0,
                    base.execs_per_sec,
                    tolerance * 100.0,
                ));
            }
        }
    }
    out
}

/// The CI memory gate: returns one line per worker-scaling point whose
/// per-worker memory has regressed toward O(RAM). Two checks per matched,
/// non-oversubscribed point:
///
/// 1. **Absolute**: the peak per-worker overlay must stay at least 10×
///    below the shared base (`peak_overlay_bytes * 10 <= base_bytes`) —
///    the copy-on-write contract that an extra worker costs dirty pages,
///    not a RAM image.
/// 2. **Relative**: with a baseline that recorded memory, the fresh
///    overlay must not exceed 10× the baseline's (a creeping-divergence
///    guard; the generous factor absorbs workload noise).
///
/// Points oversubscribing the host are exempt, like the throughput guard:
/// scheduling jitter inflates how many pages an iteration touches between
/// resets. Single-worker points still gate check 1 — the overlay bound is
/// per worker, not about scaling.
pub fn memory_regressions(baseline: &[BaselinePoint], fresh: &ThroughputReport) -> Vec<String> {
    let mut out = Vec::new();
    for fw in &fresh.firmwares {
        for p in &fw.points {
            if p.workers > fresh.host_cores {
                continue;
            }
            let base = baseline
                .iter()
                .find(|b| b.firmware == fw.firmware && b.workers == p.workers)
                .filter(|b| !b.oversubscribed);
            if p.base_bytes > 0 && p.peak_overlay_bytes.saturating_mul(10) > p.base_bytes {
                out.push(format!(
                    "{} @ {} workers: peak overlay {} B is not 10x below the {} B shared base \
                     (per-worker memory is drifting toward O(RAM))",
                    fw.firmware, p.workers, p.peak_overlay_bytes, p.base_bytes,
                ));
            }
            if let Some(prior) = base.and_then(|b| b.peak_overlay_bytes).filter(|&b| b > 0) {
                if p.peak_overlay_bytes > prior.saturating_mul(10) {
                    out.push(format!(
                        "{} @ {} workers: peak overlay {} B exceeds 10x the baseline's {} B",
                        fw.firmware, p.workers, p.peak_overlay_bytes, prior,
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::throughput::{CacheToggleReport, FirmwareThroughput, WorkerPoint};
    use embsan_emu::CacheStats;

    fn point(workers: usize, execs_per_sec: f64) -> WorkerPoint {
        WorkerPoint {
            workers,
            execs: 100,
            fuzz_wall_secs: 1.0,
            execs_per_sec,
            blocks_translated: 10,
            blocks_per_exec: 0.1,
            coverage: 5,
            findings: 0,
            slow_path_checks: 0,
            cache: CacheStats::default(),
            base_bytes: 4_194_304,
            peak_overlay_bytes: 65_536,
            workers_sharing_base: workers,
        }
    }

    fn report(host_cores: usize, points: Vec<WorkerPoint>) -> ThroughputReport {
        ThroughputReport {
            host_cores,
            iterations: 100,
            seed: 1,
            peak_rss_bytes: 0,
            firmwares: vec![FirmwareThroughput {
                firmware: "Router".to_string(),
                san: "EMBSAN-D (binary)".to_string(),
                points,
                cache_toggle: CacheToggleReport {
                    toggles: 2,
                    first_pass_translations: 10,
                    retranslations_after_first_pass: 0,
                    generation_hits: 5,
                },
            }],
        }
    }

    #[test]
    fn baseline_roundtrips_through_report_json() {
        let base = report(1, vec![point(1, 2000.0), point(2, 1800.0)]);
        let points = parse_baseline(&base.to_json()).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].firmware, "Router");
        assert_eq!(points[0].workers, 1);
        assert!((points[0].execs_per_sec - 2000.0).abs() < 1e-6);
        // host_cores 1: the 2-worker point carries the baseline's own
        // oversubscription flag.
        assert!(!points[0].oversubscribed);
        assert!(points[1].oversubscribed);
    }

    #[test]
    fn regression_detected_beyond_tolerance() {
        let base = parse_baseline(&report(8, vec![point(1, 2000.0)]).to_json()).unwrap();
        // 26% below: regression at 25% tolerance.
        let bad = regressions(&base, &report(8, vec![point(1, 1480.0)]), 0.25);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("1 workers"));
        // 24% below: within tolerance.
        assert!(regressions(&base, &report(8, vec![point(1, 1520.0)]), 0.25).is_empty());
        // Faster than baseline: never a regression.
        assert!(regressions(&base, &report(8, vec![point(1, 9000.0)]), 0.25).is_empty());
    }

    #[test]
    fn oversubscribed_points_are_not_compared() {
        // Baseline measured on a 1-core host: its 2-worker point is flagged
        // and must not gate anything, even if the fresh number is far lower.
        let base =
            parse_baseline(&report(1, vec![point(1, 2000.0), point(2, 1800.0)]).to_json()).unwrap();
        let fresh = report(8, vec![point(1, 2000.0), point(2, 100.0)]);
        assert!(regressions(&base, &fresh, 0.25).is_empty());

        // And a fresh point that oversubscribes the current host is skipped
        // regardless of the baseline's view of it.
        let base8 =
            parse_baseline(&report(8, vec![point(1, 2000.0), point(2, 1800.0)]).to_json()).unwrap();
        let fresh1 = report(1, vec![point(1, 2000.0), point(2, 100.0)]);
        assert!(regressions(&base8, &fresh1, 0.25).is_empty());
    }

    #[test]
    fn memory_fields_roundtrip_and_old_baselines_parse_as_none() {
        let base = parse_baseline(&report(8, vec![point(1, 2000.0)]).to_json()).unwrap();
        assert_eq!(base[0].base_bytes, Some(4_194_304));
        assert_eq!(base[0].peak_overlay_bytes, Some(65_536));
        // A pre-memory-schema document: fields absent, not an error.
        let old = "{\"schema\": \"embsan-bench-throughput-v1\", \"firmwares\": [{\"firmware\": \
                   \"Router\", \"workers\": [{\"workers\": 1, \"execs_per_sec\": 5.0}]}]}";
        let parsed = parse_baseline(old).unwrap();
        assert_eq!(parsed[0].base_bytes, None);
        assert_eq!(parsed[0].peak_overlay_bytes, None);
    }

    #[test]
    fn memory_gate_fails_o_ram_overlays_and_exempts_oversubscription() {
        let base = parse_baseline(&report(8, vec![point(1, 2000.0)]).to_json()).unwrap();
        // Healthy: overlay 64 KiB vs 4 MiB base.
        assert!(memory_regressions(&base, &report(8, vec![point(1, 2000.0)])).is_empty());
        // Overlay grew to a third of the base: both the absolute 10x bound
        // and the relative vs-baseline bound fire.
        let mut fat = report(8, vec![point(1, 2000.0)]);
        fat.firmwares[0].points[0].peak_overlay_bytes = 1_400_000;
        let lines = memory_regressions(&base, &fat);
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("O(RAM)"), "{lines:?}");
        // The same point oversubscribed is exempt.
        fat.host_cores = 0;
        assert!(memory_regressions(&base, &fat).is_empty());
        // No baseline memory data: only the absolute bound applies.
        let old = "{\"schema\": \"embsan-bench-throughput-v1\", \"firmwares\": [{\"firmware\": \
                   \"Router\", \"workers\": [{\"workers\": 1, \"execs_per_sec\": 5.0}]}]}";
        let no_mem = parse_baseline(old).unwrap();
        assert_eq!(memory_regressions(&no_mem, &fat.clone()).len(), 0);
        fat.host_cores = 8;
        assert_eq!(memory_regressions(&no_mem, &fat).len(), 1);
    }

    #[test]
    fn unmatched_points_and_bad_documents() {
        let base = parse_baseline(&report(8, vec![point(1, 2000.0)]).to_json()).unwrap();
        // A fresh point with no baseline counterpart is informational only.
        let fresh = report(8, vec![point(4, 10.0)]);
        assert!(regressions(&base, &fresh, 0.25).is_empty());

        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("{\"schema\": \"other\"}").is_err());
        assert!(parse_baseline("not json").is_err());
    }
}
