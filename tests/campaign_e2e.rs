//! End-to-end campaign integration: a full (budget-scaled) fuzzing
//! campaign over one Table-1 firmware, checking attribution, reproducer
//! validity, and cross-run determinism of the whole sanitized stack.

use embsan::core::report::BugClass;
use embsan::fuzz::campaign::{prepare_session, run_campaign, CampaignConfig};
use embsan::guestos::bugs::LATENT_BUGS;
use embsan::guestos::firmware_by_name;

/// A moderately sized campaign on the InfiniTime (FreeRTOS, Tardis-style)
/// target finds its three Table-4 bugs, each with a replayable minimized
/// reproducer.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "campaign-scale test; run with `cargo test --release --test campaign_e2e`"
)]
fn infinitime_campaign_finds_and_reproduces_its_bugs() {
    let spec = firmware_by_name("InfiniTime").unwrap();
    let config = CampaignConfig { iterations: 6_000, seed: 21, ..CampaignConfig::default() };
    let result = run_campaign(spec, &config).unwrap();

    // All three Table-4 rows for this firmware.
    let expected: Vec<&str> =
        LATENT_BUGS.iter().filter(|b| b.firmware == spec.name).map(|b| b.location).collect();
    assert_eq!(expected.len(), 3);
    let mut found: Vec<&str> = result.found.iter().map(|b| b.location).collect();
    found.sort_unstable();
    let mut expected_sorted = expected.clone();
    expected_sorted.sort_unstable();
    assert_eq!(found, expected_sorted, "stats: {:?}", result.stats);

    // Every reproducer replays against a fresh session and re-detects a
    // bug of the same paper class.
    let (mut session, _) = prepare_session(spec, &config).unwrap();
    for bug in &result.found {
        let outcome = session.run_program_fresh(&bug.reproducer, 20_000_000).unwrap();
        assert!(
            outcome.reports.iter().any(|r| r.class.paper_class() == bug.class.paper_class()),
            "reproducer for `{}` did not replay: {:?}",
            bug.location,
            outcome.reports
        );
        // Minimization did its job: reproducers are single-call programs
        // (these bugs need no setup calls).
        assert_eq!(bug.reproducer.calls.len(), 1, "{}", bug.location);
    }
}

/// The complete sanitized pipeline is deterministic: two campaigns with
/// the same seed produce identical statistics and findings, including the
/// report program counters.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "campaign-scale test; run with `cargo test --release --test campaign_e2e`"
)]
fn sanitized_pipeline_is_deterministic_end_to_end() {
    let spec = firmware_by_name("OpenHarmony-stm32f407").unwrap();
    let config = CampaignConfig { iterations: 2_000, seed: 99, ..CampaignConfig::default() };
    let a = run_campaign(spec, &config).unwrap();
    let b = run_campaign(spec, &config).unwrap();
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.found.len(), b.found.len());
    for (x, y) in a.found.iter().zip(&b.found) {
        assert_eq!(x.latent_index, y.latent_index);
        assert_eq!(x.class, y.class);
        assert_eq!(x.reproducer, y.reproducer);
    }
}

/// Race findings attribute to the race rows and carry both parties when
/// the collision was observed directly.
#[test]
fn race_campaign_on_x86_64() {
    let spec = firmware_by_name("OpenWRT-x86_64").unwrap();
    let config = CampaignConfig { iterations: 8_000, seed: 4, ..CampaignConfig::default() };
    let result = run_campaign(spec, &config).unwrap();
    let races: Vec<_> = result.found.iter().filter(|b| b.class == BugClass::Race).collect();
    assert!(!races.is_empty(), "found: {:?}", result.found);
    for race in races {
        assert!(LATENT_BUGS[race.latent_index].kind == embsan::guestos::BugKind::Race);
    }
}
