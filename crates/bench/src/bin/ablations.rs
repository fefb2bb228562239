//! Ablation studies for EMBSAN's design choices (see DESIGN.md §5 and the
//! `ablation` module docs).
//!
//! Run with `cargo run --release -p embsan-bench --bin ablations`.

use embsan_bench::ablation::{
    coverage_source_ablation, directed_ablation, fuzzer_ablation, kcsan_ablation,
    prepoison_ablation, quarantine_ablation,
};
use embsan_fuzz::CoverageSource;

fn main() {
    println!("Ablation 1: quarantine capacity vs report-classification quality");
    println!("{:>14}{:>18}{:>22}", "capacity", "UAF classified", "double-free classified");
    for capacity in [0u64, 1 << 10, 1 << 14, 1 << 18, 1 << 22] {
        let row = quarantine_ablation(capacity);
        println!(
            "{:>14}{:>15}/{}{:>19}/{}",
            capacity, row.uaf_classified, row.trials, row.double_free_classified, row.trials
        );
    }

    println!("\nAblation 2: KCSAN sampling interval / watch window");
    println!("{:>8}{:>8}{:>12}{:>12}", "sample", "window", "detected", "virt cost");
    for (sample, window) in [(500, 900), (120, 900), (47, 900), (47, 200), (47, 2400)] {
        let row = kcsan_ablation(sample, window, 6);
        println!(
            "{:>8}{:>8}{:>9}/{}{:>11.2}x",
            row.sample, row.window, row.detected, row.trials, row.virt_ratio
        );
    }

    println!("\nAblation 3: fuzzer dictionary and deterministic stage (fixed budget)");
    println!("{:>12}{:>12}{:>12}{:>12}", "dictionary", "det stage", "bugs found", "iterations");
    for (dict, det) in [(true, true), (true, false), (false, true), (false, false)] {
        let row = fuzzer_ablation(dict, det, 4000);
        println!(
            "{:>12}{:>12}{:>12}{:>12}",
            row.dictionary, row.deterministic_stage, row.bugs_found, row.iterations
        );
    }

    println!("\nAblation 4: heap pre-poisoning (probing with vs without heap bounds)");
    println!("{:>14}{:>16}{:>16}", "pre-poisoned", "near OOB", "far OOB");
    for prepoisoned in [true, false] {
        let row = prepoison_ablation(prepoisoned);
        let show = |b: bool| if b { "detected" } else { "missed" };
        println!(
            "{:>14}{:>16}{:>16}",
            row.prepoisoned,
            show(row.near_detected),
            show(row.far_detected)
        );
    }

    println!("\nAblation 5: coverage source (emulator edges vs kcov-style guest beacons)");
    println!("{:>12}{:>12}{:>12}{:>12}", "source", "bug found", "coverage", "corpus");
    for source in [CoverageSource::Emulator, CoverageSource::Guest] {
        let row = coverage_source_ablation(source, 4000);
        println!(
            "{:>12}{:>12}{:>12}{:>12}",
            format!("{:?}", row.source),
            row.bug_found,
            row.coverage,
            row.corpus
        );
    }

    println!("\nAblation 6: directed fuzzing (wide-gated fuzz/wide:oob-write, seeds 1-10)");
    println!(
        "{:>10}{:>12}{:>14}{:>14}{:>16}",
        "OS", "dictionary", "k/N @ 3000", "k/N @ 8000", "median iters"
    );
    let seeds: Vec<u64> = (1..=10).collect();
    for os in ["emblinux", "freertos", "liteos", "vxworks"] {
        for harvest in [false, true] {
            let row = directed_ablation(os, harvest, &seeds, 8000);
            let median = row.median_first_finding().map_or("-".to_string(), |m| format!("{m:.1}"));
            println!(
                "{:>10}{:>12}{:>11}/{}{:>11}/{}{:>16}",
                row.os,
                if row.harvest { "+harvest" } else { "extracted" },
                row.found_within(3000),
                seeds.len(),
                row.found_within(8000),
                seeds.len(),
                median
            );
        }
    }
}
