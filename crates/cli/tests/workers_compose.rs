//! `--workers` CLI behaviour: parallel worker counts agree with each
//! other, and the flag composes with `--journal`/`--resume` by falling
//! back to the bit-identical single-thread supervised path.

use std::path::PathBuf;
use std::process::Command;

fn embsan() -> Command {
    Command::new(env!("CARGO_BIN_EXE_embsan"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("embsan-workers-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn run_ok(args: &[&str]) -> String {
    run_ok_captured(args).0
}

/// Like [`run_ok`] but also returns stderr (structured degraded-mode
/// warnings are emitted there as `embsan-trace-v1` events).
fn run_ok_captured(args: &[&str]) -> (String, String) {
    let output = embsan().args(args).output().unwrap();
    assert!(
        output.status.success(),
        "embsan {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    (
        String::from_utf8_lossy(&output.stdout).to_string(),
        String::from_utf8_lossy(&output.stderr).to_string(),
    )
}

/// The `execs … corpus … coverage … findings …` summary line.
fn stats_line(stdout: &str) -> String {
    stdout
        .lines()
        .find(|l| l.starts_with("execs "))
        .unwrap_or_else(|| panic!("no stats line in:\n{stdout}"))
        .to_string()
}

fn build_image(name: &str) -> PathBuf {
    let image = scratch(name);
    run_ok(&["build", "emblinux", "--bug", "fuzz/target:oob-write", "-o", image.to_str().unwrap()]);
    image
}

#[test]
fn parallel_worker_counts_agree() {
    let image = build_image("agree.evfw");
    let image = image.to_str().unwrap();
    // An explicit --workers (even 1) routes through the parallel engine, so
    // every worker count must report the same stats and findings.
    let out1 = run_ok(&["fuzz", image, "--iters", "100", "--seed", "9", "--workers", "1"]);
    let out2 = run_ok(&["fuzz", image, "--iters", "100", "--seed", "9", "--workers", "2"]);
    let out4 = run_ok(&["fuzz", image, "--iters", "100", "--seed", "9", "--workers", "4"]);
    assert_eq!(stats_line(&out1), stats_line(&out2));
    assert_eq!(stats_line(&out2), stats_line(&out4));
    // Findings lines (if any) must agree too.
    let findings = |s: &str| -> Vec<String> {
        s.lines().filter(|l| l.starts_with('[')).map(str::to_string).collect()
    };
    assert_eq!(findings(&out1), findings(&out2));
    assert_eq!(findings(&out2), findings(&out4));
}

#[test]
fn workers_flag_composes_with_journal_and_resume() {
    let image = build_image("journal.evfw");
    let image = image.to_str().unwrap();

    // Reference: uninterrupted journaled run, no --workers.
    let journal_ref = scratch("ref.evj");
    let reference = run_ok(&[
        "fuzz",
        image,
        "--iters",
        "150",
        "--seed",
        "5",
        "--journal",
        journal_ref.to_str().unwrap(),
    ]);

    // --workers on a journaled run falls back to single-thread (with a
    // structured degraded-mode warning on stderr) so the journal contract
    // holds; kill it partway, then resume.
    let journal = scratch("killed.evj");
    let (killed, warnings) = run_ok_captured(&[
        "fuzz",
        image,
        "--iters",
        "150",
        "--seed",
        "5",
        "--journal",
        journal.to_str().unwrap(),
        "--kill-after",
        "60",
        "--workers",
        "4",
    ]);
    assert!(
        warnings.contains("\"event\":\"degraded-mode\"") && warnings.contains("ignoring --workers"),
        "structured supervised-fallback warning missing:\nstdout: {killed}\nstderr: {warnings}"
    );
    let resumed = run_ok(&["fuzz", "--resume", journal.to_str().unwrap()]);

    // The killed-and-resumed campaign ends bit-identically to the
    // uninterrupted one.
    assert_eq!(stats_line(&reference), stats_line(&resumed));
}

/// A resume must reproduce the killed run's syscall descriptions: without
/// the original `--syscalls` it fails before its first iteration and names
/// the mismatch; with it, the campaign ends like the uninterrupted run.
#[test]
fn resume_verifies_the_syscall_descriptions() {
    let image = build_image("descs.evfw");
    let image = image.to_str().unwrap();
    let campaign = ["--iters", "150", "--seed", "5", "--syscalls", "4"];
    let reference = run_ok(&[&["fuzz", image][..], &campaign].concat());

    let journal = scratch("descs.evj");
    let journal = journal.to_str().unwrap();
    run_ok(
        &[&["fuzz", image][..], &campaign, &["--journal", journal, "--kill-after", "60"]].concat(),
    );

    let output = embsan().args(["fuzz", "--resume", journal]).output().unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "a resume with other descriptions must fail");
    assert!(stderr.contains("syscall descriptions hash mismatch"), "{stderr}");
    assert!(stderr.contains("--syscalls"), "{stderr}");

    let resumed = run_ok(&["fuzz", "--resume", journal, "--syscalls", "4"]);
    assert_eq!(stats_line(&reference), stats_line(&resumed));
}

/// Degenerate scheduling values are usage errors (exit 1 with a message),
/// never an engine panic, whichever engine the other flags select.
#[test]
fn zero_workers_or_epoch_is_rejected() {
    let image = build_image("degenerate.evfw");
    let image = image.to_str().unwrap();
    let journal = scratch("degenerate.evj");
    let trace = scratch("degenerate.jsonl");
    for (flag, argv) in [
        ("--workers", &["fuzz", image, "--workers", "0", "--epoch", "64"][..]),
        ("--epoch", &["fuzz", image, "--workers", "2", "--epoch", "0"]),
        ("--epoch", &["fuzz", image, "--epoch", "0", "--iters", "10"]),
        ("--epoch", &["fuzz", image, "--epoch", "0", "--supervised"]),
        ("--epoch", &["fuzz", image, "--epoch", "0", "--journal", journal.to_str().unwrap()]),
        ("--epoch", &["fuzz", image, "--epoch", "0", "--trace-out", trace.to_str().unwrap()]),
    ] {
        let output = embsan().args(argv).output().unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{argv:?}: {stderr}");
        assert!(stderr.contains(&format!("{flag} must be at least 1")), "{stderr}");
    }
}

/// `--epoch` is the parallel engine's merge period. Without `--workers`
/// the run is sequential: the flag is noted as ignored on stderr, and the
/// run's stdout and deterministic metrics equal those of the run without it.
#[test]
fn epoch_without_workers_is_noted_and_changes_nothing() {
    let image = build_image("epoch.evfw");
    let image = image.to_str().unwrap();
    for mode in [&[][..], &["--supervised"]] {
        let run = |name: &str, epoch: &[&str]| {
            let metrics = scratch(name);
            let base = ["fuzz", image, "--iters", "100", "--seed", "3", "--metrics-out"];
            let argv = [&base[..], &[metrics.to_str().unwrap()], mode, epoch].concat();
            let (stdout, stderr) = run_ok_captured(&argv);
            let stdout = stdout.replace(metrics.to_str().unwrap(), "METRICS");
            (stdout, stderr, std::fs::read(&metrics).unwrap())
        };
        let (plain, plain_err, plain_metrics) = run("no-epoch.json", &[]);
        let (noted, noted_err, noted_metrics) = run("epoch.json", &["--epoch", "16"]);
        assert!(!plain_err.contains("degraded-mode"), "{mode:?}: {plain_err}");
        assert!(
            noted_err.contains("\"event\":\"degraded-mode\"")
                && noted_err.contains("ignoring --epoch 16"),
            "{mode:?}: ignored --epoch not noted:\n{noted_err}"
        );
        assert_eq!(plain, noted, "{mode:?}");
        assert_eq!(plain_metrics, noted_metrics, "{mode:?}");
    }
}
