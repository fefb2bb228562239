//! Command-line usage errors and output hygiene: an unknown option is a
//! usage error before anything runs, and a reader that closes stdout early
//! ends a command without a panic.

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn embsan() -> Command {
    Command::new(env!("CARGO_BIN_EXE_embsan"))
}

fn image(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("embsan-usage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let image = dir.join(name);
    let status = embsan()
        .args(["build", "vxworks", "-o", image.to_str().unwrap()])
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success());
    image
}

/// A misspelt option (`--iter` for `--iters`) and a removed one
/// (`--target`) exit 1 with a message naming them, instead of running the
/// default campaign with the value taken for an extra positional.
#[test]
fn unknown_options_are_usage_errors() {
    let image = image("unknown.evfw");
    let image = image.to_str().unwrap();
    for argv in [["fuzz", image, "--iter", "10"], ["fuzz", image, "--target", "sys_bug_0"]] {
        let output = embsan().args(argv).output().unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{argv:?}: {stderr}");
        assert!(stderr.contains(&format!("unknown option `{}`", argv[2])), "{stderr}");
        assert!(output.stdout.is_empty(), "{argv:?} ran before failing");
    }
}

/// `embsan analyze IMG --out F | head -1`: the reader is gone before the
/// report is written, which must end the command without a panic.
#[test]
fn a_closed_stdout_is_not_a_panic() {
    let image = image("pipe.evfw");
    let artifact = image.with_extension("json");
    let mut child = embsan()
        .args(["analyze", image.to_str().unwrap(), "--out", artifact.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let output = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(output.status.code(), Some(101), "{stderr}");
}
