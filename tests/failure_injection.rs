//! Failure-injection integration tests: corrupted firmware, misuse of the
//! session API, hook misconfiguration, and malformed inputs must produce
//! errors, not panics or silent misbehaviour.

use embsan::asm::image::FirmwareImage;
use embsan::core::probe::{probe, ProbeError, ProbeMode};
use embsan::core::reference_specs;
use embsan::core::session::{Session, SessionError};
use embsan::emu::profile::Arch;
use embsan::guestos::executor::{sys, ExecProgram};
use embsan::guestos::{os, BuildOptions, SanMode};

fn clean_image(san: SanMode) -> FirmwareImage {
    let opts = BuildOptions::new(Arch::Armv).san(san);
    os::emblinux::build(&opts, &[]).expect("firmware builds")
}

/// Truncated or corrupted serialized images are rejected with typed errors.
#[test]
fn corrupted_images_are_rejected() {
    let bytes = clean_image(SanMode::None).to_bytes();
    // Every truncation point fails cleanly.
    for cut in [0, 1, 7, 16, bytes.len() / 2, bytes.len() - 1] {
        assert!(FirmwareImage::parse(&bytes[..cut]).is_err(), "truncation at {cut} must fail");
    }
    // Corrupt the magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert!(FirmwareImage::parse(&bad).is_err());
}

/// A firmware whose ROM is garbage faults on its first fetch instead of
/// hanging or panicking the emulator.
#[test]
fn garbage_rom_faults_cleanly() {
    let mut image = clean_image(SanMode::None);
    for byte in image.text.iter_mut() {
        *byte = 0xEE;
    }
    let mut machine = image.boot_machine(1).expect("machine builds");
    let exit = machine.run(&mut embsan::emu::NullHook, 1000).expect("run returns");
    assert!(matches!(exit, embsan::emu::machine::RunExit::Faulted { .. }), "{exit:?}");
}

/// Probing mismatched categories produces the right errors.
#[test]
fn probe_mode_mismatches() {
    // Compile-time probing of an uninstrumented image.
    let image = clean_image(SanMode::None);
    assert_eq!(
        probe(&image, ProbeMode::CompileTime, None).unwrap_err(),
        ProbeError::NotInstrumented
    );
    // Source probing of a stripped image.
    let stripped = image.strip();
    assert_eq!(
        probe(&stripped, ProbeMode::DynamicSource, None).unwrap_err(),
        ProbeError::NoSymbols
    );
    // Binary probing of a firmware that never boots (garbage ROM).
    let mut garbage = clean_image(SanMode::None).strip();
    for byte in garbage.text.iter_mut() {
        *byte = 0xEE;
    }
    assert!(matches!(
        probe(&garbage, ProbeMode::DynamicBinary, None),
        Err(ProbeError::BootFailed(_))
    ));
}

/// Session API misuse: running programs before ready is a typed error, and
/// an undersized ready budget reports a timeout.
#[test]
fn session_misuse_is_typed() {
    let image = clean_image(SanMode::SanCall);
    let specs = reference_specs().unwrap();
    let artifacts = probe(&image, ProbeMode::CompileTime, None).unwrap();
    let mut session = Session::new(&image, &specs, &artifacts).unwrap();

    let mut program = ExecProgram::new();
    program.push(sys::NOP, &[]);
    assert!(matches!(session.run_program(&program, 1000), Err(SessionError::NotReady)));
    assert!(matches!(session.reset(), Err(SessionError::NotReady)));

    // A tiny budget cannot reach the ready point.
    assert!(matches!(session.run_to_ready(100), Err(SessionError::ReadyTimeout(_))));
}

/// Sanitizer specs without load/store interception points are rejected at
/// runtime construction (the merged spec drives what gets intercepted).
#[test]
fn empty_sanitizer_spec_is_rejected() {
    let image = clean_image(SanMode::SanCall);
    let artifacts = probe(&image, ProbeMode::CompileTime, None).unwrap();
    let empty = embsan::dsl::SanitizerSpec { name: "kasan".to_string(), ..Default::default() };
    assert!(matches!(Session::new(&image, &[empty], &artifacts), Err(SessionError::Runtime(_))));
}

/// An executor program exceeding the wire-format's call budget is rejected
/// host-side before it can desynchronize the guest.
#[test]
#[should_panic(expected = "at most")]
fn oversized_programs_rejected_host_side() {
    let mut program = ExecProgram::new();
    for _ in 0..=embsan::guestos::executor::MAX_CALLS {
        program.push(sys::NOP, &[]);
    }
}

/// Malformed mailbox bytes (not produced by `ExecProgram::encode`) do not
/// crash the guest executor: it consumes what it can and returns to idle.
#[test]
fn guest_executor_survives_malformed_programs() {
    let image = clean_image(SanMode::None);
    let mut machine = image.boot_machine(1).unwrap();
    machine.run(&mut embsan::emu::NullHook, 10_000_000).unwrap();
    for garbage in [
        vec![0xFF],       // promises 255 calls, delivers none
        vec![1],          // promises a call, no header
        vec![2, 99, 200], // bad syscall, absurd argc
        vec![0, 0, 0, 0], // zero calls + trailing junk
    ] {
        machine.bus_mut().devices.mailbox.host_load(&garbage);
        let exit = machine.run(&mut embsan::emu::NullHook, 10_000_000).unwrap();
        assert_eq!(
            exit,
            embsan::emu::machine::RunExit::AllIdle,
            "garbage {garbage:?} must not wedge the executor"
        );
    }
    // And the machine still executes well-formed programs afterwards.
    let mut ok = ExecProgram::new();
    ok.push(sys::ECHO, &[7]);
    machine.bus_mut().devices.mailbox.host_load(&ok.encode());
    machine.run(&mut embsan::emu::NullHook, 10_000_000).unwrap();
    assert_eq!(machine.bus_mut().devices.mailbox.host_take_results(), vec![7]);
}

/// The fault-plan parser is total: malformed specs produce typed
/// [`FaultPlanError`]s naming the offending line, and no input — including
/// randomized garbage — can panic it.
#[test]
fn fault_plan_parser_is_total() {
    use embsan::emu::fault::FaultPlan;

    // A representative valid spec parses.
    let plan = FaultPlan::parse(
        "# schedule\nat 50_000 flip 0x2400 3\nat 80_000 every 1_000 x4 mmio-xor 0xFF 16\n\
         at 120_000 irq\nat 150_000 alloc-fail 2\nat 200_000 stuck-cpu 0\n",
    )
    .expect("valid spec parses");
    assert_eq!(plan.events().len(), 5);

    // Each malformed line is rejected with its 1-based line number.
    for (spec, bad_line) in [
        ("inject now", 1),                        // no `at`
        ("at", 1),                                // missing count
        ("at banana irq", 1),                     // non-numeric count
        ("at 100 every irq", 1),                  // `every` without interval
        ("at 100 every 10 irq", 1),               // missing repeat count
        ("at 100 every 10 x0 irq", 1),            // zero repeats
        ("at 100 warp-core-breach", 1),           // unknown kind
        ("at 100", 1),                            // missing kind
        ("at 100 flip", 1),                       // flip without args
        ("at 100 flip 0x10", 1),                  // flip without bit
        ("at 100 flip 0x10 9", 1),                // bit out of range
        ("at 100 mmio-xor 0xFF", 1),              // missing read count
        ("at 100 alloc-fail", 1),                 // missing count
        ("at 100 stuck-cpu", 1),                  // missing cpu
        ("at 1 irq\nat 2 irq\nat broken irq", 3), // error on a later line
        ("at 1 irq\n\n# ok\nat x irq", 4),        // blanks/comments counted
    ] {
        let err = FaultPlan::parse(spec).expect_err(spec);
        assert_eq!(err.line, bad_line, "{spec:?}: {err}");
        assert!(!err.message.is_empty());
    }

    // Truncations of a valid spec never panic (they parse or error).
    let valid = "at 50_000 every 1_000 x4 mmio-xor 0xFF 16\nat 120_000 irq\n";
    for cut in 0..valid.len() {
        let _ = FaultPlan::parse(&valid[..cut]);
    }

    // Randomized garbage never panics.
    let mut rng = embsan::fuzz::SplitMix64::seed_from_u64(0xFA17);
    for _ in 0..500 {
        let len = rng.range_usize(0, 80);
        let garbage: String = (0..len)
            .map(|_| {
                // Printable ASCII plus newlines, biased toward spec tokens.
                match rng.range_usize(0, 10) {
                    0 => '\n',
                    1 => 'x',
                    2 => '#',
                    3..=5 => char::from(rng.gen_u8() % 10 + b'0'),
                    _ => char::from(rng.gen_u8() % 95 + 32),
                }
            })
            .collect();
        let _ = FaultPlan::parse(&garbage);
    }
}

/// Every JSON surface reachable from a file or a socket is total: the
/// serve request line, the serve manifest line and the analysis artifact
/// return `Ok` or `Err` — never panic or overflow the stack — on every
/// prefix of a valid document, on seeded token soup and on deeply nested
/// lines.
#[test]
fn json_surfaces_are_total() {
    use embsan::analysis::AnalysisArtifact;
    use embsan::serve::{parse_request, JobSpec};

    let request = r#"{"cmd":"submit","firmware":"TP-Link WDR-7660","iterations":400,"seed":18446744073709551615,"priority":2,"drill":"panic-after:40"}"#;
    let manifest = r#"{"id":3,"firmware":"TP-Link WDR-7660","iterations":400,"seed":7,"priority":2,"drill":"wedge-at:40"}"#;
    let artifact = AnalysisArtifact::from_image(&clean_image(SanMode::None)).to_json();
    let valid_docs = [request, manifest, &artifact];
    let parsers: [fn(&str) -> bool; 3] = [
        |text| parse_request(text).is_ok(),
        |text| JobSpec::from_json(text).is_ok(),
        |text| AnalysisArtifact::parse(text).is_ok(),
    ];

    let tokens = [
        "{",
        "}",
        "[",
        "]",
        ",",
        ":",
        "\"",
        "\\",
        "\\u",
        "d83d",
        "\\ud800",
        "-",
        "-1",
        "0",
        "1.5e3",
        "18446744073709551616",
        "1e999",
        "true",
        "null",
        " ",
        "\n",
        "é",
        "😀",
        "\"cmd\"",
        "\"submit\"",
        "\"iterations\"",
        "\"firmware\"",
        "\"schema\"",
        "\"embsan-bench-throughput-v1\"",
        "\"firmwares\"",
        "\"workers\"",
        "\"version\"",
        "\"embsan-analysis-v1\"",
        "\"embsan-analysis-v2\"",
        "\"cmp_operands\"",
    ];
    let mut rng = embsan::fuzz::SplitMix64::seed_from_u64(0x15_0A);
    let mut garbage = Vec::new();
    for _ in 0..500 {
        let len = rng.range_usize(0, 40);
        let doc: String = (0..len)
            .map(|_| match rng.range_usize(0, 8) {
                0 => char::from(rng.gen_u8() % 95 + 32).to_string(),
                _ => tokens[rng.range_usize(0, tokens.len())].to_string(),
            })
            .collect();
        garbage.push(doc);
    }
    let deep = ["[".repeat(50_000), "{\"cmd\":".repeat(50_000), "[{\"a\":".repeat(20_000)];

    for (valid, parses) in valid_docs.into_iter().zip(parsers) {
        assert!(parses(valid), "{valid}");
        for cut in (0..valid.len()).filter(|&cut| valid.is_char_boundary(cut)) {
            parses(&valid[..cut]);
        }
        // One token spliced into the valid document reaches the schema
        // checks behind the syntax.
        for _ in 0..200 {
            let mut at = rng.range_usize(0, valid.len());
            while !valid.is_char_boundary(at) {
                at -= 1;
            }
            let token = tokens[rng.range_usize(0, tokens.len())];
            parses(&format!("{}{token}{}", &valid[..at], &valid[at..]));
        }
        for doc in garbage.iter().chain(&deep) {
            parses(doc);
        }
    }
}

/// The sanitizer-DSL parser is total on malformed, truncated and
/// interleaved documents: typed [`ParseError`]s with line numbers, never a
/// panic, and well-formed prefixes never produce phantom items.
#[test]
fn dsl_parser_is_total_on_malformed_input() {
    let specs = reference_specs().unwrap();
    assert!(specs.len() >= 2, "reference bundle has KASAN and KCSAN");
    let kasan = specs[0].to_string();
    let kcsan = specs[1].to_string();

    // Every prefix of a valid document parses or errors; no panics.
    for cut in 0..kasan.len() {
        if !kasan.is_char_boundary(cut) {
            continue;
        }
        let _ = embsan::dsl::parse(&kasan[..cut]);
    }

    // Line-interleaving two valid documents shreds the nesting; the parser
    // must reject the result with a typed error, not panic or mis-parse.
    let interleaved: String =
        kasan.lines().zip(kcsan.lines()).flat_map(|(a, b)| [a, b]).collect::<Vec<_>>().join("\n");
    match embsan::dsl::parse(&interleaved) {
        Ok(items) => assert!(!items.is_empty()),
        Err(err) => {
            assert!(err.line >= 1);
            assert!(!err.message.is_empty());
        }
    }

    // Classic malformed documents give line-numbered errors.
    for (doc, description) in [
        ("sanitizer {", "unclosed block"),
        ("sanitizer kasan { point insn load { arg addr: }\n}", "missing type"),
        ("sanitizer kasan }\n", "stray close"),
        ("\u{0}\u{1}\u{2}", "control bytes"),
        ("sanitizer kasan { point warp load {} }", "unknown point kind"),
    ] {
        let err = embsan::dsl::parse(doc).expect_err(description);
        assert!(err.line >= 1, "{description}: {err}");
    }

    // Randomized garbage never panics.
    let mut rng = embsan::fuzz::SplitMix64::seed_from_u64(0xD51);
    for _ in 0..300 {
        let len = rng.range_usize(0, 120);
        let garbage: String = (0..len).map(|_| char::from(rng.gen_u8() % 96 + 31)).collect();
        let _ = embsan::dsl::parse(&garbage);
    }
}

/// The campaign journal survives kill-induced torn tails at *every* byte
/// boundary (load returns the intact prefix), and rejects genuine
/// corruption — bad magic, undecodable payloads — with typed errors.
#[test]
fn journal_survives_torn_tails_and_rejects_corruption() {
    use embsan::fuzz::{Journal, JournalError, Record, StartInfo};

    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("torn.journal");
    let start = StartInfo {
        firmware: "torn-test".to_string(),
        strategy: embsan::fuzz::Strategy::Tardis,
        seed: 7,
        iterations: 100,
        ready_budget: 1_000,
        program_budget: 2_000,
        checkpoint_interval: 10,
        base_hash: 0,
        descs_hash: 0,
        model_free: Some((0xF000_0000, 0x1000)),
        mmio_withheld: false,
    };
    {
        let mut journal = Journal::create(&path).unwrap();
        journal.append(&Record::Start(start.clone())).unwrap();
        let mut program = ExecProgram::new();
        program.push(sys::ECHO, &[1, 2]);
        journal.append(&Record::CorpusAdd { iteration: 3, program }).unwrap();
        journal.append(&Record::End { iterations: 100 }).unwrap();
    }
    let bytes = std::fs::read(&path).unwrap();
    let full = Journal::load(&path).unwrap();
    assert_eq!(full.records.len(), 3);
    assert!(!full.truncated);
    assert!(full.ended());
    assert_eq!(full.start().unwrap().firmware, "torn-test");

    // Killing the writer at any byte leaves a loadable journal: the intact
    // record prefix plus a truncation flag — never a panic, and an error
    // only for cuts inside the magic itself.
    let cut_path = dir.join("torn_cut.journal");
    for cut in 0..bytes.len() {
        std::fs::write(&cut_path, &bytes[..cut]).unwrap();
        match Journal::load(&cut_path) {
            Ok(loaded) => {
                assert!(cut >= 8, "cut {cut} inside the magic must not load");
                assert!(loaded.records.len() <= 3);
                assert!(u64::try_from(cut).unwrap() >= loaded.valid_len);
                assert!(loaded.truncated || loaded.valid_len == cut as u64);
            }
            Err(JournalError::Corrupt { .. }) => {
                assert!(cut < 8, "cut {cut} after the magic is a torn tail, not corruption");
            }
            Err(other) => panic!("cut {cut}: unexpected {other}"),
        }
    }

    // Bad magic is corruption at offset zero.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    std::fs::write(&cut_path, &bad).unwrap();
    assert!(matches!(Journal::load(&cut_path), Err(JournalError::Corrupt { offset: 0, .. })));

    // An intact frame with an undecodable payload (unknown tag) is
    // corruption at that frame's offset, not a silent drop.
    let mut junk_frame = bytes.clone();
    let offset = junk_frame.len() as u64;
    junk_frame.extend_from_slice(&[99, 3, 0, 0, 0, 1, 2, 3]);
    std::fs::write(&cut_path, &junk_frame).unwrap();
    match Journal::load(&cut_path) {
        Err(JournalError::Corrupt { offset: at, .. }) => assert_eq!(at, offset),
        other => panic!("unknown tag must be corruption, got {other:?}"),
    }

    // Reopen truncates the torn tail so appended records stay parseable.
    std::fs::write(&cut_path, &bytes[..bytes.len() - 2]).unwrap();
    let torn = Journal::load(&cut_path).unwrap();
    assert!(torn.truncated);
    {
        let mut journal = Journal::reopen(&cut_path, torn.valid_len).unwrap();
        journal.append(&Record::End { iterations: 42 }).unwrap();
    }
    let healed = Journal::load(&cut_path).unwrap();
    assert!(!healed.truncated);
    assert!(healed.ended());
}
