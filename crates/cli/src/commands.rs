//! Subcommand implementations.

use std::fs;

use embsan_analysis::audit::audit;
use embsan_analysis::cfg::Cfg;
use embsan_analysis::races::race_candidates;
use embsan_analysis::static_priors_from_cfg;
use embsan_asm::image::{FirmwareImage, InstrMode};
use embsan_core::probe::{probe, ProbeArtifacts, ProbeMode};
use embsan_core::session::Session;
use embsan_dsl::merge;
use embsan_emu::hook::HookConfig;
use embsan_emu::isa::{Insn, Word};
use embsan_emu::profile::{Arch, ArchProfile};
use embsan_fuzz::campaign::boot_session;
use embsan_fuzz::CampaignConfig;
use embsan_guestos::bugs::{BugKind, BugSpec};
use embsan_guestos::executor::ExecProgram;
use embsan_guestos::{os, BuildOptions, SanMode};

use crate::args::{parse, Parsed};

const HELP: &str = "\
embsan — decoupled on-host sanitizing of embedded OS firmware

USAGE:
  embsan build <emblinux|freertos|liteos|vxworks> [options]   build demo firmware
      --arch arm|mips|x86       architecture profile (default arm)
      --san none|c|native-kasan|native-kcsan
                                 instrumentation mode (default none)
      --bug LOCATION:KIND        seed a bug (repeatable); KIND is one of
                                 oob-write|oob-read|oob-far|uaf|double-free|
                                 null-deref|global-oob|race|uninit-read
      --strip                    strip symbols (closed-source image)
      --wide-gates               guard seeded bugs with one wide multi-byte
                                 comparison instead of staged byte gates
                                 (exercises the analyze operand harvester)
      -o FILE                    output path (default firmware.evfw)
  embsan inspect <image>         show image header, symbols, globals
  embsan analyze <image>         static analysis: CFG stats, probe-coverage
                                 audit, allocator candidates, race candidates,
                                 comparison-operand harvest
      --out FILE                 write the embsan-analysis-v2 artifact (the
                                 harvested operands; feeds
                                 `embsan fuzz --analysis`)
      --json FILE|-              same artifact schema; `-` prints pure JSON
                                 to stdout (no plain report)
  embsan disasm <image>          disassemble the text section
  embsan distill [headers...]    distill sanitizer headers to merged DSL
                                 (defaults to the bundled KASAN+KCSAN)
  embsan probe <image> [--mode auto|c|source|binary]
                                 run the platform prober; print DSL artifacts
  embsan run <image> [--call NR:ARG,...]... [--cpus N] [--budget N]
                                 boot under EMBSAN and run executor calls
  embsan fuzz <image> [--iters N] [--seed S] [--syscalls N] [--cpus N]
                                 coverage-guided fuzzing with EMBSAN attached
      --analysis FILE            directed campaign: the harvested comparison
                                 operands of an embsan-analysis-v2 artifact
                                 join the dictionary, spliced whole by
                                 mutation and the deterministic stage.
                                 Deterministic for a fixed seed + artifact;
                                 ignored (with a note) on supervised/
                                 journaled runs
      --workers N                parallel campaign engine with N workers;
                                 findings and corpus are identical to the
                                 1-worker run (deterministic merges). Ignored
                                 (single-thread) on supervised/journaled runs
      --epoch N                  merge period of the parallel engine
                                 (iterations per epoch, at least 1, default
                                 64). Ignored (with a note) without --workers
      --journal FILE             supervised run; stream findings, corpus adds
                                 and checkpoints to an append-only journal
      --resume FILE              resume a killed campaign from its journal
                                 (the journal carries the campaign; --cpus,
                                 --mode and --syscalls must match the
                                 original run; results are bit-identical to
                                 an uninterrupted run)
      --fault-plan FILE          arm a deterministic fault-injection plan
                                 (`at N [every M xK] <kind> ...` per line)
      --kill-after N             resilience drill: stop after N iterations
      --checkpoint-every N       journal checkpoint cadence (default 500)
      --supervised               watchdog supervision without a journal
      --metrics-out FILE         write an embsan-metrics-v1 snapshot of the
                                 run (deterministic entries only, so the
                                 file is identical for every worker count
                                 at a fixed seed)
      --trace-out FILE           write the merged embsan-trace-v1 event
                                 trace (deterministic event subset; plain
                                 runs route through the supervised loop to
                                 collect per-iteration spans)
      --mmio-model-free BASE:SIZE
                                 serve guest reads in [BASE, BASE+SIZE) from
                                 a fuzzer-controlled response stream with
                                 per-(pc, addr) refinement instead of
                                 faulting (hex with 0x, or decimal)
      --mmio-withheld            additionally hide the platform device
                                 window from the guest (the region must
                                 cover it): fuzz a firmware whose MMIO map
                                 was never modelled. Programs then run to
                                 their fixed budget slice; journaled runs
                                 record the configuration and resume it
  embsan trace <image> [--call NR:ARG,...]... [--cpus N] [--budget N]
                                 boot under EMBSAN, run executor calls, and
                                 export the structured event trace
      --format jsonl|chrome      output format (default jsonl, the
                                 embsan-trace-v1 stream; chrome emits a
                                 trace_event document for Perfetto)
      --out FILE                 write the trace here (default stdout)
      --metrics-out FILE         also write the session's embsan-metrics-v1
                                 snapshot
  embsan serve --state-dir DIR --socket PATH
                                 crash-tolerant campaign daemon: schedules
                                 submitted campaigns across a supervised
                                 worker pool in fair-share slices; every
                                 durable fact lives under the state
                                 directory, so kill -9 + restart resumes
                                 all jobs bit-identically
      --workers N                worker threads (default 2)
      --slice N                  iterations per scheduling turn and journal
                                 checkpoint cadence (default 50)
      --max-active N             runnable jobs before the rest are parked
                                 lowest-priority-first (default 4)
      --max-queued N             non-terminal jobs before submissions are
                                 shed (default 32)
      --max-strikes N            crashed/wedged turns before a job is
                                 quarantined (default 2)
      --turn-timeout-ms N        wall-clock wedge detector per turn
                                 (default 120000)
      --await-jobs N             exit once N jobs are terminal (soak/CI)
      --report FILE              write the embsan-serve-report-v1 document
                                 on exit
      --trace                    collect per-job deterministic event traces
  embsan submit --socket PATH --firmware NAME [--iters N] [--seed S]
                                 submit a campaign to a running daemon
      --priority N               scheduling priority 0-255; higher runs
                                 first and is shed last (default 0)
      --drill panic-after:N|wedge-at:N
                                 arm a resilience drill (testing/soak)
  embsan jobs --socket PATH [action]
                                 query a running daemon; the action is one
                                 of jobs (default, list jobs and phases),
                                 findings (the deduplicated findings
                                 store), report (embsan-serve-report-v1),
                                 ping, or shutdown (jobs resume on the
                                 next start)
  embsan help                    this text
";

/// Dispatches a command line.
///
/// # Errors
///
/// Returns a human-readable message for any failure.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some((command, rest)) = argv.split_first() else {
        print!("{HELP}");
        return Ok(());
    };
    let parsed = parse(rest)?;
    match command.as_str() {
        "help" | "--help" | "-h" => {
            print!("{HELP}");
            Ok(())
        }
        "build" => cmd_build(&parsed),
        "inspect" => cmd_inspect(&parsed),
        "analyze" => cmd_analyze(&parsed),
        "disasm" => cmd_disasm(&parsed),
        "distill" => cmd_distill(&parsed),
        "probe" => cmd_probe(&parsed),
        "run" => cmd_run(&parsed),
        "trace" => cmd_trace(&parsed),
        "fuzz" => cmd_fuzz(&parsed),
        "serve" => cmd_serve(&parsed),
        "submit" => cmd_submit(&parsed),
        "jobs" => cmd_jobs(&parsed),
        other => Err(format!("unknown command `{other}` (try `embsan help`)")),
    }
}

fn parse_arch(parsed: &Parsed) -> Result<Arch, String> {
    match parsed.option("arch").unwrap_or("arm") {
        "arm" | "armv" => Ok(Arch::Armv),
        "mips" | "mipsv" => Ok(Arch::Mipsv),
        "x86" | "x86v" => Ok(Arch::X86v),
        other => Err(format!("unknown architecture `{other}`")),
    }
}

fn parse_bug(text: &str) -> Result<BugSpec, String> {
    let (location, kind) = text
        .rsplit_once(':')
        .ok_or_else(|| format!("--bug expects LOCATION:KIND, got `{text}`"))?;
    let kind = match kind {
        "oob-write" => BugKind::OobWrite,
        "oob-read" => BugKind::OobRead,
        "oob-far" => BugKind::OobWriteFar,
        "uaf" => BugKind::Uaf,
        "double-free" => BugKind::DoubleFree,
        "null-deref" => BugKind::NullDeref,
        "global-oob" => BugKind::GlobalOob,
        "race" => BugKind::Race,
        "uninit-read" => BugKind::UninitRead,
        other => return Err(format!("unknown bug kind `{other}`")),
    };
    Ok(BugSpec::new(location, kind))
}

fn load_image(parsed: &Parsed) -> Result<FirmwareImage, String> {
    read_image(parsed.positional.first().ok_or("expected an image path")?)
}

fn read_image(path: &str) -> Result<FirmwareImage, String> {
    let bytes = fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    FirmwareImage::parse(&bytes).map_err(|e| format!("{path}: {e}"))
}

fn cmd_build(parsed: &Parsed) -> Result<(), String> {
    let os_name = parsed
        .positional
        .first()
        .ok_or("expected an OS flavour (emblinux|freertos|liteos|vxworks)")?;
    let arch = parse_arch(parsed)?;
    let san = match parsed.option("san").unwrap_or("none") {
        "none" => SanMode::None,
        "c" | "sancall" => SanMode::SanCall,
        "native-kasan" => SanMode::NativeKasan,
        "native-kcsan" => SanMode::NativeKcsan,
        other => return Err(format!("unknown sanitizer mode `{other}`")),
    };
    let bugs: Vec<BugSpec> =
        parsed.option_all("bug").into_iter().map(parse_bug).collect::<Result<_, _>>()?;
    let needs_smp = bugs.iter().any(|b| b.kind == BugKind::Race);
    let opts = BuildOptions::new(arch)
        .san(san)
        .cpus(if needs_smp { 2 } else { 1 })
        .wide_gates(parsed.flags.iter().any(|f| f == "wide-gates"));
    let image = match os_name.as_str() {
        "emblinux" => os::emblinux::build(&opts, &bugs),
        "freertos" => os::freertos::build(&opts, &bugs),
        "liteos" => os::liteos::build(&opts, &bugs),
        "vxworks" => os::vxworks::build_unstripped(&opts, &bugs),
        other => return Err(format!("unknown OS flavour `{other}`")),
    }
    .map_err(|e| format!("build failed: {e}"))?;
    let image = if parsed.flags.iter().any(|f| f == "strip") { image.strip() } else { image };
    let out = parsed.option("o").unwrap_or("firmware.evfw");
    fs::write(out, image.to_bytes()).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {out}: {} ({}, {:?}), {} bytes text, {} symbols, {} seeded bug(s)",
        os_name,
        image.arch,
        image.instr,
        image.text.len(),
        image.symbols.len(),
        bugs.len()
    );
    Ok(())
}

fn cmd_inspect(parsed: &Parsed) -> Result<(), String> {
    let image = load_image(parsed)?;
    println!("arch:         {}", image.arch);
    println!("instrumented: {:?}", image.instr);
    println!("entry:        {:#010x}", image.entry);
    println!("rom:          {:#010x} ({} bytes)", image.rom_base, image.text.len());
    println!("ram:          {:#010x} ({} bytes)", image.ram_base, image.ram_size);
    match image.ready {
        Some(addr) => println!("ready:        {addr:#010x}"),
        None => println!("ready:        (unknown)"),
    }
    println!("symbols:      {}", image.symbols.len());
    for sym in &image.symbols {
        println!("  {:#010x} {:>7} {:?} {}", sym.addr, sym.size, sym.kind, sym.name);
    }
    println!("sanitized globals: {}", image.globals.len());
    for g in &image.globals {
        println!(
            "  {:#010x} size {:>5} redzones {}/{} {}",
            g.addr, g.size, g.redzone_before, g.redzone_after, g.name
        );
    }
    Ok(())
}

fn cmd_analyze(parsed: &Parsed) -> Result<(), String> {
    let image = load_image(parsed)?;
    let cfg = Cfg::build(&image);
    let artifact = embsan_analysis::AnalysisArtifact::from_cfg(&cfg);
    let json_stdout = parsed.option("json") == Some("-");
    for path in
        [parsed.option("out"), parsed.option("json").filter(|&p| p != "-")].into_iter().flatten()
    {
        fs::write(path, artifact.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        if !json_stdout {
            println!("wrote {path}: embsan-analysis-v2, {} operands", artifact.cmp_operands.len());
        }
    }
    if json_stdout {
        // Pure JSON on stdout for piping; the plain report is suppressed.
        print!("{}", artifact.to_json());
        return Ok(());
    }
    println!("== control-flow recovery ==");
    println!(
        "text:       {} bytes, {} reachable instructions ({:.1}% of text)",
        image.text.len(),
        cfg.reachable_insns(),
        100.0 * cfg.reachable_fraction()
    );
    println!(
        "blocks:     {}   functions: {}   address-taken targets: {}",
        cfg.blocks.len(),
        cfg.functions.len(),
        cfg.address_taken.len()
    );

    println!("\n== probe-coverage audit (memory probes armed) ==");
    let report = audit(&image, HookConfig::all()).map_err(|e| e.to_string())?;
    println!(
        "{} blocks audited, {} memory sites checked, {} probed ops",
        report.blocks_audited, report.checked_sites, report.probed_sites
    );
    if report.is_clean() {
        println!("verdict:    CLEAN — every reachable memory op carries a probe");
    } else {
        println!(
            "verdict:    VIOLATIONS — {} missing, {} spurious, {} uncovered",
            report.missing.len(),
            report.spurious.len(),
            report.uncovered.len()
        );
        for (pc, insn) in report.missing.iter().take(8) {
            println!("  missing probe at {pc:#010x}: {insn}");
        }
    }

    println!("\n== allocator-signature candidates (ranked) ==");
    let priors = static_priors_from_cfg(&cfg, &image);
    let name_of =
        |addr: u32| image.function_at(addr).map_or_else(String::new, |s| format!("  {}", s.name));
    for &addr in &priors.alloc_candidates {
        println!("  alloc {:#010x}{}", addr, name_of(addr));
    }
    for &addr in &priors.free_candidates {
        println!("  free  {:#010x}{}", addr, name_of(addr));
    }
    if priors.alloc_candidates.is_empty() && priors.free_candidates.is_empty() {
        println!("  (none)");
    }

    println!("\n== lockset race candidates (KCSAN watchpoint priority order) ==");
    let candidates = race_candidates(&cfg, &image);
    if candidates.is_empty() {
        println!("  (none)");
    }
    for c in candidates.iter().take(10) {
        println!(
            "  {:#010x}{} sites={} writes={} unlocked={} unlocked-writes={}",
            c.addr,
            c.symbol.as_ref().map_or_else(String::new, |s| format!(" ({s})")),
            c.sites,
            c.writes,
            c.unlocked_sites,
            c.unlocked_writes
        );
    }

    // Operands print sorted by value so the output golden-tests cleanly.
    println!("\n== comparison-operand harvest (multi-byte branch constants) ==");
    if artifact.cmp_operands.is_empty() {
        println!("  (none)");
    }
    for op in artifact.cmp_operands.iter().take(12) {
        println!("  {:#010x} guarded at {:#010x}{}", op.value, op.block, name_of(op.block));
    }
    if artifact.cmp_operands.len() > 12 {
        println!("  ... {} more", artifact.cmp_operands.len() - 12);
    }
    Ok(())
}

fn cmd_disasm(parsed: &Parsed) -> Result<(), String> {
    let image = load_image(parsed)?;
    let profile = ArchProfile::for_arch(image.arch);
    for (i, chunk) in image.text.chunks_exact(4).enumerate() {
        let addr = image.rom_base + 4 * i as u32;
        if let Some(sym) = image.symbols.iter().find(|s| s.addr == addr) {
            println!("\n{}:", sym.name);
        }
        let word = Word::from_bytes([chunk[0], chunk[1], chunk[2], chunk[3]], profile.endian);
        match Insn::decode(word) {
            Ok(insn) => println!("  {addr:#010x}: {insn}"),
            Err(_) => println!("  {addr:#010x}: .word {:#010x}", word.0),
        }
    }
    Ok(())
}

fn cmd_distill(parsed: &Parsed) -> Result<(), String> {
    let specs = if parsed.positional.is_empty() {
        embsan_core::reference_specs().map_err(|e| e.to_string())?
    } else {
        parsed
            .positional
            .iter()
            .map(|path| {
                let text =
                    fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
                embsan_core::distill::distill(&text).map_err(|e| format!("{path}: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?
    };
    for spec in &specs {
        println!("{spec}\n");
    }
    println!("# merged specification (§3.1 union rules)\n{}", merge(&specs));
    Ok(())
}

fn probe_mode(parsed: &Parsed, image: &FirmwareImage) -> Result<ProbeMode, String> {
    match parsed.option("mode").unwrap_or("auto") {
        "c" | "compile-time" => Ok(ProbeMode::CompileTime),
        "source" => Ok(ProbeMode::DynamicSource),
        "binary" => Ok(ProbeMode::DynamicBinary),
        "auto" => Ok(if image.instr == InstrMode::SanCall {
            ProbeMode::CompileTime
        } else if image.has_symbols() {
            ProbeMode::DynamicSource
        } else {
            ProbeMode::DynamicBinary
        }),
        other => Err(format!("unknown probe mode `{other}`")),
    }
}

fn cmd_probe(parsed: &Parsed) -> Result<(), String> {
    let image = load_image(parsed)?;
    let mode = probe_mode(parsed, &image)?;
    let artifacts = probe(&image, mode, None).map_err(|e| e.to_string())?;
    println!("# probed with {mode:?}");
    print!("{}", artifacts.to_dsl());
    Ok(())
}

fn parse_call(text: &str) -> Result<(u8, Vec<u32>), String> {
    let (nr, args) = match text.split_once(':') {
        Some((nr, args)) => (nr, args),
        None => (text, ""),
    };
    let nr: u8 =
        nr.parse().map_err(|_| format!("--call expects NR:ARG,...; bad syscall `{nr}`"))?;
    let args = if args.is_empty() {
        Vec::new()
    } else {
        args.split(',')
            .map(|a| {
                let a = a.trim();
                if let Some(hex) = a.strip_prefix("0x") {
                    u32::from_str_radix(hex, 16)
                } else {
                    a.parse()
                }
                .map_err(|_| format!("bad argument `{a}`"))
            })
            .collect::<Result<_, _>>()?
    };
    Ok((nr, args))
}

/// Parses `--mmio-model-free BASE:SIZE` (hex with `0x`, or decimal) and the
/// companion `--mmio-withheld` switch into the model-free MMIO region.
fn mmio_model_free(parsed: &Parsed) -> Result<(Option<(u32, u32)>, bool), String> {
    let withheld = parsed.flags.iter().any(|f| f == "mmio-withheld");
    let Some(text) = parsed.option("mmio-model-free") else {
        if withheld {
            return Err("--mmio-withheld requires --mmio-model-free BASE:SIZE".to_string());
        }
        return Ok((None, false));
    };
    let parse = |part: &str| -> Result<u32, String> {
        let (digits, radix) = part.strip_prefix("0x").map_or((part, 10), |hex| (hex, 16));
        u32::from_str_radix(digits, radix).map_err(|e| format!("--mmio-model-free {text}: {e}"))
    };
    let (base, size) = text
        .split_once(':')
        .ok_or_else(|| format!("--mmio-model-free {text}: expected BASE:SIZE"))?;
    let region = (parse(base)?, parse(size)?);
    if region.1 == 0 {
        return Err("--mmio-model-free: size must be non-zero".to_string());
    }
    Ok((Some(region), withheld))
}

/// The campaign parameters the command line fixes.
fn fuzz_campaign(parsed: &Parsed) -> Result<CampaignConfig, String> {
    let (model_free, mmio_withheld) = mmio_model_free(parsed)?;
    Ok(CampaignConfig {
        iterations: parsed.option_u64("iters", 5_000)?,
        seed: parsed.option_u64("seed", 0xE1B)?,
        ready_budget: parsed.option_u64("budget", 400_000_000)?,
        model_free,
        mmio_withheld,
        ..CampaignConfig::default()
    })
}

/// Probes `image` in the `--mode` probe mode; returns the artifacts and
/// the `--cpus` vCPU count a session boots them on.
fn probe_image(parsed: &Parsed, image: &FirmwareImage) -> Result<(ProbeArtifacts, usize), String> {
    let mode = probe_mode(parsed, image)?;
    let artifacts = probe(image, mode, None).map_err(|e| e.to_string())?;
    Ok((artifacts, parsed.option_u64("cpus", 1)? as usize))
}

fn ready_session(
    parsed: &Parsed,
    image: &FirmwareImage,
    campaign: &CampaignConfig,
) -> Result<Session, String> {
    let (artifacts, cpus) = probe_image(parsed, image)?;
    boot_session(image, &artifacts, cpus, campaign).map_err(|e| e.to_string())
}

fn cmd_run(parsed: &Parsed) -> Result<(), String> {
    let mut session = ready_session(parsed, &load_image(parsed)?, &fuzz_campaign(parsed)?)?;
    let program = calls_program(parsed)?;
    let outcome = session.run_program(&program, 50_000_000).map_err(|e| e.to_string())?;
    println!("exit:    {:?}", outcome.exit);
    println!("results: {:?}", outcome.results);
    if !outcome.console.is_empty() {
        println!("console: {}", String::from_utf8_lossy(&outcome.console));
    }
    if outcome.reports.is_empty() {
        println!("no sanitizer reports");
    }
    for report in &outcome.reports {
        print!("{}", session.render_report(report));
    }
    Ok(())
}

/// Builds the program from repeated `--call` options (default: syscall 0).
fn calls_program(parsed: &Parsed) -> Result<ExecProgram, String> {
    let mut program = ExecProgram::new();
    for call in parsed.option_all("call") {
        let (nr, args) = parse_call(call)?;
        program.push(nr, &args);
    }
    if program.calls.is_empty() {
        program.push(0, &[]);
    }
    Ok(program)
}

fn cmd_trace(parsed: &Parsed) -> Result<(), String> {
    use embsan_obs::{trace_to_chrome, trace_to_jsonl, TraceConfig};
    let image_path = parsed.positional.first().ok_or("expected an image path")?.clone();
    let mut session = ready_session(parsed, &load_image(parsed)?, &fuzz_campaign(parsed)?)?;
    // Enabled after `run_to_ready` so the trace holds only the programs'
    // events; the full preset is reproducible because a single sequential
    // session's cache behaviour is itself deterministic.
    session.enable_tracing(TraceConfig::full());
    let program = calls_program(parsed)?;
    let outcome = session.run_program(&program, 50_000_000).map_err(|e| e.to_string())?;
    let events = session.take_trace();
    let text = match parsed.option("format").unwrap_or("jsonl") {
        "jsonl" => trace_to_jsonl(&events, &[("image", &image_path)]),
        "chrome" => trace_to_chrome(&events),
        other => return Err(format!("unknown trace format `{other}` (jsonl|chrome)")),
    };
    match parsed.option("out") {
        Some(path) => {
            fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote {path}: {} events, exit {:?}", events.len(), outcome.exit);
        }
        // Status goes to stderr so a piped stdout stays pure JSONL.
        None => {
            print!("{text}");
            eprintln!("{} events, exit {:?}", events.len(), outcome.exit);
        }
    }
    if let Some(path) = parsed.option("metrics-out") {
        let json = session.metrics_snapshot().to_json(false);
        fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// Syscall descriptions for image-based fuzzing. Without source knowledge
/// the interface size is a tester input; the default assumes the standard
/// executor layout with up to 16 gated syscalls.
fn fuzz_descriptions(parsed: &Parsed) -> Result<Vec<embsan_fuzz::SyscallDesc>, String> {
    let extra = parsed.option_u64("syscalls", 16)? as usize;
    let mut syscall_descs = embsan_fuzz::descs::base_descriptions();
    for i in 0..extra {
        syscall_descs.push(embsan_fuzz::SyscallDesc {
            nr: embsan_guestos::executor::sys::BUG_BASE + i as u8,
            args: vec![embsan_fuzz::ArgKind::Key],
        });
    }
    Ok(syscall_descs)
}

/// The campaign's dictionary: the image's extracted constants, plus the
/// harvested wide operands of `--analysis` (when given, cross-checked
/// against the image) for a directed campaign.
fn fuzz_dictionary(
    parsed: &Parsed,
    image: &FirmwareImage,
) -> Result<embsan_fuzz::Dictionary, String> {
    let dict = embsan_fuzz::Dictionary::extract(image);
    let Some(path) = parsed.option("analysis") else { return Ok(dict) };
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let artifact =
        embsan_analysis::AnalysisArtifact::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if !artifact.matches_image(image) {
        return Err(format!(
            "{path}: artifact was built from a different image (arch/entry/text mismatch)"
        ));
    }
    let dict = dict.with_wide(&artifact.operands());
    println!("directed: {} harvested operand(s) from {path}", dict.wide().len());
    Ok(dict)
}

/// Reads and parses `--fault-plan FILE` (when given).
fn fuzz_fault_plan(parsed: &Parsed) -> Result<Option<embsan_emu::fault::FaultPlan>, String> {
    let Some(path) = parsed.option("fault-plan") else { return Ok(None) };
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let plan = embsan_emu::fault::FaultPlan::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(Some(plan))
}

/// Writes the `--trace-out` / `--metrics-out` artifacts of a fuzz run.
/// Metrics are serialized with deterministic entries only, so the file is
/// byte-identical across repeated runs and worker counts at a fixed seed:
/// the run's degraded-mode entries join the snapshot as Telemetry, which
/// the file leaves out.
fn write_fuzz_outputs(
    parsed: &Parsed,
    trace: Option<&embsan_obs::MergedTrace>,
    mut snapshot: embsan_obs::MetricsSnapshot,
    degraded: Vec<embsan_obs::MetricEntry>,
    meta: &[(&str, &str)],
) -> Result<(), String> {
    snapshot.entries.extend(degraded);
    snapshot.entries.sort_by(|a, b| (&a.subsystem, &a.name).cmp(&(&b.subsystem, &b.name)));
    if let Some(path) = parsed.option("trace-out") {
        let trace = trace.ok_or("no event trace was collected")?;
        fs::write(path, trace.to_jsonl(meta)).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}: {} events", trace.event_count());
    }
    if let Some(path) = parsed.option("metrics-out") {
        fs::write(path, snapshot.to_json(false))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn print_findings(findings: &[embsan_fuzz::Finding]) {
    for finding in findings {
        let calls: Vec<u8> = finding.program.calls.iter().map(|c| c.nr).collect();
        println!(
            "[{}] pc={:#010x} reproducer calls {calls:?}",
            finding.report.class, finding.report.pc
        );
    }
}

fn print_supervised(outcome: &embsan_fuzz::SupervisedOutcome) {
    let stats = &outcome.stats;
    println!(
        "execs {}  corpus {}  coverage {}  findings {}",
        stats.execs, stats.corpus, stats.coverage, stats.findings
    );
    let health = &outcome.health;
    println!(
        "health: wedges {}  recoveries {}  quarantined {}  transient-retries {}  \
         wfi-hangs {}  checkpoints {}",
        health.wedges,
        health.recoveries,
        health.quarantined,
        health.transient_retries,
        health.wfi_hangs,
        health.checkpoints
    );
    let inj = &outcome.injection;
    if inj.total() > 0 {
        println!(
            "faults injected: {} (ram-bit-flips {}  mmio {}  irqs {}  alloc-fail {}  wedges {})",
            inj.total(),
            inj.ram_bit_flips,
            inj.mmio_corruptions,
            inj.spurious_irqs,
            inj.alloc_failures,
            inj.cpu_wedges
        );
    }
    if !outcome.completed {
        println!(
            "stopped early at iteration {} (resume with `embsan fuzz --resume <journal>`)",
            outcome.iterations_done
        );
    }
    print_findings(&outcome.findings);
}

fn cmd_fuzz(parsed: &Parsed) -> Result<(), String> {
    let workers_flag = parsed.option("workers").is_some();
    let workers = parsed.option_u64("workers", 1)? as usize;
    if workers_flag && workers == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    let epoch_len = parsed.option_u64("epoch", 64)?;
    if epoch_len == 0 {
        return Err("--epoch must be at least 1".to_string());
    }
    let mut degraded = Vec::new();
    if parsed.option("epoch").is_some() && !workers_flag {
        // Only the parallel engine merges in epochs; every other path runs
        // one sequential iteration stream.
        degraded.push(warn_degraded(
            "sequential",
            "epoch_ignored",
            epoch_len,
            format!("only --workers runs merge in epochs; ignoring --epoch {epoch_len}"),
        ));
    }
    let supervised = parsed.option("journal").is_some()
        || parsed.option("resume").is_some()
        || parsed.option("fault-plan").is_some()
        || parsed.option("kill-after").is_some()
        || parsed.flags.iter().any(|f| f == "supervised");
    if supervised {
        if workers > 1 {
            // The journaled path's contract is bit-identical single-thread
            // replay; --workers composes by falling back, not by changing
            // the journal format.
            degraded.push(warn_degraded(
                "supervised",
                "workers_ignored",
                workers as u64,
                format!(
                    "supervised/journaled runs are single-thread; ignoring --workers {workers}"
                ),
            ));
        }
        cmd_fuzz_supervised(parsed, degraded)
    } else if workers_flag {
        // An explicit --workers always uses the parallel engine — including
        // --workers 1 — so results are comparable across every worker count.
        cmd_fuzz_parallel(parsed, workers, epoch_len)
    } else if parsed.option("trace-out").is_some() {
        // Merged per-iteration traces come from the supervised loop; a
        // traced plain run is a supervised run with the default policy.
        cmd_fuzz_supervised(parsed, degraded)
    } else {
        cmd_fuzz_plain(parsed, degraded)
    }
}

/// Emits a degraded-mode warning as a structured `embsan-trace-v1` event
/// on stderr and returns the matching Telemetry-class metric entry for
/// the run's snapshot (excluded from `--metrics-out`, which keeps only
/// deterministic entries — a degraded run still writes identical files).
fn warn_degraded(
    component: &'static str,
    metric: &'static str,
    count: u64,
    detail: String,
) -> embsan_obs::MetricEntry {
    use embsan_obs::{EventKind, TraceConfig, Tracer};
    let tracer = Tracer::new(TraceConfig { capacity: 4, ..TraceConfig::deterministic() });
    tracer.record(EventKind::DegradedMode { component, detail });
    for event in tracer.drain() {
        eprintln!("{}", event.to_jsonl(None));
    }
    embsan_obs::MetricEntry {
        subsystem: "cli".to_string(),
        name: metric.to_string(),
        class: embsan_obs::MetricClass::Telemetry,
        value: embsan_obs::MetricValue::Counter(count),
    }
}

fn cmd_fuzz_parallel(parsed: &Parsed, workers: usize, epoch_len: u64) -> Result<(), String> {
    use embsan_fuzz::{run_parallel, ParallelConfig, Strategy};
    let image = load_image(parsed)?;
    let (artifacts, cpus) = probe_image(parsed, &image)?;
    let dict = fuzz_dictionary(parsed, &image)?;
    let config = ParallelConfig {
        workers,
        epoch_len,
        campaign: fuzz_campaign(parsed)?,
        trace: parsed.option("trace-out").is_some(),
    };
    let syscall_descs = fuzz_descriptions(parsed)?;
    println!(
        "parallel fuzzing: {} iterations, seed {}, {} workers, epoch {}, dictionary {} entries",
        config.campaign.iterations,
        config.campaign.seed,
        workers,
        config.epoch_len,
        dict.len()
    );
    let factory = |_worker: usize| boot_session(&image, &artifacts, cpus, &config.campaign);
    let outcome = run_parallel(factory, &syscall_descs, &dict, Strategy::Tardis, &config)
        .map_err(|e| e.to_string())?;
    let stats = &outcome.stats;
    println!(
        "execs {}  corpus {}  coverage {}  findings {}",
        stats.execs, stats.corpus, stats.coverage, stats.findings
    );
    println!(
        "wall {:.2}s ({:.0} execs/sec)  epochs {}  cache: {} translations, {} hits, \
         {} generation reuses",
        stats.fuzz_wall.as_secs_f64(),
        stats.execs as f64 / stats.fuzz_wall.as_secs_f64().max(f64::EPSILON),
        stats.epochs,
        stats.cache.translations,
        stats.cache.hits,
        stats.cache.generation_hits
    );
    print_findings(&outcome.findings);
    // No worker count in the meta: the trace and deterministic metrics are
    // byte-identical for every worker count, and the header must be too.
    let seed = config.campaign.seed.to_string();
    let iters = config.campaign.iterations.to_string();
    let meta = [("engine", "parallel"), ("seed", seed.as_str()), ("iterations", iters.as_str())];
    let snapshot = outcome.stats.metrics_snapshot();
    write_fuzz_outputs(parsed, outcome.trace.as_ref(), snapshot, Vec::new(), &meta)
}

fn cmd_fuzz_plain(parsed: &Parsed, degraded: Vec<embsan_obs::MetricEntry>) -> Result<(), String> {
    use embsan_fuzz::{Fuzzer, FuzzerConfig, Strategy};
    let image = load_image(parsed)?;
    let campaign = fuzz_campaign(parsed)?;
    let mut session = ready_session(parsed, &image, &campaign)?;
    let syscall_descs = fuzz_descriptions(parsed)?;
    let dict = fuzz_dictionary(parsed, &image)?;
    let (iters, seed) = (campaign.iterations, campaign.seed);
    println!("fuzzing: {iters} iterations, seed {seed}, dictionary {} entries", dict.len());
    let config = FuzzerConfig::new(Strategy::Tardis, seed);
    let mut fuzzer = Fuzzer::new(&mut session, syscall_descs, dict, config);
    fuzzer.run(iters).map_err(|e| e.to_string())?;
    let stats = fuzzer.stats();
    println!(
        "execs {}  corpus {}  coverage {}  findings {}",
        stats.execs, stats.corpus, stats.coverage, stats.findings
    );
    print_findings(&fuzzer.into_findings());
    write_fuzz_outputs(parsed, None, session.metrics_snapshot(), degraded, &[])
}

/// A supervised run: a fresh campaign from the command line, or with
/// `--resume` a killed one from its journal. A journal carries the
/// campaign, but the session's shape (`--cpus`, `--mode`) and the syscall
/// descriptions (`--syscalls`) come from the command line; the run checks
/// both against the journal before its first iteration.
fn cmd_fuzz_supervised(
    parsed: &Parsed,
    mut degraded: Vec<embsan_obs::MetricEntry>,
) -> Result<(), String> {
    use embsan_fuzz::{
        CampaignErrorKind, Dictionary, JournalError, StartInfo, Strategy, SupervisedRun,
        SupervisorConfig,
    };
    use std::path::Path;
    if parsed.option("analysis").is_some() {
        // The journal does not record the artifact, so a resumed run could
        // not rebuild the directed dictionary; the supervised path stays
        // undirected.
        degraded.push(warn_degraded(
            "supervised",
            "analysis_ignored",
            1,
            "supervised/journaled runs are undirected; ignoring --analysis".to_string(),
        ));
    }
    let run = match parsed.option("resume") {
        Some(path) => SupervisedRun::resume(Path::new(path)).map_err(|e| format!("{path}: {e}"))?,
        None => {
            let image_path = parsed.positional.first().ok_or("expected an image path")?;
            let start = StartInfo::new(
                image_path.clone(),
                Strategy::Tardis,
                &fuzz_campaign(parsed)?,
                parsed.option_u64("checkpoint-every", 500)?,
            );
            SupervisedRun::fresh(start, parsed.option("journal").map(Path::new))
        }
    };
    let image = read_image(&run.start.firmware)?;
    let mut session = ready_session(parsed, &image, &run.start.campaign())?;
    let policy = SupervisorConfig {
        kill_after: parsed
            .option("kill-after")
            .map(|_| parsed.option_u64("kill-after", 0))
            .transpose()?,
        fault_plan: fuzz_fault_plan(parsed)?,
        trace: parsed.option("trace-out").is_some(),
        ..SupervisorConfig::default()
    };
    let syscall_descs = fuzz_descriptions(parsed)?;
    let dict = Dictionary::extract(&image);
    let seed = run.start.seed.to_string();
    let iters = run.start.iterations.to_string();
    match parsed.option("resume") {
        Some(path) => println!(
            "resuming: {} at iteration {}/{iters} (journal {path}{})",
            run.start.firmware,
            run.resume.as_ref().map_or(0, |point| point.iteration),
            if run.truncated { ", torn tail discarded" } else { "" }
        ),
        None => println!(
            "supervised fuzzing: {iters} iterations, seed {seed}, dictionary {} entries{}",
            dict.len(),
            if policy.fault_plan.is_some() { ", fault plan armed" } else { "" }
        ),
    }
    let outcome =
        run.run(&mut session, syscall_descs, dict, &policy).map_err(|e| match e.kind {
            CampaignErrorKind::Journal(JournalError::Mismatch { .. }) => {
                format!("{e}; resume with the original run's --cpus, --mode and --syscalls")
            }
            _ => e.to_string(),
        })?;
    print_supervised(&outcome);
    let meta = [("engine", "supervised"), ("seed", seed.as_str()), ("iterations", iters.as_str())];
    write_fuzz_outputs(parsed, outcome.trace.as_ref(), outcome.metrics_snapshot(), degraded, &meta)
}

#[cfg(unix)]
fn cmd_serve(parsed: &Parsed) -> Result<(), String> {
    use embsan_serve::{DaemonConfig, ServeConfig, ServeEngine};
    let state_dir = parsed.option("state-dir").ok_or("expected --state-dir <dir>")?;
    let socket = parsed.option("socket").ok_or("expected --socket <path>")?;
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        state_dir: std::path::PathBuf::from(state_dir),
        workers: parsed.option_u64("workers", defaults.workers as u64)? as usize,
        slice: parsed.option_u64("slice", defaults.slice)?,
        max_active: parsed.option_u64("max-active", defaults.max_active as u64)? as usize,
        max_queued: parsed.option_u64("max-queued", defaults.max_queued as u64)? as usize,
        max_strikes: parsed.option_u64("max-strikes", u64::from(defaults.max_strikes))? as u32,
        turn_timeout_ms: parsed.option_u64("turn-timeout-ms", defaults.turn_timeout_ms)?,
        trace: parsed.flags.iter().any(|f| f == "trace"),
        ..defaults
    };
    let daemon = DaemonConfig {
        socket: std::path::PathBuf::from(socket),
        await_jobs: match parsed.option("await-jobs") {
            Some(_) => Some(parsed.option_u64("await-jobs", 0)?),
            None => None,
        },
        report_path: parsed.option("report").map(std::path::PathBuf::from),
    };
    let engine = ServeEngine::open(config)?;
    let queued =
        engine.jobs_status().iter().filter(|(_, _, phase, _)| !phase.is_terminal()).count();
    println!("serve: listening on {socket} (state {state_dir}, {queued} job(s) resumable)");
    embsan_serve::run_daemon(engine, &daemon, &mut std::io::stderr())
}

#[cfg(unix)]
fn cmd_submit(parsed: &Parsed) -> Result<(), String> {
    use embsan_obs::json::Value;
    let socket = parsed.option("socket").ok_or("expected --socket <path>")?;
    let firmware = parsed.option("firmware").ok_or("expected --firmware <name>")?;
    let iterations = parsed.option_u64("iters", 400)?;
    let seed = parsed.option_u64("seed", 17)?;
    let priority = parsed.option_u64("priority", 0)?;
    if priority > u64::from(u8::MAX) {
        return Err("--priority must be 0-255".to_string());
    }
    let mut request = vec![
        ("cmd", Value::from("submit")),
        ("firmware", Value::from(firmware)),
        ("iterations", Value::from(iterations)),
        ("seed", Value::from(seed)),
        ("priority", Value::from(priority)),
    ];
    if let Some(text) = parsed.option("drill") {
        // Validate locally so a typo is reported before the daemon sees it.
        embsan_serve::Drill::parse(text)?;
        request.push(("drill", Value::from(text)));
    }
    let line = Value::object(request).to_string();
    let response = embsan_serve::request(std::path::Path::new(socket), &line)?;
    println!("{response}");
    Ok(())
}

#[cfg(unix)]
fn cmd_jobs(parsed: &Parsed) -> Result<(), String> {
    use embsan_obs::json::Value;
    let socket = parsed.option("socket").ok_or("expected --socket <path>")?;
    let action = parsed.positional.first().map_or("jobs", String::as_str);
    if !matches!(action, "jobs" | "findings" | "report" | "ping" | "shutdown") {
        return Err(format!("unknown action `{action}` (try `embsan help`)"));
    }
    let line = Value::object([("cmd", Value::from(action))]).to_string();
    let response = embsan_serve::request(std::path::Path::new(socket), &line)?;
    println!("{response}");
    Ok(())
}

#[cfg(not(unix))]
fn cmd_serve(_parsed: &Parsed) -> Result<(), String> {
    Err("`embsan serve` needs Unix domain sockets".to_string())
}

#[cfg(not(unix))]
fn cmd_submit(_parsed: &Parsed) -> Result<(), String> {
    Err("`embsan submit` needs Unix domain sockets".to_string())
}

#[cfg(not(unix))]
fn cmd_jobs(_parsed: &Parsed) -> Result<(), String> {
    Err("`embsan jobs` needs Unix domain sockets".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bug_specs_parse() {
        let bug = parse_bug("drivers/net:uaf").unwrap();
        assert_eq!(bug.location, "drivers/net");
        assert_eq!(bug.kind, BugKind::Uaf);
        // Locations may contain colons only before the last one.
        assert!(parse_bug("nokind").is_err());
        assert!(parse_bug("x:mystery").is_err());
    }

    #[test]
    fn calls_parse() {
        assert_eq!(parse_call("2:64,0").unwrap(), (2, vec![64, 0]));
        assert_eq!(parse_call("0").unwrap(), (0, vec![]));
        assert_eq!(parse_call("16:0xAB12").unwrap(), (16, vec![0xAB12]));
        assert!(parse_call("x:1").is_err());
        assert!(parse_call("1:y").is_err());
    }

    #[test]
    fn unknown_command_is_reported() {
        let err = dispatch(&["bogus".to_string()]).unwrap_err();
        assert!(err.contains("bogus"));
    }

    #[test]
    fn help_prints() {
        dispatch(&[]).unwrap();
        dispatch(&["help".to_string()]).unwrap();
    }
}
