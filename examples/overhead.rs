//! Quick overhead comparison on one firmware — a single-target preview of
//! Figure 2.
//!
//! Run with `cargo run --release --example overhead`.

use embsan::core::probe::{probe, ProbeMode};
use embsan::core::session::Session;
use embsan::emu::hook::NullHook;
use embsan::emu::machine::RunExit;
use embsan::guestos::firmware_by_name;
use embsan::guestos::workload::merged_corpus;
use embsan::guestos::SanMode;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = firmware_by_name("OpenWRT-armvirt").expect("registered firmware");
    let corpus = merged_corpus(7, 12, 40);
    println!("workload: {} programs on {}", corpus.len(), spec.name);

    // Baseline: no sanitizer.
    let image = spec.build(SanMode::None)?;
    let mut machine = image.boot_machine(1)?;
    machine.run(&mut NullHook, 400_000_000)?;
    let start = Instant::now();
    for program in &corpus {
        machine.bus_mut().devices.mailbox.host_load(&program.encode());
        loop {
            let exit = machine.run(&mut NullHook, 500_000)?;
            if machine.bus().devices.mailbox.answered() || exit != RunExit::BudgetExhausted {
                break;
            }
        }
    }
    let baseline = start.elapsed();
    println!("baseline:              {baseline:>10.2?}");

    // EMBSAN-C and EMBSAN-D with the merged KASAN+KCSAN spec.
    let specs = embsan::core::reference_specs()?;
    for (label, san, mode) in [
        ("EMBSAN-C (hypercalls)", SanMode::SanCall, ProbeMode::CompileTime),
        ("EMBSAN-D (dynamic)   ", SanMode::None, ProbeMode::DynamicSource),
    ] {
        let image = spec.build(san)?;
        let artifacts = probe(&image, mode, None)?;
        let mut session = Session::new(&image, &specs, &artifacts)?;
        session.run_to_ready(400_000_000)?;
        let start = Instant::now();
        for program in &corpus {
            session.run_program(program, 50_000_000)?;
        }
        let elapsed = start.elapsed();
        println!(
            "{label}: {elapsed:>10.2?}  ({:.2}x, {} checks)",
            elapsed.as_secs_f64() / baseline.as_secs_f64(),
            session.runtime().checks_performed()
        );
        assert!(session.reports().is_empty(), "clean workload");
    }
    Ok(())
}
