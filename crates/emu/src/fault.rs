//! Deterministic fault injection: scheduled hardware-level faults.
//!
//! A [`FaultPlan`] is a list of fault events keyed on the machine's
//! *lifetime* retired-instruction clock (which, unlike the snapshot-visible
//! counter, never rewinds on [`crate::snapshot::Snapshot`] restore). Because
//! the trigger clock and the machine are both deterministic, a plan injects
//! exactly the same faults at exactly the same points on every run — which
//! is what makes resilience testing of the fuzzing harness reproducible.
//!
//! Supported fault kinds model the classes a long embedded campaign meets
//! in practice:
//!
//! - **RAM bit flips** — single-event upsets in guest memory;
//! - **MMIO read corruption** — a flaky peripheral bus XOR-ing read data;
//! - **spurious timer IRQs** — an interrupt line glitching outside its
//!   programmed schedule;
//! - **allocator failures** — armed through the [`crate::device::FaultDev`]
//!   MMIO device the guest allocator can poll;
//! - **stuck vCPUs** — a core that keeps fetching (and retiring) the same
//!   instruction without making progress, the canonical live-lock.
//!
//! Plans can be built programmatically or parsed from a small line-based
//! spec (see [`FaultPlan::parse`]).

use embsan_obs::{MetricClass, MetricsRegistry};

/// One kind of injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip bit `bit` of the RAM byte at `offset` (relative to RAM base).
    RamBitFlip {
        /// Byte offset into RAM.
        offset: u32,
        /// Bit index 0..=7.
        bit: u8,
    },
    /// XOR the next `reads` guest MMIO reads with `xor`.
    MmioCorrupt {
        /// Corruption mask applied to read data.
        xor: u32,
        /// Number of subsequent MMIO reads affected.
        reads: u32,
    },
    /// Raise a timer interrupt on every vCPU outside the timer's schedule.
    SpuriousIrq,
    /// Arm `count` allocation failures on the fault device.
    AllocFail {
        /// Number of allocations the device will fail.
        count: u32,
    },
    /// Wedge vCPU `cpu`: it keeps retiring instructions without making
    /// progress until a snapshot restore clears the stuck line.
    StuckCpu {
        /// Index of the vCPU to wedge.
        cpu: usize,
    },
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FaultKind::RamBitFlip { offset, bit } => {
                write!(f, "flip ram+{offset:#x} bit {bit}")
            }
            FaultKind::MmioCorrupt { xor, reads } => {
                write!(f, "xor {reads} mmio reads with {xor:#x}")
            }
            FaultKind::SpuriousIrq => write!(f, "spurious timer irq"),
            FaultKind::AllocFail { count } => write!(f, "fail {count} allocations"),
            FaultKind::StuckCpu { cpu } => write!(f, "wedge vcpu {cpu}"),
        }
    }
}

/// One scheduled fault: fires `count` times starting `at` lifetime-retired
/// instructions after the plan is armed, `every` instructions apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Trigger offset (retired instructions after arming).
    pub at: u64,
    /// Repeat interval in retired instructions (ignored when `count <= 1`).
    pub every: u64,
    /// Total number of firings (at least 1).
    pub count: u32,
    /// What to inject.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// A one-shot event.
    pub fn once(at: u64, kind: FaultKind) -> FaultEvent {
        FaultEvent { at, every: 0, count: 1, kind }
    }

    /// A repeating event: `count` firings, `every` instructions apart.
    pub fn repeating(at: u64, every: u64, count: u32, kind: FaultKind) -> FaultEvent {
        FaultEvent { at, every, count: count.max(1), kind }
    }
}

/// A deterministic fault-injection schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

/// A malformed fault-plan spec line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fault plan line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for FaultPlanError {}

fn parse_num(token: &str) -> Option<u64> {
    let token = token.replace('_', "");
    if let Some(hex) = token.strip_prefix("0x").or_else(|| token.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        token.parse().ok()
    }
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds an event to the plan.
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
    }

    /// Builder-style [`FaultPlan::push`].
    pub fn with(mut self, event: FaultEvent) -> FaultPlan {
        self.push(event);
        self
    }

    /// The scheduled events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan schedules anything.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Parses the line-based fault-plan spec format:
    ///
    /// ```text
    /// # seu in the heap, then a flaky bus window
    /// at 50_000 flip 0x2400 3
    /// at 80_000 every 1_000 x4 mmio-xor 0xFF 16
    /// at 120_000 irq
    /// at 150_000 alloc-fail 2
    /// at 200_000 stuck-cpu 0
    /// ```
    ///
    /// Each non-comment line is `at <N> [every <M> x<K>] <kind> [args…]`,
    /// with `<N>`/`<M>` in retired instructions relative to arming.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultPlanError`] naming the first malformed line; no
    /// input text can panic the parser.
    pub fn parse(text: &str) -> Result<FaultPlan, FaultPlanError> {
        let mut plan = FaultPlan::new();
        for (index, raw) in text.lines().enumerate() {
            let line = index + 1;
            let err = |message: String| FaultPlanError { line, message };
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let mut tokens = content.split_whitespace();
            if tokens.next() != Some("at") {
                return Err(err(format!("expected `at <instructions>`, got `{content}`")));
            }
            let at = tokens
                .next()
                .and_then(parse_num)
                .ok_or_else(|| err("`at` needs an instruction count".into()))?;
            let mut every = 0u64;
            let mut count = 1u32;
            let mut next = tokens.next();
            if next == Some("every") {
                every = tokens
                    .next()
                    .and_then(parse_num)
                    .ok_or_else(|| err("`every` needs an interval".into()))?;
                let reps = tokens
                    .next()
                    .and_then(|t| t.strip_prefix('x'))
                    .and_then(parse_num)
                    .ok_or_else(|| err("`every <M>` needs a repeat count `x<K>`".into()))?;
                count = u32::try_from(reps)
                    .ok()
                    .filter(|&c| c >= 1)
                    .ok_or_else(|| err("repeat count out of range".into()))?;
                next = tokens.next();
            }
            let mut arg = |name: &str| {
                tokens
                    .next()
                    .and_then(parse_num)
                    .ok_or_else(|| err(format!("missing or malformed `{name}` argument")))
            };
            let kind = match next {
                Some("flip") => {
                    let offset = arg("offset")?;
                    let bit = arg("bit")?;
                    if bit > 7 {
                        return Err(err(format!("bit index {bit} out of range 0..=7")));
                    }
                    let offset = u32::try_from(offset)
                        .map_err(|_| err("RAM offset out of 32-bit range".into()))?;
                    FaultKind::RamBitFlip { offset, bit: bit as u8 }
                }
                Some("mmio-xor") => {
                    let xor = arg("xor")?;
                    let reads = arg("reads")?;
                    FaultKind::MmioCorrupt {
                        xor: xor as u32,
                        reads: u32::try_from(reads)
                            .map_err(|_| err("read count out of range".into()))?,
                    }
                }
                Some("irq") => FaultKind::SpuriousIrq,
                Some("alloc-fail") => FaultKind::AllocFail {
                    count: u32::try_from(arg("count")?)
                        .map_err(|_| err("alloc-fail count out of range".into()))?,
                },
                Some("stuck-cpu") => FaultKind::StuckCpu { cpu: arg("cpu")? as usize },
                Some(other) => return Err(err(format!("unknown fault kind `{other}`"))),
                None => return Err(err("missing fault kind".into())),
            };
            if tokens.next().is_some() {
                return Err(err("trailing tokens after fault arguments".into()));
            }
            plan.push(FaultEvent { at, every, count, kind });
        }
        Ok(plan)
    }
}

/// Counters for faults actually injected by an armed plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionStats {
    /// RAM bits flipped.
    pub ram_bit_flips: u64,
    /// MMIO corruption windows opened.
    pub mmio_corruptions: u64,
    /// Spurious interrupts raised.
    pub spurious_irqs: u64,
    /// Allocation-failure armings delivered to the fault device.
    pub alloc_failures: u64,
    /// vCPU wedge events.
    pub cpu_wedges: u64,
}

impl InjectionStats {
    /// Total faults injected across all kinds.
    pub fn total(&self) -> u64 {
        self.ram_bit_flips
            + self.mmio_corruptions
            + self.spurious_irqs
            + self.alloc_failures
            + self.cpu_wedges
    }

    /// Copies every counter into `registry` under the `injection`
    /// subsystem, all in `class`.
    pub fn record_into(&self, registry: &mut MetricsRegistry, class: MetricClass) {
        registry.counter("injection", "ram_bit_flips", class, self.ram_bit_flips);
        registry.counter("injection", "mmio_corruptions", class, self.mmio_corruptions);
        registry.counter("injection", "spurious_irqs", class, self.spurious_irqs);
        registry.counter("injection", "alloc_failures", class, self.alloc_failures);
        registry.counter("injection", "cpu_wedges", class, self.cpu_wedges);
    }
}

/// Why a guest that exhausted its budget is not making progress.
///
/// Produced by [`crate::machine::Machine::classify_hang`], which slices a
/// further window of execution off the (already exhausted) budget and
/// watches whether instructions still retire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HangClass {
    /// All vCPUs parked in `wfi` with no wake source: the guest is idle,
    /// not hung — the budget was simply too small for it to finish.
    WfiIdle,
    /// Instructions keep retiring without the machine halting or idling:
    /// a live-lock (spin loop, IRQ storm, stuck core).
    LiveLock,
    /// The guest made visible progress (halted, faulted, or stopped)
    /// within the classification window; not a hang at all.
    Responsive,
}

/// One armed event inside a machine (absolute lifetime-clock trigger).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArmedFault {
    pub(crate) fire_at: u64,
    pub(crate) every: u64,
    pub(crate) remaining: u32,
    pub(crate) kind: FaultKind,
}

/// A [`FaultPlan`] armed against a machine's lifetime clock.
#[derive(Debug, Clone, Default)]
pub(crate) struct ArmedPlan {
    pub(crate) events: Vec<ArmedFault>,
}

impl ArmedPlan {
    pub(crate) fn arm(plan: &FaultPlan, now: u64) -> ArmedPlan {
        ArmedPlan {
            events: plan
                .events
                .iter()
                .map(|e| ArmedFault {
                    fire_at: now.saturating_add(e.at),
                    every: e.every,
                    remaining: e.count.max(1),
                    kind: e.kind,
                })
                .collect(),
        }
    }

    /// Pops every event due at lifetime-clock `now`, rescheduling repeats.
    pub(crate) fn take_due(&mut self, now: u64) -> Vec<FaultKind> {
        let mut due = Vec::new();
        self.events.retain_mut(|event| {
            while event.remaining > 0 && event.fire_at <= now {
                due.push(event.kind);
                event.remaining -= 1;
                if event.every == 0 {
                    event.remaining = 0;
                }
                event.fire_at = event.fire_at.saturating_add(event.every.max(1));
            }
            event.remaining > 0
        });
        due
    }

    pub(crate) fn pending(&self) -> usize {
        self.events.iter().map(|e| e.remaining as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_kinds() {
        let plan = FaultPlan::parse(
            "# header comment\n\
             at 50_000 flip 0x2400 3\n\
             at 80_000 every 1_000 x4 mmio-xor 0xFF 16\n\
             at 120000 irq   # inline comment\n\
             \n\
             at 150_000 alloc-fail 2\n\
             at 200_000 stuck-cpu 0\n",
        )
        .unwrap();
        assert_eq!(plan.events().len(), 5);
        assert_eq!(
            plan.events()[0],
            FaultEvent::once(50_000, FaultKind::RamBitFlip { offset: 0x2400, bit: 3 })
        );
        assert_eq!(
            plan.events()[1],
            FaultEvent::repeating(
                80_000,
                1_000,
                4,
                FaultKind::MmioCorrupt { xor: 0xFF, reads: 16 }
            )
        );
        assert_eq!(plan.events()[2].kind, FaultKind::SpuriousIrq);
        assert_eq!(plan.events()[3].kind, FaultKind::AllocFail { count: 2 });
        assert_eq!(plan.events()[4].kind, FaultKind::StuckCpu { cpu: 0 });
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        for (text, want_line) in [
            ("boom", 1),
            ("at", 1),
            ("at zzz irq", 1),
            ("at 10 flip 0x10", 1),
            ("at 10 flip 0x10 9", 1),
            ("at 10 warp-core 1", 1),
            ("at 10 irq trailing", 1),
            ("at 10 every 5 irq", 1),
            ("# fine\nat 10 irq\nat 20 flip", 3),
        ] {
            let err = FaultPlan::parse(text).unwrap_err();
            assert_eq!(err.line, want_line, "{text:?} -> {err}");
            assert!(!err.message.is_empty());
        }
    }

    #[test]
    fn armed_plan_fires_and_repeats() {
        let plan = FaultPlan::new()
            .with(FaultEvent::once(100, FaultKind::SpuriousIrq))
            .with(FaultEvent::repeating(200, 50, 3, FaultKind::AllocFail { count: 1 }));
        let mut armed = ArmedPlan::arm(&plan, 1000);
        assert!(armed.take_due(1050).is_empty());
        assert_eq!(armed.take_due(1100), vec![FaultKind::SpuriousIrq]);
        // A large jump delivers every elapsed repeat at once.
        let due = armed.take_due(1260);
        assert_eq!(due.len(), 2, "{due:?}");
        assert_eq!(armed.pending(), 1);
        assert_eq!(armed.take_due(u64::MAX).len(), 1);
        assert_eq!(armed.pending(), 0);
    }
}
