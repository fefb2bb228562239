//! The structured event taxonomy and its serialized forms.
//!
//! Every event is plain data: primitives plus (for bug reports) a class
//! label. Payload fields are chosen so that an event stream recorded for a
//! single program execution is schedule-independent — addresses, sizes and
//! program counters, never host pointers, wall times or cache indices.

use std::fmt::Write as _;

use crate::json::escape;

/// Which probe family fired (mirrors [`ExecHook`] dispatch, where
/// `ExecHook` is the emulator's hook trait).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// A load/store/atomic memory probe.
    Mem,
    /// A call-site probe.
    Call,
    /// A return-site probe.
    Ret,
    /// An EMBSAN-C hypercall probe.
    Hypercall,
    /// A translation-block entry probe (coverage source).
    Block,
}

impl ProbeKind {
    /// Stable serialized label.
    pub fn label(self) -> &'static str {
        match self {
            ProbeKind::Mem => "mem",
            ProbeKind::Call => "call",
            ProbeKind::Ret => "ret",
            ProbeKind::Hypercall => "hypercall",
            ProbeKind::Block => "block",
        }
    }
}

/// Which allocator operation the runtime intercepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocOp {
    /// A heap allocation was registered (redzones poisoned).
    Alloc,
    /// A heap chunk was freed (quarantined).
    Free,
    /// A global object was registered.
    Global,
}

impl AllocOp {
    /// Stable serialized label.
    pub fn label(self) -> &'static str {
        match self {
            AllocOp::Alloc => "alloc",
            AllocOp::Free => "free",
            AllocOp::Global => "global",
        }
    }
}

/// One structured observability event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// The translator compiled a new block at `pc`.
    BlockTranslate {
        /// Guest address of the block's first instruction.
        pc: u32,
    },
    /// A cache reconfigure found the requested template generation resident.
    CacheGenerationHit {
        /// Resident generations after the hit.
        generations: u32,
    },
    /// A cache reconfigure evicted the least-recently-used generation.
    CacheGenerationEvict {
        /// Resident generations after the eviction.
        generations: u32,
    },
    /// The whole translation cache was flushed.
    CacheFlush,
    /// A sanitizer probe fired and dispatched into the hook chain.
    ProbeFire {
        /// The probe family.
        probe: ProbeKind,
        /// Program counter of the probed instruction.
        pc: u32,
    },
    /// The runtime consulted shadow memory for a guest access.
    ShadowCheck {
        /// Guest address checked.
        addr: u32,
        /// Access size in bytes.
        size: u8,
        /// Whether the access was a write.
        write: bool,
    },
    /// The runtime intercepted an allocator event.
    AllocIntercept {
        /// The intercepted operation.
        op: AllocOp,
        /// Object base address.
        addr: u32,
        /// Object size in bytes.
        size: u32,
    },
    /// A sanitizer report was raised (recorded before deduplication).
    Report {
        /// Bug class label (e.g. `heap-out-of-bounds`).
        class: String,
        /// Faulting program counter.
        pc: u32,
    },
    /// The supervisor's watchdog classified a budget-exhausted run.
    WatchdogTrip {
        /// Hang classification label (`wfi-idle`, `responsive`, `live-lock`).
        class: &'static str,
    },
    /// The fault plan injected a hardware fault.
    FaultInjected {
        /// Fault kind label (e.g. `ram-bit-flip`).
        fault: &'static str,
    },
    /// The parallel scheduler merged an epoch into canonical state.
    EpochMerge {
        /// 1-based epoch index.
        epoch: u64,
        /// Executions merged so far.
        execs: u64,
        /// Canonical corpus size after the merge.
        corpus: u64,
        /// Findings retained after the merge.
        findings: u64,
        /// Non-zero coverage buckets after the merge.
        coverage: u64,
    },
    /// A component entered a degraded operating mode (e.g. the supervised
    /// path ignoring a multi-worker request, or the daemon shedding load).
    DegradedMode {
        /// The degraded component (`supervised`, `scheduler`, `queue`).
        component: &'static str,
        /// Human-readable description of the degradation.
        detail: String,
    },
    /// A daemon job crossed a lifecycle boundary.
    JobLifecycle {
        /// Daemon-assigned job id (submission order).
        job: u64,
        /// Lifecycle phase label (`queued`, `running`, `parked`,
        /// `completed`, `quarantined`).
        phase: &'static str,
    },
    /// A transient IO failure triggered a bounded retry with backoff.
    RetryBackoff {
        /// The retried operation (`journal-append`, `socket-accept`).
        op: &'static str,
        /// 1-based retry attempt number.
        attempt: u32,
    },
    /// A device latched pending interrupt line(s) onto the shared machine
    /// interrupt (raise side of the IRQ lifecycle).
    IrqRaised {
        /// Raising device label (`gpio`, `alarm`, `timer`).
        source: &'static str,
        /// Pending bits newly latched.
        lines: u32,
    },
    /// The guest acknowledged pending interrupt line(s) (write-1-to-clear).
    IrqAcked {
        /// Acknowledged device label.
        source: &'static str,
        /// Pending bits cleared.
        lines: u32,
    },
    /// The guest scheduled a deferred call (software interrupt a fixed
    /// number of retired instructions in the future).
    DeferredCall {
        /// Delay in retired instructions.
        delay: u32,
    },
}

impl EventKind {
    /// Stable serialized event name.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::BlockTranslate { .. } => "block-translate",
            EventKind::CacheGenerationHit { .. } => "cache-generation-hit",
            EventKind::CacheGenerationEvict { .. } => "cache-generation-evict",
            EventKind::CacheFlush => "cache-flush",
            EventKind::ProbeFire { .. } => "probe-fire",
            EventKind::ShadowCheck { .. } => "shadow-check",
            EventKind::AllocIntercept { .. } => "alloc-intercept",
            EventKind::Report { .. } => "report",
            EventKind::WatchdogTrip { .. } => "watchdog-trip",
            EventKind::FaultInjected { .. } => "fault-injected",
            EventKind::EpochMerge { .. } => "epoch-merge",
            EventKind::DegradedMode { .. } => "degraded-mode",
            EventKind::JobLifecycle { .. } => "job-lifecycle",
            EventKind::RetryBackoff { .. } => "retry-backoff",
            EventKind::IrqRaised { .. } => "irq-raised",
            EventKind::IrqAcked { .. } => "irq-acked",
            EventKind::DeferredCall { .. } => "deferred-call",
        }
    }

    /// Appends the kind-specific JSON fields (leading comma included).
    fn write_args(&self, out: &mut String) {
        match self {
            EventKind::BlockTranslate { pc } => {
                let _ = write!(out, ",\"pc\":\"{pc:#010x}\"");
            }
            EventKind::CacheGenerationHit { generations }
            | EventKind::CacheGenerationEvict { generations } => {
                let _ = write!(out, ",\"generations\":{generations}");
            }
            EventKind::CacheFlush => {}
            EventKind::ProbeFire { probe, pc } => {
                let _ = write!(out, ",\"probe\":\"{}\",\"pc\":\"{pc:#010x}\"", probe.label());
            }
            EventKind::ShadowCheck { addr, size, write } => {
                let _ = write!(out, ",\"addr\":\"{addr:#010x}\",\"size\":{size},\"write\":{write}");
            }
            EventKind::AllocIntercept { op, addr, size } => {
                let _ = write!(
                    out,
                    ",\"op\":\"{}\",\"addr\":\"{addr:#010x}\",\"size\":{size}",
                    op.label()
                );
            }
            EventKind::Report { class, pc } => {
                let _ = write!(out, ",\"class\":\"{}\",\"pc\":\"{pc:#010x}\"", escape(class));
            }
            EventKind::WatchdogTrip { class } => {
                let _ = write!(out, ",\"class\":\"{}\"", escape(class));
            }
            EventKind::FaultInjected { fault } => {
                let _ = write!(out, ",\"fault\":\"{}\"", escape(fault));
            }
            EventKind::EpochMerge { epoch, execs, corpus, findings, coverage } => {
                let _ = write!(
                    out,
                    ",\"epoch\":{epoch},\"execs\":{execs},\"corpus\":{corpus},\
                     \"findings\":{findings},\"coverage\":{coverage}"
                );
            }
            EventKind::DegradedMode { component, detail } => {
                let _ = write!(out, ",\"component\":\"{}\"", escape(component));
                let _ = write!(out, ",\"detail\":\"{}\"", escape(detail));
            }
            EventKind::JobLifecycle { job, phase } => {
                let _ = write!(out, ",\"job\":{job},\"phase\":\"{}\"", escape(phase));
            }
            EventKind::RetryBackoff { op, attempt } => {
                let _ = write!(out, ",\"op\":\"{}\",\"attempt\":{attempt}", escape(op));
            }
            EventKind::IrqRaised { source, lines } | EventKind::IrqAcked { source, lines } => {
                let _ = write!(out, ",\"source\":\"{}\",\"lines\":{lines}", escape(source));
            }
            EventKind::DeferredCall { delay } => {
                let _ = write!(out, ",\"delay\":{delay}");
            }
        }
    }
}

/// One recorded event: a kind tagged with the lifetime-retired instruction
/// clock (quantum-start granularity) and a buffer-local sequence number
/// that totally orders events sharing a clock value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Lifetime-retired instruction clock at the enclosing quantum's start
    /// (rebased to the iteration start for per-iteration trace spans).
    pub clock: u64,
    /// Sequence number within the trace buffer (resets on drain).
    pub seq: u64,
    /// The event payload.
    pub kind: EventKind,
}

impl Event {
    /// Serializes the event as one `embsan-trace-v1` JSONL line (no
    /// trailing newline). `iter` adds the owning fuzz-iteration field used
    /// by merged campaign traces.
    pub fn to_jsonl(&self, iter: Option<u64>) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(out, "{{\"clock\":{},\"seq\":{}", self.clock, self.seq);
        if let Some(iter) = iter {
            let _ = write!(out, ",\"iter\":{iter}");
        }
        let _ = write!(out, ",\"event\":\"{}\"", self.kind.name());
        self.kind.write_args(&mut out);
        out.push('}');
        out
    }

    /// Serializes the event as a Chrome `trace_event` instant record. The
    /// instruction clock maps onto the microsecond timestamp axis so flame
    /// views order events exactly as the guest retired them.
    pub fn to_chrome(&self, iter: Option<u64>) -> String {
        let mut out = String::with_capacity(128);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{}",
            self.kind.name(),
            iter.unwrap_or(0),
            self.clock,
        );
        let mut args = String::new();
        let _ = write!(args, "{{\"seq\":{}", self.seq);
        self.kind.write_args(&mut args);
        args.push('}');
        let _ = write!(out, ",\"args\":{args}}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_shape_is_stable() {
        let event = Event {
            clock: 42,
            seq: 7,
            kind: EventKind::ProbeFire { probe: ProbeKind::Mem, pc: 0x1000_0004 },
        };
        assert_eq!(
            event.to_jsonl(None),
            "{\"clock\":42,\"seq\":7,\"event\":\"probe-fire\",\
             \"probe\":\"mem\",\"pc\":\"0x10000004\"}"
        );
        assert_eq!(
            event.to_jsonl(Some(3)),
            "{\"clock\":42,\"seq\":7,\"iter\":3,\"event\":\"probe-fire\",\
             \"probe\":\"mem\",\"pc\":\"0x10000004\"}"
        );
    }

    #[test]
    fn degraded_mode_detail_is_escaped() {
        let detail = "job 3 strike 1: \"x\" \\ failed\nagain".to_string();
        let event = Event {
            clock: 0,
            seq: 0,
            kind: EventKind::DegradedMode { component: "scheduler", detail: detail.clone() },
        };
        let value = crate::json::parse(&event.to_jsonl(None)).unwrap();
        assert_eq!(value.get("detail").and_then(crate::json::Value::as_str), Some(detail.as_str()));
    }

    #[test]
    fn chrome_lines_are_valid_instants() {
        let event = Event { clock: 9, seq: 0, kind: EventKind::CacheFlush };
        let line = event.to_chrome(Some(2));
        assert!(line.contains("\"ph\":\"i\""));
        assert!(line.contains("\"ts\":9"));
        assert!(line.contains("\"tid\":2"));
    }
}
