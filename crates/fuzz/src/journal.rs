//! Append-only campaign journal with crash-tolerant replay.
//!
//! The supervisor writes every durable campaign event — corpus additions,
//! findings, periodic full-state checkpoints — as length-framed records
//! appended (and flushed) to a single file. A campaign killed at any
//! instant leaves at worst one torn record at the tail; [`Journal::load`]
//! tolerates that by returning everything up to the last intact frame plus
//! a `truncated` flag. Resuming from the newest checkpoint then reproduces
//! the uninterrupted campaign bit-identically, because the checkpoint
//! carries the *complete* mutable fuzzer state ([`FuzzerState`]) and the
//! supervisor's own bookkeeping ([`SupervisorState`]).
//!
//! Wire format: an 8-byte magic ([`MAGIC`]), then records framed as
//! `[tag: u8][len: u32 LE][payload: len bytes]`. Payload encodings are
//! hand-rolled little-endian (no serialization dependency) and versioned
//! by the magic.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use embsan_core::report::{BugClass, ChunkInfo, RaceOther, Report};
use embsan_guestos::executor::ExecProgram;

use crate::campaign::CampaignConfig;
use crate::fuzzer::{Finding, FuzzerState, Strategy};

/// Journal file magic; bump the trailing digit on format changes.
/// (`2`: `StartInfo` gained the model-free MMIO configuration. `3`:
/// `StartInfo` gained the syscall-descriptions hash, so a resume under
/// different descriptions fails instead of silently diverging. `4`: the
/// base-image hash changed function (`embsan_emu::hash::fold` in place of
/// FNV-1a), so every journaled `base_hash` changed value; the wire format
/// did not. `5`: the base-image hash folds only the pages holding data, so
/// every journaled `base_hash` changed value again; same wire format. `6`:
/// reports carry their call-site signature, and checkpoints no longer
/// carry an RNG state — each iteration's RNG is a function of the seed and
/// the iteration count.)
pub const MAGIC: &[u8; 8] = b"EMBSANJ6";

/// Journal failures.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem-level failure.
    Io(std::io::Error),
    /// Structurally invalid content that is not a torn tail (bad magic,
    /// undecodable payload inside an intact frame).
    Corrupt {
        /// Byte offset of the offending record.
        offset: u64,
        /// What failed to decode.
        message: String,
    },
    /// The journal has no checkpoint (or no start record) to resume from.
    NotResumable(String),
    /// A resumed run differs from the journaled campaign in an identity
    /// hash ([`StartInfo::base_hash`] or [`StartInfo::descs_hash`]).
    Mismatch {
        /// What the hash covers.
        what: &'static str,
        /// The journaled hash.
        journal: u64,
        /// The resumed run's hash.
        live: u64,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O: {e}"),
            JournalError::Corrupt { offset, message } => {
                write!(f, "journal corrupt at byte {offset}: {message}")
            }
            JournalError::NotResumable(msg) => write!(f, "journal not resumable: {msg}"),
            JournalError::Mismatch { what, journal, live } => write!(
                f,
                "journal not resumable: {what} hash mismatch: journal has {journal:#018x}, \
                 resumed run has {live:#018x}"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> JournalError {
        JournalError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Bounded retry with exponential backoff for transient IO.

/// Bounded-retry policy for transient IO failures (journal appends,
/// socket accepts). The backoff schedule is deterministic — a pure
/// function of (base delay, attempt) — but the *delays* are wall-clock
/// sleeps: host IO timing is inherently nondeterministic, so retry counts
/// are telemetry and must never feed journaled (replayed) state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failure (0 disables retrying).
    pub max_retries: u32,
    /// Backoff before retry `n` (1-based) is `base_delay_ms << (n - 1)`,
    /// capped at [`RetryPolicy::MAX_DELAY_MS`].
    pub base_delay_ms: u64,
}

impl RetryPolicy {
    /// Cap on any single backoff sleep.
    pub const MAX_DELAY_MS: u64 = 1_000;

    /// No retrying at all: every failure is final.
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_retries: 0, base_delay_ms: 0 }
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_retries: 3, base_delay_ms: 2 }
    }
}

/// The deterministic backoff schedule: delay (ms) before 1-based retry
/// `attempt` under `base_delay_ms`, doubling per attempt and capped at
/// [`RetryPolicy::MAX_DELAY_MS`]. Exposed as a pure function so tests can
/// verify the schedule without sleeping.
pub fn backoff_delay_ms(base_delay_ms: u64, attempt: u32) -> u64 {
    if attempt == 0 || base_delay_ms == 0 {
        return 0;
    }
    let shift = (attempt - 1).min(63);
    base_delay_ms.checked_shl(shift).unwrap_or(u64::MAX).min(RetryPolicy::MAX_DELAY_MS)
}

/// Whether an IO error kind is worth retrying: the host signalled a
/// transient condition rather than a structural failure.
pub fn is_transient_io(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
    )
}

/// Runs `op`, retrying transient failures per `policy` with exponential
/// wall-clock backoff. Returns the final result plus the number of retries
/// consumed (telemetry — never journal this).
pub fn retry_io<T>(
    policy: RetryPolicy,
    mut op: impl FnMut() -> std::io::Result<T>,
) -> (std::io::Result<T>, u32) {
    let mut retries = 0u32;
    loop {
        match op() {
            Ok(value) => return (Ok(value), retries),
            Err(err) if is_transient_io(err.kind()) && retries < policy.max_retries => {
                retries += 1;
                let delay = backoff_delay_ms(policy.base_delay_ms, retries);
                if delay > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(delay));
                }
            }
            Err(err) => return (Err(err), retries),
        }
    }
}

/// The campaign identity and configuration, written once at the head so a
/// bare journal path is enough to resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StartInfo {
    /// Firmware identity: a `FirmwareSpec` name for Table-3/4 campaigns, an
    /// image path for CLI `embsan fuzz` runs.
    pub firmware: String,
    /// Fuzzing strategy.
    pub strategy: Strategy,
    /// RNG seed.
    pub seed: u64,
    /// Total campaign iterations.
    pub iterations: u64,
    /// Boot budget in instructions.
    pub ready_budget: u64,
    /// Per-program budget in instructions.
    pub program_budget: u64,
    /// Checkpoint cadence in iterations.
    pub checkpoint_interval: u64,
    /// Content hash of the ready-point base image the campaign forked
    /// from (see `embsan_core::session::BaseImage::hash`). Stamped by the
    /// supervisor when the session is prepared; `0` means unstamped (the
    /// record was built before a session existed). A resume verifies the
    /// freshly prepared session hashes identically — journals encode only
    /// this hash plus the campaign's dirty state, never a RAM image, so a
    /// silent firmware/toolchain drift between kill and resume must be
    /// caught here rather than by replay divergence.
    pub base_hash: u64,
    /// Hash of the syscall descriptions the campaign generates programs
    /// from, stamped and verified like `base_hash` (`0` = unstamped): a
    /// resume with other descriptions would replay different programs.
    pub descs_hash: u64,
    /// Model-free MMIO region as `(base, size)`, `None` when the platform
    /// model answers all MMIO. Part of campaign identity: a resume must
    /// rebuild the session with the same region or replay diverges.
    pub model_free: Option<(u32, u32)>,
    /// Whether the platform device window was withheld from the guest.
    pub mmio_withheld: bool,
}

impl StartInfo {
    /// The record a fresh campaign journals: its parameters and checkpoint
    /// cadence, with both identity hashes left for the supervised loop to
    /// stamp from the booted session.
    pub fn new(
        firmware: String,
        strategy: Strategy,
        campaign: &CampaignConfig,
        checkpoint_interval: u64,
    ) -> StartInfo {
        StartInfo {
            firmware,
            strategy,
            seed: campaign.seed,
            iterations: campaign.iterations,
            ready_budget: campaign.ready_budget,
            program_budget: campaign.program_budget,
            checkpoint_interval,
            base_hash: 0,
            descs_hash: 0,
            model_free: campaign.model_free,
            mmio_withheld: campaign.mmio_withheld,
        }
    }

    /// The campaign parameters this record fixes (the inverse of
    /// [`StartInfo::new`]).
    pub fn campaign(&self) -> CampaignConfig {
        CampaignConfig {
            iterations: self.iterations,
            seed: self.seed,
            ready_budget: self.ready_budget,
            program_budget: self.program_budget,
            model_free: self.model_free,
            mmio_withheld: self.mmio_withheld,
        }
    }
}

/// Supervisor bookkeeping that must survive kill/resume (it shapes future
/// scheduling decisions) plus its health telemetry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SupervisorState {
    /// FNV-1a hashes of quarantined inputs, sorted.
    pub quarantined: Vec<u64>,
    /// Watchdog health counters.
    pub health: SupervisorHealth,
}

/// Supervisor health counters (monotonic over the whole campaign,
/// including across resumes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorHealth {
    /// Executions the watchdog classified as wedged (live-lock).
    pub wedges: u64,
    /// Wedges recovered by snapshot restore + retry.
    pub recoveries: u64,
    /// Inputs quarantined after exhausting wedge retries.
    pub quarantined: u64,
    /// Transient harness errors absorbed by bounded retry.
    pub transient_retries: u64,
    /// Hangs classified as WFI-idle (guest legitimately asleep).
    pub wfi_hangs: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
}

impl SupervisorHealth {
    /// Copies every counter into `registry` under the `supervisor`
    /// subsystem, all in `class`.
    pub fn record_into(
        &self,
        registry: &mut embsan_obs::MetricsRegistry,
        class: embsan_obs::MetricClass,
    ) {
        registry.counter("supervisor", "wedges", class, self.wedges);
        registry.counter("supervisor", "recoveries", class, self.recoveries);
        registry.counter("supervisor", "quarantined", class, self.quarantined);
        registry.counter("supervisor", "transient_retries", class, self.transient_retries);
        registry.counter("supervisor", "wfi_hangs", class, self.wfi_hangs);
        registry.counter("supervisor", "checkpoints", class, self.checkpoints);
    }
}

/// One full-state checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Iterations completed when the checkpoint was taken.
    pub iteration: u64,
    /// Complete fuzzer state.
    pub fuzzer: FuzzerState,
    /// Supervisor bookkeeping.
    pub supervisor: SupervisorState,
}

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// Campaign identity; always the first record.
    Start(StartInfo),
    /// A program was retained in the corpus at `iteration`.
    CorpusAdd {
        /// Iteration that produced the program.
        iteration: u64,
        /// The retained program.
        program: ExecProgram,
    },
    /// A triaged finding at `iteration`.
    Finding {
        /// Iteration that produced the finding.
        iteration: u64,
        /// The finding.
        finding: Finding,
    },
    /// A full-state checkpoint.
    Checkpoint(Checkpoint),
    /// Clean campaign completion (absence ⇒ the campaign was killed).
    End {
        /// Total iterations completed.
        iterations: u64,
    },
}

const TAG_START: u8 = 1;
const TAG_CORPUS: u8 = 2;
const TAG_FINDING: u8 = 3;
const TAG_CHECKPOINT: u8 = 4;
const TAG_END: u8 = 5;

// ---------------------------------------------------------------------------
// Byte-level encoding helpers.

#[derive(Default)]
struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.0.extend_from_slice(v);
    }
    fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

type DecResult<T> = Result<T, String>;

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> DecResult<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let end = end.ok_or_else(|| format!("truncated payload at offset {}", self.pos))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }
    fn u8(&mut self) -> DecResult<u8> {
        Ok(self.take(1)?[0])
    }
    // The `expect`s below are infallible: `take(n)` returns exactly `n`
    // bytes or errors, so the slice-to-array conversions cannot fail.
    fn u32(&mut self) -> DecResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> DecResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    fn bytes(&mut self) -> DecResult<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }
    fn string(&mut self) -> DecResult<String> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid UTF-8 string".to_string())
    }
    fn done(&self) -> DecResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!("{} trailing payload bytes", self.buf.len() - self.pos))
        }
    }
}

fn strategy_code(strategy: Strategy) -> u8 {
    match strategy {
        Strategy::Syz => 0,
        Strategy::Tardis => 1,
    }
}

fn strategy_from_code(code: u8) -> DecResult<Strategy> {
    match code {
        0 => Ok(Strategy::Syz),
        1 => Ok(Strategy::Tardis),
        other => Err(format!("unknown strategy code {other}")),
    }
}

fn enc_program(enc: &mut Enc, program: &ExecProgram) {
    enc.bytes(&program.encode());
}

fn dec_program(dec: &mut Dec<'_>) -> DecResult<ExecProgram> {
    let bytes = dec.bytes()?;
    ExecProgram::decode(bytes).ok_or_else(|| "undecodable program".to_string())
}

fn enc_report(enc: &mut Enc, report: &Report) {
    enc.u8(report.class.code());
    enc.u32(report.addr);
    enc.u8(report.size);
    enc.u8(u8::from(report.is_write));
    enc.u32(report.pc);
    enc.u32(report.cpu as u32);
    match &report.chunk {
        None => enc.u8(0),
        Some(chunk) => {
            enc.u8(1);
            enc.u32(chunk.addr);
            enc.u32(chunk.size);
            enc.u32(chunk.alloc_pc);
            match chunk.free_pc {
                None => enc.u8(0),
                Some(pc) => {
                    enc.u8(1);
                    enc.u32(pc);
                }
            }
        }
    }
    match &report.other {
        None => enc.u8(0),
        Some(other) => {
            enc.u8(1);
            enc.u32(other.pc);
            enc.u32(other.cpu as u32);
            enc.u8(u8::from(other.is_write));
        }
    }
    enc.u64(report.site);
}

fn dec_report(dec: &mut Dec<'_>) -> DecResult<Report> {
    let class = BugClass::from_code(dec.u8()?)
        .ok_or_else(|| "unknown bug-class code (journal from a newer build?)".to_string())?;
    let addr = dec.u32()?;
    let size = dec.u8()?;
    let is_write = dec.u8()? != 0;
    let pc = dec.u32()?;
    let cpu = dec.u32()? as usize;
    let chunk = if dec.u8()? != 0 {
        let (addr, size, alloc_pc) = (dec.u32()?, dec.u32()?, dec.u32()?);
        let free_pc = if dec.u8()? != 0 { Some(dec.u32()?) } else { None };
        Some(ChunkInfo { addr, size, alloc_pc, free_pc })
    } else {
        None
    };
    let other = if dec.u8()? != 0 {
        let (pc, cpu) = (dec.u32()?, dec.u32()? as usize);
        Some(RaceOther { pc, cpu, is_write: dec.u8()? != 0 })
    } else {
        None
    };
    Ok(Report { class, addr, size, is_write, pc, cpu, chunk, other, site: dec.u64()? })
}

fn enc_finding(enc: &mut Enc, finding: &Finding) {
    enc_report(enc, &finding.report);
    enc_program(enc, &finding.program);
    enc.bytes(&finding.bug_syscalls);
}

fn dec_finding(dec: &mut Dec<'_>) -> DecResult<Finding> {
    let report = dec_report(dec)?;
    let program = dec_program(dec)?;
    let bug_syscalls = dec.bytes()?.to_vec();
    Ok(Finding { report, program, bug_syscalls })
}

/// Run-length encodes the (mostly zero) global coverage map.
fn enc_rle(enc: &mut Enc, data: &[u8]) {
    enc.u32(data.len() as u32);
    let mut i = 0;
    while i < data.len() {
        let value = data[i];
        let mut run = 1u32;
        while i + (run as usize) < data.len() && data[i + run as usize] == value && run < u32::MAX {
            run += 1;
        }
        enc.u8(value);
        enc.u32(run);
        i += run as usize;
    }
}

fn dec_rle(dec: &mut Dec<'_>) -> DecResult<Vec<u8>> {
    let total = dec.u32()? as usize;
    if total > 1 << 24 {
        return Err(format!("implausible RLE length {total}"));
    }
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        let value = dec.u8()?;
        let run = dec.u32()? as usize;
        if run == 0 || out.len() + run > total {
            return Err("invalid RLE run".to_string());
        }
        out.extend(std::iter::repeat_n(value, run));
    }
    Ok(out)
}

fn enc_fuzzer_state(enc: &mut Enc, state: &FuzzerState) {
    enc.u64(state.execs);
    enc.u32(state.corpus_entries.len() as u32);
    for program in &state.corpus_entries {
        enc_program(enc, program);
    }
    enc_rle(enc, &state.global_map);
    enc.u32(state.det_pending.len() as u32);
    for program in &state.det_pending {
        enc_program(enc, program);
    }
    enc.u32(state.det_seen.len() as u32);
    for &(nr, idx, val) in &state.det_seen {
        enc.u8(nr);
        enc.u32(idx);
        enc.u32(val);
    }
    enc.u32(state.findings.len() as u32);
    for finding in &state.findings {
        enc_finding(enc, finding);
    }
    enc.u32(state.dedup_keys.len() as u32);
    for &(class, pc, sig) in &state.dedup_keys {
        enc.u8(class.code());
        enc.u32(pc);
        enc.u64(sig);
    }
}

fn dec_fuzzer_state(dec: &mut Dec<'_>) -> DecResult<FuzzerState> {
    let execs = dec.u64()?;
    let mut corpus_entries = Vec::new();
    for _ in 0..dec.u32()? {
        corpus_entries.push(dec_program(dec)?);
    }
    let global_map = dec_rle(dec)?;
    let mut det_pending = Vec::new();
    for _ in 0..dec.u32()? {
        det_pending.push(dec_program(dec)?);
    }
    let mut det_seen = Vec::new();
    for _ in 0..dec.u32()? {
        det_seen.push((dec.u8()?, dec.u32()?, dec.u32()?));
    }
    let mut findings = Vec::new();
    for _ in 0..dec.u32()? {
        findings.push(dec_finding(dec)?);
    }
    let mut dedup_keys = Vec::new();
    for _ in 0..dec.u32()? {
        let class = BugClass::from_code(dec.u8()?)
            .ok_or_else(|| "unknown bug-class code in dedup key".to_string())?;
        dedup_keys.push((class, dec.u32()?, dec.u64()?));
    }
    Ok(FuzzerState {
        execs,
        corpus_entries,
        global_map,
        det_pending,
        det_seen,
        findings,
        dedup_keys,
    })
}

fn enc_supervisor_state(enc: &mut Enc, state: &SupervisorState) {
    enc.u32(state.quarantined.len() as u32);
    for &hash in &state.quarantined {
        enc.u64(hash);
    }
    let h = &state.health;
    for v in
        [h.wedges, h.recoveries, h.quarantined, h.transient_retries, h.wfi_hangs, h.checkpoints]
    {
        enc.u64(v);
    }
}

fn dec_supervisor_state(dec: &mut Dec<'_>) -> DecResult<SupervisorState> {
    let mut quarantined = Vec::new();
    for _ in 0..dec.u32()? {
        quarantined.push(dec.u64()?);
    }
    let health = SupervisorHealth {
        wedges: dec.u64()?,
        recoveries: dec.u64()?,
        quarantined: dec.u64()?,
        transient_retries: dec.u64()?,
        wfi_hangs: dec.u64()?,
        checkpoints: dec.u64()?,
    };
    Ok(SupervisorState { quarantined, health })
}

impl Record {
    fn tag(&self) -> u8 {
        match self {
            Record::Start(_) => TAG_START,
            Record::CorpusAdd { .. } => TAG_CORPUS,
            Record::Finding { .. } => TAG_FINDING,
            Record::Checkpoint(_) => TAG_CHECKPOINT,
            Record::End { .. } => TAG_END,
        }
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut enc = Enc::default();
        match self {
            Record::Start(start) => {
                enc.string(&start.firmware);
                enc.u8(strategy_code(start.strategy));
                enc.u64(start.seed);
                enc.u64(start.iterations);
                enc.u64(start.ready_budget);
                enc.u64(start.program_budget);
                enc.u64(start.checkpoint_interval);
                enc.u64(start.base_hash);
                enc.u64(start.descs_hash);
                match start.model_free {
                    None => enc.u8(0),
                    Some((base, size)) => {
                        enc.u8(1);
                        enc.u32(base);
                        enc.u32(size);
                    }
                }
                enc.u8(u8::from(start.mmio_withheld));
            }
            Record::CorpusAdd { iteration, program } => {
                enc.u64(*iteration);
                enc_program(&mut enc, program);
            }
            Record::Finding { iteration, finding } => {
                enc.u64(*iteration);
                enc_finding(&mut enc, finding);
            }
            Record::Checkpoint(cp) => {
                enc.u64(cp.iteration);
                enc_fuzzer_state(&mut enc, &cp.fuzzer);
                enc_supervisor_state(&mut enc, &cp.supervisor);
            }
            Record::End { iterations } => enc.u64(*iterations),
        }
        enc.0
    }

    fn decode(tag: u8, payload: &[u8]) -> DecResult<Record> {
        let mut dec = Dec::new(payload);
        let record = match tag {
            TAG_START => Record::Start(StartInfo {
                firmware: dec.string()?,
                strategy: strategy_from_code(dec.u8()?)?,
                seed: dec.u64()?,
                iterations: dec.u64()?,
                ready_budget: dec.u64()?,
                program_budget: dec.u64()?,
                checkpoint_interval: dec.u64()?,
                base_hash: dec.u64()?,
                descs_hash: dec.u64()?,
                model_free: if dec.u8()? != 0 { Some((dec.u32()?, dec.u32()?)) } else { None },
                mmio_withheld: dec.u8()? != 0,
            }),
            TAG_CORPUS => {
                Record::CorpusAdd { iteration: dec.u64()?, program: dec_program(&mut dec)? }
            }
            TAG_FINDING => {
                Record::Finding { iteration: dec.u64()?, finding: dec_finding(&mut dec)? }
            }
            TAG_CHECKPOINT => Record::Checkpoint(Checkpoint {
                iteration: dec.u64()?,
                fuzzer: dec_fuzzer_state(&mut dec)?,
                supervisor: dec_supervisor_state(&mut dec)?,
            }),
            TAG_END => Record::End { iterations: dec.u64()? },
            other => return Err(format!("unknown record tag {other}")),
        };
        dec.done()?;
        Ok(record)
    }
}

/// A journal loaded from disk.
#[derive(Debug)]
pub struct LoadedJournal {
    /// All intact records, in file order.
    pub records: Vec<Record>,
    /// Whether a torn record was dropped from the tail (the campaign was
    /// killed mid-write).
    pub truncated: bool,
    /// Byte length of the intact prefix (resume re-opens the file truncated
    /// to this before appending).
    pub valid_len: u64,
}

impl LoadedJournal {
    /// The start record.
    ///
    /// # Errors
    ///
    /// [`JournalError::NotResumable`] when the journal has none.
    pub fn start(&self) -> Result<&StartInfo, JournalError> {
        match self.records.first() {
            Some(Record::Start(start)) => Ok(start),
            _ => Err(JournalError::NotResumable("no start record".to_string())),
        }
    }

    /// The newest intact checkpoint, if any.
    pub fn last_checkpoint(&self) -> Option<&Checkpoint> {
        self.records.iter().rev().find_map(|r| match r {
            Record::Checkpoint(cp) => Some(cp),
            _ => None,
        })
    }

    /// Whether the campaign completed cleanly (an `End` record exists).
    pub fn ended(&self) -> bool {
        self.records.iter().any(|r| matches!(r, Record::End { .. }))
    }
}

/// An open, append-mode campaign journal.
///
/// Appends absorb transient IO failures via a bounded [`RetryPolicy`];
/// the consumed retry count is a per-process telemetry counter
/// ([`Journal::io_retries`]) and is deliberately *not* part of any
/// journaled or checkpointed state — host IO timing is nondeterministic
/// and must not leak into bit-identical resume.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    policy: RetryPolicy,
    io_retries: u64,
}

impl Journal {
    /// Creates (truncating) a journal at `path` and writes the magic.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(path: &Path) -> Result<Journal, JournalError> {
        let mut file = File::create(path)?;
        file.write_all(MAGIC)?;
        file.flush()?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            policy: RetryPolicy::default(),
            io_retries: 0,
        })
    }

    /// Re-opens an existing journal for appending, discarding any torn tail
    /// record first (so subsequent frames are parseable).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; [`JournalError::Corrupt`] on bad magic.
    pub fn reopen(path: &Path, valid_len: u64) -> Result<Journal, JournalError> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        let mut file = OpenOptions::new().append(true).open(path)?;
        file.flush()?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            policy: RetryPolicy::default(),
            io_retries: 0,
        })
    }

    /// Replaces the append retry policy (builder style).
    pub fn with_policy(mut self, policy: RetryPolicy) -> Journal {
        self.policy = policy;
        self
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Transient-IO retries absorbed by appends so far this process.
    /// Telemetry only: never journaled, never part of resume state.
    pub fn io_retries(&self) -> u64 {
        self.io_retries
    }

    /// Appends one record and flushes it to disk, retrying transient IO
    /// failures per the journal's [`RetryPolicy`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors once retries are exhausted (or
    /// immediately for non-transient error kinds).
    pub fn append(&mut self, record: &Record) -> Result<(), JournalError> {
        let payload = record.encode_payload();
        let mut frame = Vec::with_capacity(5 + payload.len());
        frame.push(record.tag());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        // A torn write followed by a successful retry would double-frame,
        // so retries re-send the whole frame only when nothing was written;
        // write_all on a File either writes fully or fails before advancing
        // our buffer (we rebuild from the start each attempt), and a
        // half-written frame on the final failure is exactly the torn tail
        // `load` already tolerates.
        let file = &mut self.file;
        let (result, retries) = retry_io(self.policy, || {
            file.write_all(&frame)?;
            file.flush()
        });
        self.io_retries += u64::from(retries);
        result?;
        Ok(())
    }

    /// Loads a journal, tolerating a torn tail record.
    ///
    /// # Errors
    ///
    /// [`JournalError::Corrupt`] for bad magic or an undecodable payload
    /// inside an *intact* frame (torn tails are not errors).
    pub fn load(path: &Path) -> Result<LoadedJournal, JournalError> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        let found = &bytes[..MAGIC.len().min(bytes.len())];
        if found != MAGIC {
            let (ours, family) = MAGIC.split_last().expect("a non-empty magic");
            let message = match found.strip_prefix(family) {
                Some([theirs]) => format!(
                    "journal version {} found, this build reads version {}",
                    *theirs as char, *ours as char
                ),
                _ => "bad journal magic".to_string(),
            };
            return Err(JournalError::Corrupt { offset: 0, message });
        }
        let mut records = Vec::new();
        let mut pos = MAGIC.len();
        let mut truncated = false;
        while pos < bytes.len() {
            // A frame header or body extending past EOF is a torn tail.
            if pos + 5 > bytes.len() {
                truncated = true;
                break;
            }
            let tag = bytes[pos];
            let len =
                u32::from_le_bytes(bytes[pos + 1..pos + 5].try_into().expect("4 bytes")) as usize;
            let Some(end) = (pos + 5).checked_add(len).filter(|&e| e <= bytes.len()) else {
                truncated = true;
                break;
            };
            let payload = &bytes[pos + 5..end];
            let record = Record::decode(tag, payload)
                .map_err(|message| JournalError::Corrupt { offset: pos as u64, message })?;
            records.push(record);
            pos = end;
        }
        Ok(LoadedJournal { records, truncated, valid_len: pos as u64 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_program() -> ExecProgram {
        let mut program = ExecProgram::new();
        program.push(2, &[64, 0]).push(16, &[0xDEAD_BEEF]);
        program
    }

    fn sample_finding() -> Finding {
        Finding {
            report: Report {
                class: BugClass::Uaf,
                addr: 0x20_0040,
                size: 4,
                is_write: true,
                pc: 0x1_0100,
                cpu: 1,
                chunk: Some(ChunkInfo {
                    addr: 0x20_0040,
                    size: 24,
                    alloc_pc: 0x1_0050,
                    free_pc: Some(0x1_0060),
                }),
                other: Some(RaceOther { pc: 0x1_0200, cpu: 0, is_write: false }),
                site: 0xCAFE_F00D,
            },
            program: sample_program(),
            bug_syscalls: vec![16],
        }
    }

    fn sample_state() -> FuzzerState {
        let mut global_map = vec![0u8; crate::cover::MAP_SIZE];
        global_map[7] = 3;
        global_map[4096] = 129;
        FuzzerState {
            execs: 1234,
            corpus_entries: vec![sample_program()],
            global_map,
            det_pending: vec![sample_program(), ExecProgram::new()],
            det_seen: vec![(2, 0, 64), (16, 0, 0xDEAD_BEEF)],
            findings: vec![sample_finding()],
            dedup_keys: vec![(BugClass::HeapOob, 0x1_0000, 0), (BugClass::Uaf, 0x1_0100, 99)],
        }
    }

    fn roundtrip(record: &Record) -> Record {
        let payload = record.encode_payload();
        Record::decode(record.tag(), &payload).unwrap()
    }

    /// `StartInfo::new` and `StartInfo::campaign` are inverses: a fresh
    /// campaign's parameters survive the journal, down to the cadence.
    #[test]
    fn start_info_converts_back_to_its_config() {
        use crate::supervisor::SupervisorConfig;
        let config = SupervisorConfig {
            campaign: CampaignConfig {
                iterations: 777,
                seed: 0xABCD,
                ready_budget: 1_234_567,
                program_budget: 89_012,
                model_free: Some((0xF000_0000, 0x2000)),
                mmio_withheld: true,
            },
            checkpoint_interval: 33,
            ..SupervisorConfig::default()
        };
        let defaults = SupervisorConfig::default();
        let (c, d) = (&config.campaign, &defaults.campaign);
        assert!(c.iterations != d.iterations && c.seed != d.seed);
        assert!(c.ready_budget != d.ready_budget && c.program_budget != d.program_budget);
        assert!(c.model_free != d.model_free && c.mmio_withheld != d.mmio_withheld);
        assert_ne!(config.checkpoint_interval, defaults.checkpoint_interval);

        let start = StartInfo::new(
            "fw".to_string(),
            Strategy::Syz,
            &config.campaign,
            config.checkpoint_interval,
        );
        assert_eq!(start.campaign(), config.campaign);
        assert_eq!(start.checkpoint_interval, config.checkpoint_interval);
        assert_eq!((start.base_hash, start.descs_hash), (0, 0), "stamped by the supervisor");
    }

    #[test]
    fn records_roundtrip() {
        let start = Record::Start(StartInfo {
            firmware: "OpenWRT-armvirt".to_string(),
            strategy: Strategy::Syz,
            seed: 42,
            iterations: 10_000,
            ready_budget: 200_000_000,
            program_budget: 3_000_000,
            checkpoint_interval: 500,
            base_hash: 0xDEAD_BEEF_0BAD_F00D,
            descs_hash: 0x0123_4567_89AB_CDEF,
            model_free: Some((0xF000_0000, 0x1000)),
            mmio_withheld: true,
        });
        assert_eq!(roundtrip(&start), start);
        let add = Record::CorpusAdd { iteration: 7, program: sample_program() };
        assert_eq!(roundtrip(&add), add);
        let finding = Record::Finding { iteration: 9, finding: sample_finding() };
        assert_eq!(roundtrip(&finding), finding);
        let checkpoint = Record::Checkpoint(Checkpoint {
            iteration: 500,
            fuzzer: sample_state(),
            supervisor: SupervisorState {
                quarantined: vec![3, 9],
                health: SupervisorHealth { wedges: 2, recoveries: 1, ..Default::default() },
            },
        });
        assert_eq!(roundtrip(&checkpoint), checkpoint);
        let end = Record::End { iterations: 10_000 };
        assert_eq!(roundtrip(&end), end);
    }

    #[test]
    fn file_roundtrip_and_torn_tail_tolerance() {
        let dir = std::env::temp_dir().join(format!("embsan-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.journal");
        let start = Record::Start(StartInfo {
            firmware: "fw".to_string(),
            strategy: Strategy::Tardis,
            seed: 1,
            iterations: 100,
            ready_budget: 1,
            program_budget: 1,
            checkpoint_interval: 10,
            base_hash: 0,
            descs_hash: 0,
            model_free: None,
            mmio_withheld: false,
        });
        let add = Record::CorpusAdd { iteration: 3, program: sample_program() };
        {
            let mut journal = Journal::create(&path).unwrap();
            journal.append(&start).unwrap();
            journal.append(&add).unwrap();
        }
        let loaded = Journal::load(&path).unwrap();
        assert_eq!(loaded.records, vec![start.clone(), add.clone()]);
        assert!(!loaded.truncated);
        assert!(!loaded.ended());

        // Simulate a kill mid-write: append a torn frame.
        let intact_len = loaded.valid_len;
        {
            use std::io::Write;
            let mut file = OpenOptions::new().append(true).open(&path).unwrap();
            file.write_all(&[TAG_FINDING, 0xFF, 0x00, 0x00, 0x00, 1, 2, 3]).unwrap();
        }
        let loaded = Journal::load(&path).unwrap();
        assert_eq!(loaded.records.len(), 2, "torn tail dropped, intact prefix kept");
        assert!(loaded.truncated);
        assert_eq!(loaded.valid_len, intact_len);

        // Reopen for resume: the torn tail is discarded, appends parse.
        let end = Record::End { iterations: 100 };
        {
            let mut journal = Journal::reopen(&path, loaded.valid_len).unwrap();
            journal.append(&end).unwrap();
        }
        let loaded = Journal::load(&path).unwrap();
        assert_eq!(loaded.records, vec![start, add, end]);
        assert!(!loaded.truncated);
        assert!(loaded.ended());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_magic_and_bad_payloads_are_typed_errors() {
        let dir = std::env::temp_dir().join(format!("embsan-journal-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.journal");
        std::fs::write(&path, b"NOTAMAGI").unwrap();
        assert!(matches!(Journal::load(&path), Err(JournalError::Corrupt { offset: 0, .. })));
        // Intact frame with an undecodable payload: Corrupt, not a panic.
        let mut bytes = MAGIC.to_vec();
        bytes.push(TAG_START);
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&[0xFF, 0xFF, 0xFF]);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Journal::load(&path), Err(JournalError::Corrupt { .. })));
        // Unknown tag inside an intact frame is also Corrupt.
        let mut bytes = MAGIC.to_vec();
        bytes.push(99);
        bytes.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Journal::load(&path), Err(JournalError::Corrupt { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn another_journal_version_is_named_in_the_error() {
        let dir = std::env::temp_dir().join(format!("embsan-journal-ver-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.journal");
        std::fs::write(&path, b"EMBSANJ3").unwrap();
        let Err(JournalError::Corrupt { offset: 0, message }) = Journal::load(&path) else {
            panic!("an EMBSANJ3 journal must not load");
        };
        assert_eq!(message, "journal version 3 found, this build reads version 6");
        std::fs::write(&path, b"EMBSANJ").unwrap();
        let Err(JournalError::Corrupt { message, .. }) = Journal::load(&path) else {
            panic!("a cut magic must not load");
        };
        assert_eq!(message, "bad journal magic");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_version_4_journal_is_refused_by_name() {
        let dir = std::env::temp_dir().join(format!("embsan-journal-v4-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v4.journal");
        std::fs::write(&path, b"EMBSANJ4").unwrap();
        let Err(JournalError::Corrupt { offset: 0, message }) = Journal::load(&path) else {
            panic!("an EMBSANJ4 journal must not load");
        };
        assert_eq!(message, "journal version 4 found, this build reads version 6");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_version_5_journal_is_refused_by_name() {
        let dir = std::env::temp_dir().join(format!("embsan-journal-v5-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v5.journal");
        std::fs::write(&path, b"EMBSANJ5").unwrap();
        let Err(JournalError::Corrupt { offset: 0, message }) = Journal::load(&path) else {
            panic!("an EMBSANJ5 journal must not load");
        };
        assert_eq!(message, "journal version 5 found, this build reads version 6");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn backoff_schedule_is_exponential_and_capped() {
        assert_eq!(backoff_delay_ms(2, 0), 0, "attempt 0 never sleeps");
        assert_eq!(backoff_delay_ms(0, 5), 0, "zero base disables sleeping");
        assert_eq!(backoff_delay_ms(2, 1), 2);
        assert_eq!(backoff_delay_ms(2, 2), 4);
        assert_eq!(backoff_delay_ms(2, 3), 8);
        assert_eq!(backoff_delay_ms(2, 20), RetryPolicy::MAX_DELAY_MS, "capped");
        assert_eq!(backoff_delay_ms(u64::MAX, 64), RetryPolicy::MAX_DELAY_MS, "no overflow");
    }

    #[test]
    fn retry_io_absorbs_transient_failures_and_counts() {
        let policy = RetryPolicy { max_retries: 3, base_delay_ms: 0 };
        // Two transient failures, then success.
        let mut attempts = 0;
        let (result, retries) = retry_io(policy, || {
            attempts += 1;
            if attempts <= 2 {
                Err(std::io::Error::from(std::io::ErrorKind::Interrupted))
            } else {
                Ok(attempts)
            }
        });
        assert_eq!(result.unwrap(), 3);
        assert_eq!(retries, 2);

        // Persistent transient failure exhausts the budget.
        let (result, retries) =
            retry_io(policy, || Err::<(), _>(std::io::Error::from(std::io::ErrorKind::TimedOut)));
        assert!(result.is_err());
        assert_eq!(retries, 3);

        // Non-transient failures are final immediately.
        let (result, retries) = retry_io(policy, || {
            Err::<(), _>(std::io::Error::from(std::io::ErrorKind::PermissionDenied))
        });
        assert!(result.is_err());
        assert_eq!(retries, 0);
    }

    #[test]
    fn journal_counts_no_retries_on_healthy_appends() {
        let dir = std::env::temp_dir().join(format!("embsan-journal-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rt.journal");
        let mut journal = Journal::create(&path)
            .unwrap()
            .with_policy(RetryPolicy { max_retries: 2, base_delay_ms: 0 });
        journal.append(&Record::End { iterations: 1 }).unwrap();
        assert_eq!(journal.io_retries(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rle_handles_degenerate_shapes() {
        for data in [vec![], vec![0u8; 10], vec![1, 2, 3], vec![5; 100_000]] {
            let mut enc = Enc::default();
            enc_rle(&mut enc, &data);
            let mut dec = Dec::new(&enc.0);
            assert_eq!(dec_rle(&mut dec).unwrap(), data);
            assert!(dec.done().is_ok());
        }
    }
}
