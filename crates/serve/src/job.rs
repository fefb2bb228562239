//! Job specifications and the durable job manifest.
//!
//! The daemon's unit of work is a *job*: one supervised campaign against a
//! named firmware. Job identity and configuration live in an append-only
//! line-JSON manifest under the state directory, so a killed daemon can
//! re-derive its entire queue on restart — the per-job journals then say
//! how far each campaign got.

use std::fmt;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};

use embsan_fuzz::{retry_io, RetryPolicy};
use embsan_obs::json::{self, Value};

/// A deterministic resilience drill attached to a job. Drills let tests
/// and soak runs exercise the daemon's failure paths on demand: the drill
/// fires at an exact iteration, so a drilled run is as reproducible as a
/// healthy one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drill {
    /// Panic inside the worker turn once the job has completed this many
    /// iterations (exercises quarantine of crashing jobs).
    PanicAfter(u64),
    /// Wedge (sleep past the scheduler's turn timeout) once the job has
    /// completed this many iterations (exercises hang quarantine).
    WedgeAt(u64),
}

impl Drill {
    /// Parses the wire syntax `panic-after:N` / `wedge-at:N`.
    ///
    /// # Errors
    ///
    /// A message suitable for a protocol error response.
    pub fn parse(text: &str) -> Result<Drill, String> {
        let (kind, num) =
            text.split_once(':').ok_or_else(|| format!("drill `{text}`: expected `kind:N`"))?;
        let at = num.parse::<u64>().map_err(|_| format!("drill `{text}`: bad iteration"))?;
        match kind {
            "panic-after" => Ok(Drill::PanicAfter(at)),
            "wedge-at" => Ok(Drill::WedgeAt(at)),
            other => Err(format!("unknown drill kind `{other}`")),
        }
    }

    /// The iteration the drill fires at.
    pub fn at(&self) -> u64 {
        match self {
            Drill::PanicAfter(at) | Drill::WedgeAt(at) => *at,
        }
    }
}

impl fmt::Display for Drill {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Drill::PanicAfter(at) => write!(f, "panic-after:{at}"),
            Drill::WedgeAt(at) => write!(f, "wedge-at:{at}"),
        }
    }
}

/// A job's lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Waiting for a worker slot.
    Queued,
    /// Currently assigned to a worker.
    Running,
    /// Runnable but shed under queue pressure (graceful degradation);
    /// resumes automatically when load drops.
    Parked,
    /// Ran to completion; results recovered from its journal.
    Completed,
    /// Crashed or wedged `max_strikes` times; its journaled state is kept
    /// but it is never scheduled again and its findings leave the store.
    Quarantined,
}

impl JobPhase {
    /// Stable lowercase name (protocol + trace events).
    pub fn name(&self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Parked => "parked",
            JobPhase::Completed => "completed",
            JobPhase::Quarantined => "quarantined",
        }
    }

    /// Whether the phase is terminal.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobPhase::Completed | JobPhase::Quarantined)
    }
}

/// One submitted campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Daemon-assigned id (monotonic across restarts via the manifest).
    pub id: u64,
    /// Firmware spec name ([`embsan_guestos::firmware_by_name`]).
    pub firmware: String,
    /// Campaign iterations.
    pub iterations: u64,
    /// RNG seed.
    pub seed: u64,
    /// Scheduling priority: higher runs first and is shed last.
    pub priority: u8,
    /// Optional resilience drill.
    pub drill: Option<Drill>,
}

impl JobSpec {
    /// The job's journal path under `state_dir`.
    pub fn journal_path(&self, state_dir: &Path) -> PathBuf {
        state_dir.join(format!("job-{:04}.journal", self.id))
    }

    /// One manifest line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("id", Value::from(self.id)),
            ("firmware", Value::from(self.firmware.as_str())),
            ("iterations", Value::from(self.iterations)),
            ("seed", Value::from(self.seed)),
            ("priority", Value::from(u64::from(self.priority))),
        ];
        if let Some(drill) = &self.drill {
            fields.push(("drill", Value::Str(drill.to_string())));
        }
        Value::object(fields).to_string()
    }

    /// Parses one manifest line.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed field.
    pub fn from_json(line: &str) -> Result<JobSpec, String> {
        let spec = json::parse(line)?;
        let field = |name: &str| spec.get(name).and_then(Value::as_u64);
        let drill = match spec.get("drill") {
            None | Some(Value::Null) => None,
            Some(value) => Some(Drill::parse(value.as_str().ok_or("`drill` must be a string")?)?),
        };
        Ok(JobSpec {
            id: field("id").ok_or("missing `id`")?,
            firmware: spec
                .get("firmware")
                .and_then(Value::as_str)
                .ok_or("missing `firmware`")?
                .to_string(),
            iterations: field("iterations").ok_or("missing `iterations`")?,
            seed: field("seed").ok_or("missing `seed`")?,
            priority: field("priority").unwrap_or(0).min(u64::from(u8::MAX)) as u8,
            drill,
        })
    }
}

/// The manifest filename under the state directory.
pub const MANIFEST: &str = "jobs.manifest";

/// Appends one job to the manifest, flushing before returning. Returns
/// the transient-IO retries absorbed (telemetry).
///
/// # Errors
///
/// Propagates filesystem errors once retries are exhausted.
pub fn append_manifest(
    state_dir: &Path,
    spec: &JobSpec,
    policy: RetryPolicy,
) -> std::io::Result<u32> {
    let path = state_dir.join(MANIFEST);
    let line = format!("{}\n", spec.to_json());
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    let (result, retries) = retry_io(policy, || {
        file.write_all(line.as_bytes())?;
        file.flush()
    });
    result?;
    Ok(retries)
}

/// Truncates a torn final line (daemon killed mid-append) so later
/// appends start on a clean line boundary. Call once on daemon restart
/// before the first [`append_manifest`].
///
/// # Errors
///
/// Propagates filesystem errors other than not-found.
pub fn repair_manifest(state_dir: &Path) -> std::io::Result<()> {
    let path = state_dir.join(MANIFEST);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(err) => return Err(err),
    };
    let intact = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |pos| pos + 1);
    if intact < bytes.len() {
        OpenOptions::new().write(true).open(&path)?.set_len(intact as u64)?;
    }
    Ok(())
}

/// Loads every intact job from the manifest, in submission order. A
/// missing manifest is an empty queue; a torn final line (daemon killed
/// mid-append) is dropped — by the write ordering, a job whose manifest
/// line is torn was never acknowledged to the client, so dropping it is
/// correct, not lossy.
///
/// # Errors
///
/// Propagates filesystem errors other than not-found; malformed *intact*
/// lines are structural corruption and reported with their line number.
pub fn load_manifest(state_dir: &Path) -> Result<Vec<JobSpec>, String> {
    let path = state_dir.join(MANIFEST);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(err) => return Err(format!("manifest read: {err}")),
    };
    let complete = match text.rfind('\n') {
        Some(pos) => &text[..pos],
        // No newline at all: a single torn line.
        None => return Ok(Vec::new()),
    };
    let mut jobs = Vec::new();
    for (index, line) in complete.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let spec = JobSpec::from_json(line)
            .map_err(|err| format!("manifest line {}: {err}", index + 1))?;
        jobs.push(spec);
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(id: u64, drill: Option<Drill>) -> JobSpec {
        JobSpec {
            id,
            firmware: "TP-Link WDR-7660".to_string(),
            iterations: 400,
            seed: 7,
            priority: 2,
            drill,
        }
    }

    #[test]
    fn drill_syntax_roundtrips() {
        for drill in [Drill::PanicAfter(100), Drill::WedgeAt(3)] {
            assert_eq!(Drill::parse(&drill.to_string()), Ok(drill));
        }
        assert!(Drill::parse("panic-after").is_err());
        assert!(Drill::parse("explode:4").is_err());
        assert!(Drill::parse("wedge-at:x").is_err());
    }

    #[test]
    fn specs_roundtrip_through_manifest_lines() {
        for spec in [sample(0, None), sample(3, Some(Drill::WedgeAt(40)))] {
            assert_eq!(JobSpec::from_json(&spec.to_json()), Ok(spec));
        }
    }

    #[test]
    fn manifest_survives_torn_tail() {
        let dir =
            std::env::temp_dir().join(format!("embsan-serve-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let policy = RetryPolicy::none();
        append_manifest(&dir, &sample(0, None), policy).unwrap();
        append_manifest(&dir, &sample(1, Some(Drill::PanicAfter(10))), policy).unwrap();
        // Tear the tail mid-line, as a kill -9 during append would.
        let path = dir.join(MANIFEST);
        let mut bytes = std::fs::read(&path).unwrap();
        let keep = bytes.len() - 7;
        bytes.truncate(keep);
        std::fs::write(&path, &bytes).unwrap();
        let jobs = load_manifest(&dir).unwrap();
        assert_eq!(jobs, vec![sample(0, None)]);
        // Restart path: repair truncates the torn tail, after which appends
        // land on a clean line boundary again.
        repair_manifest(&dir).unwrap();
        append_manifest(&dir, &sample(1, Some(Drill::PanicAfter(10))), policy).unwrap();
        let jobs = load_manifest(&dir).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[1].drill, Some(Drill::PanicAfter(10)));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
