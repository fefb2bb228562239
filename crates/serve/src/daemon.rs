//! The daemon front-end: line-delimited JSON over a Unix socket.
//!
//! Deliberately async-free: one accept loop interleaves connection
//! handling with engine scheduling rounds. Requests are short (submit /
//! status / report), campaign work happens on the engine's worker pool,
//! and a scheduling round bounds how long a client waits — the daemon is
//! a thin, restartable shell around [`ServeEngine`]'s durable state.
//! Transient accept errors are absorbed by the same bounded
//! retry/backoff policy the journal uses.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use embsan_fuzz::{backoff_delay_ms, is_transient_io, RetryPolicy};
use embsan_obs::json::Value;
use embsan_obs::EventKind;

use crate::engine::ServeEngine;
use crate::protocol::{error_response, ok_response, parse_request, Request};

/// Front-end configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Unix socket path (a stale file is replaced on startup).
    pub socket: PathBuf,
    /// Exit once this many jobs are terminal (scripted soak runs / CI).
    /// `None` runs until a `shutdown` request.
    pub await_jobs: Option<u64>,
    /// Write the deterministic report here on exit.
    pub report_path: Option<PathBuf>,
}

/// How long a client connection may idle before the daemon returns to
/// scheduling work.
const READ_TIMEOUT_MS: u64 = 250;

/// Idle sleep when there is neither work nor traffic.
const IDLE_SLEEP_MS: u64 = 20;

/// Runs the daemon loop: accept requests, interleave engine scheduling
/// rounds, stream daemon trace events to `log` as `embsan-trace-v1`
/// JSONL. Returns when a `shutdown` request arrives or the `await_jobs`
/// bound is reached; jobs keep their journals either way, so a later
/// start resumes them.
///
/// # Errors
///
/// Socket bind/permission failures and report-write failures. Per-client
/// IO errors are absorbed (the client is dropped, the daemon lives on).
pub fn run_daemon(
    mut engine: ServeEngine,
    config: &DaemonConfig,
    log: &mut dyn Write,
) -> Result<(), String> {
    if config.socket.exists() {
        std::fs::remove_file(&config.socket)
            .map_err(|e| format!("stale socket {}: {e}", config.socket.display()))?;
    }
    let listener = UnixListener::bind(&config.socket)
        .map_err(|e| format!("bind {}: {e}", config.socket.display()))?;
    listener.set_nonblocking(true).map_err(|e| format!("socket nonblocking: {e}"))?;
    let policy = RetryPolicy::default();
    let mut accept_retries: u32 = 0;
    let mut shutdown = false;
    while !shutdown {
        // 1. Serve any waiting client (non-blocking accept, bounded
        //    retry/backoff on transient failures).
        match listener.accept() {
            Ok((stream, _)) => {
                accept_retries = 0;
                shutdown = serve_client(&mut engine, stream);
            }
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(err) if is_transient_io(err.kind()) && accept_retries < policy.max_retries => {
                accept_retries += 1;
                engine.tracer().record(EventKind::RetryBackoff {
                    op: "socket-accept",
                    attempt: accept_retries,
                });
                std::thread::sleep(Duration::from_millis(backoff_delay_ms(
                    policy.base_delay_ms,
                    accept_retries,
                )));
            }
            Err(err) => return Err(format!("accept: {err}")),
        }
        // 2. One scheduling round (blocks at most one turn).
        let busy = engine.step();
        // 3. Stream daemon events.
        for event in engine.drain_events() {
            let _ = writeln!(log, "{}", event.to_jsonl(None));
        }
        // 4. Scripted exit for soak runs.
        if let Some(goal) = config.await_jobs {
            let terminal =
                engine.jobs_status().iter().filter(|(_, _, phase, _)| phase.is_terminal()).count();
            if terminal as u64 >= goal {
                break;
            }
        }
        if !busy {
            std::thread::sleep(Duration::from_millis(IDLE_SLEEP_MS));
        }
    }
    if let Some(path) = &config.report_path {
        std::fs::write(path, engine.report_json())
            .map_err(|e| format!("report {}: {e}", path.display()))?;
    }
    engine.shutdown();
    let _ = std::fs::remove_file(&config.socket);
    Ok(())
}

/// Handles one client connection: one request line → one response line,
/// until EOF, timeout, or a `shutdown` request (returned as `true`).
fn serve_client(engine: &mut ServeEngine, stream: UnixStream) -> bool {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(READ_TIMEOUT_MS)));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return false,
            Ok(_) => {}
            Err(_) => return false,
        }
        if line.trim().is_empty() {
            continue;
        }
        let (response, shutdown) = match parse_request(line.trim()) {
            Ok(request) => handle_request(engine, request),
            Err(message) => (error_response(&message), false),
        };
        let stream = reader.get_mut();
        if stream
            .write_all(response.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .and_then(|()| stream.flush())
            .is_err()
        {
            return false;
        }
        if shutdown {
            return true;
        }
    }
}

fn handle_request(engine: &mut ServeEngine, request: Request) -> (String, bool) {
    match request {
        Request::Ping => (ok_response([("pong", Value::Bool(true))]), false),
        Request::Submit { firmware, iterations, seed, priority, drill } => {
            let priority = priority.min(u64::from(u8::MAX)) as u8;
            match engine.submit(&firmware, iterations, seed, priority, drill) {
                Ok(id) => (ok_response([("id", Value::from(id))]), false),
                Err(message) => (error_response(&message), false),
            }
        }
        Request::Jobs => {
            let jobs = engine.jobs_status().into_iter().map(|(id, firmware, phase, turns)| {
                Value::object([
                    ("id", Value::from(id)),
                    ("firmware", Value::Str(firmware)),
                    ("phase", Value::from(phase.name())),
                    ("turns", Value::from(turns)),
                ])
            });
            (ok_response([("jobs", Value::Arr(jobs.collect()))]), false)
        }
        Request::Findings => (ok_response([("store", engine.store().to_value())]), false),
        Request::Report => (ok_response([("report", engine.report())]), false),
        Request::Shutdown => (ok_response([]), true),
    }
}

/// Sends one request line to a daemon and returns its response line
/// (used by `embsan submit` / `embsan jobs`).
///
/// # Errors
///
/// Connection or IO failure, or a missing response.
pub fn request(socket: &Path, line: &str) -> Result<String, String> {
    let mut stream =
        UnixStream::connect(socket).map_err(|e| format!("connect {}: {e}", socket.display()))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("socket timeout: {e}"))?;
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .and_then(|()| stream.flush())
        .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    match reader.read_line(&mut response) {
        Ok(0) => Err("daemon closed the connection without responding".to_string()),
        Ok(_) => Ok(response.trim_end().to_string()),
        Err(err) => Err(format!("receive: {err}")),
    }
}
