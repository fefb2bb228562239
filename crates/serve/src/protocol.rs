//! The daemon's line-delimited JSON IPC protocol.
//!
//! One request per line, one response per line, over a Unix stream
//! socket. Requests are flat JSON objects dispatched on a `cmd` field;
//! responses carry `"ok": true` plus command-specific fields, or
//! `"ok": false` with an `error` string. Lines are read and written with
//! [`embsan_obs::json`].

use embsan_obs::json::{self, Value};

use crate::job::Drill;

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Submit a campaign.
    Submit {
        /// Firmware spec name.
        firmware: String,
        /// Campaign iterations.
        iterations: u64,
        /// RNG seed.
        seed: u64,
        /// Scheduling priority (higher is shed last under pressure).
        priority: u64,
        /// Optional resilience drill.
        drill: Option<Drill>,
    },
    /// List jobs and their phases.
    Jobs,
    /// The cross-campaign findings store.
    Findings,
    /// The full deterministic report.
    Report,
    /// Stop the daemon (jobs keep their journals; restart resumes them).
    Shutdown,
}

/// Parses one request line.
///
/// # Errors
///
/// A message suitable for an `"ok": false` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let request = json::parse(line)?;
    let cmd = request.get("cmd").and_then(Value::as_str).ok_or("missing `cmd` string")?;
    match cmd {
        "ping" => Ok(Request::Ping),
        "jobs" => Ok(Request::Jobs),
        "findings" => Ok(Request::Findings),
        "report" => Ok(Request::Report),
        "shutdown" => Ok(Request::Shutdown),
        "submit" => {
            let firmware = request
                .get("firmware")
                .and_then(Value::as_str)
                .ok_or("submit: missing `firmware` string")?
                .to_string();
            let iterations = request
                .get("iterations")
                .and_then(Value::as_u64)
                .ok_or("submit: missing `iterations` number")?;
            if iterations == 0 {
                return Err("submit: `iterations` must be positive".to_string());
            }
            let seed = request.get("seed").and_then(Value::as_u64).unwrap_or(0);
            let priority = request.get("priority").and_then(Value::as_u64).unwrap_or(0);
            let drill = match request.get("drill") {
                None | Some(Value::Null) => None,
                Some(value) => {
                    let text = value.as_str().ok_or("submit: `drill` must be a string")?;
                    Some(Drill::parse(text)?)
                }
            };
            Ok(Request::Submit { firmware, iterations, seed, priority, drill })
        }
        other => Err(format!("unknown cmd `{other}`")),
    }
}

/// Builds an `"ok": false` response line (no trailing newline).
pub fn error_response(message: &str) -> String {
    Value::object([("ok", Value::Bool(false)), ("error", Value::from(message))]).to_string()
}

/// Builds an `"ok": true` response line from command-specific fields (no
/// trailing newline).
pub fn ok_response<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> String {
    Value::object([("ok", Value::Bool(true))].into_iter().chain(fields)).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip_through_the_parser() {
        assert_eq!(parse_request(r#"{"cmd":"ping"}"#).unwrap(), Request::Ping);
        let submit = parse_request(
            r#"{"cmd":"submit","firmware":"TP-Link WDR-7660","iterations":400,"seed":5,"priority":2,"drill":"panic-after:40"}"#,
        )
        .unwrap();
        assert_eq!(
            submit,
            Request::Submit {
                firmware: "TP-Link WDR-7660".to_string(),
                iterations: 400,
                seed: 5,
                priority: 2,
                drill: Some(Drill::PanicAfter(40)),
            }
        );
        assert!(parse_request(r#"{"cmd":"submit","firmware":"x"}"#).is_err(), "no iterations");
        assert!(parse_request(r#"{"cmd":"submit","firmware":"x","iterations":-5}"#).is_err());
        assert!(parse_request(r#"{"cmd":"nope"}"#).is_err());
        assert!(parse_request("[\"cmd\"]").is_err());
        assert!(parse_request("not json").is_err());
    }

    #[test]
    fn responses_are_valid_json() {
        let ok = ok_response([("id", Value::from(7u64))]);
        assert_eq!(ok, "{\"ok\":true,\"id\":7}");
        json::parse(&ok).unwrap();
        let message = "bad \"thing\"\n\u{1}";
        let err = json::parse(&error_response(message)).unwrap();
        assert_eq!(err.get("error").and_then(Value::as_str), Some(message));
    }
}
