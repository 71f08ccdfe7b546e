//! The wire protocol: one JSON object per line, both directions.
//!
//! Requests name an `op`; every server reply names an `event`. The
//! vocabulary is deliberately tiny so the in-tree [`weakord_obs::json`]
//! reader covers it with no external serializer:
//!
//! | request `op` | reply `event`s |
//! |---|---|
//! | `submit`   | `accepted` (then `progress`…) then `done`, or `shed`, or `error` |
//! | `status`   | `status` (gauges, counters, latency, per-job listing) |
//! | `metrics`  | `metrics` (full registry dump, `key=value` text) |
//! | `ping`     | `pong` |
//! | `cancel`   | `ok` or `error` |
//! | `shutdown` | `ok` (daemon then drains and exits) |
//!
//! A `submit` carries a machine name plus a program — either
//! `"litmus": "<name>"` (the built-in suite) or `"program": "<text>"`
//! (the `.litmus` surface syntax) — and optional resource limits
//! (`max_states`, `deadline_ms`, `reduce`). The program is canonicalized
//! through parse→unparse at admission, so every equivalent submission
//! maps to the same job id (the PR 5 config fingerprint in hex) and
//! hits the same cache entry.
//!
//! A `submit` may also set `"stream": true` to receive periodic
//! `{"event":"progress",...}` lines between `accepted` and `done`.
//! Streaming is a property of the *connection*, not the job: the flag
//! lives outside [`JobSpec`], so it can never reach the accept journal,
//! the config fingerprint, or the outcome cache, and the terminal
//! result line is byte-identical with streaming on or off.
//!
//! Malformed input never panics and never wedges the connection: every
//! parse failure maps to one structured `error` reply and the reader
//! resynchronizes at the next newline.

use weakord_mc::Limits;
use weakord_obs::json::{self, Json};
use weakord_progs::{litmus, parse_program, unparse_program};

/// Upper bound on one request line, bytes. Longer lines are drained
/// and refused with a structured `overlong` error — a hostile client
/// cannot make the server buffer unboundedly.
pub const MAX_LINE: usize = 1 << 20;

/// The machine names `submit` accepts: the explorer's machine registry
/// (same vocabulary, same order as `weakord explore --machine`).
pub use weakord_mc::machines::NAMES as MACHINES;

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run (or join, or fetch from cache) a checking job.
    Submit {
        /// The validated, canonicalized job.
        spec: JobSpec,
        /// Emit `progress` events while the job runs (a per-connection
        /// choice — deliberately *not* part of [`JobSpec`], so it never
        /// reaches the journal, the job id, or the cache).
        stream: bool,
    },
    /// Gauges + counters + latency snapshot + per-job listing.
    Status,
    /// Full metrics-registry dump in `key=value` text exposition.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Cancel a queued or running job by id.
    Cancel(String),
    /// Drain and stop the daemon (running jobs suspend resumably).
    Shutdown,
}

/// A validated, canonicalized job description.
///
/// `program` is always the canonical unparse of a parsed program, so
/// the journal on disk, the config fingerprint, and the dedup key all
/// agree byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Machine name (one of [`MACHINES`]).
    pub machine: String,
    /// Canonical program text.
    pub program: String,
    /// State cap (participates in the job id).
    pub max_states: usize,
    /// Per-job wall-clock budget; exceeding it truncates at a worker
    /// safepoint (a resource, not semantics — excluded from the id).
    pub deadline_ms: Option<u64>,
    /// Partial-order reduction on/off (participates in the job id).
    pub reduce: bool,
    /// Test hook: panic this many times before succeeding (ignored
    /// unless the daemon runs with test hooks enabled).
    pub test_panics: u32,
    /// Test hook: sleep this long before exploring, to make a job
    /// observably in-flight (ignored without test hooks).
    pub test_sleep_ms: u64,
}

impl JobSpec {
    /// The exploration limits this spec asks for; `threads` is the
    /// daemon's per-job engine width (a server resource, never the
    /// client's choice).
    pub fn limits(&self, threads: usize) -> Limits {
        Limits {
            max_states: self.max_states,
            threads,
            deadline: self.deadline_ms.map(std::time::Duration::from_millis),
            reduction: if self.reduce {
                weakord_mc::Reduction::Ample
            } else {
                weakord_mc::Reduction::Full
            },
            memory_budget: None,
        }
    }

    /// The one-line JSON form used for both the accept journal and
    /// (re)parsing — round-trips through [`JobSpec::from_json`].
    pub fn to_json_line(&self) -> String {
        let deadline = self.deadline_ms.map_or_else(|| "null".to_string(), |d| d.to_string());
        format!(
            "{{\"machine\":\"{}\",\"program\":\"{}\",\"max_states\":{},\"deadline_ms\":{},\"reduce\":{},\"test_panics\":{},\"test_sleep_ms\":{}}}",
            json::escape(&self.machine),
            json::escape(&self.program),
            self.max_states,
            deadline,
            self.reduce,
            self.test_panics,
            self.test_sleep_ms,
        )
    }

    /// Builds a spec from a parsed JSON object — the common core of
    /// wire submits and journal reloads. `allow_litmus` permits the
    /// `"litmus"` shorthand (wire only; journals always store text).
    pub fn from_json(v: &Json, allow_litmus: bool) -> Result<JobSpec, String> {
        let machine = match v.get("machine") {
            None => "wo-def2".to_string(),
            Some(m) => m.as_str().ok_or("`machine` must be a string")?.to_string(),
        };
        if !MACHINES.contains(&machine.as_str()) {
            return Err(format!(
                "unknown machine `{machine}` (expected one of {})",
                MACHINES.join("|")
            ));
        }
        let program = match (v.get("litmus"), v.get("program")) {
            (Some(_), Some(_)) => return Err("give `litmus` or `program`, not both".to_string()),
            (Some(l), None) => {
                if !allow_litmus {
                    return Err("`litmus` is not valid here; inline the program text".to_string());
                }
                let name = l.as_str().ok_or("`litmus` must be a string")?;
                let lit = litmus::all()
                    .into_iter()
                    .find(|t| t.name == name)
                    .ok_or_else(|| format!("unknown litmus test `{name}`"))?;
                unparse_program(&lit.program)
            }
            (None, Some(p)) => {
                let text = p.as_str().ok_or("`program` must be a string")?;
                let prog =
                    parse_program(text).map_err(|e| format!("program does not parse: {e}"))?;
                unparse_program(&prog)
            }
            (None, None) => return Err("a submit needs `litmus` or `program`".to_string()),
        };
        let max_states = match v.get("max_states") {
            None => Limits::default().max_states,
            Some(n) => as_count(n, "max_states")?,
        };
        if max_states == 0 {
            return Err("`max_states` must be at least 1".to_string());
        }
        let deadline_ms = match v.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(n) => Some(as_count(n, "deadline_ms")? as u64),
        };
        let reduce = match v.get("reduce") {
            None => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err("`reduce` must be a boolean".to_string()),
        };
        let test_panics = match v.get("test_panics") {
            None => 0,
            Some(n) => u32::try_from(as_count(n, "test_panics")?)
                .map_err(|_| "`test_panics` is out of range".to_string())?,
        };
        let test_sleep_ms = match v.get("test_sleep_ms") {
            None => 0,
            Some(n) => as_count(n, "test_sleep_ms")? as u64,
        };
        Ok(JobSpec {
            machine,
            program,
            max_states,
            deadline_ms,
            reduce,
            test_panics,
            test_sleep_ms,
        })
    }
}

/// Reads a JSON number as a non-negative integer count, refusing
/// fractions, negatives, and magnitudes past 2^53 (where `f64` loses
/// integer exactness).
fn as_count(v: &Json, field: &str) -> Result<usize, String> {
    let n = v.as_num().ok_or_else(|| format!("`{field}` must be a number"))?;
    if n.fract() != 0.0 || !(0.0..=9.007_199_254_740_992e15).contains(&n) {
        return Err(format!("`{field}` must be a non-negative integer"));
    }
    Ok(n as usize)
}

/// Parses one request line. Every failure is a client-facing message —
/// the server wraps it in an `error` reply, never a panic.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    if line.is_empty() {
        return Err("empty request line".to_string());
    }
    let v = json::parse(line)?;
    let op = v.get("op").and_then(Json::as_str).ok_or("request needs a string `op` field")?;
    match op {
        "ping" => Ok(Request::Ping),
        "status" => Ok(Request::Status),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        "cancel" => {
            let id = v.get("id").and_then(Json::as_str).ok_or("`cancel` needs a string `id`")?;
            Ok(Request::Cancel(id.to_string()))
        }
        "submit" => {
            let stream = match v.get("stream") {
                None => false,
                Some(Json::Bool(b)) => *b,
                Some(_) => return Err("`stream` must be a boolean".to_string()),
            };
            Ok(Request::Submit { spec: JobSpec::from_json(&v, true)?, stream })
        }
        other => Err(format!("unknown op `{other}`")),
    }
}

/// A structured `error` reply line.
pub fn error_line(kind: &str, msg: &str) -> String {
    format!("{{\"event\":\"error\",\"kind\":\"{}\",\"error\":\"{}\"}}", kind, json::escape(msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_by_litmus_name_canonicalizes() {
        let r = parse_request(r#"{"op":"submit","machine":"tso","litmus":"mp"}"#).unwrap();
        let Request::Submit { spec, stream } = r else { panic!("not a submit") };
        assert!(!stream, "streaming is opt-in");
        assert_eq!(spec.machine, "tso");
        assert!(spec.program.starts_with("name "), "{}", spec.program);
        // Round-trips through the journal form.
        let v = json::parse(&spec.to_json_line()).unwrap();
        assert_eq!(JobSpec::from_json(&v, false).unwrap(), spec);
    }

    #[test]
    fn inline_program_and_litmus_agree_on_canonical_text() {
        let lit = litmus::all().into_iter().find(|l| l.name == "mp").unwrap();
        let text = unparse_program(&lit.program);
        let line =
            format!(r#"{{"op":"submit","machine":"sc","program":"{}"}}"#, json::escape(&text));
        let Request::Submit { spec: a, .. } = parse_request(&line).unwrap() else { panic!() };
        let Request::Submit { spec: b, .. } =
            parse_request(r#"{"op":"submit","machine":"sc","litmus":"mp"}"#).unwrap()
        else {
            panic!()
        };
        assert_eq!(a, b, "same job id no matter how the program arrived");
    }

    /// The cache-exclusion argument, at the type level: `stream` rides
    /// the request, not the spec, so a streamed and an unstreamed
    /// submit produce the *same* [`JobSpec`] — same journal line, same
    /// config fingerprint, same cache entry.
    #[test]
    fn streaming_never_reaches_the_spec_or_the_journal() {
        let Request::Submit { spec: on, stream: s_on } =
            parse_request(r#"{"op":"submit","machine":"sc","litmus":"mp","stream":true}"#).unwrap()
        else {
            panic!()
        };
        let Request::Submit { spec: off, stream: s_off } =
            parse_request(r#"{"op":"submit","machine":"sc","litmus":"mp","stream":false}"#)
                .unwrap()
        else {
            panic!()
        };
        assert!(s_on && !s_off);
        assert_eq!(on, off, "stream must not differentiate specs");
        assert_eq!(on.to_json_line(), off.to_json_line(), "journal lines identical");
        assert!(!on.to_json_line().contains("stream"), "journals never mention streaming");
        let err = parse_request(r#"{"op":"submit","litmus":"mp","stream":"yes"}"#).unwrap_err();
        assert!(err.contains("stream"), "{err}");
    }

    #[test]
    fn metrics_op_parses() {
        assert_eq!(parse_request(r#"{"op":"metrics"}"#).unwrap(), Request::Metrics);
    }

    #[test]
    fn malformed_requests_are_messages_not_panics() {
        for bad in [
            "",
            "   ",
            "{",
            "[1,2]",
            "{\"op\":42}",
            "{\"op\":\"zap\"}",
            "{\"op\":\"submit\"}",
            "{\"op\":\"submit\",\"machine\":\"bogus\",\"litmus\":\"sb\"}",
            "{\"op\":\"submit\",\"litmus\":\"no-such-test\"}",
            "{\"op\":\"submit\",\"program\":\"not a program\"}",
            "{\"op\":\"submit\",\"litmus\":\"sb\",\"program\":\"x\"}",
            "{\"op\":\"submit\",\"litmus\":\"sb\",\"max_states\":0}",
            "{\"op\":\"submit\",\"litmus\":\"sb\",\"max_states\":-3}",
            "{\"op\":\"submit\",\"litmus\":\"sb\",\"max_states\":1.5}",
            "{\"op\":\"submit\",\"litmus\":\"sb\",\"reduce\":\"yes\"}",
            "{\"op\":\"cancel\"}",
        ] {
            let err = parse_request(bad).expect_err(bad);
            assert!(!err.is_empty(), "{bad}");
        }
    }

    #[test]
    fn error_lines_are_valid_json() {
        let line = error_line("bad-request", "quote \" and \\ backslash");
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("event").and_then(Json::as_str), Some("error"));
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("bad-request"));
    }
}
