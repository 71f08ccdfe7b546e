//! The live progress plane, end to end: monotone streamed counters,
//! disconnect isolation, the `status` job listing, the `metrics`
//! exposition, and the crash flight recorder.
//!
//! The non-perturbation *identity* property (byte-identical results
//! with streaming on and off) lives in `serve_robustness.rs` next to
//! the other determinism acceptance tests; this file covers the
//! observability surface itself.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use weakord_obs::json::{self, Json};
use weakord_progs::{litmus, unparse_program};
use weakord_serve::{job_identity, Client, JobSpec, ServeConfig, Server, SubmitKind};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("weakord-stream-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec_for(litmus_name: &str, machine: &str, max_states: usize) -> JobSpec {
    let lit = litmus::all().into_iter().find(|l| l.name == litmus_name).unwrap();
    JobSpec {
        machine: machine.to_string(),
        program: unparse_program(&lit.program),
        max_states,
        deadline_ms: None,
        reduce: false,
        test_panics: 0,
        test_sleep_ms: 0,
    }
}

fn num(v: &Json, k: &str) -> f64 {
    v.get(k).and_then(Json::as_num).unwrap_or_else(|| panic!("no numeric `{k}` in {v:?}"))
}

/// A big streamed job emits progress lines whose counters never move
/// backwards and whose connection-local sequence is strictly
/// increasing — the contract `weakord watch` renders from.
#[test]
fn streamed_progress_counters_are_monotone() {
    let dir = fresh_dir("monotone");
    let cfg = ServeConfig {
        state_dir: dir.clone(),
        workers: 1,
        progress_every_ms: 5,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let reply = client
        .submit(
            r#"{"op":"submit","machine":"wo-def2","litmus":"iriw","max_states":150000,"stream":true}"#,
        )
        .unwrap();
    assert!(matches!(reply.kind, SubmitKind::Done { cached: false }), "{reply:?}");
    let progress: Vec<Json> = reply
        .progress
        .iter()
        .filter(|l| l.contains(r#""event":"progress""#))
        .map(|l| json::parse(l).unwrap())
        .collect();
    assert!(
        progress.len() >= 3,
        "a 150k-state job at 5ms cadence must stream several lines, got {}",
        progress.len()
    );
    for pair in progress.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        assert_eq!(num(b, "seq"), num(a, "seq") + 1.0, "seq is dense and increasing");
        for k in ["states", "dedup_hits", "pruned_arcs", "attempt", "elapsed_ms"] {
            assert!(num(b, k) >= num(a, k), "`{k}` moved backwards: {a:?} -> {b:?}");
        }
    }
    let last = progress.last().unwrap();
    let done = json::parse(&reply.line).unwrap();
    let final_states = done.get("result").map(|r| num(r, "states")).unwrap();
    assert!(
        num(last, "states") <= final_states,
        "streamed states may trail but never exceed the final count"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client that vanishes mid-stream must neither wedge the daemon nor
/// perturb the job: the exploration finishes, its durable result is
/// identical to an undisturbed daemon's, and the socket plane keeps
/// answering.
#[test]
fn mid_stream_disconnect_neither_wedges_nor_perturbs() {
    let dir = fresh_dir("disconnect");
    let cfg = ServeConfig {
        state_dir: dir.clone(),
        workers: 1,
        progress_every_ms: 5,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).unwrap();

    // Raw socket: submit streaming, read a couple of lines, hang up.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    writeln!(
        raw,
        r#"{{"op":"submit","machine":"wo-def2","litmus":"iriw","max_states":150000,"stream":true}}"#
    )
    .unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains(r#""event":"accepted""#), "{line}");
    line.clear();
    reader.read_line(&mut line).unwrap(); // one progress (or early done) line
    drop(reader);
    drop(raw); // mid-stream hangup

    // The job still completes: wait for `status` to list it as done.
    // Its result file is renamed into place before the job settles, so
    // the file alone does not mean done; a resubmit in that window
    // rightly joins the running job instead of hitting the cache.
    let spec = spec_for("iriw", "wo-def2", 150_000);
    let (_, id) = job_identity(&spec, 1).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = json::parse(&client.request(r#"{"op":"status"}"#).unwrap()).unwrap();
        let jobs = status.get("jobs").and_then(Json::as_arr).unwrap();
        let phase = jobs
            .iter()
            .find(|j| j.get("id").and_then(Json::as_str) == Some(id.as_str()))
            .and_then(|j| j.get("phase").and_then(Json::as_str));
        if phase == Some("done") {
            break;
        }
        assert!(Instant::now() < deadline, "job never finished after client hangup");
        std::thread::sleep(Duration::from_millis(20));
    }
    let result_path = dir.join("results").join(format!("{id}.json"));
    assert!(result_path.exists(), "a done job has its durable result");

    // The daemon still serves, and a re-submission hits the cache with
    // the same payload an undisturbed daemon computes.
    assert_eq!(client.request(r#"{"op":"ping"}"#).unwrap(), r#"{"event":"pong"}"#);
    let reply = client
        .submit(r#"{"op":"submit","machine":"wo-def2","litmus":"iriw","max_states":150000}"#)
        .unwrap();
    assert!(matches!(reply.kind, SubmitKind::Done { cached: true }), "{reply:?}");
    server.shutdown();

    let undisturbed_dir = fresh_dir("disconnect-ref");
    let server = Server::start(ServeConfig {
        state_dir: undisturbed_dir.clone(),
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .submit(r#"{"op":"submit","machine":"wo-def2","litmus":"iriw","max_states":150000}"#)
        .unwrap();
    server.shutdown();
    assert_eq!(
        std::fs::read_to_string(&result_path).unwrap(),
        std::fs::read_to_string(undisturbed_dir.join("results").join(format!("{id}.json")))
            .unwrap(),
        "a mid-stream hangup must not perturb the result"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&undisturbed_dir);
}

/// `status` lists every known job with its phase and live counters,
/// and the listing is id-sorted (deterministic order).
#[test]
fn status_lists_jobs_with_phases_and_counters() {
    let dir = fresh_dir("listing");
    let cfg = ServeConfig {
        state_dir: dir.clone(),
        workers: 1,
        test_hooks: true,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();
    // Pin the lone worker with a sleeping job, then queue a second.
    let sleeper = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.submit(
            r#"{"op":"submit","machine":"sc","litmus":"mp","max_states":11111,"test_sleep_ms":900}"#,
        )
        .unwrap()
    });
    std::thread::sleep(Duration::from_millis(200));
    let queued = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.submit(r#"{"op":"submit","machine":"sc","litmus":"lb","max_states":22222}"#).unwrap()
    });
    std::thread::sleep(Duration::from_millis(200));
    let mut client = Client::connect(addr).unwrap();
    let status = json::parse(&client.request(r#"{"op":"status"}"#).unwrap()).unwrap();
    assert!(num(&status, "uptime_ms") > 0.0);
    let jobs = status.get("jobs").and_then(Json::as_arr).unwrap();
    assert_eq!(jobs.len(), 2, "{status:?}");
    let ids: Vec<&str> = jobs.iter().map(|j| j.get("id").and_then(Json::as_str).unwrap()).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted, "the listing is id-sorted");
    let phases: Vec<&str> =
        jobs.iter().map(|j| j.get("phase").and_then(Json::as_str).unwrap()).collect();
    assert!(phases.contains(&"running") && phases.contains(&"queued"), "{phases:?}");
    assert!(sleeper.join().is_ok() && queued.join().is_ok());
    // After both settle, the listing shows done rows with final states.
    let status = json::parse(&client.request(r#"{"op":"status"}"#).unwrap()).unwrap();
    let jobs = status.get("jobs").and_then(Json::as_arr).unwrap();
    assert!(jobs.iter().all(|j| j.get("phase").and_then(Json::as_str) == Some("done")));
    assert!(jobs.iter().all(|j| num(j, "states") > 0.0), "{status:?}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `metrics` op ships the full registry as sorted `key=value` text
/// exposition inside one JSON line, consistent with `status` counters.
#[test]
fn metrics_exposition_is_sorted_complete_and_consistent() {
    let dir = fresh_dir("metrics");
    let server =
        Server::start(ServeConfig { state_dir: dir.clone(), ..ServeConfig::default() }).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let reply = client
        .submit(r#"{"op":"submit","machine":"sc","litmus":"mp","max_states":50000}"#)
        .unwrap();
    assert!(matches!(reply.kind, SubmitKind::Done { .. }));
    let line = client.request(r#"{"op":"metrics"}"#).unwrap();
    let v = json::parse(&line).unwrap();
    assert_eq!(v.get("event").and_then(Json::as_str), Some("metrics"));
    assert_eq!(v.get("format").and_then(Json::as_str), Some("kv"));
    let dump = v.get("dump").and_then(Json::as_str).unwrap().to_string();
    let lines: Vec<&str> = dump.lines().collect();
    assert!(!lines.is_empty());
    let mut sorted = lines.clone();
    sorted.sort_unstable();
    assert_eq!(lines, sorted, "the exposition is key-sorted");
    let kv: Vec<(&str, &str)> =
        lines.iter().map(|l| l.split_once('=').unwrap_or_else(|| panic!("bad line {l}"))).collect();
    let get = |k: &str| kv.iter().find(|(key, _)| *key == k).map(|(_, v)| *v);
    assert_eq!(get("serve.jobs.accepted"), Some("1"));
    assert_eq!(get("serve.jobs.completed"), Some("1"));
    assert_eq!(get("serve.latency_us.count"), Some("1"));
    assert!(get("serve.latency_us.p95").is_some(), "{dump}");
    assert!(get("serve.queue_depth").is_some() && get("serve.uptime_ms").is_some(), "{dump}");
    // Consistency: the exposition's counters agree with `status`.
    let status = json::parse(&client.request(r#"{"op":"status"}"#).unwrap()).unwrap();
    let started =
        status.get("counters").and_then(|c| c.get("serve.jobs.started")).and_then(Json::as_num);
    assert_eq!(get("serve.jobs.started").and_then(|s| s.parse::<f64>().ok()), started);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every line of every flight dump parses as JSON; panics and the
/// poison pill each leave a dump named for their reason.
#[test]
fn worker_panics_leave_parseable_flight_dumps() {
    let dir = fresh_dir("flight");
    let cfg = ServeConfig {
        state_dir: dir.clone(),
        workers: 1,
        retry_max: 2,
        backoff_base_ms: 1,
        test_hooks: true,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let reply = client
        .submit(
            r#"{"op":"submit","machine":"sc","litmus":"mp","max_states":12345,"test_panics":1000}"#,
        )
        .unwrap();
    assert!(matches!(reply.kind, SubmitKind::Done { .. }), "{reply:?}");
    server.shutdown();
    let dumps: Vec<PathBuf> = std::fs::read_dir(dir.join("flight"))
        .expect("the flight directory exists after a panic")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    let names: Vec<String> =
        dumps.iter().map(|p| p.file_name().unwrap().to_string_lossy().into_owned()).collect();
    assert!(names.iter().any(|n| n.contains(".panic.")), "{names:?}");
    assert!(names.iter().any(|n| n.contains(".poison.")), "{names:?}");
    for path in &dumps {
        let text = std::fs::read_to_string(path).unwrap();
        let mut lines = text.lines();
        let header = json::parse(lines.next().expect("non-empty dump")).unwrap();
        assert!(header.get("reason").and_then(Json::as_str).is_some(), "{path:?}");
        assert!(header.get("worker").and_then(Json::as_num).is_some(), "{path:?}");
        for l in lines {
            json::parse(l).unwrap_or_else(|e| panic!("{path:?}: unparseable line {l}: {e}"));
        }
        // The ring captured the job lifecycle, not just the header.
        assert!(text.contains("job-start"), "{path:?} has no lifecycle events");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The watchdog notices a job whose state count stops moving and dumps
/// its worker's ring with reason `stall`, once per episode.
#[test]
fn the_watchdog_dumps_a_stalled_job_once() {
    let dir = fresh_dir("stall");
    let cfg = ServeConfig {
        state_dir: dir.clone(),
        workers: 1,
        test_hooks: true,
        stall_after_ms: 80,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // A sleeping job sits on the worker with its counters frozen at
    // zero — exactly what a stalled exploration looks like from outside.
    let reply = client
        .submit(
            r#"{"op":"submit","machine":"sc","litmus":"mp","max_states":33333,"test_sleep_ms":600}"#,
        )
        .unwrap();
    assert!(matches!(reply.kind, SubmitKind::Done { .. }), "{reply:?}");
    server.shutdown();
    let stalls: Vec<String> = std::fs::read_dir(dir.join("flight"))
        .expect("stall dump directory")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".stall."))
        .collect();
    assert_eq!(stalls.len(), 1, "exactly one dump per stall episode: {stalls:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
