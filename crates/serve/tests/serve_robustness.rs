//! End-to-end robustness properties of the serve daemon:
//!
//! * kill/resume equivalence — a daemon life that starts from a
//!   half-finished predecessor's state dir (journal + mid-job
//!   checkpoint) produces byte-identical result files to an
//!   uninterrupted life;
//! * the outcome-set cache (warm and cold);
//! * dedup of concurrent identical submissions;
//! * explicit load shedding at 2× queue capacity — zero silent drops;
//! * retry-with-backoff after injected panics, and the poison-pill cap.
//!
//! The true SIGKILL-a-process flavor of the first property runs in CI
//! (`serve-smoke`); here the "killed" state dir is constructed by
//! running the same exploration with `abort_after`, which suspends at
//! an arbitrary checkpoint boundary exactly like a kill would.

use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use weakord_mc::{run, with_machine, Checkpoint, CheckpointCfg, Opts, TruncationReason};
use weakord_obs::json::{self, Json};
use weakord_progs::{litmus, unparse_program, Program};
use weakord_serve::{job_identity, Client, JobSpec, ServeConfig, Server, SubmitKind};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("weakord-robust-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg_for(dir: PathBuf) -> ServeConfig {
    ServeConfig {
        state_dir: dir,
        workers: 2,
        max_queue: 8,
        ckpt_every: 50,
        test_hooks: true,
        ..ServeConfig::default()
    }
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

fn submit_line(litmus_name: &str, machine: &str, max_states: usize) -> String {
    format!(
        r#"{{"op":"submit","machine":"{machine}","litmus":"{litmus_name}","max_states":{max_states}}}"#
    )
}

/// Runs a job the way a SIGKILL'd daemon would have left it:
/// checkpointing frequently and suspending (resumably) after the first
/// autosave. Returns how the run stopped.
fn interrupted_run(
    spec: &JobSpec,
    prog: &Program,
    cfg: &CheckpointCfg,
) -> Option<TruncationReason> {
    let opts = Opts { checkpoint: Checkpoint::Fresh(cfg), ..Opts::default() };
    let ex = with_machine!(spec.machine.as_str(), |m| run(&m, prog, spec.limits(1), &opts),
        other => panic!("unknown machine `{other}`"));
    ex.unwrap().truncation
}

fn wait_for_file(path: &PathBuf, timeout: Duration) -> String {
    let deadline = Instant::now() + timeout;
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            return text;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {}", path.display());
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The tentpole acceptance property: a daemon that inherits a
/// journaled, half-explored state dir finishes every accepted job to
/// the byte-identical result file an uninterrupted daemon writes.
#[test]
fn killed_and_resumed_results_are_byte_identical() {
    let jobs: &[(&str, &str, usize)] =
        &[("mp", "sc", 100_000), ("iriw", "tso", 100_000), ("lb", "pso", 100_000)];

    // Life A: uninterrupted.
    let clean_dir = fresh_dir("clean");
    let server = Server::start(cfg_for(clean_dir.clone())).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for (l, m, cap) in jobs {
        let reply = client.submit(&submit_line(l, m, *cap)).unwrap();
        assert!(matches!(reply.kind, SubmitKind::Done { .. }), "{reply:?}");
    }
    server.shutdown();

    // Life B: a state dir that looks exactly like a SIGKILL'd daemon —
    // accept journals present, each job's checkpoint suspended mid-run
    // at a checkpoint boundary (abort_after), no result files.
    let killed_dir = fresh_dir("killed");
    std::fs::create_dir_all(killed_dir.join("jobs")).unwrap();
    for (l, m, cap) in jobs {
        let spec = spec_for(l, m, *cap);
        let (prog, id) = job_identity(&spec, 1).unwrap();
        let mut f =
            std::fs::File::create(killed_dir.join("jobs").join(format!("{id}.json"))).unwrap();
        f.write_all(spec.to_json_line().as_bytes()).unwrap();
        let ckpt = CheckpointCfg {
            dir: killed_dir.join("ckpt").join(&id),
            every: 20,
            abort_after: Some(1),
            store: None,
        };
        assert_eq!(
            interrupted_run(&spec, &prog, &ckpt),
            Some(TruncationReason::Resumable),
            "the interrupted run must suspend, not finish, for the test to mean anything"
        );
    }
    // Hand the maimed state dir to a fresh daemon life; recovery must
    // finish every journaled job with no client attached.
    let server = Server::start(cfg_for(killed_dir.clone())).unwrap();
    for (l, m, cap) in jobs {
        let spec = spec_for(l, m, *cap);
        let (_, id) = job_identity(&spec, 1).unwrap();
        let resumed = wait_for_file(
            &killed_dir.join("results").join(format!("{id}.json")),
            Duration::from_secs(60),
        );
        let clean = std::fs::read_to_string(clean_dir.join("results").join(format!("{id}.json")))
            .expect("clean life wrote this result");
        assert_eq!(resumed, clean, "resumed result for {l}/{m} must be byte-identical");
        // The journal is consumed once the result is durable.
        let deadline = Instant::now() + Duration::from_secs(10);
        while killed_dir.join("jobs").join(format!("{id}.json")).exists() {
            assert!(Instant::now() < deadline, "journal for {id} never consumed");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&killed_dir);
}

/// PR 9 acceptance: streaming is pure observation. A daemon serving
/// `"stream": true` submits (at an aggressive 5ms cadence) produces
/// `done` reply lines and durable result files byte-identical to a
/// daemon serving the same jobs without streaming.
#[test]
fn result_lines_are_byte_identical_with_streaming_on_and_off() {
    let jobs: &[(&str, &str, usize)] =
        &[("mp", "sc", 100_000), ("iriw", "tso", 100_000), ("lb", "pso", 100_000)];
    let dir_off = fresh_dir("stream-off");
    let dir_on = fresh_dir("stream-on");
    let server_off = Server::start(cfg_for(dir_off.clone())).unwrap();
    let server_on =
        Server::start(ServeConfig { progress_every_ms: 5, ..cfg_for(dir_on.clone()) }).unwrap();
    let mut off = Client::connect(server_off.addr()).unwrap();
    let mut on = Client::connect(server_on.addr()).unwrap();
    let mut saw_progress = false;
    for (l, m, cap) in jobs {
        let plain = off.submit(&submit_line(l, m, *cap)).unwrap();
        let streamed = on
            .submit(&format!(
                r#"{{"op":"submit","machine":"{m}","litmus":"{l}","max_states":{cap},"stream":true}}"#
            ))
            .unwrap();
        assert!(matches!(plain.kind, SubmitKind::Done { cached: false }), "{plain:?}");
        assert!(matches!(streamed.kind, SubmitKind::Done { cached: false }), "{streamed:?}");
        assert_eq!(plain.line, streamed.line, "{l}/{m}: done lines must be byte-identical");
        saw_progress |= streamed.progress.iter().any(|p| p.contains(r#""event":"progress""#));
        let spec = spec_for(l, m, *cap);
        let (_, id) = job_identity(&spec, 1).unwrap();
        let file = format!("{id}.json");
        assert_eq!(
            std::fs::read_to_string(dir_off.join("results").join(&file)).unwrap(),
            std::fs::read_to_string(dir_on.join("results").join(&file)).unwrap(),
            "{l}/{m}: durable results must be byte-identical"
        );
    }
    assert!(saw_progress, "at least one job must actually have streamed progress lines");
    server_off.shutdown();
    server_on.shutdown();
    let _ = std::fs::remove_dir_all(&dir_off);
    let _ = std::fs::remove_dir_all(&dir_on);
}

#[test]
fn the_outcome_cache_serves_warm_and_cold_hits() {
    let dir = fresh_dir("cache");
    let server = Server::start(cfg_for(dir.clone())).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let line = submit_line("mp", "sc", 60_000);
    let first = client.submit(&line).unwrap();
    assert!(matches!(first.kind, SubmitKind::Done { cached: false }), "{first:?}");
    // Warm: same daemon life, in-memory hit.
    let second = client.submit(&line).unwrap();
    assert!(matches!(second.kind, SubmitKind::Done { cached: true }), "{second:?}");
    server.shutdown();
    // Cold: a new life finds the durable result on disk.
    let server = Server::start(cfg_for(dir.clone())).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let third = client.submit(&line).unwrap();
    assert!(matches!(third.kind, SubmitKind::Done { cached: true }), "{third:?}");
    // And the payloads agree.
    let a = json::parse(&first.line).unwrap();
    let c = json::parse(&third.line).unwrap();
    assert_eq!(a.get("result"), c.get("result"));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_identical_submissions_dedup_onto_one_job() {
    let dir = fresh_dir("dedup");
    let server = Server::start(cfg_for(dir.clone())).unwrap();
    let addr = server.addr();
    let line = submit_line("iriw", "wo-def2", 80_000);
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let line = line.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.submit(&line).unwrap()
            })
        })
        .collect();
    let replies: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let mut results: Vec<&Json> = Vec::new();
    let parsed: Vec<Json> = replies.iter().map(|r| json::parse(&r.line).unwrap()).collect();
    for (reply, v) in replies.iter().zip(&parsed) {
        assert!(matches!(reply.kind, SubmitKind::Done { .. }), "{reply:?}");
        results.push(v.get("result").unwrap());
    }
    assert!(results.windows(2).all(|w| w[0] == w[1]), "all clients see the same result");
    // At most one exploration actually ran: the rest joined or hit the
    // cache, so `started` stays at 1.
    let mut c = Client::connect(addr).unwrap();
    let status = c.request(r#"{"op":"status"}"#).unwrap();
    let v = json::parse(&status).unwrap();
    let started =
        v.get("counters").and_then(|c| c.get("serve.jobs.started")).and_then(Json::as_num);
    assert_eq!(started, Some(1.0), "{status}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Overload: one worker pinned by a sleeping job, a queue of one slot,
/// and a burst of 2× capacity. Every submission gets an explicit
/// verdict — done, or a structured shed — and the daemon never panics.
#[test]
fn overload_sheds_explicitly_and_never_silently() {
    let dir = fresh_dir("shed");
    let cfg = ServeConfig {
        state_dir: dir.clone(),
        workers: 1,
        max_queue: 1,
        test_hooks: true,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();
    // Pin the lone worker.
    let pin = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.submit(
            r#"{"op":"submit","machine":"sc","litmus":"mp","max_states":77777,"test_sleep_ms":1500}"#,
        )
        .unwrap()
    });
    std::thread::sleep(Duration::from_millis(300)); // let the pin land on the worker
                                                    // Burst distinct jobs at 2× the remaining capacity (queue holds 1).
    let burst: Vec<_> = (0..4)
        .map(|i| {
            let line = submit_line("mp", "tso", 50_000 + i); // distinct ids
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.submit(&line).unwrap()
            })
        })
        .collect();
    let mut done = 0;
    let mut shed = 0;
    for h in burst {
        match h.join().unwrap().kind {
            SubmitKind::Done { .. } => done += 1,
            SubmitKind::Shed => shed += 1,
            other => panic!("unexpected verdict under overload: {other:?}"),
        }
    }
    assert!(shed >= 1, "a 1-slot queue under a 4-job burst must shed");
    assert!(done >= 1, "the queued job must still complete");
    let pinned = pin.join().unwrap();
    assert!(matches!(pinned.kind, SubmitKind::Done { .. }));
    // Explicitness audit: accepted + shed accounts for every submission.
    let mut c = Client::connect(addr).unwrap();
    let status = c.request(r#"{"op":"status"}"#).unwrap();
    let v = json::parse(&status).unwrap();
    let counter = |k: &str| {
        v.get("counters").and_then(|c| c.get(k)).and_then(Json::as_num).unwrap_or(0.0) as u64
    };
    assert_eq!(counter("serve.jobs.accepted") + counter("serve.jobs.shed"), 5, "{status}");
    assert_eq!(counter("serve.jobs.shed"), shed, "{status}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_panics_retry_with_backoff_then_succeed() {
    let dir = fresh_dir("retry");
    let cfg = ServeConfig {
        state_dir: dir.clone(),
        workers: 1,
        retry_max: 4,
        backoff_base_ms: 5,
        test_hooks: true,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let reply = client
        .submit(
            r#"{"op":"submit","machine":"sc","litmus":"mp","max_states":40000,"test_panics":2}"#,
        )
        .unwrap();
    assert!(matches!(reply.kind, SubmitKind::Done { cached: false }), "{reply:?}");
    let v = json::parse(&reply.line).unwrap();
    assert_eq!(v.get("result").and_then(|r| r.get("ok")), Some(&Json::Bool(true)));
    let status = client.request(r#"{"op":"status"}"#).unwrap();
    let s = json::parse(&status).unwrap();
    let retried =
        s.get("counters").and_then(|c| c.get("serve.jobs.retried")).and_then(Json::as_num);
    assert_eq!(retried, Some(2.0), "{status}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_poison_pill_is_capped_and_reported_durably() {
    let dir = fresh_dir("poison");
    let cfg = ServeConfig {
        state_dir: dir.clone(),
        workers: 1,
        retry_max: 3,
        backoff_base_ms: 1,
        test_hooks: true,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let reply = client
        .submit(
            r#"{"op":"submit","machine":"sc","litmus":"mp","max_states":30000,"test_panics":1000}"#,
        )
        .unwrap();
    // The terminal verdict is an explicit poisoned result, not a hang.
    assert!(matches!(reply.kind, SubmitKind::Done { .. }), "{reply:?}");
    let v = json::parse(&reply.line).unwrap();
    let result = v.get("result").unwrap();
    assert_eq!(result.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(result.get("kind").and_then(Json::as_str), Some("poisoned"));
    assert_eq!(result.get("attempts").and_then(Json::as_num), Some(3.0));
    // Durable: the poison verdict survives to the next life, and no
    // journal remains to livelock it.
    let spec = spec_for("mp", "sc", 30_000);
    let (_, id) = job_identity(&spec, 1).unwrap();
    assert!(dir.join("results").join(format!("{id}.json")).exists());
    assert!(!dir.join("jobs").join(format!("{id}.json")).exists());
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn per_job_deadlines_truncate_at_safepoints_without_caching() {
    let dir = fresh_dir("deadline");
    let server = Server::start(cfg_for(dir.clone())).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let line = r#"{"op":"submit","machine":"wo-def2","litmus":"iriw","max_states":2000000,"deadline_ms":0}"#;
    let reply = client.submit(line).unwrap();
    assert!(matches!(reply.kind, SubmitKind::Done { cached: false }), "{reply:?}");
    let v = json::parse(&reply.line).unwrap();
    assert_eq!(
        v.get("result").and_then(|r| r.get("truncated")).and_then(Json::as_str),
        Some("deadline"),
        "{reply:?}"
    );
    // A deadline-truncated answer must not poison the cache.
    let again = client.submit(line).unwrap();
    assert!(matches!(again.kind, SubmitKind::Done { cached: false }), "{again:?}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
