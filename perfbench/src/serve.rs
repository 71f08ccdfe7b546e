//! `serve-mixed`: an in-process daemon (`Server::start`, `RealVfs`,
//! default pool) driven as a closed loop by two client connections.
//! The mix is mostly small generated programs across every machine
//! (vetted, 3–9·10³ states), a tail of medium wo-def2 jobs (vetted,
//! 4–5.5·10⁴ states) that one client sends while the other waits on
//! the shared cores, and exact repeats that must come back cached. A
//! small job spends a few milliseconds in the journal and result fsyncs,
//! and several times that exploring: the disk's fsync latency drifts
//! twofold over minutes on a shared host, and `job_p50_ms` must not
//! follow it.
//!
//! The traced run replays each submitted job in process through
//! `parse_request` → `job_identity` → `write_atomic` (journal) →
//! `run_attempt` → `result_line` → `write_atomic` (result), and reads
//! the daemon's `metrics` op for the storage counters.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use weakord_mc::{CancelToken, Exploration, ProgressSink};
use weakord_obs::json::{self, escape, Json};
use weakord_progs::gen::{self, GenParams};
use weakord_serve::{
    job_identity, parse_request, result_line, run_attempt, Client, JobSpec, RealVfs, Request,
    ServeConfig, Server, SubmitKind, Vfs, MACHINES,
};
use weakord_sim::SimRng;

use crate::common::{
    build_program, finish_trace, heap_peak_mb, heap_window_start, median, percentile,
    result_digest, scratch_dir, Args, Report, Spans, SETUP_REPS,
};
use crate::pools::{SmallVetted, Vetted, MEDIUM_POOL, SMALL_BAND, SMALL_POOL};

/// Small jobs' program shapes (`SmallVetted::shape`): no one shape puts
/// every machine in `SMALL_BAND`, where sc needs three processors and
/// reduced cache-delay two.
pub const SHAPES: [GenParams; 2] = [
    GenParams {
        n_procs: 3,
        n_locks: 1,
        data_per_lock: 1,
        transactions_per_thread: 2,
        accesses_per_transaction: 3,
    },
    GenParams {
        n_procs: 2,
        n_locks: 2,
        data_per_lock: 1,
        transactions_per_thread: 3,
        accesses_per_transaction: 2,
    },
];
/// Medium jobs: `race_free(gen_seed, MEDIUM)` on wo-def2.
pub const MEDIUM: GenParams = GenParams {
    n_procs: 3,
    n_locks: 2,
    data_per_lock: 1,
    transactions_per_thread: 2,
    accesses_per_transaction: 2,
};
/// `max_states` of a fresh submit is this plus a number unique to the
/// submit, so every fresh submit has its own job id (as in the repo's
/// `serve_loadgen`) and only the deliberate repeats hit the cache.
const MAX_STATES: usize = 200_000;
const CLIENTS: usize = 2;
/// The traced run's daemon phase: this many submits per client.
const TRACED_SUBMITS_PER_CLIENT: usize = 60;
/// Every fourth submit repeats one of the client's earlier submits.
const REPEAT_EVERY: usize = 4;
/// The client that sends the medium jobs, one in `MEDIUM_EVERY` of its
/// submits (at the even index `i % MEDIUM_EVERY == MEDIUM_EVERY - 2`,
/// never a repeat's). The other client sends small jobs and repeats
/// only, so about 2% of all submits are medium: the 99th percentile
/// falls among the medium jobs' latencies and `job_p99_ms` shows their
/// tail. One medium job at a time also keeps `peak_heap_mb` steady: when
/// both clients sent them, it swung with how their checkpoints overlapped.
const MEDIUM_CLIENT: usize = 0;
const MEDIUM_EVERY: usize = 6;

#[derive(Clone, Copy)]
enum Kind {
    Small(SmallVetted),
    Medium(Vetted),
    /// An exact repeat of this client's earlier submit at this index.
    Repeat(usize),
}

struct Submit {
    line: String,
    kind: Kind,
}

fn submit_line(machine: &str, program: &str, max_states: usize, reduce: bool) -> String {
    format!(
        "{{\"op\":\"submit\",\"machine\":\"{machine}\",\"program\":\"{}\",\"max_states\":{max_states},\"reduce\":{reduce}}}",
        escape(program)
    )
}

/// The text of every pool program, built once per set-up.
struct Texts {
    /// Index-aligned with `SMALL_POOL`.
    small: Vec<String>,
    /// Index-aligned with `MEDIUM_POOL`.
    medium: Vec<String>,
}

fn build_texts(spans: &mut Spans) -> Texts {
    Texts {
        small: SMALL_POOL.iter().map(|v| build_program(spans, || small_program(v)).1).collect(),
        medium: MEDIUM_POOL
            .iter()
            .map(|v| build_program(spans, || gen::race_free(v.gen_seed, MEDIUM)).1)
            .collect(),
    }
}

/// One client's submits, made as the client goes: a pure function of
/// the seed and the client, with no end.
struct Mix {
    client: usize,
    rng: SimRng,
    /// The medium pool index of the first medium job.
    medium_start: usize,
    made: Vec<Submit>,
    fresh: usize,
}

impl Mix {
    fn new(seed: u64, client: usize) -> Mix {
        let start = SimRng::new(seed).range(0..=MEDIUM_POOL.len() as u64 - 1) as usize;
        Mix {
            client,
            rng: SimRng::new(seed ^ 0x7365_7276_6500_0000 ^ client as u64),
            medium_start: start,
            made: Vec::new(),
            fresh: 0,
        }
    }

    /// Makes the client's next submit and returns its line.
    fn next(&mut self, texts: &Texts) -> &str {
        let i = self.made.len();
        let sub = if i % REPEAT_EVERY == 1 {
            let mut j = self.rng.range(0..=i as u64 - 1) as usize;
            if let Kind::Repeat(origin) = self.made[j].kind {
                j = origin;
            }
            Submit { line: self.made[j].line.clone(), kind: Kind::Repeat(j) }
        } else {
            let max_states = MAX_STATES + i * CLIENTS + self.client;
            let n = self.fresh;
            self.fresh += 1;
            if self.client == MEDIUM_CLIENT && i % MEDIUM_EVERY == MEDIUM_EVERY - 2 {
                // Through the pool in turn; the distinct `max_states`
                // keeps a second pass from hitting the cache.
                let k = (self.medium_start + i / MEDIUM_EVERY) % MEDIUM_POOL.len();
                Submit {
                    line: submit_line("wo-def2", &texts.medium[k], max_states, false),
                    kind: Kind::Medium(MEDIUM_POOL[k]),
                }
            } else {
                // Machines in turn (as `serve_loadgen` cycles its mix),
                // race-free and racy programs alternating per round.
                let machine = MACHINES[n % MACHINES.len()];
                let racy = (n / MACHINES.len()) % 2 == 1;
                let group: Vec<usize> = (0..SMALL_POOL.len())
                    .filter(|&k| SMALL_POOL[k].machine == machine && SMALL_POOL[k].racy == racy)
                    .collect();
                let k = group[self.rng.range(0..=group.len() as u64 - 1) as usize];
                Submit {
                    line: submit_line(machine, &texts.small[k], max_states, small_reduce(machine)),
                    kind: Kind::Small(SMALL_POOL[k]),
                }
            }
        };
        self.made.push(sub);
        &self.made[i].line
    }
}

/// Unreduced cache-delay jobs reach 10⁵ states: small jobs on it use the
/// reduction, the others explore fully.
fn small_reduce(machine: &str) -> bool {
    machine == "cache-delay"
}

fn small_program(v: &SmallVetted) -> weakord_progs::Program {
    let generate = if v.racy { gen::racy } else { gen::race_free };
    generate(v.gen_seed, SHAPES[v.shape])
}

/// A fresh, empty directory under the benchmark's own `tmp/`.
fn fresh_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let dir = scratch_dir("tmp").join(format!("{tag}-{}-{nanos}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create a temp state dir");
    dir.canonicalize().expect("canonical temp dir")
}

fn start_daemon(state_dir: &Path) -> Server {
    let cfg = ServeConfig { state_dir: state_dir.to_path_buf(), ..ServeConfig::default() };
    Server::start(cfg).expect("the daemon starts")
}

/// One answered submit.
struct Answer {
    client: usize,
    index: usize,
    secs: f64,
    kind: SubmitKind,
    /// The embedded result object of a `done` reply.
    result: String,
}

/// Drives the closed loop until `seconds` pass or each client has made
/// `cap` submits, calling `idle` with the seconds elapsed every few
/// milliseconds on this thread meanwhile. Returns each client's
/// submits, the answers and the wall time.
fn drive(
    server: &Server,
    texts: &Texts,
    seed: u64,
    seconds: f64,
    cap: usize,
    mut idle: impl FnMut(f64),
) -> (Vec<Vec<Submit>>, Vec<Answer>, f64) {
    let addr = server.addr();
    let t0 = Instant::now();
    let (lists, answers): (Vec<_>, Vec<_>) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                s.spawn(move || {
                    let mut conn = Client::connect(addr).expect("client connects");
                    let mut mix = Mix::new(seed, client);
                    let mut out = Vec::new();
                    for index in 0..cap {
                        if t0.elapsed().as_secs_f64() >= seconds {
                            break;
                        }
                        let line = mix.next(texts);
                        let t = Instant::now();
                        let reply = conn.submit(line).expect("submit round-trips");
                        let secs = t.elapsed().as_secs_f64();
                        let result = reply
                            .line
                            .split_once("\"result\":")
                            .and_then(|(_, r)| r.strip_suffix('}'))
                            .unwrap_or("")
                            .to_string();
                        out.push(Answer { client, index, secs, kind: reply.kind, result });
                    }
                    (mix.made, out)
                })
            })
            .collect::<Vec<_>>();
        while !handles.iter().all(|h| h.is_finished()) {
            idle(t0.elapsed().as_secs_f64());
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        handles.into_iter().map(|h| h.join().expect("client thread")).unzip()
    });
    (lists, answers.into_iter().flatten().collect(), t0.elapsed().as_secs_f64())
}

fn spec_of(line: &str) -> JobSpec {
    match parse_request(line) {
        Ok(Request::Submit { spec, .. }) => spec,
        other => panic!("a generated submit line parses as a submit: {other:?}"),
    }
}

/// An in-process `run_attempt` of `spec`.
fn attempt(spec: &JobSpec, ckpt_root: &Path, vfs: &Arc<dyn Vfs>) -> Exploration {
    let (prog, id) = job_identity(spec, 1).expect("identity");
    run_attempt(
        spec,
        &prog,
        &ckpt_root.join(&id),
        0,
        1,
        &CancelToken::new(),
        &ProgressSink::new(),
        vfs,
    )
    .expect("in-process attempt")
}

/// Checks a medium job's result against its vetted digest.
fn check_medium(sub: &Submit, v: &Vetted, result: &str) -> Option<String> {
    let (_, id) = job_identity(&spec_of(&sub.line), 1).expect("identity");
    let Ok(j) = json::parse(result) else {
        return Some(format!("medium gen seed {}: unparsable result {result}", v.gen_seed));
    };
    let num = |k: &str| j.get(k).and_then(Json::as_num).map_or(usize::MAX, |n| n as usize);
    let outcomes: Vec<&str> = j
        .get("outcomes")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_str)
        .collect();
    let digest = result_digest(num("states"), num("deadlocks"), outcomes.iter().copied());
    let ok = j.get("id").and_then(Json::as_str) == Some(id.as_str())
        && matches!(j.get("truncated"), Some(Json::Null))
        && num("states") == v.states
        && digest == v.digest;
    (!ok).then(|| {
        format!("medium gen seed {}: result {result} does not match its digest", v.gen_seed)
    })
}

/// Checks every answer: `done`, repeats cached and identical to their
/// first answer, small results byte-identical to `result_line` of an
/// in-process `run_attempt` and at their vetted state count, medium
/// results matching their vetted digest. Fresh submits of one pool
/// program differ only in `max_states`, which leaves an untruncated
/// exploration unchanged, so each program is explored once.
fn check_all(report: &mut Report, lists: &[Vec<Submit>], answers: &[Answer]) -> usize {
    let vfs: Arc<dyn Vfs> = Arc::new(RealVfs::new());
    let ckpt_root = fresh_dir("oracle");
    let mut oracle: HashMap<(&str, bool, u64), Exploration> = HashMap::new();
    let mut first: HashMap<(usize, usize), &str> = HashMap::new();
    for a in answers {
        first.insert((a.client, a.index), &a.result);
    }
    let mut explored_states = 0usize;
    for a in answers {
        let sub = &lists[a.client][a.index];
        let problem = match (&a.kind, sub.kind) {
            (SubmitKind::Done { cached }, Kind::Repeat(origin)) => {
                let want = first.get(&(a.client, origin)).copied();
                (!*cached || want != Some(a.result.as_str()))
                    .then(|| format!("repeat of #{origin} was not an identical cache hit"))
            }
            (SubmitKind::Done { cached }, kind) => {
                if !cached {
                    explored_states += json::parse(&a.result)
                        .ok()
                        .and_then(|j| j.get("states").and_then(Json::as_num))
                        .map_or(0, |n| n as usize);
                }
                match kind {
                    Kind::Medium(v) => check_medium(sub, &v, &a.result),
                    Kind::Small(v) => {
                        let spec = spec_of(&sub.line);
                        let ex = oracle
                            .entry((v.machine, v.racy, v.gen_seed))
                            .or_insert_with(|| attempt(&spec, &ckpt_root, &vfs));
                        let (_, id) = job_identity(&spec, 1).expect("identity");
                        let want = result_line(&id, &spec, ex);
                        if ex.truncated() || ex.states != v.states {
                            Some(format!(
                                "{} gen seed {}: {} states, vetted {}",
                                v.machine, v.gen_seed, ex.states, v.states
                            ))
                        } else {
                            (want != a.result).then(|| {
                                format!("result {} differs from run_attempt's {want}", a.result)
                            })
                        }
                    }
                    Kind::Repeat(_) => unreachable!("repeats are matched above"),
                }
            }
            (other, _) => Some(format!("submit answered {other:?}")),
        };
        report.job(problem);
    }
    let _ = std::fs::remove_dir_all(&ckpt_root);
    explored_states
}

/// One set-up: the pool programs' texts and a started daemon on a
/// fresh state dir.
fn setup(spans: &mut Spans) -> (Texts, PathBuf, Server) {
    let texts = build_texts(spans);
    let dir = fresh_dir("state");
    let server = start_daemon(&dir);
    (texts, dir, server)
}

/// One set-up, its time appended to `times`.
fn timed_setup(times: &mut Vec<f64>) -> (Texts, PathBuf, Server) {
    let t = Instant::now();
    let ready = setup(&mut Spans::new(false));
    times.push(t.elapsed().as_secs_f64());
    ready
}

fn teardown(dir: PathBuf, server: Server) {
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

pub fn run(args: &Args) -> Report {
    if args.trace {
        return traced(args);
    }
    let mut report = Report::default();
    // `setup_s`: the median of `SETUP_REPS` set-ups. The first serves
    // the run; the others run on this thread spread over the measured
    // phase (a shared host's speed drifts over seconds), while the
    // clients run on theirs.
    let mut times = Vec::new();
    let (texts, dir, server) = timed_setup(&mut times);
    eprintln!("daemon state dir: {}", dir.display());
    heap_window_start();
    let every = args.seconds / SETUP_REPS as f64;
    let (lists, answers, wall) =
        drive(&server, &texts, args.seed, args.seconds, usize::MAX, |elapsed| {
            if times.len() < SETUP_REPS && elapsed >= times.len() as f64 * every {
                let (_, d, s) = timed_setup(&mut times);
                teardown(d, s);
            }
        });
    let peak = heap_peak_mb();
    teardown(dir, server);
    while times.len() < SETUP_REPS {
        let (_, d, s) = timed_setup(&mut times);
        teardown(d, s);
    }
    let lat: Vec<f64> = answers.iter().map(|a| a.secs).collect();
    let explored = check_all(&mut report, &lists, &answers);
    let cached = answers.iter().filter(|a| a.kind == SubmitKind::Done { cached: true }).count();
    let medium =
        answers.iter().filter(|a| matches!(lists[a.client][a.index].kind, Kind::Medium(_))).count();
    eprintln!(
        "{} submits in {wall:.3} s ({cached} cached, {medium} medium; latency samples: {})",
        answers.len(),
        lat.len()
    );
    for (name, pick) in [
        ("small", (|k: &Kind| matches!(k, Kind::Small(_))) as fn(&Kind) -> bool),
        ("medium", |k| matches!(k, Kind::Medium(_))),
        ("repeat", |k| matches!(k, Kind::Repeat(_))),
    ] {
        let ms: Vec<f64> = answers
            .iter()
            .filter(|a| pick(&lists[a.client][a.index].kind))
            .map(|a| 1e3 * a.secs)
            .collect();
        if !ms.is_empty() {
            eprintln!(
                "  {name:<6} {:>5} submits: p50 {:.3} ms, p99 {:.3} ms",
                ms.len(),
                median(&ms),
                percentile(&ms, 99.0)
            );
        }
    }
    report.end_to_end(median(&times), peak, &lat, wall, explored as f64);
    report
}

/// In-process replay of the answered submits, in each client's order.
/// Returns per-answer replayed phase time (ns; 0 when untraced) and the
/// per-write `write_atomic` samples (ms).
fn replay(
    lists: &[Vec<Submit>],
    answers: &[Answer],
    spans: &mut Spans,
    report: &mut Report,
) -> (HashMap<(usize, usize), u64>, Vec<f64>) {
    let dir = fresh_dir("replay");
    let vfs: Arc<dyn Vfs> = Arc::new(RealVfs::new());
    let mut phases = HashMap::new();
    let mut writes = Vec::new();
    let mut order: Vec<&Answer> = answers.iter().collect();
    order.sort_by_key(|a| (a.client, a.index));
    spans.enter("bench.replay");
    for a in order {
        let sub = &lists[a.client][a.index];
        let t0 = spans.now();
        let spec = match spans.time("serve.protocol.parse_request", || parse_request(&sub.line)) {
            Ok(Request::Submit { spec, .. }) => spec,
            other => panic!("a generated submit line parses as a submit: {other:?}"),
        };
        let (prog, id) =
            spans.time("serve.job.identity", || job_identity(&spec, 1)).expect("identity");
        if !matches!(sub.kind, Kind::Repeat(_)) {
            let mut write = |spans: &mut Spans, path: PathBuf, bytes: &[u8]| {
                let t = spans.now();
                vfs.write_atomic(&path, bytes).expect("durable write");
                let end = spans.now();
                spans.leaf("serve.store.write_atomic", t, end);
                writes.push((end - t) as f64 / 1e6);
            };
            write(
                spans,
                dir.join("jobs").join(format!("{id}.json")),
                spec.to_json_line().as_bytes(),
            );
            let ex = spans
                .time("serve.job.run_attempt", || {
                    run_attempt(
                        &spec,
                        &prog,
                        &dir.join("ckpt").join(&id),
                        ServeConfig::default().ckpt_every,
                        1,
                        &CancelToken::new(),
                        &ProgressSink::new(),
                        &vfs,
                    )
                })
                .expect("in-process attempt");
            let line = spans.time("serve.job.result_line", || result_line(&id, &spec, &ex));
            write(spans, dir.join("results").join(format!("{id}.json")), line.as_bytes());
            report.check(line == a.result, || format!("replayed {line} differs from the daemon's"));
        }
        phases.insert((a.client, a.index), spans.now() - t0);
    }
    spans.exit();
    let _ = std::fs::remove_dir_all(&dir);
    (phases, writes)
}

/// `key=value` lines of the daemon's `metrics` op.
fn daemon_metrics(server: &Server) -> HashMap<String, f64> {
    let mut c = Client::connect(server.addr()).expect("client connects");
    let reply = c.request("{\"op\":\"metrics\"}").expect("metrics op");
    let dump = json::parse(&reply)
        .ok()
        .and_then(|j| j.get("dump").and_then(Json::as_str).map(String::from))
        .unwrap_or_default();
    dump.lines()
        .filter_map(|l| l.split_once('='))
        .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
        .collect()
}

fn traced(args: &Args) -> Report {
    let mut report = Report::default();
    let mut spans = Spans::new(true);
    let (texts, dir, server) = setup(&mut spans);
    eprintln!("daemon state dir: {}", dir.display());
    let (lists, answers, _) =
        drive(&server, &texts, args.seed, f64::INFINITY, TRACED_SUBMITS_PER_CLIENT, |_| {});
    let m = daemon_metrics(&server);
    teardown(dir, server);
    report.check(answers.iter().all(|a| matches!(a.kind, SubmitKind::Done { .. })), || {
        "a submit of the traced run was not answered `done`".into()
    });
    // Remake the clients' submits: the mix is a function of the seed.
    for (client, list) in lists.iter().enumerate() {
        let mut mix = Mix::new(args.seed, client);
        for sub in list {
            let line = mix.next(&texts);
            report
                .check(line == sub.line, || format!("client {client}: the mix is not repeatable"));
        }
    }

    let t = Instant::now();
    replay(&lists, &answers, &mut Spans::new(false), &mut report);
    let untraced_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (phases, writes) = replay(&lists, &answers, &mut spans, &mut report);
    let traced_s = t.elapsed().as_secs_f64();
    report.attempted += answers.len() as u64;

    let residual: Vec<f64> =
        answers.iter().map(|a| 1e3 * a.secs - phases[&(a.client, a.index)] as f64 / 1e6).collect();
    let get = |k: &str| m.get(k).copied().unwrap_or(0.0);
    report.metric(
        "serve.protocol.parse_request_s",
        spans.self_s("serve.protocol.parse_request"),
        "s",
    );
    report.metric("serve.job.identity_s", spans.self_s("serve.job.identity"), "s");
    report.metric("serve.job.run_attempt_s", spans.self_s("serve.job.run_attempt"), "s");
    report.metric("serve.job.result_line_s", spans.self_s("serve.job.result_line"), "s");
    report.metric("serve.store.write_atomic_ms", median(&writes), "ms");
    report.metric("serve.store.writes", get("storage.writes"), "count");
    report.metric("serve.store.write_retries", get("storage.write_retries"), "count");
    report.metric(
        "serve.pool.cache_hit_ratio",
        get("serve.jobs.cache_hits") / answers.len() as f64,
        "ratio",
    );
    report.metric("serve.pool.shed", get("serve.jobs.shed"), "count");
    report.metric("serve.pool.residual_ms", median(&residual), "ms");
    report.metric("progs.gen_s", spans.self_s("progs.gen"), "s");
    report.metric("progs.unparse_s", spans.self_s("progs.unparse"), "s");
    report.metric("progs.parse_s", spans.self_s("progs.parse"), "s");
    finish_trace(&mut report, &spans, &args.workload, args.seed, traced_s, untraced_s);
    report
}

/// Prints `SMALL_POOL` entries: for every machine and both generators,
/// the first `per_group` generator seeds whose program in some shape of
/// `SHAPES` explores to a state count in `SMALL_BAND` as a small job.
pub fn vet_small(per_group: usize) {
    let vfs: Arc<dyn Vfs> = Arc::new(RealVfs::new());
    let root = fresh_dir("vet");
    for machine in MACHINES {
        for racy in [false, true] {
            let mut found = 0;
            for gen_seed in 0.. {
                let hit = (0..SHAPES.len()).find_map(|shape| {
                    let v = SmallVetted { machine, racy, gen_seed, shape, states: 0 };
                    let text = weakord_progs::unparse_program(&small_program(&v));
                    let line = submit_line(machine, &text, MAX_STATES, small_reduce(machine));
                    let ex = attempt(&spec_of(&line), &root, &vfs);
                    let fits =
                        !ex.truncated() && (SMALL_BAND.0..=SMALL_BAND.1).contains(&ex.states);
                    fits.then_some((shape, ex.states))
                });
                if let Some((shape, states)) = hit {
                    println!(
                        "    SmallVetted {{ machine: \"{machine}\", racy: {racy}, gen_seed: {gen_seed}, shape: {shape}, states: {states} }},"
                    );
                    found += 1;
                    if found == per_group {
                        break;
                    }
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
