//! The daemon: TCP accept loop, per-connection protocol driver, and
//! the durable state directory.
//!
//! ## State directory layout
//!
//! ```text
//! <state_dir>/
//!   jobs/<id>.json      accept journal — one line per accepted,
//!                       unfinished job (the recovery work-list)
//!   results/<id>.json   durable final result, timing-free, written
//!                       atomically (tmp + rename)
//!   ckpt/<id>/weakord.ckpt
//!                       the job's exploration checkpoint while it is
//!                       in flight
//! ```
//!
//! On startup the daemon replays `jobs/` minus `results/`: every
//! accepted-but-unfinished job is requeued (resuming from its
//! checkpoint when one exists), so a SIGKILL at any point loses no
//! accepted job and every replayed job produces the byte-identical
//! result file an uninterrupted run would have written.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::job;
use crate::pool::{Admission, Shared};
use crate::protocol::{error_line, parse_request, JobSpec, Request, MAX_LINE};
use crate::scrub;
use crate::store::{cleanup_file, RealVfs, Vfs};
use weakord_obs::json;

/// The `retry_after_ms` hint on a disk-full shed: long enough for an
/// operator (or a log rotation) to free space, short enough that
/// well-behaved clients re-probe promptly.
pub const DISK_FULL_RETRY_MS: u64 = 2_000;
/// The `retry_after_ms` hint on a queue-full shed: one backoff notch.
pub const QUEUE_FULL_RETRY_MS: u64 = 250;

/// Daemon configuration. `Default` is suitable for tests: loopback,
/// ephemeral port, and a temp-ish state dir the caller should replace.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::addr`]).
    pub addr: String,
    /// Durable state directory (journals, results, checkpoints).
    pub state_dir: PathBuf,
    /// Pool width: how many jobs run concurrently.
    pub workers: usize,
    /// Engine threads per job (a server resource, not a client knob).
    pub job_threads: usize,
    /// Bounded admission: queued jobs past this are shed explicitly.
    pub max_queue: usize,
    /// Checkpoint cadence in admitted states, per job.
    pub ckpt_every: usize,
    /// Attempt cap: a job that panics this many times is poisoned.
    pub retry_max: u32,
    /// First retry backoff; doubles per attempt.
    pub backoff_base_ms: u64,
    /// Honor the `test_panics`/`test_sleep_ms` fault-injection fields.
    pub test_hooks: bool,
    /// Cadence of `progress` lines on streaming submits, milliseconds.
    pub progress_every_ms: u64,
    /// Watchdog: a running job whose state count has not moved for this
    /// long gets its worker's flight ring dumped (`stall`), once per
    /// stall episode.
    pub stall_after_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            state_dir: PathBuf::from("weakord-serve-state"),
            workers: 2,
            job_threads: 1,
            max_queue: 64,
            ckpt_every: 10_000,
            retry_max: 3,
            backoff_base_ms: 10,
            test_hooks: false,
            progress_every_ms: 200,
            stall_after_ms: 30_000,
        }
    }
}

/// A running daemon. Dropping the handle does *not* stop it; call
/// [`Server::shutdown`] (or send the `shutdown` op) for a clean drain.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    watchdog: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Creates the state directory, scrubs it, recovers journaled
    /// jobs, binds the socket, and spawns the pool, the watchdog, and
    /// the accept loop. Durable IO goes through the real disk with
    /// the audited fsync discipline; use [`Server::start_with_vfs`]
    /// to substitute a fault-injected storage plane.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        Server::start_with_vfs(cfg, Arc::new(RealVfs::new()))
    }

    /// [`Server::start`] with an explicit storage plane — the seam the
    /// crash-point matrix uses to run the daemon on a `FaultVfs`.
    pub fn start_with_vfs(cfg: ServeConfig, vfs: Arc<dyn Vfs>) -> std::io::Result<Server> {
        for sub in ["jobs", "results", "ckpt"] {
            vfs.create_dir_all(&cfg.state_dir.join(sub))?;
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared::new(cfg, vfs));
        // Scrub before recovery: corrupt artifacts move to quarantine
        // with a structured report, so recovery only ever sees intact
        // journals and results.
        let report = scrub::scrub(&*shared.vfs, &shared.cfg.state_dir)?;
        {
            let mut m = shared.metrics.lock().unwrap();
            m.counter("storage.scrub.examined", report.examined as u64);
            m.counter("storage.scrub.ok", report.ok as u64);
            m.counter("storage.scrub.quarantined", report.quarantined() as u64);
        }
        recover(&shared);
        let handles = (0..workers)
            .map(|i| {
                let s = shared.clone();
                std::thread::spawn(move || s.worker_loop(i))
            })
            .collect();
        let watchdog = {
            let s = shared.clone();
            std::thread::spawn(move || watchdog_loop(&s))
        };
        let acceptor = {
            let s = shared.clone();
            std::thread::spawn(move || accept_loop(&listener, &s))
        };
        Ok(Server {
            addr,
            shared,
            workers: handles,
            acceptor: Some(acceptor),
            watchdog: Some(watchdog),
        })
    }

    /// The actual bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a client sends the `shutdown` op, then drains.
    pub fn wait(mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        self.drain();
    }

    /// Initiates and completes a drain: running jobs suspend at their
    /// next safepoint (checkpoints + journals stay for the next life),
    /// queued jobs are resolved as `shutdown`, workers join.
    pub fn shutdown(mut self) {
        self.shared.begin_shutdown();
        // Unblock the acceptor with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        self.drain();
    }

    fn drain(&mut self) {
        self.shared.begin_shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
        self.shared.resolve_stranded();
    }
}

/// The stall watchdog: samples every running job's progress counters a
/// few times a second, folds the sample into the owning worker's flight
/// ring (so a later crash dump shows the trajectory, not just
/// lifecycle edges), and dumps the ring once per stall episode when a
/// job's state count stops moving for `stall_after_ms`.
fn watchdog_loop(shared: &Arc<Shared>) {
    struct StallTrack {
        states: u64,
        since: Instant,
        dumped: bool,
    }
    let stall_after = Duration::from_millis(shared.cfg.stall_after_ms);
    // Sample well inside the stall window (tests shrink it to tens of
    // milliseconds), but never busier than 10ms or lazier than 100ms.
    let tick = Duration::from_millis((shared.cfg.stall_after_ms / 4).clamp(10, 100));
    let mut tracks: HashMap<String, StallTrack> = HashMap::new();
    while !shared.shutdown.load(std::sync::atomic::Ordering::SeqCst) {
        let running = shared.running_monitors();
        let mut seen: Vec<&str> = Vec::with_capacity(running.len());
        for (id, m) in &running {
            let p = m.progress.sample();
            shared.flight.record(
                m.worker,
                "progress",
                [
                    ("states", i64::try_from(p.states).unwrap_or(i64::MAX)),
                    ("frontier", i64::try_from(p.frontier).unwrap_or(i64::MAX)),
                ],
            );
            let now = Instant::now();
            let t = tracks.entry(id.clone()).or_insert(StallTrack {
                states: p.states,
                since: now,
                dumped: false,
            });
            if p.states != t.states {
                t.states = p.states;
                t.since = now;
                t.dumped = false;
            } else if !t.dumped && now.duration_since(t.since) >= stall_after {
                shared.flight.record(m.worker, "stall", [("", 0), ("", 0)]);
                shared.dump_flight(m.worker, id, "stall");
                shared.metrics.lock().unwrap().counter("serve.jobs.stalled", 1);
                t.dumped = true;
            }
        }
        for (id, _) in &running {
            seen.push(id);
        }
        tracks.retain(|id, _| seen.contains(&id.as_str()));
        std::thread::sleep(tick);
    }
}

/// Requeues every journaled job that has no durable result yet, in
/// filename order (deterministic recovery). The startup scrub has
/// already quarantined corrupt journals; anything that *still* fails
/// to validate here (a journal torn between scrub and recovery, a
/// tampered file) goes to the same quarantine — monotonically
/// suffixed, never clobbering earlier evidence the way the old
/// `.corrupt` rename did.
fn recover(shared: &Arc<Shared>) {
    let jobs_dir = shared.cfg.state_dir.join("jobs");
    let entries: Vec<PathBuf> = shared.vfs.read_dir_sorted(&jobs_dir).unwrap_or_default();
    let quarantine_journal =
        |path: &PathBuf| match scrub::quarantine(&*shared.vfs, &shared.cfg.state_dir, path) {
            Ok(_) => shared.metrics.lock().unwrap().counter("storage.recover.quarantined", 1),
            Err(_) => shared.vfs.stats().note_cleanup_error(),
        };
    for path in entries {
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()).map(String::from) else {
            continue;
        };
        if shared.vfs.exists(&shared.result_path(&stem)) {
            cleanup_file(&*shared.vfs, &path);
            continue;
        }
        let Ok(text) = shared.vfs.read_to_string(&path) else {
            quarantine_journal(&path);
            continue;
        };
        let spec = match json::parse(&text).and_then(|v| JobSpec::from_json(&v, false)) {
            Ok(s) => s,
            Err(_) => {
                quarantine_journal(&path);
                continue;
            }
        };
        match job::job_identity(&spec, shared.cfg.job_threads) {
            Ok((prog, id)) if id == stem => shared.requeue_recovered(id, spec, prog),
            _ => quarantine_journal(&path),
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(std::sync::atomic::Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let s = shared.clone();
        std::thread::spawn(move || {
            let _ = handle_conn(stream, &s);
        });
    }
}

/// One bounded request line, or why there isn't one.
enum Line {
    Eof,
    Text(String),
    Overlong,
    Binary,
}

/// Reads one newline-terminated line of at most [`MAX_LINE`] bytes.
/// Overlong lines are drained to the next newline so the connection
/// can resynchronize after the error reply.
fn read_line(reader: &mut BufReader<TcpStream>) -> std::io::Result<Line> {
    let mut buf = Vec::new();
    let n = reader.by_ref().take(MAX_LINE as u64 + 1).read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(Line::Eof);
    }
    if buf.len() > MAX_LINE {
        // Drain the remainder of the oversized line.
        let mut sink = Vec::new();
        while !buf.ends_with(b"\n") {
            sink.clear();
            let n = reader.by_ref().take(MAX_LINE as u64).read_until(b'\n', &mut sink)?;
            if n == 0 {
                break;
            }
            buf = sink.clone();
        }
        return Ok(Line::Overlong);
    }
    match String::from_utf8(buf) {
        Ok(s) => Ok(Line::Text(s)),
        Err(_) => Ok(Line::Binary),
    }
}

fn handle_conn(stream: TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        let line = match read_line(&mut reader)? {
            Line::Eof => return Ok(()),
            Line::Overlong => {
                shared.metrics.lock().unwrap().counter("serve.proto.errors", 1);
                writeln!(
                    writer,
                    "{}",
                    error_line("overlong", &format!("request line exceeds {MAX_LINE} bytes"))
                )?;
                continue;
            }
            Line::Binary => {
                shared.metrics.lock().unwrap().counter("serve.proto.errors", 1);
                writeln!(writer, "{}", error_line("bad-request", "request is not UTF-8"))?;
                continue;
            }
            Line::Text(s) => s,
        };
        match parse_request(&line) {
            Err(msg) => {
                shared.metrics.lock().unwrap().counter("serve.proto.errors", 1);
                writeln!(writer, "{}", error_line("bad-request", &msg))?;
            }
            Ok(Request::Ping) => writeln!(writer, "{{\"event\":\"pong\"}}")?,
            Ok(Request::Status) => writeln!(writer, "{}", status_line(shared))?,
            Ok(Request::Metrics) => writeln!(writer, "{}", metrics_line(shared))?,
            Ok(Request::Cancel(id)) => match shared.cancel(&id) {
                Some(what) => writeln!(
                    writer,
                    "{{\"event\":\"ok\",\"id\":\"{}\",\"detail\":\"{}\"}}",
                    json::escape(&id),
                    what
                )?,
                None => writeln!(
                    writer,
                    "{}",
                    error_line("unknown-job", &format!("no job with id `{id}`"))
                )?,
            },
            Ok(Request::Shutdown) => {
                writeln!(writer, "{{\"event\":\"ok\",\"detail\":\"draining\"}}")?;
                shared.begin_shutdown();
                // An accepted socket's local address *is* the listening
                // address — one no-op connect unblocks the acceptor so
                // `Server::wait` can return.
                if let Ok(addr) = writer.local_addr() {
                    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
                }
                return Ok(());
            }
            Ok(Request::Submit { spec, stream }) => {
                handle_submit(&mut writer, shared, spec, stream)?;
            }
        }
    }
}

fn handle_submit(
    writer: &mut TcpStream,
    shared: &Arc<Shared>,
    spec: JobSpec,
    stream: bool,
) -> std::io::Result<()> {
    if (spec.test_panics > 0 || spec.test_sleep_ms > 0) && !shared.cfg.test_hooks {
        writeln!(
            writer,
            "{}",
            error_line("bad-request", "test hooks are disabled on this daemon (--test-hooks)")
        )?;
        return Ok(());
    }
    let (prog, id) = match job::job_identity(&spec, shared.cfg.job_threads) {
        Ok(v) => v,
        Err(msg) => {
            writeln!(writer, "{}", error_line("bad-request", &msg))?;
            return Ok(());
        }
    };
    match shared.admit(&id, &spec, &prog) {
        Admission::Cached(line) => {
            writeln!(writer, "{{\"event\":\"done\",\"cached\":true,\"result\":{line}}}")
        }
        Admission::Shed { depth } => writeln!(
            writer,
            "{{\"event\":\"shed\",\"id\":\"{id}\",\"reason\":\"queue-full\",\"queue_depth\":{depth},\"retry_after_ms\":{QUEUE_FULL_RETRY_MS},\"error\":\"admission queue is full; retry with backoff\"}}"
        ),
        Admission::DiskFull => writeln!(
            writer,
            "{{\"event\":\"shed\",\"id\":\"{id}\",\"reason\":\"disk-full\",\"queue_depth\":{},\"retry_after_ms\":{DISK_FULL_RETRY_MS},\"error\":\"state volume is full; the job was not accepted — retry after freeing space\"}}",
            shared.queue_depth()
        ),
        Admission::Refused => {
            writeln!(writer, "{}", error_line("shutting-down", "daemon is draining"))
        }
        Admission::JournalError(e) => {
            writeln!(writer, "{}", error_line("journal-error", &e))
        }
        joined_or_accepted => {
            let joined = matches!(joined_or_accepted, Admission::Joined);
            let depth = match joined_or_accepted {
                Admission::Accepted { depth } => depth,
                _ => shared.queue_depth(),
            };
            writeln!(
                writer,
                "{{\"event\":\"accepted\",\"id\":\"{id}\",\"joined\":{joined},\"queue_depth\":{depth}}}"
            )?;
            writer.flush()?;
            let line = if stream {
                stream_until_done(writer, shared, &id)?
            } else {
                shared.wait_done(&id)
            };
            writeln!(writer, "{{\"event\":\"done\",\"cached\":false,\"result\":{line}}}")
        }
    }
}

/// Counter floor carried across one connection's progress lines, so the
/// stream a client sees is monotone even when the daemon retries a
/// panicked attempt from scratch underneath it.
#[derive(Default)]
struct StreamFloor {
    attempt: u64,
    states: u64,
    dedup_hits: u64,
    pruned_arcs: u64,
}

/// Raises `floor` to `v` if needed and returns the clamped value.
fn bump(floor: &mut u64, v: u64) -> u64 {
    *floor = (*floor).max(v);
    *floor
}

/// The streaming leg of a submit: between `accepted` and `done`, emit
/// one `progress` line per `progress_every_ms` until the job settles.
/// Purely observational — a slow or vanished reader errors out of this
/// connection's thread and the job runs on for every other submitter.
fn stream_until_done(
    writer: &mut TcpStream,
    shared: &Arc<Shared>,
    id: &str,
) -> std::io::Result<Arc<str>> {
    let every = Duration::from_millis(shared.cfg.progress_every_ms.max(1));
    let accepted_at = Instant::now();
    let mut floor = StreamFloor::default();
    let mut seq = 0u64;
    loop {
        if let Some(line) = shared.wait_done_for(id, every) {
            return Ok(line);
        }
        seq += 1;
        let (phase, attempt, p) = match shared.monitor(id) {
            Some(m) => ("running", u64::from(m.attempt), m.progress.sample()),
            None => ("queued", 0, Default::default()),
        };
        let attempt = bump(&mut floor.attempt, attempt);
        let states = bump(&mut floor.states, p.states);
        let dedup_hits = bump(&mut floor.dedup_hits, p.dedup_hits);
        let pruned_arcs = bump(&mut floor.pruned_arcs, p.pruned_arcs);
        let elapsed_ms = u64::try_from(accepted_at.elapsed().as_millis()).unwrap_or(u64::MAX);
        writeln!(
            writer,
            "{{\"event\":\"progress\",\"id\":\"{id}\",\"seq\":{seq},\"phase\":\"{phase}\",\"attempt\":{attempt},\"states\":{states},\"frontier\":{},\"dedup_hits\":{dedup_hits},\"pruned_arcs\":{pruned_arcs},\"states_per_sec\":{:.1},\"table_occupancy\":{:.4},\"elapsed_ms\":{elapsed_ms}}}",
            p.frontier,
            p.states_per_sec(),
            p.table_occupancy(),
        )?;
        writer.flush()?;
    }
}

/// The `status` reply: daemon gauges (queue, running, uptime), all
/// counters, the latency histogram's quantile summary, and one row per
/// known job (id-sorted, so the listing is deterministic).
fn status_line(shared: &Arc<Shared>) -> String {
    let (p50, p95, p99, count, mean) = {
        let h = shared.latency.lock().unwrap();
        let (p50, p95, p99) = h.quantile_summary();
        (p50, p95, p99, h.count(), h.mean())
    };
    let counters: String = {
        let mut m = shared.metrics.lock().unwrap().clone();
        shared.vfs.stats().export_into(&mut m);
        m.counters()
            .map(|(k, v)| format!("\"{}\":{v}", json::escape(k)))
            .collect::<Vec<_>>()
            .join(",")
    };
    let stats = shared.vfs.stats();
    let storage = format!(
        "{{\"disk_full\":{},\"ckpt_ram_only\":{},\"cleanup_errors\":{}}}",
        stats.disk_full.load(std::sync::atomic::Ordering::Relaxed),
        stats.ckpt_ram_only.load(std::sync::atomic::Ordering::Relaxed),
        stats.cleanup_errors.load(std::sync::atomic::Ordering::Relaxed),
    );
    let jobs: String = shared
        .jobs_overview()
        .iter()
        .map(|r| {
            format!(
                "{{\"id\":\"{}\",\"phase\":\"{}\",\"states\":{},\"elapsed_ms\":{}}}",
                json::escape(&r.id),
                r.phase,
                r.states,
                r.elapsed_ms
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let uptime_ms = u64::try_from(shared.started.elapsed().as_millis()).unwrap_or(u64::MAX);
    format!(
        "{{\"event\":\"status\",\"queue_depth\":{},\"running\":{},\"uptime_ms\":{uptime_ms},\"storage\":{storage},\"counters\":{{{counters}}},\"latency_us\":{{\"count\":{count},\"mean\":{mean:.1},\"p50\":{p50},\"p95\":{p95},\"p99\":{p99}}},\"jobs\":[{jobs}]}}",
        shared.queue_depth(),
        shared.running_count(),
    )
}

/// The `metrics` reply: the full [`weakord_obs::MetricsRegistry`]
/// snapshot — every counter, the latency distribution folded in as
/// `serve.latency_us.*`, and point-in-time daemon gauges — rendered as
/// the registry's sorted `key=value` text exposition and shipped inside
/// one JSON line (the protocol's one-line-per-reply invariant).
fn metrics_line(shared: &Arc<Shared>) -> String {
    let mut reg = shared.metrics.lock().unwrap().clone();
    shared.latency.lock().unwrap().export_metrics("serve.latency_us", &mut reg);
    shared.vfs.stats().export_into(&mut reg);
    reg.gauge("serve.queue_depth", shared.queue_depth() as f64);
    reg.gauge("serve.running", shared.running_count() as f64);
    reg.gauge("serve.uptime_ms", shared.started.elapsed().as_millis() as f64);
    format!(
        "{{\"event\":\"metrics\",\"format\":\"kv\",\"dump\":\"{}\"}}",
        json::escape(&reg.dump())
    )
}

/// Runs the daemon in the foreground until a client sends `shutdown`
/// — the `weakord serve` entry point. Prints the bound address to
/// stdout (load generators and CI read it to find an ephemeral port).
pub fn run(cfg: ServeConfig) -> std::io::Result<()> {
    run_with_vfs(cfg, Arc::new(RealVfs::new()))
}

/// [`run`] on an explicit storage plane — how `weakord serve` with
/// `--store-fault-*` flags drives a whole daemon process on a
/// [`crate::store::FaultVfs`] for the CI crash-point grid.
pub fn run_with_vfs(cfg: ServeConfig, vfs: Arc<dyn Vfs>) -> std::io::Result<()> {
    let server = Server::start_with_vfs(cfg, vfs)?;
    println!("listening {}", server.addr());
    // Make the address durable too, so sibling processes (CI) can
    // find a daemon that was started with port 0.
    let addr_file = server.shared.cfg.state_dir.join("addr");
    server.shared.vfs.write_atomic(&addr_file, server.addr().to_string().as_bytes())?;
    server.wait();
    Ok(())
}
