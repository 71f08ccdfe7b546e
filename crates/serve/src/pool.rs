//! The shared job pool: bounded admission, retry with backoff, poison
//! pills, and durable finalization.
//!
//! ## Job lifecycle
//!
//! ```text
//!             submit
//!               │
//!      ┌── cache hit? ──► done (cached)
//!      │
//!      ├── already queued/running? ──► join the in-flight job
//!      │
//!      ├── queue full? ──► SHED (explicit structured rejection)
//!      │
//!      ▼
//!   journal to jobs/<id>.json  (durable accept — survives SIGKILL)
//!      │
//!      ▼
//!   queued ──► running ──┬─► complete ─► results/<id>.json, journal
//!      ▲                 │              and checkpoint removed
//!      │                 ├─► deadline/cancel ─► reported, journal kept
//!      │     (backoff)   │                      only if resumable
//!      └───── retry ◄────┴─► panic
//!                │
//!                └─ attempts ≥ cap ─► poisoned (durable, explicit)
//! ```
//!
//! Every transition out of `running` notifies all waiting connections;
//! nothing is ever dropped silently — a job that cannot run *tells*
//! its submitters why.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::flight::FlightRecorder;
use crate::job;
use crate::protocol::JobSpec;
use crate::server::ServeConfig;
use crate::store::{cleanup_dir, cleanup_file, is_disk_full, write_with_retry, Vfs};
use weakord_mc::{CancelToken, Exploration, ProgressSink, TruncationReason};
use weakord_obs::{Histogram, MetricsRegistry};
use weakord_progs::Program;

/// The live view of one running job, shared between the worker driving
/// it and every connection streaming or listing it. Observation only:
/// nothing here feeds back into the exploration except `cancel`.
pub(crate) struct JobMonitor {
    /// Cancels the exploration at its next safepoint.
    pub cancel: CancelToken,
    /// The engine's live progress counters.
    pub progress: ProgressSink,
    /// When this attempt went on a worker.
    pub started: Instant,
    /// 1-based attempt number (> 1 after panic retries).
    pub attempt: u32,
    /// Which pool worker is running it (the flight-ring index).
    pub worker: usize,
}

/// Where a job stands, from a connection's point of view.
#[derive(Clone)]
pub(crate) enum JobState {
    /// Waiting in the ready or retry queue.
    Queued,
    /// On a worker; the monitor carries the cancel token and the live
    /// progress counters.
    Running(Arc<JobMonitor>),
    /// Finished, one way or another: the final reply line, whether
    /// future submissions may reuse it from the cache, and the closing
    /// progress numbers for the status listing.
    Done { line: Arc<str>, cacheable: bool, states: u64, elapsed_ms: u64 },
}

/// One row of the `status` per-job listing.
pub(crate) struct JobRow {
    pub id: String,
    pub phase: &'static str,
    pub states: u64,
    pub elapsed_ms: u64,
}

/// One queued attempt.
struct QueuedJob {
    id: String,
    spec: JobSpec,
    prog: Program,
    attempt: u32,
}

/// A panicked job waiting out its backoff.
struct RetryJob {
    ready_at: Instant,
    job: QueuedJob,
}

#[derive(Default)]
struct QueueState {
    ready: VecDeque<QueuedJob>,
    retry: Vec<RetryJob>,
}

impl QueueState {
    fn depth(&self) -> usize {
        self.ready.len() + self.retry.len()
    }
}

/// State shared by the acceptor, every connection, and every worker.
pub(crate) struct Shared {
    pub cfg: ServeConfig,
    queue: Mutex<QueueState>,
    work_cv: Condvar,
    jobs: Mutex<HashMap<String, JobState>>,
    done_cv: Condvar,
    pub metrics: Mutex<MetricsRegistry>,
    pub latency: Mutex<Histogram>,
    pub shutdown: AtomicBool,
    /// Per-worker crash flight recorder (see [`crate::flight`]).
    pub flight: FlightRecorder,
    /// Daemon start, for the uptime gauge.
    pub started: Instant,
    /// The storage plane every durable byte goes through (see
    /// [`crate::store`]); real disk in production, fault-injected in
    /// the crash-point matrix.
    pub vfs: Arc<dyn Vfs>,
}

/// What admission decided for one submit.
pub(crate) enum Admission {
    /// Served from the outcome-set cache; here is the stored line.
    Cached(Arc<str>),
    /// An identical job is already in flight; wait alongside it.
    Joined,
    /// Journaled and queued.
    Accepted {
        /// Queue depth right after the push (for the accepted event).
        depth: usize,
    },
    /// Load shed: the bounded queue is full.
    Shed {
        /// Depth at rejection time.
        depth: usize,
    },
    /// The daemon is draining for shutdown.
    Refused,
    /// The state volume is full: the accept-path journal write hit
    /// ENOSPC, so the job was NOT accepted. Rendered as an explicit
    /// shed with a `retry_after_ms` hint — never a silent drop.
    DiskFull,
    /// Journaling failed (non-ENOSPC); the job was NOT accepted.
    JournalError(String),
}

impl Shared {
    pub fn new(cfg: ServeConfig, vfs: Arc<dyn Vfs>) -> Shared {
        let flight = FlightRecorder::new(cfg.workers.max(1), &cfg.state_dir, vfs.clone());
        Shared {
            cfg,
            queue: Mutex::new(QueueState::default()),
            work_cv: Condvar::new(),
            jobs: Mutex::new(HashMap::new()),
            done_cv: Condvar::new(),
            metrics: Mutex::new(MetricsRegistry::new()),
            latency: Mutex::new(Histogram::new()),
            shutdown: AtomicBool::new(false),
            flight,
            started: Instant::now(),
            vfs,
        }
    }

    fn journal_path(&self, id: &str) -> PathBuf {
        self.cfg.state_dir.join("jobs").join(format!("{id}.json"))
    }

    pub fn result_path(&self, id: &str) -> PathBuf {
        self.cfg.state_dir.join("results").join(format!("{id}.json"))
    }

    fn ckpt_dir(&self, id: &str) -> PathBuf {
        self.cfg.state_dir.join("ckpt").join(id)
    }

    fn count(&self, key: &str) {
        self.metrics.lock().unwrap().counter(key, 1);
    }

    /// Admission control for one submit, in cache → dedup → capacity
    /// order. On `Accepted` the job is journaled durably *before* it
    /// becomes visible to workers, so a SIGKILL after the accept reply
    /// can never lose it.
    pub fn admit(&self, id: &str, spec: &JobSpec, prog: &Program) -> Admission {
        if self.shutdown.load(Ordering::SeqCst) {
            return Admission::Refused;
        }
        {
            let mut jobs = self.jobs.lock().unwrap();
            match jobs.get(id) {
                Some(JobState::Done { line, cacheable: true, .. }) => {
                    self.count("serve.jobs.cache_hits");
                    return Admission::Cached(line.clone());
                }
                // A non-cacheable terminal state (deadline-truncated,
                // cancelled, poisoned) is recomputed on re-submission.
                Some(JobState::Done { cacheable: false, .. }) | None => {}
                Some(JobState::Queued) | Some(JobState::Running(_)) => {
                    self.count("serve.jobs.joined");
                    return Admission::Joined;
                }
            }
            // Cold cache: a previous daemon life may have left a
            // durable result.
            if let Some(line) = self.load_disk_result(id) {
                let cacheable = !line.contains("\"ok\":false") && job_line_is_cacheable(&line);
                let states = line_states(&line);
                let line: Arc<str> = line.into();
                jobs.insert(
                    id.to_string(),
                    JobState::Done { line: line.clone(), cacheable, states, elapsed_ms: 0 },
                );
                if cacheable {
                    self.count("serve.jobs.cache_hits");
                    return Admission::Cached(line);
                }
            }
            let mut q = self.queue.lock().unwrap();
            if q.depth() >= self.cfg.max_queue {
                self.count("serve.jobs.shed");
                return Admission::Shed { depth: q.depth() };
            }
            if let Err(e) =
                write_with_retry(&*self.vfs, &self.journal_path(id), spec.to_json_line().as_bytes())
            {
                if is_disk_full(&e) {
                    self.vfs.stats().disk_full.store(true, Ordering::Relaxed);
                    self.count("serve.jobs.shed_disk_full");
                    return Admission::DiskFull;
                }
                return Admission::JournalError(e.to_string());
            }
            // An accept-path write landed: if we were in disk-full
            // degradation, space is back.
            self.vfs.stats().disk_full.store(false, Ordering::Relaxed);
            jobs.insert(id.to_string(), JobState::Queued);
            q.ready.push_back(QueuedJob {
                id: id.to_string(),
                spec: spec.clone(),
                prog: prog.clone(),
                attempt: 0,
            });
            let depth = q.depth();
            drop(q);
            drop(jobs);
            self.count("serve.jobs.accepted");
            self.work_cv.notify_one();
            Admission::Accepted { depth }
        }
    }

    /// Requeues a journaled job found at startup (recovery path). Not
    /// bounded by `max_queue`: these were already accepted by a
    /// previous daemon life and must not be shed now.
    pub fn requeue_recovered(&self, id: String, spec: JobSpec, prog: Program) {
        self.jobs.lock().unwrap().insert(id.clone(), JobState::Queued);
        self.queue.lock().unwrap().ready.push_back(QueuedJob { id, spec, prog, attempt: 0 });
        self.count("serve.jobs.recovered");
        self.work_cv.notify_one();
    }

    fn load_disk_result(&self, id: &str) -> Option<String> {
        self.vfs.read_to_string(&self.result_path(id)).ok()
    }

    /// Blocks until the job reaches a terminal state and returns its
    /// final line.
    pub fn wait_done(&self, id: &str) -> Arc<str> {
        let mut jobs = self.jobs.lock().unwrap();
        loop {
            if let Some(JobState::Done { line, .. }) = jobs.get(id) {
                return line.clone();
            }
            jobs = self.done_cv.wait(jobs).unwrap();
        }
    }

    /// [`Shared::wait_done`] with a timeout, for streaming connections
    /// that interleave progress emission with the wait: `None` means
    /// the job is still in flight after `dur`.
    pub fn wait_done_for(&self, id: &str, dur: Duration) -> Option<Arc<str>> {
        let deadline = Instant::now() + dur;
        let mut jobs = self.jobs.lock().unwrap();
        loop {
            if let Some(JobState::Done { line, .. }) = jobs.get(id) {
                return Some(line.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            jobs = self.done_cv.wait_timeout(jobs, deadline - now).unwrap().0;
        }
    }

    /// The live monitor of a running job, if it is currently on a
    /// worker.
    pub fn monitor(&self, id: &str) -> Option<Arc<JobMonitor>> {
        match self.jobs.lock().unwrap().get(id) {
            Some(JobState::Running(m)) => Some(m.clone()),
            _ => None,
        }
    }

    /// Every running job's monitor, for the watchdog sweep.
    pub fn running_monitors(&self) -> Vec<(String, Arc<JobMonitor>)> {
        self.jobs
            .lock()
            .unwrap()
            .iter()
            .filter_map(|(id, s)| match s {
                JobState::Running(m) => Some((id.clone(), m.clone())),
                _ => None,
            })
            .collect()
    }

    /// The per-job listing for `status`: one row per known job, sorted
    /// by id (deterministic output order). Running rows carry live
    /// progress counters; done rows their closing numbers.
    pub fn jobs_overview(&self) -> Vec<JobRow> {
        let mut rows: Vec<JobRow> = self
            .jobs
            .lock()
            .unwrap()
            .iter()
            .map(|(id, s)| match s {
                JobState::Queued => {
                    JobRow { id: id.clone(), phase: "queued", states: 0, elapsed_ms: 0 }
                }
                JobState::Running(m) => {
                    let (_, p) = m.progress.sample();
                    JobRow {
                        id: id.clone(),
                        phase: "running",
                        states: p.distinct_states as u64,
                        elapsed_ms: u64::try_from(m.started.elapsed().as_millis())
                            .unwrap_or(u64::MAX),
                    }
                }
                JobState::Done { states, elapsed_ms, .. } => JobRow {
                    id: id.clone(),
                    phase: "done",
                    states: *states,
                    elapsed_ms: *elapsed_ms,
                },
            })
            .collect();
        rows.sort_by(|a, b| a.id.cmp(&b.id));
        rows
    }

    /// Cancels a queued or running job. Returns a client-facing
    /// description of what happened, or `None` if the id is unknown.
    pub fn cancel(&self, id: &str) -> Option<&'static str> {
        let mut jobs = self.jobs.lock().unwrap();
        match jobs.get(id) {
            Some(JobState::Running(m)) => {
                m.cancel.cancel();
                Some("cancelling at the next safepoint")
            }
            Some(JobState::Queued) => {
                let mut q = self.queue.lock().unwrap();
                q.ready.retain(|j| j.id != id);
                q.retry.retain(|r| r.job.id != id);
                drop(q);
                let line: Arc<str> =
                    format!("{{\"id\":\"{id}\",\"ok\":false,\"kind\":\"cancelled\"}}").into();
                jobs.insert(
                    id.to_string(),
                    JobState::Done { line, cacheable: false, states: 0, elapsed_ms: 0 },
                );
                cleanup_file(&*self.vfs, &self.journal_path(id));
                self.count("serve.jobs.cancelled");
                self.done_cv.notify_all();
                Some("removed from the queue")
            }
            Some(JobState::Done { .. }) => Some("already finished"),
            None => None,
        }
    }

    /// Current queue depth (ready + backoff).
    pub fn queue_depth(&self) -> usize {
        self.queue.lock().unwrap().depth()
    }

    /// Number of jobs currently on a worker.
    pub fn running_count(&self) -> usize {
        self.jobs.lock().unwrap().values().filter(|s| matches!(s, JobState::Running(_))).count()
    }

    /// Begins a drain: refuse new work, cancel running jobs at their
    /// next safepoint (they suspend resumably), and wake everyone.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for state in self.jobs.lock().unwrap().values() {
            if let JobState::Running(m) = state {
                m.cancel.cancel();
            }
        }
        self.work_cv.notify_all();
    }

    /// After the workers have exited: resolve every job that will not
    /// run in this daemon life so no connection waits forever. The
    /// journals stay on disk — the next life recovers them.
    pub fn resolve_stranded(&self) {
        let mut jobs = self.jobs.lock().unwrap();
        for (id, state) in jobs.iter_mut() {
            if !matches!(state, JobState::Done { .. }) {
                let line: Arc<str> = format!(
                    "{{\"id\":\"{id}\",\"ok\":false,\"kind\":\"shutdown\",\"error\":\"daemon is draining; the job was journaled and will resume on restart\"}}"
                )
                .into();
                *state = JobState::Done { line, cacheable: false, states: 0, elapsed_ms: 0 };
            }
        }
        drop(jobs);
        self.done_cv.notify_all();
    }

    /// The worker thread body: pop, run, finalize, repeat. `worker` is
    /// this thread's pool index — also its flight-ring index.
    pub fn worker_loop(&self, worker: usize) {
        loop {
            let Some(job) = self.next_job() else { return };
            self.run_one(worker, job);
        }
    }

    /// Blocks for the next runnable job; `None` means shutdown.
    fn next_job(&self) -> Option<QueuedJob> {
        let mut q = self.queue.lock().unwrap();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            let now = Instant::now();
            // Promote retries whose backoff has elapsed.
            let mut i = 0;
            while i < q.retry.len() {
                if q.retry[i].ready_at <= now {
                    let r = q.retry.swap_remove(i);
                    q.ready.push_back(r.job);
                } else {
                    i += 1;
                }
            }
            if let Some(j) = q.ready.pop_front() {
                return Some(j);
            }
            q = match q.retry.iter().map(|r| r.ready_at).min() {
                Some(at) => {
                    let dur = at.saturating_duration_since(now).max(Duration::from_millis(1));
                    self.work_cv.wait_timeout(q, dur).unwrap().0
                }
                None => self.work_cv.wait(q).unwrap(),
            };
        }
    }

    fn run_one(&self, worker: usize, job: QueuedJob) {
        let monitor = Arc::new(JobMonitor {
            cancel: CancelToken::new(),
            progress: ProgressSink::with_interval(Duration::from_millis(25)),
            started: Instant::now(),
            attempt: job.attempt + 1,
            worker,
        });
        self.jobs.lock().unwrap().insert(job.id.clone(), JobState::Running(monitor.clone()));
        self.count("serve.jobs.started");
        self.flight.record(worker, "job-start", [("attempt", i64::from(job.attempt + 1)), ("", 0)]);
        let token = monitor.cancel.clone();
        let started = monitor.started;
        if self.cfg.test_hooks && job.spec.test_sleep_ms > 0 {
            // Sleep in small slices so cancellation stays prompt.
            let until = started + Duration::from_millis(job.spec.test_sleep_ms);
            while Instant::now() < until && !token.is_cancelled() {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        if self.cfg.test_hooks && job.attempt < job.spec.test_panics {
            self.retry_or_poison(worker, job, started);
            return;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            job::run_attempt(
                &job.spec,
                &job.prog,
                &self.ckpt_dir(&job.id),
                self.cfg.ckpt_every,
                self.cfg.job_threads,
                &token,
                &monitor.progress,
                &self.vfs,
            )
        }));
        match outcome {
            Ok(Ok(ex)) => match ex.truncation {
                Some(TruncationReason::WorkerPanic) => self.retry_or_poison(worker, job, started),
                Some(TruncationReason::Cancelled) => {
                    self.flight.record(worker, "job-cancelled", [("", 0), ("", 0)]);
                    self.finish_cancelled(&job);
                }
                _ => {
                    self.flight.record(
                        worker,
                        "job-done",
                        [("states", i64::try_from(ex.states).unwrap_or(i64::MAX)), ("", 0)],
                    );
                    self.finish_explored(&job, &ex, started);
                }
            },
            Ok(Err(e)) => {
                self.flight.record(worker, "job-error", [("", 0), ("", 0)]);
                self.finish_error(&job, &e.to_string());
            }
            Err(_) => self.retry_or_poison(worker, job, started),
        }
    }

    /// Success path (including deadline and state-cap truncations): the
    /// exploration produced its final answer for this job's resources.
    fn finish_explored(&self, job: &QueuedJob, ex: &Exploration, started: Instant) {
        let line = job::result_line(&job.id, &job.spec, ex);
        let cacheable = job::cacheable(ex.truncation);
        if let Err(e) = write_with_retry(&*self.vfs, &self.result_path(&job.id), line.as_bytes()) {
            // The journal stays in place and the terminal state is
            // non-cacheable, so the job re-runs cleanly — on restart
            // (recovery replays the journal) or on resubmission —
            // and completes byte-identically once the disk behaves.
            if is_disk_full(&e) {
                self.vfs.stats().disk_full.store(true, Ordering::Relaxed);
                self.count("serve.jobs.result_no_space");
                self.finish_error(
                    job,
                    "result write failed: state volume is full; the job stays journaled and will re-run",
                );
            } else {
                self.finish_error(job, &format!("result write failed: {e}"));
            }
            return;
        }
        self.vfs.stats().disk_full.store(false, Ordering::Relaxed);
        cleanup_file(&*self.vfs, &self.journal_path(&job.id));
        cleanup_dir(&*self.vfs, &self.ckpt_dir(&job.id));
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.latency.lock().unwrap().record(micros);
        {
            let mut m = self.metrics.lock().unwrap();
            m.counter("serve.jobs.completed", 1);
            m.counter("serve.states.explored", ex.states as u64);
            if ex.truncation.is_some() {
                m.counter("serve.jobs.truncated", 1);
            }
        }
        self.settle(&job.id, line, cacheable);
    }

    /// Cancelled at a safepoint: the final checkpoint is on disk and
    /// the journal stays, so the job resumes if resubmitted or after a
    /// restart. Waiters are told explicitly.
    fn finish_cancelled(&self, job: &QueuedJob) {
        self.count("serve.jobs.cancelled");
        let line = format!("{{\"id\":\"{}\",\"ok\":false,\"kind\":\"cancelled\"}}", job.id);
        self.settle(&job.id, line, false);
    }

    /// Non-retryable infrastructure failure (checkpoint I/O and kin).
    fn finish_error(&self, job: &QueuedJob, msg: &str) {
        self.count("serve.jobs.errors");
        let line = format!(
            "{{\"id\":\"{}\",\"ok\":false,\"kind\":\"job-error\",\"error\":\"{}\"}}",
            job.id,
            weakord_obs::json::escape(msg)
        );
        self.settle(&job.id, line, false);
    }

    /// The panic path: exponential backoff up to the poison cap. Every
    /// panic dumps the worker's flight ring — the evidence of what the
    /// job was doing just before it died.
    fn retry_or_poison(&self, worker: usize, mut job: QueuedJob, _started: Instant) {
        job.attempt += 1;
        self.flight.record(worker, "job-panic", [("attempt", i64::from(job.attempt)), ("", 0)]);
        self.dump_flight(worker, &job.id, "panic");
        if job.attempt < self.cfg.retry_max {
            let backoff =
                Duration::from_millis(self.cfg.backoff_base_ms << (job.attempt - 1).min(16));
            self.count("serve.jobs.retried");
            self.jobs.lock().unwrap().insert(job.id.clone(), JobState::Queued);
            let mut q = self.queue.lock().unwrap();
            q.retry.push(RetryJob { ready_at: Instant::now() + backoff, job });
            drop(q);
            self.work_cv.notify_one();
            return;
        }
        // Poison pill: give up durably, so neither this life nor the
        // next one livelocks on it.
        self.count("serve.jobs.poisoned");
        self.flight.record(worker, "job-poisoned", [("attempts", i64::from(job.attempt)), ("", 0)]);
        self.dump_flight(worker, &job.id, "poison");
        let line = job::poisoned_line(&job.id, job.attempt);
        // A pill that fails to persist is still a pill for this life;
        // the next life will re-run and (if it keeps panicking)
        // re-poison. Count the miss instead of swallowing it.
        if write_with_retry(&*self.vfs, &self.result_path(&job.id), line.as_bytes()).is_err() {
            self.count("serve.jobs.result_write_errors");
        }
        cleanup_file(&*self.vfs, &self.journal_path(&job.id));
        cleanup_dir(&*self.vfs, &self.ckpt_dir(&job.id));
        self.settle(&job.id, line, false);
    }

    /// Flight dumps are evidence, not service: count failures, never
    /// let them take a worker down.
    pub(crate) fn dump_flight(&self, worker: usize, id: &str, reason: &str) {
        match self.flight.dump(worker, id, reason) {
            Ok(_) => self.count("serve.flight.dumps"),
            Err(_) => self.count("serve.flight.dump_errors"),
        }
    }

    fn settle(&self, id: &str, line: String, cacheable: bool) {
        let line: Arc<str> = line.into();
        let mut jobs = self.jobs.lock().unwrap();
        // Close out the status row with the monitor's final numbers
        // before the Running state (and its monitor) is replaced.
        let (states, elapsed_ms) = match jobs.get(id) {
            Some(JobState::Running(m)) => (
                m.progress.sample().1.distinct_states as u64,
                u64::try_from(m.started.elapsed().as_millis()).unwrap_or(u64::MAX),
            ),
            _ => (0, 0),
        };
        jobs.insert(id.to_string(), JobState::Done { line, cacheable, states, elapsed_ms });
        drop(jobs);
        self.done_cv.notify_all();
    }
}

/// Pulls the `"states"` count out of a stored result line, for the
/// status listing (0 when absent or unparseable).
fn line_states(line: &str) -> u64 {
    weakord_obs::json::parse(line)
        .ok()
        .and_then(|v| v.get("states").and_then(|s| s.as_num()))
        .map_or(0, |n| n as u64)
}

/// `true` when a durable result line read back from disk may serve
/// future cache hits (complete or state-cap truncated — see
/// [`job::cacheable`]).
fn job_line_is_cacheable(line: &str) -> bool {
    line.contains("\"truncated\":null") || line.contains("\"truncated\":\"max-states\"")
}
