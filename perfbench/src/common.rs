//! Shared pieces: arguments, the counting allocator, exact percentiles,
//! result digests, the span recorder of the traced run, and the report
//! every workload fills in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use weakord_mc::checkpoint::fnv1a;
use weakord_mc::{Exploration, Limits, Reduction};
use weakord_obs::{chrome_trace, Event, Track};
use weakord_progs::{parse_program, unparse_program, Program};

// ---------------------------------------------------------------------
// Arguments.
// ---------------------------------------------------------------------

/// The command line: `--workload W --seed N --seconds S --trace 0|1`.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub const USAGE: &str = "usage: weakord-perfbench --workload <explore-wodef2|contract-campaign|serve-mixed|sim-def2> --seed <n> --seconds <s> --trace <0|1>\n       weakord-perfbench --vet <explore|medium|racy|sim|small>   (reprint a vetted input pool)";

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let get = |flag: &str| -> Result<&str, String> {
            let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
            argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
        };
        let num = |flag: &str| -> Result<u64, String> {
            get(flag)?.parse().map_err(|_| format!("{flag} must be a whole number"))
        };
        let seconds = num("--seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        let trace = match get("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        };
        Ok(Args {
            workload: get("--workload")?.to_string(),
            seed: num("--seed")?,
            seconds: seconds as f64,
            trace,
        })
    }
}

/// Every `Limits` field pinned: `Limits::default()` would read
/// `WEAKORD_MAX_STATES` from the environment, and `threads: 0` means
/// "all cores".
pub fn limits(max_states: usize, threads: usize, reduction: Reduction) -> Limits {
    Limits { max_states, threads, deadline: None, reduction, memory_budget: None }
}

/// Where the traced run writes its spans and the serve workload makes
/// its state directories: inside the benchmark's own directory.
pub fn scratch_dir(sub: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(sub)
}

// ---------------------------------------------------------------------
// Peak live heap.
// ---------------------------------------------------------------------

/// Counts live heap bytes and their peak, for `peak_heap_mb`. The
/// in-process daemon's allocations count too.
pub struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain statistics on the side.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Starts a peak-heap window at the current live level.
pub fn heap_window_start() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap since [`heap_window_start`], in MiB.
pub fn heap_peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

// ---------------------------------------------------------------------
// Statistics and digests.
// ---------------------------------------------------------------------

/// Exact nearest-rank percentile of raw samples (`p` in 0..=100).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Set-ups per run: `setup_s` is their median.
pub const SETUP_REPS: usize = 21;

/// Times set-ups spread evenly over the run, for `setup_s`. A shared
/// host's speed drifts over seconds, so set-ups bunched before the
/// measured phase would catch one moment of that drift while the other
/// metrics average over `--seconds`. The first set-up makes the run's
/// input; the others run between jobs and their time is kept out of
/// the measured phase.
pub struct SetupClock {
    times: Vec<f64>,
    every: f64,
    t0: Instant,
    paused: f64,
}

impl SetupClock {
    /// Runs and times the first set-up and returns its result. The
    /// measured phase starts when this returns.
    pub fn start<T>(seconds: f64, f: impl FnOnce() -> T) -> (SetupClock, T) {
        let t = Instant::now();
        let input = std::hint::black_box(f());
        let clock = SetupClock {
            times: vec![t.elapsed().as_secs_f64()],
            every: seconds / SETUP_REPS as f64,
            t0: Instant::now(),
            paused: 0.0,
        };
        (clock, input)
    }

    /// Seconds of the measured phase so far, set-ups excluded.
    pub fn measured(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() - self.paused
    }

    /// Runs `f` outside the measured phase.
    pub fn off_the_clock<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.paused += t.elapsed().as_secs_f64();
        out
    }

    /// Between two jobs: runs and times one more set-up if one is due,
    /// dropping its result.
    pub fn between_jobs<T>(&mut self, f: impl FnOnce() -> T) {
        if self.times.len() < SETUP_REPS && self.measured() >= self.times.len() as f64 * self.every
        {
            self.rep(f);
        }
    }

    /// After the measured phase: runs the set-ups still missing and
    /// returns the median set-up time in seconds.
    pub fn finish<T>(mut self, mut f: impl FnMut() -> T) -> f64 {
        while self.times.len() < SETUP_REPS {
            self.rep(&mut f);
        }
        median(&self.times)
    }

    fn rep<T>(&mut self, f: impl FnOnce() -> T) {
        let t = Instant::now();
        drop(std::hint::black_box(f()));
        let secs = t.elapsed().as_secs_f64();
        self.times.push(secs);
        self.paused += secs;
    }
}

/// Generates a program, then checks its text round-trips through the
/// parser; returns the program and its text.
pub fn build_program(spans: &mut Spans, generate: impl FnOnce() -> Program) -> (Program, String) {
    let prog = spans.time("progs.gen", generate);
    let text = spans.time("progs.unparse", || unparse_program(&prog));
    let back = spans.time("progs.parse", || parse_program(&text)).expect("generated text parses");
    assert_eq!(back, prog, "program text round-trips");
    (prog, text)
}

/// The semantic digest of an exploration result: state count, deadlock
/// count and the outcome set, in `BTreeSet` order (the order result
/// lines use too).
pub fn result_digest<'a>(
    states: usize,
    deadlocks: usize,
    outcomes: impl IntoIterator<Item = &'a str>,
) -> u64 {
    let mut s = format!("{states}|{deadlocks}|");
    for o in outcomes {
        s.push_str(o);
        s.push(';');
    }
    fnv1a(s.as_bytes())
}

/// [`result_digest`] of an exploration.
pub fn exploration_digest(ex: &Exploration) -> u64 {
    let outcomes: Vec<String> = ex.outcomes.iter().map(ToString::to_string).collect();
    result_digest(ex.states, ex.deadlocks, outcomes.iter().map(String::as_str))
}

// ---------------------------------------------------------------------
// The report.
// ---------------------------------------------------------------------

/// What one run prints: job tallies, failed checks, and metrics.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check (first few printed).
    pub problems: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Counts one job, failed when `problem` is `Some`.
    pub fn job(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.fail(p);
        }
    }

    /// Records a failed check that belongs to no single job.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.fail(problem());
        }
    }

    /// The end-to-end metrics of an untraced run from its raw job
    /// latencies (seconds) over `wall` seconds of measurement.
    pub fn end_to_end(
        &mut self,
        setup_s: f64,
        peak_mb: f64,
        latencies: &[f64],
        wall: f64,
        states: f64,
    ) {
        let ok = 1.0 - self.failed as f64 / self.attempted.max(1) as f64;
        self.metric("setup_s", setup_s, "s");
        self.metric("peak_heap_mb", peak_mb, "MiB");
        self.metric("ok_frac", ok, "frac");
        self.metric("jobs_per_s", latencies.len() as f64 / wall, "jobs/s");
        self.metric("job_p50_ms", 1e3 * median(latencies), "ms");
        self.metric("job_p99_ms", 1e3 * percentile(latencies, 99.0), "ms");
        self.metric("states_per_s", states / wall, "states/s");
        eprintln!("{} jobs in {wall:.3} s (latency samples: {})", latencies.len(), latencies.len());
    }

    /// The result object, printed as the last line of standard output.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

/// Keep one in this many nested spans (top-level spans are all kept).
const SAMPLE_EVERY: u64 = 64;
/// Hard cap on kept spans, so a long replay cannot exhaust memory.
const MAX_KEPT: usize = 200_000;

struct Frame {
    name: &'static str,
    id: i64,
    start: u64,
    child: u64,
}

/// The traced run's recorder. Spans are timed around calls into each
/// layer's public functions from the benchmark's own code. Self time
/// (a span minus its children) is aggregated per span name; individual
/// spans are kept only at top level and as a sample below it, and are
/// written out at the end.
///
/// A disabled recorder does nothing (not even read the clock), which is
/// what the overhead measurement compares against.
pub struct Spans {
    on: bool,
    epoch: Instant,
    stack: Vec<Frame>,
    self_ns: BTreeMap<&'static str, u64>,
    /// Self time of the replay span and everything nested in it (the
    /// per-layer shares exclude set-up spans).
    replay_ns: BTreeMap<&'static str, u64>,
    kept: Vec<Event>,
    nested: u64,
    next_id: i64,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            stack: Vec::new(),
            self_ns: BTreeMap::new(),
            replay_ns: BTreeMap::new(),
            kept: Vec::new(),
            nested: 0,
            next_id: 1,
        }
    }

    /// Nanoseconds since the recorder started (0 when disabled).
    pub fn now(&self) -> u64 {
        if self.on {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    pub fn enter(&mut self, name: &'static str) {
        if self.on {
            let id = self.next_id;
            self.next_id += 1;
            self.stack.push(Frame { name, id, start: self.now(), child: 0 });
        }
    }

    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let f = self.stack.pop().expect("exit matches an enter");
        let end = self.now();
        self.close(f.name, f.id, f.start, end, f.child);
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Records a childless span the caller timed itself with
    /// [`Spans::now`] — how batches of sub-microsecond calls are timed.
    pub fn leaf(&mut self, name: &'static str, start: u64, end: u64) {
        if self.on {
            let id = self.next_id;
            self.next_id += 1;
            self.close(name, id, start, end, 0);
        }
    }

    fn close(&mut self, name: &'static str, id: i64, start: u64, end: u64, child: u64) {
        let dur = end.saturating_sub(start);
        let own = dur.saturating_sub(child);
        *self.self_ns.entry(name).or_default() += own;
        if !self.stack.is_empty() || name.ends_with(".replay") {
            *self.replay_ns.entry(name).or_default() += own;
        }
        let parent = self.stack.last_mut().map_or(0, |p| {
            p.child += dur;
            p.id
        });
        let keep = if parent == 0 {
            true
        } else {
            self.nested += 1;
            self.nested.is_multiple_of(SAMPLE_EVERY)
        };
        if keep && self.kept.len() < MAX_KEPT {
            self.kept.push(
                Event::span(start, dur, Track::Global, "bench", name)
                    .arg("id", id)
                    .arg("parent", parent),
            );
        }
    }

    /// Summed self time of the spans named `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e9
    }

    /// Self time per layer (a span name up to its last `.`) within the
    /// replay, seconds.
    pub fn layer_self_s(&self) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for (name, ns) in &self.replay_ns {
            let layer = name.rsplit_once('.').map_or(*name, |(l, _)| l);
            *out.entry(layer.to_string()).or_default() += *ns as f64 / 1e9;
        }
        out
    }

    /// Writes the kept spans as a Chrome trace (timestamps in ns) and
    /// returns the file's path.
    pub fn write(&self, workload: &str, seed: u64) -> std::io::Result<PathBuf> {
        let dir = scratch_dir("out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{workload}-seed{seed}.trace.json"));
        std::fs::write(&path, chrome_trace(&self.kept))?;
        Ok(path)
    }

    pub fn kept(&self) -> usize {
        self.kept.len()
    }
}

/// The tail of every traced run: tracing overhead, per-layer shares of
/// the replay's wall time (printed), and the span file.
pub fn finish_trace(
    report: &mut Report,
    spans: &Spans,
    workload: &str,
    seed: u64,
    traced_s: f64,
    untraced_s: f64,
) {
    report.metric("bench.replay_untraced_s", untraced_s, "s");
    report.metric("bench.trace_overhead_s", traced_s - untraced_s, "s");
    eprintln!(
        "traced replay {traced_s:.4} s, untraced {untraced_s:.4} s: overhead {:.4} s ({:+.1}%)",
        traced_s - untraced_s,
        100.0 * (traced_s - untraced_s) / untraced_s
    );
    eprintln!("layer self time (share of the traced replay's {traced_s:.4} s wall time):");
    for (layer, s) in spans.layer_self_s() {
        eprintln!("  {layer:<22} {s:>9.4} s  {:>5.1}%", 100.0 * s / traced_s);
    }
    match spans.write(workload, seed) {
        Ok(path) => eprintln!("wrote {} spans to {}", spans.kept(), path.display()),
        Err(e) => report.fail(format!("writing the span file failed: {e}")),
    }
}
