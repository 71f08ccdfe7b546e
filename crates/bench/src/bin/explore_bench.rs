//! Explorer-engine benchmark: writes `BENCH_explore.json`.
//!
//! Measures the lock-free explorer (`weakord_mc::explore`) against the
//! sequential reference (`weakord_mc::explore_seq`), measured in the
//! same run, on three generated corpus shapes × {sc, tso, pso},
//! reporting states/sec,
//! a peak-RSS proxy (live heap bytes tracked by a counting global
//! allocator), and spill bytes for a disk-budgeted run. A per-call tier
//! then times whole calls on litmus-sized programs, where the fixed
//! cost of a call matters more than the cost per state. See
//! EXPERIMENTS.md § E13 for the methodology and the committed numbers.
//!
//! ```text
//! cargo run --release -p weakord-bench --bin explore_bench             # write BENCH_explore.json
//! cargo run --release -p weakord-bench --bin explore_bench -- --scout  # print candidate shape sizes
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use weakord_bench::experiments::SEQ_FLOOR;
use weakord_mc::machines::{BnrMachine, PsoMachine, ScMachine, TsoMachine, NAMES};
use weakord_mc::{explore, explore_seq, with_machine, Exploration, Limits, Machine};
use weakord_progs::{gen, litmus, parse_program, Program};

/// Tracks live and peak heap bytes. "Peak RSS proxy": resident set
/// size itself is OS-noisy and includes the binary; peak live heap is
/// deterministic-ish and is the part the engines differ on.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            let live = LIVE.fetch_add(new_size - layout.size(), Ordering::Relaxed) + new_size
                - layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Resets the peak to the current live level and runs `f`, returning
/// (result, peak-live-bytes during the run above the starting level).
fn with_peak<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(base);
    (out, peak as u64)
}

/// The measured corpus shapes, picked from `gen::corpus(0)` by name so
/// the benchmark is stable under corpus growth: a small, a medium, and
/// a large state space (on the buffer-heavy machines). `--scout` below
/// reprints the candidates if these ever need repicking.
const SHAPES: [&str; 3] = ["iriw", "cyc4-rw+ww+ww+ww", "cyc4-ww+ww+ww+ww"];

fn shapes() -> Vec<(String, Program)> {
    let corpus = gen::corpus(0);
    SHAPES
        .iter()
        .map(|want| {
            corpus
                .iter()
                .find(|s| s.name == *want)
                .unwrap_or_else(|| panic!("shape `{want}` missing from corpus(0)"))
        })
        .map(|s| (s.name.clone(), s.program.clone()))
        .collect()
}

struct Row {
    shape: String,
    machine: &'static str,
    engine: &'static str,
    threads: usize,
    states: usize,
    secs: f64,
    states_per_sec: f64,
    peak_rss_bytes: u64,
    spilled_states: u64,
    spill_bytes: u64,
}

/// Best-of-3 wall-clock (states/sec is deterministic up to scheduler
/// noise; best-of filters interference the same way the overhead test's
/// min-over-samples does). Peak RSS is taken from the best-time run.
fn measure(
    name: &str,
    machine: &'static str,
    engine: &'static str,
    threads: usize,
    run: impl Fn() -> Exploration,
) -> Row {
    let mut best: Option<(Exploration, u64)> = None;
    for _ in 0..3 {
        let (ex, peak) = with_peak(&run);
        assert!(!ex.truncated(), "{name} on {machine}: benchmark run truncated");
        if best.as_ref().is_none_or(|(b, _)| ex.stats.duration < b.stats.duration) {
            best = Some((ex, peak));
        }
    }
    let (ex, peak) = best.expect("three runs");
    let secs = ex.stats.duration.as_secs_f64();
    Row {
        shape: name.to_string(),
        machine,
        engine,
        threads,
        states: ex.states,
        secs,
        states_per_sec: ex.states as f64 / secs,
        peak_rss_bytes: peak,
        spilled_states: ex.stats.spilled_states,
        spill_bytes: ex.stats.spill_bytes,
    }
}

fn limits() -> Limits {
    limits_for(1)
}

fn limits_for(threads: usize) -> Limits {
    // The engine comparison runs on one worker (per-state algorithmic
    // cost, not parallel scaling); the thread-sweep rows below vary
    // this. Scaling correctness has its own test in tests/lockfree.rs.
    let mut l = Limits::with_threads(threads);
    l.max_states = 4_000_000;
    l
}

/// Repetitions per per-call cell; each engine keeps its fastest.
const CALL_REPS: usize = 7;

/// One per-call cell: a program × machine under `Limits::reduced()`,
/// best whole-call wall time of each engine.
struct CallRow {
    program: String,
    machine: &'static str,
    states: usize,
    seq: Duration,
    w1: Duration,
    w2: Duration,
}

/// Every in-code litmus test, then every `litmus/*.litmus` file.
fn call_programs() -> Vec<(String, Program)> {
    let mut progs: Vec<(String, Program)> =
        litmus::all().into_iter().map(|l| (l.name.to_string(), l.program)).collect();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../litmus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("litmus dir exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "litmus"))
        .collect();
    files.sort();
    for path in files {
        let src = std::fs::read_to_string(&path).expect("readable litmus file");
        let prog = parse_program(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let name = path.file_name().expect("file name").to_string_lossy();
        progs.push((name.into_owned(), prog));
    }
    progs
}

/// Times whole calls of `explore_seq`, the engine at 1 worker and the
/// engine at 2 workers, interleaved per repetition. The clock spans the
/// call and the drop of its result, so the engine's teardown, which
/// `stats.duration` stops short of, is counted too.
fn call_row<M: Machine>(m: &M, program: &str, prog: &Program) -> CallRow {
    let reduced = |threads| Limits { threads, ..Limits::reduced() };
    let timed = |f: &dyn Fn() -> Exploration| {
        let t = Instant::now();
        let ex = f();
        drop(std::hint::black_box(ex));
        t.elapsed()
    };
    let reference = explore_seq(m, prog, reduced(1));
    assert!(!reference.truncated(), "{program} on {}: per-call run truncated", m.name());
    for threads in [1, 2] {
        let ex = explore(m, prog, reduced(threads));
        assert_eq!(ex, reference, "{program} on {}: engine at {threads} worker(s)", m.name());
    }
    let mut best = [Duration::MAX; 3];
    for _ in 0..CALL_REPS {
        let times = [
            timed(&|| explore_seq(m, prog, reduced(1))),
            timed(&|| explore(m, prog, reduced(1))),
            timed(&|| explore(m, prog, reduced(2))),
        ];
        for (b, t) in best.iter_mut().zip(times) {
            *b = (*b).min(t);
        }
    }
    CallRow {
        program: program.to_string(),
        machine: m.name(),
        states: reference.states,
        seq: best[0],
        w1: best[1],
        w2: best[2],
    }
}

fn call_tier() -> Vec<CallRow> {
    let programs = call_programs();
    let mut rows = Vec::new();
    for &name in NAMES.iter().chain(&["wo-bnr"]) {
        eprintln!("per-call tier on {name}…");
        for (program, prog) in &programs {
            rows.push(if name == "wo-bnr" {
                call_row(&BnrMachine, program, prog)
            } else {
                with_machine!(name, |m| call_row(&m, program, prog), other => unreachable!("{other}"))
            });
        }
    }
    rows
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The per-call tier as a JSON object: totals, the worst cell of each
/// ratio, and every cell.
fn call_json(rows: &[CallRow]) -> String {
    let total = |f: fn(&CallRow) -> Duration| rows.iter().map(|r| us(f(r))).sum::<f64>();
    let (seq, w1, w2) = (total(|r| r.seq), total(|r| r.w1), total(|r| r.w2));
    let worst = |num: fn(&CallRow) -> Duration, den: fn(&CallRow) -> Duration| {
        let r = rows
            .iter()
            .max_by(|a, b| {
                let ra = us(num(a)) / us(den(a));
                ra.total_cmp(&(us(num(b)) / us(den(b))))
            })
            .expect("per-call rows");
        format!(
            "{{\"program\": \"{}\", \"machine\": \"{}\", \"states\": {}, \"ratio\": {:.2}}}",
            json_escape(&r.program),
            r.machine,
            r.states,
            us(num(r)) / us(den(r))
        )
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  \"per_call\": {{\"limits\": \"reduced\", \"reps\": {CALL_REPS}, \"cells\": {}, \"total_us\": {{\"seq\": {seq:.1}, \"w1\": {w1:.1}, \"w2\": {w2:.1}}}, \"w1_over_seq\": {:.2}, \"w2_over_w1\": {:.2}, \"cell_target\": 1.25,",
        rows.len(),
        w1 / seq,
        w2 / w1
    );
    let _ = writeln!(out, "    \"worst_w1_over_seq\": {},", worst(|r| r.w1, |r| r.seq));
    let _ = writeln!(out, "    \"worst_w2_over_w1\": {},", worst(|r| r.w2, |r| r.w1));
    out.push_str("    \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "      {{\"program\": \"{}\", \"machine\": \"{}\", \"states\": {}, \"seq_us\": {:.1}, \"w1_us\": {:.1}, \"w2_us\": {:.1}}}{}",
            json_escape(&r.program),
            r.machine,
            r.states,
            us(r.seq),
            us(r.w1),
            us(r.w2),
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    out.push_str("    ]\n  },\n");
    out
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--scout") {
        scout();
        return;
    }
    let mut rows: Vec<Row> = Vec::new();
    for (name, prog) in shapes() {
        for (machine, run_new, run_seq) in [
            (
                "sc",
                &(|p: &Program, l| explore(&ScMachine, p, l))
                    as &dyn Fn(&Program, Limits) -> Exploration,
                &(|p: &Program, l| explore_seq(&ScMachine, p, l))
                    as &dyn Fn(&Program, Limits) -> Exploration,
            ),
            ("tso", &|p, l| explore(&TsoMachine, p, l), &|p, l| explore_seq(&TsoMachine, p, l)),
            ("pso", &|p, l| explore(&PsoMachine, p, l), &|p, l| explore_seq(&PsoMachine, p, l)),
        ] {
            eprintln!("measuring {name} on {machine}…");
            rows.push(measure(&name, machine, "seq", 1, || run_seq(&prog, limits())));
            rows.push(measure(&name, machine, "lockfree", 1, || run_new(&prog, limits())));
        }
    }
    // The spill row: the largest shape on pso under a budget well below
    // its in-RAM footprint, proving disk-bounded capacity at full speed.
    {
        let (name, prog) = shapes().pop().expect("three shapes");
        let mut l = limits();
        l.memory_budget = Some(4 << 20);
        eprintln!("measuring {name} on pso (spill-forced, 4 MiB budget)…");
        let row = measure(&name, "pso", "lockfree-spill", 1, || explore(&PsoMachine, &prog, l));
        assert!(row.spilled_states > 0, "the spill budget was not exceeded");
        rows.push(row);
    }
    // Multi-worker rows: the largest shape on pso at 2/4/8 engine
    // threads. On a one-core host these document the (absent) scaling
    // honestly; on wider hosts they show the shared-frontier speedup.
    {
        let (name, prog) = shapes().pop().expect("three shapes");
        for threads in [2usize, 4, 8] {
            eprintln!("measuring {name} on pso ({threads} threads)…");
            rows.push(measure(&name, "pso", "lockfree", threads, || {
                explore(&PsoMachine, &prog, limits_for(threads))
            }));
        }
    }
    // The verdict on the largest measured shape: lock-free vs the
    // same-run sequential baseline, against SEQ_FLOOR.
    let largest = rows
        .iter()
        .filter(|r| r.engine == "lockfree" && r.threads == 1)
        .max_by_key(|r| r.states)
        .expect("lockfree rows");
    let baseline = rows
        .iter()
        .find(|r| r.engine == "seq" && r.shape == largest.shape && r.machine == largest.machine)
        .expect("matching seq row");
    let speedup = largest.states_per_sec / baseline.states_per_sec;
    let calls = call_tier();

    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"explore-engine\",\n");
    let _ = writeln!(
        out,
        "  \"config\": {{\"threads\": 1, \"thread_sweep\": [2, 4, 8], \"max_states\": 4000000, \"reps\": 3, \"spill_budget_bytes\": {}}},",
        4 << 20
    );
    let _ = writeln!(
        out,
        "  \"largest_shape\": {{\"shape\": \"{}\", \"machine\": \"{}\", \"states\": {}, \"speedup_vs_seq\": {:.2}, \"floor\": {SEQ_FLOOR}}},",
        json_escape(&largest.shape),
        largest.machine,
        largest.states,
        speedup
    );
    out.push_str(&call_json(&calls));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"shape\": \"{}\", \"machine\": \"{}\", \"engine\": \"{}\", \"threads\": {}, \"states\": {}, \"secs\": {:.4}, \"states_per_sec\": {:.0}, \"peak_rss_bytes\": {}, \"spilled_states\": {}, \"spill_bytes\": {}}}{}\n",
            json_escape(&r.shape),
            r.machine,
            r.engine,
            r.threads,
            r.states,
            r.secs,
            r.states_per_sec,
            r.peak_rss_bytes,
            r.spilled_states,
            r.spill_bytes,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");
    std::fs::write("BENCH_explore.json", &out).expect("write BENCH_explore.json");
    println!("{out}");
    eprintln!(
        "largest shape {} on {}: lockfree {:.0} vs seq {:.0} states/s ({speedup:.2}x)",
        largest.shape, largest.machine, largest.states_per_sec, baseline.states_per_sec
    );
    let total = |f: fn(&CallRow) -> Duration| calls.iter().map(|r| us(f(r))).sum::<f64>();
    eprintln!(
        "per-call tier, {} cells: explore_seq {:.0} us, 1 worker {:.0} us, 2 workers {:.0} us",
        calls.len(),
        total(|r| r.seq),
        total(|r| r.w1),
        total(|r| r.w2)
    );
    if speedup < SEQ_FLOOR {
        eprintln!("WARNING: speedup below the {SEQ_FLOOR}x acceptance bar");
        std::process::exit(1);
    }
}

/// Prints state counts of the larger corpus shapes on pso so the
/// `SHAPES` selection can be re-derived.
fn scout() {
    let mut sized: Vec<(usize, String)> = gen::corpus(0)
        .into_iter()
        .map(|s| {
            let mut l = Limits::with_threads(1);
            l.max_states = 4_000_000;
            let ex = explore(&PsoMachine, &s.program, l);
            (ex.states, s.name)
        })
        .collect();
    sized.sort();
    for (states, name) in &sized {
        println!("{states:>9}  {name}");
    }
}
