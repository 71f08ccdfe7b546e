//! Zero-overhead-when-disabled, enforced with a counting allocator.
//!
//! The tracing layer promises that the default no-op tracer costs
//! nothing on the message hot path: the generic `CoherentMachine<_, T>`
//! monomorphizes `NoopTracer` calls away, and every recording call
//! site is gated on `tracer.enabled()`. This binary swaps in a global
//! allocator that counts allocations and checks the promise directly:
//! a run with a *disabled* recording tracer must allocate exactly as
//! much as a run with the no-op tracer — the instrumentation may not
//! allocate a single event when capture is off.
//!
//! Deflaked (PR 7): the counter is **per-thread**, so allocations from
//! concurrent libtest-harness threads (the ~1-in-5 flake PR 6 noted)
//! can no longer leak into a measurement — only the measuring thread
//! increments the count it reads. A test-local lock additionally
//! serializes the measured sections, so even same-file tests added
//! later cannot interleave inside one sample. The same allocator also
//! tracks each thread's live bytes and their peak, which bounds the
//! footprint of a single-threaded exploration.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

use weakord::coherence::{CoherentMachine, Config, Policy};
use weakord::core::HbMode;
use weakord::mc::machines::{BnrMachine, WoDef1Machine, NAMES};
use weakord::mc::{
    check_program_drf, explore, run, with_machine, Limits, Machine, Opts, ProgressSink, TraceLimits,
};
use weakord::obs::MemTracer;
use weakord::progs::gen::{self, GenParams};
use weakord::progs::workloads::{fig3_scenario, ticket_lock, Fig3Params, SpinlockParams};
use weakord::progs::{litmus, Program, ThreadBuilder};

struct CountingAlloc;

thread_local! {
    /// Allocations performed *by this thread*. `const`-initialized so
    /// reading it never itself allocates (a lazily-initialized
    /// thread-local can allocate its control block inside the
    /// allocator, recursing).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` since the last [`peak_during`] began.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Bumps the calling thread's counter; silently skips threads whose
/// thread-local storage is already torn down (allocations during
/// thread exit must not abort the process).
fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Moves the calling thread's live bytes by `delta` and raises its
/// peak; skips torn-down threads like [`count`].
fn track(delta: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        track(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        track(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        track(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes measured sections within this test binary.
static MEASURE: Mutex<()> = Mutex::new(());

/// Runs `f` under the measurement lock and returns how many allocations
/// *this thread* performed during it. Exact for single-threaded `f`
/// (the machines under test here are single-threaded): other threads'
/// allocations land on their own counters.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let _serialized = MEASURE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Runs `f` under the measurement lock and returns the peak of *this
/// thread's* live heap during it, above its level at the start. Exact
/// for single-threaded `f`, like [`allocs_during`].
fn peak_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let _serialized = MEASURE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let out = f();
    (PEAK.with(Cell::get).saturating_sub(before) as u64, out)
}

const SAMPLES: u32 = 5;

fn run_noop(prog: &Program, cfg: Config) -> u64 {
    (0..SAMPLES)
        .map(|_| {
            let (n, r) = allocs_during(|| CoherentMachine::new(prog, cfg).run());
            r.expect("run terminates");
            n
        })
        .min()
        .unwrap()
}

fn run_gated(prog: &Program, cfg: Config) -> u64 {
    // A recording tracer with capture switched off: every `enabled()`
    // gate in the machine must short-circuit before building an event.
    (0..SAMPLES)
        .map(|_| {
            let (n, r) = allocs_during(|| {
                CoherentMachine::with_tracer(prog, cfg, MemTracer::disabled()).run_traced().0
            });
            r.expect("run terminates");
            n
        })
        .min()
        .unwrap()
}

fn run_recording(prog: &Program, cfg: Config) -> (u64, usize) {
    let (n, (r, tracer)) =
        allocs_during(|| CoherentMachine::with_tracer(prog, cfg, MemTracer::new()).run_traced());
    r.expect("run terminates");
    (n, tracer.into_events().len())
}

/// Allocations and admitted states of one single-threaded exploration
/// (`threads: 1` runs in place, so the per-thread counter sees every
/// engine allocation).
fn explore_allocs<M: Machine>(m: &M, prog: &Program, sink: Option<&ProgressSink>) -> (u64, usize) {
    (0..SAMPLES)
        .map(|_| {
            let limits = Limits { threads: 1, ..Limits::default() };
            let (n, ex) = allocs_during(|| match sink {
                Some(s) => {
                    let opts = Opts { progress: Some(s), ..Opts::default() };
                    run(m, prog, limits, &opts).expect("no checkpoint")
                }
                None => explore(m, prog, limits),
            });
            assert!(ex.states > 0 && !ex.truncated());
            (n, ex.states)
        })
        .min()
        .unwrap()
}

/// The progress plane's core promise: sampling is free. An exploration
/// with a [`ProgressSink`] attached — publishing on *every* progress
/// check (interval zero) — must allocate exactly like one without; a
/// publication copies one stats record into a pre-allocated slot.
/// (With no sink attached the check is a single untaken `Option`
/// branch, so it is covered a fortiori by the same equality.)
#[test]
fn progress_sampling_allocates_nothing_extra() {
    let prog = litmus::all().into_iter().find(|l| l.name == "iriw").unwrap().program;
    // Warm-up, then a determinism guard on the baseline itself.
    explore_allocs(&WoDef1Machine, &prog, None);
    let baseline_a = explore_allocs(&WoDef1Machine, &prog, None);
    let baseline_b = explore_allocs(&WoDef1Machine, &prog, None);
    assert_eq!(
        baseline_a, baseline_b,
        "single-threaded exploration should allocate deterministically"
    );
    let sink = ProgressSink::with_interval(std::time::Duration::ZERO);
    let attached = explore_allocs(&WoDef1Machine, &prog, Some(&sink));
    assert_eq!(
        attached, baseline_a,
        "an attached progress sink must not allocate: a publication copies one record into a \
         pre-allocated slot"
    );
    let (seq, last) = sink.sample();
    assert!(seq > 0, "the sink did publish (the equality above is not vacuous)");
    assert!(last.distinct_states > 0);
}

/// The explorer's per-state allocation budget. Every machine draws its
/// successor states from the engine's recycling pool, and the engine
/// keeps admitted states encoded, so a 1-worker run allocates about once
/// per admitted state (the encoded payload) and nothing per arc. A
/// machine that falls off the pooled path — a derived `clone_from`, a
/// scratch `Vec` in a per-step helper — costs several blocks per state.
#[test]
fn explore_allocates_under_two_blocks_per_admitted_state() {
    let trivial = {
        let mut t = ThreadBuilder::new();
        t.halt();
        Program::new("halt", vec![t.finish()], 1).expect("trivial program")
    };
    let prog = litmus::iriw().program;
    fn check<M: Machine>(m: &M, trivial: &Program, prog: &Program) {
        explore_allocs(m, prog, None);
        let (fixed, _) = explore_allocs(m, trivial, None);
        let (allocs, states) = explore_allocs(m, prog, None);
        let per_state = allocs.saturating_sub(fixed) as f64 / states as f64;
        assert!(
            per_state < 2.0,
            "{}: {per_state:.2} allocations per admitted state \
             ({allocs} over {states} states, {fixed} for a trivial run)",
            m.name()
        );
    }
    for &name in NAMES {
        with_machine!(name, |m| check(&m, &trivial, &prog), other => unreachable!("{other}"));
    }
    check(&BnrMachine, &trivial, &prog);
}

/// A small exploration costs what its states cost. A 1-worker run
/// (in place, so this thread sees every engine allocation) of each
/// in-code litmus test peaks at 128 KiB of fixed engine state plus
/// 1 KiB per admitted state: the visited set builds a shard's table
/// and slab only when the shard admits its first state, and starts
/// them small. Building every shard's full-size table up front costs
/// well over 128 KiB before the first state is admitted.
#[test]
fn small_explorations_peak_at_what_their_states_cost() {
    let limits = Limits { threads: 1, ..Limits::default() };
    for lit in litmus::all() {
        for name in ["sc", "wo-def2"] {
            let (peak, states) = with_machine!(name, |m| {
                let (peak, ex) = peak_during(|| explore(&m, &lit.program, limits));
                assert!(!ex.truncated(), "{} × {name} truncated", lit.name);
                (peak, ex.states)
            }, other => unreachable!("{other}"));
            let bound = 128 * 1024 + 1024 * states as u64;
            assert!(
                peak <= bound,
                "{} × {name}: peak live heap {peak} bytes over {states} states exceeds {bound}",
                lit.name
            );
        }
    }
}

#[test]
fn disabled_tracing_allocates_nothing_extra() {
    let workloads: Vec<Program> =
        vec![fig3_scenario(Fig3Params::default()), ticket_lock(SpinlockParams::default())];
    for prog in &workloads {
        let cfg = Config { policy: Policy::def2(), seed: 7, ..Config::default() };
        // Warm up once so lazily initialized runtime structures don't
        // bias the first measurement.
        run_noop(prog, cfg);

        let baseline_a = run_noop(prog, cfg);
        let baseline_b = run_noop(prog, cfg);
        assert_eq!(
            baseline_a, baseline_b,
            "{}: the untraced machine should allocate deterministically",
            prog.name
        );

        let gated = run_gated(prog, cfg);
        assert_eq!(
            gated, baseline_a,
            "{}: a disabled tracer must allocate exactly like the no-op tracer \
             (an empty Vec is allocation-free; any extra is an ungated event site)",
            prog.name
        );

        let (recording, events) = run_recording(prog, cfg);
        assert!(events > 0, "{}: the recording run captured nothing", prog.name);
        assert!(
            recording > gated,
            "{}: recording {events} events should visibly allocate",
            prog.name
        );
    }
}

/// The DRF0 classifier's allocation budget. `check_program_drf` walks
/// SC interleavings on one recycled frame (state, detector, op counts)
/// per depth, so once the deepest path has been reached the walk
/// allocates nothing more. A per-node clone of any of the three costs
/// dozens of blocks per complete trace.
#[test]
fn classifier_allocates_under_one_block_per_trace() {
    let limits = TraceLimits { max_ops_per_thread: 40, max_traces: 1_000 };
    for seed in 0..8 {
        let prog = gen::race_free(seed, GenParams::default());
        let (allocs, verdict) = allocs_during(|| check_program_drf(&prog, HbMode::Drf0, limits));
        assert_eq!(verdict.traces, limits.max_traces, "{}: the walk stopped early", prog.name);
        let per_trace = allocs as f64 / verdict.traces as f64;
        assert!(
            per_trace < 1.0,
            "{}: {per_trace:.2} allocations per complete trace ({allocs} over {} traces)",
            prog.name,
            verdict.traces
        );
    }
}
