//! Differential battery for the lock-free explorer core.
//!
//! The lock-free fingerprint table (`weakord::mc::visited`) claims
//! *semantic invisibility*: outcomes, state counts, and deadlock counts
//! are byte-for-byte what the sequential reference (`explore_seq`)
//! produces, across every machine, the whole litmus suite (built-in and
//! on-disk `.litmus` files), a seeded slice of the generated corpus with reduction on and
//! off, any thread count, and any memory budget (including one tiny
//! enough to force every state through the disk spill). These tests
//! are the regression net for that claim — each asserts `Exploration`
//! equality, which compares the semantic fields and ignores run-varying
//! stats.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Duration;

use weakord::core::Loc;
use weakord::mc::machines::{
    BnrMachine, CacheDelayMachine, NetReorderMachine, PsoMachine, ScMachine, TsoMachine,
    WoDef1Machine, WoDef2Machine, WriteBufferMachine, NAMES,
};
use weakord::mc::{
    explore, explore_seq, with_machine, Codec, Label, Limits, Machine, Reduction, ReductionClass,
};
use weakord::progs::{
    gen, litmus, parse_program, Outcome, Program, Reg, ThreadBuilder, ThreadState,
};

/// Caps differential runs so the whole battery stays CI-sized; chosen
/// above every litmus/corpus-sample state count on every machine, so no
/// run here actually truncates (equality of truncated runs is only
/// guaranteed for the state *count*, not the outcome sample).
const CAP: usize = 200_000;

fn limits(threads: usize) -> Limits {
    let mut l = Limits::with_threads(threads);
    l.max_states = CAP;
    l
}

/// Every named litmus program: the built-in suite plus the on-disk
/// `.litmus` corpus at the repo root.
fn litmus_programs() -> Vec<(String, Program)> {
    let mut progs: Vec<(String, Program)> =
        litmus::all().into_iter().map(|l| (l.name.to_string(), l.program)).collect();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/litmus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("litmus dir exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "litmus"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no .litmus files found in {dir}");
    for path in files {
        let src = std::fs::read_to_string(&path).expect("readable litmus file");
        let prog = parse_program(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        progs.push((path.display().to_string(), prog));
    }
    progs
}

/// ~24 deterministic corpus shapes, spread across the families (the
/// full 264-shape corpus belongs to the corpus-matrix CI job; this
/// sample keeps the differential battery minutes-scale while still
/// covering cycle2/3/4 and the special shapes).
fn corpus_sample() -> Vec<(String, Program)> {
    let shapes = gen::corpus(0);
    let step = (shapes.len() / 24).max(1);
    shapes.into_iter().step_by(step).take(24).map(|s| (s.name, s.program)).collect()
}

fn check_against_seq<M: Machine>(m: &M, name: &str, prog: &Program, threads: &[usize]) {
    let seq = explore_seq(m, prog, limits(1));
    assert!(!seq.truncated(), "{name} on {}: differential run truncated", m.name());
    for &t in threads {
        let par = explore(m, prog, limits(t));
        assert_eq!(par, seq, "{name} on {} @ {t} threads vs explore_seq", m.name());
    }
}

/// The tentpole differential claim: all machines × all litmus programs,
/// lock-free engine vs the sequential reference, at 1, 2, and 8
/// threads (1 exercises the in-place path, 2 and 8 the idle-peer split
/// and stealing — forced deterministically by
/// `an_idle_peer_steals_from_a_hot_tail_that_never_overflows` — and 8
/// oversubscribes the host to shake out scheduling races).
#[test]
fn all_machines_match_seq_on_every_litmus_program() {
    for (name, prog) in litmus_programs() {
        check_against_seq(&ScMachine, &name, &prog, &[1, 2, 8]);
        check_against_seq(&WriteBufferMachine, &name, &prog, &[1, 2, 8]);
        check_against_seq(&TsoMachine, &name, &prog, &[1, 2, 8]);
        check_against_seq(&PsoMachine, &name, &prog, &[1, 2, 8]);
        check_against_seq(&NetReorderMachine, &name, &prog, &[1, 2, 8]);
        check_against_seq(&CacheDelayMachine, &name, &prog, &[1, 2, 8]);
        check_against_seq(&WoDef1Machine, &name, &prog, &[1, 2, 8]);
        check_against_seq(&WoDef2Machine::default(), &name, &prog, &[1, 2, 8]);
    }
}

/// Corpus sample × {reduce off, reduce on}: the reduced engines prune
/// states but must preserve outcome and deadlock sets, and the
/// lock-free full engine must agree exactly with the sequential full
/// engine on every shape. TSO and PSO cover the buffer-heavy machines
/// the corpus was built to separate.
#[test]
fn corpus_sample_matches_seq_with_and_without_reduction() {
    let sample = corpus_sample();
    assert!(sample.len() >= 20, "sample unexpectedly small: {}", sample.len());
    fn check<M: Machine>(m: &M, name: &str, prog: &Program) {
        let seq = explore_seq(m, prog, limits(1));
        assert!(!seq.truncated(), "{name} on {}: truncated", m.name());
        for t in [2, 8] {
            let par = explore(m, prog, limits(t));
            assert_eq!(par, seq, "{name} on {} @ {t} threads", m.name());
        }
        // Reduction prunes states, never outcomes or deadlocks.
        let mut red_limits = limits(1);
        red_limits.reduction = Reduction::Sleep;
        let red = explore(m, prog, red_limits);
        assert!(!red.truncated(), "{name} on {} reduced: truncated", m.name());
        assert_eq!(red.outcomes, seq.outcomes, "{name} on {} reduced outcomes", m.name());
        assert_eq!(red.deadlocks, seq.deadlocks, "{name} on {} reduced deadlocks", m.name());
        assert!(red.states <= seq.states, "{name} on {}: reduction grew states", m.name());
    }
    for (name, prog) in &sample {
        check(&ScMachine, name, prog);
        check(&TsoMachine, name, prog);
        check(&PsoMachine, name, prog);
    }
}

/// Semantic determinism across repeated runs and thread counts: five
/// repetitions at each of 1/2/8 threads all produce one identical
/// `Exploration` (outcome order is a `BTreeSet`, so even stdout is
/// deterministic).
#[test]
fn results_are_deterministic_across_runs_and_thread_counts() {
    let shapes = [litmus::fig1_dekker(), litmus::iriw()];
    for lit in &shapes {
        let reference = explore_seq(&WoDef2Machine::default(), &lit.program, limits(1));
        for threads in [1, 2, 8] {
            for rep in 0..5 {
                let ex = explore(&WoDef2Machine::default(), &lit.program, limits(threads));
                assert_eq!(ex, reference, "{} @ {threads} threads, repetition {rep}", lit.name);
            }
        }
    }
}

/// The disk-spill acceptance property at integration scale: a budget
/// far below the state space's footprint forces (nearly) every payload
/// to disk, and the results are identical to the unspilled run — on a
/// buffer-heavy machine whose state space comfortably exceeds the
/// budget.
#[test]
fn spill_forced_run_matches_in_ram_run() {
    let lit = litmus::iriw();
    let plain = explore(&TsoMachine, &lit.program, limits(2));
    assert!(!plain.truncated());
    let mut budgeted = limits(2);
    budgeted.memory_budget = Some(1); // below even the level-0 tables
    let spilled = explore(&TsoMachine, &lit.program, budgeted);
    assert_eq!(spilled, plain, "a memory budget must never change semantics");
    assert_eq!(
        spilled.stats.spilled_states as usize, spilled.states,
        "budget of 1 byte sends every payload to disk"
    );
    assert!(spilled.stats.spill_bytes > 0);
    assert_eq!(spilled.stats.mem_bytes, 0);
    // And a realistic budget: roomy enough to keep early states in RAM,
    // small enough that the run must spill the rest.
    let mut partial = limits(2);
    partial.memory_budget = Some(200 * 1024); // tables are ~170 KiB
    let part = explore(&TsoMachine, &lit.program, partial);
    assert_eq!(part, plain);
    assert!(
        part.stats.spilled_states > 0,
        "budget chosen to overflow: {} states resident, {} spilled",
        part.stats.mem_bytes,
        part.stats.spilled_states
    );
    assert!(part.stats.mem_bytes > 0, "early admissions stay resident");
}

/// Up to `cap` states reachable on `prog`, depth first.
fn reachable<M: Machine>(m: &M, prog: &Program, cap: usize) -> Vec<M::State> {
    let mut seen = HashSet::new();
    let mut order = Vec::new();
    let mut stack = vec![m.initial(prog)];
    let mut succ = Vec::new();
    while let Some(state) = stack.pop() {
        if order.len() == cap {
            break;
        }
        if !seen.insert(state.clone()) {
            continue;
        }
        succ.clear();
        m.successors(prog, &state, &mut succ);
        stack.extend(succ.drain(..).map(|(_, s)| s));
        order.push(state);
    }
    order
}

/// Programs of shapes no test program has: five threads over five
/// locations, and one thread over one. Their writes keep buffers and
/// pending lists non-empty in the states a dirty pool is filled with.
fn filler_programs() -> [Program; 2] {
    let wide = (0..5u32)
        .map(|t| {
            let mut b = ThreadBuilder::new();
            b.write(Loc::new(t), 1u64);
            b.write(Loc::new((t + 1) % 5), 2u64);
            b.read(Reg::new(0), Loc::new((t + 2) % 5));
            b.halt();
            b.finish()
        })
        .collect();
    let mut b = ThreadBuilder::new();
    b.write(Loc::new(0), 1u64);
    b.write(Loc::new(0), 2u64);
    b.halt();
    [
        Program::new("filler-wide", wide, 5).expect("valid filler"),
        Program::new("filler-narrow", vec![b.finish()], 1).expect("valid filler"),
    ]
}

/// Recycled pool states must be invisible. From a pool pre-filled with
/// states of other shapes and non-empty queues, `successors_into` yields
/// exactly the labels and states of `successors` (fresh clones), in the
/// same order, at every state visited — so a `clone_from` that skips a
/// field, or a successor that reads its scratch state's old contents,
/// fails here.
#[test]
fn dirty_pool_successors_equal_fresh_successors() {
    const VISIT: usize = 150;
    fn check<M: Machine>(m: &M, programs: &[(String, Program)], fillers: &[Program]) {
        // The largest encodings: the states with the most queued.
        let mut dirty: Vec<M::State> = fillers.iter().flat_map(|f| reachable(m, f, 400)).collect();
        let size = |s: &M::State| {
            let mut buf = Vec::new();
            s.encode(&mut buf);
            buf.len()
        };
        dirty.sort_by_cached_key(|s| std::cmp::Reverse(size(s)));
        dirty.truncate(12);
        dirty.extend(reachable(m, &fillers[1], 4));
        let (mut fresh, mut pooled, mut pool) = (Vec::new(), Vec::new(), Vec::new());
        for (name, prog) in programs {
            for state in reachable(m, prog, VISIT) {
                fresh.clear();
                m.successors(prog, &state, &mut fresh);
                pooled.clear();
                pool.clone_from(&dirty);
                m.successors_into(prog, &state, &mut pooled, &mut pool);
                assert!(
                    pooled == fresh,
                    "{} on {name}: successors_into over a dirty pool differs from successors \
                     at {state:?}",
                    m.name()
                );
            }
        }
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/litmus/");
    let mut programs: Vec<(String, Program)> =
        litmus_programs().into_iter().filter(|(name, _)| name.starts_with(dir)).collect();
    assert!(!programs.is_empty(), "no .litmus files found in {dir}");
    programs.extend(corpus_sample());
    let fillers = filler_programs();
    for &name in NAMES {
        with_machine!(name, |m| check(&m, &programs, &fillers), other => unreachable!("{other}"));
    }
    check(&BnrMachine, &programs, &fillers);
}

/// Wraps a machine so that every expansion naps until a second thread
/// has expanded a state: whichever worker holds the root keeps it while
/// its peer runs out of work and goes idle, on any number of CPUs.
struct HandOff<M> {
    inner: M,
    /// Threads that have expanded a state, in order of first expansion.
    threads: Mutex<Vec<ThreadId>>,
    /// Naps taken; bounded so an engine that never hands work over
    /// fails the test instead of hanging it.
    naps: AtomicUsize,
}

impl<M> HandOff<M> {
    const MAX_NAPS: usize = 1000;

    fn new(inner: M) -> Self {
        HandOff { inner, threads: Mutex::new(Vec::new()), naps: AtomicUsize::new(0) }
    }

    fn expanding_threads(&self) -> usize {
        self.threads.lock().expect("no expansion panics").len()
    }
}

impl<M: Machine> Machine for HandOff<M> {
    type State = M::State;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn initial(&self, prog: &Program) -> M::State {
        self.inner.initial(prog)
    }

    fn successors_into(
        &self,
        prog: &Program,
        state: &M::State,
        out: &mut Vec<(Label, M::State)>,
        pool: &mut Vec<M::State>,
    ) {
        let alone = {
            let mut threads = self.threads.lock().expect("no expansion panics");
            let me = std::thread::current().id();
            if !threads.contains(&me) {
                threads.push(me);
            }
            threads.len() < 2
        };
        if alone && self.naps.fetch_add(1, Ordering::SeqCst) < Self::MAX_NAPS {
            std::thread::sleep(Duration::from_millis(5));
        }
        self.inner.successors_into(prog, state, out, pool);
    }

    fn outcome(&self, prog: &Program, state: &M::State) -> Option<Outcome> {
        self.inner.outcome(prog, state)
    }

    fn threads<'a>(&self, state: &'a M::State) -> &'a [ThreadState] {
        self.inner.threads(state)
    }

    fn reduction_class(&self) -> ReductionClass {
        self.inner.reduction_class()
    }
}

/// The stealing path really runs. IRIW's spine never comes near the
/// 1,024-state hot tail, so no id reaches a deque by overflow; a worker
/// whose peer is idle must park half its hot tail for the peer to
/// steal. `HandOff` makes the peer go idle first, so both workers
/// expand states and `steals > 0` on one CPU as on many. One worker has
/// no peer and never steals. Both runs equal the sequential reference.
#[test]
fn an_idle_peer_steals_from_a_hot_tail_that_never_overflows() {
    let prog = litmus::iriw().program;
    let seq = explore_seq(&ScMachine, &prog, limits(1));
    let m = HandOff::new(ScMachine);
    let two = explore(&m, &prog, limits(2));
    assert_eq!(two, seq, "2 workers vs explore_seq");
    assert!(two.stats.steals > 0, "the idle peer stole nothing: {}", two.stats);
    assert_eq!(m.expanding_threads(), 2, "both workers expanded states: {}", two.stats);
    let one = explore(&ScMachine, &prog, limits(1));
    assert_eq!(one, seq, "1 worker vs explore_seq");
    assert_eq!(one.stats.steals, 0, "a lone worker has nobody to steal from");
}
