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

use weakord::mc::machines::{
    CacheDelayMachine, NetReorderMachine, PsoMachine, ScMachine, TsoMachine, WoDef1Machine,
    WoDef2Machine, WriteBufferMachine,
};
use weakord::mc::{explore, explore_seq, Limits, Machine, Reduction};
use weakord::progs::{gen, litmus, parse_program, Program};

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
/// threads (1 exercises the in-place path, 2 the stealing path, 8
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
