//! Crash-tolerance conformance: kill/resume equivalence, worker panic
//! isolation, and checkpoint corruption handling.
//!
//! The contract under test: killing an exploration at *any* checkpoint
//! boundary and resuming it produces exactly the outcome set, state
//! count, and deadlock count of an uninterrupted run — for every
//! shipped litmus file and both reduction modes (with and without
//! ample sets), all through the one `run` entry point. The crash is injected
//! deterministically with [`CheckpointCfg::abort_after`], and the
//! resumed run is itself re-killed at its next checkpoint, so one loop
//! exercises every checkpoint boundary the run ever reaches.

use std::fs;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use weakord::mc::machines::{ScMachine, WoDef2Machine};
use weakord::mc::{
    explore, run, Checkpoint, CheckpointCfg, CheckpointError, Exploration, Label, Limits, Machine,
    Opts, Reduction, TruncationReason,
};
use weakord::progs::{litmus, parse_program, Outcome, Program, ThreadState};

fn shipped_litmus_programs() -> Vec<Program> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/litmus");
    let mut progs = Vec::new();
    for entry in fs::read_dir(dir).expect("litmus/ exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("litmus") {
            continue;
        }
        let src = fs::read_to_string(&path).expect("readable");
        progs.push(parse_program(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display())));
    }
    progs.sort_by(|a, b| a.name.cmp(&b.name));
    assert!(progs.len() >= 7, "expected the shipped sample files, found {}", progs.len());
    progs
}

/// One checkpointed leg: a fresh start, or a resume of `cfg`'s file.
fn leg<M: Machine>(
    m: &M,
    prog: &Program,
    limits: Limits,
    cfg: &CheckpointCfg,
    resume: bool,
) -> Result<Exploration, CheckpointError> {
    let checkpoint = if resume { Checkpoint::Resume(cfg) } else { Checkpoint::Fresh(cfg) };
    run(m, prog, limits, &Opts { checkpoint, ..Opts::default() })
}

fn tmp_ckpt_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("weakord-resume-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Semantic equality: everything an uninterrupted run guarantees.
fn assert_equivalent(resumed: &Exploration, oracle: &Exploration, ctx: &str) {
    assert_eq!(resumed.outcomes, oracle.outcomes, "{ctx}: outcome sets differ");
    assert_eq!(resumed.states, oracle.states, "{ctx}: state counts differ");
    assert_eq!(resumed.deadlocks, oracle.deadlocks, "{ctx}: deadlock counts differ");
    assert_eq!(
        resumed.stats.distinct_states, oracle.stats.distinct_states,
        "{ctx}: distinct_states differ"
    );
    assert_eq!(resumed.stats.truncation, None, "{ctx}: resumed run must complete");
}

/// Kills the run at its first checkpoint, then re-kills every resumed
/// leg at *its* first checkpoint, until the run completes — covering
/// every checkpoint boundary of the whole exploration.
#[test]
fn kill_resume_equivalence_across_litmus_files() {
    for prog in shipped_litmus_programs() {
        for reduction in [Reduction::Full, Reduction::Ample] {
            let m = WoDef2Machine::default();
            let limits = Limits { threads: 2, reduction, ..Limits::default() };
            let oracle = explore(&m, &prog, limits);
            let ctx = format!("{} ({reduction:?})", prog.name);
            let dir = tmp_ckpt_dir(&format!("{}-{reduction:?}", prog.name));
            let mut cfg = CheckpointCfg::every(&dir, 40);
            cfg.abort_after = Some(1);
            let mut ex = leg(&m, &prog, limits, &cfg, false)
                .unwrap_or_else(|e| panic!("{ctx}: first leg: {e}"));
            let mut legs = 0;
            while ex.stats.truncation == Some(TruncationReason::Resumable) {
                legs += 1;
                assert!(legs < 10_000, "{ctx}: resume loop did not converge");
                ex = leg(&m, &prog, limits, &cfg, true)
                    .unwrap_or_else(|e| panic!("{ctx}: leg {legs}: {e}"));
            }
            assert_equivalent(&ex, &oracle, &ctx);
            // A redundant resume of the *completed* checkpoint is a
            // no-op returning the same final answer.
            let again = leg(&m, &prog, limits, &cfg, true)
                .unwrap_or_else(|e| panic!("{ctx}: idempotent resume: {e}"));
            assert_equivalent(&again, &oracle, &format!("{ctx} (idempotent resume)"));
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

/// Resuming under a different configuration must refuse cleanly.
#[test]
fn resume_refuses_mismatched_configuration() {
    let prog = litmus::fig1_dekker().program;
    let other = litmus::iriw().program;
    let m = WoDef2Machine::default();
    let dir = tmp_ckpt_dir("mismatch");
    let mut cfg = CheckpointCfg::every(&dir, 30);
    cfg.abort_after = Some(1);
    leg(&m, &prog, Limits::default(), &cfg, false).expect("first leg");
    // Different program.
    match leg(&m, &other, Limits::default(), &cfg, true) {
        Err(CheckpointError::ConfigMismatch { .. }) => {}
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
    // Different machine.
    match leg(&ScMachine, &prog, Limits::default(), &cfg, true) {
        Err(CheckpointError::ConfigMismatch { .. }) => {}
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
    // Different state cap.
    match leg(&m, &prog, Limits::with_max_states(7), &cfg, true) {
        Err(CheckpointError::ConfigMismatch { .. }) => {}
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
    // Different reduction mode (an ample-set resume of a full
    // checkpoint): the mode is part of the fingerprint.
    match leg(&m, &prog, Limits::reduced(), &cfg, true) {
        Err(CheckpointError::ConfigMismatch { .. }) => {}
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A corrupted checkpoint is a clean, actionable error — never a panic.
#[test]
fn corrupted_checkpoints_fail_cleanly() {
    let prog = litmus::fig1_dekker().program;
    let m = WoDef2Machine::default();
    let dir = tmp_ckpt_dir("corrupt");
    let cfg = CheckpointCfg::every(&dir, 0);
    leg(&m, &prog, Limits::default(), &cfg, false).expect("run");
    let file = cfg.file();
    let good = fs::read(&file).expect("checkpoint written");

    // Flip one payload byte: checksum failure.
    let mut bad = good.clone();
    let i = bad.len() - 3;
    bad[i] ^= 0xFF;
    fs::write(&file, &bad).unwrap();
    match leg(&m, &prog, Limits::default(), &cfg, true) {
        Err(CheckpointError::BadChecksum { .. }) => {}
        other => panic!("expected BadChecksum, got {other:?}"),
    }

    // Unknown format version (checksum recomputed to isolate the check).
    let mut bad = good.clone();
    bad[6] = 99;
    fs::write(&file, &bad).unwrap();
    match leg(&m, &prog, Limits::default(), &cfg, true) {
        Err(CheckpointError::BadVersion(99)) => {}
        other => panic!("expected BadVersion, got {other:?}"),
    }

    // Not a checkpoint at all.
    fs::write(&file, b"not a checkpoint").unwrap();
    match leg(&m, &prog, Limits::default(), &cfg, true) {
        Err(CheckpointError::BadMagic) => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }

    // Truncated mid-payload, with a checksum matching the truncation
    // (simulates a torn-but-self-consistent file): malformed, not panic.
    let keep = good.len() / 2;
    let mut torn = good[..keep].to_vec();
    let sum = weakord::mc::checkpoint::fnv1a(&torn[16..]);
    torn[8..16].copy_from_slice(&sum.to_le_bytes());
    fs::write(&file, &torn).unwrap();
    match leg(&m, &prog, Limits::default(), &cfg, true) {
        Err(CheckpointError::Malformed(_)) => {}
        other => panic!("expected Malformed, got {other:?}"),
    }

    // Missing file: an I/O error naming the path.
    fs::remove_file(&file).unwrap();
    match leg(&m, &prog, Limits::default(), &cfg, true) {
        Err(CheckpointError::Io(p, _)) => assert_eq!(p, file),
        other => panic!("expected Io, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Worker panic isolation.
// ---------------------------------------------------------------------

/// Delegates to [`ScMachine`] but panics inside `successors` under a
/// test-controlled policy — the fault model for panic-isolation tests.
struct PanickyMachine {
    /// Panic on the nth, (n+1)th, … expansion calls.
    panic_from: usize,
    /// If true, panic only once; later calls succeed (a transient
    /// fault). If false, every call from `panic_from` on panics (all
    /// workers eventually die).
    one_shot: bool,
    calls: AtomicUsize,
    fired: AtomicBool,
}

impl PanickyMachine {
    fn new(panic_from: usize, one_shot: bool) -> Self {
        PanickyMachine {
            panic_from,
            one_shot,
            calls: AtomicUsize::new(0),
            fired: AtomicBool::new(false),
        }
    }
}

impl Machine for PanickyMachine {
    type State = <ScMachine as Machine>::State;

    fn name(&self) -> &'static str {
        "panicky-sc"
    }

    fn initial(&self, prog: &Program) -> Self::State {
        ScMachine.initial(prog)
    }

    fn successors_into(
        &self,
        prog: &Program,
        state: &Self::State,
        out: &mut Vec<(Label, Self::State)>,
        pool: &mut Vec<Self::State>,
    ) {
        let n = self.calls.fetch_add(1, Ordering::SeqCst);
        if n >= self.panic_from && (!self.one_shot || !self.fired.swap(true, Ordering::SeqCst)) {
            panic!("injected worker fault at expansion {n}");
        }
        ScMachine.successors_into(prog, state, out, pool);
    }

    fn outcome(&self, prog: &Program, state: &Self::State) -> Option<Outcome> {
        ScMachine.outcome(prog, state)
    }

    fn threads<'a>(&self, state: &'a Self::State) -> &'a [ThreadState] {
        ScMachine.threads(state)
    }
}

/// A transient panic retires one worker; the survivors finish the whole
/// exploration, the result matches the oracle, and the stats report the
/// absorbed panic without marking the run truncated.
#[test]
fn transient_worker_panic_degrades_without_losing_states() {
    let prog = litmus::iriw().program;
    let oracle = explore(&ScMachine, &prog, Limits::with_threads(2));
    let m = PanickyMachine::new(25, true);
    let ex = explore(&m, &prog, Limits::with_threads(2));
    assert_eq!(ex.stats.worker_panics, 1, "the panic is recorded");
    assert_eq!(ex.stats.truncation, None, "a survivable panic does not truncate");
    assert_eq!(ex.outcomes, oracle.outcomes);
    assert_eq!(ex.states, oracle.states);
    assert_eq!(ex.deadlocks, oracle.deadlocks);
}

/// When every worker dies, the run still neither aborts the process nor
/// deadlocks: it returns a lower bound marked `WorkerPanic`. Periodic
/// saves do not keep a dying run alive: each one needs `every` new
/// admissions, and the workers of the last segment all die.
#[test]
fn total_worker_death_reports_worker_panic_truncation() {
    let prog = litmus::iriw().program;
    let dir = tmp_ckpt_dir("total-death");
    let cfg = CheckpointCfg::every(&dir, 3);
    for threads in [1, 2, 4] {
        let m = PanickyMachine::new(25, false);
        let ex = explore(&m, &prog, Limits::with_threads(threads));
        assert_eq!(ex.stats.truncation, Some(TruncationReason::WorkerPanic), "{threads} threads");
        assert!(ex.truncated());
        assert_eq!(ex.stats.worker_panics as usize, threads, "every worker died once");
        assert!(ex.states > 0, "the partial visited set survives the panics");
        let m = PanickyMachine::new(25, false);
        let ex = leg(&m, &prog, Limits::with_threads(threads), &cfg, false).expect("checkpoint IO");
        let what = format!("checkpointed, {threads} threads");
        assert_eq!(ex.stats.truncation, Some(TruncationReason::WorkerPanic), "{what}");
        assert_eq!(ex.stats.worker_panics as usize, threads, "{what}: every worker died once");
        assert!(ex.stats.checkpoints > 1, "{what}: {} checkpoints", ex.stats.checkpoints);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A panic mid-run does not poison the shard locks for a later pass:
/// the same engine data structures keep working (lock_clean absorbs
/// mutex poison), so a follow-up exploration is untainted.
#[test]
fn panics_do_not_poison_subsequent_runs() {
    let prog = litmus::fig1_dekker().program;
    let m = PanickyMachine::new(10, true);
    let _ = explore(&m, &prog, Limits::with_threads(2));
    // Fresh run on the same (now quiet) machine wrapper: full answer.
    let oracle = explore(&ScMachine, &prog, Limits::with_threads(2));
    let again = explore(&m, &prog, Limits::with_threads(2));
    assert_eq!(again.outcomes, oracle.outcomes);
    assert_eq!(again.states, oracle.states);
}

/// Checkpointing and panic isolation compose: a kill-and-resume over a
/// machine that panicked transiently still converges to the oracle.
#[test]
fn checkpointed_run_with_transient_panic_resumes_to_oracle() {
    let prog = litmus::iriw().program;
    let oracle = explore(&ScMachine, &prog, Limits::with_threads(2));
    let dir = tmp_ckpt_dir("panic-resume");
    let mut cfg = CheckpointCfg::every(&dir, 50);
    cfg.abort_after = Some(1);
    let m = PanickyMachine::new(30, true);
    let mut ex = leg(&m, &prog, Limits::with_threads(2), &cfg, false).expect("first leg");
    let mut legs = 0;
    while ex.stats.truncation == Some(TruncationReason::Resumable) {
        legs += 1;
        assert!(legs < 10_000);
        ex = leg(&m, &prog, Limits::with_threads(2), &cfg, true).expect("resume");
    }
    assert_eq!(ex.outcomes, oracle.outcomes);
    assert_eq!(ex.states, oracle.states);
    assert_eq!(ex.deadlocks, oracle.deadlocks);
    let _ = fs::remove_dir_all(&dir);
}
