//! Parallel vs sequential exploration, measured — now with reduction.
//!
//! Explores Dekker-style mutual exclusion on the Section 5
//! weak-ordering machine with the sequential reference engine and the
//! parallel engine at increasing worker counts, verifying that the
//! semantic results are identical and printing each run's
//! [`ExplorationStats`]. Each subject is then re-explored under
//! partial-order reduction ([`Limits::reduced`], the ample-set
//! reduction, in both engines), asserting that the reduced search
//! reaches the same outcome and deadlock sets while visiting fewer
//! states.
//!
//! On a multicore host the large subject shows the parallel engine
//! overtaking the DFS; on a single hardware thread it degrades to a
//! constant-factor overhead (the engines always agree either way).
//! The contended spinlock is sync-heavy, which is exactly where the
//! `wo-bnr` machine's global-drain gate makes pending deliveries
//! commute: the reduced search is asserted to visit at most a third of
//! the full search's states there.
//!
//! ```text
//! cargo run --release --example parallel_explore             # full measurement
//! cargo run --release --example parallel_explore -- --smoke  # quick CI smoke
//! ```

use weakord::mc::machines::{BnrMachine, WoDef2Machine};
use weakord::mc::{explore, explore_seq, Limits, Machine};
use weakord::progs::workloads::{spinlock, SpinlockParams};
use weakord::progs::{litmus, Program};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Two subjects: the paper's Figure 1 Dekker fragment (tiny — shows
    // the engines agree and that parallel overhead on a 77-state space
    // is survivable), and a contended spinlock (the same
    // mutual-exclusion idiom scaled up until the state space is large
    // enough that workers outrun the sequential DFS).
    let dekker = litmus::fig1_dekker().program;
    let contended = spinlock(SpinlockParams {
        n_procs: 3,
        sections_per_proc: if smoke { 1 } else { 2 },
        writes_per_section: 2,
        think: 0,
    });
    report(&WoDef2Machine::default(), "dekker (fig. 1)", &dekker, 1);
    report(&WoDef2Machine::default(), "spinlock x3 (scaled Dekker idiom)", &contended, 2);
    // The acceptance subject for the reduction layer: on the sync-heavy
    // spinlock the `wo-bnr` buffer-and-reserve machine must shrink at
    // least threefold under reduction.
    report(&BnrMachine, "spinlock x3 (scaled Dekker idiom)", &contended, 3);
}

fn report<M: Machine>(machine: &M, name: &str, prog: &Program, min_shrink: usize) {
    println!("== {name} on `{}` ==", machine.name());
    let seq = explore_seq(machine, prog, Limits::default());
    println!("  seq      {}", seq.stats);
    assert!(!seq.truncated(), "subject should fit the state cap");
    let mut best = 0.0f64;
    for threads in [1, 2, 4, 8] {
        let par = explore(machine, prog, Limits::with_threads(threads));
        assert_eq!(par, seq, "parallel and sequential engines must produce identical results");
        let speedup = par.stats.states_per_sec() / seq.stats.states_per_sec();
        best = best.max(speedup);
        println!("  par x{threads:<2}   {}  ({speedup:.2}x vs seq)", par.stats);
    }
    // Partial-order reduction: the ample-set search must reach exactly
    // the reachable outcome and deadlock sets of the full search, in
    // fewer states, and the engine must agree with the reference DFS
    // under the same reduction.
    let red = explore(machine, prog, Limits { threads: 4, ..Limits::reduced() });
    let red_seq = explore_seq(machine, prog, Limits::reduced());
    assert_eq!(red, red_seq, "reduced engines must produce identical results");
    assert_eq!(red.outcomes, seq.outcomes, "reduction must preserve outcomes");
    assert_eq!(red.deadlocks, seq.deadlocks, "reduction must preserve deadlocks");
    assert!(red.states <= seq.states, "reduction must not grow the search");
    assert!(
        red.states * min_shrink <= seq.states,
        "reduced search visited {} of {} states; expected at most 1/{min_shrink}",
        red.states,
        seq.states
    );
    println!("  seq red. {}", red_seq.stats);
    println!(
        "  red. x4  {}  ({:.2}x fewer states)",
        red.stats,
        seq.states as f64 / red.states as f64
    );
    println!("  best parallel speedup: {best:.2}x");
    println!();
}
