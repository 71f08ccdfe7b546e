//! Property tests spanning the crates: the cycle-level machine is
//! deterministic, terminates, respects Lemma 1 on race-free programs,
//! and produces sequentially consistent results under the SC policy —
//! for randomly generated programs, policies, seeds, and network
//! parameters.

use weakord::coherence::{CoherentMachine, Config, NetModel, Policy, RunResult, SyncPolicy};
use weakord::core::HbMode;
use weakord::progs::gen::{race_free, racy, GenParams};
use weakord::progs::Program;
use weakord::sim::{check_cases, SimRng};

/// One of five policies with equal odds, the last a `Def2` with a miss
/// cap of 1–3.
fn any_policy(rng: &mut SimRng) -> Policy {
    match rng.range(0..=4) {
        0 => Policy::Sc,
        1 => Policy::Def1,
        2 => Policy::def2(),
        3 => Policy::def2_drf1(),
        _ => Policy::Def2 {
            drf1_refined: false,
            miss_cap: Some(rng.range(1..=3) as u32),
            sync: SyncPolicy::Queue,
        },
    }
}

/// A bus, crossbar or general network with equal odds.
fn any_network(rng: &mut SimRng) -> NetModel {
    match rng.range(0..=2) {
        0 => NetModel::Bus { cycles: rng.range(1..=9) },
        1 => NetModel::Crossbar { cycles: rng.range(1..=29) },
        _ => NetModel::General { min: rng.range(1..=39), max: rng.range(40..=199) },
    }
}

fn run(prog: &Program, policy: Policy, network: NetModel, seed: u64, trace: bool) -> RunResult {
    let cfg = Config { policy, network, seed, record_trace: trace, ..Config::default() };
    CoherentMachine::new(prog, cfg)
        .run()
        .unwrap_or_else(|e| panic!("{} under {}: {e}", prog.name, policy.name()))
}

/// Same program, policy, network and seed: identical results,
/// cycle counts and message counters.
#[test]
fn runs_are_deterministic() {
    check_cases("runs_are_deterministic", 24, |rng| {
        let prog = race_free(rng.range(0..=49), GenParams::default());
        let (policy, network, seed) = (any_policy(rng), any_network(rng), rng.range(0..=999));
        let a = run(&prog, policy, network, seed, false);
        let b = run(&prog, policy, network, seed, false);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.counters, b.counters);
    });
}

/// Race-free programs appear sequentially consistent (Lemma 1) on
/// every policy, schedule and network.
#[test]
fn race_free_programs_satisfy_lemma_1() {
    check_cases("race_free_programs_satisfy_lemma_1", 24, |rng| {
        let prog = race_free(rng.range(0..=49), GenParams::default());
        let (policy, network, seed) = (any_policy(rng), any_network(rng), rng.range(0..=999));
        let r = run(&prog, policy, network, seed, true);
        let mode = if policy == Policy::def2_drf1() { HbMode::Drf1 } else { HbMode::Drf0 };
        r.check_appears_sc(mode).unwrap();
    });
}

/// Even racy programs terminate and leave the system drained.
#[test]
fn racy_programs_terminate() {
    check_cases("racy_programs_terminate", 24, |rng| {
        let prog = racy(rng.range(0..=49), GenParams::default());
        let (policy, seed) = (any_policy(rng), rng.range(0..=999));
        let r = run(&prog, policy, NetModel::General { min: 5, max: 100 }, seed, false);
        assert!(r.cycles > 0 || prog.memory_instr_count() == 0);
    });
}

/// The SC policy satisfies Lemma 1 even for racy programs whose
/// races the witness can order (reads always return the latest
/// committed value when every access is globally performed in
/// order) — at minimum, it never deadlocks and matches its own
/// rerun.
#[test]
fn sc_policy_is_reproducible_on_racy_programs() {
    check_cases("sc_policy_is_reproducible_on_racy_programs", 24, |rng| {
        let prog = racy(rng.range(0..=49), GenParams::default());
        let seed = rng.range(0..=999);
        let a = run(&prog, Policy::Sc, NetModel::General { min: 5, max: 100 }, seed, false);
        let b = run(&prog, Policy::Sc, NetModel::General { min: 5, max: 100 }, seed, false);
        assert_eq!(a.outcome, b.outcome);
    });
}

/// Under the SC policy, the observed execution of ANY program —
/// including racy ones — must be directly serializable: some total
/// order consistent with program order replays the exact observed
/// read values. This checks the SC policy against Lamport's
/// definition itself, not just against outcome sets.
#[test]
fn sc_policy_executions_are_serializable() {
    check_cases("sc_policy_executions_are_serializable", 16, |rng| {
        let (prog_seed, seed) = (rng.range(0..=39), rng.range(0..=499));
        let prog = if rng.chance(0.5) {
            racy(prog_seed, GenParams::default())
        } else {
            race_free(prog_seed, GenParams::default())
        };
        let r = run(&prog, Policy::Sc, NetModel::General { min: 5, max: 60 }, seed, true);
        let exec = r.execution.as_ref().expect("traced");
        assert!(
            weakord::core::is_execution_serializable(exec),
            "{}: SC policy produced a non-serializable execution",
            prog.name
        );
    });
}

/// Agreement of the two per-execution criteria on race-free
/// programs: whenever Lemma 1 accepts a weakly-ordered run, the
/// execution is also directly serializable.
#[test]
fn lemma_1_acceptance_implies_serializability() {
    check_cases("lemma_1_acceptance_implies_serializability", 16, |rng| {
        let prog = race_free(rng.range(0..=39), GenParams::default());
        let seed = rng.range(0..=499);
        let r = run(&prog, Policy::def2(), NetModel::General { min: 5, max: 60 }, seed, true);
        r.check_appears_sc(HbMode::Drf0).unwrap();
        let exec = r.execution.as_ref().expect("traced");
        assert!(weakord::core::is_execution_serializable(exec));
    });
}
