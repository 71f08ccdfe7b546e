//! Property tests over the operational machine models: the lattice of
//! relaxations the paper's Figure 1 implies, checked on randomly
//! generated programs rather than hand-picked litmus tests.

use std::sync::atomic::{AtomicUsize, Ordering};

use weakord_core::HbMode;
use weakord_mc::fxhash::hash_bytes;
use weakord_mc::machines::{
    BnrMachine, CacheDelayMachine, ScMachine, TsoMachine, WoDef1Machine, WoDef2Machine,
    WriteBufferMachine,
};
use weakord_mc::visited::{Admit, VisitedSet};
use weakord_mc::{check_program_drf, explore, explore_seq, Limits, TraceLimits};
use weakord_progs::gen::{race_free, racy, GenParams};
use weakord_progs::Program;
use weakord_sim::{check_cases, SimRng};

const CASES: u32 = 24;

fn small() -> GenParams {
    GenParams {
        n_procs: 2,
        n_locks: 1,
        data_per_lock: 1,
        transactions_per_thread: 2,
        accesses_per_transaction: 2,
    }
}

/// A small generated program from a seed in 0..200, racy or race-free
/// with equal odds.
fn any_program(rng: &mut SimRng) -> Program {
    let seed = rng.range(0..=199);
    if rng.chance(0.5) {
        racy(seed, small())
    } else {
        race_free(seed, small())
    }
}

/// Exploration is deterministic: same program, same outcome set and
/// state count.
#[test]
fn exploration_is_deterministic() {
    check_cases("exploration_is_deterministic", CASES, |rng| {
        let prog = any_program(rng);
        let a = explore(&WoDef2Machine::default(), &prog, Limits::default());
        let b = explore(&WoDef2Machine::default(), &prog, Limits::default());
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.states, b.states);
    });
}

/// Every machine's outcome set contains SC's (weakening hardware
/// only adds behaviours), for arbitrary generated programs.
#[test]
fn every_machine_is_a_superset_of_sc() {
    check_cases("every_machine_is_a_superset_of_sc", CASES, |rng| {
        let prog = any_program(rng);
        let sc = explore(&ScMachine, &prog, Limits::default());
        assert!(!sc.truncated());
        macro_rules! sup {
            ($m:expr) => {{
                let ex = explore(&$m, &prog, Limits::default());
                assert!(
                    ex.outcomes.is_superset(&sc.outcomes),
                    "{} lost SC outcomes on {}",
                    weakord_mc::Machine::name(&$m),
                    prog.name
                );
                assert_eq!(ex.deadlocks, 0);
            }};
        }
        sup!(WriteBufferMachine);
        sup!(CacheDelayMachine);
        sup!(BnrMachine);
        sup!(WoDef1Machine);
        sup!(WoDef2Machine::default());
    });
}

/// The ordering-strength chain on every program:
/// BNR ⊆ Def1 ⊆ Def2 (each stronger machine's behaviours are
/// reproducible by the weaker one).
#[test]
fn strength_chain_bnr_def1_def2() {
    check_cases("strength_chain_bnr_def1_def2", CASES, |rng| {
        let prog = any_program(rng);
        let bnr = explore(&BnrMachine, &prog, Limits::default());
        let d1 = explore(&WoDef1Machine, &prog, Limits::default());
        let d2 = explore(&WoDef2Machine::default(), &prog, Limits::default());
        assert!(bnr.outcomes.is_subset(&d1.outcomes), "{}", prog.name);
        assert!(d1.outcomes.is_subset(&d2.outcomes), "{}", prog.name);
    });
}

/// The partial-order reduction on random programs: for every seeded
/// generated program — race-free and racy alike — the reduced
/// search produces exactly the full search's outcome and deadlock
/// observations on every machine, in no more states.
#[test]
fn reduced_search_agrees_on_random_programs() {
    check_cases("reduced_search_agrees_on_random_programs", CASES, |rng| {
        let prog = any_program(rng);
        macro_rules! agree {
            ($m:expr) => {{
                let full = explore_seq(&$m, &prog, Limits::default());
                let red = explore(&$m, &prog, Limits::reduced());
                assert_eq!(
                    &red.outcomes,
                    &full.outcomes,
                    "{} on {}",
                    weakord_mc::Machine::name(&$m),
                    prog.name
                );
                assert_eq!(red.deadlocks, full.deadlocks);
                assert!(red.states <= full.states);
            }};
        }
        agree!(ScMachine);
        agree!(WriteBufferMachine);
        agree!(CacheDelayMachine);
        agree!(BnrMachine);
        agree!(WoDef1Machine);
        agree!(WoDef2Machine::default());
    });
}

/// Lock-disciplined (race-free) generated programs are sync-heavy,
/// which is what the ample rules exploit: the reduced search must
/// shrink strictly on at least one machine.
#[test]
fn race_free_programs_shrink_strictly_somewhere() {
    check_cases("race_free_programs_shrink_strictly_somewhere", CASES, |rng| {
        let prog = race_free(rng.range(0..=199), small());
        macro_rules! shrinks {
            ($m:expr) => {{
                let full = explore_seq(&$m, &prog, Limits::default());
                let red = explore(&$m, &prog, Limits::reduced());
                red.states < full.states
            }};
        }
        let any_shrank = shrinks!(ScMachine)
            || shrinks!(WriteBufferMachine)
            || shrinks!(CacheDelayMachine)
            || shrinks!(BnrMachine)
            || shrinks!(WoDef1Machine)
            || shrinks!(WoDef2Machine::default());
        assert!(any_shrank, "no machine shrank on {}", prog.name);
    });
}

/// The contract on random programs: whenever the trace-level DRF0
/// check passes, both weakly ordered machines appear SC.
#[test]
fn contract_on_random_programs() {
    check_cases("contract_on_random_programs", CASES, |rng| {
        let prog = any_program(rng);
        let verdict = check_program_drf(&prog, HbMode::Drf0, TraceLimits::default());
        if !verdict.is_race_free() {
            return; // the contract promises nothing
        }
        let sc = explore(&ScMachine, &prog, Limits::default());
        for outcomes in [
            explore(&WoDef1Machine, &prog, Limits::default()).outcomes,
            explore(&WoDef2Machine::default(), &prog, Limits::default()).outcomes,
        ] {
            assert!(outcomes.is_subset(&sc.outcomes), "{}", prog.name);
        }
        // The refined machine's contract is with respect to DRF1.
        if check_program_drf(&prog, HbMode::Drf1, TraceLimits::default()).is_race_free() {
            let refined = explore(&WoDef2Machine { drf1_refined: true }, &prog, Limits::default());
            assert!(refined.outcomes.is_subset(&sc.outcomes), "{}", prog.name);
        }
    });
}

/// Exactness of the lock-free visited set under contention: for a
/// generated workload of payload streams — overlapping across
/// threads, with fingerprints optionally crushed into a handful of
/// values so every insert collides onto the same probe chains — no
/// insertion is lost, and `Admit::New` fires exactly once per distinct
/// payload (no false already-seen).
#[test]
fn visited_set_is_exact_under_concurrent_inserters() {
    check_cases("visited_set_is_exact_under_concurrent_inserters", CASES, |rng| {
        let threads = rng.range(2..=5) as usize;
        let distinct = rng.range(1..=399) as usize;
        let payload_len = rng.range(1..=47) as usize;
        let overlap = rng.range(1..=3) as usize;
        // 0: honest content hashing; otherwise adversarial same-slot
        // collisions (fp = payload index mod fp_mod, so `fp_mod` chains
        // in shard 0 carry everything).
        let fp_mod = rng.range(0..=4);
        let v = VisitedSet::new(None);
        let news = AtomicUsize::new(0);
        // Key k's payload: k's two bytes, so no two keys share a
        // payload, then `payload_len` filler bytes.
        let payload = |k: usize| -> Vec<u8> {
            let filler = (0..payload_len).map(|j| (k.wrapping_mul(31).wrapping_add(j)) as u8);
            (k as u16).to_le_bytes().into_iter().chain(filler).collect()
        };
        let fp_of = |k: usize, bytes: &[u8]| -> u64 {
            if fp_mod == 0 {
                hash_bytes(bytes)
            } else {
                k as u64 % fp_mod
            }
        };
        std::thread::scope(|s| {
            for t in 0..threads {
                let v = &v;
                let news = &news;
                let (payload, fp_of) = (&payload, &fp_of);
                s.spawn(move || {
                    // Each thread walks `overlap` full passes over the
                    // keyspace starting at a thread-dependent offset, so
                    // streams overlap heavily and race on every payload.
                    for i in 0..distinct * overlap {
                        let k = (t * 7 + i) % distinct;
                        let bytes = payload(k);
                        match v.admit(fp_of(k, &bytes), &bytes, usize::MAX) {
                            Admit::New(_) => {
                                news.fetch_add(1, Ordering::Relaxed);
                            }
                            Admit::Seen(_) => {}
                            Admit::Capped => panic!("uncapped run capped"),
                        }
                    }
                });
            }
        });
        assert_eq!(v.len(), distinct, "lost insertions");
        assert_eq!(news.load(Ordering::Relaxed), distinct, "false already-seen or double admit");
        for k in 0..distinct {
            let bytes = payload(k);
            assert!(v.find(fp_of(k, &bytes), &bytes).is_some(), "payload {k} unfindable");
        }
    });
}

/// The spill round-trip on generated programs: exploring under a
/// memory budget of a single byte (every payload on disk) produces
/// exactly the in-RAM exploration, on a plain and a buffer-heavy
/// machine.
#[test]
fn spilled_exploration_equals_in_ram_run() {
    check_cases("spilled_exploration_equals_in_ram_run", CASES, |rng| {
        let prog = any_program(rng);
        let budgeted = Limits { memory_budget: Some(1), ..Limits::default() };
        macro_rules! same {
            ($m:expr) => {{
                let plain = explore(&$m, &prog, Limits::default());
                let spilled = explore(&$m, &prog, budgeted);
                assert_eq!(&spilled, &plain, "{} on {}", weakord_mc::Machine::name(&$m), prog.name);
                assert_eq!(spilled.stats.spilled_states as usize, spilled.states);
                assert_eq!(spilled.stats.mem_bytes, 0);
            }};
        }
        same!(ScMachine);
        same!(TsoMachine);
    });
}
