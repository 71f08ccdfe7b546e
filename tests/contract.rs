//! The headline theorem, end to end: Definition 2 holds for the weak
//! ordering machines with respect to DRF0 (Appendix B), fails for the
//! sync-oblivious relaxed machines, and the Section 5 implementation is
//! strictly more permissive than Definition 1 hardware on racy code.

use weakord::core::HbMode;
use weakord::mc::machines::{
    CacheDelayMachine, NetReorderMachine, PsoMachine, ScMachine, TsoMachine, WoDef1Machine,
    WoDef2Machine, WriteBufferMachine,
};
use weakord::mc::{
    appears_sc, check_program_drf, check_weak_ordering, explore, Limits, TraceLimits,
};
use weakord::progs::{gen, litmus, Program};

fn suite() -> Vec<Program> {
    let mut programs: Vec<Program> = litmus::all().into_iter().map(|l| l.program).collect();
    for seed in 0..6 {
        programs.push(gen::race_free(seed, gen::GenParams::default()));
        programs.push(gen::racy(seed, gen::GenParams::default()));
    }
    programs
}

#[test]
fn weak_ordering_machines_satisfy_definition_2_wrt_drf0() {
    let programs = suite();
    for report in [
        check_weak_ordering(
            &WoDef1Machine,
            HbMode::Drf0,
            &programs,
            Limits::default(),
            TraceLimits::default(),
        ),
        check_weak_ordering(
            &WoDef2Machine::default(),
            HbMode::Drf0,
            &programs,
            Limits::default(),
            TraceLimits::default(),
        ),
        // TSO and PSO recognize Test/Set/RMW as ordering points, so
        // they are weakly ordered by Definition 2 as well.
        check_weak_ordering(
            &TsoMachine,
            HbMode::Drf0,
            &programs,
            Limits::default(),
            TraceLimits::default(),
        ),
        check_weak_ordering(
            &PsoMachine,
            HbMode::Drf0,
            &programs,
            Limits::default(),
            TraceLimits::default(),
        ),
    ] {
        assert!(report.holds(), "{report}");
    }
}

#[test]
fn refined_machine_satisfies_definition_2_wrt_drf1() {
    let programs = suite();
    let report = check_weak_ordering(
        &WoDef2Machine { drf1_refined: true },
        HbMode::Drf1,
        &programs,
        Limits::default(),
        TraceLimits::default(),
    );
    assert!(report.holds(), "{report}");
}

#[test]
fn sync_oblivious_machines_violate_the_contract() {
    // dekker-sync obeys DRF0; hardware that cannot recognize
    // synchronization breaks it.
    let programs = vec![litmus::dekker_sync().program];
    for (name, holds) in [
        (
            "write-buffer",
            check_weak_ordering(
                &WriteBufferMachine,
                HbMode::Drf0,
                &programs,
                Limits::default(),
                TraceLimits::default(),
            )
            .holds(),
        ),
        (
            "net-reorder",
            check_weak_ordering(
                &NetReorderMachine,
                HbMode::Drf0,
                &programs,
                Limits::default(),
                TraceLimits::default(),
            )
            .holds(),
        ),
        (
            "cache-delay",
            check_weak_ordering(
                &CacheDelayMachine,
                HbMode::Drf0,
                &programs,
                Limits::default(),
                TraceLimits::default(),
            )
            .holds(),
        ),
    ] {
        assert!(!holds, "{name} unexpectedly satisfies the contract");
    }
}

#[test]
fn definition_1_hardware_is_weakly_ordered_by_definition_2() {
    // Section 6's first claim: the old hardware satisfies the new
    // contract (the converse of the paper's generality argument).
    let report = check_weak_ordering(
        &WoDef1Machine,
        HbMode::Drf0,
        &suite(),
        Limits::default(),
        TraceLimits::default(),
    );
    assert!(report.holds(), "{report}");
}

#[test]
fn the_new_implementation_violates_definition_1s_observable_guarantees() {
    // racy-spy: Definition 1 hardware can never show flag=1 ∧ x=0; the
    // Section 5 implementation can — it is a legal Definition 2
    // implementation that Definition 1 does not allow (the paper's
    // generality demonstration).
    let lit = litmus::racy_spy();
    let def1 = explore(&WoDef1Machine, &lit.program, Limits::default());
    let def2 = explore(&WoDef2Machine::default(), &lit.program, Limits::default());
    assert!(def1.outcomes.iter().all(|o| !(lit.non_sc)(o)));
    assert!(def2.outcomes.iter().any(|o| (lit.non_sc)(o)));
    // And def2's outcome set strictly contains def1's.
    assert!(def1.outcomes.is_subset(&def2.outcomes));
    assert!(def1.outcomes.len() < def2.outcomes.len());
}

#[test]
fn every_machine_appears_sc_to_single_threaded_programs() {
    // Uniprocessors are sequentially consistent "almost naturally":
    // single-threaded programs admit exactly one SC result, and every
    // machine must produce it.
    use weakord::core::Loc;
    use weakord::progs::{Reg, ThreadBuilder};
    let mut t = ThreadBuilder::new();
    t.write(Loc::new(0), 3u64);
    t.read(Reg::new(0), Loc::new(0));
    t.write(Loc::new(1), Reg::new(0));
    t.test_and_set(Reg::new(1), Loc::new(2));
    t.read(Reg::new(2), Loc::new(1));
    t.halt();
    let prog = Program::new("uni", vec![t.finish()], 3).unwrap();
    macro_rules! check {
        ($m:expr) => {
            let r = appears_sc(&$m, &prog, Limits::default());
            assert!(r.appears_sc, "{}: {r}", weakord::mc::Machine::name(&$m));
            assert_eq!(r.machine.outcomes.len(), 1);
        };
    }
    check!(ScMachine);
    check!(WriteBufferMachine);
    check!(TsoMachine);
    check!(PsoMachine);
    check!(NetReorderMachine);
    check!(CacheDelayMachine);
    check!(WoDef1Machine);
    check!(WoDef2Machine::default());
}

#[test]
fn drf0_classification_is_stable_between_detector_runs() {
    for seed in 0..6 {
        let prog = gen::racy(seed, gen::GenParams::default());
        let a = check_program_drf(&prog, HbMode::Drf0, TraceLimits::default());
        let b = check_program_drf(&prog, HbMode::Drf0, TraceLimits::default());
        assert_eq!(a.is_race_free(), b.is_race_free());
        assert_eq!(a.races, b.races);
    }
}

// ---------------------------------------------------------------------
// The machine × machine containment grid over the generated corpus.
// ---------------------------------------------------------------------

/// The grid machines, strongest first. Index order matches
/// [`EXPECTED_SUBSET`].
const GRID: [&str; 5] = ["sc", "write-buffer", "tso", "pso", "wo-def2"];

/// `EXPECTED_SUBSET[i][j]`: does `outcomes(GRID[i]) ⊆ outcomes(GRID[j])`
/// hold on every corpus shape? This is the *true* containment lattice
/// of the repo's machines, checked cell by cell:
///
/// * `SC ⊆ TSO ⊆ PSO` — each buffer refinement only adds behaviours.
/// * `TSO ⊆ write-buffer` — TSO is the write buffer plus *more*
///   ordering (sync accesses drain; on all-data programs they agree).
/// * `TSO ⊆ WO` — everything TSO relaxes (data W→R) the caches relax
///   too, and both serialize writes in program order.
/// * `PSO` and `WO` are **incomparable**, not a chain: PSO reorders
///   data W→W into memory but is multi-copy atomic (one memory array),
///   while the cache substrate commits writes in program order but
///   lets readers see stale copies. `2+2w` separates them one way
///   (PSO-weak, WO-SC), `iriw` the other (WO-weak, PSO-SC).
/// * The sync-oblivious write buffer sits outside every sync-honoring
///   machine (`sb+sync` is weak on it and SC on them).
const EXPECTED_SUBSET: [[bool; 5]; 5] = [
    [true, true, true, true, true],     // sc
    [false, true, false, false, false], // write-buffer
    [false, true, true, true, true],    // tso
    [false, false, false, true, false], // pso
    [false, false, false, false, true], // wo-def2
];

fn grid_outcome_sets(prog: &Program) -> [std::collections::BTreeSet<weakord::progs::Outcome>; 5] {
    use weakord::mc::Reduction;
    let sleep = Limits::with_reduction(Reduction::Sleep);
    let run = |ex: weakord::mc::Exploration| {
        assert!(ex.truncation.is_none(), "{} truncated", prog.name);
        ex.outcomes
    };
    [
        run(explore(&ScMachine, prog, sleep)),
        run(explore(&WriteBufferMachine, prog, sleep)),
        run(explore(&TsoMachine, prog, sleep)),
        run(explore(&PsoMachine, prog, sleep)),
        run(explore(&WoDef2Machine::default(), prog, sleep)),
    ]
}

/// Shortest trace on machine `idx` reaching `outcome`, for failure
/// messages.
fn grid_witness(idx: usize, prog: &Program, outcome: &weakord::progs::Outcome) -> String {
    use weakord::mc::find_witness;
    let target = outcome.clone();
    let w = match idx {
        0 => find_witness(&ScMachine, prog, Limits::default(), |o| *o == target),
        1 => find_witness(&WriteBufferMachine, prog, Limits::default(), |o| *o == target),
        2 => find_witness(&TsoMachine, prog, Limits::default(), |o| *o == target),
        3 => find_witness(&PsoMachine, prog, Limits::default(), |o| *o == target),
        _ => find_witness(&WoDef2Machine::default(), prog, Limits::default(), |o| *o == target),
    };
    match w {
        None => "  <no witness found>".to_string(),
        Some(labels) => labels.iter().map(|l| format!("  {l}")).collect::<Vec<_>>().join("\n"),
    }
}

/// Every ordered machine pair × every corpus shape: the observed
/// outcome-set relation matches [`EXPECTED_SUBSET`], with a named
/// witness trace whenever an expected containment breaks, and a named
/// separator shape certifying every expected *non*-containment and the
/// strictness of every expected containment.
#[test]
fn containment_grid_holds_on_the_full_corpus() {
    let shapes = gen::corpus(0);
    assert!(shapes.len() >= 200, "corpus shrank to {} shapes", shapes.len());
    // separators[i][j]: first shape where i ⊄ j (an outcome of i that j
    // lacks). strict[i][j]: first shape where i ⊊ j.
    let mut separators: [[Option<String>; 5]; 5] = Default::default();
    let mut strict: [[Option<String>; 5]; 5] = Default::default();
    for shape in &shapes {
        let sets = grid_outcome_sets(&shape.program);
        for i in 0..5 {
            for j in 0..5 {
                if i == j {
                    continue;
                }
                if !sets[i].is_subset(&sets[j]) {
                    if EXPECTED_SUBSET[i][j] {
                        let extra = sets[i]
                            .difference(&sets[j])
                            .next()
                            .expect("non-subset has an extra outcome");
                        panic!(
                            "{} ⊆ {} fails on corpus shape `{}`:\n\
                             outcome {extra}\nis reachable on {} but not on {}; witness:\n{}",
                            GRID[i],
                            GRID[j],
                            shape.name,
                            GRID[i],
                            GRID[j],
                            grid_witness(i, &shape.program, extra),
                        );
                    }
                    separators[i][j].get_or_insert_with(|| shape.name.clone());
                }
                if sets[i].is_subset(&sets[j]) && sets[i].len() < sets[j].len() {
                    strict[i][j].get_or_insert_with(|| shape.name.clone());
                }
            }
        }
    }
    for i in 0..5 {
        for j in 0..5 {
            if i == j {
                continue;
            }
            if EXPECTED_SUBSET[i][j] {
                assert!(
                    strict[i][j].is_some(),
                    "no corpus shape shows {} ⊊ {}: the pair never separates",
                    GRID[i],
                    GRID[j]
                );
            } else {
                assert!(
                    separators[i][j].is_some(),
                    "no corpus shape separates {} from {}: {} ⊆ {} held everywhere \
                     but the lattice says it must not",
                    GRID[i],
                    GRID[j],
                    GRID[i],
                    GRID[j]
                );
            }
        }
    }
}

/// Definition 2's software-side guarantee, corpus-wide: the DRF0
/// flavors (`+sync`, `+rmw`) admit exactly the SC outcomes on every
/// machine that recognizes synchronization operations.
#[test]
fn drf_corpus_shapes_appear_sc_on_every_sync_honoring_machine() {
    use weakord::mc::machines::BnrMachine;
    use weakord::mc::{Machine, Reduction};
    let sleep = Limits::with_reduction(Reduction::Sleep);
    for shape in gen::corpus(0).iter().filter(|s| s.drf) {
        let sc = explore(&ScMachine, &shape.program, sleep).outcomes;
        macro_rules! check {
            ($m:expr) => {
                let got = explore(&$m, &shape.program, sleep).outcomes;
                assert_eq!(
                    got,
                    sc,
                    "{}: DRF0 shape `{}` is not SC-only",
                    Machine::name(&$m),
                    shape.name
                );
            };
        }
        check!(TsoMachine);
        check!(PsoMachine);
        check!(WoDef1Machine);
        check!(WoDef2Machine::default());
        check!(BnrMachine);
    }
}

/// The contract survives an adversarial interconnect: every DRF0
/// program in the suite keeps SC-only outcomes on the cycle-level
/// Definition 2 machine — queueing or NACKing sync requests — under
/// seeded fault schedules with eventual delivery (the drop/dup/reorder
/// layer of `weakord-sim`).
#[test]
fn contract_sweep_holds_under_interconnect_faults() {
    use weakord::coherence::{CoherentMachine, Config, Policy};
    use weakord::mc::sc_outcome_set;
    use weakord::sim::FaultPlan;
    for prog in suite() {
        if !check_program_drf(&prog, HbMode::Drf0, TraceLimits::default()).is_race_free() {
            continue;
        }
        let sc = sc_outcome_set(&prog, Limits::default());
        for policy in [Policy::def2(), Policy::def2_nack()] {
            for i in 0..4u64 {
                let faults = FaultPlan::with_rates(0xC0DE ^ i, 50, 50, 50, 20);
                let cfg = Config { policy, seed: i, faults, ..Config::default() };
                let r = CoherentMachine::new(&prog, cfg)
                    .run()
                    .unwrap_or_else(|e| panic!("{} under {}: {e}", prog.name, policy.name()));
                assert!(
                    sc.contains(&r.outcome),
                    "{} under {} fault-seed {:#x}: non-SC outcome under faults",
                    prog.name,
                    policy.name(),
                    faults.seed
                );
            }
        }
    }
}
