//! The generated litmus corpus, checked end to end: the corpus is
//! deterministic and large enough to be interesting, the Shasha–Snir
//! delay-set classification in `gen::predicts_weak` agrees with
//! exhaustive exploration on every machine it models, and the DRF
//! flavors really are DRF0.

use std::collections::BTreeSet;

use weakord::core::HbMode;
use weakord::mc::machines::{PsoMachine, ScMachine, TsoMachine, WoDef2Machine, WriteBufferMachine};
use weakord::mc::{check_program_drf, explore, Limits, Machine, Reduction, TraceLimits};
use weakord::progs::gen::{corpus, predicts_weak, LitmusShape, ModelClass};
use weakord::progs::{unparse_program, Outcome};

/// Corpus exploration budget: ample-set reduction (outcome-preserving,
/// cross-checked in `tests/litmus_files.rs`) keeps the full sweep
/// tractable in debug builds.
fn outcomes<M: Machine>(machine: &M, shape: &LitmusShape) -> BTreeSet<Outcome> {
    let ex = explore(machine, &shape.program, Limits::with_reduction(Reduction::Sleep));
    assert!(ex.truncation.is_none(), "{} truncated on {}", machine.name(), shape.name);
    assert_eq!(ex.deadlocks, 0, "{} deadlocked on {}", machine.name(), shape.name);
    ex.outcomes
}

#[test]
fn corpus_is_deterministic_and_meets_the_floor() {
    let a = corpus(42);
    let b = corpus(42);
    assert!(a.len() >= 200, "corpus shrank to {} shapes", a.len());
    // Byte-identical: same names, same pretty-printed programs.
    let render = |shapes: &[LitmusShape]| {
        shapes
            .iter()
            .map(|s| {
                format!(
                    "## {} [{}] drf={}\n{}",
                    s.name,
                    s.family,
                    s.drf,
                    unparse_program(&s.program)
                )
            })
            .collect::<String>()
    };
    assert_eq!(render(&a), render(&b), "same seed must give a byte-identical corpus");
}

/// The headline agreement theorem: for every corpus shape and every
/// modeled machine, static delay-set classification predicts exactly
/// whether exploration finds a non-SC outcome.
#[test]
fn delay_classification_agrees_with_exploration_on_every_machine() {
    let shapes = corpus(0);
    let sc = ScMachine;
    for shape in &shapes {
        let sc_outcomes = outcomes(&sc, shape);
        let check = |name: &str, observed: BTreeSet<Outcome>, class: ModelClass| {
            assert!(
                observed.is_superset(&sc_outcomes),
                "{name} lost SC outcomes on {}",
                shape.name
            );
            let weak = observed.len() > sc_outcomes.len();
            let predicted = predicts_weak(&shape.program, class);
            assert_eq!(
                weak,
                predicted,
                "{}: delay-set analysis predicts {} on {name}, exploration says {}",
                shape.name,
                if predicted { "weak" } else { "SC" },
                if weak { "weak" } else { "SC" },
            );
        };
        check("sc", sc_outcomes.clone(), ModelClass::Sc);
        check("write-buffer", outcomes(&WriteBufferMachine, shape), ModelClass::WriteBuffer);
        check("tso", outcomes(&TsoMachine, shape), ModelClass::Tso);
        check("pso", outcomes(&PsoMachine, shape), ModelClass::Pso);
        check("wo-def2", outcomes(&WoDef2Machine::default(), shape), ModelClass::Wo);
    }
}

/// The `+sync` and `+rmw` flavors carry `drf: true`; the detector must
/// agree (they are DRF0 by construction: every access synchronizes).
/// Data flavors of the cyclic shapes race by construction.
#[test]
fn drf_flags_match_the_race_detector() {
    for shape in corpus(0) {
        let verdict = check_program_drf(&shape.program, HbMode::Drf0, TraceLimits::default());
        assert_eq!(
            verdict.is_race_free(),
            shape.drf,
            "{}: generator says drf={}, detector disagrees",
            shape.name,
            shape.drf
        );
    }
}
