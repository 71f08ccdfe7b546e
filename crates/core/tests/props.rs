//! Property tests for the formal framework: the fast algorithms must
//! agree with the naive reference constructions, and the paper's
//! theorems must hold on random executions.

use weakord_core::{
    check_appears_sc, check_drf_preaugmented, detect_races, hb_relation, ExecBuilder,
    HappensBefore, HbMode, IdealizedExecution, Loc, MemOp, OpId, ProcId, Relation, Value,
};
use weakord_sim::{check_cases, SimRng};

const CASES: u32 = 128;

/// One raw operation choice for the random-execution generator.
#[derive(Debug, Clone, Copy)]
struct RawOp {
    proc: u16,
    kind: u8,
    loc: u32,
    value: u64,
}

/// Fewer than `max_len` random operations over `n_procs` processors and
/// `n_locs` locations (every bound exclusive).
fn raw_ops(rng: &mut SimRng, n_procs: u16, n_locs: u32, max_len: u64) -> Vec<RawOp> {
    let len = rng.range(0..=max_len - 1);
    (0..len)
        .map(|_| RawOp {
            proc: rng.range(0..=u64::from(n_procs) - 1) as u16,
            kind: rng.range(0..=4) as u8,
            loc: rng.range(0..=u64::from(n_locs) - 1) as u32,
            value: rng.range(1..=3),
        })
        .collect()
}

fn build_exec(n_procs: u16, raw: &[RawOp]) -> IdealizedExecution {
    let mut b = ExecBuilder::new(n_procs);
    for r in raw {
        let p = ProcId::new(r.proc);
        let l = Loc::new(r.loc);
        match r.kind {
            0 => b.push(MemOp::data_read(p, l)),
            1 => b.push(MemOp::data_write(p, l, Value::new(r.value))),
            2 => b.push(MemOp::sync_read(p, l)),
            3 => b.push(MemOp::sync_write(p, l, Value::new(r.value))),
            _ => b.push(MemOp::sync_rmw(p, l, Some(Value::new(r.value)))),
        };
    }
    b.finish().expect("random execution is well-formed")
}

/// The vector-clock happens-before agrees with the explicit
/// transitive closure of po ∪ so on every pair, in both modes.
#[test]
fn hb_vector_clocks_match_naive_closure() {
    check_cases("hb_vector_clocks_match_naive_closure", CASES, |rng| {
        let exec = build_exec(3, &raw_ops(rng, 3, 4, 24));
        for mode in [HbMode::Drf0, HbMode::Drf1] {
            let hb = HappensBefore::compute(&exec, mode);
            let naive = hb_relation(&exec, mode);
            for a in 0..exec.len() as u32 {
                for b in 0..exec.len() as u32 {
                    assert_eq!(
                        hb.ordered(OpId::new(a), OpId::new(b)),
                        naive.contains(OpId::new(a), OpId::new(b)),
                        "mode {mode:?} pair ({a},{b})"
                    );
                }
            }
        }
    });
}

/// The online detector and the pairwise Definition 3 checker agree
/// on whether an (augmented) execution is race-free.
#[test]
fn online_detector_agrees_with_pairwise_checker() {
    check_cases("online_detector_agrees_with_pairwise_checker", CASES, |rng| {
        let exec = build_exec(3, &raw_ops(rng, 3, 4, 32)).augment();
        for mode in [HbMode::Drf0, HbMode::Drf1] {
            let pairwise = check_drf_preaugmented(&exec, mode).is_race_free();
            let online = detect_races(&exec, mode).is_empty();
            assert_eq!(pairwise, online, "mode {mode:?}");
        }
    });
}

/// Executions assembled by the builder satisfy atomic, in-order
/// memory semantics by construction.
#[test]
fn builder_fills_atomic_values() {
    check_cases("builder_fills_atomic_values", CASES, |rng| {
        let exec = build_exec(4, &raw_ops(rng, 4, 5, 40));
        assert!(exec.check_atomic_values().is_ok());
    });
}

/// Lemma 1, soundness direction: an atomic (idealized) execution of
/// a race-free history always appears sequentially consistent.
#[test]
fn race_free_atomic_executions_appear_sc() {
    check_cases("race_free_atomic_executions_appear_sc", CASES, |rng| {
        let exec = build_exec(3, &raw_ops(rng, 3, 4, 28));
        if check_drf_preaugmented(&exec.augment(), HbMode::Drf0).is_race_free() {
            assert!(check_appears_sc(&exec, HbMode::Drf0).is_ok());
        }
    });
}

/// Augmentation is observation-preserving: the final memory is
/// unchanged and the augmented execution is still atomic-legal.
#[test]
fn augmentation_preserves_observations() {
    check_cases("augmentation_preserves_observations", CASES, |rng| {
        let exec = build_exec(3, &raw_ops(rng, 3, 4, 24));
        let aug = exec.augment();
        assert_eq!(exec.final_memory(), aug.final_memory());
        assert!(aug.check_atomic_values().is_ok());
        assert_eq!(weakord_core::ExecResult::of(&exec), weakord_core::ExecResult::of(&aug));
    });
}

/// DRF1's happens-before is a subrelation of DRF0's: anything DRF1
/// orders, DRF0 orders too.
#[test]
fn drf1_hb_is_subrelation_of_drf0_hb() {
    check_cases("drf1_hb_is_subrelation_of_drf0_hb", CASES, |rng| {
        let exec = build_exec(3, &raw_ops(rng, 3, 4, 24));
        let hb0 = HappensBefore::compute(&exec, HbMode::Drf0);
        let hb1 = HappensBefore::compute(&exec, HbMode::Drf1);
        for a in 0..exec.len() as u32 {
            for b in 0..exec.len() as u32 {
                if hb1.ordered(OpId::new(a), OpId::new(b)) {
                    assert!(hb0.ordered(OpId::new(a), OpId::new(b)));
                }
            }
        }
    });
}

/// Happens-before never orders against completion time in an
/// idealized execution: if a hb b then a completed before b.
#[test]
fn hb_respects_completion_order() {
    check_cases("hb_respects_completion_order", CASES, |rng| {
        let exec = build_exec(3, &raw_ops(rng, 3, 4, 24));
        let hb = HappensBefore::compute(&exec, HbMode::Drf0);
        for a in 0..exec.len() as u32 {
            for b in 0..a {
                // b completed before a, so a must not happen-before b... i.e.
                // any hb pair (x, y) must have x.index() < y.index().
                assert!(!hb.ordered(OpId::new(a), OpId::new(b)));
            }
        }
    });
}

/// A relation over 1–23 elements with up to 59 random pairs.
fn random_relation(rng: &mut SimRng) -> Relation {
    let n = rng.range(1..=23) as usize;
    let mut r = Relation::new(n);
    for _ in 0..rng.range(0..=59) {
        let (a, b) = (rng.range(0..=23) as usize % n, rng.range(0..=23) as usize % n);
        r.add(OpId::new(a as u32), OpId::new(b as u32));
    }
    r
}

fn check_closure_laws(r: &Relation) {
    let c = r.transitive_closure();
    assert_eq!(c.transitive_closure(), c.clone());
    for (a, b) in r.iter() {
        assert!(c.contains(a, b), "closure lost a pair");
    }
}

fn check_topological_order_laws(r: &Relation) {
    match r.topological_order() {
        None => assert!(!r.is_acyclic()),
        Some(order) => {
            assert!(r.is_acyclic());
            assert_eq!(order.len(), r.len());
            let pos = |x: OpId| order.iter().position(|&o| o == x).unwrap();
            for (a, b) in r.iter() {
                if a != b {
                    assert!(pos(a) < pos(b), "order violates ({a}, {b})");
                }
            }
        }
    }
}

/// Transitive closure is idempotent and monotone.
#[test]
fn closure_laws() {
    check_cases("closure_laws", CASES, |rng| check_closure_laws(&random_relation(rng)));
}

/// A topological order exists iff the relation is acyclic, and when
/// it exists it respects every pair.
#[test]
fn topological_order_laws() {
    check_cases("topological_order_laws", CASES, |rng| {
        check_topological_order_laws(&random_relation(rng))
    });
}

/// A recorded counterexample, run through both laws above: the
/// one-element self-loop, which must count as a cycle.
#[test]
fn one_element_self_loop_obeys_closure_and_topological_order_laws() {
    let mut r = Relation::new(1);
    r.add(OpId::new(0), OpId::new(0));
    check_closure_laws(&r);
    check_topological_order_laws(&r);
}

/// Union is commutative and closure distributes over consistency:
/// `consistent_with` is symmetric.
#[test]
fn union_and_consistency_are_symmetric() {
    check_cases("union_and_consistency_are_symmetric", CASES, |rng| {
        let (a, b) = (random_relation(rng), random_relation(rng));
        if a.len() == b.len() {
            assert_eq!(a.union(&b), b.union(&a));
            assert_eq!(a.consistent_with(&b), b.consistent_with(&a));
        }
    });
}

/// Every atomic idealized execution is serializable (the identity
/// order witnesses it), whatever the program shape.
#[test]
fn atomic_executions_are_serializable() {
    check_cases("atomic_executions_are_serializable", CASES, |rng| {
        let exec = build_exec(3, &raw_ops(rng, 3, 3, 14));
        assert!(weakord_core::is_execution_serializable(&exec));
    });
}

/// Serializability is invariant under the interleaving chosen: any
/// reordering of an atomic execution that keeps per-processor order
/// and read values intact stays explainable... conversely, breaking
/// one read's value usually (not always) breaks it; at minimum the
/// checker never panics and stays deterministic.
#[test]
fn serializability_is_deterministic() {
    check_cases("serializability_is_deterministic", CASES, |rng| {
        let exec = build_exec(3, &raw_ops(rng, 3, 3, 12));
        let a = weakord_core::is_execution_serializable(&exec);
        let b = weakord_core::is_execution_serializable(&exec);
        assert_eq!(a, b);
    });
}
