//! The shipped `litmus/*.litmus` sample files stay parseable, valid,
//! and well-behaved: every file round-trips through the text format and
//! explores cleanly on the reference machine.

use std::fs;

use weakord::mc::machines::ScMachine;
use weakord::mc::{explore, Limits};
use weakord::progs::{parse_program, unparse_program};

#[test]
fn shipped_litmus_files_parse_and_explore() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/litmus");
    let mut found = 0;
    for entry in fs::read_dir(dir).expect("litmus/ exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("litmus") {
            continue;
        }
        found += 1;
        let src = fs::read_to_string(&path).expect("readable");
        let prog = parse_program(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        prog.validate().unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        // Round-trip stability.
        let back = parse_program(&unparse_program(&prog)).expect("round trip");
        assert_eq!(back.threads, prog.threads, "{}", path.display());
        // Explores without deadlock or truncation.
        let ex = explore(&ScMachine, &prog, Limits::default());
        assert!(!ex.truncated(), "{}", path.display());
        assert_eq!(ex.deadlocks, 0, "{}", path.display());
        assert!(!ex.outcomes.is_empty(), "{}", path.display());
    }
    assert!(found >= 7, "expected the shipped sample files, found {found}");
}

fn load(file: &str) -> weakord::progs::Program {
    let path = format!(concat!(env!("CARGO_MANIFEST_DIR"), "/litmus/{}"), file);
    let src = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse_program(&src).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The IRIW split observation — each reader sees the *other* write as
/// missing — is forbidden under SC but reachable on the Definition 2
/// weak-ordering machine (the program is racy, so the contract makes
/// no SC promise for it).
#[test]
fn iriw_split_forbidden_under_sc_allowed_under_wo() {
    use weakord::core::Value;
    use weakord::mc::machines::WoDef2Machine;
    use weakord::progs::Reg;
    let prog = load("iriw.litmus");
    let (r0, r1) = (Reg::new(0), Reg::new(1));
    let split = |o: &weakord::progs::Outcome| {
        o.reg(2, r0) == Value::new(1)
            && o.reg(2, r1) == Value::ZERO
            && o.reg(3, r0) == Value::new(1)
            && o.reg(3, r1) == Value::ZERO
    };
    let sc = explore(&ScMachine, &prog, Limits::default());
    assert!(!sc.truncated());
    assert!(!sc.outcomes.iter().any(split), "SC must forbid the IRIW split");
    let wo = explore(&WoDef2Machine::default(), &prog, Limits::default());
    assert!(!wo.truncated());
    assert!(wo.outcomes.iter().any(split), "wo-def2 should reach the IRIW split");
    // Everything the weak machine adds over SC is exactly that split.
    let extra: Vec<_> = wo.outcomes.difference(&sc.outcomes).collect();
    assert!(extra.iter().all(|o| split(o)), "unexpected non-SC outcomes: {extra:?}");
}

/// Coherence (per-location write serialization) holds on every machine:
/// no reader may observe the second write to `x` and then the first.
#[test]
fn coherence_co_holds_on_all_machines() {
    use weakord::core::Value;
    use weakord::mc::machines::{
        CacheDelayMachine, NetReorderMachine, PsoMachine, TsoMachine, WoDef1Machine, WoDef2Machine,
        WriteBufferMachine,
    };
    use weakord::mc::Machine;
    use weakord::progs::Reg;
    let prog = load("coherence-co.litmus");
    let (r0, r1) = (Reg::new(0), Reg::new(1));
    fn check<M: Machine>(
        m: &M,
        prog: &weakord::progs::Program,
        backwards: impl Fn(&weakord::progs::Outcome) -> bool,
    ) {
        let ex = explore(m, prog, Limits::default());
        assert!(!ex.truncated());
        assert!(!ex.outcomes.iter().any(backwards), "{} violated per-location coherence", m.name());
    }
    let backwards = |o: &weakord::progs::Outcome| {
        o.reg(1, r0) == Value::new(2) && o.reg(1, r1) == Value::new(1)
    };
    check(&ScMachine, &prog, backwards);
    check(&WriteBufferMachine, &prog, backwards);
    check(&TsoMachine, &prog, backwards);
    check(&PsoMachine, &prog, backwards);
    check(&NetReorderMachine, &prog, backwards);
    check(&CacheDelayMachine, &prog, backwards);
    check(&WoDef1Machine, &prog, backwards);
    check(&WoDef2Machine::default(), &prog, backwards);
}

/// The full conformance matrix: every shipped `litmus/*.litmus` file ×
/// every model-checked machine, pinned to the expected allowed/forbidden
/// split for that file's characteristic relaxed outcome — and the split
/// must be reproduced exactly by the partial-order-reduced search.
///
/// The rows tell the paper's story file by file: `dekker` needs only a
/// write buffer to break; `iriw` additionally needs non-atomic stores
/// (the cache substrate); `coherence-co` is per-location order, which
/// every machine serializes; and the synchronized programs
/// (`counter`, `lock-handoff`, `mp-handshake`, `nack-livelock`) are kept SC by every
/// *weakly ordered* machine but break on the unordered `net-reorder`
/// and `cache-delay` configurations, which honor no synchronization.
#[test]
fn conformance_matrix_on_every_machine_full_and_reduced() {
    use weakord::core::Value;
    use weakord::mc::machines::{
        BnrMachine, CacheDelayMachine, NetReorderMachine, PsoMachine, TsoMachine, WoDef1Machine,
        WoDef2Machine, WriteBufferMachine,
    };
    use weakord::mc::{Machine, Reduction};
    use weakord::progs::{Outcome, Program, Reg};

    // Machine order: sc, write-buffer, tso, pso, net-reorder,
    // cache-delay, wo-def1, wo-def2, wo-def2-drf1, wo-bnr.
    const N_MACHINES: usize = 10;
    fn verdicts(
        prog: &Program,
        pred: &dyn Fn(&Outcome) -> bool,
        reduce: bool,
    ) -> [bool; N_MACHINES] {
        fn one<M: Machine>(
            m: &M,
            prog: &Program,
            pred: &dyn Fn(&Outcome) -> bool,
            reduce: bool,
        ) -> bool {
            let limits = if reduce { Limits::reduced() } else { Limits::default() };
            let ex = explore(m, prog, limits);
            assert!(!ex.truncated(), "{} truncated on `{}`", m.name(), prog.name);
            assert_eq!(ex.deadlocks, 0, "{} deadlocked on `{}`", m.name(), prog.name);
            if reduce {
                // The dedicated sleep-set engine must agree with the
                // ample-only knob exactly, file by file.
                let red = explore(m, prog, Limits::with_reduction(Reduction::Sleep));
                assert_eq!(red.outcomes, ex.outcomes, "{} on `{}`", m.name(), prog.name);
                assert_eq!(red.deadlocks, 0, "{} on `{}`", m.name(), prog.name);
            }
            ex.outcomes.iter().any(pred)
        }
        [
            one(&ScMachine, prog, pred, reduce),
            one(&WriteBufferMachine, prog, pred, reduce),
            one(&TsoMachine, prog, pred, reduce),
            one(&PsoMachine, prog, pred, reduce),
            one(&NetReorderMachine, prog, pred, reduce),
            one(&CacheDelayMachine, prog, pred, reduce),
            one(&WoDef1Machine, prog, pred, reduce),
            one(&WoDef2Machine::default(), prog, pred, reduce),
            one(&WoDef2Machine { drf1_refined: true }, prog, pred, reduce),
            one(&BnrMachine, prog, pred, reduce),
        ]
    }

    let (r0, r1) = (Reg::new(0), Reg::new(1));
    let one = Value::new(1);
    type Pred = Box<dyn Fn(&Outcome) -> bool>;
    let rows: Vec<(&str, Pred, [bool; N_MACHINES])> = vec![
        (
            // W→R: every buffered/relaxed machine allows the SB split.
            "dekker.litmus",
            Box::new(move |o| o.reg(0, r0) == Value::ZERO && o.reg(1, r0) == Value::ZERO),
            [false, true, true, true, true, true, true, true, true, true],
        ),
        (
            // Needs non-multi-copy-atomic stores: only the cache
            // substrates split the readers (TSO/PSO keep one memory).
            "iriw.litmus",
            Box::new(move |o| {
                o.reg(2, r0) == one
                    && o.reg(2, r1) == Value::ZERO
                    && o.reg(3, r0) == one
                    && o.reg(3, r1) == Value::ZERO
            }),
            [false, false, false, false, false, true, true, true, true, true],
        ),
        (
            "coherence-co.litmus",
            Box::new(move |o| o.reg(1, r0) == Value::new(2) && o.reg(1, r1) == one),
            [false; N_MACHINES],
        ),
        (
            "counter.litmus",
            Box::new(|o| o.memory[1] != Value::new(2)),
            [false, false, false, false, true, true, false, false, false, false],
        ),
        (
            "lock-handoff.litmus",
            Box::new(|o| o.memory[1] != Value::new(2)),
            [false, false, false, false, true, true, false, false, false, false],
        ),
        (
            "mp-handshake.litmus",
            Box::new(move |o| o.reg(1, r1) != Value::new(42)),
            [false, false, false, false, true, true, false, false, false, false],
        ),
        (
            // Sync ping-pong on `lock` plus a spinning reader: the
            // protected write must reach the spinner on every machine
            // that honors synchronization.
            "nack-livelock.litmus",
            Box::new(move |o| o.reg(2, r1) != Value::new(42)),
            [false, false, false, false, true, true, false, false, false, false],
        ),
    ];
    assert_eq!(rows.len(), 7, "cover every shipped litmus file");
    for (file, pred, expected) in &rows {
        let prog = load(file);
        for reduce in [false, true] {
            let got = verdicts(&prog, pred.as_ref(), reduce);
            assert_eq!(
                &got,
                expected,
                "`{file}` {} verdicts [sc, wb, tso, pso, net, cd, def1, def2, def2-drf1, bnr]",
                if reduce { "reduced" } else { "full" },
            );
        }
    }
}

/// `# expect <machine> allows|forbids P<t>:r<k>=<v> [& ...]` directives
/// embedded as comments in a litmus file: the parser proper ignores
/// them (comment lines), and this test executes them, so one file
/// states both the SC verdict and the relaxed-machine verdicts — and
/// doubles as a containment assertion (each `allows` machine strictly
/// contains the `forbids` SC outcome set) without a parallel fixture.
#[test]
fn dekker_expectation_directives_hold() {
    use std::collections::BTreeSet;
    use weakord::core::Value;
    use weakord::mc::with_machine;
    use weakord::progs::{Outcome, Reg};

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/litmus/dekker.litmus");
    let src = fs::read_to_string(path).expect("readable");
    let prog = parse_program(&src).expect("parses");

    let outcomes = |machine: &str| -> BTreeSet<Outcome> {
        with_machine!(machine, |m| explore(&m, &prog, Limits::default()).outcomes,
            other => panic!("directive names unknown machine `{other}`"))
    };

    // Parse `P<t>:r<k>=<v>` conjunction terms.
    let parse_terms = |spec: &str| -> Vec<(usize, Reg, Value)> {
        spec.split('&')
            .map(|term| {
                let term = term.trim();
                let (proc_part, rest) = term.split_once(':').expect("P<t>:r<k>=<v>");
                let (reg_part, val_part) = rest.split_once('=').expect("r<k>=<v>");
                let t: usize = proc_part.strip_prefix('P').expect("P<t>").parse().expect("thread");
                let k: u8 = reg_part.strip_prefix('r').expect("r<k>").parse().expect("register");
                let v: u64 = val_part.parse().expect("value");
                (t, Reg::new(k), Value::new(v))
            })
            .collect()
    };

    let mut sc_outcomes = None;
    let mut allowed_machines = Vec::new();
    let mut directives = 0;
    for line in src.lines() {
        let Some(rest) = line.trim().strip_prefix("# expect ") else { continue };
        directives += 1;
        let mut words = rest.splitn(3, ' ');
        let machine = words.next().expect("machine name");
        let verdict = words.next().expect("allows|forbids");
        let terms = parse_terms(words.next().expect("outcome terms"));
        let set = outcomes(machine);
        let matched = set.iter().any(|o| terms.iter().all(|&(t, r, v)| o.reg(t, r) == v));
        match verdict {
            "allows" => {
                assert!(matched, "`{machine}` was expected to allow {rest:?}");
                allowed_machines.push(machine.to_string());
            }
            "forbids" => {
                assert!(!matched, "`{machine}` was expected to forbid {rest:?}");
                assert_eq!(machine, "sc", "only sc forbids the dekker split");
                sc_outcomes = Some(set);
            }
            other => panic!("unknown verdict `{other}`"),
        }
    }
    assert!(directives >= 5, "dekker.litmus lost its expectation directives");
    // The containment reading: every allowing machine strictly
    // contains the forbidding SC set.
    let sc = sc_outcomes.expect("an `expect sc forbids` directive");
    for machine in &allowed_machines {
        let set = outcomes(machine);
        assert!(
            set.is_superset(&sc) && set.len() > sc.len(),
            "`{machine}` should strictly contain the SC outcomes on dekker"
        );
    }
}

#[test]
fn counter_litmus_always_counts_to_two_under_sc() {
    use weakord::core::Value;
    let src = fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/litmus/counter.litmus"))
        .expect("readable");
    let prog = parse_program(&src).expect("parses");
    let ex = explore(&ScMachine, &prog, Limits::default());
    for o in &ex.outcomes {
        assert_eq!(o.memory[1], Value::new(2), "lost update under SC?! {o}");
    }
}
