//! Property tests for the litmus text format: randomly generated
//! programs — including fences and every RMW flavor — survive the
//! parse → IR → pretty-print round trip exactly, and the pretty-printer
//! is a fixed point of its own output.

use weakord::core::{Loc, Value};
use weakord::progs::gen::{corpus, GenParams};
use weakord::progs::{parse_program, unparse_program, Program, Reg, ThreadBuilder};
use weakord::sim::{check_cases, SimRng};

/// One straight-line memory/sync/fence operation. Branches and labels
/// are exercised by `gen::racy` below; this enum focuses on the ops the
/// TSO/PSO machines interpret specially.
#[derive(Debug, Clone, Copy)]
enum Op {
    Read(u8, u32),
    Write(u32, u64),
    SyncRead(u8, u32),
    SyncWrite(u32, u64),
    Tas(u8, u32),
    Faa(u8, u32, u64),
    Swap(u8, u32, u64),
    Fence,
}

const N_LOCS: u32 = 3;

/// One of the eight op kinds with equal odds, over registers 0–3,
/// locations below `N_LOCS` and values 0–8.
fn any_op(rng: &mut SimRng) -> Op {
    let reg = rng.range(0..=3) as u8;
    let loc = rng.range(0..=u64::from(N_LOCS) - 1) as u32;
    let val = rng.range(0..=8);
    match rng.range(0..=7) {
        0 => Op::Read(reg, loc),
        1 => Op::Write(loc, val),
        2 => Op::SyncRead(reg, loc),
        3 => Op::SyncWrite(loc, val),
        4 => Op::Tas(reg, loc),
        5 => Op::Faa(reg, loc, val),
        6 => Op::Swap(reg, loc, val),
        _ => Op::Fence,
    }
}

fn build(threads: &[Vec<Op>]) -> Program {
    let built = threads
        .iter()
        .map(|ops| {
            let mut b = ThreadBuilder::new();
            for op in ops {
                match *op {
                    Op::Read(r, l) => b.read(Reg::new(r), Loc::new(l)),
                    Op::Write(l, v) => b.write(Loc::new(l), Value::new(v)),
                    Op::SyncRead(r, l) => b.sync_read(Reg::new(r), Loc::new(l)),
                    Op::SyncWrite(l, v) => b.sync_write(Loc::new(l), Value::new(v)),
                    Op::Tas(r, l) => b.test_and_set(Reg::new(r), Loc::new(l)),
                    Op::Faa(r, l, k) => b.fetch_add(Reg::new(r), Loc::new(l), k),
                    Op::Swap(r, l, v) => b.swap(Reg::new(r), Loc::new(l), Value::new(v)),
                    Op::Fence => b.fence(),
                };
            }
            b.halt();
            b.finish()
        })
        .collect();
    Program::new("prop".to_string(), built, N_LOCS).expect("straight-line program is well-formed")
}

fn roundtrip(prog: &Program) {
    let text = unparse_program(prog);
    let back = parse_program(&text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", prog.name));
    assert_eq!(back.threads, prog.threads, "{}\n{text}", prog.name);
    assert_eq!(back.n_locs, prog.n_locs, "{}", prog.name);
    // The pretty-printer is a fixed point: printing the re-parsed
    // program reproduces the text byte for byte.
    assert_eq!(unparse_program(&back), text, "{}", prog.name);
}

/// Straight-line programs over every fence/sync/RMW mnemonic
/// round-trip through the litmus text format.
#[test]
fn fence_and_rmw_programs_round_trip() {
    check_cases("fence_and_rmw_programs_round_trip", 64, |rng| {
        let threads: Vec<Vec<Op>> = (0..rng.range(1..=3))
            .map(|_| (0..rng.range(0..=7)).map(|_| any_op(rng)).collect())
            .collect();
        roundtrip(&build(&threads));
    });
}

/// Every corpus shape round-trips, for any value seed — this is
/// what makes `weakord corpus --emit` faithful.
#[test]
fn corpus_shapes_round_trip() {
    check_cases("corpus_shapes_round_trip", 64, |rng| {
        let shapes = corpus(rng.range(0..=99));
        roundtrip(&shapes[rng.range(0..=263) as usize % shapes.len()].program);
    });
}

/// Generated racy programs (branches, delays, loops) keep
/// round-tripping too, so the property is not straight-line-only.
#[test]
fn generated_racy_programs_round_trip() {
    check_cases("generated_racy_programs_round_trip", 64, |rng| {
        roundtrip(&weakord::progs::gen::racy(rng.range(0..=199), GenParams::default()));
    });
}
