//! `contract-campaign`: `check_weak_ordering` under DRF0 with ample-set
//! reduction on wo-def1, wo-def2 and pso, swept over batches of small
//! seeded `race_free` and `racy` programs on two threads. Thousands of
//! tiny explorations make per-call fixed cost and the reduction matter,
//! and the DRF0 classifier (`check_program_drf`) runs only here.
//!
//! The traced run replays one batch on one thread through the calls a
//! sweep row makes: `check_program_drf`, then `explore` on the SC
//! reference and on the machine.

use std::time::Instant;

use weakord_core::HbMode;
use weakord_mc::machines::{PsoMachine, ScMachine, WoDef1Machine, WoDef2Machine};
use weakord_mc::{
    check_program_drf, check_weak_ordering, explore, ContractReport, Limits, Machine, Reduction,
    TraceLimits,
};
use weakord_progs::gen::{self, GenParams};
use weakord_progs::Program;
use weakord_sim::SimRng;

use crate::common::{
    build_program, finish_trace, heap_peak_mb, heap_window_start, limits, Args, Report, SetupClock,
    Spans,
};
use crate::explore::call_fixed_us;
use crate::pools::{racy_conforms, CONTRACT_BAND, RACY_POOL_LEN};

/// The generator shape of the campaign's programs (2 processors).
const PARAMS: GenParams = GenParams {
    n_procs: 2,
    n_locks: 2,
    data_per_lock: 1,
    transactions_per_thread: 2,
    accesses_per_transaction: 2,
};
/// Pinned classifier bounds (the default's 20,000 traces would make the
/// classifier nearly all of the campaign).
pub const TRACE_LIMITS: TraceLimits = TraceLimits { max_ops_per_thread: 40, max_traces: 1_000 };
const MAX_STATES: usize = 200_000;
const THREADS: usize = 2;
const MACHINES: [&str; 3] = ["wo-def1", "wo-def2", "pso"];
const BATCHES: usize = 6;
/// Each batch: race-free programs, racy-generator programs the
/// classifier finds conforming anyway, and truly racy ones. Fixing the
/// mix fixes the number of conforming programs (and the classifier's
/// work) for every seed.
const RACE_FREE: usize = 16;
const RACY_CONFORMING: usize = 3;
const RACY: usize = 13;

pub fn sweep_limits(threads: usize) -> Limits {
    limits(MAX_STATES, threads, Reduction::Ample)
}

/// One batch: programs and whether each conforms to DRF0.
struct Batch {
    programs: Vec<Program>,
    conforming: Vec<bool>,
}

fn build(spans: &mut Spans, racy: bool, gen_seed: u64) -> Program {
    let generate = if racy { gen::racy } else { gen::race_free };
    build_program(spans, || generate(gen_seed, PARAMS)).0
}

fn setup(seed: u64, spans: &mut Spans) -> Vec<Batch> {
    let mut rng = SimRng::new(seed ^ 0x636f_6e74_7261_6374);
    let mut used = vec![false; RACY_POOL_LEN];
    let mut draw_racy = |rng: &mut SimRng, conforming: bool| loop {
        let g = rng.range(0..=RACY_POOL_LEN as u64 - 1) as usize;
        if !used[g] && racy_conforms(g) == conforming {
            used[g] = true;
            return g as u64;
        }
    };
    (0..BATCHES)
        .map(|_| {
            let mut b = Batch { programs: Vec::new(), conforming: Vec::new() };
            for _ in 0..RACE_FREE {
                let g = rng.next_u64();
                b.programs.push(build(spans, false, g));
                b.conforming.push(true);
            }
            for (n, conforming) in [(RACY_CONFORMING, true), (RACY, false)] {
                for _ in 0..n {
                    let g = draw_racy(&mut rng, conforming);
                    b.programs.push(build(spans, true, g));
                    b.conforming.push(conforming);
                }
            }
            b
        })
        .collect()
}

fn sweep(machine: usize, programs: &[Program], limits: Limits) -> ContractReport {
    match machine {
        0 => check_weak_ordering(&WoDef1Machine, HbMode::Drf0, programs, limits, TRACE_LIMITS),
        1 => check_weak_ordering(
            &WoDef2Machine::default(),
            HbMode::Drf0,
            programs,
            limits,
            TRACE_LIMITS,
        ),
        _ => check_weak_ordering(&PsoMachine, HbMode::Drf0, programs, limits, TRACE_LIMITS),
    }
}

/// Checks one sweep: the recorded classification, the contract on the
/// weakly ordered machines, the state band, and agreement with the
/// first sweep of the same batch and machine.
fn check(
    report: &ContractReport,
    batch: &Batch,
    machine: usize,
    first: Option<&ContractReport>,
) -> Option<String> {
    let name = MACHINES[machine];
    if report.rows.len() != batch.programs.len() {
        return Some(format!(
            "{name}: {} rows for {} programs",
            report.rows.len(),
            batch.programs.len()
        ));
    }
    if let Some(i) =
        (0..report.rows.len()).find(|&i| report.rows[i].conforming != batch.conforming[i])
    {
        return Some(format!(
            "{name}: `{}` classified conforming={}, recorded {}",
            report.rows[i].program, report.rows[i].conforming, batch.conforming[i]
        ));
    }
    if machine < 2 && !report.holds() {
        return Some(format!("{name}: the weak-ordering contract does not hold:\n{report}"));
    }
    if let Some(r) = report.rows.iter().find(|r| r.stats.truncation.is_some()) {
        return Some(format!("{name}: `{}` truncated", r.program));
    }
    let states = report.total_states();
    if !(CONTRACT_BAND.0..=CONTRACT_BAND.1).contains(&states) {
        return Some(format!("{name}: {states} states is outside the band {CONTRACT_BAND:?}"));
    }
    if first.is_some_and(|f| f.rows != report.rows) {
        return Some(format!("{name}: a repeated sweep disagrees with the first"));
    }
    None
}

pub fn run(args: &Args) -> Report {
    if args.trace {
        return traced(args);
    }
    let mut report = Report::default();
    let make = || setup(args.seed, &mut Spans::new(false));
    let (mut clock, batches) = SetupClock::start(args.seconds, make);
    let mut first: Vec<Option<ContractReport>> =
        (0..BATCHES * MACHINES.len()).map(|_| None).collect();
    let mut lat = Vec::new();
    let mut states = 0usize;
    let mut programs = 0usize;
    let (mut fewest, mut most) = (usize::MAX, 0);
    heap_window_start();
    let mut job = 0;
    while clock.measured() < args.seconds {
        let slot = job % first.len();
        let (b, m) = (slot / MACHINES.len(), slot % MACHINES.len());
        let t = Instant::now();
        let r = sweep(m, &batches[b].programs, sweep_limits(THREADS));
        lat.push(t.elapsed().as_secs_f64());
        states += r.total_states();
        fewest = fewest.min(r.total_states());
        most = most.max(r.total_states());
        programs += r.rows.len();
        report.job(check(&r, &batches[b], m, first[slot].as_ref()));
        if first[slot].is_none() {
            first[slot] = Some(r);
        }
        job += 1;
        clock.between_jobs(make);
    }
    let wall = clock.measured();
    let peak = heap_peak_mb();
    eprintln!(
        "{programs} programs checked ({:.1} programs/s); {fewest}..={most} machine-side states per sweep (band {CONTRACT_BAND:?})",
        programs as f64 / wall
    );
    report.end_to_end(clock.finish(make), peak, &lat, wall, states as f64);
    report
}

/// Totals of one sequential replay of a batch on every machine.
#[derive(Default, PartialEq, Debug)]
struct Replayed {
    /// Per (machine, program): conforming, appears SC, deadlocked.
    rows: Vec<(bool, bool, bool)>,
    traces: u64,
    bounded: u64,
    pruned_arcs: u64,
    probes: u64,
    states: u64,
    calls: u64,
}

fn replay_row<M: Machine>(m: &M, prog: &Program, spans: &mut Spans, out: &mut Replayed) {
    let lim = sweep_limits(1);
    let v = spans.time("mc.trace.classify", || check_program_drf(prog, HbMode::Drf0, TRACE_LIMITS));
    let sc = spans.time("mc.contract.sc_explore", || explore(&ScMachine, prog, lim));
    let ex = spans.time("mc.contract.machine_explore", || explore(m, prog, lim));
    out.traces += v.traces as u64;
    out.bounded += u64::from(v.truncated);
    out.pruned_arcs += ex.stats.pruned_arcs;
    out.probes += ex.stats.dedup_probes;
    out.states += ex.states as u64;
    out.calls += 2;
    out.rows.push((v.is_race_free(), ex.outcomes.is_subset(&sc.outcomes), ex.has_deadlock()));
}

fn replay(batch: &Batch, spans: &mut Spans) -> Replayed {
    let mut out = Replayed::default();
    spans.enter("bench.replay");
    for machine in 0..MACHINES.len() {
        for prog in &batch.programs {
            match machine {
                0 => replay_row(&WoDef1Machine, prog, spans, &mut out),
                1 => replay_row(&WoDef2Machine::default(), prog, spans, &mut out),
                _ => replay_row(&PsoMachine, prog, spans, &mut out),
            }
        }
    }
    spans.exit();
    out
}

fn traced(args: &Args) -> Report {
    let mut report = Report::default();
    let mut spans = Spans::new(true);
    let batches = setup(args.seed, &mut spans);
    let batch = &batches[0];
    let t = Instant::now();
    let plain = replay(batch, &mut Spans::new(false));
    let untraced_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let r = replay(batch, &mut spans);
    let traced_s = t.elapsed().as_secs_f64();
    report.check(plain == r, || "the traced replay disagrees with the untraced one".into());
    for (m, name) in MACHINES.iter().enumerate() {
        let sweep = sweep(m, &batch.programs, sweep_limits(THREADS));
        report.job(check(&sweep, batch, m, None));
        let n = batch.programs.len();
        let rows: Vec<(bool, bool, bool)> =
            sweep.rows.iter().map(|r| (r.conforming, r.appears_sc, r.deadlocked)).collect();
        report.check(rows == r.rows[m * n..(m + 1) * n], || {
            format!("{name}: the replayed rows disagree with check_weak_ordering")
        });
    }
    let classify_s = spans.self_s("mc.trace.classify");
    report.metric("mc.trace.classify_s", classify_s, "s");
    report.metric("mc.trace.traces", r.traces as f64, "count");
    report.metric("mc.trace.traces_per_s", r.traces as f64 / classify_s, "traces/s");
    report.metric("mc.trace.bounded_verdicts", r.bounded as f64, "count");
    report.metric("mc.contract.sc_explore_s", spans.self_s("mc.contract.sc_explore"), "s");
    report.metric(
        "mc.contract.machine_explore_s",
        spans.self_s("mc.contract.machine_explore"),
        "s",
    );
    report.metric("mc.reduce.pruned_arcs", r.pruned_arcs as f64, "count");
    report.metric(
        "mc.reduce.reduction_ratio",
        r.pruned_arcs as f64 / (r.pruned_arcs + r.probes) as f64,
        "ratio",
    );
    report.metric("mc.reduce.states", r.states as f64, "count");
    report.metric("mc.explore.call_fixed_us", call_fixed_us(), "us");
    report.metric("mc.explore.calls", r.calls as f64, "count");
    report.metric("progs.gen_s", spans.self_s("progs.gen"), "s");
    report.metric("progs.unparse_s", spans.self_s("progs.unparse"), "s");
    report.metric("progs.parse_s", spans.self_s("progs.parse"), "s");
    finish_trace(&mut report, &spans, &args.workload, args.seed, traced_s, untraced_s);
    report
}

/// Prints `RACY_POOL` as hex: bit `g` says whether
/// `racy(g, PARAMS)` conforms to DRF0 under `TRACE_LIMITS`.
pub fn vet() {
    let mut hex = String::new();
    for nibble in 0..RACY_POOL_LEN / 4 {
        let mut v = 0u32;
        for bit in 0..4 {
            let g = (nibble * 4 + bit) as u64;
            let prog = gen::racy(g, PARAMS);
            if check_program_drf(&prog, HbMode::Drf0, TRACE_LIMITS).is_race_free() {
                v |= 1 << bit;
            }
        }
        hex.push(char::from_digit(v, 16).expect("a nibble"));
    }
    println!("pub const RACY_POOL: &str = \"{hex}\";");
}
