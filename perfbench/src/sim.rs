//! `sim-def2`: timed `CoherentMachine` runs under `Policy::def2()` on
//! generated programs scaled up for the simulator (12 processors
//! contending for four locks), each under two network seeds. The only
//! workload that exercises `coherence` and `sim`. All programs share
//! one shape, and every run simulates the whole pool in an order drawn
//! by the seed. A job is one pass over every case, so every job does
//! the same work.
//!
//! Programs and network seeds come from a vetted pool whose simulated
//! statistics digests are committed: every run's statistics must match
//! its committed digest, so a change that alters simulated cycles,
//! messages or stalls fails the run. A recording pass before the
//! measured phase also checks each execution appears SC (Lemma 1 under
//! DRF0), which is Definition 2 for these race-free programs.

use std::time::Instant;

use weakord_coherence::{CoherentMachine, Config, Policy, RunResult, StallCause};
use weakord_core::HbMode;
use weakord_mc::checkpoint::fnv1a;
use weakord_progs::gen::{self, GenParams};
use weakord_progs::Program;
use weakord_sim::SimRng;

use crate::common::{
    build_program, finish_trace, heap_peak_mb, heap_window_start, Args, Report, SetupClock, Spans,
};
use crate::pools::{SimVetted, SIM_BAND, SIM_POOL};

const NET_SEEDS: usize = 2;
/// Passes over every case in the traced run (each way).
const PASSES: usize = 5;
const MESSAGE_KINDS: [&str; 15] = [
    "GetS",
    "GetX",
    "FwdGetS",
    "FwdGetX",
    "Data",
    "Inv",
    "InvAck",
    "DataAck",
    "GlobalAck",
    "WriteBack",
    "Evict",
    "EvictAck",
    "Recall",
    "NackHome",
    "Nack",
];

const PARAMS: GenParams = GenParams {
    n_procs: 12,
    n_locks: 4,
    data_per_lock: 2,
    transactions_per_thread: 60,
    accesses_per_transaction: 2,
};

/// One simulated run: a program and a vetted pool entry.
struct Case {
    program: usize,
    vetted: SimVetted,
}

/// Builds every program of the pool in an order drawn by the seed; each
/// brings its `NET_SEEDS` vetted network seeds.
fn setup(seed: u64, spans: &mut Spans) -> (Vec<Program>, Vec<Case>) {
    let mut gens: Vec<u64> = SIM_POOL.iter().map(|v| v.gen_seed).collect();
    gens.dedup();
    let mut rng = SimRng::new(seed ^ 0x7369_6d2d_6465_6632);
    let mut programs = Vec::new();
    let mut cases = Vec::new();
    while !gens.is_empty() {
        let g = gens.swap_remove(rng.range(0..=gens.len() as u64 - 1) as usize);
        let program = programs.len();
        programs.push(build_program(spans, || gen::race_free(g, PARAMS)).0);
        cases.extend(
            SIM_POOL.iter().filter(|v| v.gen_seed == g).map(|&vetted| Case { program, vetted }),
        );
    }
    assert_eq!(cases.len(), programs.len() * NET_SEEDS, "every pool program has NET_SEEDS entries");
    (programs, cases)
}

fn config(net_seed: u64, record_trace: bool) -> Config {
    Config { policy: Policy::def2(), seed: net_seed, record_trace, ..Config::default() }
}

fn messages(r: &RunResult) -> u64 {
    MESSAGE_KINDS.iter().map(|k| r.counters.get(k)).sum()
}

fn ops(r: &RunResult) -> u64 {
    r.proc_stats.iter().map(|p| p.ops).sum()
}

/// The simulated statistics of a run (no host timing in it).
fn digest(r: &RunResult) -> u64 {
    let mut s = format!("{}|{}|", r.cycles, r.outcome);
    for p in &r.proc_stats {
        s.push_str(&format!("{},{},{},{:?};", p.ops, p.misses, p.nack_retries, p.halted_at));
        for cause in StallCause::ALL {
            s.push_str(&format!("{},", p.stall(cause)));
        }
    }
    for (k, v) in r.counters.iter() {
        s.push_str(&format!("{k}={v};"));
    }
    fnv1a(s.as_bytes())
}

/// One run with the committed-operation trace on, checked against
/// Lemma 1; returns its digest and cycles.
fn recorded_run(program: &Program, net_seed: u64) -> Result<(u64, u64), String> {
    let r =
        CoherentMachine::new(program, config(net_seed, true)).run().map_err(|e| e.to_string())?;
    r.check_appears_sc(HbMode::Drf0).map_err(|v| format!("execution does not appear SC: {v:?}"))?;
    Ok((digest(&r), r.cycles))
}

/// The recording pass: every case once, checked against Lemma 1 and
/// its committed digest.
fn record(report: &mut Report, programs: &[Program], cases: &[Case]) {
    for c in cases {
        let v = c.vetted;
        let problem = match recorded_run(&programs[c.program], v.net_seed) {
            Ok((d, _)) if d == v.digest => continue,
            Ok((d, _)) => format!("digest {d:016x}, committed {:016x}", v.digest),
            Err(e) => e,
        };
        report.fail(format!("gen seed {} net seed {}: {problem}", v.gen_seed, v.net_seed));
    }
}

/// Prints `SIM_POOL` entries: programs among the generator seeds in
/// `seeds` whose runs under network seeds `1..=NET_SEEDS` all appear SC
/// and take cycles in `SIM_BAND`.
pub fn vet(seeds: std::ops::Range<u64>) {
    for gen_seed in seeds {
        let prog = gen::race_free(gen_seed, PARAMS);
        let runs: Vec<_> = (1..=NET_SEEDS as u64).map(|n| (n, recorded_run(&prog, n))).collect();
        let in_band = runs.iter().all(|(_, r)| {
            r.as_ref().is_ok_and(|&(_, cycles)| (SIM_BAND.0..=SIM_BAND.1).contains(&cycles))
        });
        if in_band {
            for (net_seed, r) in runs {
                let (digest, cycles) = r.expect("checked above");
                println!(
                    "    SimVetted {{ gen_seed: {gen_seed}, net_seed: {net_seed}, cycles: {cycles}, digest: 0x{digest:016x} }},"
                );
            }
        }
    }
}

pub fn run(args: &Args) -> Report {
    if args.trace {
        return traced(args);
    }
    let mut report = Report::default();
    let make = || setup(args.seed, &mut Spans::new(false));
    let (mut clock, (programs, cases)) = SetupClock::start(args.seconds, make);
    clock.off_the_clock(|| record(&mut report, &programs, &cases));
    let mut lat = Vec::new();
    let mut cycles = 0u64;
    let mut committed = 0u64;
    heap_window_start();
    while clock.measured() < args.seconds {
        // One job is one pass over every case: a single simulated run
        // takes ~20 ms, shorter than the swings in a shared host's
        // speed, so the median run would land on a fast or a slow spell
        // rather than average over both.
        let t = Instant::now();
        for c in &cases {
            let v = c.vetted;
            let r = CoherentMachine::new(&programs[c.program], config(v.net_seed, false)).run();
            report.job(match r {
                Ok(r) if !(SIM_BAND.0..=SIM_BAND.1).contains(&r.cycles) => Some(format!(
                    "gen seed {} net seed {}: {} cycles is outside the band {SIM_BAND:?}",
                    v.gen_seed, v.net_seed, r.cycles
                )),
                Ok(r) => {
                    cycles += r.cycles;
                    committed += ops(&r);
                    (r.cycles != v.cycles || digest(&r) != v.digest).then(|| {
                        format!(
                            "gen seed {} net seed {}: statistics differ from the committed digest",
                            v.gen_seed, v.net_seed
                        )
                    })
                }
                Err(e) => Some(format!("net seed {}: run failed: {e}", v.net_seed)),
            });
        }
        lat.push(t.elapsed().as_secs_f64());
        clock.between_jobs(make);
    }
    let wall = clock.measured();
    let peak = heap_peak_mb();
    eprintln!("{:.0} committed simulated ops/s", committed as f64 / wall);
    report.end_to_end(clock.finish(make), peak, &lat, wall, cycles as f64);
    report
}

/// Sums of one pass over every case.
#[derive(Default, PartialEq, Debug)]
struct Pass {
    digests: Vec<u64>,
    cycles: u64,
    ops: u64,
    misses: u64,
    messages: u64,
    nack_retries: u64,
    stalls: [u64; StallCause::ALL.len()],
}

fn pass(programs: &[Program], cases: &[Case], spans: &mut Spans) -> Pass {
    let mut out = Pass::default();
    spans.enter("bench.replay");
    for c in cases {
        let m = spans.time("sim.setup", || {
            CoherentMachine::new(&programs[c.program], config(c.vetted.net_seed, false))
        });
        let r = spans.time("sim.run", || m.run()).expect("simulated run completes");
        out.digests.push(digest(&r));
        out.cycles += r.cycles;
        out.ops += ops(&r);
        out.messages += messages(&r);
        for p in &r.proc_stats {
            out.misses += p.misses;
            out.nack_retries += p.nack_retries;
            for (k, cause) in StallCause::ALL.iter().enumerate() {
                out.stalls[k] += p.stall(*cause);
            }
        }
    }
    spans.exit();
    out
}

fn traced(args: &Args) -> Report {
    let mut report = Report::default();
    let mut spans = Spans::new(true);
    let (programs, cases) = setup(args.seed, &mut spans);
    record(&mut report, &programs, &cases);
    let committed: Vec<u64> = cases.iter().map(|c| c.vetted.digest).collect();
    // A pass takes a fraction of a second: time several, so the
    // overhead is not lost in the noise, alternating untraced and traced
    // passes so a drift in the host's speed falls on both.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    for _ in 0..PASSES {
        let t = Instant::now();
        plain.push(pass(&programs, &cases, &mut Spans::new(false)));
        untraced_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        traced.push(pass(&programs, &cases, &mut spans));
        traced_s += t.elapsed().as_secs_f64();
    }
    report.attempted += (2 * PASSES * cases.len()) as u64;
    let p = &traced[0];
    report.check(plain.iter().chain(&traced).all(|q| q == p) && p.digests == committed, || {
        "a pass disagrees with another or with the committed statistics".into()
    });
    // Per-pass figures: the counts are one pass's, the times a pass's mean.
    let run_ns = spans.self_s("sim.run") * 1e9 / PASSES as f64;
    report.metric("coherence.cycles", p.cycles as f64, "cycles");
    report.metric("coherence.ops", p.ops as f64, "count");
    report.metric("coherence.misses", p.misses as f64, "count");
    report.metric("coherence.messages", p.messages as f64, "count");
    report.metric("coherence.nack_retries", p.nack_retries as f64, "count");
    for (k, cause) in StallCause::ALL.iter().enumerate() {
        report.metric(format!("coherence.stall.{}", cause.name()), p.stalls[k] as f64, "cycles");
    }
    report.metric("sim.setup_s", spans.self_s("sim.setup") / PASSES as f64, "s");
    report.metric("sim.ns_per_op", run_ns / p.ops as f64, "ns");
    report.metric("sim.ns_per_message", run_ns / p.messages as f64, "ns");
    report.metric("progs.gen_s", spans.self_s("progs.gen"), "s");
    report.metric("progs.unparse_s", spans.self_s("progs.unparse"), "s");
    report.metric("progs.parse_s", spans.self_s("progs.parse"), "s");
    finish_trace(&mut report, &spans, &args.workload, args.seed, traced_s, untraced_s);
    report
}
