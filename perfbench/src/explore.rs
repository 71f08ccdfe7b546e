//! `explore-wodef2`: full (unreduced) two-worker exploration of a few
//! seeded DRF0 programs on `WoDef2Machine`. Nearly all the time goes to
//! the per-state layers: machines, checkpoint codec, fxhash, visited
//! set and the explorer's frontier.
//!
//! The traced run replays one program on one thread through the same
//! public calls the engine makes per arc — `successors_into`,
//! `Codec::encode`, `fxhash::hash_bytes`, `VisitedSet::admit_batched`,
//! and `with_bytes` + `Codec::decode` for states that overflow the
//! decoded hot tail — and asserts the replay reaches `explore`'s state
//! count and outcome set.

use std::collections::{BTreeSet, VecDeque};
use std::time::Instant;

use weakord_mc::checkpoint::{Codec, Reader};
use weakord_mc::fxhash::hash_bytes;
use weakord_mc::machines::WoDef2Machine;
use weakord_mc::visited::{Admit, ProbeTelemetry, VisitedSet};
use weakord_mc::{explore, explore_seq, Exploration, Machine, Reduction};
use weakord_progs::gen::{self, GenParams};
use weakord_progs::{Outcome, Program, ThreadBuilder};
use weakord_sim::SimRng;

use crate::common::{
    build_program, exploration_digest, finish_trace, heap_peak_mb, heap_window_start, limits,
    median, result_digest, Args, Report, SetupClock, Spans,
};
use crate::pools::{Vetted, EXPLORE_BAND, EXPLORE_POOL};

/// The generator shape of the explored programs (3 processors, 3 locks).
pub const PARAMS: GenParams = GenParams {
    n_procs: 3,
    n_locks: 3,
    data_per_lock: 1,
    transactions_per_thread: 3,
    accesses_per_transaction: 2,
};
/// Far above the band: hitting it means a program left the band.
const MAX_STATES: usize = 2_000_000;
const THREADS: usize = 2;
/// States expanded per replay batch: the codec, hash and admit calls
/// take well under a microsecond each, about what one clock read costs,
/// so the replay times them a batch at a time. A small batch keeps the
/// replay's order and cache footprint close to the engine's one state
/// at a time.
const CHUNK: usize = 8;
/// Decoded states each engine worker keeps in its hot tail
/// (`HOT_CAP` in `crates/mc/src/explore.rs`).
const HOT_CAP: usize = 1024;

/// The run's programs, each with its vetted oracle entry.
pub struct Input {
    pub programs: Vec<(Program, Vetted)>,
}

/// Builds every vetted program, checking its text round-trips through
/// the parser, in an order drawn by the seed. Every run explores the
/// whole pool: the programs' explore times differ more than the band's
/// state counts suggest, so a seed-picked subset would move the
/// percentiles with the seed.
fn setup(seed: u64, spans: &mut Spans) -> Input {
    let mut pool: Vec<(Program, Vetted)> = EXPLORE_POOL
        .iter()
        .map(|&v| (build_program(spans, || gen::race_free(v.gen_seed, PARAMS)).0, v))
        .collect();
    let mut rng = SimRng::new(seed ^ 0x6578_706c_6f72_6521);
    let mut programs = Vec::new();
    while !pool.is_empty() {
        programs.push(pool.swap_remove(rng.range(0..=pool.len() as u64 - 1) as usize));
    }
    Input { programs }
}

/// Checks one exploration against its vetted oracle entry.
fn check(ex: &Exploration, v: &Vetted, what: &str) -> Option<String> {
    if ex.truncated() {
        return Some(format!("{what}: gen seed {} truncated ({:?})", v.gen_seed, ex.truncation));
    }
    if !(EXPLORE_BAND.0..=EXPLORE_BAND.1).contains(&ex.states) {
        return Some(format!("{what}: {} states is outside the band {EXPLORE_BAND:?}", ex.states));
    }
    let digest = exploration_digest(ex);
    if ex.states != v.states || digest != v.digest {
        return Some(format!(
            "{what}: gen seed {} gave {} states / digest {digest:016x}, oracle {} / {:016x}",
            v.gen_seed, ex.states, v.states, v.digest
        ));
    }
    None
}

pub fn run(args: &Args) -> Report {
    if args.trace {
        return traced(args);
    }
    let mut report = Report::default();
    let make = || setup(args.seed, &mut Spans::new(false));
    let (mut clock, input) = SetupClock::start(args.seconds, make);
    for (p, v) in &input.programs {
        eprintln!("program gen seed {} ({} states, {} threads)", v.gen_seed, v.states, p.n_procs());
    }
    let machine = WoDef2Machine::default();
    let mut lat = Vec::new();
    let mut states = 0usize;
    heap_window_start();
    let mut i = 0;
    while clock.measured() < args.seconds {
        let (prog, v) = &input.programs[i % input.programs.len()];
        let t = Instant::now();
        let ex = explore(&machine, prog, limits(MAX_STATES, THREADS, Reduction::Full));
        lat.push(t.elapsed().as_secs_f64());
        states += ex.states;
        report.job(check(&ex, v, "explore"));
        i += 1;
        clock.between_jobs(make);
    }
    let wall = clock.measured();
    let peak = heap_peak_mb();
    report.end_to_end(clock.finish(make), peak, &lat, wall, states as f64);
    report
}

/// What one replay found and counted.
struct Replay {
    states: usize,
    deadlocks: usize,
    outcomes: BTreeSet<Outcome>,
    successor_calls: u64,
    arcs: u64,
    /// States decoded back from the visited set (hot-tail overflow).
    decoded: u64,
    admitted_bytes: u64,
    probes: u64,
    hits: u64,
    probe_steps: u64,
    table_capacity: u64,
    mem_bytes: u64,
    /// Every admit of the run in order: encoded bytes and fingerprints.
    stream: AdmitStream,
}

#[derive(Default)]
struct AdmitStream {
    bytes: Vec<u8>,
    /// (fingerprint, end offset into `bytes`).
    ends: Vec<(u64, usize)>,
}

impl AdmitStream {
    fn get(&self, i: usize) -> (u64, &[u8]) {
        let start = if i == 0 { 0 } else { self.ends[i - 1].1 };
        let (fp, end) = self.ends[i];
        (fp, &self.bytes[start..end])
    }
}

/// Explores `prog` on one thread through the engine's per-arc public
/// calls, timing each layer a batch at a time.
///
/// Like the engine's workers, the replay keeps its newest admissions
/// decoded in a hot tail of at most `HOT_CAP` states, expanded LIFO;
/// only states that overflow it go to the id frontier and are decoded
/// again, so `mc.checkpoint.decode_s` times the decoding `explore` does.
fn replay<M: Machine>(m: &M, prog: &Program, spans: &mut Spans, keep_stream: bool) -> Replay {
    let visited = VisitedSet::new(None);
    let mut tel = ProbeTelemetry::default();
    let mut stream = AdmitStream::default();
    let mut enc: Vec<u8> = Vec::new();
    let initial = m.initial(prog);
    initial.encode(&mut enc);
    let fp = hash_bytes(&enc);
    let (root, _) = visited.insert(fp, &enc);
    if keep_stream {
        stream.bytes.extend_from_slice(&enc);
        stream.ends.push((fp, enc.len()));
    }
    let mut out = Replay {
        states: 0,
        deadlocks: 0,
        outcomes: BTreeSet::new(),
        successor_calls: 0,
        arcs: 0,
        decoded: 0,
        admitted_bytes: enc.len() as u64,
        probes: 0,
        hits: 0,
        probe_steps: 0,
        table_capacity: 0,
        mem_bytes: 0,
        stream: AdmitStream::default(),
    };
    let mut hot: VecDeque<(u64, M::State)> = VecDeque::from([(root, initial)]);
    let mut stack: Vec<u64> = Vec::new();
    let mut batch: Vec<M::State> = Vec::with_capacity(CHUNK);
    let mut succ = Vec::new();
    let mut pool: Vec<M::State> = Vec::new();
    let mut ends: Vec<usize> = Vec::new();
    let mut fps: Vec<u64> = Vec::new();
    let mut admitted: Vec<Option<u64>> = Vec::new();
    spans.enter("mc.explore.replay");
    while !hot.is_empty() || !stack.is_empty() {
        if hot.is_empty() {
            let ids = stack.split_off(stack.len().saturating_sub(CHUNK));
            out.decoded += ids.len() as u64;
            let t = spans.now();
            for &id in ids.iter().rev() {
                batch.push(visited.with_bytes(id, |b| {
                    M::State::decode(&mut Reader::new(b)).expect("visited bytes decode to a state")
                }));
            }
            spans.leaf("mc.checkpoint.decode", t, spans.now());
        } else {
            let take = hot.len().min(CHUNK);
            batch.extend(hot.drain(hot.len() - take..).rev().map(|(_, s)| s));
        }
        let t = spans.now();
        for s in &batch {
            if let Some(o) = m.outcome(prog, s) {
                out.outcomes.insert(o);
                continue;
            }
            let before = succ.len();
            m.successors_into(prog, s, &mut succ, &mut pool);
            out.successor_calls += 1;
            if succ.len() == before {
                out.deadlocks += 1;
            }
        }
        spans.leaf("mc.machines.successors", t, spans.now());
        pool.append(&mut batch);
        let t = spans.now();
        enc.clear();
        ends.clear();
        for (_, next) in &succ {
            next.encode(&mut enc);
            ends.push(enc.len());
        }
        spans.leaf("mc.checkpoint.encode", t, spans.now());
        let t = spans.now();
        fps.clear();
        let mut start = 0;
        for &end in &ends {
            fps.push(hash_bytes(&enc[start..end]));
            start = end;
        }
        spans.leaf("mc.fxhash.hash", t, spans.now());
        let t = spans.now();
        admitted.clear();
        let mut start = 0;
        for (&end, &fp) in ends.iter().zip(&fps) {
            admitted.push(
                match visited.admit_batched(fp, &enc[start..end], MAX_STATES, &mut tel) {
                    Admit::New(id) => Some(id),
                    Admit::Seen(_) => None,
                    Admit::Capped => panic!("the replay passed MAX_STATES"),
                },
            );
            start = end;
        }
        spans.leaf("mc.visited.admit", t, spans.now());
        out.arcs += succ.len() as u64;
        if keep_stream {
            let base = stream.bytes.len();
            stream.bytes.extend_from_slice(&enc);
            stream.ends.extend(ends.iter().zip(&fps).map(|(&e, &fp)| (fp, base + e)));
        }
        let mut start = 0;
        for ((_, s), (&end, id)) in succ.drain(..).zip(ends.iter().zip(&admitted)) {
            match *id {
                Some(id) => {
                    out.admitted_bytes += (end - start) as u64;
                    hot.push_back((id, s));
                    if hot.len() > HOT_CAP {
                        let (old, s) = hot.pop_front().expect("over capacity");
                        stack.push(old);
                        pool.push(s);
                    }
                }
                None => pool.push(s),
            }
            start = end;
        }
        pool.truncate(CHUNK * 8);
    }
    spans.exit();
    visited.flush_telemetry(&mut tel);
    let c = visited.counters();
    out.states = visited.len();
    out.probes = c.dedup_probes;
    out.hits = c.dedup_hits;
    out.probe_steps = c.probe_steps;
    out.table_capacity = c.table_capacity;
    out.mem_bytes = c.mem_bytes;
    out.stream = stream;
    out
}

/// Re-admits a recorded stream into a fresh visited set on `threads`
/// threads (chunks dealt round-robin); returns (wall s, new states).
fn admit_stream(stream: &AdmitStream, threads: usize) -> (f64, usize) {
    const DEAL: usize = 4096;
    let visited = VisitedSet::new(None);
    let n = stream.ends.len();
    let t = Instant::now();
    let news: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let visited = &visited;
                s.spawn(move || {
                    let mut tel = ProbeTelemetry::default();
                    let mut new = 0;
                    for c in (w * DEAL..n).step_by(threads * DEAL) {
                        for i in c..(c + DEAL).min(n) {
                            let (fp, b) = stream.get(i);
                            if let Admit::New(_) =
                                visited.admit_batched(fp, b, MAX_STATES, &mut tel)
                            {
                                new += 1;
                            }
                        }
                    }
                    visited.flush_telemetry(&mut tel);
                    new
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("admit thread")).sum()
    });
    (t.elapsed().as_secs_f64(), news)
}

/// Median wall time of `explore` on a trivial program (one thread that
/// halts at once, two states): the fixed cost of one call.
pub fn call_fixed_us() -> f64 {
    let mut t = ThreadBuilder::new();
    t.halt();
    let prog = Program::new("halt", vec![t.finish()], 1).expect("trivial program");
    let machine = WoDef2Machine::default();
    let times: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            let ex = explore(&machine, &prog, limits(MAX_STATES, 1, Reduction::Full));
            assert!(ex.states <= 2 && !ex.truncated(), "the trivial program stays trivial");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

fn traced(args: &Args) -> Report {
    let mut report = Report::default();
    let mut spans = Spans::new(true);
    let input = setup(args.seed, &mut spans);
    let (prog, v) = &input.programs[0];
    eprintln!("replaying gen seed {} ({} states) on one thread", v.gen_seed, v.states);
    let machine = WoDef2Machine::default();
    let check_replay = |r: &Replay, report: &mut Report, what: &str| {
        let o: Vec<String> = r.outcomes.iter().map(ToString::to_string).collect();
        let d = result_digest(r.states, r.deadlocks, o.iter().map(String::as_str));
        report.job((r.states != v.states || d != v.digest).then(|| {
            format!(
                "{what}: {} states / {d:016x}, oracle {} / {:016x}",
                r.states, v.states, v.digest
            )
        }));
    };

    let t = Instant::now();
    let plain = replay(&machine, prog, &mut Spans::new(false), false);
    let untraced_s = t.elapsed().as_secs_f64();
    check_replay(&plain, &mut report, "untraced replay");
    drop(plain);
    let t = Instant::now();
    let r = replay(&machine, prog, &mut spans, true);
    let traced_s = t.elapsed().as_secs_f64();
    check_replay(&r, &mut report, "traced replay");

    let (admit_1t, new_1t) = admit_stream(&r.stream, 1);
    let (admit_2t, new_2t) = admit_stream(&r.stream, 2);
    report.check(new_1t == r.states && new_2t == r.states, || {
        format!("re-admitting the stream gave {new_1t}/{new_2t} new states, not {}", r.states)
    });

    let ex1 = explore(&machine, prog, limits(MAX_STATES, 1, Reduction::Full));
    report.job(check(&ex1, v, "1-worker explore"));
    let ex2 = explore(&machine, prog, limits(MAX_STATES, 2, Reduction::Full));
    report.job(check(&ex2, v, "2-worker explore"));
    let seq = explore_seq(&machine, prog, limits(MAX_STATES, 1, Reduction::Full));
    report.job(check(&seq, v, "explore_seq oracle"));
    let wall_1w = ex1.stats.duration.as_secs_f64();
    let wall_2w = ex2.stats.duration.as_secs_f64();

    let per_state_s: f64 = [
        "mc.machines.successors",
        "mc.checkpoint.encode",
        "mc.checkpoint.decode",
        "mc.fxhash.hash",
        "mc.visited.admit",
    ]
    .iter()
    .map(|n| spans.self_s(n))
    .sum();
    eprintln!(
        "the per-state layers account for {per_state_s:.4} s of the 1-worker explore's {wall_1w:.4} s ({:.1}%); the replay decoded {} of {} states",
        100.0 * per_state_s / wall_1w,
        r.decoded,
        r.states
    );
    let states = r.states as f64;
    report.metric("mc.machines.successors_s", spans.self_s("mc.machines.successors"), "s");
    report.metric("mc.machines.successor_calls", r.successor_calls as f64, "count");
    report.metric(
        "mc.machines.arcs_per_state",
        r.arcs as f64 / r.successor_calls as f64,
        "arcs/state",
    );
    report.metric("mc.checkpoint.encode_s", spans.self_s("mc.checkpoint.encode"), "s");
    report.metric("mc.checkpoint.decode_s", spans.self_s("mc.checkpoint.decode"), "s");
    report.metric("mc.checkpoint.bytes_per_state", r.admitted_bytes as f64 / states, "B/state");
    report.metric("mc.fxhash.hash_s", spans.self_s("mc.fxhash.hash"), "s");
    report.metric("mc.visited.admit_s", admit_1t, "s");
    report.metric("mc.visited.admit_2t_s", admit_2t, "s");
    report.metric(
        "mc.visited.new_per_probe",
        (r.probes - r.hits) as f64 / r.probes as f64,
        "ratio",
    );
    report.metric("mc.visited.avg_probe_len", r.probe_steps as f64 / r.probes as f64, "slots");
    report.metric("mc.visited.occupancy", states / r.table_capacity as f64, "ratio");
    report.metric("mc.visited.mem_bytes", r.mem_bytes as f64, "B");
    report.metric("mc.explore.wall_1w_s", wall_1w, "s");
    report.metric("mc.explore.wall_2w_s", wall_2w, "s");
    report.metric("mc.explore.speedup_2w", wall_1w / wall_2w, "x");
    report.metric("mc.explore.steals", ex2.stats.steals as f64, "count");
    report.metric("mc.explore.peak_frontier", ex2.stats.peak_frontier as f64, "count");
    report.metric("mc.explore.unaccounted_s", wall_1w - per_state_s, "s");
    report.metric("mc.explore.call_fixed_us", call_fixed_us(), "us");
    // The 1-worker and 2-worker calls above.
    report.metric("mc.explore.calls", 2.0, "count");
    report.metric("progs.gen_s", spans.self_s("progs.gen"), "s");
    report.metric("progs.unparse_s", spans.self_s("progs.unparse"), "s");
    report.metric("progs.parse_s", spans.self_s("progs.parse"), "s");
    finish_trace(&mut report, &spans, &args.workload, args.seed, traced_s, untraced_s);
    report
}
