//! Load generator for the `weakord serve` daemon: writes `BENCH_serve.json`.
//!
//! Three legs against an in-process daemon (same code path as the
//! standalone binary, no socket setup flakiness):
//!
//! 1. **Latency** — concurrent clients stream distinct litmus jobs at a
//!    two-worker pool; per-submit wall time lands in a
//!    [`weakord_obs::Histogram`] and the committed p50/p95/p99 feed
//!    EXPERIMENTS.md § E14. Every job must come back `done`.
//! 2. **Streaming** — a *paired* comparison: two identical daemons,
//!    one serving plain submits and one serving `"stream": true` at a
//!    20ms progress cadence. Each client alternates submissions of the
//!    same job between the two (order flipped per iteration), so
//!    machine-level drift lands on both sides equally. The streamed
//!    side's *exact* (unbucketed) p95 must stay within 10% of the
//!    plain side's (plus a small absolute slack — see the gate), or
//!    the progress plane is perturbing the data plane.
//! 3. **Overload** — a one-worker, four-slot daemon is offered 2×
//!    its capacity in long-running jobs. The invariant under test is
//!    *explicitness*: every submission resolves to `done` or `shed`,
//!    shed count is nonzero, and `done + shed == offered` (zero silent
//!    drops, zero errors).
//!
//! Exits 1 if any leg violates its invariants.
//!
//! ```text
//! cargo run --release -p weakord-bench --bin serve_loadgen
//! ```

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use weakord_obs::Histogram;
use weakord_serve::{Client, ServeConfig, Server, SubmitKind};

/// The latency-leg job mix: (machine, litmus) pairs cycled by the
/// clients. `max_states` is offset per submission so every job has a
/// distinct id — the leg measures exploration latency, not cache hits.
const MIX: &[(&str, &str)] = &[
    ("sc", "mp"),
    ("tso", "mp"),
    ("pso", "lb"),
    ("wo-def2", "iriw"),
    ("tso", "dekker-sync"),
    ("sc", "coherence-corr"),
];

const CLIENTS: usize = 4;
const JOBS_PER_CLIENT: usize = 30;

fn state_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("weakord-loadgen-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct LatencyLeg {
    done: usize,
    cached: usize,
    failures: usize,
    hist: Histogram,
    secs: f64,
}

fn latency_leg() -> LatencyLeg {
    let cfg = ServeConfig { state_dir: state_dir("latency"), workers: 2, ..ServeConfig::default() };
    let server = Server::start(cfg).expect("latency server");
    let addr = server.addr();
    let hist = Mutex::new(Histogram::new());
    let tallies = Mutex::new((0usize, 0usize, 0usize)); // done, cached, failures
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let hist = &hist;
            let tallies = &tallies;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                for j in 0..JOBS_PER_CLIENT {
                    let (machine, litmus) = MIX[(c * JOBS_PER_CLIENT + j) % MIX.len()];
                    // Distinct cap per submission ⇒ distinct job id.
                    let cap = 50_000 + c * JOBS_PER_CLIENT + j;
                    let line = format!(
                        "{{\"op\":\"submit\",\"machine\":\"{machine}\",\"litmus\":\"{litmus}\",\"max_states\":{cap}}}"
                    );
                    let t = Instant::now();
                    let reply = client.submit(&line).expect("submit round-trips");
                    let us = t.elapsed().as_micros() as u64;
                    let mut tl = tallies.lock().unwrap();
                    match reply.kind {
                        SubmitKind::Done { cached } => {
                            tl.0 += 1;
                            if cached {
                                tl.1 += 1;
                            }
                            hist.lock().unwrap().record(us);
                        }
                        _ => tl.2 += 1,
                    }
                }
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    server.shutdown();
    let (done, cached, failures) = *tallies.lock().unwrap();
    LatencyLeg { done, cached, failures, hist: hist.into_inner().unwrap(), secs }
}

struct PairedLeg {
    done_off: usize,
    done_on: usize,
    failures: usize,
    /// `progress` lines received across the streamed submits.
    progress_lines: usize,
    /// Exact per-submit latencies (µs), for unbucketed percentiles —
    /// the log2 histogram's ≤2× bucket error would swamp a 10% gate.
    off: Vec<u64>,
    on: Vec<u64>,
}

/// Exact percentile over the raw samples (p in (0, 100]).
fn exact_percentile(lats: &mut [u64], p: f64) -> u64 {
    assert!(!lats.is_empty());
    lats.sort_unstable();
    let rank = ((p / 100.0) * lats.len() as f64).ceil().max(1.0) as usize;
    lats[rank - 1]
}

/// The streaming comparison: two identical 2-worker daemons, one taking
/// plain submits, the other `"stream": true` at a 20ms cadence. Each
/// client submits every mix job to *both*, alternating which daemon
/// goes first per iteration — sequential-leg designs here showed 4–13%
/// p95 swings from drift alone, which pairing cancels.
fn paired_leg() -> PairedLeg {
    let cfg_off =
        ServeConfig { state_dir: state_dir("pair-off"), workers: 2, ..ServeConfig::default() };
    let cfg_on = ServeConfig {
        state_dir: state_dir("pair-on"),
        workers: 2,
        progress_every_ms: 20,
        ..ServeConfig::default()
    };
    let off_srv = Server::start(cfg_off).expect("paired off server");
    let on_srv = Server::start(cfg_on).expect("paired on server");
    let (off_addr, on_addr) = (off_srv.addr(), on_srv.addr());
    let off = Mutex::new(Vec::new());
    let on = Mutex::new(Vec::new());
    let tallies = Mutex::new((0usize, 0usize, 0usize, 0usize)); // done_off, done_on, failures, progress
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let (off, on, tallies) = (&off, &on, &tallies);
            s.spawn(move || {
                let mut off_client = Client::connect(off_addr).expect("off client connects");
                let mut on_client = Client::connect(on_addr).expect("on client connects");
                for j in 0..JOBS_PER_CLIENT {
                    let (machine, litmus) = MIX[(c * JOBS_PER_CLIENT + j) % MIX.len()];
                    let cap = 50_000 + c * JOBS_PER_CLIENT + j;
                    let plain = format!(
                        "{{\"op\":\"submit\",\"machine\":\"{machine}\",\"litmus\":\"{litmus}\",\"max_states\":{cap}}}"
                    );
                    let streamed = format!(
                        "{{\"op\":\"submit\",\"machine\":\"{machine}\",\"litmus\":\"{litmus}\",\"max_states\":{cap},\"stream\":true}}"
                    );
                    let one = |client: &mut Client, line: &str, lats: &Mutex<Vec<u64>>| {
                        let t = Instant::now();
                        let reply = client.submit(line).expect("submit round-trips");
                        let us = t.elapsed().as_micros() as u64;
                        let mut tl = tallies.lock().unwrap();
                        tl.3 += reply
                            .progress
                            .iter()
                            .filter(|l| l.contains("\"event\":\"progress\""))
                            .count();
                        if matches!(reply.kind, SubmitKind::Done { .. }) {
                            lats.lock().unwrap().push(us);
                            true
                        } else {
                            tl.2 += 1;
                            false
                        }
                    };
                    // Alternate which side goes first so ordering bias
                    // (first submit pays any cold-path cost) cancels.
                    let (did_off, did_on) = if j % 2 == 0 {
                        let a = one(&mut off_client, &plain, off);
                        let b = one(&mut on_client, &streamed, on);
                        (a, b)
                    } else {
                        let b = one(&mut on_client, &streamed, on);
                        let a = one(&mut off_client, &plain, off);
                        (a, b)
                    };
                    let mut tl = tallies.lock().unwrap();
                    tl.0 += did_off as usize;
                    tl.1 += did_on as usize;
                }
            });
        }
    });
    off_srv.shutdown();
    on_srv.shutdown();
    let (done_off, done_on, failures, progress_lines) = *tallies.lock().unwrap();
    PairedLeg {
        done_off,
        done_on,
        failures,
        progress_lines,
        off: off.into_inner().unwrap(),
        on: on.into_inner().unwrap(),
    }
}

struct OverloadLeg {
    workers: usize,
    max_queue: usize,
    offered: usize,
    done: usize,
    shed: usize,
    errors: usize,
}

fn overload_leg() -> OverloadLeg {
    let (workers, max_queue) = (1usize, 4usize);
    let cfg = ServeConfig {
        state_dir: state_dir("overload"),
        workers,
        max_queue,
        test_hooks: true,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).expect("overload server");
    let addr = server.addr();
    // 2× capacity: the pool can hold (workers + max_queue) jobs, offer
    // twice that in one concurrent burst of slow (300 ms) jobs.
    let offered = 2 * (workers + max_queue);
    let tallies = Mutex::new((0usize, 0usize, 0usize)); // done, shed, errors
    std::thread::scope(|s| {
        for i in 0..offered {
            let tallies = &tallies;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                let line = format!(
                    "{{\"op\":\"submit\",\"machine\":\"sc\",\"litmus\":\"mp\",\"max_states\":{},\"test_sleep_ms\":300}}",
                    10_000 + i
                );
                let reply = client.submit(&line).expect("submit round-trips");
                let mut tl = tallies.lock().unwrap();
                match reply.kind {
                    SubmitKind::Done { .. } => tl.0 += 1,
                    SubmitKind::Shed => tl.1 += 1,
                    SubmitKind::Error(_) => tl.2 += 1,
                }
            });
        }
    });
    server.shutdown();
    let (done, shed, errors) = *tallies.lock().unwrap();
    OverloadLeg { workers, max_queue, offered, done, shed, errors }
}

fn main() {
    eprintln!("latency leg: {CLIENTS} clients × {JOBS_PER_CLIENT} jobs, 2 workers…");
    let lat = latency_leg();
    eprintln!("streaming leg: paired plain vs \"stream\":true at a 20ms cadence…");
    let mut stm = paired_leg();
    eprintln!("overload leg: 2× capacity burst at a 1-worker, 4-slot pool…");
    let ovl = overload_leg();

    let (p50, p95, p99) = lat.hist.quantile_summary();
    let (off_p50, off_p95, off_p99) = (
        exact_percentile(&mut stm.off, 50.0),
        exact_percentile(&mut stm.off, 95.0),
        exact_percentile(&mut stm.off, 99.0),
    );
    let (on_p50, on_p95, on_p99) = (
        exact_percentile(&mut stm.on, 50.0),
        exact_percentile(&mut stm.on, 95.0),
        exact_percentile(&mut stm.on, 99.0),
    );
    let overhead_pct = (on_p95 as f64 / off_p95 as f64 - 1.0) * 100.0;
    let silent = ovl.offered - ovl.done - ovl.shed - ovl.errors;
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"serve-loadgen\",\n");
    let _ = writeln!(
        out,
        "  \"latency\": {{\"clients\": {CLIENTS}, \"jobs\": {}, \"workers\": 2, \"done\": {}, \"cached\": {}, \"failures\": {}, \"mean_us\": {:.0}, \"p50_us\": {p50}, \"p95_us\": {p95}, \"p99_us\": {p99}, \"throughput_jobs_per_sec\": {:.1}}},",
        CLIENTS * JOBS_PER_CLIENT,
        lat.done,
        lat.cached,
        lat.failures,
        lat.hist.mean(),
        lat.done as f64 / lat.secs,
    );
    let _ = writeln!(
        out,
        "  \"streaming\": {{\"progress_every_ms\": 20, \"done_off\": {}, \"done_on\": {}, \"progress_lines\": {}, \"off_p50_us\": {off_p50}, \"off_p95_us\": {off_p95}, \"off_p99_us\": {off_p99}, \"on_p50_us\": {on_p50}, \"on_p95_us\": {on_p95}, \"on_p99_us\": {on_p99}, \"overhead_p95_pct\": {overhead_pct:.1}}},",
        stm.done_off, stm.done_on, stm.progress_lines,
    );
    let _ = writeln!(
        out,
        "  \"overload\": {{\"workers\": {}, \"max_queue\": {}, \"offered\": {}, \"done\": {}, \"shed\": {}, \"errors\": {}, \"silent_drops\": {silent}}}",
        ovl.workers, ovl.max_queue, ovl.offered, ovl.done, ovl.shed, ovl.errors,
    );
    out.push_str("}\n");
    std::fs::write("BENCH_serve.json", &out).expect("write BENCH_serve.json");
    println!("{out}");

    let mut failed = false;
    if lat.failures > 0 || lat.done != CLIENTS * JOBS_PER_CLIENT {
        eprintln!("FAIL: latency leg lost jobs ({} done, {} failures)", lat.done, lat.failures);
        failed = true;
    }
    let expected = CLIENTS * JOBS_PER_CLIENT;
    if stm.failures > 0 || stm.done_off != expected || stm.done_on != expected {
        eprintln!(
            "FAIL: streaming leg lost jobs ({}/{} off done, {}/{} on done, {} failures)",
            stm.done_off, expected, stm.done_on, expected, stm.failures
        );
        failed = true;
    }
    if stm.progress_lines == 0 {
        eprintln!("FAIL: streaming leg saw no progress lines — stream flag is inert");
        failed = true;
    }
    // The streamed p95 must stay within 10% of the plain p95. A 5 ms
    // absolute slack deflakes the gate on short mixes: with sub-10ms
    // medians, scheduler jitter alone can move an exact p95 by more
    // than 10% between two otherwise identical runs.
    if on_p95 as f64 > off_p95 as f64 * 1.10 + 5_000.0 {
        eprintln!(
            "FAIL: streaming overhead on p95 is {overhead_pct:.1}% ({on_p95} µs vs {off_p95} µs) — \
             progress emission is perturbing the data plane"
        );
        failed = true;
    }
    if ovl.shed == 0 {
        eprintln!("FAIL: overload leg shed nothing — backpressure never engaged");
        failed = true;
    }
    if silent != 0 || ovl.errors != 0 {
        eprintln!(
            "FAIL: overload leg was not explicit ({silent} silent drops, {} errors)",
            ovl.errors
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!(
        "ok: p50 {p50} µs, p95 {p95} µs, p99 {p99} µs; streaming p95 {on_p95} µs ({overhead_pct:+.1}%, {} lines); overload {}/{} done, {} shed, 0 silent",
        stm.progress_lines, ovl.done, ovl.offered, ovl.shed
    );
}
