//! The weakord benchmark: one command runs one workload from a seed,
//! checks every output, and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload explore-wodef2 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1` is
//! the separate traced run that prints the per-layer metrics. The last
//! line of standard output is one JSON object; the human-readable
//! account goes to standard error. See `README.md` for the workloads,
//! the metric definitions and the vetted input pools.

mod common;
mod contract;
mod explore;
mod pools;
mod serve;
mod sim;

use std::collections::BTreeMap;

use common::{Args, PeakAlloc, Report, USAGE};

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// The end-to-end metrics every untraced run prints, in order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_heap_mb", "MiB"),
    ("ok_frac", "frac"),
    ("jobs_per_s", "jobs/s"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("states_per_s", "states/s"),
];

/// The per-layer metrics every traced run prints, in order. A layer a
/// workload leaves idle reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("mc.machines.successors_s", "s"),
    ("mc.machines.successor_calls", "count"),
    ("mc.machines.arcs_per_state", "arcs/state"),
    ("mc.checkpoint.encode_s", "s"),
    ("mc.checkpoint.decode_s", "s"),
    ("mc.checkpoint.bytes_per_state", "B/state"),
    ("mc.fxhash.hash_s", "s"),
    ("mc.visited.admit_s", "s"),
    ("mc.visited.admit_2t_s", "s"),
    ("mc.visited.new_per_probe", "ratio"),
    ("mc.visited.avg_probe_len", "slots"),
    ("mc.visited.occupancy", "ratio"),
    ("mc.visited.mem_bytes", "B"),
    ("mc.explore.wall_1w_s", "s"),
    ("mc.explore.wall_2w_s", "s"),
    ("mc.explore.speedup_2w", "x"),
    ("mc.explore.steals", "count"),
    ("mc.explore.peak_frontier", "count"),
    ("mc.explore.unaccounted_s", "s"),
    ("mc.explore.call_fixed_us", "us"),
    ("mc.explore.calls", "count"),
    ("mc.reduce.pruned_arcs", "count"),
    ("mc.reduce.reduction_ratio", "ratio"),
    ("mc.reduce.states", "count"),
    ("mc.trace.classify_s", "s"),
    ("mc.trace.traces", "count"),
    ("mc.trace.traces_per_s", "traces/s"),
    ("mc.trace.bounded_verdicts", "count"),
    ("mc.contract.sc_explore_s", "s"),
    ("mc.contract.machine_explore_s", "s"),
    ("progs.gen_s", "s"),
    ("progs.unparse_s", "s"),
    ("progs.parse_s", "s"),
    ("serve.protocol.parse_request_s", "s"),
    ("serve.job.identity_s", "s"),
    ("serve.job.run_attempt_s", "s"),
    ("serve.job.result_line_s", "s"),
    ("serve.store.write_atomic_ms", "ms"),
    ("serve.store.writes", "count"),
    ("serve.store.write_retries", "count"),
    ("serve.pool.cache_hit_ratio", "ratio"),
    ("serve.pool.shed", "count"),
    ("serve.pool.residual_ms", "ms"),
    ("coherence.cycles", "cycles"),
    ("coherence.ops", "count"),
    ("coherence.misses", "count"),
    ("coherence.messages", "count"),
    ("coherence.nack_retries", "count"),
    ("coherence.stall.read-miss", "cycles"),
    ("coherence.stall.sync-gate", "cycles"),
    ("coherence.stall.sync-commit", "cycles"),
    ("coherence.stall.performed", "cycles"),
    ("coherence.stall.same-line", "cycles"),
    ("coherence.stall.miss-cap", "cycles"),
    ("coherence.stall.capacity", "cycles"),
    ("coherence.stall.migration", "cycles"),
    ("coherence.stall.nack-retry", "cycles"),
    ("sim.setup_s", "s"),
    ("sim.ns_per_op", "ns"),
    ("sim.ns_per_message", "ns"),
    ("bench.replay_untraced_s", "s"),
    ("bench.trace_overhead_s", "s"),
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = argv.iter().position(|a| a == "--vet") {
        match argv.get(i + 1).map(String::as_str) {
            Some("explore") => pools::vet(explore::PARAMS, pools::EXPLORE_BAND, 0..400),
            Some("medium") => pools::vet(serve::MEDIUM, pools::MEDIUM_BAND, 0..300),
            Some("racy") => contract::vet(),
            Some("sim") => sim::vet(0..40),
            Some("small") => serve::vet_small(4),
            _ => {
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
        return;
    }
    let args = Args::parse(&argv).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let mut report = match args.workload.as_str() {
        "explore-wodef2" => explore::run(&args),
        "contract-campaign" => contract::run(&args),
        "serve-mixed" => serve::run(&args),
        "sim-def2" => sim::run(&args),
        other => {
            eprintln!("unknown workload `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    };
    conform(&mut report, if args.trace { PER_LAYER } else { END_TO_END });
    for p in report.problems.iter().take(10) {
        eprintln!("CHECK FAILED: {p}");
    }
    eprintln!(
        "{}: {} jobs, {} failed (failed_frac {:.4})",
        args.workload,
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for (name, value, unit) in &report.metrics {
        eprintln!("  {name:<34} {value:>16.6} {unit}");
    }
    println!("{}", report.json_line());
    if report.failed > 0 {
        std::process::exit(1);
    }
}

/// Orders the report's metrics as `template` lists them, filling a
/// metric the workload did not produce with 0 (an idle layer). A metric
/// missing from the template is a benchmark bug.
fn conform(report: &mut Report, template: &[(&str, &'static str)]) {
    let mut got: BTreeMap<String, f64> = BTreeMap::new();
    for (name, value, unit) in report.metrics.drain(..) {
        let listed = template.iter().find(|(n, _)| *n == name);
        assert!(
            listed.is_some_and(|(_, u)| *u == unit),
            "metric `{name}` ({unit}) is not in the template"
        );
        got.insert(name, value);
    }
    report.metrics = template
        .iter()
        .map(|(name, unit)| (name.to_string(), got.get(*name).copied().unwrap_or(0.0), *unit))
        .collect();
}
