//! `weakord` — command-line driver for the reproduction.
//!
//! ```text
//! weakord litmus                 list the litmus suite
//! weakord litmus <name>          explore one test on every machine
//! weakord explore <name|file>    explore one machine with checkpoint/resume
//!   crash tolerance and witness shrinking; `weakord explore --help` is the
//!   authoritative option list (--machine --reduce --threads --max-states
//!   --checkpoint <dir> --checkpoint-every N --resume --abort-after N --shrink
//!   --progress)
//! weakord litmus <name> --reduce              same, under partial-order reduction
//! weakord litmus <name> --witness <machine>   print a forbidden-outcome interleaving
//! weakord corpus [opts]          generated litmus-shape corpus: list, emit,
//!   or (--check) verify the delay-set classification and containment lattice
//! weakord drf <name>             classify a litmus program against DRF0/DRF1
//! weakord delay <name>           Shasha–Snir delay set of a litmus program
//! weakord disasm <name>          disassemble a litmus program
//! weakord dot <name>             Graphviz of a round-robin execution (po/so/races)
//! weakord export <name>          emit a litmus program in the text format
//! weakord check <file.litmus> [--reduce] [--witness <machine>]   analyze a litmus file
//! weakord run <workload> [opts]  timed run on the cycle-level machine
//!   workloads: fig3 | spinlock | spinlock-tts | ticket-lock | barrier |
//!              tree-barrier | producer-consumer | spin-broadcast | async-flood
//!   opts: --policy sc|def1|def2|def2-nack|def2-drf1   --seed N   --cache N
//!         --net bus|crossbar|general|mesh|congested   --migrate-at N   --banks N
//!         --drop-rate P --dup-rate P --reorder-rate P --spike-rate P  (permille)
//!         --trace out.json   Chrome trace_event JSON (load in Perfetto)
//!         --trace-jsonl out.jsonl   line-delimited event log (byte-deterministic)
//!         --metrics          dump the unified key=value metrics registry
//! weakord stats <name> [opts]    metrics-registry dump for a workload (timed
//!                                run) or a litmus test (explorer diagnostics)
//! weakord faults [opts]          fault-injected conformance sweep over the
//!                                litmus suite (differential vs. the SC explorer)
//!   opts: --seed N   --drop-rate P   --dup-rate P   --reorder-rate P
//!         --spike-rate P   --policy nack|queue   --schedules N
//! weakord serve [opts]           crash-tolerant checking daemon (JSONL/TCP):
//!   bounded admission with explicit load shedding, journaled accepts,
//!   checkpointed jobs that resume byte-identically after a kill -9,
//!   retry-with-backoff panic isolation, and a fingerprint-keyed cache
//!   opts: --addr HOST:PORT --state-dir <dir> --workers N --job-threads N
//!         --max-queue N --checkpoint-every N --retry-max N --test-hooks
//!         --progress-every-ms N --stall-after-ms N
//! weakord submit [opts] <request...>   client for a serve daemon: send one
//!   JSONL request (or build a submit from --litmus/--machine flags) and
//!   print every reply line; --stream adds live progress lines, --metrics
//!   prints the daemon's key=value metrics exposition
//! weakord watch [opts]           live refreshing table of a serve daemon's
//!   jobs and gauges (--addr/--state-dir --interval MS --once)
//! weakord scrub --state-dir <dir> [--json]   validate every durable artifact
//!   in a daemon state dir (journal JSON, result lines, WOCKPT checksums,
//!   flight dumps, stranded temp files) and quarantine corrupt ones into
//!   <state-dir>/quarantine/ with a structured report
//!
//! Every subcommand accepts --help.
//! ```

use std::process::exit;

use weakord::coherence::{CoherentMachine, Config, Migration, NetModel, Policy};
use weakord::core::HbMode;
use weakord::mc::machines::{
    CacheDelayMachine, NetReorderMachine, PsoMachine, ScMachine, TsoMachine, WoDef1Machine,
    WoDef2Machine, WriteBufferMachine,
};
use weakord::mc::{
    check_program_drf, explore, find_witness, run, shrink_witness, with_machine, Checkpoint,
    CheckpointCfg, Exploration, Limits, Machine, Opts, ProgressSink, Reduction, TraceLimits,
};
use weakord::obs::{chrome_trace, jsonl, Event, MemTracer, MetricsRegistry, Track};
use weakord::progs::delay::delay_set;
use weakord::progs::workloads::{
    barrier, fig3_scenario, producer_consumer, spin_broadcast, spinlock, spinlock_tts, ticket_lock,
    tree_barrier, BarrierParams, Fig3Params, PcParams, SpinBroadcastParams, SpinlockParams,
    TreeBarrierParams,
};
use weakord::progs::{litmus, Litmus, Program};
use weakord::sim::FaultPlan;

const USAGE: &str =
    "usage: weakord <litmus|explore|corpus|drf|delay|disasm|dot|export|check|run|stats|faults|serve|submit|watch|scrub> …\n\
                     (every subcommand accepts --help; see the README)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    match strs.split_first() {
        Some((&"litmus", rest)) => cmd_litmus(rest),
        Some((&"explore", rest)) => cmd_explore(rest),
        Some((&"corpus", rest)) => cmd_corpus(rest),
        Some((&"drf", rest)) => cmd_drf(rest),
        Some((&"delay", rest)) => cmd_delay(rest),
        Some((&"disasm", rest)) => cmd_disasm(rest),
        Some((&"dot", rest)) => cmd_dot(rest),
        Some((&"export", rest)) => cmd_export(rest),
        Some((&"check", rest)) => cmd_check(rest),
        Some((&"run", rest)) => cmd_run(rest),
        Some((&"stats", rest)) => cmd_stats(rest),
        Some((&"faults", rest)) => cmd_faults(rest),
        Some((&"serve", rest)) => cmd_serve(rest),
        Some((&"submit", rest)) => cmd_submit(rest),
        Some((&"watch", rest)) => cmd_watch(rest),
        Some((&"scrub", rest)) => cmd_scrub(rest),
        Some((&"--help" | &"-h", _)) => println!("{USAGE}"),
        _ => {
            eprintln!("{USAGE}");
            exit(2);
        }
    }
}

/// Prints `usage` and exits 0 when the user asked for `--help`/`-h`.
fn maybe_help(rest: &[&str], usage: &str) {
    if rest.contains(&"--help") || rest.contains(&"-h") {
        println!("{usage}");
        exit(0);
    }
}

fn find_litmus(name: &str) -> Litmus {
    litmus::all().into_iter().find(|l| l.name == name).unwrap_or_else(|| {
        eprintln!("unknown litmus test `{name}`; `weakord litmus` lists them");
        exit(2);
    })
}

fn cmd_litmus(rest: &[&str]) {
    maybe_help(
        rest,
        "usage: weakord litmus [<name>] [--reduce] [--witness <machine>]\n\
         Without a name, lists the litmus suite; with one, explores it on every machine.",
    );
    match rest.first() {
        None => {
            println!("{:<16} {:<5}  description", "name", "DRF0");
            for lit in litmus::all() {
                println!(
                    "{:<16} {:<5}  {}",
                    lit.name,
                    if lit.drf0 { "yes" } else { "no" },
                    lit.description
                );
            }
        }
        Some(name) => {
            let lit = find_litmus(name);
            let limits =
                if rest.contains(&"--reduce") { Limits::reduced() } else { Limits::default() };
            println!("{}\n", lit.program);
            println!(
                "{:<14} {:>8} {:>7} {:>11} {:>7}  forbidden outcome",
                "machine", "outcomes", "states", "states/s", "pruned"
            );
            fn row<M: Machine>(m: &M, lit: &Litmus, limits: Limits) {
                let ex = explore(m, &lit.program, limits);
                println!(
                    "{:<14} {:>8} {:>7} {:>11.0} {:>6.0}%  {}",
                    m.name(),
                    ex.outcomes.len(),
                    ex.states,
                    ex.stats.states_per_sec(),
                    ex.stats.reduction_ratio() * 100.0,
                    if ex.outcomes.iter().any(|o| (lit.non_sc)(o)) {
                        "OBSERVED"
                    } else {
                        "impossible"
                    }
                );
            }
            row(&ScMachine, &lit, limits);
            row(&WriteBufferMachine, &lit, limits);
            row(&TsoMachine, &lit, limits);
            row(&PsoMachine, &lit, limits);
            row(&NetReorderMachine, &lit, limits);
            row(&CacheDelayMachine, &lit, limits);
            row(&WoDef1Machine, &lit, limits);
            row(&WoDef2Machine::default(), &lit, limits);
            row(&WoDef2Machine { drf1_refined: true }, &lit, limits);
            if let Some(machine) = flag(rest, "--witness") {
                print_witness(&lit, &machine);
            }
        }
    }
}

fn print_witness(lit: &Litmus, machine: &str) {
    fn go<M: Machine>(m: &M, lit: &Litmus) {
        match find_witness(m, &lit.program, Limits::default(), |o| (lit.non_sc)(o)) {
            Some(w) => {
                println!(
                    "
witness interleaving on `{}` for the forbidden outcome:",
                    m.name()
                );
                for (i, label) in w.iter().enumerate() {
                    println!("  {i:>3}. {label}");
                }
            }
            None => println!(
                "
`{}` cannot produce the forbidden outcome.",
                m.name()
            ),
        }
    }
    with_machine!(machine, |m| go(&m, lit), other => eprintln!("unknown machine `{other}`"))
}

const EXPLORE_USAGE: &str = "usage: weakord explore <litmus-name|file.litmus> [opts]\n\
 \u{20}opts: --machine sc|write-buffer|tso|pso|net-reorder|cache-delay|wo-def1|wo-def2\n\
 \u{20}                               machine to explore (default wo-def2)\n\
 \u{20}      --reduce                 partial-order reduction (sequential sleep-set engine;\n\
 \u{20}                               takes neither --threads nor --memory-budget)\n\
 \u{20}      --threads N              worker threads (0 = all cores)\n\
 \u{20}      --max-states N           state cap\n\
 \u{20}      --memory-budget BYTES    visited-set RAM ceiling (K/M/G suffix ok);\n\
 \u{20}                               states past it spill to a temp file, so\n\
 \u{20}                               capacity is bounded by disk, not RAM\n\
 \u{20}      --checkpoint <dir>       crash-tolerant autosaves into <dir>\n\
 \u{20}      --checkpoint-every N     autosave period in admitted states (default 10000)\n\
 \u{20}      --resume                 continue from the checkpoint in <dir>\n\
 \u{20}      --abort-after N          suspend after N autosaves (kill/resume testing)\n\
 \u{20}                               (these three need --checkpoint)\n\
 \u{20}      --shrink                 delta-debug a minimal non-SC witness after the run\n\
 \u{20}      --progress               heartbeat lines on stderr while exploring\n\
 \u{20}      --trace out.json         Chrome trace with checkpoint/shrink spans\n\
 \u{20}      --trace-jsonl out.jsonl  line-delimited event log\n\
 \u{20}      --metrics                dump the metrics registry (to stderr)\n\
 Results (outcomes, states, deadlocks) go to stdout and are deterministic:\n\
 a resumed run's stdout is identical to an uninterrupted run's.";

/// `weakord explore`: one machine × one program, with optional
/// checkpoint/resume crash tolerance and witness shrinking.
fn cmd_explore(rest: &[&str]) {
    maybe_help(rest, EXPLORE_USAGE);
    let Some(target) = rest.first() else {
        eprintln!("{EXPLORE_USAGE}");
        exit(2);
    };
    let prog = if target.ends_with(".litmus") {
        let src = std::fs::read_to_string(target).unwrap_or_else(|e| {
            eprintln!("cannot read `{target}`: {e}");
            exit(1);
        });
        weakord::progs::parse_program(&src).unwrap_or_else(|e| {
            eprintln!("{target}: {e}");
            exit(1);
        })
    } else {
        find_litmus(target).program
    };
    if !rest.contains(&"--checkpoint") {
        let needs_dir = ["--resume", "--abort-after", "--checkpoint-every"];
        if let Some(f) = needs_dir.iter().find(|f| rest.contains(f)) {
            eprintln!("{f} needs --checkpoint <dir>\n{EXPLORE_USAGE}");
            exit(2);
        }
    }
    if rest.contains(&"--reduce") {
        if let Some(f) = ["--threads", "--memory-budget"].iter().find(|f| rest.contains(f)) {
            eprintln!(
                "{f} does not apply to --reduce: the sleep-set engine is sequential and keeps \
                 its visited map in RAM\n{EXPLORE_USAGE}"
            );
            exit(2);
        }
    }
    let mut limits = if rest.contains(&"--reduce") {
        Limits::with_reduction(Reduction::Sleep)
    } else {
        Limits::default()
    };
    if let Some(t) = flag(rest, "--threads") {
        limits.threads = t.parse().expect("--threads takes a number");
    }
    if let Some(n) = flag(rest, "--max-states") {
        limits.max_states = n.parse().expect("--max-states takes a number");
    }
    if let Some(b) = flag(rest, "--memory-budget") {
        limits.memory_budget = Some(parse_bytes(&b).unwrap_or_else(|| {
            eprintln!("--memory-budget takes bytes (K/M/G suffix ok), got `{b}`");
            exit(2);
        }));
    }
    let machine = flag(rest, "--machine").unwrap_or_else(|| "wo-def2".to_string());
    with_machine!(machine.as_str(), |m| explore_cli(&m, &prog, limits, rest), other => {
        eprintln!("unknown machine `{other}`");
        exit(2);
    })
}

/// Parses a byte count with an optional K/M/G (or KiB-style) suffix.
fn parse_bytes(s: &str) -> Option<usize> {
    let t = s.trim();
    let (digits, mult) = match t.char_indices().find(|(_, c)| !c.is_ascii_digit()) {
        None => (t, 1usize),
        Some((i, _)) => {
            let mult = match t[i..].to_ascii_uppercase().as_str() {
                "K" | "KB" | "KIB" => 1usize << 10,
                "M" | "MB" | "MIB" => 1 << 20,
                "G" | "GB" | "GIB" => 1 << 30,
                _ => return None,
            };
            (&t[..i], mult)
        }
    };
    digits.parse::<usize>().ok()?.checked_mul(mult)
}

/// Spawns the `--progress` heartbeat: a sink the engine publishes into
/// plus a thread that prints a stderr line whenever a fresh sample
/// lands. Returns the stop flag and handle to join after the run.
fn spawn_heartbeat(
) -> (ProgressSink, std::sync::Arc<std::sync::atomic::AtomicBool>, std::thread::JoinHandle<()>) {
    use std::sync::atomic::{AtomicBool, Ordering};
    let sink = ProgressSink::with_interval(std::time::Duration::from_millis(500));
    let stop = std::sync::Arc::new(AtomicBool::new(false));
    let (s, flag) = (sink.clone(), stop.clone());
    let handle = std::thread::spawn(move || {
        let mut last_seq = 0;
        while !flag.load(Ordering::Relaxed) {
            std::thread::sleep(std::time::Duration::from_millis(100));
            let p = s.sample();
            if p.seq != last_seq {
                last_seq = p.seq;
                eprintln!(
                    "progress: {} states, frontier {}, {:.0} states/s, {:.1}s",
                    p.states,
                    p.frontier,
                    p.states_per_sec(),
                    p.elapsed.as_secs_f64()
                );
            }
        }
    });
    (sink, stop, handle)
}

fn explore_cli<M: Machine>(m: &M, prog: &Program, limits: Limits, rest: &[&str]) {
    let resume = rest.contains(&"--resume");
    let mut events: Vec<Event> = Vec::new();
    let heartbeat = rest.contains(&"--progress").then(spawn_heartbeat);
    let cfg = flag(rest, "--checkpoint").map(|dir| {
        let mut cfg = CheckpointCfg::new(dir);
        if let Some(n) = flag(rest, "--checkpoint-every") {
            cfg.every = n.parse().expect("--checkpoint-every takes a number");
        }
        cfg.abort_after =
            flag(rest, "--abort-after").map(|n| n.parse().expect("--abort-after takes a number"));
        cfg
    });
    let checkpoint = match &cfg {
        None => Checkpoint::Off,
        Some(cfg) if resume => Checkpoint::Resume(cfg),
        Some(cfg) => Checkpoint::Fresh(cfg),
    };
    let opts = Opts { progress: heartbeat.as_ref().map(|(s, _, _)| s), checkpoint, cancel: None };
    let ex = run(m, prog, limits, &opts).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(1);
    });
    if cfg.is_some() {
        if resume {
            events.push(Event::instant(0, Track::Ckpt, "mc", "checkpoint-load"));
        }
        events.push(
            Event::span(
                0,
                ex.stats.checkpoint_time.as_millis().min(u128::from(u64::MAX)) as u64,
                Track::Ckpt,
                "mc",
                "checkpoint-save",
            )
            .arg("count", i64::from(ex.stats.checkpoints)),
        );
    }
    if let Some((s, stop, handle)) = heartbeat {
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let _ = handle.join();
        let p = s.sample();
        eprintln!(
            "progress: finished — {} states in {:.1}s ({:.0} states/s)",
            p.states,
            p.elapsed.as_secs_f64(),
            p.states_per_sec()
        );
    }
    // Semantic results on stdout, deterministically ordered (BTreeSet),
    // so `diff` between a clean and a killed-and-resumed run is empty.
    println!(
        "{} on {}: {} outcomes, {} states, {} deadlocks",
        prog.name,
        m.name(),
        ex.outcomes.len(),
        ex.states,
        ex.deadlocks
    );
    for o in &ex.outcomes {
        println!("  {o}");
    }
    match ex.stats.truncation {
        None => println!("complete"),
        Some(r) => println!("TRUNCATED: {r}"),
    }
    // Run-varying diagnostics on stderr only.
    eprintln!("{}", ex.stats);
    if rest.contains(&"--shrink") {
        let sc = explore(&ScMachine, prog, Limits::default());
        let non_sc = |o: &weakord::progs::Outcome| !sc.outcomes.contains(o);
        match find_witness(m, prog, limits, non_sc) {
            Some(w) => {
                let t0 = std::time::Instant::now();
                let report = shrink_witness(m, prog, &w, non_sc);
                events.push(
                    Event::span(
                        0,
                        t0.elapsed().as_millis().min(u128::from(u64::MAX)) as u64,
                        Track::Ckpt,
                        "mc",
                        "shrink",
                    )
                    .arg("from", report.original_len as i64)
                    .arg("to", report.shrunk.len() as i64),
                );
                println!(
                    "witness shrunk {} -> {} steps ({} replays):",
                    report.original_len,
                    report.shrunk.len(),
                    report.replays
                );
                for (i, label) in report.shrunk.iter().enumerate() {
                    println!("  {i:>3}. {label}");
                }
            }
            None => println!("no non-SC outcome reachable; nothing to shrink"),
        }
    }
    if let Some(path) = flag(rest, "--trace") {
        write_or_die(&path, &chrome_trace(&events));
        eprintln!("wrote Chrome trace ({} events) to {path}", events.len());
    }
    if let Some(path) = flag(rest, "--trace-jsonl") {
        write_or_die(&path, &jsonl(&events));
        eprintln!("wrote JSONL trace ({} events) to {path}", events.len());
    }
    if rest.contains(&"--metrics") {
        let mut reg = MetricsRegistry::new();
        ex.stats.export_metrics("mc", &mut reg);
        eprint!("{}", reg.dump());
    }
}

const CORPUS_USAGE: &str = "usage: weakord corpus [opts]\n\
 \u{20}Generated litmus-shape corpus (cycle families + IRIW/WRC/coherence\n\
 \u{20}specials, fence/sync/rmw variants) with the static Shasha\u{2013}Snir\n\
 \u{20}per-model classification from `progs::gen::predicts_weak`.\n\
 \u{20}opts: --seed N       value seed (default 0; names are seed-independent)\n\
 \u{20}      --family F     restrict to cycle2|cycle3|cycle4|special\n\
 \u{20}      --shape NAME   restrict to one shape by exact name\n\
 \u{20}      --emit <dir>   write each shape to <dir>/<name>.litmus and exit\n\
 \u{20}      --check        explore every shape on sc/write-buffer/tso/pso/wo-def2\n\
 \u{20}                     and verify the classification + SC-containment\n\
 \u{20}      --max-states N per-exploration state cap for --check";

/// `weakord corpus`: list, emit, or dynamically re-verify the generated
/// litmus corpus that drives `tests/corpus.rs` and the containment grid.
fn cmd_corpus(rest: &[&str]) {
    maybe_help(rest, CORPUS_USAGE);
    use weakord::progs::gen::{corpus, predicts_weak, ModelClass};
    let seed = flag(rest, "--seed").map_or(0, |s| s.parse().expect("--seed takes a number"));
    let mut shapes = corpus(seed);
    if let Some(family) = flag(rest, "--family") {
        shapes.retain(|s| s.family == family);
    }
    if let Some(name) = flag(rest, "--shape") {
        shapes.retain(|s| s.name == name);
    }
    if shapes.is_empty() {
        eprintln!("no corpus shapes match the given filters");
        exit(2);
    }
    if let Some(dir) = flag(rest, "--emit") {
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| {
            eprintln!("cannot create `{dir}`: {e}");
            exit(1);
        });
        for s in &shapes {
            let path = format!("{dir}/{}.litmus", s.name);
            write_or_die(&path, &weakord::progs::unparse_program(&s.program));
        }
        eprintln!("wrote {} shapes to {dir}/", shapes.len());
        return;
    }
    let mut limits = Limits::with_reduction(Reduction::Sleep);
    if let Some(n) = flag(rest, "--max-states") {
        limits.max_states = n.parse().expect("--max-states takes a number");
    }
    let check = rest.contains(&"--check");
    println!(
        "{:<24} {:<8} {:<4} {}",
        "name",
        "family",
        "drf",
        if check { "weak on (predicted = explored)" } else { "predicted weak on" }
    );
    let mut failures = 0usize;
    for s in &shapes {
        let predicted: Vec<&str> = ModelClass::ALL
            .iter()
            .filter(|c| predicts_weak(&s.program, **c))
            .map(|c| c.name())
            .collect();
        let tags = if predicted.is_empty() { "-".to_string() } else { predicted.join(" ") };
        if !check {
            println!(
                "{:<24} {:<8} {:<4} {tags}",
                s.name,
                s.family,
                if s.drf { "yes" } else { "no" }
            );
            continue;
        }
        // Dynamic leg: exploration must agree with the static call on
        // every modeled machine, and SC outcomes must be contained.
        let sc = explore(&ScMachine, &s.program, limits).outcomes;
        let mut observed: Vec<&str> = Vec::new();
        let mut bad: Vec<String> = Vec::new();
        let mut probe = |name: &'static str, class: ModelClass, got: Exploration| {
            if !got.outcomes.is_superset(&sc) {
                bad.push(format!("{name} lost SC outcomes"));
            }
            let weak = got.outcomes.len() > sc.len();
            if weak {
                observed.push(name);
            }
            if weak != predicts_weak(&s.program, class) {
                bad.push(format!("{name} disagrees with the delay-set prediction"));
            }
        };
        probe(
            "write-buffer",
            ModelClass::WriteBuffer,
            explore(&WriteBufferMachine, &s.program, limits),
        );
        probe("tso", ModelClass::Tso, explore(&TsoMachine, &s.program, limits));
        probe("pso", ModelClass::Pso, explore(&PsoMachine, &s.program, limits));
        probe("wo-def2", ModelClass::Wo, explore(&WoDef2Machine::default(), &s.program, limits));
        let shown = if observed.is_empty() { "-".to_string() } else { observed.join(" ") };
        if bad.is_empty() {
            println!(
                "{:<24} {:<8} {:<4} {shown}",
                s.name,
                s.family,
                if s.drf { "yes" } else { "no" }
            );
        } else {
            failures += 1;
            println!(
                "{:<24} {:<8} {:<4} FAIL: {}",
                s.name,
                s.family,
                if s.drf { "yes" } else { "no" },
                bad.join("; ")
            );
        }
    }
    println!("{} shapes{}", shapes.len(), if check { " checked" } else { "" });
    if failures > 0 {
        eprintln!("{failures} shapes failed the dynamic check");
        exit(1);
    }
}

fn cmd_drf(rest: &[&str]) {
    maybe_help(rest, "usage: weakord drf <litmus-name>   classify against DRF0/DRF1");
    let Some(name) = rest.first() else {
        eprintln!("usage: weakord drf <litmus-name>");
        exit(2);
    };
    let lit = find_litmus(name);
    for mode in [HbMode::Drf0, HbMode::Drf1] {
        let v = check_program_drf(&lit.program, mode, TraceLimits::default());
        println!(
            "{mode:?}: {} ({} complete traces{})",
            if v.is_race_free() { "race-free" } else { "RACY" },
            v.traces,
            if v.truncated { ", bounded" } else { "" }
        );
        if let Some(race) = v.races.first() {
            println!("  witness: {race}");
        }
    }
}

fn cmd_delay(rest: &[&str]) {
    maybe_help(rest, "usage: weakord delay <litmus-name>   Shasha\u{2013}Snir delay set");
    let Some(name) = rest.first() else {
        eprintln!("usage: weakord delay <litmus-name>");
        exit(2);
    };
    let lit = find_litmus(name);
    print!("{}", delay_set(&lit.program));
}

fn cmd_disasm(rest: &[&str]) {
    maybe_help(rest, "usage: weakord disasm <litmus-name>   disassemble a litmus program");
    let Some(name) = rest.first() else {
        eprintln!("usage: weakord disasm <litmus-name>");
        exit(2);
    };
    print!("{}", find_litmus(name).program);
}

fn cmd_export(rest: &[&str]) {
    maybe_help(rest, "usage: weakord export <litmus-name>   emit the text format");
    let Some(name) = rest.first() else {
        eprintln!("usage: weakord export <litmus-name>");
        exit(2);
    };
    print!("{}", weakord::progs::unparse_program(&find_litmus(name).program));
}

fn cmd_dot(rest: &[&str]) {
    maybe_help(rest, "usage: weakord dot <litmus-name>   Graphviz of a round-robin execution");
    let Some(name) = rest.first() else {
        eprintln!("usage: weakord dot <litmus-name>");
        exit(2);
    };
    let lit = find_litmus(name);
    // Materialize one idealized execution by stepping the SC machine
    // round-robin, then render po/so/races.
    use weakord::core::{IdealizedExecution, MemOp, OpId};
    use weakord::mc::machines::{ScMachine, ScState};
    let mut state: ScState = weakord::mc::Machine::initial(&ScMachine, &lit.program);
    let mut ops: Vec<MemOp> = Vec::new();
    let mut po = vec![0u32; lit.program.n_procs()];
    let mut progressed = true;
    while progressed {
        progressed = false;
        for t in 0..lit.program.n_procs() {
            if let Some(rec) = ScMachine::step_thread(&lit.program, &mut state, t) {
                ops.push(MemOp {
                    id: OpId::new(0),
                    proc: rec.proc,
                    po_index: po[t],
                    kind: rec.kind,
                    loc: rec.loc,
                    read_value: rec.read_value,
                    written_value: rec.written_value,
                    hypothetical: false,
                });
                po[t] += 1;
                progressed = true;
            }
        }
    }
    let exec = IdealizedExecution::from_observed(lit.program.n_procs() as u16, ops)
        .expect("round-robin execution is well-formed");
    print!("{}", weakord::core::execution_dot(&exec, weakord::core::HbMode::Drf0));
}

fn cmd_check(rest: &[&str]) {
    maybe_help(rest, "usage: weakord check <file.litmus> [--reduce] [--witness <machine>]");
    let Some(path) = rest.first() else {
        eprintln!("usage: weakord check <file.litmus> [--witness <machine>]");
        exit(2);
    };
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read `{path}`: {e}");
        exit(1);
    });
    let prog = weakord::progs::parse_program(&src).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        exit(1);
    });
    println!("{prog}");
    // DRF classification.
    let v0 = check_program_drf(&prog, HbMode::Drf0, TraceLimits::default());
    let v1 = check_program_drf(&prog, HbMode::Drf1, TraceLimits::default());
    println!(
        "DRF0: {}   DRF1: {}",
        if v0.is_race_free() { "race-free" } else { "RACY" },
        if v1.is_race_free() { "race-free" } else { "RACY" },
    );
    if let Some(race) = v0.races.first() {
        println!("  witness race: {race}");
    }
    // Delay set.
    let ds = delay_set(&prog);
    print!("delay set: {ds}");
    // Exploration across the machines.
    let limits = if rest.contains(&"--reduce") { Limits::reduced() } else { Limits::default() };
    println!(
        "
{:<14} {:>8} {:>7} {:>11} {:>7}",
        "machine", "outcomes", "states", "states/s", "pruned"
    );
    fn row<M: Machine>(m: &M, prog: &Program, limits: Limits) {
        let ex = explore(m, prog, limits);
        println!(
            "{:<14} {:>8} {:>7} {:>11.0} {:>6.0}%{}",
            m.name(),
            ex.outcomes.len(),
            ex.states,
            ex.stats.states_per_sec(),
            ex.stats.reduction_ratio() * 100.0,
            if ex.has_deadlock() { "  DEADLOCK" } else { "" }
        );
    }
    row(&ScMachine, &prog, limits);
    row(&WriteBufferMachine, &prog, limits);
    row(&TsoMachine, &prog, limits);
    row(&PsoMachine, &prog, limits);
    row(&NetReorderMachine, &prog, limits);
    row(&CacheDelayMachine, &prog, limits);
    row(&WoDef1Machine, &prog, limits);
    row(&WoDef2Machine::default(), &prog, limits);
    // Contract verdicts: does each sync-honoring machine appear SC?
    for (name, ok) in [
        ("tso", weakord::mc::appears_sc(&TsoMachine, &prog, Limits::default()).appears_sc),
        ("pso", weakord::mc::appears_sc(&PsoMachine, &prog, Limits::default()).appears_sc),
        ("wo-def1", weakord::mc::appears_sc(&WoDef1Machine, &prog, Limits::default()).appears_sc),
        (
            "wo-def2",
            weakord::mc::appears_sc(&WoDef2Machine::default(), &prog, Limits::default()).appears_sc,
        ),
    ] {
        println!("{name}: {}", if ok { "appears SC" } else { "non-SC outcomes reachable" });
    }
    if let Some(machine) = flag(rest, "--witness") {
        // Witness any outcome the SC machine cannot produce.
        let sc = explore(&ScMachine, &prog, Limits::default());
        let lit_like = move |o: &weakord::progs::Outcome| !sc.outcomes.contains(o);
        fn wit<M: Machine>(m: &M, prog: &Program, pred: impl Fn(&weakord::progs::Outcome) -> bool) {
            match weakord::mc::find_witness(m, prog, Limits::default(), pred) {
                Some(w) => {
                    println!(
                        "
witness interleaving on `{}` for a non-SC outcome:",
                        m.name()
                    );
                    for (i, label) in w.iter().enumerate() {
                        println!("  {i:>3}. {label}");
                    }
                }
                None => println!(
                    "
`{}` has no non-SC outcome.",
                    m.name()
                ),
            }
        }
        with_machine!(machine.as_str(), |m| wit(&m, &prog, lit_like),
            other => eprintln!("unknown machine `{other}`"))
    }
}

fn flag(rest: &[&str], name: &str) -> Option<String> {
    rest.iter().position(|a| *a == name).and_then(|i| rest.get(i + 1)).map(|s| s.to_string())
}

/// Resolves a workload name from `weakord run`/`weakord stats` into a program.
fn workload_program(name: &str) -> Option<Program> {
    Some(match name {
        "fig3" => fig3_scenario(Fig3Params::default()),
        "spinlock" => spinlock(SpinlockParams::default()),
        "spinlock-tts" => spinlock_tts(SpinlockParams::default()),
        "barrier" => barrier(BarrierParams::default()),
        "producer-consumer" => producer_consumer(PcParams::default()),
        "spin-broadcast" => spin_broadcast(SpinBroadcastParams::default()),
        "ticket-lock" => ticket_lock(SpinlockParams::default()),
        "tree-barrier" => tree_barrier(TreeBarrierParams::default()),
        "async-flood" => weakord::progs::workloads::async_flood(Default::default()),
        _ => return None,
    })
}

/// Reads the shared `run`/`stats` flags into a machine [`Config`].
fn run_config(rest: &[&str]) -> Config {
    let policy = match flag(rest, "--policy").as_deref() {
        None | Some("def2") => Policy::def2(),
        Some("sc") => Policy::Sc,
        Some("def1") => Policy::Def1,
        Some("def2-nack") => Policy::def2_nack(),
        Some("def2-drf1") => Policy::def2_drf1(),
        Some(other) => {
            eprintln!("unknown policy `{other}`");
            exit(2);
        }
    };
    let seed = flag(rest, "--seed").map_or(1, |s| s.parse().expect("--seed takes a number"));
    let network = match flag(rest, "--net").as_deref() {
        None | Some("general") => NetModel::General { min: 20, max: 60 },
        Some("bus") => NetModel::Bus { cycles: 4 },
        Some("crossbar") => NetModel::Crossbar { cycles: 12 },
        Some("mesh") => NetModel::Mesh { width: 4, per_hop: 6, jitter: 8 },
        Some("congested") => {
            NetModel::Congested { min: 10, max: 40, spike: 2_000, spike_permille: 30 }
        }
        Some(other) => {
            eprintln!("unknown network `{other}`");
            exit(2);
        }
    };
    let cache_lines = flag(rest, "--cache").map(|s| s.parse().expect("--cache takes a number"));
    let memory_banks =
        flag(rest, "--banks").map_or(1, |s| s.parse().expect("--banks takes a number"));
    let no_forwarding = rest.contains(&"--no-forwarding");
    let migration = flag(rest, "--migrate-at")
        .map(|s| Migration { thread: 0, at_cycle: s.parse().expect("--migrate-at takes a cycle") });
    let faults = fault_plan(rest, seed);
    Config {
        policy,
        seed,
        network,
        cache_lines,
        migration,
        memory_banks,
        no_forwarding,
        faults,
        record_trace: true,
        ..Config::default()
    }
}

const RUN_USAGE: &str = "usage: weakord run <workload> [opts]\n\
 \u{20}workloads: fig3 | spinlock | spinlock-tts | ticket-lock | barrier |\n\
 \u{20}           tree-barrier | producer-consumer | spin-broadcast | async-flood\n\
 \u{20}opts: --policy sc|def1|def2|def2-nack|def2-drf1   --seed N   --cache N\n\
 \u{20}      --net bus|crossbar|general|mesh|congested   --migrate-at N   --banks N\n\
 \u{20}      --drop-rate P --dup-rate P --reorder-rate P --spike-rate P  (permille)\n\
 \u{20}      --trace out.json        Chrome trace_event JSON (load in Perfetto)\n\
 \u{20}      --trace-jsonl out.jsonl line-delimited event log (byte-deterministic)\n\
 \u{20}      --metrics               dump the unified key=value metrics registry";

fn cmd_run(rest: &[&str]) {
    maybe_help(rest, RUN_USAGE);
    let Some(workload) = rest.first() else {
        eprintln!("{RUN_USAGE}");
        exit(2);
    };
    let prog = workload_program(workload).unwrap_or_else(|| {
        eprintln!("unknown workload `{workload}`");
        exit(2);
    });
    let cfg = run_config(rest);
    let (policy, seed, faults) = (cfg.policy, cfg.seed, cfg.faults);
    let trace_json = flag(rest, "--trace");
    let trace_jsonl = flag(rest, "--trace-jsonl");
    let want_metrics = rest.contains(&"--metrics");
    let tracing = trace_json.is_some() || trace_jsonl.is_some();
    // Only pay for event capture when an export was requested; the
    // default path keeps the no-op tracer monomorphized away.
    let (run, events) = if tracing {
        let (run, tracer) = CoherentMachine::with_tracer(&prog, cfg, MemTracer::new()).run_traced();
        (run, tracer.into_events())
    } else {
        (CoherentMachine::new(&prog, cfg).run(), Vec::new())
    };
    if let Some(path) = &trace_json {
        write_or_die(path, &chrome_trace(&events));
        eprintln!("wrote Chrome trace ({} events) to {path}", events.len());
    }
    if let Some(path) = &trace_jsonl {
        write_or_die(path, &jsonl(&events));
        eprintln!("wrote JSONL trace ({} events) to {path}", events.len());
    }
    let result = run.unwrap_or_else(|e| {
        eprintln!("run failed: {e}");
        exit(1);
    });
    if faults.is_active() {
        println!(
            "{} under {} (seed {seed}, fault seed {:#x}):",
            prog.name,
            policy.name(),
            faults.seed
        );
    } else {
        println!("{} under {} (seed {seed}):", prog.name, policy.name());
    }
    println!("{result}");
    println!("\nhottest lines:");
    for (loc, st) in result.hotspots(5) {
        println!(
            "  {loc:<8} {:>5} GetX {:>5} GetS {:>5} Inv {:>5} transfers",
            st.getx, st.gets, st.invs, st.transfers
        );
    }
    let mode = if policy == Policy::def2_drf1() { HbMode::Drf1 } else { HbMode::Drf0 };
    match result.check_appears_sc(mode) {
        Ok(()) => println!("\nLemma 1: the observed execution appears sequentially consistent."),
        Err(v) => println!("\nLemma 1 VIOLATION: {v}"),
    }
    if want_metrics {
        println!("\nmetrics:");
        print!("{}", result.metrics().dump());
    }
}

fn write_or_die(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| {
        eprintln!("cannot write `{path}`: {e}");
        exit(1);
    });
}

const STATS_USAGE: &str = "usage: weakord stats <workload|litmus-name> [run opts] [--reduce]\n\
  Workload names run the cycle-level machine and dump its metrics registry;\n\
  litmus names explore the test on the wo-def2 machine and dump the\n\
  explorer's diagnostics. `weakord run --help` lists the run opts.";

/// Dumps the unified metrics registry for a timed run (workload names)
/// or an exploration (litmus names).
fn cmd_stats(rest: &[&str]) {
    maybe_help(rest, STATS_USAGE);
    let Some(name) = rest.first() else {
        eprintln!("{STATS_USAGE}");
        exit(2);
    };
    if let Some(prog) = workload_program(name) {
        let cfg = run_config(rest);
        let policy = cfg.policy;
        match CoherentMachine::new(&prog, cfg).run() {
            Ok(result) => {
                println!("# {} under {}", prog.name, policy.name());
                print!("{}", result.metrics().dump());
            }
            Err(e) => {
                eprintln!("run failed: {e}");
                exit(1);
            }
        }
        return;
    }
    if litmus::all().iter().any(|l| l.name == *name) {
        let lit = find_litmus(name);
        let limits = if rest.contains(&"--reduce") { Limits::reduced() } else { Limits::default() };
        let machine = WoDef2Machine::default();
        let ex = explore(&machine, &lit.program, limits);
        let mut reg = MetricsRegistry::new();
        ex.stats.export_metrics("mc", &mut reg);
        reg.counter("mc.outcomes", ex.outcomes.len() as u64);
        reg.counter("mc.deadlocks", u64::from(ex.has_deadlock()));
        println!("# {} explored on {}", lit.name, machine.name());
        print!("{}", reg.dump());
        return;
    }
    eprintln!("`{name}` is neither a workload nor a litmus test; `weakord litmus` lists the suite");
    exit(2);
}

/// Reads the shared fault-rate flags (permille each) into a plan seeded
/// from the run seed unless `--fault-seed` overrides it.
fn fault_plan(rest: &[&str], seed: u64) -> FaultPlan {
    let rate = |name: &str| {
        flag(rest, name).map_or(0, |s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("{name} takes a permille rate (0..=1000)");
                exit(2);
            })
        })
    };
    let fault_seed = flag(rest, "--fault-seed")
        .map_or(seed, |s| s.parse().expect("--fault-seed takes a number"));
    FaultPlan::with_rates(
        fault_seed,
        rate("--drop-rate"),
        rate("--dup-rate"),
        rate("--reorder-rate"),
        rate("--spike-rate"),
    )
}

/// Fault-injected conformance sweep: every built-in litmus program ×
/// the chosen sync policy × `--schedules` seeded fault plans, checked
/// differentially against the exhaustive SC explorer for DRF0 programs.
fn cmd_faults(rest: &[&str]) {
    maybe_help(
        rest,
        "usage: weakord faults [--seed N] [--drop-rate P] [--dup-rate P]\n\
         \u{20}                     [--reorder-rate P] [--spike-rate P]\n\
         \u{20}                     [--policy nack|queue] [--schedules N]\n\
         Rates are permille. Sweeps the litmus suite under injected faults and\n\
         checks DRF0 programs differentially against the exhaustive SC explorer.",
    );
    let seed = flag(rest, "--seed").map_or(0xFA01, |s| s.parse().expect("--seed takes a number"));
    let policy = match flag(rest, "--policy").as_deref() {
        None | Some("queue") => Policy::def2(),
        Some("nack") => Policy::def2_nack(),
        Some(other) => {
            eprintln!("unknown sync policy `{other}` (expected `nack` or `queue`)");
            exit(2);
        }
    };
    let schedules: u64 =
        flag(rest, "--schedules").map_or(8, |s| s.parse().expect("--schedules takes a number"));
    let drop = flag(rest, "--drop-rate").map_or(40, |s| s.parse().expect("permille"));
    let dup = flag(rest, "--dup-rate").map_or(40, |s| s.parse().expect("permille"));
    let reorder = flag(rest, "--reorder-rate").map_or(60, |s| s.parse().expect("permille"));
    let spike = flag(rest, "--spike-rate").map_or(20, |s| s.parse().expect("permille"));
    println!(
        "fault sweep under {} (seed {seed}, {schedules} schedules, drop {drop}\u{2030} dup {dup}\u{2030} reorder {reorder}\u{2030} spike {spike}\u{2030})",
        policy.name()
    );
    println!(
        "{:<16} {:<5} {:>6} {:>7} {:>6} {:>6} {:>7}  verdict",
        "program", "DRF0", "runs", "cycles", "drops", "dups", "nacks"
    );
    let mut failures = 0u32;
    for lit in litmus::all() {
        let sc = lit.drf0.then(|| explore(&ScMachine, &lit.program, Limits::default()).outcomes);
        let (mut cycles, mut drops, mut dups, mut nacks) = (0u64, 0u64, 0u64, 0u64);
        let mut verdict = "ok";
        for i in 0..schedules {
            let faults = FaultPlan::with_rates(seed ^ (i * 0x9E37), drop, dup, reorder, spike);
            let cfg =
                Config { policy, seed: seed + i, faults, record_trace: true, ..Config::default() };
            match CoherentMachine::new(&lit.program, cfg).run() {
                Ok(r) => {
                    cycles = cycles.max(r.cycles);
                    drops += r.counters.get("fault-drops");
                    dups += r.counters.get("fault-dups");
                    nacks += r.counters.get("nacks");
                    if let Some(sc) = &sc {
                        if !sc.contains(&r.outcome) {
                            verdict = "NON-SC OUTCOME";
                            failures += 1;
                        }
                    }
                }
                Err(e) => {
                    verdict = "DID NOT TERMINATE";
                    failures += 1;
                    eprintln!("{} (fault seed {:#x}):\n{e}", lit.name, faults.seed);
                }
            }
        }
        println!(
            "{:<16} {:<5} {:>6} {:>7} {:>6} {:>6} {:>7}  {verdict}",
            lit.name,
            if lit.drf0 { "yes" } else { "no" },
            schedules,
            cycles,
            drops,
            dups,
            nacks
        );
    }
    if failures > 0 {
        eprintln!("{failures} conformance failure(s)");
        exit(1);
    }
}

const SERVE_USAGE: &str = "usage: weakord serve [opts]\n\
 \u{20}opts: --addr HOST:PORT         bind address (default 127.0.0.1:0; the\n\
 \u{20}                               chosen port is printed and written to\n\
 \u{20}                               <state-dir>/addr)\n\
 \u{20}      --state-dir <dir>        durable state: accept journals, results,\n\
 \u{20}                               per-job checkpoints (default ./weakord-serve-state)\n\
 \u{20}      --workers N              concurrent jobs (default 2)\n\
 \u{20}      --job-threads N          engine threads per job (default 1)\n\
 \u{20}      --max-queue N            bounded admission; beyond it submits are\n\
 \u{20}                               shed with an explicit rejection (default 64)\n\
 \u{20}      --checkpoint-every N     per-job autosave cadence in admitted\n\
 \u{20}                               states (default 10000)\n\
 \u{20}      --retry-max N            panic retry cap before a job is poisoned\n\
 \u{20}                               (default 3)\n\
 \u{20}      --test-hooks             honor test_panics/test_sleep_ms fault\n\
 \u{20}                               injection in submits (tests/CI only)\n\
 \u{20}      --progress-every-ms N    cadence of progress lines on streaming\n\
 \u{20}                               submits (default 200)\n\
 \u{20}      --stall-after-ms N       watchdog: dump a running job's flight\n\
 \u{20}                               ring after N ms without state-count\n\
 \u{20}                               movement (default 30000)\n\
 \u{20}storage fault injection (requires --test-hooks; tests/CI only):\n\
 \u{20}      --store-fault-seed N     RNG seed for the storage fault plan\n\
 \u{20}      --store-fault-torn P     permille of writes published torn\n\
 \u{20}      --store-fault-rename P   permille of writes whose publishing\n\
 \u{20}                               rename fails (temp file stranded)\n\
 \u{20}      --store-fault-enospc P   permille of writes failing with ENOSPC\n\
 \u{20}      --store-fault-eio P      permille of writes failing with a\n\
 \u{20}                               transient EIO (cleared by bounded retry)\n\
 \u{20}      --store-fault-class C    comma list of classes the rates hit:\n\
 \u{20}                               journal,result,ckpt,flight or all\n\
 \u{20}      --store-crash-after N    deterministic crash point: the N-th\n\
 \u{20}                               durable write loses its unsynced tail\n\
 \u{20}                               and the simulated disk dies\n\
  The daemon accepts one JSON request per line (see `weakord submit --help`)\n\
  and exits on the `shutdown` op. kill -9 is always safe: accepted jobs are\n\
  journaled and resume byte-identically on the next start. On worker panic,\n\
  poison, or stall the last-K-events flight ring is dumped under\n\
  <state-dir>/flight/.";

/// `weakord serve`: run the checking daemon in the foreground.
fn cmd_serve(rest: &[&str]) {
    maybe_help(rest, SERVE_USAGE);
    let mut cfg = weakord::serve::ServeConfig::default();
    if let Some(addr) = flag(rest, "--addr") {
        cfg.addr = addr;
    }
    if let Some(dir) = flag(rest, "--state-dir") {
        cfg.state_dir = dir.into();
    }
    let num = |name: &str, dflt: usize| {
        flag(rest, name).map_or(dflt, |s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("{name} takes a number");
                exit(2);
            })
        })
    };
    cfg.workers = num("--workers", cfg.workers);
    cfg.job_threads = num("--job-threads", cfg.job_threads);
    cfg.max_queue = num("--max-queue", cfg.max_queue);
    cfg.ckpt_every = num("--checkpoint-every", cfg.ckpt_every);
    cfg.retry_max = num("--retry-max", cfg.retry_max as usize) as u32;
    cfg.test_hooks = rest.contains(&"--test-hooks");
    cfg.progress_every_ms = num("--progress-every-ms", cfg.progress_every_ms as usize) as u64;
    cfg.stall_after_ms = num("--stall-after-ms", cfg.stall_after_ms as usize) as u64;
    let fault_flags = [
        "--store-fault-seed",
        "--store-fault-torn",
        "--store-fault-rename",
        "--store-fault-enospc",
        "--store-fault-eio",
        "--store-fault-class",
        "--store-crash-after",
    ];
    let any_faults = fault_flags.iter().any(|f| flag(rest, f).is_some());
    let outcome = if any_faults {
        if !cfg.test_hooks {
            eprintln!("storage fault injection requires --test-hooks");
            exit(2);
        }
        let mut plan = weakord::serve::StoreFaultPlan::none();
        plan.seed = num("--store-fault-seed", 0) as u64;
        plan.torn_permille = num("--store-fault-torn", 0) as u32;
        plan.rename_permille = num("--store-fault-rename", 0) as u32;
        plan.enospc_permille = num("--store-fault-enospc", 0) as u32;
        plan.eio_permille = num("--store-fault-eio", 0) as u32;
        if let Some(classes) = flag(rest, "--store-fault-class") {
            plan.class_mask = weakord::serve::parse_class_mask(&classes).unwrap_or_else(|e| {
                eprintln!("{e}");
                exit(2);
            });
        }
        if flag(rest, "--store-crash-after").is_some() {
            plan.crash_after_writes = Some(num("--store-crash-after", 0) as u64);
        }
        let vfs = std::sync::Arc::new(weakord::serve::FaultVfs::new(plan));
        weakord::serve::run_with_vfs(cfg, vfs)
    } else {
        weakord::serve::run(cfg)
    };
    if let Err(e) = outcome {
        eprintln!("serve failed: {e}");
        exit(1);
    }
}

const SCRUB_USAGE: &str = "usage: weakord scrub --state-dir <dir> [--json]\n\
 \u{20}Validates every durable artifact in a serve daemon's state directory —\n\
 \u{20}journal JSON and job identity, result lines, WOCKPT checkpoint\n\
 \u{20}checksums, flight dumps, stranded *.tmp files — and moves corrupt ones\n\
 \u{20}into <state-dir>/quarantine/ under monotonically-suffixed names (the\n\
 \u{20}same pass the daemon runs at startup before recovery).\n\
 \u{20}opts: --state-dir <dir>  the state directory to scrub (required)\n\
 \u{20}      --json             print the structured one-line JSON report\n\
 \u{20}Exits 0 on a clean dir, 3 when anything was quarantined.";

/// `weakord scrub`: offline scrub of a daemon state directory.
fn cmd_scrub(rest: &[&str]) {
    maybe_help(rest, SCRUB_USAGE);
    let Some(dir) = flag(rest, "--state-dir") else {
        eprintln!("{SCRUB_USAGE}");
        exit(2);
    };
    let vfs = weakord::serve::RealVfs::new();
    match weakord::serve::scrub(&vfs, std::path::Path::new(&dir)) {
        Ok(report) => {
            if rest.contains(&"--json") {
                println!("{}", report.to_json_line());
            } else {
                print!("{}", report.render_human());
            }
            if report.quarantined() > 0 {
                exit(3);
            }
        }
        Err(e) => {
            eprintln!("scrub failed: {e}");
            exit(1);
        }
    }
}

const SUBMIT_USAGE: &str = "usage: weakord submit --addr HOST:PORT [request...]\n\
 \u{20}Sends requests to a running `weakord serve` daemon and prints every\n\
 \u{20}reply line (JSONL in, JSONL out).\n\
 \u{20}opts: --addr HOST:PORT   daemon address (or --state-dir <dir> to read\n\
 \u{20}      --state-dir <dir>  the address the daemon wrote at startup)\n\
 \u{20}      --litmus NAME      build a submit for a built-in litmus test\n\
 \u{20}      --machine M        machine for --litmus (default wo-def2)\n\
 \u{20}      --max-states N     state cap for --litmus\n\
 \u{20}      --reduce           partial-order reduction for --litmus\n\
 \u{20}      --stream           ask for live progress lines on submits and\n\
 \u{20}                         print them as they arrive\n\
 \u{20}      --status           send a status request\n\
 \u{20}      --metrics          print the daemon's key=value metrics exposition\n\
 \u{20}      --shutdown         ask the daemon to drain and exit\n\
 \u{20}Any remaining argument is sent verbatim as one raw JSONL request line.";

/// `weakord submit`: thin client for the serve daemon.
fn cmd_submit(rest: &[&str]) {
    maybe_help(rest, SUBMIT_USAGE);
    let addr = flag(rest, "--addr").or_else(|| {
        flag(rest, "--state-dir")
            .and_then(|d| std::fs::read_to_string(std::path::Path::new(&d).join("addr")).ok())
    });
    let Some(addr) = addr else {
        eprintln!("{SUBMIT_USAGE}");
        exit(2);
    };
    let mut client = weakord::serve::Client::connect(addr.trim()).unwrap_or_else(|e| {
        eprintln!("cannot reach daemon at {addr}: {e}");
        exit(1);
    });
    let mut requests: Vec<String> = Vec::new();
    if let Some(name) = flag(rest, "--litmus") {
        let machine = flag(rest, "--machine").unwrap_or_else(|| "wo-def2".to_string());
        let mut req =
            format!("{{\"op\":\"submit\",\"machine\":\"{machine}\",\"litmus\":\"{name}\"");
        if let Some(n) = flag(rest, "--max-states") {
            req.push_str(&format!(",\"max_states\":{n}"));
        }
        if rest.contains(&"--reduce") {
            req.push_str(",\"reduce\":true");
        }
        if rest.contains(&"--stream") {
            req.push_str(",\"stream\":true");
        }
        req.push('}');
        requests.push(req);
    }
    if rest.contains(&"--status") {
        requests.push("{\"op\":\"status\"}".to_string());
    }
    if rest.contains(&"--metrics") {
        requests.push("{\"op\":\"metrics\"}".to_string());
    }
    if rest.contains(&"--shutdown") {
        requests.push("{\"op\":\"shutdown\"}".to_string());
    }
    // Raw JSON lines passed as positional arguments.
    let mut skip = false;
    for (i, a) in rest.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        match *a {
            "--addr" | "--state-dir" | "--litmus" | "--machine" | "--max-states" => skip = true,
            "--reduce" | "--stream" | "--status" | "--metrics" | "--shutdown" => {}
            raw => {
                let _ = i;
                requests.push(raw.to_string());
            }
        }
    }
    if requests.is_empty() {
        eprintln!("{SUBMIT_USAGE}");
        exit(2);
    }
    let mut failed = false;
    for req in requests {
        let is_submit = req.contains("\"op\":\"submit\"");
        if is_submit {
            // Print non-terminal lines as they arrive — for a streaming
            // submit that *is* the point.
            match client.submit_streaming(&req, |line| println!("{line}")) {
                Ok(reply) => {
                    println!("{}", reply.line);
                    if !matches!(reply.kind, weakord::serve::SubmitKind::Done { .. }) {
                        failed = true;
                    }
                }
                Err(e) => {
                    eprintln!("submit failed: {e}");
                    exit(1);
                }
            }
        } else {
            match client.request(&req) {
                Ok(line) if req.contains("\"op\":\"metrics\"") => print_metrics_reply(&line),
                Ok(line) => println!("{line}"),
                Err(e) => {
                    eprintln!("request failed: {e}");
                    exit(1);
                }
            }
        }
    }
    if failed {
        exit(1);
    }
}

/// Unwraps a `metrics` reply into its key=value text exposition (falls
/// back to the raw line on anything unexpected).
fn print_metrics_reply(line: &str) {
    use weakord::obs::json::{self, Json};
    match json::parse(line)
        .ok()
        .and_then(|v| v.get("dump").and_then(Json::as_str).map(String::from))
    {
        Some(dump) => print!("{dump}"),
        None => println!("{line}"),
    }
}

const WATCH_USAGE: &str = "usage: weakord watch [opts]\n\
 \u{20}Live refreshing table of a serve daemon's jobs and gauges, built from\n\
 \u{20}the `status` op.\n\
 \u{20}opts: --addr HOST:PORT   daemon address (or --state-dir <dir> to read\n\
 \u{20}      --state-dir <dir>  the address the daemon wrote at startup)\n\
 \u{20}      --interval MS      refresh period in milliseconds (default 1000)\n\
 \u{20}      --once             print one snapshot and exit (no screen clear)";

/// `weakord watch`: poll `status` and render a refreshing table.
fn cmd_watch(rest: &[&str]) {
    maybe_help(rest, WATCH_USAGE);
    let addr = flag(rest, "--addr").or_else(|| {
        flag(rest, "--state-dir")
            .and_then(|d| std::fs::read_to_string(std::path::Path::new(&d).join("addr")).ok())
    });
    let Some(addr) = addr else {
        eprintln!("{WATCH_USAGE}");
        exit(2);
    };
    let addr = addr.trim().to_string();
    let once = rest.contains(&"--once");
    let interval = std::time::Duration::from_millis(flag(rest, "--interval").map_or(1000, |s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("--interval takes milliseconds");
            exit(2);
        })
    }));
    let mut client: Option<weakord::serve::Client> = None;
    loop {
        if client.is_none() {
            client = weakord::serve::Client::connect(&addr).ok();
        }
        let status = client.as_mut().and_then(|c| c.request("{\"op\":\"status\"}").ok());
        match status {
            Some(line) => render_status(&addr, &line, !once),
            None => {
                // Daemon gone (or not yet up): reconnect next tick.
                client = None;
                if once {
                    eprintln!("cannot reach daemon at {addr}");
                    exit(1);
                }
                println!("waiting for daemon at {addr} …");
            }
        }
        if once {
            return;
        }
        std::thread::sleep(interval);
    }
}

/// One `watch` frame: gauges header plus the per-job table.
fn render_status(addr: &str, line: &str, clear: bool) {
    use weakord::obs::json::{self, Json};
    let Ok(v) = json::parse(line) else {
        println!("{line}");
        return;
    };
    if clear {
        // ANSI clear + home, the classic `watch(1)` refresh.
        print!("\u{1b}[2J\u{1b}[H");
    }
    let num = |k: &str| v.get(k).and_then(Json::as_num).unwrap_or(0.0);
    println!(
        "weakord daemon {addr} — up {:.1}s  queue {}  running {}",
        num("uptime_ms") / 1000.0,
        num("queue_depth") as u64,
        num("running") as u64
    );
    if let Some(l) = v.get("latency_us") {
        let ln = |k: &str| l.get(k).and_then(Json::as_num).unwrap_or(0.0);
        println!(
            "latency µs: count {}  mean {:.0}  p50 {}  p95 {}  p99 {}",
            ln("count") as u64,
            ln("mean"),
            ln("p50") as u64,
            ln("p95") as u64,
            ln("p99") as u64
        );
    }
    if let Some(s) = v.get("storage") {
        let b = |k: &str| matches!(s.get(k), Some(Json::Bool(true)));
        let cleanup = s.get("cleanup_errors").and_then(Json::as_num).unwrap_or(0.0) as u64;
        println!(
            "storage: cleanup_errors {cleanup}  disk_full {}  ckpt_ram_only {}",
            if b("disk_full") { "YES" } else { "no" },
            if b("ckpt_ram_only") { "YES" } else { "no" },
        );
    }
    println!("{:<18} {:<8} {:>12} {:>12}", "JOB", "PHASE", "STATES", "ELAPSED-MS");
    match v.get("jobs").and_then(Json::as_arr) {
        Some(jobs) if !jobs.is_empty() => {
            for j in jobs {
                let id = j.get("id").and_then(Json::as_str).unwrap_or("?");
                let phase = j.get("phase").and_then(Json::as_str).unwrap_or("?");
                let jn = |k: &str| j.get(k).and_then(Json::as_num).unwrap_or(0.0) as u64;
                println!("{:<18} {:<8} {:>12} {:>12}", id, phase, jn("states"), jn("elapsed_ms"));
            }
        }
        _ => println!("  (no jobs yet)"),
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
}
