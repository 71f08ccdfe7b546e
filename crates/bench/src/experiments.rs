//! The experiments, one function per paper artifact.
//!
//! | id | artifact | function |
//! |----|----------|----------|
//! | E1 | Figure 1 (four hardware configurations) | [`e1_figure1`] |
//! | E2 | Figure 2 (DRF0 example & counter-example) | [`e2_figure2`] |
//! | E3 | Definition 2 contract (Appendix B theorem) | [`e3_contract`] |
//! | E4 | Figure 3 (release stall, Def. 1 vs Def. 2) | [`e4_figure3`] |
//! | E5 | Section 6 spin pathology & DRF1 refinement | [`e5_spin`] |
//! | E6 | Section 5.3 termination / deadlock freedom | [`e6_termination`] |
//! | E7 | Ablations (parallel data, miss cap, networks) | [`e7_ablations`] |
//! | E9 | Fault-injected interconnect & the NACK leg | [`e9_faults`] |
//! | E10 | Observability: tracer overhead & volume | [`e10_observability`] |
//! | E13 | Explorer engines: lock-free vs mutex-shard throughput | [`e13_explore_engines`] |

use std::fmt::Write as _;

use weakord_coherence::{
    CoherentMachine, Config, NetModel, Policy, RunResult, StallCause, SyncPolicy,
};
use weakord_core::{check_drf, figures, HbMode};
use weakord_mc::machines::{
    BnrMachine, CacheDelayMachine, NetReorderMachine, PsoMachine, ScMachine, TsoMachine,
    WoDef1Machine, WoDef2Machine, WriteBufferMachine,
};
use weakord_mc::{check_weak_ordering, explore, explore_seq, Limits, Machine, TraceLimits};
use weakord_progs::workloads::{
    fig3_scenario, spin_broadcast, ticket_lock, tree_barrier, Fig3Params, SpinBroadcastParams,
    SpinlockParams, TreeBarrierParams,
};
use weakord_progs::{gen, litmus, workloads, Program};

/// A rendered experiment table: title, column headers, and rows of
/// cells, plus the shape check verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Experiment id and title.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Row-major cells.
    pub rows: Vec<Vec<String>>,
    /// The paper's qualitative claim, and whether our run matched it.
    pub shape: Vec<(String, bool)>,
}

impl Table {
    fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            shape: Vec::new(),
        }
    }

    fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    fn check(&mut self, claim: impl Into<String>, holds: bool) {
        self.shape.push((claim.into(), holds));
    }

    /// Returns `true` iff every shape check passed.
    pub fn shape_holds(&self) -> bool {
        self.shape.iter().all(|(_, ok)| *ok)
    }

    /// Renders the table as CSV (header row, then data rows; the shape
    /// checks become trailing comment lines).
    pub fn render_csv(&self) -> String {
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ =
            writeln!(out, "{}", self.header.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
        }
        for (claim, ok) in &self.shape {
            let _ = writeln!(out, "# shape: {} — {}", claim, if *ok { "HOLDS" } else { "FAILED" });
        }
        out
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, (c, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{c:>w$}", w = w);
            }
            out.push('\n');
        };
        line(&self.header, &widths, &mut out);
        for row in &self.rows {
            line(row, &widths, &mut out);
        }
        for (claim, ok) in &self.shape {
            let _ = writeln!(out, "  shape: {} — {}", claim, if *ok { "HOLDS" } else { "FAILED" });
        }
        out
    }
}

fn run_timed(prog: &Program, policy: Policy, seed: u64) -> RunResult {
    let cfg = Config { policy, seed, ..Config::default() };
    CoherentMachine::new(prog, cfg)
        .run()
        .unwrap_or_else(|e| panic!("{} under {}: {e}", prog.name, policy.name()))
}

/// E1 / Figure 1: the Dekker-style violation across the paper's four
/// hardware configurations, plus the SC reference and the two weakly
/// ordered machines.
pub fn e1_figure1() -> Table {
    let mut t = Table::new(
        "E1 · Figure 1 — can hardware kill both processors?",
        &["configuration", "machine", "fig1 outcome", "dekker-sync (DRF0)", "states"],
    );
    let lit = litmus::fig1_dekker();
    let sync = litmus::dekker_sync();
    let mut violations = Vec::new();
    let mut sync_violations = Vec::new();
    let mut add = |t: &mut Table,
                   config: &str,
                   name: &'static str,
                   f: &dyn Fn(&Program) -> weakord_mc::Exploration| {
        let ex = f(&lit.program);
        let violated = ex.outcomes.iter().any(|o| (lit.non_sc)(o));
        let ex_sync = f(&sync.program);
        let sync_violated = ex_sync.outcomes.iter().any(|o| (sync.non_sc)(o));
        violations.push((name, violated));
        sync_violations.push((name, sync_violated));
        t.row(vec![
            config.to_string(),
            name.to_string(),
            if violated { "possible" } else { "impossible" }.to_string(),
            if sync_violated { "possible" } else { "impossible" }.to_string(),
            ex.states.to_string(),
        ]);
    };
    let lim = Limits::default();
    add(&mut t, "reference", "sc", &|p| explore(&ScMachine, p, lim));
    add(&mut t, "bus, no caches (write buffers)", "write-buffer", &|p| {
        explore(&WriteBufferMachine, p, lim)
    });
    add(&mut t, "general network, no caches", "net-reorder", &|p| {
        explore(&NetReorderMachine, p, lim)
    });
    add(&mut t, "coherent bus (write buffers)", "write-buffer", &|p| {
        explore(&WriteBufferMachine, p, lim)
    });
    add(&mut t, "coherent general network", "cache-delay", &|p| {
        explore(&CacheDelayMachine, p, lim)
    });
    add(&mut t, "weak ordering, Definition 1", "wo-def1", &|p| explore(&WoDef1Machine, p, lim));
    add(&mut t, "weak ordering, Section 5 impl.", "wo-def2", &|p| {
        explore(&WoDef2Machine::default(), p, lim)
    });
    let relaxed_all = violations.iter().filter(|(n, _)| *n != "sc").all(|(_, v)| *v);
    let sc_never = !violations.iter().any(|(n, v)| *n == "sc" && *v);
    let wo_keep_drf0 =
        sync_violations.iter().filter(|(n, _)| n.starts_with("wo-")).all(|(_, v)| !*v);
    t.check("violation possible on all four relaxed configurations", relaxed_all);
    t.check("violation impossible under sequential consistency", sc_never);
    t.check("weakly ordered machines forbid it for the DRF0 rewrite", wo_keep_drf0);
    t
}

/// E2 / Figure 2: the example and counter-example executions against
/// DRF0.
pub fn e2_figure2() -> Table {
    let mut t = Table::new(
        "E2 · Figure 2 — DRF0 example and counter-example",
        &["execution", "conflicting pairs", "races", "verdict"],
    );
    let a = check_drf(&figures::figure_2a(), HbMode::Drf0);
    let b = check_drf(&figures::figure_2b(), HbMode::Drf0);
    t.row(vec![
        "figure 2(a)".into(),
        a.conflicting_pairs.to_string(),
        a.races.len().to_string(),
        if a.is_race_free() { "obeys DRF0" } else { "violates DRF0" }.into(),
    ]);
    t.row(vec![
        "figure 2(b)".into(),
        b.conflicting_pairs.to_string(),
        b.races.len().to_string(),
        if b.is_race_free() { "obeys DRF0" } else { "violates DRF0" }.into(),
    ]);
    t.check("figure 2(a) obeys DRF0", a.is_race_free());
    t.check(
        "figure 2(b) violates DRF0 (≥2 unordered pairs)",
        !b.is_race_free() && b.races.len() >= 2,
    );
    t
}

/// E3 / Definition 2 contract: every machine against the litmus suite
/// plus generated programs.
pub fn e3_contract(generated_seeds: u64) -> Table {
    let mut t = Table::new(
        "E3 · the weak-ordering contract (Definition 2 w.r.t. DRF0)",
        &[
            "machine",
            "conforming programs",
            "appears SC",
            "non-conforming",
            "relaxed on racy",
            "verdict",
        ],
    );
    let mut programs: Vec<Program> = litmus::all().into_iter().map(|l| l.program).collect();
    for seed in 0..generated_seeds {
        programs.push(gen::race_free(seed, gen::GenParams::default()));
        programs.push(gen::racy(seed, gen::GenParams::default()));
    }
    let lim = Limits::default();
    let tl = TraceLimits::default();
    let mut verdicts = Vec::new();
    let mut report_row = |t: &mut Table, name: &'static str, report: weakord_mc::ContractReport| {
        let conforming = report.rows.iter().filter(|r| r.conforming).count();
        let appears = report.rows.iter().filter(|r| r.conforming && r.appears_sc).count();
        let non_conforming = report.rows.len() - conforming;
        let relaxed = report.rows.iter().filter(|r| !r.conforming && !r.appears_sc).count();
        let holds = report.holds();
        verdicts.push((name, holds, relaxed));
        t.row(vec![
            name.to_string(),
            conforming.to_string(),
            format!("{appears}/{conforming}"),
            non_conforming.to_string(),
            relaxed.to_string(),
            if holds { "weakly ordered" } else { "NOT weakly ordered" }.to_string(),
        ]);
    };
    report_row(
        &mut t,
        "write-buffer",
        check_weak_ordering(&WriteBufferMachine, HbMode::Drf0, &programs, lim, tl),
    );
    report_row(
        &mut t,
        "net-reorder",
        check_weak_ordering(&NetReorderMachine, HbMode::Drf0, &programs, lim, tl),
    );
    report_row(
        &mut t,
        "cache-delay",
        check_weak_ordering(&CacheDelayMachine, HbMode::Drf0, &programs, lim, tl),
    );
    report_row(
        &mut t,
        "wo-bnr",
        check_weak_ordering(&BnrMachine, HbMode::Drf0, &programs, lim, tl),
    );
    report_row(
        &mut t,
        "wo-def1",
        check_weak_ordering(&WoDef1Machine, HbMode::Drf0, &programs, lim, tl),
    );
    report_row(
        &mut t,
        "wo-def2",
        check_weak_ordering(&WoDef2Machine::default(), HbMode::Drf0, &programs, lim, tl),
    );
    report_row(
        &mut t,
        "wo-def2-drf1*",
        check_weak_ordering(
            &WoDef2Machine { drf1_refined: true },
            HbMode::Drf1,
            &programs,
            lim,
            tl,
        ),
    );
    let wo_hold = verdicts.iter().filter(|(n, ..)| n.starts_with("wo-")).all(|(_, h, _)| *h);
    let relaxed_fail = verdicts.iter().filter(|(n, ..)| !n.starts_with("wo-")).all(|(_, h, _)| !*h);
    let wo_still_relax =
        verdicts.iter().filter(|(n, ..)| n.starts_with("wo-")).all(|(.., r)| *r > 0);
    t.check("both weak-ordering machines satisfy the contract", wo_hold);
    t.check("all sync-oblivious machines violate it", relaxed_fail);
    t.check("weakly ordered machines still relax racy programs", wo_still_relax);
    t
}

/// E4 / Figure 3: release-side stall under each policy, sweeping the
/// interconnect latency (which scales the global-perform time of the
/// outstanding writes).
pub fn e4_figure3() -> Table {
    let mut t = Table::new(
        "E4 · Figure 3 — who stalls at the release?",
        &[
            "net latency",
            "policy",
            "cycles",
            "P0 release stall",
            "P1 acquire wait",
            "P1 wait p95",
            "reserve stalls",
        ],
    );
    let params = Fig3Params {
        work_before_release: 20,
        work_after_release: 300,
        extra_writes: 8,
        consumer_work: 20,
    };
    let prog = fig3_scenario(params);
    let mut def1_stalls = Vec::new();
    let mut def2_stalls = Vec::new();
    let mut def1_cycles = Vec::new();
    let mut def2_cycles = Vec::new();
    for (min, max) in [(10u64, 30u64), (20, 60), (40, 120), (80, 240)] {
        for policy in [Policy::Sc, Policy::Def1, Policy::def2()] {
            let cfg = Config {
                policy,
                network: NetModel::General { min, max },
                seed: 7,
                ..Config::default()
            };
            let r = CoherentMachine::new(&prog, cfg).run().expect("fig3 runs");
            let p0 = r.proc_stats[0].stall(StallCause::SyncGate)
                + r.proc_stats[0].stall(StallCause::Performed);
            let p1 = r.proc_stats[1].stall(StallCause::SyncCommit)
                + r.proc_stats[1].stall(StallCause::Performed);
            if policy == Policy::Def1 {
                def1_stalls.push(p0);
                def1_cycles.push(r.cycles);
            }
            if policy == Policy::def2() {
                def2_stalls.push(p0);
                def2_cycles.push(r.cycles);
            }
            t.row(vec![
                format!("{min}..{max}"),
                policy.name().to_string(),
                r.cycles.to_string(),
                p0.to_string(),
                p1.to_string(),
                r.proc_stats[1].sync_wait.percentile(95.0).to_string(),
                r.counters.get("reserve-stalls").to_string(),
            ]);
        }
    }
    t.check("P0 never stalls at the release under Def. 2", def2_stalls.iter().all(|&s| s == 0));
    t.check(
        "P0's Def. 1 release stall grows with latency",
        def1_stalls.windows(2).all(|w| w[0] < w[1]) && def1_stalls[0] > 0,
    );
    t.check(
        "Def. 2 total time ≤ Def. 1 at every latency",
        def1_cycles.iter().zip(&def2_cycles).all(|(d1, d2)| d2 <= d1),
    );
    t
}

/// E5 / Section 6: the spin pathology and the DRF1 refinement, sweeping
/// the number of spinners.
pub fn e5_spin() -> Table {
    let mut t = Table::new(
        "E5 · Section 6 — spinning serializes under Def. 2; DRF1 refinement recovers",
        &["spinners", "policy", "cycles", "GetX", "GetS", "Inv"],
    );
    let mut plain_getx = Vec::new();
    let mut refined_getx = Vec::new();
    let mut plain_cycles = Vec::new();
    let mut refined_cycles = Vec::new();
    for n in [1u16, 2, 4, 8, 12] {
        let prog = spin_broadcast(SpinBroadcastParams { n_spinners: n, release_after: 600 });
        for policy in [Policy::Def1, Policy::def2(), Policy::def2_drf1()] {
            let r = run_timed(&prog, policy, 5);
            if policy == Policy::def2() {
                plain_getx.push(r.counters.get("GetX"));
                plain_cycles.push(r.cycles);
            }
            if policy == Policy::def2_drf1() {
                refined_getx.push(r.counters.get("GetX"));
                refined_cycles.push(r.cycles);
            }
            t.row(vec![
                n.to_string(),
                policy.name().to_string(),
                r.cycles.to_string(),
                r.counters.get("GetX").to_string(),
                r.counters.get("GetS").to_string(),
                r.counters.get("Inv").to_string(),
            ]);
        }
    }
    t.check(
        "plain Def. 2 exclusive traffic grows with spinners",
        plain_getx.windows(2).all(|w| w[0] <= w[1]) && plain_getx.last() > plain_getx.first(),
    );
    t.check(
        "refined spinners generate constant exclusive traffic",
        refined_getx.iter().all(|&g| g == refined_getx[0]),
    );
    t.check(
        "refinement is no slower anywhere and faster at high spinner counts",
        refined_cycles.iter().zip(&plain_cycles).all(|(r, p)| r <= p)
            && refined_cycles.last() < plain_cycles.last(),
    );
    t
}

/// E5b: the same Section 6 story on real synchronization structures —
/// central barrier vs. combining tree, Test-and-TestAndSet lock vs.
/// ticket lock.
///
/// One nuance the numbers surface: on TTS locks the refinement can
/// *lose* — shared-copy spinning lets every waiter observe the release
/// simultaneously and storm the lock with TestAndSets (the classic
/// thundering herd), while plain Def. 2's exclusive polling serializes
/// waiters through the directory queue and accidentally behaves like a
/// queue lock. Pure read-spin structures (barriers, ticket locks) get
/// the full benefit — which is exactly why they are the structures the
/// Section 6 discussion names.
pub fn e5b_structures() -> Table {
    let mut t = Table::new(
        "E5b · synchronization structures under the three implementations",
        &["structure", "procs", "policy", "cycles", "GetX", "GetS"],
    );
    let mut refined_wins = true;
    for n in [4u16, 8] {
        let progs = vec![
            workloads::barrier(workloads::BarrierParams { n_procs: n, rounds: 2, work: 30 }),
            tree_barrier(TreeBarrierParams { n_procs: n, rounds: 2, work: 30 }),
            workloads::spinlock_tts(SpinlockParams {
                n_procs: n,
                sections_per_proc: 2,
                writes_per_section: 1,
                think: 30,
            }),
            ticket_lock(SpinlockParams {
                n_procs: n,
                sections_per_proc: 2,
                writes_per_section: 1,
                think: 30,
            }),
        ];
        for prog in &progs {
            let mut cycles_by_policy = Vec::new();
            for policy in [Policy::Def1, Policy::def2(), Policy::def2_drf1()] {
                let r = run_timed(prog, policy, 5);
                cycles_by_policy.push(r.cycles);
                t.row(vec![
                    prog.name.clone(),
                    n.to_string(),
                    policy.name().to_string(),
                    r.cycles.to_string(),
                    r.counters.get("GetX").to_string(),
                    r.counters.get("GetS").to_string(),
                ]);
            }
            // The refinement must win on the pure read-spin structures
            // (barriers and the ticket lock); TTS is exempt — see the
            // thundering-herd note above.
            if prog.name != "spinlock-tts" {
                refined_wins &= cycles_by_policy[2] <= cycles_by_policy[1];
            }
        }
    }
    t.check("the DRF1 refinement wins on every pure read-spin structure", refined_wins);
    t
}

/// E6 / termination: every workload, policy and seed runs to
/// completion; counters drain; the directory goes quiescent.
pub fn e6_termination(seeds: u64) -> Table {
    let mut t = Table::new(
        "E6 · Section 5.3 — blocked processors always unblock",
        &["workload", "policies × seeds", "completed", "max cycles"],
    );
    let progs: Vec<Program> = vec![
        fig3_scenario(Fig3Params::default()),
        workloads::spinlock(workloads::SpinlockParams::default()),
        workloads::spinlock_tts(workloads::SpinlockParams::default()),
        workloads::barrier(workloads::BarrierParams::default()),
        workloads::producer_consumer(workloads::PcParams::default()),
        spin_broadcast(SpinBroadcastParams::default()),
    ];
    let policies = [Policy::Sc, Policy::Def1, Policy::def2(), Policy::def2_drf1()];
    let mut all_ok = true;
    for prog in &progs {
        let mut completed = 0u64;
        let mut attempts = 0u64;
        let mut max_cycles = 0u64;
        for policy in policies {
            for seed in 0..seeds {
                attempts += 1;
                let cfg = Config { policy, seed, ..Config::default() };
                match CoherentMachine::new(prog, cfg).run() {
                    Ok(r) => {
                        completed += 1;
                        max_cycles = max_cycles.max(r.cycles);
                    }
                    Err(_) => all_ok = false,
                }
            }
        }
        t.row(vec![
            prog.name.clone(),
            attempts.to_string(),
            completed.to_string(),
            max_cycles.to_string(),
        ]);
    }
    t.check("no deadlock or timeout across the sweep", all_ok);
    t
}

/// E7 / ablations: (a) parallel data-with-invalidations vs. strict
/// data-after-acks; (b) the Section 5.3 miss cap; (c) interconnect
/// models.
pub fn e7_ablations() -> Table {
    let mut t = Table::new(
        "E7 · ablations",
        &["ablation", "setting", "policy", "cycles", "P0 release stall"],
    );
    let prog = fig3_scenario(Fig3Params {
        work_before_release: 20,
        work_after_release: 300,
        extra_writes: 8,
        consumer_work: 20,
    });
    let p0_stall = |r: &RunResult| {
        r.proc_stats[0].stall(StallCause::SyncGate) + r.proc_stats[0].stall(StallCause::Performed)
    };
    // (a) parallel vs strict data forwarding. The parallelism puts the
    // write's *commit* ahead of its global perform; only policies for
    // which commit is on the critical path (Def. 2 gates sync commits on
    // line procurement) are hurt when data is withheld. The effect only
    // appears when acknowledgements can lag the data (random
    // per-message latencies), so it is averaged over seeds rather than
    // read off a single noisy run.
    let mut strict_cycles = 0u64;
    let mut parallel_cycles = 0u64;
    const FWD_SEEDS: std::ops::Range<u64> = 1..9;
    for strict in [false, true] {
        for policy in [Policy::Def1, Policy::def2()] {
            let mut cycles = 0u64;
            let mut stall = 0u64;
            for seed in FWD_SEEDS {
                let cfg = Config { policy, seed, strict_data: strict, ..Config::default() };
                let r = CoherentMachine::new(&prog, cfg).run().expect("runs");
                cycles += r.cycles;
                stall += p0_stall(&r);
            }
            let n = FWD_SEEDS.end - FWD_SEEDS.start;
            if policy == Policy::def2() {
                if strict {
                    strict_cycles = cycles;
                } else {
                    parallel_cycles = cycles;
                }
            }
            t.row(vec![
                "data forwarding".into(),
                if strict { "after acks (strict)" } else { "parallel (paper)" }.into(),
                policy.name().into(),
                (cycles / n).to_string(),
                (stall / n).to_string(),
            ]);
        }
    }
    // (b) miss cap sweep.
    for cap in [None, Some(1), Some(2), Some(8)] {
        let policy = Policy::Def2 { drf1_refined: false, miss_cap: cap, sync: SyncPolicy::Queue };
        let cfg = Config { policy, seed: 7, ..Config::default() };
        let r = CoherentMachine::new(&prog, cfg).run().expect("runs");
        t.row(vec![
            "miss cap".into(),
            cap.map_or("unlimited".to_string(), |c| c.to_string()),
            "def2".into(),
            r.cycles.to_string(),
            p0_stall(&r).to_string(),
        ]);
    }
    // (c) cache-to-cache forwarding vs directory recall: every ownership
    // change pays one extra network hop under recall.
    for no_forwarding in [false, true] {
        let cfg = Config { policy: Policy::def2(), seed: 7, no_forwarding, ..Config::default() };
        let r = CoherentMachine::new(&prog, cfg).run().expect("runs");
        t.row(vec![
            "ownership transfer".into(),
            if no_forwarding { "directory recall" } else { "cache-to-cache (paper)" }.into(),
            "def2".into(),
            r.cycles.to_string(),
            p0_stall(&r).to_string(),
        ]);
    }
    // (d) cache capacity: finite caches cost evictions but preserve the
    // Figure 3 shape (and reserved lines are never flushed).
    for cache_lines in [None, Some(8), Some(4), Some(2)] {
        let cfg = Config { policy: Policy::def2(), seed: 7, cache_lines, ..Config::default() };
        let r = CoherentMachine::new(&prog, cfg).run().expect("runs");
        t.row(vec![
            "cache capacity".into(),
            cache_lines.map_or("unbounded".to_string(), |c| format!("{c} lines")),
            "def2".into(),
            r.cycles.to_string(),
            p0_stall(&r).to_string(),
        ]);
    }
    // (e) memory banks: more module parallelism shortens the critical
    // path under contention.
    for banks in [1u32, 2, 4] {
        let cfg =
            Config { policy: Policy::def2(), seed: 7, memory_banks: banks, ..Config::default() };
        let r = CoherentMachine::new(&prog, cfg).run().expect("runs");
        t.row(vec![
            "memory banks".into(),
            banks.to_string(),
            "def2".into(),
            r.cycles.to_string(),
            p0_stall(&r).to_string(),
        ]);
    }
    // (f) interconnects.
    for (name, network) in [
        ("bus/4", NetModel::Bus { cycles: 4 }),
        ("crossbar/12", NetModel::Crossbar { cycles: 12 }),
        ("general 20..60", NetModel::General { min: 20, max: 60 }),
        ("general 80..240", NetModel::General { min: 80, max: 240 }),
        ("mesh 4x/6", NetModel::Mesh { width: 4, per_hop: 6, jitter: 8 }),
        (
            "congested 3%",
            NetModel::Congested { min: 20, max: 60, spike: 2_000, spike_permille: 30 },
        ),
    ] {
        let cfg = Config { policy: Policy::def2(), network, seed: 7, ..Config::default() };
        let r = CoherentMachine::new(&prog, cfg).run().expect("runs");
        t.row(vec![
            "interconnect".into(),
            name.into(),
            "def2".into(),
            r.cycles.to_string(),
            p0_stall(&r).to_string(),
        ]);
    }
    t.check(
        "withholding data until acks slows Def. 2 (commit is on its critical path)",
        parallel_cycles < strict_cycles,
    );
    t
}

/// E8: the model checker's state-space census — outcome and state
/// counts for every litmus test on every machine, with the containment
/// facts Definition 2 predicts.
pub fn e8_state_census() -> Table {
    let mut t = Table::new(
        "E8 · exhaustive exploration census (outcomes / states)",
        &[
            "litmus",
            "DRF0",
            "sc",
            "write-buffer",
            "net-reorder",
            "cache-delay",
            "wo-bnr",
            "wo-def1",
            "wo-def2",
        ],
    );
    let lim = Limits::default();
    let mut wo_contained = true;
    let mut relaxed_superset = true;
    for lit in litmus::all() {
        let sc = explore(&ScMachine, &lit.program, lim);
        let wb = explore(&WriteBufferMachine, &lit.program, lim);
        let net = explore(&NetReorderMachine, &lit.program, lim);
        let cd = explore(&CacheDelayMachine, &lit.program, lim);
        let bnr = explore(&BnrMachine, &lit.program, lim);
        let d1 = explore(&WoDef1Machine, &lit.program, lim);
        let d2 = explore(&WoDef2Machine::default(), &lit.program, lim);
        if lit.drf0 {
            wo_contained &= d1.outcomes.is_subset(&sc.outcomes)
                && d2.outcomes.is_subset(&sc.outcomes)
                && bnr.outcomes.is_subset(&sc.outcomes);
        }
        relaxed_superset &= wb.outcomes.is_superset(&sc.outcomes)
            && net.outcomes.is_superset(&sc.outcomes)
            && cd.outcomes.is_superset(&sc.outcomes);
        let cell = |e: &weakord_mc::Exploration| format!("{}/{}", e.outcomes.len(), e.states);
        t.row(vec![
            lit.name.to_string(),
            if lit.drf0 { "yes" } else { "no" }.to_string(),
            cell(&sc),
            cell(&wb),
            cell(&net),
            cell(&cd),
            cell(&bnr),
            cell(&d1),
            cell(&d2),
        ]);
    }
    t.check("weakly ordered outcome sets ⊆ SC on every DRF0 row", wo_contained);
    t.check("relaxing hardware only adds outcomes (⊇ SC everywhere)", relaxed_superset);
    t
}

/// E9 / robustness: the fault-injected interconnect (drop, duplicate,
/// reorder, delay-spike — all with eventual delivery) against both legs
/// of Section 5.1 for sync requests to reserved lines: queueing and
/// NACK/retry. Every run must terminate; DRF0 programs must stay inside
/// the SC outcome set; the NACK leg should actually bounce on the
/// hand-off workload.
pub fn e9_faults(schedules: u64) -> Table {
    use weakord_mc::sc_outcome_set;
    use weakord_sim::FaultPlan;
    let mut t = Table::new(
        "E9 · fault-injected interconnect (Section 5.1 NACK vs. queue legs)",
        &["program", "policy", "runs", "max cycles", "drops", "dups", "nacks", "retries"],
    );
    let progs: Vec<(Program, bool)> = litmus::all()
        .into_iter()
        .filter(|l| l.drf0)
        .map(|l| (l.program, true))
        .chain([(fig3_scenario(Fig3Params::default()), true)])
        .collect();
    let mut all_ok = true;
    let mut all_sc = true;
    let mut nack_fired = 0u64;
    for (prog, drf0) in &progs {
        let sc = drf0.then(|| sc_outcome_set(prog, Limits::default()));
        for policy in [Policy::def2(), Policy::def2_nack()] {
            let (mut max_cycles, mut drops, mut dups, mut nacks, mut retries) =
                (0u64, 0u64, 0u64, 0u64, 0u64);
            for i in 0..schedules {
                let faults = FaultPlan::with_rates(0xE9 ^ (i * 0x9E37), 60, 60, 80, 30);
                let cfg = Config { policy, seed: i, faults, ..Config::default() };
                match CoherentMachine::new(prog, cfg).run() {
                    Ok(r) => {
                        max_cycles = max_cycles.max(r.cycles);
                        drops += r.counters.get("fault-drops");
                        dups += r.counters.get("fault-dups");
                        nacks += r.counters.get("nacks");
                        retries += r.proc_stats.iter().map(|p| p.nack_retries).sum::<u64>();
                        if let Some(sc) = &sc {
                            all_sc &= sc.contains(&r.outcome);
                        }
                    }
                    Err(_) => all_ok = false,
                }
            }
            nack_fired += nacks;
            t.row(vec![
                prog.name.clone(),
                policy.name().to_string(),
                schedules.to_string(),
                max_cycles.to_string(),
                drops.to_string(),
                dups.to_string(),
                nacks.to_string(),
                retries.to_string(),
            ]);
        }
    }
    t.check("every faulted run terminates (eventual delivery ⇒ liveness)", all_ok);
    t.check("DRF0 outcomes stay inside the SC set under faults", all_sc);
    t.check("the NACK leg fires somewhere in the sweep", nack_fired > 0);
    t
}

/// E10 / observability: the tracer must be free when disabled and
/// faithful when enabled. Each workload runs three times from the same
/// config — no-op tracer, recording tracer, and a recording tracer with
/// capture gated off — and the simulated clock must agree exactly
/// (instrumentation lives outside the timing model).
pub fn e10_observability() -> Table {
    use weakord_obs::{chrome_trace, MemTracer};
    let mut t = Table::new(
        "E10 · observability — tracer overhead and trace volume",
        &["workload", "policy", "cycles (off)", "cycles (on)", "events", "chrome bytes"],
    );
    let progs: Vec<Program> = vec![
        fig3_scenario(Fig3Params::default()),
        spin_broadcast(SpinBroadcastParams::default()),
        ticket_lock(SpinlockParams::default()),
    ];
    let mut identical = true;
    let mut gated_zero = true;
    let mut events_nonzero = true;
    let mut reserve_seen = false;
    for prog in &progs {
        for policy in [Policy::def2(), Policy::def2_nack()] {
            let cfg = Config { policy, seed: 7, ..Config::default() };
            let off = CoherentMachine::new(prog, cfg).run().expect("untraced run");
            let (on, tracer) =
                CoherentMachine::with_tracer(prog, cfg, MemTracer::new()).run_traced();
            let on = on.expect("traced run");
            let (gated, silent) =
                CoherentMachine::with_tracer(prog, cfg, MemTracer::disabled()).run_traced();
            gated.expect("gated run");
            identical &= off.cycles == on.cycles && off.outcome == on.outcome;
            gated_zero &= silent.events().is_empty();
            let events = tracer.into_events();
            events_nonzero &= !events.is_empty();
            reserve_seen |= events.iter().any(|e| e.name == "reserve-set")
                && events.iter().any(|e| e.name == "counter-dec");
            let chrome = chrome_trace(&events);
            t.row(vec![
                prog.name.clone(),
                policy.name().to_string(),
                off.cycles.to_string(),
                on.cycles.to_string(),
                events.len().to_string(),
                chrome.len().to_string(),
            ]);
        }
    }
    t.check("cycles and outcome identical with the tracer on", identical);
    t.check("a disabled tracer records zero events (every call site is gated)", gated_zero);
    t.check("an enabled tracer records events on every workload", events_nonzero);
    t.check("reserve-bit and counter events appear in the sweep", reserve_seen);
    t
}

/// The states/sec the lock-free engine must reach on the largest
/// explorer-benchmark shape, as a multiple of [`explore_seq`] measured
/// in the same run. It carries over the former bar of 3x the frozen
/// mutex-shard engine this repo used to keep as a baseline: that engine
/// ran at 0.74x `explore_seq` on the shape (median of 51 interleaved
/// pairs, one worker), so 3 x 0.74 = 2.22x.
pub const SEQ_FLOOR: f64 = 2.22;

/// E13 / explorer engines: the lock-free byte-encoded explorer against
/// the sequential reference ([`explore_seq`]), measured in the same run
/// on the `BENCH_explore.json` shapes × {sc, tso, pso}. Semantic
/// agreement is checked on every cell; throughput (best of 7 with the
/// engines' reps interleaved so host-load phases hit both, one worker,
/// so the ratio measures per-state algorithmic cost rather than
/// parallel scaling) must clear [`SEQ_FLOOR`] on the largest shape; and
/// a disk-budgeted run must complete a state space larger than its RAM
/// budget with identical results. Committed numbers:
/// `BENCH_explore.json` / EXPERIMENTS.md § E13.
pub fn e13_explore_engines() -> Table {
    let mut t = Table::new(
        "E13 · explorer engines — lock-free vs sequential reference",
        &["shape", "machine", "states", "seq st/s", "lock-free st/s", "speedup", "spilled"],
    );
    fn limits() -> Limits {
        let mut l = Limits::with_threads(1);
        l.max_states = 4_000_000;
        l
    }
    /// Best-of-7 wall clock per engine, reps interleaved seq /
    /// lock-free so a slow host phase lands on both engines instead of
    /// biasing whichever happened to run during it.
    fn cell<M: Machine>(m: &M, name: &str, prog: &Program, t: &mut Table) -> (bool, f64, usize) {
        let mut old: Option<weakord_mc::Exploration> = None;
        let mut new: Option<weakord_mc::Exploration> = None;
        for _ in 0..7 {
            let o = explore_seq(m, prog, limits());
            if old.as_ref().is_none_or(|b| o.stats.duration < b.stats.duration) {
                old = Some(o);
            }
            let n = explore(m, prog, limits());
            if new.as_ref().is_none_or(|b| n.stats.duration < b.stats.duration) {
                new = Some(n);
            }
        }
        let (old, new) = (old.expect("seven reps"), new.expect("seven reps"));
        let old_rate = old.states as f64 / old.stats.duration.as_secs_f64();
        let new_rate = new.states as f64 / new.stats.duration.as_secs_f64();
        let agree = new == old && !new.truncated();
        let speedup = new_rate / old_rate;
        t.row(vec![
            name.to_string(),
            m.name().to_string(),
            new.states.to_string(),
            format!("{old_rate:.0}"),
            format!("{new_rate:.0}"),
            format!("{speedup:.2}x"),
            "-".to_string(),
        ]);
        (agree, speedup, new.states)
    }
    let corpus = gen::corpus(0);
    let shape = |want: &str| {
        let s = corpus.iter().find(|s| s.name == want).expect("bench shape in corpus");
        (s.name.clone(), s.program.clone())
    };
    let mut agree_all = true;
    let mut largest: (usize, f64) = (0, 0.0);
    for (name, prog) in [shape("iriw"), shape("cyc4-rw+ww+ww+ww"), shape("cyc4-ww+ww+ww+ww")] {
        for (a, speedup, states) in [
            cell(&ScMachine, &name, &prog, &mut t),
            cell(&TsoMachine, &name, &prog, &mut t),
            cell(&PsoMachine, &name, &prog, &mut t),
        ] {
            agree_all &= a;
            if states > largest.0 {
                largest = (states, speedup);
            }
        }
    }
    // The capacity row: the largest shape under a 4 MiB budget — far
    // below its ~14 MiB in-RAM footprint — must spill yet agree.
    let (name, prog) = shape("cyc4-ww+ww+ww+ww");
    let plain = explore(&PsoMachine, &prog, limits());
    let mut budgeted = limits();
    budgeted.memory_budget = Some(4 << 20);
    let spilled = explore(&PsoMachine, &prog, budgeted);
    let spill_rate = spilled.states as f64 / spilled.stats.duration.as_secs_f64();
    t.row(vec![
        name,
        "pso @ 4 MiB".to_string(),
        spilled.states.to_string(),
        "-".to_string(),
        format!("{spill_rate:.0}"),
        "-".to_string(),
        format!("{} st / {} B", spilled.stats.spilled_states, spilled.stats.spill_bytes),
    ]);
    t.check("both engines agree exactly on every shape x machine", agree_all);
    t.check(
        format!("lock-free clears {SEQ_FLOOR}x explore_seq's states/sec on the largest shape"),
        largest.1 >= SEQ_FLOOR,
    );
    t.check(
        "a 4 MiB budget spills most states yet changes nothing",
        spilled == plain && spilled.stats.spilled_states > 0,
    );
    t
}

/// All experiments, in order.
pub fn all() -> Vec<Table> {
    vec![
        e1_figure1(),
        e2_figure2(),
        e3_contract(4),
        e4_figure3(),
        e5_spin(),
        e5b_structures(),
        e6_termination(5),
        e7_ablations(),
        e8_state_census(),
        e9_faults(6),
        e10_observability(),
        e13_explore_engines(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2_is_cheap_and_correct() {
        let t = e2_figure2();
        assert!(t.shape_holds(), "{}", t.render());
    }

    #[test]
    fn table_rendering_is_aligned() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.check("ok", true);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("HOLDS"));
    }
}
