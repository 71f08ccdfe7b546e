//! The weak-ordering contract, mechanized.
//!
//! Definition 2: *hardware is weakly ordered with respect to a
//! synchronization model if and only if it appears sequentially
//! consistent to all software that obey the synchronization model.*
//!
//! Operationally: for every conforming program, the machine's reachable
//! outcome set must be a subset of the interleaving machine's outcome
//! set ([`appears_sc`]). [`check_weak_ordering`] runs that check over a
//! whole suite of programs, first classifying each program against the
//! synchronization model.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

use weakord_core::HbMode;
use weakord_progs::{Outcome, Program};

use crate::explore::{explore, Exploration, ExplorationStats, Limits};
use crate::machine::Machine;
use crate::machines::ScMachine;
use crate::trace::{check_program_drf, TraceLimits};

/// Result of checking one machine against one program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScAppearance {
    /// `true` iff every outcome the machine can produce is SC-producible.
    pub appears_sc: bool,
    /// Outcomes the machine produced that SC cannot (empty iff
    /// `appears_sc`).
    pub extra_outcomes: Vec<Outcome>,
    /// Machine-side exploration statistics.
    pub machine: Exploration,
    /// SC-side exploration statistics.
    pub sc: Exploration,
}

impl fmt::Display for ScAppearance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.appears_sc {
            write!(
                f,
                "appears SC ({} outcomes ⊆ {} SC outcomes, {} states, {:.0} states/s)",
                self.machine.outcomes.len(),
                self.sc.outcomes.len(),
                self.machine.states,
                self.machine.stats.states_per_sec()
            )
        } else {
            write!(
                f,
                "NOT SC: {} extra outcome(s), e.g. {}",
                self.extra_outcomes.len(),
                self.extra_outcomes[0]
            )
        }
    }
}

/// The SC-allowed outcome set of `prog` — the differential baseline
/// for any implementation leg, exhaustive or timed (the fault-injected
/// cycle-level runs check their observed outcomes against this set).
///
/// # Panics
///
/// Panics if the exhaustive SC exploration truncates: a partial outcome
/// set would turn the subset check into a false alarm.
pub fn sc_outcome_set(prog: &Program, limits: Limits) -> std::collections::BTreeSet<Outcome> {
    let sc = explore(&ScMachine, prog, limits);
    assert!(!sc.truncated(), "SC exploration truncated on `{}`", prog.name);
    sc.outcomes
}

/// Exhaustively decides whether `machine` appears sequentially
/// consistent for `prog`: explores both the machine and the SC
/// reference and compares outcome sets.
pub fn appears_sc<M: Machine>(machine: &M, prog: &Program, limits: Limits) -> ScAppearance {
    let sc = explore(&ScMachine, prog, limits);
    let m = explore(machine, prog, limits);
    let extra: Vec<Outcome> = m.outcomes.difference(&sc.outcomes).cloned().collect();
    ScAppearance { appears_sc: extra.is_empty(), extra_outcomes: extra, machine: m, sc }
}

/// One row of a weak-ordering contract check.
#[derive(Debug, Clone)]
pub struct ContractRow {
    /// Program name.
    pub program: String,
    /// Whether the program obeys the synchronization model
    /// (bounded-exhaustively checked).
    pub conforming: bool,
    /// Whether the machine appeared SC on it.
    pub appears_sc: bool,
    /// Whether any deadlock was reached on the machine.
    pub deadlocked: bool,
    /// Machine-side exploration diagnostics for this program (excluded
    /// from equality: timing varies run to run).
    pub stats: ExplorationStats,
}

impl PartialEq for ContractRow {
    fn eq(&self, other: &Self) -> bool {
        self.program == other.program
            && self.conforming == other.conforming
            && self.appears_sc == other.appears_sc
            && self.deadlocked == other.deadlocked
    }
}

impl Eq for ContractRow {}

/// Outcome of checking a machine's weak-ordering contract over a
/// program suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContractReport {
    /// Machine name.
    pub machine: &'static str,
    /// Per-program rows.
    pub rows: Vec<ContractRow>,
}

impl ContractReport {
    /// `true` iff the machine appeared SC to every conforming program
    /// and never deadlocked: the machine is weakly ordered with respect
    /// to the synchronization model, on this suite.
    pub fn holds(&self) -> bool {
        self.rows.iter().all(|r| (!r.conforming || r.appears_sc) && !r.deadlocked)
    }

    /// Rows where a conforming program saw a non-SC outcome.
    pub fn violations(&self) -> impl Iterator<Item = &ContractRow> {
        self.rows.iter().filter(|r| r.conforming && !r.appears_sc)
    }

    /// Machine-side states explored across all rows.
    pub fn total_states(&self) -> usize {
        self.rows.iter().map(|r| r.stats.distinct_states).sum()
    }
}

impl fmt::Display for ContractReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "weak-ordering contract for `{}`: {} ({} machine states explored)",
            self.machine,
            if self.holds() { "HOLDS" } else { "VIOLATED" },
            self.total_states(),
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<24} {:<14} {:<16} {:>8} states {:>10.0}/s",
                r.program,
                if r.conforming { "conforming" } else { "non-conforming" },
                match (r.appears_sc, r.deadlocked) {
                    (_, true) => "DEADLOCK",
                    (true, _) => "appears SC",
                    (false, _) => "non-SC outcomes",
                },
                r.stats.distinct_states,
                r.stats.states_per_sec(),
            )?;
        }
        Ok(())
    }
}

/// Runs `row` over every program, fanning the programs out across
/// `limits.resolved_threads()` sweep workers so all machine × program
/// pairs are checked concurrently; row order matches program order.
///
/// Each pair's own explorations run single-threaded — with one worker
/// per pair the cores are already saturated, and pair-level parallelism
/// beats state-level parallelism on the small-state-space programs
/// sweeps are made of.
fn sweep<F>(programs: &[Program], limits: Limits, row: F) -> Vec<ContractRow>
where
    F: Fn(&Program, Limits) -> ContractRow + Sync,
{
    let pair_limits = Limits { threads: 1, ..limits };
    let workers = limits.resolved_threads().min(programs.len()).max(1);
    if workers == 1 {
        return programs.iter().map(|p| row(p, pair_limits)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, ContractRow)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut got = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(prog) = programs.get(i) else { break };
                        got.push((i, row(prog, pair_limits)));
                    }
                    got
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("sweep worker panicked")).collect()
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Checks Definition 2 for `machine` with respect to the data-race-free
/// model given by `mode`, over `programs`: every program is classified
/// (conforming or not), and conforming programs must appear SC.
pub fn check_weak_ordering<M: Machine>(
    machine: &M,
    mode: HbMode,
    programs: &[Program],
    limits: Limits,
    trace_limits: TraceLimits,
) -> ContractReport {
    let rows = sweep(programs, limits, |prog, limits| {
        let conforming = check_program_drf(prog, mode, trace_limits).is_race_free();
        let sc = appears_sc(machine, prog, limits);
        ContractRow {
            program: prog.name.clone(),
            conforming,
            appears_sc: sc.appears_sc,
            deadlocked: sc.machine.has_deadlock(),
            stats: sc.machine.stats,
        }
    });
    ContractReport { machine: machine.name(), rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::{CacheDelayMachine, WoDef1Machine, WoDef2Machine, WriteBufferMachine};
    use weakord_progs::litmus;

    fn suite() -> Vec<Program> {
        litmus::all().into_iter().map(|l| l.program).collect()
    }

    #[test]
    fn wo_machines_satisfy_the_contract_on_the_litmus_suite() {
        let progs = suite();
        for report in [
            check_weak_ordering(
                &WoDef1Machine,
                HbMode::Drf0,
                &progs,
                Limits::default(),
                TraceLimits::default(),
            ),
            check_weak_ordering(
                &WoDef2Machine::default(),
                HbMode::Drf0,
                &progs,
                Limits::default(),
                TraceLimits::default(),
            ),
        ] {
            assert!(report.holds(), "{report}");
        }
    }

    #[test]
    fn def2_drf1_machine_satisfies_the_contract_wrt_drf1() {
        let progs = suite();
        let report = check_weak_ordering(
            &WoDef2Machine { drf1_refined: true },
            HbMode::Drf1,
            &progs,
            Limits::default(),
            TraceLimits::default(),
        );
        assert!(report.holds(), "{report}");
    }

    #[test]
    fn relaxed_machines_violate_the_contract() {
        // dekker-sync obeys DRF0 but sync-oblivious hardware breaks it.
        let progs = suite();
        for (name, holds) in [
            (
                "wb",
                check_weak_ordering(
                    &WriteBufferMachine,
                    HbMode::Drf0,
                    &progs,
                    Limits::default(),
                    TraceLimits::default(),
                )
                .holds(),
            ),
            (
                "cd",
                check_weak_ordering(
                    &CacheDelayMachine,
                    HbMode::Drf0,
                    &progs,
                    Limits::default(),
                    TraceLimits::default(),
                )
                .holds(),
            ),
        ] {
            assert!(!holds, "{name} should violate the contract");
        }
    }

    #[test]
    fn report_formats() {
        let progs = vec![litmus::fig1_dekker().program];
        let report = check_weak_ordering(
            &WoDef1Machine,
            HbMode::Drf0,
            &progs,
            Limits::default(),
            TraceLimits::default(),
        );
        let s = report.to_string();
        assert!(s.contains("wo-def1"), "{s}");
        assert!(s.contains("non-conforming"), "{s}");
    }
}

/// Definition 2 for an arbitrary
/// [`SynchronizationModel`](weakord_core::SynchronizationModel): classifies
/// each program with the model's own judge
/// ([`crate::check_program_conforms`]) and requires the machine to
/// appear sequentially consistent to every conforming one.
///
/// [`check_weak_ordering`] is the DRF-specialized fast path (it fuses
/// the race detector into the trace search); this version works for any
/// model — e.g. the monitor discipline of
/// [`weakord_core::MonitorModel`].
pub fn check_weak_ordering_model<M: Machine>(
    machine: &M,
    model: &(dyn weakord_core::SynchronizationModel + Sync),
    programs: &[Program],
    limits: Limits,
    trace_limits: crate::trace::TraceLimits,
) -> ContractReport {
    let rows = sweep(programs, limits, |prog, limits| {
        let conforming = crate::trace::check_program_conforms(prog, model, trace_limits).conforms();
        let sc = appears_sc(machine, prog, limits);
        ContractRow {
            program: prog.name.clone(),
            conforming,
            appears_sc: sc.appears_sc,
            deadlocked: sc.machine.has_deadlock(),
            stats: sc.machine.stats,
        }
    });
    ContractReport { machine: machine.name(), rows }
}

#[cfg(test)]
mod model_tests {
    use super::*;
    use crate::machines::{WoDef1Machine, WoDef2Machine};
    use crate::trace::TraceLimits;
    use weakord_core::MonitorModel;
    use weakord_progs::gen;

    #[test]
    fn contract_verdicts_survive_partial_order_reduction() {
        // Definition 2 is a statement about outcome sets, which the
        // ample-set reduction preserves — so the contract verdict (and
        // every per-program row) must be identical under
        // `Reduction::Ample`, while the reduced sweep prunes arcs.
        use crate::machines::BnrMachine;
        use weakord_core::HbMode;
        use weakord_progs::litmus;
        let programs: Vec<_> = litmus::all().into_iter().map(|l| l.program).collect();
        for (full, reduced) in [
            (
                check_weak_ordering(
                    &WoDef2Machine::default(),
                    HbMode::Drf0,
                    &programs,
                    Limits::default(),
                    TraceLimits::default(),
                ),
                check_weak_ordering(
                    &WoDef2Machine::default(),
                    HbMode::Drf0,
                    &programs,
                    Limits::reduced(),
                    TraceLimits::default(),
                ),
            ),
            (
                check_weak_ordering(
                    &BnrMachine,
                    HbMode::Drf0,
                    &programs,
                    Limits::default(),
                    TraceLimits::default(),
                ),
                check_weak_ordering(
                    &BnrMachine,
                    HbMode::Drf0,
                    &programs,
                    Limits::reduced(),
                    TraceLimits::default(),
                ),
            ),
        ] {
            assert_eq!(full, reduced, "row verdicts must not depend on the reduction knob");
            assert!(reduced.total_states() <= full.total_states());
            assert!(
                reduced.rows.iter().any(|r| r.stats.pruned_arcs > 0),
                "the reduced sweep should prune at least one arc somewhere"
            );
        }
    }

    #[test]
    fn weak_ordering_holds_with_respect_to_the_monitor_model() {
        // Monitor-conformant programs are a subset of DRF0 programs, so
        // Definition 2 w.r.t. monitors follows from the DRF0 contract —
        // but here we check it directly through the generalized path.
        let params = gen::GenParams::default();
        let model = MonitorModel::new(params.monitor_map());
        let mut programs = Vec::new();
        for seed in 0..4 {
            programs.push(gen::race_free(seed, params));
            programs.push(gen::racy(seed, params));
        }
        let limits = TraceLimits { max_ops_per_thread: 24, max_traces: 1_500 };
        for report in [
            check_weak_ordering_model(&WoDef1Machine, &model, &programs, Limits::default(), limits),
            check_weak_ordering_model(
                &WoDef2Machine::default(),
                &model,
                &programs,
                Limits::default(),
                limits,
            ),
        ] {
            assert!(report.holds(), "{report}");
            assert!(
                report.rows.iter().any(|r| r.conforming)
                    && report.rows.iter().any(|r| !r.conforming),
                "suite should mix conforming and non-conforming programs"
            );
        }
    }
}
