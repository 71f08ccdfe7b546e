//! Idealized-execution enumeration and program-level DRF0 checking.
//!
//! Definition 3 quantifies over **all** executions of a program on the
//! idealized architecture. This module enumerates those executions —
//! they are exactly the runs of [`ScMachine`] — depth-first in thread
//! order, and threads the online race detector along each path, so a
//! program is judged racy as soon as any interleaving exhibits an
//! unordered conflicting pair.
//!
//! Spin loops make the trace set infinite, so [`TraceLimits`] cuts each
//! path at a number of operations per thread and stops after a number of
//! complete traces; a truncated verdict means "no race found within the
//! bounds" rather than a proof. The bounds limit paths, not the walk: a
//! cut path is not a complete trace, so when the operation bound cuts
//! every path, `max_traces` never fires and the walk visits every
//! interleaving of the cut prefixes, a count that grows exponentially
//! with the bound. (On three processors, `gen::race_free(0, ..)`
//! completes no trace at 4, 5 or 6 operations per thread, and each step
//! up multiplies the walk's time by about twenty.) State *results* don't
//! need such bounds — see [`crate::explore`] — because outcome
//! exploration deduplicates states; race history cannot be deduplicated
//! the same way, hence the bounds here.

use weakord_core::{HbMode, IdealizedExecution, MemOp, OpId, RaceDetector, RaceEvent};
use weakord_progs::Program;

use crate::machine::{Machine, OpRecord};
use crate::machines::{ScMachine, ScState};

/// Bounds for trace enumeration. They bound paths and complete traces,
/// not the work of a walk: when `max_ops_per_thread` cuts every path, no
/// trace completes, `max_traces` never fires, and the walk visits every
/// interleaving of the cut prefixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceLimits {
    /// Maximum operations executed per thread along one path; a path is
    /// cut where a thread would exceed it (marking the verdict
    /// truncated). A cut path is not a complete trace.
    pub max_ops_per_thread: u32,
    /// Maximum complete traces to enumerate (marking the verdict
    /// truncated when reached).
    pub max_traces: usize,
}

impl Default for TraceLimits {
    fn default() -> Self {
        TraceLimits { max_ops_per_thread: 40, max_traces: 20_000 }
    }
}

/// Program-level DRF verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramDrfVerdict {
    /// Races found (empty = data-race-free within the explored bound).
    /// `races[0]` is the witness; [`check_program_drf`] says why there
    /// can be more.
    pub races: Vec<RaceEvent>,
    /// Complete (untruncated) traces enumerated.
    pub traces: usize,
    /// `true` if any bound was hit; a clean verdict is then
    /// bounded-exhaustive rather than a proof.
    ///
    /// Deliberately a bare bool, not the explorer's
    /// [`TruncationReason`](crate::explore::TruncationReason): here the
    /// only causes are the two [`TraceLimits`] bounds, and the
    /// enumeration is not resumable.
    pub truncated: bool,
}

impl ProgramDrfVerdict {
    /// `true` iff no race was found.
    pub fn is_race_free(&self) -> bool {
        self.races.is_empty()
    }
}

fn record_to_memop(rec: &OpRecord, id: u32, po_index: u32) -> MemOp {
    MemOp {
        id: OpId::new(id),
        proc: rec.proc,
        po_index,
        kind: rec.kind,
        loc: rec.loc,
        read_value: rec.read_value,
        written_value: rec.written_value,
        hypothetical: false,
    }
}

/// What a [`Walk`] carries along each interleaving and judges it by.
trait Judge {
    /// Per-path data, one copy per search depth. A child's copy is its
    /// parent's, refilled with `clone_from`, then extended.
    type Path: Clone;
    /// `true` once no further trace can change the verdict.
    fn settled(&self) -> bool;
    /// Extends `path` by `op`, the path's `depth`-th operation (from 0).
    /// `false` abandons the parent's remaining children.
    fn extend(&mut self, path: &mut Self::Path, depth: usize, op: &MemOp) -> bool;
    /// Judges a complete trace of `depth` operations.
    fn complete(&mut self, path: &Self::Path, depth: usize);
}

/// One node of a [`Walk`]: the SC state and per-thread operation counts
/// after the path so far, and the judge's data for that path.
#[derive(Clone)]
struct Frame<P> {
    state: ScState,
    ops_done: Vec<u32>,
    path: P,
}

/// A depth-first walk over the idealized executions of a program, in
/// thread order. `frames[d]` is the node at depth `d` of the current
/// path; deeper frames stay allocated and are refilled in place, so once
/// the deepest path has been reached the walk allocates nothing.
struct Walk<'a, J: Judge> {
    prog: &'a Program,
    limits: TraceLimits,
    judge: J,
    frames: Vec<Frame<J::Path>>,
    /// Ids are stamped in visit order across the whole walk.
    next_id: u32,
    traces: usize,
    truncated: bool,
}

impl<'a, J: Judge> Walk<'a, J> {
    fn run(prog: &'a Program, limits: TraceLimits, judge: J, path: J::Path) -> Self {
        let root =
            Frame { state: ScMachine.initial(prog), ops_done: vec![0; prog.n_procs()], path };
        let mut walk = Walk {
            prog,
            limits,
            judge,
            frames: vec![root],
            next_id: 0,
            traces: 0,
            truncated: false,
        };
        walk.dfs(0);
        walk
    }

    fn dfs(&mut self, depth: usize) {
        if self.traces >= self.limits.max_traces {
            self.truncated = true;
            return;
        }
        if self.judge.settled() {
            return;
        }
        if self.frames.len() == depth + 1 {
            let child = self.frames[depth].clone();
            self.frames.push(child);
        }
        let mut advanced = false;
        for t in 0..self.prog.threads.len() {
            let (upto, deeper) = self.frames.split_at_mut(depth + 1);
            let (node, child) = (&upto[depth], &mut deeper[0]);
            if node.state.threads[t].is_halted() {
                continue;
            }
            child.state.clone_from(&node.state);
            let Some(rec) = ScMachine::step_thread(self.prog, &mut child.state, t) else {
                continue;
            };
            advanced = true;
            if node.ops_done[t] >= self.limits.max_ops_per_thread {
                self.truncated = true;
                continue;
            }
            let op = record_to_memop(&rec, self.next_id, node.ops_done[t]);
            self.next_id += 1;
            child.ops_done.clone_from(&node.ops_done);
            child.ops_done[t] += 1;
            child.path.clone_from(&node.path);
            if !self.judge.extend(&mut child.path, depth, &op) {
                return;
            }
            self.dfs(depth + 1);
        }
        if !advanced {
            // Every live thread was halted: a complete trace.
            self.traces += 1;
            self.judge.complete(&self.frames[depth].path, depth);
        }
    }
}

/// Threads the online detector along each path and keeps the first race
/// of each racy step.
struct FirstRaces(Vec<RaceEvent>);

impl Judge for FirstRaces {
    type Path = RaceDetector;

    fn settled(&self) -> bool {
        !self.0.is_empty()
    }

    fn extend(&mut self, detector: &mut RaceDetector, _: usize, op: &MemOp) -> bool {
        detector.observe(op);
        match detector.races().first() {
            Some(race) => {
                self.0.push(*race);
                false
            }
            None => true,
        }
    }

    fn complete(&mut self, _: &RaceDetector, _: usize) {}
}

/// Checks whether `prog` obeys the data-race-free discipline under
/// `mode`, by enumerating idealized executions up to the limits and
/// running the vector-clock detector along each.
///
/// The walk descends no further once a race is found, but every node on
/// the path to the racy step still steps and observes its remaining
/// children, so `races` can hold several events: `races[0]` is the
/// witness, and each later entry is the first race of one of those
/// children. Without a race the bounded trace set is exhausted.
pub fn check_program_drf(prog: &Program, mode: HbMode, limits: TraceLimits) -> ProgramDrfVerdict {
    let detector = RaceDetector::new(prog.n_procs(), mode);
    let walk = Walk::run(prog, limits, FirstRaces(Vec::new()), detector);
    ProgramDrfVerdict { races: walk.judge.0, traces: walk.traces, truncated: walk.truncated }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakord_progs::{gen, litmus, workloads};

    #[test]
    fn litmus_drf0_annotations_are_correct() {
        for lit in litmus::all() {
            let verdict = check_program_drf(&lit.program, HbMode::Drf0, TraceLimits::default());
            assert_eq!(
                verdict.is_race_free(),
                lit.drf0,
                "{}: annotation says drf0={}, checker disagrees ({:?})",
                lit.name,
                lit.drf0,
                verdict.races.first()
            );
        }
    }

    #[test]
    fn generated_race_free_programs_pass() {
        for seed in 0..8 {
            let prog = gen::race_free(seed, gen::GenParams::default());
            let verdict = check_program_drf(&prog, HbMode::Drf0, TraceLimits::default());
            assert!(verdict.is_race_free(), "{}: {:?}", prog.name, verdict.races.first());
        }
    }

    #[test]
    fn generated_racy_programs_usually_fail() {
        let mut racy_found = 0;
        for seed in 0..8 {
            let prog = gen::racy(seed, gen::GenParams::default());
            let verdict = check_program_drf(&prog, HbMode::Drf0, TraceLimits::default());
            if !verdict.is_race_free() {
                racy_found += 1;
            }
        }
        assert!(racy_found >= 4, "only {racy_found}/8 racy programs detected");
    }

    #[test]
    fn small_workloads_are_race_free() {
        let spin = workloads::spinlock(workloads::SpinlockParams {
            n_procs: 2,
            sections_per_proc: 1,
            writes_per_section: 1,
            think: 0,
        });
        let verdict = check_program_drf(&spin, HbMode::Drf0, TraceLimits::default());
        assert!(verdict.is_race_free(), "{:?}", verdict.races.first());

        let pc = workloads::producer_consumer(workloads::PcParams {
            items: 1,
            produce_work: 0,
            consume_work: 0,
        });
        let verdict = check_program_drf(&pc, HbMode::Drf0, TraceLimits::default());
        assert!(verdict.is_race_free(), "{:?}", verdict.races.first());
    }

    #[test]
    fn fig3_scenario_is_race_free() {
        let prog = workloads::fig3_scenario(workloads::Fig3Params {
            work_before_release: 0,
            work_after_release: 0,
            extra_writes: 1,
            consumer_work: 0,
        });
        let verdict = check_program_drf(&prog, HbMode::Drf0, TraceLimits::default());
        assert!(verdict.is_race_free(), "{:?}", verdict.races.first());
    }
}

/// Conformance of a program to an arbitrary synchronization model,
/// decided by enumerating (bounded) idealized executions and checking
/// each with the model's own judge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramConformance {
    /// Complete traces whose execution violated the model.
    pub violating_traces: usize,
    /// Complete traces enumerated.
    pub traces: usize,
    /// Whether a bound was hit (the trace-enumeration bound — see the
    /// note on [`ProgramDrfVerdict::truncated`]).
    pub truncated: bool,
}

impl ProgramConformance {
    /// `true` iff no enumerated execution violated the model.
    pub fn conforms(&self) -> bool {
        self.violating_traces == 0
    }
}

/// Checks whether `prog` obeys an arbitrary
/// [`SynchronizationModel`](weakord_core::SynchronizationModel):
/// Definition 3's quantification ("for any execution on the idealized
/// system…") applied to the given model's per-execution judge.
///
/// Unlike [`check_program_drf`] — which fuses the race detector into
/// the search — this materializes each complete idealized execution and
/// asks the model, so it works for models whose judgement is not a
/// happens-before race check (e.g. the monitor discipline of
/// `weakord_core::MonitorModel`).
pub fn check_program_conforms(
    prog: &Program,
    model: &dyn weakord_core::SynchronizationModel,
    limits: TraceLimits,
) -> ProgramConformance {
    let judge = ModelJudge { model, n_procs: prog.n_procs() as u16, ops: Vec::new(), violating: 0 };
    let walk = Walk::run(prog, limits, judge, ());
    ProgramConformance {
        violating_traces: walk.judge.violating,
        traces: walk.traces,
        truncated: walk.truncated,
    }
}

/// Asks the model about every complete execution.
struct ModelJudge<'m> {
    model: &'m dyn weakord_core::SynchronizationModel,
    n_procs: u16,
    /// The operations of the current path: `ops[d]` is its `d`-th.
    ops: Vec<MemOp>,
    violating: usize,
}

impl Judge for ModelJudge<'_> {
    type Path = ();

    fn settled(&self) -> bool {
        false
    }

    fn extend(&mut self, _: &mut (), depth: usize, op: &MemOp) -> bool {
        self.ops.truncate(depth);
        self.ops.push(*op);
        true
    }

    fn complete(&mut self, _: &(), depth: usize) {
        let exec = IdealizedExecution::from_observed(self.n_procs, self.ops[..depth].to_vec())
            .expect("enumerated execution is well-formed");
        if !self.model.obeys(&exec) {
            self.violating += 1;
        }
    }
}

#[cfg(test)]
mod conform_tests {
    use super::*;
    use weakord_core::{Drf0, MonitorModel};
    use weakord_progs::gen;

    fn limits() -> TraceLimits {
        TraceLimits { max_ops_per_thread: 24, max_traces: 1_500 }
    }

    #[test]
    fn conformance_agrees_with_the_fused_drf_checker() {
        for seed in 0..6 {
            for prog in [
                gen::race_free(seed, gen::GenParams::default()),
                gen::racy(seed, gen::GenParams::default()),
            ] {
                let fused = check_program_drf(&prog, HbMode::Drf0, limits());
                let general = check_program_conforms(&prog, &Drf0, limits());
                assert_eq!(
                    fused.is_race_free(),
                    general.conforms(),
                    "{}: fused and general checkers disagree",
                    prog.name
                );
            }
        }
    }

    #[test]
    fn monitor_conformance_of_generated_programs() {
        let params = gen::GenParams::default();
        let model = MonitorModel::new(params.monitor_map());
        for seed in 0..4 {
            let clean = gen::race_free(seed, params);
            assert!(check_program_conforms(&clean, &model, limits()).conforms(), "{}", clean.name);
            let dirty = gen::racy(seed, params);
            if dirty.name.starts_with("racy") {
                assert!(
                    !check_program_conforms(&dirty, &model, limits()).conforms(),
                    "{}",
                    dirty.name
                );
            }
        }
    }
}
