//! Conflict-aware partial-order reduction for the exploration engines.
//!
//! Exhaustive exploration pays for every interleaving of every enabled
//! transition, but most interleavings of *non-conflicting* transitions
//! — exactly the structure the paper's conflict predicate formalizes —
//! reach the same states along permuted paths. This module prunes those
//! redundant paths with **persistent (ample) sets** ([`ample_index`],
//! selected by [`Reduction::Ample`](crate::Reduction::Ample)): at each
//! state, if some enabled transition `t` is provably independent of
//! *every* transition any `t`-avoiding execution can take, then
//! exploring `t` alone (a singleton persistent set) preserves every
//! reachable deadlock — and therefore every terminal state and outcome,
//! since terminal states have no enabled transitions.
//!
//! Independence is derived from the machines' self-description
//! ([`ReductionClass`](crate::ReductionClass)): transitions of the same
//! processor are dependent (program order), transitions touching a
//! common location are dependent (the conflict predicate), and a
//! machine's synchronization gating adds dependences between syncs and
//! the writes whose queued messages can stall them. Everything else
//! commutes.
//!
//! The dependence tests consult a static, per-`(thread, pc)`
//! **future-footprint table** ([`FutureTable`]): a fixpoint over the
//! thread's control-flow graph of which locations it may still read,
//! write, or synchronize on. The table over-approximates (branches are
//! unioned), which only costs reduction, never soundness.
//!
//! Soundness of the singleton ample choices (details per rule below):
//! a candidate `t` must (1) commute with every transition reachable in
//! a `t`-avoiding execution, (2) never be disabled by one, and (3)
//! never disable one. Halts satisfy this trivially. For deliveries on
//! the versioned cache substrate, stale-delivery no-ops make pending
//! deliveries mutually commutative, so the only true dependence is the
//! target's own *local* reads of the delivered location — and under a
//! global-drain sync gate, reads the target can only reach *through* a
//! sync access cannot occur while the message is pending at all, which
//! is what collapses delivery interleavings on sync-heavy workloads.

use weakord_core::Loc;
use weakord_progs::{Instr, Program, ThreadState};

use crate::machine::{DeliveryClass, InternalKind, Label, Machine, SyncGate};

fn bit(loc: Loc) -> u128 {
    1u128 << loc.index()
}

/// A thread's may-touch-in-the-future footprint from one program point,
/// as location bitmasks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct FutureFp {
    /// Locations a future *data read* may load from the local copy.
    data_reads: u128,
    /// Locations a future sync read (`Test`) may load. Tracked apart
    /// from `data_reads` because only some machines serve sync reads
    /// from the local copy. RMW reads are excluded: every machine reads
    /// them from the latest value.
    sync_reads: u128,
    /// Locations any future write component (data or sync) may store to.
    writes: u128,
    /// Locations a future synchronization access may name.
    sync_locs: u128,
    /// Whether any synchronization access is reachable at all.
    has_sync: bool,
    /// Locations a data read may load *without first executing a
    /// synchronization access*. Under a global-drain gate, reads behind
    /// a sync cannot happen while any message is pending.
    pre_sync_data_reads: u128,
}

impl FutureFp {
    fn touches(&self) -> u128 {
        self.data_reads | self.sync_reads | self.writes
    }
}

/// Per-`(thread, pc)` future footprints, computed once per program as a
/// backward fixpoint over each thread's control-flow graph.
pub(crate) struct FutureTable {
    /// `fut[t][pc]`; index `instrs.len()` is the fallen-off-the-end
    /// (empty) footprint.
    fut: Vec<Vec<FutureFp>>,
}

impl FutureTable {
    /// Builds the table, or `None` when the program addresses more
    /// locations than the 128-bit masks can carry (reduction is then
    /// simply disabled).
    pub(crate) fn new(prog: &Program) -> Option<FutureTable> {
        if prog.n_locs > 128 {
            return None;
        }
        Some(FutureTable { fut: prog.threads.iter().map(|t| thread_table(&t.instrs)).collect() })
    }

    /// The footprint of thread `t` from its current program point.
    fn at(&self, t: usize, ts: &ThreadState) -> FutureFp {
        if ts.is_halted() {
            return FutureFp::default();
        }
        let table = &self.fut[t];
        table[(ts.pc() as usize).min(table.len() - 1)]
    }

    /// Every location thread `t` syncs on anywhere in its program: an
    /// over-approximation of the locations it can ever *own* under a
    /// reserve-owner gate (ownership requires a past sync).
    fn prog_sync(&self, t: usize) -> u128 {
        self.fut[t][0].sync_locs
    }
}

fn thread_table(instrs: &[Instr]) -> Vec<FutureFp> {
    let n = instrs.len();
    let mut fp = vec![FutureFp::default(); n + 1];
    // Backward fixpoint; loops need iteration until stable. Monotone in
    // finitely many bits, so this terminates.
    loop {
        let mut changed = false;
        for i in (0..n).rev() {
            let mut cur = FutureFp::default();
            let mut gen_data_read = 0u128;
            let mut is_sync = false;
            match instrs[i] {
                Instr::Read { loc, .. } => {
                    cur.data_reads |= bit(loc);
                    gen_data_read = bit(loc);
                }
                Instr::Write { loc, .. } => cur.writes |= bit(loc),
                Instr::SyncRead { loc, .. } => {
                    cur.sync_reads |= bit(loc);
                    cur.sync_locs |= bit(loc);
                    cur.has_sync = true;
                    is_sync = true;
                }
                Instr::SyncWrite { loc, .. } | Instr::SyncRmw { loc, .. } => {
                    cur.writes |= bit(loc);
                    cur.sync_locs |= bit(loc);
                    cur.has_sync = true;
                    is_sync = true;
                }
                _ => {}
            }
            let (succs, n_succs) = match instrs[i] {
                Instr::Halt => ([0; 2], 0),
                Instr::Jump { target } => ([target as usize, 0], 1),
                Instr::BranchZero { target, .. } | Instr::BranchNonZero { target, .. } => {
                    ([target as usize, i + 1], 2)
                }
                _ => ([i + 1, 0], 1),
            };
            let mut succ_pre = 0u128;
            for &s in &succs[..n_succs] {
                let f = fp[s];
                cur.data_reads |= f.data_reads;
                cur.sync_reads |= f.sync_reads;
                cur.writes |= f.writes;
                cur.sync_locs |= f.sync_locs;
                cur.has_sync |= f.has_sync;
                succ_pre |= f.pre_sync_data_reads;
            }
            // A sync access is a barrier for the sync-free read prefix.
            cur.pre_sync_data_reads = if is_sync { 0 } else { gen_data_read | succ_pre };
            if cur != fp[i] {
                fp[i] = cur;
                changed = true;
            }
        }
        if !changed {
            return fp;
        }
    }
}

/// Picks a singleton persistent (ample) set among `succs`, returning
/// the index of a transition that is provably independent of everything
/// any avoiding execution can do — or `None` when no such transition
/// exists and the state must be expanded in full.
///
/// The choice is a deterministic function of the state alone (never of
/// visit order), so the parallel engine can apply it worker-locally and
/// stay run-to-run deterministic.
pub(crate) fn ample_index<M: Machine>(
    machine: &M,
    state: &M::State,
    succs: &[(Label, M::State)],
    table: &FutureTable,
) -> Option<usize> {
    if succs.len() <= 1 {
        return None;
    }
    let class = machine.reduction_class();
    let threads = machine.threads(state);

    // Rule 1 — halts: no shared effect, always enabled, disable
    // nothing, and nothing observes a thread's halt status.
    for (i, (label, _)) in succs.iter().enumerate() {
        if let Label::Internal(step) = label {
            if step.kind == InternalKind::Halt {
                return Some(i);
            }
        }
    }

    // Rule 2 — queue services (drains / deliveries).
    for (i, (label, _)) in succs.iter().enumerate() {
        let Label::Internal(step) = label else { continue };
        let Some(loc) = step.loc else { continue };
        let l = bit(loc);
        let sound = match class.delivery {
            DeliveryClass::TargetCopy { sync_reads_local } => {
                // The delivery mutates only `target`'s copy of `loc`;
                // versioning makes it commute with every other pending
                // or future write, so the one dependence left is the
                // target's own local reads of `loc`.
                let Some(target) = step.target else { continue };
                let ts = &threads[target.index()];
                if ts.is_halted() {
                    true
                } else {
                    let fp = table.at(target.index(), ts);
                    let local_reads = if class.sync_gate == SyncGate::GlobalDrain {
                        // While this message is pending, *no* sync can
                        // fire anywhere, so reads the target can only
                        // reach through a sync access are unreachable
                        // in any avoiding execution.
                        fp.pre_sync_data_reads
                    } else if sync_reads_local {
                        fp.data_reads | fp.sync_reads
                    } else {
                        fp.data_reads
                    };
                    local_reads & l == 0
                }
            }
            DeliveryClass::Memory => {
                // The drain writes the one shared memory: no live
                // thread other than the source may touch `loc` again,
                // and no *other* processor's queue may be non-empty (a
                // non-empty queue always contributes an enabled env
                // transition, and its visible head may conceal an entry
                // on `loc` behind it). The source itself is exempt:
                // forwarding serves its reads from its own newest
                // queued write, and its same-queue entries stay ordered
                // behind this one.
                threads.iter().enumerate().all(|(q, ts)| {
                    q == step.proc.index() || ts.is_halted() || table.at(q, ts).touches() & l == 0
                }) && succs.iter().all(|(lab, _)| match lab {
                    Label::Internal(s2) if s2.kind != InternalKind::Halt => s2.proc == step.proc,
                    _ => true,
                })
            }
        };
        if sound {
            return Some(i);
        }
    }

    // Rule 3 — thread operations (data accesses only; syncs observe
    // and are observed by too much).
    'cand: for (i, (label, _)) in succs.iter().enumerate() {
        let Label::Op(rec) = label else { continue };
        let f = label.footprint();
        if f.sync {
            continue;
        }
        let l = bit(rec.loc);
        // No enabled queue service may touch the same location (it
        // writes a copy or memory we read/write), and none may belong
        // to this processor (for Memory-class machines a visible head
        // can conceal a same-location entry; for cache machines our own
        // deliveries commute but our own drains do not exist — keep the
        // uniform, conservative test).
        for (lab, _) in succs {
            if let Label::Internal(s2) = lab {
                if s2.kind == InternalKind::Halt {
                    continue;
                }
                if s2.loc == Some(rec.loc) || s2.proc == rec.proc {
                    continue 'cand;
                }
            }
        }
        for (q, ts) in threads.iter().enumerate() {
            if q == rec.proc.index() || ts.is_halted() {
                continue;
            }
            let fp = table.at(q, ts);
            let clash = if f.writes { fp.touches() } else { fp.writes };
            if clash & l != 0 {
                continue 'cand;
            }
            if f.writes {
                // A relaxed write queues messages that a sync gate may
                // later wait on: block when any live thread has such a
                // sync ahead.
                match class.sync_gate {
                    SyncGate::None => {}
                    SyncGate::GlobalDrain => {
                        if fp.has_sync {
                            continue 'cand;
                        }
                    }
                    SyncGate::ReserveOwner => {
                        if fp.sync_locs & table.prog_sync(rec.proc.index()) != 0 {
                            continue 'cand;
                        }
                    }
                }
            }
        }
        return Some(i);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointCfg;
    use crate::explore::{
        explore, explore_seq, run, CancelToken, Checkpoint, Limits, Opts, ProgressSink,
        TruncationReason,
    };
    use crate::machines::{
        BnrMachine, CacheDelayMachine, NetReorderMachine, ScMachine, WoDef1Machine, WoDef2Machine,
        WriteBufferMachine,
    };
    use std::time::Duration;
    use weakord_progs::{litmus, ThreadBuilder};

    #[test]
    fn future_table_unions_branches_and_respects_sync_barriers() {
        use weakord_progs::Reg;
        let (x, y, s) = (Loc::new(0), Loc::new(1), Loc::new(2));
        let mut t = ThreadBuilder::new();
        t.read(Reg::new(0), x); // 0: data read x (pre-sync)
        t.sync_read(Reg::new(1), s); // 1: sync read s (Test)
        t.read(Reg::new(2), y); // 2: data read y (behind the sync)
        t.write(x, 1u64); // 3: data write x
        t.halt(); // 4
        let table = thread_table(&t.finish().instrs);
        let f0 = table[0];
        assert_eq!(f0.data_reads, bit(x) | bit(y));
        assert_eq!(f0.sync_reads, bit(s));
        assert_eq!(f0.writes, bit(x));
        assert_eq!(f0.sync_locs, bit(s));
        assert!(f0.has_sync);
        // Only the read of x is reachable without crossing the Test.
        assert_eq!(f0.pre_sync_data_reads, bit(x));
        // From behind the sync, y is a plain pre-sync read again.
        assert_eq!(table[2].pre_sync_data_reads, bit(y));
        assert!(!table[3].has_sync);
    }

    #[test]
    fn future_table_handles_loops() {
        use weakord_progs::Reg;
        let x = Loc::new(0);
        let mut t = ThreadBuilder::new();
        let top = t.here();
        t.read(Reg::new(0), x);
        t.branch_non_zero(Reg::new(0), top);
        t.halt();
        let table = thread_table(&t.finish().instrs);
        // The loop keeps the read in its own future.
        assert_eq!(table[0].data_reads, bit(x));
        assert_eq!(table[1].data_reads, bit(x));
    }

    /// The reduced explorer agrees with the full one on every machine ×
    /// in-code litmus program (the file corpus is covered by the
    /// integration suites).
    #[test]
    fn reduced_matches_full_on_the_litmus_suite() {
        fn check<M: Machine>(machine: &M, prog: &Program) {
            let full = explore_seq(machine, prog, Limits::default());
            let red = explore(machine, prog, Limits::reduced());
            assert!(!full.truncated() && !red.truncated());
            assert_eq!(red.outcomes, full.outcomes, "{} × {}", machine.name(), prog.name);
            assert_eq!(red.deadlocks, full.deadlocks, "{} × {}", machine.name(), prog.name);
            assert!(
                red.states <= full.states,
                "{} × {}: reduced visited more states ({} > {})",
                machine.name(),
                prog.name,
                red.states,
                full.states
            );
        }
        for lit in litmus::all() {
            check(&ScMachine, &lit.program);
            check(&WriteBufferMachine, &lit.program);
            check(&NetReorderMachine, &lit.program);
            check(&CacheDelayMachine, &lit.program);
            check(&WoDef1Machine, &lit.program);
            check(&WoDef2Machine::default(), &lit.program);
            check(&WoDef2Machine { drf1_refined: true }, &lit.program);
            check(&BnrMachine, &lit.program);
        }
    }

    /// The `Reduction::Ample` knob in `Limits` preserves outcomes and
    /// deadlocks through both engines and actually prunes.
    #[test]
    fn ample_knob_is_sound_and_effective_in_both_engines() {
        let lit = litmus::iriw();
        let machine = WoDef2Machine::default();
        let full = explore_seq(&machine, &lit.program, Limits::default());
        for reduced in [
            explore_seq(&machine, &lit.program, Limits::reduced()),
            explore(&machine, &lit.program, Limits { threads: 4, ..Limits::reduced() }),
        ] {
            assert_eq!(reduced.outcomes, full.outcomes);
            assert_eq!(reduced.deadlocks, full.deadlocks);
            assert!(reduced.states <= full.states);
            assert!(reduced.stats.pruned_arcs > 0, "expected some pruning on iriw");
            assert!(reduced.stats.reduction_ratio() > 0.0);
        }
    }

    /// The parallel engine's ample choice is a function of the state
    /// alone, so reduced parallel runs are deterministic and agree with
    /// the reduced sequential engine.
    #[test]
    fn parallel_ample_is_deterministic_and_matches_sequential() {
        let lit = litmus::fig1_dekker();
        let machine = BnrMachine;
        let seq = explore_seq(&machine, &lit.program, Limits::reduced());
        for threads in [1, 2, 8] {
            let par = explore(&machine, &lit.program, Limits { threads, ..Limits::reduced() });
            assert_eq!(par, seq, "ample parallel diverged at {threads} threads");
            assert_eq!(par.stats.pruned_arcs, seq.stats.pruned_arcs);
        }
    }

    /// A reduced run honors every run option: a cancelled or
    /// zero-deadline run truncates with the matching reason and its
    /// final checkpoint resumes to the uninterrupted answer, and an
    /// attached progress sink receives samples without perturbing the
    /// result.
    #[test]
    fn reduced_runs_honor_cancel_deadline_and_progress() {
        let lit = litmus::iriw();
        let machine = WoDef2Machine::default();
        let limits = Limits { threads: 2, ..Limits::reduced() };
        let oracle = explore(&machine, &lit.program, limits);
        assert!(!oracle.truncated());
        let cancel = CancelToken::new();
        cancel.cancel();
        let zero = Limits { deadline: Some(Duration::ZERO), ..limits };
        for (tag, cut_limits, cancel, reason) in [
            ("cancel", limits, Some(&cancel), TruncationReason::Cancelled),
            ("deadline", zero, None, TruncationReason::Deadline),
        ] {
            let dir =
                std::env::temp_dir().join(format!("weakord-ample-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let cfg = CheckpointCfg::every(&dir, 100);
            let opts = Opts { cancel, checkpoint: Checkpoint::Fresh(&cfg), ..Opts::default() };
            let cut = run(&machine, &lit.program, cut_limits, &opts).expect("final checkpoint");
            assert_eq!(cut.truncation, Some(reason), "{tag}");
            let opts = Opts { checkpoint: Checkpoint::Resume(&cfg), ..Opts::default() };
            let resumed = run(&machine, &lit.program, limits, &opts).expect("resumes");
            assert_eq!(resumed, oracle, "{tag}: resumed run differs from the oracle");
            let _ = std::fs::remove_dir_all(&dir);
        }
        let sink = ProgressSink::with_interval(Duration::ZERO);
        let opts = Opts { progress: Some(&sink), ..Opts::default() };
        let watched = run(&machine, &lit.program, limits, &opts).expect("no checkpoint");
        assert_eq!(watched, oracle, "progress must not perturb results");
        let last = sink.sample();
        assert!(last.seq > 0, "the sink was published to");
        assert_eq!(last.states as usize, oracle.states);
        assert_eq!(last.frontier, 0, "a finished search has an empty frontier");
    }

    /// A program too wide for the footprint masks runs `Ample`
    /// unreduced, under the `Ample` fingerprint on both the save and the
    /// resume side, so a suspended run resumes to the `Full` answer.
    #[test]
    fn wide_programs_run_ample_as_full_and_resume() {
        use weakord_progs::Reg;
        let (near, far) = (Loc::new(0), Loc::new(128));
        let mut t = ThreadBuilder::new();
        t.write(near, 1u64);
        t.write(far, 1u64);
        t.halt();
        let mut u = ThreadBuilder::new();
        u.read(Reg::new(0), far);
        u.read(Reg::new(1), near);
        u.halt();
        let prog = Program::new("wide", vec![t.finish(), u.finish()], 129).unwrap();
        assert!(FutureTable::new(&prog).is_none(), "129 locations exceed the masks");
        let full = explore(&WriteBufferMachine, &prog, Limits::default());
        let ample = Limits { threads: 2, ..Limits::reduced() };
        assert_eq!(explore(&WriteBufferMachine, &prog, ample), full);
        let dir = std::env::temp_dir().join(format!("weakord-wide-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = CheckpointCfg::every(&dir, 2);
        cfg.abort_after = Some(1);
        let leg = |checkpoint| {
            let opts = Opts { checkpoint, ..Opts::default() };
            run(&WriteBufferMachine, &prog, ample, &opts).expect("checkpoint round-trips")
        };
        let mut ex = leg(Checkpoint::Fresh(&cfg));
        assert_eq!(ex.truncation, Some(TruncationReason::Resumable));
        while ex.truncation == Some(TruncationReason::Resumable) {
            ex = leg(Checkpoint::Resume(&cfg));
        }
        assert_eq!(ex, full);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
