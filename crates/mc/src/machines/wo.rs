//! The weakly ordered machines: Dubois/Scheurich/Briggs' Definition 1
//! hardware and the paper's new Section 5 implementation, as operational
//! models over the cache substrate.
//!
//! Both machines run *data* accesses exactly like
//! [`crate::machines::CacheDelayMachine`] — writes commit locally with
//! lazy invalidations — and differ only in how synchronization
//! operations wait:
//!
//! * **Definition 1** ([`WoDef1Machine`]): a processor may not execute a
//!   synchronization operation until all of its own previous accesses
//!   are globally performed, and no later access is issued until the
//!   synchronization operation is globally performed.
//! * **Definition 2 implementation** ([`WoDef2Machine`], Section 5.3):
//!   the issuing processor does **not** wait for its pending accesses —
//!   it commits the synchronization operation and moves on. Instead, the
//!   location is *reserved*: a subsequent synchronization operation by
//!   another processor on the same location stalls until the reserving
//!   processor's previous writes are globally performed (the counter +
//!   reserve-bit mechanism; condition 5 of Section 5.1).
//!
//! In both machines a synchronization operation's own value management
//! is atomic (commit and global perform coincide for the sync line
//! itself) — a conservative simplification of the protocol's
//! exclusive-ownership transfer; the cycle-level model in
//! `weakord-coherence` implements the real message protocol.

use weakord_core::ProcId;

use crate::checkpoint::{Codec, DecodeError, Reader};
use weakord_progs::{Outcome, Program, ThreadState};

use crate::machine::{DeliveryClass, Label, Machine, ReductionClass, SyncGate};
use crate::machines::substrate::{self, CacheState, SubstrateState, SyncRule};

/// Definition 1 weak ordering (the old definition).
#[derive(Debug, Clone, Copy, Default)]
pub struct WoDef1Machine;

/// The Section 5 implementation, weakly ordered w.r.t. DRF0 by
/// Definition 2 but *not* allowed by Definition 1.
#[derive(Debug, Clone, Copy, Default)]
pub struct WoDef2Machine {
    /// Apply the Section 6 refinement: read-only synchronization
    /// operations (`Test`) do not reserve the location and so do not
    /// stall later synchronizers on the issuer's pending accesses.
    pub drf1_refined: bool,
}

/// Shared state of the weakly ordered machines.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct WoState {
    /// Architectural thread states.
    pub threads: Vec<ThreadState>,
    /// The cache ensemble.
    pub cache: CacheState,
    /// Per location: the processor whose synchronization operation
    /// committed last (the reserve owner for condition 5). Only used by
    /// the Definition 2 machine.
    pub last_sync: Vec<Option<ProcId>>,
}

/// Hand-written so `clone_from` reuses every nested buffer (the derived
/// impl's `clone_from` falls back to a fresh clone), making
/// [`Machine::successors_into`]'s state recycling allocation-free.
impl Clone for WoState {
    fn clone(&self) -> Self {
        WoState {
            threads: self.threads.clone(),
            cache: self.cache.clone(),
            last_sync: self.last_sync.clone(),
        }
    }
    fn clone_from(&mut self, src: &Self) {
        self.threads.clone_from(&src.threads);
        self.cache.clone_from(&src.cache);
        self.last_sync.clone_from(&src.last_sync);
    }
}

impl SubstrateState for WoState {
    fn parts(&self) -> (&[ThreadState], &CacheState) {
        (&self.threads, &self.cache)
    }
    fn parts_mut(&mut self) -> (&mut [ThreadState], &mut CacheState, &mut [Option<ProcId>]) {
        (&mut self.threads, &mut self.cache, &mut self.last_sync)
    }
}

fn initial(prog: &Program) -> WoState {
    WoState {
        threads: weakord_progs::initial_threads(prog),
        cache: CacheState::new(prog.n_procs(), prog.n_locs as usize),
        last_sync: vec![None; prog.n_locs as usize],
    }
}

impl Machine for WoDef1Machine {
    type State = WoState;

    fn name(&self) -> &'static str {
        "wo-def1"
    }

    fn initial(&self, prog: &Program) -> WoState {
        initial(prog)
    }

    fn successors_into(
        &self,
        prog: &Program,
        state: &WoState,
        out: &mut Vec<(Label, WoState)>,
        pool: &mut Vec<WoState>,
    ) {
        substrate::successors_into(SyncRule::Def1, prog, state, out, pool);
    }

    fn outcome(&self, prog: &Program, state: &WoState) -> Option<Outcome> {
        substrate::outcome(prog, state)
    }

    fn threads<'a>(&self, state: &'a WoState) -> &'a [ThreadState] {
        &state.threads
    }

    fn reduction_class(&self) -> ReductionClass {
        // Definition 1 gates a sync only on the *issuer's* own pending
        // writes (a same-processor dependence); deliveries update only
        // the target's copy, and sync reads use the latest value.
        ReductionClass {
            sync_gate: SyncGate::None,
            delivery: DeliveryClass::TargetCopy { sync_reads_local: false },
        }
    }
}

impl Machine for WoDef2Machine {
    type State = WoState;

    fn name(&self) -> &'static str {
        if self.drf1_refined {
            "wo-def2-drf1"
        } else {
            "wo-def2"
        }
    }

    fn initial(&self, prog: &Program) -> WoState {
        initial(prog)
    }

    fn successors_into(
        &self,
        prog: &Program,
        state: &WoState,
        out: &mut Vec<(Label, WoState)>,
        pool: &mut Vec<WoState>,
    ) {
        substrate::successors_into(
            SyncRule::Def2 { refine_read_only: self.drf1_refined },
            prog,
            state,
            out,
            pool,
        );
    }

    fn outcome(&self, prog: &Program, state: &WoState) -> Option<Outcome> {
        substrate::outcome(prog, state)
    }

    fn threads<'a>(&self, state: &'a WoState) -> &'a [ThreadState] {
        &state.threads
    }

    fn reduction_class(&self) -> ReductionClass {
        // Condition 5: a sync on `l` may stall on the queue of the
        // processor that last synchronized on `l`.
        ReductionClass {
            sync_gate: SyncGate::ReserveOwner,
            delivery: DeliveryClass::TargetCopy { sync_reads_local: false },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, Limits};
    use crate::machines::ScMachine;
    use weakord_progs::litmus;

    fn outcomes<M: Machine>(m: &M, lit: &litmus::Litmus) -> crate::explore::Exploration {
        let ex = explore(m, &lit.program, Limits::default());
        assert!(!ex.truncated(), "{} truncated on {}", m.name(), lit.name);
        ex
    }

    #[test]
    fn both_wo_machines_appear_sc_on_drf0_litmus_tests() {
        for lit in litmus::all().iter().filter(|l| l.drf0) {
            let sc = outcomes(&ScMachine, lit);
            for (name, got) in [
                ("def1", outcomes(&WoDef1Machine, lit)),
                ("def2", outcomes(&WoDef2Machine::default(), lit)),
                ("def2-drf1", outcomes(&WoDef2Machine { drf1_refined: true }, lit)),
            ] {
                assert_eq!(got.deadlocks, 0, "{name} deadlocked on {}", lit.name);
                assert!(
                    got.outcomes.is_subset(&sc.outcomes),
                    "{name} shows non-SC outcomes on DRF0 program {}",
                    lit.name
                );
            }
        }
    }

    #[test]
    fn wo_machines_still_relax_racy_programs() {
        let lit = litmus::fig1_dekker();
        for got in [outcomes(&WoDef1Machine, &lit), outcomes(&WoDef2Machine::default(), &lit)] {
            assert!(got.outcomes.iter().any(|o| (lit.non_sc)(o)), "data races stay relaxed");
        }
    }

    #[test]
    fn racy_spy_separates_def1_from_def2() {
        // Definition 1 hardware globally performs W(x) before the release
        // commits anywhere, so the spy cannot see flag=1 ∧ x=0. The new
        // implementation commits the release first.
        let lit = litmus::racy_spy();
        let def1 = outcomes(&WoDef1Machine, &lit);
        let def2 = outcomes(&WoDef2Machine::default(), &lit);
        assert!(def1.outcomes.iter().all(|o| !(lit.non_sc)(o)), "Def.1 forbids the spy outcome");
        assert!(def2.outcomes.iter().any(|o| (lit.non_sc)(o)), "Def.2 impl allows the spy outcome");
    }

    #[test]
    fn def1_outcomes_are_a_subset_of_def2_outcomes() {
        // The new implementation strictly generalizes the old hardware's
        // behaviours on our litmus suite.
        for lit in litmus::all() {
            let def1 = outcomes(&WoDef1Machine, &lit);
            let def2 = outcomes(&WoDef2Machine::default(), &lit);
            assert!(def1.outcomes.is_subset(&def2.outcomes), "{}: def1 ⊄ def2", lit.name);
        }
    }

    #[test]
    fn no_deadlocks_anywhere_on_the_suite() {
        for lit in litmus::all() {
            for dl in [
                outcomes(&WoDef1Machine, &lit).deadlocks,
                outcomes(&WoDef2Machine::default(), &lit).deadlocks,
                outcomes(&WoDef2Machine { drf1_refined: true }, &lit).deadlocks,
            ] {
                assert_eq!(dl, 0, "deadlock on {}", lit.name);
            }
        }
    }
}

/// The Bisiani–Nowatzyk–Ravishankar style implementation the paper
/// discusses in Section 2.2: "timestamps ensure that a synchronization
/// operation completes only after all accesses previously issued by
/// **all** processors in the system are complete."
///
/// Operationally: a synchronization operation is enabled only when no
/// invalidation is pending anywhere — a global drain, stronger than
/// Definition 1's per-processor drain. It trivially satisfies
/// Definition 2 w.r.t. DRF0 (its behaviours are a subset of the
/// Definition 1 machine's), at an obvious scalability cost the paper's
/// implementation avoids.
#[derive(Debug, Clone, Copy, Default)]
pub struct BnrMachine;

impl Machine for BnrMachine {
    type State = WoState;

    fn name(&self) -> &'static str {
        "wo-bnr"
    }

    fn initial(&self, prog: &Program) -> WoState {
        initial(prog)
    }

    fn successors_into(
        &self,
        prog: &Program,
        state: &WoState,
        out: &mut Vec<(Label, WoState)>,
        pool: &mut Vec<WoState>,
    ) {
        substrate::successors_into(SyncRule::GlobalDrain, prog, state, out, pool);
    }

    fn outcome(&self, prog: &Program, state: &WoState) -> Option<Outcome> {
        substrate::outcome(prog, state)
    }

    fn threads<'a>(&self, state: &'a WoState) -> &'a [ThreadState] {
        &state.threads
    }

    fn reduction_class(&self) -> ReductionClass {
        // The timestamp scheme stalls every sync until *all* queues
        // drain — which conversely means that while any message is
        // pending no sync can fire anywhere, a fact the reduction
        // exploits for its sync-shielded delivery rule.
        ReductionClass {
            sync_gate: SyncGate::GlobalDrain,
            delivery: DeliveryClass::TargetCopy { sync_reads_local: false },
        }
    }
}

#[cfg(test)]
mod bnr_tests {
    use super::*;
    use crate::contract::check_weak_ordering;
    use crate::explore::{explore, Limits};
    use crate::machines::ScMachine;
    use weakord_core::HbMode;
    use weakord_progs::litmus;

    #[test]
    fn bnr_satisfies_the_contract() {
        let progs: Vec<Program> = litmus::all().into_iter().map(|l| l.program).collect();
        let report = check_weak_ordering(
            &BnrMachine,
            HbMode::Drf0,
            &progs,
            Limits::default(),
            crate::trace::TraceLimits::default(),
        );
        assert!(report.holds(), "{report}");
    }

    #[test]
    fn bnr_behaviours_are_a_subset_of_def1s() {
        for lit in litmus::all() {
            let bnr = explore(&BnrMachine, &lit.program, Limits::default());
            let def1 = explore(&WoDef1Machine, &lit.program, Limits::default());
            assert!(
                bnr.outcomes.is_subset(&def1.outcomes),
                "{}: BNR produced something Def.1 cannot",
                lit.name
            );
            assert_eq!(bnr.deadlocks, 0, "{}", lit.name);
        }
    }

    #[test]
    fn bnr_still_relaxes_racy_data() {
        let lit = litmus::fig1_dekker();
        let ex = explore(&BnrMachine, &lit.program, Limits::default());
        assert!(ex.outcomes.iter().any(|o| (lit.non_sc)(o)));
        let sc = explore(&ScMachine, &lit.program, Limits::default());
        assert!(ex.outcomes.is_superset(&sc.outcomes));
    }
}

impl Codec for WoState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.threads.encode(out);
        self.cache.encode(out);
        self.last_sync.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(WoState {
            threads: Vec::decode(r)?,
            cache: CacheState::decode(r)?,
            last_sync: Vec::decode(r)?,
        })
    }
}
