//! Figure 1, configuration 4: caches plus a general interconnection
//! network. Accesses are issued and reach the memory system in program
//! order, "but do not complete in program order": a write commits in the
//! writer's cache while its invalidations to other copies are still in
//! flight, so another processor can read its own stale copy.

use weakord_core::ProcId;

use crate::checkpoint::{Codec, DecodeError, Reader};
use weakord_progs::{Outcome, Program, ThreadState};

use crate::machine::{DeliveryClass, Label, Machine, ReductionClass, SyncGate};
use crate::machines::substrate::{self, CacheState, SubstrateState, SyncRule};

/// The cache-coherent relaxed machine with no synchronization support:
/// writes commit locally and invalidate lazily; reads hit the local
/// copy; RMWs execute atomically against the latest line (hardware RMW
/// atomicity is assumed even here). This is exactly the situation of
/// Figure 1's fourth configuration — "both processors initially have X
/// and Y in their caches".
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheDelayMachine;

/// State of [`CacheDelayMachine`].
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct CdState {
    /// Architectural thread states.
    pub threads: Vec<ThreadState>,
    /// The cache ensemble.
    pub cache: CacheState,
}

/// Hand-written so `clone_from` reuses every nested buffer (the derived
/// impl's `clone_from` falls back to a fresh clone), making
/// [`Machine::successors_into`]'s state recycling allocation-free.
impl Clone for CdState {
    fn clone(&self) -> Self {
        CdState { threads: self.threads.clone(), cache: self.cache.clone() }
    }
    fn clone_from(&mut self, src: &Self) {
        self.threads.clone_from(&src.threads);
        self.cache.clone_from(&src.cache);
    }
}

impl SubstrateState for CdState {
    fn parts(&self) -> (&[ThreadState], &CacheState) {
        (&self.threads, &self.cache)
    }
    fn parts_mut(&mut self) -> (&mut [ThreadState], &mut CacheState, &mut [Option<ProcId>]) {
        // The oblivious rule never reserves a location.
        (&mut self.threads, &mut self.cache, &mut [])
    }
}

impl Machine for CacheDelayMachine {
    type State = CdState;

    fn name(&self) -> &'static str {
        "cache-delay"
    }

    fn initial(&self, prog: &Program) -> CdState {
        CdState {
            threads: weakord_progs::initial_threads(prog),
            cache: CacheState::new(prog.n_procs(), prog.n_locs as usize),
        }
    }

    fn successors_into(
        &self,
        prog: &Program,
        state: &CdState,
        out: &mut Vec<(Label, CdState)>,
        pool: &mut Vec<CdState>,
    ) {
        substrate::successors_into(SyncRule::Oblivious, prog, state, out, pool);
    }

    fn outcome(&self, prog: &Program, state: &CdState) -> Option<Outcome> {
        substrate::outcome(prog, state)
    }

    fn threads<'a>(&self, state: &'a CdState) -> &'a [ThreadState] {
        &state.threads
    }

    fn reduction_class(&self) -> ReductionClass {
        // Nothing gates: sync ops behave like data accesses (reads hit
        // the local copy too). Deliveries update only the target's copy.
        ReductionClass {
            sync_gate: SyncGate::None,
            delivery: DeliveryClass::TargetCopy { sync_reads_local: true },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, Limits};
    use crate::machines::ScMachine;
    use weakord_progs::litmus;

    #[test]
    fn dekker_violation_is_possible_with_cached_copies() {
        let lit = litmus::fig1_dekker();
        let ex = explore(&CacheDelayMachine, &lit.program, Limits::default());
        assert!(ex.outcomes.iter().any(|o| (lit.non_sc)(o)));
        assert_eq!(ex.deadlocks, 0);
    }

    #[test]
    fn iriw_violation_is_possible() {
        // Invalidations reach the two readers in different orders: the
        // writes are not atomic.
        let lit = litmus::iriw();
        let ex = explore(&CacheDelayMachine, &lit.program, Limits::default());
        assert!(ex.outcomes.iter().any(|o| (lit.non_sc)(o)));
    }

    #[test]
    fn coherence_is_never_violated() {
        let lit = litmus::coherence_corr();
        let ex = explore(&CacheDelayMachine, &lit.program, Limits::default());
        assert!(ex.outcomes.iter().all(|o| !(lit.non_sc)(o)));
    }

    #[test]
    fn outcome_set_is_superset_of_sc() {
        for lit in litmus::all() {
            let sc = explore(&ScMachine, &lit.program, Limits::default());
            let cd = explore(&CacheDelayMachine, &lit.program, Limits::default());
            assert!(
                cd.outcomes.is_superset(&sc.outcomes),
                "{}: cache-delay lost SC outcomes",
                lit.name
            );
        }
    }
}

impl Codec for CdState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.threads.encode(out);
        self.cache.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(CdState { threads: Vec::decode(r)?, cache: CacheState::decode(r)? })
    }
}
