//! The sequentially consistent reference machine: an interleaving
//! semantics with atomic memory.

use weakord_core::{ProcId, Value};

use crate::checkpoint::{Codec, DecodeError, Reader};
use weakord_progs::{Access, Outcome, Program, ThreadEvent, ThreadState};

use crate::machine::{
    advance_skipping_delays_and_fences, outcome_if_halted, pooled_clone, DeliveryClass,
    InternalStep, Label, Machine, OpRecord, ReductionClass, SyncGate,
};

/// Lamport's model: memory accesses of all processors execute atomically
/// in some total order, each processor's in program order. Exploring all
/// interleavings yields exactly the SC-allowed outcomes — the right-hand
/// side of Definition 2's "appears sequentially consistent".
#[derive(Debug, Clone, Copy, Default)]
pub struct ScMachine;

/// State of [`ScMachine`]: thread states plus one flat memory.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct ScState {
    /// Architectural thread states.
    pub threads: Vec<ThreadState>,
    /// Atomic shared memory, indexed by location.
    pub mem: Vec<Value>,
}

/// Hand-written so `clone_from` reuses the two vector allocations (the
/// derived impl's `clone_from` falls back to a fresh clone), making
/// [`Machine::successors_into`]'s state recycling allocation-free.
impl Clone for ScState {
    fn clone(&self) -> Self {
        ScState { threads: self.threads.clone(), mem: self.mem.clone() }
    }
    fn clone_from(&mut self, src: &Self) {
        self.threads.clone_from(&src.threads);
        self.mem.clone_from(&src.mem);
    }
}

impl ScMachine {
    /// Executes thread `t`'s next access atomically against memory,
    /// mutating `state`. Returns the completed operation, or `None` if
    /// the thread is halted.
    pub fn step_thread(prog: &Program, state: &mut ScState, t: usize) -> Option<OpRecord> {
        let thread = &prog.threads[t];
        let event = advance_skipping_delays_and_fences(&mut state.threads[t], thread);
        let ThreadEvent::Access(access) = event else {
            return None;
        };
        let proc = ProcId::new(t as u16);
        let kind = access.op_kind();
        let loc = access.loc();
        let record = match access {
            Access::Read { .. } => {
                let v = state.mem[loc.index()];
                state.threads[t].complete(thread, Some(v));
                OpRecord { proc, kind, loc, read_value: Some(v), written_value: None }
            }
            Access::Write { value, .. } => {
                state.mem[loc.index()] = value;
                state.threads[t].complete(thread, None);
                OpRecord { proc, kind, loc, read_value: None, written_value: Some(value) }
            }
            Access::Rmw { op, .. } => {
                let old = state.mem[loc.index()];
                let new = op.apply(old);
                state.mem[loc.index()] = new;
                state.threads[t].complete(thread, Some(old));
                OpRecord { proc, kind, loc, read_value: Some(old), written_value: Some(new) }
            }
        };
        Some(record)
    }
}

impl Machine for ScMachine {
    type State = ScState;

    fn name(&self) -> &'static str {
        "sc"
    }

    fn initial(&self, prog: &Program) -> ScState {
        ScState {
            threads: weakord_progs::initial_threads(prog),
            mem: vec![Value::ZERO; prog.n_locs as usize],
        }
    }

    fn successors_into(
        &self,
        prog: &Program,
        state: &ScState,
        out: &mut Vec<(Label, ScState)>,
        pool: &mut Vec<ScState>,
    ) {
        for t in 0..state.threads.len() {
            if state.threads[t].is_halted() {
                continue;
            }
            let mut next = pooled_clone(pool, state);
            match ScMachine::step_thread(prog, &mut next, t) {
                Some(record) => out.push((Label::Op(record), next)),
                // The advance reached Halt: record the halting as an
                // internal transition so terminal states are reachable.
                None => {
                    out.push((Label::Internal(InternalStep::halt(ProcId::new(t as u16))), next))
                }
            }
        }
    }

    fn outcome(&self, _prog: &Program, state: &ScState) -> Option<Outcome> {
        outcome_if_halted(&state.threads, || state.mem.clone())
    }

    fn threads<'a>(&self, state: &'a ScState) -> &'a [ThreadState] {
        &state.threads
    }

    fn reduction_class(&self) -> ReductionClass {
        // Atomic memory, no queues: sync accesses are never gated and
        // there are no drains or deliveries to classify.
        ReductionClass { sync_gate: SyncGate::None, delivery: DeliveryClass::Memory }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, Limits};
    use weakord_core::Loc;
    use weakord_progs::{litmus, Reg, ThreadBuilder};

    #[test]
    fn single_thread_runs_deterministically() {
        let mut t = ThreadBuilder::new();
        t.write(Loc::new(0), 7u64);
        t.read(Reg::new(0), Loc::new(0));
        t.halt();
        let prog = Program::new("p", vec![t.finish()], 1).unwrap();
        let ex = explore(&ScMachine, &prog, Limits::default());
        assert_eq!(ex.outcomes.len(), 1);
        let o = ex.outcomes.iter().next().unwrap();
        assert_eq!(o.reg(0, Reg::new(0)), Value::new(7));
        assert_eq!(o.mem(Loc::new(0)), Value::new(7));
    }

    #[test]
    fn sc_forbids_every_annotated_non_sc_outcome() {
        for lit in litmus::all() {
            let ex = explore(&ScMachine, &lit.program, Limits::default());
            assert!(!ex.truncated(), "{} truncated", lit.name);
            assert_eq!(ex.deadlocks, 0, "{} deadlocked", lit.name);
            assert!(
                ex.outcomes.iter().all(|o| !(lit.non_sc)(o)),
                "{}: SC produced its own forbidden outcome",
                lit.name
            );
        }
    }

    #[test]
    fn rmw_is_atomic_under_sc() {
        // Two competing TestAndSets: exactly one reads 0.
        let mk = || {
            let mut t = ThreadBuilder::new();
            t.test_and_set(Reg::new(0), Loc::new(0));
            t.halt();
            t.finish()
        };
        let prog = Program::new("tas2", vec![mk(), mk()], 1).unwrap();
        let ex = explore(&ScMachine, &prog, Limits::default());
        for o in &ex.outcomes {
            let wins = [o.reg(0, Reg::new(0)), o.reg(1, Reg::new(0))]
                .iter()
                .filter(|v| **v == Value::ZERO)
                .count();
            assert_eq!(wins, 1, "exactly one TAS must win: {o}");
        }
    }
}

impl Codec for ScState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.threads.encode(out);
        self.mem.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ScState { threads: Vec::decode(r)?, mem: Vec::decode(r)? })
    }
}
