//! Figure 1, configuration 2: no caches, a general interconnection
//! network between processors and memory modules. Accesses are *issued
//! in program order* but can "reach memory modules in a different order"
//! (Lamport's original observation).

use weakord_core::{Loc, ProcId, Value};

use crate::checkpoint::{Codec, DecodeError, Reader};
use weakord_progs::{Access, Outcome, Program, ThreadEvent, ThreadState};

use crate::machine::{
    advance_skipping_delays_and_fences, outcome_if_halted, pooled_clone, DeliveryClass,
    InternalStep, Label, Machine, OpRecord, ReductionClass, SyncGate,
};

/// In-order issue into an unordered network: writes travel as in-flight
/// messages that arrive at memory in any order, except that messages
/// from one processor to one location stay ordered (they follow the same
/// path to the same module). Reads consult the own in-flight writes to
/// the same location (the module serves them in path order) and
/// otherwise return the current memory value. No synchronization support
/// beyond RMW atomicity.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetReorderMachine;

/// State of [`NetReorderMachine`].
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct NetState {
    /// Architectural thread states.
    pub threads: Vec<ThreadState>,
    /// The memory modules.
    pub mem: Vec<Value>,
    /// Per-processor in-flight writes in issue order; index order is the
    /// per-path FIFO constraint.
    pub in_flight: Vec<Vec<(Loc, Value)>>,
}

impl NetState {
    fn own_latest(&self, t: usize, loc: Loc) -> Option<Value> {
        self.in_flight[t].iter().rev().find(|(l, _)| *l == loc).map(|(_, v)| *v)
    }

    fn has_own(&self, t: usize, loc: Loc) -> bool {
        self.in_flight[t].iter().any(|(l, _)| *l == loc)
    }
}

/// Hand-written so `clone_from` reuses the in-flight queues (the
/// derived impl's `clone_from` falls back to a fresh clone), making
/// [`Machine::successors_into`]'s state recycling allocation-free.
impl Clone for NetState {
    fn clone(&self) -> Self {
        NetState {
            threads: self.threads.clone(),
            mem: self.mem.clone(),
            in_flight: self.in_flight.clone(),
        }
    }
    fn clone_from(&mut self, src: &Self) {
        self.threads.clone_from(&src.threads);
        self.mem.clone_from(&src.mem);
        self.in_flight.clone_from(&src.in_flight);
    }
}

impl Machine for NetReorderMachine {
    type State = NetState;

    fn name(&self) -> &'static str {
        "net-reorder"
    }

    fn initial(&self, prog: &Program) -> NetState {
        NetState {
            threads: weakord_progs::initial_threads(prog),
            mem: vec![Value::ZERO; prog.n_locs as usize],
            in_flight: vec![Vec::new(); prog.n_procs()],
        }
    }

    fn successors_into(
        &self,
        prog: &Program,
        state: &NetState,
        out: &mut Vec<(Label, NetState)>,
        pool: &mut Vec<NetState>,
    ) {
        for t in 0..state.threads.len() {
            if state.threads[t].is_halted() {
                continue;
            }
            let thread = &prog.threads[t];
            let mut next = pooled_clone(pool, state);
            let ThreadEvent::Access(access) =
                advance_skipping_delays_and_fences(&mut next.threads[t], thread)
            else {
                // The advance reached Halt: keep the halted thread state.
                out.push((Label::Internal(InternalStep::halt(ProcId::new(t as u16))), next));
                continue;
            };
            let proc = ProcId::new(t as u16);
            let kind = access.op_kind();
            let loc = access.loc();
            match access {
                Access::Read { .. } => {
                    let v = next.own_latest(t, loc).unwrap_or(next.mem[loc.index()]);
                    next.threads[t].complete(thread, Some(v));
                    let rec =
                        OpRecord { proc, kind, loc, read_value: Some(v), written_value: None };
                    out.push((Label::Op(rec), next));
                }
                Access::Write { value, .. } => {
                    next.in_flight[t].push((loc, value));
                    next.threads[t].complete(thread, None);
                    let rec =
                        OpRecord { proc, kind, loc, read_value: None, written_value: Some(value) };
                    out.push((Label::Op(rec), next));
                }
                Access::Rmw { op, .. } => {
                    // The module executes the RMW atomically; it must see
                    // our earlier writes to this location first.
                    if next.has_own(t, loc) {
                        pool.push(next);
                        continue;
                    }
                    let old = next.mem[loc.index()];
                    let new = op.apply(old);
                    next.mem[loc.index()] = new;
                    next.threads[t].complete(thread, Some(old));
                    let rec = OpRecord {
                        proc,
                        kind,
                        loc,
                        read_value: Some(old),
                        written_value: Some(new),
                    };
                    out.push((Label::Op(rec), next));
                }
            }
        }
        // Network deliveries: any in-flight write whose per-(proc, loc)
        // predecessors have been delivered.
        for t in 0..state.in_flight.len() {
            for i in 0..state.in_flight[t].len() {
                let (loc, v) = state.in_flight[t][i];
                if state.in_flight[t][..i].iter().any(|(l, _)| *l == loc) {
                    continue; // an older write to the same module blocks this one
                }
                let mut next = pooled_clone(pool, state);
                next.in_flight[t].remove(i);
                next.mem[loc.index()] = v;
                out.push((Label::Internal(InternalStep::drain(ProcId::new(t as u16), loc)), next));
            }
        }
    }

    fn outcome(&self, _prog: &Program, state: &NetState) -> Option<Outcome> {
        if state.in_flight.iter().any(|q| !q.is_empty()) {
            return None;
        }
        outcome_if_halted(&state.threads, || state.mem.clone())
    }

    fn threads<'a>(&self, state: &'a NetState) -> &'a [ThreadState] {
        &state.threads
    }

    fn reduction_class(&self) -> ReductionClass {
        // RMWs gate only on the issuer's own in-flight writes to the
        // RMW's location (same-processor); deliveries write the single
        // shared memory.
        ReductionClass { sync_gate: SyncGate::None, delivery: DeliveryClass::Memory }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, Limits};
    use crate::machines::ScMachine;
    use weakord_progs::litmus;

    #[test]
    fn dekker_violation_is_possible() {
        let lit = litmus::fig1_dekker();
        let ex = explore(&NetReorderMachine, &lit.program, Limits::default());
        assert!(ex.outcomes.iter().any(|o| (lit.non_sc)(o)));
        assert_eq!(ex.deadlocks, 0);
    }

    #[test]
    fn mp_violation_is_possible() {
        // Unlike the FIFO write buffer, the network can deliver the flag
        // before the data.
        let lit = litmus::mp();
        let ex = explore(&NetReorderMachine, &lit.program, Limits::default());
        assert!(ex.outcomes.iter().any(|o| (lit.non_sc)(o)));
    }

    #[test]
    fn per_location_fifo_keeps_coherence() {
        let lit = litmus::coherence_corr();
        let ex = explore(&NetReorderMachine, &lit.program, Limits::default());
        assert!(ex.outcomes.iter().all(|o| !(lit.non_sc)(o)));
    }

    #[test]
    fn outcome_set_is_superset_of_sc() {
        for lit in litmus::all() {
            let sc = explore(&ScMachine, &lit.program, Limits::default());
            let net = explore(&NetReorderMachine, &lit.program, Limits::default());
            assert!(
                net.outcomes.is_superset(&sc.outcomes),
                "{}: net-reorder lost SC outcomes",
                lit.name
            );
        }
    }
}

impl Codec for NetState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.threads.encode(out);
        self.mem.encode(out);
        self.in_flight.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(NetState { threads: Vec::decode(r)?, mem: Vec::decode(r)?, in_flight: Vec::decode(r)? })
    }
}
