//! Figure 1, configurations 1 and 3: processors with FIFO write buffers
//! in front of an otherwise atomic memory ("reads are allowed to pass
//! writes in write buffers"). The paper notes the violation arises the
//! same way on a shared bus without caches and on a coherent bus — the
//! coherent ensemble behaves like one atomic memory, so a single model
//! covers both configurations.

use std::collections::VecDeque;

use weakord_core::{Loc, ProcId, Value};

use crate::checkpoint::{Codec, DecodeError, Reader};
use weakord_progs::{Access, Outcome, Program, ThreadEvent, ThreadState};

use crate::machine::{
    advance_skipping_delays, outcome_if_halted, pooled_clone, DeliveryClass, InternalStep, Label,
    Machine, OpRecord, ReductionClass, SyncGate,
};

/// A TSO-style machine: writes enter a per-processor FIFO buffer and
/// drain to memory asynchronously; reads consult the own buffer first
/// (store forwarding) and otherwise bypass buffered writes to read
/// memory directly. Read-modify-writes drain the buffer and execute
/// atomically. This hardware has **no** synchronization support beyond
/// RMW atomicity: `Test`/`Set` behave like data accesses.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteBufferMachine;

/// State of [`WriteBufferMachine`].
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct WbState {
    /// Architectural thread states.
    pub threads: Vec<ThreadState>,
    /// Memory behind the buffers.
    pub mem: Vec<Value>,
    /// Per-processor FIFO write buffers.
    pub buffers: Vec<VecDeque<(Loc, Value)>>,
}

impl WbState {
    fn forwarded(&self, t: usize, loc: Loc) -> Option<Value> {
        self.buffers[t].iter().rev().find(|(l, _)| *l == loc).map(|(_, v)| *v)
    }
}

/// Hand-written so `clone_from` reuses the buffer allocations (the
/// derived impl's `clone_from` falls back to a fresh clone), making
/// [`Machine::successors_into`]'s state recycling allocation-free.
impl Clone for WbState {
    fn clone(&self) -> Self {
        WbState {
            threads: self.threads.clone(),
            mem: self.mem.clone(),
            buffers: self.buffers.clone(),
        }
    }
    fn clone_from(&mut self, src: &Self) {
        self.threads.clone_from(&src.threads);
        self.mem.clone_from(&src.mem);
        self.buffers.clone_from(&src.buffers);
    }
}

impl Machine for WriteBufferMachine {
    type State = WbState;

    fn name(&self) -> &'static str {
        "write-buffer"
    }

    fn initial(&self, prog: &Program) -> WbState {
        WbState {
            threads: weakord_progs::initial_threads(prog),
            mem: vec![Value::ZERO; prog.n_locs as usize],
            buffers: vec![VecDeque::new(); prog.n_procs()],
        }
    }

    fn successors_into(
        &self,
        prog: &Program,
        state: &WbState,
        out: &mut Vec<(Label, WbState)>,
        pool: &mut Vec<WbState>,
    ) {
        // Thread transitions.
        for t in 0..state.threads.len() {
            if state.threads[t].is_halted() {
                continue;
            }
            let thread = &prog.threads[t];
            let mut next = pooled_clone(pool, state);
            let access = match advance_skipping_delays(&mut next.threads[t], thread) {
                ThreadEvent::Access(access) => access,
                ThreadEvent::Fence => {
                    // MFENCE: executable only once the issuer's own
                    // buffer has drained; completing it then touches
                    // nothing. (Even sync-oblivious hardware honors an
                    // explicit fence — it is the one ordering primitive
                    // Figure 1's configurations were assumed to lack.)
                    if !next.buffers[t].is_empty() {
                        pool.push(next);
                        continue;
                    }
                    next.threads[t].complete(thread, None);
                    out.push((Label::Internal(InternalStep::fence(ProcId::new(t as u16))), next));
                    continue;
                }
                // The advance reached Halt: keep the halted thread state.
                _ => {
                    out.push((Label::Internal(InternalStep::halt(ProcId::new(t as u16))), next));
                    continue;
                }
            };
            let proc = ProcId::new(t as u16);
            let kind = access.op_kind();
            let loc = access.loc();
            match access {
                Access::Read { .. } => {
                    let v = next.forwarded(t, loc).unwrap_or(next.mem[loc.index()]);
                    next.threads[t].complete(thread, Some(v));
                    let rec =
                        OpRecord { proc, kind, loc, read_value: Some(v), written_value: None };
                    out.push((Label::Op(rec), next));
                }
                Access::Write { value, .. } => {
                    next.buffers[t].push_back((loc, value));
                    next.threads[t].complete(thread, None);
                    let rec =
                        OpRecord { proc, kind, loc, read_value: None, written_value: Some(value) };
                    out.push((Label::Op(rec), next));
                }
                Access::Rmw { op, .. } => {
                    // Atomic only with an empty buffer (the bus is locked
                    // for the duration; pending writes drain first).
                    if !next.buffers[t].is_empty() {
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
        // Buffer drains.
        for t in 0..state.buffers.len() {
            if state.buffers[t].is_empty() {
                continue;
            }
            let mut next = pooled_clone(pool, state);
            let (loc, v) = next.buffers[t].pop_front().expect("non-empty");
            next.mem[loc.index()] = v;
            out.push((Label::Internal(InternalStep::drain(ProcId::new(t as u16), loc)), next));
        }
    }

    fn outcome(&self, _prog: &Program, state: &WbState) -> Option<Outcome> {
        if state.buffers.iter().any(|b| !b.is_empty()) {
            return None;
        }
        outcome_if_halted(&state.threads, || state.mem.clone())
    }

    fn threads<'a>(&self, state: &'a WbState) -> &'a [ThreadState] {
        &state.threads
    }

    fn reduction_class(&self) -> ReductionClass {
        // RMWs gate only on the issuer's *own* buffer (a same-processor
        // dependence); drains write the single shared memory.
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
        let ex = explore(&WriteBufferMachine, &lit.program, Limits::default());
        assert!(ex.outcomes.iter().any(|o| (lit.non_sc)(o)), "write buffers must allow Figure 1");
        assert_eq!(ex.deadlocks, 0);
    }

    #[test]
    fn mp_is_still_forbidden_by_fifo_buffers() {
        // FIFO drain order preserves the data-before-flag order, so the
        // stale-data outcome is impossible (TSO behaviour).
        let lit = litmus::mp();
        let ex = explore(&WriteBufferMachine, &lit.program, Limits::default());
        assert!(ex.outcomes.iter().all(|o| !(lit.non_sc)(o)));
    }

    #[test]
    fn store_forwarding_lets_a_processor_see_its_own_buffered_write() {
        use weakord_core::Loc;
        use weakord_progs::{Reg, ThreadBuilder};
        let mut t = ThreadBuilder::new();
        t.write(Loc::new(0), 9u64);
        t.read(Reg::new(0), Loc::new(0));
        t.halt();
        let prog = Program::new("fwd", vec![t.finish()], 1).unwrap();
        let ex = explore(&WriteBufferMachine, &prog, Limits::default());
        for o in &ex.outcomes {
            assert_eq!(o.reg(0, Reg::new(0)), Value::new(9));
        }
    }

    #[test]
    fn outcome_set_is_superset_of_sc() {
        // Weakening hardware only adds behaviours.
        for lit in litmus::all() {
            let sc = explore(&ScMachine, &lit.program, Limits::default());
            let wb = explore(&WriteBufferMachine, &lit.program, Limits::default());
            assert!(
                wb.outcomes.is_superset(&sc.outcomes),
                "{}: write-buffer lost SC outcomes",
                lit.name
            );
        }
    }
}

impl Codec for WbState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.threads.encode(out);
        self.mem.encode(out);
        self.buffers.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(WbState { threads: Vec::decode(r)?, mem: Vec::decode(r)?, buffers: Vec::decode(r)? })
    }
}
