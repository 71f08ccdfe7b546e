//! Total store ordering: the write-buffer hardware of Figure 1 plus an
//! architecture that *recognizes* ordering primitives. Data writes sit
//! in a per-processor FIFO buffer with store→load forwarding; fences,
//! synchronization accesses and atomic read-modify-writes drain the
//! issuer's buffer and execute directly against memory — the SPARC/x86
//! discipline ("Time, Fences and the Ordering of Events in TSO"). The
//! only relaxation left is a data read bypassing the issuer's earlier
//! buffered data writes (W→R).

use std::collections::VecDeque;

use weakord_core::{Loc, ProcId, Value};

use crate::checkpoint::{Codec, DecodeError, Reader};
use weakord_progs::{Access, Outcome, Program, ThreadEvent, ThreadState};

use crate::machine::{
    advance_skipping_delays, outcome_if_halted, pooled_clone, DeliveryClass, InternalStep, Label,
    Machine, OpRecord, ReductionClass, SyncGate,
};

/// The TSO machine. Unlike [`crate::machines::WriteBufferMachine`] —
/// which buffers *every* write and honors nothing but RMW atomicity —
/// this machine treats `Test`/`Set`/RMW and explicit fences as full
/// ordering points: each waits for the issuer's buffer to drain and
/// then performs against memory atomically. DRF0 programs therefore
/// appear sequentially consistent on it (Definition 2 holds), while
/// racy W→R shapes (Dekker/SB) still break.
#[derive(Debug, Clone, Copy, Default)]
pub struct TsoMachine;

/// State of [`TsoMachine`]: identical shape to the write-buffer
/// machine's — one global-FIFO store buffer per processor.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct TsoState {
    /// Architectural thread states.
    pub threads: Vec<ThreadState>,
    /// Memory behind the buffers.
    pub mem: Vec<Value>,
    /// Per-processor FIFO write buffers (data writes only; ordering
    /// operations never enter them).
    pub buffers: Vec<VecDeque<(Loc, Value)>>,
}

impl TsoState {
    fn forwarded(&self, t: usize, loc: Loc) -> Option<Value> {
        self.buffers[t].iter().rev().find(|(l, _)| *l == loc).map(|(_, v)| *v)
    }
}

/// Hand-written so `clone_from` reuses the buffer allocations (the
/// derived impl's `clone_from` falls back to a fresh clone), making
/// [`Machine::successors_into`]'s state recycling allocation-free.
impl Clone for TsoState {
    fn clone(&self) -> Self {
        TsoState {
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

impl Machine for TsoMachine {
    type State = TsoState;

    fn name(&self) -> &'static str {
        "tso"
    }

    fn initial(&self, prog: &Program) -> TsoState {
        TsoState {
            threads: weakord_progs::initial_threads(prog),
            mem: vec![Value::ZERO; prog.n_locs as usize],
            buffers: vec![VecDeque::new(); prog.n_procs()],
        }
    }

    fn successors_into(
        &self,
        prog: &Program,
        state: &TsoState,
        out: &mut Vec<(Label, TsoState)>,
        pool: &mut Vec<TsoState>,
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
                    // MFENCE: waits for the issuer's buffer to drain.
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
            // Every synchronization access is an ordering point: it
            // waits for the issuer's own buffer and bypasses it.
            if access.is_sync() && !next.buffers[t].is_empty() {
                pool.push(next);
                continue;
            }
            let proc = ProcId::new(t as u16);
            let kind = access.op_kind();
            let loc = access.loc();
            match access {
                Access::Read { sync, .. } => {
                    // Store→load forwarding for data reads; sync reads
                    // execute with an empty buffer, so memory is it.
                    let v = if sync {
                        next.mem[loc.index()]
                    } else {
                        next.forwarded(t, loc).unwrap_or(next.mem[loc.index()])
                    };
                    next.threads[t].complete(thread, Some(v));
                    let rec =
                        OpRecord { proc, kind, loc, read_value: Some(v), written_value: None };
                    out.push((Label::Op(rec), next));
                }
                Access::Write { value, sync, .. } => {
                    if sync {
                        next.mem[loc.index()] = value;
                    } else {
                        next.buffers[t].push_back((loc, value));
                    }
                    next.threads[t].complete(thread, None);
                    let rec =
                        OpRecord { proc, kind, loc, read_value: None, written_value: Some(value) };
                    out.push((Label::Op(rec), next));
                }
                Access::Rmw { op, .. } => {
                    // Buffer already drained (is_sync gate above): lock
                    // the bus and execute atomically.
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

    fn outcome(&self, _prog: &Program, state: &TsoState) -> Option<Outcome> {
        if state.buffers.iter().any(|b| !b.is_empty()) {
            return None;
        }
        outcome_if_halted(&state.threads, || state.mem.clone())
    }

    fn threads<'a>(&self, state: &'a TsoState) -> &'a [ThreadState] {
        &state.threads
    }

    fn reduction_class(&self) -> ReductionClass {
        // Fences, sync accesses and RMWs gate only on the issuer's
        // *own* buffer (a same-processor dependence); drains write the
        // single shared memory.
        ReductionClass { sync_gate: SyncGate::None, delivery: DeliveryClass::Memory }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, Limits};
    use crate::machines::{ScMachine, WriteBufferMachine};
    use weakord_core::Loc;
    use weakord_progs::{litmus, Reg, ThreadBuilder};

    #[test]
    fn dekker_violation_is_possible() {
        let lit = litmus::fig1_dekker();
        let ex = explore(&TsoMachine, &lit.program, Limits::default());
        assert!(ex.outcomes.iter().any(|o| (lit.non_sc)(o)), "TSO must allow the SB relaxation");
        assert_eq!(ex.deadlocks, 0);
    }

    #[test]
    fn fenced_dekker_is_sequentially_consistent() {
        // W x; MFENCE; R y on both sides: the W→R relaxation is gone.
        let mk = |w: u32, r: u32| {
            let mut t = ThreadBuilder::new();
            t.write(Loc::new(w), 1u64);
            t.fence();
            t.read(Reg::new(0), Loc::new(r));
            t.halt();
            t.finish()
        };
        let prog = Program::new("sb+fences", vec![mk(0, 1), mk(1, 0)], 2).unwrap();
        let ex = explore(&TsoMachine, &prog, Limits::default());
        assert_eq!(ex.deadlocks, 0);
        let sc = explore(&ScMachine, &prog, Limits::default());
        assert_eq!(ex.outcomes, sc.outcomes, "fences must restore SC on SB");
    }

    #[test]
    fn sync_dekker_is_sequentially_consistent() {
        // Where the sync-oblivious write buffer breaks dekker-sync, TSO
        // honors Set/Test as ordering points.
        let lit = litmus::dekker_sync();
        let tso = explore(&TsoMachine, &lit.program, Limits::default());
        assert!(tso.outcomes.iter().all(|o| !(lit.non_sc)(o)));
        let wb = explore(&WriteBufferMachine, &lit.program, Limits::default());
        assert!(wb.outcomes.iter().any(|o| (lit.non_sc)(o)), "wb is the sync-oblivious contrast");
    }

    #[test]
    fn mp_is_forbidden_by_fifo_buffers() {
        let lit = litmus::mp();
        let ex = explore(&TsoMachine, &lit.program, Limits::default());
        assert!(ex.outcomes.iter().all(|o| !(lit.non_sc)(o)), "TSO keeps W→W order");
    }

    #[test]
    fn store_forwarding_sees_own_buffered_write() {
        let mut t = ThreadBuilder::new();
        t.write(Loc::new(0), 9u64);
        t.read(Reg::new(0), Loc::new(0));
        t.halt();
        let prog = Program::new("fwd", vec![t.finish()], 1).unwrap();
        let ex = explore(&TsoMachine, &prog, Limits::default());
        for o in &ex.outcomes {
            assert_eq!(o.reg(0, Reg::new(0)), Value::new(9));
        }
    }

    #[test]
    fn rmw_drains_the_buffer_before_executing() {
        // T0 buffers x=1 then swaps s: by the time the swap completes,
        // x=1 is in memory, so T1's `swap s` → read x never sees x=0
        // after losing the race.
        let mut t0 = ThreadBuilder::new();
        t0.write(Loc::new(0), 1u64);
        t0.swap(Reg::new(0), Loc::new(1), Value::new(1));
        t0.halt();
        let mut t1 = ThreadBuilder::new();
        t1.swap(Reg::new(0), Loc::new(1), Value::new(2));
        t1.read(Reg::new(1), Loc::new(0));
        t1.halt();
        let prog = Program::new("rmw-drain", vec![t0.finish(), t1.finish()], 2).unwrap();
        let ex = explore(&TsoMachine, &prog, Limits::default());
        for o in &ex.outcomes {
            // T1's swap read T0's (reg0 = 1): T0's swap already ran, so
            // its earlier buffered x=1 must be visible.
            if o.reg(1, Reg::new(0)) == Value::new(1) {
                assert_eq!(o.reg(1, Reg::new(1)), Value::new(1), "RMW failed to drain: {o}");
            }
        }
    }

    #[test]
    fn outcome_set_is_superset_of_sc() {
        for lit in litmus::all() {
            let sc = explore(&ScMachine, &lit.program, Limits::default());
            let tso = explore(&TsoMachine, &lit.program, Limits::default());
            assert!(tso.outcomes.is_superset(&sc.outcomes), "{}: TSO lost SC outcomes", lit.name);
        }
    }
}

impl Codec for TsoState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.threads.encode(out);
        self.mem.encode(out);
        self.buffers.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(TsoState { threads: Vec::decode(r)?, mem: Vec::decode(r)?, buffers: Vec::decode(r)? })
    }
}
