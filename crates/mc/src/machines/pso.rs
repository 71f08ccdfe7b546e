//! Partial store ordering: TSO with the global store-buffer FIFO
//! relaxed to one FIFO *per location*. Data writes to different
//! locations may reach memory in either order (W→W is relaxed on top
//! of TSO's W→R), while same-location writes stay ordered, preserving
//! coherence. Fences, synchronization accesses and atomic
//! read-modify-writes still drain all of the issuer's buffers and
//! execute against memory — the SPARC PSO discipline (STBAR).

use std::collections::VecDeque;

use weakord_core::{Loc, ProcId, Value};

use crate::checkpoint::{Codec, DecodeError, Reader};
use weakord_progs::{Access, Outcome, Program, ThreadEvent, ThreadState};

use crate::machine::{
    advance_skipping_delays, outcome_if_halted, pooled_clone, DeliveryClass, InternalStep, Label,
    Machine, OpRecord, ReductionClass, SyncGate,
};

/// The PSO machine. Strictly weaker than [`crate::machines::TsoMachine`]
/// (any global-FIFO drain schedule is also a legal per-location
/// schedule) and strictly stronger than the cache-substrate machines:
/// memory itself is still one atomic array, so stores are multi-copy
/// atomic and IRIW-style splits remain impossible.
#[derive(Debug, Clone, Copy, Default)]
pub struct PsoMachine;

/// State of [`PsoMachine`]: per-processor, **per-location** FIFO write
/// buffers. Indexing by location (rather than one deque of tagged
/// entries) makes states canonical: two interleavings that buffered the
/// same writes to different locations in different orders are the same
/// hardware configuration.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct PsoState {
    /// Architectural thread states.
    pub threads: Vec<ThreadState>,
    /// Memory behind the buffers.
    pub mem: Vec<Value>,
    /// `buffers[proc][loc]` is the FIFO of values `proc` has written to
    /// `loc` that have not yet reached memory.
    pub buffers: Vec<Vec<VecDeque<Value>>>,
}

impl PsoState {
    fn buffers_empty(&self, t: usize) -> bool {
        self.buffers[t].iter().all(VecDeque::is_empty)
    }
}

/// Hand-written so `clone_from` reuses the nested buffer allocations
/// (the derived impl's `clone_from` falls back to a fresh clone):
/// overwriting a recycled state is then a handful of memcpys, which is
/// what makes [`Machine::successors_into`]'s pooling worthwhile.
impl Clone for PsoState {
    fn clone(&self) -> Self {
        PsoState {
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

impl Machine for PsoMachine {
    type State = PsoState;

    fn name(&self) -> &'static str {
        "pso"
    }

    fn initial(&self, prog: &Program) -> PsoState {
        PsoState {
            threads: weakord_progs::initial_threads(prog),
            mem: vec![Value::ZERO; prog.n_locs as usize],
            buffers: vec![vec![VecDeque::new(); prog.n_locs as usize]; prog.n_procs()],
        }
    }

    fn successors_into(
        &self,
        prog: &Program,
        state: &PsoState,
        out: &mut Vec<(Label, PsoState)>,
        pool: &mut Vec<PsoState>,
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
                    // STBAR/MFENCE: waits for every per-location buffer
                    // of the issuer to drain.
                    if !next.buffers_empty(t) {
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
            // waits for all of the issuer's buffers and bypasses them.
            if access.is_sync() && !next.buffers_empty(t) {
                pool.push(next);
                continue;
            }
            let proc = ProcId::new(t as u16);
            let kind = access.op_kind();
            let loc = access.loc();
            match access {
                Access::Read { sync, .. } => {
                    // Store→load forwarding from the newest buffered
                    // write to the same location.
                    let v = if sync {
                        next.mem[loc.index()]
                    } else {
                        next.buffers[t][loc.index()]
                            .back()
                            .copied()
                            .unwrap_or(next.mem[loc.index()])
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
                        next.buffers[t][loc.index()].push_back(value);
                    }
                    next.threads[t].complete(thread, None);
                    let rec =
                        OpRecord { proc, kind, loc, read_value: None, written_value: Some(value) };
                    out.push((Label::Op(rec), next));
                }
                Access::Rmw { op, .. } => {
                    // Buffers already drained (is_sync gate above).
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
        // Per-location buffer drains: any non-empty (proc, loc) FIFO
        // may retire its oldest write to memory.
        for t in 0..state.buffers.len() {
            for l in 0..state.buffers[t].len() {
                if state.buffers[t][l].is_empty() {
                    continue;
                }
                let mut next = pooled_clone(pool, state);
                let v = next.buffers[t][l].pop_front().expect("non-empty");
                next.mem[l] = v;
                let loc = Loc::new(l as u32);
                out.push((Label::Internal(InternalStep::drain(ProcId::new(t as u16), loc)), next));
            }
        }
    }

    fn outcome(&self, _prog: &Program, state: &PsoState) -> Option<Outcome> {
        if !(0..state.buffers.len()).all(|t| state.buffers_empty(t)) {
            return None;
        }
        outcome_if_halted(&state.threads, || state.mem.clone())
    }

    fn threads<'a>(&self, state: &'a PsoState) -> &'a [ThreadState] {
        &state.threads
    }

    fn reduction_class(&self) -> ReductionClass {
        // Identical argument to TSO: all gating is on the issuer's own
        // buffers; drains write the single shared memory.
        ReductionClass { sync_gate: SyncGate::None, delivery: DeliveryClass::Memory }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, Limits};
    use crate::machines::{ScMachine, TsoMachine};
    use weakord_core::Loc;
    use weakord_progs::{litmus, Reg, ThreadBuilder};

    #[test]
    fn mp_violation_is_possible() {
        // The flag write may drain before the data write: the W→W
        // relaxation TSO forbids.
        let lit = litmus::mp();
        let ex = explore(&PsoMachine, &lit.program, Limits::default());
        assert!(ex.outcomes.iter().any(|o| (lit.non_sc)(o)), "PSO must allow stale-data MP");
        assert_eq!(ex.deadlocks, 0);
    }

    #[test]
    fn fenced_mp_is_sequentially_consistent() {
        // W data; STBAR; W flag ‖ R flag; R data.
        let mut t0 = ThreadBuilder::new();
        t0.write(Loc::new(0), 42u64);
        t0.fence();
        t0.write(Loc::new(1), 1u64);
        t0.halt();
        let mut t1 = ThreadBuilder::new();
        t1.read(Reg::new(0), Loc::new(1));
        t1.read(Reg::new(1), Loc::new(0));
        t1.halt();
        let prog = Program::new("mp+fence", vec![t0.finish(), t1.finish()], 2).unwrap();
        let pso = explore(&PsoMachine, &prog, Limits::default());
        let sc = explore(&ScMachine, &prog, Limits::default());
        assert_eq!(pso.outcomes, sc.outcomes, "a fence between the writes restores SC");
    }

    #[test]
    fn sync_mp_is_sequentially_consistent() {
        let lit = litmus::mp_sync();
        let ex = explore(&PsoMachine, &lit.program, Limits::default());
        assert!(ex.outcomes.iter().all(|o| !(lit.non_sc)(o)), "PSO honors Set/Test ordering");
    }

    #[test]
    fn same_location_writes_stay_coherent() {
        // CoWW/CoRR: the per-location FIFO forbids reordering x=1, x=2.
        let lit = litmus::coherence_corr();
        let ex = explore(&PsoMachine, &lit.program, Limits::default());
        assert!(ex.outcomes.iter().all(|o| !(lit.non_sc)(o)), "PSO broke per-location coherence");
    }

    #[test]
    fn iriw_split_stays_forbidden() {
        // Memory is one atomic array: stores are multi-copy atomic, so
        // the two readers cannot disagree on the write order.
        let lit = litmus::iriw();
        let ex = explore(&PsoMachine, &lit.program, Limits::default());
        assert!(ex.outcomes.iter().all(|o| !(lit.non_sc)(o)), "PSO must forbid the IRIW split");
    }

    #[test]
    fn outcome_set_contains_tso_and_sc() {
        // The Definition 2 containment chain, machine-pair by pair.
        for lit in litmus::all() {
            let sc = explore(&ScMachine, &lit.program, Limits::default());
            let tso = explore(&TsoMachine, &lit.program, Limits::default());
            let pso = explore(&PsoMachine, &lit.program, Limits::default());
            assert!(tso.outcomes.is_subset(&pso.outcomes), "{}: TSO ⊄ PSO", lit.name);
            assert!(sc.outcomes.is_subset(&pso.outcomes), "{}: SC ⊄ PSO", lit.name);
        }
    }
}

impl Codec for PsoState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.threads.encode(out);
        self.mem.encode(out);
        self.buffers.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(PsoState { threads: Vec::decode(r)?, mem: Vec::decode(r)?, buffers: Vec::decode(r)? })
    }
}
