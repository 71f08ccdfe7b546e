//! The store-buffer machines: per-processor queues of pending writes in
//! front of one atomic memory. Figure 1's write-buffer hardware
//! (configurations 1 and 3), its network without caches (configuration
//! 2), and SPARC's TSO and PSO are one family. They differ only in
//! whether synchronization accesses and fences order the queue and in
//! whether writes to different locations retire in order, so one
//! successor body serves all four, steered by a private `Rule`:
//!
//! | machine | syncs are ordering points | fences wait | retire order | an RMW waits for |
//! |---|---|---|---|---|
//! | write-buffer | no | yes | one FIFO | all own pending writes |
//! | tso | yes | yes | one FIFO | all own pending writes |
//! | pso | yes | yes | per location | all own pending writes |
//! | net-reorder | no | no (skipped) | per location | own pending writes to its location |
//!
//! Every machine forwards a read from the issuer's newest pending write
//! to the same location. Memory itself is one array, so a retired write
//! is visible to every processor at once: stores are multi-copy atomic
//! and IRIW-style splits stay impossible on all four.

use weakord_core::{Loc, ProcId, Value};
use weakord_progs::{Access, Outcome, Program, Thread, ThreadEvent, ThreadState};

use crate::checkpoint::{Codec, DecodeError, Reader};
use crate::machine::{
    advance_skipping_delays, advance_skipping_delays_and_fences, outcome_if_halted, pooled_clone,
    DeliveryClass, InternalStep, Label, Machine, OpRecord, ReductionClass, SyncGate,
};

/// Figure 1, configurations 1 and 3: processors with FIFO write
/// buffers in front of an otherwise atomic memory ("reads are allowed
/// to pass writes in write buffers"). The violation arises the same way
/// on a shared bus without caches and on a coherent bus — the coherent
/// ensemble behaves like one atomic memory — so one model covers both.
///
/// Writes enter the issuer's FIFO buffer and drain to memory
/// asynchronously; reads consult the own buffer first (store
/// forwarding) and otherwise bypass buffered writes to read memory
/// directly. Read-modify-writes drain the buffer and execute
/// atomically. This hardware has **no** synchronization support beyond
/// RMW atomicity: `Test`/`Set` behave like data accesses. It does honor
/// an explicit fence, which waits for the issuer's buffer to drain.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteBufferMachine;

/// Total store ordering: the write-buffer hardware plus an architecture
/// that *recognizes* ordering primitives — the SPARC/x86 discipline
/// ("Time, Fences and the Ordering of Events in TSO"). Unlike
/// [`WriteBufferMachine`], `Test`/`Set`/RMW and fences are full
/// ordering points: each waits for the issuer's buffer to drain and
/// then performs against memory atomically. The only relaxation left is
/// a data read bypassing the issuer's earlier buffered data writes
/// (W→R), so DRF0 programs appear sequentially consistent (Definition 2
/// holds) while racy Dekker/SB shapes still break.
#[derive(Debug, Clone, Copy, Default)]
pub struct TsoMachine;

/// Partial store ordering: [`TsoMachine`] with the global store-buffer
/// FIFO relaxed to one FIFO *per location* — the SPARC PSO discipline
/// (STBAR). Data writes to different locations may reach memory in
/// either order (W→W is relaxed on top of TSO's W→R), while
/// same-location writes stay ordered, preserving coherence. Strictly
/// weaker than TSO (any global-FIFO drain schedule is also a legal
/// per-location schedule) and strictly stronger than the cache-substrate
/// machines, whose stores are not multi-copy atomic.
#[derive(Debug, Clone, Copy, Default)]
pub struct PsoMachine;

/// Figure 1, configuration 2: no caches, a general interconnection
/// network between processors and memory modules. Accesses are *issued
/// in program order* but can "reach memory modules in a different
/// order" (Lamport's original observation).
///
/// Writes travel as in-flight messages that arrive at memory in any
/// order, except that messages from one processor to one location stay
/// ordered (they follow the same path to the same module). Reads
/// consult the own in-flight writes to the same location (the module
/// serves them in path order) and otherwise return the current memory
/// value. An RMW waits only for the issuer's in-flight writes to its
/// location. No synchronization support beyond RMW atomicity, and no
/// fences: the network cannot report that a processor's writes arrived.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetReorderMachine;

/// State of the four store-buffer machines. `Q` is one processor's
/// queue of pending writes: `Vec<(Loc, Value)>` in issue order for the
/// write-buffer, TSO and net-reorder machines, and for PSO a
/// `Vec<Vec<Value>>` holding one FIFO of values per location. Indexing
/// PSO's queue by location makes its states canonical: two
/// interleavings that buffered the same writes to different locations
/// in different orders are the same hardware configuration.
///
/// The FIFOs are `Vec`s, not `VecDeque`s: they hold a few entries, so
/// retiring the oldest is a short shift, while every successor clones
/// every queue, and a `Vec` clones by one copy. Both encode the same
/// bytes.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct SbState<Q> {
    /// Architectural thread states.
    pub threads: Vec<ThreadState>,
    /// Memory behind the queues.
    pub mem: Vec<Value>,
    /// Per-processor queues of pending writes. Ordering operations on a
    /// machine that honors them never enter a queue.
    pub buffers: Vec<Q>,
}

/// Hand-written so `clone_from` reuses the queue allocations (the
/// derived impl's `clone_from` falls back to a fresh clone), making
/// [`Machine::successors_into`]'s state recycling allocation-free.
impl<Q: Clone> Clone for SbState<Q> {
    fn clone(&self) -> Self {
        SbState {
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

/// Implements [`Codec`] for the state over one queue layout. The impls
/// are concrete so they compile in this crate: a generic impl is
/// instantiated anew in each crate that runs the explorer, where
/// encoding and decoding PSO states measured 15–20% slower (2-vCPU
/// x86-64 VM), enough to pull `explore_bench`'s largest shape below
/// its floor.
macro_rules! state_codec {
    ($queue:ty) => {
        impl Codec for SbState<$queue> {
            fn encode(&self, out: &mut Vec<u8>) {
                self.threads.encode(out);
                self.mem.encode(out);
                self.buffers.encode(out);
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok(SbState {
                    threads: Vec::decode(r)?,
                    mem: Vec::decode(r)?,
                    buffers: Vec::decode(r)?,
                })
            }
        }
    };
}

state_codec!(Vec<(Loc, Value)>);
state_codec!(Vec<Vec<Value>>);

/// One processor's pending writes, in either of [`SbState`]'s layouts.
/// A *slot* is a queue entry in the issue-order layout and a location
/// in the per-location one.
trait Pending: Clone {
    /// An empty queue for a program with `n_locs` locations.
    fn empty(n_locs: usize) -> Self;
    /// Whether no write is pending.
    fn drained(&self) -> bool;
    /// The newest pending value for `loc`, for store→load forwarding.
    fn latest(&self, loc: Loc) -> Option<Value>;
    /// Appends a write.
    fn enqueue(&mut self, loc: Loc, value: Value);
    /// The number of slots a write may retire from: only the head of
    /// one FIFO, or every slot when writes retire per location.
    fn slots(&self, per_location: bool) -> usize;
    /// Whether slot `i` holds the oldest pending write to its location.
    fn retirable(&self, i: usize) -> bool;
    /// Removes and returns the oldest write in slot `i`.
    fn retire(&mut self, i: usize) -> (Loc, Value);
}

impl Pending for Vec<(Loc, Value)> {
    fn empty(_n_locs: usize) -> Self {
        Vec::new()
    }
    fn drained(&self) -> bool {
        self.is_empty()
    }
    fn latest(&self, loc: Loc) -> Option<Value> {
        self.iter().rev().find(|(l, _)| *l == loc).map(|&(_, v)| v)
    }
    fn enqueue(&mut self, loc: Loc, value: Value) {
        self.push((loc, value));
    }
    fn slots(&self, per_location: bool) -> usize {
        if per_location {
            self.len()
        } else {
            self.len().min(1)
        }
    }
    fn retirable(&self, i: usize) -> bool {
        let loc = self[i].0;
        !self[..i].iter().any(|(l, _)| *l == loc)
    }
    fn retire(&mut self, i: usize) -> (Loc, Value) {
        self.remove(i)
    }
}

impl Pending for Vec<Vec<Value>> {
    fn empty(n_locs: usize) -> Self {
        vec![Vec::new(); n_locs]
    }
    fn drained(&self) -> bool {
        self.iter().all(Vec::is_empty)
    }
    fn latest(&self, loc: Loc) -> Option<Value> {
        self[loc.index()].last().copied()
    }
    fn enqueue(&mut self, loc: Loc, value: Value) {
        self[loc.index()].push(value);
    }
    fn slots(&self, _per_location: bool) -> usize {
        self.len()
    }
    fn retirable(&self, i: usize) -> bool {
        !self[i].is_empty()
    }
    fn retire(&mut self, i: usize) -> (Loc, Value) {
        (Loc::new(i as u32), self[i].remove(0))
    }
}

/// What sets one store-buffer machine apart: the columns of the table
/// in the module doc.
#[derive(Clone, Copy)]
struct Rule {
    /// Sync accesses are ordering points: each waits for the issuer's
    /// queue to drain, and a sync write then goes straight to memory.
    syncs: bool,
    /// The issuer can wait for its queue to drain: fences wait for it,
    /// and so does every RMW. Without it fences complete at once, and
    /// an RMW waits only for the issuer's pending writes to its own
    /// location.
    fences: bool,
    /// Writes to different locations retire in any order; writes to
    /// one location still retire in issue order.
    per_location: bool,
}

/// The one successor body: thread steps for `t = 0..n` in order, then
/// each processor's retirements in slot order.
fn successors_into<Q: Pending>(
    rule: Rule,
    prog: &Program,
    state: &SbState<Q>,
    out: &mut Vec<(Label, SbState<Q>)>,
    pool: &mut Vec<SbState<Q>>,
) {
    for t in 0..state.threads.len() {
        if state.threads[t].is_halted() {
            continue;
        }
        let (thread, proc) = (&prog.threads[t], ProcId::new(t as u16));
        let mut next = pooled_clone(pool, state);
        let event = if rule.fences {
            advance_skipping_delays(&mut next.threads[t], thread)
        } else {
            advance_skipping_delays_and_fences(&mut next.threads[t], thread)
        };
        let label = match event {
            ThreadEvent::Access(access) => {
                perform(rule, &mut next, t, thread, access).map(Label::Op)
            }
            // A fence completes, touching nothing, once the issuer's
            // queue has drained.
            ThreadEvent::Fence if next.buffers[t].drained() => {
                next.threads[t].complete(thread, None);
                Some(Label::Internal(InternalStep::fence(proc)))
            }
            ThreadEvent::Fence => None,
            // The advance reached Halt: keep the halted thread state.
            _ => Some(Label::Internal(InternalStep::halt(proc))),
        };
        match label {
            Some(label) => out.push((label, next)),
            None => pool.push(next),
        }
    }
    for (t, queue) in state.buffers.iter().enumerate() {
        for i in (0..queue.slots(rule.per_location)).filter(|&i| queue.retirable(i)) {
            let mut next = pooled_clone(pool, state);
            let (loc, v) = next.buffers[t].retire(i);
            next.mem[loc.index()] = v;
            out.push((Label::Internal(InternalStep::drain(ProcId::new(t as u16), loc)), next));
        }
    }
}

/// Performs processor `t`'s `access` in `s`, or returns `None` if it
/// must first wait for pending writes to retire.
fn perform<Q: Pending>(
    rule: Rule,
    s: &mut SbState<Q>,
    t: usize,
    thread: &Thread,
    access: Access,
) -> Option<OpRecord> {
    let (loc, queue) = (access.loc(), &s.buffers[t]);
    let waits = match access {
        Access::Rmw { .. } if !rule.fences => queue.latest(loc).is_some(),
        Access::Rmw { .. } => !queue.drained(),
        _ => rule.syncs && access.is_sync() && !queue.drained(),
    };
    if waits {
        return None;
    }
    let mem = &mut s.mem[loc.index()];
    let (read, written) = match access {
        Access::Read { .. } => (Some(s.buffers[t].latest(loc).unwrap_or(*mem)), None),
        Access::Write { value, sync, .. } => {
            if rule.syncs && sync {
                *mem = value;
            } else {
                s.buffers[t].enqueue(loc, value);
            }
            (None, Some(value))
        }
        // The queue has drained as far as the RMW needs: lock the bus
        // (or the module) and update memory atomically.
        Access::Rmw { op, .. } => {
            let old = *mem;
            *mem = op.apply(old);
            (Some(old), Some(*mem))
        }
    };
    s.threads[t].complete(thread, read);
    let proc = ProcId::new(t as u16);
    Some(OpRecord { proc, kind: access.op_kind(), loc, read_value: read, written_value: written })
}

/// Implements [`Machine`] for a store-buffer machine from its name,
/// queue layout and [`Rule`].
macro_rules! store_buffer_machine {
    ($machine:ty, $name:literal, $queue:ty, $rule:expr) => {
        impl Machine for $machine {
            type State = SbState<$queue>;

            fn name(&self) -> &'static str {
                $name
            }

            fn initial(&self, prog: &Program) -> Self::State {
                SbState {
                    threads: weakord_progs::initial_threads(prog),
                    mem: vec![Value::ZERO; prog.n_locs as usize],
                    buffers: vec![<$queue>::empty(prog.n_locs as usize); prog.n_procs()],
                }
            }

            fn successors_into(
                &self,
                prog: &Program,
                state: &Self::State,
                out: &mut Vec<(Label, Self::State)>,
                pool: &mut Vec<Self::State>,
            ) {
                successors_into($rule, prog, state, out, pool);
            }

            fn outcome(&self, _prog: &Program, state: &Self::State) -> Option<Outcome> {
                if !state.buffers.iter().all(Pending::drained) {
                    return None;
                }
                outcome_if_halted(&state.threads, || state.mem.clone())
            }

            fn threads<'a>(&self, state: &'a Self::State) -> &'a [ThreadState] {
                &state.threads
            }

            fn reduction_class(&self) -> ReductionClass {
                // Every wait is on the issuer's *own* queue (a
                // same-processor dependence); retirements write the
                // single shared memory.
                ReductionClass { sync_gate: SyncGate::None, delivery: DeliveryClass::Memory }
            }
        }
    };
}

store_buffer_machine!(
    WriteBufferMachine,
    "write-buffer",
    Vec<(Loc, Value)>,
    Rule { syncs: false, fences: true, per_location: false }
);
store_buffer_machine!(
    TsoMachine,
    "tso",
    Vec<(Loc, Value)>,
    Rule { syncs: true, fences: true, per_location: false }
);
store_buffer_machine!(
    PsoMachine,
    "pso",
    Vec<Vec<Value>>,
    Rule { syncs: true, fences: true, per_location: true }
);
store_buffer_machine!(
    NetReorderMachine,
    "net-reorder",
    Vec<(Loc, Value)>,
    Rule { syncs: false, fences: false, per_location: true }
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, Exploration, Limits};
    use crate::machines::ScMachine;
    use weakord_progs::{litmus, Reg, ThreadBuilder};

    const ALL: [&str; 4] = ["write-buffer", "tso", "pso", "net-reorder"];

    /// Explores `prog` on the machine named `name`.
    fn on(name: &str, prog: &Program) -> Exploration {
        crate::with_machine!(name, |m| explore(&m, prog, Limits::default()),
            other => unreachable!("`{other}` is not a machine"))
    }

    #[test]
    fn dekker_violation_is_possible() {
        let lit = litmus::fig1_dekker();
        for name in ALL {
            let ex = on(name, &lit.program);
            assert!(ex.outcomes.iter().any(|o| (lit.non_sc)(o)), "{name} must allow Figure 1");
            assert_eq!(ex.deadlocks, 0, "{name}");
        }
    }

    #[test]
    fn mp_is_forbidden_by_fifo_buffers() {
        // FIFO drain order preserves the data-before-flag order, so the
        // stale-data outcome is impossible (TSO behaviour).
        let lit = litmus::mp();
        for name in ["write-buffer", "tso"] {
            let ex = on(name, &lit.program);
            assert!(ex.outcomes.iter().all(|o| !(lit.non_sc)(o)), "{name} keeps W→W order");
        }
    }

    #[test]
    fn mp_violation_is_possible() {
        // The flag write may reach memory before the data write: the
        // W→W relaxation the FIFO machines forbid.
        let lit = litmus::mp();
        for name in ["pso", "net-reorder"] {
            let ex = on(name, &lit.program);
            assert!(ex.outcomes.iter().any(|o| (lit.non_sc)(o)), "{name} must allow stale-data MP");
            assert_eq!(ex.deadlocks, 0, "{name}");
        }
    }

    #[test]
    fn store_forwarding_sees_own_buffered_write() {
        let mut t = ThreadBuilder::new();
        t.write(Loc::new(0), 9u64);
        t.read(Reg::new(0), Loc::new(0));
        t.halt();
        let prog = Program::new("fwd", vec![t.finish()], 1).unwrap();
        for name in ALL {
            for o in &on(name, &prog).outcomes {
                assert_eq!(o.reg(0, Reg::new(0)), Value::new(9), "{name}");
            }
        }
    }

    #[test]
    fn outcome_set_is_superset_of_sc() {
        // Weakening hardware only adds behaviours, and PSO only weakens
        // TSO: the Definition 2 containment chain, pair by pair.
        for lit in litmus::all() {
            let sc = explore(&ScMachine, &lit.program, Limits::default());
            for name in ALL {
                let ex = on(name, &lit.program);
                assert!(
                    ex.outcomes.is_superset(&sc.outcomes),
                    "{}: {name} lost SC outcomes",
                    lit.name
                );
            }
            let tso = on("tso", &lit.program);
            assert!(
                tso.outcomes.is_subset(&on("pso", &lit.program).outcomes),
                "{}: TSO ⊄ PSO",
                lit.name
            );
        }
    }

    #[test]
    fn fenced_dekker_is_sequentially_consistent() {
        // W x; MFENCE; R y on both sides: the W→R relaxation is gone on
        // every machine whose fences wait, and stays on the network,
        // whose fences order nothing.
        let mk = |w: u32, r: u32| {
            let mut t = ThreadBuilder::new();
            t.write(Loc::new(w), 1u64);
            t.fence();
            t.read(Reg::new(0), Loc::new(r));
            t.halt();
            t.finish()
        };
        let prog = Program::new("sb+fences", vec![mk(0, 1), mk(1, 0)], 2).unwrap();
        let sc = explore(&ScMachine, &prog, Limits::default());
        for name in ["write-buffer", "tso", "pso"] {
            let ex = on(name, &prog);
            assert_eq!(ex.deadlocks, 0, "{name}");
            assert_eq!(ex.outcomes, sc.outcomes, "fences must restore SC on SB ({name})");
        }
        assert!(on("net-reorder", &prog).outcomes.len() > sc.outcomes.len());
    }

    #[test]
    fn sync_dekker_is_sequentially_consistent() {
        // Where the sync-oblivious write buffer breaks dekker-sync, TSO
        // honors Set/Test as ordering points.
        let lit = litmus::dekker_sync();
        let tso = on("tso", &lit.program);
        assert!(tso.outcomes.iter().all(|o| !(lit.non_sc)(o)));
        let wb = on("write-buffer", &lit.program);
        assert!(wb.outcomes.iter().any(|o| (lit.non_sc)(o)), "wb is the sync-oblivious contrast");
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
        for o in &on("tso", &prog).outcomes {
            // T1's swap read T0's (reg0 = 1): T0's swap already ran, so
            // its earlier buffered x=1 must be visible.
            if o.reg(1, Reg::new(0)) == Value::new(1) {
                assert_eq!(o.reg(1, Reg::new(1)), Value::new(1), "RMW failed to drain: {o}");
            }
        }
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
        let sc = explore(&ScMachine, &prog, Limits::default());
        assert_eq!(
            on("pso", &prog).outcomes,
            sc.outcomes,
            "a fence between the writes restores SC"
        );
    }

    #[test]
    fn sync_mp_is_sequentially_consistent() {
        let lit = litmus::mp_sync();
        let ex = on("pso", &lit.program);
        assert!(ex.outcomes.iter().all(|o| !(lit.non_sc)(o)), "PSO honors Set/Test ordering");
    }

    #[test]
    fn same_location_writes_stay_coherent() {
        // CoWW/CoRR: the per-location FIFO forbids reordering x=1, x=2.
        let lit = litmus::coherence_corr();
        for name in ["pso", "net-reorder"] {
            let ex = on(name, &lit.program);
            assert!(ex.outcomes.iter().all(|o| !(lit.non_sc)(o)), "{name} broke coherence");
        }
    }

    #[test]
    fn iriw_split_stays_forbidden() {
        // Memory is one atomic array: stores are multi-copy atomic, so
        // the two readers cannot disagree on the write order.
        let lit = litmus::iriw();
        for name in ALL {
            let ex = on(name, &lit.program);
            assert!(ex.outcomes.iter().all(|o| !(lit.non_sc)(o)), "{name} must forbid the split");
        }
    }
}
