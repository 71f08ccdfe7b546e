//! The operational machine-model interface.
//!
//! A [`Machine`] is a nondeterministic transition system over program
//! states: the memory system decides *when* issued accesses become
//! visible, and exhaustive exploration of those decisions (see
//! [`crate::explore`]) yields every observable [`Outcome`] the hardware
//! can produce for a program. Definition 2's "appears sequentially
//! consistent" then becomes a set-inclusion check against the
//! interleaving machine.

use std::fmt;
use std::hash::Hash;

use crate::checkpoint::Codec;

use weakord_core::{Loc, OpKind, ProcId, Value};
use weakord_progs::{Outcome, Program, ThreadEvent, ThreadState};

/// A memory operation as completed by a machine transition, for trace
/// reconstruction and debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// Issuing processor.
    pub proc: ProcId,
    /// Operation kind.
    pub kind: OpKind,
    /// Location accessed.
    pub loc: Loc,
    /// Value the read component returned, if any.
    pub read_value: Option<Value>,
    /// Value the write component stored, if any.
    pub written_value: Option<Value>,
}

impl fmt::Display for OpRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.proc)?;
        match self.kind {
            OpKind::DataRead => write!(f, "R({})", self.loc)?,
            OpKind::SyncRead => write!(f, "Test({})", self.loc)?,
            OpKind::DataWrite => write!(f, "W({})", self.loc)?,
            OpKind::SyncWrite => write!(f, "Set({})", self.loc)?,
            OpKind::SyncRmw => write!(f, "RMW({})", self.loc)?,
        }
        if let Some(v) = self.read_value {
            write!(f, " -> {v}")?;
        }
        if let Some(v) = self.written_value {
            write!(f, " <- {v}")?;
        }
        Ok(())
    }
}

/// Which hardware queue an internal transition serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InternalKind {
    /// A thread ran off the end of its instruction stream.
    Halt,
    /// A buffered or in-flight write reached shared memory.
    Drain,
    /// An invalidation/update message was applied at a remote copy.
    Deliver,
    /// A full memory fence completed (the issuer's queues were empty).
    Fence,
}

/// An internal hardware step, carrying enough of the serviced message
/// to print a meaningful trace line and to compute a [`Footprint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternalStep {
    /// Processor whose queue was serviced: the write's *source* for
    /// drains and deliveries, the halting thread for
    /// [`InternalKind::Halt`].
    pub proc: ProcId,
    /// Remote processor whose copy the message updated
    /// ([`InternalKind::Deliver`] only).
    pub target: Option<ProcId>,
    /// Location the step touched, if any.
    pub loc: Option<Loc>,
    /// Which kind of queue was serviced.
    pub kind: InternalKind,
}

impl InternalStep {
    /// A thread-halt step for `proc`.
    pub fn halt(proc: ProcId) -> Self {
        InternalStep { proc, target: None, loc: None, kind: InternalKind::Halt }
    }

    /// A buffer/network drain of `proc`'s write to `loc` into memory.
    pub fn drain(proc: ProcId, loc: Loc) -> Self {
        InternalStep { proc, target: None, loc: Some(loc), kind: InternalKind::Drain }
    }

    /// Completion of `proc`'s full memory fence. Touches no location:
    /// the fence's ordering force lives entirely in its enabledness
    /// condition (the issuer's own queues must be empty).
    pub fn fence(proc: ProcId) -> Self {
        InternalStep { proc, target: None, loc: None, kind: InternalKind::Fence }
    }

    /// Delivery of `source`'s write to `loc` at `target`'s copy.
    pub fn deliver(source: ProcId, target: ProcId, loc: Loc) -> Self {
        InternalStep {
            proc: source,
            target: Some(target),
            loc: Some(loc),
            kind: InternalKind::Deliver,
        }
    }
}

/// What one transition did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// A thread's memory operation completed architecturally.
    Op(OpRecord),
    /// An internal hardware step (write-buffer drain, in-flight message
    /// delivery, invalidation application, thread halt).
    Internal(InternalStep),
}

impl Label {
    /// The conflict-relevant shape of this transition, for the
    /// partial-order reduction's independence relation
    /// (see [`crate::Reduction::Ample`]).
    pub fn footprint(&self) -> Footprint {
        match *self {
            Label::Op(rec) => Footprint {
                proc: rec.proc,
                loc: Some(rec.loc),
                writes: rec.written_value.is_some(),
                sync: matches!(rec.kind, OpKind::SyncRead | OpKind::SyncWrite | OpKind::SyncRmw),
                internal: false,
            },
            Label::Internal(step) => Footprint {
                proc: step.proc,
                loc: step.loc,
                writes: step.loc.is_some(),
                sync: false,
                internal: true,
            },
        }
    }
}

/// The conflict-relevant shape of one transition, as used by the
/// independence relation of the partial-order reduction. Derived from
/// the paper's conflict predicate: two operations conflict when they
/// touch the same location and at least one writes, and program order
/// makes same-processor steps dependent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footprint {
    /// Processor the step belongs to (the source, for internal steps).
    pub proc: ProcId,
    /// The single location touched, if any (halts touch none).
    pub loc: Option<Loc>,
    /// Whether the step has a write component (drains and deliveries
    /// propagate a write, so they count).
    pub writes: bool,
    /// Whether the step is a synchronization access (sync ops may be
    /// gated on queue contents, so they carry extra dependences).
    pub sync: bool,
    /// Whether the step is an internal queue service rather than an
    /// architectural thread operation.
    pub internal: bool,
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Op(rec) => rec.fmt(f),
            Label::Internal(step) => match step.kind {
                InternalKind::Halt => write!(f, "(internal: {} halts)", step.proc),
                InternalKind::Drain => match step.loc {
                    Some(loc) => write!(f, "(internal: {} drains {} to memory)", step.proc, loc),
                    None => write!(f, "(internal: {} drains)", step.proc),
                },
                InternalKind::Deliver => match (step.loc, step.target) {
                    (Some(loc), Some(target)) => write!(
                        f,
                        "(internal: {}'s write to {} delivered at {})",
                        step.proc, loc, target
                    ),
                    _ => write!(f, "(internal: delivery from {})", step.proc),
                },
                InternalKind::Fence => write!(f, "(internal: {} fence completes)", step.proc),
            },
        }
    }
}

/// How strongly a machine gates its synchronization accesses on queue
/// contents, for the partial-order reduction's dependence analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncGate {
    /// Sync accesses never wait on *other* processors' queues (they may
    /// wait on the issuer's own, which is a same-processor dependence
    /// the reduction already accounts for).
    None,
    /// A sync access to `l` may wait for the queue of the processor
    /// that last synchronized on `l` (Definition 2's per-location
    /// ownership gate).
    ReserveOwner,
    /// A sync access waits for *all* queues to drain (the
    /// baseline-necessary-requirements machine's global gate).
    GlobalDrain,
}

/// What a non-halt internal transition (drain/delivery) affects, for
/// the partial-order reduction's dependence analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryClass {
    /// The step writes the single shared memory (write-buffer drains,
    /// network deliveries): it conflicts with any other access or
    /// pending delivery to the same location.
    Memory,
    /// The step updates only the *target* processor's private copy
    /// (cache-substrate invalidation delivery): versioned application
    /// makes deliveries mutually commutative, so the only dependence is
    /// the target's own local reads of that location.
    TargetCopy {
        /// Whether the machine serves sync *reads* from the local copy
        /// too (the cache-delay machine does; the weak-ordering
        /// machines read sync accesses from the latest value).
        sync_reads_local: bool,
    },
}

/// A machine's self-description for the partial-order reduction: which
/// dependences its internal steps and sync gating introduce beyond the
/// plain location-conflict relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReductionClass {
    /// How sync accesses are gated on other processors' queues.
    pub sync_gate: SyncGate,
    /// What the machine's drain/delivery transitions affect.
    pub delivery: DeliveryClass,
}

impl ReductionClass {
    /// The safest assumption: sync accesses may wait on any queue, and
    /// internal steps write shared memory. Sound for every machine in
    /// this crate; machines override with something sharper.
    pub fn conservative() -> Self {
        ReductionClass { sync_gate: SyncGate::GlobalDrain, delivery: DeliveryClass::Memory }
    }
}

/// An operational model of a multiprocessor memory system.
///
/// States must be canonical (`Eq`/`Hash` identify genuinely identical
/// configurations) so exploration can deduplicate them.
///
/// The `Sync` supertrait and the `Send + Sync` state bounds let the
/// parallel explorer ([`crate::explore`]) share one machine across its
/// worker threads and move states between their frontiers. Machine
/// implementations and their states are plain data (no interior
/// mutability, no shared handles), so both bounds auto-derive.
pub trait Machine: Sync {
    /// The machine's state: thread states plus memory-system contents.
    ///
    /// The [`Codec`] bound is what lets the parallel explorer store
    /// every admitted state *encoded* (one compact heap block instead
    /// of a boxed clone), spill encoded states to disk under a memory
    /// budget, and checkpoint/resume runs. Codec round-trip identity
    /// (`decode(encode(s)) == s`, pinned by the checkpoint tests) makes
    /// the encoding injective, which keeps dedup-by-encoded-bytes
    /// semantically exact.
    type State: Clone + Eq + Hash + fmt::Debug + Send + Sync + Codec;

    /// Short display name, e.g. `"sc"` or `"wo-def2"`.
    fn name(&self) -> &'static str;

    /// The initial state for a program (threads at instruction 0, memory
    /// zeroed, all queues empty).
    fn initial(&self, prog: &Program) -> Self::State;

    /// Appends every enabled transition from `state` to `out` (cleared
    /// by the caller), drawing scratch states from `pool`. An empty set
    /// on a non-final state is a deadlock.
    ///
    /// Implementations take every successor from `pool` (this crate's
    /// machines through a `pooled_clone` helper) — overwriting a
    /// recycled state in place reuses its heap allocations, turning each
    /// successor clone into a field copy — and push every scratch state
    /// they abandon (a disabled transition) back. `pool` may hold states
    /// of any shape, from any program: a successor must not depend on
    /// what it was cloned over.
    ///
    /// This pays off for callers that *discard* most successor states:
    /// the parallel explorer keeps admitted states encoded (a flat byte
    /// block), so every decoded successor it is handed flows back into
    /// the pool and the per-arc allocation chain disappears. Engines
    /// that retain owned states call [`Machine::successors`].
    fn successors_into(
        &self,
        prog: &Program,
        state: &Self::State,
        out: &mut Vec<(Label, Self::State)>,
        pool: &mut Vec<Self::State>,
    );

    /// [`Machine::successors_into`] with an empty pool: every successor
    /// is a fresh clone.
    fn successors(&self, prog: &Program, state: &Self::State, out: &mut Vec<(Label, Self::State)>) {
        self.successors_into(prog, state, out, &mut Vec::new());
    }

    /// Returns the observable outcome if `state` is terminal: all
    /// threads halted *and* all internal queues drained (every write
    /// performed everywhere).
    fn outcome(&self, prog: &Program, state: &Self::State) -> Option<Outcome>;

    /// The per-thread interpreter states inside `state`, so generic
    /// analyses (the partial-order reduction's future-footprint lookup)
    /// can see each thread's program counter and halt status.
    fn threads<'a>(&self, state: &'a Self::State) -> &'a [ThreadState];

    /// The machine's dependence self-description for the partial-order
    /// reduction. The default is sound for any machine whose internal
    /// steps write shared memory and whose sync accesses gate on queue
    /// contents; machines with sharper structure override it.
    fn reduction_class(&self) -> ReductionClass {
        ReductionClass::conservative()
    }
}

/// Pops a recycled state from `pool` and overwrites it with `src` via
/// `clone_from` — reusing its heap allocations — or clones fresh when
/// the pool is dry. The workhorse of [`Machine::successors_into`]:
/// every machine state has a hand-written `clone_from` that reuses its
/// nested buffers (the derived one clones fresh), which makes this
/// allocation-free in steady state.
pub fn pooled_clone<S: Clone>(pool: &mut Vec<S>, src: &S) -> S {
    match pool.pop() {
        Some(mut s) => {
            s.clone_from(src);
            s
        }
        None => src.clone(),
    }
}

/// Advances a thread, transparently completing `Delay` events (they are
/// timing artifacts with no semantic content for exhaustive
/// exploration). Returns the next real event.
pub fn advance_skipping_delays(
    ts: &mut ThreadState,
    thread: &weakord_progs::Thread,
) -> ThreadEvent {
    loop {
        match ts.advance(thread) {
            ThreadEvent::Delay(_) => ts.complete(thread, None),
            other => return other,
        }
    }
}

/// Like [`advance_skipping_delays`], but also completes `Fence` events
/// immediately. For machines on which every write is globally performed
/// at issue (atomic memory) or that predate fences entirely (the
/// Definition 1/2 cache substrates and the unordered interconnect
/// models), a fence orders nothing and is architecturally invisible.
/// Machines with store buffers must **not** use this: their fences gate
/// on buffer contents.
pub fn advance_skipping_delays_and_fences(
    ts: &mut ThreadState,
    thread: &weakord_progs::Thread,
) -> ThreadEvent {
    loop {
        match ts.advance(thread) {
            ThreadEvent::Delay(_) | ThreadEvent::Fence => ts.complete(thread, None),
            other => return other,
        }
    }
}

/// Builds an [`Outcome`] from halted thread states and a final-memory
/// snapshot. Returns `None` unless every thread has halted, without
/// calling `memory`: explorers ask every state they expand, so a
/// non-terminal state must cost no allocation.
pub fn outcome_if_halted(
    threads: &[ThreadState],
    memory: impl FnOnce() -> Vec<Value>,
) -> Option<Outcome> {
    threads.iter().all(ThreadState::is_halted).then(|| Outcome {
        regs: threads.iter().map(ThreadState::regs).collect(),
        memory: memory(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakord_progs::{Access, Reg, ThreadBuilder};

    #[test]
    fn delays_are_skipped() {
        let mut t = ThreadBuilder::new();
        t.delay(10);
        t.delay(20);
        t.read(Reg::new(0), Loc::new(0));
        t.halt();
        let thread = t.finish();
        let mut ts = ThreadState::new();
        match advance_skipping_delays(&mut ts, &thread) {
            ThreadEvent::Access(Access::Read { .. }) => {}
            e => panic!("unexpected {e:?}"),
        }
    }

    /// Pins the internal-step display format: witness traces must say
    /// *which* queue drained where, not an opaque "delivery/drain".
    #[test]
    fn internal_labels_name_their_queue() {
        let p0 = ProcId::new(0);
        let p1 = ProcId::new(1);
        let x = Loc::new(0);
        assert_eq!(Label::Internal(InternalStep::halt(p1)).to_string(), "(internal: P1 halts)");
        assert_eq!(
            Label::Internal(InternalStep::drain(p0, x)).to_string(),
            "(internal: P0 drains loc0 to memory)"
        );
        assert_eq!(
            Label::Internal(InternalStep::deliver(p0, p1, x)).to_string(),
            "(internal: P0's write to loc0 delivered at P1)"
        );
    }

    #[test]
    fn footprints_classify_ops_and_internals() {
        let rec = OpRecord {
            proc: ProcId::new(2),
            kind: OpKind::SyncRmw,
            loc: Loc::new(3),
            read_value: Some(Value::ZERO),
            written_value: Some(Value::new(1)),
        };
        let f = Label::Op(rec).footprint();
        assert!(f.sync && f.writes && !f.internal);
        assert_eq!(f.loc, Some(Loc::new(3)));
        let h = Label::Internal(InternalStep::halt(ProcId::new(0))).footprint();
        assert!(h.internal && !h.writes && h.loc.is_none());
        let d = Label::Internal(InternalStep::deliver(ProcId::new(0), ProcId::new(1), Loc::new(2)))
            .footprint();
        assert!(d.internal && d.writes && !d.sync);
        assert_eq!(d.proc, ProcId::new(0));
    }

    #[test]
    fn outcome_requires_all_halted() {
        let mut t = ThreadBuilder::new();
        t.halt();
        let thread = t.finish();
        let mut halted = ThreadState::new();
        assert_eq!(halted.advance(&thread), ThreadEvent::Halted);
        let running = ThreadState::new();
        assert!(outcome_if_halted(&[halted.clone()], Vec::new).is_some());
        assert!(outcome_if_halted(&[halted, running], || unreachable!("not terminal")).is_none());
    }
}
