//! The shared cache-coherent substrate for the cache-based machines.
//!
//! Models the observable essence of the Section 5.2 system: every
//! processor holds a copy of every location (we abstract away capacity
//! misses — the timed simulator in `weakord-coherence` models them), a
//! write bumps the location's global serialization order and updates the
//! writer's copy immediately (*commit*), and an invalidation message to
//! each other copy travels asynchronously; a write is *globally
//! performed* once all its invalidations have been delivered. Writes to
//! one location are totally ordered by version numbers, and a copy only
//! ever moves forward in that order — condition 2 of Section 5.1 holds
//! by construction.
//!
//! Version numbers are renormalized to dense ranks after every mutation
//! so that states reached by value-identical histories (e.g. successive
//! failed spin iterations) compare equal and exploration terminates.
//!
//! The machines over this substrate (cache-delay and the three weakly
//! ordered ones) differ only in how synchronization accesses wait, so
//! they share one successor body, [`successors_into`], parameterized by
//! a [`SyncRule`].

use weakord_core::{Loc, ProcId, Value};
use weakord_progs::{Access, Outcome, Program, ThreadEvent, ThreadState};

use crate::checkpoint::{Codec, DecodeError, Reader};
use crate::machine::{
    advance_skipping_delays_and_fences, outcome_if_halted, pooled_clone, InternalStep, Label,
    OpRecord,
};

/// One cached copy: its position in the location's write order plus the
/// value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Line {
    /// Position in the location's global write serialization order.
    pub version: u32,
    /// The value.
    pub value: Value,
}

/// An undelivered invalidation (update) message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Inv {
    /// Processor whose write generated the invalidation: the write is
    /// globally performed when no `Inv` with this source remains.
    pub source: ProcId,
    /// The cache it must be delivered to.
    pub target: ProcId,
    /// The location.
    pub loc: Loc,
    /// The written line.
    pub line: Line,
}

/// The cache ensemble state.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct CacheState {
    /// `caches[p][loc]`: processor `p`'s copy.
    caches: Vec<Vec<Line>>,
    /// The latest line per location (the tail of the write order).
    latest: Vec<Line>,
    /// Undelivered invalidations, kept sorted for canonical hashing.
    pending: Vec<Inv>,
}

/// Hand-written so `clone_from` reuses the nested buffers (the derived
/// impl's `clone_from` falls back to a fresh clone), making
/// [`crate::machine::pooled_clone`] allocation-free.
impl Clone for CacheState {
    fn clone(&self) -> Self {
        CacheState {
            caches: self.caches.clone(),
            latest: self.latest.clone(),
            pending: self.pending.clone(),
        }
    }
    fn clone_from(&mut self, src: &Self) {
        self.caches.clone_from(&src.caches);
        self.latest.clone_from(&src.latest);
        self.pending.clone_from(&src.pending);
    }
}

impl CacheState {
    /// All copies zeroed, nothing pending.
    pub fn new(n_procs: usize, n_locs: usize) -> Self {
        let zero = Line { version: 0, value: Value::ZERO };
        CacheState {
            caches: vec![vec![zero; n_locs]; n_procs],
            latest: vec![zero; n_locs],
            pending: Vec::new(),
        }
    }

    /// The value processor `p` sees for `loc` (its own copy).
    pub fn read_local(&self, p: ProcId, loc: Loc) -> Value {
        self.caches[p.index()][loc.index()].value
    }

    /// The globally latest value of `loc`.
    pub fn read_latest(&self, loc: Loc) -> Value {
        self.latest[loc.index()].value
    }

    /// A relaxed write: commits to `p`'s own copy and queues
    /// invalidations to every other copy.
    pub fn write_relaxed(&mut self, p: ProcId, loc: Loc, value: Value) {
        let line = Line { version: self.latest[loc.index()].version + 1, value };
        self.latest[loc.index()] = line;
        self.caches[p.index()][loc.index()] = line;
        for q in 0..self.caches.len() {
            if q != p.index() {
                self.pending.push(Inv { source: p, target: ProcId::new(q as u16), loc, line });
            }
        }
        self.canonicalize(loc);
    }

    /// An atomic write: commits and performs globally in one step (all
    /// copies updated, no invalidations queued). Used for strongly
    /// ordered synchronization operations.
    pub fn write_atomic(&mut self, loc: Loc, value: Value) {
        let line = Line { version: self.latest[loc.index()].version + 1, value };
        self.latest[loc.index()] = line;
        for cache in &mut self.caches {
            cache[loc.index()] = line;
        }
        self.canonicalize(loc);
    }

    /// Number of undelivered invalidations.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The pending invalidation messages, in canonical order (so
    /// machines can label the delivery of `pending()[i]` with its
    /// source, target, and location).
    pub fn pending(&self) -> &[Inv] {
        &self.pending
    }

    /// Returns `true` while any write by `p` is not yet globally
    /// performed.
    pub fn source_pending(&self, p: ProcId) -> bool {
        self.pending.iter().any(|i| i.source == p)
    }

    /// Delivers pending invalidation `i` (indexes [`CacheState::pending_len`]).
    /// A message older than the target's copy is acknowledged without
    /// effect (its write was superseded at that copy).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn deliver(&mut self, i: usize) {
        let inv = self.pending.remove(i);
        let slot = &mut self.caches[inv.target.index()][inv.loc.index()];
        if slot.version < inv.line.version {
            *slot = inv.line;
        }
        self.canonicalize(inv.loc);
    }

    /// Renames `loc`'s version numbers to dense ranks, preserving order,
    /// so histories that differ only by superseded writes compare equal,
    /// then restores the pending list's order. Every mutation touches
    /// one location and every other location is dense already, so this
    /// is the whole state's canonical form.
    ///
    /// Allocation-free for any number of copies and messages: each pass
    /// renames the smallest version not yet renamed to the next rank
    /// while finding the one after it. A rank never exceeds the version
    /// it replaces, so renamed entries stay below the versions still
    /// waiting and no entry is renamed twice.
    fn canonicalize(&mut self, loc: Loc) {
        let loc = loc.index();
        let mut next = self.latest[loc].version;
        self.for_each_version(loc, |v| next = next.min(*v));
        let mut rank = 0;
        loop {
            let cur = next;
            let mut above = None;
            self.for_each_version(loc, |v| {
                if *v == cur {
                    *v = rank;
                } else if *v > cur {
                    above = Some(above.map_or(*v, |a: u32| a.min(*v)));
                }
            });
            match above {
                Some(v) => next = v,
                None => break,
            }
            rank += 1;
        }
        self.pending.sort_unstable();
    }

    /// Calls `f` on every version number recorded for `loc`: the latest
    /// line, each copy, and each pending message to it.
    fn for_each_version(&mut self, loc: usize, mut f: impl FnMut(&mut u32)) {
        f(&mut self.latest[loc].version);
        for cache in &mut self.caches {
            f(&mut cache[loc].version);
        }
        for inv in &mut self.pending {
            if inv.loc.index() == loc {
                f(&mut inv.line.version);
            }
        }
    }
}

/// How a substrate machine's synchronization accesses behave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SyncRule {
    /// No synchronization support: sync reads and writes run exactly
    /// like data accesses (the cache-delay machine).
    Oblivious,
    /// Stall the *issuer* until its own accesses are globally performed.
    Def1,
    /// Stall the *next synchronizer* on the reserving processor's
    /// outstanding accesses; `refine_read_only` exempts `Test`s from
    /// reserving.
    Def2 { refine_read_only: bool },
    /// Stall the synchronizer until *no* access by *any* processor is
    /// outstanding (the BNR timestamp scheme).
    GlobalDrain,
}

/// A substrate machine's state, split into the parts the shared
/// successor body works on.
pub(crate) trait SubstrateState: Clone {
    /// The thread states and the cache ensemble.
    fn parts(&self) -> (&[ThreadState], &CacheState);
    /// The same, mutably, plus the per-location reserve owners (empty
    /// for a machine whose rule never reserves).
    fn parts_mut(&mut self) -> (&mut [ThreadState], &mut CacheState, &mut [Option<ProcId>]);
}

/// The one successor body of the substrate machines: every thread's
/// next access under `rule`, then every pending invalidation's delivery.
/// Scratch states come from `pool`, and a sync access its gate disables
/// returns its scratch state there.
pub(crate) fn successors_into<S: SubstrateState>(
    rule: SyncRule,
    prog: &Program,
    state: &S,
    out: &mut Vec<(Label, S)>,
    pool: &mut Vec<S>,
) {
    let (threads, cache) = state.parts();
    for (t, ts) in threads.iter().enumerate() {
        if ts.is_halted() {
            continue;
        }
        let thread = &prog.threads[t];
        let proc = ProcId::new(t as u16);
        let mut next = pooled_clone(pool, state);
        let (threads, cache, last_sync) = next.parts_mut();
        let ThreadEvent::Access(access) =
            advance_skipping_delays_and_fences(&mut threads[t], thread)
        else {
            // The advance reached Halt: keep the halted thread state.
            out.push((Label::Internal(InternalStep::halt(proc)), next));
            continue;
        };
        let kind = access.op_kind();
        let loc = access.loc();
        let sync = access.is_sync() && rule != SyncRule::Oblivious;
        let enabled = !sync
            || match rule {
                SyncRule::Oblivious => true,
                SyncRule::Def1 => !cache.source_pending(proc),
                SyncRule::Def2 { .. } => match last_sync[loc.index()] {
                    Some(owner) if owner != proc => !cache.source_pending(owner),
                    _ => true,
                },
                SyncRule::GlobalDrain => cache.pending_len() == 0,
            };
        if !enabled {
            pool.push(next);
            continue;
        }
        // A synchronization operation's own value management is atomic
        // (commit and global perform coincide); data accesses commit
        // locally with lazy invalidations.
        let record = match access {
            Access::Read { .. } => {
                let v = if sync { cache.read_latest(loc) } else { cache.read_local(proc, loc) };
                threads[t].complete(thread, Some(v));
                OpRecord { proc, kind, loc, read_value: Some(v), written_value: None }
            }
            Access::Write { value, .. } => {
                if sync {
                    cache.write_atomic(loc, value);
                } else {
                    cache.write_relaxed(proc, loc, value);
                }
                threads[t].complete(thread, None);
                OpRecord { proc, kind, loc, read_value: None, written_value: Some(value) }
            }
            // Hardware RMW atomicity holds on every substrate machine.
            Access::Rmw { op, .. } => {
                let old = cache.read_latest(loc);
                let new = op.apply(old);
                cache.write_atomic(loc, new);
                threads[t].complete(thread, Some(old));
                OpRecord { proc, kind, loc, read_value: Some(old), written_value: Some(new) }
            }
        };
        if let SyncRule::Def2 { refine_read_only } = rule {
            if sync && !(refine_read_only && matches!(access, Access::Read { .. })) {
                last_sync[loc.index()] = Some(proc);
            }
        }
        out.push((Label::Op(record), next));
    }
    for (i, inv) in cache.pending().iter().enumerate() {
        let mut next = pooled_clone(pool, state);
        next.parts_mut().1.deliver(i);
        out.push((Label::Internal(InternalStep::deliver(inv.source, inv.target, inv.loc)), next));
    }
}

/// The observable outcome of a substrate state: every thread halted
/// and every invalidation delivered.
pub(crate) fn outcome<S: SubstrateState>(prog: &Program, state: &S) -> Option<Outcome> {
    let (threads, cache) = state.parts();
    if cache.pending_len() > 0 {
        return None;
    }
    outcome_if_halted(threads, || {
        (0..prog.n_locs).map(|l| cache.read_latest(Loc::new(l))).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: ProcId = ProcId::new(0);
    const P1: ProcId = ProcId::new(1);

    fn l(i: u32) -> Loc {
        Loc::new(i)
    }

    #[test]
    fn relaxed_write_commits_locally_only() {
        let mut c = CacheState::new(2, 1);
        c.write_relaxed(P0, l(0), Value::new(1));
        assert_eq!(c.read_local(P0, l(0)), Value::new(1));
        assert_eq!(c.read_local(P1, l(0)), Value::ZERO); // stale copy
        assert_eq!(c.read_latest(l(0)), Value::new(1));
        assert!(c.source_pending(P0));
        assert_eq!(c.pending_len(), 1);
    }

    #[test]
    fn delivery_globally_performs_the_write() {
        let mut c = CacheState::new(2, 1);
        c.write_relaxed(P0, l(0), Value::new(1));
        c.deliver(0);
        assert_eq!(c.read_local(P1, l(0)), Value::new(1));
        assert!(!c.source_pending(P0));
    }

    #[test]
    fn stale_invalidation_is_a_no_op() {
        let mut c = CacheState::new(2, 1);
        c.write_relaxed(P0, l(0), Value::new(1)); // inv to P1 pending
        c.write_atomic(l(0), Value::new(2)); //       supersedes it everywhere
        assert_eq!(c.read_local(P1, l(0)), Value::new(2));
        c.deliver(0); // the old inv arrives late
        assert_eq!(c.read_local(P1, l(0)), Value::new(2), "must not regress");
        assert!(!c.source_pending(P0));
    }

    #[test]
    fn atomic_write_leaves_nothing_pending() {
        let mut c = CacheState::new(3, 2);
        c.write_atomic(l(1), Value::new(5));
        assert_eq!(c.pending_len(), 0);
        for p in 0..3 {
            assert_eq!(c.read_local(ProcId::new(p), l(1)), Value::new(5));
        }
    }

    #[test]
    fn per_location_write_order_is_preserved_per_copy() {
        // Two writes by different procs to one loc; deliveries in any
        // order must leave every copy at the later write.
        let mut a = CacheState::new(2, 1);
        a.write_relaxed(P0, l(0), Value::new(1));
        a.write_relaxed(P1, l(0), Value::new(2));
        // P1's copy already has version of its own write; P0's pending inv
        // to P1 is stale.
        let mut b = a.clone();
        // Order 1: deliver both in list order.
        a.deliver(0);
        a.deliver(0);
        // Order 2: reversed.
        b.deliver(1);
        b.deliver(0);
        assert_eq!(a.read_local(P0, l(0)), b.read_local(P0, l(0)));
        assert_eq!(a.read_local(P1, l(0)), Value::new(2));
    }

    #[test]
    fn canonicalization_makes_identical_histories_equal() {
        // Writing the same value atomically twice must yield a state
        // equal to writing it once (versions renormalize).
        let mut once = CacheState::new(2, 1);
        once.write_atomic(l(0), Value::new(0));
        let mut twice = once.clone();
        twice.write_atomic(l(0), Value::new(0));
        assert_eq!(once, twice);
    }

    /// Dense per-location ranks over *every* location, by sorting: the
    /// reference the in-place single-location pass must reproduce.
    fn reference_canonical(mut c: CacheState) -> CacheState {
        for loc in 0..c.latest.len() {
            let mut versions: Vec<u32> = Vec::new();
            c.for_each_version(loc, |v| versions.push(*v));
            versions.sort_unstable();
            versions.dedup();
            let rank = |v: &mut u32| *v = versions.binary_search(v).expect("present") as u32;
            c.for_each_version(loc, rank);
        }
        c.pending.sort_unstable();
        c
    }

    /// SplitMix64, so the test needs no RNG dependency.
    fn next(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce5_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Canonicalizing the one location a mutation touched gives the
    /// sorted reference's canonical form, for shapes from one copy to
    /// more copies and messages than any machine word has bits.
    #[test]
    fn single_location_canonical_form_matches_the_sorting_reference() {
        let mut seed = 7;
        for case in 0..400 {
            let n_procs = 1 + (next(&mut seed) % if case % 4 == 0 { 80 } else { 5 }) as usize;
            let n_locs = 1 + (next(&mut seed) % 4) as usize;
            let spread = 1 + next(&mut seed) % 200;
            let mut c = CacheState::new(n_procs, n_locs);
            let version = |seed: &mut u64| (next(seed) % spread) as u32;
            for loc in 0..n_locs {
                c.latest[loc].version = version(&mut seed);
                for cache in &mut c.caches {
                    cache[loc] = Line { version: version(&mut seed), value: Value::ZERO };
                }
            }
            for _ in 0..next(&mut seed) % if case % 4 == 0 { 150 } else { 6 } {
                c.pending.push(Inv {
                    source: ProcId::new((next(&mut seed) % n_procs as u64) as u16),
                    target: ProcId::new((next(&mut seed) % n_procs as u64) as u16),
                    loc: l((next(&mut seed) % n_locs as u64) as u32),
                    line: Line {
                        version: version(&mut seed),
                        value: Value::new(next(&mut seed) % 3),
                    },
                });
            }
            // Every location dense but one, as after a mutation.
            let touched = (next(&mut seed) % n_locs as u64) as usize;
            let mut state = reference_canonical(c);
            state.for_each_version(touched, |v| *v = *v * 3 + (next(&mut seed) % 3) as u32);
            let mut got = state.clone();
            got.canonicalize(l(touched as u32));
            assert_eq!(got, reference_canonical(state), "case {case}");
        }
    }
}

// Checkpoint serialization: the fields are private to protect the
// canonicalization invariant, so the codec lives here. Decoding trusts
// the checkpoint checksum for integrity but must never panic; the
// structural invariants (dense versions, sorted pending) hold because
// encoding starts from a canonical state and decoding is structural.
impl Codec for Line {
    fn encode(&self, out: &mut Vec<u8>) {
        self.version.encode(out);
        self.value.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Line { version: u32::decode(r)?, value: Value::decode(r)? })
    }
}

impl Codec for Inv {
    fn encode(&self, out: &mut Vec<u8>) {
        self.source.encode(out);
        self.target.encode(out);
        self.loc.encode(out);
        self.line.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Inv {
            source: ProcId::decode(r)?,
            target: ProcId::decode(r)?,
            loc: Loc::decode(r)?,
            line: Line::decode(r)?,
        })
    }
}

impl Codec for CacheState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.caches.encode(out);
        self.latest.encode(out);
        self.pending.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let caches: Vec<Vec<Line>> = Vec::decode(r)?;
        let latest: Vec<Line> = Vec::decode(r)?;
        let pending: Vec<Inv> = Vec::decode(r)?;
        let n_locs = latest.len();
        if caches.iter().any(|c| c.len() != n_locs) {
            return Err(DecodeError("cache shape mismatch"));
        }
        let n_procs = caches.len();
        if pending.iter().any(|i| i.target.index() >= n_procs || i.loc.index() >= n_locs) {
            return Err(DecodeError("pending message out of range"));
        }
        Ok(CacheState { caches, latest, pending })
    }
}
