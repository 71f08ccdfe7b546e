//! Streaming, vector-clock based data-race detection.
//!
//! Section 4 of the paper points at Netzer & Miller's work on detecting
//! races in executions; this module provides an online detector in that
//! tradition (a djit⁺-style algorithm over full vector clocks). It
//! processes an idealized execution one operation at a time and reports
//! accesses that conflict with an earlier access not ordered by
//! happens-before.
//!
//! The detector agrees with the pairwise checker [`crate::check_drf`]
//! on whether an execution is race-free (property-tested), but runs in
//! `O(n · P)` instead of examining all pairs. Its caller outside tests
//! is the program-level classifier (`weakord_mc::check_program_drf`),
//! which keeps one detector per search depth and refills it with
//! `clone_from` at every step; the clocks therefore live flat in a few
//! vectors that a refill copies without allocating.

use std::fmt;

use crate::exec::IdealizedExecution;
use crate::hb::HbMode;
use crate::ids::{Loc, OpId, ProcId};
use crate::op::MemOp;

/// Which earlier access class a racy operation collided with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessClass {
    /// An earlier ordinary data read.
    DataRead,
    /// An earlier ordinary data write.
    DataWrite,
    /// An earlier synchronization read component.
    SyncRead,
    /// An earlier synchronization write component.
    SyncWrite,
}

impl fmt::Display for AccessClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessClass::DataRead => "data read",
            AccessClass::DataWrite => "data write",
            AccessClass::SyncRead => "sync read",
            AccessClass::SyncWrite => "sync write",
        };
        f.write_str(s)
    }
}

/// A race found by the online detector: `op` conflicted with some
/// earlier access of class `against` on `loc` that does not happen-before
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RaceEvent {
    /// The later access (the one being processed when the race surfaced).
    pub op: OpId,
    /// The issuing processor of `op`.
    pub proc: ProcId,
    /// The contested location.
    pub loc: Loc,
    /// The class of the earlier, unordered access.
    pub against: AccessClass,
}

impl fmt::Display for RaceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} by {} on {} races with an earlier {}",
            self.op, self.proc, self.loc, self.against
        )
    }
}

// A location's five access clocks, in this order, each `n_procs` wide.
const DATA_READS: usize = 0;
const DATA_WRITES: usize = 1;
const SYNC_READS: usize = 2;
const SYNC_WRITES: usize = 3;
const RELEASE: usize = 4;
const SLOTS: usize = 5;

/// Online happens-before race detector.
///
/// Feed operations in completion order with [`RaceDetector::observe`];
/// collect findings from [`RaceDetector::races`] or run a whole
/// execution with [`detect_races`].
///
/// # Examples
///
/// ```
/// use weakord_core::{detect_races, ExecBuilder, HbMode, Loc, ProcId, Value};
/// let mut b = ExecBuilder::new(2);
/// b.data_write(ProcId::new(0), Loc::new(0), Value::new(1));
/// b.data_read(ProcId::new(1), Loc::new(0));
/// let races = detect_races(&b.finish()?, HbMode::Drf0);
/// assert_eq!(races.len(), 1);
/// # Ok::<(), weakord_core::ExecError>(())
/// ```
#[derive(Debug)]
pub struct RaceDetector {
    mode: HbMode,
    n_procs: usize,
    /// Processor `p`'s vector clock is `clocks[p * n_procs..][..n_procs]`.
    /// Its own component `p` counts the operations `p` has issued: no
    /// other clock ever exceeds that count in component `p`.
    clocks: Vec<u32>,
    /// Every location observed so far, sorted. `locs[i]` owns
    /// `slots[i * SLOTS * n_procs..][..SLOTS * n_procs]`.
    locs: Vec<Loc>,
    /// Per location, the joined stamps of its data reads, data writes,
    /// sync reads and sync writes, then its release clock. An all-zero
    /// clock means no such access yet: every stamp is nonzero in its
    /// own processor's component, and a zero clock is below every
    /// stamp, so it never reports a race.
    slots: Vec<u32>,
    races: Vec<RaceEvent>,
}

/// Hand-written so `clone_from` reuses every buffer (the derived impl's
/// `clone_from` clones fresh), which lets the program-level classifier
/// refill one detector per search depth without allocating.
impl Clone for RaceDetector {
    fn clone(&self) -> Self {
        RaceDetector {
            mode: self.mode,
            n_procs: self.n_procs,
            clocks: self.clocks.clone(),
            locs: self.locs.clone(),
            slots: self.slots.clone(),
            races: self.races.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.mode = src.mode;
        self.n_procs = src.n_procs;
        self.clocks.clone_from(&src.clocks);
        self.locs.clone_from(&src.locs);
        self.slots.clone_from(&src.slots);
        self.races.clone_from(&src.races);
    }
}

impl RaceDetector {
    /// Creates a detector for `n_procs` processors under `mode`.
    pub fn new(n_procs: usize, mode: HbMode) -> Self {
        RaceDetector {
            mode,
            n_procs,
            clocks: vec![0; n_procs * n_procs],
            locs: Vec::new(),
            slots: Vec::new(),
            races: Vec::new(),
        }
    }

    /// Races found so far, in the order surfaced.
    pub fn races(&self) -> &[RaceEvent] {
        &self.races
    }

    /// Returns `true` if no race has surfaced yet.
    pub fn is_race_free(&self) -> bool {
        self.races.is_empty()
    }

    /// Processes the next completed operation. `op.id` is used only for
    /// reporting; `op.proc`, `op.kind` and `op.loc` drive the analysis.
    ///
    /// # Panics
    ///
    /// Panics if `op.proc` is out of range for the declared processor
    /// count.
    pub fn observe(&mut self, op: &MemOp) {
        let n = self.n_procs;
        let p = op.proc.index();
        assert!(p < n, "RaceDetector::observe: processor out of range");
        let is_sync = op.is_sync();
        // Every sync joins the location's release clock; under DRF1 the
        // clock only accumulates write-component syncs (below).
        let acquires = is_sync;
        let releases = match self.mode {
            HbMode::Drf0 => is_sync,
            HbMode::Drf1 => is_sync && op.kind.has_write(),
        };
        let at = self.slots_of(op.loc);
        let state = &mut self.slots[at..at + SLOTS * n];
        let clock = &mut self.clocks[p * n..(p + 1) * n];
        // Acquire before stamping.
        if acquires {
            join(clock, &state[RELEASE * n..][..n]);
        }
        clock[p] += 1;
        let stamp = &*clock;

        // Under DRF1, sync-sync pairs on a location are exempt from race
        // reporting (the refined model deliberately leaves e.g. two Tests
        // unordered); under DRF0 the acquire above already ordered them,
        // so checking sync clocks is harmless either way.
        let check_sync_peers = self.mode == HbMode::Drf0 || !is_sync;
        let has_write = op.kind.has_write();
        for (slot, against, checked) in [
            (DATA_WRITES, AccessClass::DataWrite, true),
            (SYNC_WRITES, AccessClass::SyncWrite, check_sync_peers),
            (DATA_READS, AccessClass::DataRead, has_write),
            (SYNC_READS, AccessClass::SyncRead, has_write && check_sync_peers),
        ] {
            if checked && !le(&state[slot * n..][..n], stamp) {
                self.races.push(RaceEvent { op: op.id, proc: op.proc, loc: op.loc, against });
            }
        }
        // Update access clocks.
        if op.kind.has_read() {
            let slot = if is_sync { SYNC_READS } else { DATA_READS };
            join(&mut state[slot * n..][..n], stamp);
        }
        if has_write {
            let slot = if is_sync { SYNC_WRITES } else { DATA_WRITES };
            join(&mut state[slot * n..][..n], stamp);
        }
        if releases {
            join(&mut state[RELEASE * n..][..n], stamp);
        }
    }

    /// Offset of `loc`'s clocks in `slots`, inserting zero clocks in its
    /// sorted place on first sight. Location indices are sparse (the
    /// augmentation location is `u32::MAX`), so they are not offsets.
    fn slots_of(&mut self, loc: Loc) -> usize {
        let width = SLOTS * self.n_procs;
        let i = self.locs.binary_search(&loc).unwrap_or_else(|i| {
            self.locs.insert(i, loc);
            self.slots.splice(i * width..i * width, std::iter::repeat_n(0, width));
            i
        });
        i * width
    }
}

/// Pointwise maximum of `into` and `from`.
fn join(into: &mut [u32], from: &[u32]) {
    for (a, b) in into.iter_mut().zip(from) {
        *a = (*a).max(*b);
    }
}

/// Returns `true` if `a ≤ b` pointwise.
fn le(a: &[u32], b: &[u32]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

/// Runs the detector over a whole idealized execution and returns the
/// races found. The execution is **not** augmented; pass
/// `exec.augment()` to include initial/final-state ordering.
pub fn detect_races(exec: &IdealizedExecution, mode: HbMode) -> Vec<RaceEvent> {
    let mut d = RaceDetector::new(exec.n_procs(), mode);
    for op in exec.ops() {
        d.observe(op);
    }
    d.races
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drf0::check_drf_preaugmented;
    use crate::exec::ExecBuilder;
    use crate::ids::Value;

    const P0: ProcId = ProcId::new(0);
    const P1: ProcId = ProcId::new(1);

    fn loc(i: u32) -> Loc {
        Loc::new(i)
    }

    #[test]
    fn clean_handoff_is_race_free() {
        let (x, s) = (loc(0), loc(1));
        let mut b = ExecBuilder::new(2);
        b.data_write(P0, x, Value::new(1));
        b.sync_rmw(P0, s);
        b.sync_rmw(P1, s);
        b.data_read(P1, x);
        assert!(detect_races(&b.finish().unwrap(), HbMode::Drf0).is_empty());
    }

    #[test]
    fn unsynchronized_conflict_reported() {
        let x = loc(0);
        let mut b = ExecBuilder::new(2);
        b.data_write(P0, x, Value::new(1));
        b.data_read(P1, x);
        let races = detect_races(&b.finish().unwrap(), HbMode::Drf0);
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].against, AccessClass::DataWrite);
        assert_eq!(races[0].op, OpId::new(1));
    }

    #[test]
    fn read_then_write_race_reported_on_the_write() {
        let x = loc(0);
        let mut b = ExecBuilder::new(2);
        b.data_read(P0, x);
        b.data_write(P1, x, Value::new(1));
        let races = detect_races(&b.finish().unwrap(), HbMode::Drf0);
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].against, AccessClass::DataRead);
    }

    #[test]
    fn syncs_on_same_location_never_race() {
        let s = loc(0);
        let mut b = ExecBuilder::new(3);
        b.sync_rmw(P0, s);
        b.sync_rmw(P1, s);
        b.sync_write(ProcId::new(2), s);
        for mode in [HbMode::Drf0, HbMode::Drf1] {
            assert!(detect_races(&b.clone().finish().unwrap(), mode).is_empty(), "{mode:?}");
        }
    }

    #[test]
    fn sync_vs_data_on_same_location_races() {
        let x = loc(0);
        let mut b = ExecBuilder::new(2);
        b.data_write(P0, x, Value::new(1));
        b.sync_rmw(P1, x);
        let races = detect_races(&b.finish().unwrap(), HbMode::Drf0);
        assert!(!races.is_empty());
    }

    #[test]
    fn drf1_read_only_sync_does_not_release() {
        let (x, s) = (loc(0), loc(1));
        let mut b = ExecBuilder::new(2);
        b.data_write(P0, x, Value::new(1));
        b.sync_read(P0, s);
        b.sync_rmw(P1, s);
        b.data_read(P1, x);
        let e = b.finish().unwrap();
        assert!(detect_races(&e, HbMode::Drf0).is_empty());
        assert_eq!(detect_races(&e, HbMode::Drf1).len(), 1);
    }

    #[test]
    fn detector_agrees_with_pairwise_checker_on_figures() {
        for (exec, racy) in
            [(crate::figures::figure_2a(), false), (crate::figures::figure_2b(), true)]
        {
            {
                let mode = HbMode::Drf0;
                let aug = exec.augment();
                let pairwise = check_drf_preaugmented(&aug, mode);
                let online = detect_races(&aug, mode);
                assert_eq!(pairwise.is_race_free(), online.is_empty());
                assert_eq!(online.is_empty(), !racy);
            }
        }
    }

    #[test]
    fn same_processor_sequences_never_race() {
        let x = loc(0);
        let mut b = ExecBuilder::new(1);
        b.data_write(P0, x, Value::new(1));
        b.data_read(P0, x);
        b.data_write(P0, x, Value::new(2));
        b.sync_rmw(P0, x);
        assert!(detect_races(&b.finish().unwrap(), HbMode::Drf0).is_empty());
    }

    #[test]
    fn race_event_display() {
        let x = loc(0);
        let mut b = ExecBuilder::new(2);
        b.data_write(P0, x, Value::new(1));
        b.data_read(P1, x);
        let races = detect_races(&b.finish().unwrap(), HbMode::Drf0);
        assert!(races[0].to_string().contains("races with an earlier data write"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn observe_rejects_unknown_processor() {
        let mut d = RaceDetector::new(1, HbMode::Drf0);
        d.observe(&MemOp::data_read(P1, loc(0)));
    }
}
