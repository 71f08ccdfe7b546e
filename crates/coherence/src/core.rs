//! The in-order processor core.
//!
//! Executes its thread through the shared architectural stepper and
//! hands every shared-memory access to the cache controller, waiting as
//! much — and only as much — as the active [`Policy`] demands. Stall
//! cycles are accounted per cause, which is what the Figure 3
//! reproduction measures.

use weakord_core::{ProcId, Value};
use weakord_obs::Histogram;
use weakord_progs::{Access, Thread, ThreadState};
use weakord_sim::Cycle;

use crate::cache::Notice;
use crate::policy::NackParams;

/// Stall causes tracked per processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StallCause {
    /// Waiting for a read's data to return (plain miss latency).
    ReadMiss,
    /// Definition 1's issuer gate: waiting for the counter to reach
    /// zero before issuing a synchronization operation.
    SyncGate,
    /// Waiting for a synchronization operation to commit (procure the
    /// line exclusive and apply) — the only sync wait under Def. 2.
    SyncCommit,
    /// Waiting for an operation to be globally performed (Def. 1 syncs,
    /// and every access under SC).
    Performed,
    /// Waiting for an earlier transaction on the same line.
    SameLine,
    /// The Section 5.3 miss cap: waiting for the counter so new misses
    /// may issue.
    MissCap,
    /// A fill could not find an eviction victim (reserved lines are
    /// never flushed; other slots were mid-transaction).
    Capacity,
    /// Draining before a context switch (Section 5.1: all reads
    /// returned, all writes globally performed).
    Migration,
    /// Backing off after a NACKed synchronization request before
    /// re-issuing it (the Section 5.1 NACK leg).
    NackRetry,
}

impl StallCause {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            StallCause::ReadMiss => "read-miss",
            StallCause::SyncGate => "sync-gate",
            StallCause::SyncCommit => "sync-commit",
            StallCause::Performed => "performed",
            StallCause::SameLine => "same-line",
            StallCause::MissCap => "miss-cap",
            StallCause::Capacity => "capacity",
            StallCause::Migration => "migration",
            StallCause::NackRetry => "nack-retry",
        }
    }

    /// Every cause, for table headers.
    pub const ALL: [StallCause; 9] = [
        StallCause::ReadMiss,
        StallCause::SyncGate,
        StallCause::SyncCommit,
        StallCause::Performed,
        StallCause::SameLine,
        StallCause::MissCap,
        StallCause::Capacity,
        StallCause::Migration,
        StallCause::NackRetry,
    ];
}

/// Per-processor statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProcStats {
    /// Stall cycles by cause (indexed per [`StallCause::ALL`] order).
    stall: [u64; 9],
    /// Completed memory operations.
    pub ops: u64,
    /// Misses sent to the directory.
    pub misses: u64,
    /// Synchronization requests of this core that were NACKed and
    /// retried.
    pub nack_retries: u64,
    /// Cycle at which this core halted.
    pub halted_at: Option<Cycle>,
    /// Distribution of individual synchronization waits (gate + commit +
    /// perform), for latency analysis beyond the aggregate stall.
    pub sync_wait: Histogram,
}

impl ProcStats {
    fn idx(cause: StallCause) -> usize {
        StallCause::ALL.iter().position(|c| *c == cause).expect("cause listed")
    }

    /// Stall cycles attributed to `cause`.
    pub fn stall(&self, cause: StallCause) -> u64 {
        self.stall[Self::idx(cause)]
    }

    /// Total stall cycles.
    pub fn total_stall(&self) -> u64 {
        self.stall.iter().sum()
    }

    fn add_stall(&mut self, cause: StallCause, cycles: u64) {
        self.stall[Self::idx(cause)] += cycles;
    }
}

/// What the core is waiting for (at most one thing at a time — the core
/// is in-order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Waiting {
    /// A read value for the parked access.
    Value(weakord_core::Loc),
    /// Commit of the parked access; completes the instruction with the
    /// commit's read value.
    Commit(weakord_core::Loc),
    /// Global perform of the parked access. `value_seen` stashes the
    /// read value from the earlier commit notice (RMW under Def. 1/SC).
    Perform {
        loc: weakord_core::Loc,
        value_seen: Option<Value>,
        /// Whether the parked instruction was already completed
        /// architecturally (writes complete at issue).
        instr_done: bool,
    },
    /// Counter-zero gate before re-attempting the parked access.
    CounterZero,
    /// An earlier transaction on this line must retire first.
    LineFree(weakord_core::Loc),
    /// A cache slot must free up (any line retiring or the counter
    /// clearing can create an eviction victim).
    Capacity,
}

/// The core automaton. The machine owns the cache and the event queue;
/// the core only decides *what to wait for*.
#[derive(Debug)]
pub struct Core {
    /// This core's processor id.
    pub proc: ProcId,
    /// Architectural thread state.
    pub ts: ThreadState,
    waiting: Option<(Waiting, StallCause, Cycle)>,
    /// Consecutive NACKs on the current synchronization attempt (feeds
    /// the exponential backoff; reset when any wait completes).
    consecutive_nacks: u32,
    /// The line of the most recent NACK in the current streak (for
    /// stall reports).
    nacked_loc: Option<weakord_core::Loc>,
    /// While `Some`, the core sits out ticks until this cycle before
    /// re-issuing its NACKed synchronization access.
    backoff_until: Option<Cycle>,
    /// Statistics.
    pub stats: ProcStats,
    halted: bool,
}

impl Core {
    /// A fresh core.
    pub fn new(proc: ProcId) -> Self {
        Core {
            proc,
            ts: ThreadState::new(),
            waiting: None,
            consecutive_nacks: 0,
            nacked_loc: None,
            backoff_until: None,
            stats: ProcStats::default(),
            halted: false,
        }
    }

    /// Returns `true` once the thread halted.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Returns `true` while blocked on a notice.
    pub fn is_waiting(&self) -> bool {
        self.waiting.is_some()
    }

    /// Marks the core halted at `now`.
    pub fn set_halted(&mut self, now: Cycle) {
        self.halted = true;
        self.stats.halted_at = Some(now);
    }

    /// Begins a wait.
    pub fn begin_wait(&mut self, what_value: WaitKind, cause: StallCause, now: Cycle) {
        debug_assert!(self.waiting.is_none(), "core already waiting");
        let waiting = match what_value {
            WaitKind::Value(loc) => Waiting::Value(loc),
            WaitKind::Commit(loc) => Waiting::Commit(loc),
            WaitKind::Perform { loc, instr_done } => {
                Waiting::Perform { loc, value_seen: None, instr_done }
            }
            WaitKind::CounterZero => Waiting::CounterZero,
            WaitKind::LineFree(loc) => Waiting::LineFree(loc),
            WaitKind::Capacity => Waiting::Capacity,
        };
        self.waiting = Some((waiting, cause, now));
    }

    /// Feeds a cache notice to the core. Returns `true` if the core
    /// unblocked (the machine should schedule a tick); the core
    /// completes the parked instruction itself where appropriate.
    pub fn on_notice(&mut self, notice: &Notice, thread: &Thread, now: Cycle) -> bool {
        let Some((waiting, cause, since)) = self.waiting else {
            return false;
        };
        let unblock = |core: &mut Core| {
            let waited = now.since(since);
            core.stats.add_stall(cause, waited);
            if matches!(
                cause,
                StallCause::SyncGate | StallCause::SyncCommit | StallCause::Performed
            ) {
                core.stats.sync_wait.record(waited);
            }
            core.waiting = None;
            // The attempt went through: the next NACK streak starts over.
            core.consecutive_nacks = 0;
            core.nacked_loc = None;
        };
        match (waiting, notice) {
            (Waiting::Value(l), Notice::Value { loc, value, .. }) if l == *loc => {
                self.ts.complete(thread, Some(*value));
                self.stats.ops += 1;
                unblock(self);
                true
            }
            (Waiting::Commit(l), Notice::Commit { loc, read_value, .. }) if l == *loc => {
                self.ts.complete(thread, *read_value);
                self.stats.ops += 1;
                unblock(self);
                true
            }
            (
                Waiting::Perform { loc: l, instr_done, .. },
                Notice::Commit { loc, read_value, .. },
            ) if l == *loc => {
                // Stash the commit value; keep waiting for the perform.
                if !instr_done {
                    self.waiting = Some((
                        Waiting::Perform { loc: l, value_seen: *read_value, instr_done },
                        cause,
                        since,
                    ));
                }
                false
            }
            (Waiting::Perform { loc: l, value_seen, instr_done }, Notice::Performed { loc })
                if l == *loc =>
            {
                if !instr_done {
                    self.ts.complete(thread, value_seen);
                }
                self.stats.ops += 1;
                unblock(self);
                true
            }
            (
                Waiting::Perform { loc: l, instr_done, value_seen },
                Notice::Value { loc, value, .. },
            ) if l == *loc => {
                // A pure read under an SC-style perform wait: the value
                // return *is* the perform.
                debug_assert!(value_seen.is_none());
                if !instr_done {
                    self.ts.complete(thread, Some(*value));
                }
                self.stats.ops += 1;
                unblock(self);
                true
            }
            (Waiting::CounterZero, Notice::CounterZero) => {
                unblock(self);
                true
            }
            (Waiting::LineFree(l), Notice::LineFree { loc }) if l == *loc => {
                unblock(self);
                true
            }
            (Waiting::Capacity, Notice::LineFree { .. } | Notice::CounterZero) => {
                unblock(self);
                true
            }
            _ => false,
        }
    }

    /// The reserve holder NACKed this core's outstanding synchronization
    /// access on `loc`: abandon the wait, charge the elapsed time plus
    /// the exponential backoff to [`StallCause::NackRetry`], and report
    /// the backoff delay. Returns `None` if the core was not actually
    /// waiting on `loc` (the machine then ignores the stray NACK).
    ///
    /// The thread state is untouched: a parked access re-issues the same
    /// event on the next [`ThreadState::advance`], which is exactly the
    /// retry.
    pub fn on_nack(
        &mut self,
        loc: weakord_core::Loc,
        params: &NackParams,
        now: Cycle,
    ) -> Option<u64> {
        let Some((waiting, _, since)) = self.waiting else {
            return None;
        };
        let matches_loc = match waiting {
            Waiting::Value(l) | Waiting::Commit(l) => l == loc,
            Waiting::Perform { loc: l, .. } => l == loc,
            Waiting::CounterZero | Waiting::LineFree(_) | Waiting::Capacity => false,
        };
        if !matches_loc {
            return None;
        }
        let delay = params.backoff(self.consecutive_nacks);
        self.consecutive_nacks += 1;
        self.nacked_loc = Some(loc);
        self.stats.nack_retries += 1;
        // Both the abandoned wait and the (deterministic) backoff window
        // are NACK-retry stall.
        self.stats.add_stall(StallCause::NackRetry, now.since(since) + delay);
        self.waiting = None;
        self.backoff_until = Some(now + delay);
        Some(delay)
    }

    /// Returns `true` while the core is sitting out a post-NACK backoff
    /// window (it must not issue; the machine has a retry tick scheduled
    /// for the window's end).
    pub fn in_backoff(&self, now: Cycle) -> bool {
        self.backoff_until.is_some_and(|until| until.since(now) > 0)
    }

    /// Clears an expired backoff window (call at tick time).
    pub fn clear_backoff(&mut self, now: Cycle) {
        if self.backoff_until.is_some_and(|until| until.since(now) == 0) {
            self.backoff_until = None;
        }
    }

    /// What the core is blocked on right now, for stall reports:
    /// `(kind, cause, since)` — `None` when running, halted, or in a
    /// backoff window.
    pub fn wait_summary(&self) -> Option<(WaitKind, StallCause, Cycle)> {
        self.waiting.map(|(waiting, cause, since)| {
            let kind = match waiting {
                Waiting::Value(l) => WaitKind::Value(l),
                Waiting::Commit(l) => WaitKind::Commit(l),
                Waiting::Perform { loc, instr_done, .. } => WaitKind::Perform { loc, instr_done },
                Waiting::CounterZero => WaitKind::CounterZero,
                Waiting::LineFree(l) => WaitKind::LineFree(l),
                Waiting::Capacity => WaitKind::Capacity,
            };
            (kind, cause, since)
        })
    }

    /// The NACK streak on the current attempt (for stall reports).
    pub fn nack_streak(&self) -> u32 {
        self.consecutive_nacks
    }

    /// The line and streak length of an in-progress NACK/retry cycle,
    /// if any (for stall reports).
    pub fn nacked_sync(&self) -> Option<(weakord_core::Loc, u32)> {
        match (self.nacked_loc, self.consecutive_nacks) {
            (Some(loc), n) if n > 0 => Some((loc, n)),
            _ => None,
        }
    }
}

/// What to wait for, as decided by the machine from policy + issue
/// outcome (mirrors [`Waiting`] without the stash fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKind {
    /// Wait for the read value.
    Value(weakord_core::Loc),
    /// Wait for local commit.
    Commit(weakord_core::Loc),
    /// Wait for global perform.
    Perform {
        /// The line.
        loc: weakord_core::Loc,
        /// Whether the instruction already completed architecturally.
        instr_done: bool,
    },
    /// Wait for the counter to reach zero.
    CounterZero,
    /// Wait for the line's outstanding transaction to retire.
    LineFree(weakord_core::Loc),
    /// Wait for a cache slot to become evictable.
    Capacity,
}

/// Classifies the stall cause of a wait decision.
pub fn stall_cause(kind: &WaitKind, access: &Access) -> StallCause {
    match kind {
        WaitKind::Value(_) => StallCause::ReadMiss,
        WaitKind::Commit(_) => StallCause::SyncCommit,
        WaitKind::Perform { .. } => StallCause::Performed,
        WaitKind::CounterZero => {
            if access.is_sync() {
                StallCause::SyncGate
            } else {
                StallCause::MissCap
            }
        }
        WaitKind::LineFree(_) => StallCause::SameLine,
        WaitKind::Capacity => StallCause::Capacity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weakord_core::Loc;
    use weakord_progs::{Reg, ThreadBuilder};

    fn l(i: u32) -> Loc {
        Loc::new(i)
    }

    #[test]
    fn value_wait_completes_the_read() {
        let mut t = ThreadBuilder::new();
        t.read(Reg::new(0), l(0));
        t.halt();
        let thread = t.finish();
        let mut core = Core::new(ProcId::new(0));
        // Park the thread on its read.
        let _ = core.ts.advance(&thread);
        core.begin_wait(WaitKind::Value(l(0)), StallCause::ReadMiss, Cycle::new(5));
        assert!(core.is_waiting());
        // Unrelated notice: ignored.
        assert!(!core.on_notice(
            &Notice::Value { loc: l(1), value: Value::new(9), version: 0 },
            &thread,
            Cycle::new(7)
        ));
        // Matching notice: resumes and records the stall.
        assert!(core.on_notice(
            &Notice::Value { loc: l(0), value: Value::new(3), version: 0 },
            &thread,
            Cycle::new(25)
        ));
        assert!(!core.is_waiting());
        assert_eq!(core.ts.reg(Reg::new(0)), Value::new(3));
        assert_eq!(core.stats.stall(StallCause::ReadMiss), 20);
        assert_eq!(core.stats.ops, 1);
    }

    #[test]
    fn perform_wait_stashes_commit_value() {
        let mut t = ThreadBuilder::new();
        t.test_and_set(Reg::new(1), l(0));
        t.halt();
        let thread = t.finish();
        let mut core = Core::new(ProcId::new(0));
        let _ = core.ts.advance(&thread);
        core.begin_wait(
            WaitKind::Perform { loc: l(0), instr_done: false },
            StallCause::Performed,
            Cycle::new(0),
        );
        assert!(!core.on_notice(
            &Notice::Commit { loc: l(0), read_value: Some(Value::ZERO), version: 1 },
            &thread,
            Cycle::new(10)
        ));
        assert!(core.is_waiting());
        assert!(core.on_notice(&Notice::Performed { loc: l(0) }, &thread, Cycle::new(30)));
        assert_eq!(core.ts.reg(Reg::new(1)), Value::ZERO);
        assert_eq!(core.stats.stall(StallCause::Performed), 30);
    }

    #[test]
    fn counter_zero_wait() {
        let thread = ThreadBuilder::new().finish();
        let mut core = Core::new(ProcId::new(0));
        core.begin_wait(WaitKind::CounterZero, StallCause::SyncGate, Cycle::new(0));
        assert!(!core.on_notice(&Notice::LineFree { loc: l(0) }, &thread, Cycle::new(1)));
        assert!(core.on_notice(&Notice::CounterZero, &thread, Cycle::new(8)));
        assert_eq!(core.stats.stall(StallCause::SyncGate), 8);
    }

    #[test]
    fn nack_abandons_the_wait_and_backs_off_exponentially() {
        let mut t = ThreadBuilder::new();
        t.test_and_set(Reg::new(0), l(0));
        t.halt();
        let thread = t.finish();
        let mut core = Core::new(ProcId::new(0));
        let params = NackParams { budget: 4, base_backoff: 8, max_exponent: 6 };
        let ev_first = core.ts.advance(&thread);
        core.begin_wait(WaitKind::Commit(l(0)), StallCause::SyncCommit, Cycle::new(0));
        // A NACK for another line is a no-op.
        assert_eq!(core.on_nack(l(9), &params, Cycle::new(4)), None);
        assert!(core.is_waiting());
        // The real NACK abandons the wait with the base backoff.
        assert_eq!(core.on_nack(l(0), &params, Cycle::new(10)), Some(8));
        assert!(!core.is_waiting());
        assert!(core.in_backoff(Cycle::new(10)));
        assert!(core.in_backoff(Cycle::new(17)));
        assert!(!core.in_backoff(Cycle::new(18)));
        core.clear_backoff(Cycle::new(18));
        assert_eq!(core.stats.nack_retries, 1);
        assert_eq!(core.stats.stall(StallCause::NackRetry), 10 + 8);
        // The parked access re-issues the *same* event on retry.
        assert_eq!(core.ts.advance(&thread), ev_first);
        // A second consecutive NACK doubles the backoff…
        core.begin_wait(WaitKind::Commit(l(0)), StallCause::SyncCommit, Cycle::new(18));
        assert_eq!(core.on_nack(l(0), &params, Cycle::new(20)), Some(16));
        // …and a completed wait resets the streak.
        core.clear_backoff(Cycle::new(100));
        core.begin_wait(WaitKind::Commit(l(0)), StallCause::SyncCommit, Cycle::new(100));
        assert!(core.on_notice(
            &Notice::Commit { loc: l(0), read_value: Some(Value::ZERO), version: 1 },
            &thread,
            Cycle::new(110)
        ));
        assert_eq!(core.nack_streak(), 0);
    }

    #[test]
    fn stall_cause_classification() {
        let sync = Access::Write { loc: l(0), value: Value::new(1), sync: true };
        let data = Access::Read { loc: l(0), sync: false };
        assert_eq!(stall_cause(&WaitKind::CounterZero, &sync), StallCause::SyncGate);
        assert_eq!(stall_cause(&WaitKind::CounterZero, &data), StallCause::MissCap);
        assert_eq!(stall_cause(&WaitKind::Value(l(0)), &data), StallCause::ReadMiss);
        assert_eq!(stall_cause(&WaitKind::Commit(l(0)), &sync), StallCause::SyncCommit);
        assert_eq!(
            stall_cause(&WaitKind::Perform { loc: l(0), instr_done: true }, &sync),
            StallCause::Performed
        );
        assert_eq!(stall_cause(&WaitKind::LineFree(l(0)), &data), StallCause::SameLine);
    }
}
