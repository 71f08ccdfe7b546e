//! Protocol-level fuzzing: drive the cache controllers and the
//! directory directly with randomly scheduled accesses and message
//! deliveries (no cores, no clock), and check the protocol's safety
//! invariants after every step:
//!
//! * **single-writer**: at most one cache holds a line exclusive;
//! * **version monotonicity**: a copy's write-order version never goes
//!   backwards (write serialization, condition 2 of Section 5.1);
//! * **drain**: once accesses stop, delivering everything quiesces the
//!   directory, drains every counter, and leaves all copies of each
//!   line at the same, latest version.

use weakord_coherence::{CacheCtl, Dest, IssueOutcome, Msg, Notice, Policy};
use weakord_core::{Loc, ProcId, Value};
use weakord_progs::{Access, RmwOp};
use weakord_sim::{check_cases, SimRng};

const N_PROCS: usize = 3;
const N_LOCS: u32 = 3;

/// One scripted step of the fuzz run.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Cache `proc` issues an access to `loc`.
    Issue { proc: usize, loc: u32, kind: u8 },
    /// Deliver the in-flight message at (index % len).
    Deliver { index: usize },
}

/// An issue or a delivery with equal odds.
fn random_step(rng: &mut SimRng) -> Step {
    if rng.chance(0.5) {
        Step::Issue {
            proc: rng.range(0..=N_PROCS as u64 - 1) as usize,
            loc: rng.range(0..=u64::from(N_LOCS) - 1) as u32,
            kind: rng.range(0..=3) as u8,
        }
    } else {
        Step::Deliver { index: rng.range(0..=63) as usize }
    }
}

struct Harness {
    caches: Vec<CacheCtl>,
    dir: weakord_coherence::Directory,
    /// In-flight messages: (destination cache or directory, message).
    wires: Vec<(Option<usize>, Msg)>,
    /// Highest version ever observed per (cache, loc) via notices.
    floor: Vec<Vec<u64>>,
    /// Condition 4 of Section 5.1: a processor generates no new access
    /// until its previous synchronization operation has committed.
    sync_pending: Vec<Option<Loc>>,
}

impl Harness {
    fn new(policy: Policy) -> Self {
        Harness {
            caches: (0..N_PROCS)
                .map(|p| CacheCtl::with_capacity(ProcId::new(p as u16), policy, None))
                .collect(),
            dir: weakord_coherence::Directory::new(N_LOCS as usize),
            wires: Vec::new(),
            floor: vec![vec![0; N_LOCS as usize]; N_PROCS],
            sync_pending: vec![None; N_PROCS],
        }
    }

    fn route(&mut self, from: usize, out: Vec<(Dest, Msg)>) {
        for (dest, msg) in out {
            match dest {
                Dest::Dir => self.wires.push((None, msg)),
                Dest::Cache(q) => self.wires.push((Some(q.index()), msg)),
            }
        }
        let _ = from;
    }

    fn check_notices(&mut self, p: usize, notices: &[Notice]) {
        for n in notices {
            if let Notice::Commit { loc, .. } = *n {
                if self.sync_pending[p] == Some(loc) {
                    self.sync_pending[p] = None;
                }
            }
            // The Section 5.1 NACK leg: the fill was aborted by a
            // reserve holder. The access never committed, so the
            // processor is free to issue again (the harness's analog of
            // retry-after-backoff).
            if let Notice::Nacked { loc } = *n {
                if self.sync_pending[p] == Some(loc) {
                    self.sync_pending[p] = None;
                }
            }
            let (loc, version) = match *n {
                Notice::Value { loc, version, .. } | Notice::Commit { loc, version, .. } => {
                    (loc, version)
                }
                _ => continue,
            };
            let f = &mut self.floor[p][loc.index()];
            assert!(version >= *f, "cache {p} saw version {version} after {} on {loc}", *f);
            *f = version;
        }
    }

    fn issue(&mut self, p: usize, loc: Loc, kind: u8) {
        // Condition 4: nothing issues while a sync is uncommitted.
        if self.sync_pending[p].is_some() {
            return;
        }
        let access = match kind {
            0 => Access::Read { loc, sync: false },
            1 => Access::Write { loc, value: Value::new(u64::from(kind) + 1), sync: false },
            2 => Access::Rmw { loc, op: RmwOp::TestAndSet },
            _ => Access::Write { loc, value: Value::new(9), sync: true },
        };
        let mut out = Vec::new();
        let mut notices = Vec::new();
        let outcome = self.caches[p].issue(&access, &mut out, &mut notices);
        assert!(notices.is_empty());
        match outcome {
            IssueOutcome::Hit { .. } => {}
            IssueOutcome::MissStarted => {
                if access.is_sync() {
                    self.sync_pending[p] = Some(loc);
                }
            }
            IssueOutcome::BlockedSameLine => return, // fine: drop the access
            other => panic!("unexpected issue outcome {other:?}"),
        }
        self.route(p, out);
    }

    fn deliver(&mut self, index: usize) {
        if self.wires.is_empty() {
            return;
        }
        let (dest, msg) = self.wires.remove(index % self.wires.len());
        match dest {
            None => {
                let mut out = Vec::new();
                self.dir.handle(msg, &mut out);
                for (to, m) in out {
                    self.wires.push((Some(to.index()), m));
                }
            }
            Some(p) => {
                let mut out = Vec::new();
                let mut notices = Vec::new();
                self.caches[p].handle(msg, &mut out, &mut notices);
                self.check_notices(p, &notices);
                self.route(p, out);
            }
        }
    }

    fn assert_single_writer(&self) {
        for l in 0..N_LOCS {
            let loc = Loc::new(l);
            let owners = self.caches.iter().filter(|c| c.owned_value(loc).is_some()).count();
            assert!(owners <= 1, "{owners} exclusive owners of {loc}");
        }
    }

    /// Delivers everything until the system is quiescent.
    fn drain(&mut self) {
        let mut fuel = 100_000;
        while !self.wires.is_empty() {
            self.deliver(0);
            fuel -= 1;
            assert!(fuel > 0, "drain did not terminate");
        }
        assert!(self.dir.is_quiescent(), "directory busy after drain");
        for (p, c) in self.caches.iter().enumerate() {
            assert_eq!(c.counter(), 0, "cache {p} counter nonzero after drain");
            assert!(!c.has_reserved(), "cache {p} still holds reserves");
        }
    }
}

/// Runs `steps` on a fresh harness under `policy`, checking the
/// single-writer invariant after every step and again after the drain.
fn run_schedule(steps: &[Step], policy: Policy) {
    let mut h = Harness::new(policy);
    for &step in steps {
        match step {
            Step::Issue { proc, loc, kind } => h.issue(proc, Loc::new(loc), kind),
            Step::Deliver { index } => h.deliver(index),
        }
        h.assert_single_writer();
    }
    h.drain();
    h.assert_single_writer();
}

#[test]
fn protocol_invariants_hold_under_random_schedules() {
    check_cases("protocol_invariants_hold_under_random_schedules", 200, |rng| {
        let steps: Vec<Step> = (0..rng.range(1..=119)).map(|_| random_step(rng)).collect();
        // Both legs of Section 5.1 for sync requests to reserved lines:
        // queueing (`def2`) and NACK/retry (`def2_nack`).
        let policy = match rng.range(0..=2) {
            0 => Policy::Def1,
            1 => Policy::def2(),
            _ => Policy::def2_nack(),
        };
        run_schedule(&steps, policy);
    });
}

/// A recorded counterexample: a 21-step schedule that once failed
/// under `Def2`, replayed under every policy the random schedules
/// draw from.
#[test]
fn recorded_schedule_keeps_the_invariants_under_every_policy() {
    use Step::{Deliver, Issue};
    let steps = [
        Issue { proc: 0, loc: 0, kind: 1 },
        Issue { proc: 1, loc: 0, kind: 1 },
        Deliver { index: 19 },
        Deliver { index: 0 },
        Deliver { index: 0 },
        Deliver { index: 0 },
        Deliver { index: 0 },
        Deliver { index: 0 },
        Issue { proc: 2, loc: 1, kind: 2 },
        Deliver { index: 20 },
        Issue { proc: 0, loc: 2, kind: 0 },
        Issue { proc: 2, loc: 0, kind: 2 },
        Deliver { index: 17 },
        Issue { proc: 1, loc: 0, kind: 2 },
        Issue { proc: 1, loc: 1, kind: 0 },
        Deliver { index: 13 },
        Issue { proc: 0, loc: 1, kind: 2 },
        Deliver { index: 41 },
        Deliver { index: 51 },
        Deliver { index: 47 },
        Issue { proc: 0, loc: 0, kind: 0 },
    ];
    for policy in [Policy::Def1, Policy::def2(), Policy::def2_nack()] {
        run_schedule(&steps, policy);
    }
}
