//! The whole simulated multiprocessor: cores, caches, the directory and
//! the interconnect, driven by a deterministic event queue.
//!
//! [`CoherentMachine::run`] executes a program to completion and returns
//! the observable [`Outcome`], cycle counts, per-processor stall
//! breakdowns, and (optionally) the committed-operation trace, which
//! [`RunResult::check_appears_sc`] feeds to the Lemma 1 verifier — the
//! timed implementation is checked against the paper's own correctness
//! criterion.

use std::collections::{HashMap, HashSet};
use std::fmt;

use weakord_core::{
    check_appears_sc, HbMode, IdealizedExecution, Loc, MemOp, OpId, ProcId, ScViolation, Value,
};
use weakord_obs::{Event, MetricsRegistry, NoopTracer, Tracer, Track};
use weakord_progs::{Access, Outcome, Program, ThreadEvent};
use weakord_sim::{
    Counters, Cycle, EventQueue, FaultPlan, GeneralNet, Interconnect, NodeId, SimRng,
};

use crate::cache::{CacheCtl, Dest, IssueOutcome, Notice};
use crate::core::{stall_cause, Core, ProcStats, StallCause, WaitKind};
use crate::policy::{Policy, WaitFor};
use crate::proto::Msg;

/// Interconnect selection for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetModel {
    /// Fixed-latency bus.
    Bus {
        /// Cycles per transaction.
        cycles: u64,
    },
    /// Fixed-latency crossbar.
    Crossbar {
        /// Cycles per traversal.
        cycles: u64,
    },
    /// General interconnection network with uniform random latency —
    /// messages reorder freely.
    General {
        /// Minimum latency.
        min: u64,
        /// Maximum latency (inclusive).
        max: u64,
    },
    /// A 2D mesh with Manhattan-distance latency plus jitter.
    Mesh {
        /// Grid width.
        width: u32,
        /// Cycles per hop.
        per_hop: u64,
        /// Max uniform jitter.
        jitter: u64,
    },
    /// A general network with occasional congestion spikes (heavy-tailed
    /// latencies).
    Congested {
        /// Minimum normal latency.
        min: u64,
        /// Maximum normal latency.
        max: u64,
        /// Congested-message latency.
        spike: u64,
        /// Congestion probability in permille.
        spike_permille: u32,
    },
}

impl NetModel {
    fn latency(&self, src: NodeId, dst: NodeId, rng: &mut SimRng) -> u64 {
        match *self {
            NetModel::Bus { cycles } => weakord_sim::AtomicBus { cycles }.latency(src, dst, rng),
            NetModel::Crossbar { cycles } => {
                weakord_sim::Crossbar { cycles }.latency(src, dst, rng)
            }
            NetModel::General { min, max } => GeneralNet { min, max }.latency(src, dst, rng),
            NetModel::Mesh { width, per_hop, jitter } => {
                weakord_sim::Mesh { width, per_hop, jitter }.latency(src, dst, rng)
            }
            NetModel::Congested { min, max, spike, spike_permille } => {
                weakord_sim::CongestedNet { min, max, spike, spike_permille }.latency(src, dst, rng)
            }
        }
    }
}

/// Run configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// The processor ordering policy under test.
    pub policy: Policy,
    /// The interconnect model.
    pub network: NetModel,
    /// RNG seed (network latencies).
    pub seed: u64,
    /// Abort the run after this many cycles.
    pub max_cycles: u64,
    /// Record the committed-operation trace for Lemma 1 checking.
    pub record_trace: bool,
    /// Ablation: withhold `GetX` data until all invalidations are
    /// acknowledged, instead of the paper's parallel forwarding.
    pub strict_data: bool,
    /// Ablation: replace cache-to-cache forwarding with directory
    /// recalls (owner writes back; the directory serves from memory).
    pub no_forwarding: bool,
    /// Lines each cache can hold (`None` = unbounded). Must be ≥ 2.
    pub cache_lines: Option<u32>,
    /// Optional process migration: re-schedule one thread onto a spare
    /// (cold) processor. Per Section 5.1, the context switch waits until
    /// all the thread's previous reads have returned and all its writes
    /// are globally performed (counter reads zero).
    pub migration: Option<Migration>,
    /// Number of interleaved memory modules / directory banks (lines are
    /// distributed round-robin). More banks = more memory-side
    /// parallelism and more network-path diversity, exactly the
    /// "general interconnection network" setting of the paper. Must be
    /// ≥ 1.
    pub memory_banks: u32,
    /// Deterministic interconnect fault injection (drops as bounded
    /// retransmissions, duplicates, reordering jitter, delay spikes).
    /// The fault stream draws from its own seed, so a run with an inert
    /// plan is cycle-identical to one without the fault layer.
    pub faults: FaultPlan,
    /// Livelock watchdog: if no processor completes an operation (or
    /// halts) for this many cycles, abort with [`RunError::Stalled`]
    /// carrying a [`StallReport`]. `None` disables the watchdog (the
    /// `max_cycles` budget still applies).
    pub stall_window: Option<u64>,
}

/// A process-migration request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// The thread to migrate.
    pub thread: u16,
    /// Earliest cycle at which the switch may happen.
    pub at_cycle: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            policy: Policy::def2(),
            network: NetModel::General { min: 20, max: 60 },
            seed: 1,
            max_cycles: 10_000_000,
            record_trace: false,
            strict_data: false,
            no_forwarding: false,
            cache_lines: None,
            migration: None,
            memory_banks: 1,
            faults: FaultPlan::none(),
            stall_window: None,
        }
    }
}

/// Why a processor is blocked, as diagnosed by the stall watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockedReason {
    /// Not blocked: the thread already halted.
    Halted,
    /// Not blocked: the core is between instructions with a tick
    /// scheduled.
    Running,
    /// Waiting for the outstanding-access counter to reach zero
    /// (Definition 1's sync gate, the Section 5.3 miss cap, or a
    /// migration drain).
    WaitingOnCounter {
        /// The counter's current reading.
        counter: u32,
    },
    /// A synchronization request is queued at (or bouncing off) another
    /// processor that holds the line reserved.
    WaitingOnReserveOwner {
        /// The contested line.
        loc: Loc,
        /// The reserve holder.
        owner: ProcId,
    },
    /// The core's synchronization request was NACKed and it is backing
    /// off / re-issuing (the Section 5.1 NACK leg).
    RetryingNackedSync {
        /// The contested line.
        loc: Loc,
        /// Consecutive NACKs in the current streak.
        retries: u32,
    },
    /// An ordinary protocol handshake (fill, global-perform ack) is in
    /// flight for this line.
    InFlightHandshake {
        /// The line.
        loc: Loc,
    },
    /// An earlier transaction on the same line must retire first.
    WaitingOnLine {
        /// The line.
        loc: Loc,
    },
    /// No eviction victim is available for a fill (reserved lines are
    /// never flushed).
    WaitingOnCapacity,
}

impl fmt::Display for BlockedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BlockedReason::Halted => write!(f, "halted"),
            BlockedReason::Running => write!(f, "running"),
            BlockedReason::WaitingOnCounter { counter } => {
                write!(f, "waiting-on-counter (counter={counter})")
            }
            BlockedReason::WaitingOnReserveOwner { loc, owner } => {
                write!(f, "waiting-on-reserve-owner (loc{} held by P{})", loc.raw(), owner.raw())
            }
            BlockedReason::RetryingNackedSync { loc, retries } => {
                write!(f, "retrying-NACKed-sync (loc{}, {retries} NACKs)", loc.raw())
            }
            BlockedReason::InFlightHandshake { loc } => {
                write!(f, "in-flight handshake (loc{})", loc.raw())
            }
            BlockedReason::WaitingOnLine { loc } => {
                write!(f, "waiting-on-line (loc{})", loc.raw())
            }
            BlockedReason::WaitingOnCapacity => write!(f, "waiting-on-capacity"),
        }
    }
}

/// One processor's entry in a [`StallReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcReport {
    /// The processor.
    pub proc: ProcId,
    /// What it is blocked on.
    pub reason: BlockedReason,
    /// When the current wait began (`None` when not waiting).
    pub since: Option<Cycle>,
    /// The stall-accounting cause of the current wait, if any.
    pub cause: Option<StallCause>,
    /// The last few trace events on this processor's timeline before
    /// the snapshot, oldest first — empty unless the run was traced.
    pub history: Vec<Event>,
}

/// A structured livelock/stall snapshot: every processor's
/// blocked-reason at the moment the watchdog fired — the diagnosable
/// replacement for an opaque timeout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallReport {
    /// When the watchdog fired.
    pub at: Cycle,
    /// Per-processor diagnosis.
    pub procs: Vec<ProcReport>,
    /// Events still queued (0 with unfinished processors = deadlock;
    /// large = the system is thrashing, not wedged).
    pub pending_events: usize,
}

impl StallReport {
    /// The processors that are actually blocked (not running/halted).
    pub fn blocked(&self) -> impl Iterator<Item = &ProcReport> {
        self.procs
            .iter()
            .filter(|p| !matches!(p.reason, BlockedReason::Halted | BlockedReason::Running))
    }
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "stall snapshot at {} ({} events pending):", self.at, self.pending_events)?;
        for p in &self.procs {
            write!(f, "  P{}: {}", p.proc.raw(), p.reason)?;
            if let Some(since) = p.since {
                write!(f, " since {}", since.get())?;
            }
            if let Some(cause) = p.cause {
                write!(f, " [{}]", cause.name())?;
            }
            writeln!(f)?;
            for ev in &p.history {
                writeln!(f, "    {ev}")?;
            }
        }
        Ok(())
    }
}

/// Why a run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The cycle budget ran out (possible livelock); the report says
    /// what every processor was blocked on.
    Timeout {
        /// The budget that was exhausted.
        max_cycles: u64,
        /// Per-processor blocked-reason snapshot.
        report: Box<StallReport>,
    },
    /// The livelock watchdog fired: no processor completed an operation
    /// for a whole stall window.
    Stalled {
        /// The no-progress window that elapsed.
        window: u64,
        /// Per-processor blocked-reason snapshot.
        report: Box<StallReport>,
    },
    /// The event queue drained with unfinished processors — a deadlock
    /// (the paper argues this cannot happen; we check).
    Deadlock {
        /// Time of the last event.
        at: Cycle,
        /// Which processors were stuck.
        stuck: Vec<ProcId>,
    },
}

impl RunError {
    /// The stall report attached to a timeout or watchdog abort, if any.
    pub fn stall_report(&self) -> Option<&StallReport> {
        match self {
            RunError::Timeout { report, .. } | RunError::Stalled { report, .. } => Some(report),
            RunError::Deadlock { .. } => None,
        }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Timeout { max_cycles, report } => {
                writeln!(f, "run exceeded {max_cycles} cycles")?;
                write!(f, "{report}")
            }
            RunError::Stalled { window, report } => {
                writeln!(f, "no processor made progress for {window} cycles")?;
                write!(f, "{report}")
            }
            RunError::Deadlock { at, stuck } => {
                write!(f, "deadlock {at}: stuck processors {stuck:?}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// One committed memory operation as observed by the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TraceOp {
    proc: ProcId,
    po_index: u32,
    kind: weakord_core::OpKind,
    loc: Loc,
    read_value: Option<Value>,
    written_value: Option<Value>,
    version: u64,
    commit_seq: u64,
}

/// Per-location protocol traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocStats {
    /// Exclusive requests for the line.
    pub getx: u64,
    /// Shared requests.
    pub gets: u64,
    /// Invalidations sent to sharers.
    pub invs: u64,
    /// Ownership transfers (forwards + recalls).
    pub transfers: u64,
}

impl LocStats {
    /// Total protocol messages attributed to the line.
    pub fn total(&self) -> u64 {
        self.getx + self.gets + self.invs + self.transfers
    }
}

/// The result of a completed run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The observable outcome (final registers + memory).
    pub outcome: Outcome,
    /// Total cycles until the last processor halted and the system
    /// drained.
    pub cycles: u64,
    /// Per-processor statistics.
    pub proc_stats: Vec<ProcStats>,
    /// Global message/event counters.
    pub counters: Counters,
    /// Per-location protocol traffic (indexed by location).
    pub loc_stats: Vec<LocStats>,
    /// The observed execution (commit order), when tracing was enabled.
    pub execution: Option<IdealizedExecution>,
}

impl fmt::Display for RunResult {
    /// A full human-readable report: total cycles, per-processor stall
    /// breakdown, and message counters.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} cycles", self.cycles)?;
        write!(f, "{:>6}", "proc")?;
        for cause in StallCause::ALL {
            write!(f, " {:>11}", cause.name())?;
        }
        writeln!(f, " {:>8} {:>8}  sync-wait", "ops", "misses")?;
        for (p, st) in self.proc_stats.iter().enumerate() {
            write!(f, "{p:>6}")?;
            for cause in StallCause::ALL {
                write!(f, " {:>11}", st.stall(cause))?;
            }
            writeln!(f, " {:>8} {:>8}  {}", st.ops, st.misses, st.sync_wait)?;
        }
        writeln!(f, "messages:")?;
        write!(f, "{}", self.counters)
    }
}

impl RunResult {
    /// The `k` busiest locations, as `(location, stats)`, most traffic
    /// first.
    pub fn hotspots(&self, k: usize) -> Vec<(Loc, LocStats)> {
        let mut v: Vec<(Loc, LocStats)> = self
            .loc_stats
            .iter()
            .enumerate()
            .map(|(l, s)| (Loc::new(l as u32), *s))
            .filter(|(_, s)| s.total() > 0)
            .collect();
        v.sort_by_key(|(_, s)| std::cmp::Reverse(s.total()));
        v.truncate(k);
        v
    }

    /// Folds every statistic of the run into one namespaced
    /// [`MetricsRegistry`]: the global message/fault counters under
    /// `coherence.*`, per-processor stalls/ops/misses under
    /// `coherence.p<i>.*` (with sync-wait percentiles), and per-line
    /// protocol traffic under `coherence.loc<l>.*`. This is the unified
    /// facade the CLI's `--metrics` flag and `stats` subcommand print.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.gauge("coherence.cycles", self.cycles as f64);
        self.counters.export("coherence", &mut reg);
        for (p, st) in self.proc_stats.iter().enumerate() {
            let ns = format!("coherence.p{p}");
            reg.counter(format!("{ns}.ops"), st.ops);
            reg.counter(format!("{ns}.misses"), st.misses);
            reg.counter(format!("{ns}.nack-retries"), st.nack_retries);
            for cause in StallCause::ALL {
                let cycles = st.stall(cause);
                if cycles > 0 {
                    reg.counter(format!("{ns}.stall.{}", cause.name()), cycles);
                }
            }
            if st.sync_wait.count() > 0 {
                st.sync_wait.export_metrics(&format!("{ns}.sync-wait"), &mut reg);
            }
        }
        for (l, st) in self.loc_stats.iter().enumerate() {
            if st.total() == 0 {
                continue;
            }
            let ns = format!("coherence.loc{l}");
            reg.counter(format!("{ns}.getx"), st.getx);
            reg.counter(format!("{ns}.gets"), st.gets);
            reg.counter(format!("{ns}.invs"), st.invs);
            reg.counter(format!("{ns}.transfers"), st.transfers);
        }
        reg
    }

    /// Checks the observed execution against the Lemma 1 appears-SC
    /// criterion (requires `record_trace`).
    ///
    /// # Errors
    ///
    /// Returns the violation, if any.
    ///
    /// # Panics
    ///
    /// Panics if the run was not traced.
    pub fn check_appears_sc(&self, mode: HbMode) -> Result<(), ScViolation> {
        let exec = self.execution.as_ref().expect("run was not traced; set record_trace");
        check_appears_sc(exec, mode)
    }
}

#[derive(Debug)]
enum Ev {
    Tick(usize),
    MigrationCheck(usize),
    /// Deliver to a cache; the tag pairs a faulty duplicate with its
    /// original so the receiver keeps only the first copy to arrive.
    DeliverCache(usize, Msg, Option<u64>),
    /// Deliver to a directory bank (same duplicate tag).
    DeliverDir(usize, Msg, Option<u64>),
}

/// The simulated multiprocessor.
///
/// Generic over the [`Tracer`] sink: the default [`NoopTracer`]
/// monomorphizes every instrumentation site to nothing (the overhead
/// test at the workspace root pins the no-op path to zero extra heap
/// allocations), while [`weakord_obs::MemTracer`] captures the full
/// causally-ordered event timeline for the exporters.
#[derive(Debug)]
pub struct CoherentMachine<'p, T: Tracer = NoopTracer> {
    prog: &'p Program,
    config: Config,
    cores: Vec<Core>,
    caches: Vec<CacheCtl>,
    dirs: Vec<crate::directory::Directory>,
    queue: EventQueue<Ev>,
    rng: SimRng,
    /// Separate stream for fault decisions, so enabling the fault layer
    /// never shifts the base latency draws.
    fault_rng: SimRng,
    /// First-arrival-wins filter for duplicated messages: the protocol
    /// is not idempotent, so the second copy of a pair is discarded
    /// end-to-end (sequence numbers in real hardware).
    dup_pending: HashSet<u64>,
    next_dup_id: u64,
    /// Last cycle at which any processor completed an operation or
    /// halted (feeds the livelock watchdog).
    last_progress: Cycle,
    counters: Counters,
    /// Thread → cache (changes on migration).
    cache_of: Vec<usize>,
    /// Cache → thread currently scheduled on it.
    thread_of: Vec<Option<usize>>,
    /// Thread with a pending context switch, and its target cache.
    migrating: Option<(usize, usize)>,
    loc_stats: Vec<LocStats>,
    issued: HashMap<(usize, Loc), (usize, u32, Access)>,
    po_counter: Vec<u32>,
    trace: Vec<TraceOp>,
    commit_seq: u64,
    tracer: T,
}

impl<'p> CoherentMachine<'p> {
    /// Builds a machine for `prog` under `config` with tracing off
    /// (the zero-cost [`NoopTracer`]).
    pub fn new(prog: &'p Program, config: Config) -> Self {
        Self::with_tracer(prog, config, NoopTracer)
    }
}

impl<'p, T: Tracer> CoherentMachine<'p, T> {
    /// Builds a machine for `prog` under `config` recording trace
    /// events into `tracer`.
    pub fn with_tracer(prog: &'p Program, config: Config, tracer: T) -> Self {
        let n = prog.n_procs();
        // One spare (cold) cache when a migration is planned.
        let n_caches = n + usize::from(config.migration.is_some());
        if let Some(m) = config.migration {
            assert!((m.thread as usize) < n, "migration names a nonexistent thread");
        }
        let mut thread_of: Vec<Option<usize>> = (0..n).map(Some).collect();
        thread_of.resize(n_caches, None);
        CoherentMachine {
            prog,
            config,
            cores: (0..n).map(|p| Core::new(ProcId::new(p as u16))).collect(),
            caches: (0..n_caches)
                .map(|p| {
                    CacheCtl::with_capacity(
                        ProcId::new(p as u16),
                        config.policy,
                        config.cache_lines,
                    )
                })
                .collect(),
            dirs: {
                assert!(config.memory_banks >= 1, "at least one memory bank");
                (0..config.memory_banks)
                    .map(|_| {
                        crate::directory::Directory::with_options(
                            prog.n_locs as usize,
                            config.strict_data,
                            config.no_forwarding,
                        )
                    })
                    .collect()
            },
            queue: EventQueue::new(),
            rng: SimRng::new(config.seed),
            fault_rng: SimRng::new(config.faults.seed),
            dup_pending: HashSet::new(),
            next_dup_id: 0,
            last_progress: Cycle::ZERO,
            counters: Counters::new(),
            loc_stats: vec![LocStats::default(); prog.n_locs as usize],
            cache_of: (0..n).collect(),
            thread_of,
            migrating: None,
            issued: HashMap::new(),
            po_counter: vec![0; n],
            trace: Vec::new(),
            commit_seq: 0,
            tracer,
        }
    }

    /// The bank responsible for a line (round-robin interleaving).
    fn bank_of(&self, loc: Loc) -> usize {
        (loc.raw() % self.config.memory_banks) as usize
    }

    /// The trace track of an interconnect node (caches first, then
    /// directory banks — the same numbering as [`NodeId`]).
    fn node_track(&self, node: NodeId) -> Track {
        let i = node.index();
        if i < self.caches.len() {
            Track::Proc(i as u16)
        } else {
            Track::Dir((i - self.caches.len()) as u16)
        }
    }

    /// Snapshot of a cache's tracer-visible state (outstanding-access
    /// counter + reserved lines). Only taken when tracing is enabled.
    fn obs_snapshot(&self, cache: usize) -> (u32, Vec<Loc>) {
        (self.caches[cache].counter(), self.caches[cache].reserved_lines())
    }

    /// Diffs a cache's state against a pre-handler snapshot and emits
    /// the Section 5.3 bookkeeping events: counter-inc/counter-dec on
    /// the processor's track (plus a sampled `outstanding` counter
    /// series) and reserve-set/reserve-clear on the line's track.
    fn trace_cache_diff(&mut self, cache: usize, before: &(u32, Vec<Loc>)) {
        let now = self.queue.now().get();
        let proc = Track::Proc(cache as u16);
        let (ctr_before, res_before) = before;
        let ctr_after = self.caches[cache].counter();
        if ctr_after != *ctr_before {
            let name = if ctr_after > *ctr_before { "counter-inc" } else { "counter-dec" };
            self.tracer.record(
                Event::instant(now, proc, "cache", name).arg("counter", i64::from(ctr_after)),
            );
            self.tracer.record(Event::counter(
                now,
                proc,
                "cache",
                "outstanding",
                i64::from(ctr_after),
            ));
        }
        let res_after = self.caches[cache].reserved_lines();
        for loc in &res_after {
            if !res_before.contains(loc) {
                self.tracer.record(
                    Event::instant(now, Track::Line(loc.raw()), "cache", "reserve-set")
                        .arg("proc", cache as i64),
                );
            }
        }
        for loc in res_before {
            if !res_after.contains(loc) {
                self.tracer.record(
                    Event::instant(now, Track::Line(loc.raw()), "cache", "reserve-clear")
                        .arg("proc", cache as i64),
                );
            }
        }
    }

    fn dir_node(&self, bank: usize) -> NodeId {
        NodeId::new((self.caches.len() + bank) as u32)
    }

    fn tally(&mut self, msg: &Msg) {
        self.counters.incr(msg.kind_name());
        let Some(stats) = self.loc_stats.get_mut(msg.loc().index()) else {
            return;
        };
        match msg {
            Msg::GetX { .. } => stats.getx += 1,
            Msg::GetS { .. } => stats.gets += 1,
            Msg::Inv { .. } => stats.invs += 1,
            Msg::FwdGetX { .. } | Msg::FwdGetS { .. } | Msg::Recall { .. } => stats.transfers += 1,
            _ => {}
        }
    }

    /// Applies the fault plan to one message's delivery and schedules
    /// the surviving copy (and any duplicate) via `make_ev`.
    fn schedule_delivery(
        &mut self,
        src: NodeId,
        dst: NodeId,
        msg: Msg,
        base_latency: u64,
        make_ev: impl Fn(Msg, Option<u64>) -> Ev,
    ) {
        let d = self.config.faults.deliveries(
            src,
            dst,
            msg.fault_class(),
            base_latency,
            &mut self.fault_rng,
        );
        self.counters.add("fault-drops", u64::from(d.drops));
        if d.spiked {
            self.counters.incr("fault-spikes");
        }
        if d.reordered {
            self.counters.incr("fault-reorders");
        }
        if self.tracer.enabled() {
            // The message lifetime span (send → deliver) lands on the
            // *destination* track: the viewer reads each timeline as
            // "what is arriving here".
            let now = self.queue.now().get();
            let track = self.node_track(dst);
            self.tracer.record(
                Event::span(now, d.delay, track, "net", msg.kind_name())
                    .arg("loc", i64::from(msg.loc().raw()))
                    .arg("src", src.index() as i64),
            );
            for _ in 0..d.drops {
                self.tracer.record(
                    Event::instant(now, track, "fault", "drop")
                        .arg("loc", i64::from(msg.loc().raw())),
                );
            }
            if d.spiked {
                self.tracer.record(
                    Event::instant(now, track, "fault", "spike").arg("delay", d.delay as i64),
                );
            }
            if d.reordered {
                self.tracer.record(Event::instant(now, track, "fault", "reorder"));
            }
            if let Some(dup_delay) = d.duplicate_delay {
                self.tracer.record(
                    Event::instant(now, track, "fault", "dup").arg("delay", dup_delay as i64),
                );
            }
        }
        match d.duplicate_delay {
            Some(dup_delay) => {
                self.counters.incr("fault-dups");
                let id = self.next_dup_id;
                self.next_dup_id += 1;
                self.dup_pending.insert(id);
                self.queue.schedule_in(d.delay, make_ev(msg, Some(id)));
                self.queue.schedule_in(dup_delay, make_ev(msg, Some(id)));
            }
            None => self.queue.schedule_in(d.delay, make_ev(msg, None)),
        }
    }

    /// First-arrival-wins duplicate filter: the first copy of a tagged
    /// pair passes, the second is dropped. Untagged messages pass.
    fn dup_passes(&mut self, tag: Option<u64>) -> bool {
        let Some(id) = tag else {
            return true;
        };
        if self.dup_pending.remove(&id) {
            true
        } else {
            self.counters.incr("fault-dups-filtered");
            if self.tracer.enabled() {
                let now = self.queue.now().get();
                self.tracer.record(Event::instant(now, Track::Global, "fault", "dup-filtered"));
            }
            false
        }
    }

    fn send_to_dir(&mut self, from: usize, msg: Msg) {
        self.tally(&msg);
        let bank = self.bank_of(msg.loc());
        let src = NodeId::new(from as u32);
        let dst = self.dir_node(bank);
        let lat = self.config.network.latency(src, dst, &mut self.rng);
        self.schedule_delivery(src, dst, msg, lat, |m, tag| Ev::DeliverDir(bank, m, tag));
    }

    fn send_to_cache(&mut self, from_dir: Option<usize>, from: usize, to: ProcId, msg: Msg) {
        self.tally(&msg);
        let src = match from_dir {
            Some(bank) => self.dir_node(bank),
            None => NodeId::new(from as u32),
        };
        let dst = NodeId::new(to.raw() as u32);
        let lat = self.config.network.latency(src, dst, &mut self.rng);
        self.schedule_delivery(src, dst, msg, lat, |m, tag| Ev::DeliverCache(to.index(), m, tag));
    }

    fn route_cache_out(&mut self, p: usize, out: Vec<(Dest, Msg)>) {
        for (dest, msg) in out {
            match dest {
                Dest::Dir => self.send_to_dir(p, msg),
                Dest::Cache(q) => self.send_to_cache(None, p, q, msg),
            }
        }
    }

    fn record(
        &mut self,
        thread: usize,
        po_index: u32,
        access: &Access,
        read_value: Option<Value>,
        version: u64,
    ) {
        if !self.config.record_trace {
            return;
        }
        let written_value = match *access {
            Access::Write { value, .. } => Some(value),
            Access::Rmw { op, .. } => {
                Some(op.apply(read_value.expect("rmw commit carries the old value")))
            }
            Access::Read { .. } => None,
        };
        self.trace.push(TraceOp {
            proc: ProcId::new(thread as u16),
            po_index,
            kind: access.op_kind(),
            loc: access.loc(),
            read_value,
            written_value,
            version,
            commit_seq: self.commit_seq,
        });
        self.commit_seq += 1;
    }

    fn process_notices(&mut self, cache: usize, notices: Vec<Notice>) {
        for notice in notices {
            if self.tracer.enabled() {
                let now = self.queue.now().get();
                let (name, loc) = match notice {
                    Notice::Value { loc, .. } => ("value", Some(loc)),
                    Notice::Commit { loc, .. } => ("commit", Some(loc)),
                    Notice::Performed { loc } => ("performed", Some(loc)),
                    Notice::CounterZero => ("counter-zero", None),
                    Notice::LineFree { loc } => ("line-free", Some(loc)),
                    Notice::Nacked { loc } => ("nack", Some(loc)),
                };
                let mut ev = Event::instant(now, Track::Proc(cache as u16), "notice", name);
                if let Some(loc) = loc {
                    ev = ev.arg("loc", i64::from(loc.raw()));
                }
                self.tracer.record(ev);
            }
            // Trace recording first: completion of issued misses.
            match notice {
                Notice::Value { loc, value, version } => {
                    if let Some((t, po, access)) = self.issued.remove(&(cache, loc)) {
                        self.record(t, po, &access, Some(value), version);
                    }
                }
                Notice::Commit { loc, read_value, version } => {
                    if let Some((t, po, access)) = self.issued.remove(&(cache, loc)) {
                        self.record(t, po, &access, read_value, version);
                    }
                }
                Notice::Nacked { loc } => {
                    // The fill was aborted: nothing committed, nothing to
                    // trace. The retry re-records under a fresh po slot
                    // (gaps in po indices are fine — the execution
                    // builder orders by index, not contiguity).
                    self.issued.remove(&(cache, loc));
                    self.counters.incr("nack-bounces");
                    if let Some(t) = self.thread_of[cache] {
                        let params = self.config.policy.nack_params().unwrap_or_default();
                        let now = self.queue.now();
                        if let Some(delay) = self.cores[t].on_nack(loc, &params, now) {
                            if self.tracer.enabled() {
                                self.tracer.record(
                                    Event::instant(
                                        now.get(),
                                        Track::Proc(cache as u16),
                                        "core",
                                        "backoff",
                                    )
                                    .arg("loc", i64::from(loc.raw()))
                                    .arg("delay", delay as i64),
                                );
                            }
                            // The retry tick lands exactly at the end of
                            // the backoff window.
                            self.queue.schedule_in(delay.max(1), Ev::Tick(t));
                        }
                    }
                    continue;
                }
                _ => {}
            }
            // Wake the core currently scheduled on this cache, if any.
            let Some(t) = self.thread_of[cache] else {
                continue;
            };
            let thread = &self.prog.threads[t];
            let now = self.queue.now();
            if self.cores[t].on_notice(&notice, thread, now) {
                self.last_progress = now;
                self.queue.schedule_in(1, Ev::Tick(t));
            }
        }
    }

    /// Attempts a pending context switch for thread `p`: per
    /// Section 5.1, the switch waits until every previous read has
    /// returned (the core is not waiting) and every write is globally
    /// performed (counter zero). Returns `false` if the caller should
    /// stop (the core is now draining).
    fn try_migrate(&mut self, p: usize, now: Cycle) -> bool {
        let Some((mt, target)) = self.migrating else {
            return true;
        };
        if mt != p {
            return true;
        }
        let old = self.cache_of[p];
        if self.caches[old].counter() > 0 {
            self.cores[p].begin_wait(WaitKind::CounterZero, StallCause::Migration, now);
            return false;
        }
        self.thread_of[old] = None;
        self.thread_of[target] = Some(p);
        self.cache_of[p] = target;
        self.migrating = None;
        self.counters.incr("migrations");
        if self.tracer.enabled() {
            self.tracer.record(
                Event::instant(now.get(), Track::Proc(old as u16), "core", "migrate-out")
                    .arg("to", target as i64),
            );
            self.tracer.record(
                Event::instant(now.get(), Track::Proc(target as u16), "core", "migrate-in")
                    .arg("from", old as i64),
            );
        }
        true
    }

    /// Emits a stall instant on `p`'s track, named after the cause.
    fn trace_stall(&mut self, p: usize, cause: StallCause, loc: Option<Loc>) {
        if !self.tracer.enabled() {
            return;
        }
        let now = self.queue.now().get();
        let mut ev = Event::instant(now, Track::Proc(p as u16), "stall", cause.name());
        if let Some(loc) = loc {
            ev = ev.arg("loc", i64::from(loc.raw()));
        }
        self.tracer.record(ev);
    }

    fn tick(&mut self, p: usize) {
        if self.cores[p].is_halted() || self.cores[p].is_waiting() {
            return; // stale tick
        }
        let now = self.queue.now();
        // A NACKed core sits out its backoff window; the retry tick was
        // scheduled when the NACK arrived, so earlier stale ticks must
        // not re-issue the access prematurely.
        if self.cores[p].in_backoff(now) {
            return;
        }
        self.cores[p].clear_backoff(now);
        // A pending context switch takes effect between instructions.
        if !self.try_migrate(p, now) {
            return;
        }
        let thread = &self.prog.threads[p];
        match self.cores[p].ts.advance(thread) {
            ThreadEvent::Halted => {
                self.last_progress = now;
                self.cores[p].set_halted(now);
                if self.tracer.enabled() {
                    self.tracer.record(Event::instant(
                        now.get(),
                        Track::Proc(p as u16),
                        "core",
                        "halt",
                    ));
                }
            }
            ThreadEvent::Delay(c) => {
                self.cores[p].ts.complete(thread, None);
                self.queue.schedule_in(c as u64 + 1, Ev::Tick(p));
            }
            ThreadEvent::Fence => {
                // A full fence waits for the core's outstanding
                // invalidations to be acknowledged — the same issuer
                // gate Definition 1 applies to sync accesses.
                let cache = self.cache_of[p];
                if self.caches[cache].counter() > 0 {
                    if self.tracer.enabled() {
                        self.tracer.record(
                            Event::instant(now.get(), Track::Proc(p as u16), "stall", "fence")
                                .arg("counter", i64::from(self.caches[cache].counter())),
                        );
                    }
                    self.cores[p].begin_wait(WaitKind::CounterZero, StallCause::SyncGate, now);
                    return;
                }
                self.last_progress = now;
                self.cores[p].ts.complete(thread, None);
                self.queue.schedule_in(1, Ev::Tick(p));
            }
            ThreadEvent::Access(access) => {
                // Definition 1's issuer gate.
                let cache = self.cache_of[p];
                if self.config.policy.gate_on_counter(&access) && self.caches[cache].counter() > 0 {
                    if self.tracer.enabled() {
                        self.tracer.record(
                            Event::instant(now.get(), Track::Proc(p as u16), "stall", "sync-gate")
                                .arg("counter", i64::from(self.caches[cache].counter()))
                                .arg("loc", i64::from(access.loc().raw())),
                        );
                    }
                    self.cores[p].begin_wait(WaitKind::CounterZero, StallCause::SyncGate, now);
                    return;
                }
                let traced = self.tracer.enabled();
                let snap = if traced { Some(self.obs_snapshot(cache)) } else { None };
                let mut out = Vec::new();
                let mut notices = Vec::new();
                let outcome = self.caches[cache].issue(&access, &mut out, &mut notices);
                if let Some(snap) = &snap {
                    let name = match outcome {
                        IssueOutcome::Hit { .. } => "hit",
                        IssueOutcome::MissStarted => "miss",
                        IssueOutcome::BlockedSameLine
                        | IssueOutcome::BlockedMissCap
                        | IssueOutcome::BlockedCapacity => "blocked",
                    };
                    self.tracer.record(
                        Event::instant(now.get(), Track::Proc(p as u16), "core", name)
                            .arg("loc", i64::from(access.loc().raw()))
                            .arg("sync", i64::from(access.is_sync())),
                    );
                    self.trace_cache_diff(cache, snap);
                }
                self.route_cache_out(cache, out);
                debug_assert!(notices.is_empty(), "issue produced notices");
                match outcome {
                    IssueOutcome::Hit { read_value, version } => {
                        self.last_progress = now;
                        let po = self.po_counter[p];
                        self.po_counter[p] += 1;
                        self.record(p, po, &access, read_value, version);
                        let v = if access.has_read() {
                            Some(read_value.expect("hit on a read component carries a value"))
                        } else {
                            None
                        };
                        self.cores[p].ts.complete(thread, v);
                        self.cores[p].stats.ops += 1;
                        self.queue.schedule_in(1, Ev::Tick(p));
                    }
                    IssueOutcome::MissStarted => {
                        self.cores[p].stats.misses += 1;
                        let po = self.po_counter[p];
                        self.po_counter[p] += 1;
                        self.issued.insert((cache, access.loc()), (p, po, access));
                        let wait = self.config.policy.wait_for(&access);
                        let kind = match wait {
                            WaitFor::Nothing => {
                                // Architectural completion at issue.
                                self.last_progress = now;
                                self.cores[p].ts.complete(thread, None);
                                self.cores[p].stats.ops += 1;
                                self.queue.schedule_in(1, Ev::Tick(p));
                                return;
                            }
                            WaitFor::Value => WaitKind::Value(access.loc()),
                            WaitFor::Commit => WaitKind::Commit(access.loc()),
                            WaitFor::GloballyPerformed => {
                                // Pure reads perform at value return; the
                                // core treats the value notice as the
                                // perform for them.
                                WaitKind::Perform { loc: access.loc(), instr_done: false }
                            }
                        };
                        let cause = stall_cause(&kind, &access);
                        self.trace_stall(p, cause, Some(access.loc()));
                        self.cores[p].begin_wait(kind, cause, now);
                    }
                    IssueOutcome::BlockedSameLine => {
                        self.trace_stall(p, StallCause::SameLine, Some(access.loc()));
                        self.cores[p].begin_wait(
                            WaitKind::LineFree(access.loc()),
                            StallCause::SameLine,
                            now,
                        );
                    }
                    IssueOutcome::BlockedMissCap => {
                        self.trace_stall(p, StallCause::MissCap, Some(access.loc()));
                        self.cores[p].begin_wait(WaitKind::CounterZero, StallCause::MissCap, now);
                    }
                    IssueOutcome::BlockedCapacity => {
                        self.trace_stall(p, StallCause::Capacity, Some(access.loc()));
                        self.cores[p].begin_wait(WaitKind::Capacity, StallCause::Capacity, now);
                    }
                }
            }
        }
    }

    /// Runs the program to completion.
    ///
    /// # Errors
    ///
    /// [`RunError::Timeout`] if the cycle budget is exhausted,
    /// [`RunError::Deadlock`] if the system wedges (which the paper — and
    /// our test suite — says must not happen).
    pub fn run(self) -> Result<RunResult, RunError> {
        self.run_traced().0
    }

    /// Runs the program to completion and hands the tracer back so the
    /// caller can export the captured event timeline. On a failed run
    /// the tracer still carries everything up to the abort — which is
    /// exactly what a livelock diagnosis wants.
    pub fn run_traced(mut self) -> (Result<RunResult, RunError>, T) {
        for p in 0..self.prog.n_procs() {
            self.queue.schedule_at(Cycle::ZERO, Ev::Tick(p));
        }
        if let Some(m) = self.config.migration {
            self.queue.schedule_at(Cycle::new(m.at_cycle), Ev::MigrationCheck(m.thread as usize));
        }
        while let Some((at, ev)) = self.queue.pop() {
            if at.get() > self.config.max_cycles {
                let report = Box::new(self.build_stall_report());
                let err = RunError::Timeout { max_cycles: self.config.max_cycles, report };
                return (Err(err), self.tracer);
            }
            // Livelock watchdog: deliveries alone are not progress — a
            // NACK/retry storm keeps the event queue busy forever while
            // no processor completes anything. Completions and halts
            // advance `last_progress`; a long dry spell trips here with
            // a structured snapshot instead of burning the full budget.
            if let Some(w) = self.config.stall_window {
                if at.since(self.last_progress) > w {
                    if self.tracer.enabled() {
                        self.tracer.record(
                            Event::instant(at.get(), Track::Global, "core", "watchdog")
                                .arg("window", w as i64),
                        );
                    }
                    let report = Box::new(self.build_stall_report());
                    return (Err(RunError::Stalled { window: w, report }), self.tracer);
                }
            }
            match ev {
                Ev::Tick(p) => self.tick(p),
                Ev::MigrationCheck(p) => {
                    // Arm the pending switch now; it takes effect at the
                    // first instruction boundary with a drained counter.
                    let spare = self.caches.len() - 1;
                    self.migrating = Some((p, spare));
                    // Only attempt immediately if the core is between
                    // instructions; never advance the thread (a Ready
                    // core keeps its own scheduled tick).
                    if !self.cores[p].is_halted() && !self.cores[p].is_waiting() {
                        let now = self.queue.now();
                        self.try_migrate(p, now);
                    }
                }
                Ev::DeliverDir(bank, msg, tag) => {
                    if !self.dup_passes(tag) {
                        continue;
                    }
                    if self.tracer.enabled() {
                        self.tracer.record(
                            Event::instant(
                                at.get(),
                                Track::Dir(bank as u16),
                                "dir",
                                msg.kind_name(),
                            )
                            .arg("loc", i64::from(msg.loc().raw())),
                        );
                    }
                    let mut out = Vec::new();
                    self.dirs[bank].handle(msg, &mut out);
                    for (to, m) in out {
                        self.send_to_cache(Some(bank), 0, to, m);
                    }
                }
                Ev::DeliverCache(p, msg, tag) => {
                    if !self.dup_passes(tag) {
                        continue;
                    }
                    let traced = self.tracer.enabled();
                    let snap = if traced {
                        self.tracer.record(
                            Event::instant(
                                at.get(),
                                Track::Proc(p as u16),
                                "cache",
                                msg.kind_name(),
                            )
                            .arg("loc", i64::from(msg.loc().raw())),
                        );
                        Some(self.obs_snapshot(p))
                    } else {
                        None
                    };
                    let mut out = Vec::new();
                    let mut notices = Vec::new();
                    self.caches[p].handle(msg, &mut out, &mut notices);
                    if let Some(snap) = &snap {
                        self.trace_cache_diff(p, snap);
                    }
                    self.route_cache_out(p, out);
                    self.process_notices(p, notices);
                }
            }
        }
        let stuck: Vec<ProcId> =
            self.cores.iter().filter(|c| !c.is_halted()).map(|c| c.proc).collect();
        if !stuck.is_empty() {
            return (Err(RunError::Deadlock { at: self.queue.now(), stuck }), self.tracer);
        }
        debug_assert!(
            self.dirs.iter().all(crate::directory::Directory::is_quiescent),
            "drained queue with busy directory"
        );
        debug_assert!(self.caches.iter().all(|c| c.counter() == 0));
        let (result, tracer) = self.finish();
        (Ok(result), tracer)
    }

    /// Diagnoses what every processor is blocked on right now — the
    /// structured replacement for staring at a bare timeout.
    fn build_stall_report(&self) -> StallReport {
        // Last-K-events window per processor: with a recording tracer
        // the report shows what each blocked core was doing right
        // before the watchdog fired; with the no-op tracer the windows
        // are empty and the report is the same structured snapshot as
        // before.
        const HISTORY_K: usize = 12;
        let procs = (0..self.prog.n_procs())
            .map(|p| {
                let core = &self.cores[p];
                let proc = ProcId::new(p as u16);
                let history = self.tracer.recent(Track::Proc(p as u16), HISTORY_K);
                if core.is_halted() {
                    return ProcReport {
                        proc,
                        reason: BlockedReason::Halted,
                        since: None,
                        cause: None,
                        history,
                    };
                }
                // A NACK/retry cycle in progress outranks the wait kind:
                // between the NACK and the retried issue the core is not
                // "waiting" at all, it is bouncing.
                if let Some((loc, retries)) = core.nacked_sync() {
                    if core.wait_summary().is_none() {
                        return ProcReport {
                            proc,
                            reason: BlockedReason::RetryingNackedSync { loc, retries },
                            since: None,
                            cause: Some(StallCause::NackRetry),
                            history,
                        };
                    }
                }
                let Some((kind, cause, since)) = core.wait_summary() else {
                    return ProcReport {
                        proc,
                        reason: BlockedReason::Running,
                        since: None,
                        cause: None,
                        history,
                    };
                };
                let reason = match kind {
                    WaitKind::Value(loc)
                    | WaitKind::Commit(loc)
                    | WaitKind::Perform { loc, .. } => {
                        // Does some other cache hold this line reserved?
                        // Then the fill is parked behind the Section 5.3
                        // reserve, not just in flight.
                        let own = self.cache_of[p];
                        match (0..self.caches.len())
                            .find(|&c| c != own && self.caches[c].is_reserved(loc))
                        {
                            Some(c) => BlockedReason::WaitingOnReserveOwner {
                                loc,
                                owner: ProcId::new(c as u16),
                            },
                            None => BlockedReason::InFlightHandshake { loc },
                        }
                    }
                    WaitKind::CounterZero => BlockedReason::WaitingOnCounter {
                        counter: self.caches[self.cache_of[p]].counter(),
                    },
                    WaitKind::LineFree(loc) => BlockedReason::WaitingOnLine { loc },
                    WaitKind::Capacity => BlockedReason::WaitingOnCapacity,
                };
                ProcReport { proc, reason, since: Some(since), cause: Some(cause), history }
            })
            .collect();
        StallReport { at: self.queue.now(), procs, pending_events: self.queue.len() }
    }

    fn finish(mut self) -> (RunResult, T) {
        let memory: Vec<Value> = (0..self.prog.n_locs)
            .map(|l| {
                let loc = Loc::new(l);
                let bank = self.bank_of(loc);
                match self.dirs[bank].final_value(loc) {
                    Ok(v) => v,
                    Err(owner) => self.caches[owner.index()]
                        .owned_value(loc)
                        .expect("directory names an owner without the line"),
                }
            })
            .collect();
        let outcome = Outcome { regs: self.cores.iter().map(|c| c.ts.regs()).collect(), memory };
        let reserve_stalls: u64 = self.caches.iter().map(|c| c.reserve_stalls).sum();
        self.counters.add("reserve-stalls", reserve_stalls);
        let evictions: u64 = self.caches.iter().map(|c| c.evictions).sum();
        self.counters.add("evictions", evictions);
        let nacks: u64 = self.caches.iter().map(|c| c.nacks).sum();
        self.counters.add("nacks", nacks);
        let cycles =
            self.cores.iter().filter_map(|c| c.stats.halted_at).map(Cycle::get).max().unwrap_or(0);
        let execution = self.config.record_trace.then(|| build_execution(self.prog, &self.trace));
        let result = RunResult {
            outcome,
            cycles,
            proc_stats: self.cores.into_iter().map(|c| c.stats).collect(),
            counters: self.counters,
            loc_stats: self.loc_stats,
            execution,
        };
        (result, self.tracer)
    }
}

/// Orders the observed commits into an execution whose listing respects
/// program order per processor and commit order among synchronization
/// operations per location (`po ∪ so` is acyclic — see the module docs
/// of `weakord-core`), then materializes it for the Lemma 1 checker.
fn build_execution(prog: &Program, trace: &[TraceOp]) -> IdealizedExecution {
    let mut ops: Vec<TraceOp> = trace.to_vec();
    ops.sort_unstable_by_key(|o| o.commit_seq);
    let n = ops.len();
    // Adjacency lists + indegrees for Kahn's algorithm: O(n + e), which
    // matters for spin-heavy traces with tens of thousands of
    // operations.
    let mut succ: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut indeg: Vec<u32> = vec![0; n];
    let add_edge = |succ: &mut Vec<Vec<u32>>, indeg: &mut Vec<u32>, a: usize, b: usize| {
        succ[a].push(b as u32);
        indeg[b] += 1;
    };
    // Program-order edges: consecutive ops per processor.
    let mut last_of_proc: HashMap<ProcId, usize> = HashMap::new();
    let mut by_po: Vec<usize> = (0..n).collect();
    by_po.sort_unstable_by_key(|&i| (ops[i].proc, ops[i].po_index));
    for &i in &by_po {
        if let Some(&prev) = last_of_proc.get(&ops[i].proc) {
            add_edge(&mut succ, &mut indeg, prev, i);
        }
        last_of_proc.insert(ops[i].proc, i);
    }
    // Synchronization-order edges: per location, the witness orders
    // syncs along the line's write serialization — the write that
    // created version v, then the read-only syncs that observed v (in
    // commit order), then the write creating v+1. Ordering by raw commit
    // time would mis-place a refined `Test` that read a stale shared
    // copy after a newer version already committed elsewhere.
    let mut sync_by_loc: HashMap<Loc, Vec<usize>> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        if op.kind.is_sync() {
            sync_by_loc.entry(op.loc).or_default().push(i);
        }
    }
    for indices in sync_by_loc.values_mut() {
        indices.sort_unstable_by_key(|&i| {
            let o = &ops[i];
            (o.version, u8::from(!o.kind.has_write()), o.commit_seq)
        });
        for w in indices.windows(2) {
            add_edge(&mut succ, &mut indeg, w[0], w[1]);
        }
    }
    // Kahn's algorithm with a min-heap keyed by commit_seq for a
    // deterministic, commit-leaning order.
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>> = (0..n)
        .filter(|&i| indeg[i] == 0)
        .map(|i| std::cmp::Reverse((ops[i].commit_seq, i)))
        .collect();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    while let Some(std::cmp::Reverse((_, i))) = heap.pop() {
        order.push(i);
        for &j in &succ[i] {
            let j = j as usize;
            indeg[j] -= 1;
            if indeg[j] == 0 {
                heap.push(std::cmp::Reverse((ops[j].commit_seq, j)));
            }
        }
    }
    assert_eq!(order.len(), n, "po ∪ so of an observed run is acyclic");
    let mem_ops: Vec<MemOp> = order
        .iter()
        .map(|&i| {
            let o = &ops[i];
            MemOp {
                id: OpId::new(0), // reassigned by from_observed
                proc: o.proc,
                po_index: o.po_index,
                kind: o.kind,
                loc: o.loc,
                read_value: o.read_value,
                written_value: o.written_value,
                hypothetical: false,
            }
        })
        .collect();
    IdealizedExecution::from_observed(prog.n_procs() as u16, mem_ops)
        .expect("observed trace is well-formed")
}
