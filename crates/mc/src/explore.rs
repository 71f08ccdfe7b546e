//! Exhaustive state-space exploration.
//!
//! The engine enumerates a [`Machine`]'s reachable state graph and
//! collects the set of terminal [`Outcome`]s. Spin loops revisit states
//! and are handled by deduplication, so unbounded spins do not prevent
//! termination.
//!
//! One entry point, [`run`], takes the run's [`Opts`] (cancellation,
//! live progress, checkpoint/resume) and the successor pruning from
//! [`Limits::reduction`]; [`explore`] is `run` with no options. One
//! engine and one reference share one result type:
//!
//! * the parallel engine ([`Reduction::Full`] and [`Reduction::Ample`]):
//!   up to `limits.threads` workers — worker 0 on the calling thread,
//!   its peers under [`std::thread::scope`] once the run outlasts a
//!   thread start — over the lock-free [`VisitedSet`] (an
//!   open-addressing fingerprint table indexing an exact store of
//!   [`Codec`]-encoded states — see [`crate::visited`]). Frontiers hold
//!   the visited set's `u64` ids, not boxed state clones: a successor
//!   is encoded exactly once (the encode doubles as the hash walk) and
//!   decoded back only when expanded. Each worker keeps a bounded *hot
//!   tail* of its newest admissions decoded — expanded LIFO without a
//!   decode — so the depth-first spine pays no codec round-trip, and
//!   recycles retired successor states through a pool
//!   ([`Machine::successors_into`]), so steady-state expansion allocates
//!   once per admitted state (its encoded payload) and nothing per arc.
//!   A worker that sees an idle peer parks the older half of its hot
//!   tail in its deque, where the peer steals it. With
//!   [`Limits::memory_budget`] set, encoded states past the budget
//!   spill to disk and capacity is bounded by disk, not RAM.
//! * [`explore_seq`] — the classic single-threaded DFS over a plain
//!   `HashSet`, kept as the reference for differential testing and as
//!   the same-run baseline of the explorer benchmarks.
//!
//! The parallel engine and the reference visit exactly the same set of
//! states, so `outcomes` (an order-insensitive `BTreeSet`), `states`,
//! and `deadlocks` are identical across them and across runs whenever
//! the exploration is not truncated. Run-specific diagnostics live in
//! [`ExplorationStats`], which is deliberately excluded from
//! [`Exploration`]'s equality.

use std::collections::{BTreeSet, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use weakord_obs::{Event, MetricsRegistry, Tracer, Track};
use weakord_progs::{Outcome, Program};

use crate::checkpoint::{
    self, config_fingerprint, CheckpointCfg, CheckpointError, Codec, PersistedCounters, Reader,
    Snapshot,
};
use crate::fxhash::{hash_bytes, FxBuildHasher};
use crate::machine::{Label, Machine};
use crate::reduce::{ample_index, FutureTable};
use crate::visited::{Admit, ProbeTelemetry, VisitedSet};

pub use crate::visited::N_SHARDS;

/// Exploration bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum number of distinct states to visit before giving up and
    /// marking the exploration truncated.
    pub max_states: usize,
    /// Up to this many workers for [`explore`]; `0` means one per
    /// available hardware thread
    /// ([`std::thread::available_parallelism`]). Worker 0 runs on the
    /// calling thread and starts the others only once the run has
    /// lasted about as long as starting them costs, so a small run
    /// finishes on one thread whatever this says.
    pub threads: usize,
    /// Wall-clock budget; exceeding it truncates the exploration
    /// (`outcomes` is then a lower bound, like hitting `max_states`).
    pub deadline: Option<Duration>,
    /// Whether the run prunes the successor relation with the
    /// partial-order reduction — see [`crate::reduce`]. Outcome and
    /// deadlock sets are preserved; `states` and `stats` shrink.
    pub reduction: Reduction,
    /// RAM ceiling, in bytes, for the visited set's resident footprint
    /// (encoded payloads + index). `None` (the default) keeps
    /// everything in RAM; with a budget, admissions past it spill
    /// encoded states to a temp file, so exploration capacity is
    /// bounded by disk instead. A resource knob, not a semantic one:
    /// excluded from the checkpoint configuration fingerprint, and the
    /// results are identical with or without it.
    pub memory_budget: Option<usize>,
}

/// Successor-pruning mode. Both modes run on the one engine and honor
/// every [`Limits`] field and every [`Opts`] option.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Reduction {
    /// Expand every enabled transition (the exhaustive baseline).
    #[default]
    Full,
    /// At each state, expand only a persistent (ample) subset of the
    /// enabled transitions when the dependence analysis finds one
    /// (see [`crate::reduce`]); outcome and deadlock sets are provably
    /// unchanged. A program with more locations than the analysis
    /// covers runs unreduced, under the same checkpoint fingerprint.
    Ample,
}

impl Default for Limits {
    /// 4M states, one worker per hardware thread, no deadline, no
    /// reduction, no memory budget. The state cap can be tightened
    /// (never raised) from the environment via `WEAKORD_MAX_STATES` —
    /// CI uses this to turn a state-space blowup into a fast failure
    /// instead of a timeout.
    fn default() -> Self {
        let max_states = std::env::var("WEAKORD_MAX_STATES")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .map_or(4_000_000, |n: usize| n.min(4_000_000));
        Limits {
            max_states,
            threads: 0,
            deadline: None,
            reduction: Reduction::Full,
            memory_budget: None,
        }
    }
}

impl Limits {
    /// Default limits with an explicit worker count.
    pub fn with_threads(threads: usize) -> Self {
        Limits { threads, ..Limits::default() }
    }

    /// Default limits with an explicit state cap.
    pub fn with_max_states(max_states: usize) -> Self {
        Limits { max_states, ..Limits::default() }
    }

    /// Default limits with ample-set reduction enabled.
    pub fn reduced() -> Self {
        Limits { reduction: Reduction::Ample, ..Limits::default() }
    }

    /// Default limits with a visited-set memory budget (bytes).
    pub fn with_memory_budget(bytes: usize) -> Self {
        Limits { memory_budget: Some(bytes), ..Limits::default() }
    }

    /// The worker count [`explore`] may use (and reports in
    /// [`ExplorationStats::threads`]).
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// A cooperative, job-granular cancellation hook for an exploration.
///
/// Cloning shares the flag: hand one clone to the exploration (via
/// [`Opts::cancel`]) and keep the other; calling
/// [`CancelToken::cancel`] from any thread stops the run at the next
/// worker safepoint — the same per-arc granularity as the wall-clock
/// deadline, so a cancel lands within one machine step per worker. A
/// cancelled run truncates with [`TruncationReason::Cancelled`]; when
/// checkpointing is on, the final checkpoint is still written, so a
/// cancelled job is resumable exactly like a suspended one.
///
/// This is what lets a serving layer shed or abort one in-flight job
/// without tearing down the pool: the token is per-exploration, not
/// process-global.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation; idempotent, callable from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// `true` once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Live progress counters for an in-flight exploration, published
/// atomically by the engine and readable from any thread.
///
/// Construction follows [`CancelToken`]: cloning shares the counters,
/// so hand one clone to the exploration (via [`Opts::progress`]) and
/// keep the other to [`ProgressSink::sample`] from a monitor thread.
/// The engine samples at the existing worker
/// safepoints — the same loop-top/per-pop cadence as the deadline and
/// cancel checks — and batches like [`ProbeTelemetry`]: one worker
/// elects itself publisher when the sampling interval elapses (a CAS
/// on the next-due time), flushes its local probe batch, and stores a
/// consistent-enough snapshot into plain atomics. No locks, no
/// allocation, no cross-worker rendezvous: a run with no sink attached
/// pays one untaken branch per `PROGRESS_CHECK_EVERY` pops, and
/// `tests/overhead.rs` pins even the *attached* path to zero extra
/// heap allocations.
///
/// Every published counter except `frontier` (a gauge) is monotone
/// non-decreasing over the lifetime of one engine, and `seq` increments
/// with every publication, so readers can detect staleness.
#[derive(Clone, Debug, Default)]
pub struct ProgressSink {
    inner: Arc<ProgressShared>,
}

#[derive(Debug)]
struct ProgressShared {
    /// Sampling period; a publisher is elected at most this often.
    interval_nanos: u64,
    /// When the sink was created (the elapsed-time epoch for `next_due`).
    epoch: Instant,
    /// Nanos-since-epoch of the next due sample; CAS-claimed by the
    /// publishing worker.
    next_due: AtomicU64,
    /// Publication count (bumped last, `Release`; readers pair with
    /// `Acquire` so a changed `seq` implies fresh counters).
    seq: AtomicU64,
    states: AtomicU64,
    frontier: AtomicU64,
    dedup_hits: AtomicU64,
    dedup_probes: AtomicU64,
    pruned_arcs: AtomicU64,
    steals: AtomicU64,
    worker_panics: AtomicU64,
    table_capacity: AtomicU64,
    mem_bytes: AtomicU64,
    elapsed_nanos: AtomicU64,
}

impl Default for ProgressShared {
    fn default() -> Self {
        ProgressShared::with_interval(Duration::from_millis(100))
    }
}

impl ProgressShared {
    fn with_interval(interval: Duration) -> Self {
        ProgressShared {
            interval_nanos: interval.as_nanos().min(u128::from(u64::MAX)) as u64,
            epoch: Instant::now(),
            next_due: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            states: AtomicU64::new(0),
            frontier: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            dedup_probes: AtomicU64::new(0),
            pruned_arcs: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            table_capacity: AtomicU64::new(0),
            mem_bytes: AtomicU64::new(0),
            elapsed_nanos: AtomicU64::new(0),
        }
    }
}

impl ProgressSink {
    /// A fresh sink publishing at most every 100ms.
    pub fn new() -> Self {
        ProgressSink::default()
    }

    /// A fresh sink publishing at most every `interval`
    /// ([`Duration::ZERO`]: at every safepoint check).
    pub fn with_interval(interval: Duration) -> Self {
        ProgressSink { inner: Arc::new(ProgressShared::with_interval(interval)) }
    }

    /// The most recently published counters (all zero until the engine
    /// publishes its first sample).
    pub fn sample(&self) -> ProgressSnapshot {
        let p = &self.inner;
        let seq = p.seq.load(Ordering::Acquire);
        ProgressSnapshot {
            seq,
            states: p.states.load(Ordering::Relaxed),
            frontier: p.frontier.load(Ordering::Relaxed),
            dedup_hits: p.dedup_hits.load(Ordering::Relaxed),
            dedup_probes: p.dedup_probes.load(Ordering::Relaxed),
            pruned_arcs: p.pruned_arcs.load(Ordering::Relaxed),
            steals: p.steals.load(Ordering::Relaxed),
            worker_panics: p.worker_panics.load(Ordering::Relaxed),
            table_capacity: p.table_capacity.load(Ordering::Relaxed),
            mem_bytes: p.mem_bytes.load(Ordering::Relaxed),
            elapsed: Duration::from_nanos(p.elapsed_nanos.load(Ordering::Relaxed)),
        }
    }

    /// The engine's progress safepoint: if a sample is due, elect the
    /// caller publisher (a CAS on the due time) and store `sample()`.
    /// Not-yet-due calls and losers of the CAS race return after one
    /// clock read, and no path allocates.
    fn tick(&self, sample: impl FnOnce() -> ProgressSnapshot) {
        let p = &self.inner;
        let now = p.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let due = p.next_due.load(Ordering::Relaxed);
        if now >= due
            && p.next_due
                .compare_exchange(
                    due,
                    now.saturating_add(p.interval_nanos),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                )
                .is_ok()
        {
            self.publish(&sample());
        }
    }

    /// Stores `s` (its `seq` is ignored) and bumps the publication
    /// count: atomic stores only. The engine also calls it once at the
    /// end, so a monitor sees the closing counters even when the run
    /// ends inside one sampling interval.
    fn publish(&self, s: &ProgressSnapshot) {
        let p = &self.inner;
        p.states.store(s.states, Ordering::Relaxed);
        p.frontier.store(s.frontier, Ordering::Relaxed);
        p.dedup_hits.store(s.dedup_hits, Ordering::Relaxed);
        p.dedup_probes.store(s.dedup_probes, Ordering::Relaxed);
        p.pruned_arcs.store(s.pruned_arcs, Ordering::Relaxed);
        p.steals.store(s.steals, Ordering::Relaxed);
        p.worker_panics.store(s.worker_panics, Ordering::Relaxed);
        p.table_capacity.store(s.table_capacity, Ordering::Relaxed);
        p.mem_bytes.store(s.mem_bytes, Ordering::Relaxed);
        p.elapsed_nanos
            .store(s.elapsed.as_nanos().min(u128::from(u64::MAX)) as u64, Ordering::Relaxed);
        p.seq.fetch_add(1, Ordering::Release);
    }
}

/// One point-in-time sample of a running exploration, read through
/// [`ProgressSink::sample`].
///
/// `Copy` and heap-free by construction, like [`weakord_obs::Event`]:
/// sampling never allocates on either side. All counters are monotone
/// within one engine except `frontier`, which is the instantaneous
/// admitted-but-unexpanded population (a gauge that rises and falls).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProgressSnapshot {
    /// Publication count; 0 means nothing was published yet.
    pub seq: u64,
    /// Distinct states admitted to the visited set so far.
    pub states: u64,
    /// States admitted but not yet expanded (frontier depth).
    pub frontier: u64,
    /// Successor arcs that landed on an already-visited state.
    pub dedup_hits: u64,
    /// Successor arcs probed against the visited set.
    pub dedup_probes: u64,
    /// Arcs pruned by the partial-order reduction.
    pub pruned_arcs: u64,
    /// Successful work-steals.
    pub steals: u64,
    /// Worker panics absorbed so far.
    pub worker_panics: u64,
    /// Slots across the fingerprint table's active levels.
    pub table_capacity: u64,
    /// Resident bytes of the visited set's in-RAM payloads.
    pub mem_bytes: u64,
    /// Cumulative exploration wall-clock (across resume legs).
    pub elapsed: Duration,
}

impl ProgressSnapshot {
    /// Distinct states per second of exploration wall-clock so far.
    pub fn states_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.states as f64 / secs
        } else {
            0.0
        }
    }

    /// Load factor of the fingerprint table's active levels.
    pub fn table_occupancy(&self) -> f64 {
        if self.table_capacity > 0 {
            self.states as f64 / self.table_capacity as f64
        } else {
            0.0
        }
    }

    /// Fraction of probed arcs deduplicated away.
    pub fn dedup_hit_rate(&self) -> f64 {
        if self.dedup_probes > 0 {
            self.dedup_hits as f64 / self.dedup_probes as f64
        } else {
            0.0
        }
    }
}

/// Why an exploration stopped before exhausting the state space.
///
/// Replaces the old boolean "truncated" flag wherever it leaked into
/// the CLI and exports: a truncated result is only trustworthy if it
/// says *why* it is partial and whether it can be continued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncationReason {
    /// `Limits::max_states` distinct states were admitted and another
    /// new state was reached.
    MaxStates,
    /// `Limits::deadline` expired.
    Deadline,
    /// Every worker died to a panic with work still queued, so part of
    /// the state space was never expanded. (A panic that leaves at
    /// least one worker alive does **not** truncate: the survivors
    /// finish the requeued work and only `worker_panics` records it.)
    WorkerPanic,
    /// The run suspended itself at a checkpoint boundary
    /// (the [`crate::checkpoint::CheckpointCfg::abort_after`] crash
    /// hook); resume to continue it.
    Resumable,
    /// A [`CancelToken`] was triggered; the run stopped at the next
    /// worker safepoint. With checkpointing on, the final checkpoint
    /// makes the job resumable.
    Cancelled,
}

impl std::fmt::Display for TruncationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TruncationReason::MaxStates => "state cap",
            TruncationReason::Deadline => "deadline",
            TruncationReason::WorkerPanic => "worker panic",
            TruncationReason::Resumable => "suspended (resumable)",
            TruncationReason::Cancelled => "cancelled",
        })
    }
}

/// Run diagnostics for one exploration: throughput, dedup behavior, and
/// parallel-engine counters.
///
/// Everything here varies run to run (timing, scheduling); semantic
/// results live on [`Exploration`] itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExplorationStats {
    /// Distinct states admitted to the visited set.
    pub distinct_states: usize,
    /// Wall-clock time of the exploration (cumulative across resumed
    /// legs), [`setup`](Self::setup) included; the teardown after it,
    /// dropping the visited set, is not.
    pub duration: Duration,
    /// Wall-clock time this leg spent before its workers started:
    /// building the engine and seeding the root, or on a resume
    /// restoring the checkpoint's visited set and requeueing its
    /// frontier. Not carried across resumes.
    pub setup: Duration,
    /// Successor arcs that landed on an already-visited state.
    pub dedup_hits: u64,
    /// Total successor arcs probed against the visited set.
    pub dedup_probes: u64,
    /// Peak length of any single worker's frontier deque.
    pub peak_frontier: usize,
    /// Worker threads configured (1 for [`explore_seq`]); a run that
    /// finishes before its peers are due starts fewer.
    pub threads: usize,
    /// Successful work-steals (0 for [`explore_seq`]).
    pub steals: u64,
    /// Successor arcs the partial-order reduction pruned before they
    /// were ever probed (0 when [`Reduction::Full`]).
    pub pruned_arcs: u64,
    /// Why the exploration stopped early, if it did.
    pub truncation: Option<TruncationReason>,
    /// Worker panics absorbed by the engine (each one retired a worker
    /// after requeueing its in-flight state; see
    /// [`TruncationReason::WorkerPanic`]).
    pub worker_panics: u32,
    /// How far past `Limits::deadline` the slowest enforcement point
    /// observed the clock (zero when no deadline was hit). Bounded by
    /// one machine step now that the deadline is enforced per arc.
    pub deadline_overshoot: Duration,
    /// Checkpoints written during this run (0 when checkpointing is
    /// off; cumulative across resumes).
    pub checkpoints: u32,
    /// Wall-clock spent serializing and writing checkpoints (the
    /// overhead knob `--checkpoint-every` trades against).
    pub checkpoint_time: Duration,
    /// Total slot inspections across all visited-set probes (parallel
    /// engine only; average probe length = `probe_steps /
    /// dedup_probes`). Restarts at 0 on a resumed leg.
    pub probe_steps: u64,
    /// Total slots across every shard's active fingerprint level
    /// (parallel engine only); occupancy = `distinct_states /
    /// table_capacity`.
    pub table_capacity: u64,
    /// Encoded states whose payload lives in the disk spill (0 without
    /// a [`Limits::memory_budget`]).
    pub spilled_states: u64,
    /// Bytes appended to the disk spill.
    pub spill_bytes: u64,
    /// Resident bytes of the visited set's in-RAM payloads (parallel
    /// engine only; what [`Limits::memory_budget`] bounds, together
    /// with the index).
    pub mem_bytes: u64,
    /// Final visited-set size per shard (parallel engine only; `None`
    /// for the single-set sequential searches). Shard balance is the
    /// load-balance signal: a skewed fingerprint would show up here as
    /// one hot shard.
    pub shard_states: Option<[usize; N_SHARDS]>,
}

impl ExplorationStats {
    /// Distinct states admitted per second of wall-clock time.
    pub fn states_per_sec(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs > 0.0 {
            self.distinct_states as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// Fraction of successor arcs deduplicated away (`0.0` when nothing
    /// was probed).
    pub fn dedup_hit_rate(&self) -> f64 {
        if self.dedup_probes > 0 {
            self.dedup_hits as f64 / self.dedup_probes as f64
        } else {
            0.0
        }
    }

    /// Fraction of successor arcs the partial-order reduction removed,
    /// out of all arcs the unpruned expansion of the *visited* states
    /// would have produced (`0.0` for a full exploration). Deterministic
    /// for a given machine × program, even under the parallel engine:
    /// the ample choice is a function of the state alone.
    pub fn reduction_ratio(&self) -> f64 {
        let total = self.pruned_arcs + self.dedup_probes;
        if total > 0 {
            self.pruned_arcs as f64 / total as f64
        } else {
            0.0
        }
    }

    /// Load factor of the fingerprint table's active levels (`0.0` for
    /// the sequential engines).
    pub fn table_occupancy(&self) -> f64 {
        if self.table_capacity > 0 {
            self.distinct_states as f64 / self.table_capacity as f64
        } else {
            0.0
        }
    }

    /// Average slots inspected per visited-set probe (`0.0` when
    /// nothing was probed or the engine does not count steps).
    pub fn avg_probe_len(&self) -> f64 {
        if self.dedup_probes > 0 && self.probe_steps > 0 {
            self.probe_steps as f64 / self.dedup_probes as f64
        } else {
            0.0
        }
    }

    /// Folds the exploration diagnostics into `reg` under the `ns.`
    /// prefix: state/arc/steal tallies as counters, rates and durations
    /// as gauges, and (for the parallel engine) per-shard visited-set
    /// sizes plus their max/min balance and the fingerprint-table /
    /// spill gauges.
    pub fn export_metrics(&self, ns: &str, reg: &mut MetricsRegistry) {
        reg.counter(format!("{ns}.states"), self.distinct_states as u64);
        reg.counter(format!("{ns}.dedup-hits"), self.dedup_hits);
        reg.counter(format!("{ns}.dedup-probes"), self.dedup_probes);
        reg.counter(format!("{ns}.pruned-arcs"), self.pruned_arcs);
        reg.counter(format!("{ns}.steals"), self.steals);
        reg.counter(format!("{ns}.peak-frontier"), self.peak_frontier as u64);
        reg.counter(format!("{ns}.threads"), self.threads as u64);
        reg.counter(format!("{ns}.truncated"), u64::from(self.truncation.is_some()));
        reg.counter(
            format!("{ns}.truncated.max-states"),
            u64::from(self.truncation == Some(TruncationReason::MaxStates)),
        );
        reg.counter(
            format!("{ns}.truncated.deadline"),
            u64::from(self.truncation == Some(TruncationReason::Deadline)),
        );
        reg.counter(
            format!("{ns}.truncated.worker-panic"),
            u64::from(self.truncation == Some(TruncationReason::WorkerPanic)),
        );
        reg.counter(
            format!("{ns}.truncated.resumable"),
            u64::from(self.truncation == Some(TruncationReason::Resumable)),
        );
        reg.counter(
            format!("{ns}.truncated.cancelled"),
            u64::from(self.truncation == Some(TruncationReason::Cancelled)),
        );
        reg.counter(format!("{ns}.worker-panics"), u64::from(self.worker_panics));
        reg.counter(format!("{ns}.checkpoints"), u64::from(self.checkpoints));
        reg.gauge(format!("{ns}.checkpoint-time-ms"), self.checkpoint_time.as_secs_f64() * 1e3);
        reg.gauge(
            format!("{ns}.deadline-overshoot-ms"),
            self.deadline_overshoot.as_secs_f64() * 1e3,
        );
        reg.gauge(format!("{ns}.duration-ms"), self.duration.as_secs_f64() * 1e3);
        reg.gauge(format!("{ns}.setup-ms"), self.setup.as_secs_f64() * 1e3);
        reg.gauge(format!("{ns}.dedup-hit-rate"), self.dedup_hit_rate());
        reg.gauge(format!("{ns}.reduction-ratio"), self.reduction_ratio());
        let sps = self.states_per_sec();
        if sps.is_finite() {
            reg.gauge(format!("{ns}.states-per-sec"), sps);
        }
        if self.table_capacity > 0 {
            reg.counter(format!("{ns}.table-capacity"), self.table_capacity);
            reg.gauge(format!("{ns}.table-occupancy"), self.table_occupancy());
            reg.gauge(format!("{ns}.avg-probe-len"), self.avg_probe_len());
            reg.counter(format!("{ns}.mem-bytes"), self.mem_bytes);
            reg.counter(format!("{ns}.spilled-states"), self.spilled_states);
            reg.counter(format!("{ns}.spill-bytes"), self.spill_bytes);
        }
        if let Some(shards) = &self.shard_states {
            reg.counter(format!("{ns}.shard-max"), *shards.iter().max().unwrap_or(&0) as u64);
            reg.counter(format!("{ns}.shard-min"), *shards.iter().min().unwrap_or(&0) as u64);
            for (s, n) in shards.iter().enumerate() {
                if *n > 0 {
                    reg.counter(format!("{ns}.shard{s}.states"), *n as u64);
                }
            }
        }
    }

    /// Emits the per-shard visited-set sizes as counter samples on the
    /// explorer's shard tracks at timestamp `at` (the Chrome exporter
    /// renders one track per shard under the "explorer" process).
    pub fn trace_shards(&self, at: u64, tracer: &mut impl Tracer) {
        if !tracer.enabled() {
            return;
        }
        let Some(shards) = &self.shard_states else {
            return;
        };
        for (s, n) in shards.iter().enumerate() {
            if *n > 0 {
                tracer.record(Event::counter(
                    at,
                    Track::Shard(s as u16),
                    "mc",
                    "states",
                    *n as i64,
                ));
            }
        }
    }
}

impl std::fmt::Display for ExplorationStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} states in {:.1?} ({:.0} states/s, {:.0}% dedup, peak frontier {}, {} thread(s), {} steals{}{}{}{}",
            self.distinct_states,
            self.duration,
            self.states_per_sec(),
            100.0 * self.dedup_hit_rate(),
            self.peak_frontier,
            self.threads,
            self.steals,
            if self.pruned_arcs > 0 {
                format!(", {:.0}% arcs pruned", 100.0 * self.reduction_ratio())
            } else {
                String::new()
            },
            if self.spilled_states > 0 {
                format!(
                    ", spilled {} states ({} bytes) to disk",
                    self.spilled_states, self.spill_bytes
                )
            } else {
                String::new()
            },
            match (self.worker_panics, self.checkpoints) {
                (0, 0) => String::new(),
                (p, 0) => format!(", {p} worker panic(s)"),
                (0, c) => format!(", {c} checkpoint(s)"),
                (p, c) => format!(", {p} worker panic(s), {c} checkpoint(s)"),
            },
            match self.truncation {
                None => String::new(),
                Some(reason) => format!(", TRUNCATED: {reason}"),
            }
        )?;
        f.write_str(")")
    }
}

/// The result of exploring one machine on one program.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Every reachable terminal outcome.
    pub outcomes: BTreeSet<Outcome>,
    /// Number of distinct states visited.
    pub states: usize,
    /// Number of deadlocked states (no transitions, not terminal).
    pub deadlocks: usize,
    /// Why the run stopped early, if it did; `outcomes` is then a
    /// lower bound ([`TruncationReason::Resumable`] additionally means
    /// a checkpoint holds everything needed to continue).
    pub truncation: Option<TruncationReason>,
    /// Run diagnostics (excluded from equality: timing and scheduling
    /// vary run to run even when the semantic results are identical).
    pub stats: ExplorationStats,
}

impl PartialEq for Exploration {
    fn eq(&self, other: &Self) -> bool {
        self.outcomes == other.outcomes
            && self.states == other.states
            && self.deadlocks == other.deadlocks
            && self.truncation == other.truncation
    }
}

impl Eq for Exploration {}

impl Exploration {
    /// Returns `true` if any deadlock was reached.
    pub fn has_deadlock(&self) -> bool {
        self.deadlocks > 0
    }

    /// `true` if the run stopped before exhausting the state space
    /// (see [`Exploration::truncation`] for why).
    pub fn truncated(&self) -> bool {
        self.truncation.is_some()
    }
}

/// How often a worker re-checks the wall-clock deadline between state
/// pops when no deadline is near. The deadline is *also* enforced at
/// per-arc granularity inside [`Engine::expand`] (after every
/// `successors` call and per admitted arc), so this coarse check only
/// bounds how long an idle-ish worker keeps spinning.
const DEADLINE_CHECK_EVERY: u32 = 128;

/// How often a worker re-checks whether a progress sample is due,
/// in state pops. Only decremented when a [`ProgressSink`] is attached;
/// without one the progress path is a single untaken branch per pop.
const PROGRESS_CHECK_EVERY: u32 = 64;

/// Per-worker cap on decoded states kept in the hot tail. Beyond it the
/// oldest entries park in the shared frontier as bare ids: worker
/// memory stays bounded at `HOT_CAP` states while deep depth-first
/// spines still skip (nearly) every decode. Parking for an idle peer
/// does not wait for the cap.
const HOT_CAP: usize = 1024;

/// Per-worker cap on retired states kept for reuse; more would just be
/// dead weight, since one expansion never needs more scratch states
/// than its arc count.
const POOL_CAP: usize = 64;

/// Returns a retired state to `pool` unless it is already full.
fn recycle<S>(pool: &mut Vec<S>, s: S) {
    if pool.len() < POOL_CAP {
        pool.push(s);
    }
}

/// Locks a mutex, tolerating poison: a worker that panicked while
/// holding a frontier lock must not cascade into aborting every other
/// worker. The protected structures are valid after a panic (collection
/// operations are atomic with respect to unwinding: a push either
/// happened or did not), so the data is usable; the panic itself is
/// accounted for by the panic-isolation protocol in
/// [`Engine::run_worker`].
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Where a run's checkpoint lives, if it has one — see [`Opts`].
#[derive(Debug, Clone, Copy, Default)]
pub enum Checkpoint<'a> {
    /// No crash tolerance: nothing is read or written.
    #[default]
    Off,
    /// Start fresh and autosave into the config's directory every
    /// `every` admitted states, plus a final save when the run stops
    /// for any reason (so deadline-truncated, cancelled and even
    /// completed runs are resumable).
    Fresh(&'a CheckpointCfg),
    /// Continue from the checkpoint in the config's directory, and keep
    /// autosaving there. The checkpoint's configuration fingerprint
    /// must match this run's machine, program, state cap and reduction
    /// mode (thread count, deadline and memory budget may differ —
    /// they are resources, not semantics), or the run is refused with
    /// [`CheckpointError::ConfigMismatch`]. The final `outcomes`,
    /// `states` and `deadlocks` equal an uninterrupted run's.
    Resume(&'a CheckpointCfg),
}

/// The options of one [`run`]. `Opts::default()` is a plain run: not
/// cancellable, unmonitored, not checkpointed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Opts<'a> {
    /// Stops the run at the next safepoint once cancelled; the run
    /// truncates with [`TruncationReason::Cancelled`].
    pub cancel: Option<&'a CancelToken>,
    /// Receives periodic counter samples. Pure observation: results
    /// are identical with or without a sink.
    pub progress: Option<&'a ProgressSink>,
    /// Crash tolerance: autosave, and optionally resume first.
    pub checkpoint: Checkpoint<'a>,
}

/// A run's checkpoint file, pinned to its configuration fingerprint.
#[derive(Clone, Copy)]
struct CkptSink<'a> {
    cfg: &'a CheckpointCfg,
    fp: u64,
}

impl<'a> CkptSink<'a> {
    /// Resolves a run's checkpoint option into the sink it autosaves
    /// through and, when resuming, the snapshot to continue from.
    /// Computes the fingerprint only when checkpointing is on: plain
    /// runs pay nothing for it.
    fn open<S: Codec>(
        checkpoint: Checkpoint<'a>,
        machine: &str,
        prog: &Program,
        limits: &Limits,
    ) -> Result<(Option<Self>, Option<Snapshot<S>>), CheckpointError> {
        let (cfg, resume) = match checkpoint {
            Checkpoint::Off => return Ok((None, None)),
            Checkpoint::Fresh(cfg) => (cfg, false),
            Checkpoint::Resume(cfg) => (cfg, true),
        };
        let sink = CkptSink { cfg, fp: config_fingerprint(machine, prog, limits) };
        let snap = if resume { Some(checkpoint::load(cfg, sink.fp)?) } else { None };
        Ok((Some(sink), snap))
    }

    fn write<S: Codec>(&self, snap: &Snapshot<S>) -> Result<(), CheckpointError> {
        checkpoint::save(self.cfg, self.fp, snap)
    }
}

/// Shared state of the checkpoint rendezvous (present only when the
/// run checkpoints).
///
/// A consistent snapshot of a parallel exploration needs quiescence:
/// every worker parked at its loop-top safepoint, holding no in-flight
/// state (the depth-first hot tail included — it is parked back into the
/// deque first), so that `frontier = admitted − expanded` exactly. The
/// first worker to cross the `next_at` admission threshold elects
/// itself coordinator (CAS on `pause`), everyone else parks, the
/// coordinator serializes and resumes the fleet. Workers publish their
/// local outcome/deadlock accumulators into `published` every time they
/// park or retire, so the coordinator sees every result without
/// joining.
struct CkptState<'a> {
    sink: CkptSink<'a>,
    /// A coordinator holds this while the fleet is parked.
    pause: AtomicBool,
    /// Workers currently parked at the safepoint.
    parked: AtomicUsize,
    /// Next admission count that triggers a periodic save.
    next_at: AtomicUsize,
    /// Periodic saves completed.
    written: AtomicU32,
    /// Wall-clock nanoseconds spent writing checkpoints.
    write_nanos: AtomicU64,
    /// Set when a save failed; the run stops and reports `error`.
    failed: AtomicBool,
    error: Mutex<Option<CheckpointError>>,
    /// Per-worker cumulative results, refreshed at every park/retire.
    published: Vec<Mutex<WorkerResult>>,
}

struct Engine<'a, M: Machine> {
    machine: &'a M,
    prog: &'a Program,
    limits: Limits,
    /// The lock-free visited set; also the arena every frontier id
    /// points into.
    visited: VisitedSet,
    /// One frontier deque of visited-set ids per worker. The owner
    /// pushes and pops at the back (depth-first); thieves take from the
    /// front, where the shallowest — and therefore usually largest —
    /// subtrees sit. Ids are 8 bytes, so steals move words, not states.
    frontiers: Vec<Mutex<VecDeque<u64>>>,
    /// States admitted but not yet fully expanded (queued, in a
    /// worker's hot tail, or mid-expansion). Workers may only retire when
    /// this reaches zero: an empty frontier alone does not mean the
    /// exploration is done (a peer may be mid-expansion and about to
    /// publish new work).
    pending: AtomicUsize,
    /// Set on truncation: everyone drains out immediately.
    stop: AtomicBool,
    capped: AtomicBool,
    deadline_hit: AtomicBool,
    /// Set when the run suspends itself at a checkpoint boundary.
    resumable: AtomicBool,
    /// Set when the run's [`CancelToken`] fired.
    cancelled: AtomicBool,
    /// Cooperative cancellation, checked at the same safepoints as the
    /// deadline (`None`: not cancellable).
    cancel: Option<CancelToken>,
    /// Live progress counters, published at the same safepoints
    /// (`None`: no monitoring, no cost beyond one untaken branch).
    progress: Option<ProgressSink>,
    deadline_at: Option<Instant>,
    /// Worst observed overshoot past the deadline, in nanoseconds.
    overshoot_nanos: AtomicU64,
    /// Started workers still in their run loop. Worker 0 counts from
    /// the start, its peers from when it starts them (see
    /// [`run_workers`]); retiring workers (normal drain-out, stop, or
    /// absorbed panic) decrement it, so a checkpoint coordinator never
    /// waits for a worker that has not started or has departed.
    active: AtomicUsize,
    /// Workers currently out of work, waiting on a peer. A worker with
    /// a hot tail that sees it non-zero parks half the tail for them.
    /// A hint only (`Relaxed`): it publishes no data, and a stale read
    /// costs one early or late split.
    idle: AtomicUsize,
    /// Panics absorbed by the isolation protocol.
    worker_panics: AtomicU64,
    steals: AtomicU64,
    peak_frontier: AtomicUsize,
    pruned_arcs: AtomicU64,
    /// Static future-footprint table driving the ample-set choice;
    /// `None` when the reduction is off (or unavailable for the
    /// program).
    reduction: Option<FutureTable>,
    /// Checkpoint rendezvous, when the run checkpoints.
    ckpt: Option<CkptState<'a>>,
    /// Results merged in from a resumed checkpoint (empty otherwise):
    /// outcomes, deadlocks, checkpoints written, prior elapsed nanos.
    base: ResumeBase,
    /// When this leg of the run started (for cumulative elapsed time
    /// in periodic checkpoints).
    started: Instant,
}

/// What a resumed run inherits from its checkpoint.
#[derive(Default)]
struct ResumeBase {
    outcomes: BTreeSet<Outcome>,
    deadlocks: u64,
    checkpoints: u32,
    elapsed_nanos: u64,
    checkpoint_nanos: u64,
}

/// What one worker accumulated locally; merged at join.
#[derive(Clone, Default)]
struct WorkerResult {
    outcomes: BTreeSet<Outcome>,
    deadlocks: usize,
}

/// How one expansion ended.
enum Step {
    /// The state was fully classified/expanded.
    Done,
    /// Truncation struck mid-expansion: the state must be requeued so
    /// its remaining successors are recoverable (by a resume, or just
    /// by an accurate frontier in the final checkpoint).
    Interrupted,
}

impl<'a, M: Machine> Engine<'a, M> {
    fn new(
        machine: &'a M,
        prog: &'a Program,
        limits: Limits,
        workers: usize,
        opts: &Opts<'_>,
    ) -> Self {
        let started = Instant::now();
        Engine {
            machine,
            prog,
            limits,
            visited: VisitedSet::new(limits.memory_budget),
            frontiers: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            capped: AtomicBool::new(false),
            deadline_hit: AtomicBool::new(false),
            resumable: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            cancel: opts.cancel.cloned(),
            progress: opts.progress.cloned(),
            deadline_at: limits.deadline.map(|d| started + d),
            overshoot_nanos: AtomicU64::new(0),
            active: AtomicUsize::new(1),
            idle: AtomicUsize::new(0),
            worker_panics: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            peak_frontier: AtomicUsize::new(0),
            pruned_arcs: AtomicU64::new(0),
            reduction: match limits.reduction {
                Reduction::Full => None,
                Reduction::Ample => FutureTable::new(prog),
            },
            ckpt: None,
            base: ResumeBase::default(),
            started,
        }
    }

    /// Attaches the checkpoint rendezvous (before workers start, after
    /// a resumed visited set is rebuilt: the first periodic save is due
    /// `every` admissions from here).
    fn with_checkpointing(mut self, sink: CkptSink<'a>) -> Self {
        let workers = self.frontiers.len();
        let every = sink.cfg.every;
        self.ckpt = Some(CkptState {
            sink,
            pause: AtomicBool::new(false),
            parked: AtomicUsize::new(0),
            next_at: AtomicUsize::new(if every == 0 {
                usize::MAX
            } else {
                self.visited.len() + every
            }),
            written: AtomicU32::new(0),
            write_nanos: AtomicU64::new(0),
            failed: AtomicBool::new(false),
            error: Mutex::new(None),
            published: (0..workers).map(|_| Mutex::new(WorkerResult::default())).collect(),
        });
        self
    }

    /// Admits the initial state unconditionally (mirrors the DFS, which
    /// seeds its visited set before checking any cap) and queues it.
    fn seed_root(&self) {
        let mut buf = Vec::new();
        self.machine.initial(self.prog).encode(&mut buf);
        let (id, _) = self.visited.insert(hash_bytes(&buf), &buf);
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.push_id(0, id);
    }

    /// Queues an admitted-but-unexpanded state's id. The `pending`
    /// obligation for it was taken at admission and is untouched here,
    /// so requeues (deadline, panic, hot-tail parking) are balanced.
    fn push_id(&self, worker: usize, id: u64) {
        let mut q = lock_clean(&self.frontiers[worker]);
        q.push_back(id);
        let len = q.len();
        drop(q);
        self.peak_frontier.fetch_max(len, Ordering::Relaxed);
    }

    /// Parks the `n` oldest hot-tail entries in `worker`'s deque by id
    /// and recycles their decoded states. Like a requeue, parking moves
    /// `pending` obligations without changing them, so snapshots and
    /// resume see parked work exactly as queued work.
    fn park_hot(
        &self,
        worker: usize,
        hot: &mut VecDeque<(u64, M::State)>,
        pool: &mut Vec<M::State>,
        n: usize,
    ) {
        let mut q = lock_clean(&self.frontiers[worker]);
        for (id, s) in hot.drain(..n) {
            q.push_back(id);
            recycle(pool, s);
        }
        let len = q.len();
        drop(q);
        self.peak_frontier.fetch_max(len, Ordering::Relaxed);
    }

    fn pop_local(&self, worker: usize) -> Option<u64> {
        lock_clean(&self.frontiers[worker]).pop_back()
    }

    /// Steals roughly half of the first non-empty victim deque (front
    /// half: the shallowest states, whose subtrees amortize the steal),
    /// moves it into the local deque, and returns one id to run.
    fn steal_into(&self, worker: usize) -> Option<u64> {
        let n = self.frontiers.len();
        for offset in 1..n {
            let victim = (worker + offset) % n;
            let mut booty: VecDeque<u64> = {
                let mut v = lock_clean(&self.frontiers[victim]);
                let take = v.len().div_ceil(2);
                if take == 0 {
                    continue;
                }
                v.drain(..take).collect()
            };
            self.steals.fetch_add(1, Ordering::Relaxed);
            let first = booty.pop_front();
            if !booty.is_empty() {
                let mut local = lock_clean(&self.frontiers[worker]);
                local.extend(booty.drain(..));
            }
            return first;
        }
        None
    }

    /// Decodes the state an id names back out of the exact store.
    fn decode_state(&self, id: u64) -> M::State {
        self.visited.with_bytes(id, |b| {
            M::State::decode(&mut Reader::new(b)).expect("visited-set bytes decode to a state")
        })
    }

    fn truncate(&self, reason: TruncationReason) {
        match reason {
            TruncationReason::MaxStates => self.capped.store(true, Ordering::Relaxed),
            TruncationReason::Deadline => self.deadline_hit.store(true, Ordering::Relaxed),
            TruncationReason::Resumable => self.resumable.store(true, Ordering::Relaxed),
            TruncationReason::Cancelled => self.cancelled.store(true, Ordering::Relaxed),
            // WorkerPanic is inferred at the end (work left + all dead),
            // never raised mid-run: surviving workers may yet finish.
            TruncationReason::WorkerPanic => {}
        }
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Notes the clock ran `now - deadline` past the budget.
    fn record_overshoot(&self, deadline: Instant, now: Instant) {
        let ns = now.saturating_duration_since(deadline).as_nanos().min(u128::from(u64::MAX));
        self.overshoot_nanos.fetch_max(ns as u64, Ordering::Relaxed);
    }

    /// The progress safepoint: when a sample is due, flush this
    /// worker's probe batch so the shared counters are fresh, then
    /// publish (see [`ProgressSink::tick`]).
    fn progress_tick(&self, tel: &mut ProbeTelemetry) {
        if let Some(p) = &self.progress {
            p.tick(|| {
                self.visited.flush_telemetry(tel);
                self.progress_sample()
            });
        }
    }

    /// The engine's current counters as a progress sample. Every
    /// source is monotone within one engine except `pending`, which is
    /// published as the `frontier` gauge.
    fn progress_sample(&self) -> ProgressSnapshot {
        let v = self.visited.counters();
        ProgressSnapshot {
            seq: 0,
            states: self.visited.len() as u64,
            frontier: self.pending.load(Ordering::Relaxed) as u64,
            dedup_hits: v.dedup_hits,
            dedup_probes: v.dedup_probes,
            pruned_arcs: self.pruned_arcs.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            table_capacity: v.table_capacity,
            mem_bytes: v.mem_bytes,
            elapsed: Duration::from_nanos(self.base.elapsed_nanos) + self.started.elapsed(),
        }
    }

    /// Copies a worker's cumulative results into its published slot so
    /// a checkpoint coordinator can merge them without joining the
    /// thread.
    fn publish(&self, worker: usize, out: &WorkerResult) {
        if let Some(c) = &self.ckpt {
            *lock_clean(&c.published[worker]) = out.clone();
        }
    }

    /// `true` when a checkpoint rendezvous is requested or due, which
    /// is when a worker must park its hot tail (it would otherwise
    /// keep it out of the safepoint for an entire depth-first spine).
    fn ckpt_pending(&self) -> bool {
        self.ckpt.as_ref().is_some_and(|c| {
            c.pause.load(Ordering::SeqCst)
                || (c.sink.cfg.every != 0
                    && !c.failed.load(Ordering::Relaxed)
                    && self.visited.len() >= c.next_at.load(Ordering::Relaxed))
        })
    }

    /// The loop-top safepoint of the checkpoint rendezvous: park if a
    /// coordinator paused the fleet, or become the coordinator if the
    /// periodic threshold was crossed. Called with no in-flight state,
    /// which is what makes the resulting snapshot consistent.
    fn ckpt_safepoint(&self, worker: usize, out: &WorkerResult, tel: &mut ProbeTelemetry) {
        let Some(c) = &self.ckpt else { return };
        loop {
            if c.pause.load(Ordering::SeqCst) {
                self.publish(worker, out);
                // Snapshots read the shared counters while the fleet is
                // parked: our batch must land first.
                self.visited.flush_telemetry(tel);
                c.parked.fetch_add(1, Ordering::SeqCst);
                while c.pause.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                    std::thread::yield_now();
                }
                c.parked.fetch_sub(1, Ordering::SeqCst);
                continue; // re-check: another save may begin immediately
            }
            if c.sink.cfg.every != 0
                && !self.stop.load(Ordering::Relaxed)
                && !c.failed.load(Ordering::Relaxed)
                && self.visited.len() >= c.next_at.load(Ordering::Relaxed)
            {
                if c.pause.compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst).is_ok()
                {
                    self.visited.flush_telemetry(tel);
                    self.coordinate(worker, c, out);
                }
                continue; // lost the race: loop around and park
            }
            return;
        }
    }

    /// Runs one checkpoint as the elected coordinator: wait for every
    /// other live worker to park, serialize the quiescent engine, then
    /// release the fleet.
    fn coordinate(&self, worker: usize, c: &CkptState<'a>, out: &WorkerResult) {
        self.publish(worker, out);
        // Workers either park (parked += 1) or retire (active -= 1);
        // both make progress, so this terminates.
        while c.parked.load(Ordering::SeqCst) + 1 < self.active.load(Ordering::SeqCst) {
            std::hint::spin_loop();
            std::thread::yield_now();
        }
        let wrote = Instant::now();
        let snap = self.snapshot(None);
        match c.sink.write(&snap) {
            Ok(()) => {
                c.write_nanos.fetch_add(
                    wrote.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
                    Ordering::Relaxed,
                );
                let n = c.written.fetch_add(1, Ordering::SeqCst) + 1;
                c.next_at.store(self.visited.len() + c.sink.cfg.every, Ordering::SeqCst);
                if c.sink.cfg.abort_after.is_some_and(|k| n >= k) {
                    self.truncate(TruncationReason::Resumable);
                }
            }
            Err(e) => {
                *lock_clean(&c.error) = Some(e);
                c.failed.store(true, Ordering::SeqCst);
                // Checkpointing was requested and is broken: fail fast
                // rather than run hours more with no crash tolerance.
                self.stop.store(true, Ordering::SeqCst);
            }
        }
        c.pause.store(false, Ordering::SeqCst);
    }

    /// A consistent image of the engine, decoded back out of the exact
    /// store. Callers guarantee quiescence (rendezvous mid-run, or all
    /// workers joined at the end); every hot tail is parked in a deque at
    /// those points, so the frontier below is exact.
    fn snapshot(&self, truncation: Option<TruncationReason>) -> Snapshot<M::State> {
        let mut outcomes = self.base.outcomes.clone();
        let mut deadlocks = self.base.deadlocks;
        if let Some(c) = &self.ckpt {
            for slot in &c.published {
                let r = lock_clean(slot);
                outcomes.extend(r.outcomes.iter().cloned());
                deadlocks += r.deadlocks as u64;
            }
        }
        let shards: Vec<Vec<M::State>> = (0..N_SHARDS)
            .map(|s| {
                let mut v = Vec::new();
                self.visited.for_each_in_shard(s, |b| {
                    v.push(
                        M::State::decode(&mut Reader::new(b))
                            .expect("visited-set bytes decode to a state"),
                    );
                });
                v
            })
            .collect();
        let frontier: Vec<M::State> = self
            .frontiers
            .iter()
            .flat_map(|f| lock_clean(f).iter().copied().collect::<Vec<_>>())
            .map(|id| self.decode_state(id))
            .collect();
        Snapshot {
            outcomes,
            deadlocks,
            counters: self.persisted_counters(),
            truncation,
            shards,
            frontier,
        }
    }

    fn persisted_counters(&self) -> PersistedCounters {
        let (written, write_nanos) = match &self.ckpt {
            Some(c) => (c.written.load(Ordering::Relaxed), c.write_nanos.load(Ordering::Relaxed)),
            None => (0, 0),
        };
        let v = self.visited.counters();
        PersistedCounters {
            distinct: self.visited.len() as u64,
            dedup_hits: v.dedup_hits,
            dedup_probes: v.dedup_probes,
            pruned_arcs: self.pruned_arcs.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            peak_frontier: self.peak_frontier.load(Ordering::Relaxed) as u64,
            elapsed_nanos: self.base.elapsed_nanos
                + self.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            checkpoints: self.base.checkpoints + written,
            ckpt_write_nanos: self.base.checkpoint_nanos + write_nanos,
            worker_panics: self.worker_panics.load(Ordering::Relaxed) as u32,
            overshoot_nanos: self.overshoot_nanos.load(Ordering::Relaxed),
        }
    }

    /// One worker's main loop. Worker 0 carries `peers`: the instant
    /// its peers are due and the hook that starts them, called at the
    /// first loop top past that instant.
    fn run_worker(
        &self,
        worker: usize,
        mut peers: Option<(Instant, &mut dyn FnMut())>,
    ) -> WorkerResult {
        let mut out = WorkerResult::default();
        let mut succ: Vec<(Label, M::State)> = Vec::new();
        // Encode scratch, reused across every successor of every state.
        let mut buf: Vec<u8> = Vec::new();
        // The newest admissions, kept decoded (newest at the back):
        // expanding them LIFO — exactly what pop_local would return —
        // skips the codec round-trip on the whole depth-first spine.
        // Only the deque is visible to stealers. Overflow parks the
        // *oldest* entry there by id, keeping worker memory at HOT_CAP
        // states, and an idle peer gets the older half (see below).
        let mut hot: VecDeque<(u64, M::State)> = VecDeque::new();
        // Retired successor states, recycled through
        // `Machine::successors_into` so steady-state expansion reuses
        // their heap allocations instead of cloning fresh.
        let mut pool: Vec<M::State> = Vec::new();
        // Probe counters batch locally and flush at the quiescence
        // points (park, retire): three shared `fetch_add`s per arc
        // would ping-pong one cache line between every worker.
        let mut tel = ProbeTelemetry::default();
        let mut until_deadline_check = DEADLINE_CHECK_EVERY;
        let mut until_progress_check = PROGRESS_CHECK_EVERY;
        // Whether this worker is counted in `self.idle`.
        let mut idle = false;
        loop {
            if peers.as_ref().is_some_and(|(due, _)| Instant::now() >= *due) {
                if let Some((_, start)) = peers.take() {
                    start();
                }
            }
            // Park the hot tail before stopping or entering a
            // rendezvous: snapshots must see it in the frontier, and a
            // coordinator must not wait on a worker that never reaches
            // the safepoint because its hot tail keeps refilling.
            if !hot.is_empty() && (self.stop.load(Ordering::Relaxed) || self.ckpt_pending()) {
                let all = hot.len();
                self.park_hot(worker, &mut hot, &mut pool, all);
            } else if hot.len() > 1
                && self.idle.load(Ordering::Relaxed) > 0
                && lock_clean(&self.frontiers[worker]).is_empty()
            {
                // A peer is out of work and nothing here is stealable:
                // park the older, shallower half of the hot tail for it.
                // A lone worker with no work has nothing pending and
                // retires instead of idling, so 1-worker runs (and
                // worker 0 before its peers start) never get here.
                let half = hot.len() / 2;
                self.park_hot(worker, &mut hot, &mut pool, half);
            }
            if hot.is_empty() {
                self.ckpt_safepoint(worker, &out, &mut tel);
                if self.stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                self.truncate(TruncationReason::Cancelled);
                continue; // loop top parks the hot tail, then breaks
            }
            let (id, pre) = match hot.pop_back() {
                Some((id, s)) => (id, Some(s)),
                None => match self.pop_local(worker).or_else(|| self.steal_into(worker)) {
                    Some(id) => (id, None),
                    None => {
                        if self.pending.load(Ordering::SeqCst) == 0 {
                            break; // No queued work, no peer mid-expansion: done.
                        }
                        if !idle {
                            idle = true;
                            self.idle.fetch_add(1, Ordering::Relaxed);
                        }
                        // Keep samples flowing while idling on a peer's
                        // in-flight expansion (the due-time gate makes
                        // this a clock read, not a publish storm).
                        if self.progress.is_some() {
                            self.progress_tick(&mut tel);
                        }
                        std::hint::spin_loop();
                        std::thread::yield_now();
                        continue;
                    }
                },
            };
            if idle {
                idle = false;
                self.idle.fetch_sub(1, Ordering::Relaxed);
            }
            if self.progress.is_some() {
                until_progress_check -= 1;
                if until_progress_check == 0 {
                    until_progress_check = PROGRESS_CHECK_EVERY;
                    self.progress_tick(&mut tel);
                }
            }
            if let Some(deadline) = self.deadline_at {
                until_deadline_check -= 1;
                if until_deadline_check == 0 {
                    until_deadline_check = DEADLINE_CHECK_EVERY;
                    let now = Instant::now();
                    if now >= deadline {
                        self.record_overshoot(deadline, now);
                        self.truncate(TruncationReason::Deadline);
                        // Keep the popped id recoverable: back into
                        // the frontier, not dropped on the floor.
                        self.push_id(worker, id);
                        break;
                    }
                }
            }
            // Panic isolation: a machine's `successors`/`outcome` (or
            // the codec) may panic. Absorb it, requeue the in-flight id
            // for a surviving worker, and retire this worker — the run
            // degrades to fewer threads instead of aborting or
            // deadlocking (the locks tolerate poison, see `lock_clean`).
            let step = catch_unwind(AssertUnwindSafe(|| {
                let state = match pre {
                    Some(s) => s,
                    None => self.decode_state(id),
                };
                let step = self.expand(
                    worker, &state, &mut succ, &mut buf, &mut hot, &mut pool, &mut tel, &mut out,
                );
                recycle(&mut pool, state);
                step
            }));
            match step {
                Ok(Step::Done) => {
                    self.pending.fetch_sub(1, Ordering::SeqCst);
                }
                Ok(Step::Interrupted) => {
                    // Truncation struck mid-expansion; `truncate` has
                    // set `stop`. Requeue so the final checkpoint's
                    // frontier stays exact (the admission obligation is
                    // untouched — see `push_id`).
                    self.push_id(worker, id);
                    break;
                }
                Err(_) => {
                    self.worker_panics.fetch_add(1, Ordering::SeqCst);
                    self.push_id(worker, id);
                    break;
                }
            }
        }
        if idle {
            self.idle.fetch_sub(1, Ordering::Relaxed);
        }
        // Any hot tail survives the break paths above; park it so peers
        // (or the final snapshot) pick it up.
        let all = hot.len();
        self.park_hot(worker, &mut hot, &mut pool, all);
        // Retire: publish final results *before* leaving the active
        // set, so a coordinator that stops waiting for us still sees
        // everything we found.
        self.visited.flush_telemetry(&mut tel);
        self.publish(worker, &out);
        self.active.fetch_sub(1, Ordering::SeqCst);
        out
    }

    /// Classifies one state and enqueues its unseen successors.
    ///
    /// Interruption safety (for requeue-and-re-expand): outcomes and
    /// deadlocks are classified *before* any successor is admitted and
    /// return immediately, so an [`Step::Interrupted`] state was never
    /// counted, and re-expanding it later re-derives successors whose
    /// already-admitted prefix simply dedups away.
    fn expand(
        &self,
        worker: usize,
        state: &M::State,
        succ: &mut Vec<(Label, M::State)>,
        buf: &mut Vec<u8>,
        hot: &mut VecDeque<(u64, M::State)>,
        pool: &mut Vec<M::State>,
        tel: &mut ProbeTelemetry,
        out: &mut WorkerResult,
    ) -> Step {
        if let Some(outcome) = self.machine.outcome(self.prog, state) {
            out.outcomes.insert(outcome);
            return Step::Done;
        }
        succ.clear();
        self.machine.successors_into(self.prog, state, succ, pool);
        // Per-arc cancellation: like the deadline below, re-checked
        // right after the potentially slow machine step so a cancel
        // lands within one step per worker.
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            self.truncate(TruncationReason::Cancelled);
            return Step::Interrupted;
        }
        // Per-arc deadline enforcement: `successors` is the potentially
        // slow machine step, so re-read the clock right after it rather
        // than letting a slow transition function overshoot the budget
        // by up to DEADLINE_CHECK_EVERY states.
        if let Some(deadline) = self.deadline_at {
            let now = Instant::now();
            if now >= deadline {
                self.record_overshoot(deadline, now);
                self.truncate(TruncationReason::Deadline);
                return Step::Interrupted;
            }
        }
        if succ.is_empty() {
            out.deadlocks += 1;
            return Step::Done;
        }
        if let Some(table) = &self.reduction {
            if let Some(keep) = ample_index(self.machine, state, succ, table) {
                self.pruned_arcs.fetch_add(succ.len() as u64 - 1, Ordering::Relaxed);
                succ.swap(0, keep);
                succ.truncate(1);
            }
        }
        for (_, next) in succ.drain(..) {
            // The encode is the hash walk: one traversal produces the
            // dedup key, the fingerprint, and (on admission) the stored
            // payload.
            buf.clear();
            next.encode(buf);
            let fp = hash_bytes(buf);
            match self.visited.admit_batched(fp, buf, self.limits.max_states, tel) {
                Admit::New(id) => {
                    self.pending.fetch_add(1, Ordering::SeqCst);
                    // Keep the admission decoded in the hot tail (its
                    // back is exactly what pop_local would return
                    // next); overflow parks the oldest entry by id.
                    hot.push_back((id, next));
                    if hot.len() > HOT_CAP {
                        self.park_hot(worker, hot, pool, 1);
                    }
                }
                Admit::Seen(_) => recycle(pool, next),
                Admit::Capped => {
                    self.truncate(TruncationReason::MaxStates);
                    return Step::Interrupted;
                }
            }
        }
        Step::Done
    }

    /// Why the run stopped early, if it did — called after the workers
    /// joined (quiescent).
    fn truncation(&self) -> Option<TruncationReason> {
        if self.capped.load(Ordering::Relaxed) {
            Some(TruncationReason::MaxStates)
        } else if self.deadline_hit.load(Ordering::Relaxed) {
            Some(TruncationReason::Deadline)
        } else if self.cancelled.load(Ordering::Relaxed) {
            Some(TruncationReason::Cancelled)
        } else if self.resumable.load(Ordering::Relaxed) {
            Some(TruncationReason::Resumable)
        } else if self.pending.load(Ordering::SeqCst) != 0 {
            // Work was queued but nobody is left to run it: every
            // worker died to a panic. The visited set is intact and the
            // collected outcomes are a valid lower bound.
            debug_assert!(self.worker_panics.load(Ordering::Relaxed) > 0);
            Some(TruncationReason::WorkerPanic)
        } else {
            None
        }
    }

    /// Rebuilds a checkpoint's visited set (re-encoding each state;
    /// shard and id assignment are recomputed), restores the durable
    /// counters it carried, and returns its frontier for [`Self::requeue`].
    fn restore(&mut self, snap: Snapshot<M::State>) -> Vec<M::State> {
        let mut buf = Vec::new();
        for states in snap.shards {
            for s in states {
                buf.clear();
                s.encode(&mut buf);
                self.visited.insert(hash_bytes(&buf), &buf);
            }
        }
        let c = snap.counters;
        self.visited.restore_probe_counters(c.dedup_hits, c.dedup_probes);
        self.steals.store(c.steals, Ordering::Relaxed);
        self.pruned_arcs.store(c.pruned_arcs, Ordering::Relaxed);
        self.peak_frontier
            .store(usize::try_from(c.peak_frontier).unwrap_or(usize::MAX), Ordering::Relaxed);
        self.worker_panics.store(u64::from(c.worker_panics), Ordering::Relaxed);
        self.overshoot_nanos.store(c.overshoot_nanos, Ordering::Relaxed);
        self.base = ResumeBase {
            outcomes: snap.outcomes,
            deadlocks: snap.deadlocks,
            checkpoints: c.checkpoints,
            elapsed_nanos: c.elapsed_nanos,
            checkpoint_nanos: c.ckpt_write_nanos,
        };
        snap.frontier
    }

    /// Round-robins a restored frontier across the workers, mapped back
    /// to ids (every frontier state is in the visited set by the
    /// checkpoint invariant, so `insert` is a pure lookup here). An
    /// empty frontier (the run had finished) just means the workers
    /// drain out immediately and the stored results are returned as-is.
    fn requeue(&self, frontier: Vec<M::State>) {
        let mut buf = Vec::new();
        for (i, s) in frontier.into_iter().enumerate() {
            buf.clear();
            s.encode(&mut buf);
            let (id, fresh) = self.visited.insert(hash_bytes(&buf), &buf);
            debug_assert!(!fresh, "checkpoint frontier states are admitted by construction");
            self.pending.fetch_add(1, Ordering::SeqCst);
            self.push_id(i % self.frontiers.len(), id);
        }
    }

    /// Folds up the joined run. A checkpointed run first surfaces any
    /// mid-run save failure and writes its final checkpoint, so
    /// deadline/cap-truncated and even completed runs are resumable.
    fn finish(
        self,
        results: Vec<WorkerResult>,
        setup: Duration,
    ) -> Result<Exploration, CheckpointError> {
        if let Some(c) = &self.ckpt {
            if c.failed.load(Ordering::Relaxed) {
                return Err(lock_clean(&c.error)
                    .take()
                    .unwrap_or(CheckpointError::Malformed("checkpoint write failed")));
            }
            let wrote = Instant::now();
            c.sink.write(&self.snapshot(self.truncation()))?;
            c.write_nanos.fetch_add(
                wrote.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
                Ordering::Relaxed,
            );
            c.written.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(p) = &self.progress {
            p.publish(&self.progress_sample());
        }
        let mut outcomes = self.base.outcomes.clone();
        let mut deadlocks = usize::try_from(self.base.deadlocks).unwrap_or(usize::MAX);
        for r in results {
            outcomes.extend(r.outcomes);
            deadlocks += r.deadlocks;
        }
        let truncation = self.truncation();
        let counters = self.persisted_counters();
        let v = self.visited.counters();
        let stats = ExplorationStats {
            distinct_states: self.visited.len(),
            duration: Duration::from_nanos(self.base.elapsed_nanos) + self.started.elapsed(),
            setup,
            dedup_hits: counters.dedup_hits,
            dedup_probes: counters.dedup_probes,
            peak_frontier: self.peak_frontier.load(Ordering::Relaxed),
            threads: self.frontiers.len(),
            steals: counters.steals,
            pruned_arcs: counters.pruned_arcs,
            truncation,
            worker_panics: counters.worker_panics,
            deadline_overshoot: Duration::from_nanos(counters.overshoot_nanos),
            checkpoints: counters.checkpoints,
            checkpoint_time: Duration::from_nanos(counters.ckpt_write_nanos),
            probe_steps: v.probe_steps,
            table_capacity: v.table_capacity,
            spilled_states: v.spilled_states,
            spill_bytes: v.spill_bytes,
            mem_bytes: v.mem_bytes,
            shard_states: Some(self.visited.shard_sizes()),
        };
        Ok(Exploration { outcomes, states: stats.distinct_states, deadlocks, truncation, stats })
    }
}

/// Explores the reachable state space of `machine` running `prog`: the
/// one entry point of the model checker.
///
/// The parallel engine runs on `limits.threads` workers (all available
/// cores by default) and prunes successors as `limits.reduction` says.
/// `outcomes`, `states`, `deadlocks`, and `truncated` are identical to
/// [`explore_seq`]'s under the same reduction whenever the exploration
/// is not truncated — the engines differ only in visit order, which the
/// exact visited set makes unobservable. Truncated explorations stop at
/// the same state count but may retain a different (schedule-dependent)
/// sample of outcomes; both are lower bounds. [`Reduction::Ample`]
/// preserves `outcomes` and `deadlocks` but visits fewer states.
///
/// `opts` adds cancellation, live progress and checkpoint/resume; see
/// [`Opts`]. Only checkpoint IO can fail.
pub fn run<M: Machine>(
    machine: &M,
    prog: &Program,
    limits: Limits,
    opts: &Opts<'_>,
) -> Result<Exploration, CheckpointError> {
    let (sink, snap) = CkptSink::open(opts.checkpoint, machine.name(), prog, &limits)?;
    let workers = limits.resolved_threads();
    let mut engine = Engine::new(machine, prog, limits, workers, opts);
    let frontier = snap.map(|s| engine.restore(s));
    if let Some(sink) = sink {
        engine = engine.with_checkpointing(sink);
    }
    match frontier {
        Some(frontier) => engine.requeue(frontier),
        None => engine.seed_root(),
    }
    let setup = engine.started.elapsed();
    let results = run_workers(&engine, workers);
    engine.finish(results, setup)
}

/// [`run`] with no options: not cancellable, unmonitored, not
/// checkpointed — and therefore infallible.
pub fn explore<M: Machine>(machine: &M, prog: &Program, limits: Limits) -> Exploration {
    run(machine, prog, limits, &Opts::default()).expect("a run without a checkpoint cannot fail")
}

/// How long worker 0 explores alone before it starts its peers: about
/// what starting and joining one costs (a scoped spawn and join of an
/// empty thread took 45–50 µs on a 2-vCPU host), so a run too short to
/// repay them finishes on the calling thread alone.
const PEERS_AFTER: Duration = Duration::from_micros(50);

/// Runs worker 0 on the calling thread and its peers on scoped threads,
/// started on demand: once worker 0 has run for [`PEERS_AFTER`], or at
/// once if it retires while work is still pending (it died to a panic)
/// and nothing stopped the run. `join` cannot fail: worker panics are
/// absorbed inside [`Engine::run_worker`], never propagated to the
/// scope.
fn run_workers<M: Machine>(engine: &Engine<'_, M>, workers: usize) -> Vec<WorkerResult> {
    if workers == 1 {
        return vec![engine.run_worker(0, None)];
    }
    std::thread::scope(|scope| {
        let spawn = |peers: &mut Vec<_>| {
            engine.active.fetch_add(workers - 1, Ordering::SeqCst);
            peers.extend((1..workers).map(|w| scope.spawn(move || engine.run_worker(w, None))));
        };
        let mut peers = Vec::new();
        let mut start = || spawn(&mut peers);
        let first = engine.run_worker(0, Some((Instant::now() + PEERS_AFTER, &mut start)));
        if peers.is_empty()
            && engine.pending.load(Ordering::SeqCst) != 0
            && !engine.stop.load(Ordering::SeqCst)
        {
            spawn(&mut peers);
        }
        let joined =
            peers.into_iter().map(|h| h.join().expect("worker panic escaped catch_unwind"));
        std::iter::once(first).chain(joined).collect()
    })
}

/// Explores the full reachable state space of `machine` running `prog`
/// with the reference single-threaded depth-first search.
///
/// Kept alongside [`run`] for differential testing — the parallel
/// engine must produce identical `outcomes`, `states`, and `deadlocks`
/// — and as the same-run baseline of the explorer benchmarks. Honors
/// only `max_states` and `reduction`.
pub fn explore_seq<M: Machine>(machine: &M, prog: &Program, limits: Limits) -> Exploration {
    let started = Instant::now();
    let initial = machine.initial(prog);
    let mut visited: HashSet<M::State, FxBuildHasher> = HashSet::default();
    let mut stack: Vec<M::State> = Vec::new();
    let mut outcomes = BTreeSet::new();
    let mut deadlocks = 0usize;
    let mut truncation = None;
    let mut dedup_hits = 0u64;
    let mut dedup_probes = 0u64;
    let mut peak_frontier = 0usize;
    let mut pruned_arcs = 0u64;
    let reduction = match limits.reduction {
        Reduction::Full => None,
        Reduction::Ample => FutureTable::new(prog),
    };
    visited.insert(initial.clone());
    stack.push(initial);
    let mut succ: Vec<(Label, M::State)> = Vec::new();
    let setup = started.elapsed();
    'search: while let Some(state) = stack.pop() {
        if let Some(outcome) = machine.outcome(prog, &state) {
            outcomes.insert(outcome);
            continue;
        }
        succ.clear();
        machine.successors(prog, &state, &mut succ);
        if succ.is_empty() {
            deadlocks += 1;
            continue;
        }
        if let Some(table) = &reduction {
            if let Some(keep) = ample_index(machine, &state, &succ, table) {
                pruned_arcs += succ.len() as u64 - 1;
                succ.swap(0, keep);
                succ.truncate(1);
            }
        }
        for (_, next) in succ.drain(..) {
            dedup_probes += 1;
            if visited.contains(&next) {
                dedup_hits += 1;
                continue;
            }
            if visited.len() >= limits.max_states {
                truncation = Some(TruncationReason::MaxStates);
                break 'search;
            }
            visited.insert(next.clone());
            stack.push(next);
            peak_frontier = peak_frontier.max(stack.len());
        }
    }
    let stats = ExplorationStats {
        distinct_states: visited.len(),
        duration: started.elapsed(),
        setup,
        dedup_hits,
        dedup_probes,
        peak_frontier,
        threads: 1,
        steals: 0,
        pruned_arcs,
        truncation,
        worker_panics: 0,
        deadline_overshoot: Duration::ZERO,
        checkpoints: 0,
        checkpoint_time: Duration::ZERO,
        probe_steps: 0,
        table_capacity: 0,
        spilled_states: 0,
        spill_bytes: 0,
        mem_bytes: 0,
        shard_states: None,
    };
    Exploration { outcomes, states: visited.len(), deadlocks, truncation, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::ScMachine;
    use weakord_progs::litmus;

    #[test]
    fn sc_dekker_has_three_read_combinations() {
        let lit = litmus::fig1_dekker();
        for ex in [
            explore_seq(&ScMachine, &lit.program, Limits::default()),
            explore(&ScMachine, &lit.program, Limits::default()),
        ] {
            assert!(!ex.truncated());
            assert_eq!(ex.deadlocks, 0);
            // SC allows (0,1), (1,0), (1,1) but never (0,0).
            assert_eq!(ex.outcomes.len(), 3);
            assert!(ex.outcomes.iter().all(|o| !(lit.non_sc)(o)));
        }
    }

    #[test]
    fn witness_traces_name_their_internal_queues() {
        // A write-buffer run reaching the Dekker violation must delay
        // drains past the reads — and the printed trace says exactly
        // which buffer drained where, never a bare "(internal)".
        use crate::machines::{CacheDelayMachine, WriteBufferMachine};
        let lit = litmus::fig1_dekker();
        let wb =
            find_witness(&WriteBufferMachine, &lit.program, Limits::default(), |o| (lit.non_sc)(o))
                .expect("write-buffer reaches the Dekker violation");
        let printed: Vec<String> = wb.iter().map(|l| l.to_string()).collect();
        assert!(
            printed.iter().any(|s| s.contains("drains loc") && s.contains("to memory")),
            "expected a named drain in {printed:?}"
        );
        let cd =
            find_witness(&CacheDelayMachine, &lit.program, Limits::default(), |o| (lit.non_sc)(o))
                .expect("cache-delay reaches the Dekker violation");
        let printed: Vec<String> = cd.iter().map(|l| l.to_string()).collect();
        assert!(
            printed.iter().any(|s| s.contains("delivered at")),
            "expected a named delivery in {printed:?}"
        );
        for s in printed {
            assert_ne!(s, "(internal)", "internal labels must name their queue");
        }
    }

    #[test]
    fn state_cap_marks_truncation() {
        let lit = litmus::iriw();
        for ex in [
            explore_seq(&ScMachine, &lit.program, Limits::with_max_states(3)),
            explore(&ScMachine, &lit.program, Limits::with_max_states(3)),
        ] {
            assert!(ex.truncated());
            assert_eq!(ex.stats.truncation, Some(TruncationReason::MaxStates));
            assert_eq!(ex.states, 3);
        }
    }

    #[test]
    fn parallel_matches_sequential_on_dekker() {
        let lit = litmus::fig1_dekker();
        let seq = explore_seq(&ScMachine, &lit.program, Limits::default());
        for threads in [1, 2, 8] {
            let par = explore(&ScMachine, &lit.program, Limits::with_threads(threads));
            assert_eq!(par, seq, "{threads} threads");
            assert_eq!(par.stats.threads, threads);
        }
    }

    #[test]
    fn an_exhausted_deadline_truncates() {
        let lit = litmus::iriw();
        let limits = Limits { deadline: Some(Duration::ZERO), ..Limits::default() };
        let ex = explore(&ScMachine, &lit.program, limits);
        assert!(ex.truncated());
        assert_eq!(ex.stats.truncation, Some(TruncationReason::Deadline));
    }

    #[test]
    fn stats_report_throughput_and_dedup() {
        let lit = litmus::fig1_dekker();
        let ex = explore(&ScMachine, &lit.program, Limits::with_threads(2));
        assert_eq!(ex.stats.distinct_states, ex.states);
        assert!(ex.stats.dedup_probes >= ex.stats.dedup_hits);
        assert!(ex.stats.dedup_hit_rate() > 0.0, "dekker revisits states");
        assert!(ex.stats.states_per_sec() > 0.0);
        assert!(ex.stats.peak_frontier > 0);
        assert!(ex.stats.table_capacity > 0, "parallel runs report table capacity");
        assert!(ex.stats.avg_probe_len() >= 1.0, "every probe inspects a slot");
        assert!(ex.stats.mem_bytes > 0, "unbudgeted runs keep payloads resident");
        assert_eq!(ex.stats.spilled_states, 0);
        let line = ex.stats.to_string();
        assert!(line.contains("states/s"), "{line}");
    }

    #[test]
    fn a_cancelled_token_truncates_instead_of_exploring() {
        let lit = litmus::iriw();
        let cancel = CancelToken::new();
        cancel.cancel();
        let opts = Opts { cancel: Some(&cancel), ..Opts::default() };
        let ex = run(&ScMachine, &lit.program, Limits::default(), &opts).expect("no checkpoint");
        assert!(ex.truncated());
        assert_eq!(ex.stats.truncation, Some(TruncationReason::Cancelled));
        // The workers stopped before expanding anything beyond at most
        // the states already popped when the flag landed.
        assert!(ex.states < explore(&ScMachine, &lit.program, Limits::default()).states);
    }

    /// A cancelled checkpointed run leaves a resumable checkpoint: the
    /// service contract is "cancel ≈ suspend", so resuming the same
    /// config later must reach the full uninterrupted answer.
    #[test]
    fn a_cancelled_checkpointed_run_resumes_to_the_full_answer() {
        let lit = litmus::iriw();
        let dir = std::env::temp_dir().join(format!("weakord-cancel-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = CheckpointCfg { dir: dir.clone(), every: 1, abort_after: None, store: None };
        let cancel = CancelToken::new();
        cancel.cancel();
        let opts =
            Opts { cancel: Some(&cancel), checkpoint: Checkpoint::Fresh(&cfg), ..Opts::default() };
        let cut = run(&ScMachine, &lit.program, Limits::default(), &opts)
            .expect("cancelled run still writes its final checkpoint");
        assert_eq!(cut.stats.truncation, Some(TruncationReason::Cancelled));
        let opts = Opts { checkpoint: Checkpoint::Resume(&cfg), ..Opts::default() };
        let resumed = run(&ScMachine, &lit.program, Limits::default(), &opts)
            .expect("cancelled checkpoint resumes");
        let clean = explore(&ScMachine, &lit.program, Limits::default());
        assert_eq!(resumed.outcomes, clean.outcomes);
        assert_eq!(resumed.states, clean.states);
        assert_eq!(resumed.deadlocks, clean.deadlocks);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Progress monitoring is pure observation: the exploration result
    /// is identical with a sink attached, the final publication matches
    /// the result, and every counter is monotone across samples.
    #[test]
    fn a_progress_sink_observes_without_perturbing() {
        let lit = litmus::iriw();
        let plain = explore(&ScMachine, &lit.program, Limits::with_threads(2));
        let sink = ProgressSink::with_interval(Duration::ZERO);
        let watch = |sink| {
            let opts = Opts { progress: Some(sink), ..Opts::default() };
            run(&ScMachine, &lit.program, Limits::with_threads(2), &opts).expect("no checkpoint")
        };
        let watched = watch(&sink);
        assert_eq!(watched, plain, "progress must not perturb results");
        let last = sink.sample();
        assert!(last.seq > 0, "the final publication always lands");
        assert_eq!(last.states as usize, watched.states);
        assert_eq!(last.frontier, 0, "a finished run has an empty frontier");
        assert_eq!(last.dedup_probes, watched.stats.dedup_probes);
        assert!(last.elapsed > Duration::ZERO);
        assert!(last.states_per_sec() > 0.0);
        // A concurrent monitor sees monotone counters.
        let sink = ProgressSink::with_interval(Duration::ZERO);
        let (final_states, samples) = std::thread::scope(|s| {
            let monitor = {
                let sink = sink.clone();
                s.spawn(move || {
                    let mut seen = Vec::new();
                    let mut last = ProgressSnapshot::default();
                    for _ in 0..10_000 {
                        let cur = sink.sample();
                        if cur.seq != last.seq {
                            assert!(cur.states >= last.states, "states regressed");
                            assert!(cur.dedup_probes >= last.dedup_probes, "probes regressed");
                            assert!(cur.seq > last.seq, "seq regressed");
                            seen.push(cur);
                            last = cur;
                        }
                        std::thread::yield_now();
                    }
                    seen
                })
            };
            (watch(&sink).states, monitor.join().expect("monitor thread"))
        });
        assert!(!samples.is_empty(), "at least the final publication is visible");
        assert!(samples.last().expect("non-empty").states as usize <= final_states);
    }

    /// `setup` is the part of `duration` before the workers start: on a
    /// fresh run, and on a resumed leg, where it covers restoring the
    /// checkpoint. Both engines fill it, and the export carries it.
    #[test]
    fn setup_is_the_head_of_duration_fresh_and_resumed() {
        let lit = litmus::iriw();
        let seq = explore_seq(&ScMachine, &lit.program, Limits::default());
        assert!(seq.stats.setup <= seq.stats.duration, "{:?}", seq.stats);
        let fresh = explore(&ScMachine, &lit.program, Limits::with_threads(2));
        assert!(fresh.stats.setup > Duration::ZERO);
        assert!(fresh.stats.setup <= fresh.stats.duration, "{:?}", fresh.stats);
        let dir = std::env::temp_dir().join(format!("weakord-setup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = CheckpointCfg::every(&dir, 100);
        cfg.abort_after = Some(1);
        let leg = |checkpoint| {
            let opts = Opts { checkpoint, ..Opts::default() };
            run(&ScMachine, &lit.program, Limits::with_threads(2), &opts).expect("checkpoint IO")
        };
        let mut resumed = leg(Checkpoint::Fresh(&cfg));
        assert_eq!(resumed.truncation, Some(TruncationReason::Resumable));
        while resumed.truncation == Some(TruncationReason::Resumable) {
            resumed = leg(Checkpoint::Resume(&cfg));
            assert!(resumed.stats.setup > Duration::ZERO);
            assert!(resumed.stats.setup <= resumed.stats.duration, "{:?}", resumed.stats);
        }
        assert_eq!(resumed, fresh);
        let mut reg = MetricsRegistry::new();
        resumed.stats.export_metrics("x", &mut reg);
        assert_eq!(reg.get_gauge("x.setup-ms"), Some(resumed.stats.setup.as_secs_f64() * 1e3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A memory budget small enough to force spilling must not change
    /// any semantic result — the acceptance property of the disk-backed
    /// capacity path, at unit scale.
    #[test]
    fn a_tiny_memory_budget_spills_without_changing_results() {
        let lit = litmus::iriw();
        let plain = explore(&ScMachine, &lit.program, Limits::with_threads(2));
        let mut limits = Limits::with_memory_budget(1);
        limits.threads = 2;
        let spilled = explore(&ScMachine, &lit.program, limits);
        assert_eq!(spilled, plain);
        assert_eq!(spilled.stats.spilled_states as usize, spilled.states);
        assert!(spilled.stats.spill_bytes > 0);
        assert_eq!(spilled.stats.mem_bytes, 0, "payloads all went to disk");
        let line = spilled.stats.to_string();
        assert!(line.contains("spilled"), "{line}");
    }
}

/// A step of a witness trace: the label and a rendering of what it did.
pub type Witness = Vec<Label>;

/// Searches for a terminal state whose outcome satisfies `predicate`
/// and returns the transition labels leading to it (a *witness
/// interleaving*), or `None` if no reachable terminal outcome matches
/// within the limits.
///
/// Breadth-first, so the witness is one of the shortest.
pub fn find_witness<M: Machine>(
    machine: &M,
    prog: &Program,
    limits: Limits,
    predicate: impl Fn(&Outcome) -> bool,
) -> Option<Witness> {
    use std::collections::HashMap;

    let initial = machine.initial(prog);
    // parent[state] = (predecessor, label taking predecessor -> state)
    let mut parent: HashMap<M::State, Option<(M::State, Label)>> = HashMap::new();
    parent.insert(initial.clone(), None);
    let mut queue = VecDeque::new();
    queue.push_back(initial);
    let mut succ: Vec<(Label, M::State)> = Vec::new();
    while let Some(state) = queue.pop_front() {
        if let Some(outcome) = machine.outcome(prog, &state) {
            if predicate(&outcome) {
                // Reconstruct the path.
                let mut labels = Vec::new();
                let mut cur = &state;
                while let Some(Some((prev, label))) = parent.get(cur) {
                    labels.push(*label);
                    cur = prev;
                }
                labels.reverse();
                return Some(labels);
            }
            continue;
        }
        succ.clear();
        machine.successors(prog, &state, &mut succ);
        for (label, next) in succ.drain(..) {
            if parent.len() >= limits.max_states {
                return None;
            }
            if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(next.clone()) {
                e.insert(Some((state.clone(), label)));
                queue.push_back(next);
            }
        }
    }
    None
}

#[cfg(test)]
mod witness_tests {
    use super::*;
    use crate::machines::{ScMachine, WriteBufferMachine};
    use weakord_progs::litmus;

    #[test]
    fn witness_found_for_reachable_outcome() {
        let lit = litmus::fig1_dekker();
        let w =
            find_witness(&WriteBufferMachine, &lit.program, Limits::default(), |o| (lit.non_sc)(o))
                .expect("write buffers can kill both processors");
        // The witness contains both reads bypassing both writes.
        let ops = w.iter().filter(|l| matches!(l, Label::Op(_))).count();
        assert!(ops >= 4, "witness too short: {w:?}");
    }

    #[test]
    fn no_witness_for_unreachable_outcome() {
        let lit = litmus::fig1_dekker();
        assert!(find_witness(&ScMachine, &lit.program, Limits::default(), |o| (lit.non_sc)(o))
            .is_none());
    }
}
