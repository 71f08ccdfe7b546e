//! # weakord-serve — a crash-tolerant, load-shedding checking service
//!
//! The paper's Definition 2 argument is only useful at scale if
//! checking is cheap to *ask for*. This crate wraps the checkpointable
//! explorer (`weakord-mc`) in a daemon that serves verification jobs to
//! many concurrent clients over a line-oriented JSONL protocol, and is
//! robust end-to-end:
//!
//! * **Bounded admission** — a full queue sheds with an explicit
//!   structured rejection; nothing is ever dropped silently.
//! * **Durable accepts** — every accepted job is journaled before the
//!   accept reply, and a SIGKILL'd daemon replays the journal on
//!   restart, resuming each job from its checkpoint to the
//!   byte-identical result an uninterrupted run writes.
//! * **Per-job deadlines and cancellation** — both act at the
//!   explorer's worker safepoints via [`weakord_mc::CancelToken`] and
//!   the engine's deadline truncation.
//! * **Panic containment** — a job that panics retries with
//!   exponential backoff up to a poison-pill cap, so one crashing
//!   input cannot livelock the pool.
//! * **Outcome-set cache** — the job id is the PR 5 config
//!   fingerprint, so identical submissions (from any client, any
//!   daemon life) hit the cache instead of the explorer.
//! * **Live progress plane** — a streaming submit (`"stream": true`)
//!   receives monotone `progress` lines between `accepted` and `done`,
//!   `status` lists every known job with live counters, `metrics`
//!   dumps the full registry as text exposition, and a per-worker
//!   flight recorder dumps the last-K-events window to the state dir
//!   on panic, poison, or watchdog stall. All of it observes the
//!   engine through [`weakord_mc::ProgressSink`] — result lines are
//!   byte-identical with streaming on or off.
//! * **An audited storage plane** — every durable byte goes through
//!   the [`store::Vfs`] trait: [`store::RealVfs`] with the full fsync
//!   discipline in production, [`store::FaultVfs`] (seeded torn
//!   writes, failed renames, ENOSPC, transient EIO, crash points)
//!   under test. Startup runs a [`scrub()`] pass that quarantines
//!   corrupt artifacts with a structured report, ENOSPC on the accept
//!   path sheds explicitly with a `retry_after_ms` hint, and in-flight
//!   jobs degrade to RAM-only checkpointing when the disk fills.
//!
//! See `protocol` for the wire vocabulary, `DESIGN.md` §16/§18 for the
//! lifecycle state machine and the storage contract, and
//! `weakord serve --help` for the CLI.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod client;
mod flight;
mod job;
mod pool;
pub mod protocol;
pub mod scrub;
mod server;
pub mod store;

pub use client::{Client, SubmitKind, SubmitReply};
pub use job::{cacheable, job_identity, poisoned_line, result_line, run_attempt};
pub use protocol::{error_line, parse_request, JobSpec, Request, MACHINES, MAX_LINE};
pub use scrub::{quarantine, scrub, ScrubFinding, ScrubReport};
pub use server::{run, run_with_vfs, ServeConfig, Server, DISK_FULL_RETRY_MS, QUEUE_FULL_RETRY_MS};
pub use store::{
    parse_class_mask, FaultVfs, PathClass, RealVfs, StoreFaultPlan, StoreStats, Vfs, VfsCkptStore,
    CLASS_ALL, CLASS_CKPT, CLASS_FLIGHT, CLASS_JOURNAL, CLASS_RESULT,
};
