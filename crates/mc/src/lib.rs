//! # weakord-mc — exhaustive operational memory-model checking
//!
//! This crate mechanizes the paper's qualitative claims. It provides:
//!
//! * a [`Machine`] interface for nondeterministic operational models of
//!   multiprocessor memory systems, and implementations for Lamport's
//!   interleaving reference ([`machines::ScMachine`]), the four relaxed
//!   configurations of Figure 1, Definition 1 weak ordering
//!   ([`machines::WoDef1Machine`]) and the paper's new Section 5
//!   implementation ([`machines::WoDef2Machine`]);
//! * an exhaustive explorer ([`run`], or [`explore`] without options)
//!   collecting each machine's reachable outcome set, with the
//!   sequential reference [`explore_seq`] beside it;
//! * the weak-ordering **contract** checks ([`contract`]): a machine
//!   appears sequentially consistent to a program iff its outcome set is
//!   contained in the SC outcome set, and it is weakly ordered w.r.t. a
//!   synchronization model iff that holds for every conforming program;
//! * program-level DRF0 classification ([`check_program_drf`]) by
//!   enumerating idealized executions with the online race detector.
//!
//! ## Example: Figure 1 in one assertion
//!
//! ```
//! use weakord_mc::{explore, Limits};
//! use weakord_mc::machines::{ScMachine, WriteBufferMachine};
//! use weakord_progs::litmus;
//!
//! let dekker = litmus::fig1_dekker();
//! let sc = explore(&ScMachine, &dekker.program, Limits::default());
//! let wb = explore(&WriteBufferMachine, &dekker.program, Limits::default());
//! assert!(sc.outcomes.iter().all(|o| !(dekker.non_sc)(o)));
//! assert!(wb.outcomes.iter().any(|o| (dekker.non_sc)(o)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod contract;
mod explore;
pub mod fxhash;
mod machine;
pub mod machines;
mod reduce;
pub mod shrink;
mod trace;
pub mod visited;

pub use checkpoint::{CheckpointCfg, CheckpointError, CkptStore, Codec, DiskStore};
pub use contract::{
    appears_sc, check_weak_ordering, check_weak_ordering_model, sc_outcome_set, ContractReport,
    ContractRow, ScAppearance,
};
pub use explore::{
    explore, explore_seq, find_witness, run, CancelToken, Checkpoint, Exploration,
    ExplorationStats, Limits, Opts, ProgressSink, Reduction, TruncationReason, Witness, N_SHARDS,
};
pub use machine::{
    advance_skipping_delays, advance_skipping_delays_and_fences, outcome_if_halted, DeliveryClass,
    Footprint, InternalKind, InternalStep, Label, Machine, OpRecord, ReductionClass, SyncGate,
};
pub use shrink::{shrink_witness, ShrinkReport};
pub use trace::{
    check_program_conforms, check_program_drf, ProgramConformance, ProgramDrfVerdict, TraceLimits,
};
