//! # weakord-bench — the experiment harness
//!
//! Regenerates every figure of the paper (and the ablations DESIGN.md
//! calls out) as printable tables. Each experiment lives in
//! [`experiments`] as a function returning structured rows, and the
//! `figures` binary prints them.
//!
//! The paper's evaluation is qualitative, so every experiment carries a
//! *shape check*: the inequality or possibility pattern the paper
//! asserts, which `EXPERIMENTS.md` records against our measurements.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;

pub use experiments::Table;
