//! # weakord-sim — a deterministic discrete-event simulation kernel
//!
//! The substrate under `weakord-coherence`'s cycle-level multiprocessor:
//! a future-event list with FIFO tie-breaking ([`EventQueue`]), seeded
//! randomness ([`SimRng`]), interconnect latency models
//! ([`Interconnect`]: [`AtomicBus`], [`Crossbar`], [`GeneralNet`]) and
//! statistics ([`Counters`], [`Histogram`]).
//!
//! Everything is single-threaded and deterministic in the seed, so every
//! experiment in the repository reproduces exactly.
//!
//! ## Example
//!
//! ```
//! use weakord_sim::{Cycle, EventQueue, GeneralNet, Interconnect, NodeId, SimRng};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! let mut rng = SimRng::new(1);
//! let mut net = GeneralNet { min: 5, max: 15 };
//! let lat = net.latency(NodeId::new(0), NodeId::new(1), &mut rng);
//! q.schedule_in(lat, "message arrives");
//! let (at, what) = q.pop().unwrap();
//! assert!(at >= Cycle::new(5) && at <= Cycle::new(15));
//! assert_eq!(what, "message arrives");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod event;
pub mod fault;
mod network;
mod node;
mod rng;
mod stats;
mod time;

pub use event::EventQueue;
pub use fault::{Delivery, FaultPlan};
pub use network::{AtomicBus, CongestedNet, Crossbar, GeneralNet, Interconnect, Mesh};
pub use node::NodeId;
pub use rng::{check_cases, SimRng};
pub use stats::{Counters, Histogram};
pub use time::Cycle;
