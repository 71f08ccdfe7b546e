//! The operational machine models.
//!
//! | Machine | Paper artifact | Sync support | Module |
//! |---------|----------------|--------------|--------|
//! | [`ScMachine`] | Lamport's definition; the reference | n/a (everything atomic) | `sc` |
//! | [`WriteBufferMachine`] | Figure 1 configs 1 & 3 (bus, write buffers) | none (fences wait) | `store_buffer` |
//! | [`TsoMachine`] | SPARC/x86 TSO (write buffer + fences/RMW as ordering points) | full | `store_buffer` |
//! | [`PsoMachine`] | SPARC PSO (per-location buffers, STBAR) | full | `store_buffer` |
//! | [`NetReorderMachine`] | Figure 1 config 2 (network, no caches) | none (fences skipped) | `store_buffer` |
//! | [`CacheDelayMachine`] | Figure 1 config 4 (caches + network) | none | `cache_delay` |
//! | [`WoDef1Machine`] | Definition 1 (Dubois/Scheurich/Briggs) | issuer stalls | `wo` |
//! | [`BnrMachine`] | BNR'89 timestamp scheme (Section 2.2) | global drain | `wo` |
//! | [`WoDef2Machine`] | Section 5 implementation (Definition 2 w.r.t. DRF0) | next synchronizer stalls | `wo` |
//!
//! The four `store_buffer` machines share one state type ([`SbState`])
//! and one successor body: pending writes queue per processor in front
//! of one atomic memory. The last four share the cache substrate
//! ([`substrate`]): per-processor copies updated by invalidation
//! messages, so their stores are not multi-copy atomic.

mod cache_delay;
mod sc;
mod store_buffer;
pub mod substrate;
mod wo;

pub use cache_delay::{CacheDelayMachine, CdState};
pub use sc::{ScMachine, ScState};
pub use store_buffer::{NetReorderMachine, PsoMachine, SbState, TsoMachine, WriteBufferMachine};
pub use wo::{BnrMachine, WoDef1Machine, WoDef2Machine, WoState};

/// The machine names [`with_machine!`](crate::with_machine) resolves,
/// in the order the CLI and the serve protocol list them.
pub const NAMES: &[&str] =
    &["sc", "write-buffer", "tso", "pso", "net-reorder", "cache-delay", "wo-def1", "wo-def2"];

/// The machine registry: evaluates `$body` with the machine named
/// `$name` (one of [`NAMES`](crate::machines::NAMES)) bound to `$m`,
/// or `$unknown` with an unlisted name bound to `$other`.
///
/// The explorer is generic over the machine type, so dispatch by name
/// must monomorphize — one `match` arm per machine, written once here.
///
/// ```
/// use weakord_mc::{explore, with_machine, Limits};
///
/// let prog = weakord_progs::litmus::fig1_dekker().program;
/// let states = with_machine!("tso", |m| explore(&m, &prog, Limits::default()).states,
///     other => panic!("unknown machine `{other}`"));
/// assert!(states > 0);
/// ```
#[macro_export]
macro_rules! with_machine {
    ($name:expr, |$m:ident| $body:expr, $other:ident => $unknown:expr $(,)?) => {
        match $name {
            "sc" => {
                let $m = $crate::machines::ScMachine;
                $body
            }
            "write-buffer" => {
                let $m = $crate::machines::WriteBufferMachine;
                $body
            }
            "tso" => {
                let $m = $crate::machines::TsoMachine;
                $body
            }
            "pso" => {
                let $m = $crate::machines::PsoMachine;
                $body
            }
            "net-reorder" => {
                let $m = $crate::machines::NetReorderMachine;
                $body
            }
            "cache-delay" => {
                let $m = $crate::machines::CacheDelayMachine;
                $body
            }
            "wo-def1" => {
                let $m = $crate::machines::WoDef1Machine;
                $body
            }
            "wo-def2" => {
                let $m = $crate::machines::WoDef2Machine::default();
                $body
            }
            $other => $unknown,
        }
    };
}

/// The parallel explorer moves states between worker threads and shares
/// machines across them, so every state type must stay `Send + Sync`
/// (plain data, no interior mutability). Checked here at compile time
/// so a regression fails this module, not a distant explorer bound.
const _: () = {
    const fn state<T: Send + Sync + Clone + Eq + std::hash::Hash>() {}
    state::<ScState>();
    state::<<TsoMachine as crate::Machine>::State>();
    state::<<PsoMachine as crate::Machine>::State>();
    state::<CdState>();
    state::<WoState>();
};
