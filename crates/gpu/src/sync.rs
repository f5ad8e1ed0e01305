//! The workspace's sync facade: every lock-free structure imports its
//! atomics and scoped threads from here instead of `std`.
//!
//! Normally (`--features model-check` off) this re-exports plain
//! `std::sync::atomic` and `std::thread::scope` — zero-cost. With
//! `model-check` on, the same paths resolve to the `loom` compat crate's
//! instrumented types, whose scope has std's shape, so the in-crate model
//! tests can exhaustively explore the protocols' interleavings while
//! ordinary tests keep running on the types' out-of-model fallback
//! behavior.
//!
//! `gatspi_core::sync` re-exports this module, giving the workspace one
//! canonical facade. The `xtask analyze` sync-facade pass (run in CI) bans
//! `std::sync::atomic` anywhere else — and, in the disciplined production
//! crates, the blocking primitives (`Mutex`, `RwLock`, `Condvar`, `mpsc`,
//! `Barrier`) and bare `std::thread::spawn` too — which is what keeps the
//! model-checked types and the shipped types from drifting apart.
//!
//! The one blocking primitive the engine uses, `Mutex`, resolves to plain
//! `std` under *both* cfgs: the loom shim deliberately models only the
//! atomics, because no lock is held across a schedule point of a modeled
//! protocol, so modeling it would add states without adding coverage.
//! Routing it through the facade anyway gives the workspace one choke
//! point: if a lock ever migrates into a modeled protocol, this is the one
//! line that changes — and the static analysis already guarantees every
//! production lock goes through it.

/// Atomic types for the lock-free protocols: `AtomicI32`, `AtomicU32`,
/// `AtomicU64`, `AtomicUsize` and `Ordering`.
#[cfg(not(feature = "model-check"))]
pub mod atomic {
    pub use std::sync::atomic::{AtomicI32, AtomicU32, AtomicU64, AtomicUsize, Ordering};
}

/// Atomic types for the lock-free protocols (model-checked).
#[cfg(feature = "model-check")]
pub mod atomic {
    pub use loom::sync::atomic::{AtomicI32, AtomicU32, AtomicU64, AtomicUsize, Ordering};
}

/// Scoped threads: `scope`, `Scope` and `ScopedJoinHandle`, std's shape.
#[cfg(not(feature = "model-check"))]
pub mod thread {
    pub use std::thread::{scope, Scope, ScopedJoinHandle};
}

/// Scoped threads (model-checked), std's shape.
#[cfg(feature = "model-check")]
pub mod thread {
    pub use loom::thread::{scope, Scope, ScopedJoinHandle};
}

/// The blocking lock, `std` under both cfgs (see the module docs for why
/// it is not modeled).
pub use std::sync::{Mutex, MutexGuard};
