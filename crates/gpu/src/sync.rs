//! The workspace's sync facade: every lock-free structure imports its
//! atomics and scoped threads from here instead of `std`.
//!
//! Normally (`--features model-check` off) this re-exports plain
//! `std::sync::atomic` and the crossbeam-shaped scoped-thread
//! shim — zero-cost. With `model-check` on, the same paths resolve to the
//! `loom` compat crate's instrumented types, so the in-crate model tests can
//! exhaustively explore the protocols' interleavings while ordinary tests
//! keep running on the types' out-of-model fallback behavior.
//!
//! `gatspi_core::sync` re-exports this module, giving the workspace one
//! canonical facade. The `xtask analyze` sync-facade pass (run in CI) bans
//! `std::sync::atomic` anywhere else — and, in the disciplined production
//! crates, the blocking primitives (`Mutex`, `RwLock`, `Condvar`, `mpsc`,
//! `Barrier`) and bare `std::thread::spawn` too — which is what keeps the
//! model-checked types and the shipped types from drifting apart.
//!
//! The blocking primitives re-exported here resolve to plain `std` under
//! *both* cfgs: the loom shim deliberately models only the atomics, because
//! the lock-free paths hold no lock across a schedule point, so modeling
//! them would add states without adding coverage. Routing them through
//! the facade anyway gives the workspace one choke point: if a lock ever
//! migrates into a modeled protocol, this is the one line that changes —
//! and the static analysis already guarantees every production lock goes
//! through it.

/// Atomic types for the lock-free protocols. `AtomicBool`, `AtomicI32`,
/// `AtomicU32`, `AtomicU64`, `AtomicUsize`, and `Ordering`.
#[cfg(not(feature = "model-check"))]
pub mod atomic {
    pub use std::sync::atomic::{
        AtomicBool, AtomicI32, AtomicU32, AtomicU64, AtomicUsize, Ordering,
    };
}

#[cfg(feature = "model-check")]
pub use loom::sync::atomic;

/// Thread primitives: `scope` (crossbeam-shaped), `spawn`, `sleep`,
/// `yield_now`.
#[cfg(not(feature = "model-check"))]
pub mod thread {
    pub use crossbeam::thread::{scope, Scope, ScopedJoinHandle};
    pub use std::thread::{sleep, spawn, yield_now, JoinHandle};
}

#[cfg(feature = "model-check")]
pub use loom::thread;

/// Blocking primitives, `std` under both cfgs (see the module docs for why
/// they are not modeled): `Mutex`, `RwLock`, `Condvar`, `Barrier` and their
/// guards.
pub use std::sync::{
    Barrier, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// Channels, `std` under both cfgs — the multi-GPU shard fan-in and the
/// sink hand-off use them strictly for ownership transfer, never as part of
/// a lock-free protocol.
pub mod mpsc {
    pub use std::sync::mpsc::*;
}
