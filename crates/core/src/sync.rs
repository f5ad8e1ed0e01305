//! Core's sync facade: a re-export of [`gatspi_gpu::sync`], so the whole
//! workspace shares one switch between `std` primitives and the `loom`
//! model-checked types (`--features model-check`).
//!
//! Every lock-free structure in this crate — `ring`'s reserve/commit ring
//! and the carry chain in `schedule` — imports its atomics, spin hints, and scoped threads from
//! here, and the blocking primitives (locks, channels, `spawn`) route
//! through it too. The `xtask analyze` sync-facade CI pass bans the
//! corresponding `std` paths anywhere else in this crate's production code.

pub use gatspi_gpu::sync::{
    atomic, hint, mpsc, thread, Barrier, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard,
    RwLockWriteGuard,
};
