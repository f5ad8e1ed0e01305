//! Core's sync facade: a re-export of [`gatspi_gpu::sync`], so the whole
//! workspace shares one switch between `std` primitives and the `loom`
//! model-checked types (`--features model-check`).
//!
//! Every atomic in this crate — the batch tables in `schedule`, the
//! session's counters — imports from here, and so do its locks (the plan
//! cache, the scratch pool, the extent history) and scoped threads. The
//! `xtask analyze` sync-facade CI pass bans the corresponding `std` paths
//! anywhere else in this crate's production code.

pub use gatspi_gpu::sync::{atomic, thread, Mutex, MutexGuard};
