//! The analysis passes. Each pass is a pure function from the shared
//! lexed token stream (plus static config) to [`Diagnostic`]s, so the
//! golden fixture tests drive them directly on snippet files.
//!
//! [`Diagnostic`]: crate::analysis::diag::Diagnostic

pub mod atomics;
pub mod panic_discipline;
pub mod plan_invariants;
pub mod unwind_boundary;
