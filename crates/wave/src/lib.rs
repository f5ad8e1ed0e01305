//! Waveforms, waveform storage, and activity-file IO for the GATSPI
//! reproduction.
//!
//! The central type is [`Waveform`]: the array format of the paper's Fig. 3,
//! taken from Holst et al. — a flat `i32` timestamp array where the logic
//! value is encoded in the *index parity* of each toggle (even index ⇒ the
//! signal becomes 0, odd index ⇒ it becomes 1), a leading `-1` marker shifts
//! the time-0 entry to odd parity when the initial value is 1, and the array
//! is terminated by [`EOW`] (`i32::MAX`).
//!
//! This encoding is what makes the GPU kernel branch-free about values: a
//! thread holding a pointer `p` into the array knows the signal's current
//! value is simply `p % 2` — provided every waveform starts at an even base
//! offset. That guarantee is the uploader's: the engine's batch upload puts
//! every waveform it writes to device memory at an even word.
//!
//! Also provided:
//!
//! * [`saif`] — SAIF 2.0 writing/reading/comparison for power handoff,
//! * [`vcd`] — a minimal VCD reader/writer for stimulus interchange,
//! * [`activity`] — toggle counting and activity-factor metrics.

#![deny(missing_docs)]

pub mod activity;
mod error;
pub mod saif;
pub mod vcd;
mod waveform;

pub use error::WaveError;
pub use waveform::{split_raw, Waveform, WaveformBuilder};

/// Simulation timestamp type. Units are arbitrary (SDF timescale ticks).
pub type SimTime = i32;

/// End-of-waveform sentinel (`i32::MAX`), as in Fig. 3.
pub const EOW: SimTime = i32::MAX;

/// Initial-value marker: a leading `-1` means the signal starts at 1.
pub const INIT_ONE_MARKER: SimTime = -1;

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, WaveError>;
