//! GATSPI — GPU Accelerated GaTe-level Simulation for Power Improvement —
//! reproduced in Rust.
//!
//! This crate is the paper's primary contribution: a delay-accurate,
//! glitch-enabled gate-level **re-simulator**. Given a levelized
//! [`CircuitGraph`](gatspi_graph::CircuitGraph) and known waveforms on the
//! primary (and pseudo-primary) inputs, it simulates every combinational
//! gate with:
//!
//! * full truth-table logic evaluation (any cell type, Fig. 4),
//! * conditional SDF delay lookup (2-D LUT arrays, Fig. 4),
//! * multiple-simultaneous-input (MSI) switching resolution,
//! * inertial pulse filtering on both gates (`PATHPULSEPERCENT`) and
//!   interconnect,
//! * speculative single-pass output allocation with exact repair, the
//!   engine's one schedule: every output is stored once into a reservation
//!   predicted from the plan's per-gate extent history; a thread whose
//!   waveform outgrows it degrades to exact counting and is re-run as a
//!   store into exact space — the paper's "simulate twice" strategy
//!   (Fig. 5) survives as that miss path, so there is still no dynamic
//!   allocation and no calibration run,
//! * cycle parallelism: the stimulus is cut into independent windows that
//!   simulate concurrently, one logical GPU thread per (gate, window),
//! * multi-GPU distribution of cycle parallelism (`t = t₁/n + ovr`),
//! * an "OpenMP-equivalent" CPU backend for the paper's Table 3 comparison,
//! * SAIF accumulated by the storing threads themselves: each thread scans
//!   the window it just wrote for its toggle count and time at 1, and the
//!   level publish folds those per signal — no second pass over the stored
//!   words, no helper thread.
//!
//! # Quickstart
//!
//! The engine is a compiled session: build a [`Session`] once per
//! `(graph, config)` pair, then execute any number of stimuli against it —
//! launch schedules are cached per window count, and [`RunOptions`]
//! controls segmentation and waveform spill/streaming.
//!
//! ```
//! use gatspi_core::{Session, SimConfig};
//! use gatspi_graph::{CircuitGraph, GraphOptions};
//! use gatspi_netlist::{CellLibrary, NetlistBuilder};
//! use gatspi_wave::Waveform;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetlistBuilder::new("demo", CellLibrary::industry_mini());
//! let a = b.add_input("a")?;
//! let c = b.add_input("b")?;
//! let y = b.add_output("y")?;
//! b.add_gate("u", "NAND2", &[a, c], y)?;
//! let graph = CircuitGraph::build(&b.finish()?, None, &GraphOptions::default())?;
//!
//! let session = Session::new(graph.into(), SimConfig::default());
//! let stimuli = vec![
//!     Waveform::from_toggles(false, &[105, 205]),
//!     Waveform::constant(true),
//! ];
//! let result = session.run(&stimuli, 300)?;
//! assert_eq!(result.toggle_count(y.index()), 2);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod audit;
mod config;
mod error;
mod kernel;
mod multi;
mod result;
mod schedule;
mod session;
mod sink;
pub mod sync;
pub mod verify;

pub use config::{RetryPolicy, SimConfig, SimFeatures};
pub use error::CoreError;
pub use gatspi_gpu::FaultKind;
pub use kernel::{simulate_gate, GateDesc, GateKernelInput, KernelMode, KernelOutput};
pub use result::SimResult;
pub use session::{PlanCacheStats, RunOptions, Session};
pub use sink::{SaifSink, VcdSink, WaveformSink, WindowInfo};

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
