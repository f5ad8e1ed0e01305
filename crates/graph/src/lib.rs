//! Levelized flat simulation graph for the GATSPI reproduction — the
//! equivalent of the paper's PyTorch/DGL graph object.
//!
//! The translator ([`CircuitGraph::build`]) combines three front-end inputs:
//!
//! 1. a gate-level [`Netlist`](gatspi_netlist::Netlist) (`Netlist.gv`),
//! 2. an optional [`SdfFile`](gatspi_sdf::SdfFile) (`Netlist.sdf`), and
//! 3. the cell library's truth tables,
//!
//! into flat arrays a data-parallel kernel can consume directly:
//!
//! * CSR fan-in connectivity (signal ids per gate input pin),
//! * per-pin interconnect rise/fall delays (edge features),
//! * per-pin Fig. 4 conditional delay LUTs, concatenated with offsets,
//! * per-gate truth tables (node features), concatenated with offsets,
//! * logic levelization: gates grouped by level such that a gate's fan-in
//!   cones are fully contained in earlier levels (plus primary inputs).
//!
//! Every *signal* (primary input or gate output) has one slot; gate `g`
//! reads its input signals' waveforms and produces signal
//! [`CircuitGraph::gate_output`]`[g]`.

#![deny(missing_docs)]

mod error;
mod graph;
mod levelize;
mod stats;

pub use error::GraphError;
pub use graph::{CircuitGraph, GraphOptions, SdfIndex, SignalId};
pub use levelize::levelize;
pub use stats::LevelStats;

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, GraphError>;
