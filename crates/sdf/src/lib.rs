//! SDF (Standard Delay Format) parsing and conditional delay-LUT translation
//! for the GATSPI reproduction.
//!
//! The paper's simulator consumes a gate-level netlist plus an SDF file and
//! translates every delay statement — including `COND`itional IOPATHs and
//! per-edge (`posedge`/`negedge`) arcs — into the uniform 2-D lookup-table
//! array format of Fig. 4, so the GPU kernel resolves any arc delay with one
//! indexed load:
//!
//! * **rows** (4): `(input edge, output edge)` combinations, laid out as
//!   `row = 2 * input_edge + output_edge` with `posedge = 0`, `negedge = 1`,
//!   `rise = 0`, `fall = 1`;
//! * **columns** (`2^(n-1)`): the weight-sum of the *non-switching* pins
//!   currently at logic 1 (pin weights are assigned by position, with the
//!   switching pin's bit removed);
//! * unspecified arcs hold [`NO_ARC`] (`i32::MAX`), exactly the `∞` entries
//!   in Fig. 4.
//!
//! The crate provides:
//!
//! * [`SdfFile`] / [`SdfCell`] / [`IoPath`] / [`Interconnect`] — the parsed
//!   model, with [`SdfFile::parse`] and [`SdfFile::write`] for the textual
//!   format;
//! * [`DelayLut`] and [`build_delay_lut`] — the Fig. 4 translation;
//! * [`Cond`] — `A2===1'b1&&A1===1'b0`-style condition expressions.

#![deny(missing_docs)]

mod error;
mod lut;
mod model;
mod parser;

pub use error::SdfError;
pub use lut::{build_delay_lut, delay_to_ticks, reduced_column_index, DelayLut, NO_ARC};
pub use model::{
    Cond, DelayTriple, EdgeSpec, Interconnect, IoPath, PortPath, SdfCell, SdfFile, TripleSelect,
};

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, SdfError>;
