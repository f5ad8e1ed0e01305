//! Software-simulated GPU substrate for the GATSPI reproduction.
//!
//! The paper runs its re-simulation kernels as CUDA on NVIDIA T4/V100/A100
//! devices. This environment has no GPU, so — per the reproduction's
//! substitution rule — this crate provides the closest synthetic equivalent
//! that exercises the same code paths:
//!
//! * [`DeviceSpec`] — the Table 1 device presets (SM count, memory size and
//!   bandwidth, L2 capacity) plus clock and register-file parameters.
//! * [`DeviceMemory`] — a pre-allocated "global memory" word arena with
//!   host↔device transfer accounting (PCIe model), shared-safely accessible
//!   from concurrent kernel threads via relaxed atomics.
//! * [`Device::worker_set`] — CUDA-style kernel launches: each
//!   [`WorkerSet::launch`] runs a grid of blocks of logical threads
//!   functionally on host worker threads and returns its measured wall. A
//!   launch of two or more blocks wakes the set's helper threads and runs
//!   blocks on the calling thread too, so a sequence of launches on one
//!   set spawns threads only at its first multi-block one.
//! * [`KernelProfile::model`] — a cycle-approximate performance model: a
//!   pure function of a launch's geometry ([`LaunchConfig`]), its traffic
//!   (loads, stores, instructions — counts the caller holds after the
//!   launch) and its measured wall, which responds to the tuning knobs the
//!   paper studies (threads/block, registers/thread, working-set vs L2
//!   capacity).
//! * [`MultiGpu`] — an n-device fleet a session spreads its cycle-parallel
//!   windows across, with the paper's `t = t₁/n + ovr` behaviour.
//!
//! Numbers derived from the model are clearly labelled *modeled*; wall-clock
//! numbers are labelled *measured*. Benchmarks report both.

#![deny(missing_docs)]

mod device;
mod memory;
mod multi;
mod perfmodel;
mod profiler;
mod spec;
mod workers;

pub use device::Device;
pub use memory::DeviceMemory;
pub use multi::MultiGpu;
pub use perfmodel::{KernelProfile, LaunchConfig};
pub use profiler::AppPhaseProfile;
pub use spec::DeviceSpec;
pub use workers::WorkerSet;
