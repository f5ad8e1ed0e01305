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
//! * [`Device::launch`] — a CUDA-style kernel launch: a grid of blocks of
//!   logical threads (warp size 32), executed functionally on host worker
//!   threads, with per-launch wall-clock measurement **and** a cycle-approximate
//!   performance model ([`KernelProfile`]) that responds to the same tuning
//!   knobs the paper studies (threads/block, registers/thread, working-set
//!   vs L2 capacity, coalescing).
//! * [`Device::worker_set`] — the helper threads a sequence of launches
//!   shares ([`WorkerSet`]): a launch of two or more blocks wakes them and
//!   runs blocks on the calling thread too, so no launch but a set's first
//!   spawns a thread.
//! * [`MultiGpu`] — an n-device fleet a session spreads its cycle-parallel
//!   windows across, with the paper's `t = t₁/n + ovr` behaviour.
//!
//! Numbers derived from the model are clearly labelled *modeled*; wall-clock
//! numbers are labelled *measured*. Benchmarks report both.

#![deny(missing_docs)]

mod device;
mod launch;
mod memory;
mod multi;
mod perfmodel;
mod profiler;
mod spec;
mod workers;

pub use device::Device;
pub use launch::{LaneCounters, LaunchConfig};
pub use memory::DeviceMemory;
pub use multi::MultiGpu;
pub use perfmodel::KernelProfile;
pub use profiler::AppPhaseProfile;
pub use spec::DeviceSpec;
pub use workers::WorkerSet;

/// Threads per warp — fixed at 32, as on all NVIDIA architectures.
pub const WARP_SIZE: usize = 32;
