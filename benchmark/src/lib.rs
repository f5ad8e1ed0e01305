//! The repository's benchmark: four end-to-end workloads, each checked
//! against `gatspi-refsim`, with per-layer attribution of host wall time.
//!
//! Every wall reported here is **measured host seconds**. Modeled GPU
//! seconds appear only under `gpu.*` with unit `s_modeled` and are never
//! added to a host wall. See `README.md` beside this crate for why each
//! workload exists and which metric each layer should move.

#![deny(missing_docs)]

pub mod adapter;
pub mod cold;
pub mod compare;
pub mod design;
pub mod glitch;
pub mod json;
pub mod measure;
pub mod report;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod warm;

use std::time::Instant;

use gatspi_core::SimConfig;
use gatspi_workloads::suite::CYCLE_TIME;
use measure::{timed_loop, Measured};
use report::Outcome;
use trace::Tracer;

/// The four workloads, in the order `all` runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm session, SAIF only: the level loop.
    DenseKernel,
    /// Text in, SAIF text out, nothing reused: parsers, graph, session.
    ColdFileFlow,
    /// Warm session streaming every signal to VCD: store, D2H, sink.
    VcdStream,
    /// The §4 glitch-fix loop: spill, analysis, fix search, incremental.
    GlitchEco,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::DenseKernel,
        Workload::ColdFileFlow,
        Workload::VcdStream,
        Workload::GlitchEco,
    ];

    /// The name used on the command line and in result files.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseKernel => "dense_kernel",
            Workload::ColdFileFlow => "cold_file_flow",
            Workload::VcdStream => "vcd_stream",
            Workload::GlitchEco => "glitch_eco",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// XORed into the SDF and stimulus generator seeds; 0 is the suite's
    /// committed seeds (see [`design`]).
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Record spans and read the engine's profiles (per-layer metrics).
    pub trace: bool,
    /// Scale 0.1, two iterations, one set-up: the test-suite run.
    pub smoke: bool,
    /// Flip a bit of the oracle after set-up, so every iteration must fail
    /// (proves the correctness gate is live).
    pub corrupt_oracle: bool,
}

impl RunConfig {
    /// Design scale relative to the suite's default sizes.
    pub fn scale(&self) -> f64 {
        if self.smoke {
            0.1
        } else {
            1.0
        }
    }

    /// The engine configuration every workload simulates with: the
    /// defaults, windows cut at cycle boundaries (what `gatspi sim --cycle`
    /// and `glitch_flow.rs` use). A smoke run shrinks the arena to match
    /// its designs, so a debug build does not spend the test first-touching
    /// 256 MB per session.
    pub fn sim_config(&self) -> SimConfig {
        let mut sim = SimConfig::default().with_window_align(CYCLE_TIME);
        if self.smoke {
            sim.memory_words = 4 << 20;
        }
        sim
    }

    /// Fixed iteration count of a smoke run; `None` means time-boxed.
    pub fn smoke_iterations(&self) -> Option<usize> {
        self.smoke.then_some(2)
    }

    /// How many times set-up runs; `setup_s` is the median. The glitch
    /// flow's set-up holds a whole flow and two refsim runs, which is
    /// steady enough alone and too long to repeat inside the time budget.
    pub fn setups(&self) -> usize {
        if self.smoke || self.workload == Workload::GlitchEco {
            1
        } else {
            3
        }
    }
}

/// Sets up `cfg.setups()` times, timing each, and returns the last
/// instance; earlier ones are dropped first so arenas never coexist.
fn repeat_setup<W>(
    cfg: &RunConfig,
    tracer: &mut Tracer,
    m: &mut Measured,
    mut setup: impl FnMut(&mut Tracer, &mut Measured) -> Result<W, String>,
) -> Result<W, String> {
    tracer.set_recording(cfg.trace);
    let mut last = None;
    for _ in 0..cfg.setups() {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup(tracer, m)?);
        m.setups_s.push(t.elapsed().as_secs_f64());
    }
    Ok(last.expect("setups() is at least 1"))
}

/// Runs one workload: set-up (with its refsim oracle), the measured loop,
/// and the reduction to metrics. The tracer comes back for span dumps.
///
/// # Errors
///
/// Set-up failures — the engine disagreeing with refsim before the first
/// timed iteration — and engine errors outside iterations. Failures inside
/// iterations are counted in the outcome instead.
pub fn run_workload(cfg: &RunConfig) -> Result<(Outcome, Tracer), String> {
    let mut tracer = Tracer::default();
    let mut m = Measured::default();
    match cfg.workload {
        Workload::DenseKernel | Workload::VcdStream => {
            let output = if cfg.workload == Workload::DenseKernel {
                warm::Output::Count
            } else {
                warm::Output::Stream
            };
            let mut w = repeat_setup(cfg, &mut tracer, &mut m, |t, m| {
                warm::Warm::setup(output, cfg, t, m)
            })?;
            timed_loop(&mut w, cfg, &mut tracer, &mut m)?;
        }
        Workload::ColdFileFlow => {
            let mut w = repeat_setup(cfg, &mut tracer, &mut m, |t, m| {
                cold::Cold::setup(cfg, t, m)
            })?;
            timed_loop(&mut w, cfg, &mut tracer, &mut m)?;
        }
        Workload::GlitchEco => {
            let w = repeat_setup(cfg, &mut tracer, &mut m, |t, m| {
                glitch::Glitch::setup(cfg, t, m)
            })?;
            w.measure(cfg, &mut tracer, &mut m);
        }
    }
    Ok((report::outcome(cfg, &m, tracer.spans()), tracer))
}
