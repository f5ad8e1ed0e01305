//! The closed loop: one client on one driver thread, the next iteration
//! starts when the previous one has returned. The engine's own workers stay
//! at `available_parallelism()`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use gatspi_core::{RunOptions, Session, SimConfig};
use gatspi_graph::CircuitGraph;
use gatspi_refsim::{EventSimulator, RefConfig, RefResult};
use gatspi_wave::{SimTime, Waveform};

use crate::trace::{Tracer, OUTSIDE};
use crate::RunConfig;

/// Baseline (refsim) samples taken through a run, evenly spaced so a slow
/// spell of the host hits both sides of the ratio.
pub const BASELINE_SAMPLES: usize = 3;

/// What one iteration produced, reduced to what must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    /// Simulated toggles (`SimResult::total_toggles`).
    pub toggles: u64,
    /// FNV-1a of the SAIF text.
    pub saif: u64,
    /// FNV-1a of the streamed VCD bytes; 0 where none is written.
    pub vcd: u64,
}

/// Records the oracle digest as the `sim.*` statistics a speed-up must
/// leave identical; `sim.total_toggles` is also the numerator of
/// `toggles_per_s`. Hashes are cut to 48 bits so they survive a trip
/// through a JSON number.
pub fn record_oracle(m: &mut Measured, oracle: Digest) {
    const MASK: u64 = (1 << 48) - 1;
    m.facts.insert("sim.total_toggles", oracle.toggles as f64);
    m.facts
        .insert("sim.saif_digest", (oracle.saif & MASK) as f64);
    m.facts.insert("sim.vcd_digest", (oracle.vcd & MASK) as f64);
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One timed iteration.
#[derive(Debug, Clone, Copy)]
pub struct Iteration {
    /// Wall of the whole iteration, as the workload defines it.
    pub wall_s: f64,
    /// Wall of the simulate step inside it (the denominator of
    /// `speedup_vs_refsim`).
    pub step_s: f64,
    /// Result digest, taken outside the timed span.
    pub digest: Digest,
}

/// Measurements the traced pass takes that are not spans: walls and counts
/// the engine reports about itself, read at iteration boundaries.
#[derive(Debug, Default)]
pub struct Probe {
    current_walls: BTreeMap<&'static str, f64>,
    current_counts: BTreeMap<&'static str, f64>,
    /// Per traced iteration, seconds by name.
    pub walls: BTreeMap<&'static str, Vec<f64>>,
    /// Exact counts of the first traced iteration that read the engine —
    /// a fixed point in the session's history, so they repeat for a seed
    /// however many iterations the time box allows.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Probe {
    /// Adds seconds to the current iteration.
    pub fn wall(&mut self, name: &'static str, seconds: f64) {
        *self.current_walls.entry(name).or_default() += seconds;
    }

    /// Adds to a count of the current iteration.
    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.current_counts.entry(name).or_default() += n;
    }

    /// Sets a value of the current iteration unless it already has one.
    pub fn count_once(&mut self, name: &'static str, n: f64) {
        self.current_counts.entry(name).or_insert(n);
    }

    /// Closes the current iteration.
    pub fn end_iteration(&mut self) {
        for (name, s) in std::mem::take(&mut self.current_walls) {
            self.walls.entry(name).or_default().push(s);
        }
        let counts = std::mem::take(&mut self.current_counts);
        if self.counts.is_empty() {
            self.counts = counts;
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall of each set-up.
    pub setups_s: Vec<f64>,
    /// Iteration walls with recording off.
    pub turnaround_s: Vec<f64>,
    /// Iteration walls with recording on (traced runs only).
    pub traced_turnaround_s: Vec<f64>,
    /// Engine simulate-step walls.
    pub engine_step_s: Vec<f64>,
    /// Refsim walls of the same step.
    pub baseline_step_s: Vec<f64>,
    /// First run on a fresh session minus the second, per set-up.
    pub first_run_extra_s: Vec<f64>,
    /// Iterations attempted.
    pub attempted: usize,
    /// Iterations that returned `Err` or missed the oracle digest.
    pub failed: usize,
    /// Input/output sizes and simulated statistics, exact for a seed.
    pub facts: BTreeMap<&'static str, f64>,
    /// The traced pass's non-span measurements.
    pub probe: Probe,
}

/// A workload the shared loop can drive.
pub trait Workload {
    /// One timed iteration. `probe` is `Some` on traced iterations.
    fn iterate(
        &mut self,
        tracer: &mut Tracer,
        probe: Option<&mut Probe>,
    ) -> Result<Iteration, String>;
    /// One refsim sample of the iteration's simulate step, in seconds.
    fn baseline(&mut self, tracer: &mut Tracer) -> Result<f64, String>;
    /// The digest every iteration must reproduce.
    fn oracle(&self) -> Digest;
}

/// Runs `workload` for `cfg.seconds` (or `cfg.smoke_iterations()`),
/// interleaving baseline samples, checking every digest.
pub fn timed_loop(
    workload: &mut dyn Workload,
    cfg: &RunConfig,
    tracer: &mut Tracer,
    m: &mut Measured,
) -> Result<(), String> {
    let oracle = workload.oracle();
    let start = Instant::now();
    let mut baselines_taken = 0usize;
    for i in 0u32.. {
        let elapsed = start.elapsed().as_secs_f64();
        // (stop now, baseline samples due by now)
        let (done, due) = match cfg.smoke_iterations() {
            Some(n) => (i as usize >= n, 1),
            None => (
                elapsed >= cfg.seconds,
                1 + (elapsed / cfg.seconds * BASELINE_SAMPLES as f64) as usize,
            ),
        };
        if done {
            break;
        }
        if baselines_taken < due.min(BASELINE_SAMPLES) {
            baselines_taken += 1;
            tracer.set_recording(cfg.trace);
            tracer.set_iteration(OUTSIDE);
            m.baseline_step_s.push(workload.baseline(tracer)?);
        }
        // A traced run alternates recording on and off, so the same
        // process yields the untraced turnaround its overhead is against.
        let traced = cfg.trace && i.is_multiple_of(2);
        tracer.set_recording(traced);
        tracer.set_iteration(i);
        m.attempted += 1;
        match workload.iterate(tracer, traced.then_some(&mut m.probe)) {
            Ok(it) => {
                if traced {
                    m.probe.end_iteration();
                    m.traced_turnaround_s.push(it.wall_s);
                } else {
                    m.turnaround_s.push(it.wall_s);
                }
                m.engine_step_s.push(it.step_s);
                if it.digest != oracle {
                    m.failed += 1;
                }
            }
            Err(e) => {
                eprintln!("iteration {i} failed: {e}");
                m.failed += 1;
            }
        }
    }
    tracer.set_recording(false);
    tracer.set_iteration(OUTSIDE);
    Ok(())
}

/// One refsim run inside a `refsim.run` span.
pub fn simulate_reference(
    graph: &CircuitGraph,
    stimuli: &[Waveform],
    duration: SimTime,
    record_waveforms: bool,
    tracer: &mut Tracer,
) -> Result<RefResult, String> {
    let config = RefConfig {
        record_waveforms,
        ..RefConfig::default()
    };
    tracer
        .span("refsim.run", || {
            EventSimulator::new(graph, config).run(stimuli, duration)
        })
        .map_err(|e| format!("refsim: {e}"))
}

/// What the first run on a fresh session costs over the second, in
/// seconds: plan compile plus a cold extent predictor.
pub fn first_run_extra(
    graph: &Arc<CircuitGraph>,
    sim: &SimConfig,
    stimuli: &[Waveform],
    duration: SimTime,
    opts: &RunOptions,
) -> Result<f64, String> {
    let session = Session::new(Arc::clone(graph), sim.clone());
    let timed_run = || {
        let t = Instant::now();
        session
            .run_with(stimuli, duration, opts)
            .map(|_| t.elapsed().as_secs_f64())
            .map_err(|e| e.to_string())
    };
    Ok(timed_run()? - timed_run()?)
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn probe_keeps_first_iteration_counts_and_every_wall() {
        let mut p = Probe::default();
        p.wall("core.drain", 0.25);
        p.wall("core.drain", 0.25);
        p.count("core.launches", 20.0);
        p.count("core.launches", 1.0);
        p.count_once("core.spec_hit_rate", 1.0);
        p.count_once("core.spec_hit_rate", 0.5);
        p.end_iteration();
        p.wall("core.drain", 0.75);
        p.count("core.launches", 99.0);
        p.end_iteration();
        assert_eq!(p.walls["core.drain"], vec![0.5, 0.75]);
        assert_eq!(p.counts["core.launches"], 21.0);
        assert_eq!(p.counts["core.spec_hit_rate"], 1.0);
    }

    #[test]
    fn peak_rss_reads_proc() {
        assert!(peak_rss_mb() > 0.0);
    }
}
