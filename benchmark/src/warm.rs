//! `dense_kernel` and `vcd_stream`: one design, one warm session, two ways
//! through the same level loop.
//!
//! Both run Table 2's "Industry Design B, high activity short test". The
//! first counts toggles only (SAIF out of `Session::run_with`), so the
//! level loop is nearly the whole iteration; the second stores every
//! waveform and streams it through a `VcdSink`, so store + D2H + sink sit
//! beside the same kernels. A gain on one path paid for by the other shows
//! as one workload moving and the other not.

use std::sync::Arc;
use std::time::Instant;

use gatspi_core::{RunOptions, Session, SimResult, VcdSink, WaveformSink, WindowInfo};
use gatspi_graph::{CircuitGraph, GraphOptions, SignalId};
use gatspi_refsim::RefResult;
use gatspi_wave::{vcd, SimTime, Waveform};

use crate::adapter::read_engine;
use crate::design::suite_row;
use crate::measure::{
    fnv1a, record_oracle, simulate_reference, Digest, Iteration, Measured, Probe, Workload,
};
use crate::trace::Tracer;
use crate::RunConfig;

/// Row of `table2_suite()`: Industry Design B, high activity short test.
const SUITE_ROW: usize = 8;

/// The VCD round trip compares every this-many-th signal with refsim.
const VCD_SAMPLE_STRIDE: usize = 16;

/// Which output the iteration produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Output {
    /// SAIF only: `Session::run_with(.., &RunOptions::default())`.
    Count,
    /// Every signal streamed to VCD: `Session::run_streaming` into a
    /// `VcdSink` over a reused buffer.
    Stream,
}

/// Adds up the time spent inside the wrapped sink's callbacks.
struct TimedSink<'a> {
    inner: &'a mut dyn WaveformSink,
    seconds: f64,
}

impl WaveformSink for TimedSink<'_> {
    fn waveform(&mut self, signal: usize, info: &WindowInfo, raw: &[i32]) {
        let t = Instant::now();
        self.inner.waveform(signal, info, raw);
        self.seconds += t.elapsed().as_secs_f64();
    }
}

/// A generated design with its warm session and oracle.
pub struct Warm {
    output: Output,
    graph: Arc<CircuitGraph>,
    stimuli: Vec<Waveform>,
    duration: SimTime,
    session: Session,
    names: Vec<String>,
    /// Reused across iterations, as a long-lived caller would.
    vcd_buf: Vec<u8>,
    oracle: Digest,
}

impl Warm {
    /// Generates the design, builds graph and session, warms up, and runs
    /// the refsim oracle.
    pub fn setup(
        output: Output,
        cfg: &RunConfig,
        tracer: &mut Tracer,
        m: &mut Measured,
    ) -> Result<Warm, String> {
        let design = tracer.span("workloads.generate", || {
            suite_row(SUITE_ROW, cfg.seed, cfg.scale())
        });
        let graph = tracer
            .span("graph.build", || {
                CircuitGraph::build(&design.netlist, Some(&design.sdf), &GraphOptions::default())
            })
            .map_err(|e| format!("graph: {e}"))?;
        let graph = Arc::new(graph);
        let session = tracer.span("core.session_new", || {
            Session::new(Arc::clone(&graph), cfg.sim_config())
        });
        let names: Vec<String> = (0..graph.n_signals())
            .map(|s| graph.signal_name(SignalId(s as u32)).to_string())
            .collect();
        let mut warm = Warm {
            output,
            graph,
            stimuli: design.stimuli,
            duration: design.duration,
            session,
            names,
            vcd_buf: Vec::new(),
            oracle: Digest::default(),
        };

        // Warm-up: the first run compiles the plan and trains the extent
        // predictor, the second shows what that cost.
        let (first_s, _) = warm.run_once(tracer, None)?;
        let (second_s, engine) = warm.run_once(tracer, None)?;
        m.first_run_extra_s.push(first_s - second_s);

        let t_reference = Instant::now();
        let reference = warm.simulate_reference(tracer)?;
        if output == Output::Count {
            // The oracle run is the baseline's step exactly, so it is one
            // more sample of it.
            m.baseline_step_s.push(t_reference.elapsed().as_secs_f64());
        }
        let diffs = engine.saif.diff(&reference.saif);
        if !diffs.is_empty() {
            return Err(format!(
                "SAIF differs from refsim in {} nets, first: {}",
                diffs.len(),
                diffs[0]
            ));
        }
        warm.oracle = Digest {
            toggles: reference.total_toggles(),
            saif: fnv1a(reference.saif.write().as_bytes()),
            vcd: 0,
        };
        if output == Output::Stream {
            // The streamed text has no independent byte-exact oracle, so
            // it is parsed back and checked against refsim's waveforms;
            // the digest of that verified text is what iterations repeat.
            let text = std::str::from_utf8(&warm.vcd_buf).map_err(|e| e.to_string())?;
            let doc = vcd::parse(text).map_err(|e| format!("streamed VCD: {e}"))?;
            let waves = reference
                .waveforms
                .as_ref()
                .ok_or("refsim kept no waveforms")?;
            let duration = warm.duration;
            for s in (0..warm.names.len()).step_by(VCD_SAMPLE_STRIDE) {
                let streamed = doc
                    .signals
                    .get(&warm.names[s])
                    .ok_or_else(|| format!("streamed VCD misses `{}`", warm.names[s]))?;
                if streamed.window(0, duration) != waves[s].window(0, duration) {
                    return Err(format!(
                        "streamed VCD differs from refsim on `{}`",
                        warm.names[s]
                    ));
                }
            }
            warm.oracle.vcd = fnv1a(&warm.vcd_buf);
        }
        let warmed = warm.digest(&engine);
        if warmed != warm.oracle {
            return Err(format!(
                "warm-up digest {warmed:?} differs from refsim's {:?}",
                warm.oracle
            ));
        }

        record_oracle(m, warm.oracle);
        warm.oracle.toggles ^= u64::from(cfg.corrupt_oracle);
        m.facts.insert("graph.gates", warm.graph.n_gates() as f64);
        m.facts.insert("graph.levels", warm.graph.n_levels() as f64);
        m.facts
            .insert("wave.vcd_out_bytes", warm.vcd_buf.len() as f64);
        Ok(warm)
    }

    /// One refsim run over the design; it keeps waveforms when the engine's
    /// deliverable is waveforms.
    fn simulate_reference(&self, tracer: &mut Tracer) -> Result<RefResult, String> {
        simulate_reference(
            &self.graph,
            &self.stimuli,
            self.duration,
            self.output == Output::Stream,
            tracer,
        )
    }

    /// One iteration's timed part: wall and the engine's result.
    fn run_once(
        &mut self,
        tracer: &mut Tracer,
        mut probe: Option<&mut Probe>,
    ) -> Result<(f64, SimResult), String> {
        let cache_before = self.session.plan_cache_stats();
        let t0 = Instant::now();
        let result = tracer.nest("iteration", |tracer| match self.output {
            Output::Count => tracer
                .span("core.run", || {
                    self.session
                        .run_with(&self.stimuli, self.duration, &RunOptions::default())
                })
                .map_err(|e| e.to_string()),
            Output::Stream => self.stream(tracer, probe.as_deref_mut()),
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let result = result?;
        if let Some(p) = probe {
            read_engine(&result, cache_before, self.session.plan_cache_stats(), p);
        }
        Ok((wall_s, result))
    }

    /// The streaming iteration: a `VcdSink` over the reused buffer, the
    /// run, and the sink's final flush.
    fn stream(
        &mut self,
        tracer: &mut Tracer,
        probe: Option<&mut Probe>,
    ) -> Result<SimResult, String> {
        let names: Vec<&str> = self.names.iter().map(String::as_str).collect();
        let mut buf = std::mem::take(&mut self.vcd_buf);
        buf.clear();
        let mut sink = tracer
            .span("core.sink_open", || {
                VcdSink::new(buf, self.graph.name(), &names)
            })
            .map_err(|e| format!("VcdSink::new: {e}"))?;
        // Only a traced iteration pays for timing every callback.
        let mut timed = TimedSink {
            inner: &mut sink,
            seconds: 0.0,
        };
        let target: &mut dyn WaveformSink = if probe.is_some() {
            &mut timed
        } else {
            &mut *timed.inner
        };
        let result = tracer.span("core.run", || {
            self.session
                .run_streaming(&self.stimuli, self.duration, &RunOptions::default(), target)
        });
        let in_callbacks_s = timed.seconds;
        let t_finish = Instant::now();
        self.vcd_buf = tracer
            .span("core.sink_finish", || sink.finish())
            .map_err(|e| format!("VcdSink::finish: {e}"))?;
        if let Some(p) = probe {
            p.wall(
                "core.sink",
                in_callbacks_s + t_finish.elapsed().as_secs_f64(),
            );
        }
        result.map_err(|e| e.to_string())
    }

    /// Digest of a result and, when streaming, of the bytes it left in the
    /// buffer.
    fn digest(&self, r: &SimResult) -> Digest {
        Digest {
            toggles: r.total_toggles(),
            saif: fnv1a(r.saif.write().as_bytes()),
            vcd: match self.output {
                Output::Count => 0,
                Output::Stream => fnv1a(&self.vcd_buf),
            },
        }
    }
}

impl Workload for Warm {
    fn iterate(
        &mut self,
        tracer: &mut Tracer,
        probe: Option<&mut Probe>,
    ) -> Result<Iteration, String> {
        let (wall_s, result) = self.run_once(tracer, probe)?;
        Ok(Iteration {
            wall_s,
            // The whole iteration is the simulate step on a warm session.
            step_s: wall_s,
            digest: self.digest(&result),
        })
    }

    fn baseline(&mut self, tracer: &mut Tracer) -> Result<f64, String> {
        let t0 = Instant::now();
        let reference = self.simulate_reference(tracer)?;
        if let Some(waves) = &reference.waveforms {
            // The reference pays for the same deliverable: a VCD text of
            // every signal.
            let text = tracer.span("refsim.vcd_write", || {
                vcd::write(
                    self.graph.name(),
                    self.names.iter().map(String::as_str).zip(waves.iter()),
                )
            });
            std::hint::black_box(text.len());
        }
        Ok(t0.elapsed().as_secs_f64())
    }

    fn oracle(&self) -> Digest {
        self.oracle
    }
}
