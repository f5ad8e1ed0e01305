//! `cold_file_flow`: what one `gatspi sim` invocation costs, with nothing
//! reused.
//!
//! Table 2's "Industry Design D, functional 3" (activity 0.013) is
//! serialised once to Verilog, SDF and VCD text; every iteration then
//! parses the three texts, builds the graph and a fresh session, runs, and
//! writes the SAIF text. Parsing, graph build and session set-up dominate
//! and the level loop is a small share — the mirror image of
//! `dense_kernel`.

use std::sync::Arc;
use std::time::Instant;

use gatspi_core::{RunOptions, Session, SimConfig};
use gatspi_graph::{CircuitGraph, GraphOptions};
use gatspi_netlist::{verilog, CellLibrary};
use gatspi_sdf::SdfFile;
use gatspi_wave::saif::SaifDocument;
use gatspi_wave::{vcd, SimTime, Waveform};

use crate::adapter::read_engine;
use crate::design::suite_row;
use crate::measure::{
    first_run_extra, fnv1a, record_oracle, simulate_reference, Digest, Iteration, Measured, Probe,
    Workload,
};
use crate::trace::Tracer;
use crate::RunConfig;

/// Row of `table2_suite()`: Industry Design D, functional 3.
const SUITE_ROW: usize = 11;

/// The three input files as text, plus what refsim needs for its samples.
pub struct Cold {
    gv: String,
    sdf: String,
    vcd: String,
    duration: SimTime,
    /// Built from the generated objects, never from their text.
    reference_graph: Arc<CircuitGraph>,
    reference_stimuli: Vec<Waveform>,
    sim: SimConfig,
    oracle: Digest,
}

impl Cold {
    /// Generates and serialises the design, runs the refsim oracle and one
    /// discarded iteration.
    pub fn setup(cfg: &RunConfig, tracer: &mut Tracer, m: &mut Measured) -> Result<Cold, String> {
        let design = tracer.span("workloads.generate", || {
            suite_row(SUITE_ROW, cfg.seed, cfg.scale())
        });
        let netlist = &design.netlist;

        let (gv, sdf_text, vcd_text) = tracer.span("workloads.serialize", || {
            let input_names = netlist
                .primary_inputs()
                .iter()
                .map(|&n| netlist.net(n).name());
            (
                verilog::write(netlist),
                design.sdf.write(),
                vcd::write(netlist.name(), input_names.zip(design.stimuli.iter())),
            )
        });

        // The oracle simulates the generated objects; the engine simulates
        // what it parses back from their text, so the parsers and writers
        // are inside the check.
        let graph = CircuitGraph::build(netlist, Some(&design.sdf), &GraphOptions::default())
            .map_err(|e| format!("graph: {e}"))?;
        let t_reference = Instant::now();
        let reference =
            simulate_reference(&graph, &design.stimuli, design.duration, false, tracer)?;
        // The oracle run is the baseline's step exactly: one more sample.
        m.baseline_step_s.push(t_reference.elapsed().as_secs_f64());
        let reference_text = reference.saif.write();

        let mut cold = Cold {
            gv,
            sdf: sdf_text,
            vcd: vcd_text,
            duration: design.duration,
            reference_graph: Arc::new(graph),
            reference_stimuli: design.stimuli,
            sim: cfg.sim_config(),
            oracle: Digest {
                toggles: reference.total_toggles(),
                saif: fnv1a(reference_text.as_bytes()),
                vcd: 0,
            },
        };

        // Warm-up iteration, discarded. Its SAIF text is read back, which
        // checks the writer as well as the engine.
        let (_, saif_text) = cold.run_once(tracer, None)?;
        m.first_run_extra_s.push(first_run_extra(
            &cold.reference_graph,
            &cold.sim,
            &cold.reference_stimuli,
            cold.duration,
            &RunOptions::default(),
        )?);
        let written = SaifDocument::parse(&saif_text).map_err(|e| format!("SAIF text: {e}"))?;
        let diffs = written.diff(&reference.saif);
        if !diffs.is_empty() {
            return Err(format!(
                "SAIF differs from refsim in {} nets, first: {}",
                diffs.len(),
                diffs[0]
            ));
        }
        if fnv1a(saif_text.as_bytes()) != cold.oracle.saif {
            return Err("SAIF text differs from refsim's although no record does".to_string());
        }

        record_oracle(m, cold.oracle);
        cold.oracle.toggles ^= u64::from(cfg.corrupt_oracle);
        m.facts.insert("netlist.gv_bytes", cold.gv.len() as f64);
        m.facts.insert("sdf.bytes", cold.sdf.len() as f64);
        m.facts.insert("wave.vcd_in_bytes", cold.vcd.len() as f64);
        m.facts.insert("wave.saif_bytes", saif_text.len() as f64);
        m.facts
            .insert("graph.gates", cold.reference_graph.n_gates() as f64);
        m.facts
            .insert("graph.levels", cold.reference_graph.n_levels() as f64);
        Ok(cold)
    }

    /// One timed iteration: its walls and digest, and the SAIF text.
    fn run_once(
        &mut self,
        tracer: &mut Tracer,
        probe: Option<&mut Probe>,
    ) -> Result<(Iteration, String), String> {
        let t0 = Instant::now();
        let (step_s, toggles, saif_text) =
            tracer.nest("iteration", |tracer| self.invoke(tracer, probe))?;
        let iteration = Iteration {
            wall_s: t0.elapsed().as_secs_f64(),
            step_s,
            digest: Digest {
                toggles,
                saif: fnv1a(saif_text.as_bytes()),
                vcd: 0,
            },
        };
        Ok((iteration, saif_text))
    }

    /// What `gatspi sim` does, text in to SAIF text out and everything
    /// dropped: `(simulate-step wall, toggles, SAIF text)`.
    fn invoke(
        &self,
        tracer: &mut Tracer,
        probe: Option<&mut Probe>,
    ) -> Result<(f64, u64, String), String> {
        let netlist = tracer
            .span("netlist.parse", || {
                verilog::parse(&self.gv, CellLibrary::industry_mini())
            })
            .map_err(|e| format!("verilog: {e}"))?;
        let sdf = tracer
            .span("sdf.parse", || SdfFile::parse(&self.sdf))
            .map_err(|e| format!("sdf: {e}"))?;
        let testbench = tracer
            .span("wave.vcd_parse", || vcd::parse(&self.vcd))
            .map_err(|e| format!("vcd: {e}"))?;
        let graph = tracer
            .span("graph.build", || {
                CircuitGraph::build(&netlist, Some(&sdf), &GraphOptions::default())
            })
            .map_err(|e| format!("graph: {e}"))?;
        let graph = Arc::new(graph);
        let stimuli: Vec<Waveform> = graph
            .primary_inputs()
            .iter()
            .map(|&s| {
                testbench
                    .signals
                    .get(graph.signal_name(s))
                    .cloned()
                    .ok_or_else(|| format!("vcd misses input `{}`", graph.signal_name(s)))
            })
            .collect::<Result<_, _>>()?;

        let t_step = Instant::now();
        let session = tracer.span("core.session_new", || {
            Session::new(Arc::clone(&graph), self.sim.clone())
        });
        let cache_before = session.plan_cache_stats();
        let result = tracer
            .span("core.run", || {
                session.run_with(&stimuli, self.duration, &RunOptions::default())
            })
            .map_err(|e| e.to_string())?;
        let step_s = t_step.elapsed().as_secs_f64();
        let saif_text = tracer.span("wave.saif_write", || result.saif.write());

        if let Some(p) = probe {
            read_engine(&result, cache_before, session.plan_cache_stats(), p);
        }
        let toggles = result.total_toggles();
        tracer.span("core.drop", || {
            drop((result, session, stimuli, graph, testbench, sdf, netlist));
        });
        Ok((step_s, toggles, saif_text))
    }
}

impl Workload for Cold {
    fn iterate(
        &mut self,
        tracer: &mut Tracer,
        probe: Option<&mut Probe>,
    ) -> Result<Iteration, String> {
        self.run_once(tracer, probe).map(|(it, _)| it)
    }

    fn baseline(&mut self, tracer: &mut Tracer) -> Result<f64, String> {
        let t0 = Instant::now();
        simulate_reference(
            &self.reference_graph,
            &self.reference_stimuli,
            self.duration,
            false,
            tracer,
        )?;
        Ok(t0.elapsed().as_secs_f64())
    }

    fn oracle(&self) -> Digest {
        self.oracle
    }
}
