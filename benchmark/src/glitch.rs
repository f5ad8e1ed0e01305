//! `glitch_eco`: the paper's §4 loop — re-simulate, find glitch sources,
//! fix them, re-simulate incrementally — in the configuration of
//! `crates/bench/benches/glitch_flow.rs`, whose numbers ROADMAP tracks.
//!
//! An iteration is one `run_glitch_flow`. It is the only workload with
//! waveform spill, waveform extraction, classification, the fix search,
//! cone-restricted incremental re-simulation, two cold sessions and fused
//! launch groups. After the flow iterations the workload re-enacts the
//! flow's *re-sim pair* — the four calls `FlowReport::gatspi_seconds` times
//! — through public entry points: host interference on that pair is
//! additive and bimodal, so only a minimum over many samples repeats.

use std::sync::Arc;
use std::time::Instant;

use gatspi_core::{RunOptions, Session, SimResult};
use gatspi_graph::{CircuitGraph, GraphOptions};
use gatspi_netlist::Netlist;
use gatspi_power::flow::{run_glitch_flow, FlowConfig, FlowReport};
use gatspi_power::glitch::classify;
use gatspi_power::sta::max_arrivals;
use gatspi_power::PowerModel;
use gatspi_sdf::SdfFile;
use gatspi_wave::{SimTime, Waveform};
use gatspi_workloads::suite::CYCLE_TIME;

use crate::adapter::read_engine;
use crate::design::{glitch_flow_design, Design};
use crate::measure::{
    first_run_extra, fnv1a, record_oracle, simulate_reference, Digest, Measured, Probe,
};
use crate::trace::{Tracer, OUTSIDE};
use crate::RunConfig;

/// Share of a round the re-sim pairs get; its flow gets the rest.
const PAIR_SHARE: f64 = 0.45;
const MIN_ROUNDS: usize = 2;
const MIN_PAIRS_PER_ROUND: usize = 2;

/// Rounds whose flow also runs the flow's event-driven baseline (its wall
/// is subtracted from the flow's). With the warm-up that makes three
/// baseline samples, spread over the run.
const BASELINE_ON: [usize; 2] = [0, 2];

/// What every flow iteration must report, bit for bit.
#[derive(Debug, Clone, PartialEq)]
struct FlowStats {
    before: (u64, u64),
    after: (u64, u64),
    fixed: Vec<String>,
    saving_pct_bits: u64,
}

impl FlowStats {
    fn of(r: &FlowReport) -> FlowStats {
        FlowStats {
            before: r.glitch_before,
            after: r.glitch_after,
            fixed: r.fixed_gates.clone(),
            saving_pct_bits: r.saving_pct.to_bits(),
        }
    }
}

/// The generated design, the fix the warm-up flow found, and the refsim
/// oracles for both sides of it.
pub struct Glitch {
    netlist: Netlist,
    sdf: SdfFile,
    stimuli: Vec<Waveform>,
    duration: SimTime,
    flow_cfg: FlowConfig,
    areas: Vec<f64>,
    graph0: Arc<CircuitGraph>,
    graph1: Arc<CircuitGraph>,
    sdf_fixed: SdfFile,
    fixed_ids: Vec<usize>,
    stats: FlowStats,
    /// Refsim on the fixed design: total toggles and SAIF text digest.
    after_toggles: u64,
    after_saif: u64,
}

/// The flow's point: a positive saving (a NaN is not one).
fn saves_power(report: &FlowReport) -> bool {
    report.saving_pct > 0.0
}

fn glitch_totals(waveforms: &[Waveform], duration: SimTime) -> (u64, u64) {
    let stats = classify(waveforms, CYCLE_TIME, duration);
    (stats.total_functional(), stats.total_glitch())
}

impl Glitch {
    /// Generates the design, runs refsim on it, runs one discarded flow,
    /// rebuilds the fixed design from the flow's report and runs refsim on
    /// that too.
    pub fn setup(cfg: &RunConfig, tracer: &mut Tracer, m: &mut Measured) -> Result<Glitch, String> {
        let Design {
            netlist,
            sdf,
            stimuli,
            duration,
        } = tracer.span("workloads.generate", || {
            glitch_flow_design(cfg.seed, cfg.scale())
        });
        let flow_cfg = FlowConfig {
            fixes: (netlist.gate_count() / 40).max(8),
            sim: cfg.sim_config(),
            compare_baseline: false,
            ..FlowConfig::default()
        };

        let opts = GraphOptions::default();
        let graph0 = tracer
            .span("graph.build", || {
                CircuitGraph::build(&netlist, Some(&sdf), &opts)
            })
            .map_err(|e| format!("graph: {e}"))?;
        let graph0 = Arc::new(graph0);
        let before = simulate_reference(&graph0, &stimuli, duration, true, tracer)?;
        let before_totals = glitch_totals(
            before
                .waveforms
                .as_deref()
                .ok_or("refsim kept no waveforms")?,
            duration,
        );

        // Warm-up flow, discarded; its baseline sample counts.
        let warmup = run_glitch_flow(
            &netlist,
            &sdf,
            &stimuli,
            duration,
            CYCLE_TIME,
            &FlowConfig {
                compare_baseline: true,
                ..flow_cfg.clone()
            },
        )
        .map_err(|e| format!("warm-up flow: {e}"))?;
        m.baseline_step_s.extend(warmup.baseline_seconds);
        if warmup.glitch_before != before_totals {
            return Err(format!(
                "flow classifies {:?} before the fix, refsim {:?}",
                warmup.glitch_before, before_totals
            ));
        }
        if !saves_power(&warmup) {
            return Err(format!("flow saved {}%", warmup.saving_pct));
        }

        // The fixed design, rebuilt from what the flow reported: each
        // fixed instance's IOPATH triples × slowdown, rounded as the flow
        // rounds them.
        let mut sdf_fixed = sdf.clone();
        let mut fixed_ids = Vec::with_capacity(warmup.fixed_gates.len());
        let scale = |v: Option<f64>| v.map(|x| (x * flow_cfg.slowdown).round());
        for name in &warmup.fixed_gates {
            let gate = netlist
                .find_gate(name)
                .ok_or_else(|| format!("flow fixed unknown gate `{name}`"))?;
            fixed_ids.push(gate.index());
            for cell in &mut sdf_fixed.cells {
                if cell.instance.as_deref() == Some(name.as_str()) {
                    for p in &mut cell.iopaths {
                        for t in [&mut p.rise, &mut p.fall] {
                            (t.min, t.typ, t.max) = (scale(t.min), scale(t.typ), scale(t.max));
                        }
                    }
                }
            }
        }
        let graph1 = tracer
            .span("graph.build", || {
                CircuitGraph::build(&netlist, Some(&sdf_fixed), &opts)
            })
            .map_err(|e| format!("fixed graph: {e}"))?;
        let graph1 = Arc::new(graph1);
        let after = simulate_reference(&graph1, &stimuli, duration, true, tracer)?;
        let after_totals = glitch_totals(
            after
                .waveforms
                .as_deref()
                .ok_or("refsim kept no waveforms")?,
            duration,
        );
        if warmup.glitch_after != after_totals {
            return Err(format!(
                "flow classifies {:?} after the fix, refsim on the rebuilt design {:?}",
                warmup.glitch_after, after_totals
            ));
        }

        let spill = RunOptions::default().with_waveform_spill();
        m.first_run_extra_s.push(first_run_extra(
            &graph0,
            &flow_cfg.sim,
            &stimuli,
            duration,
            &spill,
        )?);

        let after_saif = fnv1a(after.saif.write().as_bytes());
        record_oracle(
            m,
            Digest {
                // Pass-1 functional + glitch toggles.
                toggles: before_totals.0 + before_totals.1,
                saif: after_saif,
                vcd: 0,
            },
        );
        m.facts.insert("graph.gates", graph0.n_gates() as f64);
        m.facts.insert("graph.levels", graph0.n_levels() as f64);
        m.facts
            .insert("sim.glitch_toggles_before", before_totals.1 as f64);
        m.facts
            .insert("sim.glitch_toggles_after", after_totals.1 as f64);
        m.facts
            .insert("sim.fixed_gates", warmup.fixed_gates.len() as f64);
        m.facts.insert("sim.saving_pct", warmup.saving_pct);
        let mut stats = FlowStats::of(&warmup);
        if cfg.corrupt_oracle {
            stats.after.1 ^= 1;
        }
        Ok(Glitch {
            areas: PowerModel::areas_of(&netlist),
            stats,
            after_toggles: after.total_toggles() ^ u64::from(cfg.corrupt_oracle),
            after_saif,
            netlist,
            sdf,
            stimuli,
            duration,
            flow_cfg,
            graph0,
            graph1,
            sdf_fixed,
            fixed_ids,
        })
    }

    /// One timed flow. Returns its wall without the baseline's.
    fn flow(
        &self,
        with_baseline: bool,
        tracer: &mut Tracer,
        m: &mut Measured,
    ) -> Result<f64, String> {
        let cfg = FlowConfig {
            compare_baseline: with_baseline,
            ..self.flow_cfg.clone()
        };
        let t0 = Instant::now();
        let report = tracer.nest("iteration", |tracer| {
            tracer.span("power.flow", || {
                run_glitch_flow(
                    &self.netlist,
                    &self.sdf,
                    &self.stimuli,
                    self.duration,
                    CYCLE_TIME,
                    &cfg,
                )
            })
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let report = report.map_err(|e| e.to_string())?;
        m.engine_step_s.push(report.gatspi_seconds);
        m.baseline_step_s.extend(report.baseline_seconds);
        if tracer.recording() {
            m.probe.wall("power.flow_resim", report.gatspi_seconds);
        }
        if FlowStats::of(&report) != self.stats || !saves_power(&report) {
            return Err(format!(
                "flow reported {:?}, the warm-up {:?}",
                FlowStats::of(&report),
                self.stats
            ));
        }
        Ok(wall_s - report.baseline_seconds.unwrap_or(0.0))
    }

    /// The flow's re-sim pair through public calls: a fresh session and a
    /// spilled full run on the original design, a fresh session and an
    /// incremental run on the fixed one. A traced pair also rebuilds both
    /// graphs and repeats the flow's analysis steps, so each has a span.
    fn resim_pair(&self, tracer: &mut Tracer, probe: Option<&mut Probe>) -> Result<f64, String> {
        tracer.nest("resim_pair", |tracer| self.pair_steps(tracer, probe))
    }

    fn pair_steps(&self, tracer: &mut Tracer, probe: Option<&mut Probe>) -> Result<f64, String> {
        let spill = RunOptions::default().with_waveform_spill();
        let (stimuli, duration) = (&self.stimuli, self.duration);
        let (graph0, graph1) = if probe.is_some() {
            let opts = GraphOptions::default();
            let mut build = |sdf: &SdfFile| {
                tracer
                    .span("graph.build", || {
                        CircuitGraph::build(&self.netlist, Some(sdf), &opts)
                    })
                    .map(Arc::new)
                    .map_err(|e| format!("graph: {e}"))
            };
            (build(&self.sdf)?, build(&self.sdf_fixed)?)
        } else {
            (Arc::clone(&self.graph0), Arc::clone(&self.graph1))
        };

        let t0 = Instant::now();
        let sim0 = tracer.span("core.session_new", || {
            Session::new(Arc::clone(&graph0), self.flow_cfg.sim.clone())
        });
        let cache0 = sim0.plan_cache_stats();
        let r0 = tracer
            .span("core.run", || sim0.run_with(stimuli, duration, &spill))
            .map_err(|e| e.to_string())?;
        let sim1 = tracer.span("core.session_new", || {
            Session::new(Arc::clone(&graph1), self.flow_cfg.sim.clone())
        });
        let cache1 = sim1.plan_cache_stats();
        let r1 = tracer
            .span("core.run_incremental", || {
                sim1.run_incremental(&r0, &self.fixed_ids, stimuli, duration, &spill)
            })
            .map_err(|e| e.to_string())?;
        let pair_s = t0.elapsed().as_secs_f64();

        let mut analysis_matches = true;
        if let Some(p) = probe {
            read_engine(&r0, cache0, sim0.plan_cache_stats(), p);
            read_engine(&r1, cache1, sim1.plan_cache_stats(), p);
            let mut analyse = |r: &SimResult, graph: &CircuitGraph| -> Result<(u64, u64), String> {
                tracer.span("power.estimate", || {
                    self.flow_cfg.power.estimate(
                        graph,
                        r.toggle_counts_slice(),
                        &self.areas,
                        i64::from(duration),
                    )
                });
                let waveforms = tracer
                    .span("core.waveform_extract", || {
                        (0..graph.n_signals())
                            .map(|s| r.waveform(s))
                            .collect::<gatspi_core::Result<Vec<Waveform>>>()
                    })
                    .map_err(|e| e.to_string())?;
                let stats = tracer.span("power.classify", || {
                    classify(&waveforms, CYCLE_TIME, duration)
                });
                Ok((stats.total_functional(), stats.total_glitch()))
            };
            let before = analyse(&r0, &graph0)?;
            let after = analyse(&r1, &graph1)?;
            let critical = tracer.span("power.sta", || max_arrivals(&graph1).critical_path());
            std::hint::black_box(critical);
            analysis_matches = before == self.stats.before && after == self.stats.after;
        }
        let matches = analysis_matches
            && r1.total_toggles() == self.after_toggles
            && fnv1a(r1.saif.write().as_bytes()) == self.after_saif;
        tracer.span("core.drop", || drop((r1, sim1, r0, sim0, graph1, graph0)));
        if !matches {
            return Err(
                "re-sim pair does not reproduce the fixed design's refsim result".to_string(),
            );
        }
        Ok(pair_s)
    }

    /// The measured phase, in rounds of one flow followed by re-sim pairs
    /// for `PAIR_SHARE` of the round: pairs and the flows' baseline samples
    /// interleave, so a slow spell of the host hits both sides of
    /// `speedup_vs_refsim`.
    pub fn measure(&self, cfg: &RunConfig, tracer: &mut Tracer, m: &mut Measured) {
        let start = Instant::now();
        let smoke = cfg.smoke_iterations();
        // Tags spans; counts flows and pairs alike.
        let mut iteration = 0u32;
        let mut pairs = 0usize;
        let mut begin = |tracer: &mut Tracer, m: &mut Measured, traced: bool| {
            tracer.set_recording(traced);
            tracer.set_iteration(iteration);
            iteration += 1;
            m.attempted += 1;
        };
        let end = |m: &mut Measured, traced: bool, failure: Option<String>| {
            if let Some(e) = failure {
                eprintln!("iteration failed: {e}");
                m.failed += 1;
            }
            if traced {
                m.probe.end_iteration();
            }
        };

        let mut last_round_s = 0.0;
        for round in 0usize.. {
            let elapsed = start.elapsed().as_secs_f64();
            let done = match smoke {
                Some(n) => round >= n,
                // Start another round only if at least half of it fits.
                None => round >= MIN_ROUNDS && elapsed + 0.5 * last_round_s >= cfg.seconds,
            };
            if done {
                break;
            }
            // A flow is one opaque call, so recording adds one span to it;
            // traced and untraced flows still alternate like everywhere.
            let traced = cfg.trace && round.is_multiple_of(2);
            begin(tracer, m, traced);
            let flow_s = match self.flow(BASELINE_ON.contains(&round), tracer, m) {
                Ok(wall_s) => {
                    if traced {
                        m.traced_turnaround_s.push(wall_s);
                    } else {
                        m.turnaround_s.push(wall_s);
                    }
                    end(m, traced, None);
                    wall_s
                }
                Err(e) => {
                    end(m, traced, Some(e));
                    0.0
                }
            };

            let pairs_s = flow_s * PAIR_SHARE / (1.0 - PAIR_SHARE);
            let t_pairs = Instant::now();
            for k in 0usize.. {
                let enough = match smoke {
                    Some(_) => k >= 1,
                    None => k >= MIN_PAIRS_PER_ROUND && t_pairs.elapsed().as_secs_f64() >= pairs_s,
                };
                if enough {
                    break;
                }
                let traced = cfg.trace && pairs.is_multiple_of(2);
                pairs += 1;
                begin(tracer, m, traced);
                match self.resim_pair(tracer, traced.then_some(&mut m.probe)) {
                    Ok(pair_s) => {
                        m.engine_step_s.push(pair_s);
                        end(m, traced, None);
                    }
                    Err(e) => end(m, traced, Some(e)),
                }
            }
            last_round_s = start.elapsed().as_secs_f64() - elapsed;
        }
        tracer.set_recording(false);
        tracer.set_iteration(OUTSIDE);
    }
}
