//! The §4 glitch-optimization flow: re-simulate → analyse → fix → re-simulate.
//!
//! The paper deploys GATSPI in a glitch-power-reduction loop on a 1.3M-gate
//! design: custom scripts analyse glitch activity, designer-informed fixes
//! are applied to the netlist, and a second re-simulation confirms a 1.4%
//! design-power saving — with GATSPI cutting the loop's re-simulation
//! turnaround 449× versus the commercial simulator.
//!
//! This module reproduces that loop end to end. The "designer-informed
//! glitch fix" is implemented as *glitch absorption by cell slowdown*: the
//! gates whose outputs glitch most are downsized (their arc delays scaled
//! up), widening their inertial filtering window so sub-delay input pulses
//! die at the source instead of propagating — a standard glitch-power
//! technique that also saves the downsized cells' own energy. A static-
//! timing guard keeps every slowdown within the clock period's slack.
//!
//! The host side of the loop costs what the fix changes. Both passes
//! classify glitches straight from the run's spill, and pass 2 re-folds
//! only the signals its incremental run recomputed. The fix search indexes
//! the SDF once, re-annotates one gate per candidate, and re-times only
//! the arrivals that gate's new delays reach.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use gatspi_core::{CoreError, RunOptions, Session, SimConfig};
use gatspi_graph::{CircuitGraph, GraphOptions, SdfIndex, SignalId};
use gatspi_netlist::Netlist;
use gatspi_refsim::{EventSimulator, RefConfig};
use gatspi_sdf::{DelayTriple, SdfFile};
use gatspi_wave::{SimTime, Waveform};

use crate::glitch::{classify_result, reclassify, GlitchStats};
use crate::sta::TimingGuard;
use crate::{PowerModel, PowerReport};

/// Flow configuration.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// How many worst glitch-source gates to fix.
    pub fixes: usize,
    /// Arc-delay scale factor applied to fixed gates (cell downsizing).
    pub slowdown: f64,
    /// Timing guard: after fixing, the critical path must stay below this
    /// fraction of the clock period.
    pub max_path_fraction: f64,
    /// Power model.
    pub power: PowerModel,
    /// GATSPI engine configuration for both re-simulations.
    pub sim: SimConfig,
    /// Also run the event-driven baseline twice to measure the turnaround
    /// speedup (skippable because it dominates the flow's wall time).
    pub compare_baseline: bool,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            fixes: 10,
            slowdown: 2.0,
            max_path_fraction: 0.9,
            power: PowerModel::default(),
            sim: SimConfig::default(),
            compare_baseline: true,
        }
    }
}

/// Outcome of one optimization loop.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Power before fixing.
    pub power_before: PowerReport,
    /// Power after fixing.
    pub power_after: PowerReport,
    /// Relative saving in percent (positive = improved).
    pub saving_pct: f64,
    /// (functional, glitch) toggle totals before fixing.
    pub glitch_before: (u64, u64),
    /// (functional, glitch) toggle totals after fixing.
    pub glitch_after: (u64, u64),
    /// Instance names of the gates that received balancing fixes.
    pub fixed_gates: Vec<String>,
    /// Wall seconds for the two GATSPI re-simulations.
    pub gatspi_seconds: f64,
    /// Wall seconds of the fix search (candidates, re-annotation and the
    /// timing guard).
    pub fix_search_seconds: f64,
    /// Wall seconds of both passes' analysis: power estimate plus glitch
    /// classification.
    pub analysis_seconds: f64,
    /// Wall seconds for the two baseline re-simulations, if measured.
    pub baseline_seconds: Option<f64>,
}

impl FlowReport {
    /// Turnaround speedup of GATSPI over the baseline, if measured.
    pub fn turnaround_speedup(&self) -> Option<f64> {
        self.baseline_seconds
            .map(|b| b / self.gatspi_seconds.max(1e-12))
    }
}

/// Runs the full glitch-optimization loop.
///
/// # Errors
///
/// [`CoreError::BadConfig`] if `cycle_time` is not positive or the
/// netlist and SDF do not build a circuit graph (e.g. a combinational
/// loop); otherwise propagates GATSPI engine errors (e.g. arena
/// exhaustion, a stimulus count that does not match the netlist's
/// inputs). Both re-simulations run with host waveform spill enabled, so
/// glitch classification works even when the run segments.
pub fn run_glitch_flow(
    netlist: &Netlist,
    sdf: &SdfFile,
    stimuli: &[Waveform],
    duration: SimTime,
    cycle_time: SimTime,
    cfg: &FlowConfig,
) -> gatspi_core::Result<FlowReport> {
    if cycle_time <= 0 {
        return Err(CoreError::BadConfig {
            detail: format!("cycle_time must be positive, got {cycle_time}"),
        });
    }
    let areas = PowerModel::areas_of(netlist);
    let opts = GraphOptions::default();
    let graph0 =
        CircuitGraph::build(netlist, Some(sdf), &opts).map_err(|e| CoreError::BadConfig {
            detail: format!("netlist does not build a circuit graph: {e}"),
        })?;
    let graph0 = Arc::new(graph0);

    // --- Pass 1: re-simulate and analyse. Waveform spill keeps glitch
    // classification valid even if the arena forces segmentation.
    let run_opts = RunOptions::default().with_waveform_spill();
    let t0 = Instant::now();
    let sim0 = Session::new(Arc::clone(&graph0), cfg.sim.clone());
    let r0 = sim0.run_with(stimuli, duration, &run_opts)?;
    let mut gatspi_seconds = t0.elapsed().as_secs_f64();
    let t = Instant::now();
    let power_before = cfg.power.estimate(
        &graph0,
        r0.toggle_counts_slice(),
        &areas,
        i64::from(duration),
    );
    let stats0 = classify_result(&r0, cycle_time, duration)?;
    let mut analysis_seconds = t.elapsed().as_secs_f64();

    // --- Fix: slow the worst glitch sources to absorb their pulses.
    let t = Instant::now();
    let fixes = apply_slowdown_fixes(netlist, sdf, &graph0, &stats0, cycle_time, cfg);
    let fix_search_seconds = t.elapsed().as_secs_f64();
    let (fixed_gates, fixed_ids) = (fixes.names, fixes.ids);

    // --- Pass 2: incremental re-simulation of the fixed design. Only the
    // resized gates' transitive fan-out cone re-executes; every waveform
    // outside it is reused from pass 1's spill (the fixes change delays,
    // not topology, so out-of-cone activity is provably identical), and so
    // are pass 1's glitch counts for those signals.
    let graph1 = Arc::new(fixes.graph);
    let t1 = Instant::now();
    let sim1 = Session::new(Arc::clone(&graph1), cfg.sim.clone());
    let r1 = sim1.run_incremental(&r0, &fixed_ids, stimuli, duration, &run_opts)?;
    gatspi_seconds += t1.elapsed().as_secs_f64();
    let t = Instant::now();
    let power_after = cfg.power.estimate(
        &graph1,
        r1.toggle_counts_slice(),
        &areas,
        i64::from(duration),
    );
    let stats1 = reclassify(&stats0, &r1, cycle_time, duration)?;
    analysis_seconds += t.elapsed().as_secs_f64();

    // --- Baseline turnaround (two event-driven runs), if requested.
    let baseline_seconds = cfg.compare_baseline.then(|| {
        let rc = RefConfig {
            record_waveforms: false,
            ..RefConfig::default()
        };
        let t = Instant::now();
        let _ = EventSimulator::new(&graph0, rc).run(stimuli, duration);
        let _ = EventSimulator::new(&graph1, rc).run(stimuli, duration);
        t.elapsed().as_secs_f64()
    });

    Ok(FlowReport {
        saving_pct: power_after.saving_vs(&power_before),
        power_before,
        power_after,
        glitch_before: (stats0.total_functional(), stats0.total_glitch()),
        glitch_after: (stats1.total_functional(), stats1.total_glitch()),
        fixed_gates,
        gatspi_seconds,
        fix_search_seconds,
        analysis_seconds,
        baseline_seconds,
    })
}

/// What the fix search settled on.
struct SlowdownFixes {
    /// `sdf` with every accepted fix applied.
    sdf: SdfFile,
    /// The graph of the fixed design (equal to a build from `sdf`).
    graph: CircuitGraph,
    /// Instance names of the fixed gates, in the order they were accepted.
    names: Vec<String>,
    /// Their gate indices — the changed set the incremental
    /// re-simulation cones from.
    ids: Vec<usize>,
    /// Candidates the timing guard checked, and the gates it re-timed for
    /// them: the search's cost, which follows the fixes, not the design.
    candidates: usize,
    retimed: usize,
}

/// Scales the arc delays of the `fixes` worst glitch-source gates by
/// `cfg.slowdown` (cell downsizing). Every candidate is checked against a
/// static-timing guard: if slowing it would push the critical path past
/// `cfg.max_path_fraction · cycle_time`, the gate is skipped.
///
/// A candidate costs what it changes. Its SDF triples are scaled in place,
/// its one gate is re-annotated in a trial graph from an index of the SDF
/// built once, and the guard re-times only the arrivals its new delays
/// reach. A rejected candidate is undone the same way, and the guard's undo
/// log restores its arrivals.
fn apply_slowdown_fixes(
    netlist: &Netlist,
    sdf: &SdfFile,
    graph: &CircuitGraph,
    stats: &GlitchStats,
    cycle_time: SimTime,
    cfg: &FlowConfig,
) -> SlowdownFixes {
    let budget = (f64::from(cycle_time) * cfg.max_path_fraction) as i64;
    let opts = GraphOptions::default();
    let mut fixes = SlowdownFixes {
        sdf: sdf.clone(),
        graph: graph.clone(),
        names: Vec::new(),
        ids: Vec::new(),
        candidates: 0,
        retimed: 0,
    };
    // The search edits triples only, never the cell list, so one index of
    // the original file serves every candidate.
    let index = SdfIndex::new(sdf);
    let mut guard = TimingGuard::new(graph);
    let mut seen = HashSet::new();
    for (sig, _count) in stats.worst_signals() {
        if fixes.names.len() >= cfg.fixes {
            break;
        }
        let Some(g) = graph.driver(SignalId(sig as u32)) else {
            continue;
        };
        if !seen.insert(g) {
            continue;
        }
        let name = graph.gate_name(g);
        let Some(cells) = index.instance_cells(name) else {
            continue;
        };
        // Scale this instance's IOPATH delays, keeping the originals.
        let mut saved = Vec::new();
        for &i in cells {
            for p in &mut fixes.sdf.cells[i].iopaths {
                saved.push((p.rise, p.fall));
                scale_triple(&mut p.rise, cfg.slowdown);
                scale_triple(&mut p.fall, cfg.slowdown);
            }
        }
        fixes
            .graph
            .reannotate(netlist, &fixes.sdf, &index, &[g], &opts)
            .expect("patched SDF stays well-formed");
        fixes.candidates += 1;
        fixes.retimed += guard.retime(&fixes.graph, g);
        // Timing guard: reject fixes that eat the cycle's settle margin.
        if guard.critical_path() > budget {
            guard.rollback();
            let mut saved = saved.into_iter();
            for &i in cells {
                for p in &mut fixes.sdf.cells[i].iopaths {
                    (p.rise, p.fall) = saved.next().expect("one saved pair per arc");
                }
            }
            fixes
                .graph
                .reannotate(netlist, &fixes.sdf, &index, &[g], &opts)
                .expect("restored SDF is the one that annotated before");
            continue;
        }
        guard.commit();
        fixes.names.push(name.to_string());
        fixes.ids.push(g);
    }
    fixes
}

fn scale_triple(t: &mut DelayTriple, factor: f64) {
    let scale = |v: Option<f64>| v.map(|x| (x * factor).round());
    t.min = scale(t.min);
    t.typ = scale(t.typ);
    t.max = scale(t.max);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatspi_netlist::{CellLibrary, NetlistBuilder};
    use gatspi_workloads::sdfgen::{attach_sdf, SdfGenConfig};
    use gatspi_workloads::stimuli::{generate, StimulusConfig};
    use proptest::prelude::*;

    /// A deliberately skewed XOR tree: classic glitch generator.
    fn glitchy_design() -> (Netlist, SdfFile) {
        let mut b = NetlistBuilder::new("glitchy", CellLibrary::industry_mini());
        let ins: Vec<_> = (0..8)
            .map(|i| b.add_input(&format!("d[{i}]")).unwrap())
            .collect();
        // Linear XOR chain: arrival skew grows along the chain.
        let mut acc = ins[0];
        for (i, &x) in ins.iter().enumerate().skip(1) {
            let out = if i == 7 {
                b.add_output("parity").unwrap()
            } else {
                b.add_net(&format!("x{i}")).unwrap()
            };
            b.add_gate(&format!("ux{i}"), "XOR2", &[acc, x], out)
                .unwrap();
            acc = out;
        }
        let netlist = b.finish().unwrap();
        let sdf = attach_sdf(
            &netlist,
            &SdfGenConfig {
                interconnect_probability: 0.0,
                cond_probability: 0.0,
                ..Default::default()
            },
        );
        (netlist, sdf)
    }

    /// The search as it was before `CircuitGraph::reannotate`: clone the SDF,
    /// scan every cell and rebuild the whole graph per candidate. Kept as
    /// the oracle the in-place search must reproduce exactly.
    fn fixes_by_rebuild(
        netlist: &Netlist,
        sdf: &SdfFile,
        graph: &CircuitGraph,
        stats: &GlitchStats,
        cycle_time: SimTime,
        cfg: &FlowConfig,
    ) -> (SdfFile, Vec<String>, Vec<usize>) {
        let budget = (f64::from(cycle_time) * cfg.max_path_fraction) as i64;
        let mut patched = sdf.clone();
        let mut fixed = Vec::new();
        let mut fixed_ids = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let opts = GraphOptions::default();
        for (sig, _count) in stats.worst_signals() {
            if fixed.len() >= cfg.fixes {
                break;
            }
            let Some(g) = graph.driver(gatspi_graph::SignalId(sig as u32)) else {
                continue;
            };
            if !seen.insert(g) {
                continue;
            }
            let gate = netlist.gate(gatspi_netlist::GateId::from_index(g));
            let mut candidate = patched.clone();
            let mut touched = false;
            for cell in &mut candidate.cells {
                if cell.instance.as_deref() == Some(gate.name()) {
                    for p in &mut cell.iopaths {
                        scale_triple(&mut p.rise, cfg.slowdown);
                        scale_triple(&mut p.fall, cfg.slowdown);
                    }
                    touched = true;
                }
            }
            if !touched {
                continue;
            }
            let trial = CircuitGraph::build(netlist, Some(&candidate), &opts).unwrap();
            if crate::sta::max_arrivals(&trial).critical_path() > budget {
                continue;
            }
            patched = candidate;
            fixed.push(gate.name().to_string());
            fixed_ids.push(g);
        }
        (patched, fixed, fixed_ids)
    }

    /// Pass 1 of the flow: the design's graph and its glitch statistics.
    fn analysed(netlist: &Netlist, sdf: &SdfFile, cycle: SimTime) -> (CircuitGraph, GlitchStats) {
        let cycles = 40;
        let duration = cycle * cycles;
        let graph =
            Arc::new(CircuitGraph::build(netlist, Some(sdf), &GraphOptions::default()).unwrap());
        let stimuli = generate(
            netlist.primary_inputs().len(),
            &StimulusConfig::random(cycles as usize, cycle, 0.6, 21),
        );
        let r = Session::new(
            Arc::clone(&graph),
            SimConfig::small().with_window_align(cycle),
        )
        .run_with(
            &stimuli,
            duration,
            &RunOptions::default().with_waveform_spill(),
        )
        .unwrap();
        (
            CircuitGraph::clone(&graph),
            classify_result(&r, cycle, duration).unwrap(),
        )
    }

    /// Runs both searches and requires identical outcomes; returns the
    /// fixed gate ids.
    fn assert_search_matches_oracle(
        netlist: &Netlist,
        sdf: &SdfFile,
        graph: &CircuitGraph,
        stats: &GlitchStats,
        budget: i64,
        fixes: usize,
    ) -> Vec<usize> {
        let cfg = FlowConfig {
            fixes,
            max_path_fraction: 1.0,
            ..Default::default()
        };
        let budget = SimTime::try_from(budget).unwrap();
        let got = apply_slowdown_fixes(netlist, sdf, graph, stats, budget, &cfg);
        let (want_sdf, want_names, want_ids) =
            fixes_by_rebuild(netlist, sdf, graph, stats, budget, &cfg);
        assert_eq!(got.sdf.write(), want_sdf.write());
        assert_eq!(got.names, want_names);
        assert_eq!(got.ids, want_ids);
        let rebuilt =
            CircuitGraph::build(netlist, Some(&want_sdf), &GraphOptions::default()).unwrap();
        assert!(got.graph == rebuilt, "trial graph differs from a rebuild");
        got.ids
    }

    /// Checks the search against the oracle with no fixes, with a budget
    /// nothing can exceed, and with one a few ticks over the critical path,
    /// where some candidates are rejected and must be undone exactly.
    /// Returns the `(tight, loose)` fixed ids.
    fn check_search(netlist: &Netlist, sdf: &SdfFile, cycle: SimTime) -> (Vec<usize>, Vec<usize>) {
        let (graph, stats) = analysed(netlist, sdf, cycle);
        let critical = crate::sta::max_arrivals(&graph).critical_path();
        let search = |budget, fixes| {
            assert_search_matches_oracle(netlist, sdf, &graph, &stats, budget, fixes)
        };
        assert!(search(critical, 0).is_empty());
        let loose = search(i64::from(i32::MAX), 6);
        assert_eq!(loose.len(), 6);
        let tight = search(critical + 6, 6);
        assert_ne!(tight, loose, "the tight budget rejected nothing");
        assert!(!tight.is_empty(), "the tight budget accepted nothing");
        (tight, loose)
    }

    #[test]
    fn in_place_search_matches_oracle_on_xor_chain() {
        let (netlist, sdf) = glitchy_design();
        check_search(&netlist, &sdf, 400);
    }

    #[test]
    fn in_place_search_matches_oracle_on_mac() {
        let netlist = gatspi_workloads::circuits::mac_datapath(8, 4);
        let sdf = attach_sdf(&netlist, &SdfGenConfig::default());
        let (tight, loose) = check_search(&netlist, &sdf, 1200);
        // Off the critical path candidates keep being accepted on top of
        // undone ones, so the tight list is not just a prefix.
        assert!(!loose.starts_with(&tight), "{tight:?} vs {loose:?}");
    }

    /// The guard's arrivals and critical path equal a full STA of `graph`.
    fn assert_guard_is_exact(guard: &TimingGuard, graph: &CircuitGraph) {
        let full = crate::sta::max_arrivals(graph);
        let want: Vec<i64> = (0..graph.n_signals()).map(|s| full.of(s)).collect();
        assert_eq!(guard.arrivals(), want.as_slice());
        assert_eq!(guard.critical_path(), full.critical_path());
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 24,
            ..ProptestConfig::default()
        })]

        /// Random sequences of (gate, slowdown, accept or reject) on the XOR
        /// chain and on a MAC datapath: after every update and every
        /// rollback, the incremental guard equals `max_arrivals` on the
        /// trial graph. A slowdown of 0.5 makes arrivals fall, so the
        /// critical path can drop below a maximum the guard held.
        #[test]
        fn timing_guard_equals_full_sta(
            mac in any::<bool>(),
            steps in prop::collection::vec(0u64..1 << 40, 1..12),
        ) {
            let (netlist, sdf) = if mac {
                let netlist = gatspi_workloads::circuits::mac_datapath(8, 2);
                let sdf = attach_sdf(&netlist, &SdfGenConfig::default());
                (netlist, sdf)
            } else {
                glitchy_design()
            };
            let opts = GraphOptions::default();
            let mut graph = CircuitGraph::build(&netlist, Some(&sdf), &opts).unwrap();
            let index = SdfIndex::new(&sdf);
            let mut trial = sdf.clone();
            let mut guard = TimingGuard::new(&graph);
            assert_guard_is_exact(&guard, &graph);
            for step in steps {
                // One step: a gate, a slowdown and whether to keep it.
                let g = (step >> 3) as usize % graph.n_gates();
                let factor = [0.5, 2.0, 3.0][(step & 3) as usize % 3];
                let accept = step & 4 != 0;
                let cells = index.instance_cells(graph.gate_name(g)).unwrap();
                let before: Vec<_> = cells.iter().map(|&i| trial.cells[i].clone()).collect();
                for &i in cells {
                    for p in &mut trial.cells[i].iopaths {
                        scale_triple(&mut p.rise, factor);
                        scale_triple(&mut p.fall, factor);
                    }
                }
                graph.reannotate(&netlist, &trial, &index, &[g], &opts).unwrap();
                guard.retime(&graph, g);
                assert_guard_is_exact(&guard, &graph);
                if accept {
                    guard.commit();
                    continue;
                }
                for (&i, cell) in cells.iter().zip(before) {
                    trial.cells[i] = cell;
                }
                graph.reannotate(&netlist, &trial, &index, &[g], &opts).unwrap();
                guard.rollback();
                assert_guard_is_exact(&guard, &graph);
            }
        }
    }

    /// The search re-times what a fix reaches, not the design: MAC lanes
    /// are independent, so a 4× wider design re-times about as many gates
    /// per candidate. Returns `(candidates, gates re-timed)`.
    fn retimes_per_search(lanes: usize) -> (usize, usize) {
        let netlist = gatspi_workloads::circuits::mac_datapath(8, lanes);
        let sdf = attach_sdf(&netlist, &SdfGenConfig::default());
        let cycle = 1200;
        let (graph, stats) = analysed(&netlist, &sdf, cycle);
        let cfg = FlowConfig {
            fixes: netlist.gate_count() / 40,
            ..Default::default()
        };
        let fixes = apply_slowdown_fixes(&netlist, &sdf, &graph, &stats, cycle, &cfg);
        assert_eq!(fixes.ids.len(), cfg.fixes, "the budget rejected a fix");
        (fixes.candidates, fixes.retimed)
    }

    #[test]
    fn fix_search_retimes_what_the_fix_reaches() {
        let (small_candidates, small) = retimes_per_search(4);
        let (large_candidates, large) = retimes_per_search(16);
        eprintln!(
            "mac_datapath(8, 4): {small} gates re-timed over {small_candidates} candidates; \
             mac_datapath(8, 16): {large} over {large_candidates}"
        );
        assert!(large_candidates >= 3 * small_candidates);
        assert!(
            large * small_candidates <= 2 * small * large_candidates,
            "per candidate: {small} / {small_candidates} vs {large} / {large_candidates}"
        );
    }

    #[test]
    fn flow_reduces_glitches_and_power() {
        let (netlist, sdf) = glitchy_design();
        let cycle = 400;
        let cycles = 120;
        let stimuli = generate(
            netlist.primary_inputs().len(),
            &StimulusConfig::random(cycles, cycle, 0.9, 13),
        );
        let cfg = FlowConfig {
            fixes: 7,
            sim: SimConfig::small()
                .with_cycle_parallelism(4)
                .with_window_align(cycle),
            compare_baseline: true,
            ..Default::default()
        };
        let report =
            run_glitch_flow(&netlist, &sdf, &stimuli, cycle * cycles as i32, cycle, &cfg).unwrap();
        assert!(!report.fixed_gates.is_empty());
        assert!(
            report.glitch_after.1 < report.glitch_before.1,
            "glitches should drop: {:?} -> {:?}",
            report.glitch_before,
            report.glitch_after
        );
        assert!(
            report.saving_pct > 0.0,
            "power should improve, got {}%",
            report.saving_pct
        );
        assert!(report.turnaround_speedup().is_some());
    }

    #[test]
    fn flow_without_baseline_is_faster_path() {
        let (netlist, sdf) = glitchy_design();
        let cycle = 400;
        let stimuli = generate(
            netlist.primary_inputs().len(),
            &StimulusConfig::random(40, cycle, 0.9, 7),
        );
        let cfg = FlowConfig {
            fixes: 3,
            sim: SimConfig::small().with_window_align(cycle),
            compare_baseline: false,
            ..Default::default()
        };
        let report = run_glitch_flow(&netlist, &sdf, &stimuli, cycle * 40, cycle, &cfg).unwrap();
        assert!(report.baseline_seconds.is_none());
        assert!(report.turnaround_speedup().is_none());
    }

    #[test]
    fn non_positive_cycle_time_is_a_typed_error() {
        let (netlist, sdf) = glitchy_design();
        let stimuli = generate(
            netlist.primary_inputs().len(),
            &StimulusConfig::random(4, 400, 0.5, 7),
        );
        for cycle in [0, -400] {
            let err = run_glitch_flow(
                &netlist,
                &sdf,
                &stimuli,
                1600,
                cycle,
                &FlowConfig::default(),
            );
            assert!(
                matches!(&err, Err(CoreError::BadConfig { detail }) if detail.contains("cycle_time")),
                "cycle {cycle}: {:?}",
                err.err()
            );
        }
    }

    #[test]
    fn combinational_loop_is_a_typed_error() {
        // u1 -> n1 -> u2 -> n2 -> u1: the graph build rejects the cycle.
        let mut b = NetlistBuilder::new("loopy", CellLibrary::industry_mini());
        let a = b.add_input("a").unwrap();
        let n1 = b.add_net("n1").unwrap();
        let n2 = b.add_output("n2").unwrap();
        b.add_gate("u1", "NAND2", &[a, n2], n1).unwrap();
        b.add_gate("u2", "INV", &[n1], n2).unwrap();
        let netlist = b.finish().unwrap();
        let sdf = attach_sdf(&netlist, &SdfGenConfig::default());
        let stimuli = vec![Waveform::from_toggles(false, &[100, 500])];
        let err = run_glitch_flow(&netlist, &sdf, &stimuli, 1600, 400, &FlowConfig::default());
        assert!(
            matches!(&err, Err(CoreError::BadConfig { detail }) if detail.contains("loop")),
            "{:?}",
            err.err()
        );
    }
}
