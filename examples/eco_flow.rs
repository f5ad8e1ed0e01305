//! ECO-loop incremental re-simulation: run a design once with waveform
//! spill, "resize" ~2% of its gates (scale their SDF delays, the classic
//! engineering-change-order edit), then re-simulate **only the changed
//! gates' fan-out cones** with [`Session::run_incremental`] — and verify
//! the delta run is bit-identical to a full re-simulation of the patched
//! design, at a fraction of the wall time.
//!
//! ```sh
//! cargo run --release --example eco_flow
//! ```

use std::sync::Arc;
use std::time::Instant;

use gatspi_core::{RunOptions, Session, SimConfig};
use gatspi_graph::{CircuitGraph, GraphOptions, SdfIndex};
use gatspi_netlist::GateId;
use gatspi_workloads::circuits::mac_datapath;
use gatspi_workloads::sdfgen::{attach_sdf, SdfGenConfig};
use gatspi_workloads::stimuli::{generate, StimulusConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let netlist = mac_datapath(8, 8);
    let mut sdf = attach_sdf(&netlist, &SdfGenConfig::default());
    let cycle = 1200;
    let cycles = 96usize;
    let duration = cycle * cycles as i32;
    let stimuli = generate(
        netlist.primary_inputs().len(),
        &StimulusConfig::random(cycles, cycle, 0.35, 7),
    );
    let opts = GraphOptions::default();
    let graph0 = Arc::new(CircuitGraph::build(&netlist, Some(&sdf), &opts)?);

    // --- Baseline: one full re-simulation with waveform spill (the spill
    // is what later delta runs read their boundary stimulus from).
    let run_opts = RunOptions::default().with_waveform_spill();
    let sim_cfg = SimConfig::default().with_window_align(cycle);
    let sim0 = Session::new(Arc::clone(&graph0), sim_cfg.clone());
    let t = Instant::now();
    let r0 = sim0.run_with(&stimuli, duration, &run_opts)?;
    let full_first = t.elapsed().as_secs_f64();

    // --- The ECO: resize the latest-level 2% of gates (an optimizer's
    // typical endpoint fixes) by scaling their IOPATH delays 1.8x.
    let n_changed = (graph0.n_gates() / 50).max(1);
    let mut by_level: Vec<usize> = (0..graph0.n_gates()).collect();
    by_level.sort_unstable_by_key(|&g| std::cmp::Reverse(graph0.gate_level(g)));
    let changed: Vec<usize> = by_level[..n_changed].to_vec();
    // The edit touches the SDF in place and re-annotates only the resized
    // gates in a copy of the graph: ECO cost follows the change, not the
    // design (no second `CircuitGraph::build`).
    for &g in &changed {
        let name = netlist.gate(GateId::from_index(g)).name();
        for cell in &mut sdf.cells {
            if cell.instance.as_deref() == Some(name) {
                for p in &mut cell.iopaths {
                    for t in [&mut p.rise, &mut p.fall] {
                        let scale = |v: Option<f64>| v.map(|x| (x * 1.8).round());
                        t.min = scale(t.min);
                        t.typ = scale(t.typ);
                        t.max = scale(t.max);
                    }
                }
            }
        }
    }
    let mut graph1 = CircuitGraph::clone(&graph0);
    graph1.reannotate(&netlist, &sdf, &SdfIndex::new(&sdf), &changed, &opts)?;
    let graph1 = Arc::new(graph1);

    // --- Delta run: only the changed gates' cones re-execute; everything
    // else is reused from the baseline spill.
    let sim1 = Session::new(Arc::clone(&graph1), sim_cfg);
    let t = Instant::now();
    let inc = sim1.run_incremental(&r0, &changed, &stimuli, duration, &run_opts)?;
    let incremental = t.elapsed().as_secs_f64();

    // --- Proof: a full re-simulation of the patched design is
    // bit-identical (same session, so the wall times compare fairly).
    let t = Instant::now();
    let full = sim1.run_with(&stimuli, duration, &run_opts)?;
    let full_second = t.elapsed().as_secs_f64();
    let diffs = inc.saif.diff(&full.saif);
    assert!(diffs.is_empty(), "SAIF mismatch: {:?}", diffs.first());
    for s in 0..graph1.n_signals() {
        assert_eq!(
            inc.waveform(s)?,
            full.waveform(s)?,
            "waveform mismatch on signal {s}"
        );
    }

    println!("ECO flow on {} gates:", netlist.gate_count());
    println!(
        "  resized gates:        {n_changed} ({:.1}% of design)",
        100.0 * n_changed as f64 / graph0.n_gates() as f64
    );
    println!("  full re-sim (cold):   {:.1} ms", full_first * 1e3);
    println!("  full re-sim (warm):   {:.1} ms", full_second * 1e3);
    println!(
        "  incremental re-sim:   {:.1} ms  ({:.1}X faster than warm full)",
        incremental * 1e3,
        full_second / incremental
    );
    println!("  bit-identical:        yes (SAIF + every waveform verified)");
    Ok(())
}
