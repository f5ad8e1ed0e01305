//! Power estimation on an adder array: generate a workload, re-simulate
//! with GATSPI, estimate power from the SAIF, and break glitch power out.
//!
//! ```sh
//! cargo run --release --example power_estimation
//! ```

use std::sync::Arc;

use gatspi_core::{RunOptions, Session, SimConfig};
use gatspi_graph::{CircuitGraph, GraphOptions};
use gatspi_power::glitch::classify_result;
use gatspi_power::PowerModel;
use gatspi_workloads::circuits::int_adder_array;
use gatspi_workloads::sdfgen::{attach_sdf, SdfGenConfig};
use gatspi_workloads::stimuli::{generate, StimulusConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 32-bit adders, 4 lanes, randomized SDF delays.
    let netlist = int_adder_array(32, 4);
    let sdf = attach_sdf(&netlist, &SdfGenConfig::default());
    let graph = Arc::new(CircuitGraph::build(
        &netlist,
        Some(&sdf),
        &GraphOptions::default(),
    )?);

    let cycle = 600;
    let cycles = 300;
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(cycles, cycle, 0.8, 2024),
    );
    let duration = cycle * cycles as i32;

    let sim = Session::new(
        Arc::clone(&graph),
        SimConfig::default().with_window_align(cycle),
    );
    // Spill waveforms to host so the glitch attribution below keeps
    // working even if the arena forces a segmented run.
    let result = sim.run_with(
        &stimuli,
        duration,
        &RunOptions::default().with_waveform_spill(),
    )?;
    println!(
        "simulated {} gates x {} cycles: {} toggles, kernel {:.2} ms measured / {:.3} ms modeled-V100",
        graph.n_gates(),
        cycles,
        result.total_toggles(),
        result.kernel_profile.wall_seconds * 1e3,
        result.kernel_profile.modeled_seconds * 1e3,
    );

    // Activity-based power from the toggle counts.
    let model = PowerModel::default();
    let areas = PowerModel::areas_of(&netlist);
    let report = model.estimate(
        &graph,
        result.toggle_counts_slice(),
        &areas,
        i64::from(duration),
    );
    println!(
        "power: switching {:.3} uW + internal {:.3} uW + leakage {:.3} uW = {:.3} uW",
        report.switching_w * 1e6,
        report.internal_w * 1e6,
        report.leakage_w * 1e6,
        report.total_w() * 1e6
    );

    // Glitch attribution: carry chains glitch under skewed arrivals.
    let stats = classify_result(&result, cycle, duration)?;
    println!(
        "glitch analysis: {} functional vs {} glitch toggles ({:.1}% of switching is glitch)",
        stats.total_functional(),
        stats.total_glitch(),
        stats.glitch_fraction() * 100.0
    );
    let worst = stats.worst_signals();
    for (sig, count) in worst.iter().take(5) {
        println!(
            "  worst glitcher: {} ({} glitch toggles)",
            graph.signal_name(gatspi_graph::SignalId(*sig as u32)),
            count
        );
    }
    Ok(())
}
