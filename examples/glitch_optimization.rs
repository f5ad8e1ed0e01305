//! The paper's §4 glitch-optimization flow, end to end: re-simulate a
//! multiplier datapath, locate the worst glitch sources, apply
//! designer-style fixes, re-simulate, and report the power saving plus the
//! turnaround speedup over the event-driven baseline.
//!
//! ```sh
//! cargo run --release --example glitch_optimization
//! ```

use gatspi_core::SimConfig;
use gatspi_power::flow::{run_glitch_flow, FlowConfig};
use gatspi_workloads::circuits::mac_datapath;
use gatspi_workloads::sdfgen::{attach_sdf, SdfGenConfig};
use gatspi_workloads::stimuli::{generate, StimulusConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let netlist = mac_datapath(8, 8);
    let sdf = attach_sdf(&netlist, &SdfGenConfig::default());
    let cycle = 1200;
    let cycles = 120;
    let stimuli = generate(
        netlist.primary_inputs().len(),
        &StimulusConfig::random(cycles, cycle, 0.35, 7),
    );

    let cfg = FlowConfig {
        fixes: 24,
        sim: SimConfig::default().with_window_align(cycle),
        compare_baseline: true,
        ..FlowConfig::default()
    };
    let report = run_glitch_flow(&netlist, &sdf, &stimuli, cycle * cycles as i32, cycle, &cfg)?;

    println!(
        "glitch-optimization flow on {} gates:",
        netlist.gate_count()
    );
    println!("  fixed gates:        {}", report.fixed_gates.len());
    println!(
        "  glitch toggles:     {} -> {}",
        report.glitch_before.1, report.glitch_after.1
    );
    println!(
        "  power:              {:.4} uW -> {:.4} uW ({:.2}% saving)",
        report.power_before.total_w() * 1e6,
        report.power_after.total_w() * 1e6,
        report.saving_pct
    );
    println!(
        "  GATSPI turnaround:  {:.2} s for both re-simulations",
        report.gatspi_seconds
    );
    println!(
        "  host steps:         {:.3} s fix search, {:.3} s analysis",
        report.fix_search_seconds, report.analysis_seconds
    );
    if let (Some(b), Some(s)) = (report.baseline_seconds, report.turnaround_speedup()) {
        println!("  baseline turnaround: {b:.2} s  (GATSPI is {s:.1}X faster)");
    }
    Ok(())
}
