//! Quickstart: the whole GATSPI flow on a hand-written design.
//!
//! Mirrors the paper's Fig. 2 tool flow: structural Verilog + SDF in,
//! delay-aware re-simulation, SAIF out.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use gatspi_core::{RunOptions, Session, SimConfig};
use gatspi_graph::{CircuitGraph, GraphOptions};
use gatspi_netlist::{verilog, CellLibrary};
use gatspi_refsim::{EventSimulator, RefConfig};
use gatspi_sdf::SdfFile;
use gatspi_wave::Waveform;

const NETLIST_GV: &str = r#"
// A tiny glitchy cone: unequal path delays into an XOR.
module quickstart (a, b, y);
  input a, b;
  output y;
  wire n1, n2;
  INV  u1 (.A(a),  .Y(n1));
  BUF  u2 (.A(n1), .Y(n2));
  XOR2 u3 (.A(n2), .B(b), .Y(y));
endmodule
"#;

const NETLIST_SDF: &str = r#"
(DELAYFILE
  (DESIGN "quickstart")
  (TIMESCALE 1ps)
  (CELL (CELLTYPE "INV")  (INSTANCE u1) (DELAY (ABSOLUTE (IOPATH A Y (3) (4)))))
  (CELL (CELLTYPE "BUF")  (INSTANCE u2) (DELAY (ABSOLUTE (IOPATH A Y (5) (5)))))
  (CELL (CELLTYPE "XOR2") (INSTANCE u3) (DELAY (ABSOLUTE
    (IOPATH A Y (6) (6))
    (COND B===1'b1 (IOPATH A Y (4) (4)))
    (IOPATH B Y (7) (7))
  )))
)
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Front end: parse netlist + SDF, translate to the flat graph.
    let netlist = verilog::parse(NETLIST_GV, CellLibrary::industry_mini())?;
    let sdf = SdfFile::parse(NETLIST_SDF)?;
    let graph = Arc::new(CircuitGraph::build(
        &netlist,
        Some(&sdf),
        &GraphOptions::default(),
    )?);
    println!(
        "design `{}`: {} gates, {} signals, {} logic levels",
        graph.name(),
        graph.n_gates(),
        graph.n_signals(),
        graph.n_levels()
    );

    // 2. Known input waveforms (re-simulation stimulus). Transitions sit
    //    off the engine's window boundaries (multiples of `window_align`),
    //    as register outputs do in practice (clk-to-q after the edge).
    let stimuli = vec![
        Waveform::from_toggles(false, &[105, 255, 405]), // a
        Waveform::from_toggles(true, &[225, 415]),       // b
    ];
    let duration = 500;

    // 3. Compile a re-simulation session (cycle-parallel windows),
    //    then execute, keeping the waveforms in a host spill to read
    //    them back. The session caches its launch schedule, so
    //    re-simulating more stimuli against the same graph skips all
    //    preparation.
    let session = Session::new(
        Arc::clone(&graph),
        SimConfig::small()
            .with_cycle_parallelism(4)
            .with_window_align(100),
    );
    let result = session.run_with(
        &stimuli,
        duration,
        &RunOptions::default().with_waveform_spill(),
    )?;

    // 4. Inspect waveforms and dump SAIF.
    let y = netlist.find_net("y").expect("y exists");
    let wave_y = result.waveform(y.index())?;
    println!(
        "\ny waveform (time, value): {:?}",
        wave_y.iter().collect::<Vec<_>>()
    );
    println!("\nSAIF:\n{}", result.saif.write());

    // 5. Verify against the event-driven reference (the paper's accuracy
    //    criterion: identical SAIF).
    let reference = EventSimulator::new(&graph, RefConfig::default()).run(&stimuli, duration)?;
    let diffs = result.saif.diff(&reference.saif);
    assert!(diffs.is_empty(), "SAIF mismatch: {diffs:?}");
    println!("verified: SAIF matches the event-driven reference bit-exactly");

    // 6. Re-simulate another stimulus on the same session: the cached
    //    launch plan is reused (this is the paper's many-stimuli regime).
    let stimuli2 = vec![
        Waveform::from_toggles(false, &[155, 305]),
        Waveform::from_toggles(true, &[125, 275, 425]),
    ];
    let again = session.run(&stimuli2, duration)?;
    let stats = session.plan_cache_stats();
    println!(
        "\nsecond stimulus: {} toggles; plan cache {} hit(s), {} build(s)",
        again.total_toggles(),
        stats.hits,
        stats.misses
    );
    Ok(())
}
