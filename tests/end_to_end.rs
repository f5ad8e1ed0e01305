//! End-to-end file-format flows: Verilog + SDF + VCD in, SAIF out, with
//! every artifact round-tripped through its textual form — the paper's
//! Fig. 2 pipeline exercised as a black box.

use std::sync::Arc;

use gatspi_core::{Session, SimConfig};
use gatspi_graph::{CircuitGraph, GraphOptions};
use gatspi_netlist::{verilog, CellLibrary};
use gatspi_refsim::{EventSimulator, RefConfig};
use gatspi_sdf::SdfFile;
use gatspi_wave::saif::SaifDocument;
use gatspi_wave::{vcd, Waveform};
use gatspi_workloads::circuits::int_adder_array;
use gatspi_workloads::sdfgen::{attach_sdf, SdfGenConfig};
use gatspi_workloads::stimuli::{generate, StimulusConfig};

/// Full pipeline with all interchange formats serialized and re-parsed.
#[test]
fn fig2_pipeline_through_text_formats() {
    // Generate a design, then push everything through text.
    let design0 = int_adder_array(8, 2);
    let sdf0 = attach_sdf(&design0, &SdfGenConfig::default());
    let gv_text = verilog::write(&design0);
    let sdf_text = sdf0.write();

    let netlist = verilog::parse(&gv_text, CellLibrary::industry_mini()).expect("gv parse");
    let sdf = SdfFile::parse(&sdf_text).expect("sdf parse");
    let graph =
        Arc::new(CircuitGraph::build(&netlist, Some(&sdf), &GraphOptions::default()).unwrap());

    let cycle = 400;
    let cycles = 120usize;
    let stimuli0 = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(cycles, cycle, 0.5, 31),
    );
    // Stimulus through VCD text.
    let names: Vec<String> = graph
        .primary_inputs()
        .iter()
        .map(|&s| graph.signal_name(s).to_string())
        .collect();
    let vcd_text = vcd::write("tb", names.iter().map(String::as_str).zip(stimuli0.iter()));
    let tb = vcd::parse(&vcd_text).expect("vcd parse");
    let stimuli: Vec<Waveform> = graph
        .primary_inputs()
        .iter()
        .map(|&s| tb.signals[graph.signal_name(s)].clone())
        .collect();
    assert_eq!(stimuli, stimuli0, "stimulus survives VCD round-trip");

    let duration = cycle * cycles as i32;
    let sim = Session::new(
        Arc::clone(&graph),
        SimConfig::small().with_window_align(cycle),
    );
    let result = sim.run(&stimuli, duration).expect("simulate");

    // SAIF through text and back.
    let saif_text = result.saif.write();
    let parsed = SaifDocument::parse(&saif_text).expect("saif parse");
    assert!(result.saif.diff(&parsed).is_empty());

    // And the whole thing is still reference-exact.
    let r = EventSimulator::new(&graph, RefConfig::default())
        .run(&stimuli, duration)
        .expect("reference");
    assert!(result.saif.diff(&r.saif).is_empty());
}

/// The app-level profile exposes the schedule's structure: data upload,
/// one launch per level, and a non-trivial restructuring phase.
#[test]
fn application_profile_structure() {
    let design = int_adder_array(16, 2);
    let sdf = attach_sdf(&design, &SdfGenConfig::default());
    let graph =
        Arc::new(CircuitGraph::build(&design, Some(&sdf), &GraphOptions::default()).unwrap());
    let cycle = 400;
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(64, cycle, 0.5, 3),
    );
    let sim = Session::new(
        Arc::clone(&graph),
        SimConfig::small()
            .with_window_align(cycle)
            .with_fuse_threshold(0),
    );
    let r = sim.run(&stimuli, cycle * 64).expect("simulate");
    assert_eq!(
        r.app_profile.overflow_repairs, 0,
        "a cold predictor's static first-touch bound cannot overflow"
    );
    assert_eq!(
        r.app_profile.launches as usize,
        graph.n_levels(),
        "one speculative store launch per logic level in the unfused schedule"
    );
    assert_eq!(r.app_profile.fused_launches, 0);
    assert!(r.app_profile.h2d_bytes > 0);
    assert!(r.app_profile.h2d_seconds > 0.0);
    assert!(r.app_profile.total_seconds() > 0.0);
    assert!(r.kernel_profile.accesses > 0);
    assert!(r.kernel_profile.occupancy_pct > 0.0);

    // With launch fusion at its default threshold the same run needs
    // strictly fewer launches than it has levels (small levels share
    // phased launches) and produces identical results.
    let fused = Session::new(
        Arc::clone(&graph),
        SimConfig::small().with_window_align(cycle),
    )
    .run(&stimuli, cycle * 64)
    .expect("simulate fused");
    assert!(
        (fused.app_profile.launches as usize) < graph.n_levels(),
        "fusion must cut launches below one per level on this design: {} vs {}",
        fused.app_profile.launches,
        graph.n_levels()
    );
    assert!(fused.app_profile.fused_launches > 0);
    assert!(r.saif.diff(&fused.saif).is_empty());
}

/// Engines also agree under ablated features and relaxed pulse filtering,
/// when configured identically (Table 7's "No Net Delay" column) — on the
/// default SDF and on one with meaningful wire delays on most pins, where
/// interconnect filtering actually fires.
#[test]
fn ablation_configs_stay_equivalent() {
    let design = int_adder_array(8, 2);
    let wired = SdfGenConfig {
        interconnect_probability: 0.9,
        max_net_delay: 6,
        ..SdfGenConfig::default()
    };
    for (sdf_name, sdf_cfg) in [("default", SdfGenConfig::default()), ("wired", wired)] {
        let sdf = attach_sdf(&design, &sdf_cfg);
        let graph =
            Arc::new(CircuitGraph::build(&design, Some(&sdf), &GraphOptions::default()).unwrap());
        let cycle = 400;
        let stimuli = generate(
            graph.primary_inputs().len(),
            &StimulusConfig::random(80, cycle, 0.7, 17),
        );
        let duration = cycle * 80;

        for (net_filter, ppp) in [(false, 100u32), (true, 40), (false, 0), (true, 100)] {
            let cfg = SimConfig {
                features: gatspi_core::SimFeatures {
                    net_delay_filtering: net_filter,
                    full_sdf: true,
                },
                path_pulse_percent: ppp,
                ..SimConfig::small().with_window_align(cycle)
            };
            let g = Session::new(Arc::clone(&graph), cfg)
                .run(&stimuli, duration)
                .expect("gatspi");
            let r = EventSimulator::new(
                &graph,
                RefConfig {
                    net_delay_filtering: net_filter,
                    path_pulse_percent: ppp,
                    record_waveforms: false,
                },
            )
            .run(&stimuli, duration)
            .expect("ref");
            assert!(
                g.saif.diff(&r.saif).is_empty(),
                "diverged on the {sdf_name} SDF at net_filter={net_filter} ppp={ppp}"
            );
        }
    }
}

/// Disabling interconnect filtering must not *lose* activity — transport-y
/// behaviour passes more pulses (the Table 7 accuracy argument).
#[test]
fn net_filtering_reduces_toggles() {
    let design = int_adder_array(16, 1);
    // Hand the wires meaningful delays so filtering has something to do.
    let sdf = attach_sdf(
        &design,
        &SdfGenConfig {
            interconnect_probability: 0.9,
            max_net_delay: 6,
            ..SdfGenConfig::default()
        },
    );
    let graph =
        Arc::new(CircuitGraph::build(&design, Some(&sdf), &GraphOptions::default()).unwrap());
    let cycle = 500;
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(150, cycle, 0.9, 23),
    );
    let duration = cycle * 150;
    let run = |filter: bool| {
        let cfg = SimConfig {
            features: gatspi_core::SimFeatures {
                net_delay_filtering: filter,
                full_sdf: true,
            },
            ..SimConfig::small().with_window_align(cycle)
        };
        Session::new(Arc::clone(&graph), cfg)
            .run(&stimuli, duration)
            .expect("run")
            .total_toggles()
    };
    assert!(run(false) >= run(true));
}
