//! The `gatspi` binary end to end: Verilog, SDF and VCD files in, SAIF and
//! a primary-output VCD out, on one device and on fleets, checked against
//! the event-driven reference.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use gatspi_graph::{CircuitGraph, GraphOptions};
use gatspi_netlist::{verilog, CellLibrary};
use gatspi_refsim::{EventSimulator, RefConfig};
use gatspi_sdf::SdfFile;
use gatspi_wave::saif::SaifDocument;
use gatspi_wave::vcd;
use gatspi_workloads::circuits::int_adder_array;
use gatspi_workloads::sdfgen::{attach_sdf, SdfGenConfig};
use gatspi_workloads::stimuli::{generate, StimulusConfig};

const CYCLE: i32 = 400;
const CYCLES: usize = 50;

/// A fresh scratch directory for one test.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gatspi_cli_{test}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn gatspi(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gatspi"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn gatspi")
}

/// Writes `design.gv`, `design.sdf` and `tb.vcd` into `dir` and returns
/// the graph they describe and its stimulus.
fn write_inputs(dir: &Path) -> (CircuitGraph, Vec<gatspi_wave::Waveform>) {
    let netlist = int_adder_array(8, 2);
    let sdf = attach_sdf(&netlist, &SdfGenConfig::default());
    let (gv_text, sdf_text) = (verilog::write(&netlist), sdf.write());
    // The reference reads the files the binary reads.
    let graph = CircuitGraph::build(
        &verilog::parse(&gv_text, CellLibrary::industry_mini()).unwrap(),
        Some(&SdfFile::parse(&sdf_text).unwrap()),
        &GraphOptions::default(),
    )
    .unwrap();
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(CYCLES, CYCLE, 0.5, 17),
    );
    let names: Vec<&str> = graph
        .primary_inputs()
        .iter()
        .map(|&s| graph.signal_name(s))
        .collect();
    std::fs::write(dir.join("design.gv"), gv_text).unwrap();
    std::fs::write(dir.join("design.sdf"), sdf_text).unwrap();
    std::fs::write(
        dir.join("tb.vcd"),
        vcd::write("tb", names.into_iter().zip(&stimuli)),
    )
    .unwrap();
    (graph, stimuli)
}

/// `gatspi sim --verify` on one, two and three devices writes the
/// reference's SAIF and the reference's primary-output waveforms.
#[test]
fn sim_writes_reference_saif_and_vcd_on_every_fleet_size() {
    let dir = scratch_dir("sim");
    let (graph, stimuli) = write_inputs(&dir);
    let duration = CYCLE * CYCLES as i32;
    let reference = EventSimulator::new(&graph, RefConfig::default())
        .run(&stimuli, duration)
        .unwrap();
    let ref_waves = reference.waveforms.as_ref().expect("recorded");
    let (cycle, dur) = (CYCLE.to_string(), duration.to_string());
    for gpus in ["1", "2", "3"] {
        let out = gatspi(
            &dir,
            &[
                "sim",
                "--netlist",
                "design.gv",
                "--sdf",
                "design.sdf",
                "--vcd",
                "tb.vcd",
                "--duration",
                &dur,
                "--cycle",
                &cycle,
                "--gpus",
                gpus,
                "--verify",
                "--saif",
                "out.saif",
                "--out-vcd",
                "out.vcd",
            ],
        );
        assert!(
            out.status.success(),
            "--gpus {gpus}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let saif = SaifDocument::parse(&std::fs::read_to_string(dir.join("out.saif")).unwrap())
            .expect("saif parse");
        let diffs = saif.diff(&reference.saif);
        assert!(diffs.is_empty(), "--gpus {gpus}: first diff {:?}", diffs[0]);
        let waves = vcd::parse(&std::fs::read_to_string(dir.join("out.vcd")).unwrap())
            .expect("vcd parse")
            .signals;
        assert_eq!(waves.len(), graph.primary_outputs().len());
        for &po in graph.primary_outputs() {
            assert_eq!(
                waves[graph.signal_name(po)],
                ref_waves[po.index()].window(0, duration),
                "--gpus {gpus}: output {}",
                graph.signal_name(po)
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A negative duration is a typed configuration error, not a panic.
#[test]
fn negative_duration_fails_with_bad_configuration() {
    let dir = scratch_dir("neg");
    write_inputs(&dir);
    let out = gatspi(
        &dir,
        &[
            "sim",
            "--netlist",
            "design.gv",
            "--sdf",
            "design.sdf",
            "--vcd",
            "tb.vcd",
            "--duration",
            "-5",
            "--saif",
            "out.saif",
        ],
    );
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad configuration"), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A truncated SDF file is a typed parse error, not a panic.
#[test]
fn truncated_sdf_fails_with_a_parse_error() {
    let dir = scratch_dir("truncated_sdf");
    write_inputs(&dir);
    let sdf = std::fs::read_to_string(dir.join("design.sdf")).unwrap();
    std::fs::write(dir.join("design.sdf"), &sdf[..sdf.len() / 2]).unwrap();
    let out = gatspi(
        &dir,
        &[
            "sim",
            "--netlist",
            "design.gv",
            "--sdf",
            "design.sdf",
            "--vcd",
            "tb.vcd",
            "--duration",
            "20000",
            "--saif",
            "out.saif",
        ],
    );
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("gatspi: error:"), "stderr: {stderr}");
    assert!(stderr.contains("sdf parse error"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
