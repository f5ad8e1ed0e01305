//! The exact statistics of every benchmark workload's engine runs, pinned
//! against `tests/fixtures/exact_counts.txt` (one `row.count value` per
//! line). A change that moves a count on purpose rewrites the fixture with
//! `cargo test --test exact_counts -- --ignored write_counts_fixture` and
//! names each moved entry, and why, in CHANGES.md.
//!
//! `dense` (`table2_suite()[8]`: `dense_kernel`'s first and warm runs and
//! `vcd_stream`'s streaming run on one session), `cold` (`table2_suite()[11]`,
//! `cold_file_flow`'s Design D) and `flow` (`run_glitch_flow` in
//! `glitch_eco`'s configuration, then its re-sim pair: a spilled full run
//! and the incremental run of the fixed gates) run the benchmark's scale
//! 1.0 and seed 0, so their counts are the ones `gatspi-benchmark run
//! --seed 0` reports; the test takes about 5 s in the debug profile.
//! `fleet` runs `table2_suite()[0]` at scale 0.15 on two devices whose
//! arenas force OOM halving, then an incremental run off it, then the full
//! run with every extent prediction seeded to 2 words (the repair path).

use std::sync::Arc;

use gatspi_core::{PlanCacheStats, RunOptions, Session, SimConfig, SimResult};
use gatspi_gpu::{DeviceSpec, MultiGpu};
use gatspi_graph::{CircuitGraph, GraphOptions};
use gatspi_power::flow::{run_glitch_flow, FlowConfig};
use gatspi_workloads::circuits::mac_datapath;
use gatspi_workloads::sdfgen::{attach_sdf, SdfGenConfig};
use gatspi_workloads::stimuli::{generate, StimulusConfig};
use gatspi_workloads::suite::{table2_suite, CYCLE_TIME};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/exact_counts.txt"
);

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The benchmark's engine configuration: windows cut at cycle boundaries.
fn sim_config() -> SimConfig {
    SimConfig::default().with_window_align(CYCLE_TIME)
}

/// `row.count value` lines in recording order.
#[derive(Default)]
struct Counts(Vec<String>);

impl Counts {
    fn put(&mut self, row: &str, entries: &[(&str, u64)]) {
        let lines = entries.iter().map(|(name, v)| format!("{row}.{name} {v}"));
        self.0.extend(lines);
    }

    fn run(&mut self, row: &str, r: &SimResult) {
        let app = &r.app_profile;
        self.put(
            row,
            &[
                ("saif_fnv", fnv1a(r.saif.write().as_bytes())),
                ("toggles", r.total_toggles()),
                ("segments", r.segments() as u64),
                ("launches", app.launches),
                ("d2h_batches", app.d2h_batches),
                ("d2h_bytes", app.d2h_bytes),
                ("overflow_repairs", app.overflow_repairs),
                ("predicted_waste_words", app.predicted_waste_words),
                ("oom_retries", app.oom_retries),
            ],
        );
    }

    fn cache(&mut self, row: &str, s: PlanCacheStats) {
        self.put(
            row,
            &[
                ("plan_hits", s.hits),
                ("plan_misses", s.misses),
                ("cone_hits", s.cone_hits),
                ("cone_misses", s.cone_misses),
            ],
        );
    }
}

fn measure() -> Counts {
    let mut c = Counts::default();
    let run = RunOptions::default();
    let spill = RunOptions::default().with_waveform_spill();

    let b = table2_suite()[8].build_at_scale(1.0);
    let (stimuli, duration) = (&b.stimuli, b.duration);
    let session = Session::new(Arc::clone(&b.graph), sim_config());
    for row in ["dense.first", "dense.warm"] {
        c.run(row, &session.run_with(stimuli, duration, &run).unwrap());
    }
    let vcd_run = session.run_to_vcd(stimuli, duration, &run, Vec::new());
    let (r, vcd) = vcd_run.unwrap();
    c.run("dense.vcd", &r);
    c.put("dense.vcd", &[("vcd_fnv", fnv1a(&vcd))]);
    c.cache("dense", session.plan_cache_stats());

    let b = table2_suite()[11].build_at_scale(1.0);
    let session = Session::new(Arc::clone(&b.graph), sim_config());
    let r = session.run_with(&b.stimuli, b.duration, &run).unwrap();
    c.run("cold", &r);
    c.cache("cold", session.plan_cache_stats());

    let netlist = mac_datapath(8, 20);
    let sdf = attach_sdf(&netlist, &SdfGenConfig::default());
    let stimulus = StimulusConfig::random(200, CYCLE_TIME, 0.35, 99);
    let stimuli = generate(netlist.primary_inputs().len(), &stimulus);
    let duration = stimulus.duration();
    let cfg = FlowConfig {
        fixes: (netlist.gate_count() / 40).max(8),
        sim: sim_config(),
        compare_baseline: false,
        ..FlowConfig::default()
    };
    let report = run_glitch_flow(&netlist, &sdf, &stimuli, duration, CYCLE_TIME, &cfg).unwrap();
    let (before, after) = (report.glitch_before, report.glitch_after);
    c.put(
        "flow",
        &[
            ("fixed_gates", report.fixed_gates.len() as u64),
            ("fixed_fnv", fnv1a(report.fixed_gates.join(",").as_bytes())),
            ("functional_before", before.0),
            ("glitch_before", before.1),
            ("functional_after", after.0),
            ("glitch_after", after.1),
        ],
    );
    // The re-sim pair on the fixed design: each fixed instance's IOPATH
    // triples × slowdown, rounded as the flow rounds them.
    let (mut sdf_fixed, mut fixed) = (sdf.clone(), Vec::new());
    let scale = |v: Option<f64>| v.map(|x| (x * cfg.slowdown).round());
    for name in &report.fixed_gates {
        fixed.push(netlist.find_gate(name).unwrap().index());
        let cells = sdf_fixed.cells.iter_mut();
        for cell in cells.filter(|cell| cell.instance.as_ref() == Some(name)) {
            let iopaths = cell.iopaths.iter_mut();
            for t in iopaths.flat_map(|p| [&mut p.rise, &mut p.fall]) {
                (t.min, t.typ, t.max) = (scale(t.min), scale(t.typ), scale(t.max));
            }
        }
    }
    let graph =
        |sdf| Arc::new(CircuitGraph::build(&netlist, Some(sdf), &GraphOptions::default()).unwrap());
    let sim0 = Session::new(graph(&sdf), cfg.sim.clone());
    let r0 = sim0.run_with(&stimuli, duration, &spill).unwrap();
    let sim1 = Session::new(graph(&sdf_fixed), cfg.sim.clone());
    let r1 = sim1.run_incremental(&r0, &fixed, &stimuli, duration, &spill);
    let r1 = r1.unwrap();
    c.run("flow.full", &r0);
    c.cache("flow.full", sim0.plan_cache_stats());
    c.run("flow.incremental", &r1);
    c.cache("flow.incremental", sim1.plan_cache_stats());

    let b = table2_suite()[0].build_at_scale(0.15);
    let cfg = SimConfig {
        memory_words: 14_000,
        ..SimConfig::small()
            .with_cycle_parallelism(8)
            .with_window_align(b.cycle_time)
    };
    let gpus = MultiGpu::new(DeviceSpec::v100(), 2, 14_000);
    let session = Session::with_devices(Arc::clone(&b.graph), cfg, gpus.devices().to_vec());
    let r = session.run_with(&b.stimuli, b.duration, &spill).unwrap();
    c.run("fleet", &r);
    let inc = session.run_incremental(&r, &[0, 7, 40], &b.stimuli, b.duration, &spill);
    c.run("fleet.incremental", &inc.unwrap());
    session.seed_extent_history(2);
    let r = session.run_with(&b.stimuli, b.duration, &spill).unwrap();
    c.run("fleet.repair", &r);
    c.cache("fleet", session.plan_cache_stats());
    c
}

/// Writes the oracle from the engine of the checked-out commit.
#[test]
#[ignore = "writes the counts fixture; run by hand on the oracle commit"]
fn write_counts_fixture() {
    let header = "# exact_counts oracle: `<row>.<count> <value>`, one line per count.\n\
                  # Regenerate: cargo test --test exact_counts -- --ignored write_counts_fixture\n";
    let lines: String = measure().0.iter().map(|l| format!("{l}\n")).collect();
    std::fs::write(FIXTURE, format!("{header}{lines}")).expect("write fixture");
}

#[test]
fn counts_match_fixture() {
    let fixture = std::fs::read_to_string(FIXTURE).expect("fixture is committed");
    let expected: Vec<&str> = fixture.lines().filter(|l| !l.starts_with('#')).collect();
    let actual = measure().0;
    let moved: Vec<String> = expected
        .iter()
        .zip(&actual)
        .filter(|(want, got)| *want != got)
        .map(|(want, got)| format!("fixture `{want}`, now `{got}`"))
        .collect();
    assert_eq!(
        expected.len(),
        actual.len(),
        "runs and fixture differ in count"
    );
    assert!(moved.is_empty(), "counts moved:\n{}", moved.join("\n"));
}
