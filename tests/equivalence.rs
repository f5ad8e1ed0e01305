//! Cross-engine equivalence: the paper's central accuracy claim is that
//! GATSPI re-simulation matches the commercial (event-driven) simulator
//! with no loss. These tests assert bit-exact SAIF plus waveform
//! spot-checks across the benchmark suite, and that every GATSPI execution
//! configuration (windowing, segmentation, CPU backend, multi-GPU) agrees
//! with itself.

use std::sync::Arc;

use gatspi_core::{RunOptions, Session, SimConfig};
use gatspi_gpu::{Device, DeviceSpec, MultiGpu};
use gatspi_graph::{CircuitGraph, GraphOptions};
use gatspi_netlist::{CellLibrary, NetlistBuilder};
use gatspi_refsim::{EventSimulator, RefConfig};
use gatspi_sdf::{DelayTriple, Interconnect, PortPath};
use gatspi_wave::{SimTime, Waveform};
use gatspi_workloads::sdfgen::{attach_sdf, SdfGenConfig};
use gatspi_workloads::suite::{table2_suite, BuiltBenchmark};

fn session(b: &BuiltBenchmark, parallelism: usize) -> Session {
    let cfg = SimConfig::small()
        .with_cycle_parallelism(parallelism)
        .with_window_align(b.cycle_time);
    Session::new(Arc::clone(&b.graph), cfg)
}

fn gatspi(b: &BuiltBenchmark, parallelism: usize) -> gatspi_core::SimResult {
    session(b, parallelism)
        .run(&b.stimuli, b.duration)
        .expect("gatspi run")
}

fn reference(b: &BuiltBenchmark) -> gatspi_refsim::RefResult {
    EventSimulator::new(&b.graph, RefConfig::default())
        .run(&b.stimuli, b.duration)
        .expect("reference run")
}

/// Outcome of a waveform spot-check.
#[derive(Debug, Clone, PartialEq, Eq)]
struct VerifyReport {
    /// Human-readable mismatch descriptions; empty means verified.
    mismatches: Vec<String>,
    /// Signals compared.
    compared: usize,
}

impl VerifyReport {
    /// Whether everything matched.
    fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Spot-checks full waveforms of selected signals: `pairs` yields
/// `(name, ours, reference)` triples.
fn spot_check_waveforms<'a>(
    pairs: impl IntoIterator<Item = (&'a str, &'a Waveform, &'a Waveform)>,
) -> VerifyReport {
    let mut mismatches = Vec::new();
    let mut compared = 0;
    for (name, a, b) in pairs {
        compared += 1;
        if a != b {
            let detail = first_divergence(a, b)
                .map(|t| format!("first divergence at t={t}"))
                .unwrap_or_else(|| "shape differs".to_string());
            mismatches.push(format!(
                "signal `{name}`: {} vs {} toggles, {detail}",
                a.toggle_count(),
                b.toggle_count()
            ));
        }
    }
    VerifyReport {
        mismatches,
        compared,
    }
}

/// Finds the earliest time at which two waveforms hold different values, if
/// any (they may still differ later in toggle times beyond both EOWs).
fn first_divergence(a: &Waveform, b: &Waveform) -> Option<i32> {
    if a.initial_value() != b.initial_value() {
        return Some(0);
    }
    // Walk the merged toggle timeline.
    let mut times: Vec<i32> = a.iter().chain(b.iter()).map(|(t, _)| t).collect();
    times.sort_unstable();
    times.dedup();
    times.into_iter().find(|&t| a.value_at(t) != b.value_at(t))
}

#[test]
fn spot_check_reports_divergence_time() {
    let a = Waveform::from_toggles(false, &[5, 9]);
    let b = Waveform::from_toggles(false, &[5, 11]);
    let r = spot_check_waveforms([("n1", &a, &b)]);
    assert!(!r.passed());
    assert!(r.mismatches[0].contains("t=9"));
    let ok = spot_check_waveforms([("n1", &a, &a)]);
    assert!(ok.passed());
    assert_eq!(ok.compared, 1);
}

#[test]
fn divergence_cases() {
    let a = Waveform::from_toggles(true, &[5]);
    let b = Waveform::from_toggles(false, &[5]);
    assert_eq!(first_divergence(&a, &b), Some(0));
    let c = Waveform::from_toggles(false, &[5]);
    let d = Waveform::from_toggles(false, &[7]);
    assert_eq!(first_divergence(&c, &d), Some(5));
    assert_eq!(first_divergence(&c, &c), None);
}

/// Every suite row, windowed GATSPI vs event-driven reference: SAIF must be
/// identical (TC and T0/T1, every net).
#[test]
fn saif_bit_exact_across_suite() {
    for def in table2_suite() {
        let b = def.build_at_scale(0.12);
        let g = gatspi(&b, 8);
        let r = reference(&b);
        let diffs = g.saif.diff(&r.saif);
        assert!(
            diffs.is_empty(),
            "{}: {} SAIF diffs, first: {:?}",
            b.label(),
            diffs.len(),
            diffs.first()
        );
    }
}

/// Waveform spot-checks (the paper's second verification method): full
/// waveforms of pseudo-random signals compared edge for edge.
#[test]
fn waveform_spot_checks() {
    for def in table2_suite().into_iter().step_by(3) {
        let b = def.build_at_scale(0.12);
        let g = session(&b, 4)
            .run_with(
                &b.stimuli,
                b.duration,
                &RunOptions::default().with_waveform_spill(),
            )
            .expect("gatspi run");
        let r = reference(&b);
        let ref_waves = r.waveforms.as_ref().expect("recorded");
        let n = b.graph.n_signals();
        let picks: Vec<usize> = (0..12).map(|k| (k * 977 + 13) % n).collect();
        let mut ours = Vec::new();
        for &s in &picks {
            ours.push((s, g.waveform(s).expect("extraction")));
        }
        let names: Vec<String> = picks
            .iter()
            .map(|&s| {
                b.graph
                    .signal_name(gatspi_graph::SignalId(s as u32))
                    .to_string()
            })
            .collect();
        let report = spot_check_waveforms(
            ours.iter()
                .zip(&names)
                .map(|((s, w), name)| (name.as_str(), w, &ref_waves[*s])),
        );
        assert!(
            report.passed(),
            "{}: {:?}",
            b.label(),
            report.mismatches.first()
        );
    }
}

/// Different cycle-parallelism settings must not change results.
#[test]
fn window_count_invariance() {
    let b = table2_suite()[7].build_at_scale(0.1);
    let base = gatspi(&b, 1);
    for p in [2usize, 8, 32] {
        let windowed = gatspi(&b, p);
        assert!(base.saif.diff(&windowed.saif).is_empty(), "P={p} diverged");
    }
}

/// The OpenMP-equivalent CPU backend computes the same result.
#[test]
fn cpu_backend_matches() {
    let b = table2_suite()[6].build_at_scale(0.15);
    let g = gatspi(&b, 8);
    let cfg = SimConfig::small()
        .with_cycle_parallelism(8)
        .with_window_align(b.cycle_time);
    let host = Device::with_workers(cfg.device.clone(), cfg.memory_words, 3);
    let cpu = Session::with_devices(Arc::clone(&b.graph), cfg, vec![Arc::new(host)])
        .run(&b.stimuli, b.duration)
        .expect("cpu run");
    assert!(g.saif.diff(&cpu.saif).is_empty());
}

/// Multi-GPU distribution is result-invariant.
#[test]
fn multi_gpu_matches() {
    let b = table2_suite()[0].build_at_scale(0.3);
    let g = gatspi(&b, 8);
    let cfg = SimConfig::small()
        .with_cycle_parallelism(8)
        .with_window_align(b.cycle_time);
    for n in [2usize, 3] {
        let gpus = MultiGpu::new(DeviceSpec::v100(), n, 1 << 20);
        let multi =
            Session::with_devices(Arc::clone(&b.graph), cfg.clone(), gpus.devices().to_vec())
                .run(&b.stimuli, b.duration)
                .expect("multi run");
        assert!(g.saif.diff(&multi.saif).is_empty(), "{n} GPUs diverged");
    }
}

/// Memory segmentation (the paper's "compile the testbench into shorter
/// segments" fallback) is result-invariant too.
#[test]
fn segmented_run_matches() {
    let b = table2_suite()[0].build_at_scale(0.2);
    let roomy = gatspi(&b, 16);
    let tight_cfg = SimConfig {
        memory_words: 40_000,
        ..SimConfig::small()
    }
    .with_cycle_parallelism(16)
    .with_window_align(b.cycle_time);
    let tight = Session::new(Arc::clone(&b.graph), tight_cfg)
        .run(&b.stimuli, b.duration)
        .expect("segmented run");
    assert!(tight.segments() > 1, "expected segmentation");
    assert!(roomy.saif.diff(&tight.saif).is_empty());
}

/// The parallel (multi-threaded commercial stand-in) baseline agrees with
/// the serial baseline and therefore with GATSPI.
#[test]
fn parallel_baseline_matches() {
    let b = table2_suite()[6].build_at_scale(0.15);
    let serial = reference(&b);
    let par = gatspi_refsim::run_parallel(
        &b.graph,
        RefConfig::default(),
        &b.stimuli,
        b.duration,
        4,
        b.cycle_time,
    )
    .expect("parallel baseline");
    assert!(serial.saif.diff(&par.saif).is_empty());
}

/// Dense seeded stimulus with narrow pulses: every input toggles 1–7 ticks
/// after its previous edge.
fn dense_pulses(n_inputs: usize, duration: SimTime, seed: u64) -> Vec<Waveform> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..n_inputs)
        .map(|_| {
            let initial = next() & 1 == 1;
            let mut times = Vec::new();
            let mut t = next() % 7;
            loop {
                t += 1 + next() % 7;
                if t >= duration as u64 {
                    break;
                }
                times.push(t as SimTime);
            }
            Waveform::from_toggles(initial, &times)
        })
        .collect()
}

/// Every cell of the library as a single-gate design against the
/// event-driven reference over one window: dense narrow pulses, a
/// conditional IOPATH and a wire on every pin wide enough to filter some
/// of them. The cells span fan-ins 0–4 and 6, so every fan-in-specialised
/// kernel body runs, and MUX4's six pins run the generic
/// `MAX_KERNEL_PINS` one.
#[test]
fn every_library_cell_matches_refsim() {
    let lib = CellLibrary::industry_mini();
    let duration: SimTime = 600;
    let mut arities = std::collections::BTreeSet::new();
    let mut conds = 0usize;
    for (_, cell) in lib.iter() {
        let n = cell.num_inputs();
        arities.insert(n);
        for seed in 0..3u64 {
            let mut b = NetlistBuilder::new("one", lib.clone());
            let ins: Vec<_> = (0..n)
                .map(|k| b.add_input(&format!("i{k}")).unwrap())
                .collect();
            let y = b.add_output("y").unwrap();
            b.add_gate("u", cell.name(), &ins, y).unwrap();
            let netlist = b.finish().unwrap();
            let mut sdf = attach_sdf(
                &netlist,
                &SdfGenConfig {
                    cond_probability: 1.0,
                    max_net_delay: 0,
                    seed: seed ^ 0xA11,
                    ..SdfGenConfig::default()
                },
            );
            conds += sdf
                .cells
                .iter()
                .flat_map(|c| &c.iopaths)
                .filter(|p| p.cond.is_some())
                .count();
            for (k, pin) in cell.input_pins().iter().enumerate() {
                sdf.interconnects.push(Interconnect {
                    from: PortPath {
                        instance: None,
                        pin: format!("i{k}"),
                    },
                    to: PortPath {
                        instance: Some("u".into()),
                        pin: pin.clone(),
                    },
                    rise: DelayTriple::single(f64::from(2 + (k as u32 + 1) % 4)),
                    fall: DelayTriple::single(f64::from(2 + (k as u32 + 2) % 5)),
                });
            }
            let graph = Arc::new(
                CircuitGraph::build(&netlist, Some(&sdf), &GraphOptions::default()).unwrap(),
            );
            let stimuli = dense_pulses(n, duration, seed + 1);
            let cfg = SimConfig::small().with_cycle_parallelism(1);
            let ours = Session::new(Arc::clone(&graph), cfg)
                .run_with(
                    &stimuli,
                    duration,
                    &RunOptions::default().with_waveform_spill(),
                )
                .expect("run");
            let r = EventSimulator::new(&graph, RefConfig::default())
                .run(&stimuli, duration)
                .expect("reference run");
            let what = format!("{} (seed {seed})", cell.name());
            let diffs = ours.saif.diff(&r.saif);
            assert!(
                diffs.is_empty(),
                "{what}: SAIF diverged from refsim, first: {:?}",
                diffs.first()
            );
            // Edges refsim records past the end of the run are outside it.
            for (s, expected) in r.waveforms.as_ref().expect("recorded").iter().enumerate() {
                let expected = expected.window(0, duration);
                assert_eq!(ours.waveform(s).unwrap(), expected, "{what}: signal {s}");
            }
        }
    }
    // Fan-ins 0–4 each take their own specialised body, MUX4's six pins
    // the generic one.
    assert!(
        (0..=4).all(|n| arities.contains(&n)) && arities.last() == Some(&6),
        "fan-ins covered: {arities:?}"
    );
    assert!(conds > 0, "no conditional arc was generated");
}
