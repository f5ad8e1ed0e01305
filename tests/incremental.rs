//! Cone-restricted incremental re-simulation equivalence: after resizing a
//! set of gates' delays (an ECO / optimizer iteration),
//! [`Session::run_incremental`] re-executes only the changed gates'
//! transitive fan-out against the previous run's spilled waveforms — and
//! must be **bit-identical** to a full re-simulation with the new delays:
//! same SAIF, same toggle counts, same stitched waveform for every signal,
//! across serial, segmented and streaming-sink executions, and for
//! randomized resize sets.

use std::sync::Arc;

use gatspi_core::{CoreError, RunOptions, Session, SimConfig, SimResult, WaveformSink, WindowInfo};
use gatspi_graph::{CircuitGraph, GraphOptions, SignalId};
use gatspi_netlist::{GateId, Netlist};
use gatspi_sdf::SdfFile;
use gatspi_wave::{Waveform, EOW};
use gatspi_workloads::circuits::{random_logic, RandomLogicConfig};
use gatspi_workloads::sdfgen::{attach_sdf, SdfGenConfig};
use gatspi_workloads::stimuli::{generate, StimulusConfig};

/// A generated design plus its annotation: the "tapeout" the ECO edits.
struct Design {
    netlist: Netlist,
    sdf: SdfFile,
}

fn design(seed: u64, gates: usize) -> Design {
    let netlist = random_logic(&RandomLogicConfig {
        gates,
        inputs: 12,
        depth: 8,
        output_fraction: 0.1,
        seed,
    });
    let sdf = attach_sdf(
        &netlist,
        &SdfGenConfig {
            seed: seed ^ 0xEC0,
            ..SdfGenConfig::default()
        },
    );
    Design { netlist, sdf }
}

/// Clones the SDF with the listed gates' IOPATH delays scaled by `factor` —
/// the delay-only edit (cell resize) the incremental path is built for.
fn resize_gates(d: &Design, changed: &[usize], factor: f64) -> SdfFile {
    let mut patched = d.sdf.clone();
    for &g in changed {
        let name = d.netlist.gate(GateId::from_index(g)).name();
        for cell in &mut patched.cells {
            if cell.instance.as_deref() == Some(name) {
                for p in &mut cell.iopaths {
                    for t in [&mut p.rise, &mut p.fall] {
                        let scale = |v: Option<f64>| v.map(|x| (x * factor).round().max(1.0));
                        t.min = scale(t.min);
                        t.typ = scale(t.typ);
                        t.max = scale(t.max);
                    }
                }
            }
        }
    }
    patched
}

fn graph_of(d: &Design, sdf: &SdfFile) -> Arc<CircuitGraph> {
    Arc::new(CircuitGraph::build(&d.netlist, Some(sdf), &GraphOptions::default()).unwrap())
}

/// Reference cone: fixpoint of "a gate reading an in-cone output is
/// in-cone" over the driver relation (independent of the engine's sweep).
fn transitive_fanout(graph: &CircuitGraph, changed: &[usize]) -> Vec<bool> {
    let mut cone = vec![false; graph.n_gates()];
    for &g in changed {
        cone[g] = true;
    }
    loop {
        let mut progress = false;
        for g in 0..graph.n_gates() {
            if cone[g] {
                continue;
            }
            let hit = graph
                .gate_fanin(g)
                .iter()
                .any(|&p| graph.driver(SignalId(p)).is_some_and(|d| cone[d]));
            if hit {
                cone[g] = true;
                progress = true;
            }
        }
        if !progress {
            return cone;
        }
    }
}

/// Every comparison the equivalence claim needs: SAIF records, per-signal
/// toggle counts, and the stitched full-duration waveform of each signal.
fn assert_bit_identical(graph: &CircuitGraph, full: &SimResult, inc: &SimResult, label: &str) {
    let diffs = inc.saif.diff(&full.saif);
    assert!(
        diffs.is_empty(),
        "{label}: {} SAIF diffs, first: {:?}",
        diffs.len(),
        diffs.first()
    );
    for s in 0..graph.n_signals() {
        assert_eq!(
            inc.toggle_count(s),
            full.toggle_count(s),
            "{label}: toggle count of signal {s}"
        );
        assert_eq!(
            inc.waveform(s).unwrap(),
            full.waveform(s).unwrap(),
            "{label}: waveform of signal {s}"
        );
    }
}

fn spill_opts() -> RunOptions {
    RunOptions::default().with_waveform_spill()
}

#[test]
fn incremental_matches_full_resim_exactly() {
    let d = design(11, 260);
    let changed = vec![30usize, 31, 97];
    let sdf1 = resize_gates(&d, &changed, 2.0);
    let graph0 = graph_of(&d, &d.sdf);
    let graph1 = graph_of(&d, &sdf1);
    let cycle = 100;
    let cycles = 24usize;
    let duration = cycle * cycles as i32;
    let stimuli = generate(
        graph0.primary_inputs().len(),
        &StimulusConfig::random(cycles, cycle, 0.6, 5),
    );
    let cfg = SimConfig::small()
        .with_cycle_parallelism(4)
        .with_window_align(cycle);

    let sim0 = Session::new(Arc::clone(&graph0), cfg.clone());
    let r0 = sim0.run_with(&stimuli, duration, &spill_opts()).unwrap();

    let sim1 = Session::new(Arc::clone(&graph1), cfg);
    let full = sim1.run_with(&stimuli, duration, &spill_opts()).unwrap();
    let inc = sim1
        .run_incremental(&r0, &changed, &stimuli, duration, &spill_opts())
        .unwrap();
    assert_bit_identical(&graph1, &full, &inc, "serial");

    // The delta plan of the latest changed set is cached: a repeat
    // iteration hits, and produces the same result again.
    let stats = sim1.plan_cache_stats();
    assert!(stats.cone_misses >= 1, "first delta run builds the plan");
    let inc2 = sim1
        .run_incremental(&r0, &changed, &stimuli, duration, &spill_opts())
        .unwrap();
    assert!(
        sim1.plan_cache_stats().cone_hits > stats.cone_hits,
        "repeat delta run hits the cone-plan cache"
    );
    assert_bit_identical(&graph1, &full, &inc2, "repeat");

    // Every gate changed: the cone is the whole design and its boundary is
    // exactly the primary inputs, so the incremental run uploads the same
    // sources a full run does and recomputes every driven signal.
    let every_gate: Vec<usize> = (0..graph1.n_gates()).collect();
    let inc_all = sim1
        .run_incremental(&r0, &every_gate, &stimuli, duration, &spill_opts())
        .unwrap();
    assert_bit_identical(&graph1, &full, &inc_all, "every gate");
    let driven: Vec<bool> = (0..graph1.n_signals() as u32)
        .map(|s| graph1.driver(SignalId(s)).is_some())
        .collect();
    assert_eq!(inc_all.recomputed_signals(), Some(&driven[..]));

    // Chained ECO: a second resize runs incrementally off the incremental
    // result (derived spills stay usable as the next iteration's baseline).
    let changed_b = vec![12usize, 130];
    let sdf2 = resize_gates(
        &Design {
            netlist: d.netlist.clone(),
            sdf: sdf1,
        },
        &changed_b,
        3.0,
    );
    let graph2 = graph_of(&d, &sdf2);
    let sim2 = Session::new(
        Arc::clone(&graph2),
        SimConfig::small().with_cycle_parallelism(4),
    );
    let full2 = sim2.run_with(&stimuli, duration, &spill_opts()).unwrap();
    let inc_chained = sim2
        .run_incremental(&inc, &changed_b, &stimuli, duration, &spill_opts())
        .unwrap();
    assert_bit_identical(&graph2, &full2, &inc_chained, "chained");
}

#[test]
fn incremental_matches_under_segmentation() {
    let d = design(23, 160);
    let changed = vec![40usize, 88];
    let sdf1 = resize_gates(&d, &changed, 2.5);
    let graph0 = graph_of(&d, &d.sdf);
    let graph1 = graph_of(&d, &sdf1);
    let cycle = 50;
    let cycles = 64usize;
    let duration = cycle * cycles as i32;
    let stimuli = generate(
        graph0.primary_inputs().len(),
        &StimulusConfig::random(cycles, cycle, 0.7, 9),
    );
    // An arena too small for all windows at once: both the baseline and
    // the delta run must segment (every run starts from an even share of
    // the windows and halves on its own; nothing carries over).
    let cfg = SimConfig {
        memory_words: 6_000,
        ..SimConfig::small()
    }
    .with_cycle_parallelism(16)
    .with_window_align(cycle);

    let sim0 = Session::new(Arc::clone(&graph0), cfg.clone());
    let r0 = sim0.run_with(&stimuli, duration, &spill_opts()).unwrap();
    assert!(r0.segments() > 1, "baseline run should segment");

    let sim1 = Session::new(Arc::clone(&graph1), cfg);
    let full = sim1.run_with(&stimuli, duration, &spill_opts()).unwrap();
    let inc = sim1
        .run_incremental(&r0, &changed, &stimuli, duration, &spill_opts())
        .unwrap();
    assert_bit_identical(&graph1, &full, &inc, "segmented");

    // Forced segmentation via RunOptions agrees too.
    let inc_forced = sim1
        .run_incremental(
            &r0,
            &changed,
            &stimuli,
            duration,
            &spill_opts().with_segment_windows(3),
        )
        .unwrap();
    assert_bit_identical(&graph1, &full, &inc_forced, "forced-segmented");
}

/// Collects every streamed delivery for inspection.
#[derive(Default)]
struct Collect {
    got: Vec<(usize, usize, Vec<i32>)>,
}

impl WaveformSink for Collect {
    fn waveform(&mut self, signal: usize, info: &WindowInfo, raw: &[i32]) {
        self.got.push((signal, info.window, raw.to_vec()));
    }
}

#[test]
fn incremental_streaming_delivers_exactly_the_cone() {
    let d = design(7, 200);
    let changed = vec![25usize, 61];
    let sdf1 = resize_gates(&d, &changed, 2.0);
    let graph0 = graph_of(&d, &d.sdf);
    let graph1 = graph_of(&d, &sdf1);
    let cycle = 80;
    let cycles = 16usize;
    let duration = cycle * cycles as i32;
    let stimuli = generate(
        graph0.primary_inputs().len(),
        &StimulusConfig::random(cycles, cycle, 0.6, 3),
    );
    let cfg = SimConfig::small()
        .with_cycle_parallelism(4)
        .with_window_align(cycle);

    let sim0 = Session::new(Arc::clone(&graph0), cfg.clone());
    let r0 = sim0.run_with(&stimuli, duration, &spill_opts()).unwrap();
    let sim1 = Session::new(Arc::clone(&graph1), cfg);
    let full = sim1.run_with(&stimuli, duration, &spill_opts()).unwrap();

    let mut sink = Collect::default();
    let inc = sim1
        .run_incremental_streaming(&r0, &changed, &stimuli, duration, &spill_opts(), &mut sink)
        .unwrap();
    assert_bit_identical(&graph1, &full, &inc, "streaming");

    // Streamed deliveries are exactly the recomputed cone outputs: every
    // in-cone driven signal for every window, nothing else — and each
    // delivery's live words match the full run's stored window verbatim.
    let cone = transitive_fanout(&graph1, &changed);
    let in_cone: Vec<usize> = (0..graph1.n_signals())
        .filter(|&s| graph1.driver(SignalId(s as u32)).is_some_and(|g| cone[g]))
        .collect();
    assert!(!in_cone.is_empty(), "resize set must drive a cone");
    let n_windows = sink.got.iter().map(|d| d.1).max().unwrap() + 1;
    assert_eq!(
        sink.got.len(),
        in_cone.len() * n_windows,
        "one delivery per (in-cone signal, window)"
    );
    let mut seen: Vec<(usize, usize)> = sink.got.iter().map(|d| (d.0, d.1)).collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), sink.got.len(), "no duplicate deliveries");
    for (s, w, raw) in &sink.got {
        assert!(
            in_cone.contains(s),
            "signal {s} streamed but is outside the cone"
        );
        let reference = full.raw_window(*s, *w).unwrap();
        let live = raw
            .iter()
            .position(|&x| x == EOW)
            .map_or(&raw[..], |e| &raw[..=e]);
        assert_eq!(live, &reference[..], "window {w} of signal {s}");
    }
}

#[test]
fn incremental_preconditions_are_enforced() {
    let d = design(3, 60);
    let graph = graph_of(&d, &d.sdf);
    let cycle = 60;
    let duration = cycle * 8;
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(8, cycle, 0.5, 1),
    );
    let sim = Session::new(
        Arc::clone(&graph),
        SimConfig::small().with_window_align(cycle),
    );

    // No spill on the baseline → refused.
    let no_spill = sim.run(&stimuli, duration).unwrap();
    assert!(matches!(
        sim.run_incremental(&no_spill, &[0], &stimuli, duration, &spill_opts()),
        Err(CoreError::BadIncremental { .. })
    ));

    let r0 = sim.run_with(&stimuli, duration, &spill_opts()).unwrap();
    // Changed gate out of range → refused.
    assert!(matches!(
        sim.run_incremental(&r0, &[graph.n_gates()], &stimuli, duration, &spill_opts()),
        Err(CoreError::BadIncremental { .. })
    ));
    // Duration mismatch → refused.
    assert!(matches!(
        sim.run_incremental(&r0, &[0], &stimuli, duration / 2, &spill_opts()),
        Err(CoreError::BadIncremental { .. })
    ));
    // Wrong stimulus count → the usual mismatch error.
    assert!(matches!(
        sim.run_incremental(&r0, &[0], &stimuli[1..], duration, &spill_opts()),
        Err(CoreError::StimulusMismatch { .. })
    ));
    // An empty change set degenerates to "reuse everything" and still
    // reports a well-formed result.
    let noop = sim
        .run_incremental(&r0, &[], &stimuli, duration, &spill_opts())
        .unwrap();
    for s in 0..graph.n_signals() {
        assert_eq!(noop.waveform(s).unwrap(), r0.waveform(s).unwrap());
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest::proptest! {
        #![proptest_config(ProptestConfig {
            cases: 10,
            .. ProptestConfig::default()
        })]

        /// Randomized resize sets: any subset of gates, scaled by a random
        /// factor, simulated with 1 or 4 concurrent windows — incremental
        /// equals full, bit for bit.
        #[test]
        fn randomized_resize_sets_stay_bit_identical(
            seed in 0u64..1 << 32,
            n_changed in 1usize..6,
            factor_tenths in 12u32..40,
            parallel in proptest::any::<bool>(),
        ) {
            let d = design(seed | 1, 140);
            let graph0 = graph_of(&d, &d.sdf);
            let n_gates = graph0.n_gates();
            let changed: Vec<usize> = (0..n_changed)
                .map(|k| ((seed >> (k * 7)) as usize).wrapping_mul(31 + k) % n_gates)
                .collect();
            let sdf1 = resize_gates(&d, &changed, f64::from(factor_tenths) / 10.0);
            let graph1 = graph_of(&d, &sdf1);
            let cycle = 70;
            let cycles = 12usize;
            let duration = cycle * cycles as i32;
            let stimuli = generate(
                graph0.primary_inputs().len(),
                &StimulusConfig::random(cycles, cycle, 0.6, seed ^ 0xAB),
            );
            let cfg = SimConfig::small()
                .with_cycle_parallelism(if parallel { 4 } else { 1 })
                .with_window_align(cycle);

            let sim0 = Session::new(Arc::clone(&graph0), cfg.clone());
            let r0 = sim0.run_with(&stimuli, duration, &spill_opts()).unwrap();
            let sim1 = Session::new(Arc::clone(&graph1), cfg);
            let full = sim1.run_with(&stimuli, duration, &spill_opts()).unwrap();
            let inc = sim1
                .run_incremental(&r0, &changed, &stimuli, duration, &spill_opts())
                .unwrap();

            let diffs = inc.saif.diff(&full.saif);
            prop_assert!(diffs.is_empty(), "SAIF diffs: {:?}", diffs.first());
            for s in 0..graph1.n_signals() {
                prop_assert_eq!(inc.toggle_count(s), full.toggle_count(s));
                prop_assert_eq!(
                    inc.waveform(s).unwrap(),
                    full.waveform(s).unwrap(),
                    "waveform of signal {}", s
                );
            }
            let _ = Waveform::constant(false); // keep the import exercised
        }
    }
}
